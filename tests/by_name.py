"""The reference flattening of a switched model, built name by name.

``switched.instantiate`` builds a configuration's flat model by integer
offsets and checks names only where they can collide.  This builder
suffixes every name with ``instance_name`` and hands the rows to the
public ``StructuralModel`` constructor, which checks every name and
derives the integer adjacency from names, so tests compare the two.
"""

from collections.abc import Sequence

from switchdiag.structural import StructuralModel
from switchdiag.switched import SwitchedModel, instance_name


def instantiate_by_name(switched: SwitchedModel, modes: Sequence[str]) -> StructuralModel:
    # Rows stay a list, so StructuralModel sees any equation or fault name
    # collision between instances and global equations and refuses it.
    template = switched.template
    local = set(template.local_unknowns)
    rows: list[tuple[str, frozenset[str], str | None]] = []
    for k, mode in enumerate(modes, start=1):
        for eq in template.equations:
            rows.append((
                instance_name(eq.id, k),
                frozenset(instance_name(x, k) if x in local else x for x in eq.variants[mode]),
                None if eq.fault is None else instance_name(eq.fault, k),
            ))
    for geq in switched.global_equations:
        expanded = set(geq.unknowns)
        for base in geq.per_instance:
            expanded.update(instance_name(base, k) for k in range(1, switched.n + 1))
        rows.append((geq.id, frozenset(expanded), geq.fault))

    unknowns = [
        instance_name(x, k)
        for k in range(1, switched.n + 1)
        for x in template.local_unknowns
    ]
    unknowns.extend(switched.shared_unknowns)
    return StructuralModel(rows=tuple(rows), unknowns=tuple(unknowns))
