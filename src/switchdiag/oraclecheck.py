"""Randomized cross-validation of the DM core against an independent oracle.

Random models are decomposed twice: by the production alternating-path
classification and by the matching-cardinality oracle (an equation is
redundant exactly when removing it keeps the maximum matching size, with
the matching size computed by scipy's Hopcroft-Karp rather than the
package's own matching code).  Isolability partitions are checked against
a brute-force pairwise evaluation of the removal definition, and
:func:`definitional_dm_decompose` recomputes fine blocks by literal removal
as the reference for :func:`~switchdiag.structural.dm_decompose`.
:func:`is_isolable` and :func:`isolability_matrix` give the same pairwise
removal route on the package's own matching, for tests that compare it
with the fine-block partition.
"""

import random
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from .errors import InputError, InternalConsistencyError, OracleBoundError
from .structural import (
    DmDecomposition,
    IsolabilityMatrix,
    IsolabilityReport,
    StructuralModel,
    _canonical_partition,
    _coarse_parts,
    _named_parts,
    detectability_set,
    dm_decompose,
    isolability_partition,
    plus_part,
)

__all__ = [
    "OracleCheckResult",
    "definitional_dm_decompose",
    "is_isolable",
    "isolability_matrix",
    "oracle_partition",
    "oracle_plus_membership",
    "random_model",
    "remove_equation",
    "run_oracle_check",
]

#: Largest model (by equation count) the exhaustive oracle accepts.
DEFAULT_ORACLE_BOUND = 16


def random_model(
    rng: random.Random, max_equations: int = 12, max_unknowns: int = 10
) -> StructuralModel:
    """Random incidence structure with random density and injective faults."""
    n_eq = rng.randint(0, max_equations)
    n_unk = rng.randint(0, max_unknowns)
    density = rng.uniform(0.05, 0.85)
    equations = [f"e{i}" for i in range(1, n_eq + 1)]
    unknowns = [f"x{j}" for j in range(1, n_unk + 1)]
    incidence = [frozenset(x for x in unknowns if rng.random() < density) for _ in equations]
    fault_eqs = rng.sample(equations, rng.randint(0, n_eq))
    fault_of = {eq: f"f{i}" for i, eq in enumerate(fault_eqs, start=1)}
    rows = tuple(zip(equations, incidence, map(fault_of.get, equations)))
    return StructuralModel(rows=rows, unknowns=tuple(unknowns))


def remove_equation(model: StructuralModel, equation: str) -> StructuralModel:
    """Return ``model`` without ``equation`` (and without the fault on it)."""
    if equation not in model.incidence:
        raise InputError(f"unknown equation {equation!r}")
    return StructuralModel(
        rows=tuple(row for row in model.rows if row[0] != equation), unknowns=model.unknowns
    )


def is_isolable(model: StructuralModel, fault_i: str, fault_j: str) -> bool:
    """True when ``fault_i`` stays detectable after removing ``fault_j``'s equation."""
    if fault_i == fault_j:
        raise InputError("isolability of a fault from itself is undefined")
    for f in (fault_i, fault_j):
        if f not in model.fault_map:
            raise InputError(f"fault {f!r} is not declared in the model")
    reduced = remove_equation(model, model.fault_map[fault_j])
    return model.fault_map[fault_i] in plus_part(reduced)


def isolability_matrix(model: StructuralModel) -> IsolabilityMatrix:
    """Pairwise non-isolability matrix over the detectable faults.

    Computed by direct pairwise removal, independently of the fine-block
    partition, so the two routes can be cross-checked against each other.
    """
    detectable, _ = detectability_set(model)
    order = tuple(sorted(detectable))
    entries = tuple(
        tuple(
            True if i == j else not is_isolable(model, fi, fj)
            for j, fj in enumerate(order)
        )
        for i, fi in enumerate(order)
    )
    return IsolabilityMatrix(order, entries)


def _oracle_matching_size(model: StructuralModel) -> int:
    """Maximum matching cardinality via scipy's Hopcroft-Karp.

    Kept deliberately separate from the hand-written augmenting-path code
    so the oracle exercises an independent implementation.
    """
    if not model.equations or not model.unknowns:
        return 0
    var_index = {x: j for j, x in enumerate(model.unknowns)}
    indptr = np.zeros(len(model.equations) + 1, dtype=np.int32)
    cols: list[int] = []
    for i, (_, row_unknowns, _) in enumerate(model.rows):
        cols.extend(sorted(var_index[x] for x in row_unknowns))
        indptr[i + 1] = len(cols)
    if not cols:
        return 0
    graph = csr_matrix(
        (np.ones(len(cols), dtype=np.int8), np.asarray(cols, dtype=np.int32), indptr),
        shape=(len(model.equations), len(model.unknowns)),
    )
    match = maximum_bipartite_matching(graph, perm_type="column")
    return int((match != -1).sum())


def oracle_plus_membership(
    model: StructuralModel, equation: str, *, bound: int = DEFAULT_ORACLE_BOUND
) -> bool:
    """Test oracle for overdetermined-part membership.

    An equation lies in the overdetermined part exactly when some maximum
    matching leaves it exposed, i.e. when removing it does not reduce the
    maximum matching cardinality.  Only intended for validating
    :func:`dm_decompose` on small models; larger inputs are refused.
    """
    if len(model.equations) > bound:
        raise OracleBoundError(
            f"oracle refuses models with more than {bound} equations "
            f"(got {len(model.equations)})"
        )
    if equation not in model.incidence:
        raise InputError(f"unknown equation {equation!r}")
    return _oracle_matching_size(remove_equation(model, equation)) == _oracle_matching_size(model)


def definitional_dm_decompose(model: StructuralModel) -> DmDecomposition:
    """Reference DM decomposition with fine blocks taken from the definition.

    Each fine block is found by re-decomposing the model with one
    overdetermined equation removed: all equations the removal expels share
    the removed equation's block.  Costs one model rebuild and one fresh
    matching per block; test use only.
    """
    under, just, over_part = _named_parts(model, _coarse_parts(model))
    over = over_part.equations
    assigned: set[str] = set()
    blocks: list[frozenset[str]] = []
    for eq in sorted(over):
        if eq in assigned:
            continue
        block = over - plus_part(remove_equation(model, eq))
        if block & assigned or eq not in block:
            raise InternalConsistencyError("fine blocks do not form a partition")
        assigned |= block
        blocks.append(block)
    return DmDecomposition(under, just, over_part, _canonical_partition(blocks))


def oracle_partition(model: StructuralModel) -> IsolabilityReport:
    """Brute-force isolability: pairwise removal checked by matching sizes.

    Asserts the symmetry of the non-isolable relation on detectable faults
    and that the relation closes into a partition, then returns it.
    """
    detectable = frozenset(
        f for f in model.faults if oracle_plus_membership(model, model.fault_map[f])
    )
    non_detectable = frozenset(model.faults) - detectable
    det = sorted(detectable)

    # Cache matching sizes: nu(M \ {e}) and nu(M \ {e_i, e_j}).
    nu_without = {
        model.fault_map[f]: _oracle_matching_size(remove_equation(model, model.fault_map[f]))
        for f in det
    }
    non_isolable: dict[tuple[str, str], bool] = {}
    for i, fi in enumerate(det):
        for fj in det[i + 1:]:
            ei, ej = model.fault_map[fi], model.fault_map[fj]
            nu_pair = _oracle_matching_size(remove_equation(remove_equation(model, ei), ej))
            # fi isolable from fj iff e_i stays redundant once e_j is gone.
            ij = not (nu_pair == nu_without[ej])
            ji = not (nu_pair == nu_without[ei])
            if ij != ji:
                raise InternalConsistencyError(
                    f"oracle non-isolability is asymmetric for ({fi}, {fj})"
                )
            non_isolable[(fi, fj)] = ij

    parent = {f: f for f in det}

    def find(f: str) -> str:
        while parent[f] != f:
            parent[f] = parent[parent[f]]
            f = parent[f]
        return f

    for (fi, fj), linked in non_isolable.items():
        if linked:
            parent[find(fi)] = find(fj)

    cells: dict[str, set[str]] = {}
    for f in det:
        cells.setdefault(find(f), set()).add(f)
    # The pairwise relation must already be transitive, or it is no partition.
    for cell in cells.values():
        ordered = sorted(cell)
        for i, fi in enumerate(ordered):
            for fj in ordered[i + 1:]:
                if not non_isolable[(fi, fj)]:
                    raise InternalConsistencyError(
                        f"oracle non-isolability is not transitive at ({fi}, {fj})"
                    )
    partition = _canonical_partition(cells.values())
    return IsolabilityReport(detectable, partition, non_detectable)


@dataclass
class OracleCheckResult:
    models_checked: int = 0
    equations_checked: int = 0
    pairs_checked: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def run_oracle_check(count: int, seed: int) -> OracleCheckResult:
    """Cross-validate ``count`` random models; collect any disagreements."""
    if count < 1:
        raise InputError(f"model count must be >= 1 (got {count})")
    rng = random.Random(seed)
    result = OracleCheckResult()
    for index in range(count):
        model = random_model(rng)
        result.models_checked += 1
        over = dm_decompose(model).over.equations
        for eq in model.equations:
            result.equations_checked += 1
            if (eq in over) != oracle_plus_membership(model, eq):
                result.failures.append(
                    f"model {index}: redundancy of {eq} disagrees with the oracle"
                )
        expected = oracle_partition(model)
        result.pairs_checked += (
            len(expected.detectable) * (len(expected.detectable) - 1) // 2
        )
        actual = isolability_partition(model)
        if (actual.detectable, actual.non_isolable_partition, actual.non_detectable) != (
            expected.detectable,
            expected.non_isolable_partition,
            expected.non_detectable,
        ):
            result.failures.append(
                f"model {index}: isolability partition disagrees with pairwise brute force"
            )
    return result
