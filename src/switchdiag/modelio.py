"""JSON exchange formats for flat and switched models.

Flat structural models serialize as ``{"equations": [{"id", "unknowns",
"fault"?}], "unknowns": [...]}``; switched models carry the template with
per-mode incidence variants, the global equations and an optional
template-level fault aggregation pattern.  All serialized collections are
lexicographically ordered so files are byte-stable.
"""

import json
import sys
from contextlib import contextmanager
from pathlib import Path

from .errors import InputError
from .structural import DmDecomposition, StructuralModel
from .switched import (
    GlobalEquation,
    ModeGuardedEquation,
    SubmoduleTemplate,
    SwitchedModel,
)

__all__ = [
    "decomposition_to_dict",
    "decomposition_to_dot",
    "load_any_model",
    "output_file",
    "read_json_object",
    "structural_model_from_dict",
    "structural_model_to_dict",
    "switched_model_from_dict",
    "switched_model_to_dict",
]


def structural_model_to_dict(model: StructuralModel) -> dict:
    equations = []
    for eq, unknowns, fault in sorted(model.rows, key=lambda row: row[0]):
        entry: dict = {"id": eq, "unknowns": sorted(unknowns)}
        if fault is not None:
            entry["fault"] = fault
        equations.append(entry)
    return {"equations": equations, "unknowns": sorted(model.unknowns)}


# Shape checks for decoded JSON values; ``what`` names the value in the message.


def _names(value, what: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise InputError(f"{what} must be a list of strings")
    return value


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise InputError(f"{what} must be an object")
    return value


def _objects(value, what: str) -> list[dict]:
    if not isinstance(value, list) or not all(isinstance(v, dict) for v in value):
        raise InputError(f"{what} must be a list of objects")
    return value


def _optional_name(value, what: str) -> str | None:
    # Absent or null means no name; an empty name is refused, not dropped.
    if value is not None and not (isinstance(value, str) and value):
        raise InputError(f"{what} must be a non-empty string")
    return value


def _number(value, what: str) -> float:
    # Booleans are not numbers here; the bound rejects NaN, infinities and
    # integers beyond the float range.
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputError(f"{what} must be a number")
    if not abs(value) <= sys.float_info.max:
        raise InputError(f"{what} must be finite")
    return float(value)


def structural_model_from_dict(data: dict) -> StructuralModel:
    if not isinstance(data, dict):
        raise InputError(f"model JSON must be an object, not {type(data).__name__}")
    try:
        equation_entries = data["equations"]
        unknowns = tuple(_names(data["unknowns"], 'model JSON: "unknowns"'))
    except KeyError as exc:
        raise InputError(f"model JSON missing field {exc.args[0]!r}") from None
    if not isinstance(equation_entries, list):
        raise InputError('model JSON: "equations" must be a list')
    rows = []
    for position, entry in enumerate(equation_entries):
        if not isinstance(entry, dict) or not isinstance(entry.get("id"), str):
            raise InputError(f'model JSON: equation entry {position} needs a string "id"')
        eq = entry["id"]
        rows.append((
            eq,
            frozenset(_names(entry.get("unknowns", []), f"model JSON: unknowns of {eq!r}")),
            _optional_name(entry.get("fault"), f"model JSON: fault of {eq!r}"),
        ))
    return StructuralModel(rows=tuple(rows), unknowns=unknowns)


def _mode_equation_to_dict(eq: ModeGuardedEquation, modes: tuple[str, ...]) -> dict:
    variants = {m: eq.variants[m] for m in modes}
    entry: dict = {"id": eq.id}
    if len(set(variants.values())) == 1:
        entry["unknowns"] = sorted(next(iter(variants.values())))
    else:
        entry["variants"] = {m: sorted(v) for m, v in variants.items()}
    if eq.fault is not None:
        entry["fault"] = eq.fault
    return entry


def _mode_equation_from_dict(entry: dict, modes: tuple[str, ...]) -> ModeGuardedEquation:
    eq = entry["id"]
    if not isinstance(eq, str):
        raise InputError('template equation "id" must be a string')
    if "variants" in entry:
        variants = {
            m: frozenset(_names(v, f"variant {m!r} of {eq!r}"))
            for m, v in _object(entry["variants"], f"variants of {eq!r}").items()
        }
    else:
        incidence = frozenset(_names(entry.get("unknowns", []), f"unknowns of {eq!r}"))
        variants = {m: incidence for m in modes}
    return ModeGuardedEquation(eq, variants, _optional_name(entry.get("fault"), f"fault of {eq!r}"))


def _global_equation_from_dict(entry: dict) -> GlobalEquation:
    eq = entry["id"]
    if not isinstance(eq, str):
        raise InputError('global equation "id" must be a string')
    return GlobalEquation(
        id=eq,
        unknowns=frozenset(_names(entry.get("unknowns", []), f"unknowns of {eq!r}")),
        per_instance=frozenset(_names(entry.get("per_instance", []), f"per_instance of {eq!r}")),
        fault=_optional_name(entry.get("fault"), f"fault of {eq!r}"),
    )


def switched_model_to_dict(
    switched: SwitchedModel, aggregation_pattern: dict[str, tuple[str, ...]] | None = None
) -> dict:
    template = switched.template
    data = {
        "n": switched.n,
        "template": {
            "modes": list(template.modes),
            "local_unknowns": list(template.local_unknowns),
            "mode_letters": dict(template.mode_letters),
            "equations": [
                _mode_equation_to_dict(eq, template.modes) for eq in template.equations
            ],
        },
        "shared_unknowns": list(switched.shared_unknowns),
        "global_equations": [
            {
                "id": geq.id,
                "unknowns": sorted(geq.unknowns),
                **({"per_instance": sorted(geq.per_instance)} if geq.per_instance else {}),
                **({"fault": geq.fault} if geq.fault is not None else {}),
            }
            for geq in switched.global_equations
        ],
    }
    if aggregation_pattern:
        data["fault_aggregation"] = {a: list(c) for a, c in aggregation_pattern.items()}
    return data


def switched_model_from_dict(data: dict) -> tuple[SwitchedModel, dict[str, tuple[str, ...]]]:
    """Returns the model plus its template-level aggregation pattern (may be empty)."""
    try:
        template_data = _object(data["template"], '"template"')
        modes = tuple(_names(template_data["modes"], 'template "modes"'))
        template = SubmoduleTemplate(
            modes=modes,
            equations=tuple(
                _mode_equation_from_dict(e, modes)
                for e in _objects(template_data["equations"], 'template "equations"')
            ),
            local_unknowns=tuple(
                _names(template_data["local_unknowns"], 'template "local_unknowns"')
            ),
            mode_letters=_object(template_data.get("mode_letters", {}), '"mode_letters"'),
        )
        n = data["n"]
        if isinstance(n, bool) or not isinstance(n, int):
            raise InputError(f'"n" must be an integer, not {n!r}')
        switched = SwitchedModel(
            template=template,
            n=n,
            global_equations=tuple(
                _global_equation_from_dict(g)
                for g in _objects(data["global_equations"], '"global_equations"')
            ),
            shared_unknowns=tuple(_names(data["shared_unknowns"], '"shared_unknowns"')),
        )
    except KeyError as exc:
        raise InputError(f"switched model JSON missing field {exc.args[0]!r}") from None
    aggregation = {
        a: tuple(_names(c, f"fault aggregate {a!r}"))
        for a, c in _object(data.get("fault_aggregation", {}), '"fault_aggregation"').items()
    }
    return switched, aggregation


def read_json_object(path: str | Path, what: str) -> dict:
    """Decode a UTF-8 JSON file holding an object; ``what`` names it in errors."""
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read {what} file: {exc}") from None
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and UnicodeDecodeError.
        raise InputError(f"invalid {what} JSON in {path}: {exc}") from None
    if not isinstance(data, dict):
        raise InputError(f"{what} JSON in {path} must be an object, not {type(data).__name__}")
    return data


def load_any_model(path: str | Path) -> dict:
    """Read a model JSON object; the caller dispatches on the 'template' key."""
    return read_json_object(path, "model")


@contextmanager
def output_file(path: str | Path):
    """Write ``path`` as UTF-8 text; an OSError while doing so is an InputError."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            yield handle
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from None


def decomposition_to_dict(dm: DmDecomposition) -> dict:
    data = {
        label: {"equations": sorted(part.equations), "unknowns": sorted(part.unknowns)}
        for label, part in (("under", dm.under), ("just", dm.just), ("over", dm.over))
    }
    data["fine_blocks"] = [sorted(block) for block in dm.fine_blocks]
    return data


def decomposition_to_dot(model: StructuralModel, dm: DmDecomposition) -> str:
    """Graphviz rendering: equation/unknown bipartite graph clustered by part.

    ``dm`` is the decomposition of ``model``, so every name it holds is one
    of the model's.
    """
    node = {
        name: '"' + name.replace("\\", r"\\").replace('"', r"\"") + '"'
        for name in (*model.equations, *model.unknowns)
    }

    lines = ["graph dm {", "  rankdir=LR;", "  node [fontsize=10];"]
    parts = [("under", dm.under), ("just", dm.just), ("over", dm.over)]
    for label, pair in parts:
        if not pair.equations and not pair.unknowns:
            continue
        lines.append(f"  subgraph cluster_{label} {{")
        lines.append(f'    label="{label}";')
        if label == "over":
            for i, block in enumerate(dm.fine_blocks):
                lines.append(f"    subgraph cluster_block{i} {{")
                lines.append(f'      label="block {i}";')
                for eq in sorted(block):
                    lines.append(f"      {node[eq]} [shape=box];")
                lines.append("    }")
        else:
            for eq in sorted(pair.equations):
                lines.append(f"    {node[eq]} [shape=box];")
        for unk in sorted(pair.unknowns):
            lines.append(f"    {node[unk]} [shape=ellipse];")
        lines.append("  }")
    for eq in sorted(model.equations):
        for unk in sorted(model.incidence[eq]):
            lines.append(f"  {node[eq]} -- {node[unk]};")
    lines.append("}")
    return "\n".join(lines) + "\n"
