"""Sweep over sensor setups and switch configurations with compact reporting.

For every sensor setup and every reduced configuration (0..n inserted
submodules) the pipeline instantiates the representative configuration,
runs the detectability/isolability analysis, aggregates the per-cell
parameter faults, and condenses the outcome into one representative
submodule per switch-mode class.  Rendering mirrors the tabular layout of
the compact representation: one row per setup, one column group per
inserted-cell count, non-isolable sets listed per mode class.
"""

import itertools
import json
from collections.abc import Callable, Mapping, Sequence
from contextlib import contextmanager
from dataclasses import dataclass

from . import bimmc
from .errors import InputError, InternalConsistencyError
from .structural import (
    IsolabilityMatrix,
    IsolabilityReport,
    _unique,
    isolability_partition,
)
from .switched import (
    Configuration,
    ReducedConfiguration,
    SwitchedModel,
    canonicalize,
    enumerate_reduced_configurations,
    instantiate,
    mode_class,
    representative_configuration,
    structural_mode_classes,
)

__all__ = [
    "CompactIsolability",
    "SweepReport",
    "analyze_configuration",
    "canonical_report",
    "compact",
    "full_enumeration_check",
    "render",
    "render_matrix",
    "render_report",
    "sweep",
    "sweep_report_from_json",
]

RENDER_FORMATS = ("md", "json", "csv")


def split_sm_fault(fault: str) -> tuple[str, int] | None:
    """Split ``f_vcell,3`` into ``("f_vcell", 3)``; pack faults give None."""
    base, sep, tail = fault.rpartition(",")
    if sep and tail.isdigit():
        return base, int(tail)
    return None


def _generic(fault: str) -> str:
    # Submodule faults are reported in index-free form: f_vcell,3 -> f_vcell,k.
    parts = split_sm_fault(fault)
    return f"{parts[0]},k" if parts else fault


@dataclass(frozen=True)
class CompactIsolability:
    """Per-mode-class summary of one analyzed configuration.

    ``non_isolable_insertion`` / ``non_isolable_bypass`` list the
    non-isolable fault sets (cardinality > 1, submodule faults in generic
    ``f_x,k`` form) of a representative submodule in that mode class; None
    marks a mode class with no member ("n/a").  ``pack_membership`` places
    each detectable pack fault: None when uniquely isolable, otherwise the
    mode class of the listed set containing it.
    """

    non_detectable: frozenset[str]
    non_isolable_insertion: tuple[frozenset[str], ...] | None
    non_isolable_bypass: tuple[frozenset[str], ...] | None
    pack_membership: Mapping[str, str | None]

    def __post_init__(self):
        for listed in (self.non_isolable_insertion, self.non_isolable_bypass):
            if listed is not None and any(len(cell) < 2 for cell in listed):
                raise InternalConsistencyError("compact sets must have cardinality >= 2")
        object.__setattr__(self, "pack_membership", dict(self.pack_membership))


@dataclass(frozen=True)
class SweepReport:
    """Compact isolability for every (setup, inserted count) pair."""

    n: int
    setups: tuple[str, ...]
    cells: Mapping[tuple[str, int], CompactIsolability]

    def __post_init__(self):
        cells = dict(self.cells)
        expected = {(s, k) for s in self.setups for k in range(self.n + 1)}
        if set(cells) != expected:
            raise InternalConsistencyError("sweep cells must cover all setups x 0..n")
        object.__setattr__(self, "setups", tuple(self.setups))
        object.__setattr__(self, "cells", cells)


@contextmanager
def _context(setup: bimmc.SensorSetup, reduced: ReducedConfiguration, config: Configuration):
    # Name the configuration an internal consistency error arose in.
    try:
        yield
    except InternalConsistencyError as exc:
        raise InternalConsistencyError(
            f"setup {setup.id}, n={len(config.modes)}, class counts {reduced.class_counts}, "
            f"modes {','.join(config.modes)}: {exc}"
        ) from exc


def _analyze(
    switched: SwitchedModel, catalogue: Mapping[str, str], config: Configuration
) -> IsolabilityReport:
    return bimmc.aggregate_report(isolability_partition(instantiate(switched, config)), catalogue)


def _reduced_results(
    setup: bimmc.SensorSetup,
    switched: SwitchedModel,
    catalogue: Mapping[str, str],
    condense: Callable,
) -> dict[ReducedConfiguration, object]:
    # ``condense(report, config, classes)`` on the representative of every
    # reduced configuration, in ascending class-count order.
    classes = structural_mode_classes(switched.template)
    results = {}
    for reduced in enumerate_reduced_configurations(switched):
        config = representative_configuration(switched, reduced)
        with _context(setup, reduced, config):
            results[reduced] = condense(_analyze(switched, catalogue, config), config, classes)
    return results


def analyze_configuration(n: int, setup: str | bimmc.SensorSetup, k: int) -> IsolabilityReport:
    """Aggregated isolability of the representative configuration with ``k`` inserted."""
    if not 0 <= k <= n:
        raise InputError(f"inserted count {k} outside [0, {n}]")
    switched, catalogue = bimmc.generate(n, setup)
    config = representative_configuration(switched, ReducedConfiguration((k, n - k)))
    return _analyze(switched, catalogue, config)


def compact(
    report: IsolabilityReport, config: Configuration, classes: Sequence[frozenset[str]]
) -> CompactIsolability:
    """Condense a per-submodule report to one representative per mode class.

    ``classes`` are the template's mode classes, insertion class first and
    bypass class second.  All submodules sharing a mode class must exhibit
    identical (index-free) non-isolable sets; a violation means the analysis
    lost its permutation symmetry and is reported as an internal error
    rather than a result.
    """
    names = ("insertion", "bypass")
    if len(classes) != len(names):
        raise InputError(f"compact needs an insertion and a bypass class, not {len(classes)}")
    members: dict[str, list[int]] = {name: [] for name in names}
    for idx, mode in enumerate(config.modes, start=1):
        members[names[mode_class(classes, mode)]].append(idx)

    sm_class = {
        idx: cls for cls, indices in members.items() for idx in indices
    }
    per_sm: dict[int, set[frozenset[str]]] = {}
    pack_membership: dict[str, str | None] = {
        f: None for f in sorted(report.detectable) if split_sm_fault(f) is None
    }
    for cell in report.non_isolable_partition:
        if len(cell) < 2:
            continue
        sm_indices = {parts[1] for f in cell if (parts := split_sm_fault(f))}
        if len(sm_indices) > 1:
            raise InternalConsistencyError(
                f"non-isolable set {sorted(cell)} spans submodules {sorted(sm_indices)}"
            )
        if not sm_indices:
            raise InternalConsistencyError(
                f"pack-only non-isolable set {sorted(cell)} has no compact representation"
            )
        sm = sm_indices.pop()
        per_sm.setdefault(sm, set()).add(frozenset(_generic(f) for f in cell))
        for f in cell:
            if split_sm_fault(f) is None:
                pack_membership[f] = sm_class[sm]

    listed: dict[str, tuple[frozenset[str], ...] | None] = {}
    for cls, indices in members.items():
        if not indices:
            listed[cls] = None
            continue
        representative = min(indices)
        sets = per_sm.get(representative, set())
        for other in indices:
            if per_sm.get(other, set()) != sets:
                raise InternalConsistencyError(
                    f"submodules {representative} and {other} share mode class {cls} "
                    "but have different non-isolable sets"
                )
        listed[cls] = tuple(sorted(sets, key=sorted))

    return CompactIsolability(
        non_detectable=report.non_detectable,
        non_isolable_insertion=listed["insertion"],
        non_isolable_bypass=listed["bypass"],
        pack_membership=pack_membership,
    )


def sweep(n: int, setups: Sequence[str | bimmc.SensorSetup] | None = None) -> SweepReport:
    """Nested sweep over sensor setups and 0..n inserted submodules."""
    if n < 1:
        raise InputError(f"submodule count must be >= 1 (got {n})")
    setup_objs = [bimmc.sensor_setup(s) for s in (setups or list(bimmc.SETUPS))]
    setup_ids = _unique((s.id for s in setup_objs), "sensor setup")
    cells: dict[tuple[str, int], CompactIsolability] = {}
    for setup in setup_objs:
        switched, catalogue = bimmc.generate(n, setup)
        for reduced, cell in _reduced_results(setup, switched, catalogue, compact).items():
            cells[(setup.id, reduced.class_counts[0])] = cell
    return SweepReport(n, setup_ids, cells)


# -- raw-configuration cross-validation --------------------------------------


def canonical_report(
    report: IsolabilityReport, config: Configuration, classes: Sequence[frozenset[str]]
):
    """Rename submodules so instances are ordered by mode class, insertion first.

    Two configurations with the same class counts yield the same canonical
    form exactly when they are equivalent up to submodule permutation and
    within-class mode swaps.
    """
    order = sorted(
        range(len(config.modes)), key=lambda i: (mode_class(classes, config.modes[i]), i)
    )
    rename = {old + 1: new + 1 for new, old in enumerate(order)}

    def map_fault(fault: str) -> str:
        parts = split_sm_fault(fault)
        return f"{parts[0]},{rename[parts[1]]}" if parts else fault

    return (
        frozenset(map_fault(f) for f in report.detectable),
        frozenset(map_fault(f) for f in report.non_detectable),
        frozenset(
            frozenset(map_fault(f) for f in cell) for cell in report.non_isolable_partition
        ),
    )


def full_enumeration_check(n: int, setup: str | bimmc.SensorSetup) -> int:
    """Analyze every raw mode combination and check it against its reduced class.

    Returns the number of raw configurations checked; a mismatch between a
    raw configuration's canonical result and the representative of its
    class counts raises an internal consistency error.
    """
    setup = bimmc.sensor_setup(setup)
    switched, catalogue = bimmc.generate(n, setup)
    expected = _reduced_results(setup, switched, catalogue, canonical_report)
    classes = structural_mode_classes(switched.template)
    checked = 0
    for modes in itertools.product(switched.template.modes, repeat=n):
        config = Configuration(modes)
        reduced = canonicalize(classes, config)
        with _context(setup, reduced, config):
            report = _analyze(switched, catalogue, config)
            if canonical_report(report, config, classes) != expected[reduced]:
                raise InternalConsistencyError("raw configuration disagrees with its reduced class")
        checked += 1
    return checked


# -- rendering ----------------------------------------------------------------


def _set_text(cell: frozenset[str]) -> str:
    return "{" + ", ".join(sorted(cell)) + "}"


def _sets_text(sets: tuple[frozenset[str], ...] | None) -> str:
    if sets is None:
        return "n/a"
    if not sets:
        return "∅"
    return "; ".join(_set_text(s) for s in sets)


_SENSOR_LABELS = {
    "cell_voltage": "v_cell,k",
    "cell_current": "i_cell,k",
    "output_current": "i_out",
    "output_voltage": "v_out",
}


def _sensor_text(sensors: frozenset[str]) -> str:
    return ", ".join(_SENSOR_LABELS[s] for s in sorted(sensors))


def _mergeable(report: SweepReport, setup: str) -> bool:
    # The ">1 inserted" bucket may merge only if all k in [2, n] agree where
    # each mode class is populated (bypass is absent at k = n).
    ks = range(2, report.n + 1)
    cells = [report.cells[(setup, k)] for k in ks]
    if not cells:
        return True
    first = cells[0]
    for cell in cells[1:]:
        if (
            cell.non_detectable != first.non_detectable
            or cell.non_isolable_insertion != first.non_isolable_insertion
            or dict(cell.pack_membership) != dict(first.pack_membership)
        ):
            return False
    bypass_values = [c.non_isolable_bypass for c in cells if c.non_isolable_bypass is not None]
    return all(v == bypass_values[0] for v in bypass_values)


def _render_markdown(report: SweepReport) -> str:
    merge = report.n >= 2 and all(_mergeable(report, s) for s in report.setups)
    groups: list[tuple[str, list[int]]] = [("0 ins.", [0])]
    if report.n >= 1:
        groups.append(("1 ins.", [1]))
    if report.n >= 2:
        if merge:
            groups.append((">1 ins.", list(range(2, report.n + 1))))
        else:
            groups.extend((f"{k} ins.", [k]) for k in range(2, report.n + 1))

    header = ["Setup", "SM sensors", "Pack sensors", "non-D (0 ins.)"]
    for label, _ in groups:
        header.append(f"non-I B ({label})")
        if label != "0 ins.":
            header.append(f"non-I I ({label})")

    rows = []
    for setup_id in report.setups:
        setup = bimmc.SETUPS[setup_id]
        cell0 = report.cells[(setup_id, 0)]
        row = [
            setup_id,
            _sensor_text(setup.sm_sensors),
            _sensor_text(setup.pack_sensors),
            _set_text(cell0.non_detectable) if cell0.non_detectable else "∅",
        ]
        for label, ks in groups:
            bypass = [report.cells[(setup_id, k)].non_isolable_bypass for k in ks]
            present = [b for b in bypass if b is not None]
            row.append(_sets_text(present[0] if present else None))
            if label != "0 ins.":
                row.append(_sets_text(report.cells[(setup_id, ks[0])].non_isolable_insertion))
        rows.append(row)

    lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    lines.extend("| " + " | ".join(row) + " |" for row in rows)
    return "\n".join(lines) + "\n"


def _compact_to_dict(cell: CompactIsolability) -> dict:
    def sets(listed):
        return None if listed is None else [sorted(s) for s in listed]

    return {
        "non_detectable": sorted(cell.non_detectable),
        "non_isolable_insertion": sets(cell.non_isolable_insertion),
        "non_isolable_bypass": sets(cell.non_isolable_bypass),
        "pack_membership": {f: cell.pack_membership[f] for f in sorted(cell.pack_membership)},
    }


def _compact_from_dict(data: dict) -> CompactIsolability:
    def sets(listed):
        return None if listed is None else tuple(frozenset(s) for s in listed)

    return CompactIsolability(
        non_detectable=frozenset(data["non_detectable"]),
        non_isolable_insertion=sets(data["non_isolable_insertion"]),
        non_isolable_bypass=sets(data["non_isolable_bypass"]),
        pack_membership=dict(data["pack_membership"]),
    )


def _render_json(report: SweepReport) -> str:
    payload = {
        "n": report.n,
        "setups": list(report.setups),
        "cells": [
            {"setup": setup, "k": k, **_compact_to_dict(report.cells[(setup, k)])}
            for setup in report.setups
            for k in range(report.n + 1)
        ],
    }
    return json.dumps(payload, indent=2, ensure_ascii=False) + "\n"


def sweep_report_from_json(text: str) -> SweepReport:
    """Inverse of ``render(report, "json")``."""
    data = json.loads(text)
    cells = {
        (entry["setup"], entry["k"]): _compact_from_dict(entry) for entry in data["cells"]
    }
    return SweepReport(data["n"], tuple(data["setups"]), cells)


def _render_csv(report: SweepReport) -> str:
    import csv
    import io

    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(
        ["setup", "k", "non_detectable", "non_isolable_insertion", "non_isolable_bypass", "pack"]
    )
    for setup in report.setups:
        for k in range(report.n + 1):
            cell = report.cells[(setup, k)]
            pack = ";".join(
                f"{f}:{cell.pack_membership[f] or 'unique'}" for f in sorted(cell.pack_membership)
            )
            writer.writerow(
                [
                    setup,
                    k,
                    ";".join(sorted(cell.non_detectable)),
                    _sets_text(cell.non_isolable_insertion),
                    _sets_text(cell.non_isolable_bypass),
                    pack,
                ]
            )
    return out.getvalue()


def render(report: SweepReport, fmt: str = "md") -> str:
    """Render a sweep report as markdown table, JSON document or CSV."""
    if fmt == "md":
        return _render_markdown(report)
    if fmt == "json":
        return _render_json(report)
    if fmt == "csv":
        return _render_csv(report)
    raise InputError(f"unknown render format {fmt!r}; expected one of {RENDER_FORMATS}")


def render_report(report: IsolabilityReport, fmt: str = "md") -> str:
    """Render a single configuration's isolability report."""
    if fmt == "md":
        lines = [f"Detectable faults: {len(report.detectable)}"]
        lines.append(
            "Non-detectable: "
            + (_set_text(report.non_detectable) if report.non_detectable else "∅")
        )
        multi = [c for c in report.non_isolable_partition if len(c) > 1]
        lines.append("Non-isolable sets (cardinality > 1):")
        if multi:
            lines.extend(f"  {_set_text(c)}" for c in multi)
        else:
            lines.append("  ∅ (full isolability over detectable faults)")
        unique = sorted(f for c in report.non_isolable_partition if len(c) == 1 for f in c)
        lines.append("Uniquely isolable: " + (", ".join(unique) if unique else "∅"))
        return "\n".join(lines) + "\n"
    if fmt == "json":
        payload = {
            "detectable": sorted(report.detectable),
            "non_detectable": sorted(report.non_detectable),
            "partition": [sorted(c) for c in report.non_isolable_partition],
        }
        return json.dumps(payload, indent=2, ensure_ascii=False) + "\n"
    if fmt == "csv":
        import csv
        import io

        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(["fault", "detectable", "cell"])
        for fault in sorted(report.detectable):
            writer.writerow([fault, "yes", ";".join(sorted(report.cell_of(fault)))])
        for fault in sorted(report.non_detectable):
            writer.writerow([fault, "no", ""])
        return out.getvalue()
    raise InputError(f"unknown render format {fmt!r}; expected one of {RENDER_FORMATS}")


def render_matrix(matrix: IsolabilityMatrix) -> str:
    """Dot-convention text rendering: a dot marks a non-isolable pair."""
    width = max((len(f) for f in matrix.faults), default=0)
    lines = [" " * (width + 2) + " ".join(f.ljust(width) for f in matrix.faults)]
    for fault, row in zip(matrix.faults, matrix.entries):
        marks = " ".join(("•" if entry else "·").ljust(width) for entry in row)
        lines.append(fault.ljust(width + 2) + marks)
    return "\n".join(lines) + "\n"
