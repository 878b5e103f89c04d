"""Switched structural models of a battery-integrated modular converter.

Each submodule holds a battery cell modelled as a one-RC-link equivalent
circuit (ohmic resistance, charge-transfer resistance and double-layer
capacitance in front of an open-circuit voltage) behind a full-bridge
switch stage.  :func:`generate` produces the switched structural model for
``n`` submodules under one of four sensor setups:

========  =======================  ==========================
setup     per-submodule sensors    pack sensors
========  =======================  ==========================
I         cell voltage             output current
II        cell voltage             output current + voltage
III       cell voltage + current   output current
IV        cell voltage + current   output current + voltage
========  =======================  ==========================

Parameter drifts of one cell (ohmic/charge-transfer resistance,
capacitance, open-circuit voltage) are injected as four separate fault
signals so each fault touches exactly one equation; reporting aggregates
them into a single per-submodule cell fault via :func:`aggregate_report`.
"""

from collections.abc import Mapping
from dataclasses import dataclass

from .errors import InputError
from .structural import IsolabilityReport, _canonical_partition
from .switched import (
    GlobalEquation,
    ModeGuardedEquation,
    SubmoduleTemplate,
    SwitchedModel,
    instance_name,
)

__all__ = [
    "BYPASS_MODES",
    "CELL_FAULTS",
    "INSERTION_MODES",
    "MODES",
    "MODE_LETTERS",
    "NOMINAL_CELL",
    "SETUPS",
    "CellParameters",
    "FaultCatalogue",
    "SensorSetup",
    "aggregate_report",
    "build_catalogue",
    "generate",
    "sensor_setup",
]

#: Full-bridge switch modes; forward/backward insert the cell with opposite
#: polarity, the two bypass states disconnect it.
MODES = ("forward", "backward", "bypass1", "bypass2")
INSERTION_MODES = frozenset({"forward", "backward"})
BYPASS_MODES = frozenset({"bypass1", "bypass2"})
MODE_LETTERS = {"I": "forward", "B": "bypass1"}

LOCAL_UNKNOWNS = ("v_p", "dv_p", "i_cell", "v_cell", "v_sm", "R_o", "C_p", "R_p", "E_m")
SHARED_UNKNOWNS = ("v_out", "i_out")

#: Parameter-drift fault signals aggregated into the general cell fault.
CELL_FAULTS = ("f_Ro", "f_Cp", "f_Rp", "f_Em")


@dataclass(frozen=True)
class SensorSetup:
    id: str
    sm_sensors: frozenset[str]
    pack_sensors: frozenset[str]


SETUPS: dict[str, SensorSetup] = {
    "I": SensorSetup("I", frozenset({"cell_voltage"}), frozenset({"output_current"})),
    "II": SensorSetup(
        "II", frozenset({"cell_voltage"}), frozenset({"output_current", "output_voltage"})
    ),
    "III": SensorSetup(
        "III", frozenset({"cell_voltage", "cell_current"}), frozenset({"output_current"})
    ),
    "IV": SensorSetup(
        "IV",
        frozenset({"cell_voltage", "cell_current"}),
        frozenset({"output_current", "output_voltage"}),
    ),
}


def sensor_setup(setup: str | SensorSetup) -> SensorSetup:
    if isinstance(setup, SensorSetup):
        return setup
    try:
        return SETUPS[setup]
    except KeyError:
        raise InputError(f"unknown sensor setup {setup!r}; expected one of I, II, III, IV") from None


@dataclass(frozen=True)
class CellParameters:
    """Equivalent-circuit cell parameters, all strictly positive.

    r_p: charge-transfer resistance (ohm), c_p: double-layer capacitance
    (F), r_o: ohmic resistance (ohm), v_ocv: open-circuit voltage (V).
    """

    r_p: float
    c_p: float
    r_o: float
    v_ocv: float

    def __post_init__(self):
        for name in ("r_p", "c_p", "r_o", "v_ocv"):
            if not getattr(self, name) > 0:
                raise InputError(f"cell parameter {name} must be strictly positive")
        if not self.r_p * self.c_p > 0:
            raise InputError("cell time constant r_p * c_p underflows to zero")


NOMINAL_CELL = CellParameters(r_p=692e-6, c_p=1.52, r_o=1.2e-3, v_ocv=4.07)


@dataclass(frozen=True)
class FaultCatalogue:
    """Fault inventory of one generated model plus the aggregation map.

    ``aggregation`` sends each aggregate fault name to its disjoint set of
    constituent (internal) fault names; faults outside every aggregate
    represent themselves.
    """

    sm_faults: Mapping[int, tuple[str, ...]]
    pack_faults: tuple[str, ...]
    aggregation: Mapping[str, frozenset[str]]

    def __post_init__(self):
        sm_faults = {k: tuple(v) for k, v in dict(self.sm_faults).items()}
        pack_faults = tuple(self.pack_faults)
        aggregation = {a: frozenset(c) for a, c in dict(self.aggregation).items()}
        known = {f for fs in sm_faults.values() for f in fs} | set(pack_faults)
        seen: set[str] = set()
        for aggregate, constituents in aggregation.items():
            if constituents & seen:
                raise InputError("aggregation cells must be disjoint")
            seen |= constituents
            if not constituents <= known:
                raise InputError(f"aggregate {aggregate!r} references unknown faults")
            if aggregate in known:
                raise InputError(f"aggregate name {aggregate!r} collides with a model fault")
        object.__setattr__(self, "sm_faults", sm_faults)
        object.__setattr__(self, "pack_faults", pack_faults)
        object.__setattr__(self, "aggregation", aggregation)

    @property
    def model_faults(self) -> tuple[str, ...]:
        """Every fault present in the generated model (internal level)."""
        out: list[str] = []
        for k in sorted(self.sm_faults):
            out.extend(self.sm_faults[k])
        out.extend(self.pack_faults)
        return tuple(out)

    def aggregate_of(self, fault: str) -> str:
        for aggregate, constituents in self.aggregation.items():
            if fault in constituents:
                return aggregate
        return fault


def _submodule_equations(setup: SensorSetup) -> tuple[ModeGuardedEquation, ...]:
    def uniform(eq_id, unknowns, fault=None):
        return ModeGuardedEquation.uniform(eq_id, unknowns, MODES, fault)

    inserted_e9 = frozenset({"v_sm", "v_cell"})
    bypassed_e9 = frozenset({"v_sm"})
    inserted_e10 = frozenset({"i_cell", "i_out"})
    bypassed_e10 = frozenset({"i_cell"})
    equations = [
        # RC-link dynamics, terminal voltage, and the derivative constraint.
        uniform("e1", ("dv_p", "i_cell", "C_p", "R_p", "v_p")),
        uniform("e2", ("v_cell", "v_p", "R_o", "i_cell", "E_m")),
        uniform("e3", ("dv_p", "v_p")),
        # Parameter faults: each parameter deviates from a known nominal value.
        uniform("e4", ("R_o",), "f_Ro"),
        uniform("e5", ("C_p",), "f_Cp"),
        uniform("e6", ("R_p",), "f_Rp"),
        uniform("e7", ("E_m",), "f_Em"),
        # Cell voltage sensor.
        uniform("e8", ("v_cell",), "f_vcell"),
        # Switch-mode equations: bypass forces v_sm = 0 and i_cell = 0, so the
        # submodule decouples from v_cell and i_out respectively.
        ModeGuardedEquation(
            "e9",
            {
                "forward": inserted_e9,
                "backward": inserted_e9,
                "bypass1": bypassed_e9,
                "bypass2": bypassed_e9,
            },
        ),
        ModeGuardedEquation(
            "e10",
            {
                "forward": inserted_e10,
                "backward": inserted_e10,
                "bypass1": bypassed_e10,
                "bypass2": bypassed_e10,
            },
        ),
    ]
    if "cell_current" in setup.sm_sensors:
        equations.append(uniform("e11", ("i_cell",), "f_icell"))
    return tuple(equations)


def _global_equations(setup: SensorSetup) -> tuple[GlobalEquation, ...]:
    equations = [
        GlobalEquation("e1,0", frozenset({"v_out"}), per_instance=frozenset({"v_sm"})),
        GlobalEquation("e2,0", frozenset({"i_out"}), fault="f_iout"),
    ]
    if "output_voltage" in setup.pack_sensors:
        equations.append(GlobalEquation("e3,0", frozenset({"v_out"}), fault="f_vout"))
    return tuple(equations)


def generate(n: int, setup: str | SensorSetup) -> tuple[SwitchedModel, FaultCatalogue]:
    """Switched model and fault catalogue for ``n`` submodules under a setup.

    Equation counts come out as 10n+2 / 10n+3 / 11n+2 / 11n+3 for setups
    I / II / III / IV.
    """
    if n < 1:
        raise InputError(f"submodule count must be >= 1 (got {n})")
    setup = sensor_setup(setup)
    template = SubmoduleTemplate(
        modes=MODES,
        equations=_submodule_equations(setup),
        local_unknowns=LOCAL_UNKNOWNS,
        mode_letters=MODE_LETTERS,
    )
    switched = SwitchedModel(
        template=template,
        n=n,
        global_equations=_global_equations(setup),
        shared_unknowns=SHARED_UNKNOWNS,
    )
    catalogue = build_catalogue(switched, {"f_cell": CELL_FAULTS})
    return switched, catalogue


def build_catalogue(
    switched: SwitchedModel, aggregation_pattern: Mapping[str, tuple[str, ...]]
) -> FaultCatalogue:
    """Derive the instance-level fault catalogue of a switched model.

    ``aggregation_pattern`` maps template-level aggregate names to the
    template-level fault names they absorb; both get the instance suffix.
    """
    template_faults = [eq.fault for eq in switched.template.equations if eq.fault is not None]
    sm_faults = {
        k: tuple(instance_name(f, k) for f in template_faults)
        for k in range(1, switched.n + 1)
    }
    pack_faults = tuple(
        geq.fault for geq in switched.global_equations if geq.fault is not None
    )
    aggregation = {}
    for aggregate, constituents in aggregation_pattern.items():
        missing = set(constituents) - set(template_faults)
        if missing:
            raise InputError(f"aggregation pattern references unknown faults {sorted(missing)}")
        for k in range(1, switched.n + 1):
            aggregation[instance_name(aggregate, k)] = frozenset(
                instance_name(c, k) for c in constituents
            )
    return FaultCatalogue(sm_faults, pack_faults, aggregation)


def aggregate_report(report: IsolabilityReport, catalogue: FaultCatalogue) -> IsolabilityReport:
    """Collapse an internal-fault report to the aggregate fault level.

    An aggregate is detectable when any constituent is; two aggregate-level
    faults are non-isolable when some constituent of one shares a partition
    cell chain with some constituent of the other, so cells touching the
    same aggregate are merged.
    """
    known = set(catalogue.model_faults)
    for fault in report.detectable | report.non_detectable:
        if fault not in known:
            raise InputError(f"report fault {fault!r} is absent from the catalogue")

    detectable = frozenset(catalogue.aggregate_of(f) for f in report.detectable)
    non_detectable = (
        frozenset(catalogue.aggregate_of(f) for f in report.non_detectable) - detectable
    )

    # Union-find over internal cells; cells containing constituents of the
    # same aggregate collapse into one aggregate-level cell.
    cells = list(report.non_isolable_partition)
    parent = list(range(len(cells)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        parent[find(i)] = find(j)

    for constituents in catalogue.aggregation.values():
        touching = [i for i, cell in enumerate(cells) if cell & constituents]
        for i in touching[1:]:
            union(touching[0], i)

    merged: dict[int, set[str]] = {}
    for i, cell in enumerate(cells):
        merged.setdefault(find(i), set()).update(catalogue.aggregate_of(f) for f in cell)
    partition = _canonical_partition(frozenset(c) for c in merged.values())
    return IsolabilityReport(detectable, partition, non_detectable)
