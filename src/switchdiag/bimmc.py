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
    "CELL_FAULTS",
    "FAULT_AGGREGATION",
    "MODES",
    "MODE_LETTERS",
    "NOMINAL_CELL",
    "PACK_SENSORS",
    "SETUPS",
    "SM_SENSORS",
    "CellParameters",
    "SensorSetup",
    "aggregate_report",
    "build_catalogue",
    "generate",
    "sensor_setup",
]

#: Full-bridge switch modes; forward/backward insert the cell with opposite
#: polarity, the two bypass states disconnect it.
MODES = ("forward", "backward", "bypass1", "bypass2")
MODE_LETTERS = {"I": "forward", "B": "bypass1"}

LOCAL_UNKNOWNS = ("v_p", "dv_p", "i_cell", "v_cell", "v_sm", "R_o", "C_p", "R_p", "E_m")
SHARED_UNKNOWNS = ("v_out", "i_out")

#: Parameter-drift fault signals aggregated into the general cell fault.
CELL_FAULTS = ("f_Ro", "f_Cp", "f_Rp", "f_Em")
#: Template-level aggregation pattern of every generated model.
FAULT_AGGREGATION = {"f_cell": CELL_FAULTS}


#: Sensors a setup may place on each submodule and on the pack.  Every
#: generated model has the cell-voltage and output-current sensor equations
#: (e8 and e2,0), so every setup must name both.
SM_SENSORS = frozenset({"cell_voltage", "cell_current"})
PACK_SENSORS = frozenset({"output_current", "output_voltage"})


@dataclass(frozen=True)
class SensorSetup:
    id: str
    sm_sensors: frozenset[str]
    pack_sensors: frozenset[str]

    def __post_init__(self):
        for where, sensors, vocabulary, required in (
            ("submodule", self.sm_sensors, SM_SENSORS, "cell_voltage"),
            ("pack", self.pack_sensors, PACK_SENSORS, "output_current"),
        ):
            unknown = set(sensors) - vocabulary
            if unknown:
                raise InputError(
                    f"sensor setup {self.id!r}: unknown {where} sensors {sorted(unknown)}; "
                    f"expected a subset of {sorted(vocabulary)}"
                )
            if required not in sensors:
                raise InputError(f"sensor setup {self.id!r} lacks the {where} sensor {required!r}")


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


def generate(n: int, setup: str | SensorSetup) -> tuple[SwitchedModel, dict[str, str]]:
    """Switched model and fault catalogue for ``n`` submodules under a setup.

    Equation counts come out as 10n+2 / 10n+3 / 11n+2 / 11n+3 for setups
    I / II / III / IV.
    """
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
    return switched, build_catalogue(switched, FAULT_AGGREGATION)


def build_catalogue(
    switched: SwitchedModel, aggregation_pattern: Mapping[str, tuple[str, ...]]
) -> dict[str, str]:
    """Map every fault of the instantiated model to the name reports use.

    ``aggregation_pattern`` maps template-level aggregate names to the
    disjoint template-level faults they absorb; both get the instance
    suffix.  Faults outside every aggregate report under their own name.
    """
    template_faults = [eq.fault for eq in switched.template.equations if eq.fault is not None]
    aggregate_by_fault: dict[str, str] = {}
    for aggregate, constituents in aggregation_pattern.items():
        if not aggregate:
            raise InputError("aggregate name must be a non-empty string")
        missing = set(constituents) - set(template_faults)
        if missing:
            raise InputError(f"aggregation pattern references unknown faults {sorted(missing)}")
        for fault in constituents:
            if aggregate_by_fault.setdefault(fault, aggregate) != aggregate:
                raise InputError("aggregation cells must be disjoint")
    instances = range(1, switched.n + 1)
    catalogue = {
        instance_name(f, k): instance_name(aggregate_by_fault.get(f, f), k)
        for k in instances
        for f in template_faults
    }
    catalogue.update(
        (geq.fault, geq.fault) for geq in switched.global_equations if geq.fault is not None
    )
    for k in instances:
        for aggregate in aggregation_pattern:
            if instance_name(aggregate, k) in catalogue:
                raise InputError(
                    f"aggregate name {instance_name(aggregate, k)!r} collides with a model fault"
                )
    return catalogue


def aggregate_report(report: IsolabilityReport, catalogue: Mapping[str, str]) -> IsolabilityReport:
    """Collapse an internal-fault report to the names ``catalogue`` reports.

    An aggregate is detectable when any constituent is; two reported
    faults are non-isolable when some constituent of one shares a partition
    cell chain with some constituent of the other, so cells holding the
    same reported name are merged.
    """
    for fault in report.detectable | report.non_detectable:
        if fault not in catalogue:
            raise InputError(f"report fault {fault!r} is absent from the catalogue")

    # Union-find over cells: each reported name remembers the first cell it
    # appeared in, and every later cell holding it joins that one.
    cells = report.non_isolable_partition
    parent = list(range(len(cells)))

    def find(index: int) -> int:
        while parent[index] != index:
            parent[index] = parent[parent[index]]
            index = parent[index]
        return index

    first: dict[str, int] = {}
    for index, cell in enumerate(cells):
        for f in cell:
            home = first.setdefault(catalogue[f], index)
            if home != index:
                parent[find(index)] = find(home)

    merged: dict[int, list[str]] = {}
    for name, index in first.items():
        merged.setdefault(find(index), []).append(name)
    detectable = frozenset(first)
    non_detectable = frozenset(catalogue[f] for f in report.non_detectable) - detectable
    return IsolabilityReport(detectable, _canonical_partition(merged.values()), non_detectable)
