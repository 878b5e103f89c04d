"""Time-domain residual evaluation on a single-submodule cell plant.

The plant integrates the one-RC-link cell model with truth parameters and
emits sensor signals with injected step faults.  Three residuals compare
measured against predicted behavior:

* ``setup1``: an observer rebuilds the RC-link voltage from the measured
  output current and predicts the cell voltage; only valid with the cell
  inserted (forward or backward), since a bypassed cell carries no output
  current information.
* ``cell_current``: output-current vs cell-current sensor comparison, unit
  fault gain, insertion modes only.
* ``redundant_output``: two output-current sensors compared; valid in
  every mode, including bypass.

The reported steady-state gain of the ``setup1`` residual is the full
stationary response (charge-transfer plus ohmic resistance); the ohmic
term alone is only the direct feedthrough and understates the stationary
deviation.
"""

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .bimmc import NOMINAL_CELL, CellParameters
from .errors import (
    InputError,
    NonStationaryError,
    ResidualModeError,
    SimulationDivergedError,
)
from .modelio import _names, _number, _object, _objects, output_file

__all__ = [
    "FAULT_SIGNALS",
    "MODE_BACKWARD",
    "MODE_BYPASS",
    "MODE_FORWARD",
    "FaultStep",
    "PlantSignals",
    "ResidualTrace",
    "SimScenario",
    "residual_cell_current",
    "residual_redundant_output",
    "residual_setup1",
    "scenario_from_dict",
    "simulate_plant",
    "steady_state_gain",
]

MODE_FORWARD = "insertion-forward"
MODE_BACKWARD = "insertion-backward"
MODE_BYPASS = "bypass"
_MODE_SIGNS = {MODE_FORWARD: 1.0, MODE_BACKWARD: -1.0, MODE_BYPASS: 0.0}

FAULT_SIGNALS = ("f_iout", "f_icell", "f_iout_extra")
SENSOR_OPTIONS = ("cell_current", "extra_output_current")

#: Most integration steps one scenario may ask for (about 10 s at the
#: default dt); each step keeps several float samples in memory.
MAX_STEPS = 1_000_000

#: Largest tail spread, relative to the tail mean, of a stationary trace.
STATIONARY_REL_TOL = 1e-3
#: Magnitude below which a residual counts as zero.
ZERO_TOL = 1e-9


@dataclass(frozen=True)
class FaultStep:
    """Step fault on a sensor signal: 0 before onset, ``magnitude`` after."""

    signal: str
    onset: float
    magnitude: float

    def __post_init__(self):
        if self.signal not in FAULT_SIGNALS:
            raise InputError(f"unknown fault signal {self.signal!r}")
        if not (math.isfinite(self.onset) and math.isfinite(self.magnitude)):
            raise InputError("fault onset and magnitude must be finite")


@dataclass(frozen=True)
class SimScenario:
    """One plant run: mode, timing, parameters, drive current and faults."""

    mode: str
    dt: float = 1e-5
    duration: float = 0.02
    truth: CellParameters = NOMINAL_CELL
    nominal: CellParameters = NOMINAL_CELL
    i_out: Callable[[float], float] | float = 0.0
    faults: tuple[FaultStep, ...] = ()
    v_p_initial: float = 0.0
    sensors: frozenset[str] = frozenset()

    def __post_init__(self):
        if self.mode not in _MODE_SIGNS:
            raise InputError(
                f"unknown mode {self.mode!r}; expected one of {sorted(_MODE_SIGNS)}"
            )
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise InputError("dt must be positive and finite")
        if not self.duration >= self.dt:
            raise InputError("duration must be at least one timestep")
        if self.duration / self.dt > MAX_STEPS:
            raise InputError(
                f"duration {self.duration} at dt {self.dt} exceeds {MAX_STEPS} timesteps"
            )
        sensors = frozenset(self.sensors)
        if not sensors <= set(SENSOR_OPTIONS):
            raise InputError(f"unknown sensors {sorted(sensors - set(SENSOR_OPTIONS))}")
        for fault in self.faults:
            if not 0 <= fault.onset <= self.duration:
                raise InputError(f"fault onset {fault.onset} outside [0, {self.duration}]")
            if fault.signal == "f_icell" and "cell_current" not in sensors:
                raise InputError("f_icell injection requires the cell_current sensor")
            if fault.signal == "f_iout_extra" and "extra_output_current" not in sensors:
                raise InputError("f_iout_extra injection requires the extra_output_current sensor")
        object.__setattr__(self, "faults", tuple(self.faults))
        object.__setattr__(self, "sensors", sensors)

    def current_at(self, t: float) -> float:
        if callable(self.i_out):
            return float(self.i_out(t))
        return float(self.i_out)


@dataclass(frozen=True)
class PlantSignals:
    """Sensor traces of one simulated run (True plant state in ``v_p``)."""

    times: np.ndarray
    mode: str
    v_p: np.ndarray
    y_vcell: np.ndarray
    y_iout: np.ndarray
    y_icell: np.ndarray | None = None
    y_iout_extra: np.ndarray | None = None

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])


@dataclass(frozen=True)
class ResidualTrace:
    """Residual time series; ``kind`` names the generating residual."""

    times: np.ndarray
    values: np.ndarray
    kind: str

    def __post_init__(self):
        if len(self.times) != len(self.values):
            raise InputError("times and values must have equal length")
        if len(self.times) < 2:
            raise InputError("a trace needs at least two samples")
        finite = np.isfinite(self.values)
        if not finite.all():
            raise SimulationDivergedError(
                f"residual {self.kind!r} became non-finite at "
                f"t={self.times[finite.argmin()]:.6g} s; a signal overflowed"
            )


def _fault_series(scenario: SimScenario, signal: str, times: np.ndarray) -> np.ndarray:
    series = np.zeros_like(times)
    for fault in scenario.faults:
        if fault.signal == signal:
            series += fault.magnitude * (times >= fault.onset)
    return series


def _rc_link(current: np.ndarray, v0: float, params: CellParameters, dt: float) -> np.ndarray:
    """RC-link voltage under ``current`` from ``v0`` by explicit Euler (plant and observer)."""
    v_p = np.empty(len(current))
    state = float(v0)
    v_p[0] = state
    decay = 1.0 / (params.r_p * params.c_p)
    for i, current_i in enumerate(current[:-1].tolist()):
        state = state + dt * (current_i / params.c_p - state * decay)
        if not math.isfinite(state):
            raise SimulationDivergedError(
                f"RC-link state became non-finite at t={(i + 1) * dt:.6g} s; "
                "reduce dt below the RC time constant"
            )
        v_p[i + 1] = state
    return v_p


def simulate_plant(scenario: SimScenario) -> PlantSignals:
    """Integrate the truth plant and emit faulted sensor signals.

    Explicit Euler on the RC-link voltage; the cell current is the output
    current with the mode's sign, zero in bypass.  Sensor faults enter the
    measurements only, never the plant state.
    """
    n_steps = int(round(scenario.duration / scenario.dt))
    times = np.arange(n_steps + 1) * scenario.dt
    sign = _MODE_SIGNS[scenario.mode]
    p = scenario.truth

    i_out = np.array([scenario.current_at(t) for t in times])
    i_cell = sign * i_out
    v_p = _rc_link(i_cell, scenario.v_p_initial, p, scenario.dt)
    v_cell = v_p + p.r_o * i_cell + p.v_ocv
    return PlantSignals(
        times=times,
        mode=scenario.mode,
        v_p=v_p,
        y_vcell=v_cell,
        y_iout=i_out + _fault_series(scenario, "f_iout", times),
        y_icell=(
            i_cell + _fault_series(scenario, "f_icell", times)
            if "cell_current" in scenario.sensors
            else None
        ),
        y_iout_extra=(
            i_out + _fault_series(scenario, "f_iout_extra", times)
            if "extra_output_current" in scenario.sensors
            else None
        ),
    )


def _insertion_sign(mode: str, residual: str) -> float:
    if mode == MODE_BYPASS:
        raise ResidualModeError(
            f"residual {residual!r} is not valid in bypass mode: a bypassed cell "
            "carries no output-current information"
        )
    if mode not in _MODE_SIGNS:
        raise InputError(f"unknown mode {mode!r}")
    return _MODE_SIGNS[mode]


def residual_setup1(
    signals: PlantSignals, nominal: CellParameters, mode: str
) -> ResidualTrace:
    """Observer residual on cell voltage, driven by the measured output current.

    ``mode`` selects the residual's sign convention (the mode the residual
    is designed for) and must be an insertion mode.  The observer state is
    initialized from the first measurement, so a fault-free run gives a
    residual that is zero up to roundoff regardless of the initial RC-link
    voltage.
    """
    sign = _insertion_sign(mode, "setup1")
    v0 = signals.y_vcell[0] - sign * nominal.r_o * signals.y_iout[0] - nominal.v_ocv
    v_hat = _rc_link(sign * signals.y_iout, v0, nominal, signals.dt)
    r = signals.y_vcell - v_hat - sign * nominal.r_o * signals.y_iout - nominal.v_ocv
    return ResidualTrace(signals.times, r, "setup1")


def residual_cell_current(signals: PlantSignals) -> ResidualTrace:
    """Output-current vs cell-current comparison; unit gain from either fault."""
    if signals.y_icell is None:
        raise InputError("cell-current residual requires the cell_current sensor")
    sign = _insertion_sign(signals.mode, "cell_current")
    r = signals.y_iout - sign * signals.y_icell
    return ResidualTrace(signals.times, r, "cell_current")


def residual_redundant_output(signals: PlantSignals) -> ResidualTrace:
    """Difference of the two output-current sensors; valid in every mode."""
    if signals.y_iout_extra is None:
        raise InputError(
            "redundant-output residual requires the extra_output_current sensor"
        )
    r = signals.y_iout - signals.y_iout_extra
    return ResidualTrace(signals.times, r, "redundant_output")


def steady_state_gain(trace: ResidualTrace, fault_magnitude: float) -> float:
    """Mean of the final 10% window divided by the fault magnitude.

    Refuses traces whose tail still varies by more than
    ``STATIONARY_REL_TOL`` relative to the window mean.  A zero fault
    magnitude yields gain 0 for an (essentially) zero trace and is an
    error otherwise.
    """
    if fault_magnitude == 0:
        if np.max(np.abs(trace.values)) <= ZERO_TOL:
            return 0.0
        raise InputError("cannot normalize a non-zero residual by a zero fault magnitude")
    window = trace.values[-max(1, len(trace.values) // 10):]
    mean = float(window.mean())
    spread = float(window.max() - window.min())
    if spread > STATIONARY_REL_TOL * max(abs(mean), ZERO_TOL):
        raise NonStationaryError(
            f"trace tail is not stationary: spread {spread:.3e} vs mean {mean:.3e} "
            f"over the final {len(window)} samples"
        )
    gain = mean / fault_magnitude
    if not math.isfinite(gain):
        raise SimulationDivergedError(
            f"steady-state gain {gain} is non-finite; a signal overflowed"
        )
    return gain


# -- scenario (de)serialization ------------------------------------------------


def _parse_current_profile(entry) -> Callable[[float], float] | float:
    if not isinstance(entry, dict):
        return _number(entry, '"i_out"')
    kind = entry.get("kind", "constant")
    if kind == "constant":
        return _number(entry.get("value", 0.0), '"i_out" value')
    if kind == "sine":
        amplitude = _number(entry.get("amplitude", 0.0), '"i_out" amplitude')
        freq = _number(entry.get("frequency_hz", 0.0), '"i_out" frequency_hz')
        return lambda t: amplitude * math.sin(2.0 * math.pi * freq * t)
    raise InputError(f"unknown current profile kind {kind!r}")


def _params_from_dict(data, default: CellParameters, what: str) -> CellParameters:
    if data is None:
        return default
    data = _object(data, what)
    try:
        return CellParameters(
            r_p=_number(data["r_p"], f"{what} r_p"),
            c_p=_number(data["c_p"], f"{what} c_p"),
            r_o=_number(data["r_o"], f"{what} r_o"),
            v_ocv=_number(data["v_ocv"], f"{what} v_ocv"),
        )
    except KeyError as exc:
        raise InputError(f"cell parameters missing field {exc.args[0]!r}") from None


def _fault_from_dict(entry: dict, position: int) -> FaultStep:
    # Only step faults exist; a declared profile must say so.
    if entry.get("profile", "step") != "step":
        raise InputError("only step fault profiles are supported")
    try:
        return FaultStep(
            signal=entry["signal"],
            onset=_number(entry.get("onset", 0.0), f"fault {position} onset"),
            magnitude=_number(entry["magnitude"], f"fault {position} magnitude"),
        )
    except KeyError as exc:
        raise InputError(f"fault {position} missing field {exc.args[0]!r}") from None


def scenario_from_dict(data: dict) -> SimScenario:
    """Build a scenario from its JSON object form."""
    data = _object(data, "scenario JSON")
    if not isinstance(data.get("mode"), str):
        raise InputError("scenario requires a string 'mode' field")
    return SimScenario(
        mode=data["mode"],
        dt=_number(data.get("dt", 1e-5), '"dt"'),
        duration=_number(data.get("duration", 0.02), '"duration"'),
        truth=_params_from_dict(data.get("truth_params"), NOMINAL_CELL, '"truth_params"'),
        nominal=_params_from_dict(data.get("nominal_params"), NOMINAL_CELL, '"nominal_params"'),
        i_out=_parse_current_profile(data.get("i_out", 0.0)),
        faults=tuple(
            _fault_from_dict(f, position)
            for position, f in enumerate(_objects(data.get("faults", []), '"faults"'))
        ),
        v_p_initial=_number(data.get("v_p_initial", 0.0), '"v_p_initial"'),
        sensors=frozenset(_names(data.get("sensors", []), '"sensors"')),
    )


def applicable_residuals(
    scenario: SimScenario, signals: PlantSignals
) -> dict[str, ResidualTrace | None]:
    """Evaluate every residual the scenario's sensors and mode support."""
    insertion = scenario.mode != MODE_BYPASS
    return {
        "setup1": (
            residual_setup1(signals, scenario.nominal, scenario.mode) if insertion else None
        ),
        "cell_current": (
            residual_cell_current(signals)
            if insertion and "cell_current" in scenario.sensors
            else None
        ),
        "redundant_output": (
            residual_redundant_output(signals)
            if "extra_output_current" in scenario.sensors
            else None
        ),
    }


def write_traces_csv(
    path,
    times: np.ndarray,
    traces: dict[str, ResidualTrace | None],
) -> None:
    """CSV with one row per sample; absent residuals leave empty cells."""
    import csv

    columns = [("r_setup1_V", "setup1"), ("r_cellcurrent_A", "cell_current"),
               ("r_redundant_A", "redundant_output")]
    with output_file(path) as handle:
        writer = csv.writer(handle)
        writer.writerow(["time_s"] + [label for label, _ in columns])
        for i, t in enumerate(times):
            row: list[object] = [f"{t:.9g}"]
            for _, key in columns:
                trace = traces.get(key)
                row.append(f"{trace.values[i]:.12g}" if trace is not None else "")
            writer.writerow(row)
