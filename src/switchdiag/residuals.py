"""Time-domain residual evaluation on a single-submodule cell plant.

The plant integrates the one-RC-link cell model with truth parameters and
emits sensor signals with injected step faults.  Three residuals compare
measured against predicted behavior, each by one formula in every mode.
With the mode sign ``s`` (1 forward, -1 backward, 0 in bypass),
``s * y_iout`` is the cell current the output-current sensor implies:

* ``setup1``: an observer driven by ``s * y_iout`` predicts the cell voltage.
* ``cell_current``: ``r = s * y_iout - y_icell``.
* ``redundant_output``: ``r = y_iout - y_iout_extra``.

The reported steady-state gain of the ``setup1`` residual is the full
stationary response (charge-transfer plus ohmic resistance); the ohmic
term alone is only the direct feedthrough and understates the stationary
deviation.
"""

import functools
import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .bimmc import NOMINAL_CELL, CellParameters
from .errors import InputError, NonStationaryError, SimulationDivergedError
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

#: Rows of the trace CSV formatted per block.
_CSV_BLOCK_ROWS = 1 << 16
#: Samples per row of the blocked RC-link scan (see ``_rc_link``).
_SCAN_BLOCK = 32

#: Largest tail spread, relative to the tail mean, of a stationary trace.
STATIONARY_REL_TOL = 1e-3
#: Magnitude below which a residual counts as zero.
ZERO_TOL = 1e-9


def _check_mode(mode: str) -> None:
    if mode not in _MODE_SIGNS:
        raise InputError(f"unknown mode {mode!r}; expected one of {sorted(_MODE_SIGNS)}")


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
    #: Drive current: a constant, or a function of time that maps an array of
    #: sample times to the currents at those times (see ``current_at``).
    i_out: Callable[[np.ndarray], np.ndarray] | float = 0.0
    faults: tuple[FaultStep, ...] = ()
    v_p_initial: float = 0.0
    sensors: frozenset[str] = frozenset()

    def __post_init__(self):
        _check_mode(self.mode)
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

    def current_at(self, t: float | np.ndarray) -> np.ndarray:
        """Drive current at ``t``, a scalar or an array, shaped like ``t``."""
        value = self.i_out(t) if callable(self.i_out) else self.i_out
        return np.broadcast_to(value, np.shape(t)).astype(float)


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

    def __post_init__(self):
        _check_mode(self.mode)

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


def _overflow_checked(fn):
    # Runs ``fn`` under one numpy error state for the whole call: an overflow
    # surfaces as a non-finite residual or gain error, not a numpy warning.
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with np.errstate(over="ignore", invalid="ignore"):
            return fn(*args, **kwargs)

    return wrapper


def _fault_series(scenario: SimScenario, signal: str, times: np.ndarray) -> np.ndarray | float:
    # 0.0 for a signal with no step: adding it equals adding an array of zeros.
    return sum(
        (fault.magnitude * (times >= fault.onset) for fault in scenario.faults
         if fault.signal == signal),
        0.0,
    )


def _rc_link(
    current: np.ndarray, v0: float, params: CellParameters, dt: float, sign: float = 1.0
) -> np.ndarray:
    """RC-link voltage under the cell current ``sign * current`` from ``v0``.

    Exact zero-order-hold update ``v[k+1] = a v[k] + b i[k]`` with
    ``a = exp(-dt / tau)`` and ``b = R_p (1 - a)``: stable and exact for
    piecewise-constant current at every ``dt``.  The mode sign is folded
    into ``b``, which for a sign of 1, -1 or 0 gives the same bits as
    scaling the current.

    The recurrence runs as a blocked scan over rows of ``_SCAN_BLOCK``
    samples, with the upper-triangular decay matrix ``T[j, k] = a**(k - j)``.
    A product with ``T``'s last column gives each row's end from a zero
    start; the doubling scan with factor ``a**_SCAN_BLOCK`` carries the ends
    along the rows, stopping once a pass factor underflows to zero; each
    carried end enters the next row's first input as ``a * end``; and one
    product with ``T`` solves every row.  That is two passes over the
    samples and about ``log2`` passes over the ``n / _SCAN_BLOCK`` row ends,
    where a doubling scan over all samples makes a full pass per squaring
    of ``a`` until it underflows.  The states differ from the sequential
    recurrence's by a few 1e-15 of its largest state.

    In a product ``0 * inf`` is NaN, so a non-finite input spreads back to
    the start of its row; the reported time comes from re-running that row
    one sample at a time.  Call this only under ``_overflow_checked``.
    """
    ratio = dt / (params.r_p * params.c_p)
    a = math.exp(-ratio)
    rows = -(-len(current) // _SCAN_BLOCK)
    u = np.zeros((rows, _SCAN_BLOCK))
    inputs = u.reshape(-1)
    inputs[0] = v0
    np.multiply(params.r_p * -math.expm1(-ratio) * sign, current[:-1],
                out=inputs[1:len(current)])
    powers = a ** np.arange(_SCAN_BLOCK + 1.0)
    lag = np.arange(_SCAN_BLOCK)
    decay = np.triu(powers[abs(lag[None, :] - lag[:, None])])
    ends = u @ decay[:, -1]
    shift, factor = 1, float(powers[-1])
    while shift < rows and factor > 0:
        ends[shift:] += factor * ends[:-shift]
        shift, factor = 2 * shift, factor * factor
    u[1:, 0] += a * ends[:-1]
    v = (u @ decay).reshape(-1)[:len(current)]
    finite = np.isfinite(v)
    if not finite.all():
        first = _first_nonfinite(u, a, int(finite.argmin()))
        raise SimulationDivergedError(
            f"RC-link state became non-finite at t={first * dt:.6g} s; "
            "a signal overflowed"
        )
    return v


def _first_nonfinite(u: np.ndarray, a: float, first: int) -> int:
    # Re-runs the row holding the scan's first non-finite sample one sample
    # at a time from its carried-in start, so the index is the recurrence's.
    row = first // _SCAN_BLOCK
    v = 0.0
    for k, term in enumerate(u[row].tolist()):
        v = a * v + term
        if not math.isfinite(v):
            return row * _SCAN_BLOCK + k
    return first


@_overflow_checked
def simulate_plant(scenario: SimScenario) -> PlantSignals:
    """Integrate the truth plant and emit faulted sensor signals.

    Exact zero-order-hold update of the RC-link voltage, with the drive
    current evaluated once over the whole time grid; the cell current is
    the output current with the mode's sign, zero in bypass.  Sensor faults
    enter the measurements only, never the plant state.
    """
    n_steps = int(round(scenario.duration / scenario.dt))
    times = np.arange(n_steps + 1) * scenario.dt
    sign = _MODE_SIGNS[scenario.mode]
    p = scenario.truth

    i_out = scenario.current_at(times)
    i_cell = sign * i_out
    v_p = _rc_link(i_out, scenario.v_p_initial, p, scenario.dt, sign)
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


@_overflow_checked
def residual_setup1(signals: PlantSignals, nominal: CellParameters) -> ResidualTrace:
    """Observer residual on cell voltage, driven by ``s * y_iout``.

    ``s`` is the signals' mode sign, so in bypass the observer only tracks
    the RC-link decay.  The observer state is initialized from the first
    measurement, so a fault-free run gives a residual that is zero up to
    roundoff regardless of the initial RC-link voltage.
    """
    sign = _MODE_SIGNS[signals.mode]
    v0 = signals.y_vcell[0] - sign * nominal.r_o * signals.y_iout[0] - nominal.v_ocv
    v_hat = _rc_link(signals.y_iout, v0, nominal, signals.dt, sign)
    r = signals.y_vcell - v_hat - sign * nominal.r_o * signals.y_iout - nominal.v_ocv
    return ResidualTrace(signals.times, r, "setup1")


@_overflow_checked
def residual_cell_current(signals: PlantSignals) -> ResidualTrace:
    """``r = s * y_iout - y_icell`` with the mode sign ``s``.

    The gain is ``s`` from ``f_iout`` and -1 from ``f_icell`` in every mode.
    """
    if signals.y_icell is None:
        raise InputError("cell-current residual requires the cell_current sensor")
    r = _MODE_SIGNS[signals.mode] * signals.y_iout - signals.y_icell
    return ResidualTrace(signals.times, r, "cell_current")


@_overflow_checked
def residual_redundant_output(signals: PlantSignals) -> ResidualTrace:
    """Difference of the two output-current sensors; valid in every mode."""
    if signals.y_iout_extra is None:
        raise InputError(
            "redundant-output residual requires the extra_output_current sensor"
        )
    r = signals.y_iout - signals.y_iout_extra
    return ResidualTrace(signals.times, r, "redundant_output")


@_overflow_checked
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


def _parse_current_profile(entry) -> Callable[[np.ndarray], np.ndarray] | float:
    if not isinstance(entry, dict):
        return _number(entry, '"i_out"')
    kind = entry.get("kind", "constant")
    if kind == "constant":
        return _number(entry.get("value", 0.0), '"i_out" value')
    if kind == "sine":
        amplitude = _number(entry.get("amplitude", 0.0), '"i_out" amplitude')
        freq = _number(entry.get("frequency_hz", 0.0), '"i_out" frequency_hz')
        return lambda t: amplitude * np.sin(2.0 * math.pi * freq * t)
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
    """Evaluate every residual whose sensors the scenario has."""
    return {
        "setup1": residual_setup1(signals, scenario.nominal),
        "cell_current": (
            residual_cell_current(signals) if "cell_current" in scenario.sensors else None
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
    """CSV with one row per sample; a residual without its sensor leaves empty cells."""
    import csv

    columns = [("r_setup1_V", "setup1"), ("r_cellcurrent_A", "cell_current"),
               ("r_redundant_A", "redundant_output")]
    column_traces = [traces.get(key) for _, key in columns]
    with output_file(path) as handle:
        writer = csv.writer(handle)
        writer.writerow(["time_s"] + [label for label, _ in columns])
        # Each column is formatted a block of rows at a time, so at most one
        # block's Python floats and strings are alive at once.
        for start in range(0, len(times), _CSV_BLOCK_ROWS):
            rows = slice(start, start + _CSV_BLOCK_ROWS)
            cells = [map("{:.9g}".format, times[rows].tolist())]
            for trace in column_traces:
                cells.append(
                    map("{:.12g}".format, trace.values[rows].tolist())
                    if trace is not None
                    else itertools.repeat("")
                )
            writer.writerows(zip(*cells))
