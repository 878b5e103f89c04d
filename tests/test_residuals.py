import csv
import io
import itertools
import math

import numpy as np
import pytest

from switchdiag import bimmc, residuals
from switchdiag.bimmc import NOMINAL_CELL, CellParameters
from switchdiag.errors import InputError, NonStationaryError, SimulationDivergedError
from switchdiag.residuals import (
    MODE_BACKWARD,
    MODE_BYPASS,
    MODE_FORWARD,
    ZERO_TOL,
    FaultStep,
    PlantSignals,
    ResidualTrace,
    SimScenario,
    _rc_link,
    applicable_residuals,
    residual_cell_current,
    residual_redundant_output,
    residual_setup1,
    scenario_from_dict,
    simulate_plant,
    steady_state_gain,
    write_traces_csv,
)

from switchdiag.structural import isolability_partition
from switchdiag.switched import instantiate, parse_configuration

from .conftest import OVERFLOWING_SENSOR

FULL_GAIN = NOMINAL_CELL.r_p + NOMINAL_CELL.r_o  # stationary response, 1.892e-3 V/A
TAU = NOMINAL_CELL.r_p * NOMINAL_CELL.c_p


def run(mode=MODE_FORWARD, **kwargs):
    scenario = SimScenario(mode=mode, **kwargs)
    return scenario, simulate_plant(scenario)


class TestScenarioValidation:
    def test_unknown_mode(self):
        with pytest.raises(InputError):
            SimScenario(mode="diagonal")

    def test_signals_with_unknown_mode(self):
        times = np.arange(3) * 1e-5
        with pytest.raises(InputError, match="unknown mode 'diagonal'"):
            PlantSignals(times, "diagonal", v_p=times, y_vcell=times, y_iout=times)

    def test_onset_outside_duration(self):
        with pytest.raises(InputError):
            SimScenario(mode=MODE_FORWARD, faults=(FaultStep("f_iout", 1.0, 1.0),))

    def test_fault_requires_matching_sensor(self):
        with pytest.raises(InputError, match="cell_current"):
            SimScenario(mode=MODE_FORWARD, faults=(FaultStep("f_icell", 0.0, 1.0),))

    def test_only_step_profiles(self):
        def scenario(profile):
            fault = {"signal": "f_iout", "onset": 0.0, "magnitude": 1.0, "profile": profile}
            return scenario_from_dict({"mode": "insertion-forward", "faults": [fault]})

        assert scenario("step").faults == (FaultStep("f_iout", 0.0, 1.0),)
        with pytest.raises(InputError, match="step"):
            scenario("ramp")

    def test_scenario_from_dict_round_trip(self):
        scenario = scenario_from_dict(
            {
                "mode": "insertion-forward",
                "dt": 2e-5,
                "duration": 0.01,
                "i_out": {"kind": "sine", "amplitude": 2.0, "frequency_hz": 50.0},
                "sensors": ["cell_current"],
                "faults": [{"signal": "f_iout", "onset": 0.001, "magnitude": 0.5}],
            }
        )
        assert scenario.dt == 2e-5
        assert scenario.faults[0].magnitude == 0.5
        assert abs(scenario.current_at(0.005) - 2.0 * math.sin(2 * math.pi * 50 * 0.005)) < 1e-12

    def test_constant_current_object_equals_a_number(self):
        def scenario(i_out):
            return scenario_from_dict({"mode": "insertion-forward", "i_out": i_out})

        assert scenario({"kind": "constant", "value": 2.0}) == scenario(2.0)


class TestPlant:
    def test_rest_equilibrium_outputs_open_circuit_voltage(self):
        _, signals = run()
        assert np.allclose(signals.y_vcell, 4.07, atol=0.0)

    def test_forward_dc_steady_state(self):
        current = 2.0
        _, signals = run(i_out=current, duration=30 * TAU)
        expected = NOMINAL_CELL.v_ocv + (NOMINAL_CELL.r_p + NOMINAL_CELL.r_o) * current
        assert signals.y_vcell[-1] == pytest.approx(expected, rel=1e-3)

    def test_bypass_decay_time_constant(self):
        # v_p should decay as exp(-t / (R_p C_p)); tau is about 1.05 ms.
        assert TAU == pytest.approx(1.05184e-3, rel=1e-12)
        _, signals = run(mode=MODE_BYPASS, v_p_initial=1.0, duration=0.01)
        idx = int(round(TAU / 1e-5))
        assert signals.v_p[idx] == pytest.approx(math.exp(-1.0), rel=5e-3)
        assert signals.y_icell is None

    def test_bypass_cell_current_is_zero(self):
        _, signals = run(
            mode=MODE_BYPASS, i_out=3.0, sensors=frozenset({"cell_current"})
        )
        assert np.all(signals.y_icell == 0.0)

    def test_sensor_faults_do_not_enter_the_plant(self):
        _, clean = run(i_out=1.0)
        _, faulted = run(i_out=1.0, faults=(FaultStep("f_iout", 0.0, 5.0),))
        assert np.array_equal(clean.v_p, faulted.v_p)
        assert np.array_equal(clean.y_vcell, faulted.y_vcell)

    def test_large_dt_decay_is_exact(self):
        # dt is about 10 tau, far beyond explicit Euler's stability limit of 2 tau.
        _, signals = run(dt=0.01, duration=10.0, v_p_initial=1.0)
        assert np.isfinite(signals.v_p).all()
        np.testing.assert_allclose(
            signals.v_p, np.exp(-signals.times / TAU), rtol=1e-12, atol=np.finfo(float).tiny
        )

    def test_infinite_current_raises_from_the_rc_link(self):
        with pytest.raises(SimulationDivergedError, match="RC-link state became non-finite"):
            run(i_out=math.inf)

    # The state after an infinite current at sample i is first infinite at
    # sample i + 1: mid-row (101), a row's first sample (96) and its last (95)
    # in rows of residuals._SCAN_BLOCK = 32 samples.
    @pytest.mark.parametrize("sample", [100, 95, 94])
    def test_divergence_time_is_the_recurrences(self, sample):
        def spike(t):
            return np.where(np.arange(np.size(t)) == sample, math.inf, 1.0)

        t = f"{(sample + 1) * 1e-5:.6g}"
        with pytest.raises(SimulationDivergedError, match=rf"non-finite at t={t} s;"):
            run(i_out=spike)
        # The observer reports the same sample when only the measurement spikes.
        _, signals = run(i_out=1.0)
        y_iout = signals.y_iout.copy()
        y_iout[sample] = math.inf
        spiked = PlantSignals(signals.times, MODE_FORWARD, signals.v_p, signals.y_vcell, y_iout)
        with pytest.raises(SimulationDivergedError, match=rf"RC-link .* at t={t} s;"):
            residual_setup1(spiked, NOMINAL_CELL)


def sequential_zoh(current, v0, params, dt):
    """Reference: the zero-order-hold recurrence, one sample at a time."""
    ratio = dt / (params.r_p * params.c_p)
    a, b = math.exp(-ratio), params.r_p * -math.expm1(-ratio)
    v = [float(v0)]
    for i in current[:-1].tolist():
        v.append(a * v[-1] + b * i)
    return np.array(v)


class TestRcLinkScan:
    def test_matches_sequential_recurrence(self):
        rng = np.random.default_rng(7)
        lengths = [1, 2, 3, 5000] + rng.integers(1, 5001, 246).tolist()
        for n in lengths:
            params = CellParameters(
                r_p=10 ** rng.uniform(-5, -1), c_p=10 ** rng.uniform(-1, 2), r_o=1e-3, v_ocv=4.0
            )
            dt = params.r_p * params.c_p * 10 ** rng.uniform(-4, 4)
            current = rng.choice((-1.0, 1.0), n) * 10 ** rng.uniform(-2, 3, n)
            v0 = rng.normal(scale=10.0)
            got = _rc_link(current, v0, params, dt)
            want = sequential_zoh(current, v0, params, dt)
            # Relative to the largest state magnitude of the run.
            assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want)), (n, dt)

    @staticmethod
    def assert_close(current, v0, params, dt, rel):
        got = _rc_link(current, v0, params, dt)
        want = sequential_zoh(current, v0, params, dt)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want)), (len(current), dt)

    @pytest.mark.parametrize("n", [1, 2, 31, 32, 33, 63, 64, 65])
    def test_lengths_at_the_row_edges(self, n):
        assert residuals._SCAN_BLOCK == 32
        rng = np.random.default_rng(n)
        for ratio in (1e-3, 0.0095, 0.3, 30.0):
            current = rng.normal(scale=20.0, size=n)
            self.assert_close(current, rng.normal(), NOMINAL_CELL, ratio * TAU, 1e-13)

    def test_decay_underflowing_to_zero_is_exact(self):
        # exp(-1000) is 0, so each state is the previous step's input alone.
        dt = 1000 * TAU
        assert math.exp(-dt / TAU) == 0.0
        current = np.random.default_rng(1).normal(size=100)
        got = _rc_link(current, 0.5, NOMINAL_CELL, dt)
        assert np.array_equal(got, sequential_zoh(current, 0.5, NOMINAL_CELL, dt))

    def test_decay_of_one_minus_a_millionth(self):
        current = np.random.default_rng(2).normal(scale=20.0, size=5000)
        self.assert_close(current, 3.0, NOMINAL_CELL, 1e-6 * TAU, 1e-13)

    def test_a_million_samples_at_the_benchmark_cell(self):
        # 31 250 rows: a carry error anywhere along them shows in the tail.
        times = np.arange(1_000_000) * 1e-5
        current = 20.0 * np.sin(2 * math.pi * 50.0 * times) + 3.0 * (times >= 5.0)
        self.assert_close(current, 0.0, NOMINAL_CELL, 1e-5, 1e-13)


class TestSetup1Residual:
    def test_fault_free_is_zero(self):
        for mode in (MODE_FORWARD, MODE_BACKWARD):
            scenario, signals = run(
                mode=mode, i_out=lambda t: 2.0 * np.sin(2 * math.pi * 50 * t)
            )
            r = residual_setup1(signals, scenario.nominal)
            assert np.max(np.abs(r.values)) < 1e-6

    def test_forward_step_gain_is_full_stationary_response(self):
        scenario, signals = run(faults=(FaultStep("f_iout", 0.0, 1.0),))
        r = residual_setup1(signals, scenario.nominal)
        gain = steady_state_gain(r, 1.0)
        assert abs(gain) == pytest.approx(FULL_GAIN, rel=0.01)
        assert gain < 0

    def test_backward_step_gain_has_opposite_sign(self):
        scenario, signals = run(
            mode=MODE_BACKWARD, faults=(FaultStep("f_iout", 0.0, 1.0),)
        )
        r = residual_setup1(signals, scenario.nominal)
        gain = steady_state_gain(r, 1.0)
        assert abs(gain) == pytest.approx(FULL_GAIN, rel=0.01)
        assert gain > 0

    def test_linearity(self):
        gains = []
        for magnitude in (1.0, 2.0):
            scenario, signals = run(faults=(FaultStep("f_iout", 0.0, magnitude),))
            r = residual_setup1(signals, scenario.nominal)
            gains.append(np.mean(r.values[-100:]))
        assert gains[1] == pytest.approx(2 * gains[0], rel=1e-9)

    def test_halving_dt_changes_gain_under_point_one_percent(self):
        gains = []
        for dt in (1e-5, 5e-6):
            scenario, signals = run(dt=dt, faults=(FaultStep("f_iout", 0.0, 1.0),))
            r = residual_setup1(signals, scenario.nominal)
            gains.append(steady_state_gain(r, 1.0))
        assert abs(gains[1] - gains[0]) / abs(gains[0]) < 1e-3

    def test_nonzero_initial_state_still_converges_to_zero(self):
        scenario, signals = run(v_p_initial=0.5, duration=30 * TAU)
        r = residual_setup1(signals, scenario.nominal)
        assert np.max(np.abs(r.values)) < 1e-6

    def test_stiff_observer_is_exact(self):
        # A time constant below dt/2, where explicit Euler is unstable.
        stiff = CellParameters(r_p=1e-6, c_p=1.0, r_o=NOMINAL_CELL.r_o, v_ocv=NOMINAL_CELL.v_ocv)
        assert stiff.r_p * stiff.c_p < 1e-5 / 2
        scenario, signals = run(truth=stiff, nominal=stiff, i_out=1.0)
        r = residual_setup1(signals, scenario.nominal)
        assert np.max(np.abs(r.values)) <= 1e-9
        scenario, signals = run(
            truth=stiff, nominal=stiff, faults=(FaultStep("f_iout", 0.0, 1.0),)
        )
        gain = steady_state_gain(residual_setup1(signals, scenario.nominal), 1.0)
        assert abs(gain) == pytest.approx(stiff.r_p + stiff.r_o, rel=1e-9)


class TestCellCurrentResidual:
    def test_unit_gain_for_output_current_fault(self):
        _, signals = run(
            sensors=frozenset({"cell_current"}),
            faults=(FaultStep("f_iout", 0.0, 1.0),),
        )
        r = residual_cell_current(signals)
        assert np.allclose(r.values, 1.0)
        assert steady_state_gain(r, 1.0) == pytest.approx(1.0, abs=1e-9)

    def test_zero_without_faults(self):
        _, signals = run(i_out=2.5, sensors=frozenset({"cell_current"}))
        assert np.allclose(residual_cell_current(signals).values, 0.0)

    def test_combined_faults_forward(self):
        _, signals = run(
            sensors=frozenset({"cell_current"}),
            faults=(FaultStep("f_iout", 0.0, 0.5), FaultStep("f_icell", 0.0, 0.2)),
        )
        assert np.allclose(residual_cell_current(signals).values, 0.3)

    def test_requires_sensor(self):
        _, signals = run()
        with pytest.raises(InputError, match="cell_current"):
            residual_cell_current(signals)

    @pytest.mark.parametrize(
        "mode, sign", [(MODE_FORWARD, 1.0), (MODE_BACKWARD, -1.0), (MODE_BYPASS, 0.0)]
    )
    def test_gains_follow_the_mode_sign(self, mode, sign):
        # r = s * y_iout - y_icell: gain s from f_iout and -1 from f_icell.
        for signal, want in (("f_iout", sign), ("f_icell", -1.0)):
            _, signals = run(
                mode=mode,
                i_out=2.0,
                sensors=frozenset({"cell_current"}),
                faults=(FaultStep(signal, 0.0, 1.5),),
            )
            r = residual_cell_current(signals)
            assert steady_state_gain(r, 1.5) == pytest.approx(want, abs=1e-9), signal


class TestResidualsBackTheStructuralVerdict:
    """Residual responses against the n=1 BIMMC model, in every switch mode.

    Each case pairs a mode with its BIMMC mode and a sensor set with its
    setup: no extra sensor is setup I, ``cell_current`` is setup III.  A
    fault is detectable exactly when some applicable residual has a
    non-zero gain, and two faults are isolable exactly when different sets
    of residuals respond.  ``redundant_output`` and ``f_iout_extra`` are
    left out: setups I-IV have no second output-current sensor.
    """

    MODES = {MODE_FORWARD: "forward", MODE_BACKWARD: "backward", MODE_BYPASS: "bypass1"}
    SETUPS = {frozenset(): "I", frozenset({"cell_current"}): "III"}
    FAULTS = {"f_iout": "f_iout", "f_icell": "f_icell,1"}

    @staticmethod
    def responding(mode, sensors, signal):
        # A sine drive and a non-zero initial RC-link voltage, so the
        # residuals are checked to be zero before the fault, not just at rest.
        onset = 0.01
        scenario, signals = run(
            mode=mode,
            duration=0.04,
            v_p_initial=0.01,
            i_out=lambda t: 2.0 * np.sin(2 * math.pi * 50 * t),
            sensors=sensors,
            faults=(FaultStep(signal, onset, 1.0),),
        )
        traces = applicable_residuals(scenario, signals)
        traces = {kind: trace for kind, trace in traces.items() if trace is not None}
        assert "redundant_output" not in traces
        for trace in traces.values():
            assert np.max(np.abs(trace.values[trace.times < onset])) <= ZERO_TOL
        return {k for k, t in traces.items() if abs(steady_state_gain(t, 1.0)) > ZERO_TOL}

    @staticmethod
    def cell_of(report, fault):
        # The non-detectable faults form one more cell: no residual tells them apart.
        cells = [*report.non_isolable_partition, report.non_detectable]
        return next(cell for cell in cells if fault in cell)

    @pytest.mark.parametrize("mode", list(MODES))
    @pytest.mark.parametrize("sensors", list(SETUPS), ids=["I", "III"])
    def test_detectability_and_isolability(self, mode, sensors):
        switched, catalogue = bimmc.generate(1, self.SETUPS[sensors])
        config = parse_configuration(switched.template, self.MODES[mode], 1)
        report = isolability_partition(instantiate(switched, config), catalogue)
        signals = ["f_iout"] + ["f_icell"] * ("cell_current" in sensors)
        responses = {s: self.responding(mode, sensors, s) for s in signals}
        for signal in signals:
            assert bool(responses[signal]) == (self.FAULTS[signal] in report.detectable), signal
        for a, b in itertools.combinations(signals, 2):
            isolable = self.cell_of(report, self.FAULTS[a]) != self.cell_of(report, self.FAULTS[b])
            assert (responses[a] != responses[b]) == isolable, (a, b)


class TestRedundantOutputResidual:
    def test_valid_in_bypass_with_unit_gain(self):
        _, signals = run(
            mode=MODE_BYPASS,
            sensors=frozenset({"extra_output_current"}),
            faults=(FaultStep("f_iout", 0.0, 1.0),),
        )
        r = residual_redundant_output(signals)
        assert steady_state_gain(r, 1.0) == pytest.approx(1.0, abs=1e-9)

    def test_zero_when_both_sensors_healthy(self):
        _, signals = run(i_out=4.0, sensors=frozenset({"extra_output_current"}))
        assert np.allclose(residual_redundant_output(signals).values, 0.0)

    def test_extra_sensor_fault_gives_negative_residual(self):
        _, signals = run(
            sensors=frozenset({"extra_output_current"}),
            faults=(FaultStep("f_iout_extra", 0.0, 1.0),),
        )
        assert np.allclose(residual_redundant_output(signals).values, -1.0)

    def test_requires_sensor(self):
        _, signals = run()
        with pytest.raises(InputError, match="extra_output_current"):
            residual_redundant_output(signals)


class TestSteadyStateGain:
    def test_zero_fault_zero_trace_gives_zero(self):
        times = np.arange(100) * 1e-5
        trace = ResidualTrace(times, np.zeros(100), "setup1")
        assert steady_state_gain(trace, 0.0) == 0.0

    def test_zero_fault_nonzero_trace_rejected(self):
        times = np.arange(100) * 1e-5
        trace = ResidualTrace(times, np.ones(100), "setup1")
        with pytest.raises(InputError):
            steady_state_gain(trace, 0.0)

    def test_non_stationary_tail_refused_with_diagnostic(self):
        times = np.arange(100) * 1e-5
        trace = ResidualTrace(times, np.linspace(0.0, 1.0, 100), "setup1")
        with pytest.raises(NonStationaryError, match="spread"):
            steady_state_gain(trace, 1.0)

    def test_model_mismatch_changes_fault_free_residual(self):
        truth = CellParameters(r_p=800e-6, c_p=1.52, r_o=1.2e-3, v_ocv=4.07)
        scenario = SimScenario(mode=MODE_FORWARD, truth=truth, i_out=2.0)
        signals = simulate_plant(scenario)
        r = residual_setup1(signals, scenario.nominal)
        assert np.max(np.abs(r.values)) > 1e-5


class TestOverflowIsAnError:
    """Library calls report overflow by their own error, never a numpy warning.

    The suite turns every ``RuntimeWarning`` into an error, so a warning
    would fail these tests before the expected error is raised.
    """

    def test_overflowing_sensor_scenario(self):
        scenario = scenario_from_dict(OVERFLOWING_SENSOR)
        signals = simulate_plant(scenario)
        with pytest.raises(SimulationDivergedError, match="non-finite"):
            applicable_residuals(scenario, signals)

    def test_gain_of_a_tail_whose_mean_overflows(self):
        times = np.arange(100) * 1e-5
        trace = ResidualTrace(times, np.full(100, 1e308), "redundant_output")
        with pytest.raises(SimulationDivergedError, match="non-finite"):
            steady_state_gain(trace, 1.0)


class TestTraceCsv:
    # A block of 7 rows puts block boundaries all through the 2001 rows.
    @pytest.mark.parametrize("block_rows", [7, residuals._CSV_BLOCK_ROWS])
    def test_bytes_match_the_per_row_formatter(self, tmp_path, monkeypatch, block_rows):
        monkeypatch.setattr(residuals, "_CSV_BLOCK_ROWS", block_rows)
        scenario, signals = run(
            i_out=lambda t: 3.0 * np.sin(2 * math.pi * 50 * t),
            sensors=frozenset({"cell_current"}),
            faults=(FaultStep("f_iout", 0.01, 0.5),),
        )
        traces = applicable_residuals(scenario, signals)
        assert traces["redundant_output"] is None
        path = tmp_path / "trace.csv"
        write_traces_csv(path, signals.times, traces)

        expected = io.StringIO()
        writer = csv.writer(expected)
        writer.writerow(["time_s", "r_setup1_V", "r_cellcurrent_A", "r_redundant_A"])
        for i, t in enumerate(signals.times):
            row = [f"{t:.9g}"]
            for key in ("setup1", "cell_current", "redundant_output"):
                trace = traces[key]
                row.append(f"{trace.values[i]:.12g}" if trace is not None else "")
            writer.writerow(row)
        assert path.read_bytes() == expected.getvalue().encode("utf-8")
