"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import itertools
import time
from contextlib import contextmanager

import numpy as np
import pytest

from switchdiag import bimmc
from switchdiag.oraclecheck import run_oracle_check
from switchdiag.pipeline import analyze_configuration, canonical_report, compact, sweep
from switchdiag.residuals import (
    MODE_BYPASS,
    MODE_FORWARD,
    ZERO_TOL,
    FaultStep,
    SimScenario,
    applicable_residuals,
    residual_cell_current,
    residual_redundant_output,
    residual_setup1,
    simulate_plant,
    steady_state_gain,
)
from switchdiag.structural import isolability_partition
from switchdiag.switched import (
    Configuration,
    ReducedConfiguration,
    instantiate,
    parse_configuration,
    representative_configuration,
    structural_mode_classes,
)

PAIR = frozenset({"f_cell,k", "f_vcell,k"})
TRIPLE_WITH_IOUT = frozenset({"f_cell,k", "f_vcell,k", "f_iout"})


@contextmanager
def criterion(number: int, description: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number}: PASS ({elapsed:.2f}s < {budget_s:g}s) - {description}")
    assert elapsed < budget_s, f"criterion {number} exceeded its {budget_s}s budget"


def test_criterion_1_equation_counts():
    formulas = {"I": lambda n: 10 * n + 2, "II": lambda n: 10 * n + 3,
                "III": lambda n: 11 * n + 2, "IV": lambda n: 11 * n + 3}
    with criterion(1, "equation counts 10n+2 / 10n+3 / 11n+2 / 11n+3 for n in 1..8", 1.0):
        for setup, formula in formulas.items():
            for n in range(1, 9):
                switched, _ = bimmc.generate(n, setup)
                model = instantiate(switched, Configuration(("forward",) * n))
                assert len(model.equations) == formula(n), (setup, n)


def test_criterion_2_table_reproduction():
    with criterion(2, "sweep --n 3 reproduces every compact isolability cell", 5.0):
        report = sweep(3)
        cells = report.cells

        # Non-detectable column: exactly f_iout at k=0, empty otherwise.
        for setup in report.setups:
            assert cells[(setup, 0)].non_detectable == {"f_iout"}
            for k in (1, 2, 3):
                assert cells[(setup, k)].non_detectable == frozenset()
            # Bypass column at 0 inserted cells.
            assert cells[(setup, 0)].non_isolable_bypass == (PAIR,)

        # Setup I row.
        assert cells[("I", 1)].non_isolable_insertion == (TRIPLE_WITH_IOUT,)
        assert cells[("I", 1)].non_isolable_bypass == (PAIR,)
        for k in (2, 3):
            assert cells[("I", k)].non_isolable_insertion == (PAIR,)
        assert cells[("I", 2)].non_isolable_bypass == (PAIR,)
        assert cells[("I", 3)].non_isolable_bypass is None

        # Setup II row.
        assert cells[("II", 1)].non_isolable_insertion == (
            frozenset({"f_cell,k", "f_iout"}),
        )
        assert cells[("II", 1)].non_isolable_bypass == (PAIR,)
        for k in (2, 3):
            assert cells[("II", k)].non_isolable_insertion == ()
        assert cells[("II", 2)].non_isolable_bypass == (PAIR,)

        # Setup III row: the pair in both modes for every k >= 1.
        for k in (1, 2, 3):
            assert cells[("III", k)].non_isolable_insertion == (PAIR,)
            if k < 3:
                assert cells[("III", k)].non_isolable_bypass == (PAIR,)

        # Setup IV row.
        for k in (1, 2, 3):
            assert cells[("IV", k)].non_isolable_insertion == ()
            if k < 3:
                assert cells[("IV", k)].non_isolable_bypass == (PAIR,)

        # f_vout uniquely isolable wherever present (setups II and IV).
        for setup in ("II", "IV"):
            for k in range(4):
                assert cells[(setup, k)].pack_membership["f_vout"] is None

        # f_icell,k uniquely isolable wherever present (setups III and IV).
        for setup in ("III", "IV"):
            for k in range(4):
                full = analyze_configuration(3, setup, k)
                for sm in (1, 2, 3):
                    assert full.cell_of(f"f_icell,{sm}") == frozenset({f"f_icell,{sm}"})


def test_criterion_3_two_inserted_partition():
    with criterion(3, 'setup II, n=3, configuration "IIB" aggregated partition', 1.0):
        switched, catalogue = bimmc.generate(3, "II")
        config = parse_configuration(switched.template, "IIB", 3)
        report = isolability_partition(instantiate(switched, config), catalogue)
        assert set(report.non_isolable_partition) == {
            frozenset({"f_cell,1"}),
            frozenset({"f_vcell,1"}),
            frozenset({"f_cell,2"}),
            frozenset({"f_vcell,2"}),
            frozenset({"f_cell,3", "f_vcell,3"}),
            frozenset({"f_iout"}),
            frozenset({"f_vout"}),
        }
        assert report.non_detectable == frozenset()


def test_criterion_4_oracle_equivalence():
    with criterion(4, "1000 random models agree with the matching-size oracle", 30.0):
        result = run_oracle_check(count=1000, seed=20260809)
        assert result.models_checked == 1000
        assert result.failures == []


def test_criterion_5_reduction_soundness():
    with criterion(5, "all 64 raw configurations collapse to the 4 reduced classes", 10.0):
        switched, _ = bimmc.generate(3, "I")
        classes = structural_mode_classes(switched.template)
        assert classes == (
            frozenset({"forward", "backward"}),
            frozenset({"bypass1", "bypass2"}),
        )

        models = {}
        catalogues = {}
        for setup in bimmc.SETUPS:
            models[setup], catalogues[setup] = bimmc.generate(3, setup)

        def analyzed(setup, config):
            report = isolability_partition(
                instantiate(models[setup], config), catalogues[setup]
            )
            return canonical_report(report, config, classes)

        reduced_results = {}
        for k in range(4):
            config = representative_configuration(
                models["I"], ReducedConfiguration((k, 3 - k))
            )
            reduced_results[k] = tuple(analyzed(s, config) for s in bimmc.SETUPS)

        raw_results = set()
        for modes in itertools.product(bimmc.MODES, repeat=3):
            config = Configuration(modes)
            k = sum(1 for m in modes if m in classes[0])
            result = tuple(analyzed(s, config) for s in bimmc.SETUPS)
            assert result == reduced_results[k], (modes, k)
            raw_results.add(result)
        assert len(raw_results) == 4
        assert raw_results == set(map(tuple, reduced_results.values()))


def rename_partition(report, perm):
    mapping = {old + 1: new + 1 for new, old in enumerate(perm)}

    def map_fault(fault):
        base, sep, tail = fault.rpartition(",")
        return f"{base},{mapping[int(tail)]}" if sep and tail.isdigit() else fault

    return (
        frozenset(map_fault(f) for f in report.detectable),
        frozenset(map_fault(f) for f in report.non_detectable),
        frozenset(frozenset(map_fault(f) for f in c) for c in report.non_isolable_partition),
    )


def test_criterion_6_permutation_equivariance():
    with criterion(6, "n=4: permuting insertion patterns permutes partitions", 10.0):
        for setup in bimmc.SETUPS:
            switched, _ = bimmc.generate(4, setup)
            reports = {}
            for pattern in itertools.product((True, False), repeat=4):
                modes = tuple("forward" if b else "bypass1" for b in pattern)
                reports[pattern] = isolability_partition(
                    instantiate(switched, Configuration(modes))
                )
            for pattern, report in reports.items():
                for perm in itertools.permutations(range(4)):
                    permuted = tuple(pattern[i] for i in perm)
                    actual = reports[permuted]
                    assert (
                        actual.detectable,
                        actual.non_detectable,
                        frozenset(actual.non_isolable_partition),
                    ) == rename_partition(report, perm)


def test_criterion_7_residual_gains():
    with criterion(7, "residual gains: 1.0, 1.0 (bypass), Rp+Ro within 1%", 5.0):
        step = (FaultStep("f_iout", 0.0, 1.0),)

        scenario = SimScenario(
            mode=MODE_FORWARD, sensors=frozenset({"cell_current"}), faults=step
        )
        r = residual_cell_current(simulate_plant(scenario))
        assert steady_state_gain(r, 1.0) == pytest.approx(1.0, abs=1e-9)

        scenario = SimScenario(
            mode=MODE_BYPASS, sensors=frozenset({"extra_output_current"}), faults=step
        )
        r = residual_redundant_output(simulate_plant(scenario))
        assert steady_state_gain(r, 1.0) == pytest.approx(1.0, abs=1e-9)

        expected = bimmc.NOMINAL_CELL.r_p + bimmc.NOMINAL_CELL.r_o
        assert expected == pytest.approx(1.892e-3, rel=1e-12)
        gains = {}
        for dt in (1e-5, 5e-6):
            scenario = SimScenario(mode=MODE_FORWARD, dt=dt, faults=step)
            r = residual_setup1(simulate_plant(scenario), scenario.nominal)
            gains[dt] = steady_state_gain(r, 1.0)
        assert abs(gains[1e-5]) == pytest.approx(expected, rel=0.01)
        assert abs(gains[5e-6] - gains[1e-5]) / abs(gains[1e-5]) < 1e-3

        fault_free = SimScenario(mode=MODE_FORWARD, i_out=2.0)
        r = residual_setup1(simulate_plant(fault_free), fault_free.nominal)
        assert np.max(np.abs(r.values)) < 1e-6


def test_criterion_8_structural_numerical_consistency():
    with criterion(8, "bypass: every residual gain 0 and f_iout non-detectable", 1.0):
        scenario = SimScenario(
            mode=MODE_BYPASS, faults=(FaultStep("f_iout", 0.0, 1.0),)
        )
        traces = applicable_residuals(scenario, simulate_plant(scenario))
        applicable = [trace for trace in traces.values() if trace is not None]
        assert [trace.kind for trace in applicable] == ["setup1"]
        for trace in applicable:
            assert abs(steady_state_gain(trace, 1.0)) <= ZERO_TOL

        # Same operating point structurally: every submodule bypassed.
        report = analyze_configuration(3, "I", 0)
        assert report.non_detectable == {"f_iout"}
        switched, _ = bimmc.generate(3, "I")
        classes = structural_mode_classes(switched.template)
        zero_inserted = compact(report, Configuration(("bypass1",) * 3), classes)
        assert zero_inserted.non_detectable == {"f_iout"}
