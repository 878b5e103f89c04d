import random

import pytest

from switchdiag.bimmc import (
    FAULT_AGGREGATION,
    NOMINAL_CELL,
    SETUPS,
    CellParameters,
    SensorSetup,
    aggregate_report,
    build_catalogue,
    generate,
    sensor_setup,
)
from switchdiag.errors import InputError
from switchdiag.oraclecheck import random_model
from switchdiag.structural import (
    IsolabilityReport,
    isolability_partition,
)
from switchdiag.switched import Configuration, instantiate

EXPECTED_COUNTS = {"I": lambda n: 10 * n + 2, "II": lambda n: 10 * n + 3,
                   "III": lambda n: 11 * n + 2, "IV": lambda n: 11 * n + 3}


def flat(setup, n, modes=None):
    switched, catalogue = generate(n, setup)
    modes = modes or ("forward",) * n
    return instantiate(switched, Configuration(modes)), catalogue


class TestSensorSetups:
    def test_setup_definitions(self):
        assert sensor_setup("I").sm_sensors == {"cell_voltage"}
        assert sensor_setup("I").pack_sensors == {"output_current"}
        assert sensor_setup("II").pack_sensors == {"output_current", "output_voltage"}
        assert sensor_setup("III").sm_sensors == {"cell_voltage", "cell_current"}
        assert sensor_setup("IV").sm_sensors == {"cell_voltage", "cell_current"}
        assert sensor_setup("IV").pack_sensors == {"output_current", "output_voltage"}

    def test_unknown_setup(self):
        with pytest.raises(InputError):
            sensor_setup("V")

    def test_misspelled_sensor_refused(self):
        with pytest.raises(InputError, match="cell_volt"):
            SensorSetup("V", frozenset({"cell_volt"}), frozenset({"output_current"}))

    def test_setup_without_the_always_present_sensors_refused(self):
        with pytest.raises(InputError, match="cell_voltage"):
            SensorSetup("E", frozenset(), frozenset())
        with pytest.raises(InputError, match="output_current"):
            SensorSetup("E", frozenset({"cell_voltage"}), frozenset())

    def test_sensor_on_the_wrong_side_refused(self):
        with pytest.raises(InputError, match="output_voltage"):
            SensorSetup(
                "W", frozenset({"cell_voltage", "output_voltage"}), frozenset({"output_current"})
            )


class TestCellParameters:
    def test_nominal_values(self):
        assert NOMINAL_CELL == CellParameters(r_p=692e-6, c_p=1.52, r_o=1.2e-3, v_ocv=4.07)

    def test_rejects_nonpositive(self):
        with pytest.raises(InputError):
            CellParameters(r_p=0.0, c_p=1.0, r_o=1.0, v_ocv=1.0)


class TestGenerate:
    @pytest.mark.parametrize("setup", ["I", "II", "III", "IV"])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_equation_counts(self, setup, n):
        model, _ = flat(setup, n)
        assert len(model.equations) == EXPECTED_COUNTS[setup](n)

    def test_rejects_zero_modules(self):
        with pytest.raises(InputError):
            generate(0, "I")

    def test_setup_one_fault_set(self):
        model, catalogue = flat("I", 3)
        per_sm = {"f_Ro", "f_Cp", "f_Rp", "f_Em", "f_vcell"}
        expected = {f"{f},{k}" for k in (1, 2, 3) for f in per_sm} | {"f_iout"}
        assert set(model.faults) == expected
        assert set(catalogue) == expected

    def test_setup_two_has_output_voltage_equation(self):
        model, _ = flat("II", 2)
        assert "e3,0" in model.incidence
        assert model.incidence["e3,0"] == {"v_out"}
        assert len(model.equations) == 23

    def test_setup_three_has_cell_current_fault(self):
        model, catalogue = flat("III", 1)
        assert len(model.equations) == 13
        assert "f_icell,1" in model.faults
        assert catalogue["f_icell,1"] == "f_icell,1"

    def test_each_fault_on_exactly_one_equation(self):
        for setup in ("I", "II", "III", "IV"):
            model, _ = flat(setup, 2)
            assert len(set(model.fault_map.values())) == len(model.faults)

    def test_submodule_incidence_structure(self):
        model, _ = flat("IV", 2)
        assert model.incidence["e1,1"] == {"dv_p,1", "i_cell,1", "C_p,1", "R_p,1", "v_p,1"}
        assert model.incidence["e2,1"] == {"v_cell,1", "v_p,1", "R_o,1", "i_cell,1", "E_m,1"}
        assert model.incidence["e3,1"] == {"dv_p,1", "v_p,1"}
        for eq, unknown in [("e4,1", "R_o,1"), ("e5,1", "C_p,1"),
                            ("e6,1", "R_p,1"), ("e7,1", "E_m,1")]:
            assert model.incidence[eq] == {unknown}
        assert model.incidence["e8,1"] == {"v_cell,1"}
        assert model.incidence["e11,1"] == {"i_cell,1"}
        assert model.incidence["e1,0"] == {"v_out", "v_sm,1", "v_sm,2"}
        assert model.incidence["e2,0"] == {"i_out"}
        assert model.incidence["e3,0"] == {"v_out"}

    @pytest.mark.parametrize("setup", sorted(SETUPS))
    @pytest.mark.parametrize("n", [1, 3])
    def test_catalogue_covers_exactly_the_model_faults(self, setup, n):
        switched, _ = generate(n, setup)
        model = instantiate(switched, Configuration(("forward",) * n))
        catalogue = build_catalogue(switched, FAULT_AGGREGATION)
        assert sorted(catalogue) == sorted(model.faults)

    def test_aggregation_pattern(self):
        _, catalogue = flat("I", 2)
        assert {f for f, name in catalogue.items() if name == "f_cell,1"} == {
            "f_Ro,1", "f_Cp,1", "f_Rp,1", "f_Em,1"
        }
        assert catalogue["f_Rp,2"] == "f_cell,2"
        assert catalogue["f_iout"] == "f_iout"


class TestDetectability:
    def test_all_bypassed_hides_output_current_fault(self):
        for setup in ("I", "II", "III", "IV"):
            model, _ = flat(setup, 3, ("bypass1",) * 3)
            assert isolability_partition(model).non_detectable == {"f_iout"}

    @pytest.mark.parametrize("setup", ["I", "II", "III", "IV"])
    @pytest.mark.parametrize("inserted", [1, 2, 3])
    def test_any_inserted_cell_makes_all_faults_detectable(self, setup, inserted):
        modes = ("forward",) * inserted + ("bypass1",) * (3 - inserted)
        model, _ = flat(setup, 3, modes)
        assert isolability_partition(model).non_detectable == frozenset()


class TestIsolabilityAgainstKnownResults:
    def test_setup_two_config_iib_aggregated_partition(self):
        model, catalogue = flat("II", 3, ("forward", "forward", "bypass1"))
        report = aggregate_report(isolability_partition(model), catalogue)
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

    def test_setup_two_insertion_voltage_sensor_uniquely_isolable(self):
        from switchdiag.oraclecheck import is_isolable

        model, _ = flat("II", 3, ("forward", "forward", "bypass1"))
        assert not is_isolable(model, "f_Em,3", "f_vcell,3")
        assert is_isolable(model, "f_vcell,1", "f_Em,1")


class TestAggregateReport:
    def test_unknown_fault_rejected(self):
        _, catalogue = flat("I", 1)
        report = IsolabilityReport(
            frozenset({"f_alien"}), (frozenset({"f_alien"}),), frozenset()
        )
        with pytest.raises(InputError):
            aggregate_report(report, catalogue)

    def test_disjoint_unique_aggregates_stay_unique(self):
        catalogue = {"a1": "A", "a2": "A", "b1": "b1", "p": "p"}
        report = IsolabilityReport(
            frozenset({"a1", "a2", "b1", "p"}),
            (frozenset({"a1"}), frozenset({"a2"}), frozenset({"b1"}), frozenset({"p"})),
            frozenset(),
        )
        merged = aggregate_report(report, catalogue)
        assert set(merged.non_isolable_partition) == {
            frozenset({"A"}), frozenset({"b1"}), frozenset({"p"}),
        }

    def test_detectable_when_any_constituent_detectable(self):
        catalogue = {"a1": "A", "a2": "A"}
        report = IsolabilityReport(
            frozenset({"a1"}), (frozenset({"a1"}),), frozenset({"a2"})
        )
        merged = aggregate_report(report, catalogue)
        assert merged.detectable == {"A"}
        assert merged.non_detectable == frozenset()

    def test_random_models_match_naive_merge(self):
        rng = random.Random(99)
        for _ in range(60):
            model = random_model(rng, max_equations=10, max_unknowns=8)
            if not model.faults:
                continue
            faults = list(model.faults)
            rng.shuffle(faults)
            groups: list[list[str]] = []
            while faults:
                size = rng.randint(1, min(3, len(faults)))
                groups.append([faults.pop() for _ in range(size)])
            aggregation = {
                f"agg{i}": frozenset(group)
                for i, group in enumerate(groups)
                if len(group) > 1 and rng.random() < 0.7
            }
            catalogue = {f: f for f in model.faults}
            catalogue.update(
                (f, aggregate) for aggregate, group in aggregation.items() for f in group
            )
            report = isolability_partition(model)
            merged = aggregate_report(report, catalogue)

            # Naive merge: repeatedly join cells sharing an aggregate.
            cells = [set(c) for c in report.non_isolable_partition]
            changed = True
            while changed:
                changed = False
                for constituents in aggregation.values():
                    touching = [c for c in cells if c & constituents]
                    if len(touching) > 1:
                        merged_cell = set().union(*touching)
                        cells = [c for c in cells if not (c & constituents)]
                        cells.append(merged_cell)
                        changed = True
            expected = {
                frozenset(catalogue[f] for f in cell) for cell in cells
            }
            assert set(merged.non_isolable_partition) == expected

    def test_identity_catalogue_leaves_report_unchanged(self):
        rng = random.Random(7)
        for _ in range(60):
            model = random_model(rng, max_equations=10, max_unknowns=8)
            report = isolability_partition(model)
            assert aggregate_report(report, {f: f for f in model.faults}) == report
