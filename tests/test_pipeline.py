import random

import pytest
from hypothesis import given

from switchdiag import bimmc, pipeline
from switchdiag.errors import InputError, InternalConsistencyError
from switchdiag.pipeline import (
    CompactIsolability,
    SweepReport,
    analyze_configuration,
    compact,
    full_enumeration_check,
    render,
    render_matrix,
    render_report,
    sweep,
)
from switchdiag.oraclecheck import isolability_matrix
from switchdiag.structural import IsolabilityMatrix, IsolabilityReport, partition_matrix
from switchdiag.switched import Configuration, canonicalize, structural_mode_classes

from .conftest import ASYMMETRIC_MATRIX, EDGE_REPORTS, matrices, models, reports

PAIR = frozenset({"f_cell,k", "f_vcell,k"})
CLASSES = structural_mode_classes(bimmc.generate(1, "I")[0].template)

# Golden rendering of sweep(3); every cell is also pinned individually by
# the acceptance gate in tests/test_acceptance.py.
GOLDEN_SWEEP_MD = """\
| Setup | SM sensors | Pack sensors | non-D (0 ins.) | non-I B (0 ins.) | non-I B (1 ins.) | non-I I (1 ins.) | non-I B (>1 ins.) | non-I I (>1 ins.) |
|---|---|---|---|---|---|---|---|---|
| I | v_cell,k | i_out | {f_iout} | {f_cell,k, f_vcell,k} | {f_cell,k, f_vcell,k} | {f_cell,k, f_iout, f_vcell,k} | {f_cell,k, f_vcell,k} | {f_cell,k, f_vcell,k} |
| II | v_cell,k | i_out, v_out | {f_iout} | {f_cell,k, f_vcell,k} | {f_cell,k, f_vcell,k} | {f_cell,k, f_iout} | {f_cell,k, f_vcell,k} | ∅ |
| III | i_cell,k, v_cell,k | i_out | {f_iout} | {f_cell,k, f_vcell,k} | {f_cell,k, f_vcell,k} | {f_cell,k, f_vcell,k} | {f_cell,k, f_vcell,k} | {f_cell,k, f_vcell,k} |
| IV | i_cell,k, v_cell,k | i_out, v_out | {f_iout} | {f_cell,k, f_vcell,k} | {f_cell,k, f_vcell,k} | ∅ | {f_cell,k, f_vcell,k} | ∅ |
"""


@pytest.fixture(scope="module")
def sweep3():
    return sweep(3)


class TestAnalyzeConfiguration:
    def test_all_bypassed_setup_one(self):
        report = analyze_configuration(3, "I", 0)
        assert report.non_detectable == {"f_iout"}
        multi = {c for c in report.non_isolable_partition if len(c) > 1}
        assert multi == {
            frozenset({f"f_cell,{k}", f"f_vcell,{k}"}) for k in (1, 2, 3)
        }

    def test_setup_four_one_inserted_insertion_faults_unique(self):
        report = analyze_configuration(3, "IV", 1)
        cell_1_faults = {"f_cell,1", "f_vcell,1", "f_icell,1"}
        for f in cell_1_faults:
            assert report.cell_of(f) == frozenset({f})

    def test_setup_two_two_inserted(self):
        report = analyze_configuration(3, "II", 2)
        assert report.cell_of("f_vout") == frozenset({"f_vout"})
        assert report.cell_of("f_cell,3") == frozenset({"f_cell,3", "f_vcell,3"})
        assert report.cell_of("f_cell,1") == frozenset({"f_cell,1"})

    def test_k_out_of_range(self):
        with pytest.raises(InputError):
            analyze_configuration(3, "I", 4)


class TestCompact:
    def test_two_inserted_one_bypassed(self):
        report = analyze_configuration(3, "II", 2)
        config = Configuration(("forward", "forward", "bypass1"))
        c = compact(report, config, CLASSES)
        assert c.non_isolable_insertion == ()
        assert c.non_isolable_bypass == (PAIR,)
        assert c.pack_membership == {"f_iout": None, "f_vout": None}

    def test_fully_isolable_report(self):
        report = IsolabilityReport(
            frozenset({"f_a,1", "f_b,2"}),
            (frozenset({"f_a,1"}), frozenset({"f_b,2"})),
            frozenset(),
        )
        c = compact(report, Configuration(("forward", "bypass1")), CLASSES)
        assert c.non_isolable_insertion == ()
        assert c.non_isolable_bypass == ()

    def test_one_inserted_setup_one(self):
        report = analyze_configuration(3, "I", 1)
        config = Configuration(("forward", "bypass1", "bypass1"))
        c = compact(report, config, CLASSES)
        assert c.non_isolable_insertion == (
            frozenset({"f_cell,k", "f_vcell,k", "f_iout"}),
        )
        assert c.non_isolable_bypass == (PAIR,)
        assert c.pack_membership == {"f_iout": "insertion"}

    def test_absent_mode_class_is_none(self):
        report = analyze_configuration(3, "I", 3)
        c = compact(report, Configuration(("forward",) * 3), CLASSES)
        assert c.non_isolable_bypass is None
        assert c.non_isolable_insertion == (PAIR,)

    def test_cross_submodule_cell_is_an_internal_error(self):
        report = IsolabilityReport(
            frozenset({"f_a,1", "f_a,2"}),
            (frozenset({"f_a,1", "f_a,2"}),),
            frozenset(),
        )
        with pytest.raises(InternalConsistencyError, match="spans submodules"):
            compact(report, Configuration(("forward", "forward")), CLASSES)

    def test_pack_only_cell_is_an_internal_error(self):
        report = IsolabilityReport(
            frozenset({"f_iout", "f_vout"}),
            (frozenset({"f_iout", "f_vout"}),),
            frozenset(),
        )
        with pytest.raises(InternalConsistencyError, match="pack-only"):
            compact(report, Configuration(("forward",)), CLASSES)

    def test_same_mode_submodules_must_be_isomorphic(self):
        report = IsolabilityReport(
            frozenset({"f_a,1", "f_b,1", "f_a,2", "f_b,2"}),
            (
                frozenset({"f_a,1", "f_b,1"}),
                frozenset({"f_a,2"}),
                frozenset({"f_b,2"}),
            ),
            frozenset(),
        )
        with pytest.raises(InternalConsistencyError, match="different non-isolable sets"):
            compact(report, Configuration(("forward", "forward")), CLASSES)


class TestSweep:
    def test_single_module_has_two_columns(self):
        report = sweep(1)
        assert set(report.cells) == {(s, k) for s in "I II III IV".split() for k in (0, 1)}

    def test_table_row_setup_one(self, sweep3):
        cells = sweep3.cells
        assert cells[("I", 0)].non_detectable == {"f_iout"}
        assert cells[("I", 0)].non_isolable_bypass == (PAIR,)
        assert cells[("I", 1)].non_isolable_insertion == (
            frozenset({"f_cell,k", "f_vcell,k", "f_iout"}),
        )
        for k in (2, 3):
            assert cells[("I", k)].non_isolable_insertion == (PAIR,)

    def test_non_detectable_only_at_zero_inserted(self, sweep3):
        for (setup, k), cell in sweep3.cells.items():
            if k == 0:
                assert cell.non_detectable == {"f_iout"}
            else:
                assert cell.non_detectable == frozenset()

    def test_setup_four_insertion_empty_for_all_k(self, sweep3):
        for k in (1, 2, 3):
            assert sweep3.cells[("IV", k)].non_isolable_insertion == ()

    def test_sweep_four_merges_k2_k3(self):
        report = sweep(4)
        for setup in report.setups:
            a, b = report.cells[(setup, 2)], report.cells[(setup, 3)]
            assert a == b

    def test_empty_setup_list_refused(self):
        with pytest.raises(InputError, match="empty"):
            sweep(1, [])

    def test_no_setup_list_sweeps_every_preset(self):
        assert sweep(1).setups == ("I", "II", "III", "IV")

    def test_repeated_setup_refused(self):
        with pytest.raises(InputError, match=r"duplicate sensor setup identifiers: \['II'\]"):
            sweep(1, ["I", "II", bimmc.SETUPS["II"]])

    def test_zero_submodules_refused(self):
        with pytest.raises(InputError, match="submodule count must be >= 1"):
            sweep(0)


class TestRender:
    def test_markdown_golden(self, sweep3):
        assert render(sweep3, "md") == GOLDEN_SWEEP_MD

    @pytest.mark.parametrize("custom_id, preset_id", [("V", "III"), ("I", "IV")],
                             ids=["new-id", "reused-id"])
    def test_markdown_reads_the_swept_sensors(self, custom_id, preset_id):
        # A custom setup renders its own sensors, even under a preset's id.
        preset = bimmc.SETUPS[preset_id]
        custom = bimmc.SensorSetup(custom_id, preset.sm_sensors, preset.pack_sensors)
        expected = render(sweep(2, [preset]), "md").replace(
            f"| {preset_id} |", f"| {custom_id} |"
        )
        assert render(sweep(2, [custom]), "md") == expected

    def test_csv_has_one_row_per_cell(self, sweep3):
        lines = render(sweep3, "csv").strip().splitlines()
        assert len(lines) == 1 + 4 * 4
        assert lines[0].startswith("setup,k,")

    def test_unknown_format_rejected(self, sweep3):
        with pytest.raises(InputError):
            render(sweep3, "xml")
        with pytest.raises(InputError, match="unknown render format 'xml'"):
            render_report(analyze_configuration(2, "I", 1), "xml")

    def test_report_render_formats(self):
        report = analyze_configuration(3, "II", 2)
        md = render_report(report, "md")
        assert "{f_cell,3, f_vcell,3}" in md
        json_text = render_report(report, "json")
        assert '"f_vout"' in json_text
        csv_text = render_report(report, "csv")
        assert csv_text.splitlines()[0] == "fault,detectable,cell"

    def test_report_csv_lists_non_detectable_faults(self):
        # All bypassed: f_iout is not detectable and has no cell.
        csv_text = render_report(analyze_configuration(3, "I", 0), "csv")
        assert "f_iout,no," in csv_text.splitlines()

    def test_matrix_render_identity(self):
        report = IsolabilityReport(
            frozenset({"fa", "fb"}),
            (frozenset({"fa"}), frozenset({"fb"})),
            frozenset(),
        )
        text = render_matrix(partition_matrix(report))
        lines = text.strip().splitlines()
        assert lines[1].count("•") == 1 and lines[2].count("•") == 1

    def test_matrix_render_block(self):
        report = analyze_configuration(3, "II", 2)
        matrix = partition_matrix(report)
        idx = {f: i for i, f in enumerate(matrix.faults)}
        assert matrix.entries[idx["f_cell,3"]][idx["f_vcell,3"]]
        assert not matrix.entries[idx["f_cell,1"]][idx["f_vcell,1"]]


def hand_report(later: list[CompactIsolability]) -> SweepReport:
    """Setup I swept at n = 1 + len(later): fixed k = 0 and 1, then ``later``."""
    setup = bimmc.SETUPS["I"]
    cells = {
        ("I", 0): CompactIsolability(frozenset({"f_iout"}), None, (PAIR,), {}),
        ("I", 1): CompactIsolability(frozenset(), (PAIR,), (PAIR,), {"f_iout": None}),
    }
    cells.update((("I", k), cell) for k, cell in enumerate(later, start=2))
    return SweepReport(1 + len(later), (setup,), cells)


class TestMarkdownColumnGroups:
    """k >= 2 share one ">1 ins." column group only where every k agrees."""

    SAME = CompactIsolability(frozenset(), (PAIR,), (PAIR,), {"f_iout": None})
    ALL_INSERTED = CompactIsolability(frozenset(), (PAIR,), None, {"f_iout": None})

    @staticmethod
    def header(report):
        return render(report, "md").splitlines()[0].strip("| ").split(" | ")

    @pytest.mark.parametrize("k3", [
        CompactIsolability(frozenset(), (), None, {"f_iout": None}),
        CompactIsolability(frozenset({"f_iout"}), (PAIR,), None, {"f_iout": None}),
        CompactIsolability(frozenset(), (PAIR,), None, {"f_iout": "insertion"}),
    ], ids=["insertion", "non-detectable", "pack-membership"])
    def test_differing_cells_get_a_column_group_each(self, k3):
        assert self.header(hand_report([self.SAME, k3]))[4:] == [
            "non-I B (0 ins.)", "non-I B (1 ins.)", "non-I I (1 ins.)",
            "non-I B (2 ins.)", "non-I I (2 ins.)", "non-I B (3 ins.)", "non-I I (3 ins.)",
        ]

    def test_differing_bypass_splits(self):
        other = CompactIsolability(frozenset(), (PAIR,), (), {"f_iout": None})
        header = self.header(hand_report([self.SAME, other, self.ALL_INSERTED]))
        assert "non-I B (4 ins.)" in header
        assert "non-I B (>1 ins.)" not in header

    def test_cells_differing_only_where_bypass_is_absent_merge(self):
        report = hand_report([self.SAME, self.ALL_INSERTED])
        assert self.header(report)[-2:] == ["non-I B (>1 ins.)", "non-I I (>1 ins.)"]
        # The merged bypass column shows the k = 2 sets, not k = 3's "n/a".
        row = render(report, "md").splitlines()[2]
        assert row.endswith("| {f_cell,k, f_vcell,k} | {f_cell,k, f_vcell,k} |")


def reference_render_matrix(matrix: IsolabilityMatrix) -> str:
    # One padded mark per entry; render_matrix must give the same text.
    width = max((len(f) for f in matrix.faults), default=0)
    lines = [" " * (width + 2) + " ".join(f.ljust(width) for f in matrix.faults)]
    for fault, row in zip(matrix.faults, matrix.entries):
        marks = " ".join(("•" if entry else "·").ljust(width) for entry in row)
        lines.append(fault.ljust(width + 2) + marks)
    return "\n".join(lines) + "\n"


class TestRenderMatrix:
    @given(reports())
    def test_random_reports_match_reference(self, report):
        matrix = partition_matrix(report)
        assert render_matrix(matrix) == reference_render_matrix(matrix)

    @pytest.mark.parametrize("report", EDGE_REPORTS.values(), ids=EDGE_REPORTS.keys())
    def test_edge_reports_match_reference(self, report):
        matrix = partition_matrix(report)
        assert render_matrix(matrix) == reference_render_matrix(matrix)

    def test_asymmetric_matrix_matches_reference(self):
        text = render_matrix(ASYMMETRIC_MATRIX)
        assert text == reference_render_matrix(ASYMMETRIC_MATRIX)
        assert [line.count("•") for line in text.splitlines()[1:]] == [2, 0, 3]

    @given(matrices())
    def test_random_matrices_match_reference(self, matrix):
        assert render_matrix(matrix) == reference_render_matrix(matrix)

    @given(models())
    def test_pairwise_oracle_matrices_match_reference(self, model):
        matrix = isolability_matrix(model)
        assert render_matrix(matrix) == reference_render_matrix(matrix)

    def test_bimmc_configuration_matches_reference(self):
        matrix = partition_matrix(analyze_configuration(16, "II", 5))
        assert render_matrix(matrix) == reference_render_matrix(matrix)


class TestFullEnumeration:
    def test_every_raw_configuration_matches_reduced(self):
        assert full_enumeration_check(2, "II") == 16

    def test_representative_choice_does_not_matter_up_to_n4(self):
        # n=3 over all setups is covered by the acceptance gate.
        assert full_enumeration_check(4, "II") == 256

    @pytest.mark.parametrize("n, setup, count", [
        (16, "I", 40), (16, "II", 40), (16, "III", 40), (16, "IV", 40), (32, "IV", 8),
    ])
    def test_sampled_raw_configurations_match_reduced(self, n, setup, count):
        # 4^n raw configurations are out of reach here, so a fixed-seed sample
        # goes through full_enumeration_check's route: each canonical report
        # must equal that of its reduced class's representative.
        setup_obj = bimmc.sensor_setup(setup)
        switched, catalogue = bimmc.generate(n, setup_obj)
        expected = pipeline._reduced_results(
            setup_obj, switched, catalogue, pipeline.canonical_report
        )
        classes = structural_mode_classes(switched.template)
        rng = random.Random(f"{n}-{setup}")
        for _ in range(count):
            inserted = set(rng.sample(range(n), rng.randint(0, n)))
            config = Configuration(tuple(
                rng.choice(sorted(classes[0] if i in inserted else classes[1]))
                for i in range(n)
            ))
            report = pipeline._analyze(switched, catalogue, config)
            assert (pipeline.canonical_report(report, config, classes)
                    == expected[canonicalize(classes, config)]), config.modes


class TestErrorContext:
    def test_sweep_error_names_the_configuration(self, monkeypatch):
        cross = frozenset({"f_vcell,1", "f_vcell,2"})
        monkeypatch.setattr(
            pipeline, "isolability_partition",
            lambda model: IsolabilityReport(cross, (cross,), frozenset()),
        )
        with pytest.raises(InternalConsistencyError) as excinfo:
            pipeline.sweep(2, ["III"])
        message = str(excinfo.value)
        assert "spans submodules" in message
        for context in ("setup III", "n=2", "class counts (0, 2)", "modes bypass1,bypass1"):
            assert context in message

    def test_enumeration_error_names_the_raw_configuration(self, monkeypatch):
        # n=2 has three reduced classes; the fourth analysis is the first
        # raw configuration, forward,forward.
        calls = []
        real = pipeline.isolability_partition

        def failing_on_fourth(model):
            calls.append(model)
            if len(calls) == 4:
                raise InternalConsistencyError("forced")
            return real(model)

        monkeypatch.setattr(pipeline, "isolability_partition", failing_on_fourth)
        with pytest.raises(InternalConsistencyError) as excinfo:
            pipeline.full_enumeration_check(2, "II")
        message = str(excinfo.value)
        for context in ("setup II", "n=2", "class counts (2, 0)", "modes forward,forward"):
            assert context in message
        assert message.endswith("forced")


class TestSweepInvariants:
    @pytest.mark.parametrize("n", [1, 2])
    def test_non_detectable_pattern_for_small_packs(self, n):
        report = sweep(n)
        for (setup, k), cell in report.cells.items():
            expected = frozenset({"f_iout"}) if k == 0 else frozenset()
            assert cell.non_detectable == expected
