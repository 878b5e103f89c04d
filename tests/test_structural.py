import itertools
import random

import pytest
from hypothesis import given, strategies as st

from switchdiag import bimmc, structural
from switchdiag.errors import InputError, InternalConsistencyError
from switchdiag.oraclecheck import (
    _oracle_matching_size,
    definitional_dm_decompose,
    is_isolable,
    isolability_matrix,
    oracle_partition,
    oracle_plus_membership,
    random_model,
    remove_equation,
)
from switchdiag.structural import (
    IsolabilityMatrix,
    IsolabilityReport,
    StructuralModel,
    dm_decompose,
    isolability_partition,
    max_matching,
    partition_matrix,
    plus_part,
)
from switchdiag.switched import (
    Configuration,
    ReducedConfiguration,
    instantiate,
    representative_configuration,
)

from .conftest import EDGE_REPORTS, models, reports


def model_of(incidence, faults=None, unknowns=None):
    fault_of = {eq: f for f, eq in (faults or {}).items()}
    if unknowns is None:
        unknowns = sorted(set().union(*incidence.values()))
    return StructuralModel(
        rows=tuple((e, v, fault_of.get(e)) for e, v in incidence.items()), unknowns=unknowns
    )


class TestModelValidation:
    def test_rejects_duplicate_equations(self):
        with pytest.raises(InputError):
            StructuralModel((("e1", {"x"}, None), ("e1", {"x"}, None)), ("x",))

    def test_rejects_undeclared_unknowns(self):
        with pytest.raises(InputError, match="undeclared unknowns"):
            StructuralModel((("e1", {"y"}, None),), ("x",))

    def test_rejects_one_fault_on_two_equations(self):
        # A row holds at most one fault, so a fault named on two rows is the
        # only way left to break "each fault enters exactly one equation".
        with pytest.raises(InputError, match=r"duplicate fault identifiers: \['f1'\]"):
            StructuralModel((("e1", {"x"}, "f1"), ("e2", {"x"}, "f1")), ("x",))

    def test_empty_incidence_is_legal(self):
        model = model_of({"e1": set()})
        assert model.incidence["e1"] == frozenset()

    def test_remove_equation_drops_its_fault(self):
        model = model_of({"e1": {"x"}, "e2": {"x"}}, {"f1": "e1"})
        reduced = remove_equation(model, "e1")
        assert reduced.equations == ("e2",)
        assert reduced.faults == ()


class TestMaxMatching:
    def test_empty_model(self):
        assert max_matching(model_of({})) == frozenset()

    def test_shared_variable(self):
        assert len(max_matching(model_of({"e1": {"x"}, "e2": {"x"}}))) == 1

    def test_complete_bipartite(self):
        xyz = {"x", "y", "z"}
        assert len(max_matching(model_of({"e1": xyz, "e2": xyz, "e3": xyz}))) == 3

    def test_deterministic_for_fixed_order(self):
        model = model_of({"e1": {"x", "y"}, "e2": {"x"}, "e3": {"y", "z"}})
        assert max_matching(model) == max_matching(model)

    def test_size_agrees_with_scipy_hopcroft_karp(self):
        # Failed searches keep their marks until one succeeds; the size must
        # still be maximum.
        rng = random.Random(31)
        for index in range(600):
            model = random_model(rng, max_equations=40, max_unknowns=40)
            assert len(max_matching(model)) == _oracle_matching_size(model), index

    @given(models(with_faults=False))
    def test_pairs_are_valid_and_injective(self, model):
        matching = max_matching(model)
        eqs = [e for e, _ in matching]
        vars_ = [x for _, x in matching]
        assert len(set(eqs)) == len(eqs)
        assert len(set(vars_)) == len(vars_)
        for e, x in matching:
            assert x in model.incidence[e]


class TestCoarseDecomposition:
    def test_two_equations_one_unknown(self):
        dm = dm_decompose(model_of({"e1": {"x"}, "e2": {"x"}}))
        assert dm.over.equations == {"e1", "e2"}
        assert dm.over.unknowns == {"x"}
        assert not dm.just.equations and not dm.under.equations

    def test_single_underdetermined_equation(self):
        dm = dm_decompose(model_of({"e1": {"x", "y"}}))
        assert dm.under.equations == {"e1"}
        assert dm.under.unknowns == {"x", "y"}

    def test_plus_part_zero_variable_equation(self):
        assert plus_part(model_of({"e1": set()})) == {"e1"}

    def test_plus_part_just_determined(self):
        assert plus_part(model_of({"e1": {"x"}})) == frozenset()

    def test_plus_part_excludes_disconnected_pair(self):
        model = model_of({"e1": {"x"}, "e2": {"x"}, "e3": {"y"}})
        assert plus_part(model) == {"e1", "e2"}

    @given(models(with_faults=False))
    def test_part_size_relations(self, model):
        dm = dm_decompose(model)
        assert len(dm.just.equations) == len(dm.just.unknowns)
        if dm.over.equations:
            assert len(dm.over.equations) > len(dm.over.unknowns)
        if dm.under.equations or dm.under.unknowns:
            assert len(dm.under.equations) < len(dm.under.unknowns)
        all_eqs = dm.under.equations | dm.just.equations | dm.over.equations
        assert all_eqs == set(model.equations)
        all_vars = dm.under.unknowns | dm.just.unknowns | dm.over.unknowns
        assert all_vars == set(model.unknowns)

    @given(models(with_faults=False), st.randoms(use_true_random=False))
    def test_input_order_does_not_matter(self, model, rng):
        eqs = list(model.equations)
        vars_ = list(model.unknowns)
        rng.shuffle(eqs)
        rng.shuffle(vars_)
        shuffled = StructuralModel(tuple((e, model.incidence[e], None) for e in eqs), tuple(vars_))
        a, b = dm_decompose(model), dm_decompose(shuffled)
        assert (a.under, a.just, a.over) == (b.under, b.just, b.over)
        assert set(a.fine_blocks) == set(b.fine_blocks)

    @given(models(with_faults=False))
    def test_removal_never_grows_plus_part(self, model):
        plus = plus_part(model)
        for eq in model.equations:
            assert plus_part(remove_equation(model, eq)) <= plus

    @given(models(with_faults=False))
    def test_agrees_with_matching_size_oracle(self, model):
        over = dm_decompose(model).over.equations
        for eq in model.equations:
            assert (eq in over) == oracle_plus_membership(model, eq)

    def test_random_model_oracle_classification(self):
        # 8 equations / 6 unknowns, classification checked per equation.
        rng = random.Random(20240)
        for _ in range(50):
            model = random_model(rng, max_equations=8, max_unknowns=6)
            over = dm_decompose(model).over.equations
            for eq in model.equations:
                assert (eq in over) == oracle_plus_membership(model, eq)


class TestFineBlocks:
    @given(models(with_faults=False, max_equations=7, max_unknowns=5))
    def test_blocks_realize_the_removal_definition(self, model):
        dm = dm_decompose(model)
        block_of = {e: i for i, b in enumerate(dm.fine_blocks) for e in b}
        for ei, ej in itertools.permutations(sorted(dm.over.equations), 2):
            same_block = block_of[ei] == block_of[ej]
            expelled = ei not in plus_part(remove_equation(model, ej))
            assert same_block == expelled

    def test_blocks_partition_the_over_part(self):
        # Two equations over one unknown lose all redundancy when either is
        # removed (one block); three equations over one unknown keep surplus
        # after any single removal, so they are pairwise isolable.
        model = model_of({"e1": {"x"}, "e2": {"x"}, "e3": {"y"}, "e4": {"y"}, "e5": {"y"}})
        dm = dm_decompose(model)
        assert set(dm.fine_blocks) == {
            frozenset({"e1", "e2"}),
            frozenset({"e3"}),
            frozenset({"e4"}),
            frozenset({"e5"}),
        }


def sparse_model(rng: random.Random, n_eq: int) -> StructuralModel:
    """Random sparse model: 0-3 unknowns per equation, about as many unknowns as equations."""
    unknowns = [f"x{j:03d}" for j in range(max(1, int(n_eq * rng.uniform(0.6, 1.1))))]
    incidence = {f"e{i:03d}": rng.sample(unknowns, rng.randint(0, min(3, len(unknowns))))
                 for i in range(n_eq)}
    return model_of(incidence, unknowns=unknowns)


def chain_model(length: int, extra_tail: bool = False) -> StructuralModel:
    """e_i = {x_i, x_{i+1}}, then z = {x_0} (and zz = {x_length}): one long augmenting path."""
    incidence = {f"e{i:04d}": {f"x{i:04d}", f"x{i + 1:04d}"} for i in range(length)}
    incidence["z"] = {"x0000"}
    if extra_tail:
        incidence["zz"] = {f"x{length:04d}"}
    return model_of(incidence)


def partition_from_decomposition(model, dm):
    """Isolability read off a decomposition: a fault is detectable when its
    equation is overdetermined, and faults group by their equations' blocks."""
    block_of = {eq: i for i, block in enumerate(dm.fine_blocks) for eq in block}
    detectable = frozenset(f for f in model.faults if model.fault_map[f] in dm.over.equations)
    cells = {}
    for f in detectable:
        cells.setdefault(block_of[model.fault_map[f]], set()).add(f)
    partition = tuple(sorted(map(frozenset, cells.values()), key=sorted))
    return IsolabilityReport(detectable, partition, frozenset(model.faults) - detectable)


class TestAgainstDefinitionalReference:
    """The incremental fine-block pass equals literal removal and re-decomposition."""

    def test_random_sparse_models(self):
        rng = random.Random(7)
        for index in range(40):
            model = sparse_model(rng, rng.randint(1, 300))
            assert dm_decompose(model) == definitional_dm_decompose(model), index

    def test_random_dense_models(self):
        # Dense models have several exposed equations whose alternating paths
        # meet.  A block rooted where they meet holds no exposed equation, so
        # such a model has more blocks than surplus equations.
        rng = random.Random(2024)
        merging = 0
        for index in range(1000):
            model = random_model(rng, max_equations=40, max_unknowns=30)
            dm = dm_decompose(model)
            assert dm == definitional_dm_decompose(model), index
            merging += len(dm.fine_blocks) > len(dm.over.equations) - len(dm.over.unknowns)
        assert merging >= 250

    def test_diamond_meeting_point_is_its_own_block(self):
        # The greedy matching pairs mid1-x1, mid2-x2 and shared-y, leaving
        # top1 and top2 exposed.  Their alternating paths run through mid1
        # and mid2 and meet at ``shared``, which neither dominates: removing
        # top1 also expels mid1, while removing ``shared`` expels only itself.
        model = model_of({
            "mid1": {"x1", "y"}, "mid2": {"x2", "y"}, "shared": {"y"},
            "top1": {"x1"}, "top2": {"x2"},
        })
        dm = dm_decompose(model)
        assert dm.fine_blocks == (
            frozenset({"mid1", "top1"}), frozenset({"mid2", "top2"}), frozenset({"shared"}),
        )
        assert dm == definitional_dm_decompose(model)

    def test_random_models_over_part_matches_oracle(self):
        # The scipy matching-size oracle on 120-equation models.
        rng = random.Random(11)
        for _ in range(3):
            model = sparse_model(rng, 120)
            over = dm_decompose(model).over.equations
            for eq in model.equations:
                assert (eq in over) == oracle_plus_membership(model, eq)

    @pytest.mark.parametrize("setup", bimmc.SETUPS)
    def test_matching_size_oracle_at_n16(self, setup):
        switched, _ = bimmc.generate(16, setup)
        config = representative_configuration(switched, ReducedConfiguration((8, 8)))
        model = instantiate(switched, config)
        over = dm_decompose(model).over.equations
        for eq in model.equations:
            assert (eq in over) == oracle_plus_membership(model, eq), eq

    @pytest.mark.parametrize("setup", bimmc.SETUPS)
    def test_oracle_partition_at_n4(self, setup):
        switched, _ = bimmc.generate(4, setup)
        for k in range(5):
            config = representative_configuration(switched, ReducedConfiguration((k, 4 - k)))
            model = instantiate(switched, config)
            assert oracle_partition(model) == isolability_partition(model), k

    @pytest.mark.parametrize("setup", bimmc.SETUPS)
    def test_every_reduced_configuration_at_n16(self, setup):
        switched, _ = bimmc.generate(16, setup)
        for k in range(17):
            config = representative_configuration(switched, ReducedConfiguration((k, 16 - k)))
            model = instantiate(switched, config)
            reference = definitional_dm_decompose(model)
            assert dm_decompose(model) == reference, k
            assert isolability_partition(model) == partition_from_decomposition(model, reference), k

    def test_half_inserted_n64_setup_iv(self):
        switched, _ = bimmc.generate(64, "IV")
        model = instantiate(switched, Configuration(("forward",) * 32 + ("bypass1",) * 32))
        dm = dm_decompose(model)
        assert len(dm.fine_blocks) == 226
        reference = definitional_dm_decompose(model)
        assert dm == reference
        report = isolability_partition(model)
        assert report == partition_from_decomposition(model, reference)
        assert isolability_matrix(model) == partition_matrix(report)

    @pytest.mark.parametrize("setup", bimmc.SETUPS)
    def test_random_configurations_at_n64(self, setup):
        # The reference shares no code with the core, so a fault in the
        # matching or the sweeps cannot sit on both sides of the comparison.
        switched, _ = bimmc.generate(64, setup)
        rng = random.Random(f"n64-{setup}")
        for index in range(3):
            config = Configuration(tuple(rng.choice(bimmc.MODES) for _ in range(64)))
            model = instantiate(switched, config)
            reference = definitional_dm_decompose(model)
            assert dm_decompose(model) == reference, index
            assert isolability_partition(model) == partition_from_decomposition(model, reference)


class TestLongAugmentingPaths:
    def test_chain_matches_without_recursion_limit(self):
        model = chain_model(3000)
        assert len(max_matching(model)) == 3001
        dm = dm_decompose(model)
        assert not dm.over.equations
        assert len(dm.just.equations) == 3001

    def test_chain_with_surplus_is_one_fine_block(self):
        model = chain_model(3000, extra_tail=True)
        dm = dm_decompose(model)
        assert dm.fine_blocks == (frozenset(model.equations),)
        assert len(dm.over.equations) == 3002

    def test_chain_with_exposed_unknown_is_all_under(self):
        # No z: one unknown stays exposed, and the under sweep from it runs
        # the whole chain.
        incidence = {f"e{i:04d}": {f"x{i:04d}", f"x{i + 1:04d}"} for i in range(3000)}
        model = model_of(incidence)
        dm = dm_decompose(model)
        assert dm.under.equations == frozenset(model.equations)
        assert dm.under.unknowns == frozenset(model.unknowns)
        assert len(dm.under.unknowns) == 3001

    def test_many_augmentations(self):
        # The greedy pass matches each a_i to x_i and leaves every b_i
        # exposed, so the matching makes 2 * 10^4 augmentations, each from
        # b_i through x_i and a_i to y_i.
        pairs = 20_000
        incidence = {}
        for i in range(pairs):
            incidence[f"a{i}"] = {f"x{i}", f"y{i}"}
            incidence[f"b{i}"] = {f"x{i}"}
        model = model_of(incidence)
        assert len(max_matching(model)) == 2 * pairs == _oracle_matching_size(model)
        dm = dm_decompose(model)
        assert dm.just.equations == frozenset(model.equations)
        assert dm.just.unknowns == frozenset(model.unknowns)


class TestInternalConsistency:
    def test_non_maximum_matching_is_refused(self, monkeypatch):
        # Dropping one pair leaves its equation and unknown exposed and
        # adjacent: an augmenting path the over sweep must meet.
        matching = structural._matching

        def drop_one_pair(model):
            eq_match, var_match = matching(model)
            x = eq_match[0]
            eq_match[0] = var_match[x] = -1
            return eq_match, var_match

        model = model_of({"e1": {"x1"}, "e2": {"x1", "x2"}, "e3": {"x2"}})
        monkeypatch.setattr(structural, "_matching", drop_one_pair)
        with pytest.raises(InternalConsistencyError, match="matching not maximum"):
            dm_decompose(model)
        with pytest.raises(InternalConsistencyError, match="matching not maximum"):
            isolability_partition(model)


class TestDetectability:
    def test_residual_equation_fault_detectable(self):
        report = isolability_partition(model_of({"e1": set()}, {"f": "e1"}))
        assert report.detectable == {"f"} and not report.non_detectable

    def test_fault_outside_plus_part_not_detectable(self):
        report = isolability_partition(model_of({"e1": {"x"}}, {"f": "e1"}))
        assert report.non_detectable == {"f"} and not report.detectable

    @given(models())
    def test_definition_direct(self, model):
        # A fault is detectable exactly when its equation is overdetermined.
        over = dm_decompose(model).over.equations
        report = isolability_partition(model)
        for f in model.faults:
            assert (f in report.detectable) == (model.fault_map[f] in over)
        assert report.detectable | report.non_detectable == set(model.faults)


class TestIsolability:
    def test_identical_faults_rejected(self):
        model = model_of({"e1": {"x"}, "e2": {"x"}}, {"f1": "e1", "f2": "e2"})
        with pytest.raises(InputError):
            is_isolable(model, "f1", "f1")

    def test_undeclared_fault_rejected(self):
        model = model_of({"e1": {"x"}}, {"f1": "e1"})
        with pytest.raises(InputError):
            is_isolable(model, "f1", "nope")

    def test_disjoint_component_removal_cannot_affect(self):
        model = model_of(
            {"e1": {"x"}, "e2": {"x"}, "e3": set()},
            {"f1": "e1", "f3": "e3"},
        )
        assert is_isolable(model, "f1", "f3")

    def test_single_detectable_fault_is_singleton_cell(self):
        report = isolability_partition(model_of({"e1": set()}, {"f": "e1"}))
        assert report.non_isolable_partition == (frozenset({"f"}),)

    @given(models())
    def test_symmetric_on_detectable_faults(self, model):
        detectable = isolability_partition(model).detectable
        for fi, fj in itertools.combinations(sorted(detectable), 2):
            assert is_isolable(model, fi, fj) == is_isolable(model, fj, fi)

    @given(models())
    def test_partition_matches_pairwise_definition(self, model):
        report = isolability_partition(model)
        cell_of = {f: i for i, c in enumerate(report.non_isolable_partition) for f in c}
        for fi, fj in itertools.combinations(sorted(report.detectable), 2):
            assert (cell_of[fi] == cell_of[fj]) == (not is_isolable(model, fi, fj))

    @given(models(max_equations=7, max_unknowns=5))
    def test_partition_matches_oracle_partition(self, model):
        actual = isolability_partition(model)
        expected = oracle_partition(model)
        assert actual == expected


class TestIsolabilityMatrix:
    def test_fully_isolable_gives_identity(self):
        model = model_of(
            {"e1": {"x"}, "e2": {"x"}, "e3": {"y"}, "e4": {"y"}},
            {"f1": "e1", "f3": "e3"},
        )
        assert isolability_matrix(model).entries == ((True, False), (False, True))

    def test_diagonal_always_true(self):
        model = model_of({"e1": set()}, {"f": "e1"})
        matrix = isolability_matrix(model)
        assert matrix.entries == ((True,),)

    @given(models())
    def test_matches_partition_induced_matrix(self, model):
        assert isolability_matrix(model) == partition_matrix(isolability_partition(model))


def reference_partition_matrix(report: IsolabilityReport) -> IsolabilityMatrix:
    # One comparison per fault pair; partition_matrix must equal it.
    order = tuple(sorted(report.detectable))
    cell_index = {f: i for i, cell in enumerate(report.non_isolable_partition) for f in cell}
    entries = tuple(
        tuple(cell_index[fi] == cell_index[fj] for fj in order)
        for fi in order
    )
    return IsolabilityMatrix(order, entries)


class TestPartitionMatrix:
    @given(reports())
    def test_random_reports_match_reference(self, report):
        assert partition_matrix(report) == reference_partition_matrix(report)

    @pytest.mark.parametrize("report", EDGE_REPORTS.values(), ids=EDGE_REPORTS.keys())
    def test_edge_reports_match_reference(self, report):
        assert partition_matrix(report) == reference_partition_matrix(report)

    def test_bimmc_configuration_matches_reference(self):
        switched, _ = bimmc.generate(16, "IV")
        config = Configuration(("forward", "bypass1", "backward", "bypass2") * 4)
        report = isolability_partition(instantiate(switched, config))
        assert partition_matrix(report) == reference_partition_matrix(report)

    @pytest.mark.parametrize("entries", [((True,),), ((True,), (False, True))])
    def test_matrix_must_be_square(self, entries):
        with pytest.raises(InternalConsistencyError, match="square"):
            IsolabilityMatrix(("fa", "fb"), entries)

    @given(reports())
    def test_cell_of_every_fault(self, report):
        for cell in report.non_isolable_partition:
            for fault in cell:
                assert report.cell_of(fault) == cell
        for fault in report.non_detectable:
            with pytest.raises(InputError, match="not detectable"):
                report.cell_of(fault)


class TestOracle:
    def test_both_redundant(self):
        model = model_of({"e1": {"x"}, "e2": {"x"}})
        assert oracle_plus_membership(model, "e1")
        assert oracle_plus_membership(model, "e2")

    def test_just_determined_not_redundant(self):
        assert not oracle_plus_membership(model_of({"e1": {"x"}}), "e1")

    def test_unknown_equation_rejected(self):
        with pytest.raises(InputError):
            oracle_plus_membership(model_of({"e1": {"x"}}), "e9")
