import copy
import itertools
import json
import pickle
import random
import re
import sys
import threading

import pytest
from hypothesis import given, strategies as st

from switchdiag import bimmc
from switchdiag.errors import InputError
from switchdiag.modelio import switched_model_from_dict, switched_model_to_dict
from switchdiag.pipeline import compact
from switchdiag.structural import IsolabilityReport, isolability_partition
from switchdiag.switched import (
    Configuration,
    GlobalEquation,
    ModeGuardedEquation,
    ReducedConfiguration,
    SubmoduleTemplate,
    SwitchedModel,
    canonicalize,
    enumerate_reduced_configurations,
    instantiate,
    parse_configuration,
    representative_configuration,
    structural_mode_classes,
)
from .by_name import instantiate_by_name


@pytest.fixture(scope="module")
def fb_switched():
    switched, _ = bimmc.generate(3, "I")
    return switched


@pytest.fixture(scope="module")
def fb_classes(fb_switched):
    return structural_mode_classes(fb_switched.template)


def random_template(rng: random.Random) -> SubmoduleTemplate:
    n_modes = rng.randint(1, 4)
    modes = tuple(f"m{i}" for i in range(1, n_modes + 1))
    locals_ = ("a", "b", "c")
    equations = []
    for i in range(1, rng.randint(2, 5)):
        variants = {
            m: frozenset(x for x in locals_ if rng.random() < 0.6) for m in modes
        }
        equations.append(ModeGuardedEquation(f"e{i}", variants))
    return SubmoduleTemplate(modes, tuple(equations), locals_)


def _one_equation_template(modes: tuple[str, ...], letters: dict[str, str]) -> SubmoduleTemplate:
    return SubmoduleTemplate(
        modes, (ModeGuardedEquation.uniform("e", ("a",), modes),), ("a",), letters
    )


def three_class_switched(n: int) -> SwitchedModel:
    """Toy template whose three modes are structurally distinct."""
    template = SubmoduleTemplate(
        modes=("m1", "m2", "m3"),
        equations=(
            ModeGuardedEquation(
                "e1",
                {
                    "m1": frozenset({"a", "b"}),
                    "m2": frozenset({"a"}),
                    "m3": frozenset(),
                },
            ),
        ),
        local_unknowns=("a", "b"),
    )
    return SwitchedModel(template, n, (), ())


class TestModeClasses:
    def test_full_bridge_collapses_to_insertion_and_bypass(self, fb_switched):
        classes = structural_mode_classes(fb_switched.template)
        assert classes == (
            frozenset({"forward", "backward"}),
            frozenset({"bypass1", "bypass2"}),
        )

    def test_all_distinct_modes_give_singletons(self):
        template = SubmoduleTemplate(
            modes=("m1", "m2"),
            equations=(
                ModeGuardedEquation(
                    "e1", {"m1": frozenset({"a"}), "m2": frozenset({"a", "b"})}
                ),
            ),
            local_unknowns=("a", "b"),
        )
        assert structural_mode_classes(template) == (
            frozenset({"m2"}),
            frozenset({"m1"}),
        )

    def test_classes_computed_once_per_template(self, fb_switched):
        template = fb_switched.template
        assert structural_mode_classes(template) is structural_mode_classes(template)

    def test_random_templates_match_pairwise_comparison(self):
        rng = random.Random(7)
        for _ in range(100):
            template = random_template(rng)
            classes = structural_mode_classes(template)
            for m1, m2 in itertools.combinations(template.modes, 2):
                same_structure = all(
                    eq.variants[m1] == eq.variants[m2] for eq in template.equations
                )
                same_class = any(m1 in c and m2 in c for c in classes)
                assert same_structure == same_class


class TestInstantiate:
    def test_equation_count_setup_one(self, fb_switched):
        config = Configuration(("forward", "backward", "bypass2"))
        assert len(instantiate(fb_switched, config).equations) == 32

    def test_equation_count_setup_four_single_module(self):
        switched, _ = bimmc.generate(1, "IV")
        model = instantiate(switched, Configuration(("forward",)))
        assert len(model.equations) == 14

    def test_bypass_decouples_output_current(self, fb_switched):
        model = instantiate(fb_switched, Configuration(("forward", "bypass1", "backward")))
        assert "i_out" in model.incidence["e10,1"]
        assert "i_out" not in model.incidence["e10,2"]
        assert "i_out" in model.incidence["e10,3"]
        assert "v_cell,2" not in model.incidence["e9,2"]

    def test_unknown_mode_rejected(self, fb_switched):
        with pytest.raises(InputError, match="unknown mode"):
            instantiate(fb_switched, Configuration(("forward", "forward", "sideways")))

    def test_wrong_length_rejected(self, fb_switched):
        with pytest.raises(InputError, match="length"):
            instantiate(fb_switched, Configuration(("forward",)))

    def test_within_class_mode_swap_gives_identical_model(self, fb_switched):
        base = instantiate(fb_switched, Configuration(("forward", "bypass1", "forward")))
        swapped = instantiate(fb_switched, Configuration(("backward", "bypass2", "forward")))
        assert base == swapped


def assert_same_model(got, want):
    """Field by field, including the integer adjacency."""
    assert got.rows == want.rows
    assert got.unknowns == want.unknowns
    assert got.equations == want.equations
    assert got.incidence == want.incidence
    assert got.faults == want.faults
    assert got.fault_map == want.fault_map
    adj = got._index
    assert adj == want._index
    # Rows ascending and within the unknown count, which sizes the reverse
    # adjacency of the under sweep.
    assert all(row == sorted(set(row)) for row in adj)
    assert {j for row in adj for j in row} <= set(range(len(got.unknowns)))


def assert_reguard_matches(switched, configs):
    """Instantiate ``configs`` in order on one switched model, each against a by-name build."""
    for config in configs:
        assert_same_model(instantiate(switched, config), instantiate_by_name(switched, config.modes))


class TestReguard:
    """Later configurations re-guard the first one's model; compare with by-name builds."""

    @pytest.mark.parametrize("setup", ["I", "II", "III", "IV"])
    def test_every_reduced_configuration_n16(self, setup):
        switched, _ = bimmc.generate(16, setup)
        configs = [
            representative_configuration(switched, reduced)
            for reduced in enumerate_reduced_configurations(switched)
        ]
        assert_reguard_matches(switched, configs)

    @pytest.mark.parametrize("setup", ["I", "II", "III", "IV"])
    def test_every_raw_configuration_n3(self, setup):
        switched, _ = bimmc.generate(3, setup)
        configs = [Configuration(m) for m in itertools.product(bimmc.MODES, repeat=3)]
        assert len(configs) == 64
        assert_reguard_matches(switched, configs)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_seeded_raw_configurations_n64_shuffled(self, seed):
        rng = random.Random(seed)
        switched, _ = bimmc.generate(64, "IV")
        configs = [Configuration(tuple(rng.choices(bimmc.MODES, k=64))) for _ in range(50)]
        configs.append(Configuration(("forward",) * 32 + ("bypass1",) * 32))
        rng.shuffle(configs)
        assert_reguard_matches(switched, configs)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_three_class_model_every_order(self, n):
        modes = three_class_switched(n).template.modes
        configs = [Configuration(m) for m in itertools.product(modes, repeat=n)]
        for first in range(len(configs)):
            switched = three_class_switched(n)
            assert_reguard_matches(switched, configs[first:] + configs[:first])

    def test_random_templates_with_global_equations(self):
        rng = random.Random(11)
        for _ in range(40):
            template = random_template(rng)
            n = rng.randint(1, 3)
            switched = SwitchedModel(
                template,
                n,
                (GlobalEquation("g1", frozenset({"s"}), frozenset({"a"}), fault="f_g"),),
                ("s",),
            )
            configs = [Configuration(m) for m in itertools.product(template.modes, repeat=n)]
            rng.shuffle(configs)
            assert_reguard_matches(switched, configs)

    def test_threads_sharing_one_switched_model(self):
        # Threads race to build the first configuration and re-guard from it.
        switched, _ = bimmc.generate(8, "III")
        rng = random.Random(3)
        configs = [Configuration(tuple(rng.choices(bimmc.MODES, k=8))) for _ in range(12)]
        results: dict[int, list] = {}

        def work(t):
            order = configs[t:] + configs[:t]
            results[t] = [(c, instantiate(switched, c)) for c in order for _ in range(3)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(results) == list(range(6))
        for pairs in results.values():
            for config, model in pairs:
                assert_same_model(model, instantiate_by_name(switched, config.modes))

    def test_first_configuration_leaves_equality_alone(self, fb_switched):
        # Neither the first model nor the patches cached by re-guarded
        # configurations take part in SwitchedModel equality.
        parts = (fb_switched.template, 3, fb_switched.global_equations, fb_switched.shared_unknowns)
        one, other = SwitchedModel(*parts), SwitchedModel(*parts)
        config = Configuration(("forward", "bypass1", "backward"))
        instantiate(one, Configuration(("bypass2",) * 3))
        assert one == other
        assert instantiate(one, config) == instantiate(other, config)
        for modes in itertools.product(bimmc.MODES, repeat=3):
            assert instantiate(one, Configuration(modes)) == instantiate_by_name(one, modes)
        assert one._first[2] and not other._first[2]
        assert one == other
        assert instantiate(one, config) == instantiate(other, config)


def fresh(switched: SwitchedModel) -> SwitchedModel:
    """The same switched model with no first configuration built yet."""
    return SwitchedModel(
        switched.template, switched.n, switched.global_equations, switched.shared_unknowns
    )


def assert_first_build_matches(switched, modes):
    """The first, offset-built model equals the by-name one, or both refuse alike."""
    try:
        want = instantiate_by_name(fresh(switched), modes)
    except InputError as exc:
        with pytest.raises(InputError) as refused:
            instantiate(fresh(switched), Configuration(modes))
        assert str(refused.value) == str(exc)
        return str(exc)
    got = instantiate(fresh(switched), Configuration(modes))
    # Built with its adjacency, which is never derived from names.
    assert "_index" in vars(got)
    assert_same_model(got, want)
    return None


# Names that instance suffixes can reach: bare, suffixed, zero-padded and
# holding a comma themselves.
_NAMES = ("a", "b", "a,1", "a,2", "a,01", "a,1,2", "s", "s,1", "e", "e,1", "e,0", "e,01", "e,1,1")


@st.composite
def switched_models(draw):
    """Small switched models whose names may collide once suffixed."""
    modes = tuple(f"m{i}" for i in range(draw(st.integers(1, 3))))
    local_unknowns = tuple(draw(st.lists(st.sampled_from(_NAMES), max_size=4)))
    shared = tuple(draw(st.lists(
        st.sampled_from([x for x in _NAMES if x not in local_unknowns]), max_size=3, unique=True
    )))
    known = sorted(set(local_unknowns) | set(shared))
    faults = st.none() | st.sampled_from(("f", "f,1", "f,2", "g"))
    incidence = st.frozensets(st.sampled_from(known), max_size=4) if known else st.just(frozenset())
    equations = tuple(
        ModeGuardedEquation(eq_id, {m: draw(incidence) for m in modes}, draw(faults))
        for eq_id in draw(st.lists(st.sampled_from(_NAMES), min_size=1, max_size=4, unique=True))
    )
    global_equations = tuple(
        GlobalEquation(
            draw(st.sampled_from(_NAMES)),
            draw(st.frozensets(st.sampled_from(shared), max_size=2) if shared else st.just(frozenset())),
            draw(st.frozensets(st.sampled_from(local_unknowns), max_size=2)
                 if local_unknowns else st.just(frozenset())),
            draw(faults),
        )
        for _ in range(draw(st.integers(0, 3)))
    )
    n = draw(st.integers(1, 3))
    switched = SwitchedModel(
        SubmoduleTemplate(modes, equations, local_unknowns), n, global_equations, shared
    )
    return switched, tuple(draw(st.lists(st.sampled_from(modes), min_size=n, max_size=n)))


class TestFlattenByOffsets:
    """The first configuration is built by offsets; the by-name build is the reference."""

    @pytest.mark.parametrize("setup", ["I", "II", "III", "IV"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_every_reduced_and_seeded_raw_configuration(self, setup, n):
        switched, _ = bimmc.generate(n, setup)
        configs = [
            representative_configuration(switched, reduced).modes
            for reduced in enumerate_reduced_configurations(switched)
        ]
        rng = random.Random(n)
        configs += [tuple(rng.choices(bimmc.MODES, k=n)) for _ in range(8)]
        for modes in configs:
            assert assert_first_build_matches(switched, modes) is None

    @given(switched_models())
    def test_random_templates(self, drawn):
        assert_first_build_matches(*drawn)

    @pytest.mark.parametrize("global_equations, shared, local_unknowns, equation_ids, message", [
        # BIMMC's own pack equation e1,0 and a zero-padded index name no instance.
        ((), (), (), None, None),
        ((GlobalEquation("e1,01", frozenset()),), (), (), None, None),
        ((GlobalEquation("e1,3", frozenset()),), (), (), None,
         "duplicate equation identifiers: ['e1,3']"),
        ((GlobalEquation("e1,4", frozenset()),), (), (), None, None),
        ((GlobalEquation("g", frozenset()), GlobalEquation("g", frozenset())), (), (), None,
         "duplicate equation identifiers: ['g']"),
        # A template id holding a comma suffixes past its own comma.
        ((), (), (), ("e1", "e1,1"), None),
        ((GlobalEquation("e1,1,2", frozenset()),), (), (), ("e1", "e1,1"),
         "duplicate equation identifiers: ['e1,1,2']"),
        ((), ("v_p,2",), (), None, "duplicate unknown identifiers: ['v_p,2']"),
        ((), ("v_p,02",), (), None, None),
        ((), (), ("v_p",), None,
         "duplicate unknown identifiers: ['v_p,1', 'v_p,2', 'v_p,3']"),
        ((GlobalEquation("g", frozenset(), fault="f_Ro,3"),), (), (), None,
         "duplicate fault identifiers: ['f_Ro,3']"),
        ((GlobalEquation("g1", frozenset(), fault="f"), GlobalEquation("g2", frozenset(), fault="f")),
         (), (), None, "duplicate fault identifiers: ['f']"),
        # A repeated equation is refused before a repeated unknown or fault.
        ((GlobalEquation("e1,1", frozenset(), fault="f_Ro,1"),), ("v_p,1",), (), None,
         "duplicate equation identifiers: ['e1,1']"),
        ((GlobalEquation("g", frozenset(), fault="f_Ro,1"),), ("v_p,1",), (), None,
         "duplicate unknown identifiers: ['v_p,1']"),
    ], ids=[
        "global-e1,0", "global-e1,01", "global-e1,3", "global-e1,4-beyond-n", "global-id-twice",
        "template-id-with-comma", "global-id-of-comma-template-id", "shared-v_p,2",
        "shared-v_p,02", "template-local-twice", "global-fault-f_Ro,3", "global-fault-twice",
        "equation-before-unknown", "unknown-before-fault",
    ])
    def test_names_that_may_collide(
        self, fb_switched, global_equations, shared, local_unknowns, equation_ids, message
    ):
        template = fb_switched.template
        equations = template.equations
        if equation_ids is not None:
            e1 = equations[0]
            equations = tuple(
                ModeGuardedEquation(eq_id, e1.variants) for eq_id in equation_ids
            ) + equations[1:]
        switched = SwitchedModel(
            SubmoduleTemplate(template.modes, equations, template.local_unknowns + local_unknowns),
            3,
            fb_switched.global_equations + global_equations,
            fb_switched.shared_unknowns + shared,
        )
        for modes in (("forward", "bypass1", "backward"), ("bypass2",) * 3):
            assert assert_first_build_matches(switched, modes) == message

    def test_repeated_template_fault(self, fb_switched):
        template = fb_switched.template
        equations = tuple(
            ModeGuardedEquation(eq.id, eq.variants, "f_Ro" if eq.id == "e5" else eq.fault)
            for eq in template.equations
        )
        switched = SwitchedModel(
            SubmoduleTemplate(template.modes, equations, template.local_unknowns),
            2,
            fb_switched.global_equations,
            fb_switched.shared_unknowns,
        )
        assert assert_first_build_matches(switched, ("forward", "bypass1")) == (
            "duplicate fault identifiers: ['f_Ro,1', 'f_Ro,2']"
        )


class TestInstantiateRefusals:
    """Every refusal holds whatever was instantiated before."""

    @pytest.mark.parametrize(
        "extra_equation, extra_unknown, match",
        [
            (GlobalEquation("e1,1", frozenset({"v_out"})), None, "duplicate equation"),
            (None, "v_p,1", "duplicate unknown"),
        ],
    )
    def test_failed_first_build_is_not_kept(self, fb_switched, extra_equation, extra_unknown, match):
        switched = SwitchedModel(
            fb_switched.template,
            3,
            fb_switched.global_equations + ((extra_equation,) if extra_equation else ()),
            fb_switched.shared_unknowns + ((extra_unknown,) if extra_unknown else ()),
        )
        config = Configuration(("forward", "bypass1", "backward"))
        for _ in range(2):
            with pytest.raises(InputError, match=match):
                instantiate(switched, config)
        with pytest.raises(InputError, match=match):
            instantiate(switched, Configuration(("bypass1",) * 3))

    def test_bad_configurations_refused_after_a_first_build(self):
        switched, _ = bimmc.generate(3, "I")
        instantiate(switched, Configuration(("forward",) * 3))
        with pytest.raises(InputError, match="length"):
            instantiate(switched, Configuration(("forward",) * 2))
        with pytest.raises(InputError, match="unknown mode"):
            instantiate(switched, Configuration(("forward", "sideways", "bypass1")))

    def test_reguard_refuses_undeclared_unknown(self, fb_switched):
        # The switched model checks every variant when it is built, and a
        # variant cannot be edited afterwards, so that check is final.
        template = fb_switched.template
        e9 = next(eq for eq in template.equations if eq.id == "e9")
        with pytest.raises(TypeError):
            e9.variants["bypass1"] = frozenset({"v_sm", "v_ghost"})
        assert e9.variants["bypass1"] == frozenset({"v_sm"})
        # The equation keeps a copy of the variants it was given.
        variants = dict(e9.variants, bypass1=frozenset({"v_sm", "v_ghost"}))
        ghost = ModeGuardedEquation("e9", variants)
        variants["bypass1"] = frozenset({"v_sm"})
        assert ghost.variants["bypass1"] == frozenset({"v_sm", "v_ghost"})
        assert copy.deepcopy(ghost) == pickle.loads(pickle.dumps(ghost)) == ghost
        equations = tuple(ghost if eq is e9 else eq for eq in template.equations)
        with pytest.raises(
            InputError,
            match=re.escape("template equation 'e9' references undeclared unknowns ['v_ghost']"),
        ):
            SwitchedModel(
                SubmoduleTemplate(template.modes, equations, template.local_unknowns),
                3,
                fb_switched.global_equations,
                fb_switched.shared_unknowns,
            )


class TestCanonicalize:
    @pytest.mark.parametrize(
        "modes", [("forward", "forward", "bypass1"),
                  ("forward", "bypass1", "forward"),
                  ("bypass1", "forward", "forward")]
    )
    def test_two_inserted_regardless_of_position(self, fb_classes, modes):
        assert canonicalize(fb_classes, Configuration(modes)).class_counts[0] == 2

    def test_all_bypass(self, fb_classes):
        config = Configuration(("bypass1", "bypass2", "bypass1"))
        assert canonicalize(fb_classes, config).class_counts[0] == 0

    def test_forward_and_backward_both_count_as_inserted(self, fb_classes):
        config = Configuration(("forward", "backward", "bypass1", "bypass2"))
        reduced = canonicalize(fb_classes, config)
        assert reduced.class_counts[0] == 2
        assert reduced.class_counts == (2, 2)


class TestReducedEnumeration:
    def test_n_plus_one_classes(self, fb_switched):
        reduced = enumerate_reduced_configurations(fb_switched)
        assert [r.class_counts[0] for r in reduced] == [0, 1, 2, 3]
        assert len(list(itertools.product(bimmc.MODES, repeat=3))) == 64

    def test_single_module(self):
        switched, _ = bimmc.generate(1, "I")
        assert len(enumerate_reduced_configurations(switched)) == 2

    def test_representative_is_inserted_then_bypassed(self, fb_switched):
        config = representative_configuration(fb_switched, ReducedConfiguration((2, 1)))
        assert config.modes == ("forward", "forward", "bypass1")

    def test_multiclass_fallback_enumerates_count_vectors(self):
        reduced = enumerate_reduced_configurations(three_class_switched(2))
        assert sorted(r.class_counts for r in reduced) == [
            (0, 0, 2), (0, 1, 1), (0, 2, 0), (1, 0, 1), (1, 1, 0), (2, 0, 0),
        ]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_three_class_reduction_is_generic(self, n):
        switched = three_class_switched(n)
        classes = structural_mode_classes(switched.template)
        assert len(classes) == 3
        reduced = enumerate_reduced_configurations(switched)
        assert [r.class_counts for r in reduced] == sorted(r.class_counts for r in reduced)
        assert len(set(reduced)) == len(reduced)
        for modes in itertools.product(switched.template.modes, repeat=n):
            assert canonicalize(classes, Configuration(modes)) in reduced
        for r in reduced:
            assert canonicalize(classes, representative_configuration(switched, r)) == r

    def test_compact_refuses_three_classes(self):
        switched = three_class_switched(2)
        classes = structural_mode_classes(switched.template)
        report = IsolabilityReport(frozenset(), (), frozenset())
        with pytest.raises(InputError, match="insertion and a bypass class"):
            compact(report, Configuration(("m1", "m3")), classes)

    def test_representative_rejects_mismatched_counts(self, fb_switched):
        for counts in [(3,), (1, 1), (2, 1, 0)]:
            with pytest.raises(InputError):
                representative_configuration(fb_switched, ReducedConfiguration(counts))
        with pytest.raises(InputError, match="non-negative"):
            ReducedConfiguration((4, -1))


class TestParseConfiguration:
    def test_letters(self, fb_switched):
        config = parse_configuration(fb_switched.template, "IIB", 3)
        assert config.modes == ("forward", "forward", "bypass1")

    def test_full_names(self, fb_switched):
        config = parse_configuration(fb_switched.template, "forward,backward,bypass2", 3)
        assert config.modes == ("forward", "backward", "bypass2")

    @pytest.mark.parametrize("text, mode", [("forward", "forward"), ("B", "bypass1")])
    def test_one_name_or_letter_at_n1(self, fb_switched, text, mode):
        assert parse_configuration(fb_switched.template, text, 1).modes == (mode,)

    def test_one_name_without_letters_at_n1(self):
        template = _one_equation_template(("m1", "m2"), {})
        assert parse_configuration(template, "m2", 1).modes == ("m2",)

    def test_name_that_is_another_modes_letter_is_ambiguous(self):
        template = _one_equation_template(("A", "B"), {"A": "B"})
        with pytest.raises(InputError, match="ambiguous"):
            parse_configuration(template, "A", 1)
        assert parse_configuration(template, "B", 1).modes == ("B",)

    def test_unknown_letter(self, fb_switched):
        with pytest.raises(InputError, match="letter"):
            parse_configuration(fb_switched.template, "IXB", 3)

    def test_wrong_length(self, fb_switched):
        with pytest.raises(InputError, match="entries"):
            parse_configuration(fb_switched.template, "IB", 3)

    def test_letters_cannot_be_edited_after_the_checks(self):
        switched, _ = bimmc.generate(2, "I")
        template = switched.template
        with pytest.raises(TypeError):
            template.mode_letters["X"] = "sideways"
        with pytest.raises(InputError, match="mode letter 'X'"):
            parse_configuration(template, "XI", 2)
        # The template keeps a copy of the letters it was given.
        letters = dict(template.mode_letters)
        kept = SubmoduleTemplate(template.modes, template.equations, template.local_unknowns,
                                 letters)
        letters["X"] = "sideways"
        assert "X" not in kept.mode_letters
        assert copy.deepcopy(template) == pickle.loads(pickle.dumps(template)) == template
        data = json.loads(json.dumps(switched_model_to_dict(switched)))
        assert data["template"]["mode_letters"] == bimmc.MODE_LETTERS
        assert switched_model_from_dict(data)[0].template == template

    @pytest.mark.parametrize("letter", ["IB", "", ",", " "],
                             ids=["two-characters", "empty", "comma", "blank"])
    def test_letter_that_cannot_be_parsed_is_refused(self, letter):
        # parse_configuration could never match these: it reads one character
        # at a time, splits on commas and strips whitespace.
        with pytest.raises(InputError, match=f"mode letter {re.escape(repr(letter))} must be"):
            _one_equation_template(("forward", "bypass1"), {letter: "forward", "B": "bypass1"})


def rename_report(report, permutation):
    """permutation[new_index] = old_index (0-based); renames f_x,old -> f_x,new."""
    mapping = {old + 1: new + 1 for new, old in enumerate(permutation)}

    def map_fault(fault):
        base, sep, tail = fault.rpartition(",")
        if sep and tail.isdigit():
            return f"{base},{mapping[int(tail)]}"
        return fault

    return (
        frozenset(map_fault(f) for f in report.detectable),
        frozenset(map_fault(f) for f in report.non_detectable),
        frozenset(frozenset(map_fault(f) for f in c) for c in report.non_isolable_partition),
    )


class TestPermutationEquivariance:
    @pytest.mark.parametrize("setup", ["I", "II"])
    def test_all_insertion_patterns_n3(self, setup):
        switched, _ = bimmc.generate(3, setup)
        reports = {}
        for pattern in itertools.product((True, False), repeat=3):
            modes = tuple("forward" if ins else "bypass1" for ins in pattern)
            reports[pattern] = isolability_partition(instantiate(switched, Configuration(modes)))
        for pattern in reports:
            for perm in itertools.permutations(range(3)):
                permuted = tuple(pattern[i] for i in perm)
                expected = rename_report(reports[pattern], perm)
                actual = reports[permuted]
                assert (
                    actual.detectable,
                    actual.non_detectable,
                    frozenset(actual.non_isolable_partition),
                ) == expected
