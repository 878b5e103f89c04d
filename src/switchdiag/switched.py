"""Mode-guarded multi-submodule models and their symmetry reductions.

A :class:`SwitchedModel` consists of ``n`` copies of a
:class:`SubmoduleTemplate` (whose equations may change incidence with the
submodule's switch mode) plus mode-independent global equations.  Fixing
one mode per submodule -- a :class:`Configuration` -- flattens the switched
model into an ordinary :class:`~switchdiag.structural.StructuralModel`.

Two reductions keep the analysis of all mode combinations tractable:
modes with identical equation structure collapse into structural mode
classes, and configurations that agree on the per-class instance counts
produce models that are identical up to instance renaming.

Flattening works on integer offsets: instance k's local unknown j is flat
unknown (k-1)*L + j, the shared ones follow all n*L locals, and each
instance's rows and sorted integer rows are emitted together.  The first
configuration flattened is kept; a later one is that model with one cached
patch per instance whose mode changed: the name rows and sorted integer
rows of the instance's equations whose variant differs.  Names, faults and
every other row are shared.
"""

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

from .errors import InputError
from .structural import StructuralModel, _reguard, _trusted, _unique

__all__ = [
    "Configuration",
    "GlobalEquation",
    "ModeGuardedEquation",
    "ReducedConfiguration",
    "SubmoduleTemplate",
    "SwitchedModel",
    "canonicalize",
    "enumerate_reduced_configurations",
    "instance_name",
    "instantiate",
    "mode_class",
    "parse_configuration",
    "representative_configuration",
    "split_instance_name",
    "structural_mode_classes",
]


def instance_name(base: str, k: int | str) -> str:
    """Suffix a template-local identifier with its instance index (or ``"k"``)."""
    return f"{base},{k}"


def split_instance_name(name: str) -> tuple[str, int] | None:
    """Split ``f_vcell,3`` into ``("f_vcell", 3)``; a name with no index gives None."""
    base, sep, tail = name.rpartition(",")
    if sep and tail.isdigit():
        return base, int(tail)
    return None


@dataclass(frozen=True)
class ModeGuardedEquation:
    """One template equation with a per-mode incidence variant.

    Mode-independent equations simply carry the same incidence under every
    mode.  Only incidence is stored; sign and coefficient changes between
    modes do not alter structure.
    """

    id: str
    variants: Mapping[str, frozenset[str]]
    fault: str | None = None

    def __post_init__(self):
        # A read-only copy, so the checks SwitchedModel makes once are final.
        variants = {m: frozenset(v) for m, v in dict(self.variants).items()}
        object.__setattr__(self, "variants", MappingProxyType(variants))

    def __reduce__(self):
        # A mapping proxy cannot be pickled or deep-copied; its dict can.
        return type(self), (self.id, dict(self.variants), self.fault)

    @classmethod
    def uniform(
        cls, eq_id: str, unknowns: Sequence[str], modes: Sequence[str], fault: str | None = None
    ) -> "ModeGuardedEquation":
        incidence = frozenset(unknowns)
        return cls(eq_id, {m: incidence for m in modes}, fault)


@dataclass(frozen=True)
class SubmoduleTemplate:
    """Equations, modes and private unknowns of one submodule type.

    ``mode_letters`` optionally maps single-letter aliases (as used in
    configuration strings such as ``"IIB"``) to full mode names; a comma or
    whitespace cannot be a letter.
    """

    modes: tuple[str, ...]
    equations: tuple[ModeGuardedEquation, ...]
    local_unknowns: tuple[str, ...]
    mode_letters: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        modes = _unique(self.modes, "mode")
        if not modes:
            raise InputError("a template needs at least one mode")
        equations = tuple(self.equations)
        _unique((eq.id for eq in equations), "template equation")
        for eq in equations:
            if set(eq.variants) != set(modes):
                raise InputError(
                    f"equation {eq.id!r} must declare one incidence variant per mode"
                )
        letters = dict(self.mode_letters)
        for letter, mode in letters.items():
            if len(letter) != 1 or letter == "," or letter.isspace():
                raise InputError(
                    f"mode letter {letter!r} must be one character, not a comma or whitespace"
                )
            if mode not in modes:
                raise InputError(f"mode letter {letter!r} maps to unknown mode {mode!r}")
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "equations", equations)
        object.__setattr__(self, "local_unknowns", tuple(self.local_unknowns))
        # Read-only, as ModeGuardedEquation.variants, so the checks are final.
        object.__setattr__(self, "mode_letters", MappingProxyType(letters))

    def __reduce__(self):
        return type(self), (
            self.modes, self.equations, self.local_unknowns, dict(self.mode_letters)
        )

    @cached_property
    def _mode_classes(self) -> tuple[frozenset[str], ...]:
        groups: dict[tuple, list[str]] = {}
        for mode in self.modes:
            groups.setdefault(_mode_signature(self, mode), []).append(mode)

        def sort_key(item: tuple[tuple, list[str]]) -> tuple[int, int]:
            signature, members = item
            richness = sum(len(v) for _, v in signature)
            return (-richness, self.modes.index(members[0]))

        ordered = sorted(groups.items(), key=sort_key)
        return tuple(frozenset(members) for _, members in ordered)


@dataclass(frozen=True)
class GlobalEquation:
    """Mode-independent equation shared by the whole pack.

    ``per_instance`` names template-local unknowns that enter the equation
    once per submodule instance (e.g. an output voltage summing every
    submodule's terminal voltage).
    """

    id: str
    unknowns: frozenset[str]
    per_instance: frozenset[str] = frozenset()
    fault: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "unknowns", frozenset(self.unknowns))
        object.__setattr__(self, "per_instance", frozenset(self.per_instance))


@dataclass(frozen=True)
class SwitchedModel:
    """``n`` template instances plus global equations over shared unknowns.

    The first configuration :func:`instantiate` flattens successfully is
    kept as the base later configurations re-guard: its modes, its model
    and the patches built from it so far, keyed by (instance, mode).
    """

    template: SubmoduleTemplate
    n: int
    global_equations: tuple[GlobalEquation, ...]
    shared_unknowns: tuple[str, ...]
    _first: tuple[tuple[str, ...], StructuralModel, dict] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if self.n < 1:
            raise InputError(f"submodule count must be >= 1 (got {self.n})")
        shared = _unique(self.shared_unknowns, "shared unknown")
        overlap = set(shared) & set(self.template.local_unknowns)
        if overlap:
            raise InputError(f"shared unknowns collide with template locals: {sorted(overlap)}")
        known = set(shared) | set(self.template.local_unknowns)
        for eq in self.template.equations:
            for variant in eq.variants.values():
                stray = variant - known
                if stray:
                    raise InputError(
                        f"template equation {eq.id!r} references undeclared unknowns {sorted(stray)}"
                    )
        for geq in self.global_equations:
            if geq.unknowns - set(shared):
                raise InputError(f"global equation {geq.id!r} must use shared unknowns only")
            if geq.per_instance - set(self.template.local_unknowns):
                raise InputError(
                    f"global equation {geq.id!r} per-instance unknowns must be template locals"
                )
        object.__setattr__(self, "global_equations", tuple(self.global_equations))
        object.__setattr__(self, "shared_unknowns", shared)


@dataclass(frozen=True)
class Configuration:
    """One mode per submodule instance."""

    modes: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "modes", tuple(self.modes))


@dataclass(frozen=True)
class ReducedConfiguration:
    """Configuration class determined by per-mode-class instance counts.

    ``class_counts[i]`` is the number of instances whose mode lies in the
    template's ``i``-th structural class (see :func:`structural_mode_classes`);
    ``class_counts[0]`` is therefore the inserted count.
    """

    class_counts: tuple[int, ...]

    def __post_init__(self):
        counts = tuple(self.class_counts)
        if any(c < 0 for c in counts):
            raise InputError(f"class counts {counts} must be non-negative")
        object.__setattr__(self, "class_counts", counts)


def _mode_signature(template: SubmoduleTemplate, mode: str) -> tuple:
    return tuple((eq.id, eq.variants[mode]) for eq in template.equations)


def structural_mode_classes(template: SubmoduleTemplate) -> tuple[frozenset[str], ...]:
    """Partition the template's modes by equation structure.

    Two modes land in the same class when every equation has identical
    incidence under both.  Classes are ordered with the structurally
    richest one (largest total incidence; the insertion-like class) first,
    ties broken by mode declaration order, so callers may treat
    ``classes[0]`` as the insertion class.  Computed once per template.
    """
    return template._mode_classes


def instantiate(switched: SwitchedModel, config: Configuration) -> StructuralModel:
    """Flatten a switched model under a fixed configuration.

    Instance ``k`` contributes every template equation with the incidence
    of ``config.modes[k-1]``, all local names suffixed ``,k``; global
    equations follow unchanged, with per-instance unknowns expanded over
    all instances.

    The first configuration of ``switched`` is built by integer offsets,
    and its names are checked only where they can collide.  Names do not
    depend on the modes, so a later configuration starts from that model
    and applies, for each instance whose mode differs, the cached patch of
    that instance and mode.  The result is the same either way.
    """
    template = switched.template
    if len(config.modes) != switched.n:
        raise InputError(
            f"configuration length {len(config.modes)} does not match n={switched.n}"
        )
    for mode in config.modes:
        if mode not in template.modes:
            raise InputError(f"unknown mode identifier {mode!r}")

    first = switched._first
    if first is None:
        model = _flatten(switched, config.modes)
        object.__setattr__(switched, "_first", (config.modes, model, {}))
        return model
    first_modes, base, patches = first
    changed = []
    for k, (mode, was) in enumerate(zip(config.modes, first_modes), start=1):
        if mode != was:
            patch = patches.get((k, mode))
            if patch is None:
                patch = patches[k, mode] = _patch(switched, base, k, mode, was)
            changed.append(patch)
    return _reguard(base, changed)


def _resolver(switched: SwitchedModel):
    # Resolves a variant into the sorted offsets of its locals within an
    # instance and the sorted indices of its shared unknowns, which follow
    # all n instances' locals.  SwitchedModel checked every variant's names.
    width = len(switched.template.local_unknowns)
    local = {x: j for j, x in enumerate(switched.template.local_unknowns)}
    shared = {x: switched.n * width + s for s, x in enumerate(switched.shared_unknowns)}
    return lambda variant: (
        sorted([local[x] for x in variant if x in local]),
        sorted([shared[x] for x in variant if x in shared]),
    )


def _collides(switched: SwitchedModel) -> bool:
    # Whether flattening repeats an equation, unknown or fault name.  Instance
    # k suffixes the template's names with ",k", so a name can repeat only
    # among the template's or the pack's (global ids and faults, shared
    # unknowns), or as a pack name that splits at its last comma into a
    # template name and a tail "1".."n".
    template, global_equations = switched.template, switched.global_equations
    tails = {str(k) for k in range(1, switched.n + 1)}
    for bases, names in (
        ([eq.id for eq in template.equations], [geq.id for geq in global_equations]),
        (template.local_unknowns, switched.shared_unknowns),
        ([eq.fault for eq in template.equations if eq.fault is not None],
         [geq.fault for geq in global_equations if geq.fault is not None]),
    ):
        unique = set(bases)
        if len(unique) < len(bases) or len(set(names)) < len(names) or any(
            sep and base in unique and tail in tails
            for base, sep, tail in (name.rpartition(",") for name in names)
        ):
            return True
    return False


def _flatten(switched: SwitchedModel, modes: Sequence[str]) -> StructuralModel:
    # Each (template equation, mode) is resolved once; each instance's rows
    # and sorted integer rows are then emitted together.
    template, resolve = switched.template, _resolver(switched)
    resolved = {
        mode: [(eq.id, eq.fault, *resolve(eq.variants[mode])) for eq in template.equations]
        for mode in set(modes)
    }
    suffixes = [instance_name("", k) for k in range(1, switched.n + 1)]
    unknowns = tuple([x + sfx for sfx in suffixes for x in template.local_unknowns])
    unknowns += switched.shared_unknowns
    at = unknowns.__getitem__
    starts = [k * len(template.local_unknowns) for k in range(switched.n)]
    rows, adj = [], []
    for start, suffix, mode in zip(starts, suffixes, modes):
        for eq_id, fault, local, shared in resolved[mode]:
            adj.append([start + j for j in local] + shared)
            fault = None if fault is None else fault + suffix
            rows.append((eq_id + suffix, frozenset(map(at, adj[-1])), fault))
    for geq in switched.global_equations:
        local = resolve(geq.per_instance)[0]
        adj.append([start + j for start in starts for j in local] + resolve(geq.unknowns)[1])
        rows.append((geq.id, frozenset(map(at, adj[-1])), geq.fault))
    if _collides(switched):
        # Refused as StructuralModel refuses a repeated name: equations first,
        # then unknowns, then faults.
        return StructuralModel(rows=tuple(rows), unknowns=unknowns)
    return _trusted(tuple(rows), unknowns, adj)


def _patch(switched: SwitchedModel, base: StructuralModel, k: int, mode: str, was: str) -> tuple:
    # The rows of instance k's equations whose variant under ``mode`` differs
    # from the one under ``was``, the mode the first model ``base`` was built
    # with: each as its position, its row and its sorted integer row.
    template, resolve = switched.template, _resolver(switched)
    start, offset = (k - 1) * len(template.local_unknowns), (k - 1) * len(template.equations)
    patch = []
    for e, eq in enumerate(template.equations, start=offset):
        if eq.variants[mode] != eq.variants[was]:
            name, _, fault = base.rows[e]
            local, shared = resolve(eq.variants[mode])
            adj_row = [start + j for j in local] + shared
            row = (name, frozenset(map(base.unknowns.__getitem__, adj_row)), fault)
            patch.append((e, row, adj_row))
    return tuple(patch)


def mode_class(template_classes: Sequence[frozenset[str]], mode: str) -> int:
    """Index of the structural class ``mode`` belongs to."""
    for i, cls in enumerate(template_classes):
        if mode in cls:
            return i
    raise InputError(f"mode {mode!r} belongs to no structural class")


def canonicalize(
    template_classes: Sequence[frozenset[str]], config: Configuration
) -> ReducedConfiguration:
    """Reduce a configuration to its per-class instance counts."""
    counts = [0] * len(template_classes)
    for mode in config.modes:
        counts[mode_class(template_classes, mode)] += 1
    return ReducedConfiguration(tuple(counts))


def _compositions(total: int, parts: int):
    # All count vectors of length `parts` summing to `total`, ascending.
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first, *rest)


def enumerate_reduced_configurations(switched: SwitchedModel) -> tuple[ReducedConfiguration, ...]:
    """All configuration classes that can differ structurally.

    One class per per-class count vector summing to ``n``, in ascending
    order; with the usual two structural classes these are the ``n + 1``
    classes of 0..n inserted instances.
    """
    classes = structural_mode_classes(switched.template)
    return tuple(map(ReducedConfiguration, _compositions(switched.n, len(classes))))


def representative_configuration(
    switched: SwitchedModel, reduced: ReducedConfiguration
) -> Configuration:
    """Canonical representative: class-0 instances first, then class 1, ...

    Each class is represented by its first declared mode, so ``k`` inserted
    instances become ``k`` leading instances in the insertion class's first
    mode followed by bypass-class instances.
    """
    classes = structural_mode_classes(switched.template)
    counts = reduced.class_counts
    if len(counts) != len(classes) or sum(counts) != switched.n:
        raise InputError(
            f"class counts {counts} do not fit {len(classes)} mode classes and n={switched.n}"
        )
    modes: list[str] = []
    for cls, count in zip(classes, counts):
        modes.extend([min(cls, key=switched.template.modes.index)] * count)
    return Configuration(tuple(modes))


def parse_configuration(template: SubmoduleTemplate, text: str, n: int) -> Configuration:
    """Parse ``"IIB"``-style letter strings or comma-separated mode names.

    At n=1 a text without a comma may also be one mode name; it is refused
    as ambiguous when it is also the letter of a different mode.
    """
    text = text.strip()
    if "," in text:
        modes = tuple(part.strip() for part in text.split(","))
        for mode in modes:
            if mode not in template.modes:
                raise InputError(f"unknown mode name {mode!r}")
    elif n == 1 and text in template.modes:
        lettered = template.mode_letters.get(text, text)
        if len(text) == 1 and lettered != text:
            raise InputError(
                f"configuration {text!r} is ambiguous: it names mode {text!r}"
                f" and is the letter of mode {lettered!r}"
            )
        modes = (text,)
    else:
        letters = template.mode_letters
        if not letters:
            raise InputError("this template declares no mode letters; use full mode names")
        try:
            modes = tuple(letters[ch] for ch in text)
        except KeyError as exc:
            raise InputError(f"unknown mode letter {exc.args[0]!r}") from None
    if len(modes) != n:
        raise InputError(f"configuration has {len(modes)} entries, expected {n}")
    return Configuration(modes)
