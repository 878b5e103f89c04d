"""Randomized cross-validation of the DM core against independent references.

Each reference builds one scipy CSR incidence matrix per model and removes
an equation by cutting its row out of it, with no size bound and no
analysis code shared with :mod:`~switchdiag.structural`.  Random models are
decomposed twice: by the production alternating-path classification and
by the matching-cardinality oracle (an equation is redundant exactly when
removing it keeps the maximum matching size, from scipy's Hopcroft-Karp).
Isolability partitions are checked against a brute-force pairwise
evaluation of the removal definition on the same matching sizes.
:func:`definitional_dm_decompose` takes one scipy matching and
breadth-first searches of the alternating digraph for the coarse parts,
and recomputes fine blocks by literal removal; :func:`is_isolable` and
:func:`isolability_matrix` give the pairwise removal route on those
searches, for tests that compare it with the fine-block partition; the
boolean :class:`IsolabilityMatrix` is that route's result type.
"""

import random
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, maximum_bipartite_matching

from .errors import InputError, InternalConsistencyError
from .structural import (
    DmDecomposition,
    IsolabilityReport,
    PartPair,
    StructuralModel,
    _canonical_partition,
    dm_decompose,
    isolability_partition,
)

__all__ = [
    "IsolabilityMatrix",
    "OracleCheckResult",
    "definitional_dm_decompose",
    "is_isolable",
    "isolability_matrix",
    "oracle_partition",
    "oracle_plus_membership",
    "random_model",
    "remove_equation",
    "run_oracle_check",
]


@dataclass(frozen=True)
class IsolabilityMatrix:
    """Boolean non-isolability matrix over an ordered fault list.

    ``entries[i][j]`` is True when fault ``i`` is NOT isolable from fault
    ``j``; the diagonal is always True and an identity matrix means full
    isolability.
    """

    faults: tuple[str, ...]
    entries: tuple[tuple[bool, ...], ...]

    def __post_init__(self):
        if len(self.entries) != len(self.faults) or any(
            len(row) != len(self.faults) for row in self.entries
        ):
            raise InternalConsistencyError("matrix entries must be square over the faults")


def random_model(
    rng: random.Random, max_equations: int = 12, max_unknowns: int = 10
) -> StructuralModel:
    """Random incidence structure with random density and injective faults."""
    n_eq = rng.randint(0, max_equations)
    n_unk = rng.randint(0, max_unknowns)
    density = rng.uniform(0.05, 0.85)
    equations = [f"e{i}" for i in range(1, n_eq + 1)]
    unknowns = [f"x{j}" for j in range(1, n_unk + 1)]
    incidence = [frozenset(x for x in unknowns if rng.random() < density) for _ in equations]
    fault_eqs = rng.sample(equations, rng.randint(0, n_eq))
    fault_of = {eq: f"f{i}" for i, eq in enumerate(fault_eqs, start=1)}
    rows = tuple(zip(equations, incidence, map(fault_of.get, equations)))
    return StructuralModel(rows=rows, unknowns=tuple(unknowns))


def remove_equation(model: StructuralModel, equation: str) -> StructuralModel:
    """Return ``model`` without ``equation`` (and without the fault on it)."""
    if equation not in model.incidence:
        raise InputError(f"unknown equation {equation!r}")
    return StructuralModel(
        rows=tuple(row for row in model.rows if row[0] != equation), unknowns=model.unknowns
    )


def is_isolable(model: StructuralModel, fault_i: str, fault_j: str) -> bool:
    """True when ``fault_i`` stays detectable after removing ``fault_j``'s equation."""
    if fault_i == fault_j:
        raise InputError("isolability of a fault from itself is undefined")
    for f in (fault_i, fault_j):
        if f not in model.fault_map:
            raise InputError(f"fault {f!r} is not declared in the model")
    row_i, row_j = (model.equations.index(model.fault_map[f]) for f in (fault_i, fault_j))
    return bool(_stays_over(_biadjacency(model), row_j)[row_i])


def isolability_matrix(model: StructuralModel) -> IsolabilityMatrix:
    """Pairwise non-isolability matrix over the detectable faults.

    Computed by direct pairwise removal, independently of the fine-block
    partition, so the two routes can be cross-checked against each other.
    Removing one fault's equation answers that fault's whole column.
    """
    graph = _biadjacency(model)
    over = _over_rows(graph)
    row = {f: i for i, (_, _, f) in enumerate(model.rows) if f is not None and over[i]}
    order = tuple(sorted(row))
    rows = [row[f] for f in order]
    # stays[j][i]: fault i stays detectable once fault j's equation is removed.
    stays = [_stays_over(graph, j)[rows] for j in rows]
    n = len(rows)
    entries = tuple(tuple(i == j or not stays[j][i] for j in range(n)) for i in range(n))
    return IsolabilityMatrix(order, entries)


def _biadjacency(model: StructuralModel) -> csr_matrix:
    # Equations x unknowns incidence, rows and columns in declaration order.
    var_index = {x: j for j, x in enumerate(model.unknowns)}
    indptr = np.zeros(len(model.equations) + 1, dtype=np.int32)
    cols: list[int] = []
    for i, (_, row_unknowns, _) in enumerate(model.rows):
        cols.extend(sorted(var_index[x] for x in row_unknowns))
        indptr[i + 1] = len(cols)
    return csr_matrix(
        (np.ones(len(cols), dtype=np.int8), np.asarray(cols, dtype=np.int32), indptr),
        shape=(len(model.equations), len(model.unknowns)),
    )


def _cut(graph: csr_matrix, *rows: int) -> csr_matrix:
    # ``graph`` without ``rows``: a row mask applied to the index arrays
    # directly, cheaper per removal than scipy's fancy-indexed ``graph[mask]``.
    keep = np.ones(graph.shape[0], dtype=bool)
    keep[list(rows)] = False
    lengths = np.diff(graph.indptr)
    indptr = np.zeros(np.count_nonzero(keep) + 1, dtype=np.int32)
    np.cumsum(lengths[keep], out=indptr[1:])
    indices = graph.indices[np.repeat(keep, lengths)]
    return csr_matrix(
        (np.ones(len(indices), dtype=np.int8), indices, indptr),
        shape=(len(indptr) - 1, graph.shape[1]),
    )


def _matching_size(graph: csr_matrix) -> int:
    return int((maximum_bipartite_matching(graph, perm_type="column") >= 0).sum())


def _oracle_matching_size(model: StructuralModel) -> int:
    """Maximum matching cardinality via scipy's Hopcroft-Karp.

    Kept deliberately separate from the hand-written augmenting-path code
    so the oracle exercises an independent implementation.
    """
    return _matching_size(_biadjacency(model))


def _over_rows(graph: csr_matrix) -> np.ndarray:
    # Flags of the rows in the overdetermined part, by scipy alone: the rows
    # a breadth-first search reaches in the alternating digraph of a
    # Hopcroft-Karp matching, with an edge r -> (the row matched to c) for
    # each entry (r, c), from a root joined to every exposed row.  An exposed
    # column leads back to the root, which is already visited.  The parts do
    # not depend on the matching, so applied to the transpose, with a
    # matching of its own, it gives the columns of the underdetermined part.
    rows, cols = graph.shape
    row_match = maximum_bipartite_matching(graph, perm_type="column")
    col_match = np.full(cols, rows, dtype=np.int32)
    matched = np.flatnonzero(row_match >= 0)
    col_match[row_match[matched]] = matched
    exposed = np.flatnonzero(row_match < 0)
    digraph = csr_matrix(
        (
            np.ones(graph.nnz + len(exposed)),
            np.concatenate([col_match[graph.indices], exposed]),
            np.append(graph.indptr, graph.nnz + len(exposed)),
        ),
        shape=(rows + 1, rows + 1),
    )
    reached = np.zeros(rows + 1, dtype=bool)
    reached[breadth_first_order(digraph, rows, return_predecessors=False)] = True
    return reached[:rows]


def _stays_over(graph: csr_matrix, row: int) -> np.ndarray:
    # Overdetermined-row flags once ``row`` is removed; the removed row reads False.
    return np.insert(_over_rows(_cut(graph, row)), row, False)


def _columns_of(graph: csr_matrix, rows: np.ndarray) -> np.ndarray:
    # Flags of the columns with an entry in a flagged row.
    flags = np.zeros(graph.shape[1], dtype=bool)
    flags[graph.indices[np.repeat(rows, np.diff(graph.indptr))]] = True
    return flags


def oracle_plus_membership(model: StructuralModel, equation: str) -> bool:
    """Test oracle for overdetermined-part membership.

    An equation lies in the overdetermined part exactly when some maximum
    matching leaves it exposed, i.e. when removing it does not reduce the
    maximum matching cardinality.  Costs two Hopcroft-Karp matchings.
    """
    if equation not in model.incidence:
        raise InputError(f"unknown equation {equation!r}")
    graph = _biadjacency(model)
    return _matching_size(_cut(graph, model.equations.index(equation))) == _matching_size(graph)


def definitional_dm_decompose(model: StructuralModel) -> DmDecomposition:
    """Reference DM decomposition that shares no code with the structural core.

    Everything comes from scipy: the coarse parts from a Hopcroft-Karp
    matching and breadth-first searches of the alternating digraph, and
    each fine block by literal removal, as the overdetermined equations
    that removing one of them expels.  Costs one matching and one search
    per block; test use only.
    """
    graph = _biadjacency(model)
    transpose = graph.T.tocsr()
    over_eqs = _over_rows(graph)
    under_vars = _over_rows(transpose)
    over_vars = _columns_of(graph, over_eqs)
    under_eqs = _columns_of(transpose, under_vars)
    if (over_eqs & under_eqs).any() or (over_vars & under_vars).any():
        raise InternalConsistencyError("reference DM parts overlap")

    def part(eq_flags: np.ndarray, var_flags: np.ndarray) -> PartPair:
        return PartPair(
            frozenset(eq for eq, flag in zip(model.equations, eq_flags) if flag),
            frozenset(x for x, flag in zip(model.unknowns, var_flags) if flag),
        )

    block_of = np.full(len(model.equations), -1)
    for i in np.flatnonzero(over_eqs):
        if block_of[i] >= 0:
            continue
        block = over_eqs & ~_stays_over(graph, i)
        if (block_of[block] >= 0).any():
            raise InternalConsistencyError("fine blocks do not form a partition")
        block_of[block] = i
    blocks: dict[int, list[str]] = {}
    for eq, block in zip(model.equations, block_of):
        if block >= 0:
            blocks.setdefault(block, []).append(eq)
    return DmDecomposition(
        part(under_eqs, under_vars),
        part(~(over_eqs | under_eqs), ~(over_vars | under_vars)),
        part(over_eqs, over_vars),
        _canonical_partition(blocks.values()),
    )


def oracle_partition(model: StructuralModel) -> IsolabilityReport:
    """Brute-force isolability: pairwise removal checked by matching sizes.

    Asserts that the non-isolable relation on detectable faults is
    symmetric and that every fault's non-isolable set is shared by all its
    members, so that the sets form a partition, then returns it.
    """
    graph = _biadjacency(model)
    faulty = [r for r, (_, _, f) in enumerate(model.rows) if f is not None]
    cut_sizes = {r: _matching_size(_cut(graph, r)) for r in faulty}
    return _pairwise_partition(model, graph, _matching_size(graph), cut_sizes)


def _pairwise_partition(
    model: StructuralModel, graph: csr_matrix, size: int, cut_sizes: Mapping[int, int]
) -> IsolabilityReport:
    # oracle_partition from the model's graph, its matching size nu(M) and
    # nu(M \ {e}) for at least every faulty row e.
    row = {f: i for i, (_, _, f) in enumerate(model.rows) if f is not None}
    # nu(M \ {e}) per fault: the fault is detectable when it equals nu(M).
    size_without = {f: cut_sizes[r] for f, r in row.items()}
    detectable = frozenset(f for f in model.faults if size_without[f] == size)
    det = sorted(detectable)
    linked = {f: {f} for f in det}
    for i, fi in enumerate(det):
        for fj in det[i + 1:]:
            size_pair = _matching_size(_cut(graph, row[fi], row[fj]))
            # fi isolable from fj iff e_i stays redundant once e_j is gone.
            if (size_pair == size_without[fj]) != (size_pair == size_without[fi]):
                raise InternalConsistencyError(
                    f"oracle non-isolability is asymmetric for ({fi}, {fj})"
                )
            if size_pair != size_without[fj]:
                linked[fi].add(fj)
                linked[fj].add(fi)
    for fi in det:
        for fj in sorted(linked[fi]):
            if linked[fj] != linked[fi]:
                raise InternalConsistencyError(
                    f"oracle non-isolability is not transitive at ({fi}, {fj})"
                )
    partition = _canonical_partition({frozenset(cell) for cell in linked.values()})
    return IsolabilityReport(detectable, partition, frozenset(model.faults) - detectable)


@dataclass
class OracleCheckResult:
    models_checked: int = 0
    equations_checked: int = 0
    pairs_checked: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def run_oracle_check(count: int, seed: int) -> OracleCheckResult:
    """Cross-validate ``count`` random models; collect any disagreements."""
    if count < 1:
        raise InputError(f"model count must be >= 1 (got {count})")
    rng = random.Random(seed)
    result = OracleCheckResult()
    for index in range(count):
        model = random_model(rng)
        result.models_checked += 1
        over = dm_decompose(model).over.equations
        # oracle_plus_membership for every equation and oracle_partition, on
        # one graph, one full matching and one single-cut matching per row.
        graph = _biadjacency(model)
        size = _matching_size(graph)
        cut_sizes = {row: _matching_size(_cut(graph, row)) for row in range(len(model.equations))}
        for row, eq in enumerate(model.equations):
            result.equations_checked += 1
            if (eq in over) != (cut_sizes[row] == size):
                result.failures.append(
                    f"model {index}: redundancy of {eq} disagrees with the oracle"
                )
        expected = _pairwise_partition(model, graph, size, cut_sizes)
        detectable = len(expected.detectable)
        result.pairs_checked += detectable * (detectable - 1) // 2
        if isolability_partition(model) != expected:
            result.failures.append(
                f"model {index}: isolability partition disagrees with pairwise brute force"
            )
    return result
