"""Bipartite structural models and the Dulmage-Mendelsohn calculus.

The central object is :class:`StructuralModel`: a bipartite incidence
structure between equations and unknown variables, stored as one row per
equation that names the unknowns occurring in it and the fault signal, if
any, entering it, so each fault enters exactly one equation.  On top of
it this module provides maximum matching, the coarse Dulmage-Mendelsohn
(DM) decomposition into underdetermined / just-determined / overdetermined
parts, the extended decomposition of the overdetermined part into fine
blocks, and the fault detectability / isolability calculus those blocks
induce.

Everything follows from one maximum matching.  The coarse parts are two
depth-first alternating sweeps, one from the exposed equations and one from
the exposed unknowns; the matching's augmenting-path searches are the same
sweep, stopped where it meets an exposed unknown.  The fine blocks come from the dominator tree of the
alternating digraph over the overdetermined equations, rooted at a
super-source joined to every exposed equation: two equations share a block
exactly when one equation dominates both, so the blocks are the subtrees
under the root's children.  They are the parallel classes of the strict
gammoid dual to the equations' transversal matroid (Ingleton & Piff, JCT-B
1973), the equivalence classes of the overdetermined part in Krysander,
Aslund & Nyberg (IEEE TSMC-A 2008).  Dominators are computed by the
iteration of Cooper, Harvey & Kennedy, "A simple, fast dominance
algorithm" (2001).  The first sweep walks exactly that digraph, and its
postorder is the order the dominator pass iterates, so the fine-block pass
walks nothing itself.  Coarse parts and fine blocks are integer codes, one
per equation: :func:`isolability_partition` groups the faults by their
equations' block ids, and names are built only by :func:`dm_decompose`
and the reports.  A whole decomposition costs one matching plus work
near-linear in practice in the number of incidence edges, all of it
iterative, so path lengths are not bounded by the recursion limit.

The public fields of every type are fixed at construction, and all
operations are pure functions of their inputs.  A model's integer
adjacency and its name-keyed ``incidence``, and a report's fault-to-cell
index, are caches filled on first use.  The reverse adjacency is derived
from the forward one, whose unchanged rows a re-guarded model shares.  No
result depends on a cache or on the order of calls, so models and
reports can be shared freely across threads.
"""

from collections import Counter
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

from .errors import InputError, InternalConsistencyError


def _unique(items: Iterable[str], what: str) -> tuple[str, ...]:
    out = tuple(items)
    if len(set(out)) != len(out):
        repeated = sorted(x for x, count in Counter(out).items() if count > 1)
        raise InputError(f"duplicate {what} identifiers: {repeated}")
    return out


@dataclass(frozen=True)
class StructuralModel:
    """Equations x unknowns incidence structure with fault annotations.

    ``rows`` holds one ``(equation, unknowns, fault)`` triple per equation:
    the unknowns occurring in it (an empty set is legal and marks an
    equation relating only known signals) and the one fault entering it, or
    None.  ``equations``, ``faults`` and ``fault_map`` are derived from the
    rows once, in row order, and ``incidence`` on first use; all are
    read-only.
    """

    rows: tuple[tuple[str, frozenset[str], str | None], ...]
    unknowns: tuple[str, ...]
    equations: tuple[str, ...] = field(init=False, repr=False, compare=False)
    faults: tuple[str, ...] = field(init=False, repr=False, compare=False)
    fault_map: Mapping[str, str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = tuple((eq, frozenset(row_unknowns), fault) for eq, row_unknowns, fault in self.rows)
        equations = _unique((eq for eq, _, _ in rows), "equation")
        unknowns = _unique(self.unknowns, "unknown")
        faults = _unique((fault for _, _, fault in rows if fault is not None), "fault")
        known_vars = set(unknowns)
        for eq, row_unknowns, _ in rows:
            stray = row_unknowns - known_vars
            if stray:
                raise InputError(f"equation {eq!r} references undeclared unknowns {sorted(stray)}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "unknowns", unknowns)
        object.__setattr__(self, "equations", equations)
        object.__setattr__(self, "faults", faults)
        object.__setattr__(
            self, "fault_map", {fault: eq for eq, _, fault in rows if fault is not None}
        )

    @cached_property
    def incidence(self) -> Mapping[str, frozenset[str]]:
        """Equation -> the unknowns occurring in it."""
        return {eq: row_unknowns for eq, row_unknowns, _ in self.rows}

    @cached_property
    def _index(self) -> tuple[list[list[int]], list[list[int]]]:
        """Integer adjacency in declaration order: equation -> unknowns and back.

        Built on first use; ``rev`` is the transpose of ``adj``.  Re-guarded
        models share unchanged ``adj`` rows, so nothing may mutate them.
        """
        var_index = {x: j for j, x in enumerate(self.unknowns)}
        adj = [sorted([var_index[x] for x in row_unknowns]) for _, row_unknowns, _ in self.rows]
        return adj, _transpose(adj, len(self.unknowns))


def _transpose(adj: list[list[int]], width: int) -> list[list[int]]:
    # Unknown -> the equations it occurs in, ascending.
    rev: list[list[int]] = [[] for _ in range(width)]
    for i, row in enumerate(adj):
        for j in row:
            rev[j].append(i)
    return rev


def _reguard(base: StructuralModel, changes: Mapping[int, frozenset[str]]) -> StructuralModel:
    # ``base`` with the unknowns of the rows at the positions ``changes``
    # keys replaced.  Names, faults and unknowns stay those of ``base``,
    # whose construction checked them, so they are shared and only the new
    # rows are checked.  Only the replaced ``adj`` rows are rebuilt, the
    # others are shared with ``base``, and ``rev`` is derived from them.
    if not changes:
        return base
    var_index = {x: j for j, x in enumerate(base.unknowns)}
    adj = list(base._index[0])
    rows = list(base.rows)
    for i, row_unknowns in changes.items():
        eq, _, fault = rows[i]
        stray = [x for x in row_unknowns if x not in var_index]
        if stray:
            raise InputError(f"equation {eq!r} references undeclared unknowns {sorted(stray)}")
        rows[i] = (eq, row_unknowns, fault)
        adj[i] = sorted([var_index[x] for x in row_unknowns])
    model = object.__new__(StructuralModel)
    vars(model).update(
        rows=tuple(rows),
        unknowns=base.unknowns,
        equations=base.equations,
        faults=base.faults,
        fault_map=base.fault_map,
        _index=(adj, _transpose(adj, len(base.unknowns))),
    )
    return model


class PartPair(NamedTuple):
    equations: frozenset[str]
    unknowns: frozenset[str]


@dataclass(frozen=True)
class DmDecomposition:
    """Coarse DM partition plus the fine blocks of the overdetermined part.

    ``under``/``just``/``over`` hold the equation and unknown sets of the
    three coarse parts.  ``fine_blocks`` partitions the overdetermined
    equations: two equations share a block if and only if removing either
    one expels the other from the overdetermined part.
    """

    under: PartPair
    just: PartPair
    over: PartPair
    fine_blocks: tuple[frozenset[str], ...]


@dataclass(frozen=True)
class IsolabilityReport:
    """Detectability and the partition of detectable faults.

    Two faults share a cell of ``non_isolable_partition`` exactly when
    neither is structurally isolable from the other; singleton cells mark
    uniquely isolable faults.
    """

    detectable: frozenset[str]
    non_isolable_partition: tuple[frozenset[str], ...]
    non_detectable: frozenset[str]

    def __post_init__(self):
        covered: set[str] = set()
        for cell in self.non_isolable_partition:
            if covered & cell:
                raise InternalConsistencyError("partition cells overlap")
            covered |= cell
        if covered != set(self.detectable):
            raise InternalConsistencyError("partition does not cover the detectable faults")
        if self.detectable & self.non_detectable:
            raise InternalConsistencyError("detectable and non-detectable sets overlap")

    @cached_property
    def _cell_index(self) -> Mapping[str, int]:
        # Each detectable fault's position in non_isolable_partition.
        return {f: i for i, cell in enumerate(self.non_isolable_partition) for f in cell}

    def cell_of(self, fault: str) -> frozenset[str]:
        index = self._cell_index.get(fault)
        if index is None:
            raise InputError(f"fault {fault!r} is not detectable in this report")
        return self.non_isolable_partition[index]


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


def _sweep(
    adj: list[list[int]], back: list[int], start: int, seen: list[int], stamp: int, post: list[int]
) -> list[int] | None:
    # Depth-first alternating sweep from the exposed vertex ``start`` of one
    # side: an edge ``adj`` to an other-side vertex x not marked ``seen[x] ==
    # stamp``, then x's matched edge ``back`` to the start side.  A matched
    # vertex there is entered only through its partner, marked once, so it
    # needs no mark.  Finished start-side vertices are appended to ``post``.
    # On meeting an exposed x, returns the augmenting path: the start-side
    # vertices on the stack, then x; None once all reachable is swept.  The
    # stack is explicit, so path length is not bounded by the recursion limit.
    path = [start]
    frames = [iter(adj[start])]
    while frames:
        for x in frames[-1]:
            if seen[x] != stamp:
                seen[x] = stamp
                break
        else:
            frames.pop()
            post.append(path.pop())
            continue
        j = back[x]
        if j < 0:
            return path + [x]
        path.append(j)
        frames.append(iter(adj[j]))
    return None


def _matching(model: StructuralModel) -> tuple[list[int], list[int]]:
    # Maximum matching as index maps equation -> unknown and unknown ->
    # equation, -1 where exposed: a greedy pass, then one augmenting-path
    # search per equation the greedy pass left exposed.
    adj, rev = model._index
    eq_match = [-1] * len(adj)
    var_match = [-1] * len(rev)
    for i, row in enumerate(adj):
        for x in row:
            if var_match[x] < 0:
                eq_match[i] = x
                var_match[x] = i
                break
    # An unknown a failed search visited leads to no exposed unknown while
    # the matching stays as it is, so its mark holds until a search succeeds.
    seen = [-1] * len(rev)
    stamp = 0
    for i in range(len(adj)):
        path = _sweep(adj, var_match, i, seen, stamp, []) if eq_match[i] < 0 else None
        if path is not None:
            # Each equation on the path takes the unknown its successor was
            # entered through, its old partner; the last takes the exposed one.
            x = path.pop()
            for eq in reversed(path):
                x, eq_match[eq] = eq_match[eq], x
                var_match[eq_match[eq]] = eq
            stamp += 1
    return eq_match, var_match


def max_matching(model: StructuralModel) -> frozenset[tuple[str, str]]:
    """Maximum bipartite matching as its (equation, unknown) pairs.

    Computed iteratively (no recursion, whatever the path lengths) by a
    greedy pass followed by augmenting-path searches.  Deterministic for a
    fixed declaration order of equations and unknowns; which maximum
    matching is returned may change when that order changes.
    Kept for the ``structural.max_matching.s`` timing in ``benchmarks/run.py``.
    """
    eq_match, _ = _matching(model)
    return frozenset(
        (model.equations[i], model.unknowns[x]) for i, x in enumerate(eq_match) if x >= 0
    )


# Coarse part codes: 2 * (reached by the over sweep) + (reached by the
# under sweep), so a vertex both sweeps reached would read 3.
_JUST, _UNDER, _OVER, _MET = 0, 1, 2, 3


class _Coarse(NamedTuple):
    # The coarse part of each equation and unknown, the maximum matching,
    # and the overdetermined equations in the over sweep's postorder, which
    # the dominator pass iterates.
    eq_part: list[int]
    var_part: list[int]
    eq_match: list[int]
    post: list[int]


def _coarse_parts(model: StructuralModel) -> _Coarse:
    adj, rev = model._index
    eq_match, var_match = _matching(model)

    # Overdetermined part: everything alternating-reachable from equations
    # left exposed by a maximum matching.  Underdetermined part: the dual
    # sweep from exposed unknowns.  Each sweep's marks, shared by its starts,
    # are its code in the other side's part list; the start sides' codes are
    # added only once both sweeps are done.
    eq_part = [_JUST] * len(adj)
    var_part = [_JUST] * len(rev)
    post: list[int] = []
    under_post: list[int] = []
    for side, match, back, marks, code, done in (
        (adj, eq_match, var_match, var_part, _OVER, post),
        (rev, var_match, eq_match, eq_part, _UNDER, under_post),
    ):
        for v, partner in enumerate(match):
            # A maximum matching admits no augmenting path.
            if partner < 0 and _sweep(side, back, v, marks, code, done) is not None:
                raise InternalConsistencyError("DM sweep met an exposed vertex; matching not maximum")
    for i in post:
        eq_part[i] += _OVER
    for x in under_post:
        var_part[x] += _UNDER
    # Nor can the two sweeps meet.
    if _MET in eq_part or _MET in var_part:
        raise InternalConsistencyError("DM sweeps overlap; matching was not maximum")
    if eq_part.count(_JUST) != var_part.count(_JUST):
        raise InternalConsistencyError("just-determined part is not square")
    return _Coarse(eq_part, var_part, eq_match, post)


def _named_parts(model: StructuralModel, coarse: _Coarse) -> tuple[PartPair, PartPair, PartPair]:
    # The under, just and over parts by name.
    return tuple(
        PartPair(
            frozenset(eq for eq, p in zip(model.equations, coarse.eq_part) if p == part),
            frozenset(x for x, p in zip(model.unknowns, coarse.var_part) if p == part),
        )
        for part in (_UNDER, _JUST, _OVER)
    )


def plus_part(model: StructuralModel) -> frozenset[str]:
    """Equations of the overdetermined part (the analytical redundancy).

    Kept for the ``structural.coarse_dm.s`` timing in ``benchmarks/run.py``.
    """
    names = model.equations
    return frozenset(names[i] for i in _coarse_parts(model).post)


def _fine_blocks(model: StructuralModel, coarse: _Coarse) -> list[int]:
    # The fine block id of each equation: the root child heading its subtree
    # in the dominator tree of the alternating digraph (see dm_decompose)
    # for an overdetermined equation, -1 for any other.  The digraph has an
    # edge e -> var_match[x] for each unknown x of e, and a root, index
    # ``len(adj)``, joined to every exposed equation.  The over sweep walked
    # it from the root's children in order, so its postorder plus the root
    # is the digraph's postorder.
    adj, rev = model._index
    eq_match = coarse.eq_match
    root = len(adj)
    post = coarse.post + [root]
    rank = [-1] * (root + 1)
    for k, v in enumerate(post):
        rank[v] = k
    order = post[-2::-1]
    # An exposed equation's only predecessor is the root; a matched one's are
    # the other overdetermined equations that contain its matched unknown.
    preds = [
        [root] if eq_match[v] < 0 else [e for e in rev[eq_match[v]] if rank[e] >= 0 and e != v]
        for v in order
    ]
    idom = [-1] * (root + 1)
    idom[root] = root
    changed = True
    while changed:
        changed = False
        for v, v_preds in zip(order, preds):
            new = -1
            for p in v_preds:
                if idom[p] < 0:
                    continue
                if new < 0:
                    new = p
                    continue
                # Walk both up the tree built so far to their common dominator.
                while p != new:
                    while rank[p] < rank[new]:
                        p = idom[p]
                    while rank[new] < rank[p]:
                        new = idom[new]
            if idom[v] != new:
                idom[v] = new
                changed = True
    # A dominator precedes what it dominates in reverse postorder.
    top = [-1] * root
    for v in order:
        top[v] = v if idom[v] == root else top[idom[v]]
    return top


def _by_block(top: list[int], names: Iterable[str | None]) -> dict[int, list[str]]:
    # Names, one per equation, grouped by that equation's block id; None
    # names are skipped, and -1 collects the equations outside every block.
    groups: dict[int, list[str]] = {}
    for block, name in zip(top, names):
        if name is not None:
            groups.setdefault(block, []).append(name)
    return groups


def _canonical_partition(cells: Iterable[Iterable[str]]) -> tuple[frozenset[str], ...]:
    return tuple(sorted(map(frozenset, cells), key=sorted))


def dm_decompose(model: StructuralModel) -> DmDecomposition:
    """Coarse DM decomposition plus fine blocks of the overdetermined part.

    The result is canonical and exact: it does not depend on the declaration
    order of equations or unknowns, and each fine block is exactly the set
    of equations that removing any one of its members expels from the
    overdetermined part.

    Fine blocks come from one dominator tree.  Take one maximum matching and
    the digraph over the overdetermined equations with an edge e -> e' when
    e contains the unknown matched to e', rooted at a super-source joined to
    every exposed equation.  Two equations share a block exactly when some
    equation dominates both, so the blocks are the subtrees under the
    root's children: removing a child expels exactly the equations it
    dominates.  These are the parallel classes of the strict gammoid dual
    to the equations' transversal matroid (Ingleton & Piff, JCT-B 1973),
    the equivalence classes of M+ in Krysander, Aslund & Nyberg (IEEE
    TSMC-A 2008).  Immediate dominators come from the iteration of Cooper,
    Harvey & Kennedy, "A simple, fast dominance algorithm" (2001), over
    reverse postorder.  Cost: one matching, two alternating sweeps for the
    coarse parts, the first of which gives that postorder, and a dominator
    pass over the E incidence edges that is near-linear in practice, with
    no recursion and no model rebuilt.
    """
    coarse = _coarse_parts(model)
    blocks = _by_block(_fine_blocks(model, coarse), model.equations)
    blocks.pop(-1, None)
    return DmDecomposition(*_named_parts(model, coarse), _canonical_partition(blocks.values()))


def isolability_partition(model: StructuralModel) -> IsolabilityReport:
    """Group detectable faults into maximal mutually-non-isolable sets.

    Faults whose equations share a fine block of the overdetermined part
    are mutually non-isolable; all other detectable pairs are isolable.
    The faults are grouped by their equations' integer block ids, so no
    equation or block is named on the way.
    """
    top = _fine_blocks(model, _coarse_parts(model))
    cells = _by_block(top, (fault for _, _, fault in model.rows))
    non_detectable = frozenset(cells.pop(-1, ()))
    partition = _canonical_partition(cells.values())
    return IsolabilityReport(frozenset().union(*partition), partition, non_detectable)


def partition_matrix(report: IsolabilityReport) -> IsolabilityMatrix:
    """Non-isolability matrix induced by a report's partition cells.

    The faults of one cell have equal rows, so each cell builds its row
    once, True at the cell's columns, and every fault of the cell shares
    that tuple.  Cost: one pass over the faults plus O(|cell|) steps per
    cell, with the rows' D entries filled by list copying.
    """
    order = tuple(sorted(report.detectable))
    cell_index = report._cell_index
    columns: list[list[int]] = [[] for _ in report.non_isolable_partition]
    for j, fault in enumerate(order):
        columns[cell_index[fault]].append(j)
    rows = []
    for cell_columns in columns:
        row = [False] * len(order)
        for j in cell_columns:
            row[j] = True
        rows.append(tuple(row))
    return IsolabilityMatrix(order, tuple(rows[cell_index[fault]] for fault in order))
