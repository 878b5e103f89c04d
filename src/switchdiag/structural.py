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

Everything follows from one maximum matching, whose failed augmenting-path
searches are the over sweep from the exposed equations (Pothen & Fan, ACM
TOMS 1990); a failed search never succeeds later (Kuhn 1955), so those made
before the last success are swept again, once, under the final marks.  The
under sweep from the exposed unknowns, over the reverse adjacency, runs only
when there is one.  The fine blocks come from the dominator tree of the
alternating digraph over the overdetermined equations, rooted at a
super-source joined to every exposed equation: two equations share a block
exactly when one equation dominates both, so the blocks are the subtrees
under the root's children.  They are the parallel classes of the strict
gammoid dual to the equations' transversal matroid (Ingleton & Piff, JCT-B
1973), the equivalence classes of the overdetermined part in Krysander,
Aslund & Nyberg (IEEE TSMC-A 2008).  Dominators are computed by the iteration
of Cooper, Harvey & Kennedy, "A simple, fast dominance algorithm" (2001).
The over sweep walks exactly that digraph, and its postorder is the order
the dominator pass iterates, so the fine-block pass walks nothing itself.
Coarse parts and fine blocks are integer codes, one per equation:
:func:`isolability_partition` groups the faults' reported names by their
equations' block ids, and names are built only by :func:`dm_decompose` and
the reports.  All of it is iterative, so path lengths are not bounded by
the recursion limit.  The worst cases are quadratic: the matching is O(V·E)
over V vertices and E incidence edges, and the dominator iteration makes up
to N+1 passes over the E edges for N overdetermined equations (the comb and
ladder families in ROADMAP.md).

The public fields of every type are fixed at construction, and all
operations are pure functions of their inputs.  A model's integer adjacency
and its name-keyed ``incidence``, and a report's fault-to-cell index, are
caches filled on first use; a flattened switched model comes with its
adjacency, and a re-guarded one shares the rows it leaves unchanged.  No
result depends on a cache or on the order of calls, so models and reports
can be shared freely across threads.
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
    def _index(self) -> list[list[int]]:
        """Integer adjacency in declaration order: equation -> unknowns.

        Built on first use; re-guarded models share unchanged rows, so nothing may mutate them.
        """
        var_index = {x: j for j, x in enumerate(self.unknowns)}
        return [sorted([var_index[x] for x in row_unknowns]) for _, row_unknowns, _ in self.rows]


def _transpose(adj: list[list[int]], width: int) -> list[list[int]]:
    # Unknown -> the equations it occurs in, ascending.
    rev: list[list[int]] = [[] for _ in range(width)]
    for i, row in enumerate(adj):
        for j in row:
            rev[j].append(i)
    return rev


def _trusted(rows: tuple, unknowns: tuple, adj: list, base: StructuralModel | None = None):
    # A model whose caller made StructuralModel's checks: unique names, rows
    # within ``unknowns``.  ``adj`` is its sorted integer adjacency, so
    # ``_index`` is never derived from names; a model named as ``base``
    # shares its equations and faults.
    fault_map = {f: eq for eq, _, f in rows if f is not None} if base is None else base.fault_map
    model = object.__new__(StructuralModel)
    vars(model).update(
        rows=rows, unknowns=unknowns, _index=adj, fault_map=fault_map,
        equations=tuple(eq for eq, _, _ in rows) if base is None else base.equations,
        faults=tuple(fault_map) if base is None else base.faults,
    )
    return model


def _reguard(base: StructuralModel, patches: Iterable[Iterable[tuple]]) -> StructuralModel:
    # ``base`` with rows replaced: each patch holds ``(position, row, sorted
    # integer row)`` triples, built and checked by its caller.  Names, faults
    # and unknowns stay those of ``base``, whose construction checked them,
    # so they are shared, and so are the integer rows no patch replaces.
    rows = list(base.rows)
    adj = list(base._index)
    for patch in patches:
        for i, row, adj_row in patch:
            rows[i] = row
            adj[i] = adj_row
    return _trusted(tuple(rows), base.unknowns, adj, base)


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


# Coarse part codes: 2 * (reached by the over sweep) + (reached by the
# under sweep), so a vertex both sweeps reached would read 3.
_JUST, _UNDER, _OVER, _MET = 0, 1, 2, 3


def _matching(model: StructuralModel) -> tuple[list[int], list[int], list[int], list[int]]:
    # Maximum matching as index maps equation -> unknown and unknown ->
    # equation, -1 where exposed: a greedy pass, then one augmenting-path
    # search per equation the greedy pass left exposed.  Its failed searches
    # are the over sweep: also returned are the overdetermined equations in
    # that sweep's postorder and each unknown's code, _OVER or _JUST.
    adj = model._index
    eq_match = [-1] * len(adj)
    var_match = [-1] * len(model.unknowns)
    for i, row in enumerate(adj):
        for x in row:
            if var_match[x] < 0:
                eq_match[i] = x
                var_match[x] = i
                break
    # An unknown a failed search visited leads to no exposed unknown while
    # the matching stays as it is, so its mark holds until a search succeeds.
    seen = [-1] * len(var_match)
    stamp = 0
    post: list[int] = []
    last = 0
    for i in range(len(adj)):
        path = _sweep(adj, var_match, i, seen, stamp, post) if eq_match[i] < 0 else None
        if path is not None:
            # Each equation on the path takes the unknown its successor was
            # entered through, its old partner; the last takes the exposed one.
            x = path.pop()
            for eq in reversed(path):
                x, eq_match[eq] = eq_match[eq], x
                var_match[eq_match[eq]] = eq
            stamp += 1
            post.clear()
            last = i
    # The searches after the last success swept the final digraph.  Those
    # before it are swept again under the final marks; a failed search never
    # succeeds later (Kuhn 1955), so they stay exposed and find no path.
    for i in range(last):
        if eq_match[i] < 0 and _sweep(adj, var_match, i, seen, stamp, post) is not None:
            raise InternalConsistencyError("DM sweep met an exposed vertex; matching not maximum")
    return eq_match, var_match, post, [_OVER if s == stamp else _JUST for s in seen]


def max_matching(model: StructuralModel) -> frozenset[tuple[str, str]]:
    """Maximum bipartite matching as its (equation, unknown) pairs.

    Computed iteratively (no recursion, whatever the path lengths) by a
    greedy pass followed by augmenting-path searches.  Deterministic for a
    fixed declaration order of equations and unknowns; which maximum
    matching is returned may change when that order changes.
    Kept for the ``structural.max_matching.s`` timing in ``benchmarks/run.py``.
    """
    eq_match = _matching(model)[0]
    return frozenset(
        (model.equations[i], model.unknowns[x]) for i, x in enumerate(eq_match) if x >= 0
    )


class _Coarse(NamedTuple):
    # The coarse part of each equation and unknown, the maximum matching,
    # and the overdetermined equations in the over sweep's postorder, which
    # the dominator pass iterates.
    eq_part: list[int]
    var_part: list[int]
    eq_match: list[int]
    var_match: list[int]
    post: list[int]


def _coarse_parts(model: StructuralModel) -> _Coarse:
    eq_match, var_match, post, var_part = _matching(model)

    # Overdetermined part: everything alternating-reachable from equations
    # left exposed by a maximum matching, which the matching swept.
    # Underdetermined part: the dual sweep from exposed unknowns, over the
    # reverse adjacency.  Its marks are its code in the equations' part list;
    # the over equations' code is added only once it is done.
    eq_part = [_JUST] * len(eq_match)
    if -1 in var_match:
        rev = _transpose(model._index, len(var_match))
        under_post: list[int] = []
        for x, partner in enumerate(var_match):
            # A maximum matching admits no augmenting path.
            if partner < 0 and _sweep(rev, eq_match, x, eq_part, _UNDER, under_post) is not None:
                raise InternalConsistencyError("DM sweep met an exposed vertex; matching not maximum")
        for x in under_post:
            var_part[x] += _UNDER
    for i in post:
        eq_part[i] += _OVER
    # Nor can the two sweeps meet.
    if _MET in eq_part or _MET in var_part:
        raise InternalConsistencyError("DM sweeps overlap; matching was not maximum")
    if eq_part.count(_JUST) != var_part.count(_JUST):
        raise InternalConsistencyError("just-determined part is not square")
    return _Coarse(eq_part, var_part, eq_match, var_match, post)


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
    # it from the root's children in turn, so its postorder plus the root
    # is the digraph's postorder.
    adj = model._index
    eq_match, var_match = coarse.eq_match, coarse.var_match
    root = len(adj)
    post = coarse.post + [root]
    rank = [-1] * (root + 1)
    for k, v in enumerate(post):
        rank[v] = k
    order = post[-2::-1]
    # An exposed equation's only predecessor is the root; a matched one's are
    # the other overdetermined equations that contain its matched unknown.
    into: list[list[int]] = [[] for _ in range(root)]
    for e, row in enumerate(adj):
        if rank[e] >= 0:
            for x in row:
                if var_match[x] != e:
                    into[var_match[x]].append(e)
    preds = [[root] if eq_match[v] < 0 else into[v] for v in order]
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


def _canonical_partition(cells: Iterable[Iterable[str]]) -> tuple[frozenset[str], ...]:
    # Cells are disjoint and non-empty, so their least members differ and
    # order them as their sorted lists would.
    return tuple(sorted(map(frozenset, cells), key=min))


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
    reverse postorder.  Cost: one matching, whose failed searches give the
    overdetermined part and that postorder, an under sweep only when an
    unknown is exposed, and the dominator iteration, with no recursion and
    no model rebuilt.  Worst cases: O(V·E) for the matching over V vertices
    and E incidence edges, and up to N+1 dominator passes over the E edges
    for N overdetermined equations (the comb and ladder families in ROADMAP.md).
    """
    coarse = _coarse_parts(model)
    blocks: dict[int, list[str]] = {}
    for block, eq in zip(_fine_blocks(model, coarse), model.equations):
        if block >= 0:
            blocks.setdefault(block, []).append(eq)
    return DmDecomposition(*_named_parts(model, coarse), _canonical_partition(blocks.values()))


def isolability_partition(
    model: StructuralModel, names: Mapping[str, str] | None = None
) -> IsolabilityReport:
    """Group detectable faults into maximal mutually-non-isolable sets.

    Faults whose equations share a fine block of the overdetermined part
    are mutually non-isolable; all other detectable pairs are isolable.
    ``names`` maps each fault to the name reports use (by default its own),
    such as an aggregate for its constituents: a name is detectable when any
    of its faults is, and the blocks holding one name are merged.  Faults
    are grouped by integer block ids, so no equation or block is named.
    """
    top = _fine_blocks(model, _coarse_parts(model))
    # Union-find over block ids: each name keeps the first block it appeared
    # in, and every later block holding it joins that one.
    parent = list(range(len(top)))

    def find(block: int) -> int:
        while parent[block] != block:
            parent[block] = parent[parent[block]]
            block = parent[block]
        return block

    home: dict[str, int] = {}
    hidden: set[str] = set()
    for block, (_, _, fault) in zip(top, model.rows):
        if fault is None:
            continue
        name = fault if names is None else names.get(fault)
        if name is None:
            raise InputError(f"report fault {fault!r} is absent from the catalogue")
        if block < 0:
            hidden.add(name)
        elif home.setdefault(name, block) != block:
            parent[find(block)] = find(home[name])
    cells: dict[int, list[str]] = {}
    for name, block in home.items():
        cells.setdefault(find(block), []).append(name)
    partition = _canonical_partition(cells.values())
    return IsolabilityReport(frozenset(home), partition, frozenset(hidden.difference(home)))
