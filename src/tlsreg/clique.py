"""Scale-consistency pruning and exact maximum-clique inlier selection.

After scale voting, edges whose scale measurement disagrees with the
estimate are dropped; mutually consistent inliers then form a clique of
the surviving graph, so the maximum clique is the inlier candidate set.

`max_clique` first grows a greedy clique (highest degree first), then
peels every vertex left with fewer neighbours than that seed needs to be
tied.  Both keep degrees up to date as vertices drop out, reading each
dropped vertex's row once, so each costs O(n^2) at most.  The greedy walk
stops once its candidates are pairwise adjacent, which the degrees show
in O(n), and takes them all in the order it would have taken them one by
one; it steps only until the vertices outside that clique have dropped
out.  A complete graph of 1000 vertices takes no step: its `max_clique`
takes 0.7 ms, against 21 ms at one step per member, and the cliques of
about 75 of the dense50_n150 workload take 0.03-0.05 ms of CPU time,
against 0.7-1.2 ms (one core, 2-core machine).  The seed survives the
peel, and any clique at least as large lies inside the peeled core; when
the core is the seed, the seed is the only maximum clique and is returned
at once.  Otherwise the core, in degeneracy order, goes to an exact
branch-and-bound search with a greedy-coloring bound on Python-int
bitsets.

Pruning writes the exact scale test straight into a dense adjacency, a
block of rows at a time, and a pruned graph may cover only some of the
vertices; the searches answer in the original ids.
`max_clique_of_candidates` takes counts that bound each vertex's degree:
the scale votes at unknown scale, the degrees themselves at known scale.
It searches only the vertices whose count allows a clique of a given
size, and gives the whole graph's answer.  At N = 1000, 99%
outliers and known scale those are 10-15 vertices.  The peel still earns
its place there: it leaves only the seed, which is returned without a
search, and a search takes a median of 0.18 ms with it against 0.38 ms
without.

When the certifier rejects the rotation found on it, `next_clique` gives
the one fallback: the best maximum clique left after dropping one of its
vertices.  For a first clique of m it has m - 1 vertices or more, so the
pipeline's retry searches V_(m-1) through `max_clique_of_candidates`,
which then never widens.  Every search stops at a deadline, an instant of
`time.monotonic()` that the caller fixes (none by default), and says
whether it finished.  Only the search's node count reads the clock, so
every search given one deadline stops at the same instant.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from .invariants import MeasurementGraph, row_blocks, scale_consistent

# The package ships no compiled extension; kept for tools that record it.
COMPILED_KERNEL = False
_DEADLINE_CHECK_INTERVAL = 4096


@dataclass(frozen=True)
class PrunedGraph:
    """Symmetric adjacency over correspondence vertices, no self-loops.

    Row r is vertex vertices[r]; without vertices, row r is vertex r.
    """

    adj: np.ndarray  # (n, n) bool
    vertices: np.ndarray | None = None  # (n,) sorted original vertex ids

    @property
    def n_edges(self) -> int:
        return int(np.count_nonzero(self.adj)) // 2

    def ids(self, rows: np.ndarray) -> np.ndarray:
        """Original vertex ids of the rows."""
        return rows if self.vertices is None else self.vertices[rows]

    def rows(self, ids: np.ndarray) -> np.ndarray:
        """Rows of the original vertex ids, each of which must be present."""
        return ids if self.vertices is None else np.searchsorted(self.vertices, ids)


@dataclass(frozen=True)
class CliqueResult:
    vertices: np.ndarray  # sorted original vertex indices
    is_certified_maximum: bool

    def __len__(self) -> int:
        return self.vertices.shape[0]


def prune_by_scale(
    graph: MeasurementGraph, s_hat: float, cbar_sq: float, vertices=None
) -> PrunedGraph:
    """Keep edges whose scale measurement satisfies |s_k - s_hat| <= cbar * alpha_k.

    The graph is over `vertices` (sorted ids), every vertex by default.
    Each block of rows runs the exact test on its upper rectangle
    [rows, r0:] straight into the adjacency, which then takes its
    transpose.  Degenerate (zero-length) edges carry no scale measurement
    and are dropped here regardless.
    """
    ids = np.arange(len(graph.tims.source)) if vertices is None else np.asarray(vertices)
    n = len(ids)
    adj = np.zeros((n, n), dtype=bool)
    for block in row_blocks(n):
        r0 = block.start
        s_meas, alpha = graph.trims.at(ids[block, None], ids[None, r0:])
        scale_consistent(s_meas, alpha, s_hat, cbar_sq, adj[block, r0:])
    adj |= adj.T
    return PrunedGraph(adj, vertices)


def _drop(adj: np.ndarray, cand: np.ndarray, deg: np.ndarray, keep: np.ndarray):
    """Keep cand[keep]; each survivor loses its edges to the dropped vertices.

    deg[i] counts the neighbours of cand[i] inside cand, before and after.
    adj is symmetric, so the losses are column sums over the dropped rows:
    dropping every vertex once reads each row once.
    """
    kept, gone = cand[keep], cand[~keep]
    return kept, deg[keep] - adj[gone][:, kept].sum(axis=0)


def _greedy_clique(adj: np.ndarray, deg: np.ndarray) -> list[int]:
    """Deterministic greedy clique: highest degree first, smallest id on ties.

    Once every candidate is adjacent to every other, all their degrees tie
    and stay tied, so the walk would take them one by one in id order: they
    join at once.
    """
    cand = np.arange(adj.shape[0])
    clique = []
    while cand.size:
        if deg.min() == cand.size - 1:
            clique.extend(cand.tolist())
            break
        v = int(cand[np.argmax(deg)])
        clique.append(v)
        cand, deg = _drop(adj, cand, deg, adj[v, cand])
    return clique


def _peel(adj: np.ndarray, deg: np.ndarray, min_degree: int) -> np.ndarray:
    """Ids of the vertices left once every vertex of degree < min_degree is dropped.

    A clique of size min_degree + 1 needs every member to keep at least
    min_degree neighbors, so dropped vertices cannot belong to one.
    """
    cand = np.arange(adj.shape[0])
    while True:
        keep = deg >= min_degree
        if keep.all():
            return cand
        cand, deg = _drop(adj, cand, deg, keep)


def _degeneracy_order(adj: np.ndarray) -> list[int]:
    """Smallest-last ordering; ties broken by smallest vertex id."""
    BIG = 1 << 30
    degs = adj.sum(axis=1)
    order = []
    for _ in range(adj.shape[0]):
        v = int(np.argmin(degs))
        order.append(v)
        degs[adj[v]] -= 1
        degs[v] = BIG
    return order


def max_clique(graph: PrunedGraph, deadline: float = math.inf) -> CliqueResult:
    """Exact maximum clique, lexicographically smallest among ties, in
    original vertex ids.

    Returns the best clique found with is_certified_maximum=False when the
    search is still running at `deadline`, a `time.monotonic()` instant.
    """
    adj = graph.adj
    if adj.shape[0] == 0:
        return CliqueResult(np.empty(0, dtype=np.int64), True)

    deg = adj.sum(axis=1)
    seed = _greedy_clique(adj, deg)
    # Vertices that could belong to a clique of size len(seed) keep degree
    # >= len(seed) - 1; the rest cannot even tie the greedy incumbent.
    core = _peel(adj, deg, len(seed) - 1).astype(np.int64, copy=False)
    if core.size == len(seed):
        # Every clique as large as the seed lies in the core: it is the seed.
        return CliqueResult(graph.ids(core), True)

    # take() keeps the rows contiguous (a[r][:, c] would not); they are read one by one.
    sub = adj[core].take(core, axis=1)
    order = _degeneracy_order(sub)
    order.reverse()  # densest core first
    # Row i of the reordered adjacency as an int: bit j set iff i ~ j.
    packed = np.packbits(sub[order].take(order, axis=1), axis=1, bitorder="little")
    raw, stride = packed.tobytes(), packed.shape[1]
    neighbors = [
        int.from_bytes(raw[i * stride : (i + 1) * stride], "little") for i in range(len(order))
    ]
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, len(order) + 1000))
    try:
        verts, completed = run_search(neighbors, core[order].tolist(), seed, deadline)
    finally:
        sys.setrecursionlimit(old_limit)

    result = np.array(sorted(verts), dtype=np.int64)
    _assert_clique(adj, result)
    return CliqueResult(graph.ids(result), bool(completed))


def size_bound(counts: np.ndarray) -> int:
    """The largest m such that m vertices have a count >= m - 1.

    When each count bounds its vertex's degree from above, no clique has
    more vertices: each member of a clique of m has m - 1 neighbours.
    """
    return int(np.count_nonzero(-np.sort(-counts) >= np.arange(counts.size)))


def candidates(counts: np.ndarray, k: int) -> np.ndarray:
    """V_k: the vertices whose count is at least k - 1.

    When each vertex's count bounds its degree from above, as its degree
    does at known scale and its scale vote at any scale, V_k holds every
    clique of k or more vertices: each member has k - 1 neighbours or more.
    """
    return np.flatnonzero(counts >= k - 1)


def max_clique_of_candidates(
    search, counts: np.ndarray, k: int
) -> tuple[PrunedGraph, CliqueResult]:
    """Maximum clique, as max_clique gives it on the whole graph, searching
    only candidates.

    search(vertices) returns the graph over the sorted vertices and its
    max_clique.  V_k is searched first (see candidates): a clique of
    m >= k found there is the maximum, ties included, as V_m, part of V_k,
    holds every clique of m or more.  A smaller one sends the search once
    to V_m, which holds every clique at least as large, unless V_m is V_k;
    raising k to m + 1 instead would never end when m = k - 1.  Returns
    the graph last searched and its clique, certified only when every
    search finished.
    """
    pruned, found = search(candidates(counts, k))
    completed = found.is_certified_maximum
    if len(found) < k:
        wider = candidates(counts, len(found))
        if wider.size > len(pruned.adj):
            pruned, found = search(wider)
            completed = completed and found.is_certified_maximum
    return pruned, CliqueResult(found.vertices, completed)


def _assert_clique(adj: np.ndarray, vertices: np.ndarray) -> None:
    """Raise unless every two distinct vertices are adjacent in the dense adjacency."""
    sub = adj[np.ix_(vertices, vertices)]
    np.fill_diagonal(sub, True)
    if not sub.all():
        raise AssertionError("search returned a non-clique vertex set")


def next_clique(
    graph: PrunedGraph, first: CliqueResult, deadline: float = math.inf
) -> CliqueResult:
    """Fallback clique after `first`: the best maximum clique of G - v, v in first.

    "Best" is largest, then lexicographically smallest, so the answer is
    the best clique that does not contain all of `first`; the empty
    clique, certified, when `first` is empty.  When no clique of m - 1 or
    more vertices (m = |first|) exists other than the subsets of `first`,
    that is `first` minus its largest vertex id, which need not be an
    outlier.  The |first| searches share the one
    deadline, so each gets only the time the earlier ones left.  It is
    certified only when every search finished.
    """
    children = []
    for v in graph.rows(first.vertices).tolist():
        rest = graph.adj.copy()
        rest[v, :] = False
        rest[:, v] = False
        children.append(max_clique(PrunedGraph(rest, graph.vertices), deadline))
    # There are no children only when first is empty, and so is the answer.
    best = min(children, key=lambda c: (-len(c), c.vertices.tolist()), default=first)
    completed = all(c.is_certified_maximum for c in children)
    return CliqueResult(best.vertices, completed)


# Branch-and-bound with a greedy-coloring upper bound.  Subtrees are pruned
# only when they cannot even TIE the incumbent, so every maximum clique
# stays reachable, and the incumbent update rule (strictly larger wins;
# equal size wins only if lexicographically smaller in original vertex
# ids) makes the result the lexicographically smallest maximum clique.


class _Expired(Exception):
    pass


class _Search:
    def __init__(self, neighbors, orig_ids, seed_clique, deadline):
        self.neighbors = neighbors
        self.orig_ids = orig_ids
        self.deadline = deadline
        self.nodes = 0
        self.best_size = len(seed_clique)
        self.best = tuple(sorted(seed_clique))

    def _tick(self):
        self.nodes += 1
        if self.nodes % _DEADLINE_CHECK_INTERVAL == 0 and time.monotonic() > self.deadline:
            raise _Expired

    def _offer(self, stack):
        if len(stack) < self.best_size:
            return
        ids = tuple(sorted(self.orig_ids[v] for v in stack))
        if len(stack) > self.best_size or ids < self.best:
            self.best_size = len(stack)
            self.best = ids

    def _color(self, P):
        """Greedy coloring; returns vertices with nondecreasing color."""
        order = []
        colors = []
        uncolored = P
        color = 0
        while uncolored:
            color += 1
            q = uncolored
            while q:
                v = (q & -q).bit_length() - 1
                order.append(v)
                colors.append(color)
                bit = 1 << v
                uncolored ^= bit
                q = (q ^ bit) & ~self.neighbors[v]
        return order, colors

    def expand(self, stack, P):
        self._tick()
        order, colors = self._color(P)
        neighbors = self.neighbors
        for idx in range(len(order) - 1, -1, -1):
            if len(stack) + colors[idx] < self.best_size:
                return
            v = order[idx]
            stack.append(v)
            new_p = P & neighbors[v]
            if new_p:
                if len(stack) + new_p.bit_count() >= self.best_size:
                    self.expand(stack, new_p)
            else:
                self._offer(stack)
            stack.pop()
            P &= ~(1 << v)


def run_search(neighbors, orig_ids, seed_clique, deadline):
    """Search the whole graph from the seed (original ids); returns (clique ids, completed)."""
    search = _Search(neighbors, orig_ids, seed_clique, deadline)
    try:
        search.expand([], (1 << len(neighbors)) - 1)
        return list(search.best), True
    except _Expired:
        return list(search.best), False
