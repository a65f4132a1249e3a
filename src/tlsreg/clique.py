"""Scale-consistency pruning and exact maximum-clique inlier selection.

After scale voting, edges whose scale measurement disagrees with the
estimate are dropped; mutually consistent inliers then form a clique of
the surviving graph, so the maximum clique is the inlier candidate set.

`max_clique` first grows a greedy clique (highest degree first), then
peels every vertex left with fewer neighbours than that seed needs to be
tied.  Both keep degrees up to date as vertices drop out, so each costs
O(n^2) in all.  The seed survives the peel, and any clique at least as
large lies inside the peeled core; when the core is the seed, the seed is
the only maximum clique and is returned at once.  Otherwise the core, in
degeneracy order, goes to an exact branch-and-bound search with a
greedy-coloring bound on Python-int bitsets.

Pruning gives the agreeing pairs, and a pruned graph, a dense adjacency,
may cover only some of the vertices; the searches answer in the original
ids.  `max_clique_of_candidates` takes counts that bound each vertex's
degree: the scale votes at unknown scale, the degrees themselves at known
scale.  It searches only the vertices whose count allows a clique of a
given size, and gives the whole graph's answer.  At N = 1000, 99%
outliers and known scale those are 10-15 vertices.  The peel still earns
its place there: it leaves only the seed, which is returned without a
search, and a search takes a median of 0.18 ms with it against 0.38 ms
without.

When the certifier rejects the rotation found on it, `next_clique` gives
the one fallback: the best maximum clique left after dropping one of its
vertices.  Every search stops at a wall-clock deadline and says whether
it finished.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

import numpy as np

from .invariants import MeasurementGraph

# The package ships no compiled extension; kept for tools that record it.
COMPILED_KERNEL = False
DEFAULT_TIME_BUDGET = 10.0
_DEADLINE_CHECK_INTERVAL = 4096


@dataclass(frozen=True)
class PrunedGraph:
    """Symmetric adjacency over correspondence vertices, no self-loops.

    Row r is vertex vertices[r]; without vertices, row r is vertex r.
    """

    adj: np.ndarray  # (n, n) bool
    vertices: np.ndarray | None = None  # (n,) sorted original vertex ids

    @classmethod
    def from_edges(cls, n: int, edges, vertices=None) -> "PrunedGraph":
        """The graph over n rows with the edges (i, j), two arrays of rows,
        i != j."""
        i, j = edges
        adj = np.zeros((n, n), dtype=bool)
        adj.ravel()[i * n + j] = True
        adj |= adj.T
        return cls(adj, vertices)

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
    Degenerate (zero-length) edges carry no scale measurement and are
    dropped here regardless.
    """
    edges = graph.trims.consistent_with(s_hat, cbar_sq, vertices)
    n = len(graph.tims.source) if vertices is None else len(vertices)
    return PrunedGraph.from_edges(n, edges, vertices)


def _drop(adj: np.ndarray, cand: np.ndarray, deg: np.ndarray, keep: np.ndarray):
    """Keep cand[keep]; each survivor loses its edges to the dropped vertices.

    deg[i] counts the neighbours of cand[i] inside cand, before and after.
    adj is symmetric, so the losses are column sums over the dropped rows:
    dropping every vertex once reads each row once.
    """
    kept, gone = cand[keep], cand[~keep]
    return kept, deg[keep] - adj[gone][:, kept].sum(axis=0)


def _greedy_clique(adj: np.ndarray, deg: np.ndarray) -> list[int]:
    """Deterministic greedy clique: highest degree first, smallest id on ties."""
    cand = np.arange(adj.shape[0])
    clique = []
    while cand.size:
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


def max_clique(graph: PrunedGraph, time_budget: float = DEFAULT_TIME_BUDGET) -> CliqueResult:
    """Exact maximum clique, lexicographically smallest among ties, in
    original vertex ids.

    Returns the best clique found with is_certified_maximum=False when the
    wall-clock budget expires before the search completes.
    """
    adj = graph.adj
    if adj.shape[0] == 0:
        return CliqueResult(np.empty(0, dtype=np.int64), True)

    deadline = time.monotonic() + float(time_budget)
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
    graph: PrunedGraph, first: CliqueResult, time_budget: float = DEFAULT_TIME_BUDGET
) -> CliqueResult | None:
    """Fallback clique after `first`: the best maximum clique of G - v, v in first.

    "Best" is largest, then lexicographically smallest; None when `first`
    is empty.  The |first| searches share one deadline `time_budget`
    seconds away: each gets only the time the earlier ones left.
    """
    deadline = time.monotonic() + float(time_budget)
    children = []
    for v in graph.rows(first.vertices).tolist():
        rest = graph.adj.copy()
        rest[v, :] = False
        rest[:, v] = False
        children.append(
            max_clique(PrunedGraph(rest, graph.vertices), max(0.0, deadline - time.monotonic()))
        )
    return min(children, key=lambda c: (-len(c), c.vertices.tolist()), default=None)


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
