"""Scale-consistency pruning and exact maximum-clique inlier selection.

After scale voting, edges whose scale measurement disagrees with the
estimate are dropped; mutually consistent inliers then form a clique of
the surviving graph, so the maximum clique is the inlier candidate set.
When the certifier rejects the rotation found on it, `next_clique` gives
the one fallback: the best maximum clique left after dropping one of its
vertices.  Every search stops at a wall-clock deadline and says whether
it finished.

The exact branch-and-bound search (_bnb_py) runs on Python-int bitsets.
It takes a few percent of a registration call, so it has no compiled
twin.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

import numpy as np

from ..invariants import MeasurementGraph
from . import _bnb_py

# The package ships no compiled extension; kept for tools that record it.
COMPILED_KERNEL = False
DEFAULT_TIME_BUDGET = 10.0


@dataclass(frozen=True)
class PrunedGraph:
    """Symmetric adjacency over correspondence vertices, no self-loops."""

    adj: np.ndarray  # (n, n) bool

    @property
    def n_vertices(self) -> int:
        return self.adj.shape[0]

    @property
    def n_edges(self) -> int:
        return int(np.count_nonzero(self.adj)) // 2


@dataclass(frozen=True)
class CliqueResult:
    vertices: np.ndarray  # sorted original vertex indices
    is_certified_maximum: bool

    def __len__(self) -> int:
        return self.vertices.shape[0]


def graph_from_edges(n_vertices: int, edges) -> PrunedGraph:
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    adj = np.zeros((n_vertices, n_vertices), dtype=bool)
    if edges.shape[0]:
        if edges.min() < 0 or edges.max() >= n_vertices:
            raise ValueError("edge index out of range")
        adj[edges[:, 0], edges[:, 1]] = True
        adj[edges[:, 1], edges[:, 0]] = True
        np.fill_diagonal(adj, False)
    return PrunedGraph(adj)


def prune_by_scale(graph: MeasurementGraph, s_hat: float, cbar_sq: float) -> PrunedGraph:
    """Keep edges whose scale measurement satisfies |s_k - s_hat| <= cbar * alpha_k.

    Degenerate (zero-length) edges carry no scale measurement and are
    dropped here regardless.
    """
    trims = graph.trims
    keep = trims.consistent_with(s_hat, cbar_sq)
    edges = graph.topology.edge_pairs(trims.tim_rows[keep])
    return graph_from_edges(graph.topology.n_vertices, edges)


def _greedy_clique(adj: np.ndarray) -> list[int]:
    """Deterministic greedy clique: highest degree first, smallest id on ties."""
    n = adj.shape[0]
    cand = np.ones(n, dtype=bool)
    clique = []
    while True:
        degs = (adj & cand[None, :]).sum(axis=1)
        degs[~cand] = -1
        v = int(np.argmax(degs))
        if degs[v] < 0:
            break
        clique.append(v)
        cand &= adj[v]
        if not cand.any():
            break
    return clique


def _peel(adj: np.ndarray, min_degree: int) -> np.ndarray:
    """Drop vertices whose degree falls below min_degree, iteratively.

    A clique of size min_degree + 1 needs every member to keep at least
    min_degree neighbors, so removed vertices cannot belong to one.
    """
    active = np.ones(adj.shape[0], dtype=bool)
    while True:
        degs = (adj & active[None, :]).sum(axis=1)
        below = active & (degs < min_degree)
        if not below.any():
            return active
        active &= ~below


def _degeneracy_order(adj: np.ndarray, active: np.ndarray) -> list[int]:
    """Smallest-last ordering; ties broken by smallest vertex id."""
    BIG = 1 << 30
    degs = (adj & active[None, :]).sum(axis=1).astype(np.int64)
    degs[~active] = BIG
    order = []
    m = int(active.sum())
    for _ in range(m):
        v = int(np.argmin(degs))
        order.append(v)
        degs[adj[v]] -= 1
        degs[v] = BIG
    return order


def max_clique(graph: PrunedGraph, time_budget: float = DEFAULT_TIME_BUDGET) -> CliqueResult:
    """Exact maximum clique, lexicographically smallest among ties.

    Returns the best clique found with is_certified_maximum=False when the
    wall-clock budget expires before the search completes.
    """
    n = graph.n_vertices
    if n == 0:
        return CliqueResult(np.empty(0, dtype=np.int64), True)

    deadline = time.monotonic() + float(time_budget)
    adj = graph.adj

    seed = _greedy_clique(adj)
    if not seed:
        # No edges at all: every single vertex is a maximum clique.
        return CliqueResult(np.array([0], dtype=np.int64), True)

    # Vertices that could belong to a clique of size len(seed) keep degree
    # >= len(seed) - 1; the rest cannot even tie the greedy incumbent.
    active = _peel(adj, len(seed) - 1)
    order = _degeneracy_order(adj, active)
    order.reverse()  # densest core first
    remap = {v: i for i, v in enumerate(order)}
    m = len(order)
    seed_sub = [remap[v] for v in seed]

    # Row i of the reordered adjacency as an int: bit j set iff i ~ j.
    packed = np.packbits(adj[np.ix_(order, order)], axis=1, bitorder="little")
    raw, stride = packed.tobytes(), packed.shape[1]
    sub_neighbors = [
        int.from_bytes(raw[i * stride : (i + 1) * stride], "little") for i in range(m)
    ]
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, m + 1000))
    try:
        verts, completed = _bnb_py.run_search(sub_neighbors, order, seed_sub, deadline)
    finally:
        sys.setrecursionlimit(old_limit)

    result = np.array(sorted(verts), dtype=np.int64)
    _assert_clique(adj, result)
    return CliqueResult(result, bool(completed))


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
    for v in first.vertices.tolist():
        rest = graph.adj.copy()
        rest[v, :] = False
        rest[:, v] = False
        children.append(max_clique(PrunedGraph(rest), max(0.0, deadline - time.monotonic())))
    return min(children, key=lambda c: (-len(c), c.vertices.tolist()), default=None)
