"""Scale pruning and exact maximum-clique search."""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from tlsreg.clique import (
    _bnb_py,
    graph_from_edges,
    max_clique,
    next_clique,
    prune_by_scale,
)
from tlsreg.geometry import CorrespondenceSet, quat_to_matrix, random_unit_quaternion
from tlsreg.invariants import build_measurement_graph

RNG = np.random.default_rng(11)


def brute_force_max_clique(n, edges):
    """Exhaustive subset enumeration; lexicographically smallest winner."""
    adj = np.zeros((n, n), dtype=bool)
    for i, j in edges:
        adj[i, j] = adj[j, i] = True
    best = ()
    for r in range(n, 0, -1):
        winners = []
        for subset in itertools.combinations(range(n), r):
            if all(adj[a, b] for a, b in itertools.combinations(subset, 2)):
                winners.append(subset)
        if winners:
            best = min(winners)
            break
    return list(best)


def random_graph(rng, n, p):
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.uniform() < p
    ]
    return edges


class TestMaxClique:
    def test_complete_graph(self):
        edges = list(itertools.combinations(range(5), 2))
        r = max_clique(graph_from_edges(5, edges))
        assert r.vertices.tolist() == [0, 1, 2, 3, 4]
        assert r.is_certified_maximum

    def test_two_cliques_with_noise_edges(self):
        rng = np.random.default_rng(3)
        small = list(itertools.combinations(range(4), 2))
        big = list(itertools.combinations(range(5, 12), 2))
        noise = [(int(rng.integers(0, 5)), int(rng.integers(5, 12))) for _ in range(4)]
        edges = sorted(set(small + big + noise))
        r = max_clique(graph_from_edges(12, edges))
        assert r.vertices.tolist() == list(range(5, 12))

    def test_empty_graph(self):
        r = max_clique(graph_from_edges(0, np.empty((0, 2))))
        assert len(r) == 0 and r.is_certified_maximum

    def test_edgeless_graph(self):
        r = max_clique(graph_from_edges(4, np.empty((0, 2))))
        assert r.vertices.tolist() == [0]

    def test_matches_exhaustive_oracle(self):
        for trial in range(100):
            n = int(RNG.integers(4, 16))
            edges = random_graph(RNG, n, float(RNG.uniform(0.2, 0.9)))
            r = max_clique(graph_from_edges(n, edges))
            oracle = brute_force_max_clique(n, edges)
            assert len(r.vertices) == len(oracle), (n, edges)
            assert r.vertices.tolist() == oracle, (n, edges)

    def test_returned_set_is_always_a_clique(self):
        for _ in range(30):
            n = int(RNG.integers(5, 30))
            edges = random_graph(RNG, n, 0.4)
            g = graph_from_edges(n, edges)
            r = max_clique(g)
            adj = np.zeros((n, n), dtype=bool)
            for i, j in edges:
                adj[i, j] = adj[j, i] = True
            for a, b in itertools.combinations(r.vertices.tolist(), 2):
                assert adj[a, b]

    def test_budget_expiry_flags_result(self):
        rng = np.random.default_rng(5)
        n = 130
        edges = random_graph(rng, n, 0.92)
        r = max_clique(graph_from_edges(n, edges), time_budget=1e-4)
        # Too little time to finish a dense 130-vertex instance: the search
        # stops at its first deadline check and returns its incumbent.
        assert not r.is_certified_maximum
        edge_set = set(edges)
        assert len(r) >= 3
        for a, b in itertools.combinations(r.vertices.tolist(), 2):
            assert (a, b) in edge_set

    def test_non_clique_from_the_search_is_rejected(self, monkeypatch):
        # A path 0-1-2 has no triangle; a search claiming one must not pass.
        monkeypatch.setattr(_bnb_py, "run_search", lambda *args: ([0, 1, 2], True))
        with pytest.raises(AssertionError, match="non-clique"):
            max_clique(graph_from_edges(3, [(0, 1), (1, 2)]))


class TestPruneByScale:
    def make_graph(self, n, outlier_idx, scale=2.0, seed=0):
        rng = np.random.default_rng(seed)
        src = rng.uniform(0, 1, size=(n, 3))
        q = random_unit_quaternion(rng)
        dst = scale * src @ quat_to_matrix(q).T + rng.normal(size=3)
        for i in outlier_idx:
            dst[i] = rng.uniform(-5, 5, size=3)
        c = CorrespondenceSet(src, dst, np.full(n, 0.01))
        return build_measurement_graph(c)

    def test_noiseless_keeps_all_inlier_edges(self):
        g = self.make_graph(10, outlier_idx=[])
        pruned = prune_by_scale(g, 2.0, cbar_sq=1.0)
        assert pruned.n_edges == 45

    def test_outlier_vertex_edges_removed(self):
        hit = 0
        for seed in range(100):
            g = self.make_graph(11, outlier_idx=[10], seed=seed)
            pruned = prune_by_scale(g, 2.0, cbar_sq=1.0)
            if not np.any(pruned.adj[10]):
                hit += 1
        assert hit >= 95

    def test_wildly_wrong_scale_empties_graph(self):
        g = self.make_graph(10, outlier_idx=[])
        s_bad = 2.0 + 10 * float(np.max(g.trims.alpha))
        pruned = prune_by_scale(g, s_bad, cbar_sq=1.0)
        assert pruned.n_edges == 0


class TestInlierContainment:
    def test_maximum_clique_contains_all_true_inliers(self):
        # With mutually scale-consistent inliers, the max clique contains
        # them all or ties their count.
        for seed in range(20):
            rng = np.random.default_rng(seed)
            n, n_out = 20, 8
            src = rng.uniform(0, 1, size=(n, 3))
            q = random_unit_quaternion(rng)
            dst = src @ quat_to_matrix(q).T + rng.normal(size=3)
            out_idx = rng.choice(n, size=n_out, replace=False)
            for i in out_idx:
                dst[i] = rng.uniform(-5, 5, size=3)
            c = CorrespondenceSet(src, dst, np.full(n, 0.01))
            g = build_measurement_graph(c)
            pruned = prune_by_scale(g, 1.0, cbar_sq=1.0)
            r = max_clique(pruned)
            inliers = sorted(set(range(n)) - set(out_idx.tolist()))
            contained = set(inliers) <= set(r.vertices.tolist())
            assert contained or len(r) >= len(inliers)


class TestNextClique:
    def test_matches_best_of_vertex_deleted_oracle(self):
        # The fallback is the largest, then lexicographically smallest, of
        # the maximum cliques of G - v over the members v of the first one.
        rng = np.random.default_rng(21)
        for trial in range(60):
            n = int(rng.integers(4, 13))
            edges = random_graph(rng, n, float(rng.uniform(0.3, 0.9)))
            g = graph_from_edges(n, edges)
            first = max_clique(g)
            oracle = min(
                (
                    brute_force_max_clique(n, [e for e in edges if v not in e])
                    for v in first.vertices.tolist()
                ),
                key=lambda c: (-len(c), c),
            )
            r = next_clique(g, first)
            assert r.vertices.tolist() == oracle, (n, edges)
            assert r.is_certified_maximum
            assert len(r) <= len(first)
            assert not set(first.vertices.tolist()) <= set(r.vertices.tolist())

    def test_children_share_one_deadline(self, monkeypatch):
        import time

        import tlsreg.clique as cl

        clock = [time.monotonic()]
        budgets = []
        real = cl.max_clique

        def recording(graph, time_budget):
            budgets.append(time_budget)
            clock[0] += 0.25  # each search uses a quarter second of the fake clock
            return real(graph, 60.0)

        monkeypatch.setattr(cl, "max_clique", recording)
        monkeypatch.setattr(cl, "time", SimpleNamespace(monotonic=lambda: clock[0]))
        g = graph_from_edges(12, list(itertools.combinations(range(5, 12), 2)))
        next_clique(g, real(g), time_budget=1.0)
        # Each of the 7 children gets what the earlier ones left of the deadline.
        assert budgets == pytest.approx([1.0, 0.75, 0.5, 0.25, 0, 0, 0])
