"""Scale pruning and exact maximum-clique search."""

import itertools
import math
import time

import numpy as np
import pytest

import tlsreg.clique as cl
from helpers import graph_from_edges, trim_tables
from tlsreg.clique import (
    _degeneracy_order,
    _greedy_clique,
    _peel,
    max_clique,
    next_clique,
    prune_by_scale,
)
from tlsreg.geometry import CorrespondenceSet, quat_to_matrix, random_unit_quaternion
from tlsreg import invariants
from tlsreg.invariants import build_measurement_graph, degenerate_edge_cutoff

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


# References that recount every degree over the whole adjacency at each step.


def recount_greedy_clique(adj):
    cand = np.ones(adj.shape[0], dtype=bool)
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


def recount_peel(adj, min_degree):
    active = np.ones(adj.shape[0], dtype=bool)
    while True:
        degs = (adj & active[None, :]).sum(axis=1)
        below = active & (degs < min_degree)
        if not below.any():
            return active
        active &= ~below


def recount_degeneracy_order(adj, active):
    degs = (adj & active[None, :]).sum(axis=1).astype(np.int64)
    degs[~active] = 1 << 30
    order = []
    for _ in range(int(active.sum())):
        v = int(np.argmin(degs))
        order.append(v)
        degs[adj[v]] -= 1
        degs[v] = 1 << 30
    return order


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

    def test_out_of_range_edge_rejected(self):
        for edges in ([(0, 4)], [(-1, 2)]):
            with pytest.raises(ValueError, match="out of range"):
                graph_from_edges(4, edges)

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
        r = max_clique(graph_from_edges(n, edges), deadline=time.monotonic() + 1e-4)
        # Too little time to finish a dense 130-vertex instance: the search
        # stops at its first deadline check and returns its incumbent.
        assert not r.is_certified_maximum
        edge_set = set(edges)
        assert len(r) >= 3
        for a, b in itertools.combinations(r.vertices.tolist(), 2):
            assert (a, b) in edge_set

    def test_non_clique_from_the_search_is_rejected(self, monkeypatch):
        # A path 0-1-2 has no triangle; a search claiming one must not pass.
        # Its greedy seed has 2 vertices and its core 3, so it is searched.
        monkeypatch.setattr(cl, "run_search", lambda *args: ([0, 1, 2], True))
        with pytest.raises(AssertionError, match="non-clique"):
            max_clique(graph_from_edges(3, [(0, 1), (1, 2)]))

    def test_search_skipped_when_core_is_the_seed(self, monkeypatch):
        def no_search(*args):
            raise AssertionError("searched although the core is the seed")

        monkeypatch.setattr(cl, "run_search", no_search)
        r = max_clique(graph_from_edges(40, list(itertools.combinations(range(40), 2))))
        assert r.vertices.tolist() == list(range(40)) and r.is_certified_maximum

        # A 12-clique planted in sparse noise: the noise peels away.
        rng = np.random.default_rng(8)
        n = 200
        planted = sorted(rng.choice(n, size=12, replace=False).tolist())
        edges = random_graph(rng, n, 0.02) + list(itertools.combinations(planted, 2))
        r = max_clique(graph_from_edges(n, edges))
        assert r.vertices.tolist() == planted and r.is_certified_maximum

    def test_preprocessing_matches_full_recount(self):
        rng = np.random.default_rng(17)
        path = [(0, 1), (1, 2), (0, 2)] + [(i, i + 1) for i in range(2, 60)]
        cases = [graph_from_edges(n, random_graph(rng, n, float(rng.uniform(0.05, 0.95))))
                 for n in rng.integers(1, 61, size=200)]
        cases += [
            graph_from_edges(7, np.empty((0, 2))),
            graph_from_edges(200, list(itertools.combinations(range(200), 2))),
            graph_from_edges(61, path),
        ]
        for g in cases:
            adj = g.adj
            deg = np.count_nonzero(adj, axis=1)
            seed = _greedy_clique(adj, deg)
            assert seed == recount_greedy_clique(adj)
            active = recount_peel(adj, len(seed) - 1)
            core = _peel(adj, deg, len(seed) - 1)
            assert core.tolist() == np.flatnonzero(active).tolist()
            order = core[_degeneracy_order(adj[np.ix_(core, core)])]
            assert order.tolist() == recount_degeneracy_order(adj, active)


class TestGreedySeed:
    @staticmethod
    def counted_drops(monkeypatch):
        calls = []
        real = cl._drop

        def drop(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(cl, "_drop", drop)
        return calls

    def test_a_complete_graph_takes_no_step(self, monkeypatch):
        calls = self.counted_drops(monkeypatch)
        adj = graph_from_edges(200, list(itertools.combinations(range(200), 2))).adj
        assert _greedy_clique(adj, adj.sum(axis=1)) == list(range(200))
        assert calls == []

    def test_the_rest_joins_at_once_partway(self, monkeypatch):
        # A clique planted in sparse noise: the walk steps until the noise
        # around the clique has dropped out, then takes the rest at once.
        calls = self.counted_drops(monkeypatch)
        rng = np.random.default_rng(33)
        for n, m, p in [(60, 12, 0.05), (150, 75, 0.02), (200, 30, 0.1), (40, 39, 0.5)]:
            for _ in range(5):
                planted = rng.choice(n, size=m, replace=False)
                edges = random_graph(rng, n, p) + list(itertools.combinations(planted, 2))
                adj = graph_from_edges(n, edges).adj
                calls.clear()
                seed = _greedy_clique(adj, adj.sum(axis=1))
                assert seed == recount_greedy_clique(adj)
                assert 0 < len(calls) < len(seed) - 1

    def test_a_missing_edge_keeps_the_walk_going(self, monkeypatch):
        # K_n minus the edge (u, v): u and v stay candidates, not adjacent,
        # until the walk has taken every other vertex one by one.
        calls = self.counted_drops(monkeypatch)
        for n, (u, v) in [(2, (0, 1)), (3, (0, 2)), (10, (0, 1)), (50, (7, 31)), (50, (48, 49))]:
            edges = [e for e in itertools.combinations(range(n), 2) if e != (u, v)]
            adj = graph_from_edges(n, edges).adj
            calls.clear()
            seed = _greedy_clique(adj, adj.sum(axis=1))
            assert seed == recount_greedy_clique(adj)
            assert len(calls) == n - 1


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

    @pytest.mark.parametrize("block_entries", [invariants.BLOCK_ENTRIES, 100])
    def test_matches_brute_force_over_pairs(self, block_entries, monkeypatch):
        # 100 entries walk the 23 x 23 tables 4 rows at a time, the last
        # block 3 rows.
        monkeypatch.setattr(invariants, "BLOCK_ENTRIES", block_entries)
        n = 23

        def norm(p, i, j):
            # Squares and sums in coordinate order, as the tables do.
            d = [p[j, k] - p[i, k] for k in range(3)]
            return math.sqrt(d[0] * d[0] + d[1] * d[1] + d[2] * d[2])

        for seed in range(10):
            rng = np.random.default_rng(seed)
            src = rng.uniform(0, 1, size=(n, 3))
            src[11] = src[5]  # one coincident source pair
            dst = 2.0 * src @ quat_to_matrix(random_unit_quaternion(rng)).T
            dst[rng.choice(n, size=8, replace=False)] = rng.uniform(0, 2, size=(8, 3))
            c = CorrespondenceSet(src, dst, rng.uniform(0.005, 0.02, n))
            cbar_sq = float(rng.uniform(0.5, 4.0))
            s_hat = 2.0 * float(rng.uniform(0.99, 1.01))
            expected = np.zeros((n, n), dtype=bool)
            cutoff = degenerate_edge_cutoff(c)
            for i, j in itertools.combinations(range(n), 2):
                a = norm(src, i, j)
                if a > cutoff:
                    alpha = (c.noise_bounds[i] + c.noise_bounds[j]) / a
                    if abs(norm(dst, i, j) / a - s_hat) <= math.sqrt(cbar_sq) * alpha:
                        expected[i, j] = expected[j, i] = True
            pruned = prune_by_scale(build_measurement_graph(c), s_hat, cbar_sq)
            assert np.array_equal(pruned.adj, expected)
            assert not expected[5, 11] and 0 < pruned.n_edges < n * (n - 1) // 2

    def test_wildly_wrong_scale_empties_graph(self):
        g = self.make_graph(10, outlier_idx=[])
        s_bad = 2.0 + 10 * float(np.nanmax(trim_tables(g.trims)[1]))
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
        deadlines = []
        real = cl.max_clique

        def recording(graph, deadline):
            deadlines.append(deadline)
            return real(graph)

        monkeypatch.setattr(cl, "max_clique", recording)
        g = graph_from_edges(12, list(itertools.combinations(range(5, 12), 2)))
        deadline = time.monotonic() + 1.0
        next_clique(g, real(g), deadline=deadline)
        # Each of the 7 children stops at the caller's instant, as it is.
        assert deadlines == [deadline] * 7

    def test_a_cut_child_leaves_the_answer_uncertified(self, monkeypatch):
        # Every child after the first is cut and returns one vertex short of
        # its maximum clique, so the first child's certified clique is the
        # best; the answer still may have missed a larger one.
        real, calls = cl.max_clique, []

        def cut_after_first(graph, deadline):
            found = real(graph)
            calls.append(found)
            if len(calls) == 1:
                return found
            return cl.CliqueResult(found.vertices[:-1], False)

        g = graph_from_edges(12, list(itertools.combinations(range(5, 12), 2)))
        first = real(g)
        monkeypatch.setattr(cl, "max_clique", cut_after_first)
        r = next_clique(g, first)
        assert len(calls) == len(first)
        assert r.vertices.tolist() == calls[0].vertices.tolist()
        assert r.is_certified_maximum is False

    def test_an_empty_first_clique_gives_the_empty_clique(self):
        # The one return type: max_clique_of_candidates reads
        # is_certified_maximum from whatever a search hands it.
        g = graph_from_edges(4, [(0, 1), (1, 2), (0, 2)])
        r = next_clique(g, cl.CliqueResult(np.empty(0, dtype=np.int64), True))
        assert isinstance(r, cl.CliqueResult)
        assert r.vertices.tolist() == [] and r.is_certified_maximum is True
