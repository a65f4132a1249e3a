"""Invariant-measurement construction and noise-bound propagation."""

import numpy as np
import pytest

from tlsreg import invariants
from tlsreg.geometry import CorrespondenceSet, quat_to_matrix, random_unit_quaternion
from tlsreg.invariants import GraphTopology, build_measurement_graph, degenerate_edge_cutoff

RNG = np.random.default_rng(42)


def make_pair(n, scale, q, t, sigma=0.0, betas=None, rng=RNG):
    src = rng.uniform(0, 1, size=(n, 3))
    R = quat_to_matrix(q)
    noise = rng.normal(0, sigma, size=(n, 3)) if sigma > 0 else 0.0
    dst = scale * src @ R.T + t + noise
    if betas is None:
        betas = np.full(n, 0.1)
    return CorrespondenceSet(src, dst, betas)


def all_pairs(n):
    """Every pair (i, j), i < j, in condensed (np.triu_indices) order."""
    return np.column_stack(np.triu_indices(n, k=1))


class TestTopology:
    def test_complete_edge_count(self):
        assert GraphTopology.complete(100).n_edges == 4950

    def test_condensed_index_round_trip(self):
        for n in (0, 1, 2, 3, 7, 100):
            g = GraphTopology.complete(n)
            pairs = all_pairs(n)
            assert g.n_vertices == n and g.n_edges == pairs.shape[0]
            edges = np.arange(g.n_edges)
            assert np.array_equal(g.edge_index(pairs[:, 0], pairs[:, 1]), edges)
            assert np.array_equal(g.edge_pairs(edges).reshape(-1, 2), pairs)


class TestBuildTims:
    def test_translation_cancels(self):
        src = np.array([[0.0, 0, 0], [1.0, 0, 0]])
        for t in ([0, 0, 0], [3.0, -2.0, 9.0]):
            c = CorrespondenceSet(src, src + np.asarray(t), [0.1, 0.1])
            g = build_measurement_graph(c)
            assert len(g.tims) == 1
            a_bar, b_bar, _ = g.tims.at([[0, 1]])
            assert np.allclose(a_bar[0], [1, 0, 0])
            assert np.allclose(b_bar[0], [1, 0, 0])

    def test_beta_bar_is_sum_of_endpoint_bounds(self):
        betas = np.array([0.1, 0.2, 0.4])
        src = RNG.uniform(0, 1, size=(3, 3))
        g = build_measurement_graph(CorrespondenceSet(src, src, betas))
        _, _, beta_bar = g.tims.at(all_pairs(3))
        assert np.allclose(beta_bar, [0.3, 0.5, 0.6])

    def test_noiseless_model_holds_exactly(self):
        q = random_unit_quaternion(RNG)
        s = 2.3
        c = make_pair(30, s, q, np.array([0.4, -0.2, 0.9]))
        a_bar, b_bar, _ = build_measurement_graph(c).tims.at(all_pairs(30))
        R = quat_to_matrix(q)
        assert np.allclose(b_bar, s * a_bar @ R.T, atol=1e-12)

    def test_graph_holds_no_per_edge_vectors(self):
        n = 300
        c = make_pair(n, 1.5, random_unit_quaternion(RNG), np.zeros(3))
        g = build_measurement_graph(c)
        n_edges = n * (n - 1) // 2
        assert len(g.tims) == n_edges
        arrays = [
            value
            for part in (g.topology, g.tims, g.trims)
            for value in vars(part).values()
            if isinstance(value, np.ndarray)
        ]
        assert arrays
        assert all(a.shape != (n_edges, 3) for a in arrays)


class TestBuildTrims:
    def test_noiseless_scale_two(self):
        src = np.array([[0.0, 0, 0], [1.0, 0, 0]])
        c = CorrespondenceSet(src, 2.0 * src, [0.1, 0.1])
        assert build_measurement_graph(c).trims.s_meas[0] == pytest.approx(2.0)

    def test_alpha_definition(self):
        src = np.array([[0.0, 0, 0], [1.0, 0, 0]])
        c = CorrespondenceSet(src, src, [0.04, 0.06])
        assert build_measurement_graph(c).trims.alpha[0] == pytest.approx(0.1)

    def test_all_inlier_trims_equal_true_scale(self):
        q = random_unit_quaternion(RNG)
        c = make_pair(25, 3.5, q, np.array([1.0, 2.0, 3.0]))
        trims = build_measurement_graph(c).trims
        assert np.allclose(trims.s_meas, 3.5, atol=1e-10)

    def test_degenerate_edges_skipped(self):
        src = np.array([[0.0, 0, 0], [0.0, 0, 0], [1.0, 0, 0]])
        c = CorrespondenceSet(src, src, np.full(3, 0.1))
        trims = build_measurement_graph(c).trims
        assert trims.skipped_rows.tolist() == [0]  # edge (0, 1)
        assert trims.tim_rows.tolist() == [1, 2]
        assert len(trims) == 2

    @pytest.mark.parametrize("block_entries", [invariants.BLOCK_ENTRIES, 100])
    def test_equal_to_explicit_difference_norms(self, block_entries, monkeypatch):
        # 100 entries walk the 60 x 60 tables one row at a time.
        monkeypatch.setattr(invariants, "BLOCK_ENTRIES", block_entries)
        rng = np.random.default_rng(7)
        n = 60
        src = rng.uniform(-1, 1, size=(n, 3))
        src[17] = src[4]  # one coincident pair
        dst = rng.uniform(-3, 3, size=(n, 3))
        c = CorrespondenceSet(src, dst, rng.uniform(0.01, 0.1, size=n))
        trims = build_measurement_graph(c).trims

        i, j = all_pairs(n).T
        a_norm = np.linalg.norm(src[j] - src[i], axis=1)
        b_norm = np.linalg.norm(dst[j] - dst[i], axis=1)
        beta_bar = c.noise_bounds[i] + c.noise_bounds[j]
        ok = a_norm > degenerate_edge_cutoff(c)
        assert np.flatnonzero(~ok).tolist() == [GraphTopology.complete(n).edge_index(4, 17)]
        assert np.array_equal(trims.skipped_rows, np.flatnonzero(~ok))
        assert np.array_equal(trims.tim_rows, np.flatnonzero(ok))
        assert np.array_equal(trims.s_meas, b_norm[ok] / a_norm[ok])
        assert np.array_equal(trims.alpha, beta_bar[ok] / a_norm[ok])


class TestTrimsWithin:
    def test_matches_membership_filter(self):
        rng = np.random.default_rng(3)
        n = 40
        src = rng.uniform(0, 1, size=(n, 3))
        src[9] = src[2]  # a degenerate pair inside the vertex set
        g = build_measurement_graph(CorrespondenceSet(src, src, np.full(n, 0.1)))
        vertices = np.array([31, 2, 9, 14, 0, 38, 9])  # unsorted, one repeat

        member = np.zeros(n, dtype=bool)
        member[vertices] = True
        pairs = g.topology.edge_pairs(g.trims.tim_rows)
        expected = np.flatnonzero(member[pairs[:, 0]] & member[pairs[:, 1]])

        rows, got_pairs = g.trims_within(vertices)
        assert np.array_equal(rows, expected)
        assert np.array_equal(got_pairs, pairs[expected])
        assert rows.size == 6 * 5 // 2 - 1

    def test_empty_and_single_vertex(self):
        src = RNG.uniform(0, 1, size=(5, 3))
        g = build_measurement_graph(CorrespondenceSet(src, src, np.full(5, 0.1)))
        for vertices in ([], [3]):
            rows, pairs = g.trims_within(vertices)
            assert rows.size == 0 and pairs.shape == (0, 2)


class TestInvariances:
    def test_common_pre_rotation_leaves_scale_measurements_unchanged(self):
        q = random_unit_quaternion(RNG)
        c = make_pair(15, 1.7, q, np.array([0.3, 0.1, -0.5]))
        trims = build_measurement_graph(c).trims

        pre = quat_to_matrix(random_unit_quaternion(RNG))
        c2 = CorrespondenceSet(c.source @ pre.T, c.target @ pre.T, c.noise_bounds)
        trims2 = build_measurement_graph(c2).trims
        assert np.allclose(trims.s_meas, trims2.s_meas, atol=1e-10)

    def test_noise_bound_soundness(self):
        # For bounded noise ||eps_i|| <= beta_i, every inlier pair satisfies
        # |s_meas - s| <= alpha.  10^4 random draws.
        rng = np.random.default_rng(99)
        count = 0
        while count < 10_000:
            n = 12
            q = random_unit_quaternion(rng)
            s = float(rng.uniform(0.5, 4.0))
            src = rng.uniform(0, 1, size=(n, 3))
            betas = rng.uniform(0.01, 0.05, size=n)
            eps = rng.normal(size=(n, 3))
            eps *= (rng.uniform(0, 1, size=n) * betas / np.linalg.norm(eps, axis=1))[:, None]
            dst = s * src @ quat_to_matrix(q).T + rng.normal(size=3) + eps
            c = CorrespondenceSet(src, dst, betas)
            g = build_measurement_graph(c)
            assert np.all(np.abs(g.trims.s_meas - s) <= g.trims.alpha * (1 + 1e-9))
            count += len(g.trims)
