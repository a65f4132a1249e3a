"""Invariant-measurement construction and noise-bound propagation."""

import numpy as np
import pytest

from tlsreg.geometry import CorrespondenceSet, quat_to_matrix, random_unit_quaternion
from tlsreg.invariants import (
    GraphTopology,
    build_measurement_graph,
    build_tims,
    build_trims,
)

RNG = np.random.default_rng(42)


def make_pair(n, scale, q, t, sigma=0.0, betas=None, rng=RNG):
    src = rng.uniform(0, 1, size=(n, 3))
    R = quat_to_matrix(q)
    noise = rng.normal(0, sigma, size=(n, 3)) if sigma > 0 else 0.0
    dst = scale * src @ R.T + t + noise
    if betas is None:
        betas = np.full(n, 0.1)
    return CorrespondenceSet(src, dst, betas)


class TestTopology:
    def test_complete_edge_count(self):
        g = GraphTopology.complete(100)
        assert g.n_edges == 4950
        for n in (0, 1, 2, 3, 7, 100):
            g = GraphTopology.complete(n)
            assert g.n_vertices == n
            assert g.edges.shape == (n * (n - 1) // 2, 2)
            i, j = g.edges[:, 0], g.edges[:, 1]
            assert np.all(i < j)
            assert np.all((0 <= i) & (j < n))
            # Row-major order of np.triu_indices: sorted, hence no duplicates.
            assert np.all(np.diff(i * n + j) > 0)
            ti, tj = np.triu_indices(n, k=1)
            assert np.array_equal(i, ti) and np.array_equal(j, tj)


class TestBuildTims:
    def test_translation_cancels(self):
        src = np.array([[0.0, 0, 0], [1.0, 0, 0]])
        for t in ([0, 0, 0], [3.0, -2.0, 9.0]):
            c = CorrespondenceSet(src, src + np.asarray(t), [0.1, 0.1])
            tims = build_tims(c, GraphTopology.complete(2))
            assert len(tims) == 1
            assert np.allclose(tims.a_bar[0], [1, 0, 0])
            assert np.allclose(tims.b_bar[0], [1, 0, 0])

    def test_beta_bar_is_sum_of_endpoint_bounds(self):
        betas = np.array([0.1, 0.2, 0.4])
        src = RNG.uniform(0, 1, size=(3, 3))
        c = CorrespondenceSet(src, src, betas)
        tims = build_tims(c, GraphTopology.complete(3))
        assert np.allclose(tims.beta_bar, [0.3, 0.5, 0.6])

    def test_noiseless_model_holds_exactly(self):
        q = random_unit_quaternion(RNG)
        s = 2.3
        c = make_pair(30, s, q, np.array([0.4, -0.2, 0.9]))
        tims = build_tims(c, GraphTopology.complete(30))
        R = quat_to_matrix(q)
        assert np.allclose(tims.b_bar, s * tims.a_bar @ R.T, atol=1e-12)


class TestBuildTrims:
    def test_noiseless_scale_two(self):
        src = np.array([[0.0, 0, 0], [1.0, 0, 0]])
        c = CorrespondenceSet(src, 2.0 * src, [0.1, 0.1])
        trims = build_trims(build_tims(c, GraphTopology.complete(2)))
        assert trims.s_meas[0] == pytest.approx(2.0)

    def test_alpha_definition(self):
        src = np.array([[0.0, 0, 0], [1.0, 0, 0]])
        c = CorrespondenceSet(src, src, [0.04, 0.06])
        trims = build_trims(build_tims(c, GraphTopology.complete(2)))
        assert trims.alpha[0] == pytest.approx(0.1)

    def test_all_inlier_trims_equal_true_scale(self):
        q = random_unit_quaternion(RNG)
        c = make_pair(25, 3.5, q, np.array([1.0, 2.0, 3.0]))
        trims = build_trims(build_tims(c, GraphTopology.complete(25)))
        assert np.allclose(trims.s_meas, 3.5, atol=1e-10)

    def test_degenerate_edges_skipped(self):
        src = np.array([[0.0, 0, 0], [0.0, 0, 0], [1.0, 0, 0]])
        c = CorrespondenceSet(src, src, np.full(3, 0.1))
        tims = build_tims(c, GraphTopology.complete(3))
        trims = build_trims(tims, eps_degenerate=1e-9)
        assert trims.skipped_rows.tolist() == [0]  # edge (0, 1)
        assert len(trims) == 2


class TestInvariances:
    def test_common_pre_rotation_leaves_scale_measurements_unchanged(self):
        q = random_unit_quaternion(RNG)
        c = make_pair(15, 1.7, q, np.array([0.3, 0.1, -0.5]))
        trims = build_trims(build_tims(c, GraphTopology.complete(15)))

        pre = quat_to_matrix(random_unit_quaternion(RNG))
        c2 = CorrespondenceSet(c.source @ pre.T, c.target @ pre.T, c.noise_bounds)
        trims2 = build_trims(build_tims(c2, GraphTopology.complete(15)))
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
