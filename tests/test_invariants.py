"""Invariant-measurement construction and noise-bound propagation."""

import numpy as np
import pytest

from helpers import finite_trim_count, trim_tables, upper_trims
from tlsreg import invariants
from tlsreg.geometry import CorrespondenceSet, quat_to_matrix, random_unit_quaternion
from tlsreg.invariants import (
    GraphTopology,
    TimSet,
    build_measurement_graph,
    degenerate_edge_cutoff,
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


def all_pairs(n):
    """Every pair (i, j), i < j, in row-major (np.triu_indices) order."""
    return np.column_stack(np.triu_indices(n, k=1))


class TestTopology:
    def test_complete_edge_count(self):
        for n in (0, 1, 2, 3, 7, 100):
            assert GraphTopology.complete(n).n_vertices == n
            points = np.zeros((n, 3))
            assert len(TimSet(points, points, np.ones(n))) == all_pairs(n).shape[0]
        assert all_pairs(100).shape[0] == 4950


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
        trims = build_measurement_graph(c).trims
        s_meas, _ = trims.at([0], [1])
        assert s_meas == pytest.approx(2.0)
        s_meas, alpha = trims.at(0, 1)
        assert (s_meas, alpha) == (pytest.approx(2.0), pytest.approx(0.2))

    def test_alpha_definition(self):
        src = np.array([[0.0, 0, 0], [1.0, 0, 0]])
        c = CorrespondenceSet(src, src, [0.04, 0.06])
        _, alpha = build_measurement_graph(c).trims.at([0], [1])
        assert alpha == pytest.approx(0.1)

    def test_all_inlier_trims_equal_true_scale(self):
        q = random_unit_quaternion(RNG)
        c = make_pair(25, 3.5, q, np.array([1.0, 2.0, 3.0]))
        trims = build_measurement_graph(c).trims
        s_meas, _ = upper_trims(trims)
        assert s_meas.size == finite_trim_count(trims) == 25 * 24 // 2
        assert np.allclose(s_meas, 3.5, atol=1e-10)

    def test_degenerate_edges_skipped(self):
        src = np.array([[0.0, 0, 0], [0.0, 0, 0], [1.0, 0, 0]])
        c = CorrespondenceSet(src, src, np.full(3, 0.1))
        trims = build_measurement_graph(c).trims
        assert trims.skipped_rows.tolist() == [[0, 1]]
        for table in trim_tables(trims):
            assert np.isnan(table).tolist() == [[True, True, False],
                                                [True, True, False],
                                                [False, False, True]]
        assert finite_trim_count(trims) == 2

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
        assert all_pairs(n)[~ok].tolist() == [[4, 17]]
        assert trims.skipped_rows.tolist() == [[4, 17]]
        off_diagonal = ~np.eye(n, dtype=bool)
        s_meas, alpha = trim_tables(trims)
        for table, values in ((s_meas, b_norm[ok] / a_norm[ok]),
                              (alpha, beta_bar[ok] / a_norm[ok])):
            expected = np.full((n, n), np.nan)
            expected[i[ok], j[ok]] = values
            expected[j[ok], i[ok]] = values
            assert np.array_equal(table, expected, equal_nan=True)
            assert np.argwhere(np.isnan(table) & off_diagonal).tolist() == [[4, 17], [17, 4]]
            assert np.isnan(np.diag(table)).all()


class TestTrimsWithin:
    def test_matches_membership_filter(self):
        rng = np.random.default_rng(3)
        n = 40
        src = rng.uniform(0, 1, size=(n, 3))
        src[9] = src[2]  # a degenerate pair inside the vertex set
        g = build_measurement_graph(CorrespondenceSet(src, src, np.full(n, 0.1)))
        member = np.zeros(n, dtype=bool)
        member[[0, 2, 9, 14, 31, 38]] = True
        i, j = all_pairs(n).T
        s_table, a_table = trim_tables(g.trims)
        keep = member[i] & member[j] & ~np.isnan(s_table[i, j])
        i, j = i[keep], j[keep]

        # Unsorted with one repeat; unsorted with runs and a repeated
        # first and last vertex.
        for vertices in ([31, 2, 9, 14, 0, 38, 9], [38, 9, 9, 0, 31, 38, 14, 2, 0, 9]):
            pairs, s_meas, alpha = g.trims_within(np.array(vertices))
            assert np.array_equal(pairs, np.column_stack([i, j]))
            assert np.array_equal(s_meas, s_table[i, j])
            assert np.array_equal(alpha, a_table[i, j])
            assert len(pairs) == 6 * 5 // 2 - 1

    def test_empty_and_single_vertex(self):
        src = RNG.uniform(0, 1, size=(5, 3))
        g = build_measurement_graph(CorrespondenceSet(src, src, np.full(5, 0.1)))
        for vertices in ([], [3], [3, 3, 3]):
            pairs, s_meas, alpha = g.trims_within(vertices)
            assert pairs.shape == (0, 2) and s_meas.size == alpha.size == 0


class TestInvariances:
    def test_common_pre_rotation_leaves_scale_measurements_unchanged(self):
        q = random_unit_quaternion(RNG)
        c = make_pair(15, 1.7, q, np.array([0.3, 0.1, -0.5]))
        trims = build_measurement_graph(c).trims

        pre = quat_to_matrix(random_unit_quaternion(RNG))
        c2 = CorrespondenceSet(c.source @ pre.T, c.target @ pre.T, c.noise_bounds)
        trims2 = build_measurement_graph(c2).trims
        assert np.allclose(upper_trims(trims)[0], upper_trims(trims2)[0], atol=1e-10)

    @pytest.mark.parametrize("block_entries", [invariants.BLOCK_ENTRIES, 100])
    def test_permuting_correspondences_permutes_the_tables(self, block_entries, monkeypatch):
        # Relabelling the correspondences by p relabels every TRIM, bit for
        # bit: vertex k of the permuted set is vertex p[k] of the original.
        monkeypatch.setattr(invariants, "BLOCK_ENTRIES", block_entries)
        rng = np.random.default_rng(17)
        n = 45
        src = rng.uniform(-1, 1, size=(n, 3))
        src[30] = src[8]  # one coincident pair
        c = CorrespondenceSet(src, rng.uniform(-3, 3, size=(n, 3)), rng.uniform(0.01, 0.1, n))
        trims = build_measurement_graph(c).trims
        for _ in range(5):
            p = rng.permutation(n)
            permuted = build_measurement_graph(
                CorrespondenceSet(c.source[p], c.target[p], c.noise_bounds[p])
            ).trims
            for table, original in zip(trim_tables(permuted), trim_tables(trims)):
                assert np.array_equal(table, original[p][:, p], equal_nan=True)
            skipped = np.sort(p[permuted.skipped_rows], axis=1)
            assert skipped.tolist() == trims.skipped_rows.tolist() == [[8, 30]]

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
            trims = build_measurement_graph(c).trims
            s_meas, alpha = upper_trims(trims)
            assert s_meas.size == finite_trim_count(trims)
            assert np.all(np.abs(s_meas - s) <= alpha * (1 + 1e-9))
            count += s_meas.size
