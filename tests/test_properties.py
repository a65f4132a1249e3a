"""Property checks of the core solvers and of the registration cascade."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlsreg.geometry import (
    CorrespondenceSet,
    TlsConfig,
    geodesic_rotation_error,
    left_product_matrix,
    quat_to_matrix,
    random_unit_quaternion,
    right_product_matrix,
)
from tlsreg.clique import max_clique, prune_by_scale
from tlsreg.invariants import build_measurement_graph, degenerate_edge_cutoff, scale_consistent
from tlsreg.pipeline import RegistrationOptions, register
from tlsreg.scalar_tls import ScalarTlsProblem, solve_scalar_tls, tls_cost
from tlsreg.synthetic import SyntheticSpec, generate

finite = st.floats(-50, 50, allow_nan=False, allow_infinity=False)
positive = st.floats(0.05, 5.0, allow_nan=False, allow_infinity=False)


@st.composite
def scalar_problems(draw):
    k = draw(st.integers(1, 12))
    s = draw(st.lists(finite, min_size=k, max_size=k))
    a = draw(st.lists(positive, min_size=k, max_size=k))
    cb = draw(st.floats(0.1, 4.0))
    return ScalarTlsProblem(np.array(s), np.array(a), cbar_sq=cb)


@st.composite
def quaternions(draw):
    q = np.array([draw(st.floats(-1, 1)) for _ in range(4)])
    norm = np.linalg.norm(q)
    if norm < 1e-3:
        q = np.array([0.0, 0.0, 0.0, 1.0])
        norm = 1.0
    return q / norm


class TestScalarTlsProperties:
    @given(scalar_problems())
    @settings(max_examples=150, deadline=None)
    def test_reported_cost_is_recomputable(self, p):
        sol = solve_scalar_tls(p)
        assert abs(tls_cost(p, sol.estimate) - sol.cost) < 1e-10

    @given(scalar_problems())
    @settings(max_examples=150, deadline=None)
    def test_estimate_never_beaten_by_measurements(self, p):
        # The optimum is at least as cheap as centering on any single
        # measurement or on the plain mean (weaker but fast sanity floor).
        sol = solve_scalar_tls(p)
        for candidate in list(p.measurements) + [float(np.mean(p.measurements))]:
            assert sol.cost <= tls_cost(p, candidate) + 1e-9

    @given(scalar_problems())
    @settings(max_examples=100, deadline=None)
    def test_candidate_budget(self, p):
        sol = solve_scalar_tls(p)
        assert sol.n_candidates <= 2 * p.measurements.size - 1


class TestQuaternionProperties:
    @given(quaternions())
    @settings(max_examples=100, deadline=None)
    def test_product_matrices_are_orthogonal(self, q):
        for M in (left_product_matrix(q), right_product_matrix(q)):
            assert np.allclose(M.T @ M, np.eye(4), atol=1e-9)

    @given(quaternions(), st.lists(st.floats(-10, 10), min_size=3, max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_rotation_preserves_norm(self, q, v):
        v = np.array(v)
        assert np.isclose(
            np.linalg.norm(quat_to_matrix(q) @ v), np.linalg.norm(v), atol=1e-9
        )

    @given(quaternions())
    @settings(max_examples=100, deadline=None)
    def test_double_cover(self, q):
        assert np.allclose(quat_to_matrix(q), quat_to_matrix(-q), atol=1e-12)


def make_instance(seed, known_scale):
    """An N = 80, 50%-outlier instance: correspondences, ground truth,
    inlier labels and the matching options."""
    c, gt, labels = generate(
        SyntheticSpec(
            n_points=80, sigma=0.01, outlier_rate=0.5, seed=seed, known_scale=known_scale
        )
    )
    return c, gt, labels, RegistrationOptions(known_scale=1.0 if known_scale else None)


def with_copies(c, rows, shift):
    """c with the given rows appended again, each copy's source point moved
    by shift along x."""
    return CorrespondenceSet(
        np.concatenate([c.source, c.source[rows] + [shift, 0.0, 0.0]]),
        np.concatenate([c.target, c.target[rows]]),
        np.concatenate([c.noise_bounds, c.noise_bounds[rows]]),
    )


def register_instance(seed, known_scale):
    """An N = 80, 50%-outlier instance and its registration."""
    c, _, _, opts = make_instance(seed, known_scale)
    return c, opts, register(c, TlsConfig(), opts)


class TestRegisterProperties:
    # Fixed seeds: each case runs the whole cascade twice.
    @pytest.mark.parametrize("known_scale", [True, False])
    @pytest.mark.parametrize("seed", [15_000, 15_001, 15_002])
    def test_rigid_motion_of_both_clouds(self, seed, known_scale):
        # Moving the source by (R1, t1) and the target by (R2, t2) keeps the
        # inliers and maps the pose (s, R, t) to (s, R2 R R1^T, R2 t + t2 -
        # s R2 R R1^T t1).
        c, opts, res = register_instance(seed, known_scale)
        rng = np.random.default_rng(seed)
        R1, R2 = (quat_to_matrix(random_unit_quaternion(rng)) for _ in range(2))
        t1, t2 = rng.uniform(-10, 10, size=(2, 3))
        moved = CorrespondenceSet(c.source @ R1.T + t1, c.target @ R2.T + t2, c.noise_bounds)
        got = register(moved, TlsConfig(), opts)

        assert np.array_equal(got.inlier_indices, res.inlier_indices)
        s, R, t = res.transform.scale, res.transform.matrix, res.transform.translation
        R_moved = R2 @ R @ R1.T
        assert abs(got.transform.scale - s) <= 1e-9
        assert np.abs(got.transform.matrix - R_moved).max() <= 1e-9
        t_moved = R2 @ t + t2 - s * R_moved @ t1
        assert np.abs(got.transform.translation - t_moved).max() <= 1e-9

    @pytest.mark.parametrize("known_scale", [True, False])
    @pytest.mark.parametrize("units", [1000.0, 1 / 25.4])
    def test_change_of_units(self, units, known_scale):
        # Points and noise bounds in other units: the same inliers, scale
        # and rotation, and the translation in the new units.
        c, opts, res = register_instance(15_003, known_scale)
        scaled = CorrespondenceSet(units * c.source, units * c.target, units * c.noise_bounds)
        got = register(scaled, TlsConfig(), opts)

        assert np.array_equal(got.inlier_indices, res.inlier_indices)
        assert abs(got.transform.scale - res.transform.scale) <= 1e-9
        assert np.abs(got.transform.matrix - res.transform.matrix).max() <= 1e-9
        t_scaled = units * res.transform.translation
        assert np.abs(got.transform.translation - t_scaled).max() <= 1e-9 * units

    @pytest.mark.parametrize("known_scale", [True, False])
    @pytest.mark.parametrize("seed", [15_004, 15_005, 15_006])
    def test_permuting_the_correspondences(self, seed, known_scale):
        # Listing the correspondences in another order gives the same
        # inliers, mapped through the permutation, and the same pose.
        c, opts, res = register_instance(seed, known_scale)
        perm = np.random.default_rng(seed).permutation(len(c))
        shuffled = CorrespondenceSet(c.source[perm], c.target[perm], c.noise_bounds[perm])
        got = register(shuffled, TlsConfig(), opts)

        assert np.array_equal(np.sort(perm[got.inlier_indices]), res.inlier_indices)
        assert abs(got.transform.scale - res.transform.scale) <= 1e-12
        assert np.abs(got.transform.matrix - res.transform.matrix).max() <= 1e-12
        assert np.abs(got.transform.translation - res.transform.translation).max() <= 1e-12

    @pytest.mark.parametrize("known_scale", [True, False])
    @pytest.mark.parametrize("seed", [15_007, 15_008, 15_009])
    def test_duplicated_inlier_rows(self, seed, known_scale):
        # A copy of a row coincides with it, or its source point lies half
        # the degenerate-edge cutoff away: either way their TRIM is missing
        # (NaN) and no edge joins them, so the clique never holds both
        # copies, and the pose stays right.
        c, gt, labels, opts = make_instance(seed, known_scale)
        rows = np.random.default_rng(seed).choice(np.flatnonzero(labels), 5, replace=False)
        copies = np.arange(len(c), len(c) + rows.size)
        for shift in (0.0, 0.5 * degenerate_edge_cutoff(c)):
            res = register(with_copies(c, rows, shift), TlsConfig(), opts)

            members = set(res.clique.vertices.tolist())
            assert not any(r in members and d in members for r, d in zip(rows, copies))
            rot = geodesic_rotation_error(res.transform.matrix, gt.rotation.to_matrix())
            assert np.degrees(rot) < 3.0
            assert np.linalg.norm(res.transform.translation - gt.translation) < 0.1


class TestPrunedCliqueMeasurements:
    # The clique's scale re-vote and the error bounds take every TRIM that
    # trims_within returns for a clique unchecked.  That holds only if
    # pruning and trims_within compute each ratio alike: a clique edge
    # survived pruning, so its TRIM agrees with the scale and its pair is
    # not degenerate.  Besides the truth and the searched hypotheses, the
    # scales include ones that put an inlier TRIM on the agreement boundary
    # (to within a rounding), where a ratio computed differently by one
    # rounding would disagree.
    @pytest.mark.parametrize("cbar_sq", [1.0, 4.0])
    @pytest.mark.parametrize("known_scale", [True, False])
    @pytest.mark.parametrize("seed", [15_010, 15_011])
    def test_every_trim_inside_a_pruned_clique_agrees(self, seed, known_scale, cbar_sq):
        c, gt, labels, opts = make_instance(seed, known_scale)
        rows = np.random.default_rng(seed).choice(np.flatnonzero(labels), 5, replace=False)
        shifts = (0.0, 0.5 * degenerate_edge_cutoff(c))
        for cs in [c, *(with_copies(c, rows, shift) for shift in shifts)]:
            graph = build_measurement_graph(cs)
            searched = register(cs, TlsConfig(cbar_sq), opts).trace.scale_hypotheses
            _, s_in, alpha_in = graph.trims_within(np.flatnonzero(labels))
            tol = np.sqrt(cbar_sq) * alpha_in[:4]
            boundary = np.concatenate([s_in[:4] - tol, s_in[:4] + tol])
            for s in {gt.scale, *(scale for scale, _ in searched), *boundary.tolist()}:
                found = max_clique(prune_by_scale(graph, s, cbar_sq))
                pairs, s_meas, alpha = graph.trims_within(found.vertices)
                m = len(found)
                assert m >= 3 and len(pairs) == m * (m - 1) // 2
                assert scale_consistent(s_meas, alpha, s, cbar_sq).all()
                a_bars = cs.source[pairs[:, 1]] - cs.source[pairs[:, 0]]
                assert np.all(np.linalg.norm(a_bars, axis=1) > degenerate_edge_cutoff(cs))
