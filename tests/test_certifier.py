"""Dual-certificate machinery: cost matrix, projections, splitting loop."""

import numpy as np
import pytest

from helpers import (
    brute_force_rotation_optimum,
    build_coupling_inverse,
    build_coupling_matrix,
    dense_affine_projection_oracle,
    make_rotation_instance,
)
from tlsreg.certifier import (
    EIG_ZERO_REL_TOL,
    FIXED_POINT_TOL,
    STALL_WINDOW,
    CertifyOptions,
    Verdict,
    _j_term,
    build_cost_matrix,
    certify,
    initial_dual_guess,
    make_candidate,
    min_eigenvalue,
    project_to_dual_subspace,
    project_to_psd_cone,
    qcqp_cost,
    rotate_to_candidate_frame,
    stalled,
    x_vector,
)
from tlsreg.geometry import (
    left_product_matrix,
    random_unit_quaternion,
    right_product_matrix,
    skew,
)
from tlsreg.rotation import RotationProblem, binary_cost, solve_gnc_tls

RNG = np.random.default_rng(555)


def random_rotation_problem(rng, K, cbar_sq=1.0):
    a = rng.uniform(-1, 1, size=(K, 3))
    b = rng.uniform(-1, 1, size=(K, 3))
    return RotationProblem(a, b, rng.uniform(0.2, 1.5, size=K), cbar_sq=cbar_sq)


def stationary_candidate(rng, K, beta=0.7):
    """Noise-free instance at its optimum: exactly stationary."""
    a, b, q_true, _ = make_rotation_instance(rng, K)
    p = RotationProblem(a, b, np.full(K, beta), cbar_sq=1.0)
    cand = make_candidate(p, q_true, np.ones(K, dtype=np.int64))
    return p, cand


def full_spectrum_psd(M):
    """Reference PSD projection: clip every eigenvalue and rebuild."""
    sym = 0.5 * (M + M.T)
    vals, vecs = np.linalg.eigh(sym)
    out = (vecs * np.clip(vals, 0.0, None)) @ vecs.T
    return 0.5 * (out + out.T)


def gnc_rotated_data(rng, K, corrupt=0):
    """Candidate-frame data of a GNC solution, optionally with `corrupt`
    inliers flipped to outliers."""
    a, b, q_true, _ = make_rotation_instance(rng, K, outlier_fraction=0.3, sigma=0.01)
    p = RotationProblem(a, b, np.full(K, 0.11), cbar_sq=1.0)
    sol = solve_gnc_tls(p)
    theta = sol.theta.copy()
    theta[np.nonzero(theta > 0)[0][:corrupt]] = -1
    data = build_cost_matrix(p)
    cand = make_candidate(p, sol.rotation, theta)
    return data, cand, rotate_to_candidate_frame(data, cand)


def reference_certify(data, cand, opts=CertifyOptions(), stall_exit=True):
    """The splitting loop of `certify` with the full-spectrum projection.

    With stall_exit=False it runs on past a stall, to max_iters or a fixed
    point."""
    rot = rotate_to_candidate_frame(data, cand)
    M = initial_dual_guess(rot)
    eta, verdict, it, best = np.inf, Verdict.BUDGET_EXHAUSTED, 0, []
    for it in range(1, opts.max_iters + 1):
        M_psd = full_spectrum_psd(M)
        M_aff = project_to_dual_subspace(2.0 * M_psd - M, rot)
        M = M + (M_aff - M_psd)
        lam1 = float(np.linalg.eigvalsh(M_aff)[0])
        if abs(lam1) <= EIG_ZERO_REL_TOL * max(1.0, float(np.linalg.norm(M_aff))):
            lam1 = 0.0
        eta_t = 0.0 if lam1 == 0.0 else abs(lam1) * (data.K + 1) / rot.mu_hat
        eta = min(eta, eta_t)
        best.append(eta)
        if eta < opts.eta_target:
            verdict = Verdict.CERTIFIED
            break
        if float(np.linalg.norm(M_aff - M_psd)) < FIXED_POINT_TOL or (
            stall_exit and stalled(best)
        ):
            verdict = Verdict.SUBOPTIMAL
            break
    return verdict, it, eta


class TestCostMatrix:
    def test_single_measurement_blocks_by_hand(self):
        # a = b = e_x with unit bound and unit threshold: the quadratic
        # couplings reduce to diag(0, 4, 4, 0)/denominator.
        p = RotationProblem(
            np.array([[1.0, 0, 0], [1.0, 0, 0]]),
            np.array([[1.0, 0, 0], [1.0, 0, 0]]),
            [1.0, 1.0],
            cbar_sq=1.0,
        )
        data = build_cost_matrix(p)
        assert np.allclose(data.block(1, 1), np.diag([0.5, 2.5, 2.5, 0.5]))
        assert np.allclose(data.block(0, 1), np.diag([-0.25, 0.75, 0.75, -0.25]))
        assert qcqp_cost(data, [0, 0, 0, 1], [1, 1]) == pytest.approx(0.0, abs=1e-14)

    def test_quadratic_form_equals_indicator_cost(self):
        p = random_rotation_problem(RNG, 7, cbar_sq=1.3)
        data = build_cost_matrix(p)
        for _ in range(100):
            q = random_unit_quaternion(RNG)
            th = RNG.choice([-1, 1], size=7)
            assert qcqp_cost(data, q, th) == pytest.approx(
                binary_cost(p, q, th), abs=1e-9
            )

    def test_all_outlier_assignment_costs_k_cbar_sq(self):
        p = random_rotation_problem(RNG, 5, cbar_sq=0.8)
        data = build_cost_matrix(p)
        q = random_unit_quaternion(RNG)
        assert qcqp_cost(data, q, -np.ones(5)) == pytest.approx(5 * 0.8, abs=1e-9)

    def test_arrow_sparsity(self):
        p = random_rotation_problem(RNG, 4)
        data = build_cost_matrix(p)
        for i in range(1, 5):
            for j in range(i + 1, 5):
                assert np.all(data.block(i, j) == 0.0)
        assert np.all(data.block(0, 0) == 0.0)
        assert np.max(np.abs(data.Q - data.Q.T)) == 0.0


    def test_arrow_blocks_match_per_measurement_closed_form(self):
        # Per measurement, with a, b the bound-normalized vectors and P the
        # symmetrized quaternion coupling L(b) R(a):
        #   Q_kk = (|a|^2 + |b|^2 + cb) / 2 * I + P,
        #   Q_0k = (|a|^2 + |b|^2 - cb) / 4 * I + P / 2.
        K = 60
        p = random_rotation_problem(np.random.default_rng(31), K, cbar_sq=0.9)
        data = build_cost_matrix(p)
        cb = p.cbar_sq
        eye4 = np.eye(4)
        for k in range(K):
            a = p.a_bars[k] / p.beta_bars[k]
            b = p.b_bars[k] / p.beta_bars[k]
            prod = left_product_matrix(np.append(b, 0.0)) @ right_product_matrix(np.append(a, 0.0))
            P = 0.5 * (prod + prod.T)
            sq = a @ a + b @ b
            scale = max(1.0, sq)
            q_kk = 0.5 * (sq + cb) * eye4 + P
            q_0k = 0.25 * (sq - cb) * eye4 + 0.5 * P
            assert np.max(np.abs(data.block(k + 1, k + 1) - q_kk)) <= 1e-13 * scale
            assert np.max(np.abs(data.block(0, k + 1) - q_0k)) <= 1e-13 * scale
            assert np.array_equal(data.block(k + 1, 0), data.block(0, k + 1))
        assert np.array_equal(data.Q, data.Q.T)


class TestRotatedFrame:
    def test_identity_candidate_leaves_q_unchanged(self):
        p = random_rotation_problem(RNG, 5)
        data = build_cost_matrix(p)
        cand = make_candidate(p, np.array([0.0, 0, 0, 1]), RNG.choice([-1, 1], size=5))
        rot = rotate_to_candidate_frame(data, cand)
        assert np.allclose(rot.Q_bar, data.Q, atol=1e-12)
        e = np.array([0.0, 0, 0, 1])
        expected = np.concatenate([e] + [t * e for t in cand.thetas])
        assert np.allclose(rot.x_bar, expected)

    def test_similarity_preserves_spectrum(self):
        p = random_rotation_problem(RNG, 6)
        data = build_cost_matrix(p)
        cand = make_candidate(p, random_unit_quaternion(RNG), RNG.choice([-1, 1], size=6))
        rot = rotate_to_candidate_frame(data, cand)
        ev_q = np.linalg.eigvalsh(data.Q)
        ev_r = np.linalg.eigvalsh(rot.Q_bar)
        assert np.max(np.abs(ev_q - ev_r)) < 1e-9

    def test_zero_noise_inliers_have_zero_residuals(self):
        p, cand = stationary_candidate(np.random.default_rng(2), 6)
        rot = rotate_to_candidate_frame(build_cost_matrix(p), cand)
        assert np.max(np.abs(rot.xi)) < 1e-12
        assert rot.stationarity_residual < 1e-12

    def test_rotated_blocks_match_residual_closed_form(self):
        # The rotated arrow blocks have closed forms in the normalized
        # measurements and their candidate-frame residuals.
        rng = np.random.default_rng(9)
        K = 5
        p = random_rotation_problem(rng, K, cbar_sq=1.2)
        data = build_cost_matrix(p)
        cand = make_candidate(p, random_unit_quaternion(rng), rng.choice([-1, 1], size=K))
        rot = rotate_to_candidate_frame(data, cand)
        cb = p.cbar_sq
        for k in range(K):
            na, xi = rot.na[k], rot.xi[k]
            xs = float(xi @ xi)
            Sa, Sxi = skew(na), skew(xi)
            m0 = (
                -Sa @ Sa
                + 0.25 * (xs - cb) * np.eye(3)
                + 0.5 * (na @ xi) * np.eye(3)
                - 0.5 * Sxi @ Sa
                - 0.5 * np.outer(xi, na)
            )
            v0 = 0.5 * Sxi @ na
            blk0 = rot.Q_bar[0:4, 4 * (k + 1) : 4 * (k + 1) + 4]
            assert np.allclose(blk0[:3, :3], m0, atol=1e-12)
            assert np.allclose(blk0[:3, 3], v0, atol=1e-12)
            assert blk0[3, 3] == pytest.approx(0.25 * (xs - cb), abs=1e-12)
            blkk = rot.Q_bar[4 * (k + 1) : 4 * (k + 1) + 4, 4 * (k + 1) : 4 * (k + 1) + 4]
            mk = (
                -2 * Sa @ Sa
                + 0.5 * (xs + cb) * np.eye(3)
                + (na @ xi) * np.eye(3)
                - Sxi @ Sa
                - np.outer(xi, na)
            )
            assert np.allclose(blkk[:3, :3], mk, atol=1e-12)
            assert np.allclose(blkk[:3, 3], Sxi @ na, atol=1e-12)
            assert blkk[3, 3] == pytest.approx(0.5 * (xs + cb), abs=1e-12)


class TestInitialGuess:
    def test_kills_candidate_vector(self):
        for seed in range(10):
            p, cand = stationary_candidate(np.random.default_rng(seed), 7)
            rot = rotate_to_candidate_frame(build_cost_matrix(p), cand)
            M0 = initial_dual_guess(rot)
            assert np.linalg.norm(M0 @ rot.x_bar) < 1e-8

    def test_noiseless_guess_is_psd_with_one_null_direction(self):
        p, cand = stationary_candidate(np.random.default_rng(17), 10)
        rot = rotate_to_candidate_frame(build_cost_matrix(p), cand)
        ev = np.linalg.eigvalsh(initial_dual_guess(rot))
        assert ev[0] > -1e-10
        assert abs(ev[0]) < 1e-10
        assert ev[1] > 1e-6

    def test_single_measurement_blocks_by_hand(self):
        # K=1, a=b=e_x: residual zero, theta=+1, mu=0.  The correction must
        # cancel the 0k coupling and pin the scalar slots.
        p = RotationProblem(
            np.array([[1.0, 0, 0], [1.0, 0, 0]]),
            np.array([[1.0, 0, 0], [1.0, 0, 0]]),
            [1.0, 1.0],
            cbar_sq=1.0,
        )
        # Use only the first measurement by zeroing the second's influence:
        # simplest hand-check is K=2 with identical rows; blocks repeat.
        data = build_cost_matrix(p)
        cand = make_candidate(p, np.array([0.0, 0, 0, 1]), np.ones(2, dtype=np.int64))
        rot = rotate_to_candidate_frame(data, cand)
        M0 = initial_dual_guess(rot)
        # diagonal correction blocks: matrix part [a]x^2 - (1/4) I, scalar -1/4
        delta = M0 - rot.Q_bar
        Sa = skew([1.0, 0, 0])
        expected_m = Sa @ Sa + 0.25 * np.eye(3) - 0.5 * np.eye(3)
        blk = delta[4:8, 4:8]
        assert np.allclose(blk[:3, :3], expected_m, atol=1e-12)
        assert blk[3, 3] == pytest.approx(-0.25)
        assert np.linalg.norm(M0 @ rot.x_bar) < 1e-12

    def test_fixed_point_of_affine_projection(self):
        p, cand = stationary_candidate(np.random.default_rng(23), 5)
        rot = rotate_to_candidate_frame(build_cost_matrix(p), cand)
        M0 = initial_dual_guess(rot)
        assert np.max(np.abs(project_to_dual_subspace(M0, rot) - M0)) < 1e-9


class TestPsdProjection:
    def test_psd_input_unchanged(self):
        A = RNG.normal(size=(6, 6))
        psd = A @ A.T
        assert np.allclose(project_to_psd_cone(psd), psd, atol=1e-10)

    def test_clips_negative_eigenvalue(self):
        assert np.allclose(project_to_psd_cone(np.diag([-1.0, 2.0])), np.diag([0.0, 2.0]))

    def test_idempotent(self):
        M = RNG.normal(size=(8, 8))
        M = 0.5 * (M + M.T)
        P1 = project_to_psd_cone(M)
        assert np.allclose(project_to_psd_cone(P1), P1, atol=1e-10)

    def test_frobenius_optimality_against_sampled_psd_points(self):
        rng = np.random.default_rng(31)
        M = rng.normal(size=(3, 3))
        M = 0.5 * (M + M.T)
        proj = project_to_psd_cone(M)
        best = np.linalg.norm(proj - M)
        for _ in range(2000):
            A = rng.normal(size=(3, 3))
            cand = A @ A.T
            # scale the sample toward the projection for a fairer search
            t = rng.uniform(0, 2)
            cand = t * cand + (1 - t) * proj if rng.uniform() < 0.5 else cand
            cand = project_to_psd_cone(cand)
            assert np.linalg.norm(cand - M) >= best - 1e-9

    def test_matches_full_spectrum_reference(self):
        rng = np.random.default_rng(7)
        cases = []
        for n in (5, 40, 120):
            A = rng.normal(size=(n, n))
            cases.append(0.5 * (A + A.T))  # about half the eigenvalues negative
        # a real splitting iterate at K=20, a few steps in
        _, _, rot = gnc_rotated_data(np.random.default_rng(3), 20, corrupt=3)
        M = initial_dual_guess(rot)
        for _ in range(3):
            M_psd = full_spectrum_psd(M)
            M = M + project_to_dual_subspace(2.0 * M_psd - M, rot) - M_psd
        assert np.linalg.eigvalsh(M)[0] < 0.0
        cases.append(M)
        A = rng.normal(size=(30, 30))
        cases.append(A @ A.T + np.eye(30))  # positive definite: empty subset
        U, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        cases.append((U * np.array([-2.0, -0.5, 0.0, 0.0, 1.0, 3.0])) @ U.T)
        cases.append(np.diag([-1.0, -1e-7, 0.0, 2.0]))  # tiny negative, exact zero
        cases.append(-(A @ A.T) - np.eye(30))  # all negative
        for M in cases:
            tol = 1e-10 * max(1.0, float(np.linalg.norm(M)))
            assert np.max(np.abs(project_to_psd_cone(M) - full_spectrum_psd(M))) <= tol


class TestAffineProjection:
    def test_idempotent_and_membership(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            p, cand = stationary_candidate(rng, 4)
            rot = rotate_to_candidate_frame(build_cost_matrix(p), cand)
            n = 4 * (rot.K + 1)
            M = rng.normal(size=(n, n))
            M = 0.5 * (M + M.T)
            P1 = project_to_dual_subspace(M, rot)
            P2 = project_to_dual_subspace(P1, rot)
            assert np.max(np.abs(P2 - P1)) < 1e-8
            assert np.linalg.norm(P1 @ rot.x_bar) < 1e-8
            # structured correction: diagonal blocks sum to zero, off-diag skew
            D = P1 - rot.Q_bar + _j_term(rot.K + 1, rot.mu_hat)
            s = sum(D[4 * k : 4 * k + 4, 4 * k : 4 * k + 4] for k in range(rot.K + 1))
            assert np.max(np.abs(s)) < 1e-9
            for i in range(rot.K + 1):
                for j in range(i + 1, rot.K + 1):
                    blk = D[4 * i : 4 * i + 4, 4 * j : 4 * j + 4]
                    assert np.max(np.abs(blk + blk.T)) < 1e-9

    def test_matches_dense_pseudoinverse_oracle(self):
        for K in (2, 3, 4):
            rng = np.random.default_rng(K)
            a, b, q_true, _ = make_rotation_instance(rng, K, sigma=0.02, beta=0.2)
            p = RotationProblem(a, b, np.full(K, 0.4), cbar_sq=1.0)
            sol = solve_gnc_tls(p)
            cand = make_candidate(p, sol.rotation, sol.theta)
            rot = rotate_to_candidate_frame(build_cost_matrix(p), cand)
            n = 4 * (K + 1)
            M = rng.normal(size=(n, n))
            M = 0.5 * (M + M.T)
            impl = project_to_dual_subspace(M, rot)
            oracle = dense_affine_projection_oracle(M, rot)
            assert np.max(np.abs(impl - oracle)) < 1e-8

    def test_coupling_inverse_is_exact(self):
        for K in (2, 3, 4, 8):
            rng = np.random.default_rng(K)
            thetas = np.concatenate([[1.0], rng.choice([-1.0, 1.0], size=K)])
            A = build_coupling_matrix(K, thetas)
            P = build_coupling_inverse(K, thetas)
            L = K * (K + 1) // 2
            assert np.max(np.abs(A @ P - np.eye(L))) < 1e-12
            assert np.max(np.abs(P @ A - np.eye(L))) < 1e-12


class TestCertify:
    def test_noiseless_ground_truth_certifies(self):
        p, cand = stationary_candidate(np.random.default_rng(101), 10)
        cert = certify(build_cost_matrix(p), cand)
        assert cert.verdict is Verdict.CERTIFIED
        assert cert.eta < 1e-6
        assert cert.iterations_used <= 200

    def test_corrupted_candidate_rejected_and_bound_sound(self):
        rng = np.random.default_rng(321)
        K = 8
        a, b, q_true, _ = make_rotation_instance(rng, K, sigma=0.01, beta=0.055)
        beta_bars = np.full(K, 0.11)
        p = RotationProblem(a, b, beta_bars, cbar_sq=1.0)
        data = build_cost_matrix(p)
        mu_star = brute_force_rotation_optimum(a, b, beta_bars, p.cbar_sq)

        sol = solve_gnc_tls(p)
        bad_theta = sol.theta.copy()
        bad_theta[np.nonzero(bad_theta > 0)[0][:3]] = -1
        cand = make_candidate(p, sol.rotation, bad_theta)
        assert cand.mu_hat > mu_star + 0.5  # deliberately worse

        cert = certify(data, cand)
        assert cert.verdict is not Verdict.CERTIFIED
        assert (cand.mu_hat - mu_star) / cand.mu_hat <= cert.eta + 1e-9

    def test_soundness_over_random_candidates(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            K = int(rng.integers(3, 8))
            a, b, q_true, _ = make_rotation_instance(
                rng, K, outlier_fraction=0.3, sigma=0.02, beta=0.11
            )
            beta_bars = np.full(K, 0.22)
            p = RotationProblem(a, b, beta_bars, cbar_sq=1.0)
            data = build_cost_matrix(p)
            mu_star = brute_force_rotation_optimum(a, b, beta_bars, p.cbar_sq)
            q = random_unit_quaternion(rng)
            th = rng.choice([-1, 1], size=K)
            cand = make_candidate(p, q, th)
            if cand.mu_hat <= 0:
                continue
            cert = certify(data, cand, CertifyOptions(max_iters=50))
            assert (cand.mu_hat - mu_star) / cand.mu_hat <= cert.eta + 1e-9

    def test_min_eigenvalue_trace_and_eta_relation(self):
        p, cand = stationary_candidate(np.random.default_rng(5), 6)
        cert = certify(build_cost_matrix(p), cand)
        assert len(cert.min_eigenvalue_trace) == cert.iterations_used
        assert cert.eta >= 0.0

    def test_affine_feasible_iterates_have_nonpositive_min_eigenvalue(self):
        # The candidate vector is a null vector of every member of the
        # dual subspace, so lambda_1 can only be <= 0 (up to round-off).
        rng = np.random.default_rng(99)
        a, b, q_true, _ = make_rotation_instance(rng, 10, outlier_fraction=0.3, sigma=0.01)
        p = RotationProblem(a, b, np.full(10, 0.11), cbar_sq=1.0)
        sol = solve_gnc_tls(p)
        cand = make_candidate(p, sol.rotation, sol.theta)
        cert = certify(build_cost_matrix(p), cand, CertifyOptions(max_iters=30, eta_target=1e-12))
        assert all(lam <= 1e-8 for lam in cert.min_eigenvalue_trace)

    def test_matches_full_spectrum_reference_loop(self):
        cases = [
            (gnc_rotated_data(np.random.default_rng(41), 12), CertifyOptions()),
            (gnc_rotated_data(np.random.default_rng(42), 12, corrupt=3),
             CertifyOptions(max_iters=60)),
            (gnc_rotated_data(np.random.default_rng(43), 8, corrupt=2),
             CertifyOptions(max_iters=40)),
        ]
        for (data, cand, _), opts in cases:
            cert = certify(data, cand, opts)
            verdict, iterations, eta = reference_certify(data, cand, opts)
            assert cert.verdict is verdict
            assert cert.iterations_used == iterations
            assert abs(cert.eta - eta) <= 1e-9 * eta

    def test_stall_exit_rejects_early_with_sound_eta(self):
        data, cand, _ = gnc_rotated_data(np.random.default_rng(45), 100, corrupt=3)
        cert = certify(data, cand)
        assert cert.verdict is Verdict.SUBOPTIMAL
        assert cert.iterations_used <= 40
        verdict, iterations, eta_full = reference_certify(data, cand, stall_exit=False)
        assert verdict is not Verdict.CERTIFIED
        assert iterations > cert.iterations_used
        # An earlier iterate's bound: never below the full run's, and close.
        assert eta_full <= cert.eta <= 1.05 * eta_full

    def test_stalled_helper(self):
        # best[t - 1] is the best eta after iteration t
        geometric = [0.95**t for t in range(1, 201)]  # 5% per iteration
        assert not any(stalled(geometric[:t]) for t in range(201))
        flat = [5.0] * 200
        fired = [t for t in range(201) if stalled(flat[:t])]
        assert fired[0] == STALL_WINDOW + 1
        assert not any(stalled(flat[:t]) for t in range(STALL_WINDOW + 1))

    def test_inputs_left_unchanged(self):
        data, cand, rot = gnc_rotated_data(np.random.default_rng(44), 10, corrupt=2)
        Q, Q_bar = data.Q.copy(), rot.Q_bar.copy()
        M = initial_dual_guess(rot)
        M_before = M.copy()
        project_to_psd_cone(M)
        assert np.array_equal(M, M_before)
        A = project_to_dual_subspace(M, rot)
        assert np.array_equal(M, M_before)
        assert np.array_equal(rot.Q_bar, Q_bar)
        assert np.array_equal(A, A.T)
        certify(data, cand, CertifyOptions(max_iters=5))
        assert np.array_equal(data.Q, Q)

    def test_non_stationary_candidate_is_flagged(self):
        rng = np.random.default_rng(13)
        K = 9
        a, b, q_true, _ = make_rotation_instance(rng, K, sigma=0.02, beta=0.11)
        p = RotationProblem(a, b, np.full(K, 0.22), cbar_sq=1.0)
        # a random rotation is nowhere near stationary for the all-inlier set
        cand = make_candidate(p, random_unit_quaternion(rng), np.ones(K, dtype=np.int64))
        cert = certify(build_cost_matrix(p), cand, CertifyOptions(max_iters=5))
        assert not cert.candidate_stationary
        assert cert.stationarity_residual > 1e-6
        # GNC output at convergence is stationary
        sol = solve_gnc_tls(p)
        cert2 = certify(
            build_cost_matrix(p), make_candidate(p, sol.rotation, sol.theta)
        )
        assert cert2.candidate_stationary

    def test_x_vector_layout(self):
        q = np.array([1.0, 2.0, 3.0, 4.0])
        x = x_vector(q, [1, -1])
        assert np.allclose(x, np.concatenate([q, q, -q]))

    def test_min_eigenvalue_helper(self):
        M = np.diag([3.0, -2.0, 5.0])
        assert min_eigenvalue(M) == pytest.approx(-2.0)
