"""Weighted closed-form rotation solver and the annealed truncated solver."""

import itertools
import math

import numpy as np
import pytest

from tlsreg.geometry import (
    geodesic_rotation_error,
    left_product_matrix,
    quat_from_axis_angle,
    quat_to_matrix,
    random_unit_quaternion,
    right_product_matrix,
)
from tlsreg.rotation import (
    GNC_MAX_ITERATIONS,
    GNC_MU_FACTOR,
    GNC_MU_MIN,
    GNC_MU_STOP,
    GNC_WEIGHT_TOL,
    RotationProblem,
    _accumulation_matrix,
    _surrogate,
    _weight_update,
    binary_cost,
    check_collinear,
    horn_weighted,
    solve_gnc_tls,
    truncated_cost,
)

RNG = np.random.default_rng(2024)


def weighted_cost(a, b, w, R):
    return float(np.sum(w * np.sum((b - a @ R.T) ** 2, axis=1)))


def make_instance(rng, K, outlier_fraction=0.0, sigma=0.0, beta=0.1):
    a = rng.uniform(-1, 1, size=(K, 3))
    q = random_unit_quaternion(rng)
    R = quat_to_matrix(q)
    b = a @ R.T
    if sigma > 0:
        noise = rng.normal(0, sigma, size=(K, 3))
        norms = np.linalg.norm(noise, axis=1)
        over = norms > beta
        if np.any(over):
            noise[over] *= (beta / norms[over])[:, None] * 0.99
        b = b + noise
    n_out = round(outlier_fraction * K)
    out_idx = rng.choice(K, size=n_out, replace=False)
    for i in out_idx:
        b[i] = rng.uniform(-2, 2, size=3)
    labels = np.ones(K, dtype=bool)
    labels[out_idx] = False
    return a, b, q, labels


def reference_accumulation_matrix(a, b, w):
    """Per-measurement sum of the weighted quaternion product matrices."""
    M = np.zeros((4, 4))
    for a_k, b_k, w_k in zip(a, b, w):
        M += w_k * left_product_matrix(np.append(b_k, 0.0)).T @ right_product_matrix(
            np.append(a_k, 0.0)
        )
    return 0.5 * (M + M.T)


class TestAccumulationMatrix:
    @pytest.mark.parametrize("K", [2, 7, 500])
    def test_matches_per_measurement_sum(self, K):
        rng = np.random.default_rng(K)
        a = rng.normal(size=(K, 3)) * rng.uniform(0.1, 10.0, size=(K, 1))
        b = rng.normal(size=(K, 3)) * rng.uniform(0.1, 10.0, size=(K, 1))
        w = rng.uniform(0.0, 5.0, size=K)
        w[rng.choice(K, size=max(1, K // 4), replace=False)] = 0.0
        M = _accumulation_matrix(a, b, w)
        ref = reference_accumulation_matrix(a, b, w)
        assert np.max(np.abs(M - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert np.array_equal(M, M.T)


class TestHornWeighted:
    def test_exact_recovery_uniform_weights(self):
        for _ in range(20):
            a, b, q_true, _ = make_instance(RNG, 10)
            q = horn_weighted(a, b, np.ones(10))
            err = geodesic_rotation_error(quat_to_matrix(q), quat_to_matrix(q_true))
            assert err < 1e-10

    def test_zero_weight_equals_omission(self):
        a, b, _, _ = make_instance(RNG, 6, sigma=0.02)
        b[5] = [9.0, -9.0, 9.0]  # corrupted
        w = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 0.0])
        q_weighted = horn_weighted(a, b, w)
        q_omitted = horn_weighted(a[:5], b[:5], np.ones(5))
        assert geodesic_rotation_error(quat_to_matrix(q_weighted), quat_to_matrix(q_omitted)) < 1e-12

    def test_beats_random_rotations(self):
        # Cheap probabilistic optimality check: no random rotation does better.
        for _ in range(5):
            a, b, _, _ = make_instance(RNG, 8, sigma=0.05, beta=0.3)
            w = RNG.uniform(0.1, 1.0, size=8)
            q = horn_weighted(a, b, w)
            cost = weighted_cost(a, b, w, quat_to_matrix(q))
            for _ in range(1000):
                R = quat_to_matrix(random_unit_quaternion(RNG))
                assert cost <= weighted_cost(a, b, w, R) + 1e-9

    def test_matches_grid_search_oracle(self):
        # Oracle: dense 2-degree Euler grid, then Nelder-Mead refinement of
        # the grid winner.  The weighted cost is linear in R, so the grid
        # scan reduces to an inner product with the correlation matrix.
        from scipy.optimize import minimize

        rng = np.random.default_rng(5)
        a, b, _, _ = make_instance(rng, 4, sigma=0.05, beta=0.3)
        w = rng.uniform(0.2, 1.0, size=4)
        T = (b * w[:, None]).T @ a  # cost = const - 2 tr(R^T T)

        step = math.radians(2.0)
        angles1 = np.arange(0, 2 * math.pi, step)
        angles2 = np.arange(0, math.pi + step, step)

        def rot_z(t):
            c, s = np.cos(t), np.sin(t)
            out = np.zeros(t.shape + (3, 3))
            out[..., 0, 0] = c
            out[..., 0, 1] = -s
            out[..., 1, 0] = s
            out[..., 1, 1] = c
            out[..., 2, 2] = 1
            return out

        def rot_y(t):
            c, s = np.cos(t), np.sin(t)
            out = np.zeros(t.shape + (3, 3))
            out[..., 0, 0] = c
            out[..., 0, 2] = s
            out[..., 2, 0] = -s
            out[..., 2, 2] = c
            out[..., 1, 1] = 1
            return out

        best_val = -np.inf
        best_R = None
        Ry = rot_y(angles2)
        Rz2 = rot_z(angles1)
        for psi in angles1:
            R_psi = rot_z(np.array(psi))
            mid = R_psi @ Ry  # (len2, 3, 3)
            full = np.einsum("mij,njk->mnik", mid, Rz2)
            vals = np.einsum("mnik,ik->mn", full, T)
            idx = np.unravel_index(np.argmax(vals), vals.shape)
            if vals[idx] > best_val:
                best_val = vals[idx]
                best_R = full[idx]

        def neg_gain(v):
            angle = np.linalg.norm(v)
            if angle < 1e-12:
                R = best_R
            else:
                R = best_R @ quat_to_matrix(quat_from_axis_angle(v / angle, angle))
            return -np.sum(R * T)

        res = minimize(neg_gain, np.zeros(3), method="Nelder-Mead", options={"xatol": 1e-10, "fatol": 1e-14})
        oracle_cost = float(np.sum(w * (np.sum(b * b, axis=1) + np.sum(a * a, axis=1))) + 2 * res.fun)

        q = horn_weighted(a, b, w)
        solver_cost = weighted_cost(a, b, w, quat_to_matrix(q))
        assert solver_cost <= oracle_cost + 1e-6

    def test_collinear_input_gives_unit_quaternion(self):
        a = np.array([[1.0, 0, 0], [2.0, 0, 0], [3.0, 0, 0]])
        b = a.copy()
        q = horn_weighted(a, b, np.ones(3))
        assert abs(np.linalg.norm(q) - 1.0) < 1e-12
        assert check_collinear(a, np.ones(3))


class TestGncTls:
    def test_no_outliers_low_noise(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            a, b, q_true, _ = make_instance(rng, 40, sigma=0.01, beta=0.055)
            p = RotationProblem(a, b, np.full(40, 0.11))
            sol = solve_gnc_tls(p)
            err = geodesic_rotation_error(sol.matrix, quat_to_matrix(q_true))
            assert math.degrees(err) < 1.0

    def test_seventy_percent_outliers(self):
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            a, b, q_true, _ = make_instance(rng, 40, outlier_fraction=0.7, sigma=0.01, beta=0.055)
            p = RotationProblem(a, b, np.full(40, 0.11))
            sol = solve_gnc_tls(p)
            err = geodesic_rotation_error(sol.matrix, quat_to_matrix(q_true))
            if math.degrees(err) < 1.0:
                hits += 1
        assert hits >= 90

    def test_matches_binary_enumeration_oracle(self):
        # All 2^8 indicator assignments, closed-form rotation per inlier
        # subset, truncation penalty for the rest.
        for seed in (1, 2, 3, 4, 5):
            rng = np.random.default_rng(seed)
            K = 8
            a, b, q_true, _ = make_instance(rng, K, outlier_fraction=0.25, sigma=0.01, beta=0.055)
            beta_bars = np.full(K, 0.11)
            p = RotationProblem(a, b, beta_bars)

            best = np.inf
            for theta in itertools.product([1, -1], repeat=K):
                mask = np.array(theta) > 0
                n_in = int(mask.sum())
                n_out = K - n_in
                if n_in == 0:
                    cost = K * p.cbar_sq
                elif n_in == 1:
                    gap = np.linalg.norm(b[mask][0]) - np.linalg.norm(a[mask][0])
                    cost = gap**2 / beta_bars[mask][0] ** 2 + n_out * p.cbar_sq
                elif check_collinear(a[mask], np.ones(n_in)):
                    continue  # unconstrained axis; never optimal for these seeds
                else:
                    q = horn_weighted(a[mask], b[mask], 1.0 / beta_bars[mask] ** 2)
                    R = quat_to_matrix(q)
                    r_sq = np.sum((b[mask] - a[mask] @ R.T) ** 2, axis=1) / beta_bars[mask] ** 2
                    cost = float(np.sum(r_sq)) + n_out * p.cbar_sq
                best = min(best, cost)

            sol = solve_gnc_tls(p)
            assert sol.cost <= best + 1e-6

    def test_surrogate_monotone_within_iterations(self):
        # Replays solve_gnc_tls step by step: at fixed mu, the weight update
        # and the weighted rotation solve each lower the surrogate.
        rng = np.random.default_rng(77)
        a, b, _, _ = make_instance(rng, 30, outlier_fraction=0.3, sigma=0.01, beta=0.055)
        p = RotationProblem(a, b, np.full(30, 0.11))
        eps_sq = p.cbar_sq
        inv_beta_sq = 1.0 / p.beta_bars**2

        def residuals_sq(q):
            return np.sum((p.b_bars - p.a_bars @ quat_to_matrix(q).T) ** 2, axis=1) * inv_beta_sq

        q = np.array([0.0, 0.0, 0.0, 1.0])
        r_sq = residuals_sq(q)
        mu = max(eps_sq / max(2.0 * float(np.max(r_sq)) - eps_sq, 1e-12), GNC_MU_MIN)
        weights = np.ones(p.size)
        for iterations in range(1, GNC_MAX_ITERATIONS + 1):
            before = _surrogate(r_sq, weights, mu, eps_sq)
            weights = _weight_update(r_sq, mu, eps_sq)
            after_weights = _surrogate(r_sq, weights, mu, eps_sq)
            q = horn_weighted(p.a_bars, p.b_bars, weights * inv_beta_sq)
            r_sq = residuals_sq(q)
            after_solve = _surrogate(r_sq, weights, mu, eps_sq)
            assert after_weights <= before + 1e-9
            assert after_solve <= after_weights + 1e-9
            if mu >= GNC_MU_STOP or np.max(np.minimum(weights, 1.0 - weights)) < GNC_WEIGHT_TOL:
                break
            mu *= GNC_MU_FACTOR
        # the replay took the solver's own steps
        sol = solve_gnc_tls(p)
        assert sol.gnc_iterations == iterations
        assert np.array_equal(sol.rotation, q)

    def test_output_quaternion_is_unit_and_rotation_valid(self):
        rng = np.random.default_rng(3)
        a, b, _, _ = make_instance(rng, 20, outlier_fraction=0.2, sigma=0.01, beta=0.055)
        sol = solve_gnc_tls(RotationProblem(a, b, np.full(20, 0.11)))
        assert abs(np.linalg.norm(sol.rotation) - 1.0) < 1e-12
        R = sol.matrix
        assert np.max(np.abs(R.T @ R - np.eye(3))) < 1e-10
        assert abs(np.linalg.det(R) - 1.0) < 1e-10

    def test_theta_consistent_with_residuals_at_convergence(self):
        rng = np.random.default_rng(8)
        a, b, _, _ = make_instance(rng, 25, outlier_fraction=0.2, sigma=0.005, beta=0.03)
        p = RotationProblem(a, b, np.full(25, 0.06))
        sol = solve_gnc_tls(p)
        assert sol.converged
        r_sq = np.sum((p.b_bars - p.a_bars @ sol.matrix.T) ** 2, axis=1) / p.beta_bars**2
        assert np.array_equal(sol.theta > 0, r_sq <= p.cbar_sq)

    def test_cost_recomputable(self):
        rng = np.random.default_rng(12)
        a, b, _, _ = make_instance(rng, 15, outlier_fraction=0.2, sigma=0.01, beta=0.055)
        p = RotationProblem(a, b, np.full(15, 0.11))
        sol = solve_gnc_tls(p)
        assert abs(binary_cost(p, sol.rotation, sol.theta) - sol.cost) < 1e-12
        # At convergence theta matches the residual test, so the binary
        # cost equals the truncated objective.
        if sol.converged:
            assert abs(truncated_cost(p, sol.rotation) - sol.cost) < 1e-9

    def test_rejects_tiny_problems(self):
        with pytest.raises(ValueError):
            RotationProblem(np.ones((1, 3)), np.ones((1, 3)), [0.1])
