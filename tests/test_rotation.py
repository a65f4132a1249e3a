"""Weighted closed-form rotation solver and the annealed truncated solver."""

import itertools
import math

import numpy as np
import pytest

from helpers import (
    gnc_surrogate,
    make_rotation_instance,
    quat_from_axis_angle,
    reference_gnc_tls,
    truncated_cost,
)
from tlsreg.geometry import (
    geodesic_rotation_error,
    left_product_matrix,
    quat_to_matrix,
    random_unit_quaternion,
    right_product_matrix,
)
from tlsreg import rotation
from tlsreg.rotation import (
    GNC_MAX_ITERATIONS,
    GNC_MU_FACTOR,
    GNC_MU_MIN,
    GNC_MU_STOP,
    GNC_WEIGHT_TOL,
    RotationProblem,
    _horn,
    _weight_update,
    binary_cost,
    check_collinear,
    horn_weighted,
    product_matrices,
    product_table,
    solve_gnc_tls,
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
        M = product_matrices(w @ product_table(a, b))
        ref = reference_accumulation_matrix(a, b, w)
        assert np.max(np.abs(M - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert np.array_equal(M, M.T)


def three_mask_weight_update(r_sq, mu, eps_sq):
    """GNC weight update written case by case: 1 below mu/(mu+1) eps_sq,
    0 above (mu+1)/mu eps_sq, the square-root law in between."""
    w = np.empty_like(r_sq)
    lo = mu / (mu + 1.0) * eps_sq
    hi = (mu + 1.0) / mu * eps_sq
    w[r_sq <= lo] = 1.0
    w[r_sq >= hi] = 0.0
    mid = (r_sq > lo) & (r_sq < hi)
    w[mid] = np.sqrt(eps_sq * mu * (mu + 1.0) / r_sq[mid]) - mu
    return np.clip(w, 0.0, 1.0)


class TestMeasurementTable:
    @pytest.mark.parametrize("seed", range(5))
    def test_residuals_match_direct_form(self, seed):
        rng = np.random.default_rng(seed)
        K = 50
        a = rng.normal(size=(K, 3)) * rng.uniform(0.1, 10.0, size=(K, 1))
        b = rng.normal(size=(K, 3)) * rng.uniform(0.1, 10.0, size=(K, 1))
        p = RotationProblem(a, b, rng.uniform(0.05, 2.0, size=K), cbar_sq=1.3)
        for _ in range(10):
            q = random_unit_quaternion(rng)
            R = quat_to_matrix(q)
            direct = ((b - a @ R.T) ** 2).sum(axis=1) / p.beta_bars**2
            scale = (p.sq_norms / p.beta_sq).max()
            assert np.max(np.abs(p.residuals_sq(q) - direct)) <= 1e-13 * scale

    def test_noise_free_residuals_are_nonnegative(self):
        for seed in range(20):
            a, b, q_true, _ = make_instance(np.random.default_rng(seed), 100)
            p = RotationProblem(a, b, np.full(100, 0.01))
            r_sq = p.residuals_sq(q_true)
            assert np.all(r_sq >= 0.0)
            assert np.max(r_sq) < 1e-9

    def test_table_layout(self):
        a = np.array([[1.0, 2.0, 3.0], [-1.0, 0.5, 4.0]])
        b = np.array([[5.0, 7.0, 11.0], [2.0, -3.0, 0.25]])
        table = product_table(a, b)
        for k in range(2):
            for j in range(3):
                for i in range(3):
                    assert table[k, 3 * j + i] == a[k, j] * b[k, i]


class TestWeightUpdate:
    @pytest.mark.parametrize("mu", [GNC_MU_MIN, 1e-3, 0.37, 1.0, 42.0, GNC_MU_STOP])
    def test_matches_three_mask_form(self, mu):
        rng = np.random.default_rng(int(mu * 1e6) % 2**32)
        eps_sq = 1.3
        lo, hi = mu / (mu + 1.0) * eps_sq, (mu + 1.0) / mu * eps_sq
        r_sq = np.concatenate([
            rng.uniform(0.0, 3.0 * hi, size=500), np.exp(rng.uniform(-40.0, 40.0, size=500))
        ])
        w = _weight_update(r_sq, mu, eps_sq)
        assert np.max(np.abs(w - three_mask_weight_update(r_sq, mu, eps_sq))) <= 1e-12
        # On the two thresholds the square-root law is 1 or 0 only up to
        # the round-off of sqrt(.) - mu, a few ulps of mu + 1.
        edges = np.array([0.0, 1e-300, lo, hi, np.nextafter(lo, 0.0), np.nextafter(hi, np.inf)])
        with np.errstate(divide="ignore", over="ignore"):  # as solve_gnc_tls runs it
            w_edges = _weight_update(edges, mu, eps_sq)
        tol = 1e-12 + 4.0 * np.finfo(float).eps * (mu + 1.0)
        assert np.max(np.abs(w_edges - three_mask_weight_update(edges, mu, eps_sq))) <= tol
        assert np.all((w_edges >= 0.0) & (w_edges <= 1.0))

    def test_zero_residual_weighs_exactly_one(self):
        with np.errstate(divide="ignore", over="ignore"):  # as solve_gnc_tls runs it
            w = _weight_update(np.zeros(4), 0.5, 1.0)
        assert np.array_equal(w, np.ones(4))

    def test_gnc_silences_zero_residuals(self):
        # Integer points read residuals of exactly zero at the identity, the
        # first step's rotation.  pytest turns warnings into errors, so a
        # division warning fails here.
        a = np.random.default_rng(5).integers(-3, 4, size=(12, 3)).astype(float)
        p = RotationProblem(a, a, np.full(12, 0.1))
        assert not p.residuals_sq(np.array([0.0, 0.0, 0.0, 1.0])).any()
        sol = solve_gnc_tls(p)
        assert np.all(sol.theta == 1) and sol.cost < 1e-12


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
        assert check_collinear(a)


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
                elif check_collinear(a[mask]):
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
        # Replays solve_gnc_tls step by step from its start, the all-inlier
        # rotation: at fixed mu, the weight update and the weighted rotation
        # solve each lower the surrogate.
        rng = np.random.default_rng(77)
        a, b, _, _ = make_instance(rng, 30, outlier_fraction=0.3, sigma=0.01, beta=0.055)
        p = RotationProblem(a, b, np.full(30, 0.11))
        eps_sq = p.cbar_sq
        inv_beta_sq = 1.0 / p.beta_sq
        q = _horn(inv_beta_sq @ p.table)
        r_sq = p.residuals_sq(q)
        mu = max(eps_sq / max(2.0 * float(np.max(r_sq)) - eps_sq, 1e-12), GNC_MU_MIN)
        weights = np.ones(p.size)
        for iterations in range(1, GNC_MAX_ITERATIONS + 1):
            before = gnc_surrogate(r_sq, weights, mu, eps_sq)
            weights = _weight_update(r_sq, mu, eps_sq)
            after_weights = gnc_surrogate(r_sq, weights, mu, eps_sq)
            q = _horn((weights * inv_beta_sq) @ p.table)
            r_sq = p.residuals_sq(q)
            after_solve = gnc_surrogate(r_sq, weights, mu, eps_sq)
            assert after_weights <= before + 1e-9
            assert after_solve <= after_weights + 1e-9
            if mu >= GNC_MU_STOP or np.max(np.minimum(weights, 1.0 - weights)) < GNC_WEIGHT_TOL:
                break
            mu *= GNC_MU_FACTOR
        # the replay took the solver's own steps
        sol = solve_gnc_tls(p)
        assert sol.gnc_iterations == iterations
        assert np.array_equal(sol.rotation, q)

    def test_certifier_protocol_answers_as_from_the_identity(self):
        # Criterion 8's problems (K = 100, outlier rates 0 to 0.7, its own
        # seed): the all-inlier start gives the rotation bits and indicators
        # an identity start gives, so the certifier sees the same candidates.
        rng = np.random.default_rng(808)
        rates = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7]
        identity = np.array([0.0, 0.0, 0.0, 1.0])
        for trial in range(100):
            a, b, _, _ = make_rotation_instance(
                rng, 100, outlier_fraction=rates[trial % len(rates)], sigma=0.01, beta=0.055
            )
            p = RotationProblem(a, b, np.full(100, 0.11), cbar_sq=1.0)
            sol, ref = solve_gnc_tls(p), reference_gnc_tls(p, start=identity)
            assert sol.rotation.tobytes() == ref.rotation.tobytes(), trial
            assert np.array_equal(sol.theta, ref.theta), trial

    @pytest.mark.parametrize(
        "geometry, tol",
        [
            ("generic", 1e-10),
            ("near-planar", 1e-10),
            ("non-uniform bounds", 1e-10),
            # The rotation about the common line rests on 1e-4 of spread.
            ("near-collinear", 1e-7),
        ],
    )
    def test_matches_the_every_step_polish(self, geometry, tol):
        # Polishing only the last step's rotation takes the same steps as
        # polishing every step: the intermediate rotations differ by eigh's
        # rounding, too little to move a weight across 1/2 or the stop.
        # The rotations differ by the last step's matrix rounding.
        seed = ["generic", "near-planar", "non-uniform bounds", "near-collinear"].index(geometry)
        rng = np.random.default_rng(27_000 + seed)
        for K in (3, 5, 10, 30, 100, 300, 1000):
            for rate in (0.0, 0.3, 0.6, 0.9):
                for _ in range(3):
                    a = rng.uniform(-1, 1, size=(K, 3))
                    if geometry == "near-planar":
                        a[:, 2] *= 1e-4
                    elif geometry == "near-collinear":
                        a = rng.uniform(-1, 1, size=(K, 1)) * [0.6, -0.48, 0.64] + 1e-4 * a
                    beta = np.full(K, 0.11)
                    if geometry == "non-uniform bounds":
                        beta = rng.uniform(0.01, 0.3, size=K)
                    b = a @ quat_to_matrix(random_unit_quaternion(rng)).T
                    noise = rng.normal(size=(K, 3))
                    noise *= (0.5 * beta * rng.uniform(size=K) / np.linalg.norm(noise, axis=1))[
                        :, None
                    ]
                    b += noise
                    out = rng.random(K) < rate
                    b[out] = rng.uniform(-2, 2, size=(int(out.sum()), 3))
                    p = RotationProblem(a, b, beta)
                    sol, ref = solve_gnc_tls(p), reference_gnc_tls(p)
                    assert np.array_equal(sol.theta, ref.theta)
                    assert sol.gnc_iterations == ref.gnc_iterations
                    assert sol.converged == ref.converged
                    assert sol.degenerate == ref.degenerate
                    assert np.max(np.abs(sol.rotation - ref.rotation)) <= tol, (K, rate)

    def test_a_clean_problem_is_solved_once(self, monkeypatch):
        # On inliers only, the first step's weights are all 1: the start's
        # solve is that step's, so it is neither redone nor polished again.
        calls = []

        def counted(name, fn):
            def call(*args):
                calls.append(name)
                return fn(*args)

            return call

        monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
        monkeypatch.setattr(rotation, "_polish", counted("polish", rotation._polish))
        rng = np.random.default_rng(32)
        for K in (3, 45, 2775):
            a, b, _, _ = make_rotation_instance(rng, K, sigma=0.01, beta=0.055)
            calls.clear()
            sol = solve_gnc_tls(RotationProblem(a, b, np.full(K, 0.11)))
            assert sol.gnc_iterations == 1 and sol.converged
            assert calls == ["eigh", "polish"]

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

    @pytest.mark.parametrize("field", ["a_bars", "b_bars", "beta_bars", "cbar_sq"])
    def test_rejects_non_finite_input(self, field):
        args = {"a_bars": np.ones((3, 3)), "b_bars": np.ones((3, 3)),
                "beta_bars": np.ones(3), "cbar_sq": 1.0}
        if field == "cbar_sq":
            args[field] = math.inf
        else:
            args[field] = args[field].copy()
            args[field][1] = math.inf
        with pytest.raises(ValueError, match="finite"):
            RotationProblem(**args)

    @pytest.mark.parametrize("rate", [0.0, 0.3, 0.6])
    def test_a_change_of_units_keeps_the_bits(self, rate):
        # 2^-520 puts beta^2 (about 2^-1050) below the smallest normal
        # double: 1/beta^2 in the caller's units would overflow.  Scaling by
        # a power of two is exact, so the answer keeps its bits.
        rng = np.random.default_rng(33_000 + int(10 * rate))
        a, b, _, _ = make_rotation_instance(rng, 40, outlier_fraction=rate, sigma=0.01, beta=0.055)
        beta = np.full(40, 0.11)
        unit = solve_gnc_tls(RotationProblem(a, b, beta))
        for e in (-520, -300, 300, 520):
            sol = solve_gnc_tls(
                RotationProblem(np.ldexp(a, e), np.ldexp(b, e), np.ldexp(beta, e))
            )
            assert sol.rotation.tobytes() == unit.rotation.tobytes(), e
            assert np.array_equal(sol.theta, unit.theta), e
            assert (sol.cost, sol.gnc_iterations, sol.converged, sol.degenerate) == (
                unit.cost, unit.gnc_iterations, unit.converged, unit.degenerate
            ), e
