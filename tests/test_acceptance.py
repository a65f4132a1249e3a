"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to watch the lines appear.
Every tolerance is pinned here; nothing is deferred to calibration.
"""

import math
import time

import numpy as np

from helpers import (
    brute_force_rotation_optimum,
    build_coupling_inverse,
    build_coupling_matrix,
    dense_affine_projection_oracle,
    make_rotation_instance,
    vectorized_subset_oracle,
)
from tlsreg.certifier import (
    CertifyOptions,
    Verdict,
    build_cost_matrix,
    certify,
    make_candidate,
    project_to_dual_subspace,
    project_to_psd_cone,
    rotate_to_candidate_frame,
)
from tlsreg.clique import max_clique, prune_by_scale
from tlsreg.geometry import TlsConfig, geodesic_rotation_error, quat_to_matrix
from tlsreg.invariants import build_measurement_graph
from tlsreg.pipeline import (
    RegistrationOptions,
    compute_error_bounds,
    register,
)
from tlsreg.rotation import RotationProblem, solve_gnc_tls
from tlsreg.scalar_tls import (
    ScalarTlsProblem,
    consensus_equivalence_check,
    solve_consensus_max,
    solve_scalar_tls,
)
from tlsreg.synthetic import SyntheticSpec, generate


def report(criterion: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_scalar_tls_exactness():
    rng = np.random.default_rng(101)
    solver_time = 0.0
    cost_fail = 0
    card_fail = 0
    t_total0 = time.perf_counter()
    for _ in range(200):
        K = int(rng.integers(1, 13))
        p = ScalarTlsProblem(
            rng.uniform(-5, 5, size=K),
            rng.uniform(0.1, 2.0, size=K),
            cbar_sq=float(rng.uniform(0.5, 2.0)),
        )
        t0 = time.perf_counter()
        sol = solve_scalar_tls(p)
        mc = solve_consensus_max(p)
        solver_time += time.perf_counter() - t0
        oracle_cost, oracle_size = vectorized_subset_oracle(
            p.measurements, p.alphas, p.cbar_sq
        )
        if abs(sol.cost - oracle_cost) > 1e-9:
            cost_fail += 1
        if int(mc.inlier_mask.sum()) != oracle_size:
            card_fail += 1
    total = time.perf_counter() - t_total0
    ok = cost_fail == 0 and card_fail == 0 and total < 5.0
    report(
        1,
        ok,
        f"200 instances: {cost_fail} cost mismatches, {card_fail} cardinality "
        f"mismatches, {total:.2f}s total (solver {solver_time:.3f}s)",
    )


def test_criterion_2_tls_mc_agreement():
    rng = np.random.default_rng(202)
    found = 0
    agree = 0
    while found < 50:
        K = int(rng.integers(2, 15))
        p = ScalarTlsProblem(
            rng.uniform(-5, 5, size=K),
            rng.uniform(0.1, 1.0, size=K),
            cbar_sq=1.0,
        )
        diag = consensus_equivalence_check(p)
        if not diag.equivalent:
            continue
        found += 1
        tls = solve_scalar_tls(p)
        mc = solve_consensus_max(p)
        if np.array_equal(tls.inlier_mask, mc.inlier_mask):
            agree += 1
    report(2, agree == 50, f"{agree}/50 equivalence-condition instances had identical masks")


def test_criterion_3_noiseless_exact_recovery():
    hits = 0
    certified = 0
    for seed in range(100):
        c, gt, labels = generate(
            SyntheticSpec(n_points=20, sigma=0.0, outlier_rate=0.5, seed=seed)
        )
        res = register(c, TlsConfig(), RegistrationOptions(certify_rotation=True))
        ds = abs(res.transform.scale - gt.scale)
        dr = geodesic_rotation_error(res.transform.matrix, gt.rotation.to_matrix())
        dt = float(np.linalg.norm(res.transform.translation - gt.translation))
        if ds < 1e-8 and dr < 1e-8 and dt < 1e-8:
            hits += 1
        if res.certificate is not None and res.certificate.eta < 1e-6:
            certified += 1
    ok = hits == 100 and certified == 100
    report(3, ok, f"{hits}/100 exact recoveries, {certified}/100 certificates with eta < 1e-6")


def test_criterion_4_mcis_effectiveness():
    results = {}
    for rate in (0.8, 0.9, 0.95):
        good = 0
        for seed in range(40):
            c, gt, labels = generate(
                SyntheticSpec(
                    n_points=1000, sigma=0.01, outlier_rate=rate,
                    seed=10_000 + seed, known_scale=True,
                )
            )
            graph = build_measurement_graph(c)
            pruned = prune_by_scale(graph, 1.0, 1.0)
            clique = max_clique(pruned)
            members = clique.vertices
            n_out = int(np.sum(~labels[members]))
            if len(members) > 0 and n_out / len(members) < 0.10:
                good += 1
        results[rate] = good
    ok = all(v >= 38 for v in results.values())
    report(4, ok, f"post-clique outlier fraction < 10% in {results} of 40 seeds per rate")


def test_criterion_5_known_scale_robustness():
    t_start = time.perf_counter()
    medians = {}
    for rate in (0.5, 0.8, 0.9):
        rot_errs, tr_errs = [], []
        for seed in range(40):
            c, gt, _ = generate(
                SyntheticSpec(
                    n_points=100, sigma=0.01, outlier_rate=rate,
                    seed=20_000 + seed, known_scale=True,
                )
            )
            res = register(c, TlsConfig(), RegistrationOptions(known_scale=1.0))
            rot_errs.append(
                math.degrees(geodesic_rotation_error(res.transform.matrix, gt.rotation.to_matrix()))
            )
            tr_errs.append(float(np.linalg.norm(res.transform.translation - gt.translation)))
        medians[rate] = (float(np.median(rot_errs)), float(np.median(tr_errs)))

    extreme_hits = 0
    for seed in range(40):
        c, gt, _ = generate(
            SyntheticSpec(
                n_points=1000, sigma=0.01, outlier_rate=0.99,
                seed=30_000 + seed, known_scale=True,
            )
        )
        res = register(c, TlsConfig(), RegistrationOptions(known_scale=1.0))
        err = math.degrees(
            geodesic_rotation_error(res.transform.matrix, gt.rotation.to_matrix())
        )
        if err < 3.0:
            extreme_hits += 1
    elapsed = time.perf_counter() - t_start

    ok = (
        all(rot < 1.0 and tr < 0.05 for rot, tr in medians.values())
        and extreme_hits >= 36
        and elapsed < 300.0
    )
    report(
        5,
        ok,
        f"medians (rot deg, trans) {medians}; extreme 99%: {extreme_hits}/40 under 3 deg; "
        f"{elapsed:.0f}s (< 300s)",
    )


def test_criterion_6_unknown_scale_robustness():
    medians = {}
    for rate in (0.5, 0.7, 0.8):
        rot_errs, scale_errs = [], []
        for seed in range(40):
            c, gt, _ = generate(
                SyntheticSpec(
                    n_points=100, sigma=0.01, outlier_rate=rate, seed=40_000 + seed
                )
            )
            res = register(c)
            rot_errs.append(
                math.degrees(geodesic_rotation_error(res.transform.matrix, gt.rotation.to_matrix()))
            )
            scale_errs.append(abs(res.transform.scale - gt.scale))
        medians[rate] = (float(np.median(scale_errs)), float(np.median(rot_errs)))
    ok = all(ds < 0.05 and rot < 1.5 for ds, rot in medians.values())
    report(6, ok, f"medians (scale, rot deg) per rate: {medians}")


def test_criterion_7_certifier_soundness():
    rng = np.random.default_rng(707)
    checked = 0
    violations = 0
    for trial in range(100):
        K = int(rng.integers(4, 11))
        rate = float(rng.uniform(0.0, 0.6))
        a, b, q_true, _ = make_rotation_instance(
            rng, K, outlier_fraction=rate, sigma=0.01, beta=0.055
        )
        beta_bars = np.full(K, 0.11)
        p = RotationProblem(a, b, beta_bars, cbar_sq=1.0)
        data = build_cost_matrix(p)
        mu_star = brute_force_rotation_optimum(a, b, beta_bars, p.cbar_sq)

        sol = solve_gnc_tls(p)
        candidates = [make_candidate(p, sol.rotation, sol.theta)]
        bad_theta = sol.theta.copy()
        bad_theta[int(rng.integers(0, K))] *= -1
        candidates.append(make_candidate(p, sol.rotation, bad_theta))
        for cand in candidates:
            if cand.mu_hat <= 0:
                continue
            cert = certify(data, cand, CertifyOptions(max_iters=100))
            checked += 1
            if (cand.mu_hat - mu_star) / cand.mu_hat > cert.eta + 1e-9:
                violations += 1
    report(7, violations == 0, f"{violations} soundness violations over {checked} candidates")


def test_criterion_8_certifier_discrimination():
    rng = np.random.default_rng(808)
    rates = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7]
    n_trials = 100
    good_and_certified = 0
    good_total = 0
    iter_counts = []
    corrupted_rejected = 0
    corrupted_total = 0
    for trial in range(n_trials):
        rate = rates[trial % len(rates)]
        a, b, q_true, _ = make_rotation_instance(
            rng, 100, outlier_fraction=rate, sigma=0.01, beta=0.055
        )
        beta_bars = np.full(100, 0.11)
        p = RotationProblem(a, b, beta_bars, cbar_sq=1.0)
        sol = solve_gnc_tls(p)
        err_deg = math.degrees(
            geodesic_rotation_error(sol.matrix, quat_to_matrix(q_true))
        )
        data = build_cost_matrix(p)
        cand = make_candidate(p, sol.rotation, sol.theta)
        cert = certify(data, cand)
        if err_deg < 1.0:
            good_total += 1
            if cert.verdict is Verdict.CERTIFIED and cert.eta < 1e-3:
                good_and_certified += 1
                iter_counts.append(cert.iterations_used)
        # Deliberately corrupted candidate on a quarter of the trials
        # (rejection ends once the bound stalls, after 11-26 iterations).
        if trial % 4 == 0:
            corrupted_total += 1
            bad = sol.theta.copy()
            inl = np.nonzero(bad > 0)[0]
            bad[inl[:3]] = -1
            cbad = make_candidate(p, sol.rotation, bad)
            certb = certify(data, cbad)
            if certb.verdict is not Verdict.CERTIFIED:
                corrupted_rejected += 1
    med_iters = float(np.median(iter_counts)) if iter_counts else math.inf
    ok = (
        good_total > 0
        and good_and_certified == good_total
        and corrupted_rejected == corrupted_total
        and med_iters <= 50
    )
    report(
        8,
        ok,
        f"{good_and_certified}/{good_total} accurate solutions certified; "
        f"{corrupted_rejected}/{corrupted_total} corrupted candidates rejected; "
        f"median iterations {med_iters}",
    )


def test_criterion_9_projection_algebra():
    inverse_ok = True
    for K in (2, 3, 4, 8):
        rng = np.random.default_rng(K)
        thetas = np.concatenate([[1.0], rng.choice([-1.0, 1.0], size=K)])
        A = build_coupling_matrix(K, thetas)
        P = build_coupling_inverse(K, thetas)
        L = K * (K + 1) // 2
        if np.max(np.abs(A @ P - np.eye(L))) > 1e-12:
            inverse_ok = False

    oracle_ok = True
    idem_ok = True
    for K in (2, 3, 4):
        rng = np.random.default_rng(900 + K)
        a, b, q_true, _ = make_rotation_instance(rng, K, sigma=0.02, beta=0.2)
        p = RotationProblem(a, b, np.full(K, 0.4), cbar_sq=1.0)
        sol = solve_gnc_tls(p)
        cand = make_candidate(p, sol.rotation, sol.theta)
        rot = rotate_to_candidate_frame(build_cost_matrix(p), cand)
        n = 4 * (K + 1)
        M = rng.normal(size=(n, n))
        M = 0.5 * (M + M.T)
        impl = project_to_dual_subspace(M, rot)
        if np.max(np.abs(impl - dense_affine_projection_oracle(M, rot))) > 1e-8:
            oracle_ok = False
        if np.max(np.abs(project_to_dual_subspace(impl, rot) - impl)) > 1e-8:
            idem_ok = False
        psd = project_to_psd_cone(M)
        if np.max(np.abs(project_to_psd_cone(psd) - psd)) > 1e-8:
            idem_ok = False
    ok = inverse_ok and oracle_ok and idem_ok
    report(
        9,
        ok,
        f"closed-form inverse exact: {inverse_ok}; dense-oracle match: {oracle_ok}; "
        f"idempotence: {idem_ok}",
    )


def test_criterion_10_bound_validity():
    coarse_ok = 0
    tighter_ok = 0
    tighter_computed = 0
    for seed in range(100):
        c, gt, labels = generate(
            SyntheticSpec(n_points=30, sigma=0.01, outlier_rate=0.3, seed=50_000 + seed)
        )
        res = register(c)
        b = compute_error_bounds(res, c)
        ds = abs(res.transform.scale - gt.scale)
        dF = float(
            np.linalg.norm(
                res.transform.scale * res.transform.matrix - gt.scale * gt.rotation.to_matrix()
            )
        )
        dt = float(np.linalg.norm(res.transform.translation - gt.translation))
        if ds <= b.eta_s and dF <= b.eta_R_frobenius and dt <= b.eta_t:
            coarse_ok += 1
        if b.tighter is not None:
            tighter_computed += 1
            angle = geodesic_rotation_error(res.transform.matrix, gt.rotation.to_matrix())
            dt_axis = np.abs(res.transform.translation - gt.translation)
            if (
                ds <= b.tighter.scale + 1e-12
                and gt.scale * (1 - math.cos(angle)) <= b.tighter.rotation + 1e-12
                and np.all(dt_axis <= b.tighter.translation + 1e-12)
            ):
                tighter_ok += 1
    ok = coarse_ok == 100 and tighter_ok == tighter_computed
    report(
        10,
        ok,
        f"coarse bounds held {coarse_ok}/100; tighter bounds held "
        f"{tighter_ok}/{tighter_computed}",
    )


def test_timing_note_extreme_instance_under_10s():
    c, gt, _ = generate(
        SyntheticSpec(n_points=1000, sigma=0.01, outlier_rate=0.99, seed=60_000, known_scale=True)
    )
    t0 = time.perf_counter()
    res = register(c, TlsConfig(), RegistrationOptions(known_scale=1.0))
    elapsed = time.perf_counter() - t0
    err = math.degrees(geodesic_rotation_error(res.transform.matrix, gt.rotation.to_matrix()))
    ok = elapsed < 10.0 and err < 3.0
    report(11, ok, f"N=1000 at 99% outliers: {elapsed:.2f}s, rotation error {err:.2f} deg")
