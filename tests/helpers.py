"""Shared brute-force oracles and instance generators for the test suite."""

import dataclasses
import itertools
import math

import numpy as np

from tlsreg.certifier import _diag_scalar_targets, _phi_vectors
from tlsreg.clique import PrunedGraph
from tlsreg.geometry import left_product_matrix, quat_to_matrix, random_unit_quaternion
from tlsreg.rotation import (
    GNC_MAX_ITERATIONS,
    GNC_MU_FACTOR,
    GNC_MU_MIN,
    GNC_MU_STOP,
    GNC_WEIGHT_TOL,
    RotationSolution,
    _horn,
    _weight_update,
    binary_cost,
    check_collinear,
    horn_weighted,
)


def skew(v):
    """Cross-product matrix: skew(v) @ u == cross(v, u)."""
    x, y, z = np.asarray(v, dtype=float)
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def graph_from_edges(n_vertices, edges):
    """PrunedGraph with the undirected edges (i, j) and no self-loops."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if edges.shape[0] and (edges.min() < 0 or edges.max() >= n_vertices):
        raise ValueError("edge index out of range")
    i, j = edges[edges[:, 0] != edges[:, 1]].T
    adj = np.zeros((n_vertices, n_vertices), dtype=bool)
    adj[i, j] = adj[j, i] = True
    return PrunedGraph(adj)


def trim_tables(trims):
    """The symmetric (N, N) s_meas and alpha tables, computed whole."""
    return trims.at(np.s_[:, None], np.s_[None, :])


def upper_trims(trims):
    """(s_meas, alpha) of the TRIMs at the pairs i < j, in row-major order,
    skipping the NaN of the degenerate pairs."""
    i, j = np.triu_indices(len(trims.tims.source), k=1)
    s_meas, alpha = trims.at(i, j)
    ok = ~np.isnan(s_meas)
    return s_meas[ok], alpha[ok]


def quat_from_axis_angle(axis, angle):
    """Unit quaternion [x, y, z, w] of a rotation by angle about axis."""
    axis = np.asarray(axis, dtype=float)
    half = 0.5 * angle
    return np.concatenate([math.sin(half) * axis / np.linalg.norm(axis), [math.cos(half)]])


def j_term(n_blocks, mu_hat):
    """mu_hat * J: mu_hat times the identity on block (0, 0), zero elsewhere."""
    J = np.zeros((4 * n_blocks, 4 * n_blocks))
    J[0:4, 0:4] = mu_hat * np.eye(4)
    return J


def dense_rotated_cost_matrix(Q, q_hat):
    """O^T Q O for the block-diagonal O = diag(L(q_hat), ..., L(q_hat)),
    formed densely and re-symmetrized."""
    B = Q.shape[0] // 4
    O = left_product_matrix(q_hat / np.linalg.norm(q_hat))
    Qr = Q.reshape(B, 4, B, 4)
    Q_bar = np.einsum("pa,ipjq,qb->iajb", O, Qr, O, optimize=True).reshape(Q.shape)
    return 0.5 * (Q_bar + Q_bar.T)


def x_bar(rot):
    """The candidate vector in its own frame: [1, theta] (x) [0, 0, 0, 1]."""
    return np.kron(rot.thetas, [0.0, 0.0, 0.0, 1.0])


def make_rotation_instance(rng, K, outlier_fraction=0.0, sigma=0.0, beta=0.055):
    """Pairwise vectors following the bounded-noise model, plus outliers."""
    a = rng.uniform(-1, 1, size=(K, 3))
    q_true = random_unit_quaternion(rng)
    R = quat_to_matrix(q_true)
    b = a @ R.T
    if sigma > 0:
        noise = rng.normal(0, sigma, size=(K, 3))
        norms = np.linalg.norm(noise, axis=1)
        over = norms > beta
        if np.any(over):
            noise[over] *= (beta / norms[over])[:, None] * 0.99
        b = b + noise
    n_out = round(outlier_fraction * K)
    out_idx = rng.choice(K, size=n_out, replace=False) if n_out else np.empty(0, dtype=int)
    for i in out_idx:
        b[i] = rng.uniform(-2, 2, size=3)
    labels = np.ones(K, dtype=bool)
    labels[out_idx] = False
    return a, b, q_true, labels


def reference_gnc_tls(p, start=None):
    """GNC with every step's rotation polished (_horn on each step): the
    reference whose answers solve_gnc_tls, which polishes once, reproduces.

    It starts where the solver does, at the all-inlier rotation (every
    weight 1/beta^2), unless given another start quaternion."""
    eps_sq = p.cbar_sq
    inv_beta_sq = 1.0 / p.beta_sq
    q = _horn(inv_beta_sq @ p.table) if start is None else start
    r_sq = p.residuals_sq(q)
    mu = max(eps_sq / max(2.0 * float(np.max(r_sq)) - eps_sq, 1e-12), GNC_MU_MIN)
    degenerate = check_collinear(p.a_bars)
    weights = np.ones(p.size)
    converged = False
    for iterations in range(1, GNC_MAX_ITERATIONS + 1):
        with np.errstate(divide="ignore", over="ignore"):
            weights = _weight_update(r_sq, mu, eps_sq)
        w = weights * inv_beta_sq
        if np.count_nonzero(w) >= 2:
            q = _horn(w @ p.table)
        r_sq = p.residuals_sq(q)
        if mu >= GNC_MU_STOP or np.max(np.minimum(weights, 1.0 - weights)) < GNC_WEIGHT_TOL:
            converged = True
            break
        mu *= GNC_MU_FACTOR
    theta = np.where(weights >= 0.5, 1, -1).astype(np.int64)
    return RotationSolution(q, theta, binary_cost(p, q, theta), iterations, converged, degenerate)


def answer_record(result):
    """What a register call answered, as plain Python values that compare
    with ==: the transform, the inliers, the clique and its completion, the
    certificate's verdict, eta and iterations, and every trace field but
    the times."""
    tf, cert = result.transform, result.certificate
    return {
        "scale": float(tf.scale),
        "rotation": tf.rotation.as_array().tolist(),
        "translation": tf.translation.tolist(),
        "inlier_indices": result.inlier_indices.tolist(),
        "clique": result.clique.vertices.tolist(),
        "clique_completed": bool(result.clique.is_certified_maximum),
        "certificate": None if cert is None
        else (cert.verdict.value, float(cert.eta), cert.iterations_used),
        "trace": {
            f.name: getattr(result.trace, f.name)
            for f in dataclasses.fields(result.trace)
            if not f.name.endswith("_s")
        },
    }


def truncated_cost(p, q):
    """Exact truncated rotation objective of RotationProblem p at q."""
    return float(np.sum(np.minimum(p.residuals_sq(q), p.cbar_sq)))


def gnc_surrogate(r_sq, weights, mu, eps_sq):
    """GNC's annealed objective: weighted residuals plus the penalty whose
    minimizer over w in [0, 1] is the solver's closed-form weight update."""
    return float(np.sum(weights * r_sq + mu * (1.0 - weights) / (mu + weights) * eps_sq))


def finite_trim_count(trims):
    """Number of pairs i < j with a finite TRIM: every pair but the
    degenerate ones."""
    return len(trims.tims) - len(trims.skipped_rows)


def brute_force_rotation_optimum(a, b, beta_bars, cbar_sq):
    """Global minimum of the truncated rotation cost by enumerating every
    indicator assignment and solving the inlier subproblem in closed form."""
    K = a.shape[0]
    best = K * cbar_sq
    for theta in itertools.product([1, -1], repeat=K):
        mask = np.array(theta) > 0
        n_in = int(mask.sum())
        n_out = K - n_in
        if n_in == 0:
            cost = K * cbar_sq
        elif n_in == 1:
            gap = np.linalg.norm(b[mask][0]) - np.linalg.norm(a[mask][0])
            cost = gap**2 / beta_bars[mask][0] ** 2 + n_out * cbar_sq
        else:
            w = 1.0 / beta_bars[mask] ** 2
            if check_collinear(a[mask]):
                # Rotation about the common axis is free; align the axis by
                # falling back to the generic solver (still optimal here).
                pass
            q = horn_weighted(a[mask], b[mask], w)
            R = quat_to_matrix(q)
            r_sq = np.sum((b[mask] - a[mask] @ R.T) ** 2, axis=1) / beta_bars[mask] ** 2
            cost = float(np.sum(r_sq)) + n_out * cbar_sq
        best = min(best, cost)
    return best


def dense_affine_projection_oracle(M, rot):
    """Pseudoinverse projection onto the rotated dual subspace, built from
    the raw constraint list on the full matrix parameterization."""
    B = rot.K + 1
    n = 4 * B
    Jm = j_term(B, rot.mu_hat)
    H = M - rot.Q_bar + Jm

    rows = []
    rhs = []

    def add(coeffs, b):
        r = np.zeros(n * n)
        for (i, j), v in coeffs.items():
            r[i * n + j] += v
        rows.append(r)
        rhs.append(b)

    for i in range(n):
        for j in range(i + 1, n):
            add({(i, j): 1.0, (j, i): -1.0}, 0.0)
    for u in range(4):
        for v in range(4):
            add({(4 * k + u, 4 * k + v): 1.0 for k in range(B)}, 0.0)
    for bi in range(B):
        for bj in range(bi + 1, B):
            for u in range(4):
                for v in range(4):
                    add({(4 * bi + u, 4 * bj + v): 1.0, (4 * bi + v, 4 * bj + u): 1.0}, 0.0)
    scal = _diag_scalar_targets(rot)
    for k in range(B):
        add({(4 * k + 3, 4 * k + 3): 1.0}, scal[k])
    phis = _phi_vectors(rot)
    th = rot.thetas
    for k in range(B):
        for u in range(3):
            coeffs = {(4 * k + u, 4 * k + 3): 1.0}
            for i in range(B):
                if i == k:
                    continue
                key = (4 * k + u, 4 * i + 3)
                coeffs[key] = coeffs.get(key, 0.0) + th[k] * th[i]
            add(coeffs, phis[k][u])

    A = np.array(rows)
    bvec = np.array(rhs)
    h = H.ravel()
    x = h - A.T @ np.linalg.lstsq(A @ A.T, A @ h - bvec, rcond=None)[0]
    return x.reshape(n, n) + rot.Q_bar - Jm


def vectorized_subset_oracle(measurements, alphas, cbar_sq):
    """All-2^K-subsets oracle for the scalar truncated problem.

    Returns (best_cost, best_consensus_size): the minimum truncated cost
    over subsets whose weighted-LS center keeps every member within the
    threshold, and the maximum cardinality of a simultaneously-feasible
    subset.
    """
    s = np.asarray(measurements, dtype=float)
    a = np.asarray(alphas, dtype=float)
    K = s.size
    cbar = np.sqrt(cbar_sq)
    masks = (np.arange(1, 2**K)[:, None] >> np.arange(K)[None, :]) & 1
    masks = masks.astype(bool)
    inv_a2 = 1.0 / a**2
    W = masks @ inv_a2
    S1 = masks @ (s * inv_a2)
    centers = S1 / W
    n = masks.sum(axis=1)

    resid = (centers[:, None] - s[None, :]) / a[None, :]
    within = np.abs(centers[:, None] - s[None, :]) <= a[None, :] * cbar * (1 + 1e-12)
    valid = ~np.any(masks & ~within, axis=1)
    sq = np.where(masks, resid**2, 0.0).sum(axis=1)
    costs = sq + (K - n) * cbar_sq
    best_cost = float(np.min(costs[valid])) if np.any(valid) else K * cbar_sq
    best_cost = min(best_cost, K * cbar_sq)

    lo = np.where(masks, s - a * cbar, -np.inf).max(axis=1)
    hi = np.where(masks, s + a * cbar, np.inf).min(axis=1)
    feasible = lo <= hi + 1e-12
    best_size = int(np.max(n[feasible])) if np.any(feasible) else 0
    return best_cost, best_size


def row_vote_oracle(s_row, a_row, cbar_sq):
    """Brute-force vote of one row: the most closed intervals sharing a
    point, and the midpoint of the first sweep interval with that many.
    That interval starts at p, the smallest point covered that many times,
    and ends at the first upper boundary at or past p."""
    ok = ~np.isnan(s_row)
    half = np.sqrt(cbar_sq) * a_row[ok]
    lo = np.maximum(s_row[ok] - half, 0.0)
    hi = s_row[ok] + half
    if lo.size == 0:
        return 0, np.nan
    cover = np.array([np.count_nonzero((lo <= x) & (x <= hi)) for x in lo])
    p = lo[cover == cover.max()].min()
    return int(cover.max()), 0.5 * (p + hi[hi >= p].min())


def pair_index_map(K):
    pairs = [(r, c) for r in range(K + 1) for c in range(r + 1, K + 1)]
    return pairs, {rc: l for l, rc in enumerate(pairs)}


def build_coupling_matrix(K, thetas):
    """The linear system tying off-diagonal vector parts together."""
    th = np.asarray(thetas, dtype=float)
    pairs, u = pair_index_map(K)
    L = len(pairs)
    A = np.zeros((L, L))
    for l, (rl, cl) in enumerate(pairs):
        A[l, l] = 4.0
        for i in range(K + 1):
            if i < rl:
                A[l, u[(i, rl)]] += -th[cl] * th[i]
            elif i > rl and i != cl:
                A[l, u[(rl, i)]] += th[cl] * th[i]
            if i < cl and i != rl:
                A[l, u[(i, cl)]] += th[rl] * th[i]
            elif i > cl:
                A[l, u[(cl, i)]] += -th[rl] * th[i]
    return A


def build_coupling_inverse(K, thetas):
    """Closed-form inverse of the coupling matrix."""
    th = np.asarray(thetas, dtype=float)
    pairs, u = pair_index_map(K)
    L = len(pairs)
    p1 = (K + 1) / (2 * K + 6)
    p2 = 1.0 / (2 * K + 6)
    P = np.zeros((L, L))
    for l, (rl, cl) in enumerate(pairs):
        P[l, l] = p1
        for i in range(K + 1):
            if i < rl:
                P[u[(i, rl)], l] += th[cl] * th[i] * p2
            elif i > rl and i != cl:
                P[u[(rl, i)], l] += -th[cl] * th[i] * p2
            if i < cl and i != rl:
                P[u[(i, cl)], l] += -th[rl] * th[i] * p2
            elif i > cl:
                P[u[(cl, i)], l] += th[rl] * th[i] * p2
    return P


def reference_sweep_intervals(p):
    """The boundary sweep with a stable argsort and float running counts:
    the (lo, hi, n, w, s1, s2) arrays the faster sweep must reproduce bit
    for bit."""
    s, a = p.measurements, p.alphas
    half = a * np.sqrt(p.cbar_sq)
    K = s.size

    pos = np.concatenate([s - half, s + half])
    order = np.argsort(pos, kind="stable")
    pos = pos[order]

    def running(v, at):
        return np.cumsum(np.concatenate([v, -v])[order])[at]

    # Every boundary is an edge: the state after event i holds on
    # [pos[i], pos[i + 1]].
    n = np.rint(running(np.ones(K), slice(None, -1))).astype(np.int64)
    occupied = np.nonzero(n > 0)[0]
    inv_a2 = 1.0 / (a * a)
    return (
        pos[occupied],
        pos[occupied + 1],
        n[occupied],
        running(inv_a2, occupied),
        running(s * inv_a2, occupied),
        running(s * s * inv_a2, occupied),
    )
