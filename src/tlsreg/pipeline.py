"""End-to-end decoupled registration cascade.

Scale is voted exactly from the rotation-invariant measurements; edges
inconsistent with the scale are pruned and the maximum clique of the
survivors becomes the inlier candidate set; rotation is solved on the
clique's pairwise measurements by graduated non-convexity (optionally
certified); translation is solved per-axis by the same exact scalar
solver on the aligned residuals.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import clique
from .certifier import Certificate, build_cost_matrix, certify, make_candidate
from .clique import CliqueResult, prune_by_scale
from .geometry import CorrespondenceSet, RigidTransform, TlsConfig, UnitQuaternion
from .invariants import MeasurementGraph, build_measurement_graph
from .rotation import RotationProblem, solve_gnc_tls
from .scalar_tls import ScalarTlsProblem, solve_scalar_tls


class InsufficientInliersError(RuntimeError):
    """Raised when the surviving inlier structure cannot pin down a pose."""


@dataclass(frozen=True)
class RegistrationOptions:
    known_scale: float | None = None
    certify_rotation: bool = False
    clique_time_budget: float = clique.DEFAULT_TIME_BUDGET
    # The certifier's matrices are 4(K+1) square, so past a few hundred
    # rotation measurements K certification is not tractable and is skipped.
    certify_max_k: int = 600


@dataclass(frozen=True)
class RegistrationResult:
    transform: RigidTransform
    inlier_indices: np.ndarray
    certificate: Certificate | None
    stage_timings: dict
    stage_stats: dict
    clique: CliqueResult
    graph: MeasurementGraph


@dataclass(frozen=True)
class TighterBounds:
    """Worst-case-over-3-subsets versions of the a-posteriori bounds.

    scale bounds |s_hat - s_true|; rotation bounds s_true*(1 - cos(angle));
    translation bounds each |t_hat_l - t_true_l|.  worst_case is False when
    subset enumeration was capped and the selected set was used directly.
    """

    scale: float
    rotation: float
    translation: np.ndarray
    worst_case: bool


@dataclass(frozen=True)
class ErrorBounds:
    eta_s: float
    eta_R_frobenius: float
    eta_t: float
    u_min_singular_value: float
    u_tuples_exhaustive: bool
    tighter: TighterBounds | None


def _clique_consistent(graph: MeasurementGraph, s_hat: float, cbar_sq: float, clique_vertices):
    """TRIM rows consistent with s_hat whose endpoints are both in the clique,
    and their vertex pairs."""
    rows, pairs = graph.trims_within(clique_vertices)
    keep = graph.trims.consistent_with(s_hat, cbar_sq, rows)
    return rows[keep], pairs[keep]


def _clique_rotation_problem(
    graph: MeasurementGraph, s_hat: float, cbar_sq: float, clique_vertices
) -> RotationProblem:
    """Rotation input: scale-consistent edges with both endpoints in the clique."""
    rows, pairs = _clique_consistent(graph, s_hat, cbar_sq, clique_vertices)
    if rows.size < 2:
        raise InsufficientInliersError(
            "fewer than two scale-consistent measurements inside the clique"
        )
    a_bars, b_bars, beta_bars = graph.tims.at(pairs)
    return RotationProblem(
        a_bars=s_hat * a_bars, b_bars=b_bars, beta_bars=beta_bars, cbar_sq=cbar_sq
    )


def _refine_scale_on_clique(graph, s_hat, cbar_sq, clique_vertices):
    """Scale re-vote restricted to scale-consistent clique-internal edges."""
    rows, _ = _clique_consistent(graph, s_hat, cbar_sq, clique_vertices)
    if rows.size == 0:
        return None
    trims = graph.trims
    sol = solve_scalar_tls(ScalarTlsProblem(trims.s_meas[rows], trims.alpha[rows], cbar_sq))
    return sol.estimate if sol.estimate > 0 else None


def _certify_within_cap(problem, rot_sol, opts: RegistrationOptions, stats: dict):
    """Certificate of the GNC rotation; None when not requested or over the cap."""
    if not opts.certify_rotation:
        return None
    if problem.size > opts.certify_max_k:
        stats["certify_skipped_k"] = problem.size
        return None
    cand = make_candidate(problem, rot_sol.rotation, rot_sol.theta)
    return certify(build_cost_matrix(problem), cand)


def estimate_translation(source, target, s_hat, R_hat, betas, cbar_sq):
    """Component-wise translation: three independent scalar solves on the
    aligned residuals, plus the per-axis and intersection inlier masks."""
    source = np.asarray(source, dtype=float)
    target = np.asarray(target, dtype=float)
    betas = np.asarray(betas, dtype=float)
    residuals = target - s_hat * source @ np.asarray(R_hat).T
    t = np.zeros(3)
    masks = np.zeros((3, source.shape[0]), dtype=bool)
    for axis in range(3):
        sol = solve_scalar_tls(ScalarTlsProblem(residuals[:, axis], betas, cbar_sq))
        t[axis] = sol.estimate
        masks[axis] = sol.inlier_mask
    return t, masks, np.all(masks, axis=0)


def register(
    c: CorrespondenceSet,
    cfg: TlsConfig = TlsConfig(),
    opts: RegistrationOptions = RegistrationOptions(),
) -> RegistrationResult:
    """Run the full cascade; raises InsufficientInliersError when fewer
    than three mutually consistent correspondences survive."""
    if len(c) < 3:
        raise InsufficientInliersError("need at least 3 correspondences")

    timings = {}
    stats = {}
    t0 = time.perf_counter()
    graph = build_measurement_graph(c)
    timings["invariants"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    if opts.known_scale is not None:
        s_hat = float(opts.known_scale)
    else:
        if len(graph.trims) == 0:
            raise InsufficientInliersError("no usable scale measurements")
        sol = solve_scalar_tls(
            ScalarTlsProblem(graph.trims.s_meas, graph.trims.alpha, cfg.cbar_sq)
        )
        s_hat = sol.estimate
    if s_hat <= 0:
        raise InsufficientInliersError("estimated scale is not positive")
    timings["scale"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    pruned = prune_by_scale(graph, s_hat, cfg.cbar_sq)
    stats["edges_kept"] = pruned.n_edges
    timings["prune"] = time.perf_counter() - t0

    # One deadline bounds every search of the stage, the retry's included.
    t0 = time.perf_counter()
    deadline = time.monotonic() + opts.clique_time_budget
    used = clique.max_clique(pruned, opts.clique_time_budget)
    timings["clique"] = time.perf_counter() - t0
    if len(used) < 3:
        raise InsufficientInliersError("maximum clique smaller than 3 vertices")

    # Chance-consistent outlier measurements can get absorbed into the
    # global scale vote and bias it; the clique members are mutually
    # consistent, so re-voting on their internal measurements removes the
    # bias (and is exact on noise-free data).
    if opts.known_scale is None:
        s_refined = _refine_scale_on_clique(graph, s_hat, cfg.cbar_sq, used.vertices)
        if s_refined is not None:
            s_hat = s_refined
    stats["scale_estimate"] = s_hat

    t0 = time.perf_counter()
    problem = _clique_rotation_problem(graph, s_hat, cfg.cbar_sq, used.vertices)
    rot_sol = solve_gnc_tls(problem)
    certificate = _certify_within_cap(problem, rot_sol, opts, stats)
    if certificate is not None and not certificate.certified:
        # The paper's cascade retries once, on the next-largest clique.
        retry = clique.next_clique(pruned, used, deadline - time.monotonic())
        if len(retry) >= 3:
            used = retry
            problem = _clique_rotation_problem(graph, s_hat, cfg.cbar_sq, used.vertices)
            rot_sol = solve_gnc_tls(problem)
            certificate = _certify_within_cap(problem, rot_sol, opts, stats)
    timings["rotation"] = time.perf_counter() - t0
    stats["clique_size"] = len(used)
    stats["clique_completed"] = bool(used.is_certified_maximum)
    stats["gnc_iterations"] = rot_sol.gnc_iterations
    stats["rotation_edges"] = rot_sol.theta.shape[0]
    if rot_sol.degenerate:
        stats["degenerate_rotation_geometry"] = True

    t0 = time.perf_counter()
    R_hat = rot_sol.matrix
    members = used.vertices
    t_vec, axis_masks, joint_mask = estimate_translation(
        c.source[members], c.target[members], s_hat, R_hat, c.noise_bounds[members], cfg.cbar_sq
    )
    timings["translation"] = time.perf_counter() - t0

    transform = RigidTransform(
        scale=s_hat, rotation=UnitQuaternion(rot_sol.rotation), translation=t_vec
    )
    inliers = members[joint_mask]
    return RegistrationResult(
        transform=transform,
        inlier_indices=np.asarray(inliers, dtype=np.int64),
        certificate=certificate,
        stage_timings=timings,
        stage_stats=stats,
        clique=used,
        graph=graph,
    )


TRANSLATION_BOUND_FACTOR = 9.0 + 3.0 * math.sqrt(3.0)
U_TUPLE_CAP = 500
# Seed of the U-tuple sample drawn when there are more than U_TUPLE_CAP.
U_TUPLE_SEED = 0
SUBSET_CAP = 10_000
COPLANAR_SVAL_TOL = 1e-9


def _unrank_combination(rank: int, n: int, k: int) -> list[int]:
    """The rank-th k-subset of range(n) in itertools.combinations order."""
    picked, v = [], 0
    for slots in range(k, 0, -1):
        # Skip every block of subsets that starts with v while rank lies past it.
        while rank >= (block := math.comb(n - v - 1, slots - 1)):
            rank -= block
            v += 1
        picked.append(v)
        v += 1
    return picked


def _base_point_tuples(units: np.ndarray, exhaustive_cap: int, rng: np.random.Generator):
    """(i; j, h, k) rows over units, all of them or a sample of exhaustive_cap.

    The tuples are ordered by i, then by (j, h, k) as itertools.combinations
    over the j with a finite units[i, j]; a sample draws tuple indices in
    that order and unranks them, so the tuples are never listed.
    """
    finite = np.isfinite(units[:, :, 0])
    np.fill_diagonal(finite, False)
    degrees = finite.sum(axis=1)
    counts = degrees * (degrees - 1) * (degrees - 2) // 6  # C(degree, 3)
    ends = np.cumsum(counts)
    total = int(counts.sum())
    exhaustive = total <= exhaustive_cap
    if exhaustive:
        picks = range(total)
    else:
        picks = rng.choice(total, size=exhaustive_cap, replace=False).tolist()
    rows = []
    for idx in picks:
        i = int(np.searchsorted(ends, idx, side="right"))
        others = np.flatnonzero(finite[i])
        rank = idx - int(ends[i] - counts[i])
        rows.append([i, *others[_unrank_combination(rank, int(degrees[i]), 3)].tolist()])
    return np.array(rows, dtype=np.int64).reshape(-1, 4), exhaustive


def _min_u_singular_value(units: np.ndarray, exhaustive_cap: int, rng: np.random.Generator):
    """Smallest singular value over base-point 4-tuples of unit directions.

    units[i, j] is the normalized difference direction from inlier i to j
    (rows of NaN where undefined).  Enumerates all (i; j, h, k) tuples when
    there are at most exhaustive_cap, otherwise samples that many.
    """
    tuples, exhaustive = _base_point_tuples(units, exhaustive_cap, rng)
    if tuples.shape[0] == 0:
        return 0.0, True
    i, j, h, k = tuples.T
    U = np.stack([units[i, j], units[i, h], units[i, k]], axis=-1)  # (T, 3, 3) columns
    return float(np.linalg.svd(U, compute_uv=False)[:, -1].min()), exhaustive


def compute_error_bounds(result: RegistrationResult, c: CorrespondenceSet) -> ErrorBounds:
    """A-posteriori error bounds over the selected inlier set.

    The coarse bounds need only the consensus maxima: 2*max(alpha) for the
    scale, 2*sqrt(3)*max(alpha)/min sigma_min(U) for the scaled rotation
    (infinite for coplanar geometry), and (9 + 3*sqrt(3))*beta for the
    translation.  The tighter variants take the worst case over 3-subsets
    of the selected measurements so they hold for any true-inlier choice.
    """
    graph = result.graph
    inliers = result.inlier_indices
    if inliers.size < 3:
        raise InsufficientInliersError("bounds need at least 3 selected inliers")
    rng = np.random.default_rng(U_TUPLE_SEED)

    rows, sel_pairs = graph.trims_within(inliers)
    alphas = graph.trims.alpha[rows]
    s_meas = graph.trims.s_meas[rows]
    sel_tims, sel_btims, _ = graph.tims.at(sel_pairs)
    if alphas.size == 0:
        raise InsufficientInliersError("no scale measurements among selected inliers")

    eta_s = 2.0 * float(np.max(alphas))

    # Unit direction table over the selected vertices for the U tuples.
    m = inliers.size
    pos = np.zeros(len(c), dtype=np.int64)
    pos[inliers] = np.arange(m)
    norms = np.linalg.norm(sel_tims, axis=1)
    ok = norms > 0
    i, j = pos[sel_pairs[ok, 0]], pos[sel_pairs[ok, 1]]
    u = sel_tims[ok] / norms[ok, None]
    units = np.full((m, m, 3), np.nan)
    units[i, j] = u
    units[j, i] = -u
    smin, exhaustive = _min_u_singular_value(units, U_TUPLE_CAP, rng)
    if smin < COPLANAR_SVAL_TOL:
        eta_R = math.inf
    else:
        eta_R = 2.0 * math.sqrt(3.0) * float(np.max(alphas)) / smin

    eta_t = TRANSLATION_BOUND_FACTOR * float(np.max(c.noise_bounds[inliers]))

    tighter = _tighter_bounds(result, c, s_meas, alphas, sel_tims, sel_btims, norms)
    return ErrorBounds(
        eta_s=eta_s,
        eta_R_frobenius=eta_R,
        eta_t=eta_t,
        u_min_singular_value=smin,
        u_tuples_exhaustive=exhaustive,
        tighter=tighter,
    )


def _worst_case_over_triples(values: np.ndarray) -> float:
    """max over 3-subsets of (min over the subset) = third-largest value."""
    if values.size < 3:
        return float(np.max(values))
    top3 = np.partition(values, values.size - 3)[values.size - 3]
    return float(top3)


def _tighter_bounds(
    result, c, s_meas, alphas, sel_tims, sel_btims, a_norms
) -> TighterBounds | None:
    s_hat = result.transform.scale
    R_hat = result.transform.matrix
    t_hat = result.transform.translation
    inliers = result.inlier_indices

    # Scale: zeta_i = |s_i - s_hat| + alpha_i; any true-inlier triple gives
    # min over it, so the worst case is the third-largest zeta.
    zeta_s = np.abs(s_meas - s_hat) + alphas
    n_subsets = math.comb(alphas.size, 3) if alphas.size >= 3 else 0
    worst_case = 0 < n_subsets <= SUBSET_CAP
    scale_bound = _worst_case_over_triples(zeta_s) if worst_case else float(np.min(zeta_s))

    # Rotation: over a candidate true-inlier triple T the bound is
    # sum_T zeta_R^2 / (2 s_hat (sigma1^2 + sigma2^2)) for the normalized
    # direction matrix of T; enumerate triples when affordable.
    ok = a_norms > 0
    res_norm = np.linalg.norm(sel_btims - s_hat * sel_tims @ R_hat.T, axis=1)
    zeta_R = np.where(ok, res_norm / np.maximum(a_norms, 1e-300) + alphas, np.inf)
    units = np.where(ok[:, None], sel_tims / np.maximum(a_norms, 1e-300)[:, None], 0.0)

    def rot_rhs(idx):
        """Bound for each row of idx, a (T, n) array of measurement indices."""
        A = units[idx].transpose(0, 2, 1)  # (T, 3, n)
        svals = np.linalg.svd(A, compute_uv=False)
        denom = svals[:, -1] ** 2 + svals[:, -2] ** 2
        num = np.sum(zeta_R[idx] ** 2, axis=1)
        with np.errstate(divide="ignore"):
            return np.where(denom > 0, num / (2.0 * s_hat * denom), math.inf)

    cand_idx = np.nonzero(ok)[0]
    if cand_idx.size < 3:
        rotation_bound = math.inf
    elif worst_case:
        triples = np.array(list(combinations(cand_idx.tolist(), 3)))
        rotation_bound = max(0.0, float(rot_rhs(triples).max()))
    else:
        rotation_bound = float(rot_rhs(cand_idx[None, :])[0])

    # Translation: per-axis bound chains the scale and rotation terms with
    # the per-point zeta; worst case again via third-largest.
    res = c.target[inliers] - s_hat * c.source[inliers] @ R_hat.T - t_hat
    zeta_t = np.abs(res) + c.noise_bounds[inliers][:, None]  # (m, 3)
    a_sq = np.sum(c.source[inliers] ** 2, axis=1)
    pose_term = (scale_bound**2 + 2.0 * s_hat * rotation_bound) * a_sq
    per_axis = pose_term[:, None] + zeta_t
    if worst_case:
        translation_bound = np.array(
            [_worst_case_over_triples(per_axis[:, l]) for l in range(3)]
        )
    else:
        translation_bound = per_axis.min(axis=0)

    return TighterBounds(
        scale=scale_bound,
        rotation=rotation_bound,
        translation=translation_bound,
        worst_case=worst_case,
    )
