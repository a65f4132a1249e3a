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
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .certifier import (
    Certificate,
    CertifyOptions,
    Verdict,
    build_cost_matrix,
    certify,
    make_candidate,
)
from .clique import CliqueResult, clique_iterator, prune_by_scale
from .geometry import CorrespondenceSet, RigidTransform, TlsConfig, UnitQuaternion
from .invariants import MeasurementGraph, build_measurement_graph
from .rotation import GncOptions, RotationProblem, solve_gnc_tls
from .scalar_tls import ScalarTlsProblem, solve_scalar_tls


class InsufficientInliersError(RuntimeError):
    """Raised when the surviving inlier structure cannot pin down a pose."""


@dataclass(frozen=True)
class RegistrationOptions:
    known_scale: float | None = None
    certify_rotation: bool = False
    clique_time_budget: float = 10.0
    gnc: GncOptions = field(default_factory=GncOptions)
    certify_opts: CertifyOptions = field(default_factory=CertifyOptions)
    retry_next_clique: bool = True


@dataclass(frozen=True)
class RegistrationResult:
    transform: RigidTransform
    inlier_indices: np.ndarray
    certificate: Certificate | None
    stage_timings: dict
    stage_stats: dict
    clique: CliqueResult
    graph: MeasurementGraph
    scale_inlier_edges: int


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
    """Mask of the TRIMs consistent with s_hat whose endpoints are both in the clique."""
    member = np.zeros(graph.topology.n_vertices, dtype=bool)
    member[np.asarray(clique_vertices, dtype=np.int64)] = True
    trims = graph.trims
    return (
        trims.consistent_with(s_hat, cbar_sq)
        & member[trims.indices[:, 0]]
        & member[trims.indices[:, 1]]
    )


def _clique_rotation_problem(
    graph: MeasurementGraph, s_hat: float, cbar_sq: float, clique_vertices
) -> tuple[RotationProblem, np.ndarray]:
    """Rotation input: scale-consistent edges with both endpoints in the clique."""
    keep = _clique_consistent(graph, s_hat, cbar_sq, clique_vertices)
    rows = graph.trims.tim_rows[keep]
    if rows.size < 2:
        raise InsufficientInliersError(
            "fewer than two scale-consistent measurements inside the clique"
        )
    problem = RotationProblem(
        a_bars=s_hat * graph.tims.a_bar[rows],
        b_bars=graph.tims.b_bar[rows],
        beta_bars=graph.tims.beta_bar[rows],
        cbar_sq=cbar_sq,
    )
    return problem, rows


def _refine_scale_on_clique(graph, s_hat, cbar_sq, clique_vertices):
    """Scale re-vote restricted to scale-consistent clique-internal edges."""
    keep = _clique_consistent(graph, s_hat, cbar_sq, clique_vertices)
    if not np.any(keep):
        return None
    trims = graph.trims
    sol = solve_scalar_tls(
        ScalarTlsProblem(trims.s_meas[keep], trims.alpha[keep], cbar_sq)
    )
    return sol.estimate if sol.estimate > 0 else None


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

    t0 = time.perf_counter()
    cliques = clique_iterator(pruned, time_budget=opts.clique_time_budget)
    clique = next(cliques, None)
    if clique is None or len(clique) < 3:
        timings["clique"] = time.perf_counter() - t0
        raise InsufficientInliersError("maximum clique smaller than 3 vertices")
    timings["clique"] = time.perf_counter() - t0
    stats["clique_size"] = len(clique)

    # Chance-consistent outlier measurements can get absorbed into the
    # global scale vote and bias it; the clique members are mutually
    # consistent, so re-voting on their internal measurements removes the
    # bias (and is exact on noise-free data).
    if opts.known_scale is None:
        s_refined = _refine_scale_on_clique(graph, s_hat, cfg.cbar_sq, clique.vertices)
        if s_refined is not None:
            s_hat = s_refined
    stats["scale_estimate"] = s_hat

    attempts = 2 if (opts.certify_rotation and opts.retry_next_clique) else 1
    certificate = None
    rot_sol = None
    used_clique = clique
    t0 = time.perf_counter()
    for attempt in range(attempts):
        problem, rows = _clique_rotation_problem(
            graph, s_hat, cfg.cbar_sq, used_clique.vertices
        )
        rot_sol = solve_gnc_tls(problem, opts.gnc)
        if not opts.certify_rotation:
            break
        data = build_cost_matrix(problem)
        cand = make_candidate(problem, rot_sol.rotation, rot_sol.theta)
        certificate = certify(data, cand, opts.certify_opts)
        if certificate.verdict is Verdict.CERTIFIED:
            break
        if attempt + 1 < attempts:
            nxt = next(cliques, None)
            if nxt is None or len(nxt) < 3:
                break
            used_clique = nxt
            stats["clique_size"] = len(used_clique)
    timings["rotation"] = time.perf_counter() - t0
    stats["gnc_iterations"] = rot_sol.gnc_iterations
    stats["rotation_edges"] = rot_sol.theta.shape[0]
    if rot_sol.degenerate:
        stats["degenerate_rotation_geometry"] = True

    t0 = time.perf_counter()
    R_hat = rot_sol.matrix
    members = used_clique.vertices
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
        clique=used_clique,
        graph=graph,
        scale_inlier_edges=int(np.count_nonzero(graph.trims.consistent_with(s_hat, cfg.cbar_sq))),
    )


TRANSLATION_BOUND_FACTOR = 9.0 + 3.0 * math.sqrt(3.0)
U_TUPLE_CAP = 500
SUBSET_CAP = 10_000
COPLANAR_SVAL_TOL = 1e-9


def _min_u_singular_value(units: np.ndarray, exhaustive_cap: int, rng: np.random.Generator):
    """Smallest singular value over base-point 4-tuples of unit directions.

    units[i, j] is the normalized difference direction from inlier i to j
    (rows of NaN where undefined).  Enumerates all (i; j, h, k) tuples when
    there are at most exhaustive_cap, otherwise samples that many.
    """
    m = units.shape[0]
    tuples = []
    for i in range(m):
        others = [j for j in range(m) if j != i and np.isfinite(units[i, j, 0])]
        for j, h, k in combinations(others, 3):
            tuples.append((i, j, h, k))
    if not tuples:
        return 0.0, True
    exhaustive = len(tuples) <= exhaustive_cap
    if not exhaustive:
        sel = rng.choice(len(tuples), size=exhaustive_cap, replace=False)
        tuples = [tuples[s] for s in sel]
    i, j, h, k = np.array(tuples).T
    U = np.stack([units[i, j], units[i, h], units[i, k]], axis=-1)  # (T, 3, 3) columns
    return float(np.linalg.svd(U, compute_uv=False)[:, -1].min()), exhaustive


def compute_error_bounds(
    result: RegistrationResult,
    c: CorrespondenceSet,
    graph: MeasurementGraph | None = None,
    cfg: TlsConfig = TlsConfig(),
    seed: int = 0,
) -> ErrorBounds:
    """A-posteriori error bounds over the selected inlier set.

    The coarse bounds need only the consensus maxima: 2*max(alpha) for the
    scale, 2*sqrt(3)*max(alpha)/min sigma_min(U) for the scaled rotation
    (infinite for coplanar geometry), and (9 + 3*sqrt(3))*beta for the
    translation.  The tighter variants take the worst case over 3-subsets
    of the selected measurements so they hold for any true-inlier choice.
    """
    if graph is None:
        graph = result.graph
    inliers = result.inlier_indices
    if inliers.size < 3:
        raise InsufficientInliersError("bounds need at least 3 selected inliers")
    rng = np.random.default_rng(seed)

    member = np.zeros(len(c), dtype=bool)
    member[inliers] = True
    trims = graph.trims
    tim_rows = trims.tim_rows
    pairs = trims.indices
    sel = member[pairs[:, 0]] & member[pairs[:, 1]]
    alphas = trims.alpha[sel]
    s_meas = trims.s_meas[sel]
    sel_pairs = pairs[sel]
    sel_tims = graph.tims.a_bar[tim_rows[sel]]
    sel_btims = graph.tims.b_bar[tim_rows[sel]]
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
