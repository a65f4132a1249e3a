"""End-to-end decoupled registration cascade.

At unknown scale, every vertex votes over its own rotation-invariant
measurements (TRIMs, one per pair it belongs to), as one row-wise sweep
(`scalar_tls.row_consensus_votes`).  The best-voted vertices propose up
to three scales, each refined by the exact scalar TLS over that vertex's
TRIMs and kept when at least 5% from the others.  Edges inconsistent
with a hypothesis are pruned and the maximum clique of the survivors is
its inlier candidate set; the largest clique over the hypotheses wins,
and the search stops as soon as a clique reaches the bound the votes put
on any clique.  A single vote over all N^2/2 TRIMs let the outlier
ratios outvote the inliers at 90% outliers.  No TRIM table is stored: the
votes compute the TRIM rows from the points a block at a time and vote
each block as it comes, on up to VOTE_THREADS threads, as the rows are
independent.  At N = 1000 the votes and hypotheses take a median of
38 ms on both cores of a 2-core machine (35-40 ms, quartiles over 48
solves) and 60 ms on one (55-62 ms), about 22 ms of it computing the
rows.  Measured alongside, stored (N, N) tables took 35 ms to fill and
47 ms to vote on.

The votes also say which vertices can be in a clique: a member of a
clique of m at any scale has m - 1 TRIMs that agree with that scale, so
its count is at least m - 1.  Each hypothesis prunes and searches only
the vertices whose count allows a clique of the bound, and the ones that
allow the clique found when it falls short
(`clique.max_clique_of_candidates`); the answer is the whole graph's.
At 90% outliers and N = 1000 these are the about 100 inliers, and
pruning and search take a median of 2.7 ms where the whole graph took
19 ms.  At known scale the given scale is the one hypothesis.  Its
agreeing pairs, found once over every vertex, give each vertex's degree,
and the degrees are the counts: a member of a clique of m has degree
m - 1 or more.  The searches then prune their candidates as at unknown
scale.  At 99% outliers and N = 1000 they cover 10-15 vertices, and the
degrees, pruning and search take a median of 3 ms where pruning into an
(N, N) table and searching it took 10 ms.  Without outliers every vertex
is a candidate and every pair is found twice, for the degrees and for
the graph: the two take 44 ms where the table took 12 ms.

The scale is then re-voted exactly on the clique's measurements; rotation
is solved on them by graduated non-convexity (optionally certified);
translation is solved per-axis by the same exact scalar solver on the
aligned residuals.
"""

from __future__ import annotations

import math
import os
import threading
import time
from dataclasses import dataclass
from functools import partial
from itertools import combinations

import numpy as np

from . import clique
from .certifier import Certificate, build_cost_matrix, certify, make_candidate
from .clique import CliqueResult, prune_by_scale
from .geometry import CorrespondenceSet, RigidTransform, TlsConfig, UnitQuaternion
from .invariants import (
    MeasurementGraph,
    TrimSet,
    build_measurement_graph,
    row_blocks,
    scale_consistent,
)
from .rotation import RotationProblem, RotationSolution, solve_gnc_tls
from .scalar_tls import ScalarTlsProblem, row_consensus_votes, solve_scalar_tls

# Scale hypotheses at unknown scale: the votes of this many best-voted
# vertices are walked, a vote within this relative distance of a kept one
# is passed over, and at most this many are kept.
HYPOTHESIS_CANDIDATES = 20
HYPOTHESIS_SEPARATION = 0.05
MAX_HYPOTHESES = 3
# Threads of the per-vertex vote, at most; a process that already runs one
# registration per CPU sets it to 1.
VOTE_THREADS = 2


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

    def __post_init__(self):
        if self.known_scale is not None and not (
            math.isfinite(self.known_scale) and self.known_scale > 0
        ):
            raise ValueError("known_scale must be None or positive and finite")
        if not self.clique_time_budget >= 0:
            raise ValueError("clique_time_budget must be >= 0")
        if not self.certify_max_k >= 0:
            raise ValueError("certify_max_k must be >= 0")


@dataclass(frozen=True)
class RegistrationTrace:
    """What each stage of one `register` call found, and its time.

    Every field holds a plain Python value; one that does not apply to the
    call is None, or 0.0 for a time.  The `*_s` fields are wall times in
    seconds over disjoint spans of the call.
    """

    invariants_s: float
    # The per-vertex votes and the scale hypotheses; 0.0 at known scale.
    vote_s: float
    # Every prune; at known scale also the degrees, from the agreeing pairs.
    prune_s: float
    clique_s: float
    # The clique's measurements and, at unknown scale, the scale re-vote.
    revote_s: float
    # The rotation input and GNC, over both cliques when retried.
    gnc_s: float
    certify_s: float
    # The next-clique search after a rejected certificate, and the new
    # clique's measurements.
    retry_s: float
    translation_s: float
    # Edges of the graph the chosen hypothesis's clique was found in, over
    # that hypothesis's candidate vertices only.
    edges_kept: int
    # (scale, clique size) per hypothesis searched; one pair at known scale.
    scale_hypotheses: tuple[tuple[float, int], ...]
    scale_estimate: float
    clique_size: int
    # False when any search was cut by clique_time_budget.
    clique_completed: bool
    gnc_iterations: int
    gnc_converged: bool
    rotation_degenerate: bool
    rotation_edges: int
    # True when a rejected certificate sent the cascade to the next clique.
    retried: bool
    certificate_verdict: str | None
    certificate_eta: float | None
    certificate_iterations: int | None
    # The rotation measurements, when over certify_max_k.
    certify_skipped_k: int | None


@dataclass(frozen=True)
class RegistrationResult:
    transform: RigidTransform
    inlier_indices: np.ndarray
    certificate: Certificate | None
    trace: RegistrationTrace
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
    tighter: TighterBounds


def _clique_rotation_problem(
    graph: MeasurementGraph, within, s_hat: float, cbar_sq: float
) -> RotationProblem:
    """Rotation input: the clique's TRIM pairs (`within`, from
    graph.trims_within) whose TRIM agrees with s_hat."""
    pairs, s_meas, alpha = within
    pairs = pairs[scale_consistent(s_meas, alpha, s_hat, cbar_sq)]
    if len(pairs) < 2:
        raise InsufficientInliersError(
            "fewer than two scale-consistent measurements inside the clique"
        )
    a_bars, b_bars, beta_bars = graph.tims.at(pairs)
    return RotationProblem(
        a_bars=s_hat * a_bars, b_bars=b_bars, beta_bars=beta_bars, cbar_sq=cbar_sq
    )


def _refine_scale_on_clique(within, cbar_sq: float):
    """Scale re-vote on all the clique's TRIMs (`within`, from trims_within):
    pruning at the hypothesis already made each of them agree with it."""
    _, s_meas, alpha = within
    sol = solve_scalar_tls(ScalarTlsProblem(s_meas, alpha, cbar_sq))
    return sol.estimate if sol.estimate > 0 else None


def usable_cpu_count() -> int:
    """CPUs this process may run on: its affinity mask where the OS keeps
    one (so taskset and cpusets count), else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _vertex_votes(trims: TrimSet, cbar_sq: float) -> tuple[np.ndarray, np.ndarray]:
    """Each vertex's consensus vote over its own TRIMs: count and midpoint.

    The rows of TRIMs are computed and voted a block at a time.  The blocks
    are dealt in turn to VOTE_THREADS threads, at most one per usable CPU
    and per block, the calling thread one of them.  With w threads each
    holds BLOCK_ENTRIES // w entries in its own buffers, so the blocks in
    flight hold what one full block would, and each thread writes only its
    own rows.  An exception in any thread is raised here once every thread
    has stopped.
    """
    n = len(trims.tims.source)
    counts, mids = np.empty(n, dtype=np.int64), np.empty(n)
    workers = min(VOTE_THREADS, usable_cpu_count())
    blocks = row_blocks(n, workers)
    workers = max(1, min(workers, len(blocks)))

    failures, threads = [], []

    def vote(share):
        try:
            for rows, s_meas, alpha in trims.blocks(rows=share):
                counts[rows], mids[rows] = row_consensus_votes(s_meas, alpha, cbar_sq)
        except Exception as exc:
            failures.append(exc)

    try:
        for w in range(1, workers):
            thread = threading.Thread(target=vote, args=(blocks[w::workers],))
            thread.start()
            threads.append(thread)
        vote(blocks[::workers])
    finally:
        for t in threads:
            t.join()
    if failures:
        raise failures[0]
    return counts, mids


def _scale_hypotheses(
    graph: MeasurementGraph, cbar_sq: float
) -> tuple[list[float], int, np.ndarray]:
    """Positive scale hypotheses from per-vertex votes, best-voted first,
    a bound on the clique size at any scale, and the vote counts.

    Each vertex votes over its own TRIMs.  The best-voted vertices propose
    their winning midpoints, each refined by the exact scalar TLS over the
    same TRIMs, and kept when it lies more than HYPOTHESIS_SEPARATION
    (relative) from every kept one.  The bound is the largest m such that
    m vertices have a vote count >= m - 1: every member of a size-m clique
    at any scale has m - 1 incident TRIMs consistent with that scale, so
    its count is at least m - 1.  Raises InsufficientInliersError when no
    vertex voted, that is, when no TRIM is finite.
    """
    counts, mids = _vertex_votes(graph.trims, cbar_sq)
    if not counts.any():
        raise InsufficientInliersError("no usable scale measurements")
    bound = clique.size_bound(counts)
    scales = []

    def near_kept(x):
        return any(abs(x - k) <= HYPOTHESIS_SEPARATION * k for k in scales)

    for v in np.argsort(-counts, kind="stable")[:HYPOTHESIS_CANDIDATES]:
        if counts[v] == 0 or len(scales) == MAX_HYPOTHESES:
            break
        # A vote near a kept scale is passed over unrefined; a refined one
        # near a kept scale would prune the same graph again.
        if near_kept(mids[v]):
            continue
        s_row, a_row = graph.trims.at(v, slice(None))
        row = ~np.isnan(s_row)
        sol = solve_scalar_tls(ScalarTlsProblem(s_row[row], a_row[row], cbar_sq))
        if sol.estimate > 0 and not near_kept(sol.estimate):
            scales.append(sol.estimate)
    return scales, bound, counts


@dataclass(frozen=True)
class _Rotation:
    """GNC's rotation on one clique, its certificate and their times."""

    solution: RotationSolution
    certificate: Certificate | None
    certify_skipped_k: int | None
    gnc_s: float
    certify_s: float


def _solve_rotation(graph, within, s_hat, cfg: TlsConfig, opts: RegistrationOptions):
    """GNC on the clique's measurements (`within`) that agree with s_hat,
    then its certificate when one is asked for.  Above certify_max_k
    measurements certification is skipped and their count kept."""
    t0 = time.perf_counter()
    problem = _clique_rotation_problem(graph, within, s_hat, cfg.cbar_sq)
    sol = solve_gnc_tls(problem)
    t1 = time.perf_counter()
    certificate = skipped_k = None
    if opts.certify_rotation and problem.size > opts.certify_max_k:
        skipped_k = problem.size
    elif opts.certify_rotation:
        cand = make_candidate(problem, sol.rotation, sol.theta)
        certificate = certify(build_cost_matrix(problem), cand)
    return _Rotation(sol, certificate, skipped_k, t1 - t0, time.perf_counter() - t1)


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

    t0 = time.perf_counter()
    graph = build_measurement_graph(c)
    invariants_s = time.perf_counter() - t0

    vote_s = prune_s = clique_s = 0.0
    if opts.known_scale is not None:
        # One hypothesis.  Its agreeing pairs give each vertex's degree,
        # which bounds the cliques as the votes do at unknown scale.
        t0 = time.perf_counter()
        hypotheses = [float(opts.known_scale)]
        counts = np.bincount(
            graph.trims.consistent_with(hypotheses[0], cfg.cbar_sq).ravel(), minlength=len(c)
        )
        clique_bound = clique.size_bound(counts)
        prune_s = time.perf_counter() - t0
    else:
        t0 = time.perf_counter()
        hypotheses, clique_bound, counts = _scale_hypotheses(graph, cfg.cbar_sq)
        if not hypotheses:
            raise InsufficientInliersError("estimated scale is not positive")
        vote_s = time.perf_counter() - t0
    if clique_bound < 3:
        # No three vertices have the counts a triangle needs; at known scale
        # with no agreeing pair, V_1 would be every vertex.
        raise InsufficientInliersError("maximum clique smaller than 3 vertices")

    # One budget bounds every search of the stage, each hypothesis's and the
    # retry's; it starts at the first search.
    start = None

    def time_left():
        nonlocal start
        if start is None:
            start = time.monotonic()
        return max(0.0, opts.clique_time_budget - (time.monotonic() - start))

    def search(scale, vertices):
        """The graph at scale over vertices, and its maximum clique."""
        nonlocal prune_s, clique_s
        t0 = time.perf_counter()
        pruned = prune_by_scale(graph, scale, cfg.cbar_sq, vertices)
        t1 = time.perf_counter()
        found = clique.max_clique(pruned, time_left())
        prune_s += t1 - t0
        clique_s += time.perf_counter() - t1
        return pruned, found

    tried, best, completed = [], None, True
    for scale in hypotheses:
        pruned, found = clique.max_clique_of_candidates(
            partial(search, scale), counts, clique_bound
        )
        # A search cut short may have missed a clique larger than the best.
        completed = completed and found.is_certified_maximum
        tried.append((float(scale), len(found)))
        if best is None or len(found) > len(best[2]):
            best = (scale, pruned, found)
        if len(best[2]) >= clique_bound:
            break
    s_hat, pruned, used = best
    if len(used) < 3:
        raise InsufficientInliersError("maximum clique smaller than 3 vertices")

    # Chance-consistent outlier measurements can get absorbed into a
    # vertex's scale vote and bias it; the clique members are mutually
    # consistent, so re-voting on their internal measurements removes the
    # bias (and is exact on noise-free data).  The clique's TRIMs are
    # computed once, for the re-vote and the rotation input.
    t0 = time.perf_counter()
    within = graph.trims_within(used.vertices)
    if opts.known_scale is None:
        s_refined = _refine_scale_on_clique(within, cfg.cbar_sq)
        if s_refined is not None:
            s_hat = s_refined
    revote_s = time.perf_counter() - t0

    rot = _solve_rotation(graph, within, s_hat, cfg, opts)
    gnc_s, certify_s, retry_s, retried = rot.gnc_s, rot.certify_s, 0.0, False
    if rot.certificate is not None and not rot.certificate.certified:
        # The paper's cascade retries once, on the next-largest clique.
        t0 = time.perf_counter()
        # The next clique has len(used) - 1 vertices or more.
        wider = clique.candidates(counts, len(used) - 1)
        retry_graph = pruned
        if wider.size > len(pruned.adj):
            retry_graph = prune_by_scale(graph, best[0], cfg.cbar_sq, wider)
        retry = clique.next_clique(retry_graph, used, time_left())
        if len(retry) >= 3:
            used, retried = retry, True
            within = graph.trims_within(used.vertices)
        retry_s = time.perf_counter() - t0
        if retried:
            rot = _solve_rotation(graph, within, s_hat, cfg, opts)
            gnc_s, certify_s = gnc_s + rot.gnc_s, certify_s + rot.certify_s
    rot_sol, certificate = rot.solution, rot.certificate

    t0 = time.perf_counter()
    R_hat = rot_sol.matrix
    members = used.vertices
    t_vec, axis_masks, joint_mask = estimate_translation(
        c.source[members], c.target[members], s_hat, R_hat, c.noise_bounds[members], cfg.cbar_sq
    )
    translation_s = time.perf_counter() - t0

    trace = RegistrationTrace(
        invariants_s=invariants_s,
        vote_s=vote_s,
        prune_s=prune_s,
        clique_s=clique_s,
        revote_s=revote_s,
        gnc_s=gnc_s,
        certify_s=certify_s,
        retry_s=retry_s,
        translation_s=translation_s,
        edges_kept=pruned.n_edges,
        scale_hypotheses=tuple(tried),
        scale_estimate=float(s_hat),
        clique_size=len(used),
        clique_completed=bool(completed and used.is_certified_maximum),
        gnc_iterations=rot_sol.gnc_iterations,
        gnc_converged=bool(rot_sol.converged),
        rotation_degenerate=bool(rot_sol.degenerate),
        rotation_edges=rot_sol.theta.shape[0],
        retried=retried,
        certificate_verdict=None if certificate is None else certificate.verdict.value,
        certificate_eta=None if certificate is None else float(certificate.eta),
        certificate_iterations=None if certificate is None else certificate.iterations_used,
        certify_skipped_k=rot.certify_skipped_k,
    )
    transform = RigidTransform(
        scale=s_hat, rotation=UnitQuaternion(rot_sol.rotation), translation=t_vec
    )
    inliers = members[joint_mask]
    return RegistrationResult(
        transform=transform,
        inlier_indices=np.asarray(inliers, dtype=np.int64),
        certificate=certificate,
        trace=trace,
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

    The coarse bounds are derived for cbar_sq = 1: they use 2*max(alpha)
    although inliers were selected with |s_k - s| <= sqrt(cbar_sq)*alpha_k.
    """
    graph = result.graph
    inliers = result.inlier_indices
    if inliers.size < 3:
        raise InsufficientInliersError("bounds need at least 3 selected inliers")
    rng = np.random.default_rng(U_TUPLE_SEED)

    sel_pairs, s_meas, alphas = graph.trims_within(inliers)
    sel_tims, sel_btims, _ = graph.tims.at(sel_pairs)
    if alphas.size == 0:
        raise InsufficientInliersError("no scale measurements among selected inliers")

    eta_s = 2.0 * float(np.max(alphas))

    # Unit direction table over the selected vertices for the U tuples.
    # trims_within skips the degenerate pairs, so every norm is positive.
    m = inliers.size
    pos = np.zeros(len(c), dtype=np.int64)
    pos[inliers] = np.arange(m)
    norms = np.linalg.norm(sel_tims, axis=1)
    i, j = pos[sel_pairs[:, 0]], pos[sel_pairs[:, 1]]
    u = sel_tims / norms[:, None]
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
    top3 = np.partition(values, values.size - 3)[values.size - 3]
    return float(top3)


def _tighter_bounds(result, c, s_meas, alphas, sel_tims, sel_btims, a_norms) -> TighterBounds:
    s_hat = result.transform.scale
    R_hat = result.transform.matrix
    t_hat = result.transform.translation
    inliers = result.inlier_indices

    # Scale: zeta_i = |s_i - s_hat| + alpha_i; any true-inlier triple gives
    # min over it, so the worst case is the third-largest zeta.
    zeta_s = np.abs(s_meas - s_hat) + alphas
    worst_case = 0 < math.comb(alphas.size, 3) <= SUBSET_CAP
    scale_bound = _worst_case_over_triples(zeta_s) if worst_case else float(np.min(zeta_s))

    # Rotation: over a candidate true-inlier triple T the bound is
    # sum_T zeta_R^2 / (2 s_hat (sigma1^2 + sigma2^2)) for the normalized
    # direction matrix of T; enumerate triples when affordable.
    res_norm = np.linalg.norm(sel_btims - s_hat * sel_tims @ R_hat.T, axis=1)
    zeta_R = res_norm / a_norms + alphas
    units = sel_tims / a_norms[:, None]

    def rot_rhs(idx):
        """Bound for each row of idx, a (T, n) array of measurement indices."""
        A = units[idx].transpose(0, 2, 1)  # (T, 3, n)
        svals = np.linalg.svd(A, compute_uv=False)
        denom = svals[:, -1] ** 2 + svals[:, -2] ** 2
        num = np.sum(zeta_R[idx] ** 2, axis=1)
        with np.errstate(divide="ignore"):
            return np.where(denom > 0, num / (2.0 * s_hat * denom), math.inf)

    if worst_case:
        triples = np.array(list(combinations(range(alphas.size), 3)))
        rotation_bound = max(0.0, float(rot_rhs(triples).max()))
    elif alphas.size < 3:
        rotation_bound = math.inf
    else:
        rotation_bound = float(rot_rhs(np.arange(alphas.size)[None, :])[0])

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
