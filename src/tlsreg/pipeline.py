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
votes compute the TRIM rows from the points a block of about
BLOCK_ENTRIES entries at a time, straight into the buffers the block is
voted in (`scalar_tls.RowVotes`, one set a thread), on up to
VOTE_THREADS threads, as the rows are independent.  At N = 1000 the
votes and hypotheses take a median of 24 ms on both cores of a 2-core
machine (22-29 ms, quartiles over 48 solves) and 45 ms on one
(40-50 ms), about 21 ms of it computing the rows.  Measured alongside,
the previous vote, which split each block between the threads and
allocated its keys and temporaries anew for every block, took 30 and
58 ms.  Stored (N, N) tables once took 35 ms to fill and 47 ms to vote
on.

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
degrees, pruning and search take a median of 2.4-2.5 ms where pruning
into an (N, N) table and searching it took 10 ms.  Without outliers every vertex
is a candidate, and every pair is tested twice: the degree pass counts
the agreeing pairs and the prune writes them into the graph.  The two
take a median of 25-39 ms where the table took 12 ms.

The scale is then re-voted exactly on the clique's measurements; rotation
is solved on them by graduated non-convexity (optionally certified).  A
rejected certificate sends the cascade once to the next clique at the
chosen scale, searched like every hypothesis through
`max_clique_of_candidates`: over V_(m-1) for a first clique of m, which
holds it.  That clique takes the same pass as the first, its
measurements, rotation and certificate, and keeps the re-voted scale.
One deadline, fixed when the clique stage starts, goes as it is to every
search, the retry's children included, so all of them stop at the same
instant; the prunes between them spend the same time.  Translation is
solved per-axis by the same exact scalar solver on the aligned
residuals.  Every stage runs under one clock, which refuses a span
inside another, so the trace's times are of disjoint spans.
"""

from __future__ import annotations

import math
import os
import threading
import time
from dataclasses import dataclass, fields
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
from .rotation import RotationProblem, solve_gnc_tls
from .scalar_tls import RowVotes, ScalarTlsProblem, solve_scalar_tls

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
    # Seconds from the start of the clique stage to the one deadline of
    # all its searches.
    clique_time_budget: float = 10.0
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
    # Every prune of the clique stage, the retry's included; at known scale
    # also the degree pass over every vertex.
    prune_s: float
    # Every clique search, each hypothesis's and the retry's.
    clique_s: float
    # The clique's measurements and, at unknown scale, the scale re-vote.
    revote_s: float
    # The rotation input and GNC, over both cliques when retried.
    gnc_s: float
    # The certificate, over both cliques when retried.
    certify_s: float
    # The measurements of the next clique, when a rejected certificate
    # sent the cascade to one; its prune and search are in prune_s and
    # clique_s.
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


class _StageClock:
    """The `RegistrationTrace` times of one call, one stage at a time.

    `with clock(field):` adds the span's wall time to `times[field]`.  A
    span opened inside another raises, so the times are of disjoint spans.
    """

    FIELDS = tuple(f.name for f in fields(RegistrationTrace) if f.name.endswith("_s"))

    def __init__(self):
        self.times = dict.fromkeys(self.FIELDS, 0.0)
        self._open = None

    def __call__(self, field: str) -> _StageClock:
        if self._open is not None:
            raise RuntimeError(f"{field} opened inside {self._open}")
        self._open = field
        return self

    def __enter__(self):
        self._start = time.perf_counter()

    def __exit__(self, *exc_info):
        self.times[self._open] += time.perf_counter() - self._start
        self._open = None


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

    The rows of TRIMs are computed and voted a block of about BLOCK_ENTRIES
    entries at a time.  The blocks are dealt in turn to VOTE_THREADS
    threads, at most one per usable CPU and per block, the calling thread
    one of them.  Each thread holds one `RowVotes` buffer set for all its
    blocks, computes each block's TRIMs into it and votes them there, and
    writes only its own rows.  A set takes 25 B an entry, 1.6 MB at
    N = 1000, and a vote briefly 8 B an entry more, so two threads keep
    about 4.3 MB in flight.  An exception in any thread is raised here
    once every thread has stopped.
    """
    n = len(trims.tims.source)
    counts, mids = np.empty(n, dtype=np.int64), np.empty(n)
    blocks = row_blocks(n)
    workers = max(1, min(VOTE_THREADS, usable_cpu_count(), len(blocks)))

    failures, threads = [], []

    def vote(share):
        try:
            votes = RowVotes(max((b.stop - b.start for b in share), default=0), n)
            for rows in share:
                height = rows.stop - rows.start
                s_meas, alpha, scratch = votes.tables(height)
                # alpha doubles as at's second temporary, done with before
                # alpha is written.
                trims.at(np.s_[rows, None], np.s_[None, :], (s_meas, alpha, scratch, alpha))
                counts[rows], mids[rows] = votes.vote(height, cbar_sq)
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


def _scale_hypotheses(graph: MeasurementGraph, cbar_sq: float) -> tuple[list[float], np.ndarray]:
    """Positive scale hypotheses from per-vertex votes, best-voted first,
    and the vote counts.

    Each vertex votes over its own TRIMs.  The best-voted vertices propose
    their winning midpoints, each refined by the exact scalar TLS over the
    same TRIMs, and kept when it lies more than HYPOTHESIS_SEPARATION
    (relative) from every kept one.  A count bounds its vertex's degree at
    any scale: every member of a size-m clique at any scale has m - 1
    incident TRIMs consistent with that scale.  Raises
    InsufficientInliersError when no vertex voted, that is, when no TRIM
    is finite, or when no hypothesis is positive.
    """
    counts, mids = _vertex_votes(graph.trims, cbar_sq)
    if not counts.any():
        raise InsufficientInliersError("no usable scale measurements")
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
    if not scales:
        raise InsufficientInliersError("estimated scale is not positive")
    return scales, counts


def _solve_rotation(graph, within, s_hat, cfg: TlsConfig, opts: RegistrationOptions, clock):
    """GNC on the clique's TRIM pairs (`within`, from graph.trims_within)
    whose TRIM agrees with s_hat, then its certificate when one is asked
    for: (solution, certificate, skipped K).  Above certify_max_k
    measurements certification is skipped and their count kept."""
    with clock("gnc_s"):
        pairs, s_meas, alpha = within
        pairs = pairs[scale_consistent(s_meas, alpha, s_hat, cfg.cbar_sq)]
        if len(pairs) < 2:
            raise InsufficientInliersError(
                "fewer than two scale-consistent measurements inside the clique"
            )
        a_bars, b_bars, beta_bars = graph.tims.at(pairs)
        problem = RotationProblem(
            a_bars=s_hat * a_bars, b_bars=b_bars, beta_bars=beta_bars, cbar_sq=cfg.cbar_sq
        )
        sol = solve_gnc_tls(problem)
    certificate = skipped_k = None
    if opts.certify_rotation and problem.size > opts.certify_max_k:
        skipped_k = problem.size
    elif opts.certify_rotation:
        with clock("certify_s"):
            cand = make_candidate(problem, sol.rotation, sol.theta)
            certificate = certify(build_cost_matrix(problem), cand)
    return sol, certificate, skipped_k


def estimate_translation(source, target, s_hat, R_hat, betas, cbar_sq):
    """Component-wise translation: three independent scalar solves on the
    aligned residuals, plus the per-axis and intersection inlier masks.

    The axes are solved in units of 2^e, the power of two just above the
    largest bound, so the sweep's weights 1/beta^2 stay finite at any unit
    of length (at 1e-150 they would reach about 3e302, and their products
    overflow).  Scaling by a power of two is exact, so the estimate scaled
    back is the one solved in the caller's units."""
    source = np.asarray(source, dtype=float)
    target = np.asarray(target, dtype=float)
    betas = np.asarray(betas, dtype=float)
    e = math.frexp(float(np.max(betas)))[1]
    residuals = np.ldexp(target - s_hat * source @ np.asarray(R_hat).T, -e)
    alphas = np.ldexp(betas, -e)
    t = np.zeros(3)
    masks = np.zeros((3, source.shape[0]), dtype=bool)
    for axis in range(3):
        sol = solve_scalar_tls(ScalarTlsProblem(residuals[:, axis], alphas, cbar_sq))
        t[axis] = math.ldexp(sol.estimate, e)
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

    clock = _StageClock()
    with clock("invariants_s"):
        graph = build_measurement_graph(c)

    # The degree pass counts as a prune, the votes do not.
    with clock("vote_s" if opts.known_scale is None else "prune_s"):
        if opts.known_scale is not None:
            # One hypothesis.  Its agreeing pairs give each vertex's degree,
            # which bounds the cliques as the votes do at unknown scale.
            hypotheses = [float(opts.known_scale)]
            counts = graph.trims.degrees(hypotheses[0], cfg.cbar_sq)
        else:
            hypotheses, counts = _scale_hypotheses(graph, cfg.cbar_sq)
        clique_bound = clique.size_bound(counts)
    if clique_bound < 3:
        # No three vertices have the counts a triangle needs; at known scale
        # with no agreeing pair, V_1 would be every vertex.
        raise InsufficientInliersError("maximum clique smaller than 3 vertices")

    # One deadline bounds the whole stage: every search, each hypothesis's
    # and the retry's children, stops at this instant, and the prunes
    # between them spend the same time.
    deadline = time.monotonic() + opts.clique_time_budget

    def search(scale, vertices, first=None):
        """The graph at scale over vertices, and its maximum clique, or
        the next clique after `first` when one is given."""
        with clock("prune_s"):
            pruned = prune_by_scale(graph, scale, cfg.cbar_sq, vertices)
        with clock("clique_s"):
            if first is None:
                found = clique.max_clique(pruned, deadline)
            else:
                found = clique.next_clique(pruned, first, deadline)
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

    # One pass per clique: the chosen one, then at most one retry.
    for retried in (False, True):
        # The clique's TRIMs are computed once, for the re-vote and the
        # rotation input.  Chance-consistent outlier measurements can get
        # absorbed into a vertex's scale vote and bias it; the clique
        # members are mutually consistent, so re-voting on their internal
        # measurements removes the bias (and is exact on noise-free data).
        # The retry keeps the scale the first clique gave.
        with clock("retry_s" if retried else "revote_s"):
            within = graph.trims_within(used.vertices)
            if not retried and opts.known_scale is None:
                s_refined = _refine_scale_on_clique(within, cfg.cbar_sq)
                if s_refined is not None:
                    s_hat = s_refined
        rot_sol, certificate, skipped_k = _solve_rotation(graph, within, s_hat, cfg, opts, clock)
        if retried or certificate is None or certificate.certified:
            break
        # The paper's cascade retries once, on the next-largest clique, at
        # the chosen hypothesis's scale.  It has len(used) - 1 vertices or
        # more, and used lies in V_(len(used) - 1), so a search that
        # finishes does not widen.
        _, retry = clique.max_clique_of_candidates(
            partial(search, best[0], first=used), counts, len(used) - 1
        )
        if len(retry) < 3:
            break
        used = retry

    members = used.vertices
    with clock("translation_s"):
        t_vec, _, joint_mask = estimate_translation(
            c.source[members],
            c.target[members],
            s_hat,
            rot_sol.matrix,
            c.noise_bounds[members],
            cfg.cbar_sq,
        )

    trace = RegistrationTrace(
        **clock.times,
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
        certify_skipped_k=skipped_k,
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
