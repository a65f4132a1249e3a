"""Exact scalar truncated-least-squares estimation by adaptive voting.

Each measurement s_k with bound alpha_k contributes min((s - s_k)^2 /
alpha_k^2, cbar_sq) to the cost.  The consensus set {k : |s - s_k| <=
alpha_k * cbar} only changes at the 2K interval boundaries s_k -+
alpha_k * cbar, so sweeping the sorted boundaries enumerates every
candidate consensus set (at most 2K - 1 of them) and the weighted
least-squares center of each is a global-minimizer candidate.

The sweep keeps running sums of 1/alpha^2, s/alpha^2 and s^2/alpha^2, so
the whole solve is O(K log K) instead of the O(K^2) re-scan of the naive
enumeration.  The same sweep powers consensus maximization (return the
largest consensus set instead of the cheapest one).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BOUNDARY_MERGE_REL_TOL = 1e-12


@dataclass(frozen=True)
class ScalarTlsProblem:
    measurements: np.ndarray
    alphas: np.ndarray
    cbar_sq: float = 1.0

    def __post_init__(self):
        s = np.asarray(self.measurements, dtype=float).ravel()
        a = np.asarray(self.alphas, dtype=float).ravel()
        if s.size == 0:
            raise ValueError("need at least one measurement")
        if a.shape != s.shape:
            raise ValueError("measurements and alphas must have equal length")
        if not np.all(np.isfinite(s)) or not np.all(np.isfinite(a)):
            raise ValueError("inputs must be finite")
        if not np.all(a > 0):
            raise ValueError("alphas must be positive")
        if not self.cbar_sq > 0:
            raise ValueError("cbar_sq must be positive")
        object.__setattr__(self, "measurements", s)
        object.__setattr__(self, "alphas", a)


@dataclass(frozen=True)
class ScalarTlsSolution:
    estimate: float
    cost: float
    inlier_mask: np.ndarray
    n_candidates: int = 0


@dataclass(frozen=True)
class ConsensusDiagnostics:
    """Inputs to the TLS / consensus-maximization agreement condition."""

    equivalent: bool
    max_size: int
    second_size: int
    inlier_residual_sum: float
    threshold: float


def tls_cost(p: ScalarTlsProblem, estimate: float) -> float:
    """Evaluate the truncated cost at a point (the recomputable objective)."""
    r = (estimate - p.measurements) / p.alphas
    return float(np.sum(np.minimum(r * r, p.cbar_sq)))


def _consensus_mask(p: ScalarTlsProblem, estimate: float) -> np.ndarray:
    r = (estimate - p.measurements) / p.alphas
    return r * r <= p.cbar_sq * (1.0 + 1e-12)


@dataclass(frozen=True)
class _Sweep:
    """Per-interval consensus statistics from the boundary sweep.

    Arrays are aligned: interval i spans (lo[i], hi[i]) with n[i] > 0
    active measurements whose weighted sums are w[i], s1[i], s2[i].
    Intervals with no active measurement are left out, so the arrays are
    empty when every boundary collapsed to one point.
    """

    lo: np.ndarray
    hi: np.ndarray
    n: np.ndarray
    w: np.ndarray
    s1: np.ndarray
    s2: np.ndarray


def _sweep_intervals(p: ScalarTlsProblem) -> _Sweep:
    s, a = p.measurements, p.alphas
    cbar = np.sqrt(p.cbar_sq)
    half = a * cbar
    K = s.size

    pos = np.concatenate([s - half, s + half])
    order = np.argsort(pos, kind="stable")
    pos = pos[order]

    # Collapse boundaries that coincide within relative tolerance so ties
    # produce one event group instead of zero-width intervals.
    new_group = np.empty(pos.size, dtype=bool)
    new_group[0] = True
    new_group[1:] = np.diff(pos) > BOUNDARY_MERGE_REL_TOL * np.maximum(1.0, np.abs(pos[1:]))
    group_pos = pos[new_group]
    # State after processing all events of group g is valid on the open
    # interval (group_pos[g], group_pos[g + 1]).
    last = np.nonzero(np.append(new_group[1:], True))[0][: group_pos.size - 1]

    def running(v, at):
        """Sum of v over the active measurements after the events at `at`:
        +v enters at a lower boundary, -v leaves at an upper one.  Summing
        one quantity at a time keeps the full-length temporaries of the
        others out of memory."""
        return np.cumsum(np.concatenate([v, -v])[order])[at]

    n = np.rint(running(np.ones(K), last)).astype(np.int64)
    occupied = np.nonzero(n > 0)[0]
    rows = last[occupied]
    inv_a2 = 1.0 / (a * a)
    return _Sweep(
        lo=group_pos[occupied],
        hi=group_pos[occupied + 1],
        n=n[occupied],
        w=running(inv_a2, rows),
        s1=running(s * inv_a2, rows),
        s2=running(s * s * inv_a2, rows),
    )


def _solution(p: ScalarTlsProblem, estimate: float, n_candidates: int) -> ScalarTlsSolution:
    return ScalarTlsSolution(
        estimate=estimate,
        cost=tls_cost(p, estimate),
        inlier_mask=_consensus_mask(p, estimate),
        n_candidates=n_candidates,
    )


def _collapsed_point(p: ScalarTlsProblem) -> float:
    """The one point left when every interval boundary collapsed: it
    covers every measurement."""
    return float(np.min(p.measurements - p.alphas * np.sqrt(p.cbar_sq)))


def _largest_consensus(sweep: _Sweep) -> tuple[int, np.ndarray]:
    """Index of the largest consensus set, the smallest midpoint on ties,
    and the interval midpoints."""
    mids = 0.5 * (sweep.lo + sweep.hi)
    return int(np.lexsort((mids, -sweep.n))[0]), mids


def solve_scalar_tls(p: ScalarTlsProblem) -> ScalarTlsSolution:
    """Globally optimal truncated-least-squares estimate.

    Ties between candidates of equal cost prefer the larger consensus set,
    then the smaller estimate, so the output is deterministic.
    """
    sweep = _sweep_intervals(p)
    K = p.measurements.size
    n_candidates = sweep.n.size
    assert n_candidates <= 2 * K - 1
    if n_candidates == 0:
        return _solution(p, _collapsed_point(p), 0)

    estimates = sweep.s1 / sweep.w
    # Cost of keeping exactly this consensus set: weighted SSE at its
    # least-squares center plus the truncation penalty of everything else.
    sse = np.maximum(sweep.s2 - sweep.s1 * sweep.s1 / sweep.w, 0.0)
    costs = sse + (K - sweep.n) * p.cbar_sq

    best = np.lexsort((estimates, -sweep.n, costs))[0]
    return _solution(p, float(estimates[best]), n_candidates)


def solve_consensus_max(p: ScalarTlsProblem) -> ScalarTlsSolution:
    """Maximize the consensus-set size; estimate is the midpoint of the
    winning feasibility interval (every member stays within threshold).

    Reported cost is the truncated objective at that estimate.  Ties on
    cardinality prefer the smaller estimate.
    """
    sweep = _sweep_intervals(p)
    if sweep.n.size == 0:
        return _solution(p, _collapsed_point(p), 0)
    best, mids = _largest_consensus(sweep)
    return _solution(p, float(mids[best]), sweep.n.size)


def consensus_equivalence_check(p: ScalarTlsProblem) -> ConsensusDiagnostics:
    """Sufficient condition for TLS to select the maximum consensus set.

    If the second-largest consensus set is smaller than N_max -
    r_in / cbar_sq, where r_in is the weighted residual sum of the maximum
    consensus set at its best representative, the TLS solution picks the
    same inliers as consensus maximization.
    """
    sweep = _sweep_intervals(p)
    n = sweep.n
    if n.size == 0:
        K = p.measurements.size
        return ConsensusDiagnostics(True, K, 0, 0.0, float(K))

    best, mids = _largest_consensus(sweep)
    max_size = int(n[best])
    second_size = 0
    if n.size > 1:
        rest = np.delete(n, best)
        second_size = int(rest.max())

    # Best representative of the winning set: its weighted least-squares
    # center clamped into the feasibility interval (minimizes r_in there).
    center = float(np.clip(sweep.s1[best] / sweep.w[best], sweep.lo[best], sweep.hi[best]))
    members = _consensus_mask(p, mids[best])
    r = (center - p.measurements[members]) / p.alphas[members]
    r_in = float(np.sum(r * r))

    threshold = max_size - r_in / p.cbar_sq
    return ConsensusDiagnostics(
        equivalent=second_size < threshold,
        max_size=max_size,
        second_size=second_size,
        inlier_residual_sum=r_in,
        threshold=threshold,
    )
