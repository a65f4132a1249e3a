"""Exact scalar truncated-least-squares estimation by adaptive voting.

Each measurement s_k with bound alpha_k contributes min((s - s_k)^2 /
alpha_k^2, cbar_sq) to the cost.  The consensus set {k : |s - s_k| <=
alpha_k * cbar}, a closed set, only changes at the 2K interval boundaries
s_k -+ alpha_k * cbar, so sweeping the sorted boundaries enumerates every
candidate consensus set (at most 2K - 1 of them) and the weighted
least-squares center of each is a global-minimizer candidate.  Every
boundary is an edge, tied ones included: the state after sorted event i
holds on [pos[i], pos[i + 1]], and since lower boundaries come first on
ties, the zero-width state where an upper boundary meets a lower one
holds both intervals, as the closed set does.  No tolerance enters.

The sweep keeps running sums of 1/alpha^2, s/alpha^2 and s^2/alpha^2, so
the whole solve is O(K log K) instead of the O(K^2) re-scan of the naive
enumeration.  The same sweep powers consensus maximization (return the
largest consensus set instead of the cheapest one).

The bits of the running sums depend on the event order, which is the
stable one: lower boundaries come first on ties, each kind in index
order.  The boundaries go through numpy's default argsort, and only runs
of equal boundaries, when there are any, get a second sort into that
order (`_event_order`).  The active count of each interval is an integer
prefix sum over the lower-boundary events.  Registration solves at most
a few thousand measurements at a time: one vertex's TRIMs (N - 1 of
them) and a clique's pairs (2,775 in the 75-vertex cliques of the
dense50_n150 workload, 4,950 in a 100-vertex one).  A stable argsort of
those 9,900 boundaries took 0.7-1.0 ms and the default one 0.12-0.19 ms
(one core, 2-core machine), so a solve at K = 4,950 went from a median
of 2.1 ms to 1.4 ms (30 calls), and at K = 2,775 from 1.0 to 0.6 ms:
about a tenth of a dense50_n150 call.

`row_consensus_votes` runs consensus maximization on every row of a table
at once.  It only needs the winning count and interval, not the running
sums, so it sorts packed integer keys along the rows instead: the
boundary and the event type in one uint64, whose plain sort is the order
the sweep needs.  The work is done in a `RowVotes` buffer set.
Registration's per-vertex scale votes keep one set a thread, compute each
block of TRIM rows into its tables and vote the block there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Keys of a missing entry's upper and lower boundary in the row-wise vote:
# odd and even, and above every finite boundary's key.
MISSING_UPPER_KEY = np.uint64(2**64 - 3)
MISSING_LOWER_KEY = np.uint64(2**64 - 2)


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
        if not (self.cbar_sq > 0 and np.isfinite(self.cbar_sq)):
            raise ValueError("cbar_sq must be positive and finite")
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
    """Members of the closed consensus set at the estimate, read from the
    boundaries the sweep counts (formed with the same bits)."""
    half = p.alphas * np.sqrt(p.cbar_sq)
    return (p.measurements - half <= estimate) & (estimate <= p.measurements + half)


@dataclass(frozen=True)
class _Sweep:
    """Per-interval consensus statistics from the boundary sweep.

    Arrays are aligned: interval i spans bounds(i) = (lo, hi) with n[i] > 0
    active measurements whose weighted sums are w[i], s1[i], s2[i].
    Intervals with no active measurement are left out; the one after the
    first event always has one, so the arrays are never empty.  The bounds
    are gathered only when asked for: the TLS pick never reads them.
    """

    edges: np.ndarray  # sorted boundary positions, ties kept
    occupied: np.ndarray  # index into edges of each interval's lower end
    n: np.ndarray
    w: np.ndarray
    s1: np.ndarray
    s2: np.ndarray

    def bounds(self, i=slice(None)):
        """(lo, hi) of the intervals at index i (all of them by default)."""
        j = self.occupied[i]
        return self.edges[j], self.edges[j + 1]


def _event_order(pos: np.ndarray) -> np.ndarray:
    """np.argsort(pos, kind="stable"), from the faster default argsort.

    That one leaves only runs of equal values (-0.0 equals 0.0) out of
    index order; when there are any, one more argsort on (run, index) puts
    each run in order.
    """
    order = np.argsort(pos)
    sorted_pos = pos[order]
    ties = sorted_pos[1:] == sorted_pos[:-1]
    if ties.any():
        run = np.concatenate([[0], np.cumsum(~ties)])
        order = order[np.argsort(run * pos.size + order)]
    return order


def _sweep_intervals(p: ScalarTlsProblem) -> _Sweep:
    s, a = p.measurements, p.alphas
    cbar = np.sqrt(p.cbar_sq)
    half = a * cbar
    K = s.size

    # Lower boundaries are events 0..K-1; the stable order puts them first
    # on ties.
    pos = np.concatenate([s - half, s + half])
    order = _event_order(pos)
    pos = pos[order]

    def running(v, at):
        """Sum of v over the active measurements after the events at `at`:
        +v enters at a lower boundary, -v leaves at an upper one.  Summing
        one quantity at a time keeps the full-length temporaries of the
        others out of memory.  The bits of the sum depend on the event
        order, which is why ties need the stable order."""
        return np.cumsum(np.concatenate([v, -v])[order])[at]

    # Active count after event i, which holds on [pos[i], pos[i + 1]]:
    # lower boundaries among events 0..i minus the upper ones, an exact
    # integer prefix sum.  The last event leaves none active.
    n = 2 * np.cumsum(order[:-1] < K) - np.arange(1, 2 * K)
    occupied = np.nonzero(n > 0)[0]
    inv_a2 = 1.0 / (a * a)
    return _Sweep(
        edges=pos,
        occupied=occupied,
        n=n[occupied],
        w=running(inv_a2, occupied),
        s1=running(s * inv_a2, occupied),
        s2=running(s * s * inv_a2, occupied),
    )


def _solution(p: ScalarTlsProblem, estimate: float, n_candidates: int) -> ScalarTlsSolution:
    return ScalarTlsSolution(
        estimate=estimate,
        cost=tls_cost(p, estimate),
        inlier_mask=_consensus_mask(p, estimate),
        n_candidates=n_candidates,
    )


def _largest_consensus(sweep: _Sweep) -> tuple[int, float]:
    """Index and midpoint of the largest consensus set; on ties the
    smallest midpoint, then the first index."""
    top = np.flatnonzero(sweep.n == sweep.n.max())
    lo, hi = sweep.bounds(top)
    mids = 0.5 * (lo + hi)
    k = int(np.argmin(mids))
    return int(top[k]), float(mids[k])


def solve_scalar_tls(p: ScalarTlsProblem) -> ScalarTlsSolution:
    """Globally optimal truncated-least-squares estimate.

    Ties between candidates of equal cost prefer the larger consensus set,
    then the smaller estimate, so the output is deterministic.
    """
    sweep = _sweep_intervals(p)
    K = p.measurements.size
    n_candidates = sweep.n.size
    assert 0 < n_candidates <= 2 * K - 1

    estimates = sweep.s1 / sweep.w
    # Cost of keeping exactly this consensus set: weighted SSE at its
    # least-squares center plus the truncation penalty of everything else.
    sse = np.maximum(sweep.s2 - sweep.s1 * sweep.s1 / sweep.w, 0.0)
    costs = sse + (K - sweep.n) * p.cbar_sq

    tied = np.flatnonzero(costs == costs.min())
    best = tied[np.lexsort((estimates[tied], -sweep.n[tied]))[0]]
    return _solution(p, float(estimates[best]), n_candidates)


def solve_consensus_max(p: ScalarTlsProblem) -> ScalarTlsSolution:
    """Maximize the consensus-set size; estimate is the midpoint of the
    winning feasibility interval (every member stays within threshold).

    Reported cost is the truncated objective at that estimate.  Ties on
    cardinality prefer the smaller estimate.
    """
    sweep = _sweep_intervals(p)
    _, mid = _largest_consensus(sweep)
    return _solution(p, mid, sweep.n.size)


class RowVotes:
    """One buffer set for consensus maximization over the rows of tables
    of up to `height` rows of m measurements each (see row_consensus_votes).

    `tables(rows)` hands out three contiguous (rows, m) float tables: the
    caller writes the measurements into the first, their bounds into the
    second, and may use the third as scratch while it does.  `vote(rows,
    cbar_sq)` then votes those rows.  The bounds and the scratch table are
    the two halves of the (height, 2m) uint64 key table, the measurements
    table is the set's one float table, and the vote forms the boundaries
    in these three tables before it writes the keys: numpy runs elementwise
    work on contiguous tables several times faster than on the key table's
    halves, which are not contiguous.  With a bool table of missing
    entries the set takes 25 B an entry, 1.6 MB for 65 rows of 1000; a
    vote briefly allocates 8 B an entry more, once for a copy and once for
    the positions of the upper events.
    """

    def __init__(self, height: int, m: int):
        self._keys = np.empty((height, 2 * m), dtype=np.uint64)
        self._values = np.empty((height, m))
        self._missing = np.empty((height, m), dtype=bool)
        # 2u for the u-th upper event of a row.
        self._twice_u = np.arange(0, 2 * m, 2)

    def tables(self, rows: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(measurements, bounds, scratch) of the first rows rows."""
        halves = self._keys[:rows].reshape(2, rows, self._values.shape[1]).view(np.float64)
        return self._values[:rows], halves[0], halves[1]

    def vote(self, rows: int, cbar_sq: float) -> tuple[np.ndarray, np.ndarray]:
        """Counts and midpoints of the first rows rows of the tables, which
        the vote overwrites."""
        keys = self._keys[:rows]
        m = self._values.shape[1]
        s, half, lo = self.tables(rows)
        missing = np.flatnonzero(np.isnan(s, out=self._missing[:rows]))
        half *= np.sqrt(cbar_sq)
        np.subtract(s, half, out=lo)
        hi = np.add(half, s, out=s)
        np.maximum(lo, 0.0, out=lo)
        lo_keys, hi_keys = lo.view(np.uint64), hi.view(np.uint64)
        lo_keys <<= 1
        hi_keys <<= 1
        hi_keys |= 1
        lo_keys.reshape(-1)[missing] = MISSING_LOWER_KEY
        hi_keys.reshape(-1)[missing] = MISSING_UPPER_KEY
        # lo_keys lies in the key table: numpy copies it before the write.
        keys[:, :m] = lo_keys
        keys[:, m:] = hi_keys
        keys.sort(axis=1)
        # The event types, in the float table, which the keys have left.
        upper = self._values.reshape(-1).view(bool)[: keys.size].reshape(keys.shape)
        np.bitwise_and(keys, 1, out=upper, casting="unsafe")
        # Flat positions p of each row's m upper events.  Row r starts at
        # 2mr, so just before its u-th one p - 2mr - 2u intervals are
        # open; the row's offset does not move the first peak.
        peaks = np.flatnonzero(upper).reshape(rows, m)
        peaks -= self._twice_u
        u = np.argmax(peaks, axis=1)
        r = np.arange(rows)
        p = peaks[r, u]
        n = p - 2 * m * r
        p += 2 * u  # the upper event that ends the first peak
        flat = keys.reshape(-1)
        lo_pos, hi_pos = ((flat[q] >> 1).view(np.float64) for q in (p - 1, p))
        voted = n > 0
        return np.where(voted, n, 0), np.where(voted, 0.5 * (lo_pos + hi_pos), np.nan)


def row_consensus_votes(
    measurements: np.ndarray,
    alphas: np.ndarray,
    cbar_sq: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Consensus maximization over each row of a table of nonnegative measurements.

    Row r votes with the closed intervals [s - cbar*alpha, s + cbar*alpha]
    of its entries; NaN entries are missing and never vote.  Returns, per
    row, the largest number of intervals sharing a point and the midpoint
    of the first interval of the sweep where that many overlap (NaN when
    the row has no interval).  The estimated quantity is nonnegative, so
    lower boundaries are clipped at 0.

    Every boundary x >= 0 becomes one integer key: the bits of x, whose
    unsigned order is the float order, shifted left by one, with the low
    bit 0 for a lower boundary and 1 for an upper one.  One sort along the
    rows thus puts lower boundaries first on ties, so touching closed
    intervals count as overlapping.  A missing entry's keys become
    MISSING_UPPER_KEY and MISSING_LOWER_KEY, above every finite key: its
    interval closes after every real one has, and opens again last, so it
    never adds to a count.  Each row then holds M upper events.  Just
    before its u-th one, at sorted position p, p events have been seen, u
    of them upper, so p - 2u intervals are open; the count only falls at
    an upper event, so it peaks just before one.

    The vote is RowVotes.vote on a buffer set of the table's size, which
    this function fills with a copy of the table; registration computes
    its blocks of TRIM rows straight into the tables of one set a thread
    (`pipeline._vertex_votes`).  On one core a block of 65 x 1000 TRIMs
    takes a median of 2.3 ms to compute and 1.5 ms to vote: 0.4 ms to
    form the keys, 0.8 ms to sort them and 0.35 ms to read the counts,
    where the previous vote, allocating its keys and temporaries anew,
    took 3.7 ms.  A running count over all 2M events (np.cumsum, with no
    allocation) read the counts in 0.6 ms, and an argsort along the rows
    took 38 ms on the whole 1000 x 1998 boundary table, a stable one
    159 ms.
    """
    s = np.asarray(measurements, dtype=float)
    votes = RowVotes(*s.shape)
    s_table, alpha_table, _ = votes.tables(s.shape[0])
    s_table[...], alpha_table[...] = s, alphas
    return votes.vote(s.shape[0], cbar_sq)


def consensus_equivalence_check(p: ScalarTlsProblem) -> ConsensusDiagnostics:
    """Sufficient condition for TLS to select the maximum consensus set.

    If the second-largest consensus set is smaller than N_max -
    r_in / cbar_sq, where r_in is the weighted residual sum of the maximum
    consensus set at its best representative, the TLS solution picks the
    same inliers as consensus maximization.

    The second-largest set is taken over the sweep's states, the
    zero-width ones between tied boundaries of one kind included.  Such a
    state is a subset of a neighbouring state, so counting it can only
    raise second_size: the condition stays sufficient, and only gets more
    conservative.
    """
    sweep = _sweep_intervals(p)
    n = sweep.n
    best, mid = _largest_consensus(sweep)
    max_size = int(n[best])
    # Every n is positive, so an empty side contributes 0.
    second_size = int(max(n[:best].max(initial=0), n[best + 1 :].max(initial=0)))

    # Best representative of the winning set: its weighted least-squares
    # center clamped into the feasibility interval (minimizes r_in there).
    center = float(np.clip(sweep.s1[best] / sweep.w[best], *sweep.bounds(best)))
    members = _consensus_mask(p, mid)
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
