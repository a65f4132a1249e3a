"""Exactness of the adaptive-voting scalar solver against brute force."""

import itertools
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    finite_trim_count,
    reference_sweep_intervals,
    row_vote_oracle,
    trim_tables,
    vectorized_subset_oracle,
)
from tlsreg.scalar_tls import (
    ScalarTlsProblem,
    _event_order,
    _sweep_intervals,
    consensus_equivalence_check,
    row_consensus_votes,
    solve_consensus_max,
    solve_scalar_tls,
    tls_cost,
)

RNG = np.random.default_rng(7)


def subset_oracle(p: ScalarTlsProblem):
    """Enumerate all inlier subsets: weighted-LS center of each, keep the
    ones whose members actually satisfy the threshold, return the subset
    with minimum total truncated cost and, separately, the maximum
    cardinality among valid subsets.
    """
    s, a, cb = p.measurements, p.alphas, p.cbar_sq
    K = s.size
    best_cost = K * cb
    best_estimate = None
    best_size = 0
    cbar = np.sqrt(cb)
    for r in range(1, K + 1):
        for subset in itertools.combinations(range(K), r):
            idx = list(subset)
            # Feasibility of the whole subset at one point (max consensus):
            lo = np.max(s[idx] - a[idx] * cbar)
            hi = np.min(s[idx] + a[idx] * cbar)
            if lo <= hi + 1e-12 and r > best_size:
                best_size = r
            w = 1.0 / a[idx] ** 2
            center = np.sum(w * s[idx]) / np.sum(w)
            if np.any(np.abs(center - s[idx]) > a[idx] * cbar * (1 + 1e-12)):
                continue
            cost = float(np.sum(w * (center - s[idx]) ** 2) + (K - r) * cb)
            if cost < best_cost - 1e-15:
                best_cost = cost
                best_estimate = center
    return best_cost, best_estimate, best_size


def full_lexsort_pick(p: ScalarTlsProblem):
    """Estimate of the first interval after sorting every candidate on
    (cost, -consensus size, estimate), and the candidates' costs."""
    sweep = _sweep_intervals(p)
    estimates = sweep.s1 / sweep.w
    sse = np.maximum(sweep.s2 - sweep.s1 * sweep.s1 / sweep.w, 0.0)
    costs = sse + (p.measurements.size - sweep.n) * p.cbar_sq
    return float(estimates[np.lexsort((estimates, -sweep.n, costs))[0]]), costs


def mirrored_integer_problem(rng):
    """Mirrored integer measurements with power-of-two bounds: every
    consensus set has a mirror image of exactly the same cost and size."""
    m = rng.integers(-20, 21, size=int(rng.integers(1, 15))).astype(float)
    a = rng.choice([0.5, 1.0, 2.0], size=m.size)
    return ScalarTlsProblem(
        np.concatenate([m, -m]), np.concatenate([a, a]), cbar_sq=float(rng.choice([1.0, 4.0]))
    )


def tied_problem(rng):
    """Integer measurements (some of them -0.0) and odd integer bounds:
    interval boundaries coincide exactly, and 1/alpha^2 is not a binary
    fraction, so the weighted sums round differently in each order."""
    K = int(rng.integers(1, 60))
    s = rng.integers(-10, 11, size=K).astype(float)
    s[rng.random(K) < 0.1] = -0.0
    a = rng.choice([1.0, 3.0, 5.0, 7.0], size=K)
    return ScalarTlsProblem(s, a, cbar_sq=float(rng.choice([1.0, 4.0])))


@st.composite
def touching_problems(draw, max_k=None):
    """Measurements and bounds on a grid of halves, so that unequal
    boundaries are 0.5 apart or more and equal ones tie exactly; the odd
    bounds make 1/alpha^2 no binary fraction, so the running sums' bits
    depend on the event order.  The draw forces each kind of tie: an upper
    boundary on another measurement's lower one, a boundary at 0.0
    (s = +-alpha cbar), duplicated measurements and -0.0.  With max_k, the
    first max_k entries of the shuffled draw."""
    cbar = draw(st.sampled_from([1.0, 2.0]))
    bounds = st.sampled_from([0.5, 1.0, 3.0, 5.0])
    index = st.integers(0, 10**6)
    entries = draw(
        st.lists(st.tuples(st.integers(-8, 8).map(float), bounds), min_size=1, max_size=30)
    )
    for i, a in draw(st.lists(st.tuples(index, bounds), max_size=10)):
        s_i, a_i = entries[i % len(entries)]
        entries.append((s_i + (a_i + a) * cbar, a))
    for a, sign in draw(st.lists(st.tuples(bounds, st.sampled_from([-1.0, 1.0])), max_size=4)):
        entries.append((sign * a * cbar, a))
    for i in draw(st.lists(index, max_size=10)):
        entries.append(entries[i % len(entries)])
    entries += [(-0.0, a) for a in draw(st.lists(bounds, max_size=2))]
    s, a = np.array(draw(st.permutations(entries))[:max_k]).T
    return ScalarTlsProblem(s, a, cbar_sq=cbar * cbar)


def random_problem(rng, K, spread=5.0):
    s = rng.uniform(-spread, spread, size=K)
    a = rng.uniform(0.1, 2.0, size=K)
    return ScalarTlsProblem(s, a, cbar_sq=float(rng.uniform(0.5, 2.0)))


class TestSolveTls:
    def test_worked_example(self):
        # Two coincident measurements at 0 and one at 3 with alpha 2, cbar 1:
        # optimal estimate 0 with cost 1, consensus {0, 1}.
        p = ScalarTlsProblem([0.0, 0.0, 3.0], [2.0, 2.0, 2.0], cbar_sq=1.0)
        sol = solve_scalar_tls(p)
        assert sol.estimate == pytest.approx(0.0, abs=1e-12)
        assert sol.cost == pytest.approx(1.0, abs=1e-12)
        assert sol.inlier_mask.tolist() == [True, True, False]

    def test_single_measurement(self):
        sol = solve_scalar_tls(ScalarTlsProblem([5.0], [0.7]))
        assert sol.estimate == pytest.approx(5.0)
        assert sol.cost == pytest.approx(0.0, abs=1e-15)

    def test_matches_exhaustive_oracle(self):
        for trial in range(60):
            K = int(RNG.integers(1, 11))
            p = random_problem(RNG, K)
            sol = solve_scalar_tls(p)
            oracle_cost, _, _ = subset_oracle(p)
            assert sol.cost <= oracle_cost + 1e-9
            assert sol.cost >= oracle_cost - 1e-9

    def test_cost_is_recomputable(self):
        for _ in range(50):
            p = random_problem(RNG, int(RNG.integers(2, 30)))
            sol = solve_scalar_tls(p)
            assert abs(tls_cost(p, sol.estimate) - sol.cost) < 1e-10

    def test_candidate_bound(self):
        for _ in range(50):
            K = int(RNG.integers(1, 40))
            sol = solve_scalar_tls(random_problem(RNG, K))
            assert sol.n_candidates <= 2 * K - 1

    def test_mask_consistent_with_estimate(self):
        for _ in range(50):
            p = random_problem(RNG, 15)
            sol = solve_scalar_tls(p)
            r = (sol.estimate - p.measurements) / p.alphas
            expected = r * r <= p.cbar_sq * (1 + 1e-12)
            assert np.array_equal(sol.inlier_mask, expected)

    def test_rejects_empty_problem(self):
        with pytest.raises(ValueError):
            ScalarTlsProblem([], [])

    @pytest.mark.parametrize(
        "measurements, alphas, cbar_sq",
        [
            ([1.0, np.inf], [1.0, 1.0], 1.0),
            ([1.0, 2.0], [1.0, np.nan], 1.0),
            ([1.0, 2.0], [1.0, 0.0], 1.0),
            ([1.0, 2.0], [1.0], 1.0),
            ([1.0, 2.0], [1.0, 1.0], 0.0),
            ([1.0, 2.0], [1.0, 1.0], -1.0),
            ([1.0, 2.0], [1.0, 1.0], np.nan),
            ([1.0, 2.0], [1.0, 1.0], np.inf),
        ],
    )
    def test_rejects_invalid_problem(self, measurements, alphas, cbar_sq):
        with pytest.raises(ValueError):
            ScalarTlsProblem(measurements, alphas, cbar_sq)

    def test_deterministic_tie_break(self):
        # Two symmetric clusters of equal cost: the smaller estimate wins.
        p = ScalarTlsProblem([-1.0, -1.0, 1.0, 1.0], [0.5] * 4, cbar_sq=1.0)
        sol = solve_scalar_tls(p)
        assert sol.estimate == pytest.approx(-1.0)


    def test_pick_matches_full_lexsort_on_ties(self):
        # Mirrored integer measurements with power-of-two bounds: every
        # consensus set has a mirror image of exactly the same cost.
        rng = np.random.default_rng(61)
        tied_problems = 0
        for _ in range(200):
            p = mirrored_integer_problem(rng)
            expected, costs = full_lexsort_pick(p)
            tied_problems += np.count_nonzero(costs == costs.min()) > 1
            assert solve_scalar_tls(p).estimate == expected
        assert tied_problems >= 50


class TestConsensusMax:
    def test_worked_example(self):
        # Same instance as above: all three measurements fit at 1.5.
        p = ScalarTlsProblem([0.0, 0.0, 3.0], [2.0, 2.0, 2.0], cbar_sq=1.0)
        sol = solve_consensus_max(p)
        assert sol.inlier_mask.tolist() == [True, True, True]
        assert sol.estimate == pytest.approx(1.5)

    def test_identical_measurements(self):
        p = ScalarTlsProblem([2.0] * 6, [1.0] * 6)
        sol = solve_consensus_max(p)
        assert np.all(sol.inlier_mask)
        assert sol.estimate == pytest.approx(2.0)

    def test_cardinality_matches_oracle(self):
        for _ in range(60):
            K = int(RNG.integers(1, 11))
            p = random_problem(RNG, K)
            sol = solve_consensus_max(p)
            _, _, oracle_size = subset_oracle(p)
            assert int(np.sum(sol.inlier_mask)) == oracle_size

    def test_pick_matches_full_lexsort_on_ties(self):
        # The pick of np.lexsort((mids, -n)) over every interval: largest
        # set, then smallest midpoint, then first index.
        rng = np.random.default_rng(62)
        tied_problems = 0
        for _ in range(200):
            p = mirrored_integer_problem(rng)
            lo, hi, n, *_ = reference_sweep_intervals(p)
            mids = 0.5 * (lo + hi)
            expected = mids[np.lexsort((mids, -n))[0]]
            tied_problems += np.count_nonzero(n == n.max()) > 1
            assert solve_consensus_max(p).estimate == expected
            diag = consensus_equivalence_check(p)
            assert diag.max_size == n.max()
            assert diag.second_size == (np.sort(n)[-2] if n.size > 1 else 0)
        assert tied_problems >= 50

    def test_touching_intervals_share_their_point(self):
        # [0, 1] and [1, 2] both hold 1.0: the closed consensus set.
        p = ScalarTlsProblem([0.5, 1.5], [0.5, 0.5])
        sol = solve_consensus_max(p)
        assert sol.estimate == 1.0
        assert sol.inlier_mask.tolist() == [True, True]
        assert consensus_equivalence_check(p).max_size == 2

    def test_close_disjoint_intervals_stay_apart(self):
        # Boundaries 8e-14 apart relative to their size are not one point:
        # the first interval wins both solvers, at its center.
        p = ScalarTlsProblem([1.0, 1.0 + 1e-13], [1e-14, 1e-14])
        for sol in (solve_scalar_tls(p), solve_consensus_max(p)):
            assert sol.estimate == 1.0
            assert sol.inlier_mask.tolist() == [True, False]

    @given(touching_problems(max_k=14))
    @settings(max_examples=200, deadline=None)
    def test_closed_sets_match_subset_oracle(self, p):
        _, oracle_size = vectorized_subset_oracle(p.measurements, p.alphas, p.cbar_sq)
        assert np.count_nonzero(solve_consensus_max(p).inlier_mask) == oracle_size
        assert consensus_equivalence_check(p).max_size == oracle_size

    @pytest.mark.parametrize("cbar_sq", [1.0, 4.0])
    def test_sweep_matches_row_votes(self, cbar_sq):
        # The row vote counts closed intervals too; its clipping at 0 only
        # drops points whose cover is a subset of the cover at 0.
        rng = np.random.default_rng(87)
        for _ in range(40):
            s, a = integer_vote_table(rng, 7, int(rng.integers(1, 25)))
            counts, _ = row_consensus_votes(s, a, cbar_sq)
            for r, count in enumerate(counts):
                ok = ~np.isnan(s[r])
                if not ok.any():
                    continue
                p = ScalarTlsProblem(s[r, ok], a[r, ok], cbar_sq)
                assert consensus_equivalence_check(p).max_size == count
                assert np.count_nonzero(solve_consensus_max(p).inlier_mask) == count


class TestSweep:
    @staticmethod
    def assert_same_bits(x, y):
        assert x.dtype == y.dtype
        assert np.array_equal(x, y)
        assert np.array_equal(np.signbit(x), np.signbit(y))

    def test_matches_reference_sweep(self):
        rng = np.random.default_rng(71)
        tied = 0
        for trial in range(1200):
            p = tied_problem(rng) if trial % 4 else random_problem(rng, int(rng.integers(1, 40)))
            half = p.alphas * np.sqrt(p.cbar_sq)
            pos = np.concatenate([p.measurements - half, p.measurements + half])
            tied += np.unique(pos).size < pos.size
            sweep = _sweep_intervals(p)
            got = (*sweep.bounds(), sweep.n, sweep.w, sweep.s1, sweep.s2)
            for x, y in zip(got, reference_sweep_intervals(p)):
                self.assert_same_bits(x, y)
        assert tied >= 600

    @given(touching_problems())
    @settings(max_examples=300, deadline=None)
    def test_ties_of_every_kind_match_reference_sweep(self, p):
        sweep = _sweep_intervals(p)
        got = (*sweep.bounds(), sweep.n, sweep.w, sweep.s1, sweep.s2)
        for x, y in zip(got, reference_sweep_intervals(p)):
            self.assert_same_bits(x, y)

    @given(
        st.lists(
            st.sampled_from([-1.5, -0.0, 0.0, 0.5, 2.0]) | st.floats(-3.0, 3.0), max_size=200
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_event_order_is_the_stable_order(self, values):
        # -0.0 and 0.0 are equal boundaries: a stable sort keeps them in
        # event order.  (A sweep boundary is -0.0 only with a zero width.)
        pos = np.array(values, dtype=float)
        assert np.array_equal(_event_order(pos), np.argsort(pos, kind="stable"))

    def test_event_order_of_a_large_tied_table(self):
        rng = np.random.default_rng(34)
        for size in (2 * 2775, 2 * 4950):
            pos = rng.integers(-500, 500, size=size) * 0.5
            pos[rng.random(size) < 0.05] = -0.0
            assert np.array_equal(_event_order(pos), np.argsort(pos, kind="stable"))

    def test_peak_memory_of_a_large_solve(self):
        # The sweep peaks at about 218 B per measurement (numpy 2.4,
        # x86-64); the bound leaves room for no further full-length
        # temporary.
        import tracemalloc

        K = 100_000
        rng = np.random.default_rng(123)
        p = ScalarTlsProblem(rng.uniform(0, 10, size=K), rng.uniform(0.05, 0.5, size=K))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            solve_scalar_tls(p)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 250 * K


def assert_votes_match_oracle(s, a, cbar_sq):
    counts, mids = row_consensus_votes(s, a, cbar_sq)
    expected = [row_vote_oracle(s[r], a[r], cbar_sq) for r in range(s.shape[0])]
    assert counts.tolist() == [c for c, _ in expected]
    np.testing.assert_array_equal(mids, [m for _, m in expected])


CLOUD_30 = np.random.default_rng(86).uniform(0, 1, size=(30, 3))


def integer_vote_table(rng, n_rows, n_cols):
    """Integer measurements with bounds 0.5, 1 and 2: an upper boundary
    often equals another interval's lower one.  About 1 in 10 missing."""
    s = rng.integers(0, 11, size=(n_rows, n_cols)).astype(float)
    a = rng.choice([0.5, 1.0, 2.0], size=s.shape)
    s[rng.random(s.shape) < 0.1] = np.nan
    return s, a


class TestRowVotes:
    def test_touching_intervals_both_count(self):
        # [0, 2] and [2, 4] share the point 2; [5, 7] stands alone.
        counts, mids = row_consensus_votes(
            np.array([[1.0, 3.0, 6.0]]), np.array([[1.0, 1.0, 1.0]])
        )
        assert counts.tolist() == [2] and mids.tolist() == [2.0]

    @pytest.mark.parametrize("cbar_sq", [1.0, 4.0])
    def test_matches_oracle_on_ties(self, cbar_sq):
        rng = np.random.default_rng(81)
        touching = 0
        for _ in range(40):
            s, a = integer_vote_table(rng, 7, int(rng.integers(1, 25)))
            half = np.sqrt(cbar_sq) * a
            touching += np.intersect1d(s - half, s + half).size > 0
            assert_votes_match_oracle(s, a, cbar_sq)
        assert touching >= 30

    def test_lower_boundaries_below_zero_are_clipped(self):
        rng = np.random.default_rng(82)
        for _ in range(40):
            s, a = integer_vote_table(rng, 5, int(rng.integers(1, 20)))
            s = np.where(np.isnan(s), s, s / 4.0)  # many of s - alpha below 0
            assert_votes_match_oracle(s, 4.0 * a, 1.0)
        counts, mids = row_consensus_votes(np.array([[0.5, 1.0]]), np.array([[2.0, 2.0]]))
        assert counts.tolist() == [2] and mids.tolist() == [1.25]  # on [0, 2.5]

    def test_random_tables_match_oracle(self):
        rng = np.random.default_rng(83)
        for _ in range(20):
            s = rng.uniform(0, 5, size=(6, int(rng.integers(1, 40))))
            a = rng.uniform(0.05, 1.0, size=s.shape)
            s[rng.random(s.shape) < 0.2] = np.nan
            assert_votes_match_oracle(s, a, float(rng.uniform(0.5, 2.0)))

    @pytest.mark.parametrize(
        "src, n_skipped, n_bare",
        [
            # Vertex 0 lies within the degeneracy cutoff (1e-9 of the
            # extent, which vertex 3 sets) of vertices 1 and 2, which are
            # not within it of each other.
            (
                np.array([[0.0, 0.0, 0.0], [0.9e-9, 0.0, 0.0], [-0.9e-9, 0.0, 0.0], [1.0, 0.0, 0.0]]),
                2,
                0,
            ),
            (np.random.default_rng(85).uniform(0, 1, size=(3, 3)), 0, 0),
            # Vertices 3, 12 and 13 coincide.
            (CLOUD_30[[*range(12), 3, 3, *range(14, 30)]], 3, 0),
            # Every point coincides: extent 0, cutoff 0, no TRIM at all.
            (np.full((3, 3), 0.5), 3, 3),
        ],
    )
    def test_graph_tables_with_coincident_source_points(self, src, n_skipped, n_bare):
        from tlsreg.geometry import CorrespondenceSet
        from tlsreg.invariants import build_measurement_graph

        n = src.shape[0]
        dst = np.random.default_rng(n).uniform(0, 3, size=(n, 3))
        graph = build_measurement_graph(CorrespondenceSet(src, dst, np.full(n, 0.05)))
        assert len(graph.trims.skipped_rows) == n_skipped
        s, a = trim_tables(graph.trims)
        assert np.count_nonzero(np.isnan(s).all(axis=1)) == n_bare
        assert np.count_nonzero(~np.isnan(s)) == 2 * finite_trim_count(graph.trims)
        i, j = graph.trims.skipped_rows.T
        assert np.isnan(s[i, j]).all() and np.array_equal(np.isnan(a), np.isnan(s))
        assert np.array_equal(s, s.T, equal_nan=True) and np.array_equal(a, a.T, equal_nan=True)
        assert_votes_match_oracle(s, a, 1.0)

    def test_no_clique_exceeds_the_vote_bound(self):
        # Every member of a size-m clique at any scale has m - 1 incident
        # TRIMs consistent with that scale, so m <= the bound.
        from tlsreg.clique import max_clique, prune_by_scale, size_bound
        from tlsreg.invariants import build_measurement_graph
        from tlsreg.pipeline import _scale_hypotheses
        from tlsreg.synthetic import SyntheticSpec, generate

        reached = 0
        for seed in range(12):
            c, gt, _ = generate(
                SyntheticSpec(n_points=50, outlier_rate=0.3 + 0.05 * (seed % 8), seed=90 + seed)
            )
            graph = build_measurement_graph(c)
            hypotheses, counts = _scale_hypotheses(graph, 1.0)
            bound = size_bound(counts)
            cliques = [
                max_clique(prune_by_scale(graph, scale, 1.0))
                for scale in [*hypotheses, gt.scale, *np.linspace(0.5, 6.0, 12)]
            ]
            sizes = [len(found) for found in cliques]
            assert max(sizes) <= bound, seed
            # ... and each member's own count is m - 1 or more.
            for found in cliques:
                assert np.all(counts[found.vertices] >= len(found) - 1), seed
            reached += sizes[0] == bound
        assert reached >= 10

    def test_blocked_rows_match_oracle(self, monkeypatch):
        # Registration votes the TRIM rows a block at a time, reusing one
        # work buffer; 64 entries make blocks of 3 rows of 20, the last 2.
        from tlsreg import invariants
        from tlsreg.geometry import CorrespondenceSet
        from tlsreg.pipeline import _vertex_votes

        monkeypatch.setattr(invariants, "BLOCK_ENTRIES", 64)
        rng = np.random.default_rng(84)
        src = rng.integers(0, 3, size=(20, 3)).astype(float)  # ties and coincident points
        c = CorrespondenceSet(src, 2.0 * src + rng.integers(0, 2, size=(20, 3)), np.full(20, 0.25))
        trims = invariants.build_measurement_graph(c).trims
        counts, mids = _vertex_votes(trims, 1.0)
        s, a = trim_tables(trims)
        assert np.isnan(s).sum() > 20
        whole_counts, whole_mids = row_consensus_votes(s, a, 1.0)
        assert counts.tolist() == whole_counts.tolist()
        assert np.array_equal(mids, whole_mids, equal_nan=True)
        assert_votes_match_oracle(s, a, 1.0)


def vote_graph_trims(n=20, seed=84):
    from tlsreg.geometry import CorrespondenceSet
    from tlsreg.invariants import build_measurement_graph

    rng = np.random.default_rng(seed)
    src = rng.integers(0, 3, size=(n, 3)).astype(float)  # ties and coincident points
    c = CorrespondenceSet(src, 2.0 * src + rng.integers(0, 2, size=(n, 3)), np.full(n, 0.25))
    return build_measurement_graph(c).trims


class TestThreadedVotes:
    @pytest.mark.parametrize(
        "block_entries, workers, n_blocks",
        [
            (64, 1, 7),  # blocks of 3 rows of 20, the last 2
            (60, 2, 7),  # an odd count: one thread votes 4 blocks, the other 3
            (60, 3, 7),
            (200, 3, 2),  # fewer blocks than workers: two threads run
            (10_000, 2, 1),  # one block: the calling thread alone
        ],
    )
    def test_threads_match_the_whole_table(self, monkeypatch, block_entries, workers, n_blocks):
        import threading

        from tlsreg import invariants
        from tlsreg import pipeline as pl

        monkeypatch.setattr(invariants, "BLOCK_ENTRIES", block_entries)
        assert len(invariants.row_blocks(20)) == n_blocks
        started = []
        real_thread = threading.Thread

        def counted_thread(*args, **kwargs):
            started.append(real_thread(*args, **kwargs))
            return started[-1]

        monkeypatch.setattr(pl.threading, "Thread", counted_thread)
        monkeypatch.setattr(pl, "VOTE_THREADS", workers)
        monkeypatch.setattr(pl, "usable_cpu_count", lambda: 4)
        trims = vote_graph_trims()
        # Frequent thread switches interleave the threads' row writes finely.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            counts, mids = pl._vertex_votes(trims, 1.0)
        finally:
            sys.setswitchinterval(interval)
        assert len(started) == min(workers, n_blocks) - 1
        s, a = trim_tables(trims)
        whole_counts, whole_mids = row_consensus_votes(s, a, 1.0)
        assert counts.tobytes() == whole_counts.tobytes()
        assert mids.tobytes() == whole_mids.tobytes()

    def test_default_workers_follow_the_usable_cpus(self, monkeypatch):
        import threading

        from tlsreg import invariants
        from tlsreg import pipeline as pl

        # Blocks of one row of 4: more blocks than any worker count here.
        monkeypatch.setattr(invariants, "BLOCK_ENTRIES", 4)
        started = []
        real_thread = threading.Thread

        def counted_thread(*args, **kwargs):
            started.append(real_thread(*args, **kwargs))
            return started[-1]

        monkeypatch.setattr(pl.threading, "Thread", counted_thread)
        for cpus, threads, workers in [(1, 2, 1), (4, 2, 2), (4, 1, 1), (2, 3, 2)]:
            monkeypatch.setattr(pl, "usable_cpu_count", lambda cpus=cpus: cpus)
            monkeypatch.setattr(pl, "VOTE_THREADS", threads)
            started.clear()
            pl._vertex_votes(vote_graph_trims(4), 1.0)
            assert len(started) + 1 == workers

    @pytest.mark.parametrize("failing", ["worker", "caller"])
    def test_an_exception_is_raised_after_every_thread_stops(self, monkeypatch, failing):
        # A failure in any share reaches the caller, and the other thread
        # has finished its share by then, however long it takes.
        import threading
        import time

        from tlsreg import invariants
        from tlsreg import pipeline as pl

        monkeypatch.setattr(invariants, "BLOCK_ENTRIES", 60)
        real_votes = pl.RowVotes.vote
        done = []

        def votes(*args):
            in_caller = threading.current_thread() is threading.main_thread()
            if in_caller == (failing == "caller"):
                raise RuntimeError("vote failed")
            time.sleep(0.01)
            done.append(threading.current_thread())
            return real_votes(*args)

        monkeypatch.setattr(pl.RowVotes, "vote", votes)
        monkeypatch.setattr(pl, "VOTE_THREADS", 2)
        monkeypatch.setattr(pl, "usable_cpu_count", lambda: 2)
        before = set(threading.enumerate())
        with pytest.raises(RuntimeError, match="vote failed"):
            pl._vertex_votes(vote_graph_trims(), 1.0)
        assert set(threading.enumerate()) == before
        # 7 blocks: the caller's share is 4, the other thread's 3; the share
        # that does not fail is voted to the end.
        assert len(done) == (3 if failing == "caller" else 4)


class TestEquivalenceCondition:
    def test_tight_cluster_plus_far_outlier(self):
        p = ScalarTlsProblem([1.0, 1.0 + 1e-9, 1.0 - 1e-9, 50.0], [1.0] * 4)
        diag = consensus_equivalence_check(p)
        assert diag.equivalent
        tls = solve_scalar_tls(p)
        mc = solve_consensus_max(p)
        assert np.array_equal(tls.inlier_mask, mc.inlier_mask)

    def test_worked_example_not_equivalent(self):
        p = ScalarTlsProblem([0.0, 0.0, 3.0], [2.0, 2.0, 2.0], cbar_sq=1.0)
        diag = consensus_equivalence_check(p)
        assert not diag.equivalent
        tls = solve_scalar_tls(p)
        mc = solve_consensus_max(p)
        assert not np.array_equal(tls.inlier_mask, mc.inlier_mask)

    def test_condition_implies_identical_masks(self):
        found = 0
        trials = 0
        while found < 50 and trials < 3000:
            trials += 1
            K = int(RNG.integers(2, 12))
            p = random_problem(RNG, K)
            diag = consensus_equivalence_check(p)
            if not diag.equivalent:
                continue
            found += 1
            tls = solve_scalar_tls(p)
            mc = solve_consensus_max(p)
            assert np.array_equal(tls.inlier_mask, mc.inlier_mask), (
                p.measurements,
                p.alphas,
                p.cbar_sq,
            )
        assert found == 50


class TestScaling:
    def test_near_linear_growth(self):
        # Each tenfold increase in K from 1e3 to 1e5 may grow the CPU time
        # by at most 30x (near-linear; rules out quadratic sweeps).  This
        # process's CPU time, not the wall clock, so that other processes
        # sharing the cores do not count.
        import time

        def run(K):
            rng = np.random.default_rng(123)
            p = ScalarTlsProblem(
                rng.uniform(0, 10, size=K), rng.uniform(0.05, 0.5, size=K)
            )
            best = np.inf
            for _ in range(3):
                t0 = time.process_time()
                solve_scalar_tls(p)
                best = min(best, time.process_time() - t0)
            return max(best, 1e-4)

        run(1000)  # warm-up
        times = [run(K) for K in (1000, 10_000, 100_000)]
        for smaller, larger in zip(times, times[1:]):
            assert larger / smaller < 30.0
