"""Property checks of the core solvers and of the registration cascade."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import row_vote_oracle, trim_tables, vectorized_subset_oracle
from tlsreg.geometry import (
    CorrespondenceSet,
    TlsConfig,
    geodesic_rotation_error,
    left_product_matrix,
    quat_to_matrix,
    random_unit_quaternion,
    right_product_matrix,
)
from tlsreg import clique as cl
from tlsreg.clique import (
    PrunedGraph,
    candidates,
    max_clique,
    max_clique_of_candidates,
    next_clique,
    prune_by_scale,
)
from tlsreg import invariants
from tlsreg import pipeline as pl
from tlsreg.invariants import build_measurement_graph, degenerate_edge_cutoff, scale_consistent
from tlsreg.pipeline import RegistrationOptions, compute_error_bounds, register
from tlsreg.scalar_tls import ScalarTlsProblem, row_consensus_votes, solve_scalar_tls, tls_cost
from tlsreg.synthetic import SyntheticSpec, generate

finite = st.floats(-50, 50, allow_nan=False, allow_infinity=False)
positive = st.floats(0.05, 5.0, allow_nan=False, allow_infinity=False)


@st.composite
def scalar_problems(draw):
    k = draw(st.integers(1, 12))
    s = draw(st.lists(finite, min_size=k, max_size=k))
    a = draw(st.lists(positive, min_size=k, max_size=k))
    cb = draw(st.floats(0.1, 4.0))
    return ScalarTlsProblem(np.array(s), np.array(a), cbar_sq=cb)


@st.composite
def quaternions(draw):
    q = np.array([draw(st.floats(-1, 1)) for _ in range(4)])
    norm = np.linalg.norm(q)
    if norm < 1e-3:
        q = np.array([0.0, 0.0, 0.0, 1.0])
        norm = 1.0
    return q / norm


class TestScalarTlsProperties:
    @given(scalar_problems())
    @settings(max_examples=150, deadline=None)
    def test_reported_cost_is_recomputable(self, p):
        sol = solve_scalar_tls(p)
        assert abs(tls_cost(p, sol.estimate) - sol.cost) < 1e-10

    @given(scalar_problems())
    @settings(max_examples=150, deadline=None)
    def test_estimate_never_beaten_by_measurements(self, p):
        # The optimum is at least as cheap as centering on any single
        # measurement or on the plain mean (weaker but fast sanity floor).
        sol = solve_scalar_tls(p)
        for candidate in list(p.measurements) + [float(np.mean(p.measurements))]:
            assert sol.cost <= tls_cost(p, candidate) + 1e-9

    @given(scalar_problems())
    @settings(max_examples=100, deadline=None)
    def test_candidate_budget(self, p):
        sol = solve_scalar_tls(p)
        assert sol.n_candidates <= 2 * p.measurements.size - 1


class TestQuaternionProperties:
    @given(quaternions())
    @settings(max_examples=100, deadline=None)
    def test_product_matrices_are_orthogonal(self, q):
        for M in (left_product_matrix(q), right_product_matrix(q)):
            assert np.allclose(M.T @ M, np.eye(4), atol=1e-9)

    @given(quaternions(), st.lists(st.floats(-10, 10), min_size=3, max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_rotation_preserves_norm(self, q, v):
        v = np.array(v)
        assert np.isclose(
            np.linalg.norm(quat_to_matrix(q) @ v), np.linalg.norm(v), atol=1e-9
        )

    @given(quaternions())
    @settings(max_examples=100, deadline=None)
    def test_double_cover(self, q):
        assert np.allclose(quat_to_matrix(q), quat_to_matrix(-q), atol=1e-12)


def make_instance(seed, known_scale):
    """An N = 80, 50%-outlier instance: correspondences, ground truth,
    inlier labels and the matching options."""
    c, gt, labels = generate(
        SyntheticSpec(
            n_points=80, sigma=0.01, outlier_rate=0.5, seed=seed, known_scale=known_scale
        )
    )
    return c, gt, labels, RegistrationOptions(known_scale=1.0 if known_scale else None)


def with_copies(c, rows, shift):
    """c with the given rows appended again, each copy's source point moved
    by shift along x."""
    return CorrespondenceSet(
        np.concatenate([c.source, c.source[rows] + [shift, 0.0, 0.0]]),
        np.concatenate([c.target, c.target[rows]]),
        np.concatenate([c.noise_bounds, c.noise_bounds[rows]]),
    )


def assert_same_answer_in_units(c, opts, res, units):
    """c with its points and noise bounds in other units registers to res's
    inliers, scale and rotation, and to its translation in the new units;
    its error bounds are res's, the lengths among them in the new units."""
    scaled = CorrespondenceSet(units * c.source, units * c.target, units * c.noise_bounds)
    got = register(scaled, TlsConfig(), opts)

    assert np.array_equal(got.inlier_indices, res.inlier_indices)
    assert abs(got.transform.scale - res.transform.scale) <= 1e-9
    assert np.abs(got.transform.matrix - res.transform.matrix).max() <= 1e-9
    t_scaled = units * res.transform.translation
    assert np.abs(got.transform.translation - t_scaled).max() <= 1e-9 * units

    want, bounds = compute_error_bounds(res, c), compute_error_bounds(got, scaled)
    for field in ("eta_s", "eta_R_frobenius"):
        assert getattr(bounds, field) == pytest.approx(getattr(want, field), rel=1e-9), field
    for field in ("scale", "rotation"):
        got_bound, want_bound = getattr(bounds.tighter, field), getattr(want.tighter, field)
        assert got_bound == pytest.approx(want_bound, rel=1e-9), field
    assert bounds.eta_t == pytest.approx(units * want.eta_t, rel=1e-9)
    t_bound = units * want.tighter.translation
    assert bounds.tighter.translation == pytest.approx(t_bound, rel=1e-9)


def register_instance(seed, known_scale):
    """An N = 80, 50%-outlier instance and its registration."""
    c, _, _, opts = make_instance(seed, known_scale)
    return c, opts, register(c, TlsConfig(), opts)


class TestRegisterProperties:
    # Fixed seeds: each case runs the whole cascade twice.
    @pytest.mark.parametrize("known_scale", [True, False])
    @pytest.mark.parametrize("seed", [15_000, 15_001, 15_002])
    def test_rigid_motion_of_both_clouds(self, seed, known_scale):
        # Moving the source by (R1, t1) and the target by (R2, t2) keeps the
        # inliers and maps the pose (s, R, t) to (s, R2 R R1^T, R2 t + t2 -
        # s R2 R R1^T t1).
        c, opts, res = register_instance(seed, known_scale)
        rng = np.random.default_rng(seed)
        R1, R2 = (quat_to_matrix(random_unit_quaternion(rng)) for _ in range(2))
        t1, t2 = rng.uniform(-10, 10, size=(2, 3))
        moved = CorrespondenceSet(c.source @ R1.T + t1, c.target @ R2.T + t2, c.noise_bounds)
        got = register(moved, TlsConfig(), opts)

        assert np.array_equal(got.inlier_indices, res.inlier_indices)
        s, R, t = res.transform.scale, res.transform.matrix, res.transform.translation
        R_moved = R2 @ R @ R1.T
        assert abs(got.transform.scale - s) <= 1e-9
        assert np.abs(got.transform.matrix - R_moved).max() <= 1e-9
        t_moved = R2 @ t + t2 - s * R_moved @ t1
        assert np.abs(got.transform.translation - t_moved).max() <= 1e-9

    @pytest.mark.parametrize("known_scale", [True, False])
    @pytest.mark.parametrize(
        "units",
        [1000.0, 1 / 25.4, 1e-8, 1e-9, 1e-12, 1e-100, 1e-140, 1e-150, 1e-155, 1e100, 1e150],
    )
    def test_change_of_units(self, units, known_scale):
        c, opts, res = register_instance(15_003, known_scale)
        assert_same_answer_in_units(c, opts, res, units)

    @pytest.mark.parametrize("seed, known_scale", [(3, True), (5, False)])
    def test_change_of_units_in_the_translation_solve(self, seed, known_scale):
        # N = 300, 80% outliers: solved in the caller's units, the
        # translation's weights 1/beta^2 reached 3e302 at 1e-150 on these
        # two, and their products overflowed.
        c, _, _ = generate(
            SyntheticSpec(n_points=300, outlier_rate=0.8, seed=seed, known_scale=known_scale)
        )
        opts = RegistrationOptions(known_scale=1.0 if known_scale else None)
        assert_same_answer_in_units(c, opts, register(c, TlsConfig(), opts), 1e-150)

    @pytest.mark.parametrize("known_scale", [True, False])
    @pytest.mark.parametrize("seed", [15_004, 15_005, 15_006])
    def test_permuting_the_correspondences(self, seed, known_scale):
        # Listing the correspondences in another order gives the same
        # inliers, mapped through the permutation, and the same pose.
        c, opts, res = register_instance(seed, known_scale)
        perm = np.random.default_rng(seed).permutation(len(c))
        shuffled = CorrespondenceSet(c.source[perm], c.target[perm], c.noise_bounds[perm])
        got = register(shuffled, TlsConfig(), opts)

        assert np.array_equal(np.sort(perm[got.inlier_indices]), res.inlier_indices)
        assert abs(got.transform.scale - res.transform.scale) <= 1e-12
        assert np.abs(got.transform.matrix - res.transform.matrix).max() <= 1e-12
        assert np.abs(got.transform.translation - res.transform.translation).max() <= 1e-12

    @pytest.mark.parametrize("known_scale", [True, False])
    @pytest.mark.parametrize("seed", [15_007, 15_008, 15_009])
    def test_duplicated_inlier_rows(self, seed, known_scale):
        # A copy of a row coincides with it, or its source point lies half
        # the degenerate-edge cutoff away: either way their TRIM is missing
        # (NaN) and no edge joins them, so the clique never holds both
        # copies, and the pose stays right.
        c, gt, labels, opts = make_instance(seed, known_scale)
        rows = np.random.default_rng(seed).choice(np.flatnonzero(labels), 5, replace=False)
        copies = np.arange(len(c), len(c) + rows.size)
        for shift in (0.0, 0.5 * degenerate_edge_cutoff(c)):
            res = register(with_copies(c, rows, shift), TlsConfig(), opts)

            members = set(res.clique.vertices.tolist())
            assert not any(r in members and d in members for r, d in zip(rows, copies))
            rot = geodesic_rotation_error(res.transform.matrix, gt.rotation.to_matrix())
            assert np.degrees(rot) < 3.0
            assert np.linalg.norm(res.transform.translation - gt.translation) < 0.1


class TestPrunedCliqueMeasurements:
    # The clique's scale re-vote and the error bounds take every TRIM that
    # pairs_within returns for a clique unchecked.  That holds only if
    # pruning and pairs_within compute each ratio alike: a clique edge
    # survived pruning, so its TRIM agrees with the scale and its pair is
    # not degenerate.  Besides the truth and the searched hypotheses, the
    # scales include ones that put an inlier TRIM on the agreement boundary
    # (to within a rounding), where a ratio computed differently by one
    # rounding would disagree.
    @pytest.mark.parametrize("cbar_sq", [1.0, 4.0])
    @pytest.mark.parametrize("known_scale", [True, False])
    @pytest.mark.parametrize("seed", [15_010, 15_011])
    def test_every_trim_inside_a_pruned_clique_agrees(self, seed, known_scale, cbar_sq):
        c, gt, labels, opts = make_instance(seed, known_scale)
        rows = np.random.default_rng(seed).choice(np.flatnonzero(labels), 5, replace=False)
        shifts = (0.0, 0.5 * degenerate_edge_cutoff(c))
        for cs in [c, *(with_copies(c, rows, shift) for shift in shifts)]:
            graph = build_measurement_graph(cs)
            searched = register(cs, TlsConfig(cbar_sq), opts).trace.scale_hypotheses
            inliers = graph.pairs_within(np.flatnonzero(labels))
            tol = np.sqrt(cbar_sq) * inliers.alpha[:4]
            boundary = np.concatenate([inliers.s_meas[:4] - tol, inliers.s_meas[:4] + tol])
            for s in {gt.scale, *(scale for scale, _ in searched), *boundary.tolist()}:
                found = max_clique(prune_by_scale(graph, s, cbar_sq))
                within = graph.pairs_within(found.vertices)
                m = len(found)
                assert m >= 3 and len(within.pairs) == m * (m - 1) // 2
                assert scale_consistent(within.s_meas, within.alpha, s, cbar_sq).all()
                # The one gather has the bits of the TRIMs pruning read, of
                # the endpoint differences and of np.linalg.norm.
                i, j = within.pairs.T
                s_at, alpha_at = graph.trims.at(i, j)
                assert np.array_equal(within.s_meas, s_at)
                assert np.array_equal(within.alpha, alpha_at)
                assert np.array_equal(within.a_bars, cs.source[j] - cs.source[i])
                assert np.array_equal(within.b_bars, cs.target[j] - cs.target[i])
                assert np.array_equal(within.a_norms, np.linalg.norm(within.a_bars, axis=1))
                assert np.all(within.a_norms > degenerate_edge_cutoff(cs))


@st.composite
def bound_instances(draw):
    """Correspondences, a scale and cbar_sq for the pair bound.

    Inliers lie at the scale under non-uniform noise bounds, among outliers
    and coincident source points.  Units run from 1e-6 to 1e6, optionally
    1e6 away from the origin, or the points spread over 1e151-1e153 near
    1e154, where the bound's terms would overflow.  In a symmetric instance
    rows 2k and 2k + 1 mirror each other through the centroid, which makes
    the bound on their pair tight.  When drawn, the scale moves to pair
    (0, 1)'s agreement boundary, give or take one ulp.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    symmetric = draw(st.booleans())
    n = draw(st.integers(1, 20)) * 2 if symmetric else draw(st.integers(2, 40))
    huge = draw(st.booleans())
    unit = 10.0 ** draw(st.floats(151, 153) if huge else st.floats(-6, 6))
    offset = 1e154 if huge else draw(st.sampled_from([0.0, 1e6]))
    s_hat = draw(st.floats(0.01, 100))
    cbar_sq = draw(st.sampled_from([1.0, 4.0, 9.0]))
    src = unit * rng.uniform(-1, 1, size=(n, 3))
    betas = unit * rng.uniform(1e-3, 0.1, size=n)
    noise = rng.normal(size=(n, 3))
    noise *= (betas * rng.uniform(0, 1, size=n) / np.linalg.norm(noise, axis=1))[:, None]
    outliers = rng.random(n) < draw(st.floats(0, 1))
    wrong = s_hat * unit * rng.uniform(-1, 1, size=(n, 3))
    if symmetric:
        for rows in (src, noise, wrong):
            rows[1::2] = -rows[::2]
        outliers[1::2], betas[1::2] = outliers[::2], betas[::2]
    else:
        src[2:][rng.random(n - 2) < 0.2] = src[-1]  # coincident source points
    dst = s_hat * src @ quat_to_matrix(random_unit_quaternion(rng)).T + noise
    dst[outliers] = wrong[outliers]
    c = CorrespondenceSet(src + offset, dst + offset, betas)
    if draw(st.booleans()):
        with np.errstate(over="ignore", invalid="ignore"):
            s_pq, alpha_pq = build_measurement_graph(c).trims.at(0, 1)
            tol = np.sqrt(cbar_sq) * alpha_pq
            boundary = s_pq + tol if s_pq - tol <= 0 or draw(st.booleans()) else s_pq - tol
        if np.isfinite(boundary):
            toward = draw(st.sampled_from([0.0, boundary, np.inf]))
            s_hat = float(np.nextafter(boundary, toward))
    return c, s_hat, cbar_sq


def agreeing_pairs(graph, s_hat, cbar_sq):
    """Every pair i < j whose TRIM agrees with s_hat, by the exact test."""
    i, j = np.triu_indices(len(graph.tims.source), k=1)
    agree = scale_consistent(*graph.trims.at(i, j), s_hat, cbar_sq)
    return np.stack([i[agree], j[agree]])


class TestScaleBound:
    # Pruning runs the exact TRIM test only on the pairs a GEMM bound keeps.
    # The bound must keep every pair the exact test accepts, rounding
    # included, so the pruned graph is the one the exact test over all
    # pairs gives.
    @given(bound_instances(), st.sampled_from([16, 64, invariants.BLOCK_ENTRIES]), st.data())
    @settings(max_examples=300, deadline=None)
    def test_the_bound_keeps_every_agreeing_pair(self, instance, block_entries, data):
        c, s_hat, cbar_sq = instance
        n = len(c)
        with np.errstate(over="ignore", invalid="ignore"):
            graph = build_measurement_graph(c)
            exact = agreeing_pairs(graph, s_hat, cbar_sq)
            fd, cd, fh, ch = invariants._bound_features(graph.tims, s_hat, cbar_sq)
            bounded = np.abs(fd @ cd) <= fh @ ch
            assert bounded[exact[0], exact[1]].all()

            with mock.patch.object(invariants, "BLOCK_ENTRIES", block_entries):
                assert np.array_equal(
                    graph.trims.degrees(s_hat, cbar_sq), np.bincount(exact.ravel(), minlength=n)
                )
                expected = np.zeros((n, n), dtype=bool)
                expected[exact[0], exact[1]] = expected[exact[1], exact[0]] = True
                assert np.array_equal(prune_by_scale(graph, s_hat, cbar_sq).adj, expected)
                picked = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
                vertices = np.flatnonzero(picked)
                among = prune_by_scale(graph, s_hat, cbar_sq, vertices)
                assert np.array_equal(among.adj, expected[np.ix_(vertices, vertices)])

    @pytest.mark.parametrize("outlier_rate", [0.0, 0.99])
    def test_a_large_instance_matches_the_exact_test(self, outlier_rate):
        # N = 1000: each block's GEMM is large enough for a multi-threaded
        # BLAS to split.  The scale sits one ulp inside pair (0, 1)'s
        # agreement boundary, so that pair agrees by one rounding.
        c, _, _ = generate(
            SyntheticSpec(n_points=1000, outlier_rate=outlier_rate, seed=15_020, known_scale=True)
        )
        graph = build_measurement_graph(c)
        s_01, alpha_01 = graph.trims.at(0, 1)
        s_hat = float(np.nextafter(s_01 + alpha_01, 0.0))
        exact = agreeing_pairs(graph, s_hat, 1.0)
        assert exact[:, 0].tolist() == [0, 1]
        assert np.array_equal(
            graph.trims.degrees(s_hat, 1.0), np.bincount(exact.ravel(), minlength=1000)
        )

    def test_one_pass_mixes_rectangles_and_gathered_batches(self):
        # Rows 0-199 are inliers, rows 200-299 outliers.  A block of inlier
        # rows keeps over a third of its rectangle, so the exact test runs on
        # the whole rectangle; a block of outlier rows keeps a few pairs,
        # which wait for one gathered test with the next blocks' pairs, until
        # BLOCK_ENTRIES of them wait or the last block is bounded.
        rng = np.random.default_rng(24_000)
        n, scale = 300, 1.7
        src = rng.uniform(-1, 1, size=(n, 3))
        betas = np.full(n, 0.01)
        noise = rng.normal(size=(n, 3))
        noise *= 0.005 / np.linalg.norm(noise, axis=1)[:, None]
        dst = scale * src @ quat_to_matrix(random_unit_quaternion(rng)).T + noise
        dst[200:] = scale * rng.uniform(-1, 1, size=(100, 3))
        graph = build_measurement_graph(CorrespondenceSet(src, dst, betas))
        tested = []

        def recording(s_meas, *args):
            tested.append(np.ndim(s_meas))
            return scale_consistent(s_meas, *args)

        with mock.patch.object(invariants, "BLOCK_ENTRIES", 600), \
                mock.patch.object(invariants, "scale_consistent", recording):
            counts = graph.trims.degrees(scale, 1.0)
            n_blocks = len(invariants.row_blocks(n))
        exact = agreeing_pairs(graph, scale, 1.0)
        assert np.array_equal(counts, np.bincount(exact.ravel(), minlength=n))
        rectangles, batches = tested.count(2), tested.count(1)
        assert rectangles > 0
        assert 1 < batches < n_blocks - rectangles


def vote_like_counts(rng, adj, max_slack):
    """Counts at or above each vertex's degree, as a vertex's scale vote is
    at any scale."""
    return adj.sum(axis=1) + rng.integers(0, max_slack + 1, size=adj.shape[0])


@st.composite
def graphs_with_planted_ties(draw):
    """A random graph with two or three planted cliques of one size, which
    may overlap, and vote-like counts."""
    n = draw(st.integers(4, 30))
    size = draw(st.integers(2, max(2, n // 2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    adj = np.triu(rng.uniform(size=(n, n)) < draw(st.floats(0.0, 0.5)), 1)
    adj |= adj.T
    for _ in range(draw(st.integers(2, 3))):
        members = rng.choice(n, size, replace=False)
        adj[np.ix_(members, members)] = True
    np.fill_diagonal(adj, False)
    return adj, vote_like_counts(rng, adj, draw(st.integers(0, 3)))


@st.composite
def disjoint_tied_cliques(draw):
    """Two or three disjoint cliques of one size, and other vertices too
    sparse to reach it, under shuffled ids: every search must branch."""
    size = draw(st.integers(3, 7))
    n_cliques = draw(st.integers(2, 3))
    n_rest = draw(st.integers(0, 12))
    n = n_cliques * size + n_rest
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    adj = np.zeros((n, n), dtype=bool)
    for c in range(n_cliques):
        adj[c * size : (c + 1) * size, c * size : (c + 1) * size] = True
    rest = np.triu(rng.uniform(size=(n_rest, n_rest)) < 0.2, 1)
    adj[n - n_rest :, n - n_rest :] = rest | rest.T
    np.fill_diagonal(adj, False)
    assume(adj[n - n_rest :].sum(axis=1).max(initial=0) < size - 1)
    order = rng.permutation(n)
    adj = adj[np.ix_(order, order)]
    return adj, vote_like_counts(rng, adj, draw(st.integers(0, 3)))


def subgraph_search(adj, deadline=math.inf):
    """search(vertices) for max_clique_of_candidates over a fixed graph."""

    def search(vertices):
        graph = PrunedGraph(adj[np.ix_(vertices, vertices)], vertices)
        return graph, max_clique(graph, deadline)

    return search


def vote_bound(counts):
    """The largest m with m counts >= m - 1, as the scale votes give it."""
    return int(np.count_nonzero(-np.sort(-counts) >= np.arange(counts.size)))


class TestCandidateCliques:
    # Registration searches only the vertices whose vote allows a clique of
    # k: V_k, then V_m once if the clique found has m < k, and the retry's
    # next clique in V_(m-1).  On any graph whose degrees the counts bound,
    # that gives what the whole graph gives, ties included, for any k.
    @given(graphs_with_planted_ties(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_candidates_give_the_whole_graph_cliques(self, graph, data):
        adj, counts = graph
        self.check_candidate_search(adj, counts, data)

    @given(graphs_with_planted_ties(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_degrees_give_the_whole_graph_cliques(self, graph, data):
        # At known scale the counts are the pruned graph's own degrees, and
        # k is their size bound.
        adj, _ = graph
        degrees = adj.sum(axis=1)
        assert cl.size_bound(degrees) == vote_bound(degrees)
        self.check_candidate_search(adj, degrees, data)

    @staticmethod
    def check_candidate_search(adj, counts, data):
        whole = max_clique(PrunedGraph(adj))
        m = len(whole)
        # k = m + 1 finds m = k - 1 in V_k, where raising k would loop.
        k = data.draw(
            st.one_of(st.sampled_from([vote_bound(counts), m + 1]), st.integers(0, len(adj) + 1))
        )
        _, found = max_clique_of_candidates(subgraph_search(adj), counts, k)
        assert found.vertices.tolist() == whole.vertices.tolist()
        assert found.is_certified_maximum and whole.is_certified_maximum
        wider = candidates(counts, m - 1)
        retry = next_clique(PrunedGraph(adj[np.ix_(wider, wider)], wider), found)
        assert retry.vertices.tolist() == next_clique(PrunedGraph(adj), whole).vertices.tolist()
        assert retry.is_certified_maximum

    @given(disjoint_tied_cliques(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_a_cut_budget_leaves_both_incomplete(self, graph, data):
        # With no time, a search that has to branch is cut at its first
        # node; the tie makes the whole graph's search and the candidates'
        # final one both branch.
        adj, counts = graph
        k = data.draw(st.one_of(st.just(vote_bound(counts)), st.integers(0, len(adj) + 1)))
        with mock.patch.object(cl, "_DEADLINE_CHECK_INTERVAL", 1):
            whole = max_clique(PrunedGraph(adj), 0.0)
            _, found = max_clique_of_candidates(subgraph_search(adj, 0.0), counts, k)
        assert not whole.is_certified_maximum
        assert not found.is_certified_maximum


@st.composite
def vote_instances(draw):
    """Correspondences whose TRIM rows tie: integer points (equal ratios
    and touching intervals) or noisy uniform ones, some rows duplicated,
    some source points coincident (degenerate pairs, missing TRIMs), at a
    unit of 1e-150, 1 or 1e150."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(3, 30))
    if draw(st.booleans()):
        src = rng.integers(0, 3, size=(n, 3)).astype(float)
        dst = 2.0 * src + rng.integers(0, 2, size=(n, 3))
    else:
        src = rng.uniform(-1, 1, size=(n, 3))
        dst = 1.5 * src + rng.normal(scale=0.05, size=(n, 3))
    betas = rng.choice([0.05, 0.25], size=n)
    copies = draw(st.integers(0, n // 3))
    picked = rng.integers(0, n, size=copies)
    src[:copies], dst[:copies], betas[:copies] = src[picked], dst[picked], betas[picked]
    src[rng.random(n) < draw(st.sampled_from([0.0, 0.3]))] = src[-1]
    unit = draw(st.sampled_from([1e-150, 1.0, 1e150]))
    return CorrespondenceSet(unit * src, unit * dst, unit * betas)


class TestVoteBytes:
    @given(
        vote_instances(),
        st.sampled_from([1, 2]),
        st.sampled_from([60, invariants.BLOCK_ENTRIES]),
        st.sampled_from([1.0, 4.0]),
    )
    @settings(max_examples=150, deadline=None)
    def test_votes_match_the_whole_table_and_the_oracles(self, c, threads, block_entries, cbar_sq):
        # Blocks of 60 entries are 2 to 20 rows, several a thread; the
        # default is one block.  The usable CPUs cap the threads, so on one
        # CPU both thread counts vote on one.
        trims = build_measurement_graph(c).trims
        with mock.patch.object(invariants, "BLOCK_ENTRIES", block_entries), \
                mock.patch.object(pl, "VOTE_THREADS", threads):
            counts, mids = pl._vertex_votes(trims, cbar_sq)
        s, a = trim_tables(trims)
        whole_counts, whole_mids = row_consensus_votes(s, a, cbar_sq)
        assert counts.tobytes() == whole_counts.tobytes()
        assert mids.tobytes() == whole_mids.tobytes()
        for r, (count, mid) in enumerate(zip(counts, mids)):
            oracle_count, oracle_mid = row_vote_oracle(s[r], a[r], cbar_sq)
            assert count == oracle_count
            assert mid.tobytes() == np.float64(oracle_mid).tobytes()
            ok = ~np.isnan(s[r])
            if 0 < np.count_nonzero(ok) <= 12:
                assert count == vectorized_subset_oracle(s[r, ok], a[r, ok], cbar_sq)[1]
