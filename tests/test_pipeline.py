"""Full cascade: recovery, translation solver, and a-posteriori bounds."""

import importlib
import itertools
import math
import time
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from helpers import answer_record
from tlsreg.geometry import (
    CorrespondenceSet,
    TlsConfig,
    geodesic_rotation_error,
    quat_to_matrix,
    random_unit_quaternion,
)
from tlsreg.invariants import build_measurement_graph
from tlsreg.pipeline import (
    InsufficientInliersError,
    RegistrationOptions,
    RegistrationTrace,
    _StageClock,
    _base_point_tuples,
    _min_u_singular_value,
    compute_error_bounds,
    estimate_translation,
    register,
)
from tlsreg.scalar_tls import ScalarTlsProblem, solve_scalar_tls
from tlsreg.synthetic import SyntheticSpec, generate


def synth(rng, n, outlier_rate=0.0, sigma=0.0, scale=None, beta=None, tmax=1.0):
    src = rng.uniform(0, 1, size=(n, 3))
    s = scale if scale is not None else float(rng.uniform(1, 5))
    q = random_unit_quaternion(rng)
    R = quat_to_matrix(q)
    tdir = rng.normal(size=3)
    tdir /= np.linalg.norm(tdir)
    t = tdir * rng.uniform(0, tmax)
    if beta is None:
        beta = max(5.54 * sigma, 1e-2)
    dst = s * src @ R.T + t
    if sigma > 0:
        for i in range(n):
            while True:
                e = rng.normal(0, sigma, size=3)
                if np.linalg.norm(e) <= beta:
                    break
            dst[i] += e
    n_out = round(outlier_rate * n)
    out = rng.choice(n, n_out, replace=False) if n_out else np.empty(0, dtype=int)
    d = rng.normal(size=(max(n_out, 1), 3))
    d /= np.linalg.norm(d, axis=1)[:, None]
    for row, i in enumerate(out):
        dst[i] = d[row] * 5 * rng.uniform(0, 1) ** (1 / 3)
    labels = np.ones(n, dtype=bool)
    labels[out] = False
    return CorrespondenceSet(src, dst, np.full(n, beta)), s, R, t, labels


class TestRegister:
    def test_noiseless_exact_recovery(self):
        rng = np.random.default_rng(0)
        c, s, R, t, _ = synth(rng, 40)
        res = register(c)
        assert abs(res.transform.scale - s) < 1e-9
        assert geodesic_rotation_error(res.transform.matrix, R) < 1e-8
        assert np.linalg.norm(res.transform.translation - t) < 1e-8

    def test_known_scale_ninety_percent_outliers(self):
        rng = np.random.default_rng(4)
        c, s, R, t, _ = synth(rng, 100, outlier_rate=0.9, sigma=0.01, scale=1.0)
        res = register(c, TlsConfig(), RegistrationOptions(known_scale=1.0))
        assert math.degrees(geodesic_rotation_error(res.transform.matrix, R)) < 2.0
        assert np.linalg.norm(res.transform.translation - t) < 5 * 0.0554

    def test_certified_pipeline_noiseless(self):
        rng = np.random.default_rng(7)
        c, s, R, t, _ = synth(rng, 30, outlier_rate=0.4)
        res = register(c, TlsConfig(), RegistrationOptions(certify_rotation=True))
        assert res.certificate is not None and res.certificate.certified
        assert abs(res.transform.scale - s) < 1e-9

    def test_insufficient_correspondences(self):
        src = np.zeros((2, 3))
        c = CorrespondenceSet(src, src, np.full(2, 0.1))
        with pytest.raises(InsufficientInliersError):
            register(c)

    def test_all_outliers_raises(self):
        rng = np.random.default_rng(10)
        src = rng.uniform(0, 1, size=(12, 3))
        dst = rng.uniform(-5, 5, size=(12, 3))
        c = CorrespondenceSet(src, dst, np.full(12, 1e-4))
        with pytest.raises(InsufficientInliersError):
            register(c, TlsConfig(), RegistrationOptions(known_scale=1.0))

    def test_deterministic_reruns(self):
        rng = np.random.default_rng(5)
        c, *_ = synth(rng, 60, outlier_rate=0.5, sigma=0.01)
        r1 = register(c)
        r2 = register(c)
        assert r1.transform.scale == r2.transform.scale
        assert np.array_equal(
            r1.transform.rotation.as_array(), r2.transform.rotation.as_array()
        )
        assert np.array_equal(r1.transform.translation, r2.transform.translation)
        assert np.array_equal(r1.inlier_indices, r2.inlier_indices)

    def test_inlier_indices_subset_of_clique(self):
        rng = np.random.default_rng(6)
        c, *_ = synth(rng, 50, outlier_rate=0.6, sigma=0.01, scale=1.0)
        res = register(c, TlsConfig(), RegistrationOptions(known_scale=1.0))
        assert set(res.inlier_indices.tolist()) <= set(res.clique.vertices.tolist())

    def test_trace_times_fit_in_the_call(self):
        # The stage times are disjoint spans of the call; with no
        # certificate asked for, nothing retries.
        import time

        c, *_ = synth(np.random.default_rng(8), 20)
        t0 = time.perf_counter()
        res = register(c)
        wall = time.perf_counter() - t0
        times = [getattr(res.trace, f.name) for f in fields(RegistrationTrace)
                 if f.name.endswith("_s")]
        assert len(times) == 9 and min(times) >= 0.0 and res.trace.vote_s > 0.0
        assert sum(times) <= wall
        assert res.trace.retried is False and res.trace.retry_s == 0.0
        assert res.trace.certificate_verdict is None and res.trace.certify_skipped_k is None

    def test_scale_timing_includes_clique_re_vote(self, monkeypatch):
        import time

        import tlsreg.pipeline as pl

        refine = pl._refine_scale_on_clique

        def slow_refine(*args):
            time.sleep(0.05)
            return refine(*args)

        monkeypatch.setattr(pl, "_refine_scale_on_clique", slow_refine)
        c, *_ = synth(np.random.default_rng(8), 20)
        assert register(c).trace.revote_s >= 0.05

    def test_rejected_certificate_triggers_next_clique_retry(self, monkeypatch):
        import time

        import tlsreg.pipeline as pl
        from tlsreg.certifier import Certificate, Verdict

        rng = np.random.default_rng(15)
        c, *_ = synth(rng, 30, outlier_rate=0.4, sigma=0.01)
        calls = []

        def always_reject(data, cand, opts=None):
            calls.append(data.K)
            return Certificate(
                eta=1.0,
                iterations_used=200,
                verdict=Verdict.BUDGET_EXHAUSTED,
                min_eigenvalue_trace=(),
                mu_hat=cand.mu_hat,
                stationarity_residual=0.0,
            )

        monkeypatch.setattr(pl, "certify", always_reject)
        t0 = time.perf_counter()
        res = register(c, TlsConfig(), RegistrationOptions(certify_rotation=True))
        wall = time.perf_counter() - t0
        # rejection of the first clique's rotation forces one retry on the
        # next-largest clique
        assert len(calls) == 2
        assert res.certificate is not None and not res.certificate.certified
        assert res.trace.retried is True and res.trace.retry_s > 0.0
        assert res.trace.certificate_verdict == "budget_exhausted"
        # The retry's prune and search count in prune_s and clique_s, its
        # clique's measurements in retry_s: the spans stay disjoint.
        times = [getattr(res.trace, f.name) for f in fields(RegistrationTrace)
                 if f.name.endswith("_s")]
        assert len(times) == 9 and min(times) >= 0.0 and sum(times) <= wall

    @pytest.mark.parametrize("retry", [False, True])
    def test_clique_trims_computed_once_per_clique(self, monkeypatch, retry):
        # The re-vote and the rotation input share one trims_within result;
        # only the retry's new clique computes its own.
        import tlsreg.pipeline as pl
        from tlsreg.certifier import Certificate, Verdict
        from tlsreg.invariants import MeasurementGraph

        calls = []
        trims_within = MeasurementGraph.trims_within

        def counted(graph, vertices):
            calls.append(np.unique(vertices).tolist())
            return trims_within(graph, vertices)

        def always_reject(data, cand, opts=None):
            return Certificate(1.0, 200, Verdict.BUDGET_EXHAUSTED, (), cand.mu_hat, 0.0)

        monkeypatch.setattr(MeasurementGraph, "trims_within", counted)
        if retry:
            monkeypatch.setattr(pl, "certify", always_reject)
        rng = np.random.default_rng(15)
        c, *_ = synth(rng, 30, outlier_rate=0.4, sigma=0.01)
        res = register(c, TlsConfig(), RegistrationOptions(certify_rotation=retry))
        assert len(calls) == (2 if retry else 1)
        assert calls[-1] == res.clique.vertices.tolist()
        if retry:
            assert calls[0] != calls[1]

    def test_retry_searches_the_vertices_that_allow_one_fewer(self, monkeypatch):
        # The first clique reaches the votes' bound m, so its search covered
        # V_m only; the next clique may have m - 1 vertices, so the retry
        # searches V_(m-1).  One vertex's count is raised to m - 2 (a count
        # only bounds a degree from above), so the two sets differ.
        import tlsreg.clique as cl
        import tlsreg.pipeline as pl
        from tlsreg.certifier import Certificate, Verdict

        real_hypotheses, real_next = pl._scale_hypotheses, cl.next_clique
        votes, retried = [], []

        def raised_count(graph, cbar_sq):
            scales, counts = real_hypotheses(graph, cbar_sq)
            bound = cl.size_bound(counts)
            counts[np.argmin(counts)] = bound - 2
            votes.append((bound, counts))
            return scales, counts

        def recording_next(graph, first, deadline):
            retried.append(graph)
            return real_next(graph, first, deadline)

        monkeypatch.setattr(pl, "_scale_hypotheses", raised_count)
        monkeypatch.setattr(cl, "next_clique", recording_next)
        monkeypatch.setattr(
            pl, "certify", lambda data, cand, opts=None: Certificate(
                1.0, 200, Verdict.BUDGET_EXHAUSTED, (), cand.mu_hat, 0.0
            )
        )
        rng = np.random.default_rng(15)
        c, *_ = synth(rng, 30, outlier_rate=0.4, sigma=0.01)
        res = register(c, TlsConfig(), RegistrationOptions(certify_rotation=True))
        (bound, counts), = votes
        assert res.trace.scale_hypotheses[0][1] == bound  # one search, over V_m
        assert res.trace.edges_kept == bound * (bound - 1) // 2
        assert np.count_nonzero(counts >= bound - 2) > np.count_nonzero(counts >= bound - 1)
        assert retried[0].vertices.tolist() == np.flatnonzero(counts >= bound - 2).tolist()
        assert res.trace.retried

    def test_known_scale_searches_the_vertices_its_degrees_allow(self, monkeypatch):
        # At known scale the pruned graph's degrees are the counts.  Ten
        # noise-free inliers form the clique, and 20 outliers away from the
        # cloud fall outside V_m.  Vertex 10 is an inlier moved 0.02 along
        # its directions to inliers 0 and 1, whose bounds, like its own, are
        # tight enough that both pairs disagree: its degree is m - 2, so only
        # the retry's V_(m-1) holds it.
        import tlsreg.clique as cl
        import tlsreg.pipeline as pl
        from tlsreg.certifier import Certificate, Verdict

        real_next, retried = cl.next_clique, []
        real_prune, pruned = pl.prune_by_scale, []

        def recording_next(graph, first, deadline):
            retried.append(graph)
            return real_next(graph, first, deadline)

        def recording_prune(graph, s_hat, cbar_sq, vertices=None):
            pruned.append(vertices)
            return real_prune(graph, s_hat, cbar_sq, vertices)

        monkeypatch.setattr(cl, "next_clique", recording_next)
        monkeypatch.setattr(pl, "prune_by_scale", recording_prune)
        monkeypatch.setattr(
            pl, "certify", lambda data, cand, opts=None: Certificate(
                1.0, 200, Verdict.BUDGET_EXHAUSTED, (), cand.mu_hat, 0.0
            )
        )
        rng = np.random.default_rng(23)
        R, t = quat_to_matrix(random_unit_quaternion(rng)), rng.uniform(-1, 1, 3)
        src = rng.uniform(0, 1, size=(31, 3))
        dst = src @ R.T + t
        toward = (dst[[0, 1]] - dst[10]) / np.linalg.norm(dst[[0, 1]] - dst[10], axis=1)[:, None]
        push = toward.sum(axis=0)
        dst[10] -= 0.02 * push / np.linalg.norm(push)
        dst[11:] = rng.uniform(5, 9, size=(20, 3))
        betas = np.full(31, 0.05)
        betas[[0, 1, 10]] = 0.001
        c = CorrespondenceSet(src, dst, betas)
        res = register(c, TlsConfig(), RegistrationOptions(known_scale=1.0, certify_rotation=True))

        degrees = real_prune(res.graph, 1.0, 1.0).adj.sum(axis=1)
        m = res.trace.scale_hypotheses[0][1]
        assert m == 10 and degrees[10] == m - 2
        assert np.count_nonzero(degrees >= m - 1) == m  # V_m: the inliers
        assert res.trace.edges_kept == m * (m - 1) // 2
        wider = np.flatnonzero(degrees >= m - 2)
        assert wider.tolist() == list(range(11))
        assert len(retried) == 1 and retried[0].vertices.tolist() == wider.tolist()
        assert res.trace.retried
        # Each graph searched is pruned over its candidates only, as at
        # unknown scale: the search's over V_m, the retry's over V_(m-1).
        assert [v.tolist() for v in pruned] == [list(range(m)), wider.tolist()]

    def test_a_cut_retry_child_leaves_the_stage_incomplete(self, monkeypatch):
        # The retry's first child search finishes and every later one is
        # cut one vertex short: the retry takes the first child's clique,
        # which a cut child may have beaten.
        import tlsreg.clique as cl
        import tlsreg.pipeline as pl
        from tlsreg.certifier import Certificate, Verdict

        real_search, real_next, children = cl.max_clique, cl.next_clique, []

        def cut_children(graph, deadline):
            found = real_search(graph)
            if children:
                children.append(found)
                if len(children) > 2:
                    return cl.CliqueResult(found.vertices[:-1], False)
            return found

        def recording_next(graph, first, deadline):
            children.append(None)  # the searches that follow are its children
            return real_next(graph, first, deadline)

        monkeypatch.setattr(cl, "max_clique", cut_children)
        monkeypatch.setattr(cl, "next_clique", recording_next)
        monkeypatch.setattr(
            pl, "certify", lambda data, cand, opts=None: Certificate(
                1.0, 200, Verdict.BUDGET_EXHAUSTED, (), cand.mu_hat, 0.0
            )
        )
        rng = np.random.default_rng(15)
        c, *_ = synth(rng, 30, outlier_rate=0.4, sigma=0.01)
        res = register(c, TlsConfig(), RegistrationOptions(certify_rotation=True))
        assert res.trace.retried and len(children) > 2
        assert res.clique.vertices.tolist() == children[1].vertices.tolist()
        assert res.trace.clique_completed is False

    def test_clique_budget_bounds_the_whole_stage(self, monkeypatch):
        # A fake clock that moves only while a search runs: register reads
        # it once, when the clique stage starts, and every search, the
        # retry's children included, gets the deadline it fixed then.
        import time as real_time
        from types import SimpleNamespace

        import tlsreg.clique as cl
        import tlsreg.pipeline as pl
        from tlsreg.certifier import Certificate, Verdict

        clock, reads = [real_time.monotonic()], []

        def monotonic():
            reads.append(clock[0])
            return clock[0]

        monkeypatch.setattr(
            pl, "time", SimpleNamespace(monotonic=monotonic, perf_counter=real_time.perf_counter)
        )
        deadlines = []
        real_search = cl.max_clique

        def timed_search(graph, deadline):
            deadlines.append(deadline)
            clock[0] += 0.25
            return real_search(graph)

        def always_reject(data, cand, opts=None):
            return Certificate(1.0, 200, Verdict.BUDGET_EXHAUSTED, (), cand.mu_hat, 0.0)

        monkeypatch.setattr(cl, "max_clique", timed_search)
        monkeypatch.setattr(pl, "certify", always_reject)
        rng = np.random.default_rng(15)
        c, *_ = synth(rng, 30, outlier_rate=0.4, sigma=0.01)
        register(
            c, TlsConfig(), RegistrationOptions(certify_rotation=True, clique_time_budget=10.0)
        )
        assert len(reads) == 1
        assert len(deadlines) > 2  # the first search plus one per member of its clique
        assert deadlines == [reads[0] + 10.0] * len(deadlines)

    def test_scale_hypotheses_share_one_clique_budget(self, monkeypatch):
        # Three hypotheses, the middle one right, and a bound one above the
        # votes' own, which no clique reaches: all three are searched, every
        # search gets the deadline fixed when the stage starts, and the retry
        # searches the chosen scale's graph over the vertices whose count
        # allows a clique one smaller than the chosen one.
        import time as real_time
        from types import SimpleNamespace

        import tlsreg.clique as cl
        import tlsreg.pipeline as pl
        from tlsreg.certifier import Certificate, Verdict

        clock = [real_time.monotonic()]
        monkeypatch.setattr(
            pl,
            "time",
            SimpleNamespace(monotonic=lambda: clock[0], perf_counter=real_time.perf_counter),
        )
        deadlines, retried, votes = [], [], []
        real_search, real_next, real_prune = cl.max_clique, cl.next_clique, pl.prune_by_scale
        real_hypotheses, real_bound = pl._scale_hypotheses, cl.size_bound

        def timed_search(graph, deadline):
            deadlines.append(deadline)
            clock[0] += 0.25
            real_time.sleep(0.01)
            return real_search(graph)

        def recording_next(graph, first, deadline):
            retried.append(graph)
            return real_next(graph, first, deadline)

        def slow_prune(*args):
            # The prunes move the fake clock too; the deadline, fixed
            # before the first of them, stays where it is.
            clock[0] += 0.5
            real_time.sleep(0.02)
            return real_prune(*args)

        rng = np.random.default_rng(15)
        c, s, *_ = synth(rng, 30, outlier_rate=0.4, sigma=0.01)
        hypotheses = [0.5 * s, s, 2.0 * s]

        def three_hypotheses(graph, cbar_sq):
            _, counts = real_hypotheses(graph, cbar_sq)
            votes.append(counts)
            return hypotheses, counts

        def unreachable_bound(counts):
            return real_bound(counts) + 1

        monkeypatch.setattr(pl, "_scale_hypotheses", three_hypotheses)
        monkeypatch.setattr(cl, "size_bound", unreachable_bound)
        monkeypatch.setattr(cl, "max_clique", timed_search)
        monkeypatch.setattr(cl, "next_clique", recording_next)
        monkeypatch.setattr(pl, "prune_by_scale", slow_prune)
        monkeypatch.setattr(
            pl, "certify", lambda data, cand, opts=None: Certificate(
                1.0, 200, Verdict.BUDGET_EXHAUSTED, (), cand.mu_hat, 0.0
            )
        )
        start = clock[0]
        res = register(
            c, TlsConfig(), RegistrationOptions(certify_rotation=True, clique_time_budget=10.0)
        )
        assert len(deadlines) > 3  # one per hypothesis, then the retry's
        assert deadlines == [start + 10.0] * len(deadlines)
        tried = res.trace.scale_hypotheses
        assert [scale for scale, _ in tried] == hypotheses
        sizes = [size for _, size in tried]
        assert sizes[1] > max(sizes[0], sizes[2])
        m, counts = sizes[1], votes[0]
        searched = real_prune(res.graph, s, 1.0, np.flatnonzero(counts >= m - 1))
        assert res.trace.edges_kept == searched.n_edges
        wider = real_prune(res.graph, s, 1.0, np.flatnonzero(counts >= m - 2))
        assert len(retried) == 1 and np.array_equal(retried[0].adj, wider.adj)
        assert np.array_equal(retried[0].vertices, wider.vertices)
        assert res.trace.prune_s >= 0.06
        assert res.trace.clique_s >= 0.03

    @pytest.mark.parametrize(
        "right_first, budget, completed",
        [(True, 10.0, False), (False, 10.0, False), (True, 20.0, True)],
    )
    def test_a_cut_hypothesis_search_leaves_the_stage_incomplete(
        self, monkeypatch, right_first, budget, completed
    ):
        # Two hypotheses and a bound no clique reaches, with every vertex a
        # candidate for it, so each hypothesis is searched once, over every
        # vertex.  Each search takes 6 s on a fake clock and is cut when it
        # would end past its deadline: at a 10 s budget the second search
        # expires.  A cut search may have missed a larger clique, whichever
        # hypothesis's clique is chosen.
        import time as real_time
        from types import SimpleNamespace

        import tlsreg.clique as cl
        import tlsreg.pipeline as pl

        clock = [real_time.monotonic()]
        monkeypatch.setattr(
            pl,
            "time",
            SimpleNamespace(monotonic=lambda: clock[0], perf_counter=real_time.perf_counter),
        )
        real_search = cl.max_clique

        def six_second_search(graph, deadline):
            clock[0] += 6.0
            found = real_search(graph)
            cut = clock[0] > deadline
            return cl.CliqueResult(found.vertices, found.is_certified_maximum and not cut)

        rng = np.random.default_rng(15)
        c, s, *_ = synth(rng, 30, outlier_rate=0.4, sigma=0.01)
        hypotheses = [s, 2.0 * s] if right_first else [2.0 * s, s]
        monkeypatch.setattr(
            pl, "_scale_hypotheses", lambda graph, cbar_sq: (hypotheses, np.full(30, 29))
        )
        monkeypatch.setattr(cl, "max_clique", six_second_search)
        res = register(c, TlsConfig(), RegistrationOptions(clique_time_budget=budget))
        sizes = [size for _, size in res.trace.scale_hypotheses]
        assert len(sizes) == 2 and res.trace.clique_size == max(sizes)
        assert abs(res.transform.scale - s) < 0.05 * s
        assert res.trace.clique_completed is completed

    def test_no_positive_scale_hypothesis_raises(self):
        # Coincident target points: every TRIM reads 0, and so does every
        # refined vote.
        src = np.random.default_rng(16).uniform(0, 1, size=(10, 3))
        c = CorrespondenceSet(src, np.zeros((10, 3)), np.full(10, 0.05))
        with pytest.raises(InsufficientInliersError, match="estimated scale is not positive"):
            register(c)

    def test_certify_cap_skips_the_cost_matrix(self, monkeypatch):
        import tlsreg.pipeline as pl

        def never(problem):
            raise AssertionError("cost matrix built above certify_max_k")

        monkeypatch.setattr(pl, "build_cost_matrix", never)
        rng = np.random.default_rng(7)
        c, s, *_ = synth(rng, 30, outlier_rate=0.4)
        res = register(
            c, TlsConfig(), RegistrationOptions(certify_rotation=True, certify_max_k=10)
        )
        assert res.certificate is None
        k = res.trace.rotation_edges
        assert k > 10 and res.trace.certify_skipped_k == k
        assert res.trace.certificate_verdict is None
        assert abs(res.transform.scale - s) < 1e-9

    def test_clique_completed_reports_budget_expiry(self):
        # Uniform clouds with a loose bound prune to a ~90%-dense graph on
        # 130 vertices, far too hard to search exhaustively in 0.1 ms.
        rng = np.random.default_rng(0)
        src, dst = rng.uniform(0, 1, size=(2, 130, 3))
        c = CorrespondenceSet(src, dst, np.full(130, 0.3))
        res = register(
            c, TlsConfig(), RegistrationOptions(known_scale=1.0, clique_time_budget=1e-4)
        )
        assert res.trace.clique_completed is False
        assert not res.clique.is_certified_maximum
        c, *_ = synth(np.random.default_rng(0), 40)
        assert register(c).trace.clique_completed is True

    def test_adversarial_outliers_with_inlier_majority(self):
        # Noiseless inliers vs a mutually consistent adversarial structure:
        # as long as the inliers outnumber the adversarial set by 3, the
        # cascade recovers the true transform exactly.
        from tlsreg.geometry import quat_to_matrix, random_unit_quaternion

        for seed in range(10):
            rng = np.random.default_rng(seed)
            n_in, n_out = 13, 10
            src = rng.uniform(0, 1, size=(n_in + n_out, 3))
            q = random_unit_quaternion(rng)
            R = quat_to_matrix(q)
            t = rng.normal(size=3) * 0.3
            dst = src @ R.T + t
            # adversarial outliers: a coherent second transform
            q2 = random_unit_quaternion(rng)
            t2 = rng.normal(size=3) * 0.3
            dst[n_in:] = src[n_in:] @ quat_to_matrix(q2).T + t2
            c = CorrespondenceSet(src, dst, np.full(n_in + n_out, 0.01))
            res = register(c, TlsConfig(), RegistrationOptions(known_scale=1.0))
            assert geodesic_rotation_error(res.transform.matrix, R) < 1e-8
            assert np.linalg.norm(res.transform.translation - t) < 1e-8


# Each stage a retried call runs: the module it is called through, the
# trace time that holds it, and the calls that time must show at least,
# two for the stages that run on both cliques.
STAGE_TIMES = [
    ("pipeline", "build_measurement_graph", "invariants_s", 1),
    ("pipeline", "_scale_hypotheses", "vote_s", 1),
    ("pipeline", "prune_by_scale", "prune_s", 1),
    ("clique", "max_clique", "clique_s", 1),
    ("pipeline", "_refine_scale_on_clique", "revote_s", 1),
    ("pipeline", "solve_gnc_tls", "gnc_s", 2),
    ("pipeline", "build_cost_matrix", "certify_s", 2),
    ("pipeline", "estimate_translation", "translation_s", 1),
]
TIME_FIELDS = [f.name for f in fields(RegistrationTrace) if f.name.endswith("_s")]


class TestStageTimes:
    SLEEP = 0.02

    @staticmethod
    def retried_trace(monkeypatch):
        """The trace of an unknown-scale call whose first certificate is
        rejected, so the cascade retries on the next clique."""
        import tlsreg.pipeline as pl
        from tlsreg.certifier import Certificate, Verdict

        def always_reject(data, cand, opts=None):
            return Certificate(1.0, 200, Verdict.BUDGET_EXHAUSTED, (), cand.mu_hat, 0.0)

        monkeypatch.setattr(pl, "certify", always_reject)
        c, *_ = synth(np.random.default_rng(15), 30, outlier_rate=0.4, sigma=0.01)
        trace = register(c, TlsConfig(), RegistrationOptions(certify_rotation=True)).trace
        assert trace.retried
        return trace

    def assert_only(self, trace, field, calls):
        for name in TIME_FIELDS:
            if name == field:
                assert getattr(trace, name) >= calls * self.SLEEP
            else:
                assert getattr(trace, name) < self.SLEEP, name

    @pytest.mark.parametrize("module, stage, field, calls", STAGE_TIMES)
    def test_a_slow_stage_shows_in_its_own_time(self, monkeypatch, module, stage, field, calls):
        owner = importlib.import_module(f"tlsreg.{module}")
        real = getattr(owner, stage)

        def slow(*args, **kwargs):
            time.sleep(self.SLEEP)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, stage, slow)
        self.assert_only(self.retried_trace(monkeypatch), field, calls)

    def test_a_slow_second_clique_shows_in_retry_s(self, monkeypatch):
        from tlsreg.invariants import MeasurementGraph

        calls = []
        trims_within = MeasurementGraph.trims_within

        def slow_second(graph, vertices):
            calls.append(vertices)
            if len(calls) == 2:
                time.sleep(self.SLEEP)
            return trims_within(graph, vertices)

        monkeypatch.setattr(MeasurementGraph, "trims_within", slow_second)
        self.assert_only(self.retried_trace(monkeypatch), "retry_s", 1)

    def test_the_clock_keeps_every_trace_time_and_refuses_nested_spans(self):
        clock = _StageClock()
        assert list(clock.times) == TIME_FIELDS
        with clock("gnc_s"):
            with pytest.raises(RuntimeError, match="inside gnc_s"):
                with clock("certify_s"):
                    pass
        assert clock.times["gnc_s"] > 0.0 and clock.times["certify_s"] == 0.0
        with clock("certify_s"):
            pass
        assert clock.times["certify_s"] > 0.0


class TestAnswerRecord:
    @pytest.mark.parametrize("known_scale", [None, 1.0])
    def test_two_runs_on_one_input_give_equal_records(self, known_scale):
        c, *_ = synth(
            np.random.default_rng(31), 20, outlier_rate=0.3, sigma=0.01, scale=known_scale
        )
        opts = RegistrationOptions(known_scale=known_scale, certify_rotation=True)
        first, second = (answer_record(register(c, TlsConfig(), opts)) for _ in range(2))
        assert first == second
        assert first["certificate"] is not None and first["trace"]["clique_size"] >= 3
        assert "gnc_s" not in first["trace"] and "gnc_iterations" in first["trace"]


class TestUnknownScaleNinetyPercentOutliers:
    def test_every_pose_is_right(self):
        # The unknown90_n1000 benchmark regime on fixed seeds: N=1000, 90%
        # outliers, true scales on the benchmark's grid over [1, 5], and its
        # bar for a right pose.  A single vote over all N^2/2 scale ratios
        # got most of these wrong: the outlier ratios outvote the inliers.
        wrong = []
        for i in range(16):
            s_true = 1.0 + 4.0 * (i % 8 + 0.5) / 8
            c, gt, _ = generate(
                SyntheticSpec(
                    n_points=1000, sigma=0.01, outlier_rate=0.9, seed=13_000 + i,
                    scale_range=(s_true, s_true),
                )
            )
            tf = register(c).transform
            rot = math.degrees(geodesic_rotation_error(tf.matrix, gt.rotation.to_matrix()))
            trans = np.linalg.norm(tf.translation - gt.translation)
            if not (abs(tf.scale - s_true) < 0.05 * s_true and rot < 3.0 and trans < 0.1):
                wrong.append((i, tf.scale, s_true, rot, trans))
        assert wrong == []

    @pytest.mark.parametrize("seed", [40_001, 40_007])
    def test_a_later_scale_hypothesis_wins_at_95_percent(self, seed):
        # With 50 inliers among 1000 points, an outlier vertex can outvote
        # every inlier: the best-voted vertex's scale has a clique of a few
        # vertices, and a later hypothesis finds the inliers.
        c, gt, labels = generate(
            SyntheticSpec(n_points=1000, sigma=0.01, outlier_rate=0.95, seed=seed)
        )
        res = register(c)
        sizes = [size for _, size in res.trace.scale_hypotheses]
        assert sizes.index(max(sizes)) > 0
        assert res.trace.clique_size == max(sizes) == int(labels.sum())
        tf = res.transform
        assert abs(tf.scale - gt.scale) < 0.05 * gt.scale
        assert math.degrees(geodesic_rotation_error(tf.matrix, gt.rotation.to_matrix())) < 3.0
        assert np.linalg.norm(tf.translation - gt.translation) < 0.1


class TestCleanCliqueRotation:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize(
        "n, outlier_rate, known_scale", [(150, 0.5, False), (1000, 0.99, True)]
    )
    def test_one_gnc_step_on_a_clean_clique(self, n, outlier_rate, known_scale, seed):
        # The dense50_n150 and known99_n1000 regimes: the clique holds
        # inliers only, so GNC's all-inlier start already has every weight
        # binary, and its first step is its last.
        c, gt, labels = generate(
            SyntheticSpec(
                n_points=n, sigma=0.01, outlier_rate=outlier_rate, seed=32_000 + seed,
                known_scale=known_scale,
            )
        )
        res = register(
            c, TlsConfig(), RegistrationOptions(known_scale=1.0 if known_scale else None)
        )
        assert np.all(labels[res.clique.vertices])
        assert res.trace.gnc_iterations == 1 and res.trace.gnc_converged
        tf = res.transform
        assert abs(tf.scale - gt.scale) < 0.05 * gt.scale
        assert math.degrees(geodesic_rotation_error(tf.matrix, gt.rotation.to_matrix())) < 3.0
        assert np.linalg.norm(tf.translation - gt.translation) < 0.1


class TestCertificateRetry:
    @pytest.mark.parametrize("seed", [3213451745401503880, 1423462175018655287])
    def test_a_rejected_clique_retries_on_the_whole_graphs_next_clique(self, seed):
        # Two known99_n1000 instances whose maximum clique holds an outlier
        # that tilts the rotation: the certifier rejects it, and the next
        # clique, the one the whole graph gives, is certified and closer to
        # the truth (2.86 and 0.72 degrees, where the uncertified call is
        # 3.21 and 3.33 degrees off).
        from tlsreg.clique import max_clique, next_clique, prune_by_scale

        c, gt, _ = generate(
            SyntheticSpec(
                n_points=1000, sigma=0.01, outlier_rate=0.99, known_scale=True, seed=seed
            )
        )
        res = register(
            c, TlsConfig(), RegistrationOptions(known_scale=1.0, certify_rotation=True)
        )
        assert res.trace.retried is True and res.certificate.certified
        rot = geodesic_rotation_error(res.transform.matrix, gt.rotation.to_matrix())
        assert math.degrees(rot) < 3.0
        whole = prune_by_scale(res.graph, 1.0, 1.0)
        expected = next_clique(whole, max_clique(whole))
        assert np.array_equal(res.clique.vertices, expected.vertices)


class TestThresholdKnob:
    def test_non_unit_truncation_threshold(self):
        # cbar_sq rescales what counts as an inlier residual; a looser
        # threshold on clean data must not break exact recovery.
        rng = np.random.default_rng(31)
        c, s, R, t, _ = synth(rng, 25, outlier_rate=0.3)
        res = register(c, TlsConfig(cbar_sq=2.0))
        assert abs(res.transform.scale - s) < 1e-9
        assert geodesic_rotation_error(res.transform.matrix, R) < 1e-8


class TestCorrespondenceFreeMode:
    def test_all_pairs_registration_with_partial_overlap(self):
        # Every source point paired with every kept target point: ~97%
        # outliers, and the cascade still recovers the pose.
        from tlsreg.synthetic import SyntheticSpec, generate

        c, gt, labels = generate(
            SyntheticSpec(
                n_points=40, sigma=0.005, all_to_all=True,
                overlap_fraction=0.8, seed=11, known_scale=True,
            )
        )
        assert 1.0 - labels.mean() > 0.9
        res = register(c, TlsConfig(), RegistrationOptions(known_scale=1.0))
        err = math.degrees(
            geodesic_rotation_error(res.transform.matrix, gt.rotation.to_matrix())
        )
        assert err < 1.0
        assert np.linalg.norm(res.transform.translation - gt.translation) < 0.05


class TestDegenerateInputs:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"known_scale": -1.0},
            {"known_scale": 0.0},
            {"known_scale": math.nan},
            {"known_scale": math.inf},
            {"clique_time_budget": -1.0},
            {"clique_time_budget": math.nan},
            {"certify_max_k": -1},
        ],
    )
    def test_out_of_range_options_are_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RegistrationOptions(**kwargs)

    def test_duplicate_source_points_survive(self):
        # Coincident source points make zero-length difference vectors;
        # those edges carry no scale measurement and must be skipped, not
        # crash the cascade.
        rng = np.random.default_rng(21)
        c, s, R, t, _ = synth(rng, 20)
        src = c.source.copy()
        src[7] = src[3]
        dst = s * src @ R.T + t
        c2 = CorrespondenceSet(src, dst, c.noise_bounds)
        res = register(c2)
        assert abs(res.transform.scale - s) < 1e-9
        assert geodesic_rotation_error(res.transform.matrix, R) < 1e-8


    def test_coincident_source_points_leave_no_scale_measurement(self):
        # Every source difference is zero, so no TRIM is finite and no
        # vertex votes for a scale.
        src = np.tile([0.3, -1.0, 2.0], (12, 1))
        dst = np.random.default_rng(22).uniform(0, 1, size=(12, 3))
        c = CorrespondenceSet(src, dst, np.full(12, 0.05))
        with pytest.raises(InsufficientInliersError, match="no usable scale measurements"):
            register(c)


class TestMemory:
    @pytest.mark.parametrize("known_scale", [True, False])
    def test_register_stores_no_pairwise_table(self, known_scale):
        # At N = 1000 one (N, N) float64 table takes 8 MB.  The TRIMs are
        # computed a block at a time where they are read, and the result
        # keeps only the points and the clique.  The peak is about 4.3 MB
        # at unknown scale and 3.0 MB at known scale (numpy 2, x86-64),
        # mostly the vote's or the prune's blocks: the threads of the vote
        # share one block's worth of entries, and a second full block in
        # flight would pass the bound.  At known scale the degree pass
        # keeps one count per vertex in place of an (N, N) bool table.
        n = 1000
        c, *_ = generate(
            SyntheticSpec(
                n_points=n, sigma=0.01, outlier_rate=0.99 if known_scale else 0.9,
                seed=14_000, known_scale=known_scale,
            )
        )
        opts = RegistrationOptions(known_scale=1.0 if known_scale else None)
        tracemalloc.start()
        try:
            res = register(c, TlsConfig(), opts)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5_000_000
        assert held < 2_000_000
        # The degenerate-pair list costs a pass over the points; register
        # never asks for it.
        assert "skipped_rows" not in vars(res.graph.trims)

    def test_the_dense_end_degree_pass_holds_no_pair_list(self):
        # Without outliers all 499,500 pairs agree, and a list of them would
        # take 8 MB.  The degree pass keeps counts and one block's buffers:
        # its peak is about 2.7 MB (numpy 2, x86-64).
        c, *_ = generate(
            SyntheticSpec(n_points=1000, sigma=0.01, outlier_rate=0.0, seed=14_000,
                          known_scale=True)
        )
        graph = build_measurement_graph(c)
        tracemalloc.start()
        try:
            degrees = graph.trims.degrees(1.0, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5_000_000
        assert degrees.tolist() == [999] * 1000


class TestEstimateTranslation:
    def test_exact_on_clean_data(self):
        rng = np.random.default_rng(1)
        c, s, R, t, _ = synth(rng, 25)
        t_est, axis_masks, joint = estimate_translation(
            c.source, c.target, s, R, c.noise_bounds, 1.0
        )
        assert np.allclose(t_est, t, atol=1e-10)
        assert np.all(joint)

    def test_each_axis_matches_scalar_solver(self):
        rng = np.random.default_rng(2)
        c, s, R, t, _ = synth(rng, 10, outlier_rate=0.3, sigma=0.01)
        residuals = c.target - s * c.source @ R.T
        t_est, axis_masks, _ = estimate_translation(
            c.source, c.target, s, R, c.noise_bounds, 1.0
        )
        for axis in range(3):
            sol = solve_scalar_tls(
                ScalarTlsProblem(residuals[:, axis], c.noise_bounds, 1.0)
            )
            assert t_est[axis] == sol.estimate
            assert np.array_equal(axis_masks[axis], sol.inlier_mask)

    def test_eighty_percent_outliers(self):
        rng = np.random.default_rng(3)
        c, s, R, t, _ = synth(rng, 100, outlier_rate=0.8, sigma=0.005, scale=1.0)
        t_est, _, _ = estimate_translation(c.source, c.target, 1.0, R, c.noise_bounds, 1.0)
        assert np.linalg.norm(t_est - t) < np.max(c.noise_bounds)


class TestErrorBounds:
    def test_bounds_hold_against_ground_truth(self):
        held = 0
        for seed in range(25):
            rng = np.random.default_rng(seed)
            c, s, R, t, labels = synth(rng, 30, outlier_rate=0.3, sigma=0.01)
            res = register(c)
            b = compute_error_bounds(res, c)
            assert abs(res.transform.scale - s) <= b.eta_s
            dF = np.linalg.norm(res.transform.scale * res.transform.matrix - s * R)
            assert dF <= b.eta_R_frobenius
            assert np.linalg.norm(res.transform.translation - t) <= b.eta_t
            assert abs(res.transform.scale - s) <= b.tighter.scale + 1e-12
            angle = geodesic_rotation_error(res.transform.matrix, R)
            assert s * (1 - math.cos(angle)) <= b.tighter.rotation + 1e-12
            dt = np.abs(res.transform.translation - t)
            assert np.all(dt <= b.tighter.translation + 1e-12)
            held += 1
        assert held == 25

    def test_bounds_hold_at_a_looser_truncation(self):
        # Criterion 10's protocol with cbar_sq = 4: the coarse bounds are
        # derived for cbar_sq = 1, but on these seeds they still hold.
        for seed in range(50_000, 50_030):
            c, gt, _ = generate(
                SyntheticSpec(n_points=30, sigma=0.01, outlier_rate=0.3, seed=seed)
            )
            res = register(c, TlsConfig(cbar_sq=4.0))
            b = compute_error_bounds(res, c)
            tf = res.transform
            R = gt.rotation.to_matrix()
            assert abs(tf.scale - gt.scale) <= b.eta_s, seed
            assert np.linalg.norm(tf.scale * tf.matrix - gt.scale * R) <= b.eta_R_frobenius, seed
            assert np.linalg.norm(tf.translation - gt.translation) <= b.eta_t, seed
            assert abs(tf.scale - gt.scale) <= b.tighter.scale + 1e-12, seed
            angle = geodesic_rotation_error(tf.matrix, R)
            assert gt.scale * (1 - math.cos(angle)) <= b.tighter.rotation + 1e-12, seed
            dt = np.abs(tf.translation - gt.translation)
            assert np.all(dt <= b.tighter.translation + 1e-12), seed

    def test_worst_case_bounds_hold_on_few_inliers(self):
        # At most 9 selected inliers give at most 36 TRIMs, whose C(36, 3)
        # triples are few enough to enumerate: the tighter bounds take the
        # worst case over them instead of the minimum.
        for seed in range(70_000, 70_020):
            c, gt, _ = generate(
                SyntheticSpec(n_points=12, sigma=0.01, outlier_rate=0.3, seed=seed)
            )
            res = register(c)
            b = compute_error_bounds(res, c)
            tf = res.transform
            assert b.tighter.worst_case, seed
            assert abs(tf.scale - gt.scale) <= b.tighter.scale + 1e-12, seed
            angle = geodesic_rotation_error(tf.matrix, gt.rotation.to_matrix())
            assert gt.scale * (1 - math.cos(angle)) <= b.tighter.rotation + 1e-12, seed
            dt = np.abs(tf.translation - gt.translation)
            assert np.all(dt <= b.tighter.translation + 1e-12), seed

    def test_coplanar_geometry_gives_infinite_rotation_bound(self):
        rng = np.random.default_rng(42)
        src = np.column_stack([rng.uniform(0, 1, size=(20, 2)), np.zeros(20)])
        c = CorrespondenceSet(src, src.copy(), np.full(20, 0.01))
        res = register(c, TlsConfig(), RegistrationOptions(known_scale=1.0))
        b = compute_error_bounds(res, c)
        assert math.isinf(b.eta_R_frobenius)

    @staticmethod
    def listed_tuples(units, cap, rng):
        """Reference: list every (i; j, h, k) tuple, then sample from the list."""
        m = units.shape[0]
        tuples = []
        for i in range(m):
            others = [j for j in range(m) if j != i and np.isfinite(units[i, j, 0])]
            for j, h, k in itertools.combinations(others, 3):
                tuples.append((i, j, h, k))
        exhaustive = len(tuples) <= cap
        if tuples and not exhaustive:
            sel = rng.choice(len(tuples), size=cap, replace=False)
            tuples = [tuples[t] for t in sel]
        return np.array(tuples, dtype=np.int64).reshape(-1, 4), exhaustive

    @pytest.mark.parametrize("m, n_nan, cap", [(6, 0, 500), (7, 2, 500), (12, 0, 500), (13, 5, 40)])
    def test_base_point_tuples_match_listed_enumeration(self, m, n_nan, cap):
        rng = np.random.default_rng(m)
        units = np.full((m, m, 3), np.nan)  # NaN where undefined, as in the real table
        i, j = np.triu_indices(m, 1)
        d = rng.normal(size=(i.size, 3))
        units[i, j] = d / np.linalg.norm(d, axis=1, keepdims=True)
        units[j, i] = -units[i, j]
        for a, b in rng.choice(m, size=(n_nan, 2)):
            units[a, b] = units[b, a] = np.nan  # degenerate pairs
        units[0, :] = units[:, 0] = np.nan  # an isolated vertex
        expected, exhaustive = self.listed_tuples(units, cap, np.random.default_rng(3))
        got, got_exhaustive = _base_point_tuples(units, cap, np.random.default_rng(3))
        assert got_exhaustive == exhaustive == (m <= 7)
        assert np.array_equal(got, expected)
        i, j, h, k = expected.T
        U = np.stack([units[i, j], units[i, h], units[i, k]], axis=-1)
        smin = float(np.linalg.svd(U, compute_uv=False)[:, -1].min())
        assert _min_u_singular_value(units, cap, np.random.default_rng(3)) == (smin, exhaustive)

    def test_translation_bound_value(self):
        # (9 + 3 sqrt(3)) * 0.01 for uniform bound 0.01
        rng = np.random.default_rng(9)
        c, s, R, t, _ = synth(rng, 20, sigma=0.0, beta=0.01)
        res = register(c)
        b = compute_error_bounds(res, c)
        assert b.eta_t == pytest.approx((9 + 3 * math.sqrt(3)) * 0.01)
