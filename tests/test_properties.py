"""Property-based checks of the core solver invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tlsreg.geometry import (
    left_product_matrix,
    quat_to_matrix,
    right_product_matrix,
)
from tlsreg.scalar_tls import ScalarTlsProblem, solve_scalar_tls, tls_cost

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
