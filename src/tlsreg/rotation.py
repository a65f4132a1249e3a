"""Truncated-least-squares rotation estimation via graduated non-convexity.

The inner solver is the closed-form weighted rotation alignment: the
optimal rotation maximizing sum_k w_k <b_k, R a_k> is read off the
extremal eigenvector of a 4x4 accumulation matrix, the weighted sum of
the quaternion product matrices L(b_k)^T R(a_k).  Each product is
bilinear in the pair (a_k, b_k), so the sum is the 3x3 weighted
cross-covariance H = sum_k w_k a_k b_k^T contracted with nine constant
4x4 bases (PRODUCT_BASIS): one matrix product over the measurements, no
per-measurement loop.  The outer loop anneals a surrogate of the
truncated cost from nearly-least-squares to the exact truncated cost,
rewriting per-measurement weights in closed form at each step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import left_product_matrix, quat_to_matrix, right_product_matrix

COLLINEAR_REL_TOL = 1e-9

# The paper's annealing schedule: mu starts at the value that makes the
# surrogate convex (at least GNC_MU_MIN), grows by GNC_MU_FACTOR per step,
# and stops at GNC_MU_STOP, when every weight is binary to within
# GNC_WEIGHT_TOL, or after GNC_MAX_ITERATIONS steps.
GNC_MAX_ITERATIONS = 100
GNC_MU_FACTOR = 1.4
GNC_MU_STOP = 1e6
GNC_MU_MIN = 1e-6
GNC_WEIGHT_TOL = 1e-6


@dataclass(frozen=True)
class RotationProblem:
    """Scaled pairwise measurements for rotation-only estimation.

    a_bars must already carry the scale estimate (s_hat * raw difference);
    beta_bars are the propagated inlier bounds.
    """

    a_bars: np.ndarray
    b_bars: np.ndarray
    beta_bars: np.ndarray
    cbar_sq: float = 1.0

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.a_bars, dtype=float))
        b = np.atleast_2d(np.asarray(self.b_bars, dtype=float))
        bb = np.asarray(self.beta_bars, dtype=float).ravel()
        if a.shape != b.shape or a.ndim != 2 or a.shape[1] != 3:
            raise ValueError("a_bars and b_bars must both be (K, 3)")
        if a.shape[0] < 2:
            raise ValueError("need at least two measurements")
        if bb.shape != (a.shape[0],) or not np.all(bb > 0):
            raise ValueError("beta_bars must be (K,) positive")
        if not self.cbar_sq > 0:
            raise ValueError("cbar_sq must be positive")
        object.__setattr__(self, "a_bars", a)
        object.__setattr__(self, "b_bars", b)
        object.__setattr__(self, "beta_bars", bb)

    @property
    def size(self) -> int:
        return self.a_bars.shape[0]


@dataclass(frozen=True)
class RotationSolution:
    rotation: np.ndarray  # unit quaternion [x, y, z, w]
    theta: np.ndarray  # +-1 per measurement
    cost: float  # truncated objective with the returned theta
    gnc_iterations: int
    converged: bool
    degenerate: bool

    @property
    def matrix(self) -> np.ndarray:
        return quat_to_matrix(self.rotation)


# PRODUCT_BASIS[j, i] = L(e_i)^T R(e_j) over the pure unit quaternions
# e_0, e_1, e_2.  For pure quaternions a and b, L(b)^T R(a) is bilinear in
# their vector parts: L(b)^T R(a) = sum_ij a_j b_i PRODUCT_BASIS[j, i].
_PURE_UNITS = np.eye(4)[:3]
PRODUCT_BASIS = np.array(
    [
        [left_product_matrix(e_i).T @ right_product_matrix(e_j) for e_i in _PURE_UNITS]
        for e_j in _PURE_UNITS
    ]
)


def product_matrices(a, b) -> np.ndarray:
    """(K, 4, 4) stack of L(b_k)^T R(a_k) for the pure quaternions of the
    rows of a and b (both (K, 3))."""
    return np.einsum("kj,ki,jipq->kpq", a, b, PRODUCT_BASIS)


def _accumulation_matrix(a_bars, b_bars, weights) -> np.ndarray:
    """4x4 matrix whose max-eigenvalue eigenvector maximizes the weighted
    alignment sum_k w_k b_k . (R a_k).

    That is the symmetric part of sum_k w_k L(b_k)^T R(a_k), formed as the
    weighted cross-covariance H = sum_k w_k a_k b_k^T contracted with
    PRODUCT_BASIS.
    """
    H = (a_bars * weights[:, None]).T @ b_bars
    M = np.einsum("ji,jipq->pq", H, PRODUCT_BASIS)
    return 0.5 * (M + M.T)


def check_collinear(a_bars, weights) -> bool:
    """True when all weight-positive directions share one line (rotation
    about that line is unobservable)."""
    w = np.asarray(weights, dtype=float)
    pts = np.asarray(a_bars, dtype=float)[w > 0]
    if pts.shape[0] < 2:
        return True
    scatter = pts.T @ pts
    eigvals = np.linalg.eigvalsh(scatter)
    return eigvals[1] <= COLLINEAR_REL_TOL * max(eigvals[-1], 1e-300)


def horn_weighted(a_bars, b_bars, weights) -> np.ndarray:
    """Global minimizer of sum_k w_k ||b_k - R a_k||^2 over rotations.

    Returns a unit quaternion.  Degenerate (collinear) input still yields
    a valid rotation but the component about the common axis is arbitrary;
    `check_collinear` detects that case.
    """
    a = np.atleast_2d(np.asarray(a_bars, dtype=float))
    b = np.atleast_2d(np.asarray(b_bars, dtype=float))
    w = np.asarray(weights, dtype=float).ravel()
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    if np.count_nonzero(w) < 2:
        raise ValueError("need at least two weight-positive measurements")
    M = _accumulation_matrix(a, b, w)
    eigvals, eigvecs = np.linalg.eigh(M)
    q = eigvecs[:, -1]
    # Inverse-iteration polish: the 4x4 eigensolver's vector error grows
    # with 1/eigengap; two shifted solves push it to machine precision.
    scale = max(abs(eigvals[0]), abs(eigvals[-1]), 1e-300)
    shift = eigvals[-1] + 1e-13 * scale
    for _ in range(2):
        refined = np.linalg.solve(M - shift * np.eye(4), q)
        norm = np.linalg.norm(refined)
        if not np.isfinite(norm) or norm == 0.0:
            break
        q = refined / norm
    if q[3] < 0:
        q = -q
    return q / np.linalg.norm(q)


def truncated_cost(p: RotationProblem, q) -> float:
    """Exact truncated objective at a rotation."""
    R = quat_to_matrix(q)
    r_sq = np.sum((p.b_bars - p.a_bars @ R.T) ** 2, axis=1) / p.beta_bars**2
    return float(np.sum(np.minimum(r_sq, p.cbar_sq)))


def binary_cost(p: RotationProblem, q, theta) -> float:
    """Objective of the binary-indicator form: inliers pay their weighted
    squared residual, outliers pay the truncation constant."""
    R = quat_to_matrix(q)
    r_sq = np.sum((p.b_bars - p.a_bars @ R.T) ** 2, axis=1) / p.beta_bars**2
    theta = np.asarray(theta)
    return float(np.sum(np.where(theta > 0, r_sq, p.cbar_sq)))


def _surrogate(r_sq, weights, mu, eps_sq) -> float:
    # Annealed objective: weighted residuals plus the penalty whose
    # minimizer over w in [0, 1] reproduces the closed-form update below.
    return float(np.sum(weights * r_sq + mu * (1.0 - weights) / (mu + weights) * eps_sq))


def _weight_update(r_sq, mu, eps_sq) -> np.ndarray:
    w = np.empty_like(r_sq)
    lo = mu / (mu + 1.0) * eps_sq
    hi = (mu + 1.0) / mu * eps_sq
    w[r_sq <= lo] = 1.0
    w[r_sq >= hi] = 0.0
    mid = (r_sq > lo) & (r_sq < hi)
    w[mid] = np.sqrt(eps_sq * mu * (mu + 1.0) / r_sq[mid]) - mu
    return np.clip(w, 0.0, 1.0)


def solve_gnc_tls(p: RotationProblem) -> RotationSolution:
    """Graduated non-convexity for the truncated rotation objective.

    Starts from the identity rotation, anneals the control parameter
    geometrically until the surrogate matches the truncated cost, and
    re-evaluates the exact objective at the final rotation/indicators.
    """
    eps_sq = p.cbar_sq
    inv_beta_sq = 1.0 / p.beta_bars**2

    def residuals_sq(q):
        R = quat_to_matrix(q)
        return np.sum((p.b_bars - p.a_bars @ R.T) ** 2, axis=1) * inv_beta_sq

    q = np.array([0.0, 0.0, 0.0, 1.0])
    r_sq = residuals_sq(q)
    r_max_sq = float(np.max(r_sq))
    mu = eps_sq / max(2.0 * r_max_sq - eps_sq, 1e-12)
    mu = max(mu, GNC_MU_MIN)

    degenerate = check_collinear(p.a_bars, np.ones(p.size))
    weights = np.ones(p.size)
    converged = False
    iterations = 0
    for iterations in range(1, GNC_MAX_ITERATIONS + 1):
        weights = _weight_update(r_sq, mu, eps_sq)
        if np.count_nonzero(weights * inv_beta_sq) >= 2:
            q = horn_weighted(p.a_bars, p.b_bars, weights * inv_beta_sq)
        r_sq = residuals_sq(q)

        binary = np.max(np.minimum(weights, 1.0 - weights)) < GNC_WEIGHT_TOL
        if mu >= GNC_MU_STOP or binary:
            converged = True
            break
        mu *= GNC_MU_FACTOR

    theta = np.where(weights >= 0.5, 1, -1).astype(np.int64)
    return RotationSolution(
        rotation=q,
        theta=theta,
        cost=binary_cost(p, q, theta),
        gnc_iterations=iterations,
        converged=converged,
        degenerate=degenerate,
    )
