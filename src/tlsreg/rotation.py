"""Truncated-least-squares rotation estimation via graduated non-convexity.

Every measurement enters the rotation stage through one bilinear term,
b_k . (R a_k).  A RotationProblem stores its measurements once as a
K x 9 table of the products vec(a_k b_k^T) (see `product_table`), next to
the squared norms |a_k|^2 + |b_k|^2.  Everything the stage computes is
linear in that table:

* the squared residual |b_k - R a_k|^2 is the squared norms minus twice
  the table times vec(R^T) (`RotationProblem.residuals_sq`);
* the weighted cross-covariance sum_k w_k a_k b_k^T is w @ table;
* the quaternion product matrix L(b_k)^T R(a_k) is the table row times
  nine constant 4x4 bases (PRODUCT_BASIS, `product_matrices`).

The inner solver is the closed-form weighted rotation alignment: the
rotation maximizing sum_k w_k b_k . (R a_k) is read off the extremal
eigenvector of the symmetric 4x4 matrix sum_k w_k L(b_k)^T R(a_k), the
cross-covariance contracted with PRODUCT_BASIS.  The outer loop anneals a
surrogate of the truncated cost from nearly-least-squares to the exact
truncated cost, rewriting per-measurement weights in closed form at each
step.  It starts from the all-inlier rotation, the solve with every weight
1/beta^2, as the GNC paper does (Yang et al., RA-L 2020, Algorithm 1).  A
step takes eigh's eigenvector as it comes, close enough that no weight
crosses 1/2 and the loop stops at the same step; only the rotation
returned, the last step's, is polished.  A step whose weights equal the
last solve's, the start's included, keeps that solve's rotation.  On a
clique of inliers the residuals at the start lie well inside the bound,
so the first step's weights are all 1 and that step is the last: a call
costs one rotation solve, at K = 45 about 0.11 ms on one core, against
0.14 ms when the step solved the start's matrix again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    beta_bars are the propagated inlier bounds.  `table`, `sq_norms` and
    `beta_sq` are derived from them on construction, in units of 2^e, the
    power of two just above the largest bound: there the solver's weights
    1/beta^2 stay finite at any unit of length.  Scaling by a power of two
    is exact, so the squared residuals and the solver's weighted sums have
    the bits they have in any units where nothing underflows or overflows.
    """

    a_bars: np.ndarray
    b_bars: np.ndarray
    beta_bars: np.ndarray
    cbar_sq: float = 1.0
    # Each in units of 2^e (see above).
    table: np.ndarray = field(init=False, repr=False)  # (K, 9), see product_table
    sq_norms: np.ndarray = field(init=False, repr=False)  # |a_k|^2 + |b_k|^2
    beta_sq: np.ndarray = field(init=False, repr=False)  # beta_k^2

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
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b)) and np.all(np.isfinite(bb))):
            raise ValueError("measurements and bounds must be finite")
        if not (self.cbar_sq > 0 and np.isfinite(self.cbar_sq)):
            raise ValueError("cbar_sq must be positive and finite")
        object.__setattr__(self, "a_bars", a)
        object.__setattr__(self, "b_bars", b)
        object.__setattr__(self, "beta_bars", bb)
        e = math.frexp(float(np.max(bb)))[1]
        a, b, bb = (np.ldexp(x, -e) for x in (a, b, bb))
        object.__setattr__(self, "table", product_table(a, b))
        object.__setattr__(self, "sq_norms", np.sum(a**2, axis=1) + np.sum(b**2, axis=1))
        object.__setattr__(self, "beta_sq", bb**2)

    @property
    def size(self) -> int:
        return self.a_bars.shape[0]

    def residuals_sq(self, q) -> np.ndarray:
        """Squared residuals |b_k - R a_k|^2 / beta_k^2 at a rotation.

        Expanded as |a_k|^2 + |b_k|^2 - 2 b_k . (R a_k); the clip at zero
        removes the round-off of that difference on exact inliers.
        """
        R = quat_to_matrix(q)
        return np.maximum(self.sq_norms - 2.0 * (self.table @ R.T.ravel()), 0.0) / self.beta_sq


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


def product_table(a, b) -> np.ndarray:
    """(K, 9) rows vec(a_k b_k^T) of the rows of a and b (both (K, 3)):
    column 3j+i holds a_kj * b_ki, the order of PRODUCT_BASIS.reshape(9, 4, 4).
    einsum sums no index here, so each entry is that one product, with the
    bits of the broadcast product and in two thirds of its time."""
    return np.einsum("kj,ki->kji", a, b).reshape(-1, 9)


def product_matrices(table) -> np.ndarray:
    """L(b_k)^T R(a_k) for the pure quaternions a_k, b_k behind each row
    of a product table: (..., 9) -> (..., 4, 4)."""
    return (table @ PRODUCT_BASIS.reshape(9, 16)).reshape(*np.shape(table)[:-1], 4, 4)


def check_collinear(a_bars) -> bool:
    """True when all directions share one line (rotation about that line
    is unobservable).  The points are taken in units of the power of two
    just above their largest coordinate, so any unit of length gives the
    same answer."""
    pts = np.asarray(a_bars, dtype=float)
    if pts.shape[0] < 2:
        return True
    pts = np.ldexp(pts, -math.frexp(float(np.max(np.abs(pts))))[1])
    eigvals = np.linalg.eigvalsh(pts.T @ pts)
    return eigvals[1] <= COLLINEAR_REL_TOL * eigvals[-1]


def _polish(M, eigvals, q) -> np.ndarray:
    """eigh's max-eigenvalue eigenvector q of the 4x4 matrix M, unit, w >= 0:
    its error grows with 1/eigengap, and two shifted inverse-iteration
    solves push it to machine precision."""
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


def _horn(cross_cov) -> np.ndarray:
    """Unit quaternion maximizing sum_k w_k b_k . (R a_k), given the
    weighted cross-covariance w @ table: the max-eigenvalue eigenvector of
    sum_k w_k L(b_k)^T R(a_k), polished.  That matrix is exactly
    symmetric, since each PRODUCT_BASIS matrix is."""
    M = product_matrices(cross_cov)
    eigvals, eigvecs = np.linalg.eigh(M)
    return _polish(M, eigvals, eigvecs[:, -1])


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
    return _horn(w @ product_table(a, b))


def binary_cost(p: RotationProblem, q, theta) -> float:
    """Objective of the binary-indicator form: inliers pay their weighted
    squared residual, outliers pay the truncation constant."""
    return float(np.sum(np.where(np.asarray(theta) > 0, p.residuals_sq(q), p.cbar_sq)))


def _weight_update(r_sq, mu, eps_sq) -> np.ndarray:
    # The square-root law is >= 1 for r_sq <= mu/(mu+1) eps_sq and <= 0 for
    # r_sq >= (mu+1)/mu eps_sq, so the clip gives the binary weights there;
    # a zero residual divides to inf and clips to 1, under the caller's
    # np.errstate(divide="ignore", over="ignore").
    return np.clip(np.sqrt(eps_sq * mu * (mu + 1.0) / r_sq) - mu, 0.0, 1.0)


def solve_gnc_tls(p: RotationProblem) -> RotationSolution:
    """Graduated non-convexity for the truncated rotation objective.

    Starts from the all-inlier rotation (every weight 1/beta^2), anneals
    the control parameter geometrically from the value its residuals give
    until the surrogate matches the truncated cost, and re-evaluates the
    exact objective at the final rotation/indicators.
    """
    eps_sq = p.cbar_sq
    inv_beta_sq = 1.0 / p.beta_sq
    # The start is the solve with every weight 1, already polished.
    solved_w = inv_beta_sq
    q = _horn(solved_w @ p.table)
    r_sq = p.residuals_sq(q)
    r_max_sq = float(np.max(r_sq))
    mu = eps_sq / max(2.0 * r_max_sq - eps_sq, 1e-12)
    mu = max(mu, GNC_MU_MIN)

    degenerate = check_collinear(p.a_bars)
    weights = np.ones(p.size)
    converged = False
    iterations = 0
    solved = None  # matrix and eigenvalues of the last step's solve, if any
    with np.errstate(divide="ignore", over="ignore"):
        for iterations in range(1, GNC_MAX_ITERATIONS + 1):
            weights = _weight_update(r_sq, mu, eps_sq)
            w = weights * inv_beta_sq
            # Weights equal to the last solve's give its rotation again.
            if np.count_nonzero(w) >= 2 and not np.array_equal(w, solved_w):
                M = product_matrices(w @ p.table)
                eigvals, eigvecs = np.linalg.eigh(M)
                q, solved, solved_w = eigvecs[:, -1], (M, eigvals), w

            binary = np.max(np.minimum(weights, 1.0 - weights)) < GNC_WEIGHT_TOL
            if mu >= GNC_MU_STOP or binary:
                converged = True
                break
            r_sq = p.residuals_sq(q)
            mu *= GNC_MU_FACTOR
    if solved is not None:
        q = _polish(*solved, q)

    theta = np.where(weights >= 0.5, 1, -1).astype(np.int64)
    return RotationSolution(
        rotation=q,
        theta=theta,
        cost=binary_cost(p, q, theta),
        gnc_iterations=iterations,
        converged=converged,
        degenerate=degenerate,
    )
