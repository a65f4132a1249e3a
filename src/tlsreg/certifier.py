"""A-posteriori global-optimality certification for the rotation stage.

The truncated rotation objective, after cloning one quaternion per
measurement with a sign indicator, is a quadratic form x^T Q x over
x = [q; theta_1 q; ...; theta_K q].  A candidate (q_hat, theta_hat) with
cost mu_hat is globally optimal when a dual matrix exists that is PSD,
kills x_hat, and differs from Q - mu_hat * J by a structured correction
(diagonal 4x4 blocks summing to zero, skew off-diagonal blocks).

Working in the frame rotated by q_hat turns the candidate into the
constant vector x_bar = [1, theta_1, ..., theta_K] (x) [0,0,0,1] and makes
both projections of the Douglas-Rachford splitting closed-form; the
minimum eigenvalue of the affine-feasible iterate yields the relative
sub-optimality bound eta = |lambda_1| (K+1) / mu_hat at every step.  The
frame rotation O = diag(L(q_hat), ..., L(q_hat)) commutes with each
R(a_k) and turns L(b_k) into L(R^T b_k), so the rotated matrix O^T Q O is
the cost matrix of the rotated measurements (a_k, R^T b_k), assembled by
the same arrow formula as Q.

Internally the measurements are normalized by their noise bounds
(a <- a/beta, b <- b/beta), which drops every beta^2 denominator from the
block formulas; costs are unchanged.

An iteration costs two dense LAPACK eigensolves of the 4(K+1)-square
iterates.  The PSD projection solves only for the non-positive eigenpairs
(a handful on the splitting's iterates); the minimum eigenvalue stays an
exact dense solve, because an iterative eigensolver's smallest Ritz value
is not proven to be the smallest eigenvalue and a missed one would make
eta unsound.  The affine projection is closed-form and works on one copy
of the iterate.  At K=100 (404x404, one BLAS thread, 2-core x86-64) the
PSD projection takes about 9 ms, the minimum eigenvalue 6-7 ms and the
affine projection 3 ms.  The two eigensolves import scipy.linalg on the
first certification, not with the package: the registration pipeline
never needs it, and loading it costs about 0.3 s and 27 MB.

Every iterate's bound is sound on its own, so the loop may stop at any
iteration: stopping early can only return a larger eta, never an unsound
one.  `certify` therefore gives up on a candidate whose best eta has
stalled, one that fell by less than STALL_REL_DROP over the last
STALL_WINDOW iterations (see `stalled`).  On 148 accurate GNC candidates
at K=100 the best eta fell by more than half over every 10-iteration
window until it certified, so none of them stops early; 31 corrupted ones
(three inliers flipped) stopped after 11-26 iterations, with an eta at
most 3% above its 200-iteration value.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .geometry import quat_normalize, quat_to_matrix
from .rotation import RotationProblem, binary_cost, product_matrices, product_table

# Stall exit: the splitting gives up once the best eta has fallen by less
# than STALL_REL_DROP (relative) over the last STALL_WINDOW iterations.
STALL_WINDOW = 10
STALL_REL_DROP = 0.01
# Fixed-point exit: a Douglas-Rachford step (relaxation 1) below this
# Frobenius norm ends the splitting.
FIXED_POINT_TOL = 1e-10
# |lambda_1| below this times max(1, ||M||_F) is numerically zero: the
# dual certificate holds to machine precision.
EIG_ZERO_REL_TOL = 1e-10
# Inlier stationarity residual above which the candidate is reported as
# not stationary.
STATIONARITY_TOL = 1e-6


class Verdict(Enum):
    """How the splitting ended.

    CERTIFIED: the best eta fell below the target; the candidate is
    globally optimal to within that relative bound.
    SUBOPTIMAL: the splitting reached a fixed point or its best eta stalled
    above the target; eta is the best (sound) bound it found.
    BUDGET_EXHAUSTED: eta was still improving when max_iters ran out.
    """

    CERTIFIED = "certified"
    SUBOPTIMAL = "suboptimal"
    BUDGET_EXHAUSTED = "budget_exhausted"


@dataclass(frozen=True)
class QcqpData:
    """Dense symmetric cost matrix with the arrow block pattern.

    Only blocks (0,0), (0,k), (k,0), (k,k) may be nonzero.  na/nb keep the
    bound-normalized measurements for the projection formulas.
    """

    Q: np.ndarray
    K: int
    cbar_sq: float
    na: np.ndarray
    nb: np.ndarray


@dataclass(frozen=True)
class CandidateSolution:
    q_hat: np.ndarray
    thetas: np.ndarray
    mu_hat: float


@dataclass(frozen=True)
class RotatedData:
    """Candidate-frame quantities consumed by the projections."""

    Q_bar: np.ndarray
    xi: np.ndarray  # (K, 3) rotated residuals of the normalized TIMs
    na: np.ndarray  # (K, 3) normalized source differences
    thetas: np.ndarray  # (K+1,) with the leading +1 prepended
    mu_hat: float
    cbar_sq: float
    K: int
    stationarity_residual: float


@dataclass(frozen=True)
class Certificate:
    eta: float
    iterations_used: int
    verdict: Verdict
    min_eigenvalue_trace: tuple
    mu_hat: float
    stationarity_residual: float
    # False when the candidate violates the inlier stationarity identity
    # beyond tolerance; the dual subspace then kills the candidate vector
    # only approximately and the sub-optimality bound degrades gracefully.
    candidate_stationary: bool = True

    @property
    def certified(self) -> bool:
        return self.verdict is Verdict.CERTIFIED


@dataclass(frozen=True)
class CertifyOptions:
    max_iters: int = 200
    eta_target: float = 1e-3

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not (self.eta_target > 0 and np.isfinite(self.eta_target)):
            raise ValueError("eta_target must be positive and finite")


def x_vector(q, thetas) -> np.ndarray:
    thetas = np.asarray(thetas, dtype=float)
    return np.kron(np.concatenate([[1.0], thetas]), np.asarray(q, dtype=float))


def make_candidate(p: RotationProblem, q, thetas) -> CandidateSolution:
    """Candidate with its cost evaluated in the binary-indicator form."""
    q = np.asarray(q, dtype=float)
    thetas = np.asarray(thetas)
    if thetas.shape != (p.size,) or not np.all(np.abs(thetas) == 1):
        raise ValueError("thetas must be +-1 of length K")
    thetas = thetas.astype(np.int64)
    return CandidateSolution(q_hat=q, thetas=thetas, mu_hat=binary_cost(p, q, thetas))


def _arrow_matrix(na, nb, cb) -> np.ndarray:
    """Arrow-pattern cost matrix of bound-normalized measurements (K, 3)."""
    K = na.shape[0]
    # L(b) = -L(b)^T for a pure quaternion b, so the coupling L(nb_k) R(na_k)
    # is minus the rotation stage's product.  Its symmetric part, summed as
    # P + P^T, is exactly symmetric, and so is Q.
    prods = -product_matrices(product_table(na, nb))
    sq = np.sum(na**2, axis=1) + np.sum(nb**2, axis=1)
    eye4 = np.eye(4)
    core = sq[:, None, None] * eye4 + (prods + prods.transpose(0, 2, 1))
    q_kk = 0.5 * core + 0.5 * cb * eye4
    q_0k = 0.25 * core - 0.25 * cb * eye4

    idx = np.arange(1, K + 1)
    Q = np.zeros((K + 1, 4, K + 1, 4))
    Q[idx, :, idx, :] = q_kk
    Q[0, :, 1:, :] = q_0k.transpose(1, 0, 2)
    Q[1:, :, 0, :] = q_0k
    n = 4 * (K + 1)
    return Q.reshape(n, n)


def build_cost_matrix(p: RotationProblem) -> QcqpData:
    """Assemble Q so that x^T Q x reproduces the binary-indicator cost."""
    na = p.a_bars / p.beta_bars[:, None]
    nb = p.b_bars / p.beta_bars[:, None]
    return QcqpData(Q=_arrow_matrix(na, nb, p.cbar_sq), K=p.size, cbar_sq=p.cbar_sq, na=na, nb=nb)


def qcqp_cost(data: QcqpData, q, thetas) -> float:
    x = x_vector(q, thetas)
    return float(x @ data.Q @ x)


def rotate_to_candidate_frame(data: QcqpData, cand: CandidateSolution) -> RotatedData:
    """Similarity-transform Q by the block-diagonal candidate rotation.

    The candidate vector becomes [1, theta] (x) e; eigenvalues of Q are
    preserved, so sub-optimality bounds transfer unchanged.  The
    transformed matrix is the cost matrix of the measurements
    (na_k, R^T nb_k).
    """
    nb_rot = data.nb @ quat_to_matrix(cand.q_hat)  # R^T nb_k, row-wise
    xi = nb_rot - data.na
    inlier = cand.thetas > 0
    stat = np.cross(xi[inlier], data.na[inlier]).sum(axis=0)
    return RotatedData(
        Q_bar=_arrow_matrix(data.na, nb_rot, data.cbar_sq),
        xi=xi,
        na=data.na,
        thetas=np.concatenate([[1.0], np.asarray(cand.thetas, dtype=float)]),
        mu_hat=cand.mu_hat,
        cbar_sq=data.cbar_sq,
        K=data.K,
        stationarity_residual=float(np.linalg.norm(stat)),
    )


def _diag_scalar_targets(rot: RotatedData) -> np.ndarray:
    """Fixed scalar parts of the correction's diagonal blocks."""
    th = rot.thetas[1:]
    xi_sq = np.sum(rot.xi**2, axis=1)
    vals = -(0.25 * th + 0.5) * xi_sq + (0.25 * th - 0.5) * rot.cbar_sq
    return np.concatenate([[-vals.sum()], vals])


def _phi_vectors(rot: RotatedData) -> np.ndarray:
    """Fixed part of the diagonal blocks' vector coupling."""
    th = rot.thetas[1:]
    cross = np.cross(rot.xi, rot.na)  # skew(xi_k) @ na_k, row-wise
    phi_k = -(0.5 * th + 1.0)[:, None] * cross
    return np.concatenate([[-phi_k.sum(axis=0)], phi_k])


def initial_dual_guess(rot: RotatedData) -> np.ndarray:
    """Analytic correction that lands in the dual subspace directly.

    Off-diagonal correction blocks are zero; the diagonal blocks' scalar
    and vector parts enforce the null-vector equations, and the matrix
    parts are chosen so the guess is already PSD on noise-free data.
    The guess is Q_bar - mu_hat * J + correction, built in one copy of
    Q_bar: J is the identity on block (0,0), and the correction touches
    only the diagonal blocks.
    """
    K = rot.K
    th = rot.thetas[1:]
    xi_sq = np.sum(rot.xi**2, axis=1)
    scalars = _diag_scalar_targets(rot)
    phis = _phi_vectors(rot)

    q0k_m = rot.Q_bar.reshape(K + 1, 4, K + 1, 4)[0, 0:3, 1:, 0:3].transpose(1, 0, 2)
    coef = (0.25 * th + 0.25) * xi_sq + 0.5 * rot.cbar_sq
    mats = -q0k_m - coef[:, None, None] * np.eye(3)
    mats = 0.5 * (mats + mats.transpose(0, 2, 1))

    blocks = np.zeros((K + 1, 4, 4))
    blocks[0, 0:3, 0:3] = -mats.sum(axis=0)
    blocks[1:, 0:3, 0:3] = mats
    blocks[:, 0:3, 3] = phis
    blocks[:, 3, 0:3] = phis
    blocks[:, 3, 3] = scalars

    M = rot.Q_bar.copy()
    M[0:4, 0:4] -= rot.mu_hat * np.eye(4)
    idx = np.arange(K + 1)
    M.reshape(K + 1, 4, K + 1, 4)[idx, :, idx, :] += blocks
    return M


def project_to_psd_cone(M: np.ndarray) -> np.ndarray:
    """Frobenius-nearest positive semidefinite matrix.

    Clipping the negative eigenvalues to zero is the same as subtracting the
    non-positive eigenpairs, sym - V diag(lam) V^T with lam <= 0.  The
    splitting's iterates have only a handful of those, so solving for them
    alone skips the full eigenvector basis and the n^3 reconstruction: at
    n=404 with 4-6 such eigenpairs, 9 ms against 22-25 ms for the full
    decomposition, agreeing to 2e-11.  numpy forms the correction W W^T,
    W = V sqrt(-lam), as a symmetric rank-r update, so the result stays
    symmetric.
    """
    import scipy.linalg

    sym = M + M.T
    sym *= 0.5
    vals, vecs = scipy.linalg.eigh(
        sym, subset_by_value=(-np.inf, 0.0), driver="evr", check_finite=False
    )
    if vals.size:
        W = vecs * np.sqrt(-vals)
        sym += W @ W.T
    return sym


def project_to_dual_subspace(M: np.ndarray, rot: RotatedData) -> np.ndarray:
    """Frobenius-nearest member of the rotated dual subspace.

    Block-component recipe on H = M - Q_bar + mu_hat * J: demean the
    diagonal 3x3 matrix parts, pin the diagonal scalar and vector parts to
    their analytic targets, skew-symmetrize off-diagonal matrix parts,
    zero off-diagonal scalars, and solve the coupled off-diagonal vector
    system through its closed-form inverse; finally add Q_bar - mu_hat * J
    back.  J is mu_hat * I on block (0,0) only, so it is applied there in
    place.  The result is exactly symmetric because Q_bar is.
    """
    K = rot.K
    n_blocks = K + 1
    mu_eye = rot.mu_hat * np.eye(4)
    H = M + M.T
    H *= 0.5
    H -= rot.Q_bar
    H[0:4, 0:4] += mu_eye
    Hr = H.reshape(n_blocks, 4, n_blocks, 4)

    mats = Hr[:, 0:3, :, 0:3]  # (B, 3, B, 3)
    top = np.transpose(Hr[:, 0:3, :, 3], (0, 2, 1))  # top[i, j] = upper-right 3-vec
    vec_bot = Hr[:, 3, :, 0:3]  # (B, B, 3)

    # Diagonal blocks: demeaned matrix part, pinned scalar and vector parts.
    idx = np.arange(n_blocks)
    diag_mats = mats[idx, :, idx, :]  # (B, 3, 3)
    diag_mats -= diag_mats.mean(axis=0)
    scalars = _diag_scalar_targets(rot)
    phis = _phi_vectors(rot)

    # Off-diagonal vector parts: signed antisymmetric system solved in
    # closed form.  V collects theta-weighted right-hand sides; the
    # solution is V/2 - (row-sum differences)/(2K+6).  Both terms of V are
    # exactly antisymmetric, so the off-diagonal vectors mirror exactly.
    th = rot.thetas
    pd = phis - top[idx, idx]  # pinned minus current diagonal vector parts
    tt = np.outer(th, th)
    V = tt[:, :, None] * (top - vec_bot) + (pd[:, None, :] - pd[None, :, :])
    V[idx, idx] = 0.0
    RS = V.sum(axis=1)  # (B, 3)
    p2 = 1.0 / (2.0 * K + 6.0)
    V_new = 0.5 * V - p2 * (RS[:, None, :] - RS[None, :, :])
    V_new[idx, idx] = 0.0
    W = tt[:, :, None] * V_new  # top-right vector of every off-diag block

    diag_vecs = phis - RS / (K + 3.0)

    # Off-diagonal matrix parts: nearest skew-symmetric (element-axis
    # transpose within each block).  Over the whole 4x4 block this also
    # zeroes the off-diagonal scalars; every other slot is overwritten.
    out = Hr - np.transpose(Hr, (0, 3, 2, 1))
    out *= 0.5
    out[:, 0:3, :, 3] = np.transpose(W, (0, 2, 1))
    out[:, 3, :, 0:3] = -W
    out[idx, 0:3, idx, 0:3] = diag_mats
    out[idx, 0:3, idx, 3] = diag_vecs
    out[idx, 3, idx, 0:3] = diag_vecs
    out[idx, 3, idx, 3] = scalars

    result = out.reshape(M.shape)
    result += rot.Q_bar
    result[0:4, 0:4] -= mu_eye
    return result


def min_eigenvalue(M: np.ndarray) -> float:
    import scipy.linalg

    vals = scipy.linalg.eigh(
        M, eigvals_only=True, subset_by_index=(0, 0), check_finite=False
    )
    return float(vals[0])


def stalled(best_etas) -> bool:
    """True when the best eta fell by less than STALL_REL_DROP (relative)
    over the last STALL_WINDOW iterations.

    `best_etas[t - 1]` is the best eta after iteration t, so at iteration
    t > W this tests best[t] > (1 - r) * best[t - W].  Shorter histories
    never stall, nor does an infinite eta.
    """
    if len(best_etas) <= STALL_WINDOW:
        return False
    return best_etas[-1] > (1.0 - STALL_REL_DROP) * best_etas[-1 - STALL_WINDOW]


def certify(
    data: QcqpData, cand: CandidateSolution, opts: CertifyOptions = CertifyOptions()
) -> Certificate:
    """Douglas-Rachford search for a PSD dual certificate.

    Returns the best sub-optimality bound seen across iterations; the
    candidate is certified when the bound drops below the target.  A
    minimum eigenvalue within round-off of zero (relative to the iterate's
    norm) counts as exactly zero: the certificate then holds to machine
    precision and eta is reported as 0.

    Each iteration first tests for certification, then for a fixed point,
    then for a stall (`stalled`: less than a 1% drop of the best eta over
    10 iterations); the last two end the search as SUBOPTIMAL, so a stall
    never yields CERTIFIED.  Every iterate's eta is a sound bound, so the
    eta of a stalled search is sound too, only possibly larger than more
    iterations would have given.
    """
    if not np.all(np.isfinite(data.Q)):
        raise ValueError("cost matrix must be finite")
    if not np.isfinite(cand.mu_hat):
        raise ValueError("candidate cost must be finite")

    rot = rotate_to_candidate_frame(data, cand)
    # mu_hat is the cost at the rotation of q_hat, so compare at unit norm.
    check = qcqp_cost(data, quat_normalize(cand.q_hat), cand.thetas)
    if abs(check - cand.mu_hat) > 1e-9 * max(1.0, abs(check)):
        raise ValueError("candidate mu_hat does not match x^T Q x")

    K = data.K
    M = initial_dual_guess(rot)
    eta = np.inf
    trace = []
    best = []
    verdict = Verdict.BUDGET_EXHAUSTED
    iterations = 0
    for iterations in range(1, opts.max_iters + 1):
        M_psd = project_to_psd_cone(M)
        reflected = 2.0 * M_psd
        reflected -= M
        M_aff = project_to_dual_subspace(reflected, rot)
        step = M_aff - M_psd
        M += step

        lam1 = min_eigenvalue(M_aff)
        scale = max(1.0, float(np.linalg.norm(M_aff)))
        if abs(lam1) <= EIG_ZERO_REL_TOL * scale:
            lam1 = 0.0
        trace.append(lam1)

        if lam1 == 0.0:
            eta_t = 0.0
        elif rot.mu_hat > 0.0:
            eta_t = abs(lam1) * (K + 1) / rot.mu_hat
        else:
            eta_t = np.inf
        eta = min(eta, eta_t)
        best.append(eta)

        if eta < opts.eta_target:
            verdict = Verdict.CERTIFIED
            break
        if float(np.linalg.norm(step)) < FIXED_POINT_TOL or stalled(best):
            verdict = Verdict.SUBOPTIMAL
            break

    return Certificate(
        eta=float(eta),
        iterations_used=iterations,
        verdict=verdict,
        min_eigenvalue_trace=tuple(trace),
        mu_hat=rot.mu_hat,
        stationarity_residual=rot.stationarity_residual,
        candidate_stationary=rot.stationarity_residual <= STATIONARITY_TOL,
    )
