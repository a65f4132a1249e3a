"""Foundational geometric and numeric types shared by every stage.

Quaternions are stored as length-4 vectors ``[x, y, z, w]`` (vector part
first, scalar part last).  The left/right product matrices below are laid
out for exactly this convention; all downstream block algebra in the
certifier relies on it, so do not reorder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

QUAT_NORM_TOL = 1e-12
ROTATION_ORTHO_TOL = 1e-10

IDENTITY_QUAT = np.array([0.0, 0.0, 0.0, 1.0])


def _as_vec(x, n: int, name: str) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.shape != (n,):
        raise ValueError(f"{name} must have shape ({n},), got {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} must be finite")
    return v


def quat_normalize(q) -> np.ndarray:
    """Return q scaled to unit norm; rejects near-zero quaternions."""
    q = _as_vec(q, 4, "quaternion")
    n = np.linalg.norm(q)
    if n < 1e-12:
        raise ValueError("cannot normalize near-zero quaternion")
    return q / n


def left_product_matrix(q) -> np.ndarray:
    """4x4 matrix L(q) such that quat_multiply(q, p) == L(q) @ p.

    Orthogonal for unit q; L(q).T @ q == [0, 0, 0, 1].
    """
    q1, q2, q3, q4 = np.asarray(q, dtype=float)
    return np.array(
        [
            [q4, -q3, q2, q1],
            [q3, q4, -q1, q2],
            [-q2, q1, q4, q3],
            [-q1, -q2, -q3, q4],
        ]
    )


def right_product_matrix(q) -> np.ndarray:
    """4x4 matrix R(q) such that quat_multiply(p, q) == R(q) @ p.

    Commutes with left_product_matrix of any other quaternion:
    L(x) @ R(y) == R(y) @ L(x).
    """
    q1, q2, q3, q4 = np.asarray(q, dtype=float)
    return np.array(
        [
            [q4, q3, -q2, q1],
            [-q3, q4, q1, q2],
            [q2, -q1, q4, q3],
            [-q1, -q2, -q3, q4],
        ]
    )


def quat_multiply(qa, qb) -> np.ndarray:
    return left_product_matrix(qa) @ np.asarray(qb, dtype=float)


def quat_conjugate(q) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    return np.array([-q[0], -q[1], -q[2], q[3]])


def quat_to_matrix(q) -> np.ndarray:
    """Rotation matrix of a unit quaternion (q and -q give the same R)."""
    x, y, z, w = quat_normalize(q)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
        ]
    )


def matrix_to_quat(R) -> np.ndarray:
    """Unit quaternion of a rotation matrix (Shepperd's method).

    Sign convention: scalar part is nonnegative.
    """
    R = np.asarray(R, dtype=float)
    if R.shape != (3, 3):
        raise ValueError("rotation matrix must be 3x3")
    t = np.trace(R)
    cand = [t, R[0, 0], R[1, 1], R[2, 2]]
    case = int(np.argmax(cand))
    if case == 0:
        r = math.sqrt(1.0 + t)
        s = 0.5 / r
        q = np.array(
            [(R[2, 1] - R[1, 2]) * s, (R[0, 2] - R[2, 0]) * s, (R[1, 0] - R[0, 1]) * s, 0.5 * r]
        )
    elif case == 1:
        r = math.sqrt(1.0 + R[0, 0] - R[1, 1] - R[2, 2])
        s = 0.5 / r
        q = np.array(
            [0.5 * r, (R[0, 1] + R[1, 0]) * s, (R[0, 2] + R[2, 0]) * s, (R[2, 1] - R[1, 2]) * s]
        )
    elif case == 2:
        r = math.sqrt(1.0 - R[0, 0] + R[1, 1] - R[2, 2])
        s = 0.5 / r
        q = np.array(
            [(R[0, 1] + R[1, 0]) * s, 0.5 * r, (R[1, 2] + R[2, 1]) * s, (R[0, 2] - R[2, 0]) * s]
        )
    else:
        r = math.sqrt(1.0 - R[0, 0] - R[1, 1] + R[2, 2])
        s = 0.5 / r
        q = np.array(
            [(R[0, 2] + R[2, 0]) * s, (R[1, 2] + R[2, 1]) * s, 0.5 * r, (R[1, 0] - R[0, 1]) * s]
        )
    if q[3] < 0:
        q = -q
    return quat_normalize(q)


def rotate_vector(q, v) -> np.ndarray:
    """Apply the rotation of unit quaternion q to a 3-vector."""
    return quat_to_matrix(q) @ _as_vec(v, 3, "vector")


def quat_from_axis_angle(axis, angle: float) -> np.ndarray:
    axis = _as_vec(axis, 3, "axis")
    n = np.linalg.norm(axis)
    if n == 0:
        raise ValueError("axis must be nonzero")
    half = 0.5 * angle
    return np.concatenate([math.sin(half) * axis / n, [math.cos(half)]])


def random_unit_quaternion(rng: np.random.Generator) -> np.ndarray:
    """Uniform random rotation (normalized 4-d Gaussian sample)."""
    while True:
        q = rng.normal(size=4)
        n = np.linalg.norm(q)
        if n > 1e-6:
            return q / n


def skew(v) -> np.ndarray:
    """Cross-product matrix: skew(v) @ u == cross(v, u)."""
    x, y, z = np.asarray(v, dtype=float)
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def geodesic_rotation_error(Ra, Rb) -> float:
    """Angle in [0, pi] between two rotations.

    Same quantity as arccos((trace(Ra^T Rb) - 1) / 2) with the argument
    clamped to [-1, 1], but evaluated through atan2 of the skew part so
    tiny angles are not quantized at sqrt(ulp) by the arccos.
    """
    Ra = np.asarray(Ra, dtype=float)
    Rb = np.asarray(Rb, dtype=float)
    D = Ra.T @ Rb
    c = min(1.0, max(-1.0, (np.trace(D) - 1.0) / 2.0))
    s = 0.5 * math.sqrt(
        (D[2, 1] - D[1, 2]) ** 2 + (D[0, 2] - D[2, 0]) ** 2 + (D[1, 0] - D[0, 1]) ** 2
    )
    return float(math.atan2(s, c))


def chi2_cdf_3dof(x: float) -> float:
    """CDF of the chi-squared distribution with three degrees of freedom.

    Closed form via the regularized lower incomplete gamma function at
    a = 3/2: P(x) = erf(sqrt(x/2)) - sqrt(2 x / pi) * exp(-x/2).
    """
    if x <= 0:
        return 0.0
    t = 0.5 * x
    return math.erf(math.sqrt(t)) - math.sqrt(2.0 * x / math.pi) * math.exp(-t)


def chi2_quantile_3dof(p: float) -> float:
    """Inverse of chi2_cdf_3dof by bisection."""
    if not 0.0 < p < 1.0:
        raise ValueError("probability must be in (0, 1)")
    lo, hi = 0.0, 1.0
    while chi2_cdf_3dof(hi) < p:
        hi *= 2.0
        if hi > 1e9:
            raise ValueError("quantile out of range")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if chi2_cdf_3dof(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def beta_from_sigma(sigma: float, p: float) -> float:
    """Inlier bound beta with P(||eps||^2 <= beta^2) = p for eps ~ N(0, sigma^2 I3)."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    return sigma * math.sqrt(chi2_quantile_3dof(p))


class UnitQuaternion:
    """Unit-norm quaternion [x, y, z, w]; renormalized on construction."""

    __slots__ = ("_q",)

    def __init__(self, q):
        self._q = quat_normalize(q)
        self._q.flags.writeable = False

    @classmethod
    def identity(cls) -> "UnitQuaternion":
        return cls(IDENTITY_QUAT)

    @classmethod
    def from_matrix(cls, R) -> "UnitQuaternion":
        return cls(matrix_to_quat(R))

    @classmethod
    def from_axis_angle(cls, axis, angle: float) -> "UnitQuaternion":
        return cls(quat_from_axis_angle(axis, angle))

    def as_array(self) -> np.ndarray:
        return self._q

    def to_matrix(self) -> np.ndarray:
        return quat_to_matrix(self._q)

    def conjugate(self) -> "UnitQuaternion":
        return UnitQuaternion(quat_conjugate(self._q))

    def rotate(self, v) -> np.ndarray:
        return rotate_vector(self._q, v)

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self._q, dtype=dtype)

    def __repr__(self) -> str:
        return f"UnitQuaternion({self._q.tolist()})"


@dataclass(frozen=True)
class RigidTransform:
    """Similarity transform: p -> scale * R @ p + translation."""

    scale: float
    rotation: UnitQuaternion
    translation: np.ndarray

    def __post_init__(self):
        if not (np.isfinite(self.scale) and self.scale > 0):
            raise ValueError("scale must be positive and finite")
        if not isinstance(self.rotation, UnitQuaternion):
            object.__setattr__(self, "rotation", UnitQuaternion(self.rotation))
        object.__setattr__(self, "translation", _as_vec(self.translation, 3, "translation"))
        R = self.rotation.to_matrix()
        if np.max(np.abs(R.T @ R - np.eye(3))) > ROTATION_ORTHO_TOL:
            raise ValueError("rotation matrix is not orthonormal")
        if abs(np.linalg.det(R) - 1.0) > ROTATION_ORTHO_TOL:
            raise ValueError("rotation matrix must have determinant +1")

    @property
    def matrix(self) -> np.ndarray:
        return self.rotation.to_matrix()

    def apply(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = self.scale * pts @ self.matrix.T + self.translation
        return out if np.asarray(points).ndim == 2 else out[0]


@dataclass(frozen=True)
class CorrespondenceSet:
    """Putative correspondences (source[i], target[i]) with inlier bounds."""

    source: np.ndarray
    target: np.ndarray
    noise_bounds: np.ndarray

    def __post_init__(self):
        src = np.asarray(self.source, dtype=float)
        tgt = np.asarray(self.target, dtype=float)
        bounds = np.asarray(self.noise_bounds, dtype=float)
        if src.ndim != 2 or src.shape[1] != 3:
            raise ValueError("source must be (N, 3)")
        if tgt.shape != src.shape:
            raise ValueError("source and target must have identical shape")
        if bounds.shape != (src.shape[0],):
            raise ValueError("noise_bounds must be (N,)")
        if src.shape[0] < 1:
            raise ValueError("need at least one correspondence")
        if not (np.all(np.isfinite(src)) and np.all(np.isfinite(tgt))):
            raise ValueError("points must be finite")
        if not np.all(bounds > 0):
            raise ValueError("noise bounds must be positive")
        object.__setattr__(self, "source", src)
        object.__setattr__(self, "target", tgt)
        object.__setattr__(self, "noise_bounds", bounds)

    def __len__(self) -> int:
        return self.source.shape[0]


@dataclass(frozen=True)
class TlsConfig:
    """Knobs of the truncated-least-squares cost.

    cbar_sq is the squared truncation threshold (residuals above it are
    cost-neutral).
    """

    cbar_sq: float = 1.0

    def __post_init__(self):
        if not self.cbar_sq > 0:
            raise ValueError("cbar_sq must be positive")
