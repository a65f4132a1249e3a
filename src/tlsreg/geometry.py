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

ROTATION_ORTHO_TOL = 1e-10


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
    """4x4 left-product matrix: the quaternion product q * p equals L(q) @ p.

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
    """4x4 right-product matrix: the quaternion product p * q equals R(q) @ p.

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


def random_unit_quaternion(rng: np.random.Generator) -> np.ndarray:
    """Uniform random rotation (normalized 4-d Gaussian sample)."""
    while True:
        q = rng.normal(size=4)
        n = np.linalg.norm(q)
        if n > 1e-6:
            return q / n


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


class UnitQuaternion:
    """Unit-norm quaternion [x, y, z, w]; renormalized on construction."""

    __slots__ = ("_q",)

    def __init__(self, q):
        self._q = quat_normalize(q)
        self._q.flags.writeable = False

    def as_array(self) -> np.ndarray:
        return self._q

    def to_matrix(self) -> np.ndarray:
        return quat_to_matrix(self._q)

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
        if not np.all((bounds > 0) & np.isfinite(bounds)):
            raise ValueError("noise bounds must be positive and finite")
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
        if not (self.cbar_sq > 0 and math.isfinite(self.cbar_sq)):
            raise ValueError("cbar_sq must be positive and finite")
