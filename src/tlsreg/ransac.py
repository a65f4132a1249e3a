"""Sampling-based registration baseline for benchmark comparison.

Classic hypothesize-and-verify: three random correspondences give a
closed-form similarity hypothesis, inliers are counted under a distance
threshold, and the loop stops early once the usual confidence bound says
an all-inlier sample was almost surely drawn.  Final model is refit on
the best consensus set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import CorrespondenceSet, RigidTransform, UnitQuaternion, quat_to_matrix
from .rotation import horn_weighted

RANSAC_CONFIDENCE = 0.99


@dataclass(frozen=True)
class RansacResult:
    transform: RigidTransform
    inlier_mask: np.ndarray
    iterations: int


def absolute_orientation(src, dst, fix_scale: float | None = None):
    """Closed-form similarity (s, R, t) minimizing least squares.

    Centroids decouple the translation; the rotation comes from the
    quaternion eigenvector solver and the scale from the aligned
    correlation ratio.  Returns (s, q, R, t), with q the unit quaternion
    [x, y, z, w] of R.
    """
    src = np.asarray(src, dtype=float)
    dst = np.asarray(dst, dtype=float)
    mu_s = src.mean(axis=0)
    mu_d = dst.mean(axis=0)
    a = src - mu_s
    b = dst - mu_d
    q = horn_weighted(a, b, np.ones(src.shape[0]))
    R = quat_to_matrix(q)
    if fix_scale is not None:
        s = float(fix_scale)
    else:
        denom = float(np.sum(a * a))
        s = float(np.sum(b * (a @ R.T)) / denom) if denom > 0 else 1.0
    t = mu_d - s * R @ mu_s
    return s, q, R, t


def ransac_baseline(
    c: CorrespondenceSet,
    max_iters: int = 1000,
    seed: int = 0,
    known_scale: float | None = None,
) -> RansacResult:
    """Three-point similarity RANSAC over the given correspondences.

    A correspondence is an inlier when its residual is within its noise
    bound; the loop stops once an all-inlier sample has been drawn with
    probability RANSAC_CONFIDENCE.
    """
    n = len(c)
    if n < 3:
        raise ValueError("need at least 3 correspondences")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    rng = np.random.Generator(np.random.Philox(seed))

    best_mask = np.zeros(n, dtype=bool)
    best_count = -1
    needed = max_iters
    it = 0
    while it < min(needed, max_iters):
        it += 1
        idx = rng.choice(n, size=3, replace=False)
        src3 = c.source[idx]
        if np.linalg.matrix_rank(src3 - src3.mean(axis=0)) < 2:
            continue
        try:
            s, _, R, t = absolute_orientation(src3, c.target[idx], fix_scale=known_scale)
        except ValueError:
            continue
        if s <= 0:
            continue
        dist = np.linalg.norm(c.target - s * c.source @ R.T - t, axis=1)
        mask = dist <= c.noise_bounds
        count = int(mask.sum())
        if count > best_count:
            best_count = count
            best_mask = mask
            w = max(count / n, 1e-9)
            if w >= 1.0:
                break
            denom = min(math.log(max(1.0 - w**3, 1e-12)), -1e-15)
            needed = min(max_iters, math.ceil(math.log(1.0 - RANSAC_CONFIDENCE) / denom))

    if best_count >= 3:
        s, q, _, t = absolute_orientation(
            c.source[best_mask], c.target[best_mask], fix_scale=known_scale
        )
    else:
        s, q, _, t = absolute_orientation(c.source, c.target, fix_scale=known_scale)
        best_mask = np.ones(n, dtype=bool)
    transform = RigidTransform(scale=s, rotation=UnitQuaternion(q), translation=t)
    return RansacResult(transform=transform, inlier_mask=best_mask, iterations=it)
