"""Synthetic benchmark instances reproducing the standard protocol.

Source points live in the unit cube; the transform draws a scale in
[1, 5] (unless fixed), a uniform random rotation, and a translation of
norm at most 1.  Inlier noise is an isotropic Gaussian resampled until
its norm respects the bound; outliers replace the target point with a
uniform sample inside a radius-5 ball.

Randomness comes from the counter-based Philox generator keyed by the
seed, so streams are reproducible across platforms and can be replayed
from any language with a Philox implementation.
"""

from __future__ import annotations

import importlib.resources
import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    CorrespondenceSet,
    RigidTransform,
    UnitQuaternion,
    random_unit_quaternion,
)

NOISELESS_BETA_FLOOR = 1e-2
BETA_SIGMA_FACTOR = 5.54  # one-in-a-million tail of the 3-dof chi law
# Smallest beta / sigma accepted: a Gaussian draw then lands within beta
# with probability >= 1.08e-3, so the resampling in _bounded_noise ends.
MIN_BETA_OVER_SIGMA = 0.16
TRANSLATION_NORM_MAX = 1.0
OUTLIER_RADIUS = 5.0


@dataclass(frozen=True)
class SyntheticSpec:
    n_points: int
    sigma: float = 0.01
    outlier_rate: float = 0.0
    scale_range: tuple = (1.0, 5.0)
    seed: int = 0
    known_scale: bool = False
    all_to_all: bool = False
    overlap_fraction: float = 1.0
    beta: float | None = None
    use_reference_cloud: bool = False

    def __post_init__(self):
        if self.n_points < 1:
            raise ValueError("n_points must be positive")
        if not 0.0 <= self.outlier_rate < 1.0:
            raise ValueError("outlier_rate must be in [0, 1)")
        if not self.sigma >= 0:
            raise ValueError("sigma must be nonnegative")
        if not 0.0 < self.overlap_fraction <= 1.0:
            raise ValueError("overlap_fraction must be in (0, 1]")
        if not 0 < self.noise_bound < math.inf:
            raise ValueError("noise bound (beta) must be positive and finite")
        if self.noise_bound < MIN_BETA_OVER_SIGMA * self.sigma:
            raise ValueError(f"noise bound (beta) must be at least {MIN_BETA_OVER_SIGMA} * sigma")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")

    @property
    def noise_bound(self) -> float:
        if self.beta is not None:
            return float(self.beta)
        return max(BETA_SIGMA_FACTOR * self.sigma, NOISELESS_BETA_FLOOR)


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def load_reference_cloud() -> np.ndarray:
    """Bundled 40-point test cloud, fit inside the unit cube."""
    from .plyio import read_ascii_ply

    ref = importlib.resources.files("tlsreg") / "data" / "reference40.ply"
    with importlib.resources.as_file(ref) as path:
        return read_ascii_ply(path)


def _unit_cube_cloud(rng, n: int, use_reference: bool) -> np.ndarray:
    if use_reference:
        pts = load_reference_cloud()
        if n > pts.shape[0]:
            raise ValueError("reference cloud has only 40 points")
        return pts[:n]
    return rng.uniform(0.0, 1.0, size=(n, 3))


def _random_transform(rng, spec: SyntheticSpec) -> RigidTransform:
    if spec.known_scale:
        s = 1.0
    else:
        s = float(rng.uniform(*spec.scale_range))
    q = random_unit_quaternion(rng)
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    t = direction * rng.uniform(0.0, TRANSLATION_NORM_MAX)
    return RigidTransform(scale=s, rotation=UnitQuaternion(q), translation=t)


def _bounded_noise(rng, n: int, sigma: float, beta: float) -> np.ndarray:
    """Gaussian draws resampled until each row's norm is within beta.

    Each round draws one row per row still missing and keeps, in order,
    those within beta.  A round never draws past the last row a one-row-
    at-a-time loop would draw, so the rows kept and the generator's state
    afterwards are the same as that loop's.
    """
    if sigma == 0.0:
        return np.zeros((n, 3))
    out = np.empty((n, 3))
    kept = 0
    while kept < n:
        e = rng.normal(0.0, sigma, size=(n - kept, 3))
        # Each row's product calls the BLAS dot that np.dot(row, row) calls:
        # a sum of squares can round either way at the boundary, and the
        # stream must keep the rows a one-row draw keeps.
        sq = (e[:, None, :] @ e[:, :, None]).ravel()
        e = e[sq <= beta * beta]
        out[kept:kept + len(e)] = e
        kept += len(e)
    return out


def _ball_samples(rng, n: int, radius: float) -> np.ndarray:
    d = rng.normal(size=(n, 3))
    d /= np.linalg.norm(d, axis=1)[:, None]
    r = radius * rng.uniform(0.0, 1.0, size=n) ** (1.0 / 3.0)
    return d * r[:, None]


def generate(spec: SyntheticSpec):
    """Build one instance: correspondences, ground truth, inlier labels."""
    rng = _rng(spec.seed)
    beta = spec.noise_bound
    src = _unit_cube_cloud(rng, spec.n_points, spec.use_reference_cloud)
    gt = _random_transform(rng, spec)

    if spec.all_to_all:
        return _generate_all_pairs(rng, spec, src, gt, beta)

    dst = gt.apply(src) + _bounded_noise(rng, spec.n_points, spec.sigma, beta)
    n_out = round(spec.outlier_rate * spec.n_points)
    labels = np.ones(spec.n_points, dtype=bool)
    if n_out:
        out_idx = rng.choice(spec.n_points, size=n_out, replace=False)
        dst[out_idx] = _ball_samples(rng, n_out, OUTLIER_RADIUS)
        labels[out_idx] = False
    c = CorrespondenceSet(src, dst, np.full(spec.n_points, beta))
    return c, gt, labels


def _generate_all_pairs(rng, spec, src, gt, beta):
    """Correspondence-free mode: pair every source point with every kept
    target point; only the matching pairs are labeled inliers."""
    dst_full = gt.apply(src) + _bounded_noise(rng, spec.n_points, spec.sigma, beta)
    n_keep = max(1, round(spec.overlap_fraction * spec.n_points))
    kept = np.sort(rng.choice(spec.n_points, size=n_keep, replace=False))
    dst = dst_full[kept]

    n_src = src.shape[0]
    src_rep = np.repeat(src, n_keep, axis=0)
    dst_rep = np.tile(dst, (n_src, 1))
    labels = np.zeros(n_src * n_keep, dtype=bool)
    for col, orig in enumerate(kept):
        labels[orig * n_keep + col] = True
    c = CorrespondenceSet(src_rep, dst_rep, np.full(n_src * n_keep, beta))
    return c, gt, labels
