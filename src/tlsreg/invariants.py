"""Pairwise invariant measurements over the complete correspondence graph.

TIMs (translation-invariant measurements) are vector differences of
corresponding points along graph edges; the ratios of their norms (TRIMs)
are additionally rotation-invariant and measure only the scale.  Noise
bounds propagate as beta_i + beta_j for a TIM and (beta_i + beta_j) /
||a_bar|| for a TRIM.

The graph is always complete: only there do mutually consistent inliers
form a clique, which the maximum-clique pruning stage looks for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import CorrespondenceSet

DEGENERATE_EDGE_REL_TOL = 1e-9


@dataclass(frozen=True)
class GraphTopology:
    """The complete graph over vertices 0..n_vertices-1.

    edges lists every pair (i, j) with i < j once, in np.triu_indices
    row-major order; it is the row order of the TIMs built over it.
    """

    n_vertices: int
    edges: np.ndarray

    @classmethod
    def complete(cls, n: int) -> "GraphTopology":
        i, j = np.triu_indices(n, k=1)
        return cls(n, np.column_stack([i, j]))

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]


@dataclass(frozen=True)
class TimSet:
    """Edge-major arrays of TIMs: one row per graph edge."""

    indices: np.ndarray  # (E, 2) vertex pairs, i < j
    a_bar: np.ndarray  # (E, 3) source differences a_j - a_i
    b_bar: np.ndarray  # (E, 3) target differences b_j - b_i
    beta_bar: np.ndarray  # (E,) propagated bounds beta_i + beta_j

    def __len__(self) -> int:
        return self.indices.shape[0]


@dataclass(frozen=True)
class TrimSet:
    """Scale measurements for the non-degenerate TIMs.

    tim_rows maps each TRIM back to its row in the TimSet; edges whose
    source difference is shorter than the degeneracy cutoff are skipped
    and recorded in skipped_rows.
    """

    tim_rows: np.ndarray  # (M,) indices into the TimSet
    indices: np.ndarray  # (M, 2) vertex pairs
    s_meas: np.ndarray  # (M,) ||b_bar|| / ||a_bar||
    alpha: np.ndarray  # (M,) beta_bar / ||a_bar||
    skipped_rows: np.ndarray  # rows of the TimSet with degenerate a_bar

    def __len__(self) -> int:
        return self.tim_rows.shape[0]

    def consistent_with(self, s_hat: float, cbar_sq: float) -> np.ndarray:
        """Mask of the TRIMs that agree with scale s_hat: |s_k - s_hat| <= cbar * alpha_k."""
        return np.abs(self.s_meas - s_hat) <= math.sqrt(cbar_sq) * self.alpha


@dataclass(frozen=True)
class MeasurementGraph:
    topology: GraphTopology
    tims: TimSet
    trims: TrimSet


def build_tims(c: CorrespondenceSet, g: GraphTopology) -> TimSet:
    """One TIM per edge; the translation cancels in the differences."""
    if g.n_vertices != len(c):
        raise ValueError("graph size does not match correspondence count")
    i = g.edges[:, 0]
    j = g.edges[:, 1]
    return TimSet(
        indices=g.edges,
        a_bar=c.source[j] - c.source[i],
        b_bar=c.target[j] - c.target[i],
        beta_bar=c.noise_bounds[i] + c.noise_bounds[j],
    )


def degenerate_edge_cutoff(c: CorrespondenceSet) -> float:
    """Length below which a source-side TIM is treated as degenerate.

    Scaled by the bounding-box diagonal of the source cloud so the cutoff
    tracks the data's unit.
    """
    extent = np.linalg.norm(c.source.max(axis=0) - c.source.min(axis=0))
    return DEGENERATE_EDGE_REL_TOL * max(extent, 1.0)


def build_trims(tims: TimSet, eps_degenerate: float = 0.0) -> TrimSet:
    """Scale measurements s = ||b_bar||/||a_bar|| with bounds alpha.

    Edges with ||a_bar|| <= eps_degenerate are skipped (coincident source
    points carry no scale information) and reported via skipped_rows.
    """
    a_norm = np.linalg.norm(tims.a_bar, axis=1)
    b_norm = np.linalg.norm(tims.b_bar, axis=1)
    ok = a_norm > eps_degenerate
    rows = np.nonzero(ok)[0]
    return TrimSet(
        tim_rows=rows,
        indices=tims.indices[rows],
        s_meas=b_norm[rows] / a_norm[rows],
        alpha=tims.beta_bar[rows] / a_norm[rows],
        skipped_rows=np.nonzero(~ok)[0],
    )


def build_measurement_graph(c: CorrespondenceSet) -> MeasurementGraph:
    """TIMs and TRIMs over the complete graph of the correspondences."""
    g = GraphTopology.complete(len(c))
    tims = build_tims(c, g)
    trims = build_trims(tims, eps_degenerate=degenerate_edge_cutoff(c))
    return MeasurementGraph(g, tims, trims)
