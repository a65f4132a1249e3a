"""Pairwise invariant measurements over the complete correspondence graph.

TIMs (translation-invariant measurements) are vector differences of
corresponding points along graph edges; the ratios of their norms (TRIMs)
are additionally rotation-invariant and measure only the scale.  Noise
bounds propagate as beta_i + beta_j for a TIM and (beta_i + beta_j) /
||a_bar|| for a TRIM.

The TRIMs are kept as two symmetric n x n tables, the scale measurement
and its bound of edge (i, j) at [i, j] and at [j, i], with NaN on the
diagonal and on degenerate edges.  Every stage reads this one layout: the
per-vertex scale votes read the rows, pruning compares the whole table
with a scale, and the rotation stage reads the pairs inside a clique.
The tables are filled from pairwise distances a block of rows at a time,
about BLOCK_ENTRIES entries each, so the distance temporaries stay in
cache and no per-edge vector is ever stored.  Pruning compares in the
same blocks: at N = 1000, 99% outliers and known scale, one whole-table
comparison cut registrations per second by a fifth and raised the peak
memory from 81 to 93 MB.  Only the rotation stage and the error bounds
need TIM vectors, on the few pairs inside the selected clique, and TimSet
forms them per pair on demand.

The graph is always complete: only there do mutually consistent inliers
form a clique, which the maximum-clique pruning stage looks for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import CorrespondenceSet

DEGENERATE_EDGE_REL_TOL = 1e-9
# Entries of the pairwise-distance table built at a time (512 KiB of float64).
BLOCK_ENTRIES = 1 << 16


@dataclass(frozen=True)
class GraphTopology:
    """The complete graph over vertices 0..n_vertices-1."""

    n_vertices: int

    @classmethod
    def complete(cls, n: int) -> "GraphTopology":
        return cls(n)

    @property
    def n_edges(self) -> int:
        return self.n_vertices * (self.n_vertices - 1) // 2


@dataclass(frozen=True)
class TimSet:
    """TIMs of every edge of the complete graph, formed per pair on demand.

    Holds the correspondence arrays themselves; len() is the edge count.
    """

    source: np.ndarray  # (N, 3)
    target: np.ndarray  # (N, 3)
    noise_bounds: np.ndarray  # (N,)

    def __len__(self) -> int:
        n = self.source.shape[0]
        return n * (n - 1) // 2

    def at(self, pairs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(a_bar, b_bar, beta_bar) of the (P, 2) vertex pairs (i, j):
        a_j - a_i, b_j - b_i and beta_i + beta_j."""
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        i, j = pairs[:, 0], pairs[:, 1]
        return (
            self.source[j] - self.source[i],
            self.target[j] - self.target[i],
            self.noise_bounds[i] + self.noise_bounds[j],
        )


def scale_consistent(s_meas, alpha, s_hat: float, cbar_sq: float) -> np.ndarray:
    """Mask of the TRIMs that agree with scale s_hat: |s - s_hat| <= cbar * alpha.

    NaN compares False, so a missing TRIM never agrees.
    """
    return np.abs(s_meas - s_hat) <= math.sqrt(cbar_sq) * alpha


@dataclass(frozen=True)
class TrimSet:
    """Scale measurements of every edge, as symmetric (N, N) tables.

    s_meas and alpha hold edge (i, j)'s TRIM at [i, j] and at [j, i].  They
    hold NaN on the diagonal and on the edges whose source difference is
    no longer than the degeneracy cutoff; skipped_rows lists the latter.
    """

    s_meas: np.ndarray  # (N, N) ||b_bar|| / ||a_bar||
    alpha: np.ndarray  # (N, N) beta_bar / ||a_bar||
    skipped_rows: np.ndarray  # (P, 2) degenerate pairs (i, j), i < j

    def __len__(self) -> int:
        n = self.s_meas.shape[0]
        return n * (n - 1) // 2 - len(self.skipped_rows)

    def consistent_with(self, s_hat: float, cbar_sq: float) -> np.ndarray:
        """(N, N) bool adjacency of the edges whose TRIM agrees with s_hat,
        compared a block of about BLOCK_ENTRIES entries at a time."""
        n = self.s_meas.shape[0]
        adj = np.empty((n, n), dtype=bool)
        step = max(1, BLOCK_ENTRIES // max(n, 1))
        for r0 in range(0, n, step):
            rows = slice(r0, r0 + step)
            adj[rows] = scale_consistent(self.s_meas[rows], self.alpha[rows], s_hat, cbar_sq)
        return adj


@dataclass(frozen=True)
class MeasurementGraph:
    topology: GraphTopology
    tims: TimSet
    trims: TrimSet

    def trims_within(self, vertices) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(pairs, s_meas, alpha) of the TRIMs with both ends in vertices.

        The pairs (i, j), i < j, of the sorted unique vertices, in row-major
        order, skipping the degenerate ones; only the vertices' own pairs
        are read.
        """
        v = np.unique(np.asarray(vertices, dtype=np.int64))
        i, j = np.triu_indices(v.size, k=1)
        s_meas = self.trims.s_meas[v[i], v[j]]
        hit = ~np.isnan(s_meas)
        i, j = v[i[hit]], v[j[hit]]
        return np.column_stack([i, j]), s_meas[hit], self.trims.alpha[i, j]


def degenerate_edge_cutoff(c: CorrespondenceSet) -> float:
    """Length below which a source-side TIM is treated as degenerate.

    Scaled by the bounding-box diagonal of the source cloud so the cutoff
    tracks the data's unit.
    """
    extent = np.linalg.norm(c.source.max(axis=0) - c.source.min(axis=0))
    return DEGENERATE_EDGE_REL_TOL * max(extent, 1.0)


def _squared_distances(points: np.ndarray, rows: slice) -> np.ndarray:
    """||p_j - p_i||^2 for i in rows and j >= rows.start, as a table.

    Squares and sums the coordinates in order, so its square root equals
    np.linalg.norm of the stacked differences bit for bit.
    """
    sq = None
    for col in points.T:
        d = col[None, rows.start :] - col[rows, None]
        d *= d
        if sq is None:
            sq = d
        else:
            sq += d
    return sq


def build_measurement_graph(c: CorrespondenceSet) -> MeasurementGraph:
    """TRIMs over the complete graph of the correspondences; TIMs on demand.

    Edges with ||a_bar|| at or below degenerate_edge_cutoff carry no scale
    information (coincident source points) and get NaN.  Each block of
    rows computes the upper rectangle [rows, r0:] of the tables and writes
    it and its transpose; the rectangle's lower corner is symmetric bit
    for bit, as each squared difference is.
    """
    n = len(c)
    s_meas, alpha = np.empty((n, n)), np.empty((n, n))
    cutoff = degenerate_edge_cutoff(c)
    beta = c.noise_bounds
    skipped = []
    step = max(1, BLOCK_ENTRIES // max(n, 1))
    for r0 in range(0, n, step):
        rows = slice(r0, min(n, r0 + step))
        a_norm = np.sqrt(_squared_distances(c.source, rows))
        bad = ~(a_norm > cutoff)
        a_norm[bad] = np.nan
        i, j = np.nonzero(bad)  # vertices r0 + i and r0 + j
        skipped.append(np.column_stack([i, j])[i < j] + r0)
        b_norm = np.sqrt(_squared_distances(c.target, rows))
        beta_bar = beta[rows, None] + beta[None, r0:]
        for table, top in ((s_meas, b_norm / a_norm), (alpha, beta_bar / a_norm)):
            table[rows, r0:] = top
            table[r0:, rows] = top.T
    trims = TrimSet(s_meas, alpha, np.concatenate(skipped))
    return MeasurementGraph(
        GraphTopology.complete(n), TimSet(c.source, c.target, c.noise_bounds), trims
    )
