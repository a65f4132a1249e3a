"""Pairwise invariant measurements over the complete correspondence graph.

TIMs (translation-invariant measurements) are vector differences of
corresponding points along graph edges; the ratios of their norms (TRIMs)
are additionally rotation-invariant and measure only the scale.  Noise
bounds propagate as beta_i + beta_j for a TIM and (beta_i + beta_j) /
||a_bar|| for a TRIM.

The TRIMs over all pairs are built straight from pairwise distances, one
n x n table per cloud, so no per-edge vector is ever stored.  Only the
rotation stage and the error bounds need TIM vectors, on the few pairs
inside the selected clique, and TimSet forms them per pair on demand.

The graph is always complete: only there do mutually consistent inliers
form a clique, which the maximum-clique pruning stage looks for.  Its
edges (i, j), i < j, are numbered in np.triu_indices row-major order, the
"condensed" edge index.
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
    """The complete graph over vertices 0..n_vertices-1, edges by condensed index."""

    n_vertices: int

    @classmethod
    def complete(cls, n: int) -> "GraphTopology":
        return cls(n)

    @property
    def n_edges(self) -> int:
        return self.n_vertices * (self.n_vertices - 1) // 2

    def edge_index(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Condensed index of each edge (i, j), i < j."""
        return self.n_vertices * i - i * (i + 1) // 2 + j - i - 1

    def edge_pairs(self, edges: np.ndarray) -> np.ndarray:
        """(P, 2) vertex pairs (i, j), i < j, of condensed edge indices."""
        edges = np.asarray(edges, dtype=np.int64)
        v = np.arange(self.n_vertices, dtype=np.int64)
        row_start = self.edge_index(v, v + 1)
        i = np.searchsorted(row_start, edges, side="right") - 1
        return np.column_stack([i, edges - row_start[i] + i + 1])


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


@dataclass(frozen=True)
class TrimSet:
    """Scale measurements for the non-degenerate edges.

    tim_rows holds each TRIM's condensed edge index, ascending; edges whose
    source difference is shorter than the degeneracy cutoff are skipped
    and recorded in skipped_rows.
    """

    tim_rows: np.ndarray  # (M,) condensed edge indices
    s_meas: np.ndarray  # (M,) ||b_bar|| / ||a_bar||
    alpha: np.ndarray  # (M,) beta_bar / ||a_bar||
    skipped_rows: np.ndarray  # condensed indices of edges with degenerate a_bar

    def __len__(self) -> int:
        return self.tim_rows.shape[0]

    def consistent_with(self, s_hat: float, cbar_sq: float, rows=slice(None)) -> np.ndarray:
        """Mask of the TRIMs (all, or those at rows) that agree with scale
        s_hat: |s_k - s_hat| <= cbar * alpha_k."""
        return np.abs(self.s_meas[rows] - s_hat) <= math.sqrt(cbar_sq) * self.alpha[rows]


@dataclass(frozen=True)
class MeasurementGraph:
    topology: GraphTopology
    tims: TimSet
    trims: TrimSet

    def incident_trims(self) -> tuple[np.ndarray, np.ndarray]:
        """(N, N) tables of the TRIMs at each vertex: s_meas and alpha of
        edge (i, j) at [i, j] and at [j, i], NaN where the edge has none
        (the diagonal and the degenerate edges)."""
        n = self.topology.n_vertices
        upper = np.triu(np.ones((n, n), dtype=bool), 1)  # row-major = condensed order
        tables = []
        for values in (self.trims.s_meas, self.trims.alpha):
            full = np.full(self.topology.n_edges, np.nan)
            full[self.trims.tim_rows] = values
            table = np.full((n, n), np.nan)
            table[upper] = full
            table.T[upper] = full
            tables.append(table)
        return tables[0], tables[1]

    def trims_within(self, vertices) -> tuple[np.ndarray, np.ndarray]:
        """TRIM rows, and their vertex pairs, of the edges with both ends in vertices.

        Enumerates only the vertices' own pairs, in TRIM order.
        """
        v = np.unique(np.asarray(vertices, dtype=np.int64))
        i, j = np.triu_indices(v.size, k=1)
        pairs = np.column_stack([v[i], v[j]])
        edges = self.topology.edge_index(pairs[:, 0], pairs[:, 1])
        tim_rows = self.trims.tim_rows
        rows = np.searchsorted(tim_rows, edges)
        hit = rows < tim_rows.size
        hit[hit] = tim_rows[rows[hit]] == edges[hit]
        return rows[hit], pairs[hit]


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


def _edge_values(c: CorrespondenceSet):
    """||a_bar||, ||b_bar|| and beta_bar of every edge, in condensed order.

    Walks the n x n tables a block of rows at a time, each block about
    BLOCK_ENTRIES entries so it stays in cache, and keeps its upper part.
    """
    n = len(c)
    a_norm, b_norm, beta_bar = (np.empty(n * (n - 1) // 2) for _ in range(3))
    beta = c.noise_bounds
    idx = np.arange(n)
    step = max(1, BLOCK_ENTRIES // max(n, 1))
    end = 0
    for r0 in range(0, n, step):
        rows = slice(r0, min(n, r0 + step))
        upper = idx[rows, None] < idx[None, r0:]  # row-major = condensed order
        start, end = end, end + np.count_nonzero(upper)
        a_norm[start:end] = _squared_distances(c.source, rows)[upper]
        b_norm[start:end] = _squared_distances(c.target, rows)[upper]
        beta_bar[start:end] = (beta[rows, None] + beta[None, r0:])[upper]
    return np.sqrt(a_norm, out=a_norm), np.sqrt(b_norm, out=b_norm), beta_bar


def build_measurement_graph(c: CorrespondenceSet) -> MeasurementGraph:
    """TRIMs over the complete graph of the correspondences; TIMs on demand.

    Edges with ||a_bar|| at or below degenerate_edge_cutoff carry no scale
    information (coincident source points) and are skipped.
    """
    g = GraphTopology.complete(len(c))
    a_norm, b_norm, beta_bar = _edge_values(c)
    ok = a_norm > degenerate_edge_cutoff(c)
    rows = np.flatnonzero(ok)
    if rows.size < ok.size:
        a_norm, b_norm, beta_bar = a_norm[rows], b_norm[rows], beta_bar[rows]
    trims = TrimSet(
        tim_rows=rows,
        s_meas=b_norm / a_norm,
        alpha=beta_bar / a_norm,
        skipped_rows=np.flatnonzero(~ok),
    )
    return MeasurementGraph(g, TimSet(c.source, c.target, c.noise_bounds), trims)
