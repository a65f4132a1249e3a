"""Pairwise invariant measurements over the complete correspondence graph.

TIMs (translation-invariant measurements) are vector differences of
corresponding points along graph edges; the ratios of their norms (TRIMs)
are additionally rotation-invariant and measure only the scale.  Noise
bounds propagate as beta_i + beta_j for a TIM and (beta_i + beta_j) /
||a_bar|| for a TRIM.

No TRIM is stored.  TrimSet keeps the TIMs' points and the degeneracy
cutoff and computes any TRIM where it is read, in one symmetric layout: edge
(i, j)'s value sits at [i, j] and at [j, i], NaN on the diagonal and on
degenerate edges.  Pruning computes the upper rectangle [rows, r0:] of a
block of rows, over every vertex or over a sorted subset of them,
compares it with the scale and writes the bool block and its transpose;
the per-vertex scale votes compute full rows a block at a time, each
thread its own blocks; a scale hypothesis is refined on one row; and the
rotation stage reads the pairs inside a clique.  A block holds about
BLOCK_ENTRIES entries in buffers reused from block to block, so its
temporaries stay in cache and touch no fresh memory.  Each value is the
same bit for bit wherever it is computed: the coordinates are squared and
summed in order, and a difference squares to the same value in both
directions.  At N = 1000, 99% outliers and known scale, pruning every
vertex takes a median of 12 ms (quartiles 10-13 ms over 48 calls on one
core), where filling two stored (N, N) float64 tables (16 MB) took 35 ms
and comparing them 5 ms more.  Only the rotation stage and the error
bounds need TIM vectors, on the few pairs inside the selected clique, and
TimSet forms them per pair on demand.

The graph is always complete: only there do mutually consistent inliers
form a clique, which the maximum-clique pruning stage looks for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import CorrespondenceSet

DEGENERATE_EDGE_REL_TOL = 1e-9
# TRIMs computed at a time, one block of rows (512 KiB of float64 a buffer).
BLOCK_ENTRIES = 1 << 16


@dataclass(frozen=True)
class GraphTopology:
    """The complete graph over vertices 0..n_vertices-1."""

    n_vertices: int

    @classmethod
    def complete(cls, n: int) -> "GraphTopology":
        return cls(n)


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


def scale_consistent(s_meas, alpha, s_hat: float, cbar_sq: float, out=None) -> np.ndarray:
    """Mask of the TRIMs that agree with scale s_hat: |s - s_hat| <= cbar * alpha.

    NaN compares False, so a missing TRIM never agrees.  With out given,
    the mask is written there and s_meas and alpha are overwritten as
    scratch, so a block of TRIMs compares without temporaries.
    """
    dev, tol = (None, None) if out is None else (s_meas, alpha)
    dev = np.abs(np.subtract(s_meas, s_hat, out=dev), out=dev)
    tol = np.multiply(math.sqrt(cbar_sq), alpha, out=tol)
    return np.less_equal(dev, tol, out=out)


def row_blocks(n: int, parts: int = 1) -> list[slice]:
    """Slices of consecutive rows covering 0..n-1, each about
    BLOCK_ENTRIES // parts entries of an n-column table."""
    step = max(1, BLOCK_ENTRIES // parts // max(n, 1))
    return [slice(r0, min(n, r0 + step)) for r0 in range(0, n, step)]


@dataclass(frozen=True)
class TrimSet:
    """Scale measurements of every edge, computed from the TIMs' points where read.

    Edge (i, j) measures ||b_j - b_i|| / ||a_j - a_i|| with bound
    (beta_i + beta_j) / ||a_j - a_i||, the same value as edge (j, i).  It
    is NaN on the diagonal and wherever the source difference is no longer
    than cutoff; skipped_rows lists the latter, from a pass over the
    source distances on first use.
    """

    tims: TimSet
    cutoff: float

    def at(self, i, j, out=None) -> tuple[np.ndarray, np.ndarray]:
        """(s_meas, alpha) of the edges (i, j).

        i and j index the vertices (integers, index arrays or slices, with
        None to lay out a table) and broadcast together.  out, when given,
        holds four arrays of their shape: s_meas, alpha and two temporaries.
        """
        s_meas, alpha, a_norm, scratch = out or (None,) * 4
        t = self.tims
        a_norm = _norms(t.source, i, j, a_norm, scratch)
        np.copyto(a_norm, np.nan, where=~(a_norm > self.cutoff))
        s_meas = _norms(t.target, i, j, s_meas, scratch)
        s_meas /= a_norm
        alpha = np.add(t.noise_bounds[i], t.noise_bounds[j], out=alpha)
        alpha /= a_norm
        return s_meas, alpha

    def blocks(self, upper: bool = False, vertices=None, rows=None):
        """(rows, s_meas, alpha) for blocks of consecutive rows, in order.

        The table is over `vertices` (sorted ids, every vertex by default),
        and `rows` lists its row slices to compute (row_blocks of it by
        default).  Each block holds the TRIMs of the vertices in rows
        against every vertex of the table, or with upper against
        rows.start onwards only.  The arrays are buffers that the next
        block overwrites.
        """
        n = len(self.tims.source) if vertices is None else len(vertices)
        rows = row_blocks(n) if rows is None else rows
        height = max((block.stop - block.start for block in rows), default=0)
        buffers = np.empty((4, height * n))
        for block in rows:
            r0 = block.start if upper else 0
            i, j = (block, np.s_[r0:]) if vertices is None else (vertices[block], vertices[r0:])
            shape = (block.stop - block.start, n - r0)
            out = [b[: shape[0] * shape[1]].reshape(shape) for b in buffers]
            yield (block, *self.at(np.s_[i, None], np.s_[None, j], out))

    @cached_property
    def skipped_rows(self) -> np.ndarray:
        """(P, 2) degenerate pairs (i, j), i < j, in row-major order."""
        pieces = [np.empty((0, 2), dtype=np.int64)]
        source = self.tims.source
        for rows in row_blocks(len(source)):
            r0 = rows.start
            bad = ~(_norms(source, np.s_[rows, None], np.s_[None, r0:]) > self.cutoff)
            i, j = np.nonzero(bad)  # vertices r0 + i and r0 + j
            pieces.append(np.column_stack([i, j])[i < j] + r0)
        return np.concatenate(pieces)

    def consistent_with(self, s_hat: float, cbar_sq: float, vertices=None) -> np.ndarray:
        """Bool adjacency of the edges whose TRIM agrees with s_hat, among
        `vertices` (sorted ids, every vertex by default).

        Each block compares the upper rectangle [rows, r0:] and writes it
        and its transpose; the rectangle's lower corner is symmetric bit
        for bit, as each squared difference is.
        """
        n = len(self.tims.source) if vertices is None else len(vertices)
        adj = np.empty((n, n), dtype=bool)
        for rows, s_meas, alpha in self.blocks(upper=True, vertices=vertices):
            r0 = rows.start
            scale_consistent(s_meas, alpha, s_hat, cbar_sq, out=adj[rows, r0:])
            adj[r0:, rows] = adj[rows, r0:].T
        return adj


@dataclass(frozen=True)
class MeasurementGraph:
    topology: GraphTopology
    tims: TimSet
    trims: TrimSet

    def trims_within(self, vertices) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(pairs, s_meas, alpha) of the TRIMs with both ends in vertices.

        The pairs (i, j), i < j, of the sorted unique vertices, in row-major
        order, skipping the degenerate ones; only these pairs are computed.
        """
        # Sort and keep the first of each run: np.unique would import
        # numpy.ma on the first call.
        v = np.sort(np.asarray(vertices, dtype=np.int64), axis=None)
        first = np.ones(v.size, dtype=bool)
        np.not_equal(v[1:], v[:-1], out=first[1:])
        v = v[first]
        i, j = np.triu_indices(v.size, k=1)
        i, j = v[i], v[j]
        s_meas, alpha = self.trims.at(i, j)
        hit = ~np.isnan(s_meas)
        return np.column_stack([i[hit], j[hit]]), s_meas[hit], alpha[hit]


def degenerate_edge_cutoff(c: CorrespondenceSet) -> float:
    """Length below which a source-side TIM is treated as degenerate.

    Scaled by the bounding-box diagonal of the source cloud so the cutoff
    tracks the data's unit.
    """
    extent = np.linalg.norm(c.source.max(axis=0) - c.source.min(axis=0))
    return DEGENERATE_EDGE_REL_TOL * max(extent, 1.0)


def _norms(points: np.ndarray, i, j, out=None, scratch=None) -> np.ndarray:
    """||p_j - p_i|| for the vertex indices i and j, broadcast together.

    Squares and sums the coordinates in order, so the value equals
    np.linalg.norm of the difference bit for bit, and is the same for
    (j, i) as for (i, j).  out and scratch, when given, receive the result
    and a temporary.
    """
    # Contiguous coordinate rows broadcast faster than strided columns.
    x, y, z = np.ascontiguousarray(points.T)
    out = np.asarray(np.subtract(x[j], x[i], out=out))  # 0-d for two integers
    out *= out
    for col in (y, z):
        d = np.subtract(col[j], col[i], out=scratch)
        d *= d
        out += d
    return np.sqrt(out, out=out)


def build_measurement_graph(c: CorrespondenceSet) -> MeasurementGraph:
    """The complete graph of the correspondences; TIMs and TRIMs on demand.

    Edges with ||a_bar|| at or below degenerate_edge_cutoff carry no scale
    information (coincident source points) and get NaN TRIMs.
    """
    tims = TimSet(c.source, c.target, c.noise_bounds)
    return MeasurementGraph(
        GraphTopology.complete(len(c)), tims, TrimSet(tims, degenerate_edge_cutoff(c))
    )
