"""Pairwise invariant measurements over the complete correspondence graph.

TIMs (translation-invariant measurements) are vector differences of
corresponding points along graph edges; the ratios of their norms (TRIMs)
are additionally rotation-invariant and measure only the scale.  Noise
bounds propagate as beta_i + beta_j for a TIM and (beta_i + beta_j) /
||a_bar|| for a TRIM.

No TRIM is stored.  TrimSet keeps the TIMs' points and the degeneracy
cutoff and computes any TRIM where it is read, in one symmetric layout: edge
(i, j)'s value sits at [i, j] and at [j, i], NaN on the diagonal and on
degenerate edges.  The per-vertex scale votes compute full rows a block at
a time, each thread its own blocks, into the buffers the rows are voted in
(scalar_tls.RowVotes); a scale hypothesis is refined on one
row; the pairs inside a clique are gathered once (below); a prune
computes the upper rectangle of its candidates, a block of rows at a time
(clique.prune_by_scale); and the degree pass at known scale computes only
the pairs a bound cannot rule out (below).  A block holds about
BLOCK_ENTRIES entries; the votes and the degree pass reuse their buffers
from block to block, so the temporaries stay in cache and touch no fresh
memory.  Each value is the
same bit for bit wherever it is computed: the coordinates are squared and
summed in order, and a difference squares to the same value in both
directions.  The clique's scale re-vote, the rotation stage and the error
bounds read one record of a clique's pairs: MeasurementGraph.pairs_within
forms each pair's differences once, and their norms and TRIMs from them.

Pair (i, j) agrees with the scale s when its TRIM does:
|s_ij - s| <= cbar * alpha_ij, that is |X - s Y| <= cbar * beta_ij with
X = ||b_j - b_i||, Y = ||a_j - a_i|| and beta_ij = beta_i + beta_j.  On
the clouds centred at their means, X + s Y <= R_ij = r_i + r_j with
r = ||b|| + s ||a||, so an agreeing pair has |D_ij| <= cbar beta_ij R_ij
for D_ij = X^2 - s^2 Y^2.  Expanded over the centred points, D_ij is a
dot product of 8 features of i (b, s a, c = ||b||^2 - s^2 ||a||^2, 1)
with 8 of j, and H_ij below one of 4 (g, 1, w, r) with 4: a block of
rows costs two GEMMs, and the exact TRIM test runs on the pairs with
|D_ij| <= H_ij only, so every decision is the exact test's.  With
eps = BOUND_SLACK, w = cbar (1 + eps) beta and g = w r + eps r^2,

    H_ij = cbar (1 + eps) beta_ij R_ij + eps (r_i^2 + r_j^2)
         = g_i + g_j + w_i r_j + r_i w_j.

The slack covers rounding, with u = 2^-53.  The exact test accepts a
pair only if |X - s Y| <= cbar beta_ij (1 + 10u) + 10u X; times R_ij,
with X <= R_ij and R_ij^2 <= 2 (r_i^2 + r_j^2), that is within
10u cbar beta_ij R_ij + 20u (r_i^2 + r_j^2) of the bound.  D's 8-term
sum errs, in any order, by at most 8u times its terms' magnitudes, at
most 2 (r_i^2 + r_j^2); with centring (2u a coordinate) and c (4u r^2),
D errs by less than 30u (r_i^2 + r_j^2).  H's 4 terms are positive, and
each errs by less than 20u of itself, the sum included.  eps = 256u is
over five times these errors and the test's, together less than
50u (r_i^2 + r_j^2 + cbar beta_ij R_ij).  A vertex whose r or cbar beta
exceeds BOUND_LIMIT, where the sums could overflow, keeps all its pairs.
At N = 1000, 99% outliers and known scale the bound keeps about 5,700 of
the 499,500 pairs, of which about 1,200 agree, and the degree pass takes
a median of 3.3 ms (three rounds of 80 calls on one core), where the
exact test on every pair takes 15-17 ms.  The pass keeps counts, not
pairs.  The kept pairs of many blocks are tested together, up to
BLOCK_ENTRIES at a time, and counted by one bincount.  Where the bound
keeps over a third of a block, the block runs the exact test on its
whole rectangle instead, as a gathered pair costs about three of the
rectangle's, and adds the mask's row and column sums.  A prune covers
the candidates only (10-15 vertices at N = 1000 and 99% outliers, about
100 at 90% and unknown scale): one block, most of whose pairs agree,
which the bound would not thin, so it runs the exact test alone.

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
# Rounding slack of the pair bound: 256 unit roundoffs, over three times
# the rounding the module docstring counts.
BOUND_SLACK = 256 * 2.0**-53
# Past this a per-vertex term of the bound could overflow its GEMM sums:
# products of two stay below 2^1000.
BOUND_LIMIT = 2.0**500


@dataclass(frozen=True)
class GraphTopology:
    """The complete graph over vertices 0..n_vertices-1."""

    n_vertices: int

    @classmethod
    def complete(cls, n: int) -> "GraphTopology":
        return cls(n)


@dataclass(frozen=True)
class TimSet:
    """The points whose pair differences are the TIMs of the complete graph.

    Holds the correspondence arrays themselves; len() is the edge count.
    """

    source: np.ndarray  # (N, 3)
    target: np.ndarray  # (N, 3)
    noise_bounds: np.ndarray  # (N,)

    def __len__(self) -> int:
        n = self.source.shape[0]
        return n * (n - 1) // 2


@dataclass(frozen=True)
class PairMeasurements:
    """TIMs and TRIMs of the pairs inside a vertex set, row k for pairs[k]."""

    pairs: np.ndarray  # (P, 2), each (i, j) with i < j
    a_bars: np.ndarray  # (P, 3), a_j - a_i
    b_bars: np.ndarray  # (P, 3), b_j - b_i
    beta_bars: np.ndarray  # beta_i + beta_j
    a_norms: np.ndarray  # ||a_j - a_i||
    s_meas: np.ndarray  # the TRIMs, bit for bit TrimSet.at's
    alpha: np.ndarray


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


def row_blocks(n: int) -> list[slice]:
    """Slices of consecutive rows covering 0..n-1, each about
    BLOCK_ENTRIES entries of an n-column table."""
    step = max(1, BLOCK_ENTRIES // max(n, 1))
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
        The second temporary is done with before alpha is written, so it
        may be alpha itself.
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

    def degrees(self, s_hat: float, cbar_sq: float) -> np.ndarray:
        """(N,) int64: how many of each vertex's TRIMs agree with s_hat.

        Each block of rows bounds its upper rectangle [rows, r0:] by two
        GEMMs, D and H (see the module docstring), and only the pairs with
        |D| <= H get the exact TRIM and scale_consistent: over the whole
        rectangle where the bound keeps over a third of it, else gathered
        pair by pair, the pairs of several blocks at a time.
        """
        n = len(self.tims.source)
        counts = np.zeros(n, dtype=np.int64)
        if n < 2:
            return counts
        fd, cd, fh, ch = _bound_features(self.tims, s_hat, cbar_sq)
        blocks = row_blocks(n)
        height = blocks[0].stop
        buffers = np.empty((4, height * n))
        masks = np.empty((2, height * n), dtype=bool)
        above_diagonal = np.less.outer(np.arange(height), np.arange(height))
        waiting, n_waiting = [], 0  # pairs the bound kept, awaiting the exact test
        for block in blocks:
            r0 = block.start
            shape = (block.stop - r0, n - r0)
            out = [b[: shape[0] * shape[1]].reshape(shape) for b in buffers]
            near, agree = (m[: shape[0] * shape[1]].reshape(shape) for m in masks)
            d, h = out[:2]
            np.matmul(fd[block], cd[:, r0:], out=d)
            np.matmul(fh[block], ch[:, r0:], out=h)
            np.less_equal(np.abs(d, out=d), h, out=near)
            near[:, : shape[0]] &= above_diagonal[: shape[0], : shape[0]]
            flat = np.flatnonzero(near)
            if 3 * flat.size > near.size:
                s_meas, alpha = self.at(np.s_[block, None], np.s_[None, r0:], out)
                agree = scale_consistent(s_meas, alpha, s_hat, cbar_sq, agree)
                agree &= near
                counts[block] += np.count_nonzero(agree, axis=1)
                counts[r0:] += np.count_nonzero(agree, axis=0)
            else:
                # np.divmod and 2-D np.nonzero are several times slower.
                pairs = np.empty((2, flat.size), dtype=np.int64)
                i, j = np.floor_divide(flat, shape[1], out=pairs[0]), pairs[1]
                np.subtract(flat, np.multiply(i, shape[1], out=j), out=j)
                pairs += r0
                waiting.append(pairs)
                n_waiting += flat.size
            if waiting and (n_waiting >= BLOCK_ENTRIES or block.stop == n):
                # One gathered test costs a fraction of one a block.
                test = np.concatenate(waiting, axis=1)
                agreeing = test[:, scale_consistent(*self.at(*test), s_hat, cbar_sq)]
                counts += np.bincount(agreeing.ravel(), minlength=n)
                waiting, n_waiting = [], 0
        return counts


@dataclass(frozen=True)
class MeasurementGraph:
    topology: GraphTopology
    tims: TimSet
    trims: TrimSet

    def pairs_within(self, vertices) -> PairMeasurements:
        """The measurements of the pairs (i, j), i < j, of vertices, sorted
        unique ids, in row-major order, skipping the degenerate ones."""
        v = np.asarray(vertices, dtype=np.int64)
        i, j = np.triu_indices(v.size, k=1)
        i, j = v[i], v[j]
        t = self.tims
        a_bars, a_norms = _differences(t.source, i, j)
        keep = a_norms > self.trims.cutoff
        if not keep.all():  # never on a clique: no clique pair is degenerate
            i, j, a_bars, a_norms = i[keep], j[keep], a_bars[keep], a_norms[keep]
        b_bars, b_norms = _differences(t.target, i, j)
        beta_bars = t.noise_bounds[i] + t.noise_bounds[j]
        s_meas, alpha = b_norms / a_norms, beta_bars / a_norms
        pairs = np.column_stack([i, j])
        return PairMeasurements(pairs, a_bars, b_bars, beta_bars, a_norms, s_meas, alpha)


def degenerate_edge_cutoff(c: CorrespondenceSet) -> float:
    """Length at or below which a source-side TIM is treated as degenerate.

    A fixed fraction of the bounding-box diagonal of the source cloud, at
    every scale, so the cutoff follows the data's unit.  A cloud whose
    points all coincide has extent 0, hence cutoff 0: every pair is
    degenerate and no TRIM exists.
    """
    extent = np.linalg.norm(c.source.max(axis=0) - c.source.min(axis=0))
    return DEGENERATE_EDGE_REL_TOL * extent


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


def _differences(points: np.ndarray, i: np.ndarray, j: np.ndarray):
    """(P, 3) rows p_j - p_i for the index arrays i and j, and their norms,
    the coordinates squared and summed in order, so each has _norms' bits."""
    d = points.take(j, axis=0) - points.take(i, axis=0)
    x, y, z = d.T
    return d, np.sqrt(x * x + y * y + z * z)


def _bound_features(tims: TimSet, s_hat: float, cbar_sq: float):
    """Features whose products bound every pair: (N, 8) rows and (8, N)
    columns whose products are D, and (N, 4) rows and (4, N) columns whose
    products are H.

    A vertex whose terms could overflow gets zero features, so each of its
    products reads 0 and its pairs are kept.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        a = s_hat * (tims.source - tims.source.mean(axis=0))
        b = tims.target - tims.target.mean(axis=0)
        a_sq, b_sq = np.einsum("ij,ij->i", a, a), np.einsum("ij,ij->i", b, b)
        r = np.sqrt(a_sq) + np.sqrt(b_sq)
        w = (math.sqrt(cbar_sq) * (1.0 + BOUND_SLACK)) * tims.noise_bounds
        g = w * r + BOUND_SLACK * r * r
        c = b_sq - a_sq
        # Row i of fd times column j of cd is -2 b_i.b_j + 2 a_i.a_j + c_i
        # + c_j = D_ij; row i of fh times column j of ch is g_i + g_j
        # + w_i r_j + r_i w_j = H_ij.
        ones = np.ones_like(r)
        fd = np.column_stack([b, a, c, ones])
        cd = np.vstack([-2.0 * b.T, 2.0 * a.T, ones, c])
        fh = np.column_stack([g, ones, w, r])
        ch = np.vstack([ones, g, r, w])
    wild = ~((r <= BOUND_LIMIT) & (w <= BOUND_LIMIT))
    if wild.any():
        fd[wild], cd[:, wild], fh[wild], ch[:, wild] = 0.0, 0.0, 0.0, 0.0
    return fd, cd, fh, ch


def build_measurement_graph(c: CorrespondenceSet) -> MeasurementGraph:
    """The complete graph of the correspondences; TIMs and TRIMs on demand.

    Edges with ||a_bar|| at or below degenerate_edge_cutoff carry no scale
    information (coincident source points) and get NaN TRIMs.
    """
    tims = TimSet(c.source, c.target, c.noise_bounds)
    return MeasurementGraph(
        GraphTopology.complete(len(c)), tims, TrimSet(tims, degenerate_edge_cutoff(c))
    )
