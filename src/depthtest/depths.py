"""Empirical data-depth functions.

Three depths are provided, each mapping a query point to [0, 1] against a
reference sample:

* ``mahalanobis``: 1 / (1 + (x - xbar)' S^-1 (x - xbar)), with the sample
  mean and the (m - 1)-denominator sample covariance S.
* ``spatial``: 1 - || mean_i (x - x_i) / ||x - x_i|| ||, zero-distance
  terms contributing a zero vector. The unit vectors come one coordinate
  at a time from a single distance matrix and are summed in reference
  order with no BLAS call, so each depth depends only on its own query
  row: duplicate rows tie exactly, a 1-D depth is exactly
  1 - |#{x_i < x} - #{x_i > x}| / m, and no value depends on the thread
  count.
* ``projection``: 1 / (1 + O(x)) where O(x) is the maximum over unit
  directions u of |u'x - med(u'X)| / MAD(u'X). The supremum is
  approximated by a fixed, seeded set of random directions shared by all
  query points of one call; MAD is the raw median absolute deviation with
  no consistency factor.

Depths of a pooled sample against groups of its own rows come from
:func:`pooled_depths`, which builds the partition-independent geometry
once and gathers the reference rows of every partition from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.spatial.distance import cdist

from .errors import DegenerateSample, SingularCovariance
from .rng import TAG_DIRECTIONS, standard_normals, substream
from .samples import as_sample_matrix, require_same_dimension

VALID_KINDS = ("mahalanobis", "spatial", "projection")

DEFAULT_DIRECTION_COUNT = 500

_SPATIAL_CHUNK = 256

# largest (d, N, N) spatial coordinate array pooled_depths keeps (160 MB)
_CACHE_ELEMENT_CAP = 20_000_000


@dataclass(frozen=True)
class DepthKind:
    """Depth selector. ``direction_count``/``direction_seed`` only matter
    for the projection kind and are ignored otherwise."""

    kind: str
    direction_count: int = DEFAULT_DIRECTION_COUNT
    direction_seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in VALID_KINDS:
            raise ValueError(f"unknown depth kind {self.kind!r}; expected one of {VALID_KINDS}")
        if self.kind == "projection" and self.direction_count < 1:
            raise ValueError("direction_count must be >= 1 for projection depth")


def min_reference_rows(kind: DepthKind, dim: int) -> int:
    """Fewest reference rows for which the depth is defined at dimension
    ``dim``: Mahalanobis needs an invertible covariance (d + 1 rows),
    projection a nonzero MAD (2 rows), spatial any row at all."""
    return {"mahalanobis": dim + 1, "projection": 2, "spatial": 1}[kind.kind]


def _spd_cholesky(matrix: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a symmetric matrix, refusing near-singular
    input: any pivot at or below 1e-12 times the largest diagonal raises
    SingularCovariance instead of regularizing."""
    d = matrix.shape[0]
    tol = 1e-12 * float(np.max(np.diag(matrix)))
    lower = np.zeros_like(matrix)
    for j in range(d):
        pivot = matrix[j, j] - np.dot(lower[j, :j], lower[j, :j])
        if pivot <= tol:
            raise SingularCovariance(
                f"covariance pivot {pivot:.3e} at column {j} (tolerance {tol:.3e})"
            )
        lower[j, j] = math.sqrt(pivot)
        if j + 1 < d:
            lower[j + 1 :, j] = (matrix[j + 1 :, j] - lower[j + 1 :, :j] @ lower[j, :j]) / lower[j, j]
    return lower


def _mahalanobis_depths(query: np.ndarray, reference: np.ndarray) -> np.ndarray:
    m = reference.shape[0]
    if m < 2:
        raise SingularCovariance("mahalanobis depth needs at least 2 reference rows")
    mean = reference.mean(axis=0)
    centered = reference - mean
    cov = centered.T @ centered / (m - 1)
    lower = _spd_cholesky(cov)
    dev = (query - mean).T
    half = np.linalg.solve(lower, dev)
    quad = np.einsum("ij,ij->j", half, half)
    return 1.0 / (1.0 + quad)


def _unit_components(query: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Coordinates of the unit vectors from each reference row to each query
    row: ``comps[j, i, a] = (query[a, j] - reference[i, j]) / ||query[a] -
    reference[i]||``, C-contiguous (d, m, q), so that ``comps[j][i]`` is
    one contiguous row. Coincident pairs divide by infinity and so give
    exact zeros."""
    dist = cdist(reference, query)
    dist[dist == 0.0] = np.inf
    comps = np.subtract(query.T[:, None, :], reference.T[:, :, None], order="C")
    comps /= dist
    return comps


def _spatial_from_sums(sums: np.ndarray, m: int) -> np.ndarray:
    """Spatial depths from the (d, q) unit-vector sums over m reference rows."""
    avg = sums / m
    return np.clip(1.0 - np.sqrt((avg * avg).sum(axis=0)), 0.0, 1.0)


def _spatial_depths(query: np.ndarray, reference: np.ndarray) -> np.ndarray:
    q = query.shape[0]
    out = np.empty(q)
    for start in range(0, q, _SPATIAL_CHUNK):
        block = query[start : start + _SPATIAL_CHUNK]
        # numpy sums the reference axis of a one-column block pairwise, not
        # in reference order like every wider block; pad it with a copy.
        width = block.shape[0]
        if width == 1:
            block = np.vstack([block, block])
        sums = _unit_components(block, reference).sum(axis=1)
        out[start : start + width] = _spatial_from_sums(sums, reference.shape[0])[:width]
    return out


@lru_cache(maxsize=64)
def _directions(seed: int, count: int, dim: int) -> np.ndarray:
    """Seeded unit directions, cached; treat the result as read-only."""
    rng = substream(seed, TAG_DIRECTIONS)
    vecs = standard_normals(rng, (count, dim))
    norms = np.sqrt(np.einsum("kd,kd->k", vecs, vecs))
    norms[norms == 0.0] = 1.0
    return vecs / norms[:, None]


def _column_medians(matrix: np.ndarray) -> np.ndarray:
    """Median down each column; even row counts average the central pair.

    Same result as np.median(axis=0), via a single partition.
    """
    rows = matrix.shape[0]
    half = rows // 2
    if rows % 2:
        return np.partition(matrix, half, axis=0)[half]
    part = np.partition(matrix, (half - 1, half), axis=0)
    return (part[half - 1] + part[half]) / 2.0


def projection_outlyingness(
    ref_proj: np.ndarray, query_proj: np.ndarray
) -> np.ndarray:
    """Max standardized projected deviation of each query given reference
    projections, both on the same direction set (columns)."""
    med = _column_medians(ref_proj)
    mad = _column_medians(np.abs(ref_proj - med))
    usable = mad > 0.0
    if not usable.any():
        raise DegenerateSample("every projected direction has zero MAD")
    numer = np.abs(query_proj - med)
    if usable.all():
        numer /= mad
        return numer.max(axis=1)
    outly = (numer[:, usable] / mad[usable]).max(axis=1)
    # Zero-MAD directions: any offset from the (degenerate) median is
    # infinitely outlying; sitting exactly on it contributes nothing.
    escaped = (numer[:, ~usable] > 0.0).any(axis=1)
    return np.where(escaped, np.inf, outly)


def _projection_depths(query: np.ndarray, reference: np.ndarray, kind: DepthKind) -> np.ndarray:
    dirs = _directions(kind.direction_seed, kind.direction_count, reference.shape[1])
    outly = projection_outlyingness(reference @ dirs.T, query @ dirs.T)
    return 1.0 / (1.0 + outly)


def depth_values(query, reference, kind: DepthKind) -> np.ndarray:
    """Depth of each query row against the empirical reference sample.

    Deterministic given the inputs and, for projection depth, the
    direction seed. Values are always inside [0, 1].
    """
    query = as_sample_matrix(query, "query")
    reference = as_sample_matrix(reference, "reference")
    require_same_dimension(query, reference)
    if kind.kind == "mahalanobis":
        return _mahalanobis_depths(query, reference)
    if kind.kind == "spatial":
        return _spatial_depths(query, reference)
    return _projection_depths(query, reference, kind)


def pooled_depths(pooled: np.ndarray, kind: DepthKind):
    """``against(idx)``: the depths of every row of the sample matrix
    ``pooled`` against its rows ``pooled[idx]``.

    Spatial depth sums, in ``idx`` order, rows of the pooled unit-vector
    coordinates (d, N, N) while they fit ``_CACHE_ELEMENT_CAP``; projection
    depth gathers rows of the pooled projections. Otherwise each call runs
    the plain kernel.
    """
    n, d = pooled.shape
    if kind.kind == "spatial" and n * n * d <= _CACHE_ELEMENT_CAP:
        comps = _unit_components(pooled, pooled)
        return lambda idx: _spatial_from_sums(
            np.stack([coord[idx].sum(axis=0) for coord in comps]), len(idx)
        )
    if kind.kind == "projection":
        proj = pooled @ _directions(kind.direction_seed, kind.direction_count, d).T
        return lambda idx: 1.0 / (1.0 + projection_outlyingness(proj[idx], proj))
    return lambda idx: depth_values(pooled, pooled[idx], kind)
