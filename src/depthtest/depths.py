"""Empirical data-depth functions.

Three depths are provided, each mapping a query point to [0, 1] against a
reference sample:

* ``mahalanobis``: 1 / (1 + (x - xbar)' S^-1 (x - xbar)), with the sample
  mean and the (m - 1)-denominator sample covariance S.
* ``spatial``: 1 - || mean_i (x - x_i) / ||x - x_i|| ||, zero-distance
  terms contributing a zero vector.
* ``projection``: 1 / (1 + O(x)) where O(x) is the maximum over unit
  directions u of |u'x - med(u'X)| / MAD(u'X). The supremum is
  approximated by a fixed, seeded set of random directions shared by all
  query points of one call; MAD is the raw median absolute deviation with
  no consistency factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateSample, SingularCovariance
from .rng import TAG_DIRECTIONS, standard_normals, substream
from .samples import as_sample_matrix, require_same_dimension

VALID_KINDS = ("mahalanobis", "spatial", "projection")

DEFAULT_DIRECTION_COUNT = 500

_SPATIAL_CHUNK = 256


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


def _spatial_depths(query: np.ndarray, reference: np.ndarray) -> np.ndarray:
    m = reference.shape[0]
    out = np.empty(query.shape[0])
    for start in range(0, query.shape[0], _SPATIAL_CHUNK):
        chunk = query[start : start + _SPATIAL_CHUNK]
        diff = chunk[:, None, :] - reference[None, :, :]
        dist = np.sqrt(np.einsum("qmd,qmd->qm", diff, diff))
        with np.errstate(invalid="ignore", divide="ignore"):
            unit = diff / dist[:, :, None]
        unit[dist == 0.0] = 0.0
        avg = unit.sum(axis=1) / m
        out[start : start + _SPATIAL_CHUNK] = 1.0 - np.sqrt(np.einsum("qd,qd->q", avg, avg))
    return np.clip(out, 0.0, 1.0)


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
