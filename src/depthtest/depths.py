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
of a stack of pooled samples once and gathers the reference rows of a
whole stack of partitions from it.
"""

from __future__ import annotations

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


def _spd_cholesky(matrices: np.ndarray) -> np.ndarray:
    """Lower Cholesky factors of a symmetric matrix or a (P, d, d) stack of
    them, refusing near-singular input: any pivot at or below 1e-12 times
    its matrix's largest diagonal raises SingularCovariance, for the first
    such matrix of the stack, instead of regularizing."""
    tol = 1e-12 * np.diagonal(matrices, axis1=-2, axis2=-1).max(axis=-1)
    try:
        lower = np.linalg.cholesky(matrices)
    except np.linalg.LinAlgError as exc:
        raise SingularCovariance("covariance is not positive definite") from exc
    pivots = np.diagonal(lower, axis1=-2, axis2=-1) ** 2
    refused = pivots.min(axis=-1) <= tol
    if refused.any():
        pivots, tol = pivots.reshape(-1, pivots.shape[-1]), tol.reshape(-1)
        p = int(np.argmax(refused.reshape(-1)))
        j = int(np.argmin(pivots[p]))
        raise SingularCovariance(
            f"covariance pivot {pivots[p, j]:.3e} at column {j} (tolerance {tol[p]:.3e})"
        )
    return lower


def _mahalanobis_depths(query: np.ndarray, references: np.ndarray) -> np.ndarray:
    """(P, q) depths of the (q, d) query rows, or of the (P, q, d) stack of
    them, against each reference of a (P, m, d) stack, from stacked means,
    covariances, Cholesky factors and solves."""
    m = references.shape[1]
    if m < 2:
        raise SingularCovariance("mahalanobis depth needs at least 2 reference rows")
    mean = references.mean(axis=1)
    centered = references - mean[:, None, :]
    cov = np.matmul(centered.transpose(0, 2, 1), centered) / (m - 1)
    lower = _spd_cholesky(cov)
    dev = (query - mean[:, None, :]).transpose(0, 2, 1)
    half = np.linalg.solve(lower, dev)
    quad = np.einsum("pij,pij->pj", half, half)
    return 1.0 / (1.0 + quad)


def _unit_components(query: np.ndarray, reference: np.ndarray, out=None) -> np.ndarray:
    """Coordinates of the unit vectors from each reference row to each query
    row: ``comps[j, i, a] = (query[a, j] - reference[i, j]) / ||query[a] -
    reference[i]||``, C-contiguous (d, m, q), so that ``comps[j][i]`` is
    one contiguous row, or written into the (d, m, q) array ``out``.
    Coincident pairs divide by infinity and so give exact zeros."""
    dist = cdist(reference, query)
    dist[dist == 0.0] = np.inf
    comps = np.subtract(query.T[:, None, :], reference.T[:, :, None], out=out, order="C")
    comps /= dist
    return comps


def _spatial_from_sums(sums: np.ndarray, m: int) -> np.ndarray:
    """Spatial depths from the (d, ...) unit-vector sums over m reference rows."""
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
    """Seeded unit directions, cached and shared by every caller with the
    same arguments, so the array is read-only: a write raises instead of
    changing every later projection depth with this seed."""
    rng = substream(seed, TAG_DIRECTIONS)
    vecs = standard_normals(rng, (count, dim))
    norms = np.sqrt(np.einsum("kd,kd->k", vecs, vecs))
    norms[norms == 0.0] = 1.0
    dirs = vecs / norms[:, None]
    dirs.flags.writeable = False
    return dirs


def _column_medians(matrix: np.ndarray) -> np.ndarray:
    """Median down each column; even row counts average the central pair.

    Equal to np.median(axis=0) (signed zeros compared by value), from one
    selection with a single kth per column: row ``half`` of the partition.
    For even row counts the lower middle is the max of the ``half`` rows
    before it, the same order statistic a second kth would place. Two kth
    values are not passed because numpy 2.4 runs a two-kth partition 3-4x
    slower than a single-kth one.
    """
    rows = matrix.shape[0]
    half = rows // 2
    if rows % 2:
        return np.partition(matrix, half, axis=0)[half]
    part = np.partition(matrix, half, axis=0)
    return (part[:half].max(axis=0) + part[half]) / 2.0


def projection_outlyingness(
    ref_proj: np.ndarray, query_proj: np.ndarray
) -> np.ndarray:
    """Max standardized projected deviation of each query given reference
    projections, both on the same direction set (columns)."""
    med = _column_medians(ref_proj)
    spread = np.subtract(ref_proj, med)
    mad = _column_medians(np.abs(spread, out=spread))
    usable = mad > 0.0
    if not usable.any():
        raise DegenerateSample("every projected direction has zero MAD")
    numer = np.subtract(query_proj, med)
    np.abs(numer, out=numer)
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
        return _mahalanobis_depths(query, reference[None])[0]
    if kind.kind == "spatial":
        return _spatial_depths(query, reference)
    return _projection_depths(query, reference, kind)


def _spatial_cache_fits(n: int, d: int) -> bool:
    return n * n * d <= _CACHE_ELEMENT_CAP


def depth_elements(kind: DepthKind, n: int, d: int, m: int) -> tuple[int, int]:
    """Sizes, in elements, of what :func:`pooled_depths` builds for m-row
    references of n pooled rows in d dimensions: per partition, its largest
    temporary (Mahalanobis' (d, n) deviations, cached spatial's (m, n)
    gather and (d, n) sums, one depth row for the kernels that run once per
    partition); and per pooled sample, the geometry it keeps (cached
    spatial's (d, n, n) unit-vector coordinates, projection's (n, D)
    scores, the sample itself otherwise)."""
    if kind.kind == "mahalanobis":
        return d * n, n * d
    if kind.kind == "spatial" and _spatial_cache_fits(n, d):
        return max(m, d) * n, d * n * n
    if kind.kind == "projection":
        return n, n * kind.direction_count
    return n, n * d


def pooled_depths(samples: np.ndarray, kind: DepthKind):
    """``against(idx, own)``: for a (P, m) stack of row indices and the (P,)
    sample indices ``own``, the (P, N) depths of every row of pooled sample
    ``own[p]`` against the reference given by its rows ``idx[p]``.
    ``samples`` is an (S, N, d) stack of pooled samples.

    Mahalanobis depth runs stacked over P. Spatial depth sums, in ``idx``
    order, rows of each sample's unit-vector coordinates (d, N, N) while
    they fit ``_CACHE_ELEMENT_CAP``, one coordinate at a time as a
    (P, m, N) gather. Projection depth gathers rows of each sample's
    projections and runs once per partition; so does the plain spatial
    kernel past the cap. :func:`depth_elements` gives the sizes of the
    largest per-partition temporary and of the geometry kept per sample.
    """
    s, n, d = samples.shape
    if kind.kind == "mahalanobis":
        return lambda idx, own: _mahalanobis_depths(
            samples[own], samples.reshape(-1, d)[idx + n * own[:, None]]
        )
    if kind.kind == "spatial" and _spatial_cache_fits(n, d):
        # coordinate j of sample t at comps[j, t], so comps[j] rows are (S * N, N)
        comps = np.empty((d, s, n, n))
        for t, sample in enumerate(samples):
            _unit_components(sample, sample, out=comps[:, t])
        coords = comps.reshape(d, s * n, n)

        def spatial(idx, own):
            rows = idx + n * own[:, None]
            return _spatial_from_sums(
                np.stack([coord[rows].sum(axis=1) for coord in coords]), idx.shape[1]
            )

        return spatial
    if kind.kind == "projection":
        dirs = _directions(kind.direction_seed, kind.direction_count, d)
        proj = [sample @ dirs.T for sample in samples]
        return lambda idx, own: np.stack([
            1.0 / (1.0 + projection_outlyingness(proj[t][ref], proj[t]))
            for t, ref in zip(own, idx)
        ])
    return lambda idx, own: np.stack(
        [depth_values(samples[t], samples[t][ref], kind) for t, ref in zip(own, idx)]
    )
