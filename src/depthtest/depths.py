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
  no consistency factor. Median and MAD come from two in-place sorts of
  one (D, m) copy of the reference projections, and equal np.median's bit
  for bit. How fast those sorts run follows the SIMD level numpy
  dispatches on the CPU; the values do not.

Depths of a pooled sample against groups of its own rows come from
:func:`pooled_depths`, which builds the partition-independent geometry
of a stack of pooled samples once and gathers the reference rows of a
whole stack of partitions from it. The package's two memory rules live
here too: :func:`chunks` and :func:`require_within_cap`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.spatial.distance import cdist

from .errors import DegenerateSample, SingularCovariance, SizeLimit
from .rng import TAG_DIRECTIONS, standard_normals, substream
from .samples import as_sample_matrix, require_same_dimension

VALID_KINDS = ("mahalanobis", "spatial", "projection")

DEFAULT_DIRECTION_COUNT = 500

# Query rows per one-shot spatial block: blocks cut to _CHUNK_ELEMENTS
# (52 rows at q = 1000, m = 500, d = 10) ran about 10% slower.
_SPATIAL_CHUNK = 256

# Element budget of every per-chunk temporary of a stacked loop (2 MiB of
# float64): permutation partitions, simulated data sets and limit-law draws.
_CHUNK_ELEMENTS = 1 << 18

# Largest array that no chunk can shrink (160 MB of float64): cached spatial
# (d, N, N) coordinates, energy's N x N distances, projection's (N, D) scores.
_CACHE_ELEMENT_CAP = 20_000_000


def chunks(count: int, elements_each: int):
    """Consecutive ``(first, stop)`` ranges covering ``range(count)``, each
    of as many items of ``elements_each`` elements as fit
    ``_CHUNK_ELEMENTS``, and at least one."""
    size = max(1, _CHUNK_ELEMENTS // elements_each)
    for first in range(0, count, size):
        yield first, min(first + size, count)


def unit_scaled(*arrays) -> tuple[int, list[np.ndarray]]:
    """``(k, [2^k * a for a in arrays])`` for the one k that puts the
    largest |x| of all arrays in [0.5, 1). Scaling by 2^k changes no bit of
    a normal value, so a scale-invariant computation on the copy matches
    the data's own units, and its squares cannot overflow or underflow."""
    k = -max(int(np.frexp(np.abs(a).max())[1]) for a in arrays)
    return k, [np.ldexp(a, k) for a in arrays]


def require_within_cap(elements: int, what: str) -> None:
    """Refuse an array of ``elements`` elements past ``_CACHE_ELEMENT_CAP``;
    ``what`` names it in the SizeLimit message."""
    if elements > _CACHE_ELEMENT_CAP:
        raise SizeLimit(f"{what}, over the cap of {_CACHE_ELEMENT_CAP} elements")


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


def _sorted_median(rows: np.ndarray) -> np.ndarray:
    """Median of each row of an array sorted along its last axis; even
    lengths average the central pair, as np.median does."""
    h = rows.shape[-1] // 2
    if rows.shape[-1] % 2:
        return rows[..., h].copy()  # a view would change with the buffer
    return (rows[..., h - 1] + rows[..., h]) / 2.0


def projection_outlyingness(
    ref_proj: np.ndarray, query_proj: np.ndarray
) -> np.ndarray:
    """Max standardized projected deviation of each query given reference
    projections, both on the same direction set (columns).

    The (m, D) reference projections are copied once into a C-contiguous
    (D, m) buffer and each row is sorted in place; the median is read from
    the middle, the buffer turned into |x - med| in place and sorted again
    for the MAD. A sorted row holds the order statistics a selection would
    place and |x - med| takes the same values in any order, so both equal
    np.median's bit for bit (a zero median may carry either sign, which
    every |x - med| erases). The speed of the sorts follows the SIMD level
    numpy dispatches on the CPU; the values do not.
    """
    cols = ref_proj.T.copy()
    cols.sort(axis=-1)
    med = _sorted_median(cols)
    np.subtract(cols, med[:, None], out=cols)
    np.abs(cols, out=cols)
    cols.sort(axis=-1)
    mad = _sorted_median(cols)
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


def _projection_directions(kind: DepthKind, n: int, dim: int) -> np.ndarray:
    """The directions of ``kind``, refused before any draw past the cap."""
    count = kind.direction_count
    require_within_cap(n * count, f"projection depth needs {n} x {count} direction scores")
    return _directions(kind.direction_seed, count, dim)


def _projection_depths(query: np.ndarray, reference: np.ndarray, kind: DepthKind) -> np.ndarray:
    dirs = _projection_directions(kind, max(len(query), len(reference)), reference.shape[1])
    outly = projection_outlyingness(reference @ dirs.T, query @ dirs.T)
    return 1.0 / (1.0 + outly)


def depth_values(query, reference, kind: DepthKind) -> np.ndarray:
    """Depth of each query row against the empirical reference sample.

    Deterministic given the inputs and, for projection depth, the
    direction seed. Values are always inside [0, 1], and unchanged when
    query and reference are rescaled by one positive factor.
    """
    query = as_sample_matrix(query, "query")
    reference = as_sample_matrix(reference, "reference")
    require_same_dimension(query, reference)
    _, (query, reference) = unit_scaled(query, reference)
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
    The stack is first rescaled by :func:`unit_scaled`.
    """
    s, n, d = samples.shape
    _, (samples,) = unit_scaled(samples)
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
        dirs = _projection_directions(kind, n, d)
        proj = [sample @ dirs.T for sample in samples]
        return lambda idx, own: np.stack([
            1.0 / (1.0 + projection_outlyingness(proj[t][ref], proj[t]))
            for t, ref in zip(own, idx)
        ])
    return lambda idx, own: np.stack(
        [depth_values(samples[t], samples[t][ref], kind) for t, ref in zip(own, idx)]
    )
