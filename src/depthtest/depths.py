"""Empirical data-depth functions.

Three depths are provided, each mapping a query point to [0, 1] against a
reference sample:

* ``mahalanobis``: 1 / (1 + (x - xbar)' S^-1 (x - xbar)), with the sample
  mean and the (m - 1)-denominator sample covariance S.
* ``spatial``: 1 - || mean_i (x - x_i) / ||x - x_i|| ||, zero-distance
  terms contributing a zero vector. The unit vectors come one coordinate
  at a time from the coordinate differences, divided by distances that
  :func:`coordinate_distances` sums from those same differences, and are
  summed in reference order with no BLAS call, so each depth depends only
  on its own query row: duplicate rows tie exactly, a 1-D depth is
  exactly 1 - |#{x_i < x} - #{x_i > x}| / m, and no value depends on the
  thread count.
* ``projection``: 1 / (1 + O(x)) where O(x) is the maximum over unit
  directions u of |u'x - med(u'X)| / MAD(u'X). The supremum is
  approximated by a fixed, seeded set of random directions shared by all
  query points of one call; MAD is the raw median absolute deviation with
  no consistency factor. Median and MAD come from two in-place sorts of
  one (D, m) copy of the reference projections, and equal np.median's bit
  for bit. How fast those sorts run follows the SIMD level numpy
  dispatches on the CPU; the values do not. The standardized deviations
  and their maximum are formed in strips of query rows within one
  :func:`chunks` budget.

Depths of a pooled sample against groups of its own rows come from
:func:`pooled_depths`, a plain function that returns the depth rows of
every sample of a stack of pooled samples under every order of a stack of
partitions: Mahalanobis group by group, stacked over the partitions;
projection partition by partition, on the scores of one pooled sample at
a time; spatial, under several orders, one sample at a time, block by
block of query columns, each block's unit vectors computed once for every
partition and group. Under one order (a simulation chunk, a
one-off evaluation, a scale curve) spatial depth walks tile rows of the
samples in partition order and computes each pair's unit vector once:
u(i -> a) = -u(a -> i) exactly, and every sum still adds its terms in
reference order. It keeps no state between calls but the one cached
direction set of the latest projection call.
The package's two memory rules live here too: :func:`chunks` and
:func:`require_within_cap`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateSample, SingularCovariance, SizeLimit
from .rng import TAG_DIRECTIONS, key_element, require_integer, standard_normals, substream
from .samples import as_sample_matrix, require_same_dimension

VALID_KINDS = ("mahalanobis", "spatial", "projection")

DEFAULT_DIRECTION_COUNT = 500

# Query columns per spatial block, one-shot and pooled. One-shot at q = 1000,
# m = 500, d = 10 took 22.6 ms at 128 columns, 25.2 ms at 256 and 25.7 ms at
# 52 (blocks cut to _CHUNK_ELEMENTS); a pooled block of 128 holds (d, N, 128)
# per sample, 10 MB at N = 1000, d = 10, against 80 MB for all N columns.
_SPATIAL_CHUNK = 128

# Reference rows per pass of the spatial kernel: 256 rows of a 128-column
# plane (256 KiB) stay in L2 between being written and being squared. On a
# 2-core Xeon with 2 MiB of L2 per core, 8 blocks at q = 128, m = 1000,
# d = 10 took 53.6 ms at 256 rows, 56.3 ms at 128 and 56.9 ms with whole
# planes.
_SPATIAL_ROWS = 256

# Reference rows per tile row of one-order spatial depth. On a 2-core Xeon,
# one order at (S, N, d) = (1, 1000, 10) took 31-34 ms at 64 rows, 33-37 ms
# at 32 and 39-42 ms at 128; at (5, 200, 2), 32 rows were the slowest.
_SPATIAL_TILE = 64

# Element budget of every per-chunk temporary of a stacked loop (2 MiB of
# float64): permutation partitions, simulated data sets and limit-law draws.
_CHUNK_ELEMENTS = 1 << 18

# Largest array that no chunk can shrink (160 MB of float64): energy's largest
# distance block, projection's (N, D) scores and (D, d) directions, a simulated
# pooled sample, each statistic's simulated values. Spatial's (d, N, 128)
# coordinate block has no cap.
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
        key_element(self.direction_seed, "direction_seed")
        count = require_integer(self.direction_count, "direction_count")
        if self.kind not in VALID_KINDS:
            raise ValueError(f"unknown depth kind {self.kind!r}; expected one of {VALID_KINDS}")
        if self.kind == "projection" and count < 1:
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
    """(P, q) depths of the (q, d) query rows, or of a (1, q, d) or
    (P, q, d) stack of them, against each reference of a (P, m, d) stack,
    from stacked means, covariances, Cholesky factors and solves."""
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


def coordinate_distances(columns, rows, planes, out, squares) -> np.ndarray:
    """Euclidean distances, written into ``out``, between the points whose
    coordinate j is ``columns[j]`` and ``rows[j]``, two arrays that
    broadcast to one plane of ``out``'s shape. Plane j of ``planes`` (which
    may repeat one buffer) is filled with ``columns[j]`` and ``rows[j]`` is
    subtracted in place; its square goes to ``squares`` (which may be that
    plane) and is added to ``out`` right after, coordinate 0 first. That is
    the order in which scipy's ``cdist`` sums, so every distance equals
    cdist's bit for bit; ``np.sum`` or ``np.linalg.norm`` over a last,
    contiguous coordinate axis adds pairwise from d = 8 on and rounds
    differently. ``np.square`` forms the same product x * x as
    ``np.multiply(x, x)``, in about half its time on numpy 2.4 (9.1 against
    16.5 us on a 256 x 128 plane).
    """
    for j, (plane, column, row) in enumerate(zip(planes, columns, rows)):
        plane[...] = column
        np.subtract(plane, row, out=plane)
        if j:
            np.square(plane, out=squares)
            out += squares
        else:
            np.square(plane, out=out)
    return np.sqrt(out, out=out)


def _unit_components(query: np.ndarray, reference: np.ndarray, out=None) -> np.ndarray:
    """Coordinates of the unit vectors from each reference row to each query
    row: ``comps[j, i, a] = (query[a, j] - reference[i, j]) / ||query[a] -
    reference[i]||``, C-contiguous (d, m, q), so that ``comps[j][i]`` is
    one contiguous row, or written into the (d, m, q) array ``out``.
    Coincident pairs divide by infinity and so give exact zeros. The
    differences and their distances are formed ``_SPATIAL_ROWS`` reference
    rows at a time, so that each plane is squared while still in cache."""
    q, d = query.shape
    m = reference.shape[0]
    comps = np.empty((d, m, q)) if out is None else out
    dist = np.empty((min(m, _SPATIAL_ROWS), q))
    squares = np.empty_like(dist)
    for start in range(0, m, _SPATIAL_ROWS):
        rows = reference[start : start + _SPATIAL_ROWS].T[:, :, None]
        block, near = comps[:, start : start + rows.shape[1]], dist[: rows.shape[1]]
        coordinate_distances(query.T, rows, block, near, squares[: rows.shape[1]])
        near[near == 0.0] = np.inf
        block /= near
    return comps


def _spatial_from_sums(sums: np.ndarray, m: int) -> np.ndarray:
    """Spatial depths from the (d, ...) unit-vector sums over m reference rows."""
    avg = sums / m
    return np.clip(1.0 - np.sqrt(np.square(avg, out=avg).sum(axis=0)), 0.0, 1.0)


def _column_blocks(count: int):
    """``(start, stop)`` ranges of at most ``_SPATIAL_CHUNK`` query columns
    covering ``range(count)``. numpy sums the reference axis of a
    one-column block pairwise, not in reference order like every wider
    block: one-shot, and under several orders, whose (m, P', 1) gather
    numpy lays out with the reference axis contiguous, whatever P'. So a
    lone last column is widened by the one before it."""
    for start in range(0, count, _SPATIAL_CHUNK):
        yield max(0, min(start, count - 2)), min(start + _SPATIAL_CHUNK, count)


def _spatial_depths(query: np.ndarray, reference: np.ndarray) -> np.ndarray:
    if query.shape[0] == 1:
        # a lone query row has no neighbour to widen its block with
        return _spatial_depths(np.vstack([query, query]), reference)[:1]
    out = np.empty(query.shape[0])
    for start, stop in _column_blocks(query.shape[0]):
        sums = _unit_components(query[start:stop], reference).sum(axis=1)
        out[start:stop] = _spatial_from_sums(sums, reference.shape[0])
    return out


def _add_rows(sums: np.ndarray, rows: np.ndarray, slot: int, stop: int, sign: int = 1) -> None:
    """Add ``sign`` times rows ``slot + 1`` to ``stop`` of the (d, G, R, w)
    ``rows`` to the (d, G, w) running ``sums`` one after the other, in row
    order: ``sign`` times the sums ride in row ``slot``, which they
    overwrite, as the first row of one reduce. Negation is exact and
    rounding symmetric, so -((-s + a) + b) = (s - a) - b."""
    np.multiply(sums, sign, out=rows[:, :, slot])
    np.add.reduce(rows[:, :, slot : stop + 1], axis=2, out=sums)
    if sign < 0:
        np.negative(sums, out=sums)


def _one_order_spatial(samples: np.ndarray, slices) -> np.ndarray:
    """(S, k, N) spatial depth rows of the (S, N, d) ``samples``, already
    in partition order, against the groups ``slices``: consecutive
    ranges covering ``range(N)`` in ascending order.

    Tile row r0:r1 takes the unit vectors from its rows to the columns
    r0:N from :func:`_unit_components`, in rows 1 on of a (d, G, T + 1,
    N - r0) buffer, and copies their transpose into rows 1 on of a second
    (d, G, N - r1 + 1, T) buffer: negated, as :func:`_add_rows` adds it,
    those are the rows r1:N of the columns r0:r1, since u(i -> a) =
    -u(a -> i) exactly. Each group adds its rows of both to per-column
    running sums, the direct rows first, so that every column gets its
    group's rows in ascending order: after tile row r0:r1 the columns
    r0:r1 are complete. Every sum adds the terms of the reference
    order in that order, starting from zero, so only the sign of an
    all-zero sum can differ, and squaring erases it. Every reduce but a
    lone last row's is at least 2 columns wide, and that one adds the
    row's zero self-term alone, so no sum goes pairwise and, unlike
    :func:`_column_blocks`, no tile is widened. Groups run in
    ascending order, so the row each group's sums ride in holds a row of
    a group already added. The samples go in groups whose two buffers fit
    one :func:`chunks` budget together (or one sample), both views of one
    allocation; their (k, d, G, N) running sums come on top. glibc sets
    its mmap and trim thresholds from the largest block freed: with two
    allocations, one process rotating simulation ops over the depths took
    about 1,000 page faults per spatial and per projection op, against
    none with one. ``cli.main`` now fixes both thresholds for its
    process, but the one-allocation rule remains for library callers
    that never run it.
    """
    s, n, d = samples.shape
    tiles = [(r0, min(r0 + _SPATIAL_TILE, n)) for r0 in range(0, n, _SPATIAL_TILE)]
    direct_size = d * max((r1 - r0 + 1) * (n - r0) for r0, r1 in tiles)
    crossed_size = d * max((n - r1 + 1) * (r1 - r0) for r0, r1 in tiles)
    sample_groups = list(chunks(s, direct_size + crossed_size))
    buffer = np.empty(sample_groups[0][1] * (direct_size + crossed_size))
    depths = np.empty((s, len(slices), n))
    for first, last in sample_groups:
        group = last - first
        direct, crossed = buffer[: group * direct_size], buffer[group * direct_size :]
        sums = np.zeros((len(slices), d, group, n))
        for r0, r1 in tiles:
            h = r1 - r0
            rows = direct[: d * group * (h + 1) * (n - r0)].reshape(d, group, h + 1, n - r0)
            for t, sample in enumerate(samples[first:last]):
                _unit_components(sample[r0:], sample[r0:r1], out=rows[:, t, 1:])
            cols = crossed[: d * group * (n - r1 + 1) * h].reshape(d, group, n - r1 + 1, h)
            np.copyto(cols[:, :, 1:], rows[:, :, 1:, h:].transpose(0, 1, 3, 2))
            for acc, sl in zip(sums, slices):
                if max(r0, sl.start) < min(r1, sl.stop):
                    _add_rows(acc[..., r0:], rows, max(r0, sl.start) - r0, min(r1, sl.stop) - r0)
                if max(r1, sl.start) < sl.stop:
                    _add_rows(acc[..., r0:r1], cols, max(r1, sl.start) - r1, sl.stop - r1, -1)
        for g, sl in enumerate(slices):
            depths[first:last, g] = _spatial_from_sums(sums[g], sl.stop - sl.start)
    return depths


@lru_cache(maxsize=1)
def _directions(seed: int, count: int, dim: int) -> np.ndarray:
    """Seeded unit directions, cached for the latest arguments only: one
    run draws them once, and a process keeps one set between runs. Every
    caller until the next draw shares the array, so it is read-only: a
    write raises instead of changing every later projection depth with
    this seed."""
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

    |x - med| / MAD and its row maximum are formed for strips of as many
    query rows as fit one :func:`chunks` budget, in one strip buffer. A
    direction of zero MAD divides to inf where a query leaves its median
    and to NaN where it sits on it, and the row maximum (``np.fmax``)
    passes over NaN: a query is infinitely outlying exactly when it leaves
    the median of some zero-MAD direction.
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
    outly = np.empty(len(query_proj))
    spans = list(chunks(len(query_proj), len(med)))
    strip = np.empty((spans[0][1], len(med)))
    with np.errstate(divide="ignore", invalid="ignore"):
        for first, stop in spans:
            part = strip[: stop - first]
            np.subtract(query_proj[first:stop], med, out=part)
            np.abs(part, out=part)
            np.divide(part, mad, out=part)
            np.fmax.reduce(part, axis=1, out=outly[first:stop])
    return outly


def require_geometry_within_cap(kind: DepthKind, n: int, dim: int) -> None:
    """Refuse what :func:`pooled_depths` builds for a sample of n rows in
    ``dim`` dimensions past ``_CACHE_ELEMENT_CAP``: projection's (n, D)
    direction scores and its (D, d) directions. The other kinds build at
    most the sample itself, and spatial's block buffer has no cap."""
    if kind.kind == "projection":
        count = kind.direction_count
        require_within_cap(n * count, f"projection depth needs {n} x {count} direction scores")
        require_within_cap(count * dim, f"projection depth needs {count} x {dim} directions")


def _projection_directions(kind: DepthKind, n: int, dim: int) -> np.ndarray:
    """The directions of ``kind``, refused before any draw past the cap."""
    require_geometry_within_cap(kind, n, dim)
    return _directions(kind.direction_seed, kind.direction_count, dim)


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


def depth_elements(kind: DepthKind, n: int, d: int) -> int:
    """Size, in elements, of the largest temporary :func:`pooled_depths`
    builds per partition for n pooled rows in d dimensions: Mahalanobis'
    (d, n) deviations, spatial's (d, w) sums over a block of w = min(n,
    ``_SPATIAL_CHUNK``) columns under several orders (it cuts its (m, P',
    w) reference-major gathers of P' partitions to a chunk), or one
    projection depth row. Each kind bounds what it builds per pooled sample
    itself: spatial depth under one order builds no per-partition
    temporary, but two tile buffers for as many samples as fit one
    :func:`chunks` budget (or one sample), and their (k, d, n) running
    sums."""
    if kind.kind == "mahalanobis":
        return d * n
    if kind.kind == "spatial":
        return d * min(n, _SPATIAL_CHUNK)
    return n


def pooled_depths(samples: np.ndarray, kind: DepthKind, orders: np.ndarray, slices) -> np.ndarray:
    """The (S·P, k, N) depth rows of every sample of the (S, N, d) stack
    ``samples`` under every order of the (P, N) stack ``orders``,
    sample-major. Row g of partition t·P + p holds the depth of each
    position j, row ``orders[p, j]`` of sample t, against group g, the rows
    ``orders[p, slices[g]]``. Permutation runs stack one sample, simulation
    chunks evaluate one identity order.

    Each kind forms the depths of the rows in sample order, and one gather
    puts them in partition order, except spatial depth under one order.
    Mahalanobis depth runs stacked over the S·P partitions, its query the
    samples broadcast over the orders: a view when S = 1 or P = 1. Spatial
    depth under several orders walks one sample at a time, in blocks of w
    <= ``_SPATIAL_CHUNK`` query columns whose (d, N, w) unit vectors share
    one buffer: a block's coordinates are summed per group, one coordinate
    at a time, for as many (P') partitions at once as fit their (m, w)
    gathers into a budget. The gather is reference-major: an (m, P', w)
    stack through the transposed index ``orders[a:b, sl].T``, summed over
    its first axis, so that each add takes reference row i of every
    partition as one contiguous run of P'·w values, and each sum still adds
    its rows in partition order. Under one order (P = 1) it relabels the
    samples into partition order and walks tile rows of ``_SPATIAL_TILE``
    rows, each pair's unit vector computed once and added to running sums
    in ascending row order, with no gather (:func:`_one_order_spatial`);
    the depths are bit for bit those of the column blocks. Projection
    depth runs partition by partition, gathering each group's reference
    rows from one (N, D) scores buffer filled once per sample.
    :func:`depth_elements` gives the largest per-partition temporary. The
    stack is first rescaled by :func:`unit_scaled`; nothing outlives the
    call but the cached projection direction set.
    """
    (s, n, d), p, k = samples.shape, len(orders), len(slices)
    _, (samples,) = unit_scaled(samples)
    if kind.kind == "mahalanobis":
        stacked = samples.reshape(-1, d)
        starts = n * np.arange(s)[:, None, None]
        query = np.broadcast_to(samples[:, None], (s, p, n, d)).reshape(-1, n, d)
        depths = np.stack([
            _mahalanobis_depths(query, stacked[(orders[:, sl] + starts).reshape(s * p, -1)])
            for sl in slices
        ], axis=1)
    elif kind.kind == "projection":
        dirs = _projection_directions(kind, n, d)
        scores = np.empty((n, len(dirs)))
        depths = np.empty((s, p, k, n))
        for sample, rows in zip(samples, depths):
            np.matmul(sample, dirs.T, out=scores)
            for order, row in zip(orders, rows):
                for g, sl in enumerate(slices):
                    row[g] = projection_outlyingness(scores[order[sl]], scores)
        np.add(depths, 1.0, out=depths)
        np.divide(1.0, depths, out=depths)
    elif p == 1:
        return _one_order_spatial(samples[:, orders[0]], slices)
    else:
        buffer = np.empty(d * n * min(n, _SPATIAL_CHUNK))
        depths = np.empty((s, p, k, n))
        for sample, out in zip(samples, depths):
            for start, stop in _column_blocks(n):
                coords = buffer[: d * n * (stop - start)].reshape(d, n, stop - start)
                _unit_components(sample[start:stop], sample, out=coords)
                for g, sl in enumerate(slices):
                    for a, b in chunks(p, (sl.stop - sl.start) * (stop - start)):
                        part = orders[a:b, sl].T
                        sums = np.stack([coord[part].sum(axis=0) for coord in coords])
                        out[a:b, g, start:stop] = _spatial_from_sums(sums, len(part))
    # row (t, p, g) gathers sample t's depths in the order of partition p
    positions = orders[:, None, :] + n * np.arange(s * p * k).reshape(s, -1, k, 1)
    return depths.reshape(-1)[positions].reshape(-1, k, n)
