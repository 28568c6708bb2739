"""Directed quality indices Q between empirical samples.

Q(F_m, G_n) is the average, over the second sample, of the fraction of the
reference sample whose depth does not exceed the query point's depth; ties
count via the weak inequality. Both directions are computed because the
reference role is not symmetric. Under homogeneity each direction centers
on 1/2.

For k groups every ordered pair (i, j) gives one index, with group i as
reference. All of them come from the same depth rows: the groups are
pooled once and the whole pooled sample is depthed against each group's
empirical distribution. :func:`partition_depth_rows` forms the rows of a
whole stack of partitions at once, and :func:`quality_indices` their
(P, k, k) indices; permutation calibration feeds both chunks of
re-partitions, and :func:`quality_matrix` is the stack of one identity
partition. The two-sample pair :func:`quality` is entries (0, 1) and
(1, 0) of the k = 2 matrix. The statistics on these matrices are the
formulas of :mod:`depthtest.multi_sample`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .depths import DepthKind, depth_values, pooled_depths
from .errors import SizeLimit
from .samples import as_sample_matrix, coerce_groups, group_slices, require_same_dimension

ORACLE_CAP = 64


@dataclass(frozen=True)
class QualityPair:
    """Both directed quality indices with the sample sizes that scale them.

    Each index is an integer multiple of 1/(m*n).
    """

    q_fg: float
    q_gf: float
    m: int
    n: int


@dataclass(frozen=True, eq=False)
class QualityMatrix:
    """Directed quality indices q[i][j] = Q(group_i as reference, group_j).

    The diagonal is unused (NaN). Entry (i, j) is an integer multiple of
    1/(sizes[i] * sizes[j]).
    """

    q: np.ndarray
    sizes: tuple[int, ...]

    @property
    def k(self) -> int:
        return len(self.sizes)


def partition_depth_rows(depths_against, slices, orders: np.ndarray, own: np.ndarray) -> np.ndarray:
    """(P, k, N) depth rows of the P partitions of a (P, N) stack of orders.

    Partition p puts row ``orders[p, t]`` of pooled sample ``own[p]`` at
    position t and group g at positions ``slices[g]``; its row g holds
    every position's depth against group g, from
    :func:`~depthtest.depths.pooled_depths`."""
    p, n = orders.shape
    depths = np.empty((p, len(slices), n))
    for g, sl in enumerate(slices):
        depths[:, g] = depths_against(orders[:, sl], own)
    # row (p, g) gathers its depths in the order of partition p
    flat = orders[:, None, :] + n * np.arange(p * len(slices)).reshape(p, -1, 1)
    return depths.reshape(-1)[flat]


@lru_cache(maxsize=64)
def _counting_layout(sizes: tuple[int, ...]):
    """The read-only arrays :func:`quality_indices` reuses for one set of
    group sizes: ``flat``, each row i's positions in the flattened (k * N)
    rows with group i's block moved first; ``row_offsets``, where each row
    starts in them; ``bins``, the count bin i * k + j of each moved position
    of group j; ``own``, the group sizes as a column; and the count
    denominators mᵢmⱼ, NaN on the diagonal."""
    k, n = len(sizes), sum(sizes)
    labels = np.repeat(np.arange(k), sizes)
    front = np.stack(
        [np.concatenate([np.flatnonzero(labels == i), np.flatnonzero(labels != i)])
         for i in range(k)]
    )
    reference_rows = np.arange(k)[:, None]
    row_offsets = n * reference_rows
    flat = front + row_offsets
    bins = (labels[front] + k * reference_rows).ravel()
    own = np.array(sizes)[:, None]
    denominators = (own * own.T).astype(float)
    denominators[np.diag_indices(k)] = np.nan
    layout = (flat, row_offsets, bins, own, denominators)
    for array in layout:
        array.flags.writeable = False
    return layout


def quality_indices(rows: np.ndarray, sizes) -> np.ndarray:
    """(P, k, k) directed quality indices of a (P, k, N) stack of depth rows
    (:func:`partition_depth_rows`); the diagonal is NaN.

    Entry (i, j) counts, over group j's positions of row i, the group-i
    depths at or below each. Each row is sorted once, stably, with group
    i's block moved first, so every group-i depth precedes the equal depths
    of the other groups (-0.0 equals 0.0): the running count of group-i
    depths at a group-j position is that position's count. The counts are
    exact integers, so each index is the count over mᵢmⱼ correctly rounded.
    """
    p, k, n = rows.shape
    flat, row_offsets, bins, own, denominators = _counting_layout(tuple(sizes))
    order = np.argsort(rows.reshape(p, k * n)[:, flat], axis=-1, kind="stable")
    below = np.add.accumulate(order < own, axis=-1, dtype=np.intp)
    # partition p's bins follow partition p - 1's; float sums of the counts are exact
    keys = bins[order + row_offsets]
    keys += (k * k * np.arange(p)).reshape(p, 1, 1)
    counts = np.bincount(keys.ravel(), weights=below.ravel(), minlength=p * k * k)
    return counts.reshape(p, k, k) / denominators


def quality_matrix(groups, kind: DepthKind) -> QualityMatrix:
    """All k(k-1) directed quality indices for a list of groups."""
    pooled, sizes = coerce_groups(groups)
    identity = np.arange(pooled.shape[0])[None]
    against = pooled_depths(pooled[None], kind)
    rows = partition_depth_rows(against, group_slices(sizes), identity, np.zeros(1, dtype=np.intp))
    return QualityMatrix(q=quality_indices(rows, sizes)[0], sizes=tuple(sizes))


def quality(x, y, kind: DepthKind) -> QualityPair:
    """Q(F_m, G_n) and Q(G_n, F_m): entries (0, 1) and (1, 0) of the k = 2 matrix."""
    qm = quality_matrix([x, y], kind)
    return QualityPair(float(qm.q[0, 1]), float(qm.q[1, 0]), m=qm.sizes[0], n=qm.sizes[1])


def quality_brute_oracle(x, y, kind: DepthKind) -> QualityPair:
    """Independent double-loop evaluation of the quality pair.

    Counts every depth comparison explicitly; exists to pin down the
    stable-sort running-count production path. Capped at 64 x 64.
    """
    x = as_sample_matrix(x, "x")
    y = as_sample_matrix(y, "y")
    require_same_dimension(x, y)
    m, n = x.shape[0], y.shape[0]
    if m > ORACLE_CAP or n > ORACLE_CAP:
        raise SizeLimit(f"oracle accepts at most {ORACLE_CAP} rows per sample")
    pooled = np.vstack([x, y])
    under_x = depth_values(pooled, x, kind)
    under_y = depth_values(pooled, y, kind)

    def count_all(ref: np.ndarray, other: np.ndarray) -> int:
        total = 0
        for dv in other:
            for rv in ref:
                if rv <= dv:
                    total += 1
        return total

    q_fg = count_all(under_x[:m], under_x[m:]) / (m * n)
    q_gf = count_all(under_y[m:], under_y[:m]) / (m * n)
    return QualityPair(q_fg=q_fg, q_gf=q_gf, m=m, n=n)
