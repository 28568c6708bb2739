"""Directed quality indices Q between empirical samples.

Q(F_m, G_n) is the average, over the second sample, of the fraction of the
reference sample whose depth does not exceed the query point's depth; ties
count via the weak inequality. Both directions are computed because the
reference role is not symmetric. Under homogeneity each direction centers
on 1/2.

For k groups every ordered pair (i, j) gives one index, with group i as
reference. All of them come from the same depth rows: the groups are
pooled once and the whole pooled sample is depthed against each group's
empirical distribution. :func:`~depthtest.depths.pooled_depths` forms
the rows of a whole stack of partitions at once, and
:func:`quality_indices` their (P, k, k) indices; permutation and
simulation chunks feed both, and :func:`quality_matrix` is one sample
under the identity order. The two-sample pair :func:`quality` is entries
(0, 1) and (1, 0) of the k = 2 matrix. The statistics on these matrices
are the formulas of :mod:`depthtest.multi_sample`. The sort that counts
Q also gives the depth-rank (DbR) statistic's rank sums when asked.
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


def quality_indices(rows: np.ndarray, sizes, rank_sums: bool = False):
    """``(q, sums)``: the (P, k, k) directed quality indices of a (P, k, N)
    stack of depth rows (:func:`~depthtest.depths.pooled_depths`), NaN on
    the diagonal, and DbR's (P, k, k) rank sums if ``rank_sums``, else None.

    Each row is sorted once, stably, with group i's block moved first, so
    every group-i depth precedes the equal depths of the other groups
    (-0.0 equals 0.0). Entry (i, j) of q is the running count of group-i
    depths at each of group j's positions in row i, summed, over mᵢmⱼ;
    entry (i, j) of sums adds their ranks, the depths at or above each.
    Both are exact integers, so each index is correctly rounded.
    """
    p, k, n = rows.shape
    flat, row_offsets, bins, own, denominators = _counting_layout(tuple(sizes))
    moved = rows.reshape(p, k * n)[:, flat]
    order = np.argsort(moved, axis=-1, kind="stable")
    below = np.add.accumulate(order < own, axis=-1, dtype=np.intp)
    # partition p's bins follow partition p - 1's; float sums of the counts are exact
    keys = bins[order + row_offsets]
    keys += (k * k * np.arange(p)).reshape(p, 1, 1)
    counts = np.bincount(keys.ravel(), weights=below.ravel(), minlength=p * k * k)
    q = counts.reshape(p, k, k) / denominators
    if not rank_sums:
        return q, None
    # a position's rank is N less the start of its run of equal depths
    ordered = moved.reshape(-1)[order + n * np.arange(p * k).reshape(p, k, 1)]
    starts = np.zeros_like(order)
    np.copyto(starts[..., 1:], np.arange(1, n), where=ordered[..., 1:] != ordered[..., :-1])
    np.maximum.accumulate(starts, axis=-1, out=starts)
    sums = np.bincount(keys.ravel(), weights=(n - starts).ravel(), minlength=p * k * k)
    return q, sums.reshape(p, k, k)


def quality_matrix(groups, kind: DepthKind) -> QualityMatrix:
    """All k(k-1) directed quality indices for a list of groups."""
    pooled, sizes = coerce_groups(groups)
    identity = np.arange(pooled.shape[0])[None]
    rows = pooled_depths(pooled[None], kind, identity, group_slices(sizes))
    q, _ = quality_indices(rows, sizes)
    return QualityMatrix(q=q[0], sizes=tuple(sizes))


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
