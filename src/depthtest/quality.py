"""Directed quality indices Q between empirical samples.

Q(F_m, G_n) is the average, over the second sample, of the fraction of the
reference sample whose depth does not exceed the query point's depth; ties
count via the weak inequality. Both directions are computed because the
reference role is not symmetric. Under homogeneity each direction centers
on 1/2.

For k groups every ordered pair (i, j) gives one index, with group i as
reference. All of them come from the same depth rows: the groups are
pooled once and the whole pooled sample is depthed against each group's
empirical distribution (:func:`pooled_depth_rows`, the identity order of
:func:`partition_depth_rows`, which permutation loops call per
re-partition). The two-sample pair
:func:`quality` is entries (0, 1) and (1, 0) of the k = 2 matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def directed_quality(ref_depths: np.ndarray, other_depths: np.ndarray) -> float:
    """Q with the first argument's sample as reference.

    ``ref_depths`` are the reference sample's depths against itself,
    ``other_depths`` the other sample's depths against the same reference.
    """
    ordered = np.sort(ref_depths)
    counts = np.searchsorted(ordered, other_depths, side="right")
    return int(counts.sum()) / (ref_depths.size * other_depths.size)


def partition_depth_rows(depths_against, slices, order: np.ndarray) -> list[np.ndarray]:
    """Depth rows of the partition that puts pooled row ``order[p]`` at
    position p and group g at positions ``slices[g]``: row g holds every
    position's depth against group g, from :func:`~depthtest.depths.pooled_depths`."""
    return [depths_against(order[sl])[order] for sl in slices]


def pooled_depth_rows(pooled: np.ndarray, sizes, kind: DepthKind) -> list[np.ndarray]:
    """Depths of every pooled row against each group's empirical
    distribution; one row per reference group, the groups being the
    consecutive ``sizes`` blocks of ``pooled`` (the identity partition)."""
    order = np.arange(pooled.shape[0])
    return partition_depth_rows(pooled_depths(pooled, kind), group_slices(sizes), order)


def quality_matrix_from_rows(rows: list[np.ndarray], sizes) -> QualityMatrix:
    """All k(k-1) directed quality indices from :func:`pooled_depth_rows`."""
    k = len(sizes)
    slices = group_slices(sizes)
    q = np.full((k, k), np.nan)
    for i in range(k):
        ref_depths = rows[i][slices[i]]
        for j in range(k):
            if i == j:
                continue
            q[i, j] = directed_quality(ref_depths, rows[i][slices[j]])
    return QualityMatrix(q=q, sizes=tuple(sizes))


def quality_matrix(groups, kind: DepthKind) -> QualityMatrix:
    """All k(k-1) directed quality indices for a list of groups."""
    pooled, sizes = coerce_groups(groups)
    return quality_matrix_from_rows(pooled_depth_rows(pooled, sizes, kind), sizes)


def quality(x, y, kind: DepthKind) -> QualityPair:
    """Q(F_m, G_n) and Q(G_n, F_m): entries (0, 1) and (1, 0) of the k = 2 matrix."""
    qm = quality_matrix([x, y], kind)
    return QualityPair(float(qm.q[0, 1]), float(qm.q[1, 0]), m=qm.sizes[0], n=qm.sizes[1])


def quality_brute_oracle(x, y, kind: DepthKind) -> QualityPair:
    """Independent double-loop evaluation of the quality pair.

    Counts every depth comparison explicitly; exists to pin down the
    sorted/searchsorted production path. Capped at 64 x 64.
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
