"""k-sample statistics built on the pairwise quality-index matrix.

The matrix itself (:class:`~depthtest.quality.QualityMatrix`) comes from
:mod:`depthtest.quality`: every ordered pair of groups contributes one
directed quality index, with the first group of the pair as reference.
The minimum statistic generalizes to the maximum of the standardized
centered terms over all ordered pairs; product and sum aggregate all
ordered-pair indices. At k = 2 they are the two-sample statistics, the
k = 2 rows of the statistic table in :mod:`depthtest.calibration`.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .depths import DepthKind
from .quality import QualityMatrix, pooled_depth_rows
from .samples import coerce_groups
from .two_sample import _pair_scale, dbr_from_depth_rows


@lru_cache(maxsize=64)
def _ordered_pairs(sizes: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Flat (k * k) positions of the ordered pairs i != j, row-major, and
    the square roots of their variance factors; read-only."""
    k = len(sizes)
    pairs = [(i, j) for i in range(k) for j in range(k) if i != j]
    positions = np.array([i * k + j for i, j in pairs])
    root_scales = np.array([_pair_scale(sizes[i], sizes[j]) ** 0.5 for i, j in pairs])
    positions.flags.writeable = root_scales.flags.writeable = False
    return positions, root_scales


def _off_diagonal(q: np.ndarray, sizes) -> np.ndarray:
    """(P, k(k-1)) ordered-pair indices of a (P, k, k) stack, row-major and
    C-contiguous, so that a sum along a row adds in the order of the 1-D
    sum of one partition's indices."""
    positions, _ = _ordered_pairs(tuple(sizes))
    return np.take(q.reshape(len(q), -1), positions, axis=1)


def _min_stack(q: np.ndarray, sizes) -> np.ndarray:
    """(P,) minimum statistics of a (P, k, k) stack of quality indices."""
    _, root_scales = _ordered_pairs(tuple(sizes))
    return ((0.5 - _off_diagonal(q, sizes)) / root_scales).max(axis=1)


def _product_stack(q: np.ndarray, sizes) -> np.ndarray:
    """(P,) products over all ordered-pair indices."""
    return _off_diagonal(q, sizes).prod(axis=1)


def _sum_stack(q: np.ndarray, sizes) -> np.ndarray:
    """(P,) sums over all ordered-pair indices."""
    return _off_diagonal(q, sizes).sum(axis=1)


def min_statistic_k(qm: QualityMatrix) -> float:
    """Largest standardized centered term over ordered group pairs.

    At k = 2, the two-sample minimum statistic: asymptotically half-normal
    under homogeneity, upper-tail rejection; below zero when both indices exceed 1/2.
    """
    return float(_min_stack(qm.q[None], qm.sizes)[0])


def product_statistic_k(qm: QualityMatrix) -> float:
    """Product over all ordered-pair indices; in [0, 1], lower-tail rejection."""
    return float(_product_stack(qm.q[None], qm.sizes)[0])


def sum_statistic_k(qm: QualityMatrix) -> float:
    """Sum over all ordered-pair indices; in [0, k(k-1)], lower-tail rejection."""
    return float(_sum_stack(qm.q[None], qm.sizes)[0])


def dbr_statistic_k(groups, kind: DepthKind) -> float:
    """Depth-rank statistic extended to k groups.

    For k = 2 this is exactly the two-sample depth-rank statistic; for
    k > 2 it averages the Kruskal-Wallis-type rank aggregate over the k
    reference distributions (natural extension, calibrated by permutation).
    """
    pooled, sizes = coerce_groups(groups)
    return dbr_from_depth_rows(pooled_depth_rows(pooled, sizes, kind), sizes)
