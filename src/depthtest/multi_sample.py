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

import numpy as np

from .depths import DepthKind
from .quality import QualityMatrix, pooled_depth_rows
from .samples import coerce_groups
from .two_sample import _pair_scale, dbr_from_depth_rows


def min_statistic_k(qm: QualityMatrix) -> float:
    """Largest standardized centered term over ordered group pairs.

    At k = 2, the two-sample minimum statistic: asymptotically half-normal
    under homogeneity, upper-tail rejection; below zero when both indices exceed 1/2.
    """
    best = -np.inf
    for i in range(qm.k):
        for j in range(qm.k):
            if i == j:
                continue
            scale = _pair_scale(qm.sizes[i], qm.sizes[j])
            best = max(best, (0.5 - qm.q[i, j]) / scale**0.5)
    return float(best)


def product_statistic_k(qm: QualityMatrix) -> float:
    """Product over all ordered-pair indices; in [0, 1], lower-tail rejection."""
    mask = ~np.eye(qm.k, dtype=bool)
    return float(np.prod(qm.q[mask]))


def sum_statistic_k(qm: QualityMatrix) -> float:
    """Sum over all ordered-pair indices; in [0, k(k-1)], lower-tail rejection."""
    mask = ~np.eye(qm.k, dtype=bool)
    return float(np.sum(qm.q[mask]))


def dbr_statistic_k(groups, kind: DepthKind) -> float:
    """Depth-rank statistic extended to k groups.

    For k = 2 this is exactly the two-sample depth-rank statistic; for
    k > 2 it averages the Kruskal-Wallis-type rank aggregate over the k
    reference distributions (natural extension, calibrated by permutation).
    """
    pooled, sizes = coerce_groups(groups)
    return dbr_from_depth_rows(pooled_depth_rows(pooled, sizes, kind), sizes)
