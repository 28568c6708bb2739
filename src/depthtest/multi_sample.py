"""The statistics that read the directed quality-index matrix.

Every ordered pair (i, j) of groups has one directed quality index, with
group i as reference (:func:`~depthtest.quality.quality_indices`). Each
formula maps a (P, k, k) stack of these matrices to (P,) statistics: the
``q_matrix`` rows of :data:`depthtest.calibration.STATISTICS`. Minimum,
product and sum are defined at every k >= 2 and the maximum at k = 2.
One-off values come from :func:`~depthtest.calibration.evaluate_statistics`.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def _pair_scale(m: int, n: int) -> float:
    """The (1/12)(1/m + 1/n) variance factor of a directed quality index."""
    return (1.0 / 12.0) * (1.0 / m + 1.0 / n)


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
    """(P,) minimum statistics: the largest standardized centered term
    (1/2 - q[i, j]) / sqrt(_pair_scale) over the ordered pairs.

    Below zero when every index exceeds 1/2; upper-tail rejection. At
    k = 2 it is asymptotically half-normal under homogeneity; at k > 2 its
    limit law is :func:`~depthtest.calibration.mc_asymptotic_min_pvalue`'s.
    """
    _, root_scales = _ordered_pairs(tuple(sizes))
    return ((0.5 - _off_diagonal(q, sizes)) / root_scales).max(axis=1)


def _max_stack(q: np.ndarray, sizes) -> np.ndarray:
    """(P,) maximum statistics of a (P, 2, 2) stack: the larger squared
    centered index of entries (0, 1) and (1, 0), variance-normalized.

    Asymptotically chi-square(1) under homogeneity; upper-tail rejection.
    Squares by Python's float power (the C library's ``pow``), which
    differs from ``x * x`` in the last bit of about 1 in 1,200 random values and
    has always defined this statistic.
    """
    pairs = q.reshape(-1, 4)[:, 1:3].tolist()
    squares = [max((q_01 - 0.5) ** 2, (q_10 - 0.5) ** 2) for q_01, q_10 in pairs]
    return np.array(squares) / _pair_scale(sizes[0], sizes[1])


def _product_stack(q: np.ndarray, sizes) -> np.ndarray:
    """(P,) products over all ordered-pair indices; in [0, 1], lower-tail
    rejection."""
    return _off_diagonal(q, sizes).prod(axis=1)


def _sum_stack(q: np.ndarray, sizes) -> np.ndarray:
    """(P,) sums over all ordered-pair indices; in [0, k(k-1)], lower-tail
    rejection."""
    return _off_diagonal(q, sizes).sum(axis=1)
