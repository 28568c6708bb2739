"""The depth-rank formulas and the two-sample baselines.

The depth-rank (DbR) formula reads stacks of rank sums from
:func:`~depthtest.quality.quality_indices`, the modified depth-rank (B*)
formula stacks of depth rows; energy reads a stack of pooled samples in
partition order, and Cramer the 1-D groups of one partition. These are
their rows of the statistic table :data:`depthtest.calibration.STATISTICS`.
Outside the table: the MANOVA trio with its F-law p-value. One-off values
of the table statistics come from :func:`~depthtest.calibration.evaluate_statistics`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat

import numpy as np

from .depths import DepthKind, _spd_cholesky, coordinate_distances, unit_scaled
from .errors import (
    DimensionMismatch, DomainError, SingularCovariance, SingularScatter, UnknownStatistic,
)
from .samples import as_sample_matrix, require_same_dimension

MANOVA_KINDS = ("wilks", "hotelling", "pillai")


@dataclass(frozen=True)
class TestOutcome:
    """One statistic with its (optional) p-value and provenance."""

    statistic_name: str
    statistic: float
    p_value: float | None
    method: str  # asymptotic | permutation | monte_carlo | none
    depth_kind: DepthKind | None
    sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        if not np.isfinite(self.statistic):
            raise ValueError(f"statistic {self.statistic_name} is not finite")
        if self.p_value is not None and not 0.0 <= self.p_value <= 1.0:
            raise ValueError(f"p-value {self.p_value} outside [0, 1]")


# ---------------------------------------------------------------------------
# Depth-rank machinery shared by the DbR and modified DbR tests.
# ---------------------------------------------------------------------------


def _dbr_stack(rank_sums: np.ndarray, sizes) -> np.ndarray:
    """(P,) depth-rank statistics of a (P, k, k) stack of rank sums
    (:func:`~depthtest.quality.quality_indices`).

    Entry (g, j) sums the ranks of group j's points among the pooled depths
    against group g, the deepest ranked 1 and ties sharing the
    weak-inequality count; each reference row g gives one
    Kruskal-Wallis-type rank sum, and the k of them are averaged. At k = 2
    this is the two-sample depth-rank statistic; at k > 2 it is the
    natural extension, calibrated by permutation. Upper-tail rejection.
    """
    total, t = sum(sizes), len(sizes)
    terms = (rank_sums * rank_sums / np.array(sizes, dtype=float)).reshape(len(rank_sums), -1)
    # accumulated in reference-then-group order, one term at a time
    acc = np.add.accumulate(terms, axis=1)[:, -1]
    return 12.0 / (total * (total + 1.0) * t) * acc - 3.0 * (total + 1.0)


@lru_cache(maxsize=64)
def _order_statistic_moments(total: int, own: int, other: int) -> tuple[np.ndarray, np.ndarray]:
    """Null means and variances of the ``own`` ordered ranks among
    ``total``; read-only."""
    j = np.arange(1, own + 1, dtype=float)
    frac = j / (own + 1.0)
    expect = (total + 1.0) * frac
    var = frac * (1.0 - frac) * other * (total + 1.0) / (own + 2.0)
    expect.flags.writeable = var.flags.writeable = False
    return expect, var


def _ordered_rank_deviation(ordered_ranks: np.ndarray, total: int, own: int, other: int) -> np.ndarray:
    """Mean squared standardized deviation of ordered ranks from their
    null order-statistic moments, along the last axis."""
    expect, var = _order_statistic_moments(total, own, other)
    dev = ordered_ranks - expect
    # np.mean's pairwise sum and division by the count, without its wrapper
    return np.add.reduce(dev * dev / var, axis=-1) / own


def _bdbr_stack(depth_rows: np.ndarray, sizes) -> np.ndarray:
    """(P,) modified depth-rank statistics of a (P, 2, N) stack of depth rows.

    The pooled observations are depth-ranked against each group's
    empirical distribution, the opposite sample's ordered ranks are
    standardized by their null moments, and the larger of the two
    aggregates is returned. Upper-tail rejection.
    """
    n1, n2 = sizes
    total = n1 + n2
    p = len(depth_rows)
    # ranks 1..N by decreasing depth, ties by position: the ranks a group
    # holds, in increasing order, are the sorted positions it occupies
    order = np.argsort(-depth_rows, axis=-1, kind="stable")
    ranks_2 = np.nonzero(order[:, 0] >= n1)[1].reshape(p, n2) + 1.0
    ranks_1 = np.nonzero(order[:, 1] < n1)[1].reshape(p, n1) + 1.0
    b_ref1 = _ordered_rank_deviation(ranks_2, total, n2, n1)
    b_ref2 = _ordered_rank_deviation(ranks_1, total, n1, n2)
    return np.maximum(b_ref1, b_ref2)


# ---------------------------------------------------------------------------
# Classical baselines.
# ---------------------------------------------------------------------------


def manova(x, y, which: str) -> TestOutcome:
    """Wilks / Hotelling / Pillai statistic with its F-law p-value.

    With two groups the between scatter is (n1 n2 / N) d d^T for the mean
    difference d, so S_W^{-1} S_B has one nonzero eigenvalue,
    lam = (n1 n2 / N) |L^{-1} d|^2 with L the Cholesky factor of the
    within scatter S_W. Wilks is 1/(1 + lam), Hotelling lam and Pillai
    lam/(1 + lam), and all three are Hotelling's T^2 in other units, with
    the one F value lam (N - p - 1)/p on (p, N - p - 1) degrees of freedom.
    """
    if which not in MANOVA_KINDS:
        raise UnknownStatistic(f"unknown MANOVA statistic {which!r}")
    x = as_sample_matrix(x, "x")
    y = as_sample_matrix(y, "y")
    p = require_same_dimension(x, y)
    _, (x, y) = unit_scaled(x, y)
    n1, n2 = x.shape[0], y.shape[0]
    df2 = n1 + n2 - p - 1
    if df2 <= 0:
        raise SingularScatter(f"need n1 + n2 > p + 1 (got {n1 + n2} observations, p={p})")
    mean_x, mean_y = x.mean(axis=0), y.mean(axis=0)
    centered_x, centered_y = x - mean_x, y - mean_y
    try:
        lower = _spd_cholesky(centered_x.T @ centered_x + centered_y.T @ centered_y)
    except SingularCovariance as exc:
        raise SingularScatter("within-group scatter is not invertible") from exc
    whitened = np.linalg.solve(lower, mean_x - mean_y)
    lam = n1 * n2 / (n1 + n2) * float(whitened @ whitened)
    stat = {"wilks": 1.0 / (1.0 + lam), "hotelling": lam, "pillai": lam / (1.0 + lam)}[which]
    # fdtrc is what scipy.stats.f.sf evaluates; they differ only at x < 0,
    # which a MANOVA F value never reaches. Imported here: scipy.special
    # costs every other command about 0.3 s and 20 MB of start-up.
    from scipy.special import fdtrc

    return TestOutcome(
        statistic_name=which,
        statistic=stat,
        p_value=float(fdtrc(p, df2, df2 / p * lam)),
        method="asymptotic",
        depth_kind=None,
        sizes=(n1, n2),
    )


def cramer_univariate(x, y) -> float:
    """Two-sample Cramer statistic: the squared ECDF gap integrated against
    the pooled empirical measure, scaled by mn/(m+n). Nonnegative; zero iff
    the samples coincide as multisets."""
    x = as_sample_matrix(x, "x")
    y = as_sample_matrix(y, "y")
    if x.shape[1] != 1 or y.shape[1] != 1:
        raise DimensionMismatch("cramer_univariate expects 1-D samples")
    xv = np.sort(x[:, 0])
    yv = np.sort(y[:, 0])
    m, n = xv.size, yv.size
    pooled = np.concatenate([xv, yv])
    ecdf_x = np.searchsorted(xv, pooled, side="right") / m
    ecdf_y = np.searchsorted(yv, pooled, side="right") / n
    gap_sq = (ecdf_x - ecdf_y) ** 2
    return m * n / (m + n) * float(gap_sq.mean())


def _cramer_stack(pooled: np.ndarray, sizes) -> np.ndarray:
    """(P,) Cramer statistics of a (P, N, 1) stack of pooled samples in
    partition order, one :func:`cramer_univariate` call per partition."""
    m = sizes[0]
    return np.array([cramer_univariate(rows[:m], rows[m:]) for rows in pooled])


def _energy_stack(pooled: np.ndarray, sizes) -> np.ndarray:
    """(P,) energy distance statistics mn/(m+n) * E_hat of a (P, N, d) stack
    of pooled samples in partition order, the first m rows of each the
    first group; upper-tail rejection.

    Each partition is rescaled by its own power of two, as
    :func:`~depthtest.depths.unit_scaled` does, and its value scaled back;
    a value past the float64 range raises DomainError. The (P, m, n),
    (P, m, m) and (P, n, n) distance blocks are built one at a time, one
    coordinate at a time, by :func:`~depthtest.depths.coordinate_distances`
    into one accumulator with one scratch plane, and each block's
    V-statistic means (within-sample blocks keep their zero diagonals) are
    taken per partition over its C-contiguous (m, n) plane, so every value
    equals that of the partition's own cdist blocks bit for bit.
    """
    m, n = sizes
    p = len(pooled)
    k = -np.frexp(np.abs(pooled).max(axis=(1, 2)))[1]
    # (d, P, N): coordinate j of every partition's pooled rows, rescaled
    coords = pooled.transpose(2, 0, 1).copy()
    np.ldexp(coords, k[:, None], out=coords)
    largest = p * max(m, n) ** 2
    distances, scratch = np.empty(largest), np.empty(largest)

    def mean_distance(a: slice, b: slice) -> np.ndarray:
        shape = (p, a.stop - a.start, b.stop - b.start)
        block, plane = (buffer[: np.prod(shape)].reshape(shape) for buffer in (distances, scratch))
        coordinate_distances(coords[:, :, None, b], coords[:, :, a, None], repeat(plane), block, plane)
        return block.mean(axis=(1, 2))

    x, y = slice(0, m), slice(m, m + n)
    value = m * n / (m + n) * (2.0 * mean_distance(x, y) - mean_distance(x, x) - mean_distance(y, y))
    with np.errstate(over="ignore"):
        energy = np.ldexp(value, -k)
    overflowed = np.isinf(energy)
    if overflowed.any():
        t = int(np.argmax(overflowed))
        raise DomainError(
            f"energy statistic {float(value[t])!r} x 2^{int(-k[t])} exceeds the float64 range"
        )
    return energy
