"""The depth-rank formulas and the two-sample baselines.

The depth-rank (DbR) and modified depth-rank (B*) formulas read stacks of
depth rows; energy and Cramer read the groups of one partition, Cramer
only 1-D ones. These are their rows of the statistic table
:data:`depthtest.calibration.STATISTICS`.
Outside the table: the MANOVA trio with its F-law p-value. One-off values
of the table statistics come from :func:`~depthtest.calibration.evaluate_statistics`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.spatial.distance import cdist
from scipy.special import fdtrc

from .depths import _CACHE_ELEMENT_CAP, DepthKind, _spd_cholesky
from .errors import (
    DimensionMismatch,
    SingularCovariance,
    SingularScatter,
    SizeLimit,
    UnknownStatistic,
)
from .samples import as_sample_matrix, group_slices, require_same_dimension

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


@dataclass(frozen=True)
class EigenSummary:
    """Eigenvalues of the within-scatter-whitened between scatter."""

    eigenvalues: tuple[float, ...]
    p: int
    n1: int
    n2: int


# ---------------------------------------------------------------------------
# Depth-rank machinery shared by the DbR and modified DbR tests.
# ---------------------------------------------------------------------------


def depth_ranks(depths: np.ndarray) -> np.ndarray:
    """Rank of each observation along the last axis: how many depths
    (itself included) are >= its own.

    The deepest point gets rank 1; ties share the weak-inequality count.
    """
    n = depths.shape[-1]
    order = np.argsort(depths, axis=-1)
    ordered = np.sort(depths, axis=-1)
    # a sorted position's count of smaller depths is where its run of
    # equal depths starts (-0.0 equals 0.0)
    run_starts = np.empty(depths.shape, dtype=bool)
    run_starts[..., 0] = False
    np.not_equal(ordered[..., 1:], ordered[..., :-1], out=run_starts[..., 1:])
    below = np.maximum.accumulate(np.where(run_starts, np.arange(n), 0), axis=-1)
    ranks = np.empty_like(order)
    row_offsets = np.arange(0, order.size, n).reshape(order.shape[:-1] + (1,))
    ranks.reshape(-1)[order + row_offsets] = n - below
    return ranks


def _dbr_stack(depth_rows: np.ndarray, sizes) -> np.ndarray:
    """(P,) depth-rank statistics of a (P, k, N) stack of depth rows.

    Row g of a partition holds the depths of the whole pooled arrangement
    against group g's empirical distribution; each row gives one
    Kruskal-Wallis-type rank sum, and the k of them are averaged. At k = 2
    this is the two-sample depth-rank statistic; at k > 2 it is the
    natural extension, calibrated by permutation. Upper-tail rejection.
    """
    total = sum(sizes)
    t = len(sizes)
    starts = [sl.start for sl in group_slices(sizes)]
    # (P, k, k) rank sums: reference row, then group
    rank_sums = np.add.reduceat(depth_ranks(depth_rows), starts, axis=-1).astype(float)
    terms = (rank_sums * rank_sums / np.array(sizes, dtype=float)).reshape(len(depth_rows), -1)
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


def manova_eigen(x, y) -> EigenSummary:
    """Eigenvalues of S_W^{-1} S_B for two groups."""
    x = as_sample_matrix(x, "x")
    y = as_sample_matrix(y, "y")
    p = require_same_dimension(x, y)
    n1, n2 = x.shape[0], y.shape[0]
    if n1 + n2 <= p + 1:
        raise SingularScatter(f"need n1 + n2 > p + 1 (got {n1 + n2} observations, p={p})")
    grand = np.vstack([x, y]).mean(axis=0)
    s_w = np.zeros((p, p))
    s_b = np.zeros((p, p))
    for grp in (x, y):
        mean = grp.mean(axis=0)
        centered = grp - mean
        s_w += centered.T @ centered
        offset = mean - grand
        s_b += grp.shape[0] * np.outer(offset, offset)
    try:
        lower = _spd_cholesky(s_w)
    except SingularCovariance as exc:
        raise SingularScatter("within-group scatter is not invertible") from exc
    half = np.linalg.solve(lower, s_b)
    whitened = np.linalg.solve(lower, half.T)
    eigenvalues = np.sort(np.linalg.eigvalsh((whitened + whitened.T) / 2.0))[::-1]
    return EigenSummary(eigenvalues=tuple(float(v) for v in eigenvalues), p=p, n1=n1, n2=n2)


def manova(x, y, which: str) -> TestOutcome:
    """Wilks / Hotelling / Pillai statistic with its F-approximation p-value."""
    if which not in MANOVA_KINDS:
        raise UnknownStatistic(f"unknown MANOVA statistic {which!r}")
    summary = manova_eigen(x, y)
    lam = np.array(summary.eigenvalues)
    lam = np.maximum(lam, 0.0)
    p, n1, n2 = summary.p, summary.n1, summary.n2
    df2 = n1 + n2 - p - 1
    ratio = df2 / p
    if which == "wilks":
        stat = float(np.prod(1.0 / (1.0 + lam)))
        f_value = (1.0 - stat) / stat * ratio
    elif which == "hotelling":
        stat = float(lam.sum())
        f_value = ratio * stat
    else:
        stat = float((lam / (1.0 + lam)).sum())
        f_value = ratio * stat / (1.0 - stat) if stat < 1.0 else np.inf
    # fdtrc is what scipy.stats.f.sf evaluates; they differ only at x < 0,
    # which a MANOVA F value never reaches
    p_value = float(fdtrc(p, df2, f_value))
    return TestOutcome(
        statistic_name=which,
        statistic=stat,
        p_value=p_value,
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


def _require_distance_budget(total: int) -> None:
    """Refuse energy on N pooled rows, whose distance blocks of one
    partition total N x N elements."""
    if total * total > _CACHE_ELEMENT_CAP:
        raise SizeLimit(f"energy needs a {total} x {total} distance matrix, over the cap of "
                        f"{_CACHE_ELEMENT_CAP} elements")


def _energy_from_groups(groups, sizes) -> float:
    """Energy distance statistic mn/(m+n) * E_hat of a partition's two
    groups, from their (xx, yy, xy) distance blocks; upper-tail rejection."""
    m, n = sizes
    x, y = groups
    xx, yy, xy = cdist(x, x), cdist(y, y), cdist(x, y)
    # V-statistic means: within-sample blocks keep their zero diagonals.
    return m * n / (m + n) * (2.0 * float(xy.mean()) - float(xx.mean()) - float(yy.mean()))
