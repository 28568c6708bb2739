"""Two-sample homogeneity statistics.

The formulas defined only at two groups: the maximum statistic (on the
k = 2 quality matrix), the depth-rank and modified depth-rank tests, and
the baselines they are benchmarked against: the MANOVA trio, the
univariate Cramer statistic, and the energy distance. All functions
return raw statistic values; p-values live in :mod:`depthtest.calibration`.

Two-sample statistics are the k = 2 rows of the statistic table in
:mod:`depthtest.calibration`: minimum, product and sum are the formulas
of :mod:`depthtest.multi_sample` on the k = 2 quality matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist
from scipy.special import fdtrc

from .depths import _CACHE_ELEMENT_CAP, DepthKind, _spd_cholesky
from .errors import (
    DimensionMismatch,
    SingularCovariance,
    SingularScatter,
    SizeLimit,
    TiedRanks,
    UnknownStatistic,
)
from .quality import QualityMatrix, pooled_depth_rows
from .samples import as_sample_matrix, coerce_groups, group_slices, require_same_dimension

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


def _pair_scale(m: int, n: int) -> float:
    """The (1/12)(1/m + 1/n) variance factor of a directed quality index."""
    return (1.0 / 12.0) * (1.0 / m + 1.0 / n)


def max_statistic(qm: QualityMatrix) -> float:
    """Larger squared centered quality index of a k = 2 matrix (entries
    (0, 1) and (1, 0)), variance-normalized.

    Asymptotically chi-square(1) under homogeneity; upper-tail rejection.
    """
    scale = _pair_scale(qm.sizes[0], qm.sizes[1])
    q_01, q_10 = float(qm.q[0, 1]), float(qm.q[1, 0])
    return max((q_01 - 0.5) ** 2, (q_10 - 0.5) ** 2) / scale


# ---------------------------------------------------------------------------
# Depth-rank machinery shared by the DbR and modified DbR tests.
# ---------------------------------------------------------------------------


def depth_ranks(depths: np.ndarray) -> np.ndarray:
    """Rank of each observation: how many depths (itself included) are >= its own.

    The deepest point gets rank 1; ties share the weak-inequality count.
    """
    ordered = np.sort(depths)
    return depths.size - np.searchsorted(ordered, depths, side="left")


def _distinct_ranks(depths: np.ndarray) -> np.ndarray:
    """Ranks 1..N by decreasing depth, ties split by original index."""
    n = depths.size
    order = np.lexsort((np.arange(n), -depths))
    ranks = np.empty(n, dtype=np.int64)
    ranks[order] = np.arange(1, n + 1)
    return ranks


def dbr_from_depth_rows(depth_rows: list[np.ndarray], sizes: list[int]) -> float:
    """Depth-rank statistic from precomputed pooled depth rows.

    ``depth_rows[k]`` holds depths of the whole pooled arrangement against
    group k's empirical distribution; one Kruskal-Wallis-type rank sum is
    formed per reference and averaged.
    """
    total = sum(sizes)
    t = len(sizes)
    slices = group_slices(sizes)
    acc = 0.0
    for row in depth_rows:
        ranks = depth_ranks(row)
        for j, sl in enumerate(slices):
            rank_sum = float(ranks[sl].sum())
            acc += rank_sum * rank_sum / sizes[j]
    return 12.0 / (total * (total + 1.0) * t) * acc - 3.0 * (total + 1.0)


def dbr_statistic(x, y, kind: DepthKind) -> float:
    """Depth-based rank statistic for two groups; upper-tail rejection."""
    pooled, sizes = coerce_groups([x, y])
    return dbr_from_depth_rows(pooled_depth_rows(pooled, sizes, kind), sizes)


def _ordered_rank_deviation(ordered_ranks: np.ndarray, total: int, own: int, other: int) -> float:
    """Mean squared standardized deviation of ordered ranks from their
    null order-statistic moments."""
    j = np.arange(1, own + 1, dtype=float)
    frac = j / (own + 1.0)
    expect = (total + 1.0) * frac
    var = frac * (1.0 - frac) * other * (total + 1.0) / (own + 2.0)
    dev = ordered_ranks - expect
    return float(np.mean(dev * dev / var))


def bdbr_univariate(x, y) -> float:
    """Modified rank statistic (B*) for univariate samples.

    Pooled competition ranks must be a permutation, so exact value ties
    raise TiedRanks rather than silently mid-ranking.
    """
    x = as_sample_matrix(x, "x")
    y = as_sample_matrix(y, "y")
    if x.shape[1] != 1 or y.shape[1] != 1:
        raise DimensionMismatch("bdbr_univariate expects 1-D samples")
    n, m = x.shape[0], y.shape[0]
    pooled = np.concatenate([x[:, 0], y[:, 0]])
    total = n + m
    if np.unique(pooled).size != total:
        raise TiedRanks("pooled values are not all distinct")
    ranks = np.empty(total, dtype=np.int64)
    ranks[np.argsort(pooled)] = np.arange(1, total + 1)
    b1 = _ordered_rank_deviation(np.sort(ranks[:n]).astype(float), total, n, m)
    b2 = _ordered_rank_deviation(np.sort(ranks[n:]).astype(float), total, m, n)
    return 0.5 * (b1 + b2)


def bdbr_from_depth_rows(depth_rows: list[np.ndarray], sizes: list[int]) -> float:
    """Modified depth-rank statistic from pooled depth rows (two groups)."""
    n1, n2 = sizes
    total = n1 + n2
    ranks_ref1 = _distinct_ranks(depth_rows[0])
    ranks_ref2 = _distinct_ranks(depth_rows[1])
    b_ref1 = _ordered_rank_deviation(
        np.sort(ranks_ref1[n1:]).astype(float), total, n2, n1
    )
    b_ref2 = _ordered_rank_deviation(
        np.sort(ranks_ref2[:n1]).astype(float), total, n1, n2
    )
    return max(b_ref1, b_ref2)


def bdbr_multivariate(x, y, kind: DepthKind) -> float:
    """Modified depth-rank statistic: pooled observations are depth-ranked
    against each group's empirical distribution, the opposite sample's
    ordered ranks are standardized by their null moments, and the larger
    of the two aggregates is returned. Upper-tail rejection."""
    pooled, sizes = coerce_groups([x, y])
    return bdbr_from_depth_rows(pooled_depth_rows(pooled, sizes, kind), sizes)


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
    """Refuse energy on N pooled rows before allocating its N x N distances."""
    if total * total > _CACHE_ELEMENT_CAP:
        raise SizeLimit(f"energy needs a {total} x {total} distance matrix, over the cap of "
                        f"{_CACHE_ELEMENT_CAP} elements")


def _energy_from_blocks(xx: np.ndarray, yy: np.ndarray, xy: np.ndarray) -> float:
    # V-statistic means: within-sample blocks keep their zero diagonals.
    return 2.0 * float(xy.mean()) - float(xx.mean()) - float(yy.mean())


def _energy_from_distances(blocks, sizes) -> float:
    """mn/(m+n) * E_hat from the (xx, yy, xy) distance blocks of a partition."""
    m, n = sizes
    return m * n / (m + n) * _energy_from_blocks(*blocks)


def energy_statistic(x, y) -> float:
    """Energy distance statistic mn/(m+n) * E_hat; upper-tail rejection."""
    x = as_sample_matrix(x, "x")
    y = as_sample_matrix(y, "y")
    require_same_dimension(x, y)
    _require_distance_budget(x.shape[0] + y.shape[0])
    blocks = (cdist(x, x), cdist(y, y), cdist(x, y))
    return _energy_from_distances(blocks, (x.shape[0], y.shape[0]))


def energy_normalized(x, y) -> float:
    """Energy distance normalized by twice the between-sample mean distance;
    lies in [0, 1], zero iff identically distributed (in population)."""
    x = as_sample_matrix(x, "x")
    y = as_sample_matrix(y, "y")
    require_same_dimension(x, y)
    _require_distance_budget(x.shape[0] + y.shape[0])
    between = cdist(x, y)
    denom = 2.0 * float(between.mean())
    if denom == 0.0:
        return 0.0
    e_hat = _energy_from_blocks(cdist(x, x), cdist(y, y), between)
    return min(max(e_hat / denom, 0.0), 1.0)
