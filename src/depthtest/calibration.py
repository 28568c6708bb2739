"""Turning raw statistics into p-values.

Three routes:

* closed-form asymptotics (half-normal for the minimum statistic,
  chi-square(1) for the maximum, both at k = 2);
* permutation calibration: the pooled sample is re-partitioned into the
  original group sizes B times and the add-one estimator
  (1 + #{as extreme}) / (B + 1) is returned, lower tail for product/sum
  and upper tail for everything else;
* Monte-Carlo evaluation of the k-sample limit law of the minimum
  statistic, built from pairwise combinations of independent normals.

Every random step is addressed by (seed, tag, index) substreams, so the
results are pure functions of the inputs and the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .depths import (
    DepthKind,
    _directions,
    _spatial_from_sums,
    _unit_components,
    projection_outlyingness,
)
from .errors import DimensionMismatch, DomainError, UnknownStatistic
from .multi_sample import min_statistic_k, product_statistic_k, sum_statistic_k
from .quality import pooled_depth_rows, quality_matrix_from_rows
from .rng import TAG_MC_ASYMPTOTIC, TAG_PERMUTATION, standard_normals, substream
from .samples import coerce_groups, group_slices
from .special import chi2_1_sf, norm_sf
from .two_sample import (
    TestOutcome,
    _energy_from_blocks,
    bdbr_from_depth_rows,
    cramer_univariate,
    dbr_from_depth_rows,
    max_statistic,
)

STATISTIC_NAMES = ("min", "max", "product", "sum", "dbr", "bdbr", "energy", "cramer")

_LOWER_TAIL = frozenset({"product", "sum"})
_TWO_GROUP_ONLY = frozenset({"max", "bdbr", "energy", "cramer"})
_DEPTH_BASED = frozenset({"min", "max", "product", "sum", "dbr", "bdbr"})

_MC_CHUNK = 1 << 17


@dataclass(frozen=True)
class CalibrationSpec:
    """How to calibrate: method, replication count, seed, and tail.

    ``tail=None`` defers to the statistic's own convention
    (lower for product/sum, upper otherwise).
    """

    method: str
    replications: int
    seed: int
    tail: str | None = None

    def __post_init__(self) -> None:
        if self.method not in ("asymptotic", "permutation", "monte_carlo"):
            raise ValueError(f"unknown calibration method {self.method!r}")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.tail not in (None, "upper", "lower"):
            raise ValueError(f"unknown tail {self.tail!r}")


@dataclass(frozen=True, eq=False)
class PairCoefficients:
    """Normal-combination weights of the k-sample limit law.

    For i < j: c[i, j] = sqrt(n_j / (n_i + n_j)) and
    c_tilde[i, j] = sqrt(n_i / (n_i + n_j)), so c^2 + c_tilde^2 = 1.
    """

    c: np.ndarray
    c_tilde: np.ndarray
    sizes: tuple[int, ...]


def pair_coefficients(sizes) -> PairCoefficients:
    sizes = tuple(int(s) for s in sizes)
    if any(s <= 0 for s in sizes):
        raise DomainError("group sizes must be positive")
    k = len(sizes)
    c = np.full((k, k), np.nan)
    ct = np.full((k, k), np.nan)
    for i in range(k):
        for j in range(i + 1, k):
            tot = sizes[i] + sizes[j]
            c[i, j] = math.sqrt(sizes[j] / tot)
            ct[i, j] = math.sqrt(sizes[i] / tot)
    return PairCoefficients(c=c, c_tilde=ct, sizes=sizes)


def default_tail(name: str) -> str:
    if name not in STATISTIC_NAMES:
        raise UnknownStatistic(f"unknown statistic {name!r}; expected one of {STATISTIC_NAMES}")
    return "lower" if name in _LOWER_TAIL else "upper"


def require_supported(name: str, group_count: int) -> None:
    """Raise UnknownStatistic for names outside the implemented set or not
    defined at this group count."""
    if name not in STATISTIC_NAMES:
        raise UnknownStatistic(f"unknown statistic {name!r}; expected one of {STATISTIC_NAMES}")
    if name in _TWO_GROUP_ONLY and group_count != 2:
        raise UnknownStatistic(f"statistic {name!r} is only defined for 2 groups")


def half_normal_pvalue(x: float) -> float:
    """Upper-tail p-value of |N(0, 1)|; negative statistics map to 1."""
    return 2.0 * norm_sf(max(float(x), 0.0))


def chi2_1_pvalue(x: float) -> float:
    """Upper-tail p-value of chi-square with one degree of freedom."""
    if x < 0.0:
        raise DomainError(f"chi-square statistic must be >= 0, got {x}")
    return chi2_1_sf(float(x))


class _StatisticEngine:
    """Shared evaluator for one pooled sample under re-partitioning.

    Depth rows (pooled depths against each reference group) are computed
    once per partition and reused by every requested depth statistic; the
    pooled distance matrix, if energy is requested, is computed once per
    engine and sliced per partition. With ``reuse=True`` (permutation
    loops) partition-independent geometry is cached up front: spatial
    depth sums rows gathered from the pooled unit-vector coordinates
    (d, N, N), and projection depth reuses the pooled projections onto
    the fixed direction set. Both shortcuts reproduce the plain
    per-partition evaluation bit for bit (same summands, same order).
    """

    _CACHE_ELEMENT_CAP = 20_000_000

    def __init__(self, groups, kind: DepthKind | None, names, reuse: bool = False) -> None:
        self.pooled, self.sizes = coerce_groups(groups)
        self.k = len(self.sizes)
        self.kind = kind
        self.names = tuple(names)
        for name in self.names:
            require_supported(name, self.k)
            if name in _DEPTH_BASED and kind is None:
                raise ValueError(f"statistic {name!r} needs a DepthKind")
        if "cramer" in self.names and self.pooled.shape[1] != 1:
            raise DimensionMismatch("cramer statistic expects 1-D samples")
        self.slices = group_slices(self.sizes)
        self.total = self.pooled.shape[0]
        self.dist = cdist(self.pooled, self.pooled) if "energy" in self.names else None
        self._need_rows = any(name in _DEPTH_BASED for name in self.names)
        self._need_quality = any(
            name in ("min", "max", "product", "sum") for name in self.names
        )
        self._unit_comps: np.ndarray | None = None
        self._pooled_proj: np.ndarray | None = None
        if reuse and self._need_rows and kind is not None:
            n, d = self.pooled.shape
            if kind.kind == "spatial" and n * n * d <= self._CACHE_ELEMENT_CAP:
                self._unit_comps = _unit_components(self.pooled, self.pooled)
            elif kind.kind == "projection":
                dirs = _directions(kind.direction_seed, kind.direction_count, d)
                self._pooled_proj = self.pooled @ dirs.T

    def _spatial_row(self, idx: np.ndarray) -> np.ndarray:
        sums = np.stack([comps[idx].sum(axis=0) for comps in self._unit_comps])
        return _spatial_from_sums(sums, idx.size)

    def _projection_row(self, idx: np.ndarray) -> np.ndarray:
        outly = projection_outlyingness(self._pooled_proj[idx], self._pooled_proj)
        return 1.0 / (1.0 + outly)

    def _depth_rows(self, order: np.ndarray | None, arranged: np.ndarray) -> list[np.ndarray]:
        if self._unit_comps is None and self._pooled_proj is None:
            return pooled_depth_rows(arranged, self.sizes, self.kind)
        row_of = self._spatial_row if self._unit_comps is not None else self._projection_row
        rows = []
        for sl in self.slices:
            idx = np.arange(sl.start, sl.stop) if order is None else order[sl]
            row = row_of(idx)
            rows.append(row if order is None else row[order])
        return rows

    def values(self, order: np.ndarray | None = None) -> dict[str, float]:
        arranged = self.pooled if order is None else self.pooled[order]
        out: dict[str, float] = {}
        if self._need_rows:
            rows = self._depth_rows(order, arranged)
            if self._need_quality:
                qm = quality_matrix_from_rows(rows, self.sizes)
                if "min" in self.names:
                    out["min"] = min_statistic_k(qm)
                if "product" in self.names:
                    out["product"] = product_statistic_k(qm)
                if "sum" in self.names:
                    out["sum"] = sum_statistic_k(qm)
                if "max" in self.names:
                    out["max"] = max_statistic(qm.pair())
            if "dbr" in self.names:
                out["dbr"] = dbr_from_depth_rows(rows, self.sizes)
            if "bdbr" in self.names:
                out["bdbr"] = bdbr_from_depth_rows(rows, self.sizes)
        if "energy" in self.names:
            idx = np.arange(self.total) if order is None else order
            ia, ib = idx[self.slices[0]], idx[self.slices[1]]
            e_hat = _energy_from_blocks(
                self.dist[np.ix_(ia, ia)],
                self.dist[np.ix_(ib, ib)],
                self.dist[np.ix_(ia, ib)],
            )
            m, n = self.sizes
            out["energy"] = m * n / (m + n) * e_hat
        if "cramer" in self.names:
            out["cramer"] = cramer_univariate(
                arranged[self.slices[0]], arranged[self.slices[1]]
            )
        return out


def evaluate_statistics(groups, names, kind: DepthKind | None) -> dict[str, float]:
    """Observed values of several statistics on one fixed partition."""
    return _StatisticEngine(groups, kind, names).values()


def statistic_outcome(name, observed, p, method, kind, sizes) -> TestOutcome:
    """One result row; only depth-based statistics carry the depth kind."""
    return TestOutcome(
        statistic_name=name,
        statistic=float(observed),
        p_value=p,
        method=method,
        depth_kind=kind if name in _DEPTH_BASED else None,
        sizes=tuple(sizes),
    )


def permutation_report(groups, names, kind: DepthKind | None, spec: CalibrationSpec) -> list[TestOutcome]:
    """Permutation p-values for several statistics from one shared stream.

    Replication b re-partitions the pooled sample by the permutation drawn
    from substream (seed, b); every statistic sees the same partitions, so
    each entry matches a standalone :func:`permutation_pvalue` call exactly.
    """
    engine = _StatisticEngine(groups, kind, names, reuse=True)
    observed = engine.values()
    tails = {name: spec.tail or default_tail(name) for name in names}
    counts = {name: 0 for name in names}
    for b in range(spec.replications):
        rng = substream(spec.seed, TAG_PERMUTATION, b)
        order = rng.permutation(engine.total)
        permuted = engine.values(order)
        for name in names:
            if tails[name] == "upper":
                counts[name] += permuted[name] >= observed[name]
            else:
                counts[name] += permuted[name] <= observed[name]
    outcomes = []
    for name in names:
        p = (1.0 + counts[name]) / (spec.replications + 1.0)
        outcomes.append(
            statistic_outcome(name, observed[name], p, "permutation", kind, engine.sizes)
        )
    return outcomes


def permutation_pvalue(groups, statistic_name: str, kind: DepthKind | None, spec: CalibrationSpec) -> TestOutcome:
    """Permutation p-value for one named statistic.

    Pools all observations, re-partitions into the original group sizes
    uniformly at random ``spec.replications`` times (substream (seed, b)
    per replication) and applies the add-one estimator on the statistic's
    tail. Deterministic given the seed.
    """
    return permutation_report(groups, (statistic_name,), kind, spec)[0]


def mc_asymptotic_min_pvalue(x: float, sizes, spec: CalibrationSpec) -> float:
    """Upper-tail asymptotic p-value of the k-sample minimum statistic.

    Draws independent standard-normal k-vectors and measures how often all
    pairwise combinations c*Z_i + c_tilde*Z_j stay inside [-x, x] (the
    two-sided form of the limit event); the complement is the p-value.
    Reduces to the half-normal tail at k = 2.
    """
    if not np.isfinite(x):
        raise DomainError("statistic must be finite")
    coeff = pair_coefficients(sizes)
    k = len(coeff.sizes)
    if k < 2:
        raise DomainError("need at least 2 groups")
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    rng = substream(spec.seed, TAG_MC_ASYMPTOTIC)
    remaining = spec.replications
    inside = 0
    while remaining > 0:
        take = min(remaining, _MC_CHUNK)
        z = standard_normals(rng, (take, k))
        ok = np.ones(take, dtype=bool)
        for i, j in pairs:
            combo = coeff.c[i, j] * z[:, i] + coeff.c_tilde[i, j] * z[:, j]
            ok &= np.abs(combo) <= x
        inside += int(ok.sum())
        remaining -= take
    return 1.0 - inside / spec.replications
