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

from .depths import DepthKind, pooled_depths
from .errors import DimensionMismatch, DomainError, UnknownStatistic
from .multi_sample import min_statistic_k, product_statistic_k, sum_statistic_k
from .quality import partition_depth_rows, quality_matrix_from_rows
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
_QUALITY_BASED = frozenset({"min", "max", "product", "sum"})

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


def require_statistics(names, group_count: int) -> tuple[str, ...]:
    """The requested names as a tuple; raises UnknownStatistic for a name
    outside the implemented set, undefined at this group count, or repeated
    (its exceedances would be counted once per request)."""
    names = tuple(names)
    for position, name in enumerate(names):
        if name not in STATISTIC_NAMES:
            raise UnknownStatistic(f"unknown statistic {name!r}; expected one of {STATISTIC_NAMES}")
        if name in _TWO_GROUP_ONLY and group_count != 2:
            raise UnknownStatistic(f"statistic {name!r} is only defined for 2 groups")
        if name in names[:position]:
            raise UnknownStatistic(f"statistic {name!r} is requested more than once")
    return names


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

    ``values(order)`` evaluates the partition that puts pooled row
    ``order[p]`` at position p. The observed partition is the identity
    order, so one-off evaluation and permutation loops run the same
    arithmetic. The depth geometry (:func:`~depthtest.depths.pooled_depths`)
    and, for energy, the pooled distance matrix are built once per engine;
    each partition's depth rows are formed once and shared by every
    requested depth statistic.
    """

    def __init__(self, groups, kind: DepthKind | None, names) -> None:
        self.pooled, self.sizes = coerce_groups(groups)
        self.names = require_statistics(names, len(self.sizes))
        depth_names = [name for name in self.names if name in _DEPTH_BASED]
        if depth_names and kind is None:
            raise ValueError(f"statistic {depth_names[0]!r} needs a DepthKind")
        if "cramer" in self.names and self.pooled.shape[1] != 1:
            raise DimensionMismatch("cramer statistic expects 1-D samples")
        self.slices = group_slices(self.sizes)
        self.total = self.pooled.shape[0]
        self.dist = cdist(self.pooled, self.pooled) if "energy" in self.names else None
        self._depths_against = pooled_depths(self.pooled, kind) if depth_names else None
        self._need_quality = not _QUALITY_BASED.isdisjoint(self.names)

    def values(self, order: np.ndarray) -> dict[str, float]:
        out: dict[str, float] = {}
        if self._depths_against is not None:
            rows = partition_depth_rows(self._depths_against, self.slices, order)
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
            ia, ib = order[self.slices[0]], order[self.slices[1]]
            e_hat = _energy_from_blocks(
                self.dist[np.ix_(ia, ia)],
                self.dist[np.ix_(ib, ib)],
                self.dist[np.ix_(ia, ib)],
            )
            m, n = self.sizes
            out["energy"] = m * n / (m + n) * e_hat
        if "cramer" in self.names:
            out["cramer"] = cramer_univariate(
                self.pooled[order[self.slices[0]]], self.pooled[order[self.slices[1]]]
            )
        return out


def evaluate_statistics(groups, names, kind: DepthKind | None) -> dict[str, float]:
    """Observed values of several statistics on one fixed partition."""
    engine = _StatisticEngine(groups, kind, names)
    return engine.values(np.arange(engine.total))


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
    engine = _StatisticEngine(groups, kind, names)
    observed = engine.values(np.arange(engine.total))
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
