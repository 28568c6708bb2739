"""Turning raw statistics into p-values.

Three routes:

* closed-form asymptotics (half-normal for the minimum statistic,
  chi-square(1) for the maximum, both at k = 2);
* permutation calibration: the pooled sample is re-partitioned into the
  original group sizes B times and the add-one estimator
  (1 + #{as extreme}) / (B + 1) is returned on the tail that the
  statistic table :data:`STATISTICS` gives each statistic;
* Monte-Carlo evaluation of the k-sample limit law of the minimum
  statistic, built from pairwise combinations of independent normals.

Every random step is addressed by (seed, tag, index) substreams, so the
results are pure functions of the inputs and the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.spatial.distance import cdist

from .depths import DepthKind, pooled_depths
from .errors import DimensionMismatch, DomainError, UnknownStatistic
from .multi_sample import min_statistic_k, product_statistic_k, sum_statistic_k
from .quality import partition_depth_rows, quality_matrix_from_rows
from .rng import TAG_MC_ASYMPTOTIC, TAG_PERMUTATION, standard_normals, substream
from .samples import coerce_groups, group_slices
from .two_sample import (
    TestOutcome,
    _energy_from_distances,
    _require_distance_budget,
    bdbr_from_depth_rows,
    cramer_univariate,
    dbr_from_depth_rows,
    max_statistic,
)


@dataclass(frozen=True)
class Statistic:
    """One statistic: its rejecting tail ("upper" or "lower"), whether it
    is defined only at k = 2, the per-partition input it ``reads``
    (``q_matrix``, ``depth_rows``, ``distances`` or ``values_1d``), and its
    ``formula`` of that input and the group sizes."""

    tail: str
    two_group_only: bool
    reads: str
    formula: Callable[..., float]

    @property
    def depth_based(self) -> bool:
        return self.reads in ("q_matrix", "depth_rows")

    def defined_at(self, group_count: int) -> bool:
        return group_count == 2 or not self.two_group_only


# The k = 2 rows are the two-sample statistics; MANOVA stays outside, with
# its own F-law p-value and no permutation path.
STATISTICS = {
    "min": Statistic("upper", False, "q_matrix", lambda qm, sizes: min_statistic_k(qm)),
    "max": Statistic("upper", True, "q_matrix", lambda qm, sizes: max_statistic(qm)),
    "product": Statistic("lower", False, "q_matrix", lambda qm, sizes: product_statistic_k(qm)),
    "sum": Statistic("lower", False, "q_matrix", lambda qm, sizes: sum_statistic_k(qm)),
    "dbr": Statistic("upper", False, "depth_rows", dbr_from_depth_rows),
    "bdbr": Statistic("upper", True, "depth_rows", bdbr_from_depth_rows),
    "energy": Statistic("upper", True, "distances", _energy_from_distances),
    "cramer": Statistic("upper", True, "values_1d", lambda xy, sizes: cramer_univariate(*xy)),
}

STATISTIC_NAMES = tuple(STATISTICS)

_MC_CHUNK = 1 << 17


@dataclass(frozen=True)
class CalibrationSpec:
    """How to calibrate: replication count, seed, and tail.

    ``tail=None`` defers to the statistic's tail in :data:`STATISTICS`.
    """

    replications: int
    seed: int
    tail: str | None = None

    def __post_init__(self) -> None:
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


def _statistic(name: str) -> Statistic:
    if name not in STATISTICS:
        raise UnknownStatistic(f"unknown statistic {name!r}; expected one of {STATISTIC_NAMES}")
    return STATISTICS[name]


def default_tail(name: str) -> str:
    return _statistic(name).tail


def require_statistics(names, group_count: int) -> tuple[str, ...]:
    """The requested names as a tuple; raises UnknownStatistic for a name
    outside the implemented set, undefined at this group count, or repeated
    (its exceedances would be counted once per request)."""
    names = tuple(names)
    for position, name in enumerate(names):
        if not _statistic(name).defined_at(group_count):
            raise UnknownStatistic(f"statistic {name!r} is only defined for 2 groups")
        if name in names[:position]:
            raise UnknownStatistic(f"statistic {name!r} is requested more than once")
    return names


def half_normal_pvalue(x: float) -> float:
    """Upper-tail p-value of |N(0, 1)|; negative statistics map to 1."""
    return math.erfc(max(float(x), 0.0) / math.sqrt(2.0))


def chi2_1_pvalue(x: float) -> float:
    """Upper-tail p-value of chi-square with one degree of freedom."""
    if x < 0.0:
        raise DomainError(f"chi-square statistic must be >= 0, got {x}")
    return math.erfc(math.sqrt(float(x) / 2.0))


class _StatisticEngine:
    """Shared evaluator for one pooled sample under re-partitioning.

    ``values(order)`` evaluates the partition that puts pooled row
    ``order[p]`` at position p. The observed partition is the identity
    order, so one-off evaluation and permutation loops run the same
    arithmetic. The depth geometry (:func:`~depthtest.depths.pooled_depths`)
    and, for energy, the pooled distance matrix are built once per engine;
    each partition builds only the inputs the requested statistics read,
    once, and shares them among those statistics.
    """

    def __init__(self, groups, kind: DepthKind | None, names) -> None:
        self.pooled, self.sizes = coerce_groups(groups)
        self.names = require_statistics(names, len(self.sizes))
        depth_names = [name for name in self.names if STATISTICS[name].depth_based]
        if depth_names and kind is None:
            raise ValueError(f"statistic {depth_names[0]!r} needs a DepthKind")
        self._entries = [(name, STATISTICS[name]) for name in self.names]
        self.reads = frozenset(statistic.reads for _, statistic in self._entries)
        if "values_1d" in self.reads and self.pooled.shape[1] != 1:
            one_d = next(name for name, s in self._entries if s.reads == "values_1d")
            raise DimensionMismatch(f"{one_d} statistic expects 1-D samples")
        self.slices = group_slices(self.sizes)
        self.total = self.pooled.shape[0]
        self.dist = None
        if "distances" in self.reads:
            _require_distance_budget(self.total)
            self.dist = cdist(self.pooled, self.pooled)
        self._depths_against = pooled_depths(self.pooled, kind) if depth_names else None

    def values(self, order: np.ndarray) -> dict[str, float]:
        inputs = {}
        if self._depths_against is not None:
            rows = partition_depth_rows(self._depths_against, self.slices, order)
            inputs["depth_rows"] = rows
            if "q_matrix" in self.reads:
                inputs["q_matrix"] = quality_matrix_from_rows(rows, self.sizes)
        if "distances" in self.reads:
            ia, ib = order[self.slices[0]], order[self.slices[1]]
            blocks = ((ia, ia), (ib, ib), (ia, ib))
            inputs["distances"] = [self.dist[np.ix_(a, b)] for a, b in blocks]
        if "values_1d" in self.reads:
            inputs["values_1d"] = [self.pooled[order[sl]] for sl in self.slices]
        return {name: s.formula(inputs[s.reads], self.sizes) for name, s in self._entries}


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
        depth_kind=kind if STATISTICS[name].depth_based else None,
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
