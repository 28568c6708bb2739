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

from .depths import DepthKind, pooled_depths, stacked_elements
from .errors import DepthTestError, DimensionMismatch, DomainError, UnknownStatistic
from .multi_sample import _max_stack, _min_stack, _product_stack, _sum_stack
from .quality import partition_depth_rows, quality_indices
from .rng import TAG_MC_ASYMPTOTIC, TAG_PERMUTATION, standard_normals, substream
from .samples import coerce_groups, group_slices
from .two_sample import (
    TestOutcome,
    _bdbr_stack,
    _dbr_stack,
    _energy_from_distances,
    _require_distance_budget,
    cramer_univariate,
)


@dataclass(frozen=True)
class Statistic:
    """One statistic: its rejecting tail ("upper" or "lower"), whether it
    is defined only at k = 2, the input it ``reads`` for a stack of P
    partitions (``q_matrix`` (P, k, k), ``depth_rows`` (P, k, N), or one
    ``distances`` or ``values_1d`` entry per partition), and its
    ``formula``: the (P,) statistics of that input and the group sizes."""

    tail: str
    two_group_only: bool
    reads: str
    formula: Callable[..., np.ndarray]

    @property
    def depth_based(self) -> bool:
        return self.reads in ("q_matrix", "depth_rows")

    def defined_at(self, group_count: int) -> bool:
        return group_count == 2 or not self.two_group_only


def _per_partition(formula):
    """A stacked formula from one that takes a single partition's input."""
    return lambda inputs, sizes: np.array([formula(one, sizes) for one in inputs])


# The k = 2 rows are the two-sample statistics; MANOVA stays outside, with
# its own F-law p-value and no permutation path.
STATISTICS = {
    "min": Statistic("upper", False, "q_matrix", _min_stack),
    "max": Statistic("upper", True, "q_matrix", _max_stack),
    "product": Statistic("lower", False, "q_matrix", _product_stack),
    "sum": Statistic("lower", False, "q_matrix", _sum_stack),
    "dbr": Statistic("upper", False, "depth_rows", _dbr_stack),
    "bdbr": Statistic("upper", True, "depth_rows", _bdbr_stack),
    "energy": Statistic("upper", True, "distances", _per_partition(_energy_from_distances)),
    "cramer": Statistic(
        "upper", True, "values_1d", _per_partition(lambda xy, sizes: cramer_univariate(*xy))
    ),
}

STATISTIC_NAMES = tuple(STATISTICS)

_MC_CHUNK = 1 << 17

# Element budget of every per-chunk temporary of permutation calibration
# (2 MiB of float64): a chunk stacks as many partitions as fit, and at
# least one.
_CHUNK_ELEMENTS = 1 << 18


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

    ``values(orders)`` evaluates, for a (P, N) stack of orders, the P
    partitions that put pooled row ``orders[p, t]`` at position t, and
    returns each statistic's (P,) values. The observed partition is the
    identity order, so one-off evaluation (P = 1) and permutation chunks
    run the same arithmetic. The depth geometry
    (:func:`~depthtest.depths.pooled_depths`) and, for energy, the pooled
    distance matrix are built once per engine; each stack builds only the
    inputs the requested statistics read, once, and shares them among
    those statistics. ``partition_elements`` is the size of the largest
    per-partition temporary, which chunk sizes are measured in.
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
        self.total, dim = self.pooled.shape
        # per partition, the largest temporary of a stack: the (k, N) depth
        # rows and their sort and rank arrays, energy's N x N distance
        # blocks, or the depth kernel's own (stacked_elements)
        self.partition_elements = len(self.sizes) * self.total
        self.dist = None
        if "distances" in self.reads:
            _require_distance_budget(self.total)
            self.dist = cdist(self.pooled, self.pooled)
            self.partition_elements = max(self.partition_elements, self.total**2)
        self._depths_against = None
        if depth_names:
            self._depths_against = pooled_depths(self.pooled, kind)
            self.partition_elements = max(
                self.partition_elements,
                stacked_elements(kind, self.total, dim, max(self.sizes)),
            )

    def values(self, orders: np.ndarray) -> dict[str, np.ndarray]:
        inputs = {}
        if self._depths_against is not None:
            rows = partition_depth_rows(self._depths_against, self.slices, orders)
            inputs["depth_rows"] = rows
            if "q_matrix" in self.reads:
                inputs["q_matrix"] = quality_indices(rows, self.sizes)
        if "distances" in self.reads:
            inputs["distances"] = [self._distance_blocks(order) for order in orders]
        if "values_1d" in self.reads:
            inputs["values_1d"] = [[self.pooled[order[sl]] for sl in self.slices] for order in orders]
        return {name: s.formula(inputs[s.reads], self.sizes) for name, s in self._entries}

    def _distance_blocks(self, order: np.ndarray) -> list[np.ndarray]:
        """The (xx, yy, xy) distance blocks of one two-group partition."""
        ia, ib = order[self.slices[0]], order[self.slices[1]]
        return [self.dist[np.ix_(a, b)] for a, b in ((ia, ia), (ib, ib), (ia, ib))]


def evaluate_statistics(groups, names, kind: DepthKind | None) -> dict[str, float]:
    """Observed values of several statistics on one fixed partition."""
    engine = _StatisticEngine(groups, kind, names)
    values = engine.values(np.arange(engine.total)[None])
    return {name: float(value[0]) for name, value in values.items()}


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


def _stack_values(engine: _StatisticEngine, orders: np.ndarray, first: int) -> dict[str, np.ndarray]:
    """``engine.values(orders)``; when the stack fails, the error of its
    first failing partition, naming the replication if it is permuted."""
    try:
        return engine.values(orders)
    except DepthTestError:
        for t, order in enumerate(orders, start=first):
            try:
                engine.values(order[None])
            except DepthTestError as exc:
                if t == 0:
                    raise
                raise type(exc)(f"{exc} (permutation replication b={t - 1})") from exc
        raise


def permutation_report(groups, names, kind: DepthKind | None, spec: CalibrationSpec) -> list[TestOutcome]:
    """Permutation p-values for several statistics from one shared stream.

    Pools all observations and re-partitions them into the original group
    sizes ``spec.replications`` times: replication b uses the permutation
    drawn from substream (seed, TAG_PERMUTATION, b). Each p-value is the
    add-one estimator on the statistic's tail, deterministic given the
    seed. Every statistic sees the same partitions, so each entry equals
    the report of that statistic alone,
    ``permutation_report(groups, (name,), kind, spec)[0]``. The observed
    partition and the B permuted ones are evaluated in chunks that stack
    as many partitions as ``_CHUNK_ELEMENTS`` allows (at least one);
    exceedances are counted per chunk by vectorised comparisons.
    """
    engine = _StatisticEngine(groups, kind, names)
    names = engine.names
    tails = {name: spec.tail or default_tail(name) for name in names}
    chunk = max(1, _CHUNK_ELEMENTS // engine.partition_elements)
    partitions = spec.replications + 1
    counts = dict.fromkeys(names, 0)
    for first in range(0, partitions, chunk):
        # partition 0 is the observed (identity) one, partition t replication t - 1
        orders = np.stack([
            substream(spec.seed, TAG_PERMUTATION, t - 1).permutation(engine.total)
            if t else np.arange(engine.total)
            for t in range(first, min(first + chunk, partitions))
        ])
        values = _stack_values(engine, orders, first)
        if first == 0:
            observed = {name: value[0] for name, value in values.items()}
            values = {name: value[1:] for name, value in values.items()}
        for name in names:
            upper = tails[name] == "upper"
            exceeds = values[name] >= observed[name] if upper else values[name] <= observed[name]
            counts[name] += int(np.count_nonzero(exceeds))
    outcomes = []
    for name in names:
        p = (1.0 + counts[name]) / (spec.replications + 1.0)
        outcomes.append(
            statistic_outcome(name, observed[name], p, "permutation", kind, engine.sizes)
        )
    return outcomes


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
