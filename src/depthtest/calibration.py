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

from .depths import DepthKind, depth_elements, pooled_depths
from .errors import DepthTestError, DimensionMismatch, DomainError, UnknownStatistic
from .multi_sample import _max_stack, _min_stack, _product_stack, _sum_stack
from .quality import partition_depth_rows, quality_indices
from .rng import TAG_MC_ASYMPTOTIC, TAG_PERMUTATION, standard_normals, substream
from .samples import coerce_groups, group_slices
from .two_sample import (
    TestOutcome,
    _bdbr_stack,
    _dbr_stack,
    _energy_from_groups,
    _require_distance_budget,
    cramer_univariate,
)


@dataclass(frozen=True)
class Statistic:
    """One statistic: its rejecting tail ("upper" or "lower"), whether it
    is defined only at k = 2, the input it ``reads`` for a stack of P
    partitions (``q_matrix`` (P, k, k), ``depth_rows`` (P, k, N), or
    ``groups``, each partition's list of k group samples), and its
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
    "energy": Statistic("upper", True, "groups", _per_partition(_energy_from_groups)),
    "cramer": Statistic(
        "upper", True, "groups", _per_partition(lambda xy, sizes: cramer_univariate(*xy))
    ),
}

_MC_CHUNK = 1 << 17

# Element budget of every per-chunk temporary of permutation calibration
# (2 MiB of float64): a chunk stacks as many partitions as fit, and at
# least one.
_CHUNK_ELEMENTS = 1 << 18


@dataclass(frozen=True)
class CalibrationSpec:
    """How to calibrate: replication count and seed. Each statistic is
    calibrated on its tail in :data:`STATISTICS`."""

    replications: int
    seed: int

    def __post_init__(self) -> None:
        if self.replications < 1:
            raise ValueError("replications must be >= 1")


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


def require_statistics(names, group_count: int) -> tuple[str, ...]:
    """The requested names as a tuple; raises UnknownStatistic for a name
    outside the implemented set, undefined at this group count, or repeated
    (its exceedances would be counted once per request)."""
    names = tuple(names)
    for position, name in enumerate(names):
        if name not in STATISTICS:
            raise UnknownStatistic(
                f"unknown statistic {name!r}; expected one of {tuple(STATISTICS)}"
            )
        if not STATISTICS[name].defined_at(group_count):
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


def _element_counts(names, kind: DepthKind | None, sizes, dim: int) -> tuple[int, int]:
    """Sizes of the temporaries of a stack of partitions, in elements: per
    partition, the largest one (the (k, N) depth rows and their sort and
    rank arrays, energy's N x N distance blocks, or the depth kernel's
    own); and per pooled sample, the sample itself or the depth geometry
    kept for it. The depth kernel's two sizes come from
    :func:`~depthtest.depths.depth_elements`."""
    total = sum(sizes)
    partition, sample = len(sizes) * total, total * dim
    if "energy" in names:
        partition = max(partition, total**2)
    if any(STATISTICS[name].depth_based for name in names):
        depth_partition, depth_sample = depth_elements(kind, total, dim, max(sizes))
        partition, sample = max(partition, depth_partition), max(sample, depth_sample)
    return partition, sample


def datasets_per_chunk(names, kind: DepthKind | None, sizes, dim: int) -> int:
    """How many data sets of these group sizes and dimension one engine
    stacks when each partition reads its own pooled sample: as many as keep
    every temporary, the samples' geometry included, within
    ``_CHUNK_ELEMENTS``, and at least one."""
    return max(1, _CHUNK_ELEMENTS // max(_element_counts(names, kind, sizes, dim)))


class _StatisticEngine:
    """Shared evaluator for a stack of pooled samples under re-partitioning.

    ``datasets`` is a list of S data sets, each a list of groups, all with
    the same group sizes; each is validated and pooled. ``values(orders)``
    evaluates, for a (P, N) stack of orders, the P partitions that put row
    ``orders[p, t]`` of partition p's pooled sample at position t: sample 0
    for every partition when S = 1 (permutation calibration), sample p
    when S = P (a chunk of simulated data sets), and returns each
    statistic's (P,) values. The observed partition is the identity order,
    so one-off evaluation (P = 1), permutation chunks and simulation chunks
    run the same arithmetic. The depth geometry
    (:func:`~depthtest.depths.pooled_depths`) is the only state built once
    per engine; each stack builds only the inputs the requested statistics
    read, once, and shares them among those statistics: energy's distance
    blocks are computed from each partition's groups. ``partition_elements``
    is the size of the largest per-partition temporary, which permutation
    chunk sizes are measured in.
    """

    def __init__(self, datasets, kind: DepthKind | None, names) -> None:
        pooled = [coerce_groups(groups) for groups in datasets]
        self.sizes = pooled[0][1]
        self.samples = np.stack([sample for sample, _ in pooled])
        self.names = require_statistics(names, len(self.sizes))
        depth_names = [name for name in self.names if STATISTICS[name].depth_based]
        if depth_names and kind is None:
            raise ValueError(f"statistic {depth_names[0]!r} needs a DepthKind")
        self._entries = [(name, STATISTICS[name]) for name in self.names]
        self.reads = frozenset(statistic.reads for _, statistic in self._entries)
        _, self.total, dim = self.samples.shape
        if "cramer" in self.names and dim != 1:
            raise DimensionMismatch("cramer statistic expects 1-D samples")
        self.slices = group_slices(self.sizes)
        self.partition_elements, _ = _element_counts(self.names, kind, self.sizes, dim)
        if "energy" in self.names:
            _require_distance_budget(self.total)
        self._depths_against = None
        if depth_names:
            self._depths_against = pooled_depths(self.samples, kind)

    def values(self, orders: np.ndarray) -> dict[str, np.ndarray]:
        # the sample each partition reads: p of a stack of P, 0 of a stack of one
        own = np.arange(len(orders)) % len(self.samples)
        inputs = {}
        if self._depths_against is not None:
            rows = partition_depth_rows(self._depths_against, self.slices, orders, own)
            inputs["depth_rows"] = rows
            if "q_matrix" in self.reads:
                inputs["q_matrix"] = quality_indices(rows, self.sizes)
        if "groups" in self.reads:
            inputs["groups"] = [
                [self.samples[t, order[sl]] for sl in self.slices] for t, order in zip(own, orders)
            ]
        return {name: s.formula(inputs[s.reads], self.sizes) for name, s in self._entries}


def evaluate_statistics(groups, names, kind: DepthKind | None) -> dict[str, float]:
    """Observed values of several statistics on one fixed partition."""
    engine = _StatisticEngine([groups], kind, names)
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
    engine = _StatisticEngine([groups], kind, names)
    names = engine.names
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
            upper = STATISTICS[name].tail == "upper"
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
