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
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .depths import DepthKind, chunks, depth_elements, pooled_depths, require_within_cap
from .errors import DepthTestError, DimensionMismatch, DomainError, UnknownStatistic
from .multi_sample import _max_stack, _min_stack, _product_stack, _sum_stack
from .quality import quality_indices
from .rng import (
    TAG_MC_ASYMPTOTIC, TAG_PERMUTATION, key_element, normals_from_uniforms, require_integer,
    substream,
)
from .samples import coerce_groups, group_slices
from .two_sample import TestOutcome, _bdbr_stack, _cramer_stack, _dbr_stack, _energy_stack


@dataclass(frozen=True)
class Statistic:
    """One statistic: its rejecting tail ("upper" or "lower"), whether it
    is defined only at k = 2, the input it ``reads`` for a stack of P
    partitions (``q_matrix`` or ``rank_sums`` (P, k, k), ``depth_rows``
    (P, k, N), or ``pooled``, the (P, N, d) pooled samples in partition
    order, whose consecutive row blocks are the groups), and its
    ``formula``: the (P,) statistics of that input and the group sizes."""

    tail: str
    two_group_only: bool
    reads: str
    formula: Callable[..., np.ndarray]

    @property
    def depth_based(self) -> bool:
        return self.reads in ("q_matrix", "rank_sums", "depth_rows")

    def defined_at(self, group_count: int) -> bool:
        return group_count == 2 or not self.two_group_only


# The k = 2 rows are the two-sample statistics; MANOVA stays outside, with
# its own F-law p-value and no permutation path.
STATISTICS = {
    "min": Statistic("upper", False, "q_matrix", _min_stack),
    "max": Statistic("upper", True, "q_matrix", _max_stack),
    "product": Statistic("lower", False, "q_matrix", _product_stack),
    "sum": Statistic("lower", False, "q_matrix", _sum_stack),
    "dbr": Statistic("upper", False, "rank_sums", _dbr_stack),
    "bdbr": Statistic("upper", True, "depth_rows", _bdbr_stack),
    "energy": Statistic("upper", True, "pooled", _energy_stack),
    "cramer": Statistic("upper", True, "pooled", _cramer_stack),
}


@dataclass(frozen=True)
class CalibrationSpec:
    """How to calibrate: replication count and seed. Each statistic is
    calibrated on its tail in :data:`STATISTICS`."""

    replications: int
    seed: int

    def __post_init__(self) -> None:
        key_element(self.seed, "seed")
        if require_integer(self.replications, "replications") < 1:
            raise ValueError("replications must be >= 1")


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


def _element_counts(names, kind: DepthKind | None, sizes, dim: int) -> int:
    """Size, in elements, of the largest temporary of one partition of a
    stack: the (k, N) depth rows and their sort and rank arrays; the (N, d)
    ``pooled`` gather and energy's (d, N) copy of it; energy's distance
    accumulator and scratch plane, both the size of its largest block; or
    the depth kernel's own (:func:`~depthtest.depths.depth_elements`),
    which bounds the geometry it builds per pooled sample itself. Refuses
    an energy distance block past the size cap."""
    total, reads = sum(sizes), {STATISTICS[name].reads for name in names}
    if "energy" in names:
        b = max(sizes)
        require_within_cap(b * b, f"energy needs a {b} x {b} distance block")
    return max(
        len(sizes) * total,
        2 * total * dim if "pooled" in reads else 0,
        2 * max(sizes) ** 2 if "energy" in names else 0,
        depth_elements(kind, total, dim) if reads - {"pooled"} else 0,
    )


class _StatisticEngine:
    """Evaluator of the named statistics for groups of ``sizes`` in ``dim``
    dimensions: a plan that holds no data, built once per permutation run
    or simulation grid point. ``values(samples, orders)`` evaluates every
    pooled sample of an (S, N, d) stack, its groups consecutive row blocks,
    under every order of a (P, N) stack, the partition that puts row
    ``orders[p, j]`` of sample t at position j, and returns each
    statistic's (S·P,) values, sample-major. Permutation calibration passes
    one sample (S = 1), a simulation chunk its data sets under one identity
    order (P = 1), and one-off evaluation is both, so all three run the
    same arithmetic. ``kind`` is None when no statistic reads depths. Each
    call builds only the inputs the requested statistics read, once, and
    shares them among those statistics: its depth rows come from one
    :func:`~depthtest.depths.pooled_depths` call, Q and the rank sums from
    one sort of them, energy's distance blocks from the stack's pooled
    samples. ``partition_elements`` sizes the largest per-partition
    temporary, which permutation and simulation chunks are measured in.
    """

    def __init__(self, sizes, dim: int, kind: DepthKind | None, names) -> None:
        self.sizes, self.total = tuple(sizes), sum(sizes)
        self.names = require_statistics(names, len(self.sizes))
        depth_names = [name for name in self.names if STATISTICS[name].depth_based]
        if depth_names and kind is None:
            raise ValueError(f"statistic {depth_names[0]!r} needs a DepthKind")
        self._entries = [(name, STATISTICS[name]) for name in self.names]
        self.reads = frozenset(statistic.reads for _, statistic in self._entries)
        if "cramer" in self.names and dim != 1:
            raise DimensionMismatch("cramer statistic expects 1-D samples")
        self.slices = group_slices(self.sizes)
        self.partition_elements = _element_counts(self.names, kind, self.sizes, dim)
        self.kind = kind if depth_names else None

    def values(self, samples: np.ndarray, orders: np.ndarray) -> dict[str, np.ndarray]:
        inputs = {}
        if self.kind is not None:
            rows = pooled_depths(samples, self.kind, orders, self.slices)
            inputs["depth_rows"] = rows
            if self.reads & {"q_matrix", "rank_sums"}:
                sums = "rank_sums" in self.reads
                inputs["q_matrix"], inputs["rank_sums"] = quality_indices(rows, self.sizes, sums)
        if "pooled" in self.reads:
            inputs["pooled"] = samples[:, orders].reshape(-1, *samples.shape[1:])
        return {name: s.formula(inputs[s.reads], self.sizes) for name, s in self._entries}


def evaluate_statistics(groups, names, kind: DepthKind | None) -> dict[str, float]:
    """Observed values of several statistics on one fixed partition."""
    pooled, sizes = coerce_groups(groups)
    engine = _StatisticEngine(sizes, pooled.shape[1], kind, names)
    values = engine.values(pooled[None], np.arange(engine.total)[None])
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


def _stack_values(engine: _StatisticEngine, sample, orders, first: int) -> dict[str, np.ndarray]:
    """``engine.values(sample, orders)``; when the stack fails, the error of
    its first failing partition, naming the replication if it is permuted."""
    try:
        return engine.values(sample, orders)
    except DepthTestError:
        for t, order in enumerate(orders, start=first):
            try:
                engine.values(sample, order[None])
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
    partition and the B permuted ones are evaluated in the
    :func:`~depthtest.depths.chunks` of ``engine.partition_elements``
    elements each; exceedances are counted per chunk by vectorised
    comparisons, so memory stays within one chunk whatever B is.
    """
    pooled, sizes = coerce_groups(groups)
    engine = _StatisticEngine(sizes, pooled.shape[1], kind, names)
    names = engine.names
    counts = dict.fromkeys(names, 0)
    for first, stop in chunks(spec.replications + 1, engine.partition_elements):
        # partition 0 is the observed (identity) one, partition t replication t - 1
        orders = np.stack([
            substream(spec.seed, TAG_PERMUTATION, t - 1).permutation(engine.total)
            if t else np.arange(engine.total)
            for t in range(first, stop)
        ])
        values = _stack_values(engine, pooled[None], orders, first)
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


# The screen bounds |z| by x (1 - margin) / max(c + c_tilde): a relative
# margin far above ndtri's error (a few ulps) and the rounding of
# c*z_i + c_tilde*z_j, so a screened draw passes every pair check exactly.
_SCREEN_MARGIN = 1e-9
# Unscreened draws get their normals in blocks of this many uniforms (the
# last cut to a power of two of rows), so that the sizes a long run
# allocates come from a fixed set.
_BLOCK_ELEMENTS = 1 << 14


def _screen_band(t: float) -> tuple[float, float] | None:
    """``(lo, hi)``, 0 < lo <= 0.5 <= hi < 1, such that the normals
    ``normals_from_uniforms`` makes of lo and of hi lie in [-t, t] (t > 0),
    or None if the closed-form edges fail that check.

    The edges are Phi(-s) and Phi(s) from ``math.erfc``, with
    s = min(t, 6) (1 - 1e-6): the shrink clears the rounding of erfc and
    ndtri, and the cap keeps hi off the coarse doubles just below 1. One
    call on the 2 edges checks them.
    """
    s = min(t, 6.0) * (1.0 - 1e-6) / math.sqrt(2.0)
    lo, hi = 0.5 * math.erfc(s), 0.5 * math.erfc(-s)
    z = normals_from_uniforms(np.array([lo, hi]))
    return (lo, hi) if np.abs(z).max() <= t else None


def _rows_within(u: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """(n,) mask of the rows of ``u`` whose every entry lies in [lo, hi]."""
    # column by column: a third of the time of .all(axis=1) on k-wide rows
    within = u >= lo
    within &= u <= hi
    rows = within[:, 0].copy()
    for column in range(1, u.shape[1]):
        rows &= within[:, column]
    return rows


def _inside_counts(remainders, x: float, weights) -> tuple[int, int]:
    """``(rows, inside)``: how many rows the (n, k) uniform arrays of
    ``remainders`` hold, and how many of them give normals whose every
    pair value c*z_i + c_tilde*z_j lies in [-x, x].

    The rows are gathered across the arrays into blocks of
    ``_BLOCK_ELEMENTS`` uniforms, each turned into normals by one
    ``normals_from_uniforms`` call. The last block is cut to the smallest
    power of two of rows that holds it and padded with 0.5, whose normal
    is exactly 0; padding rows are never counted. Block sizes thus come
    from a fixed set, so that a long run does not fragment the heap.
    """
    block, filled = None, 0
    rows = inside = 0

    def count(uniforms: np.ndarray, n: int) -> int:
        z = normals_from_uniforms(uniforms)
        ok = np.ones(z.shape[1], dtype=bool)
        for i, j, c, c_tilde in weights:
            ok &= np.abs(c * z[i] + c_tilde * z[j]) <= x
        return int(np.count_nonzero(ok[:n]))

    for u in remainders:
        if block is None:
            block = np.empty((u.shape[1], max(1, _BLOCK_ELEMENTS // u.shape[1])))
        rows += len(u)
        first = 0
        while first < len(u):
            take = min(block.shape[1] - filled, len(u) - first)
            block[:, filled:filled + take] = u[first:first + take].T
            filled += take
            first += take
            if filled == block.shape[1]:
                inside += count(block, filled)
                filled = 0
    if filled:
        last = block[:, :min(block.shape[1], 1 << (filled - 1).bit_length())]
        last[:, filled:] = 0.5
        inside += count(last, filled)
    return rows, inside


def mc_asymptotic_min_pvalue(x: float, sizes, spec: CalibrationSpec) -> float:
    """Upper-tail asymptotic p-value of the k-sample minimum statistic.

    Draws independent standard-normal k-vectors and measures how often all
    pairwise combinations c*Z_i + c_tilde*Z_j stay inside [-x, x] (the
    two-sided form of the limit event); the complement is the p-value.
    The weights of pair i < j are c = sqrt(n_j / (n_i + n_j)) and
    c_tilde = sqrt(n_i / (n_i + n_j)), so c^2 + c_tilde^2 = 1. Reduces to
    the half-normal tail at k = 2. Draws run in chunks of k-element rows.

    Each normal is ``ndtri`` of one Philox uniform. A screen decides most
    draws of a large x from their uniforms alone: if every |z_i| <= t with
    t = x (1 - 1e-9) / max(c + c_tilde), every pair gives
    |c*z_i + c_tilde*z_j| <= (c + c_tilde) t < x. :func:`_screen_band` gives
    uniforms [lo, hi] in closed form and checks with ``ndtri`` itself that
    their normals lie in [-t, t], and a draw with all k uniforms in it
    counts as inside without its normals. ndtri is monotone up to a few
    ulps, far inside the 1e-9 margin, so each screened draw passes the pair
    checks it skips. Every other draw takes the unscreened path
    (:func:`_inside_counts`), and the draws, their chunks and the stream
    are unchanged: the count is the unscreened count exactly, with any
    sound band or none. The screen runs only when erf(t / sqrt 2)^k, the
    share of draws it would decide, is at least a half (below that its
    pass costs more than it saves), and when the band passes its check.
    """
    if not np.isfinite(x):
        raise DomainError("statistic must be finite")
    try:  # a float or a string is refused, not truncated onto other sizes
        sizes = tuple(operator.index(s) for s in sizes)
    except TypeError:
        raise TypeError(f"group sizes {sizes!r} are not all integers") from None
    if any(s <= 0 for s in sizes):
        raise DomainError("group sizes must be positive")
    k = len(sizes)
    if k < 2:
        raise DomainError("need at least 2 groups")
    pairs = [(i, j, sizes[i] + sizes[j]) for i in range(k) for j in range(i + 1, k)]
    weights = [(i, j, math.sqrt(sizes[j] / tot), math.sqrt(sizes[i] / tot)) for i, j, tot in pairs]
    t = x * (1.0 - _SCREEN_MARGIN) / max(c + c_tilde for _, _, c, c_tilde in weights)
    band = _screen_band(t) if t > 0.0 and math.erf(t / math.sqrt(2.0)) ** k >= 0.5 else None
    rng = substream(spec.seed, TAG_MC_ASYMPTOTIC)

    def unscreened():
        for first, stop in chunks(spec.replications, k):
            u = rng.random((stop - first, k))
            yield u if band is None else np.compress(~_rows_within(u, *band), u, axis=0)

    rows, inside = _inside_counts(unscreened(), x, weights)
    # every screened draw is inside
    inside += spec.replications - rows
    return 1.0 - inside / spec.replications
