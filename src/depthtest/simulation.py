"""Simulation harness: size (type-I) and power studies at desk scale.

Scenarios are the bivariate-normal families of the original experiments:
a shared null, correlation (scale) shifts, mean shifts, a combined shift,
and their three-group versions. Critical values for the power runs come
from a fresh null calibration at the same sizes/depth, on each
statistic's tail in the statistic table; the minimum statistic's power
at the fixed asymptotic cutoff 1.96 is reported as a secondary column.

Replication r of grid point m draws from substream (seed, tag, m, r), so
tables are pure functions of the ScenarioSpec. The R data sets of a grid
point share their group sizes, so one statistic engine serves them all,
in chunks (:func:`~depthtest.depths.chunks`): a chunk's data sets are
drawn together, each from its own substream, their normals made in one
call and their groups written straight into one (S, N, d) stack, which
the engine evaluates under the one identity order. Every value equals
the one-off evaluation of its data set.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal

import numpy as np

from .calibration import STATISTICS, _element_counts, _StatisticEngine, require_statistics
from .depths import (
    DepthKind,
    chunks,
    min_reference_rows,
    require_geometry_within_cap,
    require_within_cap,
)
from .errors import DomainError, UnknownStatistic
from .rng import (
    TAG_NULL_CALIBRATION, TAG_SCENARIO, key_element, normals_from_uniforms, require_integer,
    substream,
)
from .samples import group_slices

ASYMPTOTIC_UPPER_95 = 1.96

_IDENT = np.eye(2)
_SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])

# scenario -> list of (mean, covariance) per group
SCENARIOS: dict[str, list[tuple[np.ndarray, np.ndarray]]] = {
    "null": [(np.zeros(2), _IDENT), (np.zeros(2), _IDENT)],
    "scale_shift": [(np.zeros(2), _IDENT), (np.zeros(2), _IDENT + 0.5 * _SWAP)],
    "mean_shift": [(np.zeros(2), _IDENT), (np.array([0.3, 0.3]), _IDENT)],
    "both_shift": [(np.zeros(2), _IDENT), (np.array([0.2, 0.2]), _IDENT + 0.4 * _SWAP)],
    "three_group_a": [
        (np.zeros(2), _IDENT),
        (np.zeros(2), _IDENT),
        (np.zeros(2), _IDENT + 0.5 * _SWAP),
    ],
    "three_group_b": [
        (np.zeros(2), _IDENT),
        (np.array([0.3, 0.3]), _IDENT),
        (np.zeros(2), _IDENT + 0.5 * _SWAP),
    ],
}

# each scenario's groups as (mean, lower Cholesky factor of the covariance)
_FACTORED = {
    name: [(mean, np.linalg.cholesky(cov)) for mean, cov in groups]
    for name, groups in SCENARIOS.items()
}

SIZE_RULES = ("equal", "half")


@dataclass(frozen=True)
class ScenarioSpec:
    """One simulation configuration; every random draw derives from ``seed``."""

    scenario: str
    m_grid: tuple[int, ...]
    size_rule: str
    depth: DepthKind
    replications: int
    seed: int
    alpha_level: float = 0.05

    def __post_init__(self) -> None:
        key_element(self.seed, "seed")
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}")
        if self.size_rule not in SIZE_RULES:
            raise ValueError(f"unknown size rule {self.size_rule!r}")
        if not self.m_grid or any(require_integer(m, "m_grid entry") < 4 for m in self.m_grid):
            raise ValueError("m_grid entries must be >= 4")
        for i, m in enumerate(self.m_grid):
            if m in self.m_grid[:i]:
                raise ValueError(f"m_grid entry {m} is listed more than once")
        if not 0.0 < self.alpha_level < 1.0:
            raise ValueError("alpha_level must be inside (0, 1)")
        if require_integer(self.replications, "replications") < 1:
            raise ValueError("replications must be >= 1")
        require_within_cap(self.replications, f"{self.replications} replications keep as "
                           "many values per statistic")
        # every group is a depth reference: refuse one too small before any
        # draw, and a pooled sample or its depth geometry past the size cap too
        need = min_reference_rows(self.depth, self.dimension)
        for m in self.m_grid:
            sizes = group_sizes(self, m)
            if min(sizes) < need:
                raise ValueError(
                    f"m_grid entry {m} with size_rule {self.size_rule!r} gives a group of "
                    f"{min(sizes)} row(s); {self.depth.kind} depth needs at least {need}"
                )
            require_within_cap(
                sum(sizes) * self.dimension,
                f"m_grid entry {m} draws groups of {', '.join(map(str, sizes))} rows, "
                f"a pooled sample of {sum(sizes)} x {self.dimension}",
            )
            require_geometry_within_cap(self.depth, sum(sizes), self.dimension)

    @property
    def group_count(self) -> int:
        return len(SCENARIOS[self.scenario])

    @property
    def dimension(self) -> int:
        return SCENARIOS[self.scenario][0][0].size


@dataclass(frozen=True)
class TypeOneRow:
    m: int
    sizes: tuple[int, ...]
    quantile: float


@dataclass(frozen=True)
class TypeOneTable:
    rows: tuple[TypeOneRow, ...]
    reference: float
    spec: ScenarioSpec


@dataclass(frozen=True, eq=False)
class PowerTable:
    """Empirical rejection rates keyed by (statistic, m)."""

    rates: dict[tuple[str, int], float]
    asymptotic_min: dict[int, float]
    sizes: dict[int, tuple[int, ...]]
    statistics: tuple[str, ...]
    spec: ScenarioSpec


def group_sizes(spec: ScenarioSpec, m: int) -> tuple[int, ...]:
    """Sizes per group: all equal to m, or the halving rule (m, m/2[, m/4])."""
    k = spec.group_count
    if spec.size_rule == "equal":
        return tuple([m] * k)
    if k == 2:
        return (m, m // 2)
    return (m, m // 2, m // 4)


def _draw_groups(params, sizes, keys) -> np.ndarray:
    """The (S, N, d) stack of one pooled data set per substream key: group g
    is ``mean + z @ factor.T`` for the g-th (mean, factor) of ``params``,
    written over its z, standard normal from the key's stream in group
    order. The uniforms of all the data sets become normals in one
    ``normals_from_uniforms`` call."""
    dim = params[0][0].size
    u = np.stack([substream(*key).random((sum(sizes), dim)) for key in keys])
    z = normals_from_uniforms(u)
    for (mean, factor), rows in zip(params, group_slices(sizes)):
        z[:, rows] = mean + z[:, rows] @ factor.T
    return z


def _datasets(spec: ScenarioSpec, m: int, replications, tag: int) -> np.ndarray:
    """The (S, N, d) data sets of ``replications`` at grid point m, r from
    substream (seed, tag, m, r): the scenario's groups for TAG_SCENARIO; for
    TAG_NULL_CALIBRATION, homogeneous draws (all groups standard normal) at
    the scenario's sizes, on a stream disjoint from them."""
    if tag == TAG_SCENARIO:
        params = _FACTORED[spec.scenario]
    else:
        params = _FACTORED["null"][:1] * spec.group_count
    keys = [(spec.seed, tag, m, r) for r in replications]
    return _draw_groups(params, group_sizes(spec, m), keys)


def sample_scenario(spec: ScenarioSpec, m: int, replication: int) -> list[np.ndarray]:
    """Group samples for one replication, from substream (seed, m, replication)."""
    pooled = _datasets(spec, m, (replication,), TAG_SCENARIO)[0]
    return [pooled[rows] for rows in group_slices(group_sizes(spec, m))]


def _replicate(spec: ScenarioSpec, m: int, names, tag: int) -> dict[str, np.ndarray]:
    """(R,) values of each named statistic over the spec's R replications at
    grid point m; replication r evaluates the data set ``_datasets`` draws
    for it under ``tag``.

    One statistic engine serves the grid point. The replications run in
    :func:`~depthtest.depths.chunks` of its ``partition_elements``: a
    chunk's data sets are drawn into one (S, N, d) stack, which the engine
    evaluates under the identity order, so every value equals the one-off
    :func:`~depthtest.calibration.evaluate_statistics` of its data set. A
    data set's (N, 2) pooled sample fits within its (k >= 2, N) depth rows.
    """
    engine = _StatisticEngine(group_sizes(spec, m), spec.dimension, spec.depth, names)
    identity = np.arange(engine.total)[None]
    values = {name: np.empty(spec.replications) for name in names}
    for first, stop in chunks(spec.replications, engine.partition_elements):
        stack = _datasets(spec, m, range(first, stop), tag)
        for name, stacked in engine.values(stack, identity).items():
            values[name][first:stop] = stacked
    return values


def type1_quantiles(spec: ScenarioSpec) -> TypeOneTable:
    """Empirical upper (1 - alpha_level) quantile of the minimum statistic
    per grid point, under the null scenario only."""
    if spec.scenario != "null":
        raise DomainError("type-I quantiles are defined for the null scenario")
    rows = []
    for m in spec.m_grid:
        values = _replicate(spec, m, ("min",), TAG_SCENARIO)["min"]
        quantile = _critical_value(values, "upper", spec.alpha_level)
        rows.append(TypeOneRow(m=m, sizes=group_sizes(spec, m), quantile=quantile))
    return TypeOneTable(rows=tuple(rows), reference=ASYMPTOTIC_UPPER_95, spec=spec)


def _critical_value(null_values: np.ndarray, tail: str, alpha: float) -> float:
    """Upper tail: the order statistic at ceil((1 - alpha) R) = R - floor(alpha R),
    1-based; lower tail: the one at floor(alpha R), 0-based. alpha is read as
    the decimal it prints as, so the product is exact: at alpha = 0.059 and
    R = 1000 the upper one is the 941st, not the 942nd of floating point."""
    ordered = np.sort(null_values)
    numerator, denominator = Decimal(str(float(alpha))).as_integer_ratio()
    below = numerator * null_values.size // denominator
    if tail == "upper":
        return float(ordered[null_values.size - below - 1])
    return float(ordered[below])


def power_table(spec: ScenarioSpec, statistics) -> PowerTable:
    """Rejection rates under the scenario, against critical values estimated
    from a null run of the same sizes and depth. ``asymptotic_min`` applies
    the two-sample cutoff 1.96 at every k: its size is about 0.125 at k = 3."""
    statistics = require_statistics(statistics, spec.group_count)
    if "cramer" in statistics:
        raise UnknownStatistic(
            "statistic 'cramer' needs 1-D samples; the simulation scenarios are bivariate"
        )
    eval_names = statistics if "min" in statistics else statistics + ("min",)
    for m in spec.m_grid:  # refuse an energy block past the size cap before any draw
        _element_counts(eval_names, spec.depth, group_sizes(spec, m), spec.dimension)

    rates: dict[tuple[str, int], float] = {}
    asymptotic_min: dict[int, float] = {}
    sizes_by_m: dict[int, tuple[int, ...]] = {}
    for m in spec.m_grid:
        sizes_by_m[m] = group_sizes(spec, m)
        null_values = _replicate(spec, m, statistics, TAG_NULL_CALIBRATION)
        values = _replicate(spec, m, eval_names, TAG_SCENARIO)
        for name in statistics:
            tail = STATISTICS[name].tail
            crit = _critical_value(null_values[name], tail, spec.alpha_level)
            rejects = values[name] > crit if tail == "upper" else values[name] < crit
            rates[(name, m)] = np.count_nonzero(rejects) / spec.replications
        asymptotic = values["min"] >= ASYMPTOTIC_UPPER_95
        asymptotic_min[m] = np.count_nonzero(asymptotic) / spec.replications
    return PowerTable(
        rates=rates,
        asymptotic_min=asymptotic_min,
        sizes=sizes_by_m,
        statistics=statistics,
        spec=spec,
    )
