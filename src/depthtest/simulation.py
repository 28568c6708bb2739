"""Simulation harness: size (type-I) and power studies at desk scale.

Scenarios are the bivariate-normal families of the original experiments:
a shared null, correlation (scale) shifts, mean shifts, a combined shift,
and their three-group versions. Critical values for the power runs come
from a fresh null calibration at the same sizes/depth (the tail rule is
lower for product/sum, upper otherwise); the minimum statistic's power
at the fixed asymptotic cutoff 1.96 is reported as a secondary column.

Replication r of grid point m draws from substream (seed, tag, m, r), so
tables are pure functions of the ScenarioSpec.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calibration import default_tail, evaluate_statistics, require_statistics
from .depths import DepthKind, min_reference_rows
from .errors import DomainError
from .rng import TAG_NULL_CALIBRATION, TAG_SCENARIO, standard_normals, substream

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
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}")
        if self.size_rule not in SIZE_RULES:
            raise ValueError(f"unknown size rule {self.size_rule!r}")
        if not self.m_grid or any(m < 4 for m in self.m_grid):
            raise ValueError("m_grid entries must be >= 4")
        if not 0.0 < self.alpha_level < 1.0:
            raise ValueError("alpha_level must be inside (0, 1)")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        # every group is a depth reference: refuse one too small before any draw
        need = min_reference_rows(self.depth, SCENARIOS[self.scenario][0][0].size)
        for m in self.m_grid:
            smallest = min(group_sizes(self, m))
            if smallest < need:
                raise ValueError(
                    f"m_grid entry {m} with size_rule {self.size_rule!r} gives a group of "
                    f"{smallest} row(s); {self.depth.kind} depth needs at least {need}"
                )

    @property
    def group_count(self) -> int:
        return len(SCENARIOS[self.scenario])


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


def _draw_groups(params, sizes, key) -> list[np.ndarray]:
    rng = substream(*key)
    groups = []
    for (mean, cov), count in zip(params, sizes):
        factor = np.linalg.cholesky(cov)
        z = standard_normals(rng, (count, mean.size))
        groups.append(mean + z @ factor.T)
    return groups


def sample_scenario(spec: ScenarioSpec, m: int, replication: int) -> list[np.ndarray]:
    """Group samples for one replication, from substream (seed, m, replication)."""
    sizes = group_sizes(spec, m)
    return _draw_groups(
        SCENARIOS[spec.scenario], sizes, (spec.seed, TAG_SCENARIO, m, replication)
    )


def _sample_null(spec: ScenarioSpec, m: int, replication: int) -> list[np.ndarray]:
    """Homogeneous draws (all groups standard normal) at the scenario's sizes,
    on a stream disjoint from the evaluation draws."""
    sizes = group_sizes(spec, m)
    params = [(np.zeros(2), _IDENT)] * spec.group_count
    return _draw_groups(params, sizes, (spec.seed, TAG_NULL_CALIBRATION, m, replication))


def _upper_order_statistic(values: np.ndarray, level: float) -> float:
    """Order statistic at ceil(level * R), 1-based."""
    ordered = np.sort(values)
    index = math.ceil(level * values.size)
    return float(ordered[max(index, 1) - 1])


def type1_quantiles(spec: ScenarioSpec) -> TypeOneTable:
    """Empirical upper (1 - alpha_level) quantile of the minimum statistic
    per grid point, under the null scenario only."""
    if spec.scenario != "null":
        raise DomainError("type-I quantiles are defined for the null scenario")
    rows = []
    for m in spec.m_grid:
        sizes = group_sizes(spec, m)
        values = np.empty(spec.replications)
        for r in range(spec.replications):
            groups = sample_scenario(spec, m, r)
            values[r] = evaluate_statistics(groups, ("min",), spec.depth)["min"]
        quantile = _upper_order_statistic(values, 1.0 - spec.alpha_level)
        rows.append(TypeOneRow(m=m, sizes=sizes, quantile=quantile))
    return TypeOneTable(rows=tuple(rows), reference=ASYMPTOTIC_UPPER_95, spec=spec)


def _critical_value(null_values: np.ndarray, tail: str, alpha: float) -> float:
    ordered = np.sort(null_values)
    if tail == "upper":
        index = math.ceil((1.0 - alpha) * null_values.size)
        return float(ordered[max(index, 1) - 1])
    index = math.floor(alpha * null_values.size)
    return float(ordered[index])


def _rejects(value: float, crit: float, tail: str) -> bool:
    return value > crit if tail == "upper" else value < crit


def power_table(spec: ScenarioSpec, statistics) -> PowerTable:
    """Rejection rates under the scenario, against critical values estimated
    from a null run of the same sizes and depth."""
    statistics = require_statistics(statistics, spec.group_count)
    tails = {name: default_tail(name) for name in statistics}
    eval_names = statistics if "min" in statistics else statistics + ("min",)

    rates: dict[tuple[str, int], float] = {}
    asymptotic_min: dict[int, float] = {}
    sizes_by_m: dict[int, tuple[int, ...]] = {}
    for m in spec.m_grid:
        sizes_by_m[m] = group_sizes(spec, m)
        null_values = {name: np.empty(spec.replications) for name in statistics}
        for r in range(spec.replications):
            groups = _sample_null(spec, m, r)
            values = evaluate_statistics(groups, statistics, spec.depth)
            for name in statistics:
                null_values[name][r] = values[name]
        crits = {
            name: _critical_value(null_values[name], tails[name], spec.alpha_level)
            for name in statistics
        }
        reject_counts = {name: 0 for name in statistics}
        asym_count = 0
        for r in range(spec.replications):
            groups = sample_scenario(spec, m, r)
            values = evaluate_statistics(groups, eval_names, spec.depth)
            for name in statistics:
                reject_counts[name] += _rejects(values[name], crits[name], tails[name])
            asym_count += values["min"] >= ASYMPTOTIC_UPPER_95
        for name in statistics:
            rates[(name, m)] = reject_counts[name] / spec.replications
        asymptotic_min[m] = asym_count / spec.replications
    return PowerTable(
        rates=rates,
        asymptotic_min=asymptotic_min,
        sizes=sizes_by_m,
        statistics=statistics,
        spec=spec,
    )
