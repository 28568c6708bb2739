import math

import numpy as np
import pytest

from depthtest import (
    ASYMPTOTIC_UPPER_95,
    DepthKind,
    DomainError,
    ScenarioSpec,
    UnknownStatistic,
    evaluate_statistics,
    power_table,
    sample_scenario,
    type1_quantiles,
)
from depthtest.simulation import group_sizes

MAHAL = DepthKind("mahalanobis")


def _spec(**kw):
    base = dict(
        scenario="null", m_grid=(20,), size_rule="equal",
        depth=MAHAL, replications=10, seed=1,
    )
    base.update(kw)
    return ScenarioSpec(**base)


class TestScenarioSampling:
    def test_null_draws_standard_normal(self):
        spec = _spec(seed=5)
        draws = np.vstack([np.vstack(sample_scenario(spec, 20, r)) for r in range(500)])
        assert abs(draws.mean()) < 0.02
        cov = np.cov(draws.T)
        assert np.allclose(cov, np.eye(2), atol=0.03)

    def test_scale_shift_covariance(self):
        spec = _spec(scenario="scale_shift", m_grid=(100,), seed=6)
        second = np.vstack([sample_scenario(spec, 100, r)[1] for r in range(500)])
        cov = np.cov(second.T)
        assert cov[0, 1] == pytest.approx(0.5, abs=0.03)
        assert cov[0, 0] == pytest.approx(1.0, abs=0.03)

    def test_mean_shift_location(self):
        # law-of-large-numbers check on 1e5 draws from the shifted group
        spec = _spec(scenario="mean_shift", m_grid=(1000,), seed=7)
        second = np.vstack([sample_scenario(spec, 1000, r)[1] for r in range(100)])
        assert np.allclose(second.mean(axis=0), [0.3, 0.3], atol=0.01)

    def test_three_group_scenarios(self):
        spec = _spec(scenario="three_group_b", m_grid=(50,), seed=8)
        groups = sample_scenario(spec, 50, 0)
        assert len(groups) == 3
        assert all(g.shape == (50, 2) for g in groups)

    def test_deterministic_per_key(self):
        spec = _spec(seed=9)
        a = sample_scenario(spec, 20, 3)
        b = sample_scenario(spec, 20, 3)
        c = sample_scenario(spec, 20, 4)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        assert not np.array_equal(a[0], c[0])

    def test_size_rules(self):
        assert group_sizes(_spec(), 100) == (100, 100)
        assert group_sizes(_spec(size_rule="half"), 100) == (100, 50)
        spec3 = _spec(scenario="three_group_a")
        assert group_sizes(spec3, 100) == (100, 100, 100)
        assert group_sizes(_spec(scenario="three_group_a", size_rule="half"), 100) == (100, 50, 25)


class TestSpecValidation:
    def test_rejects_bad_specs(self):
        with pytest.raises(ValueError):
            _spec(scenario="quantile_shift")
        with pytest.raises(ValueError):
            _spec(m_grid=(2,))
        with pytest.raises(ValueError):
            _spec(m_grid=())
        with pytest.raises(ValueError):
            _spec(alpha_level=1.2)
        with pytest.raises(ValueError):
            _spec(size_rule="third")
        with pytest.raises(ValueError):
            _spec(replications=0)

    @pytest.mark.parametrize(
        "depth, m, smallest, need",
        ((MAHAL, 4, 1, 3), (MAHAL, 8, 2, 3), (DepthKind("projection"), 4, 1, 2)),
    )
    def test_group_below_depth_minimum_rejected(self, depth, m, smallest, need):
        # three_group_a under the half rule has groups of (m, m // 2, m // 4)
        with pytest.raises(
            ValueError,
            match=rf"m_grid entry {m} with size_rule 'half' gives a group of {smallest} row\(s\); "
            rf"{depth.kind} depth needs at least {need}",
        ):
            _spec(scenario="three_group_a", m_grid=(12, m), size_rule="half", depth=depth)
        _spec(scenario="three_group_a", m_grid=(12,), size_rule="half", depth=depth)


class TestTypeOne:
    def test_single_replication_degenerates_to_observation(self):
        spec = _spec(replications=1, m_grid=(12,), seed=21)
        table = type1_quantiles(spec)
        groups = sample_scenario(spec, 12, 0)
        assert table.rows[0].quantile == evaluate_statistics(groups, ("min",), MAHAL)["min"]
        assert table.reference == ASYMPTOTIC_UPPER_95

    def test_quantile_matches_sort_oracle(self):
        spec = _spec(replications=7, m_grid=(10,), seed=22)
        table = type1_quantiles(spec)
        values = sorted(
            evaluate_statistics(sample_scenario(spec, 10, r), ("min",), MAHAL)["min"]
            for r in range(7)
        )
        expected = values[math.ceil(0.95 * 7) - 1]
        assert table.rows[0].quantile == expected

    def test_requires_null_scenario(self):
        with pytest.raises(DomainError):
            type1_quantiles(_spec(scenario="mean_shift"))


class TestPower:
    def test_null_alternative_rejects_at_level(self):
        spec = _spec(m_grid=(40,), replications=200, seed=33)
        table = power_table(spec, ("min", "product"))
        noise = 3.0 * (0.05 * 0.95 / 200) ** 0.5
        for name in ("min", "product"):
            assert abs(table.rates[(name, 40)] - 0.05) <= noise + 1.0 / 200

    def test_power_detects_scale_shift_and_orders(self):
        spec = _spec(scenario="scale_shift", m_grid=(150,), replications=150, seed=34)
        table = power_table(spec, ("min", "product", "sum", "dbr"))
        assert table.rates[("product", 150)] > 0.5
        assert table.rates[("sum", 150)] > 0.5
        assert table.rates[("product", 150)] >= table.rates[("dbr", 150)]
        assert 0.0 <= table.asymptotic_min[150] <= 1.0

    def test_deterministic(self):
        spec = _spec(scenario="mean_shift", m_grid=(30,), replications=40, seed=35)
        a = power_table(spec, ("min", "sum"))
        b = power_table(spec, ("min", "sum"))
        assert a.rates == b.rates
        assert a.asymptotic_min == b.asymptotic_min

    def test_unknown_statistic_rejected(self):
        with pytest.raises(UnknownStatistic):
            power_table(_spec(), ("min", "mystery"))

    def test_repeated_statistic_rejected(self):
        with pytest.raises(UnknownStatistic, match="'min' is requested more than once"):
            power_table(_spec(), ("min", "sum", "min"))

    def test_two_group_only_names_rejected_for_three_groups(self):
        spec = _spec(scenario="three_group_a")
        with pytest.raises(UnknownStatistic):
            power_table(spec, ("max",))
