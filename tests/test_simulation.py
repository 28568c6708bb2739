import math
import os
import subprocess
import sys

import numpy as np
import pytest

import depthtest.calibration as calibration
import depthtest.simulation as simulation
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
from depthtest.calibration import _StatisticEngine, datasets_per_chunk
from depthtest.rng import TAG_NULL_CALIBRATION, TAG_SCENARIO, standard_normals, substream
from depthtest.simulation import SCENARIOS, group_sizes

MAHAL = DepthKind("mahalanobis")
KINDS = (MAHAL, DepthKind("spatial"), DepthKind("projection", direction_count=64, direction_seed=3))
# (scenario, statistics): k = 2 with every two-group statistic, and k = 3
SCENARIO_NAMES = (
    ("null", ("min", "max", "product", "sum", "dbr", "bdbr", "energy")),
    ("three_group_b", ("min", "product", "sum", "dbr")),
)


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

    @pytest.mark.parametrize("scenario", tuple(SCENARIOS))
    def test_draws_are_mean_plus_normals_times_cholesky_factor(self, scenario):
        spec = _spec(scenario=scenario, m_grid=(12,), size_rule="half", seed=10)
        sizes = group_sizes(spec, 12)
        null = [(np.zeros(2), np.eye(2))] * spec.group_count
        for draw, tag, params in ((sample_scenario, TAG_SCENARIO, SCENARIOS[scenario]),
                                  (simulation._sample_null, TAG_NULL_CALIBRATION, null)):
            for r in (0, 5):
                rng = substream(spec.seed, tag, 12, r)
                want = [mean + standard_normals(rng, (count, 2)) @ np.linalg.cholesky(cov).T
                        for (mean, cov), count in zip(params, sizes)]
                got = draw(spec, 12, r)
                assert len(got) == len(want)
                assert all(np.array_equal(g, w) for g, w in zip(got, want))

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
        with pytest.raises(ValueError, match="m_grid entry 20 is listed more than once"):
            _spec(m_grid=(20, 30, 20))

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

    @pytest.mark.parametrize(
        "size, tail, alpha, expected",
        # in floating point (1 - 0.059) * 1000 lands above 941 and 0.009 * 3000 below 27
        ((1000, "upper", 0.059, 941.0), (3000, "lower", 0.009, 28.0),
         (1000, "upper", 0.05, 950.0), (1000, "lower", 0.05, 51.0)),
    )
    def test_critical_value_index_reads_alpha_as_printed(self, size, tail, alpha, expected):
        values = np.arange(size, 0, -1, dtype=float)
        assert simulation._critical_value(values, tail, alpha) == expected


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

    def test_one_dimensional_statistic_rejected_before_drawing(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("drew a data set")

        monkeypatch.setattr(simulation, "sample_scenario", no_draw)
        monkeypatch.setattr(simulation, "_sample_null", no_draw)
        with pytest.raises(UnknownStatistic, match="'cramer' needs 1-D samples"):
            power_table(_spec(scenario="scale_shift"), ("min", "cramer"))

    def test_two_group_only_names_rejected_for_three_groups(self):
        spec = _spec(scenario="three_group_a")
        with pytest.raises(UnknownStatistic):
            power_table(spec, ("max",))


class TestBatchedReplications:
    @pytest.mark.parametrize("scenario, names", SCENARIO_NAMES, ids=("k2", "k3"))
    @pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.kind)
    def test_chunk_size_leaves_tables_unchanged(self, kind, scenario, names, monkeypatch):
        # one data set per chunk, two per chunk (the last holding one) and all
        # five in one chunk; one engine call per chunk in each pass
        spec = _spec(scenario=scenario, m_grid=(12,), size_rule="half", depth=kind,
                     replications=5, seed=41)
        sizes = group_sizes(spec, 12)
        stack_sizes = []
        values = _StatisticEngine.values

        def recording(self, orders):
            assert len(self.samples) == len(orders)
            stack_sizes.append(len(orders))
            return values(self, orders)

        monkeypatch.setattr(_StatisticEngine, "values", recording)

        def power():
            table = power_table(spec, names)
            return table.rates, table.asymptotic_min

        # (table, the statistics it evaluates, its passes over the replications)
        runs = [(power, names, 2)]
        if scenario == "null":
            runs.append((lambda: type1_quantiles(spec).rows, ("min",), 1))
        for table, evaluated, passes in runs:
            per_dataset = max(calibration._element_counts(evaluated, kind, sizes, 2))
            tables = []
            for budget, chunks in ((1, [1] * 5), (2 * per_dataset, [2, 2, 1]), (1 << 40, [5])):
                monkeypatch.setattr(calibration, "_CHUNK_ELEMENTS", budget)
                stack_sizes.clear()
                tables.append(table())
                assert stack_sizes == chunks * passes
            assert tables[0] == tables[1] == tables[2]

    @pytest.mark.parametrize("scenario, names", SCENARIO_NAMES, ids=("k2", "k3"))
    @pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.kind)
    def test_replications_equal_one_off_evaluation(self, kind, scenario, names):
        spec = _spec(scenario=scenario, m_grid=(30,), depth=kind, replications=7, seed=43)
        for draw in (sample_scenario, simulation._sample_null):
            values = simulation._replicate(spec, 30, names, draw)
            for r in range(spec.replications):
                one = evaluate_statistics(draw(spec, 30, r), names, kind)
                assert {name: values[name][r] for name in names} == one

    def test_multi_chunk_report_independent_of_blas_threads(self):
        # at m = 100 a chunk holds 3 spatial or 2 projection data sets, so
        # five replications take several chunks
        sizes = (100, 100)
        assert datasets_per_chunk(("min",), DepthKind("spatial"), sizes, 2) == 3
        assert datasets_per_chunk(("min",), DepthKind("projection"), sizes, 2) == 2
        script = (
            "from depthtest.cli import main\n"
            "for depth in ('mahalanobis', 'spatial', 'projection'):\n"
            "    main(['power', '--scenario', 'scale_shift', '--m-grid', '40,100', '--reps', '5',\n"
            "          '--depth', depth, '--seed', '8', '--format', 'csv'])\n"
        )

        def report(threads):
            env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path),
                   "OPENBLAS_NUM_THREADS": str(threads), "OMP_NUM_THREADS": str(threads)}
            done = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True, check=True)
            return done.stdout

        one = report(1)
        assert one.count("min_asymptotic") == 6
        assert report(4) == one
