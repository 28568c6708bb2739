import numpy as np
import pytest

from depthtest import (
    DepthKind,
    ScenarioSpec,
    SizeLimit,
    quality,
    quality_brute_oracle,
    sample_scenario,
)
from depthtest.quality import _counting_layout, quality_indices

MAHAL = DepthKind("mahalanobis")
SPATIAL = DepthKind("spatial")


def test_hand_worked_pair():
    # depths of {0,1,2} against itself are (0.5, 1.0, 0.5); depth(0.9) beats
    # two of them, depth(5.0) beats none -> q_fg = (2/3 + 0)/2 = 1/3
    pair = quality([[0.0], [1.0], [2.0]], [[0.9], [5.0]], MAHAL)
    assert pair.q_fg == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert pair.m == 3 and pair.n == 2


def test_identical_samples_with_distinct_depths(rng):
    x = rng.normal(size=(9, 2))
    m = x.shape[0]
    pair = quality(x, x, MAHAL)
    assert pair.q_fg == pytest.approx((m + 1) / (2 * m), abs=1e-15)
    assert pair.q_gf == pytest.approx((m + 1) / (2 * m), abs=1e-15)


def test_single_point_samples_are_integer_lattice():
    pair = quality([[0.0]], [[1.0]], SPATIAL)
    assert pair.q_fg in (0.0, 1.0)
    assert pair.q_gf in (0.0, 1.0)


def test_values_are_multiples_of_lattice_step(any_kind, rng):
    for _ in range(10):
        d = int(rng.integers(1, 4))
        m, n = int(rng.integers(d + 2, 9)), int(rng.integers(d + 2, 9))
        pair = quality(rng.normal(size=(m, d)), rng.normal(size=(n, d)), any_kind)
        for value in (pair.q_fg, pair.q_gf):
            scaled = value * m * n
            assert scaled == pytest.approx(round(scaled), abs=1e-9)
            assert 0.0 <= value <= 1.0


def test_exchange_property(any_kind, rng):
    for _ in range(10):
        d = int(rng.integers(1, 4))
        x = rng.normal(size=(int(rng.integers(d + 2, 10)), d))
        y = rng.normal(size=(int(rng.integers(d + 2, 10)), d))
        forward = quality(x, y, any_kind)
        backward = quality(y, x, any_kind)
        assert forward.q_fg == backward.q_gf
        assert forward.q_gf == backward.q_fg


def test_oracle_equivalence_spot(any_kind, rng):
    for _ in range(25):
        d = int(rng.integers(1, 4))
        x = rng.normal(size=(int(rng.integers(d + 2, 9)), d))
        y = rng.normal(size=(int(rng.integers(d + 2, 9)), d))
        fast = quality(x, y, any_kind)
        slow = quality_brute_oracle(x, y, any_kind)
        assert fast == slow


def test_counting_layout_cache_keeps_one_layout(rng):
    # a process keeps the layout of the latest group sizes only
    for m in range(2, 102):
        quality(rng.normal(size=(m, 1)), rng.normal(size=(3, 1)), SPATIAL)
    assert _counting_layout.cache_info().currsize <= 1


def test_oracle_cap():
    big = np.zeros((65, 1))
    with pytest.raises(SizeLimit):
        quality_brute_oracle(big, big, SPATIAL)


def test_null_centering_statistical():
    # under homogeneity the directed index centers on 1/2
    spec = ScenarioSpec(
        scenario="null", m_grid=(80,), size_rule="equal",
        depth=MAHAL, replications=200, seed=31,
    )
    values = np.empty(200)
    for r in range(200):
        x, y = sample_scenario(spec, 80, r)
        values[r] = quality(x, y, MAHAL).q_fg
    # sd of the mean ~ sqrt(1/12 * 2/80 / 200) ~ 0.003
    assert abs(values.mean() - 0.5) < 0.012


def test_standardized_normality_sanity():
    # finite-sample check of the limiting standard normal at m = n = 500;
    # the directed index carries a small negative bias at this size, so the
    # one-sided quantile sits a bit under 1.645 while the absolute quantile
    # is already at its limit value
    m = 500
    spec = ScenarioSpec(
        scenario="null", m_grid=(m,), size_rule="equal",
        depth=MAHAL, replications=600, seed=11,
    )
    z = np.empty(600)
    scale = ((1.0 / 12.0) * (2.0 / m)) ** 0.5
    for r in range(600):
        x, y = sample_scenario(spec, m, r)
        z[r] = (quality(x, y, MAHAL).q_fg - 0.5) / scale
    assert abs(z.std() - 1.0) < 0.08
    assert 1.35 < np.quantile(z, 0.95) < 1.75
    assert 1.75 < np.quantile(np.abs(z), 0.95) < 2.15


def test_antisymmetry_deviation_shrinks():
    # |q_fg + q_gf - 1| decays stochastically with sample size
    def median_deviation(m: int) -> float:
        spec = ScenarioSpec(
            scenario="null", m_grid=(m,), size_rule="equal",
            depth=MAHAL, replications=60, seed=17,
        )
        devs = np.empty(60)
        for r in range(60):
            x, y = sample_scenario(spec, m, r)
            pair = quality(x, y, MAHAL)
            devs[r] = abs(pair.q_fg + pair.q_gf - 1.0)
        return float(np.median(devs))

    assert median_deviation(400) < median_deviation(50)


@pytest.mark.parametrize("sizes", ((4, 6), (5, 3, 4), (30, 30, 30)))
def test_rank_sums_leave_quality_bits_unchanged(sizes, rng):
    k, n = len(sizes), sum(sizes)
    for rows in (rng.random((6, k, n)), rng.choice([-0.0, 0.0, 1.0, 2.0], size=(6, k, n))):
        q, none = quality_indices(rows, sizes)
        with_sums, sums = quality_indices(rows, sizes, rank_sums=True)
        assert none is None and sums.shape == (6, k, k)
        assert np.array_equal(q.view(np.int64), with_sums.view(np.int64))
