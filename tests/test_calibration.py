import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depthtest import (
    CalibrationSpec,
    DepthKind,
    DomainError,
    ScenarioSpec,
    UnknownStatistic,
    chi2_1_pvalue,
    default_tail,
    depth_values,
    evaluate_statistics,
    half_normal_pvalue,
    mc_asymptotic_min_pvalue,
    pair_coefficients,
    permutation_pvalue,
    permutation_report,
    quality,
    sample_scenario,
)
from depthtest import (
    bdbr_multivariate,
    cramer_univariate,
    dbr_statistic,
    energy_statistic,
    max_statistic,
    min_statistic,
    product_statistic,
    sum_statistic,
)
from depthtest.calibration import _StatisticEngine
from depthtest.quality import partition_depth_rows
from depthtest.rng import TAG_PERMUTATION, substream
from oracles import arranged_depth_rows

MAHAL = DepthKind("mahalanobis")


class TestClosedFormPvalues:
    def test_half_normal_reference_points(self):
        assert half_normal_pvalue(1.96) == pytest.approx(0.05, abs=2e-4)
        assert half_normal_pvalue(0.0) == 1.0
        assert half_normal_pvalue(2.449490) == pytest.approx(0.01430, abs=2e-4)
        assert half_normal_pvalue(-3.0) == 1.0

    def test_chi2_reference_points(self):
        assert chi2_1_pvalue(3.8415) == pytest.approx(0.05, abs=2e-4)
        assert chi2_1_pvalue(0.0) == 1.0
        with pytest.raises(DomainError):
            chi2_1_pvalue(-1.0)

    def test_chi2_half_normal_identity(self):
        for x in (0.2, 1.0, 1.96, 2.5):
            assert chi2_1_pvalue(x * x) == pytest.approx(half_normal_pvalue(x), rel=1e-12)


class TestPairCoefficients:
    def test_unit_circle_identity(self):
        coeff = pair_coefficients((30, 50, 170))
        for i in range(3):
            for j in range(i + 1, 3):
                assert coeff.c[i, j] ** 2 + coeff.c_tilde[i, j] ** 2 == pytest.approx(
                    1.0, abs=1e-12
                )

    def test_equal_sizes_give_diagonal_weights(self):
        coeff = pair_coefficients((40, 40))
        assert coeff.c[0, 1] == pytest.approx(2.0**-0.5, rel=1e-12)
        assert coeff.c_tilde[0, 1] == pytest.approx(2.0**-0.5, rel=1e-12)

    def test_positive_sizes_required(self):
        with pytest.raises(DomainError):
            pair_coefficients((10, 0))


class TestTails:
    def test_defaults(self):
        assert default_tail("product") == "lower"
        assert default_tail("sum") == "lower"
        for name in ("min", "max", "dbr", "bdbr", "energy", "cramer"):
            assert default_tail(name) == "upper"

    def test_unknown_statistic(self):
        with pytest.raises(UnknownStatistic):
            default_tail("wilks")


class TestEvaluation:
    def test_matches_public_operations(self, any_kind, rng):
        x = rng.normal(size=(9, 2))
        y = rng.normal(size=(12, 2))
        values = evaluate_statistics(
            [x, y], ("min", "max", "product", "sum", "dbr", "bdbr", "energy"), any_kind
        )
        pair = quality(x, y, any_kind)
        assert values["min"] == min_statistic(pair)
        assert values["max"] == max_statistic(pair)
        assert values["product"] == product_statistic(pair)
        assert values["sum"] == sum_statistic(pair)
        assert values["dbr"] == dbr_statistic(x, y, any_kind)
        assert values["bdbr"] == bdbr_multivariate(x, y, any_kind)
        assert values["energy"] == pytest.approx(energy_statistic(x, y), rel=1e-12)

    def test_cramer_evaluation(self, rng):
        x = rng.normal(size=(8, 1))
        y = rng.normal(size=(6, 1))
        assert evaluate_statistics([x, y], ("cramer",), None)["cramer"] == pytest.approx(
            cramer_univariate(x, y), rel=1e-15
        )

    def test_two_group_only_guard(self, rng):
        groups = [rng.normal(size=(5, 2)) for _ in range(3)]
        for name in ("max", "bdbr", "energy"):
            with pytest.raises(UnknownStatistic):
                evaluate_statistics(groups, (name,), MAHAL)[name]

    def test_repeated_name_rejected(self, rng):
        groups = [rng.normal(size=(8, 2)) for _ in range(2)]
        spec = CalibrationSpec(method="permutation", replications=9, seed=0)
        with pytest.raises(UnknownStatistic, match="'min' is requested more than once"):
            permutation_report(groups, ("min", "min"), MAHAL, spec)
        with pytest.raises(UnknownStatistic, match="'dbr' is requested more than once"):
            evaluate_statistics(groups, ("dbr", "min", "dbr"), MAHAL)

    def test_unknown_name(self, rng):
        with pytest.raises(UnknownStatistic):
            evaluate_statistics([rng.normal(size=(4, 1))] * 2, ("ks",), MAHAL)["ks"]


class TestPermutation:
    def test_constant_statistic_gives_p_one(self):
        x = np.zeros((6, 2))
        y = np.zeros((5, 2))
        spec = CalibrationSpec(method="permutation", replications=60, seed=3)
        out = permutation_pvalue([x, y], "energy", None, spec)
        assert out.p_value == 1.0
        assert out.method == "permutation"

    def test_pvalue_bounds(self, rng):
        x = rng.normal(size=(10, 2))
        y = rng.normal(size=(10, 2)) + 3.0  # far-separated: p pinned at 1/(B+1)
        spec = CalibrationSpec(method="permutation", replications=99, seed=5)
        out = permutation_pvalue([x, y], "min", MAHAL, spec)
        assert out.p_value == pytest.approx(1.0 / 100.0)
        for name in ("product", "sum"):
            out = permutation_pvalue([x, y], name, MAHAL, spec)
            assert 1.0 / 100.0 <= out.p_value <= 1.0

    def test_deterministic_and_batch_consistent(self, rng):
        groups = [rng.normal(size=(8, 2)), rng.normal(size=(9, 2)) + 0.4]
        spec = CalibrationSpec(method="permutation", replications=149, seed=11)
        names = ("min", "product", "dbr")
        batch = {o.statistic_name: o for o in permutation_report(groups, names, MAHAL, spec)}
        for name in names:
            single = permutation_pvalue(groups, name, MAHAL, spec)
            assert single == batch[name]
        again = permutation_pvalue(groups, "min", MAHAL, spec)
        assert again == batch["min"]

    def test_explicit_tail_override(self, rng):
        groups = [rng.normal(size=(8, 2)), rng.normal(size=(8, 2))]
        upper = CalibrationSpec(method="permutation", replications=99, seed=2, tail="upper")
        lower = CalibrationSpec(method="permutation", replications=99, seed=2, tail="lower")
        p_up = permutation_pvalue(groups, "sum", MAHAL, upper).p_value
        p_lo = permutation_pvalue(groups, "sum", MAHAL, lower).p_value
        # the two tails use complementary count conventions
        assert p_up != p_lo

    def test_three_group_permutation(self, rng):
        groups = [rng.normal(size=(7, 2)) for _ in range(3)]
        spec = CalibrationSpec(method="permutation", replications=99, seed=13)
        for name in ("min", "product", "sum", "dbr"):
            out = permutation_pvalue(groups, name, MAHAL, spec)
            assert 0.01 <= out.p_value <= 1.0
            assert out.sizes == (7, 7, 7)

    def test_super_uniformity_under_null(self):
        # P(p <= 0.05) should not exceed 0.05 + 1/(B+1) by more than noise
        reps, b_count = 400, 99
        spec = ScenarioSpec(
            scenario="null", m_grid=(20,), size_rule="equal",
            depth=MAHAL, replications=reps, seed=23,
        )
        hits = 0
        for r in range(reps):
            groups = sample_scenario(spec, 20, r)
            cal = CalibrationSpec(method="permutation", replications=b_count, seed=1000 + r)
            out = permutation_pvalue(groups, "min", MAHAL, cal)
            hits += out.p_value <= 0.05
        bound = 0.05 + 1.0 / (b_count + 1)
        noise = 3.0 * (bound * (1.0 - bound) / reps) ** 0.5
        assert hits / reps <= bound + noise


@pytest.mark.parametrize("k", (2, 3))
@pytest.mark.parametrize(
    "kind",
    (
        DepthKind("mahalanobis"),
        DepthKind("spatial"),
        DepthKind("projection", direction_count=64, direction_seed=5),
    ),
    ids=lambda kind: kind.kind,
)
@settings(derandomize=True, database=None, deadline=None, max_examples=8)
@given(
    d=st.integers(1, 3),
    extra=st.lists(st.integers(0, 5), min_size=3, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_permutation_report_observed_equals_evaluate_statistics(kind, k, d, extra, seed):
    # the observed values of the permutation loop against a one-off
    # evaluation of the same groups
    rng = np.random.default_rng(seed)
    groups = [rng.normal(size=(d + 2 + e, d)) for e in extra[:k]]
    if k == 2:
        names = ("min", "max", "product", "sum", "dbr", "bdbr", "energy")
    else:
        names = ("min", "product", "sum", "dbr")
    spec = CalibrationSpec(method="permutation", replications=1, seed=seed)
    report = permutation_report(groups, names, kind, spec)
    observed = {outcome.statistic_name: outcome.statistic for outcome in report}
    assert observed == evaluate_statistics(groups, names, kind)


@pytest.mark.parametrize("k", (2, 3))
@pytest.mark.parametrize(
    "kind",
    (
        DepthKind("mahalanobis"),
        DepthKind("spatial"),
        DepthKind("projection", direction_count=64, direction_seed=5),
    ),
    ids=lambda kind: kind.kind,
)
@settings(derandomize=True, database=None, deadline=None, max_examples=8)
@given(
    d=st.integers(1, 3),
    extra=st.lists(st.integers(0, 5), min_size=3, max_size=3),
    shared_row=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_permutation_report_equals_looped_replay(kind, k, d, extra, shared_row, seed):
    # replays every permuted partition through a fresh one-partition
    # evaluation of the arranged groups: the same statistics, hence the same
    # exceedance counts and p-values; the depth rows also match the
    # per-group depth_values oracle on the arranged sample
    rng = np.random.default_rng(seed)
    groups = [rng.normal(size=(d + 3 + e, d)) for e in extra[:k]]
    if shared_row:  # one point twice: its two depths must tie exactly
        groups[-1][-1] = groups[0][0]
    if k == 2:
        names = ("min", "max", "product", "sum", "dbr", "bdbr", "energy")
    else:
        names = ("min", "product", "sum", "dbr")
    spec = CalibrationSpec(method="permutation", replications=7, seed=seed)
    report = {o.statistic_name: o for o in permutation_report(groups, names, kind, spec)}

    pooled = np.vstack(groups)
    sizes = [g.shape[0] for g in groups]
    engine = _StatisticEngine(groups, kind, names)
    counts = dict.fromkeys(names, 0)
    for b in range(spec.replications):
        order = substream(spec.seed, TAG_PERMUTATION, b).permutation(pooled.shape[0])
        arranged = pooled[order]
        rows = partition_depth_rows(engine._depths_against, engine.slices, order)
        oracle = arranged_depth_rows(arranged, sizes, lambda q, r: depth_values(q, r, kind))
        # depth_values projects the reference and the query rows by separate
        # matrix products, whose last bit can depend on a row's position
        rtol = 1e-12 if kind.kind == "projection" else 0.0
        assert all(np.allclose(got, want, rtol=rtol, atol=0.0) for got, want in zip(rows, oracle))
        looped = evaluate_statistics(np.split(arranged, np.cumsum(sizes)[:-1]), names, kind)
        assert engine.values(order) == looped
        for name in names:
            observed = report[name].statistic
            if default_tail(name) == "upper":
                counts[name] += looped[name] >= observed
            else:
                counts[name] += looped[name] <= observed
    for name in names:
        assert report[name].p_value == (1.0 + counts[name]) / (spec.replications + 1.0)


class TestMcAsymptotic:
    def test_k2_reduces_to_half_normal(self):
        spec = CalibrationSpec(method="monte_carlo", replications=400_000, seed=4)
        p = mc_asymptotic_min_pvalue(1.96, (200, 200), spec)
        assert p == pytest.approx(half_normal_pvalue(1.96), abs=2.5e-3)

    def test_zero_threshold_gives_one(self):
        spec = CalibrationSpec(method="monte_carlo", replications=1000, seed=4)
        assert mc_asymptotic_min_pvalue(0.0, (30, 30, 30), spec) == 1.0

    def test_monotone_nonincreasing_in_x(self):
        spec = CalibrationSpec(method="monte_carlo", replications=100_000, seed=9)
        ps = [mc_asymptotic_min_pvalue(x, (30, 40, 50), spec) for x in (0.5, 1.0, 1.5, 2.0, 3.0)]
        assert all(a >= b for a, b in zip(ps, ps[1:]))

    def test_deterministic(self):
        spec = CalibrationSpec(method="monte_carlo", replications=50_000, seed=77)
        a = mc_asymptotic_min_pvalue(2.2, (30, 30, 30), spec)
        b = mc_asymptotic_min_pvalue(2.2, (30, 30, 30), spec)
        assert a == b

    def test_domain_errors(self):
        spec = CalibrationSpec(method="monte_carlo", replications=100, seed=0)
        with pytest.raises(DomainError):
            mc_asymptotic_min_pvalue(1.0, (10, -1), spec)
        with pytest.raises(DomainError):
            mc_asymptotic_min_pvalue(float("nan"), (10, 10), spec)
        with pytest.raises(DomainError):
            mc_asymptotic_min_pvalue(1.0, (10,), spec)


class TestCalibrationSpecValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            CalibrationSpec(method="bootstrap", replications=10, seed=0)
        with pytest.raises(ValueError):
            CalibrationSpec(method="permutation", replications=0, seed=0)
        with pytest.raises(ValueError):
            CalibrationSpec(method="permutation", replications=10, seed=0, tail="middle")
