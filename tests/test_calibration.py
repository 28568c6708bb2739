import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

import depthtest.calibration as calibration
from depthtest import (
    CalibrationSpec,
    DepthKind,
    DomainError,
    ScenarioSpec,
    SingularCovariance,
    SizeLimit,
    UnknownStatistic,
    chi2_1_pvalue,
    cramer_univariate,
    depth_values,
    evaluate_statistics,
    half_normal_pvalue,
    mc_asymptotic_min_pvalue,
    pair_coefficients,
    permutation_report,
    quality_matrix,
    sample_scenario,
)
from depthtest.calibration import STATISTICS, _StatisticEngine
from depthtest.cli import main
from depthtest.quality import partition_depth_rows
from depthtest.rng import TAG_PERMUTATION, substream
from oracles import arranged_depth_rows, norm_cdf_quadrature

MAHAL = DepthKind("mahalanobis")


def _single(groups, name, kind, spec):
    """The permutation report of one statistic."""
    return permutation_report(groups, (name,), kind, spec)[0]


class TestClosedFormPvalues:
    def test_half_normal_reference_points(self):
        assert half_normal_pvalue(1.96) == pytest.approx(0.05, abs=2e-4)
        assert half_normal_pvalue(0.0) == 1.0
        assert half_normal_pvalue(2.449490) == pytest.approx(0.01430, abs=2e-4)
        assert half_normal_pvalue(-3.0) == 1.0
        for x in np.linspace(0.0, 8.0, 33):
            assert abs(half_normal_pvalue(x) - 2.0 * (1.0 - norm_cdf_quadrature(x))) < 1e-12
        assert half_normal_pvalue(10.0) > 0.0

    def test_chi2_reference_points(self):
        assert chi2_1_pvalue(3.8415) == pytest.approx(0.05, abs=2e-4)
        assert chi2_1_pvalue(0.0) == 1.0
        for x in (0.0, 0.01, 1.0, 3.8415, 10.0, 30.0):
            assert chi2_1_pvalue(x) == pytest.approx(chi2.sf(x, 1), rel=1e-12, abs=1e-300)
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
        lower = {name for name, statistic in STATISTICS.items() if statistic.tail == "lower"}
        assert lower == {"product", "sum"}
        for name in set(STATISTICS) - lower:
            assert STATISTICS[name].tail == "upper"


class TestEvaluation:
    def test_matches_public_operations(self, any_kind, rng):
        # the engine's one-off values against each table formula on inputs
        # built outside the engine
        x = rng.normal(size=(9, 2))
        y = rng.normal(size=(12, 2))
        values = evaluate_statistics(
            [x, y], ("min", "max", "product", "sum", "dbr", "bdbr", "energy"), any_kind
        )
        qm = quality_matrix([x, y], any_kind)
        for name in ("min", "max", "product", "sum"):
            assert values[name] == STATISTICS[name].formula(qm.q[None], qm.sizes)[0]
        pooled = np.vstack([x, y])
        rows = np.stack([depth_values(pooled, x, any_kind), depth_values(pooled, y, any_kind)])
        for name in ("dbr", "bdbr"):
            assert values[name] == STATISTICS[name].formula(rows[None], qm.sizes)[0]
        assert values["energy"] == STATISTICS["energy"].formula([[x, y]], qm.sizes)[0]

    def test_cramer_evaluation(self, rng):
        x = rng.normal(size=(8, 1))
        y = rng.normal(size=(6, 1))
        assert evaluate_statistics([x, y], ("cramer",), None)["cramer"] == pytest.approx(
            cramer_univariate(x, y), rel=1e-15
        )

    def test_two_group_only_guard(self, rng):
        groups = [rng.normal(size=(5, 2)) for _ in range(3)]
        rejected = set()
        for name in STATISTICS:
            try:
                evaluate_statistics(groups, (name,), MAHAL)
            except UnknownStatistic as exc:
                assert f"statistic {name!r} is only defined for 2 groups" in str(exc)
                rejected.add(name)
        assert rejected == {"max", "bdbr", "energy", "cramer"}

    def test_energy_distance_matrix_over_cap_is_refused(self):
        # 2 x 2,237 pooled rows: N^2 = 20,016,676 exceeds the 20M-element cap
        x = np.zeros((2237, 1))
        with pytest.raises(SizeLimit):
            evaluate_statistics([x, x + 1.0], ("energy",), None)

    def test_repeated_name_rejected(self, rng):
        groups = [rng.normal(size=(8, 2)) for _ in range(2)]
        spec = CalibrationSpec(replications=9, seed=0)
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
        spec = CalibrationSpec(replications=60, seed=3)
        out = _single([x, y], "energy", None, spec)
        assert out.p_value == 1.0
        assert out.method == "permutation"

    def test_pvalue_bounds(self, rng):
        x = rng.normal(size=(10, 2))
        y = rng.normal(size=(10, 2)) + 3.0  # far-separated: p pinned at 1/(B+1)
        spec = CalibrationSpec(replications=99, seed=5)
        out = _single([x, y], "min", MAHAL, spec)
        assert out.p_value == pytest.approx(1.0 / 100.0)
        for name in ("product", "sum"):
            out = _single([x, y], name, MAHAL, spec)
            assert 1.0 / 100.0 <= out.p_value <= 1.0

    def test_deterministic_and_batch_consistent(self, rng):
        groups = [rng.normal(size=(8, 2)), rng.normal(size=(9, 2)) + 0.4]
        spec = CalibrationSpec(replications=149, seed=11)
        names = ("min", "product", "dbr")
        batch = {o.statistic_name: o for o in permutation_report(groups, names, MAHAL, spec)}
        for name in names:
            single = _single(groups, name, MAHAL, spec)
            assert single == batch[name]
        again = _single(groups, "min", MAHAL, spec)
        assert again == batch["min"]

    def test_one_shot_names_iterable(self, rng):
        groups = [rng.normal(size=(8, 2)), rng.normal(size=(9, 2)) + 0.4]
        spec = CalibrationSpec(replications=49, seed=4)
        kind = DepthKind("spatial")
        from_tuple = permutation_report(groups, ("min", "sum"), kind, spec)
        from_generator = permutation_report(groups, (n for n in ["min", "sum"]), kind, spec)
        assert [o.statistic_name for o in from_generator] == ["min", "sum"]
        assert from_generator == from_tuple

    def test_three_group_permutation(self, rng):
        groups = [rng.normal(size=(7, 2)) for _ in range(3)]
        spec = CalibrationSpec(replications=99, seed=13)
        for name in ("min", "product", "sum", "dbr"):
            out = _single(groups, name, MAHAL, spec)
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
            cal = CalibrationSpec(replications=b_count, seed=1000 + r)
            out = _single(groups, "min", MAHAL, cal)
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
    spec = CalibrationSpec(replications=1, seed=seed)
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
    # replays every partition of a (B, N) stack through a fresh
    # one-partition evaluation of the arranged groups: the same statistics,
    # hence the same exceedance counts and p-values; the stacked depth rows
    # also match the per-group depth_values oracle on the arranged sample
    rng = np.random.default_rng(seed)
    groups = [rng.normal(size=(d + 3 + e, d)) for e in extra[:k]]
    if shared_row:  # one point twice: its two depths must tie exactly
        groups[-1][-1] = groups[0][0]
    if k == 2:
        names = ("min", "max", "product", "sum", "dbr", "bdbr", "energy")
    else:
        names = ("min", "product", "sum", "dbr")
    spec = CalibrationSpec(replications=7, seed=seed)
    report = {o.statistic_name: o for o in permutation_report(groups, names, kind, spec)}

    pooled = np.vstack(groups)
    sizes = [g.shape[0] for g in groups]
    engine = _StatisticEngine([groups], kind, names)
    orders = np.stack([
        substream(spec.seed, TAG_PERMUTATION, b).permutation(pooled.shape[0])
        for b in range(spec.replications)
    ])
    own = np.zeros(len(orders), dtype=np.intp)
    stacked_rows = partition_depth_rows(engine._depths_against, engine.slices, orders, own)
    stacked = engine.values(orders)
    counts = dict.fromkeys(names, 0)
    for b, order in enumerate(orders):
        arranged = pooled[order]
        oracle = arranged_depth_rows(arranged, sizes, lambda q, r: depth_values(q, r, kind))
        # depth_values projects the reference and the query rows by separate
        # matrix products, whose last bit can depend on a row's position
        rtol = 1e-12 if kind.kind == "projection" else 0.0
        assert all(
            np.allclose(got, want, rtol=rtol, atol=0.0) for got, want in zip(stacked_rows[b], oracle)
        )
        looped = evaluate_statistics(np.split(arranged, np.cumsum(sizes)[:-1]), names, kind)
        assert {name: values[b] for name, values in stacked.items()} == looped
        for name in names:
            observed = report[name].statistic
            if STATISTICS[name].tail == "upper":
                counts[name] += looped[name] >= observed
            else:
                counts[name] += looped[name] <= observed
    for name in names:
        assert report[name].p_value == (1.0 + counts[name]) / (spec.replications + 1.0)


@pytest.mark.parametrize("k", (2, 3, 5))
@pytest.mark.parametrize(
    "kind",
    (
        DepthKind("mahalanobis"),
        DepthKind("spatial"),
        DepthKind("projection", direction_count=64, direction_seed=5),
    ),
    ids=lambda kind: kind.kind,
)
def test_chunk_size_leaves_report_unchanged(kind, k, monkeypatch):
    # one partition per chunk, two per chunk (the last holding one) and all
    # nine partitions in one chunk give the same statistics and p-values;
    # at k = 5 the sum adds 20 indices, where numpy's pairwise summation
    # departs from a sequential one
    rng = np.random.default_rng(2026 + k)
    groups = [rng.normal(size=(6 + g, 2)) for g in range(k)]
    if k == 2:
        names = ("min", "max", "product", "sum", "dbr", "bdbr", "energy")
    else:
        names = ("min", "product", "sum", "dbr")
    spec = CalibrationSpec(replications=8, seed=11)
    per_partition = _StatisticEngine([groups], kind, names).partition_elements
    stack_sizes = []
    values = _StatisticEngine.values

    def recording(self, orders):
        stack_sizes.append(len(orders))
        return values(self, orders)

    monkeypatch.setattr(_StatisticEngine, "values", recording)
    reports = []
    for budget, chunks in ((1, [1] * 9), (2 * per_partition, [2, 2, 2, 2, 1]), (1 << 40, [9])):
        monkeypatch.setattr(calibration, "_CHUNK_ELEMENTS", budget)
        stack_sizes.clear()
        report = permutation_report(groups, names, kind, spec)
        assert stack_sizes == chunks
        reports.append([(o.statistic_name, o.statistic, o.p_value) for o in report])
    assert reports[0] == reports[1] == reports[2]


def _collinear_triples():
    # groups of 3 in 2-D: six of the nine rows lie on one line, and each
    # observed group holds one row off it, so only a permuted group can be
    # singular
    line = [[t, 2.0 * t] for t in range(6)]
    off = [[0.0, 5.0], [3.0, -1.0], [5.0, 4.0]]
    return [np.array([line[2 * g], line[2 * g + 1], off[g]]) for g in range(3)]


class TestPermutedSingularCovariance:
    NAMES = ("min", "dbr")

    @staticmethod
    def _first_failure(groups, names, spec):
        pooled = np.vstack(groups)
        for b in range(spec.replications):
            order = substream(spec.seed, TAG_PERMUTATION, b).permutation(pooled.shape[0])
            try:
                evaluate_statistics(np.split(pooled[order], len(groups)), names, MAHAL)
            except SingularCovariance as exc:
                return b, str(exc)
        raise AssertionError("no permuted partition is singular")

    # seed 1 first fails in the Cholesky call, seed 3 first on the pivot
    # rule; each has a later failure of the other kind in the same chunk
    @pytest.mark.parametrize("seed, first_kind", ((1, "not positive definite"), (3, "pivot")))
    @pytest.mark.parametrize("budget", (1, None), ids=("one-per-chunk", "default"))
    def test_error_names_first_failing_replication(self, seed, first_kind, budget, monkeypatch):
        groups = _collinear_triples()
        spec = CalibrationSpec(replications=40, seed=seed)
        evaluate_statistics(groups, self.NAMES, MAHAL)  # the observed partition is regular
        b, message = self._first_failure(groups, self.NAMES, spec)
        assert b > 0 and first_kind in message
        if budget is not None:
            monkeypatch.setattr(calibration, "_CHUNK_ELEMENTS", budget)
        with pytest.raises(SingularCovariance) as info:
            permutation_report(groups, self.NAMES, MAHAL, spec)
        assert str(info.value) == f"{message} (permutation replication b={b})"

    def test_cli_exit_code(self, tmp_path, capsys):
        data = tmp_path / "collinear.csv"
        rows = [f"{x!r},{y!r},{label}" for label, group in zip("abc", _collinear_triples())
                for x, y in group.tolist()]
        data.write_text("\n".join(["u,v,grp", *rows]) + "\n")
        code = main(["k-sample", "--input", str(data), "--group", "grp", "--stats", "min,dbr",
                     "--perms", "40", "--seed", "3", "--depth", "mahalanobis"])
        assert code == 1
        assert "(permutation replication b=1)" in capsys.readouterr().err


class TestMcAsymptotic:
    def test_k2_reduces_to_half_normal(self):
        spec = CalibrationSpec(replications=400_000, seed=4)
        p = mc_asymptotic_min_pvalue(1.96, (200, 200), spec)
        assert p == pytest.approx(half_normal_pvalue(1.96), abs=2.5e-3)

    def test_zero_threshold_gives_one(self):
        spec = CalibrationSpec(replications=1000, seed=4)
        assert mc_asymptotic_min_pvalue(0.0, (30, 30, 30), spec) == 1.0

    def test_monotone_nonincreasing_in_x(self):
        spec = CalibrationSpec(replications=100_000, seed=9)
        ps = [mc_asymptotic_min_pvalue(x, (30, 40, 50), spec) for x in (0.5, 1.0, 1.5, 2.0, 3.0)]
        assert all(a >= b for a, b in zip(ps, ps[1:]))

    def test_deterministic(self):
        spec = CalibrationSpec(replications=50_000, seed=77)
        a = mc_asymptotic_min_pvalue(2.2, (30, 30, 30), spec)
        b = mc_asymptotic_min_pvalue(2.2, (30, 30, 30), spec)
        assert a == b

    def test_domain_errors(self):
        spec = CalibrationSpec(replications=100, seed=0)
        with pytest.raises(DomainError):
            mc_asymptotic_min_pvalue(1.0, (10, -1), spec)
        with pytest.raises(DomainError):
            mc_asymptotic_min_pvalue(float("nan"), (10, 10), spec)
        with pytest.raises(DomainError):
            mc_asymptotic_min_pvalue(1.0, (10,), spec)


class TestCalibrationSpecValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            CalibrationSpec(replications=0, seed=0)
