import math
import pickle
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

import depthtest.calibration as calibration
import depthtest.depths as depths
import depthtest.rng
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
    permutation_report,
    quality_matrix,
    sample_scenario,
)
from depthtest.calibration import STATISTICS, _StatisticEngine, _screen_band
from depthtest.cli import main
from depthtest.quality import quality_indices
from depthtest.rng import TAG_PERMUTATION, substream
from oracles import (
    arranged_depth_rows,
    cdist_energy,
    crude_limit_law_pvalue,
    limit_law_inside,
    norm_cdf_quadrature,
)

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


class TestUnitsOfTheData:
    # a change of units by 2^600 or 2^-600 is exact, yet squares of the
    # rescaled values overflow or underflow
    @pytest.mark.parametrize("exponent", (600, -600))
    @pytest.mark.parametrize(
        "k, names",
        ((2, ("min", "max", "product", "sum", "dbr", "bdbr", "energy")),
         (3, ("min", "product", "sum", "dbr"))),
        ids=("k2", "k3"),
    )
    def test_statistics_independent_of_units(self, any_kind, k, names, exponent, rng):
        groups = [rng.normal(size=(9 + 2 * g, 2)) for g in range(k)]
        want = evaluate_statistics(groups, names, any_kind)
        if "energy" in want:
            want["energy"] = np.ldexp(want["energy"], exponent)
        assert evaluate_statistics([np.ldexp(g, exponent) for g in groups], names, any_kind) == want


class TestTails:
    def test_defaults(self):
        lower = {name for name, statistic in STATISTICS.items() if statistic.tail == "lower"}
        assert lower == {"product", "sum"}
        for name in set(STATISTICS) - lower:
            assert STATISTICS[name].tail == "upper"


def test_statistic_table_survives_pickling():
    # a process pool ships the table's formulas to its workers by reference
    assert pickle.loads(pickle.dumps(STATISTICS)) == STATISTICS


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
        _, rank_sums = quality_indices(rows[None], qm.sizes, rank_sums=True)
        assert values["dbr"] == STATISTICS["dbr"].formula(rank_sums, qm.sizes)[0]
        assert values["bdbr"] == STATISTICS["bdbr"].formula(rows[None], qm.sizes)[0]
        assert values["energy"] == STATISTICS["energy"].formula(pooled[None], qm.sizes)[0]

    @pytest.mark.parametrize("names, sums_read", ((("min",), False),
                                                  (("min", "sum", "max", "bdbr"), False),
                                                  (("min", "dbr"), True), (("dbr",), True)))
    def test_rank_sums_only_when_read(self, names, sums_read, monkeypatch, rng):
        # a Q-only run does no rank-sum work
        calls = []

        def spy(rows, sizes, rank_sums=False):
            result = quality_indices(rows, sizes, rank_sums)
            calls.append(result[1] is not None)
            return result

        monkeypatch.setattr(calibration, "quality_indices", spy)
        groups = [rng.normal(size=(8, 2)), rng.normal(size=(7, 2))]
        permutation_report(groups, names, MAHAL, CalibrationSpec(replications=9, seed=3))
        assert calls and set(calls) == {sums_read}

    def test_cramer_evaluation(self, rng):
        x = rng.normal(size=(8, 1))
        y = rng.normal(size=(6, 1))
        assert evaluate_statistics([x, y], ("cramer",), None)["cramer"] == pytest.approx(
            cramer_univariate(x, y), rel=1e-15
        )
        # a stack of partitions gives each partition's own value
        pooled = np.stack([rng.permutation(np.vstack([x, y])) for _ in range(5)])
        assert list(STATISTICS["cramer"].formula(pooled, (8, 6))) == [
            cramer_univariate(rows[:8], rows[8:]) for rows in pooled
        ]

    def test_depth_statistic_without_depth_kind(self, rng):
        groups = [rng.normal(size=(6, 2)), rng.normal(size=(5, 2))]
        with pytest.raises(ValueError, match="statistic 'min' needs a DepthKind"):
            evaluate_statistics(groups, ("min",), None)

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
        # groups of 4,473 and 2 rows: the 4473 x 4473 distance block,
        # 20,007,729 elements, exceeds the 20M-element cap
        x = np.zeros((4473, 1))
        with pytest.raises(SizeLimit, match="energy needs a 4473 x 4473 distance block"):
            evaluate_statistics([x, x[:2] + 1.0], ("energy",), None)

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
    engine = _StatisticEngine(sizes, d, kind, names)
    orders = np.stack([
        substream(spec.seed, TAG_PERMUTATION, b).permutation(pooled.shape[0])
        for b in range(spec.replications)
    ])
    stacked_rows = depths.pooled_depths(pooled[None], engine.kind, orders, engine.slices)
    stacked = engine.values(pooled[None], orders)
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
    per_partition = _StatisticEngine([len(g) for g in groups], 2, kind, names).partition_elements
    stack_sizes = []
    values = _StatisticEngine.values

    def recording(self, samples, orders):
        stack_sizes.append(len(orders))
        return values(self, samples, orders)

    monkeypatch.setattr(_StatisticEngine, "values", recording)
    reports = []
    for budget, chunks in ((1, [1] * 9), (2 * per_partition, [2, 2, 2, 2, 1]), (1 << 40, [9])):
        monkeypatch.setattr(depths, "_CHUNK_ELEMENTS", budget)
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
            monkeypatch.setattr(depths, "_CHUNK_ELEMENTS", budget)
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
        # the weights of a pair satisfy c^2 + c_tilde^2 = 1, so the one pair
        # combination at k = 2 is standard normal whatever the sizes
        spec = CalibrationSpec(replications=400_000, seed=4)
        for sizes in ((200, 200), (30, 170)):
            p = mc_asymptotic_min_pvalue(1.96, sizes, spec)
            assert p == pytest.approx(half_normal_pvalue(1.96), abs=2.5e-3)

    def test_pvalue_independent_of_chunk_budget(self, monkeypatch):
        spec = CalibrationSpec(replications=3000, seed=12)
        sizes = (30, 50, 170)
        default = mc_asymptotic_min_pvalue(2.1, sizes, spec)

        def pvalue(budget):
            monkeypatch.setattr(depths, "_CHUNK_ELEMENTS", budget)
            return mc_asymptotic_min_pvalue(2.1, sizes, spec)

        # k = 3 elements a draw: one draw row per chunk, then seven
        assert pvalue(3) == pvalue(7 * 3) == default
        assert 0.0 < default < 1.0

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
            mc_asymptotic_min_pvalue(1.0, (10, 0), spec)
        with pytest.raises(DomainError):
            mc_asymptotic_min_pvalue(float("nan"), (10, 10), spec)
        with pytest.raises(DomainError):
            mc_asymptotic_min_pvalue(1.0, (10,), spec)

    def test_non_integer_sizes_refused(self):
        # refused, not truncated onto the p-value of other sizes
        spec = CalibrationSpec(replications=100, seed=0)
        for size in (30.9, 0.5, "30", np.float64(30.0)):
            sizes = (size, 30, 30)
            with pytest.raises(TypeError, match=re.escape(f"group sizes {sizes!r} are not all")):
                mc_asymptotic_min_pvalue(2.3, sizes, spec)
        assert mc_asymptotic_min_pvalue(2.3, (np.int64(30), 30, 30), spec) == (
            mc_asymptotic_min_pvalue(2.3, (30, 30, 30), spec)
        )


LIMIT_LAW_SIZES = [
    (30, 30), (30, 170),
    (30, 30, 30), (30, 50, 170),
    (30,) * 5, (10, 20, 30, 40, 300),
    (30,) * 6, (5, 7, 11, 13, 17, 300),
]
LIMIT_LAW_X = (-1.0, 0.0, 1e-12, 1e-8, 0.5, 1.5, 2.3, 3.5, 8.0, 40.0, 1e300)


@pytest.mark.parametrize("sizes", LIMIT_LAW_SIZES, ids=lambda sizes: ",".join(map(str, sizes)))
def test_limit_law_equals_crude_loop(sizes, monkeypatch):
    # the screen decides draws from their uniforms; the count must be the
    # crude loop's exactly, at every x and chunk budget (3 elements a
    # chunk is one draw row; 2^40 is every draw in one chunk)
    for x in LIMIT_LAW_X:
        for budget, draws in ((3, 300), (depths._CHUNK_ELEMENTS, 4001), (1 << 40, 4001)):
            seed = 17 + draws
            monkeypatch.setattr(depths, "_CHUNK_ELEMENTS", budget)
            got = mc_asymptotic_min_pvalue(x, sizes, CalibrationSpec(replications=draws, seed=seed))
            assert got == crude_limit_law_pvalue(x, sizes, seed, draws, draws), (x, budget)


class _FixedUniforms:
    """A stand-in generator whose ``random`` returns given uniforms."""

    def __init__(self, u):
        self.u = u

    def random(self, shape):
        assert shape == self.u.shape
        return self.u.copy()


def _counting_ndtri(monkeypatch):
    """Patch the package's ``ndtri`` to count the values it is called on."""
    seen = []
    real = depthtest.rng.ndtri

    def ndtri(u, **kwargs):
        seen.append(np.size(u))
        return real(u, **kwargs)

    monkeypatch.setattr(depthtest.rng, "ndtri", ndtri)
    return seen


# the smallest t, rounded up, at which the screen runs: erf(t / sqrt 2)^k
# reaches 1/2 at t = 1.05179... for k = 2, and later for larger k
_SCREEN_DOMAIN = 1.0518


class TestLimitLawScreen:
    def test_most_draws_never_reach_ndtri(self, monkeypatch):
        # x = 4, k = 3, equal sizes: |z| <= 4 / sqrt 2 for about 98.6% of
        # the draws
        seen = _counting_ndtri(monkeypatch)
        spec = CalibrationSpec(replications=20_000, seed=5)
        p = mc_asymptotic_min_pvalue(4.0, (30, 30, 30), spec)
        assert sum(seen) < 0.05 * 60_000
        assert p == crude_limit_law_pvalue(4.0, (30, 30, 30), 5, 20_000, 20_000)

    def test_small_x_skips_the_screen(self, monkeypatch):
        # x = 0 has an empty band, x = 1 at k = 3 would screen about 14% of
        # the draws: every uniform goes through ndtri once, in blocks whose
        # last is padded to a power of two of rows, and no band is sought
        def no_band(t):
            raise AssertionError("sought a band")

        monkeypatch.setattr(calibration, "_screen_band", no_band)
        seen = _counting_ndtri(monkeypatch)
        spec = CalibrationSpec(replications=5000, seed=5)
        assert mc_asymptotic_min_pvalue(0.0, (30, 30, 30), spec) == 1.0
        assert 15_000 <= sum(seen) < 15_000 + calibration._BLOCK_ELEMENTS
        seen.clear()
        mc_asymptotic_min_pvalue(1.0, (30, 30, 30), spec)
        assert 15_000 <= sum(seen) < 15_000 + calibration._BLOCK_ELEMENTS
        seen.clear()
        # at k = 2 a negative x has erf(t / sqrt 2)^2 near 1, and still no band
        assert mc_asymptotic_min_pvalue(-3.0, (30, 30), spec) == 1.0
        assert 10_000 <= sum(seen) < 10_000 + calibration._BLOCK_ELEMENTS

    @pytest.mark.parametrize("t", np.geomspace(1e-12, 40.0, 61))
    def test_band_is_sound_and_found_in_one_call(self, t, monkeypatch):
        # below the screen's domain the closed form may round itself out of
        # a band
        seen = _counting_ndtri(monkeypatch)
        band = _screen_band(t)
        assert seen == [2]
        if band is None:
            assert t < _SCREEN_DOMAIN
            return
        lo, hi = band
        assert 0.0 < lo <= 0.5 <= hi < 1.0
        inside = np.concatenate(([lo, hi], np.random.default_rng(0).uniform(lo, hi, 10_000)))
        assert np.abs(depthtest.rng.normals_from_uniforms(inside)).max() <= t
        # and not needlessly narrow: it holds the normal mass of [-t, t]
        assert hi - lo >= math.erf(t / math.sqrt(2.0)) * (1.0 - 1e-3)

    def test_band_found_across_the_screens_domain(self):
        # a band that turned None would switch the screen off, which costs
        # time but no count
        for t in np.geomspace(_SCREEN_DOMAIN, 1e6, 2001):
            assert _screen_band(t) is not None, t

    def test_uniforms_at_and_past_the_band_edges(self, monkeypatch):
        # rows on the band's edges, one ulp outside them, at 0 and at 0.5;
        # rows whose first two normals straddle the pair check's own edge
        # sqrt(2) z = x, where a band a hair too wide would count rows the
        # check rejects; and ordinary rows
        x, sizes = 2.3, (30, 30, 30)
        lo, hi = _screen_band(x * (1.0 - 1e-9) / math.sqrt(2.0))
        edges = [lo, hi, np.nextafter(lo, 0.0), np.nextafter(hi, 1.0), 0.0, 0.5]
        crossing = np.float64(0.5 * math.erfc(-x / 2.0)).view(np.int64) + np.arange(-1000, 1000)
        straddle = np.repeat(crossing.view(np.float64)[:, None], 3, axis=1)
        straddle[:, 2] = 0.5
        assert 0 < limit_law_inside(straddle, x, sizes) < len(straddle)
        rng = np.random.default_rng(3)
        u = np.concatenate((rng.choice(edges, size=(600, 3)), straddle, rng.random((400, 3))))
        monkeypatch.setattr(calibration, "substream", lambda *key: _FixedUniforms(u))
        p = mc_asymptotic_min_pvalue(x, sizes, CalibrationSpec(replications=len(u), seed=0))
        assert p == 1.0 - limit_law_inside(u, x, sizes) / len(u)


class TestCalibrationSpecValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            CalibrationSpec(replications=0, seed=0)


@pytest.mark.parametrize("budget", (1, None, 1 << 40), ids=("one", "default", "all"))
@pytest.mark.parametrize("sizes, dim", (((9, 12), 2), ((30, 30), 10), ((300, 7), 3)))
def test_permuted_energy_equals_cdist_reference(sizes, dim, budget, monkeypatch, rng):
    # every chunk's stacked energy values against each partition's own cdist
    # blocks; at (300, 7) the default budget holds one partition per chunk
    groups = [rng.normal(size=(size, dim)) * (1.0 + g) for g, size in enumerate(sizes)]
    if budget is not None:
        monkeypatch.setattr(depths, "_CHUNK_ELEMENTS", budget)
    stacks = []
    values = _StatisticEngine.values

    def recording(self, samples, orders):
        out = values(self, samples, orders)
        stacks.append((orders, out["energy"]))
        return out

    monkeypatch.setattr(_StatisticEngine, "values", recording)
    spec = CalibrationSpec(replications=11, seed=5)
    report = _single(groups, "energy", None, spec)
    pooled, m = np.vstack(groups), sizes[0]
    for orders, got in stacks:
        assert np.array_equal(got, [cdist_energy(pooled[o[:m]], pooled[o[m:]]) for o in orders])
    assert sum(len(orders) for orders, _ in stacks) == spec.replications + 1
    assert len(stacks) == {1: 12, None: 12 if sizes == (300, 7) else 1, 1 << 40: 1}[budget]
    assert report.statistic == stacks[0][1][0]


def test_energy_chunk_counts_the_pooled_gather(rng):
    # at 5 + 5 rows in d = 50 the (N, d) gather and its (d, N) copy outweigh
    # the 5 x 5 distance blocks; counting only the blocks put 5,242
    # partitions in a chunk and took 60 MiB
    groups = [rng.normal(size=(5, 50)), rng.normal(size=(5, 50))]
    tracemalloc.start()
    try:
        _single(groups, "energy", None, CalibrationSpec(replications=9999, seed=3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 8 * depths._CHUNK_ELEMENTS


def test_engine_holds_no_depth_geometry_between_calls(rng):
    # N = 1000, D = 500: a projection scores buffer kept between calls
    # would alone hold 4 MB after the values are returned
    groups = [rng.normal(size=(500, 10)), rng.normal(size=(500, 10))]
    tracemalloc.start()
    try:
        engine = _StatisticEngine((500, 500), 10, DepthKind("projection"), ("min",))
        engine.values(np.vstack(groups)[None], np.arange(engine.total)[None])
        current = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert current < 1000 * 500 * 8
    assert not any(callable(value) for value in vars(engine).values())
    assert not any(isinstance(value, np.ndarray) for value in vars(engine).values())
