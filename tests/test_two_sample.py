import numpy as np
import pytest
from scipy.stats import f as f_dist

from depthtest import (
    DepthKind,
    DimensionMismatch,
    DomainError,
    QualityMatrix,
    SingularScatter,
    SizeLimit,
    UnknownStatistic,
    cramer_univariate,
    evaluate_statistics,
    manova,
)
from depthtest.calibration import STATISTICS, _StatisticEngine
from depthtest.depths import depth_values
from depthtest.quality import quality_indices
from depthtest.two_sample import MANOVA_KINDS

from oracles import (
    brute_bdbr,
    brute_cramer,
    brute_dbr,
    brute_depth_ranks,
    brute_energy,
    cdist_energy,
    exact_manova_eigenvalue,
    f_sf_oracle,
)

MAHAL = DepthKind("mahalanobis")

# Fixed fixtures; expected values frozen from the pure-Python rank oracles.
X5 = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0, 1.0], [1.0, 2.0]])
Y5 = np.array([[3.0, 3.0], [2.0, 2.0], [3.0, 1.0], [1.0, 3.0], [2.0, 3.0]])
DBR_GOLDEN = 8.378181818181815

X6 = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 0.0], [0.0, 2.0]])
Y6 = np.array([[2.0, 2.0], [3.0, 2.0], [2.0, 3.0], [3.0, 3.0], [4.0, 2.0], [2.0, 4.0]])
BDBR_GOLDEN = 6.861538461538465


def _pair(q_fg, q_gf, m, n):
    """The k = 2 quality matrix with Q(F_m, G_n) = q_fg and Q(G_n, F_m) = q_gf."""
    return QualityMatrix(q=np.array([[np.nan, q_fg], [q_gf, np.nan]]), sizes=(m, n))


def _formula(name, qm):
    """The statistic table's formula for ``name`` on one quality matrix."""
    return STATISTICS[name].formula(qm.q[None], qm.sizes)[0]


def _statistic(name, x, y, kind=None):
    """One-off value of a table statistic on two groups."""
    return evaluate_statistics([x, y], (name,), kind)[name]


class TestQualityPairStatistics:
    def test_max_arithmetic(self):
        pair = _pair(q_fg=0.4, q_gf=0.58, m=100, n=100)
        assert _formula("max", pair) == pytest.approx(6.0, rel=1e-12)

    def test_min_arithmetic(self):
        pair = _pair(q_fg=0.4, q_gf=0.58, m=100, n=100)
        assert _formula("min", pair) == pytest.approx(600.0**0.5 * 0.1, rel=1e-12)

    def test_null_center_zeroes(self):
        pair = _pair(q_fg=0.5, q_gf=0.5, m=50, n=70)
        assert _formula("max", pair) == 0.0
        assert _formula("min", pair) == 0.0
        assert _formula("product", pair) == 0.25
        assert _formula("sum", pair) == 1.0

    def test_product_annihilator_and_sum(self):
        assert _formula("product", _pair(0.0, 0.7, 5, 5)) == 0.0
        assert _formula("sum", _pair(0.4, 0.58, 5, 5)) == pytest.approx(0.98)
        assert _formula("sum", _pair(0.0, 0.0, 5, 5)) == 0.0

    def test_zero_iff_centered(self, rng):
        for _ in range(50):
            q_fg, q_gf = rng.uniform(0, 1, size=2)
            pair = _pair(q_fg, q_gf, 30, 40)
            assert _formula("max", pair) >= 0.0
            if _formula("max", pair) == 0.0:
                assert q_fg == 0.5 and q_gf == 0.5
            if _formula("min", pair) == 0.0:
                assert min(q_fg, q_gf) == 0.5

    def test_am_gm_inequality(self, rng):
        for _ in range(100):
            pair = _pair(*rng.uniform(0, 1, size=2), m=10, n=10)
            assert _formula("product", pair) <= (_formula("sum", pair) / 2.0) ** 2 + 1e-15

    def test_label_exchange(self, rng):
        q_fg, q_gf = rng.uniform(0, 1, size=2)
        a = _pair(q_fg, q_gf, 30, 50)
        b = _pair(q_gf, q_fg, 50, 30)
        assert _formula("max", a) == _formula("max", b)
        assert _formula("min", a) == _formula("min", b)
        assert _formula("product", a) == _formula("product", b)
        assert _formula("sum", a) == _formula("sum", b)


class TestDepthRank:
    def test_rank_definition_on_tied_depths(self):
        sample = np.array([[0.0], [1.0], [2.0]])
        row = depth_values(np.vstack([sample, sample]), sample, MAHAL)
        # depths (0.5, 1.0, 0.5) twice: the two deepest points share rank 2,
        # the four tied outer points count each other -> rank 6
        assert brute_depth_ranks(list(row)) == [6, 2, 6, 6, 2, 6]
        assert _statistic("dbr", sample, sample, MAHAL) == brute_dbr([row, row], [3, 3])

    def test_golden_fixture(self):
        assert _statistic("dbr", X5, Y5, MAHAL) == pytest.approx(DBR_GOLDEN, rel=1e-12)

    def test_label_exchange_symmetry(self, rng):
        x = rng.normal(size=(7, 2))
        y = rng.normal(size=(9, 2))
        assert _statistic("dbr", x, y, MAHAL) == pytest.approx(
            _statistic("dbr", y, x, MAHAL), rel=1e-12
        )

    def test_identical_groups_symmetric(self, rng):
        x = rng.normal(size=(6, 2))
        assert _statistic("dbr", x, x, MAHAL) == pytest.approx(
            _statistic("dbr", x, x, MAHAL), rel=1e-15
        )

    def test_matches_brute_oracle(self, any_kind, rng):
        for _ in range(15):
            n1, n2 = int(rng.integers(3, 9)), int(rng.integers(3, 9))
            d = int(rng.integers(1, 3))
            x, y = rng.normal(size=(n1, d)), rng.normal(size=(n2, d))
            pooled = np.vstack([x, y])
            rows = [depth_values(pooled, x, any_kind), depth_values(pooled, y, any_kind)]
            assert _statistic("dbr", x, y, any_kind) == pytest.approx(
                brute_dbr(rows, [n1, n2]), rel=1e-12
            )
        # stacks of tie-heavy integer depth rows, with -0.0 tying 0.0
        for sizes in ((4, 6), (5, 3, 4)):
            k, n = len(sizes), sum(sizes)
            for values in ([0.0, 1.0, 2.0], [-0.0, 0.0, 1.0]):
                rows = rng.choice(values, size=(4, k, n))
                _, rank_sums = quality_indices(rows, sizes, rank_sums=True)
                got = STATISTICS["dbr"].formula(rank_sums, sizes)
                assert list(got) == pytest.approx(
                    [brute_dbr(stack, sizes) for stack in rows], rel=1e-12
                )


class TestModifiedRank:
    def test_moment_formulas(self):
        # N=5, n=2: E(R_(1)) = 6/3 = 2, Var(R_(1)) = (1/3)(2/3)(3*6/4) = 1
        n, m = 2, 3
        total = n + m
        i = 1
        expect = (total + 1.0) * i / (n + 1.0)
        var = (i / (n + 1.0)) * (1.0 - i / (n + 1.0)) * m * (total + 1.0) / (n + 2.0)
        assert expect == pytest.approx(2.0)
        assert var == pytest.approx(1.0)
        # multivariate moment: N=60, n2=30, j=30 -> 61*30/31
        assert (60 + 1.0) * 30 / (30 + 1.0) == pytest.approx(59.032, abs=1e-3)

    def test_multivariate_golden_fixture(self):
        assert _statistic("bdbr", X6, Y6, MAHAL) == pytest.approx(BDBR_GOLDEN, rel=1e-12)

    def test_swap_symmetry(self, rng):
        x = rng.normal(size=(6, 2))
        y = rng.normal(size=(8, 2))
        assert _statistic("bdbr", x, y, MAHAL) == pytest.approx(
            _statistic("bdbr", y, x, MAHAL), rel=1e-12
        )

    def test_matches_brute_oracle(self, any_kind, rng):
        for _ in range(15):
            n1, n2 = int(rng.integers(3, 9)), int(rng.integers(3, 9))
            d = int(rng.integers(1, 3))
            x, y = rng.normal(size=(n1, d)), rng.normal(size=(n2, d))
            pooled = np.vstack([x, y])
            rows = [depth_values(pooled, x, any_kind), depth_values(pooled, y, any_kind)]
            assert _statistic("bdbr", x, y, any_kind) == pytest.approx(
                brute_bdbr(rows[0], rows[1], n1, n2), rel=1e-12
            )


class TestAffineInvariance:
    def test_depth_statistics_invariant_under_affine_maps(self, rng):
        x = rng.normal(size=(12, 3))
        y = rng.normal(size=(15, 3)) * 1.5
        amat = rng.normal(size=(3, 3)) + 3.0 * np.eye(3)
        shift = rng.normal(size=3)
        xa, ya = x @ amat.T + shift, y @ amat.T + shift
        from depthtest import quality

        base, mapped = quality(x, y, MAHAL), quality(xa, ya, MAHAL)
        assert base.q_fg == pytest.approx(mapped.q_fg, abs=1e-12)
        assert base.q_gf == pytest.approx(mapped.q_gf, abs=1e-12)
        assert _statistic("dbr", x, y, MAHAL) == pytest.approx(
            _statistic("dbr", xa, ya, MAHAL), rel=1e-9
        )
        assert _statistic("bdbr", x, y, MAHAL) == pytest.approx(
            _statistic("bdbr", xa, ya, MAHAL), rel=1e-9
        )


class TestManova:
    def test_unit_eigenvalue_construction(self):
        # groups {-1, 1} and {1, 3}: S_W = 4, S_B = 4, single eigenvalue 1
        x = np.array([[-1.0], [1.0]])
        y = np.array([[1.0], [3.0]])
        wilks = manova(x, y, "wilks")
        hotelling = manova(x, y, "hotelling")
        pillai = manova(x, y, "pillai")
        assert wilks.statistic == pytest.approx(0.5, rel=1e-12)
        assert hotelling.statistic == pytest.approx(1.0, rel=1e-12)
        assert pillai.statistic == pytest.approx(0.5, rel=1e-12)
        # one eigenvalue gives all three statistics one F value
        assert wilks.p_value == hotelling.p_value == pillai.p_value

    def test_identical_groups_zero_between_scatter(self, rng):
        x = rng.normal(size=(10, 2))
        for which, stat in (("wilks", 1.0), ("hotelling", 0.0), ("pillai", 0.0)):
            out = manova(x, x, which)
            assert out.statistic == pytest.approx(stat, abs=1e-10)
            assert out.p_value == pytest.approx(1.0, abs=1e-10)

    def test_eigenvalues_nonnegative_floor(self, rng):
        for _ in range(10):
            x = rng.normal(size=(12, 3))
            y = rng.normal(size=(14, 3)) + 0.3
            wilks, hotelling, pillai = (manova(x, y, which) for which in MANOVA_KINDS)
            lam = hotelling.statistic
            assert lam >= 0.0
            assert wilks.statistic == 1.0 / (1.0 + lam)
            assert pillai.statistic == lam / (1.0 + lam)
            assert wilks.p_value == hotelling.p_value == pillai.p_value

    def test_near_collinear_against_exact_eigenvalue(self):
        # column 2 is column 0 plus 1e-6 noise in both groups: the within
        # scatter's last Cholesky pivot is 1.3e-12 of its largest diagonal
        # entry, just above the 1e-12 at which it is refused
        rng = np.random.default_rng(1)
        x = rng.normal(size=(20, 3))
        y = rng.normal(size=(20, 3)) + 0.5
        x[:, 2] = x[:, 0] + 1e-6 * rng.normal(size=20)
        y[:, 2] = y[:, 0] + 1e-6 * rng.normal(size=20)
        lam = exact_manova_eigenvalue(x, y)
        p_value = f_sf_oracle(float(lam * 36 / 3), 3, 36)
        for which, stat in (("wilks", 1 / (1 + lam)), ("hotelling", lam),
                            ("pillai", lam / (1 + lam))):
            out = manova(x, y, which)
            assert out.statistic == pytest.approx(float(stat), rel=1e-6)
            assert out.p_value == pytest.approx(p_value, rel=1e-6)

    def test_pvalue_against_incomplete_beta_oracle(self, rng):
        for _ in range(10):
            x = rng.normal(size=(15, 3))
            y = rng.normal(size=(12, 3)) + 0.4
            out = manova(x, y, "hotelling")
            df2 = 15 + 12 - 3 - 1
            f_value = df2 / 3 * out.statistic
            assert out.p_value == pytest.approx(f_sf_oracle(f_value, 3, df2), rel=1e-9)
            assert out.p_value == pytest.approx(float(f_dist.sf(f_value, 3, df2)), rel=1e-9)

    @pytest.mark.parametrize("exponent", (600, -600))
    def test_statistics_independent_of_units(self, exponent, rng):
        x = rng.normal(size=(15, 3))
        y = rng.normal(size=(12, 3)) + 0.4
        for which in ("wilks", "hotelling", "pillai"):
            want = manova(x, y, which)
            got = manova(np.ldexp(x, exponent), np.ldexp(y, exponent), which)
            assert (got.statistic, got.p_value) == (want.statistic, want.p_value)

    def test_singular_scatter(self):
        x = np.ones((5, 2))
        x[:, 1] = np.arange(5)
        with pytest.raises(SingularScatter):
            manova(x, x + 1.0, "wilks")

    def test_too_few_observations(self):
        with pytest.raises(SingularScatter):
            manova(np.zeros((1, 2)), np.ones((2, 2)), "wilks")

    def test_unknown_kind(self):
        with pytest.raises(UnknownStatistic):
            manova(np.zeros((4, 1)), np.ones((4, 1)), "roy")


class TestCramer:
    def test_identical_multisets_zero(self, rng):
        x = rng.normal(size=(8, 1))
        assert cramer_univariate(x, x) == 0.0

    def test_two_singletons(self):
        # pooled jump points 0 and 1 with mass 1/2 each; the gap is 1 at the
        # first and 0 at the second -> T = (1/2) * (1/2)
        assert cramer_univariate([0.0], [1.0]) == pytest.approx(0.25, rel=1e-15)

    def test_nonnegative(self, rng):
        for _ in range(20):
            x = rng.normal(size=(int(rng.integers(2, 12)), 1))
            y = rng.normal(size=(int(rng.integers(2, 12)), 1))
            assert cramer_univariate(x, y) >= 0.0

    def test_matches_brute_oracle(self, rng):
        for _ in range(20):
            x = rng.normal(size=(int(rng.integers(2, 10)), 1))
            y = rng.normal(size=(int(rng.integers(2, 10)), 1))
            assert cramer_univariate(x, y) == pytest.approx(brute_cramer(x, y), rel=1e-12)

    def test_requires_univariate(self):
        with pytest.raises(DimensionMismatch):
            cramer_univariate(np.zeros((3, 2)), np.ones((3, 2)))


class TestEnergy:
    def test_identical_sets_zero(self, rng):
        x = rng.normal(size=(7, 3))
        assert _statistic("energy", x, x) == pytest.approx(0.0, abs=1e-12)

    def test_two_singletons(self):
        assert _statistic("energy", [[0.0]], [[1.0]]) == pytest.approx(1.0, rel=1e-15)

    def test_matches_brute_oracle(self, rng):
        for _ in range(15):
            x = rng.normal(size=(int(rng.integers(2, 9)), 2))
            y = rng.normal(size=(int(rng.integers(2, 9)), 2))
            assert _statistic("energy", x, y) == pytest.approx(brute_energy(x, y), rel=1e-12)

    def test_distance_matrix_over_cap_is_refused(self):
        # groups of 4,473 and 2 rows: the 4473 x 4473 distance block,
        # 20,007,729 elements, exceeds the 20M-element cap
        x = np.zeros((4473, 1))
        with pytest.raises(SizeLimit, match="energy needs a 4473 x 4473 distance block"):
            _statistic("energy", x, x[:2] + 1.0)

    @pytest.mark.parametrize("sizes, dim", (((13, 9), 3), ((30, 30), 10), ((300, 7), 4), ((7, 300), 2)))
    def test_stack_equals_cdist_per_partition(self, sizes, dim, rng):
        # S = 4 data sets in one stack, each rescaled by its own power of
        # two, under P = 8 orders, the identity first: 32 values, sample-major
        datasets = [
            [scale * rng.normal(size=(size, dim)) for size in sizes]
            for scale in (1e-250, 1.0, 3.5, 1e250)
        ]
        datasets[1][1][0] = datasets[1][0][0]
        n, m = sum(sizes), sizes[0]
        orders = np.vstack([np.arange(n), [rng.permutation(n) for _ in range(7)]])
        pooled = [np.vstack(groups) for groups in datasets]
        engine = _StatisticEngine(sizes, dim, None, ("energy",))
        got = engine.values(np.stack(pooled), orders)["energy"]
        want = [cdist_energy(sample[o[:m]], sample[o[m:]]) for sample in pooled for o in orders]
        assert len(got) == 32 and np.array_equal(got, want)

    def test_value_past_float64_range_is_domain_error(self, rng):
        x = rng.uniform(-1.0, 1.0, size=(20, 2)) * 0.85e308
        y = rng.uniform(-1.0, 1.0, size=(20, 2)) * 0.85e308 + 0.8e308
        with pytest.raises(DomainError, match=r"energy statistic .* exceeds the float64 range"):
            _statistic("energy", x, y)
