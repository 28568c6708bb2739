import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depthtest import (
    DegenerateSample,
    DepthKind,
    DimensionMismatch,
    SingularCovariance,
    SingularScatter,
    depth_values,
    depths,
    manova,
)
from depthtest.depths import pooled_depths
from depthtest.quality import partition_depth_rows
from depthtest.samples import group_slices
from oracles import spatial_depth_brute

MAHAL = DepthKind("mahalanobis")
SPATIAL = DepthKind("spatial")
PROJ = DepthKind("projection", direction_count=128, direction_seed=7)


class TestHandValues:
    def test_mean_point_has_full_mahalanobis_depth(self, rng):
        ref = rng.normal(size=(40, 3))
        out = depth_values(ref.mean(axis=0, keepdims=True), ref, MAHAL)
        assert out[0] == pytest.approx(1.0, abs=1e-12)
        assert out.shape == (1,)

    def test_univariate_hand_computation(self):
        # reference {0,1,2}: mean 1, sample variance 1 -> depth(0.9) = 1/1.01
        out = depth_values([[0.9]], [[0.0], [1.0], [2.0]], MAHAL)
        assert out[0] == pytest.approx(1.0 / 1.01, abs=1e-15)

    def test_far_point_vanishes_for_all_kinds(self, any_kind, rng):
        ref = rng.normal(size=(60, 2))
        far = np.array([[1e9, 1e9]])
        assert depth_values(far, ref, any_kind)[0] < 1e-6

    def test_spatial_symmetric_cross_center(self):
        ref = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        assert depth_values([[0.0, 0.0]], ref, SPATIAL)[0] == pytest.approx(1.0, abs=1e-15)


class TestSpatialKernel:
    @pytest.mark.parametrize("offset", (0.0, 1e6))
    @pytest.mark.parametrize("d", (1, 2, 4))
    def test_matches_brute_oracle(self, d, offset, rng):
        ref = offset + rng.normal(size=(23, d))
        ref[5] = ref[0]
        ref[17] = ref[0]
        query = np.vstack([ref[:4], ref[0], offset + 2.0 * rng.normal(size=(9, d))])
        got = depth_values(query, ref, SPATIAL)
        assert np.max(np.abs(got - spatial_depth_brute(query, ref))) <= 1e-12

    @pytest.mark.parametrize("d", (2, 3, 9, 10))
    def test_duplicate_query_rows_tie_exactly(self, d, rng):
        # 513 query rows: two full blocks of 256, then a block of one row
        ref = rng.normal(size=(300, d))
        query = rng.normal(size=(513, d))
        positions = [0, 1, 255, 256, 300, 511, 512]
        query[positions] = query[0]
        got = depth_values(query, ref, SPATIAL)
        assert len({got[i] for i in positions}) == 1
        # and a row alone gets the bits it gets among the others
        for i in (0, 77, 512):
            assert depth_values(query[i : i + 1], ref, SPATIAL)[0] == got[i]

    def test_univariate_depth_is_count_difference(self, rng):
        ref = rng.integers(-2, 6, size=(37, 1)).astype(float)
        query = np.arange(-3.0, 7.0, 0.5).reshape(-1, 1)
        got = depth_values(query, ref, SPATIAL)
        m = ref.shape[0]
        for x, depth in zip(query[:, 0], got):
            below = int(np.sum(ref[:, 0] < x))
            above = int(np.sum(ref[:, 0] > x))
            assert depth == 1.0 - abs(below - above) / m


def _partition_rows(pooled, sizes, kind, order):
    against, own = pooled_depths(pooled[None], kind), np.zeros(1, dtype=np.intp)
    return partition_depth_rows(against, group_slices(sizes), order[None], own)[0]


class TestPooledDepths:
    @pytest.mark.parametrize("kind", (MAHAL, SPATIAL, DepthKind("projection", 500, 3)),
                             ids=lambda kind: kind.kind)
    @pytest.mark.parametrize("d", (2, 4, 10))
    def test_duplicated_row_ties_in_every_depth_row(self, kind, d, rng):
        # N = 301 over three groups; one point sits in every group, at the
        # start, the middle and the end of the pooled sample
        sizes = [100, 120, 81]
        pooled = rng.normal(size=(sum(sizes), d))
        positions = [0, 57, 99, 100, 150, 219, 220, 255, 256, 300]
        pooled[positions] = pooled[3]
        positions.append(3)
        permuted = rng.permutation(pooled.shape[0])
        for order in (np.arange(pooled.shape[0]), permuted):
            where = np.flatnonzero(np.isin(order, positions))
            for row in _partition_rows(pooled, sizes, kind, order):
                assert len(set(row[where])) == 1

    def test_projection_rows_ignore_order_within_groups(self, skulls, rng):
        # an order that only shuffles rows inside their groups is the observed
        # partition again, and must give the observed depths bit for bit
        groups = [skulls.groups[label] for label in ("c4000BC", "c3300BC", "c1850BC")]
        pooled, sizes = np.vstack(groups), [len(g) for g in groups]
        identity = np.arange(pooled.shape[0])
        for seed in range(10):
            kind = DepthKind("projection", 500, seed)
            observed = _partition_rows(pooled, sizes, kind, identity)
            for _ in range(2):
                shuffled = np.concatenate(
                    [rng.permutation(identity[sl]) for sl in group_slices(sizes)]
                )
                got = _partition_rows(pooled, sizes, kind, shuffled)
                assert all(np.array_equal(o[shuffled], g) for o, g in zip(observed, got))

    @pytest.mark.parametrize("d", (1, 2, 4))
    def test_spatial_over_cap_matches_cached_rows(self, d, rng, monkeypatch):
        sizes = [130, 140]
        pooled = rng.integers(-3, 4, size=(sum(sizes), d)).astype(float)
        orders = (np.arange(pooled.shape[0]), rng.permutation(pooled.shape[0]))
        cached = [_partition_rows(pooled, sizes, SPATIAL, order) for order in orders]
        monkeypatch.setattr(depths, "_CACHE_ELEMENT_CAP", 0)
        for order, want in zip(orders, cached):
            got = _partition_rows(pooled, sizes, SPATIAL, order)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))


def _with_exact_zeros(matrix, rng, share=0.1):
    # ties: a tenth of the entries become exact zeros, half of them -0.0
    hit = rng.random(matrix.shape) < share
    matrix[hit] = np.where(rng.random(int(hit.sum())) < 0.5, 0.0, -0.0)
    return matrix


def _outlyingness_reference(ref_proj, query_proj):
    # one query row at a time, from np.median
    med = np.median(ref_proj, axis=0)
    mad = np.median(np.abs(ref_proj - med), axis=0)
    usable = mad > 0.0
    out = np.empty(query_proj.shape[0])
    for i, row in enumerate(query_proj):
        dev = np.abs(row - med)
        escaped = bool((dev[~usable] > 0.0).any())
        out[i] = np.inf if escaped else (dev[usable] / mad[usable]).max()
    return out


class TestProjectionMedians:
    # from about 500 rows up, the row just above a single-kth selection is
    # often not the lower middle, so the max over the lower part is needed
    @pytest.mark.parametrize("m", (2, 3, 4, 5, 29, 30, 31, 100, 500))
    def test_column_medians_equal_numpy_median(self, m, rng):
        for _ in range(5):
            plain = rng.normal(size=(m, 500))
            zeros = _with_exact_zeros(rng.normal(size=(m, 500)), rng)
            ties = rng.integers(-2, 3, size=(m, 500)).astype(float)
            for matrix in (plain, zeros, ties):
                want = np.median(matrix, axis=0)
                assert np.array_equal(depths._column_medians(matrix), want)

    @pytest.mark.parametrize("m", (4, 5, 30, 31))
    def test_outlyingness_matches_median_reference(self, m, rng):
        ref_proj = _with_exact_zeros(rng.normal(size=(m, 40)), rng)
        query_proj = np.vstack([ref_proj, 3.0 * rng.normal(size=(12, 40))])
        got = depths.projection_outlyingness(ref_proj, query_proj)
        assert np.all(np.isfinite(got))
        assert np.array_equal(got, _outlyingness_reference(ref_proj, query_proj))

    @pytest.mark.parametrize("m", (6, 7, 30, 31))
    def test_zero_mad_directions_escape_or_sit(self, m, rng):
        # columns 0, 3 and 5 hold one value in over half their rows: zero MAD
        ref_proj = rng.normal(size=(m, 8))
        flat = {0: 1.5, 3: 0.0, 5: -2.0}
        for col, value in flat.items():
            ref_proj[: m // 2 + 1, col] = value
        query_proj = 2.0 * rng.normal(size=(9, 8))
        sits = [0, 4, 8]
        for col, value in flat.items():
            query_proj[sits, col] = value
        query_proj[4, 3] = -0.0
        query_proj[8, 5] = np.nextafter(-2.0, 0.0)  # one ULP off escapes
        got = depths.projection_outlyingness(ref_proj, query_proj)
        want = _outlyingness_reference(ref_proj, query_proj)
        assert np.array_equal(got, want)
        assert np.isinf(got[8]) and np.all(np.isfinite(got[[0, 4]]))
        assert np.all(np.isinf(np.delete(got, sits)))

    def test_cached_directions_are_read_only(self):
        dirs = depths._directions(11, 16, 3)
        with pytest.raises(ValueError):
            dirs[0, 0] = 0.0
        with pytest.raises(ValueError):
            dirs *= 2.0
        assert depths._directions(11, 16, 3) is dirs


class TestRangeAndDeterminism:
    def test_values_in_unit_interval(self, any_kind, rng):
        for _ in range(20):
            d = int(rng.integers(1, 4))
            ref = rng.normal(size=(int(rng.integers(5, 30)), d))
            query = rng.normal(size=(int(rng.integers(1, 20)), d)) * 3
            vals = depth_values(query, ref, any_kind)
            assert vals.shape == (query.shape[0],)
            assert np.all(vals >= 0.0) and np.all(vals <= 1.0)

    def test_projection_deterministic_given_seed(self, rng):
        ref = rng.normal(size=(25, 3))
        query = rng.normal(size=(10, 3))
        a = depth_values(query, ref, PROJ)
        b = depth_values(query, ref, DepthKind("projection", direction_count=128, direction_seed=7))
        c = depth_values(query, ref, DepthKind("projection", direction_count=128, direction_seed=8))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestInvariance:
    def test_mahalanobis_affine_equivariance(self, rng):
        for _ in range(10):
            ref = rng.normal(size=(30, 3))
            query = rng.normal(size=(8, 3))
            amat = rng.normal(size=(3, 3)) + 3.0 * np.eye(3)
            shift = rng.normal(size=3)
            base = depth_values(query, ref, MAHAL)
            mapped = depth_values(query @ amat.T + shift, ref @ amat.T + shift, MAHAL)
            assert np.allclose(base, mapped, rtol=1e-9)

    def test_spatial_similarity_invariance(self, rng):
        for _ in range(10):
            ref = rng.normal(size=(30, 3))
            query = rng.normal(size=(8, 3))
            qmat, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            scale = float(rng.uniform(0.5, 3.0))
            shift = rng.normal(size=3)
            base = depth_values(query, ref, SPATIAL)
            mapped = depth_values(
                scale * query @ qmat.T + shift, scale * ref @ qmat.T + shift, SPATIAL
            )
            assert np.allclose(base, mapped, rtol=1e-9, atol=1e-12)

    def test_projection_translation_invariance(self, rng):
        for _ in range(10):
            ref = rng.normal(size=(30, 2))
            query = rng.normal(size=(8, 2))
            shift = rng.normal(size=2) * 5
            base = depth_values(query, ref, PROJ)
            mapped = depth_values(query + shift, ref + shift, PROJ)
            assert np.allclose(base, mapped, rtol=1e-9, atol=1e-12)


class TestAxioms:
    def test_maximality_at_center(self, any_kind, rng):
        # point-symmetric reference: depth at the center beats every sample point
        for _ in range(5):
            center = rng.normal(size=2)
            half = rng.normal(size=(12, 2))
            ref = np.vstack([half, 2.0 * center - half])
            center_depth = depth_values(center.reshape(1, -1), ref, any_kind)[0]
            sample_depths = depth_values(ref, ref, any_kind)
            assert center_depth >= sample_depths.max() - 1e-12

    def test_mahalanobis_ray_monotonicity(self, rng):
        ref = rng.normal(size=(40, 2))
        center = ref.mean(axis=0)
        for _ in range(20):
            x = rng.normal(size=2) * 4
            alpha = float(rng.uniform(0.05, 0.95))
            inner = center + alpha * (x - center)
            d_inner = depth_values(inner.reshape(1, -1), ref, MAHAL)[0]
            d_outer = depth_values(x.reshape(1, -1), ref, MAHAL)[0]
            assert d_inner >= d_outer - 1e-15


class TestErrors:
    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            depth_values([[1.0, 2.0]], [[1.0], [2.0]], MAHAL)

    def test_singular_covariance_duplicate_rows(self):
        ref = np.ones((10, 2))
        ref[:, 1] = np.arange(10)  # first coordinate constant
        with pytest.raises(SingularCovariance):
            depth_values([[0.0, 0.0]], ref, MAHAL)

    def test_singular_covariance_too_few_rows(self):
        # fewer than d+1 reference rows cannot span an invertible covariance
        with pytest.raises(SingularCovariance):
            depth_values([[0.0, 0.0]], [[0.0, 1.0], [1.0, 0.0]], MAHAL)

    @pytest.mark.parametrize("second_pivot, refused", ((1e-13, True), (1e-11, False)))
    def test_cholesky_refusal_boundary(self, second_pivot, refused):
        # max diagonal 1, so the tolerance is 1e-12
        cov = np.array([[1.0, 0.5], [0.5, 0.25 + second_pivot]])
        if refused:
            with pytest.raises(SingularCovariance):
                depths._spd_cholesky(cov)
        else:
            lower = depths._spd_cholesky(cov)
            assert lower[1, 1] ** 2 == pytest.approx(second_pivot, rel=1e-3)

    def test_stacked_refusal_names_first_refused_matrix(self):
        # the pivot rule holds per matrix of a stack: each matrix against its
        # own largest diagonal, and the error is the first refused one's
        good = np.array([[1.0, 0.5], [0.5, 0.25 + 1e-11]])
        refused = [np.array([[1.0, 0.5], [0.5, 0.25 + 1e-13]]), np.array([[4.0, 2.0], [2.0, 1.0 + 1e-13]])]
        lower = depths._spd_cholesky(np.stack([good, 1e6 * good]))
        assert np.array_equal(lower[0], depths._spd_cholesky(good))
        with pytest.raises(SingularCovariance) as first:
            depths._spd_cholesky(refused[0])
        with pytest.raises(SingularCovariance) as stacked:
            depths._spd_cholesky(np.stack([good, *refused]))
        assert str(stacked.value) == str(first.value)

    @pytest.mark.parametrize("shape", ("zero-variance column", "not positive semidefinite"))
    def test_failed_factorization_is_singular(self, shape):
        # LAPACK itself refuses both covariances; its LinAlgError must not escape
        t = np.arange(8.0)
        ref = np.column_stack([np.ones(8), t] if shape == "zero-variance column" else [t, 0.3 * t])
        centered = ref - ref.mean(axis=0)
        assert np.linalg.eigvalsh(centered.T @ centered)[0] <= 0.0
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(centered.T @ centered)
        with pytest.raises(SingularCovariance):
            depth_values([[0.0, 0.0]], ref, MAHAL)
        with pytest.raises(SingularScatter):
            manova(ref, ref, "wilks")

    def test_degenerate_projection_sample(self):
        with pytest.raises(DegenerateSample):
            depth_values([[1.0, 1.0]], np.ones((8, 2)), PROJ)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            depth_values([[np.nan]], [[0.0], [1.0]], MAHAL)

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            DepthKind("tukey")
        with pytest.raises(ValueError):
            DepthKind("projection", direction_count=0)


class TestInvarianceProperties:
    @settings(derandomize=True, database=None, deadline=None, max_examples=8)
    @given(d=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_mahalanobis_affine_invariant(self, d, seed):
        # x -> A x + b maps the sample covariance to A S A', so the quadratic
        # form holds; rounding grows with the condition number of A A'
        rng = np.random.default_rng(seed)
        ref, query = rng.normal(size=(3 * d + 5, d)), rng.normal(size=(20, d))
        a, b = rng.normal(size=(d, d)), 5.0 * rng.normal(size=d)
        cond = np.linalg.cond(a)
        got = depth_values(query @ a.T + b, ref @ a.T + b, MAHAL)
        want = depth_values(query, ref, MAHAL)
        assert np.allclose(got, want, rtol=0.0, atol=1e-12 * cond**2)

    @settings(derandomize=True, database=None, deadline=None, max_examples=8)
    @given(
        d=st.integers(1, 4),
        log_scale=st.floats(-1.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_spatial_invariant_under_rotation_scale_translation(self, d, log_scale, seed):
        rng = np.random.default_rng(seed)
        ref, query = rng.normal(size=(2 * d + 7, d)), rng.normal(size=(20, d))
        rotation, _ = np.linalg.qr(rng.normal(size=(d, d)))
        scale, shift = 10.0**log_scale, 5.0 * rng.normal(size=d)
        got = depth_values(scale * query @ rotation.T + shift, scale * ref @ rotation.T + shift,
                           SPATIAL)
        assert np.allclose(got, depth_values(query, ref, SPATIAL), rtol=0.0, atol=1e-12)
