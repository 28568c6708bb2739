import tracemalloc
from itertools import product, repeat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from depthtest import (
    CalibrationSpec,
    DegenerateSample,
    DepthKind,
    DimensionMismatch,
    SingularCovariance,
    SingularScatter,
    SizeLimit,
    depth_values,
    depths,
    evaluate_statistics,
    manova,
    permutation_report,
)
from depthtest.depths import _unit_components, coordinate_distances, pooled_depths
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
        # 513 query rows: four full blocks of 128, then a block of one row
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


class TestCoordinateDistances:
    # the squares are added in coordinate order, as cdist adds them; a
    # pairwise sum over a last, contiguous coordinate axis rounds
    # differently from d = 8 on
    @pytest.mark.parametrize("exponent", (0, 600, -600, 511, -537))
    @pytest.mark.parametrize("d", (1, 2, 3, 4, 5, 8, 10, 16, 33))
    def test_equals_cdist(self, d, exponent, rng):
        ref = np.ldexp(rng.normal(size=(300, d)), exponent)
        query = np.ldexp(rng.normal(size=(257, d)), exponent)
        ref[7] = ref[3]
        query[[0, 100]] = ref[3]
        want = cdist(ref, query)
        planes, out = np.empty((d, 300, 257)), np.empty((300, 257))
        # past 2^511 squares overflow to inf, as they do inside cdist
        with np.errstate(over="ignore"):
            got = coordinate_distances(query.T, ref.T[:, :, None], planes, out, np.empty_like(out))
            assert np.array_equal(got, want)
            assert np.array_equal(planes, query.T[:, None, :] - ref.T[:, :, None])
            # one buffer for every plane, squared in place
            plane = np.empty((300, 257))
            again = coordinate_distances(query.T, ref.T[:, :, None], repeat(plane), out, plane)
            assert np.array_equal(again, want)

    @pytest.mark.parametrize("m", (1, 255, 256, 257, 513))
    def test_unit_components_walk_reference_rows_exactly(self, m, rng):
        # the kernel takes _SPATIAL_ROWS = 256 reference rows at a time
        ref = rng.normal(size=(m, 10))
        query = np.vstack([ref[: min(m, 3)], rng.normal(size=(40, 10))])
        dist = cdist(ref, query)
        dist[dist == 0.0] = np.inf
        want = (query.T[:, None, :] - ref.T[:, :, None]) / dist
        assert np.array_equal(_unit_components(query, ref), want)
        out = np.empty_like(want)
        assert _unit_components(query, ref, out=out) is out
        assert np.array_equal(out, want)


def _partition_rows(pooled, sizes, kind, order):
    return pooled_depths(pooled[None], kind, order[None], group_slices(sizes))[0]


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

    @pytest.mark.parametrize("kind", (MAHAL, SPATIAL, DepthKind("projection", 500, 5)),
                             ids=lambda kind: kind.kind)
    def test_every_sample_under_every_order(self, kind, monkeypatch, rng):
        # S = 3 samples, each in its own power-of-two units, under P = 4
        # orders: 12 partitions, sample-major, each row in partition order
        monkeypatch.setattr(depths, "_directions", _dyadic_directions)
        n, slices = 40, group_slices([12, 13, 15])
        samples = np.stack([2.0 ** (9 * t) * rng.integers(-5, 6, size=(n, 3)) for t in range(3)])
        orders = np.stack([np.arange(n)] + [rng.permutation(n) for _ in range(3)])
        got = pooled_depths(samples, kind, orders, slices)
        assert got.shape == (12, 3, n)
        for rows, (sample, order) in zip(got, product(samples, orders)):
            for row, sl in zip(rows, slices):
                assert np.array_equal(row, depth_values(sample[order], sample[order[sl]], kind))

    @pytest.mark.parametrize("s, p", ((1, 5), (4, 1)))
    def test_mahalanobis_query_is_a_view_of_the_stack(self, s, p, monkeypatch, rng):
        # a copy of the samples broadcast over the orders would be writeable
        queries, kernel = [], depths._mahalanobis_depths
        monkeypatch.setattr(depths, "_mahalanobis_depths",
                            lambda query, refs: queries.append(query) or kernel(query, refs))
        orders = np.stack([rng.permutation(20) for _ in range(p)])
        pooled_depths(rng.normal(size=(s, 20, 2)), MAHAL, orders, group_slices([10, 10]))
        assert [q.shape for q in queries] == [(s * p, 20, 2)] * 2
        assert not any(q.flags.writeable for q in queries)

    @pytest.mark.parametrize("d", (1, 2, 4))
    def test_spatial_rows_match_depth_values(self, d, rng):
        # N = 270: two full blocks of 128 columns and one of 14
        sizes = [130, 140]
        pooled = rng.integers(-3, 4, size=(sum(sizes), d)).astype(float)
        for order in (np.arange(pooled.shape[0]), rng.permutation(pooled.shape[0])):
            got = _partition_rows(pooled, sizes, SPATIAL, order)
            for row, sl in zip(got, group_slices(sizes)):
                assert np.array_equal(row, depth_values(pooled[order], pooled[order[sl]], SPATIAL))


W = depths._SPATIAL_CHUNK


def _bits(values):
    return np.asarray(values).view(np.int64)


class TestSpatialBlocks:
    """Pooled spatial rows walk blocks of W query columns; a lone last
    column is widened, so every block sums in reference order."""

    @pytest.mark.parametrize("s", (1, 3))
    @pytest.mark.parametrize("n", (W - 1, W, W + 1, 2 * W + 1))
    def test_rows_equal_depth_values(self, n, s, rng):
        # integer rows, so many pairs coincide; sample t in its own units
        samples = np.stack([3.0**t * rng.integers(-2, 3, size=(n, 3)) for t in range(s)])
        sizes = [n // 3, n - n // 3]
        orders = np.stack([rng.permutation(n) for _ in range(3)])
        slices = group_slices(sizes)
        got = pooled_depths(samples, SPATIAL, orders, slices)
        assert got.shape == (3 * s, 2, n)
        for rows, (sample, order) in zip(got, product(samples, orders)):
            for row, sl in zip(rows, slices):
                assert np.array_equal(row, depth_values(sample[order], sample[order[sl]], SPATIAL))

    @pytest.mark.parametrize("budget", (1, 1 << 40))
    @pytest.mark.parametrize("n", (W - 1, W + 1, 2 * W + 1))
    def test_rows_equal_one_order_tile_rows(self, n, budget, monkeypatch, rng):
        # the reference-major gathers of one partition (budget 1) or of all
        # of them (2^40) against each order's tile rows, bit for bit; the
        # middle group is one row, so its sums hold one term each
        monkeypatch.setattr(depths, "_CHUNK_ELEMENTS", budget)
        samples = np.stack([3.0**t * rng.integers(-2, 3, size=(n, 3)) for t in range(2)])
        slices = group_slices([n // 3, 1, n - n // 3 - 1])
        orders = np.stack([np.arange(n)] + [rng.permutation(n) for _ in range(4)])
        stacked = pooled_depths(samples, SPATIAL, orders, slices).reshape(2, len(orders), 3, n)
        for p in range(len(orders)):
            got = pooled_depths(samples, SPATIAL, orders[p : p + 1], slices)
            assert np.array_equal(_bits(got), _bits(stacked[:, p]))

    @pytest.mark.parametrize("d", (2, 10))
    def test_duplicated_rows_across_blocks_tie(self, d, rng):
        n = 2 * W + 1
        samples = rng.normal(size=(2, n, d))
        positions = [0, 1, W - 1, W, W + 1, 2 * W - 1, 2 * W]
        samples[:, positions] = samples[:, 5:6]
        positions.append(5)
        orders = np.stack([np.arange(n), rng.permutation(n)])
        got = pooled_depths(samples, SPATIAL, orders, group_slices([W, W + 1]))
        for rows, order in zip(got, np.tile(orders, (2, 1))):
            for row in rows:
                assert len(set(row[np.isin(order, positions)])) == 1

    def test_reports_independent_of_chunk_budget(self, monkeypatch, rng):
        # N = 2W + 1 = 257: three blocks, the last one widened
        groups = [rng.normal(size=(W, 3)), 0.2 + rng.normal(size=(W + 1, 3))]
        names = ("min", "max", "product", "sum", "dbr", "bdbr")
        spec = CalibrationSpec(replications=6, seed=3)
        reports = []
        for budget in (1, depths._CHUNK_ELEMENTS, 1 << 40):
            monkeypatch.setattr(depths, "_CHUNK_ELEMENTS", budget)
            report = permutation_report(groups, names, SPATIAL, spec)
            reports.append([(o.statistic_name, o.statistic, o.p_value) for o in report])
        assert reports[0] == reports[1] == reports[2]

    def test_peak_memory_stays_in_blocks(self, rng):
        # N = 1000, d = 10: whole (d, N, N) coordinates would take 80 MB
        samples = rng.normal(size=(1, 1000, 10))
        orders = np.stack([np.arange(1000), rng.permutation(1000)])
        slices = group_slices([500, 500])
        tracemalloc.start()
        try:
            pooled_depths(samples, SPATIAL, orders, slices)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_sample_groups_fit_the_chunk_budget(self, rng):
        # 40 samples of N = 200 in d = 2: (d, N, W) blocks of 5 samples fit a
        # budget, so eight groups run; all 40 blocks at once take 16 MB
        samples = rng.normal(size=(40, 200, 2))
        order, slices = rng.permutation(200), group_slices([90, 110])
        tracemalloc.start()
        try:
            got = pooled_depths(samples, SPATIAL, order[None], slices)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * depths._CHUNK_ELEMENTS
        for rows, sample in zip(got, samples):
            for row, sl in zip(rows, slices):
                assert np.array_equal(row, depth_values(sample[order], sample[order[sl]], SPATIAL))


T = depths._SPATIAL_TILE


class TestOneOrderTiles:
    """One order takes the tile-row path: each tile row's unit vectors,
    and their negated transpose, summed in ascending row order."""

    @pytest.mark.parametrize("s", (1, 3))
    @pytest.mark.parametrize("d", (1, 2, 10))
    @pytest.mark.parametrize("n, k", [
        (n, k) for n in (2, 3, T - 1, T, T + 1, 2 * T, 2 * T + 1) for k in (2, 3) if k <= n
    ])
    def test_one_order_equals_its_row_of_the_stack(self, n, k, d, s, rng):
        # integer rows, half of them copies of others, so exact zero
        # distances occur; group cuts at n/3 and 2n/3 fall inside tiles
        samples = np.stack([3.0**t * rng.integers(-2, 3, size=(n, d)) for t in range(s)])
        copies = rng.choice(n, size=n // 2)
        samples[:, rng.choice(n, size=n // 2)] = samples[:, copies]
        cuts = [0, *(n * g // k for g in range(1, k)), n]
        slices = [slice(a, b) for a, b in zip(cuts, cuts[1:])]
        orders = np.stack([np.arange(n), rng.permutation(n), rng.permutation(n)])
        stacked = pooled_depths(samples, SPATIAL, orders, slices)
        for p, order in enumerate(orders):
            got = pooled_depths(samples, SPATIAL, orders[p : p + 1], slices)
            assert got.shape == (s, k, n)
            assert np.array_equal(_bits(got), _bits(stacked[p :: len(orders)]))
            for rows, sample in zip(got, samples):
                for row, sl in zip(rows, slices):
                    want = depth_values(sample[order], sample[order[sl]], SPATIAL)
                    assert np.array_equal(_bits(row), _bits(want))

    def test_one_order_peak_memory(self, rng):
        # N = 1000, d = 10 in one sample: the two tile buffers of the first
        # tile row, (d, T + 1, N) and (d, N - T + 1, T), take about 10 MB
        samples = rng.normal(size=(1, 1000, 10))
        tracemalloc.start()
        try:
            pooled_depths(samples, SPATIAL, rng.permutation(1000)[None], group_slices([500, 500]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


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
    @pytest.mark.parametrize("m", (2, 3, 4, 5, 29, 30, 31, 100, 500))
    def test_column_medians_equal_numpy_median(self, m, rng):
        # the sort route of projection_outlyingness: one (D, m) buffer,
        # sorted for the median, then overwritten with |x - med| and sorted
        # again for the MAD
        for _ in range(5):
            plain = rng.normal(size=(m, 500))
            zeros = _with_exact_zeros(rng.normal(size=(m, 500)), rng)
            ties = rng.integers(-2, 3, size=(m, 500)).astype(float)
            for matrix in (plain, zeros, ties):
                want_med = np.median(matrix, axis=0)
                want_mad = np.median(np.abs(matrix - want_med), axis=0)
                cols = matrix.T.copy()
                cols.sort(axis=-1)
                med = depths._sorted_median(cols)
                np.abs(cols - med[:, None], out=cols)
                cols.sort(axis=-1)
                assert np.array_equal(med, want_med)
                assert np.array_equal(depths._sorted_median(cols), want_mad)

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

    def test_direction_cache_keeps_one_set(self, rng):
        # a process keeps the latest direction set only, however many runs
        # at other seeds came before
        x = rng.normal(size=(6, 2))
        for seed in range(100):
            depth_values(x, x, DepthKind("projection", direction_count=4, direction_seed=seed))
        assert depths._directions.cache_info().currsize <= 1


STRIP = depths._CHUNK_ELEMENTS // 500  # query rows per outlyingness strip at D = 500


def _dyadic_directions(seed, count, dim):
    # small-integer directions: scores of small-integer rows are exact, so no
    # score depends on its row's position in the matrix product (OpenBLAS
    # rounds edge rows differently); axis 0 comes first
    rng = np.random.default_rng([seed, count, dim])
    dirs = rng.integers(-3, 4, size=(count, dim)).astype(float)
    dirs[~dirs.any(axis=1), 0] = 1.0  # no zero direction
    dirs[0] = np.eye(dim)[0]
    dirs.flags.writeable = False
    return dirs


def _flat_first_axis(rng, n, d):
    # integer rows, three in four of them on x0 = 0: every group has zero MAD
    # along axis 0, where its other rows escape to infinity
    rows = rng.integers(-5, 6, size=(n, d)).astype(float)
    rows[rng.random(n) < 0.75, 0] = 0.0
    return rows


class TestProjectionStrips:
    """Outlyingness is formed in strips of STRIP query rows; pooled
    projection depths run partition by partition on one sample's scores."""

    @pytest.mark.parametrize("n", (STRIP - 1, STRIP, STRIP + 1, 2 * STRIP + 1))
    def test_strips_match_median_reference(self, n, rng):
        ref_proj = _with_exact_zeros(rng.normal(size=(41, 500)), rng)
        ref_proj[:30, :7] = 1.25  # seven zero-MAD directions
        query_proj = np.vstack([ref_proj, 3.0 * rng.normal(size=(n - 41, 500))])
        query_proj[-5:, :7] = 1.25  # the last rows sit on them
        got = depths.projection_outlyingness(ref_proj, query_proj)
        assert np.array_equal(got, _outlyingness_reference(ref_proj, query_proj))
        assert np.isinf(got).any() and np.isfinite(got[-5:]).all()

    @pytest.mark.parametrize("s", (1, 3))
    @pytest.mark.parametrize("n", (STRIP - 1, STRIP, STRIP + 1))
    def test_pooled_rows_equal_depth_values(self, n, s, monkeypatch, rng):
        monkeypatch.setattr(depths, "_directions", _dyadic_directions)
        kind = DepthKind("projection", 500, 5)
        samples = np.stack([2.0**t * _flat_first_axis(rng, n, 3) for t in range(s)])
        sizes = [n // 3, n - n // 3]
        orders = np.stack([rng.permutation(n) for _ in range(4)])
        slices = group_slices(sizes)
        got = pooled_depths(samples, kind, orders, slices)
        assert got.shape == (4 * s, 2, n)
        for rows, (sample, order) in zip(got, product(samples, orders)):
            for row, sl in zip(rows, slices):
                assert np.array_equal(row, depth_values(sample[order], sample[order[sl]], kind))
        assert (got == 0.0).any() and (got > 0.0).any()

    def test_reports_independent_of_chunk_budget(self, monkeypatch, rng):
        # budget 1 cuts every outlyingness into one-row strips
        groups = [_flat_first_axis(rng, 20, 3), 1.0 + _flat_first_axis(rng, 21, 3)]
        names = ("min", "max", "product", "sum", "dbr", "bdbr")
        spec = CalibrationSpec(replications=6, seed=3)
        reports = []
        for budget in (1, depths._CHUNK_ELEMENTS, 1 << 40):
            monkeypatch.setattr(depths, "_CHUNK_ELEMENTS", budget)
            report = permutation_report(groups, names, PROJ, spec)
            reports.append([(o.statistic_name, o.statistic, o.p_value) for o in report])
        assert reports[0] == reports[1] == reports[2]

    def test_peak_memory_holds_one_sample_of_scores(self, rng):
        # N = 1000, D = 500: one sample's scores are 4 MB
        kind = DepthKind("projection", 500, 1)
        samples = rng.normal(size=(3, 1000, 10))
        orders = np.stack([rng.permutation(1000) for _ in range(3)])
        slices = group_slices([500, 500])
        peaks = []
        for stack, stack_orders in ((samples[:1], orders), (samples, orders[:1])):
            tracemalloc.start()
            try:
                pooled_depths(stack, kind, stack_orders, slices)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 1000 * 500 * 8


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

    @pytest.mark.parametrize("exponent", (600, -600))
    def test_power_of_two_units_change_no_depth(self, any_kind, exponent, rng):
        # exact changes of units whose squares overflow or underflow
        ref = rng.normal(size=(30, 3))
        query = rng.normal(size=(8, 3))
        base = depth_values(query, ref, any_kind)
        mapped = depth_values(np.ldexp(query, exponent), np.ldexp(ref, exponent), any_kind)
        assert np.array_equal(base, mapped)

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

    def test_projection_scores_over_cap_refused(self, rng):
        # 60 x 10^8 scores exceed the 20M-element cap; the refusal comes
        # before any direction is drawn, so nothing large is allocated
        kind = DepthKind("projection", direction_count=100_000_000)
        x, y = rng.normal(size=(30, 4)), rng.normal(size=(30, 4))
        message = "projection depth needs 60 x 100000000 direction scores, over the cap of 20000000 elements"
        with pytest.raises(SizeLimit) as info:
            evaluate_statistics([x, y], ("min", "dbr"), kind)
        assert str(info.value) == message
        with pytest.raises(SizeLimit) as info:
            depth_values(x, np.vstack([x, y]), kind)
        assert str(info.value) == message

    def test_projection_directions_over_cap_refused(self, monkeypatch, rng):
        # 8 x 1000 scores fit a cap of 10,000, but 1000 x 60 directions do
        # not; the refusal comes before any direction is drawn
        monkeypatch.setattr(depths, "_CACHE_ELEMENT_CAP", 10_000)
        monkeypatch.setattr(depths, "_directions", None)
        kind = DepthKind("projection", direction_count=1000)
        x, y = rng.normal(size=(4, 60)), rng.normal(size=(4, 60))
        message = "projection depth needs 1000 x 60 directions, over the cap of 10000 elements"
        with pytest.raises(SizeLimit) as info:
            evaluate_statistics([x, y], ("min", "dbr"), kind)
        assert str(info.value) == message
        with pytest.raises(SizeLimit) as info:
            depth_values(x, np.vstack([x, y]), kind)
        assert str(info.value) == message

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
