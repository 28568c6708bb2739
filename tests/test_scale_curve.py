import math

import numpy as np
import pytest

from depthtest import (
    DegenerateSample,
    DepthKind,
    DomainError,
    SingularCovariance,
    default_alpha_grid,
    depth_values,
    hull_volume,
    scale_curve,
)

from oracles import shoelace_hull_area

MAHAL = DepthKind("mahalanobis")


class TestHullVolume:
    def test_unit_square(self):
        corners = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        assert hull_volume(corners) == pytest.approx(1.0, rel=1e-12)

    def test_degenerate_cases(self):
        assert hull_volume(np.zeros((2, 2))) == 0.0
        collinear = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        assert hull_volume(collinear) == 0.0

    # qhull alone finds these hulls flat; past 2^1024 it crashes the process
    @pytest.mark.parametrize("d, exponent", ((4, 200), (3, 300), (2, -450)))
    def test_volume_far_from_unit_scale(self, d, exponent, rng):
        points = rng.normal(size=(25, d))
        want = math.ldexp(hull_volume(points), d * exponent)
        assert hull_volume(np.ldexp(points, exponent)) == pytest.approx(want, rel=1e-9)

    def test_volume_past_float_range_is_refused(self, rng):
        with pytest.raises(DomainError, match="exceeds the float64 range"):
            hull_volume(np.ldexp(rng.normal(size=(25, 4)), 600))

    def test_interval_length(self):
        assert hull_volume(np.array([[0.0], [0.25], [2.0]])) == pytest.approx(2.0)

    def test_cube_3d(self):
        corners = np.array(
            [[i, j, k] for i in (0.0, 1.0) for j in (0.0, 1.0) for k in (0.0, 1.0)]
        )
        assert hull_volume(corners) == pytest.approx(1.0, rel=1e-12)

    def test_hypercube_4d(self):
        corners = np.array(
            [
                [i, j, k, l]
                for i in (0.0, 2.0)
                for j in (0.0, 2.0)
                for k in (0.0, 2.0)
                for l in (0.0, 2.0)
            ]
        )
        assert hull_volume(corners) == pytest.approx(16.0, rel=1e-12)

    def test_matches_shoelace_oracle(self, rng):
        for _ in range(20):
            pts = rng.normal(size=(int(rng.integers(3, 50)), 2))
            assert hull_volume(pts) == pytest.approx(shoelace_hull_area(pts), rel=1e-9)


class TestScaleCurve:
    def test_square_volume_at_low_alpha(self):
        # the four corners are equally deep, so ties at the cut keep them all
        corners = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        curve = scale_curve(corners, [0.01, 1.0], MAHAL)
        assert curve.volumes.tolist() == pytest.approx([1.0, 1.0], rel=1e-12)

    def test_volumes_nonincreasing(self, any_kind, rng):
        # from the whole sample inward the regions shrink, so the curve is
        # nondecreasing in alpha
        sample = rng.normal(size=(40, 2))
        curve = scale_curve(sample, default_alpha_grid(), any_kind)
        assert np.all(np.diff(curve.volumes[::-1]) <= 1e-12)
        assert curve.volumes.min() >= 0.0

    def test_nesting(self, rng):
        # the region at alpha is the ceil(alpha n) deepest rows, alpha read as
        # a decimal: 0.07 * 100 is 7.000000000000001 in floating point, 7 rows here
        sample = rng.normal(size=(100, 2))
        depths = depth_values(sample, sample, MAHAL)
        deepest_first = sample[np.argsort(-depths, kind="stable")]
        curve = scale_curve(sample, [0.07, 0.2, 0.5], MAHAL)
        expected = [hull_volume(deepest_first[:count]) for count in (7, 20, 50)]
        assert curve.volumes.tolist() == pytest.approx(expected, rel=1e-12)

    def test_regions_from_the_self_depths(self, any_kind, rng):
        # 150 integer rows: three tiles of one-order spatial depth, and
        # depth ties at many cuts; each region holds every row at least as
        # deep as the count-th deepest of depth_values(sample, sample)
        sample = rng.integers(-4, 5, size=(150, 2)).astype(float)
        depths = depth_values(sample, sample, any_kind)
        deepest_first = np.sort(depths)[::-1]
        alphas = default_alpha_grid()
        expected = [
            hull_volume(sample[depths >= deepest_first[-(-percent * 150 // 100) - 1]])
            for percent in range(1, 100)
        ]
        assert scale_curve(sample, alphas, any_kind).volumes.tolist() == expected

    def test_one_row(self):
        # a lone row is its own deepest point under spatial depth; the
        # other depths are undefined on one reference row
        row = [[1.0, -2.0]]
        assert scale_curve(row, [0.5, 1.0], DepthKind("spatial")).volumes.tolist() == [0.0, 0.0]
        with pytest.raises(SingularCovariance):
            scale_curve(row, [1.0], MAHAL)
        with pytest.raises(DegenerateSample):
            scale_curve(row, [1.0], DepthKind("projection"))

    def test_full_mass_is_full_hull(self, any_kind, rng):
        sample = rng.normal(size=(25, 3))
        curve = scale_curve(sample, [0.5, 1.0], any_kind)
        assert curve.volumes[-1] == hull_volume(sample)

    def test_mahalanobis_volumes_scale_by_determinant(self, rng):
        sample = rng.normal(size=(40, 2))
        linear = np.array([[2.0, 0.5], [-0.3, 1.5]])
        alphas = [0.25, 0.5, 0.75, 1.0]
        base = scale_curve(sample, alphas, MAHAL)
        moved = scale_curve(sample @ linear.T + np.array([1.0, -2.0]), alphas, MAHAL)
        # a zero curve would scale vacuously
        assert np.all(base.volumes > 0.0)
        scaled = abs(np.linalg.det(linear)) * base.volumes
        assert moved.volumes.tolist() == pytest.approx(scaled.tolist(), rel=1e-9)

    def test_spatial_volumes_scale_under_similarity(self, rng):
        sample = rng.normal(size=(40, 3))
        c, s = np.cos(0.7), np.sin(0.7)
        rotation = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        factor = 2.5
        alphas = [0.25, 0.5, 0.75, 1.0]
        kind = DepthKind("spatial")
        base = scale_curve(sample, alphas, kind)
        moved = scale_curve(factor * sample @ rotation.T + np.array([3.0, 0.0, -1.0]), alphas, kind)
        assert np.all(base.volumes > 0.0)
        scaled = factor**3 * base.volumes
        assert moved.volumes.tolist() == pytest.approx(scaled.tolist(), rel=1e-9)

    def test_translation_invariance(self, any_kind, rng):
        sample = rng.normal(size=(25, 2))
        alphas = [0.1, 0.3, 0.5, 0.7]
        base = scale_curve(sample, alphas, any_kind)
        moved = scale_curve(sample + np.array([5.0, -3.0]), alphas, any_kind)
        assert np.allclose(base.volumes, moved.volumes, rtol=1e-9, atol=1e-12)

    def test_alpha_validation(self, rng):
        sample = rng.normal(size=(10, 2))
        with pytest.raises(ValueError):
            scale_curve(sample, [0.5, 0.4], MAHAL)
        with pytest.raises(ValueError):
            scale_curve(sample, [0.0, 0.5], MAHAL)
        with pytest.raises(ValueError):
            scale_curve(sample, [], MAHAL)

    def test_default_grid(self):
        grid = default_alpha_grid()
        assert grid[0] == pytest.approx(0.01)
        assert grid[-1] == pytest.approx(0.99)
        assert len(grid) == 99
