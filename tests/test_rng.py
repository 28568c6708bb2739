import math
import re

import numpy as np
import pytest
from scipy.special import ndtri as scipy_ndtri

from depthtest import CalibrationSpec, DepthKind, ScenarioSpec
from depthtest.rng import TAG_MC_ASYMPTOTIC, TAG_SCENARIO, ndtri, standard_normals, substream


def test_same_key_same_stream():
    a = substream(123, 4, 5).random(64)
    b = substream(123, 4, 5).random(64)
    assert np.array_equal(a, b)


def test_different_keys_differ():
    a = substream(123, 4, 5).random(64)
    b = substream(123, 4, 6).random(64)
    c = substream(124, 4, 5).random(64)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_stream_isolation_from_consumption_order():
    # Drawing from one substream never perturbs another.
    first = substream(9, 1)
    _ = first.random(1000)
    fresh = substream(9, 2).random(16)
    again = substream(9, 2).random(16)
    assert np.array_equal(fresh, again)


def test_standard_normals_deterministic_and_sane():
    z = standard_normals(substream(7), (200_000,))
    assert np.array_equal(z, standard_normals(substream(7), (200_000,)))
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01
    assert np.isfinite(z).all()


def test_standard_normals_shape():
    z = standard_normals(substream(1), (3, 4))
    assert z.shape == (3, 4)


def test_standard_normals_finite_at_zero_uniform():
    # the uniform stream can return exactly 0.0, where the inverse CDF is -inf
    class ZeroStream:
        def random(self, shape):
            return np.zeros(shape)

    z = standard_normals(ZeroStream(), (3,))
    assert np.isfinite(z).all()
    assert (z < -37.0).all()


def test_key_elements_span_64_bits():
    top = substream(2**64 - 1, 4).random(8)
    assert not np.array_equal(top, substream(0, 4).random(8))


@pytest.mark.parametrize("key", ((-1,), (2**64,), (2**64 + 5, 4), (5, -1)))
def test_key_element_outside_64_bits_refused(key):
    # masking would alias 2^64 + 5 with 5 and -1 with 2^64 - 1
    with pytest.raises(ValueError, match="outside \\[0, 2\\^64\\)"):
        substream(*key)


def _same_bits(a, b) -> bool:
    """Equal bit patterns, any NaN equal to any NaN."""
    a, b = np.asarray(a), np.asarray(b)
    nan = np.isnan(a)
    return bool((nan == np.isnan(b)).all() and (a[~nan].view(np.int64) == b[~nan].view(np.int64)).all())


_E2 = 0.13533528323661269189  # exp(-2), as Cephes writes it
_EDGES = np.array([0.0, 5e-324, np.finfo(float).tiny, _E2, 1.0 - _E2, 0.5, 1.0 - 1e-12, 1.0,
                   math.exp(-32.0)])


def _with_neighbours(values):
    return np.concatenate([values, np.nextafter(values, -1.0), np.nextafter(values, 2.0)])


class TestNdtriPort:
    """The numpy port against scipy's compiled Cephes ndtri, bit for bit;
    scipy.special is imported by this test only."""

    def test_package_substreams_match_scipy(self):
        u = np.concatenate([substream(seed, TAG_SCENARIO, 100, r).random(125_000)
                            for seed in (1, 2026) for r in range(4)])
        assert u.size == 1_000_000
        assert _same_bits(ndtri(u), scipy_ndtri(u))

    def test_deep_tail_matches_scipy(self):
        u = np.exp(-700.0 * substream(3, TAG_MC_ASYMPTOTIC).random(100_000))
        assert _same_bits(ndtri(u), scipy_ndtri(u))
        assert _same_bits(ndtri(1.0 - u), scipy_ndtri(1.0 - u))

    def test_edges_and_branch_boundaries_match_scipy(self):
        # E2 and 1 - E2 bound the central range; x crosses 8 at y = exp(-32)
        y = _with_neighbours(_EDGES)
        y = y[(y >= 0.0) & (y <= 1.0)]
        assert _same_bits(ndtri(y), scipy_ndtri(y))
        assert ndtri(0.0) == -np.inf and ndtri(1.0) == np.inf and ndtri(0.5) == 0.0

    def test_nan_outside_the_unit_interval(self):
        y = np.array([np.nan, -0.0, -1e-300, -0.5, np.nextafter(1.0, 2.0), 2.0, np.inf, -np.inf])
        z = ndtri(y)
        assert z[1] == -np.inf  # -0.0 == 0
        assert np.isnan(np.delete(z, 1)).all()

    def test_any_shape_and_out_in_place(self):
        u = substream(5, 1).random((40, 7))
        u[0, :3] = (0.0, 1.0, 0.5)
        want = scipy_ndtri(u)
        z = ndtri(u)
        assert z.shape == (40, 7) and _same_bits(z, want)
        assert _same_bits(ndtri(u.T), want.T)
        assert ndtri(u, out=u) is u and _same_bits(u, want)
        assert ndtri(np.float64(0.3)).shape == ()


def test_normals_are_the_ndtri_of_the_uniforms():
    z = standard_normals(substream(8, 3), (500, 2))
    assert _same_bits(z, scipy_ndtri(np.maximum(substream(8, 3).random((500, 2)),
                                                np.finfo(float).tiny)))


@pytest.mark.parametrize("key", ((1.5, 4, 0), (1.0,), ("7", 1), (3, np.float64(2.0)), (None,)))
def test_non_integral_key_element_refused(key):
    # int() would fold 1.5 onto the stream of key (1, 4, 0) and accept "7"
    with pytest.raises(TypeError, match="stream key element .* is not an integer"):
        substream(*key)


def test_numpy_integer_key_elements_accepted():
    a = substream(np.int64(7), np.uint64(4), np.int32(0)).random(8)
    assert np.array_equal(a, substream(7, 4, 0).random(8))


def test_specs_refuse_non_integral_seed_before_any_work():
    with pytest.raises(TypeError, match="seed 1.9 is not an integer"):
        CalibrationSpec(replications=49, seed=1.9)
    with pytest.raises(TypeError, match="seed '3' is not an integer"):
        ScenarioSpec("null", (20,), "equal", DepthKind("mahalanobis"), 5, "3")
    with pytest.raises(TypeError, match="direction_seed 1.5 is not an integer"):
        DepthKind("projection", direction_seed=1.5)
    assert CalibrationSpec(replications=49, seed=np.int64(1)).seed == 1


@pytest.mark.parametrize("build, message", (
    (lambda: CalibrationSpec(replications=1e4, seed=1), "replications 10000.0"),
    (lambda: CalibrationSpec(replications="5", seed=1), "replications '5'"),
    (lambda: ScenarioSpec("null", (20,), "equal", DepthKind("mahalanobis"), 5.0, 3),
     "replications 5.0"),
    (lambda: ScenarioSpec("null", (20, 40.0), "equal", DepthKind("mahalanobis"), 5, 3),
     "m_grid entry 40.0"),
    (lambda: DepthKind("projection", direction_count=10.5), "direction_count 10.5"),
), ids=("calibration-float", "calibration-string", "scenario-reps", "m-grid", "directions"))
def test_specs_refuse_non_integral_counts_at_construction(build, message):
    # a float count used to be accepted here and fail later inside range(),
    # np.empty or the direction draw
    with pytest.raises(TypeError, match=f"{re.escape(message)} is not an integer"):
        build()


def test_specs_accept_numpy_integer_counts():
    assert CalibrationSpec(replications=np.int64(49), seed=1).replications == 49
    spec = ScenarioSpec("null", (np.int32(20),), "equal", DepthKind("mahalanobis"), np.uint8(5), 3)
    assert (spec.m_grid, spec.replications) == ((20,), 5)
    assert DepthKind("projection", direction_count=np.int16(10)).direction_count == 10
