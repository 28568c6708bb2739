import numpy as np
import pytest

from depthtest.rng import standard_normals, substream


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
