"""Deterministic substreams on top of the Philox counter-based generator.

Every random consumer in the package draws from a stream addressed by a
tuple of integers (seed, tag, indices...). Streams with different keys are
statistically independent, and a given key yields the same draws no matter
how many other streams were consumed first, so replication loops can be
reordered or parallelized without changing any result.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

# Stream tags; values are arbitrary but frozen (part of the reproducibility
# contract: changing them changes every seeded result).
TAG_DIRECTIONS = 1
TAG_SCENARIO = 2
TAG_NULL_CALIBRATION = 3
TAG_PERMUTATION = 4
TAG_MC_ASYMPTOTIC = 5

# Every key element lies in [0, KEY_LIMIT), so that distinct keys address
# distinct streams.
KEY_LIMIT = 1 << 64


def substream(*key: int) -> np.random.Generator:
    """Generator for the Philox stream addressed by an integer key tuple;
    an element outside [0, 2^64) raises ValueError."""
    key = [int(k) for k in key]
    for k in key:
        if not 0 <= k < KEY_LIMIT:
            raise ValueError(f"stream key element {k} is outside [0, 2^64)")
    seq = np.random.SeedSequence(key)
    return np.random.Generator(np.random.Philox(seq))


def standard_normals(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard normal variates: the inverse normal CDF
    (``scipy.special.ndtri``) of the uniform stream.

    No rejection loop: one uniform consumed per variate, so the stream
    position is a pure function of the draw count.
    """
    return normals_from_uniforms(rng.random(shape))


def normals_from_uniforms(u: np.ndarray) -> np.ndarray:
    """``ndtri`` of an array of uniforms, in place."""
    # rng.random() can return exactly 0.0, where ndtri gives -inf; nudge
    # into the open interval
    np.maximum(u, np.finfo(float).tiny, out=u)
    return ndtri(u, out=u)
