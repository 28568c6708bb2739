"""Deterministic substreams on top of the Philox counter-based generator.

Every random consumer in the package draws from a stream addressed by a
tuple of integers (seed, tag, indices...). Streams with different keys are
statistically independent, and a given key yields the same draws no matter
how many other streams were consumed first, so replication loops can be
reordered or parallelized without changing any result.

Normal variates are :func:`ndtri` of the uniform stream: Cephes ``ndtri``
(S. L. Moshier, *Methods and Programs for Mathematical Functions*, 1989),
the algorithm ``scipy.special.ndtri`` compiles, evaluated here in numpy.
Its separate multiplies and adds round as the compiled loop does, and the
tail's two logarithms come from the C library's ``log`` through
``math.log``, so every normal equals scipy's bit for bit while the package
never imports ``scipy.special``.
"""

from __future__ import annotations

import math
import operator

import numpy as np

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


def require_integer(k, what: str) -> int:
    """``k`` as an int if it is a Python or numpy integer. A float or a
    string raises TypeError, naming it as ``what``, rather than being
    truncated or failing later in a count or an allocation."""
    try:
        return operator.index(k)
    except TypeError:
        raise TypeError(f"{what} {k!r} is not an integer") from None


def key_element(k, what: str = "stream key element") -> int:
    """``k`` as a stream key element: a Python or numpy integer in
    [0, 2^64). A float or a string raises TypeError, naming it as
    ``what``, rather than being truncated onto another key's stream; an
    integer outside the range raises ValueError."""
    k = require_integer(k, what)
    if not 0 <= k < KEY_LIMIT:
        raise ValueError(f"{what} {k} is outside [0, 2^64)")
    return k


def substream(*key: int) -> np.random.Generator:
    """Generator for the Philox stream addressed by a tuple of
    :func:`key_element` values."""
    seq = np.random.SeedSequence([key_element(k) for k in key])
    return np.random.Generator(np.random.Philox(seq))


def standard_normals(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard normal variates: :func:`ndtri` (the inverse normal CDF,
    bit for bit ``scipy.special.ndtri``) of the uniform stream.

    No rejection loop: one uniform consumed per variate, so the stream
    position is a pure function of the draw count.
    """
    return normals_from_uniforms(rng.random(shape))


def normals_from_uniforms(u: np.ndarray) -> np.ndarray:
    """:func:`ndtri` of an array of uniforms, in place; the inverse normal
    CDF with the C library's ``log``, so the bits of scipy's."""
    # rng.random() can return exactly 0.0, where ndtri gives -inf; nudge
    # into the open interval
    np.maximum(u, np.finfo(float).tiny, out=u)
    return ndtri(u, out=u)


def _libm_log(a: np.ndarray) -> np.ndarray:
    """The C library's ``log`` of each entry of a 1-D array of positive
    doubles, called through ``math.log``; numpy's own ``np.log`` may
    differ from it in the last bits."""
    return np.fromiter(map(math.log, a.tolist()), float, a.size)


# Cephes ndtri.c: sqrt(2 pi), exp(-2), and the rational approximations of
# the central range (P0/Q0), of the tail up to exp(-32) (P1/Q1) and beyond
# it (P2/Q2). The Q polynomials are monic; their leading 1 is implicit.
_S2PI = 2.50662827463100050242e0
_E2 = 0.13533528323661269189
_FLIP = 1.0 - _E2  # above it Cephes takes the tail of 1 - y
_P0 = (
    -5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
    1.39312609387279679503e1, -1.23916583867381258016e0,
)
_Q0 = (
    1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
    -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
    1.59056225126211695515e1, -1.18331621121330003142e0,
)
_P1 = (
    4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
    4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
    -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4,
)
_Q1 = (
    1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
    1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
    -3.80806407691578277194e-2, -9.33259480895457427372e-4,
)
_P2 = (
    3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
    1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
    3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9,
)
_Q2 = (
    6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
    2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
    2.89247864745380683936e-6, 6.79019408009981274425e-9,
)


def _rational(x: np.ndarray, p, q) -> np.ndarray:
    """``(x * P(x)) / Q(x)`` as Cephes rounds it: P by Horner from its
    first coefficient (``polevl``), its last step's multiply by x being
    the x * P(x); the monic Q from ``x + q[0]`` (``p1evl``); in this
    association, not ``x * (P / Q)``."""
    num = x * p[0]
    for c in p[1:]:
        num += c
        num *= x
    den = x + q[0]
    for c in q[1:]:
        den *= x
        den += c
    num /= den
    return num


def _tail(t: np.ndarray) -> np.ndarray:
    """Cephes' tail branch: the magnitude of the normal quantile of each
    0 < t <= exp(-2)."""
    x = _libm_log(t)
    x *= -2.0
    np.sqrt(x, out=x)
    x0 = _libm_log(x)
    x0 /= x
    np.subtract(x, x0, out=x0)
    z = np.divide(1.0, x)
    beyond = x >= 8.0  # t < exp(-32)
    x1 = _rational(z, _P1, _Q1)
    if beyond.any():
        x1[beyond] = _rational(z[beyond], _P2, _Q2)
    x0 -= x1
    return x0


def ndtri(y, out=None) -> np.ndarray:
    """The inverse of the standard normal CDF, elementwise: Cephes ``ndtri``
    in numpy, bit for bit ``scipy.special.ndtri``.

    0 and 1 give -inf and +inf; NaN and values outside [0, 1] give NaN.
    Works on any shape; ``out`` (which may be ``y`` itself) receives the
    result. Cephes evaluates y - 1/2 on the central range exp(-2) < y <=
    1 - exp(-2), and the tail of t = min(y, 1 - y) elsewhere, negated
    below 1/2. Here the central formula runs on every entry and the tail
    overwrites its own entries. Only the tail takes logarithms, from the
    C library's ``log`` that scipy's loop calls (``np.log`` differs from
    it in the last bit of a few inputs in a thousand).
    """
    y = np.asarray(y, dtype=float)
    flat = y.reshape(-1)
    c = flat - 0.5
    with np.errstate(all="ignore"):  # the central formula on tail entries
        x = _rational(c * c, _P0, _Q0)
        x *= c
        x += c
        x *= _S2PI
    central = flat > _E2
    central &= flat <= _FLIP
    tail = np.flatnonzero(~central)
    if tail.size:
        t = flat.take(tail)
        np.minimum(t, 1.0 - t, out=t)
        positive = t > 0.0
        if positive.all():
            magnitude = _tail(t)
        else:  # 0 gives infinity, NaN and t < 0 (y outside [0, 1]) NaN
            magnitude = np.where(t == 0.0, np.inf, np.nan)
            magnitude[positive] = _tail(t[positive])
        x[tail] = np.copysign(magnitude, c.take(tail))
    x = x.reshape(y.shape)
    if out is None:
        return x
    out[...] = x
    return out
