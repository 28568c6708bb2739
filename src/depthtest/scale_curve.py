"""Scale curves: volume of the central region per central-mass fraction.

Following Liu, Parelius & Singh (1999, Ann. Statist. 27(3), "Multivariate
analysis by data depth"), the central region at fraction p is the convex
hull of the ceil(p n) deepest sample points (depth against the full
sample), ties at the cut included; its volume as p sweeps a grid is the
scale curve, a dispersion measure for comparing groups. The regions are
nested, so the curve is nondecreasing in p, and at p = 1 it is the volume
of the whole sample's hull. Volumes are exact hull volumes at any
dimension (length at d=1, area at d=2, and so on).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .depths import DepthKind, pooled_depths, unit_scaled
from .errors import DomainError
from .samples import as_sample_matrix


@dataclass(frozen=True, eq=False)
class ScaleCurve:
    """Paired (central-mass fraction, volume) sequence; volumes are
    nondecreasing in the fraction."""

    alphas: np.ndarray
    volumes: np.ndarray
    depth_kind: DepthKind


def default_alpha_grid() -> np.ndarray:
    """alpha = 0.01, 0.02, ..., 0.99."""
    return np.round(np.arange(1, 100) / 100.0, 2)


def hull_volume(points: np.ndarray) -> float:
    """Convex hull volume; 0.0 for degenerate point sets.

    Fewer than d+1 points, or points that are affinely dependent
    (collinear in 2-D, coplanar in 3-D, ...), span zero volume. Points
    whose largest |x| is 2^32 or more, or below 2^-33, are rescaled by
    :func:`~depthtest.depths.unit_scaled` first, and the volume scaled
    back; one past the float64 range raises DomainError. scipy.spatial
    (qhull) is imported here, so only scale curves load it.
    """
    from scipy.spatial import ConvexHull, QhullError

    n, d = points.shape
    if n < d + 1:
        return 0.0
    # qhull finds flat hulls (4-D data near 1e60) or crashes (near 1e180) far
    # from unit scale; nearer, data keep their units (qhull is not scale-exact).
    k, (scaled,) = unit_scaled(points)
    k, points = (k, scaled) if abs(k) > 32 else (0, points)
    if d == 1:
        volume = float(points.max() - points.min())
    else:
        try:
            volume = float(ConvexHull(points).volume)
        except QhullError:
            return 0.0
    try:
        return math.ldexp(volume, -k * d)
    except OverflowError:
        raise DomainError(f"hull volume {volume!r} x 2^{-k * d} exceeds the float64 range") from None


def scale_curve(sample, alphas, kind: DepthKind) -> ScaleCurve:
    """Hull volume of the central region at each central-mass fraction.

    ``alphas`` must be strictly increasing inside (0, 1]. The region at
    alpha holds the ceil(alpha n) deepest rows (at least one) and every
    row tied with the shallowest of them. The count reads alpha as the
    decimal it prints as, so 0.07 of 100 rows is 7 rows, not the 8 that
    ``ceil(0.07 * 100)`` gives in floating point. Depths are computed
    once, so the regions are exactly nested and the volume sequence is
    nondecreasing. They are the depth row of the sample as one group, a
    one-order :func:`~depthtest.depths.pooled_depths` call.
    """
    sample = as_sample_matrix(sample, "sample")
    alphas = np.asarray(alphas, dtype=float)
    if alphas.ndim != 1 or alphas.size == 0:
        raise ValueError("alphas must be a nonempty 1-D sequence")
    if np.any(alphas <= 0.0) or np.any(alphas > 1.0):
        raise ValueError("alphas must lie in (0, 1]")
    if np.any(np.diff(alphas) <= 0.0):
        raise ValueError("alphas must be strictly increasing")
    n = len(sample)
    depths = pooled_depths(sample[None], kind, np.arange(n)[None], [slice(0, n)])[0, 0]
    deepest_first = np.sort(depths)[::-1]
    volumes = []
    for alpha in alphas:
        count = max(1, math.ceil(Fraction(str(float(alpha))) * len(depths)))
        volumes.append(hull_volume(sample[depths >= deepest_first[count - 1]]))
    return ScaleCurve(alphas=alphas, volumes=np.array(volumes), depth_kind=kind)
