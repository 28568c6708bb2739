"""Independent oracles used to pin the production paths.

Everything here is deliberately written the slow, obvious way (pure
Python loops, quadrature, continued fractions, a standalone hull) and
never imports the production implementations it checks.
"""

from __future__ import annotations

import math

import numpy as np


# ---------------------------------------------------------------------------
# Normal CDF by Simpson quadrature of the density.
# ---------------------------------------------------------------------------


def norm_cdf_quadrature(x: float, intervals: int = 4096) -> float:
    """Phi(x) = 1/2 + integral_0^x phi(t) dt, Simpson rule; |err| < 1e-12
    for |x| <= 8 at the default resolution."""
    if x < 0.0:
        return 1.0 - norm_cdf_quadrature(-x, intervals)
    if x > 40.0:
        return 1.0
    h = x / intervals
    grid = np.arange(intervals + 1) * h
    dens = np.exp(-0.5 * grid * grid) / math.sqrt(2.0 * math.pi)
    weights = np.ones(intervals + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return 0.5 + float(np.dot(weights, dens)) * h / 3.0


# ---------------------------------------------------------------------------
# F distribution upper tail via the regularized incomplete beta function.
# ---------------------------------------------------------------------------


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    max_iter, eps, fpmin = 300, 1e-15, 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < fpmin:
        d = fpmin
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            break
    return h


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    log_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(log_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b


def f_sf_oracle(value: float, df1: int, df2: int) -> float:
    """P(F_{df1, df2} > value)."""
    if value <= 0.0:
        return 1.0
    w = df2 / (df2 + df1 * value)
    return regularized_incomplete_beta(df2 / 2.0, df1 / 2.0, w)


# ---------------------------------------------------------------------------
# 2-D hull area: monotone chain + shoelace, no scipy.
# ---------------------------------------------------------------------------


def shoelace_hull_area(points: np.ndarray) -> float:
    pts = sorted(map(tuple, np.asarray(points, dtype=float)))
    if len(pts) < 3:
        return 0.0

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        return 0.0
    area = 0.0
    for i in range(len(hull)):
        x0, y0 = hull[i]
        x1, y1 = hull[(i + 1) % len(hull)]
        area += x0 * y1 - x1 * y0
    return abs(area) / 2.0


# ---------------------------------------------------------------------------
# Spatial depth, one query point and one reference row at a time.
# ---------------------------------------------------------------------------


def spatial_depth_brute(query, reference) -> list[float]:
    """1 - ||mean_i (x - x_i) / ||x - x_i|| ||, skipping coincident points."""
    ref = [[float(v) for v in row] for row in np.asarray(reference, dtype=float)]
    out = []
    for x in np.asarray(query, dtype=float):
        acc = [0.0] * len(ref[0])
        for xi in ref:
            diff = [float(a) - b for a, b in zip(x, xi)]
            norm = math.sqrt(sum(v * v for v in diff))
            if norm == 0.0:
                continue
            for j, v in enumerate(diff):
                acc[j] += v / norm
        length = math.sqrt(sum((a / len(ref)) ** 2 for a in acc))
        out.append(min(max(1.0 - length, 0.0), 1.0))
    return out


# ---------------------------------------------------------------------------
# Depth rows of an arranged pooled sample, one depth call per group.
# ---------------------------------------------------------------------------


def arranged_depth_rows(arranged, sizes, depth) -> list:
    """Depths of every row of ``arranged`` against each consecutive block of
    ``sizes`` rows, by ``depth(query, reference)`` on the arranged rows
    themselves, with no geometry shared between groups or partitions."""
    rows, start = [], 0
    for size in sizes:
        rows.append(depth(arranged, arranged[start : start + size]))
        start += size
    return rows


# ---------------------------------------------------------------------------
# Brute-force rank statistics from given pooled depth rows.
# ---------------------------------------------------------------------------


def brute_depth_ranks(depths) -> list[int]:
    return [sum(1 for other in depths if other >= value) for value in depths]


def brute_dbr(depth_rows, sizes) -> float:
    total = sum(sizes)
    t = len(sizes)
    bounds = [0]
    for s in sizes:
        bounds.append(bounds[-1] + s)
    acc = 0.0
    for row in depth_rows:
        ranks = brute_depth_ranks(list(row))
        for j in range(t):
            rank_sum = float(sum(ranks[bounds[j] : bounds[j + 1]]))
            acc += rank_sum**2 / sizes[j]
    return 12.0 / (total * (total + 1.0) * t) * acc - 3.0 * (total + 1.0)


def _brute_distinct_ranks(depths) -> list[int]:
    order = sorted(range(len(depths)), key=lambda i: (-depths[i], i))
    ranks = [0] * len(depths)
    for position, idx in enumerate(order, start=1):
        ranks[idx] = position
    return ranks


def brute_bdbr(depth_row_1, depth_row_2, n1: int, n2: int) -> float:
    total = n1 + n2

    def aggregate(ordered, own, other):
        acc = 0.0
        for j, rank in enumerate(ordered, start=1):
            frac = j / (own + 1.0)
            expect = (total + 1.0) * frac
            var = frac * (1.0 - frac) * other * (total + 1.0) / (own + 2.0)
            acc += (rank - expect) ** 2 / var
        return acc / own

    ranks1 = _brute_distinct_ranks(list(depth_row_1))
    ranks2 = _brute_distinct_ranks(list(depth_row_2))
    b1 = aggregate(sorted(ranks1[n1:]), n2, n1)
    b2 = aggregate(sorted(ranks2[:n1]), n1, n2)
    return max(b1, b2)


# ---------------------------------------------------------------------------
# Brute-force baselines.
# ---------------------------------------------------------------------------


def brute_energy(x, y) -> float:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    m, n = len(x), len(y)

    def mean_dist(a, b):
        acc = 0.0
        for p in a:
            for q in b:
                acc += math.sqrt(float(np.sum((p - q) ** 2)))
        return acc / (len(a) * len(b))

    e_hat = 2.0 * mean_dist(x, y) - mean_dist(x, x) - mean_dist(y, y)
    return m * n / (m + n) * e_hat


def brute_cramer(x, y) -> float:
    xv = [float(v) for v in np.asarray(x, dtype=float).ravel()]
    yv = [float(v) for v in np.asarray(y, dtype=float).ravel()]
    m, n = len(xv), len(yv)
    pooled = xv + yv
    acc = 0.0
    for z in pooled:
        fx = sum(1 for v in xv if v <= z) / m
        fy = sum(1 for v in yv if v <= z) / n
        acc += (fx - fy) ** 2
    return m * n / (m + n) * acc / (m + n)


def brute_quality_counts(ref_depths, other_depths) -> float:
    total = 0
    for dv in other_depths:
        for rv in ref_depths:
            if rv <= dv:
                total += 1
    return total / (len(ref_depths) * len(other_depths))
