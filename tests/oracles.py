"""Independent oracles used to pin the production paths.

Everything here is deliberately written the slow, obvious way (pure
Python loops, quadrature, continued fractions, a standalone hull) and
never imports the production implementations it checks.
"""

from __future__ import annotations

import csv
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
from scipy.spatial.distance import cdist
from scipy.special import ndtri

from depthtest.errors import MissingGroupColumn, NonNumericCell, ParseError


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


def exact_manova_eigenvalue(x, y) -> Fraction:
    """The one nonzero eigenvalue of S_W^{-1} S_B for two groups,
    (n1 n2 / N) d^T S_W^{-1} d with d the mean difference, in exact
    rational arithmetic on the given floats: S_W d' = d is solved by
    Gauss-Jordan elimination over Fractions."""
    groups = [[[Fraction(float(v)) for v in row] for row in np.asarray(g, dtype=float)]
              for g in (x, y)]
    p = len(groups[0][0])
    means = [[sum(row[j] for row in g) / len(g) for j in range(p)] for g in groups]
    diff = [a - b for a, b in zip(*means)]
    system = [
        [sum((row[i] - m[i]) * (row[j] - m[j]) for g, m in zip(groups, means) for row in g)
         for j in range(p)] + [diff[i]]
        for i in range(p)
    ]
    for c in range(p):
        pivot = next(r for r in range(c, p) if system[r][c] != 0)
        system[c], system[pivot] = system[pivot], system[c]
        for r in range(p):
            if r != c and system[r][c] != 0:
                f = system[r][c] / system[c][c]
                system[r] = [u - f * v for u, v in zip(system[r], system[c])]
    solution = [system[i][p] / system[i][i] for i in range(p)]
    n1, n2 = len(groups[0]), len(groups[1])
    return Fraction(n1 * n2, n1 + n2) * sum(u * v for u, v in zip(diff, solution))


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
# The k-sample limit law by the crude Monte-Carlo loop.
# ---------------------------------------------------------------------------

LIMIT_LAW_STREAM_TAG = 5  # the frozen stream tag of the limit-law draws


def limit_law_inside(u, x: float, sizes) -> int:
    """How many rows of the (draws, k) uniforms ``u`` give normals whose
    pair combinations c*z_i + c_tilde*z_j all lie in [-x, x]: every
    uniform through ``ndtri`` (0 nudged to the smallest normal double),
    then every pair checked."""
    k = len(sizes)
    z = ndtri(np.maximum(u, np.finfo(float).tiny))
    ok = np.ones(len(z), dtype=bool)
    for i in range(k):
        for j in range(i + 1, k):
            tot = sizes[i] + sizes[j]
            c, c_tilde = math.sqrt(sizes[j] / tot), math.sqrt(sizes[i] / tot)
            ok &= np.abs(c * z[:, i] + c_tilde * z[:, j]) <= x
    return int(ok.sum())


def crude_limit_law_pvalue(x: float, sizes, seed: int, draws: int, rows_per_chunk: int) -> float:
    """1 - (share of inside draws), the draws taken from the Philox stream
    (seed, tag) in chunks of ``rows_per_chunk`` k-vectors."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, LIMIT_LAW_STREAM_TAG])))
    inside = 0
    for first in range(0, draws, rows_per_chunk):
        rows = min(rows_per_chunk, draws - first)
        inside += limit_law_inside(rng.random((rows, len(sizes))), x, sizes)
    return 1.0 - inside / draws


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


def cdist_energy(x, y) -> float:
    """Energy statistic from scipy's cdist blocks of the two groups rescaled
    by the power of two that puts their largest |x| in [0.5, 1), then
    scaled back: the bits a one-partition evaluation must give."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    k = -int(np.frexp(max(np.abs(x).max(), np.abs(y).max()))[1])
    x, y = np.ldexp(x, k), np.ldexp(y, k)
    m, n = len(x), len(y)
    means = [float(cdist(a, b).mean()) for a, b in ((x, y), (x, x), (y, y))]
    return math.ldexp(m * n / (m + n) * (2.0 * means[0] - means[1] - means[2]), -k)


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


# ---------------------------------------------------------------------------
# CSV loading: csv.reader over a text handle and one float() per cell.
# ---------------------------------------------------------------------------


def load_csv_reference(path, group_column):
    """The row-by-row loader: (groups by sorted label, variable names), or
    the loader's exception with the same type and message. A csv module
    error names the line the reader had reached when it failed."""
    path = Path(path)
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            rows = list(reader)
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
        except csv.Error as exc:
            raise ParseError(f"{path}: line {reader.line_num}: {exc}") from None
    rows = [row for row in rows if row]
    if not rows:
        raise ParseError(f"{path}: file is empty")
    header = [cell.strip() for cell in rows[0]]
    rows = rows[1:]
    if not rows:
        raise ParseError(f"{path}: no data rows after header")

    width = len(header)
    positions = [i for i, name in enumerate(header) if name == group_column]
    digits = isinstance(group_column, int) or (
        isinstance(group_column, str) and group_column.isdecimal()
    )
    in_range = digits and 0 <= int(group_column) < width
    if in_range and set(positions) - {int(group_column)}:
        others = [i for i in positions if i != int(group_column)]
        raise MissingGroupColumn(
            f"group column {group_column!r} is ambiguous: as an index it selects column "
            f"{int(group_column)} ({header[int(group_column)]!r}), as a header name the column "
            f"at 0-based position(s) {others}; select that one by its index or rename it"
        )
    if in_range:
        group_idx = int(group_column)
    elif digits and not positions:
        raise MissingGroupColumn(f"group column index {int(group_column)} out of range")
    else:
        if not positions:
            raise MissingGroupColumn(f"group column {group_column!r} not in header {header}")
        if len(positions) > 1:
            raise MissingGroupColumn(
                f"group column {group_column!r} appears {len(positions)} times in the header, "
                f"at 0-based positions {positions}; select one by index"
            )
        group_idx = positions[0]

    if width < 2:
        raise ParseError(f"{path}: need at least one numeric column besides the group column")
    data = {}
    for rownum, row in enumerate(rows, start=2):
        if len(row) != width:
            raise ParseError(f"{path}: row {rownum} has {len(row)} fields, expected {width}")
        label = row[group_idx].strip()
        values = []
        for colnum, cell in enumerate(row):
            if colnum == group_idx:
                continue
            try:
                values.append(float(cell))
            except ValueError:
                raise NonNumericCell(
                    f"{path}: row {rownum}, column {colnum + 1}: {cell!r} is not numeric"
                ) from None
        data.setdefault(label, []).append(values)

    groups = {label: np.asarray(data[label], dtype=float) for label in sorted(data)}
    for label, arr in groups.items():
        if not np.all(np.isfinite(arr)):
            raise ParseError(f"{path}: group {label!r} contains non-finite values")
    names = tuple(name for i, name in enumerate(header) if i != group_idx)
    return groups, names
