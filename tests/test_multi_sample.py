import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depthtest import DepthKind, QualityMatrix, evaluate_statistics, quality, quality_matrix
from depthtest.calibration import STATISTICS

MAHAL = DepthKind("mahalanobis")


def _matrix(entries, sizes):
    q = np.full((len(sizes), len(sizes)), np.nan)
    for (i, j), value in entries.items():
        q[i, j] = value
    return QualityMatrix(q=q, sizes=tuple(sizes))


def _formula(name, qm):
    """The statistic table's formula for ``name`` on one quality matrix."""
    return STATISTICS[name].formula(qm.q[None], qm.sizes)[0]


def _dbr(groups, kind):
    return evaluate_statistics(groups, ("dbr",), kind)["dbr"]


def test_constant_half_matrix_values():
    qm = _matrix(
        {(i, j): 0.5 for i in range(3) for j in range(3) if i != j}, (100, 100, 100)
    )
    assert _formula("min", qm) == 0.0
    assert _formula("product", qm) == pytest.approx(0.5**6)
    assert _formula("sum", qm) == pytest.approx(3.0)


def test_min_k_single_low_entry():
    entries = {(i, j): 0.5 for i in range(3) for j in range(3) if i != j}
    entries[(0, 1)] = 0.4
    qm = _matrix(entries, (100, 100, 100))
    assert _formula("min", qm) == pytest.approx(600.0**0.5 * 0.1, rel=1e-12)


def test_annihilating_entry():
    entries = {(i, j): 0.5 for i in range(3) for j in range(3) if i != j}
    entries[(2, 0)] = 0.0
    qm = _matrix(entries, (10, 10, 10))
    assert _formula("product", qm) == 0.0


def test_k2_reduction_matches_two_sample(any_kind, rng):
    x = rng.normal(size=(8, 2))
    y = rng.normal(size=(11, 2))
    qm = quality_matrix([x, y], any_kind)
    pair = quality(x, y, any_kind)
    assert qm.q[0, 1] == pair.q_fg
    assert qm.q[1, 0] == pair.q_gf


def test_three_groups_populate_six_entries(rng):
    groups = [rng.normal(size=(6, 2)) for _ in range(3)]
    qm = quality_matrix(groups, MAHAL)
    off = ~np.eye(3, dtype=bool)
    assert np.isfinite(qm.q[off]).sum() == 6
    assert np.isnan(qm.q[np.eye(3, dtype=bool)]).all()
    assert qm.k == 3


def test_identical_groups_entries(rng):
    x = rng.normal(size=(7, 2))
    qm = quality_matrix([x, x.copy(), x.copy()], MAHAL)
    n = 7
    off = ~np.eye(3, dtype=bool)
    assert np.allclose(qm.q[off], (n + 1) / (2 * n), atol=1e-12)


def test_entries_on_size_lattice(rng):
    groups = [rng.normal(size=(n, 2)) for n in (4, 6, 5)]
    qm = quality_matrix(groups, MAHAL)
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            scaled = qm.q[i, j] * qm.sizes[i] * qm.sizes[j]
            assert scaled == pytest.approx(round(scaled), abs=1e-9)


def test_group_relabeling_invariance(rng):
    groups = [rng.normal(size=(n, 2)) for n in (5, 7, 6)]
    qm = quality_matrix(groups, MAHAL)
    for perm in ((1, 0, 2), (2, 1, 0), (1, 2, 0)):
        shuffled = quality_matrix([groups[i] for i in perm], MAHAL)
        assert _formula("min", shuffled) == pytest.approx(_formula("min", qm), rel=1e-12)
        assert _formula("product", shuffled) == pytest.approx(_formula("product", qm), rel=1e-12)
        assert _formula("sum", shuffled) == pytest.approx(_formula("sum", qm), rel=1e-12)
        assert _dbr([groups[i] for i in perm], MAHAL) == pytest.approx(
            _dbr(groups, MAHAL), rel=1e-12
        )


def test_bounds_and_max_term(rng):
    groups = [rng.normal(size=(n, 2)) + shift for n, shift in ((5, 0.0), (8, 0.5), (6, 1.0))]
    qm = quality_matrix(groups, MAHAL)
    assert 0.0 <= _formula("product", qm) <= 1.0
    assert 0.0 <= _formula("sum", qm) <= qm.k * (qm.k - 1)
    best = _formula("min", qm)
    for i in range(qm.k):
        for j in range(qm.k):
            if i == j:
                continue
            scale = (1.0 / 12.0) * (1.0 / qm.sizes[i] + 1.0 / qm.sizes[j])
            assert best >= (0.5 - qm.q[i, j]) / scale**0.5 - 1e-12


def test_sum_monotone_in_entries():
    entries = {(i, j): 0.4 for i in range(3) for j in range(3) if i != j}
    low = _matrix(entries, (10, 10, 10))
    entries[(0, 1)] = 0.6
    high = _matrix(entries, (10, 10, 10))
    assert _formula("sum", high) > _formula("sum", low)


def test_needs_two_groups(rng):
    with pytest.raises(ValueError):
        quality_matrix([rng.normal(size=(5, 2))], MAHAL)


@pytest.mark.parametrize(
    "kind",
    (MAHAL, DepthKind("spatial"), DepthKind("projection", direction_count=64, direction_seed=2)),
    ids=lambda kind: kind.kind,
)
@settings(derandomize=True, database=None, deadline=None, max_examples=8)
@given(
    k=st.integers(2, 3),
    extra=st.lists(st.integers(0, 6), min_size=3, max_size=3),
    relabel=st.permutations(range(3)),
    seed=st.integers(0, 2**32 - 1),
)
def test_quality_statistics_ignore_group_labels(kind, k, extra, relabel, seed):
    # relabelling the groups permutes Q's rows and columns together; at
    # k = 2 a swap transposes Q and each statistic keeps its bits, at k = 3
    # product and sum multiply and add the indices in another order
    rng = np.random.default_rng(seed)
    groups = [rng.normal(size=(5 + e, 2)) for e in extra[:k]]
    order = [g for g in relabel if g < k]
    names = ("min", "max", "product", "sum") if k == 2 else ("min", "product", "sum")
    base = evaluate_statistics(groups, names, kind)
    relabelled = evaluate_statistics([groups[g] for g in order], names, kind)
    if k == 2:
        assert relabelled == base
    else:
        assert all(math.isclose(relabelled[n], base[n], rel_tol=1e-12) for n in names)
