"""Sample-matrix coercion and validation.

A sample set is an (n, d) float array: n observations in d coordinates.
Every public operation funnels its inputs through :func:`as_sample_matrix`
so the finiteness/shape invariants hold package-wide. A list of groups is
validated once by :func:`coerce_groups` and stacked into one pooled matrix
whose consecutive row blocks (:func:`group_slices`) are the groups.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from .errors import DimensionMismatch


def as_sample_matrix(data, name: str = "sample") -> np.ndarray:
    """Coerce array-like input to a validated (n, d) float matrix.

    1-D input is treated as n univariate observations. Raises ValueError
    on empty, ragged, non-finite, or more-than-2-D input.
    """
    arr = np.asarray(data, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be a 2-D matrix, got ndim={arr.ndim}")
    n, d = arr.shape
    if n < 1 or d < 1:
        raise ValueError(f"{name} must have at least one row and one column, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def require_same_dimension(x: np.ndarray, y: np.ndarray) -> int:
    """Return the common column count of two sample matrices or raise."""
    if x.shape[1] != y.shape[1]:
        raise DimensionMismatch(
            f"column counts differ: {x.shape[1]} vs {y.shape[1]}"
        )
    return x.shape[1]


def coerce_groups(groups) -> tuple[np.ndarray, list[int]]:
    """Validate a list of >= 2 sample matrices sharing one dimension.

    Returns the groups stacked in order into one pooled matrix, and the
    group sizes.
    """
    mats = [as_sample_matrix(g, f"group {i}") for i, g in enumerate(groups)]
    if len(mats) < 2:
        raise ValueError("need at least 2 groups")
    for other in mats[1:]:
        require_same_dimension(mats[0], other)
    return np.vstack(mats), [m.shape[0] for m in mats]


def group_slices(sizes) -> list[slice]:
    """Row block of each group in a pooled matrix stacked in group order.

    Plain Python: it runs once per statistic engine and once per simulation
    chunk, on k sizes, where numpy's per-call overhead would outweigh the
    work.
    """
    return [slice(end - size, end) for size, end in zip(sizes, accumulate(sizes))]
