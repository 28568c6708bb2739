"""CSV ingestion for group-labeled numeric datasets.

One column carries the group label (selected by header name or 0-based
index); every other column must parse as a decimal real. Groups are keyed
by label and ordered lexicographically; row order within a group follows
the file. All implemented statistics are label-symmetric and both directed
quality indices are always reported, so the group ordering never changes a
result.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import MissingGroupColumn, NonNumericCell, ParseError


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    """Groups keyed by label (lexicographic order), plus coordinate names."""

    groups: dict[str, np.ndarray]
    variable_names: tuple[str, ...]

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self.groups)

    def subset(self, labels) -> "LabeledDataset":
        missing = [lab for lab in labels if lab not in self.groups]
        if missing:
            raise MissingGroupColumn(f"unknown group labels: {missing}")
        picked = {lab: self.groups[lab] for lab in sorted(labels)}
        return LabeledDataset(groups=picked, variable_names=self.variable_names)


def load_csv(path, group_column, has_header: bool = True) -> LabeledDataset:
    """Load a labeled dataset; raises ParseError subclasses with row/column
    context on malformed input."""
    path = Path(path)
    with open(path, newline="", encoding="utf-8-sig") as handle:
        try:
            rows = list(csv.reader(handle))
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
    rows = [row for row in rows if row]
    if not rows:
        raise ParseError(f"{path}: file is empty")

    header: list[str] | None = None
    if has_header:
        header = [cell.strip() for cell in rows[0]]
        rows = rows[1:]
        if not rows:
            raise ParseError(f"{path}: no data rows after header")

    width = len(header) if header is not None else len(rows[0])
    if isinstance(group_column, int) or (isinstance(group_column, str) and group_column.isdigit()):
        group_idx = int(group_column)
        if not 0 <= group_idx < width:
            raise MissingGroupColumn(f"group column index {group_idx} out of range")
    else:
        if header is None:
            raise MissingGroupColumn("group column by name requires a header row")
        if group_column not in header:
            raise MissingGroupColumn(f"group column {group_column!r} not in header {header}")
        group_idx = header.index(group_column)

    if width < 2:
        raise ParseError(f"{path}: need at least one numeric column besides the group column")
    data: dict[str, list[list[float]]] = {}
    start = 2 if has_header else 1
    for offset, row in enumerate(rows):
        rownum = offset + start
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
    if header is not None:
        names = tuple(name for i, name in enumerate(header) if i != group_idx)
    else:
        names = tuple(f"x{i}" for i in range(width - 1))
    return LabeledDataset(groups=groups, variable_names=names)


def dump_csv(dataset: LabeledDataset, path, group_column_name: str = "group") -> None:
    """Write a dataset back out; reloading yields identical sample matrices."""
    path = Path(path)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(list(dataset.variable_names) + [group_column_name])
        for label, arr in dataset.groups.items():
            for row in arr:
                writer.writerow([repr(float(v)) for v in row] + [label])


def skulls_path() -> Path:
    """The bundled Egyptian skulls fixture.

    Four skull measurements (maximal breadth, basibregmatic height,
    basialveolar length, nasal height) for 30 male skulls in each of five
    epochs; public-domain measurements published by Thomson and
    Randall-Maciver (1905), long distributed with statistics software.
    """
    return Path(__file__).parent / "data" / "skulls.csv"
