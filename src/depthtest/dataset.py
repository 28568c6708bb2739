"""CSV ingestion for group-labeled numeric datasets.

The first row is the header. One column carries the group label,
selected by 0-based index or by header name, which must then occur once;
every other column must parse as a decimal real. Groups are keyed by
label and ordered lexicographically; row order within a group follows
the file. All implemented statistics are label-symmetric and both
directed quality indices are always reported, so the group ordering
never changes a result.
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


def load_csv(path, group_column) -> LabeledDataset:
    """Load a labeled dataset whose first row is the header; raises
    ParseError subclasses with row/column context on malformed input."""
    path = Path(path)
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            rows = list(reader)
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
        except csv.Error as exc:  # an unmatched quote can swallow the file into one field
            raise ParseError(f"{path}: line {reader.line_num}: {exc}") from None
    rows = [row for row in rows if row]
    if not rows:
        raise ParseError(f"{path}: file is empty")
    header = [cell.strip() for cell in rows[0]]
    rows = rows[1:]
    if not rows:
        raise ParseError(f"{path}: no data rows after header")

    width = len(header)
    if isinstance(group_column, int) or (isinstance(group_column, str) and group_column.isdigit()):
        group_idx = int(group_column)
        if not 0 <= group_idx < width:
            raise MissingGroupColumn(f"group column index {group_idx} out of range")
    else:
        positions = [i for i, name in enumerate(header) if name == group_column]
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
    data: dict[str, list[list[float]]] = {}
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
    return LabeledDataset(groups=groups, variable_names=names)


def skulls_path() -> Path:
    """The bundled Egyptian skulls fixture.

    Four skull measurements (maximal breadth, basibregmatic height,
    basialveolar length, nasal height) for 30 male skulls in each of five
    epochs; public-domain measurements published by Thomson and
    Randall-Maciver (1905), long distributed with statistics software.
    """
    return Path(__file__).parent / "data" / "skulls.csv"
