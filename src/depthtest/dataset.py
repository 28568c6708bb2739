"""CSV ingestion for group-labeled numeric datasets.

The first row is the header. One column carries the group label,
selected by 0-based index or by header name, which must then occur once.
A string of digits is an index unless it is out of range, when it is a
name; digits that index one column and name another are refused. Every
other column must parse as a decimal real. Groups are keyed by
label and ordered lexicographically; row order within a group follows
the file. All implemented statistics are label-symmetric and both
directed quality indices are always reported, so the group ordering
never changes a result.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import operator
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import MissingGroupColumn, NonNumericCell, ParseError


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    """Groups keyed by label (lexicographic order), plus coordinate names
    and the SHA-256 hex digest of the file bytes they were parsed from
    (empty when not loaded from a file)."""

    groups: dict[str, np.ndarray]
    variable_names: tuple[str, ...]
    sha256: str = ""

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self.groups)

    def subset(self, labels) -> "LabeledDataset":
        missing = [lab for lab in labels if lab not in self.groups]
        if missing:
            raise MissingGroupColumn(f"unknown group labels: {missing}")
        picked = {lab: self.groups[lab] for lab in sorted(labels)}
        return replace(self, groups=picked)


def load_csv(path, group_column) -> LabeledDataset:
    """Load a labeled dataset whose first row is the header; raises
    ParseError subclasses with row/column context on malformed input.

    The file is read once, as bytes, and decoded in one call. Text with no
    ``"``, carriage return or NUL, and no line longer than the csv module's
    current ``field_size_limit()``, is split on newlines and then on
    commas, which for such text gives exactly the records ``csv.reader``
    gives; any other text goes through ``csv.reader``. The numeric cells of
    all rows are converted by one pass of ``float()`` into a (rows, d)
    array, and each group takes its rows by index. The row-by-row check
    that names the first ragged row or non-numeric cell in file order runs
    only when the bulk width check or conversion fails.
    """
    path = Path(path)
    rows, digest = _read_rows(path)
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
    if digits and 0 <= int(group_column) < width:
        group_idx = int(group_column)
        others = [i for i in positions if i != group_idx]
        if others:
            raise MissingGroupColumn(
                f"group column {group_column!r} is ambiguous: as an index it selects column "
                f"{group_idx} ({header[group_idx]!r}), as a header name the column at 0-based "
                f"position(s) {others}; select that one by its index or rename it"
            )
    elif digits and not positions:
        raise MissingGroupColumn(f"group column index {int(group_column)} out of range")
    elif not positions:
        raise MissingGroupColumn(f"group column {group_column!r} not in header {header}")
    elif len(positions) > 1:
        raise MissingGroupColumn(
            f"group column {group_column!r} appears {len(positions)} times in the header, "
            f"at 0-based positions {positions}; select one by index"
        )
    else:
        group_idx = positions[0]

    if width < 2:
        raise ParseError(f"{path}: need at least one numeric column besides the group column")
    if any(len(row) != width for row in rows):
        _raise_first_error(path, rows, width, group_idx)
    numeric = operator.itemgetter(*(i for i in range(width) if i != group_idx))
    # with one numeric column the getter returns the cell itself, not a tuple
    cells = map(numeric, rows) if width == 2 else itertools.chain.from_iterable(map(numeric, rows))
    try:
        values = np.fromiter(map(float, cells), dtype=float, count=len(rows) * (width - 1))
    except ValueError:
        _raise_first_error(path, rows, width, group_idx)
        raise
    values = values.reshape(len(rows), width - 1)

    members: dict[str, list[int]] = {}
    for i, row in enumerate(rows):
        members.setdefault(row[group_idx].strip(), []).append(i)
    groups = {label: values[members[label]] for label in sorted(members)}
    for label, arr in groups.items():
        if not np.all(np.isfinite(arr)):
            raise ParseError(f"{path}: group {label!r} contains non-finite values")
    names = tuple(name for i, name in enumerate(header) if i != group_idx)
    return LabeledDataset(groups=groups, variable_names=names, sha256=digest)


def _read_rows(path: Path) -> tuple[list[list[str]], str]:
    """The file's CSV records (a blank line may give an empty one) and the
    SHA-256 hex digest of the bytes they were parsed from."""
    raw = path.read_bytes()
    digest = hashlib.sha256(raw).hexdigest()
    try:
        text = raw.decode("utf-8-sig")
    except UnicodeDecodeError:
        pass  # the reader below decodes as it parses, so errors keep file order
    else:
        if not ('"' in text or "\r" in text or "\0" in text):
            lines = text.split("\n")
            if max(map(len, lines)) <= csv.field_size_limit():
                return [line.split(",") for line in lines if line], digest
    with io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8-sig", newline="") as handle:
        return _records(path, handle), digest


def _records(path: Path, handle) -> list[list[str]]:
    """``csv.reader`` over ``handle``, its failures as ParseError."""
    reader = csv.reader(handle)
    rows = []
    start = 1  # the line on which the next record begins
    try:
        for row in reader:
            rows.append(row)
            start = reader.line_num + 1
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:  # an unmatched quote can swallow the file into one field
        raise ParseError(f"{path}: line {start}: {exc}") from None
    return rows


def _raise_first_error(path: Path, rows, width: int, group_idx: int) -> None:
    """Raise for the first ragged row or non-numeric cell in file order."""
    for rownum, row in enumerate(rows, start=2):
        if len(row) != width:
            raise ParseError(f"{path}: row {rownum} has {len(row)} fields, expected {width}")
        for colnum, cell in enumerate(row):
            if colnum == group_idx:
                continue
            try:
                float(cell)
            except ValueError:
                raise NonNumericCell(
                    f"{path}: row {rownum}, column {colnum + 1}: {cell!r} is not numeric"
                ) from None


def skulls_path() -> Path:
    """The bundled Egyptian skulls fixture.

    Four skull measurements (maximal breadth, basibregmatic height,
    basialveolar length, nasal height) for 30 male skulls in each of five
    epochs; public-domain measurements published by Thomson and
    Randall-Maciver (1905), long distributed with statistics software.
    """
    return Path(__file__).parent / "data" / "skulls.csv"
