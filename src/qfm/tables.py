"""Tabular results surface shared by the sweep operations.

Rows are kept in scan order.  A table stores one numpy array per column
plus an NA mask for points where a measurement could not complete; NA
cells are emitted as the explicit marker ``NA`` rather than NaN so
downstream CSV consumers can tell a failed point from a numeric zero.
A float column is formatted once per distinct value in each block of
rows, and the strings are gathered back into place.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SweepTable", "format_number", "write_text"]

NA_MARKER = "NA"
_CSV_BLOCK = 2048


def format_number(x) -> str:
    """Render a number for CSV output.

    Floats use their shortest exact representation so a written file
    parses back to bit-identical values; integral floats drop the
    trailing ``.0`` (0.0 -> ``0``).
    """
    if x is None:
        return NA_MARKER
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    r = repr(float(x))
    return r[:-2] if r.endswith(".0") else r


def _format_column(values: np.ndarray, na: np.ndarray) -> list:
    """``format_number`` over a whole column."""
    if values.dtype == bool:
        cells = ["1" if v else "0" for v in values.tolist()]
    elif values.dtype.kind in "iu":
        cells = list(map(str, values.tolist()))
    elif values.dtype.kind == "f":
        cells = _format_distinct(values.astype(float, copy=False), _repr_cells)
    else:  # an object column, such as Python ints past int64
        cells = list(map(format_number, values.tolist()))
    for i in np.flatnonzero(na).tolist():
        cells[i] = NA_MARKER
    return cells


def _format_distinct(values: np.ndarray, fmt) -> list:
    """``fmt`` (float array -> list of str) applied once per distinct bit
    pattern of ``values`` (-0.0 and 0.0 stay apart), gathered into place."""
    _, first, inverse = np.unique(values.view(np.int64), return_index=True, return_inverse=True)
    if first.size == values.size:
        return fmt(values)
    return np.array(fmt(values[first]), dtype=object)[inverse].tolist()


def _repr_cells(values: np.ndarray) -> list:
    # shortest repr; only an integral value's repr can end in ".0"
    cells = list(map(repr, values.tolist()))
    for i in np.flatnonzero(values == np.trunc(values)).tolist():
        cells[i] = cells[i].removesuffix(".0")
    return cells


def write_text(dest, text) -> None:
    """Write text, or an iterable of text pieces, to a path or a text
    stream (UTF-8, LF endings)."""
    pieces = [text] if isinstance(text, str) else text
    if hasattr(dest, "write"):
        dest.writelines(pieces)
    else:
        with open(dest, "w", encoding="utf-8", newline="\n") as f:
            f.writelines(pieces)


class SweepTable:
    """Column-labelled result rows from a parameter sweep."""

    def __init__(self, columns):
        self.columns = tuple(columns)
        # blocks of rows as added: one (values, na) pair per column
        self._blocks = []

    def append(self, *values):
        """Add one row; None marks an NA cell."""
        self.extend(
            *([False if v is None else v] for v in values), na=[[v is None] for v in values]
        )

    def extend(self, *columns, na=None):
        """Add a block of rows given as one equal-length array per column;
        ``na`` holds, per column, None or a boolean mask of its NA cells.
        The arrays are kept as given (raveled), not copied."""
        if len(columns) != len(self.columns):
            raise ValueError(
                f"row has {len(columns)} cells, table has {len(self.columns)} columns"
            )
        block = [
            (np.ravel(c), np.zeros(np.size(c), dtype=bool) if m is None else np.ravel(m))
            for c, m in zip(columns, na or [None] * len(columns))
        ]
        if len({values.shape for values, _ in block}) > 1:
            raise ValueError("columns of a block must have equal length")
        self._blocks.append(block)

    def _data(self) -> list:
        """One (values, na) pair per column, the blocks joined (a bool
        block, such as an NA cell's, gives way to an int or float one);
        a table of one block returns it without a copy."""
        if not self._blocks:
            empty = np.zeros(0, dtype=bool)
            return [(empty, empty)] * len(self.columns)
        if len(self._blocks) > 1:
            self._blocks = [[tuple(map(np.concatenate, zip(*pairs))) for pairs in zip(*self._blocks)]]
        return self._blocks[0]

    def _pair(self, name: str):
        return self._data()[self.columns.index(name)]

    def column(self, name: str) -> np.ndarray:
        """One column as a float array; NA cells come back as NaN."""
        values, na = self._pair(name)
        out = values.astype(float)
        out[na] = np.nan
        return out

    def cells(self, name: str) -> list:
        """One column as Python numbers, None in NA cells."""
        values, na = self._pair(name)
        return [None if m else v for v, m in zip(values.tolist(), na.tolist())]

    @property
    def rows(self) -> list:
        """Row tuples in scan order, None in NA cells."""
        return list(zip(*(self.cells(name) for name in self.columns)))

    def na_rows(self) -> int:
        """The number of rows with at least one NA cell."""
        masks = [na for _, na in self._data()]
        return int(np.logical_or.reduce(masks).sum()) if masks else 0

    def _csv_pieces(self):
        # the header, then blocks of rows, so only one block's text exists at a time
        data = self._data()
        yield ",".join(self.columns) + "\n"
        for start in range(0, len(self), _CSV_BLOCK):
            rows = slice(start, start + _CSV_BLOCK)
            cells = zip(*(_format_column(values[rows], na[rows]) for values, na in data))
            yield "\n".join(map(",".join, cells)) + "\n"

    def to_csv_string(self) -> str:
        return "".join(self._csv_pieces())

    def to_csv(self, dest) -> None:
        """Write the table to a path or text stream (UTF-8, LF endings)."""
        write_text(dest, self._csv_pieces())

    def __len__(self) -> int:
        return len(self._data()[0][0]) if self.columns else 0
