"""Tabular results surface shared by the sweep operations.

Rows are kept in scan order.  A table stores one numpy array per column
plus an NA mask for points where a measurement could not complete; NA
cells are emitted as the explicit marker ``NA`` rather than NaN so
downstream CSV consumers can tell a failed point from a numeric zero.

CSV text is built one block of rows at a time, a cell as 32 NUL-padded
bytes whose last is the separator; one transposing copy puts a block's
cells in row order and one ``translate`` drops the NULs.  The float
columns of a block, and its int columns within +-2^53 (exact as floats,
and printed by ``str`` as their integral floats are), go through one
``_shortest`` call; a plain sort of the block's bits hands it each
distinct value once.  Bool columns are their bytes plus "0"; ints past
2^53 take ``str``.  ``_shortest`` gives each float exactly the text of
``format_number`` without ``repr``.  It scales |x| to S = |x| 10^p in
[1e16, 1e17) as an int64 plus a fraction by Dekker's exact product
(exact for p <= 22; up to p = 44, 10^p is an exact double-double and S
errs by under 1e-14).  repr's digits are the multiple of 10^J nearest S
for the largest J within half an ulp of S (under 12); at most one
multiple of 100 lies that close, so J = 0, J = 1 and that multiple with
its trailing zeros are all there is to check.  A decision within 1e-6 of
its boundary, a power of two outside [1, 1e16) (half the gap below),
nonzero |x| outside [1e-27, 1e17), nan and inf go to ``repr``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SweepTable", "format_number", "write_text"]

NA_MARKER = "NA"
_CSV_BLOCK = 3072


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


def _exact_as_float(values: np.ndarray) -> bool:
    """Whether every cell of a column has the text of its float64 in
    ``_shortest``: floats, and ints within +-2^53 (exact as floats, and
    below 1e16, so their integral floats print as ``str`` prints them)."""
    if values.dtype.kind == "f":
        return True
    return values.dtype.kind in "iu" and -(2**53) <= int(values.min()) and int(values.max()) <= 2**53


def _block_cells(block: list) -> np.ndarray:
    """A block of rows, given as one (values, na) pair per column, as a
    (columns, rows, width) uint8 array: a cell per row of ``width`` >=
    ``_CELL`` bytes, NUL-padded (dropped when the block is joined), its
    last byte the separator.  The cells of every column that
    ``_exact_as_float`` admits are formatted together, by one
    ``_shortest`` call."""
    joint = [i for i, (values, _) in enumerate(block) if _exact_as_float(values)]
    texts = {}
    for i, (values, _) in enumerate(block):
        if values.dtype == bool:
            texts[i] = (values.view(np.uint8) + 48)[:, None]
        elif i not in joint:  # ints past 2^53, or an object column such as Python ints past int64
            strs = list(map(str if values.dtype.kind in "iu" else format_number, values.tolist()))
            texts[i] = np.array(strs, dtype=bytes).view(np.uint8).reshape(len(strs), -1)
    width = max([_CELL] + [text.shape[1] + 1 for text in texts.values()])
    if joint:
        stacked = np.array([np.where(block[i][1], 0, block[i][0]) for i in joint], dtype=float)
        joint_cells = per_distinct(stacked.ravel(), _shortest).reshape(len(joint), -1, _CELL)
    if texts:
        cells = np.zeros((len(block), len(block[0][0]), width), np.uint8)
        if joint:
            cells[joint, :, :_CELL] = joint_cells
        for i, text in texts.items():
            cells[i, :, : text.shape[1]] = text
    else:
        cells = joint_cells
    for column, (_, na) in zip(cells, block):
        if na.any():
            column[na] = 0
            column[na, :2] = np.frombuffer(NA_MARKER.encode(), np.uint8)
    cells[:, :, -1] = ord(",")
    cells[-1, :, -1] = ord("\n")
    return cells


def per_distinct(values: np.ndarray, fmt) -> np.ndarray:
    """``fmt`` (float array -> array, a row per value) once per distinct
    bit pattern of ``values`` (-0.0 and 0.0 stay apart), gathered into
    place.  A plain sort of the bits finds the distinct values: with no
    two neighbours equal, ``fmt`` takes ``values`` as they are."""
    bits = values.view(np.int64)
    ordered = np.sort(bits)
    heads = ordered[1:] != ordered[:-1]
    if heads.all():
        return fmt(values)
    distinct = ordered[np.concatenate(([True], heads))]
    return np.take(fmt(distinct.view(values.dtype)), np.searchsorted(distinct, bits), axis=0)


# Tables of _shortest.  10^p = hi + lo exactly for p <= 44 (5^44 has 103
# bits); Dekker splits hi in halves of 26 bits.
_POW10 = [10**p for p in range(45)]
_SPLIT = 134217729.0  # 2**27 + 1
_P_HI = np.array(_POW10, dtype=float)
_P_HI_HI = _P_HI * _SPLIT - (_P_HI * _SPLIT - _P_HI)
_P = np.array([_P_HI, _P_HI_HI, _P_HI - _P_HI_HI,
               [n - int(h) for n, h in zip(_POW10, _P_HI.tolist())]], dtype=float)
# A cell is 4 little-endian int64 words (32 bytes): the sign, "0." and up
# to 3 zeros, then the leading digit in byte 6 and, when a point follows
# it, the point in byte 7; digits 1-16, one a byte, in words 1-2; "e-dd"
# in word 3.  Only the fixed layout with 1 <= e10 <= 15 puts the point
# among the digits, shifting those after it a byte right; word 3 is zero
# there, so the digits never reach a tail.  Byte 31 is always padding.
_CELL = 32
_MOD10 = np.arange(100) % 10
_HI2 = np.arange(10_000) // 100
_LO2 = np.arange(10_000) - 100 * _HI2
_QUAD = ((np.arange(10_000)[:, None] // [1000, 100, 10, 1] % 10 + 48) << [0, 8, 16, 24]).sum(axis=1)
# S's digits 1-16 come in 4 groups of 4; a nonzero group i puts the end of
# the significant digits at its last nonzero digit, the leading digit at 1
_LAST_NZ = np.sign(np.arange(100)) + (_MOD10 > 0)
_SIG = np.where(_LO2 > 0, 2 + _LAST_NZ[_LO2], _LAST_NZ[_HI2]) + np.arange(1, 16, 4)[:, None]
_SIG[:, 0] = [1, 0, 0, 0]
_BYTES = np.array([(1 << 8 * i) - 1 for i in range(9)], np.uint64).view(np.int64)  # the low i bytes
_E_MIN, _E_MAX = -28, 17


def _layouts():
    """Per exponent e10 of the leading digit, from ``_E_MIN``: word 0 with
    the sign (plain, then "-") and "0." with its zeros, word 3 ("e-dd"),
    the last digit before the point, and the digit count past which a
    point follows it.  repr writes -4 <= e10 <= 15 in fixed layout."""
    head, tail, last, point_after = [], [], [], []
    for e in range(_E_MIN, _E_MAX + 1):
        fixed = -4 <= e <= 15
        prefix = "0." + "0" * (-e - 1) if fixed and e < 0 else ""
        head += [int.from_bytes((sign + prefix).encode(), "little") for sign in ("", "-")]
        tail.append(0 if fixed else int.from_bytes(f"e{e:+03d}".encode(), "little"))
        last.append(max(e, 0) if fixed else 0)
        point_after.append(17 if fixed and e < 0 else last[-1] + 1)
    return tuple(map(np.array, (head, tail, last, point_after)))


_HEAD, _TAIL, _LAST, _POINT_AFTER = _layouts()


def _scaled(a: np.ndarray, p: np.ndarray):
    """a * 10**p as int64 n and a fraction f, with 10**p's high part."""
    hi, h_hi, h_lo, lo = np.take(_P, p, axis=1)
    prod = a * hi
    a_hi = a * _SPLIT - (a * _SPLIT - a)
    a_lo = a - a_hi
    t = (((a_hi * h_hi - prod) + a_hi * h_lo + a_lo * h_hi) + a_lo * h_lo) + a * lo
    whole = np.floor(t)
    return prod.astype(np.int64) + whole.astype(np.int64), np.subtract(t, whole, out=t), hi


def _shortest(x: np.ndarray) -> np.ndarray:
    """``format_number`` of each float64 of ``x`` as a row of ``_CELL``
    bytes, NUL-padded."""
    bits = x.view(np.int64)
    a = np.abs(x)
    zero = a == 0
    slow = ~(zero | ((a >= 1e-27) & (a < 1e17)))
    slow |= ((bits & 0xFFFFFFFFFFFFF) == 0) & ((a < 1) | (a >= 1e16)) & ~zero
    a[slow | zero] = 1.0
    p = np.maximum(16 - np.floor(np.log10(a)).astype(np.int64), 0)  # at most 44
    n, f, hi = _scaled(a, p)
    off = (n < 10**16) | (n >= 10**17)  # log10 rounded across a power of 10
    if off.any():
        p[off] = np.clip(p[off] + np.where(n[off] < 10**16, 1, -1), 0, 44)
        n[off], f[off], hi[off] = _scaled(a[off], p[off])
        slow |= (n < 10**16) | (n >= 10**17)
    # half an ulp of a, from its exponent bits, in units of S
    h = ((a.view(np.int64) & 0x7FF0000000000000) - (53 << 52)).view(float) * hi
    del a, hi
    n100, r100 = np.divmod(n, 100)
    r10 = np.take(_MOD10, r100)
    d100, d10 = r100 + f, r10 + f
    del r100
    up100, up10 = d100 > 50, d10 > 5
    dist100 = np.where(up100, 100 - d100, d100)
    del d100
    j100 = dist100 < h
    # a decision near its boundary, where it counts, takes repr's path
    np.subtract(dist100, h, out=dist100)
    slow |= np.abs(dist100, out=dist100) < 1e-6
    del dist100
    dist10 = np.where(up10, 10 - d10, d10)
    j10 = dist10 < h
    np.subtract(dist10, h, out=dist10)
    near = np.abs(dist10, out=dist10) < 1e-6
    del dist10, h
    d10 -= 5
    f -= 0.5
    near |= np.abs(np.where(j10, d10, f)) < 1e-6
    slow |= ~j100 & near
    del near, d10
    n = np.where(j100, (n100 + up100) * 100, np.where(j10, n - r10 + 10 * up10, n + (f > 0)))
    del f, n100, r10, up100, up10, j100, j10
    e = 16 - _E_MIN - p  # the row of e10 in the layout tables
    top = n == 10**17
    n[top] = 10**16
    e += top
    lead = n // 10**16
    n -= lead * 10**16
    lead[zero] = 0
    last = np.take(_LAST, e)
    hi8, lo8 = divmod(n, 10**8)
    del n
    groups = (*divmod(hi8, 10**4), *divmod(lo8, 10**4))
    del hi8, lo8
    lo = np.take(_QUAD, groups[0]) | np.take(_QUAD, groups[1]) << 32
    hi = np.take(_QUAD, groups[2]) | np.take(_QUAD, groups[3]) << 32
    nsig = np.take(_SIG[0], groups[0])
    for i in range(1, 4):
        np.maximum(nsig, np.take(_SIG[i], groups[i]), out=nsig)
    del groups
    keep = np.maximum(nsig, last + 1) - 1  # digits 1-16 written
    lo &= np.take(_BYTES, np.minimum(keep, 8))
    hi &= np.take(_BYTES, np.maximum(keep, 8) - 8)
    point = nsig > np.take(_POINT_AFTER, e)
    del nsig, keep
    words = np.empty((x.size, 4), np.int64)
    words[:, 0] = np.take(_HEAD, 2 * e + (bits < 0)) | (lead + 48) << 48 | (point & (last == 0)) * (46 << 56)
    del lead
    # the point among digits 1-16 goes at byte `at` of words 1-2, the
    # bytes from there on moving one up (16: no point there)
    at = np.where(point & (last > 0), last, 16)
    del point, last
    lo_keep, hi_keep = np.take(_BYTES, np.minimum(at, 8)), np.take(_BYTES, np.maximum(at, 8) - 8)
    lo_move, hi_move = lo & ~lo_keep, hi & ~hi_keep
    words[:, 1] = (lo & lo_keep) | lo_move << 8 | (lo_keep + 1) * 46
    words[:, 2] = (hi & hi_keep) | hi_move << 8 | lo_move >> 56 | (hi_keep + 1) * 46 * (at >= 8)
    words[:, 3] = np.take(_TAIL, e) | hi_move >> 56
    cells = words.view(np.uint8)
    slow = np.flatnonzero(slow)
    return _fill(cells, slow, [format_number(v) for v in x[slow].tolist()])


def _fill(cells: np.ndarray, rows: np.ndarray, texts: list) -> np.ndarray:
    """``cells`` with ``rows`` set to ``texts`` (ASCII), NUL-padded, and
    widened if a text is longer than a row."""
    if not texts:
        return cells
    text = np.array(texts, dtype=bytes)
    text = text.view(np.uint8).reshape(len(texts), -1)
    if text.shape[1] > cells.shape[1]:
        cells = np.pad(cells, ((0, 0), (0, text.shape[1] - cells.shape[1])))
    cells[rows] = 0
    cells[rows, : text.shape[1]] = text
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
            cells = _block_cells([(values[rows], na[rows]) for values, na in data])
            # one copy to row order; the NUL padding goes in one translate
            yield cells.transpose(1, 0, 2).tobytes().translate(None, b"\0").decode("ascii")

    def to_csv_string(self) -> str:
        return "".join(self._csv_pieces())

    def to_csv(self, dest) -> None:
        """Write the table to a path or text stream (UTF-8, LF endings)."""
        write_text(dest, self._csv_pieces())

    def __len__(self) -> int:
        return len(self._data()[0][0]) if self.columns else 0
