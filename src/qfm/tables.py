"""Tabular results surface shared by the sweep operations.

Rows are kept in scan order.  A table stores one numpy array per column
plus an NA mask for points where a measurement could not complete; NA
cells are emitted as the explicit marker ``NA`` rather than NaN so
downstream CSV consumers can tell a failed point from a numeric zero.

CSV text is built one block of rows at a time.  The float columns of a
block, and its int columns within +-2^53 (exact as floats, and printed
by ``str`` as their integral floats are), go through one ``_shortest``
call; a plain sort of the block's bits hands it each distinct value once.
Bool columns are their bytes plus "0"; ints past 2^53 take ``str``.
``_shortest`` gives each float exactly the text of ``format_number``
without ``repr``.
It scales |x| to S = |x| 10^p in [1e16, 1e17) as an int64 plus a fraction
by Dekker's exact product (exact for p <= 22; up to p = 44, 10^p is an
exact double-double and S errs by under 1e-14).  repr's digits are the
multiple of 10^J nearest S for the largest J within half an ulp of S
(under 12); at most one multiple of 100 lies that close, so J = 0, J = 1
and that multiple with its trailing zeros are all there is to check.  A
decision within 1e-6 of its boundary, a power of two outside [1, 1e16)
(half the gap below), nonzero |x| outside [1e-27, 1e17), nan and inf go
to ``repr``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SweepTable", "format_number", "write_text"]

NA_MARKER = "NA"
_CSV_BLOCK = 1536


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


def _block_text(block: list) -> list:
    """Each column of a block, given as (values, na) pairs, as a uint8
    matrix, a row per cell padded with NUL bytes (dropped when the block
    is joined).  The cells of every column that ``_exact_as_float`` admits
    are formatted together, by one ``_shortest`` call."""
    joint = [i for i, (values, _) in enumerate(block) if _exact_as_float(values)]
    texts = [None] * len(block)
    if joint:
        stacked = np.array([np.where(block[i][1], 0, block[i][0]) for i in joint], dtype=float)
        cells = per_distinct(stacked.ravel(), _shortest).reshape(*stacked.shape, -1)
        for i, column in zip(joint, cells):
            texts[i] = column
    for i, (values, na) in enumerate(block):
        if values.dtype == bool:
            texts[i] = (values.view(np.uint8) + 48)[:, None]
        elif texts[i] is None:  # ints past 2^53, or an object column such as Python ints past int64
            strs = list(map(str if values.dtype.kind in "iu" else format_number, values.tolist()))
            texts[i] = np.array(strs, dtype=bytes).view(np.uint8).reshape(len(strs), -1)
        if na.any():
            if texts[i].shape[1] < 2:
                texts[i] = np.pad(texts[i], ((0, 0), (0, 1)))
            texts[i][na] = 0
            texts[i][na, :2] = np.frombuffer(NA_MARKER.encode(), np.uint8)
    return texts


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
# A cell is 6 little-endian int64 words: the sign, "0." and up to 3 zeros,
# then 17 digits each followed by a byte for the point, then "e-dd".
_TENS = np.arange(100) // 10
_MOD10 = np.arange(100) - 10 * _TENS
_PAIR = (_TENS + 48) | (_MOD10 + 48) << 16
_HI2 = np.arange(10_000) // 100
_LO2 = np.arange(10_000) - 100 * _HI2
_QUAD = _PAIR[_HI2] | _PAIR[_LO2] << 32  # 4 digits as a word
# S's digits 1-16 come in 4 groups of 4; a nonzero group i puts the end of
# the significant digits at its last nonzero digit, the leading digit at 1
_LAST_NZ = np.sign(np.arange(100)) + (_MOD10 > 0)
_SIG = np.where(_LO2 > 0, 2 + _LAST_NZ[_LO2], _LAST_NZ[_HI2]) + np.arange(1, 16, 4)[:, None]
_SIG[:, 0] = [1, 0, 0, 0]
# column k: the first k digits of words 1-4 (digit 0 lives in word 0)
_KEEP = np.array([0, 0xFF, 0xFF00FF, 0xFF00FF00FF, 0xFF00FF00FF00FF])[
    np.clip(np.arange(18) - np.arange(1, 16, 4)[:, None], 0, 4)]
_E_MIN, _E_MAX = -28, 17


def _layouts():
    """Per exponent e10 of the leading digit, from ``_E_MIN``: word 0 with
    the sign (plain, then "-") and "0." with its zeros, word 5 ("e-dd"),
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
    return prod.astype(np.int64) + whole.astype(np.int64), t - whole, hi


def _shortest(x: np.ndarray) -> np.ndarray:
    """``format_number`` of each float64 of ``x`` as a row of 48 bytes,
    NUL-padded."""
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
    n100 = n // 100
    r100 = n - n100 * 100
    r10 = np.take(_MOD10, r100)
    d100, d10 = r100 + f, r10 + f
    up100, up10 = d100 > 50, d10 > 5
    dist100 = np.where(up100, 100 - d100, d100)
    dist10 = np.where(up10, 10 - d10, d10)
    j100, j10 = dist100 < h, dist10 < h
    # a decision near its boundary, where it counts, takes repr's path
    slow |= (np.abs(dist100 - h) < 1e-6) | ~j100 & (
        (np.abs(dist10 - h) < 1e-6) | (np.where(j10, np.abs(d10 - 5), np.abs(f - 0.5)) < 1e-6))
    n = np.where(j100, (n100 + up100) * 100, np.where(j10, n - r10 + 10 * up10, n + (f > 0.5)))
    e = 16 - _E_MIN - p  # the row of e10 in the layout tables
    top = n == 10**17
    n[top] = 10**16
    e += top
    lead = n // 10**16
    rest = n - lead * 10**16
    hi8 = rest // 10**8
    lo8 = rest - hi8 * 10**8
    g0, g2 = hi8 // 10**4, lo8 // 10**4
    groups = (g0, hi8 - g0 * 10**4, g2, lo8 - g2 * 10**4)
    lead[zero] = 0
    last = np.take(_LAST, e)
    words = np.empty((6, x.size), np.int64)
    words[0] = np.take(_HEAD, 2 * e + (bits < 0)) | (lead + 48) << 48
    nsig = np.take(_SIG[0], g0)
    for i, g in enumerate(groups):
        np.take(_QUAD, g, out=words[1 + i], mode="clip")
        if i:
            np.maximum(nsig, np.take(_SIG[i], g), out=nsig)
    words[1:5] &= np.take(_KEEP, np.maximum(nsig, last + 1), axis=1)
    np.take(_TAIL, e, out=words[5], mode="clip")
    cells = words.T.copy().view(np.uint8)
    point = np.flatnonzero(nsig > np.take(_POINT_AFTER, e))
    cells[point, 7 + 2 * last[point]] = 46
    for i in np.flatnonzero(slow).tolist():
        text = format_number(x[i]).encode()
        cells[i] = 0
        cells[i, : len(text)] = np.frombuffer(text, np.uint8)
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
            columns = _block_text([(values[rows], na[rows]) for values, na in data])
            comma = np.full((len(columns[0]), 1), ord(","), np.uint8)
            block = np.hstack([m for column in columns for m in (column, comma)])
            block[:, -1] = ord("\n")
            yield block.tobytes().translate(None, b"\0").decode("ascii")

    def to_csv_string(self) -> str:
        return "".join(self._csv_pieces())

    def to_csv(self, dest) -> None:
        """Write the table to a path or text stream (UTF-8, LF endings)."""
        write_text(dest, self._csv_pieces())

    def __len__(self) -> int:
        return len(self._data()[0][0]) if self.columns else 0
