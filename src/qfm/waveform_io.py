"""Waveform ingestion, peak extraction and Q measurement on real traces.

The CSV interchange format is a ``t,v`` header followed by one
``time,volts`` row per sample (seconds and volts, decimal point, LF line
endings, UTF-8).  Floats are written in their shortest exact form, so a
synthesize/write/load round trip is bit-identical.  On input, CRLF or CR
line endings and a UTF-8 byte-order mark are accepted.

The reader makes one pass.  It reads a text stream as it is and decodes
a byte source in place as UTF-8 with universal newlines, leaving a
caller's stream open; only a pipe or other non-seekable source is read
whole, as a bad byte's offset is found by decoding the bytes before it
again.  Pieces of about 64 KiB of whole lines are cut with
``str.splitlines``, the grammar's own splitter, and ``np.loadtxt`` parses
each in one call, without one float object per cell.  A piece it
refuses, or returns in another shape or with a non-finite value, goes
to the line grammar, the grammar of record: it takes what ``float()``
takes (``1_000``, non-ASCII digits) and words every error with its line
number.  Reading stops at ``resonator.MAX_SAMPLES`` data rows: a longer
record is refused before more rows are held.

Peak extraction runs a max/min alternation state machine: a candidate
maximum is accepted only after the signal falls at least the hysteresis
below it, and the detector re-arms only after rising the same amount
above the following minimum.  That suppresses noise micro-peaks (which
would otherwise stop a counting measurement early) while leaving clean
traces untouched at zero hysteresis.  A sample strictly between its
neighbours can neither start, confirm nor end a lobe, so the machine
visits only the non-strict turning points and the last sample.  Only
positive-lobe maxima are reported, matching a single-polarity peak
detector, and a record is expected to begin at or before the first
oscillation maximum since the first extracted peak defines V0.
"""

from __future__ import annotations

import io
import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from .counting import Failure, MeasurementConfig, MeasurementResult, held_crossing
from .resonator import MAX_SAMPLES, Waveform
from .tables import SweepTable, format_number

__all__ = [
    "WaveformFormatError",
    "InsufficientRecordError",
    "PeakList",
    "waveform_to_csv",
    "load_waveform",
    "extract_peaks",
    "measure_q_counting",
    "fit_q_log_decrement",
    "LogFit",
    "log_fit",
    "peaklist_to_csv",
    "measurement_record",
]

CSV_HEADER = "t,v"

# relative spread of sample intervals tolerated before a file counts as
# non-uniformly sampled
UNIFORMITY_TOL = 1e-6

# consecutive peak spacings outside this band around the median flag the
# extraction quality warning
SPACING_BAND = 0.30


class WaveformFormatError(ValueError):
    """Malformed waveform CSV; ``line`` carries the offending 1-based
    line number when one can be pointed at."""

    def __init__(self, message: str, line: Optional[int] = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class InsufficientRecordError(RuntimeError):
    """The record ends before the envelope reaches the stop threshold.

    ``extra_seconds`` estimates, from the fitted decay, how much more
    record would have been needed (None when no decay can be fitted).
    """

    def __init__(self, message: str, extra_seconds: Optional[float] = None):
        super().__init__(message)
        self.extra_seconds = extra_seconds


@dataclass(frozen=True)
class PeakList:
    """Times and values of successive positive-lobe maxima.

    ``irregular_spacing`` is set when any consecutive spacing falls
    outside +/-30 % of the median spacing, which usually means missed or
    spurious peaks.
    """

    times: np.ndarray
    values: np.ndarray
    irregular_spacing: bool = False

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if times.shape != values.shape or times.ndim != 1:
            raise ValueError("times and values must be matching 1-D arrays")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(values))):
            raise ValueError("peak times and values must be finite")
        if times.size and np.any(np.diff(times) <= 0):
            raise ValueError("peak times must be strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.times.size

    def median_spacing(self) -> float:
        if len(self) < 2:
            raise ValueError("need at least 2 peaks for a spacing")
        return float(np.median(np.diff(self.times)))


def waveform_to_csv(w: Waveform, dest) -> None:
    """Write a waveform in the ``t,v`` interchange format."""
    table = SweepTable(CSV_HEADER.split(","))
    table.extend(w.times(), w.samples)
    table.to_csv(dest)


def load_waveform(source) -> Waveform:
    """Parse a ``t,v`` CSV from a path, text stream or byte stream.

    Requires at least 3 and at most ``MAX_SAMPLES`` rows and a uniform
    time step (median step, 1e-6 relative tolerance); the sample rate is
    derived from the median step.
    """
    if isinstance(source, (str, Path)):
        with open(source, "rb") as raw:
            t, v = _decode(raw)
    else:
        t, v = _read(source) if isinstance(source.read(0), str) else _decode(source)
    if t.size < 3:
        raise WaveformFormatError(
            f"need at least 3 samples to establish a rate, found {t.size}"
        )
    dt = np.diff(t)
    med = float(np.median(dt))
    if med <= 0 or np.any(np.abs(dt - med) > UNIFORMITY_TOL * abs(med)):
        raise WaveformFormatError(
            "non-uniform sampling: time steps deviate beyond 1e-6 relative from the median"
        )
    return Waveform(sample_rate=1.0 / med, samples=v, start_time=float(t[0]))


def _decode(raw):
    """``(t, v)`` of a byte source, decoded from where it stands."""
    if not raw.seekable():  # a pipe, which cannot be re-read
        raw = io.BytesIO(raw.read())
    start = raw.tell()
    text = io.TextIOWrapper(raw, encoding="utf-8", newline=None)
    try:
        try:
            return _read(text)
        except WaveformFormatError:
            while text.read(_READ_BYTES):  # a bad byte further on wins over a row
                pass
            raise
    except UnicodeDecodeError:
        end = raw.tell()
        raw.seek(start)
        raw.read(end - start).decode("utf-8")  # again in one call, so at its offset from start
        raise
    finally:
        text.detach()  # or collecting the wrapper would close the source


# decoded characters per read of the record
_READ_BYTES = 1 << 16


def _pieces(text):
    """``text`` in pieces of about _READ_BYTES characters of whole lines;
    a line longer than one read is gathered in parts and joined once."""
    rest = ""
    while True:
        parts = [rest]
        while more := text.read(_READ_BYTES):
            parts.append(more)
            if "\n" in more:
                break
        data = "".join(parts)
        cut = data.rfind("\n") + 1 if more else len(data)
        yield data[:cut]
        if not more:
            return
        rest = data[cut:]


def _read(text):
    """``(t, v)`` of a decoded record, read once, front to back.  A row
    error or the cap is raised where it is found; a non-finite value only
    after the last piece, as any of those further on wins over it."""
    lineno, rows, blocks, bad = 1, 0, [], None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # numpy warns when a call finds no row
        for piece in _pieces(text):
            lines = piece.splitlines()  # the grammar's own splitter
            if lineno == 1:
                if not lines:
                    raise WaveformFormatError("empty file")
                header = lines[0].lstrip("\ufeff").strip()
                if header != CSV_HEADER:
                    raise WaveformFormatError(f"expected header {CSV_HEADER!r}, got {header!r}", line=1)
                lines[0] = ""  # which both parsers skip
            # numpy strips a U+001F from a cell, float() does not
            block = None if "\x1f" in piece else _parse_piece(lines, rows)
            if block is None:
                block, first_bad = _parse_lines(lines, lineno, rows)
                bad = bad or first_bad
            blocks.append(block)
            rows += len(block)
            if rows > MAX_SAMPLES:
                raise WaveformFormatError(f"the record is over the limit of {MAX_SAMPLES} samples")
            lineno += len(lines)
    if bad:
        raise WaveformFormatError("non-finite value (nan or inf)", line=bad)
    t = np.concatenate([block[:, 0] for block in blocks])
    v = np.concatenate([block[:, 1] for block in blocks])
    return t, v


def _parse_piece(lines, rows: int):
    """``np.loadtxt``'s rows of one piece, given the ``rows`` read before
    it, up to the first row past ``MAX_SAMPLES``; None when numpy refuses
    the piece (a whitespace-only line, ``1_000``, a non-ASCII digit) or
    finds another shape or a non-finite value."""
    want = min(len(lines), MAX_SAMPLES + 1 - rows)
    try:
        block = np.loadtxt(lines, delimiter=",", comments=None, dtype=float, ndmin=2, max_rows=want)
    except ValueError:  # numpy's parse errors
        return None
    if block.size and (block.shape[1] != 2 or not np.isfinite(block).all()):
        return None
    return block.reshape(-1, 2)  # numpy shapes no row as (0, 1)


def _parse_lines(lines, lineno: int, rows: int):
    """One piece's rows by the grammar of record, its first line being
    line ``lineno`` and ``rows`` rows read before it, up to the first row
    past ``MAX_SAMPLES``, and the line of its first non-finite value
    (None if it has none)."""
    cells, bad = [], None
    for n, line in enumerate(lines, start=lineno):
        row = line.strip()
        if not row:
            continue
        parts = row.split(",")
        if len(parts) != 2:
            raise WaveformFormatError(f"expected 2 comma-separated fields, got {len(parts)}", line=n)
        try:
            t, v = float(parts[0]), float(parts[1])
        except ValueError:
            raise WaveformFormatError(f"unparseable number in {row!r}", line=n) from None
        if bad is None and not (math.isfinite(t) and math.isfinite(v)):
            bad = n
        cells += t, v
        rows += 1
        if rows > MAX_SAMPLES:
            break
    return np.array(cells).reshape(-1, 2), bad


_SEEK_MAX, _SEEK_MIN = 0, 1


def extract_peaks(w: Waveform, hysteresis: float = 0.0) -> PeakList:
    """Positive-lobe maxima of a sampled trace, hysteresis-confirmed and
    refined by 3-point parabolic interpolation.  Raises when fewer than
    2 peaks are found.
    """
    if hysteresis < 0:
        raise ValueError(f"hysteresis must be >= 0 V (got {hysteresis})")
    v = w.samples
    a, b, c = v[:-2], v[1:-1], v[2:]
    visit = np.flatnonzero(((b >= a) & (b >= c)) | ((b <= a) & (b <= c))) + 1
    if v.size > 1:
        visit = np.append(visit, v.size - 1)
    state = _SEEK_MAX
    cmax, imax = float(v[0]), 0
    cmin = cmax
    picked = []
    for i, x in zip(visit.tolist(), v[visit].tolist()):
        if state == _SEEK_MAX:
            if x > cmax:
                cmax, imax = x, i
            elif x <= cmax - hysteresis:
                if cmax > 0:
                    picked.append(imax)
                state = _SEEK_MIN
                cmin = x
        else:
            if x < cmin:
                cmin = x
            elif x >= cmin + hysteresis:
                state = _SEEK_MAX
                cmax, imax = x, i
    if len(picked) < 2:
        raise ValueError(
            f"found only {len(picked)} confirmed peak(s); need at least 2 "
            "(record too short, hysteresis too large, or no ring-down present)"
        )
    picked = np.array(picked)
    ticks = picked / w.sample_rate
    values = v[picked]
    # the vertex of the parabola through each inner peak and its
    # neighbours, where it opens downward and stays within one sample
    j = np.flatnonzero((picked > 0) & (picked < v.size - 1))
    i = picked[j]
    y1, y2, y3 = v[i - 1], v[i], v[i + 1]
    den = y1 - 2.0 * y2 + y3
    tilt = y1 - y3
    with np.errstate(divide="ignore", invalid="ignore"):
        d = 0.5 * tilt / den
    ok = (den < 0) & (np.abs(d) <= 1.0)
    d = d[ok]
    ticks[j[ok]] = (i[ok] + d) / w.sample_rate
    values[j[ok]] = y2[ok] - 0.25 * tilt[ok] * d
    times = w.start_time + ticks
    spacing = np.diff(times)
    med = float(np.median(spacing))
    irregular = bool(np.any(np.abs(spacing - med) > SPACING_BAND * med))
    return PeakList(times=times, values=values, irregular_spacing=irregular)


def measure_q_counting(peaks: PeakList, config: MeasurementConfig) -> MeasurementResult:
    """Counting measurement over an extracted peak sequence.

    The first peak defines V0; n is the index of the first peak at or
    below V0/k, resolved per the configured convention.
    """
    if len(peaks) < 2:
        raise ValueError("need at least 2 peaks (the first defines V0)")
    c = held_crossing(peaks.values, config)
    if c.status == Failure.NO_SIGNAL.value:
        raise ValueError(f"first peak must be positive (got {float(peaks.values[0])})")
    threshold = float(c.threshold)
    spacing = peaks.median_spacing()
    if c.status == Failure.UNREACHABLE.value:
        extra = _estimate_missing(peaks, threshold, spacing)
        msg = (
            f"insufficient record length: the envelope stays above the "
            f"threshold {threshold:.6g} V across all {len(peaks)} peaks"
        )
        if extra is not None:
            msg += f"; approximately {extra:.6g} s more record needed"
        raise InsufficientRecordError(msg, extra_seconds=extra)
    if c.status == Failure.NO_DECAY.value:
        raise ValueError(
            "measurement degenerate: the first maximum after V0 is already "
            "at or below the threshold"
        )
    return c.result(spacing)


class LogFit(NamedTuple):
    """Least-squares line ln(value) = slope * index + intercept, and the
    RMS of its residuals in nepers."""

    slope: float
    intercept: float
    rms: float


def log_fit(values) -> LogFit:
    """Fit a line through ln(values) against 0, 1, 2, ... (all values > 0)."""
    m = np.arange(len(values))
    y = np.log(values)
    slope, intercept = np.polyfit(m, y, 1)
    rms = math.sqrt(float(np.mean((y - (slope * m + intercept)) ** 2)))
    return LogFit(float(slope), float(intercept), rms)


def _estimate_missing(peaks, threshold, spacing):
    vals = peaks.values
    if np.any(vals <= 0) or len(peaks) < 2:
        return None
    slope = log_fit(vals).slope
    if slope >= 0:
        return None
    m_cross = math.log(float(vals[0]) / threshold) / (-slope)
    missing_periods = m_cross - (len(peaks) - 1)
    return max(0.0, missing_periods * spacing)


def fit_q_log_decrement(peaks: PeakList) -> float:
    """Quality factor from a least-squares line through ln(peak) vs index.

    The slope is the negative log decrement delta; inverting
    delta = pi / (Q sqrt(1 - 1/(4 Q^2))) exactly gives
    Q = (1/2) sqrt(1 + 4 pi^2 / delta^2).  This is the independent
    cross-check for the counting measurement.
    """
    if len(peaks) < 5:
        raise ValueError(f"need at least 5 peaks for a stable fit (got {len(peaks)})")
    if np.any(peaks.values <= 0):
        raise ValueError("all peak values must be positive to fit the log envelope")
    slope = log_fit(peaks.values).slope
    if not slope < 0:
        raise ValueError(
            "degenerate fit: peaks do not decay (slope of the log envelope is >= 0)"
        )
    delta = -float(slope)
    return 0.5 * math.sqrt(1.0 + 4.0 * math.pi**2 / delta**2)


def peaklist_to_csv(peaks: PeakList, dest) -> None:
    table = SweepTable(("m", "t", "v"))
    table.extend(np.arange(len(peaks)), peaks.times, peaks.values)
    table.to_csv(dest)


def measurement_record(result: MeasurementResult, config: MeasurementConfig) -> str:
    """Single-line ``key=value`` rendering of a measurement outcome."""
    parts = [f"n={result.n}", f"q={format_number(result.q_measured)}"]
    if result.relative_error is not None:
        parts.append(f"error={format_number(result.relative_error)}")
    if result.t_measure is not None:
        parts.append(f"t_measure={format_number(result.t_measure)}")
    if result.threshold_used is not None:
        parts.append(f"threshold={format_number(result.threshold_used)}")
    parts.append(f"convention={config.convention.value}")
    return " ".join(parts)
