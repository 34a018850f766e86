"""Waveform ingestion, peak extraction and Q measurement on real traces.

The CSV interchange format is a ``t,v`` header followed by one
``time,volts`` row per sample (seconds and volts, decimal point, LF line
endings, UTF-8).  Floats are written in their shortest exact form, so a
synthesize/write/load round trip is bit-identical.

Peak extraction walks the trace with a max/min alternation state machine:
a candidate maximum is accepted only after the signal falls at least the
hysteresis below it, and the detector re-arms only after rising the same
amount above the following minimum.  That suppresses noise micro-peaks
(which would otherwise stop a counting measurement early) while leaving
clean traces untouched at zero hysteresis.  Only positive-lobe maxima are
reported, matching a single-polarity peak detector, and a record is
expected to begin at or before the first oscillation maximum since the
first extracted peak defines V0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .counting import Failure, MeasurementConfig, MeasurementResult, held_crossing
from .resonator import Waveform
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

    Requires at least 3 rows and a uniform time step (median step,
    1e-6 relative tolerance); the sample rate is derived from the median
    step.
    """
    text = _read_text(source)
    lines = text.splitlines()
    if not lines:
        raise WaveformFormatError("empty file")
    header = lines[0].lstrip("﻿").strip()
    if header != CSV_HEADER:
        raise WaveformFormatError(f"expected header {CSV_HEADER!r}, got {header!r}", line=1)
    times = []
    volts = []
    for lineno, raw in enumerate(lines[1:], start=2):
        row = raw.strip()
        if not row:
            continue
        parts = row.split(",")
        if len(parts) != 2:
            raise WaveformFormatError(f"expected 2 comma-separated fields, got {len(parts)}", line=lineno)
        try:
            times.append(float(parts[0]))
            volts.append(float(parts[1]))
        except ValueError:
            raise WaveformFormatError(f"unparseable number in {row!r}", line=lineno) from None
    t, v = np.array(times), np.array(volts)
    del times, volts  # the float lists take four times the arrays' memory
    finite = np.isfinite(t) & np.isfinite(v)
    if not finite.all():
        data_lines = [n for n, raw in enumerate(lines[1:], start=2) if raw.strip()]
        raise WaveformFormatError(
            "non-finite value (nan or inf)", line=data_lines[int(np.argmin(finite))]
        )
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


def _read_text(source) -> str:
    if isinstance(source, (str, Path)):
        return Path(source).read_text(encoding="utf-8")
    data = source.read()
    if isinstance(data, bytes):
        return data.decode("utf-8")
    return data


_SEEK_MAX, _SEEK_MIN = 0, 1


def extract_peaks(
    w: Waveform,
    hysteresis: float = 0.0,
    min_amplitude: float = 0.0,
) -> PeakList:
    """Positive-lobe maxima of a sampled trace, hysteresis-confirmed and
    refined by 3-point parabolic interpolation.

    ``min_amplitude`` optionally rejects maxima below an amplitude floor
    (0 disables it).  Raises when fewer than 2 peaks are found.
    """
    if hysteresis < 0:
        raise ValueError(f"hysteresis must be >= 0 V (got {hysteresis})")
    v = w.samples
    state = _SEEK_MAX
    cmax, imax = v[0], 0
    cmin = v[0]
    picked = []
    for i in range(1, v.size):
        x = v[i]
        if state == _SEEK_MAX:
            if x > cmax:
                cmax, imax = x, i
            elif x <= cmax - hysteresis:
                if cmax > 0 and cmax >= min_amplitude:
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
    t0, rate = w.start_time, w.sample_rate
    times = []
    values = []
    for i in picked:
        ti, vi = i / rate, float(v[i])
        if 0 < i < v.size - 1:
            y1, y2, y3 = float(v[i - 1]), float(v[i]), float(v[i + 1])
            den = y1 - 2.0 * y2 + y3
            if den < 0:
                d = 0.5 * (y1 - y3) / den
                if abs(d) <= 1.0:
                    ti = (i + d) / rate
                    vi = y2 - 0.25 * (y1 - y3) * d
        times.append(t0 + ti)
        values.append(vi)
    times = np.array(times)
    values = np.array(values)
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


def _estimate_missing(peaks, threshold, spacing):
    vals = peaks.values
    if np.any(vals <= 0) or len(peaks) < 2:
        return None
    slope = np.polyfit(np.arange(len(peaks)), np.log(vals), 1)[0]
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
    slope = np.polyfit(np.arange(len(peaks)), np.log(peaks.values), 1)[0]
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
