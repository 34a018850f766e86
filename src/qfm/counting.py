"""Pseudo-period-counting quality-factor measurement.

The measurement counts the number n of pseudo-periods the ring-down
envelope needs to fall from its initial value V0 to the fixed fraction
V0 / k.  Because consecutive maxima decay by the constant factor
exp(-pi / (Q sqrt(1 - 1/(4 Q^2)))), the count recovers Q in closed form:

    Q = (1/2) sqrt(1 + 4 pi^2 n^2 / ln(k)^2)

The threshold generally falls between two maxima, so n carries an
inherent quantization of one count.  Both ways of resolving it are
provided: FIRST_AT_OR_BELOW counts through the terminating
pseudo-period, LAST_ABOVE stops one earlier.  A peak exactly equal to
the threshold counts as "at or below", which keeps the two conventions
exactly one count apart everywhere.

Every count in the package goes through one kernel: :class:`Envelope`
models the held maxima of a peak detector (ideal by default) over any
shape of Q and of the detector-side error values, and
:func:`first_crossing` finds, per cell, the first maximum at or below
the stop threshold, broadcast over k and the threshold-side errors;
:func:`held_crossing` answers the same for observed held maxima (the
simulator, recorded waveforms), with n and Q derived by the same code.
Cells the measurement cannot complete carry a :class:`Failure` code
instead of raising, so one call covers a whole sweep grid; the scalar
APIs are 0-d calls of the same kernel.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .resonator import ResonatorParams, log_decrement
from .tables import SweepTable

__all__ = [
    "Convention",
    "MeasurementConfig",
    "MeasurementResult",
    "Failure",
    "Envelope",
    "Crossing",
    "first_crossing",
    "held_crossing",
    "q_from_count",
    "q_from_count_shortcut",
    "count_pseudo_periods",
    "theoretical_error",
    "theoretical_error_sweep",
]

_FOUR_PI_SQ = 4.0 * math.pi**2
# crossing indices past this would overflow the int64 count arithmetic
_MAX_INDEX = 2.0**62


class Convention(enum.Enum):
    """How the reported n relates to the first maximum at or below V0/k."""

    FIRST_AT_OR_BELOW = "first_at_or_below"
    LAST_ABOVE = "last_above"


def check_k(k) -> np.ndarray:
    """k as a float array of finite values > 1, at least one of them."""
    k = np.asarray(k, dtype=float)
    if not k.size:
        raise ValueError("no division factor k given")
    if not np.all(np.isfinite(k)):
        raise ValueError(f"k must be finite (got {k.tolist()})")
    if not np.all(k > 1.0):
        raise ValueError(f"k must be > 1 (got {k.tolist()}); ln k would be <= 0")
    return k


@dataclass(frozen=True)
class MeasurementConfig:
    """Division factor k (> 1), counting convention, and whether the
    count is converted with the exact closed form or the 2n shortcut."""

    k: float
    convention: Convention = Convention.LAST_ABOVE
    shortcut: bool = False

    def __post_init__(self):
        check_k(self.k)


@dataclass(frozen=True)
class MeasurementResult:
    """Outcome of one counting measurement.

    relative_error is populated only when the true Q is known (synthetic
    runs); t_measure is n pseudo-periods when the pseudo-period is known.
    """

    n: int
    q_measured: float
    t_measure: Optional[float] = None
    relative_error: Optional[float] = None
    threshold_used: Optional[float] = None


def _ln_sq(k):
    """ln(k)^2 by math.log and float power, element by element: numpy's
    log and square differ from them in the last bit for some k, and the
    count-to-Q conversion must not depend on which path computed it."""
    if np.ndim(k) == 0:
        return math.log(k) ** 2
    return np.frompyfunc(lambda v: math.log(v) ** 2, 1, 1)(k).astype(float)


def _check_count(n) -> np.ndarray:
    n = np.asarray(n)
    if not np.issubdtype(n.dtype, np.integer):
        raise ValueError(f"n must be an integer count (got {n.dtype})")
    if np.any(n < 1):
        raise ValueError("n must be >= 1: with no elapsed pseudo-period the measurement is undefined")
    return n.astype(float)


def q_from_count(n, k):
    """Quality factor recovered from a count of n pseudo-periods down to
    the V0/k threshold: (1/2) sqrt(1 + 4 pi^2 n^2 / ln(k)^2).

    Accepts a scalar count or an integer array, and k broadcast against it.
    """
    q = _closed_form_q(_check_count(n), check_k(k))
    return float(q) if q.ndim == 0 else q


def _closed_form_q(n, k):
    """Q of float counts n at division factor(s) k, unchecked."""
    return 0.5 * np.sqrt(1.0 + _FOUR_PI_SQ * n**2 / _ln_sq(k))


def q_from_count_shortcut(n):
    """Count-to-Q conversion by doubling, exact for k = 4.81 where
    ln k matches pi/2 to four digits; returns 2 n."""
    q = 2.0 * _check_count(n)
    return float(q) if q.ndim == 0 else q


# ---------------------------------------------------------------------------
# crossing kernel


class Failure(enum.IntEnum):
    """Why a closed-form measurement cannot complete; NONE when it can.

    The order is the order of the checks: a cell reports the first one
    it fails.  Status arrays hold the plain values (numpy handles an enum
    member as a generic object, which is slow on small arrays).
    """

    NONE = 0
    DIVIDER = 1  # 1 + divider error <= 0 leaves no division ratio
    NO_SIGNAL = 2  # the captured initial amplitude is zero
    NEGATIVE_THRESHOLD = 3  # held maxima can never fall below it
    UNREACHABLE = 4  # held maxima settle above the threshold
    NO_DECAY = 5  # the convention's count is below 1
    COUNT_RANGE = 6  # the crossing index overflows the count arithmetic


class Envelope:
    """Held maxima of ring-downs at f0 [Hz] from v0 [V], over broadcast
    arrays of Q and of the detector-side signed errors (opamp offset,
    leak droop, diode residual):

        captured(m) = max(0, v0 exp(-delta m) gain - drop + opamp)

    with delta the log decrement of Q, which f0 does not enter, and
    drop = diode * diode_ramp + leak * T, where ``gain`` is the detector's
    tracking gain at f0 and ``diode_ramp`` the uncancelled fraction of the
    diode residual; the defaults describe an ideal detector.  No term
    depends on k or on the threshold-side errors, so one envelope serves
    every division factor of a sweep.
    """

    def __init__(self, q, f0=1.0, v0=1.0, gain=1.0, diode_ramp=0.0, opamp=0.0, leak=0.0, diode=0.0):
        self.q = np.asarray(q, dtype=float)
        self.f0, self.v0, self.gain = f0, v0, gain
        self.decrement = log_decrement(self.q)
        w0 = 2.0 * math.pi * f0
        # past the float range 4 q^2 gives T its limit 2 pi / w0, and a
        # drop overflows to inf
        with np.errstate(over="ignore", divide="ignore"):
            period = 2.0 * math.pi / (w0 * np.sqrt(1.0 - 1.0 / (4.0 * self.q * self.q)))
            # a T of 0 or inf (f0 at an end of the float range) has no drop
            # or duration: NaN it here, where it raises no invalid-operation
            # warning, and the NaN drop makes the count COUNT_RANGE
            self.period = np.where((period > 0.0) & (period < math.inf), period, math.nan)
            self.drop = diode * diode_ramp + leak * self.period
        self.opamp = np.asarray(opamp, dtype=float)
        self.v0_captured = self.captured(0)

    def captured(self, m):
        """Held value of maximum m (an integer or integer array)."""
        peak = self.v0 * np.exp(-(self.decrement * m))
        return np.maximum(0.0, peak * self.gain - self.drop + self.opamp)


def stop_threshold(v0_captured, k, divider, comparator):
    """Threshold the comparator applies: the captured V0 over the
    divider's actual ratio k (1 + divider), plus the comparator offset."""
    return v0_captured / (k * (1.0 + divider)) + comparator


@dataclass(frozen=True)
class Crossing:
    """Per-cell outcome of :func:`first_crossing` or :func:`held_crossing`.

    ``m`` is the first maximum at or below ``threshold`` and ``n`` the
    count the convention derives from it; ``q`` and ``error`` are the
    measured Q and its relative error, NaN wherever ``status`` is not
    ``Failure.NONE`` (``error`` also where the true Q is unknown).
    """

    m: np.ndarray
    n: np.ndarray
    q: np.ndarray
    error: np.ndarray
    threshold: np.ndarray
    status: np.ndarray

    @property
    def valid(self) -> np.ndarray:
        return self.status == Failure.NONE.value

    def result(self, period) -> MeasurementResult:
        """A completed 0-d crossing as a measurement lasting n periods
        [s]; its relative error is None where the true Q is unknown."""
        n, error = int(self.n), float(self.error)
        return MeasurementResult(
            n=n,
            q_measured=float(self.q),
            t_measure=n * float(period),
            relative_error=None if math.isnan(error) else error,
            threshold_used=float(self.threshold),
        )


def first_crossing(
    env: Envelope,
    k,
    convention: Convention = Convention.LAST_ABOVE,
    shortcut: bool = False,
    divider=0.0,
    comparator=0.0,
) -> Crossing:
    """Which held maximum first falls to the stop threshold, and the Q
    the measurement reports from it, for every cell of the broadcast of
    the envelope with k and the signed divider and comparator errors.

    Each cell starts from the closed-form estimate
    m = max(1, ceil(ln(gain v0 / (thr + drop - opamp)) / delta))
    and is settled with the same comparisons a scan over the maxima
    makes, so ties resolve as they would in a scan: a cell is settled
    when captured(m) <= thr and (m = 1 or captured(m - 1) > thr).  The
    cells the estimate misses are found by a doubling-then-bisection
    search, in a number of rounds logarithmic in the miss.  k must be > 1.
    Past 2^53 the float comparisons cannot tell neighbouring maxima
    apart: such an m is within the float spacing of m of the exact
    crossing, not exact.
    """
    k = np.asarray(k, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        threshold = stop_threshold(env.v0_captured, k, divider, comparator)
        rhs = threshold + env.drop - env.opamp
        status = np.where(rhs <= 0, Failure.UNREACHABLE.value, Failure.NONE.value)
        status = np.where(threshold < 0, Failure.NEGATIVE_THRESHOLD.value, status)
        status = np.where(env.v0_captured <= 0, Failure.NO_SIGNAL.value, status)
        status = np.where(np.asarray(1.0 + divider) <= 0, Failure.DIVIDER.value, status)
        top = env.v0 * env.gain
        est = np.log(top / np.where(status == 0, rhs, top)) / env.decrement
    status = np.where((status == 0) & ~(est < _MAX_INDEX), Failure.COUNT_RANGE.value, status)
    m = np.array(np.maximum(1.0, np.ceil(np.where(status == 0, est, 1.0))), dtype=np.int64)
    _settle(env, m, threshold, status == 0)
    return _count(m, status, k, convention, shortcut, threshold, env.q)


def held_crossing(held, config: MeasurementConfig, divider=0.0, comparator=0.0, q_true=math.nan) -> Crossing:
    """:func:`first_crossing`'s 0-d answer over observed held maxima:
    ``held[0]`` is V0, m the index of the first later maximum at or
    below the stop threshold.  The status is NO_SIGNAL when V0 is not
    positive and UNREACHABLE when no maximum falls to the threshold;
    ``error`` is NaN when ``q_true`` is unknown."""
    held = np.asarray(held, dtype=float)
    threshold = stop_threshold(held[0], config.k, divider, comparator)
    below = np.flatnonzero(held[1:] <= threshold)
    status = Failure.NONE if below.size else Failure.UNREACHABLE
    if not held[0] > 0:
        status = Failure.NO_SIGNAL
    m = np.array(below[0] + 1 if below.size else 0, dtype=np.int64)
    return _count(m, np.array(status.value), config.k, config.convention, config.shortcut, threshold, q_true)


def _count(m, status, k, convention, shortcut, threshold, q_true) -> Crossing:
    """The crossing at first-crossing indices ``m``: the convention's n,
    NO_DECAY where it is below 1, and, where ``status`` is still NONE,
    Q by the 2n shortcut or the closed form with its relative error."""
    n = m if convention is Convention.FIRST_AT_OR_BELOW else m - 1
    status = np.where((status == 0) & (n < 1), Failure.NO_DECAY.value, status)
    counts = np.maximum(n, 1).astype(float)
    q = np.where(status == 0, 2.0 * counts if shortcut else _closed_form_q(counts, k), np.nan)
    return Crossing(m, n, q, (q - q_true) / q_true, threshold, status)


def _settle(env: Envelope, m: np.ndarray, threshold, todo) -> None:
    """Move each estimate in ``m``, in place, to the first maximum at or
    below the threshold.  Held maxima fall monotonically with m, so one
    search over the whole grid serves every cell (Bentley and Yao's
    unbounded search): the bracket (lo, hi] around each estimate moves by
    steps that double every round until captured(hi) <= thr and (lo = 0
    or captured(lo) > thr), then is bisected down to one maximum.  A cell
    costs O(log miss) rounds, and the first round's check, the one a scan
    makes, returns at once when no estimate missed."""
    lo, hi, step = m - 1, m, 1
    while True:
        down = todo & (lo > 0) & (env.captured(lo) <= threshold)
        up = todo & ~down & (env.captured(hi) > threshold)
        if not (down.any() or up.any()):
            break
        hi, lo = np.where(down, lo, hi + up * step), np.where(up, hi, np.maximum(lo - down * step, 0))
        step *= 2
    if step == 1:
        return
    while (gap := hi - lo > 1).any():
        mid = (lo + hi) // 2
        above = env.captured(mid) > threshold
        lo, hi = np.where(gap & above, mid, lo), np.where(gap & ~above, mid, hi)
    m[...] = hi


def count_pseudo_periods(params: ResonatorParams, config: MeasurementConfig) -> int:
    """Number of pseudo-periods for the peak envelope to fall from v0 to
    v0/k, resolved per the configured convention.

    The count depends only on q and k; it always exists because the
    maxima decay to zero.  A count above 2^53 is within the float
    spacing of m of the exact count, not exact.
    """
    env = Envelope(params.q, params.f0, params.v0)
    crossing = first_crossing(env, config.k, config.convention)
    check_range(crossing, env)
    return int(crossing.n)


def check_range(crossing: Crossing, env: Envelope) -> None:
    """Raise ValueError where a count would overflow the count
    arithmetic, naming f0 where the pseudo-period left the float range."""
    out = crossing.status == Failure.COUNT_RANGE.value
    if not np.any(out):
        return
    if np.any(out & np.isnan(env.period)):
        raise ValueError(f"f0={env.f0} is out of range: the pseudo-period leaves the float range")
    raise ValueError(f"q={float(env.q)} is out of range: the count would overflow")


def theoretical_error(q_true: float, config: MeasurementConfig) -> float:
    """Signed relative error of the ideal counting measurement at q_true.

    Quantization of the count is the only error source on this path.
    """
    ResonatorParams(f0=1.0, q=q_true)  # validates q_true
    env = Envelope(q_true)
    crossing = first_crossing(env, config.k, config.convention)
    check_range(crossing, env)
    if crossing.status == Failure.NO_DECAY.value:
        raise ValueError(
            f"measurement degenerate at q={q_true}, k={config.k}: "
            "the first maximum is already at or below the threshold"
        )
    return float(crossing.error)


# Sweep axes, and the grids a sweep evaluates at once, larger than this
# are refused before anything is allocated; the largest grid the demos
# use has 36,002 cells (2 corners x 18,001 Q).
MAX_GRID_POINTS = 10**6


def check_grid_size(points, what: str) -> None:
    """Refuse an axis or grid of more than MAX_GRID_POINTS points."""
    if points > MAX_GRID_POINTS:
        count = math.ceil(points) if math.isfinite(points) else points
        raise ValueError(f"{what} has {count} points, over the limit of {MAX_GRID_POINTS}")


def inclusive_range(lo: float, hi: float, step: float) -> np.ndarray:
    """lo, lo + step, ... through hi (to within half a step), sized
    against MAX_GRID_POINTS first; lo <= hi.  A step too small to
    register against the grid's values would leave no point (1e17:1e17:1)
    or repeat points (1e17:100000000000000064:1) and is refused."""
    stop = hi + step / 2.0
    label = "range " + ":".join(repr(float(v)) for v in (lo, hi, step))
    check_grid_size((stop - lo) / step, label)
    if stop == hi and hi > lo:  # half a step vanishes against hi
        stop = np.nextafter(hi, np.inf)
    grid = np.arange(lo, stop, step)
    if not grid.size or not np.all(np.diff(grid) > 0):
        what = "repeats points" if grid.size else "has no point"
        raise ValueError(f"{label} {what}: the step is below the resolution of {float(lo)!r}")
    return grid


def expand_range(q_range) -> np.ndarray:
    """Q grid from a (min, max, step) range, endpoints inclusive."""
    lo, hi, step = q_range
    if not (lo > 0.5 and hi >= lo and step > 0 and math.isfinite(hi) and math.isfinite(step)):
        raise ValueError(
            f"invalid range {q_range!r}: need 0.5 < min <= max and step > 0, all finite"
        )
    return inclusive_range(lo, hi, step)


def error_table(ks, qs, n, q_measured, error, valid) -> SweepTable:
    """The (k, q_true, n, q_measured, rel_error) table of a (k x Q) grid
    of results, scan ordered (outer loop k); invalid cells are NA."""
    na = ~np.asarray(valid)
    table = SweepTable(columns=("k", "q_true", "n", "q_measured", "rel_error"))
    table.extend(
        np.repeat(ks, qs.size), np.tile(qs, ks.size), n, q_measured, error, na=(None, None, na, na, na)
    )
    return table


def theoretical_error_sweep(k_values, q_range, convention: Convention = Convention.LAST_ABOVE) -> SweepTable:
    """Quantization-error table over a Q range for each division factor.

    q_range is (min, max, step), endpoints inclusive.  Rows are scan
    ordered: outer loop k, inner loop q_true.
    """
    ks = check_k(list(k_values))
    qs = expand_range(q_range)
    check_grid_size(ks.size * qs.size, f"the {ks.size} k x {qs.size} Q grid")
    c = first_crossing(Envelope(qs), ks[:, None], convention)
    return error_table(ks, qs, c.n, c.q, c.error, c.valid)
