"""Behavioral model of the analog counting architecture.

The modeled signal chain: a comparator squares up the decaying input to
recover a clock (so the block needs no prior knowledge of the resonant
frequency), a diode peak detector holds each cycle's maximum and is
reset by that clock, a divider derives the stop threshold V0/k from the
first captured maximum, and a counter runs while the held maxima stay
above the threshold.

Non-idealities are injected at the points where the real circuit is
imperfect:

* ``comparator_offset``   threshold-comparator input offset [V]
* ``divider_error``       fractional error on the division factor k
* ``opamp_offset``        lumped peak-detector / divider-driver offset [V],
                          added to every captured value including V0
* ``leak_droop``          droop rate of the held peak [V/s], applied over
                          each hold interval
* ``diode_residual``      uncancelled diode threshold [V]; the cancellation
                          works up to ``f_fail`` and degrades linearly to
                          the full residual one octave above it
* ``detector_bandwidth``  first-order tracking roll-off of the detector
* ``noise_rms``           additive white noise on the input trace [V]

All magnitudes are stored unsigned; ``worst_case_sign`` selects whether
the threshold-side errors (divider and comparator) enter with +1, -1, or
independently drawn signs.  Two evaluation paths are provided and are
required to agree to within one count: ``simulate_measurement`` samples
the ring-down, ``predicted_measurement`` evaluates the same model in
closed form; the sampled path calls nothing of the closed form.  The
sampled run synthesizes, clocks and captures the ring-down in fixed
blocks of samples, carrying the comparator's state and the open cycle
from block to block, until the block in which the counter stops or a
budget of ``resonator.MAX_SAMPLES`` samples; its working memory is one
block's buffers plus a few numbers per clock cycle.

A block's samples come approximate, within a stated bound of the exact
ones (see ``resonator._sim_blocks``).  The comparator and each cycle's
maximum are decided on them, and the samples the bound leaves open are
evaluated exactly: those within it of +/-hysteresis, and those within
twice it of their cycle's approximate maximum, among which lie the
cycle's exact maximum and every sample at it.  So every edge, maximum,
peak time and count is the one the exact samples give.

Per block the run makes a fixed number of array passes: the noise is
added into a buffer with a slot before the block's samples, where the
open cycle's maximum goes; the comparator codes each sample once (+1
above the band, -1 below, 0 inside) and finds its runs from one
comparison of neighbours; the held maxima go through
``capture_model``'s formula with the gain and diode drop of the run's
f0, and the stop is one comparison with the threshold formed from V0.
"""

from __future__ import annotations

import enum
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .counting import (
    Envelope,
    Failure,
    MeasurementConfig,
    MeasurementResult,
    check_range,
    first_crossing,
    held_crossing,
    stop_threshold,
)
from .resonator import MAX_SAMPLES, ResonatorParams, _sim_blocks, derive_dynamics, log_decrement
from .tables import SweepTable

__all__ = [
    "SignAlignment",
    "CircuitNonIdealities",
    "SimTrace",
    "TraceRow",
    "TraceRows",
    "SimulationError",
    "SampleBudgetError",
    "capture_model",
    "simulate_measurement",
    "predicted_measurement",
    "pessimistic_nonidealities",
]


class SimulationError(RuntimeError):
    """A measurement run cannot complete (threshold unreachable, signal
    lost in the noise floor, or no decay observed)."""


class SampleBudgetError(SimulationError):
    """A time-domain run's counter has not stopped within resonator.MAX_SAMPLES
    samples: a resource limit, which cannot tell a long count from none."""


class SignAlignment(enum.Enum):
    PLUS = "plus"
    MINUS = "minus"
    INDEPENDENT = "independent"


@dataclass(frozen=True)
class CircuitNonIdealities:
    """Error-source magnitudes for the behavioral model.

    Defaults describe an ideal circuit.  See
    :func:`pessimistic_nonidealities` for the calibrated worst-case set.
    """

    comparator_offset: float = 0.0
    divider_error: float = 0.0
    opamp_offset: float = 0.0
    leak_droop: float = 0.0
    diode_residual: float = 0.0
    f_fail: float = 1e6
    detector_bandwidth: float = math.inf
    noise_rms: float = 0.0
    worst_case_sign: SignAlignment = SignAlignment.PLUS

    def __post_init__(self):
        for name in (
            "comparator_offset",
            "opamp_offset",
            "leak_droop",
            "diode_residual",
            "noise_rms",
        ):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} is a magnitude and must be finite and >= 0")
        if not 0 <= self.divider_error < 1:
            raise ValueError(
                f"divider_error must be in [0, 1) (got {self.divider_error})"
            )
        # an infinite bandwidth or failure knee is a perfect detector
        if not self.detector_bandwidth > 0:
            raise ValueError("detector_bandwidth must be > 0 Hz")
        if not self.f_fail > 0:
            raise ValueError("f_fail must be > 0 Hz")


def pessimistic_nonidealities(
    sign: SignAlignment = SignAlignment.PLUS,
) -> CircuitNonIdealities:
    """Calibrated pessimistic error budget.

    1 % divider error and 10 mV comparator offset (conservative against
    what integrated dividers and trimmed comparators achieve), a held-peak
    droop of 10 V/s placing the leakage-dominated regime below a few kHz,
    a 1 MHz detector bandwidth, and 100 mV of uncancelled diode threshold
    appearing above the 1 MHz cancellation limit.
    """
    return CircuitNonIdealities(
        comparator_offset=10e-3,
        divider_error=0.01,
        leak_droop=10.0,
        diode_residual=0.1,
        f_fail=1e6,
        detector_bandwidth=1e6,
        worst_case_sign=sign,
    )


@dataclass(frozen=True)
class TraceRow:
    cycle: int
    peak_time: float
    true_peak: float
    captured_peak: float
    threshold: float
    count_enable: bool


class TraceRows(Sequence):
    """Read-only sequence of :class:`TraceRow` over a trace's columns, one
    array per ``TraceRow`` field; a row is built only when it is read."""

    __slots__ = ("columns",)

    def __init__(self, *columns):
        self.columns = columns

    def __len__(self) -> int:
        return len(self.columns[0])

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(map(TraceRow, *(c[i].tolist() for c in self.columns)))
        i = operator.index(i)
        return TraceRow(*(c[i].item() for c in self.columns))

    def __iter__(self):
        return map(TraceRow, *(c.tolist() for c in self.columns))

    def __eq__(self, other):
        # as a list of rows compares: with lists (and other traces' rows) only
        if isinstance(other, (list, TraceRows)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"TraceRows({list(self)!r})"


@dataclass
class SimTrace:
    """Per-cycle observability record of a simulated measurement."""

    rows: TraceRows
    captured_v0: float
    threshold: float

    CSV_COLUMNS = ("cycle", "peak_time", "true_peak", "captured_peak", "threshold", "count_enable")

    def __len__(self) -> int:
        return len(self.rows)

    def _table(self) -> SweepTable:
        table = SweepTable(self.CSV_COLUMNS)
        table.extend(*self.rows.columns)
        return table

    def to_csv_string(self) -> str:
        return self._table().to_csv_string()

    def to_csv(self, dest) -> None:
        self._table().to_csv(dest)


def _tracking_gain(f0: float, bandwidth: float) -> float:
    try:
        return 1.0 / math.sqrt(1.0 + (f0 / bandwidth) ** 2)
    except OverflowError:  # the square is past the float range: its limit
        return 0.0


def _diode_ramp(f0: float, f_fail: float) -> float:
    """Fraction of the diode residual left uncancelled at f0: zero up to
    the cancellation limit, rising linearly to 1 an octave above it."""
    return min(1.0, max(0.0, f0 / f_fail - 1.0))


def capture_model(true_peak, f0: float, ni: CircuitNonIdealities, hold_interval):
    """Peak-detector output for a cycle maximum of ``true_peak`` volts.

    The detector tracks with a first-order magnitude roll-off, loses the
    uncancelled diode residual above its cancellation limit, droops at
    the leak rate over the hold interval and carries the static opamp
    offset.  The output is floored at 0 V.  ``true_peak`` and
    ``hold_interval`` broadcast; scalars give a float.
    """
    peak = np.asarray(true_peak, dtype=float)
    hold = np.asarray(hold_interval, dtype=float)
    if np.any(peak < 0):
        raise ValueError(f"true_peak must be >= 0 V (got {true_peak})")
    if f0 <= 0:
        raise ValueError(f"f0 must be > 0 Hz (got {f0})")
    if np.any(hold < 0):
        raise ValueError(f"hold_interval must be >= 0 s (got {hold_interval})")
    gain = _tracking_gain(f0, ni.detector_bandwidth)
    out = _captured(peak, gain, ni.diode_residual * _diode_ramp(f0, ni.f_fail), ni, hold)
    return float(out) if out.ndim == 0 else out


def _captured(peak, gain, diode_drop, ni: CircuitNonIdealities, hold):
    """capture_model's formula, unchecked, with the tracking gain and the
    uncancelled diode drop at f0 given."""
    out = peak * gain - (diode_drop + ni.leak_droop * hold) + ni.opamp_offset
    return np.where(out > 0.0, out, 0.0)


def _resolve_signs(ni: CircuitNonIdealities, rng=None):
    if ni.worst_case_sign is SignAlignment.PLUS:
        return 1.0, 1.0
    if ni.worst_case_sign is SignAlignment.MINUS:
        return -1.0, -1.0
    signs = rng.integers(0, 2, size=2) * 2 - 1
    return float(signs[0]), float(signs[1])


# ---------------------------------------------------------------------------
# closed-form path


def detector_envelope(q, f0, v0, ni: CircuitNonIdealities, opamp, leak, diode) -> Envelope:
    """The crossing kernel's model of this peak detector at f0, with the
    detector-side errors given as signed values (arrays broadcast)."""
    gain = _tracking_gain(f0, ni.detector_bandwidth)
    return Envelope(q, f0, v0, gain, _diode_ramp(f0, ni.f_fail), opamp, leak, diode)


# both paths' failures; no DIVIDER, as divider_error is under 1
_FAILURE_MESSAGES = {
    Failure.NO_SIGNAL: (
        "captured initial amplitude is zero: the peak detector loses the "
        "signal entirely at f0={f0} Hz with this error budget"
    ),
    Failure.NEGATIVE_THRESHOLD: (
        "effective threshold {thr:.4g} V is negative; held maxima can "
        "never fall below it and the counter would run forever"
    ),
    Failure.UNREACHABLE: (
        "held maxima settle above the stop threshold (offset exceeds the "
        "divider output); the counter would run forever"
    ),
    Failure.NO_DECAY: (
        "threshold crossed within the first pseudo-period; no decay "
        "was observed and the count is undefined"
    ),
}


def _failure(status, f0=None, thr=None) -> SimulationError:
    """The SimulationError of a measurement that ends in ``status``."""
    return SimulationError(_FAILURE_MESSAGES[Failure(int(status))].format(f0=f0, thr=thr))


def predicted_measurement(
    params: ResonatorParams,
    config: MeasurementConfig,
    ni: CircuitNonIdealities,
) -> MeasurementResult:
    """Closed-form counterpart of :func:`simulate_measurement`: captured
    maxima and threshold from the capture model, crossing index from
    the crossing kernel, no time-domain loop.

    Requires a fixed sign alignment (PLUS or MINUS).
    """
    if ni.worst_case_sign is SignAlignment.INDEPENDENT:
        raise ValueError(
            "predicted_measurement needs fixed error signs; "
            "use PLUS or MINUS, or run simulate_measurement with a seed"
        )
    s_div, s_cmp = _resolve_signs(ni)
    env = detector_envelope(
        params.q, params.f0, params.v0, ni, ni.opamp_offset, ni.leak_droop, ni.diode_residual
    )
    divider, comparator = s_div * ni.divider_error, s_cmp * ni.comparator_offset
    c = first_crossing(env, config.k, config.convention, config.shortcut, divider, comparator)
    check_range(c, env)
    if c.status != Failure.NONE.value:
        raise _failure(c.status, params.f0, float(c.threshold))
    return c.result(env.period)


# ---------------------------------------------------------------------------
# time-domain path


def _margin(eps: float, level: float) -> float:
    """Bound on |approximate - exact| for a sample near ``level`` volts
    whose ring-down is within ``eps`` of the exact one: eps plus the
    rounding of adding the noise to either, with room to spare."""
    return eps * (1.0 + 2.0**-40) + 2.0**-48 * level


def _settle_band(v, exact, eps, hysteresis, record_start, work):
    """Make exact, in place, the approximate samples of ``v`` that may lie
    on the other side of +/-hysteresis than the exact ones, and at the
    record's start the first sample, whose sign may set the comparator's
    state; the comparator then decides on ``v`` as on the exact samples.
    ``work`` is a float array of ``v``'s size that may be overwritten."""
    np.abs(v, out=work)
    work -= hysteresis
    unsure = (np.abs(work, out=work) <= _margin(eps, hysteresis)).nonzero()[0]
    if record_start and 0 not in unsure[:1]:
        unsure = np.concatenate(([0], unsure))
    if unsure.size:
        v[unsure] = exact(unsure)


def _rising_edges(v: np.ndarray, hysteresis: float, held: int = 0):
    """Clock-comparator rising edges (sample indices where the input
    leaves the +/-hysteresis dead band upward after having been below it)
    and the comparator's state (+1 or -1) after the last sample.

    ``held`` is the state before ``v[0]``; 0 opens the record, where the
    sign of ``v[0]`` sets it.
    """
    h = hysteresis
    held = held or (1 if v[0] > 0 else -1)
    # one code per sample: +1 above the band, -1 below it, 0 inside
    state = (v > h).view(np.int8) - (v < -h).view(np.int8)
    later = state[1:]
    starts = (later != state[:-1]).nonzero()[0]  # each later run opens at starts + 1
    # the code of each run of equal codes after the held state and v[0]'s;
    # two runs in a row differ, so the last run outside the band before
    # run j is run j - 1 or, when that one is inside, run j - 2
    runs = np.concatenate(((held, state[0]), later[starts]))
    # an edge opens a run above the band after a run below it
    edges = starts[runs[2:] - np.minimum(runs[1:-1], runs[:-2]) == 2] + 1
    if state[0] == 1 and held == -1:
        edges = np.concatenate(([0], edges))
    return edges, int(runs[-1] or runs[-2])


def _block_cycles(x, exact, eps, offset, edges, cycle):
    """The clock cycles closed within one block of samples, as
    ``(length, maximum, first index at it)`` arrays, or None, and the
    cycle left open after the block as ``(start, maximum, first index)``;
    indices are record sample indices.

    ``x[1:]`` holds the block's approximate samples, each within
    ``_margin(eps, .)`` of the exact one, and ``exact(idx)`` gives the
    exact samples; ``x[0]`` is overwritten.  The maxima and their
    indices are exact.  ``edges`` are the block's rising edges (block
    indices) and ``cycle`` the cycle open before it.
    """
    start, peak, at = cycle
    # the open cycle's maximum stands before the block as an earlier
    # sample, so an equal maximum in the block does not replace it
    x[0] = peak
    bounds = np.concatenate(([0], edges + 1, [x.size]))
    lengths = bounds[1:] - bounds[:-1]
    seg_max = np.maximum.reduceat(x, bounds[:-1])
    # a cycle's exact maximum, and every sample at it, lies within two
    # margins of its approximate maximum: only those samples are evaluated
    near = seg_max - 2.0 * _margin(eps, float(np.abs(seg_max).max()))
    hits = (x >= np.repeat(near, lengths)).nonzero()[0]
    inner = hits[1:] if hits[0] == 0 else hits
    x[inner] = exact(inner - 1)
    seg_max, first = x[hits], hits  # when each cycle has one, its maximum
    if hits.size > lengths.size:
        first_hit = np.searchsorted(hits, bounds[:-1])
        seg_max = np.maximum.reduceat(seg_max, first_hit)
        tops = (x[hits] == np.repeat(seg_max, np.diff(first_hit, append=hits.size))).nonzero()[0]
        first = hits[tops[np.searchsorted(tops, first_hit)]]  # first sample at its cycle's maximum
    carried = first[0] == 0
    first = first + (offset - 1)
    if carried:
        first[0] = at
    if edges.size == 0:
        return None, (start, seg_max[0], first[0])
    # the closed cycles' lengths: the first one began before the block
    lengths[0] = edges[0] + offset - start
    return (lengths[:-1], seg_max[:-1], first[:-1]), (edges[-1] + offset, seg_max[-1], first[-1])


def _clock_block(block, hysteresis, held, offset, cycle):
    """One block of the run: its samples, decided on as above, clocked
    by the comparator from state ``held`` and cut into the cycles it
    closes.  Returns :func:`_block_cycles`'s two values and the
    comparator's state after the block."""
    # the block's samples after a slot for the open cycle's maximum
    x = np.empty(block.ring.size + 1)
    v = x[1:]
    if block.noise is None:
        v[:] = block.ring
    else:
        np.add(block.ring, block.noise, out=v)
    # the approximate ring-down is spent now: the dead band's scratch
    _settle_band(v, block.exact, block.eps, hysteresis, held == 0, block.ring)
    edges, held = _rising_edges(v, hysteresis, held)
    return (*_block_cycles(x, block.exact, block.eps, offset, edges, cycle), held)


def _stop_check(v0, config: MeasurementConfig, divider, comparator):
    """The counter's stop test after a captured V0 of ``v0``: a function
    of the held maxima that follow (any number of them), True when the
    counter stops on them.  That is when V0 is not positive or one of
    them is at or below the stop threshold, exactly when held_crossing
    over V0 and them has a status other than UNREACHABLE.  A threshold
    below 0 V, under every held maximum, raises SimulationError."""
    if not v0 > 0:
        return lambda held: True
    threshold = stop_threshold(v0, config.k, divider, comparator)
    if threshold < 0:
        raise _failure(Failure.NEGATIVE_THRESHOLD, thr=threshold)
    return lambda held: bool((held <= threshold).any())


def _planned_samples(params: ResonatorParams, config: MeasurementConfig, samples_per_period: int) -> int:
    """Samples a run plans its first blocks for, within the budget: the
    ideal count, Q ln k / pi, 5 % more as offsets lengthen a count, and
    10 pseudo-periods; it sets only the blocks and the noise drawn ahead."""
    periods = 1.05 * params.q * math.log(config.k) / math.pi + 10.0
    return round(min(MAX_SAMPLES, periods * samples_per_period))


def simulate_measurement(
    params: ResonatorParams,
    config: MeasurementConfig,
    ni: CircuitNonIdealities,
    samples_per_period: int = 50,
    seed: int = 0,
):
    """Sampled run of the counting architecture over a synthesized
    ring-down.  Returns (MeasurementResult, SimTrace).

    The clock is recovered from signed zero crossings of the input, each
    clock cycle's sample maximum goes through the capture model and the
    detector is then reset, cycle 0's captured value defines V0, and the
    counter runs while captured maxima exceed the effective threshold.
    The ring-down is synthesized and clocked in blocks of samples, the
    comparator state and the open cycle carried from one block to the
    next, decided on approximate samples and exact where the
    approximation leaves a decision open.  The run ends with the block
    in which the counter stops, or raises SampleBudgetError when it has
    not stopped within ``resonator.MAX_SAMPLES`` samples, at once if the
    run is noiseless and its ring-down has fallen to 0 V, after which no
    cycle closes; nothing of the closed form decides it.  The trace
    holds cycles 0 up to the one that stopped the counter.
    Deterministic for a given seed (which drives the input noise and,
    for INDEPENDENT alignment, the error signs).
    """
    if samples_per_period < 20:
        raise ValueError(
            f"samples_per_period must be >= 20 (got {samples_per_period})"
        )
    dyn = derive_dynamics(params)
    sample_rate = samples_per_period * params.f0
    for what, value in zip(("pseudo-period", "sample rate", "budget's duration"),
                           (dyn.pseudo_period, sample_rate, MAX_SAMPLES / sample_rate)):
        if not 0 < value < math.inf:
            raise ValueError(f"f0={params.f0} is out of range: the {what} leaves the float range")
    if math.exp(-log_decrement(params.q)) == 1.0:
        raise ValueError(f"q={params.q} is out of range: the maxima's decay per pseudo-period rounds to 1")
    # numpy's normal draws lie within 12.3 sigma (its ziggurat's tail takes
    # the log of a 53-bit uniform) and the ring-down within v0 (1 + c): with
    # room for the approximation, every sample and the hysteresis are finite
    c = 1.0 / math.sqrt(4.0 * params.q * params.q - 1.0)
    if not params.v0 * (1.0 + c) + 16.0 * ni.noise_rms < math.inf:
        raise SimulationError(f"v0={params.v0:.3g} V plus noise_rms={ni.noise_rms:.3g} V may overflow a sample")
    rng = np.random.default_rng(seed)
    s_div, s_cmp = _resolve_signs(ni, rng)
    noise_seed = int(rng.integers(0, 2**63 - 1))
    divider, comparator = s_div * ni.divider_error, s_cmp * ni.comparator_offset
    hysteresis = 4.0 * ni.noise_rms
    gain = _tracking_gain(params.f0, ni.detector_bandwidth)
    diode_drop = ni.diode_residual * _diode_ramp(params.f0, ni.f_fail)
    held = 0  # the comparator's state before the block, 0 before the record
    cycle = (0, -math.inf, 0)  # the open cycle: start, maximum, first index at it
    peaks, firsts, captured = [], [], []  # per block, of the cycles it closed
    offset = 0
    plan = _planned_samples(params, config, samples_per_period)
    blocks = _sim_blocks(params, sample_rate, plan, MAX_SAMPLES, ni.noise_rms, noise_seed)
    try:
        for block in blocks:
            cycles, cycle, held = _clock_block(block, hysteresis, held, offset, cycle)
            offset += block.ring.size
            if cycles is None:
                continue
            lengths, peak, at = cycles
            peaks.append(peak)
            firsts.append(at)
            new = _captured(np.where(peak < 0.0, 0.0, peak), gain, diode_drop, ni, lengths / sample_rate)
            captured.append(new)
            if len(captured) == 1:
                stops = _stop_check(new[0], config, divider, comparator)
                new = new[1:]
            if stops(new):  # only this block's maxima can hold a new stop
                break
        else:  # the budget is spent, or all that is left of it is silent
            if not captured:
                raise SimulationError(
                    f"the clock comparator never fired: no rising edge through its +/-{hysteresis:.3g} V "
                    f"hysteresis (4 x noise_rms) in a ring-down from v0={params.v0:.3g} V"
                )
            thr = stop_threshold(captured[0][0], config.k, divider, comparator)
            raise SampleBudgetError(
                f"the counter has not stopped within the simulator's budget of {MAX_SAMPLES} samples: "
                f"{sum(map(len, captured)) - 1} cycles counted, the last held maximum "
                f"{captured[-1][-1]:.4g} V against a threshold of {thr:.4g} V"
            )
    finally:
        blocks.close()  # drops the noise drawn ahead
    captured = np.concatenate(captured)
    c = held_crossing(captured, config, divider, comparator, params.q)
    if c.status != Failure.NONE.value:
        raise _failure(c.status, params.f0, float(c.threshold))
    stop = int(c.m)  # cycles 1 .. stop - 1 were counted
    thr = float(c.threshold)
    cut = slice(0, stop + 1)
    rows = TraceRows(
        np.arange(stop + 1),
        np.concatenate(firsts)[cut] / sample_rate,
        np.concatenate(peaks)[cut],
        captured[cut],
        np.full(stop + 1, thr),
        captured[cut] > thr,
    )
    trace = SimTrace(rows=rows, captured_v0=float(captured[0]), threshold=thr)
    return c.result(dyn.pseudo_period), trace
