"""Closed-form ring-down response of an underdamped second-order resonator.

A resonator released at t = 0 from a sustained oscillation maximum V0
(for instance by opening the loop of an oscillator built around it)
rings down as

    V(t) = V0 exp(-a t) [cos(wd t) + sin(wd t) / sqrt(4 Q^2 - 1)]

with decay rate a = w0 / (2 Q), damped angular frequency
wd = w0 sqrt(1 - 1/(4 Q^2)) and w0 = 2 pi f0.  The derivative of V is
proportional to -sin(wd t), so the successive maxima sit exactly at
integer multiples of the pseudo-period T = 2 pi / wd and decay
geometrically.  Everything downstream (pseudo-period counting, the
behavioral circuit model, waveform ingestion) is checked against the
closed forms in this module.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

__all__ = [
    "ResonatorParams",
    "DerivedDynamics",
    "Waveform",
    "derive_dynamics",
    "eval_response",
    "peak_time",
    "peak_value",
    "synth_waveform",
]


def check_f0_v0(f0: float, v0: float) -> None:
    """Reject a resonant frequency or initial amplitude that is not
    finite and > 0."""
    if not 0 < f0 < math.inf:
        raise ValueError(f"f0 must be finite and > 0 Hz (got {f0})")
    if not 0 < v0 < math.inf:
        raise ValueError(f"v0 must be finite and > 0 V (got {v0})")


@dataclass(frozen=True)
class ResonatorParams:
    """Device under test: resonant frequency f0 [Hz], quality factor q,
    initial peak amplitude v0 [V].

    Only the underdamped regime q > 0.5 is supported; at or below it the
    response has no pseudo-period and the square roots above turn
    imaginary.
    """

    f0: float
    q: float
    v0: float = 1.0

    def __post_init__(self):
        check_f0_v0(self.f0, self.v0)
        if not 0.5 < self.q < math.inf:
            raise ValueError(
                f"q must be finite and > 0.5 (underdamped regime), got {self.q}"
            )


@dataclass(frozen=True)
class DerivedDynamics:
    """Decay rate alpha [rad/s], damped angular frequency omega_d [rad/s]
    and pseudo-period T = 2 pi / omega_d [s] of a ring-down."""

    alpha: float
    omega_d: float
    pseudo_period: float


@dataclass(frozen=True)
class Waveform:
    """Uniformly sampled voltage trace."""

    sample_rate: float
    samples: np.ndarray
    start_time: float = 0.0

    def __post_init__(self):
        if not 0 < self.sample_rate < math.inf:
            raise ValueError(f"sample_rate must be finite and > 0 (got {self.sample_rate})")
        if not math.isfinite(self.start_time):
            raise ValueError(f"start_time must be finite (got {self.start_time})")
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 1 or samples.size == 0:
            raise ValueError("samples must be a non-empty 1-D sequence")
        # min and max propagate NaN and reach +/-inf, without a temporary
        if not (math.isfinite(samples.min()) and math.isfinite(samples.max())):
            raise ValueError("samples must all be finite (found nan or inf)")
        object.__setattr__(self, "samples", samples)

    def times(self) -> np.ndarray:
        """Sample instants in seconds."""
        return self.start_time + np.arange(self.samples.size) / self.sample_rate

    def __len__(self) -> int:
        return self.samples.size


def derive_dynamics(params: ResonatorParams) -> DerivedDynamics:
    """Decay rate, damped frequency and pseudo-period of the ring-down.

    alpha = w0 / (2 q),  omega_d = w0 sqrt(1 - 1/(4 q^2)),
    pseudo_period = 2 pi / omega_d, with w0 = 2 pi f0.
    """
    w0 = 2.0 * math.pi * params.f0
    alpha = w0 / (2.0 * params.q)
    omega_d = w0 * math.sqrt(1.0 - 1.0 / (4.0 * params.q * params.q))
    return DerivedDynamics(
        alpha=alpha, omega_d=omega_d, pseudo_period=2.0 * math.pi / omega_d
    )


def eval_response(params: ResonatorParams, t):
    """Ring-down voltage at time(s) t >= 0 seconds.

    Accepts a scalar or an array of times; returns the matching shape.
    """
    scalar = np.ndim(t) == 0
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(t < 0):
        raise ValueError("t must be >= 0 (response starts at the release instant)")
    v = _ring(*_ring_constants(params), t)
    return float(v[0]) if scalar else v


def _ring_constants(params: ResonatorParams):
    """The ring-down's constants as :func:`_ring` takes them:
    (omega_d, c, -alpha, v0) with c = 1 / sqrt(4 q^2 - 1)."""
    dyn = derive_dynamics(params)
    return dyn.omega_d, 1.0 / math.sqrt(4.0 * params.q * params.q - 1.0), -dyn.alpha, params.v0


def _ring(omega_d, c, neg_alpha, v0, t):
    """v0 exp(-alpha t) (cos(omega_d t) + c sin(omega_d t)) over a 1-D
    float array of times t, unchecked, in two work buffers.  Every exact
    sample (eval_response, synth_waveform, the simulator's exact(idx))
    is this kernel's, so they agree bit for bit."""
    phase = np.multiply(omega_d, t)
    v = np.cos(phase)
    np.sin(phase, out=phase)
    np.multiply(c, phase, out=phase)
    np.add(v, phase, out=phase)
    np.multiply(neg_alpha, t, out=v)
    np.exp(v, out=v)
    np.multiply(v0, v, out=v)
    np.multiply(v, phase, out=v)
    return v


def peak_time(params: ResonatorParams, m) -> float:
    """Time of the m-th maximum (m = 0, 1, 2, ...), which is exactly
    m pseudo-periods after release.

    dV/dt vanishes where sin(omega_d t) = 0 because the decay term and
    the quadrature term cancel at t = 0 and the condition is periodic;
    the maxima are the even half-period grid points.
    """
    m = _check_peak_index(m)
    dyn = derive_dynamics(params)
    out = m * dyn.pseudo_period
    return float(out) if np.ndim(out) == 0 else out


def log_decrement(q):
    """Log decrement delta = alpha T = pi / (q sqrt(1 - 1/(4 q^2))): the
    maxima fall by exp(-delta) per pseudo-period, whatever f0.  Past the
    float range 4 q^2 gives delta its limit pi / q."""
    with np.errstate(over="ignore"):
        return math.pi / (q * np.sqrt(1.0 - 1.0 / (4.0 * q * q)))


def peak_value(params: ResonatorParams, m) -> float:
    """Amplitude of the m-th maximum: v0 exp(-delta m), with delta the
    :func:`log_decrement` of q."""
    m = _check_peak_index(m)
    out = params.v0 * np.exp(-(log_decrement(params.q) * m))
    return float(out) if np.ndim(out) == 0 else out


def _check_peak_index(m):
    arr = np.asarray(m)
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(f"peak index m must be an integer (got {m!r})")
    if np.any(arr < 0):
        raise ValueError(f"peak index m must be >= 0 (got {m!r})")
    return arr


# A synthesized trace must resolve individual cycles well enough that
# discrete peak extraction stays an order of magnitude below the smallest
# modeled circuit non-ideality.
MIN_SAMPLES_PER_PERIOD = 20

# Largest record synthesized or read (134 MB per float64 array), and the
# samples a simulator run may spend before its counter stops.
MAX_SAMPLES = 2**24

# Samples per block of synthesis and of the simulator's run: its float64
# work buffers are 128 KiB each whatever the record's length.  At 2**15
# glibc gives the buffers back and faults them in again about three
# times as often; below 2**14 the per-block Python cost shows.  The
# simulator approximates each block's ring-down from angle-addition
# tables with rows of _SIM_ROW samples (three transcendentals per row
# instead of three per sample) and evaluates exactly only the samples
# its decisions need (see _sim_blocks).
_SIM_BLOCK = 2**14
_SIM_ROW = 128

# A record (or a simulator run's plan) of at least _HANDOFF_BLOCKS blocks
# draws its noise after the first block in a worker thread, _LOOKAHEAD
# blocks ahead of the block in use, while the caller works on that block
# (see _noise_blocks).  Shorter runs lose more to the hand-off than they gain.
_HANDOFF_BLOCKS = 3
_LOOKAHEAD = 3


class _SimBlock(NamedTuple):
    """One block of the simulator's record.

    ``ring`` approximates the noiseless ring-down to within ``eps``
    volts of ``eval_response`` at every sample, ``noise`` holds the
    block's noise samples (None without noise), and ``exact(idx)``
    returns the samples at block indices ``idx`` bit for bit as
    ``synth_waveform`` gives them, noise included.  ``ring`` may be
    overwritten and is valid until the next block is drawn.
    """

    ring: np.ndarray
    noise: np.ndarray | None
    eps: float
    exact: Callable[[np.ndarray], np.ndarray]


def _exact_samples(constants, sample_rate, offset, noise, idx):
    # the kernel works elementwise, so a gathered index evaluates to the
    # same bits as the whole block does
    v = _ring(*constants, (offset + idx) / sample_rate)
    if noise is not None:
        v += noise[idx]
    return v


# Runs that hand off put their jobs on _jobs as (function, size).  One
# daemon thread, qfm-noise, started by the first such run, calls
# function(size) for each in the order queued, then waits, idle, for more.
_jobs = None
_jobs_lock = threading.Lock()


def _forget_jobs():
    # a forked child has none of its parent's threads: it starts its own
    global _jobs, _jobs_lock
    _jobs, _jobs_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_jobs)


def _serve(jobs):
    while True:
        function, size = jobs.get()
        function(size)


def _spare_cpu() -> bool:
    """Whether the process may run on more than one CPU, so that a
    worker's draw can overlap the caller's work."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) > 1
    return (os.cpu_count() or 1) > 1


def _noise_blocks(rng, noise_rms: float, n: int):
    """The noise of ``n`` samples (a record, or the samples a simulator
    run plans for) in blocks of ``_SIM_BLOCK``, the last one shorter:
    ``rng.normal(0.0, noise_rms, size)`` for each, or None when ``rng`` is None.

    One generator's draws concatenate bit for bit, so the blocks are
    the same however they are drawn.  The first is drawn in the
    caller's thread, and so is every block of a run shorter than
    ``_HANDOFF_BLOCKS`` or of a process confined to one CPU.  Otherwise
    a worker thread draws the later blocks in order, at most
    ``_LOOKAHEAD`` past the block in use, while the caller works on
    it.  Closing the generator drops the draws not yet started.
    """
    global _jobs
    sizes = [min(_SIM_BLOCK, n - offset) for offset in range(0, n, _SIM_BLOCK)]
    if rng is None:
        yield from itertools.repeat(None, len(sizes))
        return
    if len(sizes) < _HANDOFF_BLOCKS or not _spare_cpu():
        for size in sizes:
            yield rng.normal(0.0, noise_rms, size)
        return
    import queue

    with _jobs_lock:
        if _jobs is None:
            _jobs = queue.SimpleQueue()
            threading.Thread(target=_serve, args=(_jobs,), name="qfm-noise", daemon=True).start()
        jobs = _jobs
    first = rng.normal(0.0, noise_rms, sizes[0])
    drawn, closed, queued = queue.SimpleQueue(), False, iter(sizes[1:])

    def draw(size):
        # a job of the run: nothing once the run has closed
        nonlocal closed
        if closed:
            return
        try:
            drawn.put(rng.normal(0.0, noise_rms, size))
        except Exception as exc:  # raised again in the caller's thread
            closed = True
            drawn.put(exc)

    try:
        for size in itertools.islice(queued, _LOOKAHEAD):
            jobs.put((draw, size))
        yield first
        for _ in sizes[1:]:
            noise = drawn.get()
            if isinstance(noise, Exception):
                raise noise
            size = next(queued, None)
            if size is not None:
                jobs.put((draw, size))
            yield noise
    finally:
        closed = True


def _silent_from(noise_rms: float, envelope: float) -> bool:
    """Whether a record is silent from a block on whose exact envelope
    v0 exp(-alpha t) at its first sample is ``envelope``, rounded as
    :func:`_ring` rounds it: when it is noiseless and that is 0.  The
    envelope only falls along the record, so every later exact sample is
    then +/-0, which a noiseless comparator (its hysteresis 0 V) codes
    as inside its band: no edge fires and no cycle closes for the rest
    of any budget.  The envelope decides, not the sample, which is also
    0 at a zero crossing, and a subnormal envelope can still fire the
    comparator."""
    return noise_rms == 0 and envelope == 0.0


def _sim_blocks(params: ResonatorParams, sample_rate: float, plan: int, n: int, noise_rms: float, seed: int):
    """The first ``n`` samples of the noisy ring-down as consecutive
    :class:`_SimBlock`, the noise as ``synth_waveform`` takes it: the
    first ``plan`` (at most ``n``) in blocks of ``_SIM_BLOCK`` (the last
    one shorter), their noise from :func:`_noise_blocks`, then the rest
    likewise, their noise drawn in turn.  Whatever the plan, the samples
    are the same.  Close the generator when the run stops early.

    Row j of a block starts at time T_j and sample k of the row lies
    tau_k later, so the ring-down there is

        A_j P_k + B_j Q_k,  P_k = exp(-a tau_k) cos(wd tau_k),
                            Q_k = exp(-a tau_k) sin(wd tau_k),

    with A_j = V(T_j) and B_j = V0 exp(-a T_j) (c cos(wd T_j) - sin(wd T_j)),
    c = 1 / sqrt(4 Q^2 - 1): three transcendentals per row, and the
    rows are one matrix product [A B] [P; Q].  That sum and
    eval_response round t and wd t (and a t = c wd t) apart, so at phase
    phi = wd t they differ by up to about 3 (1 + c) phi 2^-52 of the
    block's largest amplitude (1 + c) V0 exp(-a T_0), plus about a
    hundred ulps of it from the products and sums.  A block's bound is

        eps = (1 + c) V0 exp(-a T_0) (16 (1 + c) phi + 512) 2^-52 + V0 2^-1000

    with phi the phase at the end of its table: over four times both
    terms, and a floor for the subnormal tail.  At Q = 1e7 and 20
    samples per period the error measured near sample 2^24 is 1.16e-9 V0,
    a twelfth of eps.

    A noiseless record ends before the first block at which it falls
    silent (see :func:`_silent_from`).
    """
    constants = _ring_constants(params)
    omega_d, c, neg_alpha, v0 = constants
    rng = np.random.default_rng(seed) if noise_rms > 0 else None
    planned = _noise_blocks(rng, noise_rms, plan)
    tau = np.arange(_SIM_ROW) / sample_rate
    pq = np.exp(neg_alpha * tau) * np.stack((np.cos(omega_d * tau), np.sin(omega_d * tau)))
    rows = -(-min(_SIM_BLOCK, n) // _SIM_ROW)
    ab, ring = np.empty((rows, 2)), np.empty((rows, _SIM_ROW))
    floor = math.ldexp(v0, -1000)
    try:
        for offset in itertools.chain(range(0, plan, _SIM_BLOCK), range(plan, n, _SIM_BLOCK)):
            size = min(_SIM_BLOCK, (plan if offset < plan else n) - offset)
            r = -(-size // _SIM_ROW)
            t = (offset + _SIM_ROW * np.arange(r)) / sample_rate
            amp = v0 * np.exp(neg_alpha * t)
            if _silent_from(noise_rms, amp[0]):
                return
            noise = next(planned) if offset < plan else rng.normal(0.0, noise_rms, size) if rng else None
            phase = omega_d * t
            cos, sin = np.cos(phase), np.sin(phase)
            np.multiply(amp, cos + c * sin, out=ab[:r, 0])
            np.multiply(amp, c * cos - sin, out=ab[:r, 1])
            np.matmul(ab[:r], pq, out=ring[:r])
            end_phase = omega_d * (offset + r * _SIM_ROW) / sample_rate
            # the amplitude multiplies last, so a v0 near the float range's
            # top gives a bound, not an overflow
            eps = amp[0] * ((1.0 + c) * (16.0 * (1.0 + c) * end_phase + 512.0) * 2.0**-52) + floor
            yield _SimBlock(
                ring[:r].reshape(-1)[:size], noise, eps,
                partial(_exact_samples, constants, sample_rate, offset, noise),
            )
    finally:
        planned.close()


def synth_waveform(
    params: ResonatorParams,
    sample_rate: float,
    duration: float,
    noise_rms: float = 0.0,
    seed: int = 0,
) -> Waveform:
    """Sample the ring-down at `sample_rate` for `duration` seconds.

    Optionally adds white Gaussian noise of the given RMS, seeded so two
    calls with equal arguments produce bit-identical traces.  Rejects
    sample rates below 20 samples per resonant period and records over
    MAX_SAMPLES samples.  The record is filled block by block, so the
    call holds little beyond its output.
    """
    if sample_rate < MIN_SAMPLES_PER_PERIOD * params.f0:
        raise ValueError(
            f"sample_rate {sample_rate} Hz undersamples f0={params.f0} Hz; "
            f"need >= {MIN_SAMPLES_PER_PERIOD} samples per period"
        )
    if not duration > 0:
        raise ValueError(f"duration must be > 0 s (got {duration})")
    if noise_rms < 0:
        raise ValueError(f"noise_rms must be >= 0 V (got {noise_rms})")
    if not duration * sample_rate <= MAX_SAMPLES:  # an overflow to inf fails too
        raise ValueError(
            f"{duration} s at {sample_rate} Hz is over the limit of {MAX_SAMPLES} samples"
        )
    n = int(round(duration * sample_rate))
    if n < 2:
        raise ValueError("duration too short: fewer than 2 samples requested")
    v = np.empty(n)
    constants = _ring_constants(params)
    noises = _noise_blocks(np.random.default_rng(seed) if noise_rms > 0 else None, noise_rms, n)
    try:
        for offset, noise in zip(range(0, n, _SIM_BLOCK), noises):
            block = v[offset:offset + _SIM_BLOCK]
            block[:] = _ring(*constants, (offset + np.arange(block.size)) / sample_rate)
            if noise is not None:
                block += noise
    finally:
        noises.close()
    return Waveform(sample_rate=sample_rate, samples=v)
