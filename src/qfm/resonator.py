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

import math
from dataclasses import dataclass

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
        if not 0 < self.f0 < math.inf:
            raise ValueError(f"f0 must be finite and > 0 Hz (got {self.f0})")
        if not 0 < self.v0 < math.inf:
            raise ValueError(f"v0 must be finite and > 0 V (got {self.v0})")
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
    dyn = derive_dynamics(params)
    c = 1.0 / math.sqrt(4.0 * params.q * params.q - 1.0)
    # v0 * exp(-alpha t) * (cos(omega_d t) + c sin(omega_d t)), evaluated
    # in two work buffers
    phase = np.multiply(dyn.omega_d, t)
    v = np.cos(phase)
    np.sin(phase, out=phase)
    np.multiply(c, phase, out=phase)
    np.add(v, phase, out=phase)
    np.multiply(-dyn.alpha, t, out=v)
    np.exp(v, out=v)
    np.multiply(params.v0, v, out=v)
    np.multiply(v, phase, out=v)
    return float(v[0]) if scalar else v


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


def peak_value(params: ResonatorParams, m) -> float:
    """Amplitude of the m-th maximum: v0 exp(-alpha m T)."""
    m = _check_peak_index(m)
    dyn = derive_dynamics(params)
    out = params.v0 * np.exp(-dyn.alpha * (m * dyn.pseudo_period))
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

# Largest record synthesized: 2**24 samples is 134 MB per float64 array.
MAX_SAMPLES = 2**24

# Samples per synthesized block: its float64 work buffers are 128 KiB
# each whatever the record's length.  At 2**15 glibc gives the buffers
# back and faults them in again about three times as often; below
# 2**14 the per-block Python cost shows.
_SIM_BLOCK = 2**14


def _synth_blocks(params: ResonatorParams, sample_rate: float, n: int, noise_rms: float, seed: int):
    """The first ``n`` samples of the noisy ring-down as consecutive
    blocks of ``_SIM_BLOCK`` samples (the last one shorter).  Block
    times are ``(offset + arange) / sample_rate`` and the noise comes
    from one generator, so the blocks joined are bit-identical to one
    evaluation of the whole record."""
    rng = np.random.default_rng(seed) if noise_rms > 0 else None
    for offset in range(0, n, _SIM_BLOCK):
        size = min(_SIM_BLOCK, n - offset)
        v = eval_response(params, (offset + np.arange(size)) / sample_rate)
        if rng is not None:
            v += rng.normal(0.0, noise_rms, size)
        yield v


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
    offset = 0
    for block in _synth_blocks(params, sample_rate, n, noise_rms, seed):
        v[offset:offset + block.size] = block
        offset += block.size
    return Waveform(sample_rate=sample_rate, samples=v)
