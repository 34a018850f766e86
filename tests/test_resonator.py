"""Closed-form response checks, cross-validated by independent numeric
oracles (dense sampling, bisected zero crossings, local maximization)."""

import itertools
import math
import threading
import time
import tracemalloc

import numpy as np
import pytest

from qfm import (
    ResonatorParams,
    Waveform,
    derive_dynamics,
    eval_response,
    peak_time,
    peak_value,
    synth_waveform,
)
from qfm import resonator


def bisect_zero(params, lo, hi, iters=200):
    """Zero crossing of the response inside [lo, hi] by bisection."""
    flo = eval_response(params, lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fmid = eval_response(params, mid)
        if (flo > 0) == (fmid > 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def numeric_peak(params, t_guess, half_window, grid=20001):
    """Refined argmax of the response near t_guess (dense grid + parabola)."""
    t = np.linspace(max(0.0, t_guess - half_window), t_guess + half_window, grid)
    v = eval_response(params, t)
    i = int(np.argmax(v))
    if 0 < i < grid - 1:
        y1, y2, y3 = v[i - 1], v[i], v[i + 1]
        d = 0.5 * (y1 - y3) / (y1 - 2 * y2 + y3)
        return t[i] + d * (t[1] - t[0])
    return t[i]


class TestDerivedDynamics:
    def test_high_q_limit_pseudo_period(self):
        dyn = derive_dynamics(ResonatorParams(f0=50_000.0, q=1e9))
        assert dyn.pseudo_period == pytest.approx(2.0e-5, rel=1e-12)

    def test_q300_pseudo_period_closed_form(self):
        dyn = derive_dynamics(ResonatorParams(f0=50_000.0, q=300.0))
        expected = (1.0 / 50_000.0) / math.sqrt(1.0 - 1.0 / (4.0 * 300.0**2))
        assert dyn.pseudo_period == pytest.approx(expected, rel=1e-15)
        assert dyn.pseudo_period == pytest.approx(2.0000027778e-5, rel=1e-9)

    def test_pseudo_period_against_zero_crossings(self):
        # consecutive same-direction zero crossings are one pseudo-period apart
        params = ResonatorParams(f0=50_000.0, q=300.0)
        dyn = derive_dynamics(params)
        T = dyn.pseudo_period
        z1 = bisect_zero(params, 0.1 * T, 0.6 * T)
        z2 = bisect_zero(params, 1.1 * T, 1.6 * T)
        assert z2 - z1 == pytest.approx(T, rel=1e-9)

    def test_overdamped_rejected(self):
        with pytest.raises(ValueError):
            ResonatorParams(f0=50_000.0, q=0.4)
        with pytest.raises(ValueError):
            ResonatorParams(f0=50_000.0, q=0.5)

    def test_alpha_and_omega_d(self):
        params = ResonatorParams(f0=1000.0, q=2.0)
        dyn = derive_dynamics(params)
        w0 = 2 * math.pi * 1000.0
        assert dyn.alpha == pytest.approx(w0 / 4.0)
        assert dyn.omega_d == pytest.approx(w0 * math.sqrt(1 - 1 / 16))
        assert dyn.omega_d < w0
        assert dyn.pseudo_period > 1e-3

    def test_period_approaches_resonant_period_from_above(self):
        f0 = 1234.0
        products = [
            derive_dynamics(ResonatorParams(f0=f0, q=q)).pseudo_period * f0
            for q in (0.6, 1.0, 3.0, 10.0, 100.0, 1e4, 1e7)
        ]
        assert all(p > 1.0 for p in products)
        assert all(a > b for a, b in zip(products, products[1:]))
        assert products[-1] == pytest.approx(1.0, abs=1e-12)

    def test_non_finite_params_rejected(self):
        for kwargs in (
            dict(f0=math.inf, q=300.0),
            dict(f0=1.0, q=math.inf),
            dict(f0=1.0, q=math.nan),
            dict(f0=1.0, q=300.0, v0=math.inf),
        ):
            with pytest.raises(ValueError):
                ResonatorParams(**kwargs)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            ResonatorParams(f0=0.0, q=10.0)
        with pytest.raises(ValueError):
            ResonatorParams(f0=100.0, q=10.0, v0=-1.0)


class TestEvalResponse:
    def test_initial_value_is_v0(self):
        for q in (0.7, 2.0, 300.0, 1e5):
            params = ResonatorParams(f0=50e3, q=q, v0=3.3)
            assert eval_response(params, 0.0) == pytest.approx(3.3, rel=1e-15)

    def test_value_after_one_pseudo_period(self):
        params = ResonatorParams(f0=50e3, q=300.0, v0=1.0)
        T = derive_dynamics(params).pseudo_period
        expected = math.exp(-math.pi / (300.0 * math.sqrt(1 - 1 / (4 * 300.0**2))))
        assert eval_response(params, T) == pytest.approx(expected, rel=1e-12)
        assert eval_response(params, T) == pytest.approx(0.98958, abs=5e-6)
        # the closed form is the local maximum: dense samples nearby stay below
        t = np.linspace(0.9 * T, 1.1 * T, 4001)
        assert np.max(eval_response(params, t)) <= eval_response(params, T) * (1 + 1e-12)

    def test_half_period_is_negative(self):
        for q in (0.8, 5.0, 300.0):
            params = ResonatorParams(f0=10e3, q=q, v0=2.0)
            T = derive_dynamics(params).pseudo_period
            v = eval_response(params, T / 2)
            assert v < 0
            assert abs(v) < 2.0

    def test_rejects_negative_time(self):
        params = ResonatorParams(f0=1e3, q=10.0)
        with pytest.raises(ValueError):
            eval_response(params, -1e-9)
        with pytest.raises(ValueError):
            eval_response(params, np.array([0.0, -1e-6]))

    def test_one_sign_change_per_half_period(self):
        # dense sampling over ten pseudo-periods of a low-Q case
        params = ResonatorParams(f0=1e3, q=2.0)
        T = derive_dynamics(params).pseudo_period
        t = np.linspace(0.0, 10 * T, 200_001)
        v = eval_response(params, t)
        changes = np.nonzero(np.diff(np.signbit(v)))[0]
        half = np.floor(t[changes] / (T / 2)).astype(int)
        # one crossing inside each half-period bucket, none duplicated
        assert len(changes) == 20
        assert len(set(half)) == 20


class TestPeaks:
    def test_peak_zero_at_release(self):
        params = ResonatorParams(f0=77e3, q=12.0, v0=0.5)
        assert peak_time(params, 0) == 0.0
        assert peak_value(params, 0) == pytest.approx(0.5, rel=1e-15)

    def test_derivative_vanishes_at_release(self):
        # the decay term cancels the quadrature term at t = 0
        params = ResonatorParams(f0=50e3, q=7.0, v0=1.0)
        h = 1e-12
        d = (eval_response(params, 2 * h) - eval_response(params, h)) / h
        slope_scale = 2 * math.pi * params.f0 * params.v0
        assert abs(d) < 1e-4 * slope_scale

    @pytest.mark.parametrize("q,m", [(300.0, 171), (300.0, 1), (2.0, 1), (5.0, 7)])
    def test_peak_times_match_numeric_maximization(self, q, m):
        params = ResonatorParams(f0=50e3, q=q, v0=1.0)
        T = derive_dynamics(params).pseudo_period
        t_num = numeric_peak(params, m * T, 0.4 * T)
        assert peak_time(params, m) == pytest.approx(t_num, abs=1e-6 * T)

    def test_peak_time_values(self):
        params = ResonatorParams(f0=50e3, q=300.0)
        assert peak_time(params, 171) == pytest.approx(3.42e-3, rel=1e-4)
        params_low = ResonatorParams(f0=50e3, q=2.0)
        assert peak_time(params_low, 1) == pytest.approx(2.0656e-5, rel=1e-4)

    def test_peak_value_closed_form_and_consistency(self):
        params = ResonatorParams(f0=50e3, q=300.0, v0=1.0)
        delta = math.pi / (300.0 * math.sqrt(1 - 1 / (4 * 300.0**2)))
        assert peak_value(params, 171) == pytest.approx(math.exp(-delta * 171), rel=1e-12)
        assert peak_value(params, 171) == pytest.approx(0.16684, abs=5e-5)
        for m in (0, 1, 17, 171, 500):
            assert abs(eval_response(params, peak_time(params, m)) - peak_value(params, m)) < 1e-12 * params.v0

    def test_consecutive_peak_ratio_constant(self):
        for q in (0.9, 2.0, 300.0):
            params = ResonatorParams(f0=10e3, q=q, v0=1.0)
            expected = math.exp(-math.pi / (q * math.sqrt(1 - 1 / (4 * q * q))))
            values = peak_value(params, np.arange(0, 30))
            ratios = values[1:] / values[:-1]
            assert np.allclose(ratios, expected, rtol=1e-12)
            assert np.all(np.diff(values) < 0)

    def test_rejects_bad_index(self):
        params = ResonatorParams(f0=1e3, q=10.0)
        with pytest.raises(ValueError):
            peak_time(params, -1)
        with pytest.raises(ValueError):
            peak_value(params, 1.5)


class TestSynth:
    def test_refuses_fewer_than_two_samples(self):
        with pytest.raises(ValueError) as err:
            synth_waveform(ResonatorParams(f0=1.0, q=300.0, v0=1.0), 100.0, 0.01)
        assert str(err.value) == "duration too short: fewer than 2 samples requested"

    def test_first_sample_is_v0(self):
        params = ResonatorParams(f0=50e3, q=300.0, v0=1.0)
        w = synth_waveform(params, 5e6, 5e-3)
        assert w.samples[0] == 1.0
        assert len(w) == 25_000
        assert w.sample_rate == 5e6

    def test_sample_at_peak_matches_closed_form(self):
        params = ResonatorParams(f0=50e3, q=300.0, v0=1.0)
        T = derive_dynamics(params).pseudo_period
        w = synth_waveform(params, 5e6, 101 * T)
        i = int(round(100 * T * 5e6))
        # nearest-sample interpolation error bound: half a sample of phase
        phase = 2 * math.pi * 50e3 * (i / 5e6 - 100 * T)
        tol = abs(phase) ** 2 / 2 + 1e-12
        assert w.samples[i] == pytest.approx(peak_value(params, 100), abs=tol * params.v0)

    def test_noise_determinism(self):
        params = ResonatorParams(f0=50e3, q=300.0, v0=1.0)
        w1 = synth_waveform(params, 2e6, 1e-3, noise_rms=1e-4, seed=42)
        w2 = synth_waveform(params, 2e6, 1e-3, noise_rms=1e-4, seed=42)
        assert np.array_equal(w1.samples, w2.samples)
        w3 = synth_waveform(params, 2e6, 1e-3, noise_rms=1e-4, seed=43)
        assert not np.array_equal(w1.samples, w3.samples)

    def test_zero_noise_is_exact_trace(self):
        params = ResonatorParams(f0=10e3, q=50.0, v0=2.0)
        w = synth_waveform(params, 1e6, 1e-3, noise_rms=0.0, seed=9)
        assert np.array_equal(w.samples, eval_response(params, w.times()))

    def test_rejects_undersampling(self):
        params = ResonatorParams(f0=50e3, q=300.0)
        with pytest.raises(ValueError):
            synth_waveform(params, 19 * 50e3, 1e-3)
        synth_waveform(params, 20 * 50e3, 1e-3)

    def test_rejects_bad_duration_and_noise(self):
        params = ResonatorParams(f0=50e3, q=300.0)
        with pytest.raises(ValueError):
            synth_waveform(params, 5e6, 0.0)
        with pytest.raises(ValueError):
            synth_waveform(params, 5e6, 1e-3, noise_rms=-1.0)

    def test_memory_is_about_the_output(self):
        # 2**20 samples: the blocks' work buffers add little to the 8.4 MB record
        params = ResonatorParams(f0=1e3, q=1e4)
        tracemalloc.start()
        try:
            w = synth_waveform(params, 50e3, 2**20 / 50e3, noise_rms=1e-3, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(w) == 2**20
        assert peak < 1.25 * w.samples.nbytes

    def test_rejects_oversized_record(self):
        params = ResonatorParams(f0=50e3, q=300.0)
        # 2e7 samples, and a sample count that overflows to inf
        for rate, duration in ((5e6, 4.0), (1e300, 1e300)):
            with pytest.raises(ValueError, match="limit of 16777216 samples"):
                synth_waveform(params, rate, duration)


class RecordingRng:
    """A seeded generator's normal draws, each recorded with its thread;
    draw number ``fail_at`` (from 1) raises instead, and the draws after
    the first wait for ``gate`` to be set, when one is given."""

    def __init__(self, seed, fail_at=None, gate=None):
        self.rng, self.fail_at, self.gate, self.threads = np.random.default_rng(seed), fail_at, gate, []

    def normal(self, loc, scale, size):
        self.threads.append(threading.current_thread())
        if self.gate is not None and len(self.threads) > 1:
            assert self.gate.wait(30)
        if len(self.threads) == self.fail_at:
            raise ValueError("draw failed")
        return self.rng.normal(loc, scale, size)


def serial_draws(seed, noise_rms, n):
    """One generator's draws for the blocks of n samples, one after another."""
    rng = np.random.default_rng(seed)
    return [rng.normal(0.0, noise_rms, min(resonator._SIM_BLOCK, n - o)) for o in range(0, n, resonator._SIM_BLOCK)]


def drawer_idle():
    """Wait until the worker has run every job queued so far."""
    done = threading.Event()
    resonator._jobs.put((lambda size: done.set(), 0))
    assert done.wait(30)


def wait_for(condition, timeout=30.0):
    end = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < end, "timed out"
        time.sleep(0.001)


@pytest.fixture
def spare_cpu(monkeypatch):
    """Runs hand off as on a machine with CPUs to spare, whatever this one has."""
    monkeypatch.setattr(resonator, "_spare_cpu", lambda: True)


HANDOFF = resonator._HANDOFF_BLOCKS


class TestSimBlocks:
    """The simulator's blocks: an approximate ring-down within the block's
    bound of the exact one, exact samples bit for bit as synthesized, and
    the noise drawn ahead in a worker the same blocks as drawn in turn."""

    @pytest.mark.parametrize("q", [0.51, 0.7, 2.0, 50.0, 2e4, 1e6, 1e7])
    @pytest.mark.parametrize("spp", [20, 37, 59])
    def test_approximation_stays_within_a_quarter_of_its_bound(self, monkeypatch, q, spp):
        # the first blocks and the last of a MAX_SAMPLES record, where the
        # phase and with it the rounding of both evaluations is largest;
        # a low-Q record would end where it falls silent
        monkeypatch.setattr(resonator, "_silent_from", lambda noise_rms, envelope: False)
        params = ResonatorParams(f0=1e6, q=q, v0=1.3)
        blocks = resonator._sim_blocks(params, spp * params.f0, resonator.MAX_SAMPLES, resonator.MAX_SAMPLES, 0.0, 0)
        checked = [(b.ring.copy(), b.exact(np.arange(b.ring.size)), b.eps) for b in itertools.islice(blocks, 2)]
        *_, last = blocks
        checked.append((last.ring, last.exact(np.arange(last.ring.size)), last.eps))
        for ring, exact, eps in checked:
            assert eps > 0 and np.abs(ring - exact).max() <= eps / 4

    def test_exact_samples_are_the_synthesized_ones(self):
        params = ResonatorParams(f0=37e3, q=1234.5, v0=1.7)
        rate, n = 41 * params.f0, 40_000
        wave = synth_waveform(params, rate, n / rate, noise_rms=1e-3, seed=9).samples
        rng = np.random.default_rng(3)
        # past a plan of 5,000 samples the blocks go on, their noise drawn in turn
        for plan in (n, 5_000):
            offset = 0
            for b in resonator._sim_blocks(params, rate, plan, n, 1e-3, 9):
                whole = wave[offset:offset + b.ring.size]
                assert b.exact(np.arange(whole.size)).tobytes() == whole.tobytes()
                idx = np.sort(rng.choice(whole.size, 1 + int(rng.integers(100)), replace=False))
                assert b.exact(idx).tobytes() == whole[idx].tobytes()
                offset += whole.size
            assert offset == n

    @pytest.mark.parametrize("blocks", [1, 2, HANDOFF - 1, HANDOFF, HANDOFF + 1, 57])
    @pytest.mark.parametrize("spare", [True, False])
    def test_noise_blocks_are_the_serial_draws(self, monkeypatch, blocks, spare):
        monkeypatch.setattr(resonator, "_spare_cpu", lambda: spare)
        n = blocks * resonator._SIM_BLOCK - 5
        rng = RecordingRng(5)
        got = list(resonator._noise_blocks(rng, 1e-3, n))
        expected = serial_draws(5, 1e-3, n)
        assert len(got) == len(expected) == blocks
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, expected))
        # the first block in the caller's thread; the later ones in the
        # worker only on a long enough run with a CPU to spare
        caller = threading.current_thread()
        handed = spare and blocks >= HANDOFF
        assert rng.threads[0] is caller
        assert all((t is not caller) == handed for t in rng.threads[1:])

    def test_hundreds_of_tiny_noise_blocks(self, monkeypatch, spare_cpu):
        monkeypatch.setattr(resonator, "_SIM_BLOCK", 16)
        n = 16 * 700 + 9
        got = list(resonator._noise_blocks(np.random.default_rng(8), 2.0, n))
        assert np.concatenate(got).tobytes() == np.random.default_rng(8).normal(0.0, 2.0, n).tobytes()
        assert len(got) == 701

    def test_noiseless_blocks_are_none(self):
        assert list(resonator._noise_blocks(None, 0.0, 5 * resonator._SIM_BLOCK + 1)) == [None] * 6

    def test_draws_at_most_the_lookahead_past_the_block_in_use(self, monkeypatch, spare_cpu):
        monkeypatch.setattr(resonator, "_SIM_BLOCK", 100)
        rng = RecordingRng(1)
        for b, _ in enumerate(resonator._noise_blocks(rng, 1.0, 20 * 100)):
            drawn = min(b + 1 + resonator._LOOKAHEAD, 20)
            wait_for(lambda: len(rng.threads) >= drawn)
            drawer_idle()
            assert len(rng.threads) == drawn

    def test_closing_drops_the_draws_not_started(self, monkeypatch, spare_cpu):
        monkeypatch.setattr(resonator, "_SIM_BLOCK", 100)
        rng = RecordingRng(1, gate=threading.Event())
        blocks = resonator._noise_blocks(rng, 1.0, 50 * 100)
        next(blocks)
        wait_for(lambda: len(rng.threads) == 2)  # the worker is in block 1's draw
        blocks.close()
        rng.gate.set()
        drawer_idle()
        assert len(rng.threads) == 2  # blocks 2 and 3 were queued, not drawn
        # the next run draws its own blocks, bit for bit
        got = list(resonator._noise_blocks(np.random.default_rng(4), 1.0, 50 * 100))
        assert np.concatenate(got).tobytes() == np.concatenate(serial_draws(4, 1.0, 50 * 100)).tobytes()

    @pytest.mark.parametrize("fail_at", [1, 2, 4, 9])
    def test_a_draw_that_raises_raises_in_the_caller(self, monkeypatch, spare_cpu, fail_at):
        monkeypatch.setattr(resonator, "_SIM_BLOCK", 100)
        rng = RecordingRng(1, fail_at=fail_at)
        taken = []
        with pytest.raises(ValueError, match="draw failed"):
            for noise in resonator._noise_blocks(rng, 1.0, 12 * 100):
                taken.append(noise)
        assert len(taken) == fail_at - 1
        drawer_idle()
        assert len(rng.threads) == fail_at  # the run's later draws are dropped
        got = list(resonator._noise_blocks(np.random.default_rng(4), 1.0, 12 * 100))
        assert np.concatenate(got).tobytes() == np.concatenate(serial_draws(4, 1.0, 12 * 100)).tobytes()

    @pytest.mark.parametrize("blocks", [1, HANDOFF, 57])
    def test_synth_and_simulator_blocks_take_the_same_noise(self, spare_cpu, blocks):
        params = ResonatorParams(f0=37e3, q=1234.5, v0=1.7)
        rate, n = 41 * params.f0, blocks * resonator._SIM_BLOCK - 3
        wave = synth_waveform(params, rate, n / rate, noise_rms=1e-3, seed=9).samples
        ring = resonator._ring(*resonator._ring_constants(params), np.arange(n) / rate)
        noise = np.concatenate([b.noise for b in resonator._sim_blocks(params, rate, n, n, 1e-3, 9)])
        assert noise.tobytes() == np.concatenate(serial_draws(9, 1e-3, n)).tobytes()
        assert (ring + noise).tobytes() == wave.tobytes()


class TestWaveform:
    def test_rejects_non_finite_rate_and_start(self):
        for kwargs in (
            dict(sample_rate=math.inf),
            dict(sample_rate=math.nan),
            dict(sample_rate=1e6, start_time=math.inf),
            dict(sample_rate=1e6, start_time=math.nan),
        ):
            with pytest.raises(ValueError, match="finite"):
                Waveform(samples=[0.0, 1.0], **kwargs)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_samples(self, bad):
        samples = np.linspace(-1.0, 1.0, 101)
        samples[37] = bad
        with pytest.raises(ValueError, match="finite"):
            Waveform(sample_rate=1e6, samples=samples)

    @pytest.mark.parametrize("samples", [[], np.zeros((0, 2))])
    def test_rejects_no_samples(self, samples):
        with pytest.raises(ValueError) as err:
            Waveform(sample_rate=1e6, samples=samples)
        assert str(err.value) == "samples must be a non-empty 1-D sequence"

    def test_accepts_extreme_finite_samples(self):
        w = Waveform(sample_rate=1e6, samples=[1.7e308, -1.7e308], start_time=-1.0)
        assert w.samples.dtype == float and len(w) == 2
