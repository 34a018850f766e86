"""Closed-form response checks, cross-validated by independent numeric
oracles (dense sampling, bisected zero crossings, local maximization)."""

import math
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

    def test_accepts_extreme_finite_samples(self):
        w = Waveform(sample_rate=1e6, samples=[1.7e308, -1.7e308], start_time=-1.0)
        assert w.samples.dtype == float and len(w) == 2
