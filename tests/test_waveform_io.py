"""CSV round trips, peak extraction against the closed forms, counting on
extracted peaks, and the log-decrement cross-check."""

import io
import math

import numpy as np
import pytest

from qfm import (
    Convention,
    InsufficientRecordError,
    MeasurementConfig,
    PeakList,
    ResonatorParams,
    WaveformFormatError,
    Waveform,
    count_pseudo_periods,
    derive_dynamics,
    extract_peaks,
    fit_q_log_decrement,
    load_waveform,
    measure_q_counting,
    measurement_record,
    peak_time,
    peak_value,
    peaklist_to_csv,
    q_from_count,
    synth_waveform,
    waveform_to_csv,
)

FIRST = Convention.FIRST_AT_OR_BELOW
LAST = Convention.LAST_ABOVE


def synth(q=300.0, f0=50e3, rate=5e6, periods=None, noise=0.0, seed=0, v0=1.0):
    params = ResonatorParams(f0=f0, q=q, v0=v0)
    T = derive_dynamics(params).pseudo_period
    if periods is None:
        periods = count_pseudo_periods(params, MeasurementConfig(6.0, FIRST)) + 5
    return params, synth_waveform(params, rate, periods * T, noise_rms=noise, seed=seed)


class TestCsvRoundTrip:
    def test_bit_exact(self, tmp_path):
        _, w = synth(periods=20, noise=1e-4, seed=3)
        path = tmp_path / "wave.csv"
        waveform_to_csv(w, path)
        loaded = load_waveform(path)
        assert np.array_equal(loaded.samples, w.samples)
        assert loaded.sample_rate == pytest.approx(w.sample_rate, rel=1e-9)
        assert loaded.start_time == 0.0

    def test_write_determinism(self, tmp_path):
        _, w = synth(periods=10, noise=1e-4, seed=5)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        waveform_to_csv(w, a)
        waveform_to_csv(w, b)
        assert a.read_bytes() == b.read_bytes()

    def test_header_and_first_row(self):
        _, w = synth(periods=5)
        buf = io.StringIO()
        waveform_to_csv(w, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "t,v"
        assert lines[1] == "0,1"

    def test_stream_sources(self):
        _, w = synth(periods=5)
        buf = io.StringIO()
        waveform_to_csv(w, buf)
        text = buf.getvalue()
        from_text = load_waveform(io.StringIO(text))
        from_bytes = load_waveform(io.BytesIO(text.encode()))
        assert np.array_equal(from_text.samples, from_bytes.samples)

    def test_shuffled_timestamps_rejected(self):
        text = "t,v\n0,1\n2e-7,0.9\n1e-7,0.8\n3e-7,0.7\n"
        with pytest.raises(WaveformFormatError) as err:
            load_waveform(io.StringIO(text))
        assert "non-uniform" in str(err.value)

    def test_header_only_rejected(self):
        with pytest.raises(WaveformFormatError):
            load_waveform(io.StringIO("t,v\n"))
        with pytest.raises(WaveformFormatError):
            load_waveform(io.StringIO(""))

    def test_malformed_row_reports_line(self):
        text = "t,v\n0,1\n1e-7,0.9\n2e-7,not_a_number\n"
        with pytest.raises(WaveformFormatError) as err:
            load_waveform(io.StringIO(text))
        assert err.value.line == 4
        assert "line 4" in str(err.value)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "infinity"])
    def test_non_finite_cell_reports_line(self, cell):
        # the blank line still counts toward the reported line number
        for row in (f"2e-7,{cell}", f"{cell},0.8"):
            text = f"t,v\n0,1\n\n1e-7,0.9\n{row}\n3e-7,0.7\n"
            with pytest.raises(WaveformFormatError) as err:
                load_waveform(io.StringIO(text))
            assert err.value.line == 5
            assert "line 5" in str(err.value) and "non-finite" in str(err.value)

    def test_wrong_header_rejected(self):
        with pytest.raises(WaveformFormatError):
            load_waveform(io.StringIO("time,volts\n0,1\n1,2\n2,3\n"))

    def test_too_few_rows_rejected(self):
        with pytest.raises(WaveformFormatError):
            load_waveform(io.StringIO("t,v\n0,1\n1e-7,0.9\n"))


class TestExtractPeaks:
    def test_clean_peaks_match_closed_forms(self):
        params, w = synth(periods=105)
        peaks = extract_peaks(w)
        assert len(peaks) >= 100
        assert not peaks.irregular_spacing
        dt = 1.0 / w.sample_rate
        for m in range(100):
            assert abs(peaks.times[m] - peak_time(params, m)) < 0.5 * dt
            assert abs(peaks.values[m] - peak_value(params, m)) < 1e-4 * params.v0

    def test_first_peak_is_initial_sample(self):
        params, w = synth(periods=10)
        peaks = extract_peaks(w)
        assert peaks.times[0] == 0.0
        assert peaks.values[0] == params.v0

    def test_noise_with_hysteresis_keeps_count(self):
        _, clean = synth(periods=103, rate=5e6)
        _, noisy = synth(periods=103, rate=5e6, noise=1e-3, seed=11)
        n_clean = len(extract_peaks(clean))
        n_noisy = len(extract_peaks(noisy, hysteresis=1e-2))
        assert abs(n_noisy - n_clean) <= 1  # trailing peak may lose confirmation

    def test_zero_hysteresis_equals_positive_on_clean_signal(self):
        _, w = synth(periods=60)
        a = extract_peaks(w, hysteresis=0.0)
        b = extract_peaks(w, hysteresis=1e-2)
        assert len(a) == len(b)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.values, b.values)

    def test_never_more_peaks_than_half_cycles(self):
        params, w = synth(periods=40)
        T = derive_dynamics(params).pseudo_period
        half_cycles = int(len(w) / w.sample_rate / (T / 2)) + 1
        assert len(extract_peaks(w)) <= half_cycles

    def test_amplitude_floor(self):
        params, w = synth(q=20.0, periods=30)
        all_peaks = extract_peaks(w)
        floored = extract_peaks(w, min_amplitude=0.1 * params.v0)
        assert len(floored) < len(all_peaks)
        assert np.all(floored.values >= 0.1 * params.v0)

    def test_leading_negative_lobe_skipped(self):
        # record starting inside a trough still yields positive maxima only
        params = ResonatorParams(f0=50e3, q=50.0, v0=1.0)
        T = derive_dynamics(params).pseudo_period
        full = synth_waveform(params, 5e6, 20 * T)
        start = int(0.4 * T * 5e6)  # mid negative lobe
        w = Waveform(sample_rate=5e6, samples=full.samples[start:])
        peaks = extract_peaks(w)
        assert np.all(peaks.values > 0)
        # first reported peak is the true maximum 1 of the original trace
        assert peaks.values[0] == pytest.approx(peak_value(params, 1), abs=1e-4)

    def test_too_few_peaks_raises(self):
        params = ResonatorParams(f0=50e3, q=300.0, v0=1.0)
        w = synth_waveform(params, 5e6, 0.5 / 50e3)
        with pytest.raises(ValueError):
            extract_peaks(w)

    def test_irregular_spacing_flagged(self):
        t = np.array([0.0, 1.0, 2.0, 2.4, 4.0])
        peaks = PeakList(times=t, values=np.ones(5))
        assert peaks.irregular_spacing is False  # constructor does not flag
        # the extraction pipeline does: build a trace with a dropped cycle
        rate = 1000.0
        tt = np.arange(0, 6.0, 1 / rate)
        v = np.sin(2 * np.pi * tt)
        v[(tt >= 1.95) & (tt <= 2.55)] = -0.5  # swallow one positive lobe
        w = Waveform(sample_rate=rate, samples=v)
        assert extract_peaks(w).irregular_spacing

    def test_peaklist_csv(self, tmp_path):
        _, w = synth(periods=12)
        peaks = extract_peaks(w)
        path = tmp_path / "peaks.csv"
        peaklist_to_csv(peaks, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "m,t,v"
        assert len(lines) == len(peaks) + 1
        assert lines[1].startswith("0,0,1")


class TestMeasureCounting:
    def test_reference_scenario(self):
        params, w = synth()
        peaks = extract_peaks(w)
        result = measure_q_counting(peaks, MeasurementConfig(6.0, LAST))
        assert result.n == 171
        assert result.q_measured == pytest.approx(299.82, abs=0.01)
        assert result.threshold_used == pytest.approx(1 / 6, rel=1e-6)
        assert result.t_measure == pytest.approx(
            171 * derive_dynamics(params).pseudo_period, rel=1e-4
        )

    def test_exact_ratio_two_peaks(self):
        peaks = PeakList(times=np.array([0.0, 1.0]), values=np.array([1.0, 0.25]))
        result = measure_q_counting(peaks, MeasurementConfig(4.0, FIRST))
        assert result.n == 1

    def test_truncated_record_reports_missing_duration(self):
        _, w = synth(periods=100)  # threshold sits near period 171
        peaks = extract_peaks(w)
        with pytest.raises(InsufficientRecordError) as err:
            measure_q_counting(peaks, MeasurementConfig(6.0, LAST))
        extra = err.value.extra_seconds
        T = derive_dynamics(ResonatorParams(50e3, 300.0, 1.0)).pseudo_period
        # about 72 more pseudo-periods were needed
        assert extra == pytest.approx(72 * T, rel=0.05)

    def test_rejects_degenerate_inputs(self):
        peaks = PeakList(times=np.array([0.0]), values=np.array([1.0]))
        with pytest.raises(ValueError):
            measure_q_counting(peaks, MeasurementConfig(6.0, LAST))
        # immediate crossing leaves LAST_ABOVE with nothing counted
        pair = PeakList(times=np.array([0.0, 1.0]), values=np.array([1.0, 0.1]))
        with pytest.raises(ValueError):
            measure_q_counting(pair, MeasurementConfig(6.0, LAST))

    def test_failure_messages(self):
        def message(values, k=6.0):
            peaks = PeakList(times=np.arange(len(values), dtype=float), values=np.array(values))
            with pytest.raises(ValueError) as err:
                measure_q_counting(peaks, MeasurementConfig(k, LAST))
            return str(err.value)

        assert message([-0.5, 0.1]) == "first peak must be positive (got -0.5)"
        assert message([1.0, 0.1]) == (
            "measurement degenerate: the first maximum after V0 is already at or below the threshold"
        )
        with pytest.raises(InsufficientRecordError) as err:
            measure_q_counting(PeakList(np.arange(3.0), np.array([1.0, 1.0, 1.0])), MeasurementConfig(6.0))
        assert str(err.value) == (
            "insufficient record length: the envelope stays above the threshold 0.166667 V across all 3 peaks"
        )
        assert err.value.extra_seconds is None

    def test_result_has_no_relative_error(self):
        result = measure_q_counting(extract_peaks(synth()[1]), MeasurementConfig(6.0, LAST))
        assert result.relative_error is None and result.threshold_used == 1.0 / 6.0

    @pytest.mark.parametrize(
        "times,values",
        [([0.0, math.nan], [1.0, 0.5]), ([0.0, math.inf], [1.0, 0.5]),
         ([0.0, 1.0], [math.nan, 0.5]), ([0.0, 1.0], [1.0, -math.inf])],
    )
    def test_peaklist_refuses_non_finite(self, times, values):
        with pytest.raises(ValueError, match="peak times and values must be finite"):
            PeakList(times=np.array(times), values=np.array(values))


class TestLogDecrementFit:
    def test_recovers_q300(self):
        _, w = synth(periods=120)
        peaks = extract_peaks(w)
        assert fit_q_log_decrement(peaks) == pytest.approx(300.0, rel=1e-3)

    def test_recovers_q2_with_full_correction(self):
        # at Q=2 the sqrt(1 - 1/(4Q^2)) correction is material: the naive
        # pi/delta estimate would be off by ~1.6%
        params, w = synth(q=2.0, f0=50e3, rate=10e6, periods=8)
        peaks = extract_peaks(w)
        q = fit_q_log_decrement(peaks)
        assert q == pytest.approx(2.0, rel=1e-3)
        delta = math.pi / (2.0 * math.sqrt(1 - 1 / 16))
        assert abs(math.pi / delta - 2.0) / 2.0 > 0.01

    def test_constant_peaks_degenerate(self):
        peaks = PeakList(times=np.arange(5.0), values=np.ones(5))
        with pytest.raises(ValueError):
            fit_q_log_decrement(peaks)

    def test_rejects_short_or_nonpositive(self):
        with pytest.raises(ValueError):
            fit_q_log_decrement(
                PeakList(times=np.arange(4.0), values=np.array([1, 0.9, 0.8, 0.7]))
            )
        vals = np.array([1.0, 0.5, 0.25, -0.1, 0.06])
        with pytest.raises(ValueError):
            fit_q_log_decrement(PeakList(times=np.arange(5.0), values=vals))

    @pytest.mark.parametrize("q", [5.0, 50.0, 300.0, 2000.0])
    def test_round_trip_synth_extract_fit(self, q):
        params = ResonatorParams(f0=50e3, q=q, v0=1.0)
        T = derive_dynamics(params).pseudo_period
        n_cross = count_pseudo_periods(params, MeasurementConfig(6.0, FIRST))
        w = synth_waveform(params, 50 * 50e3, (n_cross + 5) * T)
        peaks = extract_peaks(w)
        assert fit_q_log_decrement(peaks) == pytest.approx(q, rel=1e-3)

    def test_counting_vs_fit_within_quantization(self):
        for q in (5.0, 50.0, 300.0, 2000.0):
            params = ResonatorParams(f0=50e3, q=q, v0=1.0)
            T = derive_dynamics(params).pseudo_period
            n_cross = count_pseudo_periods(params, MeasurementConfig(6.0, FIRST))
            w = synth_waveform(params, 50 * 50e3, (n_cross + 5) * T)
            peaks = extract_peaks(w)
            counting = measure_q_counting(peaks, MeasurementConfig(6.0, LAST))
            fitted = fit_q_log_decrement(peaks)
            quantum = q_from_count(counting.n + 1, 6.0) - q_from_count(counting.n, 6.0)
            assert abs(counting.q_measured - fitted) <= quantum


class TestRecordFormat:
    def test_single_line_key_values(self):
        peaks = PeakList(
            times=np.arange(6.0) * 1e-4,
            values=np.array([1.0, 0.8, 0.64, 0.512, 0.41, 0.328]),
        )
        config = MeasurementConfig(2.0, LAST)
        result = measure_q_counting(peaks, config)
        record = measurement_record(result, config)
        assert "\n" not in record
        assert record.startswith(f"n={result.n} q=")
        assert "threshold=0.5" in record
        assert "convention=last_above" in record
