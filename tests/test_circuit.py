"""Behavioral circuit model: capture stage arithmetic, threshold corners,
and agreement between the closed-form and time-domain measurement paths."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from qfm import (
    CircuitNonIdealities,
    Convention,
    MeasurementConfig,
    ResonatorParams,
    SampleBudgetError,
    SignAlignment,
    SimTrace,
    SimulationError,
    TraceRows,
    capture_model,
    count_pseudo_periods,
    derive_dynamics,
    frequency_sweep,
    pessimistic_nonidealities,
    predicted_measurement,
    q_from_count,
    simulate_measurement,
)
from qfm import circuit, resonator

FIRST = Convention.FIRST_AT_OR_BELOW
LAST = Convention.LAST_ABOVE

IDEAL = CircuitNonIdealities()
PARAMS = ResonatorParams(f0=50e3, q=300.0, v0=1.0)
K6 = MeasurementConfig(6.0, LAST)

# the pessimistic threshold-side pair: 1% divider error, 10 mV offset
def threshold_pair(sign=SignAlignment.PLUS):
    return CircuitNonIdealities(
        comparator_offset=10e-3, divider_error=0.01, worst_case_sign=sign
    )


def columns_of(rows):
    """The rows as TraceRows, one array per field."""
    return TraceRows(*(np.array([getattr(r, name) for r in rows]) for name in SimTrace.CSV_COLUMNS))


class TestCaptureModel:
    def test_ideal_is_identity(self):
        assert capture_model(0.42, 50e3, IDEAL, 1e-4) == 0.42

    def test_droop_arithmetic(self):
        ni = CircuitNonIdealities(leak_droop=1.0)
        one_ms = 1e-3
        assert capture_model(1.0, 1e3, ni, one_ms) == pytest.approx(1.0 - 1e-3)
        ten_us = 1e-5
        assert capture_model(1.0, 100e3, ni, ten_us) == pytest.approx(1.0 - 1e-5)

    def test_tracking_at_bandwidth(self):
        ni = CircuitNonIdealities(detector_bandwidth=1e6)
        assert capture_model(1.0, 1e6, ni, 0.0) == pytest.approx(1 / math.sqrt(2))

    def test_diode_residual_engages_above_knee(self):
        ni = CircuitNonIdealities(diode_residual=0.1, f_fail=1e6)
        assert capture_model(1.0, 0.5e6, ni, 0.0) == 1.0
        assert capture_model(1.0, 1e6, ni, 0.0) == 1.0
        assert capture_model(1.0, 1.5e6, ni, 0.0) == pytest.approx(1.0 - 0.05)
        assert capture_model(1.0, 2e6, ni, 0.0) == pytest.approx(0.9)
        assert capture_model(1.0, 8e6, ni, 0.0) == pytest.approx(0.9)

    def test_opamp_offset_adds(self):
        ni = CircuitNonIdealities(opamp_offset=5e-3)
        assert capture_model(1.0, 50e3, ni, 0.0) == pytest.approx(1.005)

    def test_floor_at_zero(self):
        ni = CircuitNonIdealities(leak_droop=100.0)
        assert capture_model(1e-3, 1e3, ni, 1e-3) == 0.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            capture_model(-0.1, 50e3, IDEAL, 0.0)
        with pytest.raises(ValueError):
            capture_model(0.1, 50e3, IDEAL, -1.0)
        with pytest.raises(ValueError):
            CircuitNonIdealities(divider_error=1.0)
        with pytest.raises(ValueError):
            CircuitNonIdealities(comparator_offset=-1e-3)


class TestEffectiveThreshold:
    """The stop threshold the comparator applies, as the closed form reports it."""

    def test_pessimistic_corners(self):
        thr = predicted_measurement(PARAMS, K6, threshold_pair(SignAlignment.PLUS)).threshold_used
        assert thr == pytest.approx(1.0 / 6.06 + 0.01, rel=1e-12)
        assert thr == pytest.approx(0.17502, abs=1e-5)
        thr = predicted_measurement(PARAMS, K6, threshold_pair(SignAlignment.MINUS)).threshold_used
        assert thr == pytest.approx(1.0 / 5.94 - 0.01, rel=1e-12)
        assert thr == pytest.approx(0.15835, abs=1e-5)

    def test_ideal_is_exact_division(self):
        assert predicted_measurement(PARAMS, K6, IDEAL).threshold_used == pytest.approx(1 / 6, rel=1e-15)


class TestPredicted:
    def test_reduces_to_ideal_counting(self):
        for q in (50.0, 100.0, 300.0, 1000.0):
            for k in (2.0, 4.0, 6.0, 8.0):
                params = ResonatorParams(f0=50e3, q=q, v0=1.0)
                for conv in (FIRST, LAST):
                    config = MeasurementConfig(k, conv)
                    result = predicted_measurement(params, config, IDEAL)
                    n_ideal = count_pseudo_periods(params, config)
                    assert result.n == n_ideal
                    assert result.q_measured == q_from_count(n_ideal, k)

    def test_pessimistic_corner_reference(self):
        # threshold 0.175017 V; the crossing index lands at 166.43, so the
        # first maximum at or below is #167 and LAST_ABOVE reports 166
        result = predicted_measurement(PARAMS, K6, threshold_pair())
        assert result.threshold_used == pytest.approx(0.175017, abs=2e-6)
        assert result.n == 166
        assert result.q_measured == pytest.approx(291.06, abs=0.01)
        assert result.relative_error == pytest.approx(-0.0298, abs=2e-4)
        first = predicted_measurement(
            PARAMS, MeasurementConfig(6.0, FIRST), threshold_pair()
        )
        assert first.n == 167
        assert first.q_measured == pytest.approx(292.81, abs=0.01)
        assert first.relative_error == pytest.approx(-0.0240, abs=2e-4)

    def test_shortcut_conversion(self):
        config = MeasurementConfig(4.81, LAST, shortcut=True)
        result = predicted_measurement(PARAMS, config, IDEAL)
        assert result.q_measured == 2.0 * result.n

    def test_rejects_independent_signs(self):
        with pytest.raises(ValueError):
            predicted_measurement(PARAMS, K6, threshold_pair(SignAlignment.INDEPENDENT))

    def test_pathological_configs_raise(self):
        # negative threshold: offset below the divider floor
        ni = CircuitNonIdealities(
            comparator_offset=0.5, divider_error=0.01, worst_case_sign=SignAlignment.MINUS
        )
        with pytest.raises(SimulationError):
            predicted_measurement(PARAMS, K6, ni)
        # opamp offset holds every captured peak above the threshold
        ni = CircuitNonIdealities(opamp_offset=0.5)
        with pytest.raises(SimulationError):
            predicted_measurement(PARAMS, K6, ni)
        # signal fully lost in the capture stage
        ni = CircuitNonIdealities(diode_residual=1.2, f_fail=1e5)
        with pytest.raises(SimulationError):
            predicted_measurement(
                ResonatorParams(f0=4e6, q=300.0, v0=1.0), K6, ni
            )


class TestSimulate:
    def test_reference_scenario(self):
        result, trace = simulate_measurement(PARAMS, K6, IDEAL, 50, seed=0)
        assert result.n == 171
        assert result.q_measured == pytest.approx(299.82, abs=0.01)
        assert abs(result.relative_error) <= 1e-3
        assert result.t_measure == pytest.approx(171 * 2.0000027778e-5, rel=1e-6)
        assert trace.captured_v0 == 1.0
        assert len(trace.rows) == 173  # cycles 0..171 counted, 172 stops

    def test_memory_does_not_grow_with_the_record(self):
        # the timedomain benchmark's corner: 865,471 samples (6.9 MB per
        # float64 array), 14,652 cycles; a whole-record run peaked at 21.5 MB
        params = ResonatorParams(f0=1e6, q=20_000.0)
        tracemalloc.start()
        try:
            _, trace = simulate_measurement(
                params, MeasurementConfig(10.0, FIRST), CircuitNonIdealities(noise_rms=1e-4), 59, seed=0
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(trace) == 14_652
        assert peak < 5e6

    def test_matches_ideal_counting_on_grid(self):
        for q in (50.0, 100.0, 300.0, 1000.0):
            for k in (2.0, 4.0, 6.0, 8.0):
                params = ResonatorParams(f0=50e3, q=q, v0=1.0)
                config = MeasurementConfig(k, LAST)
                result, _ = simulate_measurement(params, config, IDEAL, 100, seed=0)
                assert result.n == count_pseudo_periods(params, config)

    def test_pessimistic_corner_matches_prediction(self):
        predicted = predicted_measurement(PARAMS, K6, threshold_pair())
        result, _ = simulate_measurement(PARAMS, K6, threshold_pair(), 50, seed=2)
        assert abs(result.n - predicted.n) <= 1
        assert -0.031 < result.relative_error < -0.022

    def test_determinism(self):
        ni = dataclasses.replace(threshold_pair(), noise_rms=1e-4)
        r1, t1 = simulate_measurement(PARAMS, K6, ni, 40, seed=123)
        r2, t2 = simulate_measurement(PARAMS, K6, ni, 40, seed=123)
        assert r1 == r2
        assert t1.rows == t2.rows
        assert t1.threshold == t2.threshold

    def test_independent_signs_are_seed_driven(self):
        ni = threshold_pair(SignAlignment.INDEPENDENT)
        thresholds = set()
        for seed in range(30):
            result, _ = simulate_measurement(PARAMS, K6, ni, 40, seed=seed)
            thresholds.add(round(result.threshold_used, 9))
        assert len(thresholds) == 4

    def test_clock_recovers_pseudo_period(self):
        result, trace = simulate_measurement(PARAMS, K6, IDEAL, 50, seed=0)
        T = derive_dynamics(PARAMS).pseudo_period
        dt = 1.0 / (50 * PARAMS.f0)
        periods = np.diff([r.peak_time for r in trace.rows])
        assert np.all(np.abs(periods - T) <= dt + 1e-15)

    def test_captured_peaks_non_increasing_without_noise(self):
        _, trace = simulate_measurement(PARAMS, K6, threshold_pair(), 50, seed=0)
        captured = [r.captured_peak for r in trace.rows[1:]]
        assert np.all(np.diff(captured) <= 1e-12)

    def test_captured_never_exceeds_true_plus_offset(self):
        ni = dataclasses.replace(threshold_pair(), opamp_offset=5e-3, leak_droop=2.0)
        _, trace = simulate_measurement(PARAMS, K6, ni, 40, seed=5)
        for r in trace.rows:
            assert r.captured_peak <= r.true_peak + ni.opamp_offset + 1e-12

    def test_offset_monotonicity(self):
        counts = []
        for off in (0.0, 2e-3, 5e-3, 10e-3, 20e-3):
            ni = CircuitNonIdealities(comparator_offset=off)
            result, _ = simulate_measurement(PARAMS, K6, ni, 40, seed=0)
            counts.append(result.n)
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_k_monotonicity_ideal(self):
        counts = [
            simulate_measurement(PARAMS, MeasurementConfig(k, LAST), IDEAL, 40, 0)[0].n
            for k in (2.0, 3.0, 4.5, 6.0, 9.0, 14.0)
        ]
        assert all(a <= b for a, b in zip(counts, counts[1:]))

    def test_rejects_undersampling(self):
        with pytest.raises(ValueError):
            simulate_measurement(PARAMS, K6, IDEAL, 19, seed=0)

    def test_pathological_raises_with_diagnostic(self):
        ni = CircuitNonIdealities(opamp_offset=0.5)
        with pytest.raises(SimulationError):
            simulate_measurement(PARAMS, K6, ni, 40, seed=0)

    def test_no_decay_counted_raises(self):
        # threshold just under V0 stops within the first pseudo-period
        params = ResonatorParams(f0=50e3, q=300.0, v0=1.0)
        config = MeasurementConfig(1.0 + 1e-6, LAST)
        with pytest.raises(SimulationError):
            simulate_measurement(params, config, IDEAL, 40, seed=0)

    def test_trace_csv_format(self, tmp_path):
        _, trace = simulate_measurement(PARAMS, K6, IDEAL, 40, seed=0)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "cycle,peak_time,true_peak,captured_peak,threshold,count_enable"
        assert len(lines) == len(trace.rows) + 1
        assert lines[1].split(",")[0] == "0"
        assert lines[-1].split(",")[-1] == "0"  # stop row has count_enable 0

    def test_noise_robust_reference(self):
        # noise two orders below the offsets leaves the count intact
        ni = CircuitNonIdealities(noise_rms=1e-4)
        result, _ = simulate_measurement(PARAMS, K6, ni, 50, seed=77)
        assert abs(result.n - 171) <= 1


class TestSampleBudget:
    """A run ends where its counter stops, or when the simulator's budget,
    patched small here, is spent with the counter still running."""

    UNREACHABLE = CircuitNonIdealities(opamp_offset=0.5)

    @pytest.fixture(autouse=True)
    def small_budget(self, monkeypatch):
        monkeypatch.setattr(circuit, "MAX_SAMPLES", 20_000)

    def test_unreachable_threshold_spends_the_budget(self):
        # 40 samples per period: 500 cycles close, and all but V0's count
        with pytest.raises(SampleBudgetError) as raised:
            simulate_measurement(PARAMS, K6, self.UNREACHABLE, 40, seed=0)
        message = str(raised.value)
        assert "budget of 20000 samples" in message and "499 cycles counted" in message
        assert "the last held maximum 0.5054 V against a threshold of 0.25 V" in message

    def test_unreachable_point_aborts_the_frequency_sweep(self):
        with pytest.raises(SampleBudgetError, match="20000 samples"):
            frequency_sweep(300.0, 6.0, [1e3, 5e4], self.UNREACHABLE, samples_per_period=40)

    def test_negative_threshold_fails_in_the_first_block(self, monkeypatch):
        served = []

        def counted(*args):
            for block in resonator._sim_blocks(*args):
                served.append(block.ring.size)
                yield block

        monkeypatch.setattr(resonator, "_SIM_BLOCK", 1000)
        monkeypatch.setattr(circuit, "_sim_blocks", counted)
        ni = CircuitNonIdealities(comparator_offset=0.5, divider_error=0.01, worst_case_sign=SignAlignment.MINUS)
        with pytest.raises(SimulationError, match="is negative") as raised:
            simulate_measurement(PARAMS, K6, ni, 40, seed=0)
        assert not isinstance(raised.value, SampleBudgetError)
        assert served == [1000]


class TestSilentRecord:
    """A noiseless run ends at the first block where its exact envelope
    v0 exp(-alpha t) is 0 at the block's first sample, with the message
    the rest of its budget would give."""

    # Q = 5 at 20 samples per period: the envelope underflows within
    # about 24,000 samples, in the third block; the counter never stops
    # over the 0.5 V offset
    LOW_Q = ResonatorParams(f0=50e3, q=5.0)
    UNREACHABLE = CircuitNonIdealities(opamp_offset=0.5)
    # the envelope underflows before the first rising zero crossing
    NO_EDGE = ResonatorParams(f0=50e3, q=0.500001)

    @staticmethod
    def served(monkeypatch, budget):
        """The samples the run is served, with the budget patched."""
        served = []

        def counted(*args):
            for block in resonator._sim_blocks(*args):
                served.append(block.ring.size)
                yield block

        monkeypatch.setattr(circuit, "MAX_SAMPLES", budget)
        monkeypatch.setattr(circuit, "_sim_blocks", counted)
        return served

    def test_every_exact_sample_after_the_end_is_zero(self):
        rate = 20 * self.LOW_Q.f0
        n = resonator.MAX_SAMPLES
        blocks = list(resonator._sim_blocks(self.LOW_Q, rate, n, n, 0.0, 0))
        end = sum(block.ring.size for block in blocks)
        assert end < n
        omega_d, c, neg_alpha, v0 = resonator._ring_constants(self.LOW_Q)
        # the envelope as the exact kernel rounds it: a ring of no phase
        envelope = resonator._ring(0.0, 0.0, neg_alpha, v0, np.array([end - blocks[-1].ring.size, end]) / rate)
        assert envelope[0] > 0.0 and envelope[1] == 0.0
        for start in range(end, n, 2**20):
            t = np.arange(start, min(start + 2**20, n)) / rate
            assert not resonator._ring(omega_d, c, neg_alpha, v0, t).any()

    # blocks of 1,000 samples start where the envelope is subnormal: it
    # still fires the comparator there, and the run must go on
    @pytest.mark.parametrize("block", [resonator._SIM_BLOCK, 1000])
    @pytest.mark.parametrize("params,error", [
        (LOW_Q, "the counter has not stopped within the simulator's budget of 60000 samples"),
        (NO_EDGE, "the clock comparator never fired"),
    ])
    def test_the_early_end_gives_the_spent_budget_message(self, monkeypatch, params, error, block):
        monkeypatch.setattr(resonator, "_SIM_BLOCK", block)
        served = self.served(monkeypatch, 60_000)
        with pytest.raises(SimulationError, match=error) as early:
            simulate_measurement(params, K6, self.UNREACHABLE, 20, seed=0)
        assert 0 < sum(served) < 60_000
        served.clear()
        monkeypatch.setattr(resonator, "_silent_from", lambda noise_rms, envelope: False)
        with pytest.raises(SimulationError) as spent:
            simulate_measurement(params, K6, self.UNREACHABLE, 20, seed=0)
        assert sum(served) == 60_000
        assert type(early.value) is type(spent.value)
        assert str(early.value) == str(spent.value)

    def test_a_noisy_run_spends_its_budget(self, monkeypatch):
        served = self.served(monkeypatch, 60_000)
        ni = dataclasses.replace(self.UNREACHABLE, noise_rms=1e-3)
        with pytest.raises(SampleBudgetError, match="budget of 60000 samples"):
            simulate_measurement(self.LOW_Q, K6, ni, 20, seed=0)
        assert sum(served) == 60_000


class TestTraceRows:
    @pytest.fixture
    def built(self, monkeypatch):
        """The number of TraceRow objects built so far, as a list's length."""
        built = []

        class Counted(circuit.TraceRow):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(circuit, "TraceRow", Counted)
        return built

    def test_unread_rows_are_never_built(self, built):
        _, trace = simulate_measurement(PARAMS, K6, IDEAL, 50, seed=0)
        assert len(trace.rows) == len(trace) == 173
        lines = trace.to_csv_string().splitlines()
        assert len(lines) == 174 and lines[-1].startswith("172,")
        assert len(built) == 0

    def test_index_slice_and_iteration(self, built):
        _, trace = simulate_measurement(PARAMS, K6, IDEAL, 50, seed=0)
        rows = list(trace.rows)
        assert len(built) == 173
        assert [r.cycle for r in rows] == list(range(173))
        assert trace.rows[-1] == rows[-1] == trace.rows[172]
        assert trace.rows[-1].count_enable is False and type(trace.rows[0].cycle) is int
        assert trace.rows[1:] == rows[1:] and type(trace.rows[1:]) is list
        assert trace.rows[::-40] == rows[::-40]
        for bad in (173, -174):
            with pytest.raises(IndexError):
                trace.rows[bad]
        with pytest.raises(TypeError):
            trace.rows[1.0]

    def test_rows_compare_as_lists_do(self, built):
        _, trace = simulate_measurement(PARAMS, K6, IDEAL, 50, seed=0)
        _, again = simulate_measurement(PARAMS, K6, IDEAL, 50, seed=0)
        rows = list(trace.rows)
        assert trace.rows == rows and rows == trace.rows
        assert not (trace.rows != rows) and not (rows != trace.rows)
        assert trace.rows == again.rows and trace == again
        assert trace.rows != tuple(rows)  # a list never equals a tuple
        # a trace built from the rows' columns
        rebuilt = SimTrace(rows=columns_of(rows), captured_v0=trace.captured_v0, threshold=trace.threshold)
        assert rebuilt == trace and rebuilt.to_csv_string() == trace.to_csv_string()

        rows[5] = dataclasses.replace(rows[5], captured_peak=rows[5].captured_peak + 1e-12)
        changed = SimTrace(rows=columns_of(rows), captured_v0=trace.captured_v0, threshold=trace.threshold)
        assert changed.rows != trace.rows and trace.rows != changed.rows
        assert trace.rows != rows and rows != trace.rows
        assert not (trace.rows == rows) and changed != trace


class TestOracleEquivalence:
    def test_predicted_vs_simulated_within_one_count(self):
        # randomized configurations within the pessimistic magnitudes
        rng = np.random.default_rng(99)
        for _ in range(60):
            params = ResonatorParams(
                f0=float(np.exp(rng.uniform(np.log(2e3), np.log(5e5)))),
                q=float(rng.uniform(50.0, 800.0)),
                v0=float(rng.uniform(0.5, 2.0)),
            )
            config = MeasurementConfig(
                float(rng.uniform(2.0, 10.0)),
                LAST if rng.integers(2) else FIRST,
            )
            ni = CircuitNonIdealities(
                comparator_offset=float(rng.uniform(0, 10e-3)),
                divider_error=float(rng.uniform(0, 0.01)),
                opamp_offset=float(rng.uniform(0, 5e-3)),
                leak_droop=float(rng.uniform(0, 10.0)),
                diode_residual=float(rng.uniform(0, 0.1)),
                detector_bandwidth=1e6,
                f_fail=1e6,
                noise_rms=float(rng.uniform(0, 1e-4)),
                worst_case_sign=SignAlignment.PLUS if rng.integers(2) else SignAlignment.MINUS,
            )
            predicted = predicted_measurement(params, config, ni)
            simulated, _ = simulate_measurement(
                params, config, ni, int(rng.integers(20, 60)), seed=int(rng.integers(1e6))
            )
            assert abs(predicted.n - simulated.n) <= 1

    def test_pessimistic_profile_factory(self):
        ni = pessimistic_nonidealities()
        assert ni.comparator_offset == 10e-3
        assert ni.divider_error == 0.01
        assert ni.worst_case_sign is SignAlignment.PLUS
        ni_minus = pessimistic_nonidealities(SignAlignment.MINUS)
        assert ni_minus.worst_case_sign is SignAlignment.MINUS

    def test_nonidealities_reject_non_finite(self):
        for name in ("comparator_offset", "opamp_offset", "leak_droop", "diode_residual", "noise_rms"):
            for bad in (math.inf, math.nan):
                with pytest.raises(ValueError):
                    CircuitNonIdealities(**{name: bad})
        for name in ("divider_error", "f_fail", "detector_bandwidth"):
            with pytest.raises(ValueError):
                CircuitNonIdealities(**{name: math.nan})
        # an unlimited bandwidth or failure knee is the ideal detector
        CircuitNonIdealities(detector_bandwidth=math.inf, f_fail=math.inf)
