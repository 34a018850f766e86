"""The array-pass simulator against the per-cycle loop it replaced.

``reference_simulate`` is that loop, kept here as a plain oracle together
with the scalar capture model, the int64 edge recovery and the
temporary-per-step synthesis it ran on.  Every result, trace row, trace
CSV and error message must come out identical.
"""

import functools
import math

import numpy as np
import pytest

from qfm import (
    CircuitNonIdealities,
    Convention,
    MeasurementConfig,
    MeasurementResult,
    ResonatorParams,
    SignAlignment,
    SimTrace,
    SimulationError,
    TraceRow,
    TraceRows,
    capture_model,
    derive_dynamics,
    simulate_measurement,
    synth_waveform,
)
from qfm import circuit, resonator
from qfm.circuit import _predict_aligned, _resolve_signs, _rising_edges
from qfm.counting import stop_threshold

FIRST = Convention.FIRST_AT_OR_BELOW
LAST = Convention.LAST_ABOVE
SIGNS = (SignAlignment.PLUS, SignAlignment.MINUS, SignAlignment.INDEPENDENT)


def reference_synth(params, rate, duration, noise_rms, seed):
    dyn = derive_dynamics(params)
    n = int(round(duration * rate))
    t = np.arange(n) / rate
    c = 1.0 / math.sqrt(4.0 * params.q * params.q - 1.0)
    v = params.v0 * np.exp(-dyn.alpha * t) * (np.cos(dyn.omega_d * t) + c * np.sin(dyn.omega_d * t))
    if noise_rms > 0:
        v = v + np.random.default_rng(seed).normal(0.0, noise_rms, n)
    return v


def reference_edges(v, h):
    state = np.where(v > h, 1, np.where(v < -h, -1, 0))
    if state[0] == 0:
        state[0] = 1 if v[0] > 0 else -1
    idx = np.where(state != 0, np.arange(v.size), 0)
    np.maximum.accumulate(idx, out=idx)
    held = state[idx]
    return np.nonzero((held[1:] == 1) & (held[:-1] == -1))[0] + 1


def reference_capture(true_peak, f0, ni, hold):
    gain = 1.0 / math.sqrt(1.0 + (f0 / ni.detector_bandwidth) ** 2)
    ramp = min(1.0, max(0.0, f0 / ni.f_fail - 1.0))
    drop = ni.diode_residual * ramp + ni.leak_droop * hold
    return max(0.0, true_peak * gain - drop + ni.opamp_offset)


def reference_simulate(params, config, ni, samples_per_period, seed, synth=reference_synth):
    dyn = derive_dynamics(params)
    rng = np.random.default_rng(seed)
    s_div, s_cmp = _resolve_signs(ni, rng)
    noise_seed = int(rng.integers(0, 2**63 - 1))
    _, m_star = _predict_aligned(params, config, ni, s_div, s_cmp)
    rate = samples_per_period * params.f0
    v = synth(params, rate, (m_star + 10) * dyn.pseudo_period, ni.noise_rms, noise_seed)
    edges = reference_edges(v, 4.0 * ni.noise_rms)
    if edges.size == 0:
        raise SimulationError(
            f"the clock comparator never fired: no rising edge through its "
            f"+/-{4.0 * ni.noise_rms:.3g} V hysteresis (4 x noise_rms) in a ring-down "
            f"from v0={params.v0:.3g} V"
        )
    bounds = np.concatenate(([0], edges))
    rows = []
    captured_v0 = thr = None
    counted = 0
    stopped = False
    for j in range(bounds.size - 1):
        a, b = int(bounds[j]), int(bounds[j + 1])
        seg = v[a:b]
        i_rel = int(np.argmax(seg))
        true_pk = float(seg[i_rel])
        captured = reference_capture(max(true_pk, 0.0), params.f0, ni, (b - a) / rate)
        t_pk = (a + i_rel) / rate
        if j == 0:
            captured_v0 = captured
            if captured_v0 <= 0:
                raise SimulationError("captured initial amplitude is zero; no threshold can be formed")
            thr = stop_threshold(captured_v0, config.k, s_div * ni.divider_error, s_cmp * ni.comparator_offset)
            rows.append(TraceRow(0, t_pk, true_pk, captured, thr, captured > thr))
            continue
        enable = captured > thr
        rows.append(TraceRow(j, t_pk, true_pk, captured, thr, enable))
        if not enable:
            stopped = True
            break
        counted += 1
    if not stopped:
        raise SimulationError(
            "signal decayed to the end of the simulation budget without the "
            "stop logic completing; the threshold is unreachable or buried "
            "in the noise floor"
        )
    n = counted + 1 if config.convention is FIRST else counted
    if n < 1:
        raise SimulationError("threshold crossed within the first pseudo-period; no decay was counted")
    if config.shortcut:
        q = 2.0 * n
    else:
        q = 0.5 * math.sqrt(1.0 + 4.0 * math.pi**2 * n**2 / math.log(config.k) ** 2)
    result = MeasurementResult(
        n=n,
        q_measured=q,
        t_measure=n * dyn.pseudo_period,
        relative_error=(q - params.q) / params.q,
        threshold_used=thr,
    )
    columns = (np.array([getattr(r, name) for r in rows]) for name in SimTrace.CSV_COLUMNS)
    return result, SimTrace(rows=TraceRows(*columns), captured_v0=captured_v0, threshold=thr)


def draw(i):
    """Criterion 06's distribution with Q log-uniform over 50-20,000;
    draw i takes sign alignment i % 3 and is noiseless when i is odd."""
    rng = np.random.default_rng([20_240_817, i])
    params = ResonatorParams(
        f0=float(np.exp(rng.uniform(np.log(1e3), np.log(1e6)))),
        q=float(np.exp(rng.uniform(np.log(50.0), np.log(20_000.0)))),
        v0=float(rng.uniform(0.5, 2.0)),
    )
    config = MeasurementConfig(float(rng.uniform(2.0, 10.0)), LAST if rng.integers(2) else FIRST)
    ni = CircuitNonIdealities(
        comparator_offset=float(rng.uniform(0, 10e-3)),
        divider_error=float(rng.uniform(0, 0.01)),
        opamp_offset=float(rng.uniform(0, 5e-3)),
        leak_droop=float(rng.uniform(0, 10.0)),
        diode_residual=float(rng.uniform(0, 0.1)),
        detector_bandwidth=1e6,
        f_fail=1e6,
        noise_rms=0.0 if i % 2 else float(rng.uniform(0, 1e-4)),
        worst_case_sign=SIGNS[i % 3],
    )
    return params, config, ni, int(rng.integers(20, 60)), int(rng.integers(2**31))


def assert_same_run(args):
    expected, expected_trace = reference_simulate(*args)
    result, trace = simulate_measurement(*args)
    assert result == expected
    assert trace.rows == expected_trace.rows
    assert (trace.captured_v0, trace.threshold) == (expected_trace.captured_v0, expected_trace.threshold)
    assert trace.to_csv_string() == expected_trace.to_csv_string()


@pytest.mark.parametrize("i", range(60))
def test_criterion_06_draws_match_reference(i):
    assert_same_run(draw(i))


def test_reference_corner_matches():
    # the longest record of the draws: Q 20,000, k 10, 59 samples per period
    params = ResonatorParams(f0=1e6, q=20_000.0)
    assert_same_run((params, MeasurementConfig(10.0, FIRST), CircuitNonIdealities(noise_rms=1e-4), 59, 0))


PATHOLOGICAL = {
    # raised by the simulator itself, after the closed form found a crossing
    "v0_zero": (
        ResonatorParams(f0=1e3, q=290.0, v0=2.8e-3),
        MeasurementConfig(14.0, LAST),
        CircuitNonIdealities(opamp_offset=1.2e-3, leak_droop=2.4, noise_rms=1.2e-3),
        57,
        1528829520,
    ),
    "no_edge": (
        ResonatorParams(f0=1e3, q=3.7, v0=0.15),
        MeasurementConfig(4.4, FIRST),
        CircuitNonIdealities(opamp_offset=0.01, leak_droop=12.0, noise_rms=0.19),
        40,
        731617991,
    ),
    "no_stop": (
        ResonatorParams(f0=50e3, q=100.0),
        MeasurementConfig(6.0, LAST),
        CircuitNonIdealities(noise_rms=0.05),
        50,
        0,
    ),
    "no_decay": (
        ResonatorParams(f0=50e3, q=106.0, v0=0.73),
        MeasurementConfig(1.046, LAST),
        CircuitNonIdealities(opamp_offset=6.3e-3, leak_droop=3480.0, diode_residual=0.48),
        33,
        1596742471,
    ),
    # raised by the closed form that sizes the record
    "negative_threshold": (
        ResonatorParams(f0=50e3, q=300.0),
        MeasurementConfig(6.0, LAST),
        CircuitNonIdealities(comparator_offset=0.5, divider_error=0.01, worst_case_sign=SignAlignment.MINUS),
        40,
        0,
    ),
    "unreachable": (
        ResonatorParams(f0=50e3, q=300.0),
        MeasurementConfig(6.0, LAST),
        CircuitNonIdealities(opamp_offset=0.5),
        40,
        0,
    ),
    "signal_lost": (
        ResonatorParams(f0=4e6, q=300.0),
        MeasurementConfig(6.0, LAST),
        CircuitNonIdealities(diode_residual=1.2, f_fail=1e5),
        40,
        0,
    ),
}


@pytest.mark.parametrize("name", sorted(PATHOLOGICAL))
def test_pathological_configs_raise_the_same_message(name):
    args = PATHOLOGICAL[name]
    with pytest.raises(SimulationError) as expected:
        reference_simulate(*args)
    with pytest.raises(SimulationError) as raised:
        simulate_measurement(*args)
    assert str(raised.value) == str(expected.value)


def test_negative_cycle_maximum_is_floored_like_the_reference(monkeypatch):
    # a record whose cycle 0 lies wholly below 0 V: its maximum enters the
    # capture model as 0 V and the opamp offset alone forms V0; the second
    # half is scaled down so that the leak can take the counter to a stop
    def dipped(*args):
        v = reference_synth(*args)
        v[:3] = (-0.3, -0.2, 0.5)
        v[v.size // 2:] *= 0.01
        return v

    monkeypatch.setattr(
        circuit, "_synth_blocks",
        lambda params, rate, n, noise_rms, seed: iter([dipped(params, rate, n / rate, noise_rms, seed)]),
    )
    ni = CircuitNonIdealities(opamp_offset=0.02, leak_droop=1500.0)
    args = (ResonatorParams(f0=50e3, q=300.0), MeasurementConfig(6.0, LAST), ni, 50, 0)
    expected, expected_trace = reference_simulate(*args, synth=dipped)
    result, trace = simulate_measurement(*args)
    assert trace.rows[0].true_peak == -0.2 and 0 < trace.rows[0].captured_peak < 0.02
    assert (result, trace.rows) == (expected, expected_trace.rows)


@pytest.mark.parametrize("noise", [0.0, 1e-4, 0.3])
def test_synth_bytes_match_reference(noise):
    params = ResonatorParams(f0=37e3, q=1234.5, v0=1.7)
    duration = 400 * derive_dynamics(params).pseudo_period
    wave = synth_waveform(params, 41 * params.f0, duration, noise_rms=noise, seed=9)
    assert wave.samples.tobytes() == reference_synth(params, 41 * params.f0, duration, noise, 9).tobytes()


def test_edges_match_reference():
    rng = np.random.default_rng(4)
    edge_rng = np.random.default_rng(5)
    t = np.arange(20_000) / 50.0
    for h in (0.0, 0.01, 0.2):
        cases = []
        for v in (np.sin(2 * np.pi * t) + rng.normal(0, 0.05, t.size), rng.normal(0, 0.1, t.size)):
            v[0] = 0.0  # the initial state comes from the sign of v[0]
            cases.append(v)
        cases += [np.array(s) for s in ([h / 2], [-h, 3 * h + 1], [0.0, 1.0, -1.0], [-1.0, 0.0, 1.0])]
        cases.append(np.zeros(1000))
        cases.append(edge_rng.choice([-h, 0.0, h, -2 * h - 1, 2 * h + 1], 500))  # samples exactly at +/-h
        # a long dead-band run opens the record, v[0] inside the band (non-zero when h > 0)
        cases += [
            np.concatenate(([v0], edge_rng.uniform(-h, h, 3000), np.sin(2 * np.pi * t[:500])))
            for v0 in (h / 2, -h / 2)
        ]
        for v in cases:
            edges, setter = _rising_edges(v, h)
            assert np.array_equal(edges, reference_edges(v, h))
            live = np.flatnonzero(np.abs(v) > h)  # a sample outside the dead band sets the state, else v[0]
            assert setter == (live[-1] if live.size else 0)


def test_capture_model_broadcast_matches_scalar():
    ni = CircuitNonIdealities(
        opamp_offset=2e-3, leak_droop=7.0, diode_residual=0.08, detector_bandwidth=1e6, f_fail=1e6
    )
    rng = np.random.default_rng(1)
    peaks = np.concatenate(([0.0, 1e-3], rng.uniform(0, 2, 200)))
    holds = rng.uniform(0, 1e-3, peaks.size)
    for f0 in (1e3, 1.3e6):
        out = capture_model(peaks, f0, ni, holds)
        assert out.tolist() == [reference_capture(p, f0, ni, h) for p, h in zip(peaks, holds)]
        scalar = capture_model(float(peaks[5]), f0, ni, float(holds[5]))
        assert type(scalar) is float and scalar == out[5]
    with pytest.raises(ValueError):
        capture_model(np.array([0.1, -0.1]), 50e3, ni, 0.0)


# ---------------------------------------------------------------------------
# the blocked run at tiny block sizes: every block boundary the draws cross
# must leave the comparator state, the open cycle and the stop as they were

TINY_BLOCKS = (7, 64, 1000)


@functools.cache
def reference_outcome(args):
    try:
        result, trace = reference_simulate(*args)
    except SimulationError as exc:
        return str(exc)
    return result, trace.captured_v0, trace.threshold, trace.to_csv_string()


def assert_same_outcome(args):
    # the CSV holds every trace row, each float in its shortest exact form
    try:
        result, trace = simulate_measurement(*args)
    except SimulationError as exc:
        assert str(exc) == reference_outcome(args)
        return
    assert (result, trace.captured_v0, trace.threshold, trace.to_csv_string()) == reference_outcome(args)


def record_length(params, config, ni, samples_per_period, seed):
    """Samples in the record the run is capped at."""
    rng = np.random.default_rng(seed)
    _, m_star = _predict_aligned(params, config, ni, *_resolve_signs(ni, rng))
    return round((m_star + 10) * derive_dynamics(params).pseudo_period * samples_per_period * params.f0)


@pytest.mark.parametrize("block", TINY_BLOCKS)
def test_draws_match_reference_at_tiny_blocks(monkeypatch, block):
    # the draws whose record spans at most 1,000 blocks and 300,000 samples
    monkeypatch.setattr(resonator, "_SIM_BLOCK", block)
    runs = [draw(i) for i in range(60)]
    runs = [args for args in runs if record_length(*args) <= min(1000 * block, 300_000)]
    assert len(runs) >= 15
    for args in runs:
        assert_same_outcome(args)


@pytest.mark.parametrize("block", TINY_BLOCKS)
@pytest.mark.parametrize("name", ["v0_zero", "no_edge", "no_stop", "no_decay"])
def test_failures_match_reference_at_tiny_blocks(monkeypatch, name, block):
    # NO_SIGNAL, "never fired", UNREACHABLE at the cap and NO_DECAY
    monkeypatch.setattr(resonator, "_SIM_BLOCK", block)
    assert isinstance(reference_outcome(PATHOLOGICAL[name]), str)
    assert_same_outcome(PATHOLOGICAL[name])


NOISELESS = (ResonatorParams(f0=50e3, q=300.0), MeasurementConfig(6.0, LAST), CircuitNonIdealities(), 50, 0)


def reference_edge_indices(args):
    params, _, ni, spp, _ = args
    n = record_length(*args)
    return reference_edges(reference_synth(params, spp * params.f0, n / (spp * params.f0), 0.0, 0), 0.0)


def test_edge_on_the_first_sample_of_a_block(monkeypatch):
    edges = reference_edge_indices(NOISELESS)
    for block in (int(edges[0]), int(edges[3]), int(edges[10])):
        monkeypatch.setattr(resonator, "_SIM_BLOCK", block)
        assert np.any(edges % block == 0)
        assert_same_outcome(NOISELESS)


def serve(monkeypatch, record, block):
    """The run and the reference read ``record``, the run in blocks of ``block`` samples."""
    monkeypatch.setattr(resonator, "_SIM_BLOCK", block)
    monkeypatch.setattr(
        circuit, "_synth_blocks",
        lambda params, rate, n, noise_rms, seed: (record[i:i + block] for i in range(0, n, block)),
    )
    return lambda *args: record.copy()


def synthesized(args):
    """The record a run of ``args`` synthesizes."""
    params, _, ni, spp, seed = args
    rng = np.random.default_rng(seed)
    _resolve_signs(ni, rng)
    rate = spp * params.f0
    return reference_synth(params, rate, record_length(*args) / rate, ni.noise_rms, int(rng.integers(0, 2**63 - 1)))


def test_tied_maximum_across_a_block_boundary_keeps_the_earlier_sample(monkeypatch):
    # cycle 5's maximum is raised on the two samples either side of a
    # block boundary; the trace must report the first of them
    params, _, _, spp, _ = NOISELESS
    rate = spp * params.f0
    boundary = round(5 * derive_dynamics(params).pseudo_period * rate)
    record = synthesized(NOISELESS)
    record[boundary - 1:boundary + 1] = 1.5
    synth = serve(monkeypatch, record, boundary)
    expected, expected_trace = reference_simulate(*NOISELESS, synth=synth)
    result, trace = simulate_measurement(*NOISELESS)
    assert trace.rows[5].true_peak == 1.5 and trace.rows[5].peak_time == (boundary - 1) / rate
    assert (result, trace.rows, trace.to_csv_string()) == (expected, expected_trace.rows, expected_trace.to_csv_string())


def test_dead_band_sample_ending_a_block_keeps_the_held_state(monkeypatch):
    # a block ends just before cycle 3's rising edge on a sample inside the
    # dead band but above 0 V: the comparator still holds "below", so the
    # next block's first sample is an edge
    args = (ResonatorParams(f0=50e3, q=300.0), MeasurementConfig(6.0, LAST), CircuitNonIdealities(noise_rms=1e-3), 50, 0)
    h = 4.0 * args[2].noise_rms
    record = synthesized(args)
    edge = int(reference_edges(record, h)[3])
    record[edge - 1] = h / 2
    assert edge in reference_edges(record, h)
    synth = serve(monkeypatch, record, edge)
    expected, expected_trace = reference_simulate(*args, synth=synth)
    result, trace = simulate_measurement(*args)
    assert (result, trace.to_csv_string()) == (expected, expected_trace.to_csv_string())


def test_stop_in_the_first_block_ends_the_run(monkeypatch):
    # the record is cut into two blocks and the counter stops in the first
    args = NOISELESS
    _, trace = reference_simulate(*args)
    stop_sample = round(trace.rows[-1].peak_time * args[3] * args[0].f0)
    n = record_length(*args)
    block = (stop_sample + n) // 2
    assert reference_edge_indices(args)[len(trace)] < block < n
    served = []

    def counted(*a):
        for b in resonator._synth_blocks(*a):
            served.append(b.size)
            yield b

    monkeypatch.setattr(resonator, "_SIM_BLOCK", block)
    monkeypatch.setattr(circuit, "_synth_blocks", counted)
    assert_same_outcome(args)
    assert served == [block]
