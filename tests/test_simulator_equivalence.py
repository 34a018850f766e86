"""The array-pass simulator against the per-cycle loop it replaced.

``reference_simulate`` is that loop, kept here as a plain oracle together
with the scalar capture model, the int64 edge recovery and the
temporary-per-step synthesis it ran on.  Every result, trace row, trace
CSV and error message must come out identical.
"""

import functools
import math
import os
import subprocess
import sys
import threading

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
    eval_response,
    simulate_measurement,
    synth_waveform,
)
from qfm import circuit, resonator
from qfm.circuit import _predict_aligned, _resolve_signs, _rising_edges
from qfm.counting import Failure, held_crossing, stop_threshold

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


# the longest record of the draws: Q 20,000, k 10, 59 samples per period
CORNER = (ResonatorParams(f0=1e6, q=20_000.0), MeasurementConfig(10.0, FIRST), CircuitNonIdealities(noise_rms=1e-4), 59, 0)


def test_reference_corner_matches():
    assert_same_run(CORNER)


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


@pytest.mark.parametrize("noise", [0.0, 1e-4, 0.3])
def test_synth_bytes_match_reference(noise):
    params = ResonatorParams(f0=37e3, q=1234.5, v0=1.7)
    duration = 400 * derive_dynamics(params).pseudo_period
    wave = synth_waveform(params, 41 * params.f0, duration, noise_rms=noise, seed=9)
    assert wave.samples.tobytes() == reference_synth(params, 41 * params.f0, duration, noise, 9).tobytes()


def test_edges_match_reference():
    rng = np.random.default_rng(4)
    edge_rng = np.random.default_rng(5)
    cut_rng = np.random.default_rng(6)
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
            edges, state = _rising_edges(v, h)
            assert np.array_equal(edges, reference_edges(v, h))
            live = np.flatnonzero(np.abs(v) > h)  # a sample outside the dead band sets the state, else v[0]
            assert state == (np.sign(v[live[-1]]) if live.size else (1 if v[0] > 0 else -1))
            # cut anywhere, the state carried over the cut gives the same edges
            cut = int(cut_rng.integers(1, v.size)) if v.size > 1 else 1
            head, held = _rising_edges(v[:cut], h)
            if cut < v.size:
                tail, held = _rising_edges(v[cut:], h, held)
                head = np.concatenate((head, tail + cut))
            assert np.array_equal(head, edges) and held == state


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


def served_blocks(record, block, eps=0.0, rng=None):
    """``record`` as the simulator's blocks of ``block`` samples.  A served
    record is exact: with ``eps`` > 0 the blocks' approximate samples are
    moved by up to 0.99 eps, uniformly, and declared within eps."""
    for offset in range(0, record.size, block):
        exact = record[offset:offset + block]
        ring = exact + rng.uniform(-0.99 * eps, 0.99 * eps, exact.size) if eps else exact.copy()
        yield resonator._SimBlock(ring, None, eps, lambda idx, exact=exact: exact[idx])


def serve(monkeypatch, record, block, eps=0.0):
    """The run and the reference read ``record``, the run in blocks of
    ``block`` samples, approximate to within ``eps`` (see served_blocks)."""
    monkeypatch.setattr(resonator, "_SIM_BLOCK", block)
    rng = np.random.default_rng(11)
    monkeypatch.setattr(circuit, "_sim_blocks", lambda *a: served_blocks(record, block, eps, rng))
    return lambda *args: record.copy()


def synthesized(args):
    """The record a run of ``args`` synthesizes."""
    params, _, ni, spp, seed = args
    rng = np.random.default_rng(seed)
    _resolve_signs(ni, rng)
    rate = spp * params.f0
    return reference_synth(params, rate, record_length(*args) / rate, ni.noise_rms, int(rng.integers(0, 2**63 - 1)))


# doctored records as (run arguments, record, block size)


def dipped_record():
    # cycle 0 lies wholly below 0 V: its maximum enters the capture model
    # as 0 V and the opamp offset alone forms V0; the second half is scaled
    # down so that the leak can take the counter to a stop
    args = (
        ResonatorParams(f0=50e3, q=300.0), MeasurementConfig(6.0, LAST),
        CircuitNonIdealities(opamp_offset=0.02, leak_droop=1500.0), 50, 0,
    )
    record = synthesized(args)
    record[:3] = (-0.3, -0.2, 0.5)
    record[record.size // 2:] *= 0.01
    return args, record, record.size


def tied_record():
    # cycle 5's maximum is raised on the two samples either side of a
    # block boundary
    params, _, _, spp, _ = NOISELESS
    boundary = round(5 * derive_dynamics(params).pseudo_period * spp * params.f0)
    record = synthesized(NOISELESS)
    record[boundary - 1:boundary + 1] = 1.5
    return NOISELESS, record, boundary


def dead_band_record():
    # a block ends just before cycle 3's rising edge on a sample inside the
    # dead band but above 0 V
    args = (ResonatorParams(f0=50e3, q=300.0), MeasurementConfig(6.0, LAST), CircuitNonIdealities(noise_rms=1e-3), 50, 0)
    h = 4.0 * args[2].noise_rms
    record = synthesized(args)
    edge = int(reference_edges(record, h)[3])
    record[edge - 1] = h / 2
    return args, record, edge


DOCTORED = {"dipped": dipped_record, "tied": tied_record, "dead_band": dead_band_record}


def test_negative_cycle_maximum_is_floored_like_the_reference(monkeypatch):
    args, record, block = dipped_record()
    synth = serve(monkeypatch, record, block)
    expected, expected_trace = reference_simulate(*args, synth=synth)
    result, trace = simulate_measurement(*args)
    assert trace.rows[0].true_peak == -0.2 and 0 < trace.rows[0].captured_peak < 0.02
    assert (result, trace.rows) == (expected, expected_trace.rows)


def test_tied_maximum_across_a_block_boundary_keeps_the_earlier_sample(monkeypatch):
    # the trace must report the first of the two tied samples
    args, record, boundary = tied_record()
    rate = args[3] * args[0].f0
    synth = serve(monkeypatch, record, boundary)
    expected, expected_trace = reference_simulate(*args, synth=synth)
    result, trace = simulate_measurement(*args)
    assert trace.rows[5].true_peak == 1.5 and trace.rows[5].peak_time == (boundary - 1) / rate
    assert (result, trace.rows, trace.to_csv_string()) == (expected, expected_trace.rows, expected_trace.to_csv_string())


def test_dead_band_sample_ending_a_block_keeps_the_held_state(monkeypatch):
    # the comparator still holds "below" at the block's end, so the next
    # block's first sample is an edge
    args, record, edge = dead_band_record()
    assert edge in reference_edges(record, 4.0 * args[2].noise_rms)
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
        for b in resonator._sim_blocks(*a):
            served.append(b.ring.size)
            yield b

    monkeypatch.setattr(resonator, "_SIM_BLOCK", block)
    monkeypatch.setattr(circuit, "_sim_blocks", counted)
    assert_same_outcome(args)
    assert served == [block]


# ---------------------------------------------------------------------------
# the run decides on approximate samples: any approximation within the
# blocks' declared bound must leave every outcome as it is


def perturbed_blocks(rng, floor):
    """The simulator's blocks with the approximate ring-down replaced by
    the exact one moved by up to 0.99 eps, uniformly, where eps is the
    block's bound raised to at least ``floor`` volts."""
    def blocks(params, rate, n, noise_rms, seed):
        offset = 0
        for b in resonator._sim_blocks(params, rate, n, noise_rms, seed):
            eps = max(b.eps, floor)
            ring = eval_response(params, (offset + np.arange(b.ring.size)) / rate)
            ring += rng.uniform(-0.99 * eps, 0.99 * eps, ring.size)
            yield b._replace(ring=ring, eps=eps)
            offset += ring.size
    return blocks


@pytest.mark.parametrize("floor", [0.0, 1e-6, 1e-3])
def test_draws_match_reference_on_any_approximation_within_the_bound(monkeypatch, floor):
    monkeypatch.setattr(circuit, "_sim_blocks", perturbed_blocks(np.random.default_rng(12), floor))
    runs = [args for args in map(draw, range(60)) if record_length(*args) <= 300_000]
    assert len(runs) >= 15
    for args in runs + [PATHOLOGICAL[name] for name in ("v0_zero", "no_edge", "no_stop", "no_decay")]:
        assert_same_outcome(args)


@pytest.mark.parametrize("name", sorted(DOCTORED))
def test_doctored_records_match_reference_on_any_approximation_within_the_bound(monkeypatch, name):
    args, record, block = DOCTORED[name]()
    synth = serve(monkeypatch, record, block, eps=1e-3)
    expected, expected_trace = reference_simulate(*args, synth=synth)
    result, trace = simulate_measurement(*args)
    assert (result, trace.to_csv_string()) == (expected, expected_trace.to_csv_string())


def test_corner_evaluates_at_most_two_samples_per_cycle_exactly(monkeypatch):
    evaluated = []

    def counted(*a):
        for b in resonator._sim_blocks(*a):
            yield b._replace(exact=lambda idx, exact=b.exact: evaluated.append(idx.size) or exact(idx))

    monkeypatch.setattr(circuit, "_sim_blocks", counted)
    _, trace = simulate_measurement(*CORNER)
    assert 0 < sum(evaluated) <= 2 * len(trace)


# ---------------------------------------------------------------------------
# the run's per-block stop test and its capture formula against the checked
# entry points they stand in for


def record_stop_checks(monkeypatch):
    """Record each run's stop test: per run V0, the threshold-side
    arguments and one (block's new held maxima, answer) pair per block."""
    runs = []
    original = circuit._stop_check

    def recording(v0, config, divider, comparator):
        stops = original(v0, config, divider, comparator)
        blocks = []
        runs.append((v0, config, divider, comparator, blocks))

        def answer(held):
            blocks.append((held.copy(), stops(held)))
            return blocks[-1][1]

        return answer

    monkeypatch.setattr(circuit, "_stop_check", recording)
    return runs


def assert_stops_as_held_crossing(run):
    # after every block, the answer is held_crossing's over V0 and the
    # maxima so far, and the run goes on only while it is "no"
    v0, config, divider, comparator, blocks = run
    held = [np.array([v0])]
    for i, (new, stopped) in enumerate(blocks):
        held.append(new)
        status = held_crossing(np.concatenate(held), config, divider, comparator).status
        assert stopped == (status != Failure.UNREACHABLE.value)
        assert not stopped or i == len(blocks) - 1


def run_recorded(args):
    try:
        simulate_measurement(*args)
    except SimulationError:
        pass


@pytest.mark.parametrize("block", [2**14, 64])
def test_stop_check_answers_as_held_crossing_on_every_block_prefix(monkeypatch, block):
    # the draws whose record spans at most 300 blocks
    runs = record_stop_checks(monkeypatch)
    monkeypatch.setattr(resonator, "_SIM_BLOCK", block)
    cases = [args for args in map(draw, range(60)) if record_length(*args) <= 300 * block]
    for args in cases:
        run_recorded(args)
    assert len(runs) == len(cases) >= 30
    for run in runs:
        assert_stops_as_held_crossing(run)
    blocks = [len(run[4]) for run in runs]
    assert max(blocks) > 1 and sum(run[4][-1][1] for run in runs) >= 30


def test_stop_check_answers_as_held_crossing_at_ties_and_zero_v0():
    # maxima at, just above and just below the threshold, and a V0 of 0 V
    # with every later maximum above the threshold
    rng = np.random.default_rng(21)
    for v0 in (0.0, 0.25, 1.0):
        for divider, comparator in ((0.0, 0.0), (0.01, -0.01), (-0.01, 0.01)):
            config = MeasurementConfig(float(rng.uniform(1.5, 10.0)), LAST)
            thr = stop_threshold(v0, config.k, divider, comparator)
            levels = [thr, np.nextafter(thr, np.inf), np.nextafter(thr, -np.inf), abs(thr) + 1.0, 0.0]
            for held in [np.full(5, abs(thr) + 1.0)] + [rng.choice(levels, 12) for _ in range(20)]:
                for j in range(held.size + 1):
                    stops = circuit._stop_check(v0, config, divider, comparator)(held[:j])
                    status = held_crossing(np.concatenate(([v0], held[:j])), config, divider, comparator).status
                    assert stops == (status != Failure.UNREACHABLE.value)


def test_stop_check_stops_at_once_without_signal(monkeypatch):
    runs = record_stop_checks(monkeypatch)
    run_recorded(PATHOLOGICAL["v0_zero"])
    [(v0, *_, blocks)] = runs
    assert not v0 > 0 and [stopped for _, stopped in blocks] == [True]
    assert_stops_as_held_crossing(runs[0])


def test_stop_check_stops_in_the_first_block(monkeypatch):
    args = NOISELESS
    _, trace = reference_simulate(*args)
    stop_sample = round(trace.rows[-1].peak_time * args[3] * args[0].f0)
    monkeypatch.setattr(resonator, "_SIM_BLOCK", (stop_sample + record_length(*args)) // 2)
    runs = record_stop_checks(monkeypatch)
    run_recorded(args)
    [run] = runs
    assert [stopped for _, stopped in run[4]] == [True]
    assert_stops_as_held_crossing(run)


# the corner with every detector-side error on: the diode residual two
# thirds uncancelled (f0 above f_fail), droop, offset and roll-off
DETECTOR_CORNER = (
    CORNER[0],
    CORNER[1],
    CircuitNonIdealities(
        opamp_offset=2e-3, leak_droop=10.0, diode_residual=0.08,
        detector_bandwidth=1e6, f_fail=6e5, noise_rms=1e-4,
    ),
    59,
    0,
)


@pytest.mark.parametrize("case", ["corner", "dipped"])
def test_captured_column_is_capture_model_of_the_true_maxima(monkeypatch, case):
    # the dipped record's cycle 0 lies below 0 V: its maximum is floored
    if case == "corner":
        args, record = DETECTOR_CORNER, synthesized(DETECTOR_CORNER)
    else:
        args, record, block = dipped_record()
        serve(monkeypatch, record, block)
    params, _, ni, spp, _ = args
    _, trace = simulate_measurement(*args)
    true_peak, captured = trace.rows.columns[2], trace.rows.columns[3]
    bounds = np.concatenate(([0], reference_edges(record, 4.0 * ni.noise_rms)))
    holds = np.diff(bounds)[:len(trace)] / (spp * params.f0)
    expected = capture_model(np.where(true_peak < 0.0, 0.0, true_peak), params.f0, ni, holds)
    assert captured.tobytes() == expected.tobytes()
    assert (true_peak[0] < 0) == (case == "dipped") and captured[0] > 0


# ---------------------------------------------------------------------------
# the noise drawn ahead in a worker thread: every run as with the noise
# drawn in turn, on any number of CPUs


@pytest.fixture
def spare_cpu(monkeypatch):
    """Runs hand off as on a machine with CPUs to spare, whatever this one has."""
    monkeypatch.setattr(resonator, "_spare_cpu", lambda: True)


def corner_at(q):
    """CORNER at quality factor q."""
    return (ResonatorParams(f0=1e6, q=q), *CORNER[1:])


# Q of a CORNER run whose record spans the given number of blocks: the
# shortest runs draw in turn, from _HANDOFF_BLOCKS (3) on they hand off
BLOCKS_Q = {1: 100.0, 2: 700.0, 3: 800.0, 4: 1200.0, 53: 20_000.0}


@pytest.mark.parametrize("blocks", sorted(BLOCKS_Q))
def test_handed_off_runs_match_reference(spare_cpu, blocks):
    args = corner_at(BLOCKS_Q[blocks])
    assert -(-record_length(*args) // resonator._SIM_BLOCK) == blocks
    assert_same_run(args)


@pytest.mark.parametrize("block", [64, 1000])
def test_handed_off_tiny_blocks_match_reference(monkeypatch, spare_cpu, block):
    monkeypatch.setattr(resonator, "_SIM_BLOCK", block)
    runs = [corner_at(1200.0)] + [draw(i) for i in range(0, 12, 2)]
    assert record_length(*runs[0]) > 800 * 64
    for args in runs:
        assert_same_outcome(args)


def test_a_run_that_raises_leaves_the_next_run_alone(monkeypatch, spare_cpu):
    args = corner_at(20_000.0)
    clock_block, calls = circuit._clock_block, []

    def failing(*a):
        calls.append(a)
        if len(calls) == 5:
            raise RuntimeError("block failed")
        return clock_block(*a)

    monkeypatch.setattr(circuit, "_clock_block", failing)
    with pytest.raises(RuntimeError, match="block failed"):
        simulate_measurement(*args)
    monkeypatch.setattr(circuit, "_clock_block", clock_block)
    assert_same_run(args)
    assert_same_run(corner_at(1200.0))


def run_outcome(args):
    result, trace = simulate_measurement(*args)
    return result, trace.to_csv_string()


def test_concurrent_runs_match_serial_runs(spare_cpu):
    # four threads on the one drawer, each through the runs in its own order
    runs = [corner_at(q) for q in (800.0, 1200.0, 6000.0, 20_000.0)]
    serial = [run_outcome(args) for args in runs]
    got = {}

    def work(j):
        got[j] = [run_outcome(args) for args in runs[j:] + runs[:j]]

    threads = [threading.Thread(target=work, args=(j,)) for j in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert [got[j] for j in range(4)] == [serial[j:] + serial[:j] for j in range(4)]


FORK_PROBE = """
import os, signal
from qfm import CircuitNonIdealities, Convention, MeasurementConfig, ResonatorParams, resonator, simulate_measurement
resonator._spare_cpu = lambda: True
args = (ResonatorParams(f0=1e6, q=20000.0), MeasurementConfig(10.0, Convention.FIRST_AT_OR_BELOW),
        CircuitNonIdealities(noise_rms=1e-4), 59, 0)
parent = simulate_measurement(*args)[1].to_csv_string()
assert resonator._drawer is not None
pid = os.fork()
if pid == 0:
    signal.alarm(20)  # a child left waiting on its parent's worker ends
    os._exit(0 if simulate_measurement(*args)[1].to_csv_string() == parent else 1)
print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_simulates_after_a_handed_off_run():
    src = os.path.dirname(os.path.dirname(resonator.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, "-c", FORK_PROBE], env=env, capture_output=True, text=True, timeout=60)
    assert (out.returncode, out.stdout.strip()) == (0, "0"), out.stderr
