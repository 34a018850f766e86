"""The crossing kernel against a plain scalar search over the held maxima,
cell by cell: same first crossing m*, same validity, bit-equal Q; and the
sampled paths' count over observed maxima against the kernel."""

import math

import numpy as np
import pytest

from qfm import (
    CircuitNonIdealities,
    Convention,
    MeasurementConfig,
    ResonatorParams,
    peak_value,
    q_from_count,
    q_from_count_shortcut,
    theoretical_error_sweep,
    worst_case_sweep,
)
from qfm.counting import Envelope, Failure, first_crossing, held_crossing

FIRST = Convention.FIRST_AT_OR_BELOW
LAST = Convention.LAST_ABOVE
BANDWIDTH = 1e6
F_FAIL = 1e6


def reference(q, k, f0, v0, convention, shortcut, divider, comparator, opamp, leak, diode):
    """(Failure, m*, measured Q) of one cell from the scalar model.

    m* is found by doubling, then bisecting, over captured(m) <= thr,
    using the same comparisons as a scan from m = 1 (the held maxima
    fall monotonically with m); m* is None and Q NaN when the
    measurement cannot complete.
    """
    params = ResonatorParams(f0=f0, q=q, v0=v0)
    period = 2.0 * math.pi / (2.0 * math.pi * f0 * math.sqrt(1.0 - 1.0 / (4.0 * q * q)))
    gain = 1.0 / math.sqrt(1.0 + (f0 / BANDWIDTH) ** 2)
    drop = diode * min(1.0, max(0.0, f0 / F_FAIL - 1.0)) + leak * period

    def captured(m):
        return max(0.0, peak_value(params, m) * gain - drop + opamp)

    if 1.0 + divider <= 0:
        return Failure.DIVIDER, None, math.nan
    v0_captured = max(0.0, v0 * gain - drop + opamp)
    if v0_captured <= 0:
        return Failure.NO_SIGNAL, None, math.nan
    thr = v0_captured / (k * (1.0 + divider)) + comparator
    if thr < 0:
        return Failure.NEGATIVE_THRESHOLD, None, math.nan
    if thr + drop - opamp <= 0:
        return Failure.UNREACHABLE, None, math.nan
    hi = 1
    while captured(hi) > thr:
        hi *= 2
    lo = hi // 2  # captured(lo) > thr, or lo = 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if captured(mid) > thr:
            lo = mid
        else:
            hi = mid
    n = hi if convention is FIRST else hi - 1
    if n < 1:
        return Failure.NO_DECAY, hi, math.nan
    q_measured = q_from_count_shortcut(n) if shortcut else q_from_count(n, k)
    return Failure.NONE, hi, q_measured


def draw_cells(rng, size, q_range=(0.51, 1e5)):
    """Random cells: Q log-uniform over q_range, k over 1.01-100 and
    signed errors reaching divider <= -1 and negative thresholds."""
    q_lo, q_hi = q_range
    return {
        "q": np.exp(rng.uniform(math.log(q_lo), math.log(q_hi), size)),
        "k": np.exp(rng.uniform(math.log(1.01), math.log(100.0), size)),
        "divider": rng.uniform(-1.2, 0.5, size),
        "comparator": rng.uniform(-0.05, 0.05, size),
        "opamp": rng.uniform(-0.02, 0.02, size),
        "leak": rng.uniform(-20.0, 20.0, size),
        "diode": rng.uniform(-0.3, 0.3, size),
    }


def kernel(cells, f0, v0, convention, shortcut):
    env = Envelope(
        cells["q"],
        f0,
        v0,
        1.0 / math.sqrt(1.0 + (f0 / BANDWIDTH) ** 2),
        min(1.0, max(0.0, f0 / F_FAIL - 1.0)),
        cells["opamp"],
        cells["leak"],
        cells["diode"],
    )
    return first_crossing(env, cells["k"], convention, shortcut, cells["divider"], cells["comparator"])


# f0 above the 1 MHz failure knee brings in the diode residual, which
# can swallow a small v0 entirely; at Q 1e12-1e18 the closed-form
# estimate misses about a quarter of the cells, by up to ~200 maxima
@pytest.mark.parametrize(
    "f0,v0,q_range",
    [
        pytest.param(3e2, 1.7, (0.51, 1e5), id="300.0-1.7"),
        pytest.param(5e4, 1.7, (0.51, 1e5), id="50000.0-1.7"),
        pytest.param(1.3e6, 1.7, (0.51, 1e5), id="1300000.0-1.7"),
        pytest.param(3.5e6, 0.25, (0.51, 1e5), id="3500000.0-0.25"),
        pytest.param(2e5, 1.7, (1e12, 1e18), id="200000.0-1.7-high_q"),
    ],
)
@pytest.mark.parametrize("convention", [FIRST, LAST])
@pytest.mark.parametrize("shortcut", [False, True])
def test_matches_scalar_reference(f0, v0, q_range, convention, shortcut):
    rng = np.random.default_rng([int(f0), convention is FIRST, shortcut])
    cells = draw_cells(rng, 250, q_range)
    c = kernel(cells, f0, v0, convention, shortcut)
    statuses = set()
    for i in range(cells["q"].size):
        args = {name: float(values[i]) for name, values in cells.items()}
        status, m_star, q_measured = reference(
            f0=f0, v0=v0, convention=convention, shortcut=shortcut, **args
        )
        statuses.add(status)
        assert c.status[i] == status, (i, args)
        assert c.valid[i] == (status is Failure.NONE)
        if m_star is not None:
            assert c.m[i] == m_star, (i, args)
        if status is Failure.NONE:
            assert c.q[i] == q_measured, (i, args)
            assert c.error[i] == (q_measured - args["q"]) / args["q"]
        else:
            assert math.isnan(c.q[i])
    # the draws reach the failures as well as completed measurements
    assert {Failure.NONE, Failure.DIVIDER, Failure.NEGATIVE_THRESHOLD} <= statuses


def test_ideal_cells_match_a_linear_scan():
    rng = np.random.default_rng(5)
    qs = np.exp(rng.uniform(math.log(0.51), math.log(200.0), 300))
    ks = np.exp(rng.uniform(math.log(1.01), math.log(100.0), 300))
    c = first_crossing(Envelope(qs), ks, FIRST)
    for q, k, m in zip(qs.tolist(), ks.tolist(), c.m.tolist()):
        params = ResonatorParams(f0=1.0, q=q, v0=1.0)
        scan = 1
        while peak_value(params, scan) > 1.0 / k:
            scan += 1
        assert m == scan


def test_tie_resolves_at_or_below():
    params = ResonatorParams(f0=1.0, q=40.0, v0=1.0)
    k = 1.0 / peak_value(params, 5)
    assert int(first_crossing(Envelope(40.0), k, FIRST).m) == 5


def test_grid_broadcast_equals_zero_d_calls():
    qs = np.linspace(0.6, 900.0, 37)
    ks = np.array([1.3, 4.81, 6.0, 60.0])
    signed = dict(opamp=np.array([[0.004], [-0.004]])[:, None], leak=3.0, diode=0.05)
    env = Envelope(qs, 2e6, 1.0, 0.9, 0.5, **signed)
    grid = first_crossing(env, ks[:, None], LAST, False, divider=0.01, comparator=-0.002)
    assert grid.q.shape == (2, 4, 37)
    for index in np.ndindex(grid.q.shape):
        one = first_crossing(
            Envelope(qs[index[2]], 2e6, 1.0, 0.9, 0.5, signed["opamp"][index[0], 0, 0], 3.0, 0.05),
            ks[index[1]],
            LAST,
            False,
            divider=0.01,
            comparator=-0.002,
        )
        assert one.status == grid.status[index]
        assert one.m == grid.m[index]
        assert one.q == grid.q[index] or (np.isnan(one.q) and np.isnan(grid.q[index]))


def test_count_beyond_the_counter_is_flagged_not_wrapped():
    c = first_crossing(Envelope(np.array([300.0, 1e20])), 6.0)
    assert c.status.tolist() == [Failure.NONE, Failure.COUNT_RANGE]
    assert int(c.n[0]) == 171 and np.isnan(c.q[1])


@pytest.mark.parametrize(
    "sweep",
    [
        lambda: worst_case_sweep(
            [6.0],
            (100, 100 + 2048 * 2.362e15, 2.362e15),
            CircuitNonIdealities(comparator_offset=10e-3, divider_error=0.01),
            f0=50e3,
        ),
        lambda: theoretical_error_sweep([6.0], (1e18, 1e18 + 2048e12, 1e12)),
    ],
    ids=["worst_case", "theoretical"],
)
def test_missed_estimates_settle_in_logarithmic_work(monkeypatch, sweep):
    # at Q near 1e18 the estimate misses by hundreds of maxima; settling a
    # miss must cost a number of envelope evaluations logarithmic in it,
    # not one per maximum missed
    calls = []
    captured = Envelope.captured

    def counted(self, m):
        calls.append(1)
        return captured(self, m)

    monkeypatch.setattr(Envelope, "captured", counted)
    sweep()
    assert len(calls) <= 64


def test_held_crossing_matches_the_kernel_over_its_own_maxima():
    # one rule: counting the envelope's maxima 0 .. m + 4 as observed gives
    # the kernel's answer bit for bit wherever the kernel finds a crossing,
    # and never a completed count where the kernel finds none
    rng = np.random.default_rng(2026)
    seen = set()
    for _ in range(2000):
        q = math.exp(rng.uniform(math.log(0.6), math.log(1e5)))
        env = Envelope(
            q,
            math.exp(rng.uniform(math.log(1e2), math.log(1e7))),
            rng.uniform(0.1, 2.0),
            rng.uniform(0.5, 1.0),
            rng.uniform(0.0, 1.0),
            rng.uniform(-0.02, 0.02),
            rng.uniform(-20.0, 20.0),
            rng.uniform(-0.3, 0.3),
        )
        config = MeasurementConfig(
            math.exp(rng.uniform(math.log(1.01), math.log(100.0))),
            FIRST if rng.integers(2) else LAST,
            bool(rng.integers(2)),
        )
        divider, comparator = rng.uniform(-0.5, 0.5), rng.uniform(-0.05, 0.05)
        c = first_crossing(env, config.k, config.convention, config.shortcut, divider, comparator)
        held = held_crossing(env.captured(np.arange(int(c.m) + 5)), config, divider, comparator, q)
        seen.add(Failure(int(c.status)))
        if c.status in (Failure.NONE, Failure.NO_DECAY):
            for name in ("m", "n", "q", "error", "threshold", "status"):
                a, b = np.asarray(getattr(held, name)), np.asarray(getattr(c, name))
                assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes()), (name, q, config)
        else:
            assert held.status != Failure.NONE, (q, config)
    assert {Failure.NONE, Failure.NO_DECAY, Failure.NO_SIGNAL, Failure.UNREACHABLE} <= seen


def test_held_crossing_statuses_and_result():
    config = MeasurementConfig(4.0, FIRST)
    assert held_crossing([0.0, 0.1], config).status == Failure.NO_SIGNAL
    assert held_crossing([1.0, 0.5, 0.3], config).status == Failure.UNREACHABLE
    assert held_crossing([1.0, 0.25], MeasurementConfig(4.0, LAST)).status == Failure.NO_DECAY
    c = held_crossing([1.0, 0.5, 0.3, 0.25, 0.2], config, divider=0.0, comparator=0.0, q_true=4.0)
    assert (int(c.m), int(c.n), float(c.threshold)) == (3, 3, 0.25)
    result = c.result(1e-3)
    assert result.q_measured == q_from_count(3, 4.0) and result.t_measure == 3e-3
    assert result.relative_error == (result.q_measured - 4.0) / 4.0
    assert held_crossing([1.0, 0.2], config).result(1.0).relative_error is None
