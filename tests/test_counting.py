"""Ideal counting measurement: closed-form Q recovery, counting
conventions against a brute-force peak scan, and the quantization-error
structure of the sweep."""

import decimal
import math
import warnings

import numpy as np
import pytest

from qfm import (
    Convention,
    MeasurementConfig,
    ResonatorParams,
    count_pseudo_periods,
    peak_value,
    q_from_count,
    q_from_count_shortcut,
    theoretical_error,
    theoretical_error_sweep,
)

FIRST = Convention.FIRST_AT_OR_BELOW
LAST = Convention.LAST_ABOVE
PI_60 = decimal.Decimal("3.14159265358979323846264338327950288419716939937510582097494")


def brute_force_crossing(params, k, scan=4096):
    """Index of the first closed-form maximum at or below V0/k: a linear
    scan of maxima 1..scan in one array call, no shortcuts."""
    below = np.flatnonzero(peak_value(params, np.arange(1, scan + 1)) <= params.v0 / k)
    assert below.size, f"no maximum up to {scan} is at or below the threshold"
    return int(below[0]) + 1


class TestQFromCount:
    def test_reference_point(self):
        # the bring-up scenario: 171 counts at k = 6
        assert q_from_count(171, 6.0) == pytest.approx(299.81, abs=0.05)
        assert q_from_count(171, 6.0) == pytest.approx(299.8243346, rel=1e-9)

    def test_single_count_natural_log_base(self):
        # ln k = 1 makes the closed form (1/2) sqrt(1 + 4 pi^2)
        assert q_from_count(1, math.e) == pytest.approx(
            0.5 * math.sqrt(1 + 4 * math.pi**2), rel=1e-12
        )
        assert q_from_count(1, math.e) == pytest.approx(3.18113, abs=1e-5)

    def test_large_n_asymptote(self):
        exact = q_from_count(150, 6.0)
        asym = math.pi * 150 / math.log(6.0)
        assert abs(asym - exact) / exact < 1e-4
        assert exact == pytest.approx(263.0, abs=0.01)

    def test_monotonicity(self):
        n = np.arange(1, 100_001)
        q = q_from_count(n, 6.0)
        assert np.all(np.diff(q) > 0)
        ks = np.linspace(1.1, 30.0, 200)
        qs = np.array([q_from_count(50, k) for k in ks])
        assert np.all(np.diff(qs) < 0)

    def test_config_rejects_non_finite_k(self):
        for k in (math.inf, math.nan):
            with pytest.raises(ValueError):
                MeasurementConfig(k)

    def test_rejects_a_non_integer_count(self):
        with pytest.raises(ValueError) as err:
            q_from_count(2.5, 6.0)
        assert str(err.value) == "n must be an integer count (got float64)"

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            q_from_count(0, 6.0)
        with pytest.raises(ValueError):
            q_from_count(10, 1.0)
        with pytest.raises(ValueError):
            q_from_count(10, 0.5)


class TestShortcut:
    def test_values(self):
        assert q_from_count_shortcut(150) == 300.0
        assert q_from_count_shortcut(1) == 2.0
        with pytest.raises(ValueError):
            q_from_count_shortcut(0)

    def test_matches_exact_formula_at_4p81(self):
        # ln 4.81 = 1.57070 sits within 1e-4 of pi/2, so doubling the
        # count tracks the closed form to a fraction of a percent
        n = np.arange(25, 100_001)
        exact = q_from_count(n, 4.81)
        rel = np.abs(2.0 * n - exact) / exact
        assert rel.max() < 2e-3
        assert rel.max() == pytest.approx(1.13e-4, rel=0.05)


class TestCount:
    def test_reference_counts(self):
        params = ResonatorParams(f0=50e3, q=300.0, v0=1.0)
        assert count_pseudo_periods(params, MeasurementConfig(6.0, FIRST)) == 172
        assert count_pseudo_periods(params, MeasurementConfig(6.0, LAST)) == 171

    def test_threshold_barely_below_v0(self):
        params = ResonatorParams(f0=50e3, q=300.0, v0=1.0)
        assert count_pseudo_periods(params, MeasurementConfig(1.0 + 1e-6, FIRST)) == 1

    def test_count_independent_of_f0_and_v0(self):
        config = MeasurementConfig(6.0, LAST)
        counts = {
            count_pseudo_periods(ResonatorParams(f0=f0, q=300.0, v0=v0), config)
            for f0 in (100.0, 50e3, 4e6)
            for v0 in (0.1, 1.0, 12.0)
        }
        assert counts == {171}

    def test_agrees_with_brute_force(self):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            q = float(np.exp(rng.uniform(np.log(0.6), np.log(3000.0))))
            k = float(rng.uniform(1.01, 30.0))
            params = ResonatorParams(f0=1.0, q=q, v0=1.0)
            m = brute_force_crossing(params, k)
            for conv, n in ((FIRST, m), (LAST, m - 1)):
                assert count_pseudo_periods(params, MeasurementConfig(k, conv)) == n

    def test_conventions_differ_by_one(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            q = float(rng.uniform(1.0, 2000.0))
            k = float(rng.uniform(1.1, 20.0))
            params = ResonatorParams(f0=1.0, q=q, v0=1.0)
            n_first = count_pseudo_periods(params, MeasurementConfig(k, FIRST))
            n_last = count_pseudo_periods(params, MeasurementConfig(k, LAST))
            assert n_first == n_last + 1

    @pytest.mark.parametrize(
        "f0,q,message",
        [
            (50e3, 1e300, "q=1e+300 is out of range: the count would overflow"),
            (5e-324, 300.0, "f0=5e-324 is out of range: the pseudo-period leaves the float range"),
        ],
    )
    def test_refuses_a_count_out_of_range(self, f0, q, message):
        with pytest.raises(ValueError) as err:
            count_pseudo_periods(ResonatorParams(f0=f0, q=q, v0=1.0), MeasurementConfig(6.0, LAST))
        assert str(err.value) == message

    @pytest.mark.parametrize("f0", [5e-324, 1e-308, 1e-305, 1e-300, 1.0, 1e300, 1e307, 1.7e308])
    def test_count_does_not_depend_on_f0(self, f0):
        # every (Q, k) of the grid gives the 50 kHz count or one ValueError
        # naming f0, and no RuntimeWarning
        for q in (0.5000001, 0.7, 3.0, 300.0, 1e5, 1e10, 1e16):
            for k in (1.01, 2.0, 6.0, 1e3, 1e20, 1e100, 1e200):
                config = MeasurementConfig(k, LAST)
                ref = count_pseudo_periods(ResonatorParams(f0=50e3, q=q, v0=1.0), config)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    try:
                        n = count_pseudo_periods(ResonatorParams(f0=f0, q=q, v0=1.0), config)
                    except ValueError as err:
                        assert str(err).startswith(f"f0={f0} is out of range"), (q, k)
                        continue
                assert n == ref, (q, k, n, ref)

    @pytest.mark.parametrize("k", [1e20, 6.0])
    def test_count_past_2_to_the_50_does_not_depend_on_f0(self, k):
        # the maxima fall by the log decrement of Q, which f0 does not enter
        config = MeasurementConfig(k, LAST)
        counts = {count_pseudo_periods(ResonatorParams(f0=f0, q=1e16, v0=1.0), config)
                  for f0 in (1.0, 50e3, 1e300, 1e307)}
        assert len(counts) == 1 and counts.pop() > 2**50, counts

    @pytest.mark.parametrize("k, exact, within", [
        (6.0, 5703347527187113, 0),
        (1e20, 146587119775885548, 32),  # 32 is the float spacing there
    ])
    def test_count_past_2_to_the_53_is_within_its_float_spacing(self, k, exact, within):
        # the exact last_above count, one less than the first m with
        # m delta >= ln k, from 60 significant digits
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            q = decimal.Decimal(1e16)
            delta = PI_60 / (q * (1 - 1 / (4 * q * q)).sqrt())
            m = (decimal.Decimal(k).ln() / delta).to_integral_value(rounding=decimal.ROUND_CEILING)
        assert int(m) - 1 == exact
        n = count_pseudo_periods(ResonatorParams(f0=1.0, q=1e16, v0=1.0), MeasurementConfig(k, LAST))
        assert abs(n - exact) <= within <= math.ulp(float(exact))

    def test_peak_value_where_m_t_overflows(self):
        # the maxima fall by the log decrement of Q whatever f0, with no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            far = peak_value(ResonatorParams(f0=1e-308, q=300.0, v0=1.0), np.array([0, 1, 171]))
        near = peak_value(ResonatorParams(f0=50e3, q=300.0, v0=1.0), np.array([0, 1, 171]))
        np.testing.assert_array_equal(far, near)

    def test_tie_counts_as_at_or_below(self):
        # place the threshold exactly on maximum 5
        params = ResonatorParams(f0=1.0, q=40.0, v0=1.0)
        k = params.v0 / peak_value(params, 5)
        assert count_pseudo_periods(params, MeasurementConfig(k, FIRST)) == 5
        assert count_pseudo_periods(params, MeasurementConfig(k, LAST)) == 4


class TestTheoreticalError:
    def test_reference_errors(self):
        err_last = theoretical_error(300.0, MeasurementConfig(6.0, LAST))
        assert err_last == pytest.approx(-5.855e-4, abs=2e-6)
        err_first = theoretical_error(300.0, MeasurementConfig(6.0, FIRST))
        assert err_first == pytest.approx(5.259e-3, abs=2e-6)

    def test_refuses_a_threshold_above_the_first_maximum(self):
        with pytest.raises(ValueError) as err:
            theoretical_error(0.6, MeasurementConfig(1.5, LAST))
        assert str(err.value) == (
            "measurement degenerate at q=0.6, k=1.5: the first maximum is already at or below the threshold"
        )

    def test_quantization_is_the_only_error_source(self):
        # |error| never exceeds the Q change induced by one count
        rng = np.random.default_rng(11)
        for _ in range(400):
            q = float(np.exp(rng.uniform(np.log(10.0), np.log(1e4))))
            k = float(rng.uniform(2.0, 20.0))
            for conv in (FIRST, LAST):
                config = MeasurementConfig(k, conv)
                n = count_pseudo_periods(ResonatorParams(1.0, q, 1.0), config)
                err = theoretical_error(q, config)
                quantum = q_from_count(n + 1, k) - q_from_count(n, k)
                assert abs(err) * q <= quantum

    def test_nearest_level_inside_one_percent_for_high_q(self):
        # the quantization levels stay within 1% of any true Q >= 100
        # once k >= 6; a single stop convention can be off by the full
        # count quantum, which reaches ~1.75% at Q=100, k=6
        for k in (6.0, 8.0, 16.0):
            for q in np.arange(100.0, 1001.0, 7.0):
                e_first = theoretical_error(q, MeasurementConfig(k, FIRST))
                e_last = theoretical_error(q, MeasurementConfig(k, LAST))
                assert min(abs(e_first), abs(e_last)) < 0.01

    def test_single_convention_worst_case_bound(self):
        # regression for the magnitude of the single-convention ripple
        errs = [
            theoretical_error(q, MeasurementConfig(6.0, LAST))
            for q in np.arange(100.0, 120.0, 0.25)
        ]
        assert 0.01 < max(abs(e) for e in errs) < 0.0176


class TestSweep:
    def test_row_ordering_and_shape(self):
        table = theoretical_error_sweep([2.0, 10.0], (500.0, 504.0, 1.0))
        assert table.columns == ("k", "q_true", "n", "q_measured", "rel_error")
        assert len(table) == 10
        assert [r[0] for r in table.rows] == [2.0] * 5 + [10.0] * 5
        assert [r[1] for r in table.rows][:5] == [500.0, 501.0, 502.0, 503.0, 504.0]

    def test_small_k_ripples_larger(self):
        # max ripple over a window near Q=500: coarse k beats fine k
        window = (480.0, 520.0, 0.25)
        t2 = theoretical_error_sweep([2.0], window)
        t10 = theoretical_error_sweep([10.0], window)
        assert np.nanmax(np.abs(t2.column("rel_error"))) > np.nanmax(
            np.abs(t10.column("rel_error"))
        )

    def test_sawteeth_align_with_count_increments(self):
        table = theoretical_error_sweep([6.0], (200.0, 260.0, 0.05))
        n = table.column("n")
        err = table.column("rel_error")
        dn = np.diff(n)
        derr = np.diff(err)
        # count steps by exactly one at each sawtooth reset
        assert set(np.unique(dn)) <= {0.0, 1.0}
        # error jumps up where n increments, drifts down elsewhere
        assert np.all(derr[dn == 1.0] > 0)
        assert np.all(derr[dn == 0.0] < 0)

    def test_single_point_reduces_to_theoretical_error(self):
        table = theoretical_error_sweep([6.0], (300.0, 300.0, 1.0))
        assert len(table) == 1
        assert table.rows[0][4] == theoretical_error(300.0, MeasurementConfig(6.0))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            theoretical_error_sweep([], (10.0, 20.0, 1.0))
        with pytest.raises(ValueError):
            theoretical_error_sweep([6.0], (100.0, 10.0, 1.0))
        with pytest.raises(ValueError):
            theoretical_error_sweep([6.0], (10.0, 100.0, -1.0))

    def test_csv_emission(self):
        table = theoretical_error_sweep([6.0], (300.0, 302.0, 1.0))
        text = table.to_csv_string()
        lines = text.split("\n")
        assert lines[0] == "k,q_true,n,q_measured,rel_error"
        assert len(lines) == 5  # header + 3 rows + trailing newline
        assert lines[1].startswith("6,300,171,")
