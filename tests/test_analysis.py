"""Sweeps and statistics: corner envelopes, the interior optimum of the
division factor, frequency regimes, and Monte Carlo containment."""

import dataclasses
import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qfm.analysis
from qfm import (
    CircuitNonIdealities,
    Convention,
    MeasurementConfig,
    ResonatorParams,
    SampleBudgetError,
    SignAlignment,
    SimulationError,
    first_crossing,
    monte_carlo,
    optimal_k,
    pessimistic_nonidealities,
    predicted_measurement,
    theoretical_error_sweep,
    worst_case_sweep,
    frequency_sweep,
)
from qfm.analysis import _Q_BLOCK
from qfm.circuit import detector_envelope
from qfm.counting import check_grid_size, check_k, error_table, expand_range

LAST = Convention.LAST_ABOVE
IDEAL = CircuitNonIdealities()
PAIR = CircuitNonIdealities(comparator_offset=10e-3, divider_error=0.01)
F0 = 50e3


def cell_errors(table, k):
    err = table.column("rel_error")
    ks = table.column("k")
    return err[ks == k]


class TestWorstCaseSweep:
    def test_zero_magnitudes_reduce_to_theoretical(self):
        span = (100.0, 140.0, 0.5)
        wc = worst_case_sweep([4.0, 6.0], span, IDEAL, f0=F0)
        th = theoretical_error_sweep([4.0, 6.0], span)
        assert wc.columns == th.columns
        assert len(wc) == len(th)
        for a, b in zip(wc.rows, th.rows):
            assert a[0] == b[0] and a[1] == b[1] and a[2] == b[2]
            assert a[4] == pytest.approx(b[4], rel=1e-12)

    def test_matches_scalar_predicted_per_corner(self):
        table = worst_case_sweep([6.0], (290.0, 310.0, 2.5), PAIR, f0=F0)
        for k, q_true, n, qm, err in table.rows:
            corner_errs = {}
            for sign in (SignAlignment.PLUS, SignAlignment.MINUS):
                ni = CircuitNonIdealities(
                    comparator_offset=10e-3, divider_error=0.01, worst_case_sign=sign
                )
                r = predicted_measurement(
                    ResonatorParams(F0, q_true, 1.0), MeasurementConfig(k, LAST), ni
                )
                corner_errs[sign] = r
            worst = max(corner_errs.values(), key=lambda r: abs(r.relative_error))
            assert n == worst.n
            assert err == pytest.approx(worst.relative_error, rel=1e-12)

    def test_interior_k_beats_extremes_over_range(self):
        # over Q in [100, 1000] the k=6 worst case undercuts both a small
        # k (quantization-dominated at low Q) and a large k (offset
        # against a low threshold)
        span = (100.0, 1000.0, 0.5)
        worst = {
            k: np.nanmax(np.abs(cell_errors(worst_case_sweep([k], span, PAIR, f0=F0), k)))
            for k in (2.0, 6.0, 20.0)
        }
        assert worst[6.0] < worst[2.0]
        assert worst[6.0] < worst[20.0]

    def test_worst_case_dominates_ideal_pointwise(self):
        span = (100.0, 400.0, 1.0)
        wc = worst_case_sweep([4.0, 6.0, 8.0], span, PAIR, f0=F0)
        th = theoretical_error_sweep([4.0, 6.0, 8.0], span)
        assert np.all(
            np.abs(wc.column("rel_error")) >= np.abs(th.column("rel_error")) - 1e-15
        )

    def test_exhaustive_envelope_contains_aligned(self):
        span = (200.0, 400.0, 5.0)
        aligned = worst_case_sweep([6.0], span, PAIR, f0=F0)
        full = worst_case_sweep([6.0], span, PAIR, f0=F0, exhaustive=True)
        assert np.all(
            np.abs(full.column("rel_error")) >= np.abs(aligned.column("rel_error")) - 1e-15
        )

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            worst_case_sweep([], (100.0, 200.0, 1.0), PAIR, f0=F0)

    @pytest.mark.parametrize("f0,v0", [(0.0, 1.0), (-5.0, 1.0), (math.nan, 1.0), (math.inf, 1.0), (F0, -1.0), (F0, 0.0), (F0, math.nan)])
    def test_rejects_device_not_finite_and_positive(self, f0, v0):
        name = "f0" if f0 != F0 else "v0"
        with pytest.raises(ValueError, match=f"{name} must be finite and > 0"):
            worst_case_sweep([6.0], (100.0, 200.0, 1.0), PAIR, f0=f0, v0=v0)

    def test_failed_cells_marked_not_nan(self):
        # an opamp offset that holds every captured maximum above any
        # reachable threshold fails both corners; rows survive as markers
        ni = CircuitNonIdealities(opamp_offset=0.5)
        table = worst_case_sweep([6.0], (100.0, 102.0, 1.0), ni, f0=F0)
        assert len(table) == 3
        assert all(r[2] is None for r in table.rows)
        assert "NA,NA,NA" in table.to_csv_string()
        assert "nan" not in table.to_csv_string()


# the 32 sign corners (divider, comparator, opamp, leak, diode) in the
# order of the exhaustive search, and the rows of its two extreme corners
BOX = np.array(list(itertools.product((-1.0, 1.0), repeat=5)))
UP, DOWN = 20, 11  # largest and smallest crossing index
FIRST = Convention.FIRST_AT_OR_BELOW


def box_crossings(qs, ni, f0, k, v0=1.0, convention=LAST):
    """The kernel's crossing at every corner of the sign box (axis 0)."""
    mags = np.array([ni.divider_error, ni.comparator_offset, ni.opamp_offset, ni.leak_droop, ni.diode_residual])
    divider, comparator, opamp, leak, diode = (BOX * mags).T[:, :, None]
    env = detector_envelope(qs, f0, v0, ni, opamp, leak, diode)
    return first_crossing(env, k, convention, False, divider, comparator)


def reference_exhaustive_sweep(k_values, q_range, ni, f0, v0=1.0, convention=LAST):
    """worst_case_sweep(exhaustive=True) as it was before it started from
    the extreme corners: per k, all 32 corners over every Q, and per cell
    the completing corner with the largest |error|, the first on ties."""
    ks = check_k(list(k_values))
    qs = expand_range(q_range)
    columns = []
    for k in ks:
        c = box_crossings(qs, ni, f0, k, v0, convention)
        pick = np.argmax(np.where(c.valid, np.abs(c.error), -1.0), axis=0)[None]
        worst = [np.take_along_axis(a, pick, axis=0)[0] for a in (c.n, c.q, c.error)]
        columns.append((*worst, c.valid.any(axis=0)))
    return error_table(ks, qs, *(np.stack(column) for column in zip(*columns)))


def log_floats(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


def magnitude(hi):
    return st.one_of(st.just(0.0), log_floats(hi * 1e-6, hi))


budgets = st.builds(
    CircuitNonIdealities,
    comparator_offset=magnitude(0.5),
    divider_error=st.one_of(st.just(0.0), st.floats(0.0, 0.999)),
    opamp_offset=magnitude(0.5),
    leak_droop=magnitude(1e4),
    diode_residual=magnitude(0.5),
    f_fail=log_floats(1e3, 1e7),
    detector_bandwidth=st.one_of(st.just(math.inf), log_floats(1e4, 1e8)),
)


@st.composite
def q_ranges(draw, q_max):
    lo = draw(log_floats(0.51, q_max))
    step = lo * draw(log_floats(1e-6, 0.2))
    return (lo, lo + draw(st.integers(0, 15)) * step, step)


class TestExhaustiveFromExtremeCorners:
    """The exhaustive sweep reads each cell off the two extreme corners
    and searches the whole sign box only where they leave it open; its
    CSV is the full search's, byte for byte."""

    @settings(max_examples=300, deadline=None)
    @given(
        ni=budgets,
        ks=st.lists(log_floats(1e-6, 29.0).map(lambda x: 1.0 + x), min_size=1, max_size=3, unique=True),
        q_range=q_ranges(1e17),
        f0=log_floats(10.0, 10e6),
        v0=log_floats(0.01, 10.0),
        convention=st.sampled_from(list(Convention)),
    )
    def test_same_bytes_as_the_full_box_search(self, ni, ks, q_range, f0, v0, convention):
        got = worst_case_sweep(ks, q_range, ni, f0, v0, convention, exhaustive=True)
        expected = reference_exhaustive_sweep(ks, q_range, ni, f0, v0, convention)
        assert got.to_csv_string() == expected.to_csv_string()

    @settings(max_examples=300, deadline=None)
    @given(
        ni=budgets,
        k=log_floats(1e-6, 29.0).map(lambda x: 1.0 + x),
        q_range=q_ranges(1e6),
        f0=log_floats(10.0, 10e6),
        convention=st.sampled_from(list(Convention)),
    )
    def test_completing_corners_cross_between_the_extremes(self, ni, k, q_range, f0, convention):
        c = box_crossings(expand_range(q_range), ni, f0, k, convention=convention)
        both = c.valid[UP] & c.valid[DOWN]
        inside = (c.m[DOWN] <= c.m) & (c.m <= c.m[UP])
        assert np.all(inside | ~c.valid | ~both)

    def test_pinned_fallback_case(self):
        # the count-maximising corner never reaches its threshold here,
        # so every cell takes the full search; digest of the parent's CSV
        ni = CircuitNonIdealities(
            comparator_offset=10e-3, divider_error=0.01, opamp_offset=30e-3, leak_droop=15.0, diode_residual=0.08
        )
        c = box_crossings(expand_range((50.0, 60.0, 1.0)), ni, 2e6, 10.0)
        assert np.all(c.status[UP] == 4)  # Failure.UNREACHABLE
        assert np.all(c.valid.sum(axis=0) == 28)
        table = worst_case_sweep([10.0], (50.0, 60.0, 1.0), ni, f0=2e6, exhaustive=True)
        digest = hashlib.sha256(table.to_csv_string().encode()).hexdigest()
        assert digest == "8c685f58a4e8c49197011ab4f76cfb093f9797f7fba620b3073b9e4686125d39"

    def test_all_na(self):
        # a comparator offset over V0 drives the threshold below zero at
        # its minus corners and over V0 at its plus corners, where
        # last_above counts no decay
        ni = CircuitNonIdealities(comparator_offset=2.0, opamp_offset=0.01, leak_droop=1.0)
        table = worst_case_sweep([4.0, 6.0], (100.0, 102.0, 1.0), ni, f0=F0, exhaustive=True)
        text = table.to_csv_string()
        assert len(table) == 6 and text.count("NA,NA,NA") == 6
        assert text == reference_exhaustive_sweep([4.0, 6.0], (100.0, 102.0, 1.0), ni, F0).to_csv_string()

    def test_box_searched_only_where_an_extreme_corner_fails(self, monkeypatch):
        # low Q leaves the count-minimising corner no decay (last_above);
        # over the CLI's default grid both extremes complete everywhere
        ni = pessimistic_nonidealities()
        ks, q_range = [1.5, 2.0, 6.0], (1.0, 30.0, 1.0)
        qs = expand_range(q_range)
        failing = []
        for k in ks:
            c = box_crossings(qs, ni, F0, k)
            failing.append((k, qs[~(c.valid[UP] & c.valid[DOWN])].tolist()))
        assert [len(q) for _, q in failing] == [8, 4, 1]

        searched = []

        def spy(env, k, *args):
            c = first_crossing(env, k, *args)
            if c.m.shape[0] == BOX.shape[0]:
                searched.append((k, env.q.tolist()))
            return c

        monkeypatch.setattr(qfm.analysis, "first_crossing", spy)
        table = worst_case_sweep(ks, q_range, ni, f0=F0, exhaustive=True)
        assert searched == failing
        assert table.to_csv_string() == reference_exhaustive_sweep(ks, q_range, ni, F0).to_csv_string()
        searched.clear()
        worst_case_sweep(np.arange(4.0, 8.01, 0.25), (100.0, 1000.0, 1.0), ni, f0=F0, exhaustive=True)
        assert searched == []

    def test_rounding_that_reorders_corners_opens_the_cells(self):
        # near Q = 2e16 a maximum falls by a few ulps and k (1 + d) is
        # within 1.2e-5 of 1, so rounding, not the signs, orders the
        # corners' crossings: some completing corner crosses outside the
        # extremes' range, and the sweep must search the box
        ni = CircuitNonIdealities(
            comparator_offset=1.3166927545899078e-10, divider_error=3.7930679282390875e-11,
            opamp_offset=6.916770890730877e-14, leak_droop=7.22742106394047e-16,
            diode_residual=2.6004267791435807e-11,
        )
        q_range, k = (2.0500829703608824e16, 2.0500830523642012e16, 20500829.703608826), 1.0000116016855212
        c = box_crossings(expand_range(q_range), ni, 1e3, k, convention=FIRST)
        assert np.any(c.valid & ((c.m > c.m[UP]) | (c.m < c.m[DOWN])))
        got = worst_case_sweep([k], q_range, ni, 1e3, convention=FIRST, exhaustive=True)
        assert got.to_csv_string() == reference_exhaustive_sweep([k], q_range, ni, 1e3, convention=FIRST).to_csv_string()

    def test_counts_that_round_to_one_q_open_the_cells(self):
        # past 2^53 neighbouring counts convert to one float, so a corner
        # between the extremes can tie the worse one's |error| at another
        # count, and the first corner on the tie is the full search's
        ni = CircuitNonIdealities(
            comparator_offset=1.848247106936549e-17, divider_error=2.3836358862480845e-16,
            opamp_offset=5.262534158297095e-16, leak_droop=7.315572574967392e-14,
            diode_residual=1.7738927915705734e-15,
        )
        q_range, k = (1.0416676725644796e16, 1.0416677142311864e16, 10416676.725644797), 8.76691999464166
        c = box_crossings(expand_range(q_range), ni, 1e3, k, convention=FIRST)
        worse = np.where(np.abs(c.error[DOWN]) > np.abs(c.error[UP]), c.n[DOWN], c.n[UP])
        expected = reference_exhaustive_sweep([k], q_range, ni, 1e3, convention=FIRST)
        assert np.any(expected.column("n") != worse)
        got = worst_case_sweep([k], q_range, ni, 1e3, convention=FIRST, exhaustive=True)
        assert got.to_csv_string() == expected.to_csv_string()


class TestSweepGridLimit:
    def test_exhaustive_corner_grid_rejected(self):
        with pytest.raises(ValueError, match="the 32 corner x 40001 Q grid"):
            worst_case_sweep([6.0], (100.0, 40100.0, 1.0), PAIR, f0=F0, exhaustive=True)

    def test_k_by_q_grid_rejected(self):
        ks = np.linspace(2.0, 20.0, 2000)
        with pytest.raises(ValueError, match="the 2000 k x 991 Q grid"):
            theoretical_error_sweep(ks, (10.0, 1000.0, 1.0))
        with pytest.raises(ValueError, match="the 2000 k x 901 Q grid"):
            worst_case_sweep(ks, (100.0, 1000.0, 1.0), PAIR, f0=F0)


def reference_optimal_k(q_range, ni, k_grid, f0, v0=1.0, convention=LAST):
    """optimal_k as it was before the Q blocks: every k scored over the
    whole (2 aligned corners x Q) grid in one kernel call."""
    ks = np.sort(check_k(list(k_grid)))
    qs = expand_range(q_range)
    check_grid_size(2 * qs.size, f"the 2 corner x {qs.size} Q grid")
    signs = np.array([(1.0, 1.0, 1.0, 1.0, 1.0), (-1.0, -1.0, 1.0, 1.0, 1.0)])
    mags = np.array([ni.divider_error, ni.comparator_offset, ni.opamp_offset, ni.leak_droop, ni.diode_residual])
    divider, comparator, opamp, leak, diode = (signs * mags).T[:, :, None]
    env = detector_envelope(qs, f0, v0, ni, opamp, leak, diode)
    best_k = None
    best_metric = math.inf
    for k in ks.tolist():
        c = first_crossing(env, k, convention, False, divider, comparator)
        metric = float(np.max(np.abs(c.error))) if np.all(c.valid) else math.inf
        if metric < best_metric:
            best_metric = metric
            best_k = k
    if best_k is None:
        raise SimulationError("no k on the grid completes the measurement over the requested Q range")
    return best_k


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except SimulationError as exc:
        return f"SimulationError: {exc}"


B = _Q_BLOCK
# Q grids of 1, B - 1, B, B + 1 and 18,001 points, B = optimal_k's block
# of Q points, keyed by their size
Q_GRIDS = {
    1: (300.0, 300.0, 1.0),
    B - 1: (100.0, 100.0 + (B - 2) * 0.25, 0.25),
    B: (100.0, 100.0 + (B - 1) * 0.25, 0.25),
    B + 1: (100.0, 100.0 + B * 0.25, 0.25),
    18001: (100.0, 1000.0, 0.05),
}
# B + 1 points whose last one alone lies past Q = 4.8362e18, where k = 20's
# count passes 2^62 on an ideal circuit (k = 19.5's only past 4.877e18):
# only the second block rules k = 20 out
_STEP = 4.8362e18 / (B - 0.5)
LATE_FAILURE = (100.0, 100.0 + B * _STEP, _STEP)
# at Q = 300 on an ideal circuit, k = 4 and k = 16 give the same last_above error
TIED_K = [16.0, 4.0, 4.0, 2.5]
BUDGETS = {
    "pair": PAIR,
    "ideal": IDEAL,
    "pessimistic": pessimistic_nonidealities(),
    # an offset over V0 drives the (-1, -1) corner's threshold negative for every k
    "failing": CircuitNonIdealities(comparator_offset=2.0),
}


class TestOptimalK:
    """The interior optimum, and the blocked, early-exit search returning
    the k of the full-grid search (``reference_optimal_k``) or raising
    its error in every case."""

    def test_paper_magnitudes_interior_optimum(self):
        k_grid = np.arange(2.0, 20.01, 0.25)
        k_star = optimal_k((100.0, 1000.0, 0.05), PAIR, k_grid, f0=F0)
        assert 4.0 <= k_star <= 8.0

    def test_zero_magnitudes_pick_grid_max(self):
        k_grid = np.arange(2.0, 20.01, 0.25)
        k_star = optimal_k((100.0, 1000.0, 0.05), IDEAL, k_grid, f0=F0)
        assert k_star == 20.0

    def test_stable_under_grid_refinement(self):
        k_grid = np.arange(2.0, 20.01, 0.25)
        coarse = optimal_k((100.0, 1000.0, 0.05), PAIR, k_grid, f0=F0)
        fine = optimal_k((100.0, 1000.0, 0.025), PAIR, k_grid, f0=F0)
        assert coarse == fine

    def test_single_element_grid(self):
        assert optimal_k((100.0, 200.0, 1.0), PAIR, [5.5], f0=F0) == 5.5

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            optimal_k((100.0, 200.0, 1.0), PAIR, [], f0=F0)

    @pytest.mark.parametrize("f0,v0", [(0.0, 1.0), (-5.0, 1.0), (math.inf, 1.0), (F0, -1.0), (F0, math.nan)])
    def test_rejects_device_not_finite_and_positive(self, f0, v0):
        name = "f0" if f0 != F0 else "v0"
        with pytest.raises(ValueError, match=f"{name} must be finite and > 0"):
            optimal_k((100.0, 200.0, 1.0), PAIR, [5.0, 6.0], f0=f0, v0=v0)

    def test_rejects_oversized_corner_grid(self):
        # 600,001 Q points are within the axis limit, but the two
        # corners make 1.2M cells per kernel call
        with pytest.raises(ValueError, match="the 2 corner x 600001 Q grid"):
            optimal_k((100.0, 600100.0, 1.0), PAIR, [5.0], f0=F0)

    @pytest.mark.parametrize("budget", sorted(BUDGETS))
    @pytest.mark.parametrize("convention", list(Convention))
    @pytest.mark.parametrize("f0", [1e3, 50e3, 1e6])
    def test_same_k(self, budget, convention, f0):
        ni = BUDGETS[budget]
        k_grids = (np.arange(2.0, 20.01, 0.5), TIED_K)
        for points, q_range in Q_GRIDS.items():
            assert expand_range(q_range).size == points
            for k_grid in k_grids:
                expected = _outcome(reference_optimal_k, q_range, ni, k_grid, f0, convention=convention)
                got = _outcome(optimal_k, q_range, ni, k_grid, f0, convention=convention)
                assert got == expected, (points, list(k_grid))

    def test_tie_goes_to_the_smaller_k(self):
        q_range = Q_GRIDS[1]
        errors = worst_case_sweep([4.0, 16.0], q_range, IDEAL, f0=F0).column("rel_error")
        assert errors[0] == errors[1]
        assert optimal_k(q_range, IDEAL, TIED_K, f0=F0) == 4.0
        assert reference_optimal_k(q_range, IDEAL, TIED_K, f0=F0) == 4.0

    def test_a_later_block_can_rule_a_k_out(self):
        first_block = (100.0, 100.0 + (B - 1) * _STEP, _STEP)
        assert expand_range(LATE_FAILURE).size == B + 1
        assert optimal_k(first_block, IDEAL, [19.5, 20.0], f0=F0) == 20.0
        assert optimal_k(LATE_FAILURE, IDEAL, [19.5, 20.0], f0=F0) == 19.5
        assert reference_optimal_k(LATE_FAILURE, IDEAL, [19.5, 20.0], f0=F0) == 19.5

    def test_a_larger_error_in_a_middle_block_counts(self, monkeypatch):
        # under a kernel that makes k = 4.25, criterion 05's pick, err 100x
        # for Q in (500, 600), past the first block and before the last,
        # the next best k must win
        def kernel(env, k, *args):
            c = first_crossing(env, k, *args)
            middle = (env.q > 500.0) & (env.q < 600.0)
            return dataclasses.replace(c, error=np.where((np.asarray(k) == 4.25) & middle, 100.0 * c.error, c.error))

        q_range, k_grid = (100.0, 1000.0, 0.05), np.arange(2.0, 20.01, 0.25)
        runner_up = optimal_k(q_range, PAIR, k_grid[k_grid != 4.25], f0=F0)
        monkeypatch.setattr(qfm.analysis, "first_crossing", kernel)
        assert optimal_k(q_range, PAIR, k_grid, f0=F0) == runner_up != 4.25

    def test_range_without_a_point_is_refused(self):
        # 1e17 + 0.5 rounds back to 1e17, so arange leaves no point; the
        # search would otherwise have no cell to score any k by
        for call in (
            lambda q_range: optimal_k(q_range, PAIR, [4.0, 6.0], f0=F0),
            lambda q_range: worst_case_sweep([4.0], q_range, PAIR, f0=F0),
        ):
            with pytest.raises(ValueError, match="has no point"):
                call((1e17, 1e17, 1.0))

    def test_range_repeating_points_is_refused(self):
        # steps of 1 vanish against 1e17 (spacing 16), so arange would
        # give 64 copies of 1e17 and never reach the upper end
        with pytest.raises(ValueError, match="repeats points: the step is below the resolution"):
            expand_range((1e17, 1e17 + 64, 1.0))
        assert expand_range((1e17, 1e17 + 128, 32.0)).tolist() == [1e17 + 32 * i for i in range(5)]
        # half of a 16 step vanishes against 1e17 + 64: the upper end stays in
        assert expand_range((1e17, 1e17 + 64, 16.0)).tolist() == [1e17 + 16 * i for i in range(5)]

    def test_failing_budget_raises(self):
        with pytest.raises(SimulationError, match="no k on the grid completes"):
            optimal_k((100.0, 1000.0, 0.05), BUDGETS["failing"], [4.0, 6.0], f0=F0)

    def test_criterion_05_evaluates_a_fraction_of_the_cells(self, monkeypatch):
        cells = []

        def counting(*args, **kwargs):
            c = first_crossing(*args, **kwargs)
            cells.append(c.error.size)
            return c

        monkeypatch.setattr(qfm.analysis, "first_crossing", counting)
        k_grid = np.arange(2.0, 20.01, 0.25)
        assert optimal_k((100.0, 1000.0, 0.05), PAIR, k_grid, f0=F0) == 4.25
        full = k_grid.size * 2 * 18001
        assert cells and max(cells) <= 2 * B
        # 19 calls bound all 73 k on every _STRIDE-th Q of the first
        # block; 21 more score the k that may win: 79,522 cells
        assert len(cells) <= 40
        assert sum(cells) < 0.031 * full

    def test_same_k_on_seeded_draws(self):
        # budgets whose aligned corners take the divider and comparator
        # errors with both signs, offsets that fail some or every k, and
        # k grids with duplicates
        rng = np.random.default_rng(21)
        for draw in range(100):
            magnitude = rng.uniform(0.0, 1.0, 5) * (rng.uniform(size=5) < 0.7)
            ni = CircuitNonIdealities(
                divider_error=0.05 * magnitude[0],
                comparator_offset=0.6 * magnitude[1] ** 3,
                opamp_offset=0.05 * magnitude[2],
                leak_droop=20.0 * magnitude[3],
                diode_residual=0.2 * magnitude[4],
            )
            points = int(np.exp(rng.uniform(0.0, np.log(4000.0))))
            lo, step = 10.0 ** rng.uniform(1.0, 4.0), 10.0 ** rng.uniform(-2.0, 1.0)
            q_range = (lo, lo + (points - 1) * step, step)
            k_grid = rng.choice(rng.uniform(1.05, 40.0, 60), int(rng.integers(1, 81)))
            f0 = 10.0 ** rng.uniform(3.0, math.log10(2e6))
            convention = list(Convention)[draw % 2]
            expected = _outcome(reference_optimal_k, q_range, ni, k_grid, f0, convention=convention)
            got = _outcome(optimal_k, q_range, ni, k_grid, f0, convention=convention)
            assert got == expected, draw

    def test_a_failing_cell_off_the_sample_counts(self):
        # six points, every _STRIDE-th of which (0 and 4) the bound sees;
        # only the last lies past Q = 4.8362e18, where k = 20's count
        # passes 2^62 (k = 19.5's only past 4.877e18)
        q_range = (4.72e18, 4.85e18, 2.6e16)
        assert expand_range(q_range).size == 6
        rows = worst_case_sweep([19.5, 20.0], q_range, IDEAL, f0=F0).rows
        assert [row[2] is None for row in rows] == [False] * 11 + [True]
        # without that cell k = 20 would win
        assert optimal_k((4.72e18, 4.824e18, 2.6e16), IDEAL, [19.5, 20.0], f0=F0) == 20.0
        assert optimal_k(q_range, IDEAL, [19.5, 20.0], f0=F0) == 19.5
        assert reference_optimal_k(q_range, IDEAL, [19.5, 20.0], f0=F0) == 19.5


class TestFrequencySweep:
    def test_regime_ordering_with_calibrated_budget(self):
        ni = pessimistic_nonidealities()
        table = frequency_sweep(
            300.0, 6.0, [1e3, 1e4, 5e5, 2e6], ni, samples_per_period=40
        )
        err = np.abs(table.column("rel_error"))
        assert err[0] > err[1]  # leakage regime at the low end
        assert err[3] > err[2]  # detector failure at the high end

    def test_zero_nonidealities_flat(self):
        table = frequency_sweep(
            300.0, 6.0, [100.0, 1e3, 5e4, 1e6, 4e6], IDEAL, samples_per_period=40
        )
        n = table.column("n")
        assert np.all(n == n[0])

    def test_failed_points_get_na_rows(self):
        # past the detector's reach the run cannot complete; the row stays
        ni = CircuitNonIdealities(
            diode_residual=1.2, f_fail=1e5, detector_bandwidth=1e6
        )
        table = frequency_sweep(300.0, 6.0, [5e4, 4e6], ni, samples_per_period=40)
        assert len(table) == 2
        assert table.rows[0][1] is not None
        assert table.rows[1][1] is None
        text = table.to_csv_string()
        assert "NA,NA,NA" in text

    def test_sample_budget_aborts_the_sweep(self):
        # Q = 1e6 is over the simulator's sample budget at every f0: a
        # resource limit, not a point that cannot complete
        with pytest.raises(SampleBudgetError, match="samples"):
            frequency_sweep(1e6, 6.0, [1e3, 1e4], IDEAL, samples_per_period=40)

    def test_rejects_bad_axis_and_signs(self):
        with pytest.raises(ValueError):
            frequency_sweep(300.0, 6.0, [], IDEAL)
        with pytest.raises(ValueError):
            frequency_sweep(300.0, 6.0, [2e3, 1e3], IDEAL)
        with pytest.raises(ValueError):
            frequency_sweep(300.0, 6.0, [1e3, -2e3], IDEAL)
        ni = CircuitNonIdealities(worst_case_sign=SignAlignment.INDEPENDENT)
        with pytest.raises(ValueError):
            frequency_sweep(300.0, 6.0, [1e3, 2e3], ni)


class TestMonteCarlo:
    PARAMS = ResonatorParams(F0, 300.0, 1.0)
    CONFIG = MeasurementConfig(6.0, LAST)

    def test_zero_width_distributions(self):
        summary = monte_carlo(self.PARAMS, self.CONFIG, IDEAL, trials=50, seed=1)
        deterministic = predicted_measurement(self.PARAMS, self.CONFIG, IDEAL)
        assert summary.std_error == 0.0
        assert summary.mean_error == pytest.approx(deterministic.relative_error, rel=1e-12)
        assert summary.failures == 0

    def test_determinism(self):
        a = monte_carlo(self.PARAMS, self.CONFIG, PAIR, trials=500, seed=21)
        b = monte_carlo(self.PARAMS, self.CONFIG, PAIR, trials=500, seed=21)
        assert a == b
        c = monte_carlo(self.PARAMS, self.CONFIG, PAIR, trials=500, seed=22)
        assert a != c

    def test_exhaustive_corner_envelope_contains_samples(self):
        # every signed error source is monotone in the stop count, so the
        # full corner search bounds any draw inside the box
        summary = monte_carlo(self.PARAMS, self.CONFIG, PAIR, trials=10_000, seed=3)
        envelope = worst_case_sweep(
            [6.0], (300.0, 300.0, 1.0), PAIR, f0=F0, exhaustive=True
        )
        bound = abs(envelope.rows[0][4])
        assert max(abs(summary.min_error), abs(summary.max_error)) <= bound + 1e-15

    def test_histogram_well_formed(self):
        s = monte_carlo(self.PARAMS, self.CONFIG, PAIR, trials=1000, seed=5)
        assert len(s.hist_counts) == 20
        assert len(s.hist_edges) == 21
        assert sum(s.hist_counts) == 1000 - s.failures

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            monte_carlo(self.PARAMS, self.CONFIG, PAIR, trials=0, seed=0)


class TestMonteCarloRegression:
    """Summaries recorded from the per-trial scalar loop the kernel
    replaced; the kernel must reproduce them exactly."""

    PARAMS = ResonatorParams(F0, 300.0, 1.0)

    def test_shortcut_reports_twice_the_count(self):
        s = monte_carlo(
            self.PARAMS, MeasurementConfig(6.0, shortcut=True), PAIR, trials=2000, seed=4
        )
        # with Q = 2n every measured Q is an even integer
        for e in (s.min_error, s.max_error):
            q = 300.0 * (1.0 + e)
            assert q == pytest.approx(round(q), abs=1e-9) and round(q) % 2 == 0
        assert (s.failures, s.mean_error, s.std_error) == (0, 0.13763, 0.022685403775212915)
        assert (s.min_error, s.max_error) == (0.09333333333333334, 0.18)
        assert s.hist_counts == (
            5, 83, 0, 195, 186, 0, 181, 167, 0, 173, 160, 0, 182, 148, 0, 184, 168, 0, 119, 49
        )

    def test_summary_does_not_depend_on_the_block_size(self, monkeypatch):
        from qfm import analysis

        whole = monte_carlo(self.PARAMS, MeasurementConfig(6.0), PAIR, 1000, seed=2)
        monkeypatch.setattr(analysis, "_MC_BLOCK", 7)
        blocked = monte_carlo(self.PARAMS, MeasurementConfig(6.0), PAIR, 1000, seed=2)
        assert blocked == whole
