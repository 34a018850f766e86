"""Parameter sweeps and statistical studies of the measurement error.

Three views of the error budget:

* ``worst_case_sweep``  aligned-sign corners of the divider/comparator
  errors over a (k, Q) grid, optionally an exhaustive corner search over
  every error source's sign;
* ``frequency_sweep``   time-domain runs across resonant frequencies,
  exposing the leakage-dominated low end, the offset-dominated middle
  and the peak-detector failure at the high end;
* ``monte_carlo``       independent uniform draws of each error source
  through the closed-form model.

Every closed-form count here is one call of the crossing kernel in
``counting`` over a grid: (corner x Q) per k for ``worst_case_sweep``,
whose exhaustive search evaluates the two extreme sign corners over Q
and the whole sign box only over the Q cells they leave open,
(corner x a block of Q) per k for ``optimal_k``, and a block of trials
for ``monte_carlo``.  ``optimal_k`` first bounds every k's metric from
below on every ``_STRIDE``-th Q of the first block, a few k per call;
the largest |error| over some of a k's cells never exceeds that over all
of them, and a failing cell makes both inf.  It then scores the k in
order of their bounds, block by block, stops a k at the first block
after which it cannot win and stops the search at the first bound that
cannot win, so it picks what scoring every cell picks.

``optimal_k`` picks the division factor minimizing the worst-case error
over a Q range; larger k suppresses count quantization while making the
fixed comparator offset loom larger against the lower threshold, so an
interior optimum exists once offsets are nonzero.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .circuit import (
    CircuitNonIdealities,
    SampleBudgetError,
    SignAlignment,
    SimulationError,
    detector_envelope,
    simulate_measurement,
)
from .counting import (
    Convention,
    MeasurementConfig,
    check_grid_size,
    check_k,
    error_table,
    expand_range,
    first_crossing,
    q_from_count,
)
from .resonator import ResonatorParams, check_f0_v0
from .tables import SweepTable

__all__ = [
    "worst_case_sweep",
    "optimal_k",
    "frequency_sweep",
    "monte_carlo",
    "MonteCarloSummary",
]

# trials per kernel call in monte_carlo, which bounds its working memory
_MC_BLOCK = 8192
# Q points per kernel call in optimal_k, the unit of its early exit
_Q_BLOCK = 1024
# optimal_k bounds each k on every _STRIDE-th Q of its first block
_STRIDE = 4
_ALIGNED_CORNERS = ((1.0, 1.0, 1.0, 1.0, 1.0), (-1.0, -1.0, 1.0, 1.0, 1.0))
# the sign corner with the largest crossing index (divider +, comparator -,
# opamp +, leak -, diode -) and its mirror, with the smallest
_EXTREME_CORNERS = ((1.0, -1.0, 1.0, -1.0, -1.0), (-1.0, 1.0, -1.0, 1.0, 1.0))
# twice a bound on how far rounding can move two corners' differences
# between a held maximum and the threshold, in units of the largest term
# of either (see _extremes_settle)
_ROUNDING = 64 * 2.0**-53


def _corner_signs(exhaustive: bool):
    """Sign tuples (divider, comparator, opamp, leak, diode) to evaluate.

    The aligned pair flips only the threshold-side sources, matching the
    worst-case alignment convention; the exhaustive search covers every
    corner of the five-dimensional sign box and is the envelope that
    provably dominates independent draws.  ``worst_case_sweep`` reads
    the box's worst corner off its two extreme corners
    (``_EXTREME_CORNERS``) and evaluates all 32 only where they leave it
    open.
    """
    return tuple(itertools.product((-1.0, 1.0), repeat=5)) if exhaustive else _ALIGNED_CORNERS


def _corner_model(qs, ni: CircuitNonIdealities, f0: float, v0: float, signs):
    """The detector envelope of ``qs`` at f0 and the signed divider and
    comparator errors, for each row of ``signs``, which scales the five
    (divider, comparator, opamp, leak, diode) magnitudes: +/-1 at the
    sign corners, a random draw in Monte Carlo.  Rows run along axis 0,
    Q along axis 1."""
    mags = (ni.divider_error, ni.comparator_offset, ni.opamp_offset, ni.leak_droop, ni.diode_residual)
    divider, comparator, opamp, leak, diode = (np.asarray(signs) * np.array(mags)).T[:, :, None]
    return detector_envelope(qs, f0, v0, ni, opamp, leak, diode), divider, comparator


def _crossings(qs, ni: CircuitNonIdealities, f0: float, v0: float, signs):
    """first_crossing over ``_corner_model(qs, ni, f0, v0, signs)``, as a
    function of k, the convention and the shortcut."""
    env, divider, comparator = _corner_model(qs, ni, f0, v0, signs)
    return lambda k, convention, shortcut=False: first_crossing(
        env, k, convention, shortcut, divider, comparator
    )


def worst_case_sweep(
    k_values,
    q_range,
    ni: CircuitNonIdealities,
    f0: float,
    v0: float = 1.0,
    convention: Convention = Convention.LAST_ABOVE,
    exhaustive: bool = False,
) -> SweepTable:
    """Corner-wise worst measurement error over a (k, Q) grid.

    Each cell evaluates the closed-form measurement at the aligned sign
    corners (all corners of the sign box with ``exhaustive=True``) and
    reports the corner with the largest absolute error, signed, the
    first such corner on ties.  Cells where every corner fails to
    complete are recorded with NA markers.  One kernel call per k covers
    the (corner x Q) grid.

    The exhaustive search starts from two corners per k.  The crossing
    index m* rises with the divider error, which lowers the threshold
    V0/(k (1 + d)) + c, and falls as the comparator offset c raises it;
    while k (1 + d) >= 1 it rises with the opamp offset and falls with
    the drop (leak and diode), which move a held maximum more than the
    threshold, and where k (1 + d) < 1 the count-minimising corner stops
    at m* = 1.  So wherever both extreme corners complete, every
    completing corner's count lies between theirs, and since |error|
    falls and then rises with the count, the worse of the two is the
    box's worst.  All 32 corners are evaluated over the Q cells of a k
    where either extreme corner fails, where their |errors| tie at
    different counts, or where rounding could break the argument (see
    ``_extremes_settle``).
    """
    check_f0_v0(f0, v0)
    ks = check_k(list(k_values))
    qs = expand_range(q_range)
    corners = _corner_signs(exhaustive)
    check_grid_size(ks.size * qs.size, f"the {ks.size} k x {qs.size} Q grid")
    check_grid_size(len(corners) * qs.size, f"the {len(corners)} corner x {qs.size} Q grid")
    if exhaustive:
        worst = _box_worst(ks, qs, ni, f0, v0, convention)
    else:
        crossings = _crossings(qs, ni, f0, v0, corners)
        worst = [_worst_corner(crossings(k, convention)) for k in ks]
    return error_table(ks, qs, *(np.stack(column) for column in zip(*worst)))


def _box_worst(ks, qs, ni, f0, v0, convention):
    """``_worst_corner`` over the whole sign box, for each k: the extreme
    corners' answer where they settle it, the box's over the rest."""
    env, divider, comparator = _corner_model(qs, ni, f0, v0, _EXTREME_CORNERS)
    # the largest term of any corner's held maxima
    top = env.v0 * env.gain + np.abs(env.drop[0]) + ni.opamp_offset
    for k in ks:
        c = first_crossing(env, k, convention, False, divider, comparator)
        n, q, error, settled = _extremes_settle(env, c, k, top, ni)
        valid = settled.copy()
        if not settled.all():
            cells = ~settled
            box = _crossings(qs[cells], ni, f0, v0, _corner_signs(True))(k, convention)
            n[cells], q[cells], error[cells], valid[cells] = _worst_corner(box)
        yield n, q, error, valid


def _extremes_settle(env, c, k, top, ni):
    """(n, q, error) of the worse of the count-maximising and the
    count-minimising corner, rows 0 and 1 of the crossing ``c`` over
    ``env``, and where that is the answer of the whole sign box.

    It is where both complete and either their counts agree or one
    |error| is the larger and the count next to it, toward the other
    corner's, has a different error (counts that far apart round to one
    Q), and where rounding cannot reorder any corner against them: the
    count-maximising corner's crossing maximum is below its threshold,
    and the count-minimising corner's maximum before its crossing (if
    any) above it, by more than ``_ROUNDING`` times the largest term.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        up, down = np.abs(c.error)
        down_wins = down > up
        n, q, error = (np.where(down_wins, a[1], a[0]) for a in (c.n, c.q, c.error))
        toward = np.maximum(np.where(down_wins, n + 1, n - 1), 1)
        next_error = (q_from_count(toward, k) - env.q) / env.q
        m_up, m_down = c.m
        gap = env.captured(np.stack((m_up, np.maximum(m_down - 1, 0)))) - c.threshold
        # a corner's threshold is at most its V0 over k (1 - |divider error|)
        slack = _ROUNDING * (top * (1.0 + 1.0 / (k * (1.0 - ni.divider_error))) + ni.comparator_offset)
        settled = (
            c.valid.all(axis=0)
            & ((c.n[0] == c.n[1]) | ((up != down) & (next_error != error)))
            & (gap[0] < -slack)
            & ((m_down == 1) | (gap[1] > slack))
        )
    return n, q, error, settled


def _worst_corner(c):
    """(n, q, error, valid) of the corner (axis 0) with the largest
    |error| among those that complete; the first such corner on ties."""
    valid = c.valid
    pick = np.argmax(np.where(valid, np.abs(c.error), -1.0), axis=0)[None]
    n, q, error = (np.take_along_axis(a, pick, axis=0)[0] for a in (c.n, c.q, c.error))
    return n, q, error, valid.any(axis=0)


def _worst_error(c, axis=None):
    """Largest |error| over the cells (along ``axis``), inf where any
    of them fails."""
    return np.max(np.where(c.valid, np.abs(c.error), math.inf), axis=axis)


def optimal_k(
    q_range,
    ni: CircuitNonIdealities,
    k_grid,
    f0: float,
    v0: float = 1.0,
    convention: Convention = Convention.LAST_ABOVE,
) -> float:
    """Grid k minimizing the largest worst-case |error| over the Q range.

    Ties break toward smaller k, which also means a shorter measurement.
    The Q sampling step must resolve the count-quantization ripple
    (period roughly pi/ln k in Q) or the sampled maxima misrank nearby k.

    Every k's metric is first bounded from below on every ``_STRIDE``-th
    Q of the first block, a chunk of k per kernel call of at most
    2 x ``_Q_BLOCK`` cells: a maximum over some of the cells never
    exceeds the maximum over all of them, and a failing cell among them
    makes both inf.  The k then go in order of (bound, k), each scored
    block by block until it can no longer beat the best k so far, and
    the search stops at the first k whose bound cannot beat it: no later
    k can.  So the pick is the one scoring every cell makes.
    """
    check_f0_v0(f0, v0)
    ks = check_k(list(k_grid))
    qs = expand_range(q_range)
    check_grid_size(len(_ALIGNED_CORNERS) * qs.size, f"the 2 corner x {qs.size} Q grid")
    blocks = [
        _crossings(qs[start:start + _Q_BLOCK], ni, f0, v0, _ALIGNED_CORNERS)
        for start in range(0, qs.size, _Q_BLOCK)
    ]
    sample = qs[:_Q_BLOCK:_STRIDE]
    sampled = _crossings(sample, ni, f0, v0, _ALIGNED_CORNERS)
    # k along axis 0, in chunks of at most 2 x _Q_BLOCK (k x corner x Q) cells
    column, chunk = ks[:, None, None], _Q_BLOCK // sample.size
    bounds = np.concatenate([
        _worst_error(sampled(column[start:start + chunk], convention), axis=(1, 2))
        for start in range(0, ks.size, chunk)
    ])
    # (largest |error| so far, k): the smaller pair wins, so a tie goes to
    # the smaller k and a k with a failing cell (inf) never wins
    best = (math.inf, -math.inf)
    for metric, k in sorted(zip(bounds.tolist(), ks.tolist())):
        if not (metric, k) < best:
            break  # nor can any later k's bound
        for crossings in blocks:
            metric = max(metric, _worst_error(crossings(k, convention)))
            if not (metric, k) < best:
                break
        best = min(best, (metric, k))
    if best[1] == -math.inf:
        raise SimulationError(
            "no k on the grid completes the measurement over the requested Q range"
        )
    return best[1]


def frequency_sweep(
    q_true: float,
    k: float,
    f0_values,
    ni: CircuitNonIdealities,
    v0: float = 1.0,
    convention: Convention = Convention.LAST_ABOVE,
    samples_per_period: int = 40,
    seed: int = 0,
) -> SweepTable:
    """Signed measurement error versus resonant frequency, one
    time-domain run per point with the configured sign alignment.

    Points where the run cannot complete are recorded with NA markers;
    a point whose counter has not stopped within the simulator's sample
    budget (SampleBudgetError) aborts the sweep instead.
    """
    f0_values = [float(f) for f in f0_values]
    if not f0_values:
        raise ValueError("f0_values must be non-empty")
    if any(f <= 0 for f in f0_values):
        raise ValueError("f0 values must be positive")
    if any(b <= a for a, b in zip(f0_values, f0_values[1:])):
        raise ValueError("f0 values must be strictly ascending")
    if ni.worst_case_sign is SignAlignment.INDEPENDENT:
        raise ValueError("frequency_sweep wants aligned worst-case signs (PLUS or MINUS)")
    config = MeasurementConfig(k=k, convention=convention)
    table = SweepTable(columns=("f0", "n", "q_measured", "rel_error"))
    for f0 in f0_values:
        params = ResonatorParams(f0=f0, q=q_true, v0=v0)
        try:
            result, _ = simulate_measurement(
                params, config, ni, samples_per_period=samples_per_period, seed=seed
            )
        except SampleBudgetError:
            raise
        except SimulationError:
            table.append(f0, None, None, None)
            continue
        table.append(f0, result.n, result.q_measured, result.relative_error)
    return table


@dataclass(frozen=True)
class MonteCarloSummary:
    trials: int
    failures: int
    mean_error: float
    std_error: float
    min_error: float
    max_error: float
    hist_counts: tuple
    hist_edges: tuple


def monte_carlo(
    params: ResonatorParams,
    config: MeasurementConfig,
    ni_distributions: CircuitNonIdealities,
    trials: int,
    seed: int = 0,
) -> MonteCarloSummary:
    """Closed-form measurement error under independent random draws of
    every error source.

    Each magnitude in ``ni_distributions`` is the half-width of a uniform
    distribution centered on zero (tolerances are bounds, not variances).
    Bandwidth and failure knee stay fixed.  Trials whose measurement
    cannot complete are counted as failures and excluded from the
    statistics.  Deterministic for a given seed.

    The opamp-offset, leak and diode errors are drawn signed, which
    ``CircuitNonIdealities``, and so ``simulate_measurement``, refuses:
    those are magnitudes there, and only the divider and comparator
    errors take a sign, through ``worst_case_sign``.  So most draws here
    have no sampled counterpart.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1 (got {trials})")
    rng = np.random.default_rng(seed)
    errors = []
    # blocks draw the same stream as one (trials, 5) draw would
    for start in range(0, trials, _MC_BLOCK):
        size = (min(_MC_BLOCK, trials - start), 5)
        draws = rng.uniform(-1.0, 1.0, size=size)
        crossings = _crossings(params.q, ni_distributions, params.f0, params.v0, draws)
        c = crossings(config.k, config.convention, config.shortcut)
        errors.append(c.error[c.valid])
    errors = np.concatenate(errors)
    failures = trials - errors.size
    if not errors.size:
        raise SimulationError("every trial failed to complete a measurement")
    counts, edges = np.histogram(errors, bins=20)
    return MonteCarloSummary(
        trials=trials,
        failures=failures,
        mean_error=float(np.mean(errors)),
        std_error=float(np.std(errors)),
        min_error=float(np.min(errors)),
        max_error=float(np.max(errors)),
        hist_counts=tuple(int(c) for c in counts),
        hist_edges=tuple(float(e) for e in edges),
    )
