"""The three benchmark workloads: ``design``, ``timedomain`` and ``records``.

Each workload is a closed loop with one caller.  Its inputs come from
the workload seed and are grouped in passes: pass ``i`` always receives
the same inputs for a given seed, so a count read from one pass repeats
exactly.  ``operations(i, tracer)`` lists pass ``i``'s operations as
callables; each times its operation, checks the output outside the
timed region and returns an ``Op``.

Operations go through the public API and the in-process CLI entry point
``qfm.cli.main``.  With an enabled tracer, a pass also records a span
around each public call it makes into a qfm module; where an operation
is a CLI call, the library calls that command makes are re-timed after
it on identical inputs, as child spans of the ``cli.main`` span.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from qfm import (
    CircuitNonIdealities,
    Convention,
    MeasurementConfig,
    ResonatorParams,
    SignAlignment,
    SimulationError,
    count_pseudo_periods,
    derive_dynamics,
    extract_peaks,
    fit_q_log_decrement,
    frequency_sweep,
    load_waveform,
    measure_q_counting,
    monte_carlo,
    optimal_k,
    pessimistic_nonidealities,
    predicted_measurement,
    q_from_count,
    simulate_measurement,
    svg_line_chart,
    synth_waveform,
    theoretical_error_sweep,
    waveform_to_csv,
    worst_case_sweep,
)
from qfm.cli import main as cli_main

LAST = Convention.LAST_ABOVE
FIRST = Convention.FIRST_AT_OR_BELOW
REFERENCE = ResonatorParams(f0=50e3, q=300.0, v0=1.0)
# criterion 05's pair of threshold-side errors
PAIR = CircuitNonIdealities(comparator_offset=10e-3, divider_error=0.01)


@dataclass
class Op:
    """One timed operation: its kind, wall time, the work items it
    processed (None when it counts towards no throughput) and the
    reason it failed, if it did."""

    kind: str
    ms: float
    items: int | None = None
    error: str | None = None


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, (time.perf_counter() - start) * 1e3


def _run_cli(argv):
    """``qfm.cli.main(argv)`` with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue()


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _key_values(line: str) -> dict:
    return dict(part.split("=", 1) for part in line.split() if "=" in part)


class CheckFailed(Exception):
    """An operation's output failed its correctness check."""


def _check(condition, message):
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# design


# Outputs of studies 1-3 do not depend on the seed; these are their
# SHA-256 digests at the commit that introduced the benchmark.
DESIGN_DIGESTS = {
    "theoretical.csv": "2eb0faaaf26cf6d9e4717344be4174a30d273376aedf022c67e11f9082edc232",
    "theoretical.svg": "b806f59b3953262243a3d05c717ef88eb98959e327fe177f4adf27781157de07",
    "worstcase.csv": "ac0729059e1e02fe24e0347fd8b39f18c8c094ae35e230a13f27c10d9e32b214",
    "worstcase.svg": "df5cdd6a8f458f3fafae9d5cdb293b0229eb0b41b5d812efbf4b821dac437be8",
    "exhaustive.csv": "2c02197b3fa4afd405e709c139f836b98a9f7a04f1aba9ac547db96ff11182fb",
}
DESIGN_K_STAR = 4.25


class Design:
    """The error-budget study a designer runs before choosing k: five
    studies per pass, each one operation, all in the closed form."""

    name = "design"

    # the CLI's default grids
    THEORETICAL_K = np.array([2.0, 4.0, 6.0, 8.0, 16.0])
    THEORETICAL_Q = (10.0, 1000.0, 1.0)
    WORSTCASE_K = np.arange(4.0, 8.01, 0.25)
    WORSTCASE_Q = (100.0, 1000.0, 1.0)
    # criterion 05's optimal-k grid
    OPTIMAL_Q = (100.0, 1000.0, 0.05)
    OPTIMAL_K = np.arange(2.0, 20.01, 0.25)
    MC_TRIALS = 10_000

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.out = {name: workdir / name for name in DESIGN_DIGESTS}
        self.retimed = workdir / "retimed.csv"
        self.argv_theoretical = [
            "sweep", "theoretical",
            "--out", str(self.out["theoretical.csv"]),
            "--svg", str(self.out["theoretical.svg"]),
        ]
        self.argv_worstcase = [
            "sweep", "worstcase", "--dk", "1%", "--offset", "10mV",
            "--out", str(self.out["worstcase.csv"]),
            "--svg", str(self.out["worstcase.svg"]),
        ]
        # what the CLI builds from those flags
        self.worstcase_ni = CircuitNonIdealities(comparator_offset=10e-3, divider_error=0.01)
        self.exhaustive_ni = pessimistic_nonidealities()
        self.n_theoretical = len(self.THEORETICAL_K) * _grid_size(self.THEORETICAL_Q)
        self.n_worstcase = len(self.WORSTCASE_K) * _grid_size(self.WORSTCASE_Q)
        self.n_optimal = len(self.OPTIMAL_K) * _grid_size(self.OPTIMAL_Q)
        self.mc_reference = None

    def operations(self, i: int, tr) -> list:
        return [
            partial(_guard, kind, f"{i}:{kind}", study, i, tr)
            for kind, study in (
                ("theoretical_sweep", self._theoretical),
                ("worstcase_sweep", self._worstcase),
                ("exhaustive_sweep", self._exhaustive),
                ("optimal_k", self._optimal_k),
                ("monte_carlo", self._monte_carlo),
            )
        ]

    def _sweep_cli(self, op, i, tr, argv, rows, layer_call, sweep, *args, **kwargs):
        """Time one ``qfm sweep`` call; when tracing, re-time the sweep, the
        CSV and the chart it made and return the re-timed table."""
        table = None
        (code, out, err), ms = _timed(tr.call, "cli.main", _run_cli, argv, op=op)
        cli_span = tr.last_id()
        _check(code == 0, f"exit code {code}: {err.strip()}")
        _check(_key_values(out).get("rows") == str(rows), f"unexpected output {out!r}")
        if tr.enabled:
            table = tr.call(layer_call, sweep, *args, op=op, parent=cli_span, **kwargs)
            self._count_table(i, tr, op, table, cli_span)
            tr.call("charts.svg_line_chart", svg_line_chart, table, x="q_true",
                    series="k", title=f"{argv[1]} sweep", op=op, parent=cli_span)
            tr.count(i, "charts.points", _plotted(table))
        return ms, table

    def _count_table(self, i, tr, op, table, parent):
        tr.call("tables.to_csv", table.to_csv, self.retimed, op=op, parent=parent)
        self._count_rows(i, tr, table, self.retimed)

    @staticmethod
    def _count_rows(i, tr, table, path):
        tr.count(i, "tables.rows", len(table))
        tr.count(i, "tables.bytes", path.stat().st_size)

    def _theoretical(self, op, i, tr):
        ms, _ = self._sweep_cli(
            op, i, tr, self.argv_theoretical, self.n_theoretical,
            "counting.theoretical_error_sweep", theoretical_error_sweep, self.THEORETICAL_K, self.THEORETICAL_Q, LAST,
        )
        tr.count(i, "counting.cells", self.n_theoretical)
        self._check_digests(("theoretical.csv", "theoretical.svg"))
        if i == 0:
            _check_quantization_sawtooth(self.out["theoretical.csv"])
        return ms, self.n_theoretical

    def _worstcase(self, op, i, tr):
        ms, table = self._sweep_cli(
            op, i, tr, self.argv_worstcase, self.n_worstcase,
            "analysis.worst_case_sweep", worst_case_sweep, self.WORSTCASE_K, self.WORSTCASE_Q, self.worstcase_ni, f0=50e3,
        )
        _count_corners(i, tr, table, corners=2)
        self._check_digests(("worstcase.csv", "worstcase.svg"))
        if i == 0:
            _check_envelope(self.out["worstcase.csv"])
        return ms, self.n_worstcase

    def _exhaustive(self, op, i, tr):
        def study():
            table = tr.call(
                "analysis.worst_case_sweep", worst_case_sweep,
                self.WORSTCASE_K, self.WORSTCASE_Q, self.exhaustive_ni,
                f0=50e3, exhaustive=True, op=op,
            )
            tr.call("tables.to_csv", table.to_csv, self.out["exhaustive.csv"], op=op)
            return table

        table, ms = _timed(study)
        if tr.enabled:
            self._count_rows(i, tr, table, self.out["exhaustive.csv"])
            _count_corners(i, tr, table, corners=32)
        self._check_digests(("exhaustive.csv",))
        if i == 0:
            _check_envelope(self.out["exhaustive.csv"])
        return ms, self.n_worstcase

    def _optimal_k(self, op, i, tr):
        k_star, ms = _timed(
            tr.call, "analysis.optimal_k", optimal_k,
            self.OPTIMAL_Q, PAIR, self.OPTIMAL_K, f0=50e3, op=op,
        )
        _check(4.0 <= k_star <= 8.0, f"k* = {k_star} outside [4, 8]")
        _check(k_star == DESIGN_K_STAR, f"k* = {k_star}, expected {DESIGN_K_STAR}")
        return ms, self.n_optimal

    def _monte_carlo(self, op, i, tr):
        summary, ms = _timed(
            tr.call, "analysis.monte_carlo", monte_carlo,
            REFERENCE, MeasurementConfig(6.0, LAST), PAIR, self.MC_TRIALS,
            seed=self.seed, op=op,
        )
        tr.count(i, "analysis.mc_failures", summary.failures)
        _check(summary.trials == self.MC_TRIALS, f"trials = {summary.trials}")
        _check(summary.failures == 0, f"{summary.failures} failed trials")
        _check(sum(summary.hist_counts) == self.MC_TRIALS, "histogram does not sum to the trials")
        worst = max(abs(summary.min_error), abs(summary.max_error))
        _check(worst < 0.10, f"Monte Carlo error {worst:.4g} beyond the 10 % envelope")
        if self.mc_reference is None:
            self.mc_reference = summary
        _check(summary == self.mc_reference, "seeded Monte Carlo summary changed between passes")
        return ms, self.MC_TRIALS

    def _check_digests(self, names):
        for name in names:
            digest = _sha256(self.out[name])
            _check(digest == DESIGN_DIGESTS[name], f"{name} digest {digest[:16]} differs")


def _count_corners(i, tr, table, corners):
    if tr.enabled:
        tr.count(i, "analysis.corner_evals", len(table) * corners)
        tr.count(i, "analysis.na_cells", int(np.isnan(table.column("rel_error")).sum()))


def _grid_size(q_range) -> int:
    lo, hi, step = q_range
    return len(np.arange(lo, hi + step / 2.0, step))


def _plotted(table) -> int:
    xi, yi = table.columns.index("q_true"), table.columns.index("rel_error")
    return sum(1 for row in table.rows if row[xi] is not None and row[yi] is not None)


def _load_table(path) -> np.ndarray:
    """Numeric body of a sweep CSV that must have no NA cell."""
    text = Path(path).read_text(encoding="utf-8")
    _check("NA" not in text, f"{Path(path).name} has NA cells")
    return np.array([[float(cell) for cell in line.split(",")] for line in text.splitlines()[1:]])


def _check_quantization_sawtooth(path):
    """Criterion 03's invariants: per k, n steps by 0 or 1 along Q, the
    error rises at each count step and falls in between."""
    data = _load_table(path)
    for k in np.unique(data[:, 0]):
        block = data[data[:, 0] == k]
        dn, derr = np.diff(block[:, 2]), np.diff(block[:, 4])
        _check(set(np.unique(dn)) <= {0.0, 1.0}, f"k={k}: count steps other than 0/1")
        _check(np.all(derr[dn == 1.0] > 0), f"k={k}: error does not rise at a count step")
        _check(np.all(derr[dn == 0.0] < 0), f"k={k}: error does not fall between steps")


def _check_envelope(path):
    """Criterion 05's invariants: no NA cell and |error| < 10 %."""
    err = _load_table(path)[:, 4]
    _check(np.max(np.abs(err)) < 0.10, f"worst case {np.max(np.abs(err)):.4g} >= 10 %")


def _guard(kind, op, fn, *args):
    """Run ``fn(op, *args)``, which returns (ms, items); an unexpected
    exception or a failed check marks the operation failed instead of
    ending the run, and a failed operation has no time."""
    try:
        ms, items = fn(op, *args)
    except CheckFailed as exc:
        return Op(kind, math.nan, error=str(exc))
    except Exception as exc:  # a benchmark must survive a broken operation
        return Op(kind, math.nan, error=f"{type(exc).__name__}: {exc}")
    return Op(kind, ms, items)


# ---------------------------------------------------------------------------
# timedomain


FREQ_GRID = np.logspace(3.0, math.log10(4e6), 37)  # the CLI's 1kHz:4MHz:log


class TimeDomain:
    """Independent time-domain runs of the counting architecture, drawn
    as in criterion 06 with Q widened to log-uniform over 50-20,000,
    plus one 37-point frequency sweep per pass."""

    name = "timedomain"
    BATCH = 40
    # The corner of the draws with the longest record (Q, k, spp and
    # noise at their maxima) opens every pass, so each run reaches the
    # same largest sample buffer whatever the seed draws.
    CORNER = (
        ResonatorParams(f0=1e6, q=20_000.0, v0=1.0),
        MeasurementConfig(10.0, FIRST),
        CircuitNonIdealities(noise_rms=1e-4),
        59,
        0,
    )

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.sweep_ni = pessimistic_nonidealities()
        self.first_batch = self.draw(0)

    def draw(self, i: int) -> list:
        """Pass ``i``'s batch.  Q, k and samples per period set a run's
        cost, so each batch takes one value of each from each of BATCH
        equal bins of its range (log Q, k, spp): the draws keep their
        distribution, and batches vary less."""
        rng = np.random.default_rng([self.seed, i])

        def strata():
            return (rng.permutation(self.BATCH) + rng.uniform(size=self.BATCH)) / self.BATCH

        lo, hi = math.log(50.0), math.log(20_000.0)
        qs = np.exp(lo + (hi - lo) * strata())
        ks = 2.0 + 8.0 * strata()
        spps = 20 + rng.permutation(self.BATCH)  # each of 20..59 once
        return [_draw_config(rng, float(q), float(k), int(spp)) for q, k, spp in zip(qs, ks, spps)]

    def operations(self, i: int, tr) -> list:
        batch = [self.CORNER] + (self.first_batch if i == 0 else self.draw(i))
        ops = [partial(_guard, "simulate", f"{i}:sim{j}", self._simulate, i, tr, *cfg)
               for j, cfg in enumerate(batch)]
        ops.append(partial(_guard, "frequency_sweep", f"{i}:sweep", self._sweep, i, tr))
        return ops

    def _simulate(self, op, i, tr, params, config, ni, spp, seed):
        try:
            (result, trace), ms = _timed(
                tr.call, "circuit.simulate_measurement", simulate_measurement,
                params, config, ni, samples_per_period=spp, seed=seed, op=op,
            )
        except SimulationError:
            tr.count(i, "circuit.sim_failures", 1)
            raise
        sim_span = tr.last_id()
        cycles = len(trace.rows)
        tr.count(i, "circuit.cycles", cycles)
        predicted = tr.call(
            "circuit.predicted_measurement", predicted_measurement, params, config, ni, op=op
        )
        off = abs(result.n - predicted.n)
        tr.count(i, "circuit.n_mismatch", int(off > 1))
        if tr.enabled:
            # the ring-down the simulator synthesizes: rate spp * f0 over
            # the closed-form crossing index + 10 pseudo-periods
            m_star = predicted.n + (1 if config.convention is LAST else 0)
            wave = tr.call(
                "resonator.synth_waveform", synth_waveform, params, spp * params.f0,
                (m_star + 10) * derive_dynamics(params).pseudo_period,
                noise_rms=ni.noise_rms, seed=seed, op=op, parent=sim_span,
            )
            tr.count(i, "resonator.samples", len(wave))
        tolerance = _count_tolerance(params, config, ni, spp, predicted.threshold_used)
        _check(off <= tolerance, f"n_sim={result.n} n_predicted={predicted.n}: off by {off} > {tolerance}")
        return ms, cycles

    def _sweep(self, op, i, tr):
        table, ms = _timed(
            tr.call, "analysis.frequency_sweep", frequency_sweep,
            300.0, 6.0, FREQ_GRID, self.sweep_ni, samples_per_period=50, seed=self.seed, op=op,
        )
        err = np.abs(table.column("rel_error"))
        tr.count(i, "analysis.frequency_na", int(np.isnan(err).sum()))
        _check_frequency_regimes(table.column("f0"), err)
        return ms, None


def _draw_config(rng, q, k, spp):
    """Criterion 06's distribution at quality factor ``q``, division
    factor ``k`` and ``spp`` samples per period."""
    params = ResonatorParams(
        f0=float(np.exp(rng.uniform(np.log(1e3), np.log(1e6)))),
        q=q,
        v0=float(rng.uniform(0.5, 2.0)),
    )
    config = MeasurementConfig(k, LAST if rng.integers(2) else FIRST)
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
    return params, config, ni, spp, int(rng.integers(2**31))


def _count_tolerance(params, config, ni, spp, threshold) -> int:
    """Counts by which the time-domain run may differ from the closed form.

    Criterion 06's +/-1 holds while the captured envelope falls by more
    per pseudo-period, at the threshold, than the two paths' models of
    the held maxima differ.  They differ in three ways: the simulator
    holds cycle 0 for three quarters of a period (release at a maximum
    to the first rising edge), not one, which raises its threshold by
    that droop / k; every later hold is a whole number of samples, which
    moves the droop by up to one sample's worth; and input noise moves
    each held maximum.  At high Q the per-period fall shrinks below
    these and the tolerance widens by the number of periods they span.
    """
    dyn = derive_dynamics(params)
    fall = (threshold + ni.leak_droop * dyn.pseudo_period - ni.opamp_offset) * (
        1.0 - math.exp(-dyn.alpha * dyn.pseudo_period)
    )
    spread = (
        ni.leak_droop * dyn.pseudo_period / (4.0 * config.k)
        + ni.leak_droop / (spp * params.f0)
        + 4.0 * ni.noise_rms
    )
    return 1 + math.floor(spread / fall)


def _check_frequency_regimes(f0, err):
    """Criterion 07's shape on the sweep grid."""
    _check(not np.any(np.isnan(err)), "NA point in the frequency sweep")
    _check(err[0] > err[np.argmin(np.abs(f0 - 1e4))], "no leakage-dominated low end")
    argmin_f0 = f0[err == err.min()]
    _check(np.any((argmin_f0 >= 2e3) & (argmin_f0 <= 5e4)), "minimum error outside [2 kHz, 50 kHz]")
    _check(np.all(np.diff(err[f0 >= 1e6]) >= 0), "error decreases above 1 MHz")
    _check(np.max(err[(f0 >= 2e3) & (f0 <= 1e6)]) <= 0.05, "error above 5 % within [2 kHz, 1 MHz]")


# ---------------------------------------------------------------------------
# records


class Records:
    """Record a ring-down to CSV with ``qfm synth`` and measure Q from the
    file with ``qfm measure``; one record is one write plus one read.
    Records cycle through Q in {50, 300, 2000} x noise in {0, 1 mV} at
    50 kHz and 50 samples per period."""

    name = "records"
    F0 = 50e3
    RATE = 50 * F0
    QS = (50.0, 300.0, 2000.0)
    NOISES = (0.0, 1e-3)

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.path = workdir / "record.csv"
        self.retimed = workdir / "retimed.csv"
        self.specs = []
        for q in self.QS:
            params = ResonatorParams(f0=self.F0, q=q, v0=1.0)
            dyn = derive_dynamics(params)
            # criterion 09's length: the count to V0/6 plus 5 periods
            periods = count_pseudo_periods(params, MeasurementConfig(6.0, FIRST)) + 5
            # With noise, held maxima ride a few RMS above the envelope, so
            # a noisy record also gets the periods the envelope needs to fall
            # 6 RMS below the threshold; without them a high-Q record can
            # end above it, which `qfm measure` rightly reports (exit 5).
            fall = params.v0 / 6.0 * (1.0 - math.exp(-dyn.alpha * dyn.pseudo_period))
            for noise in self.NOISES:
                extra = math.ceil(6.0 * noise / fall)
                self.specs.append((params, (periods + extra) * dyn.pseudo_period, noise))

    def noise_seeds(self, i: int) -> list:
        rng = np.random.default_rng([self.seed, i])
        return [int(s) for s in rng.integers(0, 2**31, size=len(self.specs))]

    def operations(self, i: int, tr) -> list:
        return [
            partial(_guard, "record", f"{i}:record{j}", self._record, i, tr, params, duration, noise, seed)
            for j, ((params, duration, noise), seed) in enumerate(zip(self.specs, self.noise_seeds(i)))
        ]

    def _record(self, op, i, tr, params, duration, noise, seed):
        synth_argv = [
            "synth", "--f0", repr(params.f0), "--q", repr(params.q),
            "--rate", repr(self.RATE), "--duration", repr(duration),
            "--noise", repr(noise), "--seed", str(seed), "--out", str(self.path),
        ]
        (code, out, err), write_ms = _timed(tr.call, "cli.main", _run_cli, synth_argv, op=op)
        _check(code == 0, f"synth exit code {code}: {err.strip()}")
        if tr.enabled:
            self._retime_write(op, i, tr, params, duration, noise, seed)
        samples = int(_key_values(out)["samples"])
        (code, out, err), read_ms = _timed(tr.call, "cli.main", _run_cli, ["measure", str(self.path)], op=op)
        _check(code == 0, f"measure exit code {code}: {err.strip()}")
        if tr.enabled:
            self._retime_read(op, i, tr)
        _check_measure_output(out, params.q, noiseless=noise == 0.0)
        return write_ms + read_ms, samples

    def _retime_write(self, op, i, tr, params, duration, noise, seed):
        parent = tr.last_id()
        wave = tr.call(
            "resonator.synth_waveform", synth_waveform, params, self.RATE, duration,
            noise_rms=noise, seed=seed, op=op, parent=parent,
        )
        tr.count(i, "resonator.samples", len(wave))
        tr.call("waveform_io.waveform_to_csv", waveform_to_csv, wave, self.retimed, op=op, parent=parent)
        tr.count(i, "waveform_io.bytes_written", self.retimed.stat().st_size)

    def _retime_read(self, op, i, tr):
        parent = tr.last_id()
        wave = tr.call("waveform_io.load_waveform", load_waveform, self.path, op=op, parent=parent)
        tr.count(i, "waveform_io.bytes_read", self.path.stat().st_size)
        hysteresis = 0.01 * float(np.max(np.abs(wave.samples)))  # the CLI's auto setting
        peaks = tr.call(
            "waveform_io.extract_peaks", extract_peaks, wave, hysteresis=hysteresis, op=op, parent=parent
        )
        tr.count(i, "waveform_io.peaks", len(peaks))
        tr.call(
            "waveform_io.measure_q_counting", measure_q_counting, peaks,
            MeasurementConfig(6.0, LAST), op=op, parent=parent,
        )
        tr.call("waveform_io.fit_q_log_decrement", fit_q_log_decrement, peaks, op=op, parent=parent)


def _check_measure_output(out: str, q_true: float, noiseless: bool):
    """Keys n=, q= and method=fit are present; on a noiseless record,
    criterion 09's bounds hold."""
    lines = {line.split()[0]: _key_values(line) for line in out.splitlines() if line.strip()}
    counting = lines["method=counting"]
    n, q_count = int(counting["n"]), float(counting["q"])
    q_fit = float(lines["method=fit"]["q"])
    _check(n >= 1 and q_count > 0 and q_fit > 0, f"implausible measurement {out!r}")
    if noiseless:
        _check(abs(q_fit - q_true) <= 1e-3 * q_true, f"fitted Q {q_fit} vs true {q_true}")
        quantum = q_from_count(n + 1, 6.0) - q_from_count(n, 6.0)
        _check(abs(q_count - q_fit) <= quantum, f"counted Q {q_count} beyond a count quantum of {q_fit}")


WORKLOADS = {w.name: w for w in (Design, TimeDomain, Records)}
