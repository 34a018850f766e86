"""Benchmark of the qfm toolkit.

    python3 perfbench/run.py --workload design --seed 0 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src``.
Workloads (see ``workloads.py`` for what each one stresses):

* ``design``      five closed-form error-budget studies per pass;
* ``timedomain``  ``simulate_measurement`` on drawn configurations and a
                  37-point ``frequency_sweep`` per pass;
* ``records``     ``qfm synth`` to a CSV file, then ``qfm measure`` of it.

A run first times the cold start in fresh interpreters, then repeats
passes of the workload for ``--seconds`` (at least one pass) and checks
every output.  With ``--trace 0`` it reports the end-to-end metrics:

* ``setup_s``      fresh interpreter to ``import qfm`` and inputs built;
* ``peak_rss_mb``  peak resident memory of the workload process;
* ``pass_ms``      one pass over the workload's operations;
* ``op_ms_p50``, ``op_ms_p90``  one operation (a design study, one
  simulation or frequency sweep, one record written and read);
* ``items_per_s``  work per second of operation time: grid cells or
  trials (design), simulated pseudo-periods (timedomain), record
  samples written and read (records).

Timings are medians (or p90) over the passes or operations of the run;
every time is scaled to a reference machine speed (see ``speed.py``);
the raw times follow the machine facts on lines starting with ``#``.

With ``--trace 1`` it runs each pass untraced and traced on the same
inputs, reports the per-layer metrics from the traced passes, the
tracing overhead against the untraced ones, and writes the spans to
``perfbench/out/``.  Per-layer times are medians per call in ms; counts
are totals over pass 0, so they repeat exactly for a seed; a layer the
workload never calls reads 0.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it repeat
the metrics with their units, the failed ratio and the machine facts.
The exit code is 2, with no result printed, when the package cannot be
imported or a cold-start probe fails.
"""

from __future__ import annotations

import os

# one BLAS thread, so np.polyfit starts no thread beyond the process;
# set before anything imports numpy
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import speed
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 7
KERNEL_EVERY_S = 0.05
PROBE_TIMEOUT_S = 30

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_ms": "ms",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "items_per_s": "1/s",
}

PER_LAYER = {
    "setup.python_ms": "ms",
    "setup.numpy_ms": "ms",
    "setup.qfm_import_ms": "ms",
    "setup.inputs_ms": "ms",
    "cli.self_ms": "ms",
    "counting.theoretical_error_sweep.ms": "ms",
    "counting.cells": "count",
    "analysis.worst_case_sweep.ms": "ms",
    "analysis.corner_evals": "count",
    "analysis.na_cells": "count",
    "analysis.optimal_k.ms": "ms",
    "analysis.monte_carlo.ms": "ms",
    "analysis.mc_failures": "count",
    "analysis.frequency_sweep.ms": "ms",
    "analysis.frequency_na": "count",
    "circuit.simulate_measurement.ms": "ms",
    "circuit.cycles": "count",
    "circuit.sim_failures": "count",
    "circuit.predicted_measurement.ms": "ms",
    "circuit.n_mismatch": "count",
    "resonator.synth_waveform.ms": "ms",
    "resonator.samples": "count",
    "waveform_io.waveform_to_csv.ms": "ms",
    "waveform_io.bytes_written": "B",
    "waveform_io.load_waveform.ms": "ms",
    "waveform_io.bytes_read": "B",
    "waveform_io.extract_peaks.ms": "ms",
    "waveform_io.peaks": "count",
    "waveform_io.measure_q_counting.ms": "ms",
    "waveform_io.fit_q_log_decrement.ms": "ms",
    "tables.to_csv.ms": "ms",
    "tables.rows": "count",
    "tables.bytes": "B",
    "charts.svg_line_chart.ms": "ms",
    "charts.points": "count",
    "trace.overhead_pct": "%",
}


class SetupError(RuntimeError):
    """A cold-start probe failed, so no result can be reported."""


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["design", "timedomain", "records"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import qfm, build the workload inputs and exit (the timed cold start)")
    return p.parse_args(argv)


def import_workloads():
    sys.path.insert(0, str(SRC))
    import workloads

    return workloads


def child_env():
    return dict(os.environ, PYTHONPATH=str(SRC))


def wall_s(cmd) -> float:
    """Wall time of a fresh interpreter running ``cmd`` to exit."""
    start = time.perf_counter()
    try:
        done = subprocess.run(
            cmd, env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, timeout=PROBE_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise SetupError(f"{cmd[1:]} did not finish in {PROBE_TIMEOUT_S} s") from None
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        raise SetupError(f"{cmd[1:]} exited {done.returncode}: {done.stderr.decode().strip()}")
    return elapsed


def cold_start(args) -> dict:
    """Median wall times of fresh interpreters: ``pass``, ``import numpy``,
    ``import qfm``, and the workload's whole set-up, interleaved so that
    drift on the machine affects each alike, and scaled to reference
    speed by kernel runs taken between them."""
    exe = sys.executable
    probes = {
        "setup.python_ms": [exe, "-c", "pass"],
        "setup.numpy_ms": [exe, "-c", "import numpy"],
        "setup.qfm_import_ms": [exe, "-c", "import qfm"],
        "setup_s": [exe, str(Path(__file__).resolve()), "--setup-only",
                    "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"],
    }
    times = {name: [] for name in probes}
    kernel = [speed.sample()]
    for _ in range(SETUP_REPEATS):
        for name, cmd in probes.items():
            times[name].append(wall_s(cmd))
            kernel.append(speed.sample())
    scale = speed.factor(kernel)
    out = {name: statistics.median(t) * 1e3 * scale for name, t in times.items()}
    out["setup_s"] /= 1e3
    out["speed_factor"] = scale
    return out


@dataclass
class Pass:
    """The operations of one pass and, for each, the factor that scales
    its raw time to reference speed."""

    ops: list
    scales: list

    @property
    def scale(self) -> float:
        return statistics.median(self.scales)


def run_pass(workload, i, tracer) -> Pass:
    """Run pass ``i``, sampling the speed kernel before it, after it and
    between operations at most every KERNEL_EVERY_S.  Each operation is
    scaled by the last kernel sample before it and the first after it."""
    kernel = [speed.sample()]
    last = time.perf_counter()
    ops, spans = [], []
    for operation in workload.operations(i, tracer):
        if time.perf_counter() - last >= KERNEL_EVERY_S:
            kernel.append(speed.sample())
            last = time.perf_counter()
        ops.append(operation())
        spans.append(len(kernel) - 1)
    kernel.append(speed.sample())
    return Pass(ops, [speed.factor(kernel[a : a + 2]) for a in spans])


def machine_facts(args) -> str:
    model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return (
        f"# machine cpus={os.cpu_count()} cpu_model={model!r} "
        f"python={sys.executable} ({platform.python_version()}) numpy={np.__version__} "
        f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']} "
        f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}"
    )


def end_to_end(passes, setup, scaled=True) -> dict:
    """End-to-end metrics of the untraced passes, at reference speed
    unless ``scaled`` is false."""
    def ms(op, scale):
        return op.ms * (scale if scaled else 1.0)

    ok = [(op, f) for p in passes for op, f in zip(p.ops, p.scales) if op.error is None]
    full = [
        sum(ms(op, f) for op, f in zip(p.ops, p.scales))
        for p in passes if all(op.error is None for op in p.ops)
    ]
    timed = np.array([ms(op, f) for op, f in ok])
    rated = [(op, f) for op, f in ok if op.items is not None]
    return {
        "setup_s": setup["setup_s"] if scaled else setup["setup_s"] / setup["speed_factor"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_ms": statistics.median(full) if full else float("nan"),
        "op_ms_p50": float(np.percentile(timed, 50)) if ok else float("nan"),
        "op_ms_p90": float(np.percentile(timed, 90)) if ok else float("nan"),
        "items_per_s": (
            sum(op.items for op, _ in rated) / (sum(ms(op, f) for op, f in rated) / 1e3)
            if rated else float("nan")
        ),
    }


def per_layer(tracer, untraced, traced, setup, inputs_ms) -> dict:
    """Per-layer metrics from the traced passes; span times are scaled by
    the median factor of those passes."""
    scale = statistics.median(p.scale for p in traced)
    out = {}
    for name, unit in PER_LAYER.items():
        if name.endswith(".ms"):
            out[name] = tracer.median_ms(name[: -len(".ms")]) * scale
        elif unit == "count" or unit == "B":
            out[name] = tracer.pass_count(0, name)
    out["cli.self_ms"] = tracer.self_ms("cli.main") * scale
    base = paired = 0.0
    for plain, spanned in zip(untraced, traced):
        for a, fa, b, fb in zip(plain.ops, plain.scales, spanned.ops, spanned.scales):
            if a.error is None and b.error is None:
                base += a.ms * fa
                paired += b.ms * fb
    out["trace.overhead_pct"] = 100.0 * (paired / base - 1.0) if base else float("nan")
    for name in ("setup.python_ms", "setup.numpy_ms", "setup.qfm_import_ms"):
        out[name] = setup[name]
    out["setup.inputs_ms"] = inputs_ms * setup["speed_factor"]
    return {name: out[name] for name in PER_LAYER}


def run(args) -> int:
    setup = cold_start(args)
    workloads = import_workloads()
    cls = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        builds = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload = cls(args.seed, workdir)
            builds.append((time.perf_counter() - start) * 1e3)
        inputs_ms = statistics.median(builds)

        plain, spanned = Tracer(False), Tracer(True)
        untraced, traced = [], []
        deadline = time.perf_counter() + args.seconds
        i = 0
        while i == 0 or time.perf_counter() < deadline:
            if args.trace and i % 2:
                # alternate which side runs first, so warm-up and drift
                # do not bias the overhead
                traced.append(run_pass(workload, i, spanned))
                untraced.append(run_pass(workload, i, plain))
            else:
                untraced.append(run_pass(workload, i, plain))
                if args.trace:
                    traced.append(run_pass(workload, i, spanned))
            i += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = [op for p in untraced + traced for op in p.ops]
    failures = [op for op in ops if op.error is not None]
    e2e = end_to_end(untraced, setup)
    if args.trace:
        metrics = per_layer(spanned, untraced, traced, setup, inputs_ms)
        units = PER_LAYER
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        spanned.dump(spans_path)
    else:
        metrics, units = e2e, END_TO_END

    print(machine_facts(args))
    print(
        f"# passes={len(untraced)} traced_passes={len(traced)} operations={len(ops)} "
        f"failed={len(failures)} failed_ratio={len(failures) / len(ops):.6g}"
    )
    for op in failures[:10]:
        print(f"# failed {op.kind}: {op.error}")
    scales = [p.scale for p in untraced]
    print(
        f"# speed factor: set-up {setup['speed_factor']:.4g}, passes median {statistics.median(scales):.4g} "
        f"min {min(scales):.4g} max {max(scales):.4g}"
    )
    for name, value in end_to_end(untraced, setup, scaled=False).items():
        print(f"# raw {name} {value:.6g} {END_TO_END[name]}")
    if args.trace:
        print(f"# spans={len(spanned.spans)} written to {spans_path.relative_to(ROOT)}")
        for name, value in e2e.items():
            print(f"# untraced {name} {value:.6g} {END_TO_END[name]}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.setup_only:
            import_workloads().WORKLOADS[args.workload](args.seed, OUT)
            return 0
        return run(args)
    except (SetupError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
