"""Command-line surface: simulation runs, sweeps, waveform synthesis and
measurement of external records.

Results go to stdout as single-line ``key=value`` records; tables go to
files; a failure prints one ``error:`` line on stderr.  Exit codes: 0 ok,
2 usage, configuration or parse error, 3 simulation failure, 4 I/O error,
5 insufficient record.

Numeric flags and config-file values accept SI suffixes (``50kHz``,
``10mV``, ``1%``).  A ``key = value`` config file can be passed with
``--config`` or through the ``QFM_CONFIG`` environment variable; explicit
flags override file values.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .analysis import frequency_sweep, worst_case_sweep
from .charts import svg_line_chart
from .circuit import (
    CircuitNonIdealities,
    SignAlignment,
    SimulationError,
    pessimistic_nonidealities,
    simulate_measurement,
)
from .counting import (
    Convention,
    MeasurementConfig,
    check_grid_size,
    inclusive_range,
    theoretical_error_sweep,
)
from .resonator import ResonatorParams, synth_waveform
from .tables import format_number, write_text
from .waveform_io import (
    InsufficientRecordError,
    extract_peaks,
    fit_q_log_decrement,
    load_waveform,
    log_fit,
    measure_q_counting,
    measurement_record,
    waveform_to_csv,
)

__all__ = ["main", "entry", "RunConfig", "parse_value", "parse_axis"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SIM = 3
EXIT_IO = 4
EXIT_RECORD = 5

ENV_CONFIG = "QFM_CONFIG"

_SI_SUFFIXES = {
    "": 1.0,
    "%": 1e-2,
    "GHz": 1e9, "MHz": 1e6, "kHz": 1e3, "Hz": 1.0, "mHz": 1e-3,
    "kV": 1e3, "V": 1.0, "mV": 1e-3, "uV": 1e-6, "µV": 1e-6, "nV": 1e-9,
    "s": 1.0, "ms": 1e-3, "us": 1e-6, "µs": 1e-6, "ns": 1e-9,
}

_VALUE_RE = re.compile(r"^\s*([-+]?[0-9.][0-9.eE+-]*)\s*([A-Za-zµ%]*)\s*$")


def parse_value(text) -> float:
    """Finite float with optional SI unit suffix: '50kHz' -> 5e4, '10mV' -> 0.01."""
    if isinstance(text, (int, float)):
        value = float(text)
    else:
        m = _VALUE_RE.match(text)
        try:
            value = float(m[1]) * _SI_SUFFIXES[m[2]]
        except (TypeError, KeyError, ValueError):  # no match, unknown suffix, bad number
            raise ValueError(f"cannot parse numeric value {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"numeric value {text!r} is not finite")
    return value


def parse_axis(text) -> np.ndarray:
    """Sweep axis: 'lo:hi:step', 'lo:hi:log[N]', 'a,b,c' or scalar."""
    text = str(text).strip()
    if ":" in text:
        lo, hi, mode = _split_range(text, "range", log=True)
        if mode.startswith("log"):
            if lo <= 0 or hi <= lo:
                raise ValueError(f"log range needs 0 < lo < hi, got {text!r}")
            if mode == "log":
                points = int(round(np.log10(hi / lo) * 10)) + 1  # 10 per decade
                points = max(points, 2)
            else:
                points = int(mode[3:])
                if points < 2:
                    raise ValueError(f"log point count must be >= 2 in {text!r}")
                check_grid_size(points, f"range {text!r}")
            return np.logspace(np.log10(lo), np.log10(hi), points)
        step = parse_value(mode)
        if step <= 0 or hi < lo:
            raise ValueError(f"range needs lo <= hi and step > 0, got {text!r}")
        return inclusive_range(lo, hi, step)
    if "," in text:
        return np.array([parse_value(p) for p in text.split(",") if p.strip()])
    return np.array([parse_value(text)])


def _key(default, help_text: str, enum=None):
    """A configuration key: default, flag help and, for a string, its enum's values."""
    choices = enum and [e.value for e in enum]
    return field(default=default, metadata={"help": help_text, "choices": choices})


# defaults mirror the reference bring-up scenario: 50 kHz device with
# Q = 300 and 1 V initial amplitude, measured with k = 6 and an ideal circuit
@dataclass
class RunConfig:
    """Every configuration key, also a ``--flag`` of each command using it; the annotation
    is the kind of value it parses: ``float`` (SI suffixes), ``int``, ``bool`` or enum ``str``."""

    f0: float = _key(50e3, "resonant frequency [Hz], e.g. 50kHz")
    q: float = _key(300.0, "true quality factor")
    v0: float = _key(1.0, "initial peak amplitude [V]")
    k: float = _key(6.0, "division factor (> 1)")
    convention: str = _key("last_above", "how n relates to the first peak at or below V0/k", Convention)
    shortcut: bool = _key(False, "convert the count as 2n instead of the closed form")
    offset: float = _key(0.0, "threshold comparator offset [V]")
    dk: float = _key(0.0, "fractional divider error, e.g. 1%%")
    opamp: float = _key(0.0, "opamp offset added to every captured peak [V]")
    leak: float = _key(0.0, "held-peak droop rate [V/s]")
    diode: float = _key(0.0, "uncancelled diode residual [V]")
    fbw: float = _key(1e6, "peak-detector tracking bandwidth [Hz]")
    ffail: float = _key(1e6, "diode-cancellation failure knee [Hz]")
    noise: float = _key(0.0, "input noise RMS [V]")
    sign: str = _key("plus", "error sign alignment", SignAlignment)
    spp: int = _key(50, "samples per resonant period (>= 20)")
    seed: int = _key(0, "seed for noise and sign draws")
    rate: float = _key(5e6, "synthesis sample rate [Hz]")
    duration: float = _key(5e-3, "synthesis record length [s]")
    hysteresis: float = _key(-1.0, "peak-confirmation hysteresis [V]; negative = 1%% of the record's peak")

    NONIDEALITY_KEYS = ("offset", "dk", "opamp", "leak", "diode", "fbw", "ffail", "noise", "sign")

    def set_key(self, key: str, raw):
        """Parse and validate one value the same way for a flag and a config line."""
        if key not in _FIELDS:
            raise ValueError(f"unknown configuration key {key!r}")
        kind, choices = _FIELDS[key].type, _FIELDS[key].metadata["choices"]
        if kind == "str":
            value = str(raw).strip().lower()
            if value not in choices:
                raise ValueError(f"{key} must be one of {', '.join(choices)}, got {raw!r}")
        elif kind == "bool":
            text = str(raw).strip().lower()
            if text not in ("true", "false", "1", "0", "yes", "no"):
                raise ValueError(f"boolean key {key!r} got {raw!r}")
            value = text in ("true", "1", "yes")
        else:
            value = parse_value(raw)
            if kind == "int":
                if value != int(value):
                    raise ValueError(f"integer key {key!r} got {raw!r}")
                if value < 0:
                    raise ValueError(f"integer key {key!r} must be >= 0, got {raw!r}")
                value = int(value)
        setattr(self, key, value)

    def dump(self) -> str:
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "bool":
                text = "true" if value else "false"
            elif f.type == "str":
                text = value
            else:
                text = format_number(value)
            lines.append(f"{f.name} = {text}")
        return "\n".join(lines) + "\n"

    # ---- domain objects -------------------------------------------------
    def params(self) -> ResonatorParams:
        return ResonatorParams(f0=self.f0, q=self.q, v0=self.v0)

    def measurement(self) -> MeasurementConfig:
        return MeasurementConfig(
            k=self.k, convention=Convention(self.convention), shortcut=self.shortcut
        )

    def nonidealities(self) -> CircuitNonIdealities:
        return CircuitNonIdealities(
            comparator_offset=self.offset,
            divider_error=self.dk,
            opamp_offset=self.opamp,
            leak_droop=self.leak,
            diode_residual=self.diode,
            f_fail=self.ffail,
            detector_bandwidth=self.fbw,
            noise_rms=self.noise,
            worst_case_sign=SignAlignment(self.sign),
        )


def load_config_file(path, config: RunConfig) -> set:
    """Apply a ``key = value`` file to ``config``; returns the keys set."""
    assigned = set()
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ValueError(f"config file not found: {path}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        try:
            config.set_key(key, value.strip())
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        assigned.add(key)
    return assigned


_FIELDS = {f.name: f for f in fields(RunConfig)}


def _resolve_config(ns, skip=()) -> tuple:
    """Defaults, then config file (flag or QFM_CONFIG), then the flags not in ``skip``."""
    config = RunConfig()
    assigned = set()
    path = getattr(ns, "config", None) or os.environ.get(ENV_CONFIG)
    if path:
        assigned |= load_config_file(path, config)
    for key in _FIELDS:
        value = getattr(ns, key, None)
        if value is not None and key not in skip:
            config.set_key(key, value)
            assigned.add(key)
    return config, assigned


class _Parser(argparse.ArgumentParser):
    """Usage errors raise, so ``main`` reports them in one line like any
    other configuration error."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qfm",
        description="Ring-down quality-factor measurement: simulate the counting "
        "architecture, sweep its error budget, synthesize and measure waveforms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    cmd = {}
    for name, (_, help_text, keys) in _COMMANDS.items():
        p = cmd[name] = sub.add_parser(name, help=help_text, description=help_text)
        for key in keys:
            meta = _FIELDS[key].metadata
            if _FIELDS[key].type == "bool":
                p.add_argument(f"--{key}", action="store_const", const="true", help=meta["help"])
            else:
                metavar = meta["choices"] and "{%s}" % ",".join(meta["choices"])
                p.add_argument(f"--{key}", metavar=metavar, help=meta["help"])
        p.add_argument("--config", metavar="PATH", help="key = value config file")

    cmd["simulate"].add_argument("--trace", metavar="PATH", help="write the per-cycle trace CSV here")
    cmd["sweep"].add_argument("mode", choices=["theoretical", "worstcase", "frequency"], help=(
        "theoretical and worstcase sweep --k (a,b,c or lo:hi:step) and --q (lo:hi:step); "
        "frequency sweeps --f0 (a,b,c, lo:hi:step or lo:hi:log[N])"))
    cmd["sweep"].add_argument("--out", required=True, metavar="PATH", help="CSV output path")
    cmd["sweep"].add_argument("--svg", metavar="PATH", help="also render a line chart here")
    cmd["synth"].add_argument("--out", required=True, metavar="PATH", help="CSV output path")
    cmd["measure"].add_argument("input", metavar="WAVEFORM_CSV")
    cmd["dump-config"].add_argument("--out", metavar="PATH", help="write instead of printing")
    return parser


def cmd_simulate(ns) -> int:
    config, _ = _resolve_config(ns)
    result, trace = simulate_measurement(
        config.params(),
        config.measurement(),
        config.nonidealities(),
        samples_per_period=config.spp,
        seed=config.seed,
    )
    if ns.trace:
        trace.to_csv(ns.trace)
    print(measurement_record(result, config.measurement()))
    return EXIT_OK


def cmd_sweep(ns) -> int:
    # the axis-valued flags must not reach the scalar config resolver
    axes = ("f0",) if ns.mode == "frequency" else ("k", "q")
    config, assigned = _resolve_config(ns, skip=axes)
    convention = Convention(config.convention)

    if ns.mode == "theoretical":
        ks = parse_axis(ns.k) if ns.k else np.array([2.0, 4.0, 6.0, 8.0, 16.0])
        table = theoretical_error_sweep(ks, _parse_qrange(ns.q or "10:1000:1"), convention)
        chart = dict(x="q_true", series="k")
    elif ns.mode == "worstcase":
        ks = parse_axis(ns.k) if ns.k else np.arange(4.0, 8.01, 0.25)
        table = worst_case_sweep(
            ks,
            _parse_qrange(ns.q or "100:1000:1"),
            config.nonidealities(),
            f0=config.f0,
            v0=config.v0,
            convention=convention,
        )
        chart = dict(x="q_true", series="k")
    else:
        if assigned & set(RunConfig.NONIDEALITY_KEYS):
            ni = config.nonidealities()
        else:
            # a frequency sweep of an ideal circuit is a flat line; default
            # to the calibrated pessimistic budget unless told otherwise
            ni = pessimistic_nonidealities(SignAlignment(config.sign))
        f0s = parse_axis(ns.f0 or "1kHz:4MHz:log")
        table = frequency_sweep(
            config.q,
            config.k,
            f0s,
            ni,
            v0=config.v0,
            convention=convention,
            samples_per_period=config.spp,
            seed=config.seed,
        )
        chart = dict(x="f0", series=None, log_x=True)
    # the chart first: a table it cannot plot (exit 2) leaves neither file
    svg = svg_line_chart(table, title=f"{ns.mode} sweep", **chart) if ns.svg else None
    table.to_csv(ns.out)
    if svg is not None:
        write_text(ns.svg, svg)
    print(f"rows={len(table)} na={table.na_rows()} out={ns.out}")
    return EXIT_OK


def _split_range(text: str, name: str, log: bool) -> tuple:
    """lo and hi of 'lo:hi:mode' as values, and the stripped mode; a log
    mode only where ``log`` allows it."""
    parts = text.split(":")
    if len(parts) != 3 or parts[2].strip().startswith("log") and not log:
        forms = "lo:hi:step or lo:hi:log[N]" if log else "lo:hi:step"
        raise ValueError(f"{name} must be {forms}, got {text!r}")
    return parse_value(parts[0]), parse_value(parts[1]), parts[2].strip()


def _parse_qrange(text: str):
    text = str(text).strip()
    lo, hi, step = _split_range(text if ":" in text else f"{text}:{text}:1", "q range", log=False)
    return (lo, hi, parse_value(step))


def cmd_synth(ns) -> int:
    config, _ = _resolve_config(ns)
    wave = synth_waveform(
        config.params(),
        sample_rate=config.rate,
        duration=config.duration,
        noise_rms=config.noise,
        seed=config.seed,
    )
    waveform_to_csv(wave, ns.out)
    print(f"samples={len(wave)} out={ns.out}")
    return EXIT_OK


def cmd_measure(ns) -> int:
    config, _ = _resolve_config(ns)
    if not Path(ns.input).exists():
        raise ValueError(f"waveform file not found: {ns.input}")
    wave = load_waveform(ns.input)
    hysteresis = config.hysteresis
    if hysteresis < 0:
        hysteresis = 0.01 * float(np.max(np.abs(wave.samples)))
    peaks = extract_peaks(wave, hysteresis=hysteresis)
    mc = config.measurement()
    counting = measure_q_counting(peaks, mc)
    q_fit = fit_q_log_decrement(peaks)
    disagreement = abs(counting.q_measured - q_fit) / q_fit
    print("method=counting " + measurement_record(counting, mc))
    residual = log_fit(peaks.values).rms
    print(f"method=fit q={format_number(q_fit)} residual={format_number(residual)}")
    print(f"disagreement={format_number(disagreement)}")
    print(f"peaks={len(peaks)} hysteresis={format_number(hysteresis)} "
          f"irregular_spacing={format_number(peaks.irregular_spacing)}")
    return EXIT_OK


def cmd_dump_config(ns) -> int:
    config, _ = _resolve_config(ns)
    write_text(getattr(ns, "out", None) or sys.stdout, config.dump())
    return EXIT_OK


_DEVICE = ("f0", "q", "v0")
_MEASUREMENT = ("k", "convention", "shortcut")

# subcommand -> (handler, help, the RunConfig keys it takes as flags)
_COMMANDS = {
    "simulate": (cmd_simulate, "run the behavioral measurement once",
                 (*_DEVICE, *_MEASUREMENT, *RunConfig.NONIDEALITY_KEYS, "spp", "seed")),
    "sweep": (cmd_sweep, "tabulate measurement error over a parameter range",
              (*_DEVICE, "k", "convention", *RunConfig.NONIDEALITY_KEYS, "spp", "seed")),
    "synth": (cmd_synth, "synthesize a ring-down waveform CSV",
              (*_DEVICE, "rate", "duration", "noise", "seed")),
    "measure": (cmd_measure, "measure Q from a waveform CSV", (*_MEASUREMENT, "hysteresis")),
    "dump-config": (cmd_dump_config, "print the effective configuration", tuple(_FIELDS)),
}
_DISPATCH = {name: handler for name, (handler, _, _) in _COMMANDS.items()}


# exit code per exception family, first match wins (WaveformFormatError is a ValueError)
_EXIT_CODES = {
    InsufficientRecordError: EXIT_RECORD,
    SimulationError: EXIT_SIM,
    ValueError: EXIT_CONFIG,
    KeyError: EXIT_CONFIG,
    OSError: EXIT_IO,
    MemoryError: EXIT_SIM,
}


# one parser per process: building it costs milliseconds, parsing does not change it
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        ns, extra = _parser().parse_known_args(argv)
        if extra:
            raise ValueError(f"qfm {ns.command}: unrecognized arguments: {' '.join(extra)}")
        return _DISPATCH[ns.command](ns)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
