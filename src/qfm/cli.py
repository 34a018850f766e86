"""Command-line surface: simulation runs, sweeps, waveform synthesis and
measurement of external records.

Results go to stdout as single-line ``key=value`` records; tables go to
files; diagnostics go to stderr.  Exit codes: 0 ok, 2 configuration or
parse error, 3 simulation failure, 4 I/O error, 5 insufficient record.

Numeric flags and config-file values accept SI suffixes (``50kHz``,
``10mV``, ``1%``).  A ``key = value`` config file can be passed with
``--config`` or through the ``QFM_CONFIG`` environment variable; explicit
flags override file values.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analysis import frequency_sweep, worst_case_sweep
from .charts import write_svg
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
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"range must be lo:hi:step or lo:hi:log[N], got {text!r}")
        lo, hi = parse_value(parts[0]), parse_value(parts[1])
        mode = parts[2].strip()
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


# flag defaults mirror the reference bring-up scenario: 50 kHz device with
# Q = 300 and 1 V initial amplitude, measured with k = 6 and an ideal circuit
@dataclass
class RunConfig:
    f0: float = 50e3
    q: float = 300.0
    v0: float = 1.0
    k: float = 6.0
    convention: str = "last_above"
    shortcut: bool = False
    offset: float = 0.0
    dk: float = 0.0
    opamp: float = 0.0
    leak: float = 0.0
    diode: float = 0.0
    fbw: float = 1e6
    ffail: float = 1e6
    noise: float = 0.0
    sign: str = "plus"
    spp: int = 50
    seed: int = 0
    rate: float = 5e6
    duration: float = 5e-3
    hysteresis: float = -1.0  # negative = auto: 1% of the record's peak magnitude

    _INT_KEYS = ("spp", "seed")
    _STR_KEYS = ("convention", "sign")
    _BOOL_KEYS = ("shortcut",)
    NONIDEALITY_KEYS = ("offset", "dk", "opamp", "leak", "diode", "fbw", "ffail", "noise", "sign")

    def set_key(self, key: str, raw):
        if key in self._STR_KEYS:
            setattr(self, key, str(raw).strip().lower())
        elif key in self._BOOL_KEYS:
            text = str(raw).strip().lower()
            if text not in ("true", "false", "1", "0", "yes", "no"):
                raise ValueError(f"boolean key {key!r} got {raw!r}")
            setattr(self, key, text in ("true", "1", "yes"))
        elif key in self._INT_KEYS:
            setattr(self, key, int(parse_value(str(raw))))
        elif key in {f.name for f in dataclasses.fields(self)}:
            setattr(self, key, parse_value(raw))
        else:
            raise ValueError(f"unknown configuration key {key!r}")

    def dump(self) -> str:
        lines = []
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.name in self._BOOL_KEYS:
                text = "true" if value else "false"
            elif f.name in self._STR_KEYS:
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


def _resolve_config(ns) -> tuple:
    """Defaults, then config file (flag or QFM_CONFIG), then explicit flags."""
    config = RunConfig()
    assigned = set()
    path = getattr(ns, "config", None) or os.environ.get(ENV_CONFIG)
    if path:
        assigned |= load_config_file(path, config)
    for key in (f.name for f in dataclasses.fields(RunConfig)):
        value = getattr(ns, key, None)
        if value is not None:
            config.set_key(key, value)
            assigned.add(key)
    return config, assigned


def _add_device_flags(p):
    p.add_argument("--f0", help="resonant frequency [Hz], e.g. 50kHz")
    p.add_argument("--q", help="true quality factor")
    p.add_argument("--v0", help="initial peak amplitude [V]")


def _add_measurement_flags(p):
    p.add_argument("--k", help="division factor (> 1)")
    p.add_argument("--convention", choices=[c.value for c in Convention],
                   help="how n relates to the first peak at or below V0/k")
    p.add_argument("--shortcut", action="store_const", const="true", default=None,
                   help="convert the count as 2n instead of the closed form")


def _add_nonideality_flags(p):
    p.add_argument("--offset", help="threshold comparator offset [V]")
    p.add_argument("--dk", help="fractional divider error, e.g. 1%%")
    p.add_argument("--opamp", help="opamp offset added to every captured peak [V]")
    p.add_argument("--leak", help="held-peak droop rate [V/s]")
    p.add_argument("--diode", help="uncancelled diode residual [V]")
    p.add_argument("--fbw", help="peak-detector tracking bandwidth [Hz]")
    p.add_argument("--ffail", help="diode-cancellation failure knee [Hz]")
    p.add_argument("--noise", help="input noise RMS [V]")
    p.add_argument("--sign", choices=[s.value for s in SignAlignment],
                   help="error sign alignment")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfm",
        description="Ring-down quality-factor measurement: simulate the counting "
        "architecture, sweep its error budget, synthesize and measure waveforms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run the behavioral measurement once")
    _add_device_flags(p)
    _add_measurement_flags(p)
    _add_nonideality_flags(p)
    p.add_argument("--spp", type=int, help="samples per resonant period (>= 20)")
    p.add_argument("--seed", type=int, help="seed for noise and sign draws")
    p.add_argument("--trace", metavar="PATH", help="write the per-cycle trace CSV here")
    p.add_argument("--config", metavar="PATH", help="key = value config file")

    p = sub.add_parser("sweep", help="tabulate measurement error over a parameter range")
    p.add_argument("mode", choices=["theoretical", "worstcase", "frequency"])
    # in theoretical/worstcase mode --k takes a list or range and --q a
    # lo:hi:step range; in frequency mode --f0 takes a range (lo:hi:log[N]
    # supported) while --k and --q stay scalar
    p.add_argument("--f0", help="resonant frequency [Hz]; a range in frequency mode")
    p.add_argument("--q", help="true quality factor; a lo:hi:step range except in frequency mode")
    p.add_argument("--v0", help="initial peak amplitude [V]")
    p.add_argument("--k", help="division factor(s): scalar, 'a,b,c' list or lo:hi:step")
    p.add_argument("--convention", choices=[c.value for c in Convention])
    p.add_argument("--shortcut", action="store_const", const="true", default=None)
    _add_nonideality_flags(p)
    p.add_argument("--spp", type=int, help="samples per period for frequency mode")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True, metavar="PATH", help="CSV output path")
    p.add_argument("--svg", metavar="PATH", help="also render a line chart here")
    p.add_argument("--config", metavar="PATH")

    p = sub.add_parser("synth", help="synthesize a ring-down waveform CSV")
    _add_device_flags(p)
    p.add_argument("--rate", help="sample rate [Hz] (default 5MHz)")
    p.add_argument("--duration", help="record length [s] (default 5ms)")
    p.add_argument("--noise", help="additive noise RMS [V]")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True, metavar="PATH")
    p.add_argument("--config", metavar="PATH")

    p = sub.add_parser("measure", help="measure Q from a waveform CSV")
    p.add_argument("input", metavar="WAVEFORM_CSV")
    _add_measurement_flags(p)
    p.add_argument(
        "--hysteresis",
        help="peak-confirmation hysteresis [V]; negative = auto "
        "(1%% of the record's peak magnitude)",
    )
    p.add_argument("--config", metavar="PATH")

    p = sub.add_parser("dump-config", help="print the effective configuration")
    _add_device_flags(p)
    _add_measurement_flags(p)
    _add_nonideality_flags(p)
    p.add_argument("--spp", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--rate", help="synthesis sample rate [Hz]")
    p.add_argument("--duration", help="synthesis record length [s]")
    p.add_argument("--hysteresis", help="peak-confirmation hysteresis [V]")
    p.add_argument("--config", metavar="PATH")
    p.add_argument("--out", metavar="PATH", help="write instead of printing")

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
    raw_k, raw_q, raw_f0 = ns.k, ns.q, ns.f0
    if ns.mode in ("theoretical", "worstcase"):
        ns.k = None
        ns.q = None
    else:
        ns.f0 = None
    config, assigned = _resolve_config(ns)

    if ns.mode == "theoretical":
        ks = parse_axis(raw_k) if raw_k else np.array([2.0, 4.0, 6.0, 8.0, 16.0])
        table = theoretical_error_sweep(
            ks, _parse_qrange(raw_q or "10:1000:1"), Convention(config.convention)
        )
        chart = dict(x="q_true", series="k")
    elif ns.mode == "worstcase":
        ks = parse_axis(raw_k) if raw_k else np.arange(4.0, 8.01, 0.25)
        table = worst_case_sweep(
            ks,
            _parse_qrange(raw_q or "100:1000:1"),
            config.nonidealities(),
            f0=config.f0,
            v0=config.v0,
            convention=Convention(config.convention),
        )
        chart = dict(x="q_true", series="k")
    else:
        if assigned & set(RunConfig.NONIDEALITY_KEYS):
            ni = config.nonidealities()
        else:
            # a frequency sweep of an ideal circuit is a flat line; default
            # to the calibrated pessimistic budget unless told otherwise
            ni = pessimistic_nonidealities(SignAlignment(config.sign))
        f0s = parse_axis(raw_f0 or "1kHz:4MHz:log")
        table = frequency_sweep(
            config.q,
            config.k,
            f0s,
            ni,
            v0=config.v0,
            convention=Convention(config.convention),
            samples_per_period=config.spp,
            seed=config.seed,
        )
        chart = dict(x="f0", series=None, log_x=True)
    table.to_csv(ns.out)
    if ns.svg:
        write_svg(table, ns.svg, title=f"{ns.mode} sweep", **chart)
    print(f"rows={len(table)} out={ns.out}")
    return EXIT_OK


def _parse_qrange(text: str):
    text = str(text).strip()
    if ":" not in text:
        v = parse_value(text)
        return (v, v, 1.0)
    parts = text.split(":")
    if len(parts) != 3 or parts[2].strip().startswith("log"):
        raise ValueError(f"q range must be lo:hi:step, got {text!r}")
    return (parse_value(parts[0]), parse_value(parts[1]), parse_value(parts[2]))


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
    print(f"method=fit q={format_number(q_fit)}")
    print(f"disagreement={format_number(disagreement)}")
    return EXIT_OK


def cmd_dump_config(ns) -> int:
    config, _ = _resolve_config(ns)
    write_text(getattr(ns, "out", None) or sys.stdout, config.dump())
    return EXIT_OK


_DISPATCH = {
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "synth": cmd_synth,
    "measure": cmd_measure,
    "dump-config": cmd_dump_config,
}


# exit code per exception family, first match wins (WaveformFormatError is a ValueError)
_EXIT_CODES = {
    InsufficientRecordError: EXIT_RECORD,
    SimulationError: EXIT_SIM,
    ValueError: EXIT_CONFIG,
    KeyError: EXIT_CONFIG,
    OSError: EXIT_IO,
    MemoryError: EXIT_SIM,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _DISPATCH[ns.command](ns)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
