"""CLI surface: records on stdout, exit codes, config files, ranges."""

import argparse
import os
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

import qfm
from qfm import cli, waveform_io
from qfm.cli import RunConfig, load_config_file, main, parse_axis, parse_value


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def record_fields(line):
    return dict(kv.split("=", 1) for kv in line.split())


class TestParseValue:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("50kHz", 50e3),
            ("5MHz", 5e6),
            ("10mV", 10e-3),
            ("1%", 0.01),
            ("4.81", 4.81),
            ("1e-3", 1e-3),
            ("5ms", 5e-3),
            ("2us", 2e-6),
            ("-3mV", -3e-3),
        ],
    )
    def test_suffixes(self, text, expected):
        assert parse_value(text) == pytest.approx(expected, rel=1e-12)

    def test_rejects_garbage(self):
        for bad in ("", "fast", "10 furlongs", "1..2"):
            with pytest.raises(ValueError):
                parse_value(bad)

    def test_axis_forms(self):
        assert np.allclose(parse_axis("2,4,6"), [2, 4, 6])
        assert np.allclose(parse_axis("10:14:2"), [10, 12, 14])
        log = parse_axis("1e2:1e4:log")
        assert len(log) == 21 and log[0] == pytest.approx(1e2) and log[-1] == pytest.approx(1e4)
        assert len(parse_axis("1e2:1e4:log5")) == 5
        assert np.allclose(parse_axis("6"), [6.0])
        with pytest.raises(ValueError):
            parse_axis("1:2:3:4")

    @pytest.mark.parametrize(
        "axis,message",
        [
            ("1kHz:10:log", "log range needs 0 < lo < hi, got '1kHz:10:log'"),
            ("0:1kHz:log", "log range needs 0 < lo < hi, got '0:1kHz:log'"),
            ("1kHz:10kHz:log1", "log point count must be >= 2 in '1kHz:10kHz:log1'"),
            ("10kHz:1kHz:1", "range needs lo <= hi and step > 0, got '10kHz:1kHz:1'"),
            ("1kHz:10kHz:0", "range needs lo <= hi and step > 0, got '1kHz:10kHz:0'"),
        ],
    )
    def test_axis_refusals_exit_2(self, capsys, tmp_path, axis, message):
        with pytest.raises(ValueError) as err:
            parse_axis(axis)
        assert str(err.value) == message
        out_csv = tmp_path / "never.csv"
        code, out, err = run(capsys, "sweep", "frequency", "--f0", axis, "--out", str(out_csv))
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert not out_csv.exists()


class TestSimulate:
    def test_defaults_reproduce_reference(self, capsys):
        code, out, _ = run(capsys, "simulate")
        assert code == 0
        fields = record_fields(out.strip())
        assert fields["n"] == "171"
        assert float(fields["q"]) == pytest.approx(299.8, abs=0.1)
        assert fields["convention"] == "last_above"

    def test_invalid_k_exits_2_naming_bound(self, capsys):
        code, out, err = run(capsys, "simulate", "--k", "0.5")
        assert code == 2
        assert out == ""
        assert "k" in err and "1" in err

    def test_pessimistic_flags(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--offset", "10e-3", "--dk", "0.01", "--sign", "plus"
        )
        assert code == 0
        fields = record_fields(out.strip())
        # LAST_ABOVE against the 0.175017 V threshold crosses at count 166
        assert fields["n"] == "166"
        assert float(fields["error"]) == pytest.approx(-0.0298, abs=0.002)

    def test_si_suffix_flags(self, capsys):
        code, out, _ = run(capsys, "simulate", "--f0", "50kHz", "--dk", "1%", "--offset", "10mV")
        assert code == 0
        assert record_fields(out.strip())["n"] == "166"

    def test_trace_output(self, capsys, tmp_path):
        trace = tmp_path / "trace.csv"
        code, _, _ = run(capsys, "simulate", "--trace", str(trace))
        assert code == 0
        lines = trace.read_text().splitlines()
        assert lines[0].startswith("cycle,")
        assert len(lines) == 174

    def test_simulation_failure_exits_3(self, capsys):
        code, _, err = run(capsys, "simulate", "--offset", "0.5", "--sign", "minus", "--dk", "0.01")
        assert code == 3
        assert "threshold" in err

    def test_sample_budget_exits_3_before_allocating(self, capsys):
        # Q = 1e6 at k = 6 needs about 570k cycles, 28.5M samples at 50 per period
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "simulate", "--q", "1e6")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert "budget of 16777216 samples" in err and "MB" not in err
        assert peak < 10e6

    def test_sample_budget_aborts_frequency_sweep(self, capsys, tmp_path):
        # every f0 point needs about 27M samples at 40 per period; the
        # budget is a resource limit, so the sweep stops instead of
        # writing a table of NA rows
        out_csv = tmp_path / "never.csv"
        code, out, err = run(capsys, "sweep", "frequency", "--q", "1e6", "--out", str(out_csv))
        assert code == 3
        assert out == ""
        assert len(err.strip().splitlines()) == 1 and "samples" in err
        assert not out_csv.exists()

    def test_memory_error_exits_3(self, capsys, monkeypatch):
        def exhausted(ns):
            raise MemoryError("Unable to allocate 763. MiB for an array")

        monkeypatch.setitem(cli._DISPATCH, "simulate", exhausted)
        code, out, err = run(capsys, "simulate")
        assert code == 3
        assert out == ""
        assert err == "error: Unable to allocate 763. MiB for an array\n"

    def test_opamp_offset_moves_threshold(self, capsys):
        _, base, _ = run(capsys, "simulate")
        code, out, _ = run(capsys, "simulate", "--opamp", "5mV")
        assert code == 0
        thr, thr_opamp = (float(record_fields(o.strip())["threshold"]) for o in (base, out))
        # the offset lifts the captured V0, so the threshold by 5 mV / 6
        assert thr_opamp - thr == pytest.approx(5e-3 / 6, rel=1e-9)


class TestSweep:
    def test_theoretical_row_count(self, capsys, tmp_path):
        out_csv = tmp_path / "sweep.csv"
        code, out, _ = run(
            capsys, "sweep", "theoretical",
            "--k", "2,4,6,8,16", "--q", "10:1000:1", "--out", str(out_csv),
        )
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "k,q_true,n,q_measured,rel_error"
        assert len(lines) == 1 + 5 * 991
        assert "rows=4955" in out

    def test_worstcase_bounded(self, capsys, tmp_path):
        out_csv = tmp_path / "wc.csv"
        code, _, _ = run(
            capsys, "sweep", "worstcase",
            "--k", "4:8:0.5", "--q", "100:1000:9",
            "--dk", "0.01", "--offset", "10e-3", "--out", str(out_csv),
        )
        assert code == 0
        errs = [
            abs(float(line.split(",")[4]))
            for line in out_csv.read_text().splitlines()[1:]
        ]
        assert max(errs) < 0.10

    def test_frequency_regimes_on_emitted_table(self, capsys, tmp_path):
        out_csv = tmp_path / "freq.csv"
        code, _, _ = run(
            capsys, "sweep", "frequency",
            "--f0", "1e3,1e4,5e4,1e6,2e6", "--spp", "25", "--out", str(out_csv),
        )
        assert code == 0
        rows = [line.split(",") for line in out_csv.read_text().splitlines()[1:]]
        err = {float(r[0]): abs(float(r[3])) for r in rows}
        assert err[1e3] > err[1e4]       # leakage-dominated low end
        assert err[2e6] > err[1e6]       # detector failure at the top
        assert err[5e4] <= min(err[1e3], err[2e6])

    def test_svg_emitted(self, capsys, tmp_path):
        out_csv = tmp_path / "t.csv"
        out_svg = tmp_path / "t.svg"
        code, _, _ = run(
            capsys, "sweep", "theoretical",
            "--k", "6", "--q", "100:200:5",
            "--out", str(out_csv), "--svg", str(out_svg),
        )
        assert code == 0
        import xml.etree.ElementTree as ET

        ET.fromstring(out_svg.read_text())

    def test_unplottable_svg_writes_neither_file(self, capsys, tmp_path):
        # Q past the float range of the count: every row is NA, which the
        # table holds but the chart cannot plot
        out_csv, out_svg = tmp_path / "x.csv", tmp_path / "x.svg"
        argv = ["sweep", "theoretical", "--k", "2", "--q", "1e300:1e301:1e299", "--out", str(out_csv)]
        code, out, err = run(capsys, *argv, "--svg", str(out_svg))
        assert code == 2
        assert out == ""
        assert err == "error: nothing to plot: every row has missing cells\n"
        assert not out_csv.exists() and not out_svg.exists()
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == f"rows=91 na=91 out={out_csv}\n"

    def test_na_rows_counted(self, capsys, tmp_path):
        # a 0.25 V opamp offset holds every maximum above the k = 6
        # threshold (0.25 * (k - 1) > v0) but not above the k = 4 one
        out_csv = tmp_path / "wc.csv"
        for k, rows, na in (("4", 3, 0), ("4,6", 6, 3)):
            code, out, _ = run(
                capsys, "sweep", "worstcase", "--k", k, "--q", "100:102:1",
                "--opamp", "0.25", "--out", str(out_csv),
            )
            assert code == 0
            assert out == f"rows={rows} na={na} out={out_csv}\n"
            lines = out_csv.read_text().splitlines()[1:]
            assert sum(line.endswith(",NA,NA,NA") for line in lines) == na

    @pytest.mark.parametrize(
        "flag,value,message",
        [("--f0", "0", "f0 must be finite and > 0 Hz"), ("--f0", "-5", "f0 must be"), ("--v0", "-1", "v0 must be")],
    )
    def test_worstcase_rejects_device_exits_2(self, capsys, tmp_path, recwarn, flag, value, message):
        out_csv = tmp_path / "never.csv"
        code, out, err = run(capsys, "sweep", "worstcase", flag, value, "--out", str(out_csv))
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1 and message in err
        assert not out_csv.exists()
        assert not recwarn.list

    def test_count_at_the_bottom_of_the_f0_range(self, capsys, tmp_path, recwarn):
        # twice the pseudo-period of 1e-308 Hz overflows; the count is the 50 kHz one
        out_csv = tmp_path / "low.csv"
        argv = ["sweep", "worstcase", "--f0", "1e-308", "--q", "300", "--k", "6", "--out", str(out_csv)]
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (0, f"rows=1 na=0 out={out_csv}\n", "")
        assert out_csv.read_text().splitlines()[1].startswith("6,300,171,299.82433468018803,")
        assert not recwarn.list

    def test_count_past_2_to_the_50_does_not_depend_on_f0(self, capsys, tmp_path):
        # criterion 08 at n near 1.5e16: the same table at 1 Hz and at 50 kHz
        tables = []
        for f0 in ("1", "50kHz"):
            out_csv = tmp_path / f"f0_{f0}.csv"
            argv = ["sweep", "worstcase", "--q", "1e15", "--k", "1e20,6", "--f0", f0, "--out", str(out_csv)]
            assert run(capsys, *argv) == (0, f"rows=2 na=0 out={out_csv}\n", "")
            tables.append(out_csv.read_bytes())
        assert tables[0] == tables[1]
        assert tables[0].splitlines()[1].startswith(b"1e+20,1000000000000000,14658711977588554,")

    def test_q_axis_of_one_value(self, capsys, tmp_path):
        out_csv = tmp_path / "one.csv"
        code, out, _ = run(capsys, "sweep", "theoretical", "--k", "8", "--q", "500", "--out", str(out_csv))
        assert (code, out) == (0, f"rows=1 na=0 out={out_csv}\n")
        assert out_csv.read_text().splitlines()[1].startswith("8,500,")

    @pytest.mark.parametrize(
        "q,message",
        [
            # --q takes lo:hi:step or one value, not the other axis forms
            ("100:1000:log", "q range must be lo:hi:step, got '100:1000:log'"),
            ("100:1000", "q range must be lo:hi:step, got '100:1000'"),
            ("100,200", "cannot parse numeric value '100,200'"),
        ],
    )
    @pytest.mark.parametrize("mode", ["theoretical", "worstcase"])
    def test_q_axis_refusals_exit_2(self, capsys, tmp_path, mode, q, message):
        out_csv = tmp_path / "never.csv"
        code, out, err = run(capsys, "sweep", mode, "--q", q, "--out", str(out_csv))
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert not out_csv.exists()

    def test_axes_come_from_flags_only(self, capsys, tmp_path, monkeypatch):
        # a config file's k, q or f0 would otherwise collapse a sweep to one point
        cfg = tmp_path / "axes.cfg"
        cfg.write_text("k = 8\nq = 500\n")
        code, out, _ = run(capsys, "sweep", "theoretical", "--config", str(cfg), "--out", str(tmp_path / "t.csv"))
        assert code == 0 and out.startswith("rows=4955 ")
        cfg.write_text("f0 = 10kHz\n")
        monkeypatch.setenv("QFM_CONFIG", str(cfg))
        out_csv = tmp_path / "f.csv"
        code, out, _ = run(capsys, "sweep", "frequency", "--out", str(out_csv))
        assert code == 0 and out.startswith("rows=37 ")
        assert out_csv.read_text().splitlines()[1].startswith("1000,")

    def test_unwritable_out_exits_4(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "sweep", "theoretical",
            "--k", "6", "--q", "100:110:1",
            "--out", str(tmp_path / "missing_dir" / "x.csv"),
        )
        assert code == 4
        assert err


class TestSynthAndMeasure:
    def test_synth_first_row(self, capsys, tmp_path):
        out = tmp_path / "clean.csv"
        code, _, _ = run(capsys, "synth", "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,v"
        assert lines[1] == "0,1"

    def test_synth_determinism(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        code, _, _ = run(capsys, "synth", "--seed", "3", "--noise", "1e-4", "--out", str(a))
        assert code == 0
        code, _, _ = run(capsys, "synth", "--seed", "3", "--noise", "1e-4", "--out", str(b))
        assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_measure_clean_synth(self, capsys, tmp_path):
        wave = tmp_path / "wave.csv"
        run(capsys, "synth", "--duration", "5ms", "--out", str(wave))
        code, out, _ = run(capsys, "measure", str(wave))
        assert code == 0
        lines = out.strip().splitlines()
        counting = record_fields(lines[0].replace("method=counting ", ""))
        fit = record_fields(lines[1].replace("method=fit ", ""))
        disagreement = float(lines[2].split("=")[1])
        assert counting["n"] == "171"
        assert float(counting["q"]) == pytest.approx(299.8, abs=0.1)
        assert float(fit["q"]) == pytest.approx(300.0, abs=0.3)
        assert disagreement < 0.002

    def test_measure_reports_its_peaks(self, capsys, tmp_path):
        wave = tmp_path / "wave.csv"
        run(capsys, "synth", "--duration", "5ms", "--v0", "0.5", "--out", str(wave))
        code, out, _ = run(capsys, "measure", str(wave))
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 4 and lines[3].startswith("peaks=")
        fields = record_fields(lines[3])
        assert fields.keys() == {"peaks", "hysteresis", "irregular_spacing"}
        samples = np.loadtxt(wave, delimiter=",", skiprows=1)[:, 1]
        # the auto hysteresis is 1 % of the largest |sample|
        assert float(fields["hysteresis"]) == 0.01 * float(np.max(np.abs(samples)))
        assert fields["irregular_spacing"] == "0"
        assert int(fields["peaks"]) == 250  # 5 ms at 50 kHz
        code, out, _ = run(capsys, "measure", str(wave), "--hysteresis", "2mV")
        assert record_fields(out.strip().splitlines()[3])["hysteresis"] == "0.002"

    def test_measure_noisy_synth(self, capsys, tmp_path):
        # auto hysteresis rides over noise two decades under the signal
        wave = tmp_path / "noisy.csv"
        run(capsys, "synth", "--noise", "1e-4", "--seed", "7", "--out", str(wave))
        code, out, _ = run(capsys, "measure", str(wave))
        assert code == 0
        q = float(record_fields(out.strip().splitlines()[0].split(" ", 1)[1])["q"])
        assert q == pytest.approx(300.0, rel=0.01)

    def test_measure_reports_its_fit_residual(self, capsys, tmp_path):
        wave = tmp_path / "wave.csv"
        run(capsys, "synth", "--duration", "5ms", "--out", str(wave))
        code, out, _ = run(capsys, "measure", str(wave))
        assert code == 0
        fit = record_fields(out.strip().splitlines()[1].replace("method=fit ", ""))
        assert fit.keys() == {"q", "residual"}
        # a clean ring-down leaves only the parabolic refinement's error
        assert 0 <= float(fit["residual"]) < 1e-4

    def test_record_over_the_cap_exits_2(self, capsys, tmp_path, monkeypatch):
        wave = tmp_path / "wave.csv"
        run(capsys, "synth", "--duration", "5ms", "--out", str(wave))
        monkeypatch.setattr(waveform_io, "MAX_SAMPLES", 1000)
        code, out, err = run(capsys, "measure", str(wave))
        assert (code, out) == (2, "")
        assert err == "error: the record is over the limit of 1000 samples\n"

    def test_truncated_record_exits_5(self, capsys, tmp_path):
        wave = tmp_path / "short.csv"
        run(capsys, "synth", "--duration", "2ms", "--out", str(wave))
        code, _, err = run(capsys, "measure", str(wave))
        assert code == 5
        assert "insufficient record" in err
        assert "more record" in err

    def test_synth_unwritable_out_exits_4(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "synth", "--out", str(tmp_path / "no_dir" / "w.csv")
        )
        assert code == 4
        assert err

    def test_garbage_file_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("this is not\na waveform\n")
        code, _, err = run(capsys, "measure", str(bad))
        assert code == 2
        assert err

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, _ = run(capsys, "measure", str(tmp_path / "nope.csv"))
        assert code == 2

    def test_synth_of_fewer_than_two_samples_exits_2(self, capsys, tmp_path):
        out_csv = tmp_path / "never.csv"
        code, out, err = run(
            capsys, "synth", "--f0", "1", "--rate", "100", "--duration", "0.01", "--out", str(out_csv)
        )
        assert (code, out, err) == (2, "", "error: duration too short: fewer than 2 samples requested\n")
        assert not out_csv.exists()


class TestConfigFile:
    def test_file_then_flag_precedence(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("q = 300\nk = 6\noffset = 10mV  # comparator\ndk = 1%\n")
        code, out, _ = run(capsys, "simulate", "--config", str(cfg))
        assert code == 0
        assert record_fields(out.strip())["n"] == "166"
        # flag overrides the file value
        code, out, _ = run(capsys, "simulate", "--config", str(cfg), "--offset", "0", "--dk", "0")
        assert record_fields(out.strip())["n"] == "171"

    def test_env_var_config(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "env.cfg"
        cfg.write_text("k = 8\n")
        monkeypatch.setenv("QFM_CONFIG", str(cfg))
        code, out, _ = run(capsys, "simulate")
        assert code == 0
        result = record_fields(out.strip())
        assert result["n"] != "171"  # k=8 counts further down the envelope

    def test_missing_config_file_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "nope.cfg"
        code, out, err = run(capsys, "simulate", "--config", str(cfg))
        assert (code, out, err) == (2, "", f"error: config file not found: {cfg}\n")

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("qq = 300\n")
        code, _, err = run(capsys, "simulate", "--config", str(cfg))
        assert code == 2
        assert "qq" in err

    def test_dump_config_round_trip(self, capsys, tmp_path):
        out_path = tmp_path / "dumped.cfg"
        code, _, _ = run(
            capsys, "dump-config", "--q", "123", "--offset", "10mV",
            "--convention", "first_at_or_below", "--out", str(out_path),
        )
        assert code == 0
        reloaded = RunConfig()
        load_config_file(out_path, reloaded)
        expected = RunConfig()
        expected.q = 123.0
        expected.offset = 10e-3
        expected.convention = "first_at_or_below"
        assert reloaded == expected

    def test_dump_config_round_trips_opamp(self, capsys, tmp_path):
        out_path = tmp_path / "dumped.cfg"
        code, _, _ = run(capsys, "dump-config", "--opamp", "5mV", "--out", str(out_path))
        assert code == 0
        assert "opamp = 0.005" in out_path.read_text().splitlines()
        reloaded = RunConfig()
        assert load_config_file(out_path, reloaded) >= {"opamp"}
        expected = RunConfig()
        expected.opamp = 5e-3
        assert reloaded == expected
        assert reloaded.nonidealities().opamp_offset == 5e-3

    def test_dump_config_stdout(self, capsys):
        code, out, _ = run(capsys, "dump-config")
        assert code == 0
        assert "f0 = 50000" in out
        assert "convention = last_above" in out


# option strings per subcommand; sweep --shortcut is gone because no sweep reads it
_NONIDEALITY_FLAGS = {"--offset", "--dk", "--opamp", "--leak", "--diode", "--fbw", "--ffail", "--noise", "--sign"}
FLAGS = {
    "simulate": {"-h", "--help", "--config", "--f0", "--q", "--v0", "--k", "--convention", "--shortcut",
                 *_NONIDEALITY_FLAGS, "--spp", "--seed", "--trace"},
    "sweep": {"-h", "--help", "--config", "--f0", "--q", "--v0", "--k", "--convention",
              *_NONIDEALITY_FLAGS, "--spp", "--seed", "--out", "--svg"},
    "synth": {"-h", "--help", "--config", "--f0", "--q", "--v0", "--rate", "--duration", "--noise",
              "--seed", "--out"},
    "measure": {"-h", "--help", "--config", "--k", "--convention", "--shortcut", "--hysteresis"},
    "dump-config": {"-h", "--help", "--config", "--f0", "--q", "--v0", "--k", "--convention", "--shortcut",
                    *_NONIDEALITY_FLAGS, "--spp", "--seed", "--rate", "--duration", "--hysteresis", "--out"},
}

# a non-default value for every key, and how dump-config prints it
EVERY_KEY = {
    "f0": ("20kHz", "20000"), "q": ("123", "123"), "v0": ("10mV", "0.01"), "k": ("8", "8"),
    "convention": ("FIRST_AT_OR_BELOW", "first_at_or_below"), "shortcut": ("true", "true"),
    "offset": ("1mV", "0.001"), "dk": ("1%", "0.01"), "opamp": ("2mV", "0.002"), "leak": ("10", "10"),
    "diode": ("3mV", "0.003"), "fbw": ("2MHz", "2000000"), "ffail": ("3MHz", "3000000"),
    "noise": ("1e-4", "0.0001"), "sign": ("minus", "minus"), "spp": ("40", "40"), "seed": ("1e3", "1000"),
    "rate": ("1MHz", "1000000"), "duration": ("2ms", "0.002"), "hysteresis": ("5mV", "0.005"),
}


class TestSchema:
    def test_flag_inventory(self):
        parser = cli.build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        flags = {name: {o for a in p._actions for o in a.option_strings} for name, p in sub.choices.items()}
        assert flags == FLAGS

    @pytest.mark.parametrize("via", ["flags", "file"])
    def test_every_key_parses_and_dumps_alike(self, capsys, tmp_path, via):
        if via == "flags":
            argv = [a for key, (text, _) in EVERY_KEY.items()
                    for a in ([f"--{key}"] if key == "shortcut" else [f"--{key}", text])]
        else:
            cfg = tmp_path / "every.cfg"
            cfg.write_text("".join(f"{key} = {text}\n" for key, (text, _) in EVERY_KEY.items()))
            argv = ["--config", str(cfg)]
        code, out, _ = run(capsys, "dump-config", *argv)
        assert code == 0
        assert out == "".join(f"{key} = {dumped}\n" for key, (_, dumped) in EVERY_KEY.items())

    @pytest.mark.parametrize("key", ["spp", "seed"])
    def test_non_integral_integer_key_exits_2(self, capsys, tmp_path, key):
        code, out, err = run(capsys, "simulate", f"--{key}", "20.5")
        assert (code, out, err) == (2, "", f"error: integer key {key!r} got '20.5'\n")
        cfg = tmp_path / "int.cfg"
        cfg.write_text(f"# integer keys\n{key} = 20.5\n")
        code, out, err = run(capsys, "simulate", "--config", str(cfg))
        assert (code, out, err) == (2, "", f"error: {cfg}:2: integer key {key!r} got '20.5'\n")

    # synth without noise draws nothing and dump-config runs nothing: they
    # refuse the value itself, as simulate does
    @pytest.mark.parametrize(
        "key, command",
        [("spp", "simulate"), ("seed", "simulate"), ("seed", "synth"), ("spp", "dump-config"), ("seed", "dump-config")],
    )
    def test_negative_integer_key_exits_2(self, capsys, tmp_path, key, command):
        message = f"integer key {key!r} must be >= 0, got '-1'\n"
        out_csv = tmp_path / "out.csv"
        argv = (command, "--out", str(out_csv)) if command == "synth" else (command,)
        code, out, err = run(capsys, *argv, f"--{key}", "-1")
        assert (code, out, err) == (2, "", f"error: {message}")
        assert not out_csv.exists()
        cfg = tmp_path / "int.cfg"
        cfg.write_text(f"# integer keys\n{key} = -1\n")
        code, out, err = run(capsys, *argv, "--config", str(cfg))
        assert (code, out, err) == (2, "", f"error: {cfg}:2: {message}")

    @pytest.mark.parametrize("key", ["convention", "sign"])
    def test_invalid_enum_key_exits_2_in_dump_config(self, capsys, tmp_path, key):
        code, out, err = run(capsys, "dump-config", f"--{key}", "bogus")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {key} must be one of ") and err.endswith(", got 'bogus'\n")
        cfg = tmp_path / "enum.cfg"
        cfg.write_text(f"{key} = bogus\n")
        code, out, err = run(capsys, "dump-config", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {cfg}:1: {key} must be one of ")

    @pytest.mark.parametrize(
        "argv",
        [
            (),
            ("simulate", "--bogus"),
            ("simulate", "--k"),
            ("sweep", "theoretical"),
            ("sweep", "theoretical", "--out", "never.csv", "--shortcut"),
            ("measure",),
            ("calibrate",),
        ],
    )
    def test_usage_error_is_one_line(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: qfm") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("sweep", "theoretical", "--out", "never.csv", "--shortcut"),
             "error: qfm sweep: unrecognized arguments: --shortcut\n"),
            (("simulate", "--bogus", "1", "extra"),
             "error: qfm simulate: unrecognized arguments: --bogus 1 extra\n"),
            (("measure", "w.csv", "--rate", "1MHz"),
             "error: qfm measure: unrecognized arguments: --rate 1MHz\n"),
        ],
    )
    def test_unknown_argument_names_the_subcommand(self, capsys, tmp_path, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", message)
        assert not (tmp_path / "never.csv").exists()

    def test_axis_without_a_point_exits_2(self, capsys, tmp_path):
        out_csv = tmp_path / "never.csv"
        code, out, err = run(capsys, "sweep", "theoretical", "--q", "1e17:1e17:1", "--out", str(out_csv))
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and "has no point" in err
        assert not out_csv.exists()

    def test_axis_repeating_points_exits_2(self, capsys, tmp_path):
        out_csv = tmp_path / "never.csv"
        code, out, err = run(
            capsys, "sweep", "theoretical", "--q", "1e17:100000000000000064:1", "--out", str(out_csv)
        )
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and "repeats points" in err
        assert not out_csv.exists()

    def test_help_exits_0(self, capsys):
        code, out, err = run(capsys, "simulate", "--help")
        assert (code, err) == (0, "")
        assert "--spp" in out

    def test_reused_parser_answers_as_a_fresh_one(self, capsys, tmp_path):
        calls = [
            ("simulate", "--bogus", "1"),
            ("simulate", "--help"),
            ("simulate", "--q", "120", "--k", "4"),
            ("dump-config", "--seed", "7"),
            ("synth", "--duration", "1e-4", "--out", str(tmp_path / "w.csv")),
            (),
        ]
        cli._parser.cache_clear()
        reused = [run(capsys, *argv) for argv in calls]
        assert cli._parser.cache_info().misses == 1
        for argv, outcome in zip(calls, reused):
            cli._parser.cache_clear()
            assert run(capsys, *argv) == outcome
        assert [code for code, _, _ in reused] == [2, 0, 0, 0, 0, 2]

    def test_oversized_synth_record_exits_2(self, capsys, tmp_path):
        out_csv = tmp_path / "never.csv"
        code, out, err = run(capsys, "synth", "--duration", "1e300", "--rate", "1e300", "--out", str(out_csv))
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and "limit of 16777216 samples" in err
        assert not out_csv.exists()


class TestNonFiniteInput:
    def test_parse_value_rejects_non_finite(self):
        for bad in ("1e400", "-1e400", "1e400kHz", float("inf"), float("nan")):
            with pytest.raises(ValueError):
                parse_value(bad)

    def test_simulate_huge_q_exits_2(self, capsys):
        code, out, err = run(capsys, "simulate", "--q", "1e400")
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1 and "finite" in err

    def test_theoretical_sweep_huge_k_exits_2(self, capsys, tmp_path):
        out_csv = tmp_path / "never.csv"
        code, out, err = run(
            capsys, "sweep", "theoretical", "--k", "1e400", "--q", "300", "--out", str(out_csv)
        )
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1 and "finite" in err
        assert not out_csv.exists()

    def test_config_file_non_finite_exits_2(self, capsys, tmp_path):
        for line in ("q = 1e400\n", "seed = 1e400\n"):
            cfg = tmp_path / "inf.cfg"
            cfg.write_text(line)
            code, _, err = run(capsys, "simulate", "--config", str(cfg))
            assert code == 2
            assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("theoretical", "--q", "10:2e7:1"), "19999991 points"),
            (("theoretical", "--k", "1.5:2e5:1"), "the 199999 k x 991 Q grid has 198199009 points"),
            (("worstcase", "--k", "1.5:2e5:1"), "the 199999 k x 901 Q grid"),
            (("worstcase", "--q", "100:1e5:1"), "the 17 k x 99901 Q grid"),
        ],
    )
    def test_oversized_sweep_grid_exits_2_fast(self, capsys, tmp_path, argv, message):
        out_csv = tmp_path / "never.csv"
        start = time.perf_counter()
        code, out, err = run(capsys, "sweep", *argv, "--out", str(out_csv))
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1 and message in err
        assert not out_csv.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # a warning is one more stderr line
    @pytest.mark.parametrize(
        "argv,code",
        [
            # the tracking gain's square overflows: gain 0, so no signal
            (("simulate", "--f0", "1e200"), 3),
            (("simulate", "--fbw", "1e-300"), 3),
            (("sweep", "frequency", "--f0", "1e300"), 0),
            (("sweep", "worstcase", "--f0", "1e300"), 0),
            # 4 q^2 overflows in the envelope's period, whose limit is 2 pi / w0
            (("sweep", "theoretical", "--q", "2e154:3e154:1e154"), 0),
            (("simulate", "--q", "2e154"), 2),
            # a pseudo-period of inf (f0 = 5e-324) or 0 (w0 overflows)
            # leaves no count; so does a drop that overflows
            (("sweep", "worstcase", "--k", "6", "--q", "100:101:1", "--f0", "5e-324"), 0),
            (("sweep", "worstcase", "--k", "6", "--q", "100:101:1", "--f0", "1.7e308"), 0),
            (("sweep", "worstcase", "--k", "6", "--q", "100:101:1", "--f0", "1e-300", "--leak", "1e300"), 0),
            (("simulate", "--f0", "5e-324"), 2),
            (("simulate", "--f0", "1.7e308"), 2),
            # 2 q overflows in the decay rate, whose limit is 0: no decay
            (("simulate", "--q", "1.7e308"), 2),
            (("sweep", "frequency", "--f0", "1kHz,10kHz", "--q", "1.7e308"), 2),
            # a hysteresis of 4 x noise past the float range never fires the clock
            (("simulate", "--noise", "1.7e308"), 3),
            (("simulate", "--noise", "1e308"), 3),
            (("simulate", "--noise", "4e307"), 3),
            (("sweep", "frequency", "--f0", "1kHz,10kHz", "--noise", "1.7e308"), 0),
            # noise samples past about 4.08 sigma overflow to +/-inf
            (("simulate", "--noise", "4.4e307", "--seed", "8"), 3),
            (("sweep", "frequency", "--f0", "1kHz,10kHz", "--noise", "4.4e307", "--seed", "8"), 0),
            # a ring-down plus noise that may leave the float range
            (("simulate", "--v0", "1.7e308", "--noise", "1e307"), 3),
            (("sweep", "frequency", "--f0", "1kHz,10kHz", "--v0", "1.7e308", "--noise", "1e307"), 0),
            # the sample rate, or the duration of the simulator's budget,
            # leaves the float range
            (("simulate", "--f0", "1e307"), 2),
            (("simulate", "--f0", "1e-308"), 2),
        ],
    )
    def test_huge_finite_input_ends_in_its_exit_code(self, capsys, tmp_path, argv, code):
        out_csv = tmp_path / "out.csv"
        if argv[0] == "sweep":
            argv += ("--out", str(out_csv))
        got, out, err = run(capsys, *argv)
        assert got == code
        assert err.count("\n") == (code != 0) and "Traceback" not in err
        if argv[:2] == ("simulate", "--f0"):  # the period, not Q, left the float range
            assert "f0=" in err and "q=" not in err
        if argv[0] == "sweep" and code == 0:  # every cell of the table is NA
            fields = record_fields(out.strip())
            assert fields["na"] == fields["rows"] and out_csv.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "argv",
        [("simulate", "--v0", "1.7e308"), ("sweep", "frequency", "--f0", "1kHz,10kHz", "--v0", "1.7e308")],
    )
    def test_huge_v0_completes(self, capsys, tmp_path, argv):
        # the simulator's error bound on its approximate samples stays finite
        if argv[0] == "sweep":
            argv += ("--out", str(tmp_path / "out.csv"))
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert record_fields(out.strip()).get("na", "0") == "0"

    def test_oversized_axis_rejected(self):
        for text in ("1:2e7:1", "1e3:1e6:log2000000"):
            with pytest.raises(ValueError, match="points"):
                parse_axis(text)
        assert len(parse_axis("1:1e6:1")) == 1_000_000


def test_import_loads_no_xml_or_http():
    # xml.sax.saxutils alone would pull in urllib.request and http.client;
    # the simulator's noise worker starts on the first run that needs it
    probe = (
        "import sys, qfm.cli; print(*[m for m in ('xml', 'urllib.request', 'http.client', "
        "'concurrent.futures', 'logging', 'queue') if m in sys.modules])"
    )
    src = os.path.dirname(os.path.dirname(qfm.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == ""
