"""Byte identity of the design-study and time-domain outputs.

The design digests and the Monte Carlo summary were recorded from the
scalar implementation the crossing kernel replaced, the trace and
frequency-sweep digests from the per-cycle simulator loop the array pass
replaced; any change to the numbers, their formatting or the chart
rendering shows up here.  The synth digest was recorded from the
per-sample CSV writer that the column formatter replaced, the frequency
chart's digest from the chart that formatted every point.
"""

import hashlib

import numpy as np
import pytest

from qfm import (
    CircuitNonIdealities,
    Convention,
    MeasurementConfig,
    MonteCarloSummary,
    ResonatorParams,
    monte_carlo,
    pessimistic_nonidealities,
    worst_case_sweep,
)
from qfm.cli import main

DIGESTS = {
    "theoretical.csv": "2eb0faaaf26cf6d9e4717344be4174a30d273376aedf022c67e11f9082edc232",
    "theoretical.svg": "b806f59b3953262243a3d05c717ef88eb98959e327fe177f4adf27781157de07",
    "worstcase.csv": "ac0729059e1e02fe24e0347fd8b39f18c8c094ae35e230a13f27c10d9e32b214",
    "worstcase.svg": "df5cdd6a8f458f3fafae9d5cdb293b0229eb0b41b5d812efbf4b821dac437be8",
    "exhaustive.csv": "2c02197b3fa4afd405e709c139f836b98a9f7a04f1aba9ac547db96ff11182fb",
    "frequency.csv": "a6f2a4361cafaff60d7f51ca20e1e0923f0763dde3ef44fb2839636056ef45e5",
    "frequency.svg": "d9fcaf6c307d8379527f2ada2ff9b4b23063dca92253437df6563aa58503c135",
}

TRACE_DIGESTS = {
    "": "7dd02f9620e8ee5fa090c525fa7a770a0d04d41fad0442dae212c81a0b8eea18",
    "--q 3000 --leak 10 --offset 10mV --dk 1% --noise 1e-4 --seed 7":
        "5112100014bdd8d7e6cfb3611563182957b81cb6c945977b1f179656bceebcbe",
    "--f0 1MHz --q 20000 --k 10 --spp 59 --noise 1e-4 --convention first_at_or_below":
        "92b7175f23aaaf39f1d1831cbd5cc5b1f72ecd24b313cf4eacddb69e7b0ca5a6",
    "--q 300 --offset 10mV --dk 1% --leak 10 --noise 1mV --sign independent --seed 3":
        "e725b64532266e62443a774064f7ba9abb663f92de4803ef02e5ab0e86ba0f70",
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_theoretical_sweep_cli_outputs(tmp_path, capsys):
    csv, svg = tmp_path / "theoretical.csv", tmp_path / "theoretical.svg"
    assert main(["sweep", "theoretical", "--out", str(csv), "--svg", str(svg)]) == 0
    assert "rows=4955" in capsys.readouterr().out
    assert sha256(csv) == DIGESTS["theoretical.csv"]
    assert sha256(svg) == DIGESTS["theoretical.svg"]


def test_worstcase_sweep_cli_outputs(tmp_path, capsys):
    csv, svg = tmp_path / "worstcase.csv", tmp_path / "worstcase.svg"
    argv = ["sweep", "worstcase", "--dk", "1%", "--offset", "10mV", "--out", str(csv), "--svg", str(svg)]
    assert main(argv) == 0
    assert "rows=15317" in capsys.readouterr().out
    assert sha256(csv) == DIGESTS["worstcase.csv"]
    assert sha256(svg) == DIGESTS["worstcase.svg"]


@pytest.mark.parametrize("flags", sorted(TRACE_DIGESTS))
def test_simulate_trace_csv(tmp_path, flags):
    trace = tmp_path / "trace.csv"
    assert main(["simulate", *flags.split(), "--trace", str(trace)]) == 0
    assert sha256(trace) == TRACE_DIGESTS[flags]


def test_frequency_sweep_cli_csv(tmp_path, capsys):
    csv = tmp_path / "frequency.csv"
    assert main(["sweep", "frequency", "--out", str(csv)]) == 0
    assert "rows=37" in capsys.readouterr().out
    assert sha256(csv) == DIGESTS["frequency.csv"]


def test_frequency_sweep_cli_svg(tmp_path):
    # the log-x chart without series
    csv, svg = tmp_path / "frequency.csv", tmp_path / "frequency.svg"
    assert main(["sweep", "frequency", "--out", str(csv), "--svg", str(svg)]) == 0
    assert sha256(csv) == DIGESTS["frequency.csv"]
    assert sha256(svg) == DIGESTS["frequency.svg"]


def test_exhaustive_worst_case_csv(tmp_path):
    table = worst_case_sweep(
        np.arange(4.0, 8.01, 0.25),
        (100.0, 1000.0, 1.0),
        pessimistic_nonidealities(),
        f0=50e3,
        exhaustive=True,
    )
    out = tmp_path / "exhaustive.csv"
    table.to_csv(out)
    assert sha256(out) == DIGESTS["exhaustive.csv"]


def test_seeded_monte_carlo_summary():
    summary = monte_carlo(
        ResonatorParams(f0=50e3, q=300.0, v0=1.0),
        MeasurementConfig(6.0, Convention.LAST_ABOVE),
        CircuitNonIdealities(comparator_offset=10e-3, divider_error=0.01),
        10_000,
        seed=0,
    )
    assert summary == MonteCarloSummary(
        trials=10000,
        failures=0,
        mean_error=-0.0026030762889547253,
        std_error=0.01984626195217804,
        min_error=-0.04149713744899922,
        max_error=0.03448152671070166,
        hist_counts=(29, 455, 0, 865, 942, 0, 914, 872, 0, 866, 863, 0, 824, 845, 0, 783, 869, 0, 651, 222),
        hist_edges=(
            -0.04149713744899922,
            -0.03769820424101418,
            -0.03389927103302914,
            -0.03010033782504409,
            -0.026301404617059043,
            -0.022502471409074,
            -0.018703538201088957,
            -0.01490460499310391,
            -0.011105671785118867,
            -0.00730673857713382,
            -0.0035078053691487768,
            0.00029112783883626647,
            0.00409006104682131,
            0.007888994254806353,
            0.011687927462791403,
            0.015486860670776446,
            0.01928579387876149,
            0.023084727086746533,
            0.026883660294731583,
            0.03068259350271662,
            0.03448152671070166,
        ),
    )


def test_synth_cli_csv(tmp_path, capsys):
    csv = tmp_path / "synth.csv"
    assert main(["synth", "--seed", "3", "--noise", "1e-4", "--out", str(csv)]) == 0
    assert "samples=25000" in capsys.readouterr().out
    assert sha256(csv) == "23f9f6d7c4390c9fbc00b98b285a2436f56d33a809a42984d37814fce4f28180"
