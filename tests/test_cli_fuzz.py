"""Property test over ``qfm.cli.main``: every argv and config file drawn
from a pool of commands, keys and values, bad values included, ends in a
documented exit code with at most one stderr line and no traceback.

An example is a well-formed run (keys the command takes, set by flag or
by config file, with good values) plus at most one fault: a bad value, a
key the command does not take, a malformed config line, or a missing,
extra or unwritable argument.  Q stays at or below 1000 and the sweep
axes stay short, so each example takes well under a second; every
output goes to a temporary directory.
"""

import contextlib
import io

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from qfm.cli import main

# a warning is output the one-line contract does not allow for
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

# well-formed values per key; the sweep axes take lists and ranges
GOOD = {
    "f0": ("50kHz", "1kHz", "2MHz", "1e3,5e4", "1kHz:1MHz:log4", "10kHz:50kHz:20kHz"),
    "q": ("300", "2", "1000", "100:1000:300", "50,60"),
    "v0": ("1", "10mV"),
    "k": ("6", "1.5", "16", "2,4", "4:8:2"),
    "convention": ("last_above", "FIRST_AT_OR_BELOW"),
    "shortcut": ("true", "no"),
    "offset": ("0", "10mV", "0.5"),
    "dk": ("1%", "-50%"),
    "opamp": ("5mV",),
    "leak": ("10", "1e6"),
    "diode": ("1mV",),
    "fbw": ("1MHz", "10kHz"),
    "ffail": ("1MHz", "100kHz"),
    "noise": ("0", "1e-4", "1"),
    "sign": ("plus", "minus", "independent"),
    "spp": ("20", "25"),
    "seed": ("0", "3", "1e3"),
    "rate": ("5MHz", "1MHz"),
    "duration": ("1ms", "5ms", "0.1ms"),
    "hysteresis": ("-1", "1mV", "10"),
}
BAD = ("nan", "1e400", "-1", "abc", "1:2:0", "", "0", "maybe")
BAD_INTEGER = BAD + ("1.5",)

DEVICE = ("f0", "q", "v0")
NONIDEALITY = ("offset", "dk", "opamp", "leak", "diode", "fbw", "ffail", "noise", "sign")
TAKES = {
    "simulate": (*DEVICE, "k", "convention", "shortcut", *NONIDEALITY, "spp", "seed"),
    "sweep": (*DEVICE, "k", "convention", *NONIDEALITY, "spp", "seed"),
    "synth": (*DEVICE, "rate", "duration", "noise", "seed"),
    "measure": ("k", "convention", "shortcut", "hysteresis"),
    "dump-config": tuple(GOOD),
}
COMMANDS = (
    ("simulate",),
    ("sweep", "theoretical"),
    ("sweep", "worstcase"),
    ("sweep", "frequency"),
    ("synth",),
    ("measure",),
    ("dump-config",),
)
# (flag, file name) pairs each command needs, and the ones it may take
NEEDS = {"sweep": (("--out", "out.csv"),), "synth": (("--out", "out.csv"),), "measure": ((None, "record.csv"),)}
MAY_TAKE = {
    "simulate": (("--trace", "trace.csv"),),
    "sweep": (("--svg", "out.svg"),),
    "dump-config": (("--out", "dump.cfg"),),
}
RECORDS = ("short.csv", "garbage.csv", "missing.csv")
CONFIG_FAULTS = ("no equals sign", "= 3", "bogus = 1", "q = 1e400", "k = 300 = 2")


def setting(key, pool=None):
    return st.tuples(st.just(key), st.sampled_from(pool or GOOD[key]))


def bad_setting(key):
    return setting(key, BAD_INTEGER if key in ("spp", "seed") else BAD)


@st.composite
def invocations(draw):
    """(command, settings as (key, value, by_file), arguments, extra config lines)."""
    command = draw(st.sampled_from(COMMANDS))
    name = command[0]
    keys = st.sampled_from(TAKES[name])
    chosen = draw(st.lists(keys.flatmap(setting), max_size=4))
    arguments = list(NEEDS.get(name, ()))
    if name in MAY_TAKE:
        arguments += draw(st.lists(st.sampled_from(MAY_TAKE[name]), max_size=1))
    lines = []
    fault = draw(st.sampled_from((None, "value", "key", "line", "argument")))
    if fault == "value":
        chosen.append(draw(keys.flatmap(bad_setting)))
    elif fault == "key":
        chosen.append(draw(st.sampled_from([*GOOD, "bogus"]).flatmap(lambda k: setting(k, GOOD.get(k, BAD)))))
    elif fault == "line":
        lines.append(draw(st.sampled_from(CONFIG_FAULTS)))
    elif fault == "argument":
        arguments = draw(st.sampled_from((
            arguments[1:],
            arguments + [("--out", "missing_dir/out.csv")],
            arguments + [("--trace", "trace.csv")],
            [(flag, draw(st.sampled_from(RECORDS)) if flag is None else path) for flag, path in arguments],
        )))
    by_file = draw(st.lists(st.booleans(), min_size=len(chosen), max_size=len(chosen)))
    event(f"fault: {fault}")
    return command, [(k, v, f) for (k, v), f in zip(chosen, by_file)], arguments, lines


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    work = tmp_path_factory.mktemp("fuzz")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", "--out", str(work / "record.csv")]) == 0
        assert main(["synth", "--duration", "2ms", "--out", str(work / "short.csv")]) == 0
    (work / "garbage.csv").write_text("this is not\na waveform\n")
    return work


@settings(max_examples=200, deadline=None)
@given(invocation=invocations())
def test_main_ends_in_documented_exit_with_one_line(workdir, invocation):
    command, chosen, arguments, extra_lines = invocation
    argv, lines = list(command), list(extra_lines)
    for key, value, by_file in chosen:
        if by_file:
            lines.append(f"{key} = {value}")
        else:
            argv += [f"--{key}"] if key == "shortcut" else [f"--{key}", value]
    if lines:
        (workdir / "run.cfg").write_text("\n".join(lines) + "\n")
        argv += ["--config", str(workdir / "run.cfg")]
    for flag, path in arguments:
        argv += [str(workdir / path)] if flag is None else [flag, str(workdir / path)]

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    stderr = err.getvalue()
    event(f"{command[0]} exit {code}")
    assert code in {0, 2, 3, 4, 5}, (argv, code, stderr)
    assert stderr.count("\n") <= 1 and "Traceback" not in stderr, (argv, stderr)
    assert (code == 0) == (stderr == ""), (argv, code, stderr)
