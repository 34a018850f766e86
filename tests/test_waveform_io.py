"""CSV round trips, peak extraction against the closed forms, counting on
extracted peaks, and the log-decrement cross-check.

``reference_load_waveform`` and ``reference_extract_peaks`` are the
whole-text reader and the per-sample peak loop the streamed reader and
the turning-point walk replaced, kept here as oracles: every result and
every error message must come out the same.
"""

import io
import math
import os
import threading
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfm import (
    Convention,
    InsufficientRecordError,
    MeasurementConfig,
    PeakList,
    ResonatorParams,
    WaveformFormatError,
    Waveform,
    count_pseudo_periods,
    derive_dynamics,
    extract_peaks,
    fit_q_log_decrement,
    load_waveform,
    log_fit,
    measure_q_counting,
    measurement_record,
    peak_time,
    peak_value,
    peaklist_to_csv,
    q_from_count,
    synth_waveform,
    waveform_to_csv,
)
from qfm import waveform_io
from qfm.waveform_io import CSV_HEADER, SPACING_BAND, UNIFORMITY_TOL

FIRST = Convention.FIRST_AT_OR_BELOW
LAST = Convention.LAST_ABOVE


def reference_load_waveform(source, cap=None) -> Waveform:
    """The whole-text reader; with a ``cap``, row cap + 1 is refused once
    it has been parsed."""
    if isinstance(source, (str, Path)):
        text = Path(source).read_text(encoding="utf-8")
    else:
        text = source.read()
        if isinstance(text, bytes):
            text = text.decode("utf-8")
    lines = text.splitlines()
    if not lines:
        raise WaveformFormatError("empty file")
    header = lines[0].lstrip("\ufeff").strip()
    if header != CSV_HEADER:
        raise WaveformFormatError(f"expected header {CSV_HEADER!r}, got {header!r}", line=1)
    times = []
    volts = []
    for lineno, raw in enumerate(lines[1:], start=2):
        row = raw.strip()
        if not row:
            continue
        parts = row.split(",")
        if len(parts) != 2:
            raise WaveformFormatError(f"expected 2 comma-separated fields, got {len(parts)}", line=lineno)
        try:
            t, v = float(parts[0]), float(parts[1])
        except ValueError:
            raise WaveformFormatError(f"unparseable number in {row!r}", line=lineno) from None
        if len(times) == cap:
            raise WaveformFormatError(f"the record is over the limit of {cap} samples")
        times.append(t)
        volts.append(v)
    t, v = np.array(times), np.array(volts)
    finite = np.isfinite(t) & np.isfinite(v)
    if not finite.all():
        data_lines = [n for n, raw in enumerate(lines[1:], start=2) if raw.strip()]
        raise WaveformFormatError(
            "non-finite value (nan or inf)", line=data_lines[int(np.argmin(finite))]
        )
    if t.size < 3:
        raise WaveformFormatError(
            f"need at least 3 samples to establish a rate, found {t.size}"
        )
    dt = np.diff(t)
    med = float(np.median(dt))
    if med <= 0 or np.any(np.abs(dt - med) > UNIFORMITY_TOL * abs(med)):
        raise WaveformFormatError(
            "non-uniform sampling: time steps deviate beyond 1e-6 relative from the median"
        )
    return Waveform(sample_rate=1.0 / med, samples=v, start_time=float(t[0]))


def reference_extract_peaks(w, hysteresis=0.0):
    if hysteresis < 0:
        raise ValueError(f"hysteresis must be >= 0 V (got {hysteresis})")
    v = w.samples
    seek_max = True
    cmax, imax = v[0], 0
    cmin = v[0]
    picked = []
    for i in range(1, v.size):
        x = v[i]
        if seek_max:
            if x > cmax:
                cmax, imax = x, i
            elif x <= cmax - hysteresis:
                if cmax > 0:
                    picked.append(imax)
                seek_max = False
                cmin = x
        else:
            if x < cmin:
                cmin = x
            elif x >= cmin + hysteresis:
                seek_max = True
                cmax, imax = x, i
    if len(picked) < 2:
        raise ValueError(
            f"found only {len(picked)} confirmed peak(s); need at least 2 "
            "(record too short, hysteresis too large, or no ring-down present)"
        )
    t0, rate = w.start_time, w.sample_rate
    times = []
    values = []
    for i in picked:
        ti, vi = i / rate, float(v[i])
        if 0 < i < v.size - 1:
            y1, y2, y3 = float(v[i - 1]), float(v[i]), float(v[i + 1])
            den = y1 - 2.0 * y2 + y3
            if den < 0:
                d = 0.5 * (y1 - y3) / den
                if abs(d) <= 1.0:
                    ti = (i + d) / rate
                    vi = y2 - 0.25 * (y1 - y3) * d
        times.append(t0 + ti)
        values.append(vi)
    times = np.array(times)
    values = np.array(values)
    spacing = np.diff(times)
    med = float(np.median(spacing))
    irregular = bool(np.any(np.abs(spacing - med) > SPACING_BAND * med))
    return PeakList(times=times, values=values, irregular_spacing=irregular)


def outcome(fn, *args, **kwargs):
    """What a call gives: ("ok", result) or (exception type, message, line)."""
    try:
        return "ok", fn(*args, **kwargs)
    except (ValueError, UnicodeError) as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


def assert_same_load(source, cap=None):
    """load_waveform and the whole-text reader agree on a fresh source."""
    new = outcome(load_waveform, source())
    old = outcome(reference_load_waveform, source(), cap=cap)
    if old[0] != "ok":
        assert new == old
        return
    assert new[0] == "ok"
    assert new[1].sample_rate == old[1].sample_rate and new[1].start_time == old[1].start_time
    assert np.array_equal(new[1].samples, old[1].samples)


def line_grammar_only():
    """Sends every piece to the line grammar, none to numpy."""
    return mock.patch.object(waveform_io, "_parse_piece", lambda lines, rows: None)


def assert_same_columns(text):
    """The reader's ``(t, v)`` columns of ``text``, before any check on
    them, are the line grammar's."""

    def columns():
        with io.TextIOWrapper(io.BytesIO(text.encode()), encoding="utf-8", newline=None) as stream:
            return outcome(waveform_io._read, stream)

    new = columns()
    with line_grammar_only():
        old = columns()
    assert new[0] == old[0] == "ok"
    assert all(np.array_equal(a, b) for a, b in zip(new[1], old[1]))


def no_line_grammar():
    """Fails a load that sends any piece to the line grammar."""

    def refuse(lines, lineno, rows):
        raise AssertionError(f"line {lineno} went to the line grammar")

    return mock.patch.object(waveform_io, "_parse_lines", refuse)


def synth(q=300.0, f0=50e3, rate=5e6, periods=None, noise=0.0, seed=0, v0=1.0):
    params = ResonatorParams(f0=f0, q=q, v0=v0)
    T = derive_dynamics(params).pseudo_period
    if periods is None:
        periods = count_pseudo_periods(params, MeasurementConfig(6.0, FIRST)) + 5
    return params, synth_waveform(params, rate, periods * T, noise_rms=noise, seed=seed)


class TestCsvRoundTrip:
    def test_bit_exact(self, tmp_path):
        _, w = synth(periods=20, noise=1e-4, seed=3)
        path = tmp_path / "wave.csv"
        waveform_to_csv(w, path)
        loaded = load_waveform(path)
        assert np.array_equal(loaded.samples, w.samples)
        assert loaded.sample_rate == pytest.approx(w.sample_rate, rel=1e-9)
        assert loaded.start_time == 0.0

    def test_write_determinism(self, tmp_path):
        _, w = synth(periods=10, noise=1e-4, seed=5)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        waveform_to_csv(w, a)
        waveform_to_csv(w, b)
        assert a.read_bytes() == b.read_bytes()

    def test_header_and_first_row(self):
        _, w = synth(periods=5)
        buf = io.StringIO()
        waveform_to_csv(w, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "t,v"
        assert lines[1] == "0,1"

    def test_stream_sources(self):
        _, w = synth(periods=5)
        buf = io.StringIO()
        waveform_to_csv(w, buf)
        text = buf.getvalue()
        from_text = load_waveform(io.StringIO(text))
        from_bytes = load_waveform(io.BytesIO(text.encode()))
        assert np.array_equal(from_text.samples, from_bytes.samples)

    def test_shuffled_timestamps_rejected(self):
        text = "t,v\n0,1\n2e-7,0.9\n1e-7,0.8\n3e-7,0.7\n"
        with pytest.raises(WaveformFormatError) as err:
            load_waveform(io.StringIO(text))
        assert "non-uniform" in str(err.value)

    def test_header_only_rejected(self):
        with pytest.raises(WaveformFormatError):
            load_waveform(io.StringIO("t,v\n"))
        with pytest.raises(WaveformFormatError):
            load_waveform(io.StringIO(""))

    def test_malformed_row_reports_line(self):
        text = "t,v\n0,1\n1e-7,0.9\n2e-7,not_a_number\n"
        with pytest.raises(WaveformFormatError) as err:
            load_waveform(io.StringIO(text))
        assert err.value.line == 4
        assert "line 4" in str(err.value)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "infinity"])
    def test_non_finite_cell_reports_line(self, cell):
        # the blank line still counts toward the reported line number
        for row in (f"2e-7,{cell}", f"{cell},0.8"):
            text = f"t,v\n0,1\n\n1e-7,0.9\n{row}\n3e-7,0.7\n"
            with pytest.raises(WaveformFormatError) as err:
                load_waveform(io.StringIO(text))
            assert err.value.line == 5
            assert "line 5" in str(err.value) and "non-finite" in str(err.value)

    def test_wrong_header_rejected(self):
        with pytest.raises(WaveformFormatError):
            load_waveform(io.StringIO("time,volts\n0,1\n1,2\n2,3\n"))

    def test_too_few_rows_rejected(self):
        with pytest.raises(WaveformFormatError):
            load_waveform(io.StringIO("t,v\n0,1\n1e-7,0.9\n"))


# what a writer or a hand edit may leave in a cell
CELLS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from([
        "1_000", "#1", "\u0661", "\u0661.\u0665", "\uff11", "1e5", "+.5", "-0", "1.", ".", "",
        "nan", "-inf", "Infinity", "0x10", "1e400", " 2 ", "\t3", "1d5", "\u20034", "1\x00",
    ]),
)
# between and after the cells of a row
SEPARATORS = st.sampled_from([",", ",", ",", " , ", ",\x0c", "\x1c,", ",\x85", ",,", ";"])
TAILS = st.sampled_from(["", "", "", ",", " ", "\x0c", "\t", "\u2028"])
# a whole line slipped between rows
INSERTS = st.sampled_from(["", "   ", "\t", "\x0c", "\x0b", "\x1d", "\x1e", "#comment", ",", "1", "\ufeff"])
HEADERS = st.sampled_from(["t,v", "t,v", "t,v", "t,v", "\ufefft,v", "\ufeff\ufefft,v", " t,v\t", "t,v\x0c", "time,volts", ""])
ENDINGS = st.sampled_from(["\n", "\n", "\n", "\r\n", "\r"])


@st.composite
def csv_records(draw):
    """A ``t,v`` record on a uniform grid with at most a few faults."""
    dt = draw(st.sampled_from([1e-7, 0.5, 3.0]))
    lines = [draw(HEADERS)]
    for i in range(draw(st.integers(0, 12))):
        if draw(st.integers(0, 5)):
            cells = repr(i * dt), repr(draw(st.floats(-10, 10)))
            lines.append(cells[0] + "," + cells[1])
        else:
            lines.append(draw(CELLS) + draw(SEPARATORS) + draw(CELLS) + draw(TAILS))
        if not draw(st.integers(0, 6)):
            lines.append(draw(INSERTS))
    text = "".join(line + draw(ENDINGS) for line in lines)
    return text if draw(st.booleans()) else text.rstrip("\r\n")


class TestStreamedReader:
    @settings(max_examples=400, deadline=None)
    @given(text=csv_records(), as_bytes=st.booleans())
    def test_same_outcome_as_whole_text_reader(self, text, as_bytes):
        assert_same_load(lambda: io.BytesIO(text.encode()) if as_bytes else io.StringIO(text))

    @settings(max_examples=400, deadline=None)
    @given(text=csv_records(), read_bytes=st.sampled_from([1, 2, 1 << 16]), cap=st.sampled_from([3, 5, 2**24]))
    def test_fast_path_agrees_with_line_parser(self, text, read_bytes, cap):
        with mock.patch.object(waveform_io, "_READ_BYTES", read_bytes), mock.patch.object(waveform_io, "MAX_SAMPLES", cap):
            assert_same_load(lambda: io.BytesIO(text.encode()), cap=cap)
            with line_grammar_only():
                assert_same_load(lambda: io.BytesIO(text.encode()), cap=cap)

    @pytest.mark.parametrize("read_bytes", [1, 2, 1 << 16])
    def test_a_blank_line_at_the_cap_keeps_every_row(self, monkeypatch, read_bytes):
        # a whitespace-only line after the last row once truncated the record
        monkeypatch.setattr(waveform_io, "MAX_SAMPLES", 3)
        monkeypatch.setattr(waveform_io, "_READ_BYTES", read_bytes)
        text = "t,v\n0.0,0.0\n1e-07,0.0\n2e-07,0.0\n   \n"
        w = load_waveform(io.StringIO(text))
        assert w.times().tolist() == [0.0, 1e-07, 2e-07] and w.samples.tolist() == [0.0] * 3
        # and a fourth row past a blank line is refused, not dropped
        over = "t,v\n0.0,0.0\n   \n1e-07,0.0\n2e-07,0.0\n3e-07,0.0\n"
        with pytest.raises(WaveformFormatError, match="over the limit of 3 samples"):
            load_waveform(io.StringIO(over))

    def test_fast_path_takes_written_records(self):
        _, w = synth(periods=20, noise=1e-4, seed=3)
        buf = io.StringIO()
        waveform_to_csv(w, buf)
        lf = buf.getvalue()
        for text in (lf, "\ufeff" + lf.replace("\n", "\r\n"), lf.replace("\n", "\r")):
            with no_line_grammar():
                assert_same_load(lambda: io.BytesIO(text.encode()))
                assert np.array_equal(load_waveform(io.BytesIO(text.encode())).samples, w.samples)

    @pytest.mark.parametrize(
        "text",
        [
            "t,v\n0,1\n1_000,2\n",
            "t,v\n0,\u0661\n1,2\n2,3\n",
            "t,v\n0,1\n1,nan\n2,3\n",
            pytest.param("t,v\n0,1\n1\x1f,2\n2,3\n", id="US"),  # numpy strips U+001F from a cell, float() does not
        ],
    )
    def test_line_parser_decides_unusual_records(self, text):
        assert_same_load(lambda: io.StringIO(text))
        with no_line_grammar(), pytest.raises(AssertionError, match="line 1 went to the line grammar"):
            load_waveform(io.StringIO(text))

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param("t,v\n0,1\n  \n1,2\n2,3\n", id="spaces"),
            "t,v\n \t\x1f\n0,1\n1,2\n\n\t\n2,3\n   ",
            "\ufefft,v\r\n0,1\r\n \r\n1,2\r \r2,3\r\n\t",
            "t,v\n5,1\n 6 , 2\n\t7,3\x1f\n",
            pytest.param("t,v\n0,1\n1,2\x0c3,4\n2,5\n", id="FF"),  # a form feed splits a line
        ],
    )
    def test_whitespace_only_lines_are_skipped(self, text):
        assert_same_columns(text)
        assert_same_load(lambda: io.StringIO(text))

    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.lists(
            st.one_of(st.integers(0, 20).map(lambda i: f"{i},{i / 7!r}"), st.text(" \t\x1f", max_size=3)),
            max_size=12,
        ),
        ending=ENDINGS,
        read_bytes=st.sampled_from([1, 2, 3, 7, 1 << 16]),
    )
    def test_blank_lines_emptied_at_any_read_size(self, rows, ending, read_bytes):
        # times must rise, so each data row gets its own from its position
        rows = [f"{i}," + r.split(",")[1] if "," in r else r for i, r in enumerate(rows)]
        text = "t,v" + ending + ending.join(rows)
        with mock.patch.object(waveform_io, "_READ_BYTES", read_bytes):
            assert_same_columns(text)
            assert_same_load(lambda: io.BytesIO(text.encode()))

    @settings(max_examples=300, deadline=None)
    @given(text=csv_records(), read_bytes=st.sampled_from([1, 2, 3, 7]))
    def test_any_read_size_agrees_with_line_parser(self, text, read_bytes):
        with mock.patch.object(waveform_io, "_READ_BYTES", read_bytes):
            assert_same_load(lambda: io.BytesIO(text.encode()))
            with line_grammar_only():
                assert_same_load(lambda: io.BytesIO(text.encode()))

    def test_a_blank_line_costs_little(self, tmp_path):
        # the same 250,000-sample record with and without a trailing blank line
        w = synth_waveform(ResonatorParams(f0=50e3, q=2000.0), 2.5e6, 0.1, noise_rms=1e-3, seed=1)
        plain, blank = tmp_path / "plain.csv", tmp_path / "blank.csv"
        waveform_to_csv(w, plain)
        blank.write_bytes(plain.read_bytes() + b"   \n")
        best = {plain: math.inf, blank: math.inf}
        for _ in range(5):  # interleaved, in CPU time, so host noise hits both alike
            for path in best:
                start = time.process_time()
                loaded = load_waveform(path)
                best[path] = min(best[path], time.process_time() - start)
                assert np.array_equal(loaded.samples, w.samples)
        assert best[blank] <= 1.2 * best[plain]

    def test_crlf_and_bom_path(self, tmp_path):
        path = tmp_path / "wave.csv"
        path.write_bytes("\ufefft,v\r\n0,1\r\n0.5,-1\r\n1,0.25\r\n".encode())
        w = load_waveform(path)
        assert w.sample_rate == 2.0 and w.samples.tolist() == [1.0, -1.0, 0.25]

    def test_lone_surrogate_in_a_text_stream(self):
        # worded as the cell's parse error, not as an encoding error
        assert_same_load(lambda: io.StringIO("t,v\n0,1\n1,\ud800\n2,3\n"))
        with pytest.raises(WaveformFormatError, match="line 3: unparseable number"):
            load_waveform(io.StringIO("t,v\n0,1\n1,\ud800\n2,3\n"))

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_named_pipe_path(self, tmp_path):
        path = tmp_path / "wave.fifo"
        os.mkfifo(path)
        writer = threading.Thread(target=path.write_text, args=("t,v\n0,1\n1,2\n2,3\n",))
        writer.start()
        try:
            w = load_waveform(path)
        finally:
            writer.join()
        assert w.samples.tolist() == [1.0, 2.0, 3.0]

    def test_bad_byte_reported_at_its_file_offset(self, tmp_path):
        data = b"t,v\n" + b"".join(b"%d,0.5\n" % i for i in range(20_000)) + b"7,\xff\n"
        path = tmp_path / "wave.csv"
        path.write_bytes(data)
        with pytest.raises(UnicodeDecodeError) as err:
            load_waveform(path)
        assert str(err.value) == str(outcome(reference_load_waveform, path)[1])
        assert f"position {len(data) - 2}" in str(err.value)

    def test_bad_byte_reported_at_its_offset_from_the_stream_position(self):
        skipped, record = b"\xfe,\xff\n", b"t,v\n0,1\n1,2\n2,\xff\n"
        stream = io.BytesIO(skipped + record)
        stream.seek(len(skipped))
        with pytest.raises(UnicodeDecodeError) as err:
            load_waveform(stream)
        assert str(err.value) == str(outcome(reference_load_waveform, io.BytesIO(record))[1])
        assert f"position {len(record) - 2}" in str(err.value)

    @pytest.mark.parametrize(
        "data,error",
        [
            (b"t,v\n0,1\n1,2\n2,3\n", None),
            (b"t,v\n0,1\n1,x\n2,3\n", WaveformFormatError),
            (b"t,v\n0,1\n1,2\n2,\xff\n", UnicodeDecodeError),
        ],
        ids=["good", "row-error", "bad-byte"],
    )
    @pytest.mark.parametrize("as_text", [False, True])
    def test_a_callers_stream_stays_open(self, data, error, as_text):
        stream = io.BytesIO(data)
        if as_text:
            stream = io.TextIOWrapper(stream, encoding="utf-8")
        try:
            if error is None:
                assert load_waveform(stream).samples.tolist() == [1.0, 2.0, 3.0]
            else:
                with pytest.raises(error):
                    load_waveform(stream)
            assert not stream.closed and stream.seek(0) == 0  # a closed stream refuses to seek
        finally:
            stream.close()

    @pytest.mark.parametrize("unusual", [False, True])
    def test_record_cap(self, monkeypatch, unusual):
        monkeypatch.setattr(waveform_io, "MAX_SAMPLES", 4)
        first = "0,1_000" if unusual else "0,1"  # 1_000 leaves the row to the line parser
        rows = [first] + [f"{i},1" for i in range(1, 6)]
        fits = "t,v\n" + "\n".join(rows[:4]) + "\n"
        assert len(load_waveform(io.StringIO(fits))) == 4
        # the fifth row is refused before a malformed sixth is read
        over = "t,v\n" + "\n".join(rows[:5]) + "\nnot,a,row\n"
        with pytest.raises(WaveformFormatError) as err:
            load_waveform(io.StringIO(over))
        assert str(err.value) == "the record is over the limit of 4 samples"
        assert err.value.line is None

    def test_memory_is_bounded_by_the_arrays(self, tmp_path):
        # the whole-text reader peaked at 48.9 MB on this record
        params = ResonatorParams(f0=50e3, q=2000.0, v0=1.0)
        w = synth_waveform(params, 2.5e6, 0.1, noise_rms=1e-3, seed=1)
        path = tmp_path / "wave.csv"
        waveform_to_csv(w, path)
        lf = path.read_bytes()
        lines = lf.split(b"\n")  # row i is on line i + 2
        t, v = lines[5_001].split(b",")
        grouped = lines[:5_001] + [t + b"," + v[:3] + b"_" + v[3:]] + lines[5_002:]  # numpy refuses 0.8_55...
        nan = lines[:200_001] + [lines[200_001].split(b",")[0] + b",nan"] + lines[200_002:]
        for data in (lf, lf.replace(b"\n", b"\r"), b"\n".join(grouped), b"\n".join(nan)):
            path.write_bytes(data)
            tracemalloc.start()
            try:
                loaded = outcome(load_waveform, path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            if b"nan" in data:
                assert loaded == (WaveformFormatError, "line 200002: non-finite value (nan or inf)", 200_002)
            else:
                assert np.array_equal(loaded[1].samples, w.samples)
            assert peak < 48.9e6 / 2

    def test_an_open_file_streams_like_its_path(self, tmp_path):
        # a file object was read whole and copied: 1.4-1.6x the path's peak
        w = synth_waveform(ResonatorParams(f0=50e3, q=2000.0), 2.5e6, 0.1, noise_rms=1e-3, seed=1)
        path = tmp_path / "wave.csv"
        waveform_to_csv(w, path)

        def peak(load):
            tracemalloc.start()
            try:
                assert np.array_equal(load().samples, w.samples)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        def from_file(**mode):
            with open(path, **mode) as stream:
                return load_waveform(stream)

        by_path = peak(lambda: load_waveform(path))
        assert peak(lambda: from_file(mode="rb")) <= 1.1 * by_path
        assert peak(lambda: from_file(mode="r", encoding="utf-8")) <= 1.1 * by_path


class TestExtractPeaks:
    def test_clean_peaks_match_closed_forms(self):
        params, w = synth(periods=105)
        peaks = extract_peaks(w)
        assert len(peaks) >= 100
        assert not peaks.irregular_spacing
        dt = 1.0 / w.sample_rate
        for m in range(100):
            assert abs(peaks.times[m] - peak_time(params, m)) < 0.5 * dt
            assert abs(peaks.values[m] - peak_value(params, m)) < 1e-4 * params.v0

    def test_first_peak_is_initial_sample(self):
        params, w = synth(periods=10)
        peaks = extract_peaks(w)
        assert peaks.times[0] == 0.0
        assert peaks.values[0] == params.v0

    def test_noise_with_hysteresis_keeps_count(self):
        _, clean = synth(periods=103, rate=5e6)
        _, noisy = synth(periods=103, rate=5e6, noise=1e-3, seed=11)
        n_clean = len(extract_peaks(clean))
        n_noisy = len(extract_peaks(noisy, hysteresis=1e-2))
        assert abs(n_noisy - n_clean) <= 1  # trailing peak may lose confirmation

    def test_zero_hysteresis_equals_positive_on_clean_signal(self):
        _, w = synth(periods=60)
        a = extract_peaks(w, hysteresis=0.0)
        b = extract_peaks(w, hysteresis=1e-2)
        assert len(a) == len(b)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.values, b.values)

    def test_never_more_peaks_than_half_cycles(self):
        params, w = synth(periods=40)
        T = derive_dynamics(params).pseudo_period
        half_cycles = int(len(w) / w.sample_rate / (T / 2)) + 1
        assert len(extract_peaks(w)) <= half_cycles

    def test_leading_negative_lobe_skipped(self):
        # record starting inside a trough still yields positive maxima only
        params = ResonatorParams(f0=50e3, q=50.0, v0=1.0)
        T = derive_dynamics(params).pseudo_period
        full = synth_waveform(params, 5e6, 20 * T)
        start = int(0.4 * T * 5e6)  # mid negative lobe
        w = Waveform(sample_rate=5e6, samples=full.samples[start:])
        peaks = extract_peaks(w)
        assert np.all(peaks.values > 0)
        # first reported peak is the true maximum 1 of the original trace
        assert peaks.values[0] == pytest.approx(peak_value(params, 1), abs=1e-4)

    def test_refuses_negative_hysteresis(self):
        _, w = synth(periods=5)
        with pytest.raises(ValueError) as err:
            extract_peaks(w, hysteresis=-0.1)
        assert str(err.value) == "hysteresis must be >= 0 V (got -0.1)"

    def test_too_few_peaks_raises(self):
        params = ResonatorParams(f0=50e3, q=300.0, v0=1.0)
        w = synth_waveform(params, 5e6, 0.5 / 50e3)
        with pytest.raises(ValueError):
            extract_peaks(w)

    def test_irregular_spacing_flagged(self):
        t = np.array([0.0, 1.0, 2.0, 2.4, 4.0])
        peaks = PeakList(times=t, values=np.ones(5))
        assert peaks.irregular_spacing is False  # constructor does not flag
        # the extraction pipeline does: build a trace with a dropped cycle
        rate = 1000.0
        tt = np.arange(0, 6.0, 1 / rate)
        v = np.sin(2 * np.pi * tt)
        v[(tt >= 1.95) & (tt <= 2.55)] = -0.5  # swallow one positive lobe
        w = Waveform(sample_rate=rate, samples=v)
        assert extract_peaks(w).irregular_spacing

    @settings(max_examples=500, deadline=None)
    @given(
        runs=st.lists(st.tuples(st.integers(-4, 4), st.integers(1, 3)), min_size=1, max_size=40),
        hysteresis=st.integers(0, 3),
        rate=st.sampled_from([1.0, 3.0, 5e6]),
        start=st.sampled_from([0.0, -2.5, 1e-3]),
    )
    def test_turning_points_match_full_loop(self, runs, hysteresis, rate, start):
        # integer samples with plateaus: ties at every turn
        samples = np.array([float(v) for v, n in runs for _ in range(n)])
        w = Waveform(sample_rate=rate, samples=samples, start_time=start)
        self.assert_same_peaks(w, float(hysteresis))

    @settings(max_examples=200, deadline=None)
    @given(
        samples=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=60),
        hysteresis=st.floats(0, 50),
    )
    def test_turning_points_match_full_loop_on_floats(self, samples, hysteresis):
        self.assert_same_peaks(Waveform(sample_rate=1e6, samples=np.array(samples)), hysteresis)

    @pytest.mark.parametrize("noise,hysteresis", [(0.0, 0.0), (1e-4, 1e-3), (1e-2, 0.0), (1e-2, 5e-2)])
    def test_turning_points_match_full_loop_on_ringdowns(self, noise, hysteresis):
        _, w = synth(q=50.0, periods=40, noise=noise, seed=4)
        self.assert_same_peaks(w, hysteresis)

    @staticmethod
    def assert_same_peaks(w, hysteresis):
        new = outcome(extract_peaks, w, hysteresis)
        old = outcome(reference_extract_peaks, w, hysteresis)
        if old[0] != "ok":
            assert new == old
            return
        assert new[0] == "ok"
        assert np.array_equal(new[1].times, old[1].times)
        assert np.array_equal(new[1].values, old[1].values)
        assert new[1].irregular_spacing == old[1].irregular_spacing

    def test_peaklist_csv(self, tmp_path):
        _, w = synth(periods=12)
        peaks = extract_peaks(w)
        path = tmp_path / "peaks.csv"
        peaklist_to_csv(peaks, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "m,t,v"
        assert len(lines) == len(peaks) + 1
        assert lines[1].startswith("0,0,1")


class TestMeasureCounting:
    def test_reference_scenario(self):
        params, w = synth()
        peaks = extract_peaks(w)
        result = measure_q_counting(peaks, MeasurementConfig(6.0, LAST))
        assert result.n == 171
        assert result.q_measured == pytest.approx(299.82, abs=0.01)
        assert result.threshold_used == pytest.approx(1 / 6, rel=1e-6)
        assert result.t_measure == pytest.approx(
            171 * derive_dynamics(params).pseudo_period, rel=1e-4
        )

    def test_exact_ratio_two_peaks(self):
        peaks = PeakList(times=np.array([0.0, 1.0]), values=np.array([1.0, 0.25]))
        result = measure_q_counting(peaks, MeasurementConfig(4.0, FIRST))
        assert result.n == 1

    def test_truncated_record_reports_missing_duration(self):
        _, w = synth(periods=100)  # threshold sits near period 171
        peaks = extract_peaks(w)
        with pytest.raises(InsufficientRecordError) as err:
            measure_q_counting(peaks, MeasurementConfig(6.0, LAST))
        extra = err.value.extra_seconds
        T = derive_dynamics(ResonatorParams(50e3, 300.0, 1.0)).pseudo_period
        # about 72 more pseudo-periods were needed
        assert extra == pytest.approx(72 * T, rel=0.05)

    def test_rejects_degenerate_inputs(self):
        peaks = PeakList(times=np.array([0.0]), values=np.array([1.0]))
        with pytest.raises(ValueError):
            measure_q_counting(peaks, MeasurementConfig(6.0, LAST))
        # immediate crossing leaves LAST_ABOVE with nothing counted
        pair = PeakList(times=np.array([0.0, 1.0]), values=np.array([1.0, 0.1]))
        with pytest.raises(ValueError):
            measure_q_counting(pair, MeasurementConfig(6.0, LAST))

    def test_failure_messages(self):
        def message(values, k=6.0):
            peaks = PeakList(times=np.arange(len(values), dtype=float), values=np.array(values))
            with pytest.raises(ValueError) as err:
                measure_q_counting(peaks, MeasurementConfig(k, LAST))
            return str(err.value)

        assert message([-0.5, 0.1]) == "first peak must be positive (got -0.5)"
        assert message([1.0, 0.1]) == (
            "measurement degenerate: the first maximum after V0 is already at or below the threshold"
        )
        with pytest.raises(InsufficientRecordError) as err:
            measure_q_counting(PeakList(np.arange(3.0), np.array([1.0, 1.0, 1.0])), MeasurementConfig(6.0))
        assert str(err.value) == (
            "insufficient record length: the envelope stays above the threshold 0.166667 V across all 3 peaks"
        )
        assert err.value.extra_seconds is None

    def test_result_has_no_relative_error(self):
        result = measure_q_counting(extract_peaks(synth()[1]), MeasurementConfig(6.0, LAST))
        assert result.relative_error is None and result.threshold_used == 1.0 / 6.0

    @pytest.mark.parametrize(
        "times,values",
        [([0.0, math.nan], [1.0, 0.5]), ([0.0, math.inf], [1.0, 0.5]),
         ([0.0, 1.0], [math.nan, 0.5]), ([0.0, 1.0], [1.0, -math.inf])],
    )
    def test_peaklist_refuses_non_finite(self, times, values):
        with pytest.raises(ValueError, match="peak times and values must be finite"):
            PeakList(times=np.array(times), values=np.array(values))

    @pytest.mark.parametrize(
        "times,values,message",
        [
            ([0.0, 1.0], [1.0], "times and values must be matching 1-D arrays"),
            ([[0.0, 1.0]], [[1.0, 0.5]], "times and values must be matching 1-D arrays"),
            ([0.0, 2.0, 1.0], [1.0, 0.5, 0.25], "peak times must be strictly increasing"),
            ([0.0, 1.0, 1.0], [1.0, 0.5, 0.25], "peak times must be strictly increasing"),
        ],
    )
    def test_peaklist_refuses_bad_shapes_and_order(self, times, values, message):
        with pytest.raises(ValueError) as err:
            PeakList(times=np.array(times), values=np.array(values))
        assert str(err.value) == message

    def test_median_spacing_needs_two_peaks(self):
        with pytest.raises(ValueError) as err:
            PeakList(times=np.array([0.0]), values=np.array([1.0])).median_spacing()
        assert str(err.value) == "need at least 2 peaks for a spacing"


class TestLogDecrementFit:
    @pytest.mark.parametrize("n", [2, 5, 40, 300])
    def test_log_fit_slope_is_polyfits(self, n):
        values = np.exp(-0.01 * np.arange(n)) * (1 + 1e-3 * np.sin(np.arange(n)))
        fit = log_fit(values)
        slope, intercept = np.polyfit(np.arange(n), np.log(values), 1)
        assert fit.slope == slope and fit.intercept == intercept
        resid = np.log(values) - (slope * np.arange(n) + intercept)
        assert fit.rms == pytest.approx(math.sqrt(np.mean(resid**2)), rel=1e-12)

    def test_log_fit_residual_vanishes_on_a_pure_decay(self):
        fit = log_fit(0.5 * np.exp(-0.02 * np.arange(50)))
        assert fit.slope == pytest.approx(-0.02, rel=1e-12)
        assert fit.intercept == pytest.approx(math.log(0.5), rel=1e-12)
        assert fit.rms < 1e-12

    def test_recovers_q300(self):
        _, w = synth(periods=120)
        peaks = extract_peaks(w)
        assert fit_q_log_decrement(peaks) == pytest.approx(300.0, rel=1e-3)

    def test_recovers_q2_with_full_correction(self):
        # at Q=2 the sqrt(1 - 1/(4Q^2)) correction is material: the naive
        # pi/delta estimate would be off by ~1.6%
        params, w = synth(q=2.0, f0=50e3, rate=10e6, periods=8)
        peaks = extract_peaks(w)
        q = fit_q_log_decrement(peaks)
        assert q == pytest.approx(2.0, rel=1e-3)
        delta = math.pi / (2.0 * math.sqrt(1 - 1 / 16))
        assert abs(math.pi / delta - 2.0) / 2.0 > 0.01

    def test_constant_peaks_degenerate(self):
        peaks = PeakList(times=np.arange(5.0), values=np.ones(5))
        with pytest.raises(ValueError):
            fit_q_log_decrement(peaks)

    def test_rejects_short_or_nonpositive(self):
        with pytest.raises(ValueError):
            fit_q_log_decrement(
                PeakList(times=np.arange(4.0), values=np.array([1, 0.9, 0.8, 0.7]))
            )
        vals = np.array([1.0, 0.5, 0.25, -0.1, 0.06])
        with pytest.raises(ValueError):
            fit_q_log_decrement(PeakList(times=np.arange(5.0), values=vals))

    @pytest.mark.parametrize("q", [5.0, 50.0, 300.0, 2000.0])
    def test_round_trip_synth_extract_fit(self, q):
        params = ResonatorParams(f0=50e3, q=q, v0=1.0)
        T = derive_dynamics(params).pseudo_period
        n_cross = count_pseudo_periods(params, MeasurementConfig(6.0, FIRST))
        w = synth_waveform(params, 50 * 50e3, (n_cross + 5) * T)
        peaks = extract_peaks(w)
        assert fit_q_log_decrement(peaks) == pytest.approx(q, rel=1e-3)

    def test_counting_vs_fit_within_quantization(self):
        for q in (5.0, 50.0, 300.0, 2000.0):
            params = ResonatorParams(f0=50e3, q=q, v0=1.0)
            T = derive_dynamics(params).pseudo_period
            n_cross = count_pseudo_periods(params, MeasurementConfig(6.0, FIRST))
            w = synth_waveform(params, 50 * 50e3, (n_cross + 5) * T)
            peaks = extract_peaks(w)
            counting = measure_q_counting(peaks, MeasurementConfig(6.0, LAST))
            fitted = fit_q_log_decrement(peaks)
            quantum = q_from_count(counting.n + 1, 6.0) - q_from_count(counting.n, 6.0)
            assert abs(counting.q_measured - fitted) <= quantum


class TestRecordFormat:
    def test_single_line_key_values(self):
        peaks = PeakList(
            times=np.arange(6.0) * 1e-4,
            values=np.array([1.0, 0.8, 0.64, 0.512, 0.41, 0.328]),
        )
        config = MeasurementConfig(2.0, LAST)
        result = measure_q_counting(peaks, config)
        record = measurement_record(result, config)
        assert "\n" not in record
        assert record.startswith(f"n={result.n} q=")
        assert "threshold=0.5" in record
        assert "convention=last_above" in record
