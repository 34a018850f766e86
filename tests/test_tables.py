"""Shared table plumbing: number formatting and CSV emission rules."""

import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfm import (
    CircuitNonIdealities,
    ResonatorParams,
    SweepTable,
    synth_waveform,
    tables,
    waveform_to_csv,
    worst_case_sweep,
)
from qfm.tables import _CSV_BLOCK, format_number, per_distinct


class TestFormatNumber:
    def test_integral_floats_drop_point(self):
        assert format_number(0.0) == "0"
        assert format_number(1.0) == "1"
        assert format_number(-3.0) == "-3"
        assert format_number(50000.0) == "50000"

    def test_floats_round_trip_exactly(self):
        for x in (0.1, -2.5e-7, 299.82433468018803, 1 / 3, 1e300, 5e-324):
            assert float(format_number(x)) == x

    def test_ints_and_bools(self):
        assert format_number(171) == "171"
        assert format_number(np.int64(7)) == "7"
        assert format_number(True) == "1"
        assert format_number(False) == "0"
        assert format_number(np.bool_(True)) == "1"

    def test_none_is_na(self):
        assert format_number(None) == "NA"

    def test_numpy_floats(self):
        assert float(format_number(np.float64(0.25))) == 0.25


class TestSweepTable:
    def test_append_checks_width(self):
        t = SweepTable(columns=("a", "b"))
        t.append(1, 2)
        with pytest.raises(ValueError):
            t.append(1, 2, 3)

    def test_extend_checks_column_lengths(self):
        t = SweepTable(columns=("a", "b"))
        with pytest.raises(ValueError) as err:
            t.extend([1, 2], [1])
        assert str(err.value) == "columns of a block must have equal length"

    def test_column_accessor_with_nones(self):
        t = SweepTable(columns=("x", "y"))
        t.append(1.0, 2.0)
        t.append(2.0, None)
        y = t.column("y")
        assert y[0] == 2.0 and np.isnan(y[1])
        with pytest.raises(ValueError):
            t.column("z")

    def test_csv_lf_endings(self):
        t = SweepTable(columns=("x",))
        t.append(1.5)
        buf = io.StringIO()
        t.to_csv(buf)
        assert buf.getvalue() == "x\n1.5\n"
        assert "\r" not in buf.getvalue()

    def test_to_csv_writes_block_by_block(self, tmp_path):
        # the text of a large table is never held whole, as one string
        # or as a list of its blocks
        table = SweepTable(columns=("t", "v"))
        table.extend(np.arange(100_000) / 3.0, np.arange(100_000) / 7.0)
        assert len(table) == 100_000  # joins the blocks before measuring
        path = tmp_path / "table.csv"
        tracemalloc.start()
        try:
            table.to_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.read_text(encoding="utf-8") == table.to_csv_string()
        assert peak < path.stat().st_size / 2

    def test_sweep_shaped_table_writes_block_by_block(self, tmp_path):
        # five columns, an int among them, formatted together per block
        rows = 100_000
        i = np.arange(rows)
        k = 4.0 + 0.25 * (i % 17)
        q_true = 100.0 + 0.5 * (i // 17)
        n = np.floor(k * q_true / np.pi).astype(np.int64)
        q_measured = np.pi * n / k
        table = SweepTable(columns=("k", "q_true", "n", "q_measured", "rel_error"))
        table.extend(k, q_true, n, q_measured, q_measured / q_true - 1.0)
        path = tmp_path / "sweep.csv"
        tracemalloc.start()
        try:
            table.to_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.read_text(encoding="utf-8") == table.to_csv_string()
        assert peak < path.stat().st_size / 2

    def test_single_block_is_read_in_place(self):
        # a table built by one extend answers len() and column() without
        # copying its columns first
        rows = 1_000_000
        table = SweepTable(columns=("n", "v"))
        table.extend(np.arange(rows), np.arange(rows) / 7.0, na=(None, np.arange(rows) % 5 == 0))
        column_bytes = rows * 8
        tracemalloc.start()
        try:
            assert len(table) == rows
            len_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            v = table.column("v")
            column_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len_peak < column_bytes / 10
        # the returned column is the only allocation
        assert column_peak - v.nbytes < column_bytes / 10
        assert np.isnan(v[::5]).all() and v[1] == 1 / 7.0

    def test_joined_blocks_keep_the_promoted_dtypes(self):
        # an NA cell is stored as a bool; joined with ints it gives ints,
        # with floats it gives floats
        t = SweepTable(columns=("n", "x"))
        t.append(None, None)
        t.append(3, 2.5)
        assert t.cells("n") == [None, 3] and type(t.cells("n")[1]) is int
        assert t.cells("x") == [None, 2.5]
        assert t.to_csv_string() == "n,x\nNA,NA\n3,2.5\n"
        single = SweepTable(columns=("n",))
        single.extend(np.arange(3))
        assert single.to_csv_string() == "n\n0\n1\n2\n"
        empty = SweepTable(columns=("a", "b"))
        assert len(empty) == 0 and empty.to_csv_string() == "a,b\n"
        assert empty.column("a").size == 0 and empty.rows == []


def per_cell_csv(table) -> str:
    """The CSV spelled out cell by cell through ``format_number``."""
    lines = [",".join(table.columns)]
    lines += [",".join(map(format_number, row)) for row in table.rows]
    return "\n".join(lines) + "\n"


def _neighbours(x):
    x = np.asarray(x, dtype=float)
    return np.concatenate([s * v for s in (1.0, -1.0) for v in (x, np.nextafter(x, 0), np.nextafter(x, np.inf))])


class TestShortestFloatText:
    """The vectorised float formatter against ``repr``, through
    ``format_number`` cell by cell."""

    def test_seeded_oracle(self):
        rng = np.random.default_rng(20_261_020)
        n = 125_000
        values = np.concatenate([
            rng.normal(size=n),
            rng.uniform(1.0, 10.0, n) * 10.0 ** rng.integers(-30, 18, n),
            rng.integers(-(2**63), 2**63 - 1, n, dtype=np.int64, endpoint=True).view(np.float64),
            np.arange(n) / 2.5e6,
            np.arange(n) / 44_100.0 + 3.0,
            rng.integers(-(2**53), 2**53, n, endpoint=True).astype(float),
            rng.integers(1, 10**6, n) / 10.0 ** rng.integers(0, 22, n),
            np.round(rng.uniform(-1e4, 1e4, n), 3),
            _neighbours(np.concatenate([np.ldexp(1.0, np.arange(-1074, 1024)),
                                        [float(f"1e{k}") for k in range(-323, 309)]])),
            # fmod's slow range, the exponent trap, the top of the int path
            1e15 + rng.uniform(-1e3, 1e3, 2048), [9.999999999999999e-16, 72057594037927937.0, -0.0, 0.0],
        ])
        assert values.size > 10**6
        table = SweepTable(columns=("x",))
        table.extend(values)
        assert table.to_csv_string() == per_cell_csv(table)

    def test_int_and_bool_columns_stay_integers(self):
        ints = np.array([-(2**63), 2**63 - 1, 72057594037927937, 2**53 + 1, 10**16, -1, 0])
        table = SweepTable(columns=("n", "b", "x"))
        table.extend(ints, ints % 2 == 0, -ints.astype(float),
                     na=(None, None, np.arange(ints.size) % 3 == 0))
        text = table.to_csv_string()
        assert text == per_cell_csv(table)
        assert "-9223372036854775808,1,NA\n9223372036854775807,0,-9.223372036854776e+18\n" in text
        assert "\n72057594037927937,0," in text

    def test_powers_of_ten_split_exactly(self):
        for p in range(tables._P.shape[1]):
            assert int(tables._P[0, p]) + int(tables._P[3, p]) == 10**p


NAN_PAYLOAD = float(np.array([0x7FF8000000000001]).view(np.float64)[0])
SPECIAL = (
    0.0, -0.0, float("inf"), float("-inf"), float("nan"), NAN_PAYLOAD, 1e16,
    9999999999999998.0, 5e-324, 1e-05, -1.0, -3.0, -1e15, 0.1, 1 / 3, 50000.0,
)
floats = st.one_of(st.sampled_from(SPECIAL), st.floats())


@st.composite
def blocks(draw, width):
    """One block of rows: per column a kind (bool, int or float), values
    drawn from a few distinct ones, and an NA mask."""
    rows = draw(st.integers(0, 3 * _CSV_BLOCK + 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns, masks = [], []
    for _ in range(width):
        kind = draw(st.sampled_from(["bool", "int", "float"]))
        if kind == "bool":
            pool = np.array([False, True])
        elif kind == "int":
            pool = np.array(draw(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=8)))
        else:
            pool = np.array(draw(st.lists(floats, min_size=1, max_size=20)), dtype=float)
        columns.append(pool[rng.integers(0, pool.size, rows)])
        na_share = draw(st.sampled_from([0.0, 0.0, 0.1, 1.0]))
        masks.append(rng.random(rows) < na_share if na_share else None)
    return columns, masks


class TestCsvAgainstPerCell:
    """The column formatter, which formats each distinct value of a block
    once, against ``format_number`` applied to every cell."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda w: st.lists(blocks(w), min_size=1, max_size=3)))
    def test_heavily_duplicated_blocks(self, drawn):
        table = SweepTable(columns=[f"c{i}" for i in range(len(drawn[0][0]))])
        for columns, masks in drawn:
            table.extend(*columns, na=masks)
        assert table.to_csv_string() == per_cell_csv(table)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(floats, st.one_of(st.none(), floats, st.integers(), st.booleans()))))
    def test_rows_appended_one_by_one(self, rows):
        table = SweepTable(columns=("x", "y"))
        for row in rows:
            table.append(*row)
        assert table.to_csv_string() == per_cell_csv(table)

    def test_distinct_values_past_a_block(self):
        values = np.arange(-2 * _CSV_BLOCK, 2 * _CSV_BLOCK + 7) / 4.0
        table = SweepTable(columns=("v", "w"))
        table.extend(values, -values[::-1], na=(values % 3 == 0, None))
        assert table.to_csv_string() == per_cell_csv(table)

    def test_signed_zeros_stay_apart(self):
        table = SweepTable(columns=("z",))
        table.extend(np.array([0.0, -0.0, 0.0, -0.0]))
        assert table.to_csv_string() == "z\n0\n-0\n0\n-0\n"


@pytest.fixture
def kernel_calls(monkeypatch):
    """The sizes of the arrays handed to ``_shortest``, one per call."""
    sizes = []
    shortest = tables._shortest

    def counted(x):
        sizes.append(x.size)
        return shortest(x)

    monkeypatch.setattr(tables, "_shortest", counted)
    return sizes


class TestOneKernelCallPerBlock:
    """Every float column of a block, and every int column within
    +-2^53, goes through one ``_shortest`` call; the text is that of
    ``format_number`` cell by cell."""

    def test_criterion_05_table(self, kernel_calls):
        pair = CircuitNonIdealities(comparator_offset=10e-3, divider_error=0.01)
        table = worst_case_sweep(np.arange(4.0, 8.01, 0.25), (100.0, 1000.0, 0.5), pair, f0=50e3)
        assert table.to_csv_string() == per_cell_csv(table)
        assert len(table) > 2 * _CSV_BLOCK
        assert len(kernel_calls) == -(-len(table) // _CSV_BLOCK)

    def test_ints_past_2_53_take_no_kernel_call(self, kernel_calls):
        table = SweepTable(columns=("n", "b"))
        table.extend(np.array([2**53 + 1, 3, -7]), np.array([True, False, True]))
        assert table.to_csv_string() == "n,b\n9007199254740993,1\n3,0\n-7,1\n"
        assert kernel_calls == []

    def test_ints_at_and_past_2_53(self, kernel_calls):
        edge = np.array([-(2**53), 2**53, 0, -1, 2**53 - 1])
        past = np.array([2**53 + 1, -(2**53 + 1), 0, 1, 2**53])
        table = SweepTable(columns=("edge", "past", "x"))
        table.extend(edge, past, edge / 2.0)
        text = table.to_csv_string()
        assert text == per_cell_csv(table)
        assert "\n-9007199254740992,9007199254740993,-4503599627370496\n" in text
        # edge and x share one call, in which their 0 is formatted once;
        # past goes through str
        assert kernel_calls == [2 * edge.size - 1]

    def test_uint64_past_int64(self):
        big = np.array([2**64 - 1, 2**63, 2**53, 5], dtype=np.uint64)
        table = SweepTable(columns=("big", "small"))
        table.extend(big, np.array([0, 1, 2**53, 7], dtype=np.uint64))
        assert table.to_csv_string() == per_cell_csv(table)
        assert table.to_csv_string().splitlines()[1] == "18446744073709551615,0"

    def test_int_and_bool_columns_with_na_cells(self):
        table = SweepTable(columns=("n", "b", "big", "x"))
        table.extend(np.array([1, 22, -333, 4]), np.array([True, False, True, False]),
                     np.array([2**60, 1, 2, 3]), np.array([0.5, 1.5, 2.5, 3.5]),
                     na=(np.array([True, False, False, True]), np.array([False, True, False, True]),
                         np.array([True, False, True, False]), None))
        assert table.to_csv_string() == per_cell_csv(table)
        assert table.to_csv_string() == "n,b,big,x\nNA,1,NA,0.5\n22,NA,1,1.5\n-333,1,NA,2.5\nNA,NA,3,3.5\n"

    def test_an_int_and_a_float_share_a_value(self, kernel_calls):
        table = SweepTable(columns=("n", "x"))
        table.extend(np.array([4, 4, 5]), np.array([4.0, 4.5, -4.0]))
        assert per_cell_csv(table) == "n,x\n4,4\n4,4.5\n5,-4\n"
        assert table.to_csv_string() == per_cell_csv(table)
        assert kernel_calls == [4]  # 4, 5, 4.5 and -4.0, each once


def _raw_bytes(a):
    """A row of a float's 8 bytes per value: a formatter that tells every
    bit pattern apart."""
    return a.view(np.uint8).reshape(a.size, 8)


class TestPerDistinct:
    """``per_distinct`` against its formatter applied to every cell."""

    @pytest.mark.parametrize("values", [
        [0.0, -0.0, 0.0, -0.0, 1.0],
        [float("nan"), NAN_PAYLOAD, -float("nan"), float("nan"), NAN_PAYLOAD],
        [2.5] * 7,
        list(np.arange(50) / 7.0),
        [],
        [-3.0],
        [1.0, float("inf"), -float("inf"), 1.0, 5e-324, -5e-324, 1 / 3],
    ], ids=["signed_zeros", "nan_payloads", "all_equal", "all_distinct", "empty", "one", "mixed"])
    @pytest.mark.parametrize("fmt", [_raw_bytes, tables._shortest], ids=["bytes", "shortest"])
    def test_equals_every_cell(self, values, fmt):
        values = np.array(values, dtype=float)
        seen = []

        def counted(a):
            seen.append(a.size)
            return fmt(a)

        out = per_distinct(values, counted)
        assert out.shape[0] == values.size
        assert np.array_equal(out, fmt(values))
        assert seen == [np.unique(values.view(np.int64)).size]


@pytest.fixture
def fallbacks(monkeypatch):
    """The values the writer hands to ``format_number``, its exact path."""
    seen = []

    def counted(x):
        seen.append(x)
        return format_number(x)

    monkeypatch.setattr(tables, "format_number", counted)
    return seen


class TestFallback:
    def test_none_on_a_noisy_record(self, fallbacks):
        wave = synth_waveform(ResonatorParams(f0=50e3, q=300.0, v0=1.0), 2.5e6, 60_000 / 2.5e6,
                              noise_rms=1e-3, seed=7)
        assert len(wave) == 60_000
        out = io.StringIO()
        waveform_to_csv(wave, out)
        assert out.getvalue().count("\n") == 60_001
        assert fallbacks == []

    def test_none_on_criterion_05_table(self, fallbacks):
        pair = CircuitNonIdealities(comparator_offset=10e-3, divider_error=0.01)
        table = worst_case_sweep(np.arange(4.0, 8.01, 0.25), (100.0, 1000.0, 0.5), pair, f0=50e3)
        assert table.to_csv_string() == per_cell_csv(table)
        assert fallbacks == []

    @pytest.mark.parametrize("x", [
        float("nan"), NAN_PAYLOAD, float("inf"), float("-inf"),  # not finite
        5e-324, -1e-28, 1e17, 1e300,  # outside [1e-27, 1e17)
        0.5, -2.0**-40,  # non-integral powers of two: half a gap below
        2.0**54,  # a power of two past 1e16 (integral but for that)
        2.0**54 + 8,  # the multiple of 10 below is exactly half an ulp away
        2.0**50 + 0.25,  # 17 digits, and S = a * 10 lies halfway between two integers
    ])
    def test_each_kind_falls_back(self, fallbacks, x):
        table = SweepTable(columns=("x",))
        table.extend(np.array([x, 1.5]))
        assert table.to_csv_string() == f"x\n{format_number(x)}\n1.5\n"
        assert len(fallbacks) == 1
