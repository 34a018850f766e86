"""Shared table plumbing: number formatting and CSV emission rules."""

import io
import tracemalloc

import numpy as np
import pytest

from qfm import SweepTable
from qfm.tables import format_number


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
