"""The one table writer against the per-value reference writer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gpfl.textio import write_table
from oracles import table_reference

EDGES = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308]
VALUES = st.one_of(st.sampled_from(EDGES), st.floats(width=64))


@given(data=st.data(), n_rows=st.integers(1, 6), widths=st.lists(st.integers(0, 3),
                                                                  min_size=1, max_size=3))
@settings(max_examples=200, deadline=None)
def test_same_bytes_as_reference_and_exact_parse_back(tmp_path_factory, data, n_rows, widths):
    # width 0 draws a 1-D column, otherwise a 2-D block of that many columns
    columns = [data.draw(arrays(np.float64, (n_rows, w) if w else n_rows, elements=VALUES))
               for w in widths]
    stacked = np.column_stack(columns)
    names = [f"c{k}" for k in range(stacked.shape[1])]
    out = tmp_path_factory.mktemp("table")
    write_table(out / "table.csv", names, columns, preamble="# x=1\n")
    table_reference(out / "reference.csv", names, columns, preamble="# x=1\n")
    written = (out / "table.csv").read_bytes()
    assert written == (out / "reference.csv").read_bytes()

    lines = written.decode().splitlines()
    assert lines[:2] == ["# x=1", ",".join(names)]
    parsed = np.array([[float(v) for v in line.split(",")] for line in lines[2:]])
    assert parsed.shape == stacked.shape
    nan = np.isnan(stacked)
    np.testing.assert_array_equal(np.isnan(parsed), nan)
    # compare bit patterns, so -0.0 and 0.0 differ
    assert (parsed[~nan].view(np.uint64) == stacked[~nan].view(np.uint64)).all()


@pytest.mark.parametrize("names", [["a"], ["a", "b", "c"]])
def test_name_count_must_match_column_count(tmp_path, names):
    path = tmp_path / "table.csv"
    with pytest.raises(ValueError, match=f"{len(names)} column names for 2 columns"):
        write_table(path, names, [np.zeros(3), np.zeros(3)])
    assert not path.exists()
