"""CSV rendering: csv_text against a per-cell reference, sweep-table layout."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dohertylab.analysis import DriveProfile, LoadModulationSweep, PASimResult
from dohertylab.report import SWEEP_COLUMNS, csv_text, load_mod_rows, pa_sim_rows

EDGE_FLOATS = [
    0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan,
    5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, -1e-300, 123456789.5,
]

numbers = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from(EDGE_FLOATS),
    st.none(),
)
words = st.one_of(st.text(alphabet="abnz_%.-09 ", max_size=8), st.just("nan"))


def reference_cell(value, digits):
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    v = float(value)
    if math.isnan(v):
        return ""
    if v == 0.0:
        v = 0.0
    return f"{v:.{digits}g}"


def reference_csv(header, rows, digits):
    lines = [",".join(header)]
    lines += [",".join(reference_cell(v, digits) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


@st.composite
def tables(draw):
    """Tables of 1-6 or 62-130 columns and 0-8 rows, with at most one text
    column.  Rows take a few shared patterns of empty cells: all empty, none
    empty, a drawn base pattern and the base with one cell flipped, so two
    patterns may differ in one column past the 64th alone.  Up to two whole
    columns may be empty too.  Cells cycle through small drawn pools of
    numbers (NaN and None among them), words and blanks."""
    n_cols = draw(st.one_of(st.integers(1, 6), st.integers(62, 130)))
    n_rows = draw(st.integers(0, 8))
    text_col = draw(st.one_of(st.none(), st.integers(0, n_cols - 1)))
    base = draw(st.integers(0, 2**n_cols - 1))
    flips = draw(st.lists(st.integers(0, n_cols - 1), max_size=3))
    patterns = [2**n_cols - 1, 0, base] + [base ^ 2**c for c in flips]
    empty_cols = draw(st.sets(st.integers(0, n_cols - 1), max_size=2))
    values = draw(st.lists(numbers, min_size=1, max_size=6))
    texts = draw(st.lists(words, min_size=1, max_size=3))
    blanks = draw(st.lists(st.sampled_from([None, math.nan, -math.nan]), min_size=1, max_size=3))
    rows = []
    for i in range(n_rows):
        pattern = draw(st.sampled_from(patterns))
        row = []
        for j in range(n_cols):
            k = i * n_cols + j
            if pattern >> j & 1 or j in empty_cols:
                row.append(None if j == text_col else blanks[k % len(blanks)])
            else:
                row.append(texts[k % len(texts)] if j == text_col else values[k % len(values)])
        rows.append(row)
    return [f"c{j}" for j in range(n_cols)], rows, text_col


def wide_table():
    """Two rows whose patterns of empty cells differ in the 70th column alone,
    and an all-empty row."""
    rows = [[1.5] * 70, [1.5] * 69 + [None], [None] * 70]
    return [f"c{j}" for j in range(70)], rows, None


@settings(max_examples=150, deadline=None)
@given(tables(), st.booleans())
@example(wide_table(), True)
@example(([f"c{j}" for j in range(70)], [], 3), False)
def test_csv_text_matches_per_cell_reference(table, as_array):
    header, rows, text_col = table
    want = reference_csv(header, rows, 9)
    assert csv_text(header, rows) == want
    if text_col is None and as_array:  # the same table as a float array
        array = np.array(rows, dtype=float).reshape(-1, len(header))
        assert csv_text(header, array) == want


def one_nan_part():
    return np.array([complex(1.5, -2.0), complex(np.nan, 3.0), complex(4.0, np.nan)])


def cells(text, column):
    lines = text.splitlines()
    j = lines[0].split(",").index(column)
    return [line.split(",")[j] for line in lines[1:]]


def assert_pairs_blank_together(text, prefix):
    re_cells, im_cells = cells(text, f"re_{prefix}"), cells(text, f"im_{prefix}")
    assert (re_cells[0], im_cells[0]) == ("1.5", "-2")
    assert re_cells[1:] == im_cells[1:] == ["", ""]


def test_load_mod_rows_blank_a_pair_with_one_nan_part():
    n = 3
    prof = DriveProfile(np.linspace(0.5, 1.0, n), np.zeros(n), np.zeros(n), 0.0)
    z = one_nan_part()
    sweep = LoadModulationSweep(prof, z, z, np.zeros(n, complex), np.ones(n))
    rows = load_mod_rows(sweep)
    assert rows.shape == (n, len(SWEEP_COLUMNS)) and rows.dtype == float
    text = csv_text(SWEEP_COLUMNS, rows)
    for prefix in ("z_main", "z_aux"):
        assert_pairs_blank_together(text, prefix)
    assert cells(text, "eta_drain") == ["", "", ""]


def test_pa_sim_rows_blank_a_pair_with_one_nan_part():
    n = 3
    ones = np.ones(n)
    z = one_nan_part()
    sim = PASimResult(
        v=ones, p_out_w=ones, p_dc_w=ones, eta=ones, pbo_db=ones, am_am_db=ones,
        am_pm_deg=ones, overdrive=np.zeros(n, bool), v_load=z, z_main=z, z_aux=z,
        i_main=ones, i_aux=ones,
    )
    rows = pa_sim_rows(sim)
    assert rows.shape == (n, len(SWEEP_COLUMNS)) and rows.dtype == float
    text = csv_text(SWEEP_COLUMNS, rows)
    for prefix in ("z_main", "z_aux"):
        assert_pairs_blank_together(text, prefix)
    assert cells(text, "eta_passive") == ["", "", ""]
