import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from semiwkb import io as sio


def _reference_write_csv(path, columns, rows, header=None):
    """write_csv as it was: every cell through _fmt."""
    with open(path, "w") as f:
        for key, value in (header or {}).items():
            f.write(f"# {key}: {value}\n")
        f.write(",".join(columns) + "\n")
        for row in rows:
            f.write(",".join(sio._fmt(x) for x in row) + "\n")


EDGE_FLOATS = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e16, 0.1, 1.0]
FLOATS = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                   st.sampled_from(EDGE_FLOATS))
# every cell type the scenarios write: Python and numpy floats, ints and
# strings (classify's quoted certificates)
CELLS = {
    "float": FLOATS,
    "float64": FLOATS.map(np.float64),
    "float32": st.floats(width=32).map(np.float32),
    "int": st.integers(-10 ** 20, 10 ** 20),
    "int64": st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    "str": st.text(alphabet="abc ,.=\"-0123456789", max_size=12),
}


@st.composite
def tables(draw):
    n_rows = draw(st.integers(0, 20))
    cols = []
    for _ in range(draw(st.integers(1, 5))):
        kinds = draw(st.lists(st.sampled_from(sorted(CELLS)), min_size=1,
                              max_size=3))
        cols.append([draw(st.one_of(*(CELLS[k] for k in kinds)))
                     for _ in range(n_rows)])
    return cols


@settings(max_examples=200, deadline=None)
@given(cols=tables())
def test_write_csv_is_the_per_cell_writer(cols, tmp_path_factory):
    # rows of floats alone take the fast path; the others must not
    tmp = tmp_path_factory.mktemp("csv")
    names = [f"c{k}" for k in range(len(cols))]
    header = {"config_hash": "0123456789abcdef", "t": 0.5}
    sio.write_csv(str(tmp / "new.csv"), names, zip(*cols), header=header)
    _reference_write_csv(str(tmp / "ref.csv"), names, zip(*cols),
                         header=header)
    assert (tmp / "new.csv").read_bytes() == (tmp / "ref.csv").read_bytes()


def test_write_csv_snapshot_columns(tmp_path):
    # the scenarios' form: a zip of numpy columns, one of them the edge cases
    rng = np.random.default_rng(7)
    r = np.linspace(0.0, 40.0, 2049)
    u = rng.standard_normal(2049) * 10.0 ** rng.integers(-300, 300, 2049)
    u[:len(EDGE_FLOATS)] = EDGE_FLOATS
    for write, name in ((sio.write_csv, "new.csv"),
                        (_reference_write_csv, "ref.csv")):
        write(str(tmp_path / name), ["r", "re", "im"],
              zip(r, u, np.zeros_like(u)), header={"t": 0.5})
    assert (tmp_path / "new.csv").read_bytes() == \
        (tmp_path / "ref.csv").read_bytes()


def test_write_csv_rows_of_any_form(tmp_path):
    # one-shot rows that fall back after a float, lists, ragged rows
    def rows():
        return [(x for x in (1.5, "a", 2)), [np.float64(0.1), 3],
                (np.float32(0.5),), (), (-0.0, np.nan, np.inf, 5e-324)]
    sio.write_csv(str(tmp_path / "new.csv"), ["a", "b", "c"], rows())
    _reference_write_csv(str(tmp_path / "ref.csv"), ["a", "b", "c"], rows())
    assert (tmp_path / "new.csv").read_bytes() == \
        (tmp_path / "ref.csv").read_bytes()
