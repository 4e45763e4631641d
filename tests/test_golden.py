"""The committed configs write the numbers stored in ``tests/golden/``;
``python tests/golden_outputs.py`` rewrites them when a change moves one."""

import golden_outputs


def test_committed_configs_write_the_golden_outputs(tmp_path):
    golden_outputs.run_configs(str(tmp_path))
    moved = golden_outputs.check(str(tmp_path))
    assert not moved, "moved from tests/golden/:\n" + "\n".join(moved)


def test_moves_weighs_floats_by_their_scale():
    # a WKB error moved by 2e-9 of itself moves; the mass past the boundary,
    # round-off below the floor, may move by far more of itself
    numbers = golden_outputs.golden("schrodinger-run")["numbers"]
    observables = [{**ob, "boundary_mass": 2.0 * ob["boundary_mass"]}
                   for ob in numbers["observables"]]
    assert golden_outputs.moves(
        numbers, {**numbers, "observables": observables}) == []
    record = golden_outputs.golden("converge")["numbers"]
    rows = [dict(row) for row in record["rows"]]
    rows[0]["err_full"] *= 1 + 2e-9
    lines = golden_outputs.moves(record, {**record, "rows": rows})
    assert len(lines) == 1 and lines[0].startswith("rows[0].err_full")
