"""Golden reference: fixed experiment grids must reproduce their stored outputs.

A refactor that claims unchanged behaviour shows it here. Every column of
``cells.csv`` and ``clusters.csv`` must match byte for byte, except
``lp_objective`` (the LP optimum as HiGHS reports it), which may drift by
1e-12 relative. See ``tests/golden/regen.py`` for the grids.
"""

import json
import math

import pytest

from golden import regen


@pytest.fixture(scope="module")
def golden_versions():
    stored = json.loads(regen.VERSIONS_FILE.read_text())
    current = regen.library_versions()
    if stored != current:
        pytest.fail(
            f"golden files were made with {stored} but this environment has {current}; "
            "check the differences, then regenerate with `python tests/golden/regen.py`"
        )
    return stored


def _assert_cells_match(got: str, want: str) -> None:
    got_rows = [line.split(",") for line in got.splitlines()]
    want_rows = [line.split(",") for line in want.splitlines()]
    assert got_rows[0] == want_rows[0]
    assert len(got_rows) == len(want_rows)
    lp_col = want_rows[0].index("lp_objective")
    for got_row, want_row in zip(got_rows[1:], want_rows[1:]):
        assert len(got_row) == len(want_row)
        for col, (a, b) in enumerate(zip(got_row, want_row)):
            if col == lp_col and a and b:
                assert math.isclose(float(a), float(b), rel_tol=1e-12, abs_tol=0.0), \
                    f"lp_objective {a} != {b} in row {want_row}"
            else:
                assert a == b, f"column {want_rows[0][col]}: {a} != {b} in row {want_row}"


@pytest.mark.parametrize("grid", list(regen.GRIDS))
def test_golden_grid_reproduces(grid, golden_versions, tmp_path):
    # the p = inf grid's (k=8, delta=0.1) cell reaches a rounding LP whose
    # windows have all been dropped while fractional variables remain, so its
    # inequality matrix has no rows
    outputs = regen.run_grid(grid, tmp_path)
    _assert_cells_match(outputs["cells.csv"], (regen.GOLDEN_DIR / grid / "cells.csv").read_text())
    assert outputs["clusters.csv"] == (regen.GOLDEN_DIR / grid / "clusters.csv").read_text()
