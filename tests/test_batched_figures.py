"""Batched figure grids: one array ``values()`` call per panel time writes,
byte for byte, the CSVs of the per-cell evaluation."""

import math

import pytest

from tumorsym import cli
from tumorsym.cli import main
from tumorsym.solutions import FAMILY_IDS


def _per_cell_csv(sol, component, t, grid):
    """The CSV of one panel, one scalar ``values()`` call per inside cell."""
    rad = sol.boundary().radius(t)
    r_min = 1e-2 * rad
    coords = [-rad + 2.0 * rad * i / (grid - 1) for i in range(grid)]
    lines = ["x,y,value"]
    for x in coords:
        for y in coords:
            r = math.hypot(x, y)
            if r > rad or r < r_min:
                lines.append(f"{x!r},{y!r},")
            else:
                v = float(sol.values(t, x, y)[component])
                lines.append(f"{x!r},{y!r},{v!r}")
    return ("\n".join(lines) + "\n").encode()


# grid 2 has no cell inside the annulus; an odd grid puts a cell on the
# origin, which lies inside the inner rim and stays blank
@pytest.mark.parametrize("grid", [2, 3, 7, 80])
@pytest.mark.parametrize("figure", [1, 2, 3, 4, 5])
def test_figure_csv_matches_per_cell_values(tmp_path, capsys, figure, grid):
    assert main(["figure", str(figure), "--grid", str(grid),
                 "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    family_id, params, panels = cli._FIGURES[figure]
    sol = FAMILY_IDS[family_id](**params)
    for name, component, t in panels:
        got = (tmp_path / f"fig{figure}_{name}.csv").read_bytes()
        assert got == _per_cell_csv(sol, component, t, grid), name


@pytest.mark.parametrize("figure, grid, calls", [
    (1, 7, 1), (2, 7, 1), (3, 7, 1), (4, 7, 1), (5, 7, 2),
    (3, 2, 0), (5, 2, 0),
])
def test_one_values_call_per_panel_time(tmp_path, capsys, monkeypatch,
                                        figure, grid, calls):
    family = FAMILY_IDS[cli._FIGURES[figure][0]]
    seen = []
    original = family.values

    def counting(self, t, x, y):
        seen.append(t)
        return original(self, t, x, y)

    monkeypatch.setattr(family, "values", counting)
    assert main(["figure", str(figure), "--grid", str(grid),
                 "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert len(seen) == calls
