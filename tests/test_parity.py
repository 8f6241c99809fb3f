"""tools/parity.py: cell-by-cell comparison of two output directories."""

import contextlib
import io
import json
import re
import shutil
from pathlib import Path

import parity
import pytest

from cfmimo.cli import main


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """A fig1 output directory of two drops."""
    out = tmp_path_factory.mktemp("old")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["fig1", "--drops", "2", "--out", str(out)]) == 0
    return out


def _run(old, new, capsys):
    code = parity.main([str(old), str(new)])
    return code, capsys.readouterr().out.splitlines()


def _copy(outputs, tmp_path) -> Path:
    new = tmp_path / "new"
    shutil.copytree(outputs, new)
    return new


def test_identical_directories(outputs, tmp_path, capsys):
    code, lines = _run(outputs, _copy(outputs, tmp_path), capsys)
    assert code == 0
    # 3 modes x 2 drops; mode, drop, seed, 10 user rates and the sum rate.
    assert lines[0] == ("fig1.csv: 6 rows, 84 cells, 84 identical, worst "
                        "relative difference 0 at -")
    values, identical = re.fullmatch(
        r"fig1.json: (\d+) values, (\d+) identical, worst relative "
        r"difference 0 at -", lines[1]).groups()
    assert values == identical


def test_perturbed_cell_is_located(outputs, tmp_path, capsys):
    new = _copy(outputs, tmp_path)
    path = new / "fig1.csv"
    rows = path.read_text().splitlines()
    cells = rows[4].split(",")
    column = rows[0].split(",").index("user_rate_3")
    cells[column] = repr(float(cells[column]) * (1 + 1e-9))
    rows[4] = ",".join(cells)
    path.write_text("\n".join(rows) + "\n")
    code, lines = _run(outputs, new, capsys)
    assert code == 0
    assert lines[0].startswith("fig1.csv: 6 rows, 84 cells, 83 identical, "
                               "worst relative difference 1e-09 at row 3, "
                               "column user_rate_3")


def test_perturbed_json_value_is_located(outputs, tmp_path, capsys):
    new = _copy(outputs, tmp_path)
    doc = json.loads((new / "fig1.json").read_text())
    doc["results"][1]["mean_sum_rate"] *= 2.0
    (new / "fig1.json").write_text(json.dumps(doc))
    code, lines = _run(outputs, new, capsys)
    assert code == 0
    assert lines[1].endswith("worst relative difference 0.5 at "
                             "results[1].mean_sum_rate")


@pytest.mark.parametrize("damage", ["drop_row", "rename_column", "remove_file",
                                    "reshape_json"])
def test_structural_mismatch_exits_1(outputs, tmp_path, capsys, damage):
    new = _copy(outputs, tmp_path)
    csv_path, json_path = new / "fig1.csv", new / "fig1.json"
    if damage == "drop_row":
        csv_path.write_text("".join(csv_path.read_text().splitlines(True)[:-1]))
    elif damage == "rename_column":
        csv_path.write_text(csv_path.read_text().replace("sum_rate", "total", 1))
    elif damage == "remove_file":
        json_path.unlink()
    else:
        doc = json.loads(json_path.read_text())
        doc["results"].pop()
        json_path.write_text(json.dumps(doc))
    code, lines = _run(outputs, new, capsys)
    assert code == 1
    assert any("STRUCTURE MISMATCH" in line for line in lines)
