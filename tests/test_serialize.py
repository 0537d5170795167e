import json

import numpy as np

from hal.fock_core import ComplexAmplitude, DensityOperator, coherent_state
from hal.serialize import csv_cell, csv_lines, csv_row, dumps, fmt_float, state_to_jsonable


def test_fmt_float_round_trips():
    for x in (0.1, 1.0 / 3.0, 0.010000000000000002, 1e-308, -2.5e17, 0.0):
        assert float(fmt_float(x)) == x
    assert fmt_float(float("nan")) == "nan"
    assert fmt_float(float("inf")) == "inf"
    assert fmt_float(float("-inf")) == "-inf"


def test_dumps_is_valid_json():
    doc = dumps({"a": 1, "b": [1.5, None, True], "c": "x\"y\n"})
    assert json.loads(doc) == {"a": 1, "b": [1.5, None, True], "c": "x\"y\n"}


def test_dumps_key_order_is_insertion_order():
    doc = dumps({"z": 1, "a": 2, "m": 3})
    assert doc.index('"z"') < doc.index('"a"') < doc.index('"m"')


def test_dumps_nonfinite_becomes_null():
    doc = dumps({"x": float("nan"), "y": float("inf")})
    assert json.loads(doc) == {"x": None, "y": None}


def test_dumps_complex_as_re_im():
    assert json.loads(dumps(0.1 + 0.2j)) == {"re": 0.1, "im": 0.2}
    assert json.loads(dumps(ComplexAmplitude(0.3, -0.4))) == {"re": 0.3, "im": -0.4}


def test_dumps_floats_keep_17_digits():
    x = 0.1 + 0.2  # 0.30000000000000004
    assert json.loads(dumps([x]))[0] == x


def test_dumps_numpy_scalars():
    doc = json.loads(dumps({"i": np.int64(3), "f": np.float64(0.5), "b": np.bool_(True)}))
    assert doc == {"i": 3, "f": 0.5, "b": True}


def test_state_to_jsonable_pure():
    psi = coherent_state(0.1, 6)
    doc = state_to_jsonable(psi)
    assert doc["kind"] == "pure"
    assert doc["cutoff"] == 6
    assert len(doc["amplitudes"]) == 7
    doc = json.loads(dumps(doc))
    a0 = doc["amplitudes"][0]
    assert a0["re"] == float(psi.amplitudes[0].real) and a0["im"] == 0.0


def test_state_to_jsonable_mixed():
    rho = DensityOperator(np.diag([0.0, 1.0, 0.0]), 2)
    doc = json.loads(dumps(state_to_jsonable(rho)))
    assert doc["kind"] == "mixed"
    assert doc["diagonal"] == [0.0, 1.0, 0.0]
    assert doc["matrix"][1][1] == {"re": 1.0, "im": 0.0}


def test_csv_cell():
    assert csv_cell(0.25) == "0.25"
    assert csv_cell(float("nan")) == "nan"
    assert csv_cell(True) == "1"
    assert csv_cell(False) == "0"
    assert csv_cell(7) == "7"
    assert csv_cell("truncation") == "truncation"


def test_csv_lines_layout():
    manifest = dumps({"subcommand": "sweep"})
    columns = ["a", "b"]
    rows = [{"a": 1, "b": float("nan")}, {"b": 0.5, "a": 2}]
    text = csv_lines(columns, (csv_row(columns, row) for row in rows), manifest)
    lines = text.splitlines()
    assert lines[0] == f"# manifest: {manifest}"
    assert lines[1] == "a,b"
    assert lines[2] == "1,nan"
    assert lines[3] == "2,0.5"
    assert len(lines) == 4
    assert text.endswith("\n")
    assert json.loads(lines[0].split("# manifest: ", 1)[1]) == {"subcommand": "sweep"}
