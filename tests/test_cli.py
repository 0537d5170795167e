import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from hal.cli import (
    MAX_GRID_POINTS,
    RUN_COLUMNS,
    _run_lines,
    main,
    parse_campaign_file,
    parse_grid_file,
)
from hal.errors import GridError, ValidationError
from hal.metrology import ReplicaRuns, run_campaign
from hal.optics_ops import HeraldModel
from hal.protocol import MAX_CUTOFF, ROW_COLUMNS
from hal.serialize import csv_cell, csv_row
from hal.spin_ensemble import MAX_ENSEMBLE_CUTOFF

SRC = str(Path(__file__).resolve().parents[1] / "src")

DIRECT_CFG = """\
[campaign]
scheme = direct
true_alpha = 0.01
total_time = 10
replicas = 3
seed = 11

[noise]
kind = white
sigma_tech = 0.05
"""

AMPLIFIED_CFG = """\
[campaign]
scheme = amplified
true_alpha = 0.01
total_time = 200
replicas = 4
seed = 42

[noise]
kind = white
sigma_tech = 0

[protocol]
alpha = 0.01
t = 0.1
"""

AR1_NOISE = """\
[noise]
kind = ar1
sigma_tech = 0.05
lambda = 0.9
"""

# imperfect source (p1 < 1): the mixed-state path, and most attempts fail to
# herald, so the runs CSV carries NaN samples
AR1_AMPLIFIED_CFG = """\
[campaign]
scheme = amplified
true_alpha = 0.01
total_time = 200
replicas = 2
seed = 5

""" + AR1_NOISE + """
[protocol]
alpha = 0.01
t = 0.1
source_efficiency = 0.9
"""

AR1_DIRECT_CFG = """\
[campaign]
scheme = direct
true_alpha = 0.01
total_time = 2000
replicas = 4
seed = 8

""" + AR1_NOISE


def test_usage_errors_exit_64():
    with pytest.raises(SystemExit) as exc:
        main(["protocol", "--bogus"])
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        main(["protocol"])  # --t is required
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 64


def test_bad_values_exit_2(capsys):
    assert main(["protocol", "--alpha", "banana", "--t", "0.1"]) == 2
    assert main(["protocol", "--alpha", "0.01", "--t", "1.5"]) == 2
    assert "error" in capsys.readouterr().err


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cutoff_above_limit_exit_2_without_allocating(capsys):
    args = ["protocol", "--alpha", "0.01", "--t", "0.1", "--cutoff", "1000000000"]
    rc, peak = _peak_bytes(lambda: main(args))
    assert rc == 2
    assert peak < 1e6  # the state alone would take 16 GB
    assert f"exceeds the limit of {MAX_CUTOFF}" in capsys.readouterr().err


def test_ensemble_cutoff_above_limit_exit_2_without_allocating(capsys):
    args = ["ensemble", "--n-atoms", "1000000000", "--epsilon", "1e-5", "--cutoff"]
    rc, peak = _peak_bytes(lambda: main(args + ["1000000000"]))
    assert rc == 2
    assert peak < 1e6  # the state alone would take 16 GB
    assert f"exceeds the limit of {MAX_ENSEMBLE_CUTOFF}" in capsys.readouterr().err
    assert main(args + [str(MAX_ENSEMBLE_CUTOFF + 1)]) == 2
    # a cutoff above the protocol's ceiling is still fine for an ensemble
    assert main(args + [str(MAX_CUTOFF + 1)]) == 0


def test_grid_cutoff_above_limit_is_a_validation_row(tmp_path):
    grid = tmp_path / "grid.txt"
    grid.write_text(f"cutoff = 12, {MAX_CUTOFF + 1}, 1000000000\n")
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--alpha", "0.01", "--t", "0.1", "--grid", str(grid), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()[2:]
    codes = [line.split(",")[ROW_COLUMNS.index("error_code")] for line in lines]
    assert codes == ["", "validation", "validation"]


def test_campaign_above_size_limit_exit_2_without_allocating(tmp_path, capsys):
    cfg = tmp_path / "c.ini"
    cfg.write_text(DIRECT_CFG.replace("total_time = 10", "total_time = 1e14"))
    rc, peak = _peak_bytes(lambda: main(["campaign", str(cfg), "--out", str(tmp_path / "s.json")]))
    assert rc == 2
    assert peak < 1e6
    assert "exceed the limit" in capsys.readouterr().err
    assert not (tmp_path / "s.json").exists()


def test_impossible_outcome_exit_2(capsys):
    assert main(["protocol", "--alpha", "0", "--t", "0.1", "--source-eff", "0",
                 "--dark-count", "0"]) == 2
    assert "impossible" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::hal.protocol.RegimeWarning")
def test_truncation_exit_3(capsys):
    assert main(["protocol", "--alpha", "6", "--t", "0.1", "--input", "coherent"]) == 3
    assert "truncation" in capsys.readouterr().err


def test_protocol_json(tmp_path):
    out = tmp_path / "point.json"
    rc = main(["protocol", "--alpha", "0.02", "--t", "0.2", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert abs(doc["gain"] * 0.2 - 0.92) < 1e-9
    assert doc["manifest"]["subcommand"] == "protocol"
    assert doc["manifest"]["outputs"] == [str(out)]
    assert doc["conditional_state"]["kind"] == "pure"
    assert doc["leading_gain"] == 5.0
    assert 0.0 <= doc["leakage"] < 1e-15


def test_protocol_json_reports_leakage(capsys):
    rc = main(["protocol", "--alpha", "0.01", "--t", "0.1", "--cutoff", "3",
               "--input", "coherent", "--source-eff", "0.9"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert 0.0 < doc["leakage"] <= 1e-10
    assert list(doc)[-2:] == ["leakage", "conditional_state"]


def test_protocol_first_order_mode(capsys):
    rc = main(["protocol", "--alpha", "0.01", "--t", "0.1", "--mode", "first-order"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["gain"] == 10.0
    assert doc["fidelity"] == 1.0
    assert math.isclose(doc["success_prob"], 0.0101, rel_tol=0, abs_tol=1e-15)


def test_grid_parser():
    axes = parse_grid_file("t = 0.1:0.3:3\nalpha = 0, 0.01  # two points\n")
    assert axes["t"] == pytest.approx([0.1, 0.2, 0.3])
    assert axes["alpha"] == [0.0, 0.01]
    axes = parse_grid_file("cutoff = 4,8\n")
    assert axes["cutoff"] == [4, 8]
    with pytest.raises(GridError, match="line 1"):
        parse_grid_file("t 0.1,0.2\n")
    with pytest.raises(GridError, match="line 2"):
        parse_grid_file("t = 0.1\nq = 1\n")
    with pytest.raises(GridError, match="line 2"):
        parse_grid_file("t = 0.1\nt = 0.2\n")
    with pytest.raises(GridError):
        parse_grid_file("# only a comment\n")


def test_grid_cutoffs_are_integers():
    assert parse_grid_file("cutoff = 12.0, 20\n")["cutoff"] == [12, 20]
    assert parse_grid_file("cutoff = 10:20:3\n")["cutoff"] == [10, 15, 20]


@pytest.mark.parametrize(
    "text, message",
    [
        ("cutoff = nan\n", "cutoff must be an integer"),
        ("cutoff = 1e400\n", "cutoff must be an integer"),
        ("cutoff = 12.9\n", "cutoff must be an integer"),
        ("cutoff = 10:20:4\n", "cutoff must be an integer"),
        ("t = 0.1:0.2:1000000000000\n", "exceeds the limit"),
        (f"t = 0.1:0.2:{MAX_GRID_POINTS}\nalpha = 0, 0.01\n", "more than"),
    ],
    ids=["nan", "inf", "fraction", "fraction-range", "huge-range", "huge-total"],
)
def test_grid_out_of_bounds_exit_2_before_any_point(text, message, tmp_path, capsys, monkeypatch):
    # the count is checked before numpy builds the range, and the whole grid
    # before sweep builds any point
    real_linspace = np.linspace

    def bounded_linspace(start, stop, num):
        assert num <= MAX_GRID_POINTS
        return real_linspace(start, stop, num)

    def no_sweep(*args):
        raise AssertionError("sweep ran on a rejected grid")

    monkeypatch.setattr(np, "linspace", bounded_linspace)
    monkeypatch.setattr("hal.cli.sweep", no_sweep)
    with pytest.raises(GridError, match=message):
        parse_grid_file(text)
    grid = tmp_path / "grid.txt"
    grid.write_text(text)
    assert main(["sweep", "--alpha", "0.01", "--t", "0.1", "--grid", str(grid)]) == 2
    assert message in capsys.readouterr().err


def test_sweep_csv(tmp_path):
    grid = tmp_path / "grid.txt"
    grid.write_text("t = 0.05, 0.1, 0.2\n")
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--alpha", "0", "--grid", str(grid), "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# manifest: ")
    manifest = json.loads(lines[0].split("# manifest: ", 1)[1])
    assert manifest["subcommand"] == "sweep"
    assert manifest["parameters"]["axes"]["t"] == [0.05, 0.1, 0.2]
    assert lines[1] == ",".join(ROW_COLUMNS)
    assert len(lines) == 2 + 3
    for row_line, t in zip(lines[2:], (0.05, 0.1, 0.2)):
        row = dict(zip(ROW_COLUMNS, row_line.split(",")))
        assert float(row["t"]) == t
        assert math.isclose(float(row["success_prob"]), t * t, rel_tol=0, abs_tol=1e-12)
        assert row["error_code"] == ""


def test_sweep_malformed_grid_exit_2(tmp_path, capsys):
    grid = tmp_path / "grid.txt"
    grid.write_text("t = 0.1\nwhat is this\n")
    assert main(["sweep", "--grid", str(grid)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_sweep_missing_grid_file_exit_2(tmp_path):
    assert main(["sweep", "--grid", str(tmp_path / "nope.txt")]) == 2


def test_ensemble_report(capsys):
    rc = main(["ensemble", "--n-atoms", "10000", "--epsilon", "0.001"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert math.isclose(doc["alpha"], 0.1, rel_tol=0, abs_tol=1e-15)
    assert doc["fidelity_to_coherent"] > 0.999999
    assert abs(doc["commutator_deviation"] - 2e-6) < 1e-8
    assert doc["tail_mass"] < 1e-10


def test_ensemble_zero_rotation(capsys):
    rc = main(["ensemble", "--n-atoms", "10", "--epsilon", "0"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["fidelity_to_coherent"] == pytest.approx(1.0, abs=1e-12)
    assert doc["commutator_deviation"] == pytest.approx(0.0, abs=1e-15)
    assert doc["var_x"] == pytest.approx(0.5, abs=1e-12)


def test_campaign_file_inline_comments():
    cfg = parse_campaign_file(AMPLIFIED_CFG.replace(
        "scheme = amplified", "scheme = amplified  ; direct | amplified"))
    assert cfg.scheme == "amplified"


def test_campaign_file_parsing():
    cfg = parse_campaign_file(AMPLIFIED_CFG)
    assert cfg.scheme == "amplified"
    assert cfg.seed == 42
    assert cfg.protocol.t == 0.1
    assert cfg.noise.kind == "white"
    cfg = parse_campaign_file(AMPLIFIED_CFG, seed_override=7)
    assert cfg.seed == 7
    with pytest.raises(ValidationError, match="protocol.t"):
        parse_campaign_file(AMPLIFIED_CFG.replace("t = 0.1\n", ""))
    with pytest.raises(ValidationError, match="campaign.seed"):
        parse_campaign_file(AMPLIFIED_CFG.replace("seed = 42\n", ""))
    # the override substitutes for a missing seed line
    cfg = parse_campaign_file(AMPLIFIED_CFG.replace("seed = 42\n", ""), seed_override=3)
    assert cfg.seed == 3
    with pytest.raises(ValidationError, match="direct scheme takes no protocol"):
        parse_campaign_file(DIRECT_CFG + "\n[protocol]\nalpha = 0.01\nt = 0.1\n")
    with pytest.raises(ValidationError, match="unknown config section"):
        parse_campaign_file(DIRECT_CFG + "\n[detector]\nq = 1\n")


def test_campaign_file_herald_defaults():
    # without a [herald] section, and for each field a section leaves out,
    # the herald model takes its documented default
    default = parse_campaign_file(AMPLIFIED_CFG).protocol.herald
    assert default == HeraldModel()
    partial = parse_campaign_file(AMPLIFIED_CFG + "\n[herald]\ndark_count = 1e-4\n")
    assert partial.protocol.herald == HeraldModel(dark_count=1e-4)
    full = parse_campaign_file(
        AMPLIFIED_CFG
        + "\n[herald]\nread_efficiency = 0.9\ndark_count = 0\nmode = B\nresolving = no\n"
    )
    assert full.protocol.herald == HeraldModel(read_efficiency=0.9, mode="B", resolving=False)


def test_campaign_run_and_seed_override(tmp_path, capsys):
    cfg = tmp_path / "c.ini"
    cfg.write_text(DIRECT_CFG)
    rc = main(["campaign", str(cfg)])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["manifest"]["seed"] == 11
    assert doc["attempts"] == 100
    assert doc["replicas"] == 3
    assert doc["successes"] == 300
    rc = main(["campaign", str(cfg), "--seed", "99"])
    assert rc == 0
    doc2 = json.loads(capsys.readouterr().out)
    assert doc2["manifest"]["seed"] == 99
    assert doc2["estimate_mean"] != doc["estimate_mean"]


def test_direct_campaign_has_no_fock_cutoff(tmp_path):
    # a coherent state of amplitude 2 leaves 2.7e-4 of its mass past cutoff
    # 12, where the direct scheme once tabulated it (exit 3); its quadrature
    # sum is now drawn exactly, at any amplitude
    cfg = tmp_path / "c.ini"
    cfg.write_text(DIRECT_CFG.replace("true_alpha = 0.01", "true_alpha = 2"))
    out = tmp_path / "s.json"
    assert main(["campaign", str(cfg), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert (doc["attempts"], doc["replicas"]) == (100, 3)
    # mean(x + noise)/sqrt(2) over 300 attempts, Var x = 1/2, sigma_tech 0.05
    se = math.sqrt((0.5 + 0.05 ** 2) / (2.0 * 300))
    assert abs(doc["estimate_mean"] - 2.0) <= 6.0 * se


def test_campaign_missing_field_exit_2(tmp_path, capsys):
    cfg = tmp_path / "c.ini"
    cfg.write_text(AMPLIFIED_CFG.replace("t = 0.1\n", ""))
    assert main(["campaign", str(cfg)]) == 2
    assert "protocol.t" in capsys.readouterr().err


def test_campaign_noise_fields_the_kind_ignores_exit_2(tmp_path, capsys):
    cfg = tmp_path / "c.ini"
    cfg.write_text(
        "[campaign]\nscheme = direct\ntrue_alpha = 0.01\ntotal_time = 10\n"
        "replicas = 3\nseed = 11\n"
        "[noise]\nkind = white\nsigma_tech = 0.1\nlambda = 0.5\noffset = 0.3\n"
    )
    assert main(["campaign", str(cfg)]) == 2
    assert "does not use" in capsys.readouterr().err


def test_campaign_protocol_alpha_mismatch_exit_2(tmp_path, capsys):
    cfg = tmp_path / "c.ini"
    cfg.write_text(AMPLIFIED_CFG.replace("[protocol]\nalpha = 0.01\n", "[protocol]\nalpha = 0.02\n"))
    assert main(["campaign", str(cfg)]) == 2
    assert "true_alpha" in capsys.readouterr().err


def test_campaign_reruns_are_byte_identical(tmp_path):
    cfg = tmp_path / "c.ini"
    cfg.write_text(AMPLIFIED_CFG)
    out = tmp_path / "summary.json"
    runs = tmp_path / "runs.csv"
    assert main(["campaign", str(cfg), "--out", str(out), "--runs-csv", str(runs)]) == 0
    first = (out.read_bytes(), runs.read_bytes())
    assert main(["campaign", str(cfg), "--out", str(out), "--runs-csv", str(runs)]) == 0
    assert (out.read_bytes(), runs.read_bytes()) == first
    doc = json.loads(first[0])
    header = first[1].decode().splitlines()[1]
    assert header == "replica,attempt_index,heralded,x_sample,noise_value"
    assert doc["manifest"]["outputs"] == [str(out), str(runs)]


def test_validate_command(capsys):
    assert main(["validate"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("hal ")


def test_runs_csv_matches_per_cell_reference(tmp_path):
    cfg = tmp_path / "c.ini"
    cfg.write_text(AR1_AMPLIFIED_CFG)
    runs = tmp_path / "runs.csv"
    assert main(["campaign", str(cfg), "--out", str(tmp_path / "s.json"), "--runs-csv", str(runs)]) == 0
    data = runs.read_bytes()

    # reference: the per-cell csv_cell rendering of the ReplicaRuns records
    summary = run_campaign(parse_campaign_file(AR1_AMPLIFIED_CFG), record_runs=True)
    manifest_line = data.decode().split("\n", 1)[0]
    assert manifest_line.startswith("# manifest: ")
    ref = [manifest_line, ",".join(RUN_COLUMNS)]
    for r in summary.run_records:
        for k in range(summary.attempts):
            cells = (r.replica, k, int(r.heralded[k]), r.x_sample[k], r.noise_value[k])
            ref.append(",".join(csv_cell(v) for v in cells))
    assert data == ("\n".join(ref) + "\n").encode()
    assert summary.attempts == 2000 and len(ref) == 2 + 2 * 2000
    heralded = sum(int(r.heralded.sum()) for r in summary.run_records)
    assert 0 < heralded < 2 * 2000
    assert data.count(b",0,nan,") == 2 * 2000 - heralded


def _campaign_cfg(scheme, noise, protocol=""):
    return (
        f"[campaign]\nscheme = {scheme}\ntrue_alpha = 0.01\ntotal_time = 2000\n"
        f"run_period = 1\nreplicas = 2\nseed = 13\n[noise]\n{noise}\n{protocol}"
    )


RUNS_CSV_CASES = {
    # p1 < 1: about 1% of attempts herald, so x_sample is mostly nan
    "amplified": _campaign_cfg(
        "amplified", "kind = white\nsigma_tech = 0.05",
        "[protocol]\nalpha = 0.01\nt = 0.1\nsource_efficiency = 0.9\n",
    ),
    "direct-ar1": _campaign_cfg("direct", "kind = ar1\nsigma_tech = 0.05\nlambda = 0.9"),
    "zero-noise": _campaign_cfg("direct", "kind = white\nsigma_tech = 0"),
    "systematic": _campaign_cfg("direct", "kind = systematic\noffset = 0.003"),
    # noise values below 1e-6 all take the per-cell fallback
    "tiny-sigma": _campaign_cfg("direct", "kind = white\nsigma_tech = 1e-9"),
}


@pytest.mark.parametrize("name", sorted(RUNS_CSV_CASES))
def test_runs_csv_matches_per_row_csv_row(name, tmp_path, monkeypatch):
    # a chunk that does not divide the 2000 attempts: several blocks per
    # replica and a short last one
    monkeypatch.setattr("hal.cli._ROW_CHUNK", 700)
    text = RUNS_CSV_CASES[name]
    cfg = tmp_path / "c.ini"
    cfg.write_text(text)
    runs = tmp_path / "runs.csv"
    assert main(["campaign", str(cfg), "--out", str(tmp_path / "s.json"), "--runs-csv", str(runs)]) == 0
    data = runs.read_bytes()

    summary = run_campaign(parse_campaign_file(text), record_runs=True)
    ref = data.decode().split("\n", 2)[:2]
    for r in summary.run_records:
        for k in range(summary.attempts):
            values = (r.replica, k, int(r.heralded[k]), r.x_sample[k], r.noise_value[k])
            ref.append(csv_row(RUN_COLUMNS, dict(zip(RUN_COLUMNS, values))))
    assert data == ("\n".join(ref) + "\n").encode()
    assert len(ref) == 2 + 2 * 2000


def test_run_lines_special_values_match_csv_row():
    x = np.array([-0.0, float("nan"), float("inf"), -float("inf"), 5e-324, 0.1])
    v = np.array([0.0, -1e308, 2.5, -0.0, float("nan"), 1 / 3])
    runs = ReplicaRuns(3, np.array([1, 0, 1, 1, 0, 1], dtype=np.int8), x, v)
    expected = [
        csv_row(RUN_COLUMNS, dict(zip(RUN_COLUMNS, (3, k, int(runs.heralded[k]), x[k], v[k]))))
        for k in range(len(x))
    ]
    # _run_lines yields blocks of lines; the joined text is what the CSV holds
    assert "\n".join(_run_lines([runs])) == "\n".join(expected)
    assert expected[0] == "3,0,1,-0,0"


def _fresh_hal(code, args=(), threads="1"):
    """Run `code` in a new interpreter that imports hal from this checkout."""
    env = {**os.environ, "PYTHONPATH": SRC, "HAL_THREADS": threads}
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )


def test_import_skips_scipy_stats_and_signal():
    code = (
        "import sys, hal.cli\n"
        "print(','.join(m for m in ('scipy.stats', 'scipy.signal') if m in sys.modules))\n"
    )
    assert _fresh_hal(code).stdout.strip() == ""


def test_ar1_noise_series_leaves_scipy_signal_unloaded():
    code = (
        "import sys, numpy as np\n"
        "from hal.metrology import NoiseModel, noise_series\n"
        "noise_series(NoiseModel(kind='ar1', sigma_tech=0.1, lam=0.99), 1000,\n"
        "             np.random.Generator(np.random.Philox(1)))\n"
        "print('scipy.signal' in sys.modules)\n"
    )
    assert _fresh_hal(code).stdout.strip() == "False"


def test_ar1_campaign_on_two_threads_never_loads_scipy_signal(tmp_path, capsys):
    cfg = tmp_path / "c.ini"
    cfg.write_text(AR1_DIRECT_CFG)
    # both workers run AR(1) noise; none of it may load scipy.signal
    code = (
        "import sys, hal.cli\n"
        "assert 'scipy.signal' not in sys.modules\n"
        "rc = hal.cli.main(sys.argv[1:])\n"
        "assert 'scipy.signal' not in sys.modules\n"
        "sys.exit(rc)\n"
    )
    fresh = _fresh_hal(code, ["campaign", str(cfg)], threads="2").stdout
    assert main(["campaign", str(cfg)]) == 0
    assert fresh == capsys.readouterr().out


def test_no_command_loads_scipy(tmp_path):
    # hal's runtime is numpy only: no command, the oracle suite included,
    # may load any part of scipy; a protocol run must not load numpy.ma
    (tmp_path / "grid.txt").write_text("alpha = 0.01, 0.02\nt = 0.1, 0.2\np1 = 0.9, 1.0, 2.0\n")
    (tmp_path / "direct.ini").write_text(AR1_DIRECT_CFG)
    (tmp_path / "amplified.ini").write_text(AMPLIFIED_CFG)
    runs = {
        "protocol": ["protocol", "--alpha", "0.01", "--t", "0.1", "--cutoff", "30",
                     "--source-eff", "0.9", "--out", "protocol.json"],
        "sweep": ["sweep", "--grid", "grid.txt", "--out", "sweep.csv"],
        "ensemble": ["ensemble", "--n-atoms", "1000000000", "--epsilon", "1e-5"],
        "validate": ["validate"],
        "direct": ["campaign", "direct.ini", "--out", "direct.json"],
        "amplified": ["campaign", "amplified.ini", "--out", "amplified.json",
                      "--runs-csv", "runs.csv"],
    }
    code = (
        "import contextlib, io, json, sys, hal.cli\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "seen = {'import': [0, scipy_modules(), 'numpy.ma' in sys.modules]}\n"
        "for name, argv in json.loads(sys.argv[1]).items():\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        rc = hal.cli.main(argv)\n"
        "    seen[name] = [rc, scipy_modules(), 'numpy.ma' in sys.modules]\n"
        "print(json.dumps(seen))\n"
    )
    env = {**os.environ, "PYTHONPATH": SRC, "HAL_THREADS": "2"}
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(runs)],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120, check=True,
    )
    seen = json.loads(proc.stdout)
    assert list(seen) == ["import", *runs]
    assert seen["protocol"] == [0, [], False]
    for name, (rc, scipy_loaded, _) in seen.items():
        assert (rc, scipy_loaded) == (0, []), name
