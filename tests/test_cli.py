import json
import math

import pytest

from hal.cli import main, parse_campaign_file, parse_grid_file
from hal.errors import GridError, ValidationError
from hal.optics_ops import HeraldModel
from hal.protocol import ROW_COLUMNS

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


def test_campaign_missing_field_exit_2(tmp_path, capsys):
    cfg = tmp_path / "c.ini"
    cfg.write_text(AMPLIFIED_CFG.replace("t = 0.1\n", ""))
    assert main(["campaign", str(cfg)]) == 2
    assert "protocol.t" in capsys.readouterr().err


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
