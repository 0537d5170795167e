import argparse
import contextlib
import gc
import io
import json
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings
import weakref
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cli_reference import build_parser
from hal import _parallel, cli
from hal.cli import (
    MAX_GRID_POINTS,
    RUN_COLUMNS,
    _ROW_CHUNK,
    _RunsCsv,
    _sweep_csv,
    main,
    parse_campaign_file,
    parse_grid_file,
)
from hal.errors import GridError, ValidationError
from hal.metrology import (
    MAX_RECORDED_ATTEMPTS,
    MAX_REPLICAS,
    CampaignConfig,
    NoiseModel,
    run_campaign,
)
from hal.optics_ops import HeraldModel, herald_click
from hal.protocol import MAX_CUTOFF, ROW_COLUMNS, ProtocolConfig, sweep
from hal.spin_ensemble import MAX_ENSEMBLE_CUTOFF, EnsembleSpec

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


def _exit_code(argv, capsys):
    """The code main(argv) exits with, and what it wrote to stdout and stderr."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    return exc.value.code, out, err


def test_usage_errors_exit_64(capsys):
    for argv in (
        ["protocol", "--bogus"],
        ["protocol"],  # --t is required
        ["frobnicate"],
        ["protocol", "--alpha", "0.01", "--t"],  # a flag with no value at the end
        ["protocol", "--t", "0.1", "--input", "full"],
        ["protocol", "--t", "0.1", "--mode", "second-order"],
        ["campaign"],  # no config file
        ["campaign", "a.ini", "b.ini"],
        [],  # no subcommand
    ):
        code, out, err = _exit_code(argv, capsys)
        assert code == 64, argv
        usage, error = err.splitlines()
        assert out == "" and usage.startswith("usage: hal") and error.startswith("hal"), argv
        assert ": error: " in error, argv
    code, out, _ = _exit_code(["--version"], capsys)
    assert (code, out) == (0, "hal 1.0.0\n")
    # each subcommand's help names every flag the reference parser gives it
    subcommands = _subparsers(build_parser())
    for name, parser in subcommands.items():
        code, out, err = _exit_code([name, "-h"], capsys)
        assert (code, err) == (0, ""), name
        assert out.startswith(f"usage: hal {name} ")
        flags = {flag for action in parser._actions for flag in action.option_strings}
        assert flags == set(re.findall(r"(?<![\w-])--?[a-z][\w-]*", out)), name
    assert set(subcommands) <= set(_exit_code(["--help"], capsys)[1].split())


def test_negative_values_are_values(tmp_path):
    # a token after a value-taking flag is its value when it is "-" or starts
    # with "-" and a digit or "-." and a digit; argparse took -1e-3 and -1,2
    # for flags and exited 64, though --alpha=-1,2 worked
    out = str(tmp_path / "p.json")
    for alpha, re_im in (("-1e-3", [-1e-3, 0]), ("-1,2", [-1, 2])):
        docs = []
        for flag in (["--alpha", alpha], [f"--alpha={alpha}"]):
            assert main(["protocol", *flag, "--t", "0.1", "--out", out]) == 0
            docs.append(Path(out).read_bytes())
        params = json.loads(docs[0])["manifest"]["parameters"]
        assert [params["alpha"]["re"], params["alpha"]["im"]] == re_im and docs[0] == docs[1]
    with pytest.raises(SystemExit) as exc:
        main(["protocol", "--t", "0.1", "--alpha", "-x"])
    assert exc.value.code == 64


def _subparsers(parser: argparse.ArgumentParser) -> dict:
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def _reference_parse(argv):
    parser = build_parser()
    # argparse (3.10 to 3.13) reads -1e-3 and -1,2 as flags, so `--alpha
    # -1e-3` is an error there; hal reads them as values (the dash rule). The
    # reference gets hal's rule, so on such command lines the test asserts it.
    for p in (parser, *_subparsers(parser).values()):
        p._negative_number_matcher = re.compile(r"-\.?\d")
    return parser.parse_args(argv)


def _outcome(parse, argv):
    """A parse's namespace as a dict, or its exit code and the start of stdout."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            return vars(parse(argv))
    except SystemExit as exc:
        return exc.code, out.getvalue()[:6]  # "usage:" for help, "hal 1." for the version


#: Command lines of the README, the CI workflow and these tests.
KNOWN_LINES = (
    ["protocol", "--alpha", "0.02", "--t", "0.2"],
    ["protocol", "--alpha", "0.01", "--t", "0.1", "--mode", "first-order"],
    ["protocol", "--alpha", "0.01", "--t", "0.1", "--cutoff", "400", "--source-eff", "0.9",
     "--out", "protocol.json"],
    ["protocol", "--alpha", "6", "--t", "0.1", "--input", "coherent"],
    ["protocol", "--alpha", "0", "--t", "0.1", "--source-eff", "0", "--read-eff", "0.5",
     "--dark-count", "0.01"],
    ["sweep", "--alpha", "0", "--grid", "grid.txt", "--out", "sweep.csv"],
    ["sweep", "--grid", "grid.txt"],
    ["ensemble", "--n-atoms", "10000", "--epsilon", "0.001"],
    ["ensemble", "--n-atoms", "100", "--epsilon", "0.01", "--cutoff", "3"],
    ["campaign", "campaign.ini", "--seed", "7", "--out", "summary.json", "--runs-csv", "runs.csv"],
    ["campaign", "c.ini", "--out", "-", "--runs-csv", "-"],
    ["validate"],
    ["--version"],
)
FLAG_VALUES = ("0", "0.1", "12", "-", "-0.5", "-1e-3", "-1,2", "-.5", "", "truncated", "coherent",
               "exact", "first-order", "c.ini")
OTHER_TOKENS = ("--bogus", "--bogus=1", "-x", "stray", "c.ini", "--", "-h", "--help", "-1e-3", "-")


def _flag_forms(subcommands):
    """Per subcommand (and "frobnicate"), each flag of any subcommand as
    written in full and by its shortest unique prefix among the subcommand's."""
    every = sorted({f for p in subcommands.values() for a in p._actions for f in a.option_strings
                    if f.startswith("--") and f != "--help"})
    forms = {"frobnicate": every}
    for name, parser in subcommands.items():
        own = [f for a in parser._actions for f in a.option_strings]
        forms[name] = every + [
            next(flag[:n] for n in range(3, len(flag) + 1) if sum(o.startswith(flag[:n]) for o in own) == 1)
            for flag in every if flag in own
        ]
    return forms


@st.composite
def _command_lines(draw):
    argv = list(draw(st.sampled_from(KNOWN_LINES) | st.sampled_from(
        ("protocol", "sweep", "ensemble", "campaign", "validate", "frobnicate")).map(lambda s: [s])))
    names = FLAG_FORMS.get(argv[0], FLAG_FORMS["frobnicate"])
    for _ in range(draw(st.integers(0, 5))):
        flag, value = draw(st.sampled_from(names)), draw(st.sampled_from(FLAG_VALUES))
        token = draw(st.sampled_from(OTHER_TOKENS))
        item = draw(st.sampled_from(([flag, value], [f"{flag}={value}"], [flag], [token])))
        at = draw(st.integers(1, len(argv)))
        argv[at:at] = item
    return argv


FLAG_FORMS = _flag_forms(_subparsers(build_parser()))


@settings(max_examples=250, deadline=None)
@given(_command_lines())
def test_parser_agrees_with_argparse_reference(argv):
    assert _outcome(cli._parse, argv) == _outcome(_reference_parse, argv)


def test_bad_values_exit_2(capsys):
    assert main(["protocol", "--alpha", "banana", "--t", "0.1"]) == 2
    assert main(["protocol", "--alpha", "0.01", "--t", "1.5"]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, rc",
    [
        (["protocol", "--alpha", "1e300", "--t", "0.1"], 2),
        (["protocol", "--alpha", "1e300", "--t", "0.1", "--input", "coherent"], 2),
        (["protocol", "--alpha", "1e300", "--t", "0.1", "--mode", "first-order"], 2),
        (["ensemble", "--n-atoms", "100", "--epsilon", "1e200"], 2),
        (["protocol", "--alpha", "0.5", "--t", "1e-200"], 0),
    ],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_huge_amplitudes_exit_cleanly(argv, rc, capsys):
    # |alpha|^2 overflows, or alpha / t does in the target state: no numpy
    # warning and no traceback, but one message line or a result
    assert main(argv) == rc
    err = capsys.readouterr().err
    assert err.count("\n") == (1 if rc else 0)
    if rc:
        assert "finite |" in err


@pytest.mark.parametrize(
    "alpha, t, message",
    [
        # 1/t overflows below the smallest normal double: rejected where t enters
        ("0.5", "4e-324", repr(sys.float_info.min)),
        ("0.5", "1e-320", repr(sys.float_info.min)),
        # a normal t: the gain is finite, the target state's alpha / t is not
        ("1e10", "3e-308", "amplitudes must be finite"),
    ],
)
def test_tiny_t_exits_2_without_a_numpy_warning(alpha, t, message, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["protocol", "--alpha", alpha, "--t", t]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err


def test_subnormal_alpha_squared_exits_2_without_a_numpy_warning(capsys):
    # |alpha|^2 below the smallest normal double: rho_11, proportional to
    # it, is subnormal or zero and the mixed gain reads 0.0 at 1e-162
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["protocol", "--alpha", "1e-160", "--t", "0.1", "--source-eff", "0.9"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and repr(sys.float_info.min) in err
    # just above that bound, with a dark count (rho_11 stays normal, the gain
    # grows like 1/|alpha|), and at alpha = 0 the gain is defined (or NaN)
    boundary = math.sqrt(sys.float_info.min) * (1 + 1e-7)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        args = ["protocol", "--alpha", repr(boundary), "--t", "0.1", "--source-eff", "0.9"]
        assert main(args + ["--dark-count", "1e-4"]) == 0
        assert 1e152 < json.loads(capsys.readouterr().out)["gain"] < 1e153
        assert main(["protocol", "--alpha", "0", "--t", "0.1", "--source-eff", "0.9"]) == 0
        assert json.loads(capsys.readouterr().out)["gain"] is None  # NaN
    base = ProtocolConfig(alpha=0.0, t=0.1, herald=HeraldModel(dark_count=1e-4))
    rows = sweep(base, {"alpha": [1e-160, boundary]})
    assert rows["error_code"].tolist() == ["validation", ""]


@pytest.mark.parametrize(
    "alpha, read_eff, rc",
    [
        # without dark counts rho_11 is about 0.864 |alpha|^2 here: subnormal
        # at the |alpha|^2 bound itself, normal 8% above it
        (math.sqrt(sys.float_info.min) * (1 + 1e-7), "1", 2),
        (math.sqrt(sys.float_info.min) * 1.07, "1", 2),
        (math.sqrt(sys.float_info.min) * 1.08, "1", 0),
        # a normal |alpha|^2, but a read efficiency that takes rho_11 to zero
        # while the click probability, about 1e-282, is still possible
        (1e-22, "1e-280", 2),
        (1e-22, "1e-250", 0),
    ],
)
def test_subnormal_one_excitation_population_exits_2(alpha, read_eff, rc, capsys):
    args = ["protocol", "--alpha", repr(alpha), "--t", "0.1", "--source-eff", "0.9",
            "--read-eff", read_eff]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(args) == rc
    out, err = capsys.readouterr()
    if rc:
        assert err.count("\n") == 1 and "one-excitation population" in err
    else:
        assert abs(json.loads(out)["gain"] - 9.8) < 1e-12
    herald = HeraldModel(read_efficiency=float(read_eff))
    rows = sweep(ProtocolConfig(alpha=alpha, t=0.1, source_efficiency=0.9, herald=herald),
                 {"t": [0.1, 0.2]})
    assert rows["error_code"][0] == ("validation" if rc else "")


def _csv_lines(rows):
    return b"".join(_sweep_csv(rows, "{}")).split(b"\n")[2:-1]


def test_sweep_rows_do_not_depend_on_their_batch(monkeypatch):
    # a point's CSV bytes are the same swept alone, inside a 2000-point grid
    # (many batches), and on two worker threads
    base = ProtocolConfig(alpha=0.01, t=0.1, cutoff=3, source_efficiency=0.9,
                          herald=HeraldModel(read_efficiency=0.9, dark_count=1e-4))
    axes = {"t": np.linspace(0.05, 0.3, 40).tolist(), "alpha": np.linspace(0, 0.02, 50).tolist(),
            "p1": [0.9, 1.0]}
    grid = _csv_lines(sweep(base, axes))
    assert len(grid) == 4000
    for k in (0, 1, 1337, 3999):
        i, j, m = np.unravel_index(k, (40, 50, 2))
        alone = {"t": [axes["t"][i]], "alpha": [axes["alpha"][j]], "p1": [axes["p1"][m]]}
        assert _csv_lines(sweep(base, alone)) == [grid[k]]
    monkeypatch.setenv("HAL_THREADS", "2")
    assert _csv_lines(sweep(base, axes)) == grid
    # coherent points at cutoff 130, one per batch, with eta_r and p_d swept
    # on worker threads; a tiny switch interval makes the workers interleave
    # on nearly every call
    coherent = replace(base, input_kind="coherent", cutoff=130)
    axes = {"alpha": [0.5, 2.0, 3.0], "t": [0.1, 0.2], "eta_r": [0.9, 0.5], "p_d": [1e-4, 0.0]}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = _csv_lines(sweep(coherent, axes))
    finally:
        sys.setswitchinterval(interval)
    monkeypatch.setenv("HAL_THREADS", "1")
    assert _csv_lines(sweep(coherent, axes)) == threaded
    alone = {"alpha": [3.0], "t": [0.2], "eta_r": [0.5], "p_d": [0.0]}
    assert _csv_lines(sweep(coherent, alone)) == threaded[-1:]


def test_protocol_bytes_do_not_depend_on_blas_threads(tmp_path):
    # the herald is elementwise, with no matrix product whose summation order
    # a BLAS thread count could change
    args = ["protocol", "--alpha", "3", "--t", "0.2", "--cutoff", "150", "--input", "coherent",
            "--source-eff", "0.9", "--read-eff", "0.9", "--dark-count", "1e-4",
            "--out", str(tmp_path / "p.json")]
    docs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": threads}
        subprocess.run([sys.executable, "-m", "hal.cli", *args], env=env, capture_output=True,
                       timeout=120, check=True)
        docs.append((tmp_path / "p.json").read_bytes())
    assert docs[0] == docs[1]


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


@pytest.mark.parametrize("cutoff", ["0", "-1"])
def test_ensemble_cutoff_below_one_exit_2(cutoff, capsys):
    # the message names the flag's value, not a derived internal one
    assert main(["ensemble", "--n-atoms", "100", "--epsilon", "0.01", "--cutoff", cutoff]) == 2
    err = capsys.readouterr().err
    assert f"cutoff must be a positive integer, got {cutoff}" in err
    assert "k_max" not in err


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


@pytest.mark.parametrize("replicas", [MAX_REPLICAS + 1, 10**9])
def test_campaign_above_replica_limit_exit_2_without_allocating(replicas, tmp_path, capsys):
    # one attempt per replica passes every attempt ceiling; each replica
    # would still keep its summary entry (about 136 B, 135 GB at 1e9)
    cfg = tmp_path / "c.ini"
    cfg.write_text(DIRECT_CFG.replace("total_time = 10", "total_time = 0.1")
                   .replace("replicas = 3", f"replicas = {replicas}"))
    rc, peak = _peak_bytes(lambda: main(["campaign", str(cfg), "--out", str(tmp_path / "s.json")]))
    assert rc == 2
    assert peak < 1e6
    assert f"{replicas} replicas exceed the limit of {MAX_REPLICAS}" in capsys.readouterr().err
    assert not (tmp_path / "s.json").exists()


def test_campaign_attempt_count_overflow_exit_2(tmp_path, capsys):
    # 1e300 / 1e-10 is inf, which no attempt count can hold
    cfg = tmp_path / "c.ini"
    cfg.write_text(DIRECT_CFG.replace("total_time = 10", "total_time = 1e300\nrun_period = 1e-10"))
    assert main(["campaign", str(cfg), "--out", str(tmp_path / "s.json")]) == 2
    assert "total_time / run_period overflows" in capsys.readouterr().err
    assert not (tmp_path / "s.json").exists()
    # the largest finite quotient is a count, over the limit
    cfg.write_text(DIRECT_CFG.replace("total_time = 10",
                                      "total_time = 1.7976931348623157e308\nrun_period = 1"))
    assert main(["campaign", str(cfg), "--out", str(tmp_path / "s.json")]) == 2
    assert capsys.readouterr().err.endswith(" attempts per replica exceed the limit of 10000000\n")
    assert not (tmp_path / "s.json").exists()


def _direct_cfg(true_alpha: str, noise: str) -> str:
    return (
        f"[campaign]\nscheme = direct\ntrue_alpha = {true_alpha}\ntotal_time = 100\n"
        f"replicas = 3\nseed = 1\n[noise]\n{noise}\n"
    )


@pytest.mark.parametrize(
    "true_alpha, noise, message",
    [
        ("1e308", "kind = white\nsigma_tech = 0.1", "|true_alpha| must be at most 1e+140"),
        ("0.01", "kind = ar1\nsigma_tech = 1e300\nlambda = 0.5", "sigma_tech must be in [0, 1e+140]"),
        ("0.01", "kind = systematic\noffset = -1e308", "|offset| must be at most 1e+140"),
    ],
    ids=["true_alpha", "sigma_tech", "offset"],
)
def test_campaign_input_that_overflows_the_statistics_exit_2(
    true_alpha, noise, message, tmp_path, capsys
):
    # each ran with a numpy overflow or invalid-value warning and printed
    # null statistics; the suite turns such a warning into an error
    cfg = tmp_path / "c.ini"
    cfg.write_text(_direct_cfg(true_alpha, noise))
    assert main(["campaign", str(cfg)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "true_alpha, noise",
    [
        ("-1e140", "kind = ar1\nsigma_tech = 1e140\nlambda = 0.999"),
        ("1e140", "kind = systematic\noffset = 1e140"),
    ],
    ids=["ar1", "systematic"],
)
def test_campaign_at_the_input_bound_has_finite_statistics(true_alpha, noise, tmp_path, capsys):
    cfg = tmp_path / "c.ini"
    cfg.write_text(_direct_cfg(true_alpha, noise))
    assert main(["campaign", str(cfg)]) == 0
    doc = json.loads(capsys.readouterr().out)
    for name in ("estimate_mean", "bias", "variance", "rmse"):
        assert math.isfinite(doc[name]), name


def test_impossible_outcome_exit_2(capsys):
    assert main(["protocol", "--alpha", "0", "--t", "0.1", "--source-eff", "0",
                 "--dark-count", "0"]) == 2
    assert "impossible" in capsys.readouterr().err


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


def test_protocol_document_is_sized_by_the_support(tmp_path):
    # the two-term signal's conditional state holds three levels at any
    # cutoff: the cutoff-400 document carries that block, not 401^2 zeros,
    # and the block is herald_click's divided by the click probability
    out = tmp_path / "point.json"
    argv = ["protocol", "--alpha", "0.01", "--t", "0.1", "--cutoff", "400",
            "--source-eff", "0.9", "--out", str(out)]
    assert main(argv) == 0
    assert out.stat().st_size < 2048
    state = json.loads(out.read_text())["conditional_state"]
    assert (state["kind"], state["levels"], state["cutoff"]) == ("mixed", 3, 400)
    rho = herald_click(
        np.array([0.01 + 0j]), np.zeros(1), np.array([0.1]), 400, False, np.array([0.9]),
        HeraldModel().click_weights(2)[None], "A",
    )[0][0]
    block = rho / np.trace(rho).real
    assert [[complex(v["re"], v["im"]) for v in row] for row in state["matrix"]] == block.tolist()
    assert state["diagonal"] == block.diagonal().real.tolist()


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


@pytest.mark.parametrize("flag, value", [
    ("--cutoff", "400"), ("--input", "coherent"), ("--source-eff", "0.5"),
    ("--read-eff", "0.9"), ("--dark-count", "0.1"), ("--cutoff", "12"),
])
def test_protocol_first_order_refuses_exact_flags(flag, value, tmp_path, capsys):
    # the first-order protocol reads --alpha and --t only: a flag of the
    # exact protocol, even at its default, exits 2 naming it and writes nothing
    out = tmp_path / "fo.json"
    argv = ["protocol", "--alpha", "0.01", "--t", "0.1", "--mode", "first-order", "--out", str(out)]
    assert main(argv + [flag, value]) == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()
    assert main(argv) == 0 and out.exists()


@pytest.mark.parametrize("mode", ["exact", "first-order"])
def test_protocol_writes_the_regime_flag(mode, capsys):
    # |alpha| <= 0.2 t and t <= 0.3: a key after leading_gain, not a warning
    for alpha, flag in (("0.01", True), ("0.05", False)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["protocol", "--alpha", alpha, "--t", "0.1", "--mode", mode]) == 0
        out, err = capsys.readouterr()
        doc = json.loads(out)
        assert doc["in_recommended_regime"] is flag and err == ""
        keys = list(doc)
        assert keys[keys.index("leading_gain") + 1] == "in_recommended_regime"


def test_campaign_summary_carries_the_regime_flag(tmp_path, capsys):
    # an amplified summary holds its protocol's flag after rmse; a direct
    # campaign has no protocol and holds null
    cfg = tmp_path / "c.ini"
    for text, flag in ((AMPLIFIED_CFG, True), (AMPLIFIED_CFG.replace("0.01", "0.05"), False),
                       (DIRECT_CFG, None)):
        cfg.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["campaign", str(cfg)]) == 0
        out, err = capsys.readouterr()
        doc = json.loads(out)
        assert doc["in_recommended_regime"] is flag and err == ""
        keys = list(doc)
        assert keys[keys.index("rmse") + 1] == "in_recommended_regime"


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


def test_sweep_csv_layout(tmp_path):
    # manifest line, header, then one line per point in the per-cell
    # rendering and a final newline; invalid points are validation rows of
    # nan results, and a cutoff beyond int64 prints as its exact integer
    grid = tmp_path / "grid.txt"
    grid.write_text("p1 = 0.9, 1.2\ncutoff = 12, 1e23\n")
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--alpha", "0.01", "--t", "0.1", "--grid", str(grid), "--out", str(out)]) == 0
    lines = out.read_bytes().decode("ascii").split("\n")
    assert lines[0].startswith("# manifest: ")
    assert json.loads(lines[0][len("# manifest: "):])["subcommand"] == "sweep"
    assert lines[1] == ",".join(ROW_COLUMNS)
    assert len(lines) == 2 + 4 + 1 and lines[-1] == ""
    rows = sweep(ProtocolConfig(alpha=0.01, t=0.1), parse_grid_file(grid.read_text()))
    assert lines[2:-1] == [_csv_row(row[name] for name in ROW_COLUMNS) for row in rows]
    assert [row["error_code"] for row in rows] == ["", "validation", "validation", "validation"]
    assert lines[3].split(",")[6:] == [
        "99999999999999991611392", "nan", "nan", "nan", "0.010000000000000002", "10", "validation",
    ]


def test_sweep_malformed_grid_exit_2(tmp_path, capsys):
    grid = tmp_path / "grid.txt"
    grid.write_text("t = 0.1\nwhat is this\n")
    assert main(["sweep", "--grid", str(grid)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_sweep_missing_grid_file_exit_2(tmp_path):
    assert main(["sweep", "--grid", str(tmp_path / "nope.txt")]) == 2


def test_sweep_grid_that_is_not_utf8_exit_2(tmp_path, capsys):
    grid, out = tmp_path / "grid.txt", tmp_path / "sweep.csv"
    grid.write_bytes(b"t = 0.1\xff\n")
    assert main(["sweep", "--grid", str(grid), "--out", str(out)]) == 2
    assert f"{grid}: byte 7 is not UTF-8" in capsys.readouterr().err
    assert not out.exists()


def test_campaign_file_that_is_not_utf8_exit_2(tmp_path, capsys):
    cfg, out = tmp_path / "c.ini", tmp_path / "s.json"
    cfg.write_bytes(DIRECT_CFG.replace("scheme = direct", "scheme = direct\xff").encode("latin-1"))
    assert main(["campaign", str(cfg), "--out", str(out)]) == 2
    assert f"{cfg}: byte 26 is not UTF-8" in capsys.readouterr().err
    assert not out.exists()


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


def test_campaign_file_misspelt_campaign_field_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "c.ini"
    cfg.write_text(DIRECT_CFG.replace("seed = 11\n", "seed = 11\nrun_perod = 1\n"))
    assert main(["campaign", str(cfg)]) == 2
    assert "unknown field: campaign.run_perod" in capsys.readouterr().err


def test_campaign_file_misspelt_noise_field_is_rejected():
    with pytest.raises(ValidationError, match=r"unknown field: noise\.sigma$"):
        parse_campaign_file(DIRECT_CFG.replace("sigma_tech = 0.05", "sigma = 0.05"))


def test_campaign_file_misspelt_protocol_field_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "c.ini"
    cfg.write_text(AMPLIFIED_CFG + "sorce_efficiency = 0.5\n")
    assert main(["campaign", str(cfg)]) == 2
    assert "unknown field: protocol.sorce_efficiency" in capsys.readouterr().err


def test_campaign_file_misspelt_herald_field_is_rejected():
    with pytest.raises(ValidationError, match=r"unknown field: herald\.dark_counts$"):
        parse_campaign_file(AMPLIFIED_CFG + "\n[herald]\ndark_counts = 1e-4\n")
    # the parser's own names for the library fields are not field names
    with pytest.raises(ValidationError, match=r"unknown field: noise\.lam$"):
        parse_campaign_file(DIRECT_CFG + "lam = 0.5\n")


@pytest.mark.parametrize("default", ["[DEFAULT]\n", "[DEFAULT]\nsource_efficiency = 0.5\n"])
def test_campaign_file_default_section_is_rejected(default, tmp_path, capsys):
    # configparser would copy [DEFAULT] keys into every section
    cfg = tmp_path / "c.ini"
    cfg.write_text(default + AMPLIFIED_CFG)
    assert main(["campaign", str(cfg)]) == 2
    assert "unknown config section [DEFAULT]" in capsys.readouterr().err


def test_campaign_file_seed_override_skips_the_file_seed():
    # the override replaces the file's seed before it is parsed
    assert parse_campaign_file(DIRECT_CFG.replace("seed = 11", "seed = x"), seed_override=4).seed == 4
    with pytest.raises(ValidationError, match="campaign.seed"):
        parse_campaign_file(DIRECT_CFG.replace("seed = 11", "seed = x"))


def test_campaign_run_and_seed_override(tmp_path, capsys):
    cfg = tmp_path / "c.ini"
    cfg.write_text(DIRECT_CFG)
    rc = main(["campaign", str(cfg)])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["manifest"]["parameters"]["seed"] == 11
    assert doc["attempts"] == 100
    assert doc["replicas"] == 3
    assert doc["successes"] == 300
    rc = main(["campaign", str(cfg), "--seed", "99"])
    assert rc == 0
    doc2 = json.loads(capsys.readouterr().out)
    assert doc2["manifest"]["parameters"]["seed"] == 99
    assert doc2["estimate_mean"] != doc["estimate_mean"]


def test_direct_campaign_refuses_a_herald_section(tmp_path, capsys):
    # a [herald] is read by a protocol, which a direct campaign has not:
    # refused like a [protocol], before either output is opened
    for herald in ("read_efficiency = 5\n", "mode = B\n"):
        cfg = tmp_path / "c.ini"
        cfg.write_text(DIRECT_CFG + "\n[herald]\n" + herald)
        out, runs = tmp_path / "s.json", tmp_path / "runs.csv"
        assert main(["campaign", str(cfg), "--out", str(out), "--runs-csv", str(runs)]) == 2
        assert "hal: error: direct scheme takes no herald\n" == capsys.readouterr().err
        assert not out.exists() and not runs.exists()


def _keys(cls) -> list:
    """A config's fields as a campaign file and a manifest name them."""
    return ["lambda" if f.name == "lam" else f.name for f in fields(cls)]


def _manifest_parameters(argv, capsys) -> dict:
    """The manifest parameters of what main(argv) writes to stdout."""
    assert main(argv) == 0
    first = capsys.readouterr().out.split("\n", 1)[0]
    if first.startswith("# manifest: "):  # a CSV
        return json.loads(first[len("# manifest: "):])["parameters"]
    return json.loads(first)["manifest"]["parameters"]


def test_manifests_record_every_config_field(tmp_path, capsys):
    # each command's manifest holds every field of the configs it ran, in
    # declaration order, a config among them nested
    params = _manifest_parameters(
        ["protocol", "--alpha", "0.01,0.002", "--t", "0.2", "--cutoff", "20", "--input", "coherent",
         "--source-eff", "0.9", "--read-eff", "0.8", "--dark-count", "1e-3"], capsys)
    assert list(params) == ["mode", *_keys(ProtocolConfig)]
    assert list(params["herald"]) == _keys(HeraldModel)
    assert params == {"mode": "exact", "alpha": {"re": 0.01, "im": 0.002}, "t": 0.2, "cutoff": 20,
                      "input_kind": "coherent", "source_efficiency": 0.9,
                      "herald": {"read_efficiency": 0.8, "dark_count": 1e-3, "mode": "A",
                                 "resolving": True}}
    grid = tmp_path / "grid.txt"
    grid.write_text("t = 0.1, 0.2\n")
    params = _manifest_parameters(["sweep", "--grid", str(grid), "--read-eff", "0.5"], capsys)
    assert list(params) == [*_keys(ProtocolConfig), "axes"]
    assert params["herald"]["read_efficiency"] == 0.5 and params["axes"] == {"t": [0.1, 0.2]}
    cfg = tmp_path / "c.ini"
    cfg.write_text(AMPLIFIED_CFG)
    params = _manifest_parameters(["campaign", str(cfg)], capsys)
    assert list(params) == _keys(CampaignConfig)
    assert list(params["noise"]) == _keys(NoiseModel)
    assert list(params["protocol"]) == _keys(ProtocolConfig)
    assert list(params["protocol"]["herald"]) == _keys(HeraldModel)
    cfg.write_text(AR1_DIRECT_CFG)
    params = _manifest_parameters(["campaign", str(cfg)], capsys)
    assert params["protocol"] is None and params["noise"]["lambda"] == 0.9
    params = _manifest_parameters(["ensemble", "--n-atoms", "100", "--epsilon", "0.01"], capsys)
    assert params == {"N": 100, "epsilon": {"re": 0.01, "im": 0}, "cutoff": 12}
    assert list(params) == [*_keys(EnsembleSpec), "cutoff"]


def _as_campaign_file(params) -> str:
    """A campaign manifest's parameters written back as a campaign file."""
    sections = {"campaign": params, "noise": params["noise"]}
    if params["protocol"] is not None:
        sections.update(protocol=params["protocol"], herald=params["protocol"]["herald"])
    lines = []
    for name, values in sections.items():
        lines.append(f"[{name}]")
        for key, value in values.items():
            if key == "alpha":
                value = f"{value['re']},{value['im']}"
            if key not in ("noise", "protocol", "herald"):
                lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("text", [
    AMPLIFIED_CFG.replace("total_time = 200", "total_time = 200\nrun_period = 0.5")
    .replace("sigma_tech = 0", "sigma_tech = 0.05")
    .replace("t = 0.1\n", "t = 0.1\ncutoff = 8\nsource_efficiency = 0.9\n")
    + "\n[herald]\nread_efficiency = 0.9\ndark_count = 1e-4\nmode = B\nresolving = false\n",
    AR1_DIRECT_CFG,
], ids=["amplified", "direct-ar1"])
def test_campaign_manifest_round_trips(text, tmp_path, capsys):
    # the manifest's parameters, written back as a campaign file, are the
    # campaign's config: an equal manifest reruns the same campaign
    cfg = tmp_path / "c.ini"
    cfg.write_text(text)
    params = _manifest_parameters(["campaign", str(cfg)], capsys)
    config = parse_campaign_file(text)
    assert parse_campaign_file(_as_campaign_file(params)) == config
    if config.protocol is not None:
        assert config.protocol.herald == HeraldModel(0.9, 1e-4, "B", False)


def test_campaign_manifest_records_the_read_mode(tmp_path, capsys):
    # mode A and mode B herald 41 and 3578 times in 2 x 2000 attempts, so
    # their manifests differ
    text = AR1_AMPLIFIED_CFG.replace(AR1_NOISE, "[noise]\nkind = white\nsigma_tech = 0.05\n")
    docs = []
    for mode in ("A", "B"):
        cfg = tmp_path / f"{mode}.ini"
        cfg.write_text(text + f"\n[herald]\nmode = {mode}\n")
        assert main(["campaign", str(cfg)]) == 0
        docs.append(json.loads(capsys.readouterr().out))
    assert [doc["successes"] for doc in docs] == [41, 3578]
    assert [doc["manifest"]["parameters"]["protocol"]["herald"]["mode"] for doc in docs] == ["A", "B"]


def test_every_config_field_has_a_parser():
    # each field of a section's config is parsed by its declared type, or is
    # the config of another section; each protocol flag sets one such field
    assert set(cli._SECTIONS.values()) == {CampaignConfig, NoiseModel, ProtocolConfig, HeraldModel}
    for cls in cli._SECTIONS.values():
        for f in fields(cls):
            assert f.name in cli._SECTIONS or f.type in cli._PARSERS, (cls.__name__, f.name, f.type)
    for flag, (section, name) in cli._FLAG_FIELDS.items():
        assert name in [f.name for f in fields(cli._SECTIONS[section])], flag


def test_campaign_without_a_herald_prints_null(tmp_path, capsys):
    # a replica with no success has a NaN estimate, printed as null
    cfg = tmp_path / "c.ini"
    cfg.write_text(
        "[campaign]\nscheme = amplified\ntrue_alpha = 0.001\ntotal_time = 3\n"
        "run_period = 0.1\nreplicas = 6\nseed = 3\n"
        "[noise]\nkind = ar1\nsigma_tech = 0.1\nlambda = 0.5\n"
        "[protocol]\nalpha = 0.001\nt = 0.05\n"
    )
    assert main(["campaign", str(cfg)]) == 0
    text = capsys.readouterr().out
    assert "NaN" not in text
    doc = json.loads(text)
    nulls = [i for i, e in enumerate(doc["per_replica_estimates"]) if e is None]
    assert len(nulls) == 5 and doc["no_success_replicas"] == nulls
    assert [doc["per_replica_successes"][i] for i in nulls] == [0] * 5


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


def _csv_cell(value):
    """The per-cell reference every CSV cell must match: integers in decimal,
    floats with 17 significant digits, text as is."""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _csv_row(values):
    return ",".join(_csv_cell(v) for v in values)


def _recorded(cfg):
    """run_campaign with a sink that keeps every replica's arrays: the
    summary and the replica-major records (heralded, x_sample, noise_value),
    x_sample NaN where an attempt did not herald."""
    runs = []

    def keep(heralded, samples, noise_value):
        x_sample = np.full(len(heralded), np.nan)
        x_sample[heralded != 0] = samples
        runs.append((heralded, x_sample, noise_value))

    summary = run_campaign(cfg, keep)
    return summary, tuple(np.concatenate(column) for column in zip(*runs))


def _run_rows(records, attempts):
    """(replica, attempt_index, heralded, x_sample, noise_value) of every row
    of replica-major records, one attempt at a time."""
    heralded, x_sample, noise_value = records
    for row in range(len(heralded)):
        yield row // attempts, row % attempts, int(heralded[row]), x_sample[row], noise_value[row]


def test_runs_csv_matches_per_cell_reference(tmp_path):
    cfg = tmp_path / "c.ini"
    cfg.write_text(AR1_AMPLIFIED_CFG)
    runs = tmp_path / "runs.csv"
    assert main(["campaign", str(cfg), "--out", str(tmp_path / "s.json"), "--runs-csv", str(runs)]) == 0
    data = runs.read_bytes()

    # reference: the per-cell rendering of the recorded attempts
    summary, records = _recorded(parse_campaign_file(AR1_AMPLIFIED_CFG))
    manifest_line = data.decode().split("\n", 1)[0]
    assert manifest_line.startswith("# manifest: ")
    ref = [manifest_line, ",".join(RUN_COLUMNS)]
    ref += [_csv_row(cells) for cells in _run_rows(records, summary.attempts)]
    assert data == ("\n".join(ref) + "\n").encode()
    assert summary.attempts == 2000 and len(ref) == 2 + 2 * 2000
    heralded = int(records[0].sum())
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

    summary, records = _recorded(parse_campaign_file(text))
    ref = data.decode().split("\n", 2)[:2]
    ref += [_csv_row(values) for values in _run_rows(records, summary.attempts)]
    assert data == ("\n".join(ref) + "\n").encode()
    assert len(ref) == 2 + 2 * 2000


def _run_lines(records, attempts):
    """The data lines of the runs CSV, as _RunsCsv renders replica-major
    records (heralded, x_sample, noise_value) handed to it replica by replica
    as a sink receives them, the x_sample of the heralded attempts only
    (without the manifest and header chunk), and each block's line count."""
    chunks = []
    runs = _RunsCsv(attempts, "{}", chunks.append)
    for start in range(0, len(records[0]), attempts):
        heralded, x_sample, noise_value = (column[start : start + attempts] for column in records)
        runs(heralded, x_sample[heralded != 0], noise_value)
    runs.flush()
    # each block is written as its lines, then as the newline after the last
    lines, newlines = chunks[1::2], chunks[2::2]
    assert len(lines) == len(newlines) and set(newlines) <= {b"\n"}
    assert not any(b.endswith(b"\n") for b in lines)
    blocks = [b + b"\n" for b in lines]
    return b"".join(blocks), [b.count(b"\n") for b in blocks]


def test_run_lines_special_values_match_csv_row():
    # four replicas of six attempts, each with the same special values; the
    # attempt that did not herald has x_sample nan
    x = np.tile([-0.0, float("nan"), float("inf"), -float("inf"), 5e-324, 0.1], 4)
    v = np.tile([0.0, -1e308, 2.5, -0.0, float("nan"), 1 / 3], 4)
    records = (np.tile(np.array([1, 0, 1, 1, 1, 1], dtype=np.int8), 4), x, v)
    expected = [_csv_row(values) for values in _run_rows(records, 6)]
    text, _ = _run_lines(records, 6)
    assert text == ("\n".join(expected) + "\n").encode("ascii")
    assert expected[18] == "3,0,1,-0,0"


def test_run_lines_blocks_span_short_replicas(monkeypatch):
    # replicas shorter than a block share it: every block but the last holds
    # _ROW_CHUNK lines, and the text equals the per-row rendering
    monkeypatch.setattr("hal.cli._ROW_CHUNK", 7)
    rng = np.random.default_rng(2)
    rows = 8 * 5
    heralded = (rng.random(rows) < 0.5).astype(np.int8)
    records = (heralded, np.where(heralded == 1, rng.normal(size=rows), np.nan),
               rng.normal(scale=0.1, size=rows))
    expected = [_csv_row(values) for values in _run_rows(records, 5)]
    text, lines = _run_lines(records, 5)
    assert lines == [7] * 5 + [5]
    assert text == ("\n".join(expected) + "\n").encode("ascii")
    assert expected[7] == _csv_row((1, 2) + tuple(v[7] for v in records))


def test_run_lines_blocks_inside_long_replicas(monkeypatch):
    # a block inside one replica renders from views of its arrays, the rest
    # from the buffers: 3 replicas of 17 attempts give blocks 0-6, 7-13
    # (views), 14-20 (across replicas 0 and 1), ...
    monkeypatch.setattr("hal.cli._ROW_CHUNK", 7)
    rng = np.random.default_rng(5)
    rows = 3 * 17
    heralded = (rng.random(rows) < 0.5).astype(np.int8)
    records = (heralded, np.where(heralded == 1, rng.normal(size=rows), np.nan),
               rng.normal(scale=0.1, size=rows))
    expected = [_csv_row(values) for values in _run_rows(records, 17)]
    text, lines = _run_lines(records, 17)
    assert lines == [7] * 7 + [2]
    assert text == ("\n".join(expected) + "\n").encode("ascii")
    assert expected[20] == _csv_row((1, 3) + tuple(v[20] for v in records))


def _write_amplified_runs(tmp_path, attempts):
    """Record one amplified replica of `attempts`, then write its runs CSV
    under tracemalloc: the file's size and the write step's peak."""
    text = _campaign_cfg(
        "amplified", "kind = white\nsigma_tech = 0.05",
        "[protocol]\nalpha = 0.01\nt = 0.1\nsource_efficiency = 0.9\n",
    ).replace("total_time = 2000", f"total_time = {attempts}").replace("replicas = 2", "replicas = 1")
    summary, records = _recorded(parse_campaign_file(text))
    path = tmp_path / "runs.csv"

    heralded, x_sample, noise_value = records
    samples = x_sample[heralded != 0]

    def write():
        with open(path, "wb") as fh:
            runs = _RunsCsv(summary.attempts, "{}", fh.write)
            runs(heralded, samples, noise_value)
            runs.flush()

    _, peak = _peak_bytes(write)
    return path.stat().st_size, peak


def test_runs_csv_writer_memory_is_flat(tmp_path):
    # the whole document (7 MB at 2e5 rows, 29 MB at 8e5) is far over the
    # bound; the writer holds one rendered block, a tracemalloc peak of
    # 0.61-0.70 MB (150-170 B per row of the block) at both sizes, on one
    # thread and on two. The bound leaves 1.9x of that
    bound = 320 * _ROW_CHUNK
    small_size, small_peak = _write_amplified_runs(tmp_path, 200_000)
    large_size, large_peak = _write_amplified_runs(tmp_path, 800_000)
    assert bound < small_size < large_size
    assert small_peak < bound and large_peak < bound
    # flat: four times the rows hold less than one more block's layout (a
    # runs CSV row is laid out in 38 bytes, see csv_block)
    assert large_peak - small_peak < 38 * _ROW_CHUNK


def test_runs_csv_to_stdout_matches_the_file(tmp_path, capsysbinary, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.ini").write_text(AR1_AMPLIFIED_CFG)

    def stdout_of(out, runs):
        assert main(["campaign", "c.ini", "--out", out, "--runs-csv", runs]) == 0
        return capsysbinary.readouterr().out

    def named(data, out, runs):
        # the manifests list the outputs; every other byte is the same
        return data.replace(b'"outputs":["s.json","runs.csv"]',
                            f'"outputs":["{out}","{runs}"]'.encode())

    assert stdout_of("s.json", "runs.csv") == b""
    summary, runs = (tmp_path / "s.json").read_bytes(), (tmp_path / "runs.csv").read_bytes()
    assert runs.count(b"\n") == 2 + 2 * 2000
    assert stdout_of("s.json", "-") == named(runs, "s.json", "-")
    assert stdout_of("-", "-") == named(summary + runs, "-", "-")  # summary first
    # text a caller left in a buffered stdout still comes first
    buffered = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    monkeypatch.setattr(sys, "stdout", buffered)
    print("before")
    assert main(["campaign", "c.ini", "--out", "-", "--runs-csv", "-"]) == 0
    buffered.flush()
    assert buffered.buffer.getvalue() == b"before\n" + named(summary + runs, "-", "-")
    # a text-only stdout gets the same text
    with contextlib.redirect_stdout(io.StringIO()) as text_out:
        assert main(["campaign", "c.ini", "--out", "s.json", "--runs-csv", "-"]) == 0
    assert text_out.getvalue().encode("ascii") == named(runs, "s.json", "-")


def test_recorded_campaign_above_its_ceiling_touches_no_file(tmp_path, capsys, monkeypatch):
    # the ceiling is checked before either output is opened: an existing
    # summary keeps its bytes and no runs CSV appears
    def no_run(*args):
        raise AssertionError("a refused campaign ran")

    for where in ("hal.cli.run_exact", "hal.metrology.run_exact"):
        monkeypatch.setattr(where, no_run)
    cfg = tmp_path / "c.ini"
    attempts = MAX_RECORDED_ATTEMPTS // 8 + 1
    cfg.write_text(AMPLIFIED_CFG.replace("total_time = 200", f"total_time = {attempts}\nrun_period = 1")
                   .replace("replicas = 4", "replicas = 8"))
    out, runs = tmp_path / "s.json", tmp_path / "runs.csv"
    out.write_bytes(b"an earlier summary\n")
    assert main(["campaign", str(cfg), "--out", str(out), "--runs-csv", str(runs)]) == 2
    assert "recorded attempts" in capsys.readouterr().err
    assert out.read_bytes() == b"an earlier summary\n"
    assert not runs.exists()


def test_campaign_with_an_impossible_herald_touches_no_file(tmp_path, capsys):
    # the herald is evaluated before either output is opened: a vacuum source
    # against alpha = 0 never clicks, so the campaign exits 2 and writes nothing
    cfg = tmp_path / "c.ini"
    cfg.write_text(AMPLIFIED_CFG.replace("true_alpha = 0.01", "true_alpha = 0")
                   .replace("alpha = 0.01\nt = 0.1", "alpha = 0\nt = 0.1\nsource_efficiency = 0"))
    out, runs = tmp_path / "s.json", tmp_path / "runs.csv"
    assert main(["campaign", str(cfg), "--out", str(out), "--runs-csv", str(runs)]) == 2
    assert "impossible outcome" in capsys.readouterr().err
    assert not out.exists() and not runs.exists()


def test_campaign_whose_homodyne_table_fails_touches_no_file(tmp_path, capsys):
    # the conditional state is tabulated before either output is opened: read
    # in mode B, the unread mode holds a coherent alpha = 6 (mean X 8.5),
    # whose density reaches past the homodyne grid's end at 8
    cfg = tmp_path / "c.ini"
    cfg.write_text(AMPLIFIED_CFG.replace("true_alpha = 0.01", "true_alpha = 6")
                   .replace("alpha = 0.01\nt = 0.1", "alpha = 6\nt = 0.1\ncutoff = 100\n"
                            "input_kind = coherent\n\n[herald]\nmode = B"))
    out, runs = tmp_path / "s.json", tmp_path / "runs.csv"
    assert main(["campaign", str(cfg), "--out", str(out), "--runs-csv", str(runs)]) == 2
    assert not out.exists() and not runs.exists()
    assert "homodyne grid [-8, 8]" in capsys.readouterr().err


def test_unwritable_summary_leaves_no_runs_csv(tmp_path, capsys):
    # --out is opened first, before the runs CSV and before any replica runs
    cfg = tmp_path / "c.ini"
    cfg.write_text(AMPLIFIED_CFG)
    out, runs = tmp_path / "missing" / "s.json", tmp_path / "runs.csv"
    assert main(["campaign", str(cfg), "--out", str(out), "--runs-csv", str(runs)]) == 2
    assert "hal: error:" in capsys.readouterr().err
    assert not runs.exists()


def test_summary_and_runs_csv_must_differ(tmp_path, capsys):
    (tmp_path / "c.ini").write_text(AMPLIFIED_CFG)
    path = tmp_path / "both.txt"
    argv = ["campaign", str(tmp_path / "c.ini"), "--out", str(path)]
    assert main(argv + ["--runs-csv", str(tmp_path / "." / "both.txt")]) == 2
    assert "name the same file" in capsys.readouterr().err
    assert not path.exists()


def test_one_attempt_replicas_share_blocks(tmp_path, monkeypatch):
    # the sink gathers rows across replicas: 2e4 one-attempt replicas are
    # ceil(2e4 / _ROW_CHUNK) csv_block calls, not one per replica
    from hal import cli

    calls = []

    def counted(columns):
        calls.append(len(columns[0]))
        return csv_block(columns)

    csv_block = cli.csv_block
    monkeypatch.setattr(cli, "csv_block", counted)
    cfg = tmp_path / "c.ini"
    replicas = 20_000
    cfg.write_text(AMPLIFIED_CFG.replace("total_time = 200", "total_time = 0.1")
                   .replace("replicas = 4", f"replicas = {replicas}"))
    runs = tmp_path / "runs.csv"
    assert main(["campaign", str(cfg), "--out", str(tmp_path / "s.json"), "--runs-csv", str(runs)]) == 0
    assert len(calls) == -(-replicas // _ROW_CHUNK)
    assert calls[:-1] == [_ROW_CHUNK] * (len(calls) - 1) and sum(calls) == replicas
    lines = runs.read_bytes().splitlines()
    assert len(lines) == 2 + replicas
    assert lines[-1].startswith(f"{replicas - 1},0,".encode())


def test_recorded_campaign_memory_does_not_grow_with_replicas(tmp_path):
    # the campaign keeps no records and the CSV is written block by block,
    # so 16 replicas peak within one replica's arrays (30000 attempts of
    # 17 B) of 4 replicas
    text = _campaign_cfg(
        "amplified", "kind = white\nsigma_tech = 0.05",
        "[protocol]\nalpha = 0.01\nt = 0.1\nsource_efficiency = 0.9\n",
    ).replace("total_time = 2000", "total_time = 30000")
    peaks = []
    for replicas in (4, 16):
        cfg = tmp_path / f"c{replicas}.ini"
        cfg.write_text(text.replace("replicas = 2", f"replicas = {replicas}"))
        argv = ["campaign", str(cfg), "--out", str(tmp_path / "s.json"),
                "--runs-csv", str(tmp_path / "runs.csv")]
        rc, peak = _peak_bytes(lambda: main(argv))
        assert rc == 0
        peaks.append(peak)
        assert (tmp_path / "runs.csv").read_bytes().count(b"\n") == 2 + replicas * 30000
    assert abs(peaks[1] - peaks[0]) < 30000 * 17


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


def test_protocol_loads_no_argparse(tmp_path):
    # the front end parses from its own table: argparse, the gettext it
    # imports and the locale its first message lookup imports cost 2.4-3.7 ms
    # of every command; configparser (1.6-2.6 ms) loads for campaigns alone
    (tmp_path / "grid.txt").write_text("alpha = 0, 0.01\nt = 0.1\n")
    (tmp_path / "c.ini").write_text(DIRECT_CFG)
    code = (
        "import os, sys, hal.cli\n"
        "os.chdir(sys.argv[1])\n"
        "for argv in (['protocol', '--alpha', '0.01', '--t', '0.1', '--out', 'p.json'],\n"
        "             ['sweep', '--grid', 'grid.txt', '--out', 's.csv'],\n"
        "             ['ensemble', '--n-atoms', '100', '--epsilon', '0.01', '--out', 'e.json'],\n"
        "             ['validate'], ['campaign', 'c.ini', '--out', 'c.json']):\n"
        "    with open(os.devnull, 'w') as sys.stdout:\n"
        "        rc = hal.cli.main(argv)\n"
        "    loaded = [m for m in ('argparse', 'gettext', 'locale', 'configparser') if m in sys.modules]\n"
        "    print(argv[0], rc, *loaded, file=sys.stderr)\n"
    )
    lines = _fresh_hal(code, [str(tmp_path)]).stderr.splitlines()
    assert lines == ["protocol 0", "sweep 0", "ensemble 0", "validate 0", "campaign 0 configparser"]


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


def test_unrecorded_direct_campaign_runs_inline(tmp_path, monkeypatch, capsysbinary):
    # O(1) direct replicas hold the GIL: no worker thread, whatever
    # HAL_THREADS says, and the summary does not depend on it
    started = []

    class CountingThread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(_parallel.threading, "Thread", CountingThread)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.ini").write_text(AR1_DIRECT_CFG)
    summaries = []
    for threads in ("1", "2"):
        monkeypatch.setenv("HAL_THREADS", threads)
        assert main(["campaign", "c.ini"]) == 0
        summaries.append(capsysbinary.readouterr().out)
    assert summaries[0] == summaries[1] and started == []
    # a recorded campaign hands its records on in replica order, inline too
    assert main(["campaign", "c.ini", "--out", "s.json", "--runs-csv", "runs.csv"]) == 0
    assert started == []
    monkeypatch.setenv("HAL_THREADS", "many")
    assert main(["campaign", "c.ini"]) == 2


def test_main_freezes_the_collector_once(tmp_path):
    # the first call freezes what the process holds; garbage made between
    # later calls stays collectable
    argv = ["protocol", "--t", "0.1", "--mode", "first-order", "--out", str(tmp_path / "p.json")]
    assert main(argv) == 0

    class Node:
        pass

    node = Node()
    node.self = node  # a cycle: only the collector frees it
    dead = weakref.ref(node)
    del node
    gc.disable()  # no collection before the next call can take the cycle
    try:
        assert main(argv) == 0
    finally:
        gc.enable()
    gc.collect()
    assert dead() is None


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
