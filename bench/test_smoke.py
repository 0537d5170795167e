"""Smoke test of the benchmark itself, at tiny input sizes.

    python3 -m pytest bench/test_smoke.py

Not part of the project's test suite (pytest's testpaths is tests/). Checks
that every workload passes its output checks at a seed other than the
default, that --trace 0 emits exactly BENCHMARK.json's end-to-end metrics and
--trace 1 exactly its per-layer metrics, each with its unit, and that the
benchmark refuses a directory without the hal sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_emitted_with_its_unit(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(tracer.LAYER_METRICS)


def test_refuses_a_directory_without_hal(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "exact", 0)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_refuses_a_hal_shadowing_the_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    # child.py runs as a script, so bench/ leads sys.path: a stray package
    # there would be imported instead of src/hal.
    fake = tmp_path / "bench" / "hal"
    fake.mkdir()
    (fake / "__init__.py").write_text("__version__ = '0'\n")
    (fake / "cli.py").write_text("def main(argv=None):\n    return 0\n")
    proc = _run(tmp_path, "exact", 0)
    assert proc.returncode != 0
    assert "hal resolved to" in proc.stderr
    assert not proc.stdout.strip()


def test_self_time_subtracts_the_union_of_children():
    # parent 0..10 s; children on two threads overlap (2..6, 4..8); a CSV
    # writer 8..10 spent 1 s pulling rows from the parent's generator.
    doc = {
        "spans": [
            [1, "cli.main", 0.0, 10.0, None, 1, None],
            [2, "fock_core.fidelity", 2.0, 6.0, 1, 1, None],
            [3, "fock_core.fidelity", 4.0, 8.0, 1, 2, None],
            [4, "serialize.csv_lines", 8.0, 10.0, 1, 1, {"rows": 5, "foreign_s": 1.0, "bytes": 9}],
        ],
        "caches": {"bs_hits": 3, "bs_misses": 1},
    }
    m = tracer.layer_metrics(doc)
    assert m["cli.main.self_s"] == pytest.approx(10.0 - 8.0 + 1.0)
    assert m["fock_core.fidelity.s"] == pytest.approx(8.0)
    assert m["serialize.csv_lines.s"] == pytest.approx(1.0)
    assert m["optics_ops.bs_cache.hit_ratio"] == pytest.approx(0.75)
