"""Seed-spread report: run one workload over several seeds (non-gating).

    python3 bench/spread.py --workload NAME [--seeds 1-10] [--seconds S] [--trace 0|1]

Runs bench/run.py once per seed, one after another, and prints per seed the
correctness, the metrics and the checks' notes (for campaigns, estimate_z:
the estimate's distance from true_alpha in standard errors). It then prints
per metric the median and the spread, the interquartile distance of
statistics.quantiles(values, n=4) as a share of the median. A check that
passes only at some seeds, or a metric whose spread exceeds its bound in
BENCHMARK.json, shows here.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds_arg(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--seconds", default="55")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()

    bounds = {}
    bench_json = HERE.parent / "BENCHMARK.json"
    if bench_json.is_file():
        spec = json.loads(bench_json.read_text())
        bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True, timeout=600,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
            continue
        result = json.loads(lines[-1])
        meta = next((json.loads(l[len("# meta "):]) for l in lines if l.startswith("# meta ")), {})
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        shown = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} iterations={meta.get('iterations')} "
              f"notes={meta.get('notes')} {shown}", flush=True)
        for line in lines:
            if line.startswith("# fail "):
                print("   ", line)

    print(f"{'metric':45s} {'median':>12s} {'spread':>8s} {'bound':>6s} n")
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2 and med:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = f"{(q3 - q1) / abs(med):8.4f}"
        else:
            spread = f"{'-':>8s}"
        bound = bounds.get(name)
        print(f"{name:45s} {med:12.6g} {spread} {bound if bound is not None else '-':>6} {len(vals)}")


if __name__ == "__main__":
    main()
