"""Regenerate references.json, the values the benchmark's output checks compare against.

    python3 bench/make_references.py

Runs the hal CLI in-process from the checkout's src/ over every input the
workloads can draw (workloads.py pools) and stores success_prob, gain and
fidelity per protocol point, the amplified campaign's success probability,
and the ensemble report values. The committed file was made from the code
the benchmark was defined on; regenerate it only when the pools change,
never to make a check pass.
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import hal.cli  # noqa: E402

import workloads as w  # noqa: E402


def _cli(argv, out):
    rc = hal.cli.main(argv + ["--out", str(out)])
    if rc != 0:
        raise SystemExit(f"hal {' '.join(argv)} exited {rc}")
    return out.read_text(encoding="utf-8")


def main():
    refs = {"points": {}, "amplified_success_prob": None, "ensemble": {}}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        cutoffs = sorted(set(w.SWEEP_CUTOFFS) | {w.PROTOCOL_CUTOFF} | set(w.SIZES["smoke"]["cutoffs"]))
        grid = tmp / "grid.txt"
        grid.write_text(
            f"alpha = {','.join(map(repr, w.ALPHAS))}\n"
            f"t = {','.join(map(repr, w.TS))}\n"
            "p1 = 0.9,1.0\n"
            f"cutoff = {','.join(map(str, cutoffs))}\n",
            encoding="utf-8",
        )
        lines = _cli(["sweep", "--grid", str(grid)], tmp / "sweep.csv").splitlines()
        header = lines[1].split(",")
        for line in lines[2:]:
            row = dict(zip(header, line.split(",")))
            if row["error_code"]:
                raise SystemExit(f"reference point failed: {line}")
            key = w.point_key(row["alpha_re"], row["t"], row["p1"], row["cutoff"])
            refs["points"][key] = {c: float(row[c]) for c in ("success_prob", "gain", "fidelity")}

        a = w.AMPLIFIED
        doc = json.loads(_cli(
            ["protocol", "--alpha", repr(a["alpha"]), "--t", repr(a["t"]),
             "--cutoff", str(a["cutoff"]), "--source-eff", repr(a["p1"]),
             "--read-eff", repr(a["read_eff"]), "--dark-count", repr(a["dark_count"])],
            tmp / "amplified.json",
        ))
        refs["amplified_success_prob"] = doc["success_prob"]

        for eps in w.EPSILONS:
            doc = json.loads(_cli(
                ["ensemble", "--n-atoms", str(w.N_ATOMS), "--epsilon", repr(eps)],
                tmp / "ensemble.json",
            ))
            refs["ensemble"][repr(eps)] = {
                c: doc[c]
                for c in ("alpha", "tail_mass", "fidelity_to_coherent",
                          "commutator_deviation", "var_x", "var_p")
            }
    with open(HERE / "references.json", "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(refs['points'])} protocol points")


if __name__ == "__main__":
    main()
