"""The benchmark's workloads: inputs made from a seed, hal commands, output checks.

Each workload picks its inputs from fixed pools with random.Random(seed), so
equal seeds give equal inputs and every seed costs the same amount of work.
The pools are covered by references.json (see make_references.py), which
holds the seed-code values the checks compare against. An item is one hal
command; each command sets its own HAL_THREADS.

exact (the exact-simulation side; never reaches metrology sampling):
  sweep     `hal sweep` over 54 points, HAL_THREADS=1: imperfect-source points
            (p1=0.9, density path) at cutoffs 12/20/26, ideal points (p1=1,
            pure path) and invalid p1>1 points that must come back as
            `validation` error rows. fock_core validation and the optics_ops
            beam splitter dominate.
  protocol  `hal protocol`, mixed (p1=0.9), cutoff 30.
  ensemble  `hal ensemble --n-atoms 1000000000` (spin_ensemble).
  validate  `hal validate` (the oracle suite).
  Three of the four commands are set-up dominated.

campaign (the Monte Carlo side; reaches protocol once, optics_ops barely):
  direct    `hal campaign`, direct scheme, AR(1) noise (sigma 0.1, lambda
            0.99), 1e6 attempts x 32 replicas, HAL_THREADS=2: inverse-CDF
            sampling and noise across _parallel's two workers.
  amplified `hal campaign`, amplified scheme (p1 0.9, read efficiency 0.9,
            dark count 1e-4: a mixed conditional state), white noise, 1e5
            attempts x 4 replicas with --runs-csv, HAL_THREADS=1: about 1%
            of attempts are sampled and the 4e5-row CSV write dominates.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List

HERE = Path(__file__).resolve().parent

ALPHAS = (0.005, 0.01, 0.015, 0.02)
TS = (0.1, 0.12, 0.15, 0.2, 0.25)
SWEEP_CUTOFFS = (12, 20, 26)
PROTOCOL_CUTOFF = 30
INVALID_P1 = (1.05, 1.1, 1.2)
EPSILONS = (2e-6, 3e-6, 4e-6, 5e-6)
N_ATOMS = 1_000_000_000
DIRECT_ALPHAS = (0.005, 0.01, 0.02)
AMPLIFIED = {"alpha": 0.01, "t": 0.1, "cutoff": 12, "p1": 0.9, "read_eff": 0.9, "dark_count": 1e-4}

# Relative tolerance of protocol values (success_prob, gain, fidelity)
# against references.json; exact-pipeline rewrites agree to ~1e-14.
PROTOCOL_RTOL = 1e-12
# Ensemble values: relative 1e-9, absolute 1e-14 (tail_mass is ~1e-37 and
# commutator_deviation ~1e-11, both computed as small differences).
ENSEMBLE_RTOL, ENSEMBLE_ATOL = 1e-9, 1e-14
# Estimates must fall within this many standard errors of true_alpha.
ESTIMATE_SIGMAS = 6.0
# Heralded counts must fall within this many binomial standard deviations.
HERALD_SIGMAS = 6.0

SIZES = {
    "full": {
        "alphas": 2, "ts": 3, "cutoffs": SWEEP_CUTOFFS, "protocol_cutoff": PROTOCOL_CUTOFF,
        "direct": (1_000_000, 32), "amplified": (100_000, 4),
    },
    # Tiny inputs for the smoke test of the benchmark itself.
    "smoke": {
        "alphas": 1, "ts": 1, "cutoffs": (12,), "protocol_cutoff": 12,
        "direct": (2_000, 4), "amplified": (10_000, 2),
    },
}

WORKLOADS = ("exact", "campaign")


@dataclass
class Command:
    """One hal invocation. Paths are relative to the work directory."""

    name: str
    argv: List[str]
    threads: int  # HAL_THREADS for this command
    outputs: List[str]  # files reruns must reproduce byte for byte; stdout.txt is standard output
    check: Callable[[Path], List[str]]  # returns failure messages


@dataclass
class Plan:
    commands: List[Command]
    notes: dict  # non-gating figures the checks record


def point_key(alpha, t, p1, cutoff) -> str:
    return f"{float(alpha)!r}|{float(t)!r}|{float(p1)!r}|{int(cutoff)}"


def load_references() -> dict:
    with open(HERE / "references.json", encoding="utf-8") as fh:
        return json.load(fh)


def _close(value, ref, rtol, atol=0.0) -> bool:
    return math.isfinite(value) and abs(value - ref) <= atol + rtol * abs(ref)


def _read_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _csv_body(path: Path):
    """Header and data lines of a hal CSV (after its manifest comment)."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith("# manifest: "):
        raise ValueError("missing manifest line")
    return lines[1].split(","), lines[2:]


def plan(name: str, seed: int, size: str, work: Path) -> Plan:
    rng, dims, notes = random.Random(seed), SIZES[size], {}
    if name == "exact":
        commands = [_sweep(rng, dims, work), *_oneshots(rng, dims)]
    elif name == "campaign":
        commands = [_direct(rng, seed, dims, work, notes), _amplified(seed, dims, work, notes)]
    else:
        raise ValueError(f"unknown workload {name!r}")
    return Plan(commands, notes)


def _sweep(rng, size, work) -> Command:
    refs = load_references()["points"]
    alphas = sorted(rng.sample(ALPHAS, size["alphas"]))
    ts = sorted(rng.sample(TS, size["ts"]))
    p1s = [0.9, 1.0, rng.choice(INVALID_P1)]
    cutoffs = list(size["cutoffs"])
    (work / "grid.txt").write_text(
        "".join(
            f"{axis} = {','.join(repr(v) for v in values)}\n"
            for axis, values in (("alpha", alphas), ("t", ts), ("p1", p1s), ("cutoff", cutoffs))
        ),
        encoding="utf-8",
    )
    expected = {
        point_key(a, t, p, c) for a in alphas for t in ts for p in p1s for c in cutoffs
    }

    def check(work: Path) -> List[str]:
        header, lines = _csv_body(work / "sweep.csv")
        errors = []
        if len(lines) != len(expected):
            errors.append(f"sweep: {len(lines)} rows, expected {len(expected)}")
        seen = set()
        for line in lines:
            row = dict(zip(header, line.split(",")))
            key = point_key(row["alpha_re"], row["t"], row["p1"], row["cutoff"])
            seen.add(key)
            invalid = float(row["p1"]) > 1.0
            if invalid:
                if row["error_code"] != "validation":
                    errors.append(f"sweep {key}: error_code {row['error_code']!r}, expected 'validation'")
                continue
            if row["error_code"]:
                errors.append(f"sweep {key}: unexpected error_code {row['error_code']!r}")
                continue
            ref = refs.get(key)
            if ref is None:
                errors.append(f"sweep {key}: no reference")
                continue
            for col in ("success_prob", "gain", "fidelity"):
                if not _close(float(row[col]), ref[col], PROTOCOL_RTOL):
                    errors.append(f"sweep {key}: {col} {row[col]} != reference {ref[col]!r}")
        if seen != expected:
            errors.append(f"sweep: grid points differ from the requested grid ({len(seen ^ expected)} differ)")
        return errors

    return Command("sweep", ["sweep", "--grid", "grid.txt", "--out", "sweep.csv"], 1, ["sweep.csv"], check)


def _campaign_ini(scheme, true_alpha, attempts, replicas, seed, noise, protocol=None) -> str:
    lines = [
        "[campaign]",
        f"scheme = {scheme}",
        f"true_alpha = {true_alpha!r}",
        f"total_time = {attempts}",
        "run_period = 1",
        f"replicas = {replicas}",
        f"seed = {seed}",
        "[noise]",
    ] + [f"{k} = {v}" for k, v in noise.items()]
    if protocol is not None:
        lines += [
            "[protocol]",
            f"alpha = {protocol['alpha']!r}",
            f"t = {protocol['t']!r}",
            f"cutoff = {protocol['cutoff']}",
            f"source_efficiency = {protocol['p1']!r}",
            "[herald]",
            f"read_efficiency = {protocol['read_eff']!r}",
            f"dark_count = {protocol['dark_count']!r}",
        ]
    return "\n".join(lines) + "\n"


def _summary_errors(doc, attempts, replicas, true_alpha, note, extra_se=0.0) -> List[str]:
    """Shape checks plus |estimate - true_alpha| <= k standard errors, the
    standard error taken from the summary's own variance (or extra_se when
    that is larger, since 4 replicas give a noisy variance). note(z) records
    the distance in standard errors, the seed-spread view."""
    errors = []
    if doc["attempts"] != attempts or doc["replicas"] != replicas:
        errors.append(f"campaign: {doc['attempts']} x {doc['replicas']}, expected {attempts} x {replicas}")
    if sum(doc["per_replica_successes"]) != doc["successes"]:
        errors.append("campaign: per_replica_successes do not sum to successes")
    if doc["no_success_replicas"]:
        errors.append(f"campaign: replicas without successes {doc['no_success_replicas']}")
    variance = doc["variance"]
    if variance is None or not variance > 0.0:
        errors.append(f"campaign: variance {variance!r} is not positive")
        return errors
    se = max(math.sqrt(variance / replicas), extra_se)
    z = (doc["estimate_mean"] - true_alpha) / se
    note(z)
    if abs(z) > ESTIMATE_SIGMAS:
        errors.append(
            f"campaign: estimate {doc['estimate_mean']!r} is {z:.2f} standard errors from {true_alpha!r}"
        )
    return errors


def _direct(rng, seed, size, work, notes) -> Command:
    attempts, replicas = size["direct"]
    true_alpha = rng.choice(DIRECT_ALPHAS)
    noise = {"kind": "ar1", "sigma_tech": 0.1, "lambda": 0.99}
    (work / "direct.ini").write_text(
        _campaign_ini("direct", true_alpha, attempts, replicas, seed, noise), encoding="utf-8"
    )

    def check(work: Path) -> List[str]:
        doc = _read_json(work / "direct.json")
        errors = _summary_errors(doc, attempts, replicas, true_alpha,
                                 lambda z: notes.update(direct_estimate_z=z))
        if doc["successes"] != attempts * replicas:
            errors.append(f"campaign: {doc['successes']} successes, expected every attempt")
        return errors

    return Command("direct", ["campaign", "direct.ini", "--out", "direct.json"], 2, ["direct.json"], check)


def _amplified(seed, size, work, notes) -> Command:
    attempts, replicas = size["amplified"]
    cfg = AMPLIFIED
    p_ref = load_references()["amplified_success_prob"]
    noise = {"kind": "white", "sigma_tech": 0.1}
    (work / "amplified.ini").write_text(
        _campaign_ini("amplified", cfg["alpha"], attempts, replicas, seed, noise, cfg),
        encoding="utf-8",
    )
    rows_expected = attempts * replicas

    def check(work: Path) -> List[str]:
        doc = _read_json(work / "amplified.json")
        errors = []
        header, lines = _csv_body(work / "runs.csv")
        if header != ["replica", "attempt_index", "heralded", "x_sample", "noise_value"]:
            errors.append(f"runs csv: header {header}")
            return errors
        if len(lines) != rows_expected:
            errors.append(f"runs csv: {len(lines)} rows, expected {rows_expected}")
        heralded = 0
        xs = []
        for k, line in enumerate(lines):
            replica, index, h, x, _ = line.split(",")
            if int(replica) != k // attempts or int(index) != k % attempts:
                errors.append(f"runs csv: row {k} is replica {replica} attempt {index}")
                break
            if h == "1":
                heralded += 1
                if x == "nan":
                    errors.append(f"runs csv: row {k} heralded without x_sample")
                    break
                xs.append(float(x))
            elif x != "nan":
                errors.append(f"runs csv: row {k} not heralded but x_sample {x}")
                break
        if heralded != doc["successes"]:
            errors.append(f"runs csv: {heralded} heralded rows, summary says {doc['successes']}")
        n = rows_expected
        spread = HERALD_SIGMAS * math.sqrt(n * p_ref * (1.0 - p_ref))
        if abs(doc["successes"] - n * p_ref) > spread:
            errors.append(f"campaign: {doc['successes']} successes, expected {n * p_ref:.1f} +- {spread:.1f}")
        se_runs = 0.0
        if len(xs) > 1:
            mean = sum(xs) / len(xs)
            sd = math.sqrt(sum((v - mean) ** 2 for v in xs) / (len(xs) - 1))
            se_runs = cfg["t"] * sd / math.sqrt(2.0 * len(xs))
        return errors + _summary_errors(doc, attempts, replicas, cfg["alpha"],
                                        lambda z: notes.update(amplified_estimate_z=z), se_runs)

    return Command(
        "amplified",
        ["campaign", "amplified.ini", "--out", "amplified.json", "--runs-csv", "runs.csv"],
        1,
        ["amplified.json", "runs.csv"],
        check,
    )


def _oneshots(rng, size) -> List[Command]:
    refs = load_references()
    alpha, t, eps = rng.choice(ALPHAS), rng.choice(TS), rng.choice(EPSILONS)
    cutoff = size["protocol_cutoff"]
    ref_p = refs["points"][point_key(alpha, t, 0.9, cutoff)]
    ref_e = refs["ensemble"][repr(eps)]

    def check_protocol(work: Path) -> List[str]:
        doc = _read_json(work / "protocol.json")
        errors = []
        if doc["conditional_state"]["kind"] != "mixed":
            errors.append("protocol: conditional state is not mixed")
        for col in ("success_prob", "gain", "fidelity"):
            if not _close(doc[col], ref_p[col], PROTOCOL_RTOL):
                errors.append(f"protocol: {col} {doc[col]!r} != reference {ref_p[col]!r}")
        return errors

    def check_ensemble(work: Path) -> List[str]:
        doc = _read_json(work / "ensemble.json")
        return [
            f"ensemble: {col} {doc[col]!r} != reference {ref!r}"
            for col, ref in ref_e.items()
            if not _close(doc[col], ref, ENSEMBLE_RTOL, ENSEMBLE_ATOL)
        ]

    def check_validate(work: Path) -> List[str]:
        text = (work / "stdout.txt").read_text(encoding="utf-8")
        if "FAIL" in text or text.count("PASS") < 1:
            return ["validate: oracle table has failures"]
        return []

    protocol = [
        "protocol", "--alpha", repr(alpha), "--t", repr(t), "--cutoff", str(cutoff),
        "--source-eff", "0.9", "--out", "protocol.json",
    ]
    ensemble = [
        "ensemble", "--n-atoms", str(N_ATOMS), "--epsilon", repr(eps), "--out", "ensemble.json",
    ]
    return [
        Command("protocol", protocol, 1, ["protocol.json"], check_protocol),
        Command("ensemble", ensemble, 1, ["ensemble.json"], check_ensemble),
        Command("validate", ["validate"], 1, ["stdout.txt"], check_validate),
    ]
