"""End-to-end and per-layer benchmark of the hal CLI.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout that holds src/hal; hal need not be
installed. Each hal command runs as a user runs it: a fresh Python process
(bench/child.py) imports `hal.cli` from the checkout's src/ and calls
`hal.cli.main(argv)`. The workloads, their inputs and their output checks
are in workloads.py.

A run repeats the workload's commands (an iteration), with the same inputs,
until starting another iteration would pass --seconds (at least one). Every
iteration checks every output; reruns must be byte-identical to the first.
A warm-up import (byte-compiling src/ on a fresh checkout) precedes timing.

--trace 0 reports the end-to-end metrics, medians over the run:
  setup_s      process spawn until `hal.cli` is imported (all commands)
  wall_s       process spawn until exit, summed over one iteration's commands
  items_per_s  commands / their time after set-up in `main`, pooled over
               iterations
  peak_rss_mb  the largest child ru_maxrss of an iteration
The three times are given at a fixed reference CPU speed. On the shared
host this benchmark is built for, each vCPU runs the same code 15-50% faster
or slower from second to second, independently of the other vCPU, which no
median over one run removes. So each command is pinned to the first
HAL_THREADS CPUs of the benchmark's affinity set, and on every CPU a probe
(probe.py, a separate process) times a fixed ~0.5 ms spin loop every 50 ms,
sharing the CPU with the command. Each interval (set-up, run, wall) a command
took is multiplied by PROBE_REF_S / (median spin time on the command's CPUs
during that interval): the time it would have taken on a CPU on which the
spin takes PROBE_REF_S. The spin does not touch hal, so a change to hal moves
the scaled times as it moves the raw ones. The raw medians and the speed
factors are printed on the `# meta` line.
--trace 1 alternates untraced iterations with iterations whose children are
wrapped by tracer.py, and reports the per-layer metrics (medians over traced
iterations), import times from `python -X importtime`, and
trace.overhead_s, the traced median iteration wall time minus the untraced
median. The span table of the last traced iteration goes
to .bench_out/<workload>.trace.json.

Commands with a wrong exit code or a failed output check count in `failed`
(fail_frac = failed / attempted). Lines before the last describe the run
(`# meta`: seed, commit, hal path, versions, nproc, thread settings); the
last line is the JSON result. Exits 2, printing no result, when the checkout
has no src/hal or hal resolves anywhere else.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import tracer  # noqa: E402  (bench/ is sys.path[0] when run as a script)
import workloads  # noqa: E402
from child import WRONG_HAL  # noqa: E402

WORK_ROOT = ROOT / ".bench_work"
OUT_DIR = ROOT / ".bench_out"
# Every child is killed this long after the run starts, so a run (limited to
# 180 s) ends even when a command hangs.
RUN_DEADLINE_S = 160
IMPORT_PROBES = 3
# probe.py's spin time that defines the reference CPU speed (about its median
# on a 2-vCPU x86-64 VM, so scaled times read close to raw ones).
PROBE_REF_S = 0.00055
# One BLAS/OpenMP thread per process; hal's own threads come from HAL_THREADS.
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("items_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


class Fatal(Exception):
    """The checkout cannot be measured (no src/hal, or hal resolves elsewhere)."""


@dataclass
class Sample:
    marks: tuple  # monotonic times: spawn, hal.cli imported, main returned, exit
    cpus: tuple  # the CPUs the command was pinned to
    rss_mb: float

    @property
    def setup_s(self):
        return self.marks[1] - self.marks[0]

    @property
    def run_s(self):
        return self.marks[2] - self.marks[1]

    @property
    def wall_s(self):
        return self.marks[3] - self.marks[0]


class Probes:
    """One probe.py per CPU, from start to stop(); speed() reads their records."""

    def __init__(self, work: Path, cpus):
        self._paths = {cpu: work / f"probe{cpu}.json" for cpu in cpus}
        self._procs = []
        self.records = {}
        try:
            for cpu, path in self._paths.items():
                self._procs.append(subprocess.Popen(
                    [sys.executable, str(HERE / "probe.py"), str(cpu), str(path)],
                    stdin=subprocess.PIPE, env=child_env(1)))
        except OSError:
            self.stop()
            raise

    def stop(self):
        """Close every probe's input (it then writes its records and exits)
        and wait for it; kill one that has not exited within 10 s."""
        for proc in self._procs:
            proc.stdin.close()
        for proc in self._procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if self._procs and all(p.returncode == 0 for p in self._procs):
            for cpu, path in self._paths.items():
                with open(path, encoding="utf-8") as fh:
                    self.records[cpu] = json.load(fh)
        self._procs = []

    def speed(self, cpus, start: float, end: float) -> float:
        """PROBE_REF_S / median spin time on `cpus` between start and end
        (over the whole run when the interval holds no spin)."""
        spins = [d for cpu in cpus for t, d in self.records[cpu] if start <= t <= end]
        if not spins:
            spins = [d for cpu in cpus for _, d in self.records[cpu]]
        return PROBE_REF_S / statistics.median(spins)


@dataclass
class Context:
    plan: workloads.Plan
    work: Path
    deadline: float  # monotonic time by which every child must have exited
    digests: dict  # command index -> sha256 of its first outputs
    cpus: tuple  # CPUs the benchmark may use; a command is pinned to the first HAL_THREADS


@dataclass
class Iteration:
    samples: List[Optional[Sample]]  # None where the command did not report
    failed: List[str]  # one message per failed command
    wall_s: float
    traced: bool
    spans: Optional[dict]  # merged span dump of a traced iteration's commands


def child_env(threads: int) -> dict:
    env = {
        k: v
        for k, v in os.environ.items()
        if not k.startswith("PYTHON") and k not in THREAD_PINS and k != "HAL_THREADS"
    }
    env.update(THREAD_PINS, PYTHONPATH=str(SRC), HAL_THREADS=str(threads))
    return env


def run_child(ctx: Context, hal_argv, threads=1, trace_path: Optional[Path] = None):
    """Run one fresh hal process; return (exit code, Sample or None, child report)."""
    work = ctx.work
    result = work / "child.json"
    if result.exists():
        result.unlink()
    argv = [sys.executable, str(HERE / "child.py"), str(result), str(SRC),
            str(trace_path) if trace_path else "-", "--", *hal_argv]
    cpus = ctx.cpus[:max(1, threads)]
    with open(work / "stdout.txt", "wb") as out, open(work / "stderr.txt", "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.run(argv, env=child_env(threads), cwd=work, stdout=out, stderr=err,
                              timeout=max(1.0, ctx.deadline - t0),
                              preexec_fn=lambda: os.sched_setaffinity(0, cpus))
        t_end = time.monotonic()
    if proc.returncode == WRONG_HAL:
        raise Fatal((work / "stderr.txt").read_text(errors="replace").strip())
    if not result.exists():
        return proc.returncode, None, None
    with open(result, encoding="utf-8") as fh:
        doc = json.load(fh)
    sample = Sample((t0, doc["t_imported"], doc["t_done"], t_end), cpus, doc["maxrss_kb"] / 1024.0)
    return proc.returncode, sample, doc


def _digest(work: Path, outputs) -> str:
    h = hashlib.sha256()
    for name in outputs:
        h.update((work / name).read_bytes())
    return h.hexdigest()


def _merge_spans(docs) -> dict:
    """One span table from several processes (ids made unique per process)."""
    spans, hits, misses = [], 0, 0
    for k, doc in enumerate(docs):
        off = (k + 1) * 10**9
        for sid, name, start, end, parent, thread, extra in doc["spans"]:
            spans.append([sid + off, name, start, end,
                          None if parent is None else parent + off, thread, extra])
        hits += doc["caches"]["bs_hits"]
        misses += doc["caches"]["bs_misses"]
    return {"spans": spans, "caches": {"bs_hits": hits, "bs_misses": misses}}


def run_iteration(ctx: Context, traced: bool) -> Iteration:
    work = ctx.work
    samples, failed, span_docs = [], [], []
    start = time.monotonic()
    for i, cmd in enumerate(ctx.plan.commands):
        trace_path = work / f"spans{i}.json" if traced else None
        label = cmd.name
        try:
            rc, sample, _ = run_child(ctx, cmd.argv, cmd.threads, trace_path)
        except subprocess.TimeoutExpired:
            samples.append(None)
            failed.append(f"{label}: killed at the run's {RUN_DEADLINE_S} s deadline")
            continue
        samples.append(sample)
        if rc != 0 or sample is None:
            tail = (work / "stderr.txt").read_text(errors="replace").strip()[-300:]
            failed.append(f"{label}: exit code {rc}: {tail}")
            continue
        try:
            errors = cmd.check(work)
            digest = _digest(work, cmd.outputs)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            errors, digest = [f"{label}: output check raised {exc!r}"], None
        if digest is not None and ctx.digests.setdefault(i, digest) != digest:
            errors.append(f"{label}: rerun at an equal seed is not byte-identical")
        if errors:
            failed.append("; ".join(errors[:5]))
        if traced:
            with open(trace_path, encoding="utf-8") as fh:
                span_docs.append(json.load(fh))
    spans = _merge_spans(span_docs) if span_docs else None
    return Iteration(samples, failed, time.monotonic() - start, traced, spans)


def measure(ctx: Context, seconds, alternate=False) -> List[Iteration]:
    """Iterate until another iteration would end after `seconds` (at least
    once). With `alternate`, every second iteration is traced (at least one
    of each), so machine-speed drift affects both kinds alike."""
    iterations = []
    start = time.monotonic()
    while True:
        iterations.append(run_iteration(ctx, traced=alternate and len(iterations) % 2 == 1))
        typical = statistics.median(it.wall_s for it in iterations)
        now = time.monotonic()
        if alternate and len(iterations) < 2:
            continue
        if now - start + typical > seconds or now + typical > ctx.deadline:
            return iterations


def end_to_end(iterations, items, speed=lambda cpus, start, end: 1.0) -> dict:
    """The end-to-end metrics, each interval [start, end] a command spent on
    `cpus` weighted by speed(cpus, start, end)."""
    complete = [it.samples for it in iterations if all(s is not None for s in it.samples)]
    if not complete:
        return {}

    def t(s, a, b):
        return (s.marks[b] - s.marks[a]) * speed(s.cpus, s.marks[a], s.marks[b])

    return {
        "setup_s": statistics.median(t(s, 0, 1) for ss in complete for s in ss),
        "wall_s": statistics.median(sum(t(s, 0, 3) for s in ss) for ss in complete),
        "items_per_s": items * len(complete) / sum(t(s, 1, 2) for ss in complete for s in ss),
        "peak_rss_mb": statistics.median(max(s.rss_mb for s in ss) for ss in complete),
    }


def import_probe(ctx: Context) -> dict:
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import hal.cli"],
        env=child_env(1), cwd=ctx.work, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        timeout=max(1.0, ctx.deadline - time.monotonic()), text=True,
    )
    if proc.returncode != 0:
        raise Fatal(f"import hal.cli failed: {proc.stderr.strip()[-300:]}")
    return tracer.import_times(proc.stderr)


def per_layer(untraced, traced, probes) -> dict:
    metrics = {}
    for name in tracer.IMPORT_MODULES:
        metrics[name] = statistics.median(p[name] for p in probes)
    tables = [tracer.layer_metrics(it.spans) for it in traced if it.spans is not None]
    for name, _, _ in tracer.LAYER_METRICS:
        if name in metrics or name == "trace.overhead_s":
            continue
        metrics[name] = statistics.median(t[name] for t in tables) if tables else 0.0
    walls = [sum(s.wall_s for s in it.samples) for it in untraced if None not in it.samples]
    traced_walls = [sum(s.wall_s for s in it.samples) for it in traced if None not in it.samples]
    metrics["trace.overhead_s"] = (
        statistics.median(traced_walls) - statistics.median(walls) if walls and traced_walls else 0.0
    )
    return metrics


def span_table(doc) -> dict:
    """calls / total seconds per span name, for the saved trace file."""
    table = {}
    for _, name, start, end, _, _, _ in doc["spans"]:
        row = table.setdefault(name, {"calls": 0, "s": 0.0})
        row["calls"] += 1
        row["s"] += end - start
    return dict(sorted(table.items(), key=lambda kv: -kv[1]["s"]))


def git_commit() -> str:
    """HEAD of the checkout, read without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def bench(args) -> dict:
    if not (SRC / "hal" / "cli.py").is_file():
        raise Fatal(f"no hal package at {SRC / 'hal'}")
    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        plan = workloads.plan(args.workload, args.seed, args.size, work)
        ctx = Context(plan, work, time.monotonic() + RUN_DEADLINE_S, {},
                      tuple(sorted(os.sched_getaffinity(0))))
        rc, _, report = run_child(ctx, [])  # warm-up: byte-compile, fill caches
        if report is None or rc != 0:
            raise Fatal(f"import hal.cli failed: {(work / 'stderr.txt').read_text(errors='replace')[-300:]}")
        start = time.monotonic()
        extra = {}  # raw end-to-end medians and speed factors (min, median, max)
        if args.trace:
            probes = [import_probe(ctx) for _ in range(IMPORT_PROBES)]
            iterations = measure(ctx, args.seconds - (time.monotonic() - start), alternate=True)
            traced = [it for it in iterations if it.traced]
            metrics = per_layer([it for it in iterations if not it.traced], traced, probes)
            units = {name: unit for name, unit, _ in tracer.LAYER_METRICS}
            spans = next((it.spans for it in reversed(traced) if it.spans), None)
            if spans is not None:
                OUT_DIR.mkdir(exist_ok=True)
                with open(OUT_DIR / f"{args.workload}.trace.json", "w", encoding="utf-8") as fh:
                    json.dump({"seed": args.seed, "per_layer": metrics,
                               "spans_by_name": span_table(spans), "spans": spans}, fh)
        else:
            cpu_probes = Probes(work, ctx.cpus[:max(c.threads for c in plan.commands)])
            try:
                iterations = measure(ctx, args.seconds - (time.monotonic() - start))
            finally:
                cpu_probes.stop()
            if not cpu_probes.records:
                raise Fatal("a speed probe failed")
            metrics = end_to_end(iterations, len(plan.commands), cpu_probes.speed)
            units = dict(END_TO_END)
            speeds = sorted(cpu_probes.speed(s.cpus, s.marks[0], s.marks[3])
                            for it in iterations for s in it.samples if s is not None)
            extra = {
                "raw": end_to_end(iterations, len(plan.commands)),
                "speed": [speeds[0], statistics.median(speeds), speeds[-1]] if speeds else [],
            }
        attempted = sum(len(it.samples) for it in iterations)
        failures = [msg for it in iterations for msg in it.failed]
        meta = {
            "workload": args.workload, "seed": args.seed, "size": args.size,
            "seconds": args.seconds, "trace": args.trace, "iterations": len(iterations),
            "iteration_wall_s": [round(it.wall_s, 3) for it in iterations],
            "commit": git_commit(),
            "hal_file": report["hal_file"], "hal_version": report["hal_version"],
            "python": report["python"], "numpy": report["numpy"], "scipy": report["scipy"],
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "threads": {**THREAD_PINS, "HAL_THREADS": {c.name: c.threads for c in plan.commands}},
            "notes": plan.notes,
            **extra,
        }
        print("# meta " + json.dumps(meta))
        for msg in failures[:10]:
            print("# fail " + msg)
        print(f"# fail_frac {len(failures)}/{attempted}")
        return {
            "correct": not failures and len(metrics) == len(units),
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                        help="input size; 'smoke' is for the benchmark's own smoke test")
    args = parser.parse_args(argv)
    try:
        result = bench(args)
    except Fatal as exc:
        print(f"bench: cannot measure this checkout: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
