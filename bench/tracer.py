"""Span tracing of the hal package from outside its source tree.

`install()` runs inside a benchmark child process after `hal.cli` is
imported. It wraps the public functions of every hal module (and the few
private helpers a per-layer metric needs) and rebinds each wrapped name in
every hal namespace that imported it, so `run_exact` is traced whether it is
reached through `hal.protocol`, `hal.metrology`, `hal.cli` or `hal`.
`DensityOperator.__init__` is wrapped at class level.

A span is (id, name, start, end, parent, thread, extra). The parent is the
innermost open span on the calling thread; an item that `map_indexed` runs
on a worker thread takes the `map_indexed` span as its parent. Spans are
kept in memory and written once, by `Recorder.dump`, after `main` returns.

`layer_metrics()` runs in the benchmark parent and turns one dump into the
per-layer metrics. A span's self time is its duration minus the part of its
interval that its child spans cover (children on different threads may
overlap, so coverage is the length of their union).
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import sys
import threading
import types
from time import perf_counter

# Per-cell helpers called about once per CSV cell (2M times for a 4e5-row
# runs CSV): a span would cost more than the call, and csv_lines / dumps
# already cover them.
SKIP = {("hal.serialize", "csv_cell"), ("hal.serialize", "fmt_float")}

# Private helpers wrapped because a per-layer metric is read from them.
PRIVATE = {
    "hal.metrology": ("_sample_from_density",),
    "hal.optics_ops": ("_assembled_matrix", "_sector_block"),
}

# The beam-splitter caches whose cache_info() gives bs_cache.hit_ratio.
BS_CACHES = ("_assembled_matrix", "_sector_block")

# Span names that count as inverse-CDF sampling.
SAMPLE_SPANS = ("metrology.sample_homodyne", "metrology._sample_from_density")

# (name, unit, better) of every per-layer metric, in report order.
LAYER_METRICS = (
    ("import.scipy_stats_s", "s", "lower"),
    ("import.scipy_signal_s", "s", "lower"),
    ("import.scipy_linalg_s", "s", "lower"),
    ("import.hal_s", "s", "lower"),
    ("fock_core.DensityOperator.calls", "count", "lower"),
    ("fock_core.DensityOperator.s", "s", "lower"),
    ("fock_core.DensityOperator.bytes_computed", "B", "lower"),
    ("fock_core.coherent_state.s", "s", "lower"),
    ("fock_core.fidelity.s", "s", "lower"),
    ("optics_ops.apply_beam_splitter.calls", "count", "lower"),
    ("optics_ops.apply_beam_splitter.s", "s", "lower"),
    ("optics_ops.herald_click.s", "s", "lower"),
    ("optics_ops.project_number.s", "s", "lower"),
    ("optics_ops.bs_cache.hit_ratio", "ratio", "higher"),
    ("optics_ops.bs_cache.bytes_computed", "B", "lower"),
    ("protocol.run_exact.calls", "count", "lower"),
    ("protocol.run_exact.s", "s", "lower"),
    ("protocol.run_exact.self_s", "s", "lower"),
    ("protocol.point_p50_ms", "ms", "lower"),
    ("protocol.point_p90_ms", "ms", "lower"),
    ("protocol.error_rows", "count", "lower"),
    ("metrology.sample.s", "s", "lower"),
    ("metrology.sample.draws", "count", "lower"),
    ("metrology.noise_series.s", "s", "lower"),
    ("metrology.quadrature_pdf.s", "s", "lower"),
    ("metrology.run_campaign.self_s", "s", "lower"),
    ("metrology.herald_yield", "ratio", "higher"),
    ("parallel.map_indexed.s", "s", "lower"),
    ("parallel.busy_ratio", "ratio", "higher"),
    ("parallel.wait_s", "s", "lower"),
    ("serialize.csv_lines.s", "s", "lower"),
    ("serialize.csv_lines.rows", "count", "lower"),
    ("serialize.csv_lines.bytes", "B", "lower"),
    ("serialize.dumps.s", "s", "lower"),
    ("spin_ensemble.rotated_product_state.s", "s", "lower"),
    ("spin_ensemble.collective_expectations.s", "s", "lower"),
    ("validate.run_checks.s", "s", "lower"),
    ("validate.run_checks.failed", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
)

# -X importtime module name behind each import.* metric.
IMPORT_MODULES = {
    "import.scipy_stats_s": "scipy.stats",
    "import.scipy_signal_s": "scipy.signal",
    "import.scipy_linalg_s": "scipy.linalg",
    "import.hal_s": "hal",
}


class _TimedRows:
    """Iterator over a row source that counts rows and the time spent
    producing them, so the producer's time is credited to its caller."""

    def __init__(self, rows):
        self._it = iter(rows)
        self.rows = 0
        self.seconds = 0.0

    def __iter__(self):
        return self

    def __next__(self):
        start = perf_counter()
        try:
            row = next(self._it)
        finally:
            self.seconds += perf_counter() - start
        self.rows += 1
        return row


class Recorder:
    """Thread-safe in-memory span store."""

    def __init__(self):
        self.spans = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, before=None, after=None):
        """Return fn traced as `name`.

        before(sid, extra, args, kwargs) may rewrite the arguments;
        after(extra, args, result) records counts from a successful call.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            with self._lock:
                sid = next(self._ids)
            parent = stack[-1] if stack else None
            extra = {}
            if before is not None:
                args, kwargs = before(sid, extra, args, kwargs)
            stack.append(sid)
            ok = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = perf_counter()
                stack.pop()
                if ok and after is not None:
                    after(extra, args, result)
                span = (sid, name, start, end, parent, threading.get_ident(), extra or None)
                with self._lock:
                    self.spans.append(span)

        return traced

    def dump(self, path, caches):
        with self._lock:
            doc = {"spans": list(self.spans), "caches": caches}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _hooks(recorder, modules):
    """Argument rewrites and result counters for the spans that need them."""
    parallel = modules["hal._parallel"]
    optics = modules["hal.optics_ops"]
    worker_count = parallel.worker_count

    def map_before(sid, extra, args, kwargs):
        fn, items = args[0], list(args[1])
        n = worker_count()
        extra["workers"] = 1 if n <= 1 or len(items) <= 1 else min(n, len(items))
        traced_item = recorder.wrap("_parallel.item", fn)

        def item(x):
            stack = recorder._stack()
            on_worker = not stack
            if on_worker:
                stack.append(sid)
            try:
                return traced_item(x)
            finally:
                if on_worker:
                    stack.pop()

        return (item, items) + tuple(args[2:]), kwargs

    def csv_before(sid, extra, args, kwargs):
        extra["_rows"] = _TimedRows(args[1])
        return (args[0], extra["_rows"]) + tuple(args[2:]), kwargs

    def csv_after(extra, args, result):
        rows = extra.pop("_rows")
        extra.update(rows=rows.rows, foreign_s=rows.seconds, bytes=len(result))

    def cache_before(cached):
        def before(sid, extra, args, kwargs):
            extra["_misses"] = cached.cache_info().misses
            return args, kwargs

        return before

    def cache_after(cached):
        def after(extra, args, result):
            if cached.cache_info().misses > extra.pop("_misses"):
                extra["bytes"] = int(result.nbytes)

        return after

    hooks = {
        "_parallel.map_indexed": {"before": map_before},
        "serialize.csv_lines": {"before": csv_before, "after": csv_after},
        "metrology._sample_from_density": {
            "after": lambda extra, args, result: extra.update(draws=int(len(result)))
        },
        "metrology.run_campaign": {
            "after": lambda extra, args, s: extra.update(
                scheme=args[0].scheme,
                successes=int(s.successes),
                attempts=int(s.attempts) * int(s.replicas),
            )
        },
        "protocol.sweep": {
            "after": lambda extra, args, rows: extra.update(
                error_rows=sum(1 for r in rows if r["error_code"])
            )
        },
        "validate.run_checks": {
            "after": lambda extra, args, checks: extra.update(
                failed=sum(1 for c in checks if not c.passed)
            )
        },
    }
    for attr in BS_CACHES:
        cached = getattr(optics, attr, None)
        if cached is not None:
            hooks[f"optics_ops.{attr}"] = {
                "before": cache_before(cached),
                "after": cache_after(cached),
            }
    return hooks


def _selected(modname, attr, obj):
    if not isinstance(obj, (types.FunctionType, functools._lru_cache_wrapper)):
        return False
    if getattr(obj, "__module__", None) != modname or (modname, attr) in SKIP:
        return False
    if modname == "hal.cli":
        # The front end is traced at its entry point, so cli.main's self
        # time is argv parsing, config parsing and row building.
        return attr == "main"
    return not attr.startswith("_") or attr in PRIVATE.get(modname, ())


def install():
    """Wrap hal in this process; return the Recorder and a cache reader."""
    modules = {
        name: mod
        for name, mod in sys.modules.items()
        if name.startswith("hal.") and mod is not None
    }
    recorder = Recorder()
    hooks = _hooks(recorder, modules)
    wrapped = {}
    for modname, mod in modules.items():
        short = modname[len("hal."):]
        for attr, obj in list(vars(mod).items()):
            if _selected(modname, attr, obj):
                name = f"{short}.{attr}"
                wrapped[id(obj)] = (obj, recorder.wrap(name, obj, **hooks.get(name, {})))

    density = modules["hal.fock_core"].DensityOperator
    density.__init__ = recorder.wrap(
        "fock_core.DensityOperator",
        density.__init__,
        after=lambda extra, args, _: extra.update(bytes=int(args[0].matrix.nbytes)),
    )

    optics = modules["hal.optics_ops"]
    bs_caches = [getattr(optics, a) for a in BS_CACHES if hasattr(optics, a)]
    for mod in list(modules.values()) + [sys.modules["hal"]]:
        for attr, obj in list(vars(mod).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])

    def caches():
        infos = [cached.cache_info() for cached in bs_caches]
        return {
            "bs_hits": sum(i.hits for i in infos),
            "bs_misses": sum(i.misses for i in infos),
        }

    return recorder, caches


def _union_length(intervals):
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _quantile(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[int(q * 100) - 1]


def layer_metrics(doc):
    """Per-layer metrics of one traced process from its span dump.

    `.s` sums the spans of a name that are not nested in a span of the same
    name; `.self_s` sums self times. Time a span spent pulling rows from its
    caller's generator (extra foreign_s) counts for the caller, not the span.
    herald_yield is successes per attempt of amplified-scheme campaigns.
    Modules the workload never reaches report 0.
    """
    spans = [tuple(s) for s in doc["spans"]]
    by_id = {s[0]: s for s in spans}
    children = {}
    for s in spans:
        children.setdefault(s[4], []).append(s)

    def dur(s):
        return s[3] - s[2] - ((s[6] or {}).get("foreign_s", 0.0))

    def self_time(s):
        kids = children.get(s[0], [])
        covered = _union_length(
            (max(k[2], s[2]), min(k[3], s[3])) for k in kids if k[3] > s[2] and k[2] < s[3]
        )
        foreign = sum((k[6] or {}).get("foreign_s", 0.0) for k in kids)
        return dur(s) - covered + foreign

    def outermost(names):
        out = []
        for s in spans:
            if s[1] not in names:
                continue
            p = by_id.get(s[4])
            while p is not None and p[1] not in names:
                p = by_id.get(p[4])
            if p is None:
                out.append(s)
        return out

    def named(name):
        return [s for s in spans if s[1] == name]

    def total(*names):
        return sum(dur(s) for s in outermost(set(names)))

    def extra_sum(name, key):
        return sum((s[6] or {}).get(key, 0) for s in named(name))

    density = "fock_core.DensityOperator"
    runs = sorted(1e3 * dur(s) for s in outermost({"protocol.run_exact"}))
    maps = outermost({"_parallel.map_indexed"})
    capacity = sum(dur(m) * (m[6] or {}).get("workers", 1) for m in maps)
    busy = sum(dur(s) for s in named("_parallel.item"))
    campaigns = named("metrology.run_campaign")
    heralded = [s[6] for s in campaigns if s[6] and s[6].get("scheme") == "amplified"]
    attempts = sum(e["attempts"] for e in heralded)
    caches = doc["caches"]
    lookups = caches["bs_hits"] + caches["bs_misses"]
    return {
        "fock_core.DensityOperator.calls": len(named(density)),
        "fock_core.DensityOperator.s": total(density),
        "fock_core.DensityOperator.bytes_computed": extra_sum(density, "bytes"),
        "fock_core.coherent_state.s": total("fock_core.coherent_state"),
        "fock_core.fidelity.s": total("fock_core.fidelity"),
        "optics_ops.apply_beam_splitter.calls": len(named("optics_ops.apply_beam_splitter")),
        "optics_ops.apply_beam_splitter.s": total("optics_ops.apply_beam_splitter"),
        "optics_ops.herald_click.s": total("optics_ops.herald_click"),
        "optics_ops.project_number.s": total("optics_ops.project_number"),
        "optics_ops.bs_cache.hit_ratio": caches["bs_hits"] / lookups if lookups else 0.0,
        "optics_ops.bs_cache.bytes_computed": sum(
            extra_sum(f"optics_ops.{a}", "bytes") for a in BS_CACHES
        ),
        "protocol.run_exact.calls": len(named("protocol.run_exact")),
        "protocol.run_exact.s": total("protocol.run_exact"),
        "protocol.run_exact.self_s": sum(self_time(s) for s in named("protocol.run_exact")),
        "protocol.point_p50_ms": _quantile(runs, 0.5),
        "protocol.point_p90_ms": _quantile(runs, 0.9),
        "protocol.error_rows": extra_sum("protocol.sweep", "error_rows"),
        "metrology.sample.s": total(*SAMPLE_SPANS),
        "metrology.sample.draws": extra_sum("metrology._sample_from_density", "draws"),
        "metrology.noise_series.s": total("metrology.noise_series"),
        "metrology.quadrature_pdf.s": total("metrology.quadrature_pdf"),
        "metrology.run_campaign.self_s": sum(self_time(s) for s in campaigns),
        "metrology.herald_yield": (
            sum(e["successes"] for e in heralded) / attempts if attempts else 0.0
        ),
        "parallel.map_indexed.s": sum(dur(m) for m in maps),
        "parallel.busy_ratio": busy / capacity if capacity else 0.0,
        "parallel.wait_s": capacity - busy if capacity else 0.0,
        "serialize.csv_lines.s": total("serialize.csv_lines"),
        "serialize.csv_lines.rows": extra_sum("serialize.csv_lines", "rows"),
        "serialize.csv_lines.bytes": extra_sum("serialize.csv_lines", "bytes"),
        "serialize.dumps.s": total("serialize.dumps"),
        "spin_ensemble.rotated_product_state.s": total("spin_ensemble.rotated_product_state"),
        "spin_ensemble.collective_expectations.s": total("spin_ensemble.collective_expectations"),
        "validate.run_checks.s": total("validate.run_checks"),
        "validate.run_checks.failed": extra_sum("validate.run_checks", "failed"),
        "cli.main.self_s": sum(self_time(s) for s in named("cli.main")),
        "trace.spans": len(spans),
    }


def import_times(stderr_text):
    """Cumulative first-import seconds of the IMPORT_MODULES from the
    stderr of `python -X importtime`; a module never imported reads 0."""
    wanted = {mod: metric for metric, mod in IMPORT_MODULES.items()}
    out = {metric: 0.0 for metric in IMPORT_MODULES}
    for line in stderr_text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3:
            continue
        name = parts[2].strip()
        if name in wanted and out[wanted[name]] == 0.0:
            try:
                out[wanted[name]] = int(parts[1]) * 1e-6
            except ValueError:
                continue
    return out
