"""Batch command-line front end.

Subcommands: protocol (single evaluation, JSON), sweep (grid evaluation,
CSV), ensemble (collective-spin mapping report, JSON), campaign (Monte Carlo
estimation, JSON summary plus optional per-run CSV), validate (oracle
table). Every result document embeds a manifest describing the resolved
parameters, so a rerun with an equal manifest on the same host and numpy
build is byte-identical.

Command line: `hal [-h] [--version] SUBCOMMAND ...`, each subcommand's flags
and positional as _COMMANDS lists them: `--name value` or `--name=value`; a
flag by any unique prefix of its name; the last of a repeated flag wins;
flags before or after the positional; `--` ends the options, and stands
only right before or after the positional; `-h` or `--help` prints the
usage and each flag's help. An unknown flag or extra argument is reported
once the whole line is read, so a later `-h` still prints the help. The
dash rule: a token after a flag that takes a value, or in place of the
positional, is a value when it is `-` or starts with `-` and a digit or `-.`
and a digit (`-0.5`, `-1e-3`, `-1,2`); any other token that starts with `-`
is a flag. Every value stays a string until its handler parses it.

Exit codes: 0 success, 1 validate mismatch, 2 validation error (bad values,
malformed or non-UTF-8 grid or config file, impossible herald), 3
truncation error, 64 usage error (an unknown subcommand or flag, a flag
with no value, a missing required flag or positional, an invalid choice,
an extra positional), after the usage line and `hal...: error: ...` on
standard error.

The environment variable HAL_THREADS (integer >= 1, default 1, capped at
the CPU count) sets worker threads inside sweep and amplified campaign; any
other value exits 2. Direct campaigns and campaigns with --runs-csv run on
the calling thread. Output never depends on it.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import math
import os
import sys
import tempfile
import types
from typing import Callable, Dict, Iterable, List, Optional, Sequence

import numpy as np

from . import __version__
from ._parallel import worker_count
from .errors import (
    GridError,
    HalError,
    ImpossibleOutcomeError,
    TruncationError,
    ValidationError,
)
from .fock_core import fidelity
from .metrology import (
    CampaignConfig,
    CampaignSummary,
    NoiseModel,
    check_recording,
    herald_table,
    run_campaign,
)
from .optics_ops import HeraldModel
from .protocol import (
    ProtocolConfig,
    ROW_COLUMNS,
    SWEEP_AXES,
    run_exact,
    run_first_order,
    sweep,
)
from .serialize import csv_block, dumps, state_to_jsonable
from .spin_ensemble import (
    MAX_ENSEMBLE_CUTOFF,
    EnsembleSpec,
    collective_expectations,
    embed_as_fock,
    oscillator_approximation,
    rotated_product_state,
)
from .validate import run_checks

RUN_COLUMNS = ("replica", "attempt_index", "heralded", "x_sample", "noise_value")


def _parse_amplitude(text: str) -> complex:
    parts = text.split(",")
    if len(parts) not in (1, 2):
        raise ValidationError(f"amplitude must be RE or RE,IM, got {text!r}")
    try:
        re = float(parts[0])
        im = float(parts[1]) if len(parts) == 2 else 0.0
    except ValueError:
        raise ValidationError(f"cannot parse amplitude {text!r}") from None
    return complex(re, im)


def _parse_float(text: str, flag: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValidationError(f"cannot parse {flag} value {text!r}") from None


def _parse_int(text: str, flag: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValidationError(f"cannot parse {flag} value {text!r}") from None


#: Most points a grid file may declare, per range and in total over its axes.
MAX_GRID_POINTS = 100_000


def parse_grid_file(text: str) -> Dict[str, List[float]]:
    """Parse a sweep grid: one `name = start:stop:count` or list per line.

    Cutoff values must be integers. A range count, or the product of the
    axis lengths, above MAX_GRID_POINTS is a GridError.
    """
    axes: Dict[str, List[float]] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise GridError(f"grid line {lineno}: expected 'name = values', got {raw.strip()!r}")
        name, _, spec = line.partition("=")
        name = name.strip()
        spec = spec.strip()
        if name not in SWEEP_AXES:
            raise GridError(
                f"grid line {lineno}: unknown axis {name!r} (valid: {', '.join(SWEEP_AXES)})"
            )
        if name in axes:
            raise GridError(f"grid line {lineno}: duplicate axis {name!r}")
        if not spec:
            raise GridError(f"grid line {lineno}: empty value list")
        if ":" in spec:
            parts = spec.split(":")
            if len(parts) != 3:
                raise GridError(f"grid line {lineno}: range must be start:stop:count")
            try:
                start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
            except ValueError:
                raise GridError(f"grid line {lineno}: cannot parse range {spec!r}") from None
            if count < 1:
                raise GridError(f"grid line {lineno}: count must be >= 1")
            if count > MAX_GRID_POINTS:
                raise GridError(
                    f"grid line {lineno}: count {count} exceeds the limit of {MAX_GRID_POINTS}"
                )
            values = [float(v) for v in np.linspace(start, stop, count)]
        else:
            try:
                values = [float(v) for v in spec.split(",")]
            except ValueError:
                raise GridError(f"grid line {lineno}: cannot parse list {spec!r}") from None
        if name == "cutoff":
            bad = [v for v in values if not v.is_integer()]
            if bad:
                raise GridError(f"grid line {lineno}: cutoff must be an integer, got {bad[0]!r}")
            values = [int(v) for v in values]
        axes[name] = values
    if not axes:
        raise GridError("grid file declares no axes")
    if math.prod(len(values) for values in axes.values()) > MAX_GRID_POINTS:
        raise GridError(f"grid declares more than {MAX_GRID_POINTS} points")
    return axes


#: Defaults of the protocol flags that only the exact protocol reads. The
#: parser leaves them None, so that a flag given explicitly shows.
_EXACT_FLAGS = {"cutoff": "12", "input": "truncated", "source_eff": "1", "read_eff": "1", "dark_count": "0"}


def _protocol_config(args) -> ProtocolConfig:
    flags = {name: default if getattr(args, name) is None else getattr(args, name)
             for name, default in _EXACT_FLAGS.items()}
    herald = HeraldModel(
        read_efficiency=_parse_float(flags["read_eff"], "--read-eff"),
        dark_count=_parse_float(flags["dark_count"], "--dark-count"),
    )
    return ProtocolConfig(
        alpha=_parse_amplitude(args.alpha),
        t=_parse_float(args.t, "--t"),
        cutoff=_parse_int(flags["cutoff"], "--cutoff"),
        input_kind=flags["input"],
        source_efficiency=_parse_float(flags["source_eff"], "--source-eff"),
        herald=herald,
    )


def _protocol_params(config: ProtocolConfig, mode: str) -> Dict[str, object]:
    return {
        "mode": mode,
        "alpha_re": config.alpha.real,
        "alpha_im": config.alpha.imag,
        "t": config.t,
        "cutoff": config.cutoff,
        "input": config.input_kind,
        "source_eff": config.source_efficiency,
        "read_eff": config.herald.read_efficiency,
        "dark_count": config.herald.dark_count,
        "resolving": config.herald.resolving,
    }


def _manifest(subcommand: str, parameters, seed: Optional[int], outputs: List[str]):
    return {
        "subcommand": subcommand,
        "parameters": parameters,
        "seed": seed,
        "version": __version__,
        "outputs": outputs,
    }


def _read_input(path: str) -> str:
    """An input file's text; bytes that are not UTF-8 are a ValidationError
    naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: byte {exc.start} is not UTF-8") from None


def _is_stdout(path: Optional[str]) -> bool:
    return path is None or path == "-"


def _write_stdout(chunks: Iterable[bytes]) -> None:
    """Write byte chunks to standard output as each is produced."""
    sys.stdout.flush()  # text already written to stdout goes first
    buffer = getattr(sys.stdout, "buffer", None)
    if buffer is None:  # a text-only stdout, such as an io.StringIO redirect
        sys.stdout.writelines(chunk.decode("utf-8") for chunk in chunks)
    else:
        buffer.writelines(chunks)
        buffer.flush()


def _write_chunks(chunks: Iterable[bytes], path: Optional[str]) -> None:
    """Write byte chunks to path (None or "-": standard output) as each is produced."""
    if _is_stdout(path):
        _write_stdout(chunks)
        return
    with open(path, "wb") as fh:
        fh.writelines(chunks)


def _write(text: str, path: Optional[str]) -> None:
    _write_chunks((text.encode("utf-8"),), path)


#: Rows rendered per csv_block call. A block is written before the next is
#: rendered, so this bounds the writer's memory whatever the row count: 115 B
#: per row of peak in csv_block for a runs CSV block, 0.47 MB at 4096 rows
#: (197 B, 0.81 MB, when both float columns are dense). It is also the
#: fastest size: the bench's 4e5-row runs CSV rendered in 325 / 241 / 173 /
#: 195 / 227 / 200 ns per row at 1024 / 2048 / 4096 / 8192 / 16384 / 65536
#: rows per block (medians of three runs, one pinned CPU of a 2-vCPU VM).
_ROW_CHUNK = 1 << 12


def _csv_head(header: Sequence[str], manifest_json: str) -> bytes:
    """A CSV document's first two lines: the manifest and the header."""
    return f"# manifest: {manifest_json}\n{','.join(header)}\n".encode("utf-8")


def _sweep_csv(rows: np.ndarray, manifest_json: str):
    """The sweep CSV of sweep()'s table, as byte chunks: the manifest line and
    the header, then one csv_block per _ROW_CHUNK rows of its float columns
    as they are, the cutoff (an object column) and error_code as ASCII."""
    yield _csv_head(ROW_COLUMNS, manifest_json)
    for start in range(0, len(rows), _ROW_CHUNK):
        part = rows[start : start + _ROW_CHUNK]
        yield csv_block([part[name].astype("S") if name in ("cutoff", "error_code") else part[name]
                         for name in ROW_COLUMNS])
        yield b"\n"


def cmd_protocol(args) -> int:
    exact = args.mode == "exact"
    given = [name for name in _EXACT_FLAGS if getattr(args, name) is not None]
    if given and not exact:
        flags = ", ".join("--" + name.replace("_", "-") for name in given)
        raise ValidationError(f"--mode first-order reads only --alpha and --t, not {flags}")
    config = _protocol_config(args)
    result = run_exact(config) if exact else run_first_order(config.alpha, config.t)
    manifest = _manifest(
        "protocol", _protocol_params(config, args.mode), None, [args.out or "-"]
    )
    doc = {
        "manifest": manifest,
        "success_prob": result.success_probability,
        "gain": result.gain,
        "fidelity": result.fidelity_to_target,
        "leading_p": result.leading_order.p,
        "leading_gain": result.leading_order.gain,
        "in_recommended_regime": config.in_recommended_regime,
        "leakage": result.leakage,
        # run_exact's state is its support block at the config's cutoff; the
        # first-order state is its own two-level truncation, cutoff 1
        "conditional_state": state_to_jsonable(
            result.conditional_state, config.cutoff if exact else None
        ),
    }
    _write(dumps(doc) + "\n", args.out)
    return 0


def cmd_sweep(args) -> int:
    base = _protocol_config(args)
    axes = parse_grid_file(_read_input(args.grid))
    rows = sweep(base, axes)
    params = _protocol_params(base, "exact")
    params["axes"] = {name: values for name, values in axes.items()}
    manifest = _manifest("sweep", params, None, [args.out or "-"])
    _write_chunks(_sweep_csv(rows, dumps(manifest)), args.out)
    return 0


def cmd_ensemble(args) -> int:
    epsilon = _parse_float(args.epsilon, "--epsilon")
    spec = EnsembleSpec(_parse_int(args.n_atoms, "--n-atoms"), epsilon)
    cutoff = _parse_int(args.cutoff, "--cutoff")
    if cutoff < 1:
        raise ValidationError(f"cutoff must be a positive integer, got {cutoff!r}")
    if cutoff > MAX_ENSEMBLE_CUTOFF:
        raise ValidationError(f"cutoff {cutoff} exceeds the limit of {MAX_ENSEMBLE_CUTOFF}")
    k_max = min(spec.N, cutoff)
    state = rotated_product_state(spec, k_max=k_max)
    expect = collective_expectations(state)
    fid = fidelity(embed_as_fock(state, cutoff), oscillator_approximation(spec, cutoff))
    manifest = _manifest(
        "ensemble",
        {"n_atoms": spec.N, "epsilon": epsilon, "cutoff": cutoff, "k_max": k_max},
        None,
        [args.out or "-"],
    )
    doc = {
        "manifest": manifest,
        "n_atoms": spec.N,
        "epsilon": epsilon,
        "alpha": epsilon * math.sqrt(spec.N),
        "tail_mass": state.tail_mass,
        "fidelity_to_coherent": fid,
        "commutator_deviation": expect.commutator_deviation,
        "var_x": expect.var_x,
        "var_p": expect.var_p,
    }
    _write(dumps(doc) + "\n", args.out)
    return 0


def _parse_bool(text: str, where: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValidationError(f"cannot parse boolean {where} value {text!r}")


def _parse_word(text: str, where: str) -> str:
    return text.strip()


#: The campaign file's sections and, per section in parse order, each field's
#: keyword argument of the library type and its parser. No other section or
#: field is accepted; an absent field keeps the library type's default.
_CAMPAIGN_FIELDS = {
    "campaign": {
        "scheme": ("scheme", _parse_word),
        "true_alpha": ("true_alpha", _parse_float),
        "total_time": ("total_time", _parse_float),
        "replicas": ("replicas", _parse_int),
        "run_period": ("run_period", _parse_float),
        "seed": ("seed", _parse_int),
    },
    "noise": {
        "kind": ("kind", _parse_word),
        "sigma_tech": ("sigma_tech", _parse_float),
        "lambda": ("lam", _parse_float),
        "offset": ("offset", _parse_float),
    },
    "protocol": {
        "alpha": ("alpha", lambda text, where: _parse_amplitude(text)),
        "t": ("t", _parse_float),
        "cutoff": ("cutoff", _parse_int),
        "input_kind": ("input_kind", _parse_word),
        "source_efficiency": ("source_efficiency", _parse_float),
    },
    "herald": {
        "read_efficiency": ("read_efficiency", _parse_float),
        "dark_count": ("dark_count", _parse_float),
        "mode": ("mode", _parse_word),
        "resolving": ("resolving", _parse_bool),
    },
}


def _fields(cp: configparser.ConfigParser, section: str, required: Sequence[str] = ()):
    """One section's fields as keyword arguments; an absent section has none."""
    kwargs = {}
    for key, (keyword, parse) in _CAMPAIGN_FIELDS[section].items():
        if cp.has_option(section, key):
            kwargs[keyword] = parse(cp.get(section, key), f"{section}.{key}")
        elif key in required:
            raise ValidationError(f"missing field: {section}.{key}")
    return kwargs


def parse_campaign_file(text: str, seed_override: Optional[int] = None) -> CampaignConfig:
    """Build a CampaignConfig from key=value sections.

    Sections: [campaign] scheme, true_alpha, total_time, replicas, seed,
    run_period; [noise] kind, sigma_tech, lambda, offset; [protocol] (for the
    amplified scheme) alpha, t, cutoff, input_kind, source_efficiency;
    [herald] read_efficiency, dark_count, mode, resolving. Field names match
    the library types. A missing required field, or an unknown section or
    field, is a validation error naming it as section.name.
    """
    import configparser  # 1.6-2.6 ms that no other command needs

    # no section is the parser's defaults section (an empty name, which no
    # header can spell), so a [DEFAULT] section is unknown like any other
    cp = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=(";", "#"), default_section=""
    )
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ValidationError(f"malformed campaign config: {exc}") from None
    for section in cp.sections():
        if section not in _CAMPAIGN_FIELDS:
            raise ValidationError(f"unknown config section [{section}]")
        for key in cp.options(section):
            if key not in _CAMPAIGN_FIELDS[section]:
                raise ValidationError(f"unknown field: {section}.{key}")
    required = ("scheme", "true_alpha", "total_time", "replicas")
    if seed_override is None:
        required += ("seed",)
    elif cp.has_section("campaign"):
        cp.remove_option("campaign", "seed")  # the override replaces it, unparsed
    campaign = {"seed": seed_override, **_fields(cp, "campaign", required)}
    noise = NoiseModel(**_fields(cp, "noise", ("kind",)))
    protocol = None
    if campaign["scheme"] == "amplified" or cp.has_section("protocol"):
        if not cp.has_section("protocol"):
            raise ValidationError("missing field: protocol.alpha")
        herald = HeraldModel(**_fields(cp, "herald"))
        protocol = ProtocolConfig(herald=herald, **_fields(cp, "protocol", ("alpha", "t")))
    return CampaignConfig(noise=noise, protocol=protocol, **campaign)


def _campaign_params(config: CampaignConfig) -> Dict[str, object]:
    params: Dict[str, object] = {
        "scheme": config.scheme,
        "true_alpha": config.true_alpha,
        "total_time": config.total_time,
        "run_period": config.run_period,
        "replicas": config.replicas,
        "attempts": config.attempts,
        "noise": {
            "kind": config.noise.kind,
            "sigma_tech": config.noise.sigma_tech,
            "lambda": config.noise.lam,
            "offset": config.noise.offset,
        },
    }
    if config.protocol is not None:
        params["protocol"] = _protocol_params(config.protocol, "exact")
    return params


class _RunsCsv:
    """The runs CSV, written while run_campaign runs: a sink (see
    metrology.RunSink) that gathers the replicas' rows into _ROW_CHUNK-row
    csv_blocks and passes each to write as soon as it is rendered.

    Row r is attempt r % attempts of replica r // attempts, so blocks are
    the same whatever the replicas' length: a block may end one replica and
    start the next, and 1e5 one-attempt replicas take 25 blocks. Rows are
    copied into one block of buffers, the x_sample column NaN but where an
    attempt heralded, so no replica's arrays outlive its call. flush()
    writes what is left after the last replica.
    """

    def __init__(self, attempts: int, manifest_json: str, write: Callable[[bytes], object]):
        self._attempts = attempts
        self._write = write
        self._written = 0  # rows
        self._held = 0  # rows in the buffers
        self._buffers = (np.empty(_ROW_CHUNK, np.int8), np.empty(_ROW_CHUNK), np.empty(_ROW_CHUNK))
        write(_csv_head(RUN_COLUMNS, manifest_json))

    def __call__(self, heralded: np.ndarray, samples: np.ndarray, noise_value: np.ndarray):
        at, count, sampled = 0, len(heralded), 0
        while count - at >= _ROW_CHUNK - self._held:  # enough rows to fill the block
            take = _ROW_CHUNK - self._held
            sampled = self._hold(heralded, samples, noise_value, at, take, sampled)
            at += take
            self.flush()
        self._hold(heralded, samples, noise_value, at, count - at, sampled)  # the rest waits

    def _hold(self, heralded, samples, noise_value, at: int, take: int, sampled: int) -> int:
        """Rows at..at + take - 1 of a replica into the buffers, its samples
        from sampled on; returns the samples used up to the last of them."""
        rows = slice(self._held, self._held + take)
        flags, x, noise = (buffer[rows] for buffer in self._buffers)
        flags[:] = heralded[at : at + take]
        noise[:] = noise_value[at : at + take]
        x.fill(np.nan)
        hits = flags.nonzero()[0]
        x[hits] = samples[sampled : sampled + hits.size]
        self._held += take
        return sampled + hits.size

    def flush(self) -> None:
        """Render and write the rows held, if any."""
        if not self._held:
            return
        stop = self._written + self._held
        replica, attempt_index = np.divmod(np.arange(self._written, stop), self._attempts)
        record = (buffer[: self._held] for buffer in self._buffers)
        self._write(csv_block((replica, attempt_index, *record)))
        self._write(b"\n")
        self._written, self._held = stop, 0


def _summary_doc(manifest, summary: CampaignSummary, protocol) -> Dict[str, object]:
    return {
        "manifest": manifest,
        "attempts": summary.attempts,
        "replicas": summary.replicas,
        "successes": summary.successes,
        "estimate_mean": summary.estimate_mean,
        "bias": summary.bias,
        "variance": summary.variance,
        "rmse": summary.rmse,
        "in_recommended_regime": None if protocol is None else protocol.in_recommended_regime,
        "per_replica_estimates": [  # None prints null like NaN and is one shared object
            None if math.isnan(e) else e for e in summary.per_replica_estimates.tolist()
        ],
        "per_replica_successes": summary.per_replica_successes.tolist(),
        "no_success_replicas": summary.no_success_replicas.tolist(),
        "elapsed_model_time": summary.elapsed_model_time,
    }


def cmd_campaign(args) -> int:
    seed_override = _parse_int(args.seed, "--seed") if args.seed is not None else None
    config = parse_campaign_file(_read_input(args.config), seed_override)
    # every check of the input, the herald and its homodyne table run before
    # any output is opened
    worker_count()
    record = args.runs_csv is not None
    outputs = [args.out or "-"]
    if record:
        check_recording(config)
        outputs.append(args.runs_csv)
        if not (_is_stdout(args.out) or _is_stdout(args.runs_csv)) and (
            os.path.realpath(args.out) == os.path.realpath(args.runs_csv)
        ):
            raise ValidationError("--out and --runs-csv name the same file")
    herald = herald_table(config.protocol) if config.scheme == "amplified" else None
    manifest = _manifest("campaign", _campaign_params(config), config.seed, outputs)
    with contextlib.ExitStack() as files:
        # both outputs are opened before the first replica runs, --out first
        out = None if _is_stdout(args.out) else files.enter_context(open(args.out, "wb"))
        runs = spool = None
        if record:
            if not _is_stdout(args.runs_csv):
                write = files.enter_context(open(args.runs_csv, "wb")).write
            elif out is None:  # the summary goes to stdout first; the CSV waits in a spool
                spool = files.enter_context(tempfile.TemporaryFile())
                write = spool.write
            else:
                write = lambda chunk: _write_stdout((chunk,))
            runs = _RunsCsv(config.attempts, dumps(manifest), write)
        summary = run_campaign(config, runs, herald)
        if runs is not None:
            runs.flush()
        text = (dumps(_summary_doc(manifest, summary, config.protocol)) + "\n").encode("utf-8")
        if out is None:
            _write_stdout((text,))
        else:
            out.write(text)
        if spool is not None:
            spool.seek(0)
            _write_stdout(iter(functools.partial(spool.read, 1 << 20), b""))
    return 0


def cmd_validate(args) -> int:
    checks = run_checks()
    name_width = max(len(c.name) for c in checks)
    lines = [f"{'check'.ljust(name_width)}  {'measured':>12}  {'tolerance':>10}  status"]
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        lines.append(
            f"{c.name.ljust(name_width)}  {c.measured:12.3e}  {c.tolerance:10.1e}  {status}"
        )
    failed = [c.name for c in checks if not c.passed]
    if failed:
        lines.append(f"failed: {', '.join(failed)}")
    sys.stdout.write("\n".join(lines) + "\n")
    return 1 if failed else 0


#: The flags of protocol and sweep: name -> (default, help, choices). The
#: exact protocol's flags default to None; their values are in _EXACT_FLAGS.
_PROTOCOL_FLAGS = {
    "--alpha": ("0", "input amplitude RE or RE,IM (default 0)", None),
    "--t": (None, "beam-splitter transmission amplitude", None),
    "--cutoff": (None, "Fock cutoff per mode (default 12)", None),
    "--input": (None, "signal form: |0>+alpha|1> (default) or the full coherent state",
                ("truncated", "coherent")),
    "--source-eff": (None, "single-photon source efficiency p1 (default 1)", None),
    "--read-eff": (None, "herald read efficiency (default 1)", None),
    "--dark-count": (None, "herald dark-count probability (default 0)", None),
    "--out": (None, "output path (default: standard output)", None),
}

#: Each subcommand: its handler, its help, its required flags, its positional
#: as (name, help) or (), and its flags as in _PROTOCOL_FLAGS.
_COMMANDS = {
    "protocol": (cmd_protocol, "evaluate one protocol point, print JSON", ("--t",), (), {
        **_PROTOCOL_FLAGS,
        "--mode": ("exact", "the exact protocol (default) or its first order",
                   ("exact", "first-order")),
    }),
    "sweep": (cmd_sweep, "evaluate a parameter grid, print CSV", ("--grid",), (), {
        **_PROTOCOL_FLAGS,
        "--t": ("0.1", "beam-splitter transmission amplitude (default 0.1)", None),
        "--grid": (None, "grid file: name = start:stop:count or comma list", None),
    }),
    "ensemble": (cmd_ensemble, "collective-spin to oscillator report, print JSON",
                 ("--n-atoms", "--epsilon"), (), {
        "--n-atoms": (None, "number of atoms N", None),
        "--epsilon": (None, "per-atom rotation amplitude", None),
        "--cutoff": ("12", "Fock cutoff for the mapped state (default 12)", None),
        "--out": (None, "output path (default: standard output)", None),
    }),
    "campaign": (cmd_campaign, "run an estimation campaign from a config file", (),
                 ("config", "campaign config file (key=value sections)"), {
        "--seed": (None, "override the seed from the config file", None),
        "--out": (None, "summary JSON path (default: standard output)", None),
        "--runs-csv": (None, "also write per-run records to this CSV ('-': standard output)", None),
    }),
    "validate": (cmd_validate, "run the oracle suite, print the comparison table", (), (), {}),
}

def _is_value(token: str) -> bool:
    """The dash rule: a token is a value (a flag's or a positional), not a
    flag, unless it starts with "-"; "-" itself is a value, and so is "-"
    followed by a digit or by "." and a digit."""
    return not token.startswith("-") or token == "-" or token[1:].removeprefix(".")[:1].isdecimal()


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _flag_text(flag: str, choices) -> str:
    return f"{flag} {{{','.join(choices)}}}" if choices else f"{flag} {_dest(flag).upper()}"


def _help(command: Optional[str], full: bool = False) -> str:
    """The usage line of hal (command None) or of a subcommand; when full,
    then its description and one line per flag, positional or subcommand."""
    if command is None:
        usage = f"hal [-h] [--version] {{{','.join(_COMMANDS)}}} ..."
        about = "heralded-amplification simulation toolkit"
        rows = [("--version", "print the version and exit"),
                *((name, spec[1]) for name, spec in _COMMANDS.items())]
    else:
        _, about, required, positional, flags = _COMMANDS[command]
        usage = " ".join(["hal", command, "[-h]", *(_flag_text(f, flags[f][2]) for f in required),
                          *(["[options]"] if flags else []), *positional[:1]])
        rows = [(_flag_text(f, choices), text) for f, (_, text, choices) in flags.items()]
        rows += [positional] if positional else []
    rows.insert(0, ("-h, --help", "show this help message and exit"))
    width = max(len(name) for name, _ in rows) + 2
    body = ["", about, "", *(f"  {name.ljust(width)}{text}" for name, text in rows)] if full else []
    return "\n".join([f"usage: {usage}", *body]) + "\n"


def _usage_error(command: Optional[str], message: str):
    prog = "hal" if command is None else f"hal {command}"
    sys.stderr.write(f"{_help(command)}{prog}: error: {message}\n")
    raise SystemExit(64)


def _parse(argv: Sequence[str]) -> types.SimpleNamespace:
    """Parse a command line by the grammar in the module docstring."""
    args, command, flags = types.SimpleNamespace(), None, {"--version": None}
    required, positional, stray = (), (), []
    at, rest = None, False  # the positional's index; whether "--" came
    tokens = enumerate(argv)
    for i, token in tokens:
        if token == "--" and not rest:
            rest = True
            if not positional or at not in (None, i - 1):
                stray.append(token)
            continue
        if rest or _is_value(token):
            if command is None:
                if token not in _COMMANDS:
                    _usage_error(None, f"invalid choice: {token!r} (choose from {', '.join(_COMMANDS)})")
                command = args.subcommand = token
                args.func, _, required, positional, flags = _COMMANDS[command]
                vars(args).update((_dest(flag), spec[0]) for flag, spec in flags.items())
            elif positional and at is None:
                setattr(args, positional[0], token)
                at = i
            else:
                stray.append(token)
            continue
        name, eq, value = token.partition("=")
        name, names = "--help" if name == "-h" else name, [*flags, "--help"]
        match = [name] if name in names else [
            n for n in names if name.startswith("--") and n.startswith(name)]
        if len(match) != 1:
            if match:
                _usage_error(command, f"ambiguous option: {name} could match {', '.join(match)}")
            stray.append(token)
            continue
        flag = match[0]
        if flag in ("--help", "--version"):
            if eq:
                _usage_error(command, f"argument {flag}: ignored explicit argument {value!r}")
            sys.stdout.write(_help(command, full=True) if flag == "--help" else f"hal {__version__}\n")
            raise SystemExit(0)
        if not eq:
            _, value = next(tokens, (None, None))
            if value is None or not _is_value(value):
                _usage_error(command, f"argument {flag}: expected one argument")
        choices = flags[flag][2]
        if choices and value not in choices:
            _usage_error(command, f"argument {flag}: invalid choice: {value!r} "
                                  f"(choose from {', '.join(choices)})")
        setattr(args, _dest(flag), value)
    if stray:
        _usage_error(command, f"unrecognized arguments: {' '.join(stray)}")
    # a required flag has no default, so it is None until given
    missing = [flag for flag in required if getattr(args, _dest(flag)) is None]
    missing += positional[:1] if at is None else ()
    if command is None or missing:
        _usage_error(command, f"the following arguments are required: {', '.join(missing) or 'subcommand'}")
    return args


@functools.cache
def _freeze_imports() -> None:
    """Freeze what the process holds at its first command, and only then:
    frozen at every call, the garbage made between calls would never be
    collected.

    Each hal command is one short process, and what its imports made lives
    as long as it does. Frozen out of the collector's generations, it is not
    scanned again, by a collection in the command or by the one at exit,
    and the command starts with none of the import's allocations counted
    toward its next collection. Measured on one pinned CPU: hal protocol ran
    141 -> 123 ms from spawn to exit, and hal sweep's 8 ms lost a 1 ms
    generation-1 collection that came and went with the size of the import.
    """
    gc.freeze()


def main(argv: Optional[Sequence[str]] = None) -> int:
    _freeze_imports()
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        return args.func(args)
    except TruncationError as exc:
        print(f"hal: truncation error: {exc}", file=sys.stderr)
        return 3
    except ImpossibleOutcomeError as exc:
        print(f"hal: impossible outcome: {exc}", file=sys.stderr)
        return 2
    except (HalError, OSError) as exc:
        print(f"hal: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
