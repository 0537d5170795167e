"""Batch command-line front end.

Subcommands: protocol (single evaluation, JSON), sweep (grid evaluation,
CSV), ensemble (collective-spin mapping report, JSON), campaign (Monte Carlo
estimation, JSON summary plus optional per-run CSV), validate (oracle
table). Every result document embeds a manifest describing the resolved
parameters, so a rerun with an equal manifest is byte-identical.

Exit codes: 0 success, 1 validate mismatch, 2 validation error (bad values,
malformed grid or config file, impossible herald), 3 truncation error,
64 usage error (unknown flag, missing required flag).

The environment variable HAL_THREADS (integer >= 1, default 1, capped at
the CPU count) sets worker threads inside sweep and amplified campaign; any
other value exits 2. Direct campaigns and campaigns with --runs-csv run on
the calling thread. Output never depends on it.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import functools
import math
import os
import sys
import tempfile
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


class _Parser(argparse.ArgumentParser):
    """argparse variant using exit code 64 for usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


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


def _protocol_config(args) -> ProtocolConfig:
    herald = HeraldModel(
        read_efficiency=_parse_float(args.read_eff, "--read-eff"),
        dark_count=_parse_float(args.dark_count, "--dark-count"),
    )
    return ProtocolConfig(
        alpha=_parse_amplitude(args.alpha),
        t=_parse_float(args.t, "--t"),
        cutoff=_parse_int(args.cutoff, "--cutoff"),
        input_kind=args.input,
        source_efficiency=_parse_float(args.source_eff, "--source-eff"),
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
#: rendered, so this bounds the writer's memory whatever the row count: about
#: 320 B per row in csv_block, 1.3 MB at 4096 rows.
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
                         for name in ROW_COLUMNS]) + b"\n"


def cmd_protocol(args) -> int:
    config = _protocol_config(args)
    result = run_first_order(config.alpha, config.t) if args.mode == "first-order" else run_exact(config)
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
        "leakage": result.leakage,
        "conditional_state": state_to_jsonable(result.conditional_state),
    }
    _write(dumps(doc) + "\n", args.out)
    return 0


def cmd_sweep(args) -> int:
    base = _protocol_config(args)
    with open(args.grid, "r", encoding="utf-8") as fh:
        axes = parse_grid_file(fh.read())
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
    copied into one block of buffers, so no replica's arrays outlive its
    call. flush() writes what is left after the last replica.
    """

    def __init__(self, attempts: int, manifest_json: str, write: Callable[[bytes], object]):
        self._attempts = attempts
        self._write = write
        self._written = 0  # rows
        self._held = 0  # rows in the buffers
        self._buffers = (np.empty(_ROW_CHUNK, np.int8), np.empty(_ROW_CHUNK), np.empty(_ROW_CHUNK))
        write(_csv_head(RUN_COLUMNS, manifest_json))

    def __call__(self, heralded: np.ndarray, x_sample: np.ndarray, noise_value: np.ndarray):
        record = (heralded, x_sample, noise_value)
        at, count = 0, len(heralded)
        while count - at >= _ROW_CHUNK - self._held:  # enough rows to fill the block
            take = _ROW_CHUNK - self._held
            self._hold(record, at, take)
            at += take
            self.flush()
        self._hold(record, at, count - at)  # the rest waits for the next replica's rows

    def _hold(self, record: Sequence[np.ndarray], at: int, take: int) -> None:
        rows = slice(self._held, self._held + take)
        for buffer, column in zip(self._buffers, record):
            buffer[rows] = column[at : at + take]
        self._held += take

    def flush(self) -> None:
        """Render and write the rows held, if any."""
        if not self._held:
            return
        stop = self._written + self._held
        replica, attempt_index = np.divmod(np.arange(self._written, stop), self._attempts)
        record = (buffer[: self._held] for buffer in self._buffers)
        self._write(csv_block((replica, attempt_index, *record)) + b"\n")
        self._written, self._held = stop, 0


def _summary_doc(manifest, summary: CampaignSummary) -> Dict[str, object]:
    return {
        "manifest": manifest,
        "attempts": summary.attempts,
        "replicas": summary.replicas,
        "successes": summary.successes,
        "estimate_mean": summary.estimate_mean,
        "bias": summary.bias,
        "variance": summary.variance,
        "rmse": summary.rmse,
        "per_replica_estimates": [  # None prints null like NaN and is one shared object
            None if math.isnan(e) else e for e in summary.per_replica_estimates.tolist()
        ],
        "per_replica_successes": summary.per_replica_successes.tolist(),
        "no_success_replicas": summary.no_success_replicas.tolist(),
        "elapsed_model_time": summary.elapsed_model_time,
    }


def cmd_campaign(args) -> int:
    seed_override = _parse_int(args.seed, "--seed") if args.seed is not None else None
    with open(args.config, "r", encoding="utf-8") as fh:
        config = parse_campaign_file(fh.read(), seed_override)
    # every check of the input, and the herald, run before any output is opened
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
    protocol_result = run_exact(config.protocol) if config.scheme == "amplified" else None
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
        summary = run_campaign(config, runs, protocol_result)
        if runs is not None:
            runs.flush()
        text = (dumps(_summary_doc(manifest, summary)) + "\n").encode("utf-8")
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


def _add_protocol_flags(p: argparse.ArgumentParser, require_t: bool) -> None:
    p.add_argument("--alpha", default="0", help="input amplitude RE or RE,IM (default 0)")
    p.add_argument("--t", required=require_t, default=None if require_t else "0.1",
                   help="beam-splitter transmission amplitude")
    p.add_argument("--cutoff", default="12", help="Fock cutoff per mode (default 12)")
    p.add_argument("--input", choices=("truncated", "coherent"), default="truncated",
                   help="signal form: |0>+alpha|1> or the full coherent state")
    p.add_argument("--source-eff", default="1", help="single-photon source efficiency p1")
    p.add_argument("--read-eff", default="1", help="herald read efficiency")
    p.add_argument("--dark-count", default="0", help="herald dark-count probability")
    p.add_argument("--out", default=None, help="output path (default: standard output)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hal", description="heralded-amplification simulation toolkit")
    parser.add_argument("--version", action="version", version=f"hal {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    p = sub.add_parser("protocol", help="evaluate one protocol point, print JSON")
    _add_protocol_flags(p, require_t=True)
    p.add_argument("--mode", choices=("exact", "first-order"), default="exact")
    p.set_defaults(func=cmd_protocol)

    p = sub.add_parser("sweep", help="evaluate a parameter grid, print CSV")
    _add_protocol_flags(p, require_t=False)
    p.add_argument("--grid", required=True, help="grid file: name = start:stop:count or comma list")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("ensemble", help="collective-spin to oscillator report, print JSON")
    p.add_argument("--n-atoms", required=True, help="number of atoms N")
    p.add_argument("--epsilon", required=True, help="per-atom rotation amplitude")
    p.add_argument("--cutoff", default="12", help="Fock cutoff for the mapped state")
    p.add_argument("--out", default=None, help="output path (default: standard output)")
    p.set_defaults(func=cmd_ensemble)

    p = sub.add_parser("campaign", help="run an estimation campaign from a config file")
    p.add_argument("config", help="campaign config file (key=value sections)")
    p.add_argument("--seed", default=None, help="override the seed from the config file")
    p.add_argument("--out", default=None, help="summary JSON path (default: standard output)")
    p.add_argument("--runs-csv", default=None,
                   help="also write per-run records to this CSV ('-': standard output)")
    p.set_defaults(func=cmd_campaign)

    p = sub.add_parser("validate", help="run the oracle suite, print the comparison table")
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
