"""hal's argparse front end, kept as the reference for its command-line parser.

Until hal.cli parsed its command line from one table, `build_parser` below
was its front end; it is kept here unchanged. tests/test_cli.py checks that
the two agree on generated command lines: on which are usage errors (exit
64) and on every value of those that parse.
"""

import argparse
import sys

from hal import __version__
from hal.cli import cmd_campaign, cmd_ensemble, cmd_protocol, cmd_sweep, cmd_validate


class _Parser(argparse.ArgumentParser):
    """argparse variant using exit code 64 for usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


def _add_protocol_flags(p: argparse.ArgumentParser, require_t: bool) -> None:
    p.add_argument("--alpha", default="0", help="input amplitude RE or RE,IM (default 0)")
    p.add_argument("--t", required=require_t, default=None if require_t else "0.1",
                   help="beam-splitter transmission amplitude")
    # not given, each leaves its field at the library's default (hal.cli._FLAG_FIELDS)
    p.add_argument("--cutoff", help="Fock cutoff per mode (default 12)")
    p.add_argument("--input", choices=("truncated", "coherent"),
                   help="signal form: |0>+alpha|1> (default) or the full coherent state")
    p.add_argument("--source-eff", help="single-photon source efficiency p1 (default 1)")
    p.add_argument("--read-eff", help="herald read efficiency (default 1)")
    p.add_argument("--dark-count", help="herald dark-count probability (default 0)")
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

