"""Command-line front end.

Subcommands:
  state       build a state, transform it, write the Wigner grid + marginals
  evolve      continuous-time dynamics: closed_form (phase space), rk4 (density
              operator: exact eigh plus the channel flow e^{tD} when the channels
              commute with H, RK4 otherwise), or both
  walk        discrete-time quantum walk, optionally with projective noise
  negativity  trace-norm negativity (JSON; timeseries CSV under dynamics)
  validate    the checks a run makes before its first step; nothing evolved or written

Exit codes: 0 success; 2 config error, refused before the first step as validate
reports it, or an output directory or file that cannot be written; 3 found while
evolving.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys

from .errors import (
    BoundaryLeakError,
    ConfigError,
    InvariantViolation,
    LatticeWignerError,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lattice-wigner",
        description="Phase-space simulator for a spin-1/2 particle on a 1D lattice",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("state", "transform a static state and write its Wigner grid"),
        ("evolve", "run continuous-time dynamics"),
        ("walk", "run the discrete-time quantum walk"),
        ("negativity", "compute trace-norm negativity"),
        ("validate", "check a config without running it"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to the scenario JSON")
        if name != "validate":  # the one command that writes no file
            cmd.add_argument("--out", default=None, help="output directory (overrides config)")
        cmd.add_argument("--quiet", action="store_true", help="skip the written-file list and validate's ok line")
    return parser


def _load_config(path: str):
    """The scenario.ScenarioConfig of the JSON file at path."""
    from .scenario import parse_config

    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # syntax, UTF-8, integer digits, nesting depth
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(doc)


def main(argv=None) -> int:
    """Run the command in argv (sys.argv when None) and return its exit status.

    Reading sys.argv, main is a process of its own and pins BLAS to one thread
    before numpy loads, whatever the caller set: the density route's products
    change their last bits with the thread count.  Called with argv, numpy may
    have loaded already, so the caller's thread count holds."""
    args = _build_parser().parse_args(argv)
    if argv is None:
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = "1"
        # Import the pipeline (numpy and the layers, about 33,000 objects the
        # cyclic GC tracks) with the GC off, then freeze them, so that neither
        # later collections nor interpreter shutdown traverse them.  Called with
        # argv (tests, a benchmark child), main leaves the GC as it found it.
        gc.disable()
        from . import scenario  # noqa: F401
        gc.freeze()
        gc.enable()
    from .scenario import run, validate_config

    try:
        cfg = _load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if args.command == "validate":
        diagnostics = validate_config(cfg)
        for diag in diagnostics:
            print(str(diag))
        if any(d.severity == "error" for d in diagnostics):
            return EXIT_CONFIG
        if not diagnostics and not args.quiet:
            print("ok: no diagnostics")
        return EXIT_OK

    try:
        out_dir = cfg.out_dir if args.out is None else args.out
        if not out_dir:
            raise ConfigError("no output directory: set outputs.directory or pass a non-empty --out")
        run(cfg, args.command, out_dir, quiet=args.quiet)
    except (BoundaryLeakError, InvariantViolation) as exc:
        print(f"numerical invariant violated: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except LatticeWignerError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
