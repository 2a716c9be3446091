"""Command-line front end for the experiment runners.

Exit codes: 0 success, 1 configuration or usage error or an unwritable
output path, 2 numeric failure, 3 checks or grid points failed (the CSV is
still written).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .experiments import (ConfigError, load_config, run_disorder, run_scaling,
                          run_spectrum, run_sweep, run_trace, run_validate)

_RUNNERS = {
    "spectrum": run_spectrum,
    "sweep": run_sweep,
    "trace": run_trace,
    "scaling": run_scaling,
    "disorder": run_disorder,
    "validate": run_validate,
}


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors on exit code 1; 2 means numeric failure."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="opentc",
        description="Floquet time-crystal diagnostics for driven open "
                    "spin chains")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _RUNNERS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", default=None,
                       help="JSON file with ExperimentConfig keys")
        p.add_argument("--out", default=None,
                       help="output CSV path (default <command>.csv)")
        p.add_argument("--seed", type=int, default=None, help="RNG seed")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    out = args.out or f"{args.command}.csv"
    folder = os.path.dirname(os.path.abspath(out))
    if os.path.isdir(out) or not (os.path.isdir(folder)
                                  and os.access(folder, os.W_OK)):
        print(f"cannot write {out}: not a file in a writable directory",
              file=sys.stderr)
        return 1
    try:
        cfg = load_config(args.config, seed=args.seed)
        table = _RUNNERS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, RuntimeError, FloatingPointError,
            np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    try:
        table.write(out)
    except OSError as exc:
        print(f"cannot write {out}: {exc}", file=sys.stderr)
        return 1
    if args.command == "validate":
        for row in table.rows:
            status = "pass" if row[3] else "FAIL"
            print(f"{status}  {row[0]}  value={row[1]:.3e}  tol={row[2]:.1e}")
    failures = int(table.metadata.get("failures", 0))
    if failures:
        print(f"{failures} row(s) failed, see {out}", file=sys.stderr)
        return 3
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
