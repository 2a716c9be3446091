"""Command-line front end for the experiment runners.

Exit codes: 0 success, 1 configuration error, 2 numeric failure,
3 checks or grid points failed (the CSV is still written).
"""

from __future__ import annotations

import argparse
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
        p.add_argument("--threads", type=int, default=None,
                       help="worker processes for grid sweeps")
        p.add_argument("--big", action="store_true", default=None,
                       help="enable the large runs (L=6 sweep, L=10 scaling)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, seed=args.seed, threads=args.threads,
                          big=args.big)
        table = _RUNNERS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, RuntimeError, FloatingPointError,
            np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    out = args.out or f"{args.command}.csv"
    table.write(out)
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
