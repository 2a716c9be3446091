"""Benchmark of the `opentc` CLI: one workload per run, one process per sample.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each sample runs `opentc.cli.main` in a fresh Python process (child.py) with
`threads: 1` and OpenBLAS at its default thread count. The run repeats
samples for about S seconds and reports medians. With --trace 0 it prints the
end-to-end metrics; with --trace 1 it alternates untraced and traced samples
and prints the per-layer metrics and the tracing overhead, once the
exercise/bypass self-test has passed. Every sample's CSV is checked: against
reference.json at seed 0, against invariants at other seeds, and on sweep-L4
against the spectra that oracle.py computes independently, at every seed.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. The full record, with the environment, every sample and
the config, goes to perfbench/out/<workload>-seed<N>-trace<T>/result.json.
Exit code 0 when a result was printed, 2 when the benchmark could not run or
its self-test failed.
"""

from __future__ import annotations

import argparse
import collections
import csv
import hashlib
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 150.0
# Share of an untraced run's time given to set-up-only samples. They are
# spread through the run, so setup_s covers the same minutes as wall_s.
PROBE_SHARE = 0.1
# Timed samples a run takes even when the second overruns --seconds, so that
# no median rests on a single sample.
MIN_TIMED = 2

# The CLI command of each workload. Seed 0 is the named point; other seeds
# jitter it slightly, so the cost stays that of the same path.
COMMANDS = {"sweep-L4": "sweep", "trace-L8": "trace",
            "trace-secular-L6": "trace", "validate": "validate"}
UNITS = {"sweep": "grid points", "trace": "period values",
         "validate": "validation checks"}

SWEEP_H = (0.0, 0.25, 0.5, 1.0 / math.sqrt(2.0), 0.9)
SWEEP_ETA = (0.0, math.pi / 80, math.pi / 40, math.pi / 20, math.pi / 10)

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB"}

# Exercise/bypass self-test of the traced run: metrics that must be non-zero
# on the workload meant to exercise them, and zero where it bypasses them.
EXERCISED = {
    "sweep-L4": ["spectral.decompose_calls", "floquet.expm_calls",
                 "floquet.find_star_s", "xy.build_s", "xy.matrix_s",
                 "operators.sandwich_calls"],
    "trace-L8": ["xy.action_calls", "xy.adjoint_calls",
                 "experiments.expm_multiply_calls",
                 "experiments.applications_per_period"],
    "trace-secular-L6": ["xy.secular_build_s", "lindblad.action_calls",
                         "lindblad.adjoint_calls",
                         "experiments.expm_multiply_calls",
                         "experiments.applications_per_period"],
    "validate": ["models.build_s", "lindblad.matrix_calls",
                 "floquet.propagator_s", "floquet.susceptibility_s",
                 "floquet.refine_s", "floquet.disorder_s",
                 "spectral.decompose_calls", "operators.sandwich_calls"],
}
BYPASSED = {
    "sweep-L4": ["xy.action_calls", "xy.adjoint_calls",
                 "lindblad.action_calls", "lindblad.adjoint_calls",
                 "lindblad.matrix_calls", "experiments.expm_multiply_calls"],
    "trace-L8": ["spectral.decompose_calls", "floquet.expm_calls",
                 "lindblad.action_calls", "lindblad.adjoint_calls",
                 "lindblad.matrix_calls", "operators.sandwich_calls"],
    "trace-secular-L6": ["spectral.decompose_calls", "floquet.expm_calls",
                         "xy.action_calls", "xy.adjoint_calls",
                         "operators.sandwich_calls"],
    "validate": ["experiments.expm_multiply_calls", "xy.adjoint_calls"],
}

# Counted per sample and reported without failing it:
# - the sign of Im eps_star follows rounding, a known defect (ROADMAP 4(b));
# - stars outside the unit disc. The numeric dissipator is of Redfield form,
#   not of Lindblad form, so the kicked map is not a contraction and its
#   spectral radius exceeds 1 at many grid points; the oracle checks that
#   such a star is an eigenvalue of the map all the same.
REPORTED = ("sweep.star_im_sign_flips", "sweep.stars_outside_unit_disc")

# Agreement with the seed-0 reference: |a - b| <= ATOL + RTOL |b|.
ATOL, RTOL = 1e-8, 1e-6
# |Im eps_star| below this is rounding noise, not a side of a conjugate pair.
SIGN_FLOOR = 1e-9
MODULUS_SLACK = 1e-9
ORACLE_TIMEOUT_S = 120.0


class BenchError(RuntimeError):
    """The benchmark itself could not run."""


def make_config(workload: str, seed: int) -> dict:
    """ExperimentConfig keys for one workload, generated from the seed."""
    rng = random.Random(seed)

    def jitter(lo, hi):
        return rng.uniform(lo, hi) if seed else 0.0

    if workload == "sweep-L4":
        cfg = {"length": 4, "threads": 1}
        if seed:
            cfg["h_grid"] = [min(1.0, max(0.0, h + jitter(-0.005, 0.005)))
                             for h in SWEEP_H]
            cfg["eta_grid"] = [e + jitter(0.0, math.pi / 2000)
                               for e in SWEEP_ETA]
        return cfg
    if workload == "validate":
        return {"threads": 1}
    point = {"h": 0.9 + jitter(-0.005, 0.005),
             "eta": math.pi / 40 * (1.0 + jitter(-0.02, 0.02)),
             "initial_state": "gs_superposition", "threads": 1}
    if workload == "trace-L8":
        return {**point, "length": 8, "n_periods": 1}
    return {**point, "length": 6, "n_periods": 3,
            "dissipator_mode": "independent"}


def src_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit(root: Path):
    if not (root / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def run_sample(out: Path, index: int, mode: str, argv: list,
               seed: int) -> dict:
    """Start child.py once and return its record."""
    stem = out / f"{index:03d}-{mode}"
    record_path = Path(f"{stem}.json")
    spec = {"root": str(ROOT), "argv": argv + ["--out", f"{stem}.csv"],
            "mode": mode, "seed": seed, "record": str(record_path),
            "spans": f"{stem}-spans.json"}
    spec["spawned"] = perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"sample {index} exceeded {CHILD_TIMEOUT_S} s") \
            from exc
    if proc.returncode != 0 or not record_path.exists():
        raise BenchError(f"sample {index} ({mode}) exited with "
                         f"{proc.returncode}: {proc.stderr.strip()[-2000:]}")
    record = json.loads(record_path.read_text())
    record["mode"] = mode
    record["csv"] = f"{stem}.csv"
    return record


def _read_csv(path: str):
    with open(path, newline="") as fh:
        meta = json.loads(fh.readline()[1:])
        return meta, list(csv.DictReader(fh))


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= ATOL + RTOL * abs(b)


def _finite(*values) -> bool:
    return all(math.isfinite(v) for v in values)


def expected_units(command: str, cfg: dict, ref: dict) -> int:
    if command == "sweep":
        return (len(cfg.get("h_grid", SWEEP_H))
                * len(cfg.get("eta_grid", SWEEP_ETA)))
    if command == "trace":
        return cfg["n_periods"] + 1
    return len(ref["checks"])


def run_oracle(out: Path, cfg_path: Path) -> dict:
    """Start oracle.py once and return the spectra it writes.

    It runs after the timed samples, with one BLAS thread, which is about
    twice as fast on this dense work as the default.
    """
    spectra = out / "oracle.json"
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "oracle.py"), str(cfg_path),
             str(spectra)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=ORACLE_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"oracle exceeded {ORACLE_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not spectra.exists():
        raise BenchError(f"oracle exited with {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    oracle = json.loads(spectra.read_text())
    for point in oracle["points"]:
        point["w"] = [complex(a, b) for a, b in zip(point.pop("re"),
                                                   point.pop("im"))]
    return oracle


def _misses_oracle(row, re, im, dist, gap, oracle, k) -> bool:
    """Whether a grid point's star disagrees with the oracle's spectrum.

    The star must be an eigenvalue of the map (either one of its conjugate
    pair), as near the target as the nearest eigenvalue is, and the gap
    must follow from its modulus.
    """
    point = oracle["points"][k]
    if not (_close(float(row["h"]), point["h"])
            and _close(float(row["eta"]), point["eta"])):
        return True
    target = complex(math.cos(2 * math.pi / oracle["order"]),
                     math.sin(2 * math.pi / oracle["order"]))
    star = complex(re, im)
    match = min(point["w"], key=lambda w: min(abs(w - star),
                                              abs(w.conjugate() - star)))
    nearest = min(abs(w - target) for w in point["w"])
    return not (min(abs(match - star), abs(match.conjugate() - star))
                <= ATOL + RTOL * abs(match)
                and _close(dist, nearest)
                and _close(gap, max(0.0, -math.log(abs(match))
                                    / oracle["period"])))


def check_sweep(rows, expected, ref, oracle, out):
    """Fail each grid point with an error row, a non-finite value, a star
    that disagrees with the oracle, or a miss of the reference."""
    why = out["why"]
    why["missing row"] += max(0, expected - len(rows))
    for k, row in enumerate(rows[:expected]):
        gap, dist, re, im = (float(row[c]) for c in
                             ("floquet_gap", "tc_distance", "star_re",
                              "star_im"))
        if row["status"] != "ok" or not _finite(gap, dist, re, im):
            why["error or non-finite"] += 1
            continue
        if math.hypot(re, im) > 1.0 + MODULUS_SLACK:
            out["sweep.stars_outside_unit_disc"] += 1
        if _misses_oracle(row, re, im, dist, gap, oracle, k):
            why["misses oracle"] += 1
        elif ref is not None:
            r_gap, r_dist, r_re, r_im = ref["rows"][k]
            if abs(r_im) > SIGN_FLOOR and im * r_im < 0:
                out["sweep.star_im_sign_flips"] += 1
            if not (_close(gap, r_gap) and _close(dist, r_dist)
                    and _close(re, r_re) and _close(abs(im), abs(r_im))):
                why["misses reference"] += 1


def check_trace(rows, expected, ref, out):
    why = out["why"]
    why["missing row"] += max(0, expected - len(rows))
    for k, row in enumerate(rows[:expected]):
        mx = float(row["m_x"])
        if not _finite(mx):
            why["error or non-finite"] += 1
        elif abs(mx) > 1.0 + MODULUS_SLACK:
            why["|m_x| > 1"] += 1
        elif ref is not None and not _close(mx, ref["m_x"][k]):
            why["misses reference"] += 1


def check_validate(rows, meta, ref, out):
    names = {row["name"]: row for row in rows}
    failed = sum(1 for name in ref["checks"]
                 if name not in names or names[name]["passed"] != "1"
                 or not _finite(float(names[name]["value"])))
    if meta.get("failures", 0) != 0:
        failed = max(failed, 1)
    out["why"]["check failed"] += failed


def check_sample(workload: str, record: dict, run: dict, reference: dict,
                 seed: int) -> dict:
    """Units attempted and failed in one sample's output, failures by
    reason, and the REPORTED counts, which do not fail a unit."""
    command = COMMANDS[workload]
    cfg = run["config"]
    ref = reference[workload] if seed == 0 or command == "validate" else None
    expected = expected_units(command, cfg, ref)
    out = {"attempted": expected, "why": collections.Counter(),
           **dict.fromkeys(REPORTED, 0)}
    ok_exit = (0, 3) if command == "validate" else (0,)
    if record["exit_code"] not in ok_exit or not os.path.exists(record["csv"]):
        out["why"][f"exit code {record['exit_code']} or no CSV"] = expected
    else:
        meta, rows = _read_csv(record["csv"])
        if command == "sweep":
            check_sweep(rows, expected, ref, run["oracle"], out)
        elif command == "trace":
            check_trace(rows, expected, ref, out)
        else:
            check_validate(rows, meta, ref, out)
    out["failed"] = min(expected, sum(out["why"].values()))
    return out


def environment(seed: int, traced: bool, child_env: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        **child_env,
        "num_threads_env": {k: v for k, v in sorted(os.environ.items())
                            if k.endswith("_NUM_THREADS")},
        "git_commit": git_commit(ROOT),
        "src_sha256": src_digest(ROOT),
        "seed": seed,
        "traced": traced,
    }


def measure(workload: str, seed: int, seconds: float, traced: bool,
            out: Path) -> dict:
    """Run samples for about `seconds` and return the samples taken."""
    cfg = make_config(workload, seed)
    cfg_path = out / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    argv = [COMMANDS[workload], "--config", str(cfg_path)]
    # Untimed warm-up: compiles opentc's bytecode and fills the file cache
    # once, as an installed package would have.
    start = perf_counter()
    run_sample(out, 0, "setup", argv, seed)
    cost = {"setup": perf_counter() - start}
    modes = ("full", "traced") if traced else ("full",)
    samples, probe_s = [], 0.0
    begin = perf_counter()
    deadline = begin + seconds

    def sample(mode):
        start = perf_counter()
        samples.append(run_sample(out, len(samples) + 1, mode, argv, seed))
        took = perf_counter() - start
        cost[mode] = max(cost.get(mode, 0.0), took)
        return took

    timed = 0
    while True:
        sample(modes[timed % len(modes)])
        timed += 1
        # untraced runs: set-up-only samples after each full sample, until
        # they hold PROBE_SHARE of the time so far
        while (not traced and probe_s < PROBE_SHARE * (perf_counter() - begin)
               and perf_counter() + cost["setup"] <= deadline):
            probe_s += sample("setup")
        upcoming = modes[timed % len(modes)]
        if timed >= MIN_TIMED and perf_counter() + cost[upcoming] > deadline:
            break
    # the time left, too short for another full sample, goes to set-up-only
    # samples
    while not traced and perf_counter() + cost["setup"] <= deadline:
        sample("setup")
    oracle = run_oracle(out, cfg_path) if argv[0] == "sweep" else None
    return {"config": cfg, "samples": samples, "oracle": oracle}


def selftest(workload: str, layers: dict) -> list:
    """Violations of the exercise/bypass expectations."""
    bad = [f"{name} is 0 on {workload}, which exercises it"
           for name in EXERCISED[workload] if not layers[name] > 0]
    bad += [f"{name} is {layers[name]} on {workload}, which bypasses it"
            for name in BYPASSED[workload] if layers[name] != 0]
    return bad


def summarize(workload: str, seed: int, traced: bool, run: dict,
              reference: dict) -> dict:
    samples = run["samples"]
    timed = [s for s in samples if s["mode"] != "setup"]
    for s in timed:
        s["checked"] = check_sample(workload, s, run, reference, seed)
    checked = {key: [s["checked"][key] for s in timed]
               for key in timed[0]["checked"]}
    attempted, failed = sum(checked["attempted"]), sum(checked["failed"])
    reported = {key: max(checked[key]) for key in REPORTED}
    why = sum(checked["why"], collections.Counter())
    full = [s for s in timed if s["mode"] == "full"]
    summary = {
        "workload": workload, "command": COMMANDS[workload],
        "units": UNITS[COMMANDS[workload]], "attempted": attempted,
        "failed": failed, "failed_why": dict(why), "reported": reported,
        "samples": {m: sum(1 for s in samples if s["mode"] == m)
                    for m in ("full", "traced", "setup")},
        "setup_s": [s["setup_s"] for s in samples if s["mode"] != "traced"],
        "wall_s": [s["wall_s"] for s in full],
        "peak_rss_mb": [s["peak_rss_mb"] for s in full],
    }
    if traced:
        tr = [s for s in timed if s["mode"] == "traced"]
        layers = {name: statistics.median(s["layers"][name] for s in tr)
                  for name in tr[0]["layers"]}
        layers["trace.overhead_s"] = (
            statistics.median(s["wall_s"] for s in tr)
            - statistics.median(summary["wall_s"]))
        layers.update(reported)
        summary["layers"] = layers
        summary["selftest"] = selftest(workload, layers)
    return summary


def report(summary: dict, traced: bool) -> dict:
    """Print the human-readable lines and return the metrics object."""
    n = summary["samples"]
    print(f"workload {summary['workload']}: {n['full']} full, "
          f"{n['traced']} traced and {n['setup']} set-up-only samples")
    metrics = {}
    for name, unit in END_TO_END.items():
        values = summary[name]
        med = statistics.median(values)
        metrics[name] = {"value": med, "unit": unit}
        print(f"  {name:<12} {med:.6g} {unit}  (median of {len(values)}, "
              f"min {min(values):.6g}, max {max(values):.6g})")
    frac = summary["failed"] / summary["attempted"]
    print(f"  {'fail_frac':<12} {frac:.6g}  ({summary['failed']} of "
          f"{summary['attempted']} {summary['units']} failed)")
    for reason, count in summary["failed_why"].items():
        print(f"    {count} failed: {reason}")
    if summary["command"] == "sweep":
        for name, count in summary["reported"].items():
            print(f"  {name} {count}  (reported, not a failure)")
    if not traced:
        return metrics
    for name, value in summary["layers"].items():
        print(f"  {name:<40} {value:.6g}")
    return {name: {"value": value, "unit": unit_of(name)}
            for name, value in summary["layers"].items()}


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("gflops_computed"):
        return "GFLOP/s"
    if name.endswith("per_period"):
        return "count/period"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(COMMANDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    # SIGTERM becomes SystemExit, so subprocess.run kills and reaps the child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    traced = bool(args.trace)
    if not (ROOT / "src" / "opentc" / "cli.py").is_file():
        print(f"no opentc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    reference = json.loads((HERE / "reference.json").read_text())
    out = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    try:
        run = measure(args.workload, args.seed, args.seconds, traced, out)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    summary = summarize(args.workload, args.seed, traced, run, reference)
    env = environment(args.seed, traced, run["samples"][0]["env"])
    metrics = report(summary, traced)
    print("env " + json.dumps(env, sort_keys=True))
    (out / "result.json").write_text(json.dumps(
        {"env": env, "config": run["config"], "summary": summary,
         "samples": run["samples"]}, indent=1, default=str))
    if summary.get("selftest"):
        # the wrappers no longer reach the code they should measure, so the
        # per-layer metrics cannot be trusted
        print("self-test failed: " + "; ".join(summary["selftest"]),
              file=sys.stderr)
        return 2
    if traced:
        print("  self-test: ok")
    print(json.dumps({"correct": summary["failed"] == 0,
                      "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
