"""One benchmark sample: a single `opentc` CLI command in a fresh process.

run.py starts this script once per sample and reads the JSON record it
writes. It is not meant to be run by hand; its one argument is a JSON spec:

    root      checkout root; `opentc` is imported from <root>/src
    argv      arguments for `opentc.cli.main`
    spawned   the parent's time.perf_counter() just before it started this
              process (CLOCK_MONOTONIC, so comparable across processes)
    mode      "full"   run the command, time runner entry and CSV written;
              "setup"  stop at runner entry (import and config-load probe);
              "traced" like "full", with a span around every public
                       function of every opentc module
    seed      seeds numpy's global RNG, which scipy's onenormest draws from,
              so operator-application counts repeat exactly for one seed
    record    path of the JSON record to write
    spans     path for the span list (traced mode only)

Spans are taken from outside, by wrapping functions after import: nothing
under src/ changes. A function is rebound under every name that refers to
it, in every opentc module and in module-level dicts such as the CLI's
runner table, because modules import functions by name.
"""

from __future__ import annotations

import ctypes
import dataclasses
import functools
import importlib
import inspect
import json
import os
import platform
import resource
import sys
from time import perf_counter

LAYERS = ("cli", "experiments", "xy", "lindblad", "floquet", "spectral",
          "models", "operators")

# Generator applications, in operator space, for both generator types.
_APPLICATIONS = ("xy.NumericGenerator.action",
                 "xy.NumericGenerator.adjoint_action",
                 "lindblad.liouvillian_action",
                 "lindblad.adjoint_liouvillian_action")


class _AtRunnerEntry(BaseException):
    """Raised in setup mode to leave cli.main once the runner is reached.

    A BaseException, so the CLI's numeric-failure handlers let it through.
    """


class Tracer:
    """Spans [name, start, end, parent index, info] kept in memory."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, info=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            span = [name, perf_counter(), None, stack[-1] if stack else -1,
                    None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if info is not None:
                span[4] = info(args, out)
            return out

        return spanned

    def first(self, name):
        return next((s for s in self.spans if s[0] == name), None)


def _decompose_info(args, out):
    return {"dim": int(args[0].shape[0]),
            "defective": int(out.defective.sum())
            if out.defective is not None else 0}


def _action_info(args, out):
    return {"dim": int(args[1].shape[0])}


_INFO = {"spectral.decompose": _decompose_info,
         "xy.NumericGenerator.action": _action_info}


def _rebind(modules, replaced):
    """Point every module global, and every value of a module-level dict,
    that refers to a replaced function at its wrapper."""
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in replaced:
                setattr(mod, attr, replaced[id(obj)])
            elif isinstance(obj, dict):
                for key, val in list(obj.items()):
                    if id(val) in replaced:
                        obj[key] = replaced[id(val)]


def install_all(tracer, modules):
    """Span every public function and public method of the layer modules,
    NumericGenerator-style constructors, and scipy's expm_multiply."""
    import scipy.sparse.linalg

    replaced = {}
    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) \
                    != mod.__name__:
                continue
            if inspect.isfunction(obj):
                name = f"{layer}.{attr}"
                replaced[id(obj)] = tracer.wrap(name, obj, _INFO.get(name))
            elif inspect.isclass(obj):
                for mname, meth in list(vars(obj).items()):
                    constructor = (mname == "__init__"
                                   and not dataclasses.is_dataclass(obj))
                    if inspect.isfunction(meth) and (
                            not mname.startswith("_") or constructor):
                        name = f"{layer}.{attr}.{mname}"
                        setattr(obj, mname,
                                tracer.wrap(name, meth, _INFO.get(name)))
    # experiments calls it as scipy.sparse.linalg.expm_multiply(...)
    scipy.sparse.linalg.expm_multiply = tracer.wrap(
        "experiments.expm_multiply", scipy.sparse.linalg.expm_multiply)
    import opentc
    _rebind([opentc, *modules.values()], replaced)


def install_minimal(tracer, modules, command):
    """Only the two spans that define wall_s: runner entry, CSV written."""
    cli, experiments = modules["cli"], modules["experiments"]
    cli._RUNNERS[command] = tracer.wrap(f"experiments.run_{command}",
                                        cli._RUNNERS[command])
    experiments.ResultTable.write = tracer.wrap(
        "experiments.ResultTable.write", experiments.ResultTable.write)


def install_setup_probe(tracer, modules, command):
    def at_entry(cfg):
        tracer.spans.append([f"experiments.run_{command}", perf_counter(),
                             None, -1, None])
        raise _AtRunnerEntry

    modules["cli"]._RUNNERS[command] = at_entry


def layer_metrics(spans) -> dict:
    """Per-layer metrics from one traced run's spans.

    A time sums the spans of the named functions that have no ancestor among
    the same names, so nested calls are not counted twice.
    """
    def ancestors(i):
        p = spans[i][3]
        while p >= 0:
            yield spans[p][0]
            p = spans[p][3]

    def picked(names):
        return [i for i, s in enumerate(spans) if s[0] in names]

    def seconds(*names):
        return sum(spans[i][2] - spans[i][1] for i in picked(names)
                   if not any(a in names for a in ancestors(i)))

    def calls(*names):
        return len(picked(names))

    child_time = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child_time[s[3]] += s[2] - s[1]

    def self_seconds(prefix):
        return sum(s[2] - s[1] - child_time[i] for i, s in enumerate(spans)
                   if s[0].startswith(prefix))

    decomposes = [spans[i][4] for i in picked({"spectral.decompose"})]
    actions = picked({"xy.NumericGenerator.action"})
    action_s = seconds("xy.NumericGenerator.action")
    # computed, not counted: 4 complex d x d matmuls = 4 * 8 d^3 real flops
    action_flops = sum(32 * spans[i][4]["dim"] ** 3 for i in actions)
    periods = calls("experiments.expm_multiply")
    in_stepper = sum(1 for i in picked(set(_APPLICATIONS))
                     if "experiments.expm_multiply" in ancestors(i))
    return {
        "spectral.decompose_s": seconds("spectral.decompose"),
        "spectral.decompose_calls": calls("spectral.decompose"),
        "spectral.decompose_dim_max": max((d["dim"] for d in decomposes),
                                          default=0),
        "spectral.defective_modes": sum(d["defective"] for d in decomposes),
        "floquet.expm_s": seconds("floquet.matrix_exp"),
        "floquet.expm_calls": calls("floquet.matrix_exp"),
        "floquet.find_star_s": seconds("floquet.find_star"),
        "floquet.propagator_s": seconds("floquet.floquet_propagator"),
        "floquet.susceptibility_s": seconds("floquet.susceptibility"),
        "floquet.refine_s": seconds("floquet.translation_refine"),
        "floquet.disorder_s": seconds("floquet.disorder_susceptibility"),
        "xy.build_s": seconds("xy.NumericGenerator.__init__"),
        "xy.matrix_s": seconds("xy.NumericGenerator.matrix"),
        "xy.action_calls": len(actions),
        "xy.action_s": action_s,
        "xy.adjoint_calls": calls("xy.NumericGenerator.adjoint_action"),
        "xy.adjoint_s": seconds("xy.NumericGenerator.adjoint_action"),
        "xy.action_gflops_computed": (action_flops / action_s / 1e9
                                      if action_s > 0 else 0.0),
        "xy.secular_build_s": seconds("xy.secular_liouvillian"),
        "lindblad.action_calls": calls("lindblad.liouvillian_action"),
        "lindblad.action_s": seconds("lindblad.liouvillian_action"),
        "lindblad.adjoint_calls": calls("lindblad.adjoint_liouvillian_action"),
        "lindblad.adjoint_s": seconds("lindblad.adjoint_liouvillian_action"),
        "lindblad.matrix_s": seconds("lindblad.liouvillian_matrix"),
        "lindblad.matrix_calls": calls("lindblad.liouvillian_matrix"),
        "models.build_s": seconds(*{s[0] for s in spans
                                    if s[0].startswith("models.")}),
        "operators.sandwich_calls": calls("operators.sandwich"),
        "operators.sandwich_s": seconds("operators.sandwich"),
        "experiments.expm_multiply_calls": periods,
        "experiments.expm_multiply_s": seconds("experiments.expm_multiply"),
        "experiments.applications_per_period": (in_stepper / periods
                                                if periods else 0.0),
        "experiments.write_s": seconds("experiments.ResultTable.write"),
        "experiments.self_s": self_seconds("experiments.run_"),
    }


def _openblas_runtime() -> list:
    """Config string and thread count of each OpenBLAS loaded in-process."""
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh
                        if "openblas" in line.lower() and "/" in line})
    out = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}",
                                  None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype = ctypes.c_int
                    config.restype = ctypes.c_char_p
                    entry["threads"] = threads()
                    entry["config"] = config().decode()
        out.append(entry)
    return out


def environment() -> dict:
    import numpy
    import scipy

    def blas(show_config):
        deps = show_config(mode="dicts")["Build Dependencies"]
        return {k: {f: deps[k].get(f) for f in
                    ("name", "version", "openblas configuration")}
                for k in ("blas", "lapack") if k in deps}

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_build": blas(numpy.show_config),
        "scipy_build": blas(scipy.show_config),
        "openblas_runtime": _openblas_runtime(),
    }


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = os.path.join(spec["root"], "src")
    sys.path.insert(0, src)
    import numpy as np

    modules = {name: importlib.import_module(f"opentc.{name}")
               for name in LAYERS}
    if not modules["cli"].__file__.startswith(src + os.sep):
        print(f"opentc was not imported from {src}", file=sys.stderr)
        return 4
    np.random.seed(spec["seed"])
    command = spec["argv"][0]
    tracer = Tracer()
    mode = spec["mode"]
    if mode == "traced":
        install_all(tracer, modules)
    elif mode == "full":
        install_minimal(tracer, modules, command)
    else:
        install_setup_probe(tracer, modules, command)
    try:
        exit_code = modules["cli"].main(spec["argv"])
    except _AtRunnerEntry:
        exit_code = 0
    runner = tracer.first(f"experiments.run_{command}")
    if runner is None:
        print("the CLI never reached its runner", file=sys.stderr)
        return 4
    record = {"exit_code": exit_code,
              "setup_s": runner[1] - spec["spawned"],
              "peak_rss_mb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "env": environment()}
    written = tracer.first("experiments.ResultTable.write")
    if written is not None:
        record["wall_s"] = written[2] - runner[1]
    if mode == "traced":
        record["layers"] = layer_metrics(tracer.spans)
        with open(spec["spans"], "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "info"],
                       "spans": tracer.spans}, fh)
    with open(spec["record"], "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
