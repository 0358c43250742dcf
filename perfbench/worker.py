"""One workload in a fresh process: set up, run verified ops, write a record.

perfbench/run.py starts one of these per sample, so that start-up and peak
memory belong to this process alone:

    PYTHONPATH=src python perfbench/worker.py WORKLOAD --seed N --seconds S \
        --role {setup,timed,traced} --spawned T --record FILE --work DIR

`--spawned` is the parent's `perf_counter()` just before the spawn (the clock
is system-wide on Linux), so `setup_s` runs from process start to the first
timed op.  Roles: `setup` stops after the untimed warm-up op; `timed` then
runs ops for `--seconds`; `traced` runs ops untraced for half of that and
traced for the other half (cli-cold: one full command cycle each).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import cli_workload
from proc import spawn

# residuals where the smaller value is the worse one
LOWER_IS_WORSE = ("entropy.second_law_margin", "entropy.worst_violation")


def _worst(ops) -> dict:
    out = {}
    for op in ops:
        for key, val in op["resid"].items():
            pick = min if key in LOWER_IS_WORSE else max
            out[key] = pick(out[key], val) if key in out else val
    return out


def _summary(ops, wall) -> dict:
    return {"times": [op["s"] for op in ops if not op["failed"]],
            "attempted": len(ops), "failures": [op["failed"] for op in ops if op["failed"]],
            "wall_s": wall, "residuals": _worst(ops)}


def run_verified(op, check) -> dict:
    """Time one op through its checker: the time to a verified result."""
    t0 = perf_counter()
    try:
        resid, failed = check(op())
    except Exception as exc:  # an op that raises is a failed op, not a crash
        resid, failed = {}, [f"{type(exc).__name__}: {exc}"]
    return {"s": perf_counter() - t0, "resid": resid, "failed": failed}


def _loop(run_op, seconds) -> dict:
    """Closed loop, one client: the next op starts when the last is verified."""
    ops = []
    start = perf_counter()
    while not ops or perf_counter() - start < seconds:
        ops.append(run_op(len(ops)))
    return _summary(ops, perf_counter() - start)


# ---------------------------------------------------------------------------
# in-process workloads
# ---------------------------------------------------------------------------

def _in_process(args) -> dict:
    import arrowlab.cli  # noqa: F401  -- the whole library, as its user's first import
    import numpy as np

    import workloads

    make, check = workloads.IN_PROCESS[args.workload]
    w = make(np.random.default_rng(args.seed))

    def run_op(_):
        return run_verified(w.op, check)

    warm = run_op(None)
    rec = {"setup_s": perf_counter() - args.spawned, "warmup_failed": warm["failed"]}
    if args.role == "timed":
        rec.update(_loop(run_op, args.seconds))
    elif args.role == "traced":
        import tracing

        rec["untraced"] = _loop(run_op, args.seconds / 2)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            rec.update(_loop(lambda k: _traced(tracer, run_op, k), args.seconds / 2))
        finally:
            tracer.remove()
        rec["layers"] = tracing.layer_metrics(tracer.per_op())
        rec["spans"] = tracer.dump()
    rec["env"] = _env()
    return rec


def _traced(tracer, run_op, k):
    with tracer.op(k):
        return run_op(k)


# ---------------------------------------------------------------------------
# cli-cold
# ---------------------------------------------------------------------------

def _cli(args) -> dict:
    work = Path(args.work)
    cmds = cli_workload.cycle(args.seed, work / "config.txt")
    env = {k: v for k, v in os.environ.items() if k != "ARROWLAB_SEED"}

    def run_op(cmd, tag, traced=False):
        name, argv, artifacts = cmd
        out_dir = work / f"op{tag}"
        argv = [a.replace("{out}", str(out_dir)) for a in argv]
        flags = ["-X", "importtime"] if traced else []
        t0 = perf_counter()
        rc, rss = spawn([sys.executable, *flags, "-m", "arrowlab.cli", *argv],
                           work / "stdout", work / "stderr", env)
        t1 = perf_counter()
        stdout = (work / "stdout").read_text()
        failed = cli_workload.check_cli(name, rc, stdout, out_dir, artifacts)
        t2 = perf_counter()
        op = {"name": name, "start": t0, "end": t2, "s": t2 - t0, "check_s": t2 - t1,
              "rss_mb": rss, "resid": {}, "failed": failed,
              "bytes": cli_workload.artifact_bytes(out_dir) + len(stdout)}
        if traced:
            op["imports"] = cli_workload.import_times((work / "stderr").read_text())
        shutil.rmtree(out_dir, ignore_errors=True)
        return op

    warm = run_op(cmds[cli_workload.NAMES.index("boost")], "warm")
    rec = {"setup_s": perf_counter() - args.spawned, "warmup_failed": warm["failed"]}
    if args.role == "timed":
        # whole cycles only, so every run times the same mix of commands: as
        # many as come nearest to --seconds, and at least one
        ops = []
        start = perf_counter()
        while True:
            cycle_start = perf_counter()
            ops += [run_op(cmd, len(ops) + k) for k, cmd in enumerate(cmds)]
            now = perf_counter()
            if args.seconds - (now - start) < 0.5 * (now - cycle_start):
                break
        rec.update(_summary(ops, perf_counter() - start))
        rec["rss_mb"] = max(op["rss_mb"] for op in ops)
        rec["by_command"] = {n: [op["s"] for op in ops if op["name"] == n] for n in cli_workload.NAMES}
    elif args.role == "traced":
        plain = [run_op(cmd, f"u{k}") for k, cmd in enumerate(cmds)]
        start = perf_counter()
        traced = [run_op(cmd, f"t{k}", traced=True) for k, cmd in enumerate(cmds)]
        rec["untraced"] = _summary(plain, None)
        rec.update(_summary(traced, perf_counter() - start))
        rec["layers"] = _cli_layers(traced)
        rec["spans"] = [{"name": f"cli.{op['name']}", "start": op["start"], "end": op["end"],
                         "parent": None, "op": k, "counts": {"imports_s": op["imports"]}}
                        for k, op in enumerate(traced)]
    rec["env"] = _env()
    return rec


def _cli_layers(ops) -> dict:
    out = cli_workload.import_layers([op["imports"] for op in ops])
    out["cli.artifact_bytes"] = sum(op["bytes"] for op in ops)
    out["trace.check_self_s"] = statistics.median(op["check_s"] for op in ops)
    out["trace.layer_self_s"] = out["cli.import.total_s"]
    for op in ops:
        out[f"cli.{op['name']}_s"] = op["s"]
    return out


# ---------------------------------------------------------------------------
# environment stamp
# ---------------------------------------------------------------------------

def _env() -> dict:
    """Library versions, and the BLAS numpy uses with its effective thread count."""
    import platform
    from importlib import metadata

    import numpy

    env = {"python": platform.python_version(), "nproc": os.cpu_count()}
    for pkg in ("numpy", "scipy", "sympy"):
        try:
            env[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            env[pkg] = None
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env["blas"] = f"{blas['name']} {blas['version']}"
    env["blas_threads"] = _blas_threads()
    return env


def _blas_threads():
    """Ask the loaded OpenBLAS itself (threadpoolctl is not installed here)."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("workload")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--role", choices=("setup", "timed", "traced"), required=True)
    p.add_argument("--spawned", type=float, required=True)
    p.add_argument("--record", required=True)
    p.add_argument("--work", required=True)
    args = p.parse_args(argv)
    rec = _cli(args) if args.workload == "cli-cold" else _in_process(args)
    Path(args.record).write_text(json.dumps(rec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
