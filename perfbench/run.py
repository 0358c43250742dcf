"""arrowlab's benchmark: one workload per invocation, verified ops only.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: cli-cold, baker-second-law, friedrichs-two-path, exact-algebra (see
perfbench/README.md).  A single closed-loop client: every op runs after the
previous one is verified, and no threads are started here (BLAS keeps its
default thread count, recorded in the result).

`--trace 0` starts three fresh workload processes in turn: two that stop after
set-up and one that also runs ops for S seconds.  It reports the end-to-end
metrics named in BENCHMARK.json: `setup_s` is the median of the three set-ups.
`--trace 1` starts one process that runs ops untraced and then traced, and
reports the per-layer metrics plus the tracing overhead; its spans go to
perfbench/.work/trace-<workload>-<seed>.json.

The last line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}.  The line before it is the full record: environment stamp,
sample counts, tail percentile, residuals and failures.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from proc import spawn

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("cli-cold", "baker-second-law", "friedrichs-two-path", "exact-algebra")
SETUP_SAMPLES = 3


def tail(times):
    """(percentile, value): the highest whole percentile with at least ten ops
    beyond it, or the median when there are fewer than twenty ops."""
    n = len(times)
    pct = max(50, math.floor(100 - 1000 / n))
    if n < 2:
        return pct, times[0]
    return pct, statistics.quantiles(times, n=100, method="inclusive")[pct - 1]


def git_commit():
    if not (ROOT / ".git").exists():
        return None  # an exported checkout without git metadata
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def start_worker(args, role, work, tag, importtime=False):
    record = work / f"{tag}.json"
    env = {k: v for k, v in os.environ.items() if k != "ARROWLAB_SEED"}
    env["PYTHONPATH"] = str(ROOT / "src")
    flags = ["-X", "importtime"] if importtime else []
    argv = [sys.executable, *flags, str(ROOT / "perfbench" / "worker.py"), args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--role", role,
            "--spawned", repr(perf_counter()), "--record", str(record), "--work", str(work)]
    rc, rss = spawn(argv, work / f"{tag}.out", work / f"{tag}.err", env)
    stderr = (work / f"{tag}.err").read_text()
    if rc != 0:
        sys.stderr.write(stderr[-4000:])
        raise RuntimeError(f"{args.workload} worker ({role}) exited with {rc}")
    rec = json.loads(record.read_text())
    rec["rss_mb"] = rec.get("rss_mb", rss)  # cli-cold reports its largest CLI child
    rec["stderr"] = stderr
    return rec


def timed(args, work):
    setups = [start_worker(args, "setup", work, f"setup{k}") for k in range(SETUP_SAMPLES - 1)]
    main = start_worker(args, "timed", work, "timed")
    times = main["times"] or [0.0]  # no verified op: report zeros, correct is false
    pct, tail_s = tail(times)
    metrics = {"setup_s": statistics.median([r["setup_s"] for r in setups + [main]]),
               "op_p50_s": statistics.median(times),
               "op_tail_s": tail_s,
               "ops_per_s": len(main["times"]) / main["wall_s"],
               "peak_rss_mb": main["rss_mb"]}
    detail = {"n_ops": len(main["times"]), "tail_percentile": pct, "setup_samples": SETUP_SAMPLES,
              "setup_s_each": [r["setup_s"] for r in setups + [main]],
              "measured_s": main["wall_s"], "residuals": main["residuals"],
              "by_command": main.get("by_command")}
    return setups + [main], [main], metrics, detail


def traced(args, work):
    from cli_workload import import_layers, import_times

    main = start_worker(args, "traced", work, "traced", importtime=args.workload != "cli-cold")
    layers = dict(main["layers"])
    if args.workload != "cli-cold":
        layers.update(import_layers([import_times(main["stderr"])]))
    layers.update(main["residuals"])
    p50 = statistics.median(main["times"] or [0.0])
    layers["trace.op_p50_s"] = p50
    layers["trace.overhead_s"] = p50 - statistics.median(main["untraced"]["times"] or [0.0])
    spans = ROOT / "perfbench" / ".work" / f"trace-{args.workload}-{args.seed}.json"
    spans.write_text(json.dumps(main["spans"]))
    detail = {"n_ops": len(main["times"]), "n_ops_untraced": len(main["untraced"]["times"]),
              "spans_file": str(spans.relative_to(ROOT))}
    return [main], [main["untraced"], main], layers, detail


def run(workload, seed, seconds, trace):
    """One invocation's (record, result)."""
    args = argparse.Namespace(workload=workload, seed=seed, seconds=seconds)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    work = ROOT / "perfbench" / ".work" / f"{workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workers, phases, measured, detail = (traced if trace else timed)(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # every worker's warm-up op is verified too, so it counts as attempted
    attempted = len(workers) + sum(ph["attempted"] for ph in phases)
    failures = [w["warmup_failed"] for w in workers if w["warmup_failed"]]
    failures += [f for ph in phases for f in ph["failures"]]
    metrics = {m["name"]: {"value": measured.get(m["name"], 0), "unit": m["unit"]}
               for m in declared}
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "git_commit": git_commit(), "env": workers[-1]["env"],
              "attempted": attempted, "failed": len(failures),
              "error_rate": len(failures) / attempted, "failures": failures[:20], **detail}
    return record, {"correct": not failures, "attempted": attempted, "failed": len(failures),
                    "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), required=True,
                   help="'all': every workload, timed then traced, one line per metric")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "arrowlab" / "cli.py").is_file():
        print(f"perfbench: no arrowlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload != "all":
        record, result = run(args.workload, args.seed, args.seconds, args.trace)
        print(json.dumps({"record": record}))
        print(json.dumps(result))
        return 0
    correct = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            record, result = run(workload, args.seed, args.seconds, trace)
            correct = correct and result["correct"]
            rows = [(k, m["value"], m["unit"]) for k, m in result["metrics"].items()]
            rows.append(("error_rate", record["error_rate"], "ratio"))
            for name, value, unit in rows:
                print(f"{workload:20} {name:46} {value:<14.6g} {unit}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
