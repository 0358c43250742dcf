"""The cold-CLI workload: the README examples as fresh `python -m arrowlab.cli`
processes, and the checker for their exit codes, stdout and artifacts.

Standard library only: the process that drives the CLI children must not pay
for numpy itself.
"""

from __future__ import annotations

import csv
import json
import random
import statistics
from pathlib import Path

# (name, argv without --out, artifacts written under --out); `friedrichs` is
# left out: its 2000-mode run belongs to the friedrichs-two-path workload.
# Seeds come from the workload seed; `{out}` and `{config}` are filled per op.
_COMMANDS = (
    ("renyi-evolve", "renyi-evolve --level 10 --t 8 --seed {s} --out {out}",
     ("renyi_evolution.csv", "renyi_final_density.csv")),
    ("baker-evolve", "baker-evolve --level 6 --t 6 --seed {s} --out {out}",
     ("baker_evolution.csv",)),
    ("renyi-spectral", "renyi-spectral --beta 2 --nmax 8 --t 5 --out {out}",
     ("bernoulli_basis.csv", "spectral_evolution.csv", "spectral_report.json")),
    ("mixing-report", "mixing-report --map baker --level 8 --tmax 12 --out {out}",
     ("mixing_report.json",)),
    ("entropy-suite", "entropy-suite --n 8 --trials 500 --seed {s} --out {out}",
     ("entropy_suite.json",)),
    # options through --config; the file holds only keys not given as flags
    ("dephase", "--config {config} dephase --out {out}", ("dephase_cesaro.csv",)),
    ("lambda-lyapunov", "lambda-lyapunov --n 6 --t-max 50 --seed {s} --out {out}",
     ("lambda_lyapunov.csv",)),
    ("cosmo-gap", "cosmo-gap --omega1 1.5 --t0-temp 1 --gamma-t0 0.1 --out {out}",
     ("gap.csv", "roots.json")),
    ("boost", "boost --u 0.6", ()),
    ("verify-all", "verify all --seed {s}", ()),
)

NAMES = tuple(name for name, _, _ in _COMMANDS)


def cycle(seed: int, config: Path) -> list:
    """One pass over the commands: (name, argv template with `{out}`, artifacts)."""
    rng = random.Random(seed)
    config.write_text(f"n=6\ntmax=50\nseed={rng.randrange(1 << 16)}\n")
    out = []
    for name, template, artifacts in _COMMANDS:
        seed_arg = str(rng.randrange(1 << 16))
        argv = [tok.replace("{s}", seed_arg).replace("{config}", str(config))
                for tok in template.split()]
        out.append((name, argv, artifacts))
    return out


def _body(path: Path) -> list:
    lines = path.read_text().splitlines()
    if not lines or not lines[0].startswith("#"):
        raise ValueError(f"{path.name}: no config-echo header")
    return [ln for ln in lines if not ln.startswith("#")]


def _parse_csv(path: Path, body: list):
    if path.name.endswith("_density.csv"):
        # dims,base,level / values / cell_index,value / one row per cell
        dims, base, level = (int(x) for x in body[1].split(","))
        rows = [float(ln.split(",")[1]) for ln in body[3:]]
        if len(rows) != (base ** level) ** dims:
            raise ValueError(f"{path.name}: {len(rows)} cells")
        return
    rows = list(csv.reader(body))
    if len(rows) < 2 or any(len(r) != len(rows[0]) for r in rows):
        raise ValueError(f"{path.name}: ragged or empty table")
    for r in rows[1:]:
        float(r[0])


def check_cli(name: str, returncode: int, stdout: str, out_dir: Path, artifacts) -> list:
    """Failed checks for one CLI op (empty when the op is verified)."""
    if returncode != 0:
        return [f"{name}: exit {returncode}"]
    failed = []
    for art in artifacts:
        path = out_dir / art
        try:
            body = _body(path)
            if art.endswith(".json"):
                json.loads("\n".join(body))
            else:
                _parse_csv(path, body)
        except (OSError, ValueError, IndexError) as exc:
            failed.append(f"{name}: {exc}")
    if name == "boost":
        try:
            json.loads(stdout)["boosted"]
        except (ValueError, KeyError) as exc:
            failed.append(f"boost: {exc!r}")
    if name == "verify-all":
        try:
            suites = [json.loads(ln) for ln in stdout.splitlines() if ln.strip()]
        except ValueError as exc:
            suites = []
            failed.append(f"verify: {exc}")
        if len(suites) != 5 or not all(s.get("pass") is True for s in suites):
            failed.append(f"verify: {len(suites)} suites, not 5 passing")
    return failed


def artifact_bytes(out_dir: Path) -> int:
    return sum(p.stat().st_size for p in out_dir.iterdir()) if out_dir.exists() else 0


def import_times(stderr: str) -> dict:
    """Cumulative seconds per module from `python -X importtime` output, plus
    "total": every top-level import of the process (under `-m arrowlab.cli`
    the CLI module itself runs as __main__ and has no line of its own)."""
    out = {"total": 0.0}
    for ln in stderr.splitlines():
        if ln.startswith("import time:") and "|" in ln:
            _, cum, mod = ln[len("import time:"):].split("|")
            if cum.strip().isdigit():
                out[mod.strip()] = int(cum) * 1e-6
                if not mod[1:].startswith(" "):
                    out["total"] += int(cum) * 1e-6
    return out


def import_layers(samples) -> dict:
    """The `cli.import.*` metrics: medians over `import_times` samples."""
    med = lambda mod: statistics.median(sample.get(mod, 0.0) for sample in samples)
    return {"cli.import.total_s": med("total"),
            "cli.import.spectral_s": med("arrowlab.spectral"),
            "cli.import.friedrichs_s": med("arrowlab.friedrichs"),
            "cli.import.numpy_s": med("numpy")}
