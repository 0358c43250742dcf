"""Experiment runner: one subcommand per experiment, CSV/JSON artifacts with
config-echo headers, and `verify` suites for the theorem checks.

Each `cmd_*(args, rng)` computes and returns `(artifacts, checks)`: artifacts
map a file name to its body, in write order; checks map a failure message to a
bool written as `value <= bound`, so a NaN fails.  `main` alone resolves the
seed (ARROWLAB_SEED wins), builds the generator, writes and gates.

Exit codes: 0 success, 1 usage error (a NaN or infinite number included), 2
numerical-invariant failure or a library routine that did not converge.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import grids, maps, transfer, spectral, entropy, liouville, friedrichs, cosmo, table

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _finite(text: str) -> float:
    """argparse type for every float option: NaN and +-inf are usage errors."""
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return x


def _header(args) -> str:
    return "".join(f"# {k}={v}\n" for k, v in sorted(vars(args).items())
                   if k != "func" and v is not None)


def _random_state(rng, n: int) -> np.ndarray:
    """A random n x n Hermitian density matrix of unit trace."""
    r = rng.random((n, n)) + 1j * rng.random((n, n))
    rho = r + r.conj().T
    return rho / np.trace(rho).real


def _load_config(path: str) -> dict:
    cfg = {}
    for ln in Path(path).read_text().splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        if "=" not in ln:
            raise ValueError(f"bad config line: {ln!r}")
        k, v = ln.split("=", 1)
        cfg[k.strip()] = v.strip()
    return cfg


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def cmd_renyi_evolve(args, rng):
    n = args.beta ** args.level
    x = (np.arange(n) + 0.5) / n
    v = rng.random(n) + 0.2 if args.density == "random" else 1.0 + 0.8 * (x - 0.5)
    cur = grids.Density(args.beta, v)
    rows = []
    for t in range(args.t + 1):
        rows.append((t, cur.cell_mean(lambda v: np.abs(v - 1)), grids.l1_norm(cur)))
        if t < args.t:
            cur = transfer.fp_renyi(cur)
    return {"renyi_evolution.csv": table.to_csv("t,l1_dev_from_uniform,l1_norm", rows),
            "renyi_final_density.csv": grids.density_to_csv(cur)}, {}


def cmd_baker_evolve(args, rng):
    n = args.beta ** args.level
    cur = grids.Density(args.beta, rng.random((n, n)) + 0.2)
    probe = np.tile(np.arange(n) < n // 2, (n, 1)).astype(float)
    rows = []
    for t in range(args.t + 1):
        rows.append((t, grids.l1_norm(cur), math.sqrt(cur.cell_mean(np.square)),
                     abs(grids.weak_pairing(cur, probe) - probe.mean())))
        if t < args.t:
            cur = transfer.fp_baker(cur)
    return {"baker_evolution.csv": table.to_csv("t,l1_norm,l2_norm,weak_dev", rows)}, {}


def cmd_renyi_spectral(args, rng):
    # evolve a polynomial and log its basis coefficients per step
    p = spectral.reconstruct([Fraction(1)] + [Fraction(1, k + 1)
                                              for k in range(args.nmax)])
    rows = [(t, *spectral.expand(spectral.evolve_spectral(p, args.beta, t), n_max=args.nmax))
            for t in range(args.t + 1)]
    gram = spectral.biorthonormality_matrix(args.nmax)
    report = {"max_gram_error": float(np.abs(gram - np.eye(args.nmax + 1)).max()),
              "decay_rate": 1.0 / args.beta}
    header = "t," + ",".join(f"c{n}" for n in range(args.nmax + 1))
    return ({"bernoulli_basis.csv": spectral.basis_table(args.nmax),
             "spectral_evolution.csv": table.to_csv(header, rows),
             "spectral_report.json": json.dumps(report) + "\n"},
            {"biorthonormality gram error": report["max_gram_error"] <= 1e-10})


def cmd_mixing_report(args, rng):
    spec = maps.MapSpec(args.map, args.beta)
    n = args.beta ** args.level
    if args.map == "renyi":
        d = grids.Density(args.beta, rng.random(n) + 0.2)
        probes = [np.where(np.arange(n) < n // 2, 1.0, 0.0),
                  (np.arange(n) + 0.5) / n]
    else:
        d = grids.Density(args.beta, rng.random((n, n)) + 0.2)
        probes = [np.eye(args.beta, 1)]  # the indicator of the first x-cell
    rep = transfer.convergence_report(spec, d, probes, args.tmax)
    return {"mixing_report.json": json.dumps(rep, indent=1) + "\n"}, {}


def cmd_entropy_suite(args, rng):
    m = rng.random((args.n, args.n)) + 0.05
    m /= m.sum(axis=0)
    res = entropy.voigt_monotonicity_suite(grids.StochasticKernel(m),
                                           trials=args.trials, seed=args.seed)
    report = {"theorem": "conditional-entropy monotonicity",
              "trials": res["trials"],
              "worst_violation": res["worst_violation"],
              "pass": res["pass"]}
    return ({"entropy_suite.json": json.dumps(report) + "\n"},
            {"conditional-entropy monotonicity violated": res["pass"]})


def cmd_dephase(args, rng):
    w = np.sort(rng.random(args.n)) * args.n
    rho0 = _random_state(rng, args.n)
    obs = rng.random((args.n, args.n))
    obs = obs + obs.T
    star = liouville.expectation(liouville.diagonal_part(rho0), obs).real
    rows = []
    for big_t in np.linspace(args.tmax / 10, args.tmax, 10):
        avg = liouville.dephase_cesaro(rho0, w, obs, big_t).real
        rows.append((big_t, avg, star, abs(avg - star)))
    return {"dephase_cesaro.csv": table.to_csv("T,time_avg,diag_value,abs_dev", rows)}, {}


def cmd_friedrichs(args, rng):
    if args.n_times < 1:
        raise ValueError("--n-times must be at least 1")
    model = friedrichs.FriedrichsModel(omega1=args.omega1, lam=args.lam)
    t = np.linspace(0.0, args.t_max, args.n_times)
    rep = friedrichs.survival_probability(model, t, n_modes=args.n_modes)
    unflagged = ~rep["flagged"]
    diff = np.abs(rep["p_oracle"][unflagged] - rep["p_quadrature"][unflagged])
    return ({"survival.csv": friedrichs.survival_to_csv(rep),
             "pole.json": friedrichs.pole_to_json(rep["pole"], model) + "\n"},
            {"two-path survival disagreement": diff.max() <= 1e-3})


def cmd_lambda_lyapunov(args, rng):
    z = rng.random(args.n) * 3 - 0.5j * rng.random(args.n)
    rho = _random_state(rng, args.n)
    t = np.linspace(0, args.t_max, 200)
    y = friedrichs.lambda_lyapunov(z, rho, t)
    return ({"lambda_lyapunov.csv": table.to_csv("t,Y", zip(t, y))},
            {"Lyapunov functional increased": np.diff(y).max() <= 1e-12})


def cmd_cosmo_gap(args, rng):
    params = cosmo.CosmoParams(t0=1.0, temp0=args.t0_temp, omega1=args.omega1,
                               gamma=args.gamma_t0)
    t_grid = np.geomspace(0.01, 1e4, 200)
    roots = cosmo.critical_times(params)
    return ({"gap.csv": cosmo.gap_to_csv(params, t_grid),
             "roots.json": cosmo.roots_to_json(params) + "\n"},
            {"critical-time root residual": max(roots.get("residuals", [0.0])) <= 1e-10})


def cmd_boost(args, rng):
    state = cosmo.ThermoState(v=args.v, p=args.p, e=args.e, q=args.q,
                              s=args.s, t=args.temp)
    b = cosmo.boost_thermo(state, args.u)
    out = json.dumps({"u": args.u,
                      "boosted": {"v": b.v, "p": b.p, "e": b.e, "q": b.q,
                                  "s": b.s, "t": b.t}})
    if args.out:
        return {"boost.json": out + "\n"}, {}
    print(out)
    return {}, {}


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------

def _suite_voigt(seed):
    rng = np.random.default_rng(seed)
    worst = np.inf
    for _ in range(20):
        m = rng.random((8, 8)) + 0.02
        m /= m.sum(axis=0)
        res = entropy.voigt_monotonicity_suite(grids.StochasticKernel(m),
                                               trials=50, seed=int(rng.integers(1 << 31)))
        worst = min(worst, res["worst_violation"])
    return {"suite": "voigt", "worst_violation": float(worst),
            "pass": bool(worst >= -1e-10)}


def _suite_superop(seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(20):
        a, b, c, d = (rng.random((4, 4)) + 1j * rng.random((4, 4))
                      for _ in range(4))
        ab = liouville.super_product(a, b)
        cd = liouville.super_product(c, d)
        for lhs, rhs in ((liouville.super_compose(ab, cd), liouville.super_product(a @ c, d @ b)),
                         (liouville.super_associated(ab),
                          liouville.super_product(b.conj().T, a.conj().T)),
                         (liouville.super_transpose(liouville.super_associated(ab)),
                          liouville.super_adjoint(ab))):
            worst = max(worst, float(np.abs(lhs - rhs).max()))
    return {"suite": "superop", "worst_violation": worst,
            "pass": bool(worst < 1e-12)}


def _suite_mixing(seed):
    rng = np.random.default_rng(seed)
    n = 2 ** 10
    x = (np.arange(n) + 0.5) / n
    c = 0.2 + 0.6 * rng.random()
    d = grids.Density(2, 1.0 + c * (x - 0.5), normalize=False)
    rep = transfer.convergence_report(maps.MapSpec("renyi", 2), d,
                                      [np.where(np.arange(n) < n // 2, 1.0, 0.0)], 8)
    ok = rep["strong"]["verdict"] and rep["weak"]["verdict"]
    return {"suite": "mixing", "strong_rate": rep["strong"]["rate"],
            "pass": bool(ok)}


def _suite_exactness(seed):
    spec = maps.MapSpec("renyi", 2)
    worst = 0.0
    for level in (4, 6, 8):
        for lo, hi in ((0, 1), (3, 5), (1, 4)):
            a = grids.interval_set(2, level, lo, hi)
            mu = a.volume()
            for t in range(11):
                got = transfer.image_measure(spec, a, t)
                worst = max(worst, abs(got - min(1.0, 2 ** t * mu)))
    return {"suite": "exactness", "worst_violation": worst,
            "pass": bool(worst == 0.0)}


def _suite_lyapunov(seed):
    rng = np.random.default_rng(seed)
    worst = -np.inf
    for _ in range(50):
        n = int(rng.integers(2, 6))
        z = rng.random(n) * 3 - 0.5j * rng.random(n)
        r = rng.random((n, n)) + 1j * rng.random((n, n))
        t = np.linspace(0, 20, 50)
        y = friedrichs.lambda_lyapunov(z, r + r.conj().T, t)
        worst = max(worst, float(np.diff(y).max()))
    return {"suite": "lyapunov", "worst_increase": worst,
            "pass": bool(worst <= 1e-12)}


SUITES = {"voigt": _suite_voigt, "superop": _suite_superop,
          "mixing": _suite_mixing, "exactness": _suite_exactness,
          "lyapunov": _suite_lyapunov}


def cmd_verify(args, rng):
    names = list(SUITES) if args.suite == "all" else [args.suite]
    checks = {}
    for name in names:
        rep = SUITES[name](args.seed)
        print(json.dumps(rep))
        checks[f"{name} suite"] = rep["pass"]
    return {}, checks


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    p = _Parser(prog="arrowlab")
    p.add_argument("--config", help="optional key=value config file")
    sub = p.add_subparsers(dest="command", required=True)
    p.commands = sub.choices

    def command(name, func, out="required"):
        """A subcommand taking `--seed`, and `--out` unless out is None."""
        sp = sub.add_parser(name)
        sp.set_defaults(func=func)
        sp.add_argument("--seed", type=int, default=0)
        if out:
            sp.add_argument("--out", required=out == "required")
        return sp

    sp = command("renyi-evolve", cmd_renyi_evolve)
    sp.add_argument("--beta", type=int, default=2)
    sp.add_argument("--level", type=int, default=10)
    sp.add_argument("--t", type=int, default=8)
    sp.add_argument("--density", choices=("random", "linear"), default="random")

    sp = command("baker-evolve", cmd_baker_evolve)
    sp.add_argument("--beta", type=int, default=2)
    sp.add_argument("--level", type=int, default=4)
    sp.add_argument("--t", type=int, default=8)

    sp = command("renyi-spectral", cmd_renyi_spectral)
    sp.add_argument("--beta", type=int, default=2)
    sp.add_argument("--nmax", type=int, default=8)
    sp.add_argument("--t", type=int, default=10)

    sp = command("mixing-report", cmd_mixing_report)
    sp.add_argument("--map", choices=("renyi", "baker"), default="renyi")
    sp.add_argument("--beta", type=int, default=2)
    sp.add_argument("--level", type=int, default=8)
    sp.add_argument("--tmax", type=int, default=8)

    sp = command("entropy-suite", cmd_entropy_suite)
    sp.add_argument("--n", type=int, default=8)
    sp.add_argument("--trials", type=int, default=500)

    sp = command("dephase", cmd_dephase)
    sp.add_argument("--n", type=int, default=6)
    sp.add_argument("--tmax", type=_finite, default=200.0)

    sp = command("friedrichs", cmd_friedrichs)
    sp.add_argument("--omega1", type=_finite, default=1.0)
    sp.add_argument("--lambda", dest="lam", type=_finite, default=0.1)
    sp.add_argument("--n-modes", type=int, default=2000)
    sp.add_argument("--t-max", type=_finite, default=400.0)
    sp.add_argument("--n-times", type=int, default=201)

    sp = command("lambda-lyapunov", cmd_lambda_lyapunov)
    sp.add_argument("--n", type=int, default=4)
    sp.add_argument("--t-max", type=_finite, default=50.0)

    sp = command("cosmo-gap", cmd_cosmo_gap)
    sp.add_argument("--omega1", type=_finite, default=1.5)
    sp.add_argument("--t0-temp", type=_finite, default=1.0)
    sp.add_argument("--gamma-t0", type=_finite, default=0.1)

    sp = command("boost", cmd_boost, out="optional")
    sp.add_argument("--u", type=_finite, required=True)
    for name, default in (("--v", 1.0), ("--p", 1.0), ("--e", 1.0), ("--q", 0.0),
                          ("--s", 1.0), ("--temp", 1.0)):
        sp.add_argument(name, type=_finite, default=default)

    sp = command("verify", cmd_verify, out=None)
    sp.add_argument("suite", choices=tuple(SUITES) + ("all",))
    return p


def _apply_config(parser: _Parser, command: str, path: str):
    """Make the config file's values the defaults of the subcommand's options.

    Keys are option dests (`lam`, `n_modes`); command-line flags still win
    because the caller parses again.  Raises ValueError on a bad file, a key
    the subcommand does not declare, or a value outside an option's choices.
    """
    sub = parser.commands[command]
    declared = {a.dest: a for a in sub._actions if a.option_strings and a.dest != "help"}
    cfg = _load_config(path)
    for key, val in cfg.items():
        action = declared.get(key)
        if action is None:
            raise ValueError(f"unknown config key {key!r}")
        if action.choices is not None and val not in action.choices:
            raise ValueError(f"config key {key!r} must be one of {', '.join(action.choices)}")
    # argparse converts string defaults with the option's type
    sub.set_defaults(**cfg)


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(argv)
    if args.config:
        try:
            _apply_config(parser, args.command, args.config)
        except (OSError, ValueError) as exc:
            print(f"arrowlab: bad config: {exc}", file=sys.stderr)
            return EXIT_USAGE
        args = parser.parse_args(argv)
    try:
        args.seed = int(os.environ.get("ARROWLAB_SEED", args.seed))
        artifacts, checks = args.func(args, np.random.default_rng(args.seed))
        for name, body in artifacts.items():
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            (out / name).write_text(_header(args) + body)
            print(f"wrote {out / name}")
    except RuntimeError as exc:  # a library routine that did not converge
        print(f"arrowlab: numerical invariant failed: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError) as exc:
        print(f"arrowlab: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    failed = [msg for msg, ok in checks.items() if not ok]
    if failed:
        print(f"arrowlab: numerical invariant failed: {failed[0]}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
