"""Experiment runner: one subcommand per experiment, CSV/JSON artifacts with
config-echo headers, and `verify` suites for the theorem checks.

Exit codes: 0 success, 1 usage error, 2 numerical-invariant failure.
ARROWLAB_SEED overrides any configured seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import grids, maps, transfer, spectral, entropy, liouville, friedrichs, cosmo

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class NumericalFailure(RuntimeError):
    pass


def _seed(args) -> int:
    env = os.environ.get("ARROWLAB_SEED")
    return int(env) if env is not None else int(args.seed)


def _header(args, seed: int) -> str:
    items = {k: v for k, v in sorted(vars(args).items())
             if k not in ("func",) and v is not None}
    items["seed"] = seed
    return "".join(f"# {k}={v}\n" for k, v in items.items())


def _write(args, seed, name: str, body: str):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / name).write_text(_header(args, seed) + body)
    print(f"wrote {out / name}")


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

def cmd_renyi_evolve(args):
    seed = _seed(args)
    rng = np.random.default_rng(seed)
    n = args.beta ** args.level
    x = (np.arange(n) + 0.5) / n
    if args.density == "random":
        v = rng.random(n) + 0.2
    else:
        v = 1.0 + 0.8 * (x - 0.5)
    d = grids.Density(args.beta, v)
    lines = ["t,l1_dev_from_uniform,l1_norm"]
    cur = d
    for t in range(args.t + 1):
        lines.append(f"{t},{float(np.abs(cur.values - 1).mean())!r},{grids.l1_norm(cur)!r}")
        if t < args.t:
            cur = transfer.fp_renyi(cur)
    _write(args, seed, "renyi_evolution.csv", "\n".join(lines) + "\n")
    _write(args, seed, "renyi_final_density.csv", grids.density_to_csv(cur))
    return EXIT_OK


def cmd_baker_evolve(args):
    seed = _seed(args)
    rng = np.random.default_rng(seed)
    n = args.beta ** args.level
    d = grids.Density(args.beta, rng.random((n, n)) + 0.2)
    probe = np.tile(np.arange(n) < n // 2, (n, 1)).astype(float)
    lines = ["t,l1_norm,l2_norm,weak_dev"]
    cur = d
    for t in range(args.t + 1):
        l1 = grids.l1_norm(cur)
        l2 = float(np.sqrt((cur.values ** 2).mean()))
        wd = float(abs(transfer.weak_pairing(cur, probe) - probe.mean()))
        lines.append(f"{t},{l1!r},{l2!r},{wd!r}")
        if t < args.t:
            cur = transfer.fp_baker(cur)
    _write(args, seed, "baker_evolution.csv", "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_renyi_spectral(args):
    seed = _seed(args)
    _write(args, seed, "bernoulli_basis.csv", spectral.basis_table(args.nmax))
    # evolve a polynomial and log its basis coefficients per step
    from fractions import Fraction

    p = spectral.reconstruct([Fraction(1)] + [Fraction(1, k + 1)
                                              for k in range(args.nmax)])
    lines = ["t," + ",".join(f"c{n}" for n in range(args.nmax + 1))]
    for t in range(args.t + 1):
        cs = spectral.expand(spectral.evolve_spectral(p, args.beta, t),
                             n_max=args.nmax)
        lines.append(f"{t}," + ",".join(repr(float(c)) for c in cs))
    _write(args, seed, "spectral_evolution.csv", "\n".join(lines) + "\n")
    gram = spectral.biorthonormality_matrix(args.nmax)
    report = {"max_gram_error": float(np.abs(gram - np.eye(args.nmax + 1)).max()),
              "decay_rate": 1.0 / args.beta}
    _write(args, seed, "spectral_report.json", json.dumps(report) + "\n")
    if report["max_gram_error"] > 1e-10:
        raise NumericalFailure("biorthonormality gram error")
    return EXIT_OK


def cmd_mixing_report(args):
    seed = _seed(args)
    rng = np.random.default_rng(seed)
    spec = maps.MapSpec(args.map, args.beta)
    n = args.beta ** args.level
    if args.map == "renyi":
        d = grids.Density(args.beta, rng.random(n) + 0.2)
        probes = [np.where(np.arange(n) < n // 2, 1.0, 0.0),
                  (np.arange(n) + 0.5) / n]
    else:
        d = grids.Density(args.beta, rng.random((n, n)) + 0.2)
        probe = np.zeros((args.beta, 1))
        probe[0, 0] = 1.0
        probes = [probe]
    rep = transfer.convergence_report(spec, d, probes, args.tmax)
    _write(args, seed, "mixing_report.json", json.dumps(rep, indent=1) + "\n")
    return EXIT_OK


def cmd_entropy_suite(args):
    seed = _seed(args)
    rng = np.random.default_rng(seed)
    m = rng.random((args.n, args.n)) + 0.05
    m /= m.sum(axis=0)
    res = entropy.voigt_monotonicity_suite(grids.StochasticKernel(m),
                                           trials=args.trials, seed=seed)
    report = {"theorem": "conditional-entropy monotonicity",
              "trials": res["trials"],
              "worst_violation": res["worst_violation"],
              "pass": res["pass"]}
    _write(args, seed, "entropy_suite.json", json.dumps(report) + "\n")
    if not res["pass"]:
        raise NumericalFailure("conditional-entropy monotonicity violated")
    return EXIT_OK


def cmd_dephase(args):
    seed = _seed(args)
    rng = np.random.default_rng(seed)
    w = np.sort(rng.random(args.n)) * args.n
    r = rng.random((args.n, args.n)) + 1j * rng.random((args.n, args.n))
    rho0 = r + r.conj().T
    rho0 /= np.trace(rho0).real
    obs = rng.random((args.n, args.n))
    obs = obs + obs.T
    star = liouville.expectation(liouville.diagonal_part(rho0), obs).real
    lines = ["T,time_avg,diag_value,abs_dev"]
    for big_t in np.linspace(args.tmax / 10, args.tmax, 10):
        avg = liouville.dephase_cesaro(rho0, w, obs, big_t).real
        lines.append(f"{float(big_t)!r},{avg!r},{star!r},{abs(avg - star)!r}")
    _write(args, seed, "dephase_cesaro.csv", "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_friedrichs(args):
    if args.n_times < 1:
        raise ValueError("--n-times must be at least 1")
    seed = _seed(args)
    model = friedrichs.FriedrichsModel(omega1=args.omega1, lam=args.lam)
    t = np.linspace(0.0, args.t_max, args.n_times)
    rep = friedrichs.survival_probability(model, t, n_modes=args.n_modes)
    _write(args, seed, "survival.csv", friedrichs.survival_to_csv(rep))
    pole = rep["pole"]
    _write(args, seed, "pole.json", friedrichs.pole_to_json(pole, model) + "\n")
    unflagged = ~rep["flagged"]
    diff = np.abs(rep["p_oracle"][unflagged] - rep["p_quadrature"][unflagged])
    if diff.max() > 1e-3:
        raise NumericalFailure("two-path survival disagreement")
    return EXIT_OK


def cmd_lambda_lyapunov(args):
    seed = _seed(args)
    rng = np.random.default_rng(seed)
    z = rng.random(args.n) * 3 - 0.5j * rng.random(args.n)
    r = rng.random((args.n, args.n)) + 1j * rng.random((args.n, args.n))
    rho = r + r.conj().T
    rho /= np.trace(rho).real
    t = np.linspace(0, args.t_max, 200)
    y = friedrichs.lambda_lyapunov(z, rho, t)
    lines = ["t,Y"] + [f"{float(tt)!r},{float(yy)!r}" for tt, yy in zip(t, y)]
    _write(args, seed, "lambda_lyapunov.csv", "\n".join(lines) + "\n")
    if np.any(np.diff(y) > 1e-12):
        raise NumericalFailure("Lyapunov functional increased")
    return EXIT_OK


def cmd_cosmo_gap(args):
    seed = _seed(args)
    params = cosmo.CosmoParams(t0=1.0, temp0=args.t0_temp, omega1=args.omega1,
                               gamma=args.gamma_t0)
    t_grid = np.geomspace(0.01, 1e4, 200)
    _write(args, seed, "gap.csv", cosmo.gap_to_csv(params, t_grid))
    _write(args, seed, "roots.json", cosmo.roots_to_json(params) + "\n")
    roots = cosmo.critical_times(params)
    if roots["times"] and max(roots["residuals"]) > 1e-10:
        raise NumericalFailure("critical-time root residual")
    return EXIT_OK


def cmd_boost(args):
    seed = _seed(args)
    state = cosmo.ThermoState(v=args.v, p=args.p, e=args.e, q=args.q,
                              s=args.s, t=args.temp)
    b = cosmo.boost_thermo(state, args.u)
    out = {"u": args.u,
           "boosted": {"v": b.v, "p": b.p, "e": b.e, "q": b.q,
                       "s": b.s, "t": b.t}}
    if args.out:
        _write(args, seed, "boost.json", json.dumps(out) + "\n")
    else:
        print(json.dumps(out))
    return EXIT_OK


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
        worst = max(worst, float(np.abs(
            liouville.super_compose(ab, cd)
            - liouville.super_product(a @ c, d @ b)).max()))
        worst = max(worst, float(np.abs(
            liouville.super_associated(ab)
            - liouville.super_product(b.conj().T, a.conj().T)).max()))
        worst = max(worst, float(np.abs(
            liouville.super_transpose(liouville.super_associated(ab))
            - liouville.super_adjoint(ab)).max()))
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


def cmd_verify(args):
    seed = _seed(args)
    names = list(SUITES) if args.suite == "all" else [args.suite]
    ok = True
    for name in names:
        rep = SUITES[name](seed)
        print(json.dumps(rep))
        ok = ok and rep["pass"]
    return EXIT_OK if ok else EXIT_NUMERIC


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    p = _Parser(prog="arrowlab")
    p.add_argument("--config", help="optional key=value config file")
    sub = p.add_subparsers(dest="command", required=True)
    p.commands = sub.choices

    def common(sp):
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", required=True)

    sp = sub.add_parser("renyi-evolve")
    sp.add_argument("--beta", type=int, default=2)
    sp.add_argument("--level", type=int, default=10)
    sp.add_argument("--t", type=int, default=8)
    sp.add_argument("--density", choices=("random", "linear"), default="random")
    common(sp)
    sp.set_defaults(func=cmd_renyi_evolve)

    sp = sub.add_parser("baker-evolve")
    sp.add_argument("--beta", type=int, default=2)
    sp.add_argument("--level", type=int, default=4)
    sp.add_argument("--t", type=int, default=8)
    common(sp)
    sp.set_defaults(func=cmd_baker_evolve)

    sp = sub.add_parser("renyi-spectral")
    sp.add_argument("--beta", type=int, default=2)
    sp.add_argument("--nmax", type=int, default=8)
    sp.add_argument("--t", type=int, default=10)
    common(sp)
    sp.set_defaults(func=cmd_renyi_spectral)

    sp = sub.add_parser("mixing-report")
    sp.add_argument("--map", choices=("renyi", "baker"), default="renyi")
    sp.add_argument("--beta", type=int, default=2)
    sp.add_argument("--level", type=int, default=8)
    sp.add_argument("--tmax", type=int, default=8)
    common(sp)
    sp.set_defaults(func=cmd_mixing_report)

    sp = sub.add_parser("entropy-suite")
    sp.add_argument("--n", type=int, default=8)
    sp.add_argument("--trials", type=int, default=500)
    common(sp)
    sp.set_defaults(func=cmd_entropy_suite)

    sp = sub.add_parser("dephase")
    sp.add_argument("--n", type=int, default=6)
    sp.add_argument("--tmax", type=float, default=200.0)
    common(sp)
    sp.set_defaults(func=cmd_dephase)

    sp = sub.add_parser("friedrichs")
    sp.add_argument("--omega1", type=float, default=1.0)
    sp.add_argument("--lambda", dest="lam", type=float, default=0.1)
    sp.add_argument("--n-modes", type=int, default=2000)
    sp.add_argument("--t-max", type=float, default=400.0)
    sp.add_argument("--n-times", type=int, default=201)
    common(sp)
    sp.set_defaults(func=cmd_friedrichs)

    sp = sub.add_parser("lambda-lyapunov")
    sp.add_argument("--n", type=int, default=4)
    sp.add_argument("--t-max", type=float, default=50.0)
    common(sp)
    sp.set_defaults(func=cmd_lambda_lyapunov)

    sp = sub.add_parser("cosmo-gap")
    sp.add_argument("--omega1", type=float, default=1.5)
    sp.add_argument("--t0-temp", type=float, default=1.0)
    sp.add_argument("--gamma-t0", type=float, default=0.1)
    common(sp)
    sp.set_defaults(func=cmd_cosmo_gap)

    sp = sub.add_parser("boost")
    sp.add_argument("--u", type=float, required=True)
    sp.add_argument("--v", type=float, default=1.0)
    sp.add_argument("--p", type=float, default=1.0)
    sp.add_argument("--e", type=float, default=1.0)
    sp.add_argument("--q", type=float, default=0.0)
    sp.add_argument("--s", type=float, default=1.0)
    sp.add_argument("--temp", type=float, default=1.0)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_boost)

    sp = sub.add_parser("verify")
    sp.add_argument("suite", choices=tuple(SUITES) + ("all",))
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_verify)
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
        return args.func(args)
    except NumericalFailure as exc:
        print(f"arrowlab: numerical invariant failed: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError) as exc:
        print(f"arrowlab: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
