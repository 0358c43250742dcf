import json
import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from arrowlab import cli
from arrowlab.cli import main

ROOT = Path(__file__).resolve().parents[1]


def run(argv):
    return main(argv)


def python(*args, **kwargs):
    """`python args` in a child process that imports arrowlab from this checkout."""
    env = {**os.environ,
           "PYTHONPATH": str(ROOT / "src") + os.pathsep + os.environ.get("PYTHONPATH", "")}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          **kwargs)


def run_module(argv, **kwargs):
    """The `arrowlab` entry point in a child process, RuntimeWarnings as errors."""
    return python("-W", "error::RuntimeWarning", "-m", "arrowlab.cli", *argv, **kwargs)


def readme_runs():
    """The argv of each line of README's CLI-examples block."""
    block = (ROOT / "README.md").read_text().split("## CLI examples")[1].split("```")[1]
    return [shlex.split(line)[1:] for line in block.splitlines()[1:]]


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["not-a-command"])
    assert exc.value.code == 1


def test_import_is_light():
    # the CLI needs numpy and the standard library only, and its import builds
    # no Friedrichs rule or plan and loads no thread pool or numpy.polynomial
    code = ("import sys, arrowlab.cli; from arrowlab import friedrichs as f; "
            "print(sorted({'sympy', 'scipy'} & {m.split('.')[0] for m in sys.modules}), "
            "'concurrent.futures' in sys.modules, 'numpy.polynomial' in sys.modules, "
            "[c.cache_info().currsize for c in (f._gauss_legendre, f._chirp_plan, "
            "f._density_plan)])")
    assert python("-c", code, check=True).stdout.strip() == "[] False False [0, 0, 0]"


@pytest.mark.parametrize("argv", [
    *readme_runs(),
    # the oracle's 1 x 1 and 45 x 45 time lattices
    ["friedrichs", "--n-times", "1", "--out", "out/"],
    ["friedrichs", "--n-times", "2001", "--t-max", "200", "--out", "out/"],
    # the top couplings deflate
    ["friedrichs", "--lambda", "0.3", "--omega1", "4", "--t-max", "20", "--out", "out/"],
    # a Voigt suite over several trial blocks
    ["entropy-suite", "--n", "8", "--trials", "20000", "--out", "out/"],
    # a base-3 Bernoulli basis under the Gram gate
    ["renyi-spectral", "--beta", "3", "--nmax", "12", "--t", "7", "--out", "out/"],
], ids=" ".join)
def test_runs_exit_0_without_warning(tmp_path, argv):
    argv = [str(tmp_path) if a == "out/" else a for a in argv]
    if argv[0] == "boost":  # one run through the module's entry point
        proc = run_module(argv)
        assert proc.returncode == 0 and json.loads(proc.stdout)["u"] == 0.6
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(argv) == 0


@pytest.mark.parametrize("argv, code", [(["baker-evolve", "--level", "2", "--t", "60"], 0),
                                        (["renyi-evolve", "--level", "40"], 1),
                                        (["mixing-report", "--level", "30"], 1)])
def test_runs_in_2_gb_of_address_space(tmp_path, argv, code):
    # a t = 60 baker run holds 2**62 nominal cells; Renyi and mixing levels
    # past the cap exit 1 with one line
    resource = pytest.importorskip("resource")
    cap = 2_000_000 * 1024

    def limit():  # in the child only
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    proc = run_module([*argv, "--out", str(tmp_path)], preexec_fn=limit)
    assert proc.returncode == code
    if code:
        assert proc.stderr.startswith("arrowlab: error: ") and proc.stderr.count("\n") == 1
    else:
        assert proc.stderr == "" and proc.stdout.startswith("wrote ")


def test_entropy_suite_trials_do_not_replay_the_kernel_draws(tmp_path, monkeypatch):
    # the kernel takes the first n^2 draws of the run's generator; the trials'
    # pairs (rho, sigma) come from a stream of their own
    seeds = []
    suite = cli.entropy.voigt_monotonicity_suite

    def recorded(kernel, trials, seed):
        seeds.append(seed)
        return suite(kernel, trials=trials, seed=seed)

    monkeypatch.setattr(cli.entropy, "voigt_monotonicity_suite", recorded)
    assert run(["entropy-suite", "--seed", "3", "--trials", "5", "--out", str(tmp_path)]) == 0
    kernel_draws = np.random.default_rng(3).random(64)
    trial_draws = np.random.default_rng(seeds[0]).random(16)
    assert not np.isin(trial_draws, kernel_draws).any()


def test_verify_suites_pass(capsys):
    assert run(["verify", "all"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    reports = [json.loads(ln) for ln in out]
    assert len(reports) == 5
    assert all(r["pass"] for r in reports)


def test_verify_voigt_reports_violation_bound(capsys):
    assert run(["verify", "voigt"]) == 0
    rep = json.loads(capsys.readouterr().out.strip())
    assert rep["worst_violation"] >= -1e-10


def test_verify_failure_exit_code(monkeypatch, capsys):
    monkeypatch.setitem(cli.SUITES, "voigt", lambda seed: {"suite": "voigt", "pass": False})
    assert run(["verify", "voigt"]) == 2
    assert json.loads(capsys.readouterr().out) == {"suite": "voigt", "pass": False}


def test_numerical_failure_exit_code(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli.spectral, "biorthonormality_matrix",
                        lambda n_max: np.eye(n_max + 1) + 1e-9)
    assert run(["renyi-spectral", "--nmax", "4", "--t", "2", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == "arrowlab: numerical invariant failed: biorthonormality gram error\n"


def test_renyi_spectral_artifacts(tmp_path):
    out = tmp_path / "d"
    assert run(["renyi-spectral", "--beta", "2", "--nmax", "6", "--t", "5",
                "--out", str(out)]) == 0
    basis = (out / "bernoulli_basis.csv").read_text()
    assert basis.startswith("#")
    assert "x,B0,B1" in basis
    evo = (out / "spectral_evolution.csv").read_text()
    assert "t,c0,c1" in evo
    rep = json.loads((out / "spectral_report.json").read_text().splitlines()[-1])
    assert rep["max_gram_error"] < 1e-10


def test_cosmo_gap_artifacts(tmp_path):
    out = tmp_path / "d"
    assert run(["cosmo-gap", "--omega1", "1.5", "--t0-temp", "1",
                "--gamma-t0", "0.1", "--out", str(out)]) == 0
    roots = json.loads((out / "roots.json").read_text().splitlines()[-1])
    assert abs(roots["t_cr1"] - 1.18) < 0.01
    assert abs(roots["t_cr2"] - 970) < 5


def test_boost_prints_json(capsys):
    assert run(["boost", "--u", "0.6"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["boosted"]["v"] == pytest.approx(0.8)


@pytest.mark.parametrize("argv, artifact", [
    (["cosmo-gap", "--omega1", "10", "--t0-temp", "0.1"], "gap.csv"),
    (["boost", "--u", "0.99", "--e", "1e308"], "boost.json"),
])
def test_float_overflow_exits_1_with_one_line(tmp_path, capsys, argv, artifact):
    assert run([*argv, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("arrowlab: error: ") and err.count("\n") == 1
    assert not (tmp_path / artifact).exists()


def test_outputs_deterministic_for_seed(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(["renyi-evolve", "--level", "6", "--t", "4", "--seed", "9",
                    "--out", str(out)]) == 0
    rows_a = (a / "renyi_evolution.csv").read_text().splitlines()
    rows_b = (b / "renyi_evolution.csv").read_text().splitlines()
    # header echoes the out path, so compare data rows only
    assert [r for r in rows_a if not r.startswith("#")] == \
        [r for r in rows_b if not r.startswith("#")]


def _renyi_rows(out, config=None, seed=None):
    argv = (["--config", str(config)] if config else []) + ["renyi-evolve", "--level", "6",
                                                            "--t", "4", "--out", str(out)]
    assert run(argv + (["--seed", seed] if seed else [])) == 0
    return [r for r in (out / "renyi_evolution.csv").read_text().splitlines()
            if not r.startswith("#")]


def test_config_seed_matches_flag_and_flag_wins(tmp_path):
    cfg = tmp_path / "cfg"
    cfg.write_text("seed=123\n")
    from_config = _renyi_rows(tmp_path / "a", config=cfg)
    assert "# seed=123" in (tmp_path / "a" / "renyi_evolution.csv").read_text().splitlines()
    assert from_config == _renyi_rows(tmp_path / "b", seed="123")
    flag_wins = _renyi_rows(tmp_path / "c", config=cfg, seed="9")
    assert flag_wins == _renyi_rows(tmp_path / "d", seed="9") != from_config


def test_out_of_memory_exits_1_with_one_line(tmp_path, monkeypatch, capsys):
    # renyi-evolve --level 40 asks numpy for 8 TiB; the MemoryError is raised here
    # without allocating anything
    def out_of_memory(args, rng):
        raise MemoryError("Unable to allocate 8.00 TiB for an array")

    monkeypatch.setattr(cli, "cmd_renyi_evolve", out_of_memory)
    out = tmp_path / "d"
    assert run(["renyi-evolve", "--level", "40", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "arrowlab: error: Unable to allocate 8.00 TiB for an array\n"
    assert not out.exists()


def test_header_echoes_config(tmp_path):
    out = tmp_path / "d"
    run(["baker-evolve", "--level", "3", "--t", "3", "--seed", "4",
         "--out", str(out)])
    head = (out / "baker_evolution.csv").read_text().splitlines()
    assert any(ln.startswith("# seed=4") for ln in head)
    assert any(ln.startswith("# level=3") for ln in head)


def test_config_file_fills_defaults(tmp_path):
    cfg = tmp_path / "cfg"
    cfg.write_text("level=5\n")
    out = tmp_path / "d"
    assert run(["--config", str(cfg), "renyi-evolve", "--t", "3",
                "--out", str(out)]) == 0
    head = (out / "renyi_evolution.csv").read_text().splitlines()
    assert any(ln.startswith("# level=5") for ln in head)
    bad = tmp_path / "bad"
    bad.write_text("unknown_key=1\n")
    assert run(["--config", str(bad), "renyi-evolve", "--t", "3",
                "--out", str(out)]) == 1


def test_config_does_not_override_flags(tmp_path):
    cfg = tmp_path / "cfg"
    cfg.write_text("lam=0.3\nn_modes=200\n")
    out = tmp_path / "d"
    assert run(["--config", str(cfg), "friedrichs", "--lambda", "0.05",
                "--t-max", "10", "--n-times", "11", "--out", str(out)]) == 0
    head = (out / "survival.csv").read_text().splitlines()
    assert "# lam=0.05" in head
    assert "# n_modes=200" in head


@pytest.mark.parametrize("line", ["func=x", "command=boost", "density=bogus"])
def test_config_rejects_undeclared_keys_and_values(tmp_path, capsys, line):
    cfg = tmp_path / "cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "d"
    assert run(["--config", str(cfg), "renyi-evolve", "--out", str(out)]) == 1
    assert len(capsys.readouterr().err.strip().splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--n-modes", "--n-times"])
def test_friedrichs_rejects_empty_sizes(tmp_path, capsys, flag):
    out = tmp_path / "d"
    assert run(["friedrichs", flag, "0", "--out", str(out)]) == 1
    assert len(capsys.readouterr().err.strip().splitlines()) == 1
    assert not out.exists()


def test_verify_failure_prints_one_line(monkeypatch, capsys):
    monkeypatch.setitem(cli.SUITES, "voigt", lambda seed: {"suite": "voigt", "pass": False})
    assert run(["verify", "voigt"]) == 2
    assert capsys.readouterr().err == "arrowlab: numerical invariant failed: voigt suite\n"


def test_nan_check_fails(tmp_path, monkeypatch, capsys):
    # a NaN residual must fail its `value <= bound` gate, not slip past `>`
    monkeypatch.setattr(cli.spectral, "biorthonormality_matrix",
                        lambda n_max: np.full((n_max + 1, n_max + 1), np.nan))
    assert run(["renyi-spectral", "--nmax", "4", "--t", "2", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == "arrowlab: numerical invariant failed: biorthonormality gram error\n"


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("argv", [["boost", "--u", "0.6", "--temp="],
                                  ["cosmo-gap", "--omega1="],
                                  ["lambda-lyapunov", "--t-max="],
                                  ["--config", "{cfg}", "dephase"]])
def test_non_finite_options_exit_1(tmp_path, capsys, argv, value):
    # `--flag=value`, because argparse reads a bare `-inf` as an option
    cfg = tmp_path / "cfg"
    cfg.write_text(f"tmax={value}\n")
    argv = [a.replace("{cfg}", str(cfg)) for a in argv]
    if argv[-1].endswith("="):
        argv[-1] += value
    out = tmp_path / "d"
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--out", str(out)])
    assert exc.value.code == 1
    assert len(capsys.readouterr().err.strip().splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--lambda", "1e3"], ["--omega1", "1e300"],
                                   *(["--omega1", w, "--lambda", lam, "--n-times", "3"]
                                     for w, lam in (("1000", "1e50"), ("700", "1e100"),
                                                    ("745", "1e120"), ("1000", "1e153"),
                                                    ("100", "1e50")))])
def test_friedrichs_non_convergence_exit_2(tmp_path, capsys, flags):
    out = tmp_path / "d"
    assert run(["friedrichs", *flags, "--n-modes", "50", "--t-max", "5", "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("arrowlab: numerical invariant failed: ")
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--omega1", "1e-140", "--lambda", "1e-80"],
                                   # the smallest band the grid-step bound admits
                                   ["--omega1", "1.6e-155", "--n-modes", "1", "--lambda", "0.1"]])
def test_friedrichs_tiny_band_exits_2_on_the_two_path_check(tmp_path, capsys, flags):
    # the solve runs in band units, but a 40001-point density cannot resolve
    # such a resonance width (6e-160 at omega1 = 1e-140): the routes
    # disagree, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(["friedrichs", *flags, "--n-times", "3", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["arrowlab: numerical invariant failed: two-path survival disagreement"]


def test_friedrichs_uncoupled_level_does_not_decay(tmp_path):
    # lambda = 0 takes the closed form: no decay, and the pole is omega1 itself
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(["friedrichs", "--lambda", "0", "--n-modes", "50", "--t-max", "5",
                    "--out", str(tmp_path)]) == 0
    pole = json.loads((tmp_path / "pole.json").read_text().splitlines()[-1])
    assert (pole["gamma1"], pole["beta1"], pole["lambda"]) == (0.0, 1.0, 0.0)
    rows = [ln for ln in (tmp_path / "survival.csv").read_text().splitlines()
            if not ln.startswith("#")]
    assert rows[0] == "t,P_oracle,P_quadrature,P_pole"
    assert {r.split(",", 1)[1] for r in rows[1:]} == {"1.0,1.0,1.0"}


def test_baker_evolve_runs_past_int64_cells(tmp_path):
    # at t = 60 the density has 2**62 nominal cells, stored as one period and a tile count
    assert run(["baker-evolve", "--level", "2", "--t", "60", "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "baker_evolution.csv").read_text().splitlines()
    assert rows[-1].startswith("60,")


@pytest.mark.parametrize("argv, problem",
                         [(["dephase", "--n", "0"], "spectrum must not be empty"),
                          (["renyi-spectral", "--nmax", "-1"], "n_max must be >= 0")])
def test_empty_sizes_name_the_problem(tmp_path, capsys, argv, problem):
    out = tmp_path / "d"
    assert run(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == f"arrowlab: error: {problem}\n"
    assert not out.exists()


def test_basis_past_float_range_exits_1_with_one_line(tmp_path, capsys):
    # B_259 has coefficients past float range; an OverflowError would escape main
    out = tmp_path / "d"
    assert run(["renyi-spectral", "--nmax", "259", "--t", "0", "--out", str(out)]) == 1
    assert capsys.readouterr().err == ("arrowlab: error: the coefficient of x^1 of a "
                                       "degree-259 polynomial is past float range\n")
    assert not out.exists()


@pytest.mark.parametrize("argv", [["cosmo-gap", "--omega1", "1e300"],
                                  ["cosmo-gap", "--gamma-t0", "1e-300"],
                                  ["cosmo-gap", "--t0-temp", "1e-300"],
                                  ["dephase", "--n", "6", "--tmax", "1e308"],
                                  ["entropy-suite", "--n", "0"],
                                  ["entropy-suite", "--trials", "0"],
                                  ["lambda-lyapunov", "--t-max=-1"],
                                  ["lambda-lyapunov", "--n", "0"],
                                  ["renyi-evolve", "--t", "-1"],
                                  ["baker-evolve", "--t", "-1"],
                                  ["renyi-spectral", "--t", "-1"],
                                  ["renyi-spectral", "--beta", "1"],
                                  ["renyi-spectral", "--beta", "0", "--t", "0"],
                                  ["friedrichs", "--t-max", "1e308", "--n-times", "2"],
                                  ["friedrichs", "--omega1", "1e307", "--n-times", "3",
                                   "--t-max", "1"]])
def test_out_of_range_options_exit_1_without_warning(tmp_path, capsys, argv):
    out = tmp_path / "d"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(argv + ["--out", str(out)]) == 1
    assert len(capsys.readouterr().err.strip().splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--lambda", "1e160"], ["--lambda", "1e154"],
                                   ["--omega1", "1e-152"], ["--omega1", "1e-160"],
                                   ["--omega1", "1e-300"]])
def test_friedrichs_parameters_past_float_range_exit_1_without_warning(tmp_path, capsys, flags):
    out = tmp_path / "d"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(["friedrichs", *flags, "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("arrowlab: error: ")
    assert not out.exists()
