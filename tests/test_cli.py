import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from arrowlab import cli
from arrowlab.cli import main


def run(argv):
    return main(argv)


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["not-a-command"])
    assert exc.value.code == 1


def test_import_is_light():
    # the CLI needs numpy and the standard library only
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    code = ("import sys, arrowlab.cli; "
            "print(sorted({'sympy', 'scipy'} & {m.split('.')[0] for m in sys.modules}))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout.strip() == "[]"


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


def test_env_seed_overrides(tmp_path, monkeypatch):
    a, b = tmp_path / "a", tmp_path / "b"
    monkeypatch.setenv("ARROWLAB_SEED", "123")
    assert run(["renyi-evolve", "--level", "6", "--t", "4", "--seed", "9",
                "--out", str(a)]) == 0
    monkeypatch.delenv("ARROWLAB_SEED")
    assert run(["renyi-evolve", "--level", "6", "--t", "4", "--seed", "123",
                "--out", str(b)]) == 0
    assert (a / "renyi_evolution.csv").read_text().replace("seed=123", "") \
        .replace("# ", "") != ""
    # same rng stream: identical data rows
    rows_a = (a / "renyi_evolution.csv").read_text().splitlines()
    rows_b = (b / "renyi_evolution.csv").read_text().splitlines()
    assert [r for r in rows_a if not r.startswith("#")] == \
        [r for r in rows_b if not r.startswith("#")]


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


@pytest.mark.parametrize("flags", [["--lambda", "1e3"], ["--omega1", "1e300"]])
def test_friedrichs_non_convergence_exit_2(tmp_path, capsys, flags):
    out = tmp_path / "d"
    assert run(["friedrichs", *flags, "--n-modes", "50", "--t-max", "5", "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("arrowlab: numerical invariant failed: ")
    assert not out.exists()


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


@pytest.mark.parametrize("argv", [["cosmo-gap", "--omega1", "1e300"],
                                  ["cosmo-gap", "--gamma-t0", "1e-300"],
                                  ["cosmo-gap", "--t0-temp", "1e-300"],
                                  ["dephase", "--n", "6", "--tmax", "1e308"],
                                  ["entropy-suite", "--n", "0"],
                                  ["entropy-suite", "--trials", "0"],
                                  ["lambda-lyapunov", "--t-max=-1"]])
def test_out_of_range_options_exit_1_without_warning(tmp_path, capsys, argv):
    out = tmp_path / "d"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(argv + ["--out", str(out)]) == 1
    assert len(capsys.readouterr().err.strip().splitlines()) == 1
    assert not out.exists()
