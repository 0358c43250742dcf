"""End-to-end acceptance checks, one test per criterion.

Each test is self-contained and states its tolerance inline; together they
exercise the exact spectral algebra, the convergence trichotomy, entropy
monotonicity, the resonance model, and the cosmological gap.
"""

import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from arrowlab.cosmo import (CosmoParams, blackbody_comoving_entropy,
                            critical_times, entropy_gap_rate)
from arrowlab.entropy import (conditional_entropy, entropy_gap_quadratic,
                              voigt_monotonicity_suite)
from arrowlab.friedrichs import (FriedrichsModel, find_pole, lambda_lyapunov,
                                 recurrence_time, survival_amplitude_oracle,
                                 survival_amplitude_quadrature,
                                 survival_probability)
from arrowlab.grids import (Density, GridSet, Partition, StochasticKernel,
                            coarse_values, interval_set, uniform_density)
from arrowlab.liouville import (is_self_associated, liouvillian, super_adjoint,
                                super_apply, super_associated, super_compose,
                                super_product, super_transpose)
from arrowlab.maps import MapSpec
from arrowlab.spectral import (bernoulli_poly, biorthonormality_matrix,
                               fp_poly)
from arrowlab.transfer import (fit_geometric, fp_baker, fp_renyi,
                               image_measure, weak_pairing)


def test_criterion_01_bernoulli_eigenrelation_exact():
    # U B_n = beta^-n B_n identically in (rational) coefficients
    for beta in (2, 3, 5):
        for n in range(9):
            bn = bernoulli_poly(n)
            assert fp_poly(bn, beta) == bn.scaled(Fraction(1, beta ** n))


def test_criterion_02_biorthonormality():
    g = biorthonormality_matrix(8)
    assert np.abs(g - np.eye(9)).max() < 1e-10


def test_criterion_03_convergence_trichotomy():
    # smooth density under the dyadic shift: strong L1 decay at rate 1/2
    level = 12
    centers = (np.arange(2 ** level) + 0.5) / 2 ** level
    d = Density(2, 1.0 + 0.6 * (centers - 0.5), normalize=False)
    devs = []
    for _ in range(11):
        devs.append(float(np.abs(d.values - 1.0).mean()))
        d = fp_renyi(d)
    rate, r2 = fit_geometric(np.array(devs))
    assert abs(rate - 0.5) < 1e-3
    assert r2 > 0.999

    # indicator density under the baker map: weak convergence to the product
    # measure while the L2 distance to uniform never moves
    kx = 12
    v = np.zeros((2 ** kx, 1))
    v[: 2 ** (kx - 1), 0] = 2.0
    d = Density(2, v, normalize=False)
    probes = []
    for i in range(4):
        for j in range(4):
            g = np.zeros((4, 4))
            g[i, j] = 1.0
            probes.append(g)
    l2 = []
    for _ in range(12):
        l2.append(float(np.sqrt(((d.values - 1.0) ** 2).mean())))
        d = fp_baker(d)
    l2.append(float(np.sqrt(((d.values - 1.0) ** 2).mean())))
    for g in probes:
        assert abs(weak_pairing(d, g) - g.mean()) < 1e-12
    assert max(l2) - min(l2) < 1e-12


def test_criterion_04_exactness_measure_growth():
    spec = MapSpec("renyi", 2)
    level = 12
    cases = [(0, 0), (3, 5), (6, 17), (9, 300), (12, 1)]  # (depth m, slot j)
    for m, j in cases:
        width = 2 ** (level - m)
        a = interval_set(2, level, j * width, (j + 1) * width)
        mu = a.volume()
        for t in range(11):
            assert image_measure(spec, a, t) == min(1.0, 2 ** t * mu)


def test_criterion_05_voigt_monotonicity():
    rng = np.random.default_rng(5)
    n = 8
    worst = np.inf
    for k in range(100):
        m = rng.random((n, n)) + 0.01
        m /= m.sum(axis=0)
        rep = voigt_monotonicity_suite(StochasticKernel(m), trials=100, seed=k)
        worst = min(worst, rep["worst_violation"])
    assert worst >= -1e-10

    # permutation kernels leave the conditional entropy unchanged
    for k in range(20):
        perm = rng.permutation(n)
        m = np.zeros((n, n))
        m[perm, np.arange(n)] = 1.0
        rv = rng.random(n) + 0.05
        sv = rng.random(n) + 0.05
        rv, sv = rv / rv.mean(), sv / sv.mean()
        before = conditional_entropy(Density(2, rv, normalize=False),
                                     Density(2, sv, normalize=False))
        after = conditional_entropy(Density(2, m @ rv, normalize=False),
                                    Density(2, m @ sv, normalize=False))
        assert abs(after - before) < 1e-12


def _quadrants():
    cells = []
    for i in range(2):
        for j in range(2):
            m = np.zeros((2, 2), dtype=bool)
            m[i, j] = True
            cells.append(GridSet(2, m))
    return Partition(tuple(cells))


def _second_law_run(part, t_max, seed=6, trajectories=20):
    """Quadrant entropies of baker trajectories from coarse-information preparations.

    The x-profile is resolved by the partition (finer unresolved x-structure
    surfaces into y later and produces transient entropy dips, which the
    second law does not forbid for such states).
    """
    w = part.weights
    rng = np.random.default_rng(seed)
    runs = []
    for _ in range(trajectories):
        v = rng.random((2, 4)) + 0.05
        v /= v.mean()
        d = Density(2, v, normalize=False)
        hs = []
        for t in range(t_max + 1):
            vals = coarse_values(d, part)
            hs.append(float(-(w * vals * np.log(vals)).sum()))
            if t < t_max:
                d = fp_baker(d)
        runs.append(hs)
    return runs


def test_criterion_06_coarse_grained_second_law():
    for hs in _second_law_run(_quadrants(), t_max=20):
        assert all(b >= a - 1e-12 for a, b in zip(hs[1:], hs[2:]))
        assert hs[-1] > -1e-6


def test_second_law_to_t60_in_time_and_memory_flat_in_t():
    # at t = 60 the state has 2**62 nominal cells: one y-period and a tile count
    part = _quadrants()
    start = time.perf_counter()
    runs = _second_law_run(part, t_max=60)
    assert time.perf_counter() - start < 1.0
    for hs in runs:
        assert all(b >= a - 1e-12 for a, b in zip(hs[1:], hs[2:]))
        assert hs[-1] > -1e-6
    peaks = {}
    for t_max in (20, 60):
        tracemalloc.start()
        try:
            _second_law_run(part, t_max, trajectories=1)
            peaks[t_max] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[60] <= peaks[20] + 64 * 1024


def test_criterion_07_friedrichs_two_path_and_regimes():
    model = FriedrichsModel(omega1=1.0, lam=0.1)
    t = np.linspace(0.0, 200.0, 401)
    rep = survival_probability(model, t, n_modes=2000, n_points=40001)
    assert not rep["flagged"].any()
    assert np.abs(rep["p_oracle"] - rep["p_quadrature"]).max() < 1e-3

    pole = rep["pole"]
    golden = 2 * np.pi * model.lam ** 2 * float(model.g2(model.omega1))
    assert abs(pole.gamma1 - golden) / golden < 0.10

    mid = (t >= 5.0) & (t <= 100.0)
    slope = np.polyfit(t[mid], np.log(rep["p_quadrature"][mid]), 1)[0]
    assert abs(-slope - pole.gamma1) / pole.gamma1 < 0.10

    # Zeno: P(t) is even, so the derivative at t=0 vanishes
    dt = 1e-3
    a_pm = survival_amplitude_oracle(model, [-dt, dt], n_modes=2000)
    dp0 = (abs(a_pm[1]) ** 2 - abs(a_pm[0]) ** 2) / (2 * dt)
    assert abs(dp0) < 1e-6

    # Khalfin: late-time power-law tail beats the pure exponential
    t_late = np.linspace(400.0, 1000.0, 61)
    assert t_late.min() > 0.5 * recurrence_time(model, 2000)
    p_late = np.abs(survival_amplitude_quadrature(model, t_late)) ** 2
    rel = np.abs(p_late - np.exp(-pole.gamma1 * t_late)) \
        / np.exp(-pole.gamma1 * t_late)
    assert rel.max() > 0.10


def test_criterion_08_lambda_lyapunov():
    rng = np.random.default_rng(8)
    t = np.linspace(0.0, 5.0, 40)
    for _ in range(100):
        n = 6
        z = rng.random(n) - 1j * rng.random(n)
        z[:2] = z[:2].real  # keep a couple of undamped modes around
        r = rng.random((n, n)) + 1j * rng.random((n, n))
        r = r + r.conj().T
        y = lambda_lyapunov(z, r, t)
        assert np.all(np.diff(y) <= 1e-12)
    # support on undamped modes only: exactly constant
    z = np.array([0.3, 1.1, 2.0 - 0.4j, 3.0 - 0.9j])
    r0 = np.zeros((4, 4), dtype=complex)
    r0[:2, :2] = 0.5
    y0 = lambda_lyapunov(z, r0, t)
    assert np.ptp(y0) == 0.0
    r0[2, 2] = 0.5
    y1 = lambda_lyapunov(z, r0, t)
    assert y1[0] - y1[-1] > 1e-3


def test_criterion_09_superoperator_identities():
    rng = np.random.default_rng(9)

    def cmat():
        return rng.random((4, 4)) + 1j * rng.random((4, 4))

    for _ in range(100):
        a, b, g, d = cmat(), cmat(), cmat(), cmat()
        lhs = super_compose(super_product(a, b), super_product(g, d))
        assert np.abs(lhs - super_product(a @ g, d @ b)).max() < 1e-12
        assert np.abs(super_associated(super_product(a, b))
                      - super_product(b.conj().T, a.conj().T)).max() < 1e-12
        x = super_product(a, b) + 0.7 * super_product(g, d)
        assert np.abs(super_transpose(super_associated(x))
                      - super_adjoint(x)).max() < 1e-12

    h = rng.random((4, 4))
    h = h + h.T
    il = 1j * liouvillian(h)
    assert is_self_associated(il)
    for _ in range(20):
        r = cmat()
        r = r + r.conj().T
        out = super_apply(il, r)
        assert np.abs(out - out.conj().T).max() < 1e-12


def test_criterion_10_cosmology_critical_times():
    p = CosmoParams()  # A = 1, B = 0.1
    r = critical_times(p)
    t1, t2 = r["times"]
    assert abs(t1 - 1.18) < 0.01
    assert abs(t2 - 970.0) < 10.0
    assert max(r["residuals"]) < 1e-10
    assert abs(t1 - r["asymptotic_1"]) / t1 < 0.25
    assert abs(t2 - r["asymptotic_2"]) / t2 < 0.25
    assert entropy_gap_rate(0.5 * t1, p) < 0
    assert entropy_gap_rate(np.sqrt(t1 * t2), p) > 0
    assert entropy_gap_rate(2 * t2, p) < 0
    s = blackbody_comoving_entropy(np.linspace(1.0, 100.0, 1000), p)
    assert np.ptp(s) < 1e-10


def test_criterion_11_quadratic_gap_accuracy():
    level = 10
    n = 2 ** level
    x = (np.arange(n) + 0.5) / n
    star = uniform_density(2, level)
    rho1 = np.cos(2 * np.pi * x)
    rho1 -= rho1.mean()
    gamma, t = 0.5, np.log(np.abs(rho1).max() / 0.01) / 0.5
    amp = np.exp(-gamma * t) * np.abs(rho1 / star.values).max()
    assert abs(amp - 0.01) < 1e-12
    exact = conditional_entropy(
        Density(2, star.values + np.exp(-gamma * t) * rho1, normalize=False),
        star)
    approx = entropy_gap_quadratic(star, rho1, gamma, t)
    assert abs(approx - exact) / abs(exact) < 0.01
