import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrowlab.grids import (Density, StochasticKernel, square_partition, coarse_grain,
                            uniform_density)
from arrowlab.maps import MapSpec
from arrowlab.transfer import fp_iterate, fp_renyi
from arrowlab.entropy import (NEG_INF, _hc_vec, canonical_density,
                              canonical_density_from_temperature,
                              conditional_entropy, entropy_gap_quadratic,
                              gibbs_energy_relation, gibbs_entropy,
                              voigt_monotonicity_suite)


def test_gibbs_entropy_known_values():
    u = uniform_density(2, 3)
    assert gibbs_entropy(u) == 0.0
    half = Density(2, np.where(np.arange(8) < 4, 2.0, 0.0), normalize=False)
    assert abs(gibbs_entropy(half) + np.log(2)) < 1e-14
    quarter = Density(2, np.where(np.arange(8) < 2, 4.0, 0.0), normalize=False)
    assert abs(gibbs_entropy(quarter) + np.log(4)) < 1e-14


def test_gibbs_entropy_rejects_unnormalized():
    with pytest.raises(ValueError):
        gibbs_entropy(Density(2, 2 * np.ones(4), normalize=False))


def test_uniform_is_max_entropy():
    rng = np.random.default_rng(0)
    for _ in range(100):
        d = Density(2, rng.random(32) + 0.01)
        assert gibbs_entropy(d) < 0.0


def test_conditional_entropy_cases():
    u = uniform_density(2, 3)
    half = Density(2, np.where(np.arange(8) < 4, 2.0, 0.0), normalize=False)
    assert conditional_entropy(u, u) == 0.0
    assert abs(conditional_entropy(half, u) + np.log(2)) < 1e-14
    assert conditional_entropy(u, half) == NEG_INF


def test_conditional_entropy_nonpositive_random():
    rng = np.random.default_rng(1)
    for _ in range(500):
        r = Density(2, rng.random(16) + 0.01)
        s = Density(2, rng.random(16) + 0.01)
        h = conditional_entropy(r, s)
        assert h <= 1e-13
        assert conditional_entropy(r, r) < 1e-13


def test_canonical_density_exponential():
    n = 4096
    x = 20 * (np.arange(n) + 0.5) / n
    d, nu, z = canonical_density(x, 2.0)
    assert abs((x * d.values).mean() - 2.0) < 1e-9
    assert abs(nu - 0.5) < 5e-3  # truncated exponential ensemble
    # H(rho*) = ln Z + nu <alpha>
    assert abs(gibbs_entropy(d) - (np.log(z) + nu * 2.0)) < 1e-9


def test_canonical_density_degenerate_and_range_errors():
    d, nu, z = canonical_density(np.full(8, 3.0), 3.0)
    assert np.allclose(d.values, 1.0)
    with pytest.raises(ValueError):
        canonical_density(np.arange(8.0), 9.0)


def test_canonical_maximizes_constrained_entropy():
    rng = np.random.default_rng(2)
    n = 64
    alpha = rng.random(n) * 3
    star, nu, z = canonical_density(alpha, 1.5)
    h_star = gibbs_entropy(star)
    for _ in range(100):
        v = rng.random(n) + 0.01
        v /= v.mean()
        # tilt the sample to match the constraint by mixing with canonical
        m = float((alpha * v).mean())
        lam = (1.5 - m) / ((alpha * star.values).mean() - m)
        if not (0 <= lam < 1):
            continue
        mix = Density(2, (1 - lam) * v + lam * star.values, normalize=False)
        assert gibbs_entropy(mix) <= h_star + 1e-12


def test_voigt_identity_and_permutation():
    eye = StochasticKernel(np.eye(8))
    res = voigt_monotonicity_suite(eye, trials=50)
    assert abs(res["worst_violation"]) < 1e-14
    perm = StochasticKernel(np.eye(8)[np.random.default_rng(3).permutation(8)])
    res = voigt_monotonicity_suite(perm, trials=50)
    assert abs(res["worst_violation"]) < 1e-12


def test_voigt_random_kernels_monotone():
    rng = np.random.default_rng(4)
    for _ in range(20):
        m = rng.random((8, 8)) + 0.02
        m /= m.sum(axis=0)
        res = voigt_monotonicity_suite(StochasticKernel(m), trials=100,
                                       seed=int(rng.integers(1 << 31)))
        assert res["worst_violation"] >= -1e-10
        assert res["mean_gain"] > 0


def test_renyi_conditional_entropy_increases_to_zero():
    rng = np.random.default_rng(5)
    spec = MapSpec("renyi", 2)
    u = uniform_density(2, 12)
    n = 2 ** 12
    x = (np.arange(n) + 0.5) / n
    for _ in range(10):
        c = rng.uniform(0.2, 0.9)
        d = Density(2, 1 + c * np.sin(2 * np.pi * x), normalize=False)
        hs = []
        cur = d
        for t in range(15):
            hs.append(conditional_entropy(cur, u))
            cur = fp_renyi(cur)
        assert all(b >= a - 1e-12 for a, b in zip(hs, hs[1:]))
        assert hs[-1] > -1e-4


def test_baker_conditional_entropy_constant():
    rng = np.random.default_rng(6)
    spec = MapSpec("baker", 2)
    r = Density(2, rng.random((16, 16)) + 0.1)
    s = Density(2, rng.random((16, 16)) + 0.1)
    h0 = conditional_entropy(r, s)
    for t in (1, 2, 3, 4):
        h = conditional_entropy(fp_iterate(spec, r, t), fp_iterate(spec, s, t))
        assert abs(h - h0) < 1e-10


def test_entropy_gap_quadratic_values():
    n = 1024
    u = uniform_density(2, 10)
    assert entropy_gap_quadratic(u, np.zeros(n), 1.0, 0.0) == 0.0
    x = (np.arange(n) + 0.5) / n
    eps = 0.3
    got = entropy_gap_quadratic(u, eps * (x - 0.5), 0.0, 0.0)
    # integral of (x-1/2)^2 is 1/12; the second-order factor gives eps^2/24
    assert abs(got + eps ** 2 / 24) < 1e-6
    with pytest.raises(ValueError):
        entropy_gap_quadratic(u, np.ones(n), 0.0, 0.0)


def test_entropy_gap_quadratic_matches_exact():
    n = 4096
    u = uniform_density(2, 12)
    x = (np.arange(n) + 0.5) / n
    r1 = np.sin(2 * np.pi * x)
    amp = 0.01 / np.abs(r1).max()
    exact = conditional_entropy(Density(2, 1 + amp * r1, normalize=False), u)
    approx = entropy_gap_quadratic(u, amp * r1, 0.0, 0.0)
    assert abs(approx - exact) / abs(exact) < 0.01


def test_gibbs_energy_relation_identity():
    rng = np.random.default_rng(7)
    n = 256
    omega = 3 * (np.arange(n) + 0.5) / n
    temp = 0.7
    can, _, _ = canonical_density_from_temperature(omega, temp)
    for _ in range(20):
        r1 = Density(2, rng.random(n) + 0.05)
        ds, dh, de = gibbs_energy_relation(r1, can, omega, temp)
        assert abs(ds - (dh - de / temp)) < 1e-10
    ds, dh, de = gibbs_energy_relation(can, can, omega, temp)
    assert ds == dh == de == 0.0


def test_hc_vec_on_a_stack_matches_each_pair():
    rng = np.random.default_rng(8)
    rv, sv = rng.random((5, 16)) + 0.01, rng.random((5, 16)) + 0.01
    rv[1, :4] = 0.0  # 0 ln 0 = 0
    sv[3, 2] = 0.0  # rho > 0 = sigma: -inf, without a warning
    rows = [_hc_vec(r, s) for r, s in zip(rv, sv)]
    assert rows[3] == NEG_INF and all(isinstance(h, float) for h in rows)
    assert np.array_equal(_hc_vec(rv, sv), rows)


@st.composite
def voigt_cases(draw):
    """(kernel, trials, seed): random or permutation kernels, and either a few
    trials or a count on either side of the block of 2^16 // n trials (n >= 8
    there, which keeps the reference loop short)."""
    cross = draw(st.booleans())
    n = draw(st.integers(8, 12) if cross else st.integers(1, 12))
    block = 2 ** 16 // n
    trials = draw(st.integers(block - 2, block + 3) if cross else st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        m = rng.random((n, n)) + 0.01
        m /= m.sum(axis=0)
    else:
        m = np.eye(n)[rng.permutation(n)]
    return StochasticKernel(m), trials, draw(st.integers(0, 2 ** 31 - 1))


@settings(max_examples=12, deadline=None)
@given(voigt_cases())
def test_voigt_suite_matches_per_trial_loop(case):
    kernel, trials, seed = case
    rng = np.random.default_rng(seed)

    def hc(r, s):  # every cell is positive here
        return float(-(r * np.log(r / s)).mean())

    diffs = []
    for _ in range(trials):
        rv = rng.random(kernel.n) + 0.05
        sv = rng.random(kernel.n) + 0.05
        rv /= rv.mean()
        sv /= sv.mean()
        diffs.append(hc(kernel.matrix @ rv, kernel.matrix @ sv) - hc(rv, sv))
    res = voigt_monotonicity_suite(kernel, trials, seed)
    worst = min(diffs)
    assert (res["worst_violation"], res["trials"], res["pass"]) == (worst, trials,
                                                                    worst >= -1e-10)
    if trials * kernel.n <= 2 ** 16:  # one block: the same summation
        assert res["mean_gain"] == np.mean(diffs)
    else:
        assert abs(res["mean_gain"] - np.mean(diffs)) <= 1e-12 * np.mean(np.abs(diffs)) + 1e-300


def test_canonical_density_constant_alpha_needs_its_value():
    with pytest.raises(ValueError, match="outside"):
        canonical_density(np.full(8, 3.0), 5.0)


def _dyadic(rng, n, scale):
    """Values on a 2^-20 grid, so that adding an integer of up to 10^4 is exact."""
    return np.round(rng.random(n) * scale * 2 ** 20) / 2 ** 20


@pytest.mark.parametrize("c", [-10 ** 4, -2001, 1, 800, 2000, 10 ** 4])
def test_gibbs_ensemble_is_shift_invariant(c):
    rng = np.random.default_rng(9)
    alpha = _dyadic(rng, 64, 10.0)
    for target in (1.0, 5.0, 9.5):
        d, nu, _ = canonical_density(alpha, target)
        dc, nuc, _ = canonical_density(alpha + c, target + c)
        np.testing.assert_allclose(dc.values, d.values, rtol=1e-12, atol=0)
        assert abs(nuc - nu) <= 1e-12 * abs(nu)
    omega = _dyadic(rng, 64, 3.0)
    for temp in (0.05, 0.7, 3.0):
        d, _, _ = canonical_density_from_temperature(omega, temp)
        dc, _, _ = canonical_density_from_temperature(omega + c, temp)
        np.testing.assert_allclose(dc.values, d.values, rtol=1e-12, atol=0)
        r1 = Density(2, rng.random(64) + 0.05)
        ds, dh, de = gibbs_energy_relation(r1, d, omega, temp)
        dsc, dhc, dec = gibbs_energy_relation(r1, d, omega + c, temp)
        assert (dsc, dhc) == pytest.approx((ds, dh), rel=1e-12, abs=0)
        # dE carries c times the rounding of the two masses, and energies of size |c|
        assert abs(dec - de) <= 1e-14 * (abs(c) + 3.0)
