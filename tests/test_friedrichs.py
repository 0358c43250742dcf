import dataclasses
import math
import sys
import threading
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import expi

from arrowlab import friedrichs
from arrowlab.friedrichs import (N_POINTS, FriedrichsModel, _arrowhead_spectrum,
                                 _cut_integral, _end_weights,
                                 _gauss_legendre, _secular_sums, _solve_arrowhead,
                                 _toeplitz_cauchy,
                                 alpha, damping_matrix,
                                 discretize, find_pole, lambda_lyapunov,
                                 mixed_state_decay, pole_approximation,
                                 pole_to_json, recurrence_time,
                                 spectral_density, survival_amplitude_oracle,
                                 survival_amplitude_quadrature,
                                 survival_probability, survival_to_csv,
                                 thermal_many_mode)

MODEL = FriedrichsModel(omega1=1.0, lam=0.1)


def test_alpha_free_theory():
    m0 = FriedrichsModel(omega1=1.0, lam=0.0)
    for z in (2 + 1j, 0.5 - 0.3j, -1 + 0j):
        assert alpha(z, "first", m0) == z - 1.0


def test_model_rejects_level_outside_the_band():
    # the band is [0, 20 omega1]: a level at its bottom, or one whose band top overflows
    with pytest.raises(ValueError, match="positive"):
        FriedrichsModel(omega1=0.0, lam=0.1)
    for omega1 in (1e307, np.float64(1e307)):
        with pytest.raises(ValueError, match="band top 20 omega1 finite"):
            FriedrichsModel(omega1=omega1, lam=0.1)
    assert FriedrichsModel(omega1=1e306, lam=0.1).omega_max == 20.0 * 1e306
    with pytest.raises(AttributeError):
        FriedrichsModel(omega1=1.0, lam=0.1).omega_max = 30.0


def test_couplings_past_the_pole_search_range_are_rejected():
    # |lam| up to sqrt(max / (6 pi)), where find_pole's arithmetic stays finite
    lam_max = friedrichs._LAM_MAX
    for lam in (lam_max, -lam_max):
        assert FriedrichsModel(omega1=1.0, lam=lam).lam == lam
    for lam in (np.nextafter(lam_max, np.inf), -1e154, 1e160, np.nan, np.inf):
        with pytest.raises(ValueError, match="lam must be finite"):
            FriedrichsModel(omega1=1.0, lam=lam)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for omega1 in (1e-3, 0.3, 1.0, 5.0):
            try:
                find_pole(FriedrichsModel(omega1=omega1, lam=lam_max))
            except RuntimeError:  # no pole to 1e-12 at this scale: an honest failure
                pass


@pytest.mark.parametrize("n_modes", [1, 2, 50, 2000])
def test_grid_steps_too_small_for_the_secular_solve_are_rejected(n_modes):
    # the solve stays finite from dw = 4 (ln N + 1) / sqrt(max) up, and below is rejected
    dw_min = 4.0 * (math.log(n_modes) + 1.0) / math.sqrt(np.finfo(float).max)
    eps = np.finfo(float).eps
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for lam in (10.0, 0.1, 1e-4):
            at = FriedrichsModel(omega1=dw_min * n_modes / 20.0 * (1.0 + 8.0 * eps), lam=lam)
            try:
                evals, weights = _arrowhead_spectrum(at, n_modes)
                assert np.isfinite(evals).all() and np.isfinite(weights).all()
            except RuntimeError:  # the secular iteration's honest failure, not an overflow
                pass
            below = FriedrichsModel(omega1=dw_min * n_modes / 20.0 * (1.0 - 8.0 * eps), lam=lam)
            with pytest.raises(ValueError, match="too small for n_modes"):
                _arrowhead_spectrum(below, n_modes)


def test_alpha_matches_adaptive_quadrature():
    z = 1.0 + 1.0j

    def re(u):
        return (np.exp(-u) / (z - u)).real

    def im(u):
        return (np.exp(-u) / (z - u)).imag

    r, _ = integrate.quad(re, 0, MODEL.omega_max, limit=200, epsabs=1e-13)
    i, _ = integrate.quad(im, 0, MODEL.omega_max, limit=200, epsabs=1e-13)
    oracle = z - 1.0 - 0.01 * complex(r, i)
    assert abs(alpha(z, "first", MODEL) - oracle) < 1e-8


def _alpha_second_quad(z, model):
    """alpha_II(z) with the integral by adaptive quadrature, split at Re z."""
    kw = dict(points=[z.real], limit=400, epsabs=1e-14, epsrel=1e-13)
    r, _ = integrate.quad(lambda u: (np.exp(-u) / (z - u)).real, 0, model.omega_max, **kw)
    i, _ = integrate.quad(lambda u: (np.exp(-u) / (z - u)).imag, 0, model.omega_max, **kw)
    return (z - model.omega1 - model.lam ** 2 * complex(r, i)
            + 2j * np.pi * model.lam ** 2 * np.exp(-z))


@pytest.mark.parametrize("z", [1 - 0.0115j, 3 - 0.01j, 1 - 0.05j])
def test_alpha_second_sheet_near_cut(z):
    # the lam=0.1 pole sits at Im z = -0.0115; the integrand there varies on
    # the scale |Im z|, far below the node spacing of the fixed rule
    assert abs(alpha(z, "second", MODEL) - _alpha_second_quad(z, MODEL)) < 1e-11


@pytest.mark.parametrize("lam", [0.05, 0.1, 0.15])
def test_find_pole_against_adaptive_reference(lam):
    model = FriedrichsModel(1.0, lam)
    z, h = 1.0 - 1j * np.pi * lam ** 2 * np.exp(-1.0), 1e-7
    for _ in range(20):
        step = _alpha_second_quad(z, model) / (
            (_alpha_second_quad(z + h, model) - _alpha_second_quad(z - h, model)) / (2 * h))
        z -= step
        if abs(step) < 1e-15:
            break
    gamma1 = -2.0 * z.imag
    assert abs(find_pole(model).gamma1 - gamma1) / gamma1 < 1e-10


def test_alpha_continuous_across_cut():
    for x in (0.5, 1.0, 3.0, 7.0):
        eps = 1e-10
        top = alpha(x + 1j * eps, "first", MODEL)
        bot = alpha(x - 1j * eps, "second", MODEL)
        assert abs(top - bot) < 1e-8


@pytest.mark.parametrize("x", [0.3, 1.0, 5.0])
def test_alpha_second_sheet_on_cut_is_limit_from_below(x):
    # alpha_II continues alpha_I from above, so alpha_II(x - i0) = alpha_I(x + i0)
    on_cut = alpha(x, "second", MODEL)
    assert abs(on_cut - alpha(x - 1e-12j, "second", MODEL)) < 1e-10
    assert on_cut == alpha(np.array([x, x + 1j]), "second", MODEL)[0]


def _cut_alpha_exact(w, model):
    """alpha(w + i0) for the default g, from PV int e^-u/(w-u) = e^-w (Ei(w) - Ei(w-W))."""
    pv = np.exp(-w) * (expi(w) - expi(w - model.omega_max))
    return w - model.omega1 - model.lam ** 2 * (pv - 1j * np.pi * np.exp(-w))


def test_cut_rule_on_and_next_to_its_own_nodes():
    # omega on a Gauss-Legendre node makes the subtracted integrand 0/0 there,
    # and one ulp off it the quotient cancels; all 400 nodes span several
    # row chunks
    nodes = 0.5 * MODEL.omega_max * (_gauss_legendre()[0] + 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for w in (nodes, np.nextafter(nodes, np.inf), np.nextafter(nodes, -np.inf)[1:],
                  nodes + 1e-9, nodes[1:] - 1e-6):
            got = alpha(w, "second", MODEL)
            assert np.abs(got - _cut_alpha_exact(w, MODEL)).max() < 1e-12
        one = alpha(nodes[100], "second", MODEL)
        pv = _cut_integral(np.array([nodes[100]]), MODEL)[0].real
    assert one == alpha(nodes, "second", MODEL)[100]
    assert abs(one - alpha(np.nextafter(nodes[100], np.inf), "second", MODEL)) < 1e-12
    exact = np.exp(-nodes[100]) * (expi(nodes[100]) - expi(nodes[100] - MODEL.omega_max))
    assert abs(pv - exact) < 1e-12


def test_alpha_rejects_cut_points():
    with pytest.raises(ValueError):
        alpha(1.0, "first", MODEL)
    with pytest.raises(ValueError):
        alpha(1.0 + 0.1j, "third", MODEL)
    # the first sheet has no value on [0, W], the second none at its ends,
    # also as one point of an array
    for sheet, x in (("first", 0.0), ("first", 5.0), ("second", 0.0),
                     ("second", MODEL.omega_max)):
        for arg in (x, np.array([1.0 - 0.2j, x])):
            with pytest.raises(ValueError, match="cut"):
                alpha(arg, sheet, MODEL)


def test_alpha_takes_arrays_on_and_off_the_cut():
    # one call over cut and off-cut points keeps the shape and gives each
    # point the scalar call's value
    z = np.array([[0.3, 1.0 - 0.2j, 25.0], [-1.0, 5.0, 2.0 + 0.5j]])
    for sheet, pts in (("second", z), ("first", z[z.imag != 0])):
        got = alpha(pts, sheet, MODEL)
        want = np.array([alpha(x, sheet, MODEL) for x in pts.ravel()]).reshape(pts.shape)
        assert got.shape == pts.shape
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


def test_boundary_alpha_is_cut_limit():
    xs = (0.3, 1.0, 5.0)
    lims = np.array([alpha(x + 1e-9j, "first", MODEL) for x in xs])
    for x, lim in zip(xs, lims):
        assert isinstance(alpha(x, "second", MODEL), complex)
        assert abs(alpha(x, "second", MODEL) - lim) < 1e-7
    assert np.abs(alpha(np.array(xs), "second", MODEL) - lims).max() < 1e-7
    # an array in gives an array of its length, also for lengths 1 and 0
    one = alpha(np.array([xs[0]]), "second", MODEL)
    assert isinstance(one, np.ndarray) and one.shape == (1,)
    assert abs(one[0] - lims[0]) < 1e-7
    assert alpha(np.array([]), "second", MODEL).shape == (0,)


def test_principal_value_against_closed_form():
    # PV int_0^W e^-u/(w-u) du = e^-w (Ei(w) - Ei(w-W))
    from scipy.special import expi
    for w in (0.5, 1.0, 2.5):
        exact = np.exp(-w) * (expi(w) - expi(w - MODEL.omega_max))
        assert abs(_cut_integral(np.array([w]), MODEL)[0].real - exact) < 1e-10


@pytest.mark.parametrize("omega1", [0.1, 1.0, 4.0, 20.0])
def test_cut_integral_against_closed_form_across_band_widths(omega1):
    # int_0^W e^-u/(z-u) du = e^-z (Ei(z) - Ei(z - W)) off the cut, where the
    # segment from z - W to z misses Ei's branch cut (-inf, 0], and PV - i pi e^-x
    # on it.  The worst relative error grows with W = 20 omega1: 1.6e-14, 2.2e-13,
    # 9.8e-13 and 5.2e-12 at these omega1
    model = FriedrichsModel(omega1=omega1, lam=0.1)
    w_max = model.omega_max
    x = w_max * np.concatenate((np.linspace(0.005, 0.995, 199), [1e-6, 1e-3, 1 - 1e-3, 1 - 1e-6]))
    cases = [(x, np.exp(-x) * (expi(x) - expi(x - w_max) - 1j * np.pi))]
    cases += [(z, np.exp(-z) * (expi(z) - expi(z - w_max)))
              for z in (x + 1e-6j * w_max, x - 1e-6j * w_max)]
    for z, exact in cases:
        assert (np.abs(_cut_integral(z, model) - exact) / np.abs(exact)).max() < 1e-11


def test_find_pole_residual_and_golden_rule():
    pole = find_pole(MODEL)
    assert pole.residual < 1e-10
    assert pole.gamma1 > 0
    golden = 2 * np.pi * MODEL.lam ** 2 * np.exp(-1.0)
    assert abs(pole.gamma1 - golden) / golden < 0.10
    shift = MODEL.lam ** 2 * _cut_integral(np.array([1.0]), MODEL)[0].real
    assert abs((pole.beta1 - 1.0) - shift) / abs(shift) < 0.10


def test_pole_approaches_bare_level():
    prev = None
    for lam in (0.05, 0.02, 0.01):
        p = find_pole(FriedrichsModel(1.0, lam))
        scaled = abs(p.z - 1.0) / lam ** 2
        if prev is not None:
            assert abs(scaled - prev) / prev < 0.05  # O(lam^2) scaling
        prev = scaled


def test_find_pole_stops_on_a_zero_difference_quotient():
    # g^2(omega1) underflows, so the first iterate is real; Newton doubles z
    # along the real axis until z +- h rounds to z and the quotient is 0
    for omega1, lam in ((1000.0, 1e50), (700.0, 1e100), (745.0, 1e120), (1000.0, 1e153)):
        with pytest.raises(RuntimeError, match="pole search did not converge"):
            find_pole(FriedrichsModel(omega1=omega1, lam=lam))


def test_find_pole_stops_on_a_float_overflow():
    # an iterate reaches Re z = -2e8, where g^2 = e^-z overflows, whether
    # numpy's warnings are raised or ignored
    model = FriedrichsModel(omega1=100.0, lam=1e50)
    for action in ("error", "ignore"):
        with warnings.catch_warnings():
            warnings.simplefilter(action, RuntimeWarning)
            with pytest.raises(RuntimeError, match="pole search did not converge"):
                find_pole(model)


def _stand_in_alpha(first, off, calls):
    """A stand-in for alpha: first at Re z = 1, MODEL's first iterate, and
    +-off right and left of it; it records each z it is called at."""
    def fake(z, sheet, model):
        calls.append(z)
        return complex(first if z.real == 1.0 else math.copysign(off, z.real - 1.0))
    return fake


def test_find_pole_stops_on_a_non_finite_difference_quotient(monkeypatch):
    # the quotient 2e303 / 2e-6 overflows to inf, and its step 1/inf = 0
    # must not pass for convergence
    calls = []
    monkeypatch.setattr(friedrichs, "alpha", _stand_in_alpha(1.0, 1e303, calls))
    with pytest.raises(RuntimeError, match="pole search did not converge"):
        find_pole(MODEL)
    assert len(calls) == 3  # the first step's evaluations, no more


def test_find_pole_stops_on_a_non_finite_iterate(monkeypatch):
    # the quotient 1e-300 is finite, and the step 1e300 / 1e-300 overflows
    calls = []
    monkeypatch.setattr(friedrichs, "alpha", _stand_in_alpha(1e300, 1e-306, calls))
    with pytest.raises(RuntimeError, match="pole search did not converge"):
        find_pole(MODEL)
    assert len(calls) == 3


def test_spectral_density_normalized():
    _, psi, dw = spectral_density(MODEL, 20001)
    assert abs(psi.sum() * dw - 1.0) < 1e-6


def test_survival_trivial_cases():
    rep = survival_probability(FriedrichsModel(1.0, 0.0), [0.0, 1.0, 10.0])
    assert np.allclose(rep["p_oracle"], 1.0)
    t = np.array([0.0])
    a = survival_amplitude_oracle(MODEL, t, n_modes=400)
    assert abs(abs(a[0]) ** 2 - 1.0) < 1e-12


def test_discretization_shape():
    h, w = discretize(MODEL, 100)
    assert h.shape == (101, 101)
    assert np.allclose(h, h.T)
    assert w.size == 100


def _decimal_weight(h, lam0):
    """|<1|l>|^2 = 1/F'(l) at the secular root nearest lam0, by Newton's
    method in 50-digit decimal arithmetic on the entries of h."""
    with localcontext() as ctx:
        ctx.prec = 50
        a = Decimal(h[0, 0])
        poles = [(Decimal(c) ** 2, Decimal(w)) for c, w in zip(h[0, 1:], np.diag(h)[1:])]
        lam = Decimal(lam0)
        for _ in range(3):  # lam0 is good to ~1e-16, so 3 steps reach 1e-50
            f = lam - a - sum(z / (lam - w) for z, w in poles)
            fp = 1 + sum(z / (lam - w) ** 2 for z, w in poles)
            lam -= f / fp
        return float(1 / (1 + sum(z / (lam - w) ** 2 for z, w in poles)))


@pytest.mark.parametrize("n", (50, 400))
@pytest.mark.parametrize("omega1", (0.1, 1.0, 5.0, 100.0))
@pytest.mark.parametrize("lam", (1e-3, 0.05, 0.5, 2.0))
def test_arrowhead_spectrum_matches_dense(lam, omega1, n):
    model = FriedrichsModel(omega1=omega1, lam=lam)
    h, _ = discretize(model, n)
    ev, vec = np.linalg.eigh(h)
    evals, weights = _arrowhead_spectrum(model, n)
    order = np.argsort(evals, kind="stable")
    evals, weights = evals[order], weights[order]
    assert np.all(np.isfinite(weights))
    assert np.abs(evals - ev).max() <= 1e-12 * max(1.0, model.omega_max)
    assert abs(weights.sum() - 1.0) <= 1e-12
    # eigh's eigenvectors are only good to eps ||H|| / gap (Davis-Kahan): at
    # n=50 omega1 sits on a grid pole and its weights there are off by 6e-12.
    # Where that bound passes 1e-13 the reference is 50-digit arithmetic;
    # deflated modes (weight 0 on a pole) have no root to refine.
    with np.errstate(divide="ignore"):
        gap = np.minimum(np.diff(ev, prepend=-np.inf), np.diff(ev, append=np.inf))
        sharp = np.finfo(float).eps * np.linalg.norm(h, 2) / gap < 1e-13
    assert np.abs(weights - vec[0] ** 2)[sharp].max() <= 1e-12
    for i in np.flatnonzero(~sharp & (weights > 0)):
        assert abs(weights[i] - _decimal_weight(h, evals[i])) <= 1e-12


def _secular_sums_masked(d, z2, origin, y, sign, j):
    """The masked reductions the banded sums replaced: sum q, sum |q|, and
    the sums of p over the left and over the right poles."""
    out = np.empty((4, y.size))
    cols = np.arange(d.size)
    for s in range(0, y.size, 32):
        r = slice(s, s + 32)
        diff = np.subtract.outer(origin[r], d)
        diff += (sign[r] * y[r])[:, None]
        q = z2 / diff
        p = np.divide(q, diff, out=diff)
        left = cols < j[r, None]
        out[0, r] = q.sum(1)
        out[1, r] = 2.0 * q.sum(1, where=left) - out[0, r]
        out[2, r] = p.sum(1, where=left)
        out[3, r] = p.sum(1, where=~left)
    return out


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 2500), share=st.floats(0.001, 1.0), seed=st.integers(0, 2 ** 32 - 1))
def test_banded_secular_sums_match_masked(n, share, seed):
    rng = np.random.default_rng(seed)
    d = np.cumsum(rng.exponential(size=n) * 10.0 ** rng.uniform(-3, 1))
    z2 = rng.random(n) * 10.0 ** rng.uniform(-6, 0, n)
    # an ascending, possibly sparse, set of roots, each at a random point of
    # its gap and measured from either end of it; the end roots sit outside
    j = np.flatnonzero(rng.random(n + 1) < share)
    if j.size == 0:
        j = np.array([int(rng.integers(n + 1))])
    gap = np.append(np.diff(d, prepend=d[0] - 1.0), 1.0)
    sign = np.where(j == 0, -1.0, np.where(j == n, 1.0, rng.choice([-1.0, 1.0], j.size)))
    origin = np.where(sign > 0, d[np.maximum(j - 1, 0)], d[np.minimum(j, n - 1)])
    y = rng.uniform(0.01, 0.99, j.size) * gap[j]
    q_left, q_right, p_left, p_right = _secular_sums(d, z2, origin, y, sign, j)
    q_sum, q_abs, p_left_ref, p_right_ref = _secular_sums_masked(d, z2, origin, y, sign, j)
    assert np.all(np.abs(q_left + q_right - q_sum) <= 1e-13 * q_abs)
    assert np.all(np.abs(q_left - q_right - q_abs) <= 1e-13 * q_abs)
    assert np.all(np.abs(p_left - p_left_ref) <= 1e-13 * p_left_ref)
    assert np.all(np.abs(p_right - p_right_ref) <= 1e-13 * p_right_ref)


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 2000), rows=st.integers(1, 3),
       kernel=st.sampled_from(["cauchy", "far", "random"]), seed=st.integers(0, 2 ** 32 - 1))
def test_toeplitz_product_matches_the_direct_sum(m, rows, kernel, seed):
    # an FFT convolution of length L rounds to a few eps log2(L) of
    # ||values|| ||kernel|| (Higham 2002, sec. 24.1), which bounds every sum
    # of |terms|; an output's own sum of |terms| can be far smaller
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((rows, m)) * 10.0 ** rng.uniform(-8, 8, (rows, m))
    lags = np.arange(1 - m, m, dtype=float)
    if kernel == "cauchy":
        k = 1.0 / (lags + 0.5)
    elif kernel == "far":
        k = np.divide(1.0, lags ** int(rng.integers(1, 18)), out=np.zeros_like(lags),
                      where=np.abs(lags) > 8)
    else:
        k = rng.standard_normal(lags.size)
    got = _toeplitz_cauchy(values, np.fft.rfft(k, friedrichs._fft_size(2 * m - 1)))
    assert got.shape == (rows, m)
    scale = 2.0 * max(np.log2(friedrichs._fft_size(2 * m - 1)), 1.0) * np.finfo(float).eps
    for row, out in zip(values, got):
        direct = np.convolve(row, k)[m - 1:2 * m - 1]
        assert np.abs(out - direct).max() <= scale * np.linalg.norm(row) * np.linalg.norm(k)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(15, 10 ** 5))
def test_end_weights_integrate_polynomials_below_degree_8(n):
    # the nodes 0..n scaled to [0, 1], trapezoid weights plus the corrections
    delta = _end_weights()
    x = np.arange(n + 1) / n
    w = np.full(n + 1, 1.0 / n)
    w[:8] += delta / n
    w[-8:] += delta[::-1] / n
    for p in range(8):
        assert abs(w @ x ** p * (p + 1) - 1.0) <= 1e-13


def _density_by_cut_rule(model, n_points):
    """psi as the 400-node Gauss-Legendre rule of alpha (_cut_integral) gives it."""
    wgrid = (np.arange(n_points) + 0.5) * (model.omega_max / n_points)
    return wgrid, model.lam ** 2 * model.g2(wgrid) / np.abs(alpha(wgrid, "second", model)) ** 2


@settings(max_examples=4, deadline=None)
@given(lam=st.floats(0.05, 0.3))
def test_density_matches_the_cut_rule(lam):
    model = FriedrichsModel(omega1=1.0, lam=lam)
    for n_points in (1, 2, 17, 401, 2001, 40001):
        wgrid, psi, dw = spectral_density(model, n_points)
        ref_grid, ref = _density_by_cut_rule(model, n_points)
        assert np.array_equal(wgrid, ref_grid) and dw == model.omega_max / n_points
        assert np.abs(psi / ref - 1.0).max() <= 1e-12


@pytest.mark.parametrize("omega1", [0.7, 1.0, 4.0])
def test_density_matches_its_closed_form(omega1):
    # psi = lam^2 e^-w / |alpha(w + i0)|^2 for the default g, alpha from Ei
    for lam in (0.05, 0.1, 0.15, 0.3):
        model = FriedrichsModel(omega1=omega1, lam=lam)
        for n_points in (2001, 40001):
            wgrid, psi, _ = spectral_density(model, n_points)
            exact = lam ** 2 * np.exp(-wgrid) / np.abs(_cut_alpha_exact(wgrid, model)) ** 2
            assert np.abs(psi / exact - 1.0).max() <= 1e-14


def _density_two_rows(model, n_points):
    """psi with both Cauchy sums, of w_k g^2(u_k) and of w_k, from one
    two-row Toeplitz product, the kernel transformed here."""
    w_max = model.omega_max
    dw = w_max / n_points
    wgrid = (np.arange(n_points) + 0.5) * dw
    r = -(-400 // n_points) | 1
    nodes = n_points * r + 1
    i = np.arange((r - 1) // 2, nodes - 1, r)
    delta = _end_weights()
    wts = np.ones(nodes)
    wts[:8] += delta
    wts[-8:] += delta[::-1]
    kernel = 1.0 / np.arange(1.5 - nodes, nodes)
    g2w = model.g2(wgrid)
    values = np.stack((wts * model.g2(np.arange(nodes) * (dw / r)), wts))
    kernel_spec = np.fft.rfft(kernel, friedrichs._fft_size(2 * nodes - 1))
    s_g2, s_w = _toeplitz_cauchy(values, kernel_spec)[:, i]
    pv = (s_g2 - g2w * s_w) + g2w * (np.log(wgrid) - np.log(w_max - wgrid))
    alpha_cut = wgrid - model.omega1 - model.lam ** 2 * (pv - 1j * np.pi * g2w)
    return model.lam ** 2 * g2w / np.abs(alpha_cut) ** 2


def test_density_plan_is_one_read_only_plan_per_size(monkeypatch):
    friedrichs._density_plan.cache_clear()
    builds = _count_calls(monkeypatch, "_end_weights")  # once per plan
    for lam in (0.1, 0.13):
        model = FriedrichsModel(omega1=1.0, lam=lam)
        assert np.array_equal(spectral_density(model)[1], _density_two_rows(model, N_POINTS))
    assert len(builds) == 1
    plan = friedrichs._density_plan(N_POINTS)
    for arr in plan[2:]:
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0
    model = FriedrichsModel(omega1=0.7, lam=0.3)
    assert np.array_equal(spectral_density(model, 2001)[1], _density_two_rows(model, 2001))
    assert len(builds) == 2 and friedrichs._density_plan.cache_info().currsize == 1
    assert friedrichs._density_plan(N_POINTS) is not plan and len(builds) == 3


def test_far_field_spectrum_matches_the_exact_sweeps(monkeypatch):
    # Every coupling is kept, one run of the grid.  A root passes the
    # stopping test when |G| <= 8 eps S, S = |o - a| + y + sum|q| <= |l - a|
    # + 2 y + sum|q|, y its distance from its pole, so it lies within
    # 8 eps S / G' of the true root, G' = 1 + sum p; l = o + s y then rounds
    # by half an ulp.
    model = FriedrichsModel(omega1=1.0, lam=0.12)
    fields = _count_calls(monkeypatch, "_far_field")
    rows, secular_sums = [], friedrichs._secular_sums
    monkeypatch.setattr(friedrichs, "_secular_sums",
                        lambda *args: rows.append(args[-1]) or secular_sums(*args))
    solved, secular_roots = [], friedrichs._secular_roots
    monkeypatch.setattr(friedrichs, "_secular_roots",
                        lambda *args: solved.append(secular_roots(*args)) or solved[-1])
    evals, weights = _solve_arrowhead(model, 2000)
    assert len(fields) == 1
    # the roots that take exact sums are the two end roots and those the far
    # sums' error bound does not certify, under 10 %
    far = solved[0][4]
    assert not far[0] and not far[-1]
    assert np.array_equal(np.unique(np.concatenate(rows)), np.flatnonzero(~far))
    assert np.count_nonzero(~far) < 0.1 * 2001
    monkeypatch.setattr(friedrichs, "_far_field", lambda z2: None)
    exact_evals, exact_weights = _solve_arrowhead(model, 2000)
    d, c = friedrichs._mode_grid(model, 2000)
    j = np.arange(d.size + 1)
    q_left, q_right, p_left, p_right = _secular_sums(d, c ** 2, exact_evals, np.zeros(j.size),
                                                     np.ones(j.size), j)
    y = np.abs(exact_evals[:, None] - d).min(1)
    scale = np.abs(exact_evals - model.omega1) + 2.0 * y + (q_left - q_right)
    eps = np.finfo(float).eps
    bound = 16.0 * eps * scale / (1.0 + p_left + p_right) + eps * np.abs(exact_evals)
    assert np.all(np.abs(evals - exact_evals) <= bound)
    assert np.all(np.abs(weights - exact_weights) <= 1e-13 * exact_weights)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 3000), seed=st.integers(0, 2 ** 32 - 1))
def test_far_field_sums_match_the_exact_sums(n, seed):
    # g^2-like couplings on a uniform grid and every interior root at a
    # random offset from either end of its gap; the FFT rounds to a few eps
    # of the largest sums, not of each root's own
    rng = np.random.default_rng(seed)
    dw = 10.0 ** rng.uniform(-3, 0)
    d = (np.arange(n) + 0.5) * dw
    z2 = 10.0 ** rng.uniform(-8, 0) * np.exp(-rng.uniform(0, 20) * np.arange(n) / n)
    j = np.arange(1, n)
    sign = rng.choice([-1.0, 1.0], j.size)
    pole = j - (sign > 0)
    y = rng.uniform(1e-9, 0.5, j.size) * dw
    exact = _secular_sums(d, z2, d[pole], y, sign, j)
    far = friedrichs._far_sums(friedrichs._far_field(z2), z2, dw, pole, sign * y / dw, j)
    q_abs, p_sum = exact[0] - exact[1], exact[2] + exact[3]
    for got, want, scale in zip(far, exact, (q_abs, q_abs, p_sum, p_sum)):
        assert np.abs(got - want).max() <= 32.0 * np.finfo(float).eps * scale.max()


def _toeplitz_by_rows(values, kernel):
    """The Toeplitz product one pair of rows at a time, each kernel row
    transformed alone: the loop _toeplitz_cauchy broadcasts."""
    m = values.shape[-1]
    size = friedrichs._fft_size(2 * m - 1)
    spec = np.fft.rfft(values, size)
    out = np.empty(kernel.shape[:-1] + values.shape)
    for r in np.ndindex(kernel.shape[:-1]):
        kernel_spec = np.fft.rfft(kernel[r], size)
        for s in np.ndindex(values.shape[:-1]):
            out[r + s] = np.fft.irfft(spec[s] * kernel_spec, size)[m - 1:2 * m - 1]
    return out


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 4000), seed=st.integers(0, 2 ** 32 - 1))
@example(n=2, seed=0)
def test_far_field_broadcast_matches_the_row_loop(n, seed):
    # the kernel rows m^-(p+1), m > _FAR_BAND, transformed in one batch and
    # broadcast over both value rows give the row-by-row field bit for bit
    rng = np.random.default_rng(seed)
    z2 = 10.0 ** rng.uniform(-8, 0, n)
    terms = friedrichs._FAR_TERMS + 1
    kernel = np.zeros((terms, 2 * n - 1))
    inv = 1.0 / np.arange(friedrichs._FAR_BAND + 1, n)
    row = inv
    for p in range(terms):
        kernel[p, n + friedrichs._FAR_BAND:] = row
        row = row * inv
    field = _toeplitz_by_rows(np.stack((z2, z2[::-1])), kernel)
    field[:, 1] = field[:, 1, ::-1] * (-1.0) ** np.arange(1, terms + 1)[:, None]
    assert np.array_equal(friedrichs._far_field(z2), field)


def test_split_pole_runs_take_the_exact_sweeps(monkeypatch):
    # couplings vanish for |omega - 5| < 1, so the kept poles are two runs of
    # the grid and every sweep is exact
    def g(w):
        w = np.asarray(w)
        return np.where(np.abs(w - 5.0) < 1.0, 0.0, np.exp(-w / 2.0))

    model = FriedrichsModel(omega1=1.0, lam=0.3, g=g)
    fields = _count_calls(monkeypatch, "_far_field")
    evals, weights = _arrowhead_spectrum(model, 400)
    assert fields == []
    h, _ = discretize(model, 400)
    assert np.count_nonzero(h[0, 1:] == 0.0) == 40
    ev, vec = np.linalg.eigh(h)
    order = np.argsort(evals, kind="stable")
    assert np.abs(evals[order] - ev).max() <= 1e-12 * model.omega_max
    assert abs(weights.sum() - 1.0) <= 1e-12
    assert np.abs(weights[order] - vec[0] ** 2).max() <= 1e-12


def _secular_sums_extended(d, z2, origin, y, sign, j):
    """_secular_sums in numpy's extended precision, summed per row: the
    exact sums with rounding far below double's.  The BLAS sums of
    _secular_sums round by up to N u of sum |q| (12 eps of |q| at N = 3505),
    which can decide the stopping test at its threshold."""
    ext = np.longdouble
    out = np.empty((4, y.size), dtype=ext)
    cols = np.arange(d.size)
    for s in range(0, y.size, 256):
        r = slice(s, s + 256)
        diff = (origin[r, None].astype(ext) - d.astype(ext)) + (sign[r] * y[r]).astype(ext)[:, None]
        q = z2.astype(ext) / diff
        p = q / diff
        left = cols < j[r, None]
        out[:, r] = (np.where(left, q, 0.0).sum(1), np.where(left, 0.0, q).sum(1),
                     np.where(left, p, 0.0).sum(1), np.where(left, 0.0, p).sum(1))
    return out


@settings(max_examples=12, deadline=None)
@given(lam=st.floats(0.05, 0.4), omega1=st.floats(0.5, 4.0), n=st.integers(50, 4000))
@example(lam=0.12, omega1=1.0, n=2000)
@example(lam=0.16962815337903958, omega1=2.4028425138395946, n=3505)
def test_roots_stopped_on_far_sums_pass_the_exact_test(lam, omega1, n):
    # a root stops on far sums only when their error bound puts it inside the
    # stopping test on exact sums at the offset it returns, and its weight is
    # within 1e-13 of the exact sums' there
    solved, secular_roots = [], friedrichs._secular_roots
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(friedrichs, "_secular_roots",
                   lambda *args: solved.append((args, secular_roots(*args))) or solved[-1][1])
        _solve_arrowhead(FriedrichsModel(omega1=omega1, lam=lam), n)
    (a, d, z2, _, field, _), (origin, sign, y, weights, far) = solved[0]
    assert field is not None and far.any()
    r = np.flatnonzero(far)
    o, s = origin[r], sign[r]
    q_left, q_right, p_left, p_right = _secular_sums_extended(d, z2, o, y[r], s, r)
    o_a = o.astype(np.longdouble) - a
    g = s * (o_a + s * y[r] - (q_left + q_right))
    assert np.all(np.abs(g) <= 8.0 * np.finfo(float).eps * (np.abs(o_a) + y[r] + (q_left - q_right)))
    exact_weights = 1.0 / (1.0 + p_left + p_right)
    assert np.all(np.abs(weights[r] - exact_weights) <= 1e-13 * exact_weights)


@pytest.mark.parametrize("omega1, lam", [(1e-140, 1e-80), (1e-100, 1e-60), (1e-100, 1e-50)])
def test_tiny_band_widths_solve_in_band_units(omega1, lam):
    # in absolute units the first overflowed and the others did not converge
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        evals, weights = _arrowhead_spectrum(FriedrichsModel(omega1=omega1, lam=lam), 2000)
    assert np.isfinite(evals).all() and np.all(weights >= 0.0)
    assert abs(weights.sum() - 1.0) <= 1e-15


@pytest.mark.parametrize("t", [np.linspace(3.0, 700.0, 57), [-1e-4, 1e-4], [123.4]])
def test_quadrature_matches_direct_sum(t):
    wgrid, psi, dw = spectral_density(MODEL, 2001)
    direct = [np.sum(psi * np.exp(-1j * wgrid * s)) * dw for s in t]
    chirp = survival_amplitude_quadrature(MODEL, t, n_points=2001)
    assert np.abs(chirp - direct).max() < 1e-12


def _direct_phase_sum(evals, weights, t):
    """sum_l w_l e^{-i l t} with cos and sin at every (time, eigenvalue) pair."""
    out = np.empty(t.size, dtype=complex)
    for s in range(0, t.size, 32):
        ph = np.outer(t[s:s + 32], evals)
        out[s:s + 32] = np.cos(ph) @ weights - 1j * (np.sin(ph, out=ph) @ weights)
    return out


@settings(max_examples=40, deadline=None)
@given(n_t=st.integers(1, 2500), n_modes=st.integers(1, 400), t0=st.floats(-1000.0, 1000.0),
       log_dt=st.floats(-4.0, 1.0), lam=st.floats(0.01, 1.0), omega1=st.floats(0.1, 10.0))
@example(n_t=26, n_modes=198, t0=0.0, log_dt=-4.0, lam=0.5, omega1=0.25)
def test_factored_oracle_matches_direct_phase_sum(n_t, n_modes, t0, log_dt, lam, omega1):
    # Phases: each factor's phase is rounded once, as the direct phase is, so
    # that error stays a few eps of the largest phase.  Sums: with u = eps/2,
    # a k-term dot product summed in any order is within gamma_k sum|terms|,
    # gamma_k ~ k u, of its value (Higham 2002, sec. 3.1).  Per time, the
    # direct route's real and imaginary parts are N-term dot products of the
    # weights, N = evals.size, with one more rounding per term (gamma_{N+1});
    # the factored route's are 2N-term sums of (cos a)(w cos b) and
    # (sin a)(w sin b), with two products per term and one combination
    # (gamma_{2N+2}).  The weights are >= 0 and sum to 1, and
    # |cos a cos b| + |sin a sin b| <= 1, so each part of the two routes
    # differs by at most gamma_{N+1} + gamma_{2N+2} ~ 3 (N + 1) u, and the
    # modulus by twice that, 3 (N + 1) eps.
    model = FriedrichsModel(omega1=omega1, lam=lam)
    t = t0 + 10.0 ** log_dt * np.arange(n_t)
    evals, weights = _arrowhead_spectrum(model, n_modes)
    got = survival_amplitude_oracle(model, t, n_modes)
    eps = np.finfo(float).eps
    bound = (4.0 * (1.0 + np.abs(t).max() * np.abs(evals).max()) + 3.0 * (evals.size + 1)) * eps
    assert got.shape == (n_t,)
    assert np.abs(got - _direct_phase_sum(evals, weights, t)).max() <= bound


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="long double has no extra precision here")
def test_factored_oracle_is_as_accurate_as_the_direct_sum():
    # criterion 07's grid, against the phase sum in long double
    t = np.linspace(0.0, 200.0, 401)
    evals, weights = _arrowhead_spectrum(MODEL, 2000)
    ph = np.outer(t.astype(np.longdouble), evals.astype(np.longdouble))
    wl = weights.astype(np.longdouble)
    exact = (np.cos(ph) @ wl).astype(float) - 1j * (np.sin(ph) @ wl).astype(float)
    factored = np.abs(survival_amplitude_oracle(MODEL, t) - exact).max()
    assert factored <= np.abs(_direct_phase_sum(evals, weights, t) - exact).max()
    assert factored < 1e-14


@settings(max_examples=40, deadline=None)
@given(n_points=st.integers(1, 3000), n_t=st.integers(1, 200), t0=st.floats(-350.0, 350.0),
       span=st.floats(1e-3, 350.0))
# grids with a midpoint on omega1, where sum |psi| dw reaches 8 to 40
@example(n_points=50, n_t=18, t0=272.0, span=241.0)
@example(n_points=10, n_t=10, t0=79.0, span=83.0)
@example(n_points=30, n_t=30, t0=264.0, span=276.0)
def test_quadrature_matches_direct_sum_on_random_grids(n_points, n_t, t0, span):
    # The direct sum runs in long double on the route's own lattice,
    # omega_k = (k + 1/2) dw and t_m = t_0 + m dt, so what is left is the
    # route's rounding, term k relative to x_k = |psi_k dw|:
    # - u = dw t_0/(4 pi) and b = dw dt/(4 pi) each take two roundings and
    #   fl(pi)'s, under 1.2 eps relative; _turns reduces them exactly, so the
    #   phase omega_k t_m moves by at most 1.2 eps omega_k (|t_0| + |m dt|);
    # - a _turns value sums four exact fractions, 3 eps of a turn; the input
    #   phase adds two such values, and the 2 pi scaling, exp and the
    #   products add a few eps each: under 100 eps over the three factors;
    # - the three complex FFTs of the Bluestein convolution round each output
    #   by _FFT_ERR log2(L) eps ||x||_2 ||kernel||_2, the kernel's
    #   n_points + n_t - 1 entries of modulus 1 (_toeplitz_cauchy's form).
    # The reference adds its own rounding at long double's eps: the phase
    # term and n_points of sum x_k.
    wgrid, psi, dw = spectral_density(MODEL, n_points)
    t = t0 + span / max(n_t - 1, 1) * np.arange(n_t)
    chirp = survival_amplitude_quadrature(MODEL, t, n_points=n_points)
    assert chirp.shape == (n_t,)
    lo, dt = friedrichs._even_grid(t)
    ld = np.longdouble
    ph = np.outer(lo + np.arange(n_t, dtype=ld) * dt, (np.arange(n_points, dtype=ld) + 0.5) * dw)
    wt = psi.astype(ld) * dw
    direct = (np.cos(ph) @ wt).astype(float) - 1j * (np.sin(ph) @ wt).astype(float)
    eps, eps_ld = np.finfo(float).eps, np.finfo(ld).eps
    x = np.abs(psi * dw)
    phase = 1.2 * (x @ wgrid) * (abs(lo) + abs(dt) * (n_t - 1))
    size = n_points + n_t - 1
    fft = friedrichs._FFT_ERR * math.log2(friedrichs._fft_size(size)) * math.sqrt(size)
    fft *= np.linalg.norm(x)
    bound = eps * (phase + 100.0 * x.sum() + fft) + eps_ld * (phase + n_points * x.sum())
    assert np.abs(chirp - direct).max() <= bound


def test_fft_size_is_the_next_5_smooth_length():
    smooth = np.array(sorted(2 ** a * 3 ** b * 5 ** c for a in range(18)
                             for b in range(12) for c in range(9)))
    smooth = smooth[smooth <= 2 * 10 ** 5]
    # every n up to 3000, each 5-smooth length up to 10**5 with its
    # neighbours, and 5000 more n drawn from [1, 10**5]
    n = np.union1d(np.arange(1, 3001), (smooth[:, None] + [-1, 0, 1]).ravel())
    n = np.union1d(n, np.random.default_rng(20).integers(1, 10 ** 5 + 1, 5000))
    n = n[(n >= 1) & (n <= 10 ** 5)]
    expected = smooth[np.searchsorted(smooth, n)]
    assert [friedrichs._fft_size(int(k)) for k in n] == expected.tolist()


def _count_calls(monkeypatch, name):
    calls = []
    original = getattr(friedrichs, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(friedrichs, name, counted)
    return calls


def test_spectrum_and_density_are_solved_once_per_model_and_size(monkeypatch):
    model = FriedrichsModel(omega1=1.0, lam=0.12)
    sweeps = _count_calls(monkeypatch, "_secular_sums")
    fields = _count_calls(monkeypatch, "_far_field")
    products = _count_calls(monkeypatch, "_toeplitz_cauchy")
    plans = friedrichs._density_plan.cache_info().misses

    def rules():  # the density's Toeplitz products; each far field and density plan makes one too
        return len(products) - len(fields) - (friedrichs._density_plan.cache_info().misses - plans)

    evals, weights = spectrum = _arrowhead_spectrum(model, 401)
    # one size for both: the memo keeps them apart
    wgrid, psi, dw = density = spectral_density(model, 401)
    solved = len(sweeps), rules()
    assert min(solved) > 0
    assert _arrowhead_spectrum(model, 401) is spectrum
    assert spectral_density(model, 401) is density
    survival_amplitude_oracle(model, [0.0, 1.0], n_modes=401)
    survival_amplitude_quadrature(model, [0.0, 1.0], n_points=401)
    assert (len(sweeps), rules()) == solved

    assert _arrowhead_spectrum(model, 400)[0].size == 401
    assert len(sweeps) > solved[0]
    assert spectral_density(model, 400)[0].size == 400
    assert rules() > solved[1]

    for arr in (evals, weights, wgrid, psi):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.lam = 0.15

    other = dataclasses.replace(model, lam=0.15)
    assert other._memo == {} and other.omega_max == model.omega_max
    assert dataclasses.replace(model) == model
    assert not np.array_equal(_arrowhead_spectrum(other, 401)[0], evals)
    assert _arrowhead_spectrum(model, 401) is spectrum

    # one survival_probability, its routes on two threads: one solve, one density
    solves = _count_calls(monkeypatch, "_solve_arrowhead")
    before = rules()
    survival_probability(dataclasses.replace(model), [0.0, 1.0], n_modes=401, n_points=401)
    assert (len(solves), rules() - before) == (1, 1)


def test_concurrent_routes_match_sequential_bit_for_bit():
    t = np.linspace(0.0, 50.0, 101)
    for _ in range(5):
        rep = survival_probability(dataclasses.replace(MODEL), t)
        fresh = dataclasses.replace(MODEL)
        p_oracle = np.abs(survival_amplitude_oracle(fresh, t)) ** 2
        p_quadrature = np.abs(survival_amplitude_quadrature(fresh, t)) ** 2
        assert np.array_equal(rep["p_oracle"], p_oracle)
        assert np.array_equal(rep["p_quadrature"], p_quadrature)


def test_concurrent_callers_share_one_model():
    # 4 callers, each with its quadrature worker: 8 threads writing one model's memo
    model = dataclasses.replace(MODEL)
    t = np.linspace(0.0, 5.0, 11)
    reference = survival_probability(dataclasses.replace(MODEL), t, n_modes=101, n_points=401)
    reports, interval = [], sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=lambda: reports.append(
            survival_probability(model, t, n_modes=101, n_points=401))) for _ in range(4)]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers) and len(reports) == 4
    for rep in reports:
        assert np.array_equal(rep["p_oracle"], reference["p_oracle"])
        assert np.array_equal(rep["p_quadrature"], reference["p_quadrature"])
    assert sorted(model._memo) == [("density", 401), ("spectrum", 101)]


@pytest.mark.parametrize("t, n_modes, problem", [([0.0, 1.0, 3.0], 401, "evenly spaced"),
                                                 ([0.0, 1.0], 0, "n_modes")])
def test_route_error_propagates_after_the_worker_is_joined(t, n_modes, problem):
    before = threading.active_count()
    with pytest.raises(ValueError, match=problem):
        survival_probability(dataclasses.replace(MODEL), t, n_modes=n_modes, n_points=401)
    assert threading.active_count() == before


def test_caller_error_state_reaches_the_oracle_worker(monkeypatch):
    seen = []
    oracle = friedrichs.survival_amplitude_oracle

    def spy(*args, **kwargs):
        seen.append((np.geterr()["over"], threading.current_thread()))
        return oracle(*args, **kwargs)

    monkeypatch.setattr(friedrichs, "survival_amplitude_oracle", spy)
    with np.errstate(over="raise"):
        survival_probability(dataclasses.replace(MODEL), [0.0, 1.0], n_modes=401, n_points=401)
    (over, thread), = seen
    assert over == "raise" and thread is not threading.current_thread()


def test_quadrature_runs_on_the_calling_thread(monkeypatch):
    seen = []
    quadrature = friedrichs.survival_amplitude_quadrature

    def spy(*args, **kwargs):
        seen.append(threading.current_thread())
        return quadrature(*args, **kwargs)

    monkeypatch.setattr(friedrichs, "survival_amplitude_quadrature", spy)
    survival_probability(dataclasses.replace(MODEL), [0.0, 1.0], n_modes=401, n_points=401)
    assert seen == [threading.current_thread()]


def test_cached_chirp_plans_give_the_bits_of_fresh_plans():
    plan = friedrichs._chirp_plan
    model = dataclasses.replace(MODEL)
    # t, t_late, t, and t shifted: a plan is keyed by its grid's start too
    grids = [np.linspace(0.0, 200.0, 401), np.linspace(400.0, 1000.0, 61)]
    grids += [grids[0], grids[0] + 1.0]
    plan.cache_clear()
    cached = [survival_amplitude_quadrature(model, t, 4001) for t in grids]
    assert plan.cache_info().hits == 1
    for t, got in zip(grids, cached):
        plan.cache_clear()
        assert np.array_equal(survival_amplitude_quadrature(model, t, 4001), got)
    # a grid starting at -0.0 has the key of one starting at 0.0, and either
    # start builds a plan with the other's bits
    pos = np.arange(11) * 0.5
    neg = pos.copy()
    neg[0] = -0.0
    assert np.signbit(neg[0]) and not np.signbit(pos[0])
    outs = []
    for first, second in ((pos, neg), (neg, pos)):
        plan.cache_clear()
        outs += [survival_amplitude_quadrature(model, t, 401) for t in (first, second)]
        assert plan.cache_info().currsize == 1
    for out in outs[1:]:
        assert np.array_equal(out, outs[0])


def test_chirp_plans_are_few_and_read_only():
    plan = friedrichs._chirp_plan
    model = dataclasses.replace(MODEL)
    for n_t in range(2, 7):
        survival_amplitude_quadrature(model, np.linspace(0.0, 3.0, n_t), 401)
    assert plan.cache_info().currsize <= 2
    arrays = plan(401, 6, 0.0, 0.01)
    assert plan(401, 6, 0.0, 0.01) is arrays
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0


def test_overflowing_chirp_plans_raise_every_time_and_are_not_kept():
    plan = friedrichs._chirp_plan
    model = dataclasses.replace(MODEL)
    # the chirp's largest phase is (2**27 + 1) b, b = dw t / (4 pi), past float range
    dw = spectral_density(model, 401)[2]
    t_big = np.finfo(float).max / 134217729.0 * (4.0 * np.pi) / dw * 1.001
    survival_amplitude_quadrature(model, [0.0, 1.0], 401)
    size = plan.cache_info().currsize
    for _ in range(2):
        with pytest.raises(ValueError, match="overflows"):
            survival_amplitude_quadrature(model, [0.0, t_big], 401)
        assert plan.cache_info().currsize == size


def test_times_that_overflow_a_phase_are_rejected():
    model = dataclasses.replace(MODEL)
    for t in ([np.nan], [0.0, np.inf]):
        for route in (lambda t: survival_probability(model, t, n_modes=50, n_points=401),
                      lambda t: survival_amplitude_oracle(model, t, 50),
                      lambda t: survival_amplitude_quadrature(model, t, 401)):
            with pytest.raises(ValueError, match="finite"):
                route(t)
    big = np.finfo(float).max
    # the oracle's largest phase is t max|lambda|
    oracle_limit = big / np.abs(_arrowhead_spectrum(model, 50)[0]).max()
    assert np.isfinite(survival_amplitude_oracle(model, [0.999 * oracle_limit], 50)).all()
    with pytest.raises(ValueError, match="overflows"):
        survival_amplitude_oracle(model, [1.001 * oracle_limit], 50)
    # the chirp's is (2**27 + 1) b, b = dw t / (4 pi), while n_points**2 < 2**27
    chirp_limit = big / 134217729.0 * (4.0 * np.pi) / spectral_density(model, 401)[2]
    assert chirp_limit < oracle_limit
    before = threading.active_count()
    rep = survival_probability(model, [0.0, 0.999 * chirp_limit], n_modes=50, n_points=401)
    assert np.isfinite(rep["p_oracle"]).all() and np.isfinite(rep["p_quadrature"]).all()
    with pytest.raises(ValueError, match="overflows"):
        survival_probability(model, [0.0, 1.001 * chirp_limit], n_modes=50, n_points=401)
    assert threading.active_count() == before


def test_invalid_sizes_and_grids_rejected():
    with pytest.raises(ValueError):
        survival_amplitude_quadrature(MODEL, [0.0, 1.0, 3.0], n_points=101)
    with pytest.raises(ValueError):
        survival_amplitude_oracle(MODEL, [0.0], n_modes=0)
    with pytest.raises(ValueError):
        discretize(MODEL, 0)
    with pytest.raises(ValueError):
        spectral_density(MODEL, 0)


@pytest.mark.parametrize("route, size", [(survival_amplitude_oracle, 50),
                                         (survival_amplitude_quadrature, 401)])
def test_routes_share_the_grid_contract(route, size):
    model = dataclasses.replace(MODEL)
    for t in ([0.0, 1.0, 3.0], [[0.0, 1.0], [2.0, 2.5]]):
        with pytest.raises(ValueError, match="t_grid must be evenly spaced"):
            route(model, t, size)
    for t in ([], np.empty((0, 3))):
        empty = route(model, t, size)
        assert empty.shape == (0,) and empty.dtype == complex
    # a descending grid is evenly spaced too
    t = np.linspace(5.0, 0.0, 11)
    assert np.allclose(route(model, t, size), route(model, t[::-1].copy(), size)[::-1],
                       rtol=0.0, atol=1e-14)


def test_grid_spans_that_overflow_a_phase_are_rejected():
    # every time is finite and below the single-time limits, but the block
    # phase (n - 1) dt max|lambda| of the oracle, or the span t_last - t_0 of
    # the quadrature, overflows
    model = dataclasses.replace(MODEL)
    big = np.finfo(float).max
    oracle_limit = big / np.abs(_arrowhead_spectrum(model, 50)[0]).max()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="overflows"):
            survival_amplitude_oracle(model, [-0.6 * oracle_limit, 0.0, 0.6 * oracle_limit], 50)
        with pytest.raises(ValueError, match="overflows"):
            survival_amplitude_quadrature(model, [-0.6 * big, 0.6 * big], 401)
        assert np.isfinite(survival_amplitude_oracle(
            model, [0.0, 0.4 * oracle_limit, 0.8 * oracle_limit], 50)).all()


def test_survival_report_is_flat_for_any_grid_shape():
    # every array of the report, and so each CSV row, has one entry per time
    flat = survival_probability(dataclasses.replace(MODEL), np.arange(6.0), n_modes=50,
                                n_points=401)
    for t, n in ((np.arange(6.0).reshape(2, 3), 6), (4.0, 1), ([[4.0]], 1)):
        rep = survival_probability(dataclasses.replace(MODEL), t, n_modes=50, n_points=401)
        for key in ("t", "p_oracle", "p_quadrature", "p_pole", "flagged"):
            assert rep[key].shape == (n,)
        assert len(survival_to_csv(rep).splitlines()) == n + 1
    for key in ("p_oracle", "p_quadrature", "p_pole"):
        assert np.array_equal(
            survival_probability(dataclasses.replace(MODEL), np.arange(6.0).reshape(2, 3),
                                 n_modes=50, n_points=401)[key], flat[key])


def test_survival_two_paths_and_regimes():
    t = np.linspace(0, 200, 101)
    rep = survival_probability(MODEL, t, n_modes=2000, n_points=40001)
    assert not rep["flagged"].any()
    assert np.abs(rep["p_oracle"] - rep["p_quadrature"]).max() < 1e-3
    # Zeno: vanishing derivative at t=0 (P is even in t)
    dt = 1e-4
    pz = np.abs(survival_amplitude_quadrature(MODEL, [-dt, dt], 40001)) ** 2
    assert abs(pz[1] - pz[0]) / (2 * dt) < 1e-6
    # mid-regime exponential at the pole rate
    mask = (t >= 20) & (t <= 120)
    slope = np.polyfit(t[mask], np.log(rep["p_quadrature"][mask]), 1)[0]
    assert abs(-slope - rep["pole"].gamma1) / rep["pole"].gamma1 < 0.10


def test_khalfin_long_time_deviation():
    pole = find_pole(MODEL)
    t = np.linspace(500, 1000, 26)
    assert np.all(t[1:] > 0.5 * recurrence_time(MODEL))
    p = np.abs(survival_amplitude_quadrature(MODEL, t, 40001)) ** 2
    rel = np.abs(p - pole_approximation(pole, t)) / pole_approximation(pole, t)
    assert rel.max() > 0.10


def test_pole_approximation_values():
    pole = find_pole(MODEL)
    assert pole_approximation(pole, 0.0) == 1.0
    assert abs(pole_approximation(pole, 1.0 / pole.gamma1) - np.exp(-1)) < 1e-12


def test_mixed_state_decay_split():
    pole = find_pole(MODEL)
    w = np.linspace(0.01, 10, 100)
    star = np.exp(-w)
    star /= star.sum() * (w[1] - w[0])
    sp = mixed_state_decay(0.3, 0.1 * np.exp(-w), star, pole, w, t=2.0)
    assert np.array_equal(sp["star"], star)
    assert abs(sp["weights"][1] - np.exp(-0.5 * pole.gamma1 * 2.0)) < 1e-14
    assert abs(sp["weights"][2] - np.exp(-pole.gamma1 * 2.0)) < 1e-14
    # trivial: no unstable-level content -> the state is rho* for all t
    sp0 = mixed_state_decay(0.0, np.zeros_like(w), star, pole, w, t=5.0)
    assert sp0["pole"] == 0.0 and np.all(sp0["cross"] == 0)
    # the pole component decays at exactly gamma1
    ts = np.linspace(0.0, 5 / pole.gamma1, 20)
    vals = [mixed_state_decay(0.3, 0 * w, star, pole, w, t)["pole"] for t in ts]
    rate = -np.polyfit(ts, np.log(vals), 1)[0]
    assert abs(rate - pole.gamma1) / pole.gamma1 < 0.01


def test_thermal_many_mode():
    th = thermal_many_mode(0.7, 0.05, lambda x: 0.2 * np.sin(x), t=2.0)
    assert abs(th["trace"] - 1.0) < 1e-10
    assert abs(th["star"].sum() * th["dw"] - 1.0) < 1e-10
    assert abs(th["fluctuation"].sum() * th["dw"]) < 1e-12
    for t in (0.0, 1 / 0.05, 5 / 0.05):
        assert abs(thermal_many_mode(0.7, 0.05, lambda x: 0.2 * np.sin(x),
                                     t=t)["trace"] - 1.0) < 1e-10
    flat = thermal_many_mode(0.7, 0.05, lambda x: np.zeros_like(x), t=3.0)
    assert np.array_equal(flat["state"], flat["star"])
    with pytest.raises(ValueError):
        thermal_many_mode(-1.0, 0.05, lambda x: x, t=0.0)


def test_damping_matrix():
    g = damping_matrix([1 - 0.1j, 2 - 0.05j, 3 + 0j])
    assert np.allclose(g, g.T)
    assert np.all(g >= 0)
    assert g[2, 2] == 0.0
    with pytest.raises(ValueError):
        damping_matrix([1 + 0.1j])
    with pytest.raises(ValueError, match="spectrum must not be empty"):
        damping_matrix([])


def test_lambda_lyapunov_monotone_and_limits():
    z = [1 - 0.1j, 2 - 0.05j]
    rho = np.array([[0.5, 0.2 + 0.1j], [0.2 - 0.1j, 0.5]])
    t = np.linspace(0, 100, 200)
    y = lambda_lyapunov(z, rho, t)
    assert np.all(np.diff(y) <= 1e-12)
    assert y[-1] < 1e-3  # no undamped support -> decays to zero
    y0 = lambda_lyapunov([2.0 + 0j], np.array([[1.0]]), t)
    assert np.ptp(y0) == 0.0


def test_lambda_lyapunov_reads_any_time_grid_flat():
    z, rho = [1 - 0.1j, 2 - 0.3j], np.array([[0.6, 0.2], [0.2, 0.4]])
    t = np.linspace(0.0, 5.0, 6)
    y = lambda_lyapunov(z, rho, t)
    assert lambda_lyapunov([1 - 0.1j], np.array([[1.0]]), 2.0).tolist() == pytest.approx([np.exp(-0.8)])
    assert np.array_equal(lambda_lyapunov(z, rho, t.reshape(2, 3)), y)
    assert np.array_equal(lambda_lyapunov(z, rho, t[3]), y[3:4])


def test_lambda_lyapunov_random_sweep():
    rng = np.random.default_rng(8)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        z = rng.random(n) * 3 - 0.5j * rng.random(n)
        r = rng.random((n, n)) + 1j * rng.random((n, n))
        y = lambda_lyapunov(z, r + r.conj().T, np.linspace(0, 30, 40))
        assert np.all(np.diff(y) <= 1e-12)


def test_serializers():
    pole = find_pole(MODEL)
    text = pole_to_json(pole, MODEL)
    assert '"gamma1"' in text and '"omega1"' in text
    rep = survival_probability(FriedrichsModel(1.0, 0.0), [0.0, 1.0])
    csv = survival_to_csv(rep)
    assert csv.splitlines()[0] == "t,P_oracle,P_quadrature,P_pole"
