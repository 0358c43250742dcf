import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from arrowlab import liouville
from arrowlab.liouville import (check_density_matrix, conjugate_momentum_grid,
                                dephase_cesaro, dephase_evolution,
                                diagonal_part, expectation, is_self_associated,
                                liouvillian, phase_space_integral,
                                super_adjoint, super_apply, super_associated,
                                super_compose, super_product, super_transpose,
                                time_reversal_K, wigner_transform)

rng = np.random.default_rng(0)


def cmat(n=3):
    return rng.random((n, n)) + 1j * rng.random((n, n))


def herm(n=3):
    m = cmat(n)
    return m + m.conj().T


def test_super_product_acts_as_sandwich():
    for _ in range(20):
        a, b, g = cmat(), cmat(), cmat()
        assert np.allclose(super_apply(super_product(a, b), g), a @ g @ b,
                           atol=1e-12)
    g, b = cmat(), cmat()
    assert np.allclose(super_apply(super_product(np.eye(3), np.eye(3)), g), g)
    assert np.allclose(super_apply(super_product(np.eye(3), b), g), g @ b,
                       atol=1e-12)


def test_super_product_composition_rule():
    for _ in range(20):
        a, b, g, d = cmat(), cmat(), cmat(), cmat()
        lhs = super_compose(super_product(a, b), super_product(g, d))
        rhs = super_product(a @ g, d @ b)
        assert np.abs(lhs - rhs).max() < 1e-12


@pytest.mark.parametrize("a_shape, b_shape", [
    ((2, 3, 2, 3), (2, 3, 2, 3)),   # (n, m, n, m): no one n
    ((2, 2, 2, 2), (3, 3, 3, 3)),   # two dimensions
    ((4, 4), (4, 4)),               # 16 entries, reshapeable to (2, 2, 2, 2)
    ((16,), (16,)),
    ((2, 2, 2, 2, 1), (2, 2, 2, 2)),
    ((2, 2, 2, 2), (4, 4)),          # (n^2, n^2) but not (n, n, n, n)
    ((2, 2, 2, 2), (2, 2)),          # a matrix is not a superoperator
])
def test_super_compose_rejects_shapes(a_shape, b_shape):
    with pytest.raises(ValueError, match=r"^shapes .* are not \(n,n,n,n\) and \(n,n,n,n\)"):
        super_compose(np.ones(a_shape), np.ones(b_shape))


@pytest.mark.parametrize("a_shape, rho_shape", [
    ((2, 3, 2, 3), (2, 3)),
    ((2, 2, 2, 2), (3, 3)),
    ((2, 2, 2, 2), (4,)),           # rho flattened already
    ((2, 2, 2, 2), (2, 2, 1)),
    ((4, 4), (2, 2)),
    ((2, 2, 2, 2), (2, 2, 2, 2)),   # a superoperator is not a matrix
])
def test_super_apply_rejects_shapes(a_shape, rho_shape):
    with pytest.raises(ValueError, match=r"^shapes .* are not \(n,n,n,n\) and \(n,n\)"):
        super_apply(np.ones(a_shape), np.ones(rho_shape))


def _einsum_compose(a, b):
    return np.einsum("ijmn,mnkl->ijkl", a, b)


def _einsum_apply(a, rho):
    return np.einsum("ijkl,kl->ij", a, rho)


def _close(got, want):
    return np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 16), st.integers(0, 2 ** 32 - 1))
def test_superoperator_algebra_properties(n, seed):
    local = np.random.default_rng(seed)

    def c(*shape):
        return local.random(shape) - 0.5 + 1j * (local.random(shape) - 0.5)

    x, y, rho = c(n, n, n, n), c(n, n, n, n), c(n, n)
    assert _close(super_compose(x, y), _einsum_compose(x, y))
    assert _close(super_apply(x, rho), _einsum_apply(x, rho))
    # products of non-contiguous views (transposes) read the same entries
    assert _close(super_compose(super_adjoint(x), super_transpose(y)),
                  _einsum_compose(super_adjoint(x), super_transpose(y)))

    a, b, g, d = c(n, n), c(n, n), c(n, n), c(n, n)
    ab = super_product(a, b)
    assert _close(super_compose(ab, super_product(g, d)), super_product(a @ g, d @ b))
    assert _close(super_apply(ab, rho), a @ rho @ b)
    assert _close(super_associated(ab), super_product(b.conj().T, a.conj().T))
    assert np.array_equal(super_transpose(super_associated(x)), super_adjoint(x))


def test_conjugation_maps():
    a, b = cmat(), cmat()
    ab = super_product(a, b)
    assert np.allclose(super_transpose(ab), super_product(b, a))
    assert np.allclose(super_adjoint(ab),
                       super_product(a.conj().T, b.conj().T))
    assert np.allclose(super_associated(ab),
                       super_product(b.conj().T, a.conj().T))
    # involutions and the transpose-of-associated identity
    x = np.einsum("ik,jl->ijkl", cmat(), cmat()) + 0.3 * super_product(a, b)
    assert np.allclose(super_transpose(super_transpose(x)), x)
    assert np.allclose(super_adjoint(super_adjoint(x)), x)
    assert np.allclose(super_transpose(super_associated(x)), super_adjoint(x))


def test_self_associated_preserves_hermiticity():
    h = np.real(herm(4))
    il = 1j * liouvillian(h)
    assert is_self_associated(il)
    for _ in range(20):
        r = herm(4)
        out = super_apply(il, r)
        assert np.abs(out - out.conj().T).max() < 1e-12


def test_time_reversal():
    r = herm()
    assert np.allclose(time_reversal_K(time_reversal_K(r)), r)
    real_rho = np.real(r)
    assert np.allclose(time_reversal_K(real_rho), real_rho)
    h = np.real(herm(3))
    il = 1j * liouvillian(h)
    # K i L K = -i L entrywise for real H
    assert np.allclose(np.conj(il), -il)


def test_liouvillian_properties():
    assert np.abs(liouvillian(np.eye(4))).max() == 0.0
    w = np.array([0.3, 1.1, 2.0])
    L = liouvillian(np.diag(w))
    r = cmat()
    expect = (w[:, None] - w[None, :]) * r
    assert np.allclose(super_apply(L, r), expect, atol=1e-12)
    h = np.real(herm(4))
    L = liouvillian(h)
    assert np.abs(super_adjoint(L) - L).max() < 1e-12
    assert np.abs(super_transpose(L) + L).max() < 1e-12
    with pytest.raises(ValueError):
        liouvillian(cmat())


def test_check_density_matrix():
    r = herm()
    r = r / np.trace(r).real
    check_density_matrix(r)
    with pytest.raises(ValueError):
        check_density_matrix(r * 2)
    with pytest.raises(ValueError):
        check_density_matrix(cmat())


def test_dephase_against_matrix_exponential():
    w = np.array([0.0, 0.7, 1.9, 3.2])
    h = np.diag(w)
    r0 = herm(4)
    r0 = r0 / np.trace(r0).real
    for t in (0.0, 0.5, 2.0, 7.7):
        direct = expm(1j * h * t) @ r0 @ expm(-1j * h * t)
        assert np.allclose(dephase_evolution(r0, w, t), direct, atol=1e-12)
    # trace, hermiticity, diagonal, eigenvalues preserved
    rt = dephase_evolution(r0, w, 3.3)
    assert abs(np.trace(rt) - 1.0) < 1e-12
    assert np.abs(rt - rt.conj().T).max() < 1e-12
    assert np.allclose(np.diag(rt), np.diag(r0))
    assert np.allclose(np.sort(np.linalg.eigvalsh(rt)),
                       np.sort(np.linalg.eigvalsh(r0)), atol=1e-12)


def test_dephase_two_level_phase_flip():
    r0 = 0.5 * np.ones((2, 2), dtype=complex)
    rt = dephase_evolution(r0, [0.0, 1.0], np.pi)
    assert abs(rt[0, 1] + 0.5) < 1e-12


def test_evolution_reversibility_real_h():
    h = np.real(herm(4))
    r0 = herm(4)
    r0 = r0 / np.trace(r0).real
    t = 1.7
    fwd = expm(-1j * h * t) @ r0 @ expm(1j * h * t)
    back = expm(-1j * h * (-t)) @ r0 @ expm(1j * h * (-t))
    # evolving the conjugated state forward equals conjugating the
    # backward-evolved state
    lhs = expm(-1j * h * t) @ time_reversal_K(r0) @ expm(1j * h * t)
    assert np.allclose(lhs, time_reversal_K(back), atol=1e-12)
    assert not np.allclose(fwd, back, atol=1e-6)


def test_dephase_cesaro_decays_like_one_over_t():
    local = np.random.default_rng(17)
    n = 5
    w = np.array([0.0, 1.0, 2.2, 3.7, 5.1])
    r = local.random((n, n)) + 1j * local.random((n, n))
    r = r + r.conj().T
    r = r / np.trace(r).real
    obs = local.random((n, n))
    obs = obs + obs.T
    star = expectation(diagonal_part(r), obs).real
    devs = []
    for big_t in (50.0, 100.0, 200.0, 400.0):
        avg = dephase_cesaro(r, w, obs, big_t).real
        devs.append(abs(avg - star))
    # bounded oscillatory sums: T * deviation stays bounded
    assert all(t * d < 2.0 for t, d in zip((50, 100, 200, 400), devs))


def _cesaro_loop(rho0, w, obs, big_t, n_steps):
    ts = (np.arange(n_steps) + 0.5) * (big_t / n_steps)
    return np.mean([expectation(dephase_evolution(rho0, w, t), obs) for t in ts])


@pytest.mark.parametrize("n", [2, 6, 16])
def test_dephase_cesaro_matches_time_loop(n):
    local = np.random.default_rng(n)
    w = np.sort(local.random(n)) * n
    r = local.random((n, n)) + 1j * local.random((n, n))
    r = r + r.conj().T
    r = r / np.trace(r).real
    obs = local.random((n, n))
    obs = obs + obs.T
    want = _cesaro_loop(r, w, obs, 50.0, 2000)
    assert abs(dephase_cesaro(r, w, obs, 50.0) - want) < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 8), st.floats(0.5, 500.0), st.booleans(), st.integers(1, 3),
       st.integers(-4, 4), st.integers(0, 2 ** 32 - 1))
def test_dephase_cesaro_matches_time_loop_near_aliasing(n, big_t, aliased, k, m, seed):
    # aliased: one gap d with d h = 2 pi k (1 + m eps), h = T/N, where the
    # unreduced Dirichlet ratio sin(Nx)/(N sin x) divides two rounding errors
    local = np.random.default_rng(seed)
    w = np.sort(local.random(n)) * n
    if aliased:
        i, j = local.choice(n, 2, replace=False)
        h = big_t / liouville._CESARO_STEPS
        w[j] = w[i] + 2 * np.pi * k / h * (1 + m * np.finfo(float).eps)
    r = local.random((n, n)) + 1j * local.random((n, n))
    obs = local.random((n, n)) + 1j * local.random((n, n))
    unit = 4 * np.finfo(float).eps * (1 + np.ptp(w) * big_t) * np.abs(r * obs.T).sum()
    want = _cesaro_loop(r, w, obs, big_t, liouville._CESARO_STEPS)
    assert abs(dephase_cesaro(r, w, obs, big_t) - want) <= unit


def test_dephase_cesaro_kernel_bounded():
    # rho_01 O_10 = 1 alone, and T = 2N puts x = d: the average is K(x)
    local = np.random.default_rng(5)
    r = np.array([[0, 1], [0, 0]], dtype=complex)
    obs = np.array([[0, 0], [1, 0]], dtype=float)
    # 6381956970095103 * 2^798 lies 9.4e-19 from a multiple of pi, so its
    # unclipped ratio sin(Nx)/(N sin x) is about 1.8e14
    near_k_pi = math.ldexp(6381956970095103, 798)
    phases = np.append(local.choice([-1, 1], 2000) * 10.0 ** local.uniform(-5, 300, 2000),
                       [near_k_pi, -near_k_pi])
    big_t = 2.0 * liouville._CESARO_STEPS
    assert max(abs(dephase_cesaro(r, [p, 0.0], obs, big_t)) for p in phases) <= 1.0


def test_dephase_cesaro_rejects_bad_input():
    r = np.eye(3) / 3
    with pytest.raises(ValueError):
        dephase_cesaro(r, [0.0, 1.0], np.eye(3), 10.0)
    with pytest.raises(ValueError):
        dephase_cesaro(r, [0.0, 1.0, 2.0], np.eye(2), 10.0)
    with pytest.raises(ValueError, match="spectrum must not be empty"):
        dephase_cesaro(np.zeros((0, 0)), [], np.zeros((0, 0)), 10.0)


def test_wigner_gaussian_ground_state():
    nq = 256
    q = np.linspace(-6, 6, nq)
    dq = q[1] - q[0]
    psi = np.pi ** -0.25 * np.exp(-q ** 2 / 2)
    rho = np.outer(psi, psi) * dq
    p = np.linspace(-6, 6, nq)
    rw = wigner_transform(rho, q, p)
    exact = np.exp(-q[:, None] ** 2 - p[None, :] ** 2) / np.pi
    assert np.abs(rw.real - exact).max() < 1e-3
    assert np.abs(rw.imag).max() < 1e-10


def test_wigner_trace_and_pairing_identities():
    nq = 256
    q = np.linspace(-6, 6, nq)
    dq = q[1] - q[0]
    psi = np.pi ** -0.25 * np.exp(-q ** 2 / 2)
    rho = np.outer(psi, psi) * dq
    p = conjugate_momentum_grid(q)
    rw = wigner_transform(rho, q, p)
    assert abs(phase_space_integral(rw, q, p) - 1.0) < 1e-6
    sym = np.broadcast_to(q[:, None] ** 2, (nq, nq))
    lhs = phase_space_integral(rw, q, p, sym)
    rhs = float(np.sum(np.diag(rho).real * q ** 2))
    assert abs(lhs - rhs) / abs(rhs) < 1e-4

