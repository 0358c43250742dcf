"""Entropy functionals and second-law machinery: Gibbs and conditional
entropy, max-entropy ensembles, monotonicity under Markov kernels, the
quadratic approximation to the entropy gap, and the energy bookkeeping
identity dS = dH - dE/T.

All entropies are in nats.  Conditional entropy may be -inf; that case is
returned as the distinguished sentinel NEG_INF, never as a float that leaks
into arithmetic.
"""

from __future__ import annotations

import numpy as np

from .grids import Density, StochasticKernel, on_common_grid

NEG_INF = float("-inf")
_ZERO = 1e-300  # below this a cell counts as empty for the 0*log(0) = 0 rule


def _plnq(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """p ln(p/q) per cell, with 0 ln 0 = 0; cells where q is empty are skipped."""
    m = (p > _ZERO) & (q > _ZERO)
    out = np.zeros_like(p)
    out[m] = p[m] * np.log(p[m] / q[m])
    return out


def _hc_vec(rv: np.ndarray, sv: np.ndarray):
    """H_C over the last axis of cell arrays on one grid; NEG_INF where rv > 0 = sv.

    One pair of vectors gives a float, a stack of pairs one value per row.
    """
    h = -_plnq(rv, sv).mean(axis=-1)
    h = np.where(((rv > _ZERO) & (sv <= _ZERO)).any(axis=-1), NEG_INF, h)
    return float(h) if h.ndim == 0 else h


def gibbs_entropy(d: Density) -> float:
    """H(rho) = -integral rho ln rho = H_C(rho|1); <= 0 on the unit-volume space."""
    if abs(d.cell_mean() - 1.0) > 1e-9:
        raise ValueError("density must be normalized")
    return -d.cell_mean(lambda v: _plnq(v, np.ones_like(v)))


def conditional_entropy(rho: Density, sigma: Density):
    """H_C(rho|sigma) = -integral rho ln(rho/sigma) <= 0; 0 iff rho == sigma.

    Returns NEG_INF when rho puts mass where sigma vanishes.
    """
    return _hc_vec(*(v.ravel() for v in on_common_grid(rho.values, sigma.values)))


def _gibbs(alpha: np.ndarray, nu: float, base: int):
    """(rho, nu, Z) for rho = e^{-nu alpha}/Z, Z = integral of e^{-nu alpha}.

    The exponent is shifted by its maximum, so adding a constant to alpha
    leaves rho unchanged; Z alone carries the constant, and saturates to 0 or
    inf where it leaves the float range.
    """
    a0 = alpha.min() if nu >= 0 else alpha.max()  # where -nu alpha is largest
    w = np.exp(-nu * (alpha - a0))
    mean = w.mean()
    with np.errstate(over="ignore"):
        z = float(mean * np.exp(-nu * a0))
    return Density(base, w / mean, normalize=False), float(nu), z


def canonical_density(alpha: np.ndarray, target_mean: float, base: int = 2):
    """Max-entropy density with a fixed mean of alpha: rho* = e^{-nu alpha}/Z.

    Solves for nu by bracketing bisection on the monotone constraint
    <alpha>_nu = target_mean, to 1e-13 relative.  Returns (Density, nu, Z).
    """
    alpha = np.asarray(alpha, dtype=float)
    lo_a, hi_a = float(alpha.min()), float(alpha.max())
    if lo_a == hi_a == target_mean:
        return _gibbs(alpha, 0.0, base)
    if not (lo_a < target_mean < hi_a):
        raise ValueError(f"target mean {target_mean} outside ({lo_a}, {hi_a})")
    # work relative to the smallest alpha, so a constant added to alpha and
    # target_mean does not change nu
    a, target = alpha - lo_a, target_mean - lo_a

    def mean_at(nu):
        return float((a * _gibbs(a, nu, base)[0].values).mean())

    # <alpha>_nu decreases in nu; bracket the target
    lo, hi = -1.0, 1.0
    while mean_at(lo) < target:
        lo *= 2
        if lo < -1e8:
            raise ValueError("failed to bracket nu")
    while mean_at(hi) > target:
        hi *= 2
        if hi > 1e8:
            raise ValueError("failed to bracket nu")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mean_at(mid) > target:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-13 * max(1.0, abs(mid)):
            break
    return _gibbs(alpha, 0.5 * (lo + hi), base)


def voigt_monotonicity_suite(kernel: StochasticKernel, trials: int = 100,
                             seed: int = 0):
    """Worst case of H_C(K rho|K sigma) - H_C(rho|sigma) over random pairs.

    The theorem says the difference is >= 0 for any column-stochastic K, with
    equality for permutations.  Trials run in blocks of about 2^16 cells,
    drawn in the order of one pair (rho, sigma) per trial.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rng = np.random.default_rng(seed)
    n = kernel.n
    block = max(1, 2 ** 16 // n)
    worst, total = np.inf, 0.0
    for start in range(0, trials, block):
        x = rng.random((min(block, trials - start), 2, n, 1)) + 0.05
        x /= x.mean(axis=2, keepdims=True)
        kx = kernel.matrix @ x
        diff = _hc_vec(kx[:, 0, :, 0], kx[:, 1, :, 0]) - _hc_vec(x[:, 0, :, 0], x[:, 1, :, 0])
        worst = min(worst, diff.min())
        total += diff.sum()
    return {"worst_violation": float(worst), "trials": trials,
            "pass": bool(worst >= -1e-10), "mean_gain": float(total / trials)}


def entropy_gap_quadratic(rho_star: Density, rho1: np.ndarray, gamma: float,
                          t: float) -> float:
    """Second-order entropy gap for rho = rho* + e^{-gamma t} rho1.

    H_C(rho|rho*) ~= -(1/2) e^{-2 gamma t} integral rho1^2/rho*, the leading
    term of -int rho ln(rho/rho*) in the fluctuation amplitude.  rho1 must
    integrate to zero.
    """
    rho1 = np.asarray(rho1, dtype=float)
    sv = rho_star.values
    if np.any(sv <= _ZERO):
        raise ValueError("reference density has empty cells")
    if abs(rho1.mean()) > 1e-9 * max(1.0, np.abs(rho1).max()):
        raise ValueError("fluctuation must integrate to zero")
    return float(-0.5 * np.exp(-2.0 * gamma * t) * (rho1 ** 2 / sv).mean())


def gibbs_energy_relation(rho1: Density, rho2: Density, omega: np.ndarray,
                          temperature: float):
    """(dS, dH, dE) between two states with energy function omega.

    dS is the conditional-entropy difference against the canonical reference
    at `temperature`; the bookkeeping identity dS = dH - dE/T holds exactly
    when the reference is canonical.
    """
    omega = np.asarray(omega, dtype=float)
    ref, nu, z = canonical_density_from_temperature(omega, temperature,
                                                   rho1.base)
    h1 = conditional_entropy(rho1, ref)
    h2 = conditional_entropy(rho2, ref)
    if h1 == NEG_INF or h2 == NEG_INF:
        raise ValueError("state unsupported by the canonical reference")
    ds = h2 - h1
    dh = gibbs_entropy(rho2) - gibbs_entropy(rho1)
    de = float(((rho2.values - rho1.values) * omega).mean())
    return ds, dh, de


def canonical_density_from_temperature(omega: np.ndarray, temperature: float,
                                       base: int = 2):
    """rho* = e^{-omega/T}/Z directly at a given temperature."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    return _gibbs(np.asarray(omega, dtype=float), 1.0 / temperature, base)
