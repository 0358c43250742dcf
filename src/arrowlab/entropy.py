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

from .grids import Density, StochasticKernel, on_common_grid, uniform_density

NEG_INF = float("-inf")
_ZERO = 1e-300  # below this a cell counts as empty for the 0*log(0) = 0 rule


def _plnq(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """p ln(p/q) per cell, with 0 ln 0 = 0."""
    m = p > _ZERO
    out = np.zeros_like(p)
    out[m] = p[m] * np.log(p[m] / q[m])
    return out


def _hc_vec(rv: np.ndarray, sv: np.ndarray) -> float:
    """H_C of two cell arrays on one grid; NEG_INF where rv > 0 = sv."""
    if np.any((rv > _ZERO) & (sv <= _ZERO)):
        return NEG_INF
    return float(-_plnq(rv, sv).mean())


def gibbs_entropy(d: Density) -> float:
    """H(rho) = -integral rho ln rho = H_C(rho|1); <= 0 on the unit-volume space."""
    if abs(d.cell_mean() - 1.0) > 1e-9:
        raise ValueError("density must be normalized")
    return -d.cell_mean(lambda v: _plnq(v, np.ones_like(v)))


def conditional_entropy(rho: Density, sigma: Density):
    """H_C(rho|sigma) = -integral rho ln(rho/sigma) <= 0; 0 iff rho == sigma.

    Returns NEG_INF when rho puts mass where sigma vanishes.
    """
    return _hc_vec(*on_common_grid(rho.values, sigma.values, rho.base))


def max_entropy_uniform(level: int, base: int, dims: int = 1) -> Density:
    """The entropy maximizer on the grid (no constraints): uniform."""
    return uniform_density(base, level, dims)


def canonical_density(alpha: np.ndarray, target_mean: float, base: int = 2,
                      tol: float = 1e-10):
    """Max-entropy density with a fixed mean of alpha: rho* = e^{-nu alpha}/Z.

    Solves for nu by bracketing bisection on the monotone constraint
    <alpha>_nu = target_mean, then Newton polish.  Returns (Density, nu, Z).
    """
    alpha = np.asarray(alpha, dtype=float)
    lo_a, hi_a = float(alpha.min()), float(alpha.max())
    if hi_a == lo_a:
        v = np.ones_like(alpha)
        return Density(base, v, normalize=False), 0.0, 1.0
    if not (lo_a < target_mean < hi_a):
        raise ValueError(f"target mean {target_mean} outside ({lo_a}, {hi_a})")
    vol = 1.0 / alpha.size

    def mean_at(nu):
        w = np.exp(-nu * (alpha - lo_a))  # shift for overflow safety
        return float((alpha * w).sum() / w.sum())

    # <alpha>_nu decreases in nu; bracket the target
    lo, hi = -1.0, 1.0
    while mean_at(lo) < target_mean:
        lo *= 2
        if lo < -1e8:
            raise ValueError("failed to bracket nu")
    while mean_at(hi) > target_mean:
        hi *= 2
        if hi > 1e8:
            raise ValueError("failed to bracket nu")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mean_at(mid) > target_mean:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-13 * max(1.0, abs(mid)):
            break
    nu = 0.5 * (lo + hi)
    # Newton polish: d<alpha>/dnu = -Var(alpha)
    for _ in range(5):
        w = np.exp(-nu * (alpha - lo_a))
        w /= w.sum()
        m = float((alpha * w).sum())
        var = float((alpha ** 2 * w).sum() - m * m)
        if var <= 0:
            break
        step = (m - target_mean) / var
        if abs(step) > abs(nu) + 1.0:
            break
        nu += step
        if abs(m - target_mean) < tol * max(1.0, abs(target_mean)):
            break
    w = np.exp(-nu * alpha)
    z = float(w.mean())  # integral of e^{-nu alpha}
    return Density(base, w / z, normalize=False), float(nu), z


def voigt_monotonicity_suite(kernel: StochasticKernel, trials: int = 100,
                             seed: int = 0):
    """Worst case of H_C(K rho|K sigma) - H_C(rho|sigma) over random pairs.

    The theorem says the difference is >= 0 for any column-stochastic K, with
    equality for permutations.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rng = np.random.default_rng(seed)
    n = kernel.n
    worst = np.inf
    diffs = []
    for _ in range(trials):
        rv = rng.random(n) + 0.05
        sv = rng.random(n) + 0.05
        rv /= rv.mean()
        sv /= sv.mean()
        before = _hc_vec(rv, sv)
        after = _hc_vec(kernel.matrix @ rv, kernel.matrix @ sv)
        diffs.append(after - before)
        worst = min(worst, after - before)
    return {"worst_violation": float(worst), "trials": trials,
            "pass": bool(worst >= -1e-10), "mean_gain": float(np.mean(diffs))}


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
    omega = np.asarray(omega, dtype=float)
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    nu = 1.0 / temperature
    w = np.exp(-nu * (omega - omega.min()))
    z = float(w.mean()) * np.exp(-nu * omega.min())
    return Density(base, np.exp(-nu * omega) / z, normalize=False), nu, z


def entropy_report(rho: Density, sigma: Density, reference: str = "sigma"):
    return {
        "gibbs": gibbs_entropy(rho),
        "conditional": conditional_entropy(rho, sigma),
        "reference": reference,
    }
