"""Relativistic thermodynamic boosts, Robertson-Walker entropy bookkeeping,
and the matter-era entropy-gap model with its two critical times.

Units: c = hbar = k_B = 1; times in units of t0 unless stated.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .table import to_csv


@dataclass(frozen=True)
class ThermoState:
    """Proper-frame thermodynamic bundle (volume, pressure, energy, heat,
    entropy, temperature)."""

    v: float
    p: float
    e: float
    q: float
    s: float
    t: float

    def __post_init__(self):
        if self.v <= 0 or self.t <= 0:
            raise ValueError("volume and temperature must be positive")


@dataclass(frozen=True)
class CosmoParams:
    t0: float = 1.0        # present age
    temp0: float = 1.0     # present radiation temperature
    omega1: float = 1.5    # characteristic nuclear energy
    gamma: float = 0.1     # relaxation rate 1/t_NR
    a0: float = 1.0        # present scale factor
    c_prime: float = 1.0   # overall gap normalization

    def __post_init__(self):
        for name in ("t0", "temp0", "omega1", "gamma", "a0", "c_prime"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


# ---------------------------------------------------------------------------
# boosts
# ---------------------------------------------------------------------------

def boost_thermo(state: ThermoState, u: float) -> ThermoState:
    """Moving-frame thermodynamic quantities at speed u.

    Volume, heat and temperature contract by sqrt(1-u^2); pressure and
    entropy are invariant; the energy picks up the u^2-weighted pV term
    (Planck-Tolman convention, the unique choice that reduces to the
    identity at u=0 and keeps the first law covariant together with
    boost_work below).
    """
    if not (0 <= u < 1):
        raise ValueError("speed must satisfy 0 <= u < 1")
    root = np.sqrt(1.0 - u * u)
    return ThermoState(
        v=state.v * root,
        p=state.p,
        e=(state.e + u * u * state.p * state.v) / root,
        q=state.q * root,
        s=state.s,
        t=state.t * root,
    )


def boost_work(dw0: float, d_enthalpy0: float, u: float) -> float:
    """Work increment in the moving frame:
    dW = sqrt(1-u^2) dW0 - (u^2/sqrt(1-u^2)) d(E0 + p0 v0)."""
    if not (0 <= u < 1):
        raise ValueError("speed must satisfy 0 <= u < 1")
    root = np.sqrt(1.0 - u * u)
    return root * dw0 - u * u / root * d_enthalpy0


# ---------------------------------------------------------------------------
# Robertson-Walker bookkeeping
# ---------------------------------------------------------------------------

def radiation_temperature(a, params: CosmoParams):
    """T = T0 a0 / a for free radiation in an expanding universe."""
    a = np.asarray(a, dtype=float)
    if np.any(a <= 0):
        raise ValueError("scale factor must be positive")
    out = params.temp0 * params.a0 / a
    return out if out.ndim else float(out)


def blackbody_comoving_entropy(a, params: CosmoParams, c_s: float = 1.0):
    """(4/3) C_S T^3 a^3: constant when T follows the radiation law."""
    t = radiation_temperature(a, params)
    return 4.0 / 3.0 * c_s * np.asarray(t) ** 3 * np.asarray(a) ** 3


def comoving_entropy_rate(phi0: np.ndarray, a: np.ndarray, t_grid: np.ndarray):
    """d/dt of the comoving entropy phi0 * a^3, by central differences."""
    phi0 = np.asarray(phi0, dtype=float)
    a = np.asarray(a, dtype=float)
    t_grid = np.asarray(t_grid, dtype=float)
    return np.gradient(phi0 * a ** 3, t_grid)


# ---------------------------------------------------------------------------
# entropy gap
# ---------------------------------------------------------------------------

def scale_factor(t, params: CosmoParams):
    """Matter-era a(t) = a0 (t/t0)^(2/3)."""
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0):
        raise ValueError("t must be positive")
    return params.a0 * (t / params.t0) ** (2.0 / 3.0)


def entropy_gap(t, params: CosmoParams):
    """Delta S(t) = C' e^{-gamma t} a^{-3/2} e^{omega1 a/(T0 a0)}."""
    t = np.asarray(t, dtype=float)
    a = scale_factor(t, params)
    rel = a / params.a0
    # evaluate in log space so the damping and growth factors cannot
    # produce 0 * inf at extreme times
    log_gap = np.log(params.c_prime) - params.gamma * t \
        - 1.5 * np.log(rel) + params.omega1 * rel / params.temp0
    out = np.exp(log_gap)
    return out if out.ndim else float(out)


def entropy_gap_rate(t, params: CosmoParams):
    """Logarithmic derivative of the gap:
    -gamma - 1/t + (2 omega1/(3 T0 t0)) (t0/t)^(1/3)."""
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0):
        raise ValueError("t must be positive")
    out = -params.gamma - 1.0 / t \
        + 2.0 * params.omega1 / (3.0 * params.temp0 * params.t0) \
        * (params.t0 / t) ** (1.0 / 3.0)
    return out if out.ndim else float(out)


def critical_times(params: CosmoParams) -> dict:
    """Zeros of the gap rate via the substitution u = (t0/t)^(1/3).

    The rate vanishes where u^3 - A u + B = 0 with A = 2 omega1/(3 T0) and
    B = gamma t0.  For 0 < B < 2(A/3)^(3/2) there are two positive roots:
    the larger u is the early minimum t_cr1, the smaller the late maximum
    t_cr2.  Returns the exact roots plus the small/large-root asymptotics.

    Viete's trigonometric form gives the largest root and the negative one
    without cancellation; the small root is -B/(u_big u_neg) from the product
    of the three roots, so it keeps its relative accuracy as B -> 0.
    """
    a_coef = 2.0 * params.omega1 / (3.0 * params.temp0)
    b_coef = params.gamma * params.t0
    try:
        # local minimum of the cubic at u = sqrt(A/3)
        disc = 2.0 * (a_coef / 3.0) ** 1.5 - b_coef
        asymptotic = [params.t0 * (1.0 / a_coef) ** 1.5, params.t0 * (a_coef / b_coef) ** 3]
    except ArithmeticError:  # a float power overflows, or A underflowed to 0
        asymptotic = [math.inf]
    if not all(map(math.isfinite, [a_coef, b_coef, *asymptotic])):
        raise ValueError(f"cubic coefficients A={a_coef!r}, B={b_coef!r} out of float range")
    out = {
        "A": a_coef, "B": b_coef, "discriminant": disc,
        "asymptotic_1": asymptotic[0], "asymptotic_2": asymptotic[1],
        "roots_u": [], "times": [],
    }
    if disc <= 0:
        return out
    u_star = math.sqrt(a_coef / 3.0)
    # cos(3 phi) = -B/(2 u*^3), in (-1, 0); clamp the rounding at disc -> 0+
    phi = math.acos(max(-1.0, -b_coef / (2.0 * u_star ** 3))) / 3.0
    u_big = 2.0 * u_star * math.cos(phi)
    u_neg = -2.0 * u_star * math.cos(phi - math.pi / 3.0)
    u_small = -b_coef / (u_big * u_neg)
    out["roots_u"] = [u_small, u_big]
    # larger u = earlier time
    out["times"] = [params.t0 / u_big ** 3, params.t0 / u_small ** 3]
    out["residuals"] = [abs(entropy_gap_rate(t, params)) for t in out["times"]]
    return out


REGIMES = ("thermalizing-early", "complexity-growth", "final-approach")


def regime_report(params: CosmoParams, t_grid) -> list:
    """Label each time by the sign of the gap rate."""
    roots = critical_times(params)["times"]
    labels = []
    for t in np.asarray(t_grid, dtype=float):
        rate = entropy_gap_rate(t, params)
        if len(roots) < 2 or t >= roots[1]:
            labels.append("final-approach" if rate <= 0 else "complexity-growth")
        elif t < roots[0]:
            labels.append("thermalizing-early")
        else:
            labels.append("complexity-growth")
    return labels


def gap_to_csv(params: CosmoParams, t_grid) -> str:
    labels = regime_report(params, t_grid)
    ts = map(float, np.asarray(t_grid, dtype=float))
    return to_csv("t,delta_s,rate,regime",
                  ((t, entropy_gap(t, params), entropy_gap_rate(t, params), lab)
                   for t, lab in zip(ts, labels)))


def roots_to_json(params: CosmoParams) -> str:
    r = critical_times(params)
    times = r["times"]
    return json.dumps({
        "t_cr1": times[0] if times else None,
        "t_cr2": times[1] if times else None,
        "asymptotic_1": r["asymptotic_1"],
        "asymptotic_2": r["asymptotic_2"],
        "discriminant": r["discriminant"],
    })
