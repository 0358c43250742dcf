"""Relativistic thermodynamic boosts, Robertson-Walker entropy bookkeeping,
and the matter-era entropy-gap model with its two critical times.

Units: c = hbar = k_B = 1; time in units of the present age t0, the scale
factor in units of its present value a0 = a(t0), and the entropy gap in
units of its normalization C', so t0 = a0 = C' = 1 throughout.
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
        if not (0 < self.v < math.inf and 0 < self.t < math.inf
                and all(map(math.isfinite, (self.p, self.e, self.q, self.s)))):
            raise ValueError("volume and temperature must be positive, and every quantity finite")


@dataclass(frozen=True)
class CosmoParams:
    temp0: float = 1.0     # present radiation temperature
    omega1: float = 1.5    # characteristic nuclear energy
    gamma: float = 0.1     # relaxation rate 1/t_NR

    def __post_init__(self):
        for name in ("temp0", "omega1", "gamma"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")


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
    root = math.sqrt(1.0 - u * u)
    e = (state.e + u * u * state.p * state.v) / root
    if not math.isfinite(e):
        raise ValueError(f"boosted energy {e!r} at u={u!r} is not finite")
    return ThermoState(v=state.v * root, p=state.p, e=e, q=state.q * root,
                       s=state.s, t=state.t * root)


def boost_work(dw0: float, d_enthalpy0: float, u: float) -> float:
    """Work increment in the moving frame:
    dW = sqrt(1-u^2) dW0 - (u^2/sqrt(1-u^2)) d(E0 + p0 v0)."""
    if not (0 <= u < 1):
        raise ValueError("speed must satisfy 0 <= u < 1")
    root = math.sqrt(1.0 - u * u)
    return root * dw0 - u * u / root * d_enthalpy0


# ---------------------------------------------------------------------------
# Robertson-Walker bookkeeping
# ---------------------------------------------------------------------------

def radiation_temperature(a, params: CosmoParams):
    """T = T0 / a for free radiation in an expanding universe."""
    a = np.asarray(a, dtype=float)
    if np.any(a <= 0):
        raise ValueError("scale factor must be positive")
    out = params.temp0 / a
    return out if out.ndim else float(out)


def blackbody_comoving_entropy(a, params: CosmoParams):
    """(4/3) T^3 a^3: constant when T follows the radiation law."""
    t = radiation_temperature(a, params)
    return 4.0 / 3.0 * np.asarray(t) ** 3 * np.asarray(a) ** 3


# ---------------------------------------------------------------------------
# entropy gap
# ---------------------------------------------------------------------------

def scale_factor(t):
    """Matter-era a(t) = t^(2/3)."""
    # [()] keeps a scalar t a np.float64, whose ** is libm pow: numpy's SIMD
    # power loop for arrays can differ from it in the last bit
    t = np.asarray(t, dtype=float)[()]
    if np.any(t <= 0):
        raise ValueError("t must be positive")
    return t ** (2.0 / 3.0)


def entropy_gap(t, params: CosmoParams):
    """Delta S(t) = e^{-gamma t} a^{-3/2} e^{omega1 a/T0}."""
    t = np.asarray(t, dtype=float)
    a = scale_factor(t)
    # evaluate in log space so the damping and growth factors cannot
    # produce 0 * inf at extreme times
    log_gap = -params.gamma * t - 1.5 * np.log(a) + params.omega1 * a / params.temp0
    if np.any(log_gap > np.log(np.finfo(float).max)):
        raise ValueError(f"entropy gap e^{np.max(log_gap):.6g} leaves float range")
    out = np.exp(log_gap)
    return out if out.ndim else float(out)


def entropy_gap_rate(t, params: CosmoParams):
    """Logarithmic derivative of the gap:
    -gamma - 1/t + (2 omega1/(3 T0)) (1/t)^(1/3)."""
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0):
        raise ValueError("t must be positive")
    out = -params.gamma - 1.0 / t \
        + 2.0 * params.omega1 / (3.0 * params.temp0) * (1.0 / t) ** (1.0 / 3.0)
    return out if out.ndim else float(out)


def critical_times(params: CosmoParams) -> dict:
    """Zeros of the gap rate via the substitution u = (1/t)^(1/3).

    The rate vanishes where u^3 - A u + B = 0 with A = 2 omega1/(3 T0) and
    B = gamma.  For 0 < B < 2(A/3)^(3/2) there are two positive roots:
    the larger u is the early minimum t_cr1, the smaller the late maximum
    t_cr2.  Returns the exact roots plus the small/large-root asymptotics.

    Viete's trigonometric form gives the largest root and the negative one
    without cancellation; the small root is -B/(u_big u_neg) from the product
    of the three roots, so it keeps its relative accuracy as B -> 0.
    """
    a_coef = 2.0 * params.omega1 / (3.0 * params.temp0)
    b_coef = params.gamma
    try:
        # local minimum of the cubic at u = sqrt(A/3)
        disc = 2.0 * (a_coef / 3.0) ** 1.5 - b_coef
        asymptotic = [(1.0 / a_coef) ** 1.5, (a_coef / b_coef) ** 3]
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
    out["times"] = [1.0 / u_big ** 3, 1.0 / u_small ** 3]
    out["residuals"] = [abs(entropy_gap_rate(t, params)) for t in out["times"]]
    return out


def gap_to_csv(params: CosmoParams, t_grid, roots: dict) -> str:
    """The gap and its rate on t_grid, each row labelled by its regime from
    the sign of its rate and the critical times of `roots` (critical_times)."""
    times = roots["times"]
    rows = []
    for t in map(float, np.asarray(t_grid, dtype=float)):
        rate = entropy_gap_rate(t, params)
        if len(times) < 2 or t >= times[1]:
            regime = "final-approach" if rate <= 0 else "complexity-growth"
        else:
            regime = "thermalizing-early" if t < times[0] else "complexity-growth"
        rows.append((t, entropy_gap(t, params), rate, regime))
    return to_csv("t,delta_s,rate,regime", rows)


def roots_to_json(roots: dict) -> str:
    """The critical times and their asymptotics from critical_times' result."""
    times = roots["times"]
    return json.dumps({
        "t_cr1": times[0] if times else None,
        "t_cr2": times[1] if times else None,
        "asymptotic_1": roots["asymptotic_1"],
        "asymptotic_2": roots["asymptotic_2"],
        "discriminant": roots["discriminant"],
    })
