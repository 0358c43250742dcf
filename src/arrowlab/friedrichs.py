"""Friedrichs resonance model: the resolvent function alpha(z), its
second-sheet zero (the resonance pole), survival probability by two
independent routes, mixed-state decay splits, the thermal many-mode state,
the Lambda-trace Lyapunov functional, and biorthogonal trace/energy checks.

Conventions: hbar = 1, continuum on [0, omega_max], default form factor
g(omega) = exp(-omega/2).  alpha on both sheets and on the cut comes from
one rule for int g^2(u)/(z-u) du that subtracts the singularity at z itself
and stays accurate right up to the cut; it evaluates g at complex z, so a
custom g must accept complex input.

The two survival routes share no numerics and neither builds an O(N^2) or
O(N*M) array.  The oracle finds the exact spectrum of the N-mode
discretization, an arrowhead matrix, from its secular equation by a
safeguarded rational iteration (Gu & Eisenstat 1995), in O(N) memory and
O(N^2) time per sweep, whose sums are banded BLAS matrix-vector products.
The quadrature sums the spectral density on an evenly spaced omega grid; for
an evenly spaced t grid, which it requires, that sum is one chirp-z
transform (Rabiner, Schafer & Rader 1969) done as a Bluestein FFT
convolution in O(n_points + len(t)) memory.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .table import to_csv


def _default_g(w):
    return np.exp(-np.asarray(w) / 2.0)


@dataclass
class FriedrichsModel:
    omega1: float = 1.0
    lam: float = 0.1
    g: callable = field(default=_default_g)
    omega_max: float | None = None

    def __post_init__(self):
        if self.omega1 <= 0:
            raise ValueError("omega1 must be positive")
        if self.omega_max is None:
            self.omega_max = 20.0 * self.omega1
        if self.omega1 >= self.omega_max:
            raise ValueError("omega1 must lie inside the band, below omega_max")

    def g2(self, w):
        return np.asarray(self.g(w)) ** 2


@dataclass
class ResonancePole:
    beta1: float
    gamma1: float
    residual: float

    @property
    def z(self) -> complex:
        return self.beta1 - 0.5j * self.gamma1


# ---------------------------------------------------------------------------
# the resolvent function alpha
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(400)
_EPS = np.finfo(float).eps
_POLE_TOL = 1e-12
_POLE_MAX_ITER = 100
_SECULAR_MAX_ITER = 64

# elements in one (rows x columns) work array of the chunked sums: 512 KiB of
# float64, small enough to stay in cache
_BLOCK = 1 << 16


def _rows(n_cols: int) -> int:
    """Rows per chunk: a multiple of 16, so BLAS row blocking, and with it
    every matrix-vector result, does not depend on the chunking."""
    return 16 * max(1, _BLOCK // (16 * max(n_cols, 1)))


def _diff_factors(a: np.ndarray, b: np.ndarray):
    """Factors L, R whose BLAS product L[rows] @ R is a[rows, None] - b[None, :]:
    (a, 1) @ (1, -b).  Its products are exact, so each entry is rounded once,
    as in the broadcast; with OpenBLAS the product runs about three times
    faster than the broadcast ufunc."""
    return np.column_stack((a, np.ones_like(a))), np.stack((np.ones_like(b), -b))


def _cut_integral(z: np.ndarray, model: FriedrichsModel) -> np.ndarray:
    """integral_0^W g^2(u)/(z-u) du at each point of a 1D array z.

    The singularity is subtracted at z itself:
        int (g^2(u) - g^2(z))/(z-u) du + g^2(z) [log z - log(z-W)].
    For an analytic g^2, such as the default, the subtracted integrand is
    smooth for every z and the Gauss-Legendre rule stays accurate right up to
    the cut; this needs g at complex z.  A real z inside the cut gives the
    limit from above, PV int - i pi g^2(z): the smooth part then runs in real
    arithmetic and the principal log of z - W + 0i is log(W - z) + i pi.
    Within sqrt(eps) W of a node the quotient there cancels, so a real z
    takes -(g^2)' at the midpoint of z and the node instead, by complex step.
    Row chunks keep memory O(len(z)).
    """
    w_max = model.omega_max
    u = 0.5 * w_max * (_GL_NODES + 1.0)
    wts = 0.5 * w_max * _GL_WEIGHTS
    g2u = model.g2(u)
    g2z = model.g2(z)
    i = np.clip(np.searchsorted(u, z.real), 1, u.size - 1)
    node = np.where(z.real - u[i - 1] < u[i] - z.real, i - 1, i)
    near = np.flatnonzero((z.imag == 0) & (np.abs(z.real - u[node]) < np.sqrt(_EPS) * w_max))
    slope = -model.g2(0.5 * (z.real[near] + u[node[near]]) + 1e-20j).imag / 1e-20
    num_l, num_r = _diff_factors(-g2z, -g2u)  # g2u - g2z
    den_l, den_r = _diff_factors(z, u)
    smooth = np.empty(z.size, dtype=np.result_type(z, g2z))
    rows = _rows(u.size)
    for s in range(0, z.size, rows):
        num = num_l[s:s + rows] @ num_r
        den = den_l[s:s + rows] @ den_r
        here = (near >= s) & (near < s + rows)
        num[near[here] - s, node[near[here]]] = slope[here]
        den[near[here] - s, node[near[here]]] = 1.0
        smooth[s:s + rows] = np.divide(num, den, out=num) @ wts
    zc = z.astype(complex)
    return smooth + g2z * (np.log(zc) - np.log(zc - w_max))


def _on_cut(omega, model: FriedrichsModel) -> np.ndarray:
    """omega as a flat float array, checked to lie inside the cut (0, W)."""
    w = np.asarray(omega, dtype=float).ravel()
    if not np.all((w > 0) & (w < model.omega_max)):
        raise ValueError("omega must lie inside the cut")
    return w


def principal_value_integral(omega: float, model: FriedrichsModel) -> float:
    """PV integral_0^W g^2(u)/(omega-u) du for one omega inside the cut: the
    real part of the rule behind `alpha` and `boundary_alpha`."""
    return float(_cut_integral(_on_cut(float(omega), model), model)[0].real)


def alpha(z: complex, sheet: str, model: FriedrichsModel) -> complex:
    """alpha(z) = z - omega1 - lam^2 int g^2/(z-u) du; second sheet continues
    through the cut from above: alpha_II = alpha + 2 pi i lam^2 g^2(z).  On
    the cut the second sheet takes its limit from below, alpha(z + i0)."""
    z = complex(z)
    if sheet not in ("first", "second"):
        raise ValueError("sheet must be 'first' or 'second'")
    if z.imag == 0.0 and 0 <= z.real <= model.omega_max:
        if sheet == "first":
            raise ValueError("z lies on the cut; use boundary_alpha")
        return boundary_alpha(z.real, model)
    base = complex(z - model.omega1 - model.lam ** 2 * _cut_integral(np.array([z]), model)[0])
    if sheet == "first":
        return base
    return base + 2j * np.pi * model.lam ** 2 * complex(model.g2(z))


def boundary_alpha(omega, model: FriedrichsModel):
    """alpha(omega + i0) on the cut, by the rule `alpha` uses off it; a
    complex for a scalar omega, an array of omega's shape for an array."""
    w = _on_cut(omega, model)
    out = w - model.omega1 - model.lam ** 2 * _cut_integral(w, model)
    return complex(out[0]) if np.ndim(omega) == 0 else out.reshape(np.shape(omega))


def find_pole(model: FriedrichsModel) -> ResonancePole:
    """Newton iteration for the second-sheet zero near omega1."""
    g2 = float(model.g2(model.omega1))
    z = model.omega1 - 1j * np.pi * model.lam ** 2 * g2
    if model.lam == 0.0:
        return ResonancePole(model.omega1, 0.0, 0.0)
    h = 1e-6
    for _ in range(_POLE_MAX_ITER):
        f = alpha(z, "second", model)
        if abs(f) < _POLE_TOL:
            break
        fp = (alpha(z + h, "second", model) - alpha(z - h, "second", model)) / (2 * h)
        step = f / fp
        z = z - step
        if abs(step) < _POLE_TOL:
            f = alpha(z, "second", model)
            break
    else:
        raise RuntimeError("pole search did not converge")
    gamma1 = -2.0 * z.imag
    if gamma1 <= 0:
        raise RuntimeError(f"found a pole with gamma1 = {gamma1} <= 0")
    return ResonancePole(float(z.real), float(gamma1), float(abs(f)))


# ---------------------------------------------------------------------------
# survival probability, two routes
# ---------------------------------------------------------------------------

def _mode_grid(model: FriedrichsModel, n_modes: int):
    """Midpoint omega grid of the discretized continuum and its couplings."""
    if n_modes < 1:
        raise ValueError("n_modes must be at least 1")
    dw = model.omega_max / n_modes
    wgrid = (np.arange(n_modes) + 0.5) * dw
    return wgrid, model.lam * np.asarray(model.g(wgrid)) * np.sqrt(dw)


def discretize(model: FriedrichsModel, n_modes: int = 2000):
    """(N+1)x(N+1) real symmetric Hamiltonian on a midpoint omega grid."""
    wgrid, coup = _mode_grid(model, n_modes)
    h = np.diag(np.concatenate(([model.omega1], wgrid)))
    h[0, 1:] = coup
    h[1:, 0] = coup
    return h, wgrid


def _secular_sums(d, z2, origin, y, sign, j):
    """Sums over the poles d_i of q = z2_i/(l - d_i) and p = q/(l - d_i) at
    l = origin + sign*y, one row per root j; poles i < j lie left of root j.

    l - d_i is formed as (origin - d_i) + sign*y, which keeps full relative
    accuracy for the pole the root sits next to.  Returns the sums of q and
    of p over the left and over the right poles.  j ascends, so in a chunk of
    rows the poles i < min j all lie left and the poles i >= max j all right:
    those two column blocks are BLAS matrix-vector products against z2, and
    only the band between them needs a mask.  The blocks follow the chunk, so
    another chunking can change a sum in its last bit.
    """
    out = np.empty((4, y.size))
    diff_l, diff_r = _diff_factors(origin, d)
    rows = _rows(d.size)
    for s in range(0, y.size, rows):
        r = slice(s, s + rows)
        lo, hi = j[r][0], j[r][-1]
        rec = diff_l[r] @ diff_r
        rec += (sign[r] * y[r])[:, None]
        np.reciprocal(rec, out=rec)
        left = np.arange(lo, hi) < j[r, None]
        for k in (0, 2):  # q = z2 rec, then p = z2 rec^2
            if k:
                rec *= rec
            band = np.where(left, rec[:, lo:hi], 0.0)
            out[k, r] = rec[:, :lo] @ z2[:lo] + band @ z2[lo:hi]
            out[k + 1, r] = rec[:, hi:] @ z2[hi:] + (rec[:, lo:hi] - band) @ z2[lo:hi]
    return out


def _arrowhead_spectrum(model: FriedrichsModel, n_modes: int = 2000):
    """Eigenvalues and weights |<1|l>|^2 of discretize(model, n_modes)[0],
    without forming the matrix.

    The Hamiltonian is an arrowhead [[omega1, c^T], [c, diag(w)]]; its
    eigenvalues are the roots of the secular function
        F(l) = l - omega1 - sum_k c_k^2 / (l - w_k),
    which increases from -inf to +inf between consecutive poles, so one root
    lies below w_0, one in each gap and one above w_{N-1}.  The eigenvector
    is (1, c_k/(l - w_k)), so the weight of root l is 1/F'(l).

    Couplings below LAPACK's deflation tolerance, 8 eps times the size of H,
    are dropped: such a mode is an eigenvector by itself, with eigenvalue w_k
    and weight 0.  This is what keeps roots that round onto their pole (tiny
    g(omega)^2 at large omega) from dividing by l - w_k = 0.
    Each remaining root is found by a safeguarded two-pole rational
    iteration (Gu & Eisenstat, SIAM J. Matrix Anal. Appl. 16, 1995) and is
    stored as an offset y from the pole it lies nearer to, so l - w_k keeps
    full relative accuracy even where the root rounds onto the pole.  Work
    is O(N^2) per sweep and memory O(N) plus one chunk of the sums.
    """
    w, c = _mode_grid(model, n_modes)
    a = float(model.omega1)
    c_norm = float(np.linalg.norm(c))
    keep = np.abs(c) > 8.0 * _EPS * max(abs(a), float(w[-1]), c_norm)
    d, z2 = w[keep], c[keep] ** 2
    n = d.size
    if n == 0:
        return np.append(w, a), np.append(np.zeros(w.size), 1.0)

    # Root j lies in (d[j-1], d[j]), with d[-1] = -inf and d[n] = +inf.
    # Interior roots: far pole = the other end of the gap.  End roots get a
    # bound from Weyl's inequality and a virtual far pole at twice that
    # bound.  Everything below works in the mirrored frame y = |l - origin|,
    # where the model G(y) = sign*F increases from -inf at the origin pole.
    j = np.arange(n + 1)
    gap = np.empty(n + 1)
    gap[1:n] = np.diff(d)
    gap[0] = 2.0 * (abs(a - d[0]) + 2.0 * c_norm)
    gap[n] = 2.0 * (abs(a - d[-1]) + 2.0 * c_norm)
    sign = np.where(j == 0, -1.0, 1.0)
    origin = np.where(j == 0, d[0], d[np.maximum(j - 1, 0)])
    y = 0.5 * gap
    lo, hi = np.zeros(n + 1), y.copy()
    sums = _secular_sums(d, z2, origin, y, sign, j)
    # a root right of the gap midpoint is nearer the right pole
    f = (origin - a) + sign * y - (sums[0] + sums[1])
    flip = (j > 0) & (j < n) & (f < 0)
    origin[flip], sign[flip] = d[j[flip]], -1.0

    roots = np.empty(n + 1)
    root_wt = np.empty(n + 1)
    act = np.arange(n + 1)
    for _ in range(_SECULAR_MAX_ITER):
        o, s, ya = origin[act], sign[act], y[act]
        q_left, q_right, p_left, p_right = sums
        g = s * ((o - a) + s * ya - (q_left + q_right))
        done = (np.abs(g) <= 8.0 * _EPS * (np.abs(o - a) + ya + (q_left - q_right))) \
            | (hi[act] - lo[act] <= 4.0 * _EPS * hi[act])
        roots[act[done]] = o[done] + s[done] * ya[done]
        root_wt[act[done]] = 1.0 / (1.0 + p_left[done] + p_right[done])
        keep_on = ~done
        act, g, ya, s = act[keep_on], g[keep_on], ya[keep_on], s[keep_on]
        if act.size == 0:
            break
        p_left, p_right = p_left[keep_on], p_right[keep_on]
        hi[act] = np.where(g > 0, ya, hi[act])
        lo[act] = np.where(g > 0, lo[act], ya)
        # two-pole model kappa - w_near/y + w_far/(far - y) matching G and G'
        # at ya; the poles on each side fold into that side's pole, and the
        # linear term of F into the far one.  Its root in (0, far) solves a
        # quadratic, taken in the form that does not cancel.
        far = gap[act]
        w_near = ya ** 2 * np.where(s > 0, p_left, p_right)
        w_far = (far - ya) ** 2 * (1.0 + np.where(s > 0, p_right, p_left))
        kappa = g + w_near / ya - w_far / (far - ya)
        b = kappa * far + w_near + w_far
        disc = np.sqrt(np.maximum(b * b - 4.0 * kappa * w_near * far, 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            y_new = np.where(b > 0, 2.0 * w_near * far / (b + disc),
                             (disc - b) / (-2.0 * kappa))
        inside = (y_new > lo[act]) & (y_new < hi[act])
        y[act] = np.where(inside, y_new, 0.5 * (lo[act] + hi[act]))
        sums = _secular_sums(d, z2, origin[act], y[act], sign[act], j[act])
    else:
        raise RuntimeError("secular equation did not converge")
    return (np.concatenate((w[~keep], roots)),
            np.concatenate((np.zeros(w.size - n), root_wt)))


def survival_amplitude_oracle(model: FriedrichsModel, t_grid,
                              n_modes: int = 2000):
    """A(t) = <1|e^{-iHt}|1> = sum_l |<1|l>|^2 e^{-ilt} over the exact
    spectrum of the discretized H (_arrowhead_spectrum), in O(N) memory."""
    evals, weights = _arrowhead_spectrum(model, n_modes)
    t_grid = np.asarray(t_grid, dtype=float).ravel()
    out = np.empty(t_grid.size, dtype=complex)
    rows = _rows(evals.size)
    for s in range(0, t_grid.size, rows):
        ph = np.outer(t_grid[s:s + rows], evals)
        out[s:s + rows] = np.cos(ph) @ weights - 1j * (np.sin(ph, out=ph) @ weights)
    return out


def spectral_density(model: FriedrichsModel, n_points: int = 40001):
    """psi(omega) = lam^2 g^2 / |alpha(omega+i0)|^2 on a fine midpoint grid."""
    if n_points < 1:
        raise ValueError("n_points must be at least 1")
    dw = model.omega_max / n_points
    wgrid = (np.arange(n_points) + 0.5) * dw
    psi = model.lam ** 2 * model.g2(wgrid) / np.abs(boundary_alpha(wgrid, model)) ** 2
    return wgrid, psi, dw


def _turns(b: float, n):
    """frac(b*n) for integers 0 <= n < 2**52, to a few ulps of 1.

    b is split into two 26-bit halves and n into two 26-bit limbs, so each
    partial product is exact and its fraction is taken before any rounding.
    """
    b_hi = 134217729.0 * b
    b_hi = b_hi - (b_hi - b)
    b_lo = b - b_hi
    n = np.asarray(n, dtype=np.int64)
    n_hi = (n >> 26).astype(float) * 67108864.0
    n_lo = (n & 67108863).astype(float)
    parts = (b_hi * n_hi, b_hi * n_lo, b_lo * n_hi, b_lo * n_lo)
    return sum(x - np.floor(x) for x in parts)


def survival_amplitude_quadrature(model: FriedrichsModel, t_grid,
                                  n_points: int = 40001):
    """A(t) = int psi(omega) e^{-i omega t} domega as the midpoint sum over
    the spectral_density grid, for an evenly spaced t_grid.

    With omega_k = (k + 1/2) dw and t_m = t_0 + m dt the sum is a chirp-z
    transform: k m = (k^2 + m^2 - (m - k)^2)/2 turns it into one Bluestein
    convolution done with FFTs, in O(n_points + len(t_grid)) memory.  Chirp
    phases are reduced mod 2 pi exactly (_turns), so they stay accurate
    however large k^2 dw dt grows.  An unevenly spaced t_grid raises
    ValueError.
    """
    wgrid, psi, dw = spectral_density(model, n_points)
    t_grid = np.asarray(t_grid, dtype=float).ravel()
    n_t = t_grid.size
    if n_t == 0:
        return np.empty(0, dtype=complex)
    m = np.arange(n_t)
    dt = (t_grid[-1] - t_grid[0]) / (n_t - 1) if n_t > 1 else 0.0
    if np.abs(t_grid - (t_grid[0] + m * dt)).max() > 64 * _EPS * np.abs(t_grid).max():
        raise ValueError("t_grid must be evenly spaced")
    # omega_k t_m / (2 pi) = u (2k + 1) + b (k^2 + m^2 - (m - k)^2 + m)
    u = dw * t_grid[0] / (4.0 * np.pi)
    b = dw * dt / (4.0 * np.pi)
    k = np.arange(n_points)
    x = psi * dw * np.exp(-2j * np.pi * (_turns(u, 2 * k + 1) + _turns(b, k * k)))
    size = 1 << (n_points + n_t - 2).bit_length()
    lag = np.arange(1 - n_points, n_t)
    kernel = np.zeros(size, dtype=complex)
    kernel[lag] = np.exp(2j * np.pi * _turns(b, lag * lag))
    conv = np.fft.ifft(np.fft.fft(x, size) * np.fft.fft(kernel))[:n_t]
    return conv * np.exp(-2j * np.pi * _turns(b, m * (m + 1)))


def pole_approximation(pole: ResonancePole, t):
    """Pure exponential survival e^{-gamma1 t}."""
    return np.exp(-pole.gamma1 * np.asarray(t, dtype=float))


def recurrence_time(model: FriedrichsModel, n_modes: int = 2000) -> float:
    """Revival horizon of the uniform discretization, 2 pi / d omega."""
    return 2.0 * np.pi * n_modes / model.omega_max


def survival_probability(model: FriedrichsModel, t_grid,
                         n_modes: int = 2000, n_points: int = 40001):
    """P(t) by the exact spectrum of the discretized H (the oracle) and by
    spectral-density quadrature, for an evenly spaced t_grid.

    Times beyond half the discretization recurrence horizon are flagged:
    there the oracle is contaminated by revivals.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(t_grid < 0):
        raise ValueError("t must be non-negative")
    pole = find_pole(model)  # before the quadrature: a level out of float range stops here
    if model.lam == 0.0:  # the uncoupled level does not decay
        p_a, p_b = np.ones_like(t_grid), np.ones_like(t_grid)
        flagged = np.zeros_like(t_grid, bool)
    else:
        p_a = np.abs(survival_amplitude_oracle(model, t_grid, n_modes)) ** 2
        p_b = np.abs(survival_amplitude_quadrature(model, t_grid, n_points)) ** 2
        flagged = t_grid > 0.5 * recurrence_time(model, n_modes)
    return {"t": t_grid, "p_oracle": p_a, "p_quadrature": p_b,
            "p_pole": pole_approximation(pole, t_grid), "flagged": flagged, "pole": pole}


def survival_to_csv(report) -> str:
    return to_csv("t,P_oracle,P_quadrature,P_pole",
                  zip(report["t"], report["p_oracle"], report["p_quadrature"], report["p_pole"]))


def pole_to_json(pole: ResonancePole, model: FriedrichsModel) -> str:
    return json.dumps({"beta1": pole.beta1, "gamma1": pole.gamma1,
                       "residual": pole.residual, "lambda": model.lam,
                       "omega1": model.omega1})


# ---------------------------------------------------------------------------
# decay splits of mixed states
# ---------------------------------------------------------------------------

def mixed_state_decay(rho11: float, rho_1w: np.ndarray, rho_ww: np.ndarray,
                      pole: ResonancePole, wgrid: np.ndarray, t: float):
    """Three-component split of a state built on the unstable level and the
    continuum: an invariant part (diagonal continuum weights), a cross term
    damped as e^{-gamma1 t/2} that oscillates at beta1, and the pole term
    damped as e^{-gamma1 t}.
    """
    rho_1w = np.asarray(rho_1w, dtype=complex)
    rho_ww = np.asarray(rho_ww, dtype=float)
    wgrid = np.asarray(wgrid, dtype=float)
    g1, b1 = pole.gamma1, pole.beta1
    w_half = float(np.exp(-0.5 * g1 * t))
    w_full = float(np.exp(-g1 * t))
    cross = rho_1w * np.exp(-1j * (b1 - wgrid) * t) * w_half
    return {
        "star": rho_ww,                 # time invariant
        "cross": cross,                 # weight e^{-gamma1 t/2}
        "pole": rho11 * w_full,         # weight e^{-gamma1 t}
        "weights": (1.0, w_half, w_full),
    }


def thermal_many_mode(temperature: float, gamma: float, f, t,
                      omega_max: float | None = None, n_points: int = 4001):
    """rho(t) = rho* + rho1 e^{-gamma t} on an omega grid.

    rho* has Boltzmann weights Z T^{-3/2} e^{-omega/T} normalized to trace 1;
    rho1 is the fluctuation f(omega) with its mean removed so tr rho1 = 0
    exactly.
    """
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    w_max = 20.0 * temperature if omega_max is None else omega_max
    dw = w_max / n_points
    wgrid = (np.arange(n_points) + 0.5) * dw
    raw = temperature ** -1.5 * np.exp(-wgrid / temperature)
    norm = float(raw.sum() * dw)
    if not np.isfinite(norm) or norm <= 0:
        raise ValueError("equilibrium weights not normalizable")
    z_const = 1.0 / norm
    star = z_const * raw
    fl = np.asarray(f(wgrid), dtype=float)
    fl = fl - fl.mean()  # tr rho1 = 0 exactly
    state = star + fl * np.exp(-gamma * float(t))
    return {"omega": wgrid, "dw": dw, "star": star, "fluctuation": fl,
            "state": state, "Z": z_const,
            "trace": float(state.sum() * dw)}


# ---------------------------------------------------------------------------
# Lambda-trace Lyapunov functional
# ---------------------------------------------------------------------------

def damping_matrix(spectrum) -> np.ndarray:
    """Gamma_ij = gamma_i + gamma_j >= 0 from z_i = beta_i - i gamma_i/2."""
    z = np.asarray(spectrum, dtype=complex)
    if np.any(z.imag > 1e-15):
        raise ValueError("spectrum must have non-positive imaginary parts")
    gam = -2.0 * z.imag
    return gam[:, None] + gam[None, :]


def lambda_lyapunov(spectrum, rho0: np.ndarray, t_grid) -> np.ndarray:
    """Y(t) = sum_ij |rho_ij|^2 e^{-Gamma_ij t}; non-increasing in t."""
    rho0 = np.asarray(rho0, dtype=complex)
    gam = damping_matrix(spectrum)
    if rho0.shape != gam.shape:
        raise ValueError("state dimension must match the spectrum")
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(t_grid < 0):
        raise ValueError("t must be non-negative: the Lambda-evolution runs forward only")
    w = np.abs(rho0) ** 2
    return np.array([float(np.sum(w * np.exp(-gam * t))) for t in t_grid])


# ---------------------------------------------------------------------------
# biorthogonal trace / energy checks
# ---------------------------------------------------------------------------

def trace_energy_checks(m: np.ndarray, t_grid=None) -> dict:
    """Finite-dimensional shadow of the pole-sector pairing algebra.

    For a real matrix with a complex-conjugate eigenvalue pair, the right
    eigenvector of z paired against the left eigenvector of z-bar has zero
    overlap (the zero-norm property), and the energy expectation in that
    pairing vanishes.  The trace of the similarity-evolved state is constant.
    """
    m = np.asarray(m, dtype=float)
    n = m.shape[0]
    evals, right = np.linalg.eig(m)
    left = np.linalg.inv(right)  # rows: left eigenvectors, biorthonormal
    # locate a complex eigenvalue (if any) and its conjugate partner
    report = {"eigenvalues": evals}
    cplx = np.where(np.abs(evals.imag) > 1e-12)[0]
    if cplx.size:
        i = cplx[0]
        j = int(np.argmin(np.abs(evals - evals[i].conj())))
        # self-pairing <z,-|z,-> ~ left vector of z-bar applied to right of z
        self_pair = complex(left[j] @ right[:, i])
        energy = complex(left[j] @ m @ right[:, i])
        report["self_pairing"] = abs(self_pair)
        report["pole_energy"] = abs(energy)
    else:
        # Hermitian-like limit: orthonormal pairing, positive traces
        report["self_pairing"] = None
        report["diag_pairings"] = np.real(np.einsum("ij,ji->i", left, right))
    if t_grid is not None:
        rng = np.random.default_rng(0)
        rho0 = rng.random((n, n)) + 1j * rng.random((n, n))
        rho0 = rho0 + rho0.conj().T
        rho0 /= np.trace(rho0).real
        traces = []
        for t in t_grid:
            phases = np.exp(-1j * np.asarray(evals) * t)
            prop = right @ np.diag(phases) @ left
            prop_inv = right @ np.diag(1.0 / phases) @ left
            traces.append(complex(np.trace(prop @ rho0 @ prop_inv)))
        traces = np.array(traces)
        report["trace_drift"] = float(np.abs(traces - traces[0]).max())
    return report
