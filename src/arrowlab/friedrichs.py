"""Friedrichs resonance model: the resolvent function alpha(z), its
second-sheet zero (the resonance pole), survival probability by two
independent routes, mixed-state decay splits, the thermal many-mode state
and the Lambda-trace Lyapunov functional.

Conventions: hbar = 1, continuum on [0, 20 omega1], default form factor
g(omega) = exp(-omega/2).  alpha at any z, on both sheets and on the cut,
comes from one rule for int g^2(u)/(z-u) du that subtracts the singularity
at z itself and stays accurate right up to the cut; it evaluates g at
complex z, so a custom g must accept complex input.  The spectral density
needs alpha only at the midpoints of a uniform grid: it takes the same
subtraction there, and its two Cauchy sums over uniform nodes, of w_k
g^2(u_k) and of w_k over x_j - u_k on a lattice, are Toeplitz products, real
FFT convolutions with the kernel's spectrum (_toeplitz_cauchy).  The weights,
their sum and the kernel's spectrum depend on the grid alone, so they form a
read-only plan, and the last plan is kept (_density_plan).

The two survival routes share no numerics, only the check that the t grid
is evenly spaced, which both need, and neither builds an O(N^2) or
O(N*len(t)) array.  The oracle finds the exact spectrum of the N-mode
discretization, an arrowhead matrix, from its secular equation by a
safeguarded rational iteration (Gu & Eisenstat 1995) in O(N) memory, in
units of the band's width.  On the uniform grid its sweeps take the poles
far from a root from a series whose coefficients are Toeplitz products,
one FFT convolution per solve (Dutt, Gu & Rokhlin 1996), so a sweep is
O(N).  A root stops on these far sums, and takes its weight from them,
where a bound on their error (_far_error; Higham 2002, ch. 24, for the
FFT) shows that the stopping test on exact sums holds too and that the
weight is within 1e-13 of theirs; the few roots it cannot certify, and the
two end roots, take the exact O(N) sums per root as banded BLAS
matrix-vector products.  The oracle's phase table is factored
over the time lattice, so cos and sin run O(sqrt(len(t))) times per
eigenvalue, in O(N*sqrt(len(t))) memory.  The quadrature sums the spectral
density on an evenly spaced omega grid; over the t grid that sum is one
chirp-z transform (Rabiner, Schafer & Rader 1969) done as a Bluestein FFT
convolution of 5-smooth length in O(n_points + len(t)) memory.  Its phases
and kernel spectrum depend only on the grid, so they form a read-only plan
built once per grid, and the last two plans are kept (_chirp_plan).
survival_probability runs the two routes on two threads, the oracle on a
worker under the caller's numpy error state and the quadrature on the
calling thread, and joins the worker before it returns; their ufuncs, FFTs
and BLAS calls release the GIL.  Each route raises ValueError when its
largest phase argument is not finite, and then when its t grid is not
evenly spaced.

A FriedrichsModel is immutable: it computes its exact spectrum and its
spectral density once per size and returns them read-only, so repeated
calls at other times (a t grid, the Zeno pair, late Khalfin times) reuse
them.  The Gauss-Legendre rule behind alpha is built on first use.
"""

from __future__ import annotations

import cmath
import contextvars
import json
import math
import sys
from dataclasses import dataclass, field
from functools import cache, lru_cache

import numpy as np

from .table import to_csv

# default sizes: modes of the oracle's discretization, points of the quadrature's grid
N_MODES = 2000
N_POINTS = 40001

_SQRT_MAX = math.sqrt(sys.float_info.max)
# alpha_II(z) = z - omega1 - lam^2 int g^2/(z-u) du + 2 pi i lam^2 g^2(z): at
# find_pole's first iterate, |Im z| = pi lam^2 g^2(omega1), so for |g^2| <= 1
# it is at most 3 pi lam^2, and its central difference subtracts two such
# values, so 6 pi lam^2 must be finite
_LAM_MAX = _SQRT_MAX / math.sqrt(6.0 * math.pi)


def _default_g(w):
    return np.exp(-np.asarray(w) / 2.0)


@dataclass(frozen=True)
class FriedrichsModel:
    """Immutable, so what _memoized keeps in _memo stays valid."""
    omega1: float = 1.0
    lam: float = 0.1
    g: callable = field(default=_default_g)
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0 < self.omega_max < math.inf:
            raise ValueError("omega1 must be positive, with the band top 20 omega1 finite")
        if not abs(self.lam) <= _LAM_MAX:
            raise ValueError(f"lam must be finite, with |lam| at most {_LAM_MAX:.4g}")

    @property
    def omega_max(self) -> float:  # top of the continuum band [0, 20 omega1]
        return 20.0 * float(self.omega1)  # a Python float: overflow gives inf silently

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

_EPS = np.finfo(float).eps
_POLE_TOL = 1e-12
_POLE_MAX_ITER = 100
_SECULAR_MAX_ITER = 64
# the secular far field: poles within _FAR_BAND grid steps of a root's own pole
# are summed one by one, the rest by _FAR_TERMS terms of a series in x/m,
# |x/m| <= 1/18, which leave 18^-13 < 1e-16 of their sum
_FAR_BAND = 8
_FAR_TERMS = 13
# an FFT convolution of length L rounds each output by at most
# _FFT_ERR log2(L) eps of its two rows' 2-norms' product (_toeplitz_cauchy):
# the normwise form of Higham 2002, sec. 24.1, with the constant the tests
# hold it to; the far field's outputs measured below 0.16 of it
_FFT_ERR = 2.0

# elements in one (rows x columns) work array of the chunked sums: 512 KiB of
# float64, small enough to stay in cache
_BLOCK = 1 << 16


def _rows(n_cols: int) -> int:
    """Rows per chunk: a multiple of 16, so BLAS row blocking, and with it
    every matrix-vector result, does not depend on the chunking."""
    return 16 * max(1, _BLOCK // (16 * max(n_cols, 1)))


@cache
def _gauss_legendre():
    """The 400-point Gauss-Legendre rule on [-1, 1], built on first use, read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(400)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _memoized(model: FriedrichsModel, key, compute):
    """compute() once per model and key, its arrays returned read-only."""
    out = model._memo.get(key)
    if out is None:
        out = compute()
        for x in out:
            if isinstance(x, np.ndarray):
                x.flags.writeable = False
        model._memo[key] = out
    return out


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
    nodes, weights = _gauss_legendre()
    u = 0.5 * w_max * (nodes + 1.0)
    wts = 0.5 * w_max * weights
    g2u = model.g2(u)
    g2z = model.g2(z)
    i = np.clip(np.searchsorted(u, z.real), 1, u.size - 1)
    node = np.where(z.real - u[i - 1] < u[i] - z.real, i - 1, i)
    near = np.flatnonzero((z.imag == 0) & (np.abs(z.real - u[node]) < np.sqrt(_EPS) * w_max))
    slope = -model.g2(0.5 * (z.real[near] + u[node[near]]) + 1e-20j).imag / 1e-20
    smooth = np.empty(z.size, dtype=np.result_type(z, g2z))
    rows = _rows(u.size)
    for s in range(0, z.size, rows):
        num = g2u - g2z[s:s + rows, None]
        den = z[s:s + rows, None] - u
        here = (near >= s) & (near < s + rows)
        num[near[here] - s, node[near[here]]] = slope[here]
        den[near[here] - s, node[near[here]]] = 1.0
        smooth[s:s + rows] = np.divide(num, den, out=num) @ wts
    zc = z.astype(complex)
    return smooth + g2z * (np.log(zc) - np.log(zc - w_max))


def alpha(z, sheet: str, model: FriedrichsModel):
    """alpha(z) = z - omega1 - lam^2 int g^2/(z-u) du; the second sheet
    continues it through the cut from above: alpha_II = alpha + 2 pi i lam^2
    g^2(z).  On the open cut (0, W) the second sheet takes its limit from
    below, alpha(omega + i0), whose smooth part runs in real arithmetic
    (_cut_integral).  A complex for a scalar z, an array of z's shape for an
    array.  ValueError for a first-sheet z on [0, W], a second-sheet z at 0
    or W, or an unknown sheet."""
    if sheet not in ("first", "second"):
        raise ValueError("sheet must be 'first' or 'second'")
    zf = np.asarray(z, dtype=complex).ravel()
    cut = (zf.imag == 0) & (zf.real >= 0) & (zf.real <= model.omega_max)
    w = zf.real[cut]
    if w.size and (sheet == "first" or not np.all((w > 0) & (w < model.omega_max))):
        raise ValueError("z lies on the cut: the first sheet has no value there, "
                         "and the second only inside (0, W)")
    out = np.empty(zf.size, dtype=complex)
    if w.size:
        out[cut] = w - model.omega1 - model.lam ** 2 * _cut_integral(w, model)
    if w.size < zf.size:
        off = zf[~cut]
        out[~cut] = off - model.omega1 - model.lam ** 2 * _cut_integral(off, model)
        if sheet == "second":
            out[~cut] += 2j * np.pi * model.lam ** 2 * model.g2(off)
    return complex(out[0]) if np.ndim(z) == 0 else out.reshape(np.shape(z))


def find_pole(model: FriedrichsModel) -> ResonancePole:
    """Newton iteration for the second-sheet zero near omega1.  RuntimeError
    when it does not converge, at once if a difference quotient is 0 or not
    finite, an iterate is not finite or a float overflows."""
    g2 = float(model.g2(model.omega1))
    z = model.omega1 - 1j * np.pi * model.lam ** 2 * g2
    if model.lam == 0.0:
        return ResonancePole(model.omega1, 0.0, 0.0)
    h = 1e-6
    try:
        with np.errstate(over="raise"):
            for _ in range(_POLE_MAX_ITER):
                f = alpha(z, "second", model)
                if abs(f) < _POLE_TOL:
                    break
                fp = (alpha(z + h, "second", model) - alpha(z - h, "second", model)) / (2 * h)
                z = z - f / fp
                if not (cmath.isfinite(fp) and cmath.isfinite(z)):
                    raise FloatingPointError
            else:
                raise FloatingPointError
    except ArithmeticError:  # too many steps, fp = 0, a value past float range
        raise RuntimeError("pole search did not converge") from None
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
    # measured for a solve in absolute units, whose end roots sat dw/H_N from
    # their poles (H_N < ln N + 1); the solve now runs in band units, but the
    # bound stays: without it omega1 = 1e-200 at lam = 1e-90 divides by an
    # |alpha|^2 that underflows to 0 in spectral_density, and omega1 = 1e-152
    # to 1e-170 at lam = 0.1 only reach a failed two-path check
    if dw < 4.0 * (math.log(n_modes) + 1.0) / _SQRT_MAX:
        raise ValueError("omega1 is too small for n_modes: the grid step 20 omega1 / n_modes "
                         "must be at least 4 (ln n_modes + 1) / sqrt(float max)")
    wgrid = (np.arange(n_modes) + 0.5) * dw
    return wgrid, model.lam * np.asarray(model.g(wgrid)) * np.sqrt(dw)


def discretize(model: FriedrichsModel, n_modes: int = N_MODES):
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
    shift = sign * y
    rows = _rows(d.size)
    for s in range(0, y.size, rows):
        r = slice(s, s + rows)
        lo, hi = j[r][0], j[r][-1]
        rec = origin[r, None] - d
        rec += shift[r, None]
        np.reciprocal(rec, out=rec)
        left = np.arange(lo, hi) < j[r, None]
        for k in (0, 2):  # q = z2 rec, then p = z2 rec^2
            if k:
                rec *= rec
            band = np.where(left, rec[:, lo:hi], 0.0)
            out[k, r] = rec[:, :lo] @ z2[:lo] + band @ z2[lo:hi]
            out[k + 1, r] = rec[:, hi:] @ z2[hi:] + (rec[:, lo:hi] - band) @ z2[lo:hi]
    return out


def _toeplitz_cauchy(values: np.ndarray, kernel_spec: np.ndarray) -> np.ndarray:
    """out[..., i] = sum_k values[..., k] kernel[..., i - k + M - 1], i < M,
    where values has M entries on its last axis and kernel_spec is the real
    FFT of length _fft_size(2M - 1) of a kernel that holds the lags
    1 - M..M - 1; the leading axes of the two broadcast.  These are Toeplitz
    products, such as the Cauchy sums sum_k a_k/(x_i - u_k) on a uniform
    grid, as real FFT convolutions of 5-smooth length (_fft_size).  Every
    output needs only lags inside the kernel, so the cyclic convolution of
    length 2M - 1 aliases none of them.  The error is a few eps log2(M) of
    the two rows' 2-norms' product, which bounds every sum of |terms|, not a
    few eps of each output's own sum (_FFT_ERR)."""
    m = values.shape[-1]
    size = _fft_size(2 * m - 1)
    return np.fft.irfft(np.fft.rfft(values, size) * kernel_spec, size)[..., m - 1:2 * m - 1]


def _far_field(z2: np.ndarray) -> np.ndarray:
    """S[p, side, o] = sum_i z2_i m^-(p+1), m = o - i, p = 0.._FAR_TERMS,
    over the poles i of a uniform grid beyond the band |m| <= _FAR_BAND:
    side 0 the left ones (m > _FAR_BAND), side 1 the right ones, which are
    the left ones of the mirrored grid with the sign (-1)^(p+1).  They do
    not depend on the roots, so one FFT convolution per solve serves every
    sweep (_far_sums)."""
    n = z2.size
    kernel = np.zeros((_FAR_TERMS + 1, 2 * n - 1))
    inv = 1.0 / np.arange(_FAR_BAND + 1, n)
    kernel[0, n + _FAR_BAND:] = inv
    for p in range(_FAR_TERMS):
        np.multiply(kernel[p, n + _FAR_BAND:], inv, out=kernel[p + 1, n + _FAR_BAND:])
    kernel_spec = np.fft.rfft(kernel, _fft_size(2 * n - 1))[:, None]
    field = _toeplitz_cauchy(np.stack((z2, z2[::-1])), kernel_spec)
    field[:, 1] = field[:, 1, ::-1] * (-1.0) ** np.arange(1, _FAR_TERMS + 2)[:, None]
    return field


def _far_error(z2: np.ndarray):
    """Bounds, in grid units (times dw and dw^2), on the error that the far
    field's FFT (_toeplitz_cauchy) puts into the q and p sums of _far_sums,
    both sides together.  Each S[p] is within _FFT_ERR log2(L) eps ||z2||
    ||k_p|| of its sum, L the FFT length, where the kernel row k_p =
    m^-(p+1), m > 8, has ||k_p||^2 <= int_8.5^inf m^-2(p+1) dm since
    m^-2(p+1) is convex; Horner's rule takes S[p] times |x|^p <= 2^-p into
    q and p S[p] times |x|^(p-1) into p.

    _secular_roots adds the rounding.  On one side of q: the kernel's
    entries, Horner's rule (gamma_(2p+1) on its term p, Higham 2002,
    eq. 5.2) and the truncation round the far sum by under 1.5 eps of it
    for |x/m| <= 1/18; each band term rounds by gamma_4, the offset x
    included; and each of the 8 additions before the own pole's by u of a
    partial sum, which the side's terms all having one sign keeps below the
    rest: 6 eps of the side's sum of |q| over all poles but the own one,
    taken as 7 eps.  The own pole's term (gamma_3), the last addition and
    the division by dw add 2.5 eps of the side's sum, and forming G another
    eps S, S the scale of the stopping test: 4 eps S in all.  For p the same
    count, with the truncation's 14 18^-13 (3.1 eps), stays below 17 eps of
    sum p.
    """
    n = z2.size
    p = np.arange(_FAR_TERMS + 1)
    k_norm = np.sqrt((_FAR_BAND + 0.5) ** -(2.0 * p + 1.0) / (2.0 * p + 1.0))
    top = float(z2.max())  # ||z2|| without squaring z2 out of range
    fft = _FFT_ERR * math.log2(_fft_size(2 * n - 1)) * _EPS * top * float(np.linalg.norm(z2 / top))
    # both sides, each its own row of the FFT
    return (2.0 * fft * float(k_norm[:-1] @ 0.5 ** p[:-1]),
            2.0 * fft * float((p * k_norm)[1:] @ 0.5 ** p[:-1]))


def _far_sums(field, z2, dw, pole, x, j):
    """_secular_sums on the poles d_i = d_0 + i dw, for the roots j at
    l = d_pole + x dw, |x| <= 1/2: the poles beyond the band from the far
    field (_far_field), by Horner's rule for 1/(m + x) = sum_p (-x)^p
    m^-(p+1) and its derivative, and the poles i = pole - m of the band
    |m| <= _FAR_BAND one by one, the own pole last (_far_error).  Every
    work array has one entry per root."""
    s = field[:, :, pole]
    nx = -x
    q = s[_FAR_TERMS - 1].copy()
    for k in range(_FAR_TERMS - 2, -1, -1):
        q *= nx
        q += s[k]
    p = _FAR_TERMS * s[_FAR_TERMS]
    for k in range(_FAR_TERMS - 1, 0, -1):
        p *= nx
        p += k * s[k]
    m = np.array(sorted(range(-_FAR_BAND, _FAR_BAND + 1), key=abs, reverse=True))
    padded = np.concatenate((np.zeros(_FAR_BAND), z2, np.zeros(_FAR_BAND)))
    rec = 1.0 / (m[:, None] + x)
    term = padded[pole + (_FAR_BAND - m)[:, None]] * rec
    rec *= term
    for k in range(m.size - 1):
        side = int(m[k] < 0)  # the poles at m > 0 lie left
        q[side] += term[k]
        p[side] += rec[k]
    own = pole < j  # a root right of its own pole has that pole on its left
    q += np.where((own, ~own), term[-1], 0.0)
    p += np.where((own, ~own), rec[-1], 0.0)
    return np.concatenate((q / dw, p / dw ** 2))


def _arrowhead_spectrum(model: FriedrichsModel, n_modes: int = N_MODES):
    """Eigenvalues and weights |<1|l>|^2 of discretize(model, n_modes)[0],
    without forming the matrix: solved once per model and n_modes
    (_solve_arrowhead) and returned read-only."""
    return _memoized(model, ("spectrum", n_modes), lambda: _solve_arrowhead(model, n_modes))


def _solve_arrowhead(model: FriedrichsModel, n_modes: int):
    """The spectrum of _arrowhead_spectrum.

    The Hamiltonian is an arrowhead [[omega1, c^T], [c, diag(w)]]; its
    eigenvalues are the roots of the secular function
        F(l) = l - omega1 - sum_k c_k^2 / (l - w_k),
    which increases from -inf to +inf between consecutive poles, so one root
    lies below w_0, one in each gap and one above w_{N-1}.  The eigenvector
    is (1, c_k/(l - w_k)), so the weight of root l is 1/F'(l).

    The solve runs in band units: F(s l)/s is F(l) on (omega1, w, c)/s, so
    with s = 2^floor(log2 W) it divides them by s, which is exact, and
    multiplies the roots back; the weights do not change.  This keeps the
    squared reciprocals of the sums in float range at any band width.  When
    the couplings' norm exceeds W, s comes from that norm instead, so the
    couplings stay O(1) as well.
    Couplings below LAPACK's deflation tolerance, 8 eps times the size of H,
    are dropped: such a mode is an eigenvector by itself, with eigenvalue w_k
    and weight 0.  This is what keeps roots that round onto their pole (tiny
    g(omega)^2 at large omega) from dividing by l - w_k = 0.  The rest are
    the roots of _secular_roots, with the far field (_far_field) when the
    kept poles are one run of the uniform grid.
    """
    w, c = _mode_grid(model, n_modes)
    c_norm = float(np.linalg.norm(c))
    scale = math.ldexp(1.0, math.frexp(max(model.omega_max, c_norm))[1] - 1)
    a, d, c, c_norm = float(model.omega1) / scale, w / scale, c / scale, c_norm / scale
    keep = np.abs(c) > 8.0 * _EPS * max(abs(a), float(d[-1]), c_norm)
    d, z2 = d[keep], c[keep] ** 2
    n = d.size
    if n == 0:
        return np.append(w, model.omega1), np.append(np.zeros(w.size), 1.0)
    kept = np.flatnonzero(keep)
    field = _far_field(z2) if kept[-1] - kept[0] == n - 1 else None
    origin, sign, y, weights, _ = _secular_roots(a, d, z2, c_norm, field,
                                                 model.omega_max / n_modes / scale)
    return (np.concatenate((w[~keep], (origin + sign * y) * scale)),
            np.concatenate((np.zeros(w.size - n), weights)))


def _secular_roots(a, d, z2, c_norm, field, dw):
    """The n + 1 roots of F(l) = l - a - sum_i z2_i/(l - d_i) for ascending
    poles d (n >= 1), as offsets l = origin + sign*y from the pole each lies
    nearer to, so l - d_i keeps full relative accuracy even where the root
    rounds onto its pole; their weights 1/F'(l); and which roots stopped on
    far sums.  c_norm^2 >= sum z2 bounds the end roots.  field is the far
    field of poles d_i = d_0 + i dw (_far_field), or None.

    Each root is found by a safeguarded two-pole rational iteration (Gu &
    Eisenstat, SIAM J. Matrix Anal. Appl. 16, 1995).  It stops when
    |G| <= 8 eps (|o - a| + y + sum |q|), G = sign*F at its offset.  With a
    field, an interior root iterates on far sums (_far_sums) in O(N) per
    sweep.  It stops on them, and takes its weight from them, only when a
    bound B on their error (_far_error) gives |G| + B <= 8 eps (S - B), S
    the scale above, which implies the test on exact sums, and the same
    bound on the p sums puts the weight within 1e-13 relative of theirs.  A
    root whose far sums pass the test without those margins, or whose step
    on them stops shrinking, goes on with the exact sums, O(N) per root
    (_secular_sums), as do the two end roots always and every root without
    a field.  Only exact sums move a root's bracket.  Memory is O(N),
    2 (_FAR_TERMS + 1) N values for the field, plus one chunk of the sums.
    """
    # Root j lies in (d[j-1], d[j]), with d[-1] = -inf and d[n] = +inf.
    # Interior roots: far pole = the other end of the gap.  End roots get a
    # bound from Weyl's inequality and a virtual far pole at twice that
    # bound.  Everything below works in the mirrored frame y = |l - origin|,
    # where the model G(y) = sign*F increases from -inf at the origin pole.
    n = d.size
    j = np.arange(n + 1)
    gap = np.empty(n + 1)
    gap[1:n] = np.diff(d)
    gap[0] = 2.0 * (abs(a - d[0]) + 2.0 * c_norm)
    gap[n] = 2.0 * (abs(a - d[-1]) + 2.0 * c_norm)
    sign = np.where(j == 0, -1.0, 1.0)
    origin = np.where(j == 0, d[0], d[np.maximum(j - 1, 0)])
    y = 0.5 * gap
    lo, hi = np.zeros(n + 1), y.copy()
    exact = np.full(n + 1, field is None)
    exact[[0, n]] = True
    if field is not None:
        fft_q, fft_p = _far_error(z2)
        fft_q, fft_p = fft_q / dw, fft_p / dw ** 2
    step = np.full(n + 1, np.inf)  # each root's last step on the far field
    far = np.zeros(n + 1, dtype=bool)  # stopped on far sums

    def sweep(act):
        out = np.empty((4, act.size))
        e = exact[act]
        r = act[e]
        out[:, e] = _secular_sums(d, z2, origin[r], y[r], sign[r], j[r])
        if not e.all():
            r = act[~e]
            out[:, ~e] = _far_sums(field, z2, dw, j[r] - (sign[r] > 0), sign[r] * y[r] / dw, j[r])
        return out

    sums = sweep(j)
    # a root right of the gap midpoint is nearer the right pole
    f = (origin - a) + sign * y - (sums[0] + sums[1])
    flip = (j > 0) & (j < n) & (f < 0)
    origin[flip], sign[flip] = d[j[flip]], -1.0

    root_wt = np.empty(n + 1)
    act = np.arange(n + 1)
    for _ in range(_SECULAR_MAX_ITER):
        o, s, ya, ex = origin[act], sign[act], y[act], exact[act]
        q_left, q_right, p_left, p_right = sums
        g = s * ((o - a) + s * ya - (q_left + q_right))
        size = np.abs(o - a) + ya + (q_left - q_right)
        passed = (np.abs(g) <= 8.0 * _EPS * size) | (hi[act] - lo[act] <= 4.0 * _EPS * hi[act])
        done = passed & ex
        if not ex.all():
            # _far_error: the own pole's term is z2/y, the rest of sum |q| is
            # summed before it
            rest = (q_left - q_right) - z2[j[act] - (s > 0)] / ya
            bound = fft_q + 7.0 * _EPS * np.maximum(rest, 0.0) + 4.0 * _EPS * size
            weight_err = fft_p + 17.0 * _EPS * (p_left + p_right)
            stop = (~ex & (np.abs(g) + bound <= 8.0 * _EPS * (size - bound))
                    & (weight_err <= 9e-14 * (1.0 + p_left + p_right)))
            far[act[stop]] = True
            done |= stop
        root_wt[act[done]] = 1.0 / (1.0 + p_left[done] + p_right[done])
        keep_on = ~done
        act, g, ya, s, ex = act[keep_on], g[keep_on], ya[keep_on], s[keep_on], ex[keep_on]
        if act.size == 0:
            break
        p_left, p_right = p_left[keep_on], p_right[keep_on]
        rises = g > 0
        hi[act] = np.where(ex & rises, ya, hi[act])
        lo[act] = np.where(ex & ~rises, ya, lo[act])
        # two-pole model kappa - w_near/y + w_far/(far - y) matching G and G'
        # at ya; the poles on each side fold into that side's pole, and the
        # linear term of F into the far one.  Its root in (0, far) solves a
        # quadratic, taken in the form that does not cancel.
        far_pole = gap[act]
        w_near = ya ** 2 * np.where(s > 0, p_left, p_right)
        w_far = (far_pole - ya) ** 2 * (1.0 + np.where(s > 0, p_right, p_left))
        kappa = g + w_near / ya - w_far / (far_pole - ya)
        b = kappa * far_pole + w_near + w_far
        disc = np.sqrt(np.maximum(b * b - 4.0 * kappa * w_near * far_pole, 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            y_new = np.where(b > 0, 2.0 * w_near * far_pole / (b + disc),
                             (disc - b) / (-2.0 * kappa))
        inside = (y_new > lo[act]) & (y_new < hi[act])
        y_new = np.where(inside, y_new, 0.5 * (lo[act] + hi[act]))
        moved = np.abs(y_new - ya)
        exact[act] = ex | passed[keep_on] | (moved >= step[act])
        step[act], y[act] = moved, y_new
        sums = sweep(act)
    else:
        raise RuntimeError("secular equation did not converge")
    return origin, sign, y, root_wt, far


def survival_amplitude_oracle(model: FriedrichsModel, t_grid,
                              n_modes: int = N_MODES):
    """A(t) = <1|e^{-iHt}|1> = sum_l |<1|l>|^2 e^{-ilt} over the exact
    spectrum of the discretized H (_arrowhead_spectrum), for an evenly
    spaced t_grid (_even_grid).

    The phase table is factored over the time lattice: with t_m = t_0 + m dt
    and m = q B + r, B = ceil(sqrt(len(t_grid))),
        e^{-il t_m} = e^{-il (t_0 + r dt)} e^{-il q B dt},
    so cos and sin run on B offset rows and ceil(len/B) block rows, not on
    every (time, eigenvalue) pair, and each block of B times is two real
    matrix-vector products of the offset table with that block's weighted
    rows, in O(sqrt(len(t_grid)) N) memory.  Times at which a factor's phase,
    at most max(max|t|, |t_last - t_0|) max|l|, overflows raise ValueError.
    """
    evals, weights = _arrowhead_spectrum(model, n_modes)
    t_grid = np.asarray(t_grid, dtype=float).ravel()
    n_t = t_grid.size
    span = abs(float(t_grid[-1]) - float(t_grid[0])) if n_t else 0.0
    _check_phase(max(float(np.abs(t_grid).max(initial=0.0)), span) * float(np.abs(evals).max()))
    t0, dt = _even_grid(t_grid)
    if n_t == 0:
        return np.empty(0, dtype=complex)
    b = math.isqrt(n_t - 1) + 1
    table = np.empty((2 * b, evals.size))  # cos, then sin, at the offsets t_0 + r dt
    np.multiply.outer(t0 + np.arange(b) * dt, evals, out=table[b:])
    np.cos(table[b:], out=table[:b])
    np.sin(table[b:], out=table[b:])
    ph = np.outer(np.arange(0, n_t, b) * dt, evals)
    w_cos = np.cos(ph)
    w_cos *= weights
    w_sin = np.sin(ph, out=ph)
    w_sin *= weights
    out = np.empty(w_cos.shape[0] * b, dtype=complex)
    for q in range(w_cos.shape[0]):
        # sum w e^{-il(t_0 + r dt)} e^{-il q b dt} = sum (cos - i sin)(w_cos - i w_sin)
        c, s = table @ w_cos[q], table @ w_sin[q]
        out[q * b:(q + 1) * b] = (c[:b] - s[b:]) - 1j * (c[b:] + s[:b])
    return out[:n_t]


def spectral_density(model: FriedrichsModel, n_points: int = N_POINTS):
    """psi(omega) = lam^2 g^2 / |alpha(omega+i0)|^2 on a fine midpoint grid:
    (omega grid, psi, d omega), computed once per model and n_points and
    returned read-only.

    alpha(omega_j + i0) takes the singularity subtraction of _cut_integral,
    with the smooth part summed on the uniform nodes u_k = k dw/r,
    k = 0..n_points r, r the smallest odd integer with n_points r >= 400, so
    each omega_j is a node midpoint and omega_j - u_k = (m + 1/2) dw/r never
    vanishes.  The rule is the trapezoid rule with 8-node Euler-Maclaurin end
    corrections (_end_weights).  Its sums over k of w_k g^2(u_k)/(omega_j -
    u_k) and of w_k/(omega_j - u_k) are Toeplitz products with the kernel
    1/(m + 1/2).  The second, the kernel's spectrum and the weights depend
    on n_points alone: they form a read-only plan, built once per n_points,
    of which the last is kept (_density_plan).  A model's density then
    takes the first from one FFT convolution (_toeplitz_cauchy).
    """
    if n_points < 1:
        raise ValueError("n_points must be at least 1")

    def density():
        r, mid, wts, kernel_spec, s_w = _density_plan(n_points)
        w_max = model.omega_max
        dw = w_max / n_points
        wgrid = (np.arange(n_points) + 0.5) * dw
        s_g2 = _toeplitz_cauchy(wts * model.g2(np.arange(wts.size) * (dw / r)), kernel_spec)[mid]
        g2w = model.g2(wgrid)
        pv = (s_g2 - g2w * s_w) + g2w * (np.log(wgrid) - np.log(w_max - wgrid))
        alpha_cut = wgrid - model.omega1 - model.lam ** 2 * (pv - 1j * np.pi * g2w)
        return wgrid, model.lam ** 2 * g2w / np.abs(alpha_cut) ** 2, dw

    return _memoized(model, ("density", n_points), density)


@lru_cache(maxsize=1)  # a run's densities share one n_points
def _density_plan(n_points: int):
    """The read-only part of spectral_density that depends on n_points
    alone: the node spacing r, the slice mid of the nodes next below the
    midpoints, the weights w_k, which are 1 + delta_k at the 8 nodes of
    each end (_end_weights) and 1 elsewhere, the real FFT of the kernel
    1/(m + 1/2) and s_w = sum_k w_k/(m + 1/2) at the midpoints.  A density
    then makes one forward FFT, one product and one inverse FFT
    (_toeplitz_cauchy); the plan is about 1.3 MB at N_POINTS."""
    r = -(-400 // n_points) | 1
    nodes = n_points * r + 1
    ends = 1.0 + _end_weights()
    wts = np.ones(nodes)
    wts[:8] = ends
    wts[-8:] = ends[::-1]
    kernel = np.arange(1.5 - nodes, nodes)  # m + 1/2 at the lags m
    np.reciprocal(kernel, out=kernel)
    kernel_spec = np.fft.rfft(kernel, _fft_size(2 * nodes - 1))
    mid = slice((r - 1) // 2, nodes - 1, r)  # omega_j lies between nodes mid and mid + 1
    s_w = _toeplitz_cauchy(wts, kernel_spec)[mid].copy()
    for x in (wts, kernel_spec, s_w):
        x.flags.writeable = False
    return r, mid, wts, kernel_spec, s_w


def _end_weights() -> np.ndarray:
    """delta_k, k = 0..7: sum_k f(k) + delta_k (f(k) + f(N - k)) over the
    nodes 0..N integrates every polynomial of degree < 8 exactly (N >= 15).
    They solve sum_k delta_k k^p = -1/2 for p = 0, B_{p+1}/(p+1) for odd p
    and 0 for even p > 0, the trapezoid and Euler-Maclaurin end terms."""
    moments = [-1 / 2, 1 / 12, 0.0, -1 / 120, 0.0, 1 / 252, 0.0, -1 / 240]
    return np.linalg.solve(np.vander(np.arange(8.0), increasing=True).T, moments)


def _check_phase(largest: float):
    """ValueError unless a route's largest phase argument is finite.  The
    caller forms it from Python floats, which overflow to inf silently."""
    if not math.isfinite(largest):
        raise ValueError("t must be finite, and small enough that no survival phase overflows")


def _even_grid(t: np.ndarray):
    """(t_0, dt) of a flat grid t_m = t_0 + m dt, the one both survival
    routes need; (0, 0) for an empty grid and (t_0, 0) for one time.
    ValueError unless every time lies within 64 eps max|t| of its lattice
    point, and, before that, unless the grid's span is finite."""
    n_t = t.size
    if n_t < 2:
        return (float(t[0]) if n_t else 0.0), 0.0
    t0 = float(t[0])
    span = float(t[-1]) - t0
    _check_phase(span)
    dt = span / (n_t - 1)
    if np.abs(t - (t0 + np.arange(n_t) * dt)).max() > 64 * _EPS * np.abs(t).max():
        raise ValueError("t_grid must be evenly spaced")
    return t0, dt


def _turns(b: float, n):
    """frac(b*n) for integers 0 <= n < 2**52, to a few ulps of 1.

    b is split into two 26-bit halves and n into two 26-bit limbs, so each
    partial product is exact and its fraction is taken before any rounding.
    Its largest intermediate, |b| max(2**27 + 1, n), must be finite.
    """
    n = np.asarray(n, dtype=np.int64)
    _check_phase(abs(b) * max(134217729.0, float(n.max(initial=0))))
    b_hi = 134217729.0 * b
    b_hi = b_hi - (b_hi - b)
    b_lo = b - b_hi
    n_hi = (n >> 26).astype(float) * 67108864.0
    n_lo = (n & 67108863).astype(float)
    parts = (b_hi * n_hi, b_hi * n_lo, b_lo * n_hi, b_lo * n_lo)
    return sum(x - np.floor(x) for x in parts)


def _fft_size(n: int) -> int:
    """The smallest 2**a 3**b 5**c >= n (n >= 1), a length numpy's FFT
    runs at full speed; the next power of two can be almost 2 n."""
    best = 1 << (n - 1).bit_length()
    odd = 1
    while odd < best:
        smooth = odd
        while smooth < best:
            best = min(best, smooth << (-(-n // smooth) - 1).bit_length())
            smooth *= 3
        odd *= 5
    return best


def survival_amplitude_quadrature(model: FriedrichsModel, t_grid,
                                  n_points: int = N_POINTS):
    """A(t) = int psi(omega) e^{-i omega t} domega as the midpoint sum over
    the spectral_density grid, for an evenly spaced t_grid (_even_grid).

    With omega_k = (k + 1/2) dw and t_m = t_0 + m dt the sum is a chirp-z
    transform: k m = (k^2 + m^2 - (m - k)^2)/2 turns it into one Bluestein
    convolution, done with FFTs of a 5-smooth length (_fft_size) in
    O(n_points + len(t_grid)) memory.  Its phases and kernel spectrum depend
    only on the grid, not on psi (_chirp_plan), so a call builds them once
    per grid and then makes one FFT of psi dw times the input phases, one
    product with the kernel spectrum and one inverse FFT.  Times at which a
    chirp phase overflows raise ValueError.
    """
    t_grid = np.asarray(t_grid, dtype=float).ravel()
    _check_phase(float(np.abs(t_grid).max(initial=0.0)))
    wgrid, psi, dw = spectral_density(model, n_points)
    t0, dt = _even_grid(t_grid)
    n_t = t_grid.size
    if n_t == 0:
        return np.empty(0, dtype=complex)
    # omega_k t_m / (2 pi) = u (2k + 1) + b (k^2 + m^2 - (m - k)^2 + m)
    x_phase, kernel_spec, out_phase = _chirp_plan(n_points, n_t, float(dw) * t0 / (4.0 * np.pi),
                                                  float(dw) * dt / (4.0 * np.pi))
    spec = np.fft.fft(psi * dw * x_phase, kernel_spec.size)
    spec *= kernel_spec
    return np.fft.ifft(spec)[:n_t] * out_phase


@lru_cache(maxsize=2)  # a run's t grid and its late times, which calls alternate
def _chirp_plan(n_points: int, n_t: int, u: float, b: float):
    """The read-only chirp-z plan of survival_amplitude_quadrature for
    omega_k t_m / (2 pi) = u (2k + 1) + b (k^2 + m^2 - (m - k)^2 + m): the
    input phases e^{-2 pi i (u (2k + 1) + b k^2)}, k < n_points, the FFT of
    the Bluestein kernel e^{2 pi i b l^2} at the lags 1 - n_points..n_t - 1,
    and the output phases e^{-2 pi i b m (m + 1)}, m < n_t.  Phases are
    reduced mod 2 pi exactly (_turns), so they stay accurate however large
    k^2 dw dt grows; the chirp b k^2 is computed once and serves the input
    and both halves of the kernel, whose lags are squared.  A phase that
    overflows raises ValueError, and lru_cache keeps no exception."""
    k = np.arange(max(n_points, n_t))
    chirp = _turns(b, k * k)
    x_phase = np.exp(-2j * np.pi * (_turns(u, 2 * k[:n_points] + 1) + chirp[:n_points]))
    size = _fft_size(n_points + n_t - 1)
    kernel = np.zeros(size, dtype=complex)
    kernel[:n_t] = np.exp(2j * np.pi * chirp[:n_t])
    kernel[size - n_points + 1:] = np.exp(2j * np.pi * chirp[n_points - 1:0:-1])
    plan = x_phase, np.fft.fft(kernel), np.exp(-2j * np.pi * _turns(b, k[:n_t] * (k[:n_t] + 1)))
    for x in plan:
        x.flags.writeable = False
    return plan


def pole_approximation(pole: ResonancePole, t):
    """Pure exponential survival e^{-gamma1 t}."""
    return np.exp(-pole.gamma1 * np.asarray(t, dtype=float))


def recurrence_time(model: FriedrichsModel, n_modes: int = N_MODES) -> float:
    """Revival horizon of the uniform discretization, 2 pi / d omega."""
    return 2.0 * np.pi * n_modes / model.omega_max


def survival_probability(model: FriedrichsModel, t_grid,
                         n_modes: int = N_MODES, n_points: int = N_POINTS):
    """P(t) by the exact spectrum of the discretized H (the oracle) and by
    spectral-density quadrature, for an evenly spaced t_grid; a scalar or an
    array of any shape is read as the flat grid, and every array of the
    report has its length.

    The two routes run at once: the oracle (the secular solve and its phase
    table) on a worker thread, in a copy of the caller's context (numpy's
    error state lives in a context variable), and the quadrature (the
    spectral density and its chirp-z plan) on this thread.  The worker is
    joined before either route's exception propagates.  Times beyond half the
    discretization recurrence horizon are flagged: there the oracle is
    contaminated by revivals.
    """
    t_grid = np.asarray(t_grid, dtype=float).ravel()
    if not np.all(np.isfinite(t_grid)):
        raise ValueError("t must be finite")
    if np.any(t_grid < 0):
        raise ValueError("t must be non-negative")
    pole = find_pole(model)  # before the quadrature: a level out of float range stops here
    if model.lam == 0.0:  # the uncoupled level does not decay
        p_a, p_b = np.ones_like(t_grid), np.ones_like(t_grid)
        flagged = np.zeros_like(t_grid, bool)
    else:
        from concurrent.futures import ThreadPoolExecutor  # not on the CLI's import path

        with ThreadPoolExecutor(1) as pool:
            oracle = pool.submit(contextvars.copy_context().run,
                                 survival_amplitude_oracle, model, t_grid, n_modes)
            p_b = np.abs(survival_amplitude_quadrature(model, t_grid, n_points)) ** 2
            p_a = np.abs(oracle.result()) ** 2
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
    if z.size == 0:
        raise ValueError("spectrum must not be empty")
    if np.any(z.imag > 1e-15):
        raise ValueError("spectrum must have non-positive imaginary parts")
    gam = -2.0 * z.imag
    return gam[:, None] + gam[None, :]


def lambda_lyapunov(spectrum, rho0: np.ndarray, t_grid) -> np.ndarray:
    """Y(t) = sum_ij |rho_ij|^2 e^{-Gamma_ij t}; non-increasing in t.  A scalar
    or an array of any shape is read as the flat grid."""
    rho0 = np.asarray(rho0, dtype=complex)
    gam = damping_matrix(spectrum)
    if rho0.shape != gam.shape:
        raise ValueError("state dimension must match the spectrum")
    t_grid = np.asarray(t_grid, dtype=float).ravel()
    if np.any(t_grid < 0):
        raise ValueError("t must be non-negative: the Lambda-evolution runs forward only")
    w = np.abs(rho0) ** 2
    return np.array([float(np.sum(w * np.exp(-gam * t))) for t in t_grid])
