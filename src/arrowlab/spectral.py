"""Spectral decomposition of the beta-adic transfer operator on polynomials.

Bernoulli polynomials B_n are right eigenvectors, U B_n = beta^-n B_n; the
dual (left) functionals pick off boundary derivatives.  Coefficients are
exact rationals (int or Fraction) throughout, so every identity here holds
exactly; `Poly.as_floats` is the one way out to float64.

The Bernoulli numbers come from the recurrence
sum_{k<=m} C(m+1, k) B_k = 0 (m >= 1, B_0 = 1, so B_1 = -1/2), and the
polynomials from B_n(x) = sum_k C(n, k) B_{n-k} x^k.  The sums run on
integers: the numbers as a_k = B_k (n+1)!, and a polynomial's coefficients as
integer numerators over their least common denominator, so each output
coefficient is one `Fraction` built at the end.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, lcm
from numbers import Rational

import numpy as np

from .table import to_csv

_TABLE_POINTS = 101  # x samples in basis_table


class Poly:
    """Polynomial with exact rational (int or Fraction) coefficients, low order first."""

    def __init__(self, coeffs):
        cs = list(coeffs) or [0]
        if not all(isinstance(c, Rational) for c in cs):
            raise TypeError("Poly coefficients must be exact rationals (int or Fraction)")
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(out)

    def __sub__(self, other):
        return self + other.scaled(-1)

    def scaled(self, s):
        return Poly([s * c for c in self.coeffs])

    def derivative(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:] or [0])

    def integral01(self):
        """Integral over [0,1]."""
        return sum(Fraction(c, i + 1) for i, c in enumerate(self.coeffs))

    def compose_affine(self, a, b) -> "Poly":
        """p(a*x + b): c_k (a x + b)^k expanded binomially, exact for rational a, b."""
        out = [0] * len(self.coeffs)
        for k, c in enumerate(self.coeffs):
            for j in range(k + 1):
                out[j] += comb(k, j) * b ** (k - j) * c
        return Poly([a ** j * c for j, c in enumerate(out)])

    def as_floats(self) -> np.ndarray:
        """The coefficients rounded to a float64 array, low order first.
        ValueError, naming the first, when a coefficient is past float range."""
        out = []
        for k, c in enumerate(self.coeffs):
            try:
                out.append(float(c))
            except OverflowError:
                raise ValueError(f"the coefficient of x^{k} of a degree-{self.degree} "
                                 "polynomial is past float range") from None
        return np.array(out)

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __repr__(self):
        return f"Poly({list(self.coeffs)})"


def _numerators(p: Poly):
    """p's coefficients as integer numerators N_k over their least common
    denominator D, so that c_k = N_k / D."""
    den = lcm(*(c.denominator for c in p.coeffs))
    return [c.numerator * (den // c.denominator) for c in p.coeffs], den


def _bernoulli_polys(n_max: int, lo: int = 0) -> list:
    """B_lo(x), ..., B_n_max(x), all from one run of the number recurrence.

    It runs on the integers a_k = B_k f, f = (n_max + 1)!: the denominator of
    B_k divides (k + 1)!, so every division by m + 1 is exact.
    """
    f = factorial(max(n_max + 1, 0))
    a = [f]
    for m in range(1, n_max + 1):
        a.append(-sum(comb(m + 1, k) * ak for k, ak in enumerate(a)) // (m + 1))
    return [Poly([Fraction(comb(n, k) * a[n - k], f) for k in range(n + 1)])
            for n in range(lo, n_max + 1)]


def bernoulli_poly(n: int) -> Poly:
    """B_n(x) with exact rational coefficients (B_0 = 1, B_1 = x - 1/2, ...)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return _bernoulli_polys(n, n)[0]


def fp_poly(p: Poly, base: int) -> Poly:
    """Transfer operator on a polynomial: (1/b) sum_r p((x+r)/b), exact.

    Expanding ((x+r)/b)^k binomially, the sum over r needs only the integer
    power sums S_m = sum_{r<b} r^m.  With c_k = N_k / D over n coefficients,
    out_j = sum_k C(k, j) S_{k-j} N_k b^(n-1-k) / (D b^n), summed in integers.
    """
    if base < 2:
        raise ValueError("base must be >= 2")
    num, den = _numerators(p)
    n = len(num)
    s = [sum(r ** m for r in range(base)) for m in range(n)]
    w = [nk * base ** (n - 1 - k) for k, nk in enumerate(num)]
    den *= base ** n
    return Poly([Fraction(sum(comb(k, j) * s[k - j] * w[k] for k in range(j, n)), den)
                 for j in range(n)])


def expand(p: Poly, n_max: int | None = None):
    """Coefficients c_n = (B~_n, p), n <= n_max, with p = sum c_n B_n; exact
    for rational p.

    c_0 is the integral of p over [0, 1] and c_n = (p^(n-1)(1) - p^(n-1)(0))/n!
    for n >= 1.  With p's coefficients c_i = N_i / D as integer numerators
    over a common denominator, these are c_0 = sum_i N_i / ((i + 1) D) and
    c_n = sum_{i>=n} C(i, n-1) N_i / (n D), each summed in integers.
    """
    if n_max is None:
        n_max = p.degree
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    num, den = _numerators(p)
    m = lcm(*range(1, len(num) + 1))
    out = [Fraction(sum(nk * (m // (k + 1)) for k, nk in enumerate(num)), m * den)]
    for n in range(1, n_max + 1):
        out.append(Fraction(sum(comb(i, n - 1) * num[i] for i in range(n, len(num))), n * den))
    return out


def reconstruct(coeffs) -> Poly:
    coeffs = list(coeffs)
    out = Poly([Fraction(0)])
    for c, b in zip(coeffs, _bernoulli_polys(len(coeffs) - 1)):
        out = out + b.scaled(c)
    return out


def evolve_spectral(p: Poly, base: int, t: int) -> Poly:
    """U^t p via the eigenbasis: c_n -> beta^-nt c_n."""
    if base < 2:
        raise ValueError("base must be >= 2")
    if t < 0:
        raise ValueError("t must be non-negative")
    return reconstruct([Fraction(c, base ** (n * t)) for n, c in enumerate(expand(p))])


def biorthonormality_matrix(n_max: int):
    """Gram matrix (B~_m, B_n); the identity when all is well."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    return np.array([expand(b, n_max) for b in _bernoulli_polys(n_max)], dtype=float).T


def sample_poly(p: Poly, base: int, level: int) -> np.ndarray:
    """Cell averages of p on the beta-adic grid, relative error near eps at
    any level: the average over a cell of width h with midpoint m is
    sum_{j even} p^(j)(m) (h/2)^j / (j+1)!, each term one float evaluation
    of an exactly scaled derivative."""
    n = base ** level
    mid = (np.arange(n) + 0.5) / n
    out = np.zeros(n)
    q = p
    for j in range(0, p.degree + 1, 2):
        c = q.scaled(Fraction(1, (2 * n) ** j * factorial(j + 1))).as_floats()
        out += np.polyval(c[::-1], mid)
        q = q.derivative().derivative()
    return out


def basis_table(n_max: int) -> str:
    """CSV: x plus B_0..B_n sampled on `_TABLE_POINTS` evenly spaced x in [0, 1]."""
    xs = np.linspace(0.0, 1.0, _TABLE_POINTS)
    cols = [xs] + [np.polyval(b.as_floats()[::-1], xs) for b in _bernoulli_polys(n_max)]
    return to_csv("x," + ",".join(f"B{n}" for n in range(n_max + 1)), zip(*cols))
