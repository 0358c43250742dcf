"""Spectral decomposition of the beta-adic transfer operator on polynomials.

Bernoulli polynomials B_n are right eigenvectors, U B_n = beta^-n B_n; the
dual (left) functionals pick off boundary derivatives.  Coefficients are
exact rationals (int or Fraction) throughout, so every identity here holds
exactly; `Poly.as_floats` is the one way out to float64.

The Bernoulli numbers come from the recurrence
sum_{k<=m} C(m+1, k) B_k = 0 (m >= 1, B_0 = 1, so B_1 = -1/2), and the
polynomials from B_n(x) = sum_k C(n, k) B_{n-k} x^k, both in `Fraction`
arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from numbers import Rational

import numpy as np
from numpy.polynomial.polynomial import polyval

from .table import to_csv


class Poly:
    """Polynomial with exact rational (int or Fraction) coefficients, low order first."""

    def __init__(self, coeffs):
        cs = list(coeffs)
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
        """The coefficients rounded to a float64 array, low order first."""
        return np.array([float(c) for c in self.coeffs])

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __repr__(self):
        return f"Poly({list(self.coeffs)})"


def bernoulli_poly(n: int) -> Poly:
    """B_n(x) with exact rational coefficients (B_0 = 1, B_1 = x - 1/2, ...)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    bs = [Fraction(1)]
    for m in range(1, n + 1):
        bs.append(-sum(comb(m + 1, k) * b for k, b in enumerate(bs)) / (m + 1))
    return Poly([comb(n, k) * bs[n - k] for k in range(n + 1)])


def fp_poly(p: Poly, base: int) -> Poly:
    """Transfer operator on a polynomial: (1/b) sum_r p((x+r)/b), exact.

    Expanding ((x+r)/b)^k binomially, the sum over r needs only the integer
    power sums S_m = sum_{r<b} r^m.
    """
    s = [sum(r ** m for r in range(base)) for m in range(len(p.coeffs))]
    out = [0] * len(p.coeffs)
    for k, c in enumerate(p.coeffs):
        ck = Fraction(c, base ** (k + 1))
        for j in range(k + 1):
            out[j] += comb(k, j) * s[k - j] * ck
    return Poly(out)


def left_functional(n: int, p: Poly):
    """Dual pairing (B~_n, p): integral for n=0, boundary jump of the
    (n-1)-th derivative over n! for n >= 1."""
    return expand(p, n)[n]


def expand(p: Poly, n_max: int | None = None):
    """Coefficients c_n = (B~_n, p), n <= n_max, with p = sum c_n B_n; exact
    for rational p.

    c_0 is the integral of p over [0, 1] and c_n = (p^(n-1)(1) - p^(n-1)(0))/n!
    for n >= 1, taken along one pass over the derivatives of p.
    """
    if n_max is None:
        n_max = p.degree
    out = [p.integral01()]
    q = p
    for n in range(1, n_max + 1):
        out.append(Fraction(q(1) - q(0), factorial(n)))
        q = q.derivative()
    return out[:n_max + 1]


def reconstruct(coeffs) -> Poly:
    out = Poly([Fraction(0)])
    for n, c in enumerate(coeffs):
        out = out + bernoulli_poly(n).scaled(c)
    return out


def evolve_spectral(p: Poly, base: int, t: int) -> Poly:
    """U^t p via the eigenbasis: c_n -> beta^-nt c_n."""
    return reconstruct([Fraction(c, base ** (n * t)) for n, c in enumerate(expand(p))])


def decompose_equilibrium(p: Poly):
    """Split p into its invariant part (the mean) and the decaying remainder."""
    mean = p.integral01()
    decaying = p - Poly([mean])
    return Poly([mean]), decaying


def biorthonormality_matrix(n_max: int):
    """Gram matrix (B~_m, B_n); the identity when all is well."""
    return np.array([expand(bernoulli_poly(n), n_max) for n in range(n_max + 1)],
                    dtype=float).T


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
        out += polyval(mid, q.scaled(Fraction(1, (2 * n) ** j * factorial(j + 1))).as_floats())
        q = q.derivative().derivative()
    return out


def basis_table(n_max: int, n_points: int = 101) -> str:
    """CSV: x plus B_0..B_n sampled on a uniform grid."""
    xs = np.linspace(0.0, 1.0, n_points)
    cols = [xs] + [polyval(xs, bernoulli_poly(n).as_floats()) for n in range(n_max + 1)]
    return to_csv("x," + ",".join(f"B{n}" for n in range(n_max + 1)), zip(*cols))
