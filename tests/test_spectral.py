from fractions import Fraction
from math import comb, factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrowlab.spectral import (Poly, _bernoulli_polys, basis_table,
                               bernoulli_poly, biorthonormality_matrix,
                               expand, fp_poly, reconstruct, sample_poly)


def test_poly_arithmetic():
    p = Poly([Fraction(1), Fraction(2), Fraction(3)])  # 1 + 2x + 3x^2
    assert p(Fraction(1, 2)) == Fraction(11, 4)
    assert p.derivative().coeffs == (Fraction(2), Fraction(6))
    assert p.integral01() == Fraction(3)
    q = p.compose_affine(Fraction(1, 2), Fraction(1, 2))
    assert q(Fraction(0)) == p(Fraction(1, 2))
    assert q(Fraction(1)) == p(Fraction(1))


def test_known_bernoulli_polynomials():
    assert bernoulli_poly(0).coeffs == (Fraction(1),)
    assert bernoulli_poly(1).coeffs == (Fraction(-1, 2), Fraction(1))
    assert bernoulli_poly(2).coeffs == (Fraction(1, 6), Fraction(-1), Fraction(1))


def test_bernoulli_numbers_exact():
    # B_n = B_n(0), the constant coefficient
    assert bernoulli_poly(2).coeffs[0] == Fraction(1, 6)
    assert bernoulli_poly(4).coeffs[0] == Fraction(-1, 30)
    assert bernoulli_poly(12).coeffs[0] == Fraction(-691, 2730)
    assert all(bernoulli_poly(n).coeffs[0] == 0 for n in range(3, 31, 2))


@given(st.integers(min_value=1, max_value=30))
def test_bernoulli_derivative_is_n_times_previous(n):
    assert bernoulli_poly(n).derivative() == bernoulli_poly(n - 1).scaled(n)


@given(st.integers(min_value=1, max_value=30))
def test_bernoulli_unit_difference(n):
    # B_n(x + 1) - B_n(x) = n x^(n-1)
    bn = bernoulli_poly(n)
    assert bn.compose_affine(1, 1) - bn == Poly([0] * (n - 1) + [n])


def test_poly_coefficients_stay_exact():
    with pytest.raises(TypeError):
        Poly([Fraction(1), 0.5])
    cs = bernoulli_poly(3).as_floats()
    assert cs.dtype == np.float64
    assert cs.tolist() == [0.0, 0.5, -1.5, 1.0]


def test_as_floats_names_a_coefficient_past_float_range():
    # B_258 is the last Bernoulli polynomial whose coefficients all fit a float64
    assert np.all(np.isfinite(bernoulli_poly(258).as_floats()))
    with pytest.raises(ValueError, match=r"coefficient of x\^1 of a degree-259 polynomial"):
        bernoulli_poly(259).as_floats()


def test_float_evaluation_is_horner():
    # basis_table and sample_poly evaluate as_floats() with the Horner loop
    xs = np.linspace(0.0, 1.0, 101)
    rows = [ln.split(",") for ln in basis_table(9).splitlines()[1:]]
    for n in range(10):
        cs = bernoulli_poly(n).as_floats()
        for x, row in zip(xs, rows):
            acc = 0.0
            for c in cs[::-1]:
                acc = acc * x + c
            assert float(row[n + 1]) == acc


def test_bernoulli_integral_zero():
    for n in range(1, 9):
        assert bernoulli_poly(n).integral01() == 0


def test_fp_poly_mean_preserving():
    p = Poly([Fraction(1), Fraction(-1, 3), Fraction(2, 5)])
    for base in (2, 3):
        assert fp_poly(p, base).integral01() == p.integral01()


def test_eigen_relation_exact():
    for base in (2, 3, 5):
        for n in range(9):
            bn = bernoulli_poly(n)
            assert fp_poly(bn, base) == bn.scaled(Fraction(1, base ** n))


def test_left_functionals_biorthonormal():
    for n in range(7):
        bn = bernoulli_poly(n)
        for m in range(7):
            assert expand(bn, m)[m] == (1 if m == n else 0)


def test_gram_matrix_identity():
    g = biorthonormality_matrix(8)
    assert np.abs(g - np.eye(9)).max() == 0.0


def test_gram_matrix_identity_exact_to_n_max_20():
    # the Gram rows in Fractions, before biorthonormality_matrix rounds them
    for n in range(21):
        row = expand(bernoulli_poly(n), 20)
        assert all(type(c) is Fraction for c in row)
        assert row == [Fraction(int(m == n)) for m in range(21)]


def test_bernoulli_polys_from_one_recurrence_match_each_poly():
    assert _bernoulli_polys(12) == [bernoulli_poly(n) for n in range(13)]
    assert _bernoulli_polys(12, 5) == [bernoulli_poly(n) for n in range(5, 13)]
    assert _bernoulli_polys(-1) == []


def test_negative_n_max_rejected():
    with pytest.raises(ValueError, match="n_max must be >= 0"):
        expand(bernoulli_poly(2), -1)
    with pytest.raises(ValueError, match="n_max must be >= 0"):
        biorthonormality_matrix(-1)
    with pytest.raises(ValueError, match="n must be >= 0"):
        bernoulli_poly(-1)


def test_expand_reconstruct_roundtrip():
    p = Poly([Fraction(2), Fraction(-1, 2), Fraction(1, 3), Fraction(7, 4)])
    assert reconstruct(expand(p)) == p


def test_spectral_evolution_matches_direct():
    # U^t p through the eigenbasis, c_n -> beta^-nt c_n, is fp_poly applied t times
    p = Poly([Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)])
    for base in (2, 3):
        direct = p
        for t in range(4):
            assert reconstruct([c / base ** (n * t) for n, c in enumerate(expand(p))]) == direct
            direct = fp_poly(direct, base)


@pytest.mark.parametrize("base", [1, 0, -2])
def test_spectral_steps_reject_base_below_2(base):
    with pytest.raises(ValueError, match="base must be >= 2"):
        fp_poly(bernoulli_poly(2), base)


def test_decompose_equilibrium():
    # p splits into its invariant mean and a remainder with no B_0 component
    p = Poly([Fraction(3, 2), Fraction(1, 2)])
    inv = Poly([p.integral01()])
    dec = p - inv
    assert dec.integral01() == 0
    assert expand(dec)[0] == 0
    assert inv + dec == p


def test_sample_poly_cell_averages():
    # exact cell averages of B1 = x - 1/2 on the dyadic grid
    v = sample_poly(bernoulli_poly(1), 2, 3)
    expect = (np.arange(8) + 0.5) / 8 - 0.5
    assert np.allclose(v, expect, atol=1e-14)


def test_sample_poly_exact_at_fine_level():
    # cell averages of B8 at level 16 against exact Fraction averages
    p = bernoulli_poly(8)
    antider = Poly([0] + [Fraction(c, i + 1) for i, c in enumerate(p.coeffs)])
    n = 2 ** 16
    v = sample_poly(p, 2, 16)
    for i in (0, 1, n // 3, n // 2 + 7, n - 1):
        exact = float((antider(Fraction(i + 1, n)) - antider(Fraction(i, n))) * n)
        assert abs(v[i] - exact) <= 1e-13 * abs(exact)


def test_basis_table_header():
    text = basis_table(3)
    lines = text.splitlines()
    assert lines[0] == "x,B0,B1,B2,B3"
    assert len(lines) == 102


def test_empty_poly_is_the_zero_poly():
    assert Poly([]).coeffs == (0,)
    assert Poly([]).degree == 0
    assert Poly([]) == Poly([0])
    assert expand(Poly([])) == [Fraction(0)]


# Reference kernels: the term-by-term Fraction loops that the integer-numerator
# kernels replace.  Both must give the same Fraction for every coefficient.

def _fp_poly_loop(p, base):
    s = [sum(r ** m for r in range(base)) for m in range(len(p.coeffs))]
    out = [0] * len(p.coeffs)
    for k, c in enumerate(p.coeffs):
        ck = Fraction(c, base ** (k + 1))
        for j in range(k + 1):
            out[j] += comb(k, j) * s[k - j] * ck
    return Poly(out)


def _expand_loop(p, n_max):
    out = [p.integral01()]
    q = p
    for n in range(1, n_max + 1):
        out.append(Fraction(q(1) - q(0), factorial(n)))
        q = q.derivative()
    return out


def _bernoulli_loop(n_max, lo=0):
    bs = [Fraction(1)]
    for m in range(1, n_max + 1):
        bs.append(-sum(comb(m + 1, k) * b for k, b in enumerate(bs)) / (m + 1))
    return [Poly([comb(n, k) * bs[n - k] for k in range(n + 1)]) for n in range(lo, n_max + 1)]


def _typed(cs):
    return [(type(c), c) for c in cs]


_coeff = st.one_of(st.integers(-10 ** 9, 10 ** 9),
                   st.builds(Fraction, st.integers(-10 ** 9, 10 ** 9), st.integers(1, 10 ** 6)))
_poly = st.lists(_coeff, min_size=1, max_size=21).map(Poly)


@settings(max_examples=200, deadline=None)
@given(_poly, st.integers(2, 7))
def test_fp_poly_matches_fraction_loop(p, base):
    assert _typed(fp_poly(p, base).coeffs) == _typed(_fp_poly_loop(p, base).coeffs)


@settings(max_examples=200, deadline=None)
@given(_poly, st.integers(0, 6))
def test_expand_matches_fraction_loop(p, extra):
    assert _typed(expand(p)) == _typed(_expand_loop(p, p.degree))
    n_max = p.degree + extra
    assert _typed(expand(p, n_max)) == _typed(_expand_loop(p, n_max))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 40), st.data())
def test_bernoulli_polys_match_fraction_loop(n_max, data):
    lo = data.draw(st.integers(0, n_max))
    got, want = _bernoulli_polys(n_max, lo), _bernoulli_loop(n_max, lo)
    assert [_typed(b.coeffs) for b in got] == [_typed(b.coeffs) for b in want]
    assert _typed(bernoulli_poly(n_max).coeffs) == _typed(want[-1].coeffs)
