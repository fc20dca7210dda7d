"""Exact arithmetic kernel: field axioms, reduction, linear algebra."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robinlab.exactalg import (GAUSS_I, GaussianRational, RationalFunction,
                               Span, exact_matrix_inverse, exact_rank,
                               poly_divmod, poly_gcd, poly_mul, poly_scale,
                               poly_trim, reduce_over_field, rref)

fractions = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))


@st.composite
def rational_functions(draw):
    num = draw(st.lists(fractions, min_size=0, max_size=4))
    den = draw(st.lists(fractions, min_size=1, max_size=4)
               .filter(lambda c: any(c)))
    return RationalFunction(tuple(num), tuple(den))


@given(rational_functions(), rational_functions())
@settings(max_examples=60, deadline=None)
def test_field_add_commutes(x, y):
    assert x + y == y + x
    assert x * y == y * x


@given(rational_functions(), rational_functions(), rational_functions())
@settings(max_examples=60, deadline=None)
def test_field_distributes(x, y, z):
    assert x * (y + z) == x * y + x * z


@given(rational_functions())
@settings(max_examples=60, deadline=None)
def test_field_inverse(x):
    if x:
        one = RationalFunction((1,))
        assert x / x == one
        assert (one / x) * x == one
    assert x - x == RationalFunction((0,))


@st.composite
def planted_quotients(draw):
    """(num, den) over Q sharing a planted factor; the numerator may be zero
    and any leading coefficient negative."""
    num = draw(st.lists(fractions, min_size=0, max_size=4))
    den = draw(st.lists(fractions, min_size=1, max_size=4)
               .filter(lambda c: any(c)))
    common = draw(st.lists(fractions, min_size=1, max_size=3)
                  .filter(lambda c: c[-1]))
    return poly_mul(tuple(num), tuple(common)), poly_mul(tuple(den), tuple(common))


def _same_reduction(x, ref_num, ref_den):
    assert x.num == ref_num and x.den == ref_den
    assert all(type(c) is Fraction for c in x.num + x.den)
    assert hash(x) == hash((ref_num, ref_den))


@given(planted_quotients())
@settings(max_examples=200, deadline=None)
def test_integer_route_matches_field_euclid(quotient):
    num, den = quotient
    ref_num, ref_den = reduce_over_field(poly_trim(num), poly_trim(den))
    direct = RationalFunction(num, den)
    _same_reduction(direct, ref_num, ref_den)
    # the same quotient reached by arithmetic
    top, bottom = RationalFunction(num), RationalFunction(den)
    scale = Fraction(-2, 3)
    for x in (top / bottom, top * (1 / bottom), (top / bottom + 3) - 3,
              -(-top / bottom), top / (bottom * 2) * 2,
              RationalFunction(poly_scale(num, scale), poly_scale(den, scale))):
        assert x == direct
        _same_reduction(x, ref_num, ref_den)
    # the Q(i) route, which keeps the field Euclid, agrees in value
    gauss = RationalFunction(tuple(map(GaussianRational, num)),
                             tuple(map(GaussianRational, den)))
    assert gauss == direct and direct == gauss and hash(gauss) == hash(direct)
    assert gauss.num == ref_num and gauss.den == ref_den


def test_reduction_is_canonical():
    a = RationalFunction((0, 2), (2, 0, 2))       # 2x / (2 + 2x^2)
    b = RationalFunction((0, 1), (1, 0, 1))       # x / (1 + x^2)
    assert a == b and a.num == b.num and a.den == b.den
    # denominator is monic
    assert a.den[-1] == Fraction(1)


def test_gcd_cancellation():
    # (x^2 - 1) / (x - 1) reduces to x + 1
    r = RationalFunction((-1, 0, 1), (-1, 1))
    assert r.num == (Fraction(1), Fraction(1)) and r.den == (Fraction(1),)


def test_poly_divmod_roundtrip():
    from robinlab.exactalg import poly_add
    p = tuple(map(Fraction, (3, 0, -2, 1)))
    q = tuple(map(Fraction, (1, 1)))
    quo, rem = poly_divmod(p, q)
    assert poly_add(poly_mul(quo, q), rem) == p
    assert len(rem) < len(q)


def test_poly_gcd_monic():
    g = poly_gcd((Fraction(-2), Fraction(0), Fraction(2)),
                 (Fraction(-2), Fraction(2)))
    assert g[-1] == 1                      # monic
    assert len(g) == 2                     # degree 1: x - 1 divides both


def test_gaussian_rational_arithmetic():
    z = GaussianRational(Fraction(1, 2), Fraction(3))
    w = GaussianRational(2, -1)
    assert (z * w) / w == z
    assert z * GAUSS_I == GaussianRational(-3, Fraction(1, 2))
    assert z.mul_i() == z * GAUSS_I
    assert complex(GaussianRational(1, 2)) == 1 + 2j
    with pytest.raises(ZeroDivisionError):
        z / GaussianRational(0)


def test_rref_and_rank():
    rows = [[Fraction(1), Fraction(2), Fraction(3)],
            [Fraction(2), Fraction(4), Fraction(6)],
            [Fraction(0), Fraction(1), Fraction(1)]]
    red = rref(rows)
    assert len(red) == 2
    assert exact_rank(rows) == 2
    # pivots are 1 and sit left to right
    assert red[0][0] == 1 and red[1][1] == 1


def test_span_incremental():
    sp = Span()
    assert sp.add([Fraction(1), Fraction(0), Fraction(1)])
    assert not sp.add([Fraction(2), Fraction(0), Fraction(2)])
    assert sp.add([Fraction(0), Fraction(1), Fraction(0)])
    assert sp.dim == 2
    assert sp.contains([Fraction(3), Fraction(5), Fraction(3)])
    assert not sp.contains([Fraction(0), Fraction(0), Fraction(1)])


def test_exact_inverse():
    m = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]
    inv = exact_matrix_inverse(m)
    assert inv == [[Fraction(1), Fraction(-1)], [Fraction(-1), Fraction(2)]]
    with pytest.raises(ZeroDivisionError):
        exact_matrix_inverse([[Fraction(1), Fraction(2)],
                              [Fraction(2), Fraction(4)]])
