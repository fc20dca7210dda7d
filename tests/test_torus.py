"""Torus-direction parameterization, foliation data, and classification.

Expected values for the worked tuple (1,1,0,1,1,1) were verified against an
independent sympy evaluation in test_against_sympy_oracle below, and frozen
here: a = (1+xi)/(1+xi^2), b = (1-xi)/(1+xi^2), A = (1+xi)/(1-xi),
C = eta = 2/(1-xi), F(1,1) = (xi, 1).
"""

import random
from fractions import Fraction

import pytest

from robinlab.acceptance import random_six_tuples
from robinlab.errors import GcdViolation, SearchExhausted
from robinlab.torus import (CaseTag, SixTuple, autC_integral_curve,
                            classify_direction, direction_from_tuple,
                            F_apply, F_inverse, foliation_data,
                            has_positive_xi_degree, parse_scalar, scalar,
                            serialize_scalar, sigma_t_disjointness, xi)

SAMPLE = SixTuple(1, 1, 0, 1, 1, 1)


def test_direction_sample_tuple():
    a, b = direction_from_tuple(SAMPLE)
    assert a == (xi() + 1) / (xi() * xi() + 1)
    assert b == (scalar(1) - xi()) / (xi() * xi() + 1)


def test_foliation_sample_tuple():
    fd = foliation_data(SAMPLE)
    assert fd.A == (scalar(1) + xi()) / (scalar(1) - xi())
    assert fd.C == scalar(2) / (scalar(1) - xi())
    assert fd.eta == scalar(2) / (scalar(1) - xi())
    assert has_positive_xi_degree(fd.eta)
    assert fd.d == Fraction(1, 1)
    # F(q(m,n)) = p(M',n') = (xi, 1)
    x3, x4 = F_apply(fd, scalar(1), scalar(1))
    assert x3 == xi() and x4 == scalar(1)


def test_F_inverse_composes_to_identity():
    fd = foliation_data(SixTuple(2, 3, 1, 2, 3, 4))
    x1, x2 = scalar(Fraction(5, 7)), xi() + 2
    x3, x4 = F_apply(fd, x1, x2)
    y1, y2 = F_inverse(fd, x3, x4)
    assert (y1, y2) == (x1, x2)


def test_F_second_point_identity():
    t = SAMPLE
    fd = foliation_data(t)
    y3, y4 = F_apply(fd, scalar(Fraction(t.p, t.n)), scalar(0))
    assert y3 == scalar(Fraction(t.q, t.n_prime)) + fd.eta * fd.tuple_.big_m_prime
    assert y4 == fd.eta * t.n_prime


def test_linearity_at_zero():
    fd = foliation_data(SAMPLE)
    assert F_apply(fd, scalar(0), scalar(0)) == (scalar(0), scalar(0))


def test_tuple_validation():
    with pytest.raises(GcdViolation):
        SixTuple(2, 4, 0, 1, 1, 1)
    with pytest.raises(GcdViolation):
        SixTuple(1, 1, 2, 4, 1, 1)
    with pytest.raises(GcdViolation):
        SixTuple(1, 1, 0, 1, 2, 4)
    with pytest.raises(GcdViolation):
        SixTuple(1, 1, 0, -1, 1, 1)
    with pytest.raises(GcdViolation):
        SixTuple(0, 1, 0, 1, 1, 1)


def test_b_never_zero():
    rng = random.Random(3)
    from math import gcd
    for _ in range(200):
        m = rng.randint(-9, 9)
        n = rng.randint(-9, 9)
        mp = rng.randint(-9, 9)
        np_, p, q = (rng.randint(1, 9) for _ in range(3))
        if m == 0 or n == 0 or gcd(m, n) != 1 or gcd(mp, np_) != 1 \
                or gcd(p, q) != 1:
            continue
        _, b = direction_from_tuple(SixTuple(m, n, mp, np_, p, q))
        assert b


def test_jacobian_identity_random():
    rng = random.Random(11)
    from math import gcd
    count = 0
    while count < 100:
        m = rng.randint(-15, 15)
        n = rng.randint(-15, 15)
        mp = rng.randint(-15, 15)
        np_, p, q = (rng.randint(1, 15) for _ in range(3))
        if m == 0 or n == 0 or gcd(m, n) != 1 or gcd(mp, np_) != 1 \
                or gcd(p, q) != 1:
            continue
        fd = foliation_data(SixTuple(m, n, mp, np_, p, q))  # asserts inside
        assert scalar(0) - fd.A * fd.A - fd.B * fd.C == scalar(1)
        count += 1


def test_classify_round_trip():
    rng = random.Random(23)
    from math import gcd
    count = 0
    while count < 25:
        m = rng.randint(-6, 6)
        n = rng.randint(-6, 6)
        mp = rng.randint(-6, 6)
        np_, p, q = (rng.randint(1, 6) for _ in range(3))
        if m == 0 or n == 0 or gcd(m, n) != 1 or gcd(mp, np_) != 1 \
                or gcd(p, q) != 1:
            continue
        t = SixTuple(m, n, mp, np_, p, q)
        a, b = direction_from_tuple(t)
        # the degrees _recover_tuple requires before it searches
        assert [(len(x.num), len(x.den)) for x in (a, b)] == [(2, 3), (2, 3)]
        d = classify_direction(a, b, height=8)
        assert d.case_tag is CaseTag.B_NONZERO
        assert d.recovered == t
        count += 1


def test_classify_b_zero_cases():
    d = classify_direction(scalar(Fraction(1, 2)), scalar(0))
    assert d.case_tag is CaseTag.B_ZERO_RATIONAL
    assert d.slope_point == (2, 1)          # a = q/p with q = 1, p = 2

    a = scalar(1) / (scalar(Fraction(3, 4)) + xi())
    d = classify_direction(a, scalar(0))
    assert d.case_tag is CaseTag.B_ZERO_XI_RATIONAL
    assert d.slope_point == (4, 3)

    d = classify_direction(xi(), scalar(0))
    assert d.case_tag is CaseTag.CANNOT_OCCUR

    d = classify_direction(scalar(0), scalar(0))
    assert d.case_tag is CaseTag.BETA_ZERO

    d = classify_direction(scalar(0), scalar(0), infinite_slope=True)
    assert d.case_tag is CaseTag.ALPHA_ZERO


def test_classify_search_exhausted():
    a, b = direction_from_tuple(SixTuple(5, 7, 3, 4, 2, 3))
    with pytest.raises(SearchExhausted):
        classify_direction(a, b, height=3)


def test_classify_not_representable():
    """Linear denominators come from no six-tuple, so the answer is
    NOT_REPRESENTABLE at every height rather than an exhausted search."""
    a = scalar(1) / (xi() + 3)
    b = scalar(2) / (xi() + 3)
    for height in (1, 3, 20):
        d = classify_direction(a, b, height=height)
        assert d.case_tag is CaseTag.NOT_REPRESENTABLE
        assert d.recovered is None


def test_sigma_leaves():
    fd = foliation_data(SAMPLE)                       # p = q = 1
    assert sigma_t_disjointness(fd, Fraction(1, 3), Fraction(4, 3))
    assert sigma_t_disjointness(fd, Fraction(1, 2), Fraction(1, 2))
    assert not sigma_t_disjointness(fd, Fraction(0), Fraction(1, 2))
    assert not sigma_t_disjointness(fd, Fraction(1, 5), Fraction(2, 5))
    # once p q > 1 the leaf period refines to 1/(p q): the lattice closure
    # spacing d = 1/(p n') forces sigma(0) = sigma(1/(p q))
    fd2 = foliation_data(SixTuple(1, 1, 0, 1, 1, 2))
    assert sigma_t_disjointness(fd2, Fraction(0), Fraction(1, 2))
    assert not sigma_t_disjointness(fd2, Fraction(0), Fraction(1, 4))


def test_autC_integral_curve():
    a, b = autC_integral_curve(1.0, 0.0, 1.0, 1.0, 0.0)
    assert abs(a - 2.718281828459045) < 1e-12 and abs(b) < 1e-12
    a, b = autC_integral_curve(0.0, 1.0, 2.0, 1.0, 0.0)
    assert (a, b) == (1.0, 2.0)
    a, b = autC_integral_curve(1.0, 1.0, 3.141592653589793j, 1.0, 0.0)
    assert abs(a + 1.0) < 1e-12 and abs(b + 2.0) < 1e-12


def test_autC_stays_on_line_random():
    rng = random.Random(8)
    for _ in range(50):
        alpha = complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) or 1.0
        beta = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        t = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        a0 = complex(rng.uniform(0.5, 2), rng.uniform(-1, 1))
        b0 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        a, b = autC_integral_curve(alpha, beta, t, a0, b0)
        assert abs(beta * a - alpha * b - (beta * a0 - alpha * b0)) < 1e-9


def test_scalar_serialization_round_trip():
    for x in (scalar(Fraction(-3, 7)), xi(), (xi() + 1) / (xi() * xi() + 2)):
        assert parse_scalar(serialize_scalar(x)) == x


def test_against_sympy_oracle():
    """Independent check with sympy arithmetic: the sample tuple and 20
    seeded random tuples of height <= 20, each value in its reduced form
    with a monic denominator."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("xi")

    def reduced(expr):
        num, den = sympy.fraction(sympy.cancel(sympy.together(expr)))
        num, den = sympy.Poly(num, x), sympy.Poly(den, x)
        lead = den.LC()
        return tuple(tuple(c / lead for c in reversed(p.all_coeffs()))
                     for p in (num, den))

    def ours(r):
        return (tuple(map(sympy.Rational, r.num)),
                tuple(map(sympy.Rational, r.den)))

    for t in [SAMPLE] + random_six_tuples(20, 20, seed=57):
        Mp = t.m_prime + t.n_prime * x
        p1, p2, q1, q2 = Mp * t.p, t.n_prime * t.p, t.m * t.q, t.n * t.q
        a_s = (p1 * p2 + q1 * q2) / (p1 ** 2 + q1 ** 2)
        b_s = (p2 * q1 - p1 * q2) / (p1 ** 2 + q1 ** 2)
        A_s, B_s, C_s = a_s / b_s, -1 / b_s, (a_s ** 2 + b_s ** 2) / b_s
        eta_s = (sympy.Rational(t.p, t.n * t.n_prime) * (p2 ** 2 + q2 ** 2)
                 / (p2 * q1 - p1 * q2))
        assert sympy.cancel(-A_s ** 2 - B_s * C_s - 1) == 0
        fd = foliation_data(t)
        for name, ref in (("a", a_s), ("b", b_s), ("A", A_s), ("B", B_s),
                          ("C", C_s), ("eta", eta_s)):
            assert ours(getattr(fd, name)) == reduced(ref), (t, name)
