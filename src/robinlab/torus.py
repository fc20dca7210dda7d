"""Exact model of the torus foliation attached to a complex-line direction.

Everything here runs over Q(xi), the field of rational functions in a formal
irrational xi, so identities like the Jacobian relation -A^2 - B*C = 1 are
decided exactly.  "Irrational" becomes the predicate: a reduced element of
Q(xi) that is either nonconstant or a non-integral rational number never lies
in Z (see :func:`has_positive_xi_degree` for the variant used here).

Real coordinates (x1, x2, x3, x4) carry the lattice

    e1 = (1,0,0,0), e2 = (0,1,0,0), e3 = (0,0,1,0), e4 = (0,0,xi,1),

the complex structure z = x1 + i*x3, w = x2 + i*x4, and the direction field
whose integral surface is S: x2 + i*x4 = (a + i*b)(x1 + i*x3).
"""

from __future__ import annotations

import cmath
import enum
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional

from .errors import GcdViolation, SearchExhausted
from .exactalg import RationalFunction

XI_SYMBOL = "xi"


def xi() -> RationalFunction:
    """The formal irrational generator of Q(xi)."""
    return RationalFunction.variable(XI_SYMBOL)


def scalar(value) -> RationalFunction:
    """Embed a rational number into Q(xi)."""
    return RationalFunction.constant(Fraction(value), symbol=XI_SYMBOL)


# `AlgebraicScalar` is the domain name for elements of Q(xi).
AlgebraicScalar = RationalFunction


def is_rational_constant(x: AlgebraicScalar) -> bool:
    return x.is_constant()


def has_positive_xi_degree(x: AlgebraicScalar) -> bool:
    """Formalization of "this quantity is irrational": xi survives reduction."""
    return x.degree > 0


def serialize_scalar(x: AlgebraicScalar) -> str:
    num = ",".join(str(c) for c in x.num) or "0"
    den = ",".join(str(c) for c in x.den)
    return f"num:[{num}];den:[{den}]"


def parse_scalar(text: str) -> AlgebraicScalar:
    """Inverse of :func:`serialize_scalar`; accepts "num:[...];den:[...]"."""
    try:
        numpart, denpart = text.strip().split(";")
        num = [Fraction(t) for t in numpart.split("[", 1)[1].rstrip("]").split(",") if t]
        den = [Fraction(t) for t in denpart.split("[", 1)[1].rstrip("]").split(",") if t]
    except (ValueError, IndexError) as exc:
        raise ValueError(f"cannot parse scalar {text!r}") from exc
    return RationalFunction(num or (0,), den or (1,), symbol=XI_SYMBOL)


# ---------------------------------------------------------------------------
# six-integer parameterization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SixTuple:
    """Integers (m, n, m', n', p, q) selecting a torus direction.

    Constraints: gcd(m,n) = gcd(m',n') = gcd(p,q) = 1, with n', p, q > 0 and
    m, n both nonzero (the two closed curves the data encodes must avoid the
    coordinate axes, and eta below carries a 1/(n*n') factor).
    """

    m: int
    n: int
    m_prime: int
    n_prime: int
    p: int
    q: int

    def __post_init__(self):
        m, n, mp, np_, p, q = (self.m, self.n, self.m_prime,
                               self.n_prime, self.p, self.q)
        if np_ <= 0 or p <= 0 or q <= 0:
            raise GcdViolation(f"need n', p, q > 0, got n'={np_}, p={p}, q={q}")
        if m == 0 or n == 0:
            raise GcdViolation("need m != 0 and n != 0")
        if gcd(m, n) != 1:
            raise GcdViolation(f"gcd(m, n) = {gcd(m, n)} != 1")
        if gcd(mp, np_) != 1:
            raise GcdViolation(f"gcd(m', n') = {gcd(mp, np_)} != 1")
        if gcd(p, q) != 1:
            raise GcdViolation(f"gcd(p, q) = {gcd(p, q)} != 1")

    @property
    def big_m_prime(self) -> AlgebraicScalar:
        """M' = m' + n' * xi."""
        return scalar(self.m_prime) + scalar(self.n_prime) * xi()

    def p1p2q1q2(self):
        """(p1, p2, q1, q2) = (M'p, n'p, mq, nq) as elements of Q(xi)."""
        p1 = self.big_m_prime * self.p
        p2 = scalar(self.n_prime * self.p)
        q1 = scalar(self.m * self.q)
        q2 = scalar(self.n * self.q)
        return p1, p2, q1, q2


def direction_from_tuple(t: SixTuple) -> tuple[AlgebraicScalar, AlgebraicScalar]:
    """Slope data (a, b) of the direction encoded by the six-tuple."""
    p1, p2, q1, q2 = t.p1p2q1q2()
    denom = p1 * p1 + q1 * q1
    a = (p1 * p2 + q1 * q2) / denom
    b = (p2 * q1 - p1 * q2) / denom
    return a, b


# ---------------------------------------------------------------------------
# foliation data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FoliationData:
    """Linear map F, leaf directions, subalgebra generators, and spacings."""

    tuple_: SixTuple
    a: AlgebraicScalar
    b: AlgebraicScalar
    A: AlgebraicScalar
    B: AlgebraicScalar
    C: AlgebraicScalar
    l1_dir: tuple[int, int]
    l2_dir: tuple[AlgebraicScalar, int]
    subalgebra_gens: tuple[tuple[AlgebraicScalar, ...], ...]
    d: Fraction
    eta: AlgebraicScalar


def foliation_data(t: SixTuple) -> FoliationData:
    """Assemble the exact foliation data for a valid six-tuple.

    The Jacobian identity -A^2 - B*C = 1 is asserted; failure indicates an
    arithmetic bug, never bad input.
    """
    a, b = direction_from_tuple(t)
    A = a / b
    B = scalar(-1) / b
    C = (a * a + b * b) / b
    jac = scalar(0) - A * A - B * C
    if jac != scalar(1):
        raise AssertionError(f"Jacobian identity violated: -A^2-BC = {jac!r}")

    p1, p2, q1, q2 = t.p1p2q1q2()
    zero = scalar(0)
    gens = (
        (q1, q2, zero, zero),
        (zero, zero, p1, p2),
        (p2 * q1 - p1 * q2, zero, p1 * p2 + q1 * q2, p2 * p2 + q2 * q2),
    )
    eta = scalar(Fraction(t.p, t.n * t.n_prime)) * (p2 * p2 + q2 * q2) / (p2 * q1 - p1 * q2)
    return FoliationData(
        tuple_=t, a=a, b=b, A=A, B=B, C=C,
        l1_dir=(t.m, t.n),
        l2_dir=(t.big_m_prime, t.n_prime),
        subalgebra_gens=gens,
        d=Fraction(1, t.p * t.n_prime),
        eta=eta,
    )


def F_apply(fd: FoliationData, x1: AlgebraicScalar, x2: AlgebraicScalar):
    """(x1, x2) -> (A x1 + B x2, C x1 - A x2)."""
    return fd.A * x1 + fd.B * x2, fd.C * x1 - fd.A * x2


def F_inverse(fd: FoliationData, x3: AlgebraicScalar, x4: AlgebraicScalar):
    """(x3, x4) -> (-A x3 - B x4, -C x3 + A x4); exact inverse of F_apply."""
    return scalar(0) - fd.A * x3 - fd.B * x4, scalar(0) - fd.C * x3 + fd.A * x4


# ---------------------------------------------------------------------------
# direction classification
# ---------------------------------------------------------------------------

class CaseTag(enum.Enum):
    ALPHA_ZERO = "alpha_zero"
    BETA_ZERO = "beta_zero"
    B_ZERO_RATIONAL = "b_zero_rational"
    B_ZERO_XI_RATIONAL = "b_zero_xi_rational"
    B_NONZERO = "b_nonzero"
    CANNOT_OCCUR = "cannot_occur"
    NOT_REPRESENTABLE = "not_representable"


@dataclass(frozen=True)
class TorusDirection:
    """Classified direction; `closure_note` names the closure of the orbit."""

    a: AlgebraicScalar
    b: AlgebraicScalar
    case_tag: CaseTag
    slope_point: Optional[tuple[int, int]] = None
    recovered: Optional[SixTuple] = None
    closure_note: str = ""


def classify_direction(a: AlgebraicScalar, b: AlgebraicScalar,
                       height: int = 50, *,
                       infinite_slope: bool = False) -> TorusDirection:
    """Case analysis of the direction with slope data w = (a + i b) z.

    For b = 0: rational a gives a closed curve crossed with a dense factor;
    irrational a with 1/a - xi rational gives the transposed picture; and
    1/a - xi irrational is the contradiction case, so the verdict is
    CANNOT_OCCUR.  For b != 0 the unique six-tuple is recovered by a bounded
    scan over primitive integer pairs (m, n) up to `height`, solving the two
    rational-function identities exactly for the remaining four integers.
    """
    if infinite_slope:
        return TorusDirection(a, b, CaseTag.ALPHA_ZERO,
                              closure_note="closure is S^1 x T2")
    if not b:
        if not a:
            return TorusDirection(a, b, CaseTag.BETA_ZERO,
                                  closure_note="closed one-dimensional torus factor")
        if is_rational_constant(a):
            av = a.constant_value()
            # a = q/p with the closed curve through the primitive point (p, q)
            p, q = av.denominator, av.numerator
            return TorusDirection(a, b, CaseTag.B_ZERO_RATIONAL,
                                  slope_point=(p, q),
                                  closure_note="closed curve x dense factor")
        w = scalar(1) / a - xi()
        if is_rational_constant(w):
            wv = w.constant_value()
            return TorusDirection(a, b, CaseTag.B_ZERO_XI_RATIONAL,
                                  slope_point=(wv.denominator, wv.numerator),
                                  closure_note="dense factor x closed curve")
        return TorusDirection(a, b, CaseTag.CANNOT_OCCUR,
                              closure_note="both factors dense: cannot occur")

    tup = _recover_tuple(a, b, height)
    if tup is None:
        return TorusDirection(a, b, CaseTag.NOT_REPRESENTABLE,
                              closure_note="no six-tuple matches the slope data")
    return TorusDirection(a, b, CaseTag.B_NONZERO, recovered=tup,
                          closure_note="three-dimensional compact leaf closure")


def _recover_tuple(a: AlgebraicScalar, b: AlgebraicScalar,
                   height: int) -> Optional[SixTuple]:
    """Invert direction_from_tuple by scanning primitive (m, n), |m|,|n| <= height.

    For the true (m, n):  F(m, n) = (p/q)(M', n'), so  C*m - A*n  must be a
    positive rational and  A*m + B*n  must be linear in xi; those two exact
    identities determine (m', n', p, q).  Returns None for slope data no
    six-tuple can give; raises SearchExhausted when none up to `height` does.
    """
    # direction_from_tuple reduces to numerators of degree 1 over the
    # denominator p^2 (m' + n' xi)^2 + m^2 q^2 of degree 2, which is
    # irreducible over R because m q != 0, so nothing cancels
    for x in (a, b):
        if len(x.num) != 2 or len(x.den) != 3:
            return None
    A = a / b
    B = scalar(-1) / b
    C = (a * a + b * b) / b
    for m, n in _primitive_pairs(height):
        s = C * m - A * n                # = (p/q) n'
        if not s.is_constant():
            continue
        sv = s.constant_value()
        if sv <= 0:
            continue
        u = A * m + B * n                # = (p/q)(m' + n' xi)
        if len(u.den) != 1 or len(u.num) - 1 > 1:
            continue
        u0 = u.num[0] / u.den[0] if u.num else Fraction(0)
        u1 = (u.num[1] / u.den[0]) if len(u.num) > 1 else Fraction(0)
        if u1 != sv or u1 <= 0:
            continue
        # primitive (m', n') from m'/n' = u0/u1 with n' > 0
        ratio = u0 / u1
        m_prime, n_prime = ratio.numerator, ratio.denominator
        pq = u1 / n_prime
        p, q = pq.numerator, pq.denominator
        if p <= 0:
            continue
        try:
            cand = SixTuple(m, n, m_prime, n_prime, p, q)
        except GcdViolation:
            continue
        if direction_from_tuple(cand) == (a, b):
            return cand
    raise SearchExhausted(
        f"no six-tuple of height <= {height} reproduces the slope data")


def _primitive_pairs(height: int):
    """Primitive (m, n), both nonzero, in rings of growing max(|m|, |n|)."""
    for r in range(1, height + 1):
        for m in range(-r, r + 1):
            for n in range(-r, r + 1):
                if max(abs(m), abs(n)) != r:
                    continue
                if m == 0 or n == 0 or gcd(m, n) != 1:
                    continue
                yield m, n


# ---------------------------------------------------------------------------
# leaves of the fibration
# ---------------------------------------------------------------------------

def sigma_t_disjointness(fd: FoliationData, t: Fraction, t_prime: Fraction) -> bool:
    """True iff the leaves at parameters t and t' coincide (else disjoint).

    Decided by leaf membership of the translation representative: the leaf at
    parameter t is the s-sweep of circle pairs (l1(t+s), l2(s)); the circles
    l1, l2 have parameter periods 1/p and 1/q modulo the lattice, so the two
    leaves share a point iff  p*(t - t' + s) and q*s are integers for some s.
    The arithmetic consequence is (t - t') * p * q in Z; for p = q = 1 this is
    exactly "t - t' is an integer".
    """
    t, t_prime = Fraction(t), Fraction(t_prime)
    delta = t - t_prime
    p, q = fd.tuple_.p, fd.tuple_.q
    for k in range(q):
        # l2(s) = l2(0) exactly when q*s is an integer; try s = k/q
        if ((delta + Fraction(k, q)) * p).denominator == 1:
            return True
    return False


# ---------------------------------------------------------------------------
# one-parameter subgroups of the affine automorphism group of C
# ---------------------------------------------------------------------------

def autC_integral_curve(alpha: complex, beta: complex, t: complex,
                        a0: complex, b0: complex) -> tuple[complex, complex]:
    """Flow of the left-invariant field (alpha, beta) from (a0, b0) for time t.

    Returns (a0 e^{alpha t}, a0 beta (e^{alpha t} - 1)/alpha + b0); the alpha=0
    limit is (a0, a0 beta t + b0).  The result stays on the complex line
    beta*a - alpha*b = beta*a0 - alpha*b0.
    """
    if alpha == 0:
        return a0, a0 * beta * t + b0
    phi = _expm1_ratio(alpha * t) * t   # (e^{alpha t} - 1)/alpha
    point = (a0 * cmath.exp(alpha * t), a0 * beta * phi + b0)
    line_residual = beta * point[0] - alpha * point[1] - (beta * a0 - alpha * b0)
    scale = max(1.0, abs(beta * a0), abs(alpha * b0))
    if abs(line_residual) > 1e-12 * scale:
        raise AssertionError(f"integral curve left its line: {line_residual}")
    return point


def _expm1_ratio(w: complex) -> complex:
    """(e^w - 1)/w, stable near w = 0."""
    if abs(w) < 1e-6:
        return 1 + w / 2 + w * w / 6
    return (cmath.exp(w) - 1) / w
