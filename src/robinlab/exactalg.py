"""Exact arithmetic kernel: Gaussian rationals, univariate rational functions,
and fraction-based linear algebra.

Coefficients are duck-typed field elements: anything supporting +, -, *, /,
==, bool works (``fractions.Fraction``, :class:`GaussianRational`).

A rational function with rational coefficients (the Q(xi) of the torus side)
is stored as a pair of integer polynomials, gcd-free, primitive together and
with a positive leading denominator coefficient.  Arithmetic stays on the
integers and reduces with a fraction-free gcd: a primitive polynomial
remainder sequence, pseudo-remainders with ``math.gcd`` contents (Knuth,
TAOCP vol. 2, 4.6.1; Collins 1967).  Other coefficients (the Q(i)(K) of the
spanning ranks) keep the Euclidean algorithm over their field,
:func:`reduce_over_field`.  Either way the public ``num``/``den`` are the same
reduced coefficient tuples with a monic denominator (``Fraction`` for the
rational case, derived once per instance), so equality is plain coefficient
comparison.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence


class GaussianRational:
    """Element of Q(i): a complex number with exact rational real/imag parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if type(re) is Fraction else Fraction(re)
        self.im = im if type(im) is Fraction else Fraction(im)

    def mul_i(self):
        """self * i without any multiplication."""
        return GaussianRational(-self.im, self.re)

    def __add__(self, other):
        other = _try_gauss(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _try_gauss(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return _coerce_gauss(other) - self

    def __mul__(self, other):
        other = _try_gauss(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _try_gauss(other)
        if other is NotImplemented:
            return NotImplemented
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def __rtruediv__(self, other):
        return _coerce_gauss(other) / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __eq__(self, other):
        try:
            other = _coerce_gauss(other)
        except TypeError:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        # a real element equals its Fraction, so it hashes as one
        return hash((self.re, self.im)) if self.im else hash(self.re)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def conjugate(self):
        return GaussianRational(self.re, -self.im)

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        if not self.im:
            return str(self.re)
        return f"({self.re}{'+' if self.im >= 0 else '-'}{abs(self.im)}i)"


def _coerce_gauss(x):
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x)
    if isinstance(x, complex):
        # exact only for ints-as-floats; used in tests, never silently
        re, im = Fraction(x.real), Fraction(x.imag)
        return GaussianRational(re, im)
    raise TypeError(f"cannot coerce {type(x).__name__} to GaussianRational")


def _try_gauss(x):
    if isinstance(x, (GaussianRational, int, Fraction, complex)):
        return _coerce_gauss(x)
    return NotImplemented


GAUSS_I = GaussianRational(0, 1)


# ---------------------------------------------------------------------------
# dense univariate polynomials over a field
# ---------------------------------------------------------------------------

def poly_trim(coeffs: Sequence) -> tuple:
    """Drop trailing zero coefficients; coeffs[k] multiplies x**k."""
    n = len(coeffs)
    while n > 0 and not coeffs[n - 1]:
        n -= 1
    return tuple(coeffs[:n])


def poly_add(p, q):
    n = max(len(p), len(q))
    return poly_trim([
        (p[k] if k < len(p) else 0) + (q[k] if k < len(q) else 0)
        for k in range(n)
    ])


def poly_neg(p):
    return tuple(-c for c in p)


def poly_sub(p, q):
    return poly_add(p, poly_neg(q))


def poly_mul(p, q):
    if not p or not q:
        return ()
    out = [p[0] * q[0] * 0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if not a:
            continue
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return poly_trim(out)


def poly_scale(p, s):
    return poly_trim([c * s for c in p])


def poly_divmod(p, q):
    """Polynomial division over the coefficient field."""
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    lead = q[-1]
    dq = len(q) - 1
    quot = [rem[0] * 0] * max(0, len(p) - dq)
    while len(poly_trim(rem)) - 1 >= dq and poly_trim(rem):
        rem = list(poly_trim(rem))
        k = len(rem) - 1 - dq
        c = rem[-1] / lead
        quot[k] = c
        for j in range(dq + 1):
            rem[k + j] = rem[k + j] - c * q[j]
    return poly_trim(quot), poly_trim(rem)


def poly_gcd(p, q):
    """Monic gcd via the Euclidean algorithm."""
    a, b = poly_trim(p), poly_trim(q)
    while b:
        a, b = b, poly_divmod(a, b)[1]
    if not a:
        return ()
    return poly_scale(a, _one_like(a[-1]) / a[-1])


def poly_eval(p, x):
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def reduce_over_field(num, den):
    """(num, den) over a field with gcd 1 and a monic denominator, by the
    Euclidean algorithm; a zero numerator gives den = (1,)."""
    if not num:
        return (), (_one_like(den[-1]),)
    g = poly_gcd(num, den)
    if len(g) > 1:
        num = poly_divmod(num, g)[0]
        den = poly_divmod(den, g)[0]
    inv = _one_like(den[-1]) / den[-1]
    return poly_scale(num, inv), poly_scale(den, inv)


# -- integer polynomials: the Q route of RationalFunction

def _zpoly_primitive(p):
    c = gcd(*p)
    return p if c == 1 else tuple(x // c for x in p)


def _zpoly_prem(a, b):
    """Pseudo-remainder of a by b over Z: lc(b)^k a mod b for the k that
    keeps every step integral."""
    r = list(a)
    db = len(b) - 1
    lead = b[-1]
    while len(r) > db:
        c = r.pop()
        k = len(r) - db
        r = [x * lead for x in r]
        for j in range(db):
            r[k + j] -= c * b[j]
        while r and not r[-1]:
            r.pop()
    return tuple(r)


def _zpoly_gcd(p, q):
    """Primitive gcd, up to sign, of two nonzero integer polynomials, by the
    primitive polynomial remainder sequence (Knuth, TAOCP 2, 4.6.1)."""
    a, b = _zpoly_primitive(p), _zpoly_primitive(q)
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        r = _zpoly_prem(a, b)
        if not r:
            return b
        a, b = b, _zpoly_primitive(r)
    return (1,)


def _zpoly_exquo(p, g):
    """p / g for an integer polynomial g known to divide p over Z."""
    r = list(p)
    dg = len(g) - 1
    quot = [0] * (len(p) - dg)
    for k in range(len(quot) - 1, -1, -1):
        c = quot[k] = r[k + dg] // g[-1]
        for j in range(dg):
            r[k + j] -= c * g[j]
    return tuple(quot)


def _clear_denominators(num, den):
    """Integer polynomials with the ratio of rational num/den."""
    scale = lcm(*(c.denominator for c in num + den))
    return (tuple(c.numerator * (scale // c.denominator) for c in num),
            tuple(c.numerator * (scale // c.denominator) for c in den))


def _reduce_over_z(num, den):
    """Canonical pair for integer num/den: coprime, primitive together,
    positive leading denominator coefficient."""
    if not num:
        return (), (1,)
    if len(num) > 1 and len(den) > 1:
        g = _zpoly_gcd(num, den)
        if len(g) > 1:
            num, den = _zpoly_exquo(num, g), _zpoly_exquo(den, g)
    c = gcd(*num, *den)
    if den[-1] < 0:
        c = -c
    if c != 1:
        num = tuple(x // c for x in num)
        den = tuple(x // c for x in den)
    return num, den


_INT = frozenset({int})
_RATIONAL = frozenset({int, Fraction})


class RationalFunction:
    """Reduced ratio of polynomials over a field.

    With rational coefficients the ratio is held as integer polynomials
    (``_n``, ``_d``): coprime, primitive together, with a positive leading
    coefficient of ``_d``.  That form is canonical, so equality compares
    integer tuples, and arithmetic reduces with a fraction-free gcd.  With
    other coefficients (Gaussian rationals) ``_n``/``_d`` are the reduced
    field polynomials with a monic denominator.  Either way the public
    ``num``/``den`` are the reduced, monic-denominator coefficient tuples.

    The symbol is purely presentational; arithmetic never mixes symbols, so
    the constructor rejects mismatches.
    """

    __slots__ = ("_n", "_d", "_q", "symbol")

    def __init__(self, num, den=(1,), symbol="x"):
        num = poly_trim(num if isinstance(num, (tuple, list)) else (num,))
        den = poly_trim(den if isinstance(den, (tuple, list)) else (den,))
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        kinds = set(map(type, num + den))
        if kinds <= _RATIONAL:
            if not kinds <= _INT:
                num, den = _clear_denominators(num, den)
            self._n, self._d = _reduce_over_z(num, den)
            self._q = None                 # num/den, derived on first read
        else:
            self._n, self._d = self._q = reduce_over_field(
                _coerce_coeffs(num), _coerce_coeffs(den))
        self.symbol = symbol

    @property
    def _over_z(self):
        return type(self._d[-1]) is int

    def _fractions(self):
        if self._q is None:
            lead = self._d[-1]
            self._q = (tuple(Fraction(c, lead) for c in self._n),
                       tuple(Fraction(c, lead) for c in self._d))
        return self._q

    @property
    def num(self):
        """Reduced numerator coefficients (denominator made monic)."""
        return self._fractions()[0]

    @property
    def den(self):
        """Monic denominator coefficients."""
        return self._fractions()[1]

    # -- constructors
    @classmethod
    def constant(cls, value, symbol="x"):
        return cls((value,), symbol=symbol)

    @classmethod
    def variable(cls, symbol="x"):
        return cls((0, 1), symbol=symbol)

    # -- field ops
    def _check(self, other):
        if isinstance(other, RationalFunction):
            if other.symbol != self.symbol:
                raise ValueError(f"symbol mismatch: {self.symbol} vs {other.symbol}")
            return other
        return RationalFunction.constant(other, symbol=self.symbol) \
            if isinstance(other, (int, Fraction, GaussianRational)) else NotImplemented

    def _sum(self, other, combine):
        if self._d == other._d:
            return RationalFunction(combine(self._n, other._n), self._d,
                                    self.symbol)
        return RationalFunction(
            combine(poly_mul(self._n, other._d), poly_mul(other._n, self._d)),
            poly_mul(self._d, other._d), self.symbol)

    def __add__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return self._sum(other, poly_add)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return self._sum(other, poly_sub)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction(poly_mul(self._n, other._n),
                                poly_mul(self._d, other._d), self.symbol)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        if not other._n:
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(poly_mul(self._n, other._d),
                                poly_mul(self._d, other._n), self.symbol)

    def __rtruediv__(self, other):
        other = self._check(other)
        return other / self

    def __neg__(self):
        return RationalFunction(poly_neg(self._n), self._d, self.symbol)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = RationalFunction.constant(other, symbol=self.symbol)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        if self._over_z and other._over_z:
            return self._n == other._n and self._d == other._d
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # on num/den, so equal values hash alike on either route
        return hash(self._fractions())

    def __bool__(self):
        return bool(self._n)

    # -- structure queries
    @property
    def degree(self):
        """max(deg num, deg den); 0 for constants, -1 for zero."""
        if not self._n:
            return -1
        return max(len(self._n) - 1, len(self._d) - 1)

    def is_constant(self):
        return len(self._n) <= 1 and len(self._d) == 1

    def constant_value(self):
        if not self.is_constant():
            raise ValueError(f"{self!r} is not constant")
        return self.num[0] if self._n else Fraction(0)

    def eval(self, x):
        return poly_eval(self.num, x) / poly_eval(self.den, x)

    def __repr__(self):
        def fmt(p):
            if not p:
                return "0"
            parts = []
            for k, c in enumerate(p):
                if not c:
                    continue
                if k == 0:
                    parts.append(str(c))
                elif k == 1:
                    parts.append(f"{c}*{self.symbol}" if c != 1 else self.symbol)
                else:
                    parts.append(f"{c}*{self.symbol}^{k}" if c != 1
                                 else f"{self.symbol}^{k}")
            return " + ".join(parts).replace("+ -", "- ")
        num, den = self._fractions()
        if den == (_one_like(den[-1]),):
            return fmt(num)
        return f"({fmt(num)})/({fmt(den)})"


def _one_like(x):
    if isinstance(x, GaussianRational):
        return GaussianRational(1)
    return Fraction(1)


def _coerce_coeffs(coeffs):
    return tuple(Fraction(c) if isinstance(c, int) else c for c in coeffs)


# ---------------------------------------------------------------------------
# exact linear algebra over any field
# ---------------------------------------------------------------------------

def rref(rows: Iterable[Sequence]) -> list[list]:
    """Reduced row echelon form; returns the nonzero rows (pivots = 1) sorted
    by pivot column.

    Works over any exact field.  Input rows are copied.
    """
    pivot_rows: list[list] = []
    pivot_cols: list[int] = []
    for row in rows:
        _insert_row(row, pivot_rows, pivot_cols)
    order = sorted(range(len(pivot_rows)), key=pivot_cols.__getitem__)
    return [pivot_rows[i] for i in order]


def _first_nonzero(row):
    for k, c in enumerate(row):
        if c:
            return k
    return None


def _reduce_against(row, pivot_rows, pivot_cols):
    row = list(row)
    for prow, pcol in zip(pivot_rows, pivot_cols):
        c = row[pcol]
        if c:
            for k in range(len(row)):
                row[k] = row[k] - c * prow[k]
    return row


def _insert_row(row, pivot_rows, pivot_cols) -> bool:
    """Reduce a copy of row against the echelon rows, scale its pivot to 1,
    clear that column from the other rows and append it; False (nothing
    appended) if row lies in their span."""
    row = _reduce_against(row, pivot_rows, pivot_cols)
    col = _first_nonzero(row)
    if col is None:
        return False
    inv = row[col]
    row = [c / inv for c in row]
    for prow in pivot_rows:
        c = prow[col]
        if c:
            for k in range(len(row)):
                prow[k] = prow[k] - c * row[k]
    pivot_rows.append(row)
    pivot_cols.append(col)
    return True


class Span:
    """Incrementally built linear span with RREF-maintained basis.

    The exact span closure that tests/test_lie.py keeps as the oracle of
    `lie.parabolic_closure` is built on it."""

    def __init__(self):
        self.rows: list[list] = []
        self.pivot_cols: list[int] = []

    @property
    def dim(self):
        return len(self.rows)

    def contains(self, vec):
        return _first_nonzero(
            _reduce_against(vec, self.rows, self.pivot_cols)) is None

    def add(self, vec) -> bool:
        """Insert vec; True if it enlarged the span."""
        return _insert_row(vec, self.rows, self.pivot_cols)


def exact_matrix_inverse(rows):
    """Inverse of a square matrix over a field; raises ZeroDivisionError if singular."""
    n = len(rows)
    aug = [list(r) + [_one_like(rows[0][0]) if i == j else rows[0][0] * 0
                      for j in range(n)] for i, r in enumerate(rows)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = aug[col][col]
        aug[col] = [c / inv for c in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                c = aug[r][col]
                aug[r] = [a - c * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def exact_rank(rows) -> int:
    """Rank of a list of vectors over their coefficient field."""
    if not rows:
        return 0
    return len(rref(rows))
