"""Exact matrix Lie-algebra engine.

Matrices carry Gaussian-rational entries; subspaces of M_n(C) are stored as
canonical reduced row echelon bases over the 2n^2 real coordinates obtained by
flattening row-major into (Re, Im) pairs.  Closures onto block parabolics are
C-subalgebras that contain a base with a diagonal torus separating the other
positions by weight, so they are sums of root spaces: `parabolic_closure`
computes the closure of a set of positions and builds the subspace from it.

Coordinates on the full flag of C^n: a group element A close to the identity
maps to the point whose k-th coordinate block is the last column of
A^k_{n-k} A_k^{-1} (lower-left (n-k) x k block of A times the inverse of the
leading k x k block).  The tangent at the base point of t -> exp(tX) is then
the strictly lower triangular part of X read off column by column.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (DimensionMismatch, NotParabolic, SingularLeadingMinor,
                     StarViolation, ValidationError)
from .exactalg import (GAUSS_I, GaussianRational, RationalFunction,
                       exact_matrix_inverse, rref)


def _coerce_entry(x) -> GaussianRational:
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x)
    if isinstance(x, complex):
        return GaussianRational(Fraction(x.real), Fraction(x.imag))
    raise TypeError(f"cannot use {type(x).__name__} as an exact matrix entry")


class SquareMatrix:
    """n x n matrix with exact Gaussian-rational entries."""

    __slots__ = ("n", "rows")

    def __init__(self, rows: Sequence[Sequence]):
        self.rows = tuple(tuple(_coerce_entry(x) for x in r) for r in rows)
        self.n = len(self.rows)
        if any(len(r) != self.n for r in self.rows):
            raise DimensionMismatch("matrix is not square")

    @classmethod
    def zero(cls, n):
        return cls([[0] * n for _ in range(n)])

    @classmethod
    def identity(cls, n):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def elementary(cls, n, i, j):
        """E_ij with a single 1 in row i, column j (1-based, math convention)."""
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValidationError(f"elementary index ({i},{j}) out of range for n={n}")
        return cls([[1 if (r, c) == (i - 1, j - 1) else 0 for c in range(n)]
                    for r in range(n)])

    def __add__(self, other):
        self._check(other)
        return SquareMatrix([[a + b for a, b in zip(ra, rb)]
                             for ra, rb in zip(self.rows, other.rows)])

    def __sub__(self, other):
        self._check(other)
        return SquareMatrix([[a - b for a, b in zip(ra, rb)]
                             for ra, rb in zip(self.rows, other.rows)])

    def __rmul__(self, scalar):
        s = _coerce_entry(scalar)
        return SquareMatrix([[s * a for a in r] for r in self.rows])

    def __matmul__(self, other):
        self._check(other)
        n = self.n
        out = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = GaussianRational(0)
                for k in range(n):
                    a = self.rows[i][k]
                    if a:
                        acc = acc + a * other.rows[k][j]
                row.append(acc)
            out.append(row)
        return SquareMatrix(out)

    def _check(self, other):
        if not isinstance(other, SquareMatrix) or other.n != self.n:
            raise DimensionMismatch("matrix size mismatch")

    def __eq__(self, other):
        return isinstance(other, SquareMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __getitem__(self, idx):
        return self.rows[idx]

    def is_upper_triangular(self):
        return all(not self.rows[i][j] for i in range(self.n) for j in range(i))

    def strict_lower(self):
        return SquareMatrix([[self.rows[i][j] if j < i else 0
                              for j in range(self.n)] for i in range(self.n)])

    def to_numpy(self):
        return np.array([[complex(x) for x in r] for r in self.rows], dtype=complex)

    def __repr__(self):
        body = "; ".join(" ".join(repr(x) for x in r) for r in self.rows)
        return f"SquareMatrix[{body}]"


def bracket(X: SquareMatrix, Y: SquareMatrix) -> SquareMatrix:
    """Commutator XY - YX."""
    return X @ Y - Y @ X


# ---------------------------------------------------------------------------
# real-coordinate flattening and subspaces
# ---------------------------------------------------------------------------

def flatten_matrix(X: SquareMatrix) -> list[Fraction]:
    """Row-major (Re, Im) coordinates in R^(2 n^2)."""
    out = []
    for r in X.rows:
        for x in r:
            out.append(x.re)
            out.append(x.im)
    return out


def unflatten_matrix(n: int, vec: Sequence[Fraction]) -> SquareMatrix:
    it = iter(vec)
    return SquareMatrix([[GaussianRational(next(it), next(it))
                          for _ in range(n)] for _ in range(n)])


class MatrixSubspace:
    """R-subspace of M_n(C) with a canonical echelon basis.

    Equality is literal equality of canonical bases; `dim_real` counts basis
    rows and `dim_complex` is available when the space is closed under
    multiplication by i.
    """

    def __init__(self, n: int, matrices: Iterable[SquareMatrix] = ()):
        self.n = n
        self.rows = tuple(tuple(r) for r in rref(map(flatten_matrix, matrices)))

    @classmethod
    def from_positions(cls, n, positions):
        """Canonical subspace of all matrices supported on the given (i, j)
        cells; unit rows are already in echelon form, no reduction needed."""
        dim = 2 * n * n
        zero, one = Fraction(0), Fraction(1)
        rows = []
        for (i, j) in sorted(positions):
            for off in (0, 1):
                row = [zero] * dim
                row[2 * (i * n + j) + off] = one
                rows.append(row)
        obj = cls.__new__(cls)
        obj.n = n
        obj.rows = tuple(tuple(r) for r in rows)
        return obj

    @property
    def dim_real(self) -> int:
        return len(self.rows)

    @property
    def dim_complex(self) -> int:
        if self.dim_real % 2:
            raise ValidationError("odd real dimension: not a complex subspace")
        for m in self.basis_matrices():
            if not self.contains(GAUSS_I * m):
                raise ValidationError("subspace is not closed under i")
        return self.dim_real // 2

    def basis_matrices(self) -> list[SquareMatrix]:
        return [unflatten_matrix(self.n, r) for r in self.rows]

    def contains(self, X: SquareMatrix) -> bool:
        from .exactalg import _first_nonzero, _reduce_against
        pivots = [_first_nonzero(r) for r in self.rows]
        red = _reduce_against(flatten_matrix(X), [list(r) for r in self.rows], pivots)
        return _first_nonzero(red) is None

    def __eq__(self, other):
        return (isinstance(other, MatrixSubspace)
                and self.n == other.n and self.rows == other.rows)

    def __hash__(self):
        return hash((self.n, self.rows))

    def __repr__(self):
        return f"MatrixSubspace(n={self.n}, dim_R={self.dim_real})"


# ---------------------------------------------------------------------------
# flag coordinates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FlagPoint:
    """Standard local coordinates (t_21,...,t_n1; t_32,...; t_n,n-1)."""

    n: int
    coords: tuple


def flag_tangent(X: SquareMatrix) -> tuple:
    """Tangent at the base point of t -> exp(tX): strictly lower entries of X,
    column blocks in order."""
    n = X.n
    out = []
    for k in range(n - 1):          # column k (0-based)
        for i in range(k + 1, n):
            out.append(X.rows[i][k])
    return tuple(out)


def _minor_contraction(A: SquareMatrix, M: SquareMatrix) -> tuple:
    """For k = 1..n-1 in turn: rows k..n-1 of the first k columns of M times
    the last column of the inverse of A's leading k x k minor."""
    n = A.n
    out = []
    for k in range(1, n):
        lead = [row[:k] for row in A.rows[:k]]
        try:
            inv = exact_matrix_inverse(lead)
        except ZeroDivisionError as exc:
            raise SingularLeadingMinor(
                f"leading {k}x{k} minor is singular") from exc
        last_col = [inv[r][k - 1] for r in range(k)]
        for i in range(k, n):
            acc = GaussianRational(0)
            for c in range(k):
                acc = acc + M.rows[i][c] * last_col[c]
            out.append(acc)
    return tuple(out)


def flag_point_of_group_element(A: SquareMatrix) -> FlagPoint:
    """Coordinates of A(O); needs all leading principal minors nonsingular."""
    return FlagPoint(A.n, _minor_contraction(A, A))


def conjugated_tangent(A: SquareMatrix, X: SquareMatrix) -> tuple:
    """Tangent at the base point of t -> A exp(tX)(O) for upper triangular A.

    Computed two exact ways: the block contraction (AX lower block times the
    last inverse-minor column) and the strictly-lower part of A X A^{-1}; the
    routes must agree identically.
    """
    if not A.is_upper_triangular():
        raise ValidationError("A must be upper triangular")
    route1 = _minor_contraction(A, A @ X)

    Ainv = SquareMatrix(exact_matrix_inverse([list(r) for r in A.rows]))
    route2 = flag_tangent((A @ X @ Ainv).strict_lower())
    if route1 != route2:
        raise AssertionError("conjugated-tangent routes disagree")
    return route2


def random_upper_triangular(n: int, rng, bound: int) -> SquareMatrix:
    """Integer upper triangular matrix drawn row by row from a
    `random.Random`: entries above the diagonal in [-bound, bound], diagonal
    entries in [1, bound], so every leading minor is nonsingular."""
    return SquareMatrix([[rng.randint(-bound, bound) if c > r else
                          (rng.randint(1, bound) if c == r else 0)
                          for c in range(n)] for r in range(n)])


# ---------------------------------------------------------------------------
# pattern bases and the parabolic closure
# ---------------------------------------------------------------------------

class ClosureBase:
    """Coordinate-pattern subalgebra used as the base of a closure.

    `positions` is the set of (row, col) (0-based) the base may occupy; it
    must be closed under matrix composition so that the base is a bracket-
    closed subspace.  Its diagonal positions span a torus, and the base must
    separate its `complement` by weight: the weights e_i - e_j of the
    complement positions (i, j), read on the base's diagonal positions, are
    pairwise distinct.  `parabolic_closure` needs this to work on positions
    alone; a base without it raises ValidationError.
    """

    def __init__(self, n: int, positions: frozenset[tuple[int, int]], name: str):
        self.n = n
        self.positions = positions
        self.name = name
        for (i, j) in positions:
            for (k, l) in positions:
                if j == k and (i, l) not in positions:
                    raise ValidationError(
                        f"base pattern not bracket-closed: ({i},{j})*({k},{l})")
        self.complement = [(i, j) for i in range(n) for j in range(n)
                           if (i, j) not in positions]
        torus = [k for k in range(n) if (k, k) in positions]
        seen = {}
        for (i, j) in self.complement:
            weight = tuple((i == k) - (j == k) for k in torus)
            if weight in seen:
                raise ValidationError(
                    f"base torus does not separate complement positions "
                    f"{seen[weight]} and {(i, j)}")
            seen[weight] = (i, j)

    def subspace(self) -> MatrixSubspace:
        return MatrixSubspace.from_positions(self.n, self.positions)


def flag_base(n: int) -> ClosureBase:
    """Upper triangular matrices: the isotropy algebra of the full flag."""
    return ClosureBase(n, frozenset((i, j) for i in range(n)
                                    for j in range(i, n)), "flag")


def hopf_base(n: int) -> ClosureBase:
    """Matrices with vanishing first column: isotropy directions at the
    base point of the Hopf manifold."""
    return ClosureBase(n, frozenset((i, j) for i in range(n)
                                    for j in range(1, n)), "hopf")


def _bracket_with_elementary(X: SquareMatrix, i: int, j: int) -> SquareMatrix:
    """[X, E_ij] (0-based indices) in O(n): column move minus row move.

    The step of the exact span closure that tests/test_lie.py keeps as the
    oracle of `parabolic_closure`."""
    n = X.n
    rows = [list(r) for r in SquareMatrix.zero(n).rows]
    for r in range(n):
        rows[r][j] = rows[r][j] + X.rows[r][i]
    for c in range(n):
        rows[i][c] = rows[i][c] - X.rows[j][c]
    return SquareMatrix(rows)


def parabolic_closure(generators: Sequence[SquareMatrix],
                      base: ClosureBase) -> MatrixSubspace:
    """Smallest C-subalgebra containing base and generators.

    The answer is a pattern of positions.  Let V be that subalgebra.  V
    contains the base, hence its diagonal torus t, and [t, V] lies in V, so V
    is the sum of its weight spaces V_w (Humphreys, Introduction to Lie
    Algebras and Representation Theory, section 8).  Each weight space of
    M_n(C) is base_w plus comp_w, and comp_w is at most one position because
    the base separates its complement by weight.  So V_w = base_w + (V_w
    intersect comp_w) and V is spanned by the E_ij at the base's positions
    and at a set S of complement positions.

    S starts as the complement positions where some generator has a nonzero
    entry (the weight-w part of a generator lies in V).  It grows under
    [E_ij, E_kl] = delta_jk E_il - delta_li E_kj against every base position
    and every member of S: a term whose position lies outside the base joins
    S (the term's weight is shared by the other term, so at most one of them
    is a complement position).  At the fixpoint the positions are closed
    under these brackets, so their span is a subalgebra.

    The result is also invariant under Ad of the base's group: V contains
    the base b and [b, V] lies in V, so for every Y in b the map
    Ad(exp Y) = exp(ad Y) preserves V, and the group is generated by such
    exponentials (I + s E_ij = exp(s E_ij) for i != j, and a diagonal
    rescaling by u > 0 in slot k is exp(log(u) E_kk)).  tests/test_lie.py
    checks this invariance directly, and checks the result against an
    exact span closure over Q(i).
    """
    n = base.n
    for g in generators:
        if g.n != n:
            raise DimensionMismatch("generator size differs from base")
    found = {(i, j) for (i, j) in base.complement
             if any(g.rows[i][j] for g in generators)}
    pending = list(found)
    while pending:
        i, j = pending.pop()
        for (k, l) in [*base.positions, *found]:
            terms = ([(i, l)] if j == k else []) + ([(k, j)] if l == i else [])
            for pos in terms:
                if pos not in base.positions and pos not in found:
                    found.add(pos)
                    pending.append(pos)
    return MatrixSubspace.from_positions(n, base.positions | found)


# ---------------------------------------------------------------------------
# compositions and extraction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Composition:
    """Ordered block sizes (m_1, ..., m_mu) summing to n."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if not self.parts or any(p < 1 for p in self.parts):
            raise ValidationError(f"bad composition {self.parts}")

    @property
    def n(self):
        return sum(self.parts)

    def block_of(self):
        """block index for each of 0..n-1."""
        out = []
        for b, m in enumerate(self.parts):
            out.extend([b] * m)
        return out


def block_parabolic(composition: Composition) -> MatrixSubspace:
    """Block upper triangular subspace for the composition."""
    n = composition.n
    blk = composition.block_of()
    positions = [(i, j) for i in range(n) for j in range(n) if blk[i] <= blk[j]]
    return MatrixSubspace.from_positions(n, positions)


def extract_composition(P: MatrixSubspace) -> Composition:
    """Read the composition off a block-parabolic subspace.

    Block boundaries sit at the i with E_{i+1,i} missing from P; the result is
    verified by reconstructing the block parabolic, else NotParabolic.
    """
    n = P.n
    comp = _composition_from_bits(
        P.contains(SquareMatrix.elementary(n, i + 2, i + 1))
        for i in range(n - 1))
    if block_parabolic(comp) != P:
        raise NotParabolic(
            f"subspace does not match the block pattern of {comp.parts}")
    return comp


def minimal_parabolic_oracle(n: int,
                             generators: Sequence[SquareMatrix]) -> Composition:
    """Brute force: enumerate all 2^(n-1) standard parabolics, keep those that
    contain every generator, return the minimum of the subdiagonal-bit lattice."""
    valid_masks = []
    for bits in itertools.product((0, 1), repeat=n - 1):
        comp = _composition_from_bits(bits)
        sub = block_parabolic(comp)
        if all(sub.contains(g) for g in generators):
            valid_masks.append(bits)
    if not valid_masks:
        raise NotParabolic("no standard parabolic contains the generators")
    meet = tuple(min(col) for col in zip(*valid_masks))
    return _composition_from_bits(meet)


def _composition_from_bits(bits) -> Composition:
    parts = []
    size = 1
    for b in bits:
        if b:
            size += 1
        else:
            parts.append(size)
            size = 1
    parts.append(size)
    return Composition(tuple(parts))


# ---------------------------------------------------------------------------
# Hopf closure report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HopfReport:
    n: int
    x0: MatrixSubspace
    escape: MatrixSubspace
    verdict: str


def hopf_closure_report(n: int) -> HopfReport:
    """Closure of the Hopf isotropy algebra with E_11, and the escape to the
    full matrix algebra when a generator has a nonzero lower first-column entry."""
    if n < 2:
        raise ValidationError("need n >= 2")
    base = hopf_base(n)
    x0 = parabolic_closure([SquareMatrix.elementary(n, 1, 1)], base)
    escape = parabolic_closure([SquareMatrix.elementary(n, 2, 1)], base)
    expected = 1 + n * (n - 1)
    note = (f"dim fixes the fibration: closure with E_11 has complex dimension "
            f"{x0.dim_complex} = 1 + n(n-1) = {expected}, so invariant domains "
            f"fiber over P^{n - 1} with one-dimensional torus fibers; a nonzero "
            f"c_j (j >= 2) escapes to all of M_{n}(C)")
    return HopfReport(n=n, x0=x0, escape=escape, verdict=note)


# ---------------------------------------------------------------------------
# Grassmannian spanning rank
# ---------------------------------------------------------------------------

def _kfield_const(x) -> RationalFunction:
    return RationalFunction((_coerce_entry(x),), (GaussianRational(1),), symbol="K")


def _kfield_var() -> RationalFunction:
    return RationalFunction((GaussianRational(0), GaussianRational(1)),
                            (GaussianRational(1),), symbol="K")


def random_lower_block(p: int, q: int, rng, bound: int,
                       lead: Optional[int] = None) -> SquareMatrix:
    """(p+q) x (p+q) integer matrix that is zero outside its lower-left
    q x p block, whose entries a `random.Random` draws row by row from
    [-bound, bound].  The block's first entry is then set to `lead`, or drawn
    from [1, bound] when lead is None, so the block is never zero."""
    rows = [[0] * (p + q) for _ in range(p + q)]
    for r in range(q):
        for c in range(p):
            rows[p + r][c] = rng.randint(-bound, bound)
    rows[p][0] = rng.randint(1, bound) if lead is None else lead
    return SquareMatrix(rows)


def grassmann_spanning_rank(p: int, q: int, X: SquareMatrix,
                            K: Optional[int] = None) -> int:
    """Rank of the pq pivot-conjugated tangent directions on G(p, p+q).

    X is (p+q) x (p+q); only its lower-left q x p block (a) matters and it must
    be nonzero.  With K formal (default) the rank is computed over Q(i)(K);
    an integer K substitutes exactly.
    """
    if X.n != p + q:
        raise DimensionMismatch(f"X must be {(p + q)}x{(p + q)}")
    a = [[X.rows[p + r][c] for c in range(p)] for r in range(q)]
    pivot = next(((r, c) for r in range(q) for c in range(p) if a[r][c]), None)
    if pivot is None:
        raise StarViolation("lower-left block of X is zero")
    r0, c0 = pivot
    # anti-identity pivots move a[r0][c0] to the (1,1) slot
    a = _reverse_rows(a, r0 + 1)
    a = _reverse_cols(a, c0 + 1)

    if K is None:
        kval = _kfield_var()
        one = _kfield_const(1)
        lift = _kfield_const
    else:
        kval = GaussianRational(K)
        one = GaussianRational(1)
        lift = _coerce_entry
    kinv = one / kval

    aK = [[lift(x) for x in row] for row in a]
    vectors = []
    for i in range(1, p + 1):
        for j in range(1, q + 1):
            # v_ij = N a M^{-1}: N reverses/scales the first j rows (K in the
            # slot receiving row 1), M^{-1} likewise on the first i columns.
            v = _reverse_rows(aK, j)
            v = [[x * kval if r == j - 1 else x for x in row]
                 for r, row in enumerate(v)]
            v = _reverse_cols(v, i)
            v = [[x * kval if c == i - 1 else x for c, x in enumerate(row)]
                 for row in v]
            vectors.append([x for row in v for x in row])
    return len(rref(vectors))


def _reverse_rows(mat, k):
    return [mat[k - 1 - r] if r < k else mat[r] for r in range(len(mat))]


def _reverse_cols(mat, k):
    ncol = len(mat[0])
    return [[row[k - 1 - c] if c < k else row[c] for c in range(ncol)]
            for row in mat]
