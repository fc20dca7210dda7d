"""Matrix Lie-algebra engine: brackets, flag coordinates, closures, ranks."""

import random
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from robinlab.errors import (DimensionMismatch, NotParabolic,
                             SingularLeadingMinor, StarViolation)
from robinlab.exactalg import (GAUSS_I, GaussianRational,
                               exact_matrix_inverse, exact_rank)
from robinlab.lie import (Composition, MatrixSubspace, SquareMatrix,
                          block_parabolic, bracket, conjugated_tangent,
                          extract_composition, flag_base,
                          flag_point_of_group_element, flag_tangent,
                          grassmann_spanning_rank, hopf_base,
                          hopf_closure_report, minimal_parabolic_oracle,
                          parabolic_closure, random_lower_block,
                          random_upper_triangular)

E = SquareMatrix.elementary


def random_int_matrix(rng, n, lo=-5, hi=5):
    return SquareMatrix([[GaussianRational(rng.randint(lo, hi),
                                           rng.randint(lo, hi))
                          for _ in range(n)] for _ in range(n)])


def random_gauss(rng):
    return GaussianRational(Fraction(rng.randint(-4, 4), rng.randint(1, 4)),
                            Fraction(rng.randint(-4, 4), rng.randint(1, 4)))


def dense_generator(rng, base, support):
    """Gaussian-rational values at every base position and nonzero values at
    the complement positions in support (0-based)."""
    def nonzero():
        while True:
            z = random_gauss(rng)
            if z:
                return z
    n = base.n
    return SquareMatrix([[random_gauss(rng) if (i, j) in base.positions else
                          (nonzero() if (i, j) in support else 0)
                          for j in range(n)] for i in range(n)])


# -- brackets ---------------------------------------------------------------

def test_bracket_defining_relation():
    assert bracket(E(2, 1, 2), E(2, 2, 1)) == E(2, 1, 1) - E(2, 2, 2)


def test_bracket_antisymmetry():
    rng = random.Random(0)
    X = random_int_matrix(rng, 3)
    assert bracket(X, X) == SquareMatrix.zero(3)


def test_bracket_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        bracket(E(2, 1, 1), E(3, 1, 1))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_jacobi_identity(n):
    rng = random.Random(n)
    for _ in range(125):
        X, Y, Z = (random_int_matrix(rng, n, -3, 3) for _ in range(3))
        total = (bracket(bracket(X, Y), Z) + bracket(bracket(Y, Z), X)
                 + bracket(bracket(Z, X), Y))
        assert total == SquareMatrix.zero(n)


def test_hopf_column_bracket_pattern():
    # first-column field X bracketed with a second-column Y: the first column
    # of [X, Y] is (-y_i c_2), so c_2 = 0 keeps the bracket in the base
    c1, c2 = 1, 3
    X = SquareMatrix([[c1, 5], [c2, -2]])
    y1, y2 = 4, 7
    Y = SquareMatrix([[0, y1], [0, y2]])
    B = bracket(X, Y)
    assert B[0][0] == GaussianRational(-y1 * c2)
    assert B[1][0] == GaussianRational(-y2 * c2)
    X0 = SquareMatrix([[c1, 5], [0, -2]])
    B0 = bracket(X0, Y)
    assert not B0[0][0] and not B0[1][0]     # stays in the zero-column base


# -- flag coordinates ---------------------------------------------------------

def test_flag_tangent_examples():
    X = SquareMatrix([[9, 1, 2], [2, 8, 3], [3, 5, 7]])
    assert flag_tangent(X) == (GaussianRational(2), GaussianRational(3),
                               GaussianRational(5))
    upper = SquareMatrix([[1, 2, 3], [0, 4, 5], [0, 0, 6]])
    assert all(not t for t in flag_tangent(upper))


def test_flag_tangent_upper_part_irrelevant():
    rng = random.Random(1)
    X = random_int_matrix(rng, 4)
    U = SquareMatrix([[rng.randint(-5, 5) if c >= r else 0 for c in range(4)]
                      for r in range(4)])
    assert flag_tangent(X) == flag_tangent(X + U)


def test_flag_point_examples():
    assert flag_point_of_group_element(SquareMatrix.identity(3)).coords == \
        tuple(GaussianRational(0) for _ in range(3))
    A = SquareMatrix.identity(3) + 5 * E(3, 2, 1)
    assert flag_point_of_group_element(A).coords == (
        GaussianRational(5), GaussianRational(0), GaussianRational(0))
    upper = SquareMatrix([[1, 2, 3], [0, 4, 5], [0, 0, 6]])
    assert all(not c for c in flag_point_of_group_element(upper).coords)


def test_flag_point_singular_minor():
    A = SquareMatrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    with pytest.raises(SingularLeadingMinor):
        flag_point_of_group_element(A)


def test_conjugated_tangent_identity_reduces():
    rng = random.Random(2)
    X = random_int_matrix(rng, 4)
    assert conjugated_tangent(SquareMatrix.identity(4), X) == flag_tangent(X)


def _numeric_flag_point(M):
    """Flag coordinates of a numeric matrix (same block formula)."""
    n = M.shape[0]
    coords = []
    for k in range(1, n):
        inv = np.linalg.inv(M[:k, :k])
        col = inv[:, k - 1]
        coords.extend(M[k:, :k] @ col)
    return np.array(coords)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_conjugated_tangent_vs_numeric_exp(n):
    """Exact route against numeric differentiation of A exp(tX)(O)."""
    rng = random.Random(n + 10)
    for _ in range(200):
        A = SquareMatrix([[rng.randint(-3, 3) if c > r else
                           (rng.randint(1, 3) if c == r else 0)
                           for c in range(n)] for r in range(n)])
        X = random_int_matrix(rng, n, -2, 2)
        exact = np.array([complex(v) for v in conjugated_tangent(A, X)])
        An, Xn = A.to_numpy(), X.to_numpy()
        h = 1e-6
        num = (_numeric_flag_point(An @ scipy.linalg.expm(h * Xn))
               - _numeric_flag_point(An @ scipy.linalg.expm(-h * Xn))) / (2 * h)
        scale = max(1.0, float(np.max(np.abs(exact))))
        assert np.max(np.abs(exact - num)) < 1e-8 * scale


# -- closures -----------------------------------------------------------------

def test_closure_empty_generators_is_base():
    for make in (flag_base, hopf_base):
        base = make(3)
        assert parabolic_closure([], base) == base.subspace()


def test_closure_idempotent():
    base = flag_base(4)
    P = parabolic_closure([E(4, 3, 2)], base)
    again = parabolic_closure(P.basis_matrices(), base)
    assert P == again


def test_closure_example_n3():
    P = parabolic_closure([E(3, 2, 1)], flag_base(3))
    assert P.dim_complex == 7
    assert extract_composition(P).parts == (2, 1)


def test_closure_escape_full():
    P = parabolic_closure([E(3, 3, 1)], flag_base(3))
    assert extract_composition(P).parts == (3,)
    assert P.dim_complex == 9


def test_extract_composition_trivial_cases():
    assert extract_composition(block_parabolic(Composition((1, 1, 1)))).parts \
        == (1, 1, 1)
    assert extract_composition(block_parabolic(Composition((4,)))).parts == (4,)


def test_extract_composition_rejects_non_parabolic():
    sub = MatrixSubspace(3, [E(3, 1, 1), GAUSS_I * E(3, 1, 1)])
    with pytest.raises(NotParabolic):
        extract_composition(sub)


def test_oracle_equivalence_random():
    """Elementary generators and dense ones with one or two subdiagonal
    entries, against the brute-force minimal parabolic."""
    rng = random.Random(77)
    bases = {n: flag_base(n) for n in (3, 4, 5)}
    for _ in range(25):
        n = rng.choice([3, 4, 5])
        lower = bases[n].complement
        gens = []
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.5:
                i, j = rng.choice(lower)
                gens.append(E(n, i + 1, j + 1))
            else:
                support = rng.sample(lower, rng.randint(1, 2))
                gens.append(dense_generator(rng, bases[n], support))
        P = parabolic_closure(gens, bases[n])
        comp = extract_composition(P)
        assert comp == minimal_parabolic_oracle(n, gens)
        assert P == block_parabolic(comp)


def _base_group_samples(base):
    """I + t E_ij for t = 1, 2 at every base position: unipotent elements
    I + s E_ij (s = 1, 2) off the diagonal, and on it the rescalings
    diag(1, .., u, .., 1) = I + (u - 1) E_kk by u = 2, 3."""
    n = base.n
    one = SquareMatrix.identity(n)
    for (i, j) in sorted(base.positions):
        for t in (1, 2):
            yield one + t * E(n, i + 1, j + 1)


@pytest.mark.parametrize("make", [flag_base, hopf_base])
def test_closure_is_ad_invariant(make):
    """g Y g^-1 stays in the closure P for every basis matrix Y of P and every
    sampled element g of the base's group: the bracket fixpoint needs no
    separate sweep over Ad.  Hopf generators stay inside the first column's
    corner, since any lower first-column entry escapes to all of M_n."""
    rng = random.Random(31)
    for n in (2, 3, 4):
        base = make(n)
        lower = base.complement if make is flag_base else [(0, 0)]
        for _ in range(3):
            gens = [dense_generator(
                        rng, base,
                        rng.sample(lower, rng.randint(0, min(2, len(lower)))))
                    for _ in range(rng.randint(1, 2))]
            P = parabolic_closure(gens, base)
            basis = P.basis_matrices()
            for g in _base_group_samples(base):
                g_inv = SquareMatrix(
                    exact_matrix_inverse([list(r) for r in g.rows]))
                for Y in basis:
                    assert P.contains(g @ Y @ g_inv)


def test_generalized_flag_fiber_dimension():
    for parts in ((2, 1), (2, 2), (3, 1, 1), (1, 4)):
        comp = Composition(parts)
        n = comp.n
        dim_m = block_parabolic(comp).dim_complex
        dim_base = flag_base(n).subspace().dim_complex
        assert dim_m - dim_base == sum(m * (m - 1) // 2 for m in parts)


@pytest.mark.parametrize("n,expected", [(2, 3), (3, 7), (4, 13)])
def test_hopf_report(n, expected):
    rep = hopf_closure_report(n)
    assert rep.x0.dim_complex == expected == 1 + n * (n - 1)
    assert rep.escape.dim_complex == n * n
    # the x0 pattern: first column zero below the corner, top-left free
    assert rep.x0.contains(E(n, 1, 1))
    assert not rep.x0.contains(E(n, 2, 1))
    assert f"P^{n - 1}" in rep.verdict


def test_hopf_n2_pattern():
    rep = hopf_closure_report(2)
    for M in (E(2, 1, 1), E(2, 1, 2), E(2, 2, 2)):
        assert rep.x0.contains(M)
        assert rep.x0.contains(GAUSS_I * M)
    assert not rep.x0.contains(E(2, 2, 1))


# -- spanning ranks ------------------------------------------------------------

def test_grassmann_rank_trivial():
    X = SquareMatrix([[0, 0], [1, 0]])
    assert grassmann_spanning_rank(1, 1, X) == 1


def test_grassmann_rank_pivot_needed():
    # a = (0, 1): a11 = 0, pivot conjugation must relocate the entry
    X = SquareMatrix([[0, 0, 0], [0, 0, 0], [0, 1, 0]])
    assert grassmann_spanning_rank(2, 1, X) == 2


def test_grassmann_rank_full_cases():
    rng = random.Random(5)
    for (p, q) in ((2, 2), (3, 2)):
        X = random_lower_block(p, q, rng, 3, lead=2)
        assert grassmann_spanning_rank(p, q, X) == p * q
        assert grassmann_spanning_rank(p, q, X, K=1000) == p * q


def test_grassmann_star_violation():
    X = SquareMatrix([[1, 2], [0, 3]])
    with pytest.raises(StarViolation):
        grassmann_spanning_rank(1, 1, X)


def test_flag_spanning_failure_rank():
    rng = random.Random(9)
    for n in (3, 4):
        X = E(n, 2, 1)
        vecs = []
        for _ in range(60):
            tang = conjugated_tangent(random_upper_triangular(n, rng, 3), X)
            assert all(not t for t in tang[n - 1:])
            vecs.append(list(tang))
        assert exact_rank(vecs) <= n - 1


# -- subspace canonicalization ---------------------------------------------

def test_subspace_canonical_idempotent():
    rng = random.Random(4)
    mats = [random_int_matrix(rng, 3) for _ in range(4)]
    sub = MatrixSubspace(3, mats)
    again = MatrixSubspace(3, sub.basis_matrices())
    assert sub == again
    assert sub.dim_real == len(sub.rows)


def test_subspace_contains():
    sub = MatrixSubspace(2, [E(2, 1, 2), GAUSS_I * E(2, 1, 2)])
    assert sub.contains(5 * E(2, 1, 2))
    assert sub.contains(GaussianRational(2, 3) * E(2, 1, 2))
    assert not sub.contains(E(2, 2, 1))
