"""Output checks.  Each returns a list of failure messages, empty when the
result passes.  A failed check marks its operation failed.

Numeric tolerances scale with the grid spacing at the method's order,
anchored at a tolerance the repository already states for a given grid:

* lambda: second order (cut-cell scheme), 0.5% at 20 nodes per axis
  (tests/test_green.py, off-centre poles up to |a| = 0.5);
* annulus-c lambda: second order, 2% at 24 nodes (test_c_term_vs_radial_ode);
* second-variation lhs: second order, 10% at 32 nodes (criterion 3);
* first variation: second order, 5% at 32 nodes (criterion 4);
* lhs/rhs mismatch: first order (one-point-per-cell boundary
  quadrature), 20% at 32 nodes (criterion 3);
* Hessian eigenvalues of -Lambda at the ball centre: within 20% of 2 with
  no eigenvalue below 0.1 (criterion 2).

Exact results are compared for equality.
"""

from __future__ import annotations

from fractions import Fraction


def spacing_ratio(m_anchor: int, m: int) -> float:
    """h(m) / h(m_anchor) on a fixed box: (m_anchor - 1) / (m - 1)."""
    return (m_anchor - 1) / (m - 1)


def lambda_tol(m: int) -> float:
    return 5e-3 * spacing_ratio(20, m) ** 2


def c_lambda_tol(m: int) -> float:
    return 2e-2 * spacing_ratio(24, m) ** 2


def lhs_tol(m: int) -> float:
    return 0.10 * spacing_ratio(32, m) ** 2


def first_variation_tol(m: int) -> float:
    return 0.05 * spacing_ratio(32, m) ** 2


def mismatch_tol(m: int) -> float:
    return 0.20 * spacing_ratio(32, m)


HESSIAN_REL_TOL = 0.20
FLAT_EIGENVALUE = 0.1


def rel_err(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref)


# -- robin-sweep ---------------------------------------------------------------

def check_lambda(lam: float, ref: float, tol: float, what: str) -> list:
    err = rel_err(lam, ref)
    return [] if err <= tol else [f"{what}: lambda {lam:.6g} vs {ref:.6g} "
                                  f"(rel err {err:.2e} > {tol:.2e})"]


def check_positive_g(min_g: float, what: str) -> list:
    return [] if min_g > 0 else [f"{what}: min g = {min_g:.3g} <= 0"]


def check_decreasing(lams: list, what: str) -> list:
    """lambda must fall strictly as the pole moves out along a ray."""
    bad = [k for k in range(1, len(lams)) if not lams[k] < lams[k - 1]]
    return [f"{what}: lambda not decreasing in |a| at step {k}" for k in bad]


def check_hessian(eigs, n_flat: int) -> list:
    out = [f"Hessian eigenvalue {w:.4g} not within {HESSIAN_REL_TOL:.0%} of 2"
           for w in eigs if abs(w - 2.0) > HESSIAN_REL_TOL * 2.0]
    if n_flat:
        out.append(f"{n_flat} flat direction(s) on the ball")
    return out


# -- variation-check -------------------------------------------------------------

def check_variation(lhs: float, rhs: float, mismatch: float, lhs_ref, first,
                    first_ref, m: int, what: str) -> list:
    out = []
    if lhs_ref is not None and rel_err(lhs, lhs_ref) > lhs_tol(m):
        out.append(f"{what}: lhs {lhs:.5g} vs {lhs_ref} "
                   f"(tol {lhs_tol(m):.2e})")
    if first_ref is not None and abs(first - first_ref) > \
            first_variation_tol(m) * abs(first_ref):
        out.append(f"{what}: first variation {first:.5g} vs {first_ref}")
    recomputed = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-12)
    if abs(recomputed - mismatch) > 1e-12 * max(1.0, recomputed):
        out.append(f"{what}: reported mismatch {mismatch:.6g} is not "
                   f"|lhs - rhs|/max = {recomputed:.6g}")
    if recomputed > mismatch_tol(m):
        out.append(f"{what}: mismatch {recomputed:.3g} > {mismatch_tol(m):.3g}")
    if not -lhs > 0:
        out.append(f"{what}: -lhs = {-lhs:.4g} is not positive")
    return out


# -- exact-algebra -----------------------------------------------------------------

def check_foliation_point(got: dict, ref: dict, what: str) -> list:
    """Program values (a, b, A, B, C, eta at one rational xi, as Fractions)
    against the Fraction re-derivation, plus the Jacobian identity and the
    two surface points of the six-tuple t = got['tuple']."""
    out = [f"{what}: {k} = {got[k]} != {ref[k]} at xi = {ref['xi']}"
           for k in ("a", "b", "A", "B", "C", "eta") if got[k] != ref[k]]
    A, B, C = got["A"], got["B"], got["C"]
    if -A * A - B * C != 1:
        out.append(f"{what}: -A^2 - BC = {-A * A - B * C} at xi = {ref['xi']}")
    m, n, mp, np_, p, q = got["tuple"]
    Mp = mp + np_ * ref["xi"]
    a, b, eta = got["a"], got["b"], got["eta"]
    points = ((q * m, q * n, p * Mp, p * np_),
              (Fraction(p, n), 0, Fraction(q, np_) + eta * Mp, eta * np_))
    for k, (x1, x2, x3, x4) in enumerate(points):
        # on S:  x2 + i x4 = (a + i b)(x1 + i x3)
        if x2 != a * x1 - b * x3 or x4 != b * x1 + a * x3:
            out.append(f"{what}: surface point {k + 1} off S at xi = {ref['xi']}")
    return out


def check_equal(got, ref, what: str) -> list:
    return [] if got == ref else [f"{what}: {got!r} != {ref!r}"]
