"""Seeded inputs and independent references for the three workloads.

Nothing here imports robinlab: every reference is computed by another route
(closed forms, a radial boundary-value solve, plain ``Fraction`` arithmetic,
sympy), so a fault in the program cannot leak into its own yardstick.
Fractions travel to the worker as "p/q" strings.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np

# Problem sizes of every workload.
SIZE = {"m": 24, "m_hess": 16, "radii": (0.12, 0.24, 0.36, 0.48, 0.6),
        "directions": 3, "strengths": (1.0, 4.0, 10.0, 20.0),
        "m_var": 24, "tuples": 160, "classify": 6, "classify_ring": 8,
        "flag_ns": (3, 4, 5), "hopf_ns": (2, 3, 4),
        "grassmann": ((1, 1), (2, 1), (2, 2), (3, 2))}

# Annulus supporting c: zero within ANNULUS[0] of the pole (so the pole
# term stays c-harmonic) and beyond ANNULUS[1] (so c vanishes exactly at the
# grid's first interior nodes).
ANNULUS = (0.3, 0.8)

# Subdiagonal supports of the dense generators, fixed so that every seed
# asks the closure for the same amount of span work; the seed picks the
# Gaussian-rational values.
DENSE_SUPPORTS = {3: ([(1, 0)], [(2, 1)], [(2, 0)]),
                  4: ([(2, 1)], [(2, 0)], [(1, 0), (3, 2)]),
                  5: ([(2, 0), (2, 1)], [(4, 1)], [(2, 1)])}

XI_POINTS = (Fraction(1, 3), Fraction(-7, 5), Fraction(11, 2))


def fstr(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def annulus_profile(r, strength):
    """c(r) = s (4x(1-x))^2 with x = (r - r0)/(r1 - r0) clipped to [0, 1]:
    C^1, nonnegative, and exactly zero off the annulus."""
    r0, r1 = ANNULUS
    x = np.clip((np.asarray(r, dtype=float) - r0) / (r1 - r0), 0.0, 1.0)
    return strength * (4.0 * x * (1.0 - x)) ** 2


# ---------------------------------------------------------------------------
# robin-sweep
# ---------------------------------------------------------------------------

def ball_lambda(radius: float) -> float:
    """Robin constant of the unit ball in C^2 at a pole of norm `radius`
    (image charge): -1 / (1 - |a|^2)^2."""
    return -1.0 / (1.0 - radius * radius) ** 2


def radial_c_lambda(strength: float) -> float:
    """Robin constant at the centre of the unit ball for the annulus c, by a
    radial two-point boundary-value solve of
    -(1/2)(u'' + 3u'/r) + c (u + r^-2) = 0,  u(1) = -1.
    c vanishes for r < r0, where u is therefore constant: u'(r0) = 0 and
    lambda = u(r0)."""
    import scipy.integrate

    r0 = ANNULUS[0]

    def rhs(r, y):
        u, du = y
        return np.vstack([du, -3.0 * du / r
                          + 2.0 * annulus_profile(r, strength) * (u + r ** -2.0)])

    def bc(ya, yb):
        return np.array([ya[1], yb[0] + 1.0])

    mesh = np.linspace(r0, 1.0, 200)
    guess = np.vstack([-np.ones_like(mesh), np.zeros_like(mesh)])
    sol = scipy.integrate.solve_bvp(rhs, bc, mesh, guess, tol=1e-9,
                                    max_nodes=100000)
    if not sol.success:
        raise RuntimeError(f"reference BVP failed for c strength {strength}")
    return float(sol.sol(r0)[0])


def robin_sweep(seed: int) -> dict:
    cfg = SIZE
    rng = np.random.default_rng(seed)
    chains = []
    for _ in range(cfg["directions"]):
        v = rng.normal(size=4)
        v /= np.linalg.norm(v)
        chains.append([{"pole": (r * v).tolist(), "lambda_ref": ball_lambda(r)}
                       for r in cfg["radii"]])
    # the strengths are fixed, not seeded: their solves hit the stale
    # assembled-system cache, and that failure must not depend on the seed
    csweep = [{"strength": s, "lambda_ref": radial_c_lambda(s)}
              for s in cfg["strengths"]]
    return {"m": cfg["m"], "m_hess": cfg["m_hess"], "chains": chains,
            "csweep": csweep}


# ---------------------------------------------------------------------------
# variation-check
# ---------------------------------------------------------------------------

def _unit_c2(rng) -> list:
    v = rng.normal(size=4)
    v /= np.linalg.norm(v)
    return [[float(v[0]), float(v[1])], [float(v[2]), float(v[3])]]


def variation_check(seed: int) -> dict:
    """Translated unit ball (any unit direction: lhs = -2 by U(2)
    invariance), radial family (lambda = -1/(1 + Re t)^2: lhs = -3/2 and
    first variation 1), quartic translation (no closed form)."""
    rng = np.random.default_rng(seed)
    ball_dir = _unit_c2(rng)
    quartic_dir = [[0.4 * x for x in z] for z in _unit_c2(rng)]
    return {"m": SIZE["m_var"], "families": [
        {"kind": "translation", "direction": ball_dir, "rho": 0.5,
         "lhs_ref": -2.0, "first_ref": None},
        {"kind": "radial", "rho": 0.45, "lhs_ref": -1.5, "first_ref": 1.0},
        {"kind": "quartic_translation", "direction": quartic_dir, "rho": 0.4,
         "lhs_ref": None, "first_ref": None},
    ]}


# ---------------------------------------------------------------------------
# exact-algebra
# ---------------------------------------------------------------------------

def _six_tuple(rng: random.Random, height: int, ring=None):
    """Valid (m, n, m', n', p, q) with entries of magnitude <= height; with
    `ring`, max(|m|, |n|) is exactly that value."""
    while True:
        m = rng.randint(-height, height)
        n = rng.randint(-height, height)
        mp = rng.randint(-height, height)
        np_ = rng.randint(1, height)
        p = rng.randint(1, height)
        q = rng.randint(1, height)
        if ring is not None and max(abs(m), abs(n)) != ring:
            continue
        if m == 0 or n == 0 or math.gcd(m, n) != 1 or math.gcd(mp, np_) != 1 \
                or math.gcd(p, q) != 1:
            continue
        return (m, n, mp, np_, p, q)


def foliation_at(t, x: Fraction):
    """a, b, A, B, C, eta of the six-tuple with xi = x, in plain Fractions;
    None where a denominator vanishes at x."""
    m, n, mp, np_, p, q = t
    p1 = (mp + np_ * x) * p
    p2 = Fraction(np_ * p)
    q1 = Fraction(m * q)
    q2 = Fraction(n * q)
    den = p1 * p1 + q1 * q1
    cross = p2 * q1 - p1 * q2
    if den == 0 or cross == 0:
        return None
    a = (p1 * p2 + q1 * q2) / den
    b = cross / den
    eta = Fraction(p, n * np_) * (p2 * p2 + q2 * q2) / cross
    return {"a": a, "b": b, "A": a / b, "B": -1 / b, "C": (a * a + b * b) / b,
            "eta": eta}


def sympy_direction(t):
    """Reduced (num, den) coefficient lists, low degree first, monic
    denominator, of a and b as rational functions of xi."""
    import sympy

    xi = sympy.Symbol("xi")
    m, n, mp, np_, p, q = t
    p1, p2, q1, q2 = (mp + np_ * xi) * p, np_ * p, m * q, n * q
    out = []
    for expr in ((p1 * p2 + q1 * q2) / (p1 ** 2 + q1 ** 2),
                 (p2 * q1 - p1 * q2) / (p1 ** 2 + q1 ** 2)):
        num, den = sympy.fraction(sympy.cancel(expr))
        num, den = sympy.Poly(num, xi), sympy.Poly(den, xi)
        lead = den.LC()
        coeffs = []
        for poly in (num, den):
            cs = [Fraction(str(c / lead)) for c in reversed(poly.all_coeffs())]
            while cs and cs[-1] == 0:
                cs.pop()
            coeffs.append([fstr(c) for c in cs])
        out.append(coeffs)
    return out


def _gauss(rng: random.Random) -> list:
    return [fstr(Fraction(rng.randint(-4, 4), rng.randint(1, 4))),
            fstr(Fraction(rng.randint(-4, 4), rng.randint(1, 4)))]


def _nonzero_gauss(rng: random.Random) -> list:
    while True:
        z = _gauss(rng)
        if z != ["0/1", "0/1"]:
            return z


def exact_algebra(seed: int) -> dict:
    cfg = SIZE
    rng = random.Random(seed)
    tuples = [_six_tuple(rng, 20) for _ in range(cfg["tuples"])]
    fol = []
    for t in tuples:
        points = []
        for x in XI_POINTS:
            vals = foliation_at(t, x)
            if vals is not None:
                points.append({"xi": fstr(x),
                               **{k: fstr(v) for k, v in vals.items()}})
        fol.append({"tuple": list(t), "points": points})
    for entry in fol[:3]:
        entry["sympy"] = sympy_direction(tuple(entry["tuple"]))
    classify = [list(_six_tuple(rng, 20, ring=cfg["classify_ring"]))
                for _ in range(cfg["classify"])]
    closures = []
    for n in cfg["flag_ns"]:
        for i in range(1, n):                 # every subdiagonal singleton
            closures.append({"n": n, "kind": "elementary",
                             "gens": [[i + 1, i]]})
        for support in DENSE_SUPPORTS[n]:
            rows = [[_gauss(rng) if j >= i else
                     (_nonzero_gauss(rng) if (i, j) in support else ["0/1", "0/1"])
                     for j in range(n)] for i in range(n)]
            closures.append({"n": n, "kind": "dense", "matrix": rows})
    grassmann = []
    for (p, q) in cfg["grassmann"]:
        rows = [[0] * (p + q) for _ in range(p + q)]
        for r in range(q):
            for c in range(p):
                rows[p + r][c] = rng.randint(-4, 4)
        rows[p][0] = rng.randint(1, 4)           # a nonzero lower-left block
        grassmann.append({"p": p, "q": q, "matrix": rows, "rank_ref": p * q})
    hopf = [{"n": n, "x0_dim": 1 + n * (n - 1), "escape_dim": n * n}
            for n in cfg["hopf_ns"]]
    return {"foliation": fol, "classify": classify, "closures": closures,
            "hopf": hopf, "grassmann": grassmann}


WORKLOADS = {"robin-sweep": robin_sweep, "variation-check": variation_check,
             "exact-algebra": exact_algebra}


def make(workload: str, seed: int) -> dict:
    return WORKLOADS[workload](seed)
