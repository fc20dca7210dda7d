"""Acceptance suite: one callable per criterion, each returning a detail
string and raising AssertionError on failure.

Run via `robinlab selftest` or through tests/test_acceptance.py; every
criterion prints one PASS/FAIL line with its measured numbers.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import numpy as np

from . import geometry, green, lie, torus, variation


def _within_budget(t0, budget):
    """Time since t0 against a budget in seconds, as the tail of a PASS
    line; AssertionError when over."""
    elapsed = time.perf_counter() - t0
    assert elapsed <= budget, f"runtime {elapsed:.1f}s > {budget} s budget"
    return f"{elapsed:.1f}s of a {budget} s budget"


def crit1_ball_robin():
    """Unit ball in C^2, c = 0, pole at center: lambda = -1 within 5% at 32
    nodes/axis and 2% at 48; runtime <= 2 min."""
    t0 = time.perf_counter()
    out = []
    for m, tol in ((32, 0.05), (48, 0.02)):
        dom = green.GridDomain.ball(2, radius=1.0, nodes_per_axis=m)
        lam = green.solve_green(dom).lam
        rel = abs(lam + 1.0)
        out.append(f"m={m}: lambda={lam:.6f} (|err|={rel:.2e}, tol {tol})")
        assert rel <= tol, out[-1]
    return "; ".join(out) + "; " + _within_budget(t0, 120)


def crit2_offcenter_robin():
    """lambda(|y|=0.5) = -16/9 within 5%; Hessian of -Lambda at 0 has both
    eigenvalues within 20% of 2."""
    dom = green.GridDomain.ball(2, radius=1.0, nodes_per_axis=32)
    lam = green.solve_green(dom, pole=[0.5, 0, 0, 0]).lam
    exact = -16.0 / 9.0
    rel = abs((lam - exact) / exact)
    assert rel <= 0.05, f"lambda={lam:.6f} vs -16/9, rel {rel:.3f}"

    dom20 = green.GridDomain.ball(2, radius=1.0, nodes_per_axis=20)
    fld = green.robin_function(dom20, [[0, 0, 0, 0]])
    w, _, flats = green.hessian_flat_directions(fld, [0, 0], tol_eig=0.1)
    assert np.all(w >= 2 * 0.8) and np.all(w <= 2 * 1.2), f"eigs {w}"
    assert not flats, "unexpected flat direction on the ball"
    return f"lambda={lam:.6f} (rel {rel:.2%}); Hessian eigs {np.round(w, 4)}"


def crit3_second_variation():
    """Translation family of the unit ball, a = (1,0): lhs = -2 +- 10%;
    |lhs-rhs|/|lhs| <= 0.20 at 32 and <= 0.10 at 48; -lambda strictly
    subharmonic; runtime <= 5 min."""
    t0 = time.perf_counter()
    fam = variation.translation_family(2, (1.0, 0.0), rho=0.5)
    out = []
    for m, tol in ((32, 0.20), (48, 0.10)):
        rep = variation.second_variation_check(fam, 0.0, nodes_per_axis=m)
        out.append(f"m={m}: lhs={rep.lhs:.4f} rhs={rep.rhs:.4f} "
                   f"mismatch={rep.mismatch:.3f} (tol {tol})")
        assert abs(rep.lhs + 2.0) <= 0.2, out[-1]
        assert rep.mismatch <= tol, out[-1]
        assert -rep.lhs > 0, "second derivative of -lambda should be positive"
    return "; ".join(out) + "; " + _within_budget(t0, 300)


def crit4_first_variation():
    """Radial family: d lambda/dt = 1 within 5%, boundary integral within
    10% of the finite difference."""
    fam = variation.radial_family(2, 1.0, rho=0.45)
    lhs, rhs, mism = variation.first_variation_check(fam, 0.0, nodes_per_axis=32)
    assert abs(lhs - 1.0) <= 0.05, f"lhs={lhs}"
    assert abs(rhs - lhs) <= 0.10 * abs(lhs), f"lhs={lhs} rhs={rhs}"
    return f"lhs={complex(lhs):.5f} rhs={complex(rhs):.5f} mismatch={mism:.3f}"


def crit5_curvature():
    """W closed forms (ball 4, Hopf -1, Euclid 0) and Hodge residuals."""
    ball = geometry.ball_chart(2)
    hopf = geometry.hopf_chart(2)
    eu = geometry.euclidean_chart(2)
    kb = geometry.kahler_ball_chart(2)
    w_ball = geometry.scalar_W(ball, [0.0, 0.0])
    assert abs(w_ball - 4.0) <= 1e-4, f"W_ball(0)={w_ball}"
    w_hopf = geometry.scalar_W(hopf, [1.0, 0.0])
    assert abs(w_hopf + 1.0) <= 1e-4, f"W_hopf={w_hopf}"
    w_eu = geometry.scalar_W(eu, [0.3 + 0.1j, -0.2j])
    assert w_eu == 0.0, f"W_euclid={w_eu}"
    z = [0.3 + 0.2j, -0.1 + 0.4j]
    res_kb = float(np.max(np.abs(geometry.hodge_condition_residual(kb, z))))
    assert res_kb < 1e-6, f"Kahler-ball Hodge residual {res_kb:g}"
    res_hopf = float(np.linalg.norm(
        geometry.hodge_condition_residual(hopf, [1.0, 0.0])))
    assert res_hopf > 0.1, f"Hopf Hodge residual {res_hopf:g}"
    return (f"W_ball(0)={w_ball:.6f}, W_hopf={w_hopf:.6f}, W_eu={w_eu}, "
            f"hodge(kahler)={res_kb:.1e}, hodge(hopf)={res_hopf:.2f}")


def random_six_tuples(count, height, seed=20240831):
    """Valid six-tuples with entries of magnitude <= height."""
    rng = random.Random(seed)
    from math import gcd
    out = []
    while len(out) < count:
        m = rng.randint(-height, height)
        n = rng.randint(-height, height)
        mp = rng.randint(-height, height)
        np_ = rng.randint(1, height)
        p = rng.randint(1, height)
        q = rng.randint(1, height)
        if m == 0 or n == 0 or gcd(m, n) != 1 or gcd(mp, np_) != 1 \
                or gcd(p, q) != 1:
            continue
        out.append(torus.SixTuple(m, n, mp, np_, p, q))
    return out


def _point_on_surface(a, b, x1, x2, x3, x4):
    """Exact membership in S: x2 + i x4 = (a + i b)(x1 + i x3)."""
    return (x2 == a * x1 - b * x3) and (x4 == b * x1 + a * x3)


def crit6_torus_identities():
    """1000 random six-tuples of height <= 20: exact Jacobian, d = 1/(p n'),
    both surface points, eta irrational, F(q(m,n)) = p(M',n'); <= 10 s."""
    t0 = time.perf_counter()
    tuples = random_six_tuples(1000, 20)
    for t in tuples:
        fd = torus.foliation_data(t)       # asserts -A^2 - BC = 1 internally
        assert fd.d == Fraction(1, t.p * t.n_prime)
        assert torus.has_positive_xi_degree(fd.eta), f"eta rational for {t}"
        sc = torus.scalar
        x3, x4 = torus.F_apply(fd, sc(t.q * t.m), sc(t.q * t.n))
        assert x3 == fd.tuple_.big_m_prime * t.p and x4 == sc(t.p * t.n_prime)
        # first surface point: (q(m,n), p(M',n'))
        assert _point_on_surface(fd.a, fd.b, sc(t.q * t.m), sc(t.q * t.n),
                                 fd.tuple_.big_m_prime * t.p,
                                 sc(t.p * t.n_prime))
        # second: (p(1/n,0), q(1/n',0) + eta (M',n'))
        x1 = sc(Fraction(t.p, t.n))
        x2 = sc(0)
        x3 = sc(Fraction(t.q, t.n_prime)) + fd.eta * fd.tuple_.big_m_prime
        x4 = fd.eta * t.n_prime
        assert _point_on_surface(fd.a, fd.b, x1, x2, x3, x4)
    return "1000 tuples, all identities exact; " + _within_budget(t0, 10)


def crit7_parabolic_oracle():
    """Closure vs brute-force minimal standard parabolic: all subdiagonal
    singletons for n in 3..5 plus 100 random generator sets; <= 30 s."""
    t0 = time.perf_counter()
    rng = random.Random(1729)
    bases = {n: lie.flag_base(n) for n in (3, 4, 5)}
    cases = 0
    for n in (3, 4, 5):
        for i in range(1, n):
            gens = [lie.SquareMatrix.elementary(n, i + 1, i)]
            _check_closure_case(bases[n], n, gens)
            cases += 1
    for _ in range(100):
        n = rng.choice([3, 4, 5])
        gens = []
        for _ in range(rng.randint(1, 3)):
            i = rng.randint(2, n)
            j = rng.randint(1, i - 1)
            gens.append(lie.SquareMatrix.elementary(n, i, j))
        _check_closure_case(bases[n], n, gens)
        cases += 1
    return (f"{cases} closures match the oracle exactly; "
            + _within_budget(t0, 30))


def _check_closure_case(base, n, gens):
    P = lie.parabolic_closure(gens, base)
    comp = lie.extract_composition(P)
    oracle = lie.minimal_parabolic_oracle(n, gens)
    assert comp == oracle, f"n={n}: {comp.parts} vs oracle {oracle.parts}"
    assert P == lie.block_parabolic(oracle), "canonical bases differ"


def crit8_hopf_report():
    """dim X0 = 1 + n(n-1) for n in 2..4; escape generator reaches M_n."""
    dims = []
    for n in (2, 3, 4):
        rep = lie.hopf_closure_report(n)
        assert rep.x0.dim_complex == 1 + n * (n - 1), \
            f"n={n}: dim {rep.x0.dim_complex}"
        assert rep.escape.dim_complex == n * n, \
            f"n={n}: escape dim {rep.escape.dim_complex}"
        dims.append(rep.x0.dim_complex)
    return f"dims {dims} = 1+n(n-1); escapes reach full M_n"


def crit9_spanning_ranks():
    """Grassmann pivot-tangent rank = pq exactly over Q(i)(K); flag
    achievable-direction rank <= n-1 for X_21."""
    rng = random.Random(99)
    details = []
    for (p, q) in ((1, 1), (2, 1), (2, 2), (3, 2)):
        X = lie.random_lower_block(p, q, rng, 4)
        rank = lie.grassmann_spanning_rank(p, q, X)
        assert rank == p * q, f"(p,q)=({p},{q}): rank {rank}"
        details.append(f"G({p},{p + q})={rank}")
    from .exactalg import exact_rank
    flag_detail = []
    for n in (3, 4, 5):
        X = lie.SquareMatrix.elementary(n, 2, 1)
        vecs = []
        for _ in range(200):
            A = lie.random_upper_triangular(n, rng, 3)
            tang = lie.conjugated_tangent(A, X)
            nfirst = n - 1
            assert all(not t for t in tang[nfirst:]), \
                "tangent leaves the first block"
            vecs.append(list(tang))
        rank = exact_rank(vecs)
        assert rank <= n - 1, f"n={n}: rank {rank} > n-1"
        flag_detail.append(f"F_{n}<= {rank}")
    return "Grassmann " + ", ".join(details) + "; flag ranks " + \
        ", ".join(flag_detail)


def crit10_defining_invariance():
    """k2 from psi and from exp(x1) * psi agree at 50 boundary samples
    within 1e-8."""
    rng = np.random.default_rng(5)
    fam = variation.translation_family(2, (1.0, 0.0), rho=0.5)
    df1 = fam.slice_at()
    chart = geometry.euclidean_chart(2)

    def psi2(t, z):
        x1 = float(np.real(np.asarray(z, complex)[0]))
        return float(np.exp(x1)) * float(fam.psi(t, np.asarray(z)[None, :])[0])

    df2 = geometry.DefiningFunctionSlice(2, psi2, h_z=1e-3, h_t=1e-3,
                                         diameter=df1.diameter)
    worst = 0.0
    for _ in range(50):
        v = rng.normal(size=4)
        v /= np.linalg.norm(v)
        zb = green.real_to_complex(v[None, :])[0]   # on the unit sphere, t=0
        k2a = geometry.levi_k2(chart, df1, 0.0, zb)
        k2b = geometry.levi_k2(chart, df2, 0.0, zb)
        worst = max(worst, abs(k2a - k2b))
    assert worst <= 1e-8, f"max |k2 - k2'| = {worst:g}"
    return f"50 boundary samples, max discrepancy {worst:.2e}"


CRITERIA = [
    ("1 ball Robin constant", crit1_ball_robin),
    ("2 off-center Robin function + Hessian", crit2_offcenter_robin),
    ("3 second variation formula", crit3_second_variation),
    ("4 first variation formula", crit4_first_variation),
    ("5 curvature closed forms + Hodge residuals", crit5_curvature),
    ("6 torus exact identities", crit6_torus_identities),
    ("7 parabolic closure oracle", crit7_parabolic_oracle),
    ("8 Hopf closure report", crit8_hopf_report),
    ("9 spanning ranks", crit9_spanning_ranks),
    ("10 defining-function invariance", crit10_defining_invariance),
]


def run_all(stream=None) -> bool:
    """Run every criterion, print one PASS/FAIL line each, return overall."""
    import sys
    stream = stream or sys.stdout
    ok = True
    for name, fn in CRITERIA:
        t0 = time.perf_counter()
        try:
            verdict, detail = "PASS", fn()
        except Exception as exc:
            ok = False
            verdict, detail = "FAIL", exc
        print(f"{verdict}  criterion {name}  [{time.perf_counter() - t0:.1f}s]  "
              f"{detail}", file=stream)
    return ok
