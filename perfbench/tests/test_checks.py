"""Each output check accepts a correct result and rejects a perturbed one."""

from fractions import Fraction

import pytest

import checks
import inputs
import robinlab as rl
import workloads
from robinlab import lie

M = 24


# -- references ------------------------------------------------------------------

def test_radial_reference_without_c_is_the_ball_constant():
    assert inputs.radial_c_lambda(0.0) == pytest.approx(-1.0, abs=1e-9)
    assert inputs.radial_c_lambda(4.0) < inputs.radial_c_lambda(1.0) < -1.0


def test_ball_reference():
    assert inputs.ball_lambda(0.0) == -1.0
    assert inputs.ball_lambda(0.5) == pytest.approx(-16.0 / 9.0)


def test_annulus_c_vanishes_off_the_annulus():
    r0, r1 = inputs.ANNULUS
    assert inputs.annulus_profile([0.0, r0, r1, 1.0], 5.0).tolist() == [0, 0, 0, 0]
    assert inputs.annulus_profile(0.5 * (r0 + r1), 5.0) == pytest.approx(5.0)


# -- robin-sweep -----------------------------------------------------------------

def test_lambda_off_by_one_percent_is_rejected():
    ref = inputs.ball_lambda(0.6)
    assert checks.check_lambda(ref * (1 + 1e-3), ref, checks.lambda_tol(M), "") == []
    assert checks.check_lambda(ref * 1.01, ref, checks.lambda_tol(M), "")


def test_c_sweep_lambda_from_a_stale_system_is_rejected():
    ref = inputs.radial_c_lambda(4.0)
    tol = checks.c_lambda_tol(M)
    assert checks.check_lambda(ref * 1.01, ref, tol, "") == []
    assert checks.check_lambda(ref * 1.05, ref, tol, "")


def _c_sweep_groups(lams):
    strengths = (1.0, 4.0, 10.0)
    sweep = workloads.RobinSweep({
        "m": M, "m_hess": 16, "chains": [],
        "csweep": [{"strength": s, "lambda_ref": inputs.radial_c_lambda(s)}
                   for s in strengths]})
    refs = [inputs.radial_c_lambda(s) for s in strengths]
    ops = sweep.check({"chains": [], "csweep": [r * x for r, x in zip(refs, lams)],
                       "eigs": [2.0, 2.0], "flats": 0})
    return [(group, bool(fails)) for group, fails in ops if group.startswith("c-")]


def test_only_later_c_strengths_may_fail_as_the_stale_cache():
    stale = workloads.KNOWN_FAULT
    assert _c_sweep_groups([1, 1, 1]) == [("c-first", False), (stale, False),
                                          (stale, False)]
    assert _c_sweep_groups([1, 1.2, 1.2]) == [("c-first", False), (stale, True),
                                              (stale, True)]
    # a wrong first strength, or a stale count other than all or none, is
    # not the known fault
    assert _c_sweep_groups([1.2, 1.2, 1.2])[0] == ("c-first", True)
    assert _c_sweep_groups([1, 1, 1.2]) == [("c-first", False), ("c-later", False),
                                            ("c-later", True)]


def test_nonpositive_green_function_is_rejected():
    assert checks.check_positive_g(1e-3, "") == []
    assert checks.check_positive_g(-1e-3, "")


def test_lambda_rising_with_the_pole_norm_is_rejected():
    lams = [inputs.ball_lambda(r) for r in (0.1, 0.2, 0.3)]
    assert checks.check_decreasing(lams, "") == []
    assert checks.check_decreasing([lams[0], lams[2], lams[1]], "")


def test_hessian_off_or_flat_is_rejected():
    assert checks.check_hessian([1.99, 2.01], 0) == []
    assert checks.check_hessian([1.99, 2.5], 0)
    assert checks.check_hessian([1.99, 2.01], 1)


# -- variation-check ---------------------------------------------------------------

def _variation(lhs=-2.0, rhs=-1.95, lhs_ref=-2.0, first=None, first_ref=None,
               mismatch=None):
    if mismatch is None:
        mismatch = abs(lhs - rhs) / max(abs(lhs), abs(rhs))
    return checks.check_variation(lhs, rhs, mismatch, lhs_ref, first,
                                  first_ref, M, "")


def test_variation_accepts_a_good_report():
    assert _variation() == []
    assert _variation(lhs=-1.5, rhs=-1.55, lhs_ref=-1.5, first=1.01 + 0j,
                      first_ref=1.0) == []


def test_wrong_closed_form_lhs_is_rejected():
    assert _variation(lhs=-2.5, rhs=-2.45)


def test_wrong_first_variation_is_rejected():
    assert _variation(lhs=-1.5, rhs=-1.55, lhs_ref=-1.5, first=1.2,
                      first_ref=1.0)


def test_rhs_beyond_the_mismatch_tolerance_is_rejected():
    assert _variation(rhs=-2.0 * (1 - 1.2 * checks.mismatch_tol(M)))


def test_misreported_mismatch_is_rejected():
    assert _variation(mismatch=0.001)


def test_nonpositive_minus_lhs_is_rejected():
    assert _variation(lhs=0.1, rhs=0.1, lhs_ref=None)


# -- exact-algebra ---------------------------------------------------------------------

TUPLE = (3, -4, 2, 5, 7, 3)


def _program_point(t, x):
    fd = rl.foliation_data(rl.SixTuple(*t))
    got = {k: getattr(fd, k).eval(x) for k in ("a", "b", "A", "B", "C", "eta")}
    got["tuple"] = list(t)
    return got


def _ref_point(t, x):
    return {"xi": x, **inputs.foliation_at(t, x)}


@pytest.mark.parametrize("x", inputs.XI_POINTS)
def test_foliation_values_match_the_fraction_route(x):
    assert checks.check_foliation_point(_program_point(TUPLE, x),
                                        _ref_point(TUPLE, x), "") == []


def test_foliation_of_a_tuple_off_by_one_is_rejected():
    x = inputs.XI_POINTS[0]
    off = (TUPLE[0], TUPLE[1], TUPLE[2] + 1) + TUPLE[3:]
    got = _program_point(off, x)
    got["tuple"] = list(TUPLE)
    assert checks.check_foliation_point(got, _ref_point(TUPLE, x), "")


def test_jacobian_and_surface_identities_catch_a_perturbed_value():
    x = inputs.XI_POINTS[1]
    for key in ("A", "eta"):
        got = _program_point(TUPLE, x)
        got[key] += Fraction(1, 1000)
        ref = {**_ref_point(TUPLE, x), key: got[key]}   # value check blind
        fails = checks.check_foliation_point(got, ref, "")
        assert any(("-A^2" in f) or ("surface" in f) for f in fails), key


def test_sympy_cross_check():
    fd = rl.foliation_data(rl.SixTuple(*TUPLE))
    got = [[[f"{c.numerator}/{c.denominator}" for c in poly]
            for poly in (v.num, v.den)] for v in (fd.a, fd.b)]
    ref = inputs.sympy_direction(TUPLE)
    assert checks.check_equal(got, ref, "") == []
    bad = [[list(p) for p in v] for v in ref]
    bad[0][0][0] = inputs.fstr(Fraction(bad[0][0][0]) + 1)
    assert checks.check_equal(got, bad, "")


def test_round_trip_to_a_tuple_off_by_one_is_rejected():
    t = rl.SixTuple(*TUPLE)
    a, b = rl.direction_from_tuple(t)
    rec = rl.classify_direction(a, b).recovered
    assert checks.check_equal(rec, t, "") == []
    off = rl.SixTuple(TUPLE[0], TUPLE[1], TUPLE[2] + 1, *TUPLE[3:])
    assert checks.check_equal(off, t, "")


def test_closure_with_a_wrong_composition_is_rejected():
    gens = [lie.SquareMatrix.elementary(3, 2, 1)]
    P = lie.parabolic_closure(gens, lie.flag_base(3))
    ref = lie.block_parabolic(lie.minimal_parabolic_oracle(3, gens))
    assert checks.check_equal(P, ref, "") == []
    wrong = lie.block_parabolic(lie.Composition((1, 2)))
    assert checks.check_equal(wrong, ref, "")


def test_wrong_hopf_dimensions_and_grassmann_rank_are_rejected():
    assert checks.check_equal((7, 9), (1 + 3 * 2, 3 * 3), "") == []
    assert checks.check_equal((6, 9), (1 + 3 * 2, 3 * 3), "")
    assert checks.check_equal(5, 2 * 3, "")
