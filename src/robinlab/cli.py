"""Command-line entry point.

Subcommands: green | variation | levi | torus (from-tuple|classify|foliation)
| lie (closure|tangent|spanning|hopf) | selftest.  Identical configuration
produces byte-identical JSON: field order is fixed and floats print with 17
significant digits.

Exit codes: 0 success, 2 validation error, 3 solver nonconvergence, 4 exact-
arithmetic contract violation (an internal identity failed, i.e. a bug).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

import numpy as np

from . import geometry, green, lie, torus, variation
from .errors import NonconvergentSolver, RobinlabError, ValidationError
from .exactalg import GaussianRational

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3
EXIT_CONTRACT = 4


# ---------------------------------------------------------------------------
# deterministic JSON
# ---------------------------------------------------------------------------

def to_json(obj, indent=0) -> str:
    """Deterministic JSON: insertion-ordered keys, floats at 17 significant
    digits, no whitespace variation."""
    pad = " " * indent
    if isinstance(obj, dict):
        items = ",".join(f'"{k}":{to_json(v)}' for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(to_json(v) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format(float(obj), ".17g")
    if isinstance(obj, complex):
        return to_json({"re": obj.real, "im": obj.imag})
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _emit(args, payload):
    text = to_json(payload) + "\n"
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_json_arg(path):
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# domain / family builders from JSON specs
# ---------------------------------------------------------------------------

def domain_from_spec(spec, nodes_per_axis, pole):
    kind = spec["kind"]
    n = int(spec["n"])
    if kind == "ball":
        return green.GridDomain.ball(
            n, radius=float(spec.get("radius", 1.0)),
            nodes_per_axis=nodes_per_axis, pole=pole,
            center=spec.get("center"))
    if kind == "polynomial":
        poly = geometry.Poly.from_spec(n, spec["terms"])

        def psi(X):
            X = np.asarray(X, dtype=float)
            vals = np.zeros(X.shape[:-1])
            for e, c in poly.terms.items():
                mono = np.ones(X.shape[:-1])
                for k, ek in enumerate(e):
                    if ek:
                        mono = mono * X[..., k] ** ek
                vals = vals + c.real * mono
            return vals

        lo = np.asarray(spec["box_lo"], dtype=float)
        hi = np.asarray(spec["box_hi"], dtype=float)
        return green.GridDomain(n, psi, lo, hi, nodes_per_axis, pole)
    raise ValidationError(f"unknown domain kind {kind!r}")


def family_from_spec(spec) -> variation.DomainFamily:
    kind = spec["kind"]
    if kind == "translation":
        return variation.translation_family(
            int(spec.get("n", 2)),
            tuple(complex(*c) if isinstance(c, (list, tuple)) else complex(c)
                  for c in spec["direction"]),
            radius=float(spec.get("radius", 1.0)),
            rho=float(spec.get("rho", 0.5)))
    if kind == "radial":
        return variation.radial_family(
            int(spec.get("n", 2)), float(spec.get("base_radius", 1.0)),
            rho=float(spec.get("rho", 0.45)))
    if kind == "static":
        return variation.static_family(
            int(spec.get("n", 2)), radius=float(spec.get("radius", 1.0)),
            rho=float(spec.get("rho", 0.5)))
    if kind == "quartic_translation":
        return variation.quartic_translation_family(
            tuple(complex(*c) if isinstance(c, (list, tuple)) else complex(c)
                  for c in spec["direction"]),
            rho=float(spec.get("rho", 0.4)))
    raise ValidationError(f"unknown family kind {kind!r}")


def matrix_from_spec(entries) -> lie.SquareMatrix:
    """Nested arrays; entries are rational strings "p/q" or [re, im] pairs."""
    def entry(e):
        if isinstance(e, str):
            return GaussianRational(Fraction(e))
        if isinstance(e, (list, tuple)) and len(e) == 2:
            return GaussianRational(Fraction(str(e[0])), Fraction(str(e[1])))
        if isinstance(e, int):
            return GaussianRational(e)
        raise ValidationError(f"bad matrix entry {e!r}")
    return lie.SquareMatrix([[entry(e) for e in row] for row in entries])


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_green(args):
    pole = [float(v) for v in args.pole.split(",")]
    spec = _load_json_arg(args.domain)
    dom = domain_from_spec(spec, args.grid, pole)
    fld = green.solve_green(dom, args.c if args.c else None)
    _emit(args, {
        "lambda": fld.lam,
        "residual": fld.residual,
        "grid": {
            "n": dom.n,
            "nodes_per_axis": dom.m,
            "box_lo": list(dom.box_lo),
            "box_hi": list(dom.box_hi),
            "interior_nodes": dom.n_interior,
        },
        "pole": list(fld.pole),
    })
    return EXIT_OK


def cmd_variation(args):
    fam = family_from_spec(_load_json_arg(args.family))
    t0 = complex(*[float(v) for v in args.t0.split(",")])
    rep = variation.second_variation_check(
        fam, t0, h_t=args.ht, nodes_per_axis=args.grid)
    _emit(args, {
        "t0": rep.t0,
        "h_t": rep.h_t,
        "nodes_per_axis": rep.nodes_per_axis,
        "lambda_samples": {k: v for k, v in sorted(rep.lambda_samples.items())},
        "lhs": rep.lhs,
        "rhs_boundary": rep.rhs_boundary,
        "rhs_volume_dbar": rep.rhs_volume_dbar,
        "rhs_volume_c": rep.rhs_volume_c,
        "rhs_cross": rep.rhs_cross,
        "rhs": rep.rhs,
        "mismatch": rep.mismatch,
        "first_var_lhs": rep.first_var_lhs,
        "first_var_rhs": rep.first_var_rhs,
        "first_var_mismatch": rep.first_var_mismatch,
    })
    return EXIT_OK


def cmd_levi(args):
    chart = geometry.chart_from_json(_load_json_arg(args.metric))
    df = geometry.DefiningFunctionSlice.from_json(_load_json_arg(args.domain))
    t = complex(*[float(v) for v in args.t.split(",")])
    x = np.array([float(v) for v in args.z.split(",")])
    z = green.real_to_complex(x[None, :])[0]
    payload = {
        "k1": geometry.levi_k1(chart, df, t, z),
        "k2": geometry.levi_k2(chart, df, t, z),
        "k2_reduced": geometry.levi_k2(chart, df, t, z, reduced=True),
        "hodge_residual": [complex(v) for v in
                           geometry.hodge_condition_residual(chart, z)],
        "W": geometry.scalar_W(chart, z),
    }
    _emit(args, payload)
    return EXIT_OK


def cmd_torus(args):
    if args.torus_cmd == "from-tuple":
        t = torus.SixTuple(*args.ints)
        a, b = torus.direction_from_tuple(t)
        _emit(args, {
            "tuple": list(args.ints),
            "a": torus.serialize_scalar(a),
            "b": torus.serialize_scalar(b),
        })
        return EXIT_OK
    if args.torus_cmd == "foliation":
        t = torus.SixTuple(*args.ints)
        fd = torus.foliation_data(t)
        _emit(args, {
            "tuple": list(args.ints),
            "A": torus.serialize_scalar(fd.A),
            "B": torus.serialize_scalar(fd.B),
            "C": torus.serialize_scalar(fd.C),
            "eta": torus.serialize_scalar(fd.eta),
            "d": str(fd.d),
            "l1_dir": list(fd.l1_dir),
            "l2_dir": [torus.serialize_scalar(fd.l2_dir[0]), fd.l2_dir[1]],
            "subalgebra_gens": [[torus.serialize_scalar(c) for c in g]
                                for g in fd.subalgebra_gens],
        })
        return EXIT_OK
    if args.torus_cmd == "classify":
        a = torus.parse_scalar(args.a)
        b = torus.parse_scalar(args.b)
        d = torus.classify_direction(a, b, height=args.height,
                                     infinite_slope=args.infinite)
        _emit(args, {
            "case": d.case_tag.value,
            "slope_point": list(d.slope_point) if d.slope_point else None,
            "recovered_tuple": ([d.recovered.m, d.recovered.n,
                                 d.recovered.m_prime, d.recovered.n_prime,
                                 d.recovered.p, d.recovered.q]
                                if d.recovered else None),
            "note": d.closure_note,
        })
        return EXIT_OK
    raise ValidationError(f"unknown torus subcommand {args.torus_cmd!r}")


def cmd_lie(args):
    if args.lie_cmd == "closure":
        base = lie.flag_base(args.n) if args.base == "flag" \
            else lie.hopf_base(args.n)
        spec = _load_json_arg(args.gens)
        mats = spec["matrices"] if isinstance(spec, dict) else spec
        gens = [matrix_from_spec(mrows) for mrows in mats]
        P = lie.parabolic_closure(gens, base)
        payload = {"n": args.n, "base": args.base,
                   "dim": P.dim_complex}
        if args.base == "flag":
            payload["composition"] = list(lie.extract_composition(P).parts)
        _emit(args, payload)
        return EXIT_OK
    if args.lie_cmd == "tangent":
        X = matrix_from_spec(_load_json_arg(args.matrix))
        tang = lie.flag_tangent(X)
        _emit(args, {"n": X.n,
                     "tangent": [[str(t.re), str(t.im)] for t in tang]})
        return EXIT_OK
    if args.lie_cmd == "spanning":
        if args.grassmann:
            p, q = args.grassmann
            X = lie.random_lower_block(p, q, random.Random(0), 3, lead=1)
            rank = lie.grassmann_spanning_rank(
                p, q, X, K=args.K if args.K else None)
            _emit(args, {"p": p, "q": q, "rank": rank, "full": rank == p * q})
            return EXIT_OK
        if args.flag:
            n = args.flag
            rng = random.Random(0)
            X = lie.SquareMatrix.elementary(n, 2, 1)
            from .exactalg import exact_rank
            vecs = [list(lie.conjugated_tangent(
                lie.random_upper_triangular(n, rng, 3), X))
                for _ in range(100)]
            rank = exact_rank(vecs)
            _emit(args, {"n": n, "rank": rank, "max_possible": n * (n - 1) // 2,
                         "spanning": rank == n * (n - 1) // 2})
            return EXIT_OK
        raise ValidationError("spanning needs --grassmann p q or --flag n")
    if args.lie_cmd == "hopf":
        rep = lie.hopf_closure_report(args.n)
        _emit(args, {"n": args.n, "dim_x0": rep.x0.dim_complex,
                     "dim_escape": rep.escape.dim_complex,
                     "verdict": rep.verdict})
        return EXIT_OK
    raise ValidationError(f"unknown lie subcommand {args.lie_cmd!r}")


def cmd_selftest(args):
    from .acceptance import run_all
    return EXIT_OK if run_all() else EXIT_CONTRACT


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser():
    ap = argparse.ArgumentParser(prog="robinlab", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("green", help="solve a c-Green problem")
    g.add_argument("--domain", required=True, help="domain JSON file")
    g.add_argument("--grid", type=int, default=32)
    g.add_argument("--pole", required=True, help="comma-separated coordinates")
    g.add_argument("--c", type=float, default=0.0)
    g.add_argument("--out")
    g.set_defaults(func=cmd_green)

    v = sub.add_parser("variation", help="second variation report")
    v.add_argument("--family", required=True)
    v.add_argument("--t0", default="0,0")
    v.add_argument("--ht", type=float, default=None)
    v.add_argument("--grid", type=int, default=32)
    v.add_argument("--out")
    v.set_defaults(func=cmd_variation)

    lv = sub.add_parser("levi", help="pointwise curvature quantities")
    lv.add_argument("--metric", required=True)
    lv.add_argument("--domain", required=True)
    lv.add_argument("--t", default="0,0")
    lv.add_argument("--z", required=True)
    lv.add_argument("--out")
    lv.set_defaults(func=cmd_levi)

    t = sub.add_parser("torus", help="exact torus-foliation data")
    tsub = t.add_subparsers(dest="torus_cmd", required=True)
    tf = tsub.add_parser("from-tuple")
    tf.add_argument("ints", type=int, nargs=6, metavar="I")
    tf.add_argument("--out")
    tf.set_defaults(func=cmd_torus)
    tl = tsub.add_parser("foliation")
    tl.add_argument("ints", type=int, nargs=6, metavar="I")
    tl.add_argument("--out")
    tl.set_defaults(func=cmd_torus)
    tc = tsub.add_parser("classify")
    tc.add_argument("--a", required=True)
    tc.add_argument("--b", required=True)
    tc.add_argument("--height", type=int, default=50)
    tc.add_argument("--infinite", action="store_true")
    tc.add_argument("--out")
    tc.set_defaults(func=cmd_torus)

    l = sub.add_parser("lie", help="matrix Lie-algebra computations")
    lsub = l.add_subparsers(dest="lie_cmd", required=True)
    lc = lsub.add_parser("closure")
    lc.add_argument("--n", type=int, required=True)
    lc.add_argument("--base", choices=["flag", "hopf"], default="flag")
    lc.add_argument("--gens", required=True)
    lc.add_argument("--out")
    lc.set_defaults(func=cmd_lie)
    lt = lsub.add_parser("tangent")
    lt.add_argument("--n", type=int)
    lt.add_argument("--matrix", required=True)
    lt.add_argument("--out")
    lt.set_defaults(func=cmd_lie)
    ls = lsub.add_parser("spanning")
    ls.add_argument("--grassmann", type=int, nargs=2, metavar=("P", "Q"))
    ls.add_argument("--flag", type=int)
    ls.add_argument("--K", type=int, default=0)
    ls.add_argument("--out")
    ls.set_defaults(func=cmd_lie)
    lh = lsub.add_parser("hopf")
    lh.add_argument("--n", type=int, required=True)
    lh.add_argument("--out")
    lh.set_defaults(func=cmd_lie)

    st = sub.add_parser("selftest", help="run the acceptance suite")
    st.set_defaults(func=cmd_selftest)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NonconvergentSolver as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except AssertionError as exc:
        print(f"exact-arithmetic contract violation: {exc}", file=sys.stderr)
        return EXIT_CONTRACT
    except (ValidationError, OSError, KeyError, ValueError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except RobinlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
