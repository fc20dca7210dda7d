"""Layer tracing from outside the program.

The tracer replaces named program entry points with timing or counting
wrappers for the length of a traced pass and puts the originals back
afterwards; robinlab itself is not modified.  Where a layer has no public
entry point, a named private helper is wrapped instead.  A name that no
longer exists is recorded as absent and the metrics that depend on it are
left out of the report rather than failing the run.

Spans are kept in memory (name, thread, start, end, parent) and written out
when the run ends.  A span's self time is its duration minus the time of
the spans it encloses on the same thread.  Top-level spans on threads other
than the main one are the concurrent stencil solves of a variation check;
their summed durations are the stencil's busy time.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict

# span name -> "module:attribute path" of the wrapped callable
SPANS = {
    "green.domain_build": "robinlab.green:GridDomain.__init__",
    "green.mask": "robinlab.green:GridDomain._build_mask",
    "green.arms": "robinlab.green:GridDomain._build_arms",
    "green.assemble": "robinlab.green:GridDomain.assemble",
    "green.solve": "robinlab.green:solve_green",
    "green.cg": "scipy.sparse.linalg:cg",
    "green.interp": "robinlab.green:GreenField.interp_u",
    "green.hessian": "robinlab.green:RobinFunctionField.hessian_at",
    "variation.check": "robinlab.variation:second_variation_check",
    "variation.stencil": "robinlab.variation:_stencil_solves",
    "variation.boundary_quadrature": "robinlab.variation:_boundary_quadrature",
    "variation.normal_derivative": "robinlab.variation:_normal_derivative_sq",
    "variation.volume_terms": "robinlab.variation:_volume_terms",
    "exactalg.rref": "robinlab.exactalg:rref",
    "torus.foliation": "robinlab.torus:foliation_data",
    "torus.classify": "robinlab.torus:classify_direction",
    "lie.closure": "robinlab.lie:parabolic_closure",
    "lie.hopf": "robinlab.lie:hopf_closure_report",
    "lie.rank": "robinlab.lie:grassmann_spanning_rank",
}

# count-only wrappers: hook name -> target
COUNTERS = {
    "bisect": "robinlab.green:_bisect_theta",
    "rf_init": "robinlab.exactalg:RationalFunction.__init__",
    "poly_gcd": "robinlab.exactalg:poly_gcd",
    "span_add": "robinlab.exactalg:Span.add",
    "bracket": "robinlab.lie:bracket",
    "bracket_elementary": "robinlab.lie:_bracket_with_elementary",
    "pairs": "robinlab.torus:_primitive_pairs",
}


def _domain_built(counts, args, kwargs, result):
    dom = args[0]
    counts["interior_nodes"] = max(counts["interior_nodes"], dom.n_interior)
    arms = sum(len(src) for src, _, _ in dom.arms.values())
    counts["cut_arms"] = max(counts["cut_arms"], arms)


def _mask_built(counts, args, kwargs, result):
    dom = args[0]
    counts["psi_points"] += dom.m ** dom.dim


def _bisected(counts, args, kwargs, result):
    iters = args[3] if len(args) > 3 else kwargs.get("iters")
    if iters is None:
        from robinlab.green import BISECT_ITERS as iters
    counts["psi_points"] += len(args[1]) * iters


def _solved(counts, args, kwargs, result):
    counts["solves"] += 1
    counts["cg_iterations"] += result.iterations


def _quadrature(counts, args, kwargs, result):
    counts["quadrature_points"] += len(result[0])


def _span_add(counts, args, kwargs, result):
    counts["span_offers"] += 1
    counts["span_growths"] += bool(result)


def _bump(key):
    def hook(counts, args, kwargs, result):
        counts[key] += 1
    return hook


HOOKS = {
    "green.domain_build": _domain_built,
    "green.mask": _mask_built,
    "green.assemble": _bump("assemblies"),
    "green.solve": _solved,
    "variation.boundary_quadrature": _quadrature,
    "bisect": _bisected,
    "rf_init": _bump("rf_constructed"),
    "poly_gcd": _bump("poly_gcd_calls"),
    "span_add": _span_add,
    "bracket": _bump("brackets"),
    "bracket_elementary": _bump("brackets"),
}

# metric -> (source kind, key, the wrapped names it needs)
METRICS = {
    "green.domain_build_s": ("self", "green.domain_build"),
    "green.mask_s": ("self", "green.mask"),
    "green.arms_s": ("self", "green.arms"),
    "green.psi_points": ("count", "psi_points", "green.mask", "bisect"),
    "green.interior_nodes": ("count", "interior_nodes", "green.domain_build"),
    "green.cut_arms": ("count", "cut_arms", "green.domain_build"),
    "green.assemble_s": ("self", "green.assemble"),
    "green.assemblies": ("count", "assemblies", "green.assemble"),
    "green.solve_s": ("self", "green.solve"),
    "green.cg_s": ("self", "green.cg"),
    "green.cg_iterations": ("count", "cg_iterations", "green.solve"),
    "green.solves": ("count", "solves", "green.solve"),
    "green.interp_s": ("self", "green.interp"),
    "green.hessian_s": ("self", "green.hessian"),
    "variation.check_s": ("self", "variation.check"),
    "variation.stencil_wall_s": ("self", "variation.stencil"),
    "variation.stencil_busy_s": ("count", "busy", "green.domain_build",
                                 "green.solve"),
    "variation.boundary_quadrature_s": ("self", "variation.boundary_quadrature"),
    "variation.quadrature_points": ("count", "quadrature_points",
                                    "variation.boundary_quadrature"),
    "variation.normal_derivative_s": ("self", "variation.normal_derivative"),
    "variation.volume_terms_s": ("self", "variation.volume_terms"),
    "exactalg.rf_constructed": ("count", "rf_constructed", "rf_init"),
    "exactalg.poly_gcd_calls": ("count", "poly_gcd_calls", "poly_gcd"),
    "exactalg.rref_s": ("self", "exactalg.rref"),
    "exactalg.span_offers": ("count", "span_offers", "span_add"),
    "exactalg.span_growths": ("count", "span_growths", "span_add"),
    "torus.foliation_s": ("self", "torus.foliation"),
    "torus.classify_s": ("self", "torus.classify"),
    "torus.pairs_scanned": ("count", "pairs_scanned", "pairs"),
    "lie.closure_s": ("self", "lie.closure"),
    "lie.brackets": ("count", "brackets", "bracket", "bracket_elementary"),
    "lie.hopf_s": ("self", "lie.hopf"),
    "lie.rank_s": ("self", "lie.rank"),
}


def _resolve(target: str):
    """(owner, attribute, original) for "module:Attr.path"; owner is the
    class for methods and the module for functions."""
    modname, path = target.split(":")
    owner = importlib.import_module(modname)
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    if parents:
        original = owner.__dict__[attr]       # not an inherited attribute
    else:
        original = getattr(owner, attr)
    return owner, attr, original


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.absent: list = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list = []
        self._main = threading.main_thread().ident
        self.reset()

    def reset(self):
        """Start a new pass: clear the self times and counts."""
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)

    # -- wrappers ---------------------------------------------------------------
    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _span_wrapper(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            frame = [next(tracer._ids), 0.0]      # span id, enclosed time
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - start
                tid = threading.get_ident()
                parent = stack[-1][0] if stack else None
                with tracer._lock:
                    tracer.self_s[name] += dur - frame[1]
                    if stack:
                        stack[-1][1] += dur
                    elif tid != tracer._main:
                        tracer.counts["busy"] += dur
                    tracer.spans.append((frame[0], name, tid, start, end, parent))
            if hook is not None:
                with tracer._lock:
                    hook(tracer.counts, args, kwargs, result)
            return result
        return wrapper

    def _count_wrapper(self, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            with tracer._lock:
                hook(tracer.counts, args, kwargs, result)
            return result
        return wrapper

    def _generator_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                tracer.counts["pairs_scanned"] += 1
                yield item
        return wrapper

    # -- install / remove -----------------------------------------------------------
    def install(self):
        for name, target in list(SPANS.items()) + list(COUNTERS.items()):
            try:
                owner, attr, original = _resolve(target)
            except (ImportError, AttributeError, KeyError):
                if name not in self.absent:
                    self.absent.append(name)
                continue
            if name in SPANS:
                wrapped = self._span_wrapper(name, original, HOOKS.get(name))
            elif name == "pairs":
                wrapped = self._generator_wrapper(original)
            else:
                wrapped = self._count_wrapper(original, HOOKS[name])
            self._patch(owner, attr, original, wrapped)

    def _patch(self, owner, attr, original, wrapped):
        owners = [owner]
        if isinstance(owner, type(sys)) and owner.__name__.startswith("robinlab"):
            # a function imported by name into other modules is rebound there
            owners += [mod for name, mod in list(sys.modules.items())
                       if name.startswith("robinlab") and mod is not owner
                       and getattr(mod, attr, None) is original]
        for o in owners:
            setattr(o, attr, wrapped)
            self._patches.append((o, attr, original))

    def remove(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- report ---------------------------------------------------------------------
    def metrics(self) -> dict:
        """Per-layer values of the current pass; metrics whose wrapped
        names are absent are left out."""
        out = {}
        for metric, (kind, key, *needs) in METRICS.items():
            needed = needs or [key]
            if any(n in self.absent for n in needed):
                continue
            if kind == "self":
                out[metric] = self.self_s.get(key, 0.0)
            else:
                out[metric] = self.counts.get(key, 0)
        return out

    def dump(self) -> list:
        return [{"id": i, "name": n, "thread": t, "start": s, "end": e,
                 "parent": p} for (i, n, t, s, e, p) in self.spans]
