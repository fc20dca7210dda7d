"""Finite-difference solver for c-Green functions and Robin constants on
gridded domains in C^n (Euclidean background metric), n = 1 or 2.

The regular part u = g - Q0 is solved for, so the pole singularity never
enters the linear system:  Delta u + c u = -c Q0  in D,  u = -Q0  on dD,
with Q0 = |x - x0|^(2-2n) for n >= 2 and -log|x - x0| for n = 1.  In the
metric convention used throughout (Delta = -1/2 Delta_R), the discrete system
is  -Delta_R u + 2 c u = -2 c Q0.

Discretization: cut-cell stencil on a uniform grid.  Boundary crossings are
located along grid edges on the dyadic grid of 2^-40 (cut fraction theta, the
midpoint of the grid cell where psi turns nonnegative; wherever psi changes
sign once along the edge this is the theta of 40 bisection steps); the exterior
neighbor value is eliminated by linear extrapolation through the cut point,
u_ghost = u_b/theta - (1-theta)/theta u_i, which keeps every interior-interior
coupling at the standard -1/h^2 value.  The matrix is therefore symmetric
positive definite (conjugate gradients apply directly) while the Dirichlet
data still enters at the located boundary points, and lambda = u(pole), an
interior functional, converges at second order on smooth domains.  (The
classical one-sided-arm variant of the stencil is not symmetric; averaging it
with its transpose was measured to destroy consistency, which is why the
extrapolation form is used.)
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.ndimage
import scipy.sparse
import scipy.sparse.linalg

from .errors import (NegativeC, NonconvergentSolver, PoleTooCloseToBoundary,
                     StencilOutOfRange, ValidationError)

BISECT_ITERS = 40          # cut fractions on the grid of 2^-40 ~ 1e-12 relative:
                          # below the 1e-10*h target
CUT_SLACK = 6             # rounds the cut search may take beyond bisection's
THETA_MIN = 1e-8
POLE_MARGIN_CELLS = 3


def worker_count() -> int:
    """Thread cap from ROBIN_THREADS, defaulting to machine parallelism."""
    env = os.environ.get("ROBIN_THREADS")
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# fundamental solution
# ---------------------------------------------------------------------------

def fundamental_solution(n: int, points, pole) -> np.ndarray:
    """Q0 at real-coordinate points: r^(2-2n) for n >= 2, -log r for n = 1."""
    pts = np.asarray(points, dtype=float)
    r = np.sqrt(np.sum((pts - np.asarray(pole, dtype=float)) ** 2, axis=-1))
    if n == 1:
        return -np.log(r)
    return r ** (2 - 2 * n)


def real_to_complex(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return x[..., 0::2] + 1j * x[..., 1::2]


def complex_to_real(z) -> np.ndarray:
    z = np.asarray(z, dtype=complex)
    out = np.empty(z.shape[:-1] + (2 * z.shape[-1],), dtype=float)
    out[..., 0::2] = z.real
    out[..., 1::2] = z.imag
    return out


# ---------------------------------------------------------------------------
# grid domain
# ---------------------------------------------------------------------------

class GridDomain:
    """Uniform grid over a box in R^(2n) masked by a defining function.

    `psi` is a vectorized callable on real-coordinate arrays (..., 2n); the
    domain is the connected component of {psi < 0} containing the pole.
    """

    def __init__(self, n: int, psi: Callable, box_lo, box_hi,
                 nodes_per_axis: int, pole):
        if n not in (1, 2):
            raise ValidationError("numeric solver supports n = 1 and n = 2")
        self.n = n
        self.dim = 2 * n
        self.psi = psi
        self.m = int(nodes_per_axis)
        if self.m < 8:
            raise ValidationError("need at least 8 nodes per axis")
        self.box_lo = np.asarray(box_lo, dtype=float)
        self.box_hi = np.asarray(box_hi, dtype=float)
        self.pole = np.asarray(pole, dtype=float)
        if self.pole.shape != (self.dim,):
            raise ValidationError(f"pole must have {self.dim} real coordinates")
        self.axes = [np.linspace(self.box_lo[d], self.box_hi[d], self.m)
                     for d in range(self.dim)]
        self.h = np.array([ax[1] - ax[0] for ax in self.axes])
        self._build_mask()
        self._build_arms()
        self._check_pole_margin()

    # -- constructors ---------------------------------------------------------
    @classmethod
    def ball(cls, n: int, radius: float = 1.0, nodes_per_axis: int = 32,
             pole=None, center=None, pad: float = 0.06):
        dim = 2 * n
        c = np.zeros(dim) if center is None else np.asarray(center, dtype=float)

        def psi(x):
            return np.sum((np.asarray(x, dtype=float) - c) ** 2, axis=-1) - radius ** 2

        lo = c - radius * (1 + pad)
        hi = c + radius * (1 + pad)
        pole = c if pole is None else np.asarray(pole, dtype=float)
        return cls(n, psi, lo, hi, nodes_per_axis, pole)

    # -- geometry -------------------------------------------------------------
    def grid_points(self):
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.stack(mesh, axis=-1)

    def _build_mask(self):
        pts = self.grid_points()
        self.psi_grid = np.asarray(self.psi(pts), dtype=float)
        if self.psi_grid.shape != (self.m,) * self.dim:
            raise ValidationError("psi did not evaluate vectorized on the grid")
        inside = self.psi_grid < 0.0
        labels, _ = scipy.ndimage.label(
            inside, structure=scipy.ndimage.generate_binary_structure(self.dim, 1))
        pole_idx = tuple(int(np.argmin(np.abs(ax - p)))
                         for ax, p in zip(self.axes, self.pole))
        pole_label = labels[pole_idx]
        if pole_label == 0:
            raise ValidationError("pole is not inside {psi < 0}")
        self.interior = labels == pole_label
        self.pole_node = pole_idx
        # the domain must stay clear of the bounding box
        for d in range(self.dim):
            face = [slice(None)] * self.dim
            for edge in (0, -1):
                face[d] = edge
                if bool(np.any(self.interior[tuple(face)])):
                    raise ValidationError("domain touches the bounding box; "
                                          "enlarge the box")
        self.idx = -np.ones((self.m,) * self.dim, dtype=np.int64)
        self.idx[self.interior] = np.arange(int(self.interior.sum()))
        self.n_interior = int(self.interior.sum())
        self.interior_points = self.points_at(np.flatnonzero(self.interior))

    def points_at(self, flat) -> np.ndarray:
        """Grid points at flat (C-order) node indices: the values of
        grid_points() without building the full array."""
        ijk = np.unravel_index(flat, (self.m,) * self.dim)
        return np.stack([ax[i] for ax, i in zip(self.axes, ijk)], axis=-1)

    def _build_arms(self):
        """Locate psi = 0 along every interior->exterior grid edge, all
        (axis, side) pairs in one search.

        arms[(d, side)] = (interior flat indices, theta in (0,1], cut points)
        """
        self._strides = [self.m ** (self.dim - 1 - d) for d in range(self.dim)]
        keys, srcs, dsts = [], [], []
        for d in range(self.dim):
            for side in (+1, -1):
                src = np.flatnonzero(self.interior
                                     & ~_shift(self.interior, -side, d))
                keys.append((d, side))
                srcs.append(src)
                dsts.append(src + side * self._strides[d])
        src_all = np.concatenate(srcs)
        dst_all = np.concatenate(dsts)
        a = self.points_at(src_all)
        b = self.points_at(dst_all)
        psi_flat = self.psi_grid.reshape(-1)
        theta, self.cut_psi_points, self.cut_bisection_steps = _cut_theta(
            self.psi, a, b, psi_flat[src_all], psi_flat[dst_all])
        cutpts = a + theta[:, None] * (b - a)
        theta = np.maximum(theta, THETA_MIN)
        self.arms = {}
        start = 0
        for key, src in zip(keys, srcs):
            part = slice(start, start + len(src))
            self.arms[key] = (src, theta[part], cutpts[part])
            start += len(src)

    def _check_pole_margin(self):
        self.require_pole_ok(self.pole)

    def require_pole_ok(self, pole):
        """Every node within POLE_MARGIN_CELLS * h (Euclidean) of the pole
        must be interior; raises PoleTooCloseToBoundary otherwise."""
        pole = np.asarray(pole, dtype=float)
        node = tuple(int(np.argmin(np.abs(ax - p)))
                     for ax, p in zip(self.axes, pole))
        rad = POLE_MARGIN_CELLS
        radius = rad * float(np.max(self.h))
        lo, hi = [], []
        for d in range(self.dim):
            span = int(np.ceil(radius / self.h[d]))
            if node[d] - span < 0 or node[d] + span >= self.m:
                raise PoleTooCloseToBoundary("pole margin leaves the grid")
            lo.append(node[d] - span)
            hi.append(node[d] + span + 1)
        block = self.interior[tuple(slice(a, b) for a, b in zip(lo, hi))]
        offsets = np.stack(np.meshgrid(
            *[(np.arange(lo[d], hi[d]) * self.h[d] + self.axes[d][0]) - pole[d]
              for d in range(self.dim)], indexing="ij"), axis=-1)
        within = np.sum(offsets ** 2, axis=-1) <= radius ** 2
        if not bool(np.all(block[within])):
            raise PoleTooCloseToBoundary(
                f"nodes within {rad} cells of pole {pole} are not all interior")

    def control_volumes(self) -> np.ndarray:
        """Cut control volume per interior node: prod over axes of
        (min(h/2, theta+ h) + min(h/2, theta- h)).

        The cap at h/2 drops the gap between h/2 and the boundary on arms
        with theta > 1/2, so the volumes sum to |D| (1 - O(h)), first order:
        on the translated unit ball's grid, sum / |B^4| = 0.916, 0.937, 0.949,
        0.958 at 24, 32, 40, 48 nodes per axis (ROADMAP item 1)."""
        idx_flat = self.idx.reshape(-1)
        vol = np.ones(self.n_interior)
        for d in range(self.dim):
            half = 0.5 * self.h[d]
            e = {}
            for side in (+1, -1):
                arr = np.full(self.n_interior, half)
                src, theta, _ = self.arms[(d, side)]
                if len(src):
                    arr[idx_flat[src]] = np.minimum(half, theta * self.h[d])
                e[side] = arr
            vol *= e[+1] + e[-1]
        return vol

    # -- operator assembly ------------------------------------------------------
    def assemble(self, c_values: Optional[np.ndarray] = None):
        """Symmetric positive definite matrix for -Delta_R + 2c with Dirichlet
        data at the cut points; returns (A, bfaces).

        bfaces lists (interior indices, weights, cut points); the weights
        multiply the boundary values in the right-hand side, which solve_green
        builds because it depends on the pole.
        """
        N = self.n_interior
        idx_flat = self.idx.reshape(-1)
        rows, cols, vals = [], [], []
        diag = np.zeros(N)
        bfaces = []
        for d in range(self.dim):
            ih2 = 1.0 / self.h[d] ** 2
            for side in (+1, -1):
                src = np.flatnonzero(self.interior
                                     & _shift(self.interior, -side, d))
                if len(src):
                    i = idx_flat[src]
                    j = idx_flat[src + side * self._strides[d]]
                    rows.append(i)
                    cols.append(j)
                    vals.append(np.full(len(i), -ih2))
                    np.add.at(diag, i, ih2)
                srcb, theta, cutpts = self.arms[(d, side)]
                if len(srcb):
                    ib = idx_flat[srcb]
                    w = ih2 / theta
                    np.add.at(diag, ib, w)
                    bfaces.append((ib, w, cutpts))
        if c_values is not None:
            diag = diag + 2.0 * c_values
        rows.append(np.arange(N))
        cols.append(np.arange(N))
        vals.append(diag)
        A = scipy.sparse.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(N, N))
        return A, bfaces


def _shift(arr: np.ndarray, k: int, axis: int) -> np.ndarray:
    """arr moved k places along axis, out[..., i, ...] = arr[..., i - k, ...];
    entries moved in from beyond the face are False (bool) or NaN."""
    out = np.roll(arr, k, axis=axis)
    face = [slice(None)] * arr.ndim
    face[axis] = slice(0, k) if k > 0 else slice(arr.shape[axis] + k, None)
    out[tuple(face)] = False if arr.dtype == bool else np.nan
    return out


def _bisect_theta(psi, a, b, iters=BISECT_ITERS):
    """Vectorized bisection for psi = 0 on segments a -> b (psi(a) < 0 <= psi(b))."""
    lo = np.zeros(len(a))
    hi = np.ones(len(a))
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        val = np.asarray(psi(a + mid[:, None] * (b - a)), dtype=float)
        neg = val < 0.0
        lo = np.where(neg, mid, lo)
        hi = np.where(neg, hi, mid)
    return 0.5 * (lo + hi)


def _cut_theta(psi, a, b, fa, fb):
    """Cut fractions on segments a -> b, given fa = psi(a) and fb = psi(b).

    The search runs on the points x = k 2^-BISECT_ITERS, where psi is
    evaluated as psi(a + x (b - a)), exactly as `_bisect_theta` evaluates
    it, and x = 0 counts as negative and x = 1 as nonnegative whatever
    psi(a), psi(b) are.  It keeps a bracket [lo, hi] of such points, lo
    negative and hi nonnegative, and stops when hi = lo + 1; theta is the
    midpoint of that cell.  Where psi changes sign once along the segment
    that cell is the one bisection ends in, so theta equals
    `_bisect_theta(psi, a, b)` bit for bit.

    Each step evaluates the grid point nearest the root of the quadratic
    through the bracket ends and the end it last replaced (the secant when
    that quadratic is unusable), clamped inside the bracket.  The step is
    projected towards the bracket midpoint as in ITP (Oliveira & Takahashi,
    ACM TOMS 47, 2021), so no segment takes more than BISECT_ITERS +
    CUT_SLACK evaluations.  An end whose sign contradicts its role keeps the
    role but not its value, so an edge whose far end is negative (its
    neighbour lies in another component of {psi < 0}) starts with bisection
    steps.

    Returns (theta, psi points evaluated, bisection steps: steps that took
    the midpoint, or were pulled towards it, because the interpolation was
    unusable or converging too slowly).
    """
    n = len(a)
    n_max = BISECT_ITERS + CUT_SLACK
    lo = np.zeros(n, dtype=np.int64)
    hi = np.full(n, 1 << BISECT_ITERS, dtype=np.int64)
    flo = np.where(fa < 0.0, fa, np.nan)
    fhi = np.where(fb >= 0.0, fb, np.nan)
    # third point of the quadratic: the bracket end replaced last
    kc = np.zeros(n, dtype=np.int64)
    fc = np.full(n, np.nan)
    d = b - a
    act = np.arange(n)
    points = guarded = 0
    # every bracket is at most 2^(n_max - j) cells wide before step j, so
    # all of them are closed after n_max steps
    for j in range(n_max):
        if len(act) == 0:
            break
        base, top = lo[act], hi[act]
        fl, fh = flo[act], fhi[act]
        w = (top - base).astype(float)
        c = (kc[act] - base).astype(float)
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            # p(u) = fl + s u + B u (u - w) through (0, fl), (w, fh), (c, fc)
            s = (fh - fl) / w
            B = ((fc[act] - fl) / c - s) / (c - w)
            q = s - B * w
            u = -2.0 * fl / (q + np.sqrt(q * q - 4.0 * B * fl))
            u = np.where((u > 0.0) & (u < w), u, fl / (fl - fh) * w)
        usable = np.isfinite(u)
        u = np.where(usable, u, 0.5 * w)
        r = 2.0 ** (n_max - j - 1) - 0.5 * w
        step = np.clip(u, 0.5 * w - r, 0.5 * w + r)
        guarded += int(np.count_nonzero(~usable | (step != u)))
        k = base + np.clip(np.rint(step).astype(np.int64), 1, top - base - 1)
        x = k * 2.0 ** -BISECT_ITERS
        val = np.asarray(psi(a[act] + x[:, None] * d[act]), dtype=float)
        points += len(act)
        neg = val < 0.0
        kc[act] = np.where(neg, base, top)
        fc[act] = np.where(neg, fl, fh)
        lo[act] = np.where(neg, k, base)
        hi[act] = np.where(neg, top, k)
        flo[act] = np.where(neg, val, fl)
        fhi[act] = np.where(neg, fh, val)
        act = act[hi[act] - lo[act] > 1]
    theta = (lo + 0.5) * 2.0 ** -BISECT_ITERS
    return theta, points, guarded


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

@dataclass
class GreenField:
    """Solution of one c-Green solve: regular part, Robin constant, residual."""

    domain: GridDomain
    u: np.ndarray                  # per interior node
    lam: float                     # Robin constant = u interpolated at the pole
    pole: np.ndarray
    c_values: Optional[np.ndarray]
    residual: float
    iterations: int

    @property
    def q0(self) -> np.ndarray:
        return fundamental_solution(self.domain.n, self.domain.interior_points,
                                    self.pole)

    @property
    def g(self) -> np.ndarray:
        """Green function values g = Q0 + u on interior nodes."""
        return self.q0 + self.u

    def u_grid(self) -> np.ndarray:
        """u on the full grid, NaN outside the interior."""
        out = np.full((self.domain.m,) * self.domain.dim, np.nan)
        out[self.domain.interior] = self.u
        return out

    def min_g(self) -> float:
        return float(np.min(self.g))

    def interp_u(self, point) -> float:
        """u at an interior point: quadratic least-squares fit on the 3^dim
        node neighborhood (u is smooth near the pole; the 3-cell margin
        guarantees the stencil), falling back to multilinear at the rim."""
        p = np.asarray(point, dtype=float)
        try:
            return _quadratic_interp(self.domain, self.u, p)
        except StencilOutOfRange:
            return _multilinear(self.domain, self.u, p)

    def interp_g(self, point) -> float:
        p = np.asarray(point, dtype=float)
        return self.interp_u(p) + float(
            fundamental_solution(self.domain.n, p, self.pole))


def _quadratic_interp(domain: GridDomain, values: np.ndarray,
                      point: np.ndarray) -> float:
    """Least-squares quadratic on the 3^dim nodes around the nearest node;
    exact for quadratics, so the O(h^2) kink of multilinear interpolation
    never pollutes grid-convergence studies of lambda."""
    dim = domain.dim
    center = []
    for d in range(dim):
        i = int(np.clip(round((point[d] - domain.axes[d][0]) / domain.h[d]),
                        1, domain.m - 2))
        center.append(i)
    offsets = np.stack(np.meshgrid(*([np.arange(-1, 2)] * dim), indexing="ij"),
                       axis=-1).reshape(-1, dim)
    nodes = offsets + np.asarray(center)
    vals = []
    rows = []
    xi0 = np.array([(point[d] - domain.axes[d][center[d]]) / domain.h[d]
                    for d in range(dim)])
    for node in nodes:
        k = domain.idx[tuple(node)]
        if k < 0:
            raise StencilOutOfRange("quadratic stencil leaves the interior")
        vals.append(values[k])
        xi = node - np.asarray(center)
        rows.append(_quad_basis(xi))
    coef, *_ = np.linalg.lstsq(np.asarray(rows, dtype=float),
                               np.asarray(vals), rcond=None)
    return float(np.dot(_quad_basis(xi0), coef))


def _quad_basis(xi):
    out = [1.0]
    dim = len(xi)
    out.extend(xi[d] for d in range(dim))
    for d in range(dim):
        for e in range(d, dim):
            out.append(xi[d] * xi[e])
    return np.asarray(out, dtype=float)


def _multilinear(domain: GridDomain, values: np.ndarray, point: np.ndarray) -> float:
    """Multilinear interpolation of an interior-node field at a point."""
    base = []
    frac = []
    for d in range(domain.dim):
        ax = domain.axes[d]
        t = (point[d] - ax[0]) / domain.h[d]
        i = int(np.clip(np.floor(t), 0, domain.m - 2))
        base.append(i)
        frac.append(t - i)
    total = 0.0
    for corner in range(2 ** domain.dim):
        w = 1.0
        node = []
        for d in range(domain.dim):
            bit = (corner >> d) & 1
            node.append(base[d] + bit)
            w *= frac[d] if bit else (1.0 - frac[d])
        if w == 0.0:
            continue
        k = domain.idx[tuple(node)]
        if k < 0:
            raise StencilOutOfRange(
                f"interpolation corner {node} is not interior")
        total += w * values[k]
    return total


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------

def _c_on_nodes(domain: GridDomain, c_spec) -> Optional[np.ndarray]:
    if c_spec is None:
        return None
    if np.isscalar(c_spec):
        cv = float(c_spec)
        if cv < 0:
            raise NegativeC(f"c = {cv} < 0")
        if cv == 0.0:
            return None
        return np.full(domain.n_interior, cv)
    vals = np.asarray(c_spec(domain.interior_points), dtype=float)
    if vals.min() < 0:
        raise NegativeC(f"min c = {vals.min():g} < 0")
    return vals


def solve_green(domain: GridDomain, c_spec=None, pole=None,
                rtol: float = 1e-9) -> GreenField:
    """Solve for the regular part u on the domain; lambda = u(pole).

    `c_spec` is None / nonnegative scalar / vectorized callable; `pole`
    defaults to the domain's pole and may be moved anywhere satisfying the
    3-cell interior margin.
    """
    pole = domain.pole if pole is None else np.asarray(pole, dtype=float)
    domain.require_pole_ok(pole)
    c_values = _c_on_nodes(domain, c_spec)
    key = (id(c_spec), None if c_values is None else c_values.tobytes()[:64])
    cached = getattr(domain, "_sys_cache", None)
    if cached is not None and cached[0] == key:
        A, bfaces = cached[1]
    else:
        A, bfaces = domain.assemble(c_values)
        domain._sys_cache = (key, (A, bfaces))

    rhs = np.zeros(domain.n_interior)
    for i, w, cutpts in bfaces:
        np.add.at(rhs, i, w * (-fundamental_solution(domain.n, cutpts, pole)))
    if c_values is not None:
        q0 = fundamental_solution(domain.n, domain.interior_points, pole)
        rhs += -2.0 * c_values * q0

    dinv = 1.0 / A.diagonal()
    M = scipy.sparse.linalg.LinearOperator(A.shape, matvec=lambda x: dinv * x)
    cap = int(50 * math.sqrt(domain.dim) * domain.m)
    iters = [0]

    def count(_):
        iters[0] += 1

    u, info = scipy.sparse.linalg.cg(A, rhs, rtol=rtol, atol=0.0,
                                     maxiter=cap, M=M, callback=count)
    if info > 0:
        raise NonconvergentSolver(f"CG hit the {cap}-iteration cap")
    if info < 0:
        raise NonconvergentSolver(f"CG failed with status {info}")
    res = float(np.linalg.norm(A @ u - rhs) / max(np.linalg.norm(rhs), 1e-300))
    fld = GreenField(domain=domain, u=u, lam=0.0, pole=pole,
                     c_values=c_values, residual=res, iterations=iters[0])
    fld.lam = fld.interp_u(pole)
    return fld


# ---------------------------------------------------------------------------
# Robin function over pole positions
# ---------------------------------------------------------------------------

@dataclass
class RobinFunctionField:
    """Robin constant as a function of the pole over a sample set."""

    domain: GridDomain
    poles: np.ndarray              # (k, 2n) real coordinates
    Lambda: np.ndarray             # (k,)
    c_spec: object = None
    _fn: Optional[Callable] = None  # synthetic Lambda(z) override for tests

    def lambda_at(self, point) -> float:
        p = np.asarray(point, dtype=float)
        if self._fn is not None:
            return float(self._fn(p))
        return solve_green(self.domain, self.c_spec, pole=p).lam

    @classmethod
    def from_function(cls, fn, n: int):
        """Synthetic field backed by a callable on real coordinates."""
        return cls(domain=None, poles=np.empty((0, 2 * n)),
                   Lambda=np.empty(0), _fn=fn)

    @property
    def n(self) -> int:
        if self.domain is not None:
            return self.domain.n
        return self.poles.shape[1] // 2

    def to_csv(self) -> str:
        dim = 2 * self.n
        header = ",".join(f"x{i + 1}" for i in range(dim)) + ",Lambda"
        lines = [header]
        for p, lam in zip(self.poles, self.Lambda):
            lines.append(",".join(format(v, ".17g") for v in p)
                         + "," + format(lam, ".17g"))
        return "\n".join(lines) + "\n"

    # -- complex Hessian of -Lambda -------------------------------------------
    def hessian_at(self, z, h_t: Optional[float] = None) -> np.ndarray:
        """Complex Hessian H[a, b] = d^2(-Lambda)/(dz_a dzbar_b) at pole z.

        Each directional second derivative d^2/(dt dtbar) along v uses the
        identity (1/4)(D^2_{t1} + D^2_{t2}) with 5-point one-dimensional
        stencils of step h_t; off-diagonal entries come from sesquilinear
        polarization over the directions e_a +- e_b and e_a +- i e_b.
        """
        n = self.n
        z = np.asarray(z, dtype=complex)
        if h_t is None:
            h_t = self._default_ht(z)
        H = np.empty((n, n), dtype=complex)
        cache: dict = {}
        for a in range(n):
            H[a, a] = self._dir_laplacian(z, _unit(n, a), h_t, cache)
        for a in range(n):
            for b in range(n):
                if a == b:
                    continue
                ea, eb = _unit(n, a), _unit(n, b)
                lpp = self._dir_laplacian(z, ea + eb, h_t, cache)
                lpm = self._dir_laplacian(z, ea - eb, h_t, cache)
                lip = self._dir_laplacian(z, ea + 1j * eb, h_t, cache)
                lim = self._dir_laplacian(z, ea - 1j * eb, h_t, cache)
                # independent for (a,b) and (b,a): the Hermiticity defect
                # stays a real finite-difference diagnostic
                H[a, b] = 0.25 * (lpp - lpm) + 0.25j * (lip - lim)
        return -H      # Hessian of minus Lambda

    def _default_ht(self, z):
        if self.domain is None:
            return 0.05
        # 0.05 times the pole-to-boundary distance, probed along the axes
        x = complex_to_real(z[None, :])[0]
        dist = _distance_to_boundary(self.domain, x)
        return 0.05 * dist

    def _dir_laplacian(self, z, v, h_t, cache) -> float:
        """(1/4)(D^2_{t1} + D^2_{t2}) of Lambda(z + t v) at t = 0."""
        v = np.asarray(v, dtype=complex)

        def lam(t: complex) -> float:
            p = complex_to_real((z + t * v)[None, :])[0]
            key = tuple(np.round(p, 12))
            if key not in cache:
                cache[key] = self.lambda_at(p)
            return cache[key]

        out = 0.0
        for direction in (1.0, 1.0j):
            f = [lam(direction * k * h_t) for k in (-2, -1, 0, 1, 2)]
            out += (-f[0] + 16 * f[1] - 30 * f[2] + 16 * f[3] - f[4]) / (12 * h_t ** 2)
        return 0.25 * out


def _unit(n, a):
    e = np.zeros(n, dtype=complex)
    e[a] = 1.0
    return e


def _distance_to_boundary(domain: GridDomain, x: np.ndarray) -> float:
    """Distance from x to {psi = 0} along the 4n axis rays of length span
    (the box's widest side), on the cut search's grid of span 2^-40; rays
    whose far end lies in {psi < 0} are skipped."""
    span = float(np.max(domain.box_hi - domain.box_lo))
    a = np.tile(np.asarray(x, dtype=float), (2 * domain.dim, 1))
    b = a + span * np.concatenate([np.eye(domain.dim), -np.eye(domain.dim)])
    fb = np.asarray(domain.psi(b), dtype=float)
    ray = fb >= 0.0
    if not np.any(ray):
        raise ValidationError("no boundary found along the axis rays")
    fa = np.asarray(domain.psi(a[ray]), dtype=float)
    theta, _, _ = _cut_theta(domain.psi, a[ray], b[ray], fa, fb[ray])
    return span * float(np.min(theta))


def robin_function(domain: GridDomain, poles, c_spec=None) -> RobinFunctionField:
    """Lambda(z) over a list of poles via repeated solves on one domain."""
    poles = np.asarray(poles, dtype=float)
    if poles.ndim == 1:
        poles = poles[None, :]
    lam = np.array([solve_green(domain, c_spec, pole=p).lam for p in poles])
    return RobinFunctionField(domain=domain, poles=poles, Lambda=lam,
                              c_spec=c_spec)


def hessian_flat_directions(fld: RobinFunctionField, z, tol_eig: float,
                            h_t: Optional[float] = None):
    """Eigen-decomposition of the Hessian of -Lambda at z; eigenpairs with
    eigenvalue below tol_eig are the flat directions."""
    H = fld.hessian_at(z, h_t=h_t)
    scale = max(1.0, float(np.max(np.abs(H))))
    herm_defect = float(np.max(np.abs(H - H.conj().T)))
    if herm_defect > 1e-4 * scale:
        raise ValidationError(
            f"Hessian is not Hermitian within noise: defect {herm_defect:g}")
    Hh = 0.5 * (H + H.conj().T)
    w, V = np.linalg.eigh(Hh)
    flats = [(float(w[k]), V[:, k]) for k in range(len(w)) if w[k] < tol_eig]
    return w, V, flats
