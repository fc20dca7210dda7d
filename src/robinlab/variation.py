"""Both sides of the first and second variation of the Robin constant on a
parameterized family of domains, plus subharmonicity scans.

The left-hand sides are finite differences of lambda(t) over a cross stencil
of independent solves on one shared grid; the right-hand sides assemble the
boundary integral of the Levi curvature against |grad g|^2 and the volume
integral of |d(dg/dt)/dzbar|^2.  On the Euclidean background the divergence
cross terms vanish identically, so the report carries them as exact zeros.

dg/dt is obtained by differencing the regular parts u of neighboring solves
(the pole term cancels exactly since the pole is fixed); nodes whose
interior/exterior status churns across the stencil are excluded from the
volume quadrature.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import GridMismatch, ValidationError
from .geometry import DefiningFunctionSlice, DimensionalConstants
from .green import (GridDomain, GreenField, _shift, complex_to_real,
                    fundamental_solution, real_to_complex, solve_green,
                    worker_count)


# ---------------------------------------------------------------------------
# base shapes (vectorized psi0 with complex derivatives)
# ---------------------------------------------------------------------------

class BallShape:
    """psi0 = |w|^2 - R^2."""

    def __init__(self, n, radius=1.0):
        self.n = n
        self.radius = radius

    def value(self, W):
        W = np.asarray(W, dtype=complex)
        return np.sum(np.abs(W) ** 2, axis=-1) - self.radius ** 2

    def grad(self, W):              # d psi0/dw_k
        return np.conj(np.asarray(W, dtype=complex))

    def hess_mixed(self, W):        # [.., k, l] = d^2 psi0/(dw_k dwbar_l)
        W = np.asarray(W, dtype=complex)
        shape = W.shape[:-1] + (self.n, self.n)
        out = np.zeros(shape, dtype=complex)
        out[...] = np.eye(self.n)
        return out

    def bounding_radius(self):
        return self.radius


class QuarticShape:
    """psi0 = |w|^4 + (Re w_1)^4 - 1: smooth, strictly convex."""

    def __init__(self, n):
        self.n = n

    def value(self, W):
        W = np.asarray(W, dtype=complex)
        s = np.sum(np.abs(W) ** 2, axis=-1)
        return s ** 2 + W[..., 0].real ** 4 - 1.0

    def grad(self, W):
        W = np.asarray(W, dtype=complex)
        s = np.sum(np.abs(W) ** 2, axis=-1)
        out = 2.0 * s[..., None] * np.conj(W)
        out[..., 0] += 2.0 * W[..., 0].real ** 3
        return out

    def hess_mixed(self, W):
        W = np.asarray(W, dtype=complex)
        s = np.sum(np.abs(W) ** 2, axis=-1)
        n = self.n
        out = 2.0 * np.conj(W)[..., :, None] * W[..., None, :]
        out += 2.0 * s[..., None, None] * np.eye(n)
        out[..., 0, 0] += 3.0 * W[..., 0].real ** 2
        return out

    def bounding_radius(self):
        return 1.01


# ---------------------------------------------------------------------------
# domain families
# ---------------------------------------------------------------------------

class DomainFamily:
    """Family D(t) = {z : psi(t, z) < 0} over the parameter disk |t| < rho.

    Subclasses supply vectorized psi and its derivatives; `slice_at` exposes
    the same data as a DefiningFunctionSlice for the pointwise geometry
    module (useful for cross-checks).
    """

    def __init__(self, n, rho, pole, box_lo, box_hi):
        self.n = n
        self.rho = float(rho)
        self.pole = np.asarray(pole, dtype=float)
        self.box_lo = np.asarray(box_lo, dtype=float)
        self.box_hi = np.asarray(box_hi, dtype=float)

    # vectorized, Z of shape (..., n) complex
    def psi(self, t, Z):
        raise NotImplementedError

    def psi_z(self, t, Z):
        raise NotImplementedError

    def psi_t(self, t, Z):
        raise NotImplementedError

    def psi_zzbar(self, t, Z):
        raise NotImplementedError

    def psi_tzbar(self, t, Z):
        raise NotImplementedError

    def psi_ttbar(self, t, Z):
        raise NotImplementedError

    def psi_grid(self, t, X):
        return self.psi(t, real_to_complex(X))

    def domain_at(self, t, nodes_per_axis) -> GridDomain:
        return GridDomain(self.n, lambda X: self.psi_grid(t, X),
                          self.box_lo, self.box_hi, nodes_per_axis, self.pole)

    def slice_at(self) -> DefiningFunctionSlice:
        return DefiningFunctionSlice(
            self.n,
            lambda t, z: float(self.psi(t, np.asarray(z)[None, :])[0]),
            psi_z=lambda t, z: self.psi_z(t, np.asarray(z)[None, :])[0],
            psi_t=lambda t, z: complex(self.psi_t(t, np.asarray(z)[None, :])[0]),
            psi_zzbar=lambda t, z: self.psi_zzbar(t, np.asarray(z)[None, :])[0],
            psi_tzbar=lambda t, z: self.psi_tzbar(t, np.asarray(z)[None, :])[0],
            psi_ttbar=lambda t, z: float(
                np.real(self.psi_ttbar(t, np.asarray(z)[None, :])[0])),
            diameter=float(np.max(self.box_hi - self.box_lo)),
        )

    def levi_K2_many(self, t, Z):
        """Euclidean Levi scalar curvature at boundary points, vectorized.

        On the Euclidean chart the divergence term of the Laplacian vanishes
        identically, so the full and reduced forms coincide.
        """
        grad = self.psi_z(t, Z)
        S = np.sum(np.abs(grad) ** 2, axis=-1)
        pt = self.psi_t(t, Z)
        ptt = np.real(self.psi_ttbar(t, Z))
        ptz = self.psi_tzbar(t, Z)
        hess = self.psi_zzbar(t, Z)
        cross = np.sum(np.conj(grad) * np.conj(ptz), axis=-1)
        trh = np.real(np.trace(hess, axis1=-2, axis2=-1))
        num = ptt * S - 2.0 * np.real(pt * cross) + np.abs(pt) ** 2 * trh
        return num / S ** 1.5

    def levi_k1_many(self, t, Z):
        grad = self.psi_z(t, Z)
        S = np.sum(np.abs(grad) ** 2, axis=-1)
        return self.psi_t(t, Z) / np.sqrt(S)


class TranslationFamily(DomainFamily):
    """D(t) = D0 - a t: the base shape translated along the complex vector a."""

    def __init__(self, shape, direction, rho=0.5, pole=None, pad=0.08):
        n = shape.n
        a = np.asarray(direction, dtype=complex)
        reach = shape.bounding_radius() + float(np.linalg.norm(a)) * rho
        lo = -np.ones(2 * n) * reach * (1 + pad)
        hi = +np.ones(2 * n) * reach * (1 + pad)
        pole = np.zeros(2 * n) if pole is None else np.asarray(pole, float)
        super().__init__(n, rho, pole, lo, hi)
        self.shape = shape
        self.a = a

    def _w(self, t, Z):
        return np.asarray(Z, dtype=complex) - self.a * t

    def psi(self, t, Z):
        return self.shape.value(self._w(t, Z))

    def psi_z(self, t, Z):
        return self.shape.grad(self._w(t, Z))

    def psi_t(self, t, Z):
        return -np.sum(self.a * self.shape.grad(self._w(t, Z)), axis=-1)

    def psi_zzbar(self, t, Z):
        return self.shape.hess_mixed(self._w(t, Z))

    def psi_tzbar(self, t, Z):
        H = self.shape.hess_mixed(self._w(t, Z))
        # d/dzbar_b of (-sum_k a_k psi0_{w_k}) = -sum_k a_k H[k, b]
        return -np.einsum("k,...kb->...b", self.a, H)

    def psi_ttbar(self, t, Z):
        H = self.shape.hess_mixed(self._w(t, Z))
        return np.real(np.einsum("k,...kl,l->...", self.a, H, np.conj(self.a)))


class RadialFamily(DomainFamily):
    """D(t) = ball of radius R0 + Re t."""

    def __init__(self, n, base_radius=1.0, rho=0.45, pole=None, pad=0.08):
        reach = (base_radius + rho) * (1 + pad)
        pole = np.zeros(2 * n) if pole is None else np.asarray(pole, float)
        super().__init__(n, rho, pole, -np.ones(2 * n) * reach,
                         np.ones(2 * n) * reach)
        self.base_radius = base_radius

    def _R(self, t):
        return self.base_radius + complex(t).real

    def psi(self, t, Z):
        Z = np.asarray(Z, dtype=complex)
        return np.sum(np.abs(Z) ** 2, axis=-1) - self._R(t) ** 2

    def psi_z(self, t, Z):
        return np.conj(np.asarray(Z, dtype=complex))

    def psi_t(self, t, Z):
        shape = np.asarray(Z).shape[:-1]
        return np.full(shape, -self._R(t), dtype=complex)

    def psi_zzbar(self, t, Z):
        Z = np.asarray(Z, dtype=complex)
        out = np.zeros(Z.shape[:-1] + (self.n, self.n), dtype=complex)
        out[...] = np.eye(self.n)
        return out

    def psi_tzbar(self, t, Z):
        return np.zeros(np.asarray(Z).shape, dtype=complex)

    def psi_ttbar(self, t, Z):
        return np.full(np.asarray(Z).shape[:-1], -0.5)


class StaticFamily(DomainFamily):
    """D(t) = D0 for all t."""

    def __init__(self, shape, rho=0.5, pole=None, pad=0.08):
        n = shape.n
        reach = shape.bounding_radius() * (1 + pad)
        pole = np.zeros(2 * n) if pole is None else np.asarray(pole, float)
        super().__init__(n, rho, pole, -np.ones(2 * n) * reach,
                         np.ones(2 * n) * reach)
        self.shape = shape

    def psi(self, t, Z):
        return self.shape.value(Z)

    def psi_z(self, t, Z):
        return self.shape.grad(Z)

    def psi_t(self, t, Z):
        return np.zeros(np.asarray(Z).shape[:-1], dtype=complex)

    def psi_zzbar(self, t, Z):
        return self.shape.hess_mixed(Z)

    def psi_tzbar(self, t, Z):
        return np.zeros(np.asarray(Z).shape, dtype=complex)

    def psi_ttbar(self, t, Z):
        return np.zeros(np.asarray(Z).shape[:-1])


def translation_family(n=2, direction=(1.0, 0.0), radius=1.0, rho=0.5):
    return TranslationFamily(BallShape(n, radius), direction, rho=rho)


def radial_family(n=2, base_radius=1.0, rho=0.45):
    return RadialFamily(n, base_radius, rho=rho)


def static_family(n=2, radius=1.0, rho=0.5):
    return StaticFamily(BallShape(n, radius), rho=rho)


def quartic_translation_family(direction=(0.4, 0.0), rho=0.4):
    return TranslationFamily(QuarticShape(2), direction, rho=rho)


# ---------------------------------------------------------------------------
# lambda(t) and the finite-difference stencil
# ---------------------------------------------------------------------------

def lambda_of_t(family: DomainFamily, t, nodes_per_axis=32) -> float:
    """Robin constant of (D(t), pole) via one solve."""
    if abs(complex(t)) > family.rho:
        raise ValidationError(f"|t| = {abs(complex(t)):g} outside the disk")
    return solve_green(family.domain_at(t, nodes_per_axis)).lam


def _stencil_solves(family, t0, h_t, nodes_per_axis):
    """Concurrent solves at t0 and t0 +- h_t, t0 +- i h_t on the shared grid."""
    offsets = [0, h_t, -h_t, 1j * h_t, -1j * h_t]
    ts = [complex(t0) + o for o in offsets]

    def run(t):
        dom = family.domain_at(t, nodes_per_axis)
        return dom, solve_green(dom)

    with ThreadPoolExecutor(max_workers=min(worker_count(), 5)) as ex:
        results = list(ex.map(run, ts))
    _check_pole_blocks(results)
    return dict(zip(["c", "p1", "m1", "p2", "m2"], results))


def _check_pole_blocks(results):
    """The mask near the pole must agree across the stencil solves.

    The 3-cell margin is enforced per solve already; comparing a 4-cell
    Euclidean neighborhood catches boundary sweep into the pole's wider
    surroundings, which makes the finite differences of lambda unreliable.
    """
    blocks = []
    for dom, _ in results:
        i = dom.pole_node
        radius = 4.0 * float(np.max(dom.h))
        sl, axes = [], []
        for d in range(dom.dim):
            span = int(np.ceil(radius / dom.h[d]))
            lo = max(0, i[d] - span)
            hi = min(dom.m, i[d] + span + 1)
            sl.append(slice(lo, hi))
            axes.append(dom.axes[d][lo:hi] - dom.axes[d][i[d]])
        offs = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        ball = np.sum(offs ** 2, axis=-1) <= radius ** 2
        blocks.append(dom.interior[tuple(sl)] & ball)
    for b in blocks[1:]:
        if b.shape != blocks[0].shape or not np.array_equal(b, blocks[0]):
            raise GridMismatch("t-stencil solves disagree near the pole; "
                               "refine h_t")


# ---------------------------------------------------------------------------
# quadrature helpers
# ---------------------------------------------------------------------------

def hyperplane_cell_area(normal: np.ndarray, offset, h: np.ndarray):
    """(d-1)-volume of {x : normal . x = offset} inside the box prod [0, h_d].

    Batched over cells: ``normal`` has shape (..., d) and ``offset`` shape
    (...); one cell (a (d,) normal and a scalar offset) gives a float.

    Exact for the linear model: the derivative of the box's sublevel volume,
    V'(c) = sum_v (-1)^{|v|} (c - n.v)_+^{d-1} / ((d-1)! prod n_d), scaled by
    |normal| (Lasserre, J. Optim. Theory Appl. 39, 1983).  Axes with
    negligible normal component factor out, so the cells are grouped by
    their pattern of active axes.
    """
    nvec = np.asarray(normal, dtype=float)
    h = np.asarray(h, dtype=float)
    batch = nvec.shape[:-1]
    nvec = nvec.reshape(-1, nvec.shape[-1])
    offset = np.broadcast_to(np.asarray(offset, dtype=float), batch).reshape(-1)
    norm = np.linalg.norm(nvec, axis=-1)
    active = np.abs(nvec) > 1e-12 * norm[:, None]
    pattern = active @ (1 << np.arange(nvec.shape[-1]))
    area = np.zeros(len(nvec))     # d = 0 (a zero normal) has no area
    for code in np.unique(pattern[pattern > 0]):
        rows = np.flatnonzero(pattern == code)
        on = active[rows[0]]
        d = int(on.sum())
        # inactive axes factor out their full edge length
        scale = float(np.prod(h[~on]))
        n = nvec[rows][:, on]
        hh = h[on]
        c = offset[rows]
        # reflect x_k -> h_k - x_k so every component is positive
        for k in range(d):
            c = c - np.minimum(n[:, k], 0.0) * hh[k]
        n = np.abs(n)
        if d == 1:
            inside = (0.0 < c) & (c < n[:, 0] * hh[0])
            area[rows] = np.where(inside, scale * norm[rows] / n[:, 0], 0.0)
            continue
        # Lasserre: V'(c) = sum_v (-1)^{|v|} (c - n.v)_+^{d-1} / ((d-1)! prod n_k)
        # over box vertices v; Area = |normal| V'(c).  The box is centrally
        # symmetric, so the section at c equals the one at n.h - c; taking
        # the smaller offset leaves fewer terms to cancel, and a plane beyond
        # the far corner gets exactly no area.
        nh = n * hh
        c = np.minimum(c, nh.sum(axis=-1) - c)
        total = np.zeros(len(rows))
        for mask in range(1 << d):
            s = c
            for k in range(d):
                if mask >> k & 1:
                    s = s - nh[:, k]
            total += (-1) ** bin(mask).count("1") * np.maximum(s, 0.0) ** (d - 1)
        total /= math.factorial(d - 1) * np.prod(n, axis=-1)
        area[rows] = scale * norm[rows] * total
    return float(area[0]) if batch == () else area.reshape(batch)


def _boundary_quadrature(family, t, domain: GridDomain):
    """Quadrature points / weights / unit outward normals on {psi(t,.) = 0}.

    Cells crossed by the zero set get one point (the projected cell center)
    and the cross-section area of the cell-linear model: first order.
    """
    dim = domain.dim
    P = domain.psi_grid
    mins = P
    maxs = P
    for d in range(dim):
        lo = [slice(None)] * dim
        hi = [slice(None)] * dim
        lo[d] = slice(0, -1)
        hi[d] = slice(1, None)
        mins = np.minimum(mins[tuple(lo)], mins[tuple(hi)])
        maxs = np.maximum(maxs[tuple(lo)], maxs[tuple(hi)])
    crossed = (mins < 0.0) & (maxs >= 0.0)
    cells = np.argwhere(crossed)
    if len(cells) == 0:
        raise ValidationError("no boundary cells found")
    centers = np.stack([domain.axes[d][cells[:, d]] + 0.5 * domain.h[d]
                        for d in range(dim)], axis=-1)

    def real_grad(x):
        gz = family.psi_z(t, real_to_complex(x))
        gx = np.empty_like(x)
        gx[..., 0::2] = 2.0 * gz.real
        gx[..., 1::2] = -2.0 * gz.imag
        return gx

    # the area weight comes from the cell-linear model anchored at the center
    val_c = np.asarray(family.psi(t, real_to_complex(centers)), dtype=float)
    gx_c = real_grad(centers)
    areas = hyperplane_cell_area(gx_c, gx_c @ (0.5 * domain.h) - val_c, domain.h)
    # quadrature points: two Newton projections of the centers
    x = centers
    for _ in range(2):
        val = np.asarray(family.psi(t, real_to_complex(x)), dtype=float)
        gx = real_grad(x)
        nrm2 = np.sum(gx ** 2, axis=-1)
        x = x - (val / nrm2)[..., None] * gx
    gx = real_grad(x)
    normals = gx / np.sqrt(np.sum(gx ** 2, axis=-1))[..., None]
    keep = areas > 0.0
    return x[keep], areas[keep], normals[keep]


def _multilinear_many(domain: GridDomain, grid_values: np.ndarray,
                      pts: np.ndarray) -> np.ndarray:
    """Vectorized multilinear interpolation of a full-grid field."""
    dim = domain.dim
    base = np.empty((len(pts), dim), dtype=np.int64)
    frac = np.empty((len(pts), dim))
    for d in range(dim):
        t = (pts[:, d] - domain.axes[d][0]) / domain.h[d]
        b = np.clip(np.floor(t).astype(np.int64), 0, domain.m - 2)
        base[:, d] = b
        frac[:, d] = t - b
    out = np.zeros(len(pts))
    wsum = np.zeros(len(pts))
    for corner in range(1 << dim):
        w = np.ones(len(pts))
        idx = []
        for d in range(dim):
            bit = corner >> d & 1
            idx.append(base[:, d] + bit)
            w = w * (frac[:, d] if bit else 1.0 - frac[:, d])
        vals = grid_values[tuple(idx)]
        good = np.isfinite(vals)
        out += np.where(good, w * np.nan_to_num(vals), 0.0)
        wsum += np.where(good, w, 0.0)
    if np.any(wsum < 0.5):
        raise ValidationError("interpolation cell lost most of its corners")
    # renormalize over the finite corners: first-order at the rim, exact inside
    return out / wsum


def _ghost_extended_g(fld: GreenField) -> np.ndarray:
    """Green function on the full grid, extended one layer outside by the
    cut-arm linear extrapolation of the scheme (g_b at the cut point)."""
    dom = fld.domain
    g = np.full((dom.m,) * dom.dim, np.nan)
    g[dom.interior] = fld.g
    acc = np.zeros_like(g)
    cnt = np.zeros_like(g)
    idx_flat = dom.idx.reshape(-1)
    gi = fld.g
    for (d, side), (src, theta, cutpts) in dom.arms.items():
        if len(src) == 0:
            continue
        ghost_flat = src + side * dom._strides[d]
        gb = 0.0  # g vanishes on the boundary
        vals = (gb - (1.0 - theta) * gi[idx_flat[src]]) / theta
        np.add.at(acc.reshape(-1), ghost_flat, vals)
        np.add.at(cnt.reshape(-1), ghost_flat, 1.0)
    ghost = cnt > 0
    g[ghost] = acc[ghost] / cnt[ghost]
    # staircase corners (exterior, only diagonally adjacent to the interior)
    # take the average of their finite axis neighbors
    return _fill_from_neighbors(g, ~dom.interior, passes=1)


def _normal_derivative_sq(fld: GreenField, pts, normals):
    """(dg/dn)^2 at boundary points: cubic fit through g = 0 at the boundary
    and three samples along the inward normal."""
    dom = fld.domain
    hmin = float(np.min(dom.h))
    s = np.array([0.8, 1.6, 2.4]) * hmin
    g_ext = _ghost_extended_g(fld)
    samples = [_multilinear_many(dom, g_ext, pts - si * normals) for si in s]
    V = np.array([[si, si ** 2, si ** 3] for si in s])
    row = np.linalg.inv(V)[0]              # q'(0) = row . q
    dq = row[0] * samples[0] + row[1] * samples[1] + row[2] * samples[2]
    return dq ** 2


# ---------------------------------------------------------------------------
# variation checks
# ---------------------------------------------------------------------------

@dataclass
class VariationReport:
    t0: complex
    h_t: float
    nodes_per_axis: int
    lambda_samples: dict
    lhs: float                     # d^2 lambda / dt dtbar at t0
    rhs_boundary: float            # -c_n * boundary integral
    rhs_volume_dbar: float         # -(c_n / 2^(n-2)) |dbar dg/dt|^2
    rhs_volume_c: float            # -(c_n / 2^(n-2)) (1/2) |sqrt(c) dg/dt|^2
    rhs_cross: float               # d*omega cross terms: exactly 0 here
    rhs: float
    mismatch: float
    first_var_lhs: complex
    first_var_rhs: complex
    first_var_mismatch: float
    dbar_norm_sq: float            # |dbar dg/dt|^2 (form norm)
    gt_volume_sq: float            # integral of |dg/dt|^2 dV over the core


def second_variation_check(family: DomainFamily, t0=0.0,
                           h_t: Optional[float] = None,
                           nodes_per_axis: int = 32) -> VariationReport:
    """Evaluate both sides of the second variation formula at t0.

    lhs: (1/4)(D^2_t1 + D^2_t2) lambda over the 5-point cross of solves.
    rhs: -c_n Int K2 |grad g|_g^2 dsigma - (c_n/2^(n-2)) |dbar dg/dt|^2,
    with the c-term and divergence cross terms zero here (c = 0, Euclidean).
    """
    if h_t is None:
        h_t = 0.05 * family.rho
    if abs(complex(t0)) + 2 * h_t > family.rho:
        raise ValidationError("stencil of radius 2 h_t leaves the t-disk")
    n = family.n
    const = DimensionalConstants.for_dim(n)
    sol = _stencil_solves(family, t0, h_t, nodes_per_axis)
    lam = {k: f.lam for k, (_, f) in sol.items()}
    lhs = 0.25 * ((lam["p1"] + lam["m1"] - 2 * lam["c"])
                  + (lam["p2"] + lam["m2"] - 2 * lam["c"])) / h_t ** 2
    fv_lhs = 0.5 * ((lam["p1"] - lam["m1"]) / (2 * h_t)
                    - 1j * (lam["p2"] - lam["m2"]) / (2 * h_t))

    dom_c, fld_c = sol["c"]

    # ---- dg/dt on the stable core
    u = {k: f.u_grid() for k, (_, f) in sol.items()}
    stable = np.ones_like(dom_c.interior)
    for k in u:
        stable &= np.isfinite(u[k])
    gt = (0.5 * (u["p1"] - u["m1"]) - 0.5j * (u["p2"] - u["m2"])) / (2 * h_t)
    gt[~stable] = np.nan

    dbar_int, gt_sq_int = _volume_terms(dom_c, gt, stable)
    rhs_volume_dbar = -(const.c_n / 2 ** (n - 2)) * (2 ** n * dbar_int)
    rhs_volume_c = 0.0
    rhs_cross = 0.0

    # ---- boundary integral of K2 |grad g|_g^2
    pts, areas, normals = _boundary_quadrature(family, t0, dom_c)
    K2 = np.asarray(family.levi_K2_many(t0, real_to_complex(pts)), dtype=float)
    gn2 = _normal_derivative_sq(fld_c, pts, normals)
    I_boundary = float(np.sum(K2 * 0.25 * gn2 * areas))
    rhs_boundary = -const.c_n * I_boundary

    k1 = family.levi_k1_many(t0, real_to_complex(pts))
    fv_rhs = -const.c_n * complex(np.sum(k1 * 0.25 * gn2 * areas))

    rhs = rhs_boundary + rhs_volume_dbar + rhs_volume_c + rhs_cross
    mismatch = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-12)
    # lambda(t0) sets the scale: both first-variation sides vanish by
    # symmetry for an even family, and their noise is no mismatch
    fv_mismatch = abs(fv_lhs - fv_rhs) / max(abs(fv_lhs), abs(fv_rhs),
                                             abs(lam["c"]))
    return VariationReport(
        t0=complex(t0), h_t=h_t, nodes_per_axis=nodes_per_axis,
        lambda_samples=lam, lhs=lhs,
        rhs_boundary=rhs_boundary, rhs_volume_dbar=rhs_volume_dbar,
        rhs_volume_c=rhs_volume_c, rhs_cross=rhs_cross, rhs=rhs,
        mismatch=mismatch, first_var_lhs=fv_lhs, first_var_rhs=fv_rhs,
        first_var_mismatch=fv_mismatch,
        dbar_norm_sq=2 ** n * dbar_int, gt_volume_sq=gt_sq_int)


def _volume_terms(dom: GridDomain, gt: np.ndarray, stable: np.ndarray):
    """Quadrature of sum_a |d gt/dzbar_a|^2 and |gt|^2 over the interior with
    cut control-volume weights.

    Derivatives are central with one-sided fallback near the rim; interior
    nodes whose integrand is unavailable (mask churn across the stencil)
    inherit the average of their computed neighbors, so the boundary band
    keeps its measure instead of being dropped.
    """
    n = dom.n
    dbar_sq = np.full(gt.shape, np.nan)
    dbar_sq[stable] = 0.0
    ok = stable.copy()
    for a in range(n):
        dx = _grid_derivative(gt, stable, dom.h[2 * a], 2 * a)
        dy = _grid_derivative(gt, stable, dom.h[2 * a + 1], 2 * a + 1)
        dzbar = 0.5 * (dx + 1j * dy)
        good = np.isfinite(dzbar.real) & stable
        dbar_sq = np.where(good, dbar_sq + np.abs(dzbar) ** 2, dbar_sq)
        ok &= good
    dbar_sq[~ok] = np.nan
    gt_sq = np.where(stable, np.abs(gt) ** 2, np.nan)
    dbar_sq = _fill_from_neighbors(dbar_sq, dom.interior)
    gt_sq = _fill_from_neighbors(gt_sq, dom.interior)
    cv = dom.control_volumes()
    return (float(np.nansum(dbar_sq[dom.interior] * cv)),
            float(np.nansum(gt_sq[dom.interior] * cv)))


def _fill_from_neighbors(f: np.ndarray, where: np.ndarray,
                         passes: int = 3) -> np.ndarray:
    """Fill NaN entries of f at `where` with the mean of their finite axis
    neighbors, one ring per pass."""
    f = f.copy()
    for _ in range(passes):
        missing = where & ~np.isfinite(f)
        if not np.any(missing):
            break
        acc = np.zeros_like(f)
        cnt = np.zeros_like(f)
        for d in range(f.ndim):
            for k in (+1, -1):
                nb = _shift(f, k, d)
                take = missing & np.isfinite(nb)
                acc[take] += nb[take]
                cnt[take] += 1.0
        fill = cnt > 0
        f[fill] = acc[fill] / cnt[fill]
    return f


def _grid_derivative(f: np.ndarray, valid: np.ndarray, h: float, axis: int):
    """Central difference along an axis with 2nd-order one-sided fallback."""
    fp = _shift(f, -1, axis)
    fm = _shift(f, +1, axis)
    vp = _shift(valid, -1, axis)
    vm = _shift(valid, +1, axis)
    out = np.full_like(f, np.nan)
    both = vp & vm
    out[both] = (fp[both] - fm[both]) / (2 * h)
    fpp = _shift(f, -2, axis)
    vpp = vp & _shift(valid, -2, axis)
    fwd = ~both & vpp & valid
    out[fwd] = (-3 * f[fwd] + 4 * fp[fwd] - fpp[fwd]) / (2 * h)
    fmm = _shift(f, +2, axis)
    vmm = vm & _shift(valid, +2, axis)
    bwd = ~both & ~fwd & vmm & valid
    out[bwd] = (3 * f[bwd] - 4 * fm[bwd] + fmm[bwd]) / (2 * h)
    return out


def first_variation_check(family: DomainFamily, t0=0.0,
                          h_t: Optional[float] = None,
                          nodes_per_axis: int = 32):
    """(lhs, rhs, mismatch) for the first variation formula at t0."""
    rep = second_variation_check(family, t0, h_t, nodes_per_axis)
    return rep.first_var_lhs, rep.first_var_rhs, rep.first_var_mismatch


def subharmonicity_scan(family: DomainFamily, t_samples: Sequence,
                        nodes_per_axis: int = 32,
                        h_t: Optional[float] = None,
                        boundary_samples: int = 64):
    """d^2(-lambda)/dt dtbar over a t-lattice, with a pseudoconvexity
    pre-check by sampling K2 >= 0 on the family's boundary."""
    rng = np.random.default_rng(7)
    for t in t_samples:
        dom = family.domain_at(t, max(12, nodes_per_axis // 2))
        pts, _, _ = _boundary_quadrature(family, t, dom)
        take = rng.choice(len(pts), size=min(boundary_samples, len(pts)),
                          replace=False)
        k2 = family.levi_K2_many(t, real_to_complex(pts[take]))
        if np.min(k2) < -1e-8:
            raise ValidationError(
                f"family is not pseudoconvex at t={t}: min K2 = {np.min(k2):g}")
    values = []
    for t in t_samples:
        rep = second_variation_check(family, t, h_t, nodes_per_axis)
        values.append(-rep.lhs)
    values = np.asarray(values)
    return values, float(values.min())
