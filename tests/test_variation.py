"""Variation formulas over domain families, at grids sized for test speed.

Closed forms used: lambda(t) = -(1 - |t|^2)^{-2} on the translation family of
the unit ball (second t-derivative -2|a|^2 at 0) and lambda = -(1 + Re t)^{-2}
on the radial family (d lambda/dt = 1 at 0).
"""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robinlab.errors import GridMismatch, ValidationError
from robinlab.geometry import DimensionalConstants
from robinlab.green import solve_green
from robinlab.variation import (BallShape, QuarticShape, TranslationFamily,
                                first_variation_check, hyperplane_cell_area,
                                lambda_of_t, quartic_translation_family,
                                radial_family, second_variation_check,
                                static_family, subharmonicity_scan,
                                translation_family, _boundary_quadrature)


# -- hyperplane cross sections --------------------------------------------------

def test_hyperplane_area_axis_cut():
    assert hyperplane_cell_area(np.array([2.0]), 1.0, np.array([1.0])) == 1.0
    assert hyperplane_cell_area(np.array([1.0, 0.0]), 0.5,
                                np.array([1.0, 2.0])) == pytest.approx(2.0)


def test_hyperplane_area_diagonals():
    assert hyperplane_cell_area(np.array([1.0, 1.0]), 1.0,
                                np.array([1.0, 1.0])) == pytest.approx(np.sqrt(2))
    # 3-cube corner cut at c = 1/2: equilateral triangle of area sqrt(3)/8
    got = hyperplane_cell_area(np.array([1.0, 1.0, 1.0]), 0.5, np.ones(3))
    assert got == pytest.approx(np.sqrt(3) / 8)


def test_hyperplane_area_outside_is_zero():
    assert hyperplane_cell_area(np.array([1.0, 1.0]), -0.2, np.ones(2)) == 0.0
    assert hyperplane_cell_area(np.array([1.0, 1.0]), 2.5, np.ones(2)) == 0.0


def test_hyperplane_area_beyond_far_corner_is_exact_zero():
    """The plane misses this cell beyond its far corner; the alternating
    vertex sum at the raw offset cancels to about 1e-14 instead of 0."""
    normal = np.array([-0.711, 0.514, -0.0617])
    h = np.array([1.219, 1.398, 1.622])
    assert hyperplane_cell_area(normal, 1.7288, h) == 0.0
    assert hyperplane_cell_area(normal[None, :], np.array([1.7288]), h)[0] == 0.0


def lasserre_cell_area_oracle(normal, offset, h):
    """One cell at a time: the scalar Lasserre vertex sum that the batched
    `hyperplane_cell_area` replaced, kept as its reference."""
    nvec = np.asarray(normal, dtype=float).copy()
    h = np.asarray(h, dtype=float)
    norm = float(np.linalg.norm(nvec))
    if norm == 0.0:
        return 0.0
    active = np.abs(nvec) > 1e-12 * norm
    scale = float(np.prod(h[~active]))
    n = nvec[active]
    hh = h[active]
    c = offset
    for k in range(len(n)):
        if n[k] < 0:
            c -= n[k] * hh[k]
            n[k] = -n[k]
    d = len(n)
    if d == 0:
        return 0.0
    if d == 1:
        return (scale * norm / n[0]) if 0.0 < c < n[0] * hh[0] else 0.0
    total = 0.0
    for mask in range(1 << d):
        s = c
        bits = 0
        for k in range(d):
            if mask >> k & 1:
                s -= n[k] * hh[k]
                bits += 1
        if s > 0.0:
            total += (-1) ** bits * s ** (d - 1)
    total /= math.factorial(d - 1) * float(np.prod(n))
    return float(scale * norm * total)


def area_tolerance(normal, offset, h, reference):
    """1e-12 relative or 1e-15 prod(h) absolute, widened by the rounding
    bound of the alternating vertex sum.

    Each of the 2^d terms (c - n.v)_+^{d-1} is at most M^{d-1} with
    M = |c| + sum |n_k| h_k and is formed with about d + 2 roundings; the
    sum is then divided by (d-1)! prod n_k.  Where the terms cancel to a
    small area (the plane near or beyond the box's far corner) both routes
    return their own rounding noise, and this bound is what they share.
    """
    nvec = np.asarray(normal, dtype=float)
    norm = float(np.linalg.norm(nvec))
    active = np.abs(nvec) > 1e-12 * norm
    d = int(np.count_nonzero(active))
    tol = max(1e-12 * abs(reference), 1e-15 * float(np.prod(h)))
    if d < 2:
        return tol
    M = abs(offset) + float(np.sum(np.abs(nvec) * h))
    noise = (2 ** d * (d + 2) * np.finfo(float).eps * M ** (d - 1)
             / (math.factorial(d - 1) * float(np.prod(np.abs(nvec[active])))))
    return tol + noise * norm * float(np.prod(h[~active]))


@st.composite
def cell_batches(draw, smallest_active=(-5.5, 0.0)):
    """Cells of one box: each normal mixes active components (the largest
    L in [0.5, 5], the others L * 10^u with u drawn from smallest_active),
    exact zeros and inactive components of +-1e-13 |n|; offsets below, inside,
    through a vertex of, and beyond the box."""
    d = draw(st.integers(1, 4))
    h = np.array(draw(st.lists(st.floats(0.05, 2.0), min_size=d, max_size=d)))
    normals, offsets = [], []
    for _ in range(draw(st.integers(1, 12))):
        kinds = draw(st.lists(st.sampled_from(["active", "zero", "inactive"]),
                              min_size=d, max_size=d))
        sign = st.sampled_from([-1.0, 1.0])
        L = draw(st.floats(0.5, 5.0))
        n = np.zeros(d)
        for k, kind in enumerate(kinds):
            if kind == "active":
                first = not np.any(n)
                u = 0.0 if first else draw(st.floats(*smallest_active))
                n[k] = draw(sign) * L * 10.0 ** u
        big = float(np.linalg.norm(n))
        for k, kind in enumerate(kinds):
            if kind == "inactive":
                n[k] = draw(sign) * 1e-13 * big
        lo = float(np.sum(np.minimum(n * h, 0.0)))
        hi = float(np.sum(np.maximum(n * h, 0.0)))
        width = hi - lo if hi > lo else 1.0
        where = draw(st.sampled_from(["below", "inside", "vertex", "beyond"]))
        if where == "below":
            c = lo - draw(st.floats(0.0, 1.0)) * width
        elif where == "inside":
            c = lo + draw(st.floats(0.0, 1.0)) * (hi - lo)
        elif where == "vertex":
            v = np.array(draw(st.lists(st.booleans(), min_size=d, max_size=d)))
            c = float(np.dot(n, np.where(v, h, 0.0)))
        else:
            c = hi + draw(st.floats(0.0, 1.0)) * width
        normals.append(n)
        offsets.append(c)
    return np.array(normals), np.array(offsets), h


def _check_against_oracle(normals, offsets, h):
    got = hyperplane_cell_area(normals, offsets, h)
    assert got.shape == offsets.shape
    for n, c, a in zip(normals, offsets, got):
        want = lasserre_cell_area_oracle(n, c, h)
        assert abs(a - want) <= area_tolerance(n, c, h, want), (n, c, a, want)
    # any leading batch shape, and a single cell gives a float
    np.testing.assert_array_equal(
        hyperplane_cell_area(normals[:, None, :], offsets[:, None], h),
        got[:, None])
    one = hyperplane_cell_area(normals[0], offsets[0], h)
    assert type(one) is float
    assert abs(one - got[0]) <= area_tolerance(normals[0], offsets[0], h, got[0])


@given(cell_batches())
@settings(max_examples=300, deadline=None)
def test_batched_area_matches_oracle(batch):
    """Every active component at least 1e-6 |n|."""
    _check_against_oracle(*batch)


@given(cell_batches(smallest_active=(-11.5, -6.0)))
@settings(max_examples=150, deadline=None)
def test_batched_area_ill_conditioned(batch):
    """Active components between 1e-12 |n| and 1e-6 |n|.

    The vertex sum is divided by prod n_k, so its rounding noise grows like
    eps |n| / |n_k|; the tolerance's rounding bound carries that factor,
    and is far looser here than for well-conditioned normals.
    """
    _check_against_oracle(*batch)


def test_sphere_area_quadrature():
    fam = static_family(2, radius=1.0)
    dom = fam.domain_at(0.0, 24)
    _, areas, _ = _boundary_quadrature(fam, 0.0, dom)
    assert abs(np.sum(areas) / (2 * np.pi ** 2) - 1) < 0.01
    fam1 = static_family(1, radius=1.0)
    _, areas1, _ = _boundary_quadrature(fam1, 0.0, fam1.domain_at(0.0, 65))
    assert abs(np.sum(areas1) / (2 * np.pi) - 1) < 1e-3


# -- lambda(t) -------------------------------------------------------------------

def test_lambda_of_t_translation():
    fam = translation_family(2, (1.0, 0.0), rho=0.5)
    assert abs(lambda_of_t(fam, 0.0, 20) + 1.0) < 1e-6
    got = lambda_of_t(fam, 0.3, 20)
    expected = -1.0 / (1 - 0.09) ** 2
    assert abs((got - expected) / expected) < 5e-3
    with pytest.raises(ValidationError):
        lambda_of_t(fam, 0.9, 16)


def test_lambda_static_constant():
    fam = static_family(2, radius=1.0)
    vals = [lambda_of_t(fam, t, 16) for t in (0.0, 0.2, 0.1j)]
    assert np.ptp(vals) < 1e-9


# -- second variation --------------------------------------------------------------

def test_second_variation_translation_small_grid():
    fam = translation_family(2, (1.0, 0.0), rho=0.5)
    rep = second_variation_check(fam, 0.0, nodes_per_axis=24)
    assert abs(rep.lhs + 2.0) < 0.1
    assert rep.mismatch <= 0.2
    assert rep.rhs_cross == 0.0 and rep.rhs_volume_c == 0.0
    # first variation of this even family vanishes at 0
    assert abs(rep.first_var_lhs) < 5e-3
    assert abs(rep.first_var_rhs) < 5e-3
    # both sides vanish, so the mismatch is scaled by lambda(t0), not by them
    assert rep.first_var_mismatch < 1e-3


# Reports of the three benchmark families at 24 nodes and t0 = 0, computed
# with the per-cell area loop that the batched Lasserre routine replaced.
# The solves' BLAS reductions depend on the thread count, so the report runs
# in a subprocess with one BLAS thread, as these values were taken.
PINNED_REPORTS = {
    "ball": dict(
        lhs=-2.001888904550952, rhs_volume_dbar=-0.9196476821904682,
        dbar_norm_sq=18.153117623197346, gt_volume_sq=1.443588368743089,
        lambda_samples=dict(c=-0.9999999973914389, p1=-1.0012511347563857,
                            m1=-1.0012512211571805, p2=-1.001251134756386,
                            m2=-1.0012512211571807),
        rhs_boundary=-1.0546817951439502, rhs=-1.9743294773344184,
        mismatch=0.013766711606164533,
        first_var_rhs=(-7.784246478570205e-15, 8.031722522686599e-15)),
    "radial": dict(
        lhs=-1.501266611419218, rhs_volume_dbar=-4.2810042374059894e-15,
        dbar_norm_sq=8.450363652516869e-14, gt_volume_sq=4.5540694370552535,
        lambda_samples=dict(c=-0.9999999970544725, p1=-0.9564744331077375,
                            m1=-1.0465656258893314, p2=-0.9999999970544725,
                            m2=-0.9999999970544725),
        rhs_boundary=-1.5636373475497882, rhs=-1.5636373475497924,
        mismatch=0.03988823637930431,
        first_var_rhs=(1.0424270068298884, -0.0)),
    "quartic": dict(
        lhs=-0.4152002470939052, rhs_volume_dbar=-0.22366370771844996,
        dbar_norm_sq=4.414944628123955, gt_volume_sq=0.3034848788040577,
        lambda_samples=dict(c=-1.0653195400975866, p1=-1.0655212570316737,
                            m1=-1.0655339700622322, p2=-1.065443692468635,
                            m2=-1.0654435612231554),
        rhs_boundary=-0.1789944341282733, rhs=-0.4026581418467232,
        mismatch=0.030207364602905303,
        first_var_rhs=(-2.1372931082779465e-15, 9.477207598548263e-16)),
}

_REPORTS_SCRIPT = """
import json
from robinlab.variation import (quartic_translation_family, radial_family,
                                second_variation_check, translation_family)
families = {"ball": translation_family(2, (1.0, 0.0), rho=0.5),
            "radial": radial_family(2, 1.0, rho=0.45),
            "quartic": quartic_translation_family((0.4, 0.0), rho=0.4)}
out = {}
for name, fam in families.items():
    rep = second_variation_check(fam, 0.0, nodes_per_axis=24)
    out[name] = dict(
        lhs=rep.lhs, rhs_volume_dbar=rep.rhs_volume_dbar,
        dbar_norm_sq=rep.dbar_norm_sq, gt_volume_sq=rep.gt_volume_sq,
        lambda_samples=rep.lambda_samples, rhs_boundary=rep.rhs_boundary,
        rhs=rep.rhs, mismatch=rep.mismatch,
        first_var_rhs=(rep.first_var_rhs.real, rep.first_var_rhs.imag))
print(json.dumps(out))
"""


def test_reports_pinned():
    """Nothing upstream of the boundary quadrature changed, so the solves and
    the volume terms are bit-identical; the quadrature's sums move only by
    rounding."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", _REPORTS_SCRIPT], env=env,
                          capture_output=True, text=True, check=True)
    got = json.loads(proc.stdout)
    for name, want in PINNED_REPORTS.items():
        rep = got[name]
        for key in ("lhs", "rhs_volume_dbar", "dbar_norm_sq", "gt_volume_sq",
                    "lambda_samples"):
            assert rep[key] == want[key], (name, key)
        for key in ("rhs_boundary", "rhs", "mismatch"):
            assert rep[key] == pytest.approx(want[key], rel=1e-12, abs=0), \
                (name, key)
        # rounding noise of about 1e-17 on the even families
        lam = abs(want["lambda_samples"]["c"])
        assert abs(complex(*rep["first_var_rhs"])
                   - complex(*want["first_var_rhs"])) <= 1e-12 * lam, name


def test_second_variation_scaled_direction():
    fam = translation_family(2, (0.5, 0.0), rho=0.5)
    rep = second_variation_check(fam, 0.0, nodes_per_axis=24)
    assert abs(rep.lhs + 0.5) < 0.05          # -2 |a|^2 = -0.5


def test_second_variation_static_null():
    fam = static_family(2, radius=1.0)
    rep = second_variation_check(fam, 0.0, nodes_per_axis=16)
    assert abs(rep.lhs) < 5e-3
    assert abs(rep.rhs) < 5e-3
    # trivial-variation property: identical masks give exactly equal solves,
    # so the dg/dt volume norms sit at solver-noise level
    noise = max(abs(v - rep.lambda_samples["c"])
                for v in rep.lambda_samples.values())
    assert rep.dbar_norm_sq <= 10 * max(noise, 1e-12)
    assert rep.gt_volume_sq <= 10 * max(noise, 1e-12)


def test_intro_form_norm_identity():
    """|dbar dg/dt|^2 = 2^n * integral of sum |d^2 g/(dt dzbar_a)|^2 dV: the
    report stores the form norm, 2^n times the raw quadrature."""
    fam = translation_family(2, (1.0, 0.0), rho=0.5)
    rep = second_variation_check(fam, 0.0, nodes_per_axis=20)
    n = 2
    const = DimensionalConstants.for_dim(n)
    # reconstruct the raw integral from the reported rhs term and compare
    raw = -rep.rhs_volume_dbar / (const.c_n / 2 ** (n - 2)) / 2 ** n
    assert rep.dbar_norm_sq == pytest.approx(2 ** n * raw, rel=1e-12)
    # and the Euclidean-form coefficient: -4 c_n * integral
    assert rep.rhs_volume_dbar == pytest.approx(-4 * const.c_n * raw, rel=1e-12)


def test_stencil_requires_room():
    fam = translation_family(2, (1.0, 0.0), rho=0.5)
    with pytest.raises(ValidationError):
        second_variation_check(fam, 0.45, h_t=0.05, nodes_per_axis=16)


def test_grid_mismatch_detected():
    # per-solve pole margins pass (3 cells) but the boundary sweeps through
    # the pole's 5-cell neighborhood differently across the stencil
    fam = TranslationFamily(BallShape(2, 1.0), (1.0, 0.0), rho=0.5,
                            pole=np.array([0.1, 0, 0, 0.0]))
    with pytest.raises(GridMismatch):
        second_variation_check(fam, 0.0, h_t=0.1, nodes_per_axis=16)


# -- first variation ----------------------------------------------------------------

def test_first_variation_radial():
    fam = radial_family(2, 1.0, rho=0.45)
    lhs, rhs, mism = first_variation_check(fam, 0.0, nodes_per_axis=24)
    assert abs(lhs - 1.0) < 0.05
    assert abs(rhs - lhs) <= 0.10 * abs(lhs)
    # |lhs| > |lambda(0)| = 1 here: the sides still set the scale
    assert mism == pytest.approx(abs(rhs - lhs) / max(abs(lhs), abs(rhs)),
                                 rel=1e-12)


def test_first_variation_radial_off_center_t():
    fam = radial_family(2, 1.0, rho=0.45)
    lhs, _, _ = first_variation_check(fam, 0.2, nodes_per_axis=20)
    # lambda(t) = -(1 + Re t)^{-2}: d lambda/dt = (1 + Re t)^{-3}
    assert abs(lhs - 1.2 ** -3) < 0.05


# -- subharmonicity -------------------------------------------------------------------

def test_subharmonicity_translation():
    fam = translation_family(2, (1.0, 0.0), rho=0.5)
    values, vmin = subharmonicity_scan(fam, [0.0, 0.15], nodes_per_axis=20)
    assert vmin >= 2.0 * 0.8               # exact value 2|a|^2 = 2 at t = 0
    assert np.all(values > 0)


def test_subharmonicity_quartic_convex():
    fam = quartic_translation_family((0.4, 0.0), rho=0.4)
    values, vmin = subharmonicity_scan(fam, [0.0], nodes_per_axis=20)
    assert vmin >= -5e-3 * max(1.0, abs(values).max())


def test_nonpseudoconvex_scan_rejected():
    class Dumbbell(BallShape):
        def value(self, W):
            W = np.asarray(W, dtype=complex)
            s = np.sum(np.abs(W) ** 2, axis=-1)
            return s - 1.0 + 0.8 * np.abs(W[..., 0]) ** 2 \
                - 1.2 * np.abs(W[..., 0]) ** 4

        def grad(self, W):
            W = np.asarray(W, dtype=complex)
            out = np.conj(W).copy()
            out[..., 0] += 0.8 * np.conj(W[..., 0]) \
                - 2.4 * np.abs(W[..., 0]) ** 2 * np.conj(W[..., 0])
            return out

        def hess_mixed(self, W):
            W = np.asarray(W, dtype=complex)
            out = super().hess_mixed(W).copy()
            out[..., 0, 0] += 0.8 - 4.8 * np.abs(W[..., 0]) ** 2
            return out

    fam = TranslationFamily(Dumbbell(2, 1.0), (1.0, 0.0), rho=0.3)
    with pytest.raises(ValidationError):
        subharmonicity_scan(fam, [0.0], nodes_per_axis=16)


# -- quartic shape self-consistency ---------------------------------------------------

def test_quartic_shape_derivatives():
    sh = QuarticShape(2)
    rng = np.random.default_rng(2)
    Z = (rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2))) * 0.4
    h = 1e-6
    for k in range(2):
        e = np.zeros(2)
        e[k] = 1.0
        fd = (sh.value(Z + h * e) - sh.value(Z - h * e)) / (2 * h) / 2 \
            - 1j * (sh.value(Z + 1j * h * e) - sh.value(Z - 1j * h * e)) / (2 * h) / 2
        assert np.max(np.abs(fd - sh.grad(Z)[:, k])) < 1e-6
