"""Variation formulas over domain families, at grids sized for test speed.

Closed forms used: lambda(t) = -(1 - |t|^2)^{-2} on the translation family of
the unit ball (second t-derivative -2|a|^2 at 0) and lambda = -(1 + Re t)^{-2}
on the radial family (d lambda/dt = 1 at 0).
"""

import numpy as np
import pytest

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
