"""c-Green solver: closed-form Robin constants, convergence, Hessians.

The off-center values are frozen from the image-charge closed form
Lambda(y) = -R^2/(R^2 - |y|^2)^2 (n = 2) and log((R^2 - |y|^2)/R) (n = 1);
test_image_charge_oracle re-derives the n = 2 form independently before the
solver compares against it, and test_c_term_vs_radial_ode checks the c > 0
path against a one-dimensional boundary-value solve.
"""

import numpy as np
import pytest
import scipy.integrate
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from robinlab.errors import (NegativeC, PoleTooCloseToBoundary,
                             StencilOutOfRange, ValidationError)
from robinlab.green import (BISECT_ITERS, CUT_SLACK, THETA_MIN, GridDomain,
                            RobinFunctionField, _bisect_theta, _cut_theta,
                            _distance_to_boundary, _shift,
                            fundamental_solution, hessian_flat_directions,
                            robin_function, solve_green)
from robinlab.variation import (_fill_from_neighbors,
                                quartic_translation_family, radial_family,
                                second_variation_check, translation_family)


def image_charge_lambda(y, R=1.0):
    return -R ** 2 / (R ** 2 - y ** 2) ** 2


def test_image_charge_oracle():
    """The method-of-images Green function for the R^4 ball: harmonic away
    from the pole (checked by finite differences), zero on the sphere, and
    its regular part at the pole equals the closed form."""
    R, y = 1.0, 0.5
    pole = np.array([y, 0.0, 0.0, 0.0])
    ystar = pole * R ** 2 / y ** 2
    fac = (R / y) ** 2

    def g(x):
        return (1.0 / np.sum((x - pole) ** 2, axis=-1)
                - fac / np.sum((x - ystar) ** 2, axis=-1))

    rng = np.random.default_rng(0)
    # vanishes on the sphere
    pts = rng.normal(size=(50, 4))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    assert np.max(np.abs(g(pts))) < 1e-12
    # harmonic: 4-D finite-difference Laplacian at interior sample points,
    # relative to the size of the individual second-derivative terms
    h = 1e-3
    for _ in range(20):
        x = rng.normal(size=4) * 0.3 + np.array([0.1, 0, 0, 0])
        if np.linalg.norm(x) > 0.9 or np.linalg.norm(x - pole) < 0.15:
            continue
        terms = [(g(x + h * e) + g(x - h * e) - 2 * g(x)) / h ** 2
                 for e in np.eye(4)]
        scale = max(abs(t) for t in terms)
        assert abs(sum(terms)) < 1e-4 * max(scale, 1.0)
    # regular part at the pole
    lam = -fac / np.sum((pole - ystar) ** 2)
    assert abs(lam - image_charge_lambda(y)) < 1e-14


# -- closed-form benchmarks ------------------------------------------------------

def test_unit_ball_center_pole():
    dom = GridDomain.ball(2, radius=1.0, nodes_per_axis=20)
    fld = solve_green(dom)
    assert abs(fld.lam + 1.0) < 1e-6
    assert fld.residual < 1e-9


def test_ball_radius_two():
    dom = GridDomain.ball(2, radius=2.0, nodes_per_axis=20)
    assert abs(solve_green(dom).lam + 0.25) < 1e-6


def test_off_center_pole():
    dom = GridDomain.ball(2, radius=1.0, nodes_per_axis=24)
    fld = solve_green(dom, pole=[0.5, 0, 0, 0])
    exact = image_charge_lambda(0.5)
    assert abs((fld.lam - exact) / exact) < 0.01


def test_disk_n1_closed_forms():
    dom = GridDomain.ball(1, radius=1.0, nodes_per_axis=65)
    assert abs(solve_green(dom).lam) < 1e-9            # log R = 0
    fld = solve_green(dom, pole=[0.5, 0.0])
    assert abs(fld.lam - np.log(0.75)) < 5e-4
    dom2 = GridDomain.ball(1, radius=2.0, nodes_per_axis=65)
    assert abs(solve_green(dom2).lam - np.log(2.0)) < 1e-8


def test_green_nonnegative_and_boundary():
    dom = GridDomain.ball(2, radius=1.0, nodes_per_axis=20)
    y = 0.3
    fld = solve_green(dom, pole=[y, 0, 0, 0])
    assert fld.min_g() >= -1e-6 * abs(fld.lam)
    # away from the pole the solve tracks the image-charge Green function
    pole = np.array([y, 0, 0, 0])
    ystar = pole / y ** 2
    rng = np.random.default_rng(1)
    for _ in range(10):
        v = rng.normal(size=4)
        x = 0.75 * v / np.linalg.norm(v)
        exact = (1.0 / np.sum((x - pole) ** 2)
                 - (1.0 / y ** 2) / np.sum((x - ystar) ** 2))
        assert abs(fld.interp_g(x) - exact) < 0.05 * max(abs(exact), 0.1)


def test_grid_convergence_factor():
    """|lambda_h - lambda_{h/2}| must shrink by at least 3 when halving h."""
    lams = {}
    for m in (12, 24, 48):
        dom = GridDomain.ball(2, radius=1.0, nodes_per_axis=m)
        lams[m] = solve_green(dom, pole=[0.35, 0, 0, 0]).lam
    d1 = abs(lams[12] - lams[24])
    d2 = abs(lams[24] - lams[48])
    assert d1 / d2 >= 3.0, (lams, d1 / d2)


def test_domain_monotonicity():
    lam_small = solve_green(GridDomain.ball(2, 0.8, 20)).lam
    lam_big = solve_green(GridDomain.ball(2, 1.0, 20)).lam
    assert lam_small <= lam_big + 1e-6


def test_boundary_blowup_monotone():
    dom = GridDomain.ball(2, radius=1.0, nodes_per_axis=24)
    rf = robin_function(dom, [[y, 0, 0, 0] for y in (0.0, 0.25, 0.45, 0.6)])
    assert np.all(np.diff(rf.Lambda) < 0)
    for y, lam in zip((0.0, 0.25, 0.45, 0.6), rf.Lambda):
        exact = image_charge_lambda(y)
        assert abs((lam - exact) / exact) < 0.02


def test_pole_margin_enforced():
    dom = GridDomain.ball(2, radius=1.0, nodes_per_axis=16)
    with pytest.raises(PoleTooCloseToBoundary):
        solve_green(dom, pole=[0.9, 0, 0, 0])


def test_negative_c_rejected():
    dom = GridDomain.ball(1, radius=1.0, nodes_per_axis=33)
    with pytest.raises(NegativeC):
        solve_green(dom, c_spec=-1.0)
    with pytest.raises(NegativeC):
        solve_green(dom, c_spec=lambda pts: -np.ones(len(pts)))


def test_c_term_vs_radial_ode():
    """c >= 0 supported away from the pole: the 4-D solve must match a
    high-resolution radial two-point boundary-value oracle."""
    c0, r0 = 3.0, 0.4

    def c_radial(r):
        return c0 * np.clip((r - r0) / (1 - r0), 0.0, 1.0) ** 2

    def c_spec(pts):
        return c_radial(np.linalg.norm(pts, axis=-1))

    # oracle: -(1/2)(u'' + 3 u'/r) + c (u + r^-2) = 0, u'(0)=0, u(1) = -1
    def rhs(r, y):
        u, du = y
        cr = c_radial(r)
        return np.vstack([du, -3.0 * du / r + 2.0 * cr * (u + r ** -2.0)])

    def bc(ya, yb):
        return np.array([ya[1], yb[0] + 1.0])

    rmesh = np.linspace(1e-4, 1.0, 2000)
    guess = np.vstack([-np.ones_like(rmesh), np.zeros_like(rmesh)])
    sol = scipy.integrate.solve_bvp(rhs, bc, rmesh, guess, tol=1e-10,
                                    max_nodes=200000)
    assert sol.success
    lam_oracle = float(sol.sol(1e-4)[0])

    dom = GridDomain.ball(2, radius=1.0, nodes_per_axis=24)
    lam = solve_green(dom, c_spec=c_spec).lam
    assert abs(lam - lam_oracle) < 0.02 * abs(lam_oracle), (lam, lam_oracle)
    # absorption strictly lowers the Robin constant
    lam0 = solve_green(dom).lam
    assert lam < lam0


# -- Robin function field and Hessians ---------------------------------------------

def test_robin_lattice_and_csv():
    dom = GridDomain.ball(2, radius=1.0, nodes_per_axis=20)
    rf = robin_function(dom, [[0, 0, 0, 0], [0.25, 0, 0, 0], [0.5, 0, 0, 0]])
    expected = [image_charge_lambda(y) for y in (0.0, 0.25, 0.5)]
    assert np.allclose(rf.Lambda, expected, rtol=5e-3)
    csv = rf.to_csv()
    lines = csv.strip().splitlines()
    assert lines[0] == "x1,x2,x3,x4,Lambda"
    assert len(lines) == 4
    assert float(lines[1].split(",")[-1]) == rf.Lambda[0]


def test_hessian_at_ball_center():
    dom = GridDomain.ball(2, radius=1.0, nodes_per_axis=16)
    rf = robin_function(dom, [[0, 0, 0, 0]])
    w, V, flats = hessian_flat_directions(rf, [0, 0], tol_eig=0.1)
    assert np.all(np.abs(w - 2.0) < 0.4)
    assert flats == []


def test_hessian_hermitian_defect_is_measured():
    dom = GridDomain.ball(2, radius=1.0, nodes_per_axis=16)
    rf = robin_function(dom, [[0, 0, 0, 0]])
    H = rf.hessian_at([0, 0])
    scale = float(np.max(np.abs(H)))
    assert float(np.max(np.abs(H - H.conj().T))) < 1e-4 * scale


def test_hessian_flat_direction_synthetic():
    syn = RobinFunctionField.from_function(
        lambda x: -1.0 - (x[0] ** 2 + x[1] ** 2), n=2)
    w, V, flats = hessian_flat_directions(syn, [0.0, 0.0], tol_eig=0.1,
                                          h_t=0.05)
    assert len(flats) == 1
    val, vec = flats[0]
    assert abs(val) < 1e-9
    assert abs(abs(vec[1]) - 1.0) < 1e-9       # flat along e_2


def test_hessian_empty_flat_list_with_tolerance():
    syn = RobinFunctionField.from_function(
        lambda x: -(1.0 - x @ x) ** -2.0, n=2)   # -Lambda for the unit ball
    w, V, flats = hessian_flat_directions(syn, [0.0, 0.0], tol_eig=0.1,
                                          h_t=0.02)
    assert np.all(np.abs(w - 2.0) < 0.01)
    assert flats == []


def test_interp_out_of_range():
    dom = GridDomain.ball(2, radius=1.0, nodes_per_axis=16)
    fld = solve_green(dom)
    with pytest.raises((StencilOutOfRange, ValidationError)):
        fld.interp_u([2.0, 0.0, 0.0, 0.0])


def test_fundamental_solution_forms():
    p = np.zeros(4)
    assert abs(fundamental_solution(2, [1.0, 0, 0, 0], p) - 1.0) < 1e-14
    assert abs(fundamental_solution(2, [2.0, 0, 0, 0], p) - 0.25) < 1e-14
    assert abs(fundamental_solution(1, [1.0, 0.0], np.zeros(2))) < 1e-14


def test_solver_supports_only_low_dims():
    with pytest.raises(ValidationError):
        GridDomain.ball(3, radius=1.0, nodes_per_axis=8)


# -- cut points -------------------------------------------------------------------

# psi(X) = G(X_j - r) with sign(G(y)) = sign(y): psi changes sign once along
# any segment on which X_j increases, also in floating point
SIGN_MONOTONE = {
    "linear": lambda y: y,
    "cubic": lambda y: y ** 3,
    "exponential": lambda y: y * np.exp(3.0 * y),
    "step": lambda y: np.where(y < 0.0, -1.0, 1e6),
}


@st.composite
def crossing_segments(draw):
    """Segments a -> b in R^dim (plus a last coordinate that carries the row
    index, equal at both ends) and per-row roots r of psi = G(X_j - r).

    The roots sit on a grid point of the search, x = k 2^-40 computed as
    a_j + x (b_j - a_j), one ulp to either side of one, with k near 0, near
    2^40 or anywhere; uniformly inside; exactly at b_j (psi(b) == 0); or
    beyond b_j (psi(b) < 0, psi negative along the whole segment)."""
    dim = draw(st.sampled_from([1, 2, 4]))
    j = draw(st.integers(0, dim - 1))
    coord = st.floats(-2.0, 2.0)
    rows = draw(st.integers(1, 8))
    a = np.zeros((rows, dim + 1))
    b = np.zeros((rows, dim + 1))
    r = np.zeros(rows)
    for i in range(rows):
        a[i, :dim] = draw(st.lists(coord, min_size=dim, max_size=dim))
        b[i, :dim] = a[i, :dim] + draw(st.lists(st.floats(-0.2, 0.2),
                                                min_size=dim, max_size=dim))
        b[i, j] = a[i, j] + draw(st.floats(1e-3, 1.0))
        a[i, dim] = b[i, dim] = i
        place = draw(st.sampled_from(["grid", "above", "below", "uniform",
                                      "at_b", "beyond"]))
        top = 1 << BISECT_ITERS
        k = draw(st.one_of(st.integers(1, 16), st.integers(top - 16, top - 1),
                           st.integers(1, top - 1)))
        on_grid = a[i, j] + (k * 2.0 ** -BISECT_ITERS) * (b[i, j] - a[i, j])
        if place == "grid":
            r[i] = on_grid
        elif place == "above":
            r[i] = np.nextafter(on_grid, np.inf)
        elif place == "below":
            r[i] = np.nextafter(on_grid, -np.inf)
        elif place == "uniform":
            r[i] = a[i, j] + draw(st.floats(0.0, 1.0)) * (b[i, j] - a[i, j])
        elif place == "at_b":
            r[i] = b[i, j]
        else:
            r[i] = b[i, j] + draw(st.floats(1e-9, 1.0))
    G = SIGN_MONOTONE[draw(st.sampled_from(sorted(SIGN_MONOTONE)))]

    def psi(X):
        return G(X[..., j] - r[X[..., -1].astype(int)])
    return psi, a, b


@given(crossing_segments())
@settings(max_examples=300, deadline=None)
def test_cut_search_matches_bisection(case):
    psi, a, b = case
    theta, points, _ = _cut_theta(psi, a, b, psi(a), psi(b))
    np.testing.assert_array_equal(theta, _bisect_theta(psi, a, b))
    assert points <= len(a) * (BISECT_ITERS + CUT_SLACK)


def test_cut_search_negative_far_end():
    """psi < 0 along the whole edge (the neighbour lies in another component
    of {psi < 0}): x = 1 counts as nonnegative, as in bisection, and the far
    end's value is not interpolated, so the search bisects all the way."""
    a = np.array([[0.0], [0.0]])
    b = np.array([[1.0], [1.0]])
    for psi in (lambda X: X[..., 0] - 2.0, lambda X: -1.0 - X[..., 0]):
        theta, points, guarded = _cut_theta(psi, a, b, psi(a), psi(b))
        assert np.all(theta == 1.0 - 2.0 ** -(BISECT_ITERS + 1))
        np.testing.assert_array_equal(theta, _bisect_theta(psi, a, b))
        assert points == guarded == 2 * BISECT_ITERS


def bisected_arms(dom):
    """The arms as built before the joint search: every (axis, side) pair on
    its own, endpoints taken from the full coordinate array, 40 bisection
    steps."""
    pts = dom.grid_points().reshape(-1, dom.dim)
    flat = dom.interior.reshape(-1)
    arms = {}
    for d in range(dom.dim):
        for side in (+1, -1):
            stride = dom._strides[d]
            src = np.flatnonzero(flat & ~np.roll(flat, -side * stride))
            a = pts[src]
            b = pts[src + side * stride]
            theta = _bisect_theta(dom.psi, a, b)
            arms[(d, side)] = (src, np.maximum(theta, THETA_MIN),
                               a + theta[:, None] * (b - a))
    return arms


def _stencil_domains():
    """The benchmark families at the five stencil values of t, and the unit
    ball at 16 and 24 nodes, as name -> builder."""
    families = {"ball": translation_family(2, (1.0, 0.0), rho=0.5),
                "radial": radial_family(2, 1.0, rho=0.45),
                "quartic": quartic_translation_family((0.4, 0.0), rho=0.4)}
    builders = {}
    for name, fam in families.items():
        h_t = 0.05 * fam.rho
        for t in (0.0, h_t, -h_t, 1j * h_t, -1j * h_t):
            builders[f"{name}-t{t:g}"] = (
                lambda fam=fam, t=t: fam.domain_at(t, 24))
    for m in (16, 24):
        builders[f"unit-ball-{m}"] = (
            lambda m=m: GridDomain.ball(2, nodes_per_axis=m))
    return builders


STENCIL_DOMAINS = _stencil_domains()


@pytest.mark.parametrize("name", sorted(STENCIL_DOMAINS))
def test_arms_equal_bisection(name):
    dom = STENCIL_DOMAINS[name]()
    want = bisected_arms(dom)
    assert list(dom.arms) == list(want)
    for key, arrays in want.items():
        for got, ref in zip(dom.arms[key], arrays):
            assert got.dtype == ref.dtype
            np.testing.assert_array_equal(got, ref)
    np.testing.assert_array_equal(dom.interior_points,
                                  dom.grid_points()[dom.interior])
    # a handful of psi points per arm: 3 on quadrics, 5 on the quartic
    n_arms = sum(len(src) for src, _, _ in dom.arms.values())
    assert 2 * n_arms <= dom.cut_psi_points <= 6 * n_arms
    assert dom.cut_bisection_steps == 0


@pytest.mark.parametrize("name", sorted(STENCIL_DOMAINS))
def test_mask_slabs_match_whole_grid(name):
    """psi evaluated one slab at a time equals psi on the whole coordinate
    array, bit for bit."""
    dom = STENCIL_DOMAINS[name]()
    want = np.asarray(dom.psi(dom.grid_points()), dtype=float)
    assert dom.psi_grid.dtype == want.dtype
    np.testing.assert_array_equal(dom.psi_grid, want)


def test_mask_rejects_unvectorized_psi():
    with pytest.raises(ValidationError):
        GridDomain(1, lambda X: -1.0, [-1.0, -1.0], [1.0, 1.0], 10,
                   [0.0, 0.0])


# -- neighbor passes, assembly and ray distances against per-cell loops ---------

def shift_loop(arr, k, axis):
    """out[i] = arr[i - k e_axis], False or NaN where that leaves the array."""
    out = np.empty_like(arr)
    for i in np.ndindex(arr.shape):
        j = list(i)
        j[axis] -= k
        if 0 <= j[axis] < arr.shape[axis]:
            out[i] = arr[tuple(j)]
        else:
            out[i] = False if arr.dtype == bool else np.nan
    return out


def fill_loop(f, where, passes):
    """Each pass sets every NaN entry at `where` to the mean of the finite
    axis neighbors it had when the pass began."""
    f = f.copy()
    for _ in range(passes):
        before = f.copy()
        for i in np.ndindex(f.shape):
            if not where[i] or np.isfinite(before[i]):
                continue
            total, count = 0.0, 0
            for d in range(f.ndim):
                for k in (+1, -1):
                    j = list(i)
                    j[d] -= k
                    if 0 <= j[d] < f.shape[d] and np.isfinite(before[tuple(j)]):
                        total += before[tuple(j)]
                        count += 1
            if count:
                f[i] = total / count
    return f


@st.composite
def nan_grids(draw):
    shape = tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=4)))
    size = int(np.prod(shape))
    values = draw(st.lists(st.floats(-10.0, 10.0), min_size=size,
                           max_size=size))
    holes = draw(st.lists(st.booleans(), min_size=size, max_size=size))
    where = draw(st.lists(st.booleans(), min_size=size, max_size=size))
    f = np.where(holes, np.nan, values).reshape(shape)
    return f, np.asarray(where).reshape(shape)


@given(nan_grids(), st.sampled_from([1, -1, 2, -2]), st.data())
@settings(max_examples=150, deadline=None)
def test_shift_matches_loop(grid, k, data):
    f, mask = grid
    axis = data.draw(st.integers(0, f.ndim - 1))
    for arr in (f, mask):
        got = _shift(arr, k, axis)
        want = shift_loop(arr, k, axis)
        assert got.dtype == arr.dtype
        np.testing.assert_array_equal(got, want)


@given(nan_grids(), st.integers(1, 3))
@settings(max_examples=150, deadline=None)
def test_fill_from_neighbors_matches_loop(grid, passes):
    f, where = grid
    np.testing.assert_array_equal(_fill_from_neighbors(f, where, passes),
                                  fill_loop(f, where, passes))


def stencil_reference(dom, c_values):
    """(A, bfaces) built node by node: -1/h^2 to each interior axis
    neighbor, 1/(h^2 theta) on the diagonal for each cut arm, and 2c."""
    arm = {(key, s): (t, p) for key, (src, th, pts) in dom.arms.items()
           for s, t, p in zip(src, th, pts)}
    cut = {key: ([], [], []) for key in dom.arms}
    rows, cols, vals = [], [], []
    for node in zip(*np.nonzero(dom.interior)):
        i = dom.idx[node]
        diag = 0.0
        for d in range(dom.dim):
            ih2 = 1.0 / dom.h[d] ** 2
            for side in (+1, -1):
                nb = list(node)
                nb[d] += side
                j = dom.idx[tuple(nb)]
                if j >= 0:
                    rows.append(i)
                    cols.append(j)
                    vals.append(-ih2)
                    diag += ih2
                else:
                    flat = np.ravel_multi_index(node, dom.interior.shape)
                    t, p = arm[((d, side), flat)]
                    diag += ih2 / t
                    for part, v in zip(cut[(d, side)], (i, ih2 / t, p)):
                        part.append(v)
        if c_values is not None:
            diag = diag + 2.0 * c_values[i]
        rows.append(i)
        cols.append(i)
        vals.append(diag)
    N = dom.n_interior
    A = scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(N, N))
    bfaces = [(np.array(i), np.array(w), np.array(p))
              for i, w, p in cut.values() if i]
    return A, bfaces


def full_matrix(rb):
    """The red/black blocks permuted back to node order: one CSR matrix."""
    C = rb.C.tocoo()
    i, j = rb.red[C.row], rb.black[C.col]
    k = np.arange(len(rb.diag))
    return scipy.sparse.csr_matrix(
        (np.concatenate([C.data, C.data, rb.diag]),
         (np.concatenate([i, j, k]), np.concatenate([j, i, k]))),
        shape=(len(k), len(k)))


@pytest.mark.parametrize("build", [
    lambda: GridDomain.ball(2, nodes_per_axis=10, pole=[0.1, 0.0, -0.05, 0.0]),
    lambda: quartic_translation_family((0.4, 0.0), rho=0.4).domain_at(0.0, 12),
], ids=["ball-10", "quartic-12"])
def test_assemble_matches_stencil(build):
    dom = build()
    for c_values in (None, np.linspace(0.0, 3.0, dom.n_interior)):
        rb, bfaces = dom.assemble(c_values)
        A = full_matrix(rb)
        A_ref, bfaces_ref = stencil_reference(dom, c_values)
        assert A.shape == A_ref.shape
        assert (A - A_ref).nnz == 0
        assert len(bfaces) == len(bfaces_ref)
        for got, want in zip(bfaces, bfaces_ref):
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g, w)


# -- the red/black reduction against the full system ------------------------------

def annulus_c(pts):
    r = np.linalg.norm(pts, axis=-1)
    return 3.0 * ((r > 0.3) & (r < 0.8)) * np.sin(np.pi * (r - 0.3) / 0.5) ** 2


# (domain builder, c_spec): the pole is the domain's own
REDUCTION_CASES = {
    "ball-10": (lambda: GridDomain.ball(
        2, nodes_per_axis=10, pole=[0.1, 0.0, -0.05, 0.0]), None),
    "quartic-12": (lambda: quartic_translation_family(
        (0.4, 0.0), rho=0.4).domain_at(0.0, 12), None),
    "quartic-12-annulus": (lambda: quartic_translation_family(
        (0.4, 0.0), rho=0.4).domain_at(0.0, 12), annulus_c),
    "disk-33": (lambda: GridDomain.ball(
        1, nodes_per_axis=33, pole=[0.2, -0.1]), None),
}


def reference_rhs(dom, bfaces, c_values, pole):
    """b = -(weight) Q0(cut point) per cut arm, minus 2 c Q0 per node."""
    b = np.zeros(dom.n_interior)
    for i, w, p in bfaces:
        np.add.at(b, i, -w * fundamental_solution(dom.n, p, pole))
    if c_values is not None:
        b -= 2.0 * c_values * fundamental_solution(
            dom.n, dom.interior_points, pole)
    return b


def parity(dom, rows):
    """Grid-index sum mod 2 of interior nodes given by interior index."""
    flat = np.flatnonzero(dom.interior)[rows]
    return np.sum(np.unravel_index(flat, dom.interior.shape), axis=0) % 2


@pytest.mark.parametrize("name", sorted(REDUCTION_CASES))
def test_couplings_join_opposite_parity(name):
    """The elimination's precondition: in the node-by-node stencil every
    off-diagonal entry joins nodes of opposite index parity, and the
    assembled colours are the parities."""
    build, c_spec = REDUCTION_CASES[name]
    dom = build()
    c_values = None if c_spec is None else c_spec(dom.interior_points)
    A_ref, _ = stencil_reference(dom, c_values)
    A_ref = A_ref.tocoo()
    off = A_ref.row != A_ref.col
    assert np.any(off)
    assert np.all(parity(dom, A_ref.row[off]) != parity(dom, A_ref.col[off]))
    rb, _ = dom.assemble(c_values)
    assert np.all(parity(dom, rb.red) == 0)
    assert np.all(parity(dom, rb.black) == 1)
    np.testing.assert_array_equal(np.sort(np.concatenate([rb.red, rb.black])),
                                  np.arange(dom.n_interior))


@pytest.mark.parametrize("name", sorted(REDUCTION_CASES))
def test_reduced_solve_matches_direct(name):
    """u from CG on the Schur complement equals a direct solve of the full
    reference system, and the reported residual is that system's."""
    build, c_spec = REDUCTION_CASES[name]
    dom = build()
    c_values = None if c_spec is None else c_spec(dom.interior_points)
    fld = solve_green(dom, c_spec)
    A_ref, bfaces_ref = stencil_reference(dom, c_values)
    b = reference_rhs(dom, bfaces_ref, c_values, dom.pole)
    u_ref = scipy.sparse.linalg.spsolve(A_ref.tocsc(), b)
    # |u - u_ref| <= |A u - b| / lambda_min(A), which the stopping rule keeps
    # below 1e-8 |u_ref| on the 4-D domains; on the disk lambda_min is smaller
    # and the same rule allows about 1e-7 (the full-matrix Jacobi-CG solve
    # read 2e-8 on the 25-node disk)
    lam_min = scipy.sparse.linalg.eigsh(A_ref, k=1, sigma=0, which="LM",
                                        return_eigenvectors=False)[0]
    err = np.linalg.norm(fld.u - u_ref)
    assert err <= (1 + 1e-6) * np.linalg.norm(A_ref @ fld.u - b) / lam_min \
        + 1e-12 * np.linalg.norm(u_ref)
    if dom.n == 2:
        assert err <= 1e-8 * np.linalg.norm(u_ref)
    want = np.linalg.norm(A_ref @ fld.u - b) / np.linalg.norm(b)
    # the two products round differently: bound that by the row sums of |A||u|
    slack = (16 * np.finfo(float).eps
             * np.linalg.norm(abs(A_ref) @ abs(fld.u) + abs(b))
             / np.linalg.norm(b))
    assert abs(fld.residual - want) <= slack
    assert fld.residual < 1e-9


def jacobi_cg(A, b, rtol, maxiter):
    """CG with the Jacobi preconditioner on the full matrix, as the solver
    ran before the red/black reduction; returns (u, iterations)."""
    dinv = 1.0 / A.diagonal()
    M = scipy.sparse.linalg.LinearOperator(A.shape, matvec=lambda x: dinv * x)
    iters = [0]

    def count(_):
        iters[0] += 1

    u, info = scipy.sparse.linalg.cg(A, b, rtol=rtol, atol=0.0,
                                     maxiter=maxiter, M=M, callback=count)
    assert info == 0
    return u, iters[0]


@pytest.mark.parametrize("pole", [None, [0.3, 0.1, 0.0, -0.2]],
                         ids=["centre", "off-centre"])
def test_reduced_cg_halves_iterations(pole):
    dom = GridDomain.ball(2, nodes_per_axis=24)
    fld = solve_green(dom, pole=pole)
    rb, bfaces = dom.assemble()
    A = full_matrix(rb)
    b = reference_rhs(dom, bfaces, None, fld.pole)
    u, iters = jacobi_cg(A, b, 1e-9, 50 * 2 * dom.m)
    assert fld.iterations <= 0.6 * iters, (fld.iterations, iters)
    assert np.linalg.norm(fld.u - u) <= 1e-8 * np.linalg.norm(u)


# -- a pole that is a grid node ----------------------------------------------------

@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("family", [
    translation_family(2, (1.0, 0.0), rho=0.5), radial_family(2, 1.0, rho=0.45),
], ids=["translated-ball", "radial"])
def test_pole_node_check_is_quiet(family):
    """At 17 nodes per axis the pole is the centre node: g is +inf there,
    and the variation check runs without a numpy warning."""
    dom = family.domain_at(0.0, 17)
    assert all(dom.axes[d][dom.pole_node[d]] == dom.pole[d]
               for d in range(dom.dim))
    fld = solve_green(dom)
    g = fld.g
    k = dom.idx[dom.pole_node]
    assert g[k] == np.inf
    assert np.all(np.isfinite(np.delete(g, k)))
    rep = second_variation_check(family, 0.0, nodes_per_axis=17)
    assert np.isfinite(rep.lhs) and np.isfinite(rep.rhs)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_c_term_skips_pole_node():
    """With the pole on a node, a c that vanishes there leaves the
    right-hand side finite (the c term is formed where c > 0 only), and a c
    that does not is refused."""
    dom = GridDomain.ball(2, nodes_per_axis=17)
    assert dom.interior_points[dom.idx[dom.pole_node]].tolist() == [0.0] * 4
    lam = solve_green(dom, c_spec=annulus_c).lam
    lam_even = solve_green(GridDomain.ball(2, nodes_per_axis=16),
                           c_spec=annulus_c).lam
    assert lam < solve_green(dom).lam
    assert abs(lam - lam_even) < 0.05 * abs(lam_even)
    with pytest.raises(ValidationError):
        solve_green(dom, c_spec=1.0)


def scalar_distance(domain, x):
    """Ray distance as computed one ray at a time: 40 bisection steps on
    [0, span] per axis ray, skipping rays whose far end has psi < 0."""
    best = np.inf
    span = float(np.max(domain.box_hi - domain.box_lo))
    for d in range(domain.dim):
        for side in (+1, -1):
            e = np.zeros(domain.dim)
            e[d] = side
            lo, hi = 0.0, span
            if domain.psi((x + hi * e)[None, :])[0] < 0:
                continue
            for _ in range(BISECT_ITERS):
                mid = 0.5 * (lo + hi)
                if domain.psi((x + mid * e)[None, :])[0] < 0:
                    lo = mid
                else:
                    hi = mid
            best = min(best, 0.5 * (lo + hi))
    return best


@pytest.mark.parametrize("n", [1, 2])
def test_distance_to_boundary_unit_ball(n):
    dom = GridDomain.ball(n, nodes_per_axis=10)
    span = float(np.max(dom.box_hi - dom.box_lo))
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = rng.uniform(-0.5, 0.5, size=2 * n)
        root = np.sqrt(x ** 2 + 1.0 - np.sum(x ** 2))
        exact = float(np.min(np.minimum(-x + root, x + root)))
        got = _distance_to_boundary(dom, x)
        assert abs(got - exact) <= span * 2.0 ** -BISECT_ITERS
        assert abs(got - scalar_distance(dom, x)) <= span * 2.0 ** -BISECT_ITERS


def test_distance_skips_rays_ending_inside():
    """A ray whose far end lies in another component of {psi < 0} is
    skipped: from (0.5, 0) the +x ray ends in the disk around (2.6, 0), so
    the distance is sqrt(3)/2 along the y rays, not 0.5."""
    def psi(X):
        X = np.asarray(X, dtype=float)
        far = np.sum((X - np.array([2.6, 0.0])) ** 2, axis=-1) - 0.25
        return np.minimum(np.sum(X ** 2, axis=-1) - 1.0, far)

    dom = GridDomain(1, psi, [-1.1, -1.1], [1.1, 1.1], 12, [0.0, 0.0])
    x = np.array([0.5, 0.0])
    got = _distance_to_boundary(dom, x)
    assert abs(got - np.sqrt(0.75)) <= 2.2 * 2.0 ** -BISECT_ITERS
    assert abs(got - scalar_distance(dom, x)) <= 2.2 * 2.0 ** -BISECT_ITERS
