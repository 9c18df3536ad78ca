"""Tests for the sine basis, heat kernel, and Gaussian-envelope fits.

Every numeric expectation here is computed by an independent route inside
the test: scipy.integrate.quad for projections, closed-form eigenpair
values, and plain Python re-summation of the image and eigen series.
"""

import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from sgbh.model import ModelParams
from sgbh.solvers import BlowupGuard, SolverConfig, SolverEngine
from sgbh.spectral import (
    Field,
    Grid1D,
    SpectralBasis,
    apply_semigroup,
    gaussian_lp_norm,
    gaussian_lp_norm_closed_form,
    heat_kernel,
    heat_kernel_dy,
    validate_kernel_estimates,
)


# --- grid ---------------------------------------------------------------


def test_grid_nodes_and_spacing():
    grid = Grid1D(7)
    assert grid.spacing == pytest.approx(1.0 / 8.0, rel=1e-15)
    np.testing.assert_allclose(grid.nodes, np.arange(1, 8) / 8.0, rtol=1e-15)
    with pytest.raises(ValueError):
        grid.nodes[0] = 0.0


def test_grid_rejects_empty():
    with pytest.raises(ValueError):
        Grid1D(0)


def test_trapezoid_is_exact_on_the_resolved_modes():
    # discrete orthonormality of sin(j pi x) on the uniform interior grid
    grid = Grid1D(64)
    basis = SpectralBasis(grid, 8)
    assert grid.trapezoid(basis.phi[1] ** 2) == pytest.approx(1.0, abs=1e-12)
    assert grid.trapezoid(basis.phi[0] * basis.phi[2]) == pytest.approx(0.0, abs=1e-12)


def test_trapezoid_shape_check():
    grid = Grid1D(16)
    with pytest.raises(ValueError):
        grid.trapezoid(np.zeros(15))


def test_lp_norm_values_and_batching():
    grid = Grid1D(64)
    basis = SpectralBasis(grid, 4)
    assert grid.lp_norm(basis.phi[0], 2) == pytest.approx(1.0, abs=1e-12)
    batch = np.stack([basis.phi[0], 2.0 * basis.phi[0], np.zeros(64)])
    out = grid.lp_norm(batch, 2)
    np.testing.assert_allclose(out, [1.0, 2.0, 0.0], atol=1e-12)
    with pytest.raises(ValueError):
        grid.lp_norm(basis.phi[0], 0.5)


@pytest.mark.parametrize("p", [1, 2, 3, 4, 6, 8, 10, 12, 14])
def test_lp_norm_matches_abs_pow(p):
    # even p is formed by repeated squaring, odd p by abs(x)**p; p = 12 and 14
    # take the branch for a set bit of floor(p/4) after its leading one
    grid = Grid1D(64)
    rng = np.random.default_rng(p)
    rows = np.stack([rng.standard_normal(64), -3.0 * np.abs(rng.standard_normal(64)), np.zeros(64)])
    integral = grid.trapezoid(np.abs(rows) ** p)
    np.testing.assert_allclose(grid.lp_integral(rows, p), integral, rtol=1e-14, atol=0)
    np.testing.assert_allclose(grid.lp_norm(rows, p), integral ** (1.0 / p), rtol=1e-14, atol=0)
    bad = np.tile(rows[0], (4, 1))
    bad[0, 5], bad[1, 6], bad[2, 7], bad[3, 8] = np.nan, np.inf, -np.inf, 1e300
    with np.errstate(over="ignore", invalid="ignore"):
        norms = grid.lp_norm(bad, p)
    assert BlowupGuard(1e3).trips(norms).all()


# --- basis --------------------------------------------------------------


def test_eigenvalues_and_mode_samples():
    # n_points = 63 puts x = 1/2 exactly at node index 31
    grid = Grid1D(63)
    basis = SpectralBasis(grid, 4)
    np.testing.assert_allclose(
        basis.eigenvalues, [(j * np.pi) ** 2 for j in (1, 2, 3, 4)], rtol=1e-14
    )
    mid = 31
    assert grid.nodes[mid] == pytest.approx(0.5, abs=1e-15)
    assert basis.phi[0, mid] == pytest.approx(math.sqrt(2.0), rel=1e-14)
    assert basis.phi[1, mid] == pytest.approx(0.0, abs=1e-12)
    # phi_1'(1/2) = sqrt(2) pi cos(pi/2) = 0, phi_2'(1/2) = -2 sqrt(2) pi
    assert basis.dphi[0, mid] == pytest.approx(0.0, abs=1e-12)
    assert basis.dphi[1, mid] == pytest.approx(-2.0 * math.sqrt(2.0) * np.pi, rel=1e-12)


def test_basis_rejects_coarse_grid():
    with pytest.raises(ValueError):
        SpectralBasis(Grid1D(31), 8)
    with pytest.raises(ValueError):
        SpectralBasis(Grid1D(64), 0)


def test_discrete_gram_identity():
    grid = Grid1D(64)
    basis = SpectralBasis(grid, 8)
    gram = grid.spacing * (basis.phi @ basis.phi.T)
    np.testing.assert_allclose(gram, np.eye(8), atol=1e-10)


# --- fields and conversions ----------------------------------------------


def test_field_validation():
    with pytest.raises(ValueError):
        Field(np.zeros((2, 2)))
    f = Field([1.0, 0.0])
    with pytest.raises(ValueError):
        f.data[0] = 2.0


def _projector(n_points, n_modes):
    """``initial_coeffs`` of an engine on the grid: grid samples to sine coefficients."""
    cfg = SolverConfig(dt=0.1, t_end=0.1, n_modes=n_modes, n_points=n_points)
    params = ModelParams(nu=1.0, alpha=0.0, beta=0.0, gamma=0.5, delta=1)
    return SolverEngine(params, cfg).initial_coeffs


def test_project_pure_mode():
    grid = Grid1D(64)
    basis = SpectralBasis(grid, 8)
    f = Field(basis.phi[2])
    coeffs = _projector(64, 8)(f)
    expected = np.zeros(8)
    expected[2] = 1.0
    np.testing.assert_allclose(coeffs, expected, atol=1e-12)


def test_round_trip_band_limited():
    rng = np.random.default_rng(7)
    grid = Grid1D(64)
    basis = SpectralBasis(grid, 8)
    c = rng.standard_normal(8)
    back = _projector(64, 8)(Field(c @ basis.phi))
    np.testing.assert_allclose(back, c, atol=1e-12)


def test_conversion_shape_errors():
    with pytest.raises(ValueError, match="grid length 32 != n_points 64"):
        _projector(64, 8)(Field(np.zeros(32)))


def test_parabola_projection_against_quadrature():
    """Coefficients of x(1-x) agree with adaptive quadrature and closed form."""
    grid = Grid1D(2048)
    f = Field(grid.nodes * (1.0 - grid.nodes))
    coeffs = _projector(2048, 8)(f)
    for j in range(1, 9):
        oracle, _ = quad(
            lambda x, j=j: x * (1.0 - x) * math.sqrt(2.0) * math.sin(j * np.pi * x),
            0.0,
            1.0,
            epsabs=1e-14,
        )
        closed = 2.0 * math.sqrt(2.0) * (1.0 - (-1.0) ** j) / (j * np.pi) ** 3
        assert oracle == pytest.approx(closed, abs=1e-13)
        assert coeffs[j - 1] == pytest.approx(closed, abs=1e-11)


def test_parseval_band_limited():
    rng = np.random.default_rng(11)
    grid = Grid1D(128)
    basis = SpectralBasis(grid, 16)
    c = rng.standard_normal(16)
    u = c @ basis.phi
    assert grid.trapezoid(u**2) == pytest.approx(float(np.sum(c**2)), rel=1e-12)


# --- semigroup ------------------------------------------------------------


def test_semigroup_mode_decay():
    basis = SpectralBasis(Grid1D(64), 4)
    out = apply_semigroup(np.array([1.0, 0.0, 0.0, 0.0]), 1.0 / np.pi**2, basis)
    assert out[0] == pytest.approx(math.exp(-1.0), rel=1e-13)
    np.testing.assert_allclose(out[1:], 0.0, atol=1e-15)


def test_semigroup_identity_and_kind():
    basis = SpectralBasis(Grid1D(64), 4)
    c = np.array([0.3, -0.2, 0.1, 0.0])
    out = apply_semigroup(c, 0.0, basis)
    assert out.shape == c.shape
    np.testing.assert_allclose(out, c, atol=1e-14)
    with pytest.raises(ValueError):
        apply_semigroup(c, -0.1, basis)


def test_semigroup_composition():
    rng = np.random.default_rng(3)
    basis = SpectralBasis(Grid1D(64), 8)
    c = rng.standard_normal(8)
    one = apply_semigroup(apply_semigroup(c, 0.004, basis), 0.006, basis)
    two = apply_semigroup(c, 0.01, basis)
    np.testing.assert_allclose(one, two, rtol=1e-13)


def test_semigroup_matches_kernel_quadrature():
    """Diagonal multiplier equals trapezoid integration against the kernel."""
    rng = np.random.default_rng(5)
    grid = Grid1D(128)
    basis = SpectralBasis(grid, 16)
    c = rng.standard_normal(16)
    t = 0.01
    smooth = apply_semigroup(c, t, basis) @ basis.phi
    kern = heat_kernel(t, grid)
    quadrature = grid.spacing * (kern @ (c @ basis.phi))
    np.testing.assert_allclose(quadrature, smooth, atol=1e-8)


# --- heat kernel ----------------------------------------------------------


def _image_sum_scalar(t, x, y, truncation):
    # plain-loop oracle for the image series at one point pair
    total = 0.0
    for m in range(-truncation, truncation + 1):
        total += math.exp(-((y - x - 2 * m) ** 2) / (4 * t))
        total -= math.exp(-((y + x - 2 * m) ** 2) / (4 * t))
    return (4 * np.pi * t) ** -0.5 * total


def _eigen_sum_scalar(t, x, y, n_terms):
    total = 0.0
    for j in range(1, n_terms + 1):
        total += (
            2.0
            * math.exp(-((j * np.pi) ** 2) * t)
            * math.sin(j * np.pi * x)
            * math.sin(j * np.pi * y)
        )
    return total


def test_heat_kernel_values_against_loop_oracles():
    grid = Grid1D(127)
    mid, quarter = 63, 31
    assert grid.nodes[mid] == pytest.approx(0.5, abs=1e-15)
    assert grid.nodes[quarter] == pytest.approx(0.25, abs=1e-15)
    t = 0.05
    img = heat_kernel(t, grid, method="images")
    assert img[mid, mid] == pytest.approx(_image_sum_scalar(t, 0.5, 0.5, 10), rel=1e-14)
    assert img[quarter, mid] == pytest.approx(
        _image_sum_scalar(t, 0.25, 0.5, 10), rel=1e-14
    )
    eig = heat_kernel(t, grid, method="eigen")
    assert eig[mid, mid] == pytest.approx(_eigen_sum_scalar(t, 0.5, 0.5, 200), rel=1e-13)


def test_heat_kernel_symmetry_positivity_substochastic():
    grid = Grid1D(128)
    for t in (0.01, 0.05, 0.2):
        vals = heat_kernel(t, grid)
        np.testing.assert_allclose(vals, vals.T, atol=1e-13)
        assert vals.min() >= -1e-12
        mass = grid.spacing * vals.sum(axis=1)
        assert mass.max() <= 1.0 + 1e-10
        assert mass.min() >= 0.0


def test_heat_kernel_methods_agree():
    grid = Grid1D(64)
    img = heat_kernel(0.1, grid, method="images")
    eig = heat_kernel(0.1, grid, method="eigen")
    assert np.abs(img - eig).max() < 1e-12


def test_heat_kernel_truncation_warnings():
    grid = Grid1D(32)
    # 10 image pairs leave a tail ~6.7e-11 at t = 5; 128 modes leave ~0.39 at t = 1e-5
    with pytest.warns(RuntimeWarning, match=r"images truncation 10 leaves tail ~6\.69e-11"):
        heat_kernel(5.0, grid, method="images")
    with pytest.warns(RuntimeWarning, match=r"eigen truncation 128 leaves tail ~3\.87e-01"):
        heat_kernel(1e-5, grid, method="eigen")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        heat_kernel(0.1, grid, method="images")
        heat_kernel(0.1, grid, method="eigen")


def test_heat_kernel_validation():
    grid = Grid1D(32)
    with pytest.raises(ValueError):
        heat_kernel(0.0, grid)
    with pytest.raises(ValueError):
        heat_kernel(-0.1, grid)
    with pytest.raises(ValueError):
        heat_kernel(0.1, grid, method="fourier")
    with pytest.raises(ValueError):
        heat_kernel_dy(0.0, grid)


def test_kernel_dy_matches_eigen_derivative():
    """Image-series derivative vs term-by-term eigen-series derivative."""
    grid = Grid1D(64)
    t = 0.05
    got = heat_kernel_dy(t, grid)
    j = np.arange(1, 401)
    decay = 2.0 * (j * np.pi) * np.exp(-((j * np.pi) ** 2) * t)
    sx = np.sin(np.pi * np.outer(j, grid.nodes))
    cy = np.cos(np.pi * np.outer(j, grid.nodes))
    oracle = (sx * decay[:, None]).T @ cy
    np.testing.assert_allclose(got, oracle, atol=1e-10)


# --- envelope fits ----------------------------------------------------------


def test_gaussian_lp_norm_against_closed_form():
    for s in (0.02, 0.1, 0.5):
        for p in (2, 8):
            for a in (1.0, 4.0):
                num = gaussian_lp_norm(s, p, a)
                ref = gaussian_lp_norm_closed_form(s, p, a)
                assert num == pytest.approx(ref, rel=1e-6)


def test_validate_kernel_estimates_fits_and_roundtrip():
    grid = Grid1D(128)
    t_samples = np.linspace(0.01, 0.5, 8)
    fits = validate_kernel_estimates(t_samples, grid)
    assert all(f["pass"] for f in fits)
    sup, grad, gauss = fits
    # the on-diagonal value at small t forces C >= (4 pi)^(-1/2)
    assert sup["fitted_C"] >= (4.0 * np.pi) ** -0.5 - 1e-9
    assert sup["fitted_C"] < 1.0
    assert np.isfinite(grad["fitted_C"]) and grad["fitted_C"] > 0
    ratios = [
        gaussian_lp_norm_closed_form(s, 2, 1.0) / s**0.25 for s in t_samples
    ]
    assert gauss["fitted_C"] == pytest.approx(max(ratios), rel=0.05)
    assert gauss["max_violation"] <= 1e-12
    parsed = json.loads(json.dumps(fits))
    assert parsed == fits
    assert [d["estimate_id"] for d in parsed] == [
        "kernel_sup",
        "kernel_gradient",
        "gaussian_lp",
    ]
    assert all("pass" in d for d in parsed)


def test_validate_kernel_estimates_input_checks():
    grid = Grid1D(64)
    with pytest.raises(ValueError):
        validate_kernel_estimates([], grid)
    with pytest.raises(ValueError):
        validate_kernel_estimates([0.1, 1.5], grid)
    with pytest.raises(ValueError):
        validate_kernel_estimates([0.0, 0.1], grid)


def _warm_traced_peak(fn):
    """tracemalloc peak, in bytes, of a second call of ``fn``."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_kernel_sums_and_fit_hold_one_image_and_one_time_at_a_time():
    """The images sums add one m at a time and the envelope fit streams over
    the sample times, so each holds a few (n, n) arrays however many images
    and times they sum.  Stacking all 21 images and keeping
    every time's log-kernel took 105, 126 and 142 such arrays at n = 128."""
    grid = Grid1D(128)
    n2 = 8 * 128**2
    assert _warm_traced_peak(lambda: heat_kernel(0.1, grid)) <= 8 * n2
    assert _warm_traced_peak(lambda: heat_kernel_dy(0.1, grid)) <= 8 * n2
    fit = {
        count: _warm_traced_peak(
            lambda: validate_kernel_estimates(np.linspace(0.01, 0.5, count), grid)
        )
        for count in (2, 16)
    }
    assert fit[16] <= 12 * n2
    assert fit[16] - fit[2] < 2 * n2
