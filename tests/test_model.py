"""Tests for model parameters, polynomial nonlinearities, and noise bounds.

Derivative checks use central finite differences as the oracle, evaluated
at seeded random points; closed-form spot values are asserted directly.
"""

import numpy as np
import pytest

from sgbh.model import (
    ModelParams,
    NoiseCoefficient,
    advective_derivative,
    advective_nonlinearity,
    noise_coefficient_eval,
    reaction_derivative,
    reaction_nonlinearity,
    reaction_remainder,
    reaction_remainder_derivative,
    reaction_second_derivative,
)


# --- parameter validation ---------------------------------------------------


def test_params_accept_desk_defaults():
    p = ModelParams(nu=0.1, alpha=1.0, beta=1.0, gamma=0.5, delta=1, p_norm=8)
    assert p.validate_for_clt() is p


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(nu=0.0),
        dict(nu=-0.1),
        dict(alpha=-1.0),
        dict(beta=-0.5),
        dict(gamma=0.0),
        dict(gamma=1.0),
        dict(gamma=1.5),
        dict(delta=0),
        dict(delta=1.5),
        dict(p_norm=3),
        dict(p_norm=0),
        dict(p_norm=2.5),
    ],
)
def test_params_reject_bad_values(kwargs):
    base = dict(nu=0.1, alpha=1.0, beta=1.0, gamma=0.5, delta=1, p_norm=8)
    base.update(kwargs)
    with pytest.raises(ValueError):
        ModelParams(**base)


def test_clt_validation_threshold():
    # needs p_norm > max(6, 2*delta+1): 6 fails for delta=1, 8 fails for delta=4
    with pytest.raises(ValueError):
        ModelParams(nu=0.1, alpha=1, beta=1, gamma=0.5, delta=1, p_norm=6).validate_for_clt()
    with pytest.raises(ValueError):
        ModelParams(nu=0.1, alpha=1, beta=1, gamma=0.5, delta=4, p_norm=8).validate_for_clt()
    ModelParams(nu=0.1, alpha=1, beta=1, gamma=0.5, delta=3, p_norm=8).validate_for_clt()


# --- closed-form spot values --------------------------------------------------


def test_nonlinearity_spot_values():
    # c vanishes at u = 0, u = 1, and u^delta = gamma
    assert reaction_nonlinearity(0.0, 0.5, 1) == 0.0
    assert reaction_nonlinearity(1.0, 0.5, 1) == 0.0
    assert reaction_nonlinearity(0.5, 0.5, 1) == 0.0
    assert reaction_nonlinearity(np.sqrt(0.3), 0.3, 2) == pytest.approx(0.0, abs=1e-15)
    # p(1/2) = (1/2)^2 for delta = 1
    assert advective_nonlinearity(0.5, 1) == pytest.approx(0.25, rel=1e-15)
    assert advective_nonlinearity(2.0, 3) == pytest.approx(16.0, rel=1e-15)


@pytest.mark.parametrize("delta", [1, 2])
def test_reaction_nonlinearity_leaves_its_input_alone(delta):
    u = np.linspace(-1.5, 1.5, 33).reshape(3, 11)
    before = u.copy()
    got = reaction_nonlinearity(u, 0.3, delta)
    np.testing.assert_array_equal(u, before)
    ud = before**delta
    np.testing.assert_array_equal(got, before * (1.0 - ud) * (ud - 0.3))


@pytest.mark.parametrize("delta", [1, 2, 3])
def test_reaction_is_its_linear_part_plus_the_remainder(delta):
    """c(u) = -gamma u + r(u) and c'(u) = -gamma + r'(u), with r built from the
    advective power u^(delta+1), which it reads and does not write."""
    gamma = 0.3
    u = np.random.default_rng(delta).uniform(-2.0, 2.0, size=(4, 50))
    power = advective_nonlinearity(u, delta)
    before = power.copy(), u.copy()
    r = reaction_remainder(u, gamma, delta, power, np.empty_like(u))
    assert all(np.array_equal(a, b) for a, b in zip((power, u), before))
    for got, want in (
        (-gamma * u + r, reaction_nonlinearity(u, gamma, delta)),
        (-gamma + reaction_remainder_derivative(u, gamma, delta), reaction_derivative(u, gamma, delta)),
    ):
        assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)


def test_derivative_spot_values():
    assert reaction_derivative(1.0, 0.5, 1) == pytest.approx(-0.5, rel=1e-14)
    assert reaction_derivative(0.0, 0.5, 1) == pytest.approx(-0.5, rel=1e-14)
    assert reaction_derivative(0.0, 0.25, 3) == pytest.approx(-0.25, rel=1e-14)
    assert advective_derivative(1.0, 1) == pytest.approx(2.0, rel=1e-15)
    assert advective_derivative(0.5, 2) == pytest.approx(0.75, rel=1e-15)
    # for delta=1, gamma=0 the curvature reduces to 2 - 6 u0
    u0 = np.array([0.0, 0.5, 1.0])
    got = reaction_second_derivative(u0, 1e-12, 1)
    np.testing.assert_allclose(got, 2.0 - 6.0 * u0, atol=1e-10)
    assert reaction_second_derivative(0.0, 0.5, 2) == pytest.approx(0.0, abs=1e-15)


# --- finite-difference oracles -------------------------------------------------


def _central_first(f, u, h):
    return (f(u + h) - f(u - h)) / (2.0 * h)


def _central_second(f, u, h):
    return (f(u + h) - 2.0 * f(u) + f(u - h)) / h**2


def _rel_err(got, ref):
    return np.abs(got - ref) / np.maximum(1.0, np.maximum(np.abs(got), np.abs(ref)))


@pytest.mark.parametrize("delta", [1, 2, 3])
@pytest.mark.parametrize("gamma", [0.25, 0.5, 0.75])
def test_derivatives_match_central_differences(delta, gamma):
    rng = np.random.default_rng(2026)
    u = rng.uniform(-2.0, 2.0, size=100)
    h = 1e-5
    fd_p = _central_first(lambda v: advective_nonlinearity(v, delta), u, h)
    assert _rel_err(advective_derivative(u, delta), fd_p).max() < 1e-6
    fd_c = _central_first(lambda v: reaction_nonlinearity(v, gamma, delta), u, h)
    assert _rel_err(reaction_derivative(u, gamma, delta), fd_c).max() < 1e-6
    fd_c2 = _central_second(lambda v: reaction_nonlinearity(v, gamma, delta), u, 1e-4)
    assert _rel_err(reaction_second_derivative(u, gamma, delta), fd_c2).max() < 1e-6


# --- noise coefficient -----------------------------------------------------------


def _growth_and_lipschitz(g):
    """K = |kappa0| + |kappa1| and L = |kappa1|: |g| <= K(1+|r|), |g(r)-g(s)| <= L|r-s|."""
    return abs(g.kappa0) + abs(g.kappa1), abs(g.kappa1)


def test_noise_coefficient_eval_and_bounds():
    g = NoiseCoefficient(kind="affine", kappa0=1.0, kappa1=0.5)
    growth, lipschitz = _growth_and_lipschitz(g)
    assert growth == pytest.approx(1.5)
    assert lipschitz == pytest.approx(0.5)
    assert noise_coefficient_eval(g, 0.0, 0.5, 2.0) == pytest.approx(2.0)
    assert abs(g(0.0, 0.5, 2.0)) <= growth * (1.0 + 2.0)
    r = np.array([-1.0, 0.0, 3.0])
    np.testing.assert_allclose(g(0.1, 0.2, r), 1.0 + 0.5 * r, rtol=1e-15)


def test_noise_coefficient_growth_and_lipschitz_hold_at_random_points():
    rng = np.random.default_rng(99)
    for kappa0, kappa1 in [(1.0, 0.5), (-0.3, 0.2), (0.0, 1.0), (2.0, 0.0)]:
        g = NoiseCoefficient(kind="affine", kappa0=kappa0, kappa1=kappa1)
        r = rng.uniform(-10, 10, size=200)
        s = rng.uniform(-10, 10, size=200)
        growth, lipschitz = _growth_and_lipschitz(g)
        assert np.all(np.abs(g(0, 0, r)) <= growth * (1 + np.abs(r)) + 1e-12)
        assert np.all(np.abs(g(0, 0, r) - g(0, 0, s)) <= lipschitz * np.abs(r - s) + 1e-12)


def test_constant_kind_forces_zero_slope():
    g = NoiseCoefficient(kind="constant", kappa0=2.0)
    assert g.kappa1 == 0.0
    np.testing.assert_allclose(g(0, 0, np.array([1.0, 5.0])), [2.0, 2.0], rtol=1e-15)
    with pytest.raises(ValueError):
        NoiseCoefficient(kind="constant", kappa0=1.0, kappa1=0.1)
    with pytest.raises(ValueError):
        NoiseCoefficient(kind="multiplicative", kappa0=1.0)
