"""Tests for the exponential-Euler solvers.

Reference solutions come from independent discretizations: the exact heat
semigroup for the linear part, a centered finite-difference integration of
the full equation via scipy.integrate.solve_ivp, and the continuous-time
Galerkin system integrated with tight tolerances.  Stochastic checks use
the exact variance recursion of the discrete scheme.
"""

import io
import struct

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from sgbh.cli import _norms_table
from sgbh.deviation import SpeedFunction
from sgbh.model import (
    ModelParams,
    NoiseCoefficient,
    advective_derivative,
    advective_nonlinearity,
    noise_coefficient_eval,
    reaction_derivative,
    reaction_nonlinearity,
)
from sgbh.noise import (
    BinaryFormatError,
    ControlPath,
    NoiseRealization,
    NoiseSpec,
    control_bytes,
    load_control,
    sample_noise,
)
from sgbh.solvers import (
    BlowupError,
    BlowupGuard,
    NumericalAbortError,
    SolverConfig,
    SolverEngine,
    Trajectory,
    load_trajectory,
    solve_clt_limit,
    solve_controlled,
    solve_deterministic,
    solve_skeleton,
    solve_spde,
    trajectory_bytes,
)
from sgbh.spectral import Field, Grid1D, SpectralBasis

DESK = dict(nu=0.1, alpha=1.0, beta=1.0, gamma=0.5, delta=1, p_norm=8)
G_CONSTANT = NoiseCoefficient(kind="constant", kappa0=0.7)
G_AFFINE = NoiseCoefficient(kind="affine", kappa0=0.7, kappa1=-1.3)


def _parabola(cfg):
    grid = Grid1D(cfg.n_points)
    return Field(grid.nodes * (1.0 - grid.nodes))


# --- configuration -----------------------------------------------------------


def test_config_validation():
    cfg = SolverConfig(dt=0.001, t_end=0.25)
    assert cfg.n_steps == 250
    with pytest.raises(ValueError):
        SolverConfig(dt=0.0, t_end=1.0)
    with pytest.raises(ValueError):
        SolverConfig(dt=0.001, t_end=0.0)
    with pytest.raises(ValueError):
        SolverConfig(dt=0.003, t_end=0.25)
    with pytest.raises(ValueError, match="grid too coarse"):
        SolverConfig(dt=0.001, t_end=0.25, n_modes=32, n_points=64)
    with pytest.raises(ValueError):
        SolverConfig(dt=0.001, t_end=0.25, n_modes=0, n_points=64)
    SolverConfig(dt=0.001, t_end=0.25, n_modes=16, n_points=64)


def test_engine_aliasing_guard():
    params = ModelParams(**{**DESK, "delta": 2})
    # degree 2*delta+1 = 5 needs n_points >= 2*5*n_modes
    with pytest.raises(ValueError):
        SolverEngine(params, SolverConfig(dt=0.001, t_end=0.1, n_modes=32, n_points=256))
    SolverEngine(params, SolverConfig(dt=0.001, t_end=0.1, n_modes=32, n_points=320))


# --- deterministic solver -------------------------------------------------------


def test_pure_heat_decay_is_exact():
    # alpha = beta = 0 makes the scheme the exact semigroup on each mode
    params = ModelParams(nu=0.1, alpha=0.0, beta=0.0, gamma=0.5, delta=1)
    cfg = SolverConfig(dt=0.001, t_end=0.25, n_modes=8, n_points=64)
    c0 = np.zeros(8)
    c0[0] = 1.0
    traj = solve_deterministic(c0, params, cfg)
    assert traj.coeffs[-1, 0] == pytest.approx(np.exp(-0.1 * np.pi**2 * 0.25), rel=1e-12)
    np.testing.assert_allclose(traj.coeffs[-1, 1:], 0.0, atol=1e-15)
    assert traj.n_steps * traj.dt == pytest.approx(0.25, rel=1e-12)


def _fd_reference(params, t_end, n_fd):
    """Centered finite differences in space, adaptive RK in time."""
    h = 1.0 / (n_fd + 1)
    x = h * np.arange(1, n_fd + 1)
    pad = np.zeros(n_fd + 2)

    def rhs(_t, u):
        pad[1:-1] = u
        lap = (pad[2:] - 2.0 * pad[1:-1] + pad[:-2]) / h**2
        pu = pad ** (params.delta + 1) / (params.delta + 1)
        adv = (pu[2:] - pu[:-2]) / (2.0 * h)
        reac = reaction_nonlinearity(u, params.gamma, params.delta)
        return params.nu * lap - params.alpha * adv + params.beta * reac

    sol = solve_ivp(
        rhs, (0.0, t_end), x * (1.0 - x), rtol=1e-8, atol=1e-10, t_eval=[t_end]
    )
    assert sol.success
    return x, sol.y[:, -1]


def test_deterministic_matches_finite_difference_reference():
    params = ModelParams(**DESK)
    cfg = SolverConfig(dt=0.001, t_end=0.25, n_modes=32, n_points=255)
    traj = solve_deterministic(_parabola(cfg), params, cfg)
    x_fd, u_fd = _fd_reference(params, 0.25, n_fd=511)
    # solver nodes (i+1)/256 sit at fd indices 2i+1
    on_solver_nodes = u_fd[1::2]
    diff = np.abs(traj.grid_values(-1) - on_solver_nodes)
    assert diff.max() < 1e-3


def test_deterministic_time_convergence_to_galerkin_ode():
    """Endpoint error against tight-tolerance ODE integration shrinks at order ~1."""
    params = ModelParams(**DESK)
    base = dict(n_modes=16, n_points=128)
    eng = SolverEngine(params, SolverConfig(dt=0.001, t_end=0.25, **base))
    lam = eng.basis.eigenvalues
    u0 = _parabola(SolverConfig(dt=0.001, t_end=0.25, **base))
    a0 = eng.initial_coeffs(u0)

    def rhs(_t, a):
        return -params.nu * lam * a + eng.nonlinear_drift(eng.grid_values(a))

    ref = solve_ivp(rhs, (0.0, 0.25), a0, rtol=1e-11, atol=1e-13, t_eval=[0.25]).y[:, -1]
    errs = []
    for dt in (0.005, 0.0025, 0.00125):
        cfg = SolverConfig(dt=dt, t_end=0.25, **base)
        traj = solve_deterministic(u0, params, cfg)
        errs.append(np.linalg.norm(traj.coeffs[-1] - ref))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert orders.min() > 0.9
    assert errs[-1] < 1e-3


# --- stochastic solver -----------------------------------------------------------


def test_spde_linear_mode_variance_matches_discrete_recursion():
    """For the linear equation each mode is a discrete OU recursion with
    Var(a_K) = eps q^2 dt E^2 (1 - E^{2K}) / (1 - E^2)."""
    params = ModelParams(nu=0.1, alpha=0.0, beta=0.0, gamma=0.5, delta=1)
    cfg = SolverConfig(dt=0.001, t_end=0.1, n_modes=4, n_points=16)
    spec = NoiseSpec(n_modes=4, eta=0.3)
    g = NoiseCoefficient(kind="constant", kappa0=1.0)
    eps, n_paths = 0.5, 400
    ends = np.empty((n_paths, 4))
    for i in range(n_paths):
        noise = sample_noise(spec, cfg.dt, cfg.n_steps, seed=777, path_index=i)
        ends[i] = solve_spde(np.zeros(4), params, g, eps, noise, cfg).coeffs[-1]
    lam = (np.arange(1, 5) * np.pi) ** 2
    e = np.exp(-params.nu * lam * cfg.dt)
    k = cfg.n_steps
    var_theory = eps * spec.q**2 * cfg.dt * e**2 * (1 - e ** (2 * k)) / (1 - e**2)
    s2 = ends.var(axis=0, ddof=1)
    z = (s2 - var_theory) / (var_theory * np.sqrt(2.0 / (n_paths - 1)))
    assert np.abs(z).max() < 4.0
    mean_bound = 4.0 * np.sqrt(var_theory / n_paths)
    assert np.all(np.abs(ends.mean(axis=0)) < mean_bound)


def test_spde_eps_range_and_noise_grid_checks():
    params = ModelParams(**DESK)
    cfg = SolverConfig(dt=0.001, t_end=0.1, n_modes=8, n_points=64)
    spec = NoiseSpec(n_modes=8, eta=0.3)
    g = NoiseCoefficient(kind="affine", kappa0=1.0, kappa1=0.5)
    noise = sample_noise(spec, cfg.dt, cfg.n_steps, seed=1)
    for eps in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            solve_spde(_parabola(cfg), params, g, eps, noise, cfg)
    wrong = sample_noise(spec, cfg.dt, cfg.n_steps - 1, seed=1)
    with pytest.raises(ValueError):
        solve_spde(_parabola(cfg), params, g, 0.1, wrong, cfg)


def test_spde_is_deterministic_given_the_realization():
    params = ModelParams(**DESK)
    cfg = SolverConfig(dt=0.001, t_end=0.05, n_modes=8, n_points=64)
    spec = NoiseSpec(n_modes=8, eta=0.3)
    g = NoiseCoefficient(kind="affine", kappa0=1.0, kappa1=0.5)
    noise = sample_noise(spec, cfg.dt, cfg.n_steps, seed=9)
    one = solve_spde(_parabola(cfg), params, g, 0.01, noise, cfg)
    two = solve_spde(_parabola(cfg), params, g, 0.01, noise, cfg)
    assert np.array_equal(one.coeffs, two.coeffs)


# --- deviation-scale processes ---------------------------------------------------


def _desk_setup(t_end=0.1, dt=0.001, n_modes=16, n_points=128, eta=0.3):
    params = ModelParams(**DESK)
    cfg = SolverConfig(dt=dt, t_end=t_end, n_modes=n_modes, n_points=n_points)
    spec = NoiseSpec(n_modes=n_modes, eta=eta)
    g = NoiseCoefficient(kind="affine", kappa0=1.0, kappa1=0.5)
    u0 = solve_deterministic(_parabola(cfg), params, cfg)
    return params, cfg, spec, g, u0


def test_coupling_identity_links_spde_and_deviation_process():
    """u_eps == u0 + sqrt(eps) * lambda * Z_eps, step by step."""
    params, cfg, spec, g, u0 = _desk_setup()
    noise = sample_noise(spec, cfg.dt, cfg.n_steps, seed=42)
    eps, lam = 0.01, 0.01**-0.25
    u_eps = solve_spde(_parabola(cfg), params, g, eps, noise, cfg)
    z = solve_controlled(u0, params, g, eps, SpeedFunction(0.25), noise, None, cfg)
    recon = u0.coeffs + np.sqrt(eps) * lam * z.coeffs
    np.testing.assert_allclose(recon, u_eps.coeffs, atol=1e-9)


def test_theta_zero_reduces_to_clt_scale():
    params, cfg, spec, g, u0 = _desk_setup()
    noise = sample_noise(spec, cfg.dt, cfg.n_steps, seed=43)
    eps = 0.04
    u_eps = solve_spde(_parabola(cfg), params, g, eps, noise, cfg)
    z = solve_controlled(u0, params, g, eps, SpeedFunction(0.0), noise, None, cfg)
    np.testing.assert_allclose(
        z.coeffs, (u_eps.coeffs - u0.coeffs) / np.sqrt(eps), atol=1e-9
    )


def test_clt_limit_is_linear_in_the_noise():
    params, cfg, spec, g, u0 = _desk_setup()
    r1 = sample_noise(spec, cfg.dt, cfg.n_steps, seed=44, path_index=0)
    r2 = sample_noise(spec, cfg.dt, cfg.n_steps, seed=44, path_index=1)
    summed = NoiseRealization(
        dt=cfg.dt,
        n_steps=cfg.n_steps,
        increments=r1.increments + r2.increments,
        spec=spec,
    )
    v1 = solve_clt_limit(u0, params, g, r1, cfg)
    v2 = solve_clt_limit(u0, params, g, r2, cfg)
    v12 = solve_clt_limit(u0, params, g, summed, cfg)
    np.testing.assert_allclose(v12.coeffs, v1.coeffs + v2.coeffs, atol=1e-12)
    assert np.all(v1.coeffs[0] == 0.0)


def test_skeleton_is_linear_in_the_control():
    params, cfg, spec, g, u0 = _desk_setup()
    rng = np.random.default_rng(8)
    h1 = ControlPath(cfg.dt, cfg.n_steps, rng.standard_normal((16, cfg.n_steps)))
    h2 = ControlPath(cfg.dt, cfg.n_steps, rng.standard_normal((16, cfg.n_steps)))
    both = ControlPath(cfg.dt, cfg.n_steps, h1.hdot + h2.hdot)
    scaled = ControlPath(cfg.dt, cfg.n_steps, 2.5 * h1.hdot)
    z1 = solve_skeleton(u0, params, g, h1, cfg, noise_spec=spec)
    z2 = solve_skeleton(u0, params, g, h2, cfg, noise_spec=spec)
    z_both = solve_skeleton(u0, params, g, both, cfg, noise_spec=spec)
    z_scaled = solve_skeleton(u0, params, g, scaled, cfg, noise_spec=spec)
    np.testing.assert_allclose(z_both.coeffs, z1.coeffs + z2.coeffs, atol=1e-10)
    np.testing.assert_allclose(z_scaled.coeffs, 2.5 * z1.coeffs, atol=1e-10)


def test_controlled_requires_some_forcing_and_valid_eps():
    params, cfg, spec, g, u0 = _desk_setup()
    noise = sample_noise(spec, cfg.dt, cfg.n_steps, seed=1)
    speed = SpeedFunction(0.1)
    with pytest.raises(ValueError):
        solve_controlled(u0, params, g, 0.01, speed, None, None, cfg)
    with pytest.raises(ValueError):
        solve_controlled(u0, params, g, -0.01, speed, noise, None, cfg)
    with pytest.raises(ValueError):
        solve_controlled(u0, params, g, 1.5, speed, noise, None, cfg)
    bad_h = ControlPath(cfg.dt, cfg.n_steps - 1, np.zeros((16, cfg.n_steps - 1)))
    with pytest.raises(ValueError):
        solve_skeleton(u0, params, g, bad_h, cfg, noise_spec=spec)
    wide_h = ControlPath(cfg.dt, cfg.n_steps, np.zeros((17, cfg.n_steps)))
    with pytest.raises(ValueError):
        solve_skeleton(u0, params, g, wide_h, cfg, noise_spec=spec)


def test_trajectory_config_mismatch_is_rejected():
    params, cfg, spec, g, u0 = _desk_setup()
    other = SolverConfig(dt=0.001, t_end=0.05, n_modes=16, n_points=128)
    noise = sample_noise(spec, other.dt, other.n_steps, seed=1)
    with pytest.raises(ValueError):
        solve_clt_limit(u0, params, g, noise, other)


# --- guards and aborts ------------------------------------------------------------


def test_blowup_guard_trips_and_records_time():
    params = ModelParams(**DESK)
    cfg = SolverConfig(dt=0.001, t_end=0.1, n_modes=8, n_points=64)
    guard = BlowupGuard(threshold=1e-3)
    with pytest.raises(BlowupError) as err:
        solve_deterministic(_parabola(cfg), params, cfg, guard=guard)
    assert err.value.time == 0.0
    assert err.value.threshold == pytest.approx(1e-3)
    assert err.value.norm > 1e-3
    # roomy threshold never trips
    guard_ok = BlowupGuard(threshold=1e3)
    solve_deterministic(_parabola(cfg), params, cfg, guard=guard_ok)


def test_guard_trips_above_its_threshold_or_on_a_non_finite_norm():
    guard = BlowupGuard(threshold=1.0)
    norms = np.array([0.5, 1.0, 1.5, np.inf, np.nan])
    assert guard.trips(norms).tolist() == [False, False, True, True, True]
    guard.check(0.1, 1.0)
    with pytest.raises(NumericalAbortError) as err:
        guard.check(0.2, np.nan)
    assert err.value.time == 0.2
    with pytest.raises(BlowupError) as err:
        guard.check(0.3, 2.0)
    assert err.value.time == 0.3


def test_non_finite_state_aborts():
    params = ModelParams(**DESK)
    cfg = SolverConfig(dt=0.001, t_end=0.1, n_modes=8, n_points=64)
    bad = np.full(8, np.nan)
    with pytest.raises(NumericalAbortError):
        solve_deterministic(bad, params, cfg)


# --- noise forcing ---------------------------------------------------------------


@pytest.mark.parametrize("g", [G_CONSTANT, G_AFFINE], ids=["constant", "affine"])
@pytest.mark.parametrize("batch", [(), (1,), (128,)], ids=["path", "B1", "B128"])
@pytest.mark.parametrize("j_noise", [16, 6])
def test_forcing_term_equals_grid_projection(g, batch, j_noise):
    """The modal forcing equals project(g(u) * sum_j q_j phi_j dB_j) on the grid."""
    cfg = SolverConfig(dt=0.001, t_end=0.01, n_modes=16, n_points=128)
    params = ModelParams(**DESK)
    eng = SolverEngine(params, cfg, g=g, noise_spec=NoiseSpec(n_modes=j_noise, eta=0.3))
    rng = np.random.default_rng(j_noise + len(batch))
    u_grid = eng.grid_values(0.3 * rng.standard_normal(batch + (cfg.n_modes,)))
    dB = rng.standard_normal(batch + (j_noise,))
    grid_formula = eng.project(
        noise_coefficient_eval(g, 0.0, eng.grid.nodes, u_grid) * eng.colored_increment_grid(dB)
    )
    got = eng.forcing_term(0.0, u_grid, dB)
    assert got.shape == batch + (cfg.n_modes,)
    np.testing.assert_allclose(got, grid_formula, rtol=0, atol=1e-13)
    if g.kappa1 == 0.0:
        assert np.all(got[..., j_noise:] == 0.0)


# --- the fused steppers against the unfused formulas ----------------------------------
#
# The steppers sum every explicit grid term into one field before projecting.
# The references below project each term alone, straight from the model
# functions, as E (x + dt D + c F(u, dB) + ...) with F = project(g(u) w).


def _unfused_forcing(eng, g, u_grid, dB):
    return eng.project(
        noise_coefficient_eval(g, 0.0, eng.grid.nodes, u_grid) * eng.colored_increment_grid(dB)
    )


def _unfused_drift(eng, u_grid):
    p = eng.params
    return p.beta * eng.project(reaction_nonlinearity(u_grid, p.gamma, p.delta)) + (
        p.alpha / (p.delta + 1)
    ) * eng.project_divergence(advective_nonlinearity(u_grid, p.delta))


def _unfused_linear_drift(eng, u0_grid, z_grid):
    p = eng.params
    c1 = p.beta * reaction_derivative(u0_grid, p.gamma, p.delta)
    p1 = advective_derivative(u0_grid, p.delta)
    return eng.project(c1 * z_grid) + (p.alpha / (p.delta + 1)) * eng.project_divergence(
        p1 * z_grid
    )


def _step_inputs(g, batch, j_noise, seed, n_steps=3):
    cfg = SolverConfig(dt=0.001, t_end=0.001 * n_steps, n_modes=16, n_points=128)
    eng = SolverEngine(ModelParams(**DESK), cfg, g=g, noise_spec=NoiseSpec(n_modes=j_noise))
    rng = np.random.default_rng(seed)
    x = 0.3 * rng.standard_normal(batch + (cfg.n_modes,))
    dB = np.sqrt(cfg.dt) * rng.standard_normal((n_steps,) + batch + (j_noise,))
    hdot = rng.standard_normal((n_steps,) + batch + (j_noise,))
    u0 = 0.3 * rng.standard_normal((n_steps + 1, cfg.n_modes))
    return eng, x, dB, hdot, u0


def _step_calls(g, batches, j_noise, seed, ks):
    """``_step_inputs`` for one step called once per batch shape, at the steps
    ``ks``: the engine, the (k, state) calls, the increments and controls as
    lists whose entry k has call k's batch, and the reference coefficients."""
    calls, dB, hdot = [], [None] * 3, [None] * 3
    for i, (k, batch) in enumerate(zip(ks, batches)):
        eng_i, x, dB_i, hdot_i, u0_i = _step_inputs(g, batch, j_noise, seed + i)
        if i == 0:
            eng, u0 = eng_i, u0_i
        calls.append((k, x))
        dB[k], hdot[k] = dB_i[k], hdot_i[k]
    return eng, calls, dB, hdot, u0


def _assert_rel(got, want, rel=1e-13):
    assert got.shape == want.shape
    assert np.linalg.norm(got - want) <= rel * np.linalg.norm(want)


def _assert_results(results):
    """(result, its copy when returned, want) per call, checked after the last
    call: no later call, at another k or batch, wrote into an earlier result."""
    for got, first, want in results:
        assert np.array_equal(got, first)
        _assert_rel(got, want)


def _stepped(step, k, x, grid, bufs):
    """step(k, x, grid, bufs), checking that it writes into neither x nor the
    grid and reads nothing of ``bufs`` that it did not write (they hold nan)."""
    before = [a.copy() for a in (x, grid)]
    bufs.fill(np.nan)
    out = step(k, x, grid, bufs)
    assert all(np.array_equal(a, b) for a, b in zip((x, grid), before))
    return out


def _scratch_per_batch(eng):
    """One ``scratch`` per batch shape, shared by every call at that shape."""
    made = {}
    return lambda batch: made.setdefault(batch, eng.scratch(batch))


# the last input calls one step twice at batch 5, then at batch 3 as a short
# last block does: no result may share memory with the scratch its call was
# given, which the next call at that batch writes again
STEP_CASES = dict(
    argnames="g,batches,j_noise",
    argvalues=[
        (G_CONSTANT, [()], 16),
        (G_AFFINE, [()], 6),
        (G_AFFINE, [(1,)], 16),
        (G_CONSTANT, [(5,)], 6),
        (G_AFFINE, [(5,)], 16),
        (G_AFFINE, [(5,)], 6),
        (G_AFFINE, [(5,), (5,), (3,)], 16),
    ],
    ids=["constant-path", "affine-path-Jn6", "affine-B1", "constant-B5-Jn6", "affine-B5",
         "affine-B5-Jn6", "affine-B5-B5-B3"],
)


@pytest.mark.parametrize(**STEP_CASES)
def test_spde_step_equals_the_unfused_formula(g, batches, j_noise):
    """The full equation is ``deviation_step`` without u0: E (a + dt N(u) +
    sqrt(eps) F(u, dB_k)), and without increments the deterministic step."""
    eng, calls, dB, _, _ = _step_calls(g, batches, j_noise, j_noise + len(batches[0]), ks=(1, 2, 0))
    root_eps = 0.3
    noisy, free = eng.deviation_step(noise_inc=dB, noise_scale=root_eps), eng.deviation_step()
    scratch, results = _scratch_per_batch(eng), []
    for k, a in calls:
        u = eng.grid_values(a)
        drift = a + eng.dt * _unfused_drift(eng, u)
        forcing = root_eps * _unfused_forcing(eng, g, u, dB[k])
        for step, want in ((noisy, drift + forcing), (free, drift)):
            got = _stepped(step, k, a, u, scratch(a.shape[:-1]))
            results.append((got, got.copy(), eng.semigroup * want))
    _assert_results(results)


@pytest.mark.parametrize("s", [0.05, 0.0], ids=["s>0", "s=0"])
@pytest.mark.parametrize(**STEP_CASES)
def test_deviation_step_equals_the_unfused_formula(g, batches, j_noise, s):
    """Noise and control together, at s > 0 (the difference quotient) and at
    s = 0 (the linearization), and each forcing alone."""
    eng, calls, dB, hdot, u0 = _step_calls(
        g, batches, j_noise, 7 * j_noise + len(batches[0]), ks=(2, 1, 0)
    )
    u0_grid = eng.grid_values(u0)
    scale, dt = 0.7, eng.dt
    drives = dict(
        both=dict(noise_inc=dB, noise_scale=scale, control_inc=hdot),
        noise=dict(noise_inc=dB, noise_scale=scale),
        control=dict(control_inc=hdot),
    )
    steps = {name: eng.deviation_step(u0, s, **kw) for name, kw in drives.items()}
    scratch, results = _scratch_per_batch(eng), []
    for k, z in calls:
        zg = eng.grid_values(z)
        if s:
            u = u0_grid[k] + s * zg
            drift = (_unfused_drift(eng, u) - _unfused_drift(eng, u0_grid[k])) / s
        else:
            u = u0_grid[k]
            drift = _unfused_linear_drift(eng, u0_grid[k], zg)
        noise = scale * _unfused_forcing(eng, g, u, dB[k])
        control = dt * _unfused_forcing(eng, g, u, hdot[k])
        forcing = dict(both=noise + control, noise=noise, control=control)
        for name, step in steps.items():
            got = _stepped(step, k, z, zg, scratch(z.shape[:-1]))
            results.append((got, got.copy(), eng.semigroup * (z + dt * drift + forcing[name])))
    _assert_results(results)


@pytest.mark.parametrize("noisy", [True, False], ids=["noise", "free"])
@pytest.mark.parametrize(
    "g,batch",
    [(G_CONSTANT, ()), (G_AFFINE, ()), (G_CONSTANT, (5,)), (G_AFFINE, (5,))],
    ids=["constant-path", "affine-path", "constant-B5", "affine-B5"],
)
def test_full_step_is_the_deviation_step_about_zero(g, batch, noisy):
    """N(0) = 0, so the full equation is the deviation equation about u0 = 0
    at s = 1, bit for bit, over a whole march: the one stepper rests on it."""
    eng, z, dB, _, _ = _step_inputs(g, batch, 6, seed=11)
    kw = dict(noise_inc=dB, noise_scale=0.3) if noisy else {}
    zero = np.zeros((eng.cfg.n_steps + 1, eng.cfg.n_modes))
    full, about_zero = eng.deviation_step(None, 1.0, **kw), eng.deviation_step(zero, 1.0, **kw)
    bufs = eng.scratch(batch)
    for k in range(eng.cfg.n_steps):
        zg = eng.grid_values(z)
        got = full(k, z, zg, bufs)
        assert np.array_equal(got, about_zero(k, z, zg, bufs))
        assert not np.array_equal(got, z)
        z = got


@pytest.mark.parametrize("batch", [(), (5,)], ids=["path", "B5"])
def test_full_step_leaves_its_third_buffer_alone(batch):
    """With both drifts and kappa1 != 0, under noise and control, the full
    equation's step does its grid work in bufs[0] and bufs[1]: the third,
    which only u = u0 + s z needs, keeps what it held."""
    eng, a, dB, hdot, _ = _step_inputs(G_AFFINE, batch, 16, seed=13)
    p = eng.params
    assert p.alpha > 0 and p.beta > 0 and eng.g.kappa1 != 0.0
    step = eng.deviation_step(noise_inc=dB, noise_scale=0.3, control_inc=hdot)
    bufs = eng.scratch(batch)
    bufs.fill(np.nan)
    assert np.all(np.isfinite(step(1, a, eng.grid_values(a), bufs)))
    assert np.all(np.isnan(bufs[2]))


@pytest.mark.parametrize("batch,j_noise", [((), 16), ((1,), 6), ((5,), 16)])
def test_heat_step_is_bitwise_the_modal_forcing(batch, j_noise):
    """No drift and constant g: E (a + sqrt(eps) kappa0 q dB) in modes, bit for bit."""
    eng, a, dB, _, _ = _step_inputs(G_CONSTANT, batch, j_noise, seed=3)
    heat = ModelParams(**dict(DESK, alpha=0.0, beta=0.0))
    eng = SolverEngine(heat, eng.cfg, g=G_CONSTANT, noise_spec=NoiseSpec(n_modes=j_noise))
    k, root_eps = 1, 0.3
    forcing = np.zeros(batch + (eng.cfg.n_modes,))
    forcing[..., :j_noise] = G_CONSTANT.kappa0 * eng.q[:j_noise] * dB[k]
    want = eng.semigroup * (a + root_eps * forcing)
    step = eng.deviation_step(noise_inc=dB, noise_scale=root_eps)
    assert np.array_equal(step(k, a, None, eng.scratch(batch)), want)


# --- trajectory object and persistence ----------------------------------------------


def test_trajectory_accessors_and_round_trip(tmp_path):
    params, cfg, spec, g, u0 = _desk_setup(t_end=0.05)
    assert u0.n_steps == cfg.n_steps
    assert u0.n_modes == cfg.n_modes
    assert u0.dt == pytest.approx(cfg.dt, rel=1e-15)
    basis = SpectralBasis(Grid1D(cfg.n_points), cfg.n_modes)
    np.testing.assert_allclose(u0.grid_values(5), u0.coeffs[5] @ basis.phi, atol=1e-14)
    path = tmp_path / "traj.bin"
    path.write_bytes(b"".join(trajectory_bytes(u0)))
    back = load_trajectory(path)
    assert np.array_equal(back.coeffs, u0.coeffs)
    assert back.dt == u0.dt and back.n_steps == u0.n_steps
    assert back.basis.grid.n_points == cfg.n_points


@pytest.mark.parametrize("cut", [3, 32, -8])
def test_trajectory_truncated_or_overlong_raises_format_error(tmp_path, cut):
    u0 = _desk_setup(t_end=0.05)[4]
    path = tmp_path / "traj.bin"
    raw = b"".join(trajectory_bytes(u0))
    path.write_bytes(raw[:cut])
    with pytest.raises(BinaryFormatError):
        load_trajectory(path)
    path.write_bytes(raw + bytes(8))
    with pytest.raises(BinaryFormatError):
        load_trajectory(path)


@pytest.mark.parametrize("n_points", [63, 2**22 // 16 + 1, 2**40])
def test_trajectory_grid_outside_its_bounds_raises_format_error(tmp_path, n_points):
    # the payload matches (n_steps + 1, n_modes = 16); only the grid size is off
    u0 = _desk_setup(t_end=0.05)[4]
    path = tmp_path / "traj.bin"
    raw = b"".join(trajectory_bytes(u0))
    path.write_bytes(struct.pack("<q", n_points) + raw[8:])
    with pytest.raises(BinaryFormatError):
        load_trajectory(path)


def test_artifacts_in_chunks_are_the_one_piece_files(tmp_path):
    """The CLI's formatter gives the norms table in chunks of at most 4096
    rows, and the binaries come as (header, payload view); joined, each is the
    file written in one piece."""
    rng = np.random.default_rng(7)
    k = 9000  # 9001 rows: three chunks of the table, the last one short
    traj = Trajectory(
        dt=1e-4,
        coeffs=rng.standard_normal((k + 1, 8)),
        basis=SpectralBasis(Grid1D(32), 8),
        norm_p=8,
        norms=rng.random(k + 1),
    )
    chunks = list(_norms_table(traj))
    assert len(chunks) == 4 and chunks[0] == "time,l2_norm,l8_norm\n"
    rows = zip(1e-4 * np.arange(k + 1), np.linalg.norm(traj.coeffs, axis=1), traj.norms)
    whole = "time,l2_norm,l8_norm\n" + "".join(
        f"{float(t)!r},{float(a)!r},{float(b)!r}\n" for t, a, b in rows
    )
    assert "".join(chunks) == whole
    path = tmp_path / "traj.bin"
    path.write_bytes(b"".join(trajectory_bytes(traj)))
    back = load_trajectory(path)
    assert np.array_equal(back.coeffs, traj.coeffs)
    assert back.dt == traj.dt and back.n_steps == k
    h = ControlPath(dt=0.01, n_steps=k, hdot=rng.standard_normal((3, k)))
    path.write_bytes(b"".join(control_bytes(h)))
    assert np.array_equal(load_control(path).hdot, h.hdot)


@pytest.mark.parametrize(
    "kind, bound",
    [("trajectory", 1.1), ("control", 1.25)],
    ids=["trajectory", "control"],  # the loader alone: a bound may move
)
def test_loaders_hold_one_copy_of_the_file(tmp_path, kind, bound):
    """A loader's tracemalloc peak on a K = 50k file, in units of its payload
    (3.2 MB): the payload is read into one array, which the trajectory and
    the control keep without a copy, and a trajectory keeps its step, not a
    time axis.  Measured: 1.01 and 1.00; 1.27 for the trajectory when it built
    its (K + 1,) times, a quarter of the payload at J = 8; 2.13 and 2.00 when
    the whole file was read into bytes and the payload copied out of them."""
    import tracemalloc

    rng = np.random.default_rng(3)
    k, j = 50_000, 8
    path = tmp_path / f"{kind}.bin"
    if kind == "trajectory":
        traj = Trajectory(
            dt=1e-5,
            coeffs=rng.standard_normal((k + 1, j)),
            basis=SpectralBasis(Grid1D(64), j),
        )
        path.write_bytes(b"".join(trajectory_bytes(traj)))
        load, payload = load_trajectory, (k + 1) * j * 8
    else:
        path.write_bytes(b"".join(control_bytes(ControlPath(1e-5, k, rng.standard_normal((j, k))))))
        load, payload = load_control, k * j * 8
    load(path)  # warm: one-off allocations are not the load's
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        loaded = load(path)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    data = loaded.coeffs if kind == "trajectory" else loaded.hdot
    assert data.nbytes == payload and not data.flags.writeable
    assert peak / payload <= bound


def test_trajectory_csv_format():
    params, cfg, spec, g, u0 = _desk_setup(t_end=0.01)
    text = "".join(_norms_table(u0))
    lines = text.strip().split("\n")
    assert lines[0] == "time,l2_norm,l8_norm"
    assert len(lines) == cfg.n_steps + 2
    assert "np.float64" not in text
    data = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1)
    np.testing.assert_allclose(data[:, 0], u0.dt * np.arange(cfg.n_steps + 1), atol=1e-15)
    np.testing.assert_allclose(data[:, 1], np.linalg.norm(u0.coeffs, axis=1), rtol=1e-15)
    np.testing.assert_allclose(data[:, 2], u0.norms, rtol=1e-15)
