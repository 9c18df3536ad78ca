"""Tests for the exponential-Euler solvers.

Reference solutions come from independent discretizations: the exact heat
semigroup for the linear part, a centered finite-difference integration of
the full equation via scipy.integrate.solve_ivp, and the continuous-time
Galerkin system integrated with tight tolerances.  Stochastic checks use
the exact variance recursion of the discrete scheme.
"""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from sgbh.model import (
    ModelParams,
    NoiseCoefficient,
    noise_coefficient_eval,
    reaction_nonlinearity,
)
from sgbh.noise import BinaryFormatError, ControlPath, NoiseRealization, NoiseSpec, sample_noise
from sgbh.solvers import (
    BlowupError,
    BlowupGuard,
    NumericalAbortError,
    SolverConfig,
    SolverEngine,
    load_trajectory,
    save_trajectory,
    solve_clt_limit,
    solve_controlled,
    solve_deterministic,
    solve_mdp_process,
    solve_skeleton,
    solve_spde,
)
from sgbh.spectral import Field, build_basis, build_grid

DESK = dict(nu=0.1, alpha=1.0, beta=1.0, gamma=0.5, delta=1, p_norm=8)
G_CONSTANT = NoiseCoefficient(kind="constant", kappa0=0.7)
G_AFFINE = NoiseCoefficient(kind="affine", kappa0=0.7, kappa1=-1.3)


def _parabola(cfg):
    grid = build_grid(cfg.n_points)
    return Field.from_grid(grid.nodes * (1.0 - grid.nodes))


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
    with pytest.raises(ValueError):
        SolverConfig(dt=0.001, t_end=0.25, scheme="crank-nicolson")
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
    traj = solve_deterministic(Field.from_coeffs(c0), params, cfg)
    assert traj.coeffs[-1, 0] == pytest.approx(np.exp(-0.1 * np.pi**2 * 0.25), rel=1e-12)
    np.testing.assert_allclose(traj.coeffs[-1, 1:], 0.0, atol=1e-15)
    assert traj.times[-1] == pytest.approx(0.25, rel=1e-12)


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
    bare = NoiseRealization(dt=cfg.dt, n_steps=cfg.n_steps, increments=noise.increments, seed=1)
    with pytest.raises(ValueError):
        solve_spde(_parabola(cfg), params, g, 0.1, bare, cfg)


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
    z = solve_mdp_process(u0, params, g, eps, lam, noise, cfg)
    recon = u0.coeffs + np.sqrt(eps) * lam * z.coeffs
    np.testing.assert_allclose(recon, u_eps.coeffs, atol=1e-9)


def test_theta_zero_reduces_to_clt_scale():
    params, cfg, spec, g, u0 = _desk_setup()
    noise = sample_noise(spec, cfg.dt, cfg.n_steps, seed=43)
    eps = 0.04
    u_eps = solve_spde(_parabola(cfg), params, g, eps, noise, cfg)
    z = solve_mdp_process(u0, params, g, eps, 1.0, noise, cfg)
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
        seed=0,
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
    with pytest.raises(ValueError):
        solve_controlled(u0, params, g, 0.01, 2.0, None, None, cfg)
    with pytest.raises(ValueError):
        solve_controlled(u0, params, g, -0.01, 2.0, noise, None, cfg)
    with pytest.raises(ValueError):
        solve_controlled(u0, params, g, 1.5, 2.0, noise, None, cfg)
    with pytest.raises(ValueError):
        solve_controlled(u0, params, g, 0.01, -1.0, noise, None, cfg)
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
    assert guard.tripped_at == 0.0
    assert err.value.threshold == pytest.approx(1e-3)
    assert err.value.norm > 1e-3
    # roomy threshold never trips
    guard_ok = BlowupGuard(threshold=1e3)
    solve_deterministic(_parabola(cfg), params, cfg, guard=guard_ok)
    assert guard_ok.tripped_at is None


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


# --- trajectory object and persistence ----------------------------------------------


def test_trajectory_accessors_and_round_trip(tmp_path):
    params, cfg, spec, g, u0 = _desk_setup(t_end=0.05)
    assert u0.n_steps == cfg.n_steps
    assert u0.n_modes == cfg.n_modes
    assert u0.dt == pytest.approx(cfg.dt, rel=1e-15)
    np.testing.assert_allclose(u0.field(3).data, u0.coeffs[3], atol=0)
    basis = build_basis(cfg.n_modes, build_grid(cfg.n_points))
    np.testing.assert_allclose(u0.grid_values(5), u0.coeffs[5] @ basis.phi, atol=1e-14)
    norms = u0.lp_norms(2)
    assert norms.shape == (cfg.n_steps + 1,)
    path = tmp_path / "traj.bin"
    save_trajectory(u0, path)
    back = load_trajectory(path)
    assert np.array_equal(back.coeffs, u0.coeffs)
    np.testing.assert_allclose(back.times, u0.times, atol=1e-15)
    assert back.basis.grid.n_points == cfg.n_points


@pytest.mark.parametrize("cut", [3, 32, -8])
def test_trajectory_truncated_or_overlong_raises_format_error(tmp_path, cut):
    u0 = _desk_setup(t_end=0.05)[4]
    path = tmp_path / "traj.bin"
    save_trajectory(u0, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:cut])
    with pytest.raises(BinaryFormatError):
        load_trajectory(path)
    path.write_bytes(raw + bytes(8))
    with pytest.raises(BinaryFormatError):
        load_trajectory(path)


def test_trajectory_csv_format(tmp_path):
    params, cfg, spec, g, u0 = _desk_setup(t_end=0.01)
    path = tmp_path / "norms.csv"
    u0.to_csv(path)
    text = path.read_text()
    lines = text.strip().split("\n")
    assert lines[0] == "time,l2_norm,l8_norm"
    assert len(lines) == cfg.n_steps + 2
    assert "np.float64" not in text
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    np.testing.assert_allclose(data[:, 0], u0.times, atol=1e-15)
    np.testing.assert_allclose(data[:, 1], np.linalg.norm(u0.coeffs, axis=1), rtol=1e-15)
    np.testing.assert_allclose(data[:, 2], u0.norms, rtol=1e-15)
