"""Tests for the deviation machinery: speeds, adjoints, the minimum-energy
rate function, the Gramian of the endpoint map, and tail reports.

The load-bearing identities are checked against independent constructions:
the adjoint against the defining inner-product identity, the Gramian
G = A A^T against forward sweeps of adjoint columns, the map A itself
against the CLT-limit solver and the heat oracle's weights, the rate value
against the Gramian's quadratic form and the action of minimum-norm controls,
and feasibility against explicitly known controls.
"""

import json

import numpy as np
import pytest

from sgbh.cli import RunConfig
from sgbh.deviation import (
    EndpointControlMap,
    SpeedFunction,
    rate_function_endpoint,
    wilson_interval,
)
from sgbh.model import ModelParams, NoiseCoefficient
from sgbh.montecarlo import EnsembleSpec, _heat_weights, run_mdp_tail, run_strong_rate
from sgbh.noise import ControlPath, NoiseSpec, sample_noise
from sgbh.solvers import (
    SolverConfig,
    solve_clt_limit,
    solve_controlled,
    solve_deterministic,
    solve_skeleton,
)
from sgbh.spectral import Field, Grid1D


@pytest.fixture(scope="module")
def desk():
    params = ModelParams(nu=0.1, alpha=1.0, beta=1.0, gamma=0.5, delta=1, p_norm=8)
    cfg = SolverConfig(dt=0.001, t_end=0.05, n_modes=8, n_points=64)
    spec = NoiseSpec(n_modes=8, eta=0.3)
    g = NoiseCoefficient(kind="affine", kappa0=1.0, kappa1=0.5)
    grid = Grid1D(cfg.n_points)
    u0 = solve_deterministic(
        Field(grid.nodes * (1.0 - grid.nodes)), params, cfg
    )
    return params, cfg, spec, g, u0


@pytest.fixture(scope="module")
def cli_defaults():
    """The CLI's default problem: J = J_noise = 32 modes, K = 250 steps."""
    config = RunConfig()
    params, cfg = config.model_params(), config.solver_config()
    spec, g = config.noise_spec(), config.noise_coefficient()
    u0 = solve_deterministic(config.initial_data(cfg), params, cfg)
    return params, cfg, spec, g, u0


# --- speed functions -----------------------------------------------------------


def test_speed_function_values_and_regime():
    s = SpeedFunction(theta=0.25)
    assert s(1e-4) == pytest.approx(10.0, rel=1e-12)
    assert s(1.0) == 1.0
    clt = SpeedFunction(theta=0.0)
    assert clt(1e-8) == 1.0
    for theta in (-0.1, 0.5, 0.7):
        with pytest.raises(ValueError):
            SpeedFunction(theta=theta)
    with pytest.raises(ValueError):
        s(0.0)


# --- the endpoint map and its adjoint ----------------------------------------------


def test_adjoint_identity(desk):
    params, cfg, spec, g, u0 = desk
    cmap = EndpointControlMap(u0, params, g, cfg, noise_spec=spec)
    rng = np.random.default_rng(31)
    for _ in range(5):
        h = rng.standard_normal((spec.n_modes, cfg.n_steps))
        w = rng.standard_normal(cfg.n_modes)
        lhs = float(cmap.forward(h) @ w)
        rhs = float(np.sum(h * cmap.adjoint(w)) * cfg.dt)
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_forward_agrees_with_skeleton_solver(desk):
    params, cfg, spec, g, u0 = desk
    cmap = EndpointControlMap(u0, params, g, cfg, noise_spec=spec)
    rng = np.random.default_rng(32)
    hdot = rng.standard_normal((spec.n_modes, cfg.n_steps))
    h = ControlPath(cfg.dt, cfg.n_steps, hdot)
    traj = solve_skeleton(u0, params, g, h, cfg, noise_spec=spec)
    assert np.array_equal(cmap.forward(hdot), traj.coeffs[-1])


def test_matrix_builds_the_unit_control_grid_once(desk, monkeypatch):
    """At kappa1 != 0 the sweep synthesises the unit controls' noise grid once,
    not at each of its K steps, and A keeps the bits of the sweep whose every
    step builds that grid itself."""
    import sgbh.deviation as dev
    from sgbh.solvers import Row, SolverEngine

    params, cfg, spec, g, u0 = desk
    assert g.kappa1 != 0.0
    calls = [0]
    grid = SolverEngine.colored_increment_grid

    def counted(self, *args, **kwargs):
        calls[0] += 1
        return grid(self, *args, **kwargs)

    monkeypatch.setattr(SolverEngine, "colored_increment_grid", counted)
    a = EndpointControlMap(u0, params, g, cfg, noise_spec=spec).matrix
    assert calls[0] == 1
    monkeypatch.setattr(dev, "Row", lambda **_: Row())  # each step builds its own grid
    assert np.array_equal(EndpointControlMap(u0, params, g, cfg, noise_spec=spec).matrix, a)
    assert calls[0] == 2 + cfg.n_steps


def _skeleton(params, cfg, g, u0, **spec):
    hdot = np.random.default_rng(5).standard_normal((5, cfg.n_steps))
    return solve_skeleton(u0, params, g, ControlPath(cfg.dt, cfg.n_steps, hdot), cfg, **spec).coeffs


def _endpoint_map(params, cfg, g, u0, **spec):
    return EndpointControlMap(u0, params, g, cfg, **spec).matrix


def _strong_rate(params, cfg, g, u0, **spec):
    ens = EnsembleSpec(n_paths=6, base_seed=9, eps_list=[0.5, 0.25, 0.125], block_size=4)
    return json.dumps(run_strong_rate(ens, params, g, cfg, **spec), indent=2)


@pytest.mark.parametrize(
    "run, widths",
    [(_skeleton, (5, 8)), (_endpoint_map, (8,)), (_strong_rate, (8,))],
    ids=["skeleton", "endpoint_map", "strong_rate"],
)
def test_default_noise_spec_forces_every_solver_mode(desk, run, widths):
    """Without a noise spec every entry point runs bitwise as with
    NoiseSpec(n_modes=cfg.n_modes), the engine's one default.  The skeleton's
    control has 5 of the 8 modes, and a spec over just those runs the same too,
    since q_j depends on j alone."""
    params, cfg, _, g, u0 = desk
    default = run(params, cfg, g, u0)
    for n_modes in widths:
        explicit = run(params, cfg, g, u0, noise_spec=NoiseSpec(n_modes=n_modes))
        assert np.array_equal(explicit, default)


# the linear-Gaussian core at J = 16, K = 50: the CLI's model with affine g and
# all 16 noise modes, the same with constant g and 10 noise modes, and the pure
# heat model the oracle prices
_CORE_CFG = SolverConfig(dt=0.001, t_end=0.05, n_modes=16, n_points=128)
_CORE_DESK = ModelParams(nu=0.1, alpha=1.0, beta=1.0, gamma=0.5, delta=1, p_norm=8)
_CORE_CASES = {
    "affine": (_CORE_DESK, NoiseCoefficient("affine", 1.0, 0.5), 16),
    "constant-10-modes": (_CORE_DESK, NoiseCoefficient("constant", 0.7), 10),
    "heat-weights": (
        ModelParams(nu=0.1, alpha=0.0, beta=0.0, gamma=0.5, delta=1),
        NoiseCoefficient("constant", 1.7),
        16,
    ),
}


@pytest.mark.parametrize("case", _CORE_CASES, ids=_CORE_CASES.keys())
def test_clt_limit_endpoint_is_the_endpoint_map_of_the_increments(case):
    """v(T) = A xi with xi = dW / sqrt(dt), path by path, so Cov v(T) = A A^T
    exactly; and the heat oracle's weights are A's diagonal blocks / sqrt(dt)."""
    params, g, jn = _CORE_CASES[case]
    cfg = _CORE_CFG
    spec = NoiseSpec(n_modes=jn, eta=0.3)
    x = Grid1D(cfg.n_points).nodes
    initial = np.zeros_like(x) if case == "heat-weights" else x * (1.0 - x)
    u0 = solve_deterministic(Field(initial), params, cfg)
    cmap = EndpointControlMap(u0, params, g, cfg, noise_spec=spec)
    a = cmap.matrix
    if case == "heat-weights":
        modes = np.arange(cfg.n_modes)
        diag = a.reshape(cfg.n_modes, jn, cfg.n_steps)[modes, modes] / np.sqrt(cfg.dt)
        w = _heat_weights(cmap.eng)
        assert np.linalg.norm(w - diag) <= 1e-12 * np.linalg.norm(w)
        return
    for path in range(4):
        noise = sample_noise(spec, cfg.dt, cfg.n_steps, seed=41, path_index=path)
        v = solve_clt_limit(u0, params, g, noise, cfg).coeffs[-1]
        xi = noise.increments.ravel() / np.sqrt(cfg.dt)
        assert np.linalg.norm(v - a @ xi) <= 1e-12 * np.linalg.norm(v)


# --- rate function ----------------------------------------------------------------


def test_rate_of_zero_target_is_zero(desk):
    params, cfg, spec, g, u0 = desk
    res, _ = rate_function_endpoint(np.zeros(8), u0, params, g, cfg, noise_spec=spec)
    assert res["value"] == 0.0
    assert res["converged"]
    assert res["iterations"] == 0
    assert res["endpoint_residual"] == 0.0


def test_rate_value_is_the_achieved_action_and_endpoint_is_hit(desk):
    params, cfg, spec, g, u0 = desk
    rng = np.random.default_rng(33)
    cmap = EndpointControlMap(u0, params, g, cfg, noise_spec=spec)
    psi = cmap.forward(rng.standard_normal((spec.n_modes, cfg.n_steps)))
    res, control = rate_function_endpoint(psi, u0, params, g, cfg, noise_spec=spec)
    assert res["converged"]
    assert res["value"] == control.action()
    assert res["endpoint_residual"] <= 1e-8 * np.linalg.norm(psi)
    endpoint = solve_skeleton(u0, params, g, control, cfg, noise_spec=spec).coeffs[-1]
    np.testing.assert_allclose(endpoint, psi, atol=1e-7 * np.linalg.norm(psi))


def test_rate_quadratic_homogeneity(desk):
    params, cfg, spec, g, u0 = desk
    rng = np.random.default_rng(34)
    cmap = EndpointControlMap(u0, params, g, cfg, noise_spec=spec)
    psi = cmap.forward(rng.standard_normal((spec.n_modes, cfg.n_steps)))
    base, _ = rate_function_endpoint(psi, u0, params, g, cfg, noise_spec=spec)
    scaled, _ = rate_function_endpoint(2.0 * psi, u0, params, g, cfg, noise_spec=spec)
    assert scaled["value"] == pytest.approx(4.0 * base["value"], rel=1e-6)


def test_rate_matches_dense_gramian_solve(desk):
    """I(psi) = (1/2) psi^T (Phi Phi*)^{-1} psi when the Gramian is invertible."""
    params, cfg, spec, g, u0 = desk
    a = EndpointControlMap(u0, params, g, cfg, noise_spec=spec).matrix[:8]
    gram = a @ a.T
    assert np.array_equal(gram, gram.T)
    eig = np.linalg.eigvalsh(gram)
    assert eig.min() > 0
    rng = np.random.default_rng(35)
    psi = rng.standard_normal(8)
    direct = 0.5 * float(psi @ np.linalg.solve(gram, psi))
    res, _ = rate_function_endpoint(psi, u0, params, g, cfg, tol=1e-10, noise_spec=spec)
    assert res["converged"]
    assert res["value"] == pytest.approx(direct, rel=1e-6)


def test_rate_of_a_minimum_norm_target_is_its_generating_action(desk):
    # a control in the range of the adjoint is the minimum-norm one reaching
    # its endpoint, so its action is the exact rate value
    params, cfg, spec, g, u0 = desk
    rng = np.random.default_rng(38)
    cmap = EndpointControlMap(u0, params, g, cfg, noise_spec=spec)
    for _ in range(3):
        hdot = cmap.adjoint(rng.standard_normal(cfg.n_modes))
        psi = cmap.forward(hdot)
        res, _ = rate_function_endpoint(psi, u0, params, g, cfg, noise_spec=spec)
        assert res["converged"]
        assert res["iterations"] == cfg.n_modes  # full rank: every direction used
        assert res["value"] == pytest.approx(cmap.control_path(hdot).action(), rel=1e-10)


def test_rate_converges_on_white_noise_targets_at_cli_defaults(cli_defaults):
    # endpoints of dense white-noise controls, drawn from seeds 401-410 in the
    # order of the benchmark's rate targets (an adjoint row, then white noise)
    params, cfg, spec, g, u0 = cli_defaults
    cmap = EndpointControlMap(u0, params, g, cfg, noise_spec=spec)
    for seed in range(401, 411):
        rng = np.random.default_rng(seed)
        for _ in range(2):
            rng.standard_normal(cfg.n_modes)
            hdot = rng.standard_normal((spec.n_modes, cfg.n_steps))
            psi = cmap.forward(hdot)
            res, _ = rate_function_endpoint(psi, u0, params, g, cfg, tol=1e-8, noise_spec=spec)
            assert res["converged"], (seed, res["endpoint_residual"] / np.linalg.norm(psi))
            assert res["value"] <= cmap.control_path(hdot).action()


def _rate_at(dt, noise_modes, psi):
    """The rate of the spectral target ``psi`` in the CLI's default problem at
    time step ``dt`` and ``noise_modes`` noise modes."""
    config = RunConfig()
    params, g, base = config.model_params(), config.noise_coefficient(), config.solver_config()
    cfg = SolverConfig(dt=dt, t_end=base.t_end, n_modes=base.n_modes, n_points=base.n_points)
    spec = NoiseSpec(n_modes=noise_modes, eta=config.noise_spec().eta)
    u0 = solve_deterministic(config.initial_data(cfg), params, cfg)
    res, _ = rate_function_endpoint(psi, u0, params, g, cfg, noise_spec=spec)
    assert res["converged"], (dt, noise_modes)
    return res["value"]


def test_rate_converges_in_dt_and_never_grows_with_noise_modes():
    """psi = (0.3, -0.2, 0, ...) at the CLI defaults (J = 32, T = 0.25).  The
    scheme is first order, so each halving of dt from 1/128 to 1/1024 halves
    the change in I: measured I = 2.0696, 2.0453, 2.0333, 2.0274, difference
    ratios 2.03 and 2.016 (band 1.9-2.1).  A noise mode only adds columns to
    A, so I cannot grow with J_noise beyond roundoff: measured 82.04, 4.937,
    2.195, 2.045 at J_noise = 4, 8, 16, 32 (dt = 1/256)."""
    psi = np.zeros(32)
    psi[:2] = 0.3, -0.2
    diffs = -np.diff([_rate_at(2.0**-m, 32, psi) for m in range(7, 11)])
    ratios = diffs[:-1] / diffs[1:]
    assert np.all(diffs > 0) and np.all((ratios >= 1.9) & (ratios <= 2.1)), (diffs, ratios)
    by_modes = [_rate_at(1 / 256, jn, psi) for jn in (4, 8, 16, 32)]
    assert all(b <= a * (1 + 1e-12) for a, b in zip(by_modes, by_modes[1:])), by_modes


def test_rate_never_exceeds_a_feasible_control(desk):
    params, cfg, spec, g, u0 = desk
    rng = np.random.default_rng(36)
    cmap = EndpointControlMap(u0, params, g, cfg, noise_spec=spec)
    for _ in range(20):
        hdot = rng.standard_normal((spec.n_modes, cfg.n_steps))
        h = ControlPath(cfg.dt, cfg.n_steps, hdot)
        psi = cmap.forward(hdot)
        res, _ = rate_function_endpoint(psi, u0, params, g, cfg, noise_spec=spec)
        assert res["value"] <= h.action() + 1e-8


def test_unreachable_target_reports_honest_residual():
    # pure heat with two noise modes: endpoint modes 3+ cannot be reached
    params = ModelParams(nu=0.1, alpha=0.0, beta=0.0, gamma=0.5, delta=1)
    cfg = SolverConfig(dt=0.001, t_end=0.05, n_modes=8, n_points=64)
    spec = NoiseSpec(n_modes=2, eta=0.3)
    g = NoiseCoefficient(kind="constant", kappa0=1.0)
    u0 = solve_deterministic(np.zeros(8), params, cfg)
    psi = np.zeros(8)
    psi[4] = 1.0
    res, _ = rate_function_endpoint(psi, u0, params, g, cfg, noise_spec=spec)
    assert not res["converged"]
    assert res["endpoint_residual"] == pytest.approx(1.0, rel=1e-10)
    assert res["value"] < 1e-20  # only roundoff energy spent on an unreachable mode
    # a mixed target converges to the reachable part and keeps the gap
    mixed = psi.copy()
    mixed[0] = 1.0
    res2, control2 = rate_function_endpoint(mixed, u0, params, g, cfg, noise_spec=spec)
    assert not res2["converged"]
    assert res2["iterations"] == spec.n_modes  # the reachable directions
    assert res2["endpoint_residual"] == pytest.approx(1.0, rel=1e-10)
    assert np.isfinite(res2["value"]) and res2["value"] > 0
    # the control reaches the projection of the target on the reachable modes
    reached = EndpointControlMap(u0, params, g, cfg, noise_spec=spec).forward(
        control2.hdot
    )
    np.testing.assert_allclose(reached, np.eye(8)[0], atol=1e-10)


def test_rate_target_validation(desk):
    params, cfg, spec, g, u0 = desk
    with pytest.raises(ValueError):
        rate_function_endpoint(np.zeros(5), u0, params, g, cfg, noise_spec=spec)
    grid = Grid1D(cfg.n_points)
    target = Field(0.01 * np.sin(np.pi * grid.nodes))
    res, _ = rate_function_endpoint(target, u0, params, g, cfg, noise_spec=spec)
    assert res["converged"]


def test_rate_result_serialization(desk):
    params, cfg, spec, g, u0 = desk
    res, _ = rate_function_endpoint(np.zeros(8), u0, params, g, cfg, noise_spec=spec)
    d = json.loads(json.dumps(res))
    assert d["value"] == 0.0
    assert d["converged"] is True
    assert list(d) == ["value", "endpoint_residual", "iterations", "converged"]


def test_gramian_is_the_gram_matrix_of_the_endpoint_map(cli_defaults):
    params, cfg, spec, g, u0 = cli_defaults
    cmap = EndpointControlMap(u0, params, g, cfg, noise_spec=spec)
    gram = cmap.matrix @ cmap.matrix.T
    rows = np.stack([cmap.adjoint(e).ravel() for e in np.eye(cfg.n_modes)])
    np.testing.assert_allclose(gram, cfg.dt * rows @ rows.T, rtol=1e-12, atol=1e-14 * gram.max())
    # column i is Phi Phi* e_i, one forward sweep of the adjoint column
    columns = np.stack([cmap.forward(cmap.adjoint(e)) for e in np.eye(cfg.n_modes)], axis=1)
    np.testing.assert_allclose(gram, columns, rtol=0, atol=1e-12 * gram.max())
    assert np.array_equal(gram, gram.T)
    assert np.linalg.eigvalsh(gram).min() > 0
    # a batch of rows through one sweep equals the rows one at a time
    np.testing.assert_allclose(
        cmap.adjoint(np.eye(cfg.n_modes)[:3]).reshape(3, -1), rows[:3], rtol=0,
        atol=1e-14 * np.abs(rows).max(),
    )


# --- the weak-convergence lemma ----------------------------------------------------


def _sup_l2_rms(paths, ref):
    """RMS over the paths of sup_t ||z - ref||_2; the sine basis is orthonormal,
    so the coefficients' Euclidean norm is the L^2 norm."""
    sups = [np.linalg.norm(z.coeffs - ref, axis=1).max() for z in paths]
    return float(np.sqrt(np.mean(np.square(sups))))


def test_controlled_processes_converge_to_the_skeleton():
    """The weak-convergence step of the MDP (Budhiraja & Dupuis 2000): for a
    control h of finite action, Z^{eps,h} -> Z_h as eps -> 0.  Their gap has a
    noise part of weight 1/lambda = eps^theta and a nonlinear part of scale
    s = eps^(1/2 - theta), so the RMS over 8 paths of sup_t ||Z^{eps,h} - Z_h||_2
    falls at order min(theta, 1/2 - theta).  The CLI's default model at
    J = J_noise = 8, n = 64, K = 50; h is the minimum-energy control to
    psi = (0.3, -0.2, 0, ...), I(psi) = 2.05.  Fitted orders over
    eps = 1e-2 ... 1e-6, seeds 0-19: 0.1000-0.1047 at theta = 0.1 and
    0.2519-0.2563 at 0.25.  At theta = 0.4 the local order still falls toward
    0.1 (fits 0.127-0.179), so only a decrease is asserted.  Swapping s and
    1/lambda maps theta to 1/2 - theta, which the orders cannot see at 0.25;
    the magnitudes can: at eps = 1e-6 the gap is 0.073-0.115 at theta = 0.1
    against 0.0168-0.0176 at theta = 0.4."""
    config = RunConfig.parse(
        "[noise]\nn_modes = 8\n[solver]\ndt = 0.005\nn_modes = 8\nn_points = 64\n"
    )
    params, cfg = config.model_params(), config.solver_config()
    spec, g = config.noise_spec(), config.noise_coefficient()
    u0 = solve_deterministic(config.initial_data(cfg), params, cfg)
    psi = np.zeros(cfg.n_modes)
    psi[:2] = 0.3, -0.2
    res, h = rate_function_endpoint(psi, u0, params, g, cfg, noise_spec=spec)
    zh = solve_skeleton(u0, params, g, h, cfg, noise_spec=spec).coeffs
    assert res["converged"] and np.linalg.norm(zh[-1] - psi) <= 1e-9
    noises = [sample_noise(spec, cfg.dt, cfg.n_steps, seed=0, path_index=i) for i in range(8)]
    eps_list = [1e-2, 1e-3, 1e-4, 1e-5, 1e-6]

    def gap(theta, eps):
        speed = SpeedFunction(theta)
        paths = [solve_controlled(u0, params, g, eps, speed, w, h, cfg) for w in noises]
        return _sup_l2_rms(paths, zh)

    gaps = {theta: [gap(theta, eps) for eps in eps_list] for theta in (0.1, 0.25, 0.4)}
    orders = {t: np.polyfit(np.log(eps_list), np.log(row), 1)[0] for t, row in gaps.items()}
    assert 0.095 <= orders[0.1] <= 0.11 and 0.245 <= orders[0.25] <= 0.265, (orders, gaps)
    assert np.all(np.diff(gaps[0.4]) < 0), gaps[0.4]
    assert gaps[0.1][-1] > 3 * gaps[0.4][-1], gaps


# --- tail statistics ------------------------------------------------------------


def test_wilson_interval_formula_and_edges():
    lo, hi = wilson_interval(3, 10)
    z = 1.96
    phat, n = 0.3, 10
    denom = 1 + z**2 / n
    center = (phat + z**2 / (2 * n)) / denom
    half = (z / denom) * np.sqrt(phat * (1 - phat) / n + z**2 / (4 * n**2))
    assert lo == pytest.approx(center - half, rel=1e-12)
    assert hi == pytest.approx(center + half, rel=1e-12)
    assert 0.0 <= lo < phat < hi <= 1.0
    lo0, _ = wilson_interval(0, 20)
    _, hi1 = wilson_interval(20, 20)
    assert lo0 == 0.0
    assert hi1 == 1.0
    with pytest.raises(ValueError):
        wilson_interval(1, 0)


def test_tail_report_counts_and_serialization(monkeypatch, written):
    import sgbh.montecarlo as montecarlo

    # three paths whose sups exceed rho = 1, 2 by counts [[2, 1], [0, 0]]
    sups = np.array([[1.5, 2.5, 0.5], [0.1, 0.2, 0.3]])
    monkeypatch.setattr(montecarlo, "_run_marching", lambda *a: (sups, np.zeros(sups.shape, bool)))
    spec = EnsembleSpec(n_paths=3, base_seed=1, eps_list=[1.0, 0.5])
    d = run_mdp_tail(spec, None, None, None, SpeedFunction(0.25), [1.0, 2.0], tail_p=8)
    counts, p_hat, lo, hi = (
        np.array([e[key] for e in d["per_eps"]])
        for key in ("exceed_counts", "p_hat", "wilson_lo", "wilson_hi")
    )
    np.testing.assert_allclose(p_hat, [[2 / 3, 1 / 3], [0.0, 0.0]])
    assert d["passed"] and d["pass_details"]["monotone_in_rho"]
    assert np.all(lo <= p_hat + 1e-12) and np.all(p_hat <= hi + 1e-12)
    # the array form is the scalar interval cell by cell
    for (i, j), c in np.ndenumerate(counts):
        assert (lo[i, j], hi[i, j]) == wilson_interval(c, 3)
    assert d["p_norm"] == 8
    assert d["rho"] == [1.0, 2.0]
    assert d["per_eps"][0]["exceed_counts"] == [2, 1]
    assert [e["n_paths"] for e in d["per_eps"]] == [3, 3]
    assert d["experiment"] == "mdp_tail"
    assert d["passed"] is True and d["pass_details"] == {"monotone_in_rho": True}
    text, csv = written("mdp-tail", d)
    assert json.loads(text) == d
    lines = csv.strip().split("\n")
    assert lines[0] == "eps,rho,n_paths,n_exceed,p_hat,wilson_lo,wilson_hi"
    assert len(lines) == 5
    assert "np.float64" not in csv
