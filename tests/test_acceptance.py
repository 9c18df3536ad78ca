"""Acceptance gate: one test per shipped guarantee, each printing a single
pass/fail line (run with -s to see them) and enforcing its runtime budget."""

import json
import time
from contextlib import contextmanager

import numpy as np

from sgbh.deviation import (
    EndpointControlMap,
    SpeedFunction,
    rate_function_endpoint,
)
from sgbh.model import (
    ModelParams,
    NoiseCoefficient,
    advective_derivative,
    advective_nonlinearity,
    reaction_derivative,
    reaction_nonlinearity,
    reaction_second_derivative,
)
from sgbh.montecarlo import (
    EnsembleSpec,
    default_initial,
    run_clt,
    run_heat_oracle,
    run_mdp_tail,
    run_strong_rate,
)
from sgbh.noise import NoiseSpec, sample_noise
from sgbh.solvers import (
    SolverConfig,
    solve_controlled,
    solve_deterministic,
    solve_skeleton,
    solve_spde,
)
from sgbh.spectral import Grid1D, SpectralBasis, apply_semigroup, heat_kernel

DESK = ModelParams(nu=0.1, alpha=1.0, beta=1.0, gamma=0.5, delta=1, p_norm=8)
LINEAR = ModelParams(nu=0.1, alpha=0.0, beta=0.0, gamma=0.5, delta=1, p_norm=8)
G_AFFINE = NoiseCoefficient("affine", 1.0, 0.5)
G_CONST = NoiseCoefficient("constant", 1.0, 0.0)
SPEC32 = NoiseSpec(n_modes=32, eta=0.3)


@contextmanager
def _criterion(num, label, budget=None):
    t0 = time.perf_counter()
    ok = False
    try:
        yield
        elapsed = time.perf_counter() - t0
        if budget is not None:
            assert elapsed < budget, f"runtime {elapsed:.1f}s exceeds budget {budget}s"
        ok = True
    finally:
        elapsed = time.perf_counter() - t0
        print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'} [{elapsed:.1f}s]")


def test_criterion_1_kernel_cross_validation():
    with _criterion(1, "kernel cross-validation", budget=10.0):
        grid = Grid1D(50)
        h = grid.spacing
        for t in np.linspace(0.01, 0.5, 50):
            k_img = heat_kernel(t, grid, method="images")
            k_eig = heat_kernel(t, grid, method="eigen")
            assert np.max(np.abs(k_img - k_eig)) < 1e-8
            # sub-stochasticity on the full lattice: nonnegative, mass <= 1
            assert k_img.min() >= -1e-12
            assert np.max(h * k_img.sum(axis=1)) <= 1.0 + 1e-10

        basis = SpectralBasis(Grid1D(128), 16)
        rng = np.random.default_rng(11)
        f = rng.standard_normal(16)
        for s, t in ((0.05, 0.2), (0.01, 0.01), (0.3, 0.15)):
            two_step = apply_semigroup(apply_semigroup(f, s, basis), t, basis)
            one_step = apply_semigroup(f, s + t, basis)
            assert np.max(np.abs(two_step - one_step)) < 1e-12


def _fd1(fn, u, h=1e-5):
    return (fn(u + h) - fn(u - h)) / (2 * h)


def _fd2(fn, u, h=1e-4):
    return (fn(u + h) - 2 * fn(u) + fn(u - h)) / (h * h)


def test_criterion_2_derivative_oracles():
    with _criterion(2, "derivative oracles", budget=1.0):
        rng = np.random.default_rng(2026)
        u = rng.uniform(-2.0, 2.0, 100)
        scale = np.maximum(1.0, np.abs(u) ** 0.0)  # hybrid floor at 1
        for delta in (1, 2, 3):
            p1 = advective_derivative(u, delta)
            fd = _fd1(lambda r: advective_nonlinearity(r, delta), u)
            assert np.max(np.abs(p1 - fd) / np.maximum(1.0, np.abs(p1))) < 1e-6
            for gamma in (0.25, 0.5, 0.75):
                c1 = reaction_derivative(u, gamma, delta)
                fd = _fd1(lambda r: reaction_nonlinearity(r, gamma, delta), u)
                assert np.max(np.abs(c1 - fd) / np.maximum(scale, np.abs(c1))) < 1e-6
                c2 = reaction_second_derivative(u, gamma, delta)
                fd = _fd2(lambda r: reaction_nonlinearity(r, gamma, delta), u)
                assert np.max(np.abs(c2 - fd) / np.maximum(1.0, np.abs(c2))) < 1e-6


def test_criterion_3_heat_oracle():
    with _criterion(3, "stochastic-heat variance oracle", budget=120.0):
        params = ModelParams(nu=0.025, alpha=0.0, beta=0.0, gamma=0.5, delta=1, p_norm=8)
        cfg = SolverConfig(dt=1e-4, t_end=0.25, n_modes=32, n_points=128)
        spec = EnsembleSpec(n_paths=2000, base_seed=101, eps_list=(1.0,))
        report = run_heat_oracle(spec, params, cfg, noise_spec=SPEC32, g_constant=1.0)
        assert report["per_eps"][0]["frac_z_within"] >= 0.95
        assert report["passed"] is True


def test_criterion_4_strong_rate_scaling():
    with _criterion(4, "strong deviation scaling", budget=300.0):
        cfg = SolverConfig(dt=1e-3, t_end=0.25, n_modes=32, n_points=256)
        # linear case: coupled statistic scales exactly like eps^(p/2)
        lin = EnsembleSpec(n_paths=100, base_seed=404, eps_list=(1e-2, 1e-3, 1e-4))
        rep = run_strong_rate(lin, LINEAR, G_CONST, cfg)
        assert abs(rep["slope"] - DESK.p_norm / 2) <= 0.05

        full = EnsembleSpec(n_paths=500, base_seed=405, eps_list=(1e-2, 1e-3, 1e-4))
        rep = run_strong_rate(full, DESK, G_AFFINE, cfg, noise_spec=SPEC32)
        assert rep["slope"] >= DESK.p_norm / 2 - 0.3
        assert rep["r_squared"] >= 0.99
        assert rep["passed"] is True


def test_criterion_5_clt_convergence():
    with _criterion(5, "central-limit convergence", budget=300.0):
        cfg = SolverConfig(dt=1e-3, t_end=0.25, n_modes=32, n_points=256)
        spec = EnsembleSpec(n_paths=128, base_seed=505, eps_list=(1e-1, 1e-2, 1e-3))
        rep = run_clt(spec, DESK, G_AFFINE, cfg, noise_spec=SPEC32)
        means = np.asarray(rep["mean"])
        assert np.all(means[:-1] > means[1:])  # strictly decreasing in eps
        assert rep["slope"] >= 0.4
        assert rep["passed"] is True

        # linear drift with constant noise: the deviation field is exact
        lin = EnsembleSpec(n_paths=16, base_seed=506, eps_list=(1e-1, 1e-2, 1e-3))
        rep = run_clt(lin, LINEAR, G_CONST, cfg, noise_spec=SPEC32)
        assert max(rep["mean"]) < 1e-9


def test_criterion_6_rate_function():
    with _criterion(6, "rate function machinery", budget=60.0):
        cfg = SolverConfig(dt=1e-3, t_end=0.05, n_modes=8, n_points=64)
        spec8 = NoiseSpec(n_modes=8, eta=0.3)
        grid = Grid1D(cfg.n_points)
        u0 = solve_deterministic(default_initial(grid), DESK, cfg)
        rng = np.random.default_rng(606)

        res, _ = rate_function_endpoint(np.zeros(8), u0, DESK, G_AFFINE, cfg, noise_spec=spec8)
        assert res["value"] == 0.0 and res["converged"] and res["iterations"] == 0

        psi = 1e-3 * rng.standard_normal(8)
        r1, _ = rate_function_endpoint(psi, u0, DESK, G_AFFINE, cfg, tol=1e-12, noise_spec=spec8)
        r2, _ = rate_function_endpoint(
            2 * psi, u0, DESK, G_AFFINE, cfg, tol=1e-12, noise_spec=spec8
        )
        assert r1["converged"] and r2["converged"]
        assert abs(r2["value"] - 4.0 * r1["value"]) <= 1e-6 * abs(4.0 * r1["value"])

        cmap = EndpointControlMap(u0, DESK, G_AFFINE, cfg, noise_spec=spec8)
        a = cmap.matrix[:8]
        direct = 0.5 * float(psi @ np.linalg.pinv(a @ a.T) @ psi)
        assert abs(r1["value"] - direct) <= 1e-8 * max(1.0, abs(direct))

        for _ in range(5):
            hd = rng.standard_normal((cmap.n_control_modes, cmap.n_steps))
            w = rng.standard_normal(cfg.n_modes)
            lhs = float(cmap.forward(hd) @ w)
            rhs = float(np.sum(hd * cmap.adjoint(w)) * cfg.dt)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))

        for _ in range(20):
            hd = 0.3 * rng.standard_normal((8, cfg.n_steps))
            ctrl = cmap.control_path(hd)
            z = solve_skeleton(u0, DESK, G_AFFINE, ctrl, cfg, noise_spec=spec8)
            res, _ = rate_function_endpoint(
                z.coeffs[-1], u0, DESK, G_AFFINE, cfg, tol=1e-10, noise_spec=spec8
            )
            assert res["value"] <= ctrl.action() + 1e-8


def test_criterion_7_mdp_process_consistency():
    with _criterion(7, "moderate-deviation process consistency", budget=120.0):
        cfg = SolverConfig(dt=1e-3, t_end=0.05, n_modes=16, n_points=128)
        spec16 = NoiseSpec(n_modes=16, eta=0.3)
        grid = Grid1D(cfg.n_points)
        u0f = default_initial(grid)
        u0 = solve_deterministic(u0f, DESK, cfg)
        for theta in (0.1, 0.25, 0.4):
            speed = SpeedFunction(theta)
            for eps in (1e-2, 1e-4):
                noise = sample_noise(spec16, cfg.dt, cfg.n_steps, seed=707, path_index=3)
                u_eps = solve_spde(u0f, DESK, G_AFFINE, eps, noise, cfg)
                z = solve_controlled(u0, DESK, G_AFFINE, eps, speed, noise, None, cfg)
                scale = np.sqrt(eps) * speed(eps)
                gap = u_eps.coeffs - (u0.coeffs + scale * z.coeffs)
                assert np.max(np.abs(gap)) <= 1e-9, (theta, eps)

        # theta = 0 collapses the rescaled field onto the CLT deviation
        eps = 1e-2
        noise = sample_noise(spec16, cfg.dt, cfg.n_steps, seed=708, path_index=0)
        z0 = solve_controlled(u0, DESK, G_AFFINE, eps, SpeedFunction(0.0), noise, None, cfg)
        u_eps = solve_spde(u0f, DESK, G_AFFINE, eps, noise, cfg)
        v_eps = (u_eps.coeffs - u0.coeffs) / np.sqrt(eps)
        assert np.max(np.abs(z0.coeffs - v_eps)) <= 1e-9

        spec = EnsembleSpec(n_paths=48, base_seed=709, eps_list=(1e-2, 1e-4))
        report = run_mdp_tail(
            spec, DESK, G_AFFINE, cfg, SpeedFunction(0.25),
            rho_list=(0.25, 0.5, 1.0, 2.0), noise_spec=spec16, tail_p=2,
        )
        assert report["passed"] and report["pass_details"]["monotone_in_rho"]


def test_criterion_8_reproducibility():
    with _criterion(8, "byte-identical reruns"):
        cfg = SolverConfig(dt=1e-3, t_end=0.05, n_modes=8, n_points=64)
        spec = EnsembleSpec(
            n_paths=9, base_seed=808, eps_list=(0.5, 0.25, 0.125), block_size=3
        )
        # inline against a pool of up to three workers, byte for byte: the
        # golden runs compare floats at rtol 1e-12, and only at workers 1 and 2
        blobs = []
        for w in (1, 3):
            rep = run_strong_rate(spec, DESK, G_AFFINE, cfg, noise_spec=NoiseSpec(8, 0.3), workers=w)
            blobs.append(json.dumps(rep))
        assert blobs[0] == blobs[1]
