"""Tests for the ensemble runners.

The sharpest checks exploit coupling: on the linear equation the coupled
difference statistics scale exactly, so ratios and slopes are determined
to roundoff rather than to Monte Carlo error.  Reproducibility is asserted
byte-for-byte across worker counts and reruns.
"""

import json

import numpy as np
import pytest

from sgbh.deviation import SpeedFunction
from sgbh.model import ModelParams, NoiseCoefficient
from sgbh.montecarlo import (
    EnsembleSpec,
    default_initial,
    fit_loglog,
    run_clt,
    run_heat_oracle,
    run_mdp_tail,
    run_strong_rate,
)
from sgbh.noise import NoiseSpec, sample_noise
from sgbh.solvers import SolverConfig
from sgbh.spectral import build_grid

LINEAR = ModelParams(nu=0.1, alpha=0.0, beta=0.0, gamma=0.5, delta=1, p_norm=8)
DESK = ModelParams(nu=0.1, alpha=1.0, beta=1.0, gamma=0.5, delta=1, p_norm=8)
G_CONST = NoiseCoefficient(kind="constant", kappa0=1.0)
G_AFFINE = NoiseCoefficient(kind="affine", kappa0=1.0, kappa1=0.5)
CFG_SMALL = SolverConfig(dt=0.001, t_end=0.05, n_modes=8, n_points=64)
SPEC8 = NoiseSpec(n_modes=8, eta=0.3)


# --- spec and fit -------------------------------------------------------------


def test_ensemble_spec_validation():
    good = EnsembleSpec(n_paths=4, base_seed=1, eps_list=[0.1, 0.01])
    assert good.eps_list == (0.1, 0.01)
    with pytest.raises(ValueError):
        EnsembleSpec(n_paths=0, base_seed=1, eps_list=[0.1])
    with pytest.raises(ValueError):
        EnsembleSpec(n_paths=4, base_seed=1, eps_list=[])
    with pytest.raises(ValueError):
        EnsembleSpec(n_paths=4, base_seed=1, eps_list=[1.5])
    with pytest.raises(ValueError):
        EnsembleSpec(n_paths=4, base_seed=1, eps_list=[0.01, 0.1])
    with pytest.raises(ValueError):
        EnsembleSpec(n_paths=4, base_seed=1, eps_list=[0.1], experiment="weak_rate")
    with pytest.raises(ValueError):
        EnsembleSpec(n_paths=4, base_seed=1, eps_list=[0.1], block_size=0)
    with pytest.raises(ValueError):
        EnsembleSpec(n_paths=4, base_seed=1, eps_list=[0.1], guard_threshold=0.0)


def test_fit_loglog_exact_and_noisy():
    eps = np.array([1.0, 0.5, 0.25, 0.125])
    exact = fit_loglog(zip(eps, 3.0 * eps**2))
    assert exact.slope == pytest.approx(2.0, abs=1e-12)
    assert exact.intercept == pytest.approx(np.log(3.0), abs=1e-12)
    assert exact.r_squared == pytest.approx(1.0, abs=1e-12)
    half = fit_loglog(zip(eps, eps**0.5))
    assert half.slope == pytest.approx(0.5, abs=1e-12)
    rng = np.random.default_rng(1)
    noisy = fit_loglog(zip(eps, eps**2 * np.exp(0.05 * rng.standard_normal(4))))
    assert noisy.slope == pytest.approx(2.0, abs=0.1)
    with pytest.raises(ValueError):
        fit_loglog([(1.0, 1.0), (0.5, 0.5)])
    with pytest.raises(ValueError):
        fit_loglog([(1.0, 1.0), (0.5, 0.0), (0.25, 1.0)])


def test_default_initial_is_the_parabolic_bump():
    grid = build_grid(16)
    f = default_initial(grid)
    np.testing.assert_allclose(f.data, grid.nodes * (1 - grid.nodes), rtol=1e-15)


# --- strong rate ------------------------------------------------------------------


def test_strong_rate_coupled_linear_scales_exactly():
    """With shared increments and a linear equation, u_eps - u0 = sqrt(eps) X
    for a single X per path, so the fit is exact: slope p/2, r^2 = 1."""
    spec = EnsembleSpec(
        n_paths=32, base_seed=11, eps_list=[1.0, 0.5, 0.25], block_size=8
    )
    rep = run_strong_rate(spec, LINEAR, G_CONST, CFG_SMALL, noise_spec=SPEC8)
    assert rep.slope == pytest.approx(4.0, abs=1e-10)
    assert rep.r_squared == pytest.approx(1.0, abs=1e-12)
    assert rep.passed is True
    assert rep.n_rejected == [0, 0, 0]
    # mean ratio between adjacent eps is exactly 2^(p/2) = 16
    assert rep.mean[0] / rep.mean[1] == pytest.approx(16.0, rel=1e-10)
    # nothing rejected, so censored stats coincide with the full-horizon ones
    assert rep.censored_mean == rep.mean
    assert rep.censored_stderr == rep.stderr


def test_strong_rate_uncoupled_still_sees_the_rate():
    spec = EnsembleSpec(
        n_paths=32, base_seed=12, eps_list=[1.0, 0.5, 0.25], coupled=False, block_size=16
    )
    rep = run_strong_rate(spec, LINEAR, G_CONST, CFG_SMALL, noise_spec=SPEC8)
    assert rep.coupled is False
    assert 3.0 < rep.slope < 5.0
    assert all(b < a for a, b in zip(rep.mean, rep.mean[1:]))


def test_strong_rate_report_serialization(tmp_path):
    spec = EnsembleSpec(n_paths=8, base_seed=13, eps_list=[1.0, 0.5, 0.25], block_size=8)
    rep = run_strong_rate(spec, LINEAR, G_CONST, CFG_SMALL, noise_spec=SPEC8)
    d = json.loads(rep.to_json())
    assert d["experiment"] == "strong_rate"
    assert d["slope_target"] == pytest.approx(4.0)
    assert isinstance(d["passed"], bool)
    csv = tmp_path / "rep.csv"
    rep.to_csv(csv)
    lines = csv.read_text().strip().split("\n")
    assert lines[0] == "eps,mean,stderr,n_rejected"
    assert len(lines) == 4
    assert "np.float64" not in csv.read_text()
    data = np.loadtxt(csv, delimiter=",", skiprows=1)
    np.testing.assert_allclose(data[:, 0], [1.0, 0.5, 0.25], rtol=1e-15)
    np.testing.assert_allclose(data[:, 1], rep.mean, rtol=1e-15)


def test_strong_rate_full_rejection_fails_honestly(tmp_path):
    # a guard below the initial norm censors every path at t = 0
    spec = EnsembleSpec(
        n_paths=6, base_seed=14, eps_list=[1.0, 0.5, 0.25], guard_threshold=1e-6
    )
    rep = run_strong_rate(spec, DESK, G_AFFINE, CFG_SMALL, noise_spec=SPEC8)
    assert rep.n_rejected == [6, 6, 6]
    assert rep.passed is False
    assert rep.pass_details["rejection_ok"] is False
    d = rep.to_dict()
    assert d["mean"] == [None, None, None]  # no accepted paths
    assert d["censored_mean"] == [0.0, 0.0, 0.0]  # sup up to the crossing step
    csv = tmp_path / "rej.csv"
    rep.to_csv(csv)
    assert "nan" in csv.read_text()


def test_runner_rejects_wrong_experiment_kind():
    spec = EnsembleSpec(n_paths=4, base_seed=1, eps_list=[0.1], experiment="clt")
    with pytest.raises(ValueError):
        run_strong_rate(spec, LINEAR, G_CONST, CFG_SMALL, noise_spec=SPEC8)
    with pytest.raises(ValueError):
        run_heat_oracle(spec, LINEAR, CFG_SMALL, noise_spec=SPEC8)
    spec2 = EnsembleSpec(n_paths=4, base_seed=1, eps_list=[0.1], experiment="strong_rate")
    with pytest.raises(ValueError):
        run_clt(spec2, DESK, G_AFFINE, CFG_SMALL, noise_spec=SPEC8)
    with pytest.raises(ValueError):
        run_mdp_tail(
            spec2, DESK, G_AFFINE, CFG_SMALL, SpeedFunction(0.25), [0.5], noise_spec=SPEC8
        )


# --- worker reproducibility ---------------------------------------------------------


def test_reports_are_byte_identical_across_worker_counts():
    spec = EnsembleSpec(
        n_paths=12, base_seed=15, eps_list=[0.5, 0.25, 0.125], block_size=4
    )
    serial = run_strong_rate(spec, DESK, G_AFFINE, CFG_SMALL, noise_spec=SPEC8)
    parallel = run_strong_rate(
        spec, DESK, G_AFFINE, CFG_SMALL, noise_spec=SPEC8, workers=3
    )
    again = run_strong_rate(spec, DESK, G_AFFINE, CFG_SMALL, noise_spec=SPEC8)
    assert serial.to_json() == parallel.to_json()
    assert serial.to_json() == again.to_json()


@pytest.mark.parametrize("coupled", [True, False])
def test_block_increments_are_step_major_path_draws(coupled):
    from sgbh.montecarlo import _block_increments

    payload = {
        "noise_spec": NoiseSpec(n_modes=6, eta=0.3),
        "cfg": CFG_SMALL,
        "coupled": coupled,
        "n_paths": 20,
        "base_seed": 31,
    }
    start, stop, eps_index = 5, 12, 2
    inc = _block_increments(payload, start, stop, eps_index)
    assert inc.shape == (CFG_SMALL.n_steps, stop - start, 6)
    assert inc[3].flags.c_contiguous
    offset = 0 if coupled else eps_index * payload["n_paths"]
    for b, i in enumerate(range(start, stop)):
        r = sample_noise(payload["noise_spec"], CFG_SMALL.dt, CFG_SMALL.n_steps, 31, offset + i)
        assert np.array_equal(inc[:, b, :], r.increments.T)


def test_block_size_only_regroups_arithmetic():
    # byte-identity is promised for a fixed block_size; changing it regroups
    # the batched GEMMs, so results agree to roundoff rather than bitwise
    small = EnsembleSpec(n_paths=10, base_seed=16, eps_list=[0.5, 0.25, 0.125], block_size=3)
    big = EnsembleSpec(n_paths=10, base_seed=16, eps_list=[0.5, 0.25, 0.125], block_size=128)
    a = run_strong_rate(small, DESK, G_AFFINE, CFG_SMALL, noise_spec=SPEC8)
    b = run_strong_rate(big, DESK, G_AFFINE, CFG_SMALL, noise_spec=SPEC8)
    np.testing.assert_allclose(a.mean, b.mean, rtol=1e-12)
    np.testing.assert_allclose(a.stderr, b.stderr, rtol=1e-12)
    assert a.n_rejected == b.n_rejected


def test_stderr_shrinks_with_ensemble_size():
    eps = [1.0, 0.5, 0.25]
    small = EnsembleSpec(n_paths=25, base_seed=17, eps_list=eps)
    large = EnsembleSpec(n_paths=100, base_seed=17, eps_list=eps)
    a = run_strong_rate(small, LINEAR, G_CONST, CFG_SMALL, noise_spec=SPEC8)
    b = run_strong_rate(large, LINEAR, G_CONST, CFG_SMALL, noise_spec=SPEC8)
    # 4x the paths should shrink stderr by about 2
    ratio = a.stderr[0] / b.stderr[0]
    assert 1.2 < ratio < 3.3


# --- clt --------------------------------------------------------------------------


def test_clt_linear_case_is_exactly_zero():
    """Constant g and a linear drift make the rescaled process and the limit
    field identical path by path, so the statistic vanishes identically."""
    spec = EnsembleSpec(
        n_paths=8, base_seed=18, eps_list=[0.09, 0.04, 0.01], experiment="clt"
    )
    rep = run_clt(spec, LINEAR, G_CONST, CFG_SMALL, noise_spec=SPEC8)
    assert rep.mean == [0.0, 0.0, 0.0]
    assert rep.n_rejected == [0, 0, 0]
    # exact zeros cannot be fitted on a log scale; the rule reports failure
    assert rep.passed is False
    assert rep.slope is None


def test_clt_nonlinear_remainder_decays_at_root_eps():
    spec = EnsembleSpec(
        n_paths=64, base_seed=19, eps_list=[1e-1, 1e-2, 1e-3], experiment="clt"
    )
    rep = run_clt(spec, DESK, G_AFFINE, CFG_SMALL, noise_spec=SPEC8)
    assert rep.passed is True
    assert rep.slope == pytest.approx(0.5, abs=0.1)
    assert all(b < a for a, b in zip(rep.mean, rep.mean[1:]))
    assert rep.pass_details["strictly_decreasing"] is True


def test_clt_requires_coupling_and_high_norm():
    spec = EnsembleSpec(
        n_paths=4, base_seed=1, eps_list=[0.1], experiment="clt", coupled=False
    )
    with pytest.raises(ValueError):
        run_clt(spec, DESK, G_AFFINE, CFG_SMALL, noise_spec=SPEC8)
    low_p = ModelParams(nu=0.1, alpha=1.0, beta=1.0, gamma=0.5, delta=1, p_norm=6)
    spec2 = EnsembleSpec(n_paths=4, base_seed=1, eps_list=[0.1], experiment="clt")
    with pytest.raises(ValueError):
        run_clt(spec2, low_p, G_AFFINE, CFG_SMALL, noise_spec=SPEC8)


# --- heat oracle -------------------------------------------------------------------


def test_heat_oracle_matches_ou_closed_form():
    cfg = SolverConfig(dt=0.001, t_end=0.1, n_modes=4, n_points=16)
    spec = EnsembleSpec(
        n_paths=200, base_seed=20, eps_list=[1.0, 0.25], experiment="heat_oracle"
    )
    noise = NoiseSpec(n_modes=4, eta=0.3)
    rep = run_heat_oracle(spec, LINEAR, cfg, noise_spec=noise)
    assert rep.passed is True
    assert all(f >= 0.95 for f in rep.frac_within)
    # coupled eps reuse the same increments: variances scale exactly by eps
    np.testing.assert_allclose(
        rep.var_empirical[0] / rep.var_empirical[1], 4.0, rtol=1e-10
    )
    np.testing.assert_allclose(rep.var_theory[0] / rep.var_theory[1], 4.0, rtol=1e-12)


def test_heat_oracle_serialization(tmp_path):
    cfg = SolverConfig(dt=0.001, t_end=0.05, n_modes=4, n_points=16)
    spec = EnsembleSpec(n_paths=50, base_seed=21, eps_list=[1.0], experiment="heat_oracle")
    rep = run_heat_oracle(spec, LINEAR, cfg, noise_spec=NoiseSpec(n_modes=4, eta=0.3))
    d = json.loads(rep.to_json())
    assert d["experiment"] == "heat_oracle"
    assert len(d["per_eps"]) == 1
    assert len(d["per_eps"][0]["z_scores"]) == 4
    csv = tmp_path / "oracle.csv"
    rep.to_csv(csv)
    lines = csv.read_text().strip().split("\n")
    assert lines[0] == "eps,mode,var_empirical,var_theory,z,mean,mean_stderr"
    assert len(lines) == 5
    assert "np.float64" not in csv.read_text()


def test_heat_oracle_rejects_nonlinear_params():
    cfg = SolverConfig(dt=0.001, t_end=0.05, n_modes=4, n_points=16)
    spec = EnsembleSpec(n_paths=4, base_seed=1, eps_list=[1.0], experiment="heat_oracle")
    with pytest.raises(ValueError):
        run_heat_oracle(spec, DESK, cfg, noise_spec=NoiseSpec(n_modes=4, eta=0.3))


# --- mdp tails ---------------------------------------------------------------------


def test_mdp_tail_report_is_monotone_and_tightens():
    spec = EnsembleSpec(
        n_paths=48, base_seed=22, eps_list=[1e-2, 1e-4], experiment="mdp_tail"
    )
    rep = run_mdp_tail(
        spec,
        DESK,
        G_AFFINE,
        CFG_SMALL,
        SpeedFunction(0.25),
        [0.25, 0.5, 1.0, 2.0],
        noise_spec=SPEC8,
    )
    assert rep.monotone_in_rho()
    assert np.all(rep.p_hat >= 0) and np.all(rep.p_hat <= 1)
    # smaller eps concentrates the family: tails do not grow
    assert np.all(rep.p_hat[1] <= rep.p_hat[0])


def test_mdp_tail_threshold_guard_interaction():
    spec = EnsembleSpec(
        n_paths=4,
        base_seed=23,
        eps_list=[1e-2],
        experiment="mdp_tail",
        guard_threshold=10.0,
    )
    with pytest.raises(ValueError):
        run_mdp_tail(
            spec, DESK, G_AFFINE, CFG_SMALL, SpeedFunction(0.25), [5.0, 20.0],
            noise_spec=SPEC8,
        )
    with pytest.raises(ValueError):
        run_mdp_tail(spec, DESK, G_AFFINE, CFG_SMALL, 2.0, [5.0], noise_spec=SPEC8)
