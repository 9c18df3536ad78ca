"""Tests for the ensemble runners.

The sharpest checks exploit coupling: on the linear equation the coupled
difference statistics scale exactly, so ratios and slopes are determined
to roundoff rather than to Monte Carlo error.  Reproducibility is asserted
byte-for-byte across worker counts and reruns.
"""

import io
import json
import warnings
from types import SimpleNamespace

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
from sgbh.solvers import (
    BlowupError,
    BlowupGuard,
    NumericalAbortError,
    Row,
    SetupError,
    SolverConfig,
    SolverEngine,
    march,
    solve_clt_limit,
    solve_controlled,
    solve_deterministic,
    solve_spde,
)
from sgbh.spectral import Grid1D

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
        EnsembleSpec(n_paths=4, base_seed=1, eps_list=[0.1], block_size=0)


def test_fit_loglog_exact_and_noisy():
    eps = np.array([1.0, 0.5, 0.25, 0.125])
    exact = fit_loglog(zip(eps, 3.0 * eps**2))
    assert exact["slope"] == pytest.approx(2.0, abs=1e-12)
    assert exact["intercept"] == pytest.approx(np.log(3.0), abs=1e-12)
    assert exact["r_squared"] == pytest.approx(1.0, abs=1e-12)
    half = fit_loglog(zip(eps, eps**0.5))
    assert half["slope"] == pytest.approx(0.5, abs=1e-12)
    rng = np.random.default_rng(1)
    noisy = fit_loglog(zip(eps, eps**2 * np.exp(0.05 * rng.standard_normal(4))))
    assert noisy["slope"] == pytest.approx(2.0, abs=0.1)
    with pytest.raises(ValueError):
        fit_loglog([(1.0, 1.0), (0.5, 0.5)])
    with pytest.raises(ValueError):
        fit_loglog([(1.0, 1.0), (0.5, 0.0), (0.25, 1.0)])
    # one distinct eps leaves the slope undetermined
    with pytest.raises(ValueError, match="two distinct eps"):
        fit_loglog([(0.5, 1.0), (0.5, 2.0), (0.5, 3.0)])
    # the closed form against a least-squares solve on random point sets
    for n in (3, 4, 5, 6):
        e = np.exp(-3.0 * rng.random(n))
        s = np.exp(rng.standard_normal(n))
        fit = fit_loglog(zip(e, s))
        slope, intercept = np.polyfit(np.log(e), np.log(s), 1)
        assert fit["slope"] == pytest.approx(slope, rel=1e-12)
        assert fit["intercept"] == pytest.approx(intercept, rel=1e-12)


def test_default_initial_is_the_parabolic_bump():
    grid = Grid1D(16)
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
    assert rep["slope"] == pytest.approx(4.0, abs=1e-10)
    assert rep["r_squared"] == pytest.approx(1.0, abs=1e-12)
    assert rep["passed"] is True
    assert rep["n_rejected"] == [0, 0, 0]
    # mean ratio between adjacent eps is exactly 2^(p/2) = 16
    assert rep["mean"][0] / rep["mean"][1] == pytest.approx(16.0, rel=1e-10)
    # nothing rejected, so censored stats coincide with the full-horizon ones
    assert rep["censored_mean"] == rep["mean"]
    assert rep["censored_stderr"] == rep["stderr"]


def test_strong_rate_report_serialization(written):
    spec = EnsembleSpec(n_paths=8, base_seed=13, eps_list=[1.0, 0.5, 0.25], block_size=8)
    rep = run_strong_rate(spec, LINEAR, G_CONST, CFG_SMALL, noise_spec=SPEC8)
    text, csv = written("strong-rate", rep)
    d = json.loads(text)
    assert d == rep  # every statistic of this run is finite
    assert d["experiment"] == "strong_rate"
    assert d["slope_target"] == pytest.approx(4.0)
    assert isinstance(d["passed"], bool)
    lines = csv.strip().split("\n")
    assert lines[0] == "eps,mean,stderr,n_rejected"
    assert len(lines) == 4
    assert "np.float64" not in csv
    data = np.loadtxt(io.StringIO(csv), delimiter=",", skiprows=1)
    np.testing.assert_allclose(data[:, 0], [1.0, 0.5, 0.25], rtol=1e-15)
    np.testing.assert_allclose(data[:, 1], rep["mean"], rtol=1e-15)


def test_strong_rate_full_rejection_fails_honestly(written):
    # a guard below the initial norm censors every path at t = 0
    spec = EnsembleSpec(
        n_paths=6, base_seed=14, eps_list=[1.0, 0.5, 0.25], guard=BlowupGuard(1e-6)
    )
    rep = run_strong_rate(spec, DESK, G_AFFINE, CFG_SMALL, noise_spec=SPEC8)
    assert rep["n_rejected"] == [6, 6, 6]
    assert rep["passed"] is False
    assert rep["pass_details"]["rejection_ok"] is False
    assert all(np.isnan(rep["mean"]))  # no accepted paths
    text, csv = written("strong-rate", rep)
    d = json.loads(text)
    assert d["mean"] == [None, None, None]  # written as null
    assert d["censored_mean"] == [0.0, 0.0, 0.0]  # sup up to the crossing step
    assert "nan" in csv


# --- worker reproducibility ---------------------------------------------------------


HEAT_CFG = SolverConfig(dt=0.001, t_end=0.05, n_modes=4, n_points=16)

TRIP_GUARD = 0.25  # trips some paths of every marching runner below, not all

# each runner at small sizes, as runner(spec, workers); mdp-tail's last rho is
# TRIP_GUARD, where a path counts exactly when the TRIP_GUARD guard trips it
RUNNERS = {
    "strong-rate": lambda spec, workers: run_strong_rate(
        spec, DESK, G_AFFINE, CFG_SMALL, noise_spec=SPEC8, workers=workers
    ),
    "clt": lambda spec, workers: run_clt(
        spec, DESK, G_AFFINE, CFG_SMALL, noise_spec=SPEC8, workers=workers
    ),
    "mdp-tail": lambda spec, workers: run_mdp_tail(
        spec, DESK, G_AFFINE, CFG_SMALL, SpeedFunction(0.25), [0.12, 0.15, 0.18, TRIP_GUARD],
        noise_spec=SPEC8, tail_p=4, workers=workers,
    ),
    "heat-oracle": lambda spec, workers: run_heat_oracle(
        spec, LINEAR, HEAT_CFG, noise_spec=NoiseSpec(n_modes=4, eta=0.3), workers=workers
    ),
}


def _plain(doc):
    """Whether ``doc`` holds only the types that JSON reads back: no numpy scalar."""
    if isinstance(doc, dict):
        return all(type(k) is str and _plain(v) for k, v in doc.items())
    if isinstance(doc, list):
        return all(_plain(v) for v in doc)
    return doc is None or type(doc) in (bool, int, float, str)


POOL_SPEC = EnsembleSpec(n_paths=12, base_seed=15, eps_list=[0.5, 0.25, 0.125], block_size=4)
TRIP_SPEC = EnsembleSpec(
    n_paths=12, base_seed=15, eps_list=[0.5, 0.25, 0.125], block_size=4,
    guard=BlowupGuard(TRIP_GUARD),
)


@pytest.mark.parametrize(
    "kind,spec",
    [pytest.param(kind, POOL_SPEC, id=kind) for kind in RUNNERS]
    + [
        pytest.param(kind, TRIP_SPEC, id=f"{kind}-trips")
        for kind in ("strong-rate", "clt", "mdp-tail")
    ],
)
def test_reports_are_byte_identical_across_worker_counts(kind, spec):
    """Every runner's inputs reach real pool workers intact (mdp-tail's speed
    and tail_p, the heat oracle's weights), and a marching runner's trip masks
    join in path order.  Each report holds plain Python values only."""
    serial = RUNNERS[kind](spec, 1)
    assert _plain(serial)
    parallel = RUNNERS[kind](spec, 3)
    again = RUNNERS[kind](spec, 1)
    assert json.dumps(serial) == json.dumps(parallel)
    assert json.dumps(serial) == json.dumps(again)
    if spec is TRIP_SPEC:
        if kind == "mdp-tail":
            tripped = [e["exceed_counts"][-1] for e in serial["per_eps"]]
        else:
            tripped = serial["n_rejected"]
        assert 0 < sum(tripped) < spec.n_paths * len(spec.eps_list)


def test_block_increments_are_step_major_path_draws():
    from sgbh.montecarlo import _block_increments

    noise_spec = NoiseSpec(n_modes=6, eta=0.3)
    eng = SolverEngine(DESK, CFG_SMALL, g=G_AFFINE, noise_spec=noise_spec)
    start, stop = 5, 12
    inc = _block_increments(eng, 31, start, stop)
    assert inc.shape == (CFG_SMALL.n_steps, stop - start, 6)
    assert inc[3].flags.c_contiguous
    for b, i in enumerate(range(start, stop)):
        r = sample_noise(noise_spec, CFG_SMALL.dt, CFG_SMALL.n_steps, 31, i)
        assert np.array_equal(inc[:, b, :], r.increments.T)


def test_block_size_only_regroups_arithmetic():
    # byte-identity is promised for a fixed block_size; changing it regroups
    # the batched GEMMs, so results agree to roundoff rather than bitwise
    small = EnsembleSpec(n_paths=10, base_seed=16, eps_list=[0.5, 0.25, 0.125], block_size=3)
    big = EnsembleSpec(n_paths=10, base_seed=16, eps_list=[0.5, 0.25, 0.125], block_size=128)
    a = run_strong_rate(small, DESK, G_AFFINE, CFG_SMALL, noise_spec=SPEC8)
    b = run_strong_rate(big, DESK, G_AFFINE, CFG_SMALL, noise_spec=SPEC8)
    np.testing.assert_allclose(a["mean"], b["mean"], rtol=1e-12)
    np.testing.assert_allclose(a["stderr"], b["stderr"], rtol=1e-12)
    assert a["n_rejected"] == b["n_rejected"]


@pytest.fixture
def pool_sizes(monkeypatch):
    """Replace the process pool by a recording fake that runs blocks inline;
    yields the max_workers of every pool started.  No real pool starts.  The
    process may use 64 CPUs, so only the workers and blocks bound the pool."""
    import concurrent.futures

    import sgbh.montecarlo as montecarlo

    monkeypatch.setattr(montecarlo, "_available_cpus", lambda: 64)
    sizes = []

    class RecordingExecutor:
        def __init__(self, max_workers, initializer=None, initargs=()):
            sizes.append(max_workers)
            if initializer is not None:
                initializer(*initargs)  # what each worker runs once, at its start

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            fut = concurrent.futures.Future()
            fut.set_result(fn(*args))
            return fut

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
    return sizes


@pytest.mark.parametrize(
    "n_paths,workers,pool", [(8, 64, 2), (12, 2, 2), (16, 3, 3), (4, 8, None), (8, 1, None)]
)
def test_pool_starts_no_more_workers_than_blocks(pool_sizes, n_paths, workers, pool):
    spec = EnsembleSpec(n_paths=n_paths, base_seed=19, eps_list=[0.5, 0.25, 0.125], block_size=4)
    got = run_strong_rate(spec, DESK, G_AFFINE, CFG_SMALL, noise_spec=SPEC8, workers=workers)
    assert pool_sizes == ([] if pool is None else [pool])
    inline = run_strong_rate(spec, DESK, G_AFFINE, CFG_SMALL, noise_spec=SPEC8)
    assert json.dumps(got) == json.dumps(inline)


@pytest.mark.parametrize("n_paths,block_size,workers", [(16, 4, 3), (40, 1, 5000)])
def test_pool_starts_no_more_workers_than_cpus(
    pool_sizes, monkeypatch, n_paths, block_size, workers
):
    import sgbh.montecarlo as montecarlo

    monkeypatch.setattr(montecarlo, "_available_cpus", lambda: 2)
    spec = EnsembleSpec(
        n_paths=n_paths, base_seed=19, eps_list=[0.5, 0.25, 0.125], block_size=block_size
    )
    got = run_strong_rate(spec, DESK, G_AFFINE, CFG_SMALL, noise_spec=SPEC8, workers=workers)
    assert pool_sizes == [2]
    inline = run_strong_rate(spec, DESK, G_AFFINE, CFG_SMALL, noise_spec=SPEC8)
    assert json.dumps(got) == json.dumps(inline)


@pytest.mark.parametrize(
    "env,line",
    [
        ({"OPENBLAS_NUM_THREADS": "3"}, "OPENBLAS_NUM_THREADS=3 BLAS threads x 2 workers = 6"),
        ({"OMP_NUM_THREADS": "2"}, "OMP_NUM_THREADS=2 BLAS threads x 2 workers = 4"),
        ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, None),
        ({"OPENBLAS_NUM_THREADS": "many"}, None),
        ({}, None),
    ],
    ids=["openblas-3", "omp-2", "openblas-1-wins", "not-a-number", "unset"],
)
def test_pool_names_user_set_blas_threads_on_stderr(pool_sizes, monkeypatch, capsys, env, line):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    spec = EnsembleSpec(n_paths=8, base_seed=20, eps_list=[0.5, 0.25, 0.125], block_size=4)
    run_strong_rate(spec, DESK, G_AFFINE, CFG_SMALL, noise_spec=SPEC8, workers=2)
    assert pool_sizes == [2]
    err = capsys.readouterr().err
    if line is None:
        assert err == ""
    else:
        assert err.count("\n") == 1 and line in err
        assert err.endswith(" threads on 64 CPUs\n")


def test_a_pool_sends_each_worker_the_block_once(monkeypatch):
    """A pool task pickles its span alone: the runner's bound block function,
    which holds the engine and the reference path, reaches each worker once,
    through the pool's initializer, and not with every block."""
    import concurrent.futures
    import pickle

    import sgbh.montecarlo as montecarlo

    monkeypatch.setattr(montecarlo, "_available_cpus", lambda: 2)
    installed, tasks = [], []

    class PicklingExecutor:
        def __init__(self, max_workers, initializer, initargs):
            installed.append(len(pickle.dumps(initargs)))
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            tasks.append(len(pickle.dumps((fn, args))))
            fut = concurrent.futures.Future()
            fut.set_result(fn(*args))
            return fut

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", PicklingExecutor)
    spec = EnsembleSpec(n_paths=12, base_seed=21, eps_list=[0.5, 0.25, 0.125], block_size=4)
    got = run_strong_rate(spec, DESK, G_AFFINE, CFG_SMALL, noise_spec=SPEC8, workers=2)
    assert len(installed) == 1 and installed[0] > 10_000
    assert len(tasks) == 3 and max(tasks) < 200
    inline = run_strong_rate(spec, DESK, G_AFFINE, CFG_SMALL, noise_spec=SPEC8)
    assert json.dumps(got) == json.dumps(inline)


def test_block_allocations_are_bounded():
    """A block's increments are capped at 2^24 entries."""
    # 41944 paths x 50 steps x 8 noise modes = 16,777,600, just over 16,777,216
    for block_size in (41944, 10**6):
        spec = EnsembleSpec(n_paths=41944, base_seed=1, eps_list=[0.1], block_size=block_size)
        with pytest.raises(SetupError, match=r"noise n_modes = 16777600 exceeds 16777216"):
            run_strong_rate(spec, DESK, G_AFFINE, CFG_SMALL, noise_spec=SPEC8)
    # the bound counts the paths a block holds, not its nominal size
    few = EnsembleSpec(n_paths=4, base_seed=1, eps_list=[0.5, 0.25, 0.125], block_size=10**6)
    run_strong_rate(few, DESK, G_AFFINE, CFG_SMALL, noise_spec=SPEC8)


def test_stderr_shrinks_with_ensemble_size():
    eps = [1.0, 0.5, 0.25]
    small = EnsembleSpec(n_paths=25, base_seed=17, eps_list=eps)
    large = EnsembleSpec(n_paths=100, base_seed=17, eps_list=eps)
    a = run_strong_rate(small, LINEAR, G_CONST, CFG_SMALL, noise_spec=SPEC8)
    b = run_strong_rate(large, LINEAR, G_CONST, CFG_SMALL, noise_spec=SPEC8)
    # 4x the paths should shrink stderr by about 2
    ratio = a["stderr"][0] / b["stderr"][0]
    assert 1.2 < ratio < 3.3


# --- clt --------------------------------------------------------------------------


def test_clt_linear_case_is_exactly_zero():
    """Constant g and a linear drift make the rescaled process and the limit
    field identical path by path, so the statistic vanishes identically."""
    spec = EnsembleSpec(n_paths=8, base_seed=18, eps_list=[0.09, 0.04, 0.01])
    rep = run_clt(spec, LINEAR, G_CONST, CFG_SMALL, noise_spec=SPEC8)
    assert rep["experiment"] == "clt"
    assert rep["mean"] == [0.0, 0.0, 0.0]
    assert rep["n_rejected"] == [0, 0, 0]
    # exact zeros cannot be fitted on a log scale; the rule reports failure
    assert rep["passed"] is False
    assert rep["slope"] is None


def test_clt_nonlinear_remainder_decays_at_root_eps():
    spec = EnsembleSpec(n_paths=64, base_seed=19, eps_list=[1e-1, 1e-2, 1e-3])
    rep = run_clt(spec, DESK, G_AFFINE, CFG_SMALL, noise_spec=SPEC8)
    assert rep["passed"] is True
    assert rep["slope"] == pytest.approx(0.5, abs=0.1)
    assert all(b < a for a, b in zip(rep["mean"], rep["mean"][1:]))
    assert rep["pass_details"]["strictly_decreasing"] is True


def test_ensembles_never_call_lapack(monkeypatch):
    """The slope fit is closed-form: no ensemble pages in LAPACK's
    least-squares or SVD code for a line through a few points."""

    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK called")

    for name in ("lstsq", "svd"):
        monkeypatch.setattr(np.linalg, name, refuse)
    monkeypatch.setattr(np, "polyfit", refuse)
    spec = EnsembleSpec(n_paths=8, base_seed=3, eps_list=[1e-1, 1e-2, 1e-3])
    for run in (run_strong_rate, run_clt):
        assert run(spec, DESK, G_AFFINE, CFG_SMALL, noise_spec=SPEC8)["slope"] is not None


def test_clt_requires_coupling_and_high_norm():
    # coupling is how every ensemble runs; only the norm can rule a CLT run out
    low_p = ModelParams(nu=0.1, alpha=1.0, beta=1.0, gamma=0.5, delta=1, p_norm=6)
    spec = EnsembleSpec(n_paths=4, base_seed=1, eps_list=[0.1])
    with pytest.raises(ValueError):
        run_clt(spec, low_p, G_AFFINE, CFG_SMALL, noise_spec=SPEC8)


# --- heat oracle -------------------------------------------------------------------


def test_heat_oracle_matches_ou_closed_form():
    cfg = SolverConfig(dt=0.001, t_end=0.1, n_modes=4, n_points=16)
    spec = EnsembleSpec(n_paths=200, base_seed=20, eps_list=[1.0, 0.25])
    noise = NoiseSpec(n_modes=4, eta=0.3)
    rep = run_heat_oracle(spec, LINEAR, cfg, noise_spec=noise)
    assert rep["passed"] is True
    assert all(e["frac_z_within"] >= 0.95 for e in rep["per_eps"])
    # coupled eps reuse the same increments: variances scale exactly by eps
    var_empirical, var_theory = (
        np.array([e[key] for e in rep["per_eps"]]) for key in ("var_empirical", "var_theory")
    )
    np.testing.assert_allclose(var_empirical[0] / var_empirical[1], 4.0, rtol=1e-10)
    np.testing.assert_allclose(var_theory[0] / var_theory[1], 4.0, rtol=1e-12)


def test_heat_oracle_serialization(written):
    cfg = SolverConfig(dt=0.001, t_end=0.05, n_modes=4, n_points=16)
    spec = EnsembleSpec(n_paths=50, base_seed=21, eps_list=[1.0])
    rep = run_heat_oracle(spec, LINEAR, cfg, noise_spec=NoiseSpec(n_modes=4, eta=0.3))
    text, csv = written("heat-oracle", rep)
    d = json.loads(text)
    assert d == rep
    assert d["experiment"] == "heat_oracle"
    assert len(d["per_eps"]) == 1
    assert len(d["per_eps"][0]["z_scores"]) == 4
    lines = csv.strip().split("\n")
    assert lines[0] == "eps,mode,var_empirical,var_theory,z,mean,mean_stderr"
    assert len(lines) == 5
    assert "np.float64" not in csv


def test_heat_oracle_rejects_nonlinear_params():
    cfg = SolverConfig(dt=0.001, t_end=0.05, n_modes=4, n_points=16)
    spec = EnsembleSpec(n_paths=4, base_seed=1, eps_list=[1.0])
    with pytest.raises(ValueError):
        run_heat_oracle(spec, DESK, cfg, noise_spec=NoiseSpec(n_modes=4, eta=0.3))


def test_heat_oracle_rejects_unforced_modes():
    # modes beyond the noise's J have zero theoretical variance: no z-score
    cfg = SolverConfig(dt=0.001, t_end=0.05, n_modes=8, n_points=32)
    spec = EnsembleSpec(n_paths=4, base_seed=1, eps_list=[1.0])
    with pytest.raises(SetupError, match="noise n_modes"):
        run_heat_oracle(spec, LINEAR, cfg, noise_spec=NoiseSpec(n_modes=4, eta=0.3))


@pytest.mark.parametrize("t_end", [0.1, 2.5], ids=["K100", "K2500"])
def test_heat_block_matches_the_stepper_march(t_end):
    """The march the heat block's dot products replace, kept as their reference:
    exponential Euler stepped over the same sample_noise increments."""
    from sgbh.montecarlo import _block_heat, _heat_weights

    cfg = SolverConfig(dt=0.001, t_end=t_end, n_modes=4, n_points=16)
    noise = NoiseSpec(n_modes=4, eta=0.3)
    spec = EnsembleSpec(n_paths=6, base_seed=23, eps_list=[1.0, 0.3])
    eng = SolverEngine(LINEAR, cfg, g=NoiseCoefficient("constant", kappa0=1.7), noise_spec=noise)
    unit = _block_heat(eng, _heat_weights(eng), 23, 0, spec.n_paths)
    K = cfg.n_steps
    inc = np.stack(
        [sample_noise(noise, cfg.dt, K, 23, i).increments.T for i in range(spec.n_paths)], axis=1
    )
    # each mode's endpoint std at eps = 1: dt (kappa0 q)^2 sum_{m=1..K} E^(2m)
    x = LINEAR.nu * eng.basis.eigenvalues * cfg.dt
    std = 1.7 * noise.q * np.sqrt(cfg.dt * np.exp(-2 * x) * np.expm1(-2 * x * K) / np.expm1(-2 * x))
    for eps in spec.eps_list:
        step = eng.deviation_step(noise_inc=inc, noise_scale=np.sqrt(eps))
        a, bufs = np.zeros((spec.n_paths, cfg.n_modes)), eng.scratch((spec.n_paths,))
        for k in range(K):
            a = step(k, a, None, bufs)
        assert np.all(np.abs(np.sqrt(eps) * unit - a) <= 1e-12 * np.sqrt(eps) * std)


def test_heat_weights_are_the_discrete_semigroup():
    """With x = nu lambda_j dt and E = exp(-x): w[:, k] = E^(K - k) kappa0 q,
    and dt sum_k w[:, k]^2 is the geometric sum
    kappa0^2 q^2 dt e^(-2x) (1 - e^(-2xK)) / (1 - e^(-2x)), at the CLI defaults
    (K = 250) and the benchmark's heat shape (K = 2500).  Both sides come from
    the formulas here, not from the engine's arrays."""
    from sgbh.montecarlo import _heat_weights

    kappa0, J = 1.7, 32
    g = NoiseCoefficient("constant", kappa0=kappa0)
    j = np.arange(1, J + 1)
    q = ((j * np.pi) ** 2) ** -0.3
    for nu, dt, n_points in [(0.1, 1e-3, 256), (0.025, 1e-4, 128)]:
        params = ModelParams(nu=nu, alpha=0.0, beta=0.0, gamma=0.5, delta=1, p_norm=8)
        cfg = SolverConfig(dt=dt, t_end=0.25, n_modes=J, n_points=n_points)
        w = _heat_weights(SolverEngine(params, cfg, g=g, noise_spec=NoiseSpec(n_modes=J, eta=0.3)))
        assert w.flags.c_contiguous and not w.flags.writeable
        K = cfg.n_steps
        x = nu * (j * np.pi) ** 2 * dt
        # measured worst relative errors: 2.0e-15 (K = 250) and 5.4e-15 (K = 2500)
        closed = kappa0 * q[:, None] * np.exp(-x)[:, None] ** (K - np.arange(K))
        np.testing.assert_allclose(w, closed, rtol=2e-14, atol=0)
        # measured: 1.2e-14 (K = 250) and 1.6e-13 (K = 2500)
        energy = kappa0**2 * q**2 * dt * np.exp(-2 * x) * np.expm1(-2 * x * K) / np.expm1(-2 * x)
        np.testing.assert_allclose(dt * np.sum(w**2, axis=1), energy, rtol=5e-13, atol=0)


def test_heat_report_is_byte_identical_across_block_sizes():
    reports = [
        run_heat_oracle(
            EnsembleSpec(n_paths=10, base_seed=24, eps_list=[1.0, 0.5], block_size=b),
            LINEAR,
            HEAT_CFG,
            noise_spec=NoiseSpec(n_modes=4, eta=0.3),
        )
        for b in (3, 128)
    ]
    assert json.dumps(reports[0]) == json.dumps(reports[1])


def test_heat_block_holds_one_path_draw():
    import tracemalloc

    from sgbh.montecarlo import _block_heat, _heat_weights

    cfg = SolverConfig(dt=1e-3, t_end=1.0, n_modes=8, n_points=32)
    eng = SolverEngine(LINEAR, cfg, g=G_CONST, noise_spec=SPEC8)
    w = _heat_weights(eng)
    one_path = cfg.n_modes * cfg.n_steps * 8
    _block_heat(eng, w, 25, 0, 16)  # warm: the first call's one-off allocations are not the block's
    peaks = {}
    tracemalloc.start()
    try:
        for B in (16, 64):
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            _block_heat(eng, w, 25, 0, B)
            peaks[B] = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert peaks[64] < 1.5 * one_path
    # only the (B, J) endpoints it returns grow with the block
    assert peaks[64] <= peaks[16] + 64 * cfg.n_modes * 8


def test_heat_oracle_block_draw_is_not_bounded(monkeypatch):
    import sgbh.solvers as solvers

    # a marching block's (K, B, J) draw is 50 * 8 * 4 = 1600 entries; the
    # heat oracle's reduction keeps 8 * 4
    monkeypatch.setattr(solvers, "MAX_RUN_ENTRIES", 1000)
    spec = EnsembleSpec(n_paths=8, base_seed=26, eps_list=[1.0])
    noise = NoiseSpec(n_modes=4, eta=0.3)
    assert run_heat_oracle(spec, LINEAR, HEAT_CFG, noise_spec=noise)["n_paths"] == 8
    with pytest.raises(SetupError, match=r"n_modes = 1600 exceeds 1000"):
        run_strong_rate(spec, LINEAR, G_CONST, HEAT_CFG, noise_spec=noise)


# --- mdp tails ---------------------------------------------------------------------


def test_mdp_tail_report_is_monotone_and_tightens():
    spec = EnsembleSpec(n_paths=48, base_seed=22, eps_list=[1e-2, 1e-4])
    rep = run_mdp_tail(
        spec,
        DESK,
        G_AFFINE,
        CFG_SMALL,
        SpeedFunction(0.25),
        [0.25, 0.5, 1.0, 2.0],
        noise_spec=SPEC8,
    )
    assert rep["passed"] and rep["pass_details"]["monotone_in_rho"]
    p_hat = np.array([e["p_hat"] for e in rep["per_eps"]])
    assert np.all(p_hat >= 0) and np.all(p_hat <= 1)
    # smaller eps concentrates the family: tails do not grow
    assert np.all(p_hat[1] <= p_hat[0])


def test_mdp_tail_threshold_guard_interaction():
    spec = EnsembleSpec(
        n_paths=4,
        base_seed=23,
        eps_list=[1e-2],
        guard=BlowupGuard(10.0),
    )
    with pytest.raises(ValueError):
        run_mdp_tail(
            spec, DESK, G_AFFINE, CFG_SMALL, SpeedFunction(0.25), [5.0, 20.0],
            noise_spec=SPEC8,
        )
    # lambda(eps) comes from a SpeedFunction only, not from anything with a theta
    for speed in (2.0, SimpleNamespace(theta=0.25)):
        with pytest.raises(ValueError, match="must be a SpeedFunction"):
            run_mdp_tail(spec, DESK, G_AFFINE, CFG_SMALL, speed, [5.0], noise_spec=SPEC8)


@pytest.mark.parametrize("tail_p", [2.5, 0, True])
def test_mdp_tail_p_must_be_an_integer_of_at_least_one(tail_p, monkeypatch):
    """tail_p is checked with the runner's other preconditions, before the
    reference solve: 2.5 was once truncated to p = 2 and reported as 2.5, and
    0 failed inside the first block with a bare ValueError."""
    import sgbh.montecarlo as mc

    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the checks")

    monkeypatch.setattr(mc, "solve_deterministic", no_solve)
    spec, speed = EnsembleSpec(n_paths=4, base_seed=23, eps_list=[1e-2]), SpeedFunction(0.25)
    with pytest.raises(SetupError, match="tail_p must be an integer >= 1"):
        run_mdp_tail(spec, DESK, G_AFFINE, CFG_SMALL, speed, [0.5], noise_spec=SPEC8, tail_p=tail_p)


# --- ensembles integrate the single-path schemes -------------------------------------


def _single_paths(spec):
    """Reference trajectory and the noise of path 0, as the ensembles draw it."""
    u0 = default_initial(Grid1D(CFG_SMALL.n_points))
    u0_traj = solve_deterministic(u0, DESK, CFG_SMALL)
    noise = sample_noise(SPEC8, CFG_SMALL.dt, CFG_SMALL.n_steps, spec.base_seed, 0)
    return u0, u0_traj, noise


def _sup_lp(traj_grid, p):
    return float(np.max(Grid1D(CFG_SMALL.n_points).lp_norm(traj_grid, p)))


@pytest.mark.parametrize("g", [G_CONST, G_AFFINE], ids=["constant", "affine"])
def test_strong_rate_ensemble_is_the_spde_solver(g):
    spec = EnsembleSpec(n_paths=1, base_seed=41, eps_list=[0.1, 0.01, 0.001])
    rep = run_strong_rate(spec, DESK, g, CFG_SMALL, noise_spec=SPEC8)
    u0, u0_traj, noise = _single_paths(spec)
    p = DESK.p_norm
    for eps, mean in zip(spec.eps_list, rep["mean"]):
        u = solve_spde(u0, DESK, g, eps, noise, CFG_SMALL)
        want = _sup_lp(u.grid_values() - u0_traj.grid_values(), p) ** p
        assert mean == pytest.approx(want, rel=1e-12, abs=0)


@pytest.mark.parametrize("g", [G_CONST, G_AFFINE], ids=["constant", "affine"])
def test_clt_ensemble_is_the_deviation_and_limit_solvers(g):
    spec = EnsembleSpec(n_paths=1, base_seed=42, eps_list=[0.1, 0.01, 0.001])
    rep = run_clt(spec, DESK, g, CFG_SMALL, noise_spec=SPEC8)
    _, u0_traj, noise = _single_paths(spec)
    v = solve_clt_limit(u0_traj, DESK, g, noise, CFG_SMALL)
    for eps, mean in zip(spec.eps_list, rep["mean"]):
        z = solve_controlled(u0_traj, DESK, g, eps, SpeedFunction(0.0), noise, None, CFG_SMALL)
        want = _sup_lp(z.grid_values() - v.grid_values(), DESK.p_norm)
        assert mean == pytest.approx(want, rel=1e-12, abs=0)


@pytest.mark.parametrize("g", [G_CONST, G_AFFINE], ids=["constant", "affine"])
def test_mdp_tail_ensemble_is_the_deviation_solver(g):
    # one path: its sup sits between two rho a relative 1e-12 apart
    spec = EnsembleSpec(n_paths=1, base_seed=43, eps_list=[1e-2, 1e-4])
    speed = SpeedFunction(0.25)
    _, u0_traj, noise = _single_paths(spec)
    for i, eps in enumerate(spec.eps_list):
        z = solve_controlled(u0_traj, DESK, g, eps, speed, noise, None, CFG_SMALL)
        sup = _sup_lp(z.grid_values(), 2)
        rho = [sup * (1 - 1e-12), sup * (1 + 1e-12)]
        rep = run_mdp_tail(spec, DESK, g, CFG_SMALL, speed, rho, noise_spec=SPEC8)
        assert rep["per_eps"][i]["exceed_counts"] == [1, 0]


# --- one guard: single paths raise where ensembles censor ----------------------------


def test_guard_crossing_mid_path_raises_where_the_ensemble_censors():
    spec0 = EnsembleSpec(n_paths=1, base_seed=44, eps_list=[1.0, 0.5, 0.25])
    u0, u0_traj, noise = _single_paths(spec0)
    p = DESK.p_norm
    paths = {eps: solve_spde(u0, DESK, G_AFFINE, eps, noise, CFG_SMALL) for eps in spec0.eps_list}
    # the threshold sits between the eps = 1 path's peak norm and its max before the peak
    norms = paths[1.0].norms
    k_star = int(np.argmax(norms))
    assert k_star > 0
    thr = 0.5 * (norms[:k_star].max() + norms[k_star])
    spec = EnsembleSpec(n_paths=1, base_seed=44, eps_list=spec0.eps_list, guard=BlowupGuard(thr))
    rep = run_strong_rate(spec, DESK, G_AFFINE, CFG_SMALL, noise_spec=SPEC8)
    assert rep["n_rejected"][0] == 1
    for i, eps in enumerate(spec.eps_list):
        traj = paths[eps]
        crossed = np.flatnonzero(traj.norms > thr)
        stat = Grid1D(CFG_SMALL.n_points).lp_norm(
            traj.grid_values() - u0_traj.grid_values(), p
        ) ** p
        if crossed.size == 0:
            solve_spde(u0, DESK, G_AFFINE, eps, noise, CFG_SMALL, guard=BlowupGuard(thr))
            assert rep["n_rejected"][i] == 0
            assert rep["mean"][i] == pytest.approx(stat.max(), rel=1e-12, abs=0)
            continue
        k_cross = int(crossed[0])
        guard = BlowupGuard(thr)
        with pytest.raises(BlowupError) as err:
            solve_spde(u0, DESK, G_AFFINE, eps, noise, CFG_SMALL, guard=guard)
        assert err.value.time == k_cross * CFG_SMALL.dt
        assert rep["n_rejected"][i] == 1
        assert rep["censored_mean"][i] == pytest.approx(stat[:k_cross].max(), rel=1e-12, abs=0)
    assert int(np.flatnonzero(norms > thr)[0]) == k_star


def test_non_finite_path_aborts_alone_and_is_censored_in_the_ensemble():
    # additive noise of size 1e110 keeps the L^2 norm finite at step 1, then the
    # cubic reaction overflows: the state itself goes non-finite at step 2
    params = ModelParams(nu=0.1, alpha=1.0, beta=1.0, gamma=0.5, delta=1, p_norm=2)
    g = NoiseCoefficient(kind="constant", kappa0=1e110)
    spec = EnsembleSpec(
        n_paths=1, base_seed=45, eps_list=[1.0, 0.5, 0.25], guard=BlowupGuard(1e300)
    )
    u0, _, noise = _single_paths(spec)
    with np.errstate(all="ignore"):
        for guard in (BlowupGuard(1e300), None):
            with pytest.raises(NumericalAbortError) as err:
                solve_spde(u0, params, g, 1.0, noise, CFG_SMALL, guard=guard)
            assert err.value.time == 2 * CFG_SMALL.dt
        rep = run_strong_rate(spec, params, g, CFG_SMALL, noise_spec=SPEC8)
    assert rep["n_rejected"] == [1, 1, 1]
    assert np.isnan(rep["mean"]).all()
    # the censored sup is the finite step-1 statistic
    assert all(np.isfinite(m) and m > 1e200 for m in rep["censored_mean"])


def test_guarded_overflow_warns_of_nothing():
    """The setup above, at the golden grid: each non-finite value the march,
    the single-path drive and the statistics meet is a guard trip, a censored
    path or a null, so none of them warns."""
    params = ModelParams(nu=0.1, alpha=1.0, beta=1.0, gamma=0.5, delta=1, p_norm=2)
    g = NoiseCoefficient(kind="constant", kappa0=1e110)
    cfg = SolverConfig(dt=0.01, t_end=0.2, n_modes=8, n_points=64)
    spec = EnsembleSpec(
        n_paths=3, base_seed=45, eps_list=[0.5, 0.25, 0.125], guard=BlowupGuard(1e300)
    )
    u0 = default_initial(Grid1D(cfg.n_points))
    noise = sample_noise(SPEC8, cfg.dt, cfg.n_steps, spec.base_seed, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = run_strong_rate(spec, params, g, cfg, noise_spec=SPEC8)
        with pytest.raises(NumericalAbortError):  # a nan state is still an abort
            solve_spde(u0, params, g, 0.5, noise, cfg, guard=spec.guard)
    assert rep["n_rejected"] == [3, 3, 3]
    assert not any(np.isfinite(rep["censored_stderr"]))


@pytest.mark.parametrize("thr", [0.0, -1.0, float("nan")])
def test_guard_thresholds_must_be_positive(thr):
    with pytest.raises(ValueError):
        BlowupGuard(thr)


def _block_parts(kind):
    """A marching runner's per-eps lane builder and its limit (None but clt's)."""
    import functools

    from sgbh.montecarlo import _clt_limit, _clt_paths, _mdp_paths, _strong_rate_paths

    return {
        "strong-rate": (_strong_rate_paths, None),
        "clt": (_clt_paths, _clt_limit),
        "mdp-tail": (functools.partial(_mdp_paths, speed=SpeedFunction(0.25), p=2), None),
    }[kind]


def _lanes(kind, eng, u0, inc, eps_list):
    """A block's fresh lanes and limit: a march zeroes dead rows in place."""
    paths, limit = _block_parts(kind)
    lanes = [paths(eng, u0, inc, eps) for eps in eps_list]
    return lanes, None if limit is None else limit(eng, u0, inc)


@pytest.mark.parametrize("kind", ["strong-rate", "clt", "mdp-tail"])
def test_a_march_holds_its_grids_and_three_shared_buffers(kind):
    """The tracemalloc peak of one block's march above its inputs, at the
    default grid and three eps, in (B, n_points) buffers: one grid per state
    slot (the lanes' shared grid, and clt's limit's), one scratch of three
    buffers that every step of the march shares and the shared noise grid,
    plus about one buffer of (B, J) mode arrays: 5.9 for strong-rate and
    mdp-tail, 7.1 for clt.  Steppers that each kept their own scratch took
    clt to 8.9 buffers and mdp-tail to 5.65 at one eps; a grid per eps would
    take strong-rate above 7 and clt above 8."""
    import tracemalloc

    from sgbh.montecarlo import _block_increments, _censor

    B, cfg = 128, SolverConfig(dt=1e-3, t_end=0.05, n_modes=32, n_points=256)
    eng = SolverEngine(DESK, cfg, g=G_AFFINE, noise_spec=NoiseSpec(n_modes=32, eta=0.3))
    u0 = solve_deterministic(default_initial(eng.grid), DESK, cfg).coeffs
    inc = _block_increments(eng, 3, 0, B)
    peaks = []
    for _ in range(2):  # the first march's one-off allocations are not the march's
        lanes, limit = _lanes(kind, eng, u0, inc, (1e-2, 1e-3, 1e-4))
        lanes = [_censor(BlowupGuard(), lane)[0] for lane in lanes]
        states = [x for x, _, _ in lanes] + ([] if limit is None else [limit[0]])
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            march(eng, lanes, u0, inc, limit)
            peaks.append(tracemalloc.get_traced_memory()[1] - held)
        finally:
            tracemalloc.stop()
    assert peaks[1] / (B * cfg.n_points * 8) < len(states) + 3 + 1


@pytest.mark.parametrize("kind", ["strong-rate", "clt", "mdp-tail"])
def test_a_block_builds_what_its_eps_share_once_per_step(kind, monkeypatch):
    """In one block, u0's grid row and the noise grid are synthesised once per
    step whatever the number of eps, clt's limit v takes K steps, not
    K n_eps (each of v's steps reads u0's linearization once), and the
    difference quotients of clt and mdp-tail read u0's remainder drift, built
    once per step (strong-rate's full equation reads none)."""
    import sgbh.montecarlo as mc

    counts = {}

    def count(name, when=lambda args: True):
        fn = getattr(SolverEngine, name)

        def counted(self, *args, **kwargs):
            if when(args):
                counts[name] = counts.get(name, 0) + 1
            return fn(self, *args, **kwargs)

        monkeypatch.setattr(SolverEngine, name, counted)

    count("grid_values", lambda args: np.ndim(args[0]) == 1)  # a row, not a block's grid
    count("colored_increment_grid")
    count("linearization_profiles")
    count("remainder_drift")
    K = 5
    cfg = SolverConfig(dt=0.01, t_end=K * 0.01, n_modes=8, n_points=64)
    eng = SolverEngine(DESK, cfg, g=G_AFFINE, noise_spec=SPEC8)
    u0 = solve_deterministic(default_initial(eng.grid), DESK, cfg).coeffs
    paths, limit = _block_parts(kind)
    for eps_list in ((0.5,), (0.5, 0.25, 0.125)):
        counts.clear()
        spec = EnsembleSpec(n_paths=4, base_seed=5, eps_list=eps_list)
        mc._block_march(paths, eng, spec, u0, 0, 4, limit=limit)
        assert counts.get("grid_values") == K + 1
        assert counts.get("colored_increment_grid") == K
        assert counts.get("linearization_profiles", 0) == (K if kind == "clt" else 0)
        assert counts.get("remainder_drift", 0) == (0 if kind == "strong-rate" else K)


def test_every_forward_loop_is_the_one_march(monkeypatch):
    """Every path advances in time through ``solvers.march``, once per call:
    the single-path solvers, the forward control map, and a strong-rate or
    clt block of three eps, whose lanes and limit share one march."""
    import functools

    import sgbh.deviation as dev
    import sgbh.montecarlo as mc
    import sgbh.solvers as sv

    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return march(*args, **kwargs)

    for module in (sv, dev, mc):
        monkeypatch.setattr(module, "march", counted)

    def marches(run):
        calls[0] = 0
        run()
        return calls[0]

    K = 5
    cfg = SolverConfig(dt=0.01, t_end=K * 0.01, n_modes=8, n_points=64)
    u0 = default_initial(Grid1D(cfg.n_points))
    u0_traj = solve_deterministic(u0, DESK, cfg)
    noise = sample_noise(SPEC8, cfg.dt, K, 5, 0)
    cmap = dev.EndpointControlMap(u0_traj, DESK, G_AFFINE, cfg, noise_spec=SPEC8)
    runs = {
        "solve_deterministic": lambda: solve_deterministic(u0, DESK, cfg),
        "solve_spde": lambda: solve_spde(u0, DESK, G_AFFINE, 0.5, noise, cfg),
        "solve_clt_limit": lambda: solve_clt_limit(u0_traj, DESK, G_AFFINE, noise, cfg),
        "solve_controlled": lambda: solve_controlled(
            u0_traj, DESK, G_AFFINE, 0.5, SpeedFunction(0.25), noise, None, cfg
        ),
        "forward": lambda: cmap.forward(np.ones((SPEC8.n_modes, K))),
    }
    eng = SolverEngine(DESK, cfg, g=G_AFFINE, noise_spec=SPEC8)
    spec = EnsembleSpec(n_paths=4, base_seed=5, eps_list=(0.5, 0.25, 0.125))
    for kind in ("strong-rate", "clt"):
        paths, limit = _block_parts(kind)
        block = functools.partial(mc._block_march, paths, eng, spec, u0_traj.coeffs, limit=limit)
        runs[kind] = functools.partial(block, 0, 4)
    assert {name: marches(run) for name, run in runs.items()} == dict.fromkeys(runs, 1)


# --- censoring: the fast path and the guard certificate ---------------------------------


def _censored_march_masked(eng, guard, u0_coeffs, inc, lanes, limit=None):
    """Reference censoring loop: each eps marched alone, beside its own copy
    of the limit, taking the exact guard norm and running the masked sup
    update and the masked zeroing at every step, whether or not a path has
    died.  Its steps build their own u0 and noise grids (the march gets no
    ``u0`` or ``inc``), and its observe its own u0 row and norms."""
    p = eng.params.p_norm
    out = []
    for x, step, observe in lanes:
        B = x.shape[0]
        alive = np.ones(B, dtype=bool)
        tripped = np.zeros(B, dtype=bool)
        supv = np.zeros(B)
        v = None if limit is None else (limit[0].copy(), limit[1])

        def censor(k, state, grid, work, row):
            nonlocal alive
            u0_grid = eng.grid_values(u0_coeffs[k])
            vg = row.v_grid
            vn = None if vg is None else eng.grid.lp_norm(vg, p)
            shared = Row(u0_grid, eng.grid.lp_norm(u0_grid, p), None, vg, vn)
            stat, _, norm = observe(work, grid, shared)
            ok = alive & ~guard.trips(norm()) & np.isfinite(stat)
            supv[ok] = np.maximum(supv[ok], stat[ok])
            dead = ~ok
            tripped[alive & dead] = True
            alive = ok
            for a in (state, grid):
                a[dead] = 0.0

        march(eng, [(x, step, censor)], limit=v)
        out.append((supv, tripped))
    return out


def _block_march_masked(paths, eng, spec, u0_coeffs, start, stop, limit=None):
    """``_block_march`` on the reference censoring loop."""
    from sgbh.montecarlo import _block_increments

    inc = _block_increments(eng, spec.base_seed, start, stop)
    lanes = [paths(eng, u0_coeffs, inc, eps) for eps in spec.eps_list]
    limit = None if limit is None else limit(eng, u0_coeffs, inc)
    with np.errstate(over="ignore", invalid="ignore"):
        return _censored_march_masked(eng, spec.guard, u0_coeffs, inc, lanes, limit)


def test_censor_takes_its_one_maximum_step_only_while_every_path_lives():
    """Scripted statistics and bounds for two paths: path 1 trips at step 1,
    and at step 2 every bound is certified but path 1's (zeroed) statistic is
    its largest.  Its sup stays that of the steps before its trip."""
    from sgbh.montecarlo import _censor

    script = [([0.1, 0.2], [0.5, 0.5]), ([0.3, 5.0], [0.5, 5.0]), ([0.2, 0.9], [0.5, 0.5])]

    def observe(work, grid, row):
        stat, bound = (np.array(a) for a in script[observe.k])
        return stat, bound, lambda: bound

    state, grid = np.ones((2, 3)), np.ones((2, 4))
    (_, _, censored), (sup, tripped) = _censor(BlowupGuard(1.0), (state, None, observe))
    for observe.k in range(len(script)):
        censored(observe.k, state, grid, None, None)
    assert sup.tolist() == [0.3, 0.2] and tripped.tolist() == [False, True]
    assert not state[1].any() and state[0].all()


def test_censoring_fast_path_is_byte_identical(monkeypatch):
    """At guard 0.22 most eps = 0.1 paths trip, some eps = 0.01 ones, no
    eps = 0.001 one: the report does not depend on skipping the zeroing."""
    import sgbh.montecarlo as mc

    spec = EnsembleSpec(
        n_paths=16,
        base_seed=7,
        eps_list=[0.1, 0.01, 0.001],
        block_size=8,
        guard=BlowupGuard(0.22),
    )
    fast = run_clt(spec, DESK, G_AFFINE, CFG_SMALL, noise_spec=SPEC8)
    rejected = fast["n_rejected"]
    assert 0 < rejected[1] < rejected[0] < 16 and rejected[2] == 0
    monkeypatch.setattr(mc, "_block_march", _block_march_masked)
    masked = run_clt(spec, DESK, G_AFFINE, CFG_SMALL, noise_spec=SPEC8)
    assert json.dumps(masked) == json.dumps(fast)


@pytest.mark.parametrize("kind", ["strong-rate", "clt"])
def test_guard_certificate_gives_the_exact_trips(kind):
    """The certificate decides a trip only where it is exact.  At the
    strong-rate-censored golden config (guard 0.3: every eps = 0.5 path trips),
    and at a guard between one path's largest bound and its largest exact norm
    (the path never trips, but on some step only its exact norm shows it),
    at a guard that some paths cross mid-march, and at one that no path nears,
    each eps's (sup, tripped) equals the reference loop that takes the exact
    norm and the masked updates at every step, and the march takes the exact
    norm on some steps only (on none when no path nears the guard)."""
    from sgbh.cli import RunConfig
    from sgbh.montecarlo import _block_increments, _censor

    from test_golden import CENSORED

    config = RunConfig.parse(CENSORED)
    params, cfg = config.model_params(), config.solver_config()
    eng = SolverEngine(params, cfg, g=config.noise_coefficient(), noise_spec=config.noise_spec())
    spec = config.ensemble_spec()
    u0 = solve_deterministic(config.initial_data(cfg), params, cfg).coeffs
    inc = _block_increments(eng, spec.base_seed, 0, spec.n_paths)

    # each path's largest bound and exact norm over the march, per eps
    highs = []
    lanes, limit = _lanes(kind, eng, u0, inc, spec.eps_list)

    def recorded(observe, high):
        def observe_and_record(work, grid, row):
            stat, bound, norm = observe(work, grid, row)
            exact = norm()
            np.maximum(high, np.stack([bound, exact]), out=high)
            return stat, bound, lambda: exact

        return observe_and_record

    for i, (x, step, observe) in enumerate(lanes):
        highs.append(np.zeros((2, spec.n_paths)))
        lanes[i] = x, step, recorded(observe, highs[-1])
    _censored_march_masked(eng, BlowupGuard(np.inf), u0, inc, lanes, limit)
    gap = [high[0] - high[1] for high in highs]
    e, b = np.unravel_index(np.argmax(gap), (len(gap), spec.n_paths))
    bound, exact = highs[e][:, b]
    assert bound > exact * (1 + 1e-6)
    between = BlowupGuard(float(0.5 * (bound + exact)))

    # at the median of eps e's largest exact norms some of its paths trip and
    # some do not, so none trips at step 0, where every path has u0's norm; no
    # path nears the default guard, so each step is the one-np.maximum fast path
    midway, none = BlowupGuard(float(np.median(highs[e][1]))), BlowupGuard()
    for guard in (spec.guard, between, midway, none):
        lanes, limit = _lanes(kind, eng, u0, inc, spec.eps_list)
        exact_calls = [0]

        def counting(observe):
            def observe_and_count(work, grid, row):
                stat, bound, norm = observe(work, grid, row)

                def counted():
                    exact_calls[0] += 1
                    return norm()

                return stat, bound, counted

            return observe_and_count

        censored = [_censor(guard, (x, step, counting(observe))) for x, step, observe in lanes]
        with np.errstate(over="ignore", invalid="ignore"):
            march(eng, [lane for lane, _ in censored], u0, inc, limit)
        got = [stats for _, stats in censored]
        lanes, limit = _lanes(kind, eng, u0, inc, spec.eps_list)
        want = _censored_march_masked(eng, guard, u0, inc, lanes, limit)
        for (sup, tripped), (sup_ref, tripped_ref) in zip(got, want):
            assert np.array_equal(tripped, tripped_ref)
            assert np.array_equal(sup, sup_ref)
        if guard is none:
            assert exact_calls[0] == 0 and not any(tripped.any() for _, tripped in got)
            continue
        assert 0 < exact_calls[0] < len(spec.eps_list) * (cfg.n_steps + 1)
        if guard is spec.guard:
            assert got[0][1].all()
        elif guard is between:
            assert not got[e][1][b]
        else:
            assert 0 < got[e][1].sum() < spec.n_paths


# --- verdict rates over fixed seeds ----------------------------------------------


@pytest.mark.parametrize(
    "runner, most_fails",
    [(run_strong_rate, 9), (run_clt, 5)],
    ids=["strong-rate", "clt"],
)
def test_verdicts_fail_on_few_of_200_seeds(runner, most_fails):
    """The strong-rate and clt verdicts at the golden size (J = 8, n = 64,
    dt = 0.01, T = 0.2, eps 0.5, 0.25, 0.125, 64 paths) over seeds 1-200.
    The bounds were fixed before this test ran: each is the 99.9% quantile of
    Binomial(200, rate) at the stated false-fail rate, 1.5% for strong-rate
    (9) and 0.5% for clt (5).  Measured when the test was written: strong-rate
    failed on seeds 7, 158 and 188 (each by slope_ok), clt on none."""
    cfg = SolverConfig(dt=0.01, t_end=0.2, n_modes=8, n_points=64)
    u0 = default_initial(Grid1D(cfg.n_points))
    failed = []
    for seed in range(1, 201):
        spec = EnsembleSpec(
            n_paths=64,
            base_seed=seed,
            eps_list=(0.5, 0.25, 0.125),
            block_size=64,
            guard=BlowupGuard(1000.0),
        )
        if not runner(spec, DESK, G_AFFINE, cfg, u0=u0, noise_spec=SPEC8)["passed"]:
            failed.append(seed)
    assert len(failed) <= most_fails, failed
