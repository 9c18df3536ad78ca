"""Ensemble orchestration: coupled-epsilon Monte Carlo experiments, norm
statistics, and convergence-rate fitting.

Reproducibility contract: paths are processed in fixed blocks of
``block_size`` regardless of worker count, each path draws its noise from a
counter-based stream keyed by (base_seed, global path index), and block
results are reduced in block order.  Every array op sees the same shapes and
the same summation order whether the blocks run inline or on a process pool,
so reports are byte-identical for a given (spec, config) on a given machine.

Each runner builds what its blocks read before any block starts and binds it
to its block function with ``functools.partial``; blocks read it inline or on
the pool workers, each of which receives it once.  The three marching
runners (strong rate, CLT, MDP tail) share one path, ``_run_marching``: it
builds the engine and solves the reference path, and each block
(``_block_march``) draws its increments once and advances every eps with
them in one ``march``, the solvers' time loop, returning a sup and a
guard-trip mask per eps (``_censor``).  The runners differ only in their
per-eps lane (the state, step and statistic that the march runs), clt's
limit marched once beside the lanes, and their verdict.  The runner called
is the experiment and names its report.  A block writes its (paths x
n_points) work into a few buffers that its march allocates once.

Each runner returns its report as the JSON document the CLI writes: plain
Python values in the key order of ``report.json``, with a statistic that has
no data as nan (the writer turns every non-finite float into null).

Every ensemble is coupled across epsilon, as the paper's bounds are: each
path index draws one Brownian path and the same increments drive every
epsilon, so u_eps, u_0 and the limit are compared path by path.  This makes
pathwise differences nearly deterministic functions of epsilon and sharpens
slope fits by orders of magnitude.  A single solver config serves all
epsilon values, so they share (dt, n_modes) by construction.  Reports still
write ``"coupled": true`` so their keys stay those of earlier reports.

Censoring: paths whose solution L^p norm crosses ``EnsembleSpec.guard`` are
rejected from the full-horizon statistic and counted; the report also carries
the censored statistic (sup over steps strictly before the crossing, all
paths) as a separate column.  The two are never conflated.
"""

import functools
import os
import sys
from dataclasses import dataclass

import numpy as np

from .deviation import SpeedFunction, wilson_interval
from .model import NoiseCoefficient
from .noise import sample_noise
from .solvers import BlowupGuard, SetupError, SolverEngine, _check_entries, march
from .solvers import solve_deterministic
from .spectral import Field

__all__ = [
    "EnsembleSpec",
    "fit_loglog",
    "run_strong_rate",
    "run_clt",
    "run_heat_oracle",
    "run_mdp_tail",
    "default_initial",
]

Z_WITHIN, FRAC_REQUIRED = 3.0, 0.95  # heat oracle: |z| <= 3 in 95% of the modes


@dataclass(frozen=True)
class EnsembleSpec:
    """Size, seeding, epsilon schedule and blow-up guard of one ensemble experiment."""

    n_paths: int
    base_seed: int
    eps_list: tuple
    block_size: int = 128
    guard: BlowupGuard = BlowupGuard()

    def __post_init__(self):
        object.__setattr__(self, "eps_list", tuple(float(e) for e in self.eps_list))
        if self.n_paths < 1:
            raise ValueError(f"n_paths must be >= 1, got {self.n_paths}")
        if self.block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {self.block_size}")
        if len(self.eps_list) == 0:
            raise ValueError("eps_list must be nonempty")
        if any(not 0 < e <= 1 for e in self.eps_list):
            raise ValueError(f"eps values must lie in (0, 1], got {self.eps_list}")
        if any(b >= a for a, b in zip(self.eps_list, self.eps_list[1:])):
            raise ValueError(f"eps_list must be strictly decreasing, got {self.eps_list}")


def fit_loglog(points):
    """Least-squares power-law fit of log(stat) against log(eps), as the dict
    ``{"slope": ..., "intercept": ..., "r_squared": ...}``."""
    pts = [(float(e), float(s)) for e, s in points]
    if len(pts) < 3:
        raise ValueError(f"need >= 3 points for a slope fit, got {len(pts)}")
    if any(e <= 0 or s <= 0 for e, s in pts):
        raise ValueError("fit_loglog needs positive eps and statistics")
    x = np.log([e for e, _ in pts])
    y = np.log([s for _, s in pts])
    # centred normal equations: a line needs no LAPACK least-squares solve
    dx = x - x.mean()
    sxx = float(dx @ dx)
    if sxx == 0:
        raise ValueError("fit_loglog needs at least two distinct eps")
    slope = float(dx @ (y - y.mean())) / sxx
    intercept = y.mean() - slope * x.mean()
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return {"slope": float(slope), "intercept": float(intercept), "r_squared": r2}


def default_initial(grid):
    """Parabolic bump x(1-x), the desk-scale default initial condition."""
    x = grid.nodes
    return Field(x * (1 - x))


# block engine ----------------------------------------------------------------


def _heat_weights(eng):
    """The pure heat endpoint's response to a unit increment at each step, read
    off the stepper as a (J, K) array w, so a path's endpoint at eps = 1 is
    sum_k w[:, k] dB_k.

    With alpha = beta = 0 and constant g a step is a -> E (a + kappa0 q dB_k):
    one kick at step K - 1 gives w[:, K - 1] = E kappa0 q, and each free step
    backward multiplies by E, so w[:, k] = E^(K - k) kappa0 q.
    """
    K, J, jn = eng.cfg.n_steps, eng.cfg.n_modes, eng.noise_spec.n_modes
    kick = eng.deviation_step(noise_inc=np.broadcast_to(np.ones(jn), (K, jn)))
    free = eng.deviation_step()
    bufs = eng.scratch()
    w = np.empty((J, K))
    w[:, K - 1] = kick(K - 1, np.zeros(J), None, bufs)
    for k in range(K - 2, -1, -1):
        w[:, k] = free(k, w[:, k + 1], None, bufs)
    w.flags.writeable = False
    return w


def _block_spans(n_paths, block_size):
    return [(a, min(a + block_size, n_paths)) for a in range(0, n_paths, block_size)]


def _blas_oversubscription(workers):
    """The stderr line for a pool whose workers each run more than one BLAS
    thread, a count only the user sets (``sgbh`` sets one otherwise), or None."""
    # OpenBLAS reads the first of these that is set
    var = next((v for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if v in os.environ), None)
    try:
        threads = int(os.environ[var]) if var else 1
    except ValueError:
        return None
    if threads <= 1:
        return None
    return (
        f"sgbh: {var}={threads} BLAS threads x {workers} workers = "
        f"{threads * workers} threads on {_available_cpus()} CPUs"
    )


def _available_cpus():
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_worker_block = None  # a pool worker's block function, set by its initializer


def _install_block(block):
    global _worker_block
    _worker_block = block


def _run_worker_block(start, stop):
    return _worker_block(start, stop)


def _run_blocks(block, spec, workers):
    """Run ``block(start, stop)`` over the blocks in order, inline or on a pool
    of min(workers, blocks, available CPUs) processes (the pool starts every
    worker at its first submit).  A runner binds what its block reads with
    ``functools.partial`` over a module-level function; the pool's initializer
    hands it to each worker once, so a block's task carries only its span."""
    spans = _block_spans(spec.n_paths, spec.block_size)
    workers = min(workers, len(spans), _available_cpus())
    if workers <= 1:
        return [block(a, b) for a, b in spans]
    from concurrent.futures import ProcessPoolExecutor  # only a pool run pays this import

    if (line := _blas_oversubscription(workers)) is not None:
        print(line, file=sys.stderr)
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_install_block, initargs=(block,)
    ) as pool:
        futures = [pool.submit(_run_worker_block, a, b) for a, b in spans]
        return [fut.result() for fut in futures]


def _block_increments(eng, seed, start, stop):
    """The block's per-path increments step-major, (K, B, J), so step k reads a
    contiguous inc[k]; every eps of the block reuses them."""
    cfg = eng.cfg
    inc = np.empty((cfg.n_steps, stop - start, eng.noise_spec.n_modes))
    for b, i in enumerate(range(start, stop)):
        inc[:, b, :] = sample_noise(eng.noise_spec, cfg.dt, cfg.n_steps, seed, i).increments.T
    return inc


def _censor(guard, lane):
    """``lane`` = (state, step, observe) with an observe that censors its (B,)
    paths, and the (B,) sup and trip mask it fills.  ``observe(work, grid,
    row)`` returns the statistic, a bound on the guard's norm and a function
    giving that norm exactly, called only when a live path's bound is not below
    (1 - 1e-9) times the threshold, so trips are exact.  A path dies at its
    first trip or non-finite statistic: its rows are zeroed from then on and its
    sup covers the steps strictly before.  While every path lives and every
    bound is below, which a non-finite statistic's bound never is, a step is one
    ``np.maximum``."""
    x, step, observe = lane
    certified = guard.threshold * (1 - 1e-9)
    alive = np.ones(len(x), dtype=bool)
    sup, tripped = np.zeros(len(x)), np.zeros(len(x), dtype=bool)

    def censored(k, state, grid, work, row):
        nonlocal alive
        stat, bound, exact = observe(work, grid, row)
        if bound.max() < certified and alive.all():
            np.maximum(sup, stat, out=sup)
            return
        ok = alive & np.isfinite(stat)
        if np.any(ok & ~(bound < certified)):
            ok &= ~guard.trips(exact())
        np.maximum(sup, stat, out=sup, where=ok)
        if not ok.all():  # zero the dead paths' rows
            dead = ~ok
            tripped[alive & dead] = True
            alive = ok
            state[dead] = 0.0
            grid[dead] = 0.0

    return (x, step, censored), (sup, tripped)


@np.errstate(over="ignore", invalid="ignore")  # a non-finite value is a trip or a censored path
def _block_march(paths, eng, spec, u0_coeffs, start, stop, limit=None):
    """A block of a marching ensemble: (sup, tripped) of (B,) arrays per eps.
    The block's increments are drawn once and drive every eps, so each path is
    coupled across eps.  One ``march`` runs each eps's lane, ``paths(eng,
    u0_coeffs, inc, eps)`` censored, and ``limit(eng, u0_coeffs, inc)``, never
    censored (clt's v: a path dead at one eps lives at another)."""
    inc = _block_increments(eng, spec.base_seed, start, stop)
    censored = [_censor(spec.guard, paths(eng, u0_coeffs, inc, eps)) for eps in spec.eps_list]
    limit = None if limit is None else limit(eng, u0_coeffs, inc)
    march(eng, [lane for lane, _ in censored], u0_coeffs, inc, limit)
    return [stats for _, stats in censored]


def _strong_rate_paths(eng, u0_coeffs, inc, eps):
    p = eng.params.p_norm

    def observe(work, u_grid, row):
        stat = eng.grid.even_lp_integral(np.subtract(u_grid, row.u0_grid, out=work), p, work)
        # Minkowski: ||u||_p <= ||u - u0||_p + ||u0||_p
        return stat, stat ** (1.0 / p) + row.u0_norm, lambda: eng.grid.lp_norm(u_grid, p, work)

    step = eng.deviation_step(noise_inc=inc, noise_scale=np.sqrt(eps))
    return np.tile(u0_coeffs[0], (inc.shape[1], 1)), step, observe


def _clt_paths(eng, u0_coeffs, inc, eps):
    p = eng.params.p_norm
    s = np.sqrt(eps)

    def observe(work, zg, row):
        stat = eng.grid.lp_norm(np.subtract(zg, row.v_grid, out=work), p, work)

        def norm():
            u = np.add(row.u0_grid, np.multiply(zg, s, out=work), out=work)  # u_eps = u0 + s z
            return eng.grid.lp_norm(u, p, work)

        # Minkowski: ||u0 + s z||_p <= ||u0||_p + s (||z - v||_p + ||v||_p)
        return stat, row.u0_norm + s * (stat + row.v_norm), norm

    step = eng.deviation_step(u0_coeffs, s, noise_inc=inc)
    return np.zeros((inc.shape[1], eng.cfg.n_modes)), step, observe


def _clt_limit(eng, u0_coeffs, inc):
    """The CLT limit v (s = 0) on the block's increments, which every eps's z reads."""
    step = eng.deviation_step(u0_coeffs, 0.0, noise_inc=inc)
    return np.zeros((inc.shape[1], eng.cfg.n_modes)), step


def _mdp_paths(eng, u0_coeffs, inc, eps, speed, p):
    s, noise_scale = speed.scales(eps)

    def observe(work, zg, row):
        stat = eng.grid.lp_norm(zg, p, work)
        return stat, stat, lambda: stat

    step = eng.deviation_step(u0_coeffs, s, inc, noise_scale)
    return np.zeros((inc.shape[1], eng.cfg.n_modes)), step, observe


def _block_heat(eng, weights, seed, start, stop):
    """The block's (B, J) endpoints at eps = 1: each path's (J, K) draw dotted
    with the heat weights (``_heat_weights``), one path's draw held at a time.
    Every eps scales them by sqrt(eps)."""
    cfg = eng.cfg
    out = np.empty((stop - start, cfg.n_modes))
    for b, i in enumerate(range(start, stop)):
        # no name holds the draw, so the previous path's is freed before the next is drawn
        out[b] = np.vecdot(
            weights, sample_noise(eng.noise_spec, cfg.dt, cfg.n_steps, seed, i).increments
        )
    return out


# runners ---------------------------------------------------------------------


def _run_marching(paths, spec, params, g, cfg, noise_spec, u0, workers, limit=None):
    """Run a marching ensemble and return (sups, trips), each (n_eps, n_paths)
    in path order; ``paths`` and ``limit`` are the lanes and limit that
    ``_block_march`` marches.
    The engine, the bound checks and the reference solve (from ``u0``, the
    parabolic bump when None) come before any worker starts, so setup errors
    surface first.  Blocks read the reference path in coefficients and
    synthesise its grid one step at a time."""
    eng = SolverEngine(params, cfg, g=g, noise_spec=noise_spec)
    # what a block allocates, its (K, B, J_noise) increments, and what the
    # reduction holds, a sup per path and eps
    draw = min(spec.block_size, spec.n_paths) * cfg.n_steps * eng.noise_spec.n_modes
    _check_entries("block_size*n_steps*noise n_modes", draw)
    _check_entries("n_paths*n_eps", spec.n_paths * len(spec.eps_list))
    u0 = default_initial(eng.grid) if u0 is None else u0
    u0_coeffs = solve_deterministic(u0, params, cfg).coeffs
    block = functools.partial(_block_march, paths, eng, spec, u0_coeffs, limit=limit)
    blocks = _run_blocks(block, spec, workers)
    sups = np.concatenate([[sup for sup, _ in b] for b in blocks], axis=1)
    trips = np.concatenate([[trip for _, trip in b] for b in blocks], axis=1)
    return sups, trips


@np.errstate(over="ignore", invalid="ignore")  # an overflowed statistic is written as null
def _mean_stderr(x):
    if x.size == 0:
        return float("nan"), float("nan")
    m = float(np.mean(x))
    s = float(np.std(x, ddof=1) / np.sqrt(x.size)) if x.size > 1 else float("nan")
    return m, s


def _convergence_report(experiment, spec, p, statistic, sups, trips, slope_target, checks):
    """The report of a marching run.  ``checks(fit, mean)`` returns the named
    verdicts of a sized run (fit is ``fit_loglog``'s dict, None when the means
    cannot be fitted), which join ``pass_details``; such a run passes when it
    was fitted, rejected at most 5% of its paths at every eps and every verdict
    holds.  ``mean`` and ``stderr`` are the full-horizon statistic over accepted
    paths; ``censored_mean`` and ``censored_stderr`` include rejected paths up
    to their guard crossing.  ``passed`` is None when the run is too small to judge."""
    eps = list(spec.eps_list)
    mean, stderr, nrej, cmean, cstderr = [], [], [], [], []
    for sup, trip in zip(sups, trips):
        m, s = _mean_stderr(sup[~trip])
        mean.append(m)
        stderr.append(s)
        nrej.append(int(trip.sum()))
        m, s = _mean_stderr(sup)
        cmean.append(m)
        cstderr.append(s)

    rejection_ok = all(r <= 0.05 * spec.n_paths for r in nrej)
    fit = None
    if len(eps) >= 3 and all(np.isfinite(m) and m > 0 for m in mean):
        fit = fit_loglog(list(zip(eps, mean)))

    degenerate = len(eps) < 3 or spec.n_paths < 2
    details = {"rejection_ok": rejection_ok, "degenerate": degenerate}
    passed = None  # too small to judge
    if not degenerate:
        verdicts = checks(fit, mean)
        details.update(verdicts)
        passed = fit is not None and rejection_ok and all(verdicts.values())

    return {
        "experiment": experiment,
        "statistic": statistic,
        "p_norm": p,
        "n_paths": spec.n_paths,
        "coupled": True,  # every eps shares each path's draw
        "eps": eps,
        "mean": mean,
        "stderr": stderr,
        "n_rejected": nrej,
        "censored_mean": cmean,
        "censored_stderr": cstderr,
        **(fit or dict.fromkeys(("slope", "intercept", "r_squared"))),
        "slope_target": slope_target,
        "passed": passed,
        "pass_details": details,
    }


def run_strong_rate(spec, params, g, cfg, u0=None, noise_spec=None, workers=1):
    """Estimate E[sup_t ||u_eps - u0||_p^p] per eps and fit the decay slope.

    The target slope is p/2.  Pass requires the fitted slope >= p/2 - 0.3
    with r^2 >= 0.99 (the theory guarantees only an upper bound of order
    eps^(p/2), so the gate is one-sided) and a rejection rate <= 5% per eps.
    """
    sups, trips = _run_marching(_strong_rate_paths, spec, params, g, cfg, noise_spec, u0, workers)
    target = params.p_norm / 2

    def checks(fit, mean):
        if fit is None:
            return {}
        return {"slope_ok": fit["slope"] >= target - 0.3, "r2_ok": fit["r_squared"] >= 0.99}

    return _convergence_report(
        "strong_rate",
        spec,
        params.p_norm,
        "sup_t lp_norm(u_eps - u0, p)^p",
        sups,
        trips,
        target,
        checks,
    )


def run_clt(spec, params, g, cfg, u0=None, noise_spec=None, workers=1):
    """Estimate E[sup_t ||v_eps - v||_p] per eps, v_eps = (u_eps - u0)/sqrt(eps).

    v_eps is integrated as the difference-quotient rescaled process coupled to
    the same increments that drive the limit field v, so the statistic decays
    like the leading sqrt(eps) remainder.  Pass requires strictly decreasing
    means and fitted order >= 0.4.
    """
    try:
        params.validate_for_clt()
    except ValueError as exc:
        raise SetupError(str(exc)) from None
    sups, trips = _run_marching(
        _clt_paths, spec, params, g, cfg, noise_spec, u0, workers, limit=_clt_limit
    )

    def checks(fit, mean):
        return {
            "strictly_decreasing": all(b < a for a, b in zip(mean, mean[1:])),
            "slope_ok": fit is not None and fit["slope"] >= 0.4,
        }

    return _convergence_report(
        "clt",
        spec,
        params.p_norm,
        "sup_t lp_norm(v_eps - v, p)",
        sups,
        trips,
        0.5,
        checks,
    )


def run_heat_oracle(spec, params, cfg, noise_spec=None, workers=1, g_constant=1.0):
    """Closed-form validation of the stochastic pipeline on the pure heat case.

    Requires alpha = beta = 0 and uses constant g and zero initial data, so
    every mode is an exact Ornstein-Uhlenbeck process with endpoint variance
    eps q_j^2 (1 - exp(-2 nu lambda_j T)) / (2 nu lambda_j).  Empirical
    endpoint variances are compared per mode via chi-square z-scores; pass
    requires |z| <= 3 for >= 95% of modes and |mean| <= 3 stderr everywhere.
    It needs n_paths >= 2 and a ``g_constant`` whose theoretical variance is
    finite and > 0 in every mode and for every eps.
    """
    if params.alpha != 0 or params.beta != 0:
        raise SetupError("heat oracle requires alpha = beta = 0")
    if spec.n_paths < 2:
        raise SetupError(f"heat oracle needs n_paths >= 2 (a sample variance), got {spec.n_paths}")
    if noise_spec is not None and noise_spec.n_modes != cfg.n_modes:
        # an unforced mode has zero theoretical variance: no z-score to take
        raise SetupError(
            f"heat oracle needs noise n_modes = solver n_modes {cfg.n_modes}, "
            f"got {noise_spec.n_modes}"
        )
    g = NoiseCoefficient("constant", kappa0=float(g_constant))
    eng = SolverEngine(params, cfg, g=g, noise_spec=noise_spec)
    # a block holds one path's draw and the (J, K) weights, which SolverConfig
    # already bounds; the reduction keeps every path's endpoints
    _check_entries(
        "n_paths*n_eps*noise n_modes", spec.n_paths * len(spec.eps_list) * eng.noise_spec.n_modes
    )
    lam = eng.basis.eigenvalues
    q = eng.noise_spec.q
    T = cfg.t_end
    eps_col = np.array(spec.eps_list)[:, None]
    with np.errstate(over="ignore"):
        var_th = eps_col * np.float64(g_constant) ** 2 * q**2 * (
            1 - np.exp(-2 * params.nu * lam * T)
        ) / (2 * params.nu * lam)
    if not np.all(np.isfinite(var_th) & (var_th > 0)):
        # zero, overflowed or underflowed noise has no z-score to take
        raise SetupError(
            f"heat oracle needs a nonzero oracle_g whose theoretical variance is finite "
            f"and > 0 in every mode, got oracle_g = {g_constant!r}"
        )
    block = functools.partial(_block_heat, eng, _heat_weights(eng), spec.base_seed)
    unit = np.concatenate(_run_blocks(block, spec, workers), axis=0)

    M = spec.n_paths
    per_eps = []
    for eps, vt in zip(spec.eps_list, var_th):
        endpoints = np.sqrt(eps) * unit
        var = np.var(endpoints, axis=0, ddof=1)
        z = (var - vt) / (vt * np.sqrt(2.0 / (M - 1)))
        mean = endpoints.mean(axis=0)
        stderr = np.std(endpoints, axis=0, ddof=1) / np.sqrt(M)
        per_eps.append(
            {
                "eps": eps,
                "frac_z_within": float(np.mean(np.abs(z) <= Z_WITHIN)),
                "means_ok": bool(np.all(np.abs(mean) <= Z_WITHIN * stderr)),
                "var_empirical": var.tolist(),
                "var_theory": vt.tolist(),
                "z_scores": z.tolist(),
                "mode_means": mean.tolist(),
                "mean_stderr": stderr.tolist(),
            }
        )
    return {
        "experiment": "heat_oracle",
        "n_paths": M,
        "z_threshold": Z_WITHIN,
        "frac_required": FRAC_REQUIRED,
        "per_eps": per_eps,
        "passed": all(e["frac_z_within"] >= FRAC_REQUIRED and e["means_ok"] for e in per_eps),
    }


def run_mdp_tail(spec, params, g, cfg, speed, rho_list, u0=None, noise_spec=None, tail_p=2, workers=1):
    """Empirical tail probabilities P(sup_t ||Z_eps||_p > rho) per (eps, rho).

    Z_eps is the rescaled deviation process at the given moderate-deviation
    speed.  Tightness of the family shows up as tails that are non-increasing
    in rho and bounded in eps.  ``rho_list`` must be nonempty, positive and
    strictly increasing, and at most the guard threshold; ``tail_p``, the norm's
    p, an integer >= 1.
    """
    if not isinstance(speed, SpeedFunction):
        raise SetupError("speed must be a SpeedFunction with a theta attribute")
    rho = np.asarray(rho_list, dtype=float)
    if rho.ndim != 1 or rho.size == 0 or not np.all(rho > 0) or np.any(np.diff(rho) <= 0):
        raise SetupError(f"rho_list must be nonempty, positive, strictly increasing: {rho_list}")
    if np.any(rho > spec.guard.threshold):
        raise SetupError("rho thresholds above the guard threshold cannot be counted")
    if isinstance(tail_p, bool) or not isinstance(tail_p, (int, np.integer)) or tail_p < 1:
        raise SetupError(f"tail_p must be an integer >= 1, got {tail_p!r}")
    paths = functools.partial(_mdp_paths, speed=speed, p=tail_p)
    sups, trips = _run_marching(paths, spec, params, g, cfg, noise_spec, u0, workers)
    # a tripped path exceeded the guard, hence every admissible rho
    sups = np.where(trips, np.inf, sups)
    counts = np.stack([np.sum(sups > r, axis=1) for r in rho], axis=1)  # (n_eps, n_rho)
    p_hat = counts / spec.n_paths
    lo, hi = wilson_interval(counts, spec.n_paths)
    # each eps's estimates are non-increasing in rho (nested events)
    monotone = bool(np.all(np.diff(p_hat, axis=1) <= 0))
    return {
        "experiment": "mdp_tail",
        "p_norm": tail_p,
        "rho": rho.tolist(),
        "per_eps": [
            {
                "eps": eps,
                "n_paths": spec.n_paths,
                "exceed_counts": c.tolist(),
                "p_hat": ph.tolist(),
                "wilson_lo": lw.tolist(),
                "wilson_hi": hw.tolist(),
            }
            for eps, c, ph, lw, hw in zip(spec.eps_list, counts, p_hat, lo, hi)
        ],
        "passed": monotone,
        "pass_details": {"monotone_in_rho": monotone},
    }
