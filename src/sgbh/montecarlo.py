"""Ensemble orchestration: coupled-epsilon Monte Carlo experiments, norm
statistics, and convergence-rate fitting.

Reproducibility contract: paths are processed in fixed blocks of
``block_size`` regardless of worker count, each path draws its noise from a
counter-based stream keyed by (base_seed, global path index), and block
results are reduced in block order.  Every array op sees the same shapes and
the same summation order whether the blocks run inline or on a process pool,
so reports are byte-identical for a given (spec, config) on a given machine.

Coupling across epsilon reuses one Brownian path per path index (the same
increments drive every epsilon), which makes pathwise differences nearly
deterministic functions of epsilon and sharpens slope fits by orders of
magnitude.  Since a single solver config serves all epsilon values, the
coupled runs share (dt, n_modes) by construction.

Censoring: paths whose solution L^p norm crosses the guard threshold are
rejected from the full-horizon statistic and counted; the report also carries
the censored statistic (sup over steps strictly before the crossing, all
paths) as a separate column.  The two are never conflated.
"""

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .deviation import tail_report
from .model import NoiseCoefficient, noise_coefficient_eval
from .noise import NoiseSpec, sample_noise
from .solvers import SolverEngine, solve_deterministic
from .spectral import Field

__all__ = [
    "EnsembleSpec",
    "ConvergenceReport",
    "OracleReport",
    "FitResult",
    "fit_loglog",
    "run_strong_rate",
    "run_clt",
    "run_heat_oracle",
    "run_mdp_tail",
    "default_initial",
]

_EXPERIMENTS = ("strong_rate", "clt", "mdp_tail", "heat_oracle")


@dataclass(frozen=True)
class EnsembleSpec:
    """Size, seeding, epsilon schedule, and kind of one ensemble experiment."""

    n_paths: int
    base_seed: int
    eps_list: tuple
    coupled: bool = True
    experiment: str = "strong_rate"
    block_size: int = 128
    guard_threshold: float = 1e3

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
        if self.experiment not in _EXPERIMENTS:
            raise ValueError(f"experiment must be one of {_EXPERIMENTS}, got {self.experiment!r}")
        if self.guard_threshold <= 0:
            raise ValueError("guard_threshold must be positive")


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    r_squared: float


def fit_loglog(points):
    """Least-squares power-law fit: slope/intercept/r^2 of log(stat) vs log(eps)."""
    pts = [(float(e), float(s)) for e, s in points]
    if len(pts) < 3:
        raise ValueError(f"need >= 3 points for a slope fit, got {len(pts)}")
    if any(e <= 0 or s <= 0 for e, s in pts):
        raise ValueError("fit_loglog needs positive eps and statistics")
    x = np.log([e for e, _ in pts])
    y = np.log([s for _, s in pts])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return FitResult(float(slope), float(intercept), r2)


def default_initial(grid):
    """Parabolic bump x(1-x), the desk-scale default initial condition."""
    x = grid.nodes
    return Field.from_grid(x * (1 - x))


@dataclass
class ConvergenceReport:
    """Per-epsilon ensemble statistics plus a log-log slope fit.

    ``mean``/``stderr`` are the full-horizon statistic over accepted paths;
    ``censored_mean``/``censored_stderr`` include rejected paths up to their
    guard crossing.  ``passed`` is None when the run is too small to judge.
    """

    experiment: str
    statistic: str
    p_norm: int
    n_paths: int
    coupled: bool
    eps: list
    mean: list
    stderr: list
    n_rejected: list
    censored_mean: list
    censored_stderr: list
    slope: float | None
    intercept: float | None
    r_squared: float | None
    slope_target: float
    passed: bool | None
    pass_details: dict

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("eps,mean,stderr,n_rejected\n")
            for e, m, s, r in zip(self.eps, self.mean, self.stderr, self.n_rejected):
                fh.write(f"{float(e)!r},{float(m)!r},{float(s)!r},{int(r)}\n")

    def to_dict(self):
        def clean(v):
            if v is None or isinstance(v, (bool, int, str, dict)):
                return v
            v = float(v)
            return None if np.isnan(v) else v

        return {
            "experiment": self.experiment,
            "statistic": self.statistic,
            "p_norm": self.p_norm,
            "n_paths": self.n_paths,
            "coupled": self.coupled,
            "eps": [float(e) for e in self.eps],
            "mean": [clean(m) for m in self.mean],
            "stderr": [clean(s) for s in self.stderr],
            "n_rejected": [int(r) for r in self.n_rejected],
            "censored_mean": [clean(m) for m in self.censored_mean],
            "censored_stderr": [clean(s) for s in self.censored_stderr],
            "slope": clean(self.slope),
            "intercept": clean(self.intercept),
            "r_squared": clean(self.r_squared),
            "slope_target": float(self.slope_target),
            "passed": self.passed,
            "pass_details": self.pass_details,
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2)


@dataclass
class OracleReport:
    """Per-mode endpoint moments of the pure stochastic heat run vs the
    closed-form Ornstein-Uhlenbeck values."""

    eps_list: list
    n_paths: int
    var_empirical: np.ndarray  # (n_eps, J)
    var_theory: np.ndarray
    z_scores: np.ndarray
    mode_means: np.ndarray
    mean_stderr: np.ndarray
    frac_within: list
    means_ok: list
    passed: bool
    z_threshold: float = 3.0
    frac_required: float = 0.95

    def to_dict(self):
        return {
            "experiment": "heat_oracle",
            "n_paths": self.n_paths,
            "z_threshold": self.z_threshold,
            "frac_required": self.frac_required,
            "per_eps": [
                {
                    "eps": float(e),
                    "frac_z_within": float(self.frac_within[i]),
                    "means_ok": bool(self.means_ok[i]),
                    "var_empirical": [float(v) for v in self.var_empirical[i]],
                    "var_theory": [float(v) for v in self.var_theory[i]],
                    "z_scores": [float(v) for v in self.z_scores[i]],
                    "mode_means": [float(v) for v in self.mode_means[i]],
                    "mean_stderr": [float(v) for v in self.mean_stderr[i]],
                }
                for i, e in enumerate(self.eps_list)
            ],
            "passed": bool(self.passed),
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2)

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("eps,mode,var_empirical,var_theory,z,mean,mean_stderr\n")
            for i, e in enumerate(self.eps_list):
                for j in range(self.var_empirical.shape[1]):
                    fh.write(
                        f"{float(e)!r},{j + 1},{float(self.var_empirical[i, j])!r},"
                        f"{float(self.var_theory[i, j])!r},{float(self.z_scores[i, j])!r},"
                        f"{float(self.mode_means[i, j])!r},{float(self.mean_stderr[i, j])!r}\n"
                    )


# block engine ----------------------------------------------------------------


def _block_spans(n_paths, block_size):
    return [(a, min(a + block_size, n_paths)) for a in range(0, n_paths, block_size)]


def _run_blocks(fn, payload, spec, workers):
    spans = _block_spans(spec.n_paths, spec.block_size)
    if workers <= 1 or len(spans) == 1:
        return [fn(payload, a, b) for a, b in spans]
    results = [None] * len(spans)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fn, payload, a, b) for a, b in spans]
        for i, fut in enumerate(futures):
            results[i] = fut.result()
    return results


def _worker_engine(payload):
    eng = SolverEngine(
        payload["params"],
        payload["cfg"],
        g=payload["g"],
        noise_spec=payload["noise_spec"],
    )
    u0_grid = None
    if payload.get("u0_coeffs") is not None:
        u0_grid = payload["u0_coeffs"] @ eng.phi
    return eng, u0_grid


def _block_increments(payload, start, stop, eps_index):
    """Per-path increments step-major, (K, B, J), so step k reads a contiguous
    inc[k]; the path index shifts per eps when uncoupled."""
    spec = payload["noise_spec"]
    cfg = payload["cfg"]
    offset = 0 if payload["coupled"] else eps_index * payload["n_paths"]
    inc = np.empty((cfg.n_steps, stop - start, spec.n_modes))
    for b, i in enumerate(range(start, stop)):
        r = sample_noise(spec, cfg.dt, cfg.n_steps, payload["base_seed"], offset + i)
        inc[:, b, :] = r.increments.T
    return inc


def _mask_update(alive, supv, stat, bad):
    """Fold stat into running sups for alive rows; newly bad rows keep the
    pre-crossing sup (censoring excludes the crossing step)."""
    newly_dead = alive & bad
    ok = alive & ~bad
    supv[ok] = np.maximum(supv[ok], stat[ok])
    return newly_dead, ok


def _block_strong_rate(payload, start, stop):
    eng, u0_grid = _worker_engine(payload)
    cfg, params = payload["cfg"], payload["params"]
    p = params.p_norm
    thr = payload["guard_threshold"]
    dt, k_steps = cfg.dt, cfg.n_steps
    B = stop - start
    out = []
    base_inc = _block_increments(payload, start, stop, 0) if payload["coupled"] else None
    for ei, eps in enumerate(payload["eps_list"]):
        inc = base_inc if base_inc is not None else _block_increments(payload, start, stop, ei)
        root_eps = np.sqrt(eps)
        a = np.tile(payload["u0_coeffs"][0], (B, 1))
        alive = np.ones(B, dtype=bool)
        tripped = np.zeros(B, dtype=bool)
        supv = np.zeros(B)
        for k in range(k_steps + 1):
            u_grid = a @ eng.phi
            diff = u_grid - u0_grid[k]
            stat = eng.grid.lp_norm(diff, p) ** p
            unorm = eng.grid.lp_norm(u_grid, p)
            bad = ~(
                np.isfinite(u_grid).all(axis=1) & np.isfinite(stat) & (unorm <= thr)
            )
            newly_dead, _ = _mask_update(alive, supv, stat, bad)
            tripped |= newly_dead
            alive &= ~newly_dead
            a[~alive] = 0.0
            if k < k_steps:
                drift = eng.nonlinear_drift(u_grid)
                forc = eng.forcing_term(k * dt, u_grid, inc[k])
                a = eng.semigroup * (a + dt * drift + root_eps * forc)
                a[~alive] = 0.0
        out.append({"sup": supv, "tripped": tripped})
    return out


def _block_clt(payload, start, stop):
    eng, u0_grid = _worker_engine(payload)
    cfg, params = payload["cfg"], payload["params"]
    p = params.p_norm
    thr = payload["guard_threshold"]
    dt, k_steps = cfg.dt, cfg.n_steps
    B = stop - start
    p1, c1 = eng.linearization_profiles(u0_grid)
    base_drift = eng.nonlinear_drift(u0_grid)
    out = []
    base_inc = _block_increments(payload, start, stop, 0) if payload["coupled"] else None
    for ei, eps in enumerate(payload["eps_list"]):
        inc = base_inc if base_inc is not None else _block_increments(payload, start, stop, ei)
        s = np.sqrt(eps)
        z = np.zeros((B, cfg.n_modes))
        v = np.zeros((B, cfg.n_modes))
        alive = np.ones(B, dtype=bool)
        tripped = np.zeros(B, dtype=bool)
        supv = np.zeros(B)
        for k in range(k_steps + 1):
            zg = z @ eng.phi
            vg = v @ eng.phi
            ue_grid = u0_grid[k] + s * zg
            stat = eng.grid.lp_norm(zg - vg, p)
            unorm = eng.grid.lp_norm(ue_grid, p)
            bad = ~(
                np.isfinite(zg).all(axis=1)
                & np.isfinite(vg).all(axis=1)
                & np.isfinite(stat)
                & (unorm <= thr)
            )
            newly_dead, _ = _mask_update(alive, supv, stat, bad)
            tripped |= newly_dead
            alive &= ~newly_dead
            z[~alive] = 0.0
            v[~alive] = 0.0
            if k < k_steps:
                drift_z = (eng.nonlinear_drift(ue_grid) - base_drift[k]) / s
                forc_z = eng.forcing_term(k * dt, ue_grid, inc[k])
                z = eng.semigroup * (z + dt * drift_z + forc_z)
                lin = eng.linearized_drift(
                    vg, None if p1 is None else p1[k], None if c1 is None else c1[k]
                )
                forc_v = eng.forcing_term(k * dt, u0_grid[k], inc[k])
                v = eng.semigroup * (v + dt * lin + forc_v)
                z[~alive] = 0.0
                v[~alive] = 0.0
        out.append({"sup": supv, "tripped": tripped})
    return out


def _block_heat(payload, start, stop):
    eng, _ = _worker_engine(payload)
    cfg = payload["cfg"]
    dt, k_steps = cfg.dt, cfg.n_steps
    B = stop - start
    out = []
    base_inc = _block_increments(payload, start, stop, 0) if payload["coupled"] else None
    for ei, eps in enumerate(payload["eps_list"]):
        inc = base_inc if base_inc is not None else _block_increments(payload, start, stop, ei)
        root_eps = np.sqrt(eps)
        a = np.zeros((B, cfg.n_modes))
        for k in range(k_steps):
            # g is constant here, so the forcing never reads the state
            forc = eng.forcing_term(k * dt, None, inc[k])
            a = eng.semigroup * (a + root_eps * forc)
        out.append({"endpoint": a})
    return out


def _block_mdp(payload, start, stop):
    eng, u0_grid = _worker_engine(payload)
    cfg, params = payload["cfg"], payload["params"]
    p = payload["tail_p"]
    thr = payload["guard_threshold"]
    dt, k_steps = cfg.dt, cfg.n_steps
    theta = payload["theta"]
    B = stop - start
    base_drift = eng.nonlinear_drift(u0_grid)
    out = []
    base_inc = _block_increments(payload, start, stop, 0) if payload["coupled"] else None
    for ei, eps in enumerate(payload["eps_list"]):
        inc = base_inc if base_inc is not None else _block_increments(payload, start, stop, ei)
        lam = eps ** (-theta)
        s = np.sqrt(eps) * lam
        noise_scale = 1.0 / lam
        z = np.zeros((B, cfg.n_modes))
        alive = np.ones(B, dtype=bool)
        tripped = np.zeros(B, dtype=bool)
        supv = np.zeros(B)
        for k in range(k_steps + 1):
            zg = z @ eng.phi
            stat = eng.grid.lp_norm(zg, p)
            bad = ~(np.isfinite(zg).all(axis=1) & np.isfinite(stat) & (stat <= thr))
            newly_dead, _ = _mask_update(alive, supv, stat, bad)
            tripped |= newly_dead
            alive &= ~newly_dead
            z[~alive] = 0.0
            if k < k_steps:
                ue_grid = u0_grid[k] + s * zg
                drift = (eng.nonlinear_drift(ue_grid) - base_drift[k]) / s
                terms = z + dt * drift
                terms = terms + noise_scale * eng.forcing_term(k * dt, ue_grid, inc[k])
                z = eng.semigroup * terms
                z[~alive] = 0.0
        out.append({"sup": supv, "tripped": tripped})
    return out


# runners ---------------------------------------------------------------------


def _build_payload(spec, params, g, cfg, noise_spec, u0):
    if noise_spec is None:
        noise_spec = NoiseSpec(n_modes=cfg.n_modes)
    if u0 is None:
        eng = SolverEngine(params, cfg, g=g, noise_spec=noise_spec)
        u0 = default_initial(eng.grid)
    u0_traj = solve_deterministic(u0, params, cfg)
    return {
        "params": params,
        "cfg": cfg,
        "g": g,
        "noise_spec": noise_spec,
        "eps_list": spec.eps_list,
        "base_seed": spec.base_seed,
        "coupled": spec.coupled,
        "n_paths": spec.n_paths,
        "guard_threshold": spec.guard_threshold,
        "u0_coeffs": u0_traj.coeffs,
    }


def _reduce_sups(blocks, n_eps):
    """Concatenate per-block sups/trip masks in block order, one pair per eps."""
    sups, trips = [], []
    for e in range(n_eps):
        sups.append(np.concatenate([b[e]["sup"] for b in blocks]))
        trips.append(np.concatenate([b[e]["tripped"] for b in blocks]))
    return sups, trips


def _mean_stderr(x):
    if x.size == 0:
        return float("nan"), float("nan")
    m = float(np.mean(x))
    s = float(np.std(x, ddof=1) / np.sqrt(x.size)) if x.size > 1 else float("nan")
    return m, s


def _convergence_report(spec, p, statistic, sups, trips, slope_target, pass_rule):
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
    if degenerate:
        passed = None
    else:
        verdict = pass_rule(fit, mean, details)
        # a sized run that cannot even be fitted is a failure, not "unjudged"
        passed = False if verdict is None else bool(verdict and rejection_ok)

    return ConvergenceReport(
        experiment=spec.experiment,
        statistic=statistic,
        p_norm=p,
        n_paths=spec.n_paths,
        coupled=spec.coupled,
        eps=eps,
        mean=mean,
        stderr=stderr,
        n_rejected=nrej,
        censored_mean=cmean,
        censored_stderr=cstderr,
        slope=None if fit is None else fit.slope,
        intercept=None if fit is None else fit.intercept,
        r_squared=None if fit is None else fit.r_squared,
        slope_target=slope_target,
        passed=passed,
        pass_details=details,
    )


def run_strong_rate(spec, params, g, cfg, u0=None, noise_spec=None, workers=1):
    """Estimate E[sup_t ||u_eps - u0||_p^p] per eps and fit the decay slope.

    The target slope is p/2.  Pass requires the fitted slope >= p/2 - 0.3
    with r^2 >= 0.99 (the theory guarantees only an upper bound of order
    eps^(p/2), so the gate is one-sided) and a rejection rate <= 5% per eps.
    """
    if spec.experiment != "strong_rate":
        raise ValueError(f"spec.experiment is {spec.experiment!r}, expected 'strong_rate'")
    payload = _build_payload(spec, params, g, cfg, noise_spec, u0)
    blocks = _run_blocks(_block_strong_rate, payload, spec, workers)
    sups, trips = _reduce_sups(blocks, len(spec.eps_list))
    target = params.p_norm / 2

    def rule(fit, mean, details):
        if fit is None:
            return None
        details["slope_ok"] = fit.slope >= target - 0.3
        details["r2_ok"] = fit.r_squared >= 0.99
        return details["slope_ok"] and details["r2_ok"]

    return _convergence_report(
        spec,
        params.p_norm,
        "sup_t lp_norm(u_eps - u0, p)^p",
        sups,
        trips,
        target,
        rule,
    )


def run_clt(spec, params, g, cfg, u0=None, noise_spec=None, workers=1):
    """Estimate E[sup_t ||v_eps - v||_p] per eps, v_eps = (u_eps - u0)/sqrt(eps).

    v_eps is integrated as the difference-quotient rescaled process coupled to
    the same increments that drive the limit field v, so the statistic decays
    like the leading sqrt(eps) remainder.  Pass requires strictly decreasing
    means and fitted order >= 0.4.
    """
    if spec.experiment != "clt":
        raise ValueError(f"spec.experiment is {spec.experiment!r}, expected 'clt'")
    if not spec.coupled:
        raise ValueError("run_clt requires coupled=True (v and v_eps share noise)")
    params.validate_for_clt()
    payload = _build_payload(spec, params, g, cfg, noise_spec, u0)
    blocks = _run_blocks(_block_clt, payload, spec, workers)
    sups, trips = _reduce_sups(blocks, len(spec.eps_list))

    def rule(fit, mean, details):
        decreasing = all(b < a for a, b in zip(mean, mean[1:]))
        details["strictly_decreasing"] = decreasing
        if fit is None:
            details["slope_ok"] = False
            return False
        details["slope_ok"] = fit.slope >= 0.4
        return decreasing and details["slope_ok"]

    return _convergence_report(
        spec,
        params.p_norm,
        "sup_t lp_norm(v_eps - v, p)",
        sups,
        trips,
        0.5,
        rule,
    )


def run_heat_oracle(spec, params, cfg, noise_spec=None, workers=1, g_constant=1.0):
    """Closed-form validation of the stochastic pipeline on the pure heat case.

    Requires alpha = beta = 0 and uses constant g and zero initial data, so
    every mode is an exact Ornstein-Uhlenbeck process with endpoint variance
    eps q_j^2 (1 - exp(-2 nu lambda_j T)) / (2 nu lambda_j).  Empirical
    endpoint variances are compared per mode via chi-square z-scores; pass
    requires |z| <= 3 for >= 95% of modes and |mean| <= 3 stderr everywhere.
    """
    if spec.experiment != "heat_oracle":
        raise ValueError(f"spec.experiment is {spec.experiment!r}, expected 'heat_oracle'")
    if params.alpha != 0 or params.beta != 0:
        raise ValueError("heat oracle requires alpha = beta = 0")
    if noise_spec is None:
        noise_spec = NoiseSpec(n_modes=cfg.n_modes)
    g = NoiseCoefficient("constant", kappa0=float(g_constant))
    payload = {
        "params": params,
        "cfg": cfg,
        "g": g,
        "noise_spec": noise_spec,
        "eps_list": spec.eps_list,
        "base_seed": spec.base_seed,
        "coupled": spec.coupled,
        "n_paths": spec.n_paths,
        "guard_threshold": spec.guard_threshold,
        "u0_coeffs": None,
    }
    blocks = _run_blocks(_block_heat, payload, spec, workers)

    eng = SolverEngine(params, cfg, g=g, noise_spec=noise_spec)
    lam = eng.basis.eigenvalues
    q = noise_spec.q
    T = cfg.t_end
    M = spec.n_paths
    n_eps = len(spec.eps_list)
    var_emp = np.empty((n_eps, cfg.n_modes))
    var_th = np.empty((n_eps, cfg.n_modes))
    zs = np.empty((n_eps, cfg.n_modes))
    means = np.empty((n_eps, cfg.n_modes))
    mstderr = np.empty((n_eps, cfg.n_modes))
    frac, mok = [], []
    for e, eps in enumerate(spec.eps_list):
        endpoints = np.concatenate([b[e]["endpoint"] for b in blocks], axis=0)
        var_emp[e] = np.var(endpoints, axis=0, ddof=1)
        var_th[e] = eps * g_constant**2 * q**2 * (1 - np.exp(-2 * params.nu * lam * T)) / (
            2 * params.nu * lam
        )
        zs[e] = (var_emp[e] - var_th[e]) / (var_th[e] * np.sqrt(2.0 / (M - 1)))
        means[e] = endpoints.mean(axis=0)
        mstderr[e] = np.std(endpoints, axis=0, ddof=1) / np.sqrt(M)
        frac.append(float(np.mean(np.abs(zs[e]) <= 3.0)))
        mok.append(bool(np.all(np.abs(means[e]) <= 3.0 * mstderr[e])))
    passed = all(f >= 0.95 for f in frac) and all(mok)
    return OracleReport(
        eps_list=list(spec.eps_list),
        n_paths=M,
        var_empirical=var_emp,
        var_theory=var_th,
        z_scores=zs,
        mode_means=means,
        mean_stderr=mstderr,
        frac_within=frac,
        means_ok=mok,
        passed=passed,
    )


def run_mdp_tail(spec, params, g, cfg, speed, rho_list, u0=None, noise_spec=None, tail_p=2, workers=1):
    """Empirical tail probabilities P(sup_t ||Z_eps||_p > rho) per (eps, rho).

    Z_eps is the rescaled deviation process at the given moderate-deviation
    speed.  Tightness of the family shows up as tails that are non-increasing
    in rho and bounded in eps.
    """
    if spec.experiment != "mdp_tail":
        raise ValueError(f"spec.experiment is {spec.experiment!r}, expected 'mdp_tail'")
    theta = getattr(speed, "theta", None)
    if theta is None:
        raise ValueError("speed must be a SpeedFunction with a theta attribute")
    payload = _build_payload(spec, params, g, cfg, noise_spec, u0)
    payload["theta"] = float(theta)
    payload["tail_p"] = int(tail_p)
    rho_arr = np.atleast_1d(np.asarray(rho_list, dtype=float))
    if np.any(rho_arr > spec.guard_threshold):
        raise ValueError("rho thresholds above the guard threshold cannot be counted")
    blocks = _run_blocks(_block_mdp, payload, spec, workers)
    sups, trips = _reduce_sups(blocks, len(spec.eps_list))
    by_eps = {}
    for eps, sup, trip in zip(spec.eps_list, sups, trips):
        # a tripped path exceeded the guard, hence every admissible rho
        by_eps[eps] = np.where(trip, np.inf, sup)
    return tail_report(by_eps, rho_list, tail_p)
