"""Moderate-deviation machinery: speed functions, the minimum-energy rate
function over the skeleton dynamics, controllability Gramians, and tail
(tightness) reports.

The rate function for an endpoint target psi is

    I(psi) = inf { (1/2) int_0^T ||hdot(s)||^2 ds  :  Z_h(T) = psi },

where h -> Z_h is the (linear) skeleton solve.  Discretely Z_h(T) = Phi h for
a linear map Phi from piecewise-constant controls to endpoint coefficients.
Scaling the controls by sqrt(dt) makes the control norm Euclidean, so Phi
becomes a matrix A with one row per endpoint mode, and the infimum is the
minimum-norm solution x* = A^+ psi, I(psi) = (1/2)||x*||^2 = (1/2) psi^T G^+ psi
for the controllability Gramian G = A A^T.  The adjoint Phi* is the exact
discrete adjoint of the forward scheme (transposed dynamics run backward in
time), so <Phi h, w> = <h, Phi* w> holds to roundoff, and one backward sweep
over the unit endpoint vectors reads off all of A.  A is small (endpoint
modes x control entries) and dense, so the rate function is a truncated SVD
of it: directions below a fixed relative cutoff count as unreachable, and a
target with a component there surfaces as a residual.
"""

import json
from dataclasses import dataclass

import numpy as np

from .model import noise_coefficient_eval
from .noise import ControlPath, NoiseSpec
from .solvers import SetupError, SolverEngine, _check_time_grid, march

__all__ = [
    "SpeedFunction",
    "RateFunctionResult",
    "TailReport",
    "EndpointControlMap",
    "rate_function_endpoint",
    "controllability_gramian",
    "tail_report",
    "wilson_interval",
]


@dataclass(frozen=True)
class SpeedFunction:
    """Power-law moderate-deviation speed lambda(eps) = eps^(-theta).

    The genuine MDP regime is 0 < theta < 1/2 (lambda -> infinity while
    sqrt(eps)*lambda -> 0); theta = 0 is admitted as the CLT scale lambda == 1.
    """

    theta: float

    def __post_init__(self):
        if not 0 <= self.theta < 0.5:
            raise SetupError(f"theta must lie in [0, 1/2), got {self.theta}")

    def __call__(self, eps):
        if eps <= 0:
            raise ValueError(f"eps must be > 0, got {eps}")
        return float(eps) ** (-self.theta)

    @property
    def is_mdp_scale(self):
        return 0 < self.theta < 0.5

    def check_sequence(self, eps_seq):
        """On a decreasing eps sequence: lambda increases, sqrt(eps)*lambda decreases."""
        eps = np.asarray(eps_seq, dtype=float)
        if np.any(eps <= 0) or np.any(np.diff(eps) >= 0):
            raise ValueError("eps_seq must be positive and strictly decreasing")
        lam = eps ** (-self.theta)
        return bool(np.all(np.diff(lam) >= 0) and np.all(np.diff(np.sqrt(eps) * lam) <= 0))


@dataclass
class RateFunctionResult:
    value: float
    control: ControlPath
    endpoint_residual: float
    iterations: int
    converged: bool

    def to_dict(self, control_file=None):
        return {
            "value": self.value,
            "endpoint_residual": self.endpoint_residual,
            "iterations": self.iterations,
            "converged": self.converged,
            "control_file": control_file,
        }

    def to_json(self, control_file=None):
        return json.dumps(self.to_dict(control_file), indent=2)


class EndpointControlMap:
    """Discrete linear map Phi: control -> skeleton endpoint, with exact adjoint.

    Forward marches the skeleton scheme
        z_{k+1} = E (z_k + dt L_k z_k + dt C_k hdot_k),
    adjoint runs the transposed recursion backward:
        rho_K = w;  (Phi* w)_k = C_k^T E rho_{k+1};  rho_k = (I + dt L_k^T) E rho_{k+1},
    with the control inner product <h, g> = sum_k dt hdot_k . gdot_k.
    """

    def __init__(self, u0_traj, params, g, cfg, noise_spec=None):
        _check_time_grid(cfg, trajectory=u0_traj)
        spec = noise_spec if noise_spec is not None else NoiseSpec(n_modes=cfg.n_modes)
        self.eng = SolverEngine(params, cfg, g=g, noise_spec=spec)
        self.n_steps = cfg.n_steps
        self.n_control_modes = spec.n_modes
        self.u0_grid = u0_traj.grid_values()
        self.profiles = self.eng.linearization_profiles(self.u0_grid)
        self.p1, self.c1 = self.profiles

    def forward(self, hdot):
        """Endpoint coefficients Z_h(T) for hdot of shape (J_noise, n_steps)."""
        eng = self.eng
        # the skeleton solver's march and stepper, so endpoints agree bitwise
        step = eng.deviation_step(self.u0_grid, 0.0, self.profiles, control_inc=hdot.T)
        return march(eng, [np.zeros(eng.cfg.n_modes)], [step], lambda k, z, zg: None)[0]

    def adjoint(self, w):
        """(Phi* w): shape (J_noise, n_steps) for w of shape (J,), and
        (B, J_noise, n_steps) for a batch of B rows w of shape (B, J)."""
        eng = self.eng
        dt = eng.dt
        q = eng.q[: self.n_control_modes]
        phi_n = eng.phi[: self.n_control_modes]
        rho = np.asarray(w, dtype=float)
        out = np.empty(rho.shape[:-1] + (self.n_control_modes, self.n_steps))
        for k in range(self.n_steps - 1, -1, -1):
            e_rho = eng.semigroup * rho
            rho_grid = e_rho @ eng.phi
            gv = noise_coefficient_eval(eng.g, k * dt, eng.grid.nodes, self.u0_grid[k])
            out[..., k] = eng.h * (q * ((gv * rho_grid) @ phi_n.T))
            lt = 0.0
            if self.c1 is not None:
                lt = eng.project(self.c1[k] * rho_grid)
            if self.p1 is not None:
                adv = eng.project(self.p1[k] * (e_rho @ eng.dphi))
                lt = adv if isinstance(lt, float) else lt + adv
            rho = e_rho if isinstance(lt, float) else e_rho + dt * lt
        return out

    def matrix(self, n_rows=None):
        """The sqrt(dt)-scaled map A, of shape (n_rows, J_noise * n_steps):
        row i is sqrt(dt) Phi* e_i, so A x = Phi(x / sqrt(dt)) and the
        Euclidean norm of x is the control norm.  One batched adjoint sweep."""
        n_rows = self.eng.cfg.n_modes if n_rows is None else n_rows
        rows = self.adjoint(np.eye(self.eng.cfg.n_modes)[:n_rows])
        return np.sqrt(self.eng.dt) * rows.reshape(n_rows, -1)

    def control_path(self, hdot):
        return ControlPath(dt=self.eng.dt, n_steps=self.n_steps, hdot=hdot)


def _target_coeffs(target, eng):
    from .spectral import Field, to_spectral

    if isinstance(target, Field):
        return to_spectral(target, eng.basis).data
    target = np.asarray(target, dtype=float)
    if target.shape != (eng.cfg.n_modes,):
        raise ValueError(f"target must have {eng.cfg.n_modes} coefficients")
    return target


def rate_function_endpoint(target, u0_traj, params, g, cfg, tol=1e-8, noise_spec=None):
    """Minimum Cameron-Martin action over controls steering the skeleton to ``target``.

    Takes the SVD of the sqrt(dt)-scaled endpoint map A, keeps the r singular
    values above numpy's pinv cutoff max(shape) * eps * sigma_max, and solves
    x = V_r Sigma_r^-1 U_r^T psi: the minimum-norm control reaching the
    projection of psi on the numerically reachable subspace.  Returns that
    control, its action as the value, the endpoint residual ||Phi h - psi||_2
    (the L^2 distance, by Parseval) recomputed through the forward map, and r
    as ``iterations`` (the number of directions used; 0 for a zero target).
    ``converged`` records whether the residual is at most tol * ||psi||, so a
    target outside the reachable subspace surfaces as not converged.
    """
    cmap = EndpointControlMap(u0_traj, params, g, cfg, noise_spec=noise_spec)
    psi = _target_coeffs(target, cmap.eng)
    b_norm = float(np.linalg.norm(psi))
    if b_norm == 0.0:
        control = cmap.control_path(np.zeros((cmap.n_control_modes, cmap.n_steps)))
        return RateFunctionResult(0.0, control, 0.0, 0, True)

    a = cmap.matrix()
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    rank = int(np.sum(s > max(a.shape) * np.finfo(float).eps * s[0]))
    x = vt[:rank].T @ ((u[:, :rank].T @ psi) / s[:rank])
    hdot = x.reshape(cmap.n_control_modes, cmap.n_steps) / np.sqrt(cmap.eng.dt)
    control = cmap.control_path(hdot)
    residual = float(np.linalg.norm(cmap.forward(hdot) - psi))
    return RateFunctionResult(control.action(), control, residual, rank, residual <= tol * b_norm)


def controllability_gramian(u0_traj, params, g, cfg, mode_cap, noise_spec=None):
    """Gramian G = Phi Phi* = A A^T restricted to the first mode_cap endpoint modes."""
    if mode_cap > cfg.n_modes:
        raise ValueError(f"mode_cap {mode_cap} exceeds n_modes {cfg.n_modes}")
    a = EndpointControlMap(u0_traj, params, g, cfg, noise_spec=noise_spec).matrix(mode_cap)
    return a @ a.T


def wilson_interval(successes, n, z=1.96):
    """Wilson score interval for a binomial proportion."""
    if n <= 0:
        raise ValueError("n must be positive")
    phat = successes / n
    denom = 1.0 + z**2 / n
    center = (phat + z**2 / (2 * n)) / denom
    half = (z / denom) * np.sqrt(phat * (1 - phat) / n + z**2 / (4 * n**2))
    return max(0.0, center - half), min(1.0, center + half)


@dataclass
class TailReport:
    """Empirical tail probabilities P(sup_t ||Z(t)||_p > rho) per (eps, rho)."""

    eps_list: list
    rho_list: list
    n_paths: list
    counts: np.ndarray  # (n_eps, n_rho) exceedance counts
    p_norm: int

    @property
    def p_hat(self):
        n = np.asarray(self.n_paths, dtype=float)[:, None]
        return self.counts / n

    def wilson_bounds(self):
        lo = np.empty_like(self.counts, dtype=float)
        hi = np.empty_like(self.counts, dtype=float)
        for i, n in enumerate(self.n_paths):
            for j in range(len(self.rho_list)):
                lo[i, j], hi[i, j] = wilson_interval(self.counts[i, j], n)
        return lo, hi

    def monotone_in_rho(self):
        """Estimates are non-increasing in rho for each eps (nested events)."""
        return bool(np.all(np.diff(self.p_hat, axis=1) <= 0))

    def to_dict(self):
        lo, hi = self.wilson_bounds()
        return {
            "p_norm": self.p_norm,
            "rho": list(map(float, self.rho_list)),
            "per_eps": [
                {
                    "eps": float(e),
                    "n_paths": int(n),
                    "exceed_counts": [int(c) for c in self.counts[i]],
                    "p_hat": [float(x) for x in self.p_hat[i]],
                    "wilson_lo": [float(x) for x in lo[i]],
                    "wilson_hi": [float(x) for x in hi[i]],
                }
                for i, (e, n) in enumerate(zip(self.eps_list, self.n_paths))
            ],
            "monotone_in_rho": self.monotone_in_rho(),
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2)

    def to_csv(self, path):
        lo, hi = self.wilson_bounds()
        with open(path, "w") as fh:
            fh.write("eps,rho,n_paths,n_exceed,p_hat,wilson_lo,wilson_hi\n")
            for i, (e, n) in enumerate(zip(self.eps_list, self.n_paths)):
                for j, rho in enumerate(self.rho_list):
                    fh.write(
                        f"{float(e)!r},{float(rho)!r},{int(n)},{int(self.counts[i, j])},"
                        f"{float(self.p_hat[i, j])!r},{float(lo[i, j])!r},{float(hi[i, j])!r}\n"
                    )


def tail_report(sup_norms_by_eps, rho_list, p_norm):
    """Build a TailReport from per-eps arrays of sup-in-time L^p norms."""
    rho_list = [float(r) for r in np.atleast_1d(rho_list)]
    eps_list, n_paths, rows = [], [], []
    for eps, sups in sup_norms_by_eps.items():
        sups = np.asarray(sups, dtype=float)
        if sups.size == 0:
            raise ValueError(f"empty ensemble for eps={eps}")
        eps_list.append(float(eps))
        n_paths.append(int(sups.size))
        rows.append([int(np.sum(sups > rho)) for rho in rho_list])
    return TailReport(
        eps_list=eps_list,
        rho_list=rho_list,
        n_paths=n_paths,
        counts=np.asarray(rows, dtype=int),
        p_norm=p_norm,
    )

