"""Exponential-Euler mild-form integrators for the five evolution problems.

All solvers integrate spectral coefficients a_j(t) of the state in the
Dirichlet sine basis.  One step of every scheme has the same shape

    a(t+dt) = E * ( a(t) + dt * drift(t, a) + noise/control terms ),

with E = exp(-nu * lambda_j * dt) the exact per-mode heat semigroup and all
other terms explicit at the left endpoint (Ito evaluation for the noise).
This is a direct discretization of the mild form: the semigroup factor plays
the role of the Green's-function convolution over one step.

The advective term -alpha u^delta u_x enters in divergence form: with
p(u) = u^(delta+1), the mode-j forcing is +(alpha/(delta+1)) <p(u), phi_j'>
by integration by parts (boundary terms vanish since p(u) does), evaluated by
trapezoid quadrature on the grid.  Nonlinear products have degree
2*delta + 1, so grids must satisfy n_points >= 2*(2*delta+1)*n_modes before
projection (anti-aliasing); the engine enforces this whenever alpha or beta
is nonzero.

The rescaled deviation process Z = (u_eps - u0) / (sqrt(eps) * lam) is
integrated from its own equation, with the nonlinear terms as difference
quotients [N(u0 + s Z) - N(u0)] / s at s = sqrt(eps) * lam.  One induction
step shows the discrete identity u_eps = u0 + s * Z then holds exactly in
exact arithmetic, so the coupling check survives to roundoff even for tiny
eps.  At s = 0 the quotients are replaced by the analytic linearization
(p'(u0) Z, c'(u0) Z), which is also how the CLT limit and the skeleton
equation are integrated.
"""

import struct
from dataclasses import dataclass

import numpy as np

from .model import (
    advective_derivative,
    advective_nonlinearity,
    noise_coefficient_eval,  # noqa: F401  (perfbench/probe.py patches it here by name)
    reaction_derivative,
    reaction_nonlinearity,
)
from .noise import BinaryFormatError, NoiseSpec, _read_flat_binary
from .spectral import Field, Grid1D, build_basis, to_spectral

__all__ = [
    "SolverConfig",
    "Trajectory",
    "BlowupGuard",
    "BlowupError",
    "NumericalAbortError",
    "solve_deterministic",
    "solve_spde",
    "solve_clt_limit",
    "solve_mdp_process",
    "solve_controlled",
    "solve_skeleton",
    "save_trajectory",
    "load_trajectory",
]


class BlowupError(RuntimeError):
    """L^p norm crossed the BlowupGuard threshold."""

    def __init__(self, time, norm, threshold):
        super().__init__(f"L^p norm {norm:.6g} exceeded threshold {threshold:.6g} at t={time:.6g}")
        self.time = time
        self.norm = norm
        self.threshold = threshold


class NumericalAbortError(RuntimeError):
    """Non-finite state encountered."""

    def __init__(self, time):
        super().__init__(f"non-finite state at t={time:.6g}")
        self.time = time


@dataclass(frozen=True)
class SolverConfig:
    dt: float
    t_end: float
    n_modes: int = 32
    n_points: int = 256
    scheme: str = "exponential-euler"

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if self.t_end <= 0:
            raise ValueError(f"t_end must be > 0, got {self.t_end}")
        steps = self.t_end / self.dt
        if abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
            raise ValueError(f"t_end={self.t_end} is not an integer multiple of dt={self.dt}")
        if self.scheme != "exponential-euler":
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.n_modes < 1:
            raise ValueError(f"n_modes must be >= 1, got {self.n_modes}")
        if self.n_points < 4 * self.n_modes:
            raise ValueError(
                f"grid too coarse: n_points={self.n_points} < 4*n_modes={4 * self.n_modes}"
            )

    @property
    def n_steps(self):
        return int(round(self.t_end / self.dt))


@dataclass
class BlowupGuard:
    """Discrete stopping rule: first time the L^p norm exceeds ``threshold``."""

    threshold: float = 1e3
    tripped_at: float | None = None

    def check(self, time, norm):
        if norm > self.threshold:
            if self.tripped_at is None:
                self.tripped_at = time
            raise BlowupError(time, norm, self.threshold)


@dataclass
class Trajectory:
    """Uniform-in-time spectral trajectory; row k holds coefficients at k*dt."""

    times: np.ndarray
    coeffs: np.ndarray
    basis: object
    norm_p: int | None = None
    norms: np.ndarray | None = None

    @property
    def dt(self):
        return float(self.times[1] - self.times[0])

    @property
    def n_steps(self):
        return len(self.times) - 1

    @property
    def n_modes(self):
        return self.coeffs.shape[1]

    def field(self, k):
        return Field.from_coeffs(self.coeffs[k])

    def grid_values(self, k=None):
        """Interior grid samples at step k, or all steps when k is None."""
        if k is None:
            return self.coeffs @ self.basis.phi
        return self.coeffs[k] @ self.basis.phi

    def lp_norms(self, p):
        grid = self.basis.grid
        return grid.lp_norm(self.grid_values(), p)

    def to_csv(self, path):
        l2 = np.linalg.norm(self.coeffs, axis=1)
        lp = self.norms
        with open(path, "w") as fh:
            if lp is None:
                fh.write("time,l2_norm\n")
                for t, a in zip(self.times, l2):
                    fh.write(f"{float(t)!r},{float(a)!r}\n")
            else:
                fh.write(f"time,l2_norm,l{self.norm_p}_norm\n")
                for t, a, b in zip(self.times, l2, lp):
                    fh.write(f"{float(t)!r},{float(a)!r},{float(b)!r}\n")


_TRAJ_HEADER = struct.Struct("<qqdq")


def save_trajectory(traj, path):
    """Flat binary: int64 n_points, int64 n_modes, float64 dt, int64 n_steps, coeff rows."""
    with open(path, "wb") as fh:
        fh.write(
            _TRAJ_HEADER.pack(
                traj.basis.grid.n_points, traj.n_modes, traj.dt, traj.n_steps
            )
        )
        fh.write(np.ascontiguousarray(traj.coeffs, dtype="<f8").tobytes())


def load_trajectory(path):
    (n_points, n_modes, dt, n_steps), coeffs = _read_flat_binary(
        path, _TRAJ_HEADER, lambda f: (f[3] + 1, f[1])
    )
    if n_steps < 1 or n_points < 4 * n_modes:
        raise BinaryFormatError(
            f"{path}: header gives n_points={n_points}, n_modes={n_modes}, n_steps={n_steps}"
        )
    basis = build_basis(n_modes, Grid1D(n_points))
    return Trajectory(times=dt * np.arange(n_steps + 1), coeffs=coeffs.copy(), basis=basis)


class SolverEngine:
    """Precomputed arrays for stepping a fixed (params, config, noise) setup.

    All methods broadcast over leading batch axes: coefficient arrays may be
    (J,) or (B, J), grid arrays (n,) or (B, n).  Shared by the single-path
    solvers here, the ensemble runners, and the adjoint machinery.
    """

    def __init__(self, params, cfg, g=None, noise_spec=None):
        self.params = params
        self.cfg = cfg
        self.grid = Grid1D(cfg.n_points)
        self.basis = build_basis(cfg.n_modes, self.grid)
        if (params.alpha > 0 or params.beta > 0) and cfg.n_points < 2 * (
            2 * params.delta + 1
        ) * cfg.n_modes:
            raise ValueError(
                f"aliasing: nonlinear degree {2 * params.delta + 1} needs n_points >= "
                f"{2 * (2 * params.delta + 1) * cfg.n_modes}, got {cfg.n_points}"
            )
        self.dt = cfg.dt
        self.phi = self.basis.phi
        self.dphi = self.basis.dphi
        self.h = self.grid.spacing
        self.semigroup = np.exp(-params.nu * self.basis.eigenvalues * cfg.dt)
        self.g = g
        if noise_spec is not None:
            if noise_spec.n_modes > cfg.n_modes:
                raise ValueError(
                    f"noise has {noise_spec.n_modes} modes > solver n_modes {cfg.n_modes}"
                )
            self.q = noise_spec.q
        else:
            self.q = None

    # representation changes ------------------------------------------------

    def grid_values(self, coeffs):
        return coeffs @ self.phi

    def project(self, values):
        return (values @ self.phi.T) * self.h

    def project_divergence(self, values):
        """Mode coefficients of the divergence-form advective pairing <., phi_j'>."""
        return (values @ self.dphi.T) * self.h

    def initial_coeffs(self, u0):
        if isinstance(u0, Field):
            return to_spectral(u0, self.basis).data.copy()
        u0 = np.asarray(u0, dtype=float)
        if u0.shape[-1] == self.cfg.n_modes:
            return u0.copy()
        raise ValueError(f"initial coefficients must have length {self.cfg.n_modes}")

    # drift pieces -----------------------------------------------------------

    def nonlinear_drift(self, u_grid):
        """beta c(u) + (alpha/(delta+1)) <p(u), phi'> as mode coefficients."""
        p = self.params
        out = 0.0
        if p.beta > 0:
            out = p.beta * self.project(reaction_nonlinearity(u_grid, p.gamma, p.delta))
        if p.alpha > 0:
            adv = (p.alpha / (p.delta + 1)) * self.project_divergence(
                advective_nonlinearity(u_grid, p.delta)
            )
            out = adv if isinstance(out, float) else out + adv
        if isinstance(out, float):
            return np.zeros(u_grid.shape[:-1] + (self.cfg.n_modes,))
        return out

    def linearization_profiles(self, u0_grid):
        """(p'(u0), beta*c'(u0)) grid profiles used by the linear solvers."""
        p = self.params
        p1 = advective_derivative(u0_grid, p.delta) if p.alpha > 0 else None
        c1 = p.beta * reaction_derivative(u0_grid, p.gamma, p.delta) if p.beta > 0 else None
        return p1, c1

    def linearized_drift(self, z_grid, p1, c1):
        """Drift of the linearization at u0: beta c'(u0) z + (alpha/(delta+1)) <p'(u0) z, phi_j'>."""
        p = self.params
        out = 0.0
        if c1 is not None:
            out = self.project(c1 * z_grid)
        if p1 is not None:
            adv = (p.alpha / (p.delta + 1)) * self.project_divergence(p1 * z_grid)
            out = adv if isinstance(out, float) else out + adv
        if isinstance(out, float):
            return np.zeros(z_grid.shape[:-1] + (self.cfg.n_modes,))
        return out

    # noise and control ------------------------------------------------------

    def colored_increment_grid(self, mode_increments):
        """Sum_j q_j phi_j(x) dB_j on the grid; mode_increments is (..., J_noise)."""
        jn = mode_increments.shape[-1]
        return (self.q[:jn] * mode_increments) @ self.phi[:jn]

    def forcing_term(self, t, u_grid, mode_increments):
        """Project g(t, ., u) * sum_j q_j phi_j dB_j.  Serves noise and control.

        With g = kappa0 + kappa1 u, the kappa0 part projects to kappa0 q_j dB_j
        exactly (the sine modes are discretely orthonormal on the grid), zero
        beyond the increments' J_noise modes, so only kappa1 != 0 takes the
        grid product; ``u_grid`` is read only then.
        """
        jn = mode_increments.shape[-1]
        out = np.zeros(mode_increments.shape[:-1] + (self.cfg.n_modes,))
        out[..., :jn] = self.g.kappa0 * self.q[:jn] * mode_increments
        if self.g.kappa1 != 0.0:
            w = self.colored_increment_grid(mode_increments)
            out = out + self.project(self.g.kappa1 * u_grid * w)
        return out


def _check_traj(u0_traj, cfg):
    if u0_traj.n_steps != cfg.n_steps or abs(u0_traj.dt - cfg.dt) > 1e-12 * cfg.dt:
        raise ValueError(
            f"trajectory grid ({u0_traj.n_steps} steps of {u0_traj.dt}) does not match "
            f"config ({cfg.n_steps} steps of {cfg.dt})"
        )
    if u0_traj.n_modes != cfg.n_modes:
        raise ValueError(f"trajectory has {u0_traj.n_modes} modes, config {cfg.n_modes}")


def _check_noise(noise, cfg):
    if noise.n_steps != cfg.n_steps or abs(noise.dt - cfg.dt) > 1e-12 * cfg.dt:
        raise ValueError(
            f"noise grid ({noise.n_steps} steps of {noise.dt}) does not match "
            f"config ({cfg.n_steps} steps of {cfg.dt})"
        )
    if noise.spec is None:
        raise ValueError("noise realization carries no NoiseSpec (needed for q weights)")


def _check_control(h, cfg):
    if h.n_steps != cfg.n_steps or abs(h.dt - cfg.dt) > 1e-12 * cfg.dt:
        raise ValueError(
            f"control grid ({h.n_steps} steps of {h.dt}) does not match "
            f"config ({cfg.n_steps} steps of {cfg.dt})"
        )


def _drive(eng, a0, step_fn, guard):
    """March a single path, recording coefficients and L^p norms per step."""
    k_steps = eng.cfg.n_steps
    n_modes = eng.cfg.n_modes
    p = eng.params.p_norm
    out = np.empty((k_steps + 1, n_modes))
    norms = np.empty(k_steps + 1)
    a = a0
    for k in range(k_steps + 1):
        t = k * eng.dt
        if not np.all(np.isfinite(a)):
            raise NumericalAbortError(t)
        u_grid = eng.grid_values(a)
        norm = eng.grid.lp_norm(u_grid, p)
        if not np.isfinite(norm):
            raise NumericalAbortError(t)
        if guard is not None:
            guard.check(t, norm)
        out[k] = a
        norms[k] = norm
        if k < k_steps:
            a = step_fn(k, a, u_grid)
    times = eng.dt * np.arange(k_steps + 1)
    return Trajectory(times=times, coeffs=out, basis=eng.basis, norm_p=p, norms=norms)


def solve_deterministic(u0, params, cfg, guard=None):
    """Integrate the deterministic equation from initial data ``u0``.

    Grid initial data is Galerkin-projected onto the mode band first; the
    scheme then evolves that projection.
    """
    eng = SolverEngine(params, cfg)
    dt = eng.dt

    def step(k, a, u_grid):
        return eng.semigroup * (a + dt * eng.nonlinear_drift(u_grid))

    return _drive(eng, eng.initial_coeffs(u0), step, guard)


def solve_spde(u0, params, g, eps, noise, cfg, guard=None):
    """Integrate the stochastic equation at noise intensity sqrt(eps)."""
    if not 0 < eps <= 1:
        raise ValueError(f"eps must be in (0, 1], got {eps}")
    _check_noise(noise, cfg)
    eng = SolverEngine(params, cfg, g=g, noise_spec=noise.spec)
    dt = eng.dt
    root_eps = np.sqrt(eps)
    inc = noise.increments

    def step(k, a, u_grid):
        terms = a + dt * eng.nonlinear_drift(u_grid)
        terms = terms + root_eps * eng.forcing_term(k * dt, u_grid, inc[:, k])
        return eng.semigroup * terms

    return _drive(eng, eng.initial_coeffs(u0), step, guard)


def solve_clt_limit(u0_traj, params, g, noise, cfg, guard=None):
    """Integrate the CLT limit field: linearization at u0 plus additive noise at u0.

    v(0) = 0; v is linear in the noise realization.
    """
    _check_traj(u0_traj, cfg)
    _check_noise(noise, cfg)
    eng = SolverEngine(params, cfg, g=g, noise_spec=noise.spec)
    dt = eng.dt
    u0_grid = u0_traj.grid_values()
    p1, c1 = eng.linearization_profiles(u0_grid)
    inc = noise.increments

    def step(k, v, v_grid):
        lin = eng.linearized_drift(
            v_grid, None if p1 is None else p1[k], None if c1 is None else c1[k]
        )
        noi = eng.forcing_term(k * dt, u0_grid[k], inc[:, k])
        return eng.semigroup * (v + dt * lin + noi)

    return _drive(eng, np.zeros(cfg.n_modes), step, guard)


def solve_controlled(u0_traj, params, g, eps, speed, noise, h, cfg, guard=None, noise_spec=None):
    """Integrate the controlled deviation process Z at scale s = sqrt(eps)*lambda(eps).

    Nonlinear terms are difference quotients [N(u0 + s Z) - N(u0)] / s; noise
    enters at weight 1/lambda(eps) and the control forcing at weight dt, both
    with coefficients evaluated at u0 + s Z.  ``speed`` may be a callable
    lambda(eps) or the number lambda itself.  eps = 0 freezes coefficients at
    u0 (analytic linearization), which is exactly the skeleton dynamics.

    The control coloring uses q from the noise realization's spec when one is
    given, else from ``noise_spec``, else the default NoiseSpec over the
    control's modes.
    """
    if not 0 <= eps <= 1:
        raise ValueError(f"eps must be in [0, 1], got {eps}")
    _check_traj(u0_traj, cfg)
    if noise is not None:
        _check_noise(noise, cfg)
    if h is not None:
        _check_control(h, cfg)
        if h.n_modes > cfg.n_modes:
            raise ValueError(f"control has {h.n_modes} modes > solver n_modes {cfg.n_modes}")
    if noise is None and h is None:
        raise ValueError("need a noise realization or a control path (or both)")

    lam = float(speed(eps)) if callable(speed) else float(speed)
    if eps > 0 and lam <= 0:
        raise ValueError(f"speed lambda(eps) must be > 0, got {lam}")
    s = np.sqrt(eps) * lam if eps > 0 else 0.0
    noise_scale = (1.0 / lam) if (noise is not None and eps > 0) else 0.0

    if noise is not None:
        spec = noise.spec
    elif noise_spec is not None:
        spec = noise_spec
    else:
        spec = NoiseSpec(n_modes=min(h.n_modes, cfg.n_modes))
    eng = SolverEngine(params, cfg, g=g, noise_spec=spec)

    dt = eng.dt
    u0_grid = u0_traj.grid_values()
    if s == 0.0:
        p1, c1 = eng.linearization_profiles(u0_grid)
    else:
        base_drift = eng.nonlinear_drift(u0_grid)  # (K+1, J), shared reference drift

    def step(k, z, z_grid):
        if s == 0.0:
            ue_grid = u0_grid[k]
            drift = eng.linearized_drift(
                z_grid, None if p1 is None else p1[k], None if c1 is None else c1[k]
            )
        else:
            ue_grid = u0_grid[k] + s * z_grid
            drift = (eng.nonlinear_drift(ue_grid) - base_drift[k]) / s
        terms = z + dt * drift
        if noise_scale != 0.0:
            terms = terms + noise_scale * eng.forcing_term(k * dt, ue_grid, noise.increments[:, k])
        if h is not None:
            terms = terms + dt * eng.forcing_term(k * dt, ue_grid, h.hdot[:, k])
        return eng.semigroup * terms

    return _drive(eng, np.zeros(cfg.n_modes), step, guard)


def solve_mdp_process(u0_traj, params, g, eps, speed, noise, cfg, guard=None):
    """Integrate the rescaled deviation process Z = (u_eps - u0)/(sqrt(eps) lambda(eps)).

    With the power-law speed, theta = 0 gives lambda == 1 and Z reduces to the
    CLT-scale field (u_eps - u0)/sqrt(eps).
    """
    return solve_controlled(u0_traj, params, g, eps, speed, noise, None, cfg, guard=guard)


def solve_skeleton(u0_traj, params, g, h, cfg, guard=None, noise_spec=None):
    """Integrate the deterministic skeleton equation driven by a control path.

    Z_h(0) = 0 and h -> Z_h is linear: the drift is the linearization at u0
    and the forcing is the control coloring with g evaluated at u0.
    """
    return solve_controlled(
        u0_traj, params, g, 0.0, 1.0, None, h, cfg, guard=guard, noise_spec=noise_spec
    )
