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
trapezoid quadrature on the grid.  The reaction splits as
beta c(u) = -gamma beta u + beta r(u), r(u) = p(u) ((1+gamma) - u^delta): the
sine modes are discretely orthonormal on the grid, so the linear part scales
the state's coefficients by 1 - gamma beta dt exactly, and r reuses p(u).  So
a full-equation step at delta = 1 with kappa1 != 0 makes six grid passes
beside its two projections and the state's synthesis (p, r in two, and the
kappa1 u dW field in three), and a deviation step two more for u = u0 + s z.
Nonlinear products have degree 2*delta + 1, so grids must satisfy
n_points >= 2*(2*delta+1)*n_modes before projection (anti-aliasing); the
engine enforces this whenever alpha or beta is nonzero.

The rescaled deviation process Z = (u_eps - u0) / (sqrt(eps) * lam) is
integrated from its own equation, with the nonlinear terms as difference
quotients [N(u0 + s Z) - N(u0)] / s at s = sqrt(eps) * lam, of which only
the remainder N_r = N + gamma beta u takes the grid.  One induction step
shows the discrete identity u_eps = u0 + s * Z then holds exactly in exact
arithmetic, so the coupling check survives to roundoff even for tiny eps.
At s = 0 the quotients are replaced by the analytic linearization
(p'(u0) Z, r'(u0) Z, and -gamma beta Z in modes), which is also how the CLT
limit and the skeleton equation are integrated.

Since N(0) = 0, the full equation is the deviation equation about u0 = 0 at
s = 1, so the five problems share one stepper, ``SolverEngine.deviation_step``,
whose terms and weights are fixed when it is built.  One forward time loop,
``march``, advances it for every path: the single-path solvers here,
``EndpointControlMap.forward``, and the marching ensembles' blocks in
``montecarlo``, whose lanes (one per eps) read the ``Row`` that march builds
once per step, u0's remainder drift N_r(u0_k) among it.  March owns every
grid buffer it writes.  The control map's ``matrix`` and the heat oracle's
``_heat_weights`` sweep the stepper backward, with one
``SolverEngine.scratch`` each.  The discrete
stopping time is ``BlowupGuard``: single paths raise at its first trip,
ensembles censor the paths that trip.
"""

import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import (
    advective_derivative,
    advective_nonlinearity,
    noise_coefficient_eval,  # noqa: F401  (perfbench/probe.py patches it here by name)
    reaction_nonlinearity,  # noqa: F401  (perfbench/probe.py patches it here by name)
    reaction_remainder,
    reaction_remainder_derivative,
)
from .noise import NoiseSpec, _flat_binary, _read_flat_binary
from .spectral import Field, Grid1D, SpectralBasis

__all__ = [
    "SolverConfig",
    "Trajectory",
    "BlowupGuard",
    "BlowupError",
    "NumericalAbortError",
    "SetupError",
    "Row",
    "march",
    "solve_deterministic",
    "solve_spde",
    "solve_clt_limit",
    "solve_controlled",
    "solve_skeleton",
    "trajectory_bytes",
    "load_trajectory",
]

# the largest array a config or file header may size: 2^22 float64 entries (32 MB)
MAX_ARRAY_ENTRIES = 1 << 22
# the largest array a run may build beyond those: 2^24 float64 entries (128 MB),
# a 128-path block of 4096 steps and 32 noise modes
MAX_RUN_ENTRIES = 1 << 24


def _check_entries(name, size, bound=None):
    """The one size check: an array of ``size`` float64 entries above ``bound``
    (MAX_RUN_ENTRIES when None, read at call time) is a SetupError."""
    bound = MAX_RUN_ENTRIES if bound is None else bound
    if size > bound:
        raise SetupError(f"{name} = {size} exceeds {bound} entries")


class BlowupError(RuntimeError):
    """L^p norm crossed the BlowupGuard threshold."""

    def __init__(self, time, norm, threshold):
        super().__init__(f"L^p norm {norm:.6g} exceeded threshold {threshold:.6g} at t={time:.6g}")
        self.time = time
        self.norm = norm
        self.threshold = threshold


class SetupError(ValueError):
    """Inputs that cannot be run together: mismatched time grids or modes,
    an aliasing grid, an array above its size bound, or a runner's
    precondition.  The CLI exits 2 on it."""


class NumericalAbortError(RuntimeError):
    """A non-finite state, or another non-finite quantity, at ``time``."""

    def __init__(self, time, quantity="state"):
        super().__init__(f"non-finite {quantity} at t={time:.6g}")
        self.time = time


@dataclass(frozen=True)
class SolverConfig:
    """Time and mode grid.  The basis (n_points x n_modes) and a trajectory
    (n_steps x n_modes) are each bounded by MAX_ARRAY_ENTRIES."""

    dt: float
    t_end: float
    n_modes: int = 32
    n_points: int = 256

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if self.t_end <= 0:
            raise ValueError(f"t_end must be > 0, got {self.t_end}")
        steps = self.t_end / self.dt
        if not np.isfinite(steps):
            raise ValueError(f"t_end/dt = {self.t_end}/{self.dt} is not a finite step count")
        if abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
            raise ValueError(f"t_end={self.t_end} is not an integer multiple of dt={self.dt}")
        if self.n_modes < 1:
            raise ValueError(f"n_modes must be >= 1, got {self.n_modes}")
        if self.n_points < 4 * self.n_modes:
            raise ValueError(
                f"grid too coarse: n_points={self.n_points} < 4*n_modes={4 * self.n_modes}"
            )
        for name, other in (("n_points", self.n_points), ("n_steps", self.n_steps)):
            _check_entries(f"{name}*n_modes", other * self.n_modes, MAX_ARRAY_ENTRIES)

    @property
    def n_steps(self):
        return int(round(self.t_end / self.dt))


@dataclass(frozen=True)
class BlowupGuard:
    """Discrete stopping rule: first time the L^p norm exceeds ``threshold``
    or is not finite.  Single paths raise at a trip (``check``): a nan norm,
    as a non-finite state gives, is a numerical abort, and any other trip,
    an overflowed norm of a finite state included, a blowup.  Ensembles
    censor the paths that trip (``trips``)."""

    threshold: float = 1e3

    def __post_init__(self):
        if not self.threshold > 0:
            raise ValueError(f"guard threshold must be > 0, got {self.threshold}")

    def trips(self, norm):
        return ~(np.isfinite(norm) & (norm <= self.threshold))

    def check(self, time, norm):
        if self.trips(norm):
            if np.isnan(norm):
                raise NumericalAbortError(time)
            raise BlowupError(time, norm, self.threshold)


@dataclass
class Trajectory:
    """Uniform-in-time spectral trajectory; row k holds coefficients at k*dt."""

    dt: float
    coeffs: np.ndarray
    basis: object
    norm_p: int | None = None
    norms: np.ndarray | None = None

    @property
    def n_steps(self):
        return len(self.coeffs) - 1

    @property
    def n_modes(self):
        return self.coeffs.shape[1]

    def grid_values(self, k=None):
        """Interior grid samples at step k, or all steps when k is None."""
        if k is None:
            return self.coeffs @ self.basis.phi
        return self.coeffs[k] @ self.basis.phi


class Row(NamedTuple):
    """What a march's lanes read alike at step k, None where absent: u0's grid
    row and L^p norm, the unscaled noise grid, the limit's grid and norms, u0's
    remainder drift N_r(u0_k), and the unscaled control grid."""

    u0_grid: np.ndarray | None = None
    u0_norm: float | None = None
    noise_grid: np.ndarray | None = None
    v_grid: np.ndarray | None = None
    v_norm: np.ndarray | None = None
    u0_drift: np.ndarray | None = None
    control_grid: np.ndarray | None = None


_TRAJ_HEADER = struct.Struct("<qqdq")


def trajectory_bytes(traj):
    """Flat binary as (header, payload view): int64 n_points, int64 n_modes,
    float64 dt, int64 n_steps, then the coefficient rows, viewed in place."""
    return _flat_binary(
        _TRAJ_HEADER.pack(traj.basis.grid.n_points, traj.n_modes, traj.dt, traj.n_steps),
        traj.coeffs,
    )


def load_trajectory(path):
    def shape(fields):
        n_points, n_modes, dt, n_steps = fields
        # no payload bytes back n_points: the header must make a valid config
        SolverConfig(dt=dt, t_end=dt * n_steps, n_modes=n_modes, n_points=n_points)
        return n_steps + 1, n_modes

    (n_points, n_modes, dt, n_steps), coeffs = _read_flat_binary(path, _TRAJ_HEADER, shape)
    basis = SpectralBasis(Grid1D(n_points), n_modes)
    return Trajectory(dt=dt, coeffs=coeffs, basis=basis)


class SolverEngine:
    """Precomputed arrays for stepping a fixed (params, config, noise) setup.

    All methods broadcast over leading batch axes: coefficient arrays may be
    (J,) or (B, J), grid arrays (n,) or (B, n).  Shared by the single-path
    solvers here, the ensemble runners, and the endpoint control map.
    """

    def __init__(self, params, cfg, g=None, noise_spec=None):
        self.params = params
        self.cfg = cfg
        self.grid = Grid1D(cfg.n_points)
        self.basis = SpectralBasis(self.grid, cfg.n_modes)
        if (params.alpha > 0 or params.beta > 0) and cfg.n_points < 2 * (
            2 * params.delta + 1
        ) * cfg.n_modes:
            raise SetupError(
                f"aliasing: nonlinear degree {2 * params.delta + 1} needs n_points >= "
                f"{2 * (2 * params.delta + 1) * cfg.n_modes}, got {cfg.n_points}"
            )
        self.dt = cfg.dt
        self.phi = self.basis.phi
        self.dphi = self.basis.dphi
        self.h = self.grid.spacing
        self.semigroup = np.exp(-params.nu * self.basis.eigenvalues * cfg.dt)
        self.g = g
        # the one default noise: every solver mode forced (q_j depends on j alone)
        if noise_spec is None:
            noise_spec = NoiseSpec(n_modes=cfg.n_modes)
        elif noise_spec.n_modes > cfg.n_modes:
            raise SetupError(f"noise has {noise_spec.n_modes} modes > solver n_modes {cfg.n_modes}")
        self.noise_spec = noise_spec
        self.q = noise_spec.q
        self.kappa0_q = None if g is None else g.kappa0 * self.q

    # representation changes ------------------------------------------------

    def grid_values(self, coeffs, out=None):
        return np.matmul(coeffs, self.phi, out=out)

    def project(self, values, weight=1.0):
        """weight <values, phi_j>, the weight taken in the quadrature's one scaling pass."""
        out = values @ self.phi.T
        out *= self.h * weight
        return out

    def project_divergence(self, values, weight=1.0):
        """weight <values, phi_j'>: the divergence-form advective pairing."""
        out = values @ self.dphi.T
        out *= self.h * weight
        return out

    def initial_coeffs(self, u0):
        """One state's (n_modes,) sine coefficients: a grid ``Field`` projected
        onto the mode band, or a copy of a coefficient array of that shape."""
        if isinstance(u0, Field):
            if len(u0.data) != (n := self.cfg.n_points):
                raise ValueError(f"grid length {len(u0.data)} != n_points {n}")
            return self.project(u0.data)
        u0 = np.asarray(u0, dtype=float)
        if u0.shape != (n := self.cfg.n_modes,):
            raise ValueError(f"coefficients must have shape ({n},), got {u0.shape}")
        return u0.copy()

    # the explicit terms -----------------------------------------------------
    #
    # Every explicit term is taken at the left endpoint, so r (or the
    # linearization's r'(u0) z) and the kappa1 u dW product of a step are one
    # grid field and take one projection, and p(u) takes one divergence
    # projection.  Weights scale mode coefficients, a pass over (B, J) where
    # the grid is (B, n).

    def _remainder_terms(self, u_grid, wa, bufs=(None, None)):
        """wa <p(u), phi'> as mode coefficients and r(u) on the grid, each None
        where its coefficient is zero.  The power p(u) is taken once for both,
        into bufs[0], and is dead when this returns; r is written into bufs[1]."""
        p = self.params
        adv = react = None
        if p.alpha > 0 or p.beta > 0:
            power = advective_nonlinearity(u_grid, p.delta, bufs[0])
            if p.alpha > 0:
                adv = self.project_divergence(power, wa)
            if p.beta > 0:
                react = reaction_remainder(u_grid, p.gamma, p.delta, power, bufs[1])
        return adv, react

    def linearized_drift(self, z_grid, u0_grid, wa, bufs):
        """``_remainder_terms`` of the linearization at u0: wa <p1 z, phi'> and
        c1 z (into bufs[1]), for the profiles (p1, c1) of ``linearization_profiles``."""
        p1, c1 = self.linearization_profiles(u0_grid)
        adv = None
        if p1 is not None:
            adv = self.project_divergence(np.multiply(p1, z_grid, out=bufs[0]), wa)
        return adv, None if c1 is None else np.multiply(c1, z_grid, out=bufs[1])

    def _modes(self, shape, adv, react, wr):
        """adv + wr <react, phi>, each part where it is not None, zeros of
        ``shape`` when neither is; adv is written in place."""
        if react is not None:
            modes = self.project(react, wr)
            adv = modes if adv is None else np.add(adv, modes, out=adv)
        return np.zeros(shape) if adv is None else adv

    def remainder_drift(self, u_grid):
        """N(u) less its linear part -gamma beta u, as mode coefficients:
        beta <r(u), phi> + (alpha/(delta+1)) <p(u), phi'>."""
        p = self.params
        shape = u_grid.shape[:-1] + (self.cfg.n_modes,)
        return self._modes(shape, *self._remainder_terms(u_grid, p.alpha / (p.delta + 1)), p.beta)

    def nonlinear_drift(self, u_grid):
        """N(u) = beta c(u) + (alpha/(delta+1)) <p(u), phi'> as mode coefficients."""
        p = self.params
        out = self.remainder_drift(u_grid)
        out -= self.project(u_grid, p.gamma * p.beta)
        return out

    def linearization_profiles(self, u0_grid):
        """(alpha/(delta+1) p'(u0), beta r'(u0)): the grid profiles of the
        linearization at u0 of the remainder drift (the linear part is
        -gamma beta z), None where the coefficient is zero."""
        p = self.params
        p1 = None
        if p.alpha > 0:
            p1 = (p.alpha / (p.delta + 1)) * advective_derivative(u0_grid, p.delta)
        c1 = p.beta * reaction_remainder_derivative(u0_grid, p.gamma, p.delta) if p.beta > 0 else None
        return p1, c1

    # noise and control ------------------------------------------------------
    #
    # Of g = kappa0 + kappa1 u the kappa0 part projects to kappa0 q_j dB_j
    # exactly, zero beyond J_noise, so only kappa1 != 0 takes the grid product.

    def colored_increment_grid(self, mode_increments, out=None):
        """Sum_j q_j phi_j(x) dB_j on the grid; mode_increments is (..., J_noise)."""
        jn = mode_increments.shape[-1]
        return np.matmul(self.q[:jn] * mode_increments, self.phi[:jn], out=out)

    def _add_kappa0(self, out, c, x):
        """out[..., :J_noise] += c kappa0 q dB for the mode increments x."""
        jn = x.shape[-1]
        k0 = self.kappa0_q[:jn] * x
        k0 *= c
        out[..., :jn] += k0

    def forcing_term(self, t, u_grid, mode_increments):
        """Project g(t, ., u) * sum_j q_j phi_j dB_j.  Serves noise and control;
        ``u_grid`` is read only when kappa1 != 0."""
        shape = mode_increments.shape[:-1] + (self.cfg.n_modes,)
        react = self.colored_increment_grid(mode_increments) * u_grid if self.g.kappa1 else None
        out = self._modes(shape, None, react, self.g.kappa1)
        self._add_kappa0(out, 1.0, mode_increments)
        return out

    # the stepper ------------------------------------------------------------
    #
    # A step is step(k, state, state_grid, bufs, row) -> state at step k + 1,
    # a new array.  It writes only into ``bufs``, a ``scratch`` for the
    # state's batch shape, whose contents are dead once it returns: bufs[0]
    # holds p(u) and then the forcing field, bufs[1] the reaction field, and
    # bufs[2], at s > 0 only, u = u0 + s z.  Increment buffers are step-major:
    # inc[k] holds the (..., J_noise) increments of step k, so a single path
    # passes ``noise.increments.T``.  Of the optional ``Row`` the step reads
    # u0's grid row and remainder drift and the unscaled noise and control
    # grids, each built in the step when None: an ensemble block that steps
    # several scales on one u0 and one draw builds them once per k.

    def scratch(self, batch=()):
        """Three (*batch, n_points) grid buffers for a step's work."""
        return np.empty((3, *batch, self.cfg.n_points))

    def deviation_step(self, u0=None, s=1.0, noise_inc=None, noise_scale=1.0, control_inc=None):
        """The deviation equation at scale s around u0, with u = u0 + s z:

            E ((1 - gamma beta dt) z + dt D_k(z) + noise_scale F(u, dB_k) + dt F(u, hdot_k)),

        D_k(z) = [N_r(u) - N_r(u0)] / s for the remainder drift N_r
        (``remainder_drift``), or its linearization at u0 when s = 0 (then
        u = u0: the CLT limit and the skeleton).  ``u0`` holds the reference
        path's (K + 1, J) coefficients; no ``u0`` means u0 = 0 at s = 1, the
        full equation (N(0) = 0): u = z, read only for a drift or a kappa1 != 0
        forcing, so the pure heat case may pass None.  Step k builds what it
        needs of u0 from row k alone: its grid, then the N_r(u0) that the
        quotient subtracts, or at s = 0 ``linearization_profiles``.  Which
        terms exist, and their weights, are fixed here; the step's
        ``reads_u0_drift`` says whether a march should build N_r(u0_k).
        """
        p, dt = self.params, self.dt
        full, linear = u0 is None, s == 0.0
        drift = p.alpha > 0 or p.beta > 0
        quotient = drift and not (full or linear)  # subtracts N_r(u0) dt / s
        # the fields' weights; at s = 0 the profiles carry alpha/(delta+1) and beta
        wa, wr = (dt, dt) if linear else (p.alpha * dt / ((p.delta + 1) * s), p.beta * dt / s)
        wr = wr if p.beta > 0 else 1.0  # the weight the kappa1 field is projected at
        decay = 1.0 - p.gamma * p.beta * dt if p.beta > 0 else None
        # (weight, step-major increments, the index of their unscaled grid in
        # the Row's (noise_grid, control_grid))
        drives = [
            (c, inc, i)
            for i, (c, inc) in enumerate(((noise_scale, noise_inc), (dt, control_inc)))
            if inc is not None
        ]
        kappa1 = self.g.kappa1 if drives else 0.0
        # kappa1 u dW joins the reaction field, scaled by 1/wr to share its projection
        forcings = [(c * (kappa1 / wr), inc, i) for c, inc, i in drives] if kappa1 else []
        grid_terms = drift or bool(forcings)

        def step(k, z, z_grid, bufs, row=Row()):
            adv = react = ref = None
            if grid_terms:
                u = z_grid if full else self.grid_values(u0[k]) if row.u0_grid is None else row.u0_grid
                if linear:
                    adv, react = self.linearized_drift(z_grid, u, wa, bufs)
                else:
                    if quotient:
                        ref = self.remainder_drift(u) if row.u0_drift is None else row.u0_drift
                    if not full:
                        u = np.add(u, np.multiply(z_grid, s, out=bufs[2]), out=bufs[2])
                    adv, react = self._remainder_terms(u, wa, bufs)
                if forcings:  # sum scale W into bufs[0], where p(u) is dead
                    w, grids = None, (row.noise_grid, row.control_grid)
                    for scale, inc, i in forcings:
                        wg = grids[i]
                        if wg is None:
                            wg = self.colored_increment_grid(inc[k], out=bufs[0] if w is None else None)
                        if w is None:
                            w = np.multiply(wg, scale, out=bufs[0])
                        else:
                            w += scale * wg
                    w *= u
                    react = w if react is None else np.add(react, w, out=react)
            out = self._modes(z.shape, adv, react, wr)
            for c, inc, _ in drives:
                self._add_kappa0(out, c, inc[k])
            if ref is not None:
                out -= ref * (dt / s)
            out += z if decay is None else decay * z
            out *= self.semigroup
            return out

        step.reads_u0_drift = quotient
        return step


def _check_time_grid(cfg, trajectory=None, noise=None, control=None):
    """Reference trajectory, noise and control must share the config's time
    grid; the trajectory also its modes."""
    for name, path in (("trajectory", trajectory), ("noise", noise), ("control", control)):
        if path is not None and (
            path.n_steps != cfg.n_steps or abs(path.dt - cfg.dt) > 1e-12 * cfg.dt
        ):
            raise SetupError(
                f"{name} grid ({path.n_steps} steps of {path.dt}) does not match "
                f"config ({cfg.n_steps} steps of {cfg.dt})"
            )
    if trajectory is not None and trajectory.n_modes != cfg.n_modes:
        raise SetupError(f"trajectory has {trajectory.n_modes} modes, config {cfg.n_modes}")


def march(eng, lanes, u0=None, inc=None, limit=None):
    """The one forward time loop.  A lane is (state, step, observe).  At each
    k = 0..K the march builds once the ``Row`` its lanes read: u0's grid row
    from ``u0``'s (K + 1, J) coefficients, the noise grid of the step-major
    ``inc[k]`` when kappa1 != 0, and the grid of ``limit``, a (state, step)
    never observed.  Each lane then synthesises its grid into the one buffer
    all lanes share, calls ``observe(k, state, grid, work, row)``, which may
    raise or zero rows of the state and grid in place, and steps.  Returns the
    lanes' states at step K.  The march owns every grid buffer it writes, with
    one ``scratch`` that every step shares, whose first buffer is ``work``."""
    K, p = eng.cfg.n_steps, eng.params.p_norm
    states = [x for x, _, _ in lanes]
    drift = u0 is not None and any(step.reads_u0_drift for _, step, _ in lanes)
    v, v_step = (None, None) if limit is None else limit
    bufs = eng.scratch(states[0].shape[:-1])
    grid = noise = v_grid = v_norm = None  # allocated at k = 0, then rewritten
    for k in range(K + 1):
        u0_grid = None if u0 is None else eng.grid_values(u0[k])
        u0_norm = None if u0 is None else eng.grid.lp_norm(u0_grid, p)
        if v is not None:
            v_grid = eng.grid_values(v, out=v_grid)
            v_norm = eng.grid.lp_norm(v_grid, p, bufs[0])
        if k < K and inc is not None and eng.g.kappa1 != 0.0:
            noise = eng.colored_increment_grid(inc[k], out=noise)
        u0_drift = eng.remainder_drift(u0_grid) if drift and k < K else None
        row = Row(u0_grid, u0_norm, noise, v_grid, v_norm, u0_drift)
        for i, (_, step, observe) in enumerate(lanes):
            grid = eng.grid_values(states[i], out=grid)
            observe(k, states[i], grid, bufs[0], row)
            if k < K:
                states[i] = step(k, states[i], grid, bufs, row)
        if v is not None and k < K:
            v = v_step(k, v, v_grid, bufs, row)
    return states


@np.errstate(over="ignore", invalid="ignore")  # a non-finite value trips the guard
def _drive(eng, a0, step_fn, guard):
    """March a single path, recording coefficients and L^p norms per step;
    the guard (threshold +inf when None) raises at the first trip."""
    guard = BlowupGuard(np.inf) if guard is None else guard
    p = eng.params.p_norm
    out = np.empty((eng.cfg.n_steps + 1, eng.cfg.n_modes))
    norms = np.empty(eng.cfg.n_steps + 1)

    def observe(k, a, grid, work, row):
        norms[k] = eng.grid.lp_norm(grid, p, work)
        guard.check(k * eng.dt, norms[k])
        out[k] = a

    march(eng, [(a0, step_fn, observe)])
    return Trajectory(dt=eng.dt, coeffs=out, basis=eng.basis, norm_p=p, norms=norms)


def solve_deterministic(u0, params, cfg, guard=None):
    """Integrate the deterministic equation from initial data ``u0``.

    Grid initial data is Galerkin-projected onto the mode band first; the
    scheme then evolves that projection.
    """
    eng = SolverEngine(params, cfg)
    return _drive(eng, eng.initial_coeffs(u0), eng.deviation_step(), guard)


def solve_spde(u0, params, g, eps, noise, cfg, guard=None):
    """Integrate the stochastic equation at noise intensity sqrt(eps)."""
    if not 0 < eps <= 1:
        raise SetupError(f"eps must be in (0, 1], got {eps}")
    _check_time_grid(cfg, noise=noise)
    eng = SolverEngine(params, cfg, g=g, noise_spec=noise.spec)
    step = eng.deviation_step(noise_inc=noise.increments.T, noise_scale=np.sqrt(eps))
    return _drive(eng, eng.initial_coeffs(u0), step, guard)


def solve_clt_limit(u0_traj, params, g, noise, cfg, guard=None):
    """Integrate the CLT limit field: linearization at u0 plus additive noise at u0.

    v(0) = 0; v is linear in the noise realization.
    """
    _check_time_grid(cfg, trajectory=u0_traj, noise=noise)
    eng = SolverEngine(params, cfg, g=g, noise_spec=noise.spec)
    step = eng.deviation_step(u0_traj.coeffs, 0.0, noise_inc=noise.increments.T)
    return _drive(eng, np.zeros(cfg.n_modes), step, guard)


def solve_controlled(u0_traj, params, g, eps, speed, noise, h, cfg, guard=None, noise_spec=None):
    """Integrate the controlled deviation process Z at scale s = sqrt(eps)*lambda(eps).

    Nonlinear terms are difference quotients [N(u0 + s Z) - N(u0)] / s; noise
    enters at weight 1/lambda(eps) and the control forcing at weight dt, both
    with coefficients evaluated at u0 + s Z.  ``speed`` is a ``SpeedFunction``,
    which gives (s, 1/lambda(eps)).  eps = 0 freezes coefficients at u0
    (analytic linearization), which is exactly the skeleton dynamics, and
    reads no speed.  With h = None, Z is the MDP process
    (u_eps - u0)/(sqrt(eps) lambda(eps)); theta = 0 gives the CLT-scale field.

    The control coloring uses q from the noise realization's spec when one is
    given, else from ``noise_spec``, else the engine's default over the
    solver's modes; the control may not have more modes than that spec.
    """
    if not 0 <= eps <= 1:
        raise SetupError(f"eps must be in [0, 1], got {eps}")
    _check_time_grid(cfg, trajectory=u0_traj, noise=noise, control=h)
    if noise is None and h is None:
        raise SetupError("need a noise realization or a control path (or both)")

    # eps = 0 reads neither s nor lambda(eps)
    s, noise_scale = speed.scales(eps) if eps > 0 else (0.0, 0.0)
    eng = SolverEngine(params, cfg, g=g, noise_spec=noise_spec if noise is None else noise.spec)
    if h is not None and h.n_modes > eng.noise_spec.n_modes:
        raise SetupError(f"control has {h.n_modes} modes > noise n_modes {eng.noise_spec.n_modes}")

    step = eng.deviation_step(
        u0_traj.coeffs,
        s,
        # eps = 0 drops the noise: only the control drives the skeleton
        noise_inc=noise.increments.T if noise is not None and eps > 0 else None,
        noise_scale=noise_scale,
        control_inc=None if h is None else h.hdot.T,
    )
    return _drive(eng, np.zeros(cfg.n_modes), step, guard)


def solve_skeleton(u0_traj, params, g, h, cfg, guard=None, noise_spec=None):
    """Integrate the deterministic skeleton equation driven by a control path.

    Z_h(0) = 0 and h -> Z_h is linear: the drift is the linearization at u0
    and the forcing is the control coloring with g evaluated at u0.
    """
    return solve_controlled(
        u0_traj, params, g, 0.0, None, None, h, cfg, guard=guard, noise_spec=noise_spec
    )
