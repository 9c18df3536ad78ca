"""Moderate-deviation machinery: speed functions, the minimum-energy rate
function over the skeleton dynamics, and the Wilson interval of a tail estimate.

The rate function for an endpoint target psi is

    I(psi) = inf { (1/2) int_0^T ||hdot(s)||^2 ds  :  Z_h(T) = psi },

where h -> Z_h is the (linear) skeleton solve.  Discretely Z_h(T) = Phi h for
a linear map Phi from piecewise-constant controls to endpoint coefficients.
Scaling the controls by sqrt(dt) makes the control norm Euclidean, so Phi
becomes a matrix A with one row per endpoint mode, and the infimum is the
minimum-norm solution x* = A^+ psi, I(psi) = (1/2)||x*||^2 = (1/2) psi^T G^+ psi
for the Gramian G = A A^T.  A is read off the skeleton solver's own step: one
sweep from the last step to the first applies it to the unit states and unit
controls, which gives every step's linear map, and multiplies those into A.
The adjoint Phi* is A^T up to the sqrt(dt) scaling, so <Phi h, w> =
<h, Phi* w> holds to roundoff.  A is small (endpoint modes x control entries)
and dense, so the rate function is a truncated SVD of it: directions below a
fixed relative cutoff count as unreachable, and a target with a component
there surfaces as a residual.

The same A carries the CLT limit: its endpoint is A xi for the noise increments
xi = dW / sqrt(dt), so G (``A[:m] @ A[:m].T`` for m modes) is v(T)'s covariance.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .model import noise_coefficient_eval  # noqa: F401  (perfbench/probe.py patches it here by name)
from .noise import ControlPath
from .solvers import NumericalAbortError, Row, SetupError, SolverEngine, _check_time_grid, march

__all__ = [
    "SpeedFunction",
    "EndpointControlMap",
    "rate_function_endpoint",
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

    def scales(self, eps):
        """(s, noise weight) = (sqrt(eps) lambda(eps), 1/lambda(eps)): the scale of
        the deviation process Z = (u_eps - u0)/s and the weight its noise enters at."""
        lam = self(eps)
        return np.sqrt(eps) * lam, 1.0 / lam


class EndpointControlMap:
    """Discrete linear map Phi: control -> skeleton endpoint, and its adjoint.

    The skeleton step is ``deviation_step`` at s = 0,
        z_{k+1} = M_k z_k + B_k hdot_k,   M_k = E (I + dt L_k),   B_k = E dt C_k,
    so Phi hdot = sum_k M_{K-1} ... M_{k+1} B_k hdot_k.  ``forward`` marches
    that step; ``matrix`` reads A off it, and the adjoint for the control
    inner product <h, g> = sum_k dt hdot_k . gdot_k is Phi* w = A^T w / sqrt(dt).
    """

    def __init__(self, u0_traj, params, g, cfg, noise_spec=None):
        _check_time_grid(cfg, trajectory=u0_traj)
        self.eng = SolverEngine(params, cfg, g=g, noise_spec=noise_spec)
        self.n_steps = cfg.n_steps
        self.n_control_modes = self.eng.noise_spec.n_modes
        self.u0 = u0_traj.coeffs

    def forward(self, hdot):
        """Endpoint coefficients Z_h(T) for hdot of shape (J_noise, n_steps)."""
        eng = self.eng
        # the skeleton solver's march and stepper, so endpoints agree bitwise
        step = eng.deviation_step(self.u0, 0.0, control_inc=hdot.T)
        return march(eng, [(np.zeros(eng.cfg.n_modes), step, lambda *_: None)])[0]

    def adjoint(self, w):
        """(Phi* w): shape (J_noise, n_steps) for w of shape (J,), and
        (B, J_noise, n_steps) for a batch of B rows w of shape (B, J)."""
        w = np.asarray(w, dtype=float)
        out = (w @ self.matrix) / np.sqrt(self.eng.dt)
        return out.reshape(w.shape[:-1] + (self.n_control_modes, self.n_steps))

    @functools.cached_property
    def matrix(self):
        """The sqrt(dt)-scaled map A, read-only, of shape (J, J_noise * n_steps):
        A x = Phi(x / sqrt(dt)), so the Euclidean norm of x is the control norm,
        and A's block for step k is M_{K-1} ... M_{k+1} B_k / sqrt(dt).

        One sweep k = K-1 .. 0 steps the J unit states without control, which
        gives the rows of M_k^T, and J_noise zero states under unit controls,
        which gives B_k^T.  The step at s = 0 is linear and never writes into
        its inputs, so every k gets the same states and controls, and the
        controls' grid is built once.  Only the product
        R = M_{K-1} ... M_{k+1} / sqrt(dt) carries from step to step.
        """
        eng = self.eng
        J, jn, K = eng.cfg.n_modes, self.n_control_modes, self.n_steps
        states = np.zeros((J + jn, J))
        states[:J] = np.eye(J)
        units = np.zeros((J + jn, jn))
        units[J:] = np.eye(jn)
        step = eng.deviation_step(
            self.u0, 0.0, control_inc=np.broadcast_to(units, (K,) + units.shape)
        )
        grid, bufs = eng.grid_values(states), eng.scratch(states.shape[:-1])
        row = Row(control_grid=eng.colored_increment_grid(units))  # every k's controls
        a = np.empty((J, jn, K))
        r = np.eye(J) / np.sqrt(eng.dt)
        for k in range(K - 1, -1, -1):
            out = step(k, states, grid, bufs, row)
            a[:, :, k] = r @ out[J:].T
            r = r @ out[:J].T
        a = a.reshape(J, -1)
        a.flags.writeable = False
        return a

    def control_path(self, hdot):
        return ControlPath(dt=self.eng.dt, n_steps=self.n_steps, hdot=hdot)


@np.errstate(over="ignore")  # an overflow surfaces through _finite
def rate_function_endpoint(target, u0_traj, params, g, cfg, tol=1e-8, noise_spec=None):
    """Minimum Cameron-Martin action over controls steering the skeleton to ``target``.

    Takes the SVD of the sqrt(dt)-scaled endpoint map A, keeps the r singular
    values above numpy's pinv cutoff max(shape) * eps * sigma_max, and solves
    x = V_r Sigma_r^-1 U_r^T psi: the minimum-norm control reaching the
    projection of psi on the numerically reachable subspace.  Returns
    ``(document, control)``: that control, and the ``rate.json`` document of
    its action as ``value``, the endpoint residual ||Phi h - psi||_2 (the L^2
    distance, by Parseval) recomputed through the forward map, r as
    ``iterations`` (0 for a zero target) and ``converged``, whether the
    residual is at most tol * ||psi||, so an unreachable target is not
    converged.  A target norm, value or residual that overflows raises
    NumericalAbortError.
    """
    cmap = EndpointControlMap(u0_traj, params, g, cfg, noise_spec=noise_spec)
    psi = cmap.eng.initial_coeffs(target)
    b_norm = _finite(float(np.linalg.norm(psi)), "target norm", cfg)
    hdot, rank = np.zeros((cmap.n_control_modes, cmap.n_steps)), 0
    if b_norm > 0.0:
        a = cmap.matrix
        u, s, vt = np.linalg.svd(a, full_matrices=False)
        rank = int(np.sum(s > max(a.shape) * np.finfo(float).eps * s[0]))
        x = vt[:rank].T @ ((u[:, :rank].T @ psi) / s[:rank])
        hdot = x.reshape(cmap.n_control_modes, cmap.n_steps) / np.sqrt(cmap.eng.dt)
    control = cmap.control_path(hdot)
    value = _finite(control.action(), "rate function value", cfg)
    residual = _finite(float(np.linalg.norm(cmap.forward(hdot) - psi)), "endpoint residual", cfg)
    return {
        "value": value,
        "endpoint_residual": residual,
        "iterations": rank,
        "converged": residual <= tol * b_norm,
    }, control


def _finite(x, quantity, cfg):
    """``x``, unless it is inf or nan: then the endpoint problem at T aborts."""
    if not np.isfinite(x):
        raise NumericalAbortError(cfg.t_end, f"{quantity} ({x})")
    return x


def wilson_interval(successes, n):
    """95% Wilson score interval for a binomial proportion: ``successes`` out
    of ``n``, a count or an array of counts."""
    if n <= 0:
        raise ValueError("n must be positive")
    z = 1.96  # the normal quantile of a two-sided 95% interval
    phat = successes / n
    denom = 1.0 + z**2 / n
    center = (phat + z**2 / (2 * n)) / denom
    half = (z / denom) * np.sqrt(phat * (1 - phat) / n + z**2 / (4 * n**2))
    return np.maximum(0.0, center - half), np.minimum(1.0, center + half)
