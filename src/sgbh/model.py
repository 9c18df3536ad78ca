"""Model parameters and the polynomial nonlinearities of the generalized
Burgers-Huxley equation

    du = [nu u_xx - alpha u^delta u_x + beta u (1 - u^delta)(u^delta - gamma)] dt
         + sqrt(eps) g(t, x, u) dW,

with the advective part handled through p(u) = u^(delta+1) (so that
u^delta u_x = p(u)_x / (delta+1)) and the reaction c(u) = u(1-u^delta)(u^delta-gamma).
The reaction splits as c(u) = -gamma u + r(u), r(u) = p(u) ((1+gamma) - u^delta):
a linear part, diagonal in any basis, and a remainder that reuses p(u).
The noise coefficient g is restricted to the affine-in-r family
g(t,x,r) = kappa0 + kappa1 r, which carries explicit linear-growth and
Lipschitz bounds K = |kappa0|+|kappa1|, L = |kappa1|.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ModelParams",
    "NoiseCoefficient",
    "advective_nonlinearity",
    "advective_derivative",
    "reaction_nonlinearity",
    "reaction_derivative",
    "reaction_remainder",
    "reaction_remainder_derivative",
    "reaction_second_derivative",
    "noise_coefficient_eval",
]


@dataclass(frozen=True)
class ModelParams:
    nu: float
    alpha: float
    beta: float
    gamma: float
    delta: int
    p_norm: int = 8

    def __post_init__(self):
        if self.nu <= 0:
            raise ValueError(f"nu must be > 0, got {self.nu}")
        if self.alpha < 0 or self.beta < 0:
            raise ValueError(f"alpha, beta must be >= 0, got {self.alpha}, {self.beta}")
        if not 0 < self.gamma < 1:
            raise ValueError(f"gamma must be in (0,1), got {self.gamma}")
        if not (isinstance(self.delta, (int, np.integer)) and self.delta >= 1):
            raise ValueError(f"delta must be an integer >= 1, got {self.delta!r}")
        if not (
            isinstance(self.p_norm, (int, np.integer))
            and self.p_norm >= 2
            and self.p_norm % 2 == 0
        ):
            raise ValueError(f"p_norm must be a positive even integer, got {self.p_norm!r}")

    def validate_for_clt(self):
        """The CLT experiment needs p_norm > max(6, 2*delta+1)."""
        bound = max(6, 2 * self.delta + 1)
        if self.p_norm <= bound:
            raise ValueError(
                f"p_norm={self.p_norm} must exceed max(6, 2*delta+1)={bound} "
                "for the CLT experiment"
            )
        return self


def _power(u, n, out=None):
    """u^n into ``out`` when given, squaring as ``u ** 2`` does: numpy's power loop is slower."""
    return np.square(u, out=out) if n == 2 else np.power(u, n, out=out)


def advective_nonlinearity(u, delta, out=None):
    """p(u) = u^(delta+1), pointwise, written into ``out`` when given."""
    return _power(u, delta + 1, out)


def advective_derivative(u0, delta):
    """p'(u0) = (delta+1) u0^delta."""
    return (delta + 1) * np.asarray(u0) ** delta


def reaction_nonlinearity(u, gamma, delta, out=None, work=None):
    """c(u) = u (1 - u^delta)(u^delta - gamma) into ``out``, u^delta - gamma into ``work``
    (each new when None), in four passes at delta = 1 (five above); ``u`` is not written."""
    u = np.asarray(u, dtype=float)
    ud = _power(u, delta, work) if delta > 1 else u
    out = np.subtract(1.0, ud, out=out)
    out *= u
    out *= np.subtract(ud, gamma, out=work)  # in place of u^delta when delta > 1
    return out


def reaction_derivative(u0, gamma, delta):
    """c'(u0) = -gamma + (1+gamma)(1+delta) u0^delta - (2 delta + 1) u0^(2 delta)."""
    u0 = np.asarray(u0)
    ud = u0**delta
    return -gamma + (1.0 + gamma) * (1 + delta) * ud - (2 * delta + 1) * ud**2


def reaction_remainder(u, gamma, delta, power, out=None):
    """r(u) = u^(delta+1) ((1+gamma) - u^delta) = c(u) + gamma u, from ``power`` =
    u^(delta+1), into ``out`` (new when None), in two passes at delta = 1 (three
    above); neither ``u`` nor ``power`` is written."""
    ud = u if delta == 1 else _power(u, delta, out)
    out = np.subtract(1.0 + gamma, ud, out=out)
    out *= power
    return out


def reaction_remainder_derivative(u0, gamma, delta):
    """r'(u0) = (1+gamma)(1+delta) u0^delta - (2 delta + 1) u0^(2 delta) = c'(u0) + gamma."""
    ud = np.asarray(u0) ** delta
    return (1.0 + gamma) * (1 + delta) * ud - (2 * delta + 1) * ud**2


def reaction_second_derivative(u0, gamma, delta):
    """c''(u0) = (1+gamma) delta (1+delta) u0^(delta-1) - 2 delta (2 delta+1) u0^(2 delta-1)."""
    u0 = np.asarray(u0)
    return (1.0 + gamma) * delta * (1 + delta) * u0 ** (delta - 1) - 2 * delta * (
        2 * delta + 1
    ) * u0 ** (2 * delta - 1)


@dataclass(frozen=True)
class NoiseCoefficient:
    """Affine noise coefficient g(t,x,r) = kappa0 + kappa1*r.

    kind "constant" forces kappa1 = 0.  K = |kappa0| + |kappa1| and L = |kappa1|
    are the linear-growth and Lipschitz constants: |g| <= K(1+|r|),
    |g(.,r)-g(.,s)| <= L|r-s|.
    """

    kind: str
    kappa0: float
    kappa1: float = 0.0

    def __post_init__(self):
        if self.kind not in ("constant", "affine"):
            raise ValueError(f"kind must be 'constant' or 'affine', got {self.kind!r}")
        if self.kind == "constant" and self.kappa1 != 0.0:
            raise ValueError("constant noise coefficient must have kappa1 = 0")

    def __call__(self, t, x, r):
        return noise_coefficient_eval(self, t, x, r)


def noise_coefficient_eval(g, t, x, r):
    """Evaluate g(t, x, r); t and x are accepted for interface uniformity."""
    # kappa1 == 0 for the constant kind, so one expression covers both
    return g.kappa0 + g.kappa1 * np.asarray(r, dtype=float)
