"""Sine spectral basis, Dirichlet heat kernel, and kernel-estimate validation on (0,1).

The Dirichlet Laplacian on (0,1) has eigenpairs lambda_j = (j*pi)**2,
phi_j(x) = sqrt(2)*sin(j*pi*x), j >= 1.  Everything in this package lives in
that basis: a state is an array of sine coefficients, a ``Field`` holds the
samples of a function on the uniform interior grid, the heat semigroup is a
diagonal multiplier on coefficients, and the heat kernel is available both as
an eigen sum and as the method-of-images sum

    G(t,x,y) = (4*pi*t)**(-1/2) * sum_m [ exp(-(y-x-2m)^2/(4t))
                                        - exp(-(y+x-2m)^2/(4t)) ].

Quadrature is composite trapezoid on the uniform grid; since every field
vanishes at the boundary this is just spacing * sum(interior values), and on
the interior grid x_i = i/(n+1) the sine modes are exactly discretely
orthonormal, so projecting the grid samples of a band-limited field
recovers its coefficients exactly.
"""

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Grid1D",
    "SpectralBasis",
    "Field",
    "IMAGES_TRUNCATION",
    "apply_semigroup",
    "heat_kernel",
    "heat_kernel_dy",
    "validate_kernel_estimates",
]


@functools.cache
def _squarings(m):
    """``even_lp_integral``'s plan for p = 2m >= 4: the bits of floor(m/2) after
    its leading one, and whether x^2 must be copied, since squaring in place
    overwrites it and an odd m or a set bit reads it again."""
    bits = tuple(b == "1" for b in bin(m // 2)[3:])
    return bits, bool(bits) and (m % 2 == 1 or any(bits))


@dataclass(frozen=True)
class Grid1D:
    """Uniform interior grid on (0,1): nodes i/(n_points+1), i = 1..n_points."""

    n_points: int
    spacing: float = field(init=False)
    nodes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.n_points < 1:
            raise ValueError(f"n_points must be >= 1, got {self.n_points}")
        h = 1.0 / (self.n_points + 1)
        object.__setattr__(self, "spacing", h)
        nodes = h * np.arange(1, self.n_points + 1)
        nodes.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)

    def _samples(self, values, dtype=None):
        values = np.asarray(values, dtype=dtype)
        if values.shape[-1] != self.n_points:
            raise ValueError(
                f"expected {self.n_points} interior samples, got {values.shape[-1]}"
            )
        return values

    def trapezoid(self, values):
        """Trapezoid quadrature of interior samples; boundary values are zero."""
        return self.spacing * self._samples(values).sum(axis=-1)

    def lp_integral(self, values, p, out=None):
        """Trapezoid quadrature of |values|^p over the last axis, p >= 1; an even
        p takes ``even_lp_integral``.  ``out`` (may be ``values``) takes x^2."""
        if p < 1:
            raise ValueError(f"p must be >= 1, got {p}")
        if p % 2:
            return self.trapezoid(np.abs(values) ** p)
        return self.even_lp_integral(self._samples(values, float), int(p), out)

    def even_lp_integral(self, values, p, out=None):
        """``lp_integral`` for an even int p of float samples on this grid,
        unchecked.  A p = 2m >= 4 takes no abs and no libm pow: it squares up to
        (x^2)^floor(m/2) and ends in the row-wise dot product (x^2)^ceil(m/2) .
        (x^2)^floor(m/2), so x^p is never formed.  ``out`` (may be ``values``) takes x^2."""
        x2 = np.square(values, out=out)
        m = p // 2
        if m == 1:
            return self.spacing * x2.sum(axis=-1)
        bits, copy = _squarings(m)
        low = x2.copy() if copy else x2
        for bit in bits:
            np.square(low, out=low)
            if bit:
                low *= x2
        high = low * x2 if m % 2 else low
        return self.spacing * np.vecdot(high, low)

    def lp_norm(self, values, p, out=None):
        """L^p norm over the last axis by trapezoid quadrature, p >= 1."""
        return self.lp_integral(values, p, out) ** (1.0 / p)


@dataclass(frozen=True)
class SpectralBasis:
    """First ``n_modes`` Dirichlet sine modes sampled on a grid; requires
    grid.n_points >= 4*n_modes.

    Attributes
    ----------
    eigenvalues : (J,) array, (j*pi)**2 for j = 1..J
    phi : (J, n) array, phi_j at the grid nodes
    dphi : (J, n) array, phi_j' at the grid nodes
    """

    grid: Grid1D
    n_modes: int
    eigenvalues: np.ndarray = field(init=False, repr=False)
    phi: np.ndarray = field(init=False, repr=False)
    dphi: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.n_modes < 1:
            raise ValueError(f"n_modes must be >= 1, got {self.n_modes}")
        if self.grid.n_points < 4 * self.n_modes:
            raise ValueError(
                f"grid too coarse: n_points={self.grid.n_points} < "
                f"4*n_modes={4 * self.n_modes}"
            )
        j = np.arange(1, self.n_modes + 1)
        jpix = np.pi * np.outer(j, self.grid.nodes)
        for name, arr in (
            ("eigenvalues", (j * np.pi) ** 2),
            ("phi", np.sqrt(2.0) * np.sin(jpix)),
            ("dphi", np.sqrt(2.0) * (j[:, None] * np.pi) * np.cos(jpix)),
        ):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class Field:
    """Interior grid samples of a function on (0,1) with zero boundary values."""

    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        if data.ndim != 1:
            raise ValueError(f"field data must be 1-d, got shape {data.shape}")
        object.__setattr__(self, "data", _frozen(data))


def _frozen(a):
    """The one frozen-array rule: ``a`` as is if it is a read-only array that
    owns its memory, so frozen already (``sample_noise`` and the binary
    loaders hand theirs over so), else a read-only copy."""
    if a.flags.writeable or not a.flags.owndata:
        a = a.copy()
        a.flags.writeable = False
    return a


def apply_semigroup(coeffs, nu_t, basis):
    """Apply the Dirichlet heat semigroup: coefficient j -> e^{-lambda_j*nu_t} coeff_j.

    ``nu_t`` is the diffusivity-time product; nu_t = 0 is the identity.
    """
    if nu_t < 0:
        raise ValueError(f"nu_t must be >= 0, got {nu_t}")
    return np.exp(-basis.eigenvalues * nu_t) * coeffs


IMAGES_TRUNCATION = 10  # image pairs |m| <= 10 in every image sum


def _image_sum(x, f):
    """sum_m [f(y - x - 2m) - f(y + x - 2m)] over node pairs (row x, column y),
    added one image at a time in the order m = -IMAGES_TRUNCATION..IMAGES_TRUNCATION."""
    total = None
    for m in 2.0 * np.arange(-IMAGES_TRUNCATION, IMAGES_TRUNCATION + 1):
        v = f(x[None, :] - x[:, None] - m)
        v -= f(x[None, :] + x[:, None] - m)
        if total is None:
            total = v
        else:
            total += v
    return total


def heat_kernel(t, grid, method="images"):
    """Tabulate the Dirichlet heat kernel G(t, x_i, y_k) as an (n, n) array.

    Parameters
    ----------
    t : float, > 0
    method : "images" (method of images over IMAGES_TRUNCATION image pairs,
        the default) or "eigen" (the first min(200, 4*n_points) sine modes)

    A warning is emitted when the truncation cannot exhaust the tail of the
    sum at this t to ~1e-12 absolute.
    """
    if t <= 0:
        raise ValueError(f"t must be > 0, got {t}")
    x = grid.nodes
    if method == "images":
        truncation = IMAGES_TRUNCATION
        # nearest dropped image sits at distance >= 2*truncation + 1
        tail = (4 * np.pi * t) ** -0.5 * 2 * np.exp(-((2 * truncation + 1) ** 2) / (4 * t))
        if tail > 1e-12:
            warnings.warn(
                f"images truncation {truncation} leaves tail ~{tail:.2e} at t={t}",
                RuntimeWarning,
            )
        vals = _image_sum(x, lambda z: np.exp(-(z**2) / (4 * t)))
        vals *= (4 * np.pi * t) ** -0.5
    elif method == "eigen":
        truncation = min(200, 4 * grid.n_points)
        lam_next = ((truncation + 1) * np.pi) ** 2
        tail = 2.0 * np.exp(-lam_next * t)
        if tail > 1e-12:
            warnings.warn(
                f"eigen truncation {truncation} leaves tail ~{tail:.2e} at t={t}",
                RuntimeWarning,
            )
        j = np.arange(1, truncation + 1)
        s = np.sin(np.pi * np.outer(j, x))  # (J, n)
        vals = (2.0 * s.T * np.exp(-((j * np.pi) ** 2) * t)) @ s
    else:
        raise ValueError(f"method must be 'images' or 'eigen', got {method!r}")
    return vals


def heat_kernel_dy(t, grid):
    """dG/dy on grid node pairs by analytic differentiation of the image sum."""
    if t <= 0:
        raise ValueError(f"t must be > 0, got {t}")

    def f(z):
        return -(z / (2 * t)) * np.exp(-(z**2) / (4 * t))

    return (4 * np.pi * t) ** -0.5 * _image_sum(grid.nodes, f)


_A_CANDIDATES = np.concatenate([np.arange(2.0, 8.1, 0.5), np.arange(9.0, 17.0, 1.0)])


def _fit_gaussian_envelope(t_samples, grid, kernel_fn, t_power):
    """Smallest (C, a) with |K(t,x,y)| <= C t^{-t_power} exp(-|x-y|^2/(a t)).

    Scans ``_A_CANDIDATES``, takes C(a) = sup of the ratio over all samples
    (computed in log space so that undersized ``a`` overflows to +inf rather
    than crashing), and returns the pair minimizing C.  One sample time's
    kernel is held at a time, with a running sup per candidate.
    """
    x = grid.nodes
    r2 = (x[:, None] - x[None, :]) ** 2
    log_c = [-np.inf] * len(_A_CANDIDATES)
    for t in t_samples:
        with np.errstate(divide="ignore"):
            log_abs = np.log(np.abs(kernel_fn(t))) + t_power * np.log(t)
        for i, a in enumerate(_A_CANDIDATES):
            log_c[i] = max(log_c[i], (log_abs + r2 / (a * t)).max())
    best = (np.inf, np.nan)
    for lc, a in zip(log_c, _A_CANDIDATES):
        c = np.exp(lc)
        if np.isfinite(c) and c < best[0]:
            best = (c, a)
    return best


def _envelope_violation(t_samples, grid, kernel_fn, t_power, c, a):
    """max over held-out midpoint times of |K| - C t^{-t_power} e^{-r^2/(at)}."""
    if not np.isfinite(c):
        return np.inf
    ts = np.sort(np.asarray(t_samples, dtype=float))
    mids = 0.5 * (ts[:-1] + ts[1:]) if len(ts) > 1 else ts
    x = grid.nodes
    r2 = (x[:, None] - x[None, :]) ** 2
    worst = -np.inf
    for t in mids:
        lhs = np.abs(kernel_fn(t))
        rhs = c * t ** (-t_power) * np.exp(-r2 / (a * t))
        worst = max(worst, (lhs - rhs).max())
    return worst


def gaussian_lp_norm(s, p, a):
    """L^p([-1,1]) norm of z -> exp(-z^2/(a*s)) by trapezoid quadrature on 4001 nodes."""
    z = np.linspace(-1.0, 1.0, 4001)
    vals = np.exp(-p * z**2 / (a * s))
    return np.trapezoid(vals, z) ** (1.0 / p)


def gaussian_lp_norm_closed_form(s, p, a):
    """Same norm in closed form for scalar s: (sqrt(pi*a*s/p) * erf(sqrt(p/(a*s))))^(1/p)."""
    return (math.sqrt(math.pi * a * s / p) * math.erf(math.sqrt(p / (a * s)))) ** (1.0 / p)


def validate_kernel_estimates(t_samples, grid):
    """Fit the Gaussian-envelope kernel estimates over a time sample set.

    Three estimates are fitted and reported:

    kernel_sup       |G(t,x,y)|   <= C t^{-1/2} exp(-|x-y|^2/(a t))
    kernel_gradient  |dG/dy|      <= C t^{-1}   exp(-|x-y|^2/(a t))
    gaussian_lp      ||exp(-|.|^2/(a s))||_{L^p} <= C s^{1/(2p)}  (a = 1, p = 2)

    For the first two, (C, a) is scanned over a candidate list and the pair
    with the smallest C wins; ``max_violation`` re-checks the fitted envelope
    on interleaved midpoint times (<= 0 means the envelope held there too).
    The pass flag records that a finite fit exists over the sample set.
    Returns one ``kernel_report.json`` entry per estimate, in the order above.
    """
    t_samples = [float(t) for t in t_samples]
    if not t_samples or any(t <= 0 or t > 1 for t in t_samples):
        raise ValueError("t_samples must be non-empty with every t in (0, 1]")

    def fit(est_id, c, a, viol):
        return {
            "estimate_id": est_id,
            "fitted_C": float(c),
            "fitted_a": float(a),
            "max_violation": float(viol),
            "pass": bool(np.isfinite(c)),
        }

    fits = []
    for est_id, fn, power in (
        ("kernel_sup", lambda t: heat_kernel(t, grid), 0.5),
        ("kernel_gradient", lambda t: heat_kernel_dy(t, grid), 1.0),
    ):
        c, a = _fit_gaussian_envelope(t_samples, grid, fn, power)
        viol = _envelope_violation(t_samples, grid, fn, power, c, a)
        fits.append(fit(est_id, c, a, viol))

    # gaussian_lp: a and p are fixed, only C is fitted; sup of norm/s^{1/(2p)}
    p_gauss, a_gauss = 2, 1.0
    ratios = [
        gaussian_lp_norm(s, p_gauss, a_gauss) / s ** (1.0 / (2 * p_gauss))
        for s in t_samples
    ]
    c_gauss = max(ratios)
    ts = np.sort(np.asarray(t_samples))
    mids = 0.5 * (ts[:-1] + ts[1:]) if len(ts) > 1 else ts
    viol = max(
        gaussian_lp_norm(s, p_gauss, a_gauss) - c_gauss * s ** (1.0 / (2 * p_gauss))
        for s in mids
    )
    fits.append(fit("gaussian_lp", c_gauss, a_gauss, viol))
    return fits
