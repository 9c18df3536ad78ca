"""Q-Wiener noise realizations, Cameron-Martin control paths, and the action.

The driving noise is white in time and colored in space:

    W^Q(t, x) = sum_j q_j phi_j(x) beta_j(t),     q_j = (j^2 pi^2)^(-eta),

with eta > 1/4 so that sum q_j^2 < infinity (trace class).  A realization
stores only the raw mode increments dB_{j,k} ~ N(0, dt); the q_j phi_j(x)
coloring is applied by the solvers.

Sampling is counter-based (numpy Philox) keyed by (seed, path_index, stream),
so any worker can reproduce any path independently of scheduling, and
ensembles are bit-reproducible for a fixed base seed.
"""

import math
import struct
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "NoiseSpec",
    "NoiseRealization",
    "BinaryFormatError",
    "ControlPath",
    "sample_noise",
    "refine_noise",
    "action",
    "save_realization",
    "load_realization",
    "save_control",
    "load_control",
]

_MASK64 = (1 << 64) - 1

# stream tags for the second Philox key word
_STREAM_BASE = 0
_STREAM_BRIDGE = 1


def _generator(seed, path_index=0, stream=_STREAM_BASE, aux=0):
    key = [seed & _MASK64, (path_index ^ (stream << 56) ^ (aux << 40)) & _MASK64]
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class NoiseSpec:
    """Spatial coloring of the Q-Wiener noise: q_j = (j^2 pi^2)^(-eta)."""

    n_modes: int = 32
    eta: float = 0.3

    def __post_init__(self):
        if self.n_modes < 1:
            raise ValueError(f"n_modes must be >= 1, got {self.n_modes}")
        if self.eta <= 0.25:
            raise ValueError(f"eta must be > 1/4 for trace class, got {self.eta}")

    @property
    def q(self):
        j = np.arange(1, self.n_modes + 1)
        return ((j * np.pi) ** 2) ** (-self.eta)

    def q_squared_partial_sums(self, j_max=None):
        """Partial sums of q_j^2 up to j_max (trace-class diagnostics)."""
        j_max = self.n_modes if j_max is None else j_max
        j = np.arange(1, j_max + 1)
        return np.cumsum(((j * np.pi) ** 2) ** (-2 * self.eta))


@dataclass(frozen=True)
class NoiseRealization:
    """Mode increments dB_{j,k} ~ N(0, dt), shape (J, n_steps)."""

    dt: float
    n_steps: int
    increments: np.ndarray
    seed: int
    path_index: int = 0
    spec: NoiseSpec | None = field(default=None, compare=False)

    def __post_init__(self):
        inc = np.asarray(self.increments, dtype=float)
        if inc.shape != (inc.shape[0], self.n_steps):
            raise ValueError(
                f"increments shape {inc.shape} inconsistent with n_steps={self.n_steps}"
            )
        inc = inc.copy()
        inc.flags.writeable = False
        object.__setattr__(self, "increments", inc)

    @property
    def n_modes(self):
        return self.increments.shape[0]


def sample_noise(spec, dt, n_steps, seed, path_index=0):
    """Draw a noise realization; pure function of (spec, dt, n_steps, seed, path_index)."""
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    rng = _generator(seed, path_index, _STREAM_BASE)
    inc = rng.standard_normal((spec.n_modes, n_steps))
    inc *= np.sqrt(dt)
    return NoiseRealization(
        dt=dt, n_steps=n_steps, increments=inc, seed=seed, path_index=path_index, spec=spec
    )


def refine_noise(r, factor):
    """Brownian-bridge refinement by an integer factor.

    Each coarse increment D is split into ``factor`` sub-increments
    d_i = xi_i - mean(xi) + D/factor with xi_i ~ N(0, dt/factor) i.i.d., which
    is the conditional (bridge) law given the coarse increment; group sums
    reproduce D to roundoff, so coarse-path statistics are invariant under
    refine-then-coarsen.
    """
    if not (isinstance(factor, (int, np.integer)) and factor >= 2):
        raise ValueError(f"factor must be an integer >= 2, got {factor!r}")
    fine_dt = r.dt / factor
    rng = _generator(r.seed, r.path_index, _STREAM_BRIDGE, aux=factor)
    j, k = r.increments.shape
    xi = np.sqrt(fine_dt) * rng.standard_normal((j, k, factor))
    d = xi - xi.mean(axis=2, keepdims=True) + r.increments[:, :, None] / factor
    return NoiseRealization(
        dt=fine_dt,
        n_steps=k * factor,
        increments=d.reshape(j, k * factor),
        seed=r.seed,
        path_index=r.path_index,
        spec=r.spec,
    )


@dataclass(frozen=True)
class ControlPath:
    """Piecewise-constant Cameron-Martin control: hdot_{j,k}, shape (J, n_steps)."""

    dt: float
    n_steps: int
    hdot: np.ndarray

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        hd = np.asarray(self.hdot, dtype=float)
        if hd.ndim != 2 or hd.shape[1] != self.n_steps:
            raise ValueError(
                f"hdot shape {hd.shape} inconsistent with n_steps={self.n_steps}"
            )
        hd = hd.copy()
        hd.flags.writeable = False
        object.__setattr__(self, "hdot", hd)

    @property
    def n_modes(self):
        return self.hdot.shape[0]

    def action(self):
        return action(self)

    def in_ball(self, n_bound):
        """Membership in the level set sum_j int |hdot_j|^2 dt <= n_bound."""
        return float(np.sum(self.hdot**2) * self.dt) <= n_bound

    @classmethod
    def zero(cls, n_modes, dt, n_steps):
        return cls(dt=dt, n_steps=n_steps, hdot=np.zeros((n_modes, n_steps)))


def action(h):
    """Cameron-Martin action (1/2) sum_j int_0^T |hdot_j(s)|^2 ds."""
    return 0.5 * float(np.sum(h.hdot**2)) * h.dt


# --- flat binary persistence -------------------------------------------------
#
# realization: int64 J, int64 n_steps, float64 dt, uint64 seed, then the
# (J, n_steps) increment matrix row-major as float64.  Everything little-endian.
# control: same layout without the seed word.

_REAL_HEADER = struct.Struct("<qqdQ")
_CTRL_HEADER = struct.Struct("<qqd")


class BinaryFormatError(ValueError):
    """A flat binary file whose header or payload length is inconsistent."""


def _read_flat_binary(path, header, shape):
    """Header fields and the float64 payload of a flat binary file.

    ``shape`` maps the header fields to the payload's shape.  A file shorter
    than the header, a non-positive dimension, a float field (the step dt)
    that is not finite and positive, or a payload of any other length than
    the shape needs raises BinaryFormatError.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < header.size:
        raise BinaryFormatError(
            f"{path}: {len(raw)} bytes, shorter than the {header.size}-byte header"
        )
    fields = header.unpack_from(raw)
    dims = shape(fields)
    if min(dims) < 1:
        raise BinaryFormatError(f"{path}: header gives payload shape {dims}")
    if not all(math.isfinite(f) and f > 0 for f in fields if isinstance(f, float)):
        raise BinaryFormatError(f"{path}: header gives a step that is not finite and > 0")
    payload, need = len(raw) - header.size, 8 * math.prod(dims)
    if payload != need:
        raise BinaryFormatError(
            f"{path}: payload is {payload} bytes, header shape {dims} needs {need}"
        )
    return fields, np.frombuffer(raw, dtype="<f8", offset=header.size).reshape(dims)


def save_realization(r, path):
    with open(path, "wb") as fh:
        fh.write(_REAL_HEADER.pack(r.n_modes, r.n_steps, r.dt, r.seed & _MASK64))
        fh.write(np.ascontiguousarray(r.increments, dtype="<f8").tobytes())


def load_realization(path, spec=None):
    """Load a persisted realization; ``spec`` reattaches the coloring (not stored)."""
    (j, n_steps, dt, seed), data = _read_flat_binary(path, _REAL_HEADER, lambda f: f[:2])
    if spec is not None and spec.n_modes != j:
        raise ValueError(f"spec has {spec.n_modes} modes but file has {j}")
    return NoiseRealization(
        dt=dt, n_steps=n_steps, increments=data, seed=seed, spec=spec
    )


def save_control(h, path):
    with open(path, "wb") as fh:
        fh.write(_CTRL_HEADER.pack(h.n_modes, h.n_steps, h.dt))
        fh.write(np.ascontiguousarray(h.hdot, dtype="<f8").tobytes())


def load_control(path):
    (j, n_steps, dt), data = _read_flat_binary(path, _CTRL_HEADER, lambda f: f[:2])
    return ControlPath(dt=dt, n_steps=n_steps, hdot=data)
