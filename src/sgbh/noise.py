"""Q-Wiener noise realizations, Cameron-Martin control paths, and the action.

The driving noise is white in time and colored in space:

    W^Q(t, x) = sum_j q_j phi_j(x) beta_j(t),     q_j = (j^2 pi^2)^(-eta),

with eta > 1/4 so that sum q_j^2 < infinity (trace class).  A realization
stores only the raw mode increments dB_{j,k} ~ N(0, dt); the q_j phi_j(x)
coloring is applied by the solvers.

Sampling is counter-based (numpy Philox) keyed by (seed, path_index), each
taken mod 2^64, so any worker can reproduce any path independently of
scheduling, and ensembles are bit-reproducible for a fixed base seed.
"""

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .spectral import _frozen

__all__ = [
    "NoiseSpec",
    "NoiseRealization",
    "BinaryFormatError",
    "ControlPath",
    "sample_noise",
    "control_bytes",
    "load_control",
]

_MASK64 = (1 << 64) - 1


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


@dataclass(frozen=True)
class NoiseRealization:
    """Mode increments dB_{j,k} ~ N(0, dt), shape (J, n_steps)."""

    dt: float
    n_steps: int
    increments: np.ndarray
    spec: NoiseSpec

    def __post_init__(self):
        inc = np.asarray(self.increments, dtype=float)
        if inc.ndim != 2 or inc.shape[1] != self.n_steps:
            raise ValueError(
                f"increments shape {inc.shape} inconsistent with n_steps={self.n_steps}"
            )
        object.__setattr__(self, "increments", _frozen(inc))


def sample_noise(spec, dt, n_steps, seed, path_index=0):
    """Draw a noise realization; pure function of (spec, dt, n_steps, seed, path_index)."""
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    # a uint64 array: a list with a word >= 2^63 would pass through float64
    key = np.array([seed & _MASK64, path_index & _MASK64], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    inc = rng.standard_normal((spec.n_modes, n_steps))
    inc *= np.sqrt(dt)
    inc.flags.writeable = False  # frozen and owned: the realization takes it without a copy
    return NoiseRealization(dt=dt, n_steps=n_steps, increments=inc, spec=spec)


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
        object.__setattr__(self, "hdot", _frozen(hd))

    @property
    def n_modes(self):
        return self.hdot.shape[0]

    def action(self):
        """Cameron-Martin action (1/2) sum_j int_0^T |hdot_j(s)|^2 ds."""
        return 0.5 * float(np.sum(self.hdot**2)) * self.dt


# --- flat binary persistence -------------------------------------------------
#
# control: int64 J, int64 n_steps, float64 dt, then the (J, n_steps) hdot
# matrix row-major as float64.  Everything little-endian.  A noise realization
# is never stored: sample_noise rebuilds it from (seed, path_index).

_CTRL_HEADER = struct.Struct("<qqd")


class BinaryFormatError(ValueError):
    """A flat binary file whose header or payload length is inconsistent."""


def _read_flat_binary(path, header, shape):
    """Header fields and the float64 payload of a flat binary file, read into
    one frozen array.  ``shape`` maps the header fields to the payload's shape,
    or raises ValueError to refuse them.  A file shorter than the header, a
    refused header, a non-positive dimension, a float field (the step dt) that
    is not finite and positive, or a payload of any other length than the
    shape needs raises BinaryFormatError.
    """
    with open(path, "rb") as fh:
        try:  # struct.error: the file is shorter than the header
            fields = header.unpack(fh.read(header.size))
            dims = shape(fields)
        except (struct.error, ValueError) as exc:
            raise BinaryFormatError(f"{path}: header refused: {exc}") from None
        if min(dims) < 1:
            raise BinaryFormatError(f"{path}: header gives payload shape {dims}")
        if not all(math.isfinite(f) and f > 0 for f in fields if isinstance(f, float)):
            raise BinaryFormatError(f"{path}: header gives a step that is not finite and > 0")
        payload, need = os.fstat(fh.fileno()).st_size - header.size, 8 * math.prod(dims)
        # allocate only what the file holds; a short read means it shrank since fstat
        if payload != need or fh.readinto(data := np.empty(dims, dtype="<f8")) != need:
            raise BinaryFormatError(
                f"{path}: payload is {payload} bytes, header shape {dims} needs {need}"
            )
    data.flags.writeable = False
    return fields, data


def _flat_binary(header, payload):
    """The file's chunks: ``header``, then a byte view of ``payload`` as
    little-endian float64, which copies no native float64 C-order array."""
    return header, memoryview(np.ascontiguousarray(payload, dtype="<f8")).cast("B")


def control_bytes(h):
    """(header, payload view): ``b"".join`` of them is what ``load_control`` reads."""
    return _flat_binary(_CTRL_HEADER.pack(h.n_modes, h.n_steps, h.dt), h.hdot)


def load_control(path):
    (j, n_steps, dt), data = _read_flat_binary(path, _CTRL_HEADER, lambda f: f[:2])
    return ControlPath(dt=dt, n_steps=n_steps, hdot=data)
