"""Property-based fuzzing of the input parsers.

Config text may only raise ``ConfigError`` out of ``RunConfig.parse`` and the
typed accessors; the flat binary loaders may only raise
``BinaryFormatError``.  Runs are derandomized and keep no example database,
so every run draws the same examples.
"""

import json
import struct

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from sgbh.cli import _SCHEMA, ConfigError, RunConfig  # noqa: E402
from sgbh.noise import (  # noqa: E402
    BinaryFormatError,
    ControlPath,
    load_control,
    save_control,
)
from sgbh.solvers import (  # noqa: E402
    MAX_ARRAY_ENTRIES,
    Trajectory,
    load_trajectory,
    save_trajectory,
)
from sgbh.spectral import Grid1D, SpectralBasis  # noqa: E402

FUZZ = settings(
    database=None,
    derandomize=True,
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# --- config text ----------------------------------------------------------------

_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=6,
)
_TOKENS = st.sampled_from(
    ["NaN", "Infinity", "-Infinity", "1e999", "-1e999", "1e-999", "[", "]", "{", '"', ",",
     "tru", "0x10", ".5", "1.", "--1", "1" + "0" * 400, "[" * 2000]
)
_VALUE = st.one_of(
    _JSON.map(json.dumps),
    st.floats().map(repr),
    _TOKENS,
    st.lists(_TOKENS, max_size=4).map(" ".join),
    st.text(max_size=12),
)
_LINE = st.one_of(
    st.sampled_from([*_SCHEMA, "dynamics", ""]).map(lambda s: f"[{s}]"),
    st.tuples(st.sampled_from([k for d in _SCHEMA.values() for k in d] + ["gama"]), _VALUE).map(
        lambda kv: f"{kv[0]} = {kv[1]}"
    ),
    st.text(max_size=20),
)
_CONFIG_TEXT = st.one_of(st.text(), st.lists(_LINE, max_size=12).map("\n".join))


@FUZZ
@given(_CONFIG_TEXT)
def test_config_text_raises_only_config_error(text):
    try:
        cfg = RunConfig.parse(text)
    except ConfigError:
        return
    assert RunConfig.parse(cfg.serialize()) == cfg
    for section in cfg.values.values():
        for value in section.values():
            if isinstance(value, int):
                float(value)  # every accepted integer converts to a float
    for build in (
        cfg.model_params,
        cfg.noise_spec,
        cfg.noise_coefficient,
        cfg.solver_config,
        cfg.blowup_guard,
        cfg.ensemble_spec,
    ):
        try:
            build()
        except ConfigError:
            pass


# sizes from 1 to 2^60, small and huge drawn alike
_SIZE = st.integers(0, 60).map(lambda e: 2**e) | st.integers(1, 2**60)


@FUZZ
@given(n_points=_SIZE, n_modes=_SIZE, noise_modes=_SIZE, n_steps=_SIZE, dt_exp=st.integers(0, 80))
def test_huge_config_sizes_raise_config_error_or_stay_bounded(
    n_points, n_modes, noise_modes, n_steps, dt_exp
):
    dt = 2.0**-dt_exp  # t_end = n_steps * dt is an exact multiple below 2^53 steps
    cfg = RunConfig.parse(
        f"[solver]\ndt = {dt!r}\nt_end = {n_steps * dt!r}\nn_modes = {n_modes}\n"
        f"n_points = {n_points}\n[noise]\nn_modes = {noise_modes}\n"
    )
    # the basis, a trajectory and one path's noise draw are all bounded
    try:
        scfg = cfg.solver_config()
    except ConfigError:
        return
    assert scfg.n_points * scfg.n_modes <= MAX_ARRAY_ENTRIES
    assert scfg.n_steps * scfg.n_modes <= MAX_ARRAY_ENTRIES
    try:
        spec = cfg.noise_spec()
    except ConfigError:
        return
    assert spec.n_modes * scfg.n_steps <= MAX_ARRAY_ENTRIES


# --- flat binary files -------------------------------------------------------------

_RNG = np.random.default_rng(0)
_SAVED = {
    "control": (
        load_control,
        save_control,
        struct.Struct("<qqd"),
        ControlPath(dt=0.01, n_steps=5, hdot=_RNG.standard_normal((3, 5))),
    ),
    "trajectory": (
        load_trajectory,
        save_trajectory,
        struct.Struct("<qqdq"),
        Trajectory(
            times=0.01 * np.arange(6),
            coeffs=_RNG.standard_normal((6, 3)),
            basis=SpectralBasis(Grid1D(16), 3),
        ),
    ),
}
_FIELD = {
    "q": st.integers(-(2**63), 2**63 - 1),
    "d": st.floats(),
}


@pytest.fixture(scope="module")
def saved_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    out = {}
    for kind, (_, save, _, obj) in _SAVED.items():
        path = root / f"{kind}.bin"
        save(obj, path)
        out[kind] = (path.read_bytes(), root / f"{kind}-fuzzed.bin")
    return out


@pytest.mark.parametrize("kind", sorted(_SAVED))
@FUZZ
@given(data=st.data())
def test_binary_loaders_raise_only_format_error(saved_files, kind, data):
    load, save, header, _ = _SAVED[kind]
    raw, path = saved_files[kind]
    how = data.draw(st.sampled_from(["truncate", "extend", "header"]))
    if how == "truncate":
        blob = raw[: data.draw(st.integers(0, len(raw) - 1))]
    elif how == "extend":
        blob = raw + data.draw(st.binary(min_size=1, max_size=64))
    else:
        fields = list(header.unpack_from(raw))
        for i, code in enumerate(header.format.lstrip("<")):
            if data.draw(st.booleans()):
                fields[i] = data.draw(_FIELD[code])
        payload = raw[header.size :]
        if data.draw(st.booleans()):
            payload = data.draw(st.binary(max_size=256))
        blob = header.pack(*fields) + payload
    path.write_bytes(blob)
    try:
        obj = load(path)
    except BinaryFormatError:
        assert how != "header" or blob != raw
        return
    assert how == "header"
    # whatever loads saves back to the same bytes
    save(obj, path)
    assert path.read_bytes() == blob
