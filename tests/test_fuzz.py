"""Property-based fuzzing of the input parsers and the command line.

Config text may only raise ``ConfigError`` out of ``RunConfig.parse`` and the
typed accessors; the flat binary loaders may only raise
``BinaryFormatError``; ``main`` returns an exit code and raises nothing.
Runs are derandomized and keep no example database, so every run draws the
same examples.
"""

import json
import os
import struct
import tempfile

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from sgbh.cli import _SCHEMA, ConfigError, RunConfig, main  # noqa: E402
from sgbh.noise import (  # noqa: E402
    BinaryFormatError,
    ControlPath,
    control_bytes,
    load_control,
)
from sgbh.solvers import (  # noqa: E402
    MAX_ARRAY_ENTRIES,
    Trajectory,
    load_trajectory,
    trajectory_bytes,
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
    assert RunConfig.parse(cfg.serialize()).values == cfg.values
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
        control_bytes,
        struct.Struct("<qqd"),
        ControlPath(dt=0.01, n_steps=5, hdot=_RNG.standard_normal((3, 5))),
    ),
    "trajectory": (
        load_trajectory,
        trajectory_bytes,
        struct.Struct("<qqdq"),
        Trajectory(
            dt=0.01,
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
    for kind, (_, encode, _, obj) in _SAVED.items():
        out[kind] = (b"".join(encode(obj)), root / f"{kind}-fuzzed.bin")
    return out


@pytest.mark.parametrize("kind", sorted(_SAVED))
@FUZZ
@given(data=st.data())
def test_binary_loaders_raise_only_format_error(saved_files, kind, data):
    load, encode, header, _ = _SAVED[kind]
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
    # whatever loads encodes back to the same bytes
    assert b"".join(encode(obj)) == blob


# --- the command line -----------------------------------------------------------

_ARTIFACTS = [
    "config.txt",
    "report.csv",
    "report.json",
    "trajectory.bin",
    "norms.csv",
    "control.bin",
    "rate.json",
    "kernel_report.json",
]
# (section, key, values) a run may override; small runs only, at most 4
# paths, 10 steps and 2 workers
_OVERRIDES = [
    ("model", "alpha", ["0.0", "1.0"]),
    ("model", "beta", ["0.0", "1.0"]),
    ("model", "nu", ["0.1", "-1.0"]),
    ("noise", "g_kappa1", ["0.0", "0.5"]),
    ("noise", "n_modes", ["4", "8", "16"]),
    ("solver", "eps", ["0.0", "0.5", "1.0", "2.0"]),
    ("solver", "initial", ['"bump"', '"zero"', '"bogus"']),
    ("solver", "guard_threshold", ["1e-6", "0.04", "1000.0"]),
    ("experiment", "rho_list", ["[0.5, 1.0]", "[]", "[1.0, 0.5]"]),
    ("experiment", "tail_p", ["0", "1", "2"]),
    ("experiment", "kernel_t_count", ["1", "3"]),
    ("experiment", "oracle_g", ["0.0", "1.0"]),
    ("experiment", "rate_tol", ["-1.0", "1e-8"]),
]


@st.composite
def _cli_runs(draw):
    """(argv, config text, output state); ``{inputs}`` in argv stands for the
    directory of the control and target files."""
    command = draw(st.sampled_from(["simulate", "experiment", "rate", "validate-kernel"]))
    argv = [command]
    if command == "simulate":
        solver = draw(
            st.sampled_from([None, "deterministic", "spde", "clt", "mdp", "controlled", "skeleton"])
        )
        control = draw(st.sampled_from([None, "control.bin", "missing.bin"]))
        argv += [] if solver is None else ["--solver", solver]
        argv += [] if control is None else ["--control", f"{{inputs}}/{control}"]
    elif command == "experiment":
        argv.append(draw(st.sampled_from(["clt", "heat-oracle", "mdp-tail", "strong-rate"])))
    elif command == "rate":
        target = draw(st.sampled_from(["spectral.json", "grid.json", "missing.json"]))
        argv += ["--target", f"{{inputs}}/{target}"]
    seed = draw(st.sampled_from([None, "0", "-1", str(2**64), "1" + "0" * 400]))
    workers = draw(st.sampled_from([None, "1", "2"]))
    argv += [] if seed is None else ["--seed", seed]
    argv += [] if workers is None else ["--workers", workers]
    n_steps = draw(st.integers(1, 10))
    lines = [
        f"[solver]\ndt = 0.005\nt_end = {0.005 * n_steps!r}\nn_modes = 8\nn_points = 64",
        "[noise]\nn_modes = 8",
        f"[experiment]\nn_paths = {draw(st.integers(1, 4))}\neps_list = [0.5, 0.25, 0.125]\n"
        f"block_size = {draw(st.sampled_from([1, 2, 128]))}",
    ]
    for section, key, values in draw(st.lists(st.sampled_from(_OVERRIDES), max_size=4)):
        lines.append(f"[{section}]\n{key} = {draw(st.sampled_from(values))}")
    out = draw(st.sampled_from(["missing", "file", "under-file", *_ARTIFACTS]))
    return argv, "\n".join(lines) + "\n", out


@pytest.fixture(scope="module")
def cli_root(tmp_path_factory):
    """A directory holding a control path and targets that fit the drawn
    configs' 8 modes and 10 steps."""
    root = tmp_path_factory.mktemp("cli")
    control = ControlPath(0.005, 10, _RNG.standard_normal((8, 10)))
    (root / "control.bin").write_bytes(b"".join(control_bytes(control)))
    (root / "spectral.json").write_text(json.dumps({"kind": "spectral", "values": [0.01, 0.02]}))
    grid = SpectralBasis(Grid1D(64), 8).phi[0] * 0.01
    (root / "grid.json").write_text(json.dumps({"kind": "grid", "values": grid.tolist()}))
    return root


def _refuse(constant):
    raise ValueError(f"{constant} is not standard JSON")


@settings(FUZZ, max_examples=100)
@given(run=_cli_runs())
def test_main_returns_an_exit_code_and_raises_nothing(cli_root, run):
    """Whatever the flags, config and state of the output directory, ``main``
    returns 0-3; a refused input or artifact is exit 2, never a traceback.  A
    run that exits 0 or 1 writes JSON artifacts that a strict reader takes."""
    argv, text, out_state = run
    run_dir = tempfile.mkdtemp(dir=cli_root)
    config = os.path.join(run_dir, "run.cfg")
    with open(config, "w") as fh:
        fh.write(text)
    out = os.path.join(run_dir, "out")
    if out_state in ("file", "under-file"):
        with open(out, "w") as fh:
            fh.write("not a directory\n")
        out = os.path.join(out, "sub") if out_state == "under-file" else out
    elif out_state != "missing":  # an artifact name taken by a directory
        os.makedirs(os.path.join(out, out_state))
    argv = [a.format(inputs=cli_root) for a in argv]
    code = main([*argv, "--config", config, "--out", out])
    assert code in (0, 1, 2, 3)
    if code in (0, 1):  # every JSON artifact is standard JSON: no NaN or Infinity
        for name in os.listdir(out):
            path = os.path.join(out, name)
            if name.endswith(".json") and os.path.isfile(path):
                with open(path) as fh:
                    json.loads(fh.read(), parse_constant=_refuse)
