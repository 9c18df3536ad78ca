"""End-to-end tests of the command line: config parsing with line
diagnostics, the four subcommands, exit codes, and byte-stable artifacts."""

import ast
import errno
import importlib.metadata
import io
import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from sgbh.cli import (
    _SCHEMA,
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_PASS,
    EXIT_SCI_FAIL,
    RunConfig,
    main,
)
from sgbh.noise import load_control
from sgbh.solvers import SetupError

SMALL_SOLVER = """
[model]
nu = 0.1
[solver]
dt = 0.005
t_end = 0.05
n_modes = 8
n_points = 64
[noise]
n_modes = 8
"""

LINEAR_MODEL = """
[model]
alpha = 0.0
beta = 0.0
[noise]
g_kappa0 = 1.0
g_kappa1 = 0.0
n_modes = 8
[solver]
dt = 0.005
t_end = 0.05
n_modes = 8
n_points = 64
"""

# the golden runs' grid and ensemble, as in tests/test_golden.py
GOLDEN_RUN = """
[noise]
n_modes = 8
[solver]
dt = 0.01
t_end = 0.2
n_modes = 8
n_points = 64
[experiment]
n_paths = 12
block_size = 5
eps_list = [0.5, 0.25, 0.125]
kernel_t_count = 3
"""


def _write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# --- config parsing -----------------------------------------------------------


def test_config_defaults_round_trip():
    cfg = RunConfig()
    assert cfg.values["model"]["nu"] == 0.1
    assert RunConfig.parse(cfg.serialize()).values == cfg.values
    parsed = RunConfig.parse("[model]\nnu = 0.2\n\n# comment\n[output]\nseed = 7\n")
    assert parsed.values["model"]["nu"] == 0.2
    assert parsed.seed == 7
    assert parsed.values["model"]["alpha"] == 1.0  # untouched default


def _values_section(node):
    """The section name when ``node`` is ``<x>.values["section"]``, else None."""
    if (
        isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Attribute)
        and node.value.attr == "values"
        and isinstance(node.slice, ast.Constant)
    ):
        return node.slice.value
    return None


def _config_reads():
    """(section, key) pairs that cli.py's functions read from a config's values,
    directly (``values["s"]["k"]``) or through a local (``e = values["s"]``);
    unpacking a section (``**values["s"]``) reads every key of it."""
    import sgbh.cli

    tree = ast.parse(Path(sgbh.cli.__file__).read_text())
    reads = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        local = {
            node.targets[0].id: _values_section(node.value)
            for node in ast.walk(fn)
            if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
        }
        for node in ast.walk(fn):
            if isinstance(node, ast.keyword) and node.arg is None:
                if (section := _values_section(node.value)) is not None:
                    reads.update((section, key) for key in _SCHEMA[section])
                continue
            if not (
                isinstance(node, ast.Subscript)
                and isinstance(node.ctx, ast.Load)
                and isinstance(node.slice, ast.Constant)
            ):
                continue
            base = node.value
            section = _values_section(base)
            if section is None and isinstance(base, ast.Name):
                section = local.get(base.id)
            if section is not None:
                reads.add((section, node.slice.value))
    return reads


def test_every_schema_key_has_a_reader():
    # a key that nothing reads is a knob that does nothing, as [experiment]
    # kind was
    reads = _config_reads()
    unread = [(s, k) for s, keys in _SCHEMA.items() for k in keys if (s, k) not in reads]
    assert unread == []


def _readme_config_defaults():
    """{section: {key: value}} as the two-column defaults block under
    "## Configuration files" in README.md lists them, in its order."""
    text = (REPO / "README.md").read_text()
    lines = text.split("## Configuration files", 1)[1].split("```\n", 2)[1].splitlines()
    split = lines[0].index("[", 1)  # the right column starts at its first header
    sections = {}
    for column in (slice(None, split), slice(split, None)):
        for line in lines:
            cell = line[column].split("#")[0].strip()
            if cell.startswith("["):
                section = sections.setdefault(cell[1:-1], {})
            elif cell:
                key, _, value = cell.partition("=")
                section[key.strip()] = json.loads(value)
    return sections


def test_readme_lists_exactly_the_schema_defaults():
    listed = _readme_config_defaults()
    assert listed.keys() == _SCHEMA.keys()
    for section, defaults in _SCHEMA.items():
        typed = [(k, v, type(v)) for k, v in listed[section].items()]
        assert typed == [(k, v, type(v)) for k, v in defaults.items()], section


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("[dynamics]\n", "line 1: unknown section"),
        ("[model]\ngama = 0.5\n", "line 2: unknown key"),
        ("[model]\nnu = 0.1,\n", "not valid JSON"),
        ("nu = 0.1\n", "key before any [section]"),
        ("[model]\nnu\n", "expected 'key = value'"),
        ("[model]\nnu = \"fast\"\n", "must be a number"),
        ("[model]\ndelta = 1.5\n", "must be an integer"),
        ("[experiment]\nn_paths = true\n", "must be an integer"),
        ("[experiment]\ncoupled = true\n", "unknown key"),
        ("[experiment]\neps_list = 0.1\n", "must be a list"),
        ("[output]\ndirectory = 3\n", "must be a string"),
    ],
)
def test_config_parse_errors_carry_line_numbers(text, fragment):
    with pytest.raises(ValueError) as err:
        RunConfig.parse(text)
    assert fragment in str(err.value)


def test_missing_config_file_is_a_usage_error(tmp_path):
    code = main(["--config", str(tmp_path / "nope.cfg"), "validate-kernel"])
    assert code == EXIT_CONFIG


def test_config_file_that_is_not_utf8_exits_2(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(b"\xff[model]\nnu = 0.1\n")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"cannot read config file {str(cfg)!r}" in err and "utf-8" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("out", ["", "afile", "afile/sub"], ids=["empty", "file", "under-file"])
def test_output_directory_that_cannot_be_made_exits_2(tmp_path, capsys, monkeypatch, out):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").write_text("not a directory\n")
    cfg = _write(tmp_path, SMALL_SOLVER)
    assert main(["simulate", "--config", cfg, "--out", out]) == EXIT_CONFIG
    assert f"config error: cannot write output directory {out!r}" in capsys.readouterr().err
    assert (tmp_path / "afile").read_text() == "not a directory\n"


@pytest.mark.parametrize(
    "argv,taken",
    [
        (["experiment", "strong-rate", "--workers", "1"], "report.json"),
        (["simulate", "--solver", "spde"], "norms.csv"),
        (["rate", "--target", "{target}"], "rate.json"),
    ],
    ids=["strong-rate-report", "simulate-norms", "rate-json"],
)
def test_artifact_that_cannot_be_written_exits_2(tmp_path, capsys, argv, taken):
    """An artifact name taken by a directory is refused with the file's name
    after the run, and the command's stdout line is not printed."""
    cfg = _write(tmp_path, SMALL_SOLVER + "[experiment]\nn_paths = 4\n")
    target = _write_target(tmp_path, {"kind": "spectral", "values": [0.001]})
    out = tmp_path / "o"
    (out / taken).mkdir(parents=True)
    argv = [a.format(target=target) for a in argv]
    assert main([*argv, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert f"config error: cannot write {str(out / taken)!r}" in captured.err
    assert captured.out == ""
    assert (out / "config.txt").exists()
    assert not list(out.glob(".*.partial"))


def test_artifact_write_that_fails_partway_leaves_no_file(tmp_path, capsys, monkeypatch):
    """A disk that fills mid-write leaves neither a truncated artifact under its
    final name nor the partial file it was written to."""
    import sgbh.cli

    class FullDisk(io.FileIO):
        def write(self, data):
            super().write(bytes(data[:8]))
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), self.name)

    def open_on_a_full_disk(path, mode="r", **kwargs):
        # trajectory.bin is the first binary artifact; config.txt is text
        return FullDisk(path, mode) if mode == "wb" else open(path, mode, **kwargs)

    monkeypatch.setattr(sgbh.cli, "open", open_on_a_full_disk, raising=False)
    cfg = _write(tmp_path, SMALL_SOLVER)
    out = tmp_path / "o"
    assert main(["simulate", "--solver", "spde", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert f"config error: cannot write {str(out / 'trajectory.bin')!r}" in captured.err
    assert captured.out == ""
    assert sorted(p.name for p in out.iterdir()) == ["config.txt"]


@pytest.mark.parametrize(
    "solver, bound",
    [("deterministic", 1.45), ("spde", 2.3), ("clt", 3.5), ("mdp", 3.5)],
    ids=["deterministic", "spde", "clt", "mdp"],  # the solver alone: a bound may move
)
def test_simulate_writes_its_artifacts_without_copying_them(tmp_path, capsys, solver, bound):
    """simulate's tracemalloc peak at K = 50k steps, in units of the trajectory's
    coefficient bytes (3.2 MB here): the binary is written from a view of the
    coefficients and the table in chunks, each with its own time and l2
    columns, so neither is copied whole and no (K + 1,) time axis is built.
    Measured: 1.37 (deterministic), 2.14 (spde, which holds its 1x noise draw),
    3.27 (clt and mdp, which also hold the reference path's coefficients);
    1.49, 2.41 and 3.66 when the trajectory stored its times; 3.98-4.04 and
    4.20-4.21 (deterministic and spde) when both artifacts were built whole
    first; 42.3 (clt) and 28.3 (mdp) when the stepper took u0's whole grid
    (8 units alone, n = 64) and precomputed its drift or linearization
    profiles for every step."""
    import tracemalloc

    cfg = _write(
        tmp_path,
        "[noise]\nn_modes = 8\n[solver]\ndt = 1e-5\nt_end = 0.5\nn_modes = 8\nn_points = 64\n",
    )
    argv = ["simulate", "--solver", solver, "--config", cfg, "--out", str(tmp_path / "o")]
    tracemalloc.start()
    try:
        assert main(argv) == EXIT_PASS
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "50000 steps" in capsys.readouterr().out
    assert peak / (50_001 * 8 * 8) <= bound


def test_bad_config_file_exits_2(tmp_path):
    # value-level validation happens in the command that builds the model
    cfg = _write(tmp_path, "[model]\nnu = -1\n")
    code = main(["--config", cfg, "--out", str(tmp_path / "o"), "simulate"])
    assert code == EXIT_CONFIG
    syntax = _write(tmp_path, "[model]\nnu =\n", "bad.cfg")
    code = main(["--config", syntax, "--out", str(tmp_path / "o2"), "validate-kernel"])
    assert code == EXIT_CONFIG


# --- simulate -------------------------------------------------------------------


def test_simulate_deterministic_writes_artifacts(tmp_path):
    cfg = _write(tmp_path, SMALL_SOLVER)
    out = tmp_path / "out"
    code = main(["simulate", "--config", cfg, "--out", str(out)])
    assert code == EXIT_PASS
    assert (out / "trajectory.bin").exists()
    assert (out / "norms.csv").exists()
    provenance = (out / "config.txt").read_text()
    assert "[model]" in provenance and "nu = 0.1" in provenance
    lines = (out / "norms.csv").read_text().strip().split("\n")
    assert lines[0] == "time,l2_norm,l8_norm"
    assert len(lines) == 12  # 10 steps + initial + header


def test_simulate_records_solver_flag_and_reruns_from_config(tmp_path):
    cfg = _write(tmp_path, SMALL_SOLVER)
    first, again = tmp_path / "first", tmp_path / "again"
    argv = ["simulate", "--solver", "spde", "--config", cfg, "--out", str(first)]
    assert main(argv) == EXIT_PASS
    recorded = first / "config.txt"
    assert 'kind = "spde"' in recorded.read_text().splitlines()
    rerun = ["simulate", "--config", str(recorded), "--out", str(again)]
    assert main(rerun) == EXIT_PASS
    assert (again / "trajectory.bin").read_bytes() == (first / "trajectory.bin").read_bytes()


def test_simulate_is_byte_stable_across_reruns_and_flag_position(tmp_path):
    cfg = _write(tmp_path, SMALL_SOLVER)
    outs = [tmp_path / f"o{i}" for i in range(3)]
    assert main(["simulate", "--config", cfg, "--out", str(outs[0])]) == EXIT_PASS
    assert main(["simulate", "--config", cfg, "--out", str(outs[1])]) == EXIT_PASS
    # shared flags are accepted before the subcommand too
    assert main(["--config", cfg, "--out", str(outs[2]), "simulate"]) == EXIT_PASS
    ref = (outs[0] / "trajectory.bin").read_bytes()
    for o in outs[1:]:
        assert (o / "trajectory.bin").read_bytes() == ref
        assert (o / "norms.csv").read_text() == (outs[0] / "norms.csv").read_text()


def test_shared_flags_before_the_subcommand_count_as_after_it(tmp_path, capsys):
    cfg = _write(tmp_path, SMALL_SOLVER)
    before, after, both = tmp_path / "before", tmp_path / "after", tmp_path / "both"
    argv = ["simulate", "--solver", "spde", "--config", cfg]
    assert main(["--seed", "7", *argv, "--out", str(before)]) == EXIT_PASS
    assert main([*argv, "--seed", "7", "--out", str(after)]) == EXIT_PASS
    traj = (before / "trajectory.bin").read_bytes()
    assert (after / "trajectory.bin").read_bytes() == traj
    # the subcommand's flag wins over the same flag given before it
    assert main(["--seed", "7", *argv, "--seed", "8", "--out", str(both)]) == EXIT_PASS
    assert "seed = 8" in (both / "config.txt").read_text().splitlines()
    assert (both / "trajectory.bin").read_bytes() != traj
    capsys.readouterr()
    assert main(["--workers", "0", "experiment", "strong-rate", "--config", cfg]) == EXIT_CONFIG
    assert "--workers must be >= 1" in capsys.readouterr().err


def test_simulate_seed_changes_stochastic_runs_only(tmp_path):
    cfg = _write(tmp_path, SMALL_SOLVER)
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for out, seed in ((a, "1"), (b, "2"), (c, "1")):
        code = main(
            ["simulate", "--solver", "spde", "--config", cfg, "--out", str(out), "--seed", seed]
        )
        assert code == EXIT_PASS
    assert (a / "trajectory.bin").read_bytes() != (b / "trajectory.bin").read_bytes()
    assert (a / "trajectory.bin").read_bytes() == (c / "trajectory.bin").read_bytes()


def test_simulate_zero_initial_stays_zero(tmp_path):
    cfg = _write(tmp_path, SMALL_SOLVER + '[solver]\ninitial = "zero"\n')
    out = tmp_path / "zero"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_PASS
    data = np.loadtxt(out / "norms.csv", delimiter=",", skiprows=1)
    np.testing.assert_allclose(data[:, 1], 0.0, atol=1e-15)


def test_simulate_all_stochastic_kinds_run(tmp_path):
    cfg = _write(tmp_path, SMALL_SOLVER)
    for kind in ("clt", "mdp", "controlled"):
        out = tmp_path / kind
        code = main(["simulate", "--solver", kind, "--config", cfg, "--out", str(out)])
        assert code == EXIT_PASS, kind
        assert (out / "trajectory.bin").exists()


def test_simulate_at_eps_zero_is_the_skeleton(tmp_path):
    """At eps = 0 the deviation problems are the skeleton and lambda(eps) is
    never evaluated: controlled writes the skeleton's trajectory, and mdp,
    which has no control, stays at zero."""
    from sgbh.noise import ControlPath, control_bytes
    from sgbh.solvers import load_trajectory

    ctrl = tmp_path / "c.bin"
    hdot = np.random.default_rng(6).standard_normal((8, 10))
    ctrl.write_bytes(b"".join(control_bytes(ControlPath(0.005, 10, hdot))))
    cfg = _write(tmp_path, SMALL_SOLVER + "[solver]\neps = 0.0\n")
    for kind in ("skeleton", "controlled", "mdp"):
        control = [] if kind == "mdp" else ["--control", str(ctrl)]
        argv = ["simulate", "--solver", kind, *control, "--config", cfg]
        assert main([*argv, "--out", str(tmp_path / kind)]) == EXIT_PASS, kind
    skeleton = (tmp_path / "skeleton" / "trajectory.bin").read_bytes()
    assert (tmp_path / "controlled" / "trajectory.bin").read_bytes() == skeleton
    assert np.any(load_trajectory(tmp_path / "skeleton" / "trajectory.bin").coeffs != 0)
    assert np.all(load_trajectory(tmp_path / "mdp" / "trajectory.bin").coeffs == 0)


def test_simulate_skeleton_requires_control(tmp_path):
    cfg = _write(tmp_path, SMALL_SOLVER)
    code = main(["simulate", "--solver", "skeleton", "--config", cfg, "--out", str(tmp_path / "s")])
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("kind", ["deterministic", "spde", "clt", "mdp"])
def test_simulate_control_for_a_kind_that_ignores_it_exits_2(tmp_path, capsys, kind):
    from sgbh.noise import ControlPath, control_bytes

    ctrl = tmp_path / "c.bin"
    ctrl.write_bytes(b"".join(control_bytes(ControlPath(0.005, 10, np.ones((8, 10))))))
    cfg = _write(tmp_path, SMALL_SOLVER)
    out = tmp_path / "s"
    argv = ["simulate", "--solver", kind, "--control", str(ctrl), "--config", cfg]
    assert main([*argv, "--out", str(out)]) == EXIT_CONFIG
    assert "controlled and skeleton" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_skeleton_with_zero_control_is_zero(tmp_path):
    from sgbh.noise import ControlPath, control_bytes

    ctrl = tmp_path / "zero.bin"
    ctrl.write_bytes(b"".join(control_bytes(ControlPath(0.005, 10, np.zeros((8, 10))))))
    cfg = _write(tmp_path, SMALL_SOLVER)
    out = tmp_path / "sk"
    code = main(
        [
            "simulate",
            "--solver",
            "skeleton",
            "--control",
            str(ctrl),
            "--config",
            cfg,
            "--out",
            str(out),
        ]
    )
    assert code == EXIT_PASS
    data = np.loadtxt(out / "norms.csv", delimiter=",", skiprows=1)
    np.testing.assert_allclose(data[:, 1], 0.0, atol=1e-15)


@pytest.mark.parametrize(
    "damage,fragment",
    [
        ("truncated", "malformed input file"),
        ("too_long", "malformed input file"),
        ("missing", "config error: cannot read control file"),
    ],
    ids=["truncated", "too_long", "missing"],
)
def test_simulate_malformed_control_file_exits_2(tmp_path, capsys, damage, fragment):
    from sgbh.noise import ControlPath, control_bytes

    ctrl = tmp_path / "ctrl.bin"
    ctrl.write_bytes(b"".join(control_bytes(ControlPath(0.005, 10, np.zeros((8, 10))))))
    raw = ctrl.read_bytes()
    if damage == "missing":
        ctrl.unlink()
    else:
        ctrl.write_bytes(raw[:3] if damage == "truncated" else raw + bytes(8))
    cfg = _write(tmp_path, SMALL_SOLVER)
    argv = ["simulate", "--solver", "skeleton", "--control", str(ctrl), "--config", cfg]
    assert main([*argv, "--out", str(tmp_path / "sk")]) == EXIT_CONFIG
    assert fragment in capsys.readouterr().err


def test_grid_too_coarse_for_modes_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path, "[solver]\nn_points = 64\nn_modes = 32\n")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "g")]) == EXIT_CONFIG
    assert "grid too coarse" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text,argv,fragment",
    [
        ("[model]\ndelta = 2\n", ["simulate"], "aliasing"),
        (
            SMALL_SOLVER,
            ["simulate", "--solver", "skeleton", "--control", "{ctrl7}"],
            "control grid",
        ),
        ("[noise]\nn_modes = 40\n", ["simulate", "--solver", "spde"], "noise has 40 modes"),
        ("[experiment]\nn_paths = 4\n", ["experiment", "heat-oracle"], "alpha = beta = 0"),
        *(
            (
                SMALL_SOLVER + "[solver]\nn_modes = 16\nn_points = 128\n",
                ["simulate", "--solver", kind, "--control", "{ctrl16}"],
                "control has 16 modes > noise n_modes 8",
            )
            for kind in ("skeleton", "controlled")
        ),
        # wider than the solver too: the noise modes never exceed the solver's
        (
            SMALL_SOLVER,
            ["simulate", "--solver", "controlled", "--control", "{ctrl16}"],
            "control has 16 modes > noise n_modes 8",
        ),
        (
            SMALL_SOLVER + "[experiment]\nn_paths = 4\nrho_list = [0.5, 2000.0]\n",
            ["experiment", "mdp-tail"],
            "above the guard threshold",
        ),
        (
            "[model]\nalpha = 0.0\nbeta = 0.0\n[noise]\nn_modes = 16\n[experiment]\nn_paths = 4\n",
            ["experiment", "heat-oracle"],
            "got 16",
        ),
        (
            LINEAR_MODEL + "[experiment]\nn_paths = 1\n",
            ["experiment", "heat-oracle"],
            "n_paths >= 2",
        ),
        (
            LINEAR_MODEL + "[experiment]\nn_paths = 8\noracle_g = 0.0\n",
            ["experiment", "heat-oracle"],
            "nonzero oracle_g",
        ),
        # refused before any block: g^2 overflows or underflows the variance
        *(
            (
                LINEAR_MODEL + f"[experiment]\nn_paths = 8\noracle_g = {g}\n",
                ["experiment", "heat-oracle"],
                f"variance is finite and > 0 in every mode, got oracle_g = {float(g)!r}",
            )
            for g in ("1e200", "1e-200")
        ),
        *(
            (
                SMALL_SOLVER + f"[experiment]\nn_paths = 8\nrho_list = {rho}\n",
                ["experiment", "mdp-tail"],
                "rho_list must be",
            )
            for rho in ("[]", "[-1.0, 0.5]", "[0.5, 0.5]", "[0.05, 0.02]")
        ),
        # one path's draw passes the 2^22 bound; a 64-path block of it would be 1.6 GB
        (
            "[solver]\ndt = 1e-5\nt_end = 1.0\n",
            ["experiment", "strong-rate"],
            "block_size*n_steps*noise n_modes = 204800000 exceeds 16777216",
        ),
        # a one-step, one-mode draw passes, but each (n_eps, B, n_points) grid
        # buffer of the block would be 256 GiB
        (
            "[noise]\nn_modes = 1\n[solver]\ndt = 0.25\nt_end = 0.25\nn_modes = 1\n"
            "n_points = 2097152\n[experiment]\nn_paths = 16384\nblock_size = 16384\n"
            "eps_list = [0.5]\n",
            ["experiment", "strong-rate"],
            "n_eps*block_size*n_points = 34359738368 exceeds 16777216",
        ),
        # refused before _block_spans lists the blocks or any block allocates
        (
            SMALL_SOLVER + "[experiment]\nn_paths = 1000000000000\n",
            ["experiment", "strong-rate"],
            "n_paths*n_eps = 3000000000000 exceeds 16777216",
        ),
        (
            LINEAR_MODEL + "[experiment]\nn_paths = 1000000000000\n",
            ["experiment", "heat-oracle"],
            "n_paths*n_eps*noise n_modes = 24000000000000 exceeds 16777216",
        ),
    ],
    ids=[
        "aliasing",
        "control-steps",
        "noise-modes",
        "heat-nonlinear",
        "skeleton-control-wider-than-noise",
        "controlled-control-wider-than-noise",
        "control-wider-than-solver",
        "rho-above-guard",
        "heat-unforced-modes",
        "heat-one-path",
        "heat-zero-g",
        "heat-g-overflow",
        "heat-g-underflow",
        "rho-empty",
        "rho-negative",
        "rho-repeated",
        "rho-descending",
        "block-noise-draw",
        "block-grid",
        "reduction-paths",
        "reduction-heat-endpoints",
    ],
)
def test_setup_errors_exit_2(tmp_path, capsys, text, argv, fragment):
    from sgbh.noise import ControlPath, control_bytes

    ctrl7 = tmp_path / "ctrl7.bin"
    # the config has 10 steps
    ctrl7.write_bytes(b"".join(control_bytes(ControlPath(0.005, 7, np.zeros((8, 7))))))
    ctrl16 = tmp_path / "ctrl16.bin"
    ctrl16.write_bytes(b"".join(control_bytes(ControlPath(0.005, 10, np.zeros((16, 10))))))
    cfg = _write(tmp_path, text)
    argv = [a.format(ctrl7=ctrl7, ctrl16=ctrl16) for a in argv]
    assert main([*argv, "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "setup error" in err and fragment in err


def test_single_path_runs_build_no_reference_grid(tmp_path, capsys, monkeypatch):
    """The deviation solvers and the endpoint control map read u0 in
    coefficients and synthesise its grid one step at a time, so no run holds
    u0's (K + 1, n_points) grid.  At the golden size that grid is 21 x 64 =
    1344 entries: every run passes under a run bound of 1343, and no engine or
    trajectory grid it builds has as many entries."""
    import sgbh.solvers as solvers
    from sgbh.deviation import EndpointControlMap, SpeedFunction
    from sgbh.noise import sample_noise
    from sgbh.solvers import solve_clt_limit, solve_controlled, solve_deterministic

    config = RunConfig.parse(GOLDEN_RUN)
    params, cfg, nspec = config.model_params(), config.solver_config(), config.noise_spec()
    g = config.noise_coefficient()
    u0 = solve_deterministic(config.initial_data(cfg), params, cfg)
    noise = sample_noise(nspec, cfg.dt, cfg.n_steps, seed=1)
    target = _write_target(tmp_path, {"kind": "spectral", "values": [0.001]})
    cfg_path = _write(tmp_path, GOLDEN_RUN)
    sizes = []

    def recorded(grid_values):
        def wrapper(*args, **kwargs):
            out = grid_values(*args, **kwargs)
            sizes.append(out.size)
            return out

        return wrapper

    for owner in (solvers.SolverEngine, solvers.Trajectory):
        monkeypatch.setattr(owner, "grid_values", recorded(owner.grid_values))
    monkeypatch.setattr(solvers, "MAX_RUN_ENTRIES", 1343)
    solve_clt_limit(u0, params, g, noise, cfg)
    solve_controlled(u0, params, g, 0.01, SpeedFunction(0.25), noise, None, cfg)
    EndpointControlMap(u0, params, g, cfg, noise_spec=nspec).matrix
    runs_cli = (
        ["simulate", "--solver", "clt"],
        ["simulate", "--solver", "mdp"],
        ["rate", "--target", target],
    )
    for i, argv in enumerate(runs_cli):
        out = tmp_path / f"o{i}"
        assert main([*argv, "--config", cfg_path, "--out", str(out)]) == EXIT_PASS
        assert capsys.readouterr().err == ""
    assert sizes and max(sizes) < (cfg.n_steps + 1) * cfg.n_points


@pytest.mark.parametrize(
    "text,argv,fragment",
    [
        ("[model]\nnu = NaN\n", ["simulate"], "NaN is not a finite number"),
        (SMALL_SOLVER + "[solver]\ndt = Infinity\n", ["simulate"], "Infinity is not a finite"),
        ("[model]\nnu = 1e999\n", ["simulate"], "1e999 is not a finite number"),
        (
            "[experiment]\nn_paths = 4\neps_list = [0.1, -Infinity]\n",
            ["experiment", "strong-rate"],
            "-Infinity is not a finite number",
        ),
        ("[model]\nnu = " + "[" * 100000 + "\n", ["simulate"], "recursion"),
        ("[model]\nnu = 1" + "0" * 400 + "\n", ["simulate"], "too large for a float"),
        # integers too: an even p_norm, an odd tail_p and a --seed
        ("[model]\np_norm = 1" + "0" * 400 + "\n", ["simulate"], "too large for a float"),
        (
            SMALL_SOLVER + "[experiment]\nn_paths = 4\ntail_p = 1" + "0" * 399 + "1\n",
            ["experiment", "mdp-tail"],
            "too large for a float",
        ),
        (SMALL_SOLVER, ["simulate", "--seed", "1" + "0" * 400], "--seed is too large for a float"),
        (
            "[experiment]\nn_paths = 4\neps_list = [[0.1]]\n",
            ["experiment", "strong-rate"],
            "must be a number",
        ),
        ("[solver]\ndt = 1e-300\nt_end = 1e10\n", ["simulate"], "not a finite step count"),
        (SMALL_SOLVER + "[solver]\nguard_threshold = NaN\n", ["simulate"], "not a finite"),
        (SMALL_SOLVER + "[solver]\nguard_threshold = -1.0\n", ["simulate"], "must be > 0"),
        (SMALL_SOLVER + "[solver]\nguard_threshold = 0.0\n", ["simulate"], "must be > 0"),
        # an experiment's guard is the [solver] one
        (
            SMALL_SOLVER + "[solver]\nguard_threshold = NaN\n[experiment]\nn_paths = 4\n",
            ["experiment", "strong-rate"],
            "not a finite",
        ),
        (
            SMALL_SOLVER + "[solver]\nguard_threshold = 0.0\n[experiment]\nn_paths = 4\n",
            ["experiment", "strong-rate"],
            "must be > 0",
        ),
        # removed keys: one key per setting, and one scheme
        ('[solver]\nscheme = "exponential-euler"\n', ["simulate"], "unknown key 'scheme'"),
        (
            SMALL_SOLVER + "[experiment]\nn_paths = 4\ntheta = 0.25\n",
            ["experiment", "mdp-tail"],
            "unknown key 'theta' in [experiment]",
        ),
        (
            SMALL_SOLVER + "[experiment]\nn_paths = 4\nguard_threshold = 1000.0\n",
            ["experiment", "strong-rate"],
            "unknown key 'guard_threshold' in [experiment]",
        ),
        ('[noise]\ng_kind = "constant"\n', ["simulate"], "unknown key 'g_kind' in [noise]"),
        ("[solver]\nn_points = 1000000000000000\n", ["simulate"], "n_points*n_modes"),
        ("[solver]\ndt = 1e-9\n", ["simulate"], "n_steps*n_modes"),
        ("[noise]\nn_modes = 1000000000\n", ["simulate", "--solver", "spde"], "noise draw"),
        ("[solver]\nn_points = 1000000000000000\n", ["validate-kernel"], "n_points^2"),
        ("[solver]\nn_points = 0\n", ["validate-kernel"], "n_points must be >= 1"),
        ("[experiment]\nkernel_t_min = 0.0\n", ["validate-kernel"], "every t in (0, 1]"),
        (
            SMALL_SOLVER + "[experiment]\nn_paths = 4\ntail_p = 0\n",
            ["experiment", "mdp-tail"],
            "tail_p must be >= 1",
        ),
        (
            SMALL_SOLVER + "[experiment]\nn_paths = 4\ntail_p = -3\n",
            ["experiment", "mdp-tail"],
            "tail_p must be >= 1",
        ),
        # for `rate`, the second argv entry is the --target file's text
        (SMALL_SOLVER, ["rate", '{"kind": "spectral", "values": ["a"]}'], "flat list of numbers"),
        (SMALL_SOLVER, ["rate", '{"kind": "spectral", "values": [NaN, 1.0]}'], "NaN is not a finite"),
        (
            SMALL_SOLVER,
            ["rate", '{"kind": "grid", "values": [' + "0.0, " * 63 + "1e400]}"],
            "1e400 is not a finite",
        ),
        (SMALL_SOLVER, ["rate", '{"kind": "spectral", "values": [null]}'], "must be finite"),
        (
            SMALL_SOLVER + "[experiment]\nrate_tol = -1.0\n",
            ["rate", '{"kind": "spectral", "values": [0.001]}'],
            "rate_tol must be >= 0",
        ),
        (
            SMALL_SOLVER + '[solver]\ninitial = "bogus"\n',
            ["simulate"],
            "[solver] initial must be 'bump' or 'zero', got 'bogus'",
        ),
    ],
    ids=[
        "nu-nan",
        "dt-infinity",
        "nu-overflow",
        "eps-list-infinity",
        "deep-nesting",
        "int-overflows-float",
        "p-norm-overflows-float",
        "tail-p-overflows-float",
        "seed-overflows-float",
        "nested-list",
        "steps-overflow",
        "solver-guard-nan",
        "solver-guard-negative",
        "solver-guard-zero",
        "experiment-guard-nan",
        "experiment-guard-zero",
        "removed-solver-scheme",
        "removed-experiment-theta",
        "removed-experiment-guard",
        "removed-noise-g-kind",
        "huge-grid",
        "huge-step-count",
        "huge-noise-draw",
        "kernel-huge-grid",
        "kernel-empty-grid",
        "kernel-time-zero",
        "tail-p-zero",
        "tail-p-negative",
        "target-string",
        "target-nan",
        "target-grid-overflow",
        "target-null",
        "rate-tol-negative",
        "initial-bogus",
    ],
)
def test_config_numbers_must_be_usable_and_exit_2(tmp_path, capsys, text, argv, fragment):
    cfg = _write(tmp_path, text)
    if argv[0] == "rate":
        argv = ["rate", "--target", _write(tmp_path, argv[1], "target.json")]
    assert main([*argv, "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and fragment in err


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_workers_below_one_exit_2(tmp_path, capsys, workers):
    cfg = _write(tmp_path, SMALL_SOLVER + "[experiment]\nn_paths = 4\n")
    argv = ["experiment", "strong-rate", "--config", cfg, "--out", str(tmp_path / "w")]
    assert main([*argv, "--workers", workers]) == EXIT_CONFIG
    assert f"--workers must be >= 1, got {workers}" in capsys.readouterr().err


def test_workers_default_to_the_cpus_the_process_may_use(tmp_path, monkeypatch):
    """Without --workers an ensemble gets the affinity count, which also caps
    the pool, not the machine's CPU count."""
    import sgbh.cli as cli

    seen = []

    def runner(*args, workers, **kwargs):
        seen.append(workers)
        raise SetupError("stub runner")

    monkeypatch.setattr(cli, "run_strong_rate", runner)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    cfg = _write(tmp_path, SMALL_SOLVER)
    argv = ["experiment", "strong-rate", "--config", cfg, "--out", str(tmp_path / "w")]
    assert main(argv) == EXIT_CONFIG
    assert seen == [3]


def test_simulate_unknown_kind_in_config(tmp_path):
    cfg = _write(tmp_path, SMALL_SOLVER + '[solver]\nkind = "spectral-split"\n')
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x")]) == EXIT_CONFIG


def test_blowup_exits_3(tmp_path):
    cfg = _write(tmp_path, SMALL_SOLVER + "[solver]\nguard_threshold = 1e-6\n")
    code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "boom")])
    assert code == EXIT_NUMERIC


def test_an_overflowed_norm_of_a_finite_state_is_a_blowup(tmp_path, capsys):
    """Noise of size 1e110 leaves the state finite at the first step (max |a|
    about 5e107), but its L^8 norm overflows: the guard reports the norm it
    saw, not a non-finite state, and numpy warns of nothing it met."""
    cfg = _write(tmp_path, GOLDEN_RUN + "[noise]\ng_kappa0 = 1e110\n")
    argv = ["simulate", "--solver", "spde", "--config", cfg, "--out", str(tmp_path / "o")]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(argv) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err == "numerical abort: L^p norm inf exceeded threshold 1000 at t=0.01\n"


def _refuse(constant):
    raise ValueError(f"{constant} is not standard JSON")


def test_report_with_an_overflowed_statistic_is_standard_json(tmp_path):
    """Additive noise of size 1e110 under a 1e300 guard: every path dies at
    step 2 and keeps a censored sup of about 1e220, whose np.std overflows.
    report.json writes the overflowed stderr as null, as it writes the nan
    means, and report.csv keeps its cells."""
    cfg = _write(
        tmp_path,
        GOLDEN_RUN
        + "[model]\np_norm = 2\n[noise]\ng_kappa0 = 1e110\ng_kappa1 = 0.0\n"
        + "[solver]\nguard_threshold = 1e300\n",
    )
    out = tmp_path / "over"
    argv = ["experiment", "strong-rate", "--config", cfg, "--out", str(out), "--workers", "1"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(argv) == EXIT_SCI_FAIL
    rep = json.loads((out / "report.json").read_text(), parse_constant=_refuse)
    assert rep["censored_stderr"] == [None, None, None]
    assert all(m > 1e200 for m in rep["censored_mean"])
    assert rep["mean"] == rep["stderr"] == [None, None, None]
    assert (out / "report.csv").read_text() == (
        "eps,mean,stderr,n_rejected\n0.5,nan,nan,12\n0.25,nan,nan,12\n0.125,nan,nan,12\n"
    )


# --- experiment -----------------------------------------------------------------


def test_experiment_strong_rate_linear_passes(tmp_path):
    cfg = _write(
        tmp_path,
        LINEAR_MODEL
        + "[experiment]\nn_paths = 16\neps_list = [1.0, 0.5, 0.25]\nblock_size = 8\n",
    )
    out = tmp_path / "sr"
    code = main(["experiment", "strong-rate", "--config", cfg, "--out", str(out)])
    assert code == EXIT_PASS
    rep = json.loads((out / "report.json").read_text())
    assert rep["passed"] is True
    assert rep["slope"] == pytest.approx(4.0, abs=1e-9)
    lines = (out / "report.csv").read_text().strip().split("\n")
    assert lines[0] == "eps,mean,stderr,n_rejected"
    assert len(lines) == 4


def test_experiment_is_byte_stable_and_worker_independent(tmp_path):
    cfg = _write(
        tmp_path,
        SMALL_SOLVER
        + "[experiment]\nn_paths = 9\neps_list = [0.5, 0.25, 0.125]\nblock_size = 3\n",
    )
    outs = [tmp_path / f"e{i}" for i in range(3)]
    for out, workers in zip(outs, ("1", "1", "3")):
        code = main(
            [
                "experiment",
                "strong-rate",
                "--config",
                cfg,
                "--out",
                str(out),
                "--workers",
                workers,
            ]
        )
        assert code in (EXIT_PASS, EXIT_SCI_FAIL)
    ref_json = (outs[0] / "report.json").read_bytes()
    ref_csv = (outs[0] / "report.csv").read_bytes()
    for o in outs[1:]:
        assert (o / "report.json").read_bytes() == ref_json
        assert (o / "report.csv").read_bytes() == ref_csv


@pytest.mark.parametrize("kind", ["strong-rate", "clt"])
def test_convergence_report_key_order_is_pinned(tmp_path, kind):
    # every ensemble is coupled, yet reports keep the "coupled" key: readers
    # compare report keys with earlier reports
    cfg = _write(tmp_path, SMALL_SOLVER + "[experiment]\nn_paths = 4\n")
    out = tmp_path / kind
    code = main(["experiment", kind, "--config", cfg, "--out", str(out)])
    assert code in (EXIT_PASS, EXIT_SCI_FAIL)
    rep = json.loads((out / "report.json").read_text())
    assert list(rep) == [
        "experiment",
        "statistic",
        "p_norm",
        "n_paths",
        "coupled",
        "eps",
        "mean",
        "stderr",
        "n_rejected",
        "censored_mean",
        "censored_stderr",
        "slope",
        "intercept",
        "r_squared",
        "slope_target",
        "passed",
        "pass_details",
    ]
    assert rep["coupled"] is True


@pytest.mark.parametrize("kind", ["strong-rate", "clt"])
def test_experiment_that_rejects_every_path_fails(tmp_path, kind):
    """A guard below every path's norm rejects all paths: the slope cannot be
    fitted, the verdict is false and the run exits 1."""
    cfg = _write(
        tmp_path,
        "[solver]\ndt = 0.01\nt_end = 0.2\nn_modes = 8\nn_points = 64\nguard_threshold = 0.04\n"
        "[noise]\nn_modes = 8\n"
        "[experiment]\nn_paths = 20\nblock_size = 6\neps_list = [0.5, 0.25, 0.125]\n",
    )
    out = tmp_path / kind
    argv = ["experiment", kind, "--config", cfg, "--out", str(out), "--workers", "1"]
    assert main(argv) == EXIT_SCI_FAIL
    rep = json.loads((out / "report.json").read_text())
    assert rep["passed"] is False
    assert rep["n_rejected"] == [20, 20, 20]


def test_experiment_clt_degenerate_is_unjudged(tmp_path):
    cfg = _write(
        tmp_path,
        SMALL_SOLVER + "[experiment]\nn_paths = 4\neps_list = [0.01, 0.001]\n",
    )
    out = tmp_path / "clt"
    code = main(["experiment", "clt", "--config", cfg, "--out", str(out)])
    assert code == EXIT_PASS
    rep = json.loads((out / "report.json").read_text())
    assert rep["passed"] is None
    assert rep["slope"] is None


def test_experiment_heat_oracle_passes(tmp_path):
    cfg = _write(
        tmp_path,
        """
[model]
nu = 0.025
alpha = 0.0
beta = 0.0
[noise]
n_modes = 4
[solver]
dt = 0.001
t_end = 0.05
n_modes = 4
n_points = 16
[experiment]
n_paths = 100
eps_list = [1.0, 0.25]
""",
    )
    out = tmp_path / "oracle"
    code = main(["experiment", "heat-oracle", "--config", cfg, "--out", str(out)])
    assert code == EXIT_PASS
    rep = json.loads((out / "report.json").read_text())
    assert rep["passed"] is True
    assert (out / "report.csv").read_text().startswith("eps,mode,var_empirical")


def test_experiment_mdp_tail_monotone(tmp_path):
    cfg = _write(
        tmp_path,
        SMALL_SOLVER
        + "[experiment]\nn_paths = 24\neps_list = [0.01, 0.0001]\nrho_list = [0.25, 1.0, 4.0]\n",
    )
    out = tmp_path / "tails"
    code = main(["experiment", "mdp-tail", "--config", cfg, "--out", str(out)])
    assert code == EXIT_PASS
    rep = json.loads((out / "report.json").read_text())
    assert rep["experiment"] == "mdp_tail"
    assert rep["passed"] is True and rep["pass_details"] == {"monotone_in_rho": True}
    assert list(rep)[-2:] == ["passed", "pass_details"]
    assert (out / "report.csv").read_text().startswith("eps,rho,n_paths")


def test_experiment_mdp_tail_reads_solver_theta(tmp_path):
    from sgbh.deviation import SpeedFunction
    from sgbh.montecarlo import run_mdp_tail

    text = SMALL_SOLVER + "[experiment]\nn_paths = 16\nrho_list = [0.05, 0.25, 1.0]\n"
    reports = {}
    for theta in (0.25, 0.4):
        cfg = _write(tmp_path, text + f"[solver]\ntheta = {theta}\n", f"theta{theta}.cfg")
        out = tmp_path / f"theta{theta}"
        assert main(["experiment", "mdp-tail", "--config", cfg, "--out", str(out)]) == EXIT_PASS
        reports[theta] = (out / "report.json").read_text()
    assert reports[0.4] != reports[0.25]
    config = RunConfig.load(cfg)
    scfg = config.solver_config()
    direct = run_mdp_tail(
        config.ensemble_spec(),
        config.model_params(),
        config.noise_coefficient(),
        scfg,
        SpeedFunction(0.4),
        config.values["experiment"]["rho_list"],
        u0=config.initial_data(scfg),
        noise_spec=config.noise_spec(),
        tail_p=config.tail_p,
    )
    assert reports[0.4] == json.dumps(direct, indent=2)


# --- rate -----------------------------------------------------------------------


def _write_target(tmp_path, doc, name="target.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_rate_zero_target_converges_to_zero(tmp_path):
    cfg = _write(tmp_path, SMALL_SOLVER)
    target = _write_target(tmp_path, {"kind": "spectral", "values": [0.0]})
    out = tmp_path / "rate0"
    code = main(["rate", "--target", target, "--config", cfg, "--out", str(out)])
    assert code == EXIT_PASS
    rep = json.loads((out / "rate.json").read_text())
    assert rep["value"] == 0.0
    assert rep["converged"] is True
    assert rep["control_file"] == "control.bin"
    ctrl = load_control(str(out / "control.bin"))
    np.testing.assert_allclose(ctrl.hdot, 0.0, atol=0)


def test_rate_value_scales_quadratically(tmp_path):
    cfg = _write(tmp_path, SMALL_SOLVER)
    base = _write_target(tmp_path, {"kind": "spectral", "values": [0.001, 0.0005]}, "t1.json")
    double = _write_target(tmp_path, {"kind": "spectral", "values": [0.002, 0.001]}, "t2.json")
    o1, o2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["rate", "--target", base, "--config", cfg, "--out", str(o1)]) == EXIT_PASS
    assert main(["rate", "--target", double, "--config", cfg, "--out", str(o2)]) == EXIT_PASS
    v1 = json.loads((o1 / "rate.json").read_text())["value"]
    v2 = json.loads((o2 / "rate.json").read_text())["value"]
    assert v2 == pytest.approx(4.0 * v1, rel=1e-6)
    assert v1 > 0


def test_rate_grid_target_prices_as_its_sine_coefficients(tmp_path):
    """A grid target band-limited to the solver's modes projects exactly onto
    its coefficients, so it prices as the spectral target of those."""
    from sgbh.spectral import Grid1D, SpectralBasis

    cfg = _write(tmp_path, SMALL_SOLVER)
    coeffs = [0.001, 0.0005]
    grid = list(np.array(coeffs) @ SpectralBasis(Grid1D(64), 8).phi[:2])
    values = []
    for kind, target in (("spectral", coeffs), ("grid", grid)):
        path = _write_target(tmp_path, {"kind": kind, "values": target}, f"{kind}.json")
        out = tmp_path / kind
        assert main(["rate", "--target", path, "--config", cfg, "--out", str(out)]) == EXIT_PASS
        values.append(json.loads((out / "rate.json").read_text())["value"])
    assert values[0] > 0
    assert values[1] == pytest.approx(values[0], rel=1e-9)


@pytest.mark.parametrize(
    "doc",
    [
        {"kind": "grid", "values": [0.1] * 10},  # wrong grid length
        {"kind": "spectral", "values": [[0.1]]},  # not flat
        {"kind": "fourier", "values": [0.1]},  # unknown kind
        {"values": [0.1]},  # missing kind
        {"kind": "spectral", "values": [0.1] * 9},  # more coefficients than the 8 modes
    ],
)
def test_rate_rejects_malformed_targets(tmp_path, doc):
    cfg = _write(tmp_path, SMALL_SOLVER)
    target = _write_target(tmp_path, doc)
    code = main(["rate", "--target", target, "--config", cfg, "--out", str(tmp_path / "r")])
    assert code == EXIT_CONFIG


@pytest.mark.parametrize(
    "values, quantity",
    [
        ([1e155, 1.0], "target norm"),
        ([1e200], "target norm"),
        ([1e154], "rate function value"),
        ([1e140, 1.0], None),
    ],
    ids=["norm-1e155", "norm-1e200", "value-1e154", "finite-1e140"],
)
def test_rate_overflow_is_a_numerical_abort(tmp_path, capsys, values, quantity):
    """At the CLI defaults a target whose norm or value overflows exits 3,
    names the quantity and writes no rate.json; [1e140, 1] still prices to a
    finite value (about 8.7e280)."""
    target = _write_target(tmp_path, {"kind": "spectral", "values": values})
    out = tmp_path / "r"
    code = main(["rate", "--target", target, "--out", str(out)])
    if quantity is None:
        assert code == EXIT_PASS
        assert 1e280 < json.loads((out / "rate.json").read_text())["value"] < np.inf
        return
    assert code == EXIT_NUMERIC
    assert not (out / "rate.json").exists()
    assert f"numerical abort: non-finite {quantity} (inf)" in capsys.readouterr().err


def test_rate_missing_target_file(tmp_path):
    cfg = _write(tmp_path, SMALL_SOLVER)
    code = main(
        ["rate", "--target", str(tmp_path / "nope.json"), "--config", cfg, "--out", str(tmp_path / "r")]
    )
    assert code == EXIT_CONFIG


# --- validate-kernel ---------------------------------------------------------------


def test_validate_kernel_writes_passing_report(tmp_path):
    cfg = _write(tmp_path, "[solver]\nn_points = 64\n[experiment]\nkernel_t_count = 4\n")
    out = tmp_path / "kern"
    code = main(["validate-kernel", "--config", cfg, "--out", str(out)])
    assert code == EXIT_PASS
    fits = json.loads((out / "kernel_report.json").read_text())
    assert {f["estimate_id"] for f in fits} == {"kernel_sup", "kernel_gradient", "gaussian_lp"}
    assert all(f["pass"] for f in fits)


@pytest.mark.parametrize("n_points", [2048, 2049])
def test_validate_kernel_bounds_its_image_stack(tmp_path, capsys, monkeypatch, n_points):
    """Each sample time sums its images into one (n_points, n_points) kernel:
    n_points = 2048 keeps it within MAX_ARRAY_ENTRIES and runs, 2049 and up
    exit 2 before any kernel is tabulated."""

    class Ran(Exception):
        pass

    def ran(*args, **kwargs):
        raise Ran

    monkeypatch.setattr("sgbh.cli.validate_kernel_estimates", ran)
    cfg = _write(tmp_path, f"[solver]\nn_points = {n_points}\n")
    argv = ["validate-kernel", "--config", cfg, "--out", str(tmp_path / "k")]
    if n_points == 2048:
        with pytest.raises(Ran):
            main(argv)
        return
    assert main(argv) == EXIT_CONFIG
    assert f"n_points^2 = {n_points**2} must each be <= {1 << 22}" in capsys.readouterr().err


def test_validate_kernel_bad_t_count(tmp_path):
    cfg = _write(tmp_path, "[experiment]\nkernel_t_count = 1\n")
    assert main(["validate-kernel", "--config", cfg, "--out", str(tmp_path / "k")]) == EXIT_CONFIG


# --- console entry point -------------------------------------------------------------


REPO = Path(__file__).resolve().parents[1]

# The body of the console wrapper that pip writes for a `[project.scripts]`
# entry `name = "module:attr"`.
CONSOLE_WRAPPER = """\
import re
import sys
from {module} import {import_name}
if __name__ == '__main__':
    sys.argv[0] = re.sub(r'(-script\\.pyw|\\.exe)?$', '', sys.argv[0])
    sys.exit({attr}())
"""


def _declared_script_entry():
    """The `sgbh` entry of `[project.scripts]` in this checkout's pyproject.toml."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(REPO / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["sgbh"]


def _installed_script_entry():
    """The installed `sgbh` console_scripts entry, or None when no `sgbh`
    script is on PATH or no `sgbh` distribution is installed."""
    if shutil.which("sgbh") is None:
        return None
    try:
        dist = importlib.metadata.distribution("sgbh")
    except importlib.metadata.PackageNotFoundError:
        return None
    entries = dist.entry_points.select(group="console_scripts", name="sgbh")
    return next((ep.value for ep in entries), "")


def _run_simulate(command, tmp_path, **kwargs):
    cfg = _write(tmp_path, SMALL_SOLVER)
    out = tmp_path / "console"
    proc = subprocess.run(
        [*command, "simulate", "--config", cfg, "--out", str(out)],
        capture_output=True,
        text=True,
        **kwargs,
    )
    assert proc.returncode == 0, proc.stderr
    assert "simulate deterministic" in proc.stdout
    assert (out / "trajectory.bin").exists()


def test_console_script_runs(tmp_path):
    """Runs the `[project.scripts]` entry through pip's wrapper body in a fresh
    interpreter that imports this checkout's `src`; no install is needed."""
    module, attr = _declared_script_entry().split(":")
    script = tmp_path / "sgbh"
    wrapper = CONSOLE_WRAPPER.format(module=module, import_name=attr.split(".")[0], attr=attr)
    script.write_text(wrapper)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    _run_simulate([sys.executable, str(script)], tmp_path, env=env, cwd=tmp_path)


def test_python_dash_m_runs(tmp_path):
    """`python -m sgbh` runs the same entry point, with no runpy warning."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    command = [sys.executable, "-W", "error::RuntimeWarning", "-m", "sgbh"]
    _run_simulate(command, tmp_path, env=env, cwd=tmp_path)


_INSTALLED_ENTRY = _installed_script_entry()


@pytest.mark.skipif(
    _INSTALLED_ENTRY is None, reason="sgbh not installed: no sgbh script on PATH or no sgbh distribution"
)
def test_installed_console_script_runs(tmp_path):
    assert _INSTALLED_ENTRY == _declared_script_entry(), (
        f"installed sgbh console_scripts entry {_INSTALLED_ENTRY!r} differs from "
        "pyproject.toml; the install is stale, reinstall it"
    )
    _run_simulate([shutil.which("sgbh")], tmp_path)


# --- BLAS threads -------------------------------------------------------------


def _checkout_env(blas_threads):
    """This checkout's `src` on the path, with OPENBLAS_NUM_THREADS set to
    ``blas_threads`` or unset (and OMP_NUM_THREADS unset)."""
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    env.pop("OMP_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    return env


@pytest.mark.parametrize("kind", ["strong-rate", "clt"])
def test_reports_identical_across_blas_threads_and_workers(tmp_path, kind):
    """One BLAS thread (the CLI's default) or two (user-set), inline or on a
    two-worker pool: the same report bytes.  At the default n_points and
    n_modes the block GEMMs are large enough for OpenBLAS to split them."""
    cfg = _write(tmp_path, "[solver]\ndt = 0.005\nt_end = 0.05\n[experiment]\nn_paths = 256\n")
    reports = []
    for threads, workers in ((None, 1), (None, 2), ("2", 1), ("2", 2)):
        out = tmp_path / f"{kind}-{threads}-{workers}"
        command = [sys.executable, "-m", "sgbh", "experiment", kind, "--config", cfg]
        proc = subprocess.run(
            [*command, "--out", str(out), "--workers", str(workers)],
            capture_output=True,
            text=True,
            env=_checkout_env(threads),
            cwd=tmp_path,
        )
        assert proc.returncode in (EXIT_PASS, EXIT_SCI_FAIL), proc.stderr
        reports.append((out / "report.json").read_bytes())
    assert all(r == reports[0] for r in reports[1:])


BLAS_THREADS_AFTER_IMPORT = """\
import ctypes, glob, os
import sgbh
import numpy as np
libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
names = [p + "get_num_threads" + s for p in ("scipy_openblas_", "openblas_") for s in ("64_", "")]
found = [getattr(lib, n) for lib in map(ctypes.CDLL, sorted(libs)) for n in names if hasattr(lib, n)]
count = "none"
if found:
    found[0].argtypes, found[0].restype = [], ctypes.c_int
    count = found[0]()
print(count, os.environ.get("OPENBLAS_NUM_THREADS"))
"""


def _blas_threads_after_import(env):
    """numpy's OpenBLAS thread count and OPENBLAS_NUM_THREADS (or None) in a
    fresh interpreter that imports sgbh before numpy."""
    proc = subprocess.run(
        [sys.executable, "-c", BLAS_THREADS_AFTER_IMPORT], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    count, variable = proc.stdout.split()
    if count == "none":
        pytest.skip("numpy's OpenBLAS exports no get_num_threads symbol")
    return int(count), None if variable == "None" else variable


@pytest.mark.parametrize("blas_threads", [None, "2"])
def test_cli_uses_one_blas_thread_unless_the_user_set_one(blas_threads):
    count, variable = _blas_threads_after_import(_checkout_env(blas_threads))
    assert count == (1 if blas_threads is None else min(2, os.cpu_count() or 1))
    assert variable == ("1" if blas_threads is None else blas_threads)


def test_omp_num_threads_keeps_openblas_num_threads_unset():
    env = _checkout_env(None)
    env["OMP_NUM_THREADS"] = "2"
    count, variable = _blas_threads_after_import(env)
    assert variable is None
    assert count == min(2, os.cpu_count() or 1)


def test_import_loads_no_scipy():
    """numpy is the only runtime dependency; scipy serves the tests alone."""
    script = "import sys, sgbh.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=_checkout_env(None)
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_import_loads_no_process_pool():
    """concurrent.futures (and multiprocessing behind it) loads only when a
    pool starts."""
    script = (
        "import sys, sgbh.cli\n"
        "print([m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=_checkout_env(None)
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_benchmark_trace_probe_counts_one_draw_per_path(tmp_path):
    """The benchmark's trace probe patches ``montecarlo.sample_noise`` by name
    and counts each realization's increments: a heat-oracle run of 8 paths, 10
    steps and 8 noise modes is 8 draws of 80 normals."""
    cfg = _write(tmp_path, LINEAR_MODEL + "[experiment]\nn_paths = 8\neps_list = [1.0]\n")
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(REPO / "perfbench" / "probe.py"), "trace", str(spans),
         "experiment", "heat-oracle", "--config", cfg, "--out", str(tmp_path / "o"),
         "--workers", "1"],
        capture_output=True,
        text=True,
        env=_checkout_env(None),
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(spans.read_text())
    draws = [calls for path, calls, *_ in doc["paths"] if path[-1] == "noise.sample_noise"]
    assert draws == [8]
    assert doc["counters"]["noise.normals_drawn"] == 640


def _minor_faults(argv):
    """Exit code and minor page faults of a fresh interpreter running ``argv``."""
    proc = subprocess.Popen(
        [sys.executable, *argv], stdout=subprocess.DEVNULL, env=_checkout_env(None)
    )
    _, status, usage = os.wait4(proc.pid, 0)
    return os.waitstatus_to_exitcode(status), usage.ru_minflt


def test_ensemble_block_keeps_its_heap(tmp_path):
    """128 paths of each marching ensemble at the default shapes, two 64-path
    blocks of three eps: a block's march writes its (n_eps, B, n) grid work
    into buffers it allocates once, so its steps fault no fresh pages in under
    the C library's own malloc settings.  With a (B, n) temporary per grid
    term and glibc's start-up thresholds, strong-rate made about 115k minor
    faults and mdp-tail 176k; the interpreter and numpy take about 7k."""
    cfg = _write(tmp_path, "[experiment]\nn_paths = 128\n")
    for experiment in ("strong-rate", "clt", "mdp-tail"):
        code, faults = _minor_faults(
            ["-m", "sgbh", "experiment", experiment, "--config", cfg,
             "--out", str(tmp_path / experiment), "--workers", "1"]
        )
        assert code in (EXIT_PASS, EXIT_SCI_FAIL), experiment
        assert faults < 40_000, experiment


_LIBRARY_RUN = """
from sgbh.model import ModelParams, NoiseCoefficient
from sgbh.montecarlo import EnsembleSpec, run_strong_rate
from sgbh.noise import NoiseSpec
from sgbh.solvers import SolverConfig

run_strong_rate(
    EnsembleSpec(n_paths=128, base_seed=1, eps_list=(1e-2, 1e-3, 1e-4)),
    ModelParams(nu=0.1, alpha=1.0, beta=1.0, gamma=0.5, delta=1, p_norm=8),
    NoiseCoefficient("affine", 1.0, 0.5),
    SolverConfig(dt=1e-3, t_end=0.25, n_modes=32, n_points=256),
    noise_spec=NoiseSpec(n_modes=32, eta=0.3),
)
"""


def test_library_run_keeps_its_heap():
    """The same blocks from a direct ``run_strong_rate`` call, as a library
    caller makes it: the buffers are the march's, not the CLI's."""
    code, faults = _minor_faults(["-c", _LIBRARY_RUN])
    assert code == 0
    assert faults < 40_000
