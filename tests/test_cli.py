"""End-to-end tests of the command line: config parsing with line
diagnostics, the four subcommands, exit codes, and byte-stable artifacts."""

import importlib.metadata
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sgbh.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_PASS, EXIT_SCI_FAIL, RunConfig, main
from sgbh.noise import load_control

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
g_kind = "constant"
g_kappa0 = 1.0
g_kappa1 = 0.0
n_modes = 8
[solver]
dt = 0.005
t_end = 0.05
n_modes = 8
n_points = 64
"""


def _write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# --- config parsing -----------------------------------------------------------


def test_config_defaults_round_trip():
    cfg = RunConfig()
    assert cfg.values["model"]["nu"] == 0.1
    assert cfg.values["solver"]["scheme"] == "exponential-euler"
    assert RunConfig.parse(cfg.serialize()) == cfg
    parsed = RunConfig.parse("[model]\nnu = 0.2\n\n# comment\n[output]\nseed = 7\n")
    assert parsed.values["model"]["nu"] == 0.2
    assert parsed.seed == 7
    assert parsed.values["model"]["alpha"] == 1.0  # untouched default


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
        ("[experiment]\ncoupled = 1\n", "must be true/false"),
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


def test_simulate_skeleton_requires_control(tmp_path):
    cfg = _write(tmp_path, SMALL_SOLVER)
    code = main(["simulate", "--solver", "skeleton", "--config", cfg, "--out", str(tmp_path / "s")])
    assert code == EXIT_CONFIG


def test_simulate_skeleton_with_zero_control_is_zero(tmp_path):
    from sgbh.noise import ControlPath, save_control

    ctrl = tmp_path / "zero.bin"
    save_control(ControlPath.zero(8, 0.005, 10), ctrl)
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


@pytest.mark.parametrize("damage", ["truncated", "too_long"])
def test_simulate_malformed_control_file_exits_2(tmp_path, capsys, damage):
    from sgbh.noise import ControlPath, save_control

    ctrl = tmp_path / "ctrl.bin"
    save_control(ControlPath.zero(8, 0.005, 10), ctrl)
    raw = ctrl.read_bytes()
    ctrl.write_bytes(raw[:3] if damage == "truncated" else raw + bytes(8))
    cfg = _write(tmp_path, SMALL_SOLVER)
    argv = ["simulate", "--solver", "skeleton", "--control", str(ctrl), "--config", cfg]
    assert main([*argv, "--out", str(tmp_path / "sk")]) == EXIT_CONFIG
    assert "malformed input file" in capsys.readouterr().err


def test_grid_too_coarse_for_modes_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path, "[solver]\nn_points = 64\nn_modes = 32\n")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "g")]) == EXIT_CONFIG
    assert "grid too coarse" in capsys.readouterr().err


def test_simulate_unknown_kind_in_config(tmp_path):
    cfg = _write(tmp_path, SMALL_SOLVER + '[solver]\nkind = "spectral-split"\n')
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x")]) == EXIT_CONFIG


def test_blowup_exits_3(tmp_path):
    cfg = _write(tmp_path, SMALL_SOLVER + "[solver]\nguard_threshold = 1e-6\n")
    code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "boom")])
    assert code == EXIT_NUMERIC


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
    assert rep["monotone_in_rho"] is True
    assert (out / "report.csv").read_text().startswith("eps,rho,n_paths")


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


@pytest.mark.parametrize(
    "doc",
    [
        {"kind": "grid", "values": [0.1] * 10},  # wrong grid length
        {"kind": "spectral", "values": [[0.1]]},  # not flat
        {"kind": "fourier", "values": [0.1]},  # unknown kind
        {"values": [0.1]},  # missing kind
    ],
)
def test_rate_rejects_malformed_targets(tmp_path, doc):
    cfg = _write(tmp_path, SMALL_SOLVER)
    target = _write_target(tmp_path, doc)
    code = main(["rate", "--target", target, "--config", cfg, "--out", str(tmp_path / "r")])
    assert code == EXIT_CONFIG


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
