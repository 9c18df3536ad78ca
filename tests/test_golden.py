"""Recorded outputs of small CLI runs, one JSON file per call under
``tests/golden/``.  The test reruns every call in-process and compares exit
code, stdout and each artifact with the recording: keys, strings, ints and
exit codes exactly, floats at a relative tolerance.

Bytes are not compared: OpenBLAS picks its kernel by CPU, so the same seed can
round differently on another machine.  A float equal within ``RTOL``, or
below ``ATOL`` on both sides (a value at rounding level, such as an even sine
mode of the symmetric bump or a solve's residual, has no digits to keep),
counts as equal.

Re-record on purpose only, and name every changed file in CHANGES.md::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import math
import re
import sys
from pathlib import Path

from sgbh.cli import main
from sgbh.noise import load_control
from sgbh.solvers import load_trajectory

GOLDEN = Path(__file__).resolve().parent / "golden"
RTOL, ATOL = 1e-12, 1e-14

CONFIG = """
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
HEAT = CONFIG + "[model]\nalpha = 0.0\nbeta = 0.0\n"
# a linear run whose control reaches 4 modes, and a target with a fifth: the
# rate cannot meet it, so the command writes its artifacts and exits 1
UNREACHABLE = HEAT + "[noise]\nn_modes = 4\ng_kappa1 = 0.0\n"
TARGET = '{"kind": "spectral", "values": [0.3, -0.2]}'
FAR_TARGET = '{"kind": "spectral", "values": [0.3, 0, 0, 0, 0.2]}'
# a guard so low that every path trips at the largest eps: that mean has no
# accepted path, so the report writes it as null and the run exits 1
CENSORED = CONFIG + "[solver]\nguard_threshold = 0.3\n"
CONFIGS = {
    "heat-oracle": "heat.cfg",
    "rate-unreachable": "unreachable.cfg",
    "strong-rate-censored": "censored.cfg",
}

# (name, argv after --config/--out); run in this order, since the skeleton
# and controlled runs read the control that rate writes
CASES = [
    *(
        (f"{kind}-w{w}", ["experiment", kind, "--workers", str(w)])
        for kind in ("strong-rate", "clt", "mdp-tail")
        for w in (1, 2)
    ),
    ("strong-rate-censored", ["experiment", "strong-rate", "--workers", "1"]),
    ("heat-oracle", ["experiment", "heat-oracle", "--workers", "1"]),
    *(
        (f"simulate-{k}", ["simulate", "--solver", k])
        for k in ("deterministic", "spde", "clt", "mdp")
    ),
    ("rate", ["rate", "--target", "{tmp}/target.json"]),
    ("rate-unreachable", ["rate", "--target", "{tmp}/far-target.json"]),
    *(
        (f"simulate-{k}", ["simulate", "--solver", k, "--control", "{tmp}/rate/control.bin"])
        for k in ("skeleton", "controlled")
    ),
    ("validate-kernel", ["validate-kernel"]),
]


def _cell(text):
    for kind in (int, float):
        with contextlib.suppress(ValueError):
            return kind(text)
    return text


def _read(path, tmp):
    """An artifact as JSON data: floats stay floats, so they compare at RTOL."""
    if path.suffix == ".json":
        return json.loads(path.read_text())
    if path.suffix == ".csv":
        return [[_cell(c) for c in line.split(",")] for line in path.read_text().splitlines()]
    if path.name == "trajectory.bin":
        traj = load_trajectory(path)
        grid = traj.basis.grid
        return {"n_points": grid.n_points, "dt": traj.dt, "coeffs": traj.coeffs.tolist()}
    if path.name == "control.bin":
        h = load_control(path)
        return {"dt": h.dt, "n_steps": h.n_steps, "hdot": h.hdot.tolist()}
    return path.read_text().replace(str(tmp), "{tmp}").splitlines()  # config.txt


def run_cases(tmp):
    """Run every case under ``tmp``; return {name: recorded outputs}."""
    tmp = Path(tmp)
    (tmp / "run.cfg").write_text(CONFIG)
    (tmp / "heat.cfg").write_text(HEAT)
    (tmp / "unreachable.cfg").write_text(UNREACHABLE)
    (tmp / "censored.cfg").write_text(CENSORED)
    (tmp / "target.json").write_text(TARGET)
    (tmp / "far-target.json").write_text(FAR_TARGET)
    runs = {}
    for name, argv in CASES:
        config = tmp / CONFIGS.get(name, "run.cfg")
        argv = [a.format(tmp=tmp) for a in argv]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([*argv, "--config", str(config), "--out", str(tmp / name)])
        runs[name] = {
            "exit": code,
            "stdout": out.getvalue().replace(str(tmp), "{tmp}"),
            "files": {p.name: _read(p, tmp) for p in sorted((tmp / name).iterdir())},
        }
    return runs


NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def _numbers(run):
    """``run`` with its stdout split around number tokens, the numbers parsed."""
    parts = NUMBER.split(run["stdout"])
    return {**run, "stdout": [_cell(p) if i % 2 else p for i, p in enumerate(parts)]}


def mismatches(got, want, where=""):
    """Where ``got`` differs from ``want``, as a list of messages."""
    if isinstance(want, float) and isinstance(got, float):
        close = math.isclose(got, want, rel_tol=RTOL) or max(abs(got), abs(want)) < ATOL
        same = close or (math.isnan(got) and math.isnan(want))
        return [] if same else [f"{where}: {got!r} != {want!r}"]
    if type(got) is not type(want):
        return [f"{where}: {got!r} != {want!r}"]
    if isinstance(want, dict):
        if got.keys() != want.keys():
            return [f"{where}: keys {sorted(got)} != {sorted(want)}"]
        return [m for k in want for m in mismatches(got[k], want[k], f"{where}/{k}")]
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{where}: length {len(got)} != {len(want)}"]
        pairs = enumerate(zip(got, want))
        return [m for i, (a, b) in pairs for m in mismatches(a, b, f"{where}[{i}]")]
    return [] if got == want else [f"{where}: {got!r} != {want!r}"]


def test_small_runs_match_the_recorded_outputs(tmp_path):
    runs = run_cases(tmp_path)
    assert sorted(runs) == sorted(p.stem for p in GOLDEN.glob("*.json"))
    for name, got in runs.items():
        want = json.loads((GOLDEN / f"{name}.json").read_text())
        assert mismatches(_numbers(got), _numbers(want), name)[:5] == []


def record(tmp):
    GOLDEN.mkdir(exist_ok=True)
    for old in GOLDEN.glob("*.json"):
        old.unlink()
    for name, run in run_cases(tmp).items():
        (GOLDEN / f"{name}.json").write_text(json.dumps(run, indent=1) + "\n")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        record(tmp)
    print(f"recorded {len(CASES)} runs in {GOLDEN}", file=sys.stderr)
