"""The benchmark's workloads and the inputs it generates for them.

Every input is made from the workload seed before any timing starts and
written as files; the program under test receives only those files.  Each
workload has a reference job on fixed inputs, checked against values recorded
in ``reference.json``, and all but the heat oracle have seed jobs whose inputs
vary with the seed.  Operations cycle through the jobs, so every job runs
more than once and its reruns can be compared byte for byte.
"""

import json
import os
import random
import sys
from dataclasses import dataclass

# sizes that keep every smoke operation well under a second
_SMOKE_SOLVER = {"dt": 0.01, "t_end": 0.1, "n_modes": 8, "n_points": 64}
_SMOKE_NOISE = {"n_modes": 8}
_SMOKE_ENSEMBLE = {"n_paths": 8, "block_size": 4}


@dataclass(frozen=True)
class Workload:
    name: str
    command: tuple  # CLI words before the flags
    workers: int | None  # None: the command takes no --workers
    artifact: str  # the byte-stable result file the command writes
    sections: dict  # config overrides at benchmark size; the rest are CLI defaults
    smoke_sections: dict
    heat: bool = False  # the heat oracle uses constant g and no reference solve
    reference_keys: tuple | None = None  # None: compare the whole artifact
    reference_rtol: float = 1e-7


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="heat-oracle",
            command=("experiment", "heat-oracle"),
            workers=1,
            artifact="report.json",
            # the acceptance criterion 3 shape with 512 paths (four full blocks)
            sections={
                "model": {"nu": 0.025, "alpha": 0.0, "beta": 0.0},
                "solver": {"dt": 1e-4, "t_end": 0.25, "n_modes": 32, "n_points": 128},
                "experiment": {"n_paths": 512, "eps_list": [1.0], "oracle_g": 1.0},
            },
            smoke_sections={
                "model": {"nu": 0.025, "alpha": 0.0, "beta": 0.0},
                "solver": _SMOKE_SOLVER,
                "noise": _SMOKE_NOISE,
                "experiment": dict(_SMOKE_ENSEMBLE, eps_list=[1.0]),
            },
            heat=True,
        ),
        Workload(
            name="strong-rate",
            command=("experiment", "strong-rate"),
            workers=1,
            artifact="report.json",
            # CLI defaults: the acceptance criterion 4 full ensemble
            sections={},
            smoke_sections={
                "solver": _SMOKE_SOLVER,
                "noise": _SMOKE_NOISE,
                "experiment": _SMOKE_ENSEMBLE,
            },
        ),
        Workload(
            name="rate",
            command=("rate",),
            workers=None,
            artifact="rate.json",
            sections={},
            smoke_sections={"solver": _SMOKE_SOLVER, "noise": _SMOKE_NOISE},
            # LSQR may stop one iteration earlier or later after a roundoff change
            reference_keys=("value", "converged"),
            reference_rtol=1e-6,
        ),
        Workload(
            name="clt-pool",
            command=("experiment", "clt"),
            workers=2,
            artifact="report.json",
            sections={"experiment": {"n_paths": 256}},
            smoke_sections={
                "solver": _SMOKE_SOLVER,
                "noise": _SMOKE_NOISE,
                "experiment": _SMOKE_ENSEMBLE,
            },
        ),
    )
}

# the rate reference job prices the first target drawn from this seed
REFERENCE_TARGET_SEED = 0
# rate targets drawn from the workload seed, priced beside the reference one
RATE_SEED_TARGETS = 4


@dataclass
class Job:
    key: str
    config: str
    target: str | None = None
    action: float | None = None  # Cameron-Martin action of the generating control
    minimal: bool = False  # that control is the minimum-norm one: its action is the rate
    reference: bool = False

    def argv(self, wl, outdir, workers):
        argv = [*wl.command, "--config", self.config, "--out", outdir]
        if self.target is not None:
            argv += ["--target", self.target]
        if workers is not None:
            argv += ["--workers", str(workers)]
        return argv


def config_text(wl, smoke, seed=None):
    """Config file text; ``seed`` None leaves the CLI's default [output] seed."""
    sections = dict(wl.smoke_sections if smoke else wl.sections)
    if seed is not None:
        sections["output"] = {"seed": seed}
    lines = [f"# perfbench {wl.name}{' smoke' if smoke else ''}"]
    for name, values in sections.items():
        lines.append(f"[{name}]")
        lines += [f"{k} = {json.dumps(v)}" for k, v in values.items()]
    return "\n".join(lines) + "\n"


def program_seed(seed):
    return random.Random(seed).randrange(1, 2**31)


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)
    return path


def rate_targets(root, cfg_text, seed, count):
    """Skeleton endpoints of random controls: reachable by construction.

    Even-numbered controls are drawn from the range of the endpoint map's
    adjoint, so each is the minimum-norm control reaching its endpoint and
    its action is the exact rate value.  Odd-numbered controls are dense
    white noise, whose action only bounds the rate; these are the targets on
    which LSQR at its default tolerance often stops short.  Returns
    (values, action, minimal) triples.
    """
    sys.path.insert(0, os.path.join(root, "src"))
    import numpy as np
    from sgbh.cli import RunConfig
    from sgbh.deviation import EndpointControlMap
    from sgbh.noise import ControlPath
    from sgbh.solvers import solve_deterministic

    config = RunConfig.parse(cfg_text)
    params, scfg = config.model_params(), config.solver_config()
    nspec, g = config.noise_spec(), config.noise_coefficient()
    u0_traj = solve_deterministic(config.initial_data(scfg), params, scfg)
    cmap = EndpointControlMap(u0_traj, params, g, scfg, noise_spec=nspec)
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        minimal = i % 2 == 0
        if minimal:
            hdot = cmap.adjoint(rng.standard_normal(scfg.n_modes))
        else:
            hdot = rng.standard_normal((nspec.n_modes, scfg.n_steps))
        endpoint = cmap.forward(hdot)
        action = ControlPath(dt=scfg.dt, n_steps=scfg.n_steps, hdot=hdot).action()
        out.append(([float(v) for v in endpoint], float(action), minimal))
    return out


def make_jobs(root, wl, seed, smoke, workdir):
    """Write the inputs of every job into ``workdir`` and return the jobs."""
    if wl.artifact == "rate.json":
        text = config_text(wl, smoke)
        cfg = _write(os.path.join(workdir, "rate.cfg"), text)
        drawn = [("ref", *rate_targets(root, text, REFERENCE_TARGET_SEED, 1)[0])]
        drawn += [
            (f"t{i + 1}", *target)
            for i, target in enumerate(rate_targets(root, text, seed, RATE_SEED_TARGETS))
        ]
        jobs = []
        for name, values, action, minimal in drawn:
            target = _write(
                os.path.join(workdir, f"target-{name}.json"),
                json.dumps({"kind": "spectral", "values": values}),
            )
            jobs.append(
                Job(name, cfg, target, action, minimal=minimal, reference=name == "ref")
            )
        return jobs
    ref = _write(os.path.join(workdir, "ref.cfg"), config_text(wl, smoke))
    if wl.heat:
        # the oracle's verdict asks all 32 mode means to lie within 3 standard
        # errors, so it fails by chance on about one program seed in twelve;
        # the heat oracle runs only the fixed inputs of its reference job
        return [Job("ref", ref, reference=True)]
    own = _write(os.path.join(workdir, "seed.cfg"), config_text(wl, smoke, program_seed(seed)))
    return [Job("ref", ref, reference=True), Job("seed", own)]


def read_config(path):
    """Parse the resolved ``config.txt`` the CLI writes beside its artifacts."""
    values, section = {}, None
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("[") and line.endswith("]"):
                section = values.setdefault(line[1:-1], {})
            elif "=" in line and section is not None:
                key, _, raw = line.partition("=")
                section[key.strip()] = json.loads(raw)
    return values


def path_steps(wl, outdir, doc):
    """Solver path-steps an operation performed, from its own artifacts.

    Ensembles step n_paths x n_eps x n_steps.  ``rate`` with ``itn`` LSQR
    iterations runs itn + 2 forward and itn + 1 adjoint sweeps of n_steps.
    """
    cfg = read_config(os.path.join(outdir, "config.txt"))
    n_steps = round(cfg["solver"]["t_end"] / cfg["solver"]["dt"])
    if wl.artifact == "rate.json":
        return (2 * doc["iterations"] + 3) * n_steps
    exp = cfg["experiment"]
    return exp["n_paths"] * len(exp["eps_list"]) * n_steps
