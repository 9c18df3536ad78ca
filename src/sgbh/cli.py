"""Command line entry point.

Config files are flat-sectioned ``key = value`` text with JSON values:

    [model]
    nu = 0.1
    delta = 1
    [experiment]
    eps_list = [0.01, 0.001, 0.0001]

Sections and keys are fixed; unknown ones are rejected with line diagnostics
(strict parsing catches typos like ``gama``).  Every key has a default, so an
empty or absent config is valid.  The resolved config is serialized back into
the output directory as ``config.txt`` for provenance, and reports carry no
timestamps, so a rerun with the same seed produces byte-identical artifacts.

Exit codes: 0 pass, 1 scientific fail (slope/oracle/rate did not meet its
gate), 2 usage or config error, 3 numerical abort (blowup or non-finite).
"""

import argparse
import json
import os
import sys

import numpy as np

from .deviation import SpeedFunction, rate_function_endpoint
from .model import ModelParams, NoiseCoefficient
from .montecarlo import (
    EnsembleSpec,
    default_initial,
    run_clt,
    run_heat_oracle,
    run_mdp_tail,
    run_strong_rate,
)
from .noise import BinaryFormatError, NoiseSpec, load_control, sample_noise, save_control
from .solvers import (
    BlowupError,
    BlowupGuard,
    NumericalAbortError,
    SolverConfig,
    save_trajectory,
    solve_clt_limit,
    solve_controlled,
    solve_deterministic,
    solve_mdp_process,
    solve_skeleton,
    solve_spde,
)
from .spectral import Field, build_grid, validate_kernel_estimates

__all__ = ["main", "RunConfig", "ConfigError"]

EXIT_PASS = 0
EXIT_SCI_FAIL = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


class ConfigError(ValueError):
    pass


_SCHEMA = {
    "model": {
        "nu": 0.1,
        "alpha": 1.0,
        "beta": 1.0,
        "gamma": 0.5,
        "delta": 1,
        "p_norm": 8,
    },
    "noise": {
        "n_modes": 32,
        "eta": 0.3,
        "g_kind": "affine",
        "g_kappa0": 1.0,
        "g_kappa1": 0.5,
    },
    "solver": {
        "dt": 0.001,
        "t_end": 0.25,
        "n_modes": 32,
        "n_points": 256,
        "scheme": "exponential-euler",
        "kind": "deterministic",
        "eps": 0.01,
        "theta": 0.25,
        "initial": "bump",
        "guard_threshold": 1000.0,
    },
    "experiment": {
        "kind": "strong_rate",
        "n_paths": 500,
        "eps_list": [0.01, 0.001, 0.0001],
        "coupled": True,
        "block_size": 128,
        "guard_threshold": 1000.0,
        "theta": 0.25,
        "rho_list": [0.5, 1.0, 2.0, 4.0],
        "tail_p": 2,
        "oracle_g": 1.0,
        "rate_tol": 1e-8,
        "kernel_t_min": 0.01,
        "kernel_t_max": 0.5,
        "kernel_t_count": 8,
    },
    "output": {
        "directory": "sgbh-out",
        "seed": 12345,
    },
}


def _check_type(section, key, value, default, lineno):
    where = f"line {lineno}: [{section}] {key}"
    if isinstance(default, bool):
        if not isinstance(value, bool):
            raise ConfigError(f"{where} must be true/false, got {value!r}")
    elif isinstance(default, int):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{where} must be an integer, got {value!r}")
    elif isinstance(default, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{where} must be a number, got {value!r}")
        value = float(value)
    elif isinstance(default, str):
        if not isinstance(value, str):
            raise ConfigError(f"{where} must be a string, got {value!r}")
    elif isinstance(default, list):
        if not isinstance(value, list):
            raise ConfigError(f"{where} must be a list, got {value!r}")
    return value


class RunConfig:
    """Validated run configuration; ``values[section][key]`` holds JSON data."""

    def __init__(self, values=None):
        self.values = {s: dict(d) for s, d in _SCHEMA.items()}
        if values is not None:
            for s, d in values.items():
                self.values[s].update(d)

    def __eq__(self, other):
        return isinstance(other, RunConfig) and self.values == other.values

    @classmethod
    def parse(cls, text):
        cfg = cls()
        section = None
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("[") and line.endswith("]"):
                name = line[1:-1].strip()
                if name not in _SCHEMA:
                    raise ConfigError(
                        f"line {lineno}: unknown section [{name}]; "
                        f"expected one of {sorted(_SCHEMA)}"
                    )
                section = name
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
            if section is None:
                raise ConfigError(f"line {lineno}: key before any [section] header")
            key, _, rest = line.partition("=")
            key = key.strip()
            if key not in _SCHEMA[section]:
                raise ConfigError(
                    f"line {lineno}: unknown key {key!r} in [{section}]; "
                    f"expected one of {sorted(_SCHEMA[section])}"
                )
            try:
                value = json.loads(rest.strip())
            except json.JSONDecodeError as exc:
                raise ConfigError(f"line {lineno}: value for {key!r} is not valid JSON ({exc})")
            cfg.values[section][key] = _check_type(
                section, key, value, _SCHEMA[section][key], lineno
            )
        return cfg

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.parse(fh.read())

    def serialize(self):
        lines = []
        for section, defaults in _SCHEMA.items():
            lines.append(f"[{section}]")
            for key in defaults:
                lines.append(f"{key} = {json.dumps(self.values[section][key])}")
            lines.append("")
        return "\n".join(lines)

    # typed accessors; validation errors surface as ConfigError -> exit 2

    def _wrap(self, builder):
        try:
            return builder()
        except ValueError as exc:
            raise ConfigError(str(exc))

    def model_params(self):
        m = self.values["model"]
        return self._wrap(
            lambda: ModelParams(
                nu=m["nu"],
                alpha=m["alpha"],
                beta=m["beta"],
                gamma=m["gamma"],
                delta=m["delta"],
                p_norm=m["p_norm"],
            )
        )

    def noise_spec(self):
        n = self.values["noise"]
        return self._wrap(lambda: NoiseSpec(n_modes=n["n_modes"], eta=n["eta"]))

    def noise_coefficient(self):
        n = self.values["noise"]
        return self._wrap(
            lambda: NoiseCoefficient(n["g_kind"], kappa0=n["g_kappa0"], kappa1=n["g_kappa1"])
        )

    def solver_config(self):
        s = self.values["solver"]
        return self._wrap(
            lambda: SolverConfig(
                dt=s["dt"],
                t_end=s["t_end"],
                n_modes=s["n_modes"],
                n_points=s["n_points"],
                scheme=s["scheme"],
            )
        )

    def ensemble_spec(self, kind):
        e = self.values["experiment"]
        return self._wrap(
            lambda: EnsembleSpec(
                n_paths=e["n_paths"],
                base_seed=self.seed,
                eps_list=tuple(e["eps_list"]),
                coupled=e["coupled"],
                experiment=kind,
                block_size=e["block_size"],
                guard_threshold=e["guard_threshold"],
            )
        )

    def initial_data(self, scfg):
        choice = self.values["solver"]["initial"]
        if choice == "bump":
            return default_initial(build_grid(scfg.n_points))
        if choice == "zero":
            return np.zeros(scfg.n_modes)
        raise ConfigError(f"[solver] initial must be 'bump' or 'zero', got {choice!r}")

    @property
    def seed(self):
        return self.values["output"]["seed"]

    @property
    def outdir(self):
        return self.values["output"]["directory"]


def _write_provenance(config, outdir):
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "config.txt"), "w") as fh:
        fh.write(config.serialize())


def _load_target_field(path, scfg):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read target file {path!r}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"target file {path!r} is not valid JSON: {exc}")
    if not isinstance(doc, dict) or "kind" not in doc or "values" not in doc:
        raise ConfigError("target JSON must be an object with 'kind' and 'values'")
    values = np.asarray(doc["values"], dtype=float)
    if values.ndim != 1:
        raise ConfigError("target 'values' must be a flat list of numbers")
    if doc["kind"] == "grid":
        if values.size != scfg.n_points:
            raise ConfigError(
                f"grid target needs {scfg.n_points} values, got {values.size}"
            )
        return Field.from_grid(values)
    if doc["kind"] == "spectral":
        if values.size > scfg.n_modes:
            raise ConfigError(
                f"spectral target has {values.size} coefficients > n_modes {scfg.n_modes}"
            )
        coeffs = np.zeros(scfg.n_modes)
        coeffs[: values.size] = values
        return coeffs
    raise ConfigError(f"target kind must be 'grid' or 'spectral', got {doc['kind']!r}")


def cmd_simulate(config, args):
    params = config.model_params()
    scfg = config.solver_config()
    nspec = config.noise_spec()
    g = config.noise_coefficient()
    kind = args.solver if args.solver else config.values["solver"]["kind"]
    eps = config.values["solver"]["eps"]
    theta = config.values["solver"]["theta"]
    guard = BlowupGuard(threshold=config.values["solver"]["guard_threshold"])
    u0 = config.initial_data(scfg)

    control = None
    if args.control is not None:
        try:
            control = load_control(args.control)
        except OSError as exc:
            raise ConfigError(f"cannot read control file {args.control!r}: {exc}")
    if kind in ("skeleton",) and control is None:
        raise ConfigError(f"--control is required for the {kind} solver")

    def noise():
        return sample_noise(nspec, scfg.dt, scfg.n_steps, config.seed, path_index=0)

    if kind == "deterministic":
        traj = solve_deterministic(u0, params, scfg, guard=guard)
    elif kind == "spde":
        traj = solve_spde(u0, params, g, eps, noise(), scfg, guard=guard)
    elif kind == "clt":
        u0_traj = solve_deterministic(u0, params, scfg)
        traj = solve_clt_limit(u0_traj, params, g, noise(), scfg, guard=guard)
    elif kind == "mdp":
        u0_traj = solve_deterministic(u0, params, scfg)
        traj = solve_mdp_process(
            u0_traj, params, g, eps, SpeedFunction(theta), noise(), scfg, guard=guard
        )
    elif kind == "controlled":
        u0_traj = solve_deterministic(u0, params, scfg)
        traj = solve_controlled(
            u0_traj, params, g, eps, SpeedFunction(theta), noise(), control, scfg, guard=guard
        )
    elif kind == "skeleton":
        u0_traj = solve_deterministic(u0, params, scfg)
        traj = solve_skeleton(
            u0_traj, params, g, control, scfg, guard=guard, noise_spec=nspec
        )
    else:
        raise ConfigError(f"unknown solver kind {kind!r}")

    outdir = config.outdir
    _write_provenance(config, outdir)
    save_trajectory(traj, os.path.join(outdir, "trajectory.bin"))
    traj.to_csv(os.path.join(outdir, "norms.csv"))
    print(f"simulate {kind}: {traj.n_steps} steps -> {outdir}/trajectory.bin, norms.csv")
    return EXIT_PASS


_EXPERIMENT_NAMES = {
    "strong-rate": "strong_rate",
    "clt": "clt",
    "heat-oracle": "heat_oracle",
    "mdp-tail": "mdp_tail",
}


def cmd_experiment(config, args):
    kind = _EXPERIMENT_NAMES[args.kind]
    params = config.model_params()
    scfg = config.solver_config()
    nspec = config.noise_spec()
    spec = config.ensemble_spec(kind)
    e = config.values["experiment"]
    workers = args.workers
    outdir = config.outdir
    u0 = config.initial_data(scfg)

    if kind == "heat_oracle":
        report = run_heat_oracle(
            spec, params, scfg, noise_spec=nspec, workers=workers, g_constant=e["oracle_g"]
        )
        passed = report.passed
        summary = f"frac_z_within={report.frac_within} means_ok={report.means_ok}"
    elif kind == "mdp_tail":
        g = config.noise_coefficient()
        speed = SpeedFunction(e["theta"])
        report = run_mdp_tail(
            spec,
            params,
            g,
            scfg,
            speed,
            e["rho_list"],
            u0=u0,
            noise_spec=nspec,
            tail_p=e["tail_p"],
            workers=workers,
        )
        passed = report.monotone_in_rho()
        summary = f"monotone_in_rho={passed}"
    else:
        g = config.noise_coefficient()
        runner = run_strong_rate if kind == "strong_rate" else run_clt
        report = runner(spec, params, g, scfg, u0=u0, noise_spec=nspec, workers=workers)
        passed = report.passed
        summary = (
            f"slope={report.slope} target={report.slope_target} "
            f"r2={report.r_squared} passed={report.passed}"
        )

    _write_provenance(config, outdir)
    report.to_csv(os.path.join(outdir, "report.csv"))
    with open(os.path.join(outdir, "report.json"), "w") as fh:
        fh.write(report.to_json())
    print(f"experiment {args.kind}: {summary} -> {outdir}/report.json")
    if passed is None or passed:
        return EXIT_PASS
    return EXIT_SCI_FAIL


def cmd_rate(config, args):
    params = config.model_params()
    scfg = config.solver_config()
    nspec = config.noise_spec()
    g = config.noise_coefficient()
    target = _load_target_field(args.target, scfg)
    u0 = config.initial_data(scfg)
    u0_traj = solve_deterministic(u0, params, scfg)
    result = rate_function_endpoint(
        target,
        u0_traj,
        params,
        g,
        scfg,
        tol=config.values["experiment"]["rate_tol"],
        noise_spec=nspec,
    )
    outdir = config.outdir
    _write_provenance(config, outdir)
    save_control(result.control, os.path.join(outdir, "control.bin"))
    with open(os.path.join(outdir, "rate.json"), "w") as fh:
        fh.write(result.to_json(control_file="control.bin"))
    print(
        f"rate: value={result.value:.8g} residual={result.endpoint_residual:.3g} "
        f"iterations={result.iterations} converged={result.converged}"
    )
    return EXIT_PASS if result.converged else EXIT_SCI_FAIL


def cmd_validate_kernel(config, args):
    e = config.values["experiment"]
    if e["kernel_t_count"] < 2:
        raise ConfigError("kernel_t_count must be >= 2")
    t_samples = np.linspace(e["kernel_t_min"], e["kernel_t_max"], e["kernel_t_count"])
    grid = build_grid(config.values["solver"]["n_points"])
    report = validate_kernel_estimates(t_samples, grid)
    outdir = config.outdir
    _write_provenance(config, outdir)
    with open(os.path.join(outdir, "kernel_report.json"), "w") as fh:
        fh.write(report.to_json())
    for fit in report.fits:
        print(
            f"{fit.estimate_id}: C={fit.fitted_C:.4g} a={fit.fitted_a:.4g} "
            f"max_violation={fit.max_violation:.3g} pass={fit.passed}"
        )
    return EXIT_PASS if report.all_pass() else EXIT_SCI_FAIL


def _build_parser():
    # SUPPRESS keeps a subparser from clobbering flags given before the
    # subcommand; real defaults are set once on the main parser below
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--config", help="path to a run-config text file")
    common.add_argument("--seed", type=int, help="override [output] seed")
    common.add_argument("--out", help="override [output] directory")
    common.add_argument(
        "--workers",
        type=int,
        help="ensemble worker processes (default: available parallelism)",
    )
    parser = argparse.ArgumentParser(
        prog="sgbh",
        description="Spectral solvers and deviation analysis for the stochastic "
        "generalized Burgers-Huxley equation on (0,1).",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("simulate", parents=[common], help="single-path solver run")
    ps.add_argument(
        "--solver",
        choices=["deterministic", "spde", "clt", "mdp", "controlled", "skeleton"],
        help="which evolution problem to integrate (default: [solver] kind)",
    )
    ps.add_argument("--control", help="control path binary for controlled/skeleton runs")

    pe = sub.add_parser("experiment", parents=[common], help="ensemble experiment")
    pe.add_argument("kind", choices=sorted(_EXPERIMENT_NAMES))

    pr = sub.add_parser("rate", parents=[common], help="minimum-energy rate function")
    pr.add_argument("--target", required=True, help="endpoint target Field as JSON")

    sub.add_parser("validate-kernel", parents=[common], help="heat kernel bound fits")
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    # shared flags use SUPPRESS (so a subparser never clobbers a flag given
    # before the subcommand); fill the real defaults for absent ones here
    for key, value in (
        ("config", None),
        ("seed", None),
        ("out", None),
        ("workers", os.cpu_count() or 1),
    ):
        if not hasattr(args, key):
            setattr(args, key, value)
    try:
        if args.config is not None:
            try:
                config = RunConfig.load(args.config)
            except OSError as exc:
                raise ConfigError(f"cannot read config file {args.config!r}: {exc}")
        else:
            config = RunConfig()
        if args.seed is not None:
            config.values["output"]["seed"] = args.seed
        if args.out is not None:
            config.values["output"]["directory"] = args.out

        if args.command == "simulate":
            return cmd_simulate(config, args)
        if args.command == "experiment":
            return cmd_experiment(config, args)
        if args.command == "rate":
            return cmd_rate(config, args)
        if args.command == "validate-kernel":
            return cmd_validate_kernel(config, args)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BinaryFormatError as exc:
        print(f"malformed input file: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (BlowupError, NumericalAbortError) as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
