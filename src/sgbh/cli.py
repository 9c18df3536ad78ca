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
gate), 2 usage, config or setup error (inputs that cannot run together),
3 numerical abort (blowup or non-finite).
"""

import argparse
import contextlib
import json
import math
import os
import sys

import numpy as np

from .deviation import SpeedFunction, rate_function_endpoint
from .model import ModelParams, NoiseCoefficient
from .montecarlo import (
    EnsembleSpec,
    _available_cpus,
    default_initial,
    run_clt,
    run_heat_oracle,
    run_mdp_tail,
    run_strong_rate,
)
from .noise import BinaryFormatError, NoiseSpec, control_bytes, load_control, sample_noise
from .solvers import (
    MAX_ARRAY_ENTRIES,
    BlowupError,
    BlowupGuard,
    NumericalAbortError,
    SetupError,
    SolverConfig,
    _check_entries,
    solve_clt_limit,
    solve_controlled,
    solve_deterministic,
    solve_skeleton,
    solve_spde,
    trajectory_bytes,
)
from .spectral import Field, Grid1D, validate_kernel_estimates

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
        "g_kappa0": 1.0,
        "g_kappa1": 0.5,
    },
    "solver": {
        "dt": 0.001,
        "t_end": 0.25,
        "n_modes": 32,
        "n_points": 256,
        "kind": "deterministic",
        "eps": 0.01,
        "theta": 0.25,
        "initial": "bump",
        "guard_threshold": 1000.0,
    },
    "experiment": {
        "n_paths": 500,
        "eps_list": [0.01, 0.001, 0.0001],
        "block_size": 64,
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


def _finite_float(token):
    """JSON hook for number literals and NaN/Infinity: refuse what is not finite
    (a literal such as 1e999 overflows to inf)."""
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"{token} is not a finite number")
    return value


def _as_float(where, value):
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{where} is too large for a float") from None


def _check_type(where, value, default):
    """``value`` checked against the type of its ``default``.  An integer too
    large for a float is refused too: the numerics read integers as floats."""
    if isinstance(default, int):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{where} must be an integer, got {value!r}")
        _as_float(where, value)
    elif isinstance(default, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{where} must be a number, got {value!r}")
        value = _as_float(where, value)
    elif isinstance(default, str):
        if not isinstance(value, str):
            raise ConfigError(f"{where} must be a string, got {value!r}")
    elif isinstance(default, list):
        if not isinstance(value, list):
            raise ConfigError(f"{where} must be a list, got {value!r}")
        for item in value:  # every list in the schema holds numbers
            _check_type(where, item, 0.0)
    return value


class RunConfig:
    """Validated run configuration; ``values[section][key]`` holds JSON data."""

    def __init__(self):
        self.values = {s: dict(d) for s, d in _SCHEMA.items()}

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
                value = json.loads(
                    rest.strip(), parse_float=_finite_float, parse_constant=_finite_float
                )
            except (ValueError, RecursionError) as exc:
                raise ConfigError(
                    f"line {lineno}: value for {key!r} is not valid JSON ({exc})"
                ) from None
            cfg.values[section][key] = _check_type(
                f"line {lineno}: [{section}] {key}", value, _SCHEMA[section][key]
            )
        return cfg

    @classmethod
    def load(cls, path):
        with open(path, encoding="utf-8") as fh:
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
        # the [model] keys are exactly ModelParams's fields
        return self._wrap(lambda: ModelParams(**self.values["model"]))

    def noise_spec(self):
        n = self.values["noise"]
        spec = self._wrap(lambda: NoiseSpec(n_modes=n["n_modes"], eta=n["eta"]))
        # one path's draw is (n_modes, n_steps), bounded like the solver's arrays
        draw = spec.n_modes * self.solver_config().n_steps
        self._wrap(lambda: _check_entries("noise draw n_modes*n_steps", draw, MAX_ARRAY_ENTRIES))
        return spec

    def noise_coefficient(self):
        n = self.values["noise"]  # kappa1 = 0 is the constant kind
        return NoiseCoefficient("affine", kappa0=n["g_kappa0"], kappa1=n["g_kappa1"])

    def solver_config(self):
        s = self.values["solver"]
        return self._wrap(
            lambda: SolverConfig(
                dt=s["dt"],
                t_end=s["t_end"],
                n_modes=s["n_modes"],
                n_points=s["n_points"],
            )
        )

    def blowup_guard(self):
        thr = self.values["solver"]["guard_threshold"]
        return self._wrap(lambda: BlowupGuard(threshold=thr))

    def ensemble_spec(self):
        e = self.values["experiment"]
        return self._wrap(
            lambda: EnsembleSpec(
                n_paths=e["n_paths"],
                base_seed=self.seed,
                eps_list=tuple(e["eps_list"]),
                block_size=e["block_size"],
                guard=self.blowup_guard(),
            )
        )

    def initial_data(self, scfg):
        choice = self.values["solver"]["initial"]
        if choice == "bump":
            return default_initial(Grid1D(scfg.n_points))
        if choice == "zero":
            return np.zeros(scfg.n_modes)
        raise ConfigError(f"[solver] initial must be 'bump' or 'zero', got {choice!r}")

    @property
    def tail_p(self):
        if (p := self.values["experiment"]["tail_p"]) < 1:
            raise ConfigError(f"[experiment] tail_p must be >= 1, got {p}")
        return p

    @property
    def seed(self):
        return self.values["output"]["seed"]

    @property
    def outdir(self):
        return self.values["output"]["directory"]


def _json_data(x):
    """``x`` with every non-finite float as None, so it dumps as standard JSON."""
    if isinstance(x, float):
        return x if math.isfinite(x) else None
    if isinstance(x, dict):
        return {k: _json_data(v) for k, v in x.items()}
    if isinstance(x, list):
        return [_json_data(v) for v in x]
    return x


def _table(header, chunks):
    """The one CSV cell format, as text chunks: the ``header`` line, then one
    chunk per iterable of rows in ``chunks``, one line per row, an int cell as
    is and any other as ``repr(float)``."""
    yield header + "\n"
    for rows in chunks:
        yield "".join(
            ",".join(str(c) if isinstance(c, int) else repr(float(c)) for c in row) + "\n"
            for row in rows
        )


def _norms_table(traj):
    """``norms.csv``: time, l2 and Lp norm per step, in chunks of 4096 rows, each
    computing its own time and l2 columns (zip stops at the chunk's last row)."""
    spans = (slice(a, a + 4096) for a in range(0, traj.n_steps + 1, 4096))
    chunks = (
        zip(traj.dt * np.arange(s.start, s.stop), np.linalg.norm(traj.coeffs[s], axis=1), traj.norms[s])
        for s in spans
    )
    return _table(f"time,l2_norm,l{traj.norm_p}_norm", chunks)


def _write_artifacts(config, files):
    """Write ``config.txt``, then each of ``files`` in order, into the output
    directory: the one place that opens an output file.  A value is text, bytes,
    a dict or list (dumped as JSON, every non-finite float as null), or an
    iterable of chunks, all text or all bytes-like, written as they come; text
    in text mode, bytes in binary.  Each goes to ``.<name>.partial`` and is
    renamed into place, so a write that fails leaves nothing under the final
    name; it is a ConfigError naming the file."""
    outdir = config.outdir
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot write output directory {outdir!r}: {exc}") from None
    for name, content in {"config.txt": config.serialize(), **files}.items():
        if isinstance(content, (dict, list)):
            content = json.dumps(_json_data(content), indent=2, allow_nan=False)
        chunks = iter((content,) if isinstance(content, (str, bytes, memoryview)) else content)
        first = next(chunks, "")
        path = os.path.join(outdir, name)
        partial = os.path.join(outdir, f".{name}.partial")
        try:
            with open(partial, "w" if isinstance(first, str) else "wb") as fh:
                fh.write(first)
                fh.writelines(chunks)
            os.replace(partial, path)
        except OSError as exc:
            with contextlib.suppress(OSError):
                os.remove(partial)
            raise ConfigError(f"cannot write {path!r}: {exc}") from None


def _load_target_field(path, scfg):
    try:
        with open(path) as fh:
            doc = json.load(fh, parse_float=_finite_float, parse_constant=_finite_float)
    except OSError as exc:
        raise ConfigError(f"cannot read target file {path!r}: {exc}")
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"target file {path!r} is not valid JSON: {exc}")
    if not isinstance(doc, dict) or "kind" not in doc or "values" not in doc:
        raise ConfigError("target JSON must be an object with 'kind' and 'values'")
    try:
        values = np.asarray(doc["values"], dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"target 'values' must be a flat list of numbers ({exc})")
    if values.ndim != 1:
        raise ConfigError("target 'values' must be a flat list of numbers")
    if not np.isfinite(values).all():
        raise ConfigError("target 'values' must be finite numbers")
    if doc["kind"] == "grid":
        if values.size != scfg.n_points:
            raise ConfigError(
                f"grid target needs {scfg.n_points} values, got {values.size}"
            )
        return Field(values)
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
    if args.solver:
        config.values["solver"]["kind"] = args.solver  # recorded in config.txt
    kind = config.values["solver"]["kind"]
    eps = config.values["solver"]["eps"]
    theta = config.values["solver"]["theta"]
    guard = config.blowup_guard()
    u0 = config.initial_data(scfg)

    control = None
    if args.control is not None:
        if kind not in ("controlled", "skeleton"):
            raise ConfigError(
                f"--control is read only by the controlled and skeleton solvers, not {kind}"
            )
        try:
            control = load_control(args.control)
        except OSError as exc:
            raise ConfigError(f"cannot read control file {args.control!r}: {exc}")
    if kind == "skeleton" and control is None:
        raise ConfigError(f"--control is required for the {kind} solver")

    def noise():
        return sample_noise(nspec, scfg.dt, scfg.n_steps, config.seed, path_index=0)

    if kind == "deterministic":
        traj = solve_deterministic(u0, params, scfg, guard=guard)
    elif kind == "spde":
        traj = solve_spde(u0, params, g, eps, noise(), scfg, guard=guard)
    elif kind in ("clt", "mdp", "controlled", "skeleton"):
        u0_traj = solve_deterministic(u0, params, scfg)  # the path each deviation is taken from
        if kind == "clt":
            traj = solve_clt_limit(u0_traj, params, g, noise(), scfg, guard=guard)
        elif kind == "skeleton":
            traj = solve_skeleton(
                u0_traj, params, g, control, scfg, guard=guard, noise_spec=nspec
            )
        else:  # mdp refuses --control above
            traj = solve_controlled(
                u0_traj, params, g, eps, SpeedFunction(theta), noise(), control, scfg, guard=guard
            )
    else:  # a [solver] kind from a config file is not checked by argparse
        raise ConfigError(f"unknown solver kind {kind!r}")

    files = {"trajectory.bin": trajectory_bytes(traj), "norms.csv": _norms_table(traj)}
    summary = f"simulate {kind}: {traj.n_steps} steps -> {config.outdir}/trajectory.bin, norms.csv"
    return files, summary, None


def cmd_experiment(config, args):
    params = config.model_params()
    scfg = config.solver_config()
    nspec = config.noise_spec()
    spec = config.ensemble_spec()
    e = config.values["experiment"]
    workers = args.workers
    u0 = config.initial_data(scfg)

    if args.kind == "heat-oracle":
        report = run_heat_oracle(
            spec, params, scfg, noise_spec=nspec, workers=workers, g_constant=e["oracle_g"]
        )
        per_eps = report["per_eps"]
        summary = (
            f"frac_z_within={[r['frac_z_within'] for r in per_eps]} "
            f"means_ok={[r['means_ok'] for r in per_eps]}"
        )
        columns = ("var_empirical", "var_theory", "z_scores", "mode_means", "mean_stderr")
        rows = (
            (r["eps"], mode, *cells)
            for r in per_eps
            for mode, cells in enumerate(zip(*(r[k] for k in columns)), 1)
        )
        table = _table("eps,mode,var_empirical,var_theory,z,mean,mean_stderr", [rows])
    elif args.kind == "mdp-tail":
        g = config.noise_coefficient()
        speed = SpeedFunction(config.values["solver"]["theta"])
        report = run_mdp_tail(
            spec,
            params,
            g,
            scfg,
            speed,
            e["rho_list"],
            u0=u0,
            noise_spec=nspec,
            tail_p=config.tail_p,
            workers=workers,
        )
        summary = f"monotone_in_rho={report['pass_details']['monotone_in_rho']}"
        rows = (
            (r["eps"], rho, r["n_paths"], *cells)
            for r in report["per_eps"]
            for rho, *cells in zip(
                report["rho"], r["exceed_counts"], r["p_hat"], r["wilson_lo"], r["wilson_hi"]
            )
        )
        table = _table("eps,rho,n_paths,n_exceed,p_hat,wilson_lo,wilson_hi", [rows])
    else:
        g = config.noise_coefficient()
        runner = run_strong_rate if args.kind == "strong-rate" else run_clt
        report = runner(spec, params, g, scfg, u0=u0, noise_spec=nspec, workers=workers)
        summary = (
            f"slope={report['slope']} target={report['slope_target']} "
            f"r2={report['r_squared']} passed={report['passed']}"
        )
        rows = zip(report["eps"], report["mean"], report["stderr"], report["n_rejected"])
        table = _table("eps,mean,stderr,n_rejected", [rows])

    summary = f"experiment {args.kind}: {summary} -> {config.outdir}/report.json"
    return {"report.csv": table, "report.json": report}, summary, report["passed"]


def cmd_rate(config, args):
    params = config.model_params()
    scfg = config.solver_config()
    nspec = config.noise_spec()
    g = config.noise_coefficient()
    if (tol := config.values["experiment"]["rate_tol"]) < 0:
        raise ConfigError(f"[experiment] rate_tol must be >= 0, got {tol}")
    target = _load_target_field(args.target, scfg)
    u0 = config.initial_data(scfg)
    u0_traj = solve_deterministic(u0, params, scfg)
    rate, control = rate_function_endpoint(
        target, u0_traj, params, g, scfg, tol=tol, noise_spec=nspec
    )
    summary = (
        f"rate: value={rate['value']:.8g} residual={rate['endpoint_residual']:.3g} "
        f"iterations={rate['iterations']} converged={rate['converged']}"
    )
    rate["control_file"] = "control.bin"
    return {"control.bin": control_bytes(control), "rate.json": rate}, summary, rate["converged"]


def cmd_validate_kernel(config, args):
    e = config.values["experiment"]
    n_points = config.values["solver"]["n_points"]
    if e["kernel_t_count"] < 2:
        raise ConfigError("kernel_t_count must be >= 2")
    # the command holds a few (n_points, n_points) kernels, each bounded like
    # SolverConfig's arrays
    if e["kernel_t_count"] > MAX_ARRAY_ENTRIES or n_points**2 > MAX_ARRAY_ENTRIES:
        raise ConfigError(
            f"kernel_t_count and the kernel's n_points^2 = {n_points**2} must each be "
            f"<= {MAX_ARRAY_ENTRIES}"
        )
    t_samples = np.linspace(e["kernel_t_min"], e["kernel_t_max"], e["kernel_t_count"])
    fits = config._wrap(lambda: validate_kernel_estimates(t_samples, Grid1D(n_points)))
    summary = "\n".join(
        f"{fit['estimate_id']}: C={fit['fitted_C']:.4g} a={fit['fitted_a']:.4g} "
        f"max_violation={fit['max_violation']:.3g} pass={fit['pass']}"
        for fit in fits
    )
    return {"kernel_report.json": fits}, summary, all(fit["pass"] for fit in fits)


def _build_parser():
    # SUPPRESS keeps a subparser from clobbering flags given before the
    # subcommand; main passes their real defaults in the namespace it parses into
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
    ps.set_defaults(run=cmd_simulate)
    ps.add_argument(
        "--solver",
        choices=["deterministic", "spde", "clt", "mdp", "controlled", "skeleton"],
        help="which evolution problem to integrate (default: [solver] kind)",
    )
    ps.add_argument("--control", help="control path binary for controlled/skeleton runs")

    pe = sub.add_parser("experiment", parents=[common], help="ensemble experiment")
    pe.set_defaults(run=cmd_experiment)
    pe.add_argument("kind", choices=["clt", "heat-oracle", "mdp-tail", "strong-rate"])

    pr = sub.add_parser("rate", parents=[common], help="minimum-energy rate function")
    pr.set_defaults(run=cmd_rate)
    pr.add_argument("--target", required=True, help="endpoint target Field as JSON")

    pk = sub.add_parser("validate-kernel", parents=[common], help="heat kernel bound fits")
    pk.set_defaults(run=cmd_validate_kernel)
    return parser


def main(argv=None):
    """Each ``cmd_*`` returns (files, summary, verdict); main writes the files,
    prints the summary and exits 1 on a false verdict, else 0 (None: nothing judged)."""
    # argparse fills a default only for a name the namespace lacks, and the
    # subparser copies back only the shared flags it parsed
    defaults = argparse.Namespace(config=None, seed=None, out=None, workers=_available_cpus())
    args = _build_parser().parse_args(argv, defaults)
    try:
        if args.workers < 1:
            raise ConfigError(f"--workers must be >= 1, got {args.workers}")
        if args.config is not None:
            try:
                config = RunConfig.load(args.config)
            except (OSError, UnicodeDecodeError) as exc:
                raise ConfigError(f"cannot read config file {args.config!r}: {exc}")
        else:
            config = RunConfig()
        if args.seed is not None:
            config.values["output"]["seed"] = _check_type("--seed", args.seed, 0)
        if args.out is not None:
            config.values["output"]["directory"] = args.out
        files, summary, verdict = args.run(config, args)
        _write_artifacts(config, files)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BinaryFormatError as exc:
        print(f"malformed input file: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SetupError as exc:
        print(f"setup error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (BlowupError, NumericalAbortError) as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    print(summary)
    return EXIT_PASS if verdict is None or verdict else EXIT_SCI_FAIL


if __name__ == "__main__":
    sys.exit(main())
