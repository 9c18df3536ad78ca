"""Child-side probes, each run in a fresh interpreter with ``PYTHONPATH=src``.

    probe.py setup CONFIG MODE        time what an operation does before stepping
    probe.py trace SPANS_JSON ARGV... run the CLI in-process with timing wrappers
    probe.py micro CONFIG MODE        per-call cost of hot functions

MODE is ``heat`` (constant g, no reference solve), ``ref-solve`` (an
ensemble's reference solve) or ``rate`` (the reference solve and the
endpoint control map).  ``micro`` times the solver functions at B=128 on
the config's shapes, ``sample_noise`` for one path, as it has no batch
dimension, and the endpoint map's forward and adjoint sweeps (B=1) at the
CLI's default shapes, those of ``sgbh rate``.

The traced run wraps the public functions of every ``sgbh`` layer at the
sites where callers look them up.  Spans are aggregated in memory by call
path (calls, total and self seconds) and written once, at exit.  A span's
self time is its duration minus the time of the wrapped calls it made, so
the self times of all spans add up to the duration of ``cli.main``.
"""

import functools
import json
import sys
import time

MICRO_BATCH = 128


def _load_config(path):
    from sgbh.cli import RunConfig

    with open(path) as fh:
        return RunConfig.parse(fh.read())


def _engine_inputs(config, heat):
    from sgbh.model import NoiseCoefficient

    g = (
        NoiseCoefficient("constant", kappa0=float(config.values["experiment"]["oracle_g"]))
        if heat
        else config.noise_coefficient()
    )
    return config.model_params(), config.solver_config(), config.noise_spec(), g


def setup(config_path, mode):
    clock = time.perf_counter
    t0 = clock()
    import sgbh.cli  # noqa: F401  (the import every operation pays)

    t1 = clock()
    from sgbh.solvers import SolverEngine, solve_deterministic

    config = _load_config(config_path)
    params, scfg, nspec, g = _engine_inputs(config, mode == "heat")
    t2 = clock()
    u0_traj = None
    if mode != "heat":
        u0_traj = solve_deterministic(config.initial_data(scfg), params, scfg)
    t3 = clock()
    if mode == "rate":
        # rate alone needs the deviation layer; its map builds the engine
        from sgbh.deviation import EndpointControlMap

        EndpointControlMap(u0_traj, params, g, scfg, noise_spec=nspec)
    else:
        SolverEngine(params, scfg, g=g, noise_spec=nspec)
    t4 = clock()
    times = {"import_s": t1 - t0, "parse_s": t2 - t1, "solve_s": t3 - t2, "engine_s": t4 - t3}
    print("ready " + json.dumps(times), flush=True)


class Tracer:
    def __init__(self):
        self.stack = []  # open spans: [call path, seconds spent in wrapped children]
        self.paths = {}  # call path -> [calls, total_s, self_s]
        self.counters = {}

    def wrap(self, name, fn, counter=None):
        stack, paths, counters, clock = self.stack, self.paths, self.counters, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            path = stack[-1][0] + (name,) if stack else (name,)
            frame = [path, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                agg = paths.get(path)
                if agg is None:
                    agg = paths[path] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += elapsed
                agg[2] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if counter is not None:
                key, amount = counter(args, result)
                counters[key] = counters.get(key, 0) + amount
            return result

        return traced

    def patch(self, owner, attr, name, counter=None):
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), counter))

    def install(self):
        import sgbh.cli as cli
        import sgbh.deviation as deviation
        import sgbh.montecarlo as montecarlo
        import sgbh.solvers as solvers
        import sgbh.spectral as spectral

        self.patch(
            montecarlo,
            "sample_noise",
            "noise.sample_noise",
            lambda args, r: ("noise.normals_drawn", r.increments.size),
        )
        self.patch(
            spectral.Grid1D,
            "lp_norm",
            "spectral.lp_norm",
            lambda args, r: ("spectral.lp_norm.bytes", args[1].nbytes),
        )
        for method in (
            "grid_values",
            "project",
            "project_divergence",
            "nonlinear_drift",
            "linearized_drift",
            "colored_increment_grid",
            "forcing_term",
        ):
            self.patch(solvers.SolverEngine, method, f"solvers.{method}")
        for fn in ("reaction_nonlinearity", "advective_nonlinearity", "noise_coefficient_eval"):
            self.patch(solvers, fn, f"model.{fn}")
        self.patch(deviation, "noise_coefficient_eval", "model.noise_coefficient_eval")
        self.patch(deviation.EndpointControlMap, "forward", "deviation.forward")
        self.patch(deviation.EndpointControlMap, "adjoint", "deviation.adjoint")
        for site in (cli, montecarlo):
            self.patch(site, "solve_deterministic", "solvers.solve_deterministic")
        for fn in ("run_strong_rate", "run_clt", "run_heat_oracle"):
            self.patch(cli, fn, "montecarlo.run")
        self.patch(cli, "rate_function_endpoint", "deviation.rate_function_endpoint")
        return self.wrap("cli.main", cli.main)

    def dump(self):
        return {
            "paths": [[list(p), *agg] for p, agg in sorted(self.paths.items())],
            "counters": self.counters,
        }


def trace(spans_path, argv):
    t0 = time.perf_counter()
    import sgbh.cli  # noqa: F401

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    main = tracer.install()
    rc = None
    try:
        rc = main(argv)
    finally:
        with open(spans_path, "w") as fh:
            json.dump(dict(tracer.dump(), import_s=import_s, rc=rc), fh)
    sys.exit(rc)


def _per_call_us(fn, budget_s=0.02, batches=7):
    fn()
    n, t = 1, 0.0
    while True:
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        t = time.perf_counter() - t0
        if t >= budget_s / 4:
            break
        n *= 2
    n = max(1, int(n * budget_s / t))
    samples = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        samples.append((time.perf_counter() - t0) / n)
    samples.sort()
    return 1e6 * samples[len(samples) // 2]


def _endpoint_map():
    """The endpoint control map ``sgbh rate`` builds at the CLI defaults."""
    from sgbh.cli import RunConfig
    from sgbh.deviation import EndpointControlMap
    from sgbh.solvers import solve_deterministic

    config = RunConfig.parse("")
    params, scfg = config.model_params(), config.solver_config()
    u0_traj = solve_deterministic(config.initial_data(scfg), params, scfg)
    return EndpointControlMap(
        u0_traj, params, config.noise_coefficient(), scfg, noise_spec=config.noise_spec()
    )


def micro(config_path, mode):
    import numpy as np
    from sgbh.noise import sample_noise
    from sgbh.solvers import SolverEngine

    config = _load_config(config_path)
    params, scfg, nspec, g = _engine_inputs(config, mode == "heat")
    eng = SolverEngine(params, scfg, g=g, noise_spec=nspec)
    rng = np.random.default_rng(0)
    a = 0.1 * rng.standard_normal((MICRO_BATCH, scfg.n_modes))
    u = eng.grid_values(a)
    inc = np.sqrt(scfg.dt) * rng.standard_normal((MICRO_BATCH, nspec.n_modes))
    cmap = _endpoint_map()
    hdot = rng.standard_normal((cmap.n_control_modes, cmap.n_steps))
    w = rng.standard_normal(cmap.eng.cfg.n_modes)
    cases = {
        "micro.noise.sample_noise_us": lambda: sample_noise(nspec, scfg.dt, scfg.n_steps, 1, 0),
        "micro.solvers.grid_values_us": lambda: eng.grid_values(a),
        "micro.solvers.project_us": lambda: eng.project(u),
        "micro.solvers.nonlinear_drift_us": lambda: eng.nonlinear_drift(u),
        "micro.solvers.forcing_term_us": lambda: eng.forcing_term(0.0, u, inc),
        "micro.spectral.lp_norm_us": lambda: eng.grid.lp_norm(u, params.p_norm),
        "micro.deviation.forward_us": lambda: cmap.forward(hdot),
        "micro.deviation.adjoint_us": lambda: cmap.adjoint(w),
    }
    print("ready " + json.dumps({k: _per_call_us(fn) for k, fn in cases.items()}), flush=True)


if __name__ == "__main__":
    command, rest = sys.argv[1], sys.argv[2:]
    if command == "setup":
        setup(*rest)
    elif command == "trace":
        trace(rest[0], rest[1:])
    elif command == "micro":
        micro(*rest)
    else:
        sys.exit(f"unknown probe {command!r}")
