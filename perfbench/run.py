"""sgbh benchmark: one workload, closed loop, one CLI operation at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run it from the root of a checkout.  The seed generates every input (config
files, rate targets) before timing starts.  Each operation is a fresh
interpreter running the ``sgbh`` CLI on those files; its output is checked
(exit code and verdict, byte-identical reruns, recorded reference values,
the rate value against its generating control) and timed with ``os.wait4``.  Operations repeat until
``--seconds`` have passed and at least every job has run once.

``--trace 0`` prints the end-to-end metrics: medians over operations, and
over repeated set-ups for ``setup_s``.  ``--trace 1`` is a separate pass that
runs each job untraced, then traced in-process at workers=1, and prints the
per-layer metrics.  ``--smoke`` runs the same code at tiny sizes.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  ``failed`` counts the operations that exited nonzero or failed a
check; ``correct`` is false when any output failed a check.  Exit 1 is the
CLI's scientific verdict (an ensemble test that fails, or LSQR that stops
short of ``rate_tol``): the output is still checked, but the operation
failed.  ``rate`` and ``clt-pool`` run by hand only, so they print metrics
beyond the ``BENCHMARK.json`` lists in the ``#`` lines and the fuller result
under ``perfbench/out/``, which also holds the environment record, every
operation and the span breakdown.
"""

import argparse
import json
import os
import shutil
import statistics
import sys
import time

import envinfo
import launch
from workloads import WORKLOADS, make_jobs, path_steps

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROBE = os.path.join(HERE, "probe.py")
SETUP_REPS = 9
RUN_LIMIT_S = 170.0  # kill whatever is still running after this long
REFERENCE_ATOL = 1e-12
RATE_BOUND_SLACK = 1e-8
RATE_VALUE_RTOL = 1e-6

END_TO_END = {
    "wall_s": "s",
    "path_steps_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cpu_per_wall": "ratio",
}
# spans reported with calls and self time per operation
SPANS = (
    "noise.sample_noise",
    "spectral.lp_norm",
    "solvers.forcing_term",
    "solvers.colored_increment_grid",
    "solvers.project",
    "solvers.project_divergence",
    "solvers.nonlinear_drift",
    "solvers.grid_values",
    "solvers.solve_deterministic",
    "model.reaction_nonlinearity",
    "model.advective_nonlinearity",
    "model.noise_coefficient_eval",
)
# spans reported with self time only: the code between the wrapped calls
SELF_ONLY = {
    "montecarlo.run.self_s": "montecarlo.run",
    "cli.self_s": "cli.main",
}
MICRO = (
    "micro.noise.sample_noise_us",
    "micro.solvers.grid_values_us",
    "micro.solvers.project_us",
    "micro.solvers.nonlinear_drift_us",
    "micro.solvers.forcing_term_us",
    "micro.spectral.lp_norm_us",
    "micro.deviation.forward_us",
    "micro.deviation.adjoint_us",
)
PER_LAYER = {
    **{f"{s}.calls": "count/op" for s in SPANS},
    **{f"{s}.self_s": "s/op" for s in SPANS},
    "noise.normals_drawn": "count/op",
    "spectral.lp_norm.bytes": "B/op",
    **{name: "s/op" for name in SELF_ONLY},
    "montecarlo.rejected_paths": "count/op",
    "cli.import_s": "s",
    "cli.artifact_bytes": "B/op",
    **{name: "us" for name in MICRO},
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.accounted_frac": "frac",
    "ops_failed_frac": "frac",
}
# spans and metrics of the pool and of rate, which only the workloads run by
# hand exercise; printed in the ``#`` lines and the result file
HAND_RUN_SPANS = ("solvers.linearized_drift", "deviation.forward", "deviation.adjoint")
HAND_RUN_ONLY = {
    **{f"{s}.calls": "count/op" for s in HAND_RUN_SPANS},
    **{f"{s}.self_s": "s/op" for s in HAND_RUN_SPANS},
    "deviation.rate_function_endpoint.self_s": "s/op",
    "deviation.lsqr_iterations": "count/op",
    "deviation.not_converged": "frac",
    "montecarlo.pool_speedup": "ratio",
}


def differences(got, want, rtol, where="$"):
    """Where ``got`` departs from ``want``: floats by rtol, the rest exactly."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or got.keys() != want.keys():
            return [f"{where}: keys differ"]
        return [d for k in want for d in differences(got[k], want[k], rtol, f"{where}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: length differs"]
        pairs = enumerate(zip(got, want))
        return [d for i, (g, w) in pairs for d in differences(g, w, rtol, f"{where}[{i}]")]
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        if abs(got - want) <= rtol * abs(want) + REFERENCE_ATOL:
            return []
    elif got == want and type(got) is type(want):
        return []
    return [f"{where}: {got!r} != reference {want!r}"]


def failed_count(ops):
    """Operations that exited nonzero or failed a check."""
    return sum(1 for op in ops if op["rc"] != 0 or op["problems"])


def _median(values):
    return statistics.median(values) if values else 0.0


def _dir_bytes(path):
    if not os.path.isdir(path):
        return 0
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))


class Bench:
    """Runs and checks the operations of one benchmark run."""

    def __init__(self, wl, smoke, workdir, deadline):
        self.wl = wl
        self.workdir = workdir
        self.deadline = deadline
        self.env = launch.child_env(ROOT)
        self.first_artifact = {}
        self.ops = []
        with open(os.path.join(HERE, "reference.json")) as fh:
            self.reference = json.load(fh)[wl.name + ("@smoke" if smoke else "")]

    def probe(self, kind, job):
        """Run ``probe.py setup|micro`` on the job's config; (seconds to ready, payload)."""
        rate = self.wl.artifact == "rate.json"
        mode = "heat" if self.wl.heat else "rate" if rate else "ref-solve"
        cmd = [sys.executable, PROBE, kind, job.config, mode]
        return launch.run_until_ready(cmd, self.env, ROOT, self.deadline)

    def op(self, job, workers, traced=False):
        outdir = os.path.join(self.workdir, f"op{len(self.ops):03d}-{job.key}")
        argv = job.argv(self.wl, outdir, workers)
        spans = outdir + ".spans.json"
        cmd = [sys.executable, PROBE, "trace", spans, *argv] if traced else launch.cli_command(argv)
        ex = launch.run(cmd, self.env, ROOT, outdir + ".log", self.deadline)
        problems, doc = self.check(job, ex.rc, outdir)
        record = {
            "job": job.key,
            "workers": workers,
            "traced": traced,
            "rc": ex.rc,
            "wall_s": ex.wall_s,
            "cpu_per_wall": ex.cpu_s / ex.wall_s,
            "peak_rss_mb": ex.peak_rss_mb,
            "artifact_bytes": _dir_bytes(outdir),
            "path_steps": None if doc is None else path_steps(self.wl, outdir, doc),
            "problems": problems,
        }
        if doc is not None and "iterations" in doc:
            record["lsqr_iterations"] = doc["iterations"]
            record["converged"] = doc["converged"]
        if doc is not None and "n_rejected" in doc:
            record["rejected_paths"] = sum(doc["n_rejected"])
        if traced and os.path.exists(spans):
            with open(spans) as fh:
                record["spans"] = json.load(fh)
        self.ops.append(record)
        return record

    def check(self, job, rc, outdir):
        wl = self.wl
        if rc not in (0, 1):
            return [f"exit code {rc}"], None
        try:
            with open(os.path.join(outdir, wl.artifact), "rb") as fh:
                raw = fh.read()
            doc = json.loads(raw)
        except (OSError, ValueError) as exc:
            return [f"unreadable {wl.artifact}: {exc}"], None
        problems = []
        verdict = doc["converged"] if wl.artifact == "rate.json" else doc["passed"]
        if (rc == 0) != (verdict is not False):
            problems.append(f"exit code {rc} disagrees with the verdict {verdict!r}")
        if raw != self.first_artifact.setdefault(job.key, raw):
            problems.append(f"{wl.artifact} differs from the first run of job {job.key}")
        if job.action is not None:
            # no run may exceed the generating control's action; a converged
            # run must price a minimum-norm control at its action
            value, action = doc["value"], job.action
            tight = job.minimal and doc["converged"]
            if tight and not abs(value - action) <= RATE_VALUE_RTOL * action:
                problems.append(f"value {value!r} is not the generating action {action!r}")
            if not value <= action + RATE_BOUND_SLACK:
                problems.append(f"value {value!r} exceeds the generating action {action!r}")
        if job.reference:
            got = doc if wl.reference_keys is None else {k: doc[k] for k in wl.reference_keys}
            problems += differences(got, self.reference, wl.reference_rtol)
        return problems, doc

    def out_of_time(self):
        return time.monotonic() > self.deadline or any(op["rc"] < 0 for op in self.ops)


def measure(bench, jobs, seconds):
    end = time.monotonic() + seconds
    i = 0
    while (i < len(jobs) or time.monotonic() < end) and not bench.out_of_time():
        bench.op(jobs[i % len(jobs)], bench.wl.workers)
        i += 1
    ops = bench.ops
    return {
        "wall_s": [op["wall_s"] for op in ops],
        "path_steps_per_s": [op["path_steps"] / op["wall_s"] for op in ops if op["path_steps"]],
        "peak_rss_mb": [op["peak_rss_mb"] for op in ops],
        "cpu_per_wall": [op["cpu_per_wall"] for op in ops],
    }


def span_table(traced):
    """Per span name: calls, total and self seconds per traced operation.

    ``cli.import`` is the import of ``sgbh.cli`` the traced child timed
    before it installed the wrappers.
    """
    table = {}
    for op in traced:
        spans = op.get("spans", {})
        rows = spans.get("paths", [])
        if "import_s" in spans:
            rows = rows + [[["cli.import"], 1, spans["import_s"], spans["import_s"]]]
        for path, calls, total, self_s in rows:
            row = table.setdefault(path[-1], [0, 0.0, 0.0])
            row[0] += calls
            row[1] += total
            row[2] += self_s
    return {name: [v / len(traced) for v in row] for name, row in table.items()}


def trace_pass(bench, jobs, seconds):
    wl = bench.wl
    pooled = wl.workers is not None and wl.workers > 1
    traced_workers = None if wl.workers is None else 1
    plain, single, traced = [], [], []
    end = time.monotonic() + seconds
    i = 0
    while (i < len(jobs) or time.monotonic() < end) and not bench.out_of_time():
        job = jobs[i % len(jobs)]
        plain.append(bench.op(job, wl.workers))
        if pooled:
            single.append(bench.op(job, 1))
        traced.append(bench.op(job, traced_workers, traced=True))
        i += 1
    untraced_same = single if pooled else plain

    table = span_table(traced)
    samples = {}
    for name in (*SPANS, *HAND_RUN_SPANS):
        calls, _, self_s = table.get(name, (0.0, 0.0, 0.0))
        samples[f"{name}.calls"] = [calls]
        samples[f"{name}.self_s"] = [self_s]
    for metric, name in (
        *SELF_ONLY.items(),
        ("deviation.rate_function_endpoint.self_s", "deviation.rate_function_endpoint"),
    ):
        samples[metric] = [table.get(name, (0.0, 0.0, 0.0))[2]]
    for counter in ("noise.normals_drawn", "spectral.lp_norm.bytes"):
        total = sum(op.get("spans", {}).get("counters", {}).get(counter, 0) for op in traced)
        samples[counter] = [total / len(traced)]
    ops = bench.ops
    samples["montecarlo.rejected_paths"] = [op.get("rejected_paths", 0) for op in ops]
    samples["montecarlo.pool_speedup"] = (
        [_median([o["wall_s"] for o in single]) / _median([o["wall_s"] for o in plain])]
        if pooled
        else [1.0]
    )
    samples["deviation.lsqr_iterations"] = [op.get("lsqr_iterations", 0) for op in ops]
    samples["deviation.not_converged"] = [
        sum(op.get("converged") is False for op in ops) / len(ops)
    ]
    samples["cli.artifact_bytes"] = [op["artifact_bytes"] for op in ops]
    samples["trace.wall_s"] = [op["wall_s"] for op in traced]
    samples["trace.overhead_s"] = [
        _median(samples["trace.wall_s"]) - _median([o["wall_s"] for o in untraced_same])
    ]
    # self times of all spans, import included, against the traced wall
    samples["trace.accounted_frac"] = [
        sum(row[2] for row in table.values()) / _median(samples["trace.wall_s"])
    ]
    return samples, table


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny sizes, for the benchmark's own tests"
    )
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "sgbh", "cli.py")):
        print(f"perfbench: no sgbh sources under {ROOT}/src; run from a checkout", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    outroot = os.path.join(HERE, "out")
    workdir = os.path.join(outroot, tag)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    bench = Bench(wl, args.smoke, workdir, time.monotonic() + RUN_LIMIT_S)
    env = envinfo.record(ROOT)
    jobs = make_jobs(ROOT, wl, args.seed, args.smoke, workdir)

    setups = [bench.probe("setup", jobs[-1]) for _ in range(SETUP_REPS)]
    table = None
    if args.trace:
        _, micro = bench.probe("micro", jobs[-1])
        samples, table = trace_pass(bench, jobs, args.seconds)
        samples.update({name: [micro[name]] for name in MICRO})
        samples["cli.import_s"] = [parts["import_s"] for _, parts in setups]
        units = {**PER_LAYER, **HAND_RUN_ONLY}
    else:
        samples = measure(bench, jobs, args.seconds)
        samples["setup_s"] = [ready for ready, _ in setups]
        units = END_TO_END

    ops = bench.ops
    failed = failed_count(ops)
    if args.trace:
        samples["ops_failed_frac"] = [failed / len(ops)]
    metrics = {
        name: {"value": float(_median(samples[name])), "unit": unit} for name, unit in units.items()
    }
    correct = not any(op["problems"] for op in ops)

    print(f"# {tag}: correct={correct}")
    print(f"# {failed} of {len(ops)} operations failed (nonzero exit or failed check)")
    for op in ops:
        if op["problems"]:
            print(f"#   op {op['job']}: {'; '.join(op['problems'][:3])}")
    for name, m in metrics.items():
        print(f"# {name:44s} {m['value']:<14.6g} {m['unit']:9s} n={len(samples[name])}")
    if table:
        wall = _median(samples["trace.wall_s"])
        print(f"# span self time per traced operation (share of the traced wall {wall:.4g} s)")
        for name, (calls, total, self_s) in sorted(table.items(), key=lambda kv: -kv[1][2]):
            share = 100 * self_s / wall
            print(f"#   {name:36s} calls={calls:<10.6g} self_s={self_s:<10.4g} {share:5.1f}%")
        rest = wall - sum(row[2] for row in table.values())
        label = "(interpreter start and exit)"
        print(f"#   {label:53s} self_s={rest:<10.4g} {100 * rest / wall:5.1f}%")
    print("# env " + json.dumps(env))

    result = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "env": env,
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {n: dict(m, samples=len(samples[n])) for n, m in metrics.items()},
        "setup": [dict(parts, setup_s=ready) for ready, parts in setups],
        "spans": table,
        "ops": [{k: v for k, v in op.items() if k != "spans"} for op in ops],
    }
    with open(os.path.join(outroot, f"result-{tag}.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    listed = PER_LAYER if args.trace else END_TO_END
    line = {
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: metrics[name] for name in listed},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
