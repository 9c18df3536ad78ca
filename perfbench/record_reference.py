"""Record the reference job's artifact of every workload into reference.json.

    python3 perfbench/record_reference.py

The reference job runs on fixed inputs, so its artifact is a property of the
program alone.  Ensembles are recorded at workers=1.  Record again only when
a change is meant to alter results, and say so where the change is logged.
"""

import json
import os
import tempfile
import time

import launch
from run import HERE, ROOT
from workloads import WORKLOADS, make_jobs


def main():
    env = launch.child_env(ROOT)
    reference = {}
    for wl in WORKLOADS.values():
        for smoke in (False, True):
            with tempfile.TemporaryDirectory(dir=HERE) as work:
                job = make_jobs(ROOT, wl, 0, smoke, work)[0]
                outdir = os.path.join(work, "out")
                argv = job.argv(wl, outdir, None if wl.workers is None else 1)
                ex = launch.run(
                    launch.cli_command(argv), env, ROOT, outdir + ".log", time.monotonic() + 600
                )
                with open(os.path.join(outdir, wl.artifact)) as fh:
                    doc = json.load(fh)
            if wl.reference_keys is not None:
                doc = {k: doc[k] for k in wl.reference_keys}
            reference[wl.name + ("@smoke" if smoke else "")] = doc
            print(f"{wl.name}{' smoke' if smoke else ''}: exit {ex.rc}, {ex.wall_s:.2f} s")
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
