"""Quick self-check of the benchmark itself, at tiny sizes (a few seconds).

Run from the root of a checkout::

    python3 bench/selfcheck.py

It checks that each workload's tiny job passes its gate, that a corrupted
report, a raising job and an argparse rejection each count as failed, that
every metric named in ``BENCHMARK.json`` is reported with the same unit,
and that the tracer leaves every surfcomplex module and class attribute as
it found it.  Exits 1 on the first problem.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def fail(msg):
    print(f"selfcheck FAILED: {msg}")
    sys.exit(1)


def attribute_snapshot():
    """Identity of every attribute of every surfcomplex module and class."""
    snap = {}
    for mod in tracing.surfcomplex_modules():
        for attr, value in vars(mod).items():
            snap[(mod.__name__, attr)] = id(value)
            if isinstance(value, type) and value.__module__.startswith("surfcomplex"):
                for cattr, cvalue in vars(value).items():
                    snap[(mod.__name__, attr, cattr)] = id(cvalue)
    return snap


def check_units():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if declared != run.END_TO_END:
        fail(f"end-to-end metrics {run.END_TO_END} differ from BENCHMARK.json {declared}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if declared != tracing.per_layer_units():
        fail("per-layer metrics differ from BENCHMARK.json")
    if [w["name"] for w in spec["workloads"]] != list(workloads.NAMES):
        fail("workload names differ from BENCHMARK.json")
    for name, unit in {**run.END_TO_END, **tracing.per_layer_units()}.items():
        print(f"  metric {name} [{unit}]")


def main():
    check_units()
    expected = run.load_expected()
    workdir = os.path.join(run.WORK, f"selfcheck-{os.getpid()}")
    log = lambda msg: print(f"  (expected) {msg}")  # noqa: E731
    try:
        jobs = {name: workloads.make(name, 0, workdir, expected, tiny=True) for name in workloads.NAMES}
        for name, strata in jobs.items():
            if len(strata) != 1:
                fail(f"{name}: tiny workload has {len(strata)} jobs, want 1")
            seconds, failed = run.run_job(strata[0], log)
            if failed:
                fail(f"{name}: tiny job {strata[0].key} failed its gate")
            print(f"{name}: tiny job {strata[0].key} passed in {seconds:.3f} s")

        job = jobs["pipeline"][0]
        good = job.run()
        label, code, text, want = good[1]
        corrupted, rejected = list(good), list(good)
        corrupted[1] = (label, code, text + " ", want)
        rejected[1] = (label, *workloads.run_cli(["wallcross", "bogus"]), want)
        bad_jobs = [
            workloads.Job("corrupted", lambda: corrupted, job.check),
            workloads.Job("raises", lambda: 1 / 0, job.check),
            workloads.Job("argparse", lambda: rejected, job.check),
        ]
        for bad in bad_jobs:
            if not run.run_job(bad, log)[1]:
                fail(f"a {bad.key} job was not counted as failed")
        print("corrupted report, raising job and argparse rejection all count as failed")

        before = attribute_snapshot()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            if attribute_snapshot() == before:
                fail("installing the tracer changed no attribute")
            for strata in jobs.values():
                if run.run_job(strata[0], log, tracer)[1]:
                    fail(f"traced tiny job {strata[0].key} failed its gate")
        finally:
            tracer.uninstall()
        if attribute_snapshot() != before:
            fail("the tracer left module or class attributes changed")
        metrics = tracer.metrics()
        unseen = [layer for layer, paths in tracing.LAYERS.items()
                  if not metrics[f"{tracing.metric_name(layer, paths[0])}.calls"]]
        if unseen:
            fail(f"traced tiny jobs never entered {unseen}")
        top_level = sum(end - start for _, _, parent, _, start, end in tracer.spans if parent == -1)
        if not 0 <= top_level - tracer.self_total() <= tracer.harness_s + 1e-9:
            fail("self times do not add up to the top-level spans")
        print(f"tracer saw {len(tracer.spans)} spans and restored every attribute")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selfcheck ok")


if __name__ == "__main__":
    main()
