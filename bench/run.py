"""Seeded end-to-end and per-layer benchmark for surfcomplex.

Run from the root of a checkout::

    python3 bench/run.py --workload pipeline --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py`` for the reasons behind each):

* ``pipeline``: one full CLI session per job on a stock family, k = 5..7;
* ``build``: ``complex build --max-dim 2`` on large catalogs;
* ``homology``: ``complex homology`` in every degree, plus exact fill jobs;
* ``paramgeo``: parameter-geometry library calls at 4 to 6 vertices.

Each workload runs as a closed loop with one client, in its own worker
process, so that peak memory is its own.  The loop runs whole rounds until
``--seconds`` of job time have passed and at least ``MIN_JOBS`` jobs ran.
Every job's output is checked outside the timed interval; a mismatch, a
wrong exit code, or an exception counts as a failed job and the run goes on.

``--trace 0`` prints the end-to-end metrics.  ``setup_s`` is the time from
process start to the first timed job (importing surfcomplex, generating and
writing inputs, one untimed warm-up job), taken as the median of
``SETUPS`` worker start-ups.  ``jobs_per_s`` is the median over rounds of
jobs per second of job time.  ``job_tail_s`` is the p75 job time: the
highest of the percentiles 50, 75, 90, ... that keeps ten jobs beyond it at
``MIN_JOBS``.  It stays p75 on every run, so that runs of different length
stay comparable.  ``ok_ratio`` is the share of attempted jobs that passed
(1 - fail ratio; the failed and attempted counts are printed).
``peak_rss_mb`` is the worker's peak resident memory through set-up and its
first round, which runs every job of the mix once; later rounds only add
allocator fragmentation, which grows with the length of the run.

Times are reported in nominal-speed seconds.  The benchmark shares its
machine, whose speed moves by a quarter within minutes.  So a fixed
pure-Python loop that calls nothing of surfcomplex is timed before every job
and before every set-up, and each wall-clock time is scaled by
``REFERENCE_S`` over the loop's median time around it.  The wall-clock
values and the speed factors are printed too.  ``--trace 1`` runs the loop
for half of ``--seconds`` untraced and for the other half traced, and prints
the per-layer metrics of ``tracing.py`` (wall-clock seconds, unscaled);
spans go to ``.bench_work/``.

Every metric is printed by name with its unit, then, as the last line of
standard output, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The script exits 2 without a result when the
checkout holds no ``src/surfcomplex``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

MIN_JOBS = 44  # p75 then has at least ten jobs beyond it
TAIL_PERCENTILE = 75
SETUPS = 5
READY = "bench-ready"
REFERENCE_LOOP = 300_000
REFERENCE_S = 0.030  # the reference loop's time at nominal speed

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MiB",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--role", choices=("main", "worker", "setup"), default="main",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def percentile(values, p):
    """Nearest-rank percentile: the smallest value with p% of values at or below it."""
    ordered = sorted(values)
    return ordered[max(math.ceil(p / 100 * len(ordered)) - 1, 0)]


# -- worker ----------------------------------------------------------------------

def load_expected():
    with open(os.path.join(HERE, "expected.json")) as fh:
        return json.load(fh)


def run_job(job, log, tracer=None):
    """Run one job timed, then gate it untimed. Returns (seconds, failed).

    With a tracer, only the job's own calls are recorded, not the gate's.
    """
    if tracer is not None:
        tracer.job += 1
        tracer.recording = True
    start = time.perf_counter()
    try:
        result = job.run()
        error = None
    except Exception as exc:  # a crashing job is a failed job; the loop goes on
        error = f"{job.key}: raised {exc!r}"
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.recording = False
    problems = [error] if error else job.check(result)
    for line in problems:
        log(f"FAILED {line}")
    return elapsed, bool(problems)


def reference():
    """Seconds for a fixed pure-Python loop that calls nothing of surfcomplex."""
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_LOOP):
        total += i * i % 7
    return time.perf_counter() - start


def speed():
    """The machine's speed now, relative to nominal: below 1 when slower."""
    return REFERENCE_S / statistics.median(reference() for _ in range(3))


def timed_loop(rounds, seconds, min_jobs, log, tracer=None):
    """Whole rounds until ``seconds`` of job time and ``min_jobs`` jobs.

    The reference loop runs before every job and after the last one, outside
    the timed intervals.  Returns the rounds, each with its raw job times and
    the machine speed over it, and the failed-job count.
    """
    done, failed, jobs, spent = [], 0, 0, 0.0
    for round_ in rounds:
        raw, refs = [], []
        for job in round_:
            refs.append(reference())
            elapsed, bad = run_job(job, log, tracer)
            raw.append(elapsed)
            failed += bad
        refs.append(reference())
        done.append({"raw": raw, "speed": REFERENCE_S / statistics.median(refs), "rss_mb": peak_rss_mb()})
        jobs += len(raw)
        spent += sum(raw)
        if spent >= seconds and jobs >= min_jobs:
            return done, failed


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def normalised(rounds):
    """Job times in nominal-speed seconds, grouped by round."""
    return [[t * r["speed"] for t in r["raw"]] for r in rounds]


def throughput(rounds):
    """Median over rounds of jobs per nominal-speed second; every round has
    the same mix of jobs."""
    return statistics.median(len(r) / sum(r) for r in normalised(rounds))


def worker(args):
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import surfcomplex
    import workloads

    if not os.path.abspath(surfcomplex.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported surfcomplex from {surfcomplex.__file__}, not from {SRC}")
    log = lambda msg: print(msg, file=sys.stderr, flush=True)  # noqa: E731
    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        strata = workloads.make(args.workload, args.seed, workdir, load_expected())
        rounds = workloads.rounds(strata, random.Random(f"order-{args.seed}"))
        _, warm_failed = run_job(strata[0], log)
        print(READY, flush=True)
        if args.role == "setup":
            return
        if args.trace:
            result = traced_run(args, rounds, log)
        else:
            times, failed = timed_loop(rounds, args.seconds, MIN_JOBS, log)
            result = {"times": times, "failed": failed}
        result["failed"] += warm_failed
        result["attempted"] = sum(len(r["raw"]) for r in result["times"] + result.get("traced_times", [])) + 1
        print(json.dumps(result), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def traced_run(args, rounds, log):
    import tracing

    half = args.seconds / 2
    plain, plain_failed = timed_loop(rounds, half, 0, log)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced, traced_failed = timed_loop(rounds, half, 0, log, tracer)
    finally:
        tracer.recording = False
        tracer.uninstall()
    metrics = tracer.metrics()
    traced_s = sum(t for r in traced for t in r["raw"])
    metrics["bench.trace_overhead"] = throughput(traced) / throughput(plain) - 1
    metrics["bench.harness_share"] = 1 - tracer.self_total() / traced_s
    spans_path = os.path.join(WORK, f"trace-{args.workload}-{args.seed}.jsonl")
    tracer.write_spans(spans_path)
    return {
        "times": plain,
        "traced_times": traced,
        "failed": plain_failed + traced_failed,
        "per_layer": metrics,
        "traced_s": traced_s,
        "rank_only_base_s": tracer.stats[tracing.SNF][1] if tracing.SNF in tracer.stats else 0.0,
        "spans": len(tracer.spans),
        "spans_path": os.path.relpath(spans_path, ROOT),
    }


# -- main process ------------------------------------------------------------------

def run_worker(args, role, setups):
    """Run a worker to its end and return its standard output.

    Appends to ``setups`` the seconds from spawning it to its first timed
    job, with the machine speed around them.  The worker is terminated if
    this process unwinds early.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--role", role, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    before = speed()
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        try:
            if proc.stdout.readline().strip() != READY:
                raise SystemExit(f"worker for {args.workload} failed during set-up")
            seconds = time.perf_counter() - start
            out = proc.stdout.read()
        except BaseException:
            proc.terminate()
            raise
    if proc.returncode != 0:
        raise SystemExit(f"worker for {args.workload} exited with {proc.returncode}")
    # a set-up-only worker has exited by now, so the machine is idle again
    setups.append((seconds, (before + speed()) / 2 if role == "setup" else before))
    return out


def end_to_end(result, setups):
    rounds = result["times"]
    times = [t for r in normalised(rounds) for t in r]
    raw = [t for r in rounds for t in r["raw"]]
    attempted, failed = result["attempted"], result["failed"]
    beyond = len(times) - math.ceil(TAIL_PERCENTILE / 100 * len(times))
    print(f"{len(times)} timed jobs in {len(rounds)} rounds, {sum(raw):.3f} s wall clock; "
          f"job_tail_s is p{TAIL_PERCENTILE}, with {beyond} jobs beyond it; "
          f"peak resident memory after the last round {rounds[-1]['rss_mb']:.1f} MiB")
    print(f"machine speed vs nominal: {statistics.median(r['speed'] for r in rounds):.3f} over rounds, "
          f"{', '.join(f'{s:.3f}' for _, s in setups)} at set-ups; wall clock: "
          f"{statistics.median(len(r['raw']) / sum(r['raw']) for r in rounds):.4g} jobs/s, "
          f"p50 {statistics.median(raw):.4g} s, p{TAIL_PERCENTILE} {percentile(raw, TAIL_PERCENTILE):.4g} s, "
          f"set-ups {', '.join(f'{s:.3f}' for s, _ in setups)} s")
    return {
        "setup_s": statistics.median(s * v for s, v in setups),
        "jobs_per_s": throughput(rounds),
        "job_p50_s": statistics.median(times),
        "job_tail_s": percentile(times, TAIL_PERCENTILE),
        "ok_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": rounds[0]["rss_mb"],
    }


def print_metrics(metrics, units):
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "surfcomplex", "__init__.py")):
        print(f"error: no surfcomplex sources under {SRC}", file=sys.stderr)
        return 2
    # a terminated run unwinds, so the finally clauses below stop its worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.role != "main":
        worker(args)
        return 0
    os.makedirs(WORK, exist_ok=True)
    setups = []
    result = json.loads(run_worker(args, "worker", setups).strip().splitlines()[-1])
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload}, seed {args.seed}: {failed} of {attempted} jobs failed "
          f"(fail ratio {failed / attempted:.4f})")
    if args.trace:
        print("untraced half (one set-up):")
        print_metrics(end_to_end(result, setups), END_TO_END)
        metrics = result["per_layer"]
        units = per_layer_units()
        traced = sum(len(r["raw"]) for r in result["traced_times"])
        print(f"traced half: {traced} jobs in {result['traced_s']:.3f} s; {result['spans']} spans "
              f"in {result['spans_path']}; harness share {metrics['bench.harness_share']:.4f}; "
              f"rank-only SNF share of {result['rank_only_base_s']:.4f} s of SNF time: "
              f"{metrics['snf.smith_normal_form.rank_only_share']:.4f}")
    else:
        for _ in range(SETUPS - 1):
            run_worker(args, "setup", setups)
        metrics = end_to_end(result, setups)
        units = END_TO_END
    print_metrics(metrics, units)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def per_layer_units():
    sys.path.insert(0, HERE)
    import tracing

    return tracing.per_layer_units()


if __name__ == "__main__":
    sys.exit(main())
