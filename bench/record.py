"""Record the digests that the benchmark's correctness gate compares with.

Run from the root of a checkout whose reports are known to be right::

    python3 bench/record.py

It runs every CLI job configuration the workloads can draw once, checks
each exit code against the design (0, or 1 for the broken bounding), and
writes ``bench/expected.json``: sha256 digests of every canonical report,
keyed by configuration and command, plus the pool of flag-complex graphs
whose sizes fall in the windows of ``workloads.py``.  A later commit that
must keep reports byte-identical is measured against this file unchanged.
"""

from __future__ import annotations

import json
import os
import random
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import workloads as w  # noqa: E402

POOL_SIZE = 24


def record(job):
    rows = job.reports(job.run())
    for label, code, want_code, _ in rows:
        if code != want_code:
            raise SystemExit(f"{job.key} {label}: exit {code}, designed {want_code}; not recording")
    return {label: w.digest(text) for label, _, _, text in rows}


def flag_pool():
    pool, graph_seed = [], 0
    while len(pool) < POOL_SIZE:
        complex_ = w.flag(graph_seed)
        triangles, tetrahedra = len(complex_.simplices(2)), len(complex_.simplices(3))
        if (w.FLAG_TRIANGLES[0] <= triangles <= w.FLAG_TRIANGLES[1]
                and w.FLAG_TETRAHEDRA[0] <= tetrahedra <= w.FLAG_TETRAHEDRA[1]):
            pool.append(graph_seed)
        graph_seed += 1
    return pool


def main():
    out = {"pipeline": {}, "build": {}, "homology": {}, "flag_pool": flag_pool()}
    with tempfile.TemporaryDirectory(dir=HERE) as workdir:
        for config in w.all_pipeline_configs():
            job = w.pipeline_job(config, workdir, {})
            out["pipeline"][job.key] = record(job)
            print(job.key, flush=True)
        for config in w.all_build_configs():
            job = w.build_job(config, workdir, {})
            out["build"][job.key] = record(job)
            print(job.key, flush=True)
        rng = random.Random("record")
        for name, moves in w.STELLAR_MOVES.items():
            complex_ = w.simplicial.SimplicialComplex(w.stellar_subdivision(w.base_complex(name), moves, rng))
            out["homology"][name] = record(w.homology_job(name, complex_, workdir, {}))
        for graph_seed in out["flag_pool"]:
            key = f"flag{graph_seed}"
            out["homology"][key] = record(w.homology_job(key, w.flag(graph_seed), workdir, {}))
            print(key, flush=True)
    with open(os.path.join(HERE, "expected.json"), "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
