"""The benchmark's four workloads: seeded inputs, the jobs, and their gates.

``make(name, seed, workdir, expected, tiny=False)`` returns the workload's
strata, one :class:`Job` each.  Set-up happens there: every input of the run
is generated from ``seed`` and written under ``workdir``.  ``rounds`` then
yields rounds of jobs.  A round holds one job per stratum (a size
class of the workload) in a fresh seeded order, and runs stop on whole
rounds, so that every seed measures the same mix of sizes.

CLI jobs call ``cli.main(argv)`` in process, as a user's script would, and
their canonical JSON reports are compared with sha256 digests recorded by
``record.py`` (``expected.json``).  That is why every CLI input comes from a
finite configuration space: the seed picks configurations and orders, and
every configuration has a recorded digest.  Library jobs have no report; their
gates re-check the exact certificates instead.

Library functions are always looked up through their module at call time
(``snf.smith_normal_form``, not a name bound here), so the traced run sees
them once ``tracing.Tracer`` has replaced the module attributes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from surfcomplex import cli, lattice, paramgeo, simplicial, snf, wallcross

NAMES = ("pipeline", "build", "homology", "paramgeo")


@dataclass
class Job:
    """One unit of work in the closed loop.

    ``run`` is the timed part; ``check`` is the untimed gate, returning the
    list of problems with ``run``'s result (empty when correct).  CLI jobs
    also have ``reports``, which turns a result into
    ``(label, exit code, expected exit code, report text)`` rows.
    """

    key: str
    run: Callable[[], object]
    check: Callable[[object], list]
    reports: Callable[[object], list] | None = None


def rounds(strata, rng):
    while True:
        order = list(strata)
        rng.shuffle(order)
        yield order


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def run_cli(argv):
    """``cli.main`` in process; returns (exit code, captured stdout).

    An argparse rejection surfaces as ``SystemExit`` and becomes the code
    ``"SystemExit(<code>)"``, which never equals an expected exit code.
    """
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except SystemExit as e:
        code = f"SystemExit({e.code})"
    return code, out.getvalue()


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)


def cli_job(key, run, reports, expected):
    """A job whose reports are gated against the digests recorded for ``key``."""
    return Job(key, run, lambda result: _check_reports(key, reports(result), expected), reports)


def _check_reports(key, reports, expected):
    want = expected.get(key)
    if want is None:
        return [f"{key}: no recorded digests"]
    problems = []
    if sorted(label for label, *_ in reports) != sorted(want):
        return [f"{key}: ran {[r[0] for r in reports]}, recorded {sorted(want)}"]
    for label, code, want_code, text in reports:
        if code != want_code:
            problems.append(f"{key} {label}: exit {code}, want {want_code}")
        if digest(text) != want[label]:
            problems.append(f"{key} {label}: report digest differs from the recorded one")
    return problems


# -- pipeline: one full CLI session per job ------------------------------------
#
# The user's path.  Every layer does a little and the glue dominates: JSON
# load, the catalog sha256 recomputed per command, canonical dumps, chain
# accumulation in fundamental_cycle.

FAMILY_DEGREES = {
    "ex46": ((2, 2), (2, 3), (3, 2), (3, 3)),
    "ex47": ((3, 3),),
    "ex48": ((2, 2), (2, 3), (3, 2), (3, 3)),
}
BLOCK = 9  # exceptional block size per index; every degree above fits it
PIPELINE_K = (5, 6, 7)
SHARES = ("plain", "blowup", "broken")
PIPELINE_TINY = (("ex46", 3, 2, 2, "blowup"),)


def pipeline_key(kind, k, dp, dm, share):
    return f"{kind}-k{k}-d{dp}{dm}-{share}"


def pipeline_configs(rng, tiny=False):
    """One configuration per (k, share) stratum.

    Families follow a seeded Latin square, so each round has every family
    once per k and once per share; degrees are drawn per cell.
    """
    if tiny:
        return list(PIPELINE_TINY)
    kinds = sorted(FAMILY_DEGREES)
    offset = rng.randrange(len(kinds))
    out = []
    for i, k in enumerate(PIPELINE_K):
        for j, share in enumerate(SHARES):
            kind = kinds[(i + j + offset) % len(kinds)]
            dp, dm = rng.choice(FAMILY_DEGREES[kind])
            out.append((kind, k, dp, dm, share))
    return out


def all_pipeline_configs():
    out = list(PIPELINE_TINY)
    for kind, degrees in sorted(FAMILY_DEGREES.items()):
        for dp, dm in degrees:
            for k in PIPELINE_K:
                for share in SHARES:
                    out.append((kind, k, dp, dm, share))
    return out


def _positive_summand():
    """A closed summand with b+ = 3 whose class F1*2 + G1 has square 3."""
    basis = tuple((f"F{i}", 1) for i in (1, 2, 3)) + tuple((f"G{j}", -1) for j in (1, 2, 3))
    model = lattice.ManifoldModel("M0", basis, euler=8, signature=0)
    spinc = lattice.SpinCStructure.on(
        model, lattice.HomologyClass({"F1": 3, "F2": 3, "F3": 1, "G1": 1, "G2": 1, "G3": 1})
    )
    return model, spinc


def pipeline_job(config, workdir, expected):
    """Set up one pipeline configuration and return its job.

    The host catalog adds one apex surface disjoint from the family and the
    bounding cones the fundamental cycle off at it.  The ``blowup`` share
    uses an apex of square 3 in a connected sum with ``ambient="nonneg"``,
    so ``constraints derive`` takes the blow-up route; the ``broken`` share
    hands ``bounding verify`` the bounding without its first simplex, which
    must exit 1 with a residual.
    """
    kind, k, dp, dm, share = config
    key = pipeline_key(*config)
    d = os.path.join(workdir, key)
    os.makedirs(d, exist_ok=True)
    catalog, members = lattice.make_example_family(kind, k, [dp] * k, [dm] * k, [BLOCK] * k)
    collection = wallcross.WallCrossingCollection.create(catalog, members)
    if share == "blowup":
        model, spinc = _positive_summand()
        host = wallcross.connected_sum_catalog(model, spinc, catalog).with_surface(
            lattice.SurfaceClass("S", lattice.HomologyClass({"F1": 2, "G1": 1}), 5),
            disjoint_from=catalog.ids(),
        )
        hosted = wallcross.WallCrossingCollection.create(host, members, h_labels=collection.h_labels)
        bounding = wallcross.cone_bounding(host, hosted, "S", ambient="nonneg")
    else:
        host = catalog.with_surface(
            lattice.SurfaceClass("W", lattice.HomologyClass(), 0), disjoint_from=catalog.ids()
        )
        hosted = collection.re_host(host)
        bounding = wallcross.cone_bounding(host, hosted, "W")
    coll_path = os.path.join(d, "collection.json")
    host_path = os.path.join(d, "host.json")
    bnd_path = os.path.join(d, "bounding.json")
    broken_path = os.path.join(d, "broken.json")
    _write_json(host_path, hosted.to_json())
    _write_json(bnd_path, bounding.to_json())
    _write_json(broken_path, wallcross.BoundingCollection(bounding.terms[1:], bounding.ambient).to_json())

    verify_with, verify_code = (broken_path, 1) if share == "broken" else (bnd_path, 0)
    commands = [
        ("examples make", ["examples", "make", "--kind", kind, "--k", str(k),
                           "--d", ",".join(f"{dp},{dm}" for _ in range(k)),
                           "--l", ",".join([str(BLOCK)] * k), "--output", coll_path], 0),
        ("wallcross certify", ["wallcross", "certify", "--input", coll_path], 0),
        ("wallcross cycle", ["wallcross", "cycle", "--input", coll_path], 0),
        ("complex build", ["complex", "build", "--input", coll_path], 0),
        ("complex homology", ["complex", "homology", "--input", coll_path, "--deg", str(k - 1)], 0),
        ("bounding verify", ["bounding", "verify", "--input", host_path, "--bounding", verify_with],
         verify_code),
        ("constraints derive", ["constraints", "derive", "--input", host_path, "--bounding", bnd_path,
                                "--seed-value", "1"], 0),
        ("invariant evaluate", ["invariant", "evaluate", "--input", coll_path, "--m-model", "k3",
                                "--seed-value", "1"], 0),
        ("paramgeo selftest", ["paramgeo", "selftest"], 0),
    ]

    def run():
        return [(label, *run_cli(argv + ["--format", "json"]), want) for label, argv, want in commands]

    def reports(results):
        rows = []
        for label, code, text, want in results:
            if label == "examples make":
                with open(coll_path) as fh:
                    text = fh.read()
            rows.append((label, code, want, text))
        return rows

    return cli_job(key, run, reports, expected)


# -- build: complex construction on large catalogs -----------------------------
#
# Complex construction and report serialisation dominate and SNF does no
# work, so a faster complex core shows here and faster homology does not.
# k stops at 20 (about 0.6 s a job here) so that a run holds MIN_JOBS jobs.

BUILD_K = (16, 18, 20)
BUILD_COPY_K = (6, 7)
BUILD_DEGREES = (2, 3)
BUILD_TINY = (("ex46", 4, 2, 0),)


def build_key(kind, k, d, copies):
    return f"{kind}-k{k}-d{d}" + (f"-copies{copies}" if copies else "")


def build_configs(rng, tiny=False):
    """Plain ex46 catalogs at each k, plus ex46 catalogs where every surface
    has two parallel copies (denser cliques at fewer labels)."""
    if tiny:
        return list(BUILD_TINY)
    out = [("ex46", k, rng.choice(BUILD_DEGREES), 0) for k in BUILD_K]
    out += [("ex46", k, rng.choice(BUILD_DEGREES), 2) for k in BUILD_COPY_K]
    return out


def all_build_configs():
    out = list(BUILD_TINY)
    for d in BUILD_DEGREES:
        out += [("ex46", k, d, 0) for k in BUILD_K]
        out += [("ex46", k, d, 2) for k in BUILD_COPY_K]
    return out


def build_job(config, workdir, expected):
    kind, k, d, copies = config
    key = build_key(*config)
    catalog, _ = lattice.make_example_family(kind, k, [d] * k, [d] * k, [BLOCK] * k)
    for sid in catalog.ids():
        for _ in range(copies):
            catalog = catalog.with_parallel_copy(sid)
    path = os.path.join(workdir, key + ".json")
    _write_json(path, catalog.to_json())
    argv = ["complex", "build", "--input", path, "--max-dim", "2", "--format", "json"]

    def run():
        return run_cli(argv)

    def reports(result):
        code, text = result
        return [("complex build", code, 0, text)]

    return cli_job(key, run, reports, expected)


# -- homology: exact homology and fillings --------------------------------------
#
# SNF and boundary matrices dominate.  Homology jobs use only ranks and
# divisors; fill jobs need the transforms, so an SNF that drops transforms
# for rank queries shows its gain on the first and cannot hide a slowdown on
# the second.  Sizes keep each job near 0.3 s.

RP2 = ((0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 3, 5),
       (1, 2, 3), (1, 2, 5), (1, 3, 4), (2, 4, 5), (3, 4, 5))
# known complexes, their groups by degree, and the seeded stellar moves
# applied to each; a subdivision keeps the groups, so its reports too
KNOWN_GROUPS = {"rp2": ("Z", "Z/2", "0"), "s2": ("Z", "0", "Z"), "s3": ("Z", "0", "0", "Z")}
STELLAR_MOVES = {"rp2": 20, "s2": 30, "s3": 20}
FLAG_N = 32
FLAG_EDGES = 155
FLAG_MAX_DIM = 3
# the recorded pool keeps graphs whose flag complexes have sizes in these
# windows, so that every seed draws jobs of about the same cost
FLAG_TRIANGLES = (148, 158)
FLAG_TETRAHEDRA = (30, 40)
FILL_MATRICES = 6
FILL_SIZE = (20, 30)
FILL_CHAIN_MOVES = 10


def _collection_sphere(k):
    """The (k-1)-sphere spanned by a stock k-family: a cross-polytope boundary."""
    catalog, members = lattice.make_example_family("ex46", k, [2] * k, [2] * k, [4] * k)
    return wallcross.collection_complex(wallcross.WallCrossingCollection.create(catalog, members))


def base_complex(name):
    if name == "rp2":
        return simplicial.barycentric_subdivision(simplicial.SimplicialComplex(RP2))
    if name == "s2":
        return simplicial.barycentric_subdivision(_collection_sphere(3))
    return _collection_sphere(4)


def stellar_subdivision(complex_, moves, rng):
    """Top simplices after ``moves`` seeded stellar moves (homeomorphic).

    Each move replaces a top simplex by the cone from a new vertex over its
    boundary.  Vertices are relabelled to 0..n-1 in sorted order first.
    """
    labels = {v: i for i, v in enumerate(sorted(complex_.vertices()))}
    tops = [tuple(sorted(labels[v] for v in s.vertices)) for s in complex_.simplices(complex_.dim)]
    fresh = len(labels)
    for _ in range(moves):
        top = tops.pop(rng.randrange(len(tops)))
        for i in range(len(top)):
            tops.append(top[:i] + top[i + 1:] + (fresh,))
        fresh += 1
    return tops


def flag_graph(graph_seed):
    """A seeded random graph G(n, m) on 0..n-1, as a sorted edge list."""
    rng = random.Random(f"flag-{graph_seed}")
    pairs = [(a, b) for a in range(FLAG_N) for b in range(a + 1, FLAG_N)]
    return sorted(rng.sample(pairs, FLAG_EDGES))


def flag(graph_seed):
    return simplicial.flag_complex(range(FLAG_N), flag_graph(graph_seed), FLAG_MAX_DIM)


def homology_job(key, complex_, workdir, expected):
    """``complex homology`` of a simplices document in every degree.

    ``key`` names the recorded digests: a known group (``rp2``, ``s2``,
    ``s3``), whose reports depend only on the homology, or a pool graph.
    """
    path = os.path.join(workdir, key + ".json")
    _write_json(path, simplicial.complex_to_json(complex_))
    degrees = range(complex_.dim + 1)

    def run():
        return [run_cli(["complex", "homology", "--input", path, "--deg", str(d), "--format", "json"])
                for d in degrees]

    def reports(results):
        return [(f"H{d}", code, 0, text) for d, (code, text) in zip(degrees, results)]

    def check(results):
        problems = _check_reports(key, reports(results), expected)
        groups = tuple(_group(text) for _, text in results)
        if key in KNOWN_GROUPS and groups != KNOWN_GROUPS[key]:
            problems.append(f"{key}: homology {groups}, want {KNOWN_GROUPS[key]}")
        return problems

    return Job(key, run, check, reports)


def _group(text):
    try:
        return json.loads(text)["group"]
    except (ValueError, KeyError, TypeError):
        return None


def fill_job(key, rng):
    """Exact solves that need the SNF transforms.

    Random integer systems with a planted solution (SNF, its certificate,
    and ``solve_integer_system``), ``solve_boundary`` for the boundary of a
    seeded 2-chain on a subdivided RP^2, and ``cone_fill`` of a seeded
    1-cycle into the cone over that complex's edges.
    """
    systems = []
    for _ in range(FILL_MATRICES):
        rows, cols = rng.randint(*FILL_SIZE), rng.randint(*FILL_SIZE)
        a = [[rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(cols)] for _ in range(rows)]
        x = [rng.randint(-5, 5) for _ in range(cols)]
        systems.append((a, [sum(r[j] * x[j] for j in range(cols)) for r in a]))
    tops = stellar_subdivision(base_complex("rp2"), FILL_CHAIN_MOVES, rng)
    triangles = [simplicial.Simplex(t) for t in tops]
    chain = simplicial.Chain(2, {s: rng.randint(-3, 3) for s in rng.sample(triangles, len(triangles) // 3)})
    target = chain.boundary()
    apex = max(max(t) for t in tops) + 1
    edges = sorted({e for s in triangles for e in s.faces()})
    cone = simplicial.SimplicialComplex([e.vertices + (apex,) for e in edges])

    def run():
        solved = []
        for a, b in systems:
            res = snf.smith_normal_form(a)
            solved.append((res.check(a), snf.solve_integer_system(a, b)))
        return solved, simplicial.solve_boundary(triangles, target), simplicial.cone_fill(cone, target, apex)

    def check(result):
        solved, filling, coned = result
        problems = []
        for (a, b), (certified, x) in zip(systems, solved):
            if not certified:
                problems.append(f"{key}: SNFResult.check failed")
            if x is None or [sum(r[j] * x[j] for j in range(len(x))) for r in a] != b:
                problems.append(f"{key}: solve_integer_system missed the planted system")
        if filling is None or filling.boundary() != target:
            problems.append(f"{key}: solve_boundary filling has the wrong boundary")
        if coned.boundary() != target:
            problems.append(f"{key}: cone_fill filling has the wrong boundary")
        return problems

    return Job(key, run, check)


def homology_jobs(rng, workdir, expected, pool, tiny=False):
    if tiny:
        return [homology_job("rp2", simplicial.SimplicialComplex(RP2), workdir, expected)]
    jobs = []
    for name, moves in STELLAR_MOVES.items():
        tops = stellar_subdivision(base_complex(name), moves, rng)
        jobs.append(homology_job(name, simplicial.SimplicialComplex(tops), workdir, expected))
    for graph_seed in rng.sample(pool, 2):
        jobs.append(homology_job(f"flag{graph_seed}", flag(graph_seed), workdir, expected))
    jobs += [fill_job(f"fill{i}", rng) for i in range(2)]
    return jobs


# -- paramgeo: parameter geometry through the library --------------------------
#
# Shares no code with the other layers; the exponential enumerations behind
# lambda_min and the cube cover only cost something at 5 to 6 vertices.
# vanishing_data at 7 vertices (about 5 s) is left out to keep jobs short.

CERT_DIM = 4
CERT_SAMPLES = 300
PSI_TRIPS = 200
QUADRATURES = 12


def seeded_weights(rng, sigma):
    """A monotone weight: a(f) = 1 / (1 + sum c_v - max c_v) over v in f.

    Vertices get 1; adding a vertex raises the sum by c_u and the max by at
    most c_u, so the weight never increases along inclusions.
    """
    c = {v: rng.randint(1, 5) for v in sigma}
    return paramgeo.WeightFunction(
        default=lambda f: Fraction(1, 1 + sum(c[v] for v in f) - max(c[v] for v in f))
    )


def _faces(sigma):
    n = len(sigma)
    return [tuple(sigma[i] for i in range(n) if mask >> i & 1) for mask in range(1, 2 ** n)]


def vanishing_job(key, n, rng, cover=None):
    sigma = _labels("v", n)
    weights = seeded_weights(rng, sigma)
    model = paramgeo.CurvatureModel(kappa_norm_sup=Fraction(rng.randint(5, 40)), c1_square=rng.randint(0, 4))

    def run():
        data = paramgeo.vanishing_data(sigma, weights, model)
        return data, (paramgeo.q_cover_check(cover[0], 1, cover[1]) if cover else None)

    def check(result):
        data, report = result
        c = model.kappa_norm_sup - model.c1_square
        per_face = {f: max(c / weights.value(f), 0) for f in _faces(sigma)}
        want = {"lambda_min": weights.value(sigma), "c_value": c, "r_bar": max(c / weights.value(sigma), 0),
                "r_max": max(per_face.values()), "per_face_r_bar": per_face}
        problems = [f"{key}: vanishing_data differs at {k!r}" for k in want if data.get(k) != want[k]]
        if cover:
            problems += _cover_problems(key, *cover, report)
        return problems

    return Job(key, run, check)


def _cover_problems(key, sigma, step, report):
    ticks = int(1 / step) + 1
    want = len(sigma) * ticks ** (len(sigma) - 1)
    if report["uncovered"] or report["points"] != want:
        return [f"{key}: q_cover_check saw {report['points']} points, {report['uncovered']} uncovered"]
    return []


def _labels(prefix, n):
    return tuple(f"{prefix}{i}" for i in range(n))


def cover_job(key, sigma, step):
    def run():
        return paramgeo.q_cover_check(sigma, 1, step)

    return Job(key, run, lambda report: _cover_problems(key, sigma, step, report))


def certificate_job(key, rng):
    """Vanishing certificate over seeded boundary samples, seeded psi round
    trips, and closed-form cylinder lengths against quadrature."""
    sigma = _labels("w", CERT_DIM + 1)
    weights = seeded_weights(rng, sigma)
    model = paramgeo.CurvatureModel(kappa_norm_sup=Fraction(rng.randint(5, 40)), c1_square=rng.randint(0, 4))
    big_r = max(model.c_value() / weights.value(sigma), Fraction(1))
    sample_seed = rng.random()
    points = []
    for _ in range(PSI_TRIPS):
        x = {v: Fraction(rng.randint(0, 64), 64) for v in sigma}
        x[rng.choice(sigma)] = Fraction(1)
        points.append(x)
    lengths = [(Fraction(rng.randint(1, 8), 8), Fraction(rng.randint(0, 40), 4)) for _ in range(QUADRATURES)]
    vertex_data = {v: (0, 2) for v in sigma}

    def run():
        samples = paramgeo.sample_ext_boundary(sigma, big_r, CERT_SAMPLES, random.Random(sample_seed))
        cert = paramgeo.vanishing_certificate(sigma, weights, model, big_r, samples, vertex_data)
        trips = []
        for x in points:
            pinned, _, s, t, r = paramgeo.psi_inverse(sigma, 1, x)
            trips.append(paramgeo.psi_forward(sigma, pinned, 1, s, t, r))
        quads = [paramgeo.cylinder_length_quadrature(lam, r) for lam, r in lengths]
        return samples, cert, trips, quads

    def check(result):
        samples, cert, trips, quads = result
        c = model.c_value()
        # scale = sum of t_j * a(largest face of s_j); claimed-warp cylinders
        # have length scale * (2r + 3)
        margins = tuple(
            sum(w * weights.value(max(s, key=len)) for w, s in zip(ws, chains))
            * sum(2 * rv + 3 for rv in r.values()) - c
            for _, chains, ws, r in samples
        )
        problems = []
        if not cert.certified or cert.margins != margins or cert.sample_count != CERT_SAMPLES:
            problems.append(f"{key}: vanishing certificate differs from the recomputed margins")
        if trips != points:
            problems.append(f"{key}: psi round trip is not exact")
        if any(abs(q - float(lam * (2 * r + 3))) > 1e-9 for q, (lam, r) in zip(quads, lengths)):
            problems.append(f"{key}: quadrature disagrees with the closed form")
        return problems

    return Job(key, run, check)


def paramgeo_jobs(rng, tiny=False):
    if tiny:
        return [vanishing_job("vanishing-tiny", 3, rng, cover=(_labels("u", 4), Fraction(1, 4)))]
    # five strata, so that p75 falls inside the costliest group, not on an edge
    return [
        vanishing_job("vanishing6a", 6, rng),
        vanishing_job("vanishing6b", 6, rng),
        vanishing_job("vanishing5-cover3", 5, rng, cover=(_labels("u", 4), Fraction(1, 8))),
        cover_job("cover4", _labels("u", 5), Fraction(1, 4)),
        certificate_job("certificate", rng),
    ]


# -- entry ----------------------------------------------------------------------

def make(name, seed, workdir, expected, tiny=False):
    """Set up workload ``name`` for ``seed``: generate and write every input.

    Returns the strata, one job each; ``tiny`` gives one small job.
    """
    rng = random.Random(f"{name}-{seed}")
    os.makedirs(workdir, exist_ok=True)
    if name == "pipeline":
        strata = [pipeline_job(c, workdir, expected["pipeline"]) for c in pipeline_configs(rng, tiny)]
    elif name == "build":
        strata = [build_job(c, workdir, expected["build"]) for c in build_configs(rng, tiny)]
    elif name == "homology":
        strata = homology_jobs(rng, workdir, expected["homology"], expected["flag_pool"], tiny)
    elif name == "paramgeo":
        strata = paramgeo_jobs(rng, tiny)
    else:
        raise ValueError(f"unknown workload {name!r}; want one of {NAMES}")
    return strata
