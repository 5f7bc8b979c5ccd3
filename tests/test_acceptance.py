"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; tolerances are pinned here and nowhere else.
"""

import random
import time
from fractions import Fraction

import pytest

from surfcomplex.lattice import (
    Catalog,
    HomologyClass,
    ManifoldModel,
    SpinCStructure,
    SurfaceClass,
    is_adjunction_violator,
    k3_model,
    make_example_family,
    zero_spinc,
)
from surfcomplex.paramgeo import (
    CurvatureModel,
    WeightFunction,
    cylinder_length,
    cylinder_length_quadrature,
    enumerate_pieces,
    in_region,
    lambda_min,
    psi_forward,
    psi_inverse,
    psi_inverse_piece,
    q_cover_check,
    sample_ext_boundary,
    vanishing_certificate,
    vanishing_data,
)
from surfcomplex.simplicial import (
    Chain,
    SimplicialComplex,
    barycentric_subdivision,
    chain_simax,
    cone_fill,
    flag_complex,
    prism_fill,
    simplex_complex,
)
from surfcomplex.snf import bareiss_determinant, smith_normal_form
from surfcomplex.wallcross import (
    BoundingCollection,
    SWSeed,
    WallCrossingCollection,
    certify,
    collection_complex,
    cone_bounding,
    connected_sum_catalog,
    derive_constraints,
    evaluate_invariant,
    fundamental_cycle,
    verify_bounding,
)


def record(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[criterion {number:02d}] {name}: {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed{suffix}"


def _collection(k, d=2, block=None):
    block = block or d * d
    cat, members = make_example_family("ex46", k, [d] * k, [d] * k, [block] * k)
    return WallCrossingCollection.create(cat, members)


def test_criterion_01_fundamental_cycles():
    start = time.perf_counter()
    ok = True
    for k in range(1, 6):
        coll = _collection(k)
        z = fundamental_cycle(coll)
        ok = ok and len(z) == 2 ** k and z.boundary().is_zero()
        K = collection_complex(coll)
        expected_b0 = 2 if k == 1 else 1
        betti0, tor0 = K.homology(0)
        ok = ok and betti0 == expected_b0 and tor0 == []
        for n in range(1, k):
            betti, torsion = K.homology(n)
            want = 1 if n == k - 1 else 0
            ok = ok and betti == want and torsion == []
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 2.0
    record(1, "fundamental-cycles-sphere-homology", ok, f"{elapsed:.3f}s for k=1..5")


def test_criterion_02_filling_algorithms():
    rng = random.Random(2024)

    def random_complex(n, p, extra=0):
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        return flag_complex(range(n), edges, 3), edges

    def random_cycle(K, degree):
        upper = K.simplices(degree + 1)
        if not upper:
            return None
        u = Chain(degree + 1, {s: rng.randint(-2, 2) for s in upper})
        z = u.boundary()
        return None if z.is_zero() else z

    cones = prisms = 0
    ok = True
    while cones < 100:
        n = rng.randint(4, 7)
        base, _ = random_complex(n, 0.7)
        z = random_cycle(base, rng.randint(1, 2))
        if z is None:
            continue
        coned = SimplicialComplex(
            list(base.simplices()) + [s.joined(n) for s in base.simplices()]
        )
        w = cone_fill(coned, z, n)
        ok = ok and w.boundary() == z
        cones += 1
    while prisms < 100:
        n = rng.randint(4, 7)
        K, edges = random_complex(n, 0.7)
        z = random_cycle(K, rng.randint(1, 2))
        if z is None:
            continue
        vertex = rng.choice(sorted({v for s in z.terms for v in s}))
        neighbors = {w for e in edges for w in e if vertex in e} - {vertex}
        K2 = flag_complex(
            range(n + 1),
            edges + [(n, vertex)] + [(n, w) for w in neighbors],
            4,
        )
        z2, w = prism_fill(K2, z, vertex, n)
        ok = ok and w.boundary() == z - z2
        prisms += 1

    # cone-closed complexes are homologically trivial in low degrees
    for _ in range(10):
        base, _ = random_complex(rng.randint(3, 6), 0.6)
        apex = 99
        coned = SimplicialComplex(
            list(base.simplices()) + [s.joined(apex) for s in base.simplices()]
        )
        for degree in range(4):
            ok = ok and coned.reduced_betti(degree) == 0
            ok = ok and coned.homology(degree)[1] == []
    record(2, "cone-and-prism-fills", ok, "100 + 100 randomized instances")


def test_criterion_03_snf_oracle():
    rp2 = SimplicialComplex(
        [
            (0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 3, 5),
            (1, 2, 3), (1, 2, 5), (1, 3, 4), (2, 4, 5), (3, 4, 5),
        ]
    )
    ok = rp2.homology(1) == (0, [2])

    rng = random.Random(500)
    for _ in range(500):
        m = rng.randint(1, 30)
        n = rng.randint(1, 30)
        a = [[rng.randint(-50, 50) for _ in range(n)] for _ in range(m)]
        res = smith_normal_form(a)
        ok = ok and res.check(a)
        ok = ok and abs(bareiss_determinant([list(r) for r in res.u])) == 1
        ok = ok and abs(bareiss_determinant([list(r) for r in res.v])) == 1
        nonzero = [d for d in res.divisors if d]
        ok = ok and all(y % x == 0 for x, y in zip(nonzero, nonzero[1:]))
    record(3, "snf-certificates", ok, "RP^2 torsion + 500 audited matrices")


def test_criterion_04_cube_coverage():
    ok = True
    for dim in range(1, 5):
        sigma = tuple("PABCD"[: dim + 1])
        report = q_cover_check(sigma, 1, Fraction(1, 8))
        ok = ok and report["uncovered"] == 0
    record(4, "cube-decomposition-coverage", ok, "grid R/8, dims 1..4")


def test_criterion_05_psi_homeomorphism():
    rng = random.Random(55)
    worst = 0.0
    per_dim = {1: 2000, 2: 4000, 3: 4000}
    for dim, count in per_dim.items():
        sigma = tuple("ABCD"[: dim + 1])
        for _ in range(count):
            x = {v: rng.random() for v in sigma}
            x[sigma[rng.randrange(len(sigma))]] = 1.0
            pinned, tau, s, t, r = psi_inverse(sigma, 1.0, x)
            back = psi_forward(sigma, pinned, 1.0, s, t, r)
            worst = max(worst, max(abs(back[v] - x[v]) for v in sigma))
    ok = worst < 1e-12

    # adjacent pieces agree wherever they overlap
    agreement = 0.0
    sigma = ("A", "B", "C")
    big_r = Fraction(1)
    grid = [Fraction(i, 4) for i in range(5)]
    for xa in grid:
        for xb in grid:
            x = {"A": xa, "B": xb, "C": big_r}
            for pinned in [v for v in sigma if x[v] == big_r]:
                rest = {v: xv for v, xv in x.items() if v != pinned}
                for tau, s in enumerate_pieces(sigma, pinned):
                    if not in_region(sigma, pinned, tau, s, big_r, rest):
                        continue
                    t, r = psi_inverse_piece(sigma, pinned, big_r, s, rest)
                    back = psi_forward(sigma, pinned, big_r, s, t, r)
                    agreement = max(
                        agreement, max(abs(float(back[v] - x[v])) for v in sigma)
                    )
    ok = ok and agreement < 1e-12
    record(5, "psi-round-trip-and-agreement", ok,
           f"max errors {worst:.2e} / {agreement:.2e} over 10^4 samples")


def test_criterion_06_cylinder_lengths():
    ok = True
    worst = 0.0
    for i in range(1, 21):
        for j in range(20):
            lam = i / 5
            r = j * 0.7
            closed = cylinder_length(lam, r)
            numeric = cylinder_length_quadrature(lam, r)
            worst = max(worst, abs(closed - numeric))
            ok = ok and abs(closed - lam * (2 * r + 3)) == 0
            ok = ok and closed > lam * (r + 1)
    ok = ok and worst < 1e-9
    record(6, "cylinder-length-closed-form", ok, f"20x20 grid, max dev {worst:.2e}")


def test_criterion_07_scale_minimum():
    rng = random.Random(77)
    ok = True
    for dim in range(5):
        sigma = tuple("ABCDE"[: dim + 1])
        weights = [WeightFunction.dyadic(), WeightFunction.one()]
        values = {}
        for f in sorted(
            [tuple(sorted(sigma[i] for i in range(dim + 1) if (m >> i) & 1))
             for m in range(1, 2 ** (dim + 1))],
            key=len,
        ):
            if len(f) == 1:
                values[f] = Fraction(1)
            else:
                cap = min(values[tuple(sorted(set(f) - {v}))] for v in f)
                values[f] = cap * Fraction(rng.randint(1, 8), 8)
        weights.append(WeightFunction(values))
        subdivision = barycentric_subdivision(simplex_complex(sigma))
        for a in weights:
            a.check_monotone(sigma)
            exhaustive = min(a.value(chain_simax(s)) for s in subdivision.simplices())
            ok = ok and lambda_min(sigma, a) == exhaustive == a.value(sigma)
    record(7, "scale-minimum-exhaustive", ok, "dims 0..4, three weight families")


def test_criterion_08_vanishing_margins():
    rng = random.Random(88)
    sigma = ("A", "B", "C")
    a = WeightFunction.constant_on_higher(Fraction(1, 2))
    model = CurvatureModel(kappa_norm_sup=Fraction(10), c1_square=4)
    data = vanishing_data(sigma, a, model)
    ok = data["c_value"] == 6 and data["r_bar"] == 12
    samples = sample_ext_boundary(sigma, data["r_bar"], 1000, rng)
    cert = vanishing_certificate(
        sigma, a, model, data["r_bar"], samples, {v: (0, 2) for v in sigma}
    )
    ok = ok and cert.certified and cert.sample_count == 1000 and cert.min_margin > 0
    record(8, "vanishing-margins", ok,
           f"1000 samples at R = 12, min margin {float(cert.min_margin):.3f}")


def test_criterion_09_example_families():
    ok = True
    for k in (1, 2, 3):
        for d in range(2, 10):
            cat, members = make_example_family(
                "ex46", k, [d] * k, [d] * k, [d * d] * k
            )
            cert = certify(WallCrossingCollection.create(cat, members))
            ok = ok and cert.certified
            for s in cat.surfaces:
                ok = ok and cat.manifold.square(s.cls) == 0
                ok = ok and is_adjunction_violator(cat.manifold, cat.spinc, s)
    for d in range(3, 7):
        cat, members = make_example_family("ex47", 1, [d], [d], [d * d - 3])
        cert = certify(WallCrossingCollection.create(cat, members))
        ok = ok and cert.certified
        for s in cat.surfaces:
            ok = ok and cat.manifold.square(s.cls) == 0
            ok = ok and is_adjunction_violator(cat.manifold, cat.spinc, s)
    for dm in (2, 3):
        cat, members = make_example_family("ex48", 1, [2], [dm], [max(4, dm * dm)])
        cert = certify(WallCrossingCollection.create(cat, members))
        ok = ok and cert.certified
        for s in cat.surfaces:
            ok = ok and cat.manifold.square(s.cls) == 0
            ok = ok and is_adjunction_violator(cat.manifold, cat.spinc, s)
    cert = certify(_collection(1, 2))
    ok = ok and cert.products == {1: (-4, 12)}
    record(9, "example-families-certify", ok,
           "ex46 k<=3 d=2..9, ex47 d=3..6, ex48 d-=2,3")


def test_criterion_10_evaluation_pipeline():
    k3 = k3_model()
    sp = zero_spinc(k3)
    ok = k3.euler == 24 and k3.signature == -16
    from surfcomplex.lattice import formal_dimension

    ok = ok and formal_dimension(k3, sp) == 0

    coll = _collection(1, 2, block=4)
    report = evaluate_invariant(coll, SWSeed(1, "K3 canonical"), k3, sp)
    ok = ok and report.host_b_plus == 1 + 3 and report.host_b_minus == 4 + 19
    ok = ok and report.pairing_magnitude == 1 and report.sign_ambiguous
    ok = ok and report.cohomology_class_nonzero and report.cycle_class_nonzero
    for k in (1, 2, 3):
        coll = _collection(k, 2, block=4)
        rep = evaluate_invariant(coll, SWSeed(1), k3, sp)
        ok = ok and all(h.ok for h in rep.hypotheses)
        ok = ok and rep.host_b_plus == k + 3 and rep.host_b_minus == 4 * k + 19
    record(10, "evaluation-pipeline", ok, "K3 seed, hosts (k+3, 4k+19), k=1..3")


def test_criterion_11_bounding_and_constraints():
    ok = True
    # single cone
    cat, members = make_example_family("ex46", 2, [2, 2], [2, 2], [4, 4])
    host = cat.with_surface(
        SurfaceClass("W", HomologyClass(), 0), disjoint_from=list(cat.ids())
    )
    coll = WallCrossingCollection.create(host, members)
    cone = cone_bounding(host, coll, "W")
    ok = ok and verify_bounding(host, coll, cone).verified

    # two-surface configuration
    host2 = cat.with_surface(
        SurfaceClass("W", HomologyClass(), 0), disjoint_from=["S1+", "S1-", "S2+"]
    ).with_surface(
        SurfaceClass("W'", HomologyClass(), 1), disjoint_from=["S1+", "S1-", "S2-", "W"]
    )
    coll2 = WallCrossingCollection.create(host2, members)
    two = BoundingCollection(
        (
            (1, ("S1+", "S2+", "W")),
            (-1, ("S1-", "S2+", "W")),
            (1, ("S1+", "W", "W'")),
            (-1, ("S1-", "W", "W'")),
            (-1, ("S1+", "S2-", "W'")),
            (1, ("S1-", "S2-", "W'")),
        )
    )
    verdict2 = verify_bounding(host2, coll2, two)
    ok = ok and verdict2.verified and verdict2.members == ("W", "W'")

    # mutation fails with a nonzero residual
    broken = BoundingCollection(two.terms[1:])
    verdict3 = verify_bounding(host2, coll2, broken)
    ok = ok and not verdict3.verified and not verdict3.residual.is_zero()

    # plain disjunction report
    plain = derive_constraints(host2, coll2, two, SWSeed(1, "hypothetical"))
    ok = ok and set(plain.members) == {"W", "W'"}
    ok = ok and not plain.blowup_applied
    ok = ok and all(r.bound == abs(r.c1_pairing) for r in plain.rows)

    # positive-square member: blow-up transform strengthens the bound
    m_basis = tuple((f"F{i}", 1) for i in (1, 2, 3)) + tuple(
        (f"G{j}", -1) for j in (1, 2, 3)
    )
    m_model = ManifoldModel("M0", m_basis, euler=8, signature=0)
    m_spinc = SpinCStructure.on(
        m_model,
        HomologyClass({"F1": 3, "F2": 3, "F3": 1, "G1": 1, "G2": 1, "G3": 1}),
    )
    from surfcomplex.lattice import formal_dimension

    ok = ok and formal_dimension(m_model, m_spinc) == 0 and m_model.b_plus == 3
    hostx = connected_sum_catalog(m_model, m_spinc, cat)
    hostx = hostx.with_surface(
        SurfaceClass("S", HomologyClass({"F1": 2, "G1": 1}), 5),
        disjoint_from=list(cat.ids()),
    )
    collx = WallCrossingCollection.create(hostx, members, h_labels=("H1", "H2"))
    bndx = cone_bounding(hostx, collx, "S", ambient="nonneg")
    report = derive_constraints(hostx, collx, bndx, SWSeed(1, "hypothetical"))
    row = report.rows[0]
    ok = ok and report.blowup_applied
    ok = ok and row.self_intersection == 3
    ok = ok and row.bound == abs(row.c1_pairing) + row.self_intersection
    ok = ok and row.strengthened and row.genus == 5
    record(11, "boundings-and-constraints", ok,
           "cone, two-surface, mutation, blow-up transform")
