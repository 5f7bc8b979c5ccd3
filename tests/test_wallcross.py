import json
import random

import pytest

from surfcomplex.lattice import (
    Catalog,
    HomologyClass,
    ManifoldModel,
    SpinCStructure,
    SurfaceClass,
    k3_model,
    make_example_family,
    projective_sum_model,
    standard_spinc,
    zero_spinc,
)
from surfcomplex.simplicial import Chain, Simplex, barycentric_subdivision
from surfcomplex.wallcross import (
    BoundingCollection,
    BoundingError,
    CollectionError,
    HypothesisError,
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


def family(kind, k, d, lengths=None):
    lengths = lengths or [d * d] * k
    cat, members = make_example_family(kind, k, [d] * k, [d] * k, lengths)
    return cat, members


def collection(kind="ex46", k=1, d=2, lengths=None):
    cat, members = family(kind, k, d, lengths)
    return WallCrossingCollection.create(cat, members)


# -- certification ---------------------------------------------------------------

def test_certify_k1_products():
    cert = certify(collection())
    assert cert.certified
    assert cert.products == {1: (-4, 12)}


def test_certify_ex48_products():
    cat, members = make_example_family("ex48", 1, [2], [2], [4])
    cert = certify(WallCrossingCollection.create(cat, members))
    assert cert.certified
    plus, minus = cert.products[1]
    assert plus == -4 and minus == (4 + 8) * 4


def test_certify_same_sign_violation():
    # replace the minus member by a parallel copy of the plus one
    cat, members = family("ex46", 1, 2)
    cat2 = cat.with_parallel_copy("S1+", copy_id="S1c")
    members = dict(members)
    members[(1, "-")] = "S1c"
    cert = certify(WallCrossingCollection.create(cat2, members))
    assert not cert.certified
    names = [c.name for c in cert.violations()]
    assert "sign-products(1)" in names


def test_certify_missing_disjointness():
    cat, members = family("ex46", 2, 2)
    # rebuild the catalog with one cross pair dropped
    pairs = set(cat.disjoint) - {frozenset(("S1+", "S2-"))}
    cat2 = Catalog(cat.manifold, cat.spinc, cat.surfaces, frozenset(pairs))
    cert = certify(WallCrossingCollection.create(cat2, members))
    assert not cert.certified
    assert any(c.name == "cross-index-disjoint" for c in cert.violations())


def test_certify_reports_vertex_failure():
    m = projective_sum_model(1, 4)
    sp = standard_spinc(m)
    # genus too large: not a violator
    dull_plus = SurfaceClass(
        "S1+", HomologyClass({"H1": 2, "E1": 1, "E2": 1, "E3": 1, "E4": 1}), 9
    )
    minus = SurfaceClass(
        "S1-", HomologyClass({"H1": 2, "E1": -1, "E2": -1, "E3": -1, "E4": -1}), 0
    )
    cat = Catalog(m, sp, (dull_plus, minus), frozenset())
    cert = certify(WallCrossingCollection.create(cat, {(1, "+"): "S1+", (1, "-"): "S1-"}))
    assert any(c.name == "vertex(S1+)" and not c.ok for c in cert.conditions)


def test_collection_needs_all_members():
    cat, members = family("ex46", 2, 2)
    incomplete = {k: v for k, v in members.items() if k != (2, "-")}
    with pytest.raises(CollectionError):
        WallCrossingCollection.create(cat, incomplete)


def test_certificate_json():
    cert = certify(collection())
    doc = json.loads(json.dumps(cert.to_json()))
    assert doc["certified"] is True
    assert doc["products"]["1"] == {"plus": -4, "minus": 12}


# -- fundamental cycles ------------------------------------------------------------

def test_cycle_k1():
    z = fundamental_cycle(collection())
    assert z == Chain(0, {Simplex(("S1+",)): 1, Simplex(("S1-",)): -1})


def test_cycle_k2_expansion():
    z = fundamental_cycle(collection(k=2))
    expected = Chain.from_oriented(
        1,
        [
            (("S1+", "S2+"), 1),
            (("S1+", "S2-"), -1),
            (("S1-", "S2+"), -1),
            (("S1-", "S2-"), 1),
        ],
    )
    assert z == expected
    assert z.boundary().is_zero()


def test_cycle_k3_boundary_brute_force():
    z = fundamental_cycle(collection(k=3))
    assert len(z) == 8
    assert z.boundary().is_zero()


def test_cycle_support_and_sphere_homology():
    for k in range(1, 5):
        coll = collection(k=k)
        z = fundamental_cycle(coll)
        assert len(z) == 2 ** k
        K = collection_complex(coll)
        betti0, t0 = K.homology(0)
        assert t0 == []
        assert betti0 == (2 if k == 1 else 1)
        for n in range(1, k):
            betti, torsion = K.homology(n)
            assert torsion == []
            assert betti == (1 if n == k - 1 else 0)


def test_subdivided_collection_sphere_homology():
    K = barycentric_subdivision(collection_complex(collection(k=4)))
    assert len(K) == 1696
    assert [K.homology(n) for n in range(5)] == [(1, []), (0, []), (0, []), (1, []), (0, [])]


def test_cycle_requires_certified():
    cat, members = family("ex46", 1, 2)
    cat2 = cat.with_parallel_copy("S1+", copy_id="S1c")
    members = dict(members)
    members[(1, "-")] = "S1c"
    with pytest.raises(CollectionError):
        fundamental_cycle(WallCrossingCollection.create(cat2, members))


def test_cycle_resigns_under_swap_and_permutation():
    coll = collection(k=2)
    z = fundamental_cycle(coll)
    # swapping + and - at index 1 negates the cycle
    swapped = dict(coll.members)
    swapped[(1, "+")], swapped[(1, "-")] = swapped[(1, "-")], swapped[(1, "+")]
    z2 = fundamental_cycle(
        WallCrossingCollection.create(coll.catalog, swapped), check=False
    )
    assert z2 == -z
    # permuting the index set preserves the cycle up to sign
    permuted = {
        (1, e): coll.members[(2, e)] for e in "+-"
    } | {
        (2, e): coll.members[(1, e)] for e in "+-"
    }
    z3 = fundamental_cycle(
        WallCrossingCollection.create(coll.catalog, permuted), check=False
    )
    assert z3 == z or z3 == -z


# -- boundings -----------------------------------------------------------------------

def _host_with_cone_vertex(k=2):
    cat, members = family("ex46", k, 2)
    host = cat.with_surface(
        SurfaceClass("W", HomologyClass(), 0), disjoint_from=list(cat.ids())
    )
    return host, WallCrossingCollection.create(host, members)


def test_cone_bounding_verifies():
    host, coll = _host_with_cone_vertex()
    bnd = cone_bounding(host, coll, "W")
    verdict = verify_bounding(host, coll, bnd)
    assert verdict.verified
    assert verdict.members == ("W",)
    assert verdict.sign == 1
    assert verdict.residual.is_zero()


def test_cone_bounding_k1():
    host, coll = _host_with_cone_vertex(k=1)
    bnd = cone_bounding(host, coll, "W")
    verdict = verify_bounding(host, coll, bnd)
    assert verdict.verified


def test_two_surface_bounding():
    cat, members = family("ex46", 2, 2)
    host = cat.with_surface(
        SurfaceClass("W", HomologyClass(), 0), disjoint_from=["S1+", "S1-", "S2+"]
    )
    host = host.with_surface(
        SurfaceClass("W'", HomologyClass(), 1), disjoint_from=["S1+", "S1-", "S2-", "W"]
    )
    coll = WallCrossingCollection.create(host, members)
    terms = (
        (1, ("S1+", "S2+", "W")),
        (-1, ("S1-", "S2+", "W")),
        (1, ("S1+", "W", "W'")),
        (-1, ("S1-", "W", "W'")),
        (-1, ("S1+", "S2-", "W'")),
        (1, ("S1-", "S2-", "W'")),
    )
    verdict = verify_bounding(host, coll, BoundingCollection(terms))
    assert verdict.verified
    assert verdict.members == ("W", "W'")


def test_mutated_bounding_fails_with_residual():
    host, coll = _host_with_cone_vertex()
    bnd = cone_bounding(host, coll, "W")
    dropped = BoundingCollection(bnd.terms[1:], bnd.ambient)
    verdict = verify_bounding(host, coll, dropped)
    assert not verdict.verified
    assert not verdict.residual.is_zero()


def test_bounding_rejects_non_simplex():
    host, coll = _host_with_cone_vertex()
    bad = BoundingCollection(((1, ("S1+", "S1-", "W")),))
    with pytest.raises(BoundingError):
        verify_bounding(host, coll, bad)


def test_bounding_rejects_wrong_arity():
    host, coll = _host_with_cone_vertex()
    with pytest.raises(BoundingError):
        verify_bounding(host, coll, BoundingCollection(((1, ("S1+", "W")),)))


def test_member_set_never_empty():
    # a simplex needs k+1 pairwise-disjoint vertices but the collection
    # offers at most one per index, so some vertex always lies outside it
    host, coll = _host_with_cone_vertex()
    all_from_collection = BoundingCollection(((1, ("S1+", "S2+", "S1-")),))
    with pytest.raises(BoundingError):
        verify_bounding(host, coll, all_from_collection)


def test_cone_bounding_needs_joinable_apex():
    cat, members = family("ex46", 2, 2)
    host = cat.with_surface(
        SurfaceClass("W", HomologyClass(), 0), disjoint_from=["S1+", "S2+"]
    )
    coll = WallCrossingCollection.create(host, members)
    with pytest.raises(BoundingError):
        cone_bounding(host, coll, "W")


def test_bounding_json_roundtrip():
    host, coll = _host_with_cone_vertex()
    bnd = cone_bounding(host, coll, "W")
    back = BoundingCollection.from_json(json.loads(json.dumps(bnd.to_json())))
    assert back == bnd


# -- constraint reports -----------------------------------------------------------------

def test_single_member_constraint_contradiction():
    # genus 0 cone vertex with |c1.S| = 2: the bound cannot hold
    cat, members = family("ex46", 2, 2)
    s_cls = HomologyClass({"E1": 1, "E2": 1, "E3": -1, "E4": -1})
    host = cat.with_surface(
        SurfaceClass("W", s_cls, 0), disjoint_from=[]
    )
    # the class above pairs 0 with every member but has square -4: use the
    # zero class instead and tweak c1 pairing via a fresh basis direction
    host = cat.with_surface(
        SurfaceClass("W", HomologyClass(), 0), disjoint_from=list(cat.ids())
    )
    coll = WallCrossingCollection.create(host, members)
    bnd = cone_bounding(host, coll, "W")
    report = derive_constraints(host, coll, bnd, SWSeed(1, "test"))
    assert report.single_member
    assert report.rows[0].bound == 0  # zero class pairs to 0
    assert report.rows[0].satisfied
    assert not report.contradiction


def test_square_zero_contradiction_flag():
    # a genus-0 cone vertex with |c1.S| = 2 cannot satisfy its own bound:
    # the report flags the catalog as geometrically unrealizable
    m_model, m_spinc, host, coll = _mixed_host()
    cat_ids = [sid for sid in host.ids() if sid != "S"]
    bad = SurfaceClass("B", HomologyClass({"F3": 1, "G1": -1}), 0)
    assert host.manifold.square(bad.cls) == 0
    assert host.manifold.pairing(host.spinc.c1, bad.cls) == 2
    host2 = host.with_surface(bad, disjoint_from=[i for i in cat_ids if i.startswith("S")])
    coll2 = coll.re_host(host2)
    bnd = cone_bounding(host2, coll2, "B")
    report = derive_constraints(host2, coll2, bnd, SWSeed(1))
    assert report.single_member
    assert report.rows[0].bound == 2 and report.rows[0].chi_minus == 0
    assert not report.rows[0].satisfied
    assert report.contradiction
    assert "CONTRADICTION" in report.text()


def test_constraint_rejects_zero_seed():
    host, coll = _host_with_cone_vertex()
    bnd = cone_bounding(host, coll, "W")
    with pytest.raises(HypothesisError, match="no conclusion"):
        derive_constraints(host, coll, bnd, SWSeed(0))


def test_constraint_requires_verified_bounding():
    host, coll = _host_with_cone_vertex()
    bnd = cone_bounding(host, coll, "W")
    broken = BoundingCollection(bnd.terms[1:], bnd.ambient)
    with pytest.raises(BoundingError):
        derive_constraints(host, coll, broken, SWSeed(1))


def _mixed_host(genus_of_s=5):
    """Host with explicit positive classes on the closed summand so the
    bounding member can have positive self-intersection."""
    m_basis = tuple((f"F{i}", 1) for i in (1, 2, 3)) + tuple(
        (f"G{j}", -1) for j in (1, 2, 3)
    )
    m_model = ManifoldModel("M0", m_basis, euler=8, signature=0)
    c1 = HomologyClass({"F1": 3, "F2": 3, "F3": 1, "G1": 1, "G2": 1, "G3": 1})
    m_spinc = SpinCStructure.on(m_model, c1)
    cat, members = family("ex46", 2, 2)
    host = connected_sum_catalog(m_model, m_spinc, cat)
    s_cls = HomologyClass({"F1": 2, "G1": 1})  # square 3, c1 pairing 5
    host = host.with_surface(
        SurfaceClass("S", s_cls, genus_of_s), disjoint_from=list(cat.ids())
    )
    coll = WallCrossingCollection.create(host, members, h_labels=("H1", "H2"))
    return m_model, m_spinc, host, coll


def test_positive_square_strengthened_bound():
    m_model, m_spinc, host, coll = _mixed_host(genus_of_s=5)
    assert host.self_intersection("S") == 3
    bnd = cone_bounding(host, coll, "S", ambient="nonneg")
    report = derive_constraints(host, coll, bnd, SWSeed(1, "hypothetical"))
    assert report.blowup_applied
    assert report.blowup_sign == -1  # c1 pairing is +5, so -1 strengthens
    row = report.rows[0]
    assert row.self_intersection == 3
    assert row.bound == 5 + 3
    assert row.strengthened
    # genus 5 gives chi- = 8 which meets the bound exactly
    assert row.satisfied and not report.contradiction
    assert list(report.blowup_blocks) == ["S"]
    assert len(report.blowup_blocks["S"]) == 3


def test_positive_square_contradiction_when_genus_small():
    _, _, host, coll = _mixed_host(genus_of_s=0)
    bnd = cone_bounding(host, coll, "S", ambient="nonneg")
    report = derive_constraints(host, coll, bnd, SWSeed(1))
    assert report.blowup_applied
    assert not report.rows[0].satisfied
    assert report.contradiction


def test_nonneg_bounding_rejected_in_null_mode():
    _, _, host, coll = _mixed_host()
    with pytest.raises(BoundingError):
        cone_bounding(host, coll, "S", ambient="null")


# -- evaluation ---------------------------------------------------------------------------

def test_evaluate_k3_k1():
    coll = collection(k=1, d=2, lengths=[4])
    k3 = k3_model()
    report = evaluate_invariant(coll, SWSeed(1, "K3 canonical"), k3, zero_spinc(k3))
    assert report.pairing_magnitude == 1
    assert report.sign_ambiguous
    assert report.cohomology_class_nonzero and report.cycle_class_nonzero
    assert report.host_b_plus == 4 and report.host_b_minus == 23
    assert all(h.ok for h in report.hypotheses)


def test_evaluate_hosts_match_projective_sums():
    k3 = k3_model()
    for k in (1, 2, 3):
        coll = collection(k=k, d=2, lengths=[4] * k)
        report = evaluate_invariant(coll, SWSeed(1), k3, zero_spinc(k3))
        assert report.host_b_plus == k + 3
        assert report.host_b_minus == 4 * k + 19


def test_evaluate_zero_seed_gives_no_verdict():
    coll = collection(k=1)
    k3 = k3_model()
    report = evaluate_invariant(coll, SWSeed(0), k3, zero_spinc(k3))
    assert report.pairing_magnitude == 0
    assert report.cohomology_class_nonzero is None
    assert report.cycle_class_nonzero is None


def test_evaluate_rejects_small_b_plus():
    coll = collection(k=1)
    # a closed summand with b+ = 1 violates the standing assumption
    weak = ManifoldModel(
        "W",
        (("F1", 1), ("G1", -1), ("G2", -1), ("G3", -1), ("G4", -1), ("G5", -1)),
        euler=8,
        signature=-4,
    )
    sp = SpinCStructure.on(
        weak, HomologyClass({"F1": 1, "G1": 1, "G2": 1, "G3": 1, "G4": 1, "G5": 1})
    )
    assert weak.b_plus == 1
    with pytest.raises(HypothesisError, match="summand-b-plus"):
        evaluate_invariant(coll, SWSeed(1), weak, sp)


def test_evaluate_rejects_wrong_dimension():
    coll = collection(k=1)
    # b+ fine but formal dimension nonzero
    m = ManifoldModel(
        "D",
        (("F1", 1), ("F2", 1), ("F3", 1)),
        euler=5,
        signature=3,
    )
    sp = SpinCStructure.on(m, HomologyClass({"F1": 1, "F2": 1, "F3": 1}))
    assert m.b_plus == 3
    with pytest.raises(HypothesisError, match="dimension"):
        evaluate_invariant(coll, SWSeed(1), m, sp)


def test_evaluation_report_json():
    coll = collection(k=1)
    k3 = k3_model()
    doc = evaluate_invariant(coll, SWSeed(1, "K3"), k3, zero_spinc(k3)).to_json()
    doc2 = json.loads(json.dumps(doc))
    assert doc2["pairing"] == {"magnitude": 1, "sign_ambiguous": True}
    assert doc2["verdicts"]["cohomology_class_nonzero"] is True


# -- collection re-hosting and JSON --------------------------------------------------------

def test_re_host_validates_classes():
    cat, members = family("ex46", 1, 2)
    coll = WallCrossingCollection.create(cat, members)
    other = Catalog(
        cat.manifold,
        cat.spinc,
        tuple(
            SurfaceClass(s.id, HomologyClass({"H1": 2}), s.genus, s.support)
            if s.id == "S1+"
            else s
            for s in cat.surfaces
        ),
        frozenset(),
    )
    with pytest.raises(CollectionError):
        coll.re_host(other)


def test_collection_json_roundtrip():
    coll = collection(k=2)
    back = WallCrossingCollection.from_json(json.loads(json.dumps(coll.to_json())))
    assert back.k == coll.k
    assert back.members == coll.members
    assert back.h_labels == coll.h_labels
    assert back.catalog.sha256() == coll.catalog.sha256()
