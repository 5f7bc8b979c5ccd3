import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfcomplex.lattice import (
    AggregateSummand,
    Catalog,
    HomologyClass,
    LatticeError,
    ManifoldModel,
    NonzeroSelfIntersectionError,
    SpinCStructure,
    SurfaceClass,
    blowup,
    blowup_resolve_surface,
    c1_square,
    chi_minus,
    connected_sum,
    formal_dimension,
    infer_disjoint_from_support,
    int_from_json,
    int_to_json,
    is_adjunction_violator,
    is_characteristic,
    k3_model,
    make_example_family,
    projective_sum_model,
    sphere_model,
    standard_spinc,
    zero_spinc,
)


def H(label, coeff=1):
    return HomologyClass.of(label, coeff)


# -- pairing -------------------------------------------------------------------

def test_pairing_generators():
    m = projective_sum_model(1, 1)
    assert m.pairing(H("H1"), H("H1")) == 1
    assert m.pairing(H("E1"), H("E1")) == -1
    assert m.pairing(H("H1"), H("E1")) == 0


def test_pairing_degree_two_pair():
    m = projective_sum_model(1, 4)
    plus = HomologyClass({"H1": 2, "E1": 1, "E2": 1, "E3": 1, "E4": 1})
    minus = HomologyClass({"H1": 2, "E1": -1, "E2": -1, "E3": -1, "E4": -1})
    assert m.pairing(plus, minus) == 8
    # independent expansion over the diagonal form
    squares = m.squares
    expected = sum(
        plus[lab] * minus[lab] * squares[lab] for lab in squares
    )
    assert expected == 8


def test_pairing_rejects_unknown_labels():
    m = projective_sum_model(1, 0)
    with pytest.raises(LatticeError):
        m.pairing(H("H1"), H("Z9"))


def _pairing_oracle(m, a, b):
    # test-local copy of the pairing that built support sets on every call
    squares = m.squares
    unknown = (a.support() | b.support()) - squares.keys()
    if unknown:
        raise LatticeError(f"classes use labels outside the basis: {sorted(map(str, unknown))}")
    return sum(v * b.coeffs.get(lab, 0) * squares[lab] for lab, v in a.coeffs.items())


def _outcome(f, *args):
    try:
        return f(*args)
    except LatticeError as e:
        return ("error", str(e))


@st.composite
def model_and_classes(draw):
    """A projective sum model and two classes on its labels, at times with a
    label outside it, at times with disjoint supports."""
    m = projective_sum_model(draw(st.integers(0, 3)), draw(st.integers(0, 4)))
    pool = list(m.labels) + (["Z9", "Y7"] if draw(st.booleans()) else [])
    coeffs = st.dictionaries(st.sampled_from(pool), st.integers(-5, 5), max_size=6) if pool else st.just({})
    a, b = draw(coeffs), draw(coeffs)
    if draw(st.booleans()):
        b = {lab: v for lab, v in b.items() if lab not in a}
    return m, HomologyClass(a), HomologyClass(b)


@settings(max_examples=300, deadline=None)
@given(model_and_classes())
def test_pairing_matches_set_oracle(mab):
    m, a, b = mab
    assert _outcome(m.pairing, a, b) == _outcome(_pairing_oracle, m, a, b)
    assert _outcome(m.pairing, b, a) == _outcome(_pairing_oracle, m, b, a)


def test_pairing_unknown_label_message():
    m = projective_sum_model(1, 1)
    a, b = HomologyClass({"H1": 1, "Z9": 2}), HomologyClass({"E1": 1, "Y7": -1})
    with pytest.raises(LatticeError, match=r"^classes use labels outside the basis: \['Y7', 'Z9'\]$"):
        m.pairing(a, b)
    assert m.pairing(H("H1"), H("E1")) == 0


def test_catalog_sha256_is_computed_once():
    cat = _small_catalog()
    text = json.dumps(cat.to_json(), sort_keys=True, separators=(",", ":"))
    digest = cat.sha256()
    assert digest == hashlib.sha256(text.encode()).hexdigest()
    assert cat.sha256() is digest
    assert cat.with_parallel_copy("S1+").sha256() != digest


def test_chi_minus():
    assert chi_minus(0) == 0
    assert chi_minus(1) == 0
    assert chi_minus(3) == 4
    with pytest.raises(LatticeError):
        chi_minus(-1)


# -- adjunction predicate --------------------------------------------------------

def test_violator_degree_two():
    cat, _ = make_example_family("ex46", 1, [2], [2], [4])
    s = cat.surface("S1+")
    assert cat.manifold.pairing(cat.spinc.c1, s.cls) == -2
    assert s.genus == 0
    assert is_adjunction_violator(cat.manifold, cat.spinc, s)


def test_violator_degree_three():
    cat, _ = make_example_family("ex46", 1, [3], [3], [9])
    s = cat.surface("S1+")
    assert s.genus == 1 and chi_minus(s.genus) == 0
    assert cat.manifold.pairing(cat.spinc.c1, s.cls) == -6
    assert is_adjunction_violator(cat.manifold, cat.spinc, s)


def test_non_violator_high_genus():
    m = projective_sum_model(1, 1)
    sp = standard_spinc(m)
    # genus 5, c1 pairing 8, square 0: chi- = 8 is not < 8
    s = SurfaceClass("T", HomologyClass({"H1": 8, "E1": 8}), 5)
    assert m.square(s.cls) == 0
    assert abs(m.pairing(sp.c1, s.cls)) == abs(8 - 8 * 1)
    s = SurfaceClass("T", HomologyClass({"H1": 4, "E1": 4}), 5)
    assert m.pairing(sp.c1, s.cls) == 0
    assert not is_adjunction_violator(m, sp, s)
    s2 = SurfaceClass("U", HomologyClass({"H1": 8, "E1": -8}), 5)
    assert m.square(s2.cls) == 0
    assert m.pairing(sp.c1, s2.cls) == 16
    assert is_adjunction_violator(m, sp, s2)


def test_violator_requires_square_zero():
    m = projective_sum_model(1, 0)
    sp = standard_spinc(m)
    bad = SurfaceClass("B", H("H1"), 0)
    with pytest.raises(NonzeroSelfIntersectionError):
        is_adjunction_violator(m, sp, bad)


# -- formal dimension --------------------------------------------------------------

def test_formal_dimension_k3():
    m = k3_model()
    sp = zero_spinc(m)
    assert c1_square(m, sp) == 0
    assert m.euler == 24 and m.signature == -16
    assert formal_dimension(m, sp) == 0


def test_formal_dimension_projective_sums():
    for k, l in [(2, 8), (1, 4), (3, 12)]:
        m = projective_sum_model(k, l)
        sp = standard_spinc(m)
        assert formal_dimension(m, sp) == -(k + 1)


def test_formal_dimension_connected_sum():
    k3 = k3_model()
    n = projective_sum_model(2, 8)
    x, sx = connected_sum(k3, zero_spinc(k3), n, standard_spinc(n))
    assert formal_dimension(x, sx) == -2
    assert x.b_plus == 5 and x.b_minus == 27


def test_formal_dimension_additivity_random():
    rng = random.Random(13)
    for _ in range(25):
        k1, l1 = rng.randint(1, 4), rng.randint(1, 9)
        k2, l2 = rng.randint(1, 4), rng.randint(1, 9)
        m1 = projective_sum_model(k1, l1, name="A")
        m2 = ManifoldModel(
            name="B",
            basis=tuple((f"F{i}", 1) for i in range(1, k2 + 1))
            + tuple((f"G{j}", -1) for j in range(1, l2 + 1)),
            euler=2 + k2 + l2,
            signature=k2 - l2,
        )
        s1, s2 = standard_spinc(m1), standard_spinc(m2)
        x, sx = connected_sum(m1, s1, m2, s2)
        assert formal_dimension(x, sx) == (
            formal_dimension(m1, s1) + formal_dimension(m2, s2) + 1
        )


def test_formal_dimension_rejects_non_integral():
    # c1^2 = 1, euler 2, signature 1: numerator -6 is not a multiple of 4
    m = ManifoldModel("bad", (("H1", 1),), euler=2, signature=1)
    sp = standard_spinc(m)
    with pytest.raises(LatticeError):
        formal_dimension(m, sp)


# -- connected sum ------------------------------------------------------------------

def test_connected_sum_trivial_summand():
    k3 = k3_model()
    s4 = sphere_model()
    x, sx = connected_sum(k3, zero_spinc(k3), s4, zero_spinc(s4))
    assert formal_dimension(x, sx) == formal_dimension(k3, zero_spinc(k3)) + 1 - 1
    assert x.euler == 24 and x.signature == -16


def test_connected_sum_k3_small():
    k3 = k3_model()
    n = projective_sum_model(1, 4)
    x, sx = connected_sum(k3, zero_spinc(k3), n, standard_spinc(n))
    assert formal_dimension(x, sx) == -1


def test_connected_sum_b_plus():
    k3 = k3_model()
    n = projective_sum_model(3, 12)
    x, _ = connected_sum(k3, zero_spinc(k3), n, standard_spinc(n))
    assert x.b_plus == 6


def test_connected_sum_label_collision():
    a = projective_sum_model(1, 1, name="A")
    b = projective_sum_model(1, 1, name="B")
    with pytest.raises(LatticeError):
        connected_sum(a, standard_spinc(a), b, standard_spinc(b))


# -- spin-c and characteristic -------------------------------------------------------

def test_characteristic_enforced():
    m = projective_sum_model(1, 1)
    with pytest.raises(LatticeError):
        SpinCStructure.on(m, HomologyClass({"H1": 2, "E1": 1}))
    with pytest.raises(LatticeError):
        SpinCStructure.on(m, HomologyClass({"H1": 1}))  # even (zero) on E1
    sp = SpinCStructure.on(m, HomologyClass({"H1": 3, "E1": -1}))
    assert is_characteristic(m, sp.c1)


def test_characteristic_survives_sum_and_blowup():
    rng = random.Random(5)
    for _ in range(20):
        m = projective_sum_model(rng.randint(1, 3), rng.randint(1, 5))
        sp = standard_spinc(m)
        m2, sp2, _ = blowup(m, sp, rng.randint(0, 3), rng.choice((1, -1)))
        assert is_characteristic(m2, sp2.c1)
        other = projective_sum_model(1, 1, name="O")
        renamed = ManifoldModel(
            "O", (("P1", 1), ("Q1", -1)), euler=4, signature=0
        )
        x, sx = connected_sum(m2, sp2, renamed, standard_spinc(renamed))
        assert is_characteristic(x, sx.c1)


# -- blow-ups -------------------------------------------------------------------------

def test_blowup_identity():
    m = projective_sum_model(1, 0)
    sp = standard_spinc(m)
    m2, sp2, labels = blowup(m, sp, 0)
    assert labels == () and m2.basis == m.basis and sp2.c1 == sp.c1


def test_blowup_k3_four():
    k3 = k3_model()
    sp = zero_spinc(k3)
    m2, sp2, labels = blowup(k3, sp, 4, 1)
    assert len(labels) == 4
    assert c1_square(m2, sp2) == -4
    assert formal_dimension(m2, sp2) == 0


def test_blowup_labels_fresh():
    m = projective_sum_model(1, 4)
    sp = standard_spinc(m)
    m2, sp2, labels = blowup(m, sp, 3)
    assert labels == ("E5", "E6", "E7")


def test_blowup_resolve_single():
    m = projective_sum_model(1, 0)
    sp = standard_spinc(m)
    s = SurfaceClass("S", H("H1"), 0)
    m2, sp2, labels = blowup(m, sp, 1, 1)
    resolved = blowup_resolve_surface(m2, s, labels)
    assert m2.square(resolved.cls) == 0
    assert resolved.cls == HomologyClass({"H1": 1, "E1": 1})
    assert resolved.genus == 0


def test_blowup_resolve_degree_two():
    m = projective_sum_model(1, 0)
    sp = standard_spinc(m)
    s = SurfaceClass("S", H("H1", 2), 1)
    m2, sp2, labels = blowup(m, sp, 4, 1)
    resolved = blowup_resolve_surface(m2, s, labels)
    assert m2.square(resolved.cls) == 0
    assert resolved.genus == 1
    assert chi_minus(resolved.genus) == chi_minus(s.genus)


def test_blowup_resolve_square_zero_unchanged():
    m = projective_sum_model(1, 1)
    s = SurfaceClass("S", HomologyClass({"H1": 1, "E1": 1}), 0)
    resolved = blowup_resolve_surface(m, s, ())
    assert resolved.cls == s.cls


def test_blowup_resolve_block_mismatch():
    m = projective_sum_model(1, 2)
    s = SurfaceClass("S", H("H1", 2), 0)  # square 4
    with pytest.raises(LatticeError):
        blowup_resolve_surface(m, s, ("E1",))


# -- catalogs and parallel copies ------------------------------------------------------

def _small_catalog():
    cat, _ = make_example_family("ex46", 2, [2, 2], [2, 2], [4, 4])
    return cat


def test_catalog_disjoint_requires_zero_pairing():
    m = projective_sum_model(1, 0)
    sp = standard_spinc(m)
    a = SurfaceClass("A", H("H1"), 0)
    b = SurfaceClass("B", H("H1"), 0)
    with pytest.raises(LatticeError):
        Catalog(m, sp, (a, b), frozenset({frozenset(("A", "B"))}))


def test_catalog_rejects_self_pair_and_unknown():
    m = projective_sum_model(1, 0)
    sp = standard_spinc(m)
    a = SurfaceClass("A", HomologyClass(), 0)
    with pytest.raises(LatticeError):
        Catalog(m, sp, (a,), frozenset({frozenset(("A",))}))
    with pytest.raises(LatticeError):
        Catalog(m, sp, (a,), frozenset({frozenset(("A", "ghost"))}))


def test_parallel_copy():
    cat = _small_catalog()
    cat2 = cat.with_parallel_copy("S1+")
    copy = cat2.surface("S1+'")
    assert copy.cls == cat.surface("S1+").cls
    assert cat2.are_disjoint("S1+'", "S1+")
    # inherits every neighbor of the original
    for other in cat.ids():
        if cat.are_disjoint("S1+", other):
            assert cat2.are_disjoint("S1+'", other)
    # the copy is NOT disjoint from surfaces the original met
    assert not cat2.are_disjoint("S1+'", "S1-")


def test_parallel_copy_needs_square_zero():
    m = projective_sum_model(1, 0)
    sp = standard_spinc(m)
    s = SurfaceClass("S", H("H1"), 0)
    cat = Catalog(m, sp, (s,), frozenset())
    with pytest.raises(NonzeroSelfIntersectionError):
        cat.with_parallel_copy("S")


def test_infer_disjoint_from_support():
    cat = _small_catalog()
    inferred = infer_disjoint_from_support(cat.surfaces)
    assert inferred == cat.disjoint


# -- example families --------------------------------------------------------------------

def test_family_ex46_k1_shape():
    cat, members = make_example_family("ex46", 1, [2], [2], [4])
    plus = cat.surface(members[(1, "+")])
    assert plus.cls == HomologyClass({"H1": 2, "E1": 1, "E2": 1, "E3": 1, "E4": 1})
    assert plus.genus == 0


def test_family_ex46_k2_collection_graph():
    cat, _ = make_example_family("ex46", 2, [2, 2], [2, 2], [4, 4])
    assert len(cat.disjoint) == 4
    assert cat.are_disjoint("S1+", "S2-")
    assert not cat.are_disjoint("S1+", "S1-")


def test_family_ex48_k1():
    cat, _ = make_example_family("ex48", 1, [2], [2], [4])
    minus = cat.surface("S1-")
    assert minus.cls == HomologyClass({"H1": 4, "E1": -2, "E2": -2, "E3": -2, "E4": -2})
    assert minus.genus == 3


def test_family_ex47_self_intersections():
    cat, _ = make_example_family("ex47", 2, [3, 4], [4, 3], [13, 13])
    for s in cat.surfaces:
        assert cat.manifold.square(s.cls) == 0
        assert is_adjunction_violator(cat.manifold, cat.spinc, s)


def test_family_property_square_zero_violators():
    for d in range(2, 10):
        cat, _ = make_example_family("ex46", 1, [d], [d], [d * d])
        for s in cat.surfaces:
            assert cat.manifold.square(s.cls) == 0
            assert is_adjunction_violator(cat.manifold, cat.spinc, s)


def test_family_precondition_errors_name_inequality():
    with pytest.raises(LatticeError, match="l_1 >= d\\^2 >= 4"):
        make_example_family("ex46", 1, [2], [2], [3])
    with pytest.raises(LatticeError, match="d >= 3"):
        make_example_family("ex47", 1, [2], [3], [10])
    with pytest.raises(LatticeError, match="in \\{2,3\\}"):
        make_example_family("ex48", 1, [2], [4], [16])
    with pytest.raises(LatticeError, match="unknown family"):
        make_example_family("ex99", 1, [2], [2], [4])


# -- JSON ------------------------------------------------------------------------------------

def test_int_json_big_values():
    big = 2 ** 80 + 7
    assert int_to_json(big) == str(big)
    assert int_from_json(str(big)) == big
    assert int_to_json(5) == 5
    assert int_from_json(5) == 5
    with pytest.raises(LatticeError):
        int_from_json("5.5")
    with pytest.raises(LatticeError):
        int_from_json(True)


def test_catalog_json_roundtrip():
    cat = _small_catalog().with_parallel_copy("S1+")
    doc = json.loads(json.dumps(cat.to_json()))
    back = Catalog.from_json(doc)
    assert back.to_json() == cat.to_json()
    assert back.sha256() == cat.sha256()


def test_catalog_surface_lookup_and_cached_squares():
    cat = _small_catalog()
    for s in cat.surfaces:
        assert cat.surface(s.id) is s
    for sid in ("nope", ["S1+"], None):
        with pytest.raises(LatticeError, match="unknown surface id"):
            cat.surface(sid)
    m = cat.manifold
    assert m.squares is m.squares and m.squares == dict(m.basis)
    twin = Catalog.from_json(cat.to_json())
    assert twin == cat and hash(twin) == hash(cat)
    assert twin.to_json() == cat.to_json() and twin.sha256() == cat.sha256()


def test_catalog_json_roundtrip_with_aggregates_and_big_ints():
    k3 = k3_model()
    n = projective_sum_model(1, 4)
    x, sx = connected_sum(k3, zero_spinc(k3), n, standard_spinc(n))
    s = SurfaceClass("huge", HomologyClass({"H1": 2 ** 60, "E1": 2 ** 60}), 2)
    cat = Catalog(x, sx, (s,), frozenset())
    text = json.dumps(cat.to_json())
    assert str(2 ** 60) in text
    back = Catalog.from_json(json.loads(text))
    assert back.surface("huge").cls == s.cls
    assert back.manifold.aggregates == x.aggregates


def test_manifold_signature_consistency_checked():
    with pytest.raises(LatticeError):
        ManifoldModel("bad", (("H1", 1),), euler=4, signature=0)
    with pytest.raises(LatticeError):
        ManifoldModel("dup", (("H1", 1), ("H1", 1)), euler=5, signature=2)


@pytest.mark.parametrize("make", [
    lambda: HomologyClass({"F": 2.9}),
    lambda: HomologyClass({"F": 0.5}),
    lambda: HomologyClass({"F": Fraction(2)}),
    lambda: HomologyClass({"F": "2"}),
    lambda: 2.5 * HomologyClass({"F": 1}),
])
def test_homology_class_rejects_non_integers(make):
    with pytest.raises(TypeError):
        make()
