from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfcomplex.adjunction import ambient_complex, build
from surfcomplex.lattice import (
    Catalog,
    HomologyClass,
    SurfaceClass,
    make_example_family,
    projective_sum_model,
    standard_spinc,
)
from surfcomplex.simplicial import Simplex, flag_complex


def _k2_catalog():
    cat, _ = make_example_family("ex46", 2, [2, 2], [2, 2], [4, 4])
    return cat


def test_build_k2_is_four_cycle():
    built = build(_k2_catalog(), 3)
    K = built.adjunction
    assert len(K.simplices(0)) == 4
    assert len(K.simplices(1)) == 4
    assert K.simplices(2) == []
    assert K.homology(1) == (1, [])
    assert built.ambient == K  # every vertex violates here


def test_non_violator_stays_in_ambient():
    m = projective_sum_model(1, 1)
    sp = standard_spinc(m)
    # square zero, c1 pairing 8, genus 5: chi- = 8 is not beaten, so the
    # surface sits in the ambient complex only
    tame = SurfaceClass("T", HomologyClass({"H1": 4, "E1": -4}), 5)
    hot = SurfaceClass("V", HomologyClass({"H1": 1, "E1": -1}), 0)
    cat = Catalog(m, sp, (tame, hot), frozenset())
    built = build(cat, 2)
    assert m.pairing(sp.c1, tame.cls) == 8
    assert set(built.ambient.vertices()) == {"T", "V"}
    assert set(built.adjunction.vertices()) == {"V"}
    verdicts = {v.id: v for v in built.verdicts}
    assert not verdicts["T"].violator and verdicts["T"].chi_minus == 8
    assert verdicts["V"].violator


def test_empty_catalog():
    m = projective_sum_model(1, 0)
    cat = Catalog(m, standard_spinc(m), (), frozenset())
    built = build(cat, 2)
    assert len(built.ambient) == 0 and len(built.adjunction) == 0


def test_nonzero_square_excluded_but_listed():
    m = projective_sum_model(1, 0)
    sp = standard_spinc(m)
    pos = SurfaceClass("P", HomologyClass({"H1": 1}), 0)
    cat = Catalog(m, sp, (pos,), frozenset())
    built = build(cat, 2)
    assert built.excluded == ("P",)
    assert built.ambient.vertices() == []
    assert "excluded" in {v.id: v for v in built.verdicts}["P"].reason


def test_is_simplex():
    built = build(_k2_catalog(), 3)
    assert built.is_simplex(["S1+", "S2-"])
    assert not built.is_simplex(["S1+", "S1-"])
    assert built.is_simplex(["S2-"])
    with pytest.raises(KeyError):
        built.is_simplex(["S1+", "nope"])


def test_parallel_copy_cones_the_star():
    cat = _k2_catalog()
    before = build(cat, 3)
    cat2 = cat.with_parallel_copy("S1+")
    after = build(cat2, 3)
    # no simplex disappears
    for s in before.ambient.simplices():
        assert s in after.ambient
    # the copy spans a simplex with the original's star: for every simplex
    # containing the original, the copy extends it
    copy = "S1+'"
    for s in before.ambient.simplices():
        if "S1+" in s:
            assert s.joined(copy) in after.ambient
    assert Simplex(("S1+", copy)) in after.ambient


def test_report_text_mentions_catalog():
    cat = _k2_catalog()
    built = build(cat, 3)
    text = built.report_text()
    assert cat.sha256()[:12] in text
    assert "relative" in text
    assert "S1+" in text


def test_vertices_report_is_json():
    import json

    built = build(_k2_catalog(), 3)
    rows = built.vertices_report()
    json.dumps(rows)
    assert all(row["violator"] for row in rows)


# brute-force oracles for the ambient and adjunction complexes

@st.composite
def orthogonal_catalog(draw):
    """Violators S1..Sn of square zero, a square-zero non-violator T, a
    positive-square P and a negative-square N, with a random disjointness
    relation among the pairs that pair to zero."""
    n = draw(st.integers(1, 5))
    m = projective_sum_model(n + 1, n + 1)
    surfaces = [
        SurfaceClass(f"S{i}", HomologyClass({f"H{i}": 1, f"E{i}": -1}), 0) for i in range(1, n + 1)
    ]
    surfaces += [
        SurfaceClass("T", HomologyClass({f"H{n + 1}": 4, f"E{n + 1}": -4}), 5),
        SurfaceClass("P", HomologyClass({"H1": 1}), 0),
        SurfaceClass("N", HomologyClass({"E1": 1}), 0),
    ]
    pool = [(a.id, b.id) for a, b in combinations(surfaces, 2) if m.pairing(a.cls, b.cls) == 0]
    keep = draw(st.lists(st.booleans(), min_size=len(pool), max_size=len(pool)))
    disjoint = frozenset(frozenset(p) for p, k in zip(pool, keep) if k)
    return Catalog(m, standard_spinc(m), tuple(surfaces), disjoint)


def _reference_ambient(catalog, ambient, max_dim):
    # the ambient builder as it stood in wallcross before it moved here
    if ambient == "null":
        ids = [sid for sid in catalog.ids() if catalog.self_intersection(sid) == 0]
    else:
        ids = [sid for sid in catalog.ids() if catalog.self_intersection(sid) >= 0]
    keep = set(ids)
    edges = [tuple(sorted(p)) for p in catalog.disjoint if set(p) <= keep]
    return flag_complex(ids, edges, max_dim)


@settings(max_examples=60, deadline=None)
@given(orthogonal_catalog(), st.integers(0, 3))
def test_ambient_complex_matches_reference(cat, max_dim):
    for ambient in ("null", "nonneg"):
        assert ambient_complex(cat, max_dim, ambient) == _reference_ambient(cat, ambient, max_dim)
    assert build(cat, max_dim).ambient == ambient_complex(cat, max_dim)
    assert "P" in ambient_complex(cat, max_dim, "nonneg").vertices()
    with pytest.raises(ValueError):
        ambient_complex(cat, max_dim, "all")


@settings(max_examples=60, deadline=None)
@given(orthogonal_catalog(), st.integers(0, 3), st.data())
def test_is_simplex_matches_pairwise_disjointness(cat, max_dim, data):
    built = build(cat, max_dim)
    null_ids = ["T"] + [sid for sid in cat.ids() if sid.startswith("S")]
    ids = data.draw(st.lists(st.sampled_from(null_ids), min_size=1, max_size=4))
    clique = (
        len(set(ids)) == len(ids) <= max_dim + 1
        and all(cat.are_disjoint(a, b) for a, b in combinations(ids, 2))
    )
    assert built.is_simplex(ids, where="ambient") == clique
    assert built.is_simplex(ids) == (clique and "T" not in ids)
