import json
import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfcomplex import simplicial
from surfcomplex.simplicial import (
    Chain,
    Cochain,
    ComplexTooLarge,
    DegreeError,
    FillError,
    Simplex,
    SimplicialComplex,
    barycentric_subdivision,
    chain_from_json,
    chain_simax,
    chain_simin,
    chain_to_json,
    coboundary,
    complex_from_json,
    complex_to_json,
    cone_fill,
    evaluate,
    flag_complex,
    full_subcomplex,
    oriented,
    prism_fill,
    simplex_complex,
    solve_boundary,
)
from surfcomplex.snf import smith_normal_form


# -- simplices and orientation -------------------------------------------------

def test_simplex_sorted_and_dim():
    s = Simplex(("b", "a", "c"))
    assert s.vertices == ("a", "b", "c") and s.dim == 2
    assert repr(s) == "Simplex('a', 'b', 'c')" and repr(Simplex(("a",))) == "Simplex('a',)"
    with pytest.raises(ValueError):
        Simplex(("a", "a"))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(-3, 3), unique=True, max_size=5),
    st.lists(st.integers(-3, 3), unique=True, max_size=5),
    st.integers(-3, 3),
)
def test_simplex_is_its_sorted_vertex_tuple(a, b, v):
    s, t = Simplex(a), tuple(sorted(a))
    assert s == t and hash(s) == hash(t) and {t: 1}[s] == 1
    assert (s < Simplex(b)) == (t < tuple(sorted(b)))
    assert (s <= Simplex(b)) == (t <= tuple(sorted(b)))
    assert type(s.vertices) is tuple and s.vertices == t
    assert repr(s) == f"Simplex{t!r}"
    if v in a:
        with pytest.raises(ValueError):
            Simplex(a + [v])
    else:
        assert Simplex(a + [v]) == s.joined(v) == tuple(sorted(a + [v]))


def test_oriented_sign():
    s, sign = oriented(("b", "a"))
    assert s.vertices == ("a", "b") and sign == -1
    _, sign = oriented(("c", "a", "b"))
    assert sign == 1
    with pytest.raises(ValueError):
        oriented(("a", "a", "b"))


def test_boundary_of_edge():
    z = Chain.from_oriented(1, [(("a", "b"), 1)])
    assert z.boundary() == Chain(0, {Simplex(("b",)): 1, Simplex(("a",)): -1})


def test_boundary_squared_triangle():
    z = Chain.from_oriented(2, [(("a", "b", "c"), 1)])
    assert z.boundary().boundary().is_zero()


def test_cochain_pairing_and_coboundary():
    K = simplex_complex(("a", "b", "c"))
    c = Cochain(0, {Simplex(("a",)): 3, Simplex(("b",)): 5})
    dc = coboundary(K, c)
    # <dc, <a,b>> = c(b) - c(a)
    assert evaluate(dc, Chain.from_oriented(1, [(("a", "b"), 1)])) == 2
    with pytest.raises(DegreeError):
        evaluate(c, Chain.from_oriented(1, [(("a", "b"), 1)]))


# -- random complexes for the algebra laws ------------------------------------

@st.composite
def small_complex(draw):
    n = draw(st.integers(3, 7))
    verts = list(range(n))
    pool = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pool), unique=True, max_size=14))
    return flag_complex(verts, edges, 3)


@st.composite
def complex_with_chain(draw):
    K = draw(small_complex())
    dims = [d for d in range(0, K.dim + 1) if K.simplices(d)]
    d = draw(st.sampled_from(dims))
    simplices = K.simplices(d)
    coeffs = draw(
        st.lists(st.integers(-5, 5), min_size=len(simplices), max_size=len(simplices))
    )
    return K, Chain(d, dict(zip(simplices, coeffs)))


@settings(max_examples=100, deadline=None)
@given(complex_with_chain())
def test_boundary_squared_zero(kc):
    _, z = kc
    assert z.boundary().boundary().is_zero()


@settings(max_examples=100, deadline=None)
@given(complex_with_chain())
def test_coboundary_squared_zero(kc):
    K, z = kc
    c = Cochain(z.degree, dict(z.terms))
    ddc = coboundary(K, coboundary(K, c))
    assert ddc == Cochain(z.degree + 2)


@settings(max_examples=100, deadline=None)
@given(complex_with_chain(), st.randoms(use_true_random=False))
def test_coboundary_is_adjoint(kc, rnd):
    K, z = kc
    if z.degree == 0:
        return
    lower = K.simplices(z.degree - 1)
    c = Cochain(z.degree - 1, {s: rnd.randint(-5, 5) for s in lower})
    assert evaluate(coboundary(K, c), z) == evaluate(c, z.boundary())


def test_adjointness_thousand_pairs():
    rng = random.Random(17)
    K = flag_complex(
        range(7),
        [(i, j) for i in range(7) for j in range(i + 1, 7) if rng.random() < 0.6],
        3,
    )
    count = 0
    while count < 1000:
        d = rng.randint(1, max(K.dim, 1))
        upper, lower = K.simplices(d), K.simplices(d - 1)
        if not upper or not lower:
            continue
        z = Chain(d, {s: rng.randint(-3, 3) for s in upper})
        c = Cochain(d - 1, {s: rng.randint(-3, 3) for s in lower})
        assert evaluate(coboundary(K, c), z) == evaluate(c, z.boundary())
        count += 1


def test_coboundary_pairs_zero_with_cycles():
    K = flag_complex("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")], 1)
    z = Chain.from_oriented(
        1, [(("a", "b"), 1), (("b", "c"), 1), (("c", "d"), 1), (("d", "a"), 1)]
    )
    assert z.boundary().is_zero()
    rng = random.Random(2)
    for _ in range(20):
        c = Cochain(0, {s: rng.randint(-9, 9) for s in K.simplices(0)})
        assert evaluate(coboundary(K, c), z) == 0


# -- flag complexes and subcomplexes -------------------------------------------

def test_flag_four_cycle():
    K = flag_complex("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")], 2)
    assert len(K.simplices(1)) == 4
    assert K.simplices(2) == []


def test_flag_complete_triangle():
    K = flag_complex("abc", [("a", "b"), ("b", "c"), ("a", "c")], 2)
    assert Simplex(("a", "b", "c")) in K


def test_flag_empty_relation():
    K = flag_complex("abc", [], 2)
    assert len(K.simplices(0)) == 3 and K.dim == 0


def test_flag_max_dim_truncates():
    K = flag_complex("abcd", [(x, y) for x in "abcd" for y in "abcd" if x < y], 2)
    assert K.dim == 2 and len(K.simplices(2)) == 4


def test_flag_complex_budget_boundary(monkeypatch):
    # the complete graph on 5 vertices: C(5, 1) + ... + C(5, max_dim + 1) cliques
    pairs = list(combinations("abcde", 2))
    for max_dim in range(5):
        count = sum(math.comb(5, j + 1) for j in range(max_dim + 1))
        monkeypatch.setattr(simplicial, "FLAG_MAX_SIMPLICES", count)
        assert len(flag_complex("abcde", pairs, max_dim)) == count
        monkeypatch.setattr(simplicial, "FLAG_MAX_SIMPLICES", count - 1)
        message = f"^flag complex exceeds {count - 1} simplices at max_dim {max_dim}$"
        with pytest.raises(ComplexTooLarge, match=message):
            flag_complex("abcde", pairs, max_dim)


def test_full_subcomplex():
    K = simplex_complex(("a", "b", "c"))
    assert full_subcomplex(K, ("a", "b", "c")) == K
    assert len(full_subcomplex(K, ())) == 0
    sub = full_subcomplex(K, ("b", "c"))
    assert sub == simplex_complex(("b", "c"))
    with pytest.raises(ValueError):
        full_subcomplex(K, ("z",))


# brute-force oracles for the construction layer

@st.composite
def small_graph(draw):
    """Up to nine vertices; every edge drawn in a random orientation."""
    n = draw(st.integers(0, 9))
    pool = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pool), max_size=len(pool)))
    flip = draw(st.lists(st.booleans(), min_size=len(pool), max_size=len(pool)))
    return n, [e[::-1] if f else e for e, k, f in zip(pool, keep, flip) if k]


@st.composite
def unclosed_simplices(draw):
    """Vertex lists in arbitrary order, not closed, repeating some entries,
    sometimes with the empty simplex."""
    tops = draw(st.lists(st.lists(st.integers(0, 6), unique=True, max_size=5), max_size=8))
    repeats = draw(st.lists(st.sampled_from(tops), max_size=3)) if tops else []
    return tops + [t[::-1] for t in repeats]


def _levels(K):
    return {n: K.simplices(n) for n in range(-1, K.dim + 1) if K.simplices(n)}


@settings(max_examples=80, deadline=None)
@given(small_graph(), st.integers(0, 4))
def test_flag_complex_matches_brute_force_cliques(graph, max_dim):
    n, edges = graph
    related = {frozenset(e) for e in edges}
    cliques = [
        c for k in range(1, max_dim + 2) for c in combinations(range(n), k)
        if all(frozenset(p) in related for p in combinations(c, 2))
    ]
    K = flag_complex(range(n), edges, max_dim)
    assert K.simplices() == sorted(cliques)
    assert all(type(s) is Simplex for s in K.simplices())
    assert K.dim == max((len(c) - 1 for c in cliques), default=-1)
    assert K == SimplicialComplex(cliques)


@settings(max_examples=80, deadline=None)
@given(unclosed_simplices())
def test_closure_matches_brute_force_subsets(inputs):
    closure = {
        Simplex(c) for s in inputs for k in range(1, len(s) + 1) for c in combinations(sorted(s), k)
    } | {Simplex(()) for s in inputs if not s}
    K = SimplicialComplex(inputs)
    assert K.simplices() == sorted(closure)
    assert all(type(s) is Simplex for s in K.simplices())
    assert _levels(K) == {
        n: sorted(s for s in closure if s.dim == n) for n in {s.dim for s in closure}
    }
    assert len(K) == len(closure) and K == SimplicialComplex(closure)


@settings(max_examples=80, deadline=None)
@given(unclosed_simplices(), st.sets(st.integers(0, 7)))
def test_full_subcomplex_matches_brute_force_filter(inputs, keep):
    K = SimplicialComplex(inputs)
    if not keep <= set(K.vertices()):
        with pytest.raises(ValueError):
            full_subcomplex(K, keep)
        return
    sub = full_subcomplex(K, keep)
    kept = [s for s in K.simplices() if set(s) <= keep]
    assert sub.simplices() == kept
    assert sub == SimplicialComplex(kept) and _levels(sub) == _levels(SimplicialComplex(kept))


# test-local copies, budget aside, of the construction and serialisation
# code that filled the levels through the closing constructor and converted
# every vertex occurrence; the oracles for the direct paths

def _flag_complex_oracle(vertex_ids, disjoint_pairs, max_dim):
    vertex_ids = sorted(set(vertex_ids))
    adj = {v: set() for v in vertex_ids}
    for a, b in disjoint_pairs:
        if a in adj and b in adj:
            adj[a].add(b)
            adj[b].add(a)

    def cliques(clique, above):
        for i, v in enumerate(above):
            bigger = clique + (v,)
            yield Simplex(bigger)
            if len(bigger) <= max_dim:
                yield from cliques(bigger, [u for u in above[i + 1:] if u in adj[v]])

    return SimplicialComplex(cliques((), vertex_ids))


def _vertex_to_json_oracle(v):
    return [_vertex_to_json_oracle(x) for x in v] if isinstance(v, tuple) else v


def _complex_to_json_oracle(K):
    return {"simplices": [[_vertex_to_json_oracle(v) for v in s] for s in K.simplices()]}


VERTEX_KINDS = {
    "int": lambda i: i,
    "str": lambda i: f"S{i}+",
    "tuple": lambda i: (i % 3, (f"v{i}",)),
}


@st.composite
def labelled_graph(draw):
    """A small_graph with int, str or tuple vertex ids."""
    n, edges = draw(small_graph())
    label = VERTEX_KINDS[draw(st.sampled_from(sorted(VERTEX_KINDS)))]
    return [label(i) for i in range(n)], [(label(a), label(b)) for a, b in edges]


@settings(max_examples=150, deadline=None)
@given(labelled_graph(), st.integers(0, 4))
def test_flag_complex_matches_closing_constructor(graph, max_dim):
    ids, edges = graph
    K = flag_complex(ids, edges, max_dim)
    oracle = _flag_complex_oracle(ids, edges, max_dim)
    assert K._by_dim == oracle._by_dim
    assert K.simplices() == oracle.simplices() and K.dim == oracle.dim
    assert all(type(s) is Simplex for level in K._by_dim.values() for s in level)


@settings(max_examples=100, deadline=None)
@given(labelled_graph(), st.integers(0, 4))
def test_complex_to_json_matches_per_vertex_form(graph, max_dim):
    ids, edges = graph
    K = flag_complex(ids, edges, max_dim)
    # subdivision vertices are faces, tuples of tuples for tuple ids
    small = barycentric_subdivision(flag_complex(ids[:5], edges, min(max_dim, 2)))
    for cx in (K, small, SimplicialComplex()):
        doc = complex_to_json(cx)
        assert doc == _complex_to_json_oracle(cx)
        assert simplicial.dumps(doc) == simplicial.dumps(_complex_to_json_oracle(cx))
        assert complex_from_json(json.loads(simplicial.dumps(doc))) == cx


# -- barycentric subdivision ----------------------------------------------------

def test_bd_interval():
    bd = barycentric_subdivision(simplex_complex(("a", "b")))
    assert len(bd.simplices(0)) == 3 and len(bd.simplices(1)) == 2


def test_bd_triangle_counts():
    bd = barycentric_subdivision(simplex_complex(("a", "b", "c")))
    assert len(bd.simplices(0)) == 7
    assert len(bd.simplices(1)) == 12
    assert len(bd.simplices(2)) == 6
    assert bd.euler_characteristic() == 1


def test_bd_preserves_euler_on_circle():
    K = flag_complex("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")], 1)
    bd = barycentric_subdivision(K)
    assert bd.euler_characteristic() == K.euler_characteristic() == 0


def _brute_force_subdivision(complex_):
    """The former construction, kept as the oracle: an all-pairs face scan,
    then every chain descending from each simplex."""
    faces_of = {}
    for s in complex_.simplices():
        faces_of[s.vertices] = [
            t.vertices for t in complex_.simplices() if t.dim < s.dim and t.is_face_of(s)
        ]
    chains = []

    def extend(chain, top):
        chains.append(tuple(chain))
        for f in faces_of[top]:
            if set(f) < set(chain[0]):
                extend([f] + chain, f)

    for s in complex_.simplices():
        extend([s.vertices], s.vertices)
    return SimplicialComplex(Simplex(c) for c in chains)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_bd_matches_brute_force_chain_enumeration(n):
    K = simplex_complex(tuple("abcd"[:n]))
    bd = barycentric_subdivision(K)
    assert bd == _brute_force_subdivision(K)
    # subdivision vertex ids are plain tuples, so reports print them as before
    assert all(type(f) is tuple for s in bd.simplices() for f in s)


def test_simin_simax():
    bd = barycentric_subdivision(simplex_complex(("a", "b", "c")))
    top = max(bd.simplices(2))
    assert len(chain_simin(top)) < len(chain_simax(top))
    for s in bd.simplices():
        seq = sorted(s.vertices, key=len)
        for small, big in zip(seq, seq[1:]):
            assert set(small) < set(big)


# -- homology -------------------------------------------------------------------

def test_homology_point():
    K = SimplicialComplex([("p",)])
    assert K.homology(0) == (1, [])
    assert K.homology(1) == (0, [])
    assert K.homology(5) == (0, [])


def test_homology_circle():
    K = flag_complex("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")], 1)
    assert K.homology(0) == (1, [])
    assert K.homology(1) == (1, [])


def test_homology_octahedron_sphere():
    verts = ["x+", "x-", "y+", "y-", "z+", "z-"]
    tris = [
        (a, b, c)
        for a in ("x+", "x-")
        for b in ("y+", "y-")
        for c in ("z+", "z-")
    ]
    K = SimplicialComplex(tris)
    assert len(K.simplices(0)) == 6 and len(K.simplices(2)) == 8
    assert K.homology(0) == (1, [])
    assert K.homology(1) == (0, [])
    assert K.homology(2) == (1, [])
    assert verts == sorted(K.vertices())


RP2_TRIANGLES = [
    (0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 3, 5),
    (1, 2, 3), (1, 2, 5), (1, 3, 4), (2, 4, 5), (3, 4, 5),
]


def test_homology_projective_plane():
    K = SimplicialComplex(RP2_TRIANGLES)
    assert K.homology(0) == (1, [])
    assert K.homology(1) == (0, [2])
    assert K.homology(2) == (0, [])


def test_reduced_betti_of_cone():
    base = flag_complex("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")], 1)
    coned = SimplicialComplex(
        list(base.simplices()) + [s.joined("apex") for s in base.simplices()]
    )
    for n in range(4):
        assert coned.reduced_betti(n) == 0
        assert coned.homology(n)[1] == []


def test_homology_twice_subdivided_projective_plane():
    K = barycentric_subdivision(barycentric_subdivision(SimplicialComplex(RP2_TRIANGLES)))
    assert len(K) == 1081
    assert [K.homology(n) for n in range(4)] == [(1, []), (0, [2]), (0, []), (0, [])]


def dense_snf_homology(K, n):
    """Oracle: homology from dense boundary matrices and full Smith normal forms."""
    cn = len(K.simplices(n))
    if cn == 0:
        return 0, []
    rank_n = 0
    if n > 0:
        mat = K.boundary_matrix(n)
        rank_n = smith_normal_form(mat).rank if mat and mat[0] else 0
    up = K.boundary_matrix(n + 1)
    if up and up[0]:
        res = smith_normal_form(up)
        return cn - rank_n - res.rank, [d for d in res.divisors if d > 1]
    return cn - rank_n, []


@st.composite
def flag_complex_up_to_ten(draw):
    n = draw(st.integers(0, 10))
    pool = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pool), max_size=len(pool)))
    return flag_complex(range(n), [e for e, k in zip(pool, keep) if k], draw(st.integers(0, 4)))


@st.composite
def triangle_complex(draw):
    # pure 2-complexes on six vertices, half of them containing RP2, so
    # that torsion occurs
    tris = draw(st.sets(st.sampled_from(list(combinations(range(6), 3))), min_size=1))
    return SimplicialComplex(tris | set(RP2_TRIANGLES) if draw(st.booleans()) else tris)


@settings(max_examples=150, deadline=None)
@given(st.one_of(flag_complex_up_to_ten(), triangle_complex()))
def test_homology_matches_dense_snf_oracle(K):
    for n in range(K.dim + 1):
        rows = K.simplices(n - 1)
        for s, col in zip(K.simplices(n), K.boundary_columns(n)):
            assert {rows[i]: c for i, c in col.items()} == Chain(n, {s: 1}).boundary().terms
    groups = [K.homology(n) for n in range(K.dim + 2)]
    assert groups == [dense_snf_homology(K, n) for n in range(K.dim + 2)]
    assert sum((-1) ** n * betti for n, (betti, _) in enumerate(groups)) == K.euler_characteristic()


# -- filling algorithms -----------------------------------------------------------

def test_cone_fill_triangle_boundary():
    K = simplex_complex(("a", "b", "c", "apex"))
    z = Chain.from_oriented(2, [(("a", "b", "c"), 1)]).boundary()
    w = cone_fill(K, z, "apex")
    assert w.boundary() == z


def test_cone_fill_zero():
    K = simplex_complex(("a", "b"))
    assert cone_fill(K, Chain(1), "a").is_zero()


def test_cone_fill_reduced_zero_cycle():
    K = simplex_complex(("a", "b", "s"))
    z = Chain(0, {Simplex(("a",)): 1, Simplex(("b",)): -1})
    w = cone_fill(K, z, "s")
    assert w.boundary() == z
    with pytest.raises(FillError):
        cone_fill(K, Chain(0, {Simplex(("a",)): 1}), "s")


def test_cone_fill_rejects_non_cycle():
    K = simplex_complex(("a", "b", "c"))
    not_cycle = Chain.from_oriented(1, [(("a", "b"), 1)])
    with pytest.raises(FillError):
        cone_fill(K, not_cycle, "c")


def test_cone_fill_rejects_unjoinable_apex():
    K = flag_complex("abcx", [("a", "b"), ("b", "c"), ("a", "c"), ("x", "a")], 2)
    z = Chain.from_oriented(2, [(("a", "b", "c"), 1)]).boundary()
    with pytest.raises(FillError):
        cone_fill(K, z, "x")


def _square_cycle():
    return Chain.from_oriented(
        1, [(("a", "b"), 1), (("b", "c"), 1), (("c", "d"), 1), (("d", "a"), 1)]
    )


def _square_with_copy():
    edges = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"),
             ("p", "a"), ("p", "b"), ("p", "d")]
    return flag_complex(["a", "b", "c", "d", "p"], edges, 2)


def test_prism_fill_on_square():
    K = _square_with_copy()
    z = _square_cycle()
    z2, w = prism_fill(K, z, "a", "p")
    assert w.boundary() == z - z2
    # replaced cycle swaps the vertex and stays a cycle
    assert z2.boundary().is_zero()
    assert all("a" not in s for s in z2.terms)


def test_prism_fill_avoiding_vertex():
    K = _square_with_copy()
    z = Chain.from_oriented(1, [(("b", "c"), 1), (("c", "d"), 1), (("b", "d"), -1)])
    # not a cycle of the complex's triangles, but a cycle nonetheless
    z2, w = prism_fill(K, z, "a", "p")
    assert z2 == z and w.is_zero()


def test_prism_fill_homology_class_unchanged():
    K = _square_with_copy()
    z = _square_cycle()
    z2, w = prism_fill(K, z, "a", "p")
    # [z] == [z2] because their difference bounds w
    assert (z - z2) == w.boundary()


def test_prism_fill_rejects_unjoinable():
    edges = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("p", "a")]
    K = flag_complex(["a", "b", "c", "d", "p"], edges, 2)
    with pytest.raises(FillError):
        prism_fill(K, _square_cycle(), "a", "p")


def _random_flag_complex(rng, n, p, max_dim=3):
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    return flag_complex(range(n), edges, max_dim)


def _random_cycle(rng, K, degree):
    upper = K.simplices(degree + 1)
    if not upper:
        return None
    u = Chain(degree + 1, {s: rng.randint(-2, 2) for s in upper})
    z = u.boundary()
    return z if not z.is_zero() else None


def test_randomized_cone_fills():
    rng = random.Random(23)
    done = 0
    while done < 100:
        n = rng.randint(4, 7)
        base = _random_flag_complex(rng, n, 0.7)
        deg = rng.randint(1, 2)
        z = _random_cycle(rng, base, deg)
        if z is None:
            continue
        apex = n
        coned = SimplicialComplex(
            list(base.simplices()) + [s.joined(apex) for s in base.simplices()]
        )
        w = cone_fill(coned, z, apex)
        assert w.boundary() == z
        done += 1


def test_randomized_prism_fills():
    rng = random.Random(29)
    done = 0
    while done < 100:
        n = rng.randint(4, 7)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.7]
        K = flag_complex(range(n), edges, 3)
        deg = rng.randint(1, 2)
        z = _random_cycle(rng, K, deg)
        if z is None:
            continue
        vertex = rng.choice(sorted({v for s in z.terms for v in s}))
        copy = n
        neighbors = {
            w for e in edges for w in e if vertex in e
        } - {vertex}
        copy_edges = edges + [(copy, vertex)] + [(copy, w) for w in neighbors]
        K2 = flag_complex(range(n + 1), copy_edges, 4)
        z2, w = prism_fill(K2, z, vertex, copy)
        assert w.boundary() == z - z2
        done += 1


def test_solve_boundary_finds_cone():
    K = simplex_complex(("a", "b", "c", "s"))
    z = Chain.from_oriented(2, [(("a", "b", "c"), 1)]).boundary()
    candidates = [s for s in K.simplices(2) if "s" in s]
    w = solve_boundary(candidates, z)
    assert w is not None and w.boundary() == z


def test_solve_boundary_unsolvable():
    z = Chain.from_oriented(1, [(("a", "b"), 1)])
    assert solve_boundary([Simplex(("a", "b", "c"))], z) is None


def test_solve_boundary_torsion_on_subdivided_projective_plane():
    # the 3-cycle 0-1-2 is no face of RP2 and generates H_1 = Z/2: it does
    # not bound, twice it does, and only the residual's 2 can find that
    K = barycentric_subdivision(SimplicialComplex(RP2_TRIANGLES))
    loop = [((u,), tuple(sorted((u, v)))) for u, v in ((0, 1), (1, 2), (2, 0))]
    loop += [(tuple(sorted((u, v))), (v,)) for u, v in ((0, 1), (1, 2), (2, 0))]
    gamma = Chain.from_oriented(1, [(e, 1) for e in loop])
    assert gamma.boundary().is_zero()
    triangles = K.simplices(2)
    assert solve_boundary(triangles, gamma) is None
    twice = gamma + gamma
    w = solve_boundary(triangles, twice)
    assert w is not None and w.boundary() == twice


def test_solve_boundary_target_off_every_candidate_face():
    # a repeated candidate is a repeated column and still gives one filling
    candidates = [Simplex(("a", "b", "c")), Simplex(("a", "b", "c"))]
    z = Chain.from_oriented(2, [(("a", "b", "c"), 1)]).boundary()
    assert solve_boundary(candidates, z).boundary() == z
    off = z + Chain.from_oriented(1, [(("a", "d"), 1), (("d", "b"), 1), (("b", "a"), 1)])
    assert solve_boundary(candidates, off) is None
    away = Chain.from_oriented(1, [(("d", "e"), 1), (("e", "f"), 1), (("f", "d"), 1)])
    assert solve_boundary(candidates, away) is None


# -- JSON forms -------------------------------------------------------------------

def test_complex_json_roundtrip():
    K = flag_complex("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")], 1)
    doc = json.loads(json.dumps(complex_to_json(K)))
    assert complex_from_json(doc) == K


def test_bd_complex_json_roundtrip():
    bd = barycentric_subdivision(simplex_complex(("a", "b")))
    doc = json.loads(json.dumps(complex_to_json(bd)))
    assert complex_from_json(doc) == bd


def test_chain_json_roundtrip():
    z = _square_cycle()
    doc = json.loads(json.dumps(chain_to_json(z)))
    assert chain_from_json(doc) == z
    assert doc["deg"] == 1


@pytest.mark.parametrize("coeff", [0.5, True, "2", None])
def test_chain_from_json_rejects_non_integer_coefficients(coeff):
    doc = {"deg": 0, "terms": [{"simplex": ["a"], "coeff": coeff}]}
    with pytest.raises(TypeError):
        chain_from_json(doc)
    with pytest.raises(TypeError):
        chain_from_json({"deg": coeff, "terms": [{"simplex": ["a", "b"], "coeff": 1}]})


@pytest.mark.parametrize("make", [
    lambda: Chain(0, {("a",): 0.5}),
    lambda: Chain(0, {("a",): Fraction(2)}),
    lambda: Chain(0, {("a",): "1"}),
    lambda: Chain(1.7),
    lambda: Chain.from_oriented(0, [(("a",), 0.5)]),
    lambda: 2.5 * Chain(0, {("a",): 1}),
    lambda: Cochain(0, {("a",): 0.5}),
    lambda: Cochain(0.5),
])
def test_chains_reject_non_integers(make):
    with pytest.raises(TypeError):
        make()


def test_chain_accepts_integer_likes():
    assert Chain(True, {("a", "b"): True}) == Chain(1, {("a", "b"): 1})
