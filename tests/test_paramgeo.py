import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfcomplex import paramgeo
from surfcomplex.paramgeo import (
    CurvatureModel,
    DomainError,
    WARP_CLAIMED,
    WARP_PRINTED,
    WeightFunction,
    _added_vertices,
    _as_number,
    all_faces,
    cutoff,
    cylinder_length,
    cylinder_length_quadrature,
    decompose_cube_point,
    enumerate_pieces,
    face,
    face_chain,
    in_region,
    inner_cylinder_length,
    lambda_min,
    lambda_of,
    metric_descriptor,
    nested_chain,
    psi_forward,
    psi_inverse,
    psi_inverse_piece,
    q_cover_check,
    rho0,
    sample_ext_boundary,
    selftest,
    vanishing_certificate,
    vanishing_data,
)
from surfcomplex.simplicial import Simplex, barycentric_subdivision, chain_simax, simplex_complex


# -- ramps ---------------------------------------------------------------------

def test_rho0_endpoints_and_midpoint():
    assert rho0(0) == 0.0
    assert rho0(1) == 1.0
    assert rho0(0.5) == 0.5


def test_rho0_symmetry_tight():
    for i in range(201):
        t = i / 200
        assert abs(rho0(t) + rho0(1 - t) - 1.0) <= 1e-15


def test_rho0_monotone_and_bounded():
    vals = [rho0(i / 100) for i in range(101)]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))


def test_rho0_domain():
    with pytest.raises(DomainError):
        rho0(-0.1)
    with pytest.raises(DomainError):
        rho0(1.1)


def test_cutoff_plateau_and_ramp():
    assert cutoff(0, 1, 0.25, 0.75, 0.5) == 1.0
    assert cutoff(0, 1, 0.25, 0.75, 0) == 0.0
    assert cutoff(0, 1, 0.25, 0.75, 1) == 0.0
    # affine reparametrization of the ramp
    assert cutoff(0, 1, 0.25, 0.75, 0.125) == rho0(0.5) == 0.5


def test_cutoff_domain_errors():
    with pytest.raises(DomainError):
        cutoff(0, 1, 0.25, 0.75, 1.5)
    with pytest.raises(DomainError):
        cutoff(0, 1, 0.75, 0.25, 0.5)


# -- weights and the scale -------------------------------------------------------

def test_face_is_a_simplex():
    f = face(("b", "a"))
    assert isinstance(f, Simplex) and f == ("a", "b")
    assert face(f) is f
    for bad in (("a", "b", "a"), (), Simplex(())):
        with pytest.raises(DomainError):
            face(bad)


def _old_strict_chain(items, what):
    # the chain normalisation as it was: sort everything by (size, value) first
    seq = tuple(sorted(items, key=lambda x: (len(x), x)))
    for x, y in zip(seq, seq[1:]):
        if not (set(x) < set(y)):
            raise DomainError(f"not a strict chain of {what}: {x} then {y}")
    if not seq:
        raise DomainError("chains are nonempty")
    return seq


@st.composite
def face_lists(draw):
    """Prefixes of one vertex order (a chain, with repeats now and then),
    sometimes with one more arbitrary face, in any order."""
    order = draw(st.permutations("ABCDE"))
    faces = [order[:k] for k in draw(st.lists(st.integers(1, 5), max_size=5))]
    faces += draw(st.lists(st.sets(st.sampled_from("ABCDE"), min_size=1).map(sorted), max_size=1))
    return draw(st.permutations(faces))


@settings(max_examples=300, deadline=None)
@given(face_lists())
def test_face_chain_matches_the_sorting_oracle(faces):
    want = _outcome(lambda fs: _old_strict_chain((face(f) for f in fs), "faces"), faces)
    assert _outcome(face_chain, faces) == want
    if want[0] != "DomainError":
        # the same chain one level up: a chain of its own prefixes
        prefixes = [want[:k] for k in range(len(want), 0, -1)]
        assert nested_chain(prefixes) == _old_strict_chain(map(face_chain, prefixes), "chains")


def test_weight_vertices_must_be_one():
    w = WeightFunction({("a",): 1, ("a", "b"): Fraction(1, 3)})
    assert w.value(("a", "b")) == Fraction(1, 3)
    bad = WeightFunction({("a",): Fraction(1, 2)})
    with pytest.raises(DomainError):
        bad.value(("a",))


def test_weight_monotone_check():
    w = WeightFunction({("a",): 1, ("b",): 1, ("a", "b"): Fraction(1, 2)})
    assert w.check_monotone(("a", "b"))
    increasing = WeightFunction(
        {("a",): 1, ("b",): 1, ("a", "b"): Fraction(1, 2), ("a", "b", "c"): 1,
         ("c",): 1, ("a", "c"): 1, ("b", "c"): 1}
    )
    with pytest.raises(DomainError):
        increasing.check_monotone(("a", "b", "c"))


def test_lambda_singleton_chain():
    a = WeightFunction.dyadic()
    s = (("a",), ("a", "b"))
    assert lambda_of([s], [1], a) == a.value(("a", "b")) == Fraction(1, 2)


def test_lambda_constant_one():
    a = WeightFunction.one()
    s0 = (("a",),)
    s1 = (("a",), ("a", "b"))
    assert lambda_of([s0, s1], [Fraction(1, 3), Fraction(2, 3)], a) == 1


def test_lambda_weighted_average():
    a = WeightFunction.dyadic()
    s0 = (("a",),)                # largest face a vertex: weight 1
    s1 = (("a",), ("a", "b"))     # largest face the edge: weight 1/2
    lam = lambda_of([s0, s1], [Fraction(1, 2), Fraction(1, 2)], a)
    assert lam == Fraction(3, 4)


def test_lambda_bound_property():
    rng = random.Random(4)
    a = WeightFunction.dyadic()
    sigma = ("a", "b", "c", "d")
    for s, chains, weights, r in sample_ext_boundary(sigma, 1, 200, rng):
        lam = lambda_of(chains, weights, a)
        for sub in chains:
            assert lam <= a.value(sub[0])


def test_lambda_min_dyadic_triangle():
    a = WeightFunction.dyadic()
    assert lambda_min(("x", "y", "z"), a) == Fraction(1, 4)


def test_lambda_min_constant_one():
    assert lambda_min(("x", "y", "z"), WeightFunction.one()) == 1


def test_lambda_min_explicit_edge():
    w = WeightFunction({("a",): 1, ("b",): 1, ("a", "b"): Fraction(1, 3)})
    assert lambda_min(("a", "b"), w) == Fraction(1, 3)


def _random_monotone_weight(rng, sigma):
    values = {}
    for f in all_faces(sigma):
        if len(f) == 1:
            values[f] = Fraction(1)
        else:
            facets = [tuple(sorted(set(f) - {v})) for v in f]
            cap = min(values[t] for t in facets)
            values[f] = cap * Fraction(rng.randint(1, 8), 8)
    return WeightFunction(values)


def _chain_minimum(sigma, a):
    """Oracle: a(largest face) minimized over every chain of faces of sigma,
    i.e. over the simplices of its barycentric subdivision."""
    bd = barycentric_subdivision(simplex_complex(sigma))
    return min(a.value(chain_simax(s)) for s in bd.simplices())


def _increases_somewhere(a, sigma):
    """Oracle: some nested pair of faces, covering or not, gains weight."""
    faces = all_faces(sigma)
    return any(
        set(small) < set(big) and a.value(big) > a.value(small)
        for small in faces
        for big in faces
    )


def test_lambda_min_exhaustive_dims_up_to_four():
    rng = random.Random(6)
    for dim in range(5):
        sigma = tuple("ABCDE"[: dim + 1])
        for a in (
            WeightFunction.dyadic(),
            WeightFunction.one(),
            _random_monotone_weight(rng, sigma),
        ):
            a.check_monotone(sigma)
            # exhaustive enumeration over all chains: affine minimum sits at
            # a chain vertex, so this is the whole candidate set
            assert lambda_min(sigma, a) == _chain_minimum(sigma, a) == a.value(sigma)


def _strict_weight(rng, sigma):
    """A random strictly decreasing weight: every face below every facet."""
    values = {}
    for f in all_faces(sigma):
        if len(f) == 1:
            values[f] = Fraction(1)
        else:
            cap = min(values[tuple(sorted(set(f) - {v}))] for v in f)
            values[f] = cap * Fraction(rng.randint(1, 7), 8)
    return values


def _perturbed_weight(rng, sigma):
    """A strictly decreasing weight with one face raised above one of its
    facets that is not a vertex, so the result is not monotone (needs 3+
    vertices: vertices weigh 1, the largest weight there is)."""
    values = _strict_weight(rng, sigma)
    small = rng.choice([f for f in values if 1 < len(f) < len(sigma)])
    big = face(small + (rng.choice([v for v in sigma if v not in small]),))
    values[big] = values[small] + (1 - values[small]) * Fraction(rng.randint(1, 8), 8)
    return values


def test_face_scans_match_chain_and_pair_oracles():
    rng = random.Random(2024)
    for n in range(1, 6):
        sigma = tuple("ABCDE"[:n])
        for i in range(24):
            monotone = i % 2 == 0 or n < 3
            values = _strict_weight(rng, sigma) if monotone else _perturbed_weight(rng, sigma)
            a = WeightFunction(values)
            assert _increases_somewhere(a, sigma) is not monotone
            assert lambda_min(sigma, a) == _chain_minimum(sigma, a) == min(values.values())
            if monotone:
                assert a.check_monotone(sigma)
            else:
                with pytest.raises(DomainError, match="weight increases along"):
                    a.check_monotone(sigma)


def test_lambda_min_interior_never_beats_vertices():
    rng = random.Random(9)
    sigma = ("A", "B", "C")
    a = WeightFunction.dyadic()
    best = lambda_min(sigma, a)
    for s, chains, weights, r in sample_ext_boundary(sigma, 1, 300, rng):
        assert lambda_of(chains, weights, a) >= best


# -- cylinder lengths -------------------------------------------------------------

def test_cylinder_unstretched():
    assert cylinder_length(Fraction(1, 2), 0) == Fraction(3, 2)
    assert inner_cylinder_length(Fraction(1, 2), 0) == Fraction(1, 2)


def test_cylinder_worked_example():
    assert cylinder_length(1, 2) == 7
    assert inner_cylinder_length(1, 2) == 3
    assert abs(cylinder_length_quadrature(1, 2) - 7) < 1e-9


def test_cylinder_exceeds_inner_bound():
    rng = random.Random(2)
    for _ in range(50):
        lam = Fraction(rng.randint(1, 16), 8)
        r = Fraction(rng.randint(0, 64), 4)
        assert cylinder_length(lam, r) > lam * (r + 1)


def test_cylinder_quadrature_agreement_grid():
    for i in range(1, 6):
        for j in range(0, 6):
            lam, r = i / 4, j * 1.3
            closed = cylinder_length(lam, r)
            assert abs(closed - cylinder_length_quadrature(lam, r)) < 1e-9


def test_printed_warp_is_shorter_but_still_long_enough():
    lam, r = 1.0, 2.0
    printed = cylinder_length(lam, r, WARP_PRINTED)
    claimed = cylinder_length(lam, r, WARP_CLAIMED)
    assert printed < claimed
    assert inner_cylinder_length(lam, r, WARP_PRINTED) == lam * math.sqrt(3)
    assert printed > lam * math.sqrt(r + 1)
    assert abs(printed - cylinder_length_quadrature(lam, r, WARP_PRINTED)) < 1e-9


def test_cylinder_domain_errors():
    with pytest.raises(DomainError):
        cylinder_length(0, 1)
    with pytest.raises(DomainError):
        cylinder_length(1, -1)
    with pytest.raises(DomainError):
        cylinder_length(1, 1, "bogus")


# -- metric descriptors --------------------------------------------------------------

def test_descriptor_unstretched_segments():
    a = WeightFunction.dyadic()
    sigma = ("A", "B")
    s = (("A",), ("A", "B"))
    d = metric_descriptor(sigma, s, [s], [1], {"A": 0}, a)
    segs = d.cylinder_segments()
    assert len(segs) == 1
    assert segs[0].total_length == 3 * d.lam


def test_descriptor_worked_example():
    a = WeightFunction.one()
    sigma = ("A", "B")
    s = (("A", "B"),)  # single face: the whole simplex
    d = metric_descriptor(sigma, s, [s], [1], {"A": 1, "B": 2}, a)
    assert d.lam == 1
    segs = {seg.surface: seg for seg in d.cylinder_segments()}
    assert segs["A"].total_length == 5
    assert segs["B"].total_length == 7
    assert segs["A"].inner_length == 2
    assert segs["B"].inner_length == 3


def test_descriptor_terms_share_scale_and_stretch():
    a = WeightFunction.dyadic()
    sigma = ("A", "B", "C")
    s = (("A",), ("A", "B"), ("A", "B", "C"))
    chains = ((("A",),), (("A",), ("A", "B", "C")))
    d = metric_descriptor(
        sigma, s, chains, [Fraction(1, 3), Fraction(2, 3)], {"A": Fraction(5, 2)}, a
    )
    for w, stretched, lam, r in d.terms:
        assert lam == d.lam
        assert r == {"A": Fraction(5, 2)}
        assert "A" in stretched


def test_descriptor_validates_point():
    a = WeightFunction.dyadic()
    with pytest.raises(DomainError):
        metric_descriptor(("A", "B"), (("A",),), [(("A",),)], [1], {"B": 0}, a)
    with pytest.raises(DomainError):
        metric_descriptor(("A", "B"), (("A", "Z"),), [(("A", "Z"),)], [1], {"A": 0, "Z": 0}, a)


# -- cube decomposition ----------------------------------------------------------------

def test_decompose_all_zero():
    sigma = ("P", "a", "b", "c")
    tau, s = decompose_cube_point(sigma, "P", 1, {"a": 0, "b": 0, "c": 0})
    assert tau == ("P",)
    # ties broken toward the smallest id at every step
    assert s == (("P",), ("P", "a"), ("P", "a", "b"), ("P", "a", "b", "c"))


def test_decompose_all_r():
    sigma = ("P", "a", "b")
    tau, s = decompose_cube_point(sigma, "P", 1, {"a": 1, "b": 1})
    assert tau == ("P", "a", "b")
    assert s == (("P", "a", "b"),)


def test_decompose_greedy_order():
    sigma = ("P", "a", "b", "c")
    x = {"a": Fraction(9, 10), "b": Fraction(3, 10), "c": Fraction(1, 10)}
    tau, s = decompose_cube_point(sigma, "P", 1, x)
    assert tau == ("P", "a")
    assert s == (("P", "a"), ("P", "a", "b"), ("P", "a", "b", "c"))
    assert in_region(sigma, "P", tau, s, 1, x)


def test_in_region_rejects_non_saturated_chain():
    with pytest.raises(DomainError, match="jumps from"):
        in_region("ABC", "A", "A", ["A", "ABC"], 1, {"B": 0, "C": 0})


ABC_CHAIN = (("A",), ("A", "B"), ("A", "B", "C"))


@pytest.mark.parametrize("call,message", [
    # a missing coordinate and R <= 0 used to escape as KeyError/ZeroDivisionError
    (lambda: psi_inverse_piece(("A", "B", "C"), "A", 1, ABC_CHAIN, {"B": 0}),
     r"cube point indexed by \['B'\], want \['B', 'C'\]"),
    (lambda: psi_inverse_piece(("A", "B"), "A", 0, (("A",), ("A", "B")), {"B": 0}),
     "R must be positive, got 0"),
    (lambda: psi_inverse_piece(("A", "B"), "A", -1, (("A",), ("A", "B")), {"B": 0}),
     "R must be positive, got -1"),
    # x_B = 0 is below tau's band [R/2, R]: the stretch r_B would be -1
    (lambda: psi_inverse_piece(("A", "B"), "A", 1, (("A", "B"),), {"B": 0}),
     "point not in the region of this piece"),
    (lambda: in_region("ABC", "A", ("A",), (("A", "B"), ("A", "B", "C")), 1, {"B": 0, "C": 0}),
     "is not the smallest face of the chain"),
    (lambda: in_region("ABC", "A", ("A",), (("A",), ("A", "B")), 1, {"C": 5}),
     "chain must end at"),
    (lambda: in_region(("A", "B"), "Z", ("A",), (("A",), ("A", "B")), 1, {"B": 0}),
     "pinned vertex 'Z' not in the smallest face"),
    (lambda: in_region(("A", "B", "C"), "A", ("A",), ABC_CHAIN, 1, {"B": 0}),
     "cube point indexed by"),
], ids=[
    "inverse-missing-coordinate", "inverse-zero-radius", "inverse-negative-radius",
    "inverse-below-tau-band", "region-tau-not-first", "region-chain-short-of-sigma",
    "region-pinned-outside-sigma", "region-missing-coordinate",
])
def test_cube_side_refuses_malformed_input(call, message):
    with pytest.raises(DomainError, match=message):
        call()


@pytest.mark.parametrize("call,message", [
    # R = 0 used to return a point; R = -1 was refused only by a range message
    (lambda: psi_inverse(("A", "B"), 0, {"A": 0, "B": 0}), "R must be positive, got 0"),
    (lambda: psi_forward(("A", "B"), "A", 0, (("A",), ("A", "B")), [1, 0], {"A": 0}),
     "R must be positive, got 0"),
    (lambda: psi_inverse(("A", "B"), -1, {"A": -1, "B": 0}), "R must be positive, got -1"),
    (lambda: psi_forward(("A", "B"), "A", -1, (("A",), ("A", "B")), [1, 0], {"A": -1}),
     "R must be positive, got -1"),
], ids=["inverse-zero", "forward-zero", "inverse-negative", "forward-negative"])
def test_psi_maps_refuse_nonpositive_radius(call, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        call()


def test_in_region_is_false_outside_the_cube():
    assert not in_region(("A", "B"), "A", ("A",), (("A",), ("A", "B")), 1, {"B": -5})


@st.composite
def piece_points(draw):
    """A simplex of 1-4 vertices, a pinned vertex, R as an int or a Fraction,
    and a point with coordinates j/8 * R for j in -2..10."""
    sigma = tuple("ABCD"[: draw(st.integers(1, 4))])
    pinned = draw(st.sampled_from(sigma))
    big_r = draw(st.one_of(
        st.integers(1, 12), st.builds(Fraction, st.integers(1, 12), st.integers(1, 4))
    ))
    x = {}
    for v in sigma:
        if v != pinned:
            c = big_r * Fraction(draw(st.integers(-2, 10)), 8)
            x[v] = int(c) if c.denominator == 1 and draw(st.booleans()) else c
    return sigma, pinned, big_r, x


@settings(max_examples=300, deadline=None)
@given(piece_points())
def test_psi_inverse_piece_returns_exactly_in_the_region(case):
    sigma, pinned, big_r, x = case
    hits = 0
    for tau, s in enumerate_pieces(sigma, pinned):
        if not in_region(sigma, pinned, tau, s, big_r, x):
            with pytest.raises(DomainError, match="not in the region of this piece"):
                psi_inverse_piece(sigma, pinned, big_r, s, x)
            continue
        hits += 1
        t, r = psi_inverse_piece(sigma, pinned, big_r, s, x)
        assert psi_forward(sigma, pinned, big_r, s, t, r) == {**x, pinned: big_r}
    # the pieces cover the cube and nothing outside it
    assert (hits > 0) == all(0 <= xv <= big_r for xv in x.values())


def test_decompose_validates():
    with pytest.raises(DomainError):
        decompose_cube_point(("P", "a"), "P", 1, {"a": 2})
    with pytest.raises(DomainError):
        decompose_cube_point(("P", "a"), "Z", 1, {"a": 0})


# -- the piecewise homeomorphism ---------------------------------------------------------

def test_psi_forward_worked_examples():
    sigma = ("S0", "S1")
    big_r = Fraction(1)
    # half-way along the chain from {S0} to sigma, fully stretched at S0
    s = (("S0",), ("S0", "S1"))
    x = psi_forward(sigma, "S0", big_r, s, (Fraction(1, 2), Fraction(1, 2)), {"S0": big_r})
    assert x == {"S0": 1, "S1": Fraction(1, 4)}
    # top face: the box side, lower corner
    s2 = (("S0", "S1"),)
    x2 = psi_forward(sigma, "S0", big_r, s2, (1,), {"S0": big_r, "S1": 0})
    assert x2["S1"] == Fraction(1, 2) and x2["S0"] == 1


def test_psi_forward_image_in_exterior_boundary():
    rng = random.Random(11)
    sigma = ("A", "B", "C")
    big_r = Fraction(2)
    for tau, s in enumerate_pieces(sigma, "B"):
        k = len(s) - 1
        raw = [rng.randint(0, 8) for _ in range(k + 1)]
        if sum(raw) == 0:
            raw[0] = 1
        t = [Fraction(v, sum(raw)) for v in raw]
        r = {v: big_r * Fraction(rng.randint(0, 8), 8) for v in tau}
        r["B"] = big_r
        x = psi_forward(sigma, "B", big_r, s, t, r)
        assert x["B"] == big_r
        assert all(0 <= xv <= big_r for xv in x.values())


def test_psi_round_trip_exact_rationals():
    rng = random.Random(13)
    for sigma in [("A", "B"), ("A", "B", "C"), ("A", "B", "C", "D")]:
        for _ in range(300):
            x = {v: Fraction(rng.randint(0, 64), 64) for v in sigma}
            x[rng.choice(sigma)] = Fraction(1)
            pinned, tau, s, t, r = psi_inverse(sigma, Fraction(1), x)
            back = psi_forward(sigma, pinned, Fraction(1), s, t, r)
            assert back == x


def test_psi_round_trip_floats():
    rng = np.random.default_rng(101)
    worst = 0.0
    for sigma in [("A", "B"), ("A", "B", "C"), ("A", "B", "C", "D")]:
        for _ in range(400):
            x = {v: float(rng.uniform(0, 1)) for v in sigma}
            x[sigma[int(rng.integers(len(sigma)))]] = 1.0
            pinned, tau, s, t, r = psi_inverse(sigma, 1.0, x)
            back = psi_forward(sigma, pinned, 1.0, s, t, r)
            worst = max(worst, max(abs(back[v] - x[v]) for v in sigma))
    assert worst < 1e-12


def test_psi_pieces_agree_on_shared_faces():
    # points with coordinates at R/2 and repeated values sit in several
    # pieces; every piece containing the point must map it back identically
    sigma = ("A", "B", "C")
    big_r = Fraction(1)
    half = Fraction(1, 2)
    shared_points = [
        {"A": half, "B": half, "C": big_r},
        {"A": half, "B": Fraction(1, 4), "C": big_r},
        {"A": Fraction(1, 4), "B": Fraction(1, 4), "C": big_r},
        {"A": big_r, "B": half, "C": big_r},
        {"A": 0, "B": 0, "C": big_r},
    ]
    for x in shared_points:
        pinned_choices = [v for v in sigma if x[v] == big_r]
        images = []
        for pinned in pinned_choices:
            rest = {v: xv for v, xv in x.items() if v != pinned}
            for tau, s in enumerate_pieces(sigma, pinned):
                if not in_region(sigma, pinned, tau, s, big_r, rest):
                    continue
                t, r = psi_inverse_piece(sigma, pinned, big_r, s, rest)
                images.append(psi_forward(sigma, pinned, big_r, s, t, r))
        assert images, f"no piece contains {x}"
        assert all(img == x for img in images)


def test_psi_pieces_agree_dim_three_grid():
    sigma = ("A", "B", "C", "D")
    big_r = Fraction(1)
    grid = [Fraction(i, 4) for i in range(5)]
    for xa in grid:
        for xb in grid:
            for xc in grid:
                x = {"A": xa, "B": xb, "C": xc, "D": big_r}
                rest = {v: xv for v, xv in x.items() if v != "D"}
                hits = 0
                for tau, s in enumerate_pieces(sigma, "D"):
                    if not in_region(sigma, "D", tau, s, big_r, rest):
                        continue
                    t, r = psi_inverse_piece(sigma, "D", big_r, s, rest)
                    assert psi_forward(sigma, "D", big_r, s, t, r) == x
                    hits += 1
                assert hits >= 1


def test_psi_inverse_requires_boundary_point():
    with pytest.raises(DomainError):
        psi_inverse(("A", "B"), 1, {"A": 0.5, "B": 0.25})


def test_psi_round_trip_is_exact_for_int_and_fraction_radius():
    # an int R used to send the inverse through float division
    sigma = ("A", "B", "C")
    x = {"A": 1, "B": Fraction(1, 3), "C": 0}
    pinned, tau, s, t, r = psi_inverse(sigma, 1, x)
    assert t == [Fraction(1, 3), Fraction(2, 3), 0]
    assert psi_forward(sigma, pinned, 1, s, t, r) == x
    rng = random.Random(17)
    for big_r in (3, Fraction(3), Fraction(7, 2)):
        for _ in range(200):
            x = {v: rng.choice((rng.randint(0, 3), Fraction(rng.randint(0, 21), 6) * big_r / 3))
                 for v in sigma}
            x = {v: min(xv, big_r) for v, xv in x.items()}
            x[rng.choice(sigma)] = big_r
            pinned, tau, s, t, r = psi_inverse(sigma, big_r, x)
            back = psi_forward(sigma, pinned, big_r, s, t, r)
            assert back == x
            values = [*t, *r.values(), *back.values()]
            assert not any(isinstance(v, float) for v in values), values


def test_numbers_are_int_float_or_fraction():
    for call in (
        lambda: cylinder_length("0.5", "1"),
        lambda: cylinder_length("1/2", "1"),
        lambda: decompose_cube_point(("P", "a"), "P", "1", {"a": "0.25"}),
    ):
        with pytest.raises(DomainError, match="expected a number, got '"):
            call()


def test_enumerate_pieces_budget_boundary(monkeypatch):
    # the a-priori count is exact: each size is allowed at its count, refused one below
    for size in range(1, 6):
        sigma = tuple("ABCDE"[:size])
        count = len(enumerate_pieces(sigma, "A"))
        monkeypatch.setattr(paramgeo, "PIECES_MAX", count)
        assert len(enumerate_pieces(sigma, "A")) == count
        monkeypatch.setattr(paramgeo, "PIECES_MAX", count - 1)
        with pytest.raises(DomainError, match=f"^{count} pieces exceed the limit {count - 1}$"):
            enumerate_pieces(sigma, "A")
        monkeypatch.undo()


def test_enumerate_pieces_refuses_before_any_work(monkeypatch):
    monkeypatch.setattr(paramgeo, "all_faces", lambda sigma: pytest.fail("faces were enumerated"))
    # 12 vertices: 11! * (1 + 1/1! + ... + 1/11!) saturated chains
    with pytest.raises(DomainError, match="108505112 pieces exceed the limit"):
        enumerate_pieces(tuple("abcdefghijkl"), "a")
    with pytest.raises(DomainError, match="'Z' is not a vertex"):
        enumerate_pieces(("A", "B"), "Z")


# Oracles: the psi maps and the decomposition as they were before the cube
# side ran on integer numerators, with their Fraction (or float) arithmetic
# and their validation of every piece.

def _old_as_number(x):
    if isinstance(x, bool):
        raise DomainError(f"expected a number, got {x!r}")
    return x if isinstance(x, (int, Fraction)) else float(x)


def _old_decompose(sigma, pinned, big_r, x):
    sigma = face(sigma)
    if pinned not in sigma:
        raise DomainError(f"{pinned!r} is not a vertex of {sigma}")
    rest = [v for v in sigma if v != pinned]
    if set(x) != set(rest):
        raise DomainError(f"cube point indexed by {sorted(x)}, want {rest}")
    big = _old_as_number(big_r)
    xs = {v: _old_as_number(xv) for v, xv in x.items()}
    for v, xv in x.items():
        if not 0 <= xs[v] <= big:
            raise DomainError(f"coordinate {v}={xv} outside [0, {big_r}]")
    high, low = [pinned], []
    for v in rest:
        (high if 2 * xs[v] >= big else low).append(v)
    chain = [face(high)]
    for v in sorted(low, key=xs.__getitem__, reverse=True):
        chain.append(chain[-1].joined(v))
    return chain[0], tuple(chain)


def _old_check_piece(sigma, pinned, s, big_r):
    sigma = face(sigma)
    s = face_chain(s)
    tau = s[0]
    if pinned not in tau:
        raise DomainError(f"pinned vertex {pinned!r} not in the smallest face {tau}")
    if s[-1] != sigma:
        raise DomainError(f"chain must end at {sigma}, ends at {s[-1]}")
    if len(s) + len(tau) != len(sigma) + 1:
        raise DomainError(
            f"piece chain must be saturated: {len(s)} faces from {tau} to {sigma}"
        )
    for small, big in zip(s, s[1:]):
        if len(big) != len(small) + 1:
            raise DomainError(f"chain jumps from {small} to {big}")
    return sigma, s, tau


def _old_psi_forward(sigma, pinned, big_r, s, t, r):
    sigma, s, tau = _old_check_piece(sigma, pinned, s, big_r)
    if len(t) != len(s):
        raise DomainError(f"{len(s)} chain entries but {len(t)} weights")
    if any(_old_as_number(w) < 0 for w in t):
        raise DomainError("barycentric weights are non-negative")
    total = sum(t)
    if abs(_old_as_number(total) - 1) > 1e-9:
        raise DomainError(f"barycentric weights sum to {total}, want 1")
    if set(r) != set(tau):
        raise DomainError(f"stretch vector indexed by {sorted(r)}, want {tau}")
    if r[pinned] != big_r:
        raise DomainError(f"pinned stretch r[{pinned!r}] = {r[pinned]}, want {big_r}")
    for v, rv in r.items():
        if not 0 <= _old_as_number(rv) <= _old_as_number(big_r):
            raise DomainError(f"stretch {v}={rv} outside [0, {big_r}]")
    two = 2 if isinstance(big_r, (int, Fraction)) else 2.0
    x = {}
    for v in sigma:
        if v == pinned:
            x[v] = big_r
        elif v in tau:
            x[v] = (r[v] + big_r) / two
        else:
            weight = sum(w for w, f in zip(t, s) if v in f)
            x[v] = big_r * weight / two
    return x


def _old_psi_inverse_piece(sigma, pinned, big_r, s, x):
    sigma, s, tau = _old_check_piece(sigma, pinned, s, big_r)
    added = _added_vertices(s)
    k = len(added)
    two = 2 if isinstance(big_r, (int, Fraction)) else 2.0
    tails = [two * x[v] / big_r for v in added]
    t = [0] * (k + 1)
    if k:
        t[k] = tails[k - 1]
        for j in range(1, k):
            t[j] = tails[j - 1] - tails[j]
        t[0] = 1 - tails[0]
    else:
        t[0] = 1
    if any(_old_as_number(w) < -1e-12 for w in t):
        raise DomainError(f"point not in the region of this piece: weights {t}")
    r = {v: two * x[v] - big_r for v in tau if v != pinned}
    r[pinned] = big_r
    return t, r


def _old_psi_inverse(sigma, big_r, x):
    sigma = face(sigma)
    if set(x) != set(sigma):
        raise DomainError(f"point indexed by {sorted(x)}, want {sigma}")
    pinned = None
    for v in sigma:
        if x[v] == big_r or abs(_old_as_number(x[v]) - _old_as_number(big_r)) < 1e-12:
            pinned = v
            break
    if pinned is None:
        raise DomainError("no coordinate equals R: point is not on the exterior boundary")
    rest = {v: xv for v, xv in x.items() if v != pinned}
    tau, s = _old_decompose(sigma, pinned, big_r, rest)
    t, r = _old_psi_inverse_piece(sigma, pinned, big_r, s, rest)
    return pinned, tau, s, t, r


def _leaves(obj):
    """The scalars of a nested result, with its shape and keys."""
    if isinstance(obj, dict):
        for k in sorted(obj):
            yield k
            yield from _leaves(obj[k])
    elif isinstance(obj, (tuple, list)):
        yield len(obj)
        for item in obj:
            yield from _leaves(item)
    else:
        yield obj


def _agree(new, old, kind):
    """Fraction R: equal, messages included.  Float R: within 1e-12.  Int R:
    equal wherever the old result was exact, within 1e-12 elsewhere."""
    if isinstance(old, tuple) and old and old[0] == "DomainError":
        assert isinstance(new, tuple) and new and new[0] == "DomainError", (new, old)
        assert kind != "fraction" or new == old
        return
    a, b = list(_leaves(new)), list(_leaves(old))
    assert len(a) == len(b), (new, old)
    if kind == "fraction" or (kind == "int" and not any(isinstance(v, float) for v in b)):
        assert a == b, (new, old)
    for u, v in zip(a, b):
        if isinstance(u, (int, float, Fraction)) and not isinstance(u, bool):
            assert abs(float(u) - float(v)) <= 1e-12, (new, old)
        else:
            assert u == v, (new, old)


def _outside_piece(sigma, pinned, big_r, s, x):
    """Whether the old inverse returns a negative weight or a stretch outside
    [0, R].  It runs on the exact values of its inputs: on float input its
    own rounding can turn a negative weight into 0.0."""
    big_r = Fraction(big_r)
    old = _outcome(_old_psi_inverse_piece, sigma, pinned, big_r, s,
                   {v: Fraction(xv) for v, xv in x.items()})
    if old[0] == "DomainError":
        return False
    t, r = old
    return any(w < 0 for w in t) or not all(0 <= rv <= big_r for rv in r.values())


@st.composite
def psi_cases(draw):
    """A simplex of 1-6 vertices, R as an int, a Fraction or a float, a point
    with coordinates drawn from 0, R/2, R and k/den * R (now and then outside
    [0, R], or just inside or outside the 1e-12 pinning tolerance), keyed in
    any order and with one of them pinned at R, plus a piece through a pinned
    vertex with weights and stretches that are mostly, not always, valid."""
    sigma = tuple("ABCDEF"[: draw(st.integers(1, 6))])
    kind = draw(st.sampled_from(("int", "fraction", "float")))
    num = draw(st.integers(1, 12))
    den = 1 if kind == "int" else draw(st.sampled_from((1, 2, 3, 4)))
    big = Fraction(num, den)
    big_r = {"int": num, "fraction": big, "float": float(big)}[kind]
    unit = st.one_of(
        st.sampled_from((Fraction(0), Fraction(1, 2), Fraction(1))),
        st.builds(Fraction, st.integers(0, 8), st.integers(1, 8)).filter(lambda u: u <= 1),
        st.sampled_from((Fraction(-1, 4), Fraction(5, 4))),
        st.sampled_from((1 - Fraction(1, 10**11), 1 - Fraction(1, 10**14))),
    )

    def value(u):
        c = big * u
        if kind == "int":
            return int(c) if c.denominator == 1 else c
        return float(c) if kind == "float" and draw(st.booleans()) else c

    x = {v: value(draw(unit)) for v in draw(st.permutations(sigma))}
    if draw(st.integers(0, 9)):
        x[draw(st.sampled_from(sigma))] = big_r
    pinned = draw(st.sampled_from(sigma))
    pieces = enumerate_pieces(sigma, pinned)
    tau, s = pieces[draw(st.integers(0, len(pieces) - 1))]
    raw = [draw(st.integers(0, 4)) for _ in s]
    raw[draw(st.integers(0, len(s) - 1))] += 1
    t = [Fraction(w, sum(raw)) for w in raw]
    if not draw(st.integers(0, 9)):
        t[draw(st.integers(0, len(t) - 1))] -= Fraction(1, 2)
    if kind == "float":
        t = [float(w) for w in t]
    r = {v: value(min(draw(unit), Fraction(1))) for v in tau}
    if draw(st.integers(0, 9)):
        r[pinned] = big_r
    return kind, sigma, big_r, x, pinned, s, t, r


@settings(max_examples=500, deadline=None)
@given(psi_cases())
def test_psi_maps_match_the_old_arithmetic(case):
    kind, sigma, big_r, x, pinned, s, t, r = case
    rest = {v: xv for v, xv in x.items() if v != pinned}
    _agree(_outcome(psi_inverse, sigma, big_r, x), _outcome(_old_psi_inverse, sigma, big_r, x), kind)
    _agree(
        _outcome(decompose_cube_point, sigma, pinned, big_r, rest),
        _outcome(_old_decompose, sigma, pinned, big_r, rest), kind,
    )
    piece = _outcome(psi_inverse_piece, sigma, pinned, big_r, s, rest)
    if _outside_piece(sigma, pinned, big_r, s, rest):
        # the old map let a point outside the piece's region through
        assert piece[0] == "DomainError", piece
    else:
        _agree(piece, _outcome(_old_psi_inverse_piece, sigma, pinned, big_r, s, rest), kind)
    _agree(
        _outcome(psi_forward, sigma, pinned, big_r, s, t, r),
        _outcome(_old_psi_forward, sigma, pinned, big_r, s, t, r), kind,
    )
    inverse = _outcome(psi_inverse, sigma, big_r, x)
    if kind != "float" and inverse[0] != "DomainError" and x[inverse[0]] == big_r:
        pin, _, chain, weights, stretch = inverse
        assert psi_forward(sigma, pin, big_r, chain, weights, stretch) == x


# -- cube coverage -------------------------------------------------------------------------

def test_cover_two_coordinates_fine_grid():
    report = q_cover_check(("P", "a", "b"), 1, Fraction(1, 8))
    assert report["uncovered"] == 0
    assert report["points"] == 3 * 81


def test_cover_dim_four_coarse_grid():
    report = q_cover_check(("P", "a", "b", "c", "d"), 1, Fraction(1, 4))
    assert report["uncovered"] == 0


def test_cover_rejects_non_dividing_step():
    with pytest.raises(DomainError):
        q_cover_check(("P", "a"), 1, Fraction(3, 7))


def test_cover_budget_refuses_before_visiting_any_point():
    # 8 * 17^7 points: walking them would take hours
    with pytest.raises(DomainError, match="3282709384 grid points exceeds the limit 1000000"):
        q_cover_check(tuple("abcdefgh"), 1, Fraction(1, 16))


def test_cover_budget_boundary(monkeypatch):
    monkeypatch.setattr(paramgeo, "COVER_MAX_POINTS", 3 * 81)
    assert q_cover_check(("P", "a", "b"), 1, Fraction(1, 8))["points"] == 3 * 81
    monkeypatch.setattr(paramgeo, "COVER_MAX_POINTS", 3 * 81 - 1)
    with pytest.raises(DomainError, match="243 grid points"):
        q_cover_check(("P", "a", "b"), 1, Fraction(1, 8))


# Oracles: the decomposition and the cover audit as they were before the grid
# was walked in whole steps, with R/2 formed explicitly and the chain grown
# by a max/min rescan.  For an int R the old in_region forms R/2 as a float,
# which is exact for the small R drawn below.

def _oracle_decompose(sigma, pinned, big_r, x):
    sigma = face(sigma)
    if pinned not in sigma:
        raise DomainError(f"{pinned!r} is not a vertex of {sigma}")
    rest = [v for v in sigma if v != pinned]
    if set(x) != set(rest):
        raise DomainError(f"cube point indexed by {sorted(x)}, want {rest}")
    half = Fraction(big_r, 2) if isinstance(big_r, (int, Fraction)) else big_r / 2
    for v, xv in x.items():
        if not 0 <= _as_number(xv) <= _as_number(big_r):
            raise DomainError(f"coordinate {v}={xv} outside [0, {big_r}]")
    tau = face([pinned] + [v for v in rest if _as_number(x[v]) >= _as_number(half)])
    chain = [tau]
    while len(chain[-1]) < len(sigma):
        remaining = [v for v in sigma if v not in chain[-1]]
        top = max(_as_number(x[v]) for v in remaining)
        best = min(v for v in remaining if _as_number(x[v]) == top)
        chain.append(chain[-1].joined(best))
    return tau, tuple(chain)


def _oracle_in_region(sigma, pinned, tau, s, big_r, x):
    sigma = face(sigma)
    tau = face(tau)
    s = face_chain(s)
    half = _as_number(big_r) / 2
    for v in tau:
        if v != pinned and not half <= _as_number(x[v]) <= _as_number(big_r):
            return False
    values = [_as_number(x[v]) for v in _added_vertices(s)]
    if any(v > half for v in values):
        return False
    return all(a >= b for a, b in zip(values, values[1:]))


def _oracle_cover(sigma, big_r, step):
    sigma = face(sigma)
    big_r = Fraction(big_r)
    step = Fraction(step)
    ticks = [step * i for i in range(int(big_r / step) + 1)]
    total = 0
    uncovered = []
    per_pinned = {}
    for pinned in sigma:
        rest = [v for v in sigma if v != pinned]
        count = 0
        for combo in itertools.product(ticks, repeat=len(rest)):
            x = dict(zip(rest, combo))
            tau, s = _oracle_decompose(sigma, pinned, big_r, x)
            total += 1
            count += 1
            if not _oracle_in_region(sigma, pinned, tau, s, big_r, x):
                uncovered.append((pinned, dict(x)))
        per_pinned[pinned] = count
    return {
        "sigma": list(sigma),
        "R": str(big_r),
        "step": str(step),
        "points": total,
        "uncovered": len(uncovered),
        "uncovered_points": [
            {"pinned": p, "x": {k: str(v) for k, v in pt.items()}} for p, pt in uncovered[:10]
        ],
        "per_pinned": {str(p): c for p, c in per_pinned.items()},
    }


def _outcome(fn, *args):
    try:
        return fn(*args)
    except DomainError as e:
        return ("DomainError", str(e))


@st.composite
def cube_points(draw):
    """A simplex of 1-5 vertices, a pinned vertex, R as an int, a Fraction
    or a float, and a point whose coordinates come from a pool of at most
    three values (so ties are common) that favours 0, R/2 and R; now and
    then a coordinate leaves [0, R]."""
    sigma = tuple("PQRST"[: draw(st.integers(1, 5))])
    pinned = draw(st.sampled_from(sigma))
    kind = draw(st.sampled_from(("int", "fraction", "float")))
    num = draw(st.integers(1, 12))
    den = 1 if kind == "int" else draw(st.sampled_from((1, 2, 3, 4)))
    big = Fraction(num, den)
    unit = st.one_of(
        st.sampled_from((Fraction(0), Fraction(1, 2), Fraction(1))),
        st.builds(Fraction, st.integers(0, 8), st.integers(1, 8)).filter(lambda u: u <= 1),
        st.sampled_from((Fraction(-1, 4), Fraction(5, 4))),
    )
    pool = draw(st.lists(unit, min_size=1, max_size=3))
    coords = [big * draw(st.sampled_from(pool)) for _ in range(len(sigma) - 1)]
    if kind == "int":
        big_r = num
    elif kind == "fraction":
        big_r = big
    else:
        big_r = float(big)
        coords = [draw(st.sampled_from((c, float(c)))) for c in coords]
    x = dict(zip([v for v in sigma if v != pinned], coords))
    return sigma, pinned, big_r, x


@settings(max_examples=400, deadline=None)
@given(cube_points())
def test_decompose_and_in_region_match_oracle(case):
    sigma, pinned, big_r, x = case
    got = _outcome(decompose_cube_point, sigma, pinned, big_r, x)
    assert got == _outcome(_oracle_decompose, sigma, pinned, big_r, x)
    if all(0 <= _as_number(v) <= _as_number(big_r) for v in x.values()):
        for tau, s in enumerate_pieces(sigma, pinned):
            want = _oracle_in_region(sigma, pinned, tau, s, big_r, x)
            assert in_region(sigma, pinned, tau, s, big_r, x) == want, (tau, s)


@pytest.mark.parametrize("sigma,big_r,step", [
    (("P", "a", "b", "c"), 1, Fraction(1, 4)),
    (("P", "a", "b", "c", "d"), 1, Fraction(1, 4)),
    (("P", "a", "b"), 1, Fraction(1, 8)),
    (("P", "a", "b", "c"), 1, Fraction(1, 8)),
    (("P", "a", "b", "c"), Fraction(3, 2), Fraction(1, 4)),
])
def test_cover_report_matches_oracle(sigma, big_r, step):
    assert q_cover_check(sigma, big_r, step) == _oracle_cover(sigma, big_r, step)


def test_cover_reports_uncovered_points_in_r_units(monkeypatch):
    # reject every point whose coordinate a sits at R/4, whatever the units
    def fake(pinned, tau, added, xs, big):
        return not ("a" in xs and 4 * xs["a"] == big)

    monkeypatch.setattr(paramgeo, "_in_region", fake)
    report = q_cover_check(("P", "a", "b"), 1, Fraction(1, 4))
    ticks = ["0", "1/4", "1/2", "3/4", "1"]
    assert report["uncovered"] == 10
    assert report["uncovered_points"] == (
        [{"pinned": "P", "x": {"a": "1/4", "b": t}} for t in ticks]
        + [{"pinned": "b", "x": {"P": t, "a": "1/4"}} for t in ticks]
    )


def test_extreme_corners_have_extreme_faces():
    sigma = ("P", "a", "b", "c")
    tau0, _ = decompose_cube_point(sigma, "P", 1, {"a": 0, "b": 0, "c": 0})
    tau1, _ = decompose_cube_point(sigma, "P", 1, {"a": 1, "b": 1, "c": 1})
    assert tau0 == ("P",) and tau1 == sigma
    # mixed corners are covered too, by their own face
    tau, s = decompose_cube_point(sigma, "P", 1, {"a": 1, "b": 0, "c": 1})
    assert in_region(sigma, "P", tau, s, 1, {"a": 1, "b": 0, "c": 1})


# -- vanishing predicate ---------------------------------------------------------------------

def test_vanishing_data_nonpositive_excess():
    a = WeightFunction.dyadic()
    model = CurvatureModel(kappa_norm_sup=0, c1_square=4)
    data = vanishing_data(("A", "B"), a, model)
    assert data["c_value"] == -4
    assert data["r_bar"] == 0 and data["r_max"] == 0


def test_vanishing_data_worked_example():
    a = WeightFunction.constant_on_higher(Fraction(1, 2))
    model = CurvatureModel(kappa_norm_sup=Fraction(10), c1_square=4)
    data = vanishing_data(("A", "B", "C"), a, model)
    assert data["c_value"] == 6
    assert data["lambda_min"] == Fraction(1, 2)
    assert data["r_bar"] == 12


def test_vanishing_data_max_over_faces_enumerated():
    a = WeightFunction.dyadic()
    model = CurvatureModel(kappa_norm_sup=Fraction(7), c1_square=2)
    sigma = ("A", "B", "C", "D")
    data = vanishing_data(sigma, a, model)
    per_face = data["per_face_r_bar"]
    assert set(per_face) == set(all_faces(sigma))
    assert data["r_max"] == max(per_face.values())
    # dyadic weights make the top face the extreme one
    assert data["r_max"] == per_face[sigma]


def test_vanishing_certificate_toy_model():
    rng = random.Random(21)
    sigma = ("A", "B", "C")
    a = WeightFunction.constant_on_higher(Fraction(1, 2))
    model = CurvatureModel(kappa_norm_sup=Fraction(10), c1_square=4)
    data = vanishing_data(sigma, a, model)
    samples = sample_ext_boundary(sigma, data["r_bar"], 250, rng)
    vertex_data = {v: (0, 2) for v in sigma}
    cert = vanishing_certificate(sigma, a, model, data["r_bar"], samples, vertex_data)
    assert cert.certified
    assert cert.min_margin > 0
    # the coarse bound: some stretch reaches R, so some segment has length
    # at least lambda * (2R + 3) >= (1/2) * 27
    assert cert.min_margin >= Fraction(27, 2) - 6


def test_vanishing_certificate_zero_excess_margin_is_total():
    rng = random.Random(22)
    sigma = ("A", "B")
    a = WeightFunction.one()
    model = CurvatureModel(kappa_norm_sup=4, c1_square=4)
    samples = sample_ext_boundary(sigma, Fraction(3), 50, rng)
    cert = vanishing_certificate(sigma, a, model, Fraction(3), samples, {v: (0, 2) for v in sigma})
    assert cert.certified
    for (s, chains, weights, r), margin in zip(samples, cert.margins):
        lam = lambda_of(chains, weights, a)
        assert margin == sum(cylinder_length(lam, rv) for rv in r.values())


def test_vanishing_certificate_refuses_small_r():
    rng = random.Random(23)
    sigma = ("A", "B")
    a = WeightFunction.constant_on_higher(Fraction(1, 2))
    model = CurvatureModel(kappa_norm_sup=Fraction(10), c1_square=4)
    samples = sample_ext_boundary(sigma, 5, 5, rng)
    with pytest.raises(DomainError, match="refusing"):
        vanishing_certificate(sigma, a, model, 5, samples, {v: (0, 2) for v in sigma})


def test_vanishing_certificate_vertex_condition():
    rng = random.Random(24)
    sigma = ("A", "B")
    a = WeightFunction.one()
    model = CurvatureModel(kappa_norm_sup=0, c1_square=0)
    samples = sample_ext_boundary(sigma, 1, 5, rng)
    # chi- = 2 with pairing 2 fails chi^2 + 1 <= pairing^2
    with pytest.raises(DomainError, match="chi"):
        vanishing_certificate(sigma, a, model, 1, samples, {"A": (2, 2), "B": (0, 2)})


def test_samples_live_on_exterior_boundary():
    rng = random.Random(25)
    for s, chains, weights, r in sample_ext_boundary(("A", "B", "C"), Fraction(2), 100, rng):
        assert any(rv == 2 for rv in r.values())
        assert set(r) == set(s[0])


# -- selftest ----------------------------------------------------------------------------------

def test_selftest_passes_and_is_deterministic():
    rep1 = selftest(seed=5, max_dim=2)
    rep2 = selftest(seed=5, max_dim=2)
    assert rep1["ok"]
    assert json.dumps(rep1, sort_keys=True) == json.dumps(rep2, sort_keys=True)


def test_selftest_printed_warp():
    rep = selftest(seed=1, warp=WARP_PRINTED, max_dim=2)
    assert rep["ok"]
