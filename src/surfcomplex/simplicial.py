"""Abstract simplicial complexes with exact integer chain algebra.

Vertices are arbitrary hashable, mutually orderable ids (strings, ints,
tuples).  A face is a ``Simplex``: the tuple of its vertices, strictly
increasing, so it equals, hashes like and orders like that plain tuple.  It
is the one face type of the library; ``paramgeo`` indexes its parameter
families by the same values.  A user-facing oriented simplex is any ordering
of the vertices and is folded onto the canonical order with the sign of the
permutation.  Chains and cochains are finitely supported integer maps keyed
by canonical simplices, so all the algebra below is exact.

The barycentric subdivision of a complex has one vertex per simplex; we use
the sorted vertex tuple itself as the id of that vertex, so a simplex of the
subdivision is a strictly increasing chain of faces, readable directly from
its ids.
"""

from __future__ import annotations

import json
import operator
from functools import partial
from itertools import chain, combinations

from .lattice import json_int
from .snf import rank_and_torsion, solve_columns


class DegreeError(ValueError):
    """Chain/cochain degree does not match the operation's contract."""


class Simplex(tuple):
    """A finite vertex set as its increasing tuple; Simplex(s) is s for a Simplex."""

    __slots__ = ()

    def __new__(cls, vertices):
        if isinstance(vertices, Simplex):
            return vertices
        vs = sorted(vertices)
        for a, b in zip(vs, vs[1:]):
            if a == b:
                raise ValueError(f"repeated vertex {a!r}")
        return tuple.__new__(cls, vs)

    @property
    def vertices(self):
        """The vertices as a plain tuple."""
        return tuple(self)

    @property
    def dim(self):
        return len(self) - 1

    def faces(self):
        """The codimension-1 faces, in vertex-removal order."""
        return [_sorted_simplex(self[:i] + self[i + 1:]) for i in range(len(self))]

    def is_face_of(self, other):
        return set(self) <= set(other)

    def without(self, v):
        return _sorted_simplex(x for x in self if x != v)

    def joined(self, v):
        return Simplex(self + (v,))

    def __repr__(self):
        return f"Simplex{tuple(self)!r}"


# A Simplex from vertices already strictly increasing, skipping the sort.
_sorted_simplex = partial(tuple.__new__, Simplex)


def all_faces(simplex):
    """Every nonempty face of a ``Simplex``: by size, then lexicographically."""
    return [
        _sorted_simplex(c) for k in range(1, len(simplex) + 1) for c in combinations(simplex, k)
    ]


def permutation_sign(seq):
    """Sign of the permutation sorting ``seq``; 0 if entries repeat."""
    n = len(seq)
    seen = set(seq)
    if len(seen) != n:
        return 0
    inversions = 0
    for i in range(n):
        for j in range(i + 1, n):
            if seq[i] > seq[j]:
                inversions += 1
    return -1 if inversions % 2 else 1


def oriented(vertices):
    """Canonicalize an ordered vertex list to ``(Simplex, sign)``."""
    sign = permutation_sign(list(vertices))
    if sign == 0:
        raise ValueError(f"degenerate oriented simplex {tuple(vertices)!r}")
    return Simplex(vertices), sign


class Chain:
    """Finitely supported integer combination of n-simplices."""

    def __init__(self, degree, terms=None):
        self.degree = operator.index(degree)
        self.terms = {}
        if terms:
            for s, c in dict(terms).items():
                s = Simplex(s)
                if s.dim != self.degree:
                    raise DegreeError(f"{s} has dimension {s.dim}, chain degree {self.degree}")
                self.terms[s] = self.terms.get(s, 0) + operator.index(c)
            self.terms = {s: c for s, c in self.terms.items() if c}

    @classmethod
    def from_oriented(cls, degree, oriented_terms):
        """Build from ``(vertex-tuple, coeff)`` pairs in arbitrary vertex order."""
        terms = {}
        for verts, c in oriented_terms:
            s, sign = oriented(verts)
            terms[s] = terms.get(s, 0) + sign * operator.index(c)
        return cls(degree, terms)

    def coefficient(self, simplex):
        return self.terms.get(Simplex(simplex), 0)

    def is_zero(self):
        return not self.terms

    def support(self):
        return set(self.terms)

    def __add__(self, other):
        if self.degree != other.degree:
            raise DegreeError("adding chains of different degree")
        out = dict(self.terms)
        for s, c in other.terms.items():
            out[s] = out.get(s, 0) + c
        return Chain(self.degree, out)

    def __neg__(self):
        return Chain(self.degree, {s: -c for s, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rmul__(self, k):
        return Chain(self.degree, {s: operator.index(k) * c for s, c in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, Chain) and self.degree == other.degree and self.terms == other.terms

    def __len__(self):
        return len(self.terms)

    def __repr__(self):
        if not self.terms:
            return f"Chain({self.degree}, 0)"
        bits = " + ".join(f"{c}*{s.vertices}" for s, c in sorted(self.terms.items()))
        return f"Chain({self.degree}, {bits})"

    def boundary(self):
        """Alternating-sign sum of codimension-1 faces, extended linearly."""
        if self.degree == 0:
            return Chain(-1)
        out = {}
        for s, c in self.terms.items():
            for i, f in enumerate(s.faces()):
                sign = -1 if i % 2 else 1
                out[f] = out.get(f, 0) + sign * c
        return Chain(self.degree - 1, out)


def boundary(chain):
    return chain.boundary()


class Cochain:
    """Integer-valued function on n-simplices, finitely supported."""

    def __init__(self, degree, values=None):
        self.degree = operator.index(degree)
        self.values = {}
        if values:
            for s, c in dict(values).items():
                s = Simplex(s)
                if s.dim != self.degree:
                    raise DegreeError(f"{s} has dimension {s.dim}, cochain degree {self.degree}")
                c = operator.index(c)
                if c:
                    self.values[s] = c

    def __call__(self, simplex):
        return self.values.get(Simplex(simplex), 0)

    def __add__(self, other):
        if self.degree != other.degree:
            raise DegreeError("adding cochains of different degree")
        out = dict(self.values)
        for s, c in other.values.items():
            out[s] = out.get(s, 0) + c
        return Cochain(self.degree, out)

    def __eq__(self, other):
        return (
            isinstance(other, Cochain)
            and self.degree == other.degree
            and self.values == other.values
        )


def evaluate(cochain, chain):
    """The pairing <cochain, chain>; degrees must match."""
    if cochain.degree != chain.degree:
        raise DegreeError(f"pairing degree {cochain.degree} cochain with degree {chain.degree} chain")
    return sum(c * cochain.values.get(s, 0) for s, c in chain.terms.items())


def coboundary(complex_, cochain):
    """The adjoint of the boundary within a complex.

    Characterized by <coboundary(c), z> == <c, boundary(z)> for every chain
    z supported in the complex.
    """
    out = {}
    for s in complex_.simplices(cochain.degree + 1):
        val = 0
        for i, f in enumerate(s.faces()):
            val += (-1 if i % 2 else 1) * cochain.values.get(f, 0)
        if val:
            out[s] = val
    return Cochain(cochain.degree + 1, out)


class SimplicialComplex:
    """A downward-closed set of simplices, indexed by dimension.  The input
    is bucketed by dimension and closed in one pass from the top down: each
    level adds its facets to the level below.  :func:`flag_complex` and
    :func:`full_subcomplex` fill the levels of an empty complex directly,
    since what they emit is closed already."""

    def __init__(self, simplices=()):
        by_dim = {}
        for s in map(Simplex, simplices):
            by_dim.setdefault(len(s) - 1, set()).add(s)
        for n in range(max(by_dim, default=0), 0, -1):
            facets = chain.from_iterable(combinations(s, n) for s in by_dim[n])
            by_dim.setdefault(n - 1, set()).update(map(_sorted_simplex, facets))
        self._by_dim = by_dim

    @property
    def dim(self):
        return max(self._by_dim) if self._by_dim else -1

    def simplices(self, n=None):
        if n is None:
            return sorted(s for level in self._by_dim.values() for s in level)
        return sorted(self._by_dim.get(n, ()))

    def vertices(self):
        return [s[0] for s in self.simplices(0)]

    def __contains__(self, s):
        s = Simplex(s)
        return s in self._by_dim.get(s.dim, ())

    def __len__(self):
        return sum(len(level) for level in self._by_dim.values())

    def __eq__(self, other):
        return isinstance(other, SimplicialComplex) and self._by_dim == other._by_dim

    def euler_characteristic(self):
        return sum((-1) ** n * len(level) for n, level in self._by_dim.items())

    def boundary_columns(self, n):
        """The degree-n boundary map as ``{row: sign}`` columns, one per sorted
        n-simplex; rows index the sorted (n-1)-simplices.  Empty in degree 0.
        """
        cols = self.simplices(n)
        if n <= 0:
            return [{} for _ in cols]
        index = {s: i for i, s in enumerate(self.simplices(n - 1))}
        return [
            {index[f]: -1 if i % 2 else 1 for i, f in enumerate(s.faces())} for s in cols
        ]

    def boundary_matrix(self, n):
        """Dense view of :meth:`boundary_columns`: rows are the (n-1)-simplices,
        columns the n-simplices.
        """
        cols = self.boundary_columns(n)
        return [[c.get(i, 0) for c in cols] for i in range(len(self._by_dim.get(n - 1, ())))]

    def homology(self, n):
        """Integral homology in degree n as ``(betti, torsion divisors)``.

        Betti = #n-simplices - rank d_n - rank d_{n+1}; torsion = the divisors
        > 1 of d_{n+1}.  :func:`~surfcomplex.snf.rank_and_torsion` eliminates
        the sparse boundary columns with +-1 pivots and takes the Smith normal
        form of the residual only; exact, since the Smith form of the whole is
        the identity on the unit pivots plus that of the residual.
        Betti/torsion are relative to this finite complex only.
        """
        if n < 0:
            raise ValueError("negative degree")
        cn = len(self._by_dim.get(n, ()))
        if cn == 0:
            return 0, []
        rank_n, _ = rank_and_torsion(self.boundary_columns(n))
        rank_up, torsion = rank_and_torsion(self.boundary_columns(n + 1))
        return cn - rank_n - rank_up, torsion

    def reduced_betti(self, n):
        betti, _ = self.homology(n)
        if n == 0 and self._by_dim.get(0):
            return betti - 1
        return betti


class ComplexTooLarge(ValueError):
    """A flag complex would hold more than FLAG_MAX_SIMPLICES simplices."""


# the most simplices flag_complex builds; ex46 k=80 at max_dim 2 has 670,080
FLAG_MAX_SIMPLICES = 1_000_000


def flag_complex(vertex_ids, disjoint_pairs, max_dim):
    """The clique complex of a symmetric irreflexive relation, truncated.

    Simplices are exactly the cliques of the relation with at most
    ``max_dim + 1`` vertices.  The truncation is mandatory: ambient
    complexes are unbounded in principle.  Each clique is emitted once,
    sorted, grown from the common neighbours above its last vertex
    (incremental expansion, Zomorodian 2010), straight into its level:
    every face of a clique is a clique, so the levels are closed by
    construction and there is no closure pass.  Each expansion counts the
    cliques it is about to emit; once the count passes FLAG_MAX_SIMPLICES
    it raises ``ComplexTooLarge``.
    """
    if max_dim < 0:
        raise ValueError("max_dim must be >= 0")
    vertex_ids = sorted(set(vertex_ids))
    adj = {v: set() for v in vertex_ids}
    for a, b in disjoint_pairs:
        if a == b:
            raise ValueError(f"relation pairs {a!r} with itself")
        if a in adj and b in adj:
            adj[a].add(b)
            adj[b].add(a)

    complex_ = SimplicialComplex()
    count = 0
    # a stack, not a recursive closure, whose reference cycle would hold
    # each built complex until the cyclic collector runs
    expansions = [((), vertex_ids)]
    while expansions:
        clique, above = expansions.pop()
        if not above:
            continue
        count += len(above)
        if count > FLAG_MAX_SIMPLICES:
            raise ComplexTooLarge(f"flag complex exceeds {FLAG_MAX_SIMPLICES} simplices at max_dim {max_dim}")
        level = complex_._by_dim.setdefault(len(clique), set())
        for i, v in enumerate(above):
            bigger = clique + (v,)
            level.add(_sorted_simplex(bigger))
            if len(bigger) <= max_dim:
                expansions.append((bigger, [u for u in above[i + 1:] if u in adj[v]]))
    return complex_


def full_subcomplex(complex_, vertex_subset):
    """Simplices of ``complex_`` all of whose vertices lie in the subset."""
    keep = set(vertex_subset)
    unknown = [v for v in keep if (v,) not in complex_]
    if unknown:
        raise ValueError(f"vertices not in complex: {sorted(map(repr, unknown))}")
    sub = SimplicialComplex()
    for n, level in complex_._by_dim.items():
        kept = {s for s in level if keep.issuperset(s)}
        if kept:
            sub._by_dim[n] = kept
    return sub


def simplex_complex(vertices):
    """The full simplex on the given vertices, as a complex."""
    return SimplicialComplex([Simplex(vertices)])


# -- barycentric subdivision ------------------------------------------------
#
# Subdivision vertices are the sorted vertex tuples of the original
# simplices; a subdivision simplex is a set of tuples totally ordered by
# strict inclusion.

def barycentric_subdivision(complex_):
    chains = []

    def extend(chain):
        chains.append(chain)
        for f in all_faces(chain[0])[:-1]:
            extend((f.vertices,) + chain)

    for s in complex_.simplices():
        extend((s.vertices,))
    return SimplicialComplex(Simplex(c) for c in chains)


def chain_simin(faces):
    """Smallest face in an inclusion chain, such as a subdivision simplex."""
    return min(faces, key=len)


def chain_simax(faces):
    """Largest face in an inclusion chain, such as a subdivision simplex."""
    return max(faces, key=len)


# -- filling algorithms -----------------------------------------------------

class FillError(ValueError):
    """A filling precondition failed (not a cycle, or not joinable)."""


def cone_fill(complex_, cycle, apex):
    """A chain w with boundary exactly ``cycle``, coned off at ``apex``.

    Requires the apex to be joinable to every simplex in the support (the
    joined simplex must belong to the complex) and the input to be a cycle.
    In degree 0 the coefficients must additionally sum to zero, since only
    reduced 0-cycles bound.
    """
    n = cycle.degree
    if n < 0:
        raise FillError("cannot fill in negative degree")
    if not cycle.boundary().is_zero():
        raise FillError("input chain is not a cycle")
    if n == 0 and sum(cycle.terms.values()) != 0:
        raise FillError("0-chain coefficients must sum to zero to bound")
    terms = {}
    for s, c in cycle.terms.items():
        if apex in s:
            raise FillError(f"apex {apex!r} already lies in {s}")
        joined = s.joined(apex)
        if joined not in complex_:
            raise FillError(f"apex {apex!r} is not joinable to {s}")
        # <apex, v_0, ..., v_n> folded onto the canonical vertex order
        _, sign = oriented((apex,) + s)
        terms[joined] = terms.get(joined, 0) + sign * c
    return Chain(n + 1, terms)


def prism_fill(complex_, cycle, vertex, copy_vertex):
    """Replace ``vertex`` by ``copy_vertex`` in a cycle, with explicit filling.

    Returns ``(replaced_cycle, w)`` where the boundary of w equals
    ``cycle - replaced_cycle`` exactly.  The copy must be joinable to every
    support simplex containing ``vertex`` and absent from the support.
    """
    n = cycle.degree
    if not cycle.boundary().is_zero():
        raise FillError("input chain is not a cycle")
    replaced = {}
    w = {}
    for s, c in cycle.terms.items():
        if copy_vertex in s:
            raise FillError(f"copy vertex {copy_vertex!r} already lies in {s}")
        if vertex not in s:
            replaced[s] = replaced.get(s, 0) + c
            continue
        rest = s.without(vertex)
        target = rest.joined(copy_vertex)
        prism = s.joined(copy_vertex)
        if target not in complex_ or prism not in complex_:
            raise FillError(f"copy vertex {copy_vertex!r} is not joinable to {s}")
        # orientation with the replaced vertex pulled to the front
        _, front_sign = oriented((vertex,) + rest)
        _, target_sign = oriented((copy_vertex,) + rest)
        replaced[target] = replaced.get(target, 0) + front_sign * target_sign * c
        _, prism_sign = oriented((copy_vertex, vertex) + rest)
        w[prism] = w.get(prism, 0) + front_sign * prism_sign * c
    return Chain(n, replaced), Chain(n + 1, w)


def solve_boundary(candidates, target):
    """Integer coefficients on ``candidates`` whose boundary is ``target``.

    ``candidates`` is a list of simplices one degree above the target chain.
    Their boundaries go to :func:`~surfcomplex.snf.solve_columns` as sparse
    columns, one row per face; no dense matrix is built.  Returns a Chain,
    or None when no integer solution exists.
    """
    candidates = [Simplex(s) for s in candidates]
    if not candidates:
        return Chain(target.degree + 1) if target.is_zero() else None
    degree = candidates[0].dim
    if any(s.dim != degree for s in candidates):
        raise DegreeError("candidate simplices of mixed dimension")
    if degree != target.degree + 1:
        raise DegreeError("candidates must sit one degree above the target")
    index = {f: i for i, f in enumerate(sorted({f for s in candidates for f in s.faces()}))}
    if not target.support() <= index.keys():
        return None
    columns = [{index[f]: -1 if i % 2 else 1 for i, f in enumerate(s.faces())} for s in candidates]
    sol = solve_columns(columns, {index[s]: c for s, c in target.terms.items()})
    if sol is None:
        return None
    return Chain(degree, {candidates[j]: c for j, c in sol.items()})


# -- JSON forms ---------------------------------------------------------------

def _vertex_to_json(v):
    if isinstance(v, tuple):
        return [_vertex_to_json(x) for x in v]
    return v


def _vertex_from_json(v):
    if isinstance(v, list):
        return tuple(_vertex_from_json(x) for x in v)
    return v


def complex_to_json(complex_):
    """``{"simplices": [...]}``, each vertex converted once, from level 0."""
    form = {v: _vertex_to_json(v) for (v,) in complex_._by_dim.get(0, ())}
    return {"simplices": [[form[v] for v in s] for s in complex_.simplices()]}


def complex_from_json(doc):
    return SimplicialComplex(
        Simplex(tuple(_vertex_from_json(v) for v in verts)) for verts in doc["simplices"]
    )


def chain_to_json(chain):
    return {
        "deg": chain.degree,
        "terms": [
            {"simplex": [_vertex_to_json(v) for v in s], "coeff": c}
            for s, c in sorted(chain.terms.items())
        ],
    }


def chain_from_json(doc):
    return Chain(
        json_int(doc["deg"]),
        {
            Simplex(tuple(_vertex_from_json(v) for v in t["simplex"])): json_int(t["coeff"])
            for t in doc["terms"]
        },
    )


def dumps(doc):
    """Canonical JSON text: sorted keys, no whitespace jitter."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))
