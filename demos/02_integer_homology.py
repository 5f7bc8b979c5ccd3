"""Integer chain algebra, certified Smith normal forms, and fillings.

Everything runs on exact integers: boundary and coboundary operators, a
Smith normal form with its unimodular transforms returned for audit,
homology by sparse elimination with +-1 pivots followed by a Smith normal
form of the small residual, and the two filling algorithms that trivialize
cycles under a cone vertex or transport them to a parallel copy.
"""

import random

from surfcomplex import (
    Chain,
    Cochain,
    SimplicialComplex,
    barycentric_subdivision,
    coboundary,
    cone_fill,
    evaluate,
    flag_complex,
    prism_fill,
    simplex_complex,
    smith_normal_form,
)

# Boundary of an oriented edge, and the chain-complex identity.
z = Chain.from_oriented(1, [(("a", "b"), 1)])
print("boundary of <a,b>:", z.boundary())
tri = Chain.from_oriented(2, [(("a", "b", "c"), 1)])
print("boundary^2 of a triangle is zero:", tri.boundary().boundary().is_zero())

# Coboundary is the adjoint of the boundary.
K = simplex_complex(("a", "b", "c"))
c = Cochain(0, {("a",): 3, ("b",): 5})
print("<dc, <a,b>> =", evaluate(coboundary(K, c), z), " (= c(b) - c(a))")

# Smith normal form with certificates.
mat = [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]
res = smith_normal_form(mat)
print("\ndivisors of the classic 3x3 example:", res.divisors)
print("u @ a @ v reproduces the diagonal:", res.check(mat))

# Homology of the six-vertex projective plane: torsion appears.
rp2 = SimplicialComplex([
    (0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 3, 5),
    (1, 2, 3), (1, 2, 5), (1, 3, 4), (2, 4, 5), (3, 4, 5),
])
for n in range(3):
    print(f"projective plane H_{n}:", rp2.homology(n))

# Barycentric subdivision bookkeeping.
bd = barycentric_subdivision(simplex_complex(("x", "y", "z")))
print("\nsubdivided triangle:",
      len(bd.simplices(0)), "vertices,",
      len(bd.simplices(1)), "edges,",
      len(bd.simplices(2)), "triangles")

# Cone filling: a cycle below a joinable vertex bounds explicitly.
square = flag_complex("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")], 1)
cycle = Chain.from_oriented(
    1, [(("a", "b"), 1), (("b", "c"), 1), (("c", "d"), 1), (("d", "a"), 1)]
)
coned = SimplicialComplex(
    list(square.simplices()) + [s.joined("apex") for s in square.simplices()]
)
w = cone_fill(coned, cycle, "apex")
print("\ncone filling has boundary equal to the cycle:", w.boundary() == cycle)

# Prism filling: replacing a vertex by a parallel copy does not change the
# homology class, and the difference bounds an explicit prism chain.
edges = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"),
         ("p", "a"), ("p", "b"), ("p", "d")]
K2 = flag_complex(["a", "b", "c", "d", "p"], edges, 2)
replaced, prism = prism_fill(K2, cycle, "a", "p")
print("prism filling: boundary(w) == z - z' :", prism.boundary() == cycle - replaced)

# Randomized spot check, the same way the test suite audits these.
rng = random.Random(0)
complexes = 0
while complexes < 5:
    n = rng.randint(4, 6)
    es = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.7]
    base = flag_complex(range(n), es, 3)
    up = base.simplices(2)
    if not up:
        continue
    u = Chain(2, {s: rng.randint(-2, 2) for s in up})
    z = u.boundary()
    if z.is_zero():
        continue
    coned = SimplicialComplex(
        list(base.simplices()) + [s.joined(n) for s in base.simplices()]
    )
    assert cone_fill(coned, z, n).boundary() == z
    complexes += 1
print("five randomized cone fills verified by boundary recomputation")
