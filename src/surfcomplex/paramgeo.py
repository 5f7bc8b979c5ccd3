"""Geometry of the metric-stretching parameter space.

A simplex sigma of the ambient complex indexes a family of metrics obtained
by stretching tubular neighborhoods of its member surfaces.  This module
makes the combinatorial skeleton of that family computable:

* smooth cut-off ramps with a fixed convention, so all derived lengths are
  reproducible numbers;
* weight functions a(.) on faces, the scale parameter lambda as a weighted
  sum over nested chains, and its exact minimum over a simplex, which is
  the minimum of a over the faces of the simplex;
* warped cylinder lengths, in closed form and by quadrature;
* symbolic metric descriptors listing the stretched cylinder segments;
* the piecewise homeomorphism between the stretch-domain boundary and the
  exterior half of a cube, with its inverse and a coverage checker for the
  cube decomposition;
* the quantitative vanishing predicate: with curvature data for the
  unstretched family, points stretched beyond a computable threshold
  certify that the solution-existence estimate fails, with an exact margin.

Faces of sigma are ``simplicial.Simplex`` values, the sorted tuples of
their vertex ids, so the faces that index a family are the simplices of the
ambient complex.  Chains of faces are tuples sorted by length, and chains of
chains likewise.  Rational inputs stay rational throughout; only the cut-off
itself is floating point.

The cube side compares integers.  Its predicates compare coordinates with
each other, with 0, with R and with R/2 (as 2x against R), and every value
it returns is such a difference divided by R, by the common denominator or
by 2.  Scaling every input by one positive factor keeps each comparison, so
a call puts its coordinates, R, and the weights and stretches it is given
over their least common denominator D, compares the integer numerators and
builds each output once as a ``Fraction``.  A float among the inputs keeps
D = 1 and every value as it is.  The psi maps are therefore exact on all
rational input, an int R included, and ``q_cover_check`` walks its grid in
whole steps by the same argument.  One reader serves every cube point: it
requires R > 0 and a point indexed by exactly sigma minus the pinned
vertex, and raises ``DomainError`` otherwise, but leaves [0, R] to its
callers; the psi maps refuse R <= 0 with the same error.  One predicate
decides whether a point lies in the region of a piece, by comparing
values, never by testing a difference against 0: with a float among the
inputs a difference can round to 0 and lose its sign.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product as iter_product

from . import simplicial
from .simplicial import Simplex, chain_simax, chain_simin


class DomainError(ValueError):
    """A point lies outside the operation's stated domain."""


WARP_CLAIMED = "claimed"
WARP_PRINTED = "printed"
WARPS = (WARP_CLAIMED, WARP_PRINTED)


# -- cut-off convention -------------------------------------------------------

def _bump(t):
    return math.exp(-1.0 / t) if t > 0 else 0.0


def rho0(t):
    """The reference ramp: 0 at 0, 1 at 1, with rho0(t) + rho0(1-t) = 1."""
    t = float(t)
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"rho0 needs t in [0, 1], got {t}")
    a = _bump(t)
    b = _bump(1.0 - t)
    return a / (a + b)


def cutoff(a, b, a1, b1, t):
    """The cut-off on ([a, b], [a1, b1]): 1 on the inner interval, ramping
    to 0 at the outer endpoints through affine reparametrizations of rho0.
    """
    a, b, a1, b1, t = map(float, (a, b, a1, b1, t))
    if not a < a1 < b1 < b:
        raise DomainError(f"need a < a' < b' < b, got {a} < {a1} < {b1} < {b}")
    if not a <= t <= b:
        raise DomainError(f"cutoff needs t in [{a}, {b}], got {t}")
    if t < a1:
        return rho0((t - a) / (a1 - a))
    if t <= b1:
        return 1.0
    return rho0((b - t) / (b - b1))


def stretch_profile(lam, t):
    """The ramp used on a stretched segment: supported on [2l, 5l], flat on
    [3l, 4l]."""
    return cutoff(2 * lam, 5 * lam, 3 * lam, 4 * lam, t)


# -- faces, chains, weights ---------------------------------------------------

def face(ids):
    """The ``Simplex`` on ``ids``, which must be nonempty and distinct."""
    try:
        f = Simplex(ids)
    except ValueError as e:
        raise DomainError(f"repeated vertex in face {ids!r}") from e
    if not f:
        raise DomainError("faces are nonempty")
    return f


def _strict_chain(items, what):
    seq = tuple(sorted(items, key=len))
    sets = [set(x) for x in seq]
    if not all(x < y for x, y in zip(sets, sets[1:])):
        # name the first bad pair in (size, value) order
        seq = sorted(seq, key=lambda x: (len(x), x))
        x, y = next((x, y) for x, y in zip(seq, seq[1:]) if not set(x) < set(y))
        raise DomainError(f"not a strict chain of {what}: {x} then {y}")
    if not seq:
        raise DomainError("chains are nonempty")
    return seq


def face_chain(faces):
    """Normalize a strictly increasing chain of faces, shortest first."""
    return _strict_chain((face(f) for f in faces), "faces")


def nested_chain(chains):
    """A strictly increasing chain of sub-chains (a subdivision simplex of
    a subdivision simplex), shortest first."""
    return _strict_chain((face_chain(c) for c in chains), "chains")


def all_faces(sigma):
    return simplicial.all_faces(face(sigma))


class WeightFunction:
    """A monotone scale assignment on faces: values in (0, 1], equal to 1 on
    vertices, non-increasing as faces grow."""

    def __init__(self, mapping=None, default=None):
        self._map = {face(k): Fraction(v) for k, v in (mapping or {}).items()}
        self._default = default

    @classmethod
    def dyadic(cls):
        """a(face) = 2^-dim, the stock choice: exact and strictly monotone."""
        return cls(default=lambda f: Fraction(1, 2 ** (len(f) - 1)))

    @classmethod
    def constant_on_higher(cls, value):
        """1 on vertices, a fixed value on every larger face."""
        value = Fraction(value)
        if not 0 < value <= 1:
            raise DomainError("weights lie in (0, 1]")
        return cls(default=lambda f: Fraction(1) if len(f) == 1 else value)

    @classmethod
    def one(cls):
        return cls(default=lambda f: Fraction(1))

    def value(self, f):
        f = face(f)
        if f in self._map:
            v = self._map[f]
        elif self._default is not None:
            v = Fraction(self._default(f))
        else:
            raise DomainError(f"no weight assigned to face {f}")
        if not 0 < v <= 1:
            raise DomainError(f"weight {v} for face {f} outside (0, 1]")
        if len(f) == 1 and v != 1:
            raise DomainError(f"vertex faces carry weight 1, got {v} on {f}")
        return v

    def check_monotone(self, sigma):
        """Verify the face condition on every pair of nested faces of sigma.

        Covering pairs (a face and that face minus one vertex) suffice: a
        weight that increases along a nested pair increases at some step of
        a saturated chain between the two faces.
        """
        for big in all_faces(sigma):
            if len(big) == 1:
                continue
            for small in big.faces():
                if self.value(big) > self.value(small):
                    raise DomainError(
                        f"weight increases along {small} < {big}: "
                        f"{self.value(small)} then {self.value(big)}"
                    )
        return True


def lambda_of(chains, weights, a):
    """The scale of a point: sum of t_j * a(largest face of s_j).

    ``chains`` is a nested chain (s_0 < ... < s_l of sub-chains), ``weights``
    the barycentric coordinates.  The result never exceeds a(smallest face
    of any s_j); that bound is re-checked here because everything downstream
    leans on it.
    """
    chains = nested_chain(chains)
    weights = [Fraction(w) if not isinstance(w, float) else w for w in weights]
    if len(weights) != len(chains):
        raise DomainError(f"{len(chains)} chain entries but {len(weights)} weights")
    if any(w < 0 for w in weights):
        raise DomainError("barycentric weights are non-negative")
    total = sum(weights)
    if isinstance(total, Fraction):
        if total != 1:
            raise DomainError(f"barycentric weights sum to {total}, want 1")
    elif abs(total - 1) > 1e-9:
        raise DomainError(f"barycentric weights sum to {total}, want 1")
    lam = sum(w * a.value(chain_simax(s)) for w, s in zip(weights, chains))
    for s in chains:
        bound = a.value(chain_simin(s))
        if lam > bound:
            raise DomainError(
                f"scale {lam} exceeds a({chain_simin(s)}) = {bound}; weights not monotone?"
            )
    return lam


def lambda_min(sigma, a):
    """Exact minimum of the scale over the whole parameter family of sigma.

    The scale is affine in the barycentric weights, so the minimum over a
    subdivision simplex sits at a vertex, i.e. at some single chain of
    faces, whose value is a(largest face of the chain).  That is always a
    face value, and every face f is the largest face of its own one-element
    chain, so the minimum over chains is the minimum of a over the faces of
    sigma.  This holds for any weight function, monotone or not; for a
    monotone one it is a(sigma) itself.
    """
    return min(a.value(f) for f in all_faces(sigma))


# -- warped cylinders ---------------------------------------------------------

def _as_number(x):
    """``x`` itself if it is an int (not a bool), a float or a ``Fraction``."""
    if isinstance(x, bool) or not isinstance(x, (int, float, Fraction)):
        raise DomainError(f"expected a number, got {x!r}")
    return x


def inner_cylinder_length(lam, r, warp=WARP_CLAIMED):
    """Length of the fully stretched middle segment [3l, 4l]."""
    lam, r = _as_number(lam), _as_number(r)
    if warp == WARP_CLAIMED:
        return lam * (r + 1)
    if warp == WARP_PRINTED:
        return float(lam) * math.sqrt(float(r) + 1.0)
    raise DomainError(f"unknown warp convention {warp!r}")


def cylinder_length(lam, r, warp=WARP_CLAIMED):
    """Total length Lambda of the warped segment [2l, 5l].

    Under the claimed convention the speed is (r*profile + 1) and the ramps
    integrate to half their width by the symmetry of rho0, giving the exact
    closed form lam * (2r + 3).  The printed convention takes the speed to
    be sqrt(r*profile + 1) and has no closed form; it is evaluated by
    quadrature.  Either way the total strictly exceeds the inner length
    lam * (r + 1).
    """
    lam, r = _as_number(lam), _as_number(r)
    if lam <= 0:
        raise DomainError(f"scale must be positive, got {lam}")
    if r < 0:
        raise DomainError(f"stretch parameter must be non-negative, got {r}")
    if warp == WARP_CLAIMED:
        return lam * (2 * r + 3)
    if warp == WARP_PRINTED:
        return cylinder_length_quadrature(lam, r, warp)
    raise DomainError(f"unknown warp convention {warp!r}")


def cylinder_length_quadrature(lam, r, warp=WARP_CLAIMED):
    """Independent evaluation of Lambda by adaptive quadrature."""
    # imported here: scipy dominates start-up and nothing else needs it
    from scipy.integrate import quad

    lam_f, r_f = float(lam), float(r)

    if warp == WARP_CLAIMED:
        def speed(t):
            return r_f * stretch_profile(lam_f, t) + 1.0
    elif warp == WARP_PRINTED:
        def speed(t):
            return math.sqrt(r_f * stretch_profile(lam_f, t) + 1.0)
    else:
        raise DomainError(f"unknown warp convention {warp!r}")
    val, _ = quad(
        speed, 2 * lam_f, 5 * lam_f,
        points=[3 * lam_f, 4 * lam_f], epsabs=1e-13, epsrel=1e-13, limit=200,
    )
    return val


# -- metric descriptors -------------------------------------------------------

@dataclass(frozen=True)
class CylinderSegment:
    surface: object
    lam: object
    r: object
    inner_length: object
    total_length: object
    region: tuple

    def to_json(self):
        return {
            "surface": str(self.surface),
            "lambda": float(self.lam),
            "r": float(self.r),
            "inner_length": float(self.inner_length),
            "total_length": float(self.total_length),
            "region": [str(self.region[0]), float(self.region[1]), float(self.region[2])],
        }


@dataclass(frozen=True)
class MetricDescriptor:
    """A convex combination of glued metrics, described symbolically.

    All terms share one scale and one stretch vector; on the cylinder
    region of each surface in the smallest face every term restricts to the
    same warped product metric, which is why the segment list below is
    well-defined for the combination.
    """

    sigma: tuple
    terms: tuple          # (weight, stretched face, lam, r dict)
    lam: object
    r: dict
    warp: str

    def cylinder_segments(self):
        segs = []
        for surface in sorted(self.r):
            rv = self.r[surface]
            segs.append(
                CylinderSegment(
                    surface=surface,
                    lam=self.lam,
                    r=rv,
                    inner_length=inner_cylinder_length(self.lam, rv, self.warp),
                    total_length=cylinder_length(self.lam, rv, self.warp),
                    region=(surface, 2 * self.lam, 5 * self.lam),
                )
            )
        return segs


def metric_descriptor(sigma, s, chains, weights, r, a, warp=WARP_CLAIMED):
    """Descriptor of the metric at a parameter point.

    ``s`` is a chain of faces of sigma, ``chains``/``weights`` a point of
    the subdivision of s, ``r`` the stretch vector indexed by the smallest
    face of s.  Every term stretches a face containing that smallest face,
    with the shared scale, so the per-surface cylinder data is unambiguous.
    """
    sigma = face(sigma)
    s = face_chain(s)
    if not chain_simax(s).is_face_of(sigma):
        raise DomainError(f"{chain_simax(s)} is not a face of {sigma}")
    chains = nested_chain(chains)
    for sub in chains:
        if not set(sub) <= set(s):
            raise DomainError(f"{sub} is not a sub-chain of {s}")
    tau = chain_simin(s)
    if set(r) != set(tau):
        raise DomainError(f"stretch vector indexed by {sorted(r)}, want {tau}")
    for sid, rv in r.items():
        if _as_number(rv) < 0:
            raise DomainError(f"negative stretch {rv} on {sid}")
    lam = lambda_of(chains, weights, a)
    terms = []
    for w, sub in zip(weights, chains):
        stretched = chain_simin(sub)
        if not set(tau) <= set(stretched):
            raise DomainError(f"term face {stretched} misses the stretch face {tau}")
        terms.append((w, stretched, lam, dict(r)))
    return MetricDescriptor(
        sigma=sigma, terms=tuple(terms), lam=lam, r=dict(r), warp=warp
    )


# -- the cube-side decomposition and the piecewise homeomorphism --------------

# the psi tolerances as exact rationals, for comparisons on integer numerators
_TRIP_TOL = Fraction(1e-12)
_SUM_TOL = Fraction(1e-9)


def _common_denominator(values, big_r):
    """The numerators of ``values`` and of R over their least common
    denominator D, and D; a float among them keeps D = 1 and every value as
    it is.  R <= 0 raises ``DomainError``."""
    nums = [_as_number(v) for v in [*values, big_r]]
    d = 1
    if not any(isinstance(v, float) for v in nums):
        d = math.lcm(*[v.denominator for v in nums])
        nums = [v.numerator * (d // v.denominator) for v in nums]
    big = nums.pop()
    if big <= 0:
        raise DomainError(f"R must be positive, got {big_r}")
    return nums, big, d


def _quotient(num, den):
    """num / den, as a ``Fraction`` when both are ints."""
    return Fraction(num, den) if type(num) is int and type(den) is int else num / den


def _cube_point(sigma, pinned, big_r, x):
    """The one reader of a cube point (see the module docstring): the
    numerators of ``x`` and R over their common denominator D, and D.  It
    does not check that the point lies in [0, R]."""
    sigma = face(sigma)
    if pinned not in sigma:
        raise DomainError(f"{pinned!r} is not a vertex of {sigma}")
    rest = [v for v in sigma if v != pinned]
    if set(x) != set(rest):
        raise DomainError(f"cube point indexed by {sorted(x)}, want {rest}")
    nums, big, d = _common_denominator(x.values(), big_r)
    return dict(zip(x, nums)), big, d


def _cube_chain(pinned, x, xs, big, big_r):
    """The piece holding a cube point: tau, the saturated chain from tau to
    sigma, and the vertices that chain adds in order.  ``xs`` holds the
    numerators of the coordinates ``x``, ``big`` that of ``big_r``."""
    high, low = [pinned], []
    for v, xv in x.items():
        if v != pinned:
            if not 0 <= xs[v] <= big:
                raise DomainError(f"coordinate {v}={xv} outside [0, {big_r}]")
            (high if 2 * xs[v] >= big else low).append(v)
    low.sort()
    low.sort(key=xs.__getitem__, reverse=True)  # stable: ties go to the smallest id
    chain = [face(high)]
    for v in low:
        chain.append(chain[-1].joined(v))
    return chain[0], tuple(chain), low


def decompose_cube_point(sigma, pinned, big_r, x):
    """Locate a cube point in the face decomposition.

    Returns (tau, s): tau collects the coordinates within R/2 of R (plus the
    pinned vertex), and s is the saturated chain from tau to sigma obtained
    by repeatedly adjoining the largest remaining coordinate (ties broken
    toward the smallest vertex id, which keeps the choice deterministic;
    any tie choice lands in the same closed region).
    """
    xs, big, _ = _cube_point(sigma, pinned, big_r, x)
    tau, s, _ = _cube_chain(pinned, x, xs, big, big_r)
    return tau, s


def _added_vertices(s):
    """The vertex each step of a saturated chain of faces adds."""
    added = []
    for small, big in zip(s, s[1:]):
        new = set(big) - set(small)
        if len(new) != 1:
            raise DomainError(f"chain must be saturated: it jumps from {small} to {big}")
        added.extend(new)
    return added


def _heights(added, xs, big):
    """The heights (B, 2X_1, ..., 2X_k, 0) along the vertices a piece adds."""
    return [big, *(2 * xs[v] for v in added), 0]


def _in_region(pinned, tau, added, xs, big):
    """The one region predicate, on numerators: B <= 2X_v <= 2B on tau minus
    the pinned vertex, and heights that never increase, compared pairwise
    (never a difference against 0; see the module docstring)."""
    if not all(big <= 2 * xs[v] <= 2 * big for v in tau if v != pinned):
        return False
    h = _heights(added, xs, big)
    return all(a >= b for a, b in zip(h, h[1:]))


def in_region(sigma, pinned, tau, s, big_r, x):
    """Membership of a cube point in the closed region of a piece (tau, s).
    A malformed piece or point, or R <= 0, raises ``DomainError``; a point
    outside the cube is in no region."""
    sigma, s, tau_s, added = _check_piece(sigma, pinned, s)
    if face(tau) != tau_s:
        raise DomainError(f"{face(tau)} is not the smallest face of the chain {s}")
    xs, big, _ = _cube_point(sigma, pinned, big_r, x)
    return _in_region(pinned, tau_s, added, xs, big)


def _check_piece(sigma, pinned, s):
    """Validate a piece: sigma, its chain s, tau and the vertices s adds."""
    sigma = face(sigma)
    s = face_chain(s)
    tau = chain_simin(s)
    if pinned not in tau:
        raise DomainError(f"pinned vertex {pinned!r} not in the smallest face {tau}")
    if chain_simax(s) != sigma:
        raise DomainError(f"chain must end at {sigma}, ends at {chain_simax(s)}")
    return sigma, s, tau, _added_vertices(s)


def psi_forward(sigma, pinned, big_r, s, t, r):
    """Map a boundary parameter point into the exterior cube face.

    The point consists of the saturated chain ``s`` (smallest face tau,
    largest sigma), barycentric weights ``t`` on its entries, and stretch
    values ``r`` on tau with r[pinned] == R.  Coordinates of vertices
    outside tau come from the weights (scaled into [0, R/2]); coordinates
    inside tau are the stretch values mapped affinely onto [R/2, R]; the
    pinned coordinate sits at R.  Exact on rational inputs.
    """
    sigma, s, tau, added = _check_piece(sigma, pinned, s)
    if len(t) != len(s):
        raise DomainError(f"{len(s)} chain entries but {len(t)} weights")
    nums, big, d = _common_denominator([*t, *r.values()], big_r)
    ts, rs = nums[: len(t)], dict(zip(r, nums[len(t):]))
    if any(w < 0 for w in ts):
        raise DomainError("barycentric weights are non-negative")
    # |sum(t) - 1| > 1e-9, multiplied through by D
    if abs(sum(ts) - d) * _SUM_TOL.denominator > _SUM_TOL.numerator * d:
        raise DomainError(f"barycentric weights sum to {sum(t)}, want 1")
    if set(r) != set(tau):
        raise DomainError(f"stretch vector indexed by {sorted(r)}, want {tau}")
    if rs[pinned] != big:
        raise DomainError(f"pinned stretch r[{pinned!r}] = {r[pinned]}, want {big_r}")
    for v, rv in rs.items():
        if not 0 <= rv <= big:
            raise DomainError(f"stretch {v}={r[v]} outside [0, {big_r}]")
    # a vertex outside tau weighs the tail of t from the step that adds it
    weight, weights = 0, {}
    for v, w in zip(reversed(added), reversed(ts)):
        weight += w
        weights[v] = weight
    x = {}
    for v in sigma:
        if v == pinned:
            x[v] = big_r
        elif v in rs:
            x[v] = _quotient(rs[v] + big, 2 * d)
        else:
            x[v] = _quotient(big * weights[v], 2 * d * d)
    return x


def _piece_inverse(pinned, tau, added, xs, big, d, big_r):
    """t and r for a cube point on the piece from tau adding ``added``: with
    the heights h along it, t_j = (h_j - h_{j+1}) / B, and r_v = (2X_v - B) / D
    on tau."""
    h = _heights(added, xs, big)
    t = [_quotient(a - b, big) for a, b in zip(h, h[1:])] if added else [1]
    r = {v: _quotient(2 * xs[v] - big, d) for v in tau if v != pinned}
    r[pinned] = big_r
    return t, r


def psi_inverse_piece(sigma, pinned, big_r, s, x):
    """Invert the forward map on one piece; x omits the pinned coordinate.
    A point outside the region of the piece raises ``DomainError``, as do
    the inputs ``in_region`` refuses."""
    sigma, s, tau, added = _check_piece(sigma, pinned, s)
    xs, big, d = _cube_point(sigma, pinned, big_r, x)
    t, r = _piece_inverse(pinned, tau, added, xs, big, d, big_r)
    if not _in_region(pinned, tau, added, xs, big):
        raise DomainError(f"point not in the region of this piece: weights {t}")
    return t, r


def psi_inverse(sigma, big_r, x):
    """Global inverse on the exterior cube boundary.

    The pinned vertex is the smallest id whose coordinate equals R; the
    piece is recovered by the cube decomposition.  Returns
    (pinned, tau, s, t, r).  Points on piece overlaps go to the canonical
    piece; all pieces agree there.  The piece is built, not searched, so
    its weights need no region check.  Exact on rational input:

    >>> x = {"A": 1, "B": Fraction(1, 3), "C": 0}
    >>> pinned, tau, s, t, r = psi_inverse(("A", "B", "C"), 1, x)
    >>> t
    [Fraction(1, 3), Fraction(2, 3), Fraction(0, 1)]
    >>> psi_forward(("A", "B", "C"), pinned, 1, s, t, r) == x
    True
    """
    sigma = face(sigma)
    if set(x) != set(sigma):
        raise DomainError(f"point indexed by {sorted(x)}, want {sigma}")
    nums, big, d = _common_denominator(x.values(), big_r)
    xs = dict(zip(x, nums))
    # |x_v - R| < 1e-12, multiplied through by D
    tol = _TRIP_TOL.numerator * d
    pinned = next((v for v in sigma if abs(xs[v] - big) * _TRIP_TOL.denominator < tol), None)
    if pinned is None:
        raise DomainError("no coordinate equals R: point is not on the exterior boundary")
    tau, s, added = _cube_chain(pinned, x, xs, big, big_r)
    t, r = _piece_inverse(pinned, tau, added, xs, big, d, big_r)
    return pinned, tau, s, t, r


# the most pieces enumerate_pieces builds; 8 vertices give 13,700
PIECES_MAX = 20_000


def enumerate_pieces(sigma, pinned):
    """All (tau, s) pieces for one pinned vertex: saturated chains from a
    face containing the pinned vertex up to sigma.

    The sum over those faces tau of (len(sigma) - len(tau))! pieces is
    counted first; more than PIECES_MAX raise ``DomainError``.
    """
    sigma = face(sigma)
    if pinned not in sigma:
        raise DomainError(f"{pinned!r} is not a vertex of {sigma}")
    n = len(sigma) - 1
    count = sum(math.comb(n, j) * math.factorial(n - j) for j in range(n + 1))
    if count > PIECES_MAX:
        raise DomainError(f"{count} pieces exceed the limit {PIECES_MAX}")
    out = []
    for tau in all_faces(sigma):
        if pinned not in tau:
            continue
        for order in permutations([v for v in sigma if v not in tau]):
            chain = [tau]
            for v in order:
                chain.append(chain[-1].joined(v))
            out.append((tau, tuple(chain)))
    return out


# the most grid points q_cover_check visits; selftest --max-dim 5 needs 18,750
COVER_MAX_POINTS = 1_000_000


def q_cover_check(sigma, big_r, step):
    """Exhaustive grid audit of the cube decomposition.

    Every grid point of [0, R]^(sigma minus pinned) must fall in the region
    of the piece the decomposition picks, for every choice of pinned vertex.
    ``step`` must divide R exactly.  Returns a report with zero uncovered
    points when the decomposition is correct.

    The grid is walked in whole steps, as integers 0..n with n = R/step
    standing for R, by the scaling argument of the module docstring; sigma
    is validated once and every point is audited by the region predicate of
    ``in_region``.  The ``len(sigma) * (n + 1) ** (len(sigma) - 1)`` points
    are counted first; more than COVER_MAX_POINTS raise ``DomainError``.
    """
    sigma = face(sigma)
    big_r = Fraction(big_r)
    step = Fraction(step)
    if big_r <= 0 or step <= 0 or (big_r / step).denominator != 1:
        raise DomainError(f"step {step} must divide R = {big_r}")
    n = int(big_r / step)
    per_pinned = (n + 1) ** (len(sigma) - 1)
    points = len(sigma) * per_pinned
    if points > COVER_MAX_POINTS:
        raise DomainError(f"cube cover of {points} grid points exceeds the limit {COVER_MAX_POINTS}")
    uncovered = []
    for pinned in sigma:
        rest = [v for v in sigma if v != pinned]
        for combo in iter_product(range(n + 1), repeat=len(rest)):
            x = dict(zip(rest, combo))
            tau, _, added = _cube_chain(pinned, x, x, n, n)
            if not _in_region(pinned, tau, added, x, n):
                uncovered.append((pinned, x))
    return {
        "sigma": list(sigma),
        "R": str(big_r),
        "step": str(step),
        "points": points,
        "uncovered": len(uncovered),
        "uncovered_points": [
            {"pinned": p, "x": {k: str(step * i) for k, i in pt.items()}} for p, pt in uncovered[:10]
        ],
        "per_pinned": {str(p): per_pinned for p in sigma},
    }


# -- the vanishing predicate --------------------------------------------------

@dataclass(frozen=True)
class CurvatureModel:
    """Curvature input for the vanishing estimate.

    ``kappa_norm_sup`` models the largest squared L2 norm of the negative
    scalar curvature over the unstretched family, already divided by
    (4 pi)^2 so that rational toy models stay exact.  ``c1_square`` is the
    self-pairing of the characteristic class.
    """

    kappa_norm_sup: object
    c1_square: int

    def __post_init__(self):
        if _as_number(self.kappa_norm_sup) < 0:
            raise DomainError("curvature sup is non-negative")

    def c_value(self):
        return self.kappa_norm_sup - self.c1_square


def vanishing_data(sigma, a, model):
    """The derived thresholds for a simplex: scale minimum, curvature
    excess, and the stretch bounds (per face and maximized)."""
    sigma = face(sigma)
    lam = lambda_min(sigma, a)
    c = model.c_value()
    zero = 0 * c if isinstance(c, Fraction) else 0
    r_bar = max(c / lam, zero)
    per_face = {}
    for tau in all_faces(sigma):
        lam_tau = lambda_min(tau, a)
        per_face[tau] = max(c / lam_tau, zero)
    r_max = max(per_face.values())
    return {
        "lambda_min": lam,
        "c_value": c,
        "r_bar": r_bar,
        "r_max": r_max,
        "per_face_r_bar": per_face,
    }


def sample_ext_boundary(sigma, big_r, count, rng, denominator=64):
    """Seeded rational samples on the exterior boundary of the stretch
    domain: a chain of faces, a nested chain with weights, and a stretch
    vector on the smallest face with at least one entry pinned at R."""
    sigma = face(sigma)
    big_r = Fraction(big_r)
    samples = []
    for _ in range(count):
        perm = list(sigma)
        rng.shuffle(perm)
        sizes = sorted(rng.sample(range(1, len(sigma) + 1), rng.randint(1, len(sigma))))
        s = face_chain([perm[:c] for c in sizes])
        entries = list(s)
        rng.shuffle(entries)
        depth = rng.randint(1, len(entries))
        chains = nested_chain(
            [entries[:c] for c in sorted(rng.sample(range(1, len(entries) + 1), depth))]
        )
        raw = [rng.randint(0, denominator) for _ in chains]
        if sum(raw) == 0:
            raw[0] = 1
        total = sum(raw)
        weights = [Fraction(v, total) for v in raw]
        tau = chain_simin(s)
        r = {v: big_r * Fraction(rng.randint(0, denominator), denominator) for v in tau}
        pin = rng.choice(sorted(tau))
        r[pin] = big_r
        samples.append((s, chains, weights, r))
    return samples


@dataclass(frozen=True)
class VanishingCertificate:
    certified: bool
    big_r: object
    c_value: object
    sample_count: int
    min_margin: object
    margins: tuple

    def to_json(self):
        return {
            "certified": self.certified,
            "R": float(self.big_r),
            "c_value": float(self.c_value),
            "samples": self.sample_count,
            "min_margin": float(self.min_margin),
        }


def vanishing_certificate(sigma, a, model, big_r, samples, vertex_data, warp=WARP_CLAIMED):
    """Certify the solution-vanishing estimate over sampled boundary points.

    Preconditions: R at least the derived threshold for sigma, and every
    vertex must satisfy chi^2 + 1 <= (c1 pairing)^2 (automatic for strict
    adjunction violators).  For each sample the stretched lengths of the
    smallest face's cylinders are summed; the certificate asserts that the
    total exceeds the curvature excess on every sample, which is exactly
    the failure of the existence estimate.  Margins are exact on rational
    input.
    """
    sigma = face(sigma)
    data = vanishing_data(sigma, a, model)
    if _as_number(big_r) < _as_number(data["r_bar"]):
        raise DomainError(
            f"R = {big_r} is below the derived threshold {data['r_bar']}; refusing"
        )
    for v in sigma:
        if v not in vertex_data:
            raise DomainError(f"no vertex data for {v!r}")
        chi, pairing = vertex_data[v]
        if chi * chi + 1 > pairing * pairing:
            raise DomainError(
                f"vertex {v!r} fails chi^2 + 1 <= (c1 pairing)^2: "
                f"{chi}^2 + 1 > {pairing}^2"
            )
    c = model.c_value()
    margins = []
    for s, chains, weights, r in samples:
        s = face_chain(s)
        if not chain_simax(s).is_face_of(sigma):
            raise DomainError(f"sample chain {s} is not over {sigma}")
        tau = chain_simin(s)
        if set(r) != set(tau):
            raise DomainError(f"sample stretch indexed by {sorted(r)}, want {tau}")
        if not any(rv == big_r for rv in r.values()):
            raise DomainError("sample is not on the exterior boundary: no r equals R")
        lam = lambda_of(chains, weights, a)
        stretched_total = sum(cylinder_length(lam, rv, warp) for rv in r.values())
        margins.append(stretched_total - c)
    min_margin = min(margins) if margins else None
    certified = bool(margins) and all(_as_number(m) > 0 for m in margins)
    return VanishingCertificate(
        certified=certified,
        big_r=big_r,
        c_value=c,
        sample_count=len(margins),
        min_margin=min_margin,
        margins=tuple(margins),
    )


# -- self-test ----------------------------------------------------------------

# the cube cover alone checks (max_dim + 1) * 5^max_dim grid points
SELFTEST_MAX_DIM = 5
# largest psi round-trip error and closed-form vs quadrature gap accepted
SELFTEST_TRIP_TOL = 1e-12
SELFTEST_QUAD_TOL = 1e-9


def selftest(seed=0, warp=WARP_CLAIMED, max_dim=3):
    """Run every property check at desk scale; returns a JSON-able report.

    ``max_dim`` is the dimension of the test simplex, at most
    SELFTEST_MAX_DIM.
    """
    if not 0 <= max_dim <= SELFTEST_MAX_DIM:
        raise DomainError(f"selftest max_dim must lie in 0..{SELFTEST_MAX_DIM}, got {max_dim}")
    rng = random.Random(seed)
    checks = []

    dev = max(abs(rho0(t) + rho0(1 - t) - 1.0) for t in [i / 97 for i in range(98)])
    checks.append({"name": "ramp-symmetry", "ok": dev <= 1e-15, "max_deviation": dev})

    sigma = tuple(chr(ord("A") + i) for i in range(max_dim + 1))
    a = WeightFunction.dyadic()
    lm = lambda_min(sigma, a)
    checks.append(
        {
            "name": "scale-minimum",
            "ok": lm == a.value(sigma),
            "value": str(lm),
            "expected": str(a.value(sigma)),
        }
    )

    worst = 0.0
    for _ in range(50):
        lam = Fraction(rng.randint(1, 8), 8)
        r = Fraction(rng.randint(0, 40), 4)
        closed = cylinder_length(lam, r, warp)
        numeric = cylinder_length_quadrature(lam, r, warp)
        worst = max(worst, abs(float(closed) - numeric))
        # the total always exceeds the (warp-dependent) inner length
        if not float(closed) > float(inner_cylinder_length(lam, r, warp)):
            worst = float("inf")
    checks.append({"name": "cylinder-length", "ok": worst <= SELFTEST_QUAD_TOL, "max_deviation": worst})

    big_r = Fraction(1)
    err = 0.0
    for _ in range(400):
        x = {v: Fraction(rng.randint(0, 64), 64) for v in sigma}
        pin = rng.choice(sigma)
        x[pin] = big_r
        pinned, tau, s, t, r = psi_inverse(sigma, big_r, x)
        back = psi_forward(sigma, pinned, big_r, s, t, r)
        err = max(err, max(abs(float(back[v]) - float(x[v])) for v in sigma))
    checks.append({"name": "psi-round-trip", "ok": err <= SELFTEST_TRIP_TOL, "max_error": err})

    cover = q_cover_check(sigma, 1, Fraction(1, 4))
    checks.append(
        {"name": "cube-cover", "ok": cover["uncovered"] == 0, "points": cover["points"]}
    )

    model = CurvatureModel(kappa_norm_sup=Fraction(10), c1_square=4)
    aa = WeightFunction.constant_on_higher(Fraction(1, 2))
    data = vanishing_data(sigma, aa, model)
    # the threshold formula assumes the claimed warp; under the printed
    # convention lengths grow like sqrt(r), so the safe radius is squared
    big_r = data["r_bar"]
    if warp == WARP_PRINTED:
        big_r = max(big_r, big_r * big_r - 1)
    samples = sample_ext_boundary(sigma, big_r, 100, rng)
    vertex_data = {v: (0, 2) for v in sigma}
    cert = vanishing_certificate(sigma, aa, model, big_r, samples, vertex_data, warp)
    checks.append(
        {
            "name": "vanishing-margin",
            "ok": cert.certified,
            "min_margin": float(cert.min_margin),
            "R": float(big_r),
        }
    )

    return {
        "seed": seed,
        "warp": warp,
        "max_dim": max_dim,
        "ok": all(c["ok"] for c in checks),
        "checks": checks,
    }
