"""Second-homology lattices of blown-up 4-manifolds and surface catalogs.

Manifolds here are bookkeeping objects: a diagonal intersection lattice
(basis labels with self-pairing +1 or -1) plus opaque aggregate summands
that contribute only their numerical invariants (b+, b-, Euler number,
signature, c1^2 of a fixed spin-c structure).  Surfaces are labeled homology
classes with a genus; whether two surfaces are geometrically disjoint is
*data* carried by a catalog, not something computable from homology, so
catalogs store an explicit symmetric relation and validate only the
algebraic necessary condition (disjoint implies pairing zero).

All arithmetic is exact on Python ints.
"""

from __future__ import annotations

import hashlib
import json
import operator
import re
from dataclasses import dataclass, field
from functools import cached_property


class LatticeError(ValueError):
    pass


class NonzeroSelfIntersectionError(LatticeError):
    """Raised where an operation needs a square-zero surface class."""


_JSON_INT_LIMIT = 2 ** 53


def int_to_json(v):
    """Ints encode as decimal strings once they exceed exact-double range."""
    v = int(v)
    return v if abs(v) < _JSON_INT_LIMIT else str(v)


def int_from_json(v):
    if isinstance(v, bool):
        raise LatticeError(f"expected integer, got {v!r}")
    if isinstance(v, int):
        return v
    if isinstance(v, str) and re.fullmatch(r"[+-]?[0-9]+", v):
        return int(v)
    raise LatticeError(f"expected integer or decimal string, got {v!r}")


def json_int(v):
    """A JSON integer field; bools, floats and strings raise ``TypeError``."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise TypeError(f"expected a JSON integer, got {v!r}")
    return v


class HomologyClass:
    """Finitely supported integer combination of basis labels."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        c = {}
        if coeffs:
            for label, v in dict(coeffs).items():
                v = operator.index(v)
                if v:
                    c[label] = v
        self.coeffs = c

    @classmethod
    def of(cls, label, coeff=1):
        return cls({label: coeff})

    def support(self):
        return set(self.coeffs)

    def __getitem__(self, label):
        return self.coeffs.get(label, 0)

    def __add__(self, other):
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) + v
        return HomologyClass(out)

    def __sub__(self, other):
        return self + (-1) * other

    def __neg__(self):
        return (-1) * self

    def __rmul__(self, k):
        return HomologyClass({lab: operator.index(k) * v for lab, v in self.coeffs.items()})

    def __eq__(self, other):
        return isinstance(other, HomologyClass) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def is_zero(self):
        return not self.coeffs

    def __repr__(self):
        if not self.coeffs:
            return "0"
        bits = []
        for lab in sorted(self.coeffs, key=str):
            v = self.coeffs[lab]
            term = str(lab) if abs(v) == 1 else f"{abs(v)}*{lab}"
            bits.append(("- " if v < 0 else "+ ") + term)
        text = " ".join(bits)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]

    def to_json(self):
        return {str(lab): int_to_json(v) for lab, v in sorted(self.coeffs.items())}

    @classmethod
    def from_json(cls, doc):
        return cls({lab: int_from_json(v) for lab, v in doc.items()})


@dataclass(frozen=True)
class AggregateSummand:
    """An opaque connected-sum factor known only through its invariants."""

    name: str
    b_plus: int
    b_minus: int
    euler: int
    signature: int
    c1_square: int
    sw_value: int | None = None

    def to_json(self):
        doc = {
            "name": self.name,
            "b_plus": self.b_plus,
            "b_minus": self.b_minus,
            "euler": self.euler,
            "signature": self.signature,
            "c1_square": int_to_json(self.c1_square),
        }
        if self.sw_value is not None:
            doc["sw_value"] = int_to_json(self.sw_value)
        return doc

    @classmethod
    def from_json(cls, doc):
        return cls(
            name=str(doc["name"]),
            b_plus=json_int(doc["b_plus"]),
            b_minus=json_int(doc["b_minus"]),
            euler=json_int(doc["euler"]),
            signature=json_int(doc["signature"]),
            c1_square=int_from_json(doc["c1_square"]),
            sw_value=int_from_json(doc["sw_value"]) if "sw_value" in doc else None,
        )


@dataclass(frozen=True)
class ManifoldModel:
    """Diagonal lattice summand plus aggregate summands.

    ``basis`` lists (label, square) pairs with square +1 or -1; labels must
    be unique across the model.  Aggregates never expose individual classes.
    """

    name: str
    basis: tuple
    euler: int
    signature: int
    aggregates: tuple = ()

    def __post_init__(self):
        labels = [lab for lab, _ in self.basis]
        if len(set(labels)) != len(labels):
            raise LatticeError("basis labels must be unique")
        for lab, sq in self.basis:
            if sq not in (1, -1):
                raise LatticeError(f"basis label {lab!r} has square {sq}, want +1 or -1")
        diag_sig = sum(sq for _, sq in self.basis)
        agg_sig = sum(a.signature for a in self.aggregates)
        if diag_sig + agg_sig != self.signature:
            raise LatticeError(
                f"signature {self.signature} inconsistent with basis ({diag_sig}) "
                f"plus aggregates ({agg_sig})"
            )

    @cached_property
    def squares(self):
        return dict(self.basis)

    @property
    def labels(self):
        return tuple(lab for lab, _ in self.basis)

    @property
    def b_plus(self):
        return sum(1 for _, sq in self.basis if sq == 1) + sum(a.b_plus for a in self.aggregates)

    @property
    def b_minus(self):
        return sum(1 for _, sq in self.basis if sq == -1) + sum(a.b_minus for a in self.aggregates)

    def positive_labels(self):
        return tuple(lab for lab, sq in self.basis if sq == 1)

    def pairing(self, a, b):
        """Diagonal intersection pairing of two classes on this basis: a sum
        over their common labels, once both supports are known to lie in it.
        Sets are built only to name the unknown labels."""
        squares = self.squares
        ca, cb = a.coeffs, b.coeffs
        if not (ca.keys() <= squares.keys() and cb.keys() <= squares.keys()):
            unknown = (a.support() | b.support()) - squares.keys()
            raise LatticeError(f"classes use labels outside the basis: {sorted(map(str, unknown))}")
        return sum(ca[lab] * cb[lab] * squares[lab] for lab in ca.keys() & cb.keys())

    def square(self, a):
        return self.pairing(a, a)

    def to_json(self):
        return {
            "name": self.name,
            "basis": [{"label": lab, "square": sq} for lab, sq in self.basis],
            "euler": self.euler,
            "signature": self.signature,
            "aggregate_summands": [a.to_json() for a in self.aggregates],
        }

    @classmethod
    def from_json(cls, doc):
        return cls(
            name=str(doc.get("name", "manifold")),
            basis=tuple((b["label"], json_int(b["square"])) for b in doc["basis"]),
            euler=json_int(doc["euler"]),
            signature=json_int(doc["signature"]),
            aggregates=tuple(
                AggregateSummand.from_json(a) for a in doc.get("aggregate_summands", ())
            ),
        )


def is_characteristic(manifold, c1):
    """Whether c1 . x == x . x (mod 2) for every diagonal basis element.

    On a diagonal lattice this says every coefficient of c1 is odd.
    Aggregate summands vouch for their own stored c1^2 and are not checked.
    """
    return all(c1[lab] % 2 == 1 for lab in manifold.labels)


@dataclass(frozen=True)
class SpinCStructure:
    """A spin-c structure presented by its first Chern class.

    Construction validates the characteristic condition against the
    manifold, which catches most catalog typos immediately.
    """

    c1: HomologyClass

    @classmethod
    def on(cls, manifold, c1):
        unknown = c1.support() - set(manifold.labels)
        if unknown:
            raise LatticeError(f"c1 uses labels outside the basis: {sorted(map(str, unknown))}")
        if not is_characteristic(manifold, c1):
            bad = [lab for lab in manifold.labels if c1[lab] % 2 == 0]
            raise LatticeError(f"c1 is not characteristic; even coefficient on {bad}")
        return cls(c1)

    def to_json(self):
        return {"c1": self.c1.to_json()}

    @classmethod
    def from_json(cls, doc, manifold=None):
        c1 = HomologyClass.from_json(doc["c1"])
        return cls.on(manifold, c1) if manifold is not None else cls(c1)


def c1_square(manifold, spinc):
    return manifold.square(spinc.c1) + sum(a.c1_square for a in manifold.aggregates)


def formal_dimension(manifold, spinc):
    """(c1^2 - 2*euler - 3*signature) / 4, as an exact integer.

    A non-integral value signals an inconsistent model and raises.
    """
    num = c1_square(manifold, spinc) - 2 * manifold.euler - 3 * manifold.signature
    if num % 4 != 0:
        raise LatticeError(f"formal dimension {num}/4 is not an integer; model inconsistent")
    return num // 4


def chi_minus(genus):
    """Negative part of the Euler characteristic of a genus-g surface."""
    genus = int(genus)
    if genus < 0:
        raise LatticeError("genus must be non-negative")
    return max(2 * genus - 2, 0)


@dataclass(frozen=True)
class SurfaceClass:
    """A labeled embedded-surface model: class, genus, and support tags."""

    id: str
    cls: HomologyClass
    genus: int
    support: frozenset = frozenset()

    def __post_init__(self):
        if self.genus < 0:
            raise LatticeError(f"surface {self.id!r} has negative genus")
        object.__setattr__(self, "support", frozenset(self.support))

    def chi_minus(self):
        return chi_minus(self.genus)

    def to_json(self):
        return {
            "id": self.id,
            "class": self.cls.to_json(),
            "genus": self.genus,
            "support": sorted(map(str, self.support)),
        }

    @classmethod
    def from_json(cls, doc):
        return cls(
            id=str(doc["id"]),
            cls=HomologyClass.from_json(doc["class"]),
            genus=json_int(doc["genus"]),
            support=frozenset(doc.get("support", ())),
        )


def is_adjunction_violator(manifold, spinc, surface):
    """chi^-(S) < |c1 . [S]|, for square-zero surfaces only.

    Surfaces of nonzero self-intersection raise so the caller can decide
    how to handle them (they are valid in the nonnegative ambient complex
    but not as adjunction vertices).
    """
    sq = manifold.square(surface.cls)
    if sq != 0:
        raise NonzeroSelfIntersectionError(
            f"surface {surface.id!r} has self-intersection {sq}, not 0"
        )
    return surface.chi_minus() < abs(manifold.pairing(spinc.c1, surface.cls))


@dataclass(frozen=True)
class Catalog:
    """A finite stock of surfaces in a manifold with explicit disjointness.

    The relation is symmetric and irreflexive; construction checks the
    algebraic necessary condition that declared-disjoint surfaces have
    vanishing pairing.  Everything is immutable; the ``with_*`` helpers
    return extended copies.
    """

    manifold: ManifoldModel
    spinc: SpinCStructure
    surfaces: tuple
    disjoint: frozenset = frozenset()

    def __post_init__(self):
        ids = [s.id for s in self.surfaces]
        if len(set(ids)) != len(ids):
            raise LatticeError("surface ids must be unique")
        by_id = {s.id: s for s in self.surfaces}
        pairs = set()
        # sorted, so that the first bad pair reported does not depend on hashing
        for pair in sorted(tuple(sorted(p, key=str)) for p in self.disjoint):
            if len(set(pair)) != 2:
                raise LatticeError(f"disjointness pairs two distinct surfaces, got {pair}")
            a, b = pair
            if a not in by_id or b not in by_id:
                raise LatticeError(f"disjoint pair ({a!r}, {b!r}) references unknown surface")
            if self.manifold.pairing(by_id[a].cls, by_id[b].cls) != 0:
                raise LatticeError(
                    f"surfaces {a!r}, {b!r} declared disjoint but pair "
                    f"{self.manifold.pairing(by_id[a].cls, by_id[b].cls)}"
                )
            pairs.add(frozenset((a, b)))
        object.__setattr__(self, "disjoint", frozenset(pairs))
        object.__setattr__(self, "surfaces", tuple(self.surfaces))
        object.__setattr__(self, "_by_id", by_id)
        for s in self.surfaces:
            unknown = s.cls.coeffs.keys() - self.manifold.squares.keys()
            if unknown:
                raise LatticeError(
                    f"surface {s.id!r} uses labels outside the basis: {sorted(map(str, unknown))}"
                )

    def surface(self, sid):
        try:
            return self._by_id[sid]
        except (KeyError, TypeError):
            raise LatticeError(f"unknown surface id {sid!r}") from None

    def ids(self):
        return tuple(s.id for s in self.surfaces)

    def are_disjoint(self, a, b):
        return frozenset((a, b)) in self.disjoint

    def self_intersection(self, sid):
        return self.manifold.square(self.surface(sid).cls)

    def disjoint_pairs(self):
        return sorted(tuple(sorted(p)) for p in self.disjoint)

    def with_surface(self, surface, disjoint_from=()):
        pairs = set(self.disjoint)
        for other in disjoint_from:
            pairs.add(frozenset((surface.id, other)))
        return Catalog(self.manifold, self.spinc, self.surfaces + (surface,), frozenset(pairs))

    def with_parallel_copy(self, sid, copy_id=None):
        """Duplicate a square-zero surface as a disjoint push-off.

        The copy has the same class and genus, is disjoint from the original
        and from everything the original was disjoint from.
        """
        original = self.surface(sid)
        if self.manifold.square(original.cls) != 0:
            raise NonzeroSelfIntersectionError(
                f"parallel copies need self-intersection 0, {sid!r} has "
                f"{self.manifold.square(original.cls)}"
            )
        if copy_id is None:
            copy_id = sid + "'"
            while any(s.id == copy_id for s in self.surfaces):
                copy_id += "'"
        copy = SurfaceClass(copy_id, original.cls, original.genus, original.support)
        neighbors = [other for other in self.ids() if self.are_disjoint(sid, other)]
        return self.with_surface(copy, disjoint_from=[sid] + neighbors)

    def to_json(self):
        return {
            "manifold": self.manifold.to_json(),
            "spinc": self.spinc.to_json(),
            "surfaces": [s.to_json() for s in self.surfaces],
            "disjoint": self.disjoint_pairs(),
        }

    @classmethod
    def from_json(cls, doc):
        manifold = ManifoldModel.from_json(doc["manifold"])
        spinc = SpinCStructure.from_json(doc["spinc"], manifold)
        surfaces = tuple(SurfaceClass.from_json(s) for s in doc.get("surfaces", ()))
        disjoint = frozenset(frozenset(map(str, pair)) for pair in doc.get("disjoint", ()))
        return cls(manifold, spinc, surfaces, disjoint)

    def sha256(self):
        """Digest of the canonical JSON; computed once, as the catalog is frozen."""
        if "_sha256" not in vars(self):
            text = json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))
            object.__setattr__(self, "_sha256", hashlib.sha256(text.encode()).hexdigest())
        return self._sha256


def infer_disjoint_from_support(surfaces):
    """Default heuristic: disjoint support tags mean disjoint surfaces."""
    pairs = set()
    for i, a in enumerate(surfaces):
        for b in surfaces[i + 1:]:
            if a.support and b.support and not (a.support & b.support):
                pairs.add(frozenset((a.id, b.id)))
    return frozenset(pairs)


# -- standard models ----------------------------------------------------------

def projective_sum_model(k, l, name=None):
    """k CP^2 # l (-CP^2) with basis H1..Hk, E1..El."""
    if k < 0 or l < 0:
        raise LatticeError("summand counts must be non-negative")
    basis = tuple((f"H{i}", 1) for i in range(1, k + 1)) + tuple(
        (f"E{j}", -1) for j in range(1, l + 1)
    )
    return ManifoldModel(
        name=name or f"{k}CP2#{l}(-CP2)",
        basis=basis,
        euler=2 + k + l,
        signature=k - l,
    )


def standard_spinc(manifold):
    """c1 = sum of all diagonal basis elements (each with coefficient 1)."""
    return SpinCStructure.on(manifold, HomologyClass({lab: 1 for lab in manifold.labels}))


def k3_model(sw_value=1):
    """The K3 aggregate: b+ = 3, b- = 19, canonical c1 = 0."""
    agg = AggregateSummand(
        name="K3", b_plus=3, b_minus=19, euler=24, signature=-16, c1_square=0,
        sw_value=sw_value,
    )
    return ManifoldModel(name="K3", basis=(), euler=24, signature=-16, aggregates=(agg,))


def sphere_model():
    """The trivial summand: S^4 with no second homology."""
    agg = AggregateSummand(name="S4", b_plus=0, b_minus=0, euler=2, signature=0, c1_square=0)
    return ManifoldModel(name="S4", basis=(), euler=2, signature=0, aggregates=(agg,))


def zero_spinc(manifold):
    """c1 = 0; valid only when the diagonal part is empty."""
    return SpinCStructure.on(manifold, HomologyClass())


# -- connected sums and blow-ups ----------------------------------------------

def connected_sum(m1, s1, m2, s2, name=None):
    """Connected sum of models with c1 = c1' (+) c1''.

    Bases are concatenated (labels must not collide), Euler numbers add
    minus 2, signatures add; the formal dimension then satisfies
    d(sum) = d1 + d2 + 1.
    """
    clash = set(m1.labels) & set(m2.labels)
    if clash:
        raise LatticeError(f"basis label collision in connected sum: {sorted(map(str, clash))}")
    model = ManifoldModel(
        name=name or f"{m1.name}#{m2.name}",
        basis=m1.basis + m2.basis,
        euler=m1.euler + m2.euler - 2,
        signature=m1.signature + m2.signature,
        aggregates=m1.aggregates + m2.aggregates,
    )
    spinc = SpinCStructure.on(model, s1.c1 + s2.c1)
    return model, spinc


def fresh_labels(manifold, count, prefix="E"):
    """New basis labels continuing the numbering of an existing prefix."""
    top = 0
    pattern = re.compile(re.escape(prefix) + r"([0-9]+)$")
    for lab in manifold.labels:
        m = pattern.fullmatch(str(lab))
        if m:
            top = max(top, int(m.group(1)))
    return tuple(f"{prefix}{top + i}" for i in range(1, count + 1))


def blowup(manifold, spinc, count, sign=1, prefix="E"):
    """Add ``count`` (-1)-classes; c1 gains ``sign`` on each new label.

    Returns (model, spinc, new labels).  The formal dimension is unchanged.
    """
    if count < 0:
        raise LatticeError("blow-up count must be non-negative")
    if sign not in (1, -1):
        raise LatticeError("blow-up sign must be +1 or -1")
    labels = fresh_labels(manifold, count, prefix)
    model = ManifoldModel(
        name=manifold.name if count == 0 else f"{manifold.name}#{count}(-CP2)",
        basis=manifold.basis + tuple((lab, -1) for lab in labels),
        euler=manifold.euler + count,
        signature=manifold.signature - count,
        aggregates=manifold.aggregates,
    )
    c1 = spinc.c1 + HomologyClass({lab: sign for lab in labels})
    return model, SpinCStructure.on(model, c1), labels


def blowup_resolve_surface(manifold, surface, block):
    """Trade positive self-intersection for exceptional classes.

    ``block`` must contain exactly [S]^2 fresh (-1)-labels; the resolved
    class [S] + sum(block) has square zero and the genus is unchanged.
    """
    q = manifold.square(surface.cls)
    if q < 0:
        raise NonzeroSelfIntersectionError(
            f"surface {surface.id!r} has negative self-intersection {q}"
        )
    block = tuple(block)
    if len(block) != q:
        raise LatticeError(
            f"surface {surface.id!r} has self-intersection {q}, block has {len(block)} labels"
        )
    squares = manifold.squares
    for lab in block:
        if squares.get(lab) != -1:
            raise LatticeError(f"block label {lab!r} is not a (-1)-class of the model")
    cls = surface.cls + HomologyClass({lab: 1 for lab in block})
    return SurfaceClass(surface.id, cls, surface.genus, surface.support | set(block))


# -- example families ---------------------------------------------------------

def _window(start, size):
    return tuple(f"E{j}" for j in range(start + 1, start + size + 1))


def _family_preconditions(kind, k, d_plus, d_minus, lengths):
    if k < 1:
        raise LatticeError("need k >= 1")
    if not (len(d_plus) == len(d_minus) == len(lengths) == k):
        raise LatticeError(f"need {k} degrees per sign and {k} block sizes")
    for i in range(k):
        dp, dm, li = d_plus[i], d_minus[i], lengths[i]
        if kind == "ex46":
            for eps, d in (("+", dp), ("-", dm)):
                if not (li >= d * d >= 4):
                    raise LatticeError(
                        f"family ex46 needs l_{i+1} >= d^2 >= 4; "
                        f"got l_{i+1}={li}, d_{eps},{i+1}={d}"
                    )
        elif kind == "ex47":
            for eps, d in (("+", dp), ("-", dm)):
                if d < 3:
                    raise LatticeError(f"family ex47 needs d >= 3; got d_{eps},{i+1}={d}")
                if li < d * d - 3:
                    raise LatticeError(
                        f"family ex47 needs l_{i+1} >= d^2 - 3; "
                        f"got l_{i+1}={li}, d_{eps},{i+1}={d}"
                    )
        elif kind == "ex48":
            if dm not in (2, 3):
                raise LatticeError(f"family ex48 needs d_-,{i+1} in {{2,3}}; got {dm}")
            if not (li >= dp * dp >= 4):
                raise LatticeError(
                    f"family ex48 needs l_{i+1} >= d_+^2 >= 4; got l_{i+1}={li}, d_+,{i+1}={dp}"
                )
            if li < dm * dm:
                raise LatticeError(
                    f"family ex48 needs l_{i+1} >= d_-^2; got l_{i+1}={li}, d_-,{i+1}={dm}"
                )
        else:
            raise LatticeError(f"unknown family kind {kind!r} (want ex46, ex47, or ex48)")


def make_example_family(kind, k, d_plus, d_minus, lengths):
    """Catalog plus the 2k-surface collection of one of the stock families.

    ``kind`` selects the construction: "ex46" uses degree-d curves summed
    with simple exceptional blocks, "ex47" replaces one exceptional class
    by a double one, "ex48" doubles the whole minus-side class.  Exceptional
    labels for index i occupy a window of length ``lengths[i]``; the windows
    are consecutive, so surfaces of different index are disjoint both as
    declared and algebraically.  Raises naming the failing inequality when
    a precondition is violated.
    """
    d_plus = [int(d) for d in d_plus]
    d_minus = [int(d) for d in d_minus]
    lengths = [int(x) for x in lengths]
    _family_preconditions(kind, k, d_plus, d_minus, lengths)
    l_total = sum(lengths)
    manifold = projective_sum_model(k, l_total)
    spinc = standard_spinc(manifold)

    surfaces = []
    offsets = [sum(lengths[:i]) for i in range(k)]
    for i in range(k):
        h = f"H{i + 1}"
        start = offsets[i]
        dp, dm = d_plus[i], d_minus[i]
        if kind == "ex46":
            plus_block = _window(start, dp * dp)
            minus_block = _window(start, dm * dm)
            plus_cls = HomologyClass({h: dp, **{e: 1 for e in plus_block}})
            minus_cls = HomologyClass({h: dm, **{e: -1 for e in minus_block}})
            plus_genus = (dp - 1) * (dp - 2) // 2
            minus_genus = (dm - 1) * (dm - 2) // 2
        elif kind == "ex47":
            plus_block = _window(start, dp * dp - 3)
            minus_block = _window(start, dm * dm - 3)
            plus_cls = HomologyClass(
                {h: dp, plus_block[0]: 2, **{e: 1 for e in plus_block[1:]}}
            )
            minus_cls = HomologyClass(
                {h: dm, minus_block[0]: 2, **{e: -1 for e in minus_block[1:]}}
            )
            plus_genus = (dp - 1) * (dp - 2) // 2
            minus_genus = (dm - 1) * (dm - 2) // 2
        else:  # ex48
            plus_block = _window(start, dp * dp)
            minus_block = _window(start, dm * dm)
            plus_cls = HomologyClass({h: dp, **{e: 1 for e in plus_block}})
            minus_cls = HomologyClass({h: 2 * dm, **{e: -2 for e in minus_block}})
            plus_genus = (dp - 1) * (dp - 2) // 2
            minus_genus = (2 * dm - 1) * (2 * dm - 2) // 2
        support = frozenset({h} | set(_window(start, lengths[i])))
        surfaces.append(SurfaceClass(f"S{i + 1}+", plus_cls, plus_genus, support))
        surfaces.append(SurfaceClass(f"S{i + 1}-", minus_cls, minus_genus, support))

    disjoint = set()
    for i in range(k):
        for j in range(i + 1, k):
            for ei in "+-":
                for ej in "+-":
                    disjoint.add(frozenset((f"S{i + 1}{ei}", f"S{j + 1}{ej}")))
    catalog = Catalog(manifold, spinc, tuple(surfaces), frozenset(disjoint))
    members = {(i + 1, eps): f"S{i + 1}{eps}" for i in range(k) for eps in "+-"}
    return catalog, members
