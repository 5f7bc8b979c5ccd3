"""Wall-crossing collections: certification, cycles, boundings, constraints.

A wall-crossing collection is a family of 2k surfaces Sigma_i^+/- (one pair
per positive generator H_i of the host lattice) whose pairing products
against c1 and H_i have opposite signs within each pair.  Such a collection
spans a subcomplex triangulating a (k-1)-sphere; its fundamental cycle is
the signed sum of the 2^k top simplices.  A bounding collection is a signed
set of k-simplices in the ambient complex whose boundary reproduces that
cycle; verifying one is exact integer chain algebra.

The count-of-solutions input is never computed here: callers supply a seed
value for the closed summand and the evaluation identity turns it into a
pairing magnitude (the overall sign is genuinely undetermined, and reports
say so).
"""

from __future__ import annotations

from dataclasses import dataclass

from .adjunction import AMBIENTS, ambient_complex
from .lattice import (
    Catalog,
    HomologyClass,
    blowup,
    blowup_resolve_surface,
    chi_minus,
    connected_sum,
    formal_dimension,
    json_int,
)
from .simplicial import Chain, FillError, cone_fill, flag_complex


class CollectionError(ValueError):
    pass


class HypothesisError(ValueError):
    """A stated hypothesis of the evaluation identity fails."""


class BoundingError(ValueError):
    pass


@dataclass(frozen=True)
class SWSeed:
    """User-supplied count of solutions on the closed summand."""

    value: int
    note: str = ""

    def to_json(self):
        return {"value": self.value, "note": self.note}

    @classmethod
    def from_json(cls, doc):
        return cls(json_int(doc["value"]), str(doc.get("note", "")))


SIGNS = ("+", "-")


@dataclass(frozen=True)
class WallCrossingCollection:
    """2k surfaces indexed by (i, sign), hosted in a catalog.

    ``h_labels`` names the k positive basis labels in order; by default the
    host's positive diagonal labels.  The collection can be re-hosted into a
    larger catalog (e.g. after a connected sum) without changing members.
    """

    k: int
    members: dict
    catalog: Catalog
    h_labels: tuple

    @classmethod
    def create(cls, catalog, members, h_labels=None):
        members = {(int(i), eps): str(sid) for (i, eps), sid in dict(members).items()}
        ks = {i for i, _ in members}
        if not ks or ks != set(range(1, max(ks) + 1)):
            raise CollectionError("member indices must be 1..k")
        k = max(ks)
        for i in range(1, k + 1):
            for eps in SIGNS:
                if (i, eps) not in members:
                    raise CollectionError(f"missing member ({i}, '{eps}')")
        ids = list(members.values())
        if len(set(ids)) != len(ids):
            raise CollectionError("members must be distinct surfaces")
        if h_labels is None:
            h_labels = catalog.manifold.positive_labels()
        h_labels = tuple(h_labels)
        if len(h_labels) != k:
            raise CollectionError(
                f"need exactly {k} positive labels, have {len(h_labels)}"
            )
        squares = catalog.manifold.squares
        for lab in h_labels:
            if squares.get(lab) != 1:
                raise CollectionError(f"label {lab!r} is not a +1 basis class")
        return cls(k=k, members=members, catalog=catalog, h_labels=h_labels)

    def member(self, i, eps):
        return self.members[(i, eps)]

    def member_ids(self):
        return tuple(self.members[(i, eps)] for i in range(1, self.k + 1) for eps in SIGNS)

    def surface(self, i, eps):
        return self.catalog.surface(self.member(i, eps))

    def re_host(self, catalog):
        for sid in self.member_ids():
            here = self.catalog.surface(sid)
            there = catalog.surface(sid)
            if here.cls != there.cls:
                raise CollectionError(f"surface {sid!r} changes class in the new catalog")
        return WallCrossingCollection(self.k, dict(self.members), catalog, self.h_labels)

    def to_json(self):
        return {
            "k": self.k,
            "h_labels": list(self.h_labels),
            "members": {f"{i}{eps}": sid for (i, eps), sid in sorted(self.members.items())},
            "catalog": self.catalog.to_json(),
        }

    @classmethod
    def from_json(cls, doc):
        catalog = Catalog.from_json(doc["catalog"])
        members = {}
        for key, sid in doc["members"].items():
            i, eps = int(key[:-1]), key[-1]
            if eps not in SIGNS:
                raise CollectionError(f"bad member key {key!r}")
            members[(i, eps)] = sid
        return cls.create(catalog, members, h_labels=doc.get("h_labels"))


@dataclass(frozen=True)
class CheckItem:
    name: str
    ok: bool
    detail: str

    def to_json(self):
        return {"name": self.name, "ok": self.ok, "detail": self.detail}


@dataclass(frozen=True)
class Certificate:
    certified: bool
    conditions: tuple
    products: dict
    catalog_sha256: str

    def violations(self):
        return [c for c in self.conditions if not c.ok]

    def to_json(self):
        return {
            "certified": self.certified,
            "conditions": [c.to_json() for c in self.conditions],
            "products": {
                str(i): {"plus": p, "minus": m} for i, (p, m) in sorted(self.products.items())
            },
            "catalog_sha256": self.catalog_sha256,
        }

    def text(self):
        lines = [f"certified: {self.certified}   catalog {self.catalog_sha256[:12]}"]
        for c in self.conditions:
            lines.append(f"  [{'ok' if c.ok else 'FAIL'}] {c.name}: {c.detail}")
        return "\n".join(lines)


def _cross_index_pairs(collection):
    """Every pair of members with different indices, by index then sign."""
    k = collection.k
    return [
        (collection.member(i, ei), collection.member(j, ej))
        for i in range(1, k + 1) for j in range(i + 1, k + 1) for ei in SIGNS for ej in SIGNS
    ]


def certify(collection):
    """Check every defining condition of a wall-crossing collection.

    Produces a certificate listing, per index, the two pairing products and
    the disjointness/vertex checks; any failed condition is named with the
    offending index.
    """
    cat = collection.catalog
    manifold, spinc = cat.manifold, cat.spinc
    k = collection.k
    conditions = []
    products = {}

    known = set(cat.ids())
    missing = [sid for sid in collection.member_ids() if sid not in known]
    if missing:
        raise CollectionError(f"members absent from catalog: {missing}")

    h = {i: collection.h_labels[i - 1] for i in range(1, k + 1)}
    h_cls = {i: HomologyClass.of(h[i]) for i in h}

    for i in range(1, k + 1):
        for eps in SIGNS:
            s = collection.surface(i, eps)
            off = {
                i2: manifold.pairing(h_cls[i2], s.cls)
                for i2 in range(1, k + 1)
                if i2 != i and manifold.pairing(h_cls[i2], s.cls) != 0
            }
            conditions.append(
                CheckItem(
                    f"h-orthogonality({i}{eps})",
                    not off,
                    "pairs 0 with every other positive generator"
                    if not off
                    else f"nonzero pairings {off}",
                )
            )

    for i in range(1, k + 1):
        sp = collection.surface(i, "+")
        sm = collection.surface(i, "-")
        pp = manifold.pairing(spinc.c1, sp.cls) * manifold.pairing(h_cls[i], sp.cls)
        pm = manifold.pairing(spinc.c1, sm.cls) * manifold.pairing(h_cls[i], sm.cls)
        products[i] = (pp, pm)
        ok = pp != 0 and pm != 0 and (pp > 0) != (pm > 0)
        conditions.append(
            CheckItem(
                f"sign-products({i})",
                ok,
                f"(c1.S)(H.S) = {pp} for +, {pm} for -"
                + ("" if ok else "; need nonzero opposite signs"),
            )
        )

    bad_pairs = [(a, b) for a, b in _cross_index_pairs(collection) if not cat.are_disjoint(a, b)]
    conditions.append(
        CheckItem(
            "cross-index-disjoint",
            not bad_pairs,
            "all cross-index pairs declared disjoint"
            if not bad_pairs
            else f"missing disjointness: {bad_pairs}",
        )
    )

    for i in range(1, k + 1):
        for eps in SIGNS:
            s = collection.surface(i, eps)
            sq = manifold.square(s.cls)
            pairing = manifold.pairing(spinc.c1, s.cls)
            ok = sq == 0 and chi_minus(s.genus) < abs(pairing)
            detail = f"[S]^2 = {sq}, chi- = {chi_minus(s.genus)}, |c1.S| = {abs(pairing)}"
            conditions.append(CheckItem(f"vertex({s.id})", ok, detail))

    certified = all(c.ok for c in conditions)
    return Certificate(
        certified=certified,
        conditions=tuple(conditions),
        products=products,
        catalog_sha256=cat.sha256(),
    )


def collection_complex(collection):
    """The subcomplex spanned by the collection: a (k-1)-sphere."""
    return flag_complex(
        collection.member_ids(), _cross_index_pairs(collection), max_dim=max(collection.k - 1, 0)
    )


def fundamental_cycle(collection, check=True):
    """The signed sum of the 2^k top simplices; an exact (k-1)-cycle.

    Vertices are ordered by index i and the coefficient of a top simplex is
    the product of its signs.  This is the standard boundary cycle of the
    k-dimensional cross-polytope, so its boundary vanishes identically;
    whether it matches any particular disk-gluing orientation only affects
    a global sign that downstream consumers treat as undetermined anyway.
    """
    if check:
        cert = certify(collection)
        if not cert.certified:
            names = [c.name for c in cert.violations()]
            raise CollectionError(f"collection does not certify: {names}")
    k = collection.k
    terms = []
    for bits in range(2 ** k):
        eps = ["+" if (bits >> (i - 1)) & 1 == 0 else "-" for i in range(1, k + 1)]
        coeff = 1
        for e in eps:
            coeff = coeff if e == "+" else -coeff
        verts = tuple(collection.member(i, eps[i - 1]) for i in range(1, k + 1))
        terms.append((verts, coeff))
    return Chain.from_oriented(k - 1, terms)


@dataclass(frozen=True)
class BoundingCollection:
    """Signed k-simplices with prescribed boundary, plus the ambient mode.

    ``ambient`` is "null" (square-zero vertices only) or "nonneg" (vertices
    of nonnegative square allowed).
    """

    terms: tuple
    ambient: str = "null"

    def __post_init__(self):
        if self.ambient not in AMBIENTS:
            raise BoundingError(f"ambient must be 'null' or 'nonneg', got {self.ambient!r}")
        object.__setattr__(
            self,
            "terms",
            tuple((int(c), tuple(v)) for c, v in self.terms),
        )

    def vertex_ids(self):
        return sorted({v for _, verts in self.terms for v in verts})

    def member_set(self, collection):
        """The surfaces used beyond the collection itself."""
        return tuple(sorted(set(self.vertex_ids()) - set(collection.member_ids())))

    def chain(self, degree):
        return Chain.from_oriented(degree, [(verts, c) for c, verts in self.terms])

    def to_json(self):
        return {
            "ambient": self.ambient,
            "terms": [{"coeff": c, "simplex": list(v)} for c, v in self.terms],
        }

    @classmethod
    def from_json(cls, doc):
        return cls(
            terms=tuple((json_int(t["coeff"]), tuple(t["simplex"])) for t in doc["terms"]),
            ambient=str(doc.get("ambient", "null")),
        )


def _check_ambient_simplex(catalog, verts, k, ambient):
    if len(verts) != k + 1:
        raise BoundingError(f"{verts} has {len(verts)} vertices, want {k + 1}")
    if len(set(verts)) != len(verts):
        raise BoundingError(f"{verts} repeats a vertex")
    for sid in verts:
        sq = catalog.self_intersection(sid)
        if ambient == "null" and sq != 0:
            raise BoundingError(f"{sid!r} has self-intersection {sq}, ambient is square-zero")
        if ambient == "nonneg" and sq < 0:
            raise BoundingError(f"{sid!r} has self-intersection {sq} < 0")
    for a_i in range(len(verts)):
        for b_i in range(a_i + 1, len(verts)):
            a, b = verts[a_i], verts[b_i]
            if not catalog.are_disjoint(a, b):
                raise BoundingError(
                    f"{verts} is not a simplex: {a!r}, {b!r} not declared disjoint"
                )


@dataclass(frozen=True)
class BoundingVerdict:
    verified: bool
    sign: int | None
    residual: Chain
    members: tuple
    conditions: tuple

    def to_json(self):
        from .simplicial import chain_to_json

        return {
            "verified": self.verified,
            "sign": self.sign,
            "residual": chain_to_json(self.residual),
            "members": list(self.members),
            "conditions": [c.to_json() for c in self.conditions],
        }

    def text(self):
        lines = [f"verified: {self.verified}"
                 + (f" (boundary matches {'+' if self.sign == 1 else '-'}cycle)" if self.sign else "")]
        for c in self.conditions:
            lines.append(f"  [{'ok' if c.ok else 'FAIL'}] {c.name}: {c.detail}")
        if not self.verified and not self.residual.is_zero():
            lines.append(f"  residual: {self.residual!r}")
        return "\n".join(lines)


def verify_bounding(host_catalog, collection, bounding):
    """Exact boundary check of a candidate bounding collection.

    Every simplex must be a clique of the host relation in the stated
    ambient mode (errors otherwise); the boundary of the signed sum must
    equal the fundamental cycle up to the undetermined global sign.  The
    verdict carries the residual chain for diagnosis when it does not.
    """
    coll = collection.re_host(host_catalog)
    k = coll.k
    for _, verts in bounding.terms:
        _check_ambient_simplex(host_catalog, verts, k, bounding.ambient)

    target = fundamental_cycle(coll)
    w = bounding.chain(k)
    bw = w.boundary()
    sign = None
    if bw == target:
        sign = 1
    elif bw == -target:
        sign = -1
    residual = bw - target

    covered = {v for _, verts in bounding.terms for v in verts}
    missing = [sid for sid in coll.member_ids() if sid not in covered]
    members = bounding.member_set(coll)

    if sign is None:
        boundary_detail = f"boundary differs; residual has {len(residual)} terms"
    elif sign == 1:
        boundary_detail = "boundary equals the fundamental cycle"
    else:
        boundary_detail = "boundary equals the fundamental cycle with the opposite orientation"
    conditions = (
        CheckItem(
            "covers-collection",
            not missing,
            "every collection member lies in some simplex"
            if not missing
            else f"members not covered: {missing}",
        ),
        CheckItem(
            "has-members",
            bool(members),
            f"member set {list(members)}" if members else "member set is empty",
        ),
        CheckItem("boundary-matches", sign is not None, boundary_detail),
    )
    verified = all(c.ok for c in conditions)
    return BoundingVerdict(
        verified=verified,
        sign=sign,
        residual=residual if sign is None else Chain(k - 1),
        members=members,
        conditions=conditions,
    )


def cone_bounding(host_catalog, collection, apex_id, ambient="null"):
    """The one-surface bounding: cone the fundamental cycle off at a vertex.

    The apex must be declared disjoint from every collection member.
    """
    coll = collection.re_host(host_catalog)
    complex_ = ambient_complex(host_catalog, coll.k, ambient)
    z = fundamental_cycle(coll)
    try:
        w = cone_fill(complex_, z, apex_id)
    except FillError as e:
        raise BoundingError(str(e)) from e
    terms = tuple((c, s.vertices) for s, c in sorted(w.terms.items()))
    return BoundingCollection(terms=terms, ambient=ambient)


@dataclass(frozen=True)
class ConstraintRow:
    id: str
    genus: int
    chi_minus: int
    c1_pairing: int
    self_intersection: int
    bound: int
    strengthened: bool
    satisfied: bool

    def to_json(self):
        return {
            "id": self.id,
            "genus": self.genus,
            "chi_minus": self.chi_minus,
            "c1_pairing": self.c1_pairing,
            "self_intersection": self.self_intersection,
            "bound": self.bound,
            "strengthened": self.strengthened,
            "satisfied": self.satisfied,
        }


@dataclass(frozen=True)
class ConstraintReport:
    """The derived genus constraint: an existential disjunction over members.

    Unless there is a single member, no per-surface inequality is asserted;
    the claim is that at least one row's bound holds.  ``contradiction`` is
    set when catalog data already refutes every row, i.e. no geometric
    realization of the catalog exists.
    """

    catalog_sha256: str
    seed: SWSeed
    members: tuple
    rows: tuple
    single_member: bool
    contradiction: bool
    blowup_applied: bool
    blowup_sign: int | None
    blowup_blocks: dict
    notes: tuple

    def to_json(self):
        return {
            "catalog_sha256": self.catalog_sha256,
            "seed": self.seed.to_json(),
            "members": list(self.members),
            "constraints": [r.to_json() for r in self.rows],
            "single_member": self.single_member,
            "contradiction": self.contradiction,
            "blowup": {
                "applied": self.blowup_applied,
                "sign": self.blowup_sign,
                "blocks": {k: list(v) for k, v in sorted(self.blowup_blocks.items())},
            },
            "notes": list(self.notes),
        }

    def text(self):
        lines = [f"constraint report   catalog {self.catalog_sha256[:12]}  seed {self.seed.value}"]
        if self.blowup_applied:
            lines.append(
                f"  blow-up transform applied (sign {self.blowup_sign:+d}); "
                "bounds below include self-intersection terms"
            )
        head = "asserted" if self.single_member else "at least one of"
        lines.append(f"  {head}:")
        for r in self.rows:
            mark = "satisfied" if r.satisfied else "cannot hold (chi- too small)"
            lines.append(
                f"    chi-({r.id}) >= {r.bound}"
                + (f"  [= |c1.S| + [S]^2]" if r.strengthened else "")
                + f"   (chi- = {r.chi_minus}; {mark})"
            )
        if self.contradiction:
            lines.append("  CONTRADICTION: no member can satisfy its bound;")
            lines.append("  the catalog's disjointness data is not geometrically realizable.")
        for n in self.notes:
            lines.append(f"  note: {n}")
        return "\n".join(lines)


def _blowup_sign_score(host, members, sign):
    strengthened = 0
    total = 0
    for s in members:
        base = abs(host.manifold.pairing(host.spinc.c1, s.cls))
        sq = host.manifold.square(s.cls)
        bound = abs(host.manifold.pairing(host.spinc.c1, s.cls) - sign * sq)
        total += bound
        if bound == base + sq:
            strengthened += 1
    return (strengthened, total)


def derive_constraints(host_catalog, collection, bounding, seed):
    """Turn a verified bounding into the existential genus constraint.

    With square-zero members, each row's bound is |c1 . [S]|.  Members of
    positive square trigger the blow-up route: the host is blown up once
    per unit of self-intersection with a single global sign (chosen to
    maximize the number of members attaining the strengthened bound
    |c1 . [S]| + [S]^2, then the total bound), each member is resolved to a
    square-zero surface of the same genus, and the bounding is re-verified
    in the transformed catalog before the report is emitted.
    """
    if seed.value == 0:
        raise HypothesisError(
            "seed invariant is zero: no conclusion can be derived from this bounding"
        )
    verdict = verify_bounding(host_catalog, collection, bounding)
    if not verdict.verified:
        raise BoundingError(
            "bounding does not verify; run verify_bounding for the residual"
        )
    member_surfaces = [host_catalog.surface(sid) for sid in verdict.members]
    squares = {s.id: host_catalog.manifold.square(s.cls) for s in member_surfaces}
    needs_blowup = any(q > 0 for q in squares.values())

    notes = []
    blocks = {}
    sign = None
    resolved = host_catalog
    if needs_blowup:
        sign = max(
            (1, -1),
            key=lambda sg: _blowup_sign_score(host_catalog, member_surfaces, sg),
        )
        total = sum(q for q in squares.values() if q > 0)
        model, spinc, labels = blowup(host_catalog.manifold, host_catalog.spinc, total, sign)
        cursor = 0
        new_surfaces = []
        for s in host_catalog.surfaces:
            if s.id in squares and squares[s.id] > 0:
                block = labels[cursor:cursor + squares[s.id]]
                cursor += squares[s.id]
                blocks[s.id] = block
                new_surfaces.append(blowup_resolve_surface(model, s, block))
            else:
                new_surfaces.append(s)
        resolved = Catalog(model, spinc, tuple(new_surfaces), host_catalog.disjoint)
        notes.append(
            f"blow-up by {total} exceptional classes, c1 shifted with sign {sign:+d}; "
            "transformed members have self-intersection 0 and unchanged genus"
        )
        re_verdict = verify_bounding(
            resolved, collection, BoundingCollection(bounding.terms, ambient="null")
        )
        if not re_verdict.verified:
            raise BoundingError("bounding fails to re-verify after the blow-up transform")
    # without a blow-up every member has square 0 and resolves to itself
    rows = []
    for s in member_surfaces:
        sq = squares[s.id]
        base_pairing = host_catalog.manifold.pairing(host_catalog.spinc.c1, s.cls)
        bound = abs(resolved.manifold.pairing(resolved.spinc.c1, resolved.surface(s.id).cls))
        rows.append(
            ConstraintRow(
                id=s.id,
                genus=s.genus,
                chi_minus=s.chi_minus(),
                c1_pairing=base_pairing,
                self_intersection=sq,
                bound=bound,
                strengthened=needs_blowup and bound == abs(base_pairing) + sq,
                satisfied=s.chi_minus() >= bound,
            )
        )

    rows = tuple(sorted(rows, key=lambda r: r.id))
    return ConstraintReport(
        catalog_sha256=host_catalog.sha256(),
        seed=seed,
        members=verdict.members,
        rows=rows,
        single_member=len(rows) == 1,
        contradiction=not any(r.satisfied for r in rows),
        blowup_applied=needs_blowup,
        blowup_sign=sign,
        blowup_blocks=blocks,
        notes=tuple(notes),
    )


# -- evaluation of the pairing identity ---------------------------------------

def connected_sum_catalog(m_model, m_spinc, catalog, name=None):
    """Host catalog for the connected sum, carrying the surfaces over."""
    model, spinc = connected_sum(m_model, m_spinc, catalog.manifold, catalog.spinc, name=name)
    return Catalog(model, spinc, catalog.surfaces, catalog.disjoint)


@dataclass(frozen=True)
class EvaluationReport:
    host_name: str
    host_b_plus: int
    host_b_minus: int
    k: int
    seed: SWSeed
    pairing_magnitude: int
    sign_ambiguous: bool
    cohomology_class_nonzero: bool | None
    cycle_class_nonzero: bool | None
    hypotheses: tuple
    catalog_sha256: str

    def to_json(self):
        return {
            "host": {
                "name": self.host_name,
                "b_plus": self.host_b_plus,
                "b_minus": self.host_b_minus,
            },
            "k": self.k,
            "seed": self.seed.to_json(),
            "pairing": {
                "magnitude": self.pairing_magnitude,
                "sign_ambiguous": self.sign_ambiguous,
            },
            "verdicts": {
                "cohomology_class_nonzero": self.cohomology_class_nonzero,
                "cycle_class_nonzero": self.cycle_class_nonzero,
            },
            "hypotheses": [h.to_json() for h in self.hypotheses],
            "catalog_sha256": self.catalog_sha256,
        }

    def text(self):
        lines = [
            f"host {self.host_name}: b+ = {self.host_b_plus}, b- = {self.host_b_minus}, k = {self.k}",
            f"pairing magnitude |<class, cycle>| = {self.pairing_magnitude} "
            "(global sign undetermined)",
        ]
        for h in self.hypotheses:
            lines.append(f"  [{'ok' if h.ok else 'FAIL'}] {h.name}: {h.detail}")
        if self.cohomology_class_nonzero is None:
            lines.append("  seed is zero: no non-vanishing verdict")
        else:
            lines.append(
                f"  cohomology class nonzero: {self.cohomology_class_nonzero}; "
                f"cycle class nonzero: {self.cycle_class_nonzero}"
            )
        return "\n".join(lines)


def evaluate_invariant(collection, seed, m_model, m_spinc):
    """Pairing magnitude of the evaluation identity, with hypothesis checks.

    The host is the connected sum of the given closed summand and the
    collection's catalog.  Checked hypotheses: the summand has b+ >= 2 and
    formal dimension 0; the host has formal dimension -k and b+ >= k + 2;
    the collection certifies.  Failures raise naming the hypothesis.  The
    reported magnitude is |seed| with an explicit sign-ambiguity flag; the
    non-vanishing verdicts are only emitted for a nonzero seed.
    """
    cert = certify(collection)
    if not cert.certified:
        raise HypothesisError(
            f"collection does not certify: {[c.name for c in cert.violations()]}"
        )
    k = collection.k
    host = connected_sum_catalog(m_model, m_spinc, collection.catalog)
    d_m = formal_dimension(m_model, m_spinc)
    d_host = formal_dimension(host.manifold, host.spinc)
    hypotheses = (
        CheckItem(
            "summand-b-plus",
            m_model.b_plus >= 2,
            f"b+({m_model.name}) = {m_model.b_plus} >= 2",
        ),
        CheckItem(
            "summand-dimension",
            d_m == 0,
            f"formal dimension of the closed summand = {d_m}, want 0",
        ),
        CheckItem(
            "host-dimension",
            d_host == -k,
            f"formal dimension of the host = {d_host}, want {-k}",
        ),
        CheckItem(
            "host-b-plus",
            host.manifold.b_plus >= k + 2,
            f"b+({host.manifold.name}) = {host.manifold.b_plus} >= {k + 2}",
        ),
    )
    for h in hypotheses:
        if not h.ok:
            raise HypothesisError(f"{h.name}: {h.detail}")
    nonzero = None if seed.value == 0 else True
    return EvaluationReport(
        host_name=host.manifold.name,
        host_b_plus=host.manifold.b_plus,
        host_b_minus=host.manifold.b_minus,
        k=k,
        seed=seed,
        pairing_magnitude=abs(seed.value),
        sign_ambiguous=True,
        cohomology_class_nonzero=nonzero,
        cycle_class_nonzero=nonzero,
        hypotheses=hypotheses,
        catalog_sha256=host.sha256(),
    )
