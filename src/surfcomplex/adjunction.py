"""Ambient and adjunction complexes over a finite surface catalog.

The ambient complex has one vertex per square-zero surface in the catalog
and a simplex for every clique of the declared disjointness relation; the
adjunction complex is its full subcomplex on the surfaces violating the
genus bound.  Surfaces of nonzero self-intersection are excluded from both
but kept on a side list for the nonnegative-square workflows.  Both
complexes are relative to the catalog: a bigger catalog can change them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lattice import chi_minus
from .simplicial import SimplicialComplex, flag_complex, full_subcomplex

AMBIENTS = ("null", "nonneg")


@dataclass(frozen=True)
class VertexVerdict:
    id: str
    genus: int
    chi_minus: int
    c1_pairing: int
    self_intersection: int
    violator: bool
    reason: str

    def to_json(self):
        return {
            "id": self.id,
            "genus": self.genus,
            "chi_minus": self.chi_minus,
            "c1_pairing": self.c1_pairing,
            "self_intersection": self.self_intersection,
            "violator": self.violator,
            "reason": self.reason,
        }


@dataclass(frozen=True)
class AdjunctionComplex:
    catalog: object
    ambient: SimplicialComplex
    adjunction: SimplicialComplex
    excluded: tuple
    verdicts: tuple
    max_dim: int

    def is_simplex(self, ids, where="adjunction"):
        """Clique test against the stored relation, in either complex."""
        ids = list(ids)
        known = set(self.catalog.ids())
        for sid in ids:
            if sid not in known:
                raise KeyError(f"unknown surface id {sid!r}")
        target = self.adjunction if where == "adjunction" else self.ambient
        return len(set(ids)) == len(ids) and ids in target

    def vertices_report(self):
        return [v.to_json() for v in self.verdicts]

    def report_text(self):
        lines = [
            f"catalog {self.catalog.sha256()[:12]}  "
            f"(complexes are relative to this catalog; a larger catalog may differ)",
            f"{'surface':12} {'genus':>5} {'chi-':>5} {'c1.S':>6} {'[S]^2':>6}  verdict",
        ]
        for v in self.verdicts:
            lines.append(
                f"{v.id:12} {v.genus:>5} {v.chi_minus:>5} {v.c1_pairing:>6} "
                f"{v.self_intersection:>6}  {v.reason}"
            )
        lines.append(
            f"ambient: {len(self.ambient.simplices(0))} vertices, "
            f"{len(self.ambient)} simplices (max dim {self.max_dim}); "
            f"adjunction: {len(self.adjunction.simplices(0))} vertices, "
            f"{len(self.adjunction)} simplices"
        )
        return "\n".join(lines)


def ambient_complex(catalog, max_dim, ambient="null"):
    """The flag complex of the declared disjointness relation, up to
    ``max_dim``, on the surfaces of square zero (``"null"``) or of
    nonnegative square (``"nonneg"``)."""
    if ambient not in AMBIENTS:
        raise ValueError(f"ambient must be 'null' or 'nonneg', got {ambient!r}")
    squares = {s.id: catalog.manifold.square(s.cls) for s in catalog.surfaces}
    ids = [sid for sid, sq in squares.items() if sq == 0 or (sq > 0 and ambient == "nonneg")]
    return flag_complex(ids, catalog.disjoint, max_dim)


def build(catalog, max_dim):
    """Build the ambient and adjunction complexes from a catalog.

    Vertices of the ambient complex are the square-zero surfaces; simplices
    are cliques of the disjointness relation up to ``max_dim``.  The
    adjunction complex keeps only the adjunction violators.
    """
    manifold, spinc = catalog.manifold, catalog.spinc
    verdicts = []
    violators = []
    excluded = []
    for s in catalog.surfaces:
        sq = manifold.square(s.cls)
        pairing = manifold.pairing(spinc.c1, s.cls)
        if sq != 0:
            excluded.append(s.id)
            verdicts.append(
                VertexVerdict(
                    s.id, s.genus, chi_minus(s.genus), pairing, sq, False,
                    f"excluded: self-intersection {sq} != 0",
                )
            )
            continue
        is_violator = chi_minus(s.genus) < abs(pairing)
        if is_violator:
            violators.append(s.id)
            reason = f"violator: chi- = {chi_minus(s.genus)} < |c1.S| = {abs(pairing)}"
        else:
            reason = f"satisfies bound: chi- = {chi_minus(s.genus)} >= |c1.S| = {abs(pairing)}"
        verdicts.append(
            VertexVerdict(s.id, s.genus, chi_minus(s.genus), pairing, sq, is_violator, reason)
        )

    ambient = ambient_complex(catalog, max_dim)
    adjunction = full_subcomplex(ambient, violators)
    return AdjunctionComplex(
        catalog=catalog,
        ambient=ambient,
        adjunction=adjunction,
        excluded=tuple(excluded),
        verdicts=tuple(verdicts),
        max_dim=max_dim,
    )
