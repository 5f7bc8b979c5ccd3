"""Command-line surface over the library.

Subcommands::

    surfcomplex examples make --kind ex46 --k 2 --d 2,2,2,2 --l 4,4
    surfcomplex complex build --input collection.json
    surfcomplex complex homology --input collection.json --deg 1
    surfcomplex wallcross certify --input collection.json
    surfcomplex wallcross cycle --input collection.json
    surfcomplex bounding verify --input collection.json --bounding b.json
    surfcomplex constraints derive --input collection.json --bounding b.json --seed-value 1
    surfcomplex invariant evaluate --input collection.json --m-model k3 --seed-value 1
    surfcomplex paramgeo selftest --seed 0 --warp claimed

Exit codes: 0 success/certified, 1 verified-false, 2 input error, 3
internal error (an exception the handlers do not map to input errors).  JSON
output is canonical (sorted keys, compact separators), so identical inputs
produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import adjunction, paramgeo, wallcross
from .lattice import Catalog, LatticeError, ManifoldModel, SpinCStructure, k3_model, make_example_family, sphere_model, zero_spinc
from .simplicial import ComplexTooLarge, chain_to_json, complex_from_json, complex_to_json, dumps
from .wallcross import (
    BoundingCollection,
    BoundingError,
    CollectionError,
    HypothesisError,
    SWSeed,
    WallCrossingCollection,
)


class InputError(Exception):
    pass


# the library's validation errors: bad input, reported with exit 2
VALIDATION_ERRORS = (
    LatticeError, CollectionError, BoundingError, HypothesisError, ComplexTooLarge, paramgeo.DomainError,
)


def load_json(path):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as e:
        raise InputError(f"{path}: {e.strerror}") from e
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from e


def load_input(path, decode):
    """Load the JSON document at ``path`` and decode it with ``decode``;
    a document that parses but does not decode is an input error naming the
    path."""
    doc = load_json(path)
    try:
        return decode(doc)
    except VALIDATION_ERRORS:
        raise
    except InputError as e:
        raise InputError(f"{path}: {e}") from e
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as e:
        raise InputError(f"{path}: malformed input: {type(e).__name__}: {e}") from e


def load_catalog(doc):
    """Accept a catalog document, or a collection document carrying one."""
    if "manifold" in doc:
        return Catalog.from_json(doc)
    if "catalog" in doc:
        return Catalog.from_json(doc["catalog"])
    raise InputError("input has neither 'manifold' nor 'catalog'")


def load_collection(doc):
    if "members" not in doc or "catalog" not in doc:
        raise InputError("input is not a collection document (need 'catalog' and 'members')")
    return WallCrossingCollection.from_json(doc)


def load_m_model(arg):
    if arg == "k3":
        m = k3_model()
        return m, zero_spinc(m)
    if arg == "s4":
        m = sphere_model()
        return m, zero_spinc(m)
    return load_input(arg, decode_m_model)


def decode_m_model(doc):
    if "manifold" not in doc or "spinc" not in doc:
        raise InputError("model file needs 'manifold' and 'spinc'")
    m = ManifoldModel.from_json(doc["manifold"])
    return m, SpinCStructure.from_json(doc["spinc"], m)


def emit(args, doc, text):
    payload = dumps(doc) + "\n" if args.format == "json" else text + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _int_list(text):
    try:
        return [int(x) for x in text.split(",") if x != ""]
    except ValueError as e:
        raise InputError(f"expected comma-separated integers, got {text!r}") from e


def group_name(betti, torsion):
    bits = []
    if betti == 1:
        bits.append("Z")
    elif betti > 1:
        bits.append(f"Z^{betti}")
    bits.extend(f"Z/{t}" for t in torsion)
    return " + ".join(bits) if bits else "0"


# -- subcommand handlers -------------------------------------------------------

def cmd_examples_make(args):
    d = _int_list(args.d)
    lengths = _int_list(args.l)
    if len(d) != 2 * args.k:
        raise InputError(f"--d wants {2 * args.k} entries (d+,d- per index), got {len(d)}")
    if len(lengths) != args.k:
        raise InputError(f"--l wants {args.k} entries, got {len(lengths)}")
    d_plus = d[0::2]
    d_minus = d[1::2]
    try:
        catalog, members = make_example_family(args.kind, args.k, d_plus, d_minus, lengths)
    except LatticeError as e:
        raise InputError(str(e)) from e
    collection = WallCrossingCollection.create(catalog, members)
    doc = collection.to_json()
    text = (
        f"family {args.kind}: k = {args.k}, surfaces {', '.join(collection.member_ids())}\n"
        f"catalog {catalog.sha256()[:12]}"
    )
    emit(args, doc, text)
    return 0


def cmd_complex_build(args):
    if args.max_dim < 0:
        raise InputError(f"--max-dim must be >= 0, got {args.max_dim}")
    catalog = load_input(args.input, load_catalog)
    built = adjunction.build(catalog, args.max_dim)
    doc = {
        "catalog_sha256": catalog.sha256(),
        "max_dim": args.max_dim,
        "ambient": complex_to_json(built.ambient),
        "adjunction": complex_to_json(built.adjunction),
        "excluded": list(built.excluded),
        "vertices": built.vertices_report(),
    }
    emit(args, doc, built.report_text())
    return 0


def cmd_complex_homology(args):
    if min(args.deg, args.max_dim) < 0:
        raise InputError(f"--deg and --max-dim must be >= 0, got {args.deg} and {args.max_dim}")
    source = load_input(
        args.input, lambda doc: complex_from_json(doc) if "simplices" in doc else load_catalog(doc)
    )
    if isinstance(source, Catalog):
        complex_ = adjunction.build(source, args.max_dim).adjunction
        sha = source.sha256()
    else:
        complex_, sha = source, None
    betti, torsion = complex_.homology(args.deg)
    doc = {
        "degree": args.deg,
        "betti": betti,
        "torsion": torsion,
        "group": group_name(betti, torsion),
        "note": "relative to the supplied finite catalog/complex",
    }
    if sha:
        doc["catalog_sha256"] = sha
    emit(args, doc, f"H_{args.deg} = {group_name(betti, torsion)} (catalog-relative)")
    return 0


def cmd_wallcross_certify(args):
    collection = load_input(args.input, load_collection)
    cert = wallcross.certify(collection)
    emit(args, cert.to_json(), cert.text())
    return 0 if cert.certified else 1


def cmd_wallcross_cycle(args):
    collection = load_input(args.input, load_collection)
    cycle = wallcross.fundamental_cycle(collection)
    complex_ = wallcross.collection_complex(collection)
    doc = {
        "catalog_sha256": collection.catalog.sha256(),
        "k": collection.k,
        "chain": chain_to_json(cycle),
        "complex": complex_to_json(complex_),
    }
    text = f"fundamental cycle with {len(cycle)} terms in degree {collection.k - 1}\n{cycle!r}"
    emit(args, doc, text)
    return 0


def cmd_bounding_verify(args):
    collection = load_input(args.input, load_collection)
    bounding = load_input(args.bounding, BoundingCollection.from_json)
    verdict = wallcross.verify_bounding(collection.catalog, collection, bounding)
    doc = dict(verdict.to_json())
    doc["catalog_sha256"] = collection.catalog.sha256()
    emit(args, doc, verdict.text())
    return 0 if verdict.verified else 1


def cmd_constraints_derive(args):
    collection = load_input(args.input, load_collection)
    bounding = load_input(args.bounding, BoundingCollection.from_json)
    seed = SWSeed(args.seed_value, args.seed_note)
    report = wallcross.derive_constraints(collection.catalog, collection, bounding, seed)
    emit(args, report.to_json(), report.text())
    return 0


def cmd_invariant_evaluate(args):
    collection = load_input(args.input, load_collection)
    m_model, m_spinc = load_m_model(args.m_model)
    seed = SWSeed(args.seed_value, args.seed_note)
    report = wallcross.evaluate_invariant(collection, seed, m_model, m_spinc)
    emit(args, report.to_json(), report.text())
    return 0


def cmd_paramgeo_selftest(args):
    report = paramgeo.selftest(seed=args.seed, warp=args.warp, max_dim=args.max_dim)
    lines = [f"paramgeo selftest (seed {args.seed}, warp {args.warp}): "
             f"{'ok' if report['ok'] else 'FAILED'}"]
    for c in report["checks"]:
        lines.append(f"  [{'ok' if c['ok'] else 'FAIL'}] {c['name']}")
    emit(args, report, "\n".join(lines))
    return 0 if report["ok"] else 1


# -- parser ---------------------------------------------------------------------

@functools.cache
def build_parser():
    """The argument parser, built once per process.  Handlers are stored by
    name and looked up in ``main``, so a handler replaced later still runs."""
    parser = argparse.ArgumentParser(
        prog="surfcomplex",
        description="Surface catalogs, adjunction complexes, wall-crossing "
        "certificates, and stretching-parameter geometry.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_input=True):
        if needs_input:
            p.add_argument("--input", required=True, help="input JSON path")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--output", default=None, help="write the report here instead of stdout")

    px = sub.add_parser("examples", help="construct stock wall-crossing families")
    pxs = px.add_subparsers(dest="subcommand", required=True)
    p = pxs.add_parser("make")
    p.add_argument("--kind", choices=("ex46", "ex47", "ex48"), required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", required=True, help="2k comma-separated degrees d+,d- per index")
    p.add_argument("--l", required=True, help="k comma-separated exceptional block sizes")
    common(p, needs_input=False)
    p.set_defaults(func="cmd_examples_make")

    pc = sub.add_parser("complex", help="build complexes and compute homology")
    pcs = pc.add_subparsers(dest="subcommand", required=True)
    p = pcs.add_parser("build")
    common(p)
    p.add_argument("--max-dim", type=int, default=4)
    p.set_defaults(func="cmd_complex_build")
    p = pcs.add_parser("homology")
    common(p)
    p.add_argument("--deg", type=int, required=True)
    p.add_argument("--max-dim", type=int, default=4)
    p.set_defaults(func="cmd_complex_homology")

    pw = sub.add_parser("wallcross", help="certify collections, emit cycles")
    pws = pw.add_subparsers(dest="subcommand", required=True)
    p = pws.add_parser("certify")
    common(p)
    p.set_defaults(func="cmd_wallcross_certify")
    p = pws.add_parser("cycle")
    common(p)
    p.set_defaults(func="cmd_wallcross_cycle")

    pb = sub.add_parser("bounding", help="verify bounding collections")
    pbs = pb.add_subparsers(dest="subcommand", required=True)
    p = pbs.add_parser("verify")
    common(p)
    p.add_argument("--bounding", required=True, help="bounding JSON path")
    p.set_defaults(func="cmd_bounding_verify")

    pk = sub.add_parser("constraints", help="derive genus constraints")
    pks = pk.add_subparsers(dest="subcommand", required=True)
    p = pks.add_parser("derive")
    common(p)
    p.add_argument("--bounding", required=True)
    p.add_argument("--seed-value", type=int, required=True)
    p.add_argument("--seed-note", default="")
    p.set_defaults(func="cmd_constraints_derive")

    pi = sub.add_parser("invariant", help="evaluate the pairing identity")
    pis = pi.add_subparsers(dest="subcommand", required=True)
    p = pis.add_parser("evaluate")
    common(p)
    p.add_argument("--m-model", required=True, help="k3, s4, or a model JSON path")
    p.add_argument("--seed-value", type=int, required=True)
    p.add_argument("--seed-note", default="")
    p.set_defaults(func="cmd_invariant_evaluate")

    pg = sub.add_parser("paramgeo", help="parameter-space geometry checks")
    pgs = pg.add_subparsers(dest="subcommand", required=True)
    p = pgs.add_parser("selftest")
    common(p, needs_input=False)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--warp", choices=paramgeo.WARPS, default=paramgeo.WARP_CLAIMED)
    p.add_argument("--max-dim", type=int, default=3)
    p.set_defaults(func="cmd_paramgeo_selftest")

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return globals()[args.func](args)
    except (InputError, *VALIDATION_ERRORS) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
