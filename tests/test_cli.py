import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from surfcomplex import cli, simplicial
from surfcomplex.cli import main
from surfcomplex.lattice import Catalog, HomologyClass, SurfaceClass
from surfcomplex.simplicial import chain_from_json, complex_from_json
from surfcomplex.wallcross import BoundingCollection, WallCrossingCollection


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


REPORT_KEYS = {
    ("examples", "make"): {"catalog", "members", "k", "h_labels"},
    ("complex", "build"): {"catalog_sha256", "ambient", "adjunction", "vertices", "excluded", "max_dim"},
    ("complex", "homology"): {"degree", "betti", "torsion", "group", "note"},
    ("wallcross", "certify"): {"certified", "conditions", "products", "catalog_sha256"},
    ("wallcross", "cycle"): {"catalog_sha256", "k", "chain", "complex"},
    ("bounding", "verify"): {"verified", "sign", "residual", "members", "conditions", "catalog_sha256"},
    ("constraints", "derive"): {"catalog_sha256", "seed", "members", "constraints", "single_member", "contradiction", "blowup", "notes"},
    ("invariant", "evaluate"): {"host", "k", "seed", "pairing", "verdicts", "hypotheses", "catalog_sha256"},
    ("paramgeo", "selftest"): {"seed", "warp", "max_dim", "ok", "checks"},
}


def parse_report(command, subcommand, text):
    """Round-trip guard: parse a JSON report emitted by a subcommand."""
    doc = json.loads(text)
    missing = REPORT_KEYS[(command, subcommand)] - set(doc)
    assert not missing, f"report for {command} {subcommand} lacks keys {sorted(missing)}"
    return doc


@pytest.fixture
def coll_path(tmp_path, capsys):
    path = tmp_path / "coll.json"
    code = main(
        [
            "examples", "make", "--kind", "ex46", "--k", "2",
            "--d", "2,2,2,2", "--l", "4,4", "--format", "json",
            "--output", str(path),
        ]
    )
    capsys.readouterr()
    assert code == 0
    return path


def test_examples_make_roundtrips(coll_path):
    doc = json.loads(coll_path.read_text())
    coll = WallCrossingCollection.from_json(doc)
    assert coll.k == 2
    assert set(coll.member_ids()) == {"S1+", "S1-", "S2+", "S2-"}


def test_examples_make_bad_degree_exits_2(tmp_path, capsys):
    code, out, err = run(
        capsys, "examples", "make", "--kind", "ex46", "--k", "1", "--d", "1,2", "--l", "4"
    )
    assert code == 2
    assert "l_1 >= d^2 >= 4" in err


def test_certify_exit_zero(coll_path, capsys):
    code, out, _ = run(capsys, "wallcross", "certify", "--input", str(coll_path))
    assert code == 0
    assert "certified: True" in out


def test_certify_json_parses(coll_path, capsys):
    code, out, _ = run(
        capsys, "wallcross", "certify", "--input", str(coll_path), "--format", "json"
    )
    assert code == 0
    doc = parse_report("wallcross", "certify", out)
    assert doc["certified"] is True


def test_certify_uncertified_exit_one(coll_path, tmp_path, capsys):
    doc = json.loads(coll_path.read_text())
    doc["catalog"]["disjoint"] = [
        p for p in doc["catalog"]["disjoint"] if set(p) != {"S1+", "S2-"}
    ]
    bad = tmp_path / "uncertified.json"
    bad.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "wallcross", "certify", "--input", str(bad))
    assert code == 1
    assert "certified: False" in out


def test_homology_of_complex_json_input(coll_path, tmp_path, capsys):
    code, out, _ = run(
        capsys, "wallcross", "cycle", "--input", str(coll_path), "--format", "json"
    )
    assert code == 0
    complex_doc = json.loads(out)["complex"]
    cpath = tmp_path / "complex.json"
    cpath.write_text(json.dumps(complex_doc))
    code, out, _ = run(capsys, "complex", "homology", "--input", str(cpath), "--deg", "1")
    assert code == 0 and "H_1 = Z" in out


def test_homology_of_collection_complex(coll_path, capsys):
    code, out, _ = run(
        capsys, "complex", "homology", "--input", str(coll_path), "--deg", "1"
    )
    assert code == 0
    assert "H_1 = Z" in out


def test_complex_build_json(coll_path, capsys):
    code, out, _ = run(
        capsys, "complex", "build", "--input", str(coll_path), "--format", "json"
    )
    assert code == 0
    doc = parse_report("complex", "build", out)
    K = complex_from_json(doc["adjunction"])
    assert len(K.simplices(1)) == 4


def test_cycle_emits_chain(coll_path, capsys):
    code, out, _ = run(
        capsys, "wallcross", "cycle", "--input", str(coll_path), "--format", "json"
    )
    assert code == 0
    doc = parse_report("wallcross", "cycle", out)
    z = chain_from_json(doc["chain"])
    assert len(z.terms) == 4 and z.boundary().is_zero()


def _host_collection_with_cone(coll_path, tmp_path):
    doc = json.loads(coll_path.read_text())
    cat = Catalog.from_json(doc["catalog"])
    host = cat.with_surface(
        SurfaceClass("W", HomologyClass(), 0), disjoint_from=list(cat.ids())
    )
    doc["catalog"] = host.to_json()
    host_path = tmp_path / "host.json"
    host_path.write_text(json.dumps(doc))

    coll = WallCrossingCollection.from_json(doc)
    from surfcomplex.wallcross import cone_bounding

    bnd = cone_bounding(host, coll, "W")
    bnd_path = tmp_path / "bounding.json"
    bnd_path.write_text(json.dumps(bnd.to_json()))
    return host_path, bnd_path, bnd


def test_bounding_verify_and_mutation(coll_path, tmp_path, capsys):
    host_path, bnd_path, bnd = _host_collection_with_cone(coll_path, tmp_path)
    code, out, _ = run(
        capsys, "bounding", "verify", "--input", str(host_path), "--bounding", str(bnd_path)
    )
    assert code == 0 and "verified: True" in out

    # drop one simplex: exit 1 and a printed residual
    broken = BoundingCollection(bnd.terms[1:], bnd.ambient)
    broken_path = tmp_path / "broken.json"
    broken_path.write_text(json.dumps(broken.to_json()))
    code, out, _ = run(
        capsys, "bounding", "verify", "--input", str(host_path), "--bounding", str(broken_path)
    )
    assert code == 1
    assert "residual" in out


def test_bounding_coefficient_must_be_integer(coll_path, tmp_path, capsys):
    host_path, bnd_path, _ = _host_collection_with_cone(coll_path, tmp_path)
    doc = json.loads(bnd_path.read_text())
    doc["terms"][0]["coeff"] = 0.5
    bnd_path.write_text(json.dumps(doc))
    code, out, err = run(
        capsys, "bounding", "verify", "--input", str(host_path), "--bounding", str(bnd_path)
    )
    assert code == 2 and out == ""
    assert err.startswith(f"error: {bnd_path}: malformed input: TypeError: ")


def test_constraints_derive(coll_path, tmp_path, capsys):
    host_path, bnd_path, _ = _host_collection_with_cone(coll_path, tmp_path)
    code, out, _ = run(
        capsys, "constraints", "derive", "--input", str(host_path),
        "--bounding", str(bnd_path), "--seed-value", "1", "--format", "json",
    )
    assert code == 0
    doc = parse_report("constraints", "derive", out)
    assert doc["members"] == ["W"]
    code, _, err = run(
        capsys, "constraints", "derive", "--input", str(host_path),
        "--bounding", str(bnd_path), "--seed-value", "0",
    )
    assert code == 2 and "no conclusion" in err


def test_invariant_evaluate(coll_path, capsys):
    code, out, _ = run(
        capsys, "invariant", "evaluate", "--input", str(coll_path),
        "--m-model", "k3", "--seed-value", "1", "--format", "json",
    )
    assert code == 0
    doc = parse_report("invariant", "evaluate", out)
    assert doc["pairing"]["magnitude"] == 1
    assert doc["host"]["b_plus"] == 5


def test_paramgeo_selftest_cli(capsys):
    code, out, _ = run(
        capsys, "paramgeo", "selftest", "--seed", "2", "--max-dim", "2", "--format", "json"
    )
    assert code == 0
    doc = parse_report("paramgeo", "selftest", out)
    assert doc["ok"] is True


def test_paramgeo_selftest_max_dim_is_honoured(capsys):
    code, out, _ = run(capsys, "paramgeo", "selftest", "--max-dim", "4", "--format", "json")
    assert code == 0
    checks = {c["name"]: c for c in parse_report("paramgeo", "selftest", out)["checks"]}
    assert checks["cube-cover"]["points"] == 5 * 5 ** 4
    assert checks["scale-minimum"]["expected"] == "1/16"


# sha256 of `paramgeo selftest --format json` per argument set, recorded
# before the cube side ran on integer numerators: exactness work must not
# move a byte of these reports
SELFTEST_DIGESTS = {
    (): "ddc3e6e17935795d7413da38f61a521f98a35d96acc23914cc1626ca8ae2b4a5",
    ("--max-dim", "4"): "bd35ad262023e1f19724ba41b5abf4bb55e381606843f3c60b74ef1d3f5de9fd",
    ("--max-dim", "5"): "8d52723f20d9af91fd43828a8c9d35cf8b99cea317c96d252faa90e6e76d32dd",
    ("--warp", "printed"): "e78b025b110e06c7f351f548dfba54f97963ff4a31bcca493e0efdea19aba225",
    ("--seed", "3", "--max-dim", "4"): "f0975f64f8cc4e9b6874cca68d5f3d81e6b903964c27a22abd335e05043ae504",
}


@pytest.mark.parametrize("argv", list(SELFTEST_DIGESTS))
def test_paramgeo_selftest_report_bytes(capsys, argv):
    code, out, _ = run(capsys, "paramgeo", "selftest", *argv, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SELFTEST_DIGESTS[argv]


def test_paramgeo_selftest_max_dim_out_of_range_exit_2(capsys):
    code, out, err = run(capsys, "paramgeo", "selftest", "--max-dim", "7")
    assert code == 2
    assert out == ""
    assert "max_dim" in err


def test_oversized_complex_exit_2(coll_path, monkeypatch, capsys):
    monkeypatch.setattr(simplicial, "FLAG_MAX_SIMPLICES", 3)
    code, out, err = run(capsys, "complex", "build", "--input", str(coll_path))
    assert code == 2
    assert out == ""
    assert err == "error: flag complex exceeds 3 simplices at max_dim 4\n"


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_internal_error_exit_3(monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_paramgeo_selftest", broken)
    code, out, err = run(capsys, "paramgeo", "selftest")
    assert code == 3
    assert err == "internal error: RuntimeError: boom\n"


def test_handler_key_error_is_internal_exit_3(monkeypatch, capsys):
    def broken(args):
        raise KeyError("internal")

    monkeypatch.setattr(cli, "cmd_paramgeo_selftest", broken)
    code, out, err = run(capsys, "paramgeo", "selftest")
    assert code == 3
    assert err == "internal error: KeyError: 'internal'\n"


def test_paramgeo_selftest_tolerance_is_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["paramgeo", "selftest", "--tolerance", "1e-3"])
    assert exc.value.code == 2
    assert "--tolerance" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("complex", "homology", "--deg", "-1"),
    ("complex", "homology", "--deg", "1", "--max-dim", "-1"),
    ("complex", "build", "--max-dim", "-1"),
])
def test_negative_degree_or_dimension_exit_2(coll_path, capsys, argv):
    code, out, err = run(capsys, *argv, "--input", str(coll_path))
    assert code == 2 and out == ""
    assert "must be >= 0" in err


def _without_basis(doc):
    del doc["catalog"]["manifold"]["basis"]
    return doc["catalog"]


def _manifold_as_list(doc):
    doc["catalog"]["manifold"] = []
    return doc["catalog"]


def _euler_overflows(doc):
    doc["catalog"]["manifold"]["euler"] = float("inf")
    return doc["catalog"]


def _genus_fractional(doc):
    doc["catalog"]["surfaces"][0]["genus"] = 1.9
    return doc["catalog"]


def _genus_bool(doc):
    doc["catalog"]["surfaces"][0]["genus"] = True
    return doc["catalog"]


def _square_fractional(doc):
    doc["catalog"]["manifold"]["basis"][0]["square"] = 1.5
    return doc["catalog"]


@pytest.mark.parametrize("argv, make_doc", [
    (("homology", "--deg", "1"), lambda doc: {"simplices": 5}),
    (("homology", "--deg", "1"), lambda doc: {"simplices": [["a", 1]]}),
    (("build",), _without_basis),
    (("build",), _manifold_as_list),
    (("build",), _euler_overflows),
    (("build",), lambda doc: 5),
    (("build",), _genus_fractional),
    (("build",), _genus_bool),
    (("build",), _square_fractional),
])
def test_malformed_document_exit_2(coll_path, tmp_path, capsys, argv, make_doc):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(make_doc(json.loads(coll_path.read_text()))))
    code, out, err = run(capsys, "complex", *argv, "--input", str(bad))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {bad}: malformed input: ")


def test_malformed_json_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"manifold": \n  broken')
    code, _, err = run(capsys, "complex", "build", "--input", str(bad))
    assert code == 2
    # line-anchored diagnostics
    assert f"{bad}:2:" in err


def test_semantic_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"surfaces": []}))
    code, _, err = run(capsys, "complex", "build", "--input", str(bad))
    assert code == 2
    assert "manifold" in err


def test_reports_byte_identical(coll_path, tmp_path, capsys):
    outputs = []
    for name in ("a.json", "b.json"):
        out_path = tmp_path / name
        code = main(
            [
                "wallcross", "certify", "--input", str(coll_path),
                "--format", "json", "--output", str(out_path),
            ]
        )
        capsys.readouterr()
        assert code == 0
        outputs.append(out_path.read_bytes())
    assert outputs[0] == outputs[1]

    runs = []
    for _ in range(2):
        code, out, _ = run(
            capsys, "paramgeo", "selftest", "--seed", "7", "--max-dim", "2",
            "--format", "json",
        )
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]


def test_every_json_report_roundtrips(coll_path, tmp_path, capsys):
    host_path, bnd_path, _ = _host_collection_with_cone(coll_path, tmp_path)
    cases = [
        (("examples", "make"), ["examples", "make", "--kind", "ex46", "--k", "1",
                                "--d", "2,2", "--l", "4"]),
        (("complex", "build"), ["complex", "build", "--input", str(coll_path)]),
        (("complex", "homology"), ["complex", "homology", "--input", str(coll_path), "--deg", "1"]),
        (("wallcross", "certify"), ["wallcross", "certify", "--input", str(coll_path)]),
        (("wallcross", "cycle"), ["wallcross", "cycle", "--input", str(coll_path)]),
        (("bounding", "verify"), ["bounding", "verify", "--input", str(host_path),
                                  "--bounding", str(bnd_path)]),
        (("constraints", "derive"), ["constraints", "derive", "--input", str(host_path),
                                     "--bounding", str(bnd_path), "--seed-value", "1"]),
        (("invariant", "evaluate"), ["invariant", "evaluate", "--input", str(coll_path),
                                     "--m-model", "k3", "--seed-value", "1"]),
        (("paramgeo", "selftest"), ["paramgeo", "selftest", "--max-dim", "2"]),
    ]
    for key, argv in cases:
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0, key
        parse_report(key[0], key[1], out)


def test_catalog_diagnostic_is_independent_of_hash_seed(coll_path, tmp_path):
    # A catalog whose disjoint pairs all name missing surfaces: the pair
    # reported must not depend on set iteration order.
    doc = json.loads(coll_path.read_text())["catalog"]
    doc["surfaces"] = []
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    src = str(Path(cli.__file__).resolve().parents[1])
    results = []
    for hash_seed in ("1", "2", "3", "4"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "surfcomplex.cli", "complex", "build", "--input", str(bad)],
            capture_output=True, env=env,
        )
        results.append((proc.returncode, proc.stderr))
    assert results[0][0] == 2
    assert b"('S1+', 'S2+') references unknown surface" in results[0][1]
    assert all(r == results[0] for r in results)


def test_cli_import_leaves_scipy_unloaded():
    # scipy serves only the quadrature oracle; importing it dominates start-up
    src = str(Path(cli.__file__).resolve().parents[1])
    code = "import sys, surfcomplex.cli; sys.exit('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0


def _family_path(tmp_path, capsys, k, copies=False):
    """An ex46 k-family (all degrees 2, blocks of 4), optionally with one
    parallel copy of every surface in its catalog."""
    path = tmp_path / f"ex46-k{k}{'-copies' if copies else ''}.json"
    d, l = ",".join(["2"] * (2 * k)), ",".join(["4"] * k)
    code, _, _ = run(capsys, "examples", "make", "--kind", "ex46", "--k", str(k), "--d", d, "--l", l,
                     "--format", "json", "--output", str(path))
    assert code == 0
    if copies:
        doc = json.loads(path.read_text())
        catalog = Catalog.from_json(doc["catalog"])
        for sid in catalog.ids():
            catalog = catalog.with_parallel_copy(sid)
        doc["catalog"] = catalog.to_json()
        path.write_text(json.dumps(doc))
    return path


# sha256 of JSON reports at the default --max-dim 4, recorded before flag
# complexes were filled level by level: construction work must not move a
# byte of them
REPORT_DIGESTS = {
    ("complex", "build", 6, False): "8149703337475407912d56b6d22c88b356c45d98c41f81bcdb7ec599dc30f9d4",
    ("complex", "build", 5, True): "0f7614dcfac192f4ecca7b5a2fa89e89ee779037d93d013f5267d48a1131d9cf",
    ("wallcross", "cycle", 7, False): "e81d6c43d758d6f3a2e35361968decbb2698326d1928bce1dc009c089424deed",
}


@pytest.mark.parametrize("key", list(REPORT_DIGESTS), ids=lambda key: "-".join(map(str, key)))
def test_report_bytes_are_pinned(tmp_path, capsys, key):
    command, subcommand, k, copies = key
    path = _family_path(tmp_path, capsys, k, copies)
    code, out, _ = run(capsys, command, subcommand, "--input", str(path), "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == REPORT_DIGESTS[key]


def _nonzero_pairing(doc):
    # every pair declared disjoint: S1+/S1- and S2+/S2- pair to 8
    ids = [s["id"] for s in doc["surfaces"]]
    doc["disjoint"] = [[a, b] for i, a in enumerate(ids) for b in ids[i + 1:]]
    return b"surfaces 'S1+', 'S1-' declared disjoint but pair 8"


def _label_outside_basis(doc):
    # two surfaces in disjoint pairs use labels the manifold lacks
    doc["surfaces"][0]["class"].update({"Z9": 1, "Y7": 1})
    doc["surfaces"][3]["class"]["X5"] = 1
    return b"classes use labels outside the basis: ['Y7', 'Z9']"


@pytest.mark.parametrize("spoil", [_nonzero_pairing, _label_outside_basis])
def test_catalog_error_is_independent_of_hash_seed(coll_path, tmp_path, spoil):
    doc = json.loads(coll_path.read_text())["catalog"]
    message = spoil(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    src = str(Path(cli.__file__).resolve().parents[1])
    results = []
    for hash_seed in ("1", "2", "3", "4"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "surfcomplex.cli", "complex", "build", "--input", str(bad)],
            capture_output=True, env=env,
        )
        results.append((proc.returncode, proc.stderr))
    assert results[0][0] == 2
    assert message in results[0][1]
    assert all(r == results[0] for r in results)
