"""Command-line behavior: exit codes, files, determinism."""

import ast
import hashlib
import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import helpers
import latcon
import lemmas
from latcon import birkhoff as bk
from latcon import catalog
from latcon import congruence as cg
from latcon import construction as cn
from latcon import jsonio as jio
from latcon import verify as vf
from latcon.cli import main


def read_json(path):
    return json.loads(path.read_text())


class TestInputResolution:
    def test_catalog_name(self, capsys):
        assert main(["con", "s7"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["lattice"]["size"] == 7

    def test_file_path(self, tmp_path, capsys):
        p = tmp_path / "sq.json"
        p.write_text(jio.dumps(jio.lattice_to_obj(catalog.get("grid-2x2"))))
        assert main(["con", str(p)]) == 0

    def test_env_catalog(self, tmp_path, capsys, monkeypatch):
        (tmp_path / "thing.json").write_text(
            jio.dumps(jio.lattice_to_obj(catalog.get("chain-3")))
        )
        monkeypatch.setenv("LATCON_CATALOG", str(tmp_path))
        assert main(["con", "thing"]) == 0

    def test_unknown_name_is_input_error(self, capsys):
        assert main(["render", "no-such-lattice"]) == 2

    def test_broken_json_is_input_error(self, tmp_path, capsys):
        p = tmp_path / "broken.json"
        p.write_text("{nope")
        assert main(["con", str(p)]) == 2

    @pytest.mark.parametrize(
        "text",
        [
            '{"size": 3, "covers": [["a", 1]]}',
            '{"size": 3, "covers": [[0, 1, 2]]}',
            '{"size": true, "covers": []}',
            '{"size": 2, "covers": [[0, 1]], "upper_order": {"x": [1]}}',
            '{"size": 2, "covers": [[0, 1]], "upper_order": {"0": [5]}}',
            '{"size": 2, "covers": [[0, 1]], "upper_order": {"0": [-1]}}',
            '{"size": 3, "covers": [[0, 1], [1, 2]], "upper_order": {"7": [1]}}',
            "\xff\xfe\x00",
            "[" * 100000 + "]" * 100000,
        ],
        ids=[
            "non-integer-cover", "cover-not-a-pair", "bool-size",
            "non-integer-order-key", "order-entry-too-large", "order-entry-negative",
            "order-key-names-no-element", "not-utf-8", "nesting-too-deep",
        ],
    )
    def test_malformed_lattice_is_input_error(self, tmp_path, capsys, text):
        p = tmp_path / "bad.json"
        p.write_bytes(text.encode("latin-1"))  # one byte per character
        assert main(["con", str(p)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "claims",
        [
            '"lc": 9, "rc": 2, "eyes": []',
            '"lc": 1, "rc": -2, "eyes": []',
            '"lc": 1, "rc": 2, "eyes": [9]',
        ],
        ids=["corner-out-of-range", "corner-negative", "eye-out-of-range"],
    )
    def test_malformed_rect_claim_is_input_error(self, tmp_path, capsys, claims):
        p = tmp_path / "bad.json"
        square = '"size": 4, "covers": [[0, 1], [0, 2], [1, 3], [2, 3]]'
        p.write_text("{%s, %s}" % (square, claims))
        assert main(["check-ideal", str(p)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", ["x", True, 1.5], ids=["string", "bool", "float"])
    def test_malformed_hom_entry_is_input_error(self, tmp_path, capsys, entry):
        D = cg.congruence_lattice(catalog.get("grid-2x2")).as_lattice()
        E = cg.congruence_lattice(catalog.get("m3")).as_lattice()
        obj = helpers.hom_to_obj(bk.enumerate_bounded_homs(D, E)[0])
        obj["map"][obj["map"].index(1)] = entry
        p = tmp_path / "phi.json"
        p.write_text(json.dumps(obj))
        rc = main(["build-filter", "grid-2x2", "m3", str(p), "--out", str(tmp_path)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command",
        [["con", "{p}"], ["check-ideal", "{p}"], ["build-filter", "m3", "m3", "{p}", "-o", "{o}"]],
        ids=["con", "check-ideal", "hom-file"],
    )
    def test_null_json_is_not_a_missing_file(self, tmp_path, capsys, command):
        p = tmp_path / "F.json"
        p.write_text("null\n")
        assert main([a.format(p=p, o=tmp_path / "out") for a in command]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "no such file" not in err

    @pytest.mark.parametrize(
        "obj, message",
        [
            ({"size": 30000, "covers": [[0, 1]]},
             "no unique bottom: minimal elements [0, 2, 3, 4, 5, 6, 7, 8, 9, 10, … (29989 more)]"),
            ({"size": 3000, "covers": [[0, x] for x in range(1, 3000)]},
             "no unique top: maximal elements [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, … (2989 more)]"),
            ({"size": 3000, "covers": [[x, x + 1] for x in range(2999)] + [[0, 2999]]},
             "cover (0, 2999) is implied by transitivity through "
             "[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, … (2988 more)]"),
            ({"size": 3, "covers": [[0, 1]]}, "no unique bottom: minimal elements [0, 2]"),
            ({"size": 11, "covers": [[0, 1]]},
             "no unique bottom: minimal elements [0, 2, 3, 4, 5, 6, 7, 8, 9, 10]"),
            ({"size": 12, "covers": [[0, 1]]},
             "no unique bottom: minimal elements [0, 2, 3, 4, 5, 6, 7, 8, 9, 10, … (1 more)]"),
        ],
        ids=["bottoms", "tops", "transitivity", "two", "ten", "eleven"],
    )
    def test_element_lists_in_errors_are_capped(self, tmp_path, capsys, obj, message):
        p = tmp_path / "F.json"
        p.write_text(json.dumps(obj))
        assert main(["con", str(p)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {p}: {message}\n"
        assert len(err.encode()) < 150 + len(str(p))

    @pytest.mark.parametrize(
        "argv, err",
        [
            (["check-ideal", "n5"], "n5: lattice is not semimodular"),
            (["build-filter", "m3", "n5", "--hom-index", "0", "-o", "{o}"],
             "n5: lattice is not semimodular"),
            (["embed-simple", "n5", "-o", "{o}"], "n5: lattice is not semimodular"),
            (["check-ideal", "nope"],
             "nope: no such file or catalog entry (unknown catalog lattice 'nope')"),
            (["embed-simple", "nope", "-o", "{o}"],
             "nope: no such file or catalog entry (unknown catalog lattice 'nope')"),
        ],
        ids=["check-ideal", "build-filter", "embed-simple", "unknown", "unknown-embed"],
    )
    def test_catalog_entry_not_rectangular_is_not_missing(self, tmp_path, capsys, argv, err):
        assert main([a.format(o=tmp_path / "out") for a in argv]) == 2
        assert capsys.readouterr().err == f"error: {err}\n"

    def test_plain_lattice_accepted_for_rect_argument(self, tmp_path, capsys):
        p = tmp_path / "sq.json"
        p.write_text(jio.dumps(jio.lattice_to_obj(catalog.get("grid-2x2"))))
        assert main(["check-ideal", str(p)]) == 0


class TestBuildCommands:
    def test_build_filter_writes_result_and_report(self, tmp_path, capsys):
        rc = main(
            ["build-filter", "grid-2x2", "m3", "--hom-index", "0",
             "--out", str(tmp_path)]
        )
        assert rc == 0
        result = read_json(tmp_path / "result.json")
        assert result["size"] == 31
        report = read_json(tmp_path / "report.json")
        assert report["verification"]["summary"] is True
        assert report["construction"]["output"]["size"] == 31
        out = capsys.readouterr().out
        assert "summary: PASS" in out

    def test_build_ideal(self, tmp_path, capsys):
        rc = main(
            ["build-ideal", "m3", "grid-2x2", "--hom-index", "0",
             "--out", str(tmp_path)]
        )
        assert rc == 0
        assert read_json(tmp_path / "result.json")["size"] == 21

    def test_build_ideal_condition_failure_is_exit_4(self, tmp_path, capsys):
        rc = main(
            ["build-ideal", "grid-2x2", "s7", "--hom-index", "0",
             "--out", str(tmp_path)]
        )
        assert rc == 4
        assert not (tmp_path / "result.json").exists()

    def test_hom_file(self, tmp_path, capsys):
        D = cg.congruence_lattice(catalog.get("grid-2x2")).as_lattice()
        E = cg.congruence_lattice(catalog.get("m3")).as_lattice()
        phi = bk.enumerate_bounded_homs(D, E)[0]
        p = tmp_path / "phi.json"
        p.write_text(jio.dumps(helpers.hom_to_obj(phi)))
        rc = main(["build-filter", "grid-2x2", "m3", str(p), "--out", str(tmp_path)])
        assert rc == 0

    def test_hom_endpoint_mismatch_is_exit_2(self, tmp_path, capsys):
        D = cg.congruence_lattice(catalog.get("m3")).as_lattice()
        phi = bk.make_bounded_hom(D, D, range(D.n))
        p = tmp_path / "phi.json"
        p.write_text(jio.dumps(helpers.hom_to_obj(phi)))
        rc = main(["build-filter", "grid-2x2", "m3", str(p), "--out", str(tmp_path)])
        assert rc == 2

    def test_hom_index_out_of_range_is_exit_2(self, tmp_path, capsys):
        rc = main(
            ["build-filter", "grid-2x2", "m3", "--hom-index", "9",
             "--out", str(tmp_path)]
        )
        assert rc == 2

    def test_missing_hom_is_exit_2(self, tmp_path, capsys):
        assert main(["build-filter", "grid-2x2", "m3", "--out", str(tmp_path)]) == 2

    def test_failing_verification_is_exit_1_without_files(
        self, tmp_path, capsys, monkeypatch
    ):
        bad = vf.VerificationReport((vf.CheckResult("injected", False, "fault"),))
        monkeypatch.setattr(vf, "verify_filter_representation", lambda *args: bad)
        rc = main(
            ["build-filter", "s7", "m3", "--hom-index", "0", "--out", str(tmp_path)]
        )
        assert rc == 1
        assert "FAIL injected — fault" in capsys.readouterr().out.splitlines()
        assert not (tmp_path / "result.json").exists()

    def test_build_filter_verifies_once(self, tmp_path, capsys, monkeypatch):
        calls = []
        check = vf.verify_filter_representation

        def counted(*args):
            calls.append(args)
            return check(*args)

        monkeypatch.setattr(vf, "verify_filter_representation", counted)
        rc = main(
            ["build-filter", "s7", "m3", "--hom-index", "0", "--out", str(tmp_path)]
        )
        assert rc == 0
        assert len(calls) == 1

    def test_embed_simple(self, tmp_path, capsys):
        rc = main(["embed-simple", "grid-2x2", "--out", str(tmp_path)])
        assert rc == 0
        assert read_json(tmp_path / "result.json")["size"] == 21
        out = capsys.readouterr().out
        assert "2 congruences" in out

    def test_embed_simple_fork_is_exit_4(self, tmp_path, capsys):
        assert main(["embed-simple", "s7", "--out", str(tmp_path)]) == 4


class TestCheckIdeal:
    def test_holding_input(self, capsys):
        assert main(["check-ideal", "grid-2x2"]) == 0
        assert "holds" in capsys.readouterr().out

    def test_failing_input_reports_blocks(self, capsys):
        assert main(["check-ideal", "s7"]) == 4
        out = capsys.readouterr().out
        assert "fails" in out
        assert "[[0], [1, 3], [2, 5], [4, 6]]" in out

    def test_search_reports_first_witness(self, capsys):
        assert main(["check-ideal", "--search", "--max-size", "7"]) == 0
        out = capsys.readouterr().out
        assert "fork (n=7): fails" in out
        assert "witnesses up to 7 elements: fork" in out

    def test_search_below_witness_size(self, capsys):
        assert main(["check-ideal", "--search", "--max-size", "6"]) == 0
        assert "no witness up to 6 elements" in capsys.readouterr().out

    def test_no_argument_is_exit_2(self, capsys):
        assert main(["check-ideal"]) == 2


class TestRenderAndBrt:
    def test_render_svg(self, tmp_path, capsys):
        out = tmp_path / "s7.svg"
        assert main(["render", "s7", "-o", str(out)]) == 0
        svg = out.read_text()
        assert svg.count("<circle") == 7 and svg.count('class="steep"') == 1

    def test_render_dot_to_stdout(self, capsys):
        assert main(["render", "m3", "--format", "dot"]) == 0
        assert capsys.readouterr().out.startswith("graph")

    def test_brt(self, capsys):
        assert main(["brt", "c2xc2", "c2xc2"]) == 0
        out = capsys.readouterr().out
        assert "4 bounded homs" in out
        assert out.count("round_trip=True") == 4

    def test_brt_non_distributive_is_exit_2(self, capsys):
        assert main(["brt", "m3", "c2"]) == 2

    def test_brt_one_element_source_non_distributive_target(self, tmp_path, capsys):
        one = tmp_path / "one.json"
        one.write_text('{"size":1,"covers":[]}')
        assert main(["brt", str(one), "n5"]) == 2
        assert capsys.readouterr().err == "error: target lattice is not distributive\n"


class TestDemo:
    def test_demo_end_to_end_and_byte_identical(self, tmp_path, capsys):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert main(["demo", "s7", "--out", str(out1)]) == 0
        assert main(["demo", "s7", "--out", str(out2)]) == 0
        names = sorted(p.name for p in out1.iterdir())
        assert names == [
            "construction-report.json",
            "extension-report.json",
            "extension.json",
            "input.json",
            "input.svg",
            "result.json",
            "result.svg",
            "verification.json",
            "verification.txt",
        ]
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
        assert read_json(out1 / "verification.json")["summary"] is True
        assert read_json(out1 / "result.json")["size"] == 65
        assert read_json(out1 / "extension.json")["size"] == 40

    def test_unknown_demo_is_exit_2(self, capsys):
        assert main(["demo", "nope"]) == 2


class TestFrozenOutputBytes:
    # sha256 of output files as written before the pipelines read colors
    # from the edge coloring; a construction change that moves an eye, a
    # color position or an element id changes one of them
    DIGESTS = {
        ("demo", "s7"): {
            "construction-report.json": "d3b6e32992f871e74e6e19907c1cc5a58c8a8d70474a695607fd591f9ee2a43e",
            "extension-report.json": "8bbaa5b2d174270e022a6b61bcfb190cd5e7717803bc0b0347ecc8c81270a870",
            "extension.json": "c7d29556775d0bf34b6cefff8c59416bec39fe1f865717068c13ce3af00ec2f1",
            "input.json": "ff8398558974eab2772ad13cfc1baf4d1b26717797b7de67899c5878756eaece",
            "input.svg": "21f0b9f43efcd4bd889ace706cfabbdead9bc5aee4d8e404aa32fef3e7e51acf",
            "result.json": "2ddddb96c630e140037f1345f2927d0e00b9345fe959bd5042f13bffad803f47",
            "result.svg": "65e648a2716cae41f61b8559f929b21ade2bc4790e7935ff61de8a3473814211",
            "verification.json": "034f41236a44cc9b09e5a2fce1524a79c0f761218590959756e3741d9b54d0a3",
            "verification.txt": "0fe70e380599a2501525f54abfa408171bedb6ff2e1693c8488afd72f6f2a7ae",
        },
        ("build-filter", "s7", "m3", "--hom-index", "0"): {
            "report.json": "293fcab5fa6fe98ea665e66094af5418e26f15d65c5de7f856a0ee7b0e52d533",
        },
        ("build-ideal", "m3", "grid-2x2", "--hom-index", "0"): {
            "report.json": "4e05d4696b08af11fb03a269e0171ccbc69dfb1226d456ae37ccb5eeb9589602",
        },
    }

    @pytest.mark.parametrize("argv", list(DIGESTS), ids=["demo", "build-filter", "build-ideal"])
    def test_digests(self, tmp_path, capsys, argv):
        assert main([*argv, "--out", str(tmp_path)]) == 0
        want = self.DIGESTS[argv]
        got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in want}
        assert got == want


class TestFrozenConBytes:
    # sha256 of `latcon con NAME` stdout, written while Con L still kept
    # its join-irreducible congruences as Congruence objects
    DIGESTS = {
        "c2": "dc793e8d84c1a971444d4bbb7e4b1fa77ba0e18da28c3c97e77596a580e16392",
        "c2xc2": "f734744b2cc0ed8175114cd392c744f6d95e8bb88efa972a02ec0533464bbadc",
        "c3": "111b6a52fbe71ecfaf28193549a35be9579f9d69c9f6c0015d37c99748cdec50",
        "c3xc3": "fd554f517f936f4308fe73d8bace052885f03e8d39dad94589b43bb9dcb692a5",
        "chain-2": "dc793e8d84c1a971444d4bbb7e4b1fa77ba0e18da28c3c97e77596a580e16392",
        "chain-3": "111b6a52fbe71ecfaf28193549a35be9579f9d69c9f6c0015d37c99748cdec50",
        "chain-4": "71e144d4ee115014aaf5a4132ab651723cb741581e195b7846eaf6d2c37c47f4",
        "con-s7": "27bfec0fbfb300a848a07298f518567a33674ee9a750446f0b9c70e8cdc3e492",
        "cube": "0dd4d2ea1b0ed0ef6a49f6c8764619380cad82efe28de7e1bbb2ddcabe196fbe",
        "grid-2x2": "f734744b2cc0ed8175114cd392c744f6d95e8bb88efa972a02ec0533464bbadc",
        "grid-2x3": "2a9acc15180af014c683bd1560354e178f48e5838ef3df05eb106b6abb857261",
        "grid-2x4": "fb61ae00aa8fb9c3a863dc3db2706f80df31f9a093898867eaa0a5dc250c59b2",
        "grid-2x5": "4e49d4c5ffe1eaa5e47822751ed25c3ffa034905fba3533c041fa3d6a8b9e7d7",
        "grid-3x3": "fd554f517f936f4308fe73d8bace052885f03e8d39dad94589b43bb9dcb692a5",
        "m3": "18dfe315a549bde6d0a5c27b1d7ebcf36106b1ba11db2adad3120b6e01171c27",
        "m4": "ed1d9e0ce5e8255480d0f7687a2d458a59d9189ad77054abbdf74b1c68c5aac0",
        "m5": "f977ac110f45e6bbffeb198e89030296083f3682f0c89ee84bee1a75ca49f330",
        "n5": "6d5938eaa36c3ef46981faf3b0c6ee8e01e4bad54ad7ae6f2ff38b45e0e4d79e",
        "s7": "e2103efd8e3e1570b39a650c7c645e578de625f53b2904a368b6f9edc60e929f",
        "s7-eye": "fdea83bc9e7511965f45949fec51e870cea74de54d1195c341e5f75fa978c0ff",
        "stacked-m3": "8a0c947fe654f602e9024fc34cda65295dc874c76b86b3e7cb9d1381701f584b",
    }

    def test_every_catalog_name_is_frozen(self):
        assert sorted(self.DIGESTS) == sorted(lemmas.names())

    @pytest.mark.parametrize("name", sorted(DIGESTS))
    def test_digest(self, capsys, name):
        assert main(["con", name]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == self.DIGESTS[name]


@pytest.mark.parametrize(
    "argv",
    [
        ["demo", "s7", "--out", "{F}/sub"],
        ["build-filter", "s7", "s7", "--hom-index", "0", "--out", "{F}"],
        ["build-ideal", "m3", "grid-2x2", "--hom-index", "0", "--out", "{F}"],
        ["embed-simple", "grid-2x3", "--out", "{F}/sub"],
        ["con", "s7", "--out", "{F}/x.json"],
        ["render", "s7", "--out", "{F}/a.svg"],
    ],
    ids=["demo", "build-filter", "build-ideal", "embed-simple", "con", "render"],
)
def test_unwritable_out_is_input_error(tmp_path, capsys, monkeypatch, argv):
    calls = []
    for name in ("filter_representation", "ideal_representation", "simple_ideal_embedding"):
        monkeypatch.setattr(cn, name, lambda *args, name=name: calls.append(name))
    F = tmp_path / "F"
    F.write_text("")
    assert main([a.format(F=F) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {F}") and err.count("\n") == 1
    assert calls == []  # the output directory is refused before any pipeline runs


class TestConsoleScript:
    def test_declared_entry_point_is_main(self, capsys):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
        assert scripts == {"latcon": "latcon.cli:main"}
        module, name = scripts["latcon"].split(":")
        entry = getattr(importlib.import_module(module), name)
        assert entry(["check-ideal", "s7"]) == 4
        assert "fails" in capsys.readouterr().out

    @pytest.mark.skipif(shutil.which("latcon") is None, reason="not installed")
    def test_entry_point_runs(self):
        proc = subprocess.run(
            ["latcon", "check-ideal", "s7"], capture_output=True, text=True
        )
        assert proc.returncode == 4
        assert "fails" in proc.stdout


def test_every_export_resolves():
    missing = [name for name in latcon.__all__ if not hasattr(latcon, name)]
    assert missing == []


def test_every_public_definition_has_a_caller():
    # a module-level function or class without a leading underscore must be
    # named, as an AST Name or Attribute, somewhere in the package outside
    # its own body; re-exports in __init__ are imports and do not count
    defs, refs = [], []
    for path in sorted(Path(latcon.__file__).resolve().parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            if owner and not owner.startswith("_"):
                defs.append((path.stem, owner))
            for node in ast.walk(top):
                if isinstance(node, (ast.Name, ast.Attribute)):
                    name = node.id if isinstance(node, ast.Name) else node.attr
                    refs.append((path.stem, owner, name))
    uncalled = [
        f"{module}.{name}" for module, name in defs
        if not any(n == name and (m, o) != (module, name) for m, o, n in refs)
    ]
    assert uncalled == []


def test_lattices_built_only_through_their_builders():
    # verify rebuilds its copies only through core.sublattice, and
    # construction builds lattices only through rectangular: neither
    # module names a lattice constructor of core
    builders = {"make_lattice", "make_lattice_with_map"}
    found = []
    for stem in ("verify", "construction"):
        path = Path(latcon.__file__).resolve().parent / f"{stem}.py"
        for node in ast.walk(ast.parse(path.read_text())):
            # an attribute, a plain name, or an imported or defined one
            name = getattr(node, "attr", None) or getattr(node, "id", None) or getattr(node, "name", None)
            if name in builders:
                found.append(f"{stem}:{node.lineno}: {name}")
    assert found == []


def test_hom_slots_stay_in_birkhoff():
    # how a hom stores its validation is birkhoff's decision alone: no
    # other package module reads or writes the slots of a hom or map, as
    # an attribute or as a string such as getattr's
    slots = {"_pulled", "_source", "_target", "_assignment"}
    found = []
    for path in sorted(Path(latcon.__file__).resolve().parent.glob("*.py")):
        if path.stem == "birkhoff":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                name = node.value
            else:
                continue
            if name in slots:
                found.append(f"{path.stem}:{node.lineno}: {name}")
    assert found == []
