"""Command-line behavior: exit codes, files, determinism."""

import json
import shutil
import subprocess
import sys

import pytest

import latcon
from latcon import birkhoff as bk
from latcon import catalog
from latcon import congruence as cg
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
        ],
        ids=[
            "non-integer-cover", "cover-not-a-pair", "bool-size",
            "non-integer-order-key", "order-entry-too-large", "order-entry-negative",
            "order-key-names-no-element",
        ],
    )
    def test_malformed_lattice_is_input_error(self, tmp_path, capsys, text):
        p = tmp_path / "bad.json"
        p.write_text(text)
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
        obj = jio.hom_to_obj(bk.enumerate_bounded_homs(D, E)[0])
        obj["map"][obj["map"].index(1)] = entry
        p = tmp_path / "phi.json"
        p.write_text(json.dumps(obj))
        rc = main(["build-filter", "grid-2x2", "m3", str(p), "--out", str(tmp_path)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

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
        p.write_text(jio.dumps(jio.hom_to_obj(phi)))
        rc = main(["build-filter", "grid-2x2", "m3", str(p), "--out", str(tmp_path)])
        assert rc == 0

    def test_hom_endpoint_mismatch_is_exit_2(self, tmp_path, capsys):
        D = cg.congruence_lattice(catalog.get("m3")).as_lattice()
        phi = bk.make_bounded_hom(D, D, range(D.n))
        p = tmp_path / "phi.json"
        p.write_text(jio.dumps(jio.hom_to_obj(phi)))
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


@pytest.mark.parametrize(
    "argv",
    [
        ["demo", "s7", "--out", "{F}/sub"],
        ["build-filter", "s7", "s7", "--hom-index", "0", "--out", "{F}"],
        ["con", "s7", "--out", "{F}/x.json"],
        ["render", "s7", "--out", "{F}/a.svg"],
    ],
    ids=["demo", "build-filter", "con", "render"],
)
def test_unwritable_out_is_input_error(tmp_path, capsys, argv):
    F = tmp_path / "F"
    F.write_text("")
    assert main([a.format(F=F) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {F}") and err.count("\n") == 1


class TestConsoleScript:
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
