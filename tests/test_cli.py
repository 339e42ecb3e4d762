"""Command-line behavior: exit codes, files, determinism."""

import ast
import errno
import hashlib
import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import count_lines
import helpers
import latcon
import lemmas
from latcon import birkhoff as bk
from latcon import catalog, cli, core
from latcon import congruence as cg
from latcon import construction as cn
from latcon import jsonio as jio
from latcon import rectangular as rl
from latcon import verify as vf
from latcon.cli import main
from latcon.errors import LatconError


def read_json(path):
    return json.loads(path.read_text())


def _boolean(k):
    """The Boolean lattice of 2^k elements."""
    B = core.chain(2)
    for _ in range(k - 1):
        B = core.direct_product(B, core.chain(2))
    return B


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
            '{"size": 3, "covers": [["0", 1], [1, 2]]}',
            '{"size": 3, "covers": [[0, "\\u0661"], [1, 2]]}',
            '{"size": 3, "covers": [[0, 1], [1, 2]], "upper_order": {"0": ["1"]}}',
            '{"size": 11, "covers": %s, "upper_order": {"1_0": []}}'
            % [[x, x + 1] for x in range(10)],
            '{"size": 4, "covers": [[0, 1], [1, 2], [2, 3]], "upper_order": {" 3 ": []}}',
        ],
        ids=[
            "non-integer-cover", "cover-not-a-pair", "bool-size",
            "non-integer-order-key", "order-entry-too-large", "order-entry-negative",
            "order-key-names-no-element", "not-utf-8", "nesting-too-deep",
            "string-cover-entry", "arabic-indic-cover-entry", "string-order-entry",
            "underscore-order-key", "spaced-order-key",
        ],
    )
    def test_malformed_lattice_is_input_error(self, tmp_path, capsys, text):
        p = tmp_path / "bad.json"
        p.write_bytes(text.encode("latin-1"))  # one byte per character
        assert main(["con", str(p)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv", [["con", "a" * 5000], ["render", "a" * 5000]], ids=["con", "render"])
    def test_overlong_path_is_input_error(self, capsys, argv):
        # the system refuses to look such a path up, with ENAMETOOLONG, and
        # the line shows the name's first and last 20 characters
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: {'a' * 20}… (4960 more characters) …{'a' * 20}:"
            f" {os.strerror(errno.ENAMETOOLONG)}\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["build-filter", "x/" * 150, "m3"],
             f"{'x/' * 10}… (260 more characters) …{'x/' * 10}: no such file or catalog entry"
             f" (unknown catalog lattice {'x/' * 10!r}… (260 more characters) …{'x/' * 10!r})"),
            (["build-filter", "m3", "m3", "x/" * 150],
             f"{'x/' * 10}… (260 more characters) …{'x/' * 10}: no such file"),
        ],
        ids=["lattice", "hom-file"],
    )
    def test_long_missing_name_is_named_in_a_short_line(self, tmp_path, capsys, argv, message):
        assert main([*argv, "-o", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_long_path_keeps_its_file_name(self, tmp_path, capsys):
        p = tmp_path / ("d" * 50) / "bad.json"
        p.parent.mkdir()
        p.write_text("{")
        assert main(["con", str(p)]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {'d' * 20}… (19 more characters) …{'d' * 11}/bad.json: ")

    def test_long_names_in_a_budget_refusal(self, tmp_path, capsys):
        # two 128-element Boolean lattices have 7^7 bounded homs, over the
        # hom budget; each name shows its first and last 20 characters, so
        # the end of its file name
        d = tmp_path / ("d" * 100) / ("b" * 100 + ".json")
        e = tmp_path / ("e" * 200 + ".json")
        d.parent.mkdir()
        for path in (d, e):
            path.write_text(jio.dumps(jio.lattice_to_obj(_boolean(7))))
        assert main(["brt", str(d), str(e)]) == 2
        assert capsys.readouterr().err == (
            f"error: {'d' * 20}… (166 more characters) …{'b' * 15}.json ->"
            f" {'e' * 20}… (165 more characters) …{'e' * 15}.json:"
            " more than 65536 bounded homs exceed the hom budget\n")

    def test_integer_too_long_to_convert_is_input_error(self, tmp_path, capsys):
        p = tmp_path / "big.json"
        p.write_text('{"size": 1%s, "covers": []}' % ("0" * 5000))
        assert main(["con", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {p}: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "obj, message",
        [
            ({"size": 3, "covers": [list(range(100000))]},
             "cover entry [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, … (99990 more)] is not a pair"),
            ({"size": 2, "covers": [[0, 1]], "upper_order": {"x" * 100000: [1]}},
             f"upper_order key must be an integer, got {'x' * 20!r}… (99960 more characters)"
             f" …{'x' * 20!r}"),
        ],
        ids=["cover-entry-of-100000-ids", "order-key-of-100000-characters"],
    )
    def test_long_value_is_named_in_a_short_line(self, tmp_path, capsys, obj, message):
        p = tmp_path / "long.json"
        p.write_text(json.dumps(obj))
        assert main(["con", str(p)]) == 2
        assert capsys.readouterr().err == f"error: {p}: {message}\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"size": 3, "covers": [["0", 1], [1, 2]]}',
             "cover entry must be an integer, got '0'"),
            ('{"size": 3, "covers": [[0, 1], [1, 2]], "upper_order": {"1_0": [0]}}',
             "upper_order key must be an integer, got '1_0'"),
            ('{"size": 3, "covers": [[0, 1], [1, 2]], "upper_order": {"-1": [0]}}',
             "upper_order names element -1, out of range for size 3"),
            # the last of two keys that name one row used to win silently
            ('{"size": 4, "covers": [[0, 1], [0, 2], [1, 3], [2, 3]],'
             ' "lower_order": {"3": [1, 2], "03": [2, 1]}}',
             "lower_order keys '3' and '03' name one element"),
        ],
        ids=["string-value", "underscore-key", "negative-key", "two-keys-one-row"],
    )
    def test_ids_are_json_integers_and_keys_numerals(self, tmp_path, capsys, text, message):
        p = tmp_path / "bad.json"
        p.write_text(text)
        assert main(["con", str(p)]) == 2
        assert capsys.readouterr().err == f"error: {p}: {message}\n"

    SQUARE = '"size": 4, "covers": [[0, 1], [0, 2], [1, 3], [2, 3]]'
    M3 = '"size": 5, "covers": [[0, 1], [0, 2], [0, 3], [1, 4], [2, 4], [3, 4]]'  # eye 2

    @pytest.mark.parametrize(
        "body, claims",
        [
            (SQUARE, '"lc": 9, "rc": 2, "eyes": []'),
            (SQUARE, '"lc": 1, "rc": -2, "eyes": []'),
            (SQUARE, '"lc": 1, "rc": 2, "eyes": [9]'),
            (M3, '"lc": 1, "rc": 3, "eyes": ["2"]'),
        ],
        ids=["corner-out-of-range", "corner-negative", "eye-out-of-range", "string-eye"],
    )
    def test_malformed_rect_claim_is_input_error(self, tmp_path, capsys, body, claims):
        p = tmp_path / "bad.json"
        p.write_text("{%s, %s}" % (body, claims))
        assert main(["check-ideal", str(p)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "entry", ["x", True, 1.5, "1"], ids=["string", "bool", "float", "numeral-string"])
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

    @pytest.mark.parametrize("name", list(catalog.rect_catalog()))
    def test_catalog_rect_is_the_named_rectangular_lattice(self, name):
        # read off catalog.get by make_rectangular: the same rows, corners and eyes
        got, want = cli._catalog_rect(name), catalog.rect_catalog()[name]
        assert (got.lattice._upper, got.lattice._lower, got.lc, got.rc, list(got.eyes)) == (
            want.lattice._upper, want.lattice._lower, want.lc, want.rc, list(want.eyes))

    def test_plain_lattice_accepted_for_rect_argument(self, tmp_path, capsys):
        p = tmp_path / "sq.json"
        p.write_text(jio.dumps(jio.lattice_to_obj(catalog.get("grid-2x2"))))
        assert main(["check-ideal", str(p)]) == 0


class TestSizeLimit:
    """A file's claimed size is checked before anything of that size is
    allocated; each command runs with a 1 GiB address-space limit set on
    its own process only, so a missed check cannot exhaust the host."""

    BIG = '{"size": 1000000, "covers": [[0, 1]]}\n'

    def _run(self, *argv):
        resource = pytest.importorskip("resource")
        src = Path(latcon.__file__).resolve().parent.parent
        cap = 1 << 30
        return subprocess.run(
            [sys.executable, "-m", "latcon.cli", *argv], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src)}, timeout=120,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
        )

    def test_oversized_lattice_is_input_error(self, tmp_path):
        path = tmp_path / "big.json"
        path.write_text(self.BIG)
        assert len(self.BIG) == 38
        proc = self._run("con", str(path))
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"error: {path}: size 1000000 exceeds the limit of 32768 elements\n"

    def test_oversized_hom_endpoint_is_input_error(self, tmp_path):
        path = tmp_path / "hom.json"
        path.write_text(json.dumps({"source": json.loads(self.BIG), "target": json.loads(self.BIG),
                                    "map": [0]}))
        proc = self._run("build-filter", "grid-2x2", "m3", str(path), "--out", str(tmp_path))
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"error: {path}: size 1000000 exceeds the limit of 32768 elements\n"

    def test_con_beyond_the_budget_is_input_error(self, tmp_path):
        # a 64-element chain has 2^63 congruences: the count stops at the budget
        path = tmp_path / "chain.json"
        path.write_text(jio.dumps(jio.lattice_to_obj(core.chain(64))))
        proc = self._run("con", str(path))
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (
            f"error: {path}: more than 16384 congruences of 64 elements exceed the budget"
            " of 1048576 congruences times elements\n")

    def test_search_beyond_the_budget_is_input_error(self):
        # 8,416 candidates at 48 are counted, none built
        proc = self._run("check-ideal", "--search", "--max-size", "48")
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == ("error: --max-size 48: more than 8192 rectangular candidates"
                               " exceed the search budget\n")

    def test_search_count_stops_at_the_budget(self, capsys, monkeypatch):
        # a size far beyond the budget is refused at once, before any build
        monkeypatch.setattr(catalog, "search_rectangular", None)
        assert main(["check-ideal", "--search", "--max-size", str(10 ** 12)]) == 2
        assert "more than 8192 rectangular candidates" in capsys.readouterr().err

    def test_search_budget_admits_the_benchmark_size(self):
        def count(max_size):
            return core._count(catalog._candidates(max_size), cli._SEARCH_BUDGET + 1)

        assert count(24) == 587
        assert count(47) <= cli._SEARCH_BUDGET < count(48)

    @staticmethod
    def _count_closures(monkeypatch):
        """A list that records each principal closure run from now on."""
        closures = []
        closure = cg.principal_congruence
        monkeypatch.setattr(cg, "principal_congruence",
                            lambda L, a, b: closures.append((a, b)) or closure(L, a, b))
        return closures

    @pytest.mark.parametrize("lattice, most", [
        (core.chain(64), 16384),
        (core.direct_product(core.chain(11), core.chain(11)), 8665),
    ], ids=["chain-64", "grid-11x11"])
    def test_con_budget_is_checked_before_any_closure(self, lattice, most, tmp_path, capsys,
                                                      monkeypatch):
        # the congruences are counted off D* alone: a refused lattice runs
        # no principal closure (2^63 and 2^20 congruences here)
        path = tmp_path / "lattice.json"
        path.write_text(jio.dumps(jio.lattice_to_obj(lattice)))
        closures = self._count_closures(monkeypatch)
        assert main(["con", str(path)]) == 2
        assert capsys.readouterr() == ("", (
            f"error: {path}: more than {most} congruences of {lattice.n} elements exceed"
            " the budget of 1048576 congruences times elements\n"))
        assert closures == []

    def test_con_admitted_runs_one_closure_per_color(self, capsys, monkeypatch):
        closures = self._count_closures(monkeypatch)
        assert main(["con", "grid-3x3"]) == 0
        assert capsys.readouterr().out.startswith("{")
        assert len(closures) == 4

    def test_con_budget_is_the_most_entries_listed(self, capsys, monkeypatch):
        # Con of grid-3x3 has 16 congruences of 9 elements
        assert cli._CON_BUDGET == 1 << 20
        monkeypatch.setattr(cli, "_CON_BUDGET", 16 * 9)
        assert main(["con", "grid-3x3"]) == 0
        assert capsys.readouterr().out.startswith("{")
        monkeypatch.setattr(cli, "_CON_BUDGET", 16 * 9 - 1)
        assert main(["con", "grid-3x3"]) == 2
        assert capsys.readouterr() == ("", (
            "error: grid-3x3: more than 15 congruences of 9 elements exceed the budget"
            " of 143 congruences times elements\n"))

    def test_con_budget_counts_an_ordered_dual(self, capsys, monkeypatch):
        # Con of n5 has 5 congruences of 5 elements, over a dual with two
        # covers, which the count reads in reverse
        assert cg.congruence_lattice(catalog.get("n5")).ji_order.covers() == [(0, 1), (0, 2)]
        monkeypatch.setattr(cli, "_CON_BUDGET", 5 * 5)
        assert main(["con", "n5"]) == 0
        assert len(json.loads(capsys.readouterr().out)["congruences"]) == 5
        monkeypatch.setattr(cli, "_CON_BUDGET", 5 * 5 - 1)
        assert main(["con", "n5"]) == 2
        assert capsys.readouterr() == ("", (
            "error: n5: more than 4 congruences of 5 elements exceed the budget"
            " of 24 congruences times elements\n"))

    def test_con_of_a_long_chain_is_input_error(self, tmp_path):
        # a 4,096-element chain is under the size limit, but its Con L ran
        # out of the 1 GiB address space: n·|J(L)| is bounded first
        path = tmp_path / "chain.json"
        path.write_text(jio.dumps(jio.lattice_to_obj(core.chain(4096))))
        proc = self._run("con", str(path))
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (
            f"error: {path}: 4096 elements times 4095 join-irreducibles exceed the budget"
            " of 2097152 for the congruence lattice\n")

    @staticmethod
    def _write(path, obj):
        path.write_text(jio.dumps(obj))
        return str(path)

    def test_hom_index_beyond_the_hom_budget_is_input_error(self, tmp_path):
        # both Con lattices of grid(7, 7) have 12 colors in an antichain:
        # 12^12 isotone maps, of which the count draws one past the budget
        grid = self._write(tmp_path / "grid.json", jio.rect_to_obj(rl.grid(7, 7)))
        proc = self._run("build-filter", grid, grid, "--hom-index", "0", "-o", str(tmp_path))
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (f"error: Con {grid} -> Con {grid}: more than 65536 bounded homs"
                               " exceed the hom budget\n")

    def test_hom_index_beyond_the_con_budget_is_input_error(self, tmp_path):
        # Con of grid(9, 9) has 2^16 congruences of 81 elements: refused
        # before it is built as a lattice
        grid = self._write(tmp_path / "grid.json", jio.rect_to_obj(rl.grid(9, 9)))
        proc = self._run("build-filter", grid, "m3", "--hom-index", "0", "-o", str(tmp_path))
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (f"error: {grid}: more than 12945 congruences of 81 elements"
                               " exceed the budget of 1048576 congruences times elements\n")

    def test_brt_beyond_the_hom_budget_is_input_error(self, tmp_path):
        # two 128-element Boolean lattices have 7^7 bounded homs
        path = self._write(tmp_path / "boolean.json", jio.lattice_to_obj(_boolean(7)))
        proc = self._run("brt", path, path)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (f"error: {path} -> {path}: more than 65536 bounded homs"
                               " exceed the hom budget\n")

    def test_brt_beyond_the_hom_entries_is_input_error(self, tmp_path):
        # a 4,096-element chain has 4,095 bounded homs to c2, within the hom
        # budget, each of 4,096 entries: refused before any hom is built
        path = self._write(tmp_path / "chain.json", jio.lattice_to_obj(core.chain(4096)))
        proc = self._run("brt", path, "c2")
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (f"error: {path} -> c2: 4095 bounded homs of 4096 elements"
                               " exceed the budget of 4194304 homs times elements\n")

    def test_hom_file_against_a_large_con_is_input_error(self, tmp_path):
        # grid(16, 16) is within the congruence cost, and its Con has 2^30
        # elements: a 2-element endpoint is told apart after 3 down-sets
        grid = self._write(tmp_path / "grid.json", jio.rect_to_obj(rl.grid(16, 16)))
        c2 = jio.lattice_to_obj(core.chain(2))
        hom = self._write(tmp_path / "hom.json", {"source": c2, "target": c2, "map": [0, 1]})
        proc = self._run("build-filter", grid, grid, hom, "-o", str(tmp_path))
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (f"error: {hom}: homomorphism endpoints do not match the"
                               " congruence lattices of the inputs\n")

    def test_embed_simple_beyond_the_con_budget_is_input_error(self, tmp_path):
        # Con of grid(9, 9) has 2^16 congruences of 81 elements: refused
        # before it is built as a lattice, and before the output directory
        grid = self._write(tmp_path / "grid.json", jio.rect_to_obj(rl.grid(9, 9)))
        out = tmp_path / "out"
        proc = self._run("embed-simple", grid, "-o", str(out))
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (f"error: {grid}: more than 12945 congruences of 81 elements"
                               " exceed the budget of 1048576 congruences times elements\n")
        assert not out.exists()

    def test_embed_simple_con_budget_is_the_most_entries_listed(self, tmp_path, capsys,
                                                                monkeypatch):
        # Con of grid-3x3 has 16 congruences of 9 elements
        monkeypatch.setattr(cli, "_CON_BUDGET", 16 * 9)
        assert main(["embed-simple", "grid-3x3", "-o", str(tmp_path)]) == 0
        assert capsys.readouterr().out.endswith("output: 32 elements, 2 congruences\n")
        monkeypatch.setattr(cli, "_CON_BUDGET", 16 * 9 - 1)
        monkeypatch.setattr(cg.ConLattice, "as_lattice", None)
        assert main(["embed-simple", "grid-3x3", "-o", str(tmp_path)]) == 2
        assert capsys.readouterr() == ("", (
            "error: grid-3x3: more than 15 congruences of 9 elements exceed the budget"
            " of 143 congruences times elements\n"))

    def test_hom_budget_admits_the_benchmark_pairs(self):
        # the duality workload's lattices, counted as ``brt`` counts, and
        # the A6 sweep's Con lattices, counted as ``--hom-index`` counts
        # (on ``ji_order``); each count is the number of homs enumerated
        duality = [cg.congruence_lattice(rl.grid(3, 3).lattice).as_lattice(),
                   rl.grid(3, 3).lattice,
                   cg.congruence_lattice(catalog.s7().lattice).as_lattice(),
                   rl.grid(4, 4).lattice]
        counts = []
        for D in duality:
            for E in duality:
                count = cli._hom_count("D", "E", core.join_irreducibles(E),
                                       core.join_irreducibles(D), D.n)
                assert count == len(bk.enumerate_bounded_homs(D, E))
                counts.append((count, D.n, E.n))
        assert sum(c for c, _, _ in counts) == 2692
        assert max(counts) == (1296, 16, 16)
        cons = [cg.congruence_lattice(catalog.get(name)) for name in ("grid-2x2", "m3", "s7")]
        total = 0
        for conF in cons:
            for conG in cons:
                count = cli._hom_count("F", "G", conG.ji_order, conF.ji_order,
                                       conF.as_lattice().n)
                assert count == len(bk.enumerate_bounded_homs(conF.as_lattice(),
                                                              conG.as_lattice()))
                total += count
        assert total == 34

    def test_hom_budget_is_the_most_homs_enumerated(self, tmp_path, capsys, monkeypatch):
        # grid-2x2 -> m3 has 2 homs; the hom budget is checked after the
        # con budget and before any Con is built as a lattice
        assert cli._HOM_BUDGET == 1 << 16
        monkeypatch.setattr(cli, "_HOM_BUDGET", 2)
        argv = ["build-filter", "grid-2x2", "m3", "--hom-index", "1", "-o", str(tmp_path)]
        assert main(argv) == 0
        capsys.readouterr()
        monkeypatch.setattr(cli, "_HOM_BUDGET", 1)
        assert main(["brt", "c2", "c2"]) == 0
        capsys.readouterr()
        assert main(["brt", "c2xc2", "c2"]) == 2
        assert capsys.readouterr() == ("", "error: c2xc2 -> c2: more than 1 bounded homs"
                                           " exceed the hom budget\n")
        assert main(["brt", "n5", "c2xc2"]) == 2  # distributivity is checked first
        assert capsys.readouterr() == ("", "error: source lattice is not distributive\n")
        monkeypatch.setattr(cg.ConLattice, "as_lattice", None)
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: Con grid-2x2 -> Con m3: more than 1"
                                           " bounded homs exceed the hom budget\n")

    def test_hom_entries_are_the_most_entries_built(self, tmp_path, capsys, monkeypatch):
        # c3 -> c2 has 2 homs of 3 entries, and Con grid-2x2 -> Con m3 2 homs
        # of 4; the entries are checked after the hom count and before any
        # hom is built
        assert cli._HOM_ENTRIES == 1 << 22
        argv = ["build-filter", "grid-2x2", "m3", "--hom-index", "1", "-o", str(tmp_path)]
        monkeypatch.setattr(cli, "_HOM_ENTRIES", 8)
        assert main(["brt", "c3", "c2"]) == 0
        assert capsys.readouterr().out.endswith("\n2 bounded homs\n")
        assert main(argv) == 0
        capsys.readouterr()
        monkeypatch.setattr(cli, "_HOM_ENTRIES", 7)
        monkeypatch.setattr(bk, "enumerate_bounded_homs", None)
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: Con grid-2x2 -> Con m3: 2 bounded homs of 4"
                                           " elements exceed the budget of 7 homs times elements\n")
        monkeypatch.setattr(cli, "_HOM_ENTRIES", 5)
        assert main(["brt", "c3", "c2"]) == 2
        assert capsys.readouterr() == ("", "error: c3 -> c2: 2 bounded homs of 3 elements"
                                           " exceed the budget of 5 homs times elements\n")
        monkeypatch.setattr(cli, "_HOM_BUDGET", 1)
        assert main(["brt", "c3", "c2"]) == 2  # the hom count is checked first
        assert capsys.readouterr() == ("", "error: c3 -> c2: more than 1 bounded homs"
                                           " exceed the hom budget\n")

    def test_con_cost_is_the_most_entries_computed(self, capsys, monkeypatch):
        # grid-3x3 has 9 elements and 4 join-irreducibles; a rectangular
        # argument is bounded alike, before any pipeline computes its Con L
        assert cli._CON_COST == 1 << 21
        monkeypatch.setattr(cli, "_CON_COST", 9 * 4)
        assert main(["con", "grid-3x3"]) == 0
        assert capsys.readouterr().out.startswith("{")
        assert main(["check-ideal", "grid-3x3"]) == 0
        capsys.readouterr()
        monkeypatch.setattr(cli, "_CON_COST", 9 * 4 - 1)
        computed = []
        monkeypatch.setattr(cli.cg, "congruence_lattice", computed.append)
        for argv in (["con", "grid-3x3"], ["check-ideal", "grid-3x3"],
                     ["build-filter", "grid-2x2", "grid-3x3", "--hom-index", "0"]):
            assert main(argv) == 2
            assert capsys.readouterr() == ("", (
                "error: grid-3x3: 9 elements times 4 join-irreducibles exceed the budget"
                " of 35 for the congruence lattice\n"))
        assert computed == []

    def test_limit_is_the_largest_accepted_size(self, monkeypatch):
        # the builder is stubbed, so neither size allocates anything
        assert jio._MAX_SIZE == 32768 >= 4096
        sizes = []
        monkeypatch.setattr(jio.core, "make_lattice_with_map", lambda n, *rows: sizes.append(n))
        jio.lattice_from_obj_with_map({"size": jio._MAX_SIZE, "covers": []})
        with pytest.raises(LatconError, match="^size 32769 exceeds the limit of 32768 elements$"):
            jio.lattice_from_obj_with_map({"size": jio._MAX_SIZE + 1, "covers": []})
        assert sizes == [jio._MAX_SIZE]


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
        assert capsys.readouterr().err == (
            f"error: {p}: homomorphism endpoints do not match the congruence lattices"
            " of the inputs\n")

    def test_reordered_endpoint_rows_are_accepted(self, tmp_path):
        # the identity on Con(s7) as written, and with each endpoint's row
        # of two upper covers reversed: the same numbered lattice
        D = cg.congruence_lattice(catalog.s7().lattice).as_lattice()
        obj = helpers.hom_to_obj(bk.make_bounded_hom(D, D, range(D.n)))
        src = Path(latcon.__file__).resolve().parent.parent
        outs = []
        for turn in (False, True):
            if turn:
                for side in ("source", "target"):
                    rows = obj[side]["upper_order"]
                    assert rows["1"] == [2, 3]
                    obj[side]["upper_order"] = {k: v[::-1] for k, v in rows.items()}
            path = tmp_path / f"phi-{turn}.json"
            path.write_text(jio.dumps(obj))
            out = tmp_path / f"out-{turn}"
            proc = subprocess.run(
                [sys.executable, "-m", "latcon.cli", "build-filter", "s7", "s7", str(path),
                 "--out", str(out)], capture_output=True, text=True,
                env={**os.environ, "PYTHONPATH": str(src)}, timeout=120,
            )
            assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
            outs.append([proc.stdout] + [(out / f).read_bytes() for f in ("result.json", "report.json")])
        assert outs[0] == outs[1]

    def test_hom_index_out_of_range_is_exit_2(self, tmp_path, capsys):
        rc = main(
            ["build-filter", "grid-2x2", "m3", "--hom-index", "9",
             "--out", str(tmp_path)]
        )
        assert rc == 2

    def test_missing_hom_is_exit_2(self, tmp_path, capsys):
        assert main(["build-filter", "grid-2x2", "m3", "--out", str(tmp_path)]) == 2

    def test_hom_file_and_index_is_exit_2(self, tmp_path, capsys):
        D = cg.congruence_lattice(catalog.get("grid-2x2")).as_lattice()
        E = cg.congruence_lattice(catalog.get("m3")).as_lattice()
        p = tmp_path / "phi.json"
        p.write_text(jio.dumps(helpers.hom_to_obj(bk.enumerate_bounded_homs(D, E)[0])))
        rc = main(["build-filter", "grid-2x2", "m3", str(p), "--hom-index", "0",
                   "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == "error: give either a hom file or --hom-index, not both\n"

    def test_hom_path_naming_no_file_is_exit_2(self, tmp_path, capsys):
        p = tmp_path / "absent.json"
        assert main(["build-filter", "grid-2x2", "m3", str(p), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: {p}: no such file\n"

    def test_unreadable_lattice_file_is_exit_2(self, tmp_path, capsys, monkeypatch):
        # the root user reads every file, so the refusal is simulated
        p = tmp_path / "L.json"
        p.write_text(jio.dumps(jio.lattice_to_obj(catalog.get("chain-3"))))

        def refuse(self, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(self))

        monkeypatch.setattr(Path, "read_text", refuse)
        assert main(["con", str(p)]) == 2
        assert capsys.readouterr().err == f"error: {p}: Permission denied\n"

    def test_failing_verification_is_exit_1_without_files(
        self, tmp_path, capsys, monkeypatch
    ):
        bad = vf.VerificationReport((vf.CheckResult("injected", False, "fault"),))
        monkeypatch.setattr(vf, "verify_filter_representation", lambda *args, **kw: bad)
        rc = main(
            ["build-filter", "s7", "m3", "--hom-index", "0", "--out", str(tmp_path)]
        )
        assert rc == 1
        assert "FAIL injected — fault" in capsys.readouterr().out.splitlines()
        assert not (tmp_path / "result.json").exists()

    def test_build_filter_verifies_once(self, tmp_path, capsys, monkeypatch):
        calls = []
        check = vf.verify_filter_representation

        def counted(*args, **kwargs):
            calls.append(args)
            return check(*args, **kwargs)

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


class TestFrozenRectangularBytes:
    # sha256 of stdout and of every written file, taken while RectLattice
    # still stored its four boundary chains and insert_eye and triple_glue
    # read their results through make_rectangular: the search's fork-eye
    # lattices come from insert_eye, the ideal pipelines' from triple_glue
    DIGESTS = {
        ("check-ideal", "--search", "--max-size", "24"): {
            "stdout": "a8a47fc769825667b22fc41e8819ae6ad0bd2bb4ad117642673ec3a33b6a77f4",
        },
        ("check-ideal", "--search", "--max-size", "24", "--seed", "3"): {
            "stdout": "df495f98a678c37bca07c471da402d37bc427a43dc48cdc29cff7a34f4028d9d",
        },
        ("brt", "con-s7", "c3xc3"): {
            "stdout": "80c1f2e642273affb50e3ec73b458c72c68d7f9ab76a59dca28922a537b71327",
        },
        ("build-ideal", "s7", "grid-3x3", "--hom-index", "3"): {
            "stdout": "f2ebdde8b693a49457be62cee2c1464eced5e3e0e7010d69e94bf52c9b70986c",
            "report.json": "46448f8640eec0b4687bf2adec2f0694dce447d1e7268d0897cab62e50484447",
            "result.json": "6e83001004da3cd96ec0266426503e9e02e46dd4f27c04c4b5b68dba40138717",
        },
        ("embed-simple", "grid-2x3"): {
            "stdout": "017e513129643675cacc78bc4074b78a48e87644a939149b93dd742a2ac0e779",
            "report.json": "8dafe73363adfbf843f623629d10587181200aa6e2bf37244e8e0ebb13665dd6",
            "result.json": "fad2beffe8a6418c8f39248fa6fb1947dbf6b23a065763058c58286a29bc481d",
        },
    }

    @pytest.mark.parametrize(
        "argv", list(DIGESTS),
        ids=["search", "search-seed-3", "brt", "build-ideal", "embed-simple"],
    )
    def test_digests(self, tmp_path, capsys, argv):
        writes = argv[0] in ("build-ideal", "embed-simple")
        assert main([*argv, *(["--out", str(tmp_path)] if writes else [])]) == 0
        got = {"stdout": hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()}
        got.update((p.name, hashlib.sha256(p.read_bytes()).hexdigest()) for p in tmp_path.iterdir())
        assert got == self.DIGESTS[argv]


class TestFrozenCommandBytes:
    # sha256 of stdout and of every written file, and of stderr and the exit
    # code of one refusal per bound, taken while the checked lattice entry
    # still ran bulk pre-checks before its scans
    DIGESTS = {
        ("build-filter", "s7", "m3", "--hom-index", "1"): {
            "stdout": "0fe70e380599a2501525f54abfa408171bedb6ff2e1693c8488afd72f6f2a7ae",
            "report.json": "0e0be1957c65922a00215c16ec24055f95715175d219264b0fbfbeb13bbb8906",
            "result.json": "5bb1b26dc3eb2d143631e7327ae9c960c2d364f57aee00286f8f3d5956780388",
        },
        ("check-ideal", "--search", "--max-size", "16"): {
            "stdout": "dd0ff70351ce81a7d898e9345260b3932b910299382d6eaf4978f7fb068ad64b",
        },
    }

    @pytest.mark.parametrize("argv", list(DIGESTS), ids=["build-filter", "search-16"])
    def test_digests(self, tmp_path, capsys, argv):
        writes = argv[0] == "build-filter"
        assert main([*argv, *(["--out", str(tmp_path)] if writes else [])]) == 0
        got = {"stdout": hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()}
        got.update((p.name, hashlib.sha256(p.read_bytes()).hexdigest()) for p in tmp_path.iterdir())
        assert got == self.DIGESTS[argv]

    # each input file, written into the working directory so that stderr,
    # which names it, does not depend on where the test runs
    FILES = {
        "chain-1449.json": lambda: jio.lattice_to_obj(core.chain(1449)),
        "chain-17.json": lambda: jio.lattice_to_obj(core.chain(17)),
        "boolean-128.json": lambda: jio.lattice_to_obj(_boolean(7)),
        "chain-4096.json": lambda: jio.lattice_to_obj(core.chain(4096)),
        "grid-9x9.json": lambda: jio.rect_to_obj(rl.grid(9, 9)),
        "size-32769.json": lambda: {"size": 32769, "covers": []},
    }
    REFUSALS = {  # the bound: (argv, sha256 of stderr); each exits 2 with no stdout
        "search candidates": (
            ("check-ideal", "--search", "--max-size", "48"),
            "089d6b5bf502ea09cf98021bd4b8a604b169291786e061d9703182ee7fa273da"),
        "_CON_COST": (
            ("con", "chain-1449.json"),
            "eb66029bc4540d12c4ea5f58cb02f3d90e2974ea73f53fe0ffa739f8f8c3608b"),
        "_CON_BUDGET": (
            ("con", "chain-17.json"),
            "72848398dac1813f6fbdf9a865f6d9b328418bdccb776af9129c15da973b3c56"),
        "_HOM_BUDGET": (
            ("brt", "boolean-128.json", "boolean-128.json"),
            "b24eab6a99bd23c2f9839999180c9e609deef46ceefcc2785cb46e0bd86b4be2"),
        "_HOM_ENTRIES": (
            ("brt", "chain-4096.json", "c2"),
            "f9100ec4f79ca17fd1d9293bd56a80c62a6fcfed8d21995a2e08b62898ddc366"),
        "embed-simple": (
            ("embed-simple", "grid-9x9.json", "-o", "out"),
            "b54855d5eb9a9098982e57fcdf2776e90e5c6743d297b4cca093b3ea14a9b1ec"),
        "_MAX_SIZE": (
            ("con", "size-32769.json"),
            "57af4f5ce810bf185116b42d0521160b74e7de15c2a73e53586e0255488b08c1"),
    }

    @pytest.mark.parametrize("bound", list(REFUSALS))
    def test_refusal(self, tmp_path, capsys, monkeypatch, bound):
        argv, digest = self.REFUSALS[bound]
        monkeypatch.chdir(tmp_path)
        for name in argv:
            if name in self.FILES:
                Path(name).write_text(jio.dumps(self.FILES[name]()))
        code = main(list(argv))
        out, err = capsys.readouterr()
        assert (code, out, err.count("\n")) == (2, "", 1)
        assert hashlib.sha256(err.encode()).hexdigest() == digest
        assert not Path("out").exists()

    def test_search_under_another_hash_seed(self):
        # the suite's own PYTHONHASHSEED is not this one: the listing is
        # TestFrozenRectangularBytes's, whatever order sets iterate in
        src = Path(latcon.__file__).resolve().parent.parent
        proc = subprocess.run(
            [sys.executable, "-m", "latcon.cli", "check-ideal", "--search", "--max-size", "24",
             "--seed", "3"], capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": "12345"},
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        want = TestFrozenRectangularBytes.DIGESTS[
            ("check-ideal", "--search", "--max-size", "24", "--seed", "3")]["stdout"]
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == want


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

    def test_module_entry_point_runs(self):
        # ``python -m latcon.cli`` runs the module's ``__main__`` guard, installed or not
        src = Path(latcon.__file__).resolve().parent.parent
        proc = subprocess.run(
            [sys.executable, "-m", "latcon.cli", "check-ideal", "s7"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
            timeout=120,
        )
        assert proc.returncode == 4
        assert "fails" in proc.stdout

    @pytest.mark.skipif(shutil.which("latcon") is None, reason="not installed")
    def test_entry_point_runs(self):
        proc = subprocess.run(
            ["latcon", "check-ideal", "s7"], capture_output=True, text=True
        )
        assert proc.returncode == 4
        assert "fails" in proc.stdout


def test_line_counter_runs():
    # tests/count_lines.py prints each module's lines and code lines, then the totals
    script = Path(__file__).resolve().parent / "count_lines.py"
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    totals = [line.split() for line in proc.stdout.splitlines() if line.startswith("total")]
    assert len(totals) == 1
    _, lines, code = totals[0]
    assert int(lines) > int(code) > 0


def test_line_counter_deltas_on_canned_modules():
    # --against REV's table, on module texts given here rather than read
    # from git: a docstring, a comment and blank lines are not code, and a
    # module on one side only counts as empty on the other
    old = {
        "a": '"""Doc."""\n\nx = 1\n',
        "gone": "y = 2\nz = 3\n",
    }
    new = {
        "a": '"""Doc,\nlonger."""\n\n# note\nx = 1\nw = x\n',
        "born": "def f():\n    \"\"\"Doc.\"\"\"\n    return 1\n",
    }
    assert count_lines.counts(new["a"]) == (6, 2)
    assert count_lines.table(new, old) == [
        "module            lines   code  Δlines  Δcode",
        "a                     6      2      +3     +1",
        "born                  3      2      +3     +2",
        "gone                  0      0      -2     -2",
        "total                 9      4      +4     +1",
    ]
    assert count_lines.table(new) == [
        "module            lines   code",
        "a                     6      2",
        "born                  3      2",
        "total                 9      4",
    ]


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


def test_every_budget_is_counted_by_one_gate():
    # the search, congruence and hom budgets count through one helper,
    # which alone calls core._count and compares
    tree = ast.parse(Path(cli.__file__).read_text())
    counting = {top.name for top in tree.body if isinstance(top, ast.FunctionDef)
                for node in ast.walk(top) if getattr(node, "attr", None) == "_count"}
    assert counting == {"_within"}
    gated = {top.name for top in tree.body if isinstance(top, ast.FunctionDef)
             for node in ast.walk(top) if getattr(node, "id", None) == "_within"}
    assert gated == {"_hom_count", "_con_listable", "cmd_check_ideal"}


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
