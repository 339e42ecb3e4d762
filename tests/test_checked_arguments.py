"""Bad arguments to a map call, to the order queries of ``FiniteLattice``
(``is_cover``, ``height``, ``upper_covers``, ``lower_covers``,
``is_doubly_irreducible``, ``leq``, ``join``, ``meet``, ``join_of``,
``meet_of``, ``up_mask`` and ``down_mask``), to ``restriction_mismatch``,
``grid_with_eyes``, ``diamond`` and ``search_rectangular`` fail as named
``LatconError``s, never as a silent wrong answer or a bare
``IndexError``/``TypeError``/``ValueError``."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import helpers
from latcon import birkhoff as bk
from latcon import catalog
from latcon import congruence as cg
from latcon import core
from latcon import rectangular as rl
from latcon.cli import main
from latcon.errors import ElementOutOfRange, IndexOutOfRange, LatconError, SizeTooSmall

C3SQ = catalog.get("c3xc3")
G33 = rl.grid(3, 3).lattice


def _phi():
    """The first bounded endomorphism of c3xc3."""
    return bk.enumerate_bounded_homs(C3SQ, C3SQ)[0]


def _psi():
    """The dual map of :func:`_phi`, on a 4-element poset."""
    return bk.ji_of_hom(_phi())


def _restriction_mismatch(emb):
    """``restriction_mismatch`` from Con grid-3x3 to Con of the 3-chain."""
    return cg.restriction_mismatch(
        cg.congruence_lattice(G33), emb, cg.congruence_lattice(core.chain(3)))


# each used to return a wrong answer or raise a bare error on grid-3x3
ID_ROWS = [
    ("is_cover(7, -1)", lambda: G33.is_cover(7, -1), ElementOutOfRange,
     "element -1 out of range for size 9"),
    ("is_cover(0, 99)", lambda: G33.is_cover(0, 99), ElementOutOfRange,
     "element 99 out of range for size 9"),
    ("is_cover(-1, 8)", lambda: G33.is_cover(-1, 8), ElementOutOfRange,
     "element -1 out of range for size 9"),
    ("is_cover(99, 0)", lambda: G33.is_cover(99, 0), ElementOutOfRange,
     "element 99 out of range for size 9"),
    ("is_cover(0, 1.5)", lambda: G33.is_cover(0, 1.5), ElementOutOfRange,
     "element id 1.5 is not an integer"),
    ("height(-1)", lambda: G33.height(-1), ElementOutOfRange,
     "element -1 out of range for size 9"),
    ("height(99)", lambda: G33.height(99), ElementOutOfRange,
     "element 99 out of range for size 9"),
    ("height(1.5)", lambda: G33.height(1.5), ElementOutOfRange,
     "element id 1.5 is not an integer"),
    # a negative id used to read the top's row
    ("lower_covers(-1)", lambda: G33.lower_covers(-1), ElementOutOfRange,
     "element -1 out of range for size 9"),
    ("upper_covers(-1)", lambda: G33.upper_covers(-1), ElementOutOfRange,
     "element -1 out of range for size 9"),
    ("is_doubly_irreducible(-1)", lambda: G33.is_doubly_irreducible(-1), ElementOutOfRange,
     "element -1 out of range for size 9"),
    ("upper_covers(99)", lambda: G33.upper_covers(99), ElementOutOfRange,
     "element 99 out of range for size 9"),
    ("is_doubly_irreducible(99)", lambda: G33.is_doubly_irreducible(99), ElementOutOfRange,
     "element 99 out of range for size 9"),
    ("lower_covers(1.5)", lambda: G33.lower_covers(1.5), ElementOutOfRange,
     "element id 1.5 is not an integer"),
    # a negative id used to read the top's masks
    ("join(-1, 0)", lambda: G33.join(-1, 0), ElementOutOfRange,
     "element -1 out of range for size 9"),
    ("down_mask(-1)", lambda: G33.down_mask(-1), ElementOutOfRange,
     "element -1 out of range for size 9"),
    ("meet_of([-1])", lambda: G33.meet_of([-1]), ElementOutOfRange,
     "element -1 out of range for size 9"),
    ("meet(0, 99)", lambda: G33.meet(0, 99), ElementOutOfRange,
     "element 99 out of range for size 9"),
    ("join_of([99])", lambda: G33.join_of([99]), ElementOutOfRange,
     "element 99 out of range for size 9"),
    ("up_mask(99)", lambda: G33.up_mask(99), ElementOutOfRange,
     "element 99 out of range for size 9"),
    ("leq(0, 'a')", lambda: G33.leq(0, "a"), ElementOutOfRange,
     "element id 'a' is not an integer"),
    ("restriction-emb-99", lambda: _restriction_mismatch([0, 1, 99]), ElementOutOfRange,
     "element 99 out of range for size 9"),
    ("diamond(2)", lambda: catalog.diamond(2), SizeTooSmall,
     "diamond atoms must be an integer >= 3, got 2"),
    ("diamond(3.5)", lambda: catalog.diamond(3.5), SizeTooSmall,
     "diamond atoms must be an integer >= 3, got 3.5"),
    ("diamond('4')", lambda: catalog.diamond("4"), SizeTooSmall,
     "diamond atoms must be an integer >= 3, got '4'"),
    ("diamond(None)", lambda: catalog.diamond(None), SizeTooSmall,
     "diamond atoms must be an integer >= 3, got None"),
    ("diamond(True)", lambda: catalog.diamond(True), SizeTooSmall,
     "diamond atoms must be an integer >= 3, got True"),
]

ROWS = ID_ROWS + [
    # a negative id used to wrap round to the last element's image
    ("phi(-1)", lambda: _phi()(-1), ElementOutOfRange, "element -1 out of range for size 9"),
    ("psi(-1)", lambda: _psi()(-1), ElementOutOfRange, "element -1 out of range for size 4"),
    ("phi(99)", lambda: _phi()(99), ElementOutOfRange, "element 99 out of range for size 9"),
    ("phi(1.5)", lambda: _phi()(1.5), ElementOutOfRange, "element id 1.5 is not an integer"),
    ("phi(None)", lambda: _phi()(None), ElementOutOfRange, "element id None is not an integer"),
    ("eye-coordinate", lambda: rl.grid_with_eyes(2, 2, [(0, "a")]), ElementOutOfRange,
     "element id 'a' is not an integer"),
    ("eye-not-a-pair", lambda: rl.grid_with_eyes(3, 3, [0]), LatconError,
     "eye cell 0 is not a (row, column) pair"),
    ("eye-triple", lambda: rl.grid_with_eyes(3, 3, [(0, 0, 0)]), LatconError,
     "eye cell (0, 0, 0) is not a (row, column) pair"),
    ("max-size-float", lambda: catalog.search_rectangular(2.5), SizeTooSmall,
     "max_size must be an integer >= 0, got 2.5"),
    ("max-size-str", lambda: catalog.search_rectangular("a"), SizeTooSmall,
     "max_size must be an integer >= 0, got 'a'"),
    ("max-size-negative", lambda: catalog.search_rectangular(-3), SizeTooSmall,
     "max_size must be an integer >= 0, got -3"),
]


@pytest.mark.parametrize("call, error, text", [r[1:] for r in ROWS], ids=[r[0] for r in ROWS])
def test_bad_argument_is_named(call, error, text):
    with pytest.raises(error, match=f"^{re.escape(text)}$"):
        call()


def test_id_checks_run_under_optimize():
    # a check written as ``assert`` would vanish under ``python -O``
    code = (
        "import test_checked_arguments as t\n"
        "for _, call, error, _ in t.ID_ROWS:\n"
        "    try:\n"
        "        call()\n"
        "    except error as e:\n"
        "        print(e)\n"
    )
    src = Path(rl.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(Path(__file__).parent)]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [row[3] for row in ID_ROWS]


def test_good_arguments_unchanged():
    assert [G33.height(x) for x in range(9)] == [0, 1, 2, 1, 2, 3, 2, 3, 4]
    assert G33.is_cover(0, 1) and not G33.is_cover(1, 0) and not G33.is_cover(0, 8)
    assert [G33.upper_covers(x) for x in range(9)] == [
        (3, 1), (4, 2), (5,), (6, 4), (7, 5), (8,), (7,), (8,), ()]
    assert [G33.lower_covers(x) for x in range(9)] == [
        (), (0,), (1,), (0,), (3, 1), (4, 2), (3,), (6, 4), (7, 5)]
    assert G33.upper_covers(True) == (4, 2) and G33.lower_covers(helpers.IntLike(8)) == (7, 5)
    assert [x for x in range(9) if G33.is_doubly_irreducible(x)] == [2, 6]  # the corners
    assert G33.join(2, 6) == 8 and G33.meet(2, 6) == 0 and G33.leq(True, helpers.IntLike(4))
    assert G33.join_of([1, 3]) == 4 and G33.meet_of([]) == 8 and G33.join_of([]) == 0
    assert G33.up_mask(4) == 0b110110000 and G33.down_mask(4) == 0b000011011
    con = cg.congruence_lattice(G33)
    assert cg.restriction_mismatch(con, range(9), con) is None
    assert catalog.diamond(helpers.IntLike(3)).n == 5
    phi, psi = _phi(), _psi()
    assert [phi(x) for x in range(C3SQ.n)] == list(phi.assignment)
    assert [psi(x) for x in range(psi.source.n)] == list(psi.assignment)
    with pytest.raises(IndexOutOfRange, match=r"^cell \(2, 0\) outside the 3x3 grid$"):
        rl.grid_with_eyes(3, 3, [(2, 0)])
    with pytest.raises(LatconError, match=r"^cell \(0, 0\) listed twice$"):
        rl.grid_with_eyes(3, 3, [(0, 0), (0, 0)])
    assert catalog.search_rectangular(0) == catalog.search_rectangular(3) == []
    assert [n for n, _ in catalog.search_rectangular(12)][:2] == ["grid-2x2", "diamond-3"]


def test_negative_max_size_is_bad_input(capsys):
    assert main(["check-ideal", "--search", "--max-size", "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: max_size must be an integer >= 0, got -3\n"
