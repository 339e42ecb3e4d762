"""Bad arguments to a map call, to ``grid_with_eyes`` and to
``search_rectangular`` fail as named ``LatconError``s, never as a silent
wrong answer or a bare ``IndexError``/``TypeError``."""

import re

import pytest

from latcon import birkhoff as bk
from latcon import catalog
from latcon import rectangular as rl
from latcon.cli import main
from latcon.errors import ElementOutOfRange, IndexOutOfRange, LatconError, SizeTooSmall

C3SQ = catalog.get("c3xc3")


def _phi():
    """The first bounded endomorphism of c3xc3."""
    return bk.enumerate_bounded_homs(C3SQ, C3SQ)[0]


def _psi():
    """The dual map of :func:`_phi`, on a 4-element poset."""
    return bk.ji_of_hom(_phi())


ROWS = [
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


def test_good_arguments_unchanged():
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
