"""Shared pytest wiring: surfaces the acceptance criterion lines, has
pytest rewrite the asserts of the oracle modules, and names each test's
``tmp_path`` by a short relative path.

``tests/test_acceptance.py`` registers one ``A<k>: PASS/FAIL`` line per
criterion in ``ACCEPTANCE_LINES``; printing them from the terminal-summary
hook keeps them visible in any pytest run regardless of capture mode.
"""

from pathlib import Path

import pytest

# the oracles' own asserts are rewritten as the tests' are, so they still
# run under ``python -O``, which compiles every other assert away
pytest.register_assert_rewrite("helpers", "lemmas")

ACCEPTANCE_LINES: list[str] = []


@pytest.fixture
def tmp_path(tmp_path, monkeypatch):
    """pytest's ``tmp_path``, entered and named by the relative path ``.``.
    A file made in it has a short name, and a CLI error line echoes a name
    of at most 40 characters whole (``core._clipped``), so a test can pin
    the line byte for byte."""
    monkeypatch.chdir(tmp_path)
    return Path(".")


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.line(line)
