"""Shared pytest wiring: surfaces the acceptance criterion lines, and has
pytest rewrite the asserts of the oracle modules.

``tests/test_acceptance.py`` registers one ``A<k>: PASS/FAIL`` line per
criterion in ``ACCEPTANCE_LINES``; printing them from the terminal-summary
hook keeps them visible in any pytest run regardless of capture mode.
"""

import pytest

# the oracles' own asserts are rewritten as the tests' are, so they still
# run under ``python -O``, which compiles every other assert away
pytest.register_assert_rewrite("helpers", "lemmas")

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.line(line)
