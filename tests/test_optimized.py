"""The acceptance gate and the fault-injection tests under ``python -O``.

``-O`` compiles away every ``assert`` of the package, so a check the
package relies on must be a real one; the tests' own asserts are rewritten
by pytest and still run.  Each file runs in a child process that writes no
bytecode and no pytest cache, so the checkout is left as it was.
"""

import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent


def _files():
    return {p for p in ROOT.rglob("*") if ".git" not in p.parts}


def _run_optimized(name: str) -> subprocess.CompletedProcess:
    """The test file ``name`` run under ``python -O``; it must pass and
    leave the checkout as it was."""
    before = _files()
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider", str(TESTS / name)],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
        env={**os.environ, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert _files() == before
    return proc


def test_acceptance_gate_passes_under_optimize():
    proc = _run_optimized("test_acceptance.py")
    verdicts = [line.partition(" — ")[0] for line in proc.stdout.splitlines()
                if line.startswith("A") and " — " in line]
    assert verdicts == [f"A{k}: PASS" for k in range(1, 10)]
    assert "9 passed" in proc.stdout


def test_fault_injection_passes_under_optimize():
    assert "\n4 passed" in _run_optimized("test_fault_injection.py").stdout
