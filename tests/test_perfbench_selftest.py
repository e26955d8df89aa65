"""The benchmark's tracer test passes against this tree's ``src/``.

``perfbench/selftest.py`` is not collected by the repository's own test run
(it is not named ``test_*.py``), yet its tracer test names modules and
aliases of ``src/shortlong``: a rename there would break the benchmark's
self-test unseen. This runs that test in a fresh interpreter, as the
benchmark's README runs the self-test.
"""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def test_tracer_patches_every_alias_and_restores_everything():
    test = "perfbench/selftest.py::test_tracer_patches_every_alias_and_restores_everything"
    result = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", test],
                            cwd=REPO, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr
    assert "1 passed" in result.stdout
