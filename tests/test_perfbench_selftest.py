"""The benchmark's tracer and span-accounting tests pass against this tree's
``src/``.

``perfbench/selftest.py`` is not collected by the repository's own test run
(it is not named ``test_*.py``), yet its tracer test names modules and
aliases of ``src/shortlong``, and its span-accounting test checks that the
probed functions' self times add up to each workload's traced wall time: a
rename there, or untraced work moved under a probed call, would break the
benchmark's self-test unseen. This runs those tests in a fresh interpreter,
as the benchmark's README runs the self-test.
"""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def test_tracer_patches_every_alias_and_restores_everything():
    tests = [f"perfbench/selftest.py::{name}"
             for name in ("test_tracer_patches_every_alias_and_restores_everything",
                          "test_span_self_times_account_for_traced_wall")]
    result = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                             *tests], cwd=REPO, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr
    assert "4 passed" in result.stdout
