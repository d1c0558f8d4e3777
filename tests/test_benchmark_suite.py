"""The benchmark's own tests, run from the library's suite.

benchmarks/tests checks the benchmark's references against the library and
reads the library's records as the benchmark does, so a change to the
library that breaks the benchmark's view of it fails here too.  The two
suites' conftest modules share a module name, so they cannot share one
pytest session: the benchmark's suite runs in a fresh process.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_the_benchmark_tests_pass():
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "benchmarks/tests"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr
