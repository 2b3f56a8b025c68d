"""The benchmark's own self-test, run against the library in this source tree."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    # perfbench/ reaches the library through module attributes and keyword
    # arguments; an API change that breaks it fails here, not in a benchmark
    # run.  The self-test writes only under the ignored .perfbench_out/.
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stderr[-4000:]
