"""The benchmark harness's self-tests, run against this source tree."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    # `perfbench/run.py --trace 1` gives no result when these fail, e.g. when
    # a name the layer tracer must reach, such as runner.propagate_unitary, is gone
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
