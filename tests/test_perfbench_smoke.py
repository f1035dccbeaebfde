"""The benchmark's smoke run, as a test: it fails when a refactor renames or
moves a name that perfbench/run.py wraps or calls."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_smoke_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "smoke.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
