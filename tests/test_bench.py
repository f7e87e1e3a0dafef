"""The benchmark harness runs against the library at hand: every workload
at tiny sizes, in both modes, emits every metric BENCHMARK.json names and
no operation fails, so a library change that breaks a bench pipeline or
its verifier fails here."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_smoke_passes():
    done = subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == "smoke: ok"
