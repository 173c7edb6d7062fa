"""The golden set of online runs keeps the digests checked in beside it.

``scripts/golden_traces.py`` records the set in a subprocess, which the
script pins to one BLAS thread, so the result does not depend on this
process's thread count. A manifest that differs from the checked-in one
(another numpy, BLAS build or CPU) can give other digests from the same
code, so the test skips and names the field. A deliberate change to
results re-records the file:

    PYTHONPATH=src python scripts/golden_traces.py --digests-only tests/golden_digests.json
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "golden_traces.py"
GOLDEN = ROOT / "tests" / "golden_digests.json"


def _script(*args):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, str(SCRIPT), *args], env=env, cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=600)


def test_golden_digests_unchanged(tmp_path):
    fresh = tmp_path / "golden.json"
    proc = _script("--digests-only", str(fresh))
    assert proc.returncode == 0, proc.stderr
    want = json.loads(GOLDEN.read_text())["manifest"]
    got = json.loads(fresh.read_text())["manifest"]
    for field in sorted(want.keys() | got.keys()):
        if want.get(field) != got.get(field):
            pytest.skip(f"golden manifest differs in {field}: "
                        f"{want.get(field)} vs {got.get(field)}")
    proc = _script("--compare", str(GOLDEN), str(fresh))
    assert proc.returncode == 0, "golden digests moved:\n" + proc.stdout
