"""The golden set of online runs keeps the digests checked in beside it.

``scripts/golden_traces.py`` records the set in a subprocess, which the
script pins to one BLAS thread, so the result does not depend on this
process's thread count. The record's portable section is compared on any
machine: each trace's error counts exactly, through their digest, and the
K per-class sums of its estimates ``s`` to within ``S_SUM_TOL``. A
manifest that differs from the checked-in one (another numpy, BLAS build
or CPU) can give other exact digests from the same code, so the test then
skips the exact comparison and names the field. A deliberate change to
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

# Recording with two BLAS threads instead of one moves a per-class sum of s
# (150 steps) by at most 2.8e-14; the smallest such move among the traces
# that the quasi-Newton head retrain changed was 4.1e-8 (largest 1.4e-5).
S_SUM_TOL = 1e-10


def _script(*args):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, str(SCRIPT), *args], env=env, cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=600)


def _portable_moves(want: dict, got: dict) -> list:
    """The traces whose error counts differ, or whose per-class sums of s
    differ by more than ``S_SUM_TOL``, and the traces only one side has."""
    moves = [f"{key}: only in one record" for key in sorted(want.keys() ^ got.keys())]
    for key in sorted(want.keys() & got.keys()):
        if want[key]["errors"] != got[key]["errors"]:
            moves.append(f"{key}: error counts moved")
        gap = max(abs(a - b) for a, b in zip(want[key]["s_sums"], got[key]["s_sums"]))
        if gap > S_SUM_TOL:
            moves.append(f"{key}: a per-class sum of s moved by {gap:.2e}")
    return moves


def test_golden_digests_unchanged(tmp_path):
    fresh = tmp_path / "golden.json"
    proc = _script("--digests-only", str(fresh))
    assert proc.returncode == 0, proc.stderr
    want = json.loads(GOLDEN.read_text())
    got = json.loads(fresh.read_text())
    moves = _portable_moves(want["portable"], got["portable"])
    assert not moves, "golden traces moved:\n" + "\n".join(moves)
    for field in sorted(want["manifest"].keys() | got["manifest"].keys()):
        if want["manifest"].get(field) != got["manifest"].get(field):
            pytest.skip(f"golden manifest differs in {field}: "
                        f"{want['manifest'].get(field)} vs {got['manifest'].get(field)}")
    proc = _script("--compare", str(GOLDEN), str(fresh))
    assert proc.returncode == 0, "golden digests moved:\n" + proc.stdout
