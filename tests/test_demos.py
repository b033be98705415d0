"""Every demo script must run to completion without output on stderr,
printing exactly its committed stdout in tests/golden/demos.json."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMO_DIR = ROOT / "demos"
SCRIPTS = sorted(DEMO_DIR.glob("*.py"))
GOLDEN = json.loads((Path(__file__).resolve().parent / "golden" / "demos.json")
                    .read_text(encoding="utf-8"))


def test_demo_directory_is_populated():
    assert len(SCRIPTS) >= 6
    assert sorted(GOLDEN) == [p.stem for p in SCRIPTS]


@pytest.mark.parametrize("script", SCRIPTS, ids=[p.stem for p in SCRIPTS])
def test_demo_runs_clean(script):
    # the demo subprocess does not inherit pytest's pythonpath setting
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(script)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout == GOLDEN[script.stem]
