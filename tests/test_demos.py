"""Every demo script must run to completion without output on stderr,
printing exactly its committed stdout in tests/golden/demos.json."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

DEMO_DIR = Path(__file__).resolve().parent.parent / "demos"
SCRIPTS = sorted(DEMO_DIR.glob("*.py"))
GOLDEN = json.loads((Path(__file__).resolve().parent / "golden" / "demos.json")
                    .read_text(encoding="utf-8"))


def test_demo_directory_is_populated():
    assert len(SCRIPTS) >= 6
    assert sorted(GOLDEN) == [p.stem for p in SCRIPTS]


@pytest.mark.parametrize("script", SCRIPTS, ids=[p.stem for p in SCRIPTS])
def test_demo_runs_clean(script):
    proc = subprocess.run([sys.executable, str(script)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout == GOLDEN[script.stem]
