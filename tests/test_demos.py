"""Smoke tests: the narrative demos run end to end, and the README names real API."""

import os
import re
import subprocess
import sys
from pathlib import Path

import quatrange

ROOT = Path(__file__).resolve().parent.parent


def test_lancaster_remark_demo_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, str(ROOT / "demos" / "lancaster_remark.py")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "N = 500: residual" in done.stdout
    assert "4-vertex polygon" in done.stdout


def test_every_readme_api_bullet_names_an_export():
    # a bullet "- `name(...)`" documents name as public API
    text = (ROOT / "README.md").read_text()
    names = re.findall(r"^- `(\w+)\(", text, flags=re.MULTILINE)
    assert len(names) >= 8
    assert [name for name in names if name not in quatrange.__all__] == []
