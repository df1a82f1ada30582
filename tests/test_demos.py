"""Smoke tests: the narrative demos run end to end, the README names real API,
and every private helper has a caller in the library."""

import ast
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


def _private_definitions(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                and node.name.startswith("_") and not node.name.endswith("__"):
            yield node


def _references(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_every_private_helper_has_a_library_reference():
    # a private name referenced only from its own body or from tests is dead code
    trees = [ast.parse(path.read_text())
             for path in sorted((ROOT / "src" / "quatrange").glob("*.py"))]
    names = [name for tree in trees for name in _references(tree)]
    unreferenced = sorted(
        node.name for tree in trees for node in _private_definitions(tree)
        if names.count(node.name) == list(_references(node)).count(node.name))
    assert unreferenced == []
