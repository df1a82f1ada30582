"""Smoke tests: the narrative demos run end to end, the README names real API,
every private helper has a caller in the library, every settable option is
listed, and every source file parses as Python 3.10."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import quatrange

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    if demo == "lancaster_remark.py":
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


# every parameter with a default in the library, as module.qualname(param);
# a new one is a new configuration to test and document, so it is listed on purpose
SETTABLE_OPTIONS = {
    "cli.main(argv)",
    "eigen.jacobi_eig(tol)",
    "essential.RationalsITail.__init__(half)",
    "essential.DecayingPeriodicTail.__init__(amplitude)",
    "essential._MappedTail.__init__(a)",
    "essential._MappedTail.__init__(b)",
    "essential.SparseVec.op_inner(adjoint)",
    "essential.SparseVec.to_qvector(dim)",
    "essential.TailBasisSequence.chain(cursor)",
    "essential.TailBasisSequence.chain(forbidden)",
    "essential.TailBasisSequence.pick(forbidden)",
    "essential.CombinationResult.chain(cursor)",
    "essential.CombinationResult.chain(forbidden)",
    "lancaster.IconvRegion.contains(tol)",
    "lancaster.hausdorff_union_convex(res)",
    "lancaster.lancaster_check(m)",
    "lancaster.lancaster_check(k)",
    "lancaster.lancaster_check(seed)",
    "lancaster.lancaster_check(target)",
    "lancaster.nonclosedness_probe(m)",
    "lancaster.nonclosedness_probe(seed)",
    "numrange.nr_sample(seed)",
    "numrange.diagonal_bild(k)",
    "numrange.upper_bild(m)",
    "numrange.upper_bild(k)",
    "numrange.upper_bild(seed)",
    "numrange.refined_values(gammas)",
    "numrange.refined_values(psis)",
    "numrange.real_section(m)",
    "numrange.real_section(seed)",
    "numrange.real_section(tol)",
    "qmatrix.QMatrix.isclose(tol)",
    "quaternion.Quaternion.isclose(tol)",
}


def _defaulted_parameters(node, qualname):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from _defaulted_parameters(child, qualname + [child.name])
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = child.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):] + [
                arg for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                if default is not None]
            for arg in defaulted:
                yield f"{'.'.join(qualname + [child.name])}({arg.arg})"
            yield from _defaulted_parameters(child, qualname + [child.name])
        else:
            yield from _defaulted_parameters(child, qualname)


def test_settable_options_are_the_listed_ones():
    found = [option
             for path in sorted((ROOT / "src" / "quatrange").glob("*.py"))
             for option in _defaulted_parameters(ast.parse(path.read_text()), [path.stem])]
    assert len(found) == len(set(found))
    assert set(found) == SETTABLE_OPTIONS
    assert len(SETTABLE_OPTIONS) == 33


def test_every_source_file_parses_as_python_3_10():
    # pyproject and CI support Python 3.10, whose grammar lacks later syntax
    # (except*, PEP 695 type parameters, ...)
    paths = [path for folder in ("src", "tests", "demos")
             for path in sorted((ROOT / folder).rglob("*.py"))]
    assert len(paths) >= 20
    failed = []
    for path in paths:
        try:
            ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
        except SyntaxError as exc:
            failed.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert failed == []
