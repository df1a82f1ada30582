"""The benchmark tracer's names must resolve in the library.

``perfbench/tracing.py`` rebinds every name in ``TRACED`` and raises
``KeyError`` for one that is gone, so renaming or deleting a traced function
breaks ``perfbench/run.py --trace 1``.  The names are resolved here the way
``Tracer.install`` resolves them, without installing anything.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    traced = _tracing_module().TRACED
    assert traced
    missing = []
    for name in traced:
        module_name, *path = name.split(".")
        owner = importlib.import_module(f"quatrange.{module_name}")
        for part in path[:-1]:
            owner = getattr(owner, part, None)
        if owner is None or path[-1] not in vars(owner) or not callable(vars(owner)[path[-1]]):
            missing.append(name)
    assert not missing, f"traced names missing from the library: {missing}"
