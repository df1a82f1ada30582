"""The benchmark tracer's names must resolve in the library.

``perfbench/tracing.py`` rebinds every name in ``TRACED`` and raises
``KeyError`` for one that is gone, so renaming or deleting a traced function
breaks ``perfbench/run.py --trace 1``.  The names are resolved here the way
``Tracer.install`` resolves them, without installing anything.  Likewise every
workload operation's call must bind to the library's current signature.
"""

import importlib
import importlib.util
import inspect
import sys
from functools import partial
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
WORKLOADS = TRACING.parent / "workloads.py"


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


def test_every_workload_operation_binds_to_its_function(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # the module's @dataclass looks itself up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    unbound, count = [], 0
    for workload in module.WORKLOADS.values():
        for op in workload(module.DEFAULT_SEED, tmp_path).ops():
            assert isinstance(op.run, partial), op.name
            count += 1
            try:
                inspect.signature(op.run.func).bind(*op.run.args, **op.run.keywords)
            except TypeError as exc:
                unbound.append(f"{workload.name}/{op.name}: {exc}")
    assert count
    assert not unbound, f"workload calls that no longer bind: {unbound}"
