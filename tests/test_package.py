"""The package's surface: `dhac.__all__` is exactly what `dhac` binds, and the benchmark's targets exist."""

import importlib
import importlib.util
import types
from pathlib import Path

import dhac

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_export_is_bound():
    assert [name for name in dhac.__all__ if not hasattr(dhac, name)] == []


def test_exports_are_unique():
    assert len(dhac.__all__) == len(set(dhac.__all__))


def test_every_public_name_is_exported():
    public = {
        name
        for name, value in vars(dhac).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(public - set(dhac.__all__)) == []


def test_benchmark_span_targets_resolve():
    # perfbench skips a target it cannot find and its metrics read 0, so a rename must fail here instead
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    unresolved = []
    for name, module, attr, _ in spans.TARGETS:
        owner_name, _, member = attr.rpartition(".")
        mod = importlib.import_module(module)
        owner = getattr(mod, owner_name, None) if owner_name else mod
        if not (module.startswith("dhac.") and owner is not None and callable(vars(owner).get(member))):
            unresolved.append(name)
    assert spans.TARGETS and unresolved == []
