"""How `dhac` binds its public names: from their submodules on first use, and no import loads the process pool."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dhac

POOL = ("concurrent.futures.process", "multiprocessing")


def _fresh(code: str):
    """Run `code` in a new interpreter that imports dhac from this checkout; return what it prints as JSON."""
    src = str(Path(dhac.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    return json.loads(proc.stdout)


def _loaded_after(statement: str) -> list[str]:
    """The dhac and process-pool modules a new interpreter holds after `statement`."""
    wanted = ("dhac", *POOL)
    return _fresh(f"{statement}; import json, sys; print(json.dumps(sorted(m for m in sys.modules if m.startswith({wanted!r}))))")


def test_import_dhac_loads_no_submodule():
    assert _loaded_after("import dhac") == ["dhac"]


@pytest.mark.parametrize("statement", ["import dhac.cli", "from dhac import run_bench"])
def test_no_import_loads_the_process_pool(statement):
    loaded = _loaded_after(statement)
    assert "dhac.scenario" in loaded and not [m for m in loaded if m.startswith(POOL)]


def test_first_use_loads_only_its_module():
    # graph imports errors, and nothing else of dhac
    assert _loaded_after("import dhac; dhac.Op") == ["dhac", "dhac.errors", "dhac.graph"]


def test_each_export_is_its_defining_modules_object():
    exports = {name: getattr(dhac, name) for name in dhac.__all__ if name != "__version__"}
    held = {name: vars(importlib.import_module(value.__module__)).get(name) for name, value in exports.items()}
    assert [name for name, value in exports.items() if held[name] is not value] == []


def test_dir_covers_exports():
    assert set(dhac.__all__) <= set(dir(dhac))


def test_star_import_binds_every_export():
    namespace = {}
    exec("from dhac import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(dhac.__all__)
    assert all(namespace[name] is getattr(dhac, name) for name in dhac.__all__)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'dhac' has no attribute 'no_such_name'$"):
        dhac.no_such_name
    assert not hasattr(dhac, "no_such_name")


def test_submodule_imports_by_from():
    # `from dhac import cli` asks the package first; an AttributeError sends it on to the submodule
    assert _fresh("from dhac import cli, scenario; import json; print(json.dumps([cli.__name__, scenario.__name__]))") == [
        "dhac.cli",
        "dhac.scenario",
    ]
