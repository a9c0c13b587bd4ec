"""The package's export surface: `dhac.__all__` is exactly what `dhac` binds."""

import types

import dhac


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
