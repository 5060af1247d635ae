"""The package namespace: its public names load on first use.

``hillscape/__init__`` imports no submodule.  A name in ``__all__`` is
looked up in its home module on every access, so the package hands out
whatever that module binds now.
"""

import importlib
import types

import pytest

import hillscape as hs
from hillscape import theory


def test_every_public_name_is_its_home_modules_object():
    assert hs.DEFAULT_GRID_POINTS == theory.DEFAULT_GRID_POINTS == 2049
    for name in hs.__all__:
        obj = getattr(hs, name)
        if name != "DEFAULT_GRID_POINTS":
            home = importlib.import_module(obj.__module__)
            assert home.__name__.startswith("hillscape."), name
            assert obj is getattr(home, name), name
            assert name not in vars(hs), f"{name} was stored in the package"
    assert set(hs.__all__) <= set(dir(hs))


@pytest.mark.parametrize("key", list(hs._HOMES))
def test_module_all_is_read_from_homes(key):
    # _HOMES is the one list of public names: a module exports exactly its
    # entry, and each name is defined there rather than re-exported into it
    module = importlib.import_module(f"hillscape.{key}")
    assert module.__all__ == list(hs._HOMES[key])
    for name in module.__all__:
        assert getattr(module, name).__module__ == module.__name__, name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from hillscape import *", namespace)
    assert {name: namespace[name] for name in hs.__all__} == \
        {name: getattr(hs, name) for name in hs.__all__}


def test_submodule_import_through_the_package():
    from hillscape import analysis
    assert analysis is importlib.import_module("hillscape.analysis")
    assert hs.basins is analysis.basins


def test_unknown_name_raises_the_standard_attribute_error():
    with pytest.raises(AttributeError) as plain:
        getattr(types.ModuleType("hillscape"), "no_such_name")
    with pytest.raises(AttributeError) as lazy:
        getattr(hs, "no_such_name")
    assert str(lazy.value) == str(plain.value)
    assert str(lazy.value) == "module 'hillscape' has no attribute 'no_such_name'"
