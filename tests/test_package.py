"""The package namespace: its public names load on first use.

``hillscape/__init__`` imports no submodule.  A name in ``__all__`` is
looked up in its home module on every access, so the package hands out
whatever that module binds now.
"""

import ast
import importlib
import types
from pathlib import Path

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


# -- dead code: no linter runs here, so two of its rules are kept by ast ------

_TREES = {path.stem: ast.parse(path.read_text())
          for path in sorted(Path(hs.__file__).parent.glob("*.py"))}


def _reads(tree) -> set:
    """Every name that ``tree`` reads: loaded or deleted names, attribute
    names, and the names that its ``from ... import`` lines take."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_module_level_import_is_used():
    unused = []
    for module, tree in _TREES.items():
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                    getattr(node, "module", None) != "__future__":
                bound = (alias.asname or alias.name.split(".")[0] for alias in node.names)
                unused += [f"{module}: {name}" for name in bound if name not in used]
    assert unused == []


def test_every_module_level_name_is_referenced():
    # a name counts as referenced if any module of the package reads it
    # (scopes are not resolved); dunders and the public names are exempt
    read = set().union(*map(_reads, _TREES.values()))
    public = {name for names in hs._HOMES.values() for name in names}
    dead = []
    for module, tree in _TREES.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            dead += [f"{module}: {name}" for name in names
                     if name not in read and name not in public
                     and not (name.startswith("__") and name.endswith("__"))]
    assert dead == []
