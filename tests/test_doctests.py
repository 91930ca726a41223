"""The public names and the `>>>` examples of the package modules and of
README.md."""
import doctest
import importlib
import pkgutil
from pathlib import Path

import pytest

import qschubert

# __main__ runs the command line when imported
MODULES = sorted(m.name for m in pkgutil.iter_modules(qschubert.__path__)
                 if m.name != "__main__")


@pytest.mark.parametrize("name", ["qschubert"] + [f"qschubert.{m}" for m in MODULES])
def test_public_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    module = importlib.import_module(f"qschubert.{name}")
    failed, _ = doctest.testmod(module)
    assert failed == 0


def test_readme_doctests():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    failed, attempted = doctest.testfile(str(readme), module_relative=False)
    assert (failed, attempted) == (0, 9)
