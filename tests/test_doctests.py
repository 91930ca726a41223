"""The `>>>` examples in the package modules and in README.md."""
import doctest
import importlib
import pkgutil
from pathlib import Path

import pytest

import qschubert

# __main__ runs the command line when imported
MODULES = sorted(m.name for m in pkgutil.iter_modules(qschubert.__path__)
                 if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    module = importlib.import_module(f"qschubert.{name}")
    failed, _ = doctest.testmod(module)
    assert failed == 0


def test_readme_doctests():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    failed, attempted = doctest.testfile(str(readme), module_relative=False)
    assert (failed, attempted) == (0, 9)
