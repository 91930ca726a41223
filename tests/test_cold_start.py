"""What `import qschubert` loads, the ring-layer names it resolves on first
use, and the plain value classes that keep `dataclasses` out of the import."""
import copy
import pickle
from importlib import import_module

import pytest

import qschubert
from qschubert import EDecomposition, FlagShape, e_decomposition, partial_ring

# the modules a fresh import of the package must not load
_NOT_LOADED = ("dataclasses", "inspect", "qschubert.qring", "qschubert.partial")

_LOADED_BY = """
import sys
before = set(sys.modules)
import {module}
print(*sorted(set(sys.modules) - before))
"""

# the names of the ring layer: everything qring and partial export
_RING_NAMES = sorted(
    name for module in ("qring", "partial")
    for name in import_module(f"qschubert.{module}").__all__)


def test_the_import_loads_neither_dataclasses_nor_the_ring_layer(run_fresh):
    loaded = run_fresh(_LOADED_BY.format(module="qschubert")).split()
    assert "qschubert.universal" in loaded
    assert [m for m in _NOT_LOADED if m in loaded] == []


def test_the_cli_loads_no_dataclasses(run_fresh):
    loaded = run_fresh(_LOADED_BY.format(module="qschubert.cli")).split()
    assert "qschubert.qring" in loaded
    assert [m for m in ("dataclasses", "inspect") if m in loaded] == []


def test_a_fresh_import_leaves_exactly_the_ring_names_unbound(run_fresh):
    out = run_fresh(
        "import qschubert\n"
        "print(*sorted(n for n in qschubert.__all__ if n not in vars(qschubert)))\n"
        "print(set(qschubert.__all__) <= set(dir(qschubert)))\n").splitlines()
    assert len(_RING_NAMES) == 16
    assert out == [" ".join(_RING_NAMES), "True"]


@pytest.mark.parametrize("name", _RING_NAMES)
def test_a_ring_name_is_its_module_object_and_is_bound_on_first_read(
        name, monkeypatch):
    monkeypatch.delitem(vars(qschubert), name, raising=False)
    assert name in dir(qschubert)
    got = getattr(qschubert, name)
    module = "qring" if name in qschubert.qring.__all__ else "partial"
    assert got is getattr(import_module(f"qschubert.{module}"), name)
    assert vars(qschubert)[name] is got


def test_star_import_binds_every_public_name(run_fresh):
    out = run_fresh(
        "from qschubert import *\n"
        "import qschubert\n"
        "print(all(globals()[n] is getattr(qschubert, n)"
        " for n in qschubert.__all__))\n")
    assert out.split() == ["True"]


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        qschubert.no_such_name
    assert not hasattr(qschubert, "_no_such_name")
    with pytest.raises(ImportError):
        from qschubert import no_such_name  # noqa: F401


def _frozen(obj, field):
    for act in (lambda: setattr(obj, field, None), lambda: delattr(obj, field),
                lambda: setattr(obj, "other", None)):
        with pytest.raises(AttributeError):
            act()


def _round_trips(obj):
    for back in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj)):
        assert back == obj and back is not obj
        assert type(back) is type(obj)


def test_flag_shape_is_a_frozen_value():
    shape = FlagShape((1, 3), 4)
    assert shape == FlagShape(steps=(1, 3), n=4)
    assert shape != FlagShape((2, 3), 4)
    assert shape != (1, 3, 4) and shape != "1:3:4"
    assert hash(shape) == hash(FlagShape.from_string("1:3:4"))
    assert repr(shape) == "FlagShape(steps=(1, 3), n=4)"
    assert partial_ring(FlagShape((2,), 4)) is \
        partial_ring(FlagShape.from_string("2:4"))
    _frozen(shape, "n")
    _frozen(shape, "steps")
    # the cached fields still fill, once
    assert shape.q_grades == (3, 3) and shape.q_grades is shape.q_grades
    assert (shape.steps, shape.n) == ((1, 3), 4)
    _round_trips(shape)
    _round_trips(FlagShape.complete(5))


def test_e_decomposition_is_a_frozen_unhashable_value():
    dec = e_decomposition((3, 1, 2))
    assert dec == EDecomposition(dict(dec.coeffs))
    assert dec != EDecomposition({}) and dec != dec.coeffs
    assert repr(EDecomposition({(1, 0): 1})) == "EDecomposition(coeffs={(1, 0): 1})"
    with pytest.raises(TypeError):
        hash(EDecomposition({}))
    _frozen(dec, "coeffs")
    _round_trips(dec)
