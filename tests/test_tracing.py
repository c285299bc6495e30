"""The benchmark's tracer (``bench/tracing.py``) wraps package names it looks
up by string; these checks fail fast when a rename leaves one behind."""
import importlib
import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

from ppda import pushdown

_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
_SPEC = importlib.util.spec_from_file_location("bench_tracing", _PATH)
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)  # defines tables and classes only; install() is never called


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


@pytest.mark.parametrize("span,module,name", tracing.FUNCTIONS, ids=[row[0] for row in tracing.FUNCTIONS])
def test_traced_function_resolves(span, module, name):
    assert callable(getattr(importlib.import_module(module), name))


@pytest.mark.parametrize("span,module,cls_name,name", tracing.METHODS, ids=[row[0] for row in tracing.METHODS])
def test_traced_method_is_defined_on_its_class(span, module, cls_name, name):
    # The tracer rebinds the class attribute, which catches every call only
    # if the class defines the method and no subclass overrides it.
    cls = getattr(importlib.import_module(module), cls_name)
    assert callable(vars(cls).get(name))
    assert not [sub for sub in _subclasses(cls) if name in vars(sub)]


def test_chain_looks_step_up_at_call_time(monkeypatch):
    # The tracer counts ``pushdown.step`` by rebinding the module attribute.
    calls = []
    original = pushdown.step

    def counted(model, state):
        calls.append(state)
        return original(model, state)

    model = pushdown.parse_model("X -> X X [1/2]\nX -> ~ [1/2]\n")
    gen = pushdown.induced_chain(model, pushdown.Configuration(("X",)))
    monkeypatch.setattr(pushdown, "step", counted)
    assert gen.successors("X") == [("X X", Fraction(1, 2)), ("~", Fraction(1, 2))]
    assert calls == ["X"]
