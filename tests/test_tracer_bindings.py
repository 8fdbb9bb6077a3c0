"""The benchmark tracer's bindings still name callables in the package.

``bench/tracer.py`` wraps package functions at the names their callers bind;
a refactor that renames or removes one of them breaks ``bench/run.py
--trace 1`` without failing anything else.  The module is executed from its
source text, so nothing is written under ``bench/``, and ``install()`` is
never called, so the package stays unwrapped for the rest of the session.
"""

import types
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    module = types.ModuleType("bench_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"),
         module.__dict__)
    return module


def bindings(tracer):
    return ([(module, attr) for module, attr, _ in tracer.SPAN_BINDINGS]
            + [tracer.WEIGHTS_BINDING[:2], tracer.MLF_BINDING])


def test_every_binding_resolves_to_a_callable(tracer):
    for module, attr in bindings(tracer):
        owner, last = tracer._owner(module, attr)
        assert callable(getattr(owner, last, None)), f"{module}.{attr}"

