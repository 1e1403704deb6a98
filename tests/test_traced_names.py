"""The benchmark's tracer finds every function it times.

``perfbench/tracer.py`` rebinds the functions named in its ``TRACED`` table
with ``getattr`` on each ``thinimage`` module; a renamed or deleted function
would stop the traced benchmark run. The table is read from the benchmark's
own source, so the check follows it when it changes.
"""

import importlib
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracer")


def test_every_traced_name_resolves(tracer):
    missing = []
    for mod, names in tracer.TRACED.items():
        module = importlib.import_module(f"thinimage.{mod}")
        missing += [f"{mod}.{name}" for name in names if not callable(getattr(module, name, None))]
    assert not missing


def test_keyed_functions_take_omega_and_points(tracer):
    # the tracer hashes these two arguments of every keyed call
    for qualname in tracer.KEYED:
        mod, name = qualname.split(".")
        fn = getattr(importlib.import_module(f"thinimage.{mod}"), name)
        assert {"omega", "points"} <= set(inspect.signature(fn).parameters), qualname
