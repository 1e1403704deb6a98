"""The benchmark finds every thinimage name it times, imports or calls.

``perfbench/tracer.py`` rebinds the functions named in its ``TRACED`` table
with ``getattr`` on each ``thinimage`` module, and the benchmark scripts
import further names and call them with keyword arguments; a renamed or
deleted name would stop the benchmark run. The names are read from the
benchmark's own source, so the checks follow it when it changes.
"""

import ast
import importlib
import importlib.util
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


def _benchmark_uses():
    """Every thinimage name the benchmark scripts use, with the keywords they pass it.

    Returns {(module, name): keywords}: the names imported ``from thinimage``
    or ``from thinimage.X``, and the attributes read through a module bound
    by ``from thinimage import X``; keywords are those of the calls to each.
    """
    uses: dict[tuple[str, str], set[str]] = {}
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = {}  # local name -> (module, name)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "thinimage":
                for alias in node.names:
                    bound[alias.asname or alias.name] = (node.module, alias.name)
        submodules = {local for local, (module, _) in bound.items() if module == "thinimage"}

        def target(expr):
            if isinstance(expr, ast.Name) and expr.id in bound:
                return bound[expr.id]
            if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
                if expr.value.id in submodules:
                    return (f"thinimage.{bound[expr.value.id][1]}", expr.attr)
            return None

        for node in ast.walk(tree):
            if (key := target(node)) is not None:
                uses.setdefault(key, set())
            if isinstance(node, ast.Call) and (key := target(node.func)) is not None:
                uses.setdefault(key, set()).update(kw.arg for kw in node.keywords if kw.arg)
    return uses


def _resolve(module: str, name: str):
    """``module.name``, importing it first if it is a submodule; None if there is none."""
    mod = importlib.import_module(module)
    if hasattr(mod, "__path__") and importlib.util.find_spec(f"{module}.{name}"):
        importlib.import_module(f"{module}.{name}")
    return getattr(mod, name, None)


def test_every_benchmark_name_resolves():
    uses = _benchmark_uses()
    # names the benchmark reaches outside the traced table
    for key in [
        ("thinimage.geometry", "boundary_grid"),
        ("thinimage.maps", "top_quantile_distance"),
        ("thinimage.maps", "from_point_values"),
        ("thinimage.postprocess", "ChebyshevCurve"),
    ]:
        assert key in uses, key
    missing = [f"{module}.{name}" for module, name in uses if _resolve(module, name) is None]
    assert not missing


def test_benchmark_keywords_are_parameters():
    uses = _benchmark_uses()
    assert "m_nodes" in uses[("thinimage.forward", "synthesize")]
    assert "k_index" in uses[("thinimage.postprocess", "discrete_norms")]
    unknown = []
    for (module, name), keywords in uses.items():
        if keywords:
            params = inspect.signature(_resolve(module, name)).parameters
            unknown += [f"{module}.{name}({kw}=)" for kw in sorted(keywords - set(params))]
    assert not unknown
