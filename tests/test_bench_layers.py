"""Smoke test of benchmarks/bench_layers.py: every layer it times still runs."""

import importlib.util
import sys
from pathlib import Path

import thinimage

# scene_layers reads these submodules off the package it is given
from thinimage import baselines, forward, geometry, imaging, maps  # noqa: F401

SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_layers.py"


def test_every_layer_runs_on_a_small_scene(tmp_path, monkeypatch):
    # the script puts perfbench/ first on sys.path and imports its run.py as ``run``
    monkeypatch.setattr(sys, "path", [*sys.path])
    spec = importlib.util.spec_from_file_location("bench_layers", SCRIPT)
    bench = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(bench)
    finally:
        sys.modules.pop("run", None)
    layers = bench.scene_layers(thinimage, 4, 16, tmp_path)
    for call in layers.values():
        call()
    for layer in bench.PEAK_LAYERS:
        assert bench.peak_bytes(layers[layer]) > 0, layer
    assert {p.name for p in tmp_path.iterdir()} == {"dataset.txt", "map.csv", "map.pgm"}
