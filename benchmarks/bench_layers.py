"""Per-layer timings of thinimage on fixed scenes.

Run from the root of a source checkout:

    python3 benchmarks/bench_layers.py --out BENCH.json --label change
    python3 benchmarks/bench_layers.py --src /path/to/parent/src --label parent \
        --src src --label change --out BENCH.json

Each layer is timed on its own, as the median of ``REPEATS`` calls, on five
scenes that ``perfbench/run.py`` does not run: L16/K16 on a 128² lattice
with one fixed noise seed (the noise sweep's scene, untraced), L4/K16 on a
128² lattice (the default preset's directions and lattice, in process),
L4/K16 on a 256² lattice, L16/K16 on a 256² lattice, where the lattice and
the direction count are both large, and L6/K16 on a 128² lattice, whose six
directions the square's symmetries do not map onto themselves, so that its
maps pair each node with its own waves (``DiskModes.pair``), where the other
scenes pair each lattice orbit through its representative's waves. All use
the sigma1 curve, a 128-point boundary grid and 15 dB noise. The layers:

- ``discretize``: the scene's curve on ``forward.SYNTHESIS_NODES`` nodes,
  as synthesis and the config stage take it;
- ``Lattice.orbits``: the nodes grouped under the square's symmetries,
  computed afresh;
- ``DiskModes`` construction for the band on the lattice's orbits, as
  ``etd_multi`` builds it;
- ``DiskModes.apply`` over the lattice's nodes at the top frequency, on a
  ``DiskModes`` of that frequency alone built once, and on the coefficient
  shape the adjoint passes (2L columns, min(nmax, N/2) + 1 rows for the
  N-point grid), value alone (the Bessel and angular tables per block of
  nodes, each block's product written in place into the result) and with
  the gradient; this is the path of ``adjoint_field_batch``, not of the
  maps;
- ``adjoint_field_batch``: value and gradient at the top frequency;
- ``td_component_maps``: both raw sensitivity maps at the top frequency,
  the adjoint together with the sums against the incident waves; each
  block's product rows are reduced to two sums per row as they come
  (``DiskModes.pair``), and each node takes its row's two sums;
- ``etd_multi``: the whole multi-frequency map, paired per block in the
  same way;
- ``multi_kirchhoff_map``: the migration baseline summed over the band, on
  multistatic matrices assembled beforehand (the plane waves at the orbit
  representatives and one bilinear form per variant, as the ``mkm`` method
  of ``thinimage run``);
- ``music_map``: the subspace baseline at the top frequency, on its
  assembled matrix and the signal dimension of ``signal_space_dim`` for
  noisy data, as the ``music`` method takes it;
- ``synthesize``: the clean traces of the scene;
- ``save_dataset``: the scene's noisy dataset written as text;
- ``save_map_csv`` and ``save_map_pgm``: the scene's ``etd_multi`` map
  written as text and as a PGM.

The writers write into a temporary directory that is removed at exit.

Each median is scaled to a nominal host speed with the fixed kernel of
``perfbench/run.py`` (``HostSpeed``), run before and after each layer:
``scaled_median_s`` = ``median_s`` * ``REF_NOMINAL_S`` / ``ref_s``.
Each scene also records the tracemalloc peak of one more call of six
layers after the timed ones (the orbits warm), in 10^6 bytes: what numpy
allocates at most during the call, apart from the caller's data and what the
layer's objects already hold. ``etd_multi_peak_mb`` is the band's map (its
``DiskModes`` keeps one e^{in theta} table of the representatives),
``adjoint_field_batch_peak_mb`` (gradient) and
``DiskModes.apply+gradient_peak_mb`` are one frequency on the whole lattice,
the latter without the trace modes and the ``DiskModes`` construction,
``multi_kirchhoff_map_peak_mb`` and ``music_map_peak_mb`` are the two
baselines, and ``synthesize_peak_mb`` is the clean traces, whose (M, L)
sources on the curve nodes a set of 4 | L directions builds for L/2
directions only.

``--src`` imports thinimage from another source tree, so one copy of this
script times two commits. Given twice, with one ``--label`` each, it imports
both trees in one process, each under its own package name, and alternates
them call by call within each layer (in the order ABBA...), so drift of the
host lands on both trees alike; the host kernel then runs once per layer
for both. Each call appends one run per tree (label, host, numpy and scipy
versions, nproc, medians in seconds, the peaks, and the labels timed
together) to ``--out``.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import os
import platform
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
from run import REF_NOMINAL_S, HostSpeed  # noqa: E402

# scene: (incident directions, lattice nodes per side)
SCENES = {
    "L16K16_128": (16, 128),
    "L4K16_128": (4, 128),
    "L4K16_256": (4, 256),
    "L16K16_256": (16, 256),
    "L6K16_128": (6, 128),
}
N_FREQUENCIES = 16
SNR_DB = 15.0
NOISE_SEED = 7
REPEATS = 15
# layers whose tracemalloc peak each scene records, as "<layer>_peak_mb"
PEAK_LAYERS = (
    "etd_multi",
    "adjoint_field_batch",
    "DiskModes.apply+gradient",
    "multi_kirchhoff_map",
    "music_map",
    "synthesize",
)


def peak_bytes(call) -> int:
    """The tracemalloc peak of one call."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def load_tree(src: str, name: str):
    """The thinimage package of source tree ``src``, imported as package ``name``."""
    init = Path(src).resolve() / "thinimage" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for module in ("baselines", "forward", "geometry", "imaging", "maps"):
        importlib.import_module(f"{name}.{module}")
    return package


def scene_layers(package, n_directions: int, size: int, out: Path) -> dict:
    import numpy as np

    baselines, forward, imaging = package.baselines, package.forward, package.imaging
    geometry, maps = package.geometry, package.maps

    grid = geometry.boundary_grid(128)
    incident = forward.IncidentSet(
        forward.standard_directions(n_directions), forward.frequency_band(N_FREQUENCIES)
    )
    curve = geometry.builtin_curve("sigma1")
    inclusions = [geometry.ThinInclusion(curve)]
    lattice = maps.make_lattice(size)
    noisy = forward.add_awgn(forward.synthesize(inclusions, incident, grid), SNR_DB, NOISE_SEED)
    omega = float(incident.omegas[-1])
    traces = noisy.traces[:, :, -1]

    def band():
        return forward.DiskModes(incident.omegas, lattice.points, lattice.orbits)

    modes = forward.DiskModes(omega, lattice.points)  # the adjoint's, at the top frequency
    top = N_FREQUENCIES - 1
    msrs = [forward.assemble_multistatic(noisy, k) for k in range(N_FREQUENCIES)]
    signal_dim = baselines.signal_space_dim(msrs[top], clean=False)
    rng = np.random.default_rng(NOISE_SEED)
    shape = (min(modes.nmax[0], grid.n_points // 2) + 1, 2 * n_directions)
    coefficients = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    imap = imaging.etd_multi(noisy, lattice)
    return {
        "discretize": lambda: geometry.discretize(curve, forward.SYNTHESIS_NODES),
        "Lattice.orbits": lambda: type(lattice).orbits.func(lattice),
        "DiskModes(band)": band,
        "DiskModes.apply": lambda: modes.apply(coefficients),
        "DiskModes.apply+gradient": lambda: modes.apply(coefficients, gradient=True),
        "adjoint_field_batch": lambda: imaging.adjoint_field_batch(
            traces, grid, omega, lattice.points, gradient=True
        ),
        "td_component_maps": lambda: imaging.td_component_maps(noisy, lattice, top),
        "etd_multi": lambda: imaging.etd_multi(noisy, lattice),
        "multi_kirchhoff_map": lambda: baselines.multi_kirchhoff_map(lattice, msrs),
        "music_map": lambda: baselines.music_map(lattice, msrs[top], signal_dim),
        "synthesize": lambda: forward.synthesize(inclusions, incident, grid),
        "save_dataset": lambda: forward.save_dataset(noisy, out / "dataset.txt"),
        "save_map_csv": lambda: maps.save_map_csv(imap, out / "map.csv"),
        "save_map_pgm": lambda: maps.save_map_pgm(imap, out / "map.pgm"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON file the runs are appended to")
    parser.add_argument(
        "--label", required=True, action="append", help="name of the measured tree, once per tree"
    )
    parser.add_argument(
        "--src", action="append", help="source tree to import, at most twice (default: this one)"
    )
    args = parser.parse_args(argv)
    sources = args.src or [str(ROOT / "src")]
    if len(sources) > 2 or len(args.label) != len(sources):
        parser.error("give one or two --src, and one --label per tree")
    packages = [load_tree(src, f"thinimage_{i}") for i, src in enumerate(sources)]
    import numpy
    import scipy

    host = HostSpeed()
    medians, peaks = [{} for _ in packages], [{} for _ in packages]
    refs = {}
    with tempfile.TemporaryDirectory() as out:
        for scene, (n_directions, size) in SCENES.items():
            layers = [scene_layers(p, n_directions, size, Path(out)) for p in packages]
            refs[scene] = {}
            for tree_medians in medians:
                tree_medians[scene] = {}
            for layer in layers[0]:
                times = [[] for _ in packages]
                for repeat in range(REPEATS):
                    order = range(len(packages))
                    for tree in reversed(order) if repeat % 2 else order:
                        start = time.perf_counter()
                        layers[tree][layer]()
                        times[tree].append(time.perf_counter() - start)
                refs[scene][layer] = host.scale()
                for tree, tree_times in enumerate(times):
                    medians[tree][scene][layer] = statistics.median(tree_times)
            for tree, tree_layers in enumerate(layers):
                for layer in PEAK_LAYERS:
                    peaks[tree].setdefault(layer, {})[scene] = peak_bytes(tree_layers[layer]) / 1e6
    records = []
    for label, tree_medians, tree_peaks in zip(args.label, medians, peaks):
        scaled = {
            scene: {layer: t * REF_NOMINAL_S / refs[scene][layer] for layer, t in times.items()}
            for scene, times in tree_medians.items()
        }
        records.append(
            {
                "label": label,
                "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
                "host": {
                    "nproc": os.cpu_count(),
                    "machine": platform.machine(),
                    "python": platform.python_version(),
                    "numpy": numpy.__version__,
                    "scipy": scipy.__version__,
                },
                "repeats": REPEATS,
                "alternated": args.label,
                "scaled_median_s": scaled,
                "median_s": tree_medians,
                "ref_s": refs,
                **{f"{layer}_peak_mb": tree_peaks[layer] for layer in PEAK_LAYERS},
            }
        )
    out = Path(args.out)
    runs = json.loads(out.read_text())["runs"] if out.exists() else []
    out.write_text(json.dumps({"runs": [*runs, *records]}, indent=2) + "\n")
    print(json.dumps(records, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
