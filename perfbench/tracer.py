"""Span tracing of thinimage from outside the package.

``Tracer.install`` rebinds each traced public function in every thinimage
module namespace that holds it. The rebinding has to cover the copies that
``from .forward import synthesize`` style imports make (``cli`` imports its
names directly and ``imaging`` imports ``bessel_j_table``), otherwise the
calls made through those copies would go unseen. No source file is edited.

A span is recorded only while ``tracer.op`` is set, so calls the benchmark
makes outside an operation (scoring, set-up) leave no trace. Spans stay in
memory; the caller writes them out when it ends.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import itertools
import os
import sys
import threading
import time
from collections import defaultdict

import numpy as np

# Layers are the modules under src/thinimage. special is reached only by the
# oracles functional, which no workload runs.
TRACED = {
    "forward": (
        "bessel_j_table",
        "boundary_kernel_tables",
        "boundary_kernel_gradients",
        "synthesize",
        "add_awgn",
        "save_dataset",
        "assemble_multistatic",
    ),
    "imaging": ("adjoint_field_batch", "td_component_maps", "etd_single", "etd_multi"),
    "baselines": ("kirchhoff_map", "multi_kirchhoff_map"),
    "postprocess": ("extract_ridge", "chebyshev_fit", "discrete_norms"),
    "maps": ("make_lattice", "save_map_csv", "save_map_pgm"),
    "geometry": ("discretize",),
    "cli": ("parse_config", "run"),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)


def _file_bytes(args, result):
    return os.path.getsize(args["path"])


# Work counts read from argument and result shapes at the function boundary.
COUNTS = {
    "forward.bessel_j_table.entries": ("forward.bessel_j_table", lambda a, r: r.size),
    "forward.boundary_kernel_gradients.entries": (
        "forward.boundary_kernel_gradients",
        lambda a, r: r[0].size,
    ),
    "imaging.adjoint_field_batch.point_dirs": (
        "imaging.adjoint_field_batch",
        lambda a, r: np.atleast_2d(a["points"]).shape[0] * np.shape(a["traces"])[1],
    ),
    "forward.save_dataset.bytes": ("forward.save_dataset", _file_bytes),
    "maps.save_map_csv.bytes": ("maps.save_map_csv", _file_bytes),
}

# Functions whose (omega, points) arguments are hashed, to count how many
# calls in one process repeat an earlier call's tables.
KEYED = ("forward.boundary_kernel_gradients", "imaging.adjoint_field_batch")


def table_key(omega, points) -> str:
    pts = np.ascontiguousarray(np.atleast_2d(points), dtype=float)
    h = hashlib.blake2b(digest_size=16)
    h.update(np.float64(omega).tobytes())
    h.update(repr(pts.shape).encode("ascii"))
    h.update(pts.tobytes())
    return h.hexdigest()


class Tracer:
    """Records spans and counts for the traced thinimage functions."""

    def __init__(self) -> None:
        self.op = None
        self.spans: list[tuple] = []  # (id, name, start, end, parent, op, thread)
        self.counts: dict[str, float] = defaultdict(float)
        self.keys: dict[str, set] = defaultdict(set)
        self._ids = itertools.count()
        self._local = threading.local()

    def install(self) -> None:
        originals = {}
        for mod, names in TRACED.items():
            module = importlib.import_module(f"thinimage.{mod}")
            for name in names:
                fn = getattr(module, name)
                originals[id(fn)] = (fn, self._wrap(f"{mod}.{name}", fn))
        for modname, module in list(sys.modules.items()):
            if modname != "thinimage" and not modname.startswith("thinimage."):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, qualname: str, fn):
        signature = inspect.signature(fn)
        counters = [(metric, f) for metric, (owner, f) in COUNTS.items() if owner == qualname]
        keyed = qualname in KEYED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op = self.op
            if op is None:
                return fn(*args, **kwargs)
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(
                    (sid, qualname, start, end, parent, op, threading.get_ident())
                )
            if counters or keyed:
                bound = signature.bind(*args, **kwargs).arguments
                for metric, f in counters:
                    self.counts[metric] += f(bound, result)
                if keyed:
                    self.keys[qualname].add(table_key(bound["omega"], bound["points"]))
            return result

        return traced


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover."""
    own = {s[0]: s[3] - s[2] for s in spans}
    for s in spans:
        if s[4] is not None and s[4] in own:
            own[s[4]] -= s[3] - s[2]
    return own
