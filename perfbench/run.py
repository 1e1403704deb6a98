"""End-to-end and per-layer benchmark of thinimage.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload cli_default --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

The program is measured from outside, through the ``thinimage`` CLI
(``python3 -m thinimage.cli`` on ``src/``) and the library functions. Each
workload is a closed loop with one client: operation i starts when
operation i-1 ends and uses the master/noise seed ``seed * 10000 + i``.

- ``cli_default``: one fresh ``thinimage run`` process per operation on
  the default preset sigma1_L4_K16 (etd_multi, thread pool, adjoint-bound).
- ``cli_mkm``: one fresh process per operation on sigma3_kirchhoff_multi
  (Kirchhoff migration; never calls the adjoint).
- ``noise_sweep``: in-process; clean sigma1 L16/K16 data is synthesized
  once, then each operation adds noise, builds the etd_multi map, fits the
  ridge and re-synthesizes, as the acceptance suite's 10-seed loop does.

Times are scaled to a nominal host speed: a fixed numpy/Python kernel
(``HostSpeed``) runs between operations, and each operation's wall time is
multiplied by ``REF_NOMINAL_S`` over the kernel's time around it. The raw
wall median and the kernel's time are reported with the per-layer metrics.

Every operation passes a correctness gate (exit status, expected artifacts,
manifest SHA-256 against the bytes, finite maps in their documented range).
With ``--trace 1`` operations alternate between untraced and traced (spans
recorded through ``tracer.py``), the CLI workloads also re-run the first
seed with ``--workers 1`` and require byte-identical artifacts, and the
spans are written to ``.bench_build/perfbench/traces/``. The last stdout
line is the JSON result; the line before it is the environment block.
``--workload all`` runs every workload, prints each end-to-end metric by
name and unit, and exits 1 when any correctness check failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

CLI_WORKLOADS = {
    # workload: (preset, true curve, map artifact, functional)
    "cli_default": ("sigma1_L4_K16", "sigma1", "map_etd_multi", "etd_multi"),
    "cli_mkm": ("sigma3_kirchhoff_multi", "sigma3", "map_kirchhoff_multi", "mkm"),
}
WORKLOAD_NAMES = (*CLI_WORKLOADS, "noise_sweep")

SEED_STRIDE = 10_000
SETUP_REPEATS = 5
# host-speed reference: the kernel's seconds on the host a time is scaled to
REF_NOMINAL_S = 0.2
REF_REPEATS = 8
OP_TIMEOUT_S = 100.0
# scoring constants: the CLI's own ridge quantile, ridge radius, fit degree
# and synthesis node count, so the benchmark fit matches the CLI's fit
QUALITY_NODES = 400
TOP_QUANTILE = 0.01
RIDGE_RADIUS = 0.85
FIT_DEGREE = 5
SWEEP_SNR_DB = 15.0
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


class OpFailure(Exception):
    """An operation broke a correctness check."""


def _median(values):
    return statistics.median(values) if values else math.nan


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _curve_rms(fit, disc) -> float:
    from thinimage.geometry import distance_to_curve
    import numpy as np

    s = np.linspace(fit.a, fit.b, 200)
    pts = np.column_stack([s, fit.evaluate(s)])
    return float(np.sqrt(np.mean(distance_to_curve(pts, disc) ** 2)))


def _ridge_fit(imap):
    """The CLI's initial guess: Chebyshev fit of the map's inner ridge."""
    import numpy as np
    from thinimage.postprocess import chebyshev_fit, extract_ridge

    pts = extract_ridge(imap, TOP_QUANTILE)
    pts = pts[np.hypot(pts[:, 0], pts[:, 1]) <= RIDGE_RADIUS]
    return chebyshev_fit(pts, FIT_DEGREE)


def _true_curve(label: str):
    from thinimage.geometry import builtin_curve, discretize

    return discretize(builtin_curve(label), QUALITY_NODES)


def _check_map_values(values, functional: str) -> None:
    import numpy as np

    if not np.all(np.isfinite(values)):
        raise OpFailure("map has non-finite values")
    # etd maps average peak-normalized components; migration maps are moduli
    if functional == "mkm":
        if np.min(values) < 0.0:
            raise OpFailure("migration map has negative values")
    elif np.max(np.abs(values)) > 1.0 + 1e-12:
        raise OpFailure("normalized map leaves [-1, 1]")


class HostSpeed:
    """Fixed numpy and Python work that shares no code with thinimage.

    On a shared 2-vCPU virtual machine this kernel's time drifts by up to a
    third over minutes, for wall and CPU time alike. Each operation is bracketed by a run of this kernel, and
    its time is scaled by how much slower or faster the kernel ran than
    ``REF_NOMINAL_S``. The kernel's mix follows the program's: complex matrix
    products, a Bessel-style recurrence, complex exponentials, and
    interpreter-bound Python as in start-up and imports.
    """

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
        self.x = rng.uniform(20.0, 40.0, 100_000)
        self.last = self.run()

    def run(self) -> float:
        import numpy as np

        start = time.perf_counter()
        for _ in range(REF_REPEATS):
            b = self.a @ self.a
            # a Bessel-style downward recurrence over a vector of arguments
            inv_x = 1.0 / self.x
            jp = np.zeros_like(self.x)
            jc = np.full_like(self.x, 1e-30)
            for n in range(40, 0, -1):
                jp, jc = jc, (2.0 * n) * inv_x * jc - jp
            phase = np.exp(1j * self.x)
            b[0, 0] += jc.sum() + phase.sum()
            names = {f"k{i}": i * i % 7 for i in range(8_000)}
            b[0, 0] += sum(v for k, v in sorted(names.items()) if k[-1] != "3")
        return time.perf_counter() - start

    def scale(self) -> float:
        """Mean kernel time around the interval since the last call."""
        before, self.last = self.last, self.run()
        return 0.5 * (before + self.last)


class Op:
    """One operation's outcome."""

    def __init__(self, index: int, seed: int, traced: bool, workers: int | None = None):
        self.index = index
        self.seed = seed
        self.traced = traced
        self.workers = workers
        self.seconds = math.nan
        self.ref_s = math.nan
        self.rss_mb = math.nan
        self.top1 = math.nan
        self.fit_rms = math.nan
        self.hashes: dict[str, str] = {}
        self.error = ""

    @property
    def ok(self) -> bool:
        return not self.error

    @property
    def scaled_s(self) -> float:
        """Wall seconds at the host speed where the reference takes REF_NOMINAL_S."""
        return self.seconds * REF_NOMINAL_S / self.ref_s

    def record(self) -> dict:
        return {k: v for k, v in vars(self).items() if k != "hashes"}


# ---------------------------------------------------------------------------
# CLI workloads: one fresh `thinimage run` process per operation


class CliWorkload:
    def __init__(self, name: str, run_dir: Path):
        self.preset, curve, self.map_name, self.functional = CLI_WORKLOADS[name]
        self.run_dir = run_dir
        self.ini = run_dir / f"{self.preset}.ini"
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.spans: list[list] = []
        self.next_span_id = 0
        self.counts: dict[str, float] = {}
        self.scopes: list[tuple[str, int, int]] = []  # (name, distinct, calls)
        from thinimage import cli

        cli.write_config(cli.preset_configs()[self.preset], self.ini)
        self.disc = _true_curve(curve)

    def setup_argv(self) -> list[str]:
        return ["--preset-ini", str(self.ini)]

    def run_op(self, op: Op) -> None:
        op_dir = self.run_dir / f"op{op.index:03d}"
        op_dir.mkdir()
        spans_path = op_dir / "spans.json"
        if op.traced:
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans_path)]
        else:
            cmd = [sys.executable, "-m", "thinimage.cli"]
        cmd += ["run", "--config", str(self.ini), "--out", "out", "--seed", str(op.seed)]
        if op.workers is not None:
            cmd += ["--workers", str(op.workers)]
        with open(op_dir / "stderr.txt", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                cmd, cwd=op_dir, env=self.env, stdout=subprocess.DEVNULL, stderr=err
            )
            killer = threading.Timer(OP_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                # interrupted (SIGTERM, Ctrl-C): leave no child behind
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            op.seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        op.rss_mb = usage.ru_maxrss / 1024.0
        if proc.returncode != 0:
            tail = (op_dir / "stderr.txt").read_text(errors="replace")[-300:]
            raise OpFailure(f"exit status {proc.returncode}: {tail}")
        self._check_artifacts(op, op_dir / "out")
        if op.traced:
            self._merge_spans(op, json.loads(spans_path.read_text()))
        shutil.rmtree(op_dir)

    def _check_artifacts(self, op: Op, out: Path) -> None:
        import numpy as np
        from thinimage.maps import from_point_values, make_lattice, top_quantile_distance
        from thinimage.postprocess import ChebyshevCurve

        expected = {"dataset.txt", f"{self.map_name}.csv", f"{self.map_name}.pgm"}
        if self.functional == "etd_multi":
            expected.add("fit_report.txt")
        manifest_path = out / "manifest.json"
        if not manifest_path.is_file():
            raise OpFailure("manifest.json missing")
        manifest = json.loads(manifest_path.read_text())
        listed = set(manifest["artifacts"])
        present = {p.name for p in out.iterdir()} - {"manifest.json"}
        if listed != expected or present != expected:
            raise OpFailure(f"artifacts {sorted(present)}, manifest {sorted(listed)}, want {sorted(expected)}")
        for name, digest in manifest["artifacts"].items():
            op.hashes[name] = _sha256(out / name)
            if op.hashes[name] != digest:
                raise OpFailure(f"{name}: SHA-256 does not match the manifest")
        op.hashes["manifest.json"] = _sha256(manifest_path)

        rows = np.loadtxt(out / f"{self.map_name}.csv", comments="#", ndmin=2)
        lattice = make_lattice(manifest["config"]["grid.lattice"])
        if rows.shape != (lattice.points.shape[0], 3) or not np.array_equal(
            rows[:, :2], lattice.points
        ):
            raise OpFailure("map rows do not match the lattice nodes")
        _check_map_values(rows[:, 2], self.functional)
        imap = from_point_values(lattice, rows[:, 2])
        op.top1 = top_quantile_distance(imap, self.disc, TOP_QUANTILE)
        if self.functional == "etd_multi":
            fit = manifest["notes"]["fit"]["guess1"]
            curve = ChebyshevCurve(fit["interval"][0], fit["interval"][1], np.array(fit["coeffs"]))
        else:
            # the CLI fits only etd maps; fit the migration map as it would
            curve = _ridge_fit(imap)
        op.fit_rms = _curve_rms(curve, self.disc)

    def _merge_spans(self, op: Op, traced: dict) -> None:
        offset = self.next_span_id
        self.next_span_id += len(traced["spans"])
        for sid, name, start, end, parent, _, thread in traced["spans"]:
            self.spans.append(
                [sid + offset, name, start, end, None if parent is None else parent + offset, op.index, thread]
            )
        for metric, value in traced["counts"].items():
            self.counts[metric] = self.counts.get(metric, 0.0) + value
        for name, distinct in traced["distinct"].items():
            calls = sum(1 for s in traced["spans"] if s[1] == name)
            self.scopes.append((name, distinct, calls))


# ---------------------------------------------------------------------------
# noise_sweep: warm, in-process, serial etd_multi per noise seed


def sweep_scene():
    """Lattice, boundary grid, incident set and clean sigma1 L16/K16 data."""
    from thinimage import forward
    from thinimage.geometry import ThinInclusion, boundary_grid, builtin_curve
    from thinimage.maps import make_lattice

    grid = boundary_grid(128)
    incident = forward.IncidentSet(forward.standard_directions(16), forward.frequency_band(16))
    truth = forward.synthesize(
        [ThinInclusion(builtin_curve("sigma1"))], incident, grid, m_nodes=QUALITY_NODES
    )
    return make_lattice(128), grid, incident, truth


class NoiseSweep:
    functional = "etd_multi"

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.lattice, self.grid, self.incident, self.truth = sweep_scene()
        self.disc = _true_curve("sigma1")

    def setup_argv(self) -> list[str]:
        return []

    def run_op(self, op: Op) -> None:
        from thinimage import forward, imaging, postprocess
        from thinimage.geometry import ThinInclusion
        from thinimage.maps import top_quantile_distance

        if self.tracer is not None:
            self.tracer.op = op.index if op.traced else None
        start = time.perf_counter()
        try:
            noisy = forward.add_awgn(self.truth, SWEEP_SNR_DB, op.seed)
            imap = imaging.etd_multi(noisy, self.lattice)
            fit = _ridge_fit(imap)
            guess = [ThinInclusion(fit.as_parametric("guess"))]
            comp = forward.synthesize(guess, self.incident, self.grid, m_nodes=QUALITY_NODES)
            report = postprocess.discrete_norms(noisy, comp, k_index=0)
        finally:
            op.seconds = time.perf_counter() - start
            if self.tracer is not None:
                self.tracer.op = None
        _check_map_values(imap.inside_values, self.functional)
        norms = (report.n1, report.n2, report.n_inf)
        if not all(math.isfinite(v) and v > 0.0 for v in norms):
            raise OpFailure(f"discrepancy norms {norms} are not finite and positive")
        op.top1 = top_quantile_distance(imap, self.disc, TOP_QUANTILE)
        op.fit_rms = _curve_rms(fit, self.disc)


# ---------------------------------------------------------------------------
# metrics


def _setup_seconds(workload, name: str, host: HostSpeed) -> float:
    """Median of fresh set-up processes, each scaled like an operation."""
    times = []
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only", name, *workload.setup_argv()]
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=60)
        seconds = time.perf_counter() - start
        times.append(seconds * REF_NOMINAL_S / host.scale())
    return statistics.median(times)


def _run_op(workload, op: Op, ops: list[Op], host: HostSpeed) -> None:
    ops.append(op)
    try:
        workload.run_op(op)
    except OpFailure as exc:
        op.error = str(exc)
    except Exception:  # a raising operation is a failed operation
        op.error = traceback.format_exc(limit=3)
    op.ref_s = host.scale()
    if op.error:
        print(f"op {op.index} failed: {op.error}", file=sys.stderr)


def measure(workload, name: str, seed: int, seconds: float, trace: bool, host: HostSpeed):
    """Closed loop for `seconds`; returns (ops, workers=1 op or None)."""
    ops: list[Op] = []
    single = None
    start = time.perf_counter()
    index = 0
    while True:
        _run_op(workload, Op(index, seed * SEED_STRIDE + index, trace and index % 2 == 1), ops, host)
        if trace and index == 0 and name in CLI_WORKLOADS:
            # byte-identity across worker counts: same seed with one worker
            single = Op(index, seed * SEED_STRIDE, False, workers=1)
            _run_op(workload, single, [], host)
            if single.ok and ops[0].ok and single.hashes != ops[0].hashes:
                single.error = "artifacts differ between --workers 1 and the default worker count"
                print(f"op {index} failed: {single.error}", file=sys.stderr)
        index += 1
        if time.perf_counter() - start >= seconds and (not trace or index >= 2):
            return ops, single


def end_to_end(ops: list[Op], setup_s: float, name: str) -> dict[str, float]:
    good = [op for op in ops if op.ok]
    if name == "noise_sweep":
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        # a mean: the pool's timing moves each child's peak by a few MB
        rss = statistics.mean([op.rss_mb for op in good]) if good else math.nan
    return {
        "op_s": _median([op.scaled_s for op in good]),
        "setup_s": setup_s,
        "peak_rss_mb": rss,
        # a mean: per-seed scores are bimodal (side lobes enter the top 1% on
        # some noise seeds), which makes a median of a few seeds jump
        "top1_dist": statistics.mean([op.top1 for op in good]) if good else math.nan,
    }


def per_layer(ops, single, spans, counts, scopes, workers: int) -> dict[str, float]:
    from tracer import COUNTS, KEYED, SPAN_NAMES, self_times

    good = [op for op in ops if op.ok]
    traced = {op.index for op in good if op.traced}
    spans = [s for s in spans if s[5] in traced]
    n_ops = max(len(traced), 1)
    own = self_times(spans)
    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        mine = [s for s in spans if s[1] == name]
        out[f"{name}.calls"] = len(mine) / n_ops
        out[f"{name}.self_s"] = sum(own[s[0]] for s in mine) / n_ops
    for metric in COUNTS:
        out[metric] = counts.get(metric, 0.0) / n_ops
    for name in KEYED:
        distinct = sum(d for n, d, _ in scopes if n == name)
        calls = sum(c for n, _, c in scopes if n == name)
        out[f"{name}.distinct_frac"] = distinct / calls if calls else 0.0
    # busy time of the per-frequency maps over the time the pool could give
    effs = []
    for index in sorted(traced):
        mine = [s for s in spans if s[5] == index and s[1] == "imaging.etd_single"]
        if mine:
            wall = max(s[3] for s in mine) - min(s[2] for s in mine)
            effs.append(sum(s[3] - s[2] for s in mine) / (wall * workers))
    out["imaging.etd_single.pool_eff"] = _median(effs) if effs else 0.0
    base = [op for op in good if op.index == 0 and not op.traced]
    if single is None:
        out["cli.workers_speedup"] = 1.0  # no thread pool on this workload
    elif single.ok and base:
        out["cli.workers_speedup"] = single.scaled_s / base[0].scaled_s
    else:
        out["cli.workers_speedup"] = math.nan
    # bimodal across noise seeds (the fit lands on the curve or on a side
    # lobe), so it is reported here, without a bound, not end to end
    out["postprocess.fit_rms"] = _median([op.fit_rms for op in good])
    out["trace.overhead_s"] = _median([op.scaled_s for op in good if op.traced]) - _median(
        [op.scaled_s for op in good if not op.traced]
    )
    out["host.op_wall_s"] = _median([op.seconds for op in good if not op.traced])
    out["host.ref_s"] = _median([op.ref_s for op in ops])
    return out


# ---------------------------------------------------------------------------
# environment and reporting


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src = hashlib.sha256()
    for path in sorted((SRC / "thinimage").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "git_commit": _git_commit(),
        "src_sha256": src.hexdigest(),
        "workload_seed": seed,
    }


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = _spec()
    run_dir = WORK / "runs" / f"{name}-s{seed}-t{int(trace)}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    tracer = None
    if name in CLI_WORKLOADS:
        workload = CliWorkload(name, run_dir)
    else:
        if trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        workload = NoiseSweep(tracer)
    host = HostSpeed()  # set-up and operations are each bracketed by its runs
    setup_s = _setup_seconds(workload, name, host)
    ops, single = measure(workload, name, seed, seconds, trace, host)

    attempted = len(ops) + (single is not None)
    failed = sum(not op.ok for op in ops) + (single is not None and not single.ok)
    if trace:
        if tracer is not None:
            spans = [list(s) for s in tracer.spans]
            counts = tracer.counts
            scopes = [(n, len(k), sum(1 for s in spans if s[1] == n)) for n, k in tracer.keys.items()]
            workers = 1
        else:
            spans, counts, scopes = workload.spans, workload.counts, workload.scopes
            workers = os.cpu_count() or 1
        values = per_layer(ops, single, spans, counts, scopes, workers)
        wanted = spec["per_layer"]
        traces = WORK / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        (traces / f"{name}-s{seed}.json").write_text(
            json.dumps(
                {
                    "columns": ["id", "name", "start", "end", "parent", "op", "thread"],
                    "spans": spans,
                }
            )
        )
    else:
        values = end_to_end(ops, setup_s, name)
        wanted = spec["end_to_end"]
    if set(values) != {m["name"] for m in wanted}:
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    env = environment(seed)
    why = next(w["why"] for w in spec["workloads"] if w["name"] == name)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}-s{seed}-t{int(trace)}.json").write_text(
        json.dumps(
            {
                "workload": name,
                "why": why,
                "seconds": seconds,
                "trace": trace,
                "env": env,
                "result": result,
                "ops": [op.record() for op in ops + ([single] if single else [])],
            },
            indent=1,
        )
    )
    if failed == 0:
        shutil.rmtree(run_dir)
    print(f"env: {json.dumps(env, sort_keys=True)}")
    return result


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Run every workload in its own process and print its metrics."""
    all_ok = True
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, timeout=600,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit status {proc.returncode}")
            all_ok = False
            continue
        result = json.loads(lines[-1])
        ok = result["correct"] and result["failed"] == 0
        all_ok &= ok
        print(
            f"{name}: correct={result['correct']} attempted={result['attempted']} "
            f"failed={result['failed']} error_rate={result['failed'] / result['attempted']:.3g}"
        )
        for metric, entry in result["metrics"].items():
            print(f"  {name:12s} {metric:48s} {entry['value']:14.6g} {entry['unit']}")
    return 0 if all_ok else 1


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    # unwind on SIGTERM so that running children are killed and reaped
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", choices=WORKLOAD_NAMES, help=argparse.SUPPRESS)
    parser.add_argument("--preset-ini", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "thinimage" / "__init__.py").is_file():
        print(f"error: no thinimage sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import thinimage

    if Path(thinimage.__file__).resolve().parent != SRC / "thinimage":
        print(f"error: imported thinimage from {thinimage.__file__}", file=sys.stderr)
        return 2

    if args.setup_only:
        if args.setup_only in CLI_WORKLOADS:
            from thinimage.cli import parse_config

            parse_config(args.preset_ini)
        else:
            sweep_scene()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
