"""Experiment driver: parse a config, run the pipeline, export artifacts.

A run executes synthesize -> corrupt -> image -> postprocess and writes every
artifact into one output directory: the measured dataset, one CSV and one PGM
per requested map, a fit report for the topological-derivative functionals,
and a manifest with the echoed configuration and SHA-256 content hashes.
Identical configuration and seed give byte-identical artifacts.

Configs are INI files with the sections

    [inclusion]   curve (sigma1|sigma2|sigma3|custom), h, eps, mu, eps0, mu0;
                  custom curves add s_min, s_max, x_shift, y_poly (comma
                  separated), y_sin_amp, y_sin_freq, y_sin_phase. Additional
                  inclusions live in [inclusion.2], [inclusion.3], ...
    [incident]    directions, frequencies, lambda_min, lambda_max
    [grid]        lattice, boundary
    [noise]       clean (true/false) or snr_db; seed
    [imaging]     functional (etd_multi|etd_single|music|kirchhoff|mkm|
                  oracles), k_values (comma separated), fit_degree
    [output]      directory

Every stage derives its random seed from the master seed through a stated
hash chain (SHA-256 of "seed:stage", first 8 bytes big endian), so stages
can be re-run independently without replaying the whole chain.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .baselines import kirchhoff_map, multi_kirchhoff_map, music_map, signal_space_dim
from .errors import ConfigError, ThinImageError
from .forward import (
    BoundaryDataset,
    IncidentSet,
    add_awgn,
    assemble_multistatic,
    frequency_band,
    resonance_orders,
    save_dataset,
    standard_directions,
    synthesize,
)
from .geometry import (
    ThinInclusion,
    boundary_grid,
    builtin_curve,
    discretize,
    poly_sin_curve,
)
from .imaging import band_kernel_maps, etd_multi, etd_single, normalized_combination
from .maps import ImageMap, make_lattice, save_map_csv, save_map_pgm
from .postprocess import (
    chebyshev_fit,
    clustered_ridges,
    discrete_norms,
    extract_ridge,
    format_fit_report,
)

_BUILTIN_CURVES = ("sigma1", "sigma2", "sigma3")
_FUNCTIONALS = ("etd_multi", "etd_single", "music", "kirchhoff", "mkm", "oracles")
_SYNTH_NODES = 400
# inversion-side quadrature is kept at half the synthesis density so model
# maps never ride the synthesis discretization
_MODEL_NODES = 200
_RIDGE_QUANTILE = 0.01
# ridge points further out than this radius are sidelobe pickups: supporting
# curves must keep a clearance inside the unit disk, so the fit ignores them
_RIDGE_RADIUS = 0.85
_SCAN_RESONANCE_TOL = 1e-4
_THICKNESS_FRACTION = 0.1


@dataclass(frozen=True)
class InclusionSpec:
    """Declarative description of one thin inclusion."""

    curve: str = "sigma1"
    h: float = 0.02
    eps: float = 5.0
    mu: float = 5.0
    eps0: float = 1.0
    mu0: float = 1.0
    s_min: float = -0.5
    s_max: float = 0.5
    x_shift: float = 0.0
    y_poly: tuple[float, ...] = (0.0,)
    y_sin_amp: float = 0.0
    y_sin_freq: float = 0.0
    y_sin_phase: float = 0.0

    def build(self) -> ThinInclusion:
        if self.curve in _BUILTIN_CURVES:
            curve = builtin_curve(self.curve)
        elif self.curve == "custom":
            curve = poly_sin_curve(
                "custom",
                self.s_min,
                self.s_max,
                x_shift=self.x_shift,
                y_poly=self.y_poly,
                y_sin_amp=self.y_sin_amp,
                y_sin_freq=self.y_sin_freq,
                y_sin_phase=self.y_sin_phase,
            )
        else:
            raise ConfigError(
                f"unknown curve {self.curve!r}; pick one of {_BUILTIN_CURVES} or 'custom'"
            )
        return ThinInclusion(
            curve, h=self.h, eps=self.eps, mu=self.mu, eps0=self.eps0, mu0=self.mu0
        )


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete description of one experiment."""

    inclusions: tuple[InclusionSpec, ...] = (InclusionSpec(),)
    n_directions: int = 4
    n_frequencies: int = 16
    lambda_min: float = 0.2
    lambda_max: float = 0.5
    lattice_size: int = 128
    boundary_points: int = 128
    snr_db: float = 15.0
    seed: int = 1
    functional: str = "etd_multi"
    k_values: tuple[int, ...] = (0,)
    fit_degree: int = 5
    out_dir: str = "out"

    @property
    def clean(self) -> bool:
        return math.isinf(self.snr_db)

    def flat_items(self) -> dict:
        """Config echo as a flat JSON-ready mapping."""
        out = {}
        for i, inc in enumerate(self.inclusions, start=1):
            prefix = f"inclusion.{i}"
            out[f"{prefix}.curve"] = inc.curve
            out[f"{prefix}.h"] = inc.h
            out[f"{prefix}.eps"] = inc.eps
            out[f"{prefix}.mu"] = inc.mu
            out[f"{prefix}.eps0"] = inc.eps0
            out[f"{prefix}.mu0"] = inc.mu0
            if inc.curve == "custom":
                out[f"{prefix}.s_min"] = inc.s_min
                out[f"{prefix}.s_max"] = inc.s_max
                out[f"{prefix}.x_shift"] = inc.x_shift
                out[f"{prefix}.y_poly"] = list(inc.y_poly)
                out[f"{prefix}.y_sin_amp"] = inc.y_sin_amp
                out[f"{prefix}.y_sin_freq"] = inc.y_sin_freq
                out[f"{prefix}.y_sin_phase"] = inc.y_sin_phase
        out["incident.directions"] = self.n_directions
        out["incident.frequencies"] = self.n_frequencies
        out["incident.lambda_min"] = self.lambda_min
        out["incident.lambda_max"] = self.lambda_max
        out["grid.lattice"] = self.lattice_size
        out["grid.boundary"] = self.boundary_points
        out["noise.clean"] = self.clean
        if not self.clean:
            out["noise.snr_db"] = self.snr_db
        out["noise.seed"] = self.seed
        out["imaging.functional"] = self.functional
        out["imaging.k_values"] = list(self.k_values)
        out["imaging.fit_degree"] = self.fit_degree
        out["output.directory"] = self.out_dir
        return out


def derive_seed(master: int, stage: str) -> int:
    """Stage seed from the master seed: SHA-256 of 'master:stage', 8 bytes."""
    digest = hashlib.sha256(f"{master}:{stage}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big")


# ---------------------------------------------------------------------------
# config file handling

_INCLUSION_KEYS = {
    "curve", "h", "eps", "mu", "eps0", "mu0",
    "s_min", "s_max", "x_shift", "y_poly", "y_sin_amp", "y_sin_freq", "y_sin_phase",
}
_SECTION_KEYS = {
    "incident": {"directions", "frequencies", "lambda_min", "lambda_max"},
    "grid": {"lattice", "boundary"},
    "noise": {"clean", "snr_db", "seed"},
    "imaging": {"functional", "k_values", "fit_degree"},
    "output": {"directory"},
}


def _check_keys(section: str, present, allowed) -> None:
    unknown = set(present) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in [{section}]: {sorted(unknown)}")


def _parse_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated numbers, got {text!r}") from exc


def parse_config(path) -> ExperimentConfig:
    """Read an experiment config from an INI file."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc

    base = ExperimentConfig()
    try:
        inclusions = []
        inclusion_sections = [
            s for s in parser.sections() if s == "inclusion" or s.startswith("inclusion.")
        ]
        known = {"inclusion", "incident", "grid", "noise", "imaging", "output"}
        for s in parser.sections():
            if s not in known and not s.startswith("inclusion."):
                raise ConfigError(f"unknown section [{s}]")
        for s in sorted(inclusion_sections):
            sec = parser[s]
            _check_keys(s, sec.keys(), _INCLUSION_KEYS)
            spec = InclusionSpec(
                curve=sec.get("curve", "sigma1"),
                h=sec.getfloat("h", 0.02),
                eps=sec.getfloat("eps", 5.0),
                mu=sec.getfloat("mu", 5.0),
                eps0=sec.getfloat("eps0", 1.0),
                mu0=sec.getfloat("mu0", 1.0),
                s_min=sec.getfloat("s_min", -0.5),
                s_max=sec.getfloat("s_max", 0.5),
                x_shift=sec.getfloat("x_shift", 0.0),
                y_poly=_parse_floats(sec.get("y_poly", "0.0")),
                y_sin_amp=sec.getfloat("y_sin_amp", 0.0),
                y_sin_freq=sec.getfloat("y_sin_freq", 0.0),
                y_sin_phase=sec.getfloat("y_sin_phase", 0.0),
            )
            inclusions.append(spec)
        if not inclusions:
            inclusions = list(base.inclusions)

        for name, allowed in _SECTION_KEYS.items():
            if parser.has_section(name):
                _check_keys(name, parser[name].keys(), allowed)

        inc = parser["incident"] if parser.has_section("incident") else {}
        grid = parser["grid"] if parser.has_section("grid") else {}
        noise = parser["noise"] if parser.has_section("noise") else {}
        imaging = parser["imaging"] if parser.has_section("imaging") else {}
        output = parser["output"] if parser.has_section("output") else {}

        def geti(sec, key, default):
            raw = sec.get(key) if hasattr(sec, "get") else None
            if raw is None:
                return default
            try:
                return int(raw)
            except ValueError as exc:
                raise ConfigError(f"{key} must be an integer, got {raw!r}") from exc

        def getf(sec, key, default):
            raw = sec.get(key) if hasattr(sec, "get") else None
            if raw is None:
                return default
            try:
                return float(raw)
            except ValueError as exc:
                raise ConfigError(f"{key} must be a number, got {raw!r}") from exc

        clean = False
        if hasattr(noise, "getboolean"):
            try:
                clean = noise.getboolean("clean", False)
            except ValueError as exc:
                raise ConfigError(f"clean must be a boolean: {exc}") from exc
        snr_db = math.inf if clean else getf(noise, "snr_db", base.snr_db)

        functional = imaging.get("functional", base.functional) if imaging else base.functional
        if functional not in _FUNCTIONALS:
            raise ConfigError(
                f"unknown functional {functional!r}; pick one of {_FUNCTIONALS}"
            )
        k_raw = imaging.get("k_values", None) if imaging else None
        if k_raw is None:
            k_values = base.k_values
        else:
            try:
                k_values = tuple(int(tok) for tok in k_raw.split(","))
            except ValueError as exc:
                raise ConfigError(f"k_values must be comma-separated integers, got {k_raw!r}") from exc

        return ExperimentConfig(
            inclusions=tuple(inclusions),
            n_directions=geti(inc, "directions", base.n_directions),
            n_frequencies=geti(inc, "frequencies", base.n_frequencies),
            lambda_min=getf(inc, "lambda_min", base.lambda_min),
            lambda_max=getf(inc, "lambda_max", base.lambda_max),
            lattice_size=geti(grid, "lattice", base.lattice_size),
            boundary_points=geti(grid, "boundary", base.boundary_points),
            snr_db=snr_db,
            seed=geti(noise, "seed", base.seed),
            functional=functional,
            k_values=k_values,
            fit_degree=geti(imaging, "fit_degree", base.fit_degree),
            out_dir=output.get("directory", base.out_dir) if output else base.out_dir,
        )
    except ConfigError:
        raise
    except ThinImageError as exc:
        raise ConfigError(f"invalid config {path}: {exc}") from exc


def write_config(config: ExperimentConfig, path) -> None:
    """Serialize a config to the INI format parse_config reads."""
    parser = configparser.ConfigParser(interpolation=None)
    for i, inc in enumerate(config.inclusions, start=1):
        name = "inclusion" if i == 1 else f"inclusion.{i}"
        sec = {
            "curve": inc.curve,
            "h": repr(inc.h),
            "eps": repr(inc.eps),
            "mu": repr(inc.mu),
            "eps0": repr(inc.eps0),
            "mu0": repr(inc.mu0),
        }
        if inc.curve == "custom":
            sec.update(
                s_min=repr(inc.s_min),
                s_max=repr(inc.s_max),
                x_shift=repr(inc.x_shift),
                y_poly=",".join(repr(c) for c in inc.y_poly),
                y_sin_amp=repr(inc.y_sin_amp),
                y_sin_freq=repr(inc.y_sin_freq),
                y_sin_phase=repr(inc.y_sin_phase),
            )
        parser[name] = sec
    parser["incident"] = {
        "directions": str(config.n_directions),
        "frequencies": str(config.n_frequencies),
        "lambda_min": repr(config.lambda_min),
        "lambda_max": repr(config.lambda_max),
    }
    parser["grid"] = {
        "lattice": str(config.lattice_size),
        "boundary": str(config.boundary_points),
    }
    noise = {"seed": str(config.seed)}
    if config.clean:
        noise["clean"] = "true"
    else:
        noise["snr_db"] = repr(config.snr_db)
    parser["noise"] = noise
    parser["imaging"] = {
        "functional": config.functional,
        "k_values": ",".join(str(k) for k in config.k_values),
        "fit_degree": str(config.fit_degree),
    }
    parser["output"] = {"directory": config.out_dir}
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)


# ---------------------------------------------------------------------------
# validation

def validate(config: ExperimentConfig) -> list[str]:
    """Dry-run diagnostics; returns ["ok"] when nothing is flagged."""
    issues: list[str] = []

    for i, spec in enumerate(config.inclusions, start=1):
        try:
            incl = spec.build()
        except ThinImageError as exc:
            issues.append(f"inclusion {i}: {exc}")
            continue
        if incl.eps == incl.eps0 and incl.mu == incl.mu0:
            issues.append(
                f"inclusion {i}: zero contrast against the background yields a flat map"
            )
        if incl.h > _THICKNESS_FRACTION * config.lambda_min:
            issues.append(
                f"inclusion {i}: half-thickness h={incl.h:g} exceeds "
                f"{_THICKNESS_FRACTION:g} of the shortest wavelength "
                f"lambda_min={config.lambda_min:g}; the thin-inclusion data "
                f"model degrades"
            )

    try:
        omegas = frequency_band(config.n_frequencies, config.lambda_min, config.lambda_max)
    except ThinImageError as exc:
        issues.append(f"incident: {exc}")
        omegas = np.empty(0)
    for omega in omegas:
        for n, v in resonance_orders(float(omega), _SCAN_RESONANCE_TOL):
            issues.append(
                f"resonance warning: omega={float(omega):.6f} lies near an "
                f"interior eigenvalue of order n={n} (|J_n'(omega)|={v:.2e}); "
                f"the measurement operator is nearly singular there"
            )

    try:
        boundary_grid(config.boundary_points)
    except ThinImageError as exc:
        issues.append(f"grid: {exc}")
    else:
        if omegas.size and config.boundary_points < 2.0 * float(omegas[-1]):
            issues.append(
                f"grid: {config.boundary_points} boundary points give fewer than two per "
                f"wavelength at omega_max={float(omegas[-1]):.6f}; need at least "
                f"2*omega_max={2.0 * float(omegas[-1]):.2f}"
            )
    if config.lattice_size < 8:
        issues.append(f"grid: lattice needs at least 8 nodes per side, got {config.lattice_size}")

    bad_k = [k for k in config.k_values if not 0 <= k < config.n_frequencies]
    if bad_k:
        issues.append(
            f"imaging: k_values {bad_k} outside the frequency range 0..{config.n_frequencies - 1}"
        )
    if config.fit_degree < 1:
        issues.append(f"imaging: fit_degree must be at least 1, got {config.fit_degree}")
    if not config.clean and config.snr_db <= 0.0:
        issues.append(f"noise: snr_db should be positive, got {config.snr_db:g}")

    return issues or ["ok"]


# ---------------------------------------------------------------------------
# pipeline

@contextmanager
def _stage(name: str):
    try:
        yield
    except ThinImageError as exc:
        raise type(exc)(f"stage {name}: {exc}") from exc


def _check_k_values(config: ExperimentConfig) -> None:
    bad = [k for k in config.k_values if not 0 <= k < config.n_frequencies]
    if bad:
        raise ConfigError(
            f"k_values {bad} outside the frequency range 0..{config.n_frequencies - 1}"
        )


def _compute_maps(
    config: ExperimentConfig,
    data: BoundaryDataset,
    lattice,
    inclusions: list[ThinInclusion],
    workers: int,
    notes: dict,
) -> dict[str, ImageMap]:
    maps: dict[str, ImageMap] = {}
    if config.functional == "etd_multi":
        maps["map_etd_multi"] = etd_multi(data, lattice, workers=workers)
    elif config.functional == "etd_single":
        for k in config.k_values:
            maps[f"map_etd_single_k{k:02d}"] = etd_single(data, lattice, k)
    elif config.functional == "music":
        saturation = {}
        for k in config.k_values:
            msr = assemble_multistatic(data, k)
            dim = signal_space_dim(msr, clean=data.is_clean)
            imap, saturated = music_map(lattice, msr, signal_dim=dim)
            maps[f"map_music_k{k:02d}"] = imap
            saturation[f"k{k:02d}"] = saturated
            notes.setdefault("music_signal_dim", {})[f"k{k:02d}"] = dim
        notes["music_saturated"] = saturation
    elif config.functional == "kirchhoff":
        for k in config.k_values:
            maps[f"map_kirchhoff_k{k:02d}"] = kirchhoff_map(lattice, assemble_multistatic(data, k))
    elif config.functional == "mkm":
        msrs = [assemble_multistatic(data, k) for k in range(data.incident.n_frequencies)]
        maps["map_kirchhoff_multi"] = multi_kirchhoff_map(lattice, msrs)
    elif config.functional == "oracles":
        omega_lo = float(data.incident.omegas[0])
        omega_hi = float(data.incident.omegas[-1])
        if omega_hi <= omega_lo:
            omega_hi = omega_lo * (1.0 + 1e-6)
        dirs = data.incident.directions
        eps_acc = np.zeros(lattice.shape)
        mu_acc = np.zeros(lattice.shape)
        for incl in inclusions:
            disc = discretize(incl.curve, _MODEL_NODES)
            eps_map, mu_map = band_kernel_maps(lattice, disc, incl, dirs, omega_lo, omega_hi)
            eps_acc += eps_map.values
            mu_acc += mu_map.values
        eps_total = ImageMap(lattice, eps_acc)
        mu_total = ImageMap(lattice, mu_acc)
        maps["map_model_eps"] = eps_total
        maps["map_model_mu"] = mu_total
        maps["map_model_combined"] = normalized_combination(eps_total, mu_total)
    else:
        raise ConfigError(f"unknown functional {config.functional!r}")
    return maps


def run(config: ExperimentConfig, workers: int | None = None):
    """Execute an experiment; returns (output path, manifest dict)."""
    if workers is None:
        workers = os.cpu_count() or 1
    notes: dict = {"functional": config.functional}

    with _stage("config"):
        _check_k_values(config)
        inclusions = [spec.build() for spec in config.inclusions]
        incident = IncidentSet(
            standard_directions(config.n_directions),
            frequency_band(config.n_frequencies, config.lambda_min, config.lambda_max),
        )
        grid = boundary_grid(config.boundary_points)
        lattice = make_lattice(config.lattice_size)

    with _stage("synthesize"):
        data = synthesize(inclusions, incident, grid, m_nodes=_SYNTH_NODES)

    noise_seed = derive_seed(config.seed, "noise")
    with _stage("noise"):
        if not config.clean:
            data = add_awgn(data, config.snr_db, noise_seed)

    with _stage("imaging"):
        maps = _compute_maps(config, data, lattice, inclusions, workers, notes)

    fit_rows = []
    with _stage("postprocess"):
        if config.functional in ("etd_multi", "etd_single"):
            target = next(iter(maps.values()))
            if len(inclusions) > 1:
                point_sets = clustered_ridges(
                    target, _RIDGE_QUANTILE, min_points=config.fit_degree + 3
                )[: len(inclusions)]
            else:
                point_sets = [extract_ridge(target, _RIDGE_QUANTILE)]
            point_sets = [
                pts[np.hypot(pts[:, 0], pts[:, 1]) <= _RIDGE_RADIUS]
                for pts in point_sets
            ]
            fits = [chebyshev_fit(pts, config.fit_degree) for pts in point_sets]
            # recompute boundary data from the fitted curves; material
            # parameters are taken from the first configured inclusion
            ref = config.inclusions[0]
            fitted_inclusions = [
                ThinInclusion(
                    fit.as_parametric(f"guess{i + 1}"),
                    h=ref.h, eps=ref.eps, mu=ref.mu, eps0=ref.eps0, mu0=ref.mu0,
                )
                for i, fit in enumerate(fits)
            ]
            comp = synthesize(fitted_inclusions, incident, grid, m_nodes=_SYNTH_NODES)
            report = discrete_norms(data, comp, k_index=0)
            for i, fit in enumerate(fits):
                fit_rows.append((f"guess{i + 1}", fit, report if i == 0 else None))
            notes["fit"] = {
                f"guess{i + 1}": {
                    "interval": [fit.a, fit.b],
                    "coeffs": [float(c) for c in fit.coeffs],
                }
                for i, fit in enumerate(fits)
            }
            notes["norms"] = {
                "n1": report.n1, "n2": report.n2, "n_inf": report.n_inf,
                "omega": report.omega,
            }

    out_dir = Path(config.out_dir)
    with _stage("export"):
        out_dir.mkdir(parents=True, exist_ok=True)
        artifacts: dict[str, str] = {}

        def record(name: str) -> None:
            artifacts[name] = hashlib.sha256((out_dir / name).read_bytes()).hexdigest()

        save_dataset(data, out_dir / "dataset.txt")
        record("dataset.txt")
        for name, imap in maps.items():
            save_map_csv(imap, out_dir / f"{name}.csv")
            record(f"{name}.csv")
            save_map_pgm(imap, out_dir / f"{name}.pgm")
            record(f"{name}.pgm")
        if fit_rows:
            (out_dir / "fit_report.txt").write_text(
                format_fit_report(fit_rows), encoding="ascii"
            )
            record("fit_report.txt")

        manifest = {
            "config": config.flat_items(),
            "seed": config.seed,
            "stage_seeds": {"noise": noise_seed},
            "artifacts": artifacts,
            "notes": notes,
        }
        (out_dir / "manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="ascii"
        )
    return out_dir, manifest


# ---------------------------------------------------------------------------
# shipped presets

def preset_configs() -> dict[str, ExperimentConfig]:
    """Named experiment presets covering the standard comparison scenes."""
    sigma = {label: (InclusionSpec(curve=label),) for label in _BUILTIN_CURVES}
    multi_same = (InclusionSpec(curve="sigma1"), InclusionSpec(curve="sigma2"))
    multi_diff = (
        InclusionSpec(curve="sigma1"),
        InclusionSpec(curve="sigma2", eps=10.0, mu=10.0),
    )
    presets: dict[str, ExperimentConfig] = {}

    def add(name: str, **kwargs) -> None:
        presets[name] = replace(ExperimentConfig(), out_dir=name, **kwargs)

    for k in (1, 5, 10, 16):
        add(f"sigma1_L4_K{k:02d}", inclusions=sigma["sigma1"], n_directions=4, n_frequencies=k)
    for label in ("sigma2", "sigma3"):
        for k in (4, 16):
            add(f"{label}_L4_K{k:02d}", inclusions=sigma[label], n_directions=4, n_frequencies=k)
    for k in (4, 16):
        add(f"multi_same_L4_K{k:02d}", inclusions=multi_same, n_directions=4, n_frequencies=k)
        add(f"multi_diff_L4_K{k:02d}", inclusions=multi_diff, n_directions=4, n_frequencies=k)
    for label in _BUILTIN_CURVES:
        add(f"{label}_L16_K16", inclusions=sigma[label], n_directions=16, n_frequencies=16)
    add("sigma3_L16_K04", inclusions=sigma["sigma3"], n_directions=16, n_frequencies=4)
    add("multi_same_L16_K16", inclusions=multi_same, n_directions=16, n_frequencies=16)
    add("multi_diff_L16_K16", inclusions=multi_diff, n_directions=16, n_frequencies=16)
    add(
        "sigma3_music_single",
        inclusions=sigma["sigma3"], n_directions=16, n_frequencies=1,
        functional="music", k_values=(0,),
    )
    add(
        "sigma3_kirchhoff_multi",
        inclusions=sigma["sigma3"], n_directions=16, n_frequencies=16,
        functional="mkm",
    )
    for label in _BUILTIN_CURVES:
        add(f"initial_guess_{label}", inclusions=sigma[label], n_directions=16, n_frequencies=16)
    add("initial_guess_multi", inclusions=multi_same, n_directions=16, n_frequencies=16)
    return presets


def export_presets(directory) -> list[Path]:
    """Write every preset as an INI file; returns the written paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for name, config in sorted(preset_configs().items()):
        path = directory / f"{name}.ini"
        write_config(config, path)
        written.append(path)
    return written


# ---------------------------------------------------------------------------
# entry point

def _load_config(args) -> ExperimentConfig:
    config = parse_config(args.config) if args.config else ExperimentConfig()
    if getattr(args, "seed", None) is not None:
        config = replace(config, seed=args.seed)
    if getattr(args, "out", None) is not None:
        config = replace(config, out_dir=str(args.out))
    return config


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="thinimage",
        description="Imaging experiments for thin penetrable inclusions in the unit disk.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute an experiment and export artifacts")
    run_p.add_argument("--config", type=Path, default=None, help="INI config path")
    run_p.add_argument("--seed", type=int, default=None, help="override the master seed")
    run_p.add_argument("--out", type=Path, default=None, help="override the output directory")
    run_p.add_argument("--workers", type=int, default=None, help="parallel worker cap")

    val_p = sub.add_parser("validate", help="check a config without running it")
    val_p.add_argument("--config", type=Path, default=None, help="INI config path")
    val_p.add_argument("--seed", type=int, default=None, help="override the master seed")

    exp_p = sub.add_parser("export-presets", help="write the shipped preset configs")
    exp_p.add_argument("--out", type=Path, default=Path("presets"), help="target directory")

    args = parser.parse_args(argv)

    try:
        if args.command == "run":
            config = _load_config(args)
            out_dir, manifest = run(config, workers=args.workers)
            print(f"wrote {len(manifest['artifacts']) + 1} artifacts to {out_dir}")
            return 0
        if args.command == "validate":
            for line in validate(_load_config(args)):
                print(line)
            return 0
        if args.command == "export-presets":
            written = export_presets(args.out)
            print(f"wrote {len(written)} presets to {args.out}")
            return 0
    except ThinImageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
