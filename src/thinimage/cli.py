"""Experiment driver: parse a config, run the pipeline, export artifacts.

A run executes synthesize -> corrupt -> image -> postprocess and writes every
artifact into one output directory: the measured dataset, one CSV and one PGM
per requested map, a fit report for the topological-derivative functionals,
and a manifest with the echoed configuration and SHA-256 content hashes.
Identical configuration and seed give byte-identical artifacts.

Configs are INI files whose schema is the fields of `InclusionSpec` (one
section per inclusion: [inclusion], [inclusion.2], ...) and of
`ExperimentConfig` (placed in sections by `_LAYOUT`): each key takes its
field's name, type and default. `ExperimentConfig.items` walks the keys in
file order for `write_config` and for the manifest's config echo.

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
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

from .baselines import kirchhoff_map, multi_kirchhoff_map, music_map, signal_space_dim
from .errors import ConfigError, FitError, GeometryError, RidgeError, ThinImageError
from .forward import (
    RESONANCE_TOL,
    SYNTHESIS_NODES,
    BoundaryDataset,
    IncidentSet,
    add_awgn,
    assemble_multistatic,
    band_resonance_orders,
    ensure_thin,
    frequency_band,
    resonance_error,
    save_dataset,
    standard_directions,
    synthesize,
)
from .geometry import (
    BUILTIN_CURVES,
    ThinInclusion,
    boundary_grid,
    builtin_curve,
    discretize,
    poly_sin_curve,
)
from .imaging import etd_multi, etd_single, model_maps, normalized_combination
from .maps import ImageMap, make_lattice, save_map_csv, save_map_pgm
from .postprocess import discrete_norms, format_fit_report, initial_guesses

_FUNCTIONALS = ("etd_multi", "etd_single", "music", "kirchhoff", "mkm", "oracles")
_SCAN_RESONANCE_TOL = 1e-4


# marks the InclusionSpec fields that only a custom curve reads and carries
_CUSTOM = {"custom": True}


@dataclass(frozen=True)
class InclusionSpec:
    """Declarative description of one thin inclusion in the unit background (eps = mu = 1)."""

    curve: str = "sigma1"
    h: float = 0.02
    eps: float = 5.0
    mu: float = 5.0
    s_min: float = field(default=-0.5, metadata=_CUSTOM)
    s_max: float = field(default=0.5, metadata=_CUSTOM)
    x_shift: float = field(default=0.0, metadata=_CUSTOM)
    y_poly: tuple[float, ...] = field(default=(0.0,), metadata=_CUSTOM)
    y_sin_amp: float = field(default=0.0, metadata=_CUSTOM)
    y_sin_freq: float = field(default=0.0, metadata=_CUSTOM)
    y_sin_phase: float = field(default=0.0, metadata=_CUSTOM)

    def __post_init__(self) -> None:
        # build ignores and write_config drops a custom-curve key on any other
        # curve, so such a spec would not survive the round trip
        keys = [f.name for f in fields(self) if f.metadata and getattr(self, f.name) != f.default]
        if keys and self.curve != "custom":
            raise ConfigError(f"custom-curve keys {keys} need curve = custom, not {self.curve!r}")

    def build(self) -> ThinInclusion:
        if self.curve in BUILTIN_CURVES:
            curve = builtin_curve(self.curve)
        elif self.curve == "custom":
            custom = {f.name: getattr(self, f.name) for f in fields(self) if f.metadata}
            curve = poly_sin_curve("custom", **custom)
        else:
            raise ConfigError(
                f"unknown curve {self.curve!r}; pick one of {tuple(BUILTIN_CURVES)} or 'custom'"
            )
        return ThinInclusion(curve, h=self.h, eps=self.eps, mu=self.mu)


# [noise] clean = true stands for snr_db = +inf: the file carries clean = true
# or snr_db, the config echo carries clean and, for noisy data, snr_db
_CLEAN = ("noise", "clean", "snr_db")
# INI section and key of every ExperimentConfig field in file order; a row
# names its field last, so a two-entry row's key is its field's name
_LAYOUT = (
    ("incident", "directions", "n_directions"),
    ("incident", "frequencies", "n_frequencies"),
    ("incident", "lambda_min"),
    ("incident", "lambda_max"),
    ("grid", "lattice", "lattice_size"),
    ("grid", "boundary", "boundary_points"),
    ("noise", "seed"),
    _CLEAN,
    ("imaging", "functional"),
    ("imaging", "k_values"),
    ("imaging", "fit_degree"),
    ("output", "directory", "out_dir"),
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

    def __post_init__(self) -> None:
        if self.functional not in _FUNCTIONALS:
            raise ConfigError(f"unknown functional {self.functional!r}; pick one of {_FUNCTIONALS}")

    @property
    def clean(self) -> bool:
        return self.snr_db == math.inf

    def items(self):
        """(section, key, value) of every INI key in file order; [inclusion] is inclusion.1."""
        for i, inc in enumerate(self.inclusions, start=1):
            for f in fields(inc):
                if inc.curve == "custom" or not f.metadata:
                    yield f"inclusion.{i}", f.name, getattr(inc, f.name)
        for row in _LAYOUT:
            section, key, name = row[0], row[1], row[-1]
            if row is _CLEAN:
                yield section, key, self.clean
                if self.clean:
                    continue
                key = name
            yield section, key, getattr(self, name)

    def flat_items(self) -> dict:
        """Config echo as a flat JSON-ready mapping."""
        return {
            f"{section}.{key}": list(value) if isinstance(value, tuple) else value
            for section, key, value in self.items()
        }


def derive_seed(master: int, stage: str) -> int:
    """Stage seed from the master seed: SHA-256 of 'master:stage', 8 bytes."""
    digest = hashlib.sha256(f"{master}:{stage}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big")


# ---------------------------------------------------------------------------
# config file handling

# what a raw value must spell, by its field's type: one value, several
_EXPECTED = {bool: ("a boolean",), int: ("an integer", "integers"), float: ("a number", "numbers")}


def _take(section: dict, key: str, default):
    """Remove key from a section's raw strings; convert it like its default."""
    raw = section.pop(key, None)
    if raw is None:
        return default
    kind = type(default)
    item = type(default[0]) if kind is tuple else kind
    try:
        if kind is bool:
            return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
        if kind is tuple:
            return tuple(item(tok) for tok in raw.split(",")) if raw else ()
        return kind(raw)
    except (KeyError, ValueError):
        expected = f"comma-separated {_EXPECTED[item][1]}" if kind is tuple else _EXPECTED[item][0]
        raise ConfigError(f"{key} must be {expected}, got {raw!r}") from None


def parse_config(path) -> ExperimentConfig:
    """Read an experiment config from an INI file."""
    # no default section: a [DEFAULT] header is refused as an unknown section
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc

    raw = {name: dict(parser[name]) for name in parser.sections()}
    layout_sections = {row[0] for row in _LAYOUT}
    inclusions: dict[int, InclusionSpec] = {}
    for name, section in raw.items():
        if name in layout_sections:
            continue
        head, dot, suffix = name.partition(".")
        if head != "inclusion" or dot and not (suffix.isdecimal() and int(suffix) >= 1):
            raise ConfigError(f"unknown section [{name}]")
        number = int(suffix) if dot else 1
        if number in inclusions:
            raise ConfigError(f"section [{name}] repeats inclusion {number}")
        inclusions[number] = InclusionSpec(
            **{f.name: _take(section, f.name, f.default) for f in fields(InclusionSpec)}
        )

    base = ExperimentConfig()
    values = {}
    for row in _LAYOUT:
        section, key, name = raw.get(row[0], {}), row[1], row[-1]
        if row is _CLEAN and _take(section, key, base.clean):
            if name in section:
                raise ConfigError(
                    f"[noise] gives both clean = true and snr_db = {section[name]}; give one"
                )
            values[name] = math.inf
            continue
        values[name] = _take(section, name if row is _CLEAN else key, getattr(base, name))
    for name, section in raw.items():
        if section:
            raise ConfigError(f"unknown keys in [{name}]: {sorted(section)}")

    return ExperimentConfig(
        inclusions=tuple(inclusions[n] for n in sorted(inclusions)) or base.inclusions,
        **values,
    )


def _ini_text(value) -> str:
    """INI spelling of a config value: floats by repr, tuples comma-joined."""
    if isinstance(value, tuple):
        return ",".join(_ini_text(v) for v in value)
    if isinstance(value, bool):
        return str(value).lower()
    return repr(value) if isinstance(value, float) else str(value)


def write_config(config: ExperimentConfig, path) -> None:
    """Serialize a config to the INI format parse_config reads."""
    sections: dict[str, dict[str, str]] = {}
    for section, key, value in config.items():
        if value is not False:  # clean = false is implied by the snr_db that follows
            section = "inclusion" if section == "inclusion.1" else section
            sections.setdefault(section, {})[key] = _ini_text(value)
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_dict(sections)
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)


# ---------------------------------------------------------------------------
# validation

def _config_stage(config: ExperimentConfig):
    """Build what run's config stage needs and collect every fault and warning.

    Returns (parts, faults, warnings): the parts (inclusions, incident, grid,
    lattice), None where one could not be built; the (section, error) faults
    run refuses and the (section, message) warnings it does not, in file order.
    """
    faults: list[tuple[str, ThinImageError]] = []
    warnings: list[tuple[str, str]] = []

    def build(section: str, make, *args):
        try:
            return make(*args)
        except ThinImageError as exc:
            faults.append((section, exc))
            return None

    def refuse(section: str, message: str) -> None:
        faults.append((section, ConfigError(message)))

    if not config.inclusions:
        refuse("inclusion", "need at least one inclusion")
    inclusions = [
        build(f"inclusion {i}", spec.build) for i, spec in enumerate(config.inclusions, start=1)
    ]
    omegas = build(
        "incident", frequency_band, config.n_frequencies, config.lambda_min, config.lambda_max
    )
    # an inclusion that equals the background, then synthesize's curve and
    # thickness rules, refused here under each inclusion; last, synthesize's
    # nodes must resolve the band (a curve with a huge sine frequency would
    # overflow the traces), a rule for configured curves only, since
    # synthesize also takes the refitted ones
    for i, incl in enumerate(inclusions, start=1):
        if incl is not None:
            if incl.eps == 1.0 and incl.mu == 1.0:
                refuse(f"inclusion {i}", "zero contrast: eps = mu = 1 is the background")
            disc = build(f"inclusion {i}", discretize, incl.curve, SYNTHESIS_NODES)
            if omegas is not None:
                build(f"inclusion {i}", ensure_thin, incl, omegas[-1])
                half = math.pi / omegas[-1]
                if disc is not None and (panel := disc.longest_panel) > half:
                    refuse(
                        f"inclusion {i}",
                        f"curve too long for its {SYNTHESIS_NODES} synthesis nodes: a 4-node "
                        f"panel spans {panel:.4g} > half the shortest wavelength {half:.4f}",
                    )
    directions = build("incident", standard_directions, config.n_directions)
    incident = None
    if directions is not None and omegas is not None:
        incident = build("incident", IncidentSet, directions, omegas)
    # synthesize's resonance rule, from one table for the band: a frequency with a
    # hit below RESONANCE_TOL is refused under incident, any other hit is a warning
    if incident is not None:
        scans = band_resonance_orders(incident.omegas, _SCAN_RESONANCE_TOL)
        for omega, hits in zip(incident.omegas, scans):
            if refused := [(n, v) for n, v in hits if v < RESONANCE_TOL]:
                faults.append(("incident", resonance_error(omega, refused)))
                continue
            warnings.extend(
                (
                    "resonance warning",
                    f"omega={float(omega):.6f} lies near an interior eigenvalue of order n={n} "
                    f"(|J_n'(omega)|={v:.2e}); the measurement operator is nearly singular there",
                )
                for n, v in hits
            )
    grid = build("grid", boundary_grid, config.boundary_points)
    lattice = build("grid", make_lattice, config.lattice_size)
    # the adjoint resolves trace modes up to the grid's Nyquist order N/2
    if grid is not None and omegas is not None and grid.n_points < 2.0 * omegas[-1]:
        refuse(
            "grid",
            f"{grid.n_points} boundary points give fewer than two per wavelength at "
            f"omega_max={omegas[-1]:.6f}; need at least 2*omega_max={2.0 * omegas[-1]:.2f}",
        )
    if not (config.clean or math.isfinite(config.snr_db)):
        refuse("noise", f"snr_db must be finite or +inf, got {config.snr_db!r}")
    elif config.snr_db <= 0.0:
        warnings.append(("noise", f"snr_db should be positive, got {config.snr_db:g}"))
    if config.functional in ("etd_single", "music", "kirchhoff") and not config.k_values:
        refuse("imaging", f"functional {config.functional} needs at least one k_value")
    # MUSIC splits the directions into a signal and a noise subspace
    if config.functional == "music" and config.n_directions < 2:
        refuse(
            "imaging", f"functional music needs at least 2 directions, got {config.n_directions}"
        )
    if bad := [k for k in config.k_values if not 0 <= k < config.n_frequencies]:
        top = config.n_frequencies - 1
        refuse("imaging", f"k_values {bad} outside the frequency range 0..{top}")
    if repeats := sorted({k for k in config.k_values if config.k_values.count(k) > 1}):
        refuse("imaging", f"k_values repeat {repeats}")
    if config.fit_degree < 1:
        refuse("imaging", f"fit_degree must be at least 1, got {config.fit_degree}")
    # export creates the output directory; a file on its path would stop the run only there
    out_dir = Path(config.out_dir)
    if files := [p for p in (out_dir, *out_dir.parents) if p.exists() and not p.is_dir()]:
        refuse("output", f"cannot create the output directory {out_dir}: {files[0]} is a file")
    return (inclusions, incident, grid, lattice), faults, warnings


def _listing(faults, warnings) -> list[str]:
    """The faults, then the warnings, as "section: message"; ["ok"] when there are none."""
    return [f"{section}: {message}" for section, message in (*faults, *warnings)] or ["ok"]


def validate(config: ExperimentConfig) -> list[str]:
    """Dry-run diagnostics: the listing of run's config stage, in run's words."""
    return _listing(*_config_stage(config)[1:])


# ---------------------------------------------------------------------------
# pipeline

@contextmanager
def _stage(name: str):
    try:
        yield
    except ThinImageError as exc:
        raise type(exc)(f"stage {name}: {exc}") from exc


def _compute_maps(
    config: ExperimentConfig, data: BoundaryDataset, lattice, inclusions: list[ThinInclusion], notes
) -> dict[str, ImageMap]:
    if config.functional == "etd_multi":
        return {"map_etd_multi": etd_multi(data, lattice)}
    if config.functional == "mkm":
        msrs = [assemble_multistatic(data, k) for k in range(data.incident.n_frequencies)]
        return {"map_kirchhoff_multi": multi_kirchhoff_map(lattice, msrs)}
    if config.functional == "oracles":
        eps_map, mu_map = model_maps(lattice, inclusions, data.incident)
        combined = normalized_combination(eps_map, mu_map)
        return {"map_model_eps": eps_map, "map_model_mu": mu_map, "map_model_combined": combined}
    maps: dict[str, ImageMap] = {}
    for k in config.k_values:
        if config.functional == "etd_single":
            imap = etd_single(data, lattice, k)
        elif config.functional == "kirchhoff":
            imap = kirchhoff_map(lattice, assemble_multistatic(data, k))
        else:  # music
            msr = assemble_multistatic(data, k)
            dim = signal_space_dim(msr, clean=data.is_clean)
            imap, saturated = music_map(lattice, msr, signal_dim=dim)
            notes.setdefault("music_signal_dim", {})[f"k{k:02d}"] = dim
            notes.setdefault("music_saturated", {})[f"k{k:02d}"] = saturated
        maps[f"map_{config.functional}_k{k:02d}"] = imap
    return maps


def _initial_guess(
    imap: ImageMap, inclusions: list[ThinInclusion], data: BoundaryDataset, degree: int, notes
) -> list:
    """Fit report rows: each fitted curve, the first with its discrepancy norms.

    A map that yields no fit gives no rows and notes.fit_refused; fitted
    curves that synthesize refuses keep their rows with blank norms and give
    notes.norms_refused. Either way the run goes on to export.
    """
    try:
        fits = initial_guesses(imap, len(inclusions), degree)
    except (RidgeError, FitError) as exc:
        notes["fit_refused"] = str(exc)
        return []
    guesses = {f"guess{i + 1}": fit for i, fit in enumerate(fits)}
    notes["fit"] = {
        label: {"interval": [fit.a, fit.b], "coeffs": [float(c) for c in fit.coeffs]}
        for label, fit in guesses.items()
    }
    # recompute boundary data from the fitted curves; material parameters are
    # taken from the first configured inclusion, and the norms read the first
    # frequency alone, so synthesize only that one
    fitted = [
        replace(inclusions[0], curve=fit.as_parametric(label)) for label, fit in guesses.items()
    ]
    first = IncidentSet(data.incident.directions, data.incident.omegas[:1])
    try:
        comp = synthesize(fitted, first, data.grid)
    except GeometryError as exc:
        notes["norms_refused"] = str(exc)
        report = None
    else:
        report = discrete_norms(replace(data, traces=data.traces[:, :, :1], incident=first), comp)
        notes["norms"] = asdict(report)
    return [(label, fit, None if i else report) for i, (label, fit) in enumerate(guesses.items())]


def run(config: ExperimentConfig):
    """Execute an experiment; returns (output path, manifest dict)."""
    notes: dict = {"functional": config.functional}

    with _stage("config"):
        (inclusions, incident, grid, lattice), faults, _ = _config_stage(config)
        if faults:
            raise faults[0][1]

    with _stage("synthesize"):
        data = synthesize(inclusions, incident, grid)

    noise_seed = derive_seed(config.seed, "noise")
    with _stage("noise"):
        data = add_awgn(data, config.snr_db, noise_seed)

    with _stage("imaging"):
        maps = _compute_maps(config, data, lattice, inclusions, notes)

    fit_rows = []
    with _stage("postprocess"):
        if config.functional in ("etd_multi", "etd_single"):
            imap = next(iter(maps.values()))
            fit_rows = _initial_guess(imap, inclusions, data, config.fit_degree, notes)

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
            (out_dir / "fit_report.txt").write_text(format_fit_report(fit_rows), encoding="ascii")
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
    scenes = {label: (InclusionSpec(curve=label),) for label in BUILTIN_CURVES}
    scenes["multi_same"] = scenes["sigma1"] + scenes["sigma2"]
    scenes["multi_diff"] = scenes["sigma1"] + (InclusionSpec(curve="sigma2", eps=10.0, mu=10.0),)
    # name: scene, incident directions, frequencies, functional
    table = {f"sigma1_L4_K{k:02d}": ("sigma1", 4, k, "etd_multi") for k in (1, 5, 10, 16)}
    for s in ("sigma2", "sigma3", "multi_same", "multi_diff"):
        table.update({f"{s}_L4_K{k:02d}": (s, 4, k, "etd_multi") for k in (4, 16)})
    for s in scenes:
        table[f"{s}_L16_K16"] = (s, 16, 16, "etd_multi")
    table["sigma3_L16_K04"] = ("sigma3", 16, 4, "etd_multi")
    table["sigma3_music_single"] = ("sigma3", 16, 1, "music")
    table["sigma3_kirchhoff_multi"] = ("sigma3", 16, 16, "mkm")
    for s in BUILTIN_CURVES:
        table[f"initial_guess_{s}"] = (s, 16, 16, "etd_multi")
    table["initial_guess_multi"] = ("multi_same", 16, 16, "etd_multi")
    return {
        name: ExperimentConfig(
            inclusions=scenes[s], n_directions=n, n_frequencies=k, functional=f, out_dir=name
        )
        for name, (s, n, k, f) in table.items()
    }


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
    run_p.add_argument("--workers", type=int, help="has no effect; imaging is serial")

    val_p = sub.add_parser("validate", help="check a config without running it")
    val_p.add_argument("--config", type=Path, default=None, help="INI config path")

    exp_p = sub.add_parser("export-presets", help="write the shipped preset configs")
    exp_p.add_argument("--out", type=Path, default=Path("presets"), help="target directory")

    args = parser.parse_args(argv)

    try:
        if args.command == "run":
            config = _load_config(args)
            out_dir, manifest = run(config)
            print(f"wrote {len(manifest['artifacts']) + 1} artifacts to {out_dir}")
            return 0
        if args.command == "validate":
            _, faults, warnings = _config_stage(_load_config(args))
            print("\n".join(_listing(faults, warnings)))
            # a fault run's config stage refuses fails the check; warnings do not
            return 2 if faults else 0
        if args.command == "export-presets":
            written = export_presets(args.out)
            print(f"wrote {len(written)} presets to {args.out}")
            return 0
    except (ThinImageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
