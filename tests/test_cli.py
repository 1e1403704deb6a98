"""Tests for config parsing, validation, the experiment driver, and presets."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import thinimage
from thinimage import cli, forward
from thinimage.cli import (
    ExperimentConfig,
    InclusionSpec,
    derive_seed,
    export_presets,
    main,
    parse_config,
    preset_configs,
    run,
    validate,
    write_config,
)
from thinimage.errors import ConfigError, ResonanceError, ThinImageError
from thinimage.forward import DiskModes, IncidentSet, standard_directions, synthesize
from thinimage.geometry import ThinInclusion, boundary_grid, builtin_curve
from thinimage.postprocess import ChebyshevCurve


def small_config(**kwargs) -> ExperimentConfig:
    """Config sized for fast runs: few directions and frequencies."""
    base = dict(n_directions=4, n_frequencies=3, lattice_size=128, seed=7)
    base.update(kwargs)
    return ExperimentConfig(**base)


def _source_env() -> dict[str, str]:
    """The environment of a fresh interpreter that imports thinimage from this source tree."""
    src = str(Path(thinimage.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))


def artifact_bytes(out_dir) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


# a builtin and a custom inclusion on clean data, and the INI text that pins
# write_config's section order, key order and float spelling for it
TWO_INCLUSIONS = ExperimentConfig(
    inclusions=(
        InclusionSpec(curve="sigma2", h=0.03, eps=7.0),
        InclusionSpec(
            curve="custom",
            s_min=-0.4,
            s_max=0.4,
            x_shift=0.1,
            y_poly=(0.2, -0.1, 0.5),
            y_sin_amp=0.05,
            y_sin_freq=3.0,
            y_sin_phase=0.5,
        ),
    ),
    snr_db=math.inf,
    k_values=(0, 2),
)
TWO_INCLUSIONS_INI = """\
[inclusion]
curve = sigma2
h = 0.03
eps = 7.0
mu = 5.0

[inclusion.2]
curve = custom
h = 0.02
eps = 5.0
mu = 5.0
s_min = -0.4
s_max = 0.4
x_shift = 0.1
y_poly = 0.2,-0.1,0.5
y_sin_amp = 0.05
y_sin_freq = 3.0
y_sin_phase = 0.5

[incident]
directions = 4
frequencies = 16
lambda_min = 0.2
lambda_max = 0.5

[grid]
lattice = 128
boundary = 128

[noise]
seed = 1
clean = true

[imaging]
functional = etd_multi
k_values = 0,2
fit_degree = 5

[output]
directory = out

"""


class TestSeeds:
    def test_deterministic(self):
        assert derive_seed(1, "noise") == derive_seed(1, "noise")

    def test_stage_and_master_sensitivity(self):
        seeds = {
            derive_seed(1, "noise"),
            derive_seed(1, "other"),
            derive_seed(2, "noise"),
        }
        assert len(seeds) == 3

    def test_fits_in_64_bits(self):
        assert 0 <= derive_seed(12345, "noise") < 2**64


class TestParseConfig:
    def test_round_trip(self, tmp_path):
        config = ExperimentConfig(
            inclusions=(
                InclusionSpec(curve="sigma2", h=0.03, eps=7.0),
                InclusionSpec(
                    curve="custom",
                    s_min=-0.4,
                    s_max=0.4,
                    x_shift=0.1,
                    y_poly=(0.2, -0.1, 0.5),
                    y_sin_amp=0.05,
                    y_sin_freq=3.0,
                    y_sin_phase=0.5,
                ),
            ),
            n_directions=8,
            n_frequencies=5,
            lambda_min=0.25,
            lambda_max=0.45,
            lattice_size=64,
            boundary_points=256,
            snr_db=20.0,
            seed=99,
            functional="music",
            k_values=(0, 2, 4),
            fit_degree=4,
            out_dir="results",
        )
        path = tmp_path / "exp.ini"
        write_config(config, path)
        assert parse_config(path) == config

    def test_clean_round_trip(self, tmp_path):
        config = ExperimentConfig(snr_db=math.inf)
        path = tmp_path / "clean.ini"
        write_config(config, path)
        parsed = parse_config(path)
        assert parsed.clean and parsed == config

    def test_clean_beside_snr_is_refused(self, tmp_path, capsys):
        # clean = true stands for snr_db = inf, so a second snr_db contradicts it
        path = tmp_path / "both.ini"
        path.write_text("[noise]\nclean = true\nsnr_db = 10\n")
        with pytest.raises(ConfigError, match=r"both clean = true and snr_db = 10"):
            parse_config(path)
        for args in (["run", "--out", str(tmp_path / "o")], ["validate"]):
            assert main([*args, "--config", str(path)]) == 2
            err = capsys.readouterr().err
            assert err.count("error:") == 1 and "snr_db" in err
        assert not (tmp_path / "o").exists()
        path.write_text("[noise]\nclean = false\nsnr_db = 10\n")
        assert parse_config(path) == ExperimentConfig(snr_db=10.0)

    def test_empty_list_round_trip(self, tmp_path):
        # etd_multi reads no k_values: the empty list is written as "k_values ="
        config = ExperimentConfig(k_values=())
        assert validate(config) == ["ok"]
        path = tmp_path / "empty.ini"
        write_config(config, path)
        assert parse_config(path) == config
        # an empty y_poly parses too, and the config stage refuses it
        path.write_text("[inclusion]\ncurve = custom\ny_poly =\n")
        fault = "inclusion 1: y_poly needs at least one coefficient"
        assert validate(parse_config(path)) == [fault]

    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "empty.ini"
        path.write_text("")
        assert parse_config(path) == ExperimentConfig()

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config(tmp_path / "nope.ini")

    def test_unknown_section(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[solver]\nmode = fast\n")
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config(path)

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[grid]\nlattice = 64\nresolution = 9\n")
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_config(path)

    def test_unknown_functional(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[imaging]\nfunctional = magic\n")
        with pytest.raises(ConfigError, match="unknown functional"):
            parse_config(path)

    def test_unknown_functional_refused_without_a_file(self):
        with pytest.raises(ConfigError, match="unknown functional 'magic'"):
            ExperimentConfig(functional="magic")

    def test_malformed_integer(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[incident]\ndirections = many\n")
        with pytest.raises(ConfigError, match="must be an integer"):
            parse_config(path)

    def test_malformed_k_values(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[imaging]\nk_values = 0;1\n")
        with pytest.raises(ConfigError, match="comma-separated integers"):
            parse_config(path)

    def test_malformed_poly(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[inclusion]\ncurve = custom\ny_poly = a,b\n")
        with pytest.raises(ConfigError, match="comma-separated numbers"):
            parse_config(path)

    def test_not_ini(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("just words\n")
        with pytest.raises(ConfigError, match="malformed"):
            parse_config(path)

    def test_malformed_inclusion_number(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text("[inclusion]\nh = thin\n")
        with pytest.raises(ConfigError, match="must be a number"):
            parse_config(path)
        assert main(["validate", "--config", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_many_inclusions_keep_their_order(self, tmp_path):
        # [inclusion.10] sorts before [inclusion.2] as text, not as a number
        specs = tuple(InclusionSpec(h=0.001 * i) for i in range(1, 12))
        config = ExperimentConfig(inclusions=specs)
        path = tmp_path / "many.ini"
        write_config(config, path)
        assert parse_config(path) == config

    def test_non_integer_inclusion_suffix(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[inclusion.x]\nh = 0.01\n")
        with pytest.raises(ConfigError, match=r"unknown section \[inclusion.x\]"):
            parse_config(path)

    def test_first_inclusion_given_twice(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[inclusion]\nh = 0.01\n\n[inclusion.1]\nh = 0.03\n")
        with pytest.raises(ConfigError, match="repeats inclusion 1"):
            parse_config(path)

    def test_default_section_is_refused(self, tmp_path):
        # configparser would hand [DEFAULT] keys to every other section
        path = tmp_path / "bad.ini"
        for text in ("[DEFAULT]\nh = 0.03\n", "[DEFAULT]\nh = 0.03\n\n[inclusion]\ncurve = sigma2\n"):
            path.write_text(text)
            with pytest.raises(ConfigError, match=r"unknown section \[DEFAULT\]"):
                parse_config(path)

    def test_custom_curve_key_on_builtin_curve_is_refused(self, tmp_path):
        # write_config would drop the key, so the round trip would not hold
        with pytest.raises(ConfigError, match=r"\['s_min'\] need curve = custom"):
            InclusionSpec(curve="sigma1", s_min=-0.3)
        path = tmp_path / "bad.ini"
        path.write_text("[inclusion]\ncurve = sigma1\ns_min = -0.3\n")
        with pytest.raises(ConfigError, match=r"\['s_min'\] need curve = custom"):
            parse_config(path)

    def test_negative_infinite_snr_is_not_clean(self, tmp_path):
        config = ExperimentConfig(snr_db=-math.inf)
        assert not config.clean
        assert config.flat_items()["noise.snr_db"] == -math.inf
        # a refused snr_db is listed once, as its fault
        assert validate(config) == ["noise: snr_db must be finite or +inf, got -inf"]
        path = tmp_path / "neg.ini"
        write_config(config, path)
        assert parse_config(path) == config

    def test_readme_example_is_the_default_config(self, tmp_path):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        (block,) = re.findall(r"```ini\n(.*?)```", readme.read_text(encoding="utf-8"), re.S)
        path = tmp_path / "readme.ini"
        path.write_text(block)
        assert parse_config(path) == ExperimentConfig()


class TestWriteConfig:
    def test_file_format_is_pinned(self, tmp_path):
        path = tmp_path / "two.ini"
        write_config(TWO_INCLUSIONS, path)
        assert path.read_text(encoding="utf-8") == TWO_INCLUSIONS_INI
        assert parse_config(path) == TWO_INCLUSIONS


# lambda_min = lambda_max at which omega = 2 pi / lambda lands on j'_{3,1},
# the first zero of J_3', and the refusal every caller prints there
ON_J3P_ROOT = 0.4307727040557835
J3P_ROOT_REFUSAL = "omega = 14.58584829 is next to a Neumann eigenvalue: n=3 (|J_n'|<1e-14)"
# the refusal of an inclusion with the background's eps = mu = 1
ZERO_CONTRAST = "zero contrast: eps = mu = 1 is the background"


class TestValidate:
    def test_default_ok(self):
        assert validate(ExperimentConfig()) == ["ok"]

    def test_resonance_warning_names_order_and_frequency(self):
        # the first positive stationary point of the order-one cylinder
        # function sits near 1.8412; a band pinned 6e-6 above it is not
        # refused (|J_1'| = 2.6e-6) but must be flagged
        lam = 2.0 * math.pi / 1.84119
        config = ExperimentConfig(n_frequencies=1, lambda_min=lam, lambda_max=lam)
        lines = [s for s in validate(config) if "resonance" in s]
        assert lines and "n=1" in lines[0] and "omega=1.841190" in lines[0]

    def test_refused_resonance_is_listed_once(self):
        # a band pinned on 1.8412 is a config fault, not also a warning
        lam = 2.0 * math.pi / 1.8411837813
        config = ExperimentConfig(n_frequencies=1, lambda_min=lam, lambda_max=lam)
        [line] = validate(config)
        assert line.startswith("incident: omega = 1.841183781 is next to a Neumann eigenvalue: n=1")

    def test_thickness_violation(self):
        config = ExperimentConfig(inclusions=(InclusionSpec(h=0.2),))
        lines = validate(config)
        assert any("half-thickness" in s for s in lines)

    def test_zero_contrast_flagged(self):
        config = ExperimentConfig(inclusions=(InclusionSpec(eps=1.0, mu=1.0),))
        assert any("zero contrast" in s for s in validate(config))

    def test_zero_contrast_beside_a_real_inclusion_is_refused(self, tmp_path, capsys):
        # the second inclusion would image, but the first is the background
        config = ExperimentConfig(
            inclusions=(InclusionSpec(eps=1.0, mu=1.0), InclusionSpec(curve="sigma2"))
        )
        assert validate(config) == ["inclusion 1: " + ZERO_CONTRAST]
        path = tmp_path / "mixed.ini"
        write_config(config, path)
        assert main(["validate", "--config", str(path)]) == 2
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: stage config: {ZERO_CONTRAST}\n"
        assert not out.exists()

    def test_non_finite_custom_curve_exits_2(self, tmp_path, capsys):
        # a NaN node radius passes every clearance comparison; it must stop at
        # the config stage, not in the kernel series of synthesis
        path = tmp_path / "nan.ini"
        path.write_text("[inclusion]\ncurve = custom\nx_shift = nan\n")
        fault = "inclusion 1: curve has a non-finite node or velocity"
        assert main(["validate", "--config", str(path)]) == 2
        assert fault in capsys.readouterr().out.splitlines()
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: stage config: " + fault.split(": ", 1)[1] + "\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "keys",
        [
            "y_sin_amp = inf\n",
            "y_sin_freq = inf\ny_sin_amp = 0.1\n",
            "s_min = -5\ns_max = 5\ny_poly = 0,0,1e308\n",
        ],
        ids=["amp", "freq", "poly"],
    )
    def test_overflowing_custom_curve_is_refused_without_warnings(self, tmp_path, capsys, keys):
        # the curve evaluates to inf or nan; discretize's finiteness check
        # refuses it, and numpy must not warn about the arithmetic on the way
        path = tmp_path / "inf.ini"
        path.write_text("[inclusion]\ncurve = custom\n" + keys)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["validate", "--config", str(path)]) == 2
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr() == ("inclusion 1: curve has a non-finite node or velocity\n", "")

    def test_curve_too_long_for_the_synthesis_nodes_is_refused(self, tmp_path, capsys):
        # a huge finite sine frequency keeps every node finite and inside the
        # disk, but each 4-node panel spans about 1e304, and the traces
        # synthesized on them overflowed in the noise stage; the config stage
        # now refuses the curve, in validate and before run synthesizes
        path = tmp_path / "long.ini"
        path.write_text("[inclusion]\ncurve = custom\ny_sin_freq = 1e308\ny_sin_amp = 0.01\n")
        fault = (
            "curve too long for its 400 synthesis nodes: a 4-node panel spans 9.01e+303 "
            "> half the shortest wavelength 0.1000"
        )
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["validate", "--config", str(path)]) == 2
            assert capsys.readouterr() == (f"inclusion 1: {fault}\n", "")
            assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: stage config: {fault}\n")
        assert [str(w.message) for w in caught] == []
        assert not out.exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_background_keys_are_refused(self, tmp_path, capsys, command):
        # the background is fixed at eps = mu = 1; files written with the
        # former eps0/mu0 keys must be exported again
        path = tmp_path / "old.ini"
        path.write_text("[inclusion]\ncurve = sigma1\neps0 = 1.0\nmu0 = 1.0\n")
        message = "unknown keys in [inclusion]: ['eps0', 'mu0']"
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(path)
        out = ["--out", str(tmp_path / "out")] if command == "run" else []
        assert main([command, "--config", str(path), *out]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not (tmp_path / "out").exists()

    def test_bad_curve_label(self):
        config = ExperimentConfig(inclusions=(InclusionSpec(curve="sigma9"),))
        assert any(s.startswith("inclusion 1:") for s in validate(config))

    def test_k_values_out_of_range(self):
        config = ExperimentConfig(k_values=(0, 99))
        assert any("k_values" in s for s in validate(config))

    def test_k_values_message_shared_with_run(self, tmp_path):
        config = small_config(k_values=(0, 5), out_dir=str(tmp_path / "out"))
        message = "k_values [5] outside the frequency range 0..2"
        assert f"imaging: {message}" in validate(config)
        with pytest.raises(ConfigError, match=re.escape(f"stage config: {message}")):
            run(config)

    @pytest.mark.parametrize(
        "kwargs, fault",
        [
            (dict(inclusions=()), "inclusion: need at least one inclusion"),
            (
                dict(inclusions=(InclusionSpec(h=-0.01),)),
                "inclusion 1: half-thickness must be positive, got -0.01",
            ),
            (dict(n_directions=0), "incident: need at least one direction, got 0"),
            (
                dict(lambda_min=0.6),
                "incident: wavelength band must satisfy 0 < lambda_min <= lambda_max",
            ),
            (dict(lambda_max=math.inf), "incident: omegas must be positive and finite"),
            (dict(boundary_points=8), "grid: boundary grid needs at least 16 points, got 8"),
            (dict(lattice_size=4), "grid: lattice needs at least 8 nodes per side, got 4"),
            (dict(snr_db=math.nan), "noise: snr_db must be finite or +inf, got nan"),
            (dict(snr_db=-math.inf), "noise: snr_db must be finite or +inf, got -inf"),
            (dict(k_values=(0, 5)), "imaging: k_values [5] outside the frequency range 0..2"),
            (dict(fit_degree=0), "imaging: fit_degree must be at least 1, got 0"),
            (
                dict(boundary_points=62),
                "grid: 62 boundary points give fewer than two per wavelength at "
                "omega_max=31.415927; need at least 2*omega_max=62.83",
            ),
            *(
                (
                    dict(functional=name, k_values=()),
                    f"imaging: functional {name} needs at least one k_value",
                )
                for name in ("etd_single", "music", "kirchhoff")
            ),
            (
                dict(inclusions=(InclusionSpec(h=0.05),)),
                "inclusion 1: half-thickness 0.05 too large for the shortest wavelength 0.2000",
            ),
            (
                dict(functional="music", n_directions=1),
                "imaging: functional music needs at least 2 directions, got 1",
            ),
            (
                # omega = 2 pi / lambda lands on j'_{3,1}, the first zero of J_3';
                # |J_3'| there is table roundoff, printed as a bound
                dict(n_frequencies=1, lambda_min=ON_J3P_ROOT, lambda_max=ON_J3P_ROOT),
                "incident: " + J3P_ROOT_REFUSAL,
            ),
            (
                # synthesize's own curve discretization leaves the clearance disk
                dict(inclusions=(InclusionSpec(curve="custom", x_shift=0.6, y_poly=(0.3,)),)),
                "inclusion 1: curve violates the boundary clearance: max |x| = 1.1395 > 0.9",
            ),
            (dict(inclusions=(InclusionSpec(eps=1.0, mu=1.0),)), "inclusion 1: " + ZERO_CONTRAST),
            (dict(functional="etd_single", k_values=(0, 2, 0)), "imaging: k_values repeat [0]"),
            (
                dict(inclusions=(InclusionSpec(mu=math.inf),)),
                "inclusion 1: mu must be positive and finite, got inf",
            ),
            (
                dict(inclusions=(InclusionSpec(curve="custom", y_poly=(0.0, math.nan)),)),
                "inclusion 1: curve has a non-finite node or velocity",
            ),
            (
                dict(lambda_min=0.3, lambda_max=0.3),
                "incident: 3 frequencies need lambda_min < lambda_max, got both 0.3",
            ),
            (
                # far past the disk, the radius prints in exponent form, not as 201 digits
                dict(inclusions=(InclusionSpec(curve="custom", y_poly=(1e200, 1e200)),)),
                "inclusion 1: curve violates the boundary clearance: max |x| = 1.4993e+200 > 0.9",
            ),
        ],
    )
    def test_each_fault_is_refused_by_run_in_the_same_words(self, tmp_path, kwargs, fault):
        config = small_config(out_dir=str(tmp_path / "out"), **kwargs)
        assert validate(config)[0] == fault
        with pytest.raises(ThinImageError) as info:
            run(config)
        assert str(info.value) == "stage config: " + fault.split(": ", 1)[1]
        assert not (tmp_path / "out").exists()

    def test_an_eigenvalue_is_refused_in_the_same_words_by_every_caller(self, tmp_path):
        # each caller reads |J_3'| from its own Bessel table, whose roundoff
        # differs (1.5e-16 to 3.4e-16); the refusal must not
        band = dict(n_frequencies=1, lambda_min=ON_J3P_ROOT, lambda_max=ON_J3P_ROOT)
        with pytest.raises(ThinImageError) as info:
            run(small_config(out_dir=str(tmp_path / "out"), **band))
        messages = [str(info.value).removeprefix("stage config: ")]
        omega = 2.0 * math.pi / ON_J3P_ROOT
        incident = IncidentSet(standard_directions(4), np.array([omega]))
        sigma1 = [ThinInclusion(builtin_curve("sigma1"))]
        for refuse in (
            lambda: synthesize(sigma1, incident, boundary_grid(128)),
            lambda: DiskModes([omega], np.array([[0.1, 0.2]])),
            lambda: DiskModes([12.0, omega, 30.0], np.array([[0.1, 0.2]])),
        ):
            with pytest.raises(ResonanceError) as info:
                refuse()
            messages.append(str(info.value))
        assert messages == [J3P_ROOT_REFUSAL] * 4

    def test_boundary_grid_resolves_top_frequency(self):
        # the default band tops out at omega = 10 pi: 2*omega_max = 62.83
        coarse = [s for s in validate(ExperimentConfig(boundary_points=62)) if "wavelength" in s]
        assert coarse and coarse[0].startswith("grid:") and "omega_max=31.415927" in coarse[0]
        assert validate(ExperimentConfig(boundary_points=63)) == ["ok"]

    def test_small_lattice(self):
        config = ExperimentConfig(lattice_size=4)
        assert any("lattice" in s for s in validate(config))

    def test_nonpositive_snr(self):
        config = ExperimentConfig(snr_db=-3.0)
        assert any("snr_db" in s for s in validate(config))

    def test_fit_degree(self):
        config = ExperimentConfig(fit_degree=0)
        assert any("fit_degree" in s for s in validate(config))


class TestRun:
    def test_artifacts_and_manifest(self, tmp_path):
        config = small_config(out_dir=str(tmp_path / "out"))
        out_dir, manifest = run(config)
        names = {p.name for p in out_dir.iterdir()}
        assert names == {
            "dataset.txt",
            "map_etd_multi.csv",
            "map_etd_multi.pgm",
            "fit_report.txt",
            "manifest.json",
        }
        assert manifest["config"] == config.flat_items()
        assert manifest["stage_seeds"]["noise"] == derive_seed(config.seed, "noise")
        on_disk = json.loads((out_dir / "manifest.json").read_text())
        assert on_disk["artifacts"] == manifest["artifacts"]
        assert "n1" in manifest["notes"]["norms"]

    def test_rerun_is_byte_identical(self, tmp_path):
        config = small_config(out_dir=str(tmp_path / "out"))
        out_dir, _ = run(config)
        first = artifact_bytes(out_dir)
        out_dir, _ = run(config)
        assert artifact_bytes(out_dir) == first

    def test_worker_count_does_not_change_results(self, tmp_path):
        # --workers is still accepted, and has no effect on the artifacts
        path = tmp_path / "exp.ini"
        write_config(small_config(), path)
        argv = ["run", "--config", str(path), "--out", str(tmp_path / "out"), "--workers"]
        assert main(argv + ["1"]) == 0
        first = artifact_bytes(tmp_path / "out")
        assert main(argv + ["4"]) == 0
        assert artifact_bytes(tmp_path / "out") == first

    def test_seed_changes_dataset(self, tmp_path):
        config = small_config(out_dir=str(tmp_path / "a"))
        out_a, _ = run(config)
        config_b = replace(config, seed=8, out_dir=str(tmp_path / "b"))
        out_b, _ = run(config_b)
        assert (out_a / "dataset.txt").read_bytes() != (out_b / "dataset.txt").read_bytes()

    def test_zero_contrast_fails_in_config_stage(self, tmp_path):
        config = small_config(
            inclusions=(InclusionSpec(eps=1.0, mu=1.0),),
            out_dir=str(tmp_path / "out"),
        )
        with pytest.raises(ConfigError, match="stage config: zero contrast"):
            run(config)
        assert not (tmp_path / "out").exists()

    def test_refused_norms_keep_the_run(self, tmp_path, monkeypatch):
        # a guess out to |x| = 0.95 leaves the 0.9 clearance disk, so its
        # re-synthesis is refused; the run still writes the map and a fit
        # report with blank norms
        guess = ChebyshevCurve(-0.95, 0.95, np.array([0.0, 0.0]))
        monkeypatch.setattr(cli, "initial_guesses", lambda *args: [guess])
        out_dir, manifest = run(small_config(out_dir=str(tmp_path / "out")))
        names = {p.name for p in out_dir.iterdir()}
        assert {"map_etd_multi.csv", "map_etd_multi.pgm", "fit_report.txt"} <= names
        header, row = (out_dir / "fit_report.txt").read_text().splitlines()
        assert header.split()[-3:] == ["N1", "N2", "Ninf"]
        assert row.split()[0] == "guess1" and len(row.split()) == len(header.split()) - 3
        notes = manifest["notes"]
        assert "boundary clearance" in notes["norms_refused"]
        assert "fit" in notes and "norms" not in notes

    def test_refused_fit_keeps_the_run(self, tmp_path):
        # an 8-node lattice leaves one ridge abscissa, too few for a fit
        config = small_config(lattice_size=8, out_dir=str(tmp_path / "out"))
        out_dir, manifest = run(config)
        names = {p.name for p in out_dir.iterdir()}
        assert names == {"dataset.txt", "map_etd_multi.csv", "map_etd_multi.pgm", "manifest.json"}
        notes = manifest["notes"]
        assert notes["fit_refused"] == "need more than 5 distinct abscissae, got 1"
        assert "fit" not in notes and "norms" not in notes

    def test_bad_k_values_fail_in_config_stage(self, tmp_path):
        config = small_config(
            functional="etd_single", k_values=(5,), out_dir=str(tmp_path / "out")
        )
        with pytest.raises(ConfigError, match="stage config"):
            run(config)

    def test_music_functional(self, tmp_path):
        config = small_config(
            functional="music", k_values=(0, 2), out_dir=str(tmp_path / "out")
        )
        out_dir, manifest = run(config)
        names = {p.name for p in out_dir.iterdir()}
        assert {"map_music_k00.csv", "map_music_k02.csv"} <= names
        assert "fit_report.txt" not in names
        assert set(manifest["notes"]["music_signal_dim"]) == {"k00", "k02"}
        assert set(manifest["notes"]["music_saturated"]) == {"k00", "k02"}

    def test_kirchhoff_and_multi(self, tmp_path):
        config = small_config(
            functional="kirchhoff", k_values=(1,), out_dir=str(tmp_path / "a")
        )
        out_dir, _ = run(config)
        assert (out_dir / "map_kirchhoff_k01.csv").exists()
        config = small_config(functional="mkm", out_dir=str(tmp_path / "b"))
        out_dir, _ = run(config)
        assert (out_dir / "map_kirchhoff_multi.csv").exists()

    def test_model_maps_functional(self, tmp_path):
        config = small_config(functional="oracles", out_dir=str(tmp_path / "out"))
        out_dir, _ = run(config)
        names = {p.name for p in out_dir.iterdir()}
        assert {"map_model_eps.csv", "map_model_mu.csv", "map_model_combined.csv"} <= names


class TestPresets:
    def test_preset_names_match_output_dirs(self):
        for name, config in preset_configs().items():
            assert config.out_dir == name

    def test_presets_all_validate_clean(self):
        presets = preset_configs()
        assert len(presets) == 24
        for name, config in presets.items():
            assert validate(config) == ["ok"], name

    def test_export_parses_back(self, tmp_path):
        paths = export_presets(tmp_path)
        assert len(paths) == 24
        presets = preset_configs()
        for path in paths:
            assert parse_config(path) == presets[path.stem]

    def test_export_is_deterministic(self, tmp_path):
        first = {p.name: p.read_bytes() for p in export_presets(tmp_path / "a")}
        second = {p.name: p.read_bytes() for p in export_presets(tmp_path / "b")}
        assert first == second

    def test_export_bytes_are_pinned(self, tmp_path):
        # the shipped preset files, byte for byte; a rewrite of the preset
        # table must leave this digest alone
        digest = hashlib.sha256()
        for path in sorted(export_presets(tmp_path), key=lambda p: p.name):
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
        assert digest.hexdigest() == (
            "82ec59eb592210099be9ec85cc4ee5d811d89c40ea74653de4b51a558cf55adc"
        )


class TestMain:
    @pytest.mark.parametrize("functional", ["etd_multi", "mkm"])
    def test_run_loads_no_scipy(self, tmp_path, functional):
        # a single-inclusion run takes J_n'(w) from the Miller table, so no
        # scipy module is loaded by the time the command line returns; nor is
        # numpy.ma, which np.quantile and np.unique import on first use
        path = tmp_path / "exp.ini"
        write_config(small_config(functional=functional), path)
        code = (
            "import sys; from thinimage.cli import main; "
            f"code = main(['run', '--config', {str(path)!r}, '--out', {str(tmp_path / 'out')!r}]); "
            "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), "
            "'numpy.ma' in sys.modules)"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], env=_source_env(), capture_output=True, text=True,
            timeout=300,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "0 [] False"

    def test_import_leaves_scipy_unloaded(self):
        # scipy is imported on first use: scipy.special by the Neumann
        # function's Y_n, scipy.ndimage by multi-inclusion ridge clustering;
        # a fresh interpreter importing the command line loads none
        code = "import sys, thinimage.cli; print('scipy' in sys.modules)"
        result = subprocess.run(
            [sys.executable, "-c", code], env=_source_env(), capture_output=True, text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"

    def test_validate_subcommand(self, capsys):
        assert main(["validate"]) == 0
        assert capsys.readouterr().out.strip() == "ok"

    def test_validate_makes_one_config_pass(self, monkeypatch, capsys):
        # validate's listing and exit status come from one config stage: one
        # band scan, one lattice and one discretization of the one inclusion
        calls = {}
        for module, name in (
            (cli, "_config_stage"),
            (forward, "bessel_j_table"),
            (cli, "discretize"),
            (cli, "make_lattice"),
        ):
            def counted(*args, _call=getattr(module, name), _name=name, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _call(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        assert main(["validate"]) == 0
        assert capsys.readouterr().out == "ok\n"
        assert calls == dict.fromkeys(
            ("_config_stage", "bessel_j_table", "discretize", "make_lattice"), 1
        )

    def test_validate_with_config(self, tmp_path, capsys):
        path = tmp_path / "exp.ini"
        write_config(ExperimentConfig(inclusions=(InclusionSpec(h=0.2),)), path)
        assert main(["validate", "--config", str(path)]) == 2
        assert "half-thickness" in capsys.readouterr().out

    def test_validate_warnings_only_exit_zero(self, tmp_path, capsys):
        # a warning run does not act on leaves the exit status at 0
        path = tmp_path / "exp.ini"
        write_config(ExperimentConfig(snr_db=-3.0), path)
        assert main(["validate", "--config", str(path)]) == 0
        assert "noise: snr_db should be positive" in capsys.readouterr().out

    def test_run_subcommand(self, tmp_path, capsys):
        path = tmp_path / "exp.ini"
        write_config(small_config(), path)
        out = tmp_path / "out"
        code = main(
            ["run", "--config", str(path), "--out", str(out), "--workers", "2"]
        )
        assert code == 0
        assert "artifacts" in capsys.readouterr().out
        assert (out / "manifest.json").exists()

    def test_run_seed_override(self, tmp_path):
        path = tmp_path / "exp.ini"
        write_config(small_config(), path)
        out = tmp_path / "out"
        main(["run", "--config", str(path), "--out", str(out), "--seed", "5"])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 5
        assert manifest["stage_seeds"]["noise"] == derive_seed(5, "noise")

    def test_export_presets_subcommand(self, tmp_path, capsys):
        out = tmp_path / "presets"
        assert main(["export-presets", "--out", str(out)]) == 0
        assert len(list(out.glob("*.ini"))) == 24
        assert "24 presets" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["run", "export-presets"])
    def test_output_path_on_a_file_exits_2(self, tmp_path, capsys, command):
        taken = tmp_path / "taken"
        taken.write_text("")
        path = tmp_path / "exp.ini"
        write_config(small_config(), path)
        config = ["--config", str(path)] if command == "run" else []
        assert main([command, *config, "--out", str(taken)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert ("stage config:" if command == "run" else "File exists") in err

    @pytest.mark.parametrize("below", [False, True])
    def test_run_output_on_a_file_is_refused_before_synthesis(
        self, tmp_path, capsys, monkeypatch, below
    ):
        # a file at the output path or on its way is an output fault of the
        # config stage: validate lists it, and run exits 2 before any work
        taken = tmp_path / "taken"
        taken.write_text("")
        out = taken / "sub" if below else taken
        fault = f"output: cannot create the output directory {out}: {taken} is a file"
        assert validate(small_config(out_dir=str(out))) == [fault]

        def synthesize(*args, **kwargs):
            raise AssertionError("run reached synthesis")

        monkeypatch.setattr("thinimage.cli.synthesize", synthesize)
        path = tmp_path / "exp.ini"
        write_config(small_config(), path)
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: stage config: " + fault.split(": ", 1)[1] + "\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.ini", "taken"]
        assert taken.read_text() == ""

    def test_error_exit_code(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "nope.ini")])
        assert code == 2
        assert "error:" in capsys.readouterr().err
