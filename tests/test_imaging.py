"""Tests for the imaging maps: adjoint engine, normalized maps, kernel models."""

import math
import tracemalloc

import numpy as np
import pytest

from thinimage import forward, imaging
from thinimage.errors import ConfigError, FlatMapError, GeometryError
from thinimage.forward import (
    BoundaryDataset,
    IncidentSet,
    frequency_band,
    neumann_function,
    standard_directions,
    synthesize,
)
from thinimage.geometry import (
    ParametricCurve,
    ThinInclusion,
    boundary_grid,
    builtin_curve,
    discretize,
)
from thinimage.imaging import (
    adjoint_field_batch,
    band_kernel_maps,
    etd_multi,
    etd_single,
    model_maps,
    normalized_combination,
    radial_band_maps,
    single_frequency_kernel_maps,
    td_component_maps,
)
from thinimage.maps import (
    make_lattice,
    top_quantile_distance,
)

OMEGA = 4.0 * math.pi


@pytest.fixture(scope="module")
def grid():
    return boundary_grid(128)


@pytest.fixture(scope="module")
def sigma1():
    curve = builtin_curve("sigma1")
    return curve, discretize(curve, 400)


@pytest.fixture(scope="module")
def clean16(grid, sigma1):
    """Clean full-contrast dataset, 16 directions, 16 band frequencies."""
    curve, _ = sigma1
    incident = IncidentSet(standard_directions(16), frequency_band(16))
    return synthesize([ThinInclusion(curve)], incident, grid)


@pytest.fixture(scope="module")
def noisy15(grid, sigma1, clean16):
    """15 dB datasets of 4, 8 and 16 directions, 16 band frequencies, by L.

    Noise breaks the clean traces' tr_{l+L/2} = conj tr_l, so the orbit
    pairing's fold of each direction with its half-turn partner is tested
    on data where the partner carries information of its own.
    """
    data = {16: clean16}
    for n_directions in (4, 8):
        incident = IncidentSet(standard_directions(n_directions), frequency_band(16))
        data[n_directions] = synthesize([ThinInclusion(sigma1[0])], incident, grid)
    return {n: forward.add_awgn(d, 15.0, 8100 + n) for n, d in data.items()}


@pytest.fixture(scope="module")
def multi_map(clean16):
    return etd_multi(clean16, make_lattice(128))


@pytest.fixture(scope="module")
def random_traces(grid):
    rng = np.random.default_rng(42)
    shape = (grid.n_points, 3)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestAdjointField:
    def test_matches_direct_boundary_quadrature(self, grid, random_traces):
        rng = np.random.default_rng(7)
        pts = rng.uniform(-0.6, 0.6, size=(6, 2))
        v = adjoint_field_batch(random_traces, grid, OMEGA, pts)
        boundary = grid.points
        for i, z in enumerate(pts):
            kern = np.array([neumann_function(z, y, OMEGA) for y in boundary])
            ref = (2.0 * math.pi / grid.n_points) * (kern @ random_traces)
            assert np.max(np.abs(v[i] - ref)) / np.max(np.abs(ref)) < 1e-8

    def test_value_and_gradient_match_quadrature_in_every_radius_bin(
        self, grid, random_traces
    ):
        # The adjoint integrates the kernel against the traces' trigonometric
        # interpolant (orders up to N/2, the Nyquist order split evenly
        # between +N/2 and -N/2). The reference samples that interpolant on
        # M = 4N points by FFT zero-padding and takes the point quadrature of
        # neumann_function with weight 2 pi/M. That series stops at order 229
        # at 4 pi, below M - N/2 = 448, so no kernel order aliases onto one of
        # the interpolant's and the quadrature is the interpolant's integral:
        # the two agree to 1e-14 out to 0.87 and to 1e-12 (values) and 1e-10
        # (gradients) at 0.95. Radii: the centre and eight radii spread out to
        # the lattice clip radius 0.95.
        n, m = grid.n_points, 4 * grid.n_points
        spectrum = np.fft.fft(random_traces, axis=0)
        padded = np.zeros((m, random_traces.shape[1]), dtype=complex)
        padded[: n // 2] = spectrum[: n // 2]
        padded[m - n // 2 + 1 :] = spectrum[n // 2 + 1 :]
        padded[n // 2] = padded[m - n // 2] = 0.5 * spectrum[n // 2]
        interpolant = (m / n) * np.fft.ifft(padded, axis=0)
        angles = grid.angles[0] + 2.0 * math.pi * np.arange(m) / m
        fine = np.column_stack([np.cos(angles), np.sin(angles)])
        radii = (0.0, 0.1, 0.25, 0.4, 0.55, 0.68, 0.78, 0.87, 0.95)
        for i, r in enumerate(radii):
            z = r * np.array([math.cos(0.7 + 1.3 * i), math.sin(0.7 + 1.3 * i)])
            v, gv = adjoint_field_batch(random_traces, grid, OMEGA, z[None], gradient=True)
            v, gv = v[0], gv[0]
            pairs = [neumann_function(z, y, OMEGA, gradient=True) for y in fine]
            kern = np.array([val for val, _ in pairs])
            kern_grad = np.array([g for _, g in pairs])
            ref = (2.0 * math.pi / m) * (kern @ interpolant)
            ref_grad = (2.0 * math.pi / m) * (interpolant.T @ kern_grad)
            assert np.max(np.abs(v - ref)) / np.max(np.abs(ref)) < 1e-7, r
            assert np.max(np.abs(gv - ref_grad)) / np.max(np.abs(ref_grad)) < 1e-5, r

    def test_gradient_matches_finite_differences(self, grid, random_traces):
        rng = np.random.default_rng(11)
        step = 1e-5
        worst = 0.0
        for _ in range(20):
            z = rng.uniform(-0.65, 0.65, size=2)
            # z, then z +- step along x and along y
            stencil = z + step * np.array([[0, 0], [1, 0], [-1, 0], [0, 1], [0, -1]])
            v, gv = adjoint_field_batch(random_traces, grid, OMEGA, stencil, gradient=True)
            fd = np.stack([v[1] - v[2], v[3] - v[4]], axis=-1) / (2.0 * step)
            worst = max(worst, np.max(np.abs(gv[0] - fd)) / np.max(np.abs(gv[0])))
        assert worst < 1e-5

    def test_zero_data_gives_zero(self, grid):
        zero = np.zeros((grid.n_points, 2), dtype=complex)
        v, gv = adjoint_field_batch(zero, grid, OMEGA, np.array([[0.3, -0.1]]), gradient=True)
        assert np.all(v == 0.0)
        assert np.all(gv == 0.0)

    def test_linearity(self, grid, random_traces):
        rng = np.random.default_rng(13)
        other = rng.standard_normal(random_traces.shape) * 1j
        z = np.array([[0.12, 0.4]])
        v_sum = adjoint_field_batch(random_traces + other, grid, OMEGA, z)
        v_parts = adjoint_field_batch(random_traces, grid, OMEGA, z) + adjoint_field_batch(
            other, grid, OMEGA, z
        )
        assert np.max(np.abs(v_sum - v_parts)) < 1e-12 * np.max(np.abs(v_sum))

    def test_center_gradient_is_continuous(self, grid, random_traces):
        points = np.array([[0.0, 0.0], [1e-7, 0.0]])
        _, (g0, g1) = adjoint_field_batch(random_traces, grid, OMEGA, points, gradient=True)
        assert np.max(np.abs(g0 - g1)) / np.max(np.abs(g0)) < 1e-4

    def test_rim_points_rejected(self, grid, random_traces):
        with pytest.raises(GeometryError):
            adjoint_field_batch(random_traces, grid, OMEGA, np.array([[0.9999, 0.0]]))


class TestComponentMaps:
    def test_zero_dataset_gives_zero_maps(self, grid):
        incident = IncidentSet(standard_directions(4), np.array([OMEGA]))
        data = BoundaryDataset(
            np.zeros((grid.n_points, 4, 1), dtype=complex), grid, incident
        )
        lattice = make_lattice(24)
        eps_map, mu_map = td_component_maps(data, lattice)
        assert np.all(eps_map.values == 0.0)
        assert np.all(mu_map.values == 0.0)

    def test_real_scaling_scales_maps(self, grid, sigma1):
        curve, _ = sigma1
        incident = IncidentSet(standard_directions(4), np.array([OMEGA]))
        data = synthesize([ThinInclusion(curve)], incident, grid)
        scaled = BoundaryDataset(2.5 * data.traces, grid, incident)
        lattice = make_lattice(24)
        e1, m1 = td_component_maps(data, lattice)
        e2, m2 = td_component_maps(scaled, lattice)
        assert np.allclose(e2.values, 2.5 * e1.values, rtol=1e-12, atol=0.0)
        assert np.allclose(m2.values, 2.5 * m1.values, rtol=1e-12, atol=0.0)

    def test_real_sums_match_the_complex_formula(self, grid, sigma1):
        # Re sum_l v_l conj(u_l) and Re sum_l grad v_l . conj(grad u_l) from
        # the complex adjoint fields, u_l = e^{iw d_l.z}
        curve, _ = sigma1
        incident = IncidentSet(standard_directions(3), frequency_band(2))
        data = synthesize([ThinInclusion(curve)], incident, grid)
        lattice = make_lattice(40)
        for k, omega in enumerate(incident.omegas):
            v, gv = adjoint_field_batch(
                data.traces[:, :, k], grid, omega, lattice.points, gradient=True
            )
            u = np.exp(1j * omega * (lattice.points @ incident.directions.T))
            gu = (1j * omega) * u[:, :, None] * incident.directions[None, :, :]
            eps_map, mu_map = td_component_maps(data, lattice, k)
            for got, ref in (
                (eps_map.inside_values, np.sum(np.real(v * u.conj()), axis=1)),
                (mu_map.inside_values, np.sum(np.real(gv * gu.conj()), axis=(1, 2))),
            ):
                assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_frequency_index_checked(self, clean16):
        with pytest.raises(IndexError):
            td_component_maps(clean16, make_lattice(16), k_index=16)


class TestNormalizedMaps:
    def test_each_component_peaks_at_exactly_one(self, clean16):
        lattice = make_lattice(48)
        eps_map, mu_map = td_component_maps(clean16, lattice)
        for component in (eps_map, mu_map):
            scaled = component.inside_values / np.max(np.abs(component.inside_values))
            assert np.max(np.abs(scaled)) == 1.0

    def test_combination_bounded_by_one(self, clean16):
        emap = etd_single(clean16, make_lattice(48))
        assert np.max(np.abs(emap.values)) <= 1.0

    def test_dataset_scaling_leaves_map_invariant_up_to_sign(self, clean16):
        lattice = make_lattice(32)
        base = etd_single(clean16, lattice)
        scaled_data = BoundaryDataset(
            -3.7 * clean16.traces, clean16.grid, clean16.incident
        )
        flipped = etd_single(scaled_data, lattice)
        assert np.allclose(flipped.values, -base.values, rtol=1e-11, atol=1e-13)

    def test_zero_contrast_data_raises_flat(self, grid, sigma1):
        curve, _ = sigma1
        incident = IncidentSet(standard_directions(4), np.array([OMEGA]))
        data = synthesize(
            [ThinInclusion(curve, eps=1.0, mu=1.0)], incident, grid
        )
        with pytest.raises(FlatMapError):
            etd_single(data, make_lattice(16))

    def test_flat_component_raises_directly(self, clean16):
        lattice = make_lattice(16)
        eps_map, _ = td_component_maps(clean16, lattice)
        from thinimage.maps import from_point_values

        flat = from_point_values(lattice, np.zeros(lattice.points.shape[0]))
        with pytest.raises(FlatMapError):
            normalized_combination(eps_map, flat)


class TestMultiFrequency:
    def test_single_band_reduces_bitwise(self, grid, sigma1):
        curve, _ = sigma1
        incident = IncidentSet(standard_directions(4), np.array([OMEGA]))
        data = synthesize([ThinInclusion(curve)], incident, grid)
        lattice = make_lattice(32)
        assert np.array_equal(
            etd_multi(data, lattice).values, etd_single(data, lattice).values
        )

    def test_one_disk_modes_per_call(self, clean16, monkeypatch):
        # the lattice gets one mode series for the whole band
        built = []

        class Counted(forward.DiskModes):
            def __init__(self, omegas, points, orbits=None):
                built.append(np.size(omegas))
                super().__init__(omegas, points, orbits)

        monkeypatch.setattr(imaging, "DiskModes", Counted)
        etd_multi(clean16, make_lattice(32))
        assert built == [16]

    def test_direction_permutations_once_per_band(self, clean16, monkeypatch):
        # the band's DiskModes checks the data's set against the standard one
        # and works out its permutations once, on its first pair, not once
        # per frequency
        calls = []

        def counted(n_directions):
            calls.append(n_directions)
            return standard(n_directions)

        standard = forward.standard_directions
        monkeypatch.setattr(forward, "standard_directions", counted)
        etd_multi(clean16, make_lattice(32))
        assert calls == [16]

    def test_orbits_maps_match_the_points_alone(self, clean16, noisy15, monkeypatch):
        # the lattice's orbits against a DiskModes that ignores them, on clean
        # L16 data and on 15 dB data of 4, 8 and 16 directions; the raw maps
        # peak near 1e4, so they are compared relative to their peaks
        class Alone(forward.DiskModes):
            def __init__(self, omegas, points, orbits=None):
                super().__init__(omegas, points)

        cases = [("clean", clean16), *((f"15dB-L{n}", data) for n, data in noisy15.items())]
        for n in (65, 128):
            lattice = make_lattice(n)
            for name, data in cases:
                wedge = etd_multi(data, lattice).inside_values
                components = [td_component_maps(data, lattice, k) for k in (0, 15)]
                with monkeypatch.context() as patch:
                    patch.setattr(imaging, "DiskModes", Alone)
                    err = np.max(np.abs(etd_multi(data, lattice).inside_values - wedge))
                    assert err <= 1e-14, (n, name)
                    for k, maps in zip((0, 15), components):
                        for got, ref in zip(maps, td_component_maps(data, lattice, k)):
                            ref = ref.inside_values
                            err = np.max(np.abs(got.inside_values - ref))
                            assert err <= 1e-14 * np.max(np.abs(ref)), (n, name, k)

    def test_angular_tables_only_on_the_representatives(self, grid, clean16, monkeypatch):
        # the band builds one e^{in theta} table, over the 1,450
        # representatives of the 128^2 lattice's 11,428 nodes, and every
        # frequency reads it; one frequency on the whole lattice, as the
        # adjoint runs, keeps nothing and builds its rows one block at a time
        columns = []

        def counted(thetas, nmax, out=None):
            columns.append(thetas.size)
            return angular_table(thetas, nmax, out)

        angular_table = forward._angular_table
        monkeypatch.setattr(forward, "_angular_table", counted)
        lattice = make_lattice(128)
        etd_multi(clean16, lattice)
        assert columns == [1450]
        columns.clear()
        adjoint_field_batch(clean16.traces[:, :, 0], grid, clean16.incident.omegas[0], lattice.points)
        assert len(columns) > 1 and max(columns) <= forward._POINT_BLOCK

    @pytest.mark.parametrize(
        "n_directions, n, noisy",
        [
            pytest.param(
                n_directions,
                n,
                noisy,
                id=f"{n_directions}" + ("" if n == 128 else f"-{n}") + ("-15dB" if noisy else ""),
            )
            for noisy in (False, True)
            for n in (128, 65)
            for n_directions in ((4, 8, 16) if noisy else (16, 6, 4, 8, 12))
        ],
    )
    def test_pairing_matches_the_adjoint_fields(
        self, grid, sigma1, clean16, noisy15, monkeypatch, n_directions, n, noisy
    ):
        # td_component_maps and etd_multi on the 128^2 lattice (8 variants, 6
        # blocks) and the 65^2 one (nodes on the axes and the diagonals, where
        # variants coincide) against adjoint_field_batch paired with explicit
        # e^{iw d.z} of the data's own directions; the square's symmetries map
        # 16, 4, 8 and 12 standard directions onto themselves exactly, so
        # each orbit node pairs with its representative's waves, 6 not; at 12
        # (orbits of 4 and 8, none on a diagonal) the flip exchanges five pairs
        # of directions, at 4 one. The orbit pairing folds direction l + L/2
        # into l; clean data has tr_{l+L/2} = conj tr_l, so the 15 dB cases
        # are the ones that see each half on its own
        if noisy:
            data = noisy15[n_directions]
        elif n_directions == 16:
            data = clean16
        else:
            incident = IncidentSet(standard_directions(n_directions), frequency_band(16))
            data = synthesize([ThinInclusion(sigma1[0])], incident, grid)
        lattice = make_lattice(n)
        orbit_pairs = []
        pair_orbits = forward.DiskModes._pair_orbits

        def counted(modes, *args):
            orbit_pairs.append(args)
            return pair_orbits(modes, *args)

        monkeypatch.setattr(forward.DiskModes, "_pair_orbits", counted)
        directions = data.incident.directions
        acc = np.zeros(lattice.points.shape[0])
        for k, omega in enumerate(data.incident.omegas):
            v, gv = adjoint_field_batch(
                data.traces[:, :, k], grid, omega, lattice.points, gradient=True
            )
            u = np.exp(1j * omega * (lattice.points @ directions.T))
            gu = (1j * omega) * u[:, :, None] * directions[None, :, :]
            refs = np.sum(np.real(v * u.conj()), axis=1), np.sum(
                np.real(gv * gu.conj()), axis=(1, 2)
            )
            if k in (0, 15):
                for got, ref in zip(td_component_maps(data, lattice, k), refs):
                    err = np.max(np.abs(got.inside_values - ref))
                    assert err <= 1e-13 * np.max(np.abs(ref)), k
            acc += 0.5 * (refs[0] / np.max(np.abs(refs[0])) + refs[1] / np.max(np.abs(refs[1])))
        band = etd_multi(data, lattice).inside_values
        assert np.max(np.abs(band - acc / 16.0)) <= 1e-13 * np.max(np.abs(band))
        # 2 single maps and the band's 16 frequencies took the orbit path
        assert len(orbit_pairs) == (18 if n_directions % 4 == 0 else 0)

    def test_band_map_peak_memory(self, clean16):
        # tracemalloc peak of a second call on 128^2/L16 at 15 dB, the orbits
        # warm: 12.0 MB with a (P, 4L) field array and a (P, L) wave table
        # per frequency, 6.2 MB with each block reduced in place
        lattice = make_lattice(128)
        noisy = forward.add_awgn(clean16, 15.0, 8101)
        etd_multi(noisy, lattice)
        tracemalloc.start()
        try:
            etd_multi(noisy, lattice)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6, peak

    def test_band_map_is_the_mean_of_the_single_maps(self, clean16):
        # to roundoff, not bitwise: the band's J_n'(w) come from one Bessel
        # table, each single map's from its own (measured 6.7e-16 here and
        # 9.5e-16 on 128^2, on maps bounded by 1)
        lattice = make_lattice(32)
        acc = np.zeros(lattice.points.shape[0])
        for k in range(16):
            acc += etd_single(clean16, lattice, k).inside_values
        band = etd_multi(clean16, lattice).inside_values
        assert np.max(np.abs(band - acc / 16.0)) <= 4e-15

    def test_multi_map_bounded(self, multi_map):
        assert np.max(np.abs(multi_map.values)) <= 1.0

    def test_clean_localization(self, multi_map, sigma1):
        _, disc = sigma1
        assert top_quantile_distance(multi_map, disc) <= 0.1

    def test_sidelobe_minima_flank_the_curve(self, multi_map):
        # normal line through the curve midpoint (-0.2, 0.5) is vertical
        xs = np.linspace(-1.0, 1.0, multi_map.lattice.mask.shape[1])
        ys = np.linspace(-1.0, 1.0, multi_map.lattice.mask.shape[0])
        column = multi_map.values[:, int(np.argmin(np.abs(xs + 0.2)))]
        above = column[(ys > 0.5) & (ys <= 0.68)]
        below = column[(ys < 0.5) & (ys >= 0.32)]
        assert above.min() < 0.0
        assert below.min() < 0.0


class TestKernelModels:
    def test_single_frequency_matches_brute_force(self, sigma1):
        curve, disc = sigma1
        inclusion = ThinInclusion(curve)
        directions = standard_directions(8)
        lattice = make_lattice(16)
        eps_map, mu_map = single_frequency_kernel_maps(
            lattice, disc, inclusion, directions, OMEGA
        )
        # contrasts against the background eps = mu = 1
        alpha = 2.0 * (1.0 / inclusion.mu - 1.0)
        beta = 2.0 * (1.0 - inclusion.mu)
        rng = np.random.default_rng(5)
        for i in rng.choice(lattice.points.shape[0], 5, replace=False):
            z = lattice.points[i]
            eps_ref = 0.0
            mu_ref = 0.0
            for d in directions:
                phase = np.exp(1j * OMEGA * ((disc.nodes - z) @ d))
                eps_ref += np.real(
                    np.sum(disc.weights * (inclusion.eps - 1.0) * phase)
                )
                bracket = -alpha * (disc.tangents @ d) ** 2 - beta * (disc.normals @ d) ** 2
                mu_ref += np.real(np.sum(disc.weights * bracket * phase))
            assert abs(eps_map.inside_values[i] - eps_ref) < 1e-10 * max(1.0, abs(eps_ref))
            assert abs(mu_map.inside_values[i] - mu_ref) < 1e-10 * max(1.0, abs(mu_ref))

    def test_band_kernel_profile_peaks_at_origin(self):
        x = np.linspace(-4.0, 4.0, 4001)
        y = np.sinc(2.0 * x / np.pi) * np.cos(10.0 * x)
        assert y[2000] == 1.0
        assert np.argmax(y) == 2000

    def test_band_requires_increasing_edges(self, sigma1):
        curve, disc = sigma1
        lattice = make_lattice(8)
        with pytest.raises(ConfigError):
            band_kernel_maps(
                lattice, disc, ThinInclusion(curve), standard_directions(4), OMEGA, OMEGA
            )

    def test_radial_band_short_curve_limit(self):
        # a 0.02-long flat segment through the origin: the kernel is nearly
        # its value at zero separation, the band width times 2 pi
        seg = ParametricCurve(
            "segment",
            -0.01,
            0.01,
            fx=lambda s: np.asarray(s, dtype=float),
            fy=lambda s: np.zeros_like(np.asarray(s, dtype=float)),
            dfx=lambda s: np.ones_like(np.asarray(s, dtype=float)),
            dfy=lambda s: np.zeros_like(np.asarray(s, dtype=float)),
        )
        disc = discretize(seg, 50)
        inclusion = ThinInclusion(seg)
        lattice = make_lattice(17)
        lo, hi = frequency_band(16)[0], frequency_band(16)[-1]
        eps_map, _ = radial_band_maps(
            lattice, disc, inclusion, standard_directions(4), lo, hi
        )
        center = np.argmin(np.hypot(lattice.points[:, 0], lattice.points[:, 1]))
        length = float(np.sum(disc.weights))
        expected = 2.0 * math.pi * (inclusion.eps - 1.0) * length * (hi - lo)
        assert abs(eps_map.inside_values[center] - expected) < 0.05 * expected


class TestModelMaps:
    def band_maps(self, lattice, inclusion, incident, omega_lo, omega_hi):
        disc = discretize(inclusion.curve, imaging._MODEL_NODES)
        return band_kernel_maps(
            lattice, disc, inclusion, incident.directions, omega_lo, omega_hi
        )

    def test_two_inclusions_sum_bitwise(self):
        inclusions = [
            ThinInclusion(builtin_curve("sigma1")),
            ThinInclusion(builtin_curve("sigma2"), eps=10.0, mu=10.0),
        ]
        incident = IncidentSet(standard_directions(4), frequency_band(4))
        lattice = make_lattice(32)
        lo, hi = incident.omegas[0], incident.omegas[-1]
        parts = [self.band_maps(lattice, incl, incident, lo, hi) for incl in inclusions]
        maps = model_maps(lattice, inclusions, incident)
        for j in (0, 1):
            assert not np.array_equal(parts[0][j].values, parts[1][j].values)
            np.testing.assert_array_equal(maps[j].values, parts[0][j].values + parts[1][j].values)

    def test_one_frequency_images_a_widened_band(self, sigma1):
        inclusion = ThinInclusion(sigma1[0])
        incident = IncidentSet(standard_directions(4), [OMEGA])
        lattice = make_lattice(32)
        maps = model_maps(lattice, [inclusion], incident)
        ref = self.band_maps(lattice, inclusion, incident, OMEGA, OMEGA * (1.0 + 1e-6))
        for got, want in zip(maps, ref):
            np.testing.assert_array_equal(got.values, want.values)


class TestOracleConsistency:
    def test_direction_sum_approaches_bessel(self):
        from scipy.special import jv

        directions = standard_directions(64)
        rng = np.random.default_rng(3)
        pts = rng.uniform(-0.6, 0.6, size=(50, 2))
        arg = OMEGA * np.hypot(pts[:, 0], pts[:, 1])
        keep = arg <= 8.0
        lattice_sum = (2.0 * math.pi / 64) * np.sum(
            np.exp(1j * OMEGA * pts @ directions.T), axis=1
        )
        reference = 2.0 * math.pi * jv(0, arg)
        rel = np.abs(lattice_sum - reference) / np.max(np.abs(reference))
        assert np.max(rel[keep]) < 0.02

    def test_band_map_tracks_frequency_sum(self, sigma1):
        curve, _ = sigma1
        disc = discretize(curve, 150)
        inclusion = ThinInclusion(curve)
        directions = standard_directions(16)
        band = frequency_band(16)
        lattice = make_lattice(32)
        e1, _ = band_kernel_maps(lattice, disc, inclusion, directions, band[0], band[-1])
        acc = np.zeros(lattice.points.shape[0])
        for omega_k in band:
            ek, _ = single_frequency_kernel_maps(
                lattice, disc, inclusion, directions, omega_k
            )
            acc += ek.inside_values
        from thinimage.maps import from_point_values

        mean_map = from_point_values(lattice, acc / band.size)
        assert np.corrcoef(e1.inside_values, mean_map.inside_values)[0, 1] >= 0.9

    def test_radial_band_tracks_band_kernel(self, sigma1):
        curve, _ = sigma1
        disc = discretize(curve, 150)
        inclusion = ThinInclusion(curve)
        directions = standard_directions(64)
        band = frequency_band(16)
        lattice = make_lattice(32)
        e1, _ = band_kernel_maps(lattice, disc, inclusion, directions, band[0], band[-1])
        e3, _ = radial_band_maps(lattice, disc, inclusion, directions, band[0], band[-1])
        assert np.corrcoef(e3.inside_values, e1.inside_values)[0, 1] >= 0.9
