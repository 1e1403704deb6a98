"""Tests for ridge extraction, Chebyshev fitting, and discrepancy norms."""

import math

import numpy as np
import pytest

from thinimage.errors import ConfigError, FitError, RidgeError
from thinimage.forward import (
    BoundaryDataset,
    IncidentSet,
    frequency_band,
    standard_directions,
    synthesize,
)
from thinimage.geometry import (
    ThinInclusion,
    boundary_grid,
    builtin_curve,
    discretize,
    distance_to_curve,
)
from thinimage.imaging import band_kernel_maps, etd_multi
from thinimage.maps import ImageMap, make_lattice
from thinimage.postprocess import (
    ChebyshevCurve,
    _linear_quantile,
    chebyshev_fit,
    clustered_ridges,
    discrete_norms,
    extract_ridge,
    format_fit_report,
    initial_guesses,
)


def _dataset(traces, grid, incident):
    return BoundaryDataset(traces, grid, incident)


@pytest.fixture(scope="module")
def small_data():
    grid = boundary_grid(32)
    incident = IncidentSet(standard_directions(4), np.array([4.0 * math.pi]))
    rng = np.random.default_rng(5)
    traces = rng.normal(size=(32, 4, 1)) + 1j * rng.normal(size=(32, 4, 1))
    return _dataset(traces, grid, incident), grid, incident


class TestChebyshevCurve:
    def test_pure_second_order_recovered(self):
        a, b = -0.4, 0.6
        s = np.linspace(a, b, 40)
        u = (2.0 * s - a - b) / (b - a)
        fit = chebyshev_fit(np.column_stack([s, 2.0 * u**2 - 1.0]), degree=5)
        expected = np.zeros(6)
        expected[2] = 1.0
        assert np.allclose(fit.coeffs, expected, rtol=0.0, atol=1e-10)

    def test_derivative_matches_finite_differences(self):
        curve = ChebyshevCurve(-0.3, 0.8, np.array([0.2, -0.4, 0.3, 0.05, -0.1, 0.07]))
        s = np.linspace(-0.25, 0.75, 11)
        step = 1e-6
        fd = (curve.evaluate(s + step) - curve.evaluate(s - step)) / (2.0 * step)
        assert np.allclose(curve.derivative(s), fd, rtol=1e-7, atol=1e-7)

    def test_parametric_wrapper_consistent(self):
        curve = ChebyshevCurve(-0.5, 0.5, np.array([0.1, 0.2, -0.3]))
        onto = curve.as_parametric("guess")
        s = np.linspace(-0.5, 0.5, 7)
        pts = onto.points(s)
        assert np.allclose(pts[:, 0], s)
        assert np.allclose(pts[:, 1], curve.evaluate(s))
        vel = onto.velocity(s)
        assert np.allclose(vel[:, 0], 1.0)
        assert np.allclose(vel[:, 1], curve.derivative(s))
        assert onto.label == "guess"
        nodes = discretize(onto, 50).nodes
        assert nodes.shape[1] == 2 and nodes.shape[0] >= 50

    def test_validation(self):
        with pytest.raises(ConfigError):
            ChebyshevCurve(0.5, 0.5, np.array([1.0, 2.0]))
        with pytest.raises(ConfigError):
            ChebyshevCurve(0.0, 1.0, np.array([1.0]))
        with pytest.raises(ConfigError):
            ChebyshevCurve(0.0, 1.0, np.array([1.0, np.nan]))


class TestFit:
    def test_parabola_graph_fitted_exactly(self):
        # the first builtin curve is a degree-2 graph over x
        x = np.linspace(-0.7, 0.3, 30)
        y = -0.5 * (x + 0.2) ** 2 + 0.5
        fit = chebyshev_fit(np.column_stack([x, y]), degree=5)
        dense = np.linspace(-0.7, 0.3, 400)
        truth = -0.5 * (dense + 0.2) ** 2 + 0.5
        assert np.max(np.abs(fit.evaluate(dense) - truth)) <= 1e-8

    def test_idempotent(self):
        rng = np.random.default_rng(17)
        pts = np.column_stack([np.linspace(-0.6, 0.4, 25), rng.normal(size=25)])
        first = chebyshev_fit(pts, degree=5)
        s = np.linspace(first.a, first.b, 25)
        again = chebyshev_fit(np.column_stack([s, first.evaluate(s)]), degree=5)
        assert np.allclose(first.coeffs, again.coeffs, rtol=0.0, atol=1e-10)
        assert (first.a, first.b) == (again.a, again.b)

    def test_too_few_distinct_abscissae(self):
        x = np.repeat([-0.2, 0.0, 0.1, 0.3], 3)
        pts = np.column_stack([x, np.sin(x)])
        with pytest.raises(FitError, match="got 4$"):
            chebyshev_fit(pts, degree=5)
        # six distinct abscissae, -0.0 and 0.0 counted once, are enough for degree 5
        x = np.array([0.3, -0.0, 0.0, -0.2, 0.5, 0.3, 0.1, -0.4])
        chebyshev_fit(np.column_stack([x, np.cos(x)]), degree=5)
        with pytest.raises(FitError, match="got 6$"):
            chebyshev_fit(np.column_stack([x, np.cos(x)]), degree=6)
        with pytest.raises(FitError, match="got 0$"):
            chebyshev_fit(np.zeros((0, 2)), degree=2)

    def test_argument_validation(self):
        pts = np.column_stack([np.linspace(0, 1, 10), np.zeros(10)])
        with pytest.raises(ConfigError):
            chebyshev_fit(pts, degree=0)
        with pytest.raises(ConfigError):
            chebyshev_fit(np.zeros((4, 3)), degree=2)


class TestRidge:
    def test_single_bright_pixel(self):
        lattice = make_lattice(32)
        values = np.zeros(lattice.mask.shape)
        iy, ix = 14, 20
        assert lattice.mask[iy, ix]
        values[iy, ix] = 1.0
        ridge = extract_ridge(ImageMap(lattice, values), quantile=0.01)
        assert ridge.shape == (1, 2)
        assert ridge[0, 0] == lattice.axis[ix]
        assert ridge[0, 1] == lattice.axis[iy]

    def test_kernel_map_ridge_tracks_curve(self):
        curve = builtin_curve("sigma1")
        disc = discretize(curve, 200)
        incl = ThinInclusion(curve)
        # enough directions that the direction sum is converged; fewer leave
        # grating lobes that can outshine the ridge tail
        eps_map, _ = band_kernel_maps(
            make_lattice(64), disc, incl, standard_directions(64),
            4.0 * math.pi, 10.0 * math.pi,
        )
        ridge = extract_ridge(eps_map, quantile=0.01)
        assert np.max(distance_to_curve(ridge, disc)) <= 0.1

    def test_constant_map_rejected(self):
        lattice = make_lattice(16)
        values = np.where(lattice.mask, 1.0, 0.0)
        with pytest.raises(RidgeError):
            extract_ridge(ImageMap(lattice, values), quantile=0.01)

    def test_threshold_is_numpys_linear_quantile_bit_for_bit(self):
        # random arrays with ties, sizes from 1, and the fractions near 1 the
        # ridge uses, against np.quantile's default linear rule
        rng = np.random.default_rng(5)
        for trial in range(600):
            n = int(rng.integers(1, 12)) if trial % 2 else int(rng.integers(12, 3000))
            if trial % 3 == 0:
                values = rng.integers(-3, 4, n).astype(float)
            elif trial % 3 == 1:
                values = np.round(rng.normal(size=n), 2) * 10.0 ** int(rng.integers(-200, 200))
            else:
                values = rng.normal(size=n)
            for q in (0.99, 1.0 - 0.01, 0.5, 0.0, 0.999999, float(rng.random())):
                got, ref = _linear_quantile(values, q), float(np.quantile(values, q))
                assert got == ref and math.copysign(1.0, got) == math.copysign(1.0, ref), (n, q)

    def test_quantile_bounds(self):
        lattice = make_lattice(16)
        values = np.where(lattice.mask, np.random.default_rng(0).normal(size=lattice.mask.shape), 0.0)
        imap = ImageMap(lattice, values)
        for bad in (0.0, 1.0, -0.1, 2.0):
            with pytest.raises(ConfigError):
                extract_ridge(imap, quantile=bad)


class TestClusters:
    @staticmethod
    def _two_blob_map():
        lattice = make_lattice(32)
        values = np.zeros(lattice.mask.shape)
        values[8:11, 6:10] = 1.0
        values[20:23, 20:22] = 1.0
        values[~lattice.mask] = 0.0
        return ImageMap(lattice, values)

    def test_two_blobs_split_largest_first(self):
        ridges = clustered_ridges(self._two_blob_map(), quantile=0.05)
        assert len(ridges) == 2
        assert ridges[0].shape == (4, 2)
        assert ridges[1].shape == (2, 2)

    def test_min_points_filters_small_cluster(self):
        ridges = clustered_ridges(self._two_blob_map(), quantile=0.05, min_points=3)
        assert len(ridges) == 1
        assert ridges[0].shape == (4, 2)

    def test_clusters_cover_plain_ridge(self):
        # the global per-column maximum always belongs to some cluster and
        # wins that cluster's column too, so the union covers the plain ridge
        lattice = make_lattice(32)
        rng = np.random.default_rng(3)
        values = np.where(lattice.mask, rng.random(lattice.mask.shape), 0.0)
        imap = ImageMap(lattice, values)
        merged = {tuple(p) for p in np.vstack(clustered_ridges(imap, quantile=0.02))}
        plain = {tuple(p) for p in extract_ridge(imap, quantile=0.02)}
        assert plain <= merged


class TestInitialGuesses:
    @staticmethod
    def _graph_ridge_map(x_lo, x_hi):
        # 1 on the node nearest y = 0.3 - 0.2 x^2 in each column of [x_lo, x_hi]:
        # fewer nodes than the top 1% of the 128^2 lattice, so all are the ridge
        lattice = make_lattice(128)
        values = np.zeros(lattice.mask.shape)
        for ix in np.flatnonzero((lattice.axis >= x_lo) & (lattice.axis <= x_hi)):
            y = 0.3 - 0.2 * lattice.axis[ix] ** 2
            values[np.argmin(np.abs(lattice.axis - y)), ix] = 1.0
        return ImageMap(lattice, values)

    def test_one_curve_fits_the_clipped_ridge(self):
        imap = self._graph_ridge_map(-0.5, 0.93)
        (fit,) = initial_guesses(imap, 1, 5)
        ridge = extract_ridge(imap, quantile=0.01)
        kept = ridge[np.hypot(ridge[:, 0], ridge[:, 1]) <= 0.85]
        expected = chebyshev_fit(kept, 5)
        assert (fit.a, fit.b) == (expected.a, expected.b)
        assert np.array_equal(fit.coeffs, expected.coeffs)

    def test_ridge_points_past_the_clip_radius_are_dropped(self):
        imap = self._graph_ridge_map(-0.5, 0.93)
        ridge = extract_ridge(imap, quantile=0.01)
        radius = np.hypot(ridge[:, 0], ridge[:, 1])
        assert np.count_nonzero(radius > 0.85) >= 3
        (fit,) = initial_guesses(imap, 1, 5)
        assert fit.a == ridge[0, 0]
        assert fit.b == np.max(ridge[radius <= 0.85, 0]) < ridge[-1, 0]

    def test_clusters_fitted_largest_first_small_ones_dropped(self):
        lattice = make_lattice(64)
        values = np.zeros(lattice.mask.shape)
        values[40:42, 20:28] = 1.0  # 8 columns
        values[20, 36:41] = 1.0  # 5 columns
        values[30, 10:14] = 1.0  # 4 columns: under degree + 3 for degree 2
        imap = ImageMap(lattice, values)
        clusters = clustered_ridges(imap, quantile=0.01)
        assert [c.shape[0] for c in clusters] == [8, 5, 4]
        for n_curves, degree, n_fits in ((2, 1, 2), (3, 1, 3), (3, 2, 2)):
            fits = initial_guesses(imap, n_curves, degree)
            assert len(fits) == n_fits
            for fit, pts in zip(fits, clusters):
                expected = chebyshev_fit(pts, degree)
                assert (fit.a, fit.b) == (expected.a, expected.b)
                assert np.array_equal(fit.coeffs, expected.coeffs)

    def test_no_cluster_of_degree_plus_three_points_is_a_ridge_error(self):
        # two clusters of 4 thinned points each: degree 2 needs 5
        lattice = make_lattice(64)
        values = np.zeros(lattice.mask.shape)
        values[40, 20:24] = 1.0
        values[20, 36:40] = 1.0
        imap = ImageMap(lattice, values)
        assert [c.shape[0] for c in clustered_ridges(imap, quantile=0.01)] == [4, 4]
        assert len(initial_guesses(imap, 2, 1)) == 2
        with pytest.raises(RidgeError, match="5 points"):
            initial_guesses(imap, 2, 2)


class TestNorms:
    def test_identical_datasets_give_exact_zero(self, small_data):
        data, _, _ = small_data
        report = discrete_norms(data, data)
        assert (report.n1, report.n2, report.n_inf) == (0.0, 0.0, 0.0)

    def test_single_unit_entry(self, small_data):
        _, grid, incident = small_data
        zero = _dataset(np.zeros((32, 4, 1), dtype=complex), grid, incident)
        bumped = np.zeros((32, 4, 1), dtype=complex)
        bumped[7, 2, 0] = 1j
        report = discrete_norms(zero, _dataset(bumped, grid, incident))
        assert report.n1 == report.n2 == report.n_inf == 0.25

    def test_norm_ordering(self, small_data):
        data, grid, incident = small_data
        rng = np.random.default_rng(11)
        other = rng.normal(size=(32, 4, 1)) + 1j * rng.normal(size=(32, 4, 1))
        report = discrete_norms(data, _dataset(other, grid, incident))
        assert report.n2 <= report.n1
        assert report.n_inf <= 32 * report.n1
        assert report.omega == 4.0 * math.pi

    def test_mismatches_rejected(self, small_data):
        data, grid, incident = small_data
        coarse = boundary_grid(16)
        with pytest.raises(ConfigError):
            discrete_norms(
                data,
                _dataset(np.zeros((16, 4, 1), dtype=complex), coarse, incident),
            )
        other_inc = IncidentSet(standard_directions(8), np.array([4.0 * math.pi]))
        with pytest.raises(ConfigError):
            discrete_norms(
                data,
                _dataset(np.zeros((32, 8, 1), dtype=complex), grid, other_inc),
            )
        with pytest.raises(IndexError):
            discrete_norms(data, data, k_index=1)


class TestEndToEnd:
    def test_clean_multifrequency_fit_tracks_curve(self):
        curve = builtin_curve("sigma1")
        incident = IncidentSet(standard_directions(16), frequency_band(16))
        data = synthesize([ThinInclusion(curve)], incident, boundary_grid(128))
        imap = etd_multi(data, make_lattice(128))
        fit = chebyshev_fit(extract_ridge(imap, quantile=0.01), degree=5)
        s = np.linspace(fit.a, fit.b, 200)
        pts = np.column_stack([s, fit.evaluate(s)])
        rms = float(np.sqrt(np.mean(distance_to_curve(pts, discretize(curve, 400)) ** 2)))
        assert rms <= 0.05


class TestReport:
    def test_table_layout(self):
        curve = ChebyshevCurve(-0.7, 0.3, np.array([0.29, -0.16, -0.2, 0.0, 0.0, 0.0]))
        from thinimage.postprocess import DiscrepancyReport

        report = DiscrepancyReport(n1=0.1, n2=0.15, n_inf=0.7, omega=4.0 * math.pi)
        text = format_fit_report([("first", curve, report), ("second", curve, None)])
        lines = text.strip().split("\n")
        assert len(lines) == 3
        assert "c5" in lines[0] and "Ninf" in lines[0]
        assert "first" in lines[1] and "0.7000" in lines[1]
        with pytest.raises(ConfigError):
            format_fit_report([])
