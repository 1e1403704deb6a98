"""Tests for incident fields, the disk Neumann kernel, and data synthesis."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy import special as sp

from thinimage import forward
from thinimage.errors import (
    ConfigError,
    DataStateError,
    GeometryError,
    ResonanceError,
)
from thinimage.forward import (
    BoundaryDataset,
    DiskModes,
    IncidentSet,
    _angular_table,
    add_awgn,
    band_resonance_orders,
    bessel_j_table,
    boundary_kernel_gradients,
    boundary_kernel_tables,
    frequency_band,
    jnp_values,
    load_dataset,
    save_dataset,
    standard_directions,
    synthesize,
)
from thinimage.geometry import ThinInclusion, boundary_grid, builtin_curve, discretize
from thinimage.maps import make_lattice

from kernel_reference import neumann_function, plane_waves

OMEGA_LO = 2.0 * math.pi / 0.5
OMEGA_HI = 2.0 * math.pi / 0.2
# First positive zero of J_1'; the disk's lowest Neumann eigenvalue frequency.
J1P_FIRST_ZERO = 1.8411837813406593


class TestIncident:
    def test_standard_directions_l4(self):
        d = standard_directions(4)
        expected = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        assert np.array_equal(d, expected)

    def test_directions_are_unit(self):
        d = standard_directions(7)
        assert np.allclose(np.hypot(d[:, 0], d[:, 1]), 1.0, atol=1e-15)

    def test_frequency_band_endpoints(self):
        w = frequency_band(16)
        assert w[0] == pytest.approx(OMEGA_LO, rel=1e-15)
        assert w[-1] == pytest.approx(OMEGA_HI, rel=1e-15)
        assert np.all(np.diff(w) > 0)

    def test_single_frequency_is_low_edge(self):
        w = frequency_band(1)
        assert w.shape == (1,)
        assert w[0] == 2.0 * math.pi / 0.5
        assert frequency_band(1, 0.3, 0.3)[0] == 2.0 * math.pi / 0.3

    def test_equal_wavelengths_need_one_frequency(self):
        message = "4 frequencies need lambda_min < lambda_max, got both 0.3"
        with pytest.raises(ConfigError, match=re.escape(message)):
            frequency_band(4, 0.3, 0.3)

    def test_non_unit_direction_rejected(self):
        with pytest.raises(ConfigError):
            IncidentSet(np.array([[1.0, 1.0]]), np.array([OMEGA_LO]))
        # a NaN norm compares false with the unit tolerance, so finiteness is checked apart
        with pytest.raises(ConfigError, match="finite"):
            IncidentSet(np.array([[np.nan, 0.0], [1.0, 0.0]]), np.array([OMEGA_LO]))

    def test_decreasing_omegas_rejected(self):
        with pytest.raises(ConfigError):
            IncidentSet(standard_directions(2), np.array([10.0, 9.0]))


class TestResonance:
    def test_first_neumann_eigenfrequency_flagged(self):
        hits = band_resonance_orders(J1P_FIRST_ZERO)[0]
        assert any(n == 1 for n, _ in hits)

    def test_ensure_raises_with_order_named(self):
        with pytest.raises(ResonanceError, match="n=1"):
            DiskModes(J1P_FIRST_ZERO, np.array([[0.1, 0.2]]))

    def test_band_frequencies_all_clear(self):
        assert band_resonance_orders(frequency_band(16)) == [[]] * 16

    def test_clean_frequency_passes(self):
        assert band_resonance_orders(OMEGA_LO)[0] == []

    def test_bad_omega_rejected(self):
        with pytest.raises(ConfigError):
            band_resonance_orders(-1.0)

    def test_band_jnp_table_matches_library(self):
        # one Miller table for the default band against scipy's jvp, up to
        # the orders a 128^2 lattice sums: within 1e-12 relative below each
        # frequency's floor cut (4.3e-13 measured), with the same cut orders
        omegas = frequency_band(16)
        jnp, cuts = jnp_values(bessel_j_table(501, omegas))
        for k, omega in enumerate(omegas):
            ref = sp.jvp(np.arange(501), omega)
            assert cuts[k] == np.argmax(np.abs(ref) < forward._JNP_FLOOR) - 1, k
            kept = slice(0, cuts[k] + 1)
            assert np.max(np.abs(jnp[kept, k] / ref[kept] - 1.0)) < 1e-12, k

    @pytest.mark.parametrize("order", [1, 3])
    def test_band_on_an_eigenvalue_refused(self, order):
        # j'_{1,1} below the band's low edge, j'_{3,1} inside the band
        root = float(sp.jnp_zeros(order, 1)[0])
        omegas = np.sort([root, OMEGA_LO, OMEGA_HI])
        hits = band_resonance_orders(omegas)
        assert [bool(h) for h in hits] == list(omegas == root)
        assert [n for n, _ in hits[int(np.flatnonzero(omegas == root)[0])]] == [order]
        with pytest.raises(ResonanceError, match=f"n={order} "):
            DiskModes(root, np.array([[0.1, 0.2]]))
        with pytest.raises(ResonanceError, match=f"n={order} "):
            DiskModes(omegas, np.array([[0.1, 0.2]]))


class TestBesselTable:
    def test_matches_library_both_band_edges(self):
        rng = np.random.default_rng(11)
        for omega in (OMEGA_LO, OMEGA_HI):
            x = omega * np.concatenate([[0.0, 1e-7, 0.004], rng.uniform(0.01, 0.999, 30)])
            tab = bessel_j_table(100, x)
            ref = sp.jv(np.arange(101)[:, None], x[None, :])
            mixed = np.abs(tab - ref) / (np.abs(ref) + 1.0)
            assert np.max(mixed) < 1e-12

    @pytest.mark.parametrize("omega", [OMEGA_LO, OMEGA_HI])
    @pytest.mark.parametrize("nmax", [130, 143])
    def test_relative_accuracy_across_rescales(self, omega, nmax):
        # the small arguments pass 1e250 and are rescaled 9-13 times per
        # table, mostly after rows are stored; a mixed absolute bound would
        # not see a mis-scaled row below 1e-12
        x = omega * np.array([1e-7, 0.004, 0.0229, 0.5, 0.95])
        tab = bessel_j_table(nmax, x)
        ref = sp.jv(np.arange(nmax + 1)[:, None], x[None, :])
        keep = np.abs(ref) > 1e-250
        rel = np.abs(tab[keep] - ref[keep]) / np.abs(ref[keep])
        assert np.max(rel) < 1e-11

    def test_tiny_positive_arguments(self):
        # one step by 2n/x > 1e58 can overflow a rescaled column, so these
        # arguments take the leading series term (x/2)^n/n!
        x = np.array([1e-60, 1e-100, 1e-300, 1e-50])
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            tab = bessel_j_table(40, x)
        assert np.all(np.isfinite(tab))
        ref = sp.jv(np.arange(41)[:, None], x[None, :])
        keep = np.abs(ref) > 1e-250
        assert np.all(tab[0] == 1.0)
        assert np.max(np.abs(tab[keep] - ref[keep]) / np.abs(ref[keep])) < 1e-13
        assert np.max(np.abs(tab[~keep])) <= 1e-250

    def test_relative_accuracy_at_tiny_magnitudes(self):
        x = np.array([OMEGA_LO * 0.3])
        tab = bessel_j_table(80, x)
        ref = sp.jv(np.arange(81), x[0])
        keep = np.abs(ref) > 1e-250
        rel = np.abs(tab[keep, 0] - ref[keep]) / np.abs(ref[keep])
        assert np.max(rel) < 1e-11

    def test_arguments_beyond_the_top_order(self):
        # Miller's recurrence must start above the argument as well as above
        # nmax; starting above nmax alone gave errors of 0.38 and 0.99 here.
        for nmax, x in ((10, 50.0), (5, 200.0)):
            tab = bessel_j_table(nmax, np.array([x]))
            ref = sp.jv(np.arange(nmax + 1), x)
            assert np.max(np.abs(tab[:, 0] - ref)) < 1e-13

    def test_zero_argument(self):
        tab = bessel_j_table(5, np.array([0.0]))
        assert tab[0, 0] == 1.0
        assert np.all(tab[1:, 0] == 0.0)

    def test_negative_argument_rejected(self):
        with pytest.raises(ValueError):
            bessel_j_table(10, np.array([-1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_argument_rejected(self, bad):
        # the check must come before the recurrence's start order, which
        # math.ceil cannot take from a NaN or an infinite argument
        with pytest.raises(ValueError, match="finite x >= 0"):
            bessel_j_table(3, np.array([1.0, bad]))


def random_disk_points(rng, count, radius):
    pts = []
    while len(pts) < count:
        p = rng.uniform(-radius, radius, 2)
        if np.hypot(*p) <= radius:
            pts.append(p)
    return np.array(pts)


class TestNeumannFunction:
    def test_reciprocity(self):
        rng = np.random.default_rng(3)
        pts = random_disk_points(rng, 20, 0.8)
        worst = 0.0
        for i in range(10):
            x, y = pts[2 * i], pts[2 * i + 1]
            if np.hypot(*(x - y)) < 1e-3:
                continue
            a = neumann_function(x, y, OMEGA_LO)
            b = neumann_function(y, x, OMEGA_LO)
            worst = max(worst, abs(a - b))
        assert worst < 1e-10

    def test_value_is_real_up_to_truncation(self):
        # The exact kernel is real for real frequencies; the imaginary part
        # measures the series truncation and must sit at round-off.
        rng = np.random.default_rng(4)
        pts = random_disk_points(rng, 12, 0.85)
        for i in range(6):
            x, y = pts[2 * i], pts[2 * i + 1]
            if np.hypot(*(x - y)) < 1e-3:
                continue
            v = neumann_function(x, y, OMEGA_HI)
            assert abs(v.imag) < 1e-9

    def test_boundary_condition(self):
        # Central difference across |x| = 1 probes the normal derivative.
        y = np.array([0.25, -0.35])
        step = 1e-5
        for th in np.linspace(0.0, 2.0 * math.pi, 9)[:-1]:
            xhat = np.array([math.cos(th), math.sin(th)])
            vp = neumann_function((1.0 + step) * xhat, y, OMEGA_LO)
            vm = neumann_function((1.0 - step) * xhat, y, OMEGA_LO)
            assert abs((vp - vm) / (2.0 * step)) < 1e-6

    def test_log_singularity_scaling(self):
        # N(x, y) + log|x-y|/(2 pi) stays bounded as y -> x, so consecutive
        # distance decades must differ by log(10)/(2 pi) in the kernel value.
        x = np.array([0.2, 0.1])
        e = np.array([1.0, 0.0])
        vals = [neumann_function(x, x + d * e, OMEGA_LO).real for d in (1e-3, 1e-4, 1e-5)]
        expected_jump = math.log(10.0) / (2.0 * math.pi)
        assert vals[0] - vals[1] == pytest.approx(-expected_jump, rel=1e-2)
        assert vals[1] - vals[2] == pytest.approx(-expected_jump, rel=1e-2)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        step = 1e-6
        for _ in range(5):
            x = random_disk_points(rng, 1, 0.8)[0]
            y = random_disk_points(rng, 1, 0.8)[0]
            if np.hypot(*(x - y)) < 5e-2:
                continue
            _, g = neumann_function(x, y, OMEGA_LO, gradient=True)
            for i in range(2):
                e = np.zeros(2)
                e[i] = step
                fd = (
                    neumann_function(x + e, y, OMEGA_LO) - neumann_function(x - e, y, OMEGA_LO)
                ) / (2.0 * step)
                assert abs(g[i] - fd) < 1e-7 * max(1.0, abs(fd))

    def test_gradient_at_center(self):
        y = np.array([-0.4, 0.52])
        step = 1e-6
        _, g = neumann_function(np.zeros(2), y, OMEGA_LO, gradient=True)
        for i in range(2):
            e = np.zeros(2)
            e[i] = step
            fd = (neumann_function(e, y, OMEGA_LO) - neumann_function(-e, y, OMEGA_LO)) / (
                2.0 * step
            )
            assert abs(g[i] - fd) < 1e-8

    def test_diagonal_raises(self):
        x = np.array([0.1, 0.2])
        with pytest.raises(ValueError, match="diagonal"):
            neumann_function(x, x, OMEGA_LO)

    def test_outside_disk_raises(self):
        with pytest.raises(GeometryError):
            neumann_function(np.array([1.2, 0.0]), np.array([0.1, 0.0]), OMEGA_LO)

    def test_resonant_frequency_raises(self):
        with pytest.raises(ResonanceError):
            neumann_function(np.array([0.3, 0.0]), np.array([0.0, 0.2]), J1P_FIRST_ZERO)


class TestBoundaryKernel:
    def test_matches_general_evaluator(self):
        angles = np.array([0.4, 1.9, 3.7, 5.6])
        pts = np.array([[0.3, -0.41], [0.0, 0.0], [0.66, 0.58], [-0.72, 0.05]])
        kern, gx, gy = boundary_kernel_gradients(OMEGA_HI, pts, angles)
        for i, p in enumerate(pts):
            for j, a in enumerate(angles):
                yb = np.array([math.cos(a), math.sin(a)])
                v, g = neumann_function(p, yb, OMEGA_HI, gradient=True)
                assert kern[i, j] == pytest.approx(v.real, abs=1e-11)
                assert gx[i, j] == pytest.approx(g[0].real, abs=1e-9)
                assert gy[i, j] == pytest.approx(g[1].real, abs=1e-9)

    def test_gradient_shapes_and_center_row(self):
        angles = boundary_grid(32).angles
        pts = np.array([[0.0, 0.0], [0.5, 0.1]])
        kern, gx, gy = boundary_kernel_gradients(OMEGA_LO, pts, angles)
        assert kern.shape == gx.shape == gy.shape == (2, 32)
        # Center-row gradient follows the analytic n = 1 limit: proportional
        # to the boundary point's direction vector.
        ratio = gx[0] / np.cos(angles)
        assert np.allclose(ratio, ratio[0], rtol=1e-10)

    def test_points_near_rim_rejected(self):
        with pytest.raises(GeometryError):
            boundary_kernel_tables(OMEGA_LO, np.array([[1.0, 0.0]]), np.array([0.0]))


class TestDiskModes:
    def test_apply_matches_library_series_in_every_radius_bin(self):
        # Re sum_n a_n J_n(w r) e^{in theta}, a_n = eps_n c_n/(2 pi w J_n'(w)),
        # and its gradient from jv/jvp in radial and (1/r) angular parts, every
        # point summed to nmax; the centre uses the limit of n J_n(w r)/r
        # (w/2 at n = 1).
        rng = np.random.default_rng(23)
        radii = np.array([0.0, 0.1, 0.25, 0.4, 0.55, 0.7, 0.8, 0.87, 0.95])
        thetas = rng.uniform(-math.pi, math.pi, radii.size)
        pts = radii[:, None] * np.column_stack([np.cos(thetas), np.sin(thetas)])
        modes = DiskModes(OMEGA_HI, pts)
        shape = (modes.nmax[0] + 1, 3)
        c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        fields = modes.apply(c, gradient=True)
        refs = np.zeros((3, radii.size, 3))
        n = np.arange(modes.nmax[0] + 1)
        eps = np.where(n == 0, 1.0, 2.0)
        for i, (r, t) in enumerate(zip(radii, thetas)):
            terms = (eps / (2.0 * math.pi * OMEGA_HI * sp.jvp(n, OMEGA_HI)))[:, None] * c[n]
            terms *= np.exp(1j * n * t)[:, None]
            angular = n * sp.jv(n, OMEGA_HI * r) / r if r > 0 else np.where(n == 1, OMEGA_HI / 2, 0)
            d_r = np.real(OMEGA_HI * sp.jvp(n, OMEGA_HI * r) @ terms)
            d_t = np.real(1j * angular @ terms)
            refs[:, i] = [
                np.real(sp.jv(n, OMEGA_HI * r) @ terms),
                math.cos(t) * d_r - math.sin(t) * d_t,
                math.sin(t) * d_r + math.cos(t) * d_t,
            ]
        for got, ref in zip(fields, refs):
            assert np.max(np.abs(got - ref)) < 1e-12 * np.max(np.abs(ref))

    def test_rows_of_c_set_the_order(self):
        # apply(c[:m+1]) is apply of c with its rows past m set to zero
        rng = np.random.default_rng(31)
        radii = np.array([0.0, 0.1, 0.25, 0.4, 0.55, 0.7, 0.8, 0.87, 0.95])
        thetas = rng.uniform(-math.pi, math.pi, radii.size)
        pts = radii[:, None] * np.column_stack([np.cos(thetas), np.sin(thetas)])
        modes = DiskModes(OMEGA_HI, pts)
        shape = (modes.nmax[0] + 1, 3)
        c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for m in (20, 64):
            zeroed = c.copy()
            zeroed[m + 1 :] = 0.0
            for gradient in (False, True):
                got = np.atleast_3d(modes.apply(c[: m + 1], gradient))
                ref = np.atleast_3d(modes.apply(zeroed, gradient))
                assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref)), (m, gradient)

    def test_rows_come_back_in_the_input_order(self):
        # a shuffled point set gives the same rows, shuffled, bit for bit; the
        # 128^2 lattice spans several point blocks
        rng = np.random.default_rng(37)
        c = rng.standard_normal((65, 4)) + 1j * rng.standard_normal((65, 4))
        for points in (make_lattice(40).points, make_lattice(128).points):
            shuffle = rng.permutation(points.shape[0])
            modes = DiskModes(OMEGA_HI, points)
            shuffled = DiskModes(OMEGA_HI, points[shuffle])
            for gradient in (False, True):
                ref = np.atleast_3d(modes.apply(c, gradient))
                got = np.atleast_3d(shuffled.apply(c, gradient))
                assert np.array_equal(got, ref[:, shuffle] if gradient else ref[shuffle])

    def test_directional_derivative_combines_the_gradient(self):
        # pair against the points' apply(gradient=True) contracted by hand,
        # on the 128^2 lattice (8 variants, 6 blocks) with its orbits and
        # without: the values against the waves' (Re, Im) pairs and the
        # derivative of columns 2l and 2l+1 along directions[l] against the
        # pairs of i u; the square's symmetries map the standard 4 directions
        # onto themselves (each orbit row against its representative's
        # waves), 3 not
        rng = np.random.default_rng(41)
        lattice = make_lattice(128)
        points = DiskModes(OMEGA_HI, lattice.points)
        for n_directions in (3, 4):
            directions = standard_directions(n_directions)
            waves = plane_waves(lattice, OMEGA_HI, directions)
            columns = np.repeat(directions, 2, axis=0)
            for orbits in (None, lattice.orbits):
                modes = DiskModes(OMEGA_HI, lattice.points, orbits)
                shape = (modes.nmax[0] + 1, 2 * n_directions)
                c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                eps, mu = modes.pair(c, directions, lattice.wave_factors(OMEGA_HI, directions))
                v, gx, gy = points.apply(c, gradient=True)
                along = columns[:, 0] * gx + columns[:, 1] * gy
                for got, ref in (
                    (eps, np.sum(v * waves.view(float), axis=1)),
                    (mu, np.sum(along * (1j * waves).view(float), axis=1)),
                ):
                    err = np.max(np.abs(got - ref))
                    assert err <= 1e-13 * np.max(np.abs(ref)), (n_directions, orbits is None)
                # the waves as one (P, L) table give the lattice's factors' bits
                table = modes.pair(c, directions, [(waves, np.arange(waves.shape[0]))])
                assert np.array_equal(table, (eps, mu))

    def test_transpose_dot_product_identity(self):
        # sum_x [s f + s_x d_x f + s_y d_y f] = (1/2) sum_n (c_n p_n + conj(c_n) q_n)
        # per column, with (f, d_x f, d_y f) from apply and (p, q) from transpose;
        # the points reach the centre and r = 0.95
        rng = np.random.default_rng(43)
        radii = np.concatenate([[0.0, 0.95], rng.uniform(0.0, 0.95, 60)])
        thetas = rng.uniform(-math.pi, math.pi, radii.size)
        pts = radii[:, None] * np.column_stack([np.cos(thetas), np.sin(thetas)])
        modes = DiskModes(OMEGA_HI, pts)

        def rand(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        c = rand(modes.nmax[0] + 1, 5)
        sources = rand(radii.size, 5), rand(radii.size, 5), rand(radii.size, 5)
        lhs = sum(np.sum(src * f, axis=0) for src, f in zip(sources, modes.apply(c, gradient=True)))
        [(p, q)] = modes.transpose([sources])
        rhs = 0.5 * np.sum(c * p + c.conj() * q, axis=0)
        assert np.max(np.abs(lhs - rhs)) <= 1e-13 * np.max(np.abs(lhs))

    def test_band_gives_what_each_frequency_gives_alone(self):
        # every frequency of a 16-frequency band against a DiskModes of that
        # frequency alone: the same order, and apply (value, gradient), pair
        # and transpose within 2e-13 of their peaks,
        # not bitwise: the band's J_n'(w) comes from one Bessel table whose
        # recurrence starts above the band's top order, and the weights
        # 1/J_n'(w) differ from a one-frequency table's by up to 8.1e-14
        # relative (measured 7.9e-14 on apply and 8.1e-14 on transpose)
        rng = np.random.default_rng(47)
        radii = np.concatenate([[0.0, 0.95], rng.uniform(0.0, 0.95, 60)])
        thetas = rng.uniform(-math.pi, math.pi, radii.size)
        pts = radii[:, None] * np.column_stack([np.cos(thetas), np.sin(thetas)])
        omegas = frequency_band(16)
        band = DiskModes(omegas, pts)

        def rand(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        sources = [tuple(rand(radii.size, 3) for _ in range(3)) for _ in omegas]
        directions = standard_directions(2)
        waves = [(rand(radii.size, 2), np.arange(radii.size))]
        pairs = list(band.transpose(sources))
        assert len(pairs) == omegas.size
        for k, omega in enumerate(omegas):
            alone = DiskModes(omega, pts)
            assert band.nmax[k] == alone.nmax[0]
            c = rand(alone.nmax[0] + 1, 4)
            for kw in ({}, {"gradient": True}):
                got = np.atleast_3d(band.apply(c, k=k, **kw))
                want = np.atleast_3d(alone.apply(c, **kw))
                assert np.max(np.abs(got - want)) <= 2e-13 * np.max(np.abs(want)), (k, kw)
            got, want = band.pair(c, directions, waves, k=k), alone.pair(c, directions, waves)
            for got, want in zip(got, want):
                assert np.max(np.abs(got - want)) <= 2e-13 * np.max(np.abs(want)), k
            [ref] = alone.transpose([sources[k]])
            for got, want in zip(pairs[k], ref):
                assert np.max(np.abs(got - want)) <= 2e-13 * np.max(np.abs(want)), k

    @pytest.mark.parametrize("n", [65, 128])
    def test_orbits_give_what_the_points_give_alone(self, n):
        # pair on the lattice's orbits against every node its own
        # representative, on the adjoint's coefficient rows (N/2 + 1 = 65);
        # image nodes take the representative's coordinates, which differ
        # from theirs by an ulp; on the standard 4 directions each orbit row
        # pairs with its representative's waves, on 3 with its own node's
        rng = np.random.default_rng(53)
        lattice = make_lattice(n)
        omegas = frequency_band(16)[[0, 15]]
        wedge = DiskModes(omegas, lattice.points, lattice.orbits)
        alone = DiskModes(omegas, lattice.points)
        assert wedge.nmax == alone.nmax
        for n_directions in (3, 4):
            shape = (65, 2 * n_directions)
            c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            directions = standard_directions(n_directions)
            for k in (0, 1):
                waves = lattice.wave_factors(omegas[k], directions)
                got = wedge.pair(c, directions, waves, k=k)
                ref = alone.pair(c, directions, waves, k=k)
                for got, ref in zip(got, ref):
                    err = np.max(np.abs(got - ref))
                    assert err <= 1e-14 * np.max(np.abs(ref)), (n_directions, k)

    @pytest.mark.parametrize("n_directions", [1, 2, 3, 4, 6, 8, 12, 16, 64, 256])
    def test_closed_directions(self, n_directions):
        # with 4 | L the square's quarter turn and flip map the standard set
        # onto itself exactly, each direction within rounding of its cos and
        # sin, and pair reads the orbit rows from their representatives'
        # waves; other L take cos and sin bit for bit, and neither they nor a
        # set turned off the square's axes take the orbit path
        modes = DiskModes(OMEGA_HI, make_lattice(32).points, make_lattice(32).orbits)
        directions = standard_directions(n_directions)
        angles = 2.0 * math.pi * np.arange(n_directions) / n_directions
        reference = np.column_stack([np.cos(angles), np.sin(angles)])
        c, s = math.cos(0.1), math.sin(0.1)
        assert modes._wave_orders(directions @ np.array([[c, s], [-s, c]])) is None
        if n_directions % 4:
            assert directions.tobytes() == reference.tobytes()
            assert modes._wave_orders(directions) is None
            return
        quarter = n_directions // 4
        turned = directions[:, ::-1] * [-1.0, 1.0]  # (x, y) -> (-y, x)
        assert np.array_equal(turned, np.roll(directions, -quarter, axis=0))
        flipped = directions * [1.0, -1.0]
        assert np.array_equal(flipped, directions[-np.arange(n_directions) % n_directions])
        assert np.max(np.abs(directions - reference)) <= 1e-15
        assert modes._wave_orders(directions) is not None

    def test_pair_sums_come_back_in_the_input_order(self):
        # a shuffled point set, its waves shuffled with it, gives the same
        # sums, shuffled, bit for bit; the 128^2 lattice spans several blocks
        rng = np.random.default_rng(59)
        c = rng.standard_normal((65, 4)) + 1j * rng.standard_normal((65, 4))
        directions = standard_directions(2)
        for points in (make_lattice(40).points, make_lattice(128).points):
            shuffle = rng.permutation(points.shape[0])
            table = np.exp(1j * rng.uniform(-math.pi, math.pi, (points.shape[0], 2)))
            modes = DiskModes(OMEGA_HI, points)
            shuffled = DiskModes(OMEGA_HI, points[shuffle])
            ref = modes.pair(c, directions, [(table, np.arange(points.shape[0]))])
            got = shuffled.pair(c, directions, [(table, shuffle)])
            assert np.array_equal(got, np.stack(ref)[:, shuffle])

    @pytest.mark.parametrize("method", ["apply", "transpose"])
    def test_refuses_orbits(self, method):
        lattice = make_lattice(40)
        modes = DiskModes(OMEGA_HI, lattice.points, lattice.orbits)
        ones = np.ones((lattice.points.shape[0], 1), dtype=complex)
        refusal = f"{method} needs every point as its own representative"
        with pytest.raises(ValueError, match=refusal):
            if method == "apply":
                modes.apply(np.ones((modes.nmax[0] + 1, 1), dtype=complex))
            else:
                next(modes.transpose([(ones, ones, ones)]))

    def test_apply_allocates_little_beyond_its_result(self):
        # the adjoint's gradient call on the 128^2 lattice at the band's top
        # frequency: each block's product is written straight into the result,
        # so beside it the peak holds only the Bessel table, one block's tables
        # and the right-hand sides (2.02x the result when every row was copied
        # into a second array, 1.64x without)
        modes = DiskModes(frequency_band(16)[-1], make_lattice(128).points)
        c = np.ones((65, 32), dtype=complex)
        tracemalloc.start()
        try:
            fields = modes.apply(c, gradient=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.8 * sum(f.nbytes for f in fields), peak

    def test_angular_table_matches_exponentials(self):
        # exp(1j n theta) itself carries about 1e-13 of argument rounding at order 600
        thetas = np.random.default_rng(29).uniform(-math.pi, math.pi, 200)
        ref = np.exp(1j * np.arange(601)[:, None] * thetas)
        assert np.max(np.abs(_angular_table(thetas, 600) - ref)) < 1e-12


def small_inclusion(**kw):
    return ThinInclusion(curve=builtin_curve("sigma1"), **kw)


def unfolded_traces(inclusions, incident, grid):
    """synthesize with the half-turn fold off: every direction's sources built, none conjugated."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(forward, "direction_orders", lambda directions: None)
        return synthesize(inclusions, incident, grid).traces


def turned_directions(n_directions, angle):
    c, s = math.cos(angle), math.sin(angle)
    return standard_directions(n_directions) @ np.array([[c, s], [-s, c]])


class TestSynthesize:
    def test_one_disk_modes_per_inclusion(self, monkeypatch):
        # each inclusion's curve nodes get one mode series for the whole band
        built = []

        class Counted(DiskModes):
            def __init__(self, omegas, points):
                built.append(np.size(omegas))
                super().__init__(omegas, points)

        monkeypatch.setattr(forward, "DiskModes", Counted)
        incident = IncidentSet(standard_directions(2), frequency_band(16))
        pair = [small_inclusion(), ThinInclusion(curve=builtin_curve("sigma2"))]
        synthesize(pair, incident, boundary_grid(16), m_nodes=40)
        assert built == [16, 16]

    def test_against_per_pair_reference(self):
        # Independent slow path: direct quadrature with the general kernel
        # evaluator, one boundary point and node pair at a time.
        inc = small_inclusion()
        incident = IncidentSet(standard_directions(2), np.array([OMEGA_LO]))
        grid = boundary_grid(16)
        data = synthesize([inc], incident, grid, m_nodes=60)

        from thinimage.geometry import discretize

        disc = discretize(inc.curve, 60)
        gamma = inc.eps - 1.0
        alpha = 2.0 * (1.0 / inc.mu - 1.0)
        beta = 2.0 * (1.0 - inc.mu)
        ref = np.zeros((16, 2), dtype=complex)
        for j in range(16):
            yb = grid.points[j]
            for m in range(disc.nodes.shape[0]):
                xm = disc.nodes[m]
                val, grad = neumann_function(xm, yb, OMEGA_LO, gradient=True)
                for l in range(2):
                    d = incident.directions[l]
                    u = np.exp(1j * OMEGA_LO * (d @ xm))
                    gu = 1j * OMEGA_LO * u * d
                    pol = alpha * (gu @ disc.tangents[m]) * (grad @ disc.tangents[m]) + beta * (
                        gu @ disc.normals[m]
                    ) * (grad @ disc.normals[m])
                    ref[j, l] += disc.weights[m] * (pol + OMEGA_LO**2 * gamma * u * val)
        ref *= inc.h
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(data.traces[:, :, 0] - ref)) < 1e-8 * scale

    @pytest.mark.parametrize("n_points", [128, 16])
    @pytest.mark.parametrize(
        "curves", [["sigma1"], ["sigma2"], ["sigma1", "sigma2"]], ids=["sigma1", "sigma2", "both"]
    )
    def test_against_kernel_product_formula(self, curves, n_points):
        # the per-frequency kernel products synthesis took before it ran the
        # mode series transposed; on 16 points the series runs past N, where
        # the boundary phases repeat
        inclusions = [ThinInclusion(curve=builtin_curve(name)) for name in curves]
        incident = IncidentSet(standard_directions(4), frequency_band(16))
        grid = boundary_grid(n_points)
        ref = np.zeros((n_points, 4, 16), dtype=complex)
        for inc in inclusions:
            disc = discretize(inc.curve, 400)
            gamma, alpha, beta = inc.eps - 1.0, 2.0 * (1.0 / inc.mu - 1.0), 2.0 * (1.0 - inc.mu)
            w = disc.weights[:, None]
            tan_dot = disc.tangents @ incident.directions.T
            nor_dot = disc.normals @ incident.directions.T
            for k, omega in enumerate(incident.omegas):
                kernel, gx, gy = boundary_kernel_gradients(omega, disc.nodes, grid.angles)
                g_tan = disc.tangents[:, 0:1] * gx + disc.tangents[:, 1:2] * gy
                g_nor = disc.normals[:, 0:1] * gx + disc.normals[:, 1:2] * gy
                u = np.exp(1j * omega * (disc.nodes @ incident.directions.T))
                block = (
                    (alpha * w * 1j * omega * u * tan_dot).T @ g_tan
                    + (beta * w * 1j * omega * u * nor_dot).T @ g_nor
                    + (gamma * omega**2 * w * u).T @ kernel
                )
                ref[:, :, k] += inc.h * block.T
        got = synthesize(inclusions, incident, grid).traces
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize(
        "directions, folded",
        [
            *((standard_directions(n), True) for n in (4, 8, 12, 16, 24)),
            (standard_directions(6), False),
            (turned_directions(8, 0.1), False),
        ],
        ids=["L4", "L8", "L12", "L16", "L24", "L6", "L8_turned"],
    )
    def test_half_turn_partners(self, monkeypatch, directions, folded):
        # a standard set of 4 | L directions holds d_{l+L/2} = -d_l exactly,
        # and with real contrasts the trace of -d is the conjugate of the
        # trace of d: synthesis builds sources for the first L/2 directions
        # only and takes the others' traces as the conjugates, to roundoff of
        # every direction computed (measured 1.5e-15 of the peak at L4, exact
        # at L8 and L16); any other set keeps that arithmetic bit for bit
        widths = []
        transpose = DiskModes.transpose

        def counted(modes, sources):
            def seen():
                for triple in sources:
                    widths.append(triple[0].shape[1])
                    yield triple

            return transpose(modes, seen())

        monkeypatch.setattr(DiskModes, "transpose", counted)
        inclusions = [small_inclusion(), ThinInclusion(curve=builtin_curve("sigma2"))]
        incident = IncidentSet(directions, frequency_band(16))
        grid = boundary_grid(128)
        traces = synthesize(inclusions, incident, grid).traces
        n = directions.shape[0]
        monkeypatch.undo()
        ref = unfolded_traces(inclusions, incident, grid)
        if folded:
            assert widths == [n // 2] * 32
            assert np.array_equal(traces[:, n // 2 :], traces[:, : n // 2].conj())
            assert np.max(np.abs(traces - ref)) <= 1e-14 * np.max(np.abs(ref))
        else:
            assert widths == [n] * 32
            assert np.array_equal(traces, ref)

    @pytest.mark.parametrize("n_directions", [4, 6, 16])
    def test_layer_coefficients_are_its_one_model(self, monkeypatch, n_directions):
        # synthesis reads the thin-layer model from ThinInclusion.layer_coefficients
        # alone: the traces with one coefficient kept and the other two zeroed
        # sum to the traces (measured 1.7e-15, 1.4e-15 and 9.9e-16 of the peak
        # at L4, L6 and L16)
        inclusions = [
            ThinInclusion(builtin_curve(name), eps=10.0, mu=10.0) for name in ("sigma1", "sigma2")
        ]
        incident = IncidentSet(standard_directions(n_directions), frequency_band(16))
        grid = boundary_grid(128)
        traces = synthesize(inclusions, incident, grid).traces
        coefficients = ThinInclusion.layer_coefficients
        parts = np.zeros_like(traces)
        for kept in range(3):

            def one(inc, kept=kept):
                return tuple(c if i == kept else 0.0 for i, c in enumerate(coefficients(inc)))

            monkeypatch.setattr(ThinInclusion, "layer_coefficients", one)
            parts += synthesize(inclusions, incident, grid).traces
        assert np.max(np.abs(parts - traces)) <= 1e-13 * np.max(np.abs(traces))

    def test_one_frequency_matches_its_slice_of_the_band(self):
        inclusions = [small_inclusion(), ThinInclusion(curve=builtin_curve("sigma2"))]
        incident = IncidentSet(standard_directions(4), frequency_band(16))
        grid = boundary_grid(128)
        band = synthesize(inclusions, incident, grid).traces
        scale = np.max(np.abs(band))
        for k in (0, 9, 15):
            one = IncidentSet(incident.directions, incident.omegas[k : k + 1])
            got = synthesize(inclusions, one, grid).traces[:, :, 0]
            assert np.max(np.abs(got - band[:, :, k])) <= 1e-14 * scale, k

    def test_zero_contrast_gives_zero_traces(self):
        inc = small_inclusion(eps=1.0, mu=1.0)
        incident = IncidentSet(standard_directions(2), frequency_band(2))
        data = synthesize([inc], incident, boundary_grid(16), m_nodes=40)
        assert np.all(data.traces == 0.0)

    def test_linear_in_thickness(self):
        incident = IncidentSet(standard_directions(2), np.array([OMEGA_LO]))
        grid = boundary_grid(16)
        a = synthesize([small_inclusion(h=0.01)], incident, grid, m_nodes=40)
        b = synthesize([small_inclusion(h=0.02)], incident, grid, m_nodes=40)
        assert np.allclose(b.traces, 2.0 * a.traces, rtol=1e-12)

    def test_multi_inclusion_additivity(self):
        incident = IncidentSet(standard_directions(2), np.array([OMEGA_LO]))
        grid = boundary_grid(16)
        inc1 = small_inclusion()
        inc2 = ThinInclusion(curve=builtin_curve("sigma2"))
        both = synthesize([inc1, inc2], incident, grid, m_nodes=40)
        solo = synthesize([inc1], incident, grid, m_nodes=40).traces + synthesize(
            [inc2], incident, grid, m_nodes=40
        ).traces
        assert np.allclose(both.traces, solo, rtol=1e-13, atol=0.0)

    def test_thickness_validated_against_wavelength(self):
        inc = small_inclusion(h=0.05)
        incident = IncidentSet(standard_directions(2), frequency_band(16))
        with pytest.raises(ConfigError):
            synthesize([inc], incident, boundary_grid(16), m_nodes=40)

    def test_resonant_frequency_rejected(self):
        incident = IncidentSet(standard_directions(2), np.array([J1P_FIRST_ZERO, OMEGA_LO]))
        with pytest.raises(ResonanceError, match="n=1"):
            synthesize([small_inclusion()], incident, boundary_grid(16), m_nodes=40)

    def test_traces_shape_and_cleanliness(self):
        incident = IncidentSet(standard_directions(3), frequency_band(2))
        data = synthesize([small_inclusion()], incident, boundary_grid(16), 40)
        assert data.traces.shape == (16, 3, 2)
        assert data.is_clean
        assert data.noise_seed is None


@pytest.fixture(scope="module")
def clean():
    return synthesize(
        [small_inclusion()],
        IncidentSet(standard_directions(4), frequency_band(4)),
        boundary_grid(64),
        m_nodes=120,
    )


class TestNoise:
    def test_empirical_snr(self, clean):
        noisy = add_awgn(clean, 15.0, seed=42)
        achieved = []
        for l in range(4):
            for k in range(4):
                sig = clean.traces[:, l, k]
                res = noisy.traces[:, l, k] - sig
                achieved.append(
                    10.0 * math.log10(np.mean(np.abs(sig) ** 2) / np.mean(np.abs(res) ** 2))
                )
        assert abs(np.mean(achieved) - 15.0) < 0.5

    def test_bitwise_deterministic(self, clean):
        a = add_awgn(clean, 15.0, seed=7)
        b = add_awgn(clean, 15.0, seed=7)
        assert np.array_equal(a.traces, b.traces)

    def test_seed_changes_noise(self, clean):
        a = add_awgn(clean, 15.0, seed=7)
        b = add_awgn(clean, 15.0, seed=8)
        assert not np.array_equal(a.traces, b.traces)

    def test_noise_on_noise_rejected(self, clean):
        noisy = add_awgn(clean, 15.0, seed=7)
        with pytest.raises(DataStateError):
            add_awgn(noisy, 15.0, seed=8)

    def test_infinite_snr_is_identity(self, clean):
        assert add_awgn(clean, math.inf, seed=1) is clean

    def test_zero_traces_stay_zero(self):
        inc = small_inclusion(eps=1.0, mu=1.0)
        incident = IncidentSet(standard_directions(2), frequency_band(2))
        clean = synthesize([inc], incident, boundary_grid(16), m_nodes=40)
        noisy = add_awgn(clean, 15.0, seed=3)
        assert np.all(noisy.traces == 0.0)

    def test_invalid_snr_rejected(self, clean):
        with pytest.raises(ConfigError):
            add_awgn(clean, math.nan, seed=1)

    @pytest.mark.parametrize("shape", [(64, 4, 4), (128, 16, 16), (200, 4, 3)])
    def test_matches_a_per_trace_reference(self, shape):
        # each trace's noise scaled by its own np.mean power and drawn from
        # its own substream, bit for bit, with one trace identically zero
        n_b, L, K = shape
        rng = np.random.default_rng(n_b)
        traces = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        traces[:, 1, 2] = 0.0
        incident = IncidentSet(standard_directions(L), frequency_band(K))
        clean = BoundaryDataset(traces, boundary_grid(n_b), incident)
        children = np.random.SeedSequence(29).spawn(L * K)
        factor = 10.0 ** (-12.0 / 10.0)
        ref = traces.copy()
        for l in range(L):
            for k in range(K):
                power = float(np.mean(np.abs(traces[:, l, k]) ** 2))
                if power == 0.0:
                    continue
                draw = np.random.Generator(np.random.PCG64(children[l * K + k]))
                scale = math.sqrt(power * factor / 2.0)
                noise = scale * (draw.standard_normal(n_b) + 1j * draw.standard_normal(n_b))
                ref[:, l, k] = traces[:, l, k] + noise
        assert np.array_equal(add_awgn(clean, 12.0, seed=29).traces, ref)

    def test_negative_infinite_snr_rejected(self, clean):
        with pytest.raises(ConfigError, match=r"finite or \+inf"):
            add_awgn(clean, -math.inf, seed=1)


# Floats whose shortest repr takes each of repr's forms: signed zero, the
# smallest subnormal, the switch to exponent notation at 1e-4 and 1e16, and
# the largest finite double.
EDGE_FLOATS = (-0.0, 5e-324, 1e-05, 9.999999999999999e-05, 1e16, 1.7976931348623157e308)


def _per_row_dataset_text(data: BoundaryDataset) -> str:
    """The dataset text as the earlier writer formed it, one f-string per row."""
    n_b, L, K = data.traces.shape
    lines = [
        "# thinimage boundary dataset v1",
        f"# n_boundary {n_b}",
        f"# n_directions {L}",
        f"# n_frequencies {K}",
        "# omegas " + " ".join(repr(float(w)) for w in data.incident.omegas),
        "# snr_db " + ("clean" if data.is_clean else repr(float(data.snr_db))),
        "# noise_seed " + ("none" if data.noise_seed is None else str(int(data.noise_seed))),
        "# columns n l k re im",
    ]
    for n in range(n_b):
        for l in range(L):
            for k in range(K):
                z = data.traces[n, l, k]
                lines.append(f"{n} {l} {k} {float(z.real)!r} {float(z.imag)!r}")
    return "\n".join(lines) + "\n"


class TestDatasetIO:
    def test_round_trip_bit_exact_noisy(self, tmp_path):
        data = synthesize(
            [small_inclusion()],
            IncidentSet(standard_directions(3), frequency_band(2)),
            boundary_grid(16),
            m_nodes=40,
        )
        noisy = add_awgn(data, 15.0, seed=99)
        path = tmp_path / "traces.txt"
        save_dataset(noisy, path)
        back = load_dataset(path)
        assert np.array_equal(back.traces, noisy.traces)
        assert np.array_equal(back.incident.omegas, noisy.incident.omegas)
        assert back.snr_db == 15.0
        assert back.noise_seed == 99

    def test_round_trip_clean(self, tmp_path):
        data = synthesize(
            [small_inclusion()],
            IncidentSet(standard_directions(2), frequency_band(1)),
            boundary_grid(16),
            m_nodes=40,
        )
        path = tmp_path / "clean.txt"
        save_dataset(data, path)
        back = load_dataset(path)
        assert np.array_equal(back.traces, data.traces)
        assert back.is_clean
        assert back.noise_seed is None

    @pytest.mark.parametrize("snr_db, seed", [(math.inf, None), (15.0, 3)])
    def test_format_matches_the_per_row_writer(self, tmp_path, snr_db, seed):
        # 120 nodes, 12 directions and 11 frequencies: every index column has
        # several widths; the traces carry the edge cases of float repr
        rng = np.random.default_rng(21)
        shape = (120, 12, 11)
        traces = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        edges = np.array(EDGE_FLOATS)
        flat = traces.reshape(-1)
        flat[: edges.size] = edges + 1j * edges[::-1]
        flat[-edges.size :] = -edges - 1j * edges
        incident = IncidentSet(standard_directions(12), frequency_band(11))
        data = BoundaryDataset(traces, boundary_grid(120), incident, snr_db, seed)
        path = tmp_path / "traces.txt"
        save_dataset(data, path)
        assert path.read_bytes() == _per_row_dataset_text(data).encode("ascii")

    def test_nonstandard_directions_rejected(self, tmp_path):
        ang = np.array([0.1, 1.3])
        incident = IncidentSet(
            np.column_stack([np.cos(ang), np.sin(ang)]), np.array([OMEGA_LO])
        )
        traces = np.zeros((16, 2, 1), dtype=complex)
        data = BoundaryDataset(traces=traces, grid=boundary_grid(16), incident=incident)
        with pytest.raises(ConfigError):
            save_dataset(data, tmp_path / "bad.txt")

    @pytest.mark.parametrize("bad", [-math.inf, math.nan])
    def test_only_positive_infinite_snr_is_clean(self, tmp_path, bad):
        # clean means snr_db == +inf; -inf and NaN are no SNR at all, whether
        # built directly or read back from a dataset header
        data = synthesize(
            [small_inclusion()],
            IncidentSet(standard_directions(2), frequency_band(1)),
            boundary_grid(16),
            m_nodes=40,
        )
        with pytest.raises(ConfigError, match=r"finite or \+inf"):
            BoundaryDataset(data.traces, data.grid, data.incident, snr_db=bad)
        path = tmp_path / "clean.txt"
        save_dataset(data, path)
        text = path.read_text().replace("# snr_db clean", f"# snr_db {bad!r}")
        path.write_text(text)
        with pytest.raises(ConfigError, match=r"finite or \+inf"):
            load_dataset(path)
        assert not BoundaryDataset(data.traces, data.grid, data.incident, snr_db=15.0).is_clean

    @staticmethod
    def _with_row(tmp_path, n, row):
        # a dataset of 16 nodes, 2 directions and 1 frequency with node n's
        # direction-1 row replaced by ``row``
        rng = np.random.default_rng(5)
        traces = rng.standard_normal((16, 2, 1)) + 1j * rng.standard_normal((16, 2, 1))
        incident = IncidentSet(standard_directions(2), np.array([OMEGA_LO]))
        path = tmp_path / "rows.txt"
        save_dataset(BoundaryDataset(traces, boundary_grid(16), incident), path)
        lines = path.read_text().splitlines()
        lines = [row if line.startswith(f"{n} 1 0 ") else line for line in lines]
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_negative_node_index_rejected(self, tmp_path):
        # n = -1 used to wrap to the last node and leave node 0 at zero
        path = self._with_row(tmp_path, 0, "-1 1 0 1.0 2.0")
        with pytest.raises(ConfigError, match="out of range: -1 1 0 1.0 2.0"):
            load_dataset(path)

    def test_repeated_row_rejected(self, tmp_path):
        # the row count still matches, but one entry would stay at zero
        path = self._with_row(tmp_path, 0, "1 1 0 1.0 2.0")
        with pytest.raises(ConfigError, match="repeated dataset row: 1 1 0"):
            load_dataset(path)

    def test_node_index_past_the_grid_rejected(self, tmp_path):
        path = self._with_row(tmp_path, 0, "16 1 0 1.0 2.0")
        with pytest.raises(ConfigError, match="out of range: 16 1 0 1.0 2.0"):
            load_dataset(path)

    def test_malformed_index_token_rejected(self, tmp_path):
        path = self._with_row(tmp_path, 0, "0.5 1 0 1.0 1.0")
        with pytest.raises(ConfigError, match="malformed dataset row: 0.5 1 0 1.0 1.0"):
            load_dataset(path)

    def test_malformed_value_token_rejected(self, tmp_path):
        path = self._with_row(tmp_path, 0, "0 1 0 abc 1.0")
        with pytest.raises(ConfigError, match="malformed dataset row: 0 1 0 abc 1.0"):
            load_dataset(path)

    def test_malformed_header_rejected(self, tmp_path):
        path = tmp_path / "broken.txt"
        path.write_text("# thinimage boundary dataset v1\n# n_boundary 16\n0 0 0 1.0 2.0\n")
        with pytest.raises(ConfigError):
            load_dataset(path)
