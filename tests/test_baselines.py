"""Tests for the multistatic matrix and the subspace/migration baselines."""

import math

import numpy as np
import pytest

from thinimage.errors import ConfigError, DataStateError
from thinimage.forward import (
    BoundaryDataset,
    IncidentSet,
    MultistaticMatrix,
    add_awgn,
    assemble_multistatic,
    frequency_band,
    standard_directions,
    synthesize,
)
from thinimage.geometry import ThinInclusion, boundary_grid, builtin_curve, discretize
from thinimage.baselines import (
    kirchhoff_map,
    multi_kirchhoff_map,
    music_map,
    signal_space_dim,
)
from thinimage.maps import Lattice, make_lattice

OMEGA = 4.0 * math.pi


def steering_vectors(lattice, omega, directions):
    """The unit steering vectors of ``music_map``: the plane waves over sqrt(L)."""
    return lattice.plane_waves(omega, directions) / math.sqrt(directions.shape[0])


def migration_reference(lattice, msr):
    """``kirchhoff_map``'s values node by node: |conj(e)^T A conj(e)| / L on the plane waves e."""
    wc = lattice.plane_waves(msr.omega, msr.directions).conj()
    return np.abs(np.einsum("pl,pl->p", wc @ msr.matrix, wc)) / msr.n_directions


def music_reference(lattice, msr, signal_dim):
    """``music_map``'s values node by node, on the unit steering vectors."""
    w = steering_vectors(lattice, msr.omega, msr.directions)
    basis = np.linalg.svd(msr.matrix)[0][:, :signal_dim]
    residual = w - (w @ basis.conj()) @ basis.T
    return 1.0 / np.maximum(np.linalg.norm(residual, axis=1), 1e-12)


def noisy_sigma1_matrix(directions):
    """The sigma1 curve's matrix at OMEGA with 15 dB noise: full and non-symmetric."""
    incident = IncidentSet(directions, np.array([OMEGA]))
    data = synthesize([ThinInclusion(builtin_curve("sigma1"))], incident, boundary_grid(128))
    return assemble_multistatic(add_awgn(data, 15.0, seed=4))


def monopole_matrix(points, amplitudes, directions, omega):
    """Observation matrix of point monopoles: a_p e^{i w (d_j + d_l) . x_p} summed over p.

    Complex symmetric, of rank the number of points: a matrix with an
    exactly known signal space.
    """
    phases = np.exp(1j * omega * (directions @ points.T))
    return MultistaticMatrix((phases * amplitudes) @ phases.T, omega, directions)


@pytest.fixture(scope="module")
def sigma1_msr():
    curve = builtin_curve("sigma1")
    incident = IncidentSet(standard_directions(8), np.array([OMEGA]))
    grid = boundary_grid(128)
    data = synthesize([ThinInclusion(curve)], incident, grid)
    return assemble_multistatic(data), curve


@pytest.fixture(scope="module")
def three_monopoles():
    points = np.array([[0.4, 0.0], [-0.3, 0.2], [0.1, -0.45]])
    return monopole_matrix(points, np.ones(3), standard_directions(16), 10.0 * math.pi), points


class TestAssembly:
    def test_zero_dataset_gives_zero_matrix(self):
        grid = boundary_grid(64)
        incident = IncidentSet(standard_directions(4), np.array([OMEGA]))
        data = BoundaryDataset(
            np.zeros((64, 4, 1), dtype=complex), grid, incident
        )
        msr = assemble_multistatic(data)
        assert np.all(msr.matrix == 0.0)
        assert np.all(np.linalg.svd(msr.matrix)[1] == 0.0)

    def test_clean_matrix_is_complex_symmetric(self, sigma1_msr):
        msr, _ = sigma1_msr
        a = msr.matrix
        assert np.linalg.norm(a - a.T) / np.linalg.norm(a) <= 1e-8

    def test_matches_curve_quadrature_form(self, sigma1_msr):
        # observation row j integrates to h w^2 int [gamma - alpha (d_l.t)(d_j.t)
        # - beta (d_l.n)(d_j.n)] e^{i w (d_j + d_l).x} over the curve
        msr, curve = sigma1_msr
        disc = discretize(curve, 600)
        incl = ThinInclusion(curve)
        gamma = incl.eps - 1.0
        alpha = incl.tangential_contrast()
        beta = incl.normal_contrast()
        dirs = msr.directions
        expected = np.empty_like(msr.matrix)
        for j, dj in enumerate(dirs):
            for l, dl in enumerate(dirs):
                bracket = (
                    gamma
                    - alpha * (disc.tangents @ dl) * (disc.tangents @ dj)
                    - beta * (disc.normals @ dl) * (disc.normals @ dj)
                )
                phase = np.exp(1j * OMEGA * (disc.nodes @ (dj + dl)))
                expected[j, l] = (
                    incl.h * OMEGA**2 * np.sum(disc.weights * bracket * phase)
                )
        rel = np.linalg.norm(msr.matrix - expected) / np.linalg.norm(expected)
        assert rel <= 1e-6

    def test_monopole_matrix_rank(self, three_monopoles):
        msr, _ = three_monopoles
        s = np.linalg.svd(msr.matrix)[1]
        assert np.all(s[:3] > 1e-10 * s[0])
        assert np.all(s[3:] <= 1e-10 * s[0])
        assert np.allclose(msr.matrix, msr.matrix.T, rtol=0.0, atol=1e-14 * s[0])

    def test_frequency_index_checked(self, sigma1_msr):
        msr, curve = sigma1_msr
        incident = IncidentSet(standard_directions(4), np.array([OMEGA]))
        data = synthesize(
            [ThinInclusion(curve)], incident, boundary_grid(64)
        )
        with pytest.raises(IndexError):
            assemble_multistatic(data, k_index=1)


class TestSteering:
    # make_lattice(9) steps by 0.25 from -1: it holds the origin exactly, and
    # the mirror -z of its k-th kept node is its k-th node from the end
    def test_monopole_rows_have_flat_magnitude(self):
        w = steering_vectors(make_lattice(9), OMEGA, standard_directions(8))
        assert np.allclose(np.abs(w), 1.0 / math.sqrt(8), rtol=0.0, atol=1e-14)

    def test_origin_monopole_is_uniform(self):
        lattice = make_lattice(9)
        (origin,) = np.flatnonzero(np.all(lattice.points == 0.0, axis=1))
        w = steering_vectors(lattice, OMEGA, standard_directions(8))
        assert np.allclose(w[origin], 1.0 / math.sqrt(8), rtol=0.0, atol=1e-14)

    def test_rows_are_unit(self):
        w = steering_vectors(make_lattice(9), OMEGA, standard_directions(12))
        assert np.allclose(np.linalg.norm(w, axis=1), 1.0, rtol=0.0, atol=1e-13)

    def test_distinct_points_not_parallel(self):
        lattice = make_lattice(9)
        assert np.array_equal(lattice.points[::-1], -lattice.points)
        w = steering_vectors(lattice, OMEGA, standard_directions(16))
        overlap = np.abs(np.sum(w.conj() * w[::-1], axis=1))
        off_origin = np.any(lattice.points != 0.0, axis=1)
        assert np.all(overlap[off_origin] < 1.0 - 1e-6)


class TestSignalSpace:
    def test_three_monopoles_give_three(self, three_monopoles):
        msr, _ = three_monopoles
        assert signal_space_dim(msr) == 3

    def test_single_monopole_gives_one(self):
        msr = monopole_matrix(
            np.array([[0.2, 0.3]]), np.ones(1), standard_directions(8), OMEGA
        )
        assert signal_space_dim(msr) == 1

    def test_dimension_clamped_below_size(self, three_monopoles):
        # three well-separated scatterers seen from three directions: all
        # three singular values clear both tolerances
        _, points = three_monopoles
        msr = monopole_matrix(points, np.ones(3), standard_directions(3), 10.0 * math.pi)
        for clean in (True, False):
            assert signal_space_dim(msr, clean=clean) == msr.n_directions - 1 == 2

    def test_zero_matrix_rejected(self):
        grid = boundary_grid(32)
        incident = IncidentSet(standard_directions(4), np.array([OMEGA]))
        data = BoundaryDataset(np.zeros((32, 4, 1), dtype=complex), grid, incident)
        with pytest.raises(DataStateError):
            signal_space_dim(assemble_multistatic(data))


class TestMusic:
    def test_values_at_least_one(self, three_monopoles):
        msr, _ = three_monopoles
        imap, _ = music_map(make_lattice(32), msr, signal_dim=3)
        inside = imap.inside_values
        assert np.all(inside[inside != 0.0] >= 1.0)

    def test_signal_direction_saturates(self):
        # monopole at the origin: its steering vector is exactly the signal
        # space, so the origin lattice point hits the projector kernel
        msr = monopole_matrix(
            np.array([[0.0, 0.0]]), np.ones(1), standard_directions(8), OMEGA
        )
        lattice = make_lattice(9)
        imap, saturated = music_map(lattice, msr, signal_dim=1)
        assert saturated
        center = np.argmin(np.hypot(lattice.points[:, 0], lattice.points[:, 1]))
        assert imap.inside_values[center] == 1e12

    def test_full_signal_dim_rejected(self, three_monopoles):
        msr, _ = three_monopoles
        with pytest.raises(ConfigError):
            music_map(make_lattice(16), msr, signal_dim=msr.n_directions)

    def test_three_scatterers_localized_within_one_cell(self, three_monopoles):
        msr, points = three_monopoles
        lattice = make_lattice(64)
        imap, _ = music_map(lattice, msr, signal_dim=3)
        cell = (lattice.axis[1] - lattice.axis[0]) * math.sqrt(2.0)
        for p in points:
            dist = np.hypot(lattice.points[:, 0] - p[0], lattice.points[:, 1] - p[1])
            near = dist <= 0.2
            peak = lattice.points[near][np.argmax(imap.inside_values[near])]
            assert np.hypot(*(peak - p)) <= cell


class TestKirchhoff:
    def test_zero_matrix_gives_zero_map(self):
        grid = boundary_grid(32)
        incident = IncidentSet(standard_directions(4), np.array([OMEGA]))
        data = BoundaryDataset(np.zeros((32, 4, 1), dtype=complex), grid, incident)
        imap = kirchhoff_map(make_lattice(16), assemble_multistatic(data))
        assert np.all(imap.values == 0.0)

    def test_rank_one_identity(self):
        msr = monopole_matrix(
            np.array([[0.25, -0.1]]), np.array([2.0]), standard_directions(8), OMEGA
        )
        lattice = make_lattice(16)
        imap = kirchhoff_map(lattice, msr)
        w = steering_vectors(lattice, msr.omega, msr.directions)
        u, s, vh = np.linalg.svd(msr.matrix)
        s1, u1, v1h = s[0], u[:, 0], vh[0]
        expected = s1 * np.abs(w.conj() @ u1) * np.abs(w @ v1h.conj())
        assert np.allclose(imap.inside_values, expected, rtol=1e-9, atol=1e-12 * s1)

    def test_single_scatterer_peak_within_one_cell(self):
        target = np.array([0.25, -0.1])
        msr = monopole_matrix(
            target[None, :], np.ones(1), standard_directions(16), 10.0 * math.pi
        )
        lattice = make_lattice(64)
        imap = kirchhoff_map(lattice, msr)
        peak = lattice.points[np.argmax(imap.inside_values)]
        assert np.hypot(*(peak - target)) <= (lattice.axis[1] - lattice.axis[0]) * math.sqrt(2.0)

    def test_matches_the_steering_vector_form(self):
        # noisy data at 12 directions, so A is full and non-symmetric
        incident = IncidentSet(standard_directions(12), np.array([OMEGA]))
        data = synthesize([ThinInclusion(builtin_curve("sigma1"))], incident, boundary_grid(128))
        msr = assemble_multistatic(add_awgn(data, 15.0, seed=4))
        lattice = make_lattice(41)
        w = steering_vectors(lattice, msr.omega, msr.directions)
        expected = np.abs(np.einsum("pj,jl,pl->p", w.conj(), msr.matrix, w.conj()))
        got = kirchhoff_map(lattice, msr).inside_values
        assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(expected)

    def test_migration_takes_no_svd(self, monkeypatch):
        # the migration band reads only the matrices, never a factorization
        incident = IncidentSet(standard_directions(8), frequency_band(16))
        rng = np.random.default_rng(5)
        traces = rng.standard_normal((64, 8, 16)) + 1j * rng.standard_normal((64, 8, 16))
        data = BoundaryDataset(traces, boundary_grid(64), incident)
        calls = []
        svd = np.linalg.svd

        def counting_svd(*args, **kwargs):
            calls.append(args)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        msrs = [assemble_multistatic(data, k) for k in range(16)]
        multi_kirchhoff_map(make_lattice(16), msrs)
        assert len(calls) == 0

    def test_multi_sum_and_empty_guard(self):
        dirs = standard_directions(8)
        msr_a = monopole_matrix(np.array([[0.2, 0.0]]), np.ones(1), dirs, OMEGA)
        msr_b = monopole_matrix(np.array([[0.2, 0.0]]), np.ones(1), dirs, 1.5 * OMEGA)
        lattice = make_lattice(16)
        total = multi_kirchhoff_map(lattice, [msr_a, msr_b])
        parts = (
            kirchhoff_map(lattice, msr_a).inside_values
            + kirchhoff_map(lattice, msr_b).inside_values
        )
        assert np.allclose(total.inside_values, parts, rtol=1e-13, atol=0.0)
        with pytest.raises(ConfigError):
            multi_kirchhoff_map(lattice, [])


class TestOrbitEvaluation:
    # both maps read the representatives' waves and take each variant's value
    # through its direction order where the directions have orders, and every
    # node as its own representative otherwise
    @pytest.mark.parametrize("n_directions", [4, 8, 12, 16])
    def test_orbits_match_the_per_node_maps(self, n_directions):
        msr = noisy_sigma1_matrix(standard_directions(n_directions))
        for n in (9, 16, 41, 64):
            lattice = make_lattice(n)
            expected = migration_reference(lattice, msr)
            got = kirchhoff_map(lattice, msr).inside_values
            assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(expected)
            # measured up to 6.1e-15 and 1.4e-13 of the peak on lattices up to
            # 128: a one-dimensional noise space leaves small residuals
            for signal_dim, bound in ((n_directions // 2, 1e-13), (n_directions - 1, 1e-12)):
                expected = music_reference(lattice, msr, signal_dim)
                got = music_map(lattice, msr, signal_dim)[0].inside_values
                assert np.max(np.abs(got - expected)) <= bound * np.max(expected)

    @pytest.mark.parametrize(
        "directions",
        [
            standard_directions(6),
            standard_directions(8) @ np.array([[math.cos(0.1), math.sin(0.1)],
                                               [-math.sin(0.1), math.cos(0.1)]]),
        ],
        ids=["L6", "L8_turned"],
    )
    def test_sets_without_orders_give_the_per_node_maps_exactly(self, directions):
        lattice = make_lattice(41)
        msr = noisy_sigma1_matrix(directions)
        got = kirchhoff_map(lattice, msr).inside_values
        assert np.array_equal(got, migration_reference(lattice, msr))
        got = music_map(lattice, msr, 3)[0].inside_values
        assert np.array_equal(got, music_reference(lattice, msr, 3))

    def test_maps_form_no_plane_wave_table(self, monkeypatch):
        incident = IncidentSet(standard_directions(16), frequency_band(16))
        rng = np.random.default_rng(5)
        traces = rng.standard_normal((64, 16, 16)) + 1j * rng.standard_normal((64, 16, 16))
        data = BoundaryDataset(traces, boundary_grid(64), incident)
        msrs = [assemble_multistatic(data, k) for k in range(16)]
        calls = []
        plane_waves = Lattice.plane_waves

        def counting_plane_waves(*args, **kwargs):
            calls.append(args)
            return plane_waves(*args, **kwargs)

        monkeypatch.setattr(Lattice, "plane_waves", counting_plane_waves)
        lattice = make_lattice(32)
        multi_kirchhoff_map(lattice, msrs)
        music_map(lattice, msrs[-1], 8)
        assert len(calls) == 0
