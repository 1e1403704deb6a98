import math

import numpy as np
import pytest
from scipy import integrate

from thinimage import geometry
from thinimage.errors import ConfigError, GeometryError
from thinimage.geometry import (
    BoundaryGrid,
    ParametricCurve,
    ThinInclusion,
    boundary_grid,
    builtin_curve,
    discretize,
    distance_to_curve,
    poly_sin_curve,
)


class TestBuiltinCurves:
    def test_sigma1_points(self):
        c = builtin_curve("sigma1")
        assert np.allclose(c.points(0.0), [-0.2, 0.5])
        assert np.allclose(c.points(0.5), [0.3, 0.375])
        assert np.allclose(c.points(-0.5), [-0.7, 0.375])

    def test_sigma2_points(self):
        c = builtin_curve("sigma2")
        assert np.allclose(c.points(0.0), [0.2, -0.6])
        assert np.allclose(c.points(0.5), [0.7, 0.125 + 0.25 - 0.6])

    def test_sigma3_points(self):
        c = builtin_curve("sigma3")
        p = c.points(0.0)
        assert p[0] == 0.0
        assert p[1] == pytest.approx(0.1 * math.sin(2.1 * math.pi), abs=1e-15)
        assert c.s_min == -0.7 and c.s_max == 0.7

    def test_analytic_derivatives_match_finite_differences(self):
        for label in ("sigma1", "sigma2", "sigma3"):
            c = builtin_curve(label)
            s = np.linspace(c.s_min + 0.01, c.s_max - 0.01, 31)
            fd = (c.points(s + 1e-6) - c.points(s - 1e-6)) / 2e-6
            assert np.allclose(c.velocity(s), fd, atol=1e-8)

    def test_unknown_label(self):
        with pytest.raises(ConfigError):
            builtin_curve("sigma9")


class TestDiscretize:
    def test_sigma1_length_matches_adaptive_quadrature(self):
        # Arc length of (s-0.2, 0.5-0.5 s^2) is \int sqrt(1+s^2) ds.
        disc = discretize(builtin_curve("sigma1"), 200)
        ref = integrate.quad(lambda s: math.sqrt(1 + s * s), -0.5, 0.5)[0]
        assert disc.weights.sum() == pytest.approx(ref, rel=1e-8)

    @pytest.mark.parametrize("label", ["sigma1", "sigma2", "sigma3"])
    def test_refinement_consistency(self, label):
        c = builtin_curve(label)
        l1 = discretize(c, 200).weights.sum()
        l2 = discretize(c, 400).weights.sum()
        assert abs(l2 - l1) <= 1e-8 * abs(l2)

    def test_frames_are_orthonormal(self):
        disc = discretize(builtin_curve("sigma2"), 120)
        t_norm = np.hypot(disc.tangents[:, 0], disc.tangents[:, 1])
        n_norm = np.hypot(disc.normals[:, 0], disc.normals[:, 1])
        dots = np.sum(disc.tangents * disc.normals, axis=1)
        assert np.allclose(t_norm, 1.0, atol=1e-12)
        assert np.allclose(n_norm, 1.0, atol=1e-12)
        assert np.allclose(dots, 0.0, atol=1e-12)
        # Normal is the tangent rotated by +90 degrees.
        rot = np.column_stack([-disc.tangents[:, 1], disc.tangents[:, 0]])
        assert np.allclose(rot, disc.normals)

    def test_weights_positive_and_inside_disk(self):
        disc = discretize(builtin_curve("sigma3"), 160)
        assert np.all(disc.weights > 0)
        radii = np.hypot(disc.nodes[:, 0], disc.nodes[:, 1])
        assert np.max(radii) <= 0.9 + 1e-12

    def test_node_count_rounds_up_to_panels(self):
        disc = discretize(builtin_curve("sigma1"), 10)
        assert len(disc.nodes) == 12
        assert len(disc.weights) == 12

    def test_rejects_tiny_node_count(self):
        with pytest.raises(ConfigError):
            discretize(builtin_curve("sigma1"), 4)

    def test_degenerate_velocity_raises(self):
        c = ParametricCurve(
            "stall",
            -1.0,
            1.0,
            fx=lambda s: np.full_like(s, 0.3),
            fy=lambda s: np.zeros_like(s),
            dfx=lambda s: np.zeros_like(s),
            dfy=lambda s: np.zeros_like(s),
        )
        with pytest.raises(GeometryError, match="degenerate"):
            discretize(c, 40)

    def test_clearance_violation_raises(self):
        c = ParametricCurve(
            "wide",
            -0.95,
            0.95,
            fx=lambda s: s,
            fy=lambda s: np.zeros_like(s),
            dfx=lambda s: np.ones_like(s),
            dfy=lambda s: np.zeros_like(s),
        )
        with pytest.raises(GeometryError, match="clearance"):
            discretize(c, 40)

    def test_self_intersection_raises(self):
        # Retraced segment: s and -s land on identical nodes.
        c = ParametricCurve(
            "retrace",
            -1.0,
            1.0,
            fx=lambda s: 0.64 * s**2,
            fy=lambda s: np.zeros_like(s),
            dfx=lambda s: 1.28 * s,
            dfy=lambda s: np.zeros_like(s),
        )
        with pytest.raises(GeometryError, match="self-intersect"):
            discretize(c, 64)

    @pytest.mark.parametrize("n", [3, 8, 63, 64, 65, 66, 130, 400])
    def test_blocked_gap_matches_all_pairs(self, n):
        # the row-blocked minimum against the all-pairs expression, bit for
        # bit, on random chains, on chains with one near-touching pair of
        # non-adjacent nodes, across and within the 64-row blocks, and with
        # neighbours placed on one point, which the check does not count, and
        # on sigma1's synthesis nodes
        def all_pairs(pts):
            dx, dy = pts[:, None, 0] - pts[None, :, 0], pts[:, None, 1] - pts[None, :, 1]
            return np.min((dx * dx + dy * dy)[np.triu_indices(len(pts), 2)])

        rng = np.random.default_rng(n)
        chains = [rng.standard_normal((n, 2)) for _ in range(3)]
        for _ in range(4):
            pts = np.cumsum(rng.uniform(0.01, 0.02, (n, 2)), axis=0)
            i = int(rng.integers(0, n - 2))
            j = int(rng.integers(i + 2, n))
            pts[j] = pts[i] + rng.choice([0.0, 1e-13, 3e-12], size=2)
            if i + 1 < j:
                pts[i + 1] = pts[i]
            chains.append(pts)
        if n == 400:
            chains.append(discretize(builtin_curve("sigma1"), n).nodes)
        for pts in chains:
            assert geometry._min_gap_squared(pts) == all_pairs(pts)

    @pytest.mark.parametrize("keys", [dict(x_shift=math.nan), dict(y_poly=(0.0, math.nan))])
    def test_non_finite_curve_raises(self, keys):
        # NaN fails the clearance and speed comparisons, so only a finiteness
        # check stops it before a kernel series order is taken from it
        c = poly_sin_curve("custom", -0.5, 0.5, **keys)
        with pytest.raises(GeometryError, match="non-finite"):
            discretize(c, 40)

    @pytest.mark.parametrize("s_min, s_max", [(-math.inf, 0.5), (-0.5, math.nan), (0.5, 0.5)])
    def test_parameter_range_must_be_finite_and_non_empty(self, s_min, s_max):
        with pytest.raises(GeometryError, match="must be finite and non-empty"):
            poly_sin_curve("custom", s_min, s_max)

    def test_immutable_arrays(self):
        disc = discretize(builtin_curve("sigma1"), 40)
        with pytest.raises(ValueError):
            disc.nodes[0, 0] = 0.0


class TestPolySinCurve:
    def test_reproduces_sigma3(self):
        c = poly_sin_curve(
            "custom",
            -0.7,
            0.7,
            y_poly=[0.0, 0.0, 0.5],
            y_sin_amp=0.1,
            y_sin_freq=3 * math.pi,
            y_sin_phase=0.7,
        )
        ref = builtin_curve("sigma3")
        s = np.linspace(-0.7, 0.7, 41)
        assert np.allclose(c.points(s), ref.points(s), atol=1e-14)
        assert np.allclose(c.velocity(s), ref.velocity(s), atol=1e-12)


class TestThinInclusion:
    def test_contrast_eigenvalues(self):
        inc = ThinInclusion(builtin_curve("sigma1"), h=0.02, eps=5.0, mu=5.0)
        assert inc.tangential_contrast() == pytest.approx(2 * (1 / 5 - 1))
        assert inc.normal_contrast() == pytest.approx(2 * (1 - 5))
        assert inc.permittivity_contrast() == pytest.approx(4.0)

    def test_zero_contrast_is_allowed(self):
        inc = ThinInclusion(builtin_curve("sigma1"), eps=1.0, mu=1.0)
        assert inc.tangential_contrast() == 0.0
        assert inc.normal_contrast() == 0.0
        assert inc.permittivity_contrast() == 0.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            ThinInclusion(builtin_curve("sigma1"), h=0.0)
        with pytest.raises(ConfigError):
            ThinInclusion(builtin_curve("sigma1"), eps=-1.0)
        with pytest.raises(ConfigError):
            ThinInclusion(builtin_curve("sigma1"), mu=0.0)
        for name in ("eps", "mu"):
            with pytest.raises(ConfigError, match=f"{name} must be positive and finite, got inf"):
                ThinInclusion(builtin_curve("sigma1"), **{name: math.inf})


class TestBoundaryGrid:
    def test_four_point_layout(self):
        # Smallest legal grid is 16, but the angular layout rule is easiest
        # to pin at N=4 equivalents: check the first points of N=16 instead.
        g = boundary_grid(16)
        assert np.allclose(g.points[0], [math.cos(2 * math.pi / 16), math.sin(2 * math.pi / 16)])
        # Last point closes the circle at angle 2 pi.
        assert np.allclose(g.points[-1], [1.0, 0.0], atol=1e-15)

    def test_unit_radius_normals_and_weights(self):
        g = boundary_grid(128)
        radii = np.hypot(g.points[:, 0], g.points[:, 1])
        assert np.allclose(radii, 1.0, atol=1e-15)
        assert g.weight * g.n_points == pytest.approx(2 * math.pi)

    def test_trapezoid_exactness_on_smooth_periodic(self):
        # Spectral accuracy: low-order circular harmonics integrate exactly.
        g = boundary_grid(64)
        f = np.cos(3 * g.angles) + np.sin(7 * g.angles) + 2.0
        assert g.weight * np.sum(f) == pytest.approx(4 * math.pi, abs=1e-12)

    def test_too_few_points(self):
        with pytest.raises(ConfigError):
            boundary_grid(8)


class TestDistanceToCurve:
    def test_vertex_distance(self):
        disc = discretize(builtin_curve("sigma1"), 200)
        assert distance_to_curve(np.array([[-0.2, 0.6]]), disc) == pytest.approx([0.1], abs=2e-3)

    def test_on_curve_distance_near_zero(self):
        curve = builtin_curve("sigma2")
        disc = discretize(curve, 300)
        on = curve.points(np.linspace(-0.49, 0.49, 17))
        d = distance_to_curve(on, disc)
        assert np.max(d) <= 5e-5

    def test_each_row_alone_matches_the_batch(self):
        disc = discretize(builtin_curve("sigma3"), 150)
        pts = np.array([[0.0, 0.5], [-0.3, -0.2], [0.6, 0.1]])
        batch = distance_to_curve(pts, disc)
        for p, expect in zip(pts, batch):
            assert distance_to_curve(p[None], disc) == pytest.approx([expect], abs=1e-14)

    def test_far_point(self):
        disc = discretize(builtin_curve("sigma1"), 100)
        # Distance from origin bounded below by curve's min radius minus 0.
        (d,) = distance_to_curve(np.array([[0.0, 0.0]]), disc)
        radii = np.hypot(disc.nodes[:, 0], disc.nodes[:, 1])
        assert d <= np.min(radii)
        assert d == pytest.approx(np.min(radii), abs=1e-3)
