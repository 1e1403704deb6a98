"""Tests for lattices, image containers, metrics, and map writers."""

import numpy as np
import pytest

from thinimage.errors import ConfigError
from thinimage.forward import standard_directions
from thinimage.geometry import builtin_curve, discretize
from thinimage.maps import (
    ImageMap,
    from_point_values,
    make_lattice,
    save_map_csv,
    save_map_pgm,
    top_quantile_distance,
)

from kernel_reference import plane_waves


class TestLattice:
    def test_default_geometry(self, tmp_path):
        lat = make_lattice()
        assert lat.mask.shape == (128, 128)
        assert lat.axis[0] == -1.0 and lat.axis[-1] == 1.0
        path = tmp_path / "m.csv"
        save_map_csv(from_point_values(lat, np.ones(lat.points.shape[0])), path)
        assert "# clip_radius 0.95" in path.read_text().split("\n")

    def test_mask_matches_clip(self):
        # no node of these sizes lies on the circle, so the float clip of the
        # node coordinates is a reference for mask and points, bit for bit
        for n in (32, 65, 128, 256):
            lat = make_lattice(n)
            gx, gy = np.meshgrid(lat.axis, lat.axis)
            inside = np.hypot(gx, gy) <= 0.95
            assert np.array_equal(lat.mask, inside), n
            assert np.array_equal(lat.points, np.column_stack([gx[inside], gy[inside]])), n
            assert np.all(np.hypot(lat.points[:, 0], lat.points[:, 1]) <= 0.95)

    def test_mask_is_the_exact_disk(self):
        # in integer coordinates c = 2 i - (n - 1) a node is kept exactly when
        # its radius is within 19/20, and the mask is invariant under the
        # square's 8 symmetries; a float clip of the node coordinates misses
        # nodes on the circle at n = 41, 81, 161 and 201, and only one of a
        # mirror pair at the first three
        for n in range(8, 300):
            mask = make_lattice(n).mask
            c = 2 * np.arange(n) - (n - 1)
            r2 = c[:, None] ** 2 + c[None, :] ** 2
            assert np.array_equal(mask, 400 * r2 <= (19 * (n - 1)) ** 2), n
            for variant in (mask.T, mask[::-1], mask[:, ::-1]):
                assert np.array_equal(mask, variant), n

    def test_kept_fraction_near_disk_area(self):
        lat = make_lattice(128)
        frac = lat.points.shape[0] / (128 * 128)
        assert frac == pytest.approx(np.pi * 0.95**2 / 4.0, abs=0.02)

    def test_too_small_rejected(self):
        with pytest.raises(ConfigError):
            make_lattice(4)

    @pytest.mark.parametrize("n", [65, 128])
    def test_plane_waves_match_direct_exponential(self, n):
        # Lattice.wave_factors' per-axis tables, multiplied out, against one
        # exponential per (node, direction); phases reach 10 pi, so a few ulp
        # of the phase is ~5e-15
        lat = make_lattice(n)
        directions = standard_directions(16)
        omega = 10.0 * np.pi
        waves = plane_waves(lat, omega, directions)
        direct = np.exp(1j * omega * (lat.points @ directions.T))
        assert waves.shape == (lat.points.shape[0], 16)
        assert np.max(np.abs(waves - direct)) < 1e-14

    @pytest.mark.parametrize("n", [8, 9, 128])
    def test_node_axes_come_with_the_lattice(self, n):
        # make_lattice fills node_axes from the nonzero pass that builds points
        lat = make_lattice(n)
        assert "node_axes" in vars(lat)
        iy, ix = lat.node_axes
        ref_iy, ref_ix = np.nonzero(lat.mask)
        assert np.array_equal(iy, ref_iy) and np.array_equal(ix, ref_ix)
        assert np.array_equal(lat.points, np.column_stack([lat.axis[ix], lat.axis[iy]]))
        for arr in (iy, ix):
            with pytest.raises(ValueError):
                arr[0] = 0


def _variant(g, cx, cy):
    """Variant g = j + 4 f of the square's group on integer coordinates: R^j F^f."""
    if g >= 4:
        cy = -cy
    for _ in range(g % 4):
        cx, cy = -cy, cx
    return cx, cy


class TestOrbits:
    @pytest.mark.parametrize("n, count", [(41, 158), (65, 388), (128, 1450), (256, 5807)])
    def test_each_node_is_its_variant_of_its_representative(self, n, count):
        # integer coordinates cx = 2 ix - (n - 1)
        lat = make_lattice(n)
        orbits = lat.orbits
        iy, ix = np.nonzero(lat.mask)
        cx, cy = 2 * ix - (n - 1), 2 * iy - (n - 1)
        reps = orbits.representatives[orbits.rows]
        for g in range(8):
            hit = orbits.variants == g
            got = _variant(g, cx[reps[hit]], cy[reps[hit]])
            assert np.array_equal(got[0], cx[hit]) and np.array_equal(got[1], cy[hit]), g
        wedge = (0 <= cy) & (cy <= cx)
        assert np.array_equal(orbits.representatives[orbits.rows[wedge]], np.flatnonzero(wedge))
        assert orbits.representatives.size == count == np.count_nonzero(wedge)

    def test_origin_axis_and_diagonal_nodes(self):
        # on 65^2 the origin is a node and stands alone; axis and diagonal
        # nodes have four images each, interior wedge nodes eight
        lat = make_lattice(65)
        orbits = lat.orbits
        iy, ix = np.nonzero(lat.mask)
        cx, cy = 2 * ix - 64, 2 * iy - 64
        sizes = np.bincount(orbits.rows)[orbits.rows]
        origin = (cx == 0) & (cy == 0)
        assert np.count_nonzero(origin) == 1 and np.all(sizes[origin] == 1)
        assert np.all(orbits.variants[origin] == 0)
        axis_or_diagonal = ((cx == 0) | (cy == 0) | (np.abs(cx) == np.abs(cy))) & ~origin
        assert np.all(sizes[axis_or_diagonal] == 4)
        assert np.all(sizes[~axis_or_diagonal & ~origin] == 8)

    def test_built_on_first_use(self):
        # make_lattice leaves the orbits out, so paths without the mode series
        # pay nothing, and a lattice builds them once
        lat = make_lattice(128)
        assert "orbits" not in vars(lat)
        assert lat.orbits is lat.orbits


class TestImageMap:
    def test_outside_values_zeroed(self):
        lat = make_lattice(16)
        imap = ImageMap(lattice=lat, values=np.ones(lat.mask.shape))
        assert np.all(imap.values[~lat.mask] == 0.0)
        assert np.all(imap.inside_values == 1.0)

    def test_shape_mismatch_rejected(self):
        lat = make_lattice(16)
        with pytest.raises(ConfigError):
            ImageMap(lattice=lat, values=np.zeros((8, 8)))

    def test_from_point_values_round_trip(self):
        lat = make_lattice(16)
        pv = np.arange(lat.points.shape[0], dtype=float)
        imap = from_point_values(lat, pv)
        assert np.array_equal(imap.inside_values, pv)

    def test_from_point_values_wrong_length(self):
        lat = make_lattice(16)
        with pytest.raises(ConfigError):
            from_point_values(lat, np.zeros(3))


class TestTopQuantileDistance:
    def test_peak_on_curve_scores_near_zero(self):
        lat = make_lattice(64)
        disc = discretize(builtin_curve("sigma1"), 200)
        dists = np.array(
            [np.min(np.hypot(*(disc.nodes - p).T)) for p in lat.points]
        )
        imap = from_point_values(lat, np.exp(-((dists / 0.05) ** 2)))
        score = top_quantile_distance(imap, disc, quantile=0.01)
        assert score < 0.05

    def test_uniform_bright_ring_scores_large(self):
        lat = make_lattice(64)
        disc = discretize(builtin_curve("sigma1"), 200)
        radii = np.hypot(lat.points[:, 0], lat.points[:, 1])
        imap = from_point_values(lat, np.exp(-(((radii - 0.9) / 0.02) ** 2)))
        score = top_quantile_distance(imap, disc, quantile=0.01)
        assert score > 0.3

    def test_bad_quantile_rejected(self):
        lat = make_lattice(16)
        imap = from_point_values(lat, np.ones(lat.points.shape[0]))
        with pytest.raises(ConfigError):
            top_quantile_distance(imap, discretize(builtin_curve("sigma1"), 40), quantile=0.0)


# Floats whose shortest repr takes each of repr's forms: signed zero, the
# smallest subnormal, the switch to exponent notation at 1e-4 and 1e16, and
# the largest finite double.
EDGE_FLOATS = (-0.0, 5e-324, 1e-05, 9.999999999999999e-05, 1e16, 1.7976931348623157e308)


def _per_row_csv_text(imap: ImageMap) -> str:
    """The map CSV as the earlier writer formed it, one f-string per node."""
    lines = [
        "# thinimage map v1",
        f"# lattice {imap.lattice.mask.shape[1]} {imap.lattice.mask.shape[0]}",
        "# clip_radius 0.95",
        "# columns x y value",
    ]
    for (x, y), v in zip(imap.lattice.points, imap.inside_values):
        lines.append(f"{float(x)!r} {float(y)!r} {float(v)!r}")
    return "\n".join(lines) + "\n"


def _per_row_pgm_text(imap: ImageMap) -> str:
    """The PGM as the earlier writer formed it, one str(int) per pixel."""
    vals = imap.inside_values
    vmin, vmax = float(np.min(vals)), float(np.max(vals))
    ny, nx = imap.lattice.mask.shape
    pix = np.zeros((ny, nx), dtype=int)
    if vmax > vmin:
        scaled = (imap.values - vmin) / (vmax - vmin)
        pix[imap.lattice.mask] = np.rint(255.0 * scaled[imap.lattice.mask]).astype(int)
    lines = ["P2", f"# value range {vmin!r} {vmax!r}", f"{nx} {ny}", "255"]
    for iy in range(ny - 1, -1, -1):
        lines.append(" ".join(str(int(p)) for p in pix[iy]))
    return "\n".join(lines) + "\n"


def _edge_map(n: int) -> ImageMap:
    lat = make_lattice(n)
    vals = np.random.default_rng(n).normal(size=lat.points.shape[0])
    edges = np.array(EDGE_FLOATS)
    vals[: edges.size] = edges
    vals[-edges.size : -1] = -edges[:-1]  # not -max: max - min would overflow
    return from_point_values(lat, vals)


class TestWriters:
    def make_map(self, n=24):
        lat = make_lattice(n)
        rng = np.random.default_rng(9)
        return from_point_values(lat, rng.normal(size=lat.points.shape[0]))

    def test_csv_rewrite_is_byte_identical(self, tmp_path):
        imap = self.make_map()
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_map_csv(imap, p1)
        save_map_csv(imap, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_csv_row_count_and_header(self, tmp_path):
        imap = self.make_map()
        path = tmp_path / "m.csv"
        save_map_csv(imap, path)
        lines = path.read_text().strip().split("\n")
        header = [ln for ln in lines if ln.startswith("#")]
        body = [ln for ln in lines if not ln.startswith("#")]
        assert any("columns x y value" in ln for ln in header)
        assert len(body) == imap.lattice.points.shape[0]

    def test_csv_values_round_trip_exactly(self, tmp_path):
        imap = self.make_map()
        path = tmp_path / "m.csv"
        save_map_csv(imap, path)
        body = [
            ln for ln in path.read_text().strip().split("\n") if not ln.startswith("#")
        ]
        vals = np.array([float(ln.split()[2]) for ln in body])
        assert np.array_equal(vals, imap.inside_values)

    def test_pgm_structure(self, tmp_path):
        imap = self.make_map()
        path = tmp_path / "m.pgm"
        save_map_pgm(imap, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "P2"
        assert lines[1].startswith("# value range")
        nx, ny = (int(t) for t in lines[2].split())
        assert (ny, nx) == imap.lattice.mask.shape
        assert lines[3] == "255"
        pix = [int(t) for ln in lines[4:] for t in ln.split()]
        assert len(pix) == nx * ny
        assert min(pix) >= 0 and max(pix) <= 255

    def test_pgm_extremes_hit_0_and_255(self, tmp_path):
        imap = self.make_map()
        path = tmp_path / "m.pgm"
        save_map_pgm(imap, path)
        lines = path.read_text().strip().split("\n")
        pix = np.array([int(t) for ln in lines[4:] for t in ln.split()]).reshape(
            imap.lattice.mask.shape[::-1][0], -1
        )
        flat = pix[::-1][imap.lattice.mask]
        assert flat.max() == 255
        assert flat.min() == 0

    def test_pgm_rewrite_is_byte_identical(self, tmp_path):
        imap = self.make_map()
        p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
        save_map_pgm(imap, p1)
        save_map_pgm(imap, p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("n", [41, 128])
    def test_csv_matches_the_per_row_writer(self, tmp_path, n):
        imap = _edge_map(n)
        path = tmp_path / "m.csv"
        save_map_csv(imap, path)
        assert path.read_bytes() == _per_row_csv_text(imap).encode("ascii")

    @pytest.mark.parametrize("n", [41, 128])
    def test_pgm_matches_the_per_row_writer(self, tmp_path, n):
        # the largest double in the map leaves every other pixel at 0; the
        # same values clipped to [-3, 3] spread over the full gray range
        imap = _edge_map(n)
        for values in (imap.inside_values, np.clip(imap.inside_values, -3.0, 3.0)):
            scaled = from_point_values(imap.lattice, values)
            path = tmp_path / "m.pgm"
            save_map_pgm(scaled, path)
            assert path.read_bytes() == _per_row_pgm_text(scaled).encode("ascii")

    def test_flat_pgm_matches_the_per_row_writer(self, tmp_path):
        lat = make_lattice(41)
        imap = from_point_values(lat, np.full(lat.points.shape[0], -0.5))
        path = tmp_path / "m.pgm"
        save_map_pgm(imap, path)
        text = path.read_text()
        assert path.read_bytes() == _per_row_pgm_text(imap).encode("ascii")
        assert "# value range -0.5 -0.5" in text
        assert {int(t) for line in text.split("\n")[4:] for t in line.split()} == {0}
