"""Sampling lattices, image containers, a localization metric, and map output.

Maps live on a square lattice over [-1, 1]^2 with nodes kept only inside a
clip radius of 0.95, so evaluation points stay clear of the boundary
where the imaging kernels lose accuracy. Values are stored as a full raster
with zeros outside the clip mask; metrics only ever look inside the mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ConfigError
from .geometry import CurveDiscretization, distance_to_curve

_CLIP_RADIUS = 19 / 20  # make_lattice clips at this ratio in integer coordinates


class Orbits(NamedTuple):
    """Points grouped by a symmetry group of 8 variants g = j + 4 f, f in {0, 1}, j in 0..3.

    Variant g maps x to R^j F^f x, with F (x, y) = (x, -y) and R the quarter
    turn (x, y) = (-y, x); point p is variant ``variants[p]`` applied to
    point ``representatives[rows[p]]``.
    """

    representatives: np.ndarray  # (R,) point indices
    rows: np.ndarray  # (P,) each point's row in representatives
    variants: np.ndarray  # (P,) each point's variant


@dataclass(frozen=True)
class Lattice:
    """Square sampling lattice clipped to a disk.

    ``axis`` holds the node coordinates along either axis, so node (iy, ix)
    sits at (axis[ix], axis[iy]). ``mask[iy, ix]`` flags nodes with radius <=
    0.95; ``points`` lists the kept nodes, row-major over (iy, ix), and
    ``node_axes`` gives each one's (iy, ix). The lattice is the one source of
    the incident waves on them: ``wave_factors`` gives one phase table per
    axis, which the imaging maps gather from one block of nodes at a time
    (``forward.DiskModes.pair``), and migration and MUSIC at the orbit
    representatives; ``plane_waves`` multiplies them out into the (P, L)
    table (``imaging.single_frequency_kernel_maps``). ``orbits`` groups the
    nodes under the 8 rotations and reflections of the square, for the
    disk's mode series (``forward.DiskModes``) and the two baselines, whose
    nodes take their representative's value in their variant's direction
    order; for a set ``forward.direction_orders`` gives no orders for, every
    node is its own representative. It alone is built on first use.
    """

    axis: np.ndarray
    mask: np.ndarray
    points: np.ndarray
    node_axes: tuple[np.ndarray, np.ndarray]

    def wave_factors(self, omega: float, directions: np.ndarray):
        """The incident waves e^{i w d_l.z} by lattice axis: ((Y, iy), (X, ix)).

        The waves separate, e^{i w d.z} = e^{i w d_y y} e^{i w d_x x}: Y is
        the (n, L) table of e^{i w d_y y} and X the (n, L) one of
        e^{i w d_x x}, both over ``axis``, one column per direction, and the
        wave row of node p is Y[iy[p]] * X[ix[p]], with (iy, ix) = ``node_axes``.
        """
        iy, ix = self.node_axes
        return (
            (np.exp(1j * omega * np.outer(self.axis, directions[:, 1])), iy),
            (np.exp(1j * omega * np.outer(self.axis, directions[:, 0])), ix),
        )

    def plane_waves(self, omega: float, directions: np.ndarray) -> np.ndarray:
        """e^{i w d_l.z} at the kept nodes, shape (P, L) complex, one column per direction."""
        (y_waves, iy), (x_waves, ix) = self.wave_factors(omega, directions)
        waves = y_waves[iy]
        waves *= x_waves[ix]
        return waves

    @cached_property
    def orbits(self) -> Orbits:
        """The nodes' ``Orbits`` under the symmetries of the square.

        Nodes are grouped by integer index, cx = 2 ix - (n - 1) and likewise
        cy, not by float value: ``linspace(-1, 1, n)`` is not exactly
        antisymmetric. The representatives are the nodes with 0 <= cy <= cx,
        and a node on an axis or a diagonal takes the first variant that
        reaches it.
        """
        n = self.axis.size
        iy, ix = self.node_axes
        cx, cy = 2 * ix - (n - 1), 2 * iy - (n - 1)
        variants = np.empty(cx.size, dtype=np.int8)
        rep_x, rep_y = np.empty_like(cx), np.empty_like(cy)
        for g in range(7, -1, -1):  # downwards, so the lowest variant reaching a node wins
            # invert x -> R^j F^f x: j quarter turns back, then F
            x, y = cx, cy
            for _ in range(g % 4):
                x, y = y, -x
            if g >= 4:
                y = -y
            hit = (0 <= y) & (y <= x)
            variants[hit], rep_x[hit], rep_y[hit] = g, x[hit], y[hit]
        index = np.full(self.mask.shape, -1)
        index[iy, ix] = np.arange(cx.size)
        rep_nodes = index[(rep_y + n - 1) // 2, (rep_x + n - 1) // 2]
        representatives, rows = np.unique(rep_nodes, return_inverse=True)
        for arr in (representatives, rows, variants):
            arr.setflags(write=False)
        return Orbits(representatives, rows, variants)


def make_lattice(n: int = 128) -> Lattice:
    """Build an n-by-n lattice over [-1, 1]^2 clipped to the disk of radius 0.95.

    Node c / (n - 1), c = 2 i - (n - 1), is kept when 400 |c|^2 <= (19 (n - 1))^2
    in integers: the exact disk, with the square's 8 symmetries for every n.
    """
    if n < 8:
        raise ConfigError(f"lattice needs at least 8 nodes per side, got {n}")
    axis = np.linspace(-1.0, 1.0, n)
    c = 2 * np.arange(n) - (n - 1)
    mask = 400 * (c[:, None] ** 2 + c[None, :] ** 2) <= (19 * (n - 1)) ** 2
    iy, ix = np.nonzero(mask)
    points = np.column_stack([axis[ix], axis[iy]])
    for arr in (axis, mask, points, iy, ix):
        arr.setflags(write=False)
    return Lattice(axis=axis, mask=mask, points=points, node_axes=(iy, ix))


@dataclass(frozen=True)
class ImageMap:
    """Scalar image on a lattice; entries outside the clip mask are zero."""

    lattice: Lattice
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        mask = self.lattice.mask
        if vals.shape != mask.shape:
            raise ConfigError(f"values shape {vals.shape} != lattice shape {mask.shape}")
        if not np.all(np.isfinite(vals[mask])):
            raise ConfigError("map values must be finite inside the mask")
        vals = vals.copy()
        vals[~mask] = 0.0
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def inside_values(self) -> np.ndarray:
        return self.values[self.lattice.mask]


def from_point_values(lattice: Lattice, point_values: np.ndarray) -> ImageMap:
    """Assemble an ImageMap from values listed per kept lattice point."""
    pv = np.asarray(point_values, dtype=float)
    if pv.shape != (lattice.points.shape[0],):
        raise ConfigError(
            f"expected {lattice.points.shape[0]} point values, got shape {pv.shape}"
        )
    vals = np.zeros(lattice.mask.shape)
    vals[lattice.mask] = pv
    return ImageMap(lattice=lattice, values=vals)


def top_quantile_distance(
    imap: ImageMap, disc: CurveDiscretization, quantile: float = 0.01
) -> float:
    """Mean distance to the curve of the brightest quantile of lattice nodes.

    The threshold is the (1 - quantile) level of the inside-mask values;
    nodes at or above it count. Used as the localization score: small means
    the bright set hugs the inclusion.
    """
    if not (0.0 < quantile < 1.0):
        raise ConfigError(f"quantile must lie in (0, 1), got {quantile}")
    vals = imap.inside_values
    thr = float(np.quantile(vals, 1.0 - quantile))
    sel = vals >= thr
    pts = imap.lattice.points[sel]
    dists = distance_to_curve(pts, disc)
    return float(np.mean(dists))


def save_map_csv(imap: ImageMap, path) -> None:
    """Write inside-mask nodes as 'x y value' rows (bit-exact floats).

    Rows follow ``Lattice.points``: row-major over (iy, ix), y increasing,
    then x. The file is written one lattice row at a time, each coordinate
    formatted once.
    """
    lattice = imap.lattice
    with open(path, "w", encoding="ascii") as fh:
        fh.write(
            "# thinimage map v1\n"
            f"# lattice {lattice.mask.shape[1]} {lattice.mask.shape[0]}\n"
            f"# clip_radius {_CLIP_RADIUS!r}\n"
            "# columns x y value\n"
        )
        coords = [f"{c!r} " for c in lattice.axis.tolist()]
        vals = imap.inside_values.tolist()
        start = 0
        for y, row in zip(coords, lattice.mask):
            kept = np.flatnonzero(row).tolist()
            stop = start + len(kept)
            fh.write("".join([f"{coords[ix]}{y}{v!r}\n" for ix, v in zip(kept, vals[start:stop])]))
            start = stop


_GRAY_LEVELS = [str(level) for level in range(256)]


def save_map_pgm(imap: ImageMap, path) -> None:
    """Write a plain (P2) PGM rendering, 255 gray levels.

    Inside values are scaled linearly from [min, max] to [0, 255]; the
    original range is recorded in a header comment so intensities remain
    interpretable. Outside-mask pixels are 0, and so is every pixel of a flat
    map. Rows run top to bottom (y decreasing), columns left to right; the
    file is written one row at a time.
    """
    vals = imap.inside_values
    vmin = float(np.min(vals))
    vmax = float(np.max(vals))
    mask = imap.lattice.mask
    ny, nx = mask.shape
    pix = np.zeros((ny, nx), dtype=np.intp)
    if vmax > vmin:
        pix[mask] = np.rint(255.0 * ((vals - vmin) / (vmax - vmin)))
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"P2\n# value range {vmin!r} {vmax!r}\n{nx} {ny}\n255\n")
        for row in pix[::-1].tolist():
            fh.write(" ".join([_GRAY_LEVELS[p] for p in row]) + "\n")
