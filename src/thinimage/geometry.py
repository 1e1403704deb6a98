"""Supporting curves, their quadrature discretizations, and boundary grids.

An inclusion is a thin tubular neighborhood of a smooth simple curve strictly
inside the unit disk. Curves are parameterized maps s -> (x(s), y(s)) on a
closed interval; integrals over a curve use composite 4-point Gauss-Legendre
panels with arc-length weights, and each node carries a unit tangent/normal
frame (normal = tangent rotated by +90 degrees).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, GeometryError

_PANEL_ORDER = 4
_PANEL_NODES, _PANEL_WEIGHTS = np.polynomial.legendre.leggauss(_PANEL_ORDER)
_MIN_CLEARANCE = 0.1


@dataclass(frozen=True)
class ParametricCurve:
    """Open curve s -> (fx(s), fy(s)) on [s_min, s_max].

    dfx/dfy are the analytic derivative callables; they are required.
    """

    label: str
    s_min: float
    s_max: float
    fx: Callable[[np.ndarray], np.ndarray]
    fy: Callable[[np.ndarray], np.ndarray]
    dfx: Callable[[np.ndarray], np.ndarray]
    dfy: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self) -> None:
        if not (-math.inf < self.s_min < self.s_max < math.inf):
            raise GeometryError(
                f"parameter range [{self.s_min}, {self.s_max}] must be finite and non-empty"
            )

    def points(self, s) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        return np.stack([np.asarray(self.fx(s), dtype=float), np.asarray(self.fy(s), dtype=float)], axis=-1)

    def velocity(self, s) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        return np.stack(
            [np.asarray(self.dfx(s), dtype=float), np.asarray(self.dfy(s), dtype=float)], axis=-1
        )


def poly_sin_curve(
    label: str,
    s_min: float,
    s_max: float,
    x_shift: float = 0.0,
    y_poly: Sequence[float] = (0.0,),
    y_sin_amp: float = 0.0,
    y_sin_freq: float = 0.0,
    y_sin_phase: float = 0.0,
) -> ParametricCurve:
    """Graph-like curve (s + x_shift, poly(s) + amp*sin(freq*(s + phase)))."""
    coeffs = np.asarray(list(y_poly), dtype=float)
    if coeffs.size == 0:
        raise ConfigError("y_poly needs at least one coefficient")
    with np.errstate(over="ignore"):  # discretize refuses a curve with an infinite slope
        dcoeffs = coeffs[1:] * np.arange(1, coeffs.size)

    def fy(s):
        return np.polyval(coeffs[::-1], s) + y_sin_amp * np.sin(y_sin_freq * (s + y_sin_phase))

    def dfy(s):
        base = np.polyval(dcoeffs[::-1], s) if dcoeffs.size else np.zeros_like(s)
        return base + y_sin_amp * y_sin_freq * np.cos(y_sin_freq * (s + y_sin_phase))

    return ParametricCurve(
        label,
        float(s_min),
        float(s_max),
        fx=lambda s: s + x_shift,
        fy=fy,
        dfx=lambda s: np.ones_like(s),
        dfy=dfy,
    )


# name: s_min, s_max, x_shift, y_poly, y_sin_amp, y_sin_freq, y_sin_phase (of poly_sin_curve)
BUILTIN_CURVES = {
    "sigma1": (-0.5, 0.5, -0.2, (0.5, 0.0, -0.5), 0.0, 0.0, 0.0),
    "sigma2": (-0.5, 0.5, 0.2, (-0.6, 0.0, 1.0, 1.0), 0.0, 0.0, 0.0),
    "sigma3": (-0.7, 0.7, 0.0, (0.0, 0.0, 0.5), 0.1, 3.0 * math.pi, 0.7),
}


def builtin_curve(label: str) -> ParametricCurve:
    """Return one of the built-in supporting curves sigma1, sigma2, sigma3."""
    if label not in BUILTIN_CURVES:
        raise ConfigError(f"unknown builtin curve {label!r}")
    return poly_sin_curve(label, *BUILTIN_CURVES[label])


@dataclass(frozen=True)
class CurveDiscretization:
    """Quadrature nodes of a curve with weights and unit frames.

    Arrays are read-only after construction. ``weights`` carry the arc-length
    measure, so sum(weights) approximates the curve length.
    """

    nodes: np.ndarray
    weights: np.ndarray
    tangents: np.ndarray
    normals: np.ndarray

    def __post_init__(self) -> None:
        for arr in (self.nodes, self.weights, self.tangents, self.normals):
            arr.setflags(write=False)

    @property
    def longest_panel(self) -> float:
        """Arc length of the longest panel of 4 consecutive nodes, as ``discretize`` lays them."""
        with np.errstate(over="ignore"):  # a panel that overflows is inf, longer than any bound
            return float(np.max(np.sum(self.weights.reshape(-1, _PANEL_ORDER), axis=1)))


# Node rows per block of _min_gap_squared
_GAP_ROWS = 64


def _min_gap_squared(pts: np.ndarray) -> float:
    """min |x_i - x_j|^2 over the node pairs j >= i + 2, ``_GAP_ROWS`` rows i at a time.

    Squared distances, since hypot is slow; no (n, n) array is formed.
    """
    n = pts.shape[0]
    # row lo + a of a block reaches column lo + 2 + b for b >= a
    reach = np.arange(n - 2)[None, :] >= np.arange(_GAP_ROWS)[:, None]
    best = np.inf
    for lo in range(0, n - 2, _GAP_ROWS):
        rows = pts[lo : min(lo + _GAP_ROWS, n - 2)]
        dx = rows[:, None, 0] - pts[None, lo + 2 :, 0]
        dy = rows[:, None, 1] - pts[None, lo + 2 :, 1]
        gap = dx * dx + dy * dy
        valid = reach[: gap.shape[0], : gap.shape[1]]
        best = min(best, float(np.min(gap, initial=np.inf, where=valid)))
    return best


def discretize(curve: ParametricCurve, m_nodes: int) -> CurveDiscretization:
    """Discretize a curve with composite 4-point Gauss-Legendre panels.

    Parameters
    ----------
    curve : ParametricCurve
    m_nodes : int
        Requested node count (at least 8); rounded up to a multiple of the
        panel order.

    Returns
    -------
    CurveDiscretization

    Raises
    ------
    GeometryError
        If a node or a velocity is not finite, the parameterization is
        degenerate (vanishing velocity), the node chain self-intersects, or the
        curve leaves the clearance region |x| <= 1 - 0.1.
    """
    if m_nodes < 8:
        raise ConfigError(f"m_nodes must be at least 8, got {m_nodes}")
    panels = -(-m_nodes // _PANEL_ORDER)
    edges = np.linspace(curve.s_min, curve.s_max, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    s = (mid[:, None] + half[:, None] * _PANEL_NODES[None, :]).reshape(-1)
    w_param = (half[:, None] * _PANEL_WEIGHTS[None, :]).reshape(-1)

    with np.errstate(invalid="ignore", over="ignore"):  # the checks below refuse what overflows
        pts = curve.points(s)
        vel = curve.velocity(s)
        r_max = np.max(np.hypot(pts[:, 0], pts[:, 1]))
    # NaN fails every comparison below, so it would pass them all
    if not (np.all(np.isfinite(pts)) and np.all(np.isfinite(vel))):
        raise GeometryError("curve has a non-finite node or velocity")
    speed = np.hypot(vel[:, 0], vel[:, 1])
    if np.any(speed < 1e-12):
        bad = s[np.argmin(speed)]
        raise GeometryError(f"degenerate parameterization: |velocity| ~ 0 near s = {bad:.6g}")
    tangents = vel / speed[:, None]
    normals = np.column_stack([-tangents[:, 1], tangents[:, 0]])
    weights = w_param * speed

    if r_max > 1.0 - _MIN_CLEARANCE + 1e-12:
        shown = f"{r_max:.4f}" if r_max < 1e4 else f"{r_max:.4e}"
        raise GeometryError(
            f"curve violates the boundary clearance: max |x| = {shown} > {1.0 - _MIN_CLEARANCE}"
        )

    # Simple-curve check: non-adjacent nodes (j >= i + 2) must stay more than 1e-12 apart
    if _min_gap_squared(pts) <= 1e-24:
        raise GeometryError("curve discretization self-intersects")

    return CurveDiscretization(
        nodes=pts,
        weights=weights,
        tangents=tangents,
        normals=normals,
    )


@dataclass(frozen=True)
class ThinInclusion:
    """Thin penetrable inclusion: supporting curve, half-thickness, materials.

    The inclusion holds finite positive (eps, mu) in the background of the disk
    kernel and the incident waves, eps = mu = 1; the half-thickness h must be
    small against the incident wavelengths (checked where frequencies are known).
    """

    curve: ParametricCurve
    h: float = 0.02
    eps: float = 5.0
    mu: float = 5.0

    def __post_init__(self) -> None:
        if not (self.h > 0.0):
            raise ConfigError(f"half-thickness must be positive, got {self.h}")
        for name in ("eps", "mu"):
            if not (0.0 < getattr(self, name) < math.inf):
                raise ConfigError(f"{name} must be positive and finite, got {getattr(self, name)}")

    def layer_coefficients(self) -> tuple[float, float, float]:
        """(gamma, alpha, beta) = (eps - 1, 2(1/mu - 1), 2(1 - mu)), the first-order layer model.

        The trace of wave U is h int [w^2 gamma U N + alpha (grad U.t)(grad N.t)
        + beta (grad U.n)(grad N.n)] ds over the curve, N the disk's Neumann
        function; alpha and beta are the polarization tensor's eigenvalues along
        the tangent t and the normal n. Synthesis and the model maps read it here alone.
        """
        return self.eps - 1.0, 2.0 * (1.0 / self.mu - 1.0), 2.0 * (1.0 - self.mu)


@dataclass(frozen=True)
class BoundaryGrid:
    """Equispaced measurement points on the unit circle with trapezoid weights."""

    n_points: int
    angles: np.ndarray = field(init=False)
    points: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        if self.n_points < 16:
            raise ConfigError(f"boundary grid needs at least 16 points, got {self.n_points}")
        angles = 2.0 * math.pi * np.arange(1, self.n_points + 1) / self.n_points
        points = np.column_stack([np.cos(angles), np.sin(angles)])
        angles.setflags(write=False)
        points.setflags(write=False)
        object.__setattr__(self, "angles", angles)
        object.__setattr__(self, "points", points)

    @property
    def weight(self) -> float:
        return 2.0 * math.pi / self.n_points


def boundary_grid(n_points: int) -> BoundaryGrid:
    return BoundaryGrid(n_points)


def distance_to_curve(points, disc: CurveDiscretization) -> np.ndarray:
    """Distances (P,) from (P, 2) points to a discretized curve.

    Nearest-node search refined by projection onto the chords adjacent to the
    nearest node, so the result is accurate to O(node spacing squared).
    """
    pts = np.asarray(points, dtype=float)
    nodes = disc.nodes
    out = np.empty(len(pts))
    # Chunk the distance matrix to keep memory bounded for large point sets.
    step = max(1, 4_000_000 // max(len(nodes), 1))
    for lo in range(0, len(pts), step):
        chunk = pts[lo : lo + step]
        d = np.hypot(chunk[:, None, 0] - nodes[None, :, 0], chunk[:, None, 1] - nodes[None, :, 1])
        nearest = np.argmin(d, axis=1)
        best = d[np.arange(len(chunk)), nearest]
        for a_idx in (nearest - 1, nearest):
            valid = (a_idx >= 0) & (a_idx + 1 < len(nodes))
            a = nodes[np.clip(a_idx, 0, len(nodes) - 1)]
            b = nodes[np.clip(a_idx + 1, 0, len(nodes) - 1)]
            ab = b - a
            denom = np.sum(ab * ab, axis=1)
            tau = np.clip(np.sum((chunk - a) * ab, axis=1) / np.maximum(denom, 1e-300), 0.0, 1.0)
            proj = a + tau[:, None] * ab
            seg = np.hypot(chunk[:, 0] - proj[:, 0], chunk[:, 1] - proj[:, 1])
            best = np.where(valid, np.minimum(best, seg), best)
        out[lo : lo + step] = best
    return out
