"""Ridge extraction, Chebyshev curve fitting, and data discrepancy norms.

An imaging map localizes a thin inclusion as a bright ridge. This module
turns that ridge into an explicit parametric curve: threshold the map at a
high quantile, thin the selected nodes to one point per lattice column, and
fit a Chebyshev expansion of the ridge height as a function of the abscissa.
`initial_guesses` states the run's policy for this, one curve per
inclusion. The fitted curve can then be fed back through the forward model;
discrepancy norms between measured and recomputed boundary data quantify how
well the guess explains the data.

Column thinning assumes the inclusion is a graph over the x axis, which
holds for the built-in curves. Strongly folded curves would need a
different reduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev as cheb

from .errors import ConfigError, FitError, RidgeError
from .forward import BoundaryDataset
from .geometry import ParametricCurve
from .maps import ImageMap

_EIGHT_NEIGHBORHOOD = np.ones((3, 3), dtype=int)
_RIDGE_QUANTILE = 0.01
# ridge points further out than this radius are sidelobe pickups: supporting
# curves must keep a clearance inside the unit disk, so the fit ignores them
_RIDGE_RADIUS = 0.85


@dataclass(frozen=True)
class ChebyshevCurve:
    """Graph curve s -> (s, sum_p c_p T_p(u(s))) over the interval [a, b].

    T_p is the Chebyshev polynomial of the first kind and u maps [a, b]
    affinely onto [-1, 1].
    """

    a: float
    b: float
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        if not self.a < self.b:
            raise ConfigError(f"degenerate interval [{self.a}, {self.b}]")
        c = np.asarray(self.coeffs, dtype=float)
        if c.ndim != 1 or c.size < 2:
            raise ConfigError("need at least two coefficients (degree >= 1)")
        if not np.all(np.isfinite(c)):
            raise ConfigError("coefficients must be finite")
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    def _rescale(self, s: np.ndarray) -> np.ndarray:
        return (2.0 * s - self.a - self.b) / (self.b - self.a)

    def evaluate(self, s) -> np.ndarray:
        """Height of the curve at abscissa s (scalar or array)."""
        return cheb.chebval(self._rescale(np.asarray(s, dtype=float)), self.coeffs)

    def derivative(self, s) -> np.ndarray:
        """Slope dy/ds at abscissa s (scalar or array)."""
        slope = cheb.chebder(self.coeffs, scl=2.0 / (self.b - self.a))
        return cheb.chebval(self._rescale(np.asarray(s, dtype=float)), slope)

    def as_parametric(self, label: str = "fitted") -> ParametricCurve:
        """Wrap the graph as a parametric curve with analytic derivatives."""
        return ParametricCurve(
            label=label,
            s_min=self.a,
            s_max=self.b,
            fx=lambda s: np.asarray(s, dtype=float),
            fy=self.evaluate,
            dfx=lambda s: np.ones_like(np.asarray(s, dtype=float)),
            dfy=self.derivative,
        )


@dataclass(frozen=True)
class DiscrepancyReport:
    """Direction-averaged discrepancy norms between two boundary datasets."""

    n1: float
    n2: float
    n_inf: float
    omega: float


def _linear_quantile(values: np.ndarray, q: float) -> float:
    """``np.quantile(values, q)`` by numpy's default linear rule, bit for bit.

    Taken from a partition: ``np.quantile`` imports ``numpy.ma`` on first
    use, which every fresh run would pay for. The partition takes numpy's
    pivots, so that of equal values (0.0 and -0.0) it picks the same one.
    """
    last = values.size - 1
    position = last * q
    lo = min(math.floor(position), last)
    hi = min(lo + 1, last)
    part = np.partition(values, sorted({0, lo, hi, last}))
    a, b = float(part[lo]), float(part[hi])
    t = position - lo
    # numpy's lerp: from the nearer end
    return b - (b - a) * (1.0 - t) if t >= 0.5 else a + (b - a) * t


def _selected_mask(imap: ImageMap, quantile: float) -> np.ndarray:
    if not 0.0 < quantile < 1.0:
        raise ConfigError(f"quantile must lie in (0, 1), got {quantile}")
    threshold = _linear_quantile(imap.inside_values, 1.0 - quantile)
    selected = imap.lattice.mask & (imap.values > threshold)
    if not np.any(selected):
        raise RidgeError("no lattice node rises above the quantile threshold")
    return selected


def _thin_columns(imap: ImageMap, selected: np.ndarray) -> np.ndarray:
    # one point per lattice column: the row of largest value
    masked = np.where(selected, imap.values, -np.inf)
    rows = np.argmax(masked, axis=0)
    has = np.any(selected, axis=0)
    axis = imap.lattice.axis
    return np.column_stack([axis[has], axis[rows[has]]])


def extract_ridge(imap: ImageMap, quantile: float = 0.01) -> np.ndarray:
    """Ridge points of an imaging map.

    Selects lattice nodes whose value exceeds the (1 - quantile) quantile
    of the in-disk values, then keeps one node per lattice column (the
    per-column maximum). A constant map has no node strictly above its
    own quantile and raises.

    Parameters
    ----------
    imap : ImageMap
    quantile : float
        Selected fraction, strictly between 0 and 1.

    Returns
    -------
    ndarray, shape (R, 2)
        Ridge points ordered by increasing x.
    """
    return _thin_columns(imap, _selected_mask(imap, quantile))


def clustered_ridges(
    imap: ImageMap, quantile: float = 0.01, min_points: int = 1
) -> list[np.ndarray]:
    """Ridge points split into 8-connected clusters, largest first.

    Same selection rule as extract_ridge, but the selected nodes are first
    grouped by lattice connectivity so each inclusion of a multi-inclusion
    scene yields its own point set. Clusters with fewer than min_points
    thinned points are dropped.
    """
    # imported here: only multi-inclusion runs label clusters, and the import
    # would otherwise add to every start of the command line
    from scipy import ndimage

    selected = _selected_mask(imap, quantile)
    labels, count = ndimage.label(selected, structure=_EIGHT_NEIGHBORHOOD)
    ridges = []
    for lab in range(1, count + 1):
        pts = _thin_columns(imap, labels == lab)
        if pts.shape[0] >= min_points:
            ridges.append(pts)
    ridges.sort(key=lambda pts: -pts.shape[0])
    return ridges


def chebyshev_fit(points: np.ndarray, degree: int = 5) -> ChebyshevCurve:
    """Least-squares Chebyshev fit of ridge points as a graph over x.

    The interval is [min x, max x], mapped affinely onto [-1, 1].

    Parameters
    ----------
    points : ndarray, shape (R, 2)
    degree : int
        Highest polynomial order q; needs more than q distinct abscissae.

    Returns
    -------
    ChebyshevCurve
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ConfigError(f"expected points of shape (R, 2), got {pts.shape}")
    if degree < 1:
        raise ConfigError(f"degree must be at least 1, got {degree}")
    x = pts[:, 0]
    y = pts[:, 1]
    # a sort and a diff, not np.unique, which imports numpy.ma on first use
    distinct = int(np.count_nonzero(np.diff(np.sort(x)))) + min(x.size, 1)
    if distinct <= degree:
        raise FitError(f"need more than {degree} distinct abscissae, got {distinct}")
    a = float(np.min(x))
    b = float(np.max(x))
    design = cheb.chebvander((2.0 * x - a - b) / (b - a), degree)
    coeffs, *_ = np.linalg.lstsq(design, y, rcond=None)
    return ChebyshevCurve(a=a, b=b, coeffs=coeffs)


def initial_guesses(imap: ImageMap, n_curves: int, degree: int) -> list[ChebyshevCurve]:
    """The run's initial guess: Chebyshev fits of the map's ridges.

    One curve fits the ridge of extract_ridge. More curves fit the n_curves
    largest 8-connected clusters of clustered_ridges that hold at least
    degree + 3 points, largest first, so fewer fits may come back; with no
    such cluster it raises RidgeError. Ridge points farther than 0.85 from
    the origin are dropped before each fit.
    """
    if n_curves > 1:
        point_sets = clustered_ridges(imap, _RIDGE_QUANTILE, min_points=degree + 3)[:n_curves]
        if not point_sets:
            raise RidgeError(f"no ridge cluster holds degree + 3 = {degree + 3} points")
    else:
        point_sets = [extract_ridge(imap, _RIDGE_QUANTILE)]
    return [
        chebyshev_fit(pts[np.hypot(pts[:, 0], pts[:, 1]) <= _RIDGE_RADIUS], degree)
        for pts in point_sets
    ]


def discrete_norms(
    true_data: BoundaryDataset, comp_data: BoundaryDataset, k_index: int = 0
) -> DiscrepancyReport:
    """Direction-averaged l1/l2/sup norms of the trace difference.

    With D the difference of the two trace arrays at frequency k_index,
    n1 averages the nodewise absolute sums over directions, n2 averages
    the nodewise Euclidean norms, and n_inf averages the nodewise maxima.

    Raises
    ------
    ConfigError
        If the boundary grids or incident sets differ.
    IndexError
        If k_index is out of range.
    """
    if not np.array_equal(true_data.grid.angles, comp_data.grid.angles):
        raise ConfigError("boundary grids differ")
    if not np.array_equal(true_data.incident.directions, comp_data.incident.directions):
        raise ConfigError("incident direction sets differ")
    if not np.array_equal(true_data.incident.omegas, comp_data.incident.omegas):
        raise ConfigError("frequency sets differ")
    omegas = true_data.incident.omegas
    if not 0 <= k_index < omegas.size:
        raise IndexError(f"frequency index {k_index} outside 0..{omegas.size - 1}")
    delta = np.abs(true_data.traces[:, :, k_index] - comp_data.traces[:, :, k_index])
    return DiscrepancyReport(
        n1=float(np.mean(np.sum(delta, axis=0))),
        n2=float(np.mean(np.sqrt(np.sum(delta**2, axis=0)))),
        n_inf=float(np.mean(np.max(delta, axis=0))),
        omega=float(omegas[k_index]),
    )


def format_fit_report(
    rows: list[tuple[str, ChebyshevCurve, DiscrepancyReport | None]]
) -> str:
    """Text table of fitted coefficients and discrepancy norms.

    Each row is (label, curve, report or None). Coefficient columns run to
    the largest degree present; shorter expansions leave blanks.
    """
    if not rows:
        raise ConfigError("need at least one fitted curve")
    max_deg = max(curve.degree for _, curve, _ in rows)
    header = ["curve", "a", "b"]
    header += [f"c{p}" for p in range(max_deg + 1)]
    header += ["N1", "N2", "Ninf"]
    table = [header]
    for label, curve, report in rows:
        cells = [label, f"{curve.a:.4f}", f"{curve.b:.4f}"]
        cells += [f"{c:.4f}" for c in curve.coeffs]
        cells += [""] * (max_deg - curve.degree)
        if report is None:
            cells += ["", "", ""]
        else:
            cells += [f"{report.n1:.4f}", f"{report.n2:.4f}", f"{report.n_inf:.4f}"]
        table.append(cells)
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    lines = [
        "  ".join(cell.rjust(width) for cell, width in zip(row, widths))
        for row in table
    ]
    return "\n".join(lines) + "\n"
