"""Topological-derivative imaging maps and their closed-form kernel models.

The imaging functional evaluates, at every lattice node z, the leading-order
sensitivity of the boundary data misfit to dropping a vanishingly small
inclusion at z. Both sensitivity components come from one adjoint field per
direction: the solution of the background Helmholtz problem whose Neumann
boundary flux equals the measured scattered trace. The permittivity component
pairs the adjoint with the incident wave, the permeability component pairs
their gradients.

The closed-form model at the end of the module, ``band_kernel_maps``, pairs
the incident waves over the known curve alone, integrated across the
frequency band. It leaves out the adjoint's boundary factor (the disk kernel
composed with itself over the boundary) and the polarization sources (the
tangential and normal gradient terms of the first-order trace), so it is not
what the raw maps converge to. It gives the data-free oracle images
(``model_maps``), with no boundary data and no disk kernel involved; the
tests cross-check it against the single-frequency and direction-averaged
forms of the same pairing.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, FlatMapError
from .forward import (
    BoundaryDataset,
    DiskModes,
    IncidentSet,
    boundary_phases,
)
from .geometry import BoundaryGrid, CurveDiscretization, ThinInclusion, discretize
from .maps import ImageMap, Lattice, from_point_values

_FLAT_TOL = 1e-14
# inversion-side quadrature is kept at half synthesize's default node count
# (forward.SYNTHESIS_NODES) so model maps never ride the synthesis discretization
_MODEL_NODES = 200


# ---------------------------------------------------------------------------
# adjoint fields


def adjoint_field_batch(
    traces: np.ndarray,
    grid: BoundaryGrid,
    omega: float,
    points: np.ndarray,
    gradient: bool = False,
):
    """Adjoint fields at many interior points for one frequency.

    Parameters
    ----------
    traces : ndarray, shape (N, L)
        Scattered boundary values per direction; they act as the Neumann
        flux of the adjoint problem.
    grid : BoundaryGrid
    omega : float
    points : ndarray, shape (P, 2)
        Interior evaluation points, |z| < 1.
    gradient : bool
        Also return gradients, shape (P, L, 2).

    Returns
    -------
    v : ndarray, shape (P, L) complex
    gv : ndarray, shape (P, L, 2) complex, only when gradient is set.

    Notes
    -----
    v(z) is the boundary integral of the real disk kernel N(z, y) against the
    traces' trigonometric interpolant: the N samples fix its Fourier modes up
    to the Nyquist order N/2 and no further, so ``DiskModes`` sums the
    projections (2 pi/N) sum_b tr_b e^{-in phi_b}, n = 0..min(nmax, N/2),
    against J_n(w|z|) e^{in theta_z}. For even N the Nyquist mode splits evenly between
    orders +N/2 and -N/2, so its row is halved. Orders past N/2 would only
    repeat lower ones (on the grid e^{-i(N-n)phi_b} = e^{in phi_b}). The
    gradient comes from the same table with coefficients shifted by one order.
    """
    traces = np.asarray(traces, dtype=complex)
    if traces.ndim != 2 or traces.shape[0] != grid.n_points:
        raise ValueError(f"traces must have shape (N={grid.n_points}, L)")
    modes = DiskModes(omega, points)
    coefficients = _trace_modes(traces, grid, _trace_phases(grid, modes), modes.nmax[0])
    fields = modes.apply(coefficients, gradient)
    if not gradient:
        return fields.view(complex)
    v, gx, gy = (f.view(complex) for f in fields)
    return v, np.stack([gx, gy], axis=-1)


def _trace_phases(grid: BoundaryGrid, modes: DiskModes) -> np.ndarray:
    """The boundary phases e^{-in phi_b} ``_trace_modes`` reads at every frequency of ``modes``."""
    return boundary_phases(min(max(modes.nmax), grid.n_points // 2), grid.angles)


def _trace_modes(
    traces: np.ndarray, grid: BoundaryGrid, phases: np.ndarray, nmax: int
) -> np.ndarray:
    """Mode projections of the traces' real and imaginary parts, (min(nmax, N/2) + 1, 2L).

    Column 2l holds (2 pi/N) sum_b Re(tr_bl) e^{-in phi_b} in row n, column
    2l + 1 the same of Im(tr_bl); for even N the Nyquist row N/2 is halved
    (see ``adjoint_field_batch``). The kernel is real, so the fields of the
    two columns are the real and imaginary parts of direction l's field.
    ``phases`` (``_trace_phases``) is shared by a band: each frequency reads
    its leading rows.
    """
    top = min(nmax, grid.n_points // 2)
    columns = np.ascontiguousarray(traces, dtype=complex).view(float)
    coefficients = grid.weight * (phases[: top + 1] @ columns)
    if 2 * top == grid.n_points:
        coefficients[top] *= 0.5
    return coefficients


# ---------------------------------------------------------------------------
# topological-derivative maps


def td_component_maps(
    data: BoundaryDataset,
    lattice: Lattice,
    k_index: int = 0,
) -> tuple[ImageMap, ImageMap]:
    """Raw permittivity- and permeability-sensitivity maps at one frequency.

    The permittivity component is Re sum_l v_l conj(u_l); the permeability
    component is Re sum_l grad v_l . conj(grad u_l), with u_l the incident
    wave and v_l the adjoint field of direction l. The kernel is real, so the
    fields of a trace's real and imaginary parts are Re v_l and Im v_l, and
    grad u_l = i w d_l u_l leaves only the derivative D_l = d_l . grad v_l:

        eps = sum_l (Re v_l Re u_l + Im v_l Im u_l),
        mu = w sum_l (Im D_l Re u_l - Re D_l Im u_l).

    One ``DiskModes.pair`` gives both sums: v and D come as real (Re, Im)
    column pairs, each pair differentiated along its own direction, and each
    block of its product rows is summed against the (Re, Im) pairs of u, or
    of i u = (-Im u, Re u), as the block comes. u is gathered from the
    lattice's per-axis phase tables (``Lattice.wave_factors``); neither the
    fields nor u is ever formed on the whole lattice. On a standard set of
    4 | L directions, which the square's symmetries map onto itself bit for
    bit, each orbit node pairs with its representative's waves. The
    ``DiskModes`` takes the lattice's orbits, as in ``etd_multi``, so both
    give the same maps bit for bit.
    """
    if not 0 <= k_index < data.incident.n_frequencies:
        raise IndexError(f"frequency index {k_index} out of range")
    modes = DiskModes(data.incident.omegas[k_index], lattice.points, lattice.orbits)
    phases = _trace_phases(data.grid, modes)
    values = _component_values(data, lattice, k_index, modes, 0, phases)
    return tuple(from_point_values(lattice, v) for v in values)


def _component_values(
    data: BoundaryDataset,
    lattice: Lattice,
    k: int,
    modes: DiskModes,
    j: int,
    phases: np.ndarray,
):
    """The two point-value arrays of ``td_component_maps`` at the data's frequency k.

    They come from frequency j of ``modes``; ``phases`` is ``_trace_phases``
    of the data's grid and ``modes``.
    """
    omega = modes.omegas[j]
    directions = data.incident.directions
    coefficients = _trace_modes(data.traces[:, :, k], data.grid, phases, modes.nmax[j])
    eps_vals, mu_vals = modes.pair(
        coefficients, directions, lattice.wave_factors(omega, directions), k=j
    )
    return eps_vals, omega * mu_vals


def normalized_combination(eps_map: ImageMap, mu_map: ImageMap) -> ImageMap:
    """Average of the two components, each scaled by its peak magnitude.

    The output lies in [-1, 1] and each scaled component touches magnitude 1
    somewhere. A component that is essentially zero everywhere cannot be
    scaled and raises FlatMapError.
    """
    values = _normalized(eps_map.inside_values, mu_map.inside_values)
    return from_point_values(eps_map.lattice, values)


def _normalized(ev: np.ndarray, mv: np.ndarray) -> np.ndarray:
    """The point values of ``normalized_combination``."""
    emax = float(np.max(np.abs(ev)))
    mmax = float(np.max(np.abs(mv)))
    if emax < _FLAT_TOL or mmax < _FLAT_TOL:
        raise FlatMapError(
            "a sensitivity component is identically flat; check contrasts and data"
        )
    return 0.5 * (ev / emax + mv / mmax)


def etd_single(
    data: BoundaryDataset,
    lattice: Lattice,
    k_index: int = 0,
) -> ImageMap:
    """Normalized topological-derivative map at one frequency."""
    eps_map, mu_map = td_component_maps(data, lattice, k_index)
    return normalized_combination(eps_map, mu_map)


def etd_multi(
    data: BoundaryDataset,
    lattice: Lattice,
) -> ImageMap:
    """Multi-frequency map: the mean of the per-frequency normalized maps.

    One ``DiskModes`` covers the band on the lattice's orbits
    (``Lattice.orbits``), so its tables are built on the representatives
    only, and one table of boundary phases serves every frequency's trace
    modes. The frequencies are imaged one after another, each as
    ``etd_single`` images it: each block's product rows are reduced to their
    nodes' two map values as they come (``DiskModes.pair``), so no per-node
    field array and no whole-lattice wave table is formed. The normalized
    point values are summed in frequency order, with no map built per
    frequency. With a single frequency this reduces bitwise to the
    single-frequency map.
    """
    n_k = data.incident.n_frequencies
    modes = DiskModes(data.incident.omegas, lattice.points, lattice.orbits)
    phases = _trace_phases(data.grid, modes)
    acc = np.zeros(lattice.points.shape[0])
    for k in range(n_k):
        acc += _normalized(*_component_values(data, lattice, k, modes, k, phases))
    return from_point_values(lattice, acc / float(n_k))


# ---------------------------------------------------------------------------
# closed-form kernel models


def _mu_bracket(disc: CurveDiscretization, inclusion: ThinInclusion, direction) -> np.ndarray:
    """Per-node weight -alpha (d.t)^2 - beta (d.n)^2 of the permeability kernel.

    This is the polarization part of the multistatic bracket
    gamma - alpha (d_l.t)(d_j.t) - beta (d_l.n)(d_j.n) at j = l. It is even in
    d, like the phase cos(w d.(x-z)) it multiplies, so opposite directions add
    instead of cancelling.
    """
    d = np.asarray(direction, dtype=float)
    _, alpha, beta = inclusion.layer_coefficients()
    return -alpha * (disc.tangents @ d) ** 2 - (beta * (disc.normals @ d) ** 2)


def band_kernel_maps(
    lattice: Lattice,
    disc: CurveDiscretization,
    inclusion: ThinInclusion,
    directions: np.ndarray,
    omega_lo: float,
    omega_hi: float,
) -> tuple[ImageMap, ImageMap]:
    """Model maps with the frequency-band kernel, few directions.

    Integrating the plane-wave kernel across [omega_lo, omega_hi] replaces it
    with sinc(a s) cos(b s), s = d.(x-z), a and b the band half-width and
    center. The sinc envelope suppresses the oscillatory sidelobes that a
    single frequency leaves along each direction.
    """
    if not omega_hi > omega_lo:
        raise ConfigError("need omega_hi > omega_lo")
    half_width = 0.5 * (omega_hi - omega_lo)
    center = 0.5 * (omega_hi + omega_lo)
    pts = lattice.points
    gamma = inclusion.layer_coefficients()[0]
    eps_vals = np.zeros(pts.shape[0])
    mu_vals = np.zeros(pts.shape[0])
    for d in np.atleast_2d(np.asarray(directions, dtype=float)):
        s = (disc.nodes @ d)[None, :] - (pts @ d)[:, None]
        # np.sinc(x / pi) = sin(x) / x, with its limit 1 at x = 0
        kern = np.sinc(half_width * s / math.pi) * np.cos(center * s)
        eps_vals += kern @ (disc.weights * gamma)
        mu_vals += kern @ (disc.weights * _mu_bracket(disc, inclusion, d))
    return from_point_values(lattice, eps_vals), from_point_values(lattice, mu_vals)


def model_maps(lattice: Lattice, inclusions, incident: IncidentSet) -> tuple[ImageMap, ImageMap]:
    """Oracle model maps: each inclusion's ``band_kernel_maps`` over the band, summed.

    A one-frequency band w is widened to [w, w (1 + 1e-6)].
    """
    omega_lo, omega_hi = float(incident.omegas[0]), float(incident.omegas[-1])
    if omega_hi <= omega_lo:
        omega_hi = omega_lo * (1.0 + 1e-6)
    sums = np.zeros((2, lattice.points.shape[0]))
    for incl in inclusions:
        disc = discretize(incl.curve, _MODEL_NODES)
        maps = band_kernel_maps(lattice, disc, incl, incident.directions, omega_lo, omega_hi)
        sums += [imap.inside_values for imap in maps]
    return from_point_values(lattice, sums[0]), from_point_values(lattice, sums[1])
