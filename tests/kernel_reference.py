"""Reference kernels that the tests hold the program to; no command calls them.

- ``neumann_function``: the disk's Neumann function for one point pair, the
  free-space Hankel kernel plus the Fourier-Bessel boundary correction. The
  program evaluates the kernel only with a source on the boundary, through
  ``forward.DiskModes``; the forward and imaging tests compare that (and the
  adjoint built on it) with quadratures of this function.
- ``plane_waves``: the (P, L) table of incident waves on the lattice nodes,
  multiplied out from ``Lattice.wave_factors``; the program gathers the
  factors one block of nodes at a time instead.
- ``single_frequency_kernel_maps`` and ``radial_band_maps``, with
  ``j0_band_integral``: the closed-form model maps that cross-check
  ``imaging.band_kernel_maps``, the family the oracle images use.

scipy supplies the Hankel kernel and the Y_n'; the J_n come from the
program's Miller table ``forward.bessel_j_table``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as sp

from thinimage.errors import ConfigError, GeometryError
from thinimage.forward import (
    RESONANCE_TOL,
    _positive_frequencies,
    _resonant,
    _series_order,
    bessel_j_table,
    jnp_values,
    resonance_error,
)
from thinimage.geometry import CurveDiscretization, ThinInclusion
from thinimage.imaging import _mu_bracket
from thinimage.maps import ImageMap, Lattice, from_point_values

# arguments per Bessel table in j0_band_integral: a table holds about
# x_max + 2 sqrt(40 x_max) rows of this many floats
_CHUNK = 4096


def neumann_function(
    x,
    y,
    omega: float,
    gradient: bool = False,
):
    """Neumann function N(x, y; omega) of the unit disk, one point pair.

    Parameters
    ----------
    x, y : array-like, shape (2,)
        Evaluation and source points. x may sit slightly outside the closed
        disk (up to |x| <= 1.001) so derivative probes across the boundary
        are possible; y must satisfy |y| <= 1.
    omega : float
        Frequency; rejected when within 1e-8 of a Neumann eigenvalue.
    gradient : bool
        Also return the gradient with respect to x.

    Returns
    -------
    complex or (complex, ndarray)
        The kernel value (imaginary part is a truncation residual; the exact
        kernel is real-valued), and optionally the x-gradient, shape (2,).
        A pair closer than 1e-12 (the kernel's diagonal) raises ValueError.
    """
    xp = np.asarray(x, dtype=float)
    yp = np.asarray(y, dtype=float)
    if xp.shape != (2,) or yp.shape != (2,):
        raise ValueError("x and y must be points in the plane")
    if not (np.all(np.isfinite(xp)) and np.all(np.isfinite(yp))):
        raise ValueError("points must be finite")
    _positive_frequencies(omega)
    rx = float(np.hypot(*xp))
    ry = float(np.hypot(*yp))
    if rx > 1.0 + 1e-3 or ry > 1.0 + 1e-12:
        raise GeometryError(f"points must lie in the closed disk (|x|={rx:.4f}, |y|={ry:.4f})")
    dvec = xp - yp
    dist = float(np.hypot(*dvec))
    if dist < 1e-12:
        raise ValueError("Neumann function evaluated on its diagonal")

    # with one point on the rim, only the other radius makes the series decay
    rho = max(rx * ry, ry if rx >= 0.98 else 0.0, rx if ry >= 0.98 else 0.0)
    trunc = _series_order(omega, rho)
    # one table: J_n(w) for the J_n'(w), and J_n(w|x|), J_n(w|y|)
    tab = bessel_j_table(trunc + 1, omega * np.array([1.0, rx, ry]))
    jnp, [cut] = jnp_values(tab[:, :1])
    if hits := _resonant(omega, jnp[:, 0], RESONANCE_TOL):
        raise resonance_error(omega, hits)
    nmax = min(trunc, int(cut))
    orders = np.arange(nmax + 1)
    jnp = jnp[: nmax + 1, 0]
    ynp = sp.yvp(orders, omega)
    jx_n, jy_n = tab[: nmax + 1, 1], tab[: nmax + 1, 2]

    tx = math.atan2(xp[1], xp[0]) if rx > 0 else 0.0
    ty = math.atan2(yp[1], yp[0]) if ry > 0 else 0.0
    dtheta = tx - ty
    eps_n = np.full(nmax + 1, 2.0)
    eps_n[0] = 1.0
    cosd = np.cos(orders * dtheta)

    def y_ratio(jx):
        # Y_n'(w) J_n(x) J_n(y) / J_n'(w), the huge Y_n' times the larger J first
        big_is_x = np.abs(jx) >= np.abs(jy_n)
        return np.where(big_is_x, (ynp * jx) * jy_n, (ynp * jy_n) * jx) / jnp

    j0d = sp.jv(0, omega * dist)
    y0d = sp.yv(0, omega * dist)
    re_val = -0.25 * y0d + 0.25 * float(np.sum(eps_n * y_ratio(jx_n) * cosd))
    im_val = 0.25 * j0d - 0.25 * float(np.sum(eps_n * jx_n * jy_n * cosd))
    value = complex(re_val, im_val)
    if not gradient:
        return value

    j1d = sp.jv(1, omega * dist)
    y1d = sp.yv(1, omega * dist)
    unit = dvec / dist
    grad_free = (-0.25j * omega) * (j1d + 1j * y1d) * unit

    sind = np.sin(orders * dtheta)
    # w J_n'(w r) by 2 J_n' = J_{n-1} - J_{n+1}; n J_n(w r)/r tends to w/2 [n = 1] at r = 0
    djx = omega * np.append(-tab[1, 1], 0.5 * (tab[:nmax, 1] - tab[2 : nmax + 2, 1]))
    jx_angular = orders * jx_n / rx if rx > 0 else np.where(orders == 1, 0.5 * omega, 0.0)
    # radial and (1/r) angular derivatives
    coef_r = 0.25 * y_ratio(djx) - 0.25j * djx * jy_n
    coef_t = 0.25 * y_ratio(jx_angular) - 0.25j * jx_angular * jy_n
    dr = float(np.sum(eps_n * np.real(coef_r) * cosd)) + 1j * float(
        np.sum(eps_n * np.imag(coef_r) * cosd)
    )
    dt = -float(np.sum(eps_n * np.real(coef_t) * sind)) - 1j * float(
        np.sum(eps_n * np.imag(coef_t) * sind)
    )
    c, s = math.cos(tx), math.sin(tx)
    return value, grad_free + (dr * np.array([c, s]) + dt * np.array([-s, c]))


def plane_waves(lattice: Lattice, omega: float, directions: np.ndarray) -> np.ndarray:
    """e^{i w d_l.z} at the lattice's kept nodes, shape (P, L) complex, one column per direction."""
    (y_waves, iy), (x_waves, ix) = lattice.wave_factors(omega, directions)
    waves = y_waves[iy]
    waves *= x_waves[ix]
    return waves


def single_frequency_kernel_maps(
    lattice: Lattice,
    disc: CurveDiscretization,
    inclusion: ThinInclusion,
    directions: np.ndarray,
    omega: float,
) -> tuple[ImageMap, ImageMap]:
    """Model maps with the plane-wave kernel e^{i w d.(x-z)} at one frequency.

    The incident-wave pairing over the curve alone: plane-wave kernels
    integrated over the true curve, weighted by the permittivity contrast and
    by the permeability bracket. The adjoint's boundary factor and the
    polarization sources are left out, so the raw sensitivity maps of
    ``td_component_maps`` do not approach these forms in the disk, nor in the
    open plane. The phase factor is separable, e^{i w d.x} on the curve times
    the conjugate of the lattice's plane wave, so each direction costs O(P + M).
    """
    directions = np.atleast_2d(np.asarray(directions, dtype=float))
    gamma = inclusion.layer_coefficients()[0]
    eps_vals = np.zeros(lattice.points.shape[0])
    mu_vals = np.zeros(lattice.points.shape[0])
    for d, z_phase in zip(directions, plane_waves(lattice, omega, directions).conj().T):
        curve_phase = np.exp(1j * omega * (disc.nodes @ d))
        eps_vals += np.real(z_phase * np.sum(disc.weights * gamma * curve_phase))
        mu_vals += np.real(
            z_phase * np.sum(disc.weights * _mu_bracket(disc, inclusion, d) * curve_phase)
        )
    return from_point_values(lattice, eps_vals), from_point_values(lattice, mu_vals)


def j0_band_integral(t, omega):
    """Scaled running integral of J0: (1/t) * \\int_0^{omega t} J0(u) du.

    Evaluated as (2/t) * sum_k J_{2k+1}(omega t) (Abramowitz & Stegun
    11.1.2), summed up to the order ceil(x) + 15 + sqrt(40 x) at the largest
    argument x = omega t of each chunk, past which the terms vanish; the
    continuous limit omega is taken at t = 0. The omega-derivative of this
    quantity is J0(omega t), which is what makes it the radial kernel of
    frequency-band-summed imaging functions.

    Parameters
    ----------
    t : float or ndarray
        Nonnegative radial distance(s).
    omega : float
        Positive frequency.

    Returns
    -------
    float for a scalar t, else ndarray of the shape of t
    """
    arr = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("t must be finite")
    if np.any(arr < 0.0):
        raise ValueError("t must be nonnegative")
    w = float(omega)
    if not (math.isfinite(w) and w > 0.0):
        raise ValueError(f"omega must be positive and finite, got {omega!r}")
    x = w * arr.reshape(-1)
    odd_sum = np.empty_like(x)
    for lo in range(0, x.size, _CHUNK):
        chunk = x[lo : lo + _CHUNK]
        top = float(chunk.max())
        nmax = math.ceil(top) + 15 + int(math.sqrt(40.0 * top))
        odd_sum[lo : lo + _CHUNK] = bessel_j_table(nmax, chunk)[1::2].sum(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(arr == 0.0, w, 2.0 * odd_sum.reshape(arr.shape) / arr)
    return float(out[()]) if arr.ndim == 0 else out


def radial_band_maps(
    lattice: Lattice,
    disc: CurveDiscretization,
    inclusion: ThinInclusion,
    directions: np.ndarray,
    omega_lo: float,
    omega_hi: float,
) -> tuple[ImageMap, ImageMap]:
    """Model maps with the direction-averaged band kernel.

    With many directions the plane-wave sum is 2 pi J0(w|x-z|); integrating
    that across the band gives 2 pi times the difference of the running
    J0 integral at the band edges, a radial kernel in |x-z| alone. The
    permeability bracket still depends on the supplied directions, so they
    must be given. Like the other families, this is the incident-wave pairing
    over the curve alone, without the adjoint's boundary factor or the
    polarization sources.
    """
    if not omega_hi > omega_lo:
        raise ConfigError("need omega_hi > omega_lo")
    pts = lattice.points
    diff = disc.nodes[None, :, :] - pts[:, None, :]
    t = np.hypot(diff[:, :, 0], diff[:, :, 1])
    kern = 2.0 * math.pi * (j0_band_integral(t, omega_hi) - j0_band_integral(t, omega_lo))
    gamma = inclusion.layer_coefficients()[0]
    eps_vals = kern @ (disc.weights * gamma)
    mu_vals = np.zeros(pts.shape[0])
    for d in np.atleast_2d(np.asarray(directions, dtype=float)):
        mu_vals += kern @ (disc.weights * _mu_bracket(disc, inclusion, d))
    return from_point_values(lattice, eps_vals), from_point_values(lattice, mu_vals)
