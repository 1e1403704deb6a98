"""The running integral of J0, the radial kernel of band-summed imaging.

Vectorized: scalars in, scalar out; arrays in, arrays out. The integral is a
sum of odd-order Bessel functions, taken from the same Miller table
(`forward.bessel_j_table`) that the disk's mode sums use.
"""

from __future__ import annotations

import math

import numpy as np

from .forward import bessel_j_table

# arguments per Bessel table in j0_band_integral: a table holds about
# x_max + 2 sqrt(40 x_max) rows of this many floats
_CHUNK = 4096


def _as_array(x, name: str) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr, arr.ndim == 0


def _maybe_scalar(values: np.ndarray, scalar: bool):
    return float(values[()]) if scalar else values


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
    float or ndarray
    """
    arr, scalar = _as_array(t, "t")
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
    return _maybe_scalar(out, scalar)
