"""Subspace and migration imaging on the multistatic matrix.

Two classical comparison methods. The subspace (MUSIC-type) map inverts the
distance between a steering vector and the signal subspace spanned by the
leading left singular vectors of the multistatic matrix; it needs a rank
decision. Kirchhoff migration skips the rank decision and evaluates the
bilinear form of the matrix on the steering vector; summing it over a
frequency band sharpens the focus.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DataStateError
from .forward import MultistaticMatrix
from .maps import ImageMap, Lattice, from_point_values

_DEFAULT_CEILING = 1e12
_CLEAN_DROP_TOL = 1e-6
_NOISY_DROP_TOL = 1e-2


def signal_space_dim(msr: MultistaticMatrix, clean: bool = True) -> int:
    """Number of singular values of ``msr.matrix`` within a drop tolerance of the largest.

    The singular values come from one full ``np.linalg.svd`` of the matrix.
    The tolerance is tight for clean data and matched to the 15 dB noise
    floor otherwise. The result is clamped below the matrix size so a noise
    subspace always remains.
    """
    drop_tol = _CLEAN_DROP_TOL if clean else _NOISY_DROP_TOL
    s = np.linalg.svd(msr.matrix)[1]
    if s.size == 0 or s[0] == 0.0:
        raise DataStateError("matrix carries no signal")
    dim = int(np.count_nonzero(s >= drop_tol * s[0]))
    return min(dim, msr.n_directions - 1)


def music_map(
    lattice: Lattice,
    msr: MultistaticMatrix,
    signal_dim: int,
) -> tuple[ImageMap, bool]:
    """Subspace imaging map and a saturation flag.

    Value at z is 1 / || (I - U_M U_M^H) w(z) || with w the unit steering
    vector and U_M the leading ``signal_dim`` left singular vectors of
    ``msr.matrix``, from one full ``np.linalg.svd`` (see
    ``signal_space_dim`` for a rank decision). Projections that fall
    below 1/_DEFAULT_CEILING are capped there, so values stop at 1e12; the
    flag reports whether any point saturated.
    """
    m = int(signal_dim)
    if not 0 < m < msr.n_directions:
        raise ConfigError(
            f"signal dimension must lie strictly between 0 and {msr.n_directions}"
        )
    w = lattice.plane_waves(msr.omega, msr.directions) / np.sqrt(msr.n_directions)
    basis = np.linalg.svd(msr.matrix)[0][:, :m]
    residual = w - (w @ basis.conj()) @ basis.T
    norms = np.linalg.norm(residual, axis=1)
    saturated = bool(np.any(norms < 1.0 / _DEFAULT_CEILING))
    values = 1.0 / np.maximum(norms, 1.0 / _DEFAULT_CEILING)
    return from_point_values(lattice, values), saturated


def kirchhoff_map(
    lattice: Lattice, msr: MultistaticMatrix
) -> ImageMap:
    """Migration map |w(z)^H A conj(w(z))| on unit steering vectors.

    Both slots carry the conjugated steering vector: the matrix is built
    from one illumination family acting on both sides, so back propagation
    must undo the phase twice or the image splits between a point and its
    mirror through the origin.
    """
    return multi_kirchhoff_map(lattice, [msr])


def multi_kirchhoff_map(
    lattice: Lattice, msrs: list[MultistaticMatrix]
) -> ImageMap:
    """Sum of the migration maps of several frequencies, taken on point values.

    With e = ``Lattice.plane_waves`` and w = e / sqrt(L), each frequency's
    form is |conj(e)^T A conj(e)| / L at the kept nodes: one (P, L) @ (L, L)
    product and one row dot.
    """
    if not msrs:
        raise ConfigError("need at least one matrix")
    acc = np.zeros(lattice.points.shape[0])
    for msr in msrs:
        wc = lattice.plane_waves(msr.omega, msr.directions)
        np.conjugate(wc, out=wc)
        values = np.abs(np.einsum("pl,pl->p", wc @ msr.matrix, wc))
        values /= msr.n_directions
        acc += values
    return from_point_values(lattice, acc)
