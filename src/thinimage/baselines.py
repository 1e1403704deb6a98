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
from .forward import MultistaticMatrix, direction_orders
from .maps import ImageMap, Lattice, from_point_values

_DEFAULT_CEILING = 1e12
_CLEAN_DROP_TOL = 1e-6
_NOISY_DROP_TOL = 1e-2


def _orbit_waves(lattice: Lattice, msr: MultistaticMatrix):
    """The representatives' plane waves, the variants' direction orders, each node's index.

    Returns the (R, L) waves at the R representatives, the (V, L) orders and
    the index (variants, rows) of each node's value in a (V, R) array. The
    lattice's orbits where ``direction_orders`` gives orders; otherwise every
    node is its own representative, in variant 0 with the identity order.
    """
    orders = direction_orders(msr.directions)
    if orders is None:
        orders = np.arange(msr.n_directions)[None]
        representatives = rows = slice(None)
        variants = 0
    else:
        representatives, rows, variants = lattice.orbits
    (y_waves, iy), (x_waves, ix) = lattice.wave_factors(msr.omega, msr.directions)
    waves = y_waves[iy[representatives]]
    waves *= x_waves[ix[representatives]]
    return waves, orders, (variants, rows)


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

    Where ``forward.direction_orders`` gives orders, only the orbit
    representatives' waves are formed, and node M y, variant g of y, takes
    y's norm against the basis rows in g's order, U[o_g]. Other sets take
    every node as its own representative in the identity order.
    """
    m = int(signal_dim)
    if not 0 < m < msr.n_directions:
        raise ConfigError(
            f"signal dimension must lie strictly between 0 and {msr.n_directions}"
        )
    w, orders, nodes = _orbit_waves(lattice, msr)
    w /= np.sqrt(msr.n_directions)
    basis = np.linalg.svd(msr.matrix)[0][:, :m]
    norms = np.empty((orders.shape[0], w.shape[0]))
    for g, order in enumerate(orders):
        turned = basis[order]
        residual = w - (w @ turned.conj()) @ turned.T
        norms[g] = np.linalg.norm(residual, axis=1)
    norms = norms[nodes]
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

    With e the plane waves and w = e / sqrt(L), each frequency's form is
    |conj(e)^T A conj(e)| / L at the kept nodes, taken on the orbits as in
    ``music_map``: node M y takes y's form on A[o_g][:, o_g], one
    (R, L) @ (L, L) product and one row dot per variant g over the R
    representatives, or over every node in the identity order for other
    sets. The nodes' values are summed in band order.
    """
    if not msrs:
        raise ConfigError("need at least one matrix")
    acc = np.zeros(lattice.points.shape[0])
    for msr in msrs:
        wc, orders, nodes = _orbit_waves(lattice, msr)
        np.conjugate(wc, out=wc)
        values = np.empty((orders.shape[0], wc.shape[0]))
        for g, order in enumerate(orders):
            turned = msr.matrix[np.ix_(order, order)]
            np.abs(np.einsum("pl,pl->p", wc @ turned, wc), out=values[g])
        values = values[nodes]
        values /= msr.n_directions
        acc += values
    return from_point_values(lattice, acc)
