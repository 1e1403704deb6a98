"""Forward data synthesis for thin inclusions in the unit disk.

The scattered boundary data follow the leading-order thin-inclusion
expansion: an arc-length integral over the supporting curve of a polarization
term (gradients through the anisotropic two-eigenvalue tensor) plus a
permittivity monopole term, both against the disk's Neumann function.

The Neumann function N(x, y; w) of the Helmholtz operator with vanishing
normal derivative on |x| = 1 is the free-space Hankel kernel
(i/4)H0(w|x-y|) plus a Fourier-Bessel boundary correction whose coefficients
divide by J_n'(w); frequencies too close to a zero of some J_n' (a Neumann
eigenvalue of the disk) are rejected. The program only ever takes the source
point on the boundary, where the correction collapses, via the Wronskian, to
the separable real kernel

    N(x, y)|_{|y|=1} = (1/2 pi w) * sum_n [J_n(w|x|)/J_n'(w)] e^{in(ax-ay)},

which is what makes synthesis (and the adjoint evaluations downstream)
factorizable into dense matrix products over a truncated mode range. Every
J_n and J_n' of that series comes from one Bessel builder, the Miller table
``bessel_j_table`` (the J_n'(w) of a whole band from one table), so no
Hankel or Y_n function is needed.
``DiskModes`` holds that series for a band of frequencies on one point set.
The adjoint applies it to the traces' mode projections; synthesis runs it
transposed over the band, from the curve's monopole and dipole sources to
two coefficient rows per direction, and one product with the boundary phases
e^{-in phi_b} and e^{in phi_b} gives every boundary point. No kernel matrix
between the curve and the boundary is formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataStateError, GeometryError, ResonanceError
from .geometry import BoundaryGrid, ThinInclusion, discretize

RESONANCE_TOL = 1e-8
# Coefficients beyond this J_n' magnitude floor would overflow; orders past it
# contribute below ~rho^cap anyway (see _series_order).
_JNP_FLOOR = 1e-260
# A |J_n'| below this is table roundoff, not a magnitude (see resonance_error).
_JNP_ROUNDOFF = 1e-14
_DEFAULT_SERIES_TOL = 1e-10
# curve nodes per inclusion in synthesize
SYNTHESIS_NODES = 400


# ---------------------------------------------------------------------------
# incident fields


@dataclass(frozen=True)
class IncidentSet:
    """Plane-wave directions (unit vectors) and an increasing frequency list."""

    directions: np.ndarray
    omegas: np.ndarray

    def __post_init__(self) -> None:
        directions = np.atleast_2d(np.asarray(self.directions, dtype=float))
        omegas = np.atleast_1d(np.asarray(self.omegas, dtype=float))
        if directions.ndim != 2 or directions.shape[1] != 2 or directions.shape[0] < 1:
            raise ConfigError("directions must be an (L, 2) array")
        norms = np.hypot(directions[:, 0], directions[:, 1])
        if np.any(~np.isfinite(directions)) or np.max(np.abs(norms - 1.0)) > 1e-12:
            raise ConfigError("directions must be finite unit vectors")
        if omegas.size < 1 or np.any(~np.isfinite(omegas)) or np.any(omegas <= 0.0):
            raise ConfigError("omegas must be positive and finite")
        if np.any(np.diff(omegas) <= 0.0):
            raise ConfigError("omegas must be strictly increasing")
        directions = directions.copy()
        omegas = omegas.copy()
        directions.setflags(write=False)
        omegas.setflags(write=False)
        object.__setattr__(self, "directions", directions)
        object.__setattr__(self, "omegas", omegas)

    @property
    def n_directions(self) -> int:
        return self.directions.shape[0]

    @property
    def n_frequencies(self) -> int:
        return self.omegas.size


def standard_directions(n_directions: int) -> np.ndarray:
    """Unit directions d_l = (cos 2 pi l/L, sin 2 pi l/L), l = 0..L-1.

    With 4 | L the set is built so that the square's rotations and
    reflections map it onto itself bit for bit (``direction_orders``; the
    maps then read every orbit variant's waves from its representative's): the
    first octant, 2l < L/4, takes cos and sin, the diagonal l = L/8 is put on
    y = x, the rest of the first quadrant is the octant swapped,
    (x, y) -> (y, x), and the other quadrants are exact quarter turns
    (x, y) -> (-y, x) of it. Each direction is then within 1e-15 of its cos
    and sin. Other L take cos and sin throughout.
    """
    if n_directions < 1:
        raise ConfigError(f"need at least one direction, got {n_directions}")
    ang = 2.0 * math.pi * np.arange(n_directions) / n_directions
    if n_directions % 4:
        return np.column_stack([np.cos(ang), np.sin(ang)])
    quarter = n_directions // 4
    octant = ang[: quarter // 2 + 1]  # 2l < L/4, then the diagonal when 8 | L
    first = np.column_stack([np.cos(octant), np.sin(octant)])
    if quarter % 2 == 0:
        first[-1, 1] = first[-1, 0]
    # d_{L/4 - l} is d_l swapped
    turns = [np.vstack([first, first[(quarter - 1) // 2 : 0 : -1, ::-1]])]
    for _ in range(3):
        turns.append(turns[-1][:, ::-1] * [-1.0, 1.0])
    return np.vstack(turns)


def direction_orders(directions: np.ndarray):
    """The (8, L) direction orders o_g of the square's symmetries, or None.

    Variant g = j + 4 f (``maps.Orbits``) maps x to M x, and o_g(l) is the
    index of M d_l: o_j(l) = l + jL/4, o_{j+4}(l) = jL/4 - l (mod L). As
    d_{o_g(l)}.M y = d_l.y, a form on the waves at M y is the form on the
    waves at y with its matrix's rows and columns in the order o_g,
    A[o_g][:, o_g]. None unless ``directions`` is ``standard_directions(L)``
    with 4 | L, the sets the symmetries map onto themselves bit for bit.
    """
    n = directions.shape[0]
    if n % 4 or not np.array_equal(directions, standard_directions(n)):
        return None
    turns, positions = n // 4 * np.arange(4)[:, None], np.arange(n)
    return np.vstack([turns + positions, turns - positions]) % n


def frequency_band(
    n_frequencies: int, lambda_min: float = 0.2, lambda_max: float = 0.5
) -> np.ndarray:
    """Frequencies equispaced in omega over [2 pi/lambda_max, 2 pi/lambda_min]."""
    if n_frequencies < 1:
        raise ConfigError(f"need at least one frequency, got {n_frequencies}")
    if not (0.0 < lambda_min <= lambda_max):
        raise ConfigError("wavelength band must satisfy 0 < lambda_min <= lambda_max")
    if n_frequencies > 1 and lambda_min == lambda_max:
        raise ConfigError(
            f"{n_frequencies} frequencies need lambda_min < lambda_max, got both {lambda_min!r}"
        )
    return np.linspace(2.0 * math.pi / lambda_max, 2.0 * math.pi / lambda_min, n_frequencies)


# ---------------------------------------------------------------------------
# resonance detection


def _positive_frequencies(omegas) -> np.ndarray:
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    ok = (omegas > 0.0) & np.isfinite(omegas)
    if not ok.all():
        raise ConfigError(f"omega must be positive and finite, got {float(omegas[~ok][0])!r}")
    return omegas


def _resonant(omega: float, jnp: np.ndarray, threshold: float) -> list[tuple[int, float]]:
    """Orders n <= ceil(omega)+1 with |J_n'(omega)| below threshold, from the column ``jnp``."""
    vals = np.abs(jnp[: int(math.ceil(omega)) + 2])
    return [(int(n), float(vals[n])) for n in np.flatnonzero(vals < threshold)]


def band_resonance_orders(
    omegas, threshold: float = RESONANCE_TOL
) -> list[list[tuple[int, float]]]:
    """Orders n with |J_n'(omega)| below threshold, for each omega of a band.

    One Bessel table serves the band. Only orders n <= ceil(omega)+1 can carry
    a zero of J_n' (the disk's Neumann eigenvalues satisfy j'_{n,1} > n), so
    the scan stops there.
    """
    omegas = _positive_frequencies(omegas)
    jnp, _ = jnp_values(bessel_j_table(int(math.ceil(float(np.max(omegas)))) + 2, omegas))
    return [_resonant(omega, jnp[:, k], threshold) for k, omega in enumerate(omegas)]


def resonance_error(omega: float, hits: list[tuple[int, float]]) -> ResonanceError:
    """The refusal of a frequency whose ``band_resonance_orders`` entry is ``hits``.

    A |J_n'| below ``_JNP_ROUNDOFF`` prints as that bound: there it is the
    roundoff of whichever Bessel table read it, so every caller refuses a
    frequency on an eigenvalue in the same words.
    """
    listing = ", ".join(
        f"n={n} (|J_n'|<{_JNP_ROUNDOFF:.0e})" if v < _JNP_ROUNDOFF else f"n={n} (|J_n'|={v:.2e})"
        for n, v in hits
    )
    return ResonanceError(f"omega = {omega:.10g} is next to a Neumann eigenvalue: {listing}")


# ---------------------------------------------------------------------------
# Bessel mode tables


def bessel_j_table(nmax: int, x) -> np.ndarray:
    """J_n(x) for all orders n = 0..nmax at once, vectorized over x.

    Miller's downward recurrence normalized by J0 + 2*sum J_{2k} = 1; this is
    orders of magnitude faster than per-order library calls when every order
    is needed, which is the access pattern of all mode sums here. The
    recurrence starts well above both nmax and the largest argument: below
    the turning order n = x it no longer converges to J_n.

    Each step is two multiplies and a subtract, written straight into the
    output row once n <= nmax. A column is rescaled by 1e-250 (it alone: growth
    rates differ wildly across arguments, and a global rescale would flush
    slow-growing columns to zero) when it passes 1e250, but the abs-and-max
    scan for that runs only when a running bound, max(2n/x) |J_n|max +
    |J_{n+1}|max padded for rounding, says some column could have. An
    argument so small that one step by 2n/x could overflow a rescaled column
    takes the leading series term (x/2)^n/n!, exact to double precision
    there, as x = 0 takes J_0 = 1.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(np.isfinite(x) & (x >= 0.0)):
        raise ValueError("bessel_j_table requires finite x >= 0")
    out = np.empty((nmax + 1, x.size))
    top = max(nmax, int(math.ceil(float(np.max(x, initial=0.0)))))
    start = top + 15 + int(math.sqrt(40.0 * max(top, 1)))
    # 2 start/x times a column of 1e250 stays below 1e308 for x >= 2e-58 start
    tiny = x < 2e-58 * start
    inv_x = 1.0 / np.where(tiny, 1.0, x)
    step = 2.0 * float(np.max(inv_x, initial=0.0))
    jc, jp, spare = np.full(x.size, 1e-30), np.zeros(x.size), np.empty(x.size)
    scratch = np.empty(x.size)
    bound, bound_next = 1e-30, 0.0  # of max |J_n| and max |J_{n+1}|
    even_sum = np.full(x.size, 1e-30 if start % 2 == 0 else 0.0)
    for n in range(start, 0, -1):
        # J_{n-1} = (2n/x) J_n - J_{n+1}, into its output row or, above nmax, the spare buffer
        np.multiply(np.multiply(2.0 * n, inv_x, out=scratch), jc, out=scratch)
        row = out[n - 1] if n - 1 <= nmax else spare
        np.subtract(scratch, jp, out=row)
        spare, jp, jc = jp, jc, row
        if n - 1 > 0 and (n - 1) % 2 == 0:
            even_sum += jc
        bound, bound_next = (n * step * bound + bound_next) * (1.0 + 1e-12), bound
        if bound > 1e250:
            np.abs(jc, out=scratch)
            big = np.flatnonzero(scratch > 1e250)
            if big.size:
                # the stored rows n-1..nmax hold jc, and jp unless n > nmax
                if n - 1 <= nmax:
                    out[n - 1 :, big] *= 1e-250
                else:
                    jc[big] *= 1e-250
                if n > nmax:
                    jp[big] *= 1e-250
                even_sum[big] *= 1e-250
                np.abs(jc, out=scratch)
            bound = float(scratch.max(initial=0.0))
    # Normalization J0 + 2*sum_{k>=1} J_{2k} = 1 (even_sum excludes J0).
    out /= jc + 2.0 * even_sum
    if tiny.any():
        terms = np.ones((nmax + 1, int(np.count_nonzero(tiny))))
        terms[1:] = 0.5 * x[tiny] / np.arange(1.0, nmax + 1)[:, None]
        out[:, tiny] = np.cumprod(terms, axis=0)
    return out


def _series_order(omega: float, rho: float) -> int:
    """Truncation order of a kernel series with geometric tail ratio rho, with a floor."""
    rho = min(max(rho, 0.05), 0.999)
    tail = int(math.ceil(math.log(1.0 / _DEFAULT_SERIES_TOL) / math.log(1.0 / rho)))
    return max(30, int(math.ceil(2 * omega)) + 20, int(math.ceil(omega)) + 10 + tail)


def jnp_values(j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """J_n'(w) for n = 0..nmax from the table ``bessel_j_table(nmax + 1, omegas)``, and cutoffs.

    J_n' = (J_{n-1} - J_{n+1})/2 with J_{-1} = -J_1, one column per frequency:
    within 4.3e-13 relative of scipy's ``jvp`` over the default band. A
    column's cutoff is the last order before the first |J_n'| below
    ``_JNP_FLOOR``, or nmax.
    """
    vals = np.vstack([-j[1:2], (j[:-2] - j[2:]) / 2])
    small = np.abs(vals) < _JNP_FLOOR
    cuts = np.where(small.any(axis=0), np.argmax(small, axis=0) - 1, j.shape[0] - 2)
    return vals, np.maximum(cuts, 0)


# ---------------------------------------------------------------------------
# boundary-source kernel


def _angular_table(thetas: np.ndarray, nmax: int, out=None) -> np.ndarray:
    """e^{in theta}, n = 0..nmax, one column per angle: e^{i(n+1)theta} = e^{in theta} e^{i theta}.

    Up to order 600 the rounding this builds up stays below 5e-14. ``out``,
    if given, is the complex (nmax + 1, thetas.size) array written to.
    """
    table = np.empty((nmax + 1, thetas.size), dtype=complex) if out is None else out
    step = np.exp(1j * thetas)
    table[0] = 1.0
    for n in range(nmax):
        np.multiply(table[n], step, out=table[n + 1])
    return table


def boundary_phases(nmax: int, angles: np.ndarray) -> np.ndarray:
    """e^{-in phi_b}, n = 0..nmax, one column per boundary angle phi_b."""
    return np.exp(-1j * np.outer(np.arange(nmax + 1), angles))


# Frequencies per Bessel table in DiskModes.transpose: four share one Miller loop
# (faster than one table each), and the table stays near 2 MB for 400 nodes (one
# table for the whole band raised the noise sweep's peak RSS by about 8 MB).
_BAND_GROUP = 4

# Product rows per table block, 256 representatives in all 8 variants: etd_multi ran
# 7-19% faster than with 1,024 on 128^2 and 256^2 lattices, and 4,096 gained under 4%.
_POINT_BLOCK = 2048

# i^j, the factor of order n = 1 for a variant g = j + 4 f of j quarter turns
_TURNS = np.array([1, 1j, -1, -1j])
# The rotations j whose half turns j + 2 and reflections j + 4, j + 6 ``DiskModes.pair``
# takes from the same products
_BASE_VARIANTS = (0, 1)


def _orbit_signs() -> np.ndarray:
    """The (128, 16) matrix from one representative's reduced rows to its sums (``_pair_orbits``).

    A row (o, b, j, s, t, w) holds part b (A or B) over the even (o = 0) or
    odd (o = 1) orders, of rotation j's values (s = 0) or derivatives
    (s = 1), in its Re (t = 0) or Im (t = 1) slots, against the wave column
    w of (Re u, Im u, Re u o phi, Im u o phi). A sum (s, c, j) is variant
    j + 4 f + 2 h, c = 2 f + h: against u o phi if f = 1, conjugated if
    h = 1. It takes A - B (A + B if f = 1), the odd orders negated if
    h = 1, the Re slots against w = 2 f and the Im slots against
    w = 2 f + 1, negated if h = 1.
    """
    o, b, t, w, c = np.indices((2, 2, 2, 4, 4))
    f, h = c // 2, c % 2
    part = np.where(w == 2 * f + t, (-1.0) ** (b * (1 - f) + o * h + t * h), 0.0)
    eye = np.eye(2)
    return np.einsum("obtwc,jk,sl->objstwlck", part, eye, eye).reshape(128, 16)


_ORBIT_SIGNS = _orbit_signs()


def _variant_rhs(coef: np.ndarray, variants: int) -> np.ndarray:
    """The right-hand sides [Re b_g; -Im b_g] of variants g < V, side by side: (2r, V C).

    For variant g = j + 4 f, b_g = i^{jn} b_n, conjugated if f = 1, where b
    is ``coef`` (r, C).
    """
    r, columns = coef.shape
    orders = np.arange(r)
    rhs = np.empty((2 * r, variants * columns))
    for g in range(variants):
        turned = coef * _TURNS[g % 4 * orders % 4, None]
        span = slice(g * columns, (g + 1) * columns)
        rhs[:r, span], rhs[r:, span] = turned.real, turned.imag if g >= 4 else -turned.imag
    return rhs


def _gather_waves(waves, points, out: np.ndarray, work: np.ndarray) -> np.ndarray:
    """The wave rows of ``points`` into ``out``, each the product of its factors' rows.

    ``waves`` lists factors (table, index), as ``DiskModes.pair`` takes them;
    ``work`` is a workspace of ``out``'s shape.
    """
    (first, first_index), *others = waves
    # "clip" lets take write to out unbuffered (indices are valid)
    np.take(first, first_index[points], axis=0, out=out, mode="clip")
    for table, index in others:
        out *= np.take(table, index[points], axis=0, out=work, mode="clip")
    return out


class DiskModes:
    """The disk's Neumann kernel for boundary sources, as a mode series over a band.

    For |y| = 1 the kernel is N(x, y) = Re sum_{n>=0} eps_n K_n(x) e^{-in phi_y}
    with eps_0 = 1, eps_n = 2, K_n = Phi_n/(2 pi w J_n'(w)), Phi_n(x) = J_n(w|x|) e^{in theta_x}.
    ``omegas`` is one frequency or a band of them on one point set. The
    points' geometry is taken once: rim points are rejected, the angles and
    the distinct radii kept. Each frequency k is checked for resonance and
    gets its own ``nmax[k]``, from the one series tolerance
    ``_DEFAULT_SERIES_TOL`` at the largest radius, cut where J_n'(w) underflows;
    the check, the cut and the weights 1/J_n'(w) all read one Bessel table
    for the band.

    ``orbits`` (a ``maps.Orbits``, as ``Lattice.orbits`` gives it) groups
    the points under the rotations and reflections of the square; the angles
    and radii are then kept for the representatives only. Orbits serve
    ``pair`` alone: ``apply`` and ``transpose`` refuse them. Without them
    every point is its own representative in the identity variant.

    Each frequency k runs one block loop: it sums every point to one order
    and takes the representatives ``_POINT_BLOCK`` product rows at a time
    (one row per variant: 8 on orbits, 1 without), gathering their rows
    from one ``bessel_j_table`` per call over their distinct radii. The
    product rows are numbered once over all blocks, and each point has one
    row. Two methods consume the blocks. ``apply`` (the adjoint) has each
    block's product write its points' values and, on request, their x and
    y gradients in place into its result. ``pair`` (the imaging maps)
    reduces each block at once to two sums per row against the incident
    plane waves, the values and the derivative of each direction's columns
    along that direction, with two blocks of columns instead of three; each
    point then takes its row's two sums. On the lattice's orbits, with
    ``standard_directions`` of 4 | L directions (a set the square's
    symmetries map onto itself bit for bit), every row reduces against its
    representative's own wave row, and the rotations j = 0, 1 take four
    half-size products each block, the cos and the sin rows over the even
    and the odd orders, that also give their half turns and reflections
    (``_pair_orbits``). Such a set also holds
    d_{l+L/2} = -d_l, whose waves are the conjugates of those of d_l,
    u(x; -d) = conj u(x; d): the sums are linear in the columns of c, so
    direction l + L/2's columns fold into l's, and the products and the
    reduction take the columns of L/2 directions.

    The angles e^{in theta} do not depend on the frequency. A band keeps the
    (r, R) complex table of its R representatives once it is built, r the
    most rows any call has asked for, and every block and ``transpose`` read
    it: r = N/2 + 2 = 66 rows of the 1,450 representatives of a 128² lattice
    hold 1.5 MB (6.1 MB at 256²). One frequency builds the rows per block and
    keeps nothing, since nothing would reuse them, and on arbitrary points
    (the adjoint on a whole lattice) a kept table would cover every point.

    ``transpose`` runs the whole band the other way, from sources at the
    points to coefficients; ``synthesize`` takes its traces from it. It needs
    every point as its own representative.
    """

    def __init__(self, omegas, points, orbits=None):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        radii = np.hypot(pts[:, 0], pts[:, 1])
        rmax = float(np.max(radii))
        if rmax > 0.999:
            raise GeometryError(f"interior points must satisfy |x| < 1 (max {rmax:.4f})")
        self.omegas = _positive_frequencies(omegas)
        tops = [_series_order(omega, rmax) for omega in self.omegas]
        # one J_n' table for the band: each frequency's resonance check, cut and weights
        jnp, cuts = jnp_values(bessel_j_table(max(tops) + 2, self.omegas))
        self.nmax, self._weights = [], []
        for k, (omega, top) in enumerate(zip(self.omegas, tops)):
            if hits := _resonant(omega, jnp[:, k], RESONANCE_TOL):
                raise resonance_error(omega, hits)
            n = min(top, int(cuts[k]) - 1)
            eps_n = np.where(np.arange(n + 1) == 0, 1.0, 2.0)
            self.nmax.append(n)
            self._weights.append(eps_n / (2.0 * math.pi * omega * jnp[: n + 1, k]))
        self._variants = 1 if orbits is None else 8  # V, the product rows per representative
        if orbits is None:
            every = np.arange(radii.size)
            orbits = every, every, 0
        representatives, rows, variants = orbits
        self._representatives = representatives
        self._thetas = np.arctan2(pts[representatives, 1], pts[representatives, 0])
        self._angular = np.empty((0, self._thetas.size), dtype=complex)  # see _angular_rows
        # one Bessel column per distinct radius of the representatives
        self._radii, self._column = np.unique(radii[representatives], return_inverse=True)
        # product rows counted over all blocks: row i V + g holds representative i
        # in variant g. _point_rows is each point's row, _row_points the point
        # at each row (point 0 where no point takes it; such a row is never read)
        self._block = _POINT_BLOCK // self._variants
        self._point_rows = rows * self._variants + variants
        self._row_points = np.zeros(self._thetas.size * self._variants, dtype=np.intp)
        self._row_points[self._point_rows] = np.arange(rows.size)
        self._orders = {}  # _wave_orders of each direction set, by its bytes

    def apply(self, c: np.ndarray, gradient: bool = False, k: int = 0):
        """Re sum_n eps_n K_n(x) c_n at every point, for c of shape (m+1, C), m <= nmax[k].

        ``k`` picks the frequency of the band. The rows of ``c`` set the
        order: the series stops at min(nmax[k], m), so c[:m+1] gives what c
        with its rows past m set to zero gives.

        Returns the (P, C) real values, followed by their x and y gradients
        when ``gradient`` is set. With a_n = eps_n c_n/(2 pi w J_n'(w)), the
        derivatives shift the coefficients by one order,
        d_x Phi_n = (w/2)(Phi_{n-1} - Phi_{n+1}) and
        d_y Phi_n = (iw/2)(Phi_{n-1} + Phi_{n+1}), so the series is
        Re sum_n Phi_n b_n in every column, b = [a, d_x a, d_y a] for the
        gradients (3C). Each block's product (``_tables`` against
        [Re b; -Im b]) writes its points' rows in place into the result.
        It needs every point as its own representative.
        """
        if self._variants > 1:
            raise ValueError("apply needs every point as its own representative")
        coef, d_x, d_y = self._coefficients(c, k)
        if gradient:
            coef = np.hstack([coef, d_x, d_y])
        rhs = np.vstack([coef.real, -coef.imag])
        fields = np.empty((self._thetas.size, coef.shape[1]))
        for lo, m, [table] in self._tables(coef.shape[0], k):
            np.matmul(table.T, rhs, out=fields[lo : lo + m])
        return tuple(np.hsplit(fields, 3)) if gradient else fields

    def pair(self, c: np.ndarray, directions: np.ndarray, waves, k: int = 0):
        """Each point's sums of the series and its directional derivatives against plane waves.

        For c of shape (m+1, 2L), f = ``apply(c, k=k)``, D the derivatives of
        f's columns 2l and 2l+1 along the unit vector ``directions[l]``
        (shape (L, 2); b = [a, dx d_x a + dy d_y a]), and u the (P, L) plane
        waves u_l = e^{i w d_l.x} of frequency k as real (P, 2L) pairs
        (Re u, Im u), with i u as (-Im u, Re u), it returns the two (P,) sums

            sum_j f_j u_j   and   sum_j D_j (i u)_j.

        ``waves`` lists factors (table, index): point p's wave row is the
        product, in order, of the rows table[index[p]]
        (``maps.Lattice.wave_factors``). Each block is reduced as it comes,
        and no (P, 2L) array is formed. On orbits with
        ``standard_directions`` of 4 | L directions (``_wave_orders``),
        ``_pair_orbits`` reduces every row against its representative's wave
        row, each direction folded with its half-turn partner. Otherwise each
        block's product rows are reduced to two sums per row against the
        waves gathered at the rows' points into workspaces of one block, and
        each point takes the sums of its row.
        """
        orders = self._wave_orders(directions)
        if orders is not None:
            return self._pair_orbits(c, directions, orders, waves, k)
        coef = np.hstack(self._directional(c, directions, k))
        columns = c.shape[1]  # the values' columns; the derivatives' follow
        variants = self._variants
        rhs = _variant_rhs(coef, variants)
        sums = np.empty((2, self._row_points.size))
        size = min(self._thetas.size, self._block) * variants
        u_work = np.empty((size, columns // 2), dtype=complex)
        factor_work = np.empty_like(u_work)
        product_work = np.empty(size * 2 * columns)
        for lo, m, [table] in self._tables(coef.shape[0], k):
            block = slice(lo * variants, (lo + m) * variants)
            product = product_work[: m * rhs.shape[1]].reshape(m, -1)
            product = np.matmul(table.T, rhs, out=product).reshape(-1, 2 * columns)
            points = self._row_points[block]
            u = _gather_waves(waves, points, u_work[: points.size], factor_work[: points.size])
            np.einsum("pk,pk->p", product[:, :columns], u.view(float), out=sums[0, block])
            u *= 1j
            np.einsum("pk,pk->p", product[:, columns:], u.view(float), out=sums[1, block])
        return sums[:, self._point_rows]

    def _directional(self, c: np.ndarray, directions: np.ndarray, k: int):
        """The coefficients of ``pair``'s values and of their derivatives along the directions."""
        coef, d_x, d_y = self._coefficients(c, k)
        along = np.repeat(directions, 2, axis=0)
        return coef, along[:, 0] * d_x + along[:, 1] * d_y

    def _wave_orders(self, directions: np.ndarray):
        """What ``_pair_orbits`` reads for ``directions``: column orders, signs, wave columns; or None.

        Position l of variant g's columns takes direction o_g(l)
        (``direction_orders``), so that it pairs with the representative's
        own wave u_l. ``_pair_orbits`` folds direction p + L/2 into p, and
        as o_g(l + L/2) = o_g(l) + L/2 (mod L) it pairs the positions
        l < L/2 only: position l reads the folded column of
        p = o_g(l) mod L/2, its conjugate where o_g(l) >= L/2. Returns None
        unless the points are given as orbits and ``direction_orders`` gives
        the orders of ``directions``. Otherwise it returns

        - the (2, 2L) orders of the value and derivative columns of the
          rotations j of ``_BASE_VARIANTS``: in each of the two, the Re
          columns of positions 0..L/2-1, then their Im columns, in the order
          o_j;
        - the (2, 2L) signs in the same layout, -1 in the Im columns of the
          positions that read a conjugate: there Re(conj F conj u) negates
          F's Im part in the values and, with the i of i u folded in, in the
          derivatives;
        - the (L/2, 4) columns of the representative's (Re, Im) wave pairs
          that make the wave block of ``_pair_orbits``, Re u, Im u, Re u o phi
          and Im u o phi, where phi = o_4, phi(l) = -l (mod L), is the
          direction F d_l. The reflection R^j F of rotation j moves direction
          l of j's order to F d_l, the same phi for every j; phi(l) is read
          from the whole wave row, in either half.

        Each set is worked out once per ``DiskModes``, on its first ``pair``.
        """
        key = directions.tobytes()
        if key not in self._orders:
            self._orders[key] = None
            orders = direction_orders(directions)
            if self._variants > 1 and orders is not None:
                half = orders.shape[1] // 2
                base = orders[list(_BASE_VARIANTS), :half]
                order, conjugate = 2 * (base % half), np.where(base < half, 1.0, -1.0)
                slots = np.hstack([order, order + 1])  # the Re slots, then the Im ones
                signs = np.hstack([np.ones_like(conjugate), conjugate])
                same, flip = 2 * np.arange(half), 2 * orders[4, :half]
                self._orders[key] = (
                    np.hstack([slots, slots + 2 * half]),
                    np.hstack([signs, signs]),
                    np.column_stack([same, same + 1, flip, flip + 1]),
                )
        return self._orders[key]

    def _pair_orbits(self, c, directions, orders, waves, k: int):
        """``pair`` on the orbits, every product row against its representative's waves.

        ``c`` and ``directions`` are ``pair``'s, and ``orders`` is
        ``_wave_orders``. The direction -d has the conjugate waves,
        u(x; d_{l+L/2}) = conj u(x; d_l), and ``pair``'s sums are linear in
        the columns of c, so direction l + L/2 folds into l: its Re column
        c_{2l+L} is added to c_{2l} and its Im column c_{2l+L+1} subtracted
        from c_{2l+1}, and the fields of the folded columns, and their
        derivatives along d_l, pair with u_l alone. The L/2 folded directions
        give the (r, L) columns of the values and of the directional
        derivatives. The i of i u is folded into the derivative columns: the
        pair (D_2l, D_2l+1) against i u is (D_2l+1, -D_2l) against u. Each
        rotation j = 0, 1 takes its columns in its order, with the signs of
        its conjugates, so that position l pairs with the representative's
        own wave u_l, and b = i^{jn} b_n on them.

        Three symmetries share the products of rotation j. Its reflection
        R^j F (variant j + 4) has Phi_n(R^j F y) = i^{jn} conj Phi_n(y), so
        with A = (J cos n theta)^T Re b and B = (J sin n theta)^T Im b,
        variant j's rows are A - B and variant j + 4's are A + B, the latter
        against u o phi. The half turn x -> -x (variants j + 2 and j + 6) has
        Phi_n(-x) = (-1)^n Phi_n(x) and u(-x) = conj u(x), so A and B are
        taken over the even orders and the odd ones apart. Each block takes
        four products A_e, B_e, A_o, B_o for both rotations into one buffer,
        the cos rows of each half of the e^{in theta} table (``_tables``)
        meeting A and the sin rows B. One batched product reduces the Re
        and the Im columns of every row against the wave block of its
        representative, (Re u, Im u, Re u o phi, Im u o phi), and one product
        with ``_ORBIT_SIGNS`` takes each block's results, never the products
        themselves, to the sums of all 8 variants: each sum adds eight of
        them with signs, the conjugate's Im part negated.
        """
        half = directions.shape[0] // 2
        c = c[:, : 2 * half] + c[:, 2 * half :] * np.tile([1.0, -1.0], half)
        coef, derivatives = self._directional(c, directions[:half], k)
        folded = np.empty_like(derivatives)
        folded[:, 0::2], folded[:, 1::2] = derivatives[:, 1::2], -derivatives[:, 0::2]
        coef = np.hstack([coef, folded])
        column_orders, signs, wave_columns = orders
        r, columns = coef.shape
        # (Re b; Im b) of the rotations side by side, read as their even and odd orders
        turned = np.stack([coef[:, order] for order in column_orders], axis=1)
        turned *= signs
        turned *= _TURNS[np.outer(np.arange(r), _BASE_VARIANTS) % 4, None]
        rhs = np.stack([turned.real, turned.imag]).reshape(2, r, -1)
        halves = rhs[:, 0::2], rhs[:, 1::2]
        reps = self._thetas.size
        size = min(reps, self._block)
        u_work = np.empty((size, 2 * half), dtype=complex)  # all L directions' waves
        factor_work = np.empty_like(u_work)
        wave_work = np.empty((size, half, 4))
        # (representative, part, (j, s, t, position)): the parts A_e, B_e, A_o, B_o
        product_work = np.empty((size, 4, 2 * columns))
        reduced_work = np.empty((size, 32, 4))
        sums = np.empty((reps, 16))  # (s, c, j), as the columns of _ORBIT_SIGNS
        for lo, m, tables in self._tables(r, k, halves=True):
            points = self._representatives[lo : lo + m]
            u = _gather_waves(waves, points, u_work[:m], factor_work[:m])
            w = np.take(u.view(float), wave_columns, axis=1, out=wave_work[:m], mode="clip")
            parts = product_work[:m]
            for parity, (table, (re, im)) in enumerate(zip(tables, halves)):
                rows = table.shape[0] // 2
                np.matmul(table[:rows].T, re, out=parts[:, 2 * parity])
                np.matmul(table[rows:].T, im, out=parts[:, 2 * parity + 1])
            reduced = np.matmul(parts.reshape(m, 32, -1), w, out=reduced_work[:m])
            np.matmul(reduced.reshape(m, -1), _ORBIT_SIGNS, out=sums[lo : lo + m])
        # row i V + g holds variant g = 4 f + 2 h + j = 2 c + j
        return sums.reshape(reps, 2, 8).transpose(1, 0, 2).reshape(2, -1)[:, self._point_rows]

    def _coefficients(self, c: np.ndarray, k: int):
        """a_n = eps_n c_n/(2 pi w J_n'(w)) and its shifts d_x a, d_y a, each (n + 2, C).

        Row n of d_x a and d_y a is the coefficient of Phi_n in the x and y
        derivative of Re sum_n Phi_n a_n; rows run to n + 1, past the order
        n = min(nmax[k], m) of ``apply``.
        """
        n = min(self.nmax[k], c.shape[0] - 1)
        a = np.zeros((n + 4, c.shape[1]), dtype=complex)  # a_{-1}..a_{n+2}
        a[1 : n + 2] = self._weights[k][: n + 1, None] * c[: n + 1]
        above, below = a[2:], a[:-2].copy()
        # Phi_{-1} = -conj(Phi_1), so Re(k a_0 Phi_{-1}) = -Re(conj(k a_0) Phi_1)
        below[1] += below[1].conj()
        half = 0.5 * self.omegas[k]
        return a[1:-1], half * (above - below), (1j * half) * (above + below)

    def _angular_rows(self, r: int) -> np.ndarray:
        """e^{in theta} of every representative, n = 0..r-1, as an (r, R) complex table.

        A band keeps the table it builds and rebuilds it only when a call
        asks for more rows than it holds; one frequency builds it afresh.
        """
        if self._angular.shape[0] >= r:
            return self._angular[:r]
        table = _angular_table(self._thetas, r - 1)
        if self.omegas.size > 1:
            self._angular = table
        return table

    def _tables(self, r: int, k: int, halves: bool = False):
        """The real table [J_n cos n theta; J_n sin n theta] at frequency k, one block at a time.

        Yields (lo, m, tables) for representatives lo..lo+m-1, the tables
        valid until the next block: [(2r, m)] over the orders n = 0..r-1, or
        with ``halves`` one over the even orders and one over the odd ones.
        At x = g y, Phi_n(x) is i^{jn} Phi_n(y) for a rotation by j quarter
        turns and i^{jn} conj Phi_n(y) for a reflection, and
        Re(conj Phi b) = Re(Phi conj b): each variant's rows are those of its
        representative against the coefficients i^{jn} b_n or their
        conjugates (``_variant_rhs``), exact sign flips and re/im swaps, so one
        real matmul per table gives every variant. A band reads each block's
        e^{in theta} rows from its kept table (``_angular_rows``), and the even
        and odd rows as views of it; one frequency builds them per block into
        a workspace of one block.
        """
        omega = self.omegas[k]
        bessel = bessel_j_table(r - 1, omega * self._radii)
        reps, size = self._thetas.size, min(self._thetas.size, self._block)
        kept = self._angular_rows(r) if self.omegas.size > 1 else None
        evens, odds = (r + 1) // 2, r // 2
        rows = 2 * evens if halves else 2 * r  # the first table's; it holds the r Bessel rows first
        # workspaces for one block; a short last block uses their leading part
        phase_work = np.empty(r * size, dtype=complex) if kept is None else None
        table_work = np.empty(rows * size)
        odd_work = np.empty(2 * odds * size) if halves else None
        for lo in range(0, reps, size):
            m = min(size, reps - lo)
            if kept is None:
                phases = _angular_table(self._thetas[lo : lo + m], r - 1, phase_work[: r * m].reshape(r, m))
            else:
                phases = kept[:, lo : lo + m]
            table = table_work[: rows * m].reshape(rows, m)
            # the block's Bessel columns; "clip" lets take write to out unbuffered (indices are valid)
            np.take(bessel, self._column[lo : lo + m], axis=1, out=table[:r], mode="clip")
            if not halves:
                np.multiply(table[:r], phases.imag, out=table[r:])
                table[:r] *= phases.real
                yield lo, m, [table]
                continue
            # the odd orders' table from the gathered columns, then the even ones' in place
            odd = odd_work[: 2 * odds * m].reshape(2 * odds, m)
            np.multiply(table[1:r:2], phases[1::2].real, out=odd[:odds])
            np.multiply(table[1:r:2], phases[1::2].imag, out=odd[odds:])
            table[:evens] = table[0:r:2]
            np.multiply(table[:evens], phases[0::2].imag, out=table[evens:])
            table[:evens] *= phases[0::2].real
            yield lo, m, [table, odd]

    def transpose(self, sources):
        """The transpose of ``apply`` over the band: sources at the points to coefficient pairs.

        ``sources`` gives one triple (s, s_x, s_y) of complex sources and
        dipole sources per frequency, in band order, each of shape (P, C).
        For each it yields p and q, each (nmax[k] + 1, C), such that for
        every c and in each column

            sum_x [s f + s_x d_x f + s_y d_y f] = (1/2) sum_n (c_n p_n + conj(c_n) q_n),

        with f, d_x f, d_y f = ``apply(c, gradient=True, k=k)``. With
        D1 = s_x + i s_y, D2 = s_x - i s_y and the order shift of ``apply``,

            p_n = w_n sum_x [s Phi_n + (w/2)(D1 Phi_{n-1} - D2 Phi_{n+1})],
            q_n = w_n sum_x [s conj Phi_n + (w/2)(D2 conj Phi_{n-1} - D1 conj Phi_{n+1})],

        w_n = eps_n/(2 pi w J_n'(w)) and Phi_{-1} = -conj Phi_1. One real
        product [Re Phi; Im Phi] [s, D1, D2] gives both Phi @ x = re + i im and
        conj(Phi) @ x = re - i im. The band shares one e^{in theta} table,
        read from ``_angular_rows`` (kept there for a band), and each group
        of ``_BAND_GROUP`` frequencies one ``bessel_j_table`` over all their
        w|x|. The sources are read one frequency at a time, so a caller can
        build each triple as it is needed.
        """
        if self._variants > 1:
            raise ValueError("transpose needs every point as its own representative")
        angular = self._angular_rows(max(self.nmax) + 2)
        planes = np.stack([angular.real, angular.imag])  # cos and sin n theta
        # each point's own radius, not the distinct ones: curve nodes seldom share one
        radii = self._radii[self._column]
        for k, (s, s_x, s_y) in enumerate(sources):
            if k % _BAND_GROUP == 0:
                group = slice(k, k + _BAND_GROUP)
                arguments = np.outer(self.omegas[group], radii)
                r = max(self.nmax[group]) + 2
                bessel = bessel_j_table(r - 1, arguments.ravel()).reshape(r, *arguments.shape)
            n, r = self.nmax[k], self.nmax[k] + 2
            # [Re Phi; Im Phi] for Phi_0..Phi_{n+1}
            table = (bessel[:r, k % _BAND_GROUP] * planes[:, :r]).reshape(2 * r, -1)
            columns = np.hstack([s, s_x + 1j * s_y, s_x - 1j * s_y])
            prod = (table @ columns.view(float)).view(complex)
            direct, conj = prod[:r] + 1j * prod[r:], prod[:r] - 1j * prod[r:]
            a, d1, d2 = np.hsplit(direct, 3)
            b, e1, e2 = np.hsplit(conj, 3)
            half = 0.5 * self.omegas[k]
            p = a[: n + 1] + half * (np.vstack([-e1[1:2], d1[:n]]) - d2[1:])
            q = b[: n + 1] + half * (np.vstack([-d2[1:2], e2[:n]]) - e1[1:])
            weights = self._weights[k][:, None]
            yield weights * p, weights * q


def boundary_kernel_tables(
    omega: float,
    points: np.ndarray,
    boundary_angles: np.ndarray,
    gradient: bool = False,
):
    """Neumann kernel N(x, y_b) for interior points against boundary points.

    Returns the (P, NB) kernel matrix, plus its x and y gradient matrices
    when ``gradient`` is set.
    """
    modes = DiskModes(omega, points)
    return modes.apply(boundary_phases(modes.nmax[0], boundary_angles), gradient)


def boundary_kernel_gradients(
    omega: float,
    points: np.ndarray,
    boundary_angles: np.ndarray,
):
    """Kernel matrix and cartesian gradient matrices (P, NB) each."""
    return boundary_kernel_tables(omega, points, boundary_angles, gradient=True)


# ---------------------------------------------------------------------------
# datasets


@dataclass(frozen=True)
class BoundaryDataset:
    """Scattered-field traces on the boundary grid, per direction and frequency.

    ``traces[n, l, k]`` is (u_tot - u_bac) at boundary point n for incident
    direction l and frequency k. ``snr_db`` is +inf for clean data.
    """

    traces: np.ndarray
    grid: BoundaryGrid
    incident: IncidentSet
    snr_db: float = math.inf
    noise_seed: int | None = None

    def __post_init__(self) -> None:
        tr = np.asarray(self.traces)
        expected = (self.grid.n_points, self.incident.n_directions, self.incident.n_frequencies)
        if tr.shape != expected:
            raise ConfigError(f"traces shape {tr.shape} does not match {expected}")
        if not np.all(np.isfinite(tr.real)) or not np.all(np.isfinite(tr.imag)):
            raise ConfigError("traces must be finite")
        if not (math.isfinite(self.snr_db) or self.snr_db == math.inf):
            raise ConfigError(f"snr_db must be finite or +inf, got {self.snr_db!r}")

    @property
    def is_clean(self) -> bool:
        return self.snr_db == math.inf


def ensure_thin(inclusion: ThinInclusion, omega_max: float) -> None:
    """Refuse a half-thickness above a tenth of the shortest wavelength 2 pi/omega_max."""
    lam_min = 2.0 * math.pi / omega_max
    if inclusion.h > lam_min / 10.0 + 1e-15:
        raise ConfigError(
            f"half-thickness {inclusion.h} too large for the shortest wavelength {lam_min:.4f}"
        )


def synthesize(
    inclusions,
    incident: IncidentSet,
    grid: BoundaryGrid,
    m_nodes: int = SYNTHESIS_NODES,
) -> BoundaryDataset:
    """Clean traces (N, L, K) of a list of thin inclusions, each on ``m_nodes`` curve nodes.

    Keep ``m_nodes`` at least twice any node count used on the inversion
    side. One ``DiskModes`` per inclusion covers the band on its nodes, and
    its ``transpose`` takes each frequency's monopole and dipole sources to
    coefficient rows p_n, q_n per direction; the trace at boundary angle
    phi_b is (1/2) sum_n (p_n e^{-in phi_b} + q_n e^{in phi_b}), exact for
    any N, also where nmax exceeds N.

    With real contrasts and thickness (``ThinInclusion`` enforces them) the
    kernel is real and the sources of -d are the conjugates of those of d,
    so the trace of -d is the conjugate of the trace of d. A standard set of
    4 | L directions (``direction_orders``) holds d_{l+L/2} = -d_l exactly:
    it builds sources and products for its first L/2 directions only and
    takes the others as their conjugates.

    The traces are the first-order thin-layer expansion, which assumes a
    layer phase k1 h = w sqrt(eps mu) h << 1. ``ensure_thin`` bounds h by the
    wavelength only: at eps = mu = 5 and h = 0.02, k1 h is 1.26 at w = 4 pi
    and 3.14 at w = 10 pi, so every preset lies outside that regime.
    """
    inclusions = list(inclusions)
    if not inclusions:
        raise ConfigError("need at least one inclusion")
    for inc in inclusions:
        ensure_thin(inc, float(np.max(incident.omegas)))

    n_directions = incident.n_directions
    half = n_directions // 2 if direction_orders(incident.directions) is not None else n_directions
    directions = incident.directions[:half]
    traces = np.zeros((grid.n_points, n_directions, incident.n_frequencies), dtype=complex)
    for inc in inclusions:
        disc = discretize(inc.curve, m_nodes)
        modes = DiskModes(incident.omegas, disc.nodes)
        phases = boundary_phases(max(modes.nmax), grid.angles)
        along = disc.nodes @ directions.T  # d_l . x per node, (M, L)
        w = inc.h * disc.weights[:, None]
        gamma, alpha, beta = inc.layer_coefficients()
        monopole = gamma * w
        # the dipole alpha (d.t) t + beta (d.n) n per axis, node and direction, (2, M, L)
        tangential = alpha * w * (disc.tangents @ directions.T)
        normal = beta * w * (disc.normals @ directions.T)
        dipole = disc.tangents.T[:, :, None] * tangential + disc.normals.T[:, :, None] * normal
        # each frequency's sources, built as transpose reads them
        waves = ((w, np.exp(1j * w * along)) for w in incident.omegas)
        sources = ((w**2 * monopole * u, *(1j * w * u * dipole)) for w, u in waves)
        for k, (p, q) in enumerate(modes.transpose(sources)):
            e = phases[: modes.nmax[k] + 1]
            traces[:, :half, k] += 0.5 * (e.T @ p + e.T.conj() @ q)
    traces[:, half:] = traces[:, : n_directions - half].conj()
    return BoundaryDataset(traces=traces, grid=grid, incident=incident)


def add_awgn(data: BoundaryDataset, snr_db: float, seed: int) -> BoundaryDataset:
    """Add complex white Gaussian noise at a target SNR per (l, k) trace.

    Noise power is set from each trace's own mean power; the per-trace
    substream is spawned from the master seed, so the result is bit-identical
    regardless of evaluation order. Passing snr_db = +inf returns the input
    unchanged. Traces that are identically zero stay noiseless (their SNR is
    undefined).
    """
    if not data.is_clean:
        raise DataStateError("dataset already carries noise; synthesize a fresh one")
    if snr_db == math.inf:
        return data
    if not math.isfinite(snr_db):
        raise ConfigError(f"snr_db must be finite or +inf, got {snr_db!r}")
    n_b, L, K = data.traces.shape
    noisy = data.traces.copy()
    children = np.random.SeedSequence(seed).spawn(L * K)
    factor = 10.0 ** (-snr_db / 10.0)
    # each trace's mean power, taken along contiguous rows as np.mean of one trace takes it
    powers = np.ascontiguousarray(np.moveaxis(np.abs(data.traces) ** 2, 0, -1)).mean(-1)
    for l in range(L):
        for k in range(K):
            trace = data.traces[:, l, k]
            power = float(powers[l, k])
            if power == 0.0:
                continue
            rng = np.random.Generator(np.random.PCG64(children[l * K + k]))
            scale = math.sqrt(power * factor / 2.0)
            noise = scale * (rng.standard_normal(n_b) + 1j * rng.standard_normal(n_b))
            noisy[:, l, k] = trace + noise
    return BoundaryDataset(
        traces=noisy, grid=data.grid, incident=data.incident, snr_db=float(snr_db), noise_seed=seed
    )


# ---------------------------------------------------------------------------
# dataset file format


def save_dataset(data: BoundaryDataset, path) -> None:
    """Write a dataset as self-describing columnar text (bit-exact floats).

    Rows run over boundary nodes n, then directions l, then frequencies k.
    The file is written one boundary node at a time.

    Only standard equispaced direction families are representable (the header
    stores just L); anything else is rejected rather than silently dropped.
    """
    if not np.array_equal(data.incident.directions, standard_directions(data.incident.n_directions)):
        raise ConfigError("only standard equispaced direction sets can be serialized")
    n_b, L, K = data.traces.shape
    header = [
        "# thinimage boundary dataset v1",
        f"# n_boundary {n_b}",
        f"# n_directions {L}",
        f"# n_frequencies {K}",
        "# omegas " + " ".join(repr(float(w)) for w in data.incident.omegas),
        "# snr_db " + ("clean" if data.is_clean else repr(float(data.snr_db))),
        "# noise_seed " + ("none" if data.noise_seed is None else str(int(data.noise_seed))),
        "# columns n l k re im",
    ]
    lk = [f" {l} {k} " for l in range(L) for k in range(K)]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("".join(line + "\n" for line in header))
        for n, node in enumerate(data.traces):
            re, im = node.real.ravel().tolist(), node.imag.ravel().tolist()
            fh.write("".join([f"{n}{p}{r!r} {i!r}\n" for p, r, i in zip(lk, re, im)]))


def load_dataset(path) -> BoundaryDataset:
    """Read a dataset written by save_dataset (bit-exact round trip)."""
    header: dict[str, str] = {}
    rows = []
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                parts = line[1:].strip().split(None, 1)
                if len(parts) == 2:
                    header[parts[0]] = parts[1]
                continue
            rows.append(line.split())
    try:
        n_b = int(header["n_boundary"])
        L = int(header["n_directions"])
        K = int(header["n_frequencies"])
        omegas = np.array([float(tok) for tok in header["omegas"].split()])
        snr = math.inf if header["snr_db"] == "clean" else float(header["snr_db"])
        seed = None if header["noise_seed"] == "none" else int(header["noise_seed"])
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"malformed dataset header: {exc}") from exc
    if len(rows) != n_b * L * K:
        raise ConfigError(f"expected {n_b * L * K} rows, found {len(rows)}")
    traces = np.zeros((n_b, L, K), dtype=complex)
    seen = np.zeros(traces.shape, dtype=bool)
    for row in rows:
        if len(row) != 5:
            raise ConfigError(f"malformed dataset row: {' '.join(row)}")
        try:
            index = int(row[0]), int(row[1]), int(row[2])
            value = complex(float(row[3]), float(row[4]))
        except ValueError as exc:
            raise ConfigError(f"malformed dataset row: {' '.join(row)} ({exc})") from exc
        if not all(0 <= i < size for i, size in zip(index, traces.shape)):
            raise ConfigError(f"dataset row index out of range: {' '.join(row)}")
        if seen[index]:
            raise ConfigError(f"repeated dataset row: {' '.join(row)}")
        seen[index] = True
        traces[index] = value
    incident = IncidentSet(standard_directions(L), omegas)
    return BoundaryDataset(
        traces=traces,
        grid=BoundaryGrid(n_b),
        incident=incident,
        snr_db=snr,
        noise_seed=seed,
    )


# ---------------------------------------------------------------------------
# multistatic response matrix


@dataclass(frozen=True)
class MultistaticMatrix:
    """Full-aperture observation matrix at one frequency.

    Entry (j, l) pairs the scattered trace of incident direction l with the
    normal flux of the plane wave travelling along direction j, integrated
    over the boundary. Observation and incidence share one direction set.
    No factorization is stored: the subspace baseline takes the SVD of
    ``matrix`` where it needs one (``baselines.signal_space_dim`` and
    ``baselines.music_map``).
    """

    matrix: np.ndarray
    omega: float
    directions: np.ndarray

    @property
    def n_directions(self) -> int:
        return self.matrix.shape[0]


def assemble_multistatic(data: BoundaryDataset, k_index: int = 0) -> MultistaticMatrix:
    """Assemble the observation matrix from boundary traces at one frequency.

    The observation functional for row j is the trapezoid quadrature of the
    trace against i*omega (d_j . nu(y)) e^{i omega d_j . y}, the boundary
    normal derivative of the plane wave with direction d_j. On the unit
    circle nu(y) = y.

    Parameters
    ----------
    data : BoundaryDataset
    k_index : int
        Frequency index into the dataset.

    Returns
    -------
    MultistaticMatrix
    """
    if not 0 <= k_index < data.incident.n_frequencies:
        raise IndexError(f"frequency index {k_index} out of range")
    omega = float(data.incident.omegas[k_index])
    directions = data.incident.directions
    boundary = data.grid.points
    # (N, L) flux of each observation plane wave at each boundary point
    radial = boundary @ directions.T
    flux = (1j * omega) * radial * np.exp(1j * omega * radial)
    traces = data.traces[:, :, k_index]
    matrix = data.grid.weight * (flux.T @ traces)
    return MultistaticMatrix(matrix, omega, directions)

