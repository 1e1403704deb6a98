"""Acceptance suite: one test per shipped guarantee, one printed line each.

Every test measures the quantities its guarantee names, prints a single
PASS/FAIL line carrying the measurements, then asserts on them. The -rA
flag configured in pyproject.toml surfaces the printed lines for passing
tests in the PASSES summary section; failing tests carry the same line in
their assertion message.

The raw sensitivity maps implement the first-order theory of the closed
Neumann disk: they correlate at 1.0000 with the independent reference of
``_closed_disk_first_order_maps`` (scipy.special and the curve quadrature
only), and the curve-kernel check below pins that. Three checks fail because
their clauses hold for the open plane, not for the closed disk. The numbers
come from the same reference with the disk's boundary factor replaced by the
open-plane factor J0(w|x-z|), i.e. every 1/J_n'(w)^2 set to 1:
  - monotone improvement with bandwidth at 4 directions: the top-1% distance
    at K = 5 and K = 10 stays at 0.24-0.27 for every noise seed tried and for
    clean data, while the open factor gives 0.108, 0.041, 0.038, 0.037 for
    K = 1, 5, 10, 16 with the same directions. The disk's 1/J_n'(w)^2 mode
    weights break the trend, not grating lobes;
  - the margin over the baselines on sigma3: the closed-disk reference gives
    a combined distance of 0.350 at L16/K16, the open factor 0.013 (the
    baselines' open-plane distances are not measured);
  - the l1/l2 trace-discrepancy bands, for two causes. (a) Scale: the noise
    alone (noisy data against the truth) gives l1 near 31 and l2 near 3.1
    under the unweighted sums over 128 nodes, so no guess, not even the true
    curve, reaches the band top of 0.5; the line prints this floor. Whether
    the norms or the bands are off is not settled, since the paper's norm
    definition is not at hand. (b) Partial guesses: the closed-disk maps give
    partial ridges, so some fits cover only part of the curve and would leave
    the band even under scale-free norms.
"""

import math
import time

import numpy as np
import pytest
from scipy import integrate
from scipy import special as sp

from thinimage.cli import ExperimentConfig, derive_seed, run
from thinimage.errors import ResonanceError
from thinimage.forward import (
    IncidentSet,
    MultistaticMatrix,
    add_awgn,
    assemble_multistatic,
    band_resonance_orders,
    frequency_band,
    load_dataset,
    neumann_function,
    save_dataset,
    standard_directions,
    synthesize,
)
from thinimage.geometry import (
    ThinInclusion,
    boundary_grid,
    builtin_curve,
    discretize,
    distance_to_curve,
)
from thinimage.imaging import (
    adjoint_field_batch,
    band_kernel_maps,
    etd_multi,
    radial_band_maps,
    single_frequency_kernel_maps,
    td_component_maps,
)
from thinimage.baselines import multi_kirchhoff_map, music_map, signal_space_dim
from thinimage.maps import (
    from_point_values,
    make_lattice,
    top_quantile_distance,
)
from thinimage.postprocess import (
    chebyshev_fit,
    clustered_ridges,
    discrete_norms,
    initial_guesses,
)

OMEGA_LO = 2.0 * math.pi / 0.5
OMEGA_HI = 2.0 * math.pi / 0.2
RIDGE_RADIUS = 0.85
# mode-series tail tolerance of the closed-disk reference maps
REFERENCE_TAIL_TOL = 1e-10


def _line(label: str, ok: bool, detail: str) -> str:
    text = f"{label}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(text)
    return text


def _noisy_sigma_dataset(label, n_directions, n_frequencies, seed=1):
    incident = IncidentSet(
        standard_directions(n_directions), frequency_band(n_frequencies)
    )
    grid = boundary_grid(128)
    data = synthesize(
        [ThinInclusion(builtin_curve(label))], incident, grid, m_nodes=400
    )
    return add_awgn(data, 15.0, derive_seed(seed, "noise"))


def _curve_rms(fit, disc) -> float:
    s = np.linspace(fit.a, fit.b, 200)
    pts = np.column_stack([s, fit.evaluate(s)])
    return float(np.sqrt(np.mean(distance_to_curve(pts, disc) ** 2)))


def _cylinder_modes(points, omega, orders):
    """J_n(w r) e^{in a} at each point (rows) and order (columns), with gradient.

    The radial derivative comes from jvp; the angular one uses
    n J_n(x)/x = (J_{n-1}(x) + J_{n+1}(x))/2, which stays finite at r = 0.
    """
    r = np.hypot(points[:, 0], points[:, 1])[:, None]
    angle = np.arctan2(points[:, 1], points[:, 0])[:, None]
    x = omega * r
    phase = np.exp(1j * orders * angle)
    radial = omega * sp.jvp(orders, x) * phase
    angular = 0.5j * omega * (sp.jv(orders - 1, x) + sp.jv(orders + 1, x)) * phase
    c, s = np.cos(angle), np.sin(angle)
    return sp.jv(orders, x) * phase, c * radial - s * angular, s * radial + c * angular


def _closed_disk_first_order_maps(lattice, disc, inclusion, directions, omega):
    """First-order sensitivity maps of a thin inclusion in the Neumann disk.

    Built from scipy.special and the curve quadrature alone. With incident
    waves u_l = e^{i w d_l.x}, the adjoint field of the first-order trace is

        v_l(z) = int_sigma [w^2 gamma u_l K + i w alpha (d_l.t) u_l t.grad_x K
                            + i w beta (d_l.n) u_l n.grad_x K] ds(x),

    with the boundary factor K(x, z) = int_{|y|=1} N(x, y) N(z, y) ds(y) of
    the disk's Neumann function N, which is

        K(x, z) = (1/2 pi w^2) sum_n J_n(w r_x) J_n(w r_z) e^{in(a_x - a_z)} / J_n'(w)^2.

    The maps are eps = Re sum_l v_l conj(u_l) and
    mu = Re sum_l grad v_l . conj(grad u_l); the half-thickness factor is
    left out. Past order w the n-th term decays like (r_x r_z)^|n|, so the
    series stops 10 orders past w plus the order at which (R_z R_x)^n falls
    to REFERENCE_TAIL_TOL, R_z the lattice's largest radius and R_x the
    curve's. Lattice points go in blocks to bound the mode tables' memory.
    """
    pts = lattice.points
    r_lattice = float(np.max(np.hypot(pts[:, 0], pts[:, 1])))
    r_curve = float(np.max(np.hypot(disc.nodes[:, 0], disc.nodes[:, 1])))
    tail = math.ceil(math.log(REFERENCE_TAIL_TOL) / math.log(r_lattice * r_curve))
    nmax = math.ceil(omega) + 10 + tail
    orders = np.arange(-nmax, nmax + 1)[None, :]
    jnp = sp.jvp(orders, omega)

    d = np.asarray(directions, dtype=float)
    a, ax, ay = (m / jnp for m in _cylinder_modes(disc.nodes, omega, orders))
    a_tan = disc.tangents[:, 0:1] * ax + disc.tangents[:, 1:2] * ay
    a_nor = disc.normals[:, 0:1] * ax + disc.normals[:, 1:2] * ay
    u = np.exp(1j * omega * (disc.nodes @ d.T))
    w = disc.weights[:, None]
    coef = (
        (omega**2 * inclusion.permittivity_contrast() * w * u).T @ a
        + (1j * omega * inclusion.tangential_contrast() * w * u * (disc.tangents @ d.T)).T
        @ a_tan
        + (1j * omega * inclusion.normal_contrast() * w * u * (disc.normals @ d.T)).T
        @ a_nor
    ).T / (2.0 * math.pi * omega**2)

    eps_vals = np.empty(pts.shape[0])
    mu_vals = np.empty(pts.shape[0])
    block = 2048
    for start in range(0, pts.shape[0], block):
        z = pts[start : start + block]
        b, bx, by = (m.conj() / jnp for m in _cylinder_modes(z, omega, orders))
        u_conj = np.exp(-1j * omega * (z @ d.T))
        v = b @ coef
        dv = (bx @ coef) * d[None, :, 0] + (by @ coef) * d[None, :, 1]
        eps_vals[start : start + block] = np.sum(np.real(v * u_conj), axis=1)
        mu_vals[start : start + block] = np.sum(
            np.real(dv * (-1j * omega) * u_conj), axis=1
        )
    return from_point_values(lattice, eps_vals), from_point_values(lattice, mu_vals)


def test_band_antiderivative_and_tail_decay():
    t0 = time.perf_counter()
    from thinimage.imaging import j0_band_integral

    # 20 x 20 grid of (offset, band) samples against adaptive quadrature
    rng = np.random.default_rng(5)
    ts = np.linspace(0.05, 2.0, 20)
    bands = np.sort(rng.uniform(OMEGA_LO, OMEGA_HI, size=(20, 2)), axis=1)
    bands[:, 1] = np.maximum(bands[:, 1], bands[:, 0] + 0.5)
    worst = 0.0
    for t in ts:
        for lo, hi in bands:
            oracle = integrate.quad(lambda w: sp.jv(0, w * t), lo, hi, limit=400)[0]
            mine = j0_band_integral(t, hi) - j0_band_integral(t, lo)
            worst = max(worst, abs(mine - oracle) / max(abs(oracle), 1e-12 / 1e-7))
    identity_ok = worst <= 1e-7

    # running integral of J0 approaches 1 with a one-over-sqrt tail
    errs = {T: abs(j0_band_integral(1.0, T) - 1.0) for T in (50, 100, 200, 400)}
    decay_ok = all(err <= 1.0 / math.sqrt(T) for T, err in errs.items())
    decay_ok = decay_ok and errs[400] < errs[50]

    dt = time.perf_counter() - t0
    ok = identity_ok and decay_ok and dt < 5.0
    text = _line(
        "band antiderivative and tail decay",
        ok,
        f"max rel err {worst:.2e} vs 1e-7; tail err*sqrt(T) "
        + ", ".join(f"T{T}={err * math.sqrt(T):.3f}" for T, err in errs.items())
        + f"; runtime {dt:.1f}s < 5s",
    )
    assert ok, text


def test_disk_kernel_reciprocity_boundary_and_resonance():
    t0 = time.perf_counter()
    omega = OMEGA_LO
    rng = np.random.default_rng(7)

    def disk_point(radius):
        r = radius * math.sqrt(rng.uniform())
        phi = rng.uniform(0.0, 2.0 * math.pi)
        return np.array([r * math.cos(phi), r * math.sin(phi)])

    recip = 0.0
    for _ in range(50):
        x, y = disk_point(0.9), disk_point(0.9)
        while np.hypot(*(x - y)) < 0.05:
            y = disk_point(0.9)
        recip = max(
            recip, abs(neumann_function(x, y, omega) - neumann_function(y, x, omega))
        )
    recip_ok = recip <= 1e-8

    normal = 0.0
    for _ in range(50):
        phi = rng.uniform(0.0, 2.0 * math.pi)
        x = np.array([math.cos(phi), math.sin(phi)])
        y = disk_point(0.8)
        _, grad = neumann_function(x, y, omega, gradient=True)
        normal = max(normal, abs(float(np.real(grad) @ x)))
    normal_ok = normal <= 1e-6

    # bisect the first positive stationary point of the order-one Bessel
    # function and confirm the detector trips there
    lo, hi = 1.5, 2.2
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if sp.jvp(1, mid, 1) > 0.0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    flagged = [n for n, _ in band_resonance_orders(root, 1e-8)[0]]
    with pytest.raises(ResonanceError):
        neumann_function(np.array([0.3, 0.1]), np.array([0.2, -0.4]), root)
    flag_ok = 1 in flagged

    dt = time.perf_counter() - t0
    ok = recip_ok and normal_ok and flag_ok and dt < 10.0
    text = _line(
        "disk kernel reciprocity, boundary condition, resonance guard",
        ok,
        f"max reciprocity gap {recip:.2e} vs 1e-8; max normal derivative "
        f"{normal:.2e} vs 1e-6; orders flagged at omega={root:.6f}: {flagged}; "
        f"runtime {dt:.1f}s < 10s",
    )
    assert ok, text


def test_model_map_cross_consistency():
    t0 = time.perf_counter()
    directions = standard_directions(64)
    omega = OMEGA_LO
    rng = np.random.default_rng(3)
    pts = rng.uniform(-0.6, 0.6, size=(60, 2))
    arg = omega * np.hypot(pts[:, 0], pts[:, 1])
    pts = pts[arg <= 8.0]
    lattice_sum = (2.0 * math.pi / 64) * np.sum(
        np.exp(1j * omega * pts @ directions.T), axis=1
    )
    reference = 2.0 * math.pi * sp.jv(0, omega * np.hypot(pts[:, 0], pts[:, 1]))
    sum_err = float(np.max(np.abs(lattice_sum - reference))) / (2.0 * math.pi)
    sum_ok = sum_err <= 0.02

    curve = builtin_curve("sigma1")
    disc = discretize(curve, 200)
    inclusion = ThinInclusion(curve)
    lattice = make_lattice(64)
    band = frequency_band(16)
    band_eps, _ = band_kernel_maps(
        lattice, disc, inclusion, directions, band[0], band[-1]
    )
    acc = np.zeros(lattice.points.shape[0])
    for omega_k in band:
        ek, _ = single_frequency_kernel_maps(lattice, disc, inclusion, directions, omega_k)
        acc += ek.inside_values
    mean_map = from_point_values(lattice, acc / band.size)
    corr_band = np.corrcoef(band_eps.inside_values, mean_map.inside_values)[0, 1]
    radial_eps, _ = radial_band_maps(
        lattice, disc, inclusion, directions, band[0], band[-1]
    )
    corr_radial = np.corrcoef(radial_eps.inside_values, band_eps.inside_values)[0, 1]

    dt = time.perf_counter() - t0
    ok = sum_ok and corr_band >= 0.9 and corr_radial >= 0.9 and dt < 60.0
    text = _line(
        "model map cross consistency",
        ok,
        f"direction sum err {sum_err:.4f} vs 0.02; band-vs-frequency-sum corr "
        f"{corr_band:.4f} and radial-vs-band corr {corr_radial:.4f} vs 0.9; "
        f"runtime {dt:.1f}s < 60s",
    )
    assert ok, text


def test_sensitivity_maps_against_curve_kernels():
    # Besides 4 pi, the default band's most nearly resonant frequency
    # (min |J_n'| = 9.6e-4 at n = 11): only there does a reference with one
    # 1/J_n'(w) dropped fall apart (eps corr 0.08, mu corr 0.13, against 0.95
    # and 0.96 at 4 pi), so the pair pins the boundary factor's 1/J_n'(w)^2.
    t0 = time.perf_counter()
    curve = builtin_curve("sigma1")
    directions = standard_directions(16)
    grid = boundary_grid(128)
    lattice = make_lattice(128)

    def correlations(omega):
        incident = IncidentSet(directions, np.array([omega]))
        data = synthesize([ThinInclusion(curve)], incident, grid, m_nodes=400)
        eps_map, mu_map = td_component_maps(data, lattice, 0)
        model_eps, model_mu = _closed_disk_first_order_maps(
            lattice, discretize(curve, 200), ThinInclusion(curve), directions, omega
        )
        return (
            data.traces[:, :, 0],
            np.corrcoef(eps_map.inside_values, model_eps.inside_values)[0, 1],
            np.corrcoef(mu_map.inside_values, model_mu.inside_values)[0, 1],
        )

    traces, corr_eps, corr_mu = correlations(OMEGA_LO)
    near_omega = float(frequency_band(16)[4])
    _, near_eps, near_mu = correlations(near_omega)

    rng = np.random.default_rng(11)
    step = 1e-5
    grad_err = 0.0
    for _ in range(20):
        z = 0.85 * rng.uniform(-1.0, 1.0, 2)
        while np.hypot(*z) > 0.85:
            z = 0.85 * rng.uniform(-1.0, 1.0, 2)
        # one point per call: the batch's largest radius sets the series order
        grad = adjoint_field_batch(traces, grid, OMEGA_LO, z[None], gradient=True)[1][0]
        fd = np.empty_like(grad)
        for axis, e in enumerate(np.eye(2)):
            plus = adjoint_field_batch(traces, grid, OMEGA_LO, (z + step * e)[None])[0]
            minus = adjoint_field_batch(traces, grid, OMEGA_LO, (z - step * e)[None])[0]
            fd[:, axis] = (plus - minus) / (2.0 * step)
        grad_err = max(
            grad_err, float(np.max(np.abs(grad - fd)) / np.max(np.abs(grad)))
        )

    dt = time.perf_counter() - t0
    ok = (
        min(corr_eps, near_eps) >= 0.95
        and min(corr_mu, near_mu) >= 0.9
        and grad_err <= 1e-5
        and dt < 120.0
    )
    text = _line(
        "sensitivity maps against curve kernels",
        ok,
        f"eps corr {corr_eps:.4f} vs 0.95; mu corr {corr_mu:.4f} vs 0.9; "
        f"at omega={near_omega:.3f}: eps corr {near_eps:.4f}, mu corr {near_mu:.4f}; "
        f"adjoint gradient rel err {grad_err:.2e} vs 1e-5; runtime {dt:.1f}s < 120s",
    )
    assert ok, text


def test_noisy_localization_and_two_curve_recovery():
    t0 = time.perf_counter()
    lattice = make_lattice(128)
    disc1 = discretize(builtin_curve("sigma1"), 400)

    dist = {}
    for n_freq in (1, 5, 10, 16):
        noisy = _noisy_sigma_dataset("sigma1", 4, n_freq)
        dist[n_freq] = top_quantile_distance(etd_multi(noisy, lattice), disc1, 0.01)
    mono_ok = dist[5] <= dist[1] and dist[10] <= dist[5] and dist[16] <= dist[10]
    few_dir_ok = dist[16] <= 0.1

    noisy = _noisy_sigma_dataset("sigma1", 16, 16)
    dist_l16 = top_quantile_distance(etd_multi(noisy, lattice), disc1, 0.01)
    many_dir_ok = dist_l16 <= 0.06

    incident = IncidentSet(standard_directions(16), frequency_band(16))
    grid = boundary_grid(128)
    pair = [
        ThinInclusion(builtin_curve("sigma1")),
        ThinInclusion(builtin_curve("sigma2")),
    ]
    data = add_awgn(
        synthesize(pair, incident, grid, m_nodes=400), 15.0, derive_seed(1, "noise")
    )
    multi_map = etd_multi(data, lattice)
    # the top percentile alone sits on the stronger curve; widening the
    # bright set to 3% admits both before clustering
    clusters = clustered_ridges(multi_map, quantile=0.03, min_points=8)[:2]
    discs = {
        "sigma1": disc1,
        "sigma2": discretize(builtin_curve("sigma2"), 400),
    }
    rms = {}
    for pts in clusters:
        pts = pts[np.hypot(pts[:, 0], pts[:, 1]) <= RIDGE_RADIUS]
        fit = chebyshev_fit(pts, 5)
        errors = {label: _curve_rms(fit, d) for label, d in discs.items()}
        label = min(errors, key=errors.get)
        rms[label] = min(errors[label], rms.get(label, math.inf))
    pair_ok = set(rms) == set(discs) and max(rms.values()) <= 0.08

    dt = time.perf_counter() - t0
    ok = mono_ok and few_dir_ok and many_dir_ok and pair_ok and dt < 300.0
    text = _line(
        "noisy localization and two-curve recovery",
        ok,
        "top-1% dist by frequency count "
        + ", ".join(f"K{k}={v:.4f}" for k, v in dist.items())
        + f" (monotone: {mono_ok}); L16K16 {dist_l16:.4f} vs 0.06; two-curve rms "
        + ", ".join(f"{k}={v:.4f}" for k, v in sorted(rms.items()))
        + f" vs 0.08; runtime {dt:.1f}s < 300s",
    )
    assert ok, text


def test_against_subspace_and_migration_baselines():
    t0 = time.perf_counter()
    lattice = make_lattice(128)
    disc3 = discretize(builtin_curve("sigma3"), 400)
    noisy = _noisy_sigma_dataset("sigma3", 16, 16)

    td_dist = top_quantile_distance(etd_multi(noisy, lattice), disc3, 0.01)
    msr0 = assemble_multistatic(noisy, 0)
    music, _ = music_map(lattice, msr0, signal_space_dim(msr0, clean=False))
    music_dist = top_quantile_distance(music, disc3, 0.01)
    msrs = [assemble_multistatic(noisy, k) for k in range(16)]
    km_dist = top_quantile_distance(multi_kirchhoff_map(lattice, msrs), disc3, 0.01)
    margin_ok = td_dist < music_dist and td_dist < km_dist

    points = np.array([[0.4, 0.0], [-0.3, 0.2], [0.1, -0.45]])
    directions = standard_directions(16)
    # three unit monopoles: entry (j, l) is sum_p e^{i w (d_j + d_l) . x_p}
    phases = np.exp(1j * OMEGA_HI * (directions @ points.T))
    msr = MultistaticMatrix(phases @ phases.T, OMEGA_HI, directions)
    locate = make_lattice(64)
    imap, _ = music_map(locate, msr, signal_dim=3)
    cell = (locate.axis[1] - locate.axis[0]) * math.sqrt(2.0)
    worst_cell = 0.0
    for p in points:
        near = np.hypot(locate.points[:, 0] - p[0], locate.points[:, 1] - p[1]) <= 0.2
        peak = locate.points[near][np.argmax(imap.inside_values[near])]
        worst_cell = max(worst_cell, float(np.hypot(*(peak - p))))
    cells_ok = worst_cell <= cell

    dt = time.perf_counter() - t0
    ok = margin_ok and cells_ok and dt < 180.0
    text = _line(
        "margin over subspace and migration baselines",
        ok,
        f"top-1% dist: combined {td_dist:.4f} vs subspace {music_dist:.4f} and "
        f"migration {km_dist:.4f} (must beat both); monopole peak offset "
        f"{worst_cell:.4f} vs cell {cell:.4f}; runtime {dt:.1f}s < 180s",
    )
    assert ok, text


def test_trace_discrepancy_zero_and_noise_bands():
    t0 = time.perf_counter()
    incident = IncidentSet(standard_directions(16), frequency_band(16))
    grid = boundary_grid(128)
    inclusion = [ThinInclusion(builtin_curve("sigma1"))]
    truth = synthesize(inclusion, incident, grid, m_nodes=400)
    again = synthesize(inclusion, incident, grid, m_nodes=400)
    rep0 = discrete_norms(truth, again, k_index=0)
    zero_ok = rep0.n1 == 0.0 and rep0.n2 == 0.0 and rep0.n_inf == 0.0

    lattice = make_lattice(128)
    n1s, n2s, ninfs = [], [], []
    floors = []
    for seed in range(10):
        noisy = add_awgn(truth, 15.0, seed)
        # what the noise alone leaves: the norms of the noisy data against the truth
        floors.append(discrete_norms(noisy, truth, k_index=0))
        # the run's single-curve initial guess, degree 5
        (fit,) = initial_guesses(etd_multi(noisy, lattice), 1, 5)
        guess = [ThinInclusion(fit.as_parametric("guess"))]
        comp = synthesize(guess, incident, grid, m_nodes=400)
        rep = discrete_norms(noisy, comp, k_index=0)
        n1s.append(rep.n1)
        n2s.append(rep.n2)
        ninfs.append(rep.n_inf)
    n1_ok = all(0.02 <= v <= 0.5 for v in n1s)
    n2_ok = all(0.02 <= v <= 0.5 for v in n2s)
    ninf_ok = all(0.1 <= v <= 3.0 for v in ninfs)

    dt = time.perf_counter() - t0
    ok = zero_ok and n1_ok and n2_ok and ninf_ok and dt < 120.0
    text = _line(
        "trace discrepancy zero and noise bands",
        ok,
        f"clean norms ({rep0.n1:g}, {rep0.n2:g}, {rep0.n_inf:g}); 10-seed ranges "
        f"l1 [{min(n1s):.2f}, {max(n1s):.2f}] vs [0.02, 0.5], "
        f"l2 [{min(n2s):.2f}, {max(n2s):.2f}] vs [0.02, 0.5], "
        f"sup [{min(ninfs):.2f}, {max(ninfs):.2f}] vs [0.1, 3.0]; noise floor "
        f"l1 [{min(f.n1 for f in floors):.2f}, {max(f.n1 for f in floors):.2f}], "
        f"l2 [{min(f.n2 for f in floors):.2f}, {max(f.n2 for f in floors):.2f}], "
        f"sup [{min(f.n_inf for f in floors):.2f}, {max(f.n_inf for f in floors):.2f}]; "
        f"runtime {dt:.1f}s < 120s",
    )
    assert ok, text


def test_byte_identical_runs_and_round_trip(tmp_path):
    t0 = time.perf_counter()
    config = ExperimentConfig(
        n_directions=4, n_frequencies=2, seed=3, out_dir=str(tmp_path / "out")
    )
    out_dir, _ = run(config)
    first = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    out_dir, _ = run(config)
    second = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    identical = first == second

    loaded = load_dataset(out_dir / "dataset.txt")
    save_dataset(loaded, tmp_path / "copy.txt")
    round_trip = (tmp_path / "copy.txt").read_bytes() == first["dataset.txt"]

    dt = time.perf_counter() - t0
    ok = identical and round_trip and dt < 60.0
    text = _line(
        "byte-identical runs and dataset round trip",
        ok,
        f"rerun identical across {len(first)} artifacts: {identical}; "
        f"dataset round trip bit-exact: {round_trip}; runtime {dt:.1f}s < 60s",
    )
    assert ok, text
