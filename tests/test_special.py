"""Bessel tables and the running J0 integral against scipy.

``j0_band_integral`` is a test reference (``kernel_reference.py``); its
checks guard the program's odd orders of ``forward.bessel_j_table``, the one
J_n builder in the package, which the reference sums.
"""

import math

import numpy as np
import pytest
from scipy import integrate
from scipy import special as sp

from thinimage.forward import bessel_j_table

from kernel_reference import _CHUNK, j0_band_integral


class TestBesselJ:
    # forward.bessel_j_table is the one J_n in the package; check its low
    # orders far past their turning points.
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 12])
    def test_against_library_over_range(self, n):
        rng = np.random.default_rng(42)
        x = np.concatenate([rng.uniform(0.0, 200.0, 1500), np.linspace(0.0, 200.0, 800)])
        mine = bessel_j_table(12, x)[n]
        ref = sp.jv(n, x)
        # Relative away from zeros, absolute near them.
        err = np.abs(mine - ref) / np.maximum(np.abs(ref), 1.0)
        assert np.max(err) <= 1e-10


class TestJ0BandIntegral:
    def test_value_at_zero_is_omega(self):
        for omega in (1.0, 2 * math.pi / 0.5, 2 * math.pi / 0.2):
            assert j0_band_integral(0.0, omega) == omega

    def test_antiderivative_identity(self):
        # Adaptive quadrature of \int_{w1}^{w2} J0(w t) dw must match the
        # difference of the closed form, through the t-scaled antiderivative.
        rng = np.random.default_rng(11)
        for _ in range(25):
            t = rng.uniform(0.02, 2.0)
            w1, w2 = np.sort(rng.uniform(2 * math.pi / 0.5, 2 * math.pi / 0.2, 2))
            if w2 - w1 < 0.5:
                continue
            quad = integrate.quad(lambda w: sp.jv(0, w * t), w1, w2, limit=400)[0]
            scaled = (t * j0_band_integral(t, w2) - t * j0_band_integral(t, w1)) / t
            assert scaled == pytest.approx(quad, rel=1e-7, abs=1e-12)

    def test_running_integral_to_600_against_quadrature(self):
        # More arguments than one Bessel table takes; the reference sums
        # adaptive quadratures between consecutive sorted arguments.
        rng = np.random.default_rng(13)
        x = np.sort(np.concatenate([np.linspace(0.0, 600.0, 4001), rng.uniform(0, 600, 1000)]))
        assert x.size > _CHUNK
        steps = [
            integrate.quad(sp.j0, a, b, epsabs=1e-14, epsrel=1e-14)[0]
            for a, b in zip(x[:-1], x[1:])
        ]
        ref = np.concatenate([[0.0], np.cumsum(steps)])
        assert np.max(np.abs(x * j0_band_integral(x, 1.0) - ref)) <= 1e-12

    def test_omega_derivative_is_j0(self):
        t, omega = 0.7, 2 * math.pi / 0.5
        h = 1e-5
        deriv = (j0_band_integral(t, omega + h) - j0_band_integral(t, omega - h)) / (2 * h)
        assert deriv == pytest.approx(sp.jv(0, omega * t), abs=1e-6)

    def test_band_difference_peaks_at_zero_offset(self):
        # The kernel difference between the band edges attains its global
        # maximum at distance zero (value = band width in omega).
        w_lo, w_hi = 2 * math.pi / 0.5, 2 * math.pi / 0.2
        t = np.linspace(0.0, 2.0, 4001)
        diff = j0_band_integral(t, w_hi) - j0_band_integral(t, w_lo)
        assert np.argmax(diff) == 0
        assert diff[0] == pytest.approx(w_hi - w_lo, rel=1e-12)
        assert np.all(diff[1:] < diff[0])

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            j0_band_integral(-0.1, 1.0)
        with pytest.raises(ValueError):
            j0_band_integral(0.1, 0.0)
        with pytest.raises(ValueError):
            j0_band_integral(np.inf, 1.0)


class TestModulatedKernelShape:
    def test_global_max_at_origin(self):
        # j0(a x) cos(b x) with a=2, b=10 peaks at x=0 with value 1.
        x = np.linspace(-3.0, 3.0, 12001)
        y = np.sinc(2 * x / np.pi) * np.cos(10 * x)
        assert y[np.argmax(np.abs(x) < 1e-12)] == 1.0
        assert np.max(y) == 1.0
        assert np.argmax(y) == 6000


class TestBesselTailIntegral:
    def test_running_integral_of_j0_approaches_one(self):
        # \int_0^T J0 -> 1, with deviation decaying like T^(-1/2).
        devs = []
        for T in (50.0, 100.0, 200.0, 400.0):
            val = integrate.quad(lambda u: sp.jv(0, u), 0.0, T, limit=1000)[0]
            dev = abs(val - 1.0)
            assert dev <= 1.05 * math.sqrt(2.0 / (math.pi * T))
            devs.append(dev)
        assert devs[2] <= 0.06
        assert all(b < a for a, b in zip(devs, devs[1:]))
