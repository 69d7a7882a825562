"""The numpy erfcx and Faddeeva w of the traces against scipy and mpmath.

``mirrorsim._faddeeva`` replaces ``scipy.special.erfcx`` and ``wofz`` on the
domain the traces use: real x >= 0 and the closed upper half plane. scipy
stays the reference here. Where scipy's own error exceeds the gate (its w
near |z| = 8, and past |Re z| + Im z = 1e7, where it keeps one term of the
continued fraction), a disagreement passes only if this module is within
the gate of the 30-digit value.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy import special

from mirrorsim import _faddeeva
from mirrorsim._faddeeva import erfcx, w

ERFCX_TOL = 2e-15
CF_TOL = 2e-15  # |z| at or beyond the continued fraction's least radius
SERIES_TOL = 2e-14  # the rational series near the origin
CF_RADIUS = _faddeeva.CF_RADII[-1]

pytestmark = pytest.mark.filterwarnings("error")


def _rel(got, ref):
    """Relative error, 0 where both are equal (both 0 included)."""
    got, ref = np.broadcast_arrays(got, ref)
    err = np.zeros(got.shape)
    diff = got != ref
    err[diff] = np.abs(got[diff] - ref[diff]) / np.abs(ref[diff])
    return err


def _w_exact(z):
    """w(z) at 30 digits: mpmath's erfc, or for |z| > 1e6, where mpmath's
    erfc overflows, 20 terms of the continued fraction (exact there to 1e-100)."""
    with mp.workdps(30):
        z = mp.mpc(z)
        if abs(z) > 1e6:
            r = mp.mpf(0)
            for n in range(20, 0, -1):
                r = (mp.mpf(n) / 2) / (z - r)
            return complex(1j / mp.sqrt(mp.pi) / (z - r))
        return complex(mp.exp(-z * z) * mp.erfc(-1j * z))


def _erfcx_exact(x):
    return float(_w_exact(1j * x).real)


def _tolerance(z):
    return np.where(np.abs(z) >= CF_RADIUS, CF_TOL, SERIES_TOL)


class TestErfcx:
    def test_matches_scipy_from_zero_to_overflow(self):
        x = np.concatenate([
            np.geomspace(1e-300, 1e300, 6001),
            [0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1.7976931348623157e308, np.inf],
            np.linspace(0.0, 60.0, 24001),
            400.0 / np.arange(1, 101) - 4.0,  # every piece boundary
        ])
        got = erfcx(x)
        assert got.dtype == float and got.shape == x.shape
        assert _rel(got, special.erfcx(x)).max() <= ERFCX_TOL
        assert got[x == 0.0].tolist() == [1.0] * np.count_nonzero(x == 0.0)
        assert got[np.isinf(x)].tolist() == [0.0]

    def test_against_mpmath(self, rng):
        x = np.concatenate([10.0 ** rng.uniform(-4.0, 8.0, 150),
                            [1e-300, 0.5, 50.0, 396.0, 1e20, 1e300]])
        exact = np.array([_erfcx_exact(v) for v in x])
        assert _rel(erfcx(x), exact).max() <= ERFCX_TOL

    def test_keeps_the_shape(self):
        x = np.linspace(0.0, 100.0, 12).reshape(3, 4)
        assert erfcx(x).shape == (3, 4)
        assert np.array_equal(erfcx(x).ravel(), erfcx(x.ravel()))


class TestFaddeeva:
    def _grid(self):
        mag = np.geomspace(1e-3, 1e300, 61)
        re = np.concatenate([-mag, [0.0], mag, np.linspace(-12.0, 12.0, 97)])
        im = np.concatenate([[0.0], mag, np.linspace(0.0, 12.0, 49)])
        return re[:, None] + 1j * im[None, :]

    def test_matches_scipy_on_the_closed_upper_half_plane(self):
        z = self._grid()
        got = w(z)
        assert got.shape == z.shape and got.dtype == complex
        tol = _tolerance(z)
        off = _rel(got, special.wofz(z)) > tol
        # scipy's coarse closed forms: each disagreement must be ours being right
        for zi, gi, ti in zip(z[off], got[off], tol[off]):
            exact = _w_exact(zi)
            assert abs(gi - exact) <= ti * abs(exact), zi
        assert np.count_nonzero(off) < 0.05 * z.size

    def test_against_mpmath(self, rng):
        far = 10.0 ** rng.uniform(math.log10(CF_RADIUS), 12.0, 200)
        near = CF_RADIUS * np.sqrt(rng.uniform(0.0, 1.0, 100))
        z = np.concatenate([r * np.exp(1j * rng.uniform(0.0, np.pi, r.size))
                            for r in (far, near)])
        z = np.concatenate([z, [CF_RADIUS + 0j, -CF_RADIUS + 0j, 1j * CF_RADIUS,
                                1e300 + 1e300j, -1e300 + 0j, 7.0 + 0j, 1e-3 + 1e-3j]])
        exact = np.array([_w_exact(v) for v in z])
        assert np.all(_rel(w(z), exact) <= _tolerance(z))

    def test_imaginary_axis_is_erfcx_bitwise(self):
        y = np.concatenate([[0.0, -0.0, 5e-324], np.geomspace(1e-300, 1e300, 2001),
                            np.linspace(0.0, 60.0, 6001)])
        z = np.empty(y.size, dtype=complex)
        z.imag = y
        for real in (0.0, -0.0):
            z.real = real
            got = w(z)
            assert got.imag.tolist() == [0.0] * y.size
            assert got.real.tobytes() == erfcx(y).tobytes()

    def test_empty_and_scalar(self):
        assert w(np.array([], dtype=complex)).shape == (0,)
        assert erfcx(np.array([])).shape == (0,)
        assert abs(w(3.0 + 4.0j) - _w_exact(3.0 + 4.0j)) <= SERIES_TOL * abs(_w_exact(3.0 + 4.0j))
