"""The scaled complementary error function and the Faddeeva function in numpy.

erfcx(x) = exp(x^2) erfc(x) for real x >= 0 and w(z) = exp(-z^2) erfc(-iz)
for Im z >= 0, the domain in which :func:`.wavegroup._half_line` calls them.
The coefficient tables are generated with mpmath by
``tools/faddeeva_coefficients.py`` (:mod:`._faddeeva_tables`).

- erfcx: on each unit interval [j, j + 1) of y100 = 400 / (4 + x),
  j = 0 ... 99, the degree-6 Chebyshev interpolant of its piece in
  s = y100 - j, and 1 at x = 0. Piece 0 (x > 396) has no constant term, so it
  keeps its relative accuracy out to x = inf, where it gives 0. Each element
  costs one gather and six multiply-adds, with no branch.
- w, |z| >= 7.96: the Laplace continued fraction (Poppe and Wijers, ACM TOMS
  16, 1990), each element to the number of terms its |z| needs for a
  truncation error below 2e-17: 12 at |z| = 7.96, 2 past 584, none past
  1.6e8. The elements are sorted by that number, so each step works on one
  contiguous tail. Elsewhere Weideman's rational series with N = 40 (SIAM J.
  Numer. Anal. 31, 1994). On the imaginary axis w(iy) is erfcx(y) + 0i,
  bitwise.

Largest relative errors against 30-digit mpmath values at the points of
``tests/test_faddeeva.py``: erfcx 5.6e-16; w 2.3e-16 on the continued
fraction and 6.7e-16 on the rational series. Neither function warns on its
domain, from subnormal arguments to |z| = 1e300.
"""

from __future__ import annotations

import numpy as np

from ._faddeeva_tables import CF_RADII, ERFCX_PIECES, WEIDEMAN, WEIDEMAN_L

_ISPI = 0.56418958354775628694807945156  # 1 / sqrt(pi)
_PIECES = np.array(ERFCX_PIECES).T.copy()  # row p: the s^p coefficient of each piece
_CF_TERMS = len(CF_RADII) - 1  # most terms a continued fraction takes
_CF_ASCENDING = np.array(CF_RADII[::-1])
_WEIDEMAN = np.array(WEIDEMAN)


def erfcx(x):
    """exp(x^2) erfc(x), elementwise, for real x >= 0 (-0 included)."""
    x = np.asarray(x, dtype=float)
    y100 = 400.0 / (4.0 + x)
    j = y100.astype(np.intp)
    s = y100 - j
    coef = _PIECES.take(j, axis=1)
    y = coef[-1]
    for row in coef[-2::-1]:
        y *= s
        y += row
    return y


def w(z):
    """The Faddeeva function exp(-z^2) erfc(-iz), elementwise, for Im z >= 0."""
    z = np.asarray(z, dtype=complex)
    flat = z.ravel()
    out = np.empty(flat.shape, dtype=complex)
    # the terms each element needs; _CF_TERMS + 1 marks the rational series
    nu = _CF_TERMS + 1 - np.searchsorted(_CF_ASCENDING, np.abs(flat), side="right")
    order = np.argsort(nu.astype(np.int8), kind="stable")
    counts = np.bincount(nu, minlength=_CF_TERMS + 2)
    starts = np.cumsum(counts)  # starts[n - 1]: the first to need n terms or more
    cf, near = order[:starts[-2]], order[starts[-2]:]
    zs = flat.take(cf)
    u = zs.copy()
    # u <- z - (n / 2) / u, n = nu ... 1: at step n, the elements needing n
    # terms or more, sorted last
    for n in range(_CF_TERMS, 0, -1):
        s = starts[n - 1]
        if s == cf.size:
            continue
        np.divide(0.5 * n, u[s:], out=u[s:])
        np.subtract(zs[s:], u[s:], out=u[s:])
    out[cf] = (1j * _ISPI) / u
    if near.size:
        out[near] = _weideman(flat.take(near))
    axis = np.flatnonzero(flat.real == 0.0)
    if axis.size:
        out[axis] = erfcx(flat.imag.take(axis))
    return out.reshape(z.shape)


def _weideman(z):
    """Weideman's rational series for w(z), Im z >= 0."""
    lz = WEIDEMAN_L - 1j * z
    big_z = (WEIDEMAN_L + 1j * z) / lz
    p = np.zeros_like(big_z)
    for a in _WEIDEMAN:
        p = p * big_z + a
    return 2.0 * p / (lz * lz) + _ISPI / lz
