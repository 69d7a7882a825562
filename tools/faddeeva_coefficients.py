"""Generate the coefficient tables of ``mirrorsim._faddeeva`` with mpmath.

    python3 tools/faddeeva_coefficients.py > src/mirrorsim/_faddeeva_tables.py

Three tables, each computed at 40 significant digits and rounded once to
double:

- ``ERFCX_PIECES``: erfcx(x) for x >= 0 as a function of y100 = 400 / (4 + x),
  one polynomial of degree ``ERFCX_DEGREE`` per unit interval [j, j + 1) of
  y100, j = 0 ... 99, in s = y100 - j, and the constant 1 at y100 = 100
  (x = 0). Each is the interpolant at the Chebyshev points of its piece, in
  monomial form. Piece 0 (x > 396) is s times the interpolant of f / s, so
  that it has no constant term and keeps its relative accuracy as x -> inf.
- ``WEIDEMAN``: the N = 40 coefficients of Weideman's rational series for
  w(z) (SIAM J. Numer. Anal. 31, 1994), highest power first, with L =
  sqrt(N / sqrt(2)). The coefficients are the discrete Fourier sums of his
  construction, taken in exact arithmetic.
- ``CF_RADII``: R_nu, nu = 0, 1, ..., the least |z| beyond which the Laplace
  continued fraction w(z) = (i/sqrt(pi)) / (z - (1/2) / (z - 1 / (z - ...)))
  cut after nu partial denominators has a relative truncation error below
  ``CF_TOLERANCE`` at every argument of z in the upper half plane. The radius
  is found by bisection in log |z| on each of a grid of arguments; the
  largest over the grid is rounded up.

The script prints the module to stdout and a report of the errors each
table leaves to stderr.
"""

from __future__ import annotations

import math
import sys

import mpmath as mp

mp.mp.dps = 40

ERFCX_DEGREE = 6
WEIDEMAN_N = 40
CF_TOLERANCE = 2e-17
CF_NU_MAX = 12  # the Weideman series serves |z| < R_12
ANGLES = [math.pi / 2 * k / 36 for k in range(37)]


def erfcx(x):
    if x > 1e10:  # mpmath's erfc overflows far out; the continued fraction
        return cf(1j * x, 4).real  # is exact there to 1e-80
    return mp.exp(x * x) * mp.erfc(x)


def w_exact(z):
    return mp.exp(-z * z) * mp.erfc(-1j * z)


def erfcx_piece(j):
    """Monomial coefficients in s = y100 - j, lowest first, of the degree-D
    interpolant of erfcx(400 / y100 - 4) at the Chebyshev points of
    y100 in [j, j + 1]; on piece 0, s times that of erfcx / s."""
    n = ERFCX_DEGREE + 1 - (j == 0)
    ss = [(1 + mp.cos(mp.pi * (k + mp.mpf(1) / 2) / n)) / 2 for k in range(n)]
    fs = [erfcx(400 / (j + s) - 4) / (s if j == 0 else 1) for s in ss]
    vander = mp.matrix([[s**p for p in range(n)] for s in ss])
    coef = list(mp.lu_solve(vander, mp.matrix(fs)))
    return [mp.mpf(0)] + coef if j == 0 else coef


def weideman():
    """Weideman's a_1 ... a_N, highest power first, exactly as his FFT
    construction defines them (M = 2N samples of
    exp(-t^2) (L^2 + t^2) at t = L tan(theta / 2))."""
    n, m = WEIDEMAN_N, 2 * WEIDEMAN_N
    big_l = mp.sqrt(n / mp.sqrt(2))
    samples = [mp.mpf(0)]  # theta = -pi, t = -inf
    for k in range(-m + 1, m):
        t = big_l * mp.tan(k * mp.pi / m / 2)
        samples.append(mp.exp(-t * t) * (big_l**2 + t * t))
    # fftshift, then the real part of the DFT, over 2M
    shifted = samples[m:] + samples[:m]
    a = [sum(f * mp.cos(2 * mp.pi * p * q / (2 * m)) for q, f in enumerate(shifted))
         / (2 * m) for p in range(n + 1)]
    return big_l, a[1:][::-1]


def cf(z, nu):
    r = mp.mpf(0)
    for n in range(nu, 0, -1):
        r = (mp.mpf(n) / 2) / (z - r)
    return 1j / mp.sqrt(mp.pi) / (z - r)


def cf_error(r, angle, nu):
    z = mp.mpc(r * mp.cos(angle), r * mp.sin(angle))
    exact = w_exact(z)
    return abs(cf(z, nu) - exact) / abs(exact)


def cf_radius(nu):
    """Least |z| past which nu terms meet CF_TOLERANCE at every grid angle."""
    worst = 0.0
    for angle in ANGLES:
        lo, hi = 1.0, 1e10  # log-bisection: fails at lo, meets at hi
        while hi / lo > 1.0 + 1e-4:
            mid = math.sqrt(lo * hi)
            lo, hi = (lo, mid) if cf_error(mid, angle, nu) < CF_TOLERANCE else (mid, hi)
        worst = max(worst, hi)
    return float(f"{worst * 1.01:.3g}")  # one per cent to spare, three digits


def main() -> int:
    pieces = [[float(c) for c in erfcx_piece(j)] for j in range(100)]
    worst = 0.0
    for j, coef in enumerate(pieces):
        for k in range(41):
            s = mp.mpf(k) / 40 if k or j else mp.mpf("1e-300")
            p = sum(mp.mpf(c) * s**i for i, c in enumerate(coef))
            exact = erfcx(400 / (j + s) - 4)
            worst = max(worst, float(abs(p - exact) / exact))
    print(f"erfcx pieces: largest relative error {worst:.2e}", file=sys.stderr)

    big_l, a = weideman()
    radii = []
    for nu in range(CF_NU_MAX + 1):
        radii.append(cf_radius(nu))
        print(f"continued fraction: {nu} terms from |z| = {radii[-1]}", file=sys.stderr)

    out = [f'"""Coefficient tables of :mod:`._faddeeva`, written by',
           f'``tools/faddeeva_coefficients.py``; do not edit by hand."""',
           "",
           f"ERFCX_DEGREE = {ERFCX_DEGREE}",
           "# erfcx on y100 in [j, j + 1), j = 0 ... 99, and at y100 = 100:",
           "# coefficients of s^0 ... s^ERFCX_DEGREE, s = y100 - j",
           "ERFCX_PIECES = ("]
    out += [f"    ({', '.join(repr(c) for c in coef)})," for coef in pieces]
    out += [f"    (1.0, {', '.join(['0.0'] * ERFCX_DEGREE)}),",
            ")",
            "",
            f"WEIDEMAN_L = {float(big_l)!r}",
            "# a_N ... a_1, highest power first",
            "WEIDEMAN = ("]
    out += [f"    {', '.join(repr(float(c)) for c in a[i:i + 4])},"
            for i in range(0, len(a), 4)]
    out += [")",
            "",
            f"# R_nu, nu = 0 ... {CF_NU_MAX}: nu terms of the continued fraction give a",
            f"# relative truncation error below {CF_TOLERANCE} for |z| >= R_nu",
            f"CF_RADII = ({', '.join(repr(r) for r in radii)})"]
    print("\n".join(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
