"""Gaussian-spectrum two-body wavegroups evaluated in closed form.

A wavegroup superposes the two-time plane-wave pairs of :mod:`.harmonic`
with a Gaussian spectral weight in (k, K). The state is the incident
branch minus the reflected branch, and each branch is one complex
Gaussian integral over the spectral offsets s = (k - k0, K - K0):

    F(x, t) = C exp(i Phi(x, t)) * integral exp(-s^T A s / 2 + i b^T s) ds
    A = diag(1/dk^2, 1/dK^2) + i E^T diag(hbar tau1/m, hbar tau2/M) E
    b = E^T (x - u tau) - (x1c, x2c),    tau = t - t0

E acts on the spectral offsets: the identity for the incident branch, the
recoil-form collision matrix of :class:`~.kinematics.PhysicalParams` for the
reflected one. The reflected branch is the incident carrier plus a recoil:
carrier (k0, K0) + 2 k_rel (-1, 1), velocity (v, V) + 2 hbar k_rel (-1/m, 1/M).
Both branches take the shared (v tau1, V tau2) off x before any recoil.
:func:`_form` builds each branch's real form at the measurement times (t1,
t2), t2 a float or an axis of times, straight from the spec in real
arithmetic: the intensity Gaussian's covariance, and log|F| and arg F as
real quadratics about the branch's centre. The complex A is never formed:
R = diag(1/dk^2, 1/dK^2) enters through its inverse, the chirps C =
diag(hbar tau1/m, hbar tau2/M) as they are. That is the one form per
branch, and the density (:class:`_Density`) is its one reader: it alone
turns a form into a position or a log-modulus, in each branch's exact
offsets from its centre. Densities, traces, conditional profiles and
regimes, both packets' frames (:func:`frames`), and the complex
amplitudes, currents and their gradients (relative to (k0, K0)) all read
it. The oracles that check it, a Gauss-Hermite quadrature of the same
integrals and a 50-digit closed form, are written independently in the
tests (``tests/test_oracle.py``).

What no time changes is built once per spec and kept with it
(:func:`_build_constants`): per branch Q = E R^{-1} E^T and its inverse P,
per system the recoil, the centres' offset at t0, the undetuned recoil kick
and the beat frequency. :func:`_form` adds the chirps C and all that depends
on them, :func:`_density_form` the centres' motion and the phase constant,
so a query at many mirror times repeats only the per-time part.

The density |F_in - F_ref|^2 is evaluated in real arithmetic, as
(|F_in| - |F_ref|)^2 + 4 |F_in| |F_ref| sin^2(dphi / 2) (:class:`_Density`).
|F| of a branch is the square root of its intensity Gaussian, so Re(b^T
A^{-1} b) is never formed, and dphi is one real quadratic, so no complex
exponential is taken. Each branch is read in its own offsets: the incident
one in e = x - (incident centre), the reflected one in d = e - delta, delta
the reflected centre's offset, formed in closed form, never as a difference
of the two centres. All of each factor but the reflected cross term d1 d2
depends on a single coordinate: on a grid those
parts are evaluated on the axes, the recoil half phase reduced mod pi
exactly there, and broadcast, so each point costs a few real multiply-adds,
one real exp and one sin. A joint-PDF grid (:func:`~.scenario.joint_pdf_grid`)
is evaluated on its physical half x1 <= x2, where the amplitude lives, in
blocks of rows, each from its first row's physical column on
(:func:`_physical_pdf`); the step sets the rest to an exact 0. Every step is
elementwise, so each value is bitwise that of the whole-grid evaluation
(:func:`_smooth_pdf`). Amplitudes and currents read the same coefficients
(:func:`_fields`): |F_in| = a1 a2, and F_ref / F_in is |F_ref| / |F_in| times
exp(-2 i theta), theta the half phase difference. Over an axis of mirror
times the coefficients are arrays, one form for a whole series, as
:func:`~.observables.doppler_beat` reads it.

Traces are closed forms too: at fixed (t1, t2) every term of |F_in - F_ref|^2
is the exponential of a quadratic in the traced coordinate, so its integral
over a half line is a Gaussian times an erfc (:func:`_closed_trace`). The two
intensity terms are real, through the scaled real erfc; only the cross term
takes a complex erfc, through the Faddeeva function, and only where it can
change the sum. Both functions are numpy kernels (:mod:`._faddeeva`), loaded
on the first trace; the package needs nothing beyond numpy. Marginals and
conditional probabilities all come from it, its exponents read off the
density: each branch's peak along the traced axis (:meth:`_Density.peaks`)
and the cross term's exponent and slope (:meth:`_Density.cross`). The
mass, means and variances of both marginals over the physical half plane
are closed forms in the same way (:func:`_half_plane_moments`): each term
integrated as a Gaussian along the wall, then over the half line s = x2 -
x1 >= 0 through the same erfc and two recurrences.

Phi is the (possibly astronomically large) carrier phase at the central
wavevectors, the plane-wave pair's :func:`~.harmonic.incident_phase`. Only
the incident-reflected *difference* of carrier phases is physical for
densities and currents; it is the pair's recoil phase
(:func:`~.harmonic.interference_phase`), which the density's form reduces
mod pi exactly, never a difference of large floats, so they stay accurate
even where Phi exceeds float precision. The absolute
phase of one amplitude is reduced modulo 2*pi and means something only
while |Phi| << 1/eps.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .harmonic import _TWO_PI, SpacetimePoint, beat_frequency, incident_phase
from .kinematics import PhysicalParams, _enforce, _known


def _at_times(what: str, times: dict) -> str:
    """``what`` at the named times; an axis of times is named by its span."""
    return f"{what} at " + ", ".join(f"{k}={v:.6g}" if np.ndim(v) == 0
                                     else f"{k}={np.min(v):.6g}..{np.max(v):.6g}"
                                     for k, v in times.items())


def _check_range(ok, what: str, **times):
    """ValueError naming the times unless ``ok``: at extreme times the closed
    form's chirps and exponents leave the floating-point range. The callers
    that check their results evaluate without overflow warnings, so the
    error prints alone."""
    if not ok:
        raise ValueError(f"{_at_times(what, times)} is beyond the closed form's "
                         "floating-point range")


def _lost_precision(what: str, cause: str, **times) -> ValueError:
    """The ValueError for a finite result that rounding has cancelled to what
    it cannot be, ``cause`` saying which: nothing left the range, the closed
    form lost its precision (ROADMAP item 1's ill-conditioned curvature)."""
    return ValueError(f"{_at_times(what, times)} lost precision: {cause}")


# ---------------------------------------------------------------------------
# wavegroup specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WavegroupSpec:
    """Gaussian spectral amplitudes and initial packet centres.

    The spectral weight is exp[-(k-k0)^2/(2 dk^2)] exp[-(K-K0)^2/(2 dK^2)],
    centred on the incident pair (k0, K0) = (params.k, params.K), with linear
    phases centring the packets at (x1c, x2c) at the reference time t0,
    normalised to unit total probability. The packet centres must
    lie more than five combined widths 1/dk + 1/dK apart. That caps the
    incident packet's weight on the unphysical side x1 > x2 at t0,
    erfc((x2c - x1c) / sqrt(1/dk^2 + 1/dK^2)) / 2, below erfc(5)/2 = 7.7e-13.
    """

    params: PhysicalParams
    dk: float
    dK: float
    x1c: float
    x2c: float
    t0: float = 0.0

    def __post_init__(self):
        _enforce(self, "dk", "dK", "x1c", "x2c", "t0")

    @staticmethod
    def _rules(**given) -> list[tuple[str, str]]:
        broken, (dk, dK, x1c, x2c, _) = _known(given, "dk", "dK", "x1c", "x2c", "t0",
                                               positive=("dk", "dK"))
        if None not in (x1c, x2c) and not x1c < x2c:
            broken.append(("x1c", "must lie left of x2c"))
        if None not in (dk, dK, x1c, x2c) and not x2c - x1c > 5.0 * (1.0 / dk + 1.0 / dK):
            broken.append(("x2c", "must lie more than five combined widths 1/dk + 1/dK "
                                  "right of x1c"))
        return broken

    @functools.cached_property
    def _constants(self) -> _Constants:
        """The closed form's time-independent constants (:func:`_build_constants`),
        built on first use; they live and die with the spec."""
        return _build_constants(self)

    @property
    def beat0(self) -> float:
        """Central beat frequency, the phase-advance rate of the cross term."""
        return beat_frequency(self.params)

    @property
    def collision_time(self) -> float:
        return self.t0 + (self.x2c - self.x1c) / (self.params.v - self.params.V)

    @property
    def collision_point(self) -> float:
        return self.x1c + self.params.v * (self.collision_time - self.t0)

    @property
    def tau(self) -> float:
        """Overlap time scale: incident and reflected centroids separate by
        twice the particle packet width 2/dk in this time."""
        return 4.0 / (self.dk * (self.params.v - self.params.V))


# ---------------------------------------------------------------------------
# closed-form evaluation
# ---------------------------------------------------------------------------

class _Constants(NamedTuple):
    """What the closed form reads off a spec at no time (:func:`_build_constants`);
    :func:`_form` and :func:`_density_form` add what depends on the times."""

    spread: tuple   # per branch, incident first: (Q, det Q, P = adj(Q) / det Q, det P),
                    # Q and P as (11, 12, 22)
    kq: float       # 2 k_rel: the reflected carrier is (k0, K0) + kq (-1, 1)
    delta0: tuple   # per axis, the reflected centre's offset at t0, (2 - a12, -a12) (x2c - x1c)
    k_rel: tuple    # k_rel as (hi, lo) (:func:`_k_rel_dd`)
    kick: tuple     # per axis, the undetuned recoil half phase's slope, +-k_rel
    cycles: tuple   # per axis, that slope over pi, as (hi, lo)
    beat: float     # the central beat frequency (:func:`~.harmonic.beat_frequency`)


def _build_constants(spec: WavegroupSpec) -> _Constants:
    """The spec's :class:`_Constants`, kept by ``WavegroupSpec._constants``:
    each branch's Q = E R^{-1} E^T (:func:`_form`), E the identity or the
    collision matrix, and the undetuned kick and cycles (:func:`_recoil`)."""
    p = spec.params
    s1, s2 = 1.0 / (1.0 / spec.dk**2), 1.0 / (1.0 / spec.dK**2)  # R^{-1}
    spread = []
    for (e11, e12), (e21, e22) in (((1.0, 0.0), (0.0, 1.0)), p.collision_matrix):
        det_e = e11 * e22 - e12 * e21
        det_q = det_e * det_e * s1 * s2
        q11 = e11 * e11 * s1 + e12 * e12 * s2
        q12 = e11 * e21 * s1 + e12 * e22 * s2
        q22 = e21 * e21 * s1 + e22 * e22 * s2
        spread.append(((q11, q12, q22), det_q, (q22 / det_q, -q12 / det_q, q11 / det_q),
                       1.0 / det_q))
    kq = 2.0 * p.k_rel
    a12, sep = p.collision_matrix[0][1], spec.x2c - spec.x1c
    k_rel = _k_rel_dd(p)
    kick, cycles = _recoil(p, kq, k_rel, 1.0)
    return _Constants(spread=tuple(spread), kq=kq, delta0=((2.0 - a12) * sep, -(a12 * sep)),
                      k_rel=k_rel, kick=kick, cycles=cycles, beat=beat_frequency(p))


class _Form(NamedTuple):
    """One branch's real form at a pair of times (:func:`_form`); over an axis
    of t2 the entries that depend on t2 are arrays, the others scalars."""

    cov: tuple      # ((11, 12), (21, 22)) of the intensity Gaussian |F|^2
    log0: float     # log|F| at the centre
    arg0: float     # arg F at the centre, less Phi and a reflected recoil phase
    mr: tuple       # (11, 12, 22) of the real curvature, Sigma^{-1} / 2
    mi: tuple       # (11, 12, 22) of the imaginary curvature


def _form(spec: WavegroupSpec, reflected: bool, t1, t2) -> _Form:
    """The incident or the reflected branch's real form at the measurement
    times (t1, t2), t2 a float or an array: its log-amplitude is log0 + i arg0
    - d^T (mr + i mi) d / 2, d = x - centre, less a reflected branch's recoil
    phase. The centres are the density's (:class:`_Density`), which reads
    every branch in its own exact offsets from them.

    In the module docstring's A = R + i E^T C E, R = diag(1/dk^2, 1/dK^2), C =
    diag(hbar tau1/m, hbar tau2/M), |F|^2 is the Gaussian exp(-b^T Re(A^{-1})
    b), centred where b = 0. Its covariance Sigma = (2 E Re(A^{-1}) E^T)^{-1}
    is (P + C Q C) / 2, P = E^{-T} R E^{-1}, Q = P^{-1} = E R^{-1} E^T, since
    Re((P + i C)^{-1}) = (P + C Q C)^{-1}. The diagonal is a sum of
    like-signed terms that bound the off-diagonal, so nothing cancels. P is
    the adjugate of Q over det Q = det(E)^2 / (R11 R22).

    With b = E^T d and A = E^T (P + i C) E, b^T A^{-1} b = d^T (P + i C)^{-1} d,
    and (P + i C)^{-1} = adj(P + i C) conj(D) / |D|^2, D = det(P + i C). For
    c1 c2 >= 0, |D|^2, mr's diagonal and all of mi are sums of like-signed
    terms, so the curvature along an axis, kappa = mr_ii + i mi_ii, keeps its
    real part even where it is 1e-15 of |kappa|. log0 is the unit-norm
    Gaussian's -log(2 pi sqrt(det Sigma)) / 2, det Sigma = |D|^2 det Q / 4, and
    arg0 = -arg(D) / 2, the branch of sqrt(det A) continuous from real A. Over
    an axis of t2 the entries that depend on t2 are arrays, from numpy's log
    and arctan2; Python float times keep math's, whose roundings numpy's
    scalar arctan2 does not always reproduce.

    Only the chirps depend on the times: Q, P and their determinants are the
    spec's (:func:`_build_constants`), the rest is built here.
    """
    p = spec.params
    tau1, tau2 = t1 - spec.t0, t2 - spec.t0
    c1, c2 = p.hbar * tau1 / p.m, p.hbar * tau2 / p.M  # the chirps C
    (q11, q12, q22), det_q, (p11, p12, p22), det_p = spec._constants.spread[reflected]
    cov12 = 0.5 * (p12 + c1 * c2 * q12)
    cov = ((0.5 * (p11 + c1 * c1 * q11), cov12), (cov12, 0.5 * (p22 + c2 * c2 * q22)))
    dd = (det_p * det_p + c1 * c1 * c2 * c2 + c1 * c1 * p22 * p22
          + c2 * c2 * p11 * p11 + 2.0 * c1 * c2 * p12 * p12)
    mr = ((p22 * det_p + c2 * c2 * p11) / dd, -p12 * (det_p - c1 * c2) / dd,
          (p11 * det_p + c1 * c1 * p22) / dd)
    mi = (-(c1 * p22 * p22 + c1 * c2 * c2 + c2 * p12 * p12) / dd,
          p12 * (c1 * p22 + c2 * p11) / dd,
          -(c2 * p11 * p11 + c1 * c1 * c2 + c1 * p12 * p12) / dd)
    log, atan2 = (np.log, np.arctan2) if isinstance(dd, np.ndarray) else (math.log, math.atan2)
    return _Form(cov=cov, log0=-0.25 * log(math.pi * math.pi * dd * det_q),
                 arg0=-0.5 * atan2(c1 * p22 + c2 * p11, det_p - c1 * c2), mr=mr, mi=mi)


def _half_line(log_c, alpha, d, slope=None):
    """Integral of exp(log_c + slope s - alpha s^2) over s >= d, Re(alpha) > 0.

    The closed form (1/2) sqrt(pi/alpha) exp(log_c + slope^2/(4 alpha)) erfc(z),
    z = sqrt(alpha) d - slope / (2 sqrt(alpha)), is evaluated through the
    Faddeeva function: erfc(z) exp(z^2) = w(iz) for Re z >= 0, and
    erfc(z) = 2 - erfc(-z) otherwise, so w is only called in the upper half
    plane and exp(z^2) is never formed. The exponent left over is the
    integrand's own log at the start, log_c + slope d - alpha d^2. d = -inf
    gives the whole line, the ``full`` term; d = +inf gives 0. With no
    ``slope`` and a real alpha the integrand is real, and so is every step:
    w(iz) = erfcx(z) for real z, bitwise, so the real path gives the complex
    one's real part at zero slope, at half its cost. Both functions are the
    numpy kernels of :mod:`._faddeeva`, imported on the first trace.
    """
    from ._faddeeva import erfcx, w

    finite = np.isfinite(d)
    whole = np.where(d < 0.0, 1.0, 0.0)  # an infinite start: all or nothing
    d = np.where(finite, d, 0.0)
    root = np.sqrt(alpha)
    half = 0.5 * math.sqrt(math.pi) / root
    if slope is None:
        z = root * d
        upper = z >= 0.0
        tail = half * np.exp(log_c - alpha * d * d) * erfcx(np.where(upper, z, -z))
        full = 2.0 * half * np.exp(log_c)
    else:
        z = root * d - slope / (2.0 * root)
        upper = z.real >= 0.0
        tail = (half * np.exp(log_c + slope * d - alpha * d * d)
                * w(np.where(upper, 1j * z, -1j * z)))
        full = 2.0 * half * np.exp(log_c + slope**2 / (4.0 * alpha))
    return np.where(finite, np.where(upper, tail, full - tail), whole * full)


@np.errstate(over="ignore", invalid="ignore")
def _closed_trace(spec: WavegroupSpec, outer, t1: float, t2: float, axis: int,
                  start=None):
    """Exact integral of the smooth PDF over a half line of one axis.

    ``axis`` is the traced coordinate (1: x2 >= start at each x1 in
    ``outer``; 0: x1 <= start at each x2 in ``outer``). The default start
    is the wall, giving the physical half line; start = -inf on axis 1
    gives the whole line. Along the axis each term of |F_in|^2 + |F_ref|^2
    - 2 |F_in F_ref| cos(dphi) is exp(quadratic), with curvature Re(kappa_in),
    Re(kappa_ref) and (kappa_in + conj kappa_ref)/2, kappa = mr_ii + i mi_ii
    of each branch (:meth:`_Density.kappa`). The density is the one reader of
    both branches. Each intensity term is real: 2 log|F| at the branch's peak
    along the axis, and that peak's exact offset from the start, both from
    :meth:`_Density.peaks`, with no slope, through erfcx. The cross term is
    log|F_in F_ref| + i dphi about the curvature-weighted mean of the two
    peaks, where its real slope vanishes, through the Faddeeva w (both numpy
    kernels of :mod:`._faddeeva`), with log|F_in F_ref|, dphi and dphi's slope
    from :meth:`_Density.cross`: every exponent is read in real arithmetic,
    where it is largest. By Cauchy-Schwarz |cross| <= sqrt(y_in y_ref), so
    the complex cross term is evaluated only where that bound, with each y
    raised by what underflow can take from it, exceeds 2^-81 (y_in + y_ref);
    elsewhere it cannot change the rounded sum, and every value is bitwise
    that of the cross term evaluated everywhere.
    """
    _check_range(math.isfinite(t1) and math.isfinite(t2), "trace", t1=t1, t2=t2)
    density = _density_form(spec, t1, t2)
    k_in, k_ref = density.kappa(axis)
    _check_range(k_in.real > 0.0 and k_ref.real > 0.0, "trace", t1=t1, t2=t2)
    outer, start = np.broadcast_arrays(outer, outer if start is None else start)
    sign = 1.0 if axis == 1 else -1.0  # direction of the half line away from the wall
    a_in, a_ref = k_in.real, k_ref.real
    (s_in, log_in), (s_ref, log_ref) = density.peaks(axis, outer)
    e_start, _ = density._offsets(axis, start)
    y_in, y_ref = (_half_line(log_c, a, sign * (e_start - s))
                   for log_c, s, a in zip((log_in, log_ref), (s_in, s_ref), (a_in, a_ref)))
    # Cauchy-Schwarz, each term raised far above the (1 + sqrt(pi / a)) 2^-1074
    # that underflow can take from it, as a product of roots: y_in y_ref
    # underflows where the cross term still counts. The cross term's exponents
    # are at most (log_in + log_ref) / 2, so below -746 it is an exact 0.
    lost_in, lost_ref = (2.0**-1022 * (1.0 + math.sqrt(math.pi / a)) for a in (a_in, a_ref))
    keep = np.flatnonzero((log_in + log_ref > -1492.0)
                          & (np.sqrt(y_in + lost_in) * np.sqrt(y_ref + lost_ref)
                             > 2.0**-81 * (y_in + y_ref)))
    mid = density.centre(axis) + a_ref * s_ref.take(keep) / (a_in + a_ref)
    log_c, theta, slope = density.cross(axis, mid, outer.take(keep))
    cross = _half_line(log_c + 2j * theta, 0.5 * (k_in + np.conj(k_ref)),
                       sign * (start.take(keep) - mid), 2j * sign * slope)
    y = np.zeros(outer.shape)
    y.flat[keep] = -2.0 * cross.real
    y += y_in
    y += y_ref
    y = np.maximum(y, 0.0)
    _check_range(np.isfinite(y).all(), "trace", t1=t1, t2=t2)
    return y


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _half_plane_moments(spec: WavegroupSpec, t1: float, t2: float):
    """(mass, means, variances) of the smooth PDF over the physical half plane
    x1 <= x2 at (t1, t2), means and variances per axis (x1, x2), in closed form.

    Each term of |F_in|^2 + |F_ref|^2 - 2 Re(F_in F_ref*) is exp(L + b^T u -
    u^T K u / 2), u the offset from the term's own point: each intensity term
    about its branch's centre, real with b = 0 and K = 2 mr; the cross term
    about the centre of its modulus |F_in F_ref|, (mr_in + mr_ref)^-1 mr_ref
    delta from the incident centre, with L, b and K complex and read off the
    density there (:meth:`_Density.logs`), the recoil kicks of b1 + b2 summed
    before theta's chirp. With r = u1 and s = u2 - u1 >= s0, s0 the term's
    point's x1 - x2, r is Gaussian over the whole line, precision P = K11 +
    2 K12 + K22 and mean (B - Q s) / P, B = b1 + b2, Q = K12 + K22. What is
    left, g(s) = exp(log_c + beta s - alpha s^2), alpha = det K / (2 P), has
    the half-line moments J0 (:func:`_half_line`), J1 = (beta J0 + g(s0)) /
    (2 alpha) and J2 = (J0 + beta J1 + s0 g(s0)) / (2 alpha), from d/ds g =
    (beta - 2 alpha s) g, and each term's moments in u are theirs with
    E[r^2 | s] = E[r | s]^2 + 1 / P. The terms' moments are summed about the
    mean from their points' offsets, so no variance is a difference of two
    second moments taken about a distant point.
    """
    _check_range(math.isfinite(t1) and math.isfinite(t2), "half-plane moments", t1=t1, t2=t2)
    density = _density_form(spec, t1, t2)
    f_in, f_ref = density.f_in, density.f_ref
    (i11, _, i22), (r11, r12, r22) = f_in.mr, f_ref.mr
    # the cross term's point: the precision-weighted mean of the two centres
    (dl1, dl2), a11, a22 = density.delta, i11 + r11, i22 + r22
    h1, h2, det = r11 * dl1 + r12 * dl2, r12 * dl1 + r22 * dl2, a11 * a22 - r12 * r12
    log_in, log_ref, theta, e, d = density.logs(
        density.centre(0) + (a22 * h1 - r12 * h2) / det,
        density.centre(1) + (a11 * h2 - r12 * h1) / det)
    chirp = density._replace(kick=(0.0, 0.0))  # theta's slope less the recoil kick
    ch1, ch2 = (chirp._slope(j, e, d) for j in (0, 1))
    lin1, lin2 = -i11 * e[0] - (r11 * d[0] + r12 * d[1]), -i22 * e[1] - (r12 * d[0] + r22 * d[1])
    # per term, incident, reflected and cross: its point's offset from the
    # incident centre, L, b2, B = b1 + b2 and K, and its sign in the PDF
    o1, o2 = np.array([0.0, dl1, e[0]]), np.array([0.0, dl2, e[1]])
    L = np.array([2.0 * f_in.log0, 2.0 * f_ref.log0, complex(log_in + log_ref, 2.0 * theta)])
    b2 = np.array([0.0, 0.0, complex(lin2, 2.0 * (density.kick[1] + ch2))])
    B = np.array([0.0, 0.0, complex(lin1 + lin2, 2.0 * ((density.kick[0] + density.kick[1])
                                                        + (ch1 + ch2)))])
    k11 = np.array([2.0 * i11, 2.0 * r11, complex(a11, f_in.mi[0] - f_ref.mi[0])])
    k12 = np.array([0.0, 2.0 * r12, complex(r12, -f_ref.mi[1])])
    k22 = np.array([2.0 * i22, 2.0 * r22, complex(a22, f_in.mi[2] - f_ref.mi[2])])
    sign = np.array([1.0, 1.0, -2.0])
    s0 = (density.centre(0) - density.centre(1)) + (o1 - o2)
    P = k11 + 2.0 * k12 + k22
    q = (k12 + k22) / P
    r0, drift = B / P, (-q, (k11 + k12) / P)  # E[u_j | s] = r0 + drift_j s
    alpha, beta = (k11 * k22 - k12 * k12) / (2.0 * P), b2 - B * q
    log_c = L + B * B / (2.0 * P) + 0.5 * np.log(2.0 * math.pi / P)
    J0 = _half_line(log_c, alpha, s0, beta)
    g = np.exp(log_c + beta * s0 - alpha * s0 * s0)
    J1 = (beta * J0 + g) / (2.0 * alpha)
    J2 = (J0 + beta * J1 + s0 * g) / (2.0 * alpha)
    mass = (sign * J0).real
    total = mass.sum()
    means, variances = [], []
    for j, o in enumerate((o1, o2)):
        first = (sign * (r0 * J0 + drift[j] * J1)).real
        second = (sign * (r0 * r0 * J0 + 2.0 * r0 * drift[j] * J1 + drift[j] ** 2 * J2
                          + J0 / P)).real
        mu = (mass * o + first).sum() / total
        means.append(density.centre(j) + mu)
        variances.append((second + 2.0 * first * (o - mu) + mass * (o - mu) ** 2).sum() / total)
    _check_range(math.isfinite(total) and all(math.isfinite(v) for v in variances),
                 "half-plane moments", t1=t1, t2=t2)
    if not (total > 0.0 and min(variances) > 0.0):  # no mass or no width
        raise _lost_precision("half-plane moments", f"rounding left the mass {total:.6g} "
                              f"and the variances {variances[0]:.6g}, {variances[1]:.6g}",
                              t1=t1, t2=t2)
    return float(total), np.array(means), np.array(variances)


# ---------------------------------------------------------------------------
# the density in real arithmetic
# ---------------------------------------------------------------------------

_PI_LO = 1.2246467991473532e-16  # pi - math.pi
# Rows per block of :func:`_physical_pdf`, which evaluates each block's corner
# too. The 23 preset snapshot grids at 512**2 took 0.100, 0.095, 0.087 and 0.098
# s in blocks of 8, 16, 32 and 64 rows, against 0.163 s for the gather of the
# physical points that this replaced (median of 5 processes each, 2 vCPUs).
_ROWS = 32


def _two_sum(a, b):
    """(s, err) with s = fl(a + b) and s + err = a + b exactly."""
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


def _two_prod(a, b):
    """(p, err) with p = fl(a b) and p + err = a b exactly (Dekker's split)."""
    p = a * b
    ca, cb = 134217729.0 * a, 134217729.0 * b
    a_hi, b_hi = ca - (ca - a), cb - (cb - b)
    a_lo, b_lo = a - a_hi, b - b_hi
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _k_rel_dd(p: PhysicalParams):
    """k_rel = m M (v - V) / (hbar (m + M)) as an unevaluated sum hi + lo."""
    dv, dv_err = _two_sum(p.v, -p.V)
    mass, mass_err = _two_sum(p.m, p.M)
    mm, mm_err = _two_prod(p.m, p.M)
    num, num_err = _two_prod(mm, dv)
    num_err += mm * dv_err + mm_err * dv
    den, den_err = _two_prod(p.hbar, mass)
    den_err += p.hbar * mass_err
    q = num / den
    qd, qd_err = _two_prod(q, den)
    return q, (((num - qd) - qd_err) + num_err - q * den_err) / den


class _Density(NamedTuple):
    """Coefficients of |F_in - F_ref|^2 at one pair of times, or arrays of them
    over an axis of t2: the one reader of both branches, for every position
    and log-modulus the package takes from them.

    Each branch is read in its own offsets, exact near its centre: the
    incident one in e = x - (incident centre), the incident centre being u_j
    tau_j plus the packet centre at t0 (:meth:`centre`), the reflected one in
    d = e - delta, delta the reflected centre's offset. From the two real
    forms (:func:`_form`) read by name, |F_in| = a1(e1) a2(e2), log|F_ref| =
    beta1(d1) + beta2(d2) - mr12 d1 d2, and the half phase difference (arg
    F_in - arg F_ref) / 2 is theta1 + theta2 + mi12 d1 d2 / 2, mr12 and mi12
    the reflected form's (the incident form has none). theta_j holds the
    recoil half phase x_j cycles_j pi and both squared offsets along x_j.

    :meth:`_offsets` gives (e_j, d_j), and :meth:`log_axis` adds theta_j, log
    a_j and beta_j, from both squared offsets formed once per axis.
    :func:`_axis_terms` takes a_j from it for the density, and :meth:`logs`
    combines both axes' logs for the amplitudes (:func:`_fields`), the beat
    (:func:`~.observables.doppler_beat`) and a trace's cross term
    (:meth:`cross`). Traces and conditional profiles read each branch's peak
    along an axis (:meth:`peaks`), and frames the centres (:meth:`centre`).
    """

    f_in: _Form
    f_ref: _Form
    ut: tuple       # per axis, u_j tau_j as (hi, lo)
    xc: tuple       # per axis, the packet centre at t0
    delta: tuple    # per axis, the reflected centre's offset from the incident one
    cycles: tuple   # per axis, the recoil half phase per unit x_j over pi, as (hi, lo)
    kick: tuple     # per axis, that half phase's slope: +-k_rel on an undetuned carrier
    theta0: float   # the constant part of theta, in theta1, reduced mod pi
    weight: float   # |reflected_weight|

    def centre(self, j: int):
        """The incident centre along axis j, u_j tau_j plus the packet centre at
        t0; the reflected one lies delta_j further."""
        return (self.ut[j][0] + self.xc[j]) + self.ut[j][1]

    def _offsets(self, j: int, x):
        """(e_j, d_j) at the points x of axis j, exact near each centre."""
        e = ((x - self.ut[j][0]) - self.xc[j]) - self.ut[j][1]
        return e, e - self.delta[j]

    def log_axis(self, j: int, x):
        """(log a_j, beta_j, theta_j, e_j, d_j) at the points x of axis j, each
        squared offset formed once. The recoil half phase, up to 1e6 rad on
        fine-fringed presets, is reduced mod pi exactly: x cycles is an exact
        product, and its integer part drops. Only axis 0 holds theta's
        constant part and the log0 terms."""
        e, d = self._offsets(j, x)
        ee, dd = e * e, d * d
        qr, qi = 0.25 * self.f_ref.mi[2 * j], 0.25 * self.f_in.mi[2 * j]
        w, w_err = _two_prod(x, self.cycles[j][0])
        w_err = w_err + x * self.cycles[j][1]
        turns, quad = math.pi * ((w - np.rint(w)) + w_err), qr * dd - qi * ee
        if j == 0:
            theta = turns + (quad + self.theta0)
            log_a = self.f_in.log0 - 0.5 * self.f_in.mr[0] * ee
            beta = self.f_ref.log0 - 0.5 * self.f_ref.mr[0] * dd
        else:
            theta = turns + quad
            log_a, beta = -0.5 * self.f_in.mr[2] * ee, -0.5 * self.f_ref.mr[2] * dd
        return log_a, beta, theta, e, d

    def logs(self, x1, x2):
        """(log|F_in|, log|F_ref| - log weight, theta, (e1, e2), (d1, d2)) at
        broadcastable (x1, x2), each axis part evaluated on its own coordinate."""
        (la1, b1, th1, e1, d1), (la2, b2, th2, e2, d2) = self.log_axis(0, x1), self.log_axis(1, x2)
        dd = d1 * d2
        return (la1 + la2, b1 + b2 - self.f_ref.mr[1] * dd, th1 + th2 + 0.5 * self.f_ref.mi[1] * dd,
                (e1, e2), (d1, d2))

    def kappa(self, j: int):
        """(kappa_in, kappa_ref), each branch's curvature along axis j, mr_jj +
        i mi_jj; a peak along the axis exists where its real part is > 0."""
        f_in, f_ref = self.f_in, self.f_ref
        return complex(f_in.mr[2 * j], f_in.mi[2 * j]), complex(f_ref.mr[2 * j], f_ref.mi[2 * j])

    def peaks(self, j: int, other):
        """[(s, 2 log|F|)] of the incident and the reflected branch where |F|
        peaks along axis j, the other coordinate at ``other``: s the peak's
        offset e_j, and the reflected 2 log|F| less 2 log weight. The incident
        form has no cross term, so its peak is at e_j = 0; the reflected one is
        at d_j = -mr12 d_o / mr_jj. Callers check Re(kappa) > 0 first."""
        e_o, d_o = self._offsets(1 - j, other)
        m_in, m_ref = self.f_in.mr, self.f_ref.mr
        d = -m_ref[1] / m_ref[2 * j] * d_o
        return ((0.0, 2.0 * self.f_in.log0 - m_in[2 - 2 * j] * (e_o * e_o)),
                (self.delta[j] + d, 2.0 * self.f_ref.log0 - m_ref[2 - 2 * j] * (d_o * d_o)
                 + m_ref[2 * j] * (d * d)))

    def cross(self, j: int, x, other):
        """(log|F_in F_ref| - log weight, theta, dtheta / dx_j) at the points x
        of axis j, the other coordinate at ``other`` (:meth:`logs`): the
        exponent of the cross term, and theta's slope (:meth:`_slope`)."""
        log_in, log_ref, theta, e, d = self.logs(*((x, other) if j == 0 else (other, x)))
        return log_in + log_ref, theta, self._slope(j, e, d)

    def _slope(self, j: int, e, d):
        """dtheta / dx_j from both axes' offsets, e = (e1, e2) and d = (d1, d2)
        of :meth:`logs`, recoil kick exact."""
        qr, qi = 0.25 * self.f_ref.mi[2 * j], 0.25 * self.f_in.mi[2 * j]
        return self.kick[j] + 2.0 * (qr * d[j] - qi * e[j]) + 0.5 * self.f_ref.mi[1] * d[1 - j]

    def density(self, ax1, ax2):
        """|F_in - F_ref|^2 = (|F_in| - |F_ref|)^2 + 4 |F_in| |F_ref| sin^2(dphi / 2)
        from two axis tuples (a_j, beta_j, theta_j, d_j) of :func:`_axis_terms`,
        elementwise."""
        (a1, b1, th1, d1), (a2, b2, th2, d2) = ax1, ax2
        dd = d1 * d2
        f_in = a1 * a2
        f_ref = self.weight * np.exp(b1 + b2 - self.f_ref.mr[1] * dd)
        s = np.sin(th1 + th2 + 0.5 * self.f_ref.mi[1] * dd)
        return (f_in - f_ref) ** 2 + 4.0 * f_in * f_ref * (s * s)


def _over_pi(hi: float, lo: float):
    """(hi + lo) / pi as an unevaluated sum."""
    q = hi / math.pi
    p, p_err = _two_prod(q, math.pi)
    return q, (((hi - p) - p_err) + lo - q * _PI_LO) / math.pi


def _recoil(p: PhysicalParams, kq: float, k_rel: tuple, detune: float):
    """(kick, cycles) per axis: the recoil half phase's slope and that slope
    over pi as (hi, lo), k_rel = (hi, lo) and kq = 2 k_rel. A detuned
    reflected carrier gains (detune - 1) times itself; the recoil phase 2
    k_rel (x2 - x1) + offset . x enters with a minus sign."""
    k_hi, k_lo = k_rel
    offset = ((detune - 1.0) * (p.k - kq), (detune - 1.0) * (p.K + kq))
    kick = (k_hi - 0.5 * offset[0], -k_hi - 0.5 * offset[1])
    return kick, (_over_pi(kick[0], k_lo), _over_pi(kick[1], -k_lo))


def _density_form(spec: WavegroupSpec, t1, t2, detune: float = 1.0,
                  reflected_weight: float = 1.0) -> _Density:
    """The coefficients of :class:`_Density` at (t1, t2), from both branches'
    real forms there (:func:`_form`); over an axis of t2 they are arrays, one
    form for the whole series. ``detune`` scales the reflected carrier
    wavevectors, not the energies or the packet's motion, so it changes the
    phase alone: a deliberately broken field for negative-control tests.
    ``reflected_weight`` linearly rescales the reflected branch, for
    :func:`joint_pdf` alone.

    Per system (:func:`_build_constants`): an undetuned carrier's kick and
    cycles, the centres' offset at t0 and the beat. Per time: the forms, the
    centres' motion, the offset's recoil drift, theta's constant part and a
    detuned carrier's kick and cycles."""
    p, system = spec.params, spec._constants
    f_in, f_ref = _form(spec, False, t1, t2), _form(spec, True, t1, t2)
    tau1, tau2 = t1 - spec.t0, t2 - spec.t0
    kq = system.kq
    # the centres' offset in closed form, never a difference of the two centres:
    # a carrier offset moves the packet by hbar kq tau / m, the recoil
    delta = (p.hbar * tau1 / p.m * -kq + system.delta0[0],
             p.hbar * tau2 / p.M * kq + system.delta0[1])
    kick, cycles = ((system.kick, system.cycles) if detune == 1.0
                    else _recoil(p, kq, system.k_rel, detune))
    const = (f_in.arg0 - f_ref.arg0 - 2.0 * system.beat * (tau1 - tau2)
             + (math.pi if reflected_weight < 0.0 else 0.0))
    # Python float times keep math's calls, the exact remainder among them;
    # over an axis of t2, numpy's remainder may land a period higher, which
    # shifts theta by pi and the density, amplitudes and beat not at all
    if isinstance(const, np.ndarray):
        finite, remainder = bool(np.isfinite(const).all()), np.remainder
    else:
        finite, remainder = math.isfinite(const), math.remainder
    _check_range(finite, "joint pdf", t1=t1, t2=t2)  # before remainder raises
    return _Density(f_in=f_in, f_ref=f_ref, ut=(_two_prod(p.v, tau1), _two_prod(p.V, tau2)),
                    xc=(spec.x1c, spec.x2c), delta=delta, cycles=cycles, kick=kick,
                    theta0=0.5 * remainder(const, _TWO_PI), weight=abs(reflected_weight))


def _axis_terms(form: _Density, x1, x2):
    """The axis tuples (a_j, beta_j, theta_j, d_j) of :meth:`_Density.density` at
    x1 and x2; a lone coordinate, such as a detection's x10, as a Python float."""
    return [(np.exp(log_a), beta, theta, d) for log_a, beta, theta, _, d in (
        form.log_axis(j, float(x) if np.ndim(x) == 0 else np.asarray(x, dtype=float))
        for j, x in enumerate((x1, x2)))]


def _smooth_pdf(form: _Density, x1, x2):
    """|F_in - F_ref|^2, the smooth PDF, at broadcastable (x1, x2) from its
    coefficients at one pair of times, elementwise: the evaluator behind
    :func:`joint_pdf` and :meth:`~.measurement.ConditionalMirrorState.pdf`."""
    return form.density(*_axis_terms(form, x1, x2))


def _physical_pdf(form: _Density, x1, x2):
    """The stepped PDF on the grid of the increasing axes x1, x2, bitwise
    :func:`_smooth_pdf` there with the step applied. Row i is physical from
    column searchsorted(x2, x1[i]) on, so each block of ``_ROWS`` rows is
    evaluated from its first row's column on, from the axis terms broadcast,
    and its corner x1 > x2 is left at +0.0, as are the rows past x2's end.
    The corner lies past the wall, where the smooth form may overflow; the
    caller ignores that (:func:`~.scenario.joint_pdf_grid`)."""
    (ax1, ax2), first = _axis_terms(form, x1, x2), np.searchsorted(x2, x1)
    out = np.zeros((len(x1), len(x2)))
    for r0 in range(0, np.searchsorted(first, len(x2)), _ROWS):
        rows, cols = slice(r0, r0 + _ROWS), slice(first[r0], None)
        np.copyto(out[rows, cols], form.density([a[rows, None] for a in ax1],
                                                [a[None, cols] for a in ax2]),
                  where=x1[rows, None] <= x2[None, cols])
    return out


def _carrier_phase(spec: WavegroupSpec, x1, t1, x2, t2):
    """The plane-wave pair's incident phase Phi at the central wavevectors,
    about the packet centres, reduced mod 2*pi: the common factor
    exp(i Phi) of both branches, which densities and currents never read."""
    return np.remainder(incident_phase(spec.params, x1 - spec.x1c, t1 - spec.t0,
                                       x2 - spec.x2c, t2 - spec.t0), _TWO_PI)


def _fields(spec: WavegroupSpec, x1, t1, x2, t2, *, detune: float = 1.0,
            gradients: bool = False) -> SimpleNamespace:
    """Both branches at broadcastable coordinate arrays, from the density's
    coefficients (:class:`_Density`) at (t1, t2).

    Returns F_in and F_ref such that the full amplitudes are exp(i*Phi) * F
    and the physical state is exp(i*Phi) * (F_in - F_ref) * theta(x2 - x1),
    Phi being :func:`_carrier_phase`. In each branch's own exact offsets, e
    and d = e - delta, |F_in| = a1 a2, log|F_ref| = beta1 + beta2 - mr12 d1 d2,
    the incident phase is arg0 - (mi11 e1^2 + mi22 e2^2) / 2 of its real
    form (:func:`_form`), and F_ref / F_in has phase -2 theta. Every axis
    part is evaluated on its own coordinate, so separable arrays x1[:, None],
    x2[None, :] cost O(n1 + n2) of them. ``detune`` detunes the reflected
    carrier (:func:`_density_form`). ``gradients`` adds the log-derivatives
    Lin1..Lref2, relative to the incident carrier (k0, K0): those of the same
    quadratics, with theta's slope, recoil kick exact, as
    :meth:`_Density.cross` gives it.
    """
    density = _density_form(spec, t1, t2, detune)
    mr_in, mi_in, mr = density.f_in.mr, density.f_in.mi, density.f_ref.mr
    x1, x2 = np.asarray(x1, dtype=float), np.asarray(x2, dtype=float)
    log_in, log_ref, theta, (e1, e2), (d1, d2) = density.logs(x1, x2)
    arg = density.f_in.arg0 - 0.5 * (mi_in[0] * e1 * e1 + mi_in[2] * e2 * e2)
    out = SimpleNamespace(F_in=np.exp(log_in + 1j * arg),
                          F_ref=np.exp(log_ref + 1j * (arg - 2.0 * theta)))
    if gradients:
        slope1, slope2 = (density._slope(j, (e1, e2), (d1, d2)) for j in (0, 1))
        out.Lin1 = -(mr_in[0] + 1j * mi_in[0]) * e1
        out.Lin2 = -(mr_in[2] + 1j * mi_in[2]) * e2
        out.Lref1 = -(mr[0] * d1 + mr[1] * d2) - 1j * (mi_in[0] * e1 + 2.0 * slope1)
        out.Lref2 = -(mr[1] * d1 + mr[2] * d2) - 1j * (mi_in[2] * e2 + 2.0 * slope2)
    return out


def amplitude_parts(spec: WavegroupSpec, pt: SpacetimePoint):
    """Incident and reflected closed-form amplitudes (no step function)."""
    f = _fields(spec, pt.x1, pt.t1, pt.x2, pt.t2)
    common = np.exp(1j * _carrier_phase(spec, pt.x1, pt.t1, pt.x2, pt.t2))
    return common * f.F_in, common * f.F_ref


def joint_pdf(spec: WavegroupSpec, x1, t1, x2, t2, *, detune: float = 1.0,
              reflected_weight: float = 1.0, apply_step: bool = True):
    """|Psi|^2 on the physical domain, stable at any carrier-phase magnitude,
    from the real-form density (:class:`_Density`) evaluated elementwise.

    ``apply_step=False`` evaluates the smooth closed form everywhere; the
    conservation checks use that branch, on which the coordinate-pair
    evolutions are exactly unitary.
    """
    form = _density_form(spec, t1, t2, detune, reflected_weight)
    val = _smooth_pdf(form, x1, x2)
    if not apply_step:
        return val
    return np.where(np.less_equal(x1, x2), val, 0.0)


def currents(spec: WavegroupSpec, x1, t1, x2, t2, *, detune: float = 1.0):
    """Probability currents (j1, j2) from analytic derivatives of the amplitude.

    With Psi = exp(i Phi) psi, psi's log-derivatives are relative to the
    incident carrier, whose share hbar k0/m |psi|^2 = v |psi|^2 (V |psi|^2
    for the mirror) is added back. Phi cancels in Psi* dPsi, so the currents
    stay accurate where it does not, and no recoil is a difference of large
    wavevectors.
    """
    p = spec.params
    f = _fields(spec, x1, t1, x2, t2, detune=detune, gradients=True)
    psi = f.F_in - f.F_ref
    dpsi1 = f.F_in * f.Lin1 - f.F_ref * f.Lref1
    dpsi2 = f.F_in * f.Lin2 - f.F_ref * f.Lref2
    density = np.abs(psi) ** 2
    j1 = p.v * density + p.hbar / p.m * np.imag(np.conj(psi) * dpsi1)
    j2 = p.V * density + p.hbar / p.M * np.imag(np.conj(psi) * dpsi2)
    return j1, j2


# ---------------------------------------------------------------------------
# packet tracking (framing helpers)
# ---------------------------------------------------------------------------

@np.errstate(over="ignore", invalid="ignore")
def frames(spec: WavegroupSpec, t1: float, t2: float):
    """[(centre, covariance) of the incident packet, the same of the reflected
    one] at (t1, t2): arrays of shape (2,) and (2, 2), read off the density,
    the one reader of both branches: each centre from its exact offsets
    (:meth:`_Density.centre`), each covariance from the branch's real form.
    A frame that is not finite is a ValueError naming the times."""
    density = _density_form(spec, t1, t2)
    centre = np.array([density.centre(0), density.centre(1)])
    packets = [(centre, np.array(density.f_in.cov)),
               (centre + np.array(density.delta), np.array(density.f_ref.cov))]
    _check_range(all(np.isfinite(a).all() for packet in packets for a in packet),
                 "frames", t1=t1, t2=t2)
    return packets


def _span(pairs, pad: float) -> tuple[float, float]:
    """[min(c - pad s), max(c + pad s)] over (centre, sigma) pairs: the one
    interval rule that frames every support."""
    lo, hi = math.inf, -math.inf
    for c, s in pairs:
        lo = min(lo, c - pad * s)
        hi = max(hi, c + pad * s)
    return lo, hi
