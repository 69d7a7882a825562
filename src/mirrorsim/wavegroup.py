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
Both branches take the shared (v tau1, V tau2) off x before any recoil, and b
keeps the O(m/M) part a12 (y1 - y2) of E^T y exact, so the exchange survives
far below one ulp of the mirror's momentum. :func:`_branch` states that form,
A, b and c, once at the measurement times (t1, t2), and
:meth:`_Branch.log_amplitude` evaluates it (the incident branch, separable
since E = I, as two 1-D integrals); complex amplitudes, currents and their
gradients (relative to (k0, K0)) derive from it, and :func:`_moments` reads
each branch's intensity Gaussian off it in real arithmetic, the one source
of both packets' frames (:func:`frames`) and of each branch's real form
(:func:`_real_form`), from which every probability is read: densities,
traces, conditional profiles and regimes.
A Gauss-Hermite quadrature of the same integrals, written independently,
serves as the oracle.

The density |F_in - F_ref|^2 is evaluated in real arithmetic, as
(|F_in| - |F_ref|)^2 + 4 |F_in| |F_ref| sin^2(dphi / 2) (:class:`_Density`).
|F| of a branch is the square root of its intensity Gaussian, so Re(b^T
A^{-1} b) is never formed, and dphi is one real quadratic in the offset from
the incident centre, so no complex exponential is taken. All of each factor
but one cross term e1 e2 depends on a single coordinate: on a grid those
parts are evaluated on the axes, the recoil half phase reduced mod pi
exactly there, and each point costs gathers, a few real multiply-adds, one
real exp and one sin. A joint-PDF grid (:func:`~.scenario.joint_pdf_grid`)
is evaluated only on its physical half x1 <= x2, where the amplitude lives;
the step sets the rest to an exact 0. Every step is elementwise, so each
value is bitwise that of the whole-grid evaluation (``within`` of
:func:`_smooth_pdf`). Amplitudes and currents keep the complex form
(:func:`_fields`).

Traces are closed forms too: at fixed (t1, t2) every term of |F_in - F_ref|^2
is the exponential of a quadratic in the traced coordinate, so its integral
over a half line is a Gaussian times an erfc (:func:`_closed_trace`). The two
intensity terms are real, through the scaled real erfc; only the cross term
takes a complex erfc, through the Faddeeva function, and only where it can
change the sum. Both functions are numpy kernels (:mod:`._faddeeva`), loaded
on the first trace; the package needs nothing beyond numpy. Marginals and
conditional probabilities all come from it, its exponents read off the
density's form.

Phi is the (possibly astronomically large) carrier phase at the central
wavevectors, the plane-wave pair's :func:`~.harmonic.incident_phase`. Only
the incident-reflected *difference* of carrier phases is physical for
densities and currents; it is the pair's recoil phase
:func:`~.harmonic.interference_phase`, never a difference of large floats,
so they stay accurate even where Phi exceeds float precision. The absolute
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

from .harmonic import (_TWO_PI, SpacetimePoint, beat_frequency,
                       incident_phase, interference_phase)
from .kinematics import PhysicalParams, elastic_final_velocities

_LOG_TWO_PI = math.log(_TWO_PI)


# ---------------------------------------------------------------------------
# complex Gaussian integrals
# ---------------------------------------------------------------------------

def _log_gauss1(a, b):
    """Log of the integral of exp(-a s^2 / 2 + i b s) over R, and b / a."""
    q = b / a
    return 0.5 * (_LOG_TWO_PI - np.log(a)) - 0.5 * (b * q), q


def _log_gauss2(a11, a12, a22, b1, b2, c=0.0):
    """Log of the integral of exp(-s^T A s / 2 + i b^T s + c) over R^2, and A^{-1} b.

    Returns (log(2 pi / sqrt(det A)) + c - b^T q / 2, q1, q2) with q = A^{-1} b,
    for broadcastable component arrays and Re(A) positive definite. Then a11
    and the Schur complement det A / a11 both lie in the right half plane, so
    the product of their principal roots is the branch of sqrt(det A) that
    connects continuously to the real-A case.
    """
    det_a = a11 * a22 - a12 * a12
    q1 = (a22 * b1 - a12 * b2) / det_a
    q2 = (a11 * b2 - a12 * b1) / det_a
    log_val = (_LOG_TWO_PI + c - 0.5 * (np.log(a11) + np.log(det_a / a11))
               - 0.5 * (b1 * q1 + b2 * q2))
    return log_val, q1, q2


def _check_range(ok, what: str, **times):
    """ValueError naming the times unless ``ok``: at extreme times the closed
    form's chirps and exponents leave the floating-point range. The callers
    that check their results evaluate without overflow warnings, so the
    error prints alone."""
    if not ok:
        at = ", ".join(f"{k}={v:.6g}" for k, v in times.items())
        raise ValueError(f"{what} at {at} is beyond the closed form's floating-point range")


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
        if not (self.dk > 0 and self.dK > 0):
            raise ValueError("spectral widths must be positive")
        if not self.x1c < self.x2c:
            raise ValueError("particle centre must start left of the mirror centre")
        sep = self.x2c - self.x1c
        if not sep > 5.0 * (1.0 / self.dk + 1.0 / self.dK):
            raise ValueError("packet centres closer than five combined widths")

    @property
    def beat0(self) -> float:
        """Central beat frequency, the phase-advance rate of the cross term."""
        return beat_frequency(self.params)

    @property
    def norm_const(self) -> float:
        """Spectral normalisation 1/sqrt(pi dk dK); unit norm with the 1/2pi transform."""
        return 1.0 / math.sqrt(math.pi * self.dk * self.dK)

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


def spectral_amplitude(spec: WavegroupSpec, k, K):
    """Normalised Gaussian spectral weight with packet-centring phases."""
    k = np.asarray(k, dtype=float)
    K = np.asarray(K, dtype=float)
    env = np.exp(-((k - spec.params.k) ** 2) / (2.0 * spec.dk**2)
                 - ((K - spec.params.K) ** 2) / (2.0 * spec.dK**2))
    phase = np.exp(-1j * np.remainder(k * spec.x1c + K * spec.x2c, _TWO_PI))
    return spec.norm_const * env * phase


# ---------------------------------------------------------------------------
# closed-form evaluation
# ---------------------------------------------------------------------------

class _Branch(NamedTuple):
    """One branch's Gaussian form at the times tau = t - t0 (see the module docstring)."""

    A: tuple        # (a11, a12, a22) of the complex symmetric A
    E: tuple        # collision matrix ((e11, e12), (e21, e22)) on spectral offsets
    chirp: tuple    # (hbar tau1/m, hbar tau2/M), the diagonal C of Im(A) = E^T C E
    ut: tuple       # shared carrier displacements (v tau1, V tau2)
    recoil: tuple   # the branch's own displacements on top of ut
    kq: tuple       # carrier wavevectors relative to (k0, K0)
    xc: tuple       # packet centres (x1c, x2c) at t0
    reflected: bool
    tau: tuple      # (tau1, tau2), the times of the recoil phase in c
    offset: tuple | None  # a detuned carrier's extra wavevectors, phase only

    def b(self, x1, x2):
        """The linear coefficient b = E^T y - (x1c, x2c), y = x - ut - recoil."""
        y1, y2 = x1 - self.ut[0], x2 - self.ut[1]
        if not self.reflected:
            return y1 - self.xc[0], y2 - self.xc[1]
        y1, y2 = y1 - self.recoil[0], y2 - self.recoil[1]
        d = self.E[0][1] * (y1 - y2)  # E^T y = (2 y2 - y1, y2) + a12 (y1 - y2) (1, 1)
        return 2.0 * y2 - y1 + d - self.xc[0], y2 + d - self.xc[1]

    def log_amplitude(self, spec: WavegroupSpec, x1, x2):
        """(log F, q1, q2) at broadcastable (x1, x2), q = A^{-1} b. c is the log
        prefactor plus, when reflected, i (recoil phase + offset . x) mod 2 pi."""
        log_pref = math.log(spec.norm_const / _TWO_PI)
        b1, b2 = self.b(x1, x2)
        if not self.reflected:
            (log1, q1), (log2, q2) = _log_gauss1(self.A[0], b1), _log_gauss1(self.A[2], b2)
            return log_pref + log1 + log2, q1, q2
        phase = interference_phase(spec.params, x1, self.tau[0], x2, self.tau[1])
        if self.offset is not None:
            phase = phase + self.offset[0] * x1 + self.offset[1] * x2
        return _log_gauss2(*self.A, b1, b2, log_pref + 1j * np.remainder(phase, _TWO_PI))

    def log_gradient(self, q1, q2):
        """Log-derivatives i kq - E q of the amplitude, relative to the
        incident carrier (k0, K0)."""
        if not self.reflected:  # E = I keeps the separable array shapes
            return -q1, -q2
        (a11, a12), (a21, a22) = self.E
        return (1j * self.kq[0] - (a11 * q1 + a12 * q2),
                1j * self.kq[1] - (a21 * q1 + a22 * q2))


def _branch(spec: WavegroupSpec, reflected: bool, t1, t2, detune: float = 1.0) -> _Branch:
    """The incident or the reflected branch's Gaussian form at the measurement
    times (t1, t2). ``detune`` scales the reflected carrier wavevectors, not the
    energies or the packet's motion: a deliberately broken field for
    negative-control tests."""
    p = spec.params
    tau1, tau2 = t1 - spec.t0, t2 - spec.t0
    c1, c2 = p.hbar * tau1 / p.m, p.hbar * tau2 / p.M  # chirp coefficients
    (a11, a12), (a21, a22) = p.collision_matrix if reflected else ((1.0, 0.0), (0.0, 1.0))
    kq = (-2.0 * p.k_rel, 2.0 * p.k_rel) if reflected else (0.0, 0.0)
    # a detuned reflected carrier (k0, K0) + kq gains (detune - 1) times itself
    offset = (tuple((detune - 1.0) * (k + q) for k, q in zip((p.k, p.K), kq))
              if reflected and detune != 1.0 else None)
    A = (1.0 / spec.dk**2 + 1j * (c1 * a11 * a11 + c2 * a21 * a21),
         1j * (c1 * a11 * a12 + c2 * a21 * a22),
         1.0 / spec.dK**2 + 1j * (c1 * a12 * a12 + c2 * a22 * a22))
    # a carrier offset kq moves the packet by hbar kq tau / m = c kq
    return _Branch(A=A, E=((a11, a12), (a21, a22)), chirp=(c1, c2),
                   ut=(p.v * tau1, p.V * tau2), recoil=(c1 * kq[0], c2 * kq[1]),
                   kq=kq if offset is None else (kq[0] + offset[0], kq[1] + offset[1]),
                   xc=(spec.x1c, spec.x2c), reflected=reflected, tau=(tau1, tau2),
                   offset=offset)


def _moments(br: _Branch):
    """Centre, intensity covariance, P and det Q of one branch, in plain floats.

    |F|^2 is the Gaussian exp(-b^T Re(A^{-1}) b), centred where b = 0, at
    u tau + recoil + E^{-T} (x1c, x2c). With A = R + i E^T C E, R = diag(1/dk^2,
    1/dK^2), C = diag(chirp), its covariance (2 E Re(A^{-1}) E^T)^{-1} is
    (P + C Q C) / 2, P = E^{-T} R E^{-1}, Q = P^{-1} = E R^{-1} E^T, since
    Re((P + i C)^{-1}) = (P + C Q C)^{-1}. The diagonal is a sum of like-signed
    terms that bound the off-diagonal, so nothing cancels. P is the adjugate
    of Q over det Q = det(E)^2 / (R11 R22).
    """
    (e11, e12), (e21, e22) = br.E
    det_e = e11 * e22 - e12 * e21
    s1, s2 = 1.0 / br.A[0].real, 1.0 / br.A[2].real  # R^{-1}
    det_q = det_e * det_e * s1 * s2
    q11 = e11 * e11 * s1 + e12 * e12 * s2
    q12 = e11 * e21 * s1 + e12 * e22 * s2
    q22 = e21 * e21 * s1 + e22 * e22 * s2
    P = ((q22 / det_q, -q12 / det_q), (-q12 / det_q, q11 / det_q))
    c1, c2 = br.chirp
    cov12 = 0.5 * (P[0][1] + c1 * c2 * q12)
    cov = ((0.5 * (P[0][0] + c1 * c1 * q11), cov12),
           (cov12, 0.5 * (P[1][1] + c2 * c2 * q22)))
    x1c, x2c = br.xc
    centre = (br.ut[0] + br.recoil[0] + (e22 * x1c - e21 * x2c) / det_e,
              br.ut[1] + br.recoil[1] + (e11 * x2c - e12 * x1c) / det_e)
    return centre, cov, P, det_q


def _real_form(br: _Branch):
    """(centre, log0, arg0, mr, mi) of one branch, whose log-amplitude is
    log0 + i arg0 - d^T (mr + i mi) d / 2 about its intensity centre
    (:func:`_moments`), d = x - centre, less a reflected branch's recoil
    phase. mr and mi are (11, 12, 22).

    With b = E^T d and A = E^T (P + i C) E, b^T A^{-1} b = d^T (P + i C)^{-1} d,
    and (P + i C)^{-1} = adj(P + i C) conj(D) / |D|^2, D = det(P + i C). For
    c1 c2 >= 0, |D|^2, mr's diagonal and all of mi are sums of like-signed
    terms, so the curvature along an axis, kappa = mr_ii + i mi_ii, keeps its
    real part even where it is 1e-15 of |kappa|. mr = Sigma^{-1} / 2, and log0
    is the unit-norm Gaussian's -log(2 pi sqrt(det Sigma)) / 2, det Sigma =
    |D|^2 det Q / 4. arg0 = -arg(D) / 2, the branch of sqrt(det A) continuous
    from real A.
    """
    centre, _, ((p11, p12), (_, p22)), det_q = _moments(br)
    c1, c2 = br.chirp
    det_p = 1.0 / det_q
    dd = (det_p * det_p + c1 * c1 * c2 * c2 + c1 * c1 * p22 * p22
          + c2 * c2 * p11 * p11 + 2.0 * c1 * c2 * p12 * p12)
    mr = ((p22 * det_p + c2 * c2 * p11) / dd, -p12 * (det_p - c1 * c2) / dd,
          (p11 * det_p + c1 * c1 * p22) / dd)
    mi = (-(c1 * p22 * p22 + c1 * c2 * c2 + c2 * p12 * p12) / dd,
          p12 * (c1 * p22 + c2 * p11) / dd,
          -(c2 * p11 * p11 + c1 * c1 * c2 + c1 * p12 * p12) / dd)
    log0 = -0.25 * math.log(math.pi * math.pi * dd * det_q)
    return centre, log0, -0.5 * math.atan2(c1 * p22 + c2 * p11, det_p - c1 * c2), mr, mi


def _forms(spec: WavegroupSpec, t1, t2, detune: float = 1.0):
    """Both branches at (t1, t2), incident first, and their real forms."""
    branches = tuple(_branch(spec, r, t1, t2, detune) for r in (False, True))
    return branches, tuple(_real_form(br) for br in branches)


def _log_modulus(form, x1, x2):
    """log|F| of one branch at (x1, x2), from its real form (:func:`_real_form`)."""
    centre, log0, _, (m11, m12, m22), _ = form
    d1, d2 = x1 - centre[0], x2 - centre[1]
    return log0 - 0.5 * (m11 * d1 * d1 + 2.0 * m12 * d1 * d2 + m22 * d2 * d2)


def _axis_centre(form, axis: int, other):
    """Where |F| of one branch peaks along a coordinate axis, the other
    coordinate held at ``other``: centre_i - mr_ij / mr_ii (other - centre_j),
    i = axis, from its real form (:func:`_real_form`). Callers check mr_ii > 0."""
    centre, _, _, mr, _ = form
    return centre[axis] - mr[1] / mr[2 * axis] * (other - centre[1 - axis])


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
    of each branch's real form (:func:`_real_form`). Each intensity term is
    real: 2 log|F| (:func:`_log_modulus`) about the branch's peak along the
    axis (:func:`_axis_centre`), with no slope, through erfcx. The cross term
    is log|F_in F_ref| + i dphi about the curvature-weighted mean of the two
    peaks, where its real slope vanishes, through the Faddeeva w (both numpy
    kernels of :mod:`._faddeeva`), with dphi and its slope from
    :meth:`_Density.half_phase`: every exponent is read in real arithmetic,
    where it is largest. By Cauchy-Schwarz |cross| <= sqrt(y_in y_ref), so
    the complex cross term is evaluated only where that bound, with each y
    raised by what underflow can take from it, exceeds 2^-81 (y_in + y_ref);
    elsewhere it cannot change the rounded sum, and every value is bitwise
    that of the cross term evaluated everywhere.
    """
    branches, forms = _forms(spec, t1, t2)
    k_in, k_ref = (complex(mr[2 * axis], mi[2 * axis]) for *_, mr, mi in forms)
    _check_range(k_in.real > 0.0 and k_ref.real > 0.0, "trace", t1=t1, t2=t2)
    density = _density_form(spec, t1, t2, branches, forms)
    outer, start = np.broadcast_arrays(outer, outer if start is None else start)

    def log_modulus(form, u, at):
        return _log_modulus(form, *((at, u) if axis == 1 else (u, at)))

    sign = 1.0 if axis == 1 else -1.0  # direction of the half line away from the wall
    a_in, a_ref = k_in.real, k_ref.real
    c_in, c_ref = (_axis_centre(form, axis, outer) for form in forms)
    log_in, log_ref = (2.0 * log_modulus(form, c, outer) for form, c in zip(forms, (c_in, c_ref)))
    y_in, y_ref = (_half_line(log_c, a, sign * (start - c))
                   for log_c, c, a in zip((log_in, log_ref), (c_in, c_ref), (a_in, a_ref)))
    # Cauchy-Schwarz, each term raised far above the (1 + sqrt(pi / a)) 2^-1074
    # that underflow can take from it, as a product of roots: y_in y_ref
    # underflows where the cross term still counts. The cross term's exponents
    # are at most (log_in + log_ref) / 2, so below -746 it is an exact 0.
    lost_in, lost_ref = (2.0**-1022 * (1.0 + math.sqrt(math.pi / a)) for a in (a_in, a_ref))
    keep = np.flatnonzero((log_in + log_ref > -1492.0)
                          & (np.sqrt(y_in + lost_in) * np.sqrt(y_ref + lost_ref)
                             > 2.0**-81 * (y_in + y_ref)))
    at = outer.take(keep)
    mid = (a_in * c_in.take(keep) + a_ref * c_ref.take(keep)) / (a_in + a_ref)
    theta, slope = density.half_phase(axis, mid, at)
    cross = _half_line(sum(log_modulus(form, mid, at) for form in forms) + 2j * theta,
                       0.5 * (k_in + np.conj(k_ref)), sign * (start.take(keep) - mid),
                       2j * sign * slope)
    y = np.zeros(outer.shape)
    y.flat[keep] = -2.0 * cross.real
    y += y_in
    y += y_ref
    y = np.maximum(y, 0.0)
    _check_range(np.isfinite(y).all(), "trace", t1=t1, t2=t2)
    return y


# ---------------------------------------------------------------------------
# the density in real arithmetic
# ---------------------------------------------------------------------------

_PI_LO = 1.2246467991473532e-16  # pi - math.pi
_BLOCK = 8192  # grid points per gathered block


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
    """Scalar coefficients of |F_in - F_ref|^2 at one pair of times.

    In e = x - (incident centre) and d = e - delta, delta the reflected
    centre's offset, |F_in| = a1(e1) a2(e2), log|F_ref| = beta1 + beta2 -
    mr12 e1 e2, and the half phase difference (arg F_in - arg F_ref) / 2 is
    theta1 + theta2 + h12 e1 e2 / 2; a_j, beta_j and theta_j depend on x_j
    alone. Each axis is (ut, xc, delta, log_in, log_ref, phase, cycles, kick):
    ut = u_j tau_j as (hi, lo), xc the packet centre at t0, log_in = (log
    share, mr_in_jj / 2), log_ref = (log share, mr_jj / 2, fold of the cross
    term), phase = (mi_jj / 4, mi_in_jj / 4, fold / 2, constant / 2),
    cycles = (hi, lo), the recoil half phase per unit x_j over pi, and kick
    that half phase's slope, +-k_rel on an undetuned carrier.
    """

    axes: tuple
    mr12: float
    h12: float
    weight: float   # |reflected_weight|

    def axis(self, j: int, x):
        """(a_j, beta_j, theta_j, e_j) at the points x of axis j. The recoil
        half phase, up to 1e6 rad on fine-fringed presets, is reduced mod pi
        exactly: x cycles is an exact product, and its integer part drops."""
        (ut_hi, ut_lo), xc, delta, (la, ha), (lb, hb, fb), (qr, qi, fp, c), cycles, _ = self.axes[j]
        e = ((x - ut_hi) - xc) - ut_lo  # exact near the centre
        d = e - delta
        fold = d if j == 0 else e
        e_sq, d_sq = e * e, d * d
        w, w_err = _two_prod(x, cycles[0])
        w_err = w_err + x * cycles[1]
        theta = math.pi * ((w - np.rint(w)) + w_err) + ((qr * d_sq - qi * e_sq - fp * fold) + c)
        return np.exp(la - ha * e_sq), lb - hb * d_sq + fb * fold, theta, e

    def half_phase(self, j: int, x, other):
        """(theta, dtheta / dx_j) at the points x of axis j, the other coordinate
        at ``other``: the half phase difference and its slope, recoil kick exact."""
        *_, theta, e = self.axis(j, x)
        *_, theta_o, e_o = self.axis(1 - j, other)
        _, _, delta, _, _, (qr, qi, fp, _), _, kick = self.axes[j]
        slope = kick + 2.0 * (qr * (e - delta) - qi * e) - fp + 0.5 * self.h12 * e_o
        return theta + theta_o + 0.5 * self.h12 * e * e_o, slope

    def density(self, ax1, ax2):
        """|F_in - F_ref|^2 = (|F_in| - |F_ref|)^2 + 4 |F_in| |F_ref| sin^2(dphi / 2)
        from two axis tuples of :meth:`axis`, elementwise."""
        (a1, b1, th1, e1), (a2, b2, th2, e2) = ax1, ax2
        ee = e1 * e2
        f_in = a1 * a2
        f_ref = self.weight * np.exp(b1 + b2 - self.mr12 * ee)
        s = np.sin(th1 + th2 + 0.5 * self.h12 * ee)
        return (f_in - f_ref) ** 2 + 4.0 * f_in * f_ref * (s * s)


def _over_pi(hi: float, lo: float):
    """(hi + lo) / pi as an unevaluated sum."""
    q = hi / math.pi
    p, p_err = _two_prod(q, math.pi)
    return q, (((hi - p) - p_err) + lo - q * _PI_LO) / math.pi


def _density_form(spec: WavegroupSpec, t1, t2, branches, forms,
                  reflected_weight: float = 1.0) -> _Density:
    """The coefficients of :class:`_Density` at (t1, t2), from both branches
    there and their real forms (:func:`_forms`)."""
    p = spec.params
    reflected = branches[1]
    (_, log_in, arg_in, mr_in, mi_in), (_, log_ref, arg_ref, mr, mi) = forms
    # the centres' offset in closed form, never a difference of the two centres
    a12, sep = reflected.E[0][1], spec.x2c - spec.x1c
    delta = (reflected.recoil[0] + (2.0 - a12) * sep, reflected.recoil[1] - a12 * sep)
    offset = reflected.offset or (0.0, 0.0)
    # the recoil phase 2 k_rel (x2 - x1) + offset . x enters with a minus sign
    k_hi, k_lo = _k_rel_dd(p)
    kick = (k_hi - 0.5 * offset[0], -k_hi - 0.5 * offset[1])
    tau1, tau2 = reflected.tau
    const = (arg_in - arg_ref - 2.0 * beat_frequency(p) * (tau1 - tau2)
             + (math.pi if reflected_weight < 0.0 else 0.0))
    _check_range(math.isfinite(const), "joint pdf", t1=t1, t2=t2)  # before remainder raises
    axes = tuple(
        (_two_prod(u, tau), xc, delta[j], (log_in if j == 0 else 0.0, 0.5 * mr_in[2 * j]),
         (log_ref if j == 0 else 0.0, 0.5 * mr[2 * j], mr[1] * delta[1 - j]),
         (0.25 * mi[2 * j], 0.25 * mi_in[2 * j], 0.5 * mi[1] * delta[1 - j],
          0.5 * math.remainder(const, _TWO_PI) if j == 0 else 0.0),
         _over_pi(kick[j], sign * k_lo), kick[j])
        for j, (u, tau, xc, sign) in enumerate(((p.v, tau1, spec.x1c, 1.0),
                                                 (p.V, tau2, spec.x2c, -1.0))))
    return _Density(axes=axes, mr12=mr[1], h12=mi[1], weight=abs(reflected_weight))


def _smooth_pdf(form: _Density, x1, x2, within=None):
    """|F_in - F_ref|^2, the smooth PDF, at broadcastable (x1, x2) from its
    coefficients at one pair of times: the one evaluator behind
    :func:`joint_pdf`, :func:`~.scenario.joint_pdf_grid` and
    :meth:`~.measurement.ConditionalMirrorState.pdf`.

    ``within``, a boolean mask over the grid x1[:, None], x2[None, :] of two
    1-D axes, evaluates only the grid's true points, in row-major order: the
    axis terms are gathered, in blocks whose temporaries stay in cache, and
    every step is elementwise, so each value is bitwise that of the whole
    grid at the same point.
    """
    # a lone coordinate, such as a detection's x10, runs on Python floats
    ax1, ax2 = (form.axis(j, float(x) if np.ndim(x) == 0 else np.asarray(x, dtype=float))
                for j, x in enumerate((x1, x2)))
    if within is None:
        return form.density(ax1, ax2)
    flat = np.flatnonzero(within)
    out = np.empty(flat.size)
    for k in range(0, flat.size, _BLOCK):
        i, j = np.divmod(flat[k:k + _BLOCK], within.shape[1])
        out[k:k + _BLOCK] = form.density([a.take(i) for a in ax1], [a.take(j) for a in ax2])
    return out


def _carrier_phase(spec: WavegroupSpec, x1, t1, x2, t2):
    """The plane-wave pair's incident phase Phi at the central wavevectors,
    about the packet centres, reduced mod 2*pi: the common factor
    exp(i Phi) of both branches, which densities and currents never read."""
    return np.remainder(incident_phase(spec.params, x1 - spec.x1c, t1 - spec.t0,
                                       x2 - spec.x2c, t2 - spec.t0), _TWO_PI)


def _fields(spec: WavegroupSpec, x1, t1, x2, t2, *, detune: float = 1.0,
            reflected_weight: float = 1.0, gradients: bool = False) -> SimpleNamespace:
    """Evaluate both spectral integrals at broadcastable coordinate arrays.

    Returns F_in and F_ref such that the full amplitudes are exp(i*Phi) * F
    and the physical state is exp(i*Phi) * (F_in - F_ref) * theta(x2 - x1),
    Phi being :func:`_carrier_phase`. ``detune`` detunes the reflected
    carrier (:func:`_branch`); ``reflected_weight`` linearly rescales the
    reflected branch. ``gradients`` adds the log-derivatives Lin1..Lref2,
    relative to the incident carrier (k0, K0).
    """
    x1, x2 = np.asarray(x1, dtype=float), np.asarray(x2, dtype=float)
    incident, reflected = (_branch(spec, r, t1, t2, detune) for r in (False, True))

    # E = I makes the incident branch separable, a product of two 1-D packets:
    # on separable coordinate arrays it costs O(n1 + n2) exponentials
    (log_in1, qi1), (log_in2, qi2) = map(_log_gauss1, incident.A[::2], incident.b(x1, x2))
    in1, in2 = np.exp(math.log(spec.norm_const / _TWO_PI) + log_in1), np.exp(log_in2)
    log_ref, qr1, qr2 = reflected.log_amplitude(spec, x1, x2)
    out = SimpleNamespace(F_in=in1 * in2, F_ref=reflected_weight * np.exp(log_ref))
    if gradients:
        out.Lin1, out.Lin2 = incident.log_gradient(qi1, qi2)
        out.Lref1, out.Lref2 = reflected.log_gradient(qr1, qr2)
    return out


def amplitude_parts(spec: WavegroupSpec, pt: SpacetimePoint):
    """Incident and reflected closed-form amplitudes (no step function)."""
    f = _fields(spec, pt.x1, pt.t1, pt.x2, pt.t2)
    common = np.exp(1j * _carrier_phase(spec, pt.x1, pt.t1, pt.x2, pt.t2))
    return common * f.F_in, common * f.F_ref


def amplitude_closed(spec: WavegroupSpec, pt: SpacetimePoint):
    """Full wavegroup amplitude (incident - reflected) * theta(x2 - x1)."""
    f = _fields(spec, pt.x1, pt.t1, pt.x2, pt.t2)
    phase = _carrier_phase(spec, pt.x1, pt.t1, pt.x2, pt.t2)
    amp = np.exp(1j * phase) * (f.F_in - f.F_ref)
    return np.where(np.less_equal(pt.x1, pt.x2), amp, 0.0 + 0.0j)


def joint_pdf(spec: WavegroupSpec, x1, t1, x2, t2, *, detune: float = 1.0,
              reflected_weight: float = 1.0, apply_step: bool = True):
    """|Psi|^2 on the physical domain, stable at any carrier-phase magnitude,
    from the real-form density (:class:`_Density`) evaluated elementwise.

    ``apply_step=False`` evaluates the smooth closed form everywhere; the
    conservation checks use that branch, on which the coordinate-pair
    evolutions are exactly unitary.
    """
    form = _density_form(spec, t1, t2, *_forms(spec, t1, t2, detune), reflected_weight)
    val = _smooth_pdf(form, x1, x2)
    if not apply_step:
        return val
    return np.where(np.less_equal(x1, x2), val, 0.0)


def currents(spec: WavegroupSpec, x1, t1, x2, t2, *, detune: float = 1.0,
             reflected_weight: float = 1.0):
    """Probability currents (j1, j2) from analytic derivatives of the amplitude.

    With Psi = exp(i Phi) psi, psi's log-derivatives are relative to the
    incident carrier, whose share hbar k0/m |psi|^2 = v |psi|^2 (V |psi|^2
    for the mirror) is added back. Phi cancels in Psi* dPsi, so the currents
    stay accurate where it does not, and no recoil is a difference of large
    wavevectors.
    """
    p = spec.params
    f = _fields(spec, x1, t1, x2, t2, detune=detune,
                reflected_weight=reflected_weight, gradients=True)
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

def frames(spec: WavegroupSpec, t1: float, t2: float):
    """[(centre, covariance) of the incident packet, the same of the reflected
    one] at (t1, t2): arrays of shape (2,) and (2, 2) from :func:`_moments`."""
    return [tuple(np.array(m) for m in _moments(_branch(spec, r, t1, t2))[:2])
            for r in (False, True)]


# ---------------------------------------------------------------------------
# quadrature oracle
# ---------------------------------------------------------------------------

# largest count whose numpy hermgauss weights are finite and sum to sqrt(pi);
# from 371 their normalisation overflows (all-zero weights at 371, NaN from
# 372), and every node sum would silently be 0 or NaN
_MAX_NODES = 370


@functools.cache
def _hermgauss(nodes: int):
    """Gauss-Hermite nodes and weights, computed once per count, read-only."""
    s, w = np.polynomial.hermite.hermgauss(nodes)
    s.flags.writeable = w.flags.writeable = False
    return s, w


def _saddle_node_sum(phase, s, w):
    """Gauss-Hermite sum of exp(-|u|^2 + i*phase(u1, u2)) over R^2.

    ``phase`` is the branch's spectral phase, a real quadratic polynomial
    of the node variables that also accepts complex arguments. Its saddle
    u* is found by exact quadratic interpolation of the exponent on a unit
    stencil, and the nodes are translated to u* (real grid + complex
    offset). The integrand is entire and its Gaussian part keeps decaying
    on the shifted contour, so by Cauchy's theorem the translation changes
    only how fast the sum converges, never its value; what remains to
    resolve is the chirp Im(H)/2 about the saddle.
    """
    def expo(u1, u2):
        return -u1**2 - u2**2 + 1j * phase(u1, u2)

    e0 = expo(0.0, 0.0)
    ep1, em1 = expo(1.0, 0.0), expo(-1.0, 0.0)
    ep2, em2 = expo(0.0, 1.0), expo(0.0, -1.0)
    g1, g2 = 0.5 * (ep1 - em1), 0.5 * (ep2 - em2)
    h11, h22 = ep1 + em1 - 2.0 * e0, ep2 + em2 - 2.0 * e0
    h12 = expo(1.0, 1.0) - ep1 - ep2 + e0
    det_h = h11 * h22 - h12 * h12  # u* = -H^{-1} g by the adjugate
    u1, u2 = (h12 * g2 - h22 * g1) / det_h, (h12 * g1 - h11 * g2) / det_h

    t1, t2 = s[:, None], s[None, :]
    z = expo(u1 + t1, u2 + t2) + t1**2 + t2**2
    return np.sum(w * np.exp(z.real) * np.exp(1j * np.remainder(z.imag, _TWO_PI)))


def amplitude_quadrature(spec: WavegroupSpec, pt: SpacetimePoint, nodes: int = 64,
                         part: str = "both"):
    """Tensor-product Gauss-Hermite evaluation of the same spectral integrals.

    Each branch is summed on its own, with the nodes centred on the complex
    saddle of that branch's own integrand (see :func:`_saddle_node_sum`).
    Centring removes the displacement oscillation exp(i*beta*s), beta ~
    sqrt(2)*dk*|x - centre|, that aliases spectrally centred nodes once
    beta exceeds about sqrt(2*nodes), i.e. at points far from one branch.
    The sums therefore converge whenever the residual chirp
    hbar dk^2 |t - t0| / m (and the mirror analogue, mixed through the
    collision matrix for the reflected branch) stays well below the node
    count, wherever the point lies. ``nodes`` must lie in [32, 370]; above
    370 numpy's Gauss-Hermite weights overflow. ``part`` selects
    "incident", "reflected" or "both" (with the step function applied).
    """
    if nodes < 32:
        raise ValueError("need at least 32 quadrature nodes per axis")
    if nodes > _MAX_NODES:
        raise ValueError(f"at most {_MAX_NODES} quadrature nodes per axis have "
                         "finite Gauss-Hermite weights")
    p = spec.params
    m, M, hb = p.m, p.M, p.hbar
    (a11, a12), (a21, a22) = p.collision_matrix
    s, w = _hermgauss(nodes)
    sk = math.sqrt(2.0) * spec.dk
    sK = math.sqrt(2.0) * spec.dK
    w2 = (w[:, None] * w[None, :]) * (2.0 * spec.dk * spec.dK)

    tau1, tau2 = pt.t1 - spec.t0, pt.t2 - spec.t0
    vr0, Vr0 = elastic_final_velocities(p)
    pref = spec.norm_const / _TWO_PI
    phase0 = _carrier_phase(spec, pt.x1, pt.t1, pt.x2, pt.t2)
    dphase = interference_phase(p, pt.x1, tau1, pt.x2, tau2)

    def ph_in(u1, u2):
        kap, Kap = sk * u1, sK * u2
        return (kap * (pt.x1 - spec.x1c - p.v * tau1)
                + Kap * (pt.x2 - spec.x2c - p.V * tau2)
                - hb * tau1 / (2 * m) * kap**2
                - hb * tau2 / (2 * M) * Kap**2)

    def ph_ref(u1, u2):
        kap, Kap = sk * u1, sK * u2
        dk_ = a11 * kap + a12 * Kap
        dK_ = a21 * kap + a22 * Kap
        return (dk_ * (pt.x1 - vr0 * tau1) + dK_ * (pt.x2 - Vr0 * tau2)
                - kap * spec.x1c - Kap * spec.x2c
                - hb * tau1 / (2 * m) * dk_**2
                - hb * tau2 / (2 * M) * dK_**2)

    i_in = i_ref = 0.0 + 0.0j
    if part in ("incident", "both"):
        i_in = pref * np.exp(1j * phase0) * _saddle_node_sum(ph_in, s, w2)
    if part in ("reflected", "both"):
        i_ref = (pref * np.exp(1j * (phase0 + np.remainder(dphase, _TWO_PI)))
                 * _saddle_node_sum(ph_ref, s, w2))

    if part == "incident":
        return i_in
    if part == "reflected":
        return i_ref
    if pt.x1 > pt.x2:
        return 0.0 + 0.0j
    return i_in - i_ref
