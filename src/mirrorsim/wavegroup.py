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
far below one ulp of the mirror's momentum. :func:`_branch` states that form
once; amplitudes, log-amplitudes, gradients (relative to (k0, K0)), packet
frames and conditional profiles all derive from it. :func:`_log_gauss2`
evaluates it, and the incident branch, separable since E = I, as a product
of two 1-D integrals. A Gauss-Hermite quadrature of the same integrals,
written independently, serves as the oracle.

Traces are closed forms too: at fixed (t1, t2) every term of |F_in - F_ref|^2
is the exponential of a quadratic in the traced coordinate, so its integral
over a half line is a Gaussian times a complex erfc, evaluated through the
Faddeeva function (:func:`_closed_trace`); marginals and conditional
probabilities all come from it.

Phi is the (possibly astronomically large) carrier phase at the central
wavevectors. Only the incident-reflected *difference* of carrier phases is
physical for densities and currents; it is computed in closed form, never
as a difference of large floats, so they stay accurate even where Phi
exceeds float precision. The absolute phase of one amplitude is reduced
modulo 2*pi and means something only while |Phi| << 1/eps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .harmonic import _TWO_PI, SpacetimePoint, beat_frequency
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


# ---------------------------------------------------------------------------
# wavegroup specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WavegroupSpec:
    """Gaussian spectral amplitudes and initial packet centres.

    The spectral weight is exp[-(k-k0)^2/(2 dk^2)] exp[-(K-K0)^2/(2 dK^2)]
    with linear phases centring the packets at (x1c, x2c) at the reference
    time t0, normalised to unit total probability. The packet centres must
    be separated widely enough that the incident packet's weight on the
    unphysical side x1 > x2 is negligible.
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
        if self.wrong_side_defect() > 1e-6:
            raise ValueError("wrong-side probability defect exceeds 1e-6")

    # the spectral centre is the incident pair of params
    @property
    def k0(self) -> float:
        return self.params.k

    @property
    def K0(self) -> float:
        return self.params.K

    @property
    def K_rel0(self) -> float:
        return self.params.k_rel

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

    def wrong_side_defect(self) -> float:
        """Incident-packet probability on x1 > x2 at t0 (Gaussian tail)."""
        var = 0.5 / self.dk**2 + 0.5 / self.dK**2
        return 0.5 * math.erfc((self.x2c - self.x1c) / math.sqrt(2.0 * var))


def spectral_amplitude(spec: WavegroupSpec, k, K):
    """Normalised Gaussian spectral weight with packet-centring phases."""
    k = np.asarray(k, dtype=float)
    K = np.asarray(K, dtype=float)
    env = np.exp(-((k - spec.k0) ** 2) / (2.0 * spec.dk**2)
                 - ((K - spec.K0) ** 2) / (2.0 * spec.dK**2))
    phase = np.exp(-1j * np.remainder(k * spec.x1c + K * spec.x2c, _TWO_PI))
    return spec.norm_const * env * phase


# ---------------------------------------------------------------------------
# closed-form evaluation
# ---------------------------------------------------------------------------

class _Branch(NamedTuple):
    """One branch's Gaussian form at the times tau (see the module docstring)."""

    A: tuple        # (a11, a12, a22) of the complex symmetric A
    E: tuple        # collision matrix ((e11, e12), (e21, e22)) on spectral offsets
    ut: tuple       # shared carrier displacements (v tau1, V tau2)
    recoil: tuple   # the branch's own displacements on top of ut
    kq: tuple       # carrier wavevectors relative to (k0, K0)
    xc: tuple       # packet centres (x1c, x2c) at t0
    reflected: bool

    def b(self, x1, x2):
        """The linear coefficient b = E^T y - (x1c, x2c), y = x - ut - recoil."""
        y1, y2 = x1 - self.ut[0], x2 - self.ut[1]
        if not self.reflected:
            return y1 - self.xc[0], y2 - self.xc[1]
        y1, y2 = y1 - self.recoil[0], y2 - self.recoil[1]
        d = self.E[0][1] * (y1 - y2)  # E^T y = (2 y2 - y1, y2) + a12 (y1 - y2) (1, 1)
        return 2.0 * y2 - y1 + d - self.xc[0], y2 + d - self.xc[1]

    def log_gradient(self, q1, q2):
        """Log-derivatives i kq - E q of the amplitude, relative to the
        incident carrier (k0, K0)."""
        if not self.reflected:  # E = I keeps the separable array shapes
            return -q1, -q2
        (a11, a12), (a21, a22) = self.E
        return (1j * self.kq[0] - (a11 * q1 + a12 * q2),
                1j * self.kq[1] - (a21 * q1 + a22 * q2))


def _branch(spec: WavegroupSpec, reflected: bool, tau1, tau2) -> _Branch:
    """The incident or the reflected branch's Gaussian form at (tau1, tau2)."""
    p = spec.params
    c1, c2 = p.hbar * tau1 / p.m, p.hbar * tau2 / p.M  # chirp coefficients
    if reflected:
        (a11, a12), (a21, a22) = p.collision_matrix
        kq = (-2.0 * p.k_rel, 2.0 * p.k_rel)
    else:
        a11, a12, a21, a22 = 1.0, 0.0, 0.0, 1.0
        kq = (0.0, 0.0)
    A = (1.0 / spec.dk**2 + 1j * (c1 * a11 * a11 + c2 * a21 * a21),
         1j * (c1 * a11 * a12 + c2 * a21 * a22),
         1.0 / spec.dK**2 + 1j * (c1 * a12 * a12 + c2 * a22 * a22))
    # a carrier offset kq moves the packet by hbar kq tau / m = c kq
    return _Branch(A=A, E=((a11, a12), (a21, a22)), ut=(p.v * tau1, p.V * tau2),
                   recoil=(c1 * kq[0], c2 * kq[1]), kq=kq, xc=(spec.x1c, spec.x2c),
                   reflected=reflected)


def _axis_square(br: _Branch, axis: int, other):
    """Real centre and curvature kappa of one branch along a coordinate axis.

    With the other coordinate held at ``other``, b = b0 + w u is affine in
    the axis coordinate u, with w = E^T e_axis, so the branch's log-amplitude
    is quadratic in u with curvature kappa = w^T A^{-1} w. Completing the
    square, |F|^2 peaks at the real centre -Re(w^T A^{-1} b0) / Re(kappa),
    with intensity curvature Re(kappa).
    """
    w1, w2 = br.E[axis]
    _, q1, q2 = _log_gauss2(*br.A, w1, w2)  # q = A^{-1} w
    kappa = w1 * q1 + w2 * q2
    b1, b2 = br.b(other, 0.0) if axis == 1 else br.b(0.0, other)
    return -(b1 * q1 + b2 * q2).real / kappa.real, kappa


def _half_line(log_c, slope, alpha, d):
    """Integral of exp(log_c + slope s - alpha s^2) over s >= d, Re(alpha) > 0.

    The closed form (1/2) sqrt(pi/alpha) exp(log_c + slope^2/(4 alpha)) erfc(z),
    z = sqrt(alpha) d - slope / (2 sqrt(alpha)), is evaluated through the
    Faddeeva function: erfc(z) exp(z^2) = w(iz) for Re z >= 0, and
    erfc(z) = 2 - erfc(-z) otherwise, so w is only called in the upper half
    plane and exp(z^2) is never formed. The exponent left over is the
    integrand's own log at the start, log_c + slope d - alpha d^2. d = -inf
    gives the whole line, the ``full`` term; d = +inf gives 0.
    """
    from scipy.special import wofz  # deferred: only traces need scipy

    finite = np.isfinite(d)
    whole = np.where(d < 0.0, 1.0, 0.0)  # an infinite start: all or nothing
    d = np.where(finite, d, 0.0)
    root = np.sqrt(alpha)
    z = root * d - slope / (2.0 * root)
    half = 0.5 * math.sqrt(math.pi) / root
    upper = z.real >= 0.0
    tail = (half * np.exp(log_c + slope * d - alpha * d * d)
            * wofz(np.where(upper, 1j * z, -1j * z)))
    full = 2.0 * half * np.exp(log_c + slope**2 / (4.0 * alpha))
    return np.where(finite, np.where(upper, tail, full - tail), whole * full)


def _closed_trace(spec: WavegroupSpec, outer, t1: float, t2: float, axis: int,
                  start=None):
    """Exact integral of the smooth PDF over a half line of one axis.

    ``axis`` is the traced coordinate (1: x2 >= start at each x1 in
    ``outer``; 0: x1 <= start at each x2 in ``outer``). The default start
    is the wall, giving the physical half line; start = -inf on axis 1
    gives the whole line. Along the axis each term of |F_in|^2 + |F_ref|^2
    - 2 Re(F_in conj F_ref) is exp(quadratic), with curvature Re(kappa_in),
    Re(kappa_ref) and (kappa_in + conj kappa_ref)/2 (:func:`_axis_square`).
    Each term is expanded about its own real centre, the cross term about
    the curvature-weighted mean of the two branch centres, where its real
    slope vanishes: log-amplitudes are then evaluated where they are
    largest, never as a difference of huge exponents.
    """
    tau1, tau2 = t1 - spec.t0, t2 - spec.t0
    (c_in, k_in), (c_ref, k_ref) = (_axis_square(_branch(spec, r, tau1, tau2), axis, outer)
                                    for r in (False, True))
    start = outer if start is None else start

    def fields(u, gradients=False):
        x1, x2 = (outer, u) if axis == 1 else (u, outer)
        return _fields(spec, x1, t1, x2, t2, logs=True, gradients=gradients)

    sign = 1.0 if axis == 1 else -1.0  # direction of the half line away from the wall
    a_in, a_ref = k_in.real, k_ref.real
    mid = (a_in * c_in + a_ref * c_ref) / (a_in + a_ref)
    f = fields(mid, gradients=True)
    slope = ((f.Lin2 + np.conj(f.Lref2)) if axis == 1
             else (f.Lin1 + np.conj(f.Lref1)))
    cross = _half_line(f.log_in + np.conj(f.log_ref), sign * slope,
                       0.5 * (k_in + np.conj(k_ref)), sign * (start - mid))
    y = -2.0 * cross.real
    y += _half_line(2.0 * fields(c_in).log_in.real, 0.0, a_in,
                    sign * (start - c_in)).real
    y += _half_line(2.0 * fields(c_ref).log_ref.real, 0.0, a_ref,
                    sign * (start - c_ref)).real
    return np.maximum(y, 0.0)


def _carrier_phases(spec: WavegroupSpec, x1, x2, tau1, tau2):
    """The incident carrier phase Phi reduced mod 2*pi, and the exact
    reflected-minus-incident difference 2 k_rel (x2 - x1) + 2 beat (tau1 - tau2)."""
    p = spec.params
    k0, K0 = p.k, p.K
    w1, w2 = p.hbar * k0**2 / (2 * p.m), p.hbar * K0**2 / (2 * p.M)
    phase0 = np.remainder(
        k0 * (x1 - spec.x1c) + K0 * (x2 - spec.x2c) - w1 * tau1 - w2 * tau2, _TWO_PI
    )
    dphase = 2.0 * p.k_rel * (x2 - x1) + 2.0 * beat_frequency(p) * (tau1 - tau2)
    return phase0, dphase


def _fields(spec: WavegroupSpec, x1, t1, x2, t2, *, detune: float = 1.0,
            reflected_weight: float = 1.0, gradients: bool = False,
            logs: bool = False) -> SimpleNamespace:
    """Evaluate both spectral integrals at broadcastable coordinate arrays.

    Returns F_in and F_ref such that the full amplitudes are
    exp(i*phase0) * F and the physical state is exp(i*phase0) *
    (F_in - F_ref) * theta(x2 - x1). ``detune`` scales the reflected
    carrier wavevectors without touching the energies (a deliberately
    broken field for negative-control tests); ``reflected_weight``
    linearly rescales the reflected branch. ``logs`` adds the complex
    log-amplitudes log_in and log_ref, usable where the envelope factors
    themselves underflow; ``gradients`` adds the log-derivatives Lin1..Lref2,
    relative to the incident carrier (k0, K0).
    """
    p = spec.params
    x1, x2 = np.asarray(x1, dtype=float), np.asarray(x2, dtype=float)
    tau1 = np.asarray(t1, dtype=float) - spec.t0
    tau2 = np.asarray(t2, dtype=float) - spec.t0
    phase0, dphase = _carrier_phases(spec, x1, x2, tau1, tau2)
    incident, reflected = (_branch(spec, r, tau1, tau2) for r in (False, True))
    if detune != 1.0:
        # the reflected carrier (k0, K0) + kq gains (detune - 1) times itself
        extra = [(detune - 1.0) * (k + q) for k, q in zip((p.k, p.K), reflected.kq)]
        dphase = dphase + extra[0] * x1 + extra[1] * x2
        reflected = reflected._replace(kq=(reflected.kq[0] + extra[0],
                                           reflected.kq[1] + extra[1]))

    log_pref = math.log(spec.norm_const / _TWO_PI)
    # E = I makes the incident branch separable, a product of two 1-D packets:
    # on separable coordinate arrays it costs O(n1 + n2) exponentials
    (log_in1, qi1), (log_in2, qi2) = map(_log_gauss1, incident.A[::2], incident.b(x1, x2))
    log_ref, qr1, qr2 = _log_gauss2(*reflected.A, *reflected.b(x1, x2),
                                    log_pref + 1j * np.remainder(dphase, _TWO_PI))
    out = SimpleNamespace(F_in=np.exp(log_pref + log_in1) * np.exp(log_in2),
                          F_ref=reflected_weight * np.exp(log_ref),
                          phase0=phase0, physical=x1 <= x2)
    if logs:
        out.log_in, out.log_ref = log_pref + log_in1 + log_in2, log_ref
    if gradients:
        out.Lin1, out.Lin2 = incident.log_gradient(qi1, qi2)
        out.Lref1, out.Lref2 = reflected.log_gradient(qr1, qr2)
    return out


def amplitude_parts(spec: WavegroupSpec, pt: SpacetimePoint):
    """Incident and reflected closed-form amplitudes (no step function)."""
    f = _fields(spec, pt.x1, pt.t1, pt.x2, pt.t2)
    common = np.exp(1j * f.phase0)
    return common * f.F_in, common * f.F_ref


def amplitude_closed(spec: WavegroupSpec, pt: SpacetimePoint):
    """Full wavegroup amplitude (incident - reflected) * theta(x2 - x1)."""
    f = _fields(spec, pt.x1, pt.t1, pt.x2, pt.t2)
    amp = np.exp(1j * f.phase0) * (f.F_in - f.F_ref)
    return np.where(f.physical, amp, 0.0 + 0.0j)


def joint_pdf(spec: WavegroupSpec, x1, t1, x2, t2, *, detune: float = 1.0,
              reflected_weight: float = 1.0, apply_step: bool = True):
    """|Psi|^2 on the physical domain, stable at any carrier-phase magnitude.

    ``apply_step=False`` evaluates the smooth closed form everywhere; the
    conservation checks use that branch, on which the coordinate-pair
    evolutions are exactly unitary.
    """
    f = _fields(spec, x1, t1, x2, t2, detune=detune, reflected_weight=reflected_weight)
    val = np.abs(f.F_in - f.F_ref) ** 2
    if not apply_step:
        return val
    return np.where(f.physical, val, 0.0)


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

def _frame(br: _Branch):
    """Centre and intensity covariance of one branch's packet.

    |F|^2 is a Gaussian exp(-Re(b^T A^{-1} b)) in x, centred where b = 0 at
    u tau + E^{-T} (x1c, x2c) with covariance (2 E Re(A^{-1}) E^T)^{-1}.
    """
    a11, a12, a22 = br.A
    E = np.array(br.E)
    centre = (np.array(br.ut) + np.array(br.recoil)
              + np.linalg.solve(E.T, np.array(br.xc)))
    re_ainv = np.linalg.inv(np.array([[a11, a12], [a12, a22]])).real
    return centre, np.linalg.inv(2.0 * E @ re_ainv @ E.T)


def incident_frame(spec: WavegroupSpec, t1: float, t2: float):
    """Centre and intensity covariance of the incident packet at (t1, t2)."""
    return _frame(_branch(spec, False, t1 - spec.t0, t2 - spec.t0))


def reflected_frame(spec: WavegroupSpec, t1: float, t2: float):
    """Centre and intensity covariance of the reflected packet at (t1, t2)."""
    return _frame(_branch(spec, True, t1 - spec.t0, t2 - spec.t0))


# ---------------------------------------------------------------------------
# quadrature oracle
# ---------------------------------------------------------------------------

# largest count whose numpy hermgauss weights are finite and sum to sqrt(pi);
# from 371 their normalisation overflows (all-zero weights at 371, NaN from
# 372), and every node sum would silently be 0 or NaN
_MAX_NODES = 370


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
    g = np.array([0.5 * (ep1 - em1), 0.5 * (ep2 - em2)])
    h12 = expo(1.0, 1.0) - ep1 - ep2 + e0
    H = np.array([[ep1 + em1 - 2.0 * e0, h12], [h12, ep2 + em2 - 2.0 * e0]])
    u_star = -np.linalg.solve(H, g)

    t1, t2 = s[:, None], s[None, :]
    z = expo(u_star[0] + t1, u_star[1] + t2) + t1**2 + t2**2
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
    s, w = np.polynomial.hermite.hermgauss(nodes)
    sk = math.sqrt(2.0) * spec.dk
    sK = math.sqrt(2.0) * spec.dK
    w2 = (w[:, None] * w[None, :]) * (2.0 * spec.dk * spec.dK)

    tau1, tau2 = pt.t1 - spec.t0, pt.t2 - spec.t0
    vr0, Vr0 = elastic_final_velocities(p)
    pref = spec.norm_const / _TWO_PI
    phase0, dphase = _carrier_phases(spec, pt.x1, pt.x2, tau1, tau2)

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
