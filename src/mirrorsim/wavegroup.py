"""Gaussian-spectrum two-body wavegroups evaluated in closed form.

A wavegroup superposes the two-time plane-wave pairs of :mod:`.harmonic`
with a Gaussian spectral weight in (k, K). The state is the incident
branch minus the reflected branch, and each branch is one complex
Gaussian integral over the spectral offsets s = (k - k0, K - K0):

    F(x, t) = C exp(i Phi(x, t)) * integral exp(-s^T A s / 2 + i b^T s) ds
    A = diag(1/dk^2, 1/dK^2) + i E^T diag(hbar tau1/m, hbar tau2/M) E
    b = E^T (x - u tau) - (x1c, x2c),    tau = t - t0

The branches differ only in the collision matrix E, which maps (k, K) to
the branch's own wavevectors (the identity for the incident branch, the
elastic collision for the reflected one), and in the carrier velocities u.
:func:`_branch` states that form once; amplitudes, log-amplitudes,
gradients, packet frames and conditional profiles all derive from it.
:func:`_log_gauss2` evaluates it, and the incident branch, separable since
E = I, as a product of two 1-D integrals. A Gauss-Hermite quadrature of the
same integrals, written independently, serves as the oracle.

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

from .harmonic import _TWO_PI, SpacetimePoint
from .kinematics import PhysicalParams

_LOG_TWO_PI = math.log(_TWO_PI)


# ---------------------------------------------------------------------------
# complex Gaussian integrals
# ---------------------------------------------------------------------------

def _lin(c1, y1, c2, y2):
    """c1*y1 + c2*y2 for scalar c1, c2, without the second term where c2 is 0,
    so that the diagonal incident branch keeps its separable array shapes."""
    if c2 == 0:
        return c1 * y1
    return c1 * y1 + c2 * y2


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
    k0: float
    dk: float
    K0: float
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
        p = self.params
        if not (math.isclose(self.k0, p.k, rel_tol=1e-9, abs_tol=0.0)
                and math.isclose(self.K0, p.K, rel_tol=1e-9, abs_tol=1e-300)):
            raise ValueError("spectral centres inconsistent with params velocities")
        if self.wrong_side_defect() > 1e-6:
            raise ValueError("wrong-side probability defect exceeds 1e-6")

    @classmethod
    def from_params(cls, params: PhysicalParams, dk: float, dK: float,
                    x1c: float, x2c: float, t0: float = 0.0) -> "WavegroupSpec":
        return cls(params=params, k0=params.k, dk=dk, K0=params.K, dK=dK,
                   x1c=x1c, x2c=x2c, t0=t0)

    # collision kinematics of the spectral centre
    @property
    def _a(self) -> tuple[float, float, float, float]:
        m, M = self.params.m, self.params.M
        s = m + M
        return (m - M) / s, 2.0 * m / s, 2.0 * M / s, (M - m) / s

    @property
    def k_ref0(self) -> float:
        a11, a12, _, _ = self._a
        return a11 * self.k0 + a12 * self.K0

    @property
    def K_ref0(self) -> float:
        _, _, a21, a22 = self._a
        return a21 * self.k0 + a22 * self.K0

    @property
    def K_rel0(self) -> float:
        p = self.params
        return (p.M * self.k0 - p.m * self.K0) / (p.m + p.M)

    @property
    def beat0(self) -> float:
        """Central beat frequency, the phase-advance rate of the cross term."""
        p = self.params
        return p.hbar * self.K_rel0 * (self.k0 + self.K0) / (p.m + p.M)

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

    A: tuple   # (a11, a12, a22) of the complex symmetric A
    E: tuple   # collision matrix ((e11, e12), (e21, e22)): (k, K) -> branch
    ut: tuple  # carrier displacements (u1 tau1, u2 tau2)
    k: tuple   # carrier wavevectors (k, K)
    xc: tuple  # packet centres (x1c, x2c) at t0

    def b(self, x1, x2):
        """The linear coefficient b = E^T (x - u tau) - (x1c, x2c)."""
        (a11, a12), (a21, a22) = self.E
        y1, y2 = x1 - self.ut[0], x2 - self.ut[1]
        return _lin(a11, y1, a21, y2) - self.xc[0], _lin(a22, y2, a12, y1) - self.xc[1]

    def log_gradient(self, q1, q2, detune: float = 1.0):
        """Log-derivatives i k - E q of the amplitude (carrier included)."""
        (a11, a12), (a21, a22) = self.E
        return (1j * detune * self.k[0] - _lin(a11, q1, a12, q2),
                1j * detune * self.k[1] - _lin(a22, q2, a21, q1))


def _branch(spec: WavegroupSpec, reflected: bool, tau1, tau2) -> _Branch:
    """The incident or the reflected branch's Gaussian form at (tau1, tau2)."""
    p = spec.params
    if reflected:
        a11, a12, a21, a22 = spec._a
        k = (spec.k_ref0, spec.K_ref0)
        u = (p.hbar * k[0] / p.m, p.hbar * k[1] / p.M)
    else:
        a11, a12, a21, a22 = 1.0, 0.0, 0.0, 1.0
        k, u = (spec.k0, spec.K0), (p.v, p.V)
    c1, c2 = p.hbar * tau1 / p.m, p.hbar * tau2 / p.M  # chirp coefficients
    A = (1.0 / spec.dk**2 + 1j * (c1 * a11 * a11 + c2 * a21 * a21),
         1j * (c1 * a11 * a12 + c2 * a21 * a22),
         1.0 / spec.dK**2 + 1j * (c1 * a12 * a12 + c2 * a22 * a22))
    return _Branch(A=A, E=((a11, a12), (a21, a22)), ut=(u[0] * tau1, u[1] * tau2),
                   k=k, xc=(spec.x1c, spec.x2c))


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
    themselves underflow; ``gradients`` adds the log-derivatives Lin1..Lref2.
    """
    p = spec.params
    x1, x2 = np.asarray(x1, dtype=float), np.asarray(x2, dtype=float)
    tau1 = np.asarray(t1, dtype=float) - spec.t0
    tau2 = np.asarray(t2, dtype=float) - spec.t0
    k0, K0 = spec.k0, spec.K0
    w1, w2 = p.hbar * k0**2 / (2 * p.m), p.hbar * K0**2 / (2 * p.M)

    # carrier phases: absolute one reduced mod 2*pi, difference kept exact
    phase0 = np.remainder(
        k0 * (x1 - spec.x1c) + K0 * (x2 - spec.x2c) - w1 * tau1 - w2 * tau2, _TWO_PI
    )
    dphase = -2.0 * spec.K_rel0 * (x1 - x2) + 2.0 * spec.beat0 * (tau1 - tau2)
    if detune != 1.0:
        dphase = dphase + (detune - 1.0) * (spec.k_ref0 * x1 + spec.K_ref0 * x2)

    incident, reflected = (_branch(spec, r, tau1, tau2) for r in (False, True))
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
        out.Lref1, out.Lref2 = reflected.log_gradient(qr1, qr2, detune)
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

    Carrier phases cancel in Psi* dPsi, so both currents stay accurate in
    regimes where the absolute amplitude phase does not.
    """
    p = spec.params
    f = _fields(spec, x1, t1, x2, t2, detune=detune,
                reflected_weight=reflected_weight, gradients=True)
    psi = f.F_in - f.F_ref
    dpsi1 = f.F_in * f.Lin1 - f.F_ref * f.Lref1
    dpsi2 = f.F_in * f.Lin2 - f.F_ref * f.Lref2
    j1 = p.hbar / p.m * np.imag(np.conj(psi) * dpsi1)
    j2 = p.hbar / p.M * np.imag(np.conj(psi) * dpsi2)
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
    centre = np.array(br.ut) + np.linalg.solve(E.T, np.array(br.xc))
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
    a11, a12, a21, a22 = spec._a
    s, w = np.polynomial.hermite.hermgauss(nodes)
    sk = math.sqrt(2.0) * spec.dk
    sK = math.sqrt(2.0) * spec.dK
    w2 = (w[:, None] * w[None, :]) * (2.0 * spec.dk * spec.dK)

    tau1, tau2 = pt.t1 - spec.t0, pt.t2 - spec.t0
    k0, K0 = spec.k0, spec.K0
    v0, V0 = hb * k0 / m, hb * K0 / M
    vr0, Vr0 = hb * spec.k_ref0 / m, hb * spec.K_ref0 / M
    w1, w2c = hb * k0**2 / (2 * m), hb * K0**2 / (2 * M)
    pref = spec.norm_const / _TWO_PI

    phase0 = np.remainder(
        k0 * (pt.x1 - spec.x1c) + K0 * (pt.x2 - spec.x2c) - w1 * tau1 - w2c * tau2,
        _TWO_PI,
    )
    dphase = (-2.0 * spec.K_rel0 * (pt.x1 - pt.x2)
              + 2.0 * spec.beat0 * (tau1 - tau2))

    def ph_in(u1, u2):
        kap, Kap = sk * u1, sK * u2
        return (kap * (pt.x1 - spec.x1c - v0 * tau1)
                + Kap * (pt.x2 - spec.x2c - V0 * tau2)
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
