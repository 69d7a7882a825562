"""Derived analyses: marginals, fringes, beats, coherence transfer, decoherence.

Everything here consumes the closed-form fields; beats are extracted by
least-squares sinusoid fitting (scenario time axes are short and
non-power-of-two, where bare FFT bins would leak). Coherence transfer
samples nothing: its widths are the exact second moments of both marginals,
each term of the PDF, interference included, integrated over the physical
half plane in closed form (:func:`~.wavegroup._half_plane_moments`).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .grids import Curve
from .kinematics import PhysicalParams
from .measurement import ConditionalMirrorState, _extrema
from .wavegroup import (WavegroupSpec, _closed_trace, _density_form, _half_plane_moments,
                        _lost_precision, _span, frames, joint_pdf)

# How far the equal-time mass on the physical half plane may lie from 1 before
# :func:`_measured_widths` names lost precision. fig5, fig6-m1, fig6-m20, fig8
# and fig9 at t0, t_c + 2 tau and t_c + 2.5 tau read at most 5.8e-15 (fig8 at
# t_c + 2 tau); r183 of the SI sweep reads 0.434 at t_c + 2 tau.
_MASS_DRIFT = 1e-10


class InsufficientSpanWarning(UserWarning):
    """A time series covered fewer oscillation periods than recommended."""


class IncompleteSeparationWarning(UserWarning):
    """Incident and reflected wavegroups still overlap at an analysis time."""


@dataclass(frozen=True)
class FringeReport:
    """Fringe geometry of one sampled curve."""

    spacing: float
    visibility: float
    n_fringes: int
    axis: str


@dataclass(frozen=True)
class DecoherenceEstimate:
    """Closed-form path-information and environmental-decoherence estimators."""

    t_D_over_t_R: float
    dx_paths: float
    lambda_T: float
    v_probe_sync: float
    v_probe_async: float
    overlap_time: float


# ---------------------------------------------------------------------------
# marginal (one-body) PDFs
# ---------------------------------------------------------------------------

def _hull(packets, axis: int, pad: float = 8.0) -> tuple[float, float]:
    """Interval covering the (centre, covariance) packets, such as both of
    :func:`~.wavegroup.frames`, along one axis (0 = x1, 1 = x2)."""
    return _span(((c[axis], math.sqrt(cov[axis, axis])) for c, cov in packets), pad)


def marginal_over_mirror(spec: WavegroupSpec, x1_axis, t1: float, t2: float,
                         n_quad: int | None = None) -> Curve:
    """Trace of the joint PDF over the mirror coordinate, sampled on x1_axis.

    The trace is the exact integral over the physical half line x2 >= x1
    (:func:`~.wavegroup._closed_trace`). An integer ``n_quad`` selects a
    composite trapezoid on that many x2 nodes over both packets' 8-sigma
    hull instead, unchecked for clipped probability; it is kept only because
    ``benchmark/selftest.py`` passes ``n_quad=2049``. Its nodes do not start
    at the wall, so it is no accuracy reference for the closed form.
    """
    x1 = np.asarray(x1_axis, dtype=float)
    if n_quad is None:
        y = _closed_trace(spec, x1, t1, t2, axis=1)
    else:
        x2 = np.linspace(*_hull(frames(spec, t1, t2), axis=1), n_quad)
        y = np.trapezoid(joint_pdf(spec, x1[:, None], t1, x2, t2), x2, axis=1)
    return Curve(x=x1, y=y, meta={"axis": "x1", "t1": t1, "t2": t2})


def marginal_over_particle(spec: WavegroupSpec, x2_axis, t1: float,
                           t2: float) -> Curve:
    """Trace of the joint PDF over the particle coordinate, sampled on x2_axis:
    the exact integral over the physical half line x1 <= x2
    (:func:`~.wavegroup._closed_trace`)."""
    x2 = np.asarray(x2_axis, dtype=float)
    return Curve(x=x2, y=_closed_trace(spec, x2, t1, t2, axis=0),
                 meta={"axis": "x2", "t1": t1, "t2": t2})


# ---------------------------------------------------------------------------
# fringe extraction
# ---------------------------------------------------------------------------

def extract_fringes(curve: Curve) -> FringeReport:
    """Strength-weighted peak spacing and visibility of the fringes in one curve.

    The spacing is the mean of the peak-to-peak distances, each weighted by
    sqrt(h_i * h_{i+1}), the geometric mean of its two peak heights. A chirped
    pattern (the dispersion chirp of a Gaussian wavegroup) then reports the
    spacing of the fringes that carry it rather than an average dragged
    by faint tail peaks; for an unchirped pattern every weighting gives the
    same value.

    Visibility is the largest local contrast (peak against the mean of its
    two neighbouring troughs); averaging the flanking troughs cancels the
    envelope slope, which would otherwise masquerade as contrast in
    washed-out curves.
    """
    x, y = curve.x, curve.y
    axis = curve.meta.get("axis", "x1")
    (i, pos, height), (_, t_pos, t_val) = _extrema(x, y)
    above = y[i] > 1e-12 * max(float(y.max()), 1e-300)
    pos, height = pos[above], height[above]
    if len(pos) < 2:
        return FringeReport(spacing=0.0, visibility=0.0, n_fringes=len(pos), axis=axis)
    weight = np.sqrt(height[:-1] * height[1:])
    spacing = float(np.sum(weight * np.diff(pos)) / np.sum(weight))

    # the troughs nearest each peak on either side; peaks missing one are skipped
    left = np.searchsorted(t_pos, pos, side="left") - 1
    right = np.searchsorted(t_pos, pos, side="right")
    flanked = (left >= 0) & (right < len(t_pos))
    t_val = np.maximum(t_val, 0.0)
    t_bar = 0.5 * (t_val[left[flanked]] + t_val[right[flanked]])
    v = height[flanked]
    lit = v + t_bar > 0
    visibility = np.max((v[lit] - t_bar[lit]) / (v[lit] + t_bar[lit]), initial=0.0)
    return FringeReport(spacing=spacing, visibility=float(visibility),
                        n_fringes=len(pos), axis=axis)


# ---------------------------------------------------------------------------
# beat analysis
# ---------------------------------------------------------------------------

_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))  # the golden section's smaller share
_BRENT_RTOL = 1e-10  # relative tolerance of the fitted beat frequency


def _brent(f, a: float, b: float) -> tuple[float, float]:
    """(x, f(x)) at a minimum of f on [a, b] by Brent's method.

    Each step fits a parabola through the three best points and takes its
    vertex when it falls inside the bracket and shrinks the step of two
    steps before to less than half; otherwise it takes a golden-section step
    into the larger side. No step is shorter than rtol |x|, rtol =
    ``_BRENT_RTOL``, and the search stops once the bracket about x is within
    2 rtol |x| on either side
    (Brent, "Algorithms for Minimization without Derivatives", 1973, ch. 5).
    """
    x = w = v = a + _GOLDEN * (b - a)
    fx = fw = fv = f(x)
    d = e = 0.0
    while True:
        m = 0.5 * (a + b)
        tol = _BRENT_RTOL * abs(x) + 1e-300  # the floor ends a search at x = 0
        if abs(x - m) <= 2.0 * tol - 0.5 * (b - a):
            return x, fx
        golden = True
        if abs(e) > tol:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            if abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x):
                e, d = d, p / q
                if min(x + d - a, b - x - d) < 2.0 * tol:
                    d = math.copysign(tol, m - x)
                golden = False
        if golden:
            e = (a if x >= m else b) - x
            d = _GOLDEN * e
        u = x + (d if abs(d) >= tol else math.copysign(tol, d))
        fu = f(u)
        if fu <= fx:
            if u < x:
                b = x
            else:
                a = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu


def fit_sinusoid(t: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Dominant oscillation of a short series by least squares.

    The model is a quadratic baseline plus one sinusoid; a zero-padded
    periodogram seeds the frequency, and Brent's method (:func:`_brent`) on
    the least-squares residual refines it within [0.8, 1.25] of the seed, to
    a relative step of 1e-10, in about a dozen residual evaluations. The
    baseline's QR is taken once: at each trial frequency cos and sin are
    projected off it, and the residual of the series, projected likewise, is
    fitted by their 2 x 2 normal equations. Returns (omega, relative
    residual).
    """
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    dt = t[1] - t[0]
    if not np.allclose(np.diff(t), dt, rtol=1e-9):
        raise ValueError("sinusoid fit expects a uniform time axis")
    ts = (t - t.mean()) / (t[-1] - t[0])
    q, _ = np.linalg.qr(np.vstack([np.ones_like(ts), ts, ts**2]).T)
    resid = y - q @ (q.T @ y)

    n_fft = 8 * len(t)
    spec = np.abs(np.fft.rfft(resid * np.hanning(len(t)), n=n_fft))
    freqs = np.fft.rfftfreq(n_fft, d=dt)
    k0 = 3 + int(np.argmax(spec[3:]))
    w_seed = 2.0 * math.pi * freqs[k0]

    def sse(w):
        wave = np.stack([np.cos(w * t), np.sin(w * t)], axis=1)
        wave -= q @ (q.T @ wave)
        r = resid - wave @ np.linalg.solve(wave.T @ wave, wave.T @ resid)
        return float(r @ r)

    w_best, sse_best = _brent(sse, 0.8 * w_seed, 1.25 * w_seed)
    return w_best, math.sqrt(sse_best / max(float(y @ y), 1e-300))


def doppler_beat(state: ConditionalMirrorState, x2: float, t2_axis) -> float:
    """Beat frequency of the conditional mirror PDF at a fixed position.

    The series pdf(x2, t2) is normalised by the incoherent branch sum
    |F_in|^2 + |F_ref|^2 before fitting, which removes the envelope transit
    gate (a fixed detector only sees the packet for a finite passage time)
    without shifting the oscillation. The result is half the fitted
    intensity angular frequency, i.e. the phase-advance rate of the
    interference term, matching the closed-form plane-wave expression.

    The whole series comes from one density form whose coefficients are
    arrays over the t2 axis (:func:`~.wavegroup._density_form`), as
    y = 1 - cos(2 theta) / cosh(log|F_in| - log|F_ref|) from the branch
    log-moduli and half phase difference (:meth:`~.wavegroup._Density.logs`).
    """
    t2 = np.asarray(t2_axis, dtype=float)
    state._check_time(t2.min())
    spec, ev = state.spec, state.event
    log_in, log_ref, theta, *_ = _density_form(spec, ev.t10, t2).logs(ev.x10, x2)
    # the envelopes underflow once the packet has moved past the detector, but
    # the contrast survives: 1 / cosh(u) = 2 g / (1 + g^2), g = exp(-|u|)
    g = np.exp(-np.abs(log_in - log_ref))
    y = 1.0 - np.cos(2.0 * theta) * (2.0 * g / (1.0 + g * g))
    omega, _ = fit_sinusoid(t2, y)
    beat = 0.5 * omega
    periods = (t2[-1] - t2[0]) * beat / math.pi
    gate = transit_beat_periods(state, float(t2[len(t2) // 2]))
    if periods < 3.0 or gate < 3.0:
        warnings.warn("fewer than 3 beat periods resolvable (axis span or "
                      "envelope transit gate)", InsufficientSpanWarning,
                      stacklevel=2)
    return beat


def transit_beat_periods(state: ConditionalMirrorState, t2: float) -> float:
    """Beat periods a fixed detector sees while the envelope passes it.

    Infinite for a non-translating mirror packet, and positive for either
    sign of the beat. Below ~3 the beat is not extractable from a
    fixed-position time series and the pattern-drift estimator applies
    instead.
    """
    profiles = state.branch_profiles(t2)
    width = 2.0 * max(s for _, s, _ in profiles)
    v_env = abs(state.spec.params.V)
    if v_env == 0.0:
        return math.inf
    return (width / v_env) * abs(state.spec.beat0) / math.pi


def pattern_drift_beat(state: ConditionalMirrorState, t2_axis,
                       fringe_spacing_measured: float) -> float:
    """Beat frequency as fringe-crossing rate: pattern speed times the
    measured fringe wavevector.

    For a mirror packet narrower than a fringe the interference pattern
    rides the envelope, so a fixed detector sees at most a sliver of a beat
    during the transit. The pattern still sweeps fixed space at the beat
    rate; its drift velocity comes from the conditional centroid track and
    the fringe wavevector from the measured particle-side fringe spacing.
    Each centroid is a sum over the conditional PDF sampled by the rule of
    :meth:`~.measurement.ConditionalMirrorState._sampled`: no fringe lies
    inside such a packet, so 16 samples per branch sigma.
    """
    if not fringe_spacing_measured > 0.0:
        raise ValueError("pattern-drift beat needs a measured fringe spacing; got "
                         f"{fringe_spacing_measured:g}, fewer than two fringe peaks")
    t2 = np.asarray(t2_axis, dtype=float)
    centroids = []
    for t in t2:
        x2, pdf = state._sampled(float(t))
        centroids.append(float((pdf @ x2) / pdf.sum()))
    v_pattern = float(np.polyfit(t2, centroids, 1)[0])
    return math.pi * abs(v_pattern) / fringe_spacing_measured


# ---------------------------------------------------------------------------
# coherence transfer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoherenceTransferReport:
    """Dispersion-corrected marginal widths before and after reflection."""

    width_particle_in: float
    width_mirror_in: float
    width_particle_out: float
    width_mirror_out: float

    @property
    def exchange_particle(self) -> float:
        """width(particle out) / width(mirror in)."""
        return _width_ratio(self.width_particle_out, self.width_mirror_in, "mirror")

    @property
    def exchange_mirror(self) -> float:
        """width(mirror out) / width(particle in)."""
        return _width_ratio(self.width_mirror_out, self.width_particle_in, "particle")


def _width_ratio(out: float, incoming: float, body: str) -> float:
    if incoming == 0.0:
        raise ValueError(f"exchange ratio undefined: the incoming {body} width "
                         "measured 0")
    return out / incoming


def _measured_widths(spec: WavegroupSpec, t: float):
    """Standard deviations of the two synchronous marginals at t, the
    particle's and the mirror's: exact moments of the whole PDF, both
    intensities and the interference term, over the physical half plane
    (:func:`~.wavegroup._half_plane_moments`).

    At equal times the mass there is 1, less a leak below 7.7e-13 that
    :class:`~.wavegroup.WavegroupSpec` bounds, whatever the masses; a mass
    more than _MASS_DRIFT from 1 means the moments lost their precision,
    and its widths are not read."""
    mass, _, variances = _half_plane_moments(spec, t, t)
    if not abs(mass - 1.0) <= _MASS_DRIFT:
        raise _lost_precision("half-plane moments", f"the mass on the physical half plane is "
                              f"{mass:.12g}, {abs(mass - 1.0):.2g} from 1, over {_MASS_DRIFT:g}",
                              t1=t, t2=t)
    return math.sqrt(variances[0]), math.sqrt(variances[1])


def _waist_from_pair(sig_a: float, sig_b: float, t_a: float, t_b: float,
                     mass: float, hbar: float, t0: float) -> float:
    """Waist width from two dispersed widths via the free-spreading law.

    sigma^2(t) = sigma0^2 + (hbar (t - t0) / (2 m sigma0))^2 sampled at two
    times determines sigma0 uniquely, with no branch ambiguity. When the
    width change between the samples is below measurement resolution the
    packet is effectively at its waist and the first sample is returned.
    """
    ca = hbar * (t_a - t0) / (2.0 * mass)
    cb = hbar * (t_b - t0) / (2.0 * mass)
    d_sig = sig_b**2 - sig_a**2
    if abs(d_sig) < 1e-4 * sig_a**2:
        return sig_a
    val = (cb**2 - ca**2) / d_sig
    return math.sqrt(val) if val > 0 else sig_a


def coherence_transfer_metrics(spec: WavegroupSpec, pre_t: float,
                               post_t: float) -> CoherenceTransferReport:
    """Marginal widths of the substates before and after reflection.

    Every width is a standard deviation of a synchronous marginal, from the
    exact mass, mean and variance of the whole PDF (both intensities and the
    interference term) over the physical half plane x1 <= x2
    (:func:`_measured_widths`), so no trace is sampled and no packet cut by
    the wall is under-resolved. Incoming widths are those at pre_t, which
    should sit in the incident era near the reference time (the packet
    waists). Outgoing widths take the marginals at post_t and tau / 2 later
    and invert the free-spreading variance law, undoing the dispersion
    accumulated on the way out. Emits
    IncompleteSeparationWarning when the incident packet has not fully left
    the physical domain at post_t.
    """
    p = spec.params
    (ci, _), _ = frames(spec, post_t, post_t)
    gap = ci[0] - ci[1]
    if gap < 3.0 * (1.0 / spec.dk + 1.0 / spec.dK):
        warnings.warn("incident and reflected wavegroups still overlap at post_t",
                      IncompleteSeparationWarning, stacklevel=2)

    part_in, mirr_in = _measured_widths(spec, pre_t)
    dt = 0.5 * spec.tau
    part_a, mirr_a = _measured_widths(spec, post_t)
    part_b, mirr_b = _measured_widths(spec, post_t + dt)
    part_out = _waist_from_pair(part_a, part_b, post_t, post_t + dt,
                                p.m, p.hbar, spec.t0)
    mirr_out = _waist_from_pair(mirr_a, mirr_b, post_t, post_t + dt,
                                p.M, p.hbar, spec.t0)

    return CoherenceTransferReport(
        width_particle_in=part_in,
        width_mirror_in=mirr_in,
        width_particle_out=part_out,
        width_mirror_out=mirr_out,
    )


# ---------------------------------------------------------------------------
# decoherence estimators
# ---------------------------------------------------------------------------

def decoherence_report(p: PhysicalParams, T: float, dt: float, m_star: float,
                       l_c_particle: float) -> DecoherenceEstimate:
    """Closed-form decoherence and path-information figures of merit.

    All quantities are verbatim formula evaluations: the thermal de Broglie
    length of the mirror, the path separation opened up between the
    reflected and unreflected mirror states over dt, the probe velocities
    able to resolve that separation for synchronous and asynchronous
    measurements, the environmental decoherence ratio t_D / t_R, and the
    thermal overlap time of the two mirror states.
    """
    if not (T > 0 and dt > 0 and m_star > 0 and l_c_particle > 0):
        raise ValueError("all estimator inputs must be positive")
    h = 2.0 * math.pi * p.hbar
    m, M, v, kB = p.m, p.M, p.v, p.kB
    lambda_t = h / math.sqrt(2.0 * M * kB * T)
    dx = 2.0 * v * dt * m / M
    return DecoherenceEstimate(
        t_D_over_t_R=M * h**2 / (8.0 * kB * T * (m * v * dt) ** 2),
        dx_paths=dx,
        lambda_T=lambda_t,
        v_probe_sync=h * M / (4.0 * l_c_particle * m * m_star),
        v_probe_async=h * M / (2.0 * m * m_star * v * dt),
        overlap_time=h * math.sqrt(M) / (4.0 * m * v * math.sqrt(2.0 * kB * T)),
    )
