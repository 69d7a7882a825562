"""Derived analyses: marginals, fringes, beats, coherence transfer, decoherence.

Everything here consumes the closed-form fields; beats are extracted by
least-squares sinusoid fitting (scenario time axes are short and
non-power-of-two, where bare FFT bins would leak).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .grids import Curve
from .kinematics import PhysicalParams
from .measurement import ConditionalMirrorState, _extrema
from .wavegroup import WavegroupSpec, _branch, _closed_trace, frames, joint_pdf


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

def _support_hull(spec: WavegroupSpec, t1: float, t2: float, axis: int,
                  pad: float = 8.0) -> tuple[float, float]:
    """Interval covering both packets along one axis (0 = x1, 1 = x2)."""
    return _hull(frames(spec, t1, t2), axis, pad)


def _hull(packets, axis: int, pad: float = 8.0) -> tuple[float, float]:
    """Interval covering the (centre, covariance) packets along one axis."""
    lo, hi = math.inf, -math.inf
    for centre, cov in packets:
        s = math.sqrt(cov[axis, axis])
        lo = min(lo, centre[axis] - pad * s)
        hi = max(hi, centre[axis] + pad * s)
    return lo, hi


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
        x2 = np.linspace(*_support_hull(spec, t1, t2, axis=1), n_quad)
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

def fit_sinusoid(t: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Dominant oscillation of a short series by least squares.

    The model is a quadratic baseline plus one sinusoid; a zero-padded
    periodogram seeds the frequency and a golden-section search on the
    least-squares residual refines it. The baseline's QR is taken once: at
    each trial frequency cos and sin are projected off it, and the residual
    of the series, projected likewise, is fitted by their 2 x 2 normal
    equations. Returns (omega, relative residual).
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

    lo = w_seed * 0.8
    hi = w_seed * 1.25
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - phi * (b - a), a + phi * (b - a)
    fc, fd = sse(c), sse(d)
    for _ in range(90):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = sse(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = sse(d)
    w_best = 0.5 * (a + b)
    rel = math.sqrt(sse(w_best) / max(float(y @ y), 1e-300))
    return w_best, rel


def doppler_beat(state: ConditionalMirrorState, x2: float, t2_axis) -> float:
    """Beat frequency of the conditional mirror PDF at a fixed position.

    The series pdf(x2, t2) is normalised by the incoherent branch sum
    |F_in|^2 + |F_ref|^2 before fitting, which removes the envelope transit
    gate (a fixed detector only sees the packet for a finite passage time)
    without shifting the oscillation. The result is half the fitted
    intensity angular frequency, i.e. the phase-advance rate of the
    interference term, matching the closed-form plane-wave expression.
    """
    t2 = np.asarray(t2_axis, dtype=float)
    state._check_time(t2.min())
    spec, ev = state.spec, state.event
    # log-space evaluation: the envelope factors underflow once the packet
    # has moved past the detector, but the normalised contrast survives
    log_in, log_ref = (_branch(spec, r, ev.t10, t2).log_amplitude(spec, ev.x10, x2)[0]
                       for r in (False, True))
    ref_level = np.maximum(log_in.real, log_ref.real)
    a = np.exp(log_in - ref_level)
    b = np.exp(log_ref - ref_level)
    y = np.abs(a - b) ** 2 / (np.abs(a) ** 2 + np.abs(b) ** 2)
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

    Infinite for a non-translating mirror packet. Below ~3 the beat is not
    extractable from a fixed-position time series and the pattern-drift
    estimator applies instead.
    """
    profiles = state.branch_profiles(t2)
    width = 2.0 * max(s for _, s, _ in profiles)
    v_env = abs(state.spec.params.V)
    if v_env == 0.0:
        return math.inf
    return (width / v_env) * state.spec.beat0 / math.pi


def pattern_drift_beat(state: ConditionalMirrorState, t2_axis,
                       fringe_spacing_measured: float) -> float:
    """Beat frequency as fringe-crossing rate: pattern speed times the
    measured fringe wavevector.

    For a mirror packet narrower than a fringe the interference pattern
    rides the envelope, so a fixed detector sees at most a sliver of a beat
    during the transit. The pattern still sweeps fixed space at the beat
    rate; its drift velocity comes from the conditional centroid track and
    the fringe wavevector from the measured particle-side fringe spacing.
    """
    if not fringe_spacing_measured > 0.0:
        raise ValueError("pattern-drift beat needs a measured fringe spacing; got "
                         f"{fringe_spacing_measured:g}, fewer than two fringe peaks")
    t2 = np.asarray(t2_axis, dtype=float)
    centroids = []
    for t in t2:
        x2, pdf = state._sampled(float(t), 2001)
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


def _curve_std(curve: Curve) -> float:
    w = curve.y / curve.y.sum()
    mean = float(w @ curve.x)
    return math.sqrt(float(w @ (curve.x - mean) ** 2))


def _measured_widths(spec: WavegroupSpec, t: float):
    """Standard deviations of the two synchronous marginals at t, each sampled
    on the hull of the packets whose centre lies on the physical side
    x1 <= x2, or of both when both do: a packet centred behind the wall is
    virtual, and its stretch of the hull holds only zeros. The hull reaches
    10 sigma past each centre; at 8 sigma the tails cut off would take 8e-14
    of a Gaussian's variance."""
    packets = frames(spec, t, t)
    packets = [(c, cov) for c, cov in packets if c[0] <= c[1]] or packets
    x1, x2 = (np.linspace(*_hull(packets, axis, pad=10.0), 4097) for axis in (0, 1))
    return (_curve_std(marginal_over_mirror(spec, x1, t, t)),
            _curve_std(marginal_over_particle(spec, x2, t, t)))


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

    Incoming widths are standard deviations of the synchronous marginals at
    pre_t, which should sit in the incident era near the reference time
    (the packet waists). Outgoing widths sample the marginals at post_t and
    slightly later and invert the free-spreading variance law, undoing the
    dispersion accumulated on the way out. Emits
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
