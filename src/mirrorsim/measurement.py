"""Collapse-conditioned one-body mirror states and sequential probabilities.

A pointlike particle detection at (x10, t10) freezes the particle
coordinates of the two-body wavegroup; the mirror coordinate pair
(x2, t2) keeps evolving in the same closed form. The conditional state is
deliberately left unnormalised: it is a slice of the two-body amplitude,
and the sequential-measurement probability is the product of the two
one-body probabilities built from it. Norms and probabilities are exact
integrals of the slice over half lines of x2
(:func:`~.wavegroup._closed_trace`), never sums over a grid.

The detection resolution dx1 enters only as a multiplicative factor; all
shape information comes from the slice itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .harmonic import _TWO_PI, SpacetimePoint, fringe_period
from .wavegroup import (WavegroupSpec, _axis_square, _branch, _closed_trace,
                        _log_gauss2, amplitude_parts, joint_pdf)


class UnresolvedSplittingError(RuntimeError):
    """The two conditional mirror modes cannot be separated at the sampled times."""


@dataclass(frozen=True)
class MeasurementEvent:
    """A pointlike particle detection at position x10, time t10, resolution dx1."""

    x10: float
    t10: float
    dx1: float = 1e-3

    def __post_init__(self):
        if not self.dx1 > 0:
            raise ValueError("detector resolution must be positive")


@dataclass(frozen=True)
class ConditionalMirrorState:
    """Mirror wavefunction conditioned on a particle detection.

    Evaluation is defined for t2 >= t10 only; the collapse is not applied
    retrodictively.
    """

    spec: WavegroupSpec
    event: MeasurementEvent

    def _check_time(self, t2):
        if np.any(np.asarray(t2) < self.event.t10):
            raise ValueError("conditional state is defined for t2 >= t10 only")

    def pdf(self, x2, t2, apply_step: bool = True):
        self._check_time(t2)
        return joint_pdf(self.spec, self.event.x10, self.event.t10, x2, t2,
                         apply_step=apply_step)

    def branch_profiles(self, t2: float):
        """Per-branch (centre, intensity sigma, weight) of the conditional PDF.

        The incident branch is the mirror substate that has not reflected the
        particle, the reflected branch the one that has. With x1 frozen at
        x10, each branch's b is affine in x2 along w = E^T e2, so completing
        the square in x2 (:func:`~.wavegroup._axis_square`) gives its centre
        and sigma. Weights are the |amplitude| values at the branch centres.
        """
        self._check_time(t2)
        spec, ev = self.spec, self.event
        out = []
        for reflected in (False, True):
            br = _branch(spec, reflected, ev.t10 - spec.t0, t2 - spec.t0)
            centre, kappa = _axis_square(br, 1, ev.x10)
            centre = float(centre)
            log_g, _, _ = _log_gauss2(*br.A, *br.b(ev.x10, centre))
            weight = spec.norm_const / _TWO_PI * math.exp(log_g.real)
            out.append((centre, 1.0 / math.sqrt(2.0 * kappa.real), weight))
        return out

    def support(self, t2: float, pad: float = 10.0) -> tuple[float, float]:
        """Interval containing both conditional branches out to ``pad`` sigmas."""
        profiles = self.branch_profiles(t2)
        wmax = max(w for _, _, w in profiles)
        lo, hi = math.inf, -math.inf
        for c, s, w in profiles:
            if w < 1e-12 * wmax:
                continue
            lo = min(lo, c - pad * s)
            hi = max(hi, c + pad * s)
        return lo, hi

    def _sampled(self, t2: float, n: int):
        """(x2, pdf) at n points of [max(lo, x10), hi], the physical support at t2."""
        lo, hi = self.support(t2)
        x2 = np.linspace(max(lo, self.event.x10), hi, n)
        return x2, self.pdf(x2, t2)

    def _trace(self, t2: float, start=None) -> np.ndarray:
        """Integrals of the conditional PDF at t2 over x2 >= start (default: the
        wall), by the same array call as the particle marginal at x10."""
        self._check_time(t2)
        ev = self.event
        return _closed_trace(self.spec, np.array([ev.x10]), ev.t10, t2, axis=1,
                             start=start)

    def norm(self, t2: float) -> float:
        """Total conditional probability integrated over the whole mirror axis.

        The exact integral of the smooth (untruncated) closed form, for which
        the mirror-coordinate evolution is exactly unitary; this is the
        quantity whose t2-invariance the conservation checks assert.
        """
        return float(self._trace(t2, -math.inf)[0])


def collapse(spec: WavegroupSpec, event: MeasurementEvent) -> ConditionalMirrorState:
    """Condition the two-body state on a particle detection."""
    if event.t10 < spec.t0:
        raise ValueError("detection precedes the wavegroup reference time")
    return ConditionalMirrorState(spec=spec, event=event)


@dataclass(frozen=True)
class SequentialProbability:
    """Pr_I * Pr_II of measuring the particle first and the mirror later."""

    value: float
    pr_one: float
    pr_two: float


def sequential_probability(spec: WavegroupSpec, event: MeasurementEvent,
                           x2_window: tuple[float, float],
                           t2: float) -> SequentialProbability:
    """Product of the two one-body probabilities of the sequential measurement.

    Pr_I = dx1 * the particle marginal at x10, a first-order probability:
    a dx1 that makes it exceed 1 raises ValueError. Pr_II = dx1 * H(a') -
    dx1 * H(b') at the later time t2, with H(s) the exact integral over
    x2 >= s and a', b' the ``x2_window`` ends raised to the wall x10. The
    ends are used as given, so adjacent windows add to their union.
    """
    wlo, whi = x2_window
    if not whi > wlo:
        raise ValueError("empty mirror window")
    state = collapse(spec, event)
    pr_one = event.dx1 * float(state._trace(event.t10)[0])
    if pr_one > 1.0:
        raise ValueError(f"Pr_I = {pr_one:.3g} > 1: detector resolution "
                         f"dx1 = {event.dx1:g} is too coarse for first order")
    h = state._trace(t2, np.maximum([wlo, whi], event.x10))
    pr_two = event.dx1 * float(h[0] - h[1])
    return SequentialProbability(value=pr_one * pr_two, pr_one=pr_one, pr_two=pr_two)


def classify_regime(spec: WavegroupSpec, event: MeasurementEvent) -> str:
    """"A" or "B": was the particle measured outside or inside the overlap.

    The decision point is the mode x2* of the conditional mirror PDF at the
    detection time; the event is regime B when the incident and reflected
    amplitudes there are within three decades of each other.
    """
    state = collapse(spec, event)
    x2, pdf = state._sampled(event.t10, 4097)
    x2_star = float(x2[int(np.argmax(pdf))])
    i_in, i_ref = amplitude_parts(
        spec, SpacetimePoint(event.x10, event.t10, x2_star, event.t10))
    lo_amp, hi_amp = sorted([abs(complex(i_in)), abs(complex(i_ref))])
    return "B" if hi_amp > 0 and lo_amp > 1e-3 * hi_amp else "A"


def _smoothed_modes(x: np.ndarray, y: np.ndarray, window: int,
                    min_height: float, min_sep: float) -> list[float]:
    """Locations of local maxima of the moving-average of y, refined
    by quadratic interpolation and pruned to a minimum separation."""
    window = min(window, len(y) // 8 + 1)  # sub-fringe supports need no smoothing
    if window > 1:
        kernel = np.ones(window) / window
        y = np.convolve(y, kernel, mode="same")
    peaks = []
    dy = np.diff(y)
    idx = np.where((dy[:-1] > 0) & (dy[1:] <= 0))[0] + 1
    top = y.max()
    for i in idx:
        if y[i] < min_height * top:
            continue
        denom = y[i - 1] - 2 * y[i] + y[i + 1]
        shift = 0.0 if denom == 0 else 0.5 * (y[i - 1] - y[i + 1]) / denom
        peaks.append((float(x[i] + shift * (x[1] - x[0])), float(y[i])))
    peaks.sort(key=lambda p: -p[1])
    kept: list[tuple[float, float]] = []
    for pos, h in peaks:
        if all(abs(pos - q) >= min_sep for q, _ in kept):
            kept.append((pos, h))
    return sorted(p for p, _ in kept)


def split_centroid_velocities(state: ConditionalMirrorState,
                              t2_samples) -> tuple[float, float]:
    """Velocities of the two conditional mirror modes from linear mode tracking.

    The PDF at each sample time is low-pass filtered over one fringe period,
    its two dominant modes are located, and straight lines are fitted to the
    tracks. Raises :class:`UnresolvedSplittingError` when fewer than two
    modes are resolvable at three or more of the sampled times.
    """
    fringe = fringe_period(state.spec.params)
    slow_track, fast_track, times = [], [], []
    for t2 in np.atleast_1d(np.asarray(t2_samples, dtype=float)):
        x2, pdf = state._sampled(t2, 8193)
        dx = x2[1] - x2[0]
        window = max(1, int(round(fringe / dx)))
        sigma_min = min(s for _, s, _ in state.branch_profiles(t2))
        modes = _smoothed_modes(x2, pdf, window, min_height=0.1,
                                min_sep=max(2 * fringe, sigma_min))
        if len(modes) >= 2:
            slow_track.append(modes[0])
            fast_track.append(modes[-1])
            times.append(float(t2))
    if len(times) < 3:
        raise UnresolvedSplittingError(
            "mirror mode separation stayed below the wavegroup width; "
            f"two modes resolved at {len(times)} of "
            f"{np.size(t2_samples)} sampled times")
    v_slow = float(np.polyfit(times, slow_track, 1)[0])
    v_fast = float(np.polyfit(times, fast_track, 1)[0])
    return tuple(sorted((v_slow, v_fast)))  # type: ignore[return-value]
