"""Collapse-conditioned one-body mirror states and sequential probabilities.

A pointlike particle detection at (x10, t10) freezes the particle
coordinates of the two-body wavegroup; the mirror coordinate pair
(x2, t2) keeps evolving in the same closed form. The conditional state is
deliberately left unnormalised: it is a slice of the two-body amplitude,
and the sequential-measurement probability is the product of the two
one-body probabilities built from it. Norms and probabilities are exact
integrals of the slice over half lines of x2
(:func:`~.wavegroup._closed_trace`), never sums over a grid.

At each mirror time the state reads everything from the density
(:class:`~.wavegroup._Density`), the one reader of both branches: branch
profiles, supports and the PDF. It keeps the density of the last t2 asked
for in a one-entry memo, so a support and a PDF at one t2 build each branch
once; the memo lives and dies with the state. A detection's regime compares
both branches' log-moduli from its density at t10 (:func:`classify_regime`).

The detection resolution dx1 enters only as a multiplicative factor; all
shape information comes from the slice itself.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .harmonic import fringe_period
from .kinematics import _enforce, _known
from .wavegroup import (WavegroupSpec, _check_range, _closed_trace, _Density, _density_form,
                        _smooth_pdf, _span)

_LOG_FLOAT_MAX = math.log(sys.float_info.max)  # where math.exp overflows


class UnresolvedSplittingError(RuntimeError):
    """The two conditional mirror modes cannot be separated at the sampled times."""


@dataclass(frozen=True)
class MeasurementEvent:
    """A pointlike particle detection at position x10, time t10, resolution dx1."""

    x10: float
    t10: float
    dx1: float = 1e-3

    def __post_init__(self):
        _enforce(self, "x10", "t10", "dx1")

    @staticmethod
    def _rules(**given) -> list[tuple[str, str]]:
        return _known(given, "x10", "t10", "dx1", positive=("dx1",))[0]


@dataclass(frozen=True)
class ConditionalMirrorState:
    """Mirror wavefunction conditioned on a particle detection.

    Evaluation is defined for t2 >= t10 only; the collapse is not applied
    retrodictively.
    """

    spec: WavegroupSpec
    event: MeasurementEvent
    _last: tuple[float, _Density] | None = field(default=None, init=False, repr=False,
                                                 compare=False)

    def _check_time(self, t2: float):
        if t2 < self.event.t10:
            raise ValueError("conditional state is defined for t2 >= t10 only")

    def _at(self, t2: float) -> _Density:
        """The density at t2, from the one-entry memo when t2 was the last time
        asked for; a time that is not finite is named and not kept."""
        self._check_time(t2)
        ev = self.event
        _check_range(math.isfinite(t2), "conditional state", t10=ev.t10, t2=t2)
        if self._last is None or self._last[0] != t2:
            # in Python floats: a numpy scalar t2 gives the same values, more slowly
            object.__setattr__(self, "_last", (t2, _density_form(self.spec, ev.t10, float(t2))))
        return self._last[1]

    def pdf(self, x2, t2: float, apply_step: bool = True):
        """The conditional PDF at x2, bitwise :func:`~.wavegroup.joint_pdf` at
        (x10, t10, x2, t2), from the same evaluator."""
        x10 = self.event.x10
        val = _smooth_pdf(self._at(t2), x10, x2)
        if not apply_step:
            return val
        return np.where(np.less_equal(x10, x2), val, 0.0)

    def branch_profiles(self, t2: float):
        """Per-branch (centre, intensity sigma, weight) of the conditional PDF.

        The incident branch is the mirror substate that has not reflected the
        particle, the reflected branch the one that has. Each is read off the
        density at t2, the one reader of both branches, kept in the state's
        one-entry memo: along x2 at x10 a branch's log-modulus is a quadratic
        with curvature Re(kappa) (:meth:`~.wavegroup._Density.kappa`), so
        sigma is 1 / sqrt(2 Re(kappa)), and the centre and the weight,
        |amplitude| at the centre, are its peak
        (:meth:`~.wavegroup._Density.peaks`) in the density's exact offsets.
        """
        ev = self.event
        density = self._at(t2)
        a_in, a_ref = (k.real for k in density.kappa(1))
        _check_range(a_in > 0.0 and a_ref > 0.0, "conditional state", t10=ev.t10, t2=t2)
        (s_in, log_in), (s_ref, log_ref) = density.peaks(1, ev.x10)
        _check_range(log_in < 2.0 * _LOG_FLOAT_MAX and log_ref < 2.0 * _LOG_FLOAT_MAX,
                     "conditional state", t10=ev.t10, t2=t2)
        centre = density.centre(1)
        return [(centre + s, 1.0 / math.sqrt(2.0 * a), math.exp(0.5 * log))
                for s, a, log in ((s_in, a_in, log_in), (s_ref, a_ref, log_ref))]

    def _kept_profiles(self, t2: float, profiles=None):
        """The branch profiles at t2, or ``profiles`` read there, without those
        below 1e-12 of the strongest."""
        profiles = self.branch_profiles(t2) if profiles is None else profiles
        wmax = max(w for _, _, w in profiles)
        return [prof for prof in profiles if prof[2] >= 1e-12 * wmax]

    def support(self, t2: float, pad: float = 10.0) -> tuple[float, float]:
        """Interval containing the kept conditional branches out to ``pad`` sigmas."""
        return _span(((c, s) for c, s, _ in self._kept_profiles(t2)), pad)

    def _wall_support(self, t2: float, pad: float = 10.0,
                      profiles=None) -> tuple[float, float]:
        """The physical support [max(lo, x10), hi] at t2 out to ``pad`` sigmas,
        of the branch profiles there or of ``profiles`` read there; ValueError
        when x10 is at or past hi, where it has probability 0."""
        lo, hi = _span(((c, s) for c, s, _ in self._kept_profiles(t2, profiles)), pad)
        ev = self.event
        if ev.x10 >= hi:
            raise ValueError(f"detection at x10={ev.x10:g}, t10={ev.t10:g} lies past "
                             f"the conditional support (up to {hi:g} at t2={t2:g}): "
                             "probability 0")
        return max(lo, ev.x10), hi

    def _sampled(self, t2: float, n: int, pad: float = 10.0):
        """(x2, pdf) at n points of the physical support at t2 (``_wall_support``)."""
        x2 = np.linspace(*self._wall_support(t2, pad), n)
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

    The decision point x2* is the peak of the heavier conditional branch at
    the detection time (:meth:`ConditionalMirrorState.branch_profiles`),
    clipped into the physical support, which one read of those profiles
    also gives (``_wall_support``); the event is regime B when the
    incident and reflected moduli at (x10, x2*), read from the density there
    (:meth:`~.wavegroup._Density.logs`), are within three decades of each
    other.
    """
    state = collapse(spec, event)
    profiles = state.branch_profiles(event.t10)
    x2_star = max(profiles, key=lambda prof: prof[2])[0]
    lo, hi = state._wall_support(event.t10, profiles=profiles)
    log_in, log_ref, *_ = state._at(event.t10).logs(event.x10, min(max(x2_star, lo), hi))
    return "B" if abs(log_in - log_ref) < math.log(1e3) else "A"


def _extrema(x: np.ndarray, y: np.ndarray):
    """(i, pos, height) arrays of the interior local maxima (rise in, no rise
    out) and of the minima of y on the uniform axis x: sample indices, and
    the vertex of the parabola through each sample and its two neighbours,
    or the sample itself on a flat triple."""
    dy = np.diff(y)

    def refined(i):
        left, mid, right = y[i - 1], y[i], y[i + 1]
        denom = left - 2 * mid + right
        flat = denom == 0
        shift = np.where(flat, 0.0, 0.5 * (left - right) / np.where(flat, 1.0, denom))
        return i, x[i] + shift * (x[1] - x[0]), mid - 0.25 * (left - right) * shift

    return (refined(np.flatnonzero((dy[:-1] > 0) & (dy[1:] <= 0)) + 1),
            refined(np.flatnonzero((dy[:-1] < 0) & (dy[1:] >= 0)) + 1))


def _running_mean(y: np.ndarray, w: int) -> np.ndarray:
    """Mean of y over a window of w samples at each sample, zero beyond the
    ends, centred like np.convolve(y, np.ones(w) / w, "same"): the window
    at i spans i - w // 2 to i + (w - 1) // 2. One cumulative sum of the
    zero-padded series gives every window's sum as a difference of two
    prefix sums, in O(n) for any w. What each addition of the sum rounded
    away is recovered exactly (two-sum) and summed alongside, so the
    differences keep the accuracy of a direct sum, to a few ulp of max |y|,
    however large the prefix sums grow."""
    h = (w - 1) // 2
    pad = np.zeros(len(y) + w)
    pad[w - h:w - h + len(y)] = y
    c = np.cumsum(pad)
    step = c[1:] - c[:-1]
    lost = np.zeros_like(c)
    np.cumsum((c[:-1] - (c[1:] - step)) + (pad[1:] - step), out=lost[1:])
    return ((c[w:] - c[:-w]) + (lost[w:] - lost[:-w])) / w


def _smoothed_modes(x: np.ndarray, y: np.ndarray, window: int,
                    min_sep: float) -> list[float]:
    """Locations of local maxima of the moving average of y over ``window``
    samples (:func:`_running_mean`, O(n) in the window) that reach a tenth
    of its maximum, refined by quadratic interpolation and pruned to a
    minimum separation."""
    window = min(window, len(y) // 8 + 1)  # sub-fringe supports need no smoothing
    if window > 1:
        y = _running_mean(y, window)
    (i, pos, _), _ = _extrema(x, y)
    high = y[i] >= 0.1 * y.max()
    pos, height = pos[high], y[i][high]
    kept: list[float] = []
    # the highest samples claim their neighbourhoods first
    for p in pos[np.argsort(-height, kind="stable")]:
        if all(abs(p - q) >= min_sep for q in kept):
            kept.append(float(p))
    return sorted(kept)


def split_centroid_velocities(state: ConditionalMirrorState,
                              t2_samples) -> tuple[float, float]:
    """Velocities of the two conditional mirror modes from linear mode tracking.

    The PDF at each sample time is low-pass filtered over one fringe period,
    its two dominant modes are located, and straight lines are fitted to the
    tracks. A time counts only when each of the two modes lies within one
    sigma of the centre of a different branch
    (:meth:`ConditionalMirrorState.branch_profiles`): modes that are not the
    two substates have no substate velocity. Raises
    :class:`UnresolvedSplittingError` when fewer than three sampled times
    count.
    """
    fringe = fringe_period(state.spec.params)
    slow_track, fast_track, times = [], [], []
    two_modes = 0
    for t2 in np.atleast_1d(np.asarray(t2_samples, dtype=float)):
        x2, pdf = state._sampled(t2, 8193)
        dx = x2[1] - x2[0]
        window = max(1, int(round(fringe / dx)))
        profiles = state.branch_profiles(t2)
        sigma_min = min(s for _, s, _ in profiles)
        modes = _smoothed_modes(x2, pdf, window, min_sep=max(2 * fringe, sigma_min))
        if len(modes) < 2:
            continue
        two_modes += 1
        near = [[abs(x - c) <= s for c, s, _ in profiles] for x in (modes[0], modes[-1])]
        if (near[0][0] and near[1][1]) or (near[0][1] and near[1][0]):
            slow_track.append(modes[0])
            fast_track.append(modes[-1])
            times.append(float(t2))
    if len(times) < 3 <= two_modes:
        raise UnresolvedSplittingError(
            "the two tracked mirror modes are not the two substates: they lie "
            f"within one sigma of different branches at {len(times)} of the "
            f"{two_modes} sampled times with two modes")
    if len(times) < 3:
        raise UnresolvedSplittingError(
            "mirror mode separation stayed below the wavegroup width; "
            f"two modes resolved at {two_modes} of "
            f"{np.size(t2_samples)} sampled times")
    v_slow = float(np.polyfit(times, slow_track, 1)[0])
    v_fast = float(np.polyfit(times, fast_track, 1)[0])
    return tuple(sorted((v_slow, v_fast)))  # type: ignore[return-value]
