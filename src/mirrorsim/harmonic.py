"""Two-time plane-wave (energy eigenstate) solutions and their interference.

The incident state is an uncorrelated product of particle and mirror plane
waves, with phase :func:`incident_phase`. Each subsystem's kinetic energy
multiplies its own time label, so that the pair (x1, t1) carries only
particle parameters and (x2, t2) only mirror parameters. The reflected state
is the same pair after the elastic collision, which moves the recoil 2 k_rel
(:class:`~.kinematics.PhysicalParams`) from particle to mirror: reflected =
incident x exp(i Delta), with the recoil phase :func:`interference_phase`
Delta = 2 k_rel (x2 - x1) + 2 beat (t1 - t2). Total energy and momentum are
unchanged by reflection, which is why Delta, and with it the superposition,
vanishes on the contact line x1 = x2 at equal times. Only Delta enters
densities and currents, and it is never a difference of the large incident
phases, so the pattern stays exact where k x1 + K x2 exceeds 1/eps.

A plane-wave pair is its :class:`~.kinematics.PhysicalParams` ``p``, which
the amplitude, phase, fringe and beat functions take: the incident wavevectors
are (p.k, p.K) and the reflected ones (k - 2 k_rel, K + 2 k_rel), which the
amplitudes never form.

Phases are reduced modulo 2*pi before exponentiation; SI-scale wavevectors
times metre-scale positions would otherwise exhaust double-precision trig
accuracy.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .kinematics import ApproximationWarning, PhysicalParams

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class SpacetimePoint:
    """Positions and measurement times of the particle (x1, t1) and mirror (x2, t2).

    Fields may be floats or broadcastable numpy arrays.
    """

    x1: float
    t1: float
    x2: float
    t2: float


def incident_phase(p: PhysicalParams, x1, t1, x2, t2):
    """Incident phase k x1 + K x2 - w1 t1 - w2 t2, w = hbar k^2 / 2m per body."""
    w1, w2 = p.hbar * p.k**2 / (2 * p.m), p.hbar * p.K**2 / (2 * p.M)
    return p.k * x1 + p.K * x2 - w1 * t1 - w2 * t2


def interference_phase(p: PhysicalParams, x1, t1, x2, t2):
    """Recoil phase Delta = 2 k_rel (x2 - x1) + 2 beat (t1 - t2), the reflected
    minus the incident phase."""
    return 2.0 * p.k_rel * (x2 - x1) + 2.0 * beat_frequency(p) * (t1 - t2)


def _unit_phase(phase):
    """exp(i*phase) with the argument reduced mod 2*pi first."""
    return np.exp(1j * np.remainder(phase, _TWO_PI))


def incident_amplitude(p: PhysicalParams, pt: SpacetimePoint):
    """Uncorrelated incident plane wave exp[i(k x1 + K x2 - w1 t1 - w2 t2)]."""
    return _unit_phase(incident_phase(p, pt.x1, pt.t1, pt.x2, pt.t2))


def reflected_amplitude(p: PhysicalParams, pt: SpacetimePoint):
    """Reflected plane wave: the incident one times the recoil phase exp(i Delta)."""
    delta = interference_phase(p, pt.x1, pt.t1, pt.x2, pt.t2)
    return incident_amplitude(p, pt) * _unit_phase(delta)


def eigenstate_amplitude(p: PhysicalParams, pt: SpacetimePoint):
    """(incident - reflected) on the physical domain x1 <= x2, zero beyond it."""
    amp = incident_amplitude(p, pt) - reflected_amplitude(p, pt)
    return np.where(np.asarray(pt.x1) <= np.asarray(pt.x2), amp, 0.0 + 0.0j)


def interference_pdf(p: PhysicalParams, pt: SpacetimePoint):
    """Closed-form |incident - reflected|^2 = 4 sin^2(Delta / 2) on x1 <= x2.

    The argument Delta / 2 = k_rel (x2 - x1) + beat (t1 - t2) is reduced
    modulo pi (the period of sin^2) before evaluation.
    """
    x1, x2 = np.asarray(pt.x1), np.asarray(pt.x2)
    arg = 0.5 * interference_phase(p, x1, pt.t1, x2, pt.t2)
    val = 4.0 * np.sin(np.remainder(arg, math.pi)) ** 2
    return np.where(x1 <= x2, val, 0.0)


def fringe_spacing(p: PhysicalParams) -> float:
    """Peak-to-peak fringe spacing pi*hbar/(m(v-V)), valid for m/M << 1.

    At V = 0 this is half the particle de Broglie wavelength. Outside the
    m/M < 0.05 regime the formula value is still returned but an
    ApproximationWarning is emitted; the exact spacing is pi/k_rel.
    """
    if p.m / p.M >= 0.05:
        warnings.warn(
            "fringe spacing approximation degrades for m/M >= 0.05",
            ApproximationWarning,
            stacklevel=2,
        )
    return math.pi * p.hbar / (p.m * (p.v - p.V))


def fringe_period(p: PhysicalParams) -> float:
    """Exact fringe period pi/k_rel of the standing interference structure."""
    return math.pi / p.k_rel


def beat_frequency(p: PhysicalParams) -> float:
    """Beat frequency k_rel v_cm of the two-time PDF: the relative
    wavevector times the centre-of-mass velocity v_cm = (mv + MV)/(m + M),
    at which the plane-wave pattern drifts.

    This is the advance rate of the interference phase (the sin^2 argument)
    per unit measurement-time offset; the PDF intensity completes one full
    oscillation when that phase advances by pi.
    """
    return p.k_rel * (p.m * p.v + p.M * p.V) / (p.m + p.M)
