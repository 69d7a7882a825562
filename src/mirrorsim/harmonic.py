"""Two-time plane-wave (energy eigenstate) solutions and their interference.

The incident state is an uncorrelated product of particle and mirror plane
waves. The reflected state is the same pair after the elastic collision:
the particle wavevector loses the recoil 2 k_rel and the mirror's gains it,
(k_ref, K_ref) = (k - 2 k_rel, K + 2 k_rel) with k_rel from
:class:`~.kinematics.PhysicalParams`. Each subsystem's kinetic energy
multiplies its own time label, so that the pair (x1, t1) carries only
particle parameters and (x2, t2) only mirror parameters. Total energy and
momentum are unchanged by reflection, which is what makes the
superposition vanish on the contact line x1 = x2 at equal times; the
interference phase is k_rel (x2 - x1) + beat (t1 - t2).

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


@dataclass(frozen=True)
class HarmonicMode:
    """One incident (k, K) plane-wave pair plus its reflected counterpart."""

    params: PhysicalParams
    k: float
    K: float
    k_ref: float
    K_ref: float

    @classmethod
    def from_params(cls, p: PhysicalParams) -> "HarmonicMode":
        recoil = 2.0 * p.k_rel
        return cls(params=p, k=p.k, K=p.K, k_ref=p.k - recoil, K_ref=p.K + recoil)

    @property
    def omega1(self) -> float:
        """Incident particle angular frequency hbar k^2 / 2m."""
        return self.params.hbar * self.k**2 / (2.0 * self.params.m)

    @property
    def omega2(self) -> float:
        return self.params.hbar * self.K**2 / (2.0 * self.params.M)

    @property
    def omega1_ref(self) -> float:
        return self.params.hbar * self.k_ref**2 / (2.0 * self.params.m)

    @property
    def omega2_ref(self) -> float:
        return self.params.hbar * self.K_ref**2 / (2.0 * self.params.M)


def _unit_phase(phase):
    """exp(i*phase) with the argument reduced mod 2*pi first."""
    return np.exp(1j * np.remainder(phase, _TWO_PI))


def incident_amplitude(mode: HarmonicMode, pt: SpacetimePoint):
    """Uncorrelated incident plane wave exp[i(k x1 - w1 t1 + K x2 - w2 t2)]."""
    phase = mode.k * pt.x1 - mode.omega1 * pt.t1 + mode.K * pt.x2 - mode.omega2 * pt.t2
    return _unit_phase(phase)


def reflected_amplitude(mode: HarmonicMode, pt: SpacetimePoint):
    """Reflected plane wave with Doppler-shifted wavevectors and energies."""
    phase = (
        mode.k_ref * pt.x1
        - mode.omega1_ref * pt.t1
        + mode.K_ref * pt.x2
        - mode.omega2_ref * pt.t2
    )
    return _unit_phase(phase)


def eigenstate_amplitude(mode: HarmonicMode, pt: SpacetimePoint):
    """(incident - reflected) on the physical domain x1 <= x2, zero beyond it."""
    amp = incident_amplitude(mode, pt) - reflected_amplitude(mode, pt)
    return np.where(np.asarray(pt.x1) <= np.asarray(pt.x2), amp, 0.0 + 0.0j)


def interference_pdf(mode: HarmonicMode, pt: SpacetimePoint):
    """Closed-form |incident - reflected|^2 on x1 <= x2.

    Equals 4 sin^2[k_rel (x2 - x1) + beat (t1 - t2)]; the argument is
    reduced modulo pi (the period of sin^2) before evaluation.
    """
    p = mode.params
    arg = (p.k_rel * (np.asarray(pt.x2) - np.asarray(pt.x1))
           + beat_frequency(p) * (np.asarray(pt.t1) - np.asarray(pt.t2)))
    val = 4.0 * np.sin(np.remainder(arg, math.pi)) ** 2
    return np.where(np.asarray(pt.x1) <= np.asarray(pt.x2), val, 0.0)


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
    """Beat frequency k_rel (mv + MV)/(m + M) of the two-time PDF: the
    relative wavevector times the centre-of-mass velocity.

    This is the advance rate of the interference phase (the sin^2 argument)
    per unit measurement-time offset; the PDF intensity completes one full
    oscillation when that phase advances by pi.
    """
    return p.k_rel * (p.m * p.v + p.M * p.V) / (p.m + p.M)
