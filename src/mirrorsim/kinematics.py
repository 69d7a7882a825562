"""Units, constants and elastic-collision kinematics shared by every other module.

Two unit systems are supported: SI (CODATA constants) and "natural" units
with hbar = m = 1, which is what the dimensionless scenario presets use.
All functions are unit-system agnostic given consistent inputs.

The elastic collision is stated once, on :class:`PhysicalParams`, as a
recoil of 2 hbar k_rel from particle to mirror. Every reflected wavevector,
velocity, fringe and beat derives from k_rel, never from a difference of the
large incident momenta, so the exchange survives below one ulp of them.

The mirror is treated as a perfectly reflecting hard wall (the infinite
reflectivity limit of a delta-function barrier); finite reflectivity is
out of scope and never appears as a runtime parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

SI_H = 6.62607015e-34        # Planck constant, J s (exact)
SI_HBAR = SI_H / (2.0 * math.pi)
SI_KB = 1.380649e-23         # Boltzmann constant, J/K (exact)


class ApproximationWarning(UserWarning):
    """A closed-form approximation was evaluated outside its stated regime."""


def _require_finite(obj, *names: str):
    """ValueError naming the first of the fields ``names`` of ``obj`` that is
    not a finite number. An inf or a NaN input would otherwise surface later,
    as a NaN, an all-zero result or an error that blames another input."""
    for name in names:
        value = getattr(obj, name)
        if not math.isfinite(value):
            raise ValueError(f"{type(obj).__name__}.{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class PhysicalParams:
    """Masses, initial velocities and constants of one particle-mirror system.

    ``v`` is the particle velocity and ``V`` the mirror velocity; reflection
    requires v > V (the particle must catch up with the mirror).
    """

    m: float
    M: float
    v: float
    V: float
    hbar: float = SI_HBAR
    kB: float = SI_KB

    def __post_init__(self):
        _require_finite(self, "m", "M", "v", "V", "hbar", "kB")
        if not (self.m > 0 and self.M > 0):
            raise ValueError("masses must be positive")
        if not (self.hbar > 0 and self.kB > 0):
            raise ValueError("constants must be positive")
        if not self.v > self.V:
            raise ValueError("no reflection: particle velocity must exceed mirror velocity")

    @classmethod
    def natural(cls, M: float, v: float, V: float, m: float = 1.0) -> "PhysicalParams":
        """Parameters in natural units (hbar = kB = 1)."""
        return cls(m=m, M=M, v=v, V=V, hbar=1.0, kB=1.0)

    @property
    def k(self) -> float:
        """Incident particle wavevector m*v/hbar."""
        return self.m * self.v / self.hbar

    @property
    def K(self) -> float:
        """Incident mirror wavevector M*V/hbar."""
        return self.M * self.V / self.hbar

    @property
    def k_rel(self) -> float:
        """Relative wavevector mM(v - V) / (hbar (m + M)); the collision moves
        2 hbar k_rel of momentum from the particle to the mirror."""
        return self.m * self.M * (self.v - self.V) / (self.hbar * (self.m + self.M))

    @property
    def collision_matrix(self) -> tuple[tuple[float, float], tuple[float, float]]:
        """((a11, a12), (a21, a22)), mapping (k, K) to (k, K) + 2 k_rel(k, K) (-1, 1),
        in recoil form: a12 = 2m/(m + M), a11 = a12 - 1, a21 = 2 - a12, a22 = 1 - a12."""
        a12 = 2.0 * self.m / (self.m + self.M)
        return (a12 - 1.0, a12), (2.0 - a12, 1.0 - a12)


def elastic_final_velocities(p: PhysicalParams) -> tuple[float, float]:
    """Post-collision velocities (v - 2 hbar k_rel/m, V + 2 hbar k_rel/M) of a
    1D elastic reflection, conserving momentum and kinetic energy."""
    recoil = 2.0 * p.hbar * p.k_rel
    return p.v - recoil / p.m, p.V + recoil / p.M


def thermal_spread(M: float, T: float, *, kB: float = SI_KB, h: float = SI_H) -> tuple[float, float]:
    """Thermal velocity spread and coherence length of a mass in equilibrium.

    Returns (dV, l_c) with dV = sqrt(2 kB T / M) and l_c = h / sqrt(2 M kB T).
    """
    if not T > 0:
        raise ValueError("temperature must be positive")
    if not M > 0:
        raise ValueError("mass must be positive")
    dV = math.sqrt(2.0 * kB * T / M)
    l_c = h / math.sqrt(2.0 * M * kB * T)
    return dV, l_c


def coherence_length(lam: float, V: float, dV: float) -> float:
    """Longitudinal coherence length lam * V / dV of a moving wavegroup."""
    if not dV > 0:
        raise ValueError("velocity spread must be positive")
    return lam * V / dV
