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


def _known(given: dict, *names: str, positive: tuple = ()) -> tuple[list, list]:
    """A (field, message) pair for each of ``names`` in ``given`` that is not a
    finite number, or not positive if listed in ``positive``, and each one's
    value, None where it is absent or broken so that no other rule reads it.
    An inf or a NaN would otherwise surface later, as a NaN, an all-zero
    result or an error that blames another input."""
    broken, values = [], []
    for name in names:
        value = given.get(name)
        if name in given and not math.isfinite(value):
            broken.append((name, f"must be finite, got {value!r}"))
            value = None
        elif name in positive and value is not None and not value > 0:
            broken.append((name, "must be positive"))
            value = None
        values.append(value)
    return broken, values


def _enforce(obj, *names: str, **given):
    """One ValueError naming every rule that ``obj``'s fields ``names`` and the
    values ``given`` break. ``type(obj)._rules`` states them: it takes the known
    fields by keyword and returns a (field, message) pair per rule broken."""
    given.update((name, getattr(obj, name)) for name in names)
    if broken := type(obj)._rules(**given):
        raise ValueError("; ".join(f"{type(obj).__name__}.{f} {m}" for f, m in broken))


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
        _enforce(self, "m", "M", "v", "V", "hbar", "kB")

    @staticmethod
    def _rules(**given) -> list[tuple[str, str]]:
        broken, (_, _, v, V, _, _) = _known(given, "m", "M", "v", "V", "hbar", "kB",
                                            positive=("m", "M", "hbar", "kB"))
        if None not in (v, V) and not v > V:
            broken.append(("v", "must exceed V for reflection"))
        return broken

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

