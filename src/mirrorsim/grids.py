"""Sampled-field containers shared by the simulation and the CLI: a joint
PDF on one (x1, x2) grid, and 1-D curves."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kinematics import _enforce, _known

_AXIS_ROLES = ("x1", "x2")
# samples per axis; the ceiling bounds an n x n grid at 16.8 M samples, so a
# count too large for memory is a named error before any array is built
_N_MIN, _N_MAX = 16, 4096


@dataclass(frozen=True)
class AxisSpec:
    """One sampled axis: physical role, range and sample count."""

    role: str
    lo: float
    hi: float
    n: int

    def __post_init__(self):
        _enforce(self, "role", "lo", "hi", "n")

    @staticmethod
    def _rules(**given) -> list[tuple[str, str]]:
        broken, (lo, hi) = _known(given, "lo", "hi")
        if "role" in given and given["role"] not in _AXIS_ROLES:
            broken.append(("role", f"must be one of {_AXIS_ROLES}"))
        if None not in (lo, hi) and not hi > lo:
            broken.append(("hi", "must exceed lo"))
        n = given.get("n")
        if "n" in given:
            if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < _N_MIN:
                broken.append(("n", f"must be an integer >= {_N_MIN}"))
            elif n > _N_MAX:
                broken.append(("n", f"must be at most {_N_MAX}"))
        return broken

    def values(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.n)


@dataclass(frozen=True)
class GridSpec:
    """The two axes of a joint-PDF grid, x1 then x2."""

    axes: tuple[AxisSpec, AxisSpec]

    def __post_init__(self):
        _enforce(self, axes=tuple(a.role for a in self.axes))

    @staticmethod
    def _rules(**given) -> list[tuple[str, str]]:
        """The rules of the axes, given by their roles."""
        if "axes" in given and tuple(given["axes"]) != _AXIS_ROLES:
            return [("axes", "must be two axes, x1 then x2")]
        return []

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(a.n for a in self.axes)


@dataclass(frozen=True)
class FieldGrid:
    """Row-major (x1, x2) samples of a real, non-negative PDF plus provenance."""

    grid: GridSpec
    values: np.ndarray
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if tuple(self.values.shape) != self.grid.shape:
            raise ValueError("sample count does not match the grid axes")
        if np.iscomplexobj(self.values):
            raise ValueError("pdf grids are real")
        if np.any(self.values < 0):
            raise ValueError("pdf grids are non-negative")


@dataclass(frozen=True)
class Curve:
    """A 1D sampled observable with axis metadata."""

    x: np.ndarray
    y: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.x.shape != self.y.shape or self.x.ndim != 1:
            raise ValueError("curve arrays must be matching 1D samples")
