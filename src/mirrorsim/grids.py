"""Sampled-field containers shared by the simulation and the CLI: a joint
PDF on one (x1, x2) grid, and 1-D curves."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kinematics import _require_finite

_AXIS_ROLES = ("x1", "x2")


@dataclass(frozen=True)
class AxisSpec:
    """One sampled axis: physical role, range and sample count."""

    role: str
    lo: float
    hi: float
    n: int

    def __post_init__(self):
        if self.role not in _AXIS_ROLES:
            raise ValueError(f"axis role must be one of {_AXIS_ROLES}")
        _require_finite(self, "lo", "hi")
        if not self.hi > self.lo:
            raise ValueError("axis range is degenerate")
        if self.n < 16:
            raise ValueError("axis needs at least 16 samples")

    def values(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.n)


@dataclass(frozen=True)
class GridSpec:
    """The two axes of a joint-PDF grid, x1 then x2."""

    axes: tuple[AxisSpec, AxisSpec]

    def __post_init__(self):
        if tuple(a.role for a in self.axes) != _AXIS_ROLES:
            raise ValueError(f"grid axes must be {_AXIS_ROLES}")

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
