"""Probability currents and continuity residuals of the two-time fields.

The closed-form amplitudes satisfy one free Schroedinger equation in each
coordinate pair, so the local balance

    d(PDF)/dt1 + d(PDF)/dt2 + d(j1)/dx1 + d(j2)/dx2 = 0

holds identically on the smooth fields; each (t1, x1) and (t2, x2) pair in
fact balances separately. Currents are analytic derivatives of the closed
form, so the residual operators below measure pure discretisation error:
central differences converge at second order until the cancellation floor.

Interior points only: stencils must not straddle the contact line x1 = x2,
where the step function makes the physical field non-smooth.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .harmonic import (HarmonicMode, SpacetimePoint, fringe_period,
                       interference_pdf)
from .wavegroup import WavegroupSpec, currents, joint_pdf


class UnderResolvedStepWarning(UserWarning):
    """Finite-difference steps too coarse for the fringe scale."""


@dataclass(frozen=True)
class ContinuityResidual:
    """Local continuity residual statistics over one sample box."""

    max_residual: float
    rms_residual: float
    scale: float
    step_sizes: tuple[float, float, float, float]
    n_points: int

    @property
    def max_over_scale(self) -> float:
        # a box that sees no probability (scale 0) cannot pass the check
        return self.max_residual / self.scale if self.scale else math.inf


def _harmonic_pdf(mode: HarmonicMode, x1, t1, x2, t2):
    """Superposition PDF via the closed interference form (well-conditioned
    single reduced argument; the raw amplitudes carry k^2 t-scale phases)."""
    return interference_pdf(mode, SpacetimePoint(x1, t1, x2, t2))


def _harmonic_currents(mode: HarmonicMode, x1, t1, x2, t2, part: str = "both"):
    """Currents of the plane-wave superposition from analytic derivatives.

    For the superposition, Psi* dPsi collapses exactly to
    j1 = hbar (k + k_ref) PDF / (2m) and the mirror analogue, valid at any
    pair of measurement times.
    """
    p = mode.params
    if part == "incident":
        one = np.ones(np.broadcast(np.asarray(x1), np.asarray(x2)).shape)
        return (p.hbar * mode.k / p.m * one, p.hbar * mode.K / p.M * one)
    if part == "reflected":
        one = np.ones(np.broadcast(np.asarray(x1), np.asarray(x2)).shape)
        return (p.hbar * mode.k_ref / p.m * one, p.hbar * mode.K_ref / p.M * one)
    pdf = _harmonic_pdf(mode, x1, t1, x2, t2)
    j1 = p.hbar * (mode.k + mode.k_ref) / (2.0 * p.m) * pdf
    j2 = p.hbar * (mode.K + mode.K_ref) / (2.0 * p.M) * pdf
    return j1, j2


def _field_fns(field, detune: float = 1.0, reflected_weight: float = 1.0):
    """(pdf, j1, j2) callables of (x1, t1, x2, t2) for either field type."""
    if isinstance(field, WavegroupSpec):
        def pdf(x1, t1, x2, t2):
            return joint_pdf(field, x1, t1, x2, t2, detune=detune,
                             reflected_weight=reflected_weight)

        def j1(x1, t1, x2, t2):
            return currents(field, x1, t1, x2, t2, detune=detune,
                            reflected_weight=reflected_weight)[0]

        def j2(x1, t1, x2, t2):
            return currents(field, x1, t1, x2, t2, detune=detune,
                            reflected_weight=reflected_weight)[1]

        return pdf, j1, j2
    if isinstance(field, HarmonicMode):
        if detune != 1.0 or reflected_weight != 1.0:
            raise ValueError("corruption knobs apply to wavegroup fields only")
        return (lambda x1, t1, x2, t2: _harmonic_pdf(field, x1, t1, x2, t2),
                lambda x1, t1, x2, t2: _harmonic_currents(field, x1, t1, x2, t2)[0],
                lambda x1, t1, x2, t2: _harmonic_currents(field, x1, t1, x2, t2)[1])
    raise TypeError("field must be a WavegroupSpec or HarmonicMode")


def current_j1(field, pt: SpacetimePoint):
    """Particle probability current from analytic closed-form derivatives."""
    if isinstance(field, HarmonicMode):
        return _harmonic_currents(field, pt.x1, pt.t1, pt.x2, pt.t2)[0]
    return currents(field, pt.x1, pt.t1, pt.x2, pt.t2)[0]


def current_j2(field, pt: SpacetimePoint):
    """Mirror probability current from analytic closed-form derivatives."""
    if isinstance(field, HarmonicMode):
        return _harmonic_currents(field, pt.x1, pt.t1, pt.x2, pt.t2)[1]
    return currents(field, pt.x1, pt.t1, pt.x2, pt.t2)[1]


def _fringe(field) -> float:
    if isinstance(field, WavegroupSpec):
        return math.pi / abs(field.K_rel0)
    return fringe_period(field.params)


def continuity_residual(field, x1, x2, t1: float, t2: float,
                        steps: tuple[float, float, float, float],
                        detune: float = 1.0,
                        reflected_weight: float = 1.0) -> ContinuityResidual:
    """Central-difference residual of the local balance over an x1 x x2 box.

    ``steps`` are (dx1, dx2, dt1, dt2). The reported scale is the largest
    magnitude among the four balancing terms, so max_over_scale is the
    dimensionless quality of the check.
    """
    dx1, dx2, dt1, dt2 = steps
    fringe = _fringe(field)
    if max(dx1, dx2) > fringe / 20.0:
        warnings.warn("spatial steps coarser than a twentieth of a fringe",
                      UnderResolvedStepWarning, stacklevel=2)
    pdf, j1f, j2f = _field_fns(field, detune, reflected_weight)
    X1 = np.asarray(x1, dtype=float)[:, None]
    X2 = np.asarray(x2, dtype=float)[None, :]

    dt1_term = (pdf(X1, t1 + dt1, X2, t2) - pdf(X1, t1 - dt1, X2, t2)) / (2 * dt1)
    dt2_term = (pdf(X1, t1, X2, t2 + dt2) - pdf(X1, t1, X2, t2 - dt2)) / (2 * dt2)
    dx1_term = (j1f(X1 + dx1, t1, X2, t2) - j1f(X1 - dx1, t1, X2, t2)) / (2 * dx1)
    dx2_term = (j2f(X1, t1, X2 + dx2, t2) - j2f(X1, t1, X2 - dx2, t2)) / (2 * dx2)

    residual = dt1_term + dt2_term + dx1_term + dx2_term
    scale = max(np.abs(dt1_term).max(), np.abs(dt2_term).max(),
                np.abs(dx1_term).max(), np.abs(dx2_term).max())
    return ContinuityResidual(
        max_residual=float(np.abs(residual).max()),
        rms_residual=float(np.sqrt(np.mean(residual**2))),
        scale=float(scale),
        step_sizes=(dx1, dx2, dt1, dt2),
        n_points=residual.size,
    )


def convergence_order(field, x1, x2, t1: float, t2: float,
                      base_steps: tuple[float, float, float, float],
                      factors=(4.0, 2.0, 1.0)) -> float:
    """Observed order of the residual against a ladder of step scalings."""
    sizes, values = [], []
    for f in factors:
        steps = tuple(s * f for s in base_steps)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UnderResolvedStepWarning)
            r = continuity_residual(field, x1, x2, t1, t2, steps)
        sizes.append(f)
        values.append(max(r.max_residual, 1e-300))
    slope = np.polyfit(np.log(sizes), np.log(values), 1)[0]
    return float(slope)


@dataclass(frozen=True)
class SegmentBalance:
    """Flux balance of one spatial segment: d/dt integral + boundary currents."""

    error: float
    scale: float
    ddt: float
    flux_in: float
    flux_out: float


def _simpson(y: np.ndarray, dx: float) -> float:
    """Composite Simpson rule; sample count must be odd."""
    if len(y) % 2 == 0:
        raise ValueError("Simpson rule needs an odd sample count")
    return float(dx / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum()
                             + 2.0 * y[2:-1:2].sum()))


def segment_balance(field, a: float, b: float, axis: str, t1: float, t2: float,
                    frozen: float, dt: float, n: int = 4097) -> SegmentBalance:
    """Verify the integrated balance over [a, b] along x1 or x2.

    For axis "x2" the check is d/dt2 of the segment probability at frozen
    x1 plus the j2 flux difference; for axis "x1" the roles swap. The time
    derivative is a central difference with step dt and the segment
    integral a composite Simpson rule.
    """
    if not a < b:
        raise ValueError("segment needs a < b")
    if n % 2 == 0:
        n += 1
    pdf, j1f, j2f = _field_fns(field)
    xs = np.linspace(a, b, n)
    dx = xs[1] - xs[0]
    if axis == "x2":
        def seg(t):
            return _simpson(np.asarray(pdf(frozen, t1, xs, t)), dx)
        ddt = (seg(t2 + dt) - seg(t2 - dt)) / (2 * dt)
        fa = float(j2f(frozen, t1, a, t2))
        fb = float(j2f(frozen, t1, b, t2))
    elif axis == "x1":
        def seg(t):
            return _simpson(np.asarray(pdf(xs, t, frozen, t2)), dx)
        ddt = (seg(t1 + dt) - seg(t1 - dt)) / (2 * dt)
        fa = float(j1f(a, t1, frozen, t2))
        fb = float(j1f(b, t1, frozen, t2))
    else:
        raise ValueError("axis must be 'x1' or 'x2'")
    error = abs(ddt + fb - fa)
    scale = max(abs(ddt), abs(fa), abs(fb), 1e-300)
    return SegmentBalance(error=error, scale=scale, ddt=ddt, flux_in=fa, flux_out=fb)
