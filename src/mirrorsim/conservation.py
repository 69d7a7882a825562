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

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .harmonic import (SpacetimePoint, beat_frequency, fringe_period,
                       interference_pdf)
from .kinematics import PhysicalParams
from .wavegroup import WavegroupSpec, currents, joint_pdf


class UnderResolvedStepWarning(UserWarning):
    """Finite-difference steps too coarse for the fringe scale."""


@dataclass(frozen=True)
class ContinuityResidual:
    """Local continuity residual statistics over one sample box."""

    max_residual: float
    rms_residual: float
    scale: float

    @property
    def max_over_scale(self) -> float:
        # a box that sees no probability (scale 0) cannot pass the check
        return self.max_residual / self.scale if self.scale else math.inf


def _harmonic_currents(p: PhysicalParams, x1, t1, x2, t2):
    """Currents of the plane-wave superposition: the pattern drifts at v_cm.

    Psi* dPsi collapses exactly to j1 = hbar (k + k_ref) PDF / (2m) and
    j2 = hbar (K + K_ref) PDF / (2M), with the reflected pair k_ref = k - 2 k_rel
    and K_ref = K + 2 k_rel, and both wavevector sums reduce to the
    centre-of-mass velocity v_cm = (mv + MV)/(m + M), so j1 = j2 = v_cm PDF
    at any pair of measurement times. v_cm is the factor that
    :func:`~.harmonic.beat_frequency` carries on k_rel.
    """
    j = (beat_frequency(p) / p.k_rel
         * interference_pdf(p, SpacetimePoint(x1, t1, x2, t2)))
    return j, j


def _field_fns(field, detune: float = 1.0, reflected_weight: float = 1.0):
    """(params, pdf, currents) of a field: a :class:`~.wavegroup.WavegroupSpec`,
    or a plane-wave pair given as its :class:`~.kinematics.PhysicalParams`.
    pdf and currents are callables of (x1, t1, x2, t2); currents returns
    (j1, j2)."""
    if isinstance(field, WavegroupSpec):
        knobs = dict(detune=detune, reflected_weight=reflected_weight)
        return (field.params, functools.partial(joint_pdf, field, **knobs),
                functools.partial(currents, field, **knobs))
    if isinstance(field, PhysicalParams):
        if detune != 1.0 or reflected_weight != 1.0:
            raise ValueError("corruption knobs apply to wavegroup fields only")
        return (field, lambda x1, t1, x2, t2: interference_pdf(
                    field, SpacetimePoint(x1, t1, x2, t2)),
                functools.partial(_harmonic_currents, field))
    raise TypeError("field must be a WavegroupSpec or PhysicalParams")


def continuity_residual(field, x1, x2, t1: float, t2: float,
                        steps: tuple[float, float, float, float],
                        detune: float = 1.0,
                        reflected_weight: float = 1.0) -> ContinuityResidual:
    """Central-difference residual of the local balance over an x1 x x2 box.

    ``field`` is a :class:`~.wavegroup.WavegroupSpec` or, for the plane-wave
    pair, its :class:`~.kinematics.PhysicalParams`; the corruption knobs
    ``detune`` and ``reflected_weight`` apply to a wavegroup only. ``steps``
    are (dx1, dx2, dt1, dt2). The reported scale is the largest magnitude
    among the four balancing terms, so max_over_scale is the dimensionless
    quality of the check.
    """
    dx1, dx2, dt1, dt2 = steps
    p, pdf, cur = _field_fns(field, detune, reflected_weight)
    if max(dx1, dx2) > fringe_period(p) / 20.0:
        warnings.warn("spatial steps coarser than a twentieth of a fringe",
                      UnderResolvedStepWarning, stacklevel=2)
    X1 = np.asarray(x1, dtype=float)[:, None]
    X2 = np.asarray(x2, dtype=float)[None, :]

    dt1_term = (pdf(X1, t1 + dt1, X2, t2) - pdf(X1, t1 - dt1, X2, t2)) / (2 * dt1)
    dt2_term = (pdf(X1, t1, X2, t2 + dt2) - pdf(X1, t1, X2, t2 - dt2)) / (2 * dt2)
    dx1_term = (cur(X1 + dx1, t1, X2, t2)[0] - cur(X1 - dx1, t1, X2, t2)[0]) / (2 * dx1)
    dx2_term = (cur(X1, t1, X2 + dx2, t2)[1] - cur(X1, t1, X2 - dx2, t2)[1]) / (2 * dx2)

    residual = dt1_term + dt2_term + dx1_term + dx2_term
    scale = max(np.abs(dt1_term).max(), np.abs(dt2_term).max(),
                np.abs(dx1_term).max(), np.abs(dx2_term).max())
    return ContinuityResidual(
        max_residual=float(np.abs(residual).max()),
        rms_residual=float(np.sqrt(np.mean(residual**2))),
        scale=float(scale),
    )


def convergence_order(field, x1, x2, t1: float, t2: float,
                      base_steps: tuple[float, float, float, float]) -> float:
    """Observed order of the residual over the step scalings 4, 2 and 1."""
    factors = (4.0, 2.0, 1.0)
    values = []
    for f in factors:
        steps = tuple(s * f for s in base_steps)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UnderResolvedStepWarning)
            r = continuity_residual(field, x1, x2, t1, t2, steps)
        values.append(max(r.max_residual, 1e-300))
    slope = np.polyfit(np.log(factors), np.log(values), 1)[0]
    return float(slope)
