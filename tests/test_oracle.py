"""The joint PDF and the branch amplitudes against a 50-digit oracle built
from the physical inputs.

The oracle evaluates both branches' spectral integrals in closed form with
mpmath, from (m, M, v, V, hbar, dk, dK, x1c, x2c, t0) alone: every derived
quantity, the carrier wavevectors included, is formed at 50 digits, never
taken from the kernel's floats. PDF errors are fractions of the PDF's peak,
amplitude errors relative to the ratio F_ref / F_in.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import simpson

from mirrorsim import SpacetimePoint, amplitude_parts
from mirrorsim.grids import AxisSpec, GridSpec
from mirrorsim.measurement import collapse
from mirrorsim.observables import _hull, marginal_over_particle
from mirrorsim.scenario import PRESETS, RawEvent, joint_pdf_grid, resolve_event
from mirrorsim.wavegroup import frames

DIGITS = 50


class Oracle:
    """|Psi_in - Psi_ref|^2 at one pair of times (t1, t2), without the step.

    Each branch is (N / 2 pi) times the integral over (k, K) of
    exp(-(k - k0)^T R (k - k0) / 2 - i k^T xc + i (E k)^T x - i (E k)^T C (E k) / 2),
    R = diag(1/dk^2, 1/dK^2), C = diag(hbar tau1/m, hbar tau2/M), E the identity
    or the elastic collision map, which is 2 pi / sqrt(det A) exp(B^T A^{-1} B / 2
    - k0^T R k0 / 2) with A = R + i E^T C E and B = R k0 + i (E^T x - xc).
    """

    def __init__(self, spec, t1, t2):
        p = spec.params
        with mp.workdps(DIGITS):
            m, M, v, V, hbar, dk, dK, x1c, x2c, t0 = (mp.mpf(float(a)) for a in (
                p.m, p.M, p.v, p.V, p.hbar, spec.dk, spec.dK, spec.x1c, spec.x2c, spec.t0))
            k0 = (m * v / hbar, M * V / hbar)
            r = (1 / dk**2, 1 / dK**2)
            c = (hbar * (mp.mpf(float(t1)) - t0) / m, hbar * (mp.mpf(float(t2)) - t0) / M)
            mu = 2 * m / (m + M)
            self.xc = (x1c, x2c)
            self.rk0 = (r[0] * k0[0], r[1] * k0[1])
            self.log_c = -mp.log(mp.pi * dk * dK) / 2 - (r[0] * k0[0]**2 + r[1] * k0[1]**2) / 2
            self.branches = []
            for e in (((1, 0), (0, 1)), ((mu - 1, mu), (2 - mu, 1 - mu))):
                a11 = mp.mpc(r[0], c[0] * e[0][0]**2 + c[1] * e[1][0]**2)
                a12 = mp.mpc(0, c[0] * e[0][0] * e[0][1] + c[1] * e[1][0] * e[1][1])
                a22 = mp.mpc(r[1], c[0] * e[0][1]**2 + c[1] * e[1][1]**2)
                det = a11 * a22 - a12 * a12
                # principal roots of a11 and of its Schur complement: the
                # branch of sqrt(det A) continuous from real A
                log_det = mp.log(a11) + mp.log(det / a11)
                self.branches.append((e, (a22 / det, -a12 / det, a11 / det), log_det))

    def log_amplitudes(self, x1, x2):
        """[log Psi_in, log Psi_ref] at (x1, x2), as 50-digit complex numbers."""
        with mp.workdps(DIGITS):
            x = (mp.mpf(float(x1)), mp.mpf(float(x2)))
            logs = []
            for e, (i11, i12, i22), log_det in self.branches:
                b1 = mp.mpc(self.rk0[0], e[0][0] * x[0] + e[1][0] * x[1] - self.xc[0])
                b2 = mp.mpc(self.rk0[1], e[0][1] * x[0] + e[1][1] * x[1] - self.xc[1])
                quad = b1 * (i11 * b1 + i12 * b2) + b2 * (i12 * b1 + i22 * b2)
                logs.append(self.log_c - log_det / 2 + quad / 2)
            return logs

    def pdf(self, x1, x2) -> float:
        with mp.workdps(DIGITS):
            log_in, log_ref = self.log_amplitudes(x1, x2)
            return float(abs(mp.exp(log_in) - mp.exp(log_ref)) ** 2)


def _grid_error(name, n=48, draws=80):
    """Largest error over each snapshot's n x n grid, at ``draws`` seeded
    physical points and the grid's peak, as a fraction of that peak."""
    s = PRESETS[name]
    grid = GridSpec(axes=tuple(AxisSpec(a.role, a.lo, a.hi, n) for a in s.grid.axes))
    x1, x2 = (a.values() for a in grid.axes)
    i, j = np.nonzero(x1[:, None] <= x2[None, :])
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for t in s.snapshot_times or (s.collision_time,):
        values = joint_pdf_grid(s.wavegroup, grid, t, t).values
        peak = np.unravel_index(np.argmax(values), values.shape)
        pick = rng.choice(i.size, size=draws, replace=False)
        oracle = Oracle(s.wavegroup, t, t)
        err = max(abs(values[a, b] - oracle.pdf(x1[a], x2[b]))
                  for a, b in zip(np.append(i[pick], peak[0]), np.append(j[pick], peak[1])))
        worst = max(worst, err / values.max())
    return worst


def _slice_error(name, offset, n=257):
    """Error of the conditional PDF at n points of its support at t10 +
    offset tau, as a fraction of the oracle's peak there."""
    s = PRESETS[name]
    state = collapse(s.wavegroup, resolve_event(s, s.events[0] if s.events
                                                else RawEvent(t10=s.collision_time)))
    ev = state.event
    t2 = ev.t10 + offset * s.tau
    x2, pdf = state._sampled(t2, n)
    oracle = Oracle(s.wavegroup, ev.t10, t2)
    exact = np.array([oracle.pdf(ev.x10, x) for x in x2])
    return np.max(np.abs(pdf - exact)) / exact.max()


def _ratio_error(name):
    """Largest |(F_ref / F_in) / exact - 1| of ``amplitude_parts``, which
    bounds the error of the ratio's modulus and of its phase at once, at 18
    seeded points: 3 within 2 sigma of each branch's centre at (t_c, t_c),
    (t_c, t_c + tau) and (t_c + tau / 2, t_c)."""
    s = PRESETS[name].wavegroup
    t_c, tau = s.collision_time, s.tau
    rng = np.random.default_rng(20141005)
    worst = 0.0
    for t1, t2 in ((t_c, t_c), (t_c, t_c + tau), (t_c + 0.5 * tau, t_c)):
        oracle = Oracle(s, t1, t2)
        for n in range(6):
            centre, cov = frames(s, t1, t2)[n % 2]
            x1, x2 = (float(x) for x in centre + np.sqrt(np.diag(cov)) * rng.uniform(-2.0, 2.0, 2))
            f_in, f_ref = amplitude_parts(s, SpacetimePoint(x1, t1, x2, t2))
            log_in, log_ref = oracle.log_amplitudes(x1, x2)
            with mp.workdps(DIGITS):
                exact = complex(mp.exp(log_ref - log_in))
            worst = max(worst, abs(complex(f_ref / f_in) / exact - 1.0))
    return worst


# twice the worst error of the amplitudes read off the density's form; the
# complex Gaussian integrals they replaced were off by 2.9e-14, 4.1e-9,
# 1.4e-14 and 2.1e-11 at the same points
@pytest.mark.parametrize("name, bound", [("fig5", 8.6e-15), ("fig8", 8.3e-9),
                                         ("fig9", 7.2e-15), ("cont", 9.4e-12)])
def test_branch_ratio(name, bound):
    assert _ratio_error(name) < bound


def test_oracle_matches_the_quadrature():
    # the oracle against the independent Gauss-Hermite oracle at the overlap
    from mirrorsim import amplitude_quadrature

    s = PRESETS["fig5"]
    t = s.collision_time
    oracle = Oracle(s.wavegroup, t, t)
    for dx1, dx2 in ((-0.5, 0.3), (0.0, 0.0), (-1.0, 1.5)):
        x1, x2 = s.wavegroup.collision_point + dx1, s.wavegroup.collision_point + dx2
        quad = abs(amplitude_quadrature(s.wavegroup, SpacetimePoint(x1, t, x2, t), 128)) ** 2
        assert math.isclose(oracle.pdf(x1, x2), quad, rel_tol=1e-9, abs_tol=1e-14)


@pytest.mark.parametrize("name", ["fig2", "fig5", "fig6-m20", "fig7-d", "fig9", "cont"])
def test_natural_units_grid(name):
    assert _grid_error(name) < 1e-13


def test_si_grid():
    assert _grid_error("fig8") < 1e-9


# the error of the complex-exponential kernel that the real form replaced,
# measured with these samples: the real form must be no worse
@pytest.mark.parametrize("offset, before", [(1.0, 5.9e-10), (3.0, 1.1e-9)])
def test_si_conditional_slices(offset, before):
    assert _slice_error("fig8", offset) < before


@pytest.mark.parametrize("name, offset", [("fig5", 1e8), ("fig5", 1e10), ("fig2", 1e14)])
def test_conditional_slice_far_past_the_detection(name, offset):
    assert _slice_error(name, offset) < 1e-9


def test_si_particle_marginal():
    # fig8's particle marginal at t1 = t_c + tau/2, t2 = t_c, at the x2 of
    # its 2048-point axis where the complex-form trace was furthest off
    # (5.4e-10 of the peak): the oracle integrated over x1 <= x2 by Simpson
    # on 16,001 nodes, checked against its own 8,001 even nodes
    s = PRESETS["fig8"]
    spec = s.wavegroup
    t1, t2 = s.collision_time + 0.5 * s.tau, s.collision_time
    x2 = 4.999972390850601e-07
    x2_axis = next(a for a in s.grid.axes if a.role == "x2")
    peak = marginal_over_particle(spec, np.linspace(x2_axis.lo, x2_axis.hi, 2048), t1, t2).y.max()
    oracle = Oracle(spec, t1, t2)
    x1 = np.linspace(_hull(frames(spec, t1, t2), axis=0)[0], x2, 16001)
    pdf = np.array([oracle.pdf(x, x2) for x in x1])
    exact, coarse = simpson(pdf, x=x1), simpson(pdf[::2], x=x1[::2])
    assert abs(exact - coarse) < 1e-11 * peak
    closed = marginal_over_particle(spec, np.array([x2]), t1, t2).y[0]
    assert abs(closed - exact) < 5e-11 * peak


def test_si_mirror_marginal():
    # fig8's mirror marginal at (t_c, t_c) on its preset grid's 256-point x2
    # axis, at the three points where the trace was furthest off while it read
    # each packet centre as one rounded float (1.28e-11, 1.91e-11 and 1.78e-11
    # of the peak; 3.2e-12, 3.2e-12 and 3.8e-12 in the density's exact
    # offsets): the oracle integrated over x1 <= x2 by Simpson on 2,001 nodes,
    # checked against its own 1,001 even nodes
    s = PRESETS["fig8"]
    spec, t = s.wavegroup, s.collision_time
    x2_axis = s.grid.axes[1].values()
    curve = marginal_over_particle(spec, x2_axis, t, t).y
    peak = curve.max()
    oracle = Oracle(spec, t, t)
    lo = _hull(frames(spec, t, t), axis=0)[0]
    for i in (106, 149, 157):
        x1 = np.linspace(lo, x2_axis[i], 2001)
        pdf = np.array([oracle.pdf(x, x2_axis[i]) for x in x1])
        exact, coarse = simpson(pdf, x=x1), simpson(pdf[::2], x=x1[::2])
        assert abs(exact - coarse) < 1e-13 * peak
        assert abs(curve[i] - exact) < 1e-11 * peak
