import dataclasses
import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from mirrorsim import (MeasurementEvent, PhysicalParams, SpacetimePoint,
                       WavegroupSpec, amplitude_parts, collapse, currents, joint_pdf,
                       marginal_over_mirror, marginal_over_particle)
from mirrorsim.harmonic import beat_frequency, interference_phase
from mirrorsim.scenario import PRESETS, _beat_window, resolve_event
from mirrorsim.wavegroup import (_carrier_phase, _Density, _density_form, _fields, _Form,
                                 _form, _half_plane_moments, _k_rel_dd, _over_pi, _two_prod,
                                 frames)

from conftest import sweep_spec
from test_oracle import MAX_NODES, amplitude_quadrature, spectral_amplitude, stepped_amplitude

TWO_PI = 2.0 * math.pi


def trapezoid_gaussian_2d(A, b, c=0.0, half_width=9.0, n=1201):
    """Direct 2D trapezoid evaluation of the Gaussian integral (oracle)."""
    D = A.real
    evals, evecs = np.linalg.eigh(D)
    u = np.linspace(-half_width, half_width, n)
    U1, U2 = np.meshgrid(u / math.sqrt(evals[0]), u / math.sqrt(evals[1]),
                         indexing="ij")
    X = evecs[:, 0][:, None, None] * U1 + evecs[:, 1][:, None, None] * U2
    quad = (A[0, 0] * X[0] ** 2 + 2 * A[0, 1] * X[0] * X[1] + A[1, 1] * X[1] ** 2)
    integrand = np.exp(-0.5 * quad + b[0] * X[0] + b[1] * X[1] + c)
    jac = abs(np.linalg.det(np.column_stack([
        evecs[:, 0] / math.sqrt(evals[0]), evecs[:, 1] / math.sqrt(evals[1])])))
    du = u[1] - u[0]
    return np.trapezoid(np.trapezoid(integrand, dx=du, axis=1), dx=du, axis=0) * jac


def spectral_form(spec, reflected, pt):
    """(A, b, c) of one branch's spectral integral at pt, written from the
    physical inputs: the branch is N / (2 pi) times the integral of
    exp(-s^T A s / 2 + b^T s + c) over the offsets s = k - k0, with
    A = R + i E^T C E, b = i (E^T x - xc - E^T C E k0) and
    c = i (E k0 . x - k0 . xc - E k0 . C E k0 / 2), E the identity or the
    elastic collision on absolute wavevectors."""
    p = spec.params
    mu = 2.0 * p.m / (p.m + p.M)
    E = np.array([[mu - 1.0, mu], [2.0 - mu, 1.0 - mu]]) if reflected else np.eye(2)
    C = np.diag([p.hbar * (pt.t1 - spec.t0) / p.m, p.hbar * (pt.t2 - spec.t0) / p.M])
    k0 = np.array([p.k, p.K])
    kappa = E @ k0
    x, xc = np.array([pt.x1, pt.x2]), np.array([spec.x1c, spec.x2c])
    A = np.diag([spec.dk**-2, spec.dK**-2]) + 1j * (E.T @ C @ E)
    b = 1j * (E.T @ x - xc - E.T @ C @ kappa)
    c = 1j * math.remainder(kappa @ x - k0 @ xc - 0.5 * kappa @ C @ kappa, TWO_PI)
    return A, b, c


def branch_at_centre(spec, branch, t):
    """A branch of ``_fields`` at its own centre at t1 = t2 = t, where b = 0:
    N / (2 pi) 2 pi / sqrt(det A), with the reflected recoil phase divided out."""
    (x1, x2), _ = frames(spec, t, t)[branch]
    f = _fields(spec, x1, t, x2, t)
    if not branch:
        return complex(f.F_in)
    tau = t - spec.t0
    return complex(f.F_ref * np.exp(-1j * interference_phase(spec.params, x1, tau, x2, tau)))


def _norm_const(spec):
    """Spectral normalisation 1/sqrt(pi dk dK); unit norm with the 1/2pi transform."""
    return 1.0 / math.sqrt(math.pi * spec.dk * spec.dK)


class TestGaussianIntegral:
    """Each branch's closed form is its spectral Gaussian integral: at t0,
    where A is real, it peaks at N 2 pi / sqrt(det R) with no phase of its
    own; at any times it matches a direct trapezoid of the integral; and the
    root of det A it takes stays continuous as the chirp grows."""

    def test_identity_matrix(self, params_fig5):
        # dk = dK = 1: A = I at t0, so each branch is N = 1 / sqrt(pi) at its centre
        s = WavegroupSpec(params_fig5, dk=1.0, dK=1.0, x1c=-12.0, x2c=0.0)
        for branch in (0, 1):
            assert abs(branch_at_centre(s, branch, s.t0) - 1.0 / math.sqrt(math.pi)) < 1e-14

    def test_isotropic_scaling(self, params_fig5):
        for a in (0.5, 2.0, 7.0):
            # A = I / a^2 at t0: each branch at its centre is N 2 pi a^2 = a / sqrt(pi)
            s = WavegroupSpec(params_fig5, dk=a, dK=a, x1c=-12.0 / a, x2c=0.0)
            for branch in (0, 1):
                val = branch_at_centre(s, branch, s.t0)
                assert abs(val - a / math.sqrt(math.pi)) < 1e-14 * a

    def test_against_trapezoid_oracle(self, rng):
        # natural-unit presets, whose carrier phases the float form of the
        # integral resolves; a branch drawn at up to 2 sigma from its centre
        names = ("fig2", "fig3-c", "fig5", "fig6-m1")
        for _ in range(12):
            s = PRESETS[names[rng.integers(len(names))]].wavegroup
            t1, t2 = s.collision_time + s.tau * rng.uniform(-1.0, 2.0, 2)
            branch = int(rng.integers(2))
            centre, cov = frames(s, t1, t2)[branch]
            x = centre + np.sqrt(np.diag(cov)) * rng.uniform(-2.0, 2.0, 2)
            pt = SpacetimePoint(float(x[0]), float(t1), float(x[1]), float(t2))
            closed = amplitude_parts(s, pt)[branch]
            brute = _norm_const(s) / TWO_PI * trapezoid_gaussian_2d(*spectral_form(s, branch, pt))
            assert abs(closed - brute) / abs(closed) < 1e-8

    def test_branch_continuity(self):
        # value must vary continuously as Im(A) grows from zero, t0 to 40 tau
        for name, branch in itertools.product(("fig5", "fig6-m1"), (0, 1)):
            s = PRESETS[name].wavegroup
            prev = None
            for t in s.t0 + s.tau * np.linspace(0.0, 40.0, 400):
                val = branch_at_centre(s, branch, float(t))
                if prev is not None:
                    assert abs(val - prev) < 0.2 * abs(prev) + 1e-12, (name, branch, t)
                prev = val


class TestSpectralAmplitude:
    def test_peak_modulus_is_norm_const(self, spec_fig5):
        val = spectral_amplitude(spec_fig5, spec_fig5.params.k, spec_fig5.params.K)
        assert abs(val) == pytest.approx(_norm_const(spec_fig5), rel=1e-14)

    def test_width_falloff(self, spec_fig5):
        s = spec_fig5
        k0, K0 = s.params.k, s.params.K
        for k, K in ((k0 + s.dk, K0), (k0 - s.dk, K0),
                     (k0, K0 + s.dK), (k0, K0 - s.dK)):
            ratio = abs(spectral_amplitude(s, k, K)) / _norm_const(s)
            assert ratio == pytest.approx(math.exp(-0.5), rel=1e-13)

    def test_unit_spectral_norm(self, spec_fig5):
        s = spec_fig5
        k = np.linspace(s.params.k - 6 * s.dk, s.params.k + 6 * s.dk, 801)
        K = np.linspace(s.params.K - 6 * s.dK, s.params.K + 6 * s.dK, 801)
        dens = np.abs(spectral_amplitude(s, k[:, None], K[None, :])) ** 2
        total = np.trapezoid(np.trapezoid(dens, K, axis=1), k, axis=0)
        assert total == pytest.approx(1.0, abs=1e-8)


_NON_FINITE_FIELDS = ([(PhysicalParams, f) for f in ("m", "M", "v", "V", "hbar", "kB")]
                      + [(WavegroupSpec, f) for f in ("dk", "dK", "x1c", "x2c", "t0")]
                      + [(MeasurementEvent, f) for f in ("x10", "t10", "dx1")])


class TestSpecInvariants:
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("cls, name", _NON_FINITE_FIELDS,
                             ids=[f"{c.__name__}.{f}" for c, f in _NON_FINITE_FIELDS])
    def test_rejects_non_finite_input(self, params_fig5, cls, name, value):
        # an inf or NaN input is named where it enters, not left to give a
        # NaN PDF, an all-zero conditional PDF or an unrelated error later
        valid = {PhysicalParams: dict(m=1.0, M=3.0, v=50.0, V=30.0, hbar=1.0, kB=1.0),
                 WavegroupSpec: dict(params=params_fig5, dk=1.0, dK=2.0, x1c=-10.0,
                                     x2c=0.0, t0=0.0),
                 MeasurementEvent: dict(x10=-1.0, t10=0.5, dx1=1e-3)}[cls]
        cls(**valid)
        with pytest.raises(ValueError, match=rf"^{cls.__name__}\.{name} must be finite"):
            cls(**{**valid, name: value})

    @pytest.mark.parametrize("build, names", [
        (lambda p: PhysicalParams.natural(M=-1.0, v=0.0, V=1.0, m=-1.0),
         {"PhysicalParams.m", "PhysicalParams.M", "PhysicalParams.v"}),
        (lambda p: PhysicalParams(m=1.0, M=2.0, v=1.0, V=0.0, hbar=0.0, kB=math.inf),
         {"PhysicalParams.hbar", "PhysicalParams.kB"}),
        (lambda p: WavegroupSpec(p, dk=-1.0, dK=0.0, x1c=1.0, x2c=0.0, t0=math.nan),
         {"WavegroupSpec.dk", "WavegroupSpec.dK", "WavegroupSpec.x1c", "WavegroupSpec.t0"}),
        (lambda p: WavegroupSpec(p, dk=1.0, dK=2.0, x1c=1.0, x2c=0.0),
         {"WavegroupSpec.x1c", "WavegroupSpec.x2c"}),
        (lambda p: MeasurementEvent(x10=math.inf, t10=math.nan, dx1=0.0),
         {"MeasurementEvent.x10", "MeasurementEvent.t10", "MeasurementEvent.dx1"}),
    ], ids=["params-signs", "params-constants", "wavegroup-widths", "wavegroup-order",
            "event"])
    def test_one_error_names_every_broken_field(self, params_fig5, build, names):
        # a constructor checks every rule it states, not only the first one broken
        with pytest.raises(ValueError) as err:
            build(params_fig5)
        parts = str(err.value).split("; ")
        assert {part.split(" ", 1)[0] for part in parts} == names
        assert len(parts) == len(names)

    def test_rejects_bad_widths(self, params_fig5):
        with pytest.raises(ValueError):
            WavegroupSpec(params_fig5, dk=0.0, dK=2.0, x1c=-10, x2c=0)

    def test_rejects_wrong_order(self, params_fig5):
        with pytest.raises(ValueError):
            WavegroupSpec(params_fig5, dk=1.0, dK=2.0, x1c=1.0, x2c=0.0)

    def test_rejects_close_centres(self, params_fig5):
        with pytest.raises(ValueError):
            WavegroupSpec(params_fig5, dk=1.0, dK=2.0, x1c=-6.0, x2c=0.0)


class TestClosedForm:
    def test_unit_norm_at_reference_time(self, spec_fig5):
        s = spec_fig5
        x1 = np.linspace(s.x1c - 8 / s.dk, s.x1c + 8 / s.dk, 601)
        x2 = np.linspace(s.x2c - 8 / s.dK, s.x2c + 8 / s.dK, 601)
        pdf = joint_pdf(s, x1[:, None], s.t0, x2[None, :], s.t0)
        total = np.trapezoid(np.trapezoid(pdf, x2, axis=1), x1, axis=0)
        assert total == pytest.approx(1.0, abs=1e-4)

    def test_boundary_condition_survives_superposition(self, spec_fig5, rng):
        peak = math.sqrt(spec_fig5.dk * spec_fig5.dK / math.pi)
        for _ in range(50):
            x = rng.uniform(-12, 25)
            t = rng.uniform(0.0, 1.0)
            amp = stepped_amplitude(spec_fig5, SpacetimePoint(x, t, x, t))
            assert abs(amp) < 1e-10 * peak

    def test_dead_zone(self, spec_fig5):
        assert joint_pdf(spec_fig5, 1.0, 0.1, 0.0, 0.1) == 0.0

    def test_incident_peak_amplitude(self, spec_fig5):
        s = spec_fig5
        i_in, _ = amplitude_parts(s, SpacetimePoint(s.x1c, s.t0, s.x2c, s.t0))
        assert abs(i_in) == pytest.approx(math.sqrt(s.dk * s.dK / math.pi), rel=1e-12)

    def test_dispersion_monotone(self, spec_fig5):
        widths = [math.sqrt(frames(spec_fig5, t, t)[0][1][0, 0])
                  for t in (0.0, 0.1, 0.3, 0.6)]
        assert all(b > a for a, b in zip(widths, widths[1:]))

    def test_fringe_stationarity(self, spec_fig2):
        # deep minima near the overlap centre stay put (to 2% of a fringe)
        # while the envelopes themselves move sixty times faster
        s = spec_fig2
        t_c = s.collision_time
        fringe = math.pi / s.params.k_rel
        x_c = s.collision_point
        x2 = np.linspace(x_c - 1.0, x_c + 1.0, 40001)

        def minima(t):
            y = joint_pdf(s, x_c, t, x2, t)
            idx = np.where((np.diff(y)[:-1] < 0) & (np.diff(y)[1:] >= 0))[0] + 1
            keep = idx[(y[idx] < 0.2 * y.max())
                       & (np.abs(x2[idx] - x_c) < 4 * fringe)]
            return x2[keep]

        ma = minima(t_c)
        mb = minima(t_c + 0.02 * s.tau)
        assert ma.size >= 3 and mb.size >= 3
        for pos in ma:
            assert np.min(np.abs(mb - pos)) < 0.02 * fringe

    def test_nonzero_reference_time(self):
        # moving t0 and every measurement time by the same amount moves
        # nothing: the closed forms read the times only as t - t0
        s = PRESETS["fig5"].wavegroup
        moved = dataclasses.replace(s, t0=s.t0 + 0.25)
        t_c, tau, x_c = s.collision_time, s.tau, s.collision_point
        x = x_c + np.linspace(-6.0, 6.0, 49) / s.dk

        def readings(spec, t1, t2):
            out = [joint_pdf(spec, x[:, None], t1, x[None, :], t2),
                   *currents(spec, x[:, None], t1, x[None, :], t2),
                   marginal_over_mirror(spec, x, t1, t2).y,
                   marginal_over_particle(spec, x, t1, t2).y,
                   *(a for frame in frames(spec, t1, t2) for a in frame)]
            pt = SpacetimePoint(x_c - 0.5 / s.dk, t1, x_c + 0.5 / s.dK, t2)
            out += [*amplitude_parts(spec, pt), amplitude_quadrature(spec, pt)]
            if t2 >= t1:
                state = collapse(spec, MeasurementEvent(x10=x_c, t10=t1))
                out += [np.array(state.branch_profiles(t2)), state.norm(t2)]
            return out

        for t1, t2 in ((t_c, t_c), (t_c, t_c + tau), (t_c + tau, t_c)):
            for at_zero, at_moved in zip(readings(s, t1, t2),
                                         readings(moved, t1 + 0.25, t2 + 0.25)):
                np.testing.assert_allclose(at_moved, at_zero, rtol=1e-12, atol=0)


class TestQuadratureOracle:
    def test_rejects_few_nodes(self, spec_fig5):
        with pytest.raises(ValueError):
            amplitude_quadrature(spec_fig5, SpacetimePoint(0, 0, 0, 0), nodes=16)

    def test_rejects_nodes_without_finite_weights(self, spec_fig5):
        _, w = np.polynomial.hermite.hermgauss(MAX_NODES)
        assert np.sum(w) == pytest.approx(math.sqrt(math.pi), rel=1e-12)
        with pytest.raises(ValueError):
            amplitude_quadrature(spec_fig5, SpacetimePoint(0, 0, 0, 0),
                                 nodes=MAX_NODES + 1)

    @pytest.mark.parametrize("name, t, branch", [
        ("fig2", 0.885, 1),  # late: incident branch ~1e-33
        ("fig3-c", 0.1, 0),  # early: reflected branch ~1e-261
    ], ids=["fig2-late", "fig3-c-early"])
    def test_negligible_branch_per_branch(self, name, t, branch):
        """Far from one branch its integrand oscillates faster than spectrally
        centred nodes resolve; saddle-centred nodes still get it right."""
        s = PRESETS[name].wavegroup
        centre, cov = frames(s, t, t)[branch]
        pt = SpacetimePoint(centre[0] - math.sqrt(cov[0, 0]), t,
                            centre[1] + math.sqrt(cov[1, 1]), t)
        closed = amplitude_parts(s, pt)
        quad = [amplitude_quadrature(s, pt, nodes=128, part=part)
                for part in ("incident", "reflected")]
        assert 0.0 < min(abs(c) for c in closed) < 1e-30 * max(abs(c) for c in closed)
        for c, q in zip(closed, quad):
            assert abs(c - q) <= 1e-10 * abs(c)

    def test_flags_detuned_closed_form(self, spec_fig2):
        """Negative control: a closed form with reflected carriers off by 1e-4
        must disagree with the oracle, so the saddle shift has not made the
        oracle a restatement of the closed form."""
        s = spec_fig2
        t = s.collision_time
        pt = SpacetimePoint(s.collision_point - 0.3, t, s.collision_point + 0.1, t)
        quad = amplitude_quadrature(s, pt, nodes=128, part="reflected")
        assert abs(amplitude_parts(s, pt)[1] - quad) <= 1e-10 * abs(quad)
        f = _fields(s, pt.x1, pt.t1, pt.x2, pt.t2, detune=1.0001)
        detuned = np.exp(1j * _carrier_phase(s, pt.x1, pt.t1, pt.x2, pt.t2)) * f.F_ref
        assert abs(detuned - quad) > 1e-8 * abs(quad)

    def test_self_convergence(self, spec_fig5):
        s = spec_fig5
        pt = SpacetimePoint(s.collision_point - 0.4, s.collision_time,
                            s.collision_point + 0.2, s.collision_time)
        a64 = amplitude_quadrature(s, pt, nodes=64)
        a128 = amplitude_quadrature(s, pt, nodes=128)
        assert abs(a64 - a128) < 1e-10 * abs(a128)

    def test_incident_only_is_gaussian_packet_peak(self, spec_fig5):
        s = spec_fig5
        val = amplitude_quadrature(s, SpacetimePoint(s.x1c, s.t0, s.x2c, s.t0),
                                   nodes=96, part="incident")
        assert abs(val) == pytest.approx(math.sqrt(s.dk * s.dK / math.pi), rel=1e-10)

    def test_closed_matches_quadrature(self, spec_fig5, rng):
        s = spec_fig5
        for _ in range(200):
            t = rng.uniform(s.t0, s.collision_time + 2 * s.tau)
            branch = rng.integers(0, 2)
            centre, cov = frames(s, t, t)[branch]
            x1 = centre[0] + rng.uniform(-2, 2) * math.sqrt(cov[0, 0])
            x2 = centre[1] + rng.uniform(-2, 2) * math.sqrt(cov[1, 1])
            pt = SpacetimePoint(x1, t, x2, t)
            closed = stepped_amplitude(s, pt)
            quad = amplitude_quadrature(s, pt, nodes=128)
            if pt.x1 > pt.x2:
                assert closed == 0.0 and quad == 0.0
                continue
            assert abs(closed - quad) <= 1e-8 * abs(quad)

    def test_raw_integrand_trapezoid(self, spec_fig5):
        """Fully independent route: the literal spectral integral, no shifted
        variables, trapezoid over +-6 sigma in (k, K)."""
        s = spec_fig5
        p = s.params
        # the elastic collision on absolute wavevectors, as in the paper
        m, M = p.m, p.M
        a11, a12, a21, a22 = ((m - M) / (m + M), 2 * m / (m + M),
                              2 * M / (m + M), (M - m) / (m + M))
        t_c = s.collision_time
        for pt in (SpacetimePoint(s.collision_point - 0.3, t_c,
                                  s.collision_point + 0.1, t_c),
                   SpacetimePoint(s.x1c + p.v * 0.1 + 0.3, 0.1,
                                  s.x2c + p.V * 0.05 - 0.2, 0.05)):
            k = np.linspace(s.params.k - 6 * s.dk, s.params.k + 6 * s.dk, 901)[:, None]
            K = np.linspace(s.params.K - 6 * s.dK, s.params.K + 6 * s.dK, 901)[None, :]
            kr = a11 * k + a12 * K
            Kr = a21 * k + a22 * K
            amp = spectral_amplitude(s, k, K)
            phi_in = (k * pt.x1 - k**2 * pt.t1 / (2 * p.m)
                      + K * pt.x2 - K**2 * pt.t2 / (2 * p.M))
            phi_ref = (kr * pt.x1 - kr**2 * pt.t1 / (2 * p.m)
                       + Kr * pt.x2 - Kr**2 * pt.t2 / (2 * p.M))
            integrand = amp * (np.exp(1j * (phi_in % TWO_PI))
                               - np.exp(1j * (phi_ref % TWO_PI))) / TWO_PI
            brute = np.trapezoid(np.trapezoid(integrand, K[0], axis=1), k[:, 0], axis=0)
            closed = stepped_amplitude(s, pt)
            assert abs(closed - brute) < 1e-7 * abs(closed)


def _moments(w, x1, x2):
    """Mass, mean and covariance of a non-negative weight on a uniform grid."""
    total = w.sum()
    m1 = (w.sum(axis=1) @ x1) / total
    m2 = (w.sum(axis=0) @ x2) / total
    d1, d2 = x1[:, None] - m1, x2[None, :] - m2
    cov = np.array([[(w * d1 * d1).sum(), (w * d1 * d2).sum()],
                    [(w * d1 * d2).sum(), (w * d2 * d2).sum()]]) / total
    return total * (x1[1] - x1[0]) * (x2[1] - x2[0]), np.array([m1, m2]), cov


def _exact_branch_moments(spec, reflected, t1, t2):
    """Exact rational moments of a branch's complex Gaussian form (the
    ``wavegroup`` module docstring) at (t1, t2). The float A, E, shared
    displacements ut = u tau, recoil c kq and centres xc are built from the
    spec in floating point, then taken as exact: the centre, Sigma =
    (2 E Re(A^{-1}) E^T)^{-1}, and per axis Re(kappa) = w^T Re(A^{-1}) w,
    w = E^T e_axis, with the function that maps the other coordinate to the
    conditional centre -b0^T Re(A^{-1}) w / Re(kappa). Complex numbers are
    (re, im) pairs."""
    p = spec.params
    tau1, tau2 = t1 - spec.t0, t2 - spec.t0
    c1, c2 = p.hbar * tau1 / p.m, p.hbar * tau2 / p.M
    (e11, e12), (e21, e22) = p.collision_matrix if reflected else ((1.0, 0.0), (0.0, 1.0))
    kq = (-2.0 * p.k_rel, 2.0 * p.k_rel) if reflected else (0.0, 0.0)
    float_a = (1.0 / spec.dk**2 + 1j * (c1 * e11 * e11 + c2 * e21 * e21),
               1j * (c1 * e11 * e12 + c2 * e21 * e22),
               1.0 / spec.dK**2 + 1j * (c1 * e12 * e12 + c2 * e22 * e22))
    ut, recoil = (p.v * tau1, p.V * tau2), (c1 * kq[0], c2 * kq[1])
    xc = (spec.x1c, spec.x2c)

    F = Fraction
    (a1r, a1i), (a2r, a2i), (a3r, a3i) = ((F(z.real), F(z.imag)) for z in float_a)
    # Re(A^{-1}) = Re(adj(A) conj(det A)) / |det A|^2
    dr = a1r * a3r - a1i * a3i - a2r * a2r + a2i * a2i
    di = a1r * a3i + a1i * a3r - 2 * a2r * a2i
    mag = dr * dr + di * di
    adj = ((a3r, a3i), (-a2r, -a2i), (a1r, a1i))
    r11, r12, r22 = ((xr * dr + xi * di) / mag for xr, xi in adj)
    re_ainv = ((r11, r12), (r12, r22))
    E = [[F(e) for e in row] for row in ((e11, e12), (e21, e22))]
    m = [[2 * sum(E[i][k] * re_ainv[k][l] * E[j][l] for k in (0, 1) for l in (0, 1))
          for j in (0, 1)] for i in (0, 1)]
    det_m = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    cov = ((m[1][1] / det_m, -m[0][1] / det_m), (-m[1][0] / det_m, m[0][0] / det_m))
    shift = [F(u) + F(r) for u, r in zip(ut, recoil)]
    x1c, x2c = (F(x) for x in xc)
    det_e = E[0][0] * E[1][1] - E[0][1] * E[1][0]
    centre = (shift[0] + (E[1][1] * x1c - E[1][0] * x2c) / det_e,
              shift[1] + (E[0][0] * x2c - E[0][1] * x1c) / det_e)

    def along(axis):
        w = E[axis]
        re_kappa = sum(w[k] * re_ainv[k][l] * w[l] for k in (0, 1) for l in (0, 1))

        def conditional_centre(other):
            y = [-shift[0], -shift[1]]
            y[1 - axis] += F(other)
            b0 = [E[0][k] * y[0] + E[1][k] * y[1] - F(x) for k, x in zip((0, 1), xc)]
            slope = sum(b0[k] * re_ainv[k][l] * w[l] for k in (0, 1) for l in (0, 1))
            return -slope / re_kappa
        return re_kappa, conditional_centre

    return centre, cov, along


def _extreme_width_ratio_spec():
    """The dk/dK = 4.4e-9 spec of test_t2_invariance_extreme_width_ratio."""
    p = PhysicalParams.natural(M=31.89006512464583, v=0.0017268940434955503,
                               V=0.0014486448780483593)
    dk, dK = 1.607436826082042e-05, 3671.8873168148248
    return WavegroupSpec(p, dk=dk, dK=dK, x1c=-8.0 * (1 / dk + 1 / dK), x2c=0.0)


class TestBranchFrames:
    """Frames and conditional profiles come from the branch form alone; the
    moments of each branch's own |F|^2 on a grid must reproduce them, and so
    must exact rational arithmetic on the same float form."""

    @staticmethod
    def _times(s):
        t_c, tau = s.collision_time, s.tau
        return ((s.t0, s.t0), (t_c, t_c + 0.5 * tau), (t_c + 2 * tau, t_c + 2 * tau))

    @pytest.mark.parametrize("name", ["fig2", "fig5", "fig6-m1"])
    def test_frames_match_branch_moments(self, name):
        s = PRESETS[name].wavegroup
        for t1, t2 in self._times(s):
            for (centre, cov), part in zip(frames(s, t1, t2), ("F_in", "F_ref")):
                half = 10.0 * np.sqrt(np.diag(cov))
                x1 = np.linspace(centre[0] - half[0], centre[0] + half[0], 801)
                x2 = np.linspace(centre[1] - half[1], centre[1] + half[1], 801)
                f = _fields(s, x1[:, None], t1, x2[None, :], t2)
                mass, mean, var = _moments(np.abs(getattr(f, part)) ** 2, x1, x2)
                sig = np.sqrt(np.diag(cov))
                assert mass == pytest.approx(1.0, abs=1e-9)  # |det E| = 1
                np.testing.assert_allclose(mean, centre, rtol=0, atol=1e-9 * sig.max())
                np.testing.assert_allclose(var, cov, rtol=0,
                                           atol=1e-8 * np.outer(sig, sig).max())

    @pytest.mark.parametrize("name", ["fig2", "fig5", "fig6-m1"])
    def test_conditional_profiles_match_branch_moments(self, name):
        s = PRESETS[name].wavegroup
        ev = MeasurementEvent(x10=s.collision_point, t10=s.collision_time)
        state = collapse(s, ev)
        for t2 in ev.t10 + s.tau * np.array([0.0, 1.0, 2.0]):
            profiles = state.branch_profiles(t2)
            for (centre, sigma, weight), part in zip(profiles, ("F_in", "F_ref")):
                x2 = np.linspace(centre - 10 * sigma, centre + 10 * sigma, 4001)
                amp = getattr(_fields(s, ev.x10, ev.t10, x2, t2), part)
                w = np.abs(amp) ** 2
                mean = (w @ x2) / w.sum()
                std = math.sqrt((w @ (x2 - mean) ** 2) / w.sum())
                assert abs(mean - centre) < 1e-9 * sigma
                assert std == pytest.approx(sigma, rel=1e-9)
                at_centre = getattr(_fields(s, ev.x10, ev.t10, centre, t2), part)
                assert weight == pytest.approx(abs(at_centre), rel=1e-12)

    @staticmethod
    def _check_exact(spec, t1, t2, centres_too=True):
        density = _density_form(spec, t1, t2)
        for branch, (centre, cov) in enumerate(frames(spec, t1, t2)):
            ref_centre, ref_cov, along = _exact_branch_moments(spec, branch == 1, t1, t2)
            sig = [math.sqrt(ref_cov[i][i]) for i in (0, 1)]
            for i in (0, 1):
                for j in (0, 1):
                    assert abs(cov[i, j] - float(ref_cov[i][j])) <= 1e-14 * sig[i] * sig[j]
                if centres_too:
                    assert abs(centre[i] - float(ref_centre[i])) <= 1e-7 * sig[i]
            for axis in (0, 1):
                re_kappa, conditional_centre = along(axis)
                other = float(ref_centre[1 - axis]) + sig[1 - axis]
                s, _ = density.peaks(axis, other)[branch]
                c, mr_ii = density.centre(axis) + s, density.kappa(axis)[branch].real
                assert abs(mr_ii - float(re_kappa)) <= 1e-14 * float(re_kappa)
                if centres_too:
                    width = 1.0 / math.sqrt(2.0 * float(re_kappa))
                    assert abs(c - float(conditional_centre(other))) <= 1e-7 * width

    def test_moments_match_exact_arithmetic(self):
        # centres are checked on the named cases only: on random draws a
        # centre is limited by ulp(|x|) / sigma, which the form cannot help
        specs = [PRESETS[n].wavegroup for n in ("fig5", "fig7-d", "fig8")]
        for s in specs + [_extreme_width_ratio_spec()]:
            t_c, tau = s.collision_time, s.tau
            for k in (0.0, 1.0, 3.0):
                self._check_exact(s, t_c, t_c + k * tau)
                self._check_exact(s, t_c + k * tau, t_c + k * tau)
        rng = np.random.default_rng(20140501)
        for _ in range(100):
            p = PhysicalParams.natural(M=10.0 ** rng.uniform(0.0, 20.0),
                                       v=1.0, V=1.0 - 10.0 ** rng.uniform(-3.0, 0.0))
            dk = 10.0 ** rng.uniform(-3.0, 1.0)
            dK = dk / 10.0 ** rng.uniform(-9.0, 1.0)
            s = WavegroupSpec(p, dk=dk, dK=dK, x1c=-8.0 * (1 / dk + 1 / dK), x2c=0.0)
            t1, t2 = s.collision_time + s.tau * rng.uniform(-1.0, 4.0, 2)
            self._check_exact(s, t1, t2, centres_too=False)


class TestHalfPlaneMoments:
    @pytest.mark.parametrize("name", ["fig5", "fig6-m1"])
    @pytest.mark.parametrize("when", ["t_c", "mirror-later", "particle-later"])
    def test_against_traced_marginals(self, name, when):
        # each marginal traced on 65,537 points over 12 sigma either side of
        # both packets, by the trapezoid; the smooth two-time form holds no unit
        # mass once t1 != t2. Worst measured: mass 1.3e-15 relative, mean 2.4e-15
        # of the width, variance 2.2e-15
        s = PRESETS[name].wavegroup
        t_c = PRESETS[name].collision_time
        t1, t2 = {"t_c": (t_c, t_c), "mirror-later": (t_c, t_c + 0.5 * s.tau),
                  "particle-later": (t_c + 0.5 * s.tau, t_c)}[when]
        mass, mean, var = _half_plane_moments(s, t1, t2)
        packets = frames(s, t1, t2)
        for axis, marginal in ((0, marginal_over_mirror), (1, marginal_over_particle)):
            lo, hi = (min(c[axis] - 12.0 * math.sqrt(cov[axis, axis]) for c, cov in packets),
                      max(c[axis] + 12.0 * math.sqrt(cov[axis, axis]) for c, cov in packets))
            x = np.linspace(lo, hi, 65537)
            y = marginal(s, x, t1, t2).y
            m = np.trapezoid(y, x)
            mu = np.trapezoid(x * y, x) / m
            v = np.trapezoid((x - mu) ** 2 * y, x) / m
            assert mass == pytest.approx(m, rel=2e-15, abs=0.0)
            assert abs(mean[axis] - mu) <= 1e-14 * math.sqrt(v)
            assert var[axis] == pytest.approx(v, rel=1e-14, abs=0.0)

    def test_a_negative_variance_is_a_named_error(self):
        # r183 at t_c + 2.5 tau: rounding leaves the variances (-1.2e4, 3.3e6),
        # whose square root would be a bare math domain error. Nothing left the
        # floating-point range, so the error names the lost precision
        s = sweep_spec("r183")
        t = s.collision_time + 2.5 * s.tau
        with pytest.raises(ValueError, match=r"^half-plane moments at t1=\S+, t2=\S+ lost "
                           r"precision: rounding left the mass \S+ and the variances -") as err:
            _half_plane_moments(s, t, t)
        assert "floating-point range" not in str(err.value)

    def test_a_zero_curvature_is_a_named_error_alone(self):
        # r197 at t0: the half-line integral divides by a curvature that has
        # rounded to 0; the error comes with no RuntimeWarning before it
        s = sweep_spec("r197")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^half-plane moments at t1=0, t2=0 is beyond"):
                _half_plane_moments(s, s.t0, s.t0)


class TestFormsOverTimes:
    """Over an axis of mirror times each branch is one real form whose entries
    that depend on t2 are arrays; at each t2 it is the form built there alone.
    Arithmetic is elementwise, so every entry is bitwise the scalar one, except
    log0 and arg0, which take numpy's log and arctan2 over an axis and math's
    on a float."""

    @staticmethod
    def _entries(form):
        return {"cov": [v for row in form.cov for v in row],
                "mr": list(form.mr), "mi": list(form.mi), "log0": [form.log0],
                "arg0": [form.arg0]}

    @pytest.mark.parametrize("name", ["fig4", "fig5", "fig8", "fig9"])
    def test_axis_of_times_matches_each_time(self, name):
        sc = PRESETS[name]
        s, ev = sc.wavegroup, resolve_event(sc, sc.events[0])
        t2 = _beat_window(sc, ev)  # the beat analysis's 900 times
        def forms(t):
            return _form(s, False, ev.t10, t), _form(s, True, ev.t10, t)

        at_each = [forms(float(t)) for t in t2]
        for branch, form in enumerate(forms(t2)):
            for field, values in self._entries(form).items():
                for k, value in enumerate(values):
                    got = np.broadcast_to(value, t2.shape)
                    want = np.array([self._entries(f[branch])[field][k] for f in at_each])
                    if field in ("log0", "arg0"):
                        assert np.all(np.abs(got - want) <= 4e-16 * np.abs(want)), (field, branch)
                    else:
                        assert got.tobytes() == want.tobytes(), (field, k, branch)


class TestDensityPhase:
    """The phase half of ``_Density.log_axis``, (theta, e, d), is bitwise what
    the phase formula, written out here, gives."""

    @staticmethod
    def _one_pass(density, j, x):
        ut_hi, ut_lo = density.ut[j]
        e = ((x - ut_hi) - density.xc[j]) - ut_lo
        d = e - density.delta[j]
        qr, qi = 0.25 * density.f_ref.mi[2 * j], 0.25 * density.f_in.mi[2 * j]
        c = density.theta0 if j == 0 else 0.0
        cycles = density.cycles[j]
        w, w_err = _two_prod(x, cycles[0])
        w_err = w_err + x * cycles[1]
        theta = math.pi * ((w - np.rint(w)) + w_err) + ((qr * (d * d) - qi * (e * e)) + c)
        return theta, e, d

    @pytest.mark.parametrize("name, detune", [("fig5", 1.0), ("fig8", 1.0), ("fig5", 1.1)])
    def test_phase_is_bitwise_the_axis_phase(self, name, detune):
        s = PRESETS[name].wavegroup
        t_c, tau = s.collision_time, s.tau
        for t1, t2 in ((t_c, t_c), (t_c, t_c + 2.0 * tau), (t_c + tau, t_c)):
            density = _density_form(s, t1, t2, detune)
            for centre, cov in frames(s, t1, t2):
                for j in (0, 1):
                    half = 10.0 * math.sqrt(cov[j, j])
                    x = np.linspace(centre[j] - half, centre[j] + half, 1001)
                    for pts in (x, float(x[317])):
                        got = density.log_axis(j, pts)[2:]
                        for a, b in zip(got, self._one_pass(density, j, pts), strict=True):
                            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


class TestConstantsPerSpec:
    """A spec builds its time-independent constants once and keeps them
    (``WavegroupSpec._constants``); each branch's form and the density's
    coefficients built from them at any times are bitwise the formulas
    written out here, every constant evaluated again at each time."""

    @staticmethod
    def _form(spec, reflected, t1, t2):
        p = spec.params
        tau1, tau2 = t1 - spec.t0, t2 - spec.t0
        c1, c2 = p.hbar * tau1 / p.m, p.hbar * tau2 / p.M
        (e11, e12), (e21, e22) = p.collision_matrix if reflected else ((1.0, 0.0), (0.0, 1.0))
        det_e = e11 * e22 - e12 * e21
        s1, s2 = 1.0 / (1.0 / spec.dk**2), 1.0 / (1.0 / spec.dK**2)
        det_q = det_e * det_e * s1 * s2
        q11 = e11 * e11 * s1 + e12 * e12 * s2
        q12 = e11 * e21 * s1 + e12 * e22 * s2
        q22 = e21 * e21 * s1 + e22 * e22 * s2
        p11, p12, p22 = q22 / det_q, -q12 / det_q, q11 / det_q
        cov12 = 0.5 * (p12 + c1 * c2 * q12)
        cov = ((0.5 * (p11 + c1 * c1 * q11), cov12), (cov12, 0.5 * (p22 + c2 * c2 * q22)))
        det_p = 1.0 / det_q
        dd = (det_p * det_p + c1 * c1 * c2 * c2 + c1 * c1 * p22 * p22
              + c2 * c2 * p11 * p11 + 2.0 * c1 * c2 * p12 * p12)
        mr = ((p22 * det_p + c2 * c2 * p11) / dd, -p12 * (det_p - c1 * c2) / dd,
              (p11 * det_p + c1 * c1 * p22) / dd)
        mi = (-(c1 * p22 * p22 + c1 * c2 * c2 + c2 * p12 * p12) / dd,
              p12 * (c1 * p22 + c2 * p11) / dd,
              -(c2 * p11 * p11 + c1 * c1 * c2 + c1 * p12 * p12) / dd)
        log, atan2 = (np.log, np.arctan2) if isinstance(dd, np.ndarray) else (math.log, math.atan2)
        return _Form(cov=cov, log0=-0.25 * log(math.pi * math.pi * dd * det_q),
                     arg0=-0.5 * atan2(c1 * p22 + c2 * p11, det_p - c1 * c2), mr=mr, mi=mi)

    @classmethod
    def _density(cls, spec, t1, t2, detune):
        p = spec.params
        f_in, f_ref = cls._form(spec, False, t1, t2), cls._form(spec, True, t1, t2)
        tau1, tau2 = t1 - spec.t0, t2 - spec.t0
        kq = 2.0 * p.k_rel
        a12, sep = p.collision_matrix[0][1], spec.x2c - spec.x1c
        delta = (p.hbar * tau1 / p.m * -kq + (2.0 - a12) * sep,
                 p.hbar * tau2 / p.M * kq - a12 * sep)
        offset = ((detune - 1.0) * (p.k - kq), (detune - 1.0) * (p.K + kq))
        k_hi, k_lo = _k_rel_dd(p)
        kick = (k_hi - 0.5 * offset[0], -k_hi - 0.5 * offset[1])
        const = f_in.arg0 - f_ref.arg0 - 2.0 * beat_frequency(p) * (tau1 - tau2) + 0.0
        remainder = np.remainder if isinstance(const, np.ndarray) else math.remainder
        return _Density(f_in=f_in, f_ref=f_ref, ut=(_two_prod(p.v, tau1), _two_prod(p.V, tau2)),
                        xc=(spec.x1c, spec.x2c), delta=delta,
                        cycles=(_over_pi(kick[0], k_lo), _over_pi(kick[1], -k_lo)), kick=kick,
                        theta0=0.5 * remainder(const, TWO_PI), weight=1.0)

    @staticmethod
    def _leaves(obj):
        if isinstance(obj, tuple):
            return [leaf for item in obj for leaf in TestConstantsPerSpec._leaves(item)]
        return [np.asarray(obj, dtype=float)]

    def _check(self, spec, t1, t2, detune=1.0):
        for reflected in (False, True):
            got, want = _form(spec, reflected, t1, t2), self._form(spec, reflected, t1, t2)
            for field, a, b in zip(_Form._fields, got, want):
                for x, y in zip(self._leaves(a), self._leaves(b), strict=True):
                    assert (x.shape, x.tobytes()) == (y.shape, y.tobytes()), (field, reflected)
        got, want = _density_form(spec, t1, t2, detune), self._density(spec, t1, t2, detune)
        for field, a, b in zip(_Density._fields, got, want):
            for x, y in zip(self._leaves(a), self._leaves(b), strict=True):
                assert (x.shape, x.tobytes()) == (y.shape, y.tobytes()), field

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_forms_are_the_written_out_formulas(self, name):
        s = PRESETS[name].wavegroup
        t_c, tau = s.collision_time, s.tau
        for detune in (1.0, 1.05):
            self._check(s, t_c, t_c + tau, detune)

    def test_over_the_beat_times(self):
        sc = PRESETS["fig9"]
        ev = resolve_event(sc, sc.events[0])
        self._check(sc.wavegroup, ev.t10, _beat_window(sc, ev))

    def test_replaced_spec_builds_its_own(self):
        s = PRESETS["fig5"].wavegroup
        wider = dataclasses.replace(s, dK=2.0 * s.dK)
        assert wider._constants.spread != s._constants.spread
        assert s._constants is s._constants  # kept, not rebuilt
        t_c, tau = wider.collision_time, wider.tau
        self._check(wider, t_c, t_c + tau)
        # the kept constants are no field: equality and hashing see the fields alone
        same = dataclasses.replace(s)
        assert same == s and hash(same) == hash(s) and "_constants" not in vars(same)
