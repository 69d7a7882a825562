import math

import numpy as np
import pytest

from mirrorsim import (MeasurementEvent, PhysicalParams, SpacetimePoint,
                       WavegroupSpec, amplitude_closed, amplitude_parts,
                       amplitude_quadrature, collapse, joint_pdf,
                       spectral_amplitude)
from mirrorsim.scenario import PRESETS
from mirrorsim.wavegroup import (_MAX_NODES, _fields, _log_gauss2, incident_frame,
                                 reflected_frame)

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


def random_pd_form(rng, b_scale=1.0):
    L = rng.normal(size=(2, 2))
    D = L @ L.T + 0.5 * np.eye(2)
    S = rng.normal(size=(2, 2))
    S = 0.5 * (S + S.T) * rng.uniform(0.2, 2.0)
    A = D + 1j * S
    b = (rng.normal(size=2) + 1j * rng.normal(size=2)) * b_scale
    return A, b, complex(rng.normal(), rng.normal())


def gauss2(A, b, c=0.0):
    """Integral of exp(-u^T A u / 2 + b^T u + c) over R^2 by the kernel's
    evaluator, whose linear term is i beta^T u, so beta = -i b."""
    log_val, _, _ = _log_gauss2(A[0, 0], A[0, 1], A[1, 1], -1j * b[0], -1j * b[1], c)
    return complex(np.exp(log_val))


class TestGaussianIntegral:
    def test_identity_matrix(self):
        assert gauss2(np.eye(2, dtype=complex), np.zeros(2)) == pytest.approx(
            TWO_PI, rel=1e-14)

    def test_isotropic_scaling(self):
        for a in (0.5, 2.0, 7.0):
            val = gauss2(a * np.eye(2, dtype=complex), np.zeros(2))
            assert val == pytest.approx(TWO_PI / a, rel=1e-14)

    def test_against_trapezoid_oracle(self, rng):
        for _ in range(12):
            A, b, c = random_pd_form(rng)
            closed = gauss2(A, b, c)
            brute = trapezoid_gaussian_2d(A, b, c)
            assert abs(closed - brute) / abs(closed) < 1e-8

    def test_branch_continuity(self, rng):
        # value must vary continuously as Im(A) grows from zero
        S = np.array([[3.0, 1.0], [1.0, -2.0]])
        prev = None
        for theta in np.linspace(0.0, 40.0, 400):
            val = gauss2(np.eye(2) + 1j * theta * S, np.zeros(2))
            if prev is not None:
                assert abs(val - prev) < 0.2 * abs(prev) + 1e-12
            prev = val


class TestSpectralAmplitude:
    def test_peak_modulus_is_norm_const(self, spec_fig5):
        val = spectral_amplitude(spec_fig5, spec_fig5.k0, spec_fig5.K0)
        assert abs(val) == pytest.approx(spec_fig5.norm_const, rel=1e-14)

    def test_width_falloff(self, spec_fig5):
        s = spec_fig5
        for k, K in ((s.k0 + s.dk, s.K0), (s.k0 - s.dk, s.K0),
                     (s.k0, s.K0 + s.dK), (s.k0, s.K0 - s.dK)):
            ratio = abs(spectral_amplitude(s, k, K)) / s.norm_const
            assert ratio == pytest.approx(math.exp(-0.5), rel=1e-13)

    def test_unit_spectral_norm(self, spec_fig5):
        s = spec_fig5
        k = np.linspace(s.k0 - 6 * s.dk, s.k0 + 6 * s.dk, 801)
        K = np.linspace(s.K0 - 6 * s.dK, s.K0 + 6 * s.dK, 801)
        dens = np.abs(spectral_amplitude(s, k[:, None], K[None, :])) ** 2
        total = np.trapezoid(np.trapezoid(dens, K, axis=1), k, axis=0)
        assert total == pytest.approx(1.0, abs=1e-8)


class TestSpecInvariants:
    def test_rejects_bad_widths(self, params_fig5):
        with pytest.raises(ValueError):
            WavegroupSpec(params_fig5, dk=0.0, dK=2.0, x1c=-10, x2c=0)

    def test_rejects_wrong_order(self, params_fig5):
        with pytest.raises(ValueError):
            WavegroupSpec(params_fig5, dk=1.0, dK=2.0, x1c=1.0, x2c=0.0)

    def test_rejects_close_centres(self, params_fig5):
        with pytest.raises(ValueError):
            WavegroupSpec(params_fig5, dk=1.0, dK=2.0, x1c=-6.0, x2c=0.0)

    def test_wrong_side_defect_small(self, spec_fig5):
        assert spec_fig5.wrong_side_defect() < 1e-6


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
            amp = amplitude_closed(spec_fig5, SpacetimePoint(x, t, x, t))
            assert abs(amp) < 1e-10 * peak

    def test_dead_zone(self, spec_fig5):
        assert amplitude_closed(spec_fig5, SpacetimePoint(1.0, 0.1, 0.0, 0.1)) == 0.0

    def test_incident_peak_amplitude(self, spec_fig5):
        s = spec_fig5
        i_in, _ = amplitude_parts(s, SpacetimePoint(s.x1c, s.t0, s.x2c, s.t0))
        assert abs(i_in) == pytest.approx(math.sqrt(s.dk * s.dK / math.pi), rel=1e-12)

    def test_dispersion_monotone(self, spec_fig5):
        widths = [math.sqrt(incident_frame(spec_fig5, t, t)[1][0, 0])
                  for t in (0.0, 0.1, 0.3, 0.6)]
        assert all(b > a for a, b in zip(widths, widths[1:]))

    def test_fringe_stationarity(self, spec_fig2):
        # deep minima near the overlap centre stay put (to 2% of a fringe)
        # while the envelopes themselves move sixty times faster
        s = spec_fig2
        t_c = s.collision_time
        fringe = math.pi / s.K_rel0
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


class TestQuadratureOracle:
    def test_rejects_few_nodes(self, spec_fig5):
        with pytest.raises(ValueError):
            amplitude_quadrature(spec_fig5, SpacetimePoint(0, 0, 0, 0), nodes=16)

    def test_rejects_nodes_without_finite_weights(self, spec_fig5):
        _, w = np.polynomial.hermite.hermgauss(_MAX_NODES)
        assert np.sum(w) == pytest.approx(math.sqrt(math.pi), rel=1e-12)
        with pytest.raises(ValueError):
            amplitude_quadrature(spec_fig5, SpacetimePoint(0, 0, 0, 0),
                                 nodes=_MAX_NODES + 1)

    @pytest.mark.parametrize("name, t, frame", [
        ("fig2", 0.885, reflected_frame),  # late: incident branch ~1e-33
        ("fig3-c", 0.1, incident_frame),   # early: reflected branch ~1e-261
    ], ids=["fig2-late", "fig3-c-early"])
    def test_negligible_branch_per_branch(self, name, t, frame):
        """Far from one branch its integrand oscillates faster than spectrally
        centred nodes resolve; saddle-centred nodes still get it right."""
        s = PRESETS[name].wavegroup
        centre, cov = frame(s, t, t)
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
        detuned = np.exp(1j * f.phase0) * f.F_ref
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
            frame = incident_frame if branch == 0 else reflected_frame
            centre, cov = frame(s, t, t)
            x1 = centre[0] + rng.uniform(-2, 2) * math.sqrt(cov[0, 0])
            x2 = centre[1] + rng.uniform(-2, 2) * math.sqrt(cov[1, 1])
            pt = SpacetimePoint(x1, t, x2, t)
            closed = amplitude_closed(s, pt)
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
            k = np.linspace(s.k0 - 6 * s.dk, s.k0 + 6 * s.dk, 901)[:, None]
            K = np.linspace(s.K0 - 6 * s.dK, s.K0 + 6 * s.dK, 901)[None, :]
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
            closed = amplitude_closed(s, pt)
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


class TestBranchFrames:
    """Frames and conditional profiles come from the branch form alone; the
    moments of each branch's own |F|^2 on a grid must reproduce them."""

    @staticmethod
    def _times(s):
        t_c, tau = s.collision_time, s.tau
        return ((s.t0, s.t0), (t_c, t_c + 0.5 * tau), (t_c + 2 * tau, t_c + 2 * tau))

    @pytest.mark.parametrize("name", ["fig2", "fig5", "fig6-m1"])
    def test_frames_match_branch_moments(self, name):
        s = PRESETS[name].wavegroup
        for t1, t2 in self._times(s):
            for frame, part in ((incident_frame, "F_in"), (reflected_frame, "F_ref")):
                centre, cov = frame(s, t1, t2)
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
