import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from mirrorsim import (MeasurementEvent, PhysicalParams, SpacetimePoint,
                       WavegroupSpec, amplitude_closed, amplitude_parts,
                       amplitude_quadrature, collapse, currents, joint_pdf,
                       marginal_over_mirror, marginal_over_particle,
                       spectral_amplitude)
from mirrorsim.scenario import PRESETS
from mirrorsim.wavegroup import (_MAX_NODES, _axis_square, _branch, _carrier_phase,
                                 _fields, _log_gauss2, frames)

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
        val = spectral_amplitude(spec_fig5, spec_fig5.params.k, spec_fig5.params.K)
        assert abs(val) == pytest.approx(spec_fig5.norm_const, rel=1e-14)

    def test_width_falloff(self, spec_fig5):
        s = spec_fig5
        k0, K0 = s.params.k, s.params.K
        for k, K in ((k0 + s.dk, K0), (k0 - s.dk, K0),
                     (k0, K0 + s.dK), (k0, K0 - s.dK)):
            ratio = abs(spectral_amplitude(s, k, K)) / s.norm_const
            assert ratio == pytest.approx(math.exp(-0.5), rel=1e-13)

    def test_unit_spectral_norm(self, spec_fig5):
        s = spec_fig5
        k = np.linspace(s.params.k - 6 * s.dk, s.params.k + 6 * s.dk, 801)
        K = np.linspace(s.params.K - 6 * s.dK, s.params.K + 6 * s.dK, 801)
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
        _, w = np.polynomial.hermite.hermgauss(_MAX_NODES)
        assert np.sum(w) == pytest.approx(math.sqrt(math.pi), rel=1e-12)
        with pytest.raises(ValueError):
            amplitude_quadrature(spec_fig5, SpacetimePoint(0, 0, 0, 0),
                                 nodes=_MAX_NODES + 1)

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


def _exact_branch_moments(br):
    """Exact rational moments of a branch form whose float A, E, ut, recoil and
    xc are taken as exact: the centre, Sigma = (2 E Re(A^{-1}) E^T)^{-1}, and
    per axis Re(kappa) = w^T Re(A^{-1}) w, w = E^T e_axis, with the function
    that maps the other coordinate to the conditional centre
    -b0^T Re(A^{-1}) w / Re(kappa). Complex numbers are (re, im) pairs."""
    F = Fraction
    (a1r, a1i), (a2r, a2i), (a3r, a3i) = ((F(z.real), F(z.imag)) for z in br.A)
    # Re(A^{-1}) = Re(adj(A) conj(det A)) / |det A|^2
    dr = a1r * a3r - a1i * a3i - a2r * a2r + a2i * a2i
    di = a1r * a3i + a1i * a3r - 2 * a2r * a2i
    mag = dr * dr + di * di
    adj = ((a3r, a3i), (-a2r, -a2i), (a1r, a1i))
    r11, r12, r22 = ((xr * dr + xi * di) / mag for xr, xi in adj)
    re_ainv = ((r11, r12), (r12, r22))
    E = [[F(e) for e in row] for row in br.E]
    m = [[2 * sum(E[i][k] * re_ainv[k][l] * E[j][l] for k in (0, 1) for l in (0, 1))
          for j in (0, 1)] for i in (0, 1)]
    det_m = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    cov = ((m[1][1] / det_m, -m[0][1] / det_m), (-m[1][0] / det_m, m[0][0] / det_m))
    shift = [F(u) + F(r) for u, r in zip(br.ut, br.recoil)]
    x1c, x2c = (F(x) for x in br.xc)
    det_e = E[0][0] * E[1][1] - E[0][1] * E[1][0]
    centre = (shift[0] + (E[1][1] * x1c - E[1][0] * x2c) / det_e,
              shift[1] + (E[0][0] * x2c - E[0][1] * x1c) / det_e)

    def along(axis):
        w = E[axis]
        re_kappa = sum(w[k] * re_ainv[k][l] * w[l] for k in (0, 1) for l in (0, 1))

        def conditional_centre(other):
            y = [-shift[0], -shift[1]]
            y[1 - axis] += F(other)
            b0 = [E[0][k] * y[0] + E[1][k] * y[1] - F(x) for k, x in zip((0, 1), br.xc)]
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
        for reflected, (centre, cov) in zip((False, True), frames(spec, t1, t2)):
            br = _branch(spec, reflected, t1, t2)
            ref_centre, ref_cov, along = _exact_branch_moments(br)
            sig = [math.sqrt(ref_cov[i][i]) for i in (0, 1)]
            for i in (0, 1):
                for j in (0, 1):
                    assert abs(cov[i, j] - float(ref_cov[i][j])) <= 1e-14 * sig[i] * sig[j]
                if centres_too:
                    assert abs(centre[i] - float(ref_centre[i])) <= 1e-7 * sig[i]
            for axis in (0, 1):
                re_kappa, conditional_centre = along(axis)
                other = float(ref_centre[1 - axis]) + sig[1 - axis]
                c, kappa = _axis_square(br, axis, other)
                assert abs(kappa.real - float(re_kappa)) <= 1e-14 * float(re_kappa)
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
