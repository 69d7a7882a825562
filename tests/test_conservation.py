import math

import numpy as np
import pytest

from mirrorsim import (PhysicalParams, SpacetimePoint,
                       WavegroupSpec, beat_frequency, collapse, continuity_residual,
                       convergence_order, currents, fringe_period, joint_pdf)
from mirrorsim.conservation import (ContinuityResidual, UnderResolvedStepWarning,
                                    _harmonic_currents)
from mirrorsim.measurement import MeasurementEvent
from mirrorsim.scenario import PRESETS
from conftest import reflected_pair


def cont_setup():
    sc = PRESETS["cont"]
    s = sc.wavegroup
    p = sc.params
    t_c = s.collision_time
    x_c = s.collision_point
    fringe = math.pi / s.params.k_rel
    h = fringe / 40.0
    v_bar = s.beat0 / s.params.k_rel  # pattern speed hbar (k0 + K0) / (m + M)
    steps = (h, h, h / v_bar, h / v_bar)
    x1 = x_c - 0.2 / s.dk + np.arange(7) * h
    x2 = x_c + 0.2 / s.dk + np.arange(7) * h
    return s, p, t_c, x1, x2, steps


class TestCurrents:
    def test_standing_wave_has_no_current(self):
        # opposite momenta (mv = -MV): the superposition is a standing wave
        p = PhysicalParams.natural(M=4.0, v=1.0, V=-0.25)
        assert p.k + reflected_pair(p)[0] == pytest.approx(0.0, abs=1e-13)
        j1, j2 = _harmonic_currents(p, 0.2, 0.0, 0.8, 0.0)
        assert abs(j1) < 1e-12
        assert abs(j2) < 1e-12

    def test_wavegroup_current_vs_finite_difference(self, spec_fig5):
        s = spec_fig5
        t_c = s.collision_time
        x_c = s.collision_point
        h = 1e-4 / max(s.params.k, abs(s.params.K))
        pts = [(x_c - 0.3, t_c, x_c + 0.2, t_c),
               (x_c, t_c, x_c, t_c),  # node of the standing structure
               (x_c - 0.8, t_c + 0.1 * s.tau, x_c + 0.5, t_c - 0.05 * s.tau)]
        for x1, t1, x2, t2 in pts:
            j1, j2 = currents(s, x1, t1, x2, t2)

            def amp(a, b, c, d):
                from mirrorsim.wavegroup import _carrier_phase, _fields
                f = _fields(s, a, b, c, d)
                return np.exp(1j * _carrier_phase(s, a, b, c, d)) * (f.F_in - f.F_ref)

            psi = amp(x1, t1, x2, t2)
            d1 = (amp(x1 + h, t1, x2, t2) - amp(x1 - h, t1, x2, t2)) / (2 * h)
            d2 = (amp(x1, t1, x2 + h, t2) - amp(x1, t1, x2 - h, t2)) / (2 * h)
            j1_fd = s.params.hbar / s.params.m * float(np.imag(np.conj(psi) * d1))
            j2_fd = s.params.hbar / s.params.M * float(np.imag(np.conj(psi) * d2))
            scale = max(abs(j1), abs(j2))
            assert abs(j1 - j1_fd) < 1e-8 * scale
            assert abs(j2 - j2_fd) < 1e-8 * scale

    def test_current_at_node_is_finite(self, spec_fig5):
        s = spec_fig5
        t_c = s.collision_time
        x_c = s.collision_point
        pt = SpacetimePoint(x_c, t_c, x_c, t_c)
        assert joint_pdf(s, pt.x1, pt.t1, pt.x2, pt.t2) < 1e-10
        j1, j2 = currents(s, pt.x1, pt.t1, pt.x2, pt.t2)
        assert np.isfinite(j1) and np.isfinite(j2)
        assert abs(j1) > 0  # currents need not vanish at density nodes

    def test_public_dispatch_harmonic(self, spec_fig5):
        p = spec_fig5.params
        pt = SpacetimePoint(0.2, 0.05, 0.9, 0.1)
        j1 = _harmonic_currents(p, pt.x1, pt.t1, pt.x2, pt.t2)[0]
        expected = (p.hbar * (p.k + reflected_pair(p)[0]) / (2 * p.m)
                    * float(np.asarray(
                        _harmonic_pdf_for_test(p, pt))))
        assert j1 == pytest.approx(expected, rel=1e-12)


def _harmonic_pdf_for_test(p, pt):
    from mirrorsim import interference_pdf
    return interference_pdf(p, pt)


class TestContinuityResidual:
    def test_harmonic_eigenstate(self, spec_fig5):
        p = spec_fig5.params
        fringe = fringe_period(p)
        h = fringe / 40.0
        mode_vbar = p.hbar * (p.k + p.K) / (p.m + p.M)
        steps = (h, h, h / mode_vbar, h / mode_vbar)
        x1 = -0.5 + np.arange(7) * h
        x2 = 0.3 + np.arange(7) * h
        r = continuity_residual(p, x1, x2, 0.1, 0.05, steps)
        assert r.max_over_scale < 1e-9

    def test_wavegroup_overlap_region(self):
        s, p, t_c, x1, x2, steps = cont_setup()
        r = continuity_residual(s, x1, x2, t_c, t_c, steps)
        assert r.max_over_scale < 1e-6

    def test_second_order_convergence(self):
        s, p, t_c, x1, x2, steps = cont_setup()
        order = convergence_order(s, x1, x2, t_c, t_c, steps)
        assert 1.8 <= order <= 2.2

    def test_negative_control_detuned(self):
        s, p, t_c, x1, x2, steps = cont_setup()
        healthy = continuity_residual(s, x1, x2, t_c, t_c, steps)
        broken = continuity_residual(s, x1, x2, t_c, t_c, steps, detune=1.1)
        assert broken.max_residual > 100.0 * healthy.max_residual

    def test_rescaled_reflected_branch_stays_conservative(self):
        # a uniformly rescaled reflected branch is still an exact solution
        # (linearity), so the residual detector must stay quiet on it
        s, p, t_c, x1, x2, steps = cont_setup()
        healthy = continuity_residual(s, x1, x2, t_c, t_c, steps)
        scaled = continuity_residual(s, x1, x2, t_c, t_c, steps,
                                     reflected_weight=1.1)
        assert scaled.max_over_scale < 2.0 * healthy.max_over_scale + 1e-9

    def test_zero_scale_never_passes(self):
        r = ContinuityResidual(max_residual=0.0, rms_residual=0.0, scale=0.0)
        assert r.max_over_scale == math.inf

    def test_rejects_a_field_of_another_type(self):
        with pytest.raises(TypeError, match="WavegroupSpec or PhysicalParams"):
            continuity_residual(object(), [0.0], [1.0], 0.0, 0.0, (1e-3,) * 4)

    @pytest.mark.parametrize("knob", ["detune", "reflected_weight"])
    def test_plane_wave_rejects_corruption_knobs(self, spec_fig5, knob):
        with pytest.raises(ValueError, match="wavegroup fields only"):
            continuity_residual(spec_fig5.params, [0.0], [1.0], 0.0, 0.0,
                                (1e-3,) * 4, **{knob: 1.1})

    def test_warns_on_coarse_steps(self, spec_fig5):
        s = spec_fig5
        fringe = math.pi / s.params.k_rel
        t_c = s.collision_time
        x_c = s.collision_point
        with pytest.warns(UnderResolvedStepWarning):
            continuity_residual(s, np.array([x_c - 0.3]), np.array([x_c + 0.3]),
                                t_c, t_c, (fringe, fringe, 1e-4, 1e-4))

    def test_sufficient_conditions_hold_separately(self):
        # each coordinate pair balances on its own, not only in the sum
        s, p, t_c, x1, x2, steps = cont_setup()
        dx1, dx2, dt1, dt2 = steps
        X1, X2 = x1[:, None], x2[None, :]

        def pdf(a, b, c, d):
            return joint_pdf(s, a, b, c, d)

        t1_term = (pdf(X1, t_c + dt1, X2, t_c) - pdf(X1, t_c - dt1, X2, t_c)) / (2 * dt1)
        x1_term = (currents(s, X1 + dx1, t_c, X2, t_c)[0]
                   - currents(s, X1 - dx1, t_c, X2, t_c)[0]) / (2 * dx1)
        t2_term = (pdf(X1, t_c, X2, t_c + dt2) - pdf(X1, t_c, X2, t_c - dt2)) / (2 * dt2)
        x2_term = (currents(s, X1, t_c, X2 + dx2, t_c)[1]
                   - currents(s, X1, t_c, X2 - dx2, t_c)[1]) / (2 * dx2)
        scale = max(np.abs(t1_term).max(), np.abs(x1_term).max(),
                    np.abs(t2_term).max(), np.abs(x2_term).max())
        assert np.abs(t1_term + x1_term).max() < 1e-5 * scale
        assert np.abs(t2_term + x2_term).max() < 1e-5 * scale


class TestConditionalNorm:
    def test_invariance_to_1e6(self, spec_fig5):
        ev = MeasurementEvent(x10=spec_fig5.collision_point - 0.05,
                              t10=spec_fig5.collision_time)
        state = collapse(spec_fig5, ev)
        norms = [state.norm(t2) for t2 in
                 ev.t10 + spec_fig5.tau * np.array([0.0, 1.0, 3.0, 6.0])]
        for n in norms[1:]:
            assert abs(n - norms[0]) <= 1e-6 * norms[0]
