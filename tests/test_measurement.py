import dataclasses
import math

import numpy as np
import pytest

from mirrorsim import (MeasurementEvent, PhysicalParams, UnresolvedSplittingError,
                       WavegroupSpec, classify_regime, collapse,
                       elastic_final_velocities, joint_pdf,
                       sequential_probability, split_centroid_velocities,
                       thermal_spread)
from mirrorsim.measurement import _smoothed_modes
from mirrorsim.observables import marginal_over_mirror
from mirrorsim.scenario import PRESETS, resolve_event


import functools


@functools.lru_cache(maxsize=32)
def overlap_event(spec, t10=None):
    """Event at the particle-marginal mode in the overlap era."""
    t10 = spec.collision_time if t10 is None else t10
    x_c = spec.collision_point
    x1 = np.linspace(x_c - 2.0 / spec.dk, x_c + 2.0 / spec.dk, 4001)
    marg = marginal_over_mirror(spec, x1, t10, t10).y
    return MeasurementEvent(x10=float(x1[np.argmax(marg)]), t10=t10)


class TestCollapse:
    def test_consistent_with_joint_slice_at_t10(self, spec_fig5):
        ev = overlap_event(spec_fig5)
        state = collapse(spec_fig5, ev)
        x2 = np.linspace(ev.x10 - 2, ev.x10 + 4, 501)
        direct = joint_pdf(spec_fig5, ev.x10, ev.t10, x2, ev.t10)
        np.testing.assert_allclose(state.pdf(x2, ev.t10), direct, rtol=0, atol=0)

    def test_rejects_retrodiction(self, spec_fig5):
        ev = overlap_event(spec_fig5)
        state = collapse(spec_fig5, ev)
        with pytest.raises(ValueError):
            state.pdf(1.0, ev.t10 - 0.1)

    def test_rejects_pre_launch_event(self, spec_fig5):
        with pytest.raises(ValueError):
            collapse(spec_fig5, MeasurementEvent(x10=0.0, t10=spec_fig5.t0 - 1.0))

    def test_rejects_bad_resolution(self):
        with pytest.raises(ValueError):
            MeasurementEvent(x10=0.0, t10=0.0, dx1=0.0)

    def test_regime_a_unimodal_all_times(self, spec_fig5):
        # detection after reflection: one mirror mode at every later time
        t10 = spec_fig5.collision_time + spec_fig5.tau
        ev = resolve_event_like(spec_fig5, t10)
        state = collapse(spec_fig5, ev)
        fringe = math.pi / spec_fig5.params.k_rel
        for t2 in t10 + spec_fig5.tau * np.array([0.0, 1.0, 2.0]):
            lo, hi = state.support(t2)
            x2 = np.linspace(max(lo, ev.x10), hi, 8001)
            pdf = state.pdf(x2, t2)
            win = max(1, int(round(fringe / (x2[1] - x2[0]))))
            modes = _smoothed_modes(x2, pdf, win, min_height=0.1,
                                    min_sep=2 * fringe)
            assert len(modes) == 1

    def test_regime_b_becomes_bimodal(self, spec_fig5):
        ev = overlap_event(spec_fig5)
        state = collapse(spec_fig5, ev)
        fringe = math.pi / spec_fig5.params.k_rel

        def n_modes(t2):
            lo, hi = state.support(t2)
            x2 = np.linspace(max(lo, ev.x10), hi, 8001)
            pdf = state.pdf(x2, t2)
            win = max(1, int(round(fringe / (x2[1] - x2[0]))))
            return len(_smoothed_modes(x2, pdf, win, min_height=0.1,
                                       min_sep=2 * fringe))

        assert n_modes(ev.t10 + 2.5 * spec_fig5.tau) == 2

    def test_regime_b_fringed_at_detection(self, spec_fig5):
        ev = overlap_event(spec_fig5)
        state = collapse(spec_fig5, ev)
        lo, hi = state.support(ev.t10)
        x2 = np.linspace(max(lo, ev.x10), hi, 8001)
        pdf = state.pdf(x2, ev.t10)
        sign_changes = np.sum(np.abs(np.diff(np.sign(np.diff(pdf)))) > 0)
        assert sign_changes > 6  # many extrema: fringes


class TestRegimeClassification:
    def test_post_reflection_is_A(self, spec_fig5):
        t10 = spec_fig5.collision_time + spec_fig5.tau
        ev = resolve_event_like(spec_fig5, t10)
        assert classify_regime(spec_fig5, ev) == "A"

    def test_overlap_is_B(self, spec_fig5):
        assert classify_regime(spec_fig5, overlap_event(spec_fig5)) == "B"

    def test_pre_overlap_is_A(self, spec_fig5):
        ev = resolve_event_like(spec_fig5, spec_fig5.t0 + 0.05 * spec_fig5.tau)
        assert classify_regime(spec_fig5, ev) == "A"

    def test_detection_past_support_is_named(self, spec_fig5):
        # above the conditional mirror support the detection has probability 0
        ev = MeasurementEvent(x10=spec_fig5.collision_point + 5.0,
                              t10=spec_fig5.collision_time)
        assert collapse(spec_fig5, ev).support(ev.t10)[1] < ev.x10
        with pytest.raises(ValueError, match="lies past the conditional support"):
            classify_regime(spec_fig5, ev)


class TestSplitVelocities:
    def test_matches_elastic_kinematics(self, spec_fig5):
        ev = overlap_event(spec_fig5)
        state = collapse(spec_fig5, ev)
        samples = ev.t10 + spec_fig5.tau * np.linspace(1.5, 5.0, 8)
        v_slow, v_fast = split_centroid_velocities(state, samples)
        v_f, V_f = elastic_final_velocities(spec_fig5.params)
        assert v_slow == pytest.approx(spec_fig5.params.V, rel=0.02)
        assert v_fast == pytest.approx(V_f, rel=0.02)

    def test_faster_particle_only_moves_fast_mode(self, spec_fig5):
        base = spec_fig5.params
        faster = PhysicalParams.natural(M=base.M, v=base.v * 1.25, V=base.V)
        spec2 = WavegroupSpec(faster, dk=spec_fig5.dk, dK=spec_fig5.dK,
                              x1c=spec_fig5.x1c, x2c=spec_fig5.x2c)
        out = {}
        for tag, spec in (("base", spec_fig5), ("fast", spec2)):
            ev = overlap_event(spec)
            state = collapse(spec, ev)
            samples = ev.t10 + spec.tau * np.linspace(1.5, 5.0, 8)
            out[tag] = split_centroid_velocities(state, samples)
        assert out["fast"][0] == pytest.approx(out["base"][0], rel=0.02)
        assert out["fast"][1] > out["base"][1] * 1.05

    def test_mesoscopic_mirror_unresolvable(self, presets):
        s = presets["fig8"]
        ev = resolve_event(s, s.events[0])
        state = collapse(s.wavegroup, ev)
        samples = ev.t10 + s.tau * np.linspace(0.5, 2.0, 4)
        with pytest.raises(UnresolvedSplittingError):
            split_centroid_velocities(state, samples)


class TestSequentialProbability:
    def test_full_axis_matches_pr_one(self, spec_fig5):
        ev = overlap_event(spec_fig5)
        state = collapse(spec_fig5, ev)
        lo, hi = state.support(ev.t10)
        res = sequential_probability(spec_fig5, ev, (max(lo, ev.x10), hi), ev.t10)
        assert res.pr_two == pytest.approx(res.pr_one, rel=1e-10)
        assert res.value == pytest.approx(res.pr_one * res.pr_two, rel=1e-14)
        assert 0.0 <= res.value <= 1.0
        marginal = marginal_over_mirror(spec_fig5, [ev.x10], ev.t10, ev.t10).y[0]
        assert res.pr_one / ev.dx1 == pytest.approx(marginal, rel=1e-12)

    def test_partition_additivity(self, spec_fig5):
        ev = overlap_event(spec_fig5)
        state = collapse(spec_fig5, ev)
        t2 = ev.t10 + spec_fig5.tau
        lo, hi = state.support(t2)
        lo = max(lo, ev.x10)
        cuts = np.linspace(lo, hi, 5)
        parts = [sequential_probability(spec_fig5, ev, (a, b), t2).pr_two
                 for a, b in zip(cuts[:-1], cuts[1:])]
        full = sequential_probability(spec_fig5, ev, (lo, hi), t2).pr_two
        assert sum(parts) == pytest.approx(full, rel=1e-10)

    def test_window_below_wall_adds_nothing(self, spec_fig5):
        # at t10 a sixth of the smooth slice's norm lies past the wall x2 < x10
        ev = overlap_event(spec_fig5)
        lo, hi = collapse(spec_fig5, ev).support(ev.t10)
        at_wall = sequential_probability(spec_fig5, ev, (ev.x10, hi), ev.t10).pr_two
        across = sequential_probability(spec_fig5, ev, (lo, hi), ev.t10).pr_two
        assert lo < ev.x10 and across == at_wall > 0.0
        to_inf = sequential_probability(spec_fig5, ev, (lo, math.inf), ev.t10)
        assert to_inf.pr_two == pytest.approx(to_inf.pr_one, rel=1e-14)

    def test_rejects_empty_window(self, spec_fig5):
        ev = overlap_event(spec_fig5)
        with pytest.raises(ValueError):
            sequential_probability(spec_fig5, ev, (5.0, 5.0), ev.t10)

    @pytest.mark.parametrize("name, raises", [("fig8", True), ("fig5", False)])
    def test_pr_one_above_one_names_dx1(self, presets, name, raises):
        # fig8 is in SI units, where dx1 = 1e-3 is a millimetre: the
        # first-order detection probability there comes out near 7.7e3
        s = presets[name]
        ev = dataclasses.replace(resolve_event(s, s.events[0]), dx1=1e-3)
        lo, hi = collapse(s.wavegroup, ev).support(ev.t10)
        window = (max(lo, ev.x10), hi)
        if raises:
            with pytest.raises(ValueError, match="dx1"):
                sequential_probability(s.wavegroup, ev, window, ev.t10)
        else:
            res = sequential_probability(s.wavegroup, ev, window, ev.t10)
            assert 0.0 < res.pr_one <= 1.0

    def test_fig8_preset_event_is_first_order(self, presets):
        # the preset's resolution is 1e-3 particle widths, as in natural units
        s = presets["fig8"]
        ev = resolve_event(s, s.events[0])
        lo, hi = collapse(s.wavegroup, ev).support(ev.t10)
        res = sequential_probability(s.wavegroup, ev, (max(lo, ev.x10), hi), ev.t10)
        assert 0.0 < res.pr_one <= 1.0


class TestConditionalNorm:
    def test_t2_invariance_regime_b(self, spec_fig5):
        ev = overlap_event(spec_fig5)
        state = collapse(spec_fig5, ev)
        norms = [state.norm(t2) for t2 in
                 ev.t10 + spec_fig5.tau * np.array([0.0, 0.5, 1.0, 2.0, 4.0])]
        ref = norms[0]
        assert all(abs(n - ref) <= 1e-6 * ref for n in norms)

    def test_t2_invariance_regime_a(self, spec_fig5):
        t10 = spec_fig5.collision_time + spec_fig5.tau
        ev = resolve_event_like(spec_fig5, t10)
        state = collapse(spec_fig5, ev)
        norms = [state.norm(t2) for t2 in t10 + spec_fig5.tau * np.array([0, 1, 3])]
        assert all(abs(n - norms[0]) <= 1e-6 * norms[0] for n in norms)

    # fig8 detections (x10, t10) that the benchmark's conditional workload
    # queries: before, at and after the collision at t_c = 5e-5 s
    FIG8_EVENTS = ((3.7251227464009765e-07, 4.840045984403394e-05),
                   (-9.274481584899459e-08, 5e-05),
                   (1.607768366678353e-07, 8.392231633321648e-05),
                   (-1.784463266643296e-07, 0.00011784463266643297))

    @pytest.mark.parametrize("x10, t10", FIG8_EVENTS)
    def test_t2_invariance_fig8_si(self, presets, x10, t10):
        # m/M = 1.4e-17: the exchanged 2 hbar k_rel is below one ulp of the
        # mirror's momentum, and a reflected branch that loses it drifts
        spec = presets["fig8"].wavegroup
        state = collapse(spec, MeasurementEvent(x10=x10, t10=t10))
        closed, sampled = [], []
        for t2 in t10 + spec.tau * np.array([0.0, 1.0, 3.0]):
            closed.append(state.norm(t2))
            x2 = np.linspace(*state.support(t2), 4001)
            sampled.append(np.trapezoid(state.pdf(x2, t2, apply_step=False), x2))
        for norms in (closed, sampled):
            assert all(abs(n - norms[0]) <= 1e-6 * norms[0] for n in norms)

    def test_t2_invariance_si_property(self, rng):
        # SI draws down to m/M = 1e-20, with thermal widths built as fig8
        # builds them (particle at 1 nK - 10 uK, mirror at 1 mK - 10 K) and
        # the detection at the particle-marginal mode at t_c
        for _ in range(300):
            m = 10.0 ** rng.uniform(-27, -22)
            M = m * 10.0 ** rng.uniform(0, 20)
            v = 10.0 ** rng.uniform(-3, 0)
            p = PhysicalParams(m=m, M=M, v=v, V=v * rng.uniform(-0.9, 0.9))
            dk = m * thermal_spread(m, 10.0 ** rng.uniform(-9, -5))[0] / p.hbar
            dK = M * thermal_spread(M, 10.0 ** rng.uniform(-3, 1))[0] / p.hbar
            spec = WavegroupSpec(p, dk=dk, dK=dK, x1c=-8.0 * (1 / dk + 1 / dK), x2c=0.0)
            t10 = spec.collision_time
            state = collapse(spec, resolve_event_like(spec, t10))
            norms = [state.norm(t2) for t2 in t10 + spec.tau * np.array([0.0, 1.0, 3.0])]
            assert all(abs(n - norms[0]) <= 1e-6 * norms[0] for n in norms), (m, M, v, dk, dK)

    def test_t2_invariance_extreme_width_ratio(self):
        # dk/dK = 4.4e-9: the mirror's dispersion ratio hbar tau dK^2/M is
        # 7.6e14-1.9e15, so Re(w^T A^{-1} w) is 1e-15 of its modulus and is
        # lost when taken as the real part of a complex inverse (a 2 % swing)
        p = PhysicalParams.natural(M=31.89006512464583, v=0.0017268940434955503,
                                   V=0.0014486448780483593)
        dk, dK = 1.607436826082042e-05, 3671.8873168148248
        spec = WavegroupSpec(p, dk=dk, dK=dK, x1c=-8.0 * (1 / dk + 1 / dK), x2c=0.0)
        t10 = spec.collision_time
        state = collapse(spec, resolve_event_like(spec, t10))
        for t2 in t10 + spec.tau * np.array([0.0, 1.0, 2.0, 3.0]):
            norm = state.norm(t2)
            assert abs(norm - 8.2323368438e-6) <= 1e-6 * norm
            x2 = np.linspace(*state.support(t2), 400_001)
            sampled = np.trapezoid(state.pdf(x2, t2, apply_step=False), x2)
            # the trapezoid itself spreads by 7.6e-5 over these t2
            assert abs(norm - sampled) <= 1e-4 * sampled

    @pytest.mark.filterwarnings("error")
    def test_sampled_kernel_matches_closed_norm(self, spec_fig5):
        # the closed norm never samples the PDF, so the kernel's own
        # unitarity is checked point by point here, at the t2 of both
        # regimes' invariance tests
        tau = spec_fig5.tau
        t10_a = spec_fig5.collision_time + tau
        cases = [(overlap_event(spec_fig5), tau * np.array([0.0, 0.5, 1.0, 2.0, 4.0])),
                 (resolve_event_like(spec_fig5, t10_a), tau * np.array([0.0, 1.0, 3.0]))]
        for ev, offsets in cases:
            state = collapse(spec_fig5, ev)
            sampled = []
            for t2 in ev.t10 + offsets:
                x2 = np.linspace(*state.support(t2), 4001)
                sampled.append(np.trapezoid(state.pdf(x2, t2, apply_step=False), x2))
                assert sampled[-1] == pytest.approx(state.norm(t2), rel=1e-10)
            assert all(abs(n - sampled[0]) <= 1e-6 * sampled[0] for n in sampled)


class TestReversedOrder:
    def test_mirror_first_splits_particle(self, spec_fig5):
        # freeze (x2, t2) instead: the particle splits into pre/post-reflection
        # modes and its conditional norm is t1-invariant. Both particle
        # branches drift toward the frozen mirror position, so the smooth
        # (untruncated) branch carries the conserved free evolution.
        s = spec_fig5
        t20 = s.collision_time
        x_c = s.collision_point
        x20 = x_c + 1.0 / s.dK
        v_f, _ = elastic_final_velocities(s.params)

        norms = []
        for t1 in t20 + s.tau * np.array([0.0, 1.0, 2.0]):
            lo = x_c + min(v_f, s.params.v) * (t1 - t20) - 10 / s.dk
            hi = x_c + max(v_f, s.params.v) * (t1 - t20) + 10 / s.dk
            x1 = np.linspace(lo, hi, 8001)
            vals = joint_pdf(s, x1, t1, x20, t20, apply_step=False)
            norms.append(np.trapezoid(vals, x1))
        assert all(abs(n - norms[0]) <= 1e-6 * norms[0] for n in norms)

        t1 = t20 + 2.5 * s.tau
        lo = x_c + min(v_f, s.params.v) * (t1 - t20) - 10 / s.dk
        hi = x_c + max(v_f, s.params.v) * (t1 - t20) + 10 / s.dk
        x1 = np.linspace(lo, hi, 16001)
        pdf = joint_pdf(s, x1, t1, x20, t20, apply_step=False)
        fringe = math.pi / s.params.k_rel
        win = max(1, int(round(fringe / (x1[1] - x1[0]))))
        modes = _smoothed_modes(x1, pdf, win, min_height=0.1, min_sep=2 * fringe)
        assert len(modes) == 2


@functools.lru_cache(maxsize=32)
def resolve_event_like(spec, t10):
    """Detection at the particle-marginal mode at time t10."""
    from mirrorsim.observables import _support_hull
    lo, hi = _support_hull(spec, t10, t10, axis=0)
    axis = np.linspace(lo, hi, 4001)
    curve = marginal_over_mirror(spec, axis, t10, t10)
    return MeasurementEvent(x10=float(axis[np.argmax(curve.y)]), t10=t10)
