"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; each criterion is also a separate test node, so the ordinary
verbose listing gives one pass/fail line per criterion.
"""

import json
import math
import time

import numpy as np
import pytest

from mirrorsim import (MeasurementEvent, PhysicalParams, SpacetimePoint,
                       UnresolvedSplittingError, WavegroupSpec,
                       amplitude_closed, amplitude_quadrature, beat_frequency,
                       collapse, continuity_residual, convergence_order,
                       decoherence_report, doppler_beat, eigenstate_amplitude,
                       extract_fringes, fringe_spacing, incident_amplitude,
                       interference_pdf, joint_pdf, reflected_amplitude,
                       split_centroid_velocities, thermal_spread)
from mirrorsim.cli import main
from mirrorsim.measurement import _smoothed_modes
from mirrorsim.observables import marginal_over_mirror
from mirrorsim.scenario import (PRESETS, analysis_beat,
                                analysis_marginal_t2_independence,
                                analysis_node_depth, overlap_slice,
                                resolve_event)
from mirrorsim.wavegroup import frames

from conftest import random_valid_params
from test_measurement import overlap_event, resolve_event_like


def _report(n, label):
    print(f"\nACCEPTANCE {n} ({label}): PASS")


def test_criterion_01_interference_identity(rng):
    """Closed-form interference PDF equals |in - ref|^2 on 1000 random modes."""
    start = time.time()
    for _ in range(1000):
        M = 10.0 ** rng.uniform(0.05, 1.5)
        v = rng.uniform(0.5, 8.0)
        V = v * rng.uniform(-0.9, 0.9)
        p = PhysicalParams.natural(M=M, v=v, V=V)
        x1, x2 = sorted(rng.uniform(-3.0, 3.0, 2))
        t1, t2 = rng.uniform(-0.5, 0.5, 2)
        pt = SpacetimePoint(x1, t1, x2, t2)
        lhs = abs(incident_amplitude(p, pt) - reflected_amplitude(p, pt)) ** 2
        rhs = interference_pdf(p, pt)
        assert abs(lhs - rhs) <= 1e-12 * 4.0  # PDF full scale is 4
    elapsed = time.time() - start
    assert elapsed < 1.0
    _report(1, f"interference identity, {elapsed:.2f}s")


def test_criterion_02_boundary_condition(rng):
    """Amplitudes vanish on x1 = x2 at equal times, for modes and wavegroups."""
    for _ in range(300):
        M = 10.0 ** rng.uniform(0.05, 1.5)
        v = rng.uniform(0.5, 8.0)
        V = v * rng.uniform(-0.9, 0.9)
        p = PhysicalParams.natural(M=M, v=v, V=V)
        x = rng.uniform(-3.0, 3.0)
        t = rng.uniform(-0.5, 0.5)
        val = abs(eigenstate_amplitude(p, SpacetimePoint(x, t, x, t)))
        assert val < 1e-10 * 2.0  # peak eigenstate modulus is 2
    for name in ("fig2", "fig5"):
        s = PRESETS[name].wavegroup
        peak = math.sqrt(s.dk * s.dK / math.pi)
        for _ in range(100):
            x = rng.uniform(s.x1c, s.collision_point + 10.0)
            t = rng.uniform(s.t0, s.collision_time + 2.0 * s.tau)
            val = abs(amplitude_closed(s, SpacetimePoint(x, t, x, t)))
            assert val < 1e-10 * peak
    _report(2, "hard-wall boundary condition")


def test_criterion_03_fringe_spacing():
    """Overlap-slice fringe spacing matches pi hbar / (m (v - V)) within 2%."""
    for name in ("fig2", "fig3-a"):
        sc = PRESETS[name]
        expected = fringe_spacing(sc.params)
        for axis in ("x1", "x2"):
            rep = extract_fringes(overlap_slice(sc, axis))
            assert rep.n_fringes >= 4
            assert abs(rep.spacing - expected) / expected < 0.02
    _report(3, "fringe spacing vs approximation formula")


def test_criterion_04_beat_frequency(rng):
    """Fitted beat vs closed form: 1% over 20 draws; rubidium near 3e5."""
    start = time.time()
    for _ in range(20):
        M = 10.0 ** rng.uniform(0.4, 1.5)
        v = rng.uniform(300.0, 600.0)
        V = v * rng.uniform(0.1, 0.7)
        p = PhysicalParams.natural(M=M, v=v, V=V)
        dK = rng.uniform(1.0, 5.0)
        sep = 5.0 * (1.0 + 1.0 / dK) * 1.3
        spec = WavegroupSpec(p, dk=1.0, dK=dK, x1c=-sep, x2c=0.0)
        event = overlap_event(spec)
        state = collapse(spec, event)
        omega = beat_frequency(p)
        t2 = np.linspace(event.t10, event.t10 + 6.0 * math.pi / omega, 700)
        x2 = max(state.branch_profiles(float(t2[len(t2) // 2])),
                 key=lambda b: b[2])[0]
        fitted = doppler_beat(state, x2, t2)
        assert abs(fitted - omega) / omega < 0.01
    rb = analysis_beat(PRESETS["fig8"])
    assert abs(rb["fitted"] - 3e5) / 3e5 < 0.15
    assert abs(beat_frequency(PRESETS["fig8"].params) - 3e5) / 3e5 < 0.15
    elapsed = time.time() - start
    assert elapsed < 30.0
    _report(4, f"beat frequency, rubidium {rb['fitted']:.3e} /s, {elapsed:.1f}s")


def test_criterion_05_oracle_agreement(rng):
    """Closed form vs 128-node Gauss-Hermite at 200 points per preset.

    Points are drawn inside the packets with the per-axis chirp
    hbar dk^2 (t - t0) / m capped at 2, the quadrature's convergence
    domain; for thermal-mirror presets that confines the mirror clock to
    the reference era.
    """
    for name, sc in PRESETS.items():
        s = sc.wavegroup
        p = sc.params
        cap1 = 2.0 * p.m / (p.hbar * s.dk**2)
        cap2 = 2.0 * p.M / (p.hbar * s.dK**2)
        t_hi = min(s.t0 + cap1, s.t0 + cap2, s.collision_time + 2.0 * s.tau)
        checked = 0
        while checked < 200:
            t = rng.uniform(s.t0, t_hi)
            use_ref = t > 0.7 * (s.collision_time - s.t0) + s.t0 and rng.integers(0, 2)
            centre, cov = frames(s, t, t)[1 if use_ref else 0]
            x1 = centre[0] + rng.uniform(-2, 2) * math.sqrt(cov[0, 0])
            x2 = centre[1] + rng.uniform(-2, 2) * math.sqrt(cov[1, 1])
            pt = SpacetimePoint(x1, t, x2, t)
            closed = amplitude_closed(s, pt)
            if abs(closed) == 0.0:
                continue
            quad = amplitude_quadrature(s, pt, nodes=128)
            assert abs(closed - quad) <= 1e-8 * abs(quad), name
            checked += 1
    _report(5, "closed form vs quadrature oracle")


def test_criterion_06_continuity():
    """Local balance residual, convergence order, controls, norm invariance."""
    sc = PRESETS["cont"]
    s = sc.wavegroup
    t_c = s.collision_time
    x_c = s.collision_point
    fringe = math.pi / s.params.k_rel
    h = fringe / 40.0
    v_bar = s.beat0 / s.params.k_rel
    steps = (h, h, h / v_bar, h / v_bar)
    x1 = x_c - 0.2 / s.dk + np.arange(7) * h
    x2 = x_c + 0.2 / s.dk + np.arange(7) * h
    healthy = continuity_residual(s, x1, x2, t_c, t_c, steps)
    assert healthy.max_over_scale < 1e-6
    order = convergence_order(s, x1, x2, t_c, t_c, steps)
    assert 1.8 <= order <= 2.2
    broken = continuity_residual(s, x1, x2, t_c, t_c, steps, detune=1.1)
    assert broken.max_residual > 100.0 * healthy.max_residual

    spec5 = PRESETS["fig5"].wavegroup
    state = collapse(spec5, overlap_event(spec5))
    norms = [state.norm(t2) for t2 in
             state.event.t10 + spec5.tau * np.array([0.0, 1.0, 3.0, 6.0])]
    for n in norms[1:]:
        assert abs(n - norms[0]) <= 1e-6 * norms[0]
    _report(6, f"continuity residual {healthy.max_over_scale:.2e}, order {order:.2f}")


def test_criterion_07_regime_phenomenology():
    """Regime A stays unimodal, regime B splits at kinematic speeds, and the
    thermal-mirror preset reports unresolvable splitting."""
    spec5 = PRESETS["fig5"].wavegroup
    t10_a = spec5.collision_time + spec5.tau
    state_a = collapse(spec5, resolve_event_like(spec5, t10_a))
    fringe = math.pi / spec5.params.k_rel
    for t2 in t10_a + spec5.tau * np.array([0.0, 1.0, 2.0, 3.0]):
        lo, hi = state_a.support(t2)
        x2 = np.linspace(max(lo, state_a.event.x10), hi, 8001)
        modes = _smoothed_modes(x2, state_a.pdf(x2, t2),
                                max(1, int(round(fringe / (x2[1] - x2[0])))),
                                min_sep=2 * fringe)
        assert len(modes) == 1

    state_b = collapse(spec5, overlap_event(spec5))
    samples = state_b.event.t10 + spec5.tau * np.linspace(1.5, 5.0, 8)
    v_slow, v_fast = split_centroid_velocities(state_b, samples)
    p = spec5.params
    v_f = ((p.M - p.m) * p.V + 2 * p.m * p.v) / (p.m + p.M)
    assert abs(v_slow - p.V) / abs(p.V) < 0.02
    assert abs(v_fast - v_f) / abs(v_f) < 0.02

    s8 = PRESETS["fig8"]
    ev8 = resolve_event(s8, s8.events[0])
    state8 = collapse(s8.wavegroup, ev8)
    with pytest.raises(UnresolvedSplittingError):
        split_centroid_velocities(state8, ev8.t10 + s8.tau * np.linspace(0.5, 2, 4))
    _report(7, f"regimes; split velocities ({v_slow:.2f}, {v_fast:.2f})")


def test_criterion_08_coherence_transfer():
    """Equal masses exchange widths; mass ratio 20 does not."""
    from mirrorsim.observables import coherence_transfer_metrics
    s = PRESETS["fig6-m1"]
    rep = coherence_transfer_metrics(s.wavegroup, pre_t=s.wavegroup.t0,
                                     post_t=s.collision_time + 2.0 * s.tau)
    assert 0.9 <= rep.exchange_particle <= 1.1
    assert 0.9 <= rep.exchange_mirror <= 1.1
    s20 = PRESETS["fig6-m20"]
    rep20 = coherence_transfer_metrics(s20.wavegroup, pre_t=s20.wavegroup.t0,
                                       post_t=s20.collision_time + 2.0 * s20.tau)
    assert not (0.7 <= rep20.exchange_particle <= 1.4)
    assert not (0.7 <= rep20.exchange_mirror <= 1.4)
    _report(8, f"coherence transfer ratios ({rep.exchange_particle:.3f}, "
               f"{rep.exchange_mirror:.3f})")


def test_criterion_09_marginal_doppler(fig7_visibilities):
    """Washout ladder thresholds, trace t2-independence, mirror-side washout."""
    assert fig7_visibilities["fig7-a"]["particle_visibility"] < 0.05
    assert fig7_visibilities["fig7-c"]["particle_visibility"] > 0.5
    rep = analysis_marginal_t2_independence(PRESETS["fig9"])
    assert rep["linf_over_peak"] < 1e-6
    from mirrorsim.scenario import analysis_marginal_visibility
    vis9 = analysis_marginal_visibility(PRESETS["fig9"])
    assert vis9["mirror_visibility"] < 0.05
    _report(9, f"marginal doppler (washout {fig7_visibilities['fig7-a']['particle_visibility']:.3f},"
               f" visible {fig7_visibilities['fig7-c']['particle_visibility']:.2f})")


def test_criterion_10_scalar_estimators():
    """Thermal coherence length anchor and exact estimator formulas."""
    _, l_c = thermal_spread(1.4e-25, 1e-7)
    assert abs(l_c - 1.0e-6) / 1.0e-6 < 0.10

    p = PhysicalParams(m=1.4e-25, M=1e-8, v=0.03, V=0.01)
    rep = decoherence_report(p, T=1.0, dt=1.0, m_star=1e-25, l_c_particle=1e-6)
    frozen = {
        "lambda_T": 1.2609544256440472e-18,
        "dx_paths": 8.4e-19,
        "t_D_over_t_R": 2.253409954012626,
        "v_probe_sync": 1.1832268125e14,
        "v_probe_async": 7888178750.0,
        "overlap_time": 0.75056811050240904,
    }
    for field, value in frozen.items():
        assert getattr(rep, field) == pytest.approx(value, rel=1e-12), field
    _report(10, "scalar estimators")


def test_criterion_11_end_to_end(tmp_path):
    """Every figure preset runs at 256x256 under a minute; outputs are
    byte-deterministic."""
    budget = {}
    for name in ("fig2", "fig3-a", "fig3-b", "fig3-c", "fig4", "fig5",
                 "fig6-m1", "fig6-m20", "fig7-a", "fig7-b", "fig7-c", "fig7-d",
                 "fig8", "fig9"):
        out = tmp_path / name
        start = time.time()
        assert main(["simulate", "--preset", name, "--resolution", "256",
                     "--out", str(out)]) == 0
        if PRESETS[name].events:
            assert main(["collapse", "--preset", name, "--resolution", "256",
                         "--out", str(out)]) == 0
        budget[name] = time.time() - start
        assert budget[name] < 60.0, (name, budget[name])

    a, b = tmp_path / "det_a", tmp_path / "det_b"
    for out in (a, b):
        main(["simulate", "--preset", "fig2", "--times", "-1,0,1",
              "--resolution", "256", "--out", str(out)])
    for i in range(3):
        fa = (a / f"fig2_joint_{i}.csv").read_bytes()
        fb = (b / f"fig2_joint_{i}.csv").read_bytes()
        assert fa == fb
    slowest = max(budget.values())
    _report(11, f"end-to-end, slowest preset {slowest:.1f}s, byte-identical reruns")
