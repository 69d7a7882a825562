import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mirrorsim import (Curve, PhysicalParams, WavegroupSpec, beat_frequency,
                       collapse, decoherence_report, doppler_beat,
                       extract_fringes, marginal_over_mirror,
                       marginal_over_particle)
from mirrorsim.measurement import MeasurementEvent
from mirrorsim import observables, wavegroup
from mirrorsim.observables import (CoherenceTransferReport, IncompleteSeparationWarning,
                                   InsufficientSpanWarning, _brent, _hull, _measured_widths,
                                   coherence_transfer_metrics, fit_sinusoid,
                                   pattern_drift_beat, transit_beat_periods)
from mirrorsim.scenario import (PRESETS, analysis_beat, analysis_marginal_visibility,
                                from_config, resolve_event)
from mirrorsim.wavegroup import frames, joint_pdf


class TestExtractFringes:
    def test_synthetic_sine_squared(self):
        d = 0.37
        x = np.linspace(0.0, 10 * d, 4001)
        curve = Curve(x=x, y=4.0 * np.sin(math.pi * x / d) ** 2, meta={"axis": "x1"})
        rep = extract_fringes(curve)
        assert rep.spacing == pytest.approx(d, rel=1e-4)
        assert rep.visibility == pytest.approx(1.0, abs=1e-9)
        assert rep.axis == "x1"
        assert rep.n_fringes >= 9

    def test_constant_curve(self):
        x = np.linspace(0, 1, 512)
        rep = extract_fringes(Curve(x=x, y=np.ones_like(x), meta={}))
        assert rep.n_fringes == 0
        assert rep.visibility == 0.0

    def test_smooth_hill_has_no_fringes(self):
        x = np.linspace(-5, 5, 2001)
        rep = extract_fringes(Curve(x=x, y=np.exp(-x**2), meta={}))
        assert rep.visibility == 0.0

    def test_rippled_hill_contrast(self):
        x = np.linspace(-4, 4, 8001)
        y = np.exp(-x**2 / 4) * (1.0 + 0.2 * np.cos(20 * x))
        rep = extract_fringes(Curve(x=x, y=y, meta={}))
        assert rep.spacing == pytest.approx(2 * math.pi / 20, rel=0.02)
        assert 0.1 < rep.visibility < 0.35

    def test_chirped_pattern_reports_strong_fringes(self):
        """A linearly chirped sin^2 under an off-centre envelope: the spacing
        is the local one where the envelope peaks, not the mean over the
        faint tail peaks (3.3% too wide for this curve)."""
        d0, alpha, x0 = 0.3, 0.1, 7.0
        x = np.linspace(0.0, 11.0, 22001)
        # local wavenumber pi * (1/d0 + alpha*x), so local spacing 1/(1/d0 + alpha*x)
        phase = math.pi * (x / d0 + 0.5 * alpha * x**2)
        y = np.exp(-0.5 * (x - x0) ** 2) * np.sin(phase) ** 2
        rep = extract_fringes(Curve(x=x, y=y, meta={}))
        assert rep.n_fringes >= 40
        assert rep.spacing == pytest.approx(1.0 / (1.0 / d0 + alpha * x0), rel=0.01)


class TestSinusoidFit:
    def test_recovers_frequency(self, rng):
        t = np.linspace(0.0, 3.0, 400)
        omega = 17.3
        y = 0.8 + 0.1 * t - 0.02 * t**2 + 0.5 * np.cos(omega * t + 0.7)
        got, _ = fit_sinusoid(t, y)
        assert got == pytest.approx(omega, rel=1e-6)

    def test_rejects_nonuniform_axis(self):
        t = np.array([0.0, 0.1, 0.3, 0.35])
        with pytest.raises(ValueError):
            fit_sinusoid(t, np.sin(t))

    def test_matches_the_five_column_least_squares(self):
        # the same search on each trial frequency's full least-squares residual
        # (baseline, cos, sin), whose minimum is flat to round-off: 1e-7
        t = np.linspace(2.0, 2.6, 900)
        y = (1.0 - 0.3 * t + 0.05 * t**2 + 0.4 * np.cos(61.0 * t + 0.3)
             + 0.02 * np.cos(122.0 * t))
        omega, rel = fit_sinusoid(t, y)
        ts = (t - t.mean()) / (t[-1] - t[0])

        def sse(w):
            design = np.stack([np.ones_like(ts), ts, ts**2, np.cos(w * t), np.sin(w * t)], 1)
            r = y - design @ np.linalg.lstsq(design, y, rcond=None)[0]
            return float(r @ r)

        phi = (math.sqrt(5.0) - 1.0) / 2.0
        a, b = 0.8 * omega, 1.25 * omega
        for _ in range(200):
            c, d = b - phi * (b - a), a + phi * (b - a)
            a, b = (a, d) if sse(c) < sse(d) else (c, b)
        assert omega == pytest.approx(0.5 * (a + b), rel=1e-7)
        assert rel == pytest.approx(math.sqrt(sse(omega) / float(y @ y)), rel=1e-6)

    @pytest.mark.parametrize("power", [2, 4])
    @pytest.mark.parametrize("centre", [1e-3, 0.7, 1.2345, 61.0])
    def test_brent_converges_in_few_calls(self, power, centre):
        # a parabola is Brent's own model; a quartic's flat floor makes it fall
        # back to golden steps
        calls = []

        def f(x):
            calls.append(x)
            return 2.5 * (x - centre) ** power

        x, fx = _brent(f, 0.8 * centre, 1.25 * centre)
        assert len(calls) <= 30
        assert abs(x - centre) <= 1e-10 * centre
        assert fx == f(x)

    def test_agrees_with_scipy_bounded_brent(self, presets):
        from scipy.optimize import minimize_scalar

        import mirrorsim.observables as obs

        s = presets["fig5"]
        series = []
        fit = obs.fit_sinusoid
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(obs, "fit_sinusoid", lambda t, y: series.append((t, y)) or fit(t, y))
            analysis_beat(s)
        t = np.linspace(0.0, 3.0, 400)
        series.append((t, 0.8 + 0.1 * t - 0.02 * t**2 + 0.5 * np.cos(17.3 * t + 0.7)))
        t = np.linspace(2.0, 2.6, 900)
        series.append((t, 1.0 - 0.3 * t + 0.05 * t**2 + 0.4 * np.cos(61.0 * t + 0.3)
                       + 0.02 * np.cos(122.0 * t)))
        assert len(series) == 3
        for t, y in series:
            # the residual and the bracket of fit_sinusoid, written out again
            ts = (t - t.mean()) / (t[-1] - t[0])
            q, _ = np.linalg.qr(np.vstack([np.ones_like(ts), ts, ts**2]).T)
            resid = y - q @ (q.T @ y)
            n_fft = 8 * len(t)
            power = np.abs(np.fft.rfft(resid * np.hanning(len(t)), n=n_fft))
            w_seed = 2.0 * math.pi * np.fft.rfftfreq(n_fft, d=t[1] - t[0])[
                3 + int(np.argmax(power[3:]))]

            def sse(w):
                wave = np.stack([np.cos(w * t), np.sin(w * t)], axis=1)
                wave -= q @ (q.T @ wave)
                r = resid - wave @ np.linalg.solve(wave.T @ wave, wave.T @ resid)
                return float(r @ r)

            ref = minimize_scalar(sse, bounds=(0.8 * w_seed, 1.25 * w_seed),
                                  method="bounded", options={"xatol": 1e-12 * w_seed})
            omega, rel = fit_sinusoid(t, y)
            assert omega == pytest.approx(ref.x, rel=1e-8)
            assert rel <= (1.0 + 1e-6) * math.sqrt(ref.fun / float(y @ y))  # no worse a fit


class TestDopplerBeat:
    def test_random_draw_accuracy(self, rng):
        for _ in range(5):
            M = 10.0 ** rng.uniform(0.4, 1.5)
            v = rng.uniform(300.0, 600.0)
            V = v * rng.uniform(0.1, 0.7)
            p = PhysicalParams.natural(M=M, v=v, V=V)
            dk = 1.0
            dK = rng.uniform(1.0, 5.0) * dk
            sep = 5.0 * (1.0 / dk + 1.0 / dK) * 1.3
            spec = WavegroupSpec(p, dk=dk, dK=dK, x1c=-sep, x2c=0.0)
            event = resolve_event_overlap(spec)
            state = collapse(spec, event)
            omega = beat_frequency(p)
            t2 = np.linspace(event.t10, event.t10 + 6 * math.pi / omega, 700)
            x2 = max(state.branch_profiles(float(t2[len(t2) // 2])),
                     key=lambda b: b[2])[0]
            fitted = doppler_beat(state, x2, t2)
            assert fitted == pytest.approx(omega, rel=0.01)

    def test_rubidium_beat(self, presets):
        # a fixed detector sees the mesoscopic mirror for a sub-beat transit,
        # so the beat is extracted as the measured fringe-crossing rate
        from mirrorsim.scenario import analysis_beat
        from mirrorsim.observables import transit_beat_periods
        s = presets["fig8"]
        event = resolve_event(s, s.events[0])
        state = collapse(s.wavegroup, event)
        assert transit_beat_periods(state, event.t10) < 3.0
        rep = analysis_beat(s)
        assert rep["method"] == "pattern-drift"
        assert rep["relative_error"] < 0.03
        assert abs(rep["fitted"] - 3e5) / 3e5 < 0.15

    def test_short_axis_warns(self, presets):
        # fig5's detector sees more than 3 beat periods in transit, so only
        # the one-period axis falls short
        s = presets["fig5"]
        event = resolve_event(s, s.events[0])
        state = collapse(s.wavegroup, event)
        t2 = np.linspace(event.t10, event.t10 + math.pi / s.wavegroup.beat0, 300)
        x2 = max(state.branch_profiles(float(t2[150])), key=lambda b: b[2])[0]
        assert transit_beat_periods(state, float(t2[150])) >= 3.0
        with pytest.warns(InsufficientSpanWarning):
            doppler_beat(state, x2, t2)

    def test_resting_mirror_has_unbounded_transit(self):
        p = PhysicalParams.natural(M=3.0, v=50.0, V=0.0)
        spec = WavegroupSpec(p, dk=1.0, dK=2.0, x1c=-10.0, x2c=0.0)
        t_c = spec.collision_time
        state = collapse(spec, MeasurementEvent(x10=spec.collision_point - 0.5, t10=t_c))
        assert transit_beat_periods(state, t_c + spec.tau) == math.inf

    def test_fig9_beat(self, presets):
        from mirrorsim.scenario import analysis_beat
        rep = analysis_beat(presets["fig9"])
        assert rep["method"] == "pattern-drift"
        assert rep["relative_error"] < 0.01

    def test_negative_beat_is_fitted_by_its_magnitude(self):
        # m v + M V < 0 gives fig5's system with V = -30 a beat of -600: the
        # fit window, the transit gate and the error take its magnitude
        s = from_config({"name": "fig5-vneg", "units": "natural",
                         "params": {"m": 1.0, "M": 3.0, "v": 50.0, "V": -30.0},
                         "wavegroup": {"dk": 1.0, "dK": 2.0, "x1c": -10.0, "x2c": 0.0},
                         "events": [{"t10": 0.125}], "analyses": ["beat"]})
        assert s.wavegroup.beat0 == -600.0 and s.collision_time == 0.125
        state = collapse(s.wavegroup, resolve_event(s, s.events[0]))
        assert transit_beat_periods(state, 0.125) > 3.0
        rep = analysis_beat(s)
        assert rep["method"] == "time-series"
        assert rep["expected"] == -600.0
        assert rep["fitted"] == pytest.approx(600.0, rel=0.02)
        assert rep["relative_error"] == abs(rep["fitted"] - 600.0) / 600.0

    def test_pattern_drift_without_fringes_names_the_cause(self, presets):
        # extract_fringes reports spacing 0 for a curve with fewer than two peaks
        s = presets["fig9"]
        state = collapse(s.wavegroup, resolve_event(s, s.events[0]))
        x = np.linspace(-5.0, 5.0, 2001)
        spacing = extract_fringes(Curve(x=x, y=np.exp(-x**2), meta={})).spacing
        assert spacing == 0.0
        t2 = state.event.t10 + np.linspace(0.0, s.tau, 5)
        with pytest.raises(ValueError, match="fewer than two fringe peaks"):
            pattern_drift_beat(state, t2, spacing)


class TestMarginals:
    def test_total_probability(self, spec_fig5):
        s = spec_fig5
        lo, hi = _hull(frames(s, s.t0, s.t0), axis=1)
        curve = marginal_over_particle(s, np.linspace(lo, hi, 3001), s.t0, s.t0)
        assert np.trapezoid(curve.y, curve.x) == pytest.approx(1.0, abs=1e-6)

    def test_incident_only_matches_free_packet(self, spec_fig5):
        s = spec_fig5
        t = s.t0 + 0.1
        lo, hi = _hull(frames(s, t, t), axis=1)
        x2 = np.linspace(lo, hi, 2001)
        x1 = np.linspace(*_hull(frames(s, t, t), axis=0), 2001)
        pdf = joint_pdf(s, x1[:, None], t, x2[None, :], t, reflected_weight=0.0)
        curve_y = np.trapezoid(pdf, x1, axis=0)
        w = curve_y / curve_y.sum()
        mean = w @ x2
        sigma = math.sqrt(w @ (x2 - mean) ** 2)
        p = s.params
        a22 = 1.0 / s.dK**2 + 1j * p.hbar * (t - s.t0) / p.M
        expected_sigma = math.sqrt(abs(a22) ** 2 / (2.0 * a22.real))
        assert mean == pytest.approx(s.x2c + p.V * (t - s.t0), abs=1e-6)
        assert sigma == pytest.approx(expected_sigma, rel=1e-4)

    def test_washout_ladder(self, fig7_visibilities):
        vals = fig7_visibilities
        assert vals["fig7-a"]["particle_visibility"] < 0.05
        assert vals["fig7-c"]["particle_visibility"] > 0.5
        # visibility falls as the effective mirror coherence length grows
        order = sorted(vals, key=lambda k: vals[k]["effective_width"])
        vis = [vals[k]["particle_visibility"] for k in order]
        assert all(a >= b - 1e-9 for a, b in zip(vis, vis[1:]))

    def test_mirror_side_washout(self, presets):
        rep = analysis_marginal_visibility(presets["fig9"])
        assert rep["mirror_visibility"] < 0.05
        assert rep["particle_visibility"] > 0.5

    def test_fig9_t2_independence(self, presets):
        from mirrorsim.scenario import analysis_marginal_t2_independence
        rep = analysis_marginal_t2_independence(presets["fig9"])
        assert rep["linf_over_peak"] < 1e-6

    def test_t2_independence_after_the_particle_time(self):
        # a negative beat (fig5's system with V = -30) still samples t2 >= t1
        from mirrorsim.scenario import analysis_marginal_t2_independence
        s = from_config({"name": "fig5-vneg", "units": "natural",
                         "params": {"m": 1.0, "M": 3.0, "v": 50.0, "V": -30.0},
                         "wavegroup": {"dk": 1.0, "dK": 2.0, "x1c": -10.0, "x2c": 0.0},
                         "analyses": ["marginal-t2-independence"]})
        assert s.wavegroup.beat0 < 0.0
        offsets = analysis_marginal_t2_independence(s)["t2_offsets"]
        assert len(offsets) == 4 and min(offsets) == 0.0 < max(offsets)


def _wall_trapezoid(spec, outer, t1, t2, axis, n=80001, pad=14.0):
    """Trapezoid oracle of the half-line trace along ``axis`` (1: x2 >= x1,
    0: x1 <= x2) at each outer point. Its nodes start at the wall (or end
    there), so the integrand is smooth between nodes and the error is
    O(h^2). They span both branches' conditional +-pad sigma, read from
    the packet frames' covariances."""
    packets = frames(spec, t1, t2)
    other = 1 - axis
    y = []
    for o in outer:
        lo, hi = math.inf, -math.inf
        for centre, cov in packets:
            prec = np.linalg.inv(cov)
            sigma = 1.0 / math.sqrt(prec[axis, axis])
            c = centre[axis] - prec[axis, other] / prec[axis, axis] * (o - centre[other])
            lo, hi = min(lo, c - pad * sigma), max(hi, c + pad * sigma)
        if axis == 1:
            u = np.linspace(max(o, lo), max(o, hi), n)
            y.append(np.trapezoid(joint_pdf(spec, o, t1, u, t2), u))
        else:
            u = np.linspace(min(o, lo), min(o, hi), n)
            y.append(np.trapezoid(joint_pdf(spec, u, t1, o, t2), u))
    return np.array(y)


class TestClosedTrace:
    """The closed-form half-line trace against a wall-aligned trapezoid."""

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_matches_wall_aligned_trapezoid(self, name):
        spec = PRESETS[name].wavegroup
        t_c, tau = spec.collision_time, spec.tau
        for t1 in (t_c - tau, t_c, t_c + 2.0 * tau):
            for t2 in (t1, t1 + 0.37 * tau):
                for axis, trace in ((1, marginal_over_mirror), (0, marginal_over_particle)):
                    outer = np.linspace(*_hull(frames(spec, t1, t2), axis=1 - axis), 4001)
                    y = trace(spec, outer, t1, t2).y
                    assert np.all(np.isfinite(y)) and y.min() >= 0.0
                    # the mode and the two quartiles of the traced curve
                    cdf = np.cumsum(y) / y.sum()
                    idx = [int(np.argmax(y)), *np.searchsorted(cdf, [0.25, 0.75])]
                    oracle = _wall_trapezoid(spec, outer[idx], t1, t2, axis)
                    assert np.abs(y[idx] - oracle).max() <= 1e-6 * y.max(), (t1, t2, axis)

    def test_import_loads_no_scipy(self, tmp_path):
        # scipy takes 0.2-0.3 s and 20 MB to import; the traces' erfcx and w
        # are numpy kernels, so no command needs it
        import mirrorsim
        src = str(Path(mirrorsim.__file__).parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = "import sys, mirrorsim; print('scipy' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == "False"
        # every tracing command, with any import of scipy made to fail
        code = ("import sys\n"
                "sys.modules['scipy'] = None\n"
                "from mirrorsim.cli import main\n"
                "sys.exit(max(main([command, '--preset', preset, '--out', sys.argv[1]])\n"
                "             for command in ('marginal', 'collapse', 'observables')\n"
                "             for preset in ('fig5', 'fig9')))\n")
        proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


def _sampled_widths(spec, t, n):
    """The standard deviations of both synchronous marginals at t, each traced
    on n points over 10 sigma either side of the packets centred on the
    physical side (or of both when neither is)."""
    packets = frames(spec, t, t)
    packets = [(c, cov) for c, cov in packets if c[0] <= c[1]] or packets
    widths = []
    for axis, marginal in ((0, marginal_over_mirror), (1, marginal_over_particle)):
        x = np.linspace(*_hull(packets, axis, pad=10.0), n)
        w = marginal(spec, x, t, t).y
        w = w / w.sum()
        widths.append(math.sqrt(w @ (x - w @ x) ** 2))
    return widths


class TestCoherenceTransfer:
    @pytest.mark.parametrize("name", ["fig6-m1", "fig6-m20"])
    @pytest.mark.parametrize("at", ["pre_t", "post_t", "post_t+tau/2", "t_c"])
    def test_exact_widths_match_fine_sampling(self, presets, name, at):
        # the widths the analysis reads, and at t_c, where the fringes overlap;
        # the worst measured gap is 6.7e-16
        s = presets[name]
        spec, post = s.wavegroup, s.collision_time + 2.0 * s.tau
        t = {"pre_t": spec.t0, "post_t": post, "post_t+tau/2": post + 0.5 * spec.tau,
             "t_c": s.collision_time}[at]
        assert _measured_widths(spec, t) == pytest.approx(_sampled_widths(spec, t, 65537),
                                                          rel=2e-15, abs=0.0)

    def test_exact_widths_where_the_wall_cuts_the_packet(self, presets):
        # fig8 at t_c + 2 tau: the sampled particle width converges from below,
        # off by 8.0e-10 at 4,097 points and 1.8e-13 at 65,537; at 262,145 the
        # gap is 1.55e-15
        s = presets["fig8"]
        t = s.collision_time + 2.0 * s.tau
        exact = _measured_widths(s.wavegroup, t)
        assert exact == pytest.approx(_sampled_widths(s.wavegroup, t, 262145),
                                      rel=2e-15, abs=0.0)
        assert exact[0] / _sampled_widths(s.wavegroup, t, 4097)[0] - 1.0 > 1e-10

    def test_widths_trace_nothing(self, presets, monkeypatch):
        def traced(*args, **kwargs):
            raise AssertionError("coherence transfer traced a marginal")

        for module in (wavegroup, observables):
            monkeypatch.setattr(module, "_closed_trace", traced)
        s = presets["fig6-m1"]
        rep = coherence_transfer_metrics(s.wavegroup, pre_t=s.wavegroup.t0,
                                         post_t=s.collision_time + 2.0 * s.tau)
        assert 0.9 <= rep.exchange_particle <= 1.1

    def test_equal_mass_exchange(self, presets):
        s = presets["fig6-m1"]
        rep = coherence_transfer_metrics(
            s.wavegroup, pre_t=s.wavegroup.t0,
            post_t=s.collision_time + 2.0 * s.tau)
        assert 0.9 <= rep.exchange_particle <= 1.1
        assert 0.9 <= rep.exchange_mirror <= 1.1

    def test_incoming_widths_to_rounding(self, presets):
        # sampled on the physical packet alone, 10 sigma each side
        s = presets["fig6-m1"]
        spec = s.wavegroup
        rep = coherence_transfer_metrics(
            spec, pre_t=spec.t0, post_t=s.collision_time + 2.0 * s.tau)
        for width, dk in ((rep.width_particle_in, spec.dk), (rep.width_mirror_in, spec.dK)):
            assert width == pytest.approx(1.0 / (math.sqrt(2.0) * dk), rel=1e-15, abs=0.0)

    def test_mass_ratio_20_control(self, presets):
        s = presets["fig6-m20"]
        rep = coherence_transfer_metrics(
            s.wavegroup, pre_t=s.wavegroup.t0,
            post_t=s.collision_time + 2.0 * s.tau)
        assert not (0.7 <= rep.exchange_particle <= 1.4)
        assert not (0.7 <= rep.exchange_mirror <= 1.4)

    def test_overlap_at_post_t_warns(self, presets):
        s = presets["fig6-m1"]
        with pytest.warns(IncompleteSeparationWarning):
            coherence_transfer_metrics(s.wavegroup, pre_t=s.wavegroup.t0,
                                       post_t=s.collision_time)

    @pytest.mark.parametrize("ratio, zero", [("exchange_particle", "width_mirror_in"),
                                             ("exchange_mirror", "width_particle_in")])
    def test_zero_incoming_width_names_the_cause(self, ratio, zero):
        widths = dict.fromkeys(("width_particle_in", "width_mirror_in",
                                "width_particle_out", "width_mirror_out"), 1.0)
        rep = CoherenceTransferReport(**{**widths, zero: 0.0})
        body = zero.split("_")[1]
        with pytest.raises(ValueError, match=f"incoming {body} width measured 0"):
            getattr(rep, ratio)

    def test_symmetric_spec_is_trivial(self):
        p = PhysicalParams.natural(M=1.0, v=400.0, V=80.0)
        spec = WavegroupSpec(p, dk=2.0, dK=2.0, x1c=-6.0, x2c=0.0)
        rep = coherence_transfer_metrics(
            spec, pre_t=0.0, post_t=spec.collision_time + 2.0 * spec.tau)
        assert rep.exchange_particle == pytest.approx(1.0, abs=0.1)
        assert rep.exchange_mirror == pytest.approx(1.0, abs=0.1)


class TestDecoherenceReport:
    P = PhysicalParams(m=1.4e-25, M=1e-8, v=0.03, V=0.01)

    def test_frozen_values(self):
        rep = decoherence_report(self.P, T=1.0, dt=1.0, m_star=1e-25,
                                 l_c_particle=1e-6)
        assert rep.lambda_T == pytest.approx(1.2609544256440472e-18, rel=1e-12)
        assert rep.dx_paths == pytest.approx(8.4e-19, rel=1e-12)
        assert rep.t_D_over_t_R == pytest.approx(2.253409954012626, rel=1e-12)
        assert rep.v_probe_sync == pytest.approx(1.1832268125e14, rel=1e-12)
        assert rep.v_probe_async == pytest.approx(7888178750.0, rel=1e-12)
        assert rep.overlap_time == pytest.approx(0.75056811050240904, rel=1e-12)

    def test_internal_consistency(self):
        rep = decoherence_report(self.P, T=1.0, dt=1.0, m_star=1e-25,
                                 l_c_particle=1e-6)
        assert rep.t_D_over_t_R == pytest.approx(
            (rep.lambda_T / rep.dx_paths) ** 2, rel=1e-12)

    def test_inverse_square_time_scaling(self):
        a = decoherence_report(self.P, T=1.0, dt=1.0, m_star=1e-25, l_c_particle=1e-6)
        b = decoherence_report(self.P, T=1.0, dt=2.0, m_star=1e-25, l_c_particle=1e-6)
        assert b.t_D_over_t_R == pytest.approx(a.t_D_over_t_R / 4.0, rel=1e-12)

    def test_mesoscopic_probe_velocity(self):
        # probe velocity of order 1e6 m/s, with v*dt = 3.3 m reconstructed
        # by inverting the asynchronous formula
        p = PhysicalParams(m=1e-25, M=1e-10, v=3.3, V=0.0)
        rep = decoherence_report(p, T=1.0, dt=1.0, m_star=1e-25, l_c_particle=1e-6)
        assert rep.v_probe_async == pytest.approx(1003950.0227272727, rel=1e-12)
        assert abs(rep.v_probe_async - 1e6) / 1e6 < 0.01

    def test_decoherence_ratio_1e5_reconstruction(self):
        # the 1e5 ratio for a 1e-8 kg mirror at 1 K over 1 s pins the atom
        # speed near 1.4e-4 m/s
        p = PhysicalParams(m=1.4e-25, M=1e-8, v=1.4241028609659358e-4, V=0.0)
        rep = decoherence_report(p, T=1.0, dt=1.0, m_star=1e-25, l_c_particle=1e-6)
        assert rep.t_D_over_t_R == pytest.approx(1e5, rel=1e-10)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            decoherence_report(self.P, T=0.0, dt=1.0, m_star=1e-25, l_c_particle=1e-6)
        with pytest.raises(ValueError):
            decoherence_report(self.P, T=1.0, dt=-1.0, m_star=1e-25, l_c_particle=1e-6)


def resolve_event_overlap(spec):
    from mirrorsim import MeasurementEvent
    t10 = spec.collision_time
    x_c = spec.collision_point
    x1 = np.linspace(x_c - 2.0 / spec.dk, x_c + 2.0 / spec.dk, 2001)
    marg = marginal_over_mirror(spec, x1, t10, t10).y
    return MeasurementEvent(x10=float(x1[np.argmax(marg)]), t10=t10)
