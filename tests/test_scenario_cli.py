import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from mirrorsim import AxisSpec, GridSpec, FieldGrid, cli, joint_pdf, wavegroup
from mirrorsim.cli import main
from mirrorsim.measurement import (MeasurementEvent, classify_regime, collapse,
                                   sequential_probability)
from mirrorsim.observables import marginal_over_mirror, marginal_over_particle
from mirrorsim.scenario import (PRESETS, PRESET_GROUPS, RawEvent,
                                ScenarioValidationError, conditional_pdf_curves,
                                from_config, joint_pdf_grid, load_scenario,
                                resolve_event, resolve_preset, run_analysis,
                                scenario_hash, serialize, to_config, validate_config)

from conftest import SWEEP_SI, sweep_config


def _set_at(cfg: dict, path: str, value) -> None:
    """Set the config value at a field path such as ``grids[0].axes[1].n``."""
    *parents, leaf = path.replace("]", "").replace("[", ".").split(".")
    for key in parents:
        cfg = cfg[int(key)] if key.isdigit() else cfg[key]
    cfg[leaf] = value


class TestGridTypes:
    def test_axis_invariants(self):
        with pytest.raises(ValueError):
            AxisSpec("x1", 0.0, 1.0, 8)
        with pytest.raises(ValueError):
            AxisSpec("x1", 1.0, 1.0, 32)
        with pytest.raises(ValueError):
            AxisSpec("q", 0.0, 1.0, 32)

    @pytest.mark.parametrize("n", [16.5, 16.0, True, "32", None])
    def test_axis_n_must_be_an_integer(self, n):
        # a float count would reach np.linspace and raise a bare TypeError there
        with pytest.raises(ValueError, match=r"^AxisSpec\.n must be an integer >= 16$"):
            AxisSpec("x1", 0.0, 1.0, n)
        for n in (16, np.int64(16)):
            assert AxisSpec("x1", 0.0, 1.0, n).values().size == 16

    def test_axis_n_has_a_ceiling(self):
        # a count too large for memory is named here, not by np.linspace
        assert AxisSpec("x1", 0.0, 1.0, 4096).n == 4096
        for n in (4097, 2**63, 10**400, np.int64(2**62)):
            assert AxisSpec._rules(n=n) == [("n", "must be at most 4096")]
            with pytest.raises(ValueError, match=r"^AxisSpec\.n must be at most 4096$"):
                AxisSpec("x1", 0.0, 1.0, n)

    def test_axis_error_names_every_broken_field(self):
        with pytest.raises(ValueError) as err:
            AxisSpec("q", 1.0, math.inf, 8)
        assert str(err.value) == ("AxisSpec.hi must be finite, got inf; "
                                  "AxisSpec.role must be one of ('x1', 'x2'); "
                                  "AxisSpec.n must be an integer >= 16")
        with pytest.raises(ValueError, match=r"^GridSpec\.axes must be two axes, x1 then x2$"):
            GridSpec(axes=(AxisSpec("x2", 0, 1, 16), AxisSpec("x1", 0, 1, 16)))

    def test_grid_is_x1_then_x2(self):
        x1, x2 = AxisSpec("x1", 0, 1, 16), AxisSpec("x2", 0, 1, 16)
        for axes in ((x2, x1), (x1,), (x1, x2, x2)):
            with pytest.raises(ValueError):
                GridSpec(axes=axes)

    def test_field_grid_shape_check(self):
        grid = GridSpec(axes=(AxisSpec("x1", 0, 1, 16), AxisSpec("x2", 0, 1, 16)))
        with pytest.raises(ValueError):
            FieldGrid(grid=grid, values=np.zeros((8, 16)))
        with pytest.raises(ValueError):
            FieldGrid(grid=grid, values=-np.ones((16, 16)))


class TestPresets:
    def test_all_presets_valid(self):
        for name, s in PRESETS.items():
            assert s.name == name
            assert not validate_config(to_config(s))

    def test_groups_resolve(self):
        assert len(resolve_preset("fig7")) == 4
        assert len(resolve_preset("fig2")) == 1
        with pytest.raises(KeyError):
            resolve_preset("fig99")

    def test_fig2_parameters(self):
        s = PRESETS["fig2"]
        assert s.params.M / s.params.m == pytest.approx(100.0)
        assert s.wavegroup.dK / s.wavegroup.dk == pytest.approx(2.0)
        assert s.wavegroup.params.K / s.wavegroup.params.k == pytest.approx(60.0)

    def test_presets_share_their_systems(self):
        assert PRESETS["fig3-a"].wavegroup == PRESETS["fig2"].wavegroup
        assert PRESETS["fig4"].wavegroup == PRESETS["fig5"].wavegroup

    def test_fig8_parameters(self):
        s = PRESETS["fig8"]
        assert s.params.m == pytest.approx(1.4e-25)
        assert s.params.M == pytest.approx(1e-8)
        assert s.params.v == pytest.approx(0.03)
        assert s.params.V == pytest.approx(0.01)
        assert s.units == "SI"

    def test_roundtrip(self):
        for s in PRESETS.values():
            clone = from_config(json.loads(serialize(s)))
            assert serialize(clone) == serialize(s)
            assert scenario_hash(clone) == scenario_hash(s)

    def test_hashes_are_pinned(self):
        # grid bounds are rounded to 12 significant digits, so a last-bit
        # change in the kernel's packet frames leaves every hash as it is
        assert {name: scenario_hash(s) for name, s in PRESETS.items()} == {
            "fig2": "d3be03ca685f7279", "fig3-a": "92d787bd9d373a52",
            "fig3-b": "c4e7c1a6ec9e285f", "fig3-c": "a23d0b15b06f4329",
            "fig4": "edd2186b9ba635d5", "fig5": "bd2da6a07fe0f700",
            "fig6-m1": "8b9da494b2597070", "fig6-m20": "ba76793cc0abb0cc",
            "fig7-a": "760faf7d8873facc", "fig7-b": "d621e64588949354",
            "fig7-c": "1436b22846696a15", "fig7-d": "7c3159ca4037bff8",
            "fig8": "8ebca6b726218821", "fig9": "35eee3ff84eda1f6",
            "cont": "ea3efd095550c814",
        }


class TestConfigValidation:
    def test_reports_all_violations_with_paths(self):
        cfg = {
            "name": "", "units": "parsec",
            "params": {"m": -1.0, "M": 2.0, "v": 0.0, "V": 1.0},
            "wavegroup": {"dk": 0.0, "dK": 1.0, "x1c": 2.0, "x2c": 0.0},
            "events": [{"t10": -5.0, "dx1": -1.0}],
            "grids": [{"axes": [{"role": "zz", "lo": 0.0, "hi": 0.0, "n": 4}]}],
            "analyses": ["nonsense"],
        }
        violations = validate_config(cfg)
        joined = "\n".join(violations)
        for token in ("units", "name", "params.m", "params.v", "wavegroup.dk",
                      "wavegroup.x1c", "events[0].dx1", "grids[0].axes[0]",
                      "analyses[0]"):
            assert token in joined
        with pytest.raises(ScenarioValidationError):
            from_config(cfg)

    def test_rejects_name_with_path_separator(self):
        for name in ("../escaped", "a/b", "a\\b"):
            cfg = json.loads(serialize(PRESETS["fig2"]))
            cfg["name"] = name
            assert validate_config(cfg) == ["name: must not contain '/' or '\\'"]

    def test_rejects_non_numeric_snapshot_time(self):
        cfg = json.loads(serialize(PRESETS["fig2"]))
        cfg["snapshot_times"] = [cfg["snapshot_times"][0], "soon", True]
        assert validate_config(cfg) == ["snapshot_times[1]: not a number",
                                        "snapshot_times[2]: not a number"]

    def test_rejects_non_string_description(self):
        cfg = json.loads(serialize(PRESETS["fig2"]))
        cfg["description"] = ["not", "text"]
        assert validate_config(cfg) == ["description: must be a string"]

    def test_rejects_unhashable_analysis(self):
        # analysis names are looked up in a dict, which a JSON list cannot key
        cfg = json.loads(serialize(PRESETS["fig2"]))
        cfg["analyses"] = [["fringes"], "fringes"]
        assert validate_config(cfg) == ["analyses[0]: unknown analysis '['fringes']'"]

    def test_event_analyses_need_an_event(self, tmp_path):
        # beat and split-velocities read the first event and regime classifies
        # each, so a config without one is rejected before any analysis runs
        cfg = json.loads(serialize(PRESETS["fig2"]))
        cfg["analyses"] = ["fringes", "beat", "split-velocities", "regime"]
        assert validate_config(cfg) == ["analyses[1]: 'beat' needs an event",
                                        "analyses[2]: 'split-velocities' needs an event",
                                        "analyses[3]: 'regime' needs an event"]
        path = tmp_path / "fig2.json"
        path.write_text(json.dumps(cfg))
        assert main(["observables", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("path", ["analysis", "snapshot_time", "params.mass",
                                      "wavegroup.t1", "events[0].x1", "grids[0].shape",
                                      "grids[0].axes[1].step"])
    def test_unknown_key_is_named(self, path):
        # a typo such as "analysis" would otherwise leave the default analyses to run
        cfg = json.loads(serialize(PRESETS["fig2"]))
        cfg["events"] = [{"t10": cfg["snapshot_times"][0]}]
        _set_at(cfg, path, ["beat"])
        assert validate_config(cfg) == [f"{path}: unknown key"]
        with pytest.raises(ScenarioValidationError):
            from_config(cfg)

    def test_absent_keys_take_the_class_defaults(self):
        cfg = json.loads(serialize(PRESETS["fig5"]))
        for key in ("description", "grids", "events", "snapshot_times", "analyses"):
            del cfg[key]
        del cfg["wavegroup"]["t0"]
        cfg["events"] = [{"t10": 1.0}]
        s = from_config(cfg)
        assert (s.description, s.wavegroup.t0) == ("", 0.0)
        assert s.events == (RawEvent(t10=1.0),)
        assert s.events[0].dx1 == MeasurementEvent(x10=0.0, t10=1.0).dx1 == 1e-3

    def test_load_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        with pytest.raises(json.JSONDecodeError) as err:
            load_scenario(bad)
        assert err.value.lineno >= 1

    def test_load_valid_file(self, tmp_path):
        path = tmp_path / "fig2.json"
        path.write_text(serialize(PRESETS["fig2"]))
        s = load_scenario(path)
        assert s.name == "fig2"


class TestResolveEvent:
    def test_each_event_resolved_once(self):
        # fig5's regime, split-velocities and beat analyses share one event
        s = PRESETS["fig5"]
        first = resolve_event(s, s.events[0])
        assert resolve_event(s, s.events[0]) is first


class TestSplitVelocities:
    def test_expected_difference_on_fig5(self):
        # 2 m (v - V) / (m + M) = 2 * 20 / 4
        assert run_analysis(PRESETS["fig5"], "split-velocities")["expected_difference"] == 10.0

    def test_expected_difference_below_an_ulp_of_V(self):
        # fig8's recoil lies below half an ulp of V = 0.01: the two expected
        # velocities are one number, and only the difference holds the recoil
        p = PRESETS["fig8"].params
        rep = run_analysis(PRESETS["fig8"], "split-velocities")
        assert rep["expected_fast"] == rep["expected_slow"] == p.V
        assert rep["expected_difference"] == pytest.approx(5.6e-19, rel=1e-12, abs=0.0)


class TestJointGrid:
    def test_coarse_sampling_flag(self, spec_fig2):
        grid = GridSpec(axes=(AxisSpec("x1", 10.0, 20.0, 16),
                              AxisSpec("x2", 10.0, 20.0, 16)))
        fg = joint_pdf_grid(spec_fig2, grid, spec_fig2.collision_time,
                            spec_fig2.collision_time)
        assert "coarse-sampling" in fg.provenance["flags"]

    def test_values_non_negative(self, spec_fig2):
        s = spec_fig2
        grid = GridSpec(axes=(AxisSpec("x1", 10.0, 20.0, 64),
                              AxisSpec("x2", 10.0, 20.0, 64)))
        fg = joint_pdf_grid(s, grid, s.collision_time, s.collision_time)
        assert fg.values.min() >= 0.0
        assert fg.values.max() > 0.0


class TestPhysicalHalfGrid:
    """``joint_pdf_grid`` evaluates x1 <= x2 in blocks of rows, and every value
    is bitwise the stepped smooth form on the whole grid."""

    @staticmethod
    def _full(spec, grid, t1, t2):
        x1, x2 = (a.values() for a in grid.axes)
        smooth = joint_pdf(spec, x1[:, None], t1, x2[None, :], t2, apply_step=False)
        return np.where(x1[:, None] <= x2[None, :], smooth, 0.0)

    def _assert_bitwise(self, spec, grid, t1, t2):
        values = joint_pdf_grid(spec, grid, t1, t2).values
        expected = self._full(spec, grid, t1, t2)
        assert values.shape == expected.shape
        assert np.array_equal(values.view(np.uint64), expected.view(np.uint64))
        return values

    @pytest.mark.parametrize("name", sorted(PRESETS))
    @pytest.mark.parametrize("later", [0.0, 1.0], ids=["equal-times", "mirror-later"])
    def test_presets_bitwise(self, name, later):
        s = PRESETS[name]
        grid = GridSpec(axes=tuple(AxisSpec(a.role, a.lo, a.hi, 96) for a in s.grid.axes))
        t_c = s.collision_time
        values = self._assert_bitwise(s.wavegroup, grid, t_c, t_c + later * s.tau)
        if not later:  # the snapshot grids frame both packets at t_c
            assert values.max() > 0.0

    def test_nodes_on_the_wall(self, spec_fig5):
        x_c = spec_fig5.collision_point
        same = AxisSpec("x1", x_c - 3.0, x_c + 3.0, 61)
        shifted = AxisSpec("x2", x_c - 2.0, x_c + 4.0, 61)  # shares 51 nodes with x1
        t_c = spec_fig5.collision_time
        for x2_axis in (AxisSpec("x2", same.lo, same.hi, same.n), shifted):
            grid = GridSpec(axes=(same, x2_axis))
            x1, x2 = (a.values() for a in grid.axes)
            assert np.any(x1[:, None] == x2[None, :])
            self._assert_bitwise(spec_fig5, grid, t_c, t_c)

    def test_grid_wholly_above_the_wall(self, spec_fig5):
        x_c = spec_fig5.collision_point
        grid = GridSpec(axes=(AxisSpec("x1", x_c - 4.0, x_c - 1.0, 40),
                              AxisSpec("x2", x_c - 0.5, x_c + 3.0, 48)))
        t_c = spec_fig5.collision_time
        values = self._assert_bitwise(spec_fig5, grid, t_c, t_c + spec_fig5.tau)
        assert np.all(values > 0.0)

    def test_grid_wholly_below_the_wall(self, spec_fig5):
        x_c = spec_fig5.collision_point
        grid = GridSpec(axes=(AxisSpec("x1", x_c + 1.0, x_c + 4.0, 40),
                              AxisSpec("x2", x_c - 3.0, x_c + 0.5, 48)))
        t_c = spec_fig5.collision_time
        values = self._assert_bitwise(spec_fig5, grid, t_c, t_c)
        assert not np.any(values.view(np.uint64))  # +0.0 everywhere

    @pytest.mark.parametrize("x1_span, x2_span, live, points", [
        ((-3.0, 3.0), (-3.0, 3.0), 37, 1871),      # unequal axes, the wall across
        ((1.0, 4.0), (-3.0, 0.5), 0, 0),           # x1 wholly past x2: +0.0 everywhere
        ((-4.0, -1.0), (-0.5, 3.0), 37, 37 * 101),  # x1 wholly before x2: all physical
        ((-1.0, 5.0), (-3.0, 3.0), 25, 847),       # x1 starts inside x2, passes its end
    ], ids=["unequal", "x1-past-x2", "x1-before-x2", "x1-starts-inside"])
    def test_row_blocks(self, spec_fig5, x1_span, x2_span, live, points):
        """37 x 101 grids: 37 rows, and the 25 rows of the last case with a
        physical point, end in the middle of a block of ``_ROWS``."""
        x_c, t_c = spec_fig5.collision_point, spec_fig5.collision_time
        grid = GridSpec(axes=(AxisSpec("x1", x_c + x1_span[0], x_c + x1_span[1], 37),
                              AxisSpec("x2", x_c + x2_span[0], x_c + x2_span[1], 101)))
        values = self._assert_bitwise(spec_fig5, grid, t_c, t_c + spec_fig5.tau)
        x1, x2 = (a.values() for a in grid.axes)
        physical = x1[:, None] <= x2[None, :]
        assert np.count_nonzero(physical.any(axis=1)) == live
        assert np.count_nonzero(physical) == points
        assert np.array_equal(values > 0.0, physical)  # no physical value underflows here

    def test_reflected_branch_only_on_the_physical_half(self, monkeypatch):
        s = PRESETS["fig5"]
        grid = GridSpec(axes=tuple(AxisSpec(a.role, a.lo, a.hi, 96) for a in s.grid.axes))
        points = []
        original = wavegroup._Density.density

        def counted(*args):
            out = original(*args)
            points.append(out.size)
            return out

        monkeypatch.setattr(wavegroup._Density, "density", counted)
        joint_pdf_grid(s.wavegroup, grid, s.collision_time, s.collision_time)
        x1, x2 = (a.values() for a in grid.axes)
        physical = np.count_nonzero(x1[:, None] <= x2[None, :])
        assert 0 < physical < x1.size * x2.size
        # beyond the physical points a block evaluates only its corner: at most
        # _ROWS - 1 rows by the columns its rows' starts span, which sum to len(x2)
        assert physical <= sum(points) <= physical + (wavegroup._ROWS - 1) * x2.size


def _full_trace(spec, outer, t1, t2, axis):
    """The closed trace with the cross term evaluated at every point and both
    intensity terms through the complex erfc at zero slope, in the same
    summation order: what ``_closed_trace`` gives with no term skipped."""
    density = wavegroup._density_form(spec, t1, t2)
    k_in, k_ref = density.kappa(axis)
    sign = 1.0 if axis == 1 else -1.0
    a_in, a_ref = k_in.real, k_ref.real
    (s_in, log_in), (s_ref, log_ref) = density.peaks(axis, outer)
    e_start, _ = density._offsets(axis, outer)
    mid = density.centre(axis) + a_ref * s_ref / (a_in + a_ref)
    log_c, theta, slope = density.cross(axis, mid, outer)
    cross = wavegroup._half_line(log_c + 2j * theta, 0.5 * (k_in + np.conj(k_ref)),
                                 sign * (outer - mid), 2j * sign * slope)
    y = -2.0 * cross.real
    for log_c, s, a in zip((log_in, log_ref), (s_in, s_ref), (a_in, a_ref)):
        y += wavegroup._half_line(log_c, a, sign * (e_start - s), 0.0).real
    return np.maximum(y, 0.0)


def _bits(x):
    return np.ascontiguousarray(x, dtype=float).tobytes()


class TestClosedTraceWork:
    """One ``_closed_trace`` call evaluates both branches' peaks on every
    point, through the real erfc, and the cross term only where
    Cauchy-Schwarz lets it change the sum; no probability evaluates a complex
    amplitude (``_fields``)."""

    @pytest.mark.parametrize("axis", [0, 1])
    def test_two_evaluations_per_branch(self, monkeypatch, axis):
        # fig6-m1's branches part along both axes, so each trace skips points
        s = PRESETS["fig6-m1"]
        calls = {"_fields": [], "_half_line": [], "peaks": [], "cross": []}
        for name, seen in calls.items():
            owner = wavegroup._Density if name in ("peaks", "cross") else wavegroup

            def counted(*args, original=getattr(owner, name), seen=seen, **kwargs):
                seen.append(args)
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        outer = s.grid.axes[1 - axis].values()
        t_c = s.collision_time
        wavegroup._closed_trace(s.wavegroup, outer, t_c, t_c + s.tau, axis)
        assert calls["_fields"] == []
        (log_in, a_in, _), (log_ref, a_ref, _), (*_, cross_slope) = calls["_half_line"]
        assert isinstance(a_in, float) and isinstance(a_ref, float)
        # the points the bound keeps: Cauchy-Schwarz on the intensity terms,
        # each raised by a bound on its underflow, where the cross term's
        # exponent can exceed -746
        y_in, y_ref = (wavegroup._half_line(*args) for args in calls["_half_line"][:2])
        lost_in, lost_ref = (2.0**-1022 * (1.0 + math.sqrt(math.pi / a)) for a in (a_in, a_ref))
        kept = np.count_nonzero((log_in + log_ref > -1492.0)
                                & (np.sqrt(y_in + lost_in) * np.sqrt(y_ref + lost_ref)
                                   > 2.0**-81 * (y_in + y_ref)))
        assert 0 < kept < outer.size and cross_slope.size == kept
        assert [np.broadcast(*x).size for _, _, *x in calls["peaks"]] == [outer.size]
        assert [np.broadcast(*x).size for _, _, *x in calls["cross"]] == [kept]

    def test_real_half_line_is_the_complex_one_bitwise(self):
        d = np.concatenate([np.linspace(-30.0, 30.0, 4097), [-np.inf, np.inf, -0.0, 0.0]])
        log_c = np.linspace(-700.0, 5.0, d.size)
        for alpha in (1e-3, 1.0, 4.965089216446859, 1e6):
            real = wavegroup._half_line(log_c, alpha, d)
            assert real.dtype == float
            assert _bits(real) == _bits(wavegroup._half_line(log_c, alpha, d, 0.0).real)

    @pytest.mark.parametrize("name, offset", [("fig5", 0.0), ("fig6-m1", 0.0),
                                              ("fig8", 0.0), ("fig2", 1e14)])
    def test_matches_the_full_evaluation_bitwise(self, name, offset):
        # fig2's mirror 1e14 tau past the detection has spread by 1e14
        s = PRESETS[name]
        spec, t_c, tau = s.wavegroup, s.collision_time, s.tau
        for t1, t2 in ((t_c, t_c + offset * tau), (t_c + 0.5 * tau, t_c + offset * tau),
                       (t_c + 2.0 * tau, t_c + 2.0 * tau + offset * tau)):
            for axis in (0, 1):
                outer = s.grid.axes[1 - axis].values()
                if offset:
                    outer = np.linspace(outer[0], outer[-1], 4097)
                got = wavegroup._closed_trace(spec, outer, t1, t2, axis)
                assert _bits(got) == _bits(_full_trace(spec, outer, t1, t2, axis)), (t1, t2, axis)

    @pytest.mark.parametrize("name", ["fig5", "fig8"])
    def test_probabilities_without_the_complex_gaussian(self, monkeypatch, name):
        def refused(*args):
            raise AssertionError("a probability evaluated a complex amplitude")

        monkeypatch.setattr(wavegroup, "_fields", refused)
        s = PRESETS[name]
        spec, t_c = s.wavegroup, s.collision_time
        x1, x2 = (a.values() for a in s.grid.axes)
        for trace, x in ((marginal_over_mirror, x1), (marginal_over_particle, x2)):
            assert trace(spec, x, t_c + 0.5 * s.tau, t_c).y.max() > 0.0
        event = resolve_event(s, s.events[0])
        state = collapse(spec, event)
        t2 = event.t10 + s.tau
        assert state.norm(t2) > 0.0
        window = state._wall_support(t2)
        assert sequential_probability(spec, event, window, t2).value > 0.0
        assert classify_regime(spec, event) in ("A", "B")


class TestConditionalGrids:
    @pytest.mark.parametrize("name, coarse", [("fig8", False), ("cont", True),
                                              ("fig2", False)])
    def test_coarse_sampling_flag(self, name, coarse):
        # each curve spans its own support, so fig8's narrow mirror branches
        # are resolved; cont's fringes are far finer than any 256-point step
        s = PRESETS[name]
        raw = s.events[0] if s.events else RawEvent(t10=s.collision_time)
        curves = conditional_pdf_curves(s, raw, [raw.t10 + k * s.tau for k in (0, 1, 2)])
        assert [("coarse-sampling" in c.meta["flags"]) for c in curves] == [coarse] * 3


def _fig2_config(**changes) -> dict:
    cfg = json.loads(serialize(PRESETS["fig2"]))
    cfg.update(changes)
    return cfg


def _axis(role, n=16):
    return {"role": role, "lo": -1.0, "hi": 1.0, "n": n}


def _data_rows(path) -> list[str]:
    return [line for line in Path(path).read_text().splitlines()
            if not line.startswith("#")]


class TestOutputShapes:
    @pytest.mark.parametrize("name", ["fig8", "fig9"])
    def test_default_collapse_holds_the_mirror_packet(self, tmp_path, name):
        # on one x2 range shared by all three times these curves held 0-1
        # nonzero samples; on each time's own support they hold the packet
        assert main(["collapse", "--preset", name, "--out", str(tmp_path)]) == 0
        s = PRESETS[name]
        state = collapse(s.wavegroup, resolve_event(s, s.events[0]))
        for i in range(3):
            path = tmp_path / f"{name}_mirror_{i}.csv"
            header = dict(line[2:].split(": ", 1)
                          for line in path.read_text().splitlines()
                          if line.startswith("# ") and ": " in line)
            assert header["columns"] == "x2,value"
            assert header["flags"] == "-"
            x2, pdf = np.loadtxt(path, delimiter=",", unpack=True)
            assert np.count_nonzero(pdf) >= 200
            exact = float(state._trace(float(header["t2"]))[0])
            assert np.trapezoid(pdf, x2) == pytest.approx(exact, rel=1e-4)

    def test_curve_rows_have_the_plotted_columns(self, tmp_path):
        assert main(["collapse", "--preset", "fig5", "--resolution", "64",
                     "--out", str(tmp_path)]) == 0
        assert main(["marginal", "--preset", "fig2", "--resolution", "64",
                     "--out", str(tmp_path)]) == 0
        csvs = sorted(tmp_path.glob("*.csv"))
        assert len(csvs) == 5
        for path in csvs:
            assert "using 1:2" in path.with_suffix(".gp").read_text()
            rows = _data_rows(path)
            assert len(rows) == 64
            for row in rows:
                assert len([float(v) for v in row.split(",")]) == 2

    @pytest.mark.parametrize("grids", [
        [{"axes": [_axis("t1"), _axis("t2")]}],
        [{"axes": [_axis("x2"), _axis("x1")]}],
        [{"axes": [_axis("x1")]}],
        [{"axes": [_axis("x1"), _axis("x2"), _axis("x2")]}],
        [{"axes": [_axis("x1"), _axis("x2")]}] * 2,
    ], ids=["t1-t2", "x2-x1", "one-axis", "three-axes", "two-grids"])
    def test_rejects_grids_other_than_one_x1_x2(self, tmp_path, capsys, grids):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(_fig2_config(grids=grids)))
        assert main(["validate", "--config", str(path)]) == 3
        assert "grids" in capsys.readouterr().err
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 3
        assert "grids" in capsys.readouterr().err
        assert not out.exists()

    def test_gridless_config_is_framed_like_the_preset(self, tmp_path):
        path = tmp_path / "cfg.json"
        cfg = _fig2_config(name="bare")
        del cfg["grids"]
        path.write_text(json.dumps(cfg))
        assert load_scenario(path).grid == PRESETS["fig2"].grid
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        assert main(["simulate", "--preset", "fig2", "--out", str(out)]) == 0
        for i in range(3):
            axes = [[line for line in (out / f"{name}_joint_{i}.csv").read_text()
                     .splitlines() if line.startswith("# axis-")]
                    for name in ("bare", "fig2")]
            assert axes[0] == axes[1] and len(axes[0]) == 2

    def test_resolution_resamples_both_axes(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(_fig2_config(
            grids=[{"axes": [_axis("x1", 32), _axis("x2", 16)]}])))
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(path), "--times", "0",
                     "--resolution", "32", "--out", str(out)]) == 0
        rows = _data_rows(out / "fig2_joint_0.csv")
        assert [len(row.split(",")) for row in rows] == [32] * 32

    @pytest.mark.parametrize("command", ["simulate", "collapse", "marginal"])
    @pytest.mark.parametrize("resolution", ["0", "1", "15"])
    def test_resolution_below_axis_floor_is_a_parse_error(self, tmp_path, capsys,
                                                         command, resolution):
        with pytest.raises(SystemExit) as exc:
            main([command, "--preset", "fig5", "--resolution", resolution,
                  "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "at least 16" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["simulate", "collapse", "marginal"])
    @pytest.mark.parametrize("resolution", [
        "4097", str(2**63), "9" * 400,
        pytest.param("9" * 5000, id="5000-nines"),  # past int()'s 4,300-digit limit
    ])
    def test_resolution_above_axis_ceiling_is_a_parse_error(self, tmp_path, capsys,
                                                           command, resolution):
        with pytest.raises(SystemExit) as exc:
            main([command, "--preset", "fig5", "--resolution", resolution,
                  "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "at least 16 and at most 4096" in err
        assert "_resolution" not in err
        # a long count is quoted by its start and its length, so no line runs long
        assert all(len(line) < 200 for line in err.splitlines())
        assert (f"got '{resolution}'" in err) == (len(resolution) <= 40)
        assert not (tmp_path / "o").exists()

    def test_resolution_is_read_by_its_significant_digits(self, tmp_path):
        out = tmp_path / "o"
        assert main(["simulate", "--preset", "fig2", "--times", "0", "--resolution",
                     "0" * 5000 + "64", "--out", str(out)]) == 0
        rows = _data_rows(out / "fig2_joint_0.csv")
        assert [len(row.split(",")) for row in rows] == [64] * 64


class TestCli:
    def test_fringe_marginal_traced_once_per_run(self, monkeypatch, tmp_path):
        # fig9's four fringe analyses share one trace at (t_c, t_c) in a run;
        # a second run in the same process traces it again
        from mirrorsim import scenario
        s = PRESETS["fig9"]
        t_c, x1 = s.collision_time, scenario._fringe_axis(s)
        seen = []

        def counted(spec, axis, t1, t2, original=scenario.marginal_over_mirror):
            seen.append((t1, t2) if np.array_equal(axis, x1) else None)
            return original(spec, axis, t1, t2)

        monkeypatch.setattr(scenario, "marginal_over_mirror", counted)
        for run in (1, 2):
            assert main(["observables", "--preset", "fig9", "--out", str(tmp_path)]) == 0
            assert seen.count((t_c, t_c)) == run

    def test_presets_list(self, capsys):
        assert main(["presets", "list"]) == 0
        out = capsys.readouterr().out
        assert "fig2" in out and "fig8" in out

    def test_validate_good_and_bad(self, tmp_path, capsys):
        good = tmp_path / "good.json"
        good.write_text(serialize(PRESETS["fig2"]))
        assert main(["validate", "--config", str(good)]) == 0
        bad = tmp_path / "bad.json"
        bad.write_text("{ def not json")
        assert main(["validate", "--config", str(bad)]) == 2
        invalid = tmp_path / "invalid.json"
        cfg = json.loads(serialize(PRESETS["fig2"]))
        cfg["params"]["v"] = cfg["params"]["V"] - 1.0
        invalid.write_text(json.dumps(cfg))
        assert main(["validate", "--config", str(invalid)]) == 3

    def test_validate_rejects_escaping_name_and_bad_time(self, tmp_path, capsys):
        cfg = json.loads(serialize(PRESETS["fig2"]))
        cfg["name"] = "../escaped"
        escaping = tmp_path / "escaping.json"
        escaping.write_text(json.dumps(cfg))
        assert main(["validate", "--config", str(escaping)]) == 3
        assert "name: must not contain" in capsys.readouterr().err
        cfg = json.loads(serialize(PRESETS["fig2"]))
        cfg["snapshot_times"] = ["soon"]
        late = tmp_path / "late.json"
        late.write_text(json.dumps(cfg))
        assert main(["validate", "--config", str(late)]) == 3
        assert "snapshot_times[0]: not a number" in capsys.readouterr().err

    @pytest.mark.parametrize("field,value", [("events", "t10=0"), ("grids", 7),
                                             ("snapshot_times", 5),
                                             ("analyses", "fringes")])
    def test_validate_rejects_non_list_field(self, tmp_path, capsys, field, value):
        cfg = json.loads(serialize(PRESETS["fig2"]))
        cfg[field] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["validate", "--config", str(path)]) == 3
        assert capsys.readouterr().err == f"{field}: must be a list\n"

    def test_simulate_writes_nothing_outside_out(self, tmp_path):
        cfg = json.loads(serialize(PRESETS["fig2"]))
        cfg["name"] = "../escaped"
        path = tmp_path / "escaping.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "run" / "o"
        rc = main(["simulate", "--config", str(path), "--resolution", "16",
                   "--out", str(out)])
        assert rc == 3
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["escaping.json"]

    def test_simulate_fig2_three_times(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["simulate", "--preset", "fig2", "--times", "-1,0,1",
                   "--resolution", "64", "--out", str(out)])
        assert rc == 0
        files = sorted(f.name for f in out.iterdir())
        assert "fig2_joint_0.csv" in files
        assert "fig2_joint_2.csv" in files
        assert "fig2_joint_0.gp" in files
        head = (out / "fig2_joint_0.csv").read_text().splitlines()
        assert head[0].startswith("# mirrorsim-grid")
        assert any(line.startswith("# scenario-hash:") for line in head[:12])
        assert any(line.startswith("# axis-0: x1") for line in head[:12])

    def test_simulate_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            main(["simulate", "--preset", "fig5", "--times", "0",
                  "--resolution", "48", "--out", str(out)])
        fa = (a / "fig5_joint_0.csv").read_bytes()
        fb = (b / "fig5_joint_0.csv").read_bytes()
        assert fa == fb

    def test_collapse_fig5(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["collapse", "--preset", "fig5", "--event", "t10=0",
                   "--times", "0,1,2", "--resolution", "128", "--out", str(out)])
        assert rc == 0
        files = sorted(f.name for f in out.iterdir())
        assert "fig5_mirror_0.csv" in files and "fig5_mirror_2.csv" in files

    def test_marginal_command(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["marginal", "--preset", "fig2", "--resolution", "256",
                   "--out", str(out)])
        assert rc == 0
        assert (out / "fig2_marginal_x1_0.csv").exists()
        assert (out / "fig2_marginal_x2_0.csv").exists()

    def test_check_cont(self, tmp_path):
        out = tmp_path / "o"
        assert main(["check", "--preset", "cont", "--out", str(out)]) == 0
        report = json.loads((out / "cont_check.json").read_text())
        assert report["pass"] is True
        assert report["max_over_scale"] < 1e-6

    @pytest.mark.parametrize("preset", ["fig7", "fig9", "fig8"])
    def test_check_narrow_mirror_presets(self, tmp_path, preset):
        # the box and steps must resolve a mirror packet narrower than a fringe
        assert main(["check", "--preset", preset, "--out", str(tmp_path)]) == 0

    def test_check_reports_instead_of_raising(self, tmp_path, capsys, monkeypatch):
        # a failing continuity check is reported, not raised
        from mirrorsim import scenario as sc
        failing = {"max_over_scale": 1.0, "rms_residual": 1.0, "scale": 1.0,
                   "order": 0.0, "negative_control_ratio": 1.0}
        monkeypatch.setattr(sc, "analysis_continuity", lambda s: dict(failing))
        rc = main(["check", "--preset", "fig8", "--out", str(tmp_path)])
        assert rc == 4
        out = capsys.readouterr().out
        assert out.startswith("fig8: continuity") and "FAIL" in out
        assert (tmp_path / "fig8_check.json").exists()

    def test_collapse_rejects_detection_past_support(self, tmp_path, capsys):
        out = tmp_path / "o"
        rc = main(["collapse", "--preset", "fig9", "--event", "t10=0,x10=1.8",
                   "--out", str(out)])
        assert rc == 3
        err = capsys.readouterr().err
        assert "x10=1.8" in err and "support" in err
        assert not out.exists()

    def test_collapse_single_time_rejects_detection_past_support(self, tmp_path, capsys):
        # with t2 = t10 only, the curve spans the support at t10 itself;
        # x10 lies 8 sigma above the mirror, inside the default 10-sigma support
        s = PRESETS["fig9"]
        t10 = s.collision_time
        state = collapse(s.wavegroup, MeasurementEvent(x10=s.wavegroup.collision_point, t10=t10))
        x10 = state.support(t10, pad=8.0)[1]
        rc = main(["collapse", "--preset", "fig9", "--event", f"t10=0,x10={x10!r}",
                   "--times", "0", "--out", str(tmp_path / "o")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "lies past the conditional support" in err and "degenerate" not in err

    @pytest.mark.parametrize("argv", [
        ["check", "--preset", "cont", "--times", "5", "--resolution", "7",
         "--event", "t10=9"],
        ["observables", "--preset", "cont", "--times", "5", "--resolution", "7",
         "--event", "t10=9"],
        ["simulate", "--preset", "fig2", "--event", "t10=0"],
        ["marginal", "--preset", "fig2", "--event", "t10=0"],
    ])
    def test_rejects_flags_the_command_does_not_read(self, tmp_path, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert not (tmp_path / "o").exists()

    def test_observables_fig4(self, tmp_path):
        out = tmp_path / "o"
        assert main(["observables", "--preset", "fig4", "--out", str(out)]) == 0
        rep = json.loads((out / "fig4_observables.json").read_text())
        assert rep["analyses"]["regime"]["event0"]["regime"] == "A"

    def test_observables_reports_a_failing_analysis(self, tmp_path, capsys, monkeypatch):
        from mirrorsim import scenario as sc

        def fail(_scenario):
            raise RuntimeError("boom")
        monkeypatch.setitem(sc._ANALYSIS_FNS, "fringes", fail)
        out = tmp_path / "o"
        assert main(["observables", "--preset", "fig2", "--out", str(out)]) == 4
        rep = json.loads((out / "fig2_observables.json").read_text())
        assert rep["analyses"] == {"fringes": {"error": "RuntimeError: boom"}}
        assert "analysis fringes failed: RuntimeError: boom" in capsys.readouterr().err

    def test_zero_beat_is_named(self, tmp_path, capsys):
        # m v + M V = 0: the two analyses that sample beat periods name the zero
        # beat, and the other seven still run. Both tracked mirror modes lie
        # nearest the reflected branch, so split-velocities is unresolved, and
        # the fringe-spacing warning prints without a source path
        path = tmp_path / "zb.json"
        path.write_text(json.dumps({
            "name": "zb", "units": "natural", "params": {"m": 1, "M": 2, "v": 2, "V": -1},
            "wavegroup": {"dk": 1, "dK": 2, "x1c": -10, "x2c": 0}, "events": [{"t10": 3.0}],
            "analyses": ["fringes", "beat", "regime", "split-velocities", "coherence-transfer",
                         "marginal-visibility", "marginal-t2-independence", "node-depth",
                         "continuity"]}))
        out = tmp_path / "o"
        assert main(["observables", "--config", str(path), "--out", str(out)]) == 4
        rep = json.loads((out / "zb_observables.json").read_text())["analyses"]
        failed = {name for name, r in rep.items() if "error" in r}
        assert failed == {"beat", "marginal-t2-independence"}
        assert len(rep) == 9
        for name in failed:
            assert rep[name]["error"].startswith("ValueError: the central beat is zero")
        split = rep["split-velocities"]
        assert split["resolved"] is not True
        assert split["reason"].startswith("the two tracked mirror modes are not the two substates")
        err = capsys.readouterr().err
        assert "ZeroDivisionError" not in err
        assert "warning: ApproximationWarning: fringe spacing approximation" in err
        assert ".py:" not in err

    @pytest.mark.parametrize("name", sorted(SWEEP_SI))
    def test_coherence_transfer_names_a_moments_failure(self, tmp_path, capsys, name):
        # the SI sweep draws on which rounding breaks the exact half-plane
        # moments: the analysis fails by name, in one stderr line, with no
        # bare math domain error and no RuntimeWarning
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({**sweep_config(name), "analyses": ["coherence-transfer"]}))
        out = tmp_path / "o"
        assert main(["observables", "--config", str(path), "--out", str(out)]) == 4
        rep = json.loads((out / f"{name}_observables.json").read_text())["analyses"]
        assert rep["coherence-transfer"]["error"].startswith("ValueError: half-plane moments at ")
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(
            "analysis coherence-transfer failed: ValueError: half-plane moments at ")

    def test_unknown_preset(self):
        assert main(["simulate", "--preset", "nope"]) == 3

    @pytest.mark.parametrize("path,value", [
        ("params.M", math.nan), ("params.v", math.nan),
        ("wavegroup.x1c", -math.inf), ("events[0].t10", math.nan),
        ("snapshot_times[0]", math.inf), ("grids[0].axes[0].lo", math.nan),
        ("grids[0].axes[0].hi", math.inf),
        pytest.param("wavegroup.dk", 10**400, id="wavegroup.dk-int-beyond-float"),
    ])
    def test_non_finite_config_number_is_named(self, tmp_path, capsys, path, value):
        # json parses NaN, Infinity and -Infinity as floats
        cfg = json.loads(serialize(PRESETS["fig2"]))
        cfg["events"] = [{"t10": cfg["snapshot_times"][0]}]
        *parents, leaf = path.replace("]", "").replace("[", ".").split(".")
        node = cfg
        for key in parents:
            node = node[int(key)] if key.isdigit() else node[key]
        node[int(leaf) if leaf.isdigit() else leaf] = value
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        for argv in (["validate", "--config", str(config)],
                     ["simulate", "--config", str(config), "--resolution", "16",
                      "--out", str(out)]):
            assert main(argv) == 3
            assert capsys.readouterr().err == f"{path}: not a finite number\n"
        assert not out.exists()

    @pytest.mark.parametrize("values,lines", [
        ({"params.m": 0.0}, ["params.m: must be positive"]),
        ({"params.M": -1.0}, ["params.M: must be positive"]),
        ({"params.v": 30.0}, ["params.v: must exceed V for reflection"]),
        ({"wavegroup.dk": 0.0}, ["wavegroup.dk: must be positive"]),
        ({"wavegroup.dK": 0.0}, ["wavegroup.dK: must be positive"]),
        ({"wavegroup.x1c": 0.0}, ["wavegroup.x1c: must lie left of x2c",
                                  "wavegroup.x2c: must lie more than five combined widths "
                                  "1/dk + 1/dK right of x1c"]),
        ({"wavegroup.x1c": -7.0}, ["wavegroup.x2c: must lie more than five combined widths "
                                   "1/dk + 1/dK right of x1c"]),
        ({"events[0].dx1": 0.0}, ["events[0].dx1: must be positive"]),
        ({"grids[0].axes[0].lo": 0.0, "grids[0].axes[0].hi": 0.0},
         ["grids[0].axes[0].hi: must exceed lo"]),
        ({"grids[0].axes[1].n": 8}, ["grids[0].axes[1].n: must be an integer >= 16"]),
        ({"grids[0].axes[1].n": 16.5}, ["grids[0].axes[1].n: must be an integer >= 16"]),
        ({"grids[0].axes[1].n": 10**400}, ["grids[0].axes[1].n: must be at most 4096"]),
        ({"grids[0].axes[1].n": 2**63}, ["grids[0].axes[1].n: must be at most 4096"]),
        ({"grids[0].axes[0].role": "x2"}, ["grids[0].axes: must be two axes, x1 then x2"]),
        ({"grids[0].axes[0].role": "q"}, ["grids[0].axes[0].role: must be one of ('x1', 'x2')",
                                          "grids[0].axes: must be two axes, x1 then x2"]),
    ], ids=["params.m", "params.M", "params.v", "wavegroup.dk", "wavegroup.dK",
            "wavegroup.x1c-order", "wavegroup.x1c-separation", "events[0].dx1",
            "axis-lo-equals-hi", "axis-n-8", "axis-n-16.5", "axis-n-10**400", "axis-n-2**63",
            "axis-role-x2", "axis-role-q"])
    def test_validate_and_commands_agree_on_every_rule(self, tmp_path, capsys, values, lines):
        # each rule lives on its class, and validate and simulate both ask it
        cfg = json.loads(serialize(PRESETS["fig2"]))
        cfg["events"] = [{"t10": cfg["snapshot_times"][0]}]
        for path, value in values.items():
            _set_at(cfg, path, value)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        for argv in (["validate", "--config", str(config)],
                     ["simulate", "--config", str(config), "--resolution", "16",
                      "--out", str(out)]):
            assert main(argv) == 3
            assert capsys.readouterr().err.splitlines() == lines
        assert not out.exists()

    def test_unframeable_snapshot_time_is_named(self, tmp_path, capsys):
        # a config with no grid is framed at its snapshot times; at 1e300 the
        # frames are not finite, and validate fails as every command does
        cfg = json.loads(serialize(PRESETS["fig2"]))
        del cfg["grids"]
        cfg["snapshot_times"] = [1e300]
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("always")  # printed by the CLI, so a stray one shows
            for argv in (["validate"], ["simulate", "--resolution", "16", "--out", str(out)],
                         ["marginal", "--resolution", "16", "--out", str(out)],
                         ["observables", "--out", str(out)]):
                assert main([*argv, "--config", str(config)]) == 3, argv
                lines = capsys.readouterr().err.splitlines()
                assert len(lines) == 1, (argv, lines)
                assert lines[0].startswith("error: frames at t1=1e+300, t2=1e+300 "), argv
        assert not out.exists()
        with pytest.raises(ValueError, match=r"AxisSpec\.lo must be finite"):
            AxisSpec("x1", -math.inf, 0.0, 16)

    @pytest.mark.parametrize("command", ["simulate", "marginal", "collapse"])
    @pytest.mark.parametrize("times", ["", ",", "1,,2", "abc", "nan", "inf", "0,-inf"])
    def test_times_must_be_finite_numbers(self, tmp_path, capsys, command, times):
        with pytest.raises(SystemExit) as exc:
            main([command, "--preset", "fig2", "--times", times, "--resolution", "16",
                  "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "--times: must be a comma list of finite numbers" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


    @pytest.mark.parametrize("event", ["t10=nan", "t10=abc", "t10", "foo=1", "",
                                       "t10=0,", "t10=1,t10=2", "dx1=inf", "x10=1e400"])
    def test_event_must_be_finite_known_pairs(self, tmp_path, capsys, event):
        with pytest.raises(SystemExit) as exc:
            main(["collapse", "--preset", "fig9", "--event", event, "--resolution", "16",
                  "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "--event: must be key=value pairs of t10 and x10" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv", [
        ["simulate", "--config", "{tmp}/missing.json"],
        ["validate", "--config", "{tmp}/missing.json"],
        ["validate", "--config", "{tmp}"],
        ["simulate", "--preset", "fig2", "--resolution", "16", "--out", "{tmp}/file"],
        ["observables", "--preset", "fig4", "--out", "{tmp}/file"],
    ], ids=["simulate-missing-config", "validate-missing-config",
            "validate-directory-config", "simulate-out-is-file", "observables-out-is-file"])
    def test_unreadable_config_or_unwritable_out(self, tmp_path, capsys, argv):
        # a config that cannot be read or an --out that is a file exits 3
        # with one error line, where the OSError used to escape main
        (tmp_path / "file").write_text("")
        assert main([a.format(tmp=tmp_path) for a in argv]) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines


class TestParser:
    """``main`` builds only the parser of the command it runs; it parses,
    prints and exits exactly as the parser of every command does."""

    @staticmethod
    def _outcome(parse, argv, capsys):
        try:
            result = parse(argv)
        except SystemExit as exc:
            result = ("exit", exc.code)
        return (result, *capsys.readouterr())

    @pytest.mark.parametrize("argv", [
        [], ["--help"], ["-h", "simulate"], ["bogus"], ["presets"], ["presets", "list"],
        ["presets", "bogus"], ["validate"], ["validate", "--config", "x.json"],
        *([command, "--help"] for command in cli._COMMANDS),
        ["simulate"], ["simulate", "--preset", "fig5", "extra"],
        ["observables", "--preset", "fig5", "extra"],
        ["simulate", "--preset", "fig5", "--config", "x.json"],
        ["simulate", "--preset", "fig5", "--resolution", "8"],
        ["simulate", "--preset", "fig5", "--resolution", "4097"],
        ["collapse", "--preset", "fig5", "--event", "t10=0,t10=1"],
        ["collapse", "--preset", "fig5", "--event", "t10=0.5", "--times", "-1,0"],
        ["marginal", "--preset", "fig2", "--times", "-1,0,1"],
        ["observables", "--preset", "fig5"], ["check", "--config", "c.json", "--out", "o"],
    ], ids=" ".join)
    def test_one_command_parser_matches_the_full_tree(self, monkeypatch, capsys, argv):
        seen = []
        for name in [name for name in vars(cli) if name.startswith("cmd_")]:
            def record(args):
                seen.append(args)
                return 0
            record.__name__ = name
            monkeypatch.setattr(cli, name, record)

        def namespace(args):
            return {**vars(args), "fn": args.fn.__name__}

        def via_main(argv):
            # a patched cmd_<command> is the one main dispatches to
            assert main(argv) == 0
            return namespace(seen.pop())

        def via_full_tree(argv):
            return namespace(cli.build_parser().parse_args(cli._join_value_flags(argv)))

        assert self._outcome(via_main, argv, capsys) == self._outcome(via_full_tree, argv,
                                                                      capsys)
        assert not seen


class TestExtremeTimes:
    """Times far past the overlap give finite output or exit 3 naming the time,
    with no traceback and no RuntimeWarning before it. Run in a subprocess: the
    suite turns the kernel's RuntimeWarnings into errors, the CLI prints them."""

    @staticmethod
    def _run(tmp_path, command, preset, times):
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"),
                                                          env.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, "-m", "mirrorsim.cli", command, "--preset",
                               preset, "--times", times, "--out", str(tmp_path)],
                              env=env, capture_output=True, text=True, timeout=120)

    @pytest.mark.parametrize("preset, times", [("fig5", "1e10"), ("fig2", "1e11"),
                                               ("fig2", "1e14")])
    def test_finite_conditional_pdf_far_past_the_detection(self, tmp_path, preset, times):
        # the conditional PDF stays finite, and both its smooth form and the
        # closed trace keep the detection time's closed norm
        proc = self._run(tmp_path, "collapse", preset, times)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        x2, pdf = np.loadtxt(tmp_path / f"{preset}_mirror_0.csv", delimiter=",", unpack=True)
        assert np.isfinite(x2).all() and np.isfinite(pdf).all() and pdf.max() > 0.0
        s = PRESETS[preset]
        state = collapse(s.wavegroup, resolve_event(s, s.events[0] if s.events
                                                    else RawEvent(t10=s.collision_time)))
        t2 = state.event.t10 + float(times) * s.tau
        x2 = np.linspace(*state.support(t2), 400001)
        norm = state.norm(state.event.t10)
        assert np.trapezoid(state.pdf(x2, t2, apply_step=False), x2) == pytest.approx(
            norm, rel=1e-6)
        assert state.norm(t2) == pytest.approx(norm, rel=1e-12)

    @pytest.mark.parametrize("command, preset, times", [
        ("collapse", "fig2", "1e300"),
        ("marginal", "fig2", "1e155"), ("marginal", "fig2", "1e300"),
        ("marginal", "fig9", "1e155"), ("simulate", "fig2", "1e155"),
        # a later time fails after an earlier one computed: nothing is written
        ("simulate", "fig2", "0,1e155"), ("marginal", "fig2", "0,1e155"),
        # collapse computes these far times (the finite test above), so each
        # is followed by one that fails; the id names the time that computes
        pytest.param("collapse", "fig2", "1e11,1e300", id="collapse-fig2-1e11"),
        pytest.param("collapse", "fig2", "1e14,1e300", id="collapse-fig2-1e14"),
    ])
    def test_named_error_and_nothing_written(self, tmp_path, command, preset, times):
        proc = self._run(tmp_path, command, preset, times)
        assert proc.returncode == 3, proc.stderr
        assert "Traceback" not in proc.stderr
        s = PRESETS[preset]
        start = s.events[0].t10 if command == "collapse" and s.events else s.collision_time
        t2 = start + float(times.split(",")[-1]) * s.tau
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert lines[0].startswith("error: ")
        assert f"t2={t2:.6g}" in lines[0]
        assert not list(tmp_path.iterdir())


class TestBenchmarkSelftest:
    def test_selftest_passes(self):
        # the benchmark's output checks, and the conditional-state and
        # hull-trapezoid surface they drive, each pass good output and
        # reject corrupted output
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"),
                                                          env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "benchmark/selftest.py"], cwd=root,
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stdout + proc.stderr

    @staticmethod
    def _traced(code, *args):
        """Run ``code`` with the benchmark's ``tracing`` module importable."""
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [
            str(root / "src"), str(root / "benchmark"), env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code, *args], cwd=root, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        return proc.stdout

    def test_tracer_finds_every_target(self):
        # the traced benchmark patches its layers by name: a renamed or
        # deleted target must fail here, not only under --trace
        self._traced("import mirrorsim.cli, tracing; tracing.Tracer().install()")

    def test_tracer_spans_the_cli_handler(self, tmp_path):
        # the parser dispatches to the module's cmd_check as it is at the
        # call, so the tracer's patched handler records its span
        code = ("import sys, mirrorsim.cli, tracing; tracer = tracing.Tracer(); "
                "tracer.install(); assert mirrorsim.cli.main(sys.argv[1:]) == 0; "
                "print(*sorted({span[0] for span in tracer.spans}))")
        spans = self._traced(code, "check", "--preset", "cont",
                             "--out", str(tmp_path)).splitlines()[-1].split()
        assert "cli.cmd_check" in spans
        assert "conservation.continuity_residual" in spans
