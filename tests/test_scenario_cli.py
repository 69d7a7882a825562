import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mirrorsim import AxisSpec, GridSpec, FieldGrid, joint_pdf, wavegroup
from mirrorsim.cli import main
from mirrorsim.measurement import MeasurementEvent, collapse
from mirrorsim.scenario import (PRESETS, PRESET_GROUPS, RawEvent,
                                ScenarioValidationError, conditional_pdf_curves,
                                from_config, joint_pdf_grid, load_scenario,
                                resolve_event, resolve_preset, scenario_hash,
                                serialize, to_config, validate_config)


class TestGridTypes:
    def test_axis_invariants(self):
        with pytest.raises(ValueError):
            AxisSpec("x1", 0.0, 1.0, 8)
        with pytest.raises(ValueError):
            AxisSpec("x1", 1.0, 1.0, 32)
        with pytest.raises(ValueError):
            AxisSpec("q", 0.0, 1.0, 32)

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
    """``joint_pdf_grid`` evaluates only x1 <= x2, and every value is bitwise
    the stepped smooth form on the whole grid."""

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

    def test_reflected_branch_only_on_the_physical_half(self, monkeypatch):
        s = PRESETS["fig5"]
        grid = GridSpec(axes=tuple(AxisSpec(a.role, a.lo, a.hi, 96) for a in s.grid.axes))
        points = []
        original = wavegroup._log_gauss2

        def counted(*args):
            points.append(np.broadcast(*args).size)
            return original(*args)

        monkeypatch.setattr(wavegroup, "_log_gauss2", counted)
        joint_pdf_grid(s.wavegroup, grid, s.collision_time, s.collision_time)
        x1, x2 = (a.values() for a in grid.axes)
        physical = np.count_nonzero(x1[:, None] <= x2[None, :])
        assert 0 < physical < x1.size * x2.size
        assert sum(points) == physical


class TestClosedTraceWork:
    """One ``_closed_trace`` call evaluates each branch twice, at the cross
    term's centre and at its own, through the branch's log-amplitude alone."""

    @pytest.mark.parametrize("axis", [0, 1])
    def test_two_evaluations_per_branch(self, monkeypatch, axis):
        s = PRESETS["fig5"]
        sizes = {"_log_gauss1": [], "_log_gauss2": []}
        for name, seen in sizes.items():
            def counted(*args, original=getattr(wavegroup, name), seen=seen):
                seen.append(np.broadcast(*args).size)
                return original(*args)

            monkeypatch.setattr(wavegroup, name, counted)
        outer = s.grid.axes[1 - axis].values()
        t_c = s.collision_time
        wavegroup._closed_trace(s.wavegroup, outer, t_c, t_c + s.tau, axis)
        assert sizes["_log_gauss2"] == [outer.size] * 2
        assert sizes["_log_gauss1"] == [outer.size] * 4


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


class TestCli:
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


class TestExtremeTimes:
    """Times far past the overlap give finite output or exit 3 naming the time,
    with no traceback and no RuntimeWarning before it. Run in a subprocess: the
    suite turns the kernel's RuntimeWarnings into errors, the CLI prints them."""

    @pytest.mark.parametrize("command, preset, times", [
        ("collapse", "fig5", "1e10"), ("collapse", "fig2", "1e11"),
        ("collapse", "fig2", "1e14"), ("collapse", "fig2", "1e300"),
        ("marginal", "fig2", "1e155"), ("marginal", "fig2", "1e300"),
        ("marginal", "fig9", "1e155"), ("simulate", "fig2", "1e155"),
        # a later time fails after an earlier one computed: nothing is written
        ("simulate", "fig2", "0,1e155"), ("marginal", "fig2", "0,1e155"),
    ])
    def test_named_error_and_nothing_written(self, tmp_path, command, preset, times):
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"),
                                                          env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "mirrorsim.cli", command, "--preset",
                               preset, "--times", times, "--out", str(tmp_path)],
                              env=env, capture_output=True, text=True, timeout=120)
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

    def test_tracer_finds_every_target(self):
        # the traced benchmark patches its layers by name: a renamed or
        # deleted target must fail here, not only under --trace
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [
            str(root / "src"), str(root / "benchmark"), env.get("PYTHONPATH")]))
        code = "import mirrorsim.cli, tracing; tracing.Tracer().install()"
        proc = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stdout + proc.stderr
