import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mirrorsim import AxisSpec, GridSpec, FieldGrid
from mirrorsim.cli import main
from mirrorsim.measurement import MeasurementEvent, collapse
from mirrorsim.scenario import (PRESETS, PRESET_GROUPS, ScenarioValidationError,
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
        assert s.wavegroup.K0 / s.wavegroup.k0 == pytest.approx(60.0)

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
            "fig8": "aebbb3f7e5365277", "fig9": "35eee3ff84eda1f6",
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
        # with t2 = t10 only, the grid range is the support at t10 itself;
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

    def test_observables_fig4(self, tmp_path):
        out = tmp_path / "o"
        assert main(["observables", "--preset", "fig4", "--out", str(out)]) == 0
        rep = json.loads((out / "fig4_observables.json").read_text())
        assert rep["analyses"]["regime"]["event0"]["regime"] == "A"

    def test_unknown_preset(self):
        assert main(["simulate", "--preset", "nope"]) == 3


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
