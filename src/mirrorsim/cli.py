"""Command-line surface.

Subcommands: simulate, collapse, marginal, observables, check,
presets list, validate. Times given on the command line (--times, --event
t10=...) are offsets from the collision time in units of the scenario's
overlap time scale tau; configs store absolute times.

Exit codes: 0 success, 2 parse error, 3 validation error,
4 numerical-check failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import gridio, scenario as sc
from .observables import marginal_over_mirror, marginal_over_particle

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_CHECK = 4


def _load_targets(args) -> list[sc.Scenario]:
    if args.config:
        return [sc.load_scenario(args.config)]
    return list(sc.resolve_preset(args.preset))


def _times(scenario, args, default):
    if args.times is None:
        return list(default)
    t_c, tau = scenario.collision_time, scenario.tau
    return [t_c + float(tok) * tau for tok in args.times.split(",") if tok]


def _event(scenario, args) -> sc.RawEvent:
    if args.event:
        fields = {}
        for tok in args.event.split(","):
            key, _, val = tok.partition("=")
            if key not in ("t10", "x10", "dx1"):
                raise ValueError(f"unknown event field '{key}'")
            fields[key] = float(val)
        t10 = scenario.collision_time + fields.get("t10", 0.0) * scenario.tau
        return sc.RawEvent(t10=t10, x10=fields.get("x10"),
                           dx1=fields.get("dx1", 1e-3))
    if scenario.events:
        return scenario.events[0]
    return sc.RawEvent(t10=scenario.collision_time)


def _grid_for(scenario, resolution):
    grid = scenario.grids[0]
    if resolution and resolution != grid.axes[0].n:
        from .grids import AxisSpec, GridSpec
        grid = GridSpec(axes=tuple(
            AxisSpec(a.role, a.lo, a.hi, resolution) for a in grid.axes))
    return grid


def cmd_simulate(args) -> int:
    out = Path(args.out)
    for s in _load_targets(args):
        h = sc.scenario_hash(s)
        times = _times(s, args, s.snapshot_times or (s.collision_time,))
        grid = _grid_for(s, args.resolution)
        for i, t in enumerate(times):
            fg = sc.joint_pdf_grid(s.wavegroup, grid, t, t)
            path = out / f"{s.name}_joint_{i}.csv"
            gridio.write_field_grid(fg, path, s.name, h)
            gridio.heatmap_script(path)
            print(f"wrote {path}")
    return EXIT_OK


def cmd_collapse(args) -> int:
    out = Path(args.out)
    for s in _load_targets(args):
        h = sc.scenario_hash(s)
        raw = _event(s, args)
        t2_offsets = args.times or "0,1,2"
        t10 = raw.t10
        t2_list = [t10 + float(tok) * s.tau for tok in t2_offsets.split(",") if tok]
        for i, fg in enumerate(sc.conditional_pdf_grids(
                s, raw, t2_list, n=args.resolution or 256)):
            path = out / f"{s.name}_mirror_{i}.csv"
            gridio.write_field_grid(fg, path, s.name, h)
            gridio.slice_script(path)
            print(f"wrote {path}")
    return EXIT_OK


def cmd_marginal(args) -> int:
    out = Path(args.out)
    for s in _load_targets(args):
        h = sc.scenario_hash(s)
        times = _times(s, args, (s.collision_time,))
        n = args.resolution or 2048
        for i, t in enumerate(times):
            for ax, trace in zip(s.grids[0].axes,
                                 (marginal_over_mirror, marginal_over_particle)):
                curve = trace(s.wavegroup, np.linspace(ax.lo, ax.hi, n), t, t)
                path = out / f"{s.name}_marginal_{curve.meta['axis']}_{i}.csv"
                gridio.write_curve(curve, path, s.name, h)
                gridio.slice_script(path)
            print(f"wrote {s.name} marginals [{i}]")
    return EXIT_OK


def _run_one_analysis(s, name):
    try:
        return name, sc.run_analysis(s, name), None
    except Exception as err:  # noqa: BLE001  (reported per analysis)
        return name, None, f"{type(err).__name__}: {err}"


def cmd_observables(args) -> int:
    out = Path(args.out)
    failures = 0
    for s in _load_targets(args):
        results = [_run_one_analysis(s, n) for n in list(s.analyses) or ["fringes"]]
        report = {"scenario": s.name, "hash": sc.scenario_hash(s), "analyses": {}}
        for name, payload, err in results:
            if err is None:
                report["analyses"][name] = payload
            else:
                report["analyses"][name] = {"error": err}
                failures += 1
                print(f"analysis {name} failed: {err}", file=sys.stderr)
        path = out / f"{s.name}_observables.json"
        gridio.write_json(json.dumps(report, sort_keys=True, indent=1), path)
        print(f"wrote {path}")
    return EXIT_CHECK if failures else EXIT_OK


def cmd_check(args) -> int:
    out = Path(args.out)
    status = EXIT_OK
    for s in _load_targets(args):
        rep = sc.analysis_continuity(s)
        ok = (1.8 <= rep["order"] <= 2.2
              and rep["negative_control_ratio"] > 100.0
              and rep["max_over_scale"] < 1e-3)
        rep["pass"] = bool(ok)
        path = out / f"{s.name}_check.json"
        gridio.write_json(json.dumps(rep, sort_keys=True, indent=1), path)
        print(f"{s.name}: continuity {'PASS' if ok else 'FAIL'} "
              f"(residual/scale={rep['max_over_scale']:.3e}, order={rep['order']:.2f})")
        if not ok:
            status = EXIT_CHECK
    return status


def cmd_presets_list(_args) -> int:
    for name in sorted(sc.PRESETS):
        print(f"{name:10s} {sc.PRESETS[name].description}")
    for name, members in sorted(sc.PRESET_GROUPS.items()):
        print(f"{name:10s} group: {', '.join(members)}")
    return EXIT_OK


def cmd_validate(args) -> int:
    with open(args.config, encoding="utf-8") as fh:
        cfg = json.load(fh)
    violations = sc.validate_config(cfg)
    if violations:
        for v in violations:
            print(v, file=sys.stderr)
        return EXIT_VALIDATION
    print("ok")
    return EXIT_OK


def _add_target_args(p, require=True):
    group = p.add_mutually_exclusive_group(required=require)
    group.add_argument("--preset", help="preset name (see 'presets list')")
    group.add_argument("--config", help="path to a scenario JSON file")
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--resolution", type=int, default=None,
                   help="samples per grid axis")
    p.add_argument("--times", default=None,
                   help="comma list of times, units of tau relative to collision")
    p.add_argument("--event", default=None,
                   help="event override, e.g. t10=0,dx1=1e-3 (t10 in tau units)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mirrorsim",
        description="two-body densities for a particle reflecting from a moving mirror")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="joint-PDF snapshots")
    _add_target_args(p)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("collapse", help="conditional mirror PDFs after a detection")
    _add_target_args(p)
    p.set_defaults(fn=cmd_collapse)

    p = sub.add_parser("marginal", help="one-body marginal PDFs")
    _add_target_args(p)
    p.set_defaults(fn=cmd_marginal)

    p = sub.add_parser("observables", help="scalar analyses of a scenario")
    _add_target_args(p)
    p.set_defaults(fn=cmd_observables)

    p = sub.add_parser("check", help="continuity-residual verification")
    _add_target_args(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("presets", help="preset utilities")
    psub = p.add_subparsers(dest="presets_command", required=True)
    pl = psub.add_parser("list", help="list available presets")
    pl.set_defaults(fn=cmd_presets_list)

    p = sub.add_parser("validate", help="validate a scenario config file")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=cmd_validate)
    return ap


def _join_value_flags(argv):
    """Fold '--times -1,0,1' into '--times=-1,0,1' so argparse accepts
    leading-minus value lists."""
    if argv is None:
        return None
    out = []
    it = iter(argv)
    for tok in it:
        if tok in ("--times", "--event"):
            val = next(it, None)
            if val is None:
                out.append(tok)
            else:
                out.append(f"{tok}={val}")
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    argv = _join_value_flags(argv if argv is not None else sys.argv[1:])
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except json.JSONDecodeError as err:
        print(f"parse error: line {err.lineno} column {err.colno}: {err.msg}",
              file=sys.stderr)
        return EXIT_PARSE
    except sc.ScenarioValidationError as err:
        for v in err.violations:
            print(v, file=sys.stderr)
        return EXIT_VALIDATION
    except (KeyError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
