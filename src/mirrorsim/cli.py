"""Command-line surface.

Subcommands: simulate, collapse, marginal, observables, check,
presets list, validate. Times given on the command line are in units of the
scenario's overlap time scale tau: --event t10=... and the --times of
``simulate`` and ``marginal`` count from the collision time, the --times of
``collapse`` from the detection time t10. Configs store absolute times.
``collapse`` samples each mirror time t2 on its own conditional support.
--resolution is an integer from 16 to 4096, the range of a grid axis;
--times is a comma list of at least one finite number; --event is a comma
list of t10= and x10= pairs, each at most once and finite.
``validate`` loads a config the way the commands do, so it accepts exactly
the configs they load and reports the same errors.

A call builds only the parser of the command it runs; ``--help``, no command
or an unknown one builds every command's. Either way it prints the same
usage, help and errors.

``simulate``, ``collapse`` and ``marginal`` compute every output of a scenario
before they write any of its files, so a scenario that fails at any time
leaves no file behind. A preset group such as fig3 keeps the files of the
scenarios before the one that failed.

Exit codes: 0 success, 2 parse error, 3 validation error or a config or
output path that cannot be read or written, 4 numerical-check failure.
Warnings print as ``warning: <Category>: <message>``, without a source path;
the library itself leaves them to Python's default handling.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import warnings
from pathlib import Path

from . import gridio, scenario as sc
from .grids import _N_MAX, _N_MIN, AxisSpec, FieldGrid, GridSpec
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
    return [t_c + t * tau for t in args.times]


def _event(scenario, args) -> sc.RawEvent:
    if args.event:
        t10 = scenario.collision_time + args.event.get("t10", 0.0) * scenario.tau
        return sc.RawEvent(t10=t10, x10=args.event.get("x10"))
    if scenario.events:
        return scenario.events[0]
    return sc.RawEvent(t10=scenario.collision_time)


def _grid_for(scenario, resolution) -> GridSpec:
    """The scenario's grid, with ``resolution`` samples on both axes if given."""
    if resolution is None:
        return scenario.grid
    return GridSpec(axes=tuple(dataclasses.replace(a, n=resolution)
                               for a in scenario.grid.axes))


def _write(out, scenario, outputs) -> None:
    """Write a scenario's computed (stem, FieldGrid | Curve) outputs, each as
    ``out/<stem>.csv`` with its plot script, and print each CSV's path."""
    h = sc.scenario_hash(scenario)
    for stem, output in outputs:
        write = gridio.write_field_grid if isinstance(output, FieldGrid) else gridio.write_curve
        print(f"wrote {write(output, Path(out, f'{stem}.csv'), scenario.name, h)}")


def cmd_simulate(args) -> int:
    for s in _load_targets(args):
        times = _times(s, args, s.snapshot_times or (s.collision_time,))
        grid = _grid_for(s, args.resolution)
        _write(args.out, s, [(f"{s.name}_joint_{i}", sc.joint_pdf_grid(s.wavegroup, grid, t, t))
                             for i, t in enumerate(times)])
    return EXIT_OK


def cmd_collapse(args) -> int:
    for s in _load_targets(args):
        raw = _event(s, args)
        t2_list = [raw.t10 + t * s.tau for t in args.times or (0.0, 1.0, 2.0)]
        curves = sc.conditional_pdf_curves(s, raw, t2_list, n=args.resolution or 256)
        _write(args.out, s, [(f"{s.name}_mirror_{i}", c) for i, c in enumerate(curves)])
    return EXIT_OK


def cmd_marginal(args) -> int:
    for s in _load_targets(args):
        times = _times(s, args, (s.collision_time,))
        axes = _grid_for(s, args.resolution or 2048).axes
        traces = list(zip(axes, (marginal_over_mirror, marginal_over_particle)))
        _write(args.out, s, [(f"{s.name}_marginal_{ax.role}_{i}",
                              trace(s.wavegroup, ax.values(), t, t))
                             for i, t in enumerate(times) for ax, trace in traces])
    return EXIT_OK


def cmd_observables(args) -> int:
    out = Path(args.out)
    failures = 0
    for s in _load_targets(args):
        report = {"scenario": s.name, "hash": sc.scenario_hash(s), "analyses": {}}
        traces = {}  # shared by this scenario's analyses only
        for name in list(s.analyses) or ["fringes"]:
            try:
                report["analyses"][name] = sc.run_analysis(s, name, traces)
            except Exception as err:  # noqa: BLE001  (reported per analysis)
                msg = f"{type(err).__name__}: {err}"
                report["analyses"][name] = {"error": msg}
                failures += 1
                print(f"analysis {name} failed: {msg}", file=sys.stderr)
        path = out / f"{s.name}_observables.json"
        gridio.write_json(report, path)
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
        gridio.write_json(rep, path)
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
    sc.load_scenario(args.config)
    print("ok")
    return EXIT_OK


_QUOTE_MAX = 40  # characters of a rejected argument that its message quotes


def _quoted(text: str) -> str:
    """A rejected argument as its error message quotes it: whole up to
    ``_QUOTE_MAX`` characters, else its start and its length, so that a long
    argument still gives a short line."""
    if len(text) <= _QUOTE_MAX:
        return f"'{text}'"
    return f"'{text[:_QUOTE_MAX]}...' ({len(text):,} characters)"


def _resolution(text: str) -> int:
    """--resolution: a sample count that a grid axis accepts, judged by its
    significant digits, so that no length past int()'s digit limit reaches it."""
    digits = "".join(str(int(c)) for c in text).lstrip("0") if text.isdecimal() else ""
    if len(digits) > len(str(_N_MAX)) or AxisSpec._rules(n=int(digits or "0")):
        raise argparse.ArgumentTypeError(
            f"must be an integer of at least {_N_MIN} and at most {_N_MAX}, got {_quoted(text)}")
    return int(digits)


def _time_list(text: str) -> list[float]:
    """--times: a comma list of at least one finite number."""
    try:
        times = [float(tok) for tok in text.split(",")]
    except ValueError:
        times = []
    if not times or not all(math.isfinite(t) for t in times):
        raise argparse.ArgumentTypeError(
            f"must be a comma list of finite numbers, got {_quoted(text)}")
    return times


def _event_fields(text: str) -> dict[str, float]:
    """--event: key=value pairs of t10 and x10, each at most once and finite."""
    fields = {}
    for tok in text.split(","):
        key, sep, val = tok.partition("=")
        try:
            value = float(val)
        except ValueError:
            value = math.nan
        new_key = sep and key in ("t10", "x10") and key not in fields
        if not (new_key and math.isfinite(value)):
            raise argparse.ArgumentTypeError(
                "must be key=value pairs of t10 and x10, each at most once "
                f"and finite, got {_quoted(text)}")
        fields[key] = value
    return fields


_OPTIONS = {
    "resolution": dict(type=_resolution, default=None,
                       help=f"samples per grid axis or curve, {_N_MIN} to {_N_MAX}"),
    "times": dict(type=_time_list, default=None,
                  help="comma list of times in units of tau, from the collision "
                       "(collapse: from the detection time t10)"),
    "event": dict(type=_event_fields, default=None,
                  help="event override, e.g. t10=0.5,x10=0 (t10 in tau units)"),
}

# (command, help, the options it reads beyond --preset/--config/--out); each
# runs the module's cmd_<command>
_TARGET_COMMANDS = (
    ("simulate", "joint-PDF snapshots", ("resolution", "times")),
    ("collapse", "conditional mirror PDFs after a detection",
     ("resolution", "times", "event")),
    ("marginal", "one-body marginal PDFs", ("resolution", "times")),
    ("observables", "scalar analyses of a scenario", ()),
    ("check", "continuity-residual verification", ()),
)
_COMMANDS = (*(c for c, _, _ in _TARGET_COMMANDS), "presets", "validate")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of ``command`` alone if it names one, else of every command.

    Each handler is looked up by name as the parser is built, so a replaced
    ``cmd_<command>`` attribute is the one that runs."""
    ap = argparse.ArgumentParser(
        prog="mirrorsim",
        description="two-body densities for a particle reflecting from a moving mirror")
    sub = ap.add_subparsers(dest="command", required=True)
    if command in _COMMANDS:
        # a top-level usage line still lists every command; on the full tree
        # this metavar would also rename the command in its own errors
        sub.metavar = "{" + ",".join(_COMMANDS) + "}"
    else:
        command = None

    for name, help_text, options in _TARGET_COMMANDS:
        if command not in (None, name):
            continue
        p = sub.add_parser(name, help=help_text)
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--preset", help="preset name (see 'presets list')")
        group.add_argument("--config", help="path to a scenario JSON file")
        p.add_argument("--out", default="out", help="output directory")
        for option in options:
            p.add_argument(f"--{option}", **_OPTIONS[option])
        p.set_defaults(fn=globals()[f"cmd_{name}"])

    if command in (None, "presets"):
        p = sub.add_parser("presets", help="preset utilities")
        psub = p.add_subparsers(dest="presets_command", required=True)
        pl = psub.add_parser("list", help="list available presets")
        pl.set_defaults(fn=cmd_presets_list)

    if command in (None, "validate"):
        p = sub.add_parser("validate", help="validate a scenario config file")
        p.add_argument("--config", required=True)
        p.set_defaults(fn=cmd_validate)
    return ap


def _join_value_flags(argv):
    """Fold '--times -1,0,1' into '--times=-1,0,1' so argparse accepts
    leading-minus value lists."""
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


def _print_warning(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {category.__name__}: {message}", file=sys.stderr)


def main(argv=None) -> int:
    argv = _join_value_flags(argv if argv is not None else sys.argv[1:])
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        # the scope restores the process's warning state when main returns
        with warnings.catch_warnings():
            warnings.showwarning = _print_warning
            return args.fn(args)
    except json.JSONDecodeError as err:
        print(f"parse error: line {err.lineno} column {err.colno}: {err.msg}",
              file=sys.stderr)
        return EXIT_PARSE
    except sc.ScenarioValidationError as err:
        for v in err.violations:
            print(v, file=sys.stderr)
        return EXIT_VALIDATION
    except (KeyError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
