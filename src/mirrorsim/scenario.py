"""Scenario configuration, validation, the preset library and analysis runners.

A scenario bundles one parameter set, one wavegroup, optional measurement
events, one (x1, x2) snapshot grid and a list of named analyses. Configs are
plain JSON and list at most one grid; a config that lists none is framed like
the presets, around both packets at its snapshot times. Times inside a config
are absolute in the scenario's unit system. Each class owns its rules and
defaults. One reader serves :func:`validate_config` and :func:`from_config`:
it checks JSON types, keys, names and the rules between objects, and asks
each class's rules about the values it read.
The command-line layer converts user-facing times, which are offsets from
the collision time in units of the overlap time scale tau, into absolute
times before they reach this module.

Preset geometry (initial separations, snapshot offsets, carrier-to-width
ratios) frames the packets at a few widths; those choices are sampling
reconstructions, not quoted values.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .grids import AxisSpec, Curve, FieldGrid, GridSpec
from .harmonic import beat_frequency, fringe_period, fringe_spacing
from .kinematics import (SI_HBAR, PhysicalParams, elastic_final_velocities,
                         thermal_spread)
from .measurement import (MeasurementEvent, UnresolvedSplittingError, collapse,
                          classify_regime, split_centroid_velocities)
from .observables import (coherence_transfer_metrics, doppler_beat,
                          extract_fringes, marginal_over_mirror,
                          marginal_over_particle, pattern_drift_beat,
                          transit_beat_periods, _hull)
from .conservation import continuity_residual, convergence_order
from .wavegroup import (WavegroupSpec, _check_range, _density_form, _physical_pdf, frames,
                        joint_pdf)


class ScenarioValidationError(ValueError):
    """Config violated one or more invariants; ``violations`` lists them all."""

    def __init__(self, violations: list[str]):
        self.violations = violations
        super().__init__("; ".join(violations))


@dataclass(frozen=True)
class RawEvent:
    """Config-level measurement event; x10 = None means the marginal mode."""

    t10: float
    x10: float | None = None
    dx1: float = MeasurementEvent.dx1  # the detector's default resolution


@dataclass(frozen=True)
class Scenario:
    name: str
    units: str
    wavegroup: WavegroupSpec
    grid: GridSpec
    events: tuple[RawEvent, ...] = ()
    snapshot_times: tuple[float, ...] = ()
    analyses: tuple[str, ...] = ()
    description: str = ""

    @property
    def params(self) -> PhysicalParams:
        return self.wavegroup.params

    @property
    def tau(self) -> float:
        return self.wavegroup.tau

    @property
    def collision_time(self) -> float:
        return self.wavegroup.collision_time


# ---------------------------------------------------------------------------
# config <-> scenario
# ---------------------------------------------------------------------------

def to_config(s: Scenario) -> dict:
    return {
        "name": s.name,
        "units": s.units,
        "description": s.description,
        "params": {"m": s.params.m, "M": s.params.M, "v": s.params.v, "V": s.params.V},
        "wavegroup": {"dk": s.wavegroup.dk, "dK": s.wavegroup.dK,
                      "x1c": s.wavegroup.x1c, "x2c": s.wavegroup.x2c,
                      "t0": s.wavegroup.t0},
        "events": [{"t10": e.t10, "x10": e.x10, "dx1": e.dx1} for e in s.events],
        "snapshot_times": list(s.snapshot_times),
        "grids": [{"axes": [{"role": a.role, "lo": a.lo, "hi": a.hi, "n": a.n}
                            for a in s.grid.axes]}],
        "analyses": list(s.analyses),
    }


def serialize(s: Scenario) -> str:
    """Canonical JSON form of a scenario (sorted keys, no whitespace)."""
    return json.dumps(to_config(s), sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def scenario_hash(s: Scenario) -> str:
    return hashlib.sha256(serialize(s).encode()).hexdigest()[:16]


def _finite(val, path: str, out: list[str]):
    """``val``, or None once ``out`` says why it is not a finite number.

    JSON parsing accepts NaN, Infinity and integers beyond the float range."""
    if not isinstance(val, (int, float)) or isinstance(val, bool):
        out.append(f"{path}: not a number")
        return None
    if not abs(val) <= sys.float_info.max:
        out.append(f"{path}: not a finite number")
        return None
    return val


def _read_object(node, path: str, cls, required: tuple, optional: tuple,
                 out: list[str], raw: tuple = ()) -> dict | None:
    """The readable keys of config object ``node``; ``out`` names each unknown or
    missing key, each number that is not finite (``raw`` keys pass as read) and
    each rule of ``cls`` they break. A null x10, the marginal mode, is left out."""
    if not isinstance(node, dict):
        out.append(f"{path}: must be an object")
        return None
    out.extend(f"{path}.{key}: unknown key" for key in node if key not in required + optional)
    out.extend(f"{path}.{key}: missing" for key in required if key not in node)
    got = {key: node[key] if key in raw else _finite(node[key], f"{path}.{key}", out)
           for key in required + optional
           if key in node and not (key == "x10" and node[key] is None)}
    got = {key: val for key, val in got.items() if val is not None or key in raw}
    out.extend(f"{path}.{field}: {message}" for field, message in cls._rules(**got))
    return got


def _read_config(cfg) -> tuple[list[str], dict]:
    """Every violation in a raw config, with field paths, and else the keyword
    arguments of its Scenario, with no grid where the config lists none."""
    if not isinstance(cfg, dict):
        return ["config: not a JSON object"], {}
    out = [f"{key}: unknown key" for key in cfg if key not in (
        "name", "units", "description", "params", "wavegroup", "events", "snapshot_times",
        "grids", "analyses")]
    fields = {key: cfg[key] for key in ("name", "units", "description") if key in cfg}
    if fields.get("units") not in ("natural", "SI"):
        out.append("units: must be 'natural' or 'SI'")
    name = fields.get("name")
    if not isinstance(name, str) or not name:
        out.append("name: must be a non-empty string")
    elif "/" in name or "\\" in name:
        # the name prefixes every output file, so a separator would escape --out
        out.append("name: must not contain '/' or '\\'")
    # scenarios are hashed (events are resolved once per scenario)
    if "description" in fields and not isinstance(fields["description"], str):
        out.append("description: must be a string")

    params = _read_object(cfg.get("params"), "params", PhysicalParams,
                          ("m", "M", "v", "V"), (), out)
    wave = cfg.get("wavegroup")
    w = _read_object(wave, "wavegroup", WavegroupSpec, ("dk", "dK", "x1c", "x2c"),
                     ("t0",), out)
    # a t0 that is not a finite number is unknown; an absent one is the default
    t0 = None if w is None else w.get("t0", None if "t0" in wave else WavegroupSpec.t0)

    def listed(key: str) -> list:
        # a string or number here would be iterated by character or raise
        if isinstance(val := cfg.get(key, []), list):
            return val
        out.append(f"{key}: must be a list")
        return []

    events = [_read_object(e, f"events[{i}]", MeasurementEvent, ("t10",), ("x10", "dx1"), out)
              for i, e in enumerate(listed("events"))]
    out.extend(f"events[{i}].t10: precedes wavegroup.t0" for i, e in enumerate(events)
               if t0 is not None and e and e.get("t10", t0) < t0)

    times = listed("snapshot_times")
    for i, t in enumerate(times):
        _finite(t, f"snapshot_times[{i}]", out)

    grids = listed("grids")
    if len(grids) > 1:
        out.append("grids: at most one (x1, x2) grid")
    for i, g in enumerate(grids):
        path = f"grids[{i}]"
        if not isinstance(g, dict) or not isinstance(g.get("axes"), list) or not g["axes"]:
            out.append(f"{path}: missing axes")
            continue
        out.extend(f"{path}.{key}: unknown key" for key in g if key != "axes")
        axes = [_read_object(a, f"{path}.axes[{j}]", AxisSpec, ("role", "lo", "hi", "n"), (),
                             out, raw=("role", "n"))
                for j, a in enumerate(g["axes"])]
        if all(a is not None and "role" in a for a in axes):
            out.extend(f"{path}.{field}: {message}" for field, message
                       in GridSpec._rules(axes=tuple(a["role"] for a in axes)))

    analyses = listed("analyses")
    for i, a in enumerate(analyses):
        if not isinstance(a, str) or a not in _ANALYSIS_FNS:
            out.append(f"analyses[{i}]: unknown analysis '{a}'")
        elif a in _EVENT_ANALYSES and not events:
            out.append(f"analyses[{i}]: '{a}' needs an event")
    if out:
        return out, {}

    system = PhysicalParams.natural if fields["units"] == "natural" else PhysicalParams
    fields.update(wavegroup=WavegroupSpec(system(**params), **w), snapshot_times=tuple(times),
                  events=tuple(RawEvent(**e) for e in events), analyses=tuple(analyses))
    if grids:
        fields["grid"] = GridSpec(axes=tuple(AxisSpec(**a) for a in axes))
    return out, fields


def validate_config(cfg: dict) -> list[str]:
    """Every invariant violation in a raw config dict, with field paths."""
    return _read_config(cfg)[0]


def from_config(cfg: dict) -> Scenario:
    violations, fields = _read_config(cfg)
    if violations:
        raise ScenarioValidationError(violations)
    if "grid" not in fields:
        fields["grid"] = _joint_grid(fields["wavegroup"], fields["snapshot_times"])
    return Scenario(**fields)


def load_scenario(path) -> Scenario:
    with open(path, encoding="utf-8") as fh:
        cfg = json.load(fh)
    return from_config(cfg)


# ---------------------------------------------------------------------------
# preset library
# ---------------------------------------------------------------------------

def _joint_grid(spec: WavegroupSpec, times) -> GridSpec:
    """Joint-PDF grid framing both packets at every listed synchronous time,
    or at the collision time when none is listed, its bounds rounded to 12
    significant digits so that a last-bit change in the packet frames leaves
    the grid and the scenario hash as they are."""
    packets = [pk for t in times or (spec.collision_time,) for pk in frames(spec, t, t)]
    (lo1, hi1), (lo2, hi2) = (_hull(packets, axis, pad=6.0) for axis in (0, 1))
    lo1, hi1, lo2, hi2 = (float(f"{x:.12g}") for x in (lo1, hi1, lo2, hi2))
    return GridSpec(axes=(AxisSpec("x1", lo1, hi1, 256),
                          AxisSpec("x2", lo2, hi2, 256)))


def _preset(name, *, M, v, V, dk, dK, x1c, description, analyses,
            snapshot_offsets=(), event_offsets=(), m=None) -> Scenario:
    """A preset with its mirror centred at x2 = 0, in natural units (m = 1)
    unless an SI particle mass ``m`` is given. Each event's detector
    resolution is 1e-3 particle widths."""
    params = (PhysicalParams.natural(M=M, v=v, V=V) if m is None
              else PhysicalParams(m=m, M=M, v=v, V=V))
    spec = WavegroupSpec(params, dk=dk, dK=dK, x1c=x1c, x2c=0.0)
    t_c, tau = spec.collision_time, spec.tau
    times = tuple(t_c + o * tau for o in snapshot_offsets)
    events = tuple(RawEvent(t10=t_c + o * tau, dx1=1e-3 / dk) for o in event_offsets)
    return Scenario(name=name, units="natural" if m is None else "SI", wavegroup=spec,
                    grid=_joint_grid(spec, times), events=events, snapshot_times=times,
                    analyses=tuple(analyses), description=description)


# the fig2 system; fig3 widens its spectrum and fig4/fig5 lighten its mirror
_FIG2_SYSTEM = dict(M=100.0, v=50.0, V=30.0, dk=1.0, dK=2.0, x1c=-10.0)
_FIG45_SYSTEM = dict(_FIG2_SYSTEM, M=3.0)


def _build_presets() -> dict[str, Scenario]:
    presets: dict[str, Scenario] = {}

    presets["fig2"] = _preset(
        "fig2", **_FIG2_SYSTEM,
        snapshot_offsets=(-1.0, 0.0, 1.0),
        analyses=("fringes",),
        description="mass ratio 100 joint-PDF snapshots before, during, after reflection",
    )
    for label, scale in (("a", 1.0), ("b", 2.0), ("c", 4.0)):
        system = dict(_FIG2_SYSTEM, dk=scale * _FIG2_SYSTEM["dk"],
                      dK=scale * _FIG2_SYSTEM["dK"])
        presets[f"fig3-{label}"] = _preset(
            f"fig3-{label}", **system, snapshot_offsets=(0.0,), analyses=("fringes",),
            description="overlap slices at increasing spectral width",
        )
    presets["fig4"] = _preset(
        "fig4", **_FIG45_SYSTEM,
        snapshot_offsets=(1.0, 2.0, 3.0), event_offsets=(1.0,),
        analyses=("regime",),
        description="particle measured after reflection; mirror drifts and disperses",
    )
    presets["fig5"] = _preset(
        "fig5", **_FIG45_SYSTEM,
        snapshot_offsets=(0.0, 1.0, 2.0), event_offsets=(0.0,),
        analyses=("regime", "split-velocities", "beat"),
        description="particle measured in the overlap; mirror splits into two states",
    )
    presets["fig6-m1"] = _preset(
        "fig6-m1", M=1.0, v=400.0, V=80.0, dk=1.0, dK=10.0, x1c=-6.0,
        snapshot_offsets=(-1.0, 2.0), analyses=("coherence-transfer",),
        description="equal masses exchange wavegroup widths on reflection",
    )
    presets["fig6-m20"] = _preset(
        "fig6-m20", M=20.0, v=400.0, V=80.0, dk=1.0, dK=200.0, x1c=-6.0,
        snapshot_offsets=(-1.0, 2.0), analyses=("coherence-transfer",),
        description="mass ratio 20 control: widths are not exchanged",
    )
    for label, dK in (("a", 2.0), ("b", 1.0 / 0.12), ("c", 1.0 / 0.06), ("d", 500.0)):
        presets[f"fig7-{label}"] = _preset(
            f"fig7-{label}", M=400.0, v=20.0, V=15.0, dk=1.0, dK=dK, x1c=-8.0,
            snapshot_offsets=(0.0,), analyses=("marginal-visibility",),
            description="mirror velocity-spread ladder for one-body fringe washout",
        )
    m, M = 1.4e-25, 1e-8
    presets["fig8"] = _preset(
        "fig8", m=m, M=M, v=0.03, V=0.01, x1c=-1.0e-6,
        # wavevector spreads of a 100 nK atom and a 1 K mirror
        dk=m * thermal_spread(m, 1e-7)[0] / SI_HBAR,
        dK=M * thermal_spread(M, 1.0)[0] / SI_HBAR,
        snapshot_offsets=(0.0,), event_offsets=(0.0,),
        analyses=("regime", "beat", "split-velocities", "node-depth"),
        description="rubidium atom on a 1e-8 kg thermal mirror, SI units",
    )
    presets["fig9"] = _preset(
        "fig9", M=1.0e8, v=40.0, V=8.0, dk=1.0, dK=25000.0, x1c=-5.2,
        snapshot_offsets=(0.0,), event_offsets=(0.0,),
        analyses=("marginal-visibility", "marginal-t2-independence",
                  "node-depth", "beat"),
        description="mesoscopic-mass mirror: one-body fringes survive the mirror trace",
    )
    presets["cont"] = _preset(
        "cont", M=100.0, v=49152.0, V=29491.2, dk=1.0, dK=2.0, x1c=-8.0,
        snapshot_offsets=(0.0,), event_offsets=(0.0,),
        analyses=("continuity",),
        description="narrowband configuration for continuity-residual validation",
    )
    return presets


PRESETS: dict[str, Scenario] = _build_presets()

PRESET_GROUPS: dict[str, tuple[str, ...]] = {
    "fig3": ("fig3-a", "fig3-b", "fig3-c"),
    "fig6": ("fig6-m1", "fig6-m20"),
    "fig7": ("fig7-a", "fig7-b", "fig7-c", "fig7-d"),
}


def resolve_preset(name: str) -> tuple[Scenario, ...]:
    if name in PRESET_GROUPS:
        return tuple(PRESETS[n] for n in PRESET_GROUPS[name])
    if name in PRESETS:
        return (PRESETS[name],)
    raise KeyError(f"unknown preset '{name}'")


# ---------------------------------------------------------------------------
# event resolution and analyses
# ---------------------------------------------------------------------------

@functools.cache
def resolve_event(scenario: Scenario, raw: RawEvent) -> MeasurementEvent:
    """Fill in a concrete detection position: the particle-marginal mode.

    Cached per (scenario, event), since fig5's regime, split-velocities and
    beat analyses share one event. Each resolution, a 4097-point particle
    marginal, costs 1.4-2.4 ms on fig5 and fig9 (the median of 30 in-process
    calls with the cache cleared, per process, on 2 vCPUs).
    """
    if raw.x10 is not None:
        return MeasurementEvent(x10=raw.x10, t10=raw.t10, dx1=raw.dx1)
    spec = scenario.wavegroup
    axis = np.linspace(*_hull(frames(spec, raw.t10, raw.t10), axis=0), 4097)
    curve = marginal_over_mirror(spec, axis, raw.t10, raw.t10)
    x10 = float(axis[int(np.argmax(curve.y))])
    return MeasurementEvent(x10=x10, t10=raw.t10, dx1=raw.dx1)


def overlap_slice(scenario: Scenario, axis: str = "x2") -> Curve:
    """Synchronous joint-PDF slice at the collision time through the overlap
    centre, along the x1 or the x2 axis.

    Along x2 the reflected branch carries the particle's dispersion chirp
    hbar (t - t0) / m, mixed in through 2M/(m+M), so the local fringe
    spacing drifts across the slice (fig2: 0.156 next to the wall, 0.144 in
    the faint tail). Only the strength-weighted spacing of
    :func:`extract_fringes` reads the pattern where it is carried; moving
    the slice does not remove the drift.
    """
    spec = scenario.wavegroup
    t = scenario.collision_time
    x_c = spec.collision_point
    fringe = fringe_period(scenario.params)
    half = 12.0 * max(fringe, 0.5 / spec.dk)
    line = np.linspace(x_c - half, x_c + half, 8193)
    x1, x2 = (x_c - 2.0 * fringe, line) if axis == "x2" else (line, x_c + 2.0 * fringe)
    y = joint_pdf(spec, x1, t, x2, t)
    return Curve(x=line, y=np.asarray(y), meta={"axis": axis, "t": t})


def _beat_rate(scenario: Scenario) -> float:
    """|beat0|; ValueError where m v + M V = 0, a zero beat with no period."""
    if scenario.wavegroup.beat0 == 0.0:
        raise ValueError("the central beat is zero (m v + M V = 0): it has no period")
    return abs(scenario.wavegroup.beat0)


def _beat_window(scenario: Scenario, event: MeasurementEvent):
    """900 mirror times over six beat periods from the detection on, for
    either sign of the beat: it is negative where m v + M V < 0."""
    span = 6.0 * math.pi / _beat_rate(scenario)
    return np.linspace(event.t10, event.t10 + span, 900)


def analysis_fringes(scenario: Scenario) -> dict:
    """Overlap-slice fringe spacing on both axes against Eq. 10.

    The reported x2 relative error grows with the spectral width because
    the dispersion chirp across the overlap grows with it (fig2/fig3-a
    about 1.4%, fig3-b about 5.6%, fig3-c about 13%); that is physics of
    the wider packets, not an extraction error, and only the dk = 1 case
    is held to the formula.
    """
    spec = scenario.wavegroup
    eq10 = fringe_spacing(scenario.params)
    out = {"expected_spacing": eq10}
    for axis in ("x1", "x2"):
        rep = extract_fringes(overlap_slice(scenario, axis))
        out[axis] = {"spacing": rep.spacing, "visibility": rep.visibility,
                     "n_fringes": rep.n_fringes,
                     "relative_error": abs(rep.spacing - eq10) / eq10}
    return out


def analysis_beat(scenario: Scenario, traces: dict | None = None) -> dict:
    spec = scenario.wavegroup
    event = resolve_event(scenario, scenario.events[0])
    state = collapse(spec, event)
    t_axis = _beat_window(scenario, event)
    t_mid = float(t_axis[len(t_axis) // 2])
    expected = beat_frequency(scenario.params)
    if transit_beat_periods(state, t_mid) >= 3.0:
        profiles = state.branch_profiles(t_mid)
        x2 = max(profiles, key=lambda p: p[2])[0]
        fitted = doppler_beat(state, x2, t_axis)
        method = "time-series"
    else:
        # sub-fringe mirror packet: the pattern rides the envelope, so the
        # beat is the measured fringe-crossing rate of the drifting pattern
        spacing = extract_fringes(
            _fringe_marginal(scenario, event.t10, event.t10, traces)).spacing
        fitted = pattern_drift_beat(state, t_axis[::40], spacing)
        method = "pattern-drift"
    # both estimators measure the beat's magnitude; ``expected`` keeps its sign
    return {"fitted": fitted, "expected": expected, "method": method,
            "relative_error": abs(fitted - abs(expected)) / abs(expected)}


def analysis_regime(scenario: Scenario) -> dict:
    spec = scenario.wavegroup
    out = {}
    for i, raw in enumerate(scenario.events):
        event = resolve_event(scenario, raw)
        out[f"event{i}"] = {"x10": event.x10, "t10": event.t10,
                            "regime": classify_regime(spec, event)}
    return out


def analysis_split_velocities(scenario: Scenario) -> dict:
    spec = scenario.wavegroup
    event = resolve_event(scenario, scenario.events[0])
    state = collapse(spec, event)
    samples = event.t10 + spec.tau * np.linspace(1.5, 5.0, 8)
    p = scenario.params
    # the recoil 2 m (v - V) / (m + M) directly: on fig8 it lies below half an
    # ulp of V, so the two expected velocities round to one number
    expected = {"expected_slow": p.V, "expected_fast": elastic_final_velocities(p)[1],
                "expected_difference": 2.0 * p.m * (p.v - p.V) / (p.m + p.M)}
    try:
        slow, fast = split_centroid_velocities(state, samples)
    except UnresolvedSplittingError as err:
        return {"resolved": False, "reason": str(err), **expected}
    return {"resolved": True, "v_slow": slow, "v_fast": fast, **expected}


def analysis_coherence_transfer(scenario: Scenario) -> dict:
    spec = scenario.wavegroup
    rep = coherence_transfer_metrics(spec, pre_t=spec.t0,
                                     post_t=scenario.collision_time + 2.0 * spec.tau)
    return {**asdict(rep), "exchange_particle": rep.exchange_particle,
            "exchange_mirror": rep.exchange_mirror}


def _fringe_axis(scenario: Scenario):
    """3001 particle positions from 2.5 to 0.3 particle widths before the
    contact point."""
    spec = scenario.wavegroup
    x_c = spec.collision_point
    sigma1 = 1.0 / spec.dk
    return np.linspace(x_c - 2.5 * sigma1, x_c - 0.3 * sigma1, 3001)


def _fringe_marginal(scenario: Scenario, t1: float, t2: float,
                     traces: dict | None = None) -> Curve:
    """The particle marginal on :func:`_fringe_axis` at (t1, t2). ``traces``,
    one dict per run of a scenario's analyses (:func:`run_analysis`), keeps
    each one traced, so the run traces it once."""
    if traces is None:
        traces = {}
    if (t1, t2) not in traces:
        traces[t1, t2] = marginal_over_mirror(scenario.wavegroup, _fringe_axis(scenario),
                                              t1, t2)
    return traces[t1, t2]


def analysis_marginal_visibility(scenario: Scenario, traces: dict | None = None) -> dict:
    spec = scenario.wavegroup
    t = scenario.collision_time
    particle_side = extract_fringes(_fringe_marginal(scenario, t, t, traces))
    x2 = np.linspace(*_hull(frames(spec, t, t), axis=1), 4001)
    mirror_side = extract_fringes(marginal_over_particle(spec, x2, t, t))
    return {"particle_visibility": particle_side.visibility,
            "particle_spacing": particle_side.spacing,
            "mirror_visibility": mirror_side.visibility}


def analysis_marginal_t2_independence(scenario: Scenario,
                                      traces: dict | None = None) -> dict:
    t_c = scenario.collision_time
    # later mirror times for either sign of the beat
    offsets = np.linspace(0.0, 3.0 * math.pi / _beat_rate(scenario), 4)
    curves = [_fringe_marginal(scenario, t_c, t_c + dt, traces).y for dt in offsets]
    peak = max(c.max() for c in curves)
    linf = max(float(np.abs(c - curves[0]).max()) for c in curves[1:])
    return {"linf_over_peak": linf / peak, "t2_offsets": list(offsets)}


def analysis_node_depth(scenario: Scenario, traces: dict | None = None) -> dict:
    """Mirror PDF after detection at a fringe node versus at a peak."""
    spec = scenario.wavegroup
    t_c = scenario.collision_time
    curve = _fringe_marginal(scenario, t_c, t_c, traces)
    x1 = curve.x
    i_peak = int(np.argmax(curve.y))
    fringe = fringe_period(scenario.params)
    dx = x1[1] - x1[0]
    half = max(1, int(round(0.5 * fringe / dx)))
    seg = curve.y[i_peak:i_peak + 2 * half]
    i_node = i_peak + int(np.argmin(seg))
    out = {}
    for label, idx in (("peak", i_peak), ("node", i_node)):
        event = MeasurementEvent(x10=float(x1[idx]), t10=t_c)
        _, pdf = collapse(spec, event)._sampled(t_c, 4097)
        out[label] = float(pdf.max())
    out["ratio"] = out["node"] / out["peak"]
    return out


def analysis_continuity(scenario: Scenario) -> dict:
    spec = scenario.wavegroup
    t_c = scenario.collision_time
    x_c = spec.collision_point
    fringe = fringe_period(scenario.params)
    # the box and its steps resolve the narrowest packet at t_c, as it has
    # spread by then, as well as the fringe
    width = min(math.sqrt(s) for _, cov in frames(spec, t_c, t_c) for s in np.diag(cov))
    h = min(fringe, width) / 40.0
    v_mean = 0.5 * (scenario.params.v + scenario.params.V)
    steps = (h, h, h / v_mean, h / v_mean)
    x1 = x_c - 0.2 * width + np.linspace(0, 6, 7) * h
    x2 = x_c + 0.2 * width + np.linspace(0, 6, 7) * h
    healthy = continuity_residual(spec, x1, x2, t_c, t_c, steps)
    broken = continuity_residual(spec, x1, x2, t_c, t_c, steps, detune=1.1)
    order = convergence_order(spec, x1, x2, t_c, t_c, steps)
    return {"max_over_scale": healthy.max_over_scale,
            "rms_residual": healthy.rms_residual,
            "scale": healthy.scale,
            "order": order,
            "negative_control_ratio": broken.max_residual / healthy.max_residual}


# analyses that need an event: beat and split-velocities read the first one,
# and regime classifies each, so with none it would report nothing
_EVENT_ANALYSES = ("beat", "split-velocities", "regime")

_ANALYSIS_FNS = {
    "fringes": analysis_fringes,
    "beat": analysis_beat,
    "regime": analysis_regime,
    "split-velocities": analysis_split_velocities,
    "coherence-transfer": analysis_coherence_transfer,
    "marginal-visibility": analysis_marginal_visibility,
    "marginal-t2-independence": analysis_marginal_t2_independence,
    "node-depth": analysis_node_depth,
    "continuity": analysis_continuity,
}


# analyses that trace the particle marginal on the fringe axis
_FRINGE_ANALYSES = ("beat", "marginal-visibility", "marginal-t2-independence", "node-depth")


def run_analysis(scenario: Scenario, name: str, traces: dict | None = None) -> dict:
    """One named analysis. Pass one ``traces`` dict to every analysis of one
    run of a scenario, and drop it after: the analyses that trace the fringe
    marginal then share it (:func:`_fringe_marginal`)."""
    if name in _FRINGE_ANALYSES:
        return _ANALYSIS_FNS[name](scenario, traces)
    return _ANALYSIS_FNS[name](scenario)


# ---------------------------------------------------------------------------
# grid production
# ---------------------------------------------------------------------------

@np.errstate(over="ignore", invalid="ignore")
def joint_pdf_grid(spec: WavegroupSpec, grid: GridSpec, t1: float,
                   t2: float) -> FieldGrid:
    """Joint PDF sampled on a (x1, x2) grid with coarse-sampling flagging.

    The amplitude lives on x1 <= x2 and the step sets the PDF to an exact 0
    beyond it, so blocks of rows are evaluated from their first row's
    physical column on (:func:`~.wavegroup._physical_pdf`), and every value
    is bitwise that of :func:`~.wavegroup.joint_pdf` on the whole grid. A
    block's corner past the wall may overflow, which is ignored here; only
    the values kept are checked.
    """
    ax1, ax2 = grid.axes
    x1 = ax1.values()
    x2 = ax2.values()
    flags = []
    fringe = fringe_period(spec.params)
    step = max(x1[1] - x1[0], x2[1] - x2[0])
    if step > 0.5 * fringe:
        flags.append("coarse-sampling")
    values = _physical_pdf(_density_form(spec, t1, t2), x1, x2)
    _check_range(np.isfinite(values).all(), "joint pdf", t1=t1, t2=t2)
    return FieldGrid(grid=grid, values=values,
                     provenance={"operation": "joint_pdf", "t1": t1, "t2": t2,
                                 "flags": flags})


@np.errstate(over="ignore", invalid="ignore")
def conditional_pdf_curves(scenario: Scenario, raw: RawEvent, t2_list,
                           n: int = 256) -> list[Curve]:
    """Conditional mirror PDF along x2, one curve per listed t2 in ascending
    order, each at n points of its own physical support out to six branch
    sigmas. A curve is flagged coarse-sampling when its step exceeds half the
    fringe period or half the narrowest kept branch sigma at its t2, the
    factor :func:`joint_pdf_grid` uses. Raises ValueError for a detection past
    that support at t10 or at a listed t2, where it has probability 0."""
    event = resolve_event(scenario, raw)
    state = collapse(scenario.wavegroup, event)
    state._wall_support(event.t10, pad=6.0)  # raises for a detection of probability 0
    fringe = fringe_period(scenario.params)
    out = []
    for t2 in sorted(float(t) for t in t2_list):
        x2, pdf = state._sampled(t2, n, pad=6.0)
        _check_range(np.isfinite(pdf).all(), "conditional pdf", t10=event.t10, t2=t2)
        sigma = min(s for _, s, _ in state._kept_profiles(t2))
        flags = ["coarse-sampling"] if x2[1] - x2[0] > 0.5 * min(fringe, sigma) else []
        out.append(Curve(x=x2, y=np.asarray(pdf), meta={
            "axis": "x2", "operation": "conditional_pdf", "x10": event.x10,
            "t10": event.t10, "t2": t2, "flags": flags}))
    return out
