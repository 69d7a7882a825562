"""The three workloads. Each runs whole rounds of a fixed list of operations
until ``seconds`` have passed, times every operation, and checks the outputs
outside the timed region. Times are corrected for the host's speed by
``speed.SpeedSampler``.

The program is reached only through ``mirrorsim.cli.main`` and names that
``mirrorsim`` exports. No ``--threads`` or ``--seed`` flag is passed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import mirrorsim as ms
from mirrorsim import cli

SNAPSHOT_RESOLUTION = 512
FIGURE_COMMANDS = (
    ("observables", "fig5"),
    ("observables", "fig6-m1"),
    ("observables", "fig9"),
    ("marginal", "fig9"),
)
MARGINAL_POINTS = 2048  # `marginal` default samples per curve

SEEDED_PRESETS = ("fig4", "fig5", "fig9")
EVENTS_PER_PRESET = 8  # per round, drawn afresh from the seeded stream
T2_STEPS = 16
T2_SPAN_TAU = 3.0
QUERY_POINTS = 1024
# fig8 (SI units) detections as (x10, t10), fixed so that the unitarity
# failures they show are the same in every run. The norm of the first two
# drifts by 1.8e-5 and 6.2e-5 over the t2 series, that of the last two by
# under 3e-9 (bound 1e-6). The last three sit on the particle packet at t_c
# (3 widths behind its centre), t_c + tau and t_c + 2 tau.
FIG8_EVENTS = (
    (3.7251227464009765e-07, 4.840045984403394e-05),
    (-9.274481584899459e-08, 5e-05),
    (1.607768366678353e-07, 8.392231633321648e-05),
    (-1.784463266643296e-07, 0.00011784463266643297),
)


class Result:
    """What one workload run reports back."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.metrics: dict[str, float] = {}

    def as_dict(self):
        return {"correct": not self.errors, "attempted": self.attempted,
                "failed": self.failed, "errors": self.errors[:20],
                "metrics": self.metrics}


@contextlib.contextmanager
def untraced(tracer):
    """Suspend span recording around work that is not part of the workload."""
    if tracer is None:
        yield
        return
    tracer.active = False
    try:
        yield
    finally:
        tracer.active = True


def _cli(argv) -> tuple[int, float, float]:
    """Exit code, start and end of one CLI command."""
    with contextlib.redirect_stdout(io.StringIO()):
        start = perf_counter()
        code = cli.main(argv)
        return code, start, perf_counter()


def _corrected(ops, speed):
    """(round, kind, time) of each (round, kind, start, end) operation,
    corrected for host speed. Called once the rounds are over, so that
    speed samples from after every operation exist."""
    return [(r, kind, speed.corrected(start, end)) for r, kind, start, end in ops]


def _round_totals(times, kinds=None) -> list[float]:
    totals: dict[int, float] = {}
    for r, kind, dt in times:
        if kinds is None or kind in kinds:
            totals[r] = totals.get(r, 0.0) + dt
    return list(totals.values())


def _rounds(seconds, one_round):
    """Run whole rounds until ``seconds`` have passed; at least one."""
    start = perf_counter()
    index = 0
    while True:
        one_round(index)
        index += 1
        if perf_counter() - start >= seconds:
            return


def _digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def _latency_metrics(result, latencies_s):
    ms_values = 1e3 * np.asarray(latencies_s)
    result.metrics["query_ms_p50"] = float(np.percentile(ms_values, 50))
    result.metrics["query_ms_p95"] = float(np.percentile(ms_values, 95))


# ---------------------------------------------------------------------------
# snapshots
# ---------------------------------------------------------------------------

def _snapshot_files(out: Path, scenario) -> list[Path]:
    count = len(scenario.snapshot_times) or 1
    return [out / f"{scenario.name}_joint_{i}.csv" for i in range(count)]


def snapshots(seed, seconds, out: Path, tracer, speed) -> Result:
    """`simulate` on every preset at one resolution, then `check --preset cont`."""
    result = Result()
    presets = sorted(ms.PRESETS)
    files = [f for name in presets for f in _snapshot_files(out, ms.PRESETS[name])]
    points = SNAPSHOT_RESOLUTION ** 2 * len(files)
    ops, digests = [], []

    def one_round(index):
        for name in presets:
            code, start, end = _cli(["simulate", "--preset", name, "--resolution",
                                     str(SNAPSHOT_RESOLUTION), "--out", str(out)])
            result.attempted += 1
            ops.append((index, name, start, end))
            if code != 0:
                result.errors.append(f"simulate --preset {name} exited {code}")
        code, start, end = _cli(["check", "--preset", "cont", "--out", str(out)])
        result.attempted += 1
        ops.append((index, "check", start, end))
        if code != 0:
            result.errors.append(f"check --preset cont exited {code}")
        with untraced(tracer):
            if index == 0:
                for path in files:
                    result.errors += checks.grid_errors(path.name,
                                                        *checks.read_grid_csv(path))
            digests.append(_digest(files))

    _rounds(seconds, one_round)
    with untraced(tracer):
        # one preset rerun apart from the timed rounds must be byte-identical
        rerun = out / "rerun"
        _cli(["simulate", "--preset", "fig2", "--resolution",
              str(SNAPSHOT_RESOLUTION), "--out", str(rerun)])
        for path in _snapshot_files(out, ms.PRESETS["fig2"]):
            if path.read_bytes() != (rerun / path.name).read_bytes():
                result.errors.append(f"{path.name}: rerun is not byte-identical")
    if len(set(digests)) != 1:
        result.errors.append("snapshot files differ between rounds")
    times = _corrected(ops, speed)
    result.metrics["wall_s"] = float(np.median(_round_totals(times)))
    result.metrics["grid_mpts_per_s"] = float(np.median(
        [points / 1e6 / s for s in _round_totals(times, presets)]))
    # latency of one snapshot grid, so that all samples are alike
    _latency_metrics(result, [dt / len(_snapshot_files(out, ms.PRESETS[kind]))
                              for _, kind, dt in times if kind != "check"])
    return result


# ---------------------------------------------------------------------------
# figures
# ---------------------------------------------------------------------------

def _figure_errors(out: Path) -> list[str]:
    def report(name):
        return json.loads((out / f"{name}_observables.json").read_text())

    presets = ms.PRESETS
    errors = checks.fig5_errors(report("fig5"), presets["fig5"].params)
    errors += checks.fig6_m1_errors(report("fig6-m1"), presets["fig6-m1"].wavegroup)
    errors += checks.fig9_errors(report("fig9"), presets["fig9"].params)
    for axis in ("x1", "x2"):
        name = f"fig9_marginal_{axis}_0.csv"
        errors += checks.curve_norm_errors(name, *checks.read_curve_csv(out / name))
    return errors


def figures(seed, seconds, out: Path, tracer, speed) -> Result:
    """`observables` on fig5, fig6-m1 and fig9, then `marginal --preset fig9`."""
    result = Result()
    outputs = [out / f"{p}_observables.json" for c, p in FIGURE_COMMANDS
               if c == "observables"]
    outputs += [out / f"fig9_marginal_{axis}_0.csv" for axis in ("x1", "x2")]
    ops, digests = [], []

    def one_round(index):
        for command, preset in FIGURE_COMMANDS:
            code, start, end = _cli([command, "--preset", preset, "--out", str(out)])
            result.attempted += 1
            ops.append((index, command, start, end))
            if code != 0:
                result.errors.append(f"{command} --preset {preset} exited {code}")
        with untraced(tracer):
            if index == 0:
                result.errors += _figure_errors(out)
            digests.append(_digest(outputs))

    _rounds(seconds, one_round)
    if len(set(digests)) != 1:
        result.errors.append("figure outputs differ between rounds")
    times = _corrected(ops, speed)
    result.metrics["wall_s"] = float(np.median(_round_totals(times)))
    result.metrics["grid_mpts_per_s"] = float(np.median(
        [2 * MARGINAL_POINTS / 1e6 / s for s in _round_totals(times, ("marginal",))]))
    _latency_metrics(result, [dt for _, _, dt in times])
    return result


# ---------------------------------------------------------------------------
# conditional
# ---------------------------------------------------------------------------

def _particle_centre_and_width(scenario, t10):
    """Closed-form particle-packet centre and intensity width at t10."""
    spec, p = scenario.wavegroup, scenario.params
    sigma0 = checks.intensity_width(spec.dk)
    tau = t10 - spec.t0
    width = math.hypot(sigma0, p.hbar * tau / (2.0 * p.m * sigma0))
    if t10 < scenario.collision_time:
        return spec.x1c + p.v * tau, width
    v_out, _ = ms.elastic_final_velocities(p)
    return spec.collision_point + v_out * (t10 - scenario.collision_time), width


def draw_event(rng, scenario) -> ms.MeasurementEvent:
    """A detection near the particle packet, from a quarter tau before the
    collision to two tau after it, with some of the mirror's conditional
    support above x10 so that the detection has nonzero probability."""
    spec = scenario.wavegroup
    while True:
        t10 = max(spec.t0, scenario.collision_time
                  + scenario.tau * rng.uniform(-0.25, 2.0))
        centre, width = _particle_centre_and_width(scenario, t10)
        x10 = centre + width * float(np.clip(rng.standard_normal(), -2.5, 2.5))
        event = ms.MeasurementEvent(x10=x10, t10=t10)
        _, hi = ms.collapse(spec, event).support(t10)
        if x10 < hi:
            return event


def query(spec, event, tau):
    """One detection query: collapse, classify, then the conditional mirror
    PDF over its support at each t2 of the series."""
    state = ms.collapse(spec, event)
    regime = ms.classify_regime(spec, event)
    frames = []
    for t2 in np.linspace(event.t10, event.t10 + T2_SPAN_TAU * tau, T2_STEPS):
        lo, hi = state.support(t2)
        x2 = np.linspace(lo, hi, QUERY_POINTS)
        frames.append((t2, x2, state.pdf(x2, t2)))
    return state, regime, frames


def _query_errors(label, state, regime, frames) -> tuple[list[str], float]:
    errors = [] if regime in ("A", "B") else [f"{label}: regime {regime!r}"]
    spec, x10, t10 = state.spec, state.event.x10, state.event.t10
    for t2, x2, pdf in frames:
        errors += checks.conditional_errors(f"{label} t2={t2!r}", x2, pdf, x10)
    a_in, a_ref = ms.amplitude_parts(spec, ms.SpacetimePoint(x10, t10, x10, t10))
    errors += checks.wall_errors(label, float(state.pdf(x10, t10, apply_step=False)),
                                 abs(a_in) ** 2 + abs(a_ref) ** 2)
    drift = checks.norm_drift(
        lambda x2, t2: state.pdf(x2, t2, apply_step=False), state.support,
        t10, [t2 for t2, _, _ in frames])
    return errors, drift


def conditional(seed, seconds, out: Path, tracer, speed) -> Result:
    """Detection queries on fig4, fig5 and fig9 drawn from the seed, plus
    fixed fig8 detections; checks run after each query, outside its timing."""
    result = Result()
    rng = np.random.default_rng(seed)
    presets = ms.PRESETS
    fig8 = presets["fig8"]
    fixed = [(fig8, ms.MeasurementEvent(x10=x, t10=t)) for x, t in FIG8_EVENTS]
    ops = []

    def one_round(index):
        with untraced(tracer):
            batch = [(presets[name], draw_event(rng, presets[name]))
                     for name in SEEDED_PRESETS for _ in range(EVENTS_PER_PRESET)]
        for scenario, event in batch + fixed:
            start = perf_counter()
            state, regime, frames = query(scenario.wavegroup, event, scenario.tau)
            ops.append((index, "query", start, perf_counter()))
            result.attempted += 1
            with untraced(tracer):
                label = f"{scenario.name} x10={event.x10!r} t10={event.t10!r}"
                errors, drift = _query_errors(label, state, regime, frames)
                result.errors += errors
                if not drift <= checks.UNITARITY_TOL:
                    result.failed += 1

    _rounds(seconds, one_round)
    times = _corrected(ops, speed)
    round_s = _round_totals(times)
    per_round = len(times) // len(round_s)
    result.metrics["wall_s"] = float(np.median(round_s))
    result.metrics["grid_mpts_per_s"] = float(np.median(
        [per_round * T2_STEPS * QUERY_POINTS / 1e6 / s for s in round_s]))
    _latency_metrics(result, [dt for _, _, dt in times])
    return result


WORKLOADS = {"snapshots": snapshots, "figures": figures,
             "conditional": conditional}
