"""Self-tests of the benchmark's output checks.

Each check must pass a correct output and reject a corrupted one. Run from
the repository root:

    PYTHONPATH=src python3 benchmark/selftest.py

Exits 0 when every check behaves, 1 otherwise. Runs in a few seconds.
"""

from __future__ import annotations

import contextlib
import copy
import io
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

import checks
import mirrorsim as ms
import workloads
from mirrorsim import cli

FAILURES: list[str] = []


def expect(label: str, errors, reject: bool):
    if bool(errors) != reject:
        FAILURES.append(f"{label}: expected {'rejection' if reject else 'pass'}, "
                        f"got {errors or 'pass'}")
    print(f"{'ok  ' if bool(errors) == reject else 'FAIL'} {label}")


def grids():
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()):
        cli.main(["simulate", "--preset", "fig2", "--resolution", "256",
                  "--times", "0", "--out", tmp])
        x1, x2, v = checks.read_grid_csv(Path(tmp) / "fig2_joint_0.csv")
    expect("grid as written", checks.grid_errors("g", x1, x2, v), False)
    expect("grid scaled by 1.001", checks.grid_errors("g", x1, x2, 1.001 * v), True)
    bad = v.copy()
    i, j = np.unravel_index(np.argmax(v), v.shape)
    bad[i, j] = -1e-12
    expect("grid with a negative value", checks.grid_errors("g", x1, x2, bad), True)
    bad = v.copy()
    bad[-1, 0] = 1e-12  # x1 at its top, x2 at its bottom: past the wall
    expect("grid nonzero where x1 > x2", checks.grid_errors("g", x1, x2, bad), True)
    bad = v.copy()
    bad[i, j] = np.nan
    expect("grid with a NaN", checks.grid_errors("g", x1, x2, bad), True)


def _fig5_report(p):
    slow, fast = checks.split_velocities(p)
    return {"analyses": {
        "regime": {"event0": {"regime": "B"}},
        "split-velocities": {"resolved": True, "v_slow": slow * 1.0001,
                             "v_fast": fast * 0.9996},
        "beat": {"fitted": checks.beat_frequency(p) * (1 - 0.0125)},
    }}


def fig5():
    p = ms.PRESETS["fig5"].params
    good = _fig5_report(p)
    expect("fig5 report near closed forms", checks.fig5_errors(good, p), False)
    split = copy.deepcopy(good)
    s = split["analyses"]["split-velocities"]
    s["v_slow"], s["v_fast"] = s["v_fast"], s["v_slow"]
    expect("fig5 split velocities swapped", checks.fig5_errors(split, p), True)
    regime = copy.deepcopy(good)
    regime["analyses"]["regime"]["event0"]["regime"] = "A"
    expect("fig5 regime A", checks.fig5_errors(regime, p), True)
    beat = copy.deepcopy(good)
    beat["analyses"]["beat"]["fitted"] = checks.beat_frequency(p) * 1.03
    expect("fig5 beat 3% off", checks.fig5_errors(beat, p), True)
    failed = copy.deepcopy(good)
    failed["analyses"]["beat"] = {"error": "ValueError: x"}
    expect("fig5 failed analysis", checks.fig5_errors(failed, p), True)


def fig6_m1():
    spec = ms.PRESETS["fig6-m1"].wavegroup
    wp, wm = checks.intensity_width(spec.dk), checks.intensity_width(spec.dK)
    good = {"analyses": {"coherence-transfer": {
        "width_particle_in": wp, "width_mirror_in": wm,
        "width_particle_out": wm, "width_mirror_out": wp}}}
    expect("fig6-m1 widths exchanged", checks.fig6_m1_errors(good, spec), False)
    kept = copy.deepcopy(good)
    ct = kept["analyses"]["coherence-transfer"]
    ct["width_particle_out"], ct["width_mirror_out"] = wp, wm
    expect("fig6-m1 widths kept", checks.fig6_m1_errors(kept, spec), True)


def fig9():
    s = ms.PRESETS["fig9"]
    spec, p, t_c = s.wavegroup, s.params, s.collision_time
    x1 = np.linspace(spec.collision_point - 2.5 / spec.dk,
                     spec.collision_point - 0.3 / spec.dk, 96)
    dts = np.linspace(0.0, 3.0 * math.pi / spec.beat0, 4)
    curves = [ms.marginal_over_mirror(spec, x1, t_c, t_c + dt, n_quad=2049).y
              for dt in dts]

    def report(curves_, spacing=1.0, visibility=0.0):
        return {"analyses": {
            "marginal-t2-independence": {
                "linf_over_peak": checks.t2_linf_over_peak(curves_)},
            "marginal-visibility": {
                "particle_spacing": spacing * checks.particle_fringe_spacing(p),
                "mirror_visibility": visibility},
            "beat": {"fitted": checks.beat_frequency(p)},
        }}

    expect("fig9 marginals over t2", checks.fig9_errors(report(curves), p), False)
    drifting = [c * (1.0 + 1e-3 * dt / dts[-1]) for c, dt in zip(curves, dts)]
    expect("fig9 marginal that depends on t2",
           checks.fig9_errors(report(drifting), p), True)
    expect("fig9 spacing 3% off",
           checks.fig9_errors(report(curves, spacing=1.03), p), True)
    expect("fig9 mirror fringes visible",
           checks.fig9_errors(report(curves, visibility=0.1), p), True)


def marginal_curves():
    x = np.linspace(-8.0, 8.0, 2001)
    y = np.exp(-0.5 * x**2) / math.sqrt(2.0 * math.pi)
    expect("unit-norm marginal", checks.curve_norm_errors("c", x, y), False)
    expect("marginal scaled by 1 + 1e-5",
           checks.curve_norm_errors("c", x, y * (1 + 1e-5)), True)
    expect("marginal with a negative value",
           checks.curve_norm_errors("c", x, y - 1e-9), True)


def conditional():
    s = ms.PRESETS["fig5"]
    spec = s.wavegroup
    event = ms.MeasurementEvent(
        x10=workloads._particle_centre_and_width(s, s.collision_time)[0],
        t10=s.collision_time)
    x10, t10 = event.x10, event.t10
    state, regime, frames = workloads.query(spec, event, s.tau)
    errors, drift = workloads._query_errors("q", state, regime, frames)
    expect("conditional query as computed", errors, False)
    expect("conditional norm as computed",
           [] if drift <= checks.UNITARITY_TOL else [drift], False)

    t2, x2, pdf = frames[0]
    unstepped = state.pdf(x2, t2, apply_step=False)
    expect("conditional PDF without the step",
           checks.conditional_errors("q", x2, unstepped, x10), True)
    expect("conditional PDF with a negative value",
           checks.conditional_errors("q", x2, pdf - 1e-300, x10), True)

    a_in, a_ref = ms.amplitude_parts(spec, ms.SpacetimePoint(x10, t10, x10, t10))
    branch = abs(a_in) ** 2 + abs(a_ref) ** 2
    weighted = float(ms.joint_pdf(spec, x10, t10, x10, t10, reflected_weight=0.99,
                                  apply_step=False))
    expect("conditional PDF with reflected_weight=0.99 at the wall",
           checks.wall_errors("q", weighted, branch), True)

    t2s = [t for t, _, _ in frames]
    # reflected_weight keeps each branch a free solution in (x2, t2), so it
    # leaves the norm t2-invariant; a PDF that leaks probability does not
    leaking = checks.norm_drift(
        lambda x, t: state.pdf(x, t, apply_step=False) * (1.0 - 1e-4 * (t - t10) / s.tau),
        state.support, t10, t2s)
    expect("conditional PDF that loses probability over t2",
           [] if leaking <= checks.UNITARITY_TOL else [leaking], True)


def main() -> int:
    for test in (grids, fig5, fig6_m1, fig9, marginal_curves, conditional):
        test()
    for failure in FAILURES:
        print(failure, file=sys.stderr)
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
