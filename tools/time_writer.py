"""Time the CSV writer and the grid kernel of two source trees against each
other, interleaved.

    python3 tools/time_writer.py OLD_TREE NEW_TREE [--repeats N]

Each tree is a checkout whose package lies in ``src/``. The formatters'
inputs are computed once, with the new tree:

- grids: every snapshot of every preset at 512 points per axis, the 23
  joint-PDF grids of one ``snapshots`` benchmark round;
- curves: fig9's two ``marginal`` curves at 2048 points, as (x, value) rows,
  formatted ``CURVE_PASSES`` times per timing.

Each tree formats them with its own ``gridio._csv`` in a worker process of
its own, which imports the tree once and times one pass over an input set
each time it is asked, consuming the text without writing it. The third
set, kernel, has no input: each worker computes the same 23 grids with its
own tree's ``scenario.joint_pdf_grid``, so the kernel layer gets a time per
pass. One repeat asks both workers for each set, in alternating order. The
script prints, per set and tree, the median and the minimum over the
repeats, and new/old for each. Both trees run the same inputs on the same
host at nearly the same time, so the ratio is free of most of the
run-to-run spread of the benchmark. The default of 15 repeats takes about
20 s on 2 vCPUs.

The trees run in separate processes because in one they would share the
C allocator, and the arrays of one tree's formatter would change what the
other's allocations cost: timed in one process, the parent of the +0.0
splice formatted the 23 grids in 0.50-0.58 s, against 0.66-1.07 s in a
process of its own.
"""

from __future__ import annotations

import argparse
import dataclasses
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

RESOLUTION = 512
CURVE_POINTS = 2048
CURVE_PASSES = 25  # the two curves take about 2 ms, so each time covers 25 passes
KINDS = ("grids", "curves", "kernel")


def _snapshots(sc):
    """(spec, grid, t) of every snapshot of every preset at ``RESOLUTION``
    points per axis, from the ``scenario`` module ``sc``."""
    for name in sorted(sc.PRESETS):
        s = sc.PRESETS[name]
        grid = sc.GridSpec(axes=tuple(dataclasses.replace(a, n=RESOLUTION)
                                      for a in s.grid.axes))
        for t in s.snapshot_times or (s.collision_time,):
            yield s.wavegroup, grid, t


def _inputs(tree: Path) -> dict[str, list[np.ndarray]]:
    """The 2-D arrays that ``simulate`` and ``marginal`` format, computed
    with the package of ``tree``."""
    sys.path.insert(0, str(tree / "src"))
    from mirrorsim import observables as ob
    from mirrorsim import scenario as sc

    grids = [sc.joint_pdf_grid(spec, grid, t, t).values for spec, grid, t in _snapshots(sc)]
    s = sc.PRESETS["fig9"]
    t = s.collision_time
    curves = []
    for a, trace in zip(s.grid.axes, (ob.marginal_over_mirror, ob.marginal_over_particle)):
        curve = trace(s.wavegroup, dataclasses.replace(a, n=CURVE_POINTS).values(), t, t)
        curves.append(np.column_stack((curve.x, curve.y)))
    return {"grids": grids, "curves": curves}


def _worker(tree: Path, inputs: Path) -> int:
    """Import ``tree``'s writer and kernel, then for each set named on stdin,
    format its inputs once, or compute the grids once for ``kernel``, and
    print the seconds taken."""
    sys.path.insert(0, str(tree / "src"))
    from mirrorsim import gridio
    from mirrorsim import scenario as sc

    with np.load(inputs) as data:
        sets = {kind: [data[k] for k in data.files if k.startswith(kind)]
                for kind in ("grids", "curves")}
    sets["curves"] *= CURVE_PASSES
    snapshots = list(_snapshots(sc))
    for line in sys.stdin:
        kind = line.strip()
        start = time.perf_counter()
        if kind == "kernel":
            for spec, grid, t in snapshots:
                sc.joint_pdf_grid(spec, grid, t, t)
        else:
            for values in sets[kind]:
                for _ in gridio._csv(["# h"], values):
                    pass
        print(time.perf_counter() - start, flush=True)
    return 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["--worker"]:  # --worker TREE INPUTS, started by main below
        return _worker(Path(argv[1]), Path(argv[2]))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--repeats", type=int, default=15)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    inputs = _inputs(args.new.resolve())
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "inputs.npz"
        np.savez(path, **{f"{kind}_{i:02d}": a for kind, arrays in inputs.items()
                          for i, a in enumerate(arrays)})
        workers = {side: subprocess.Popen(
            [sys.executable, __file__, "--worker", str(tree.resolve()), str(path)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
            for side, tree in (("old", args.old), ("new", args.new))}

        def timed(side, kind) -> float:
            workers[side].stdin.write(kind + "\n")
            workers[side].stdin.flush()
            return float(workers[side].stdout.readline())

        try:
            for kind in KINDS:  # the formatters' tables and the specs' constants, built once each
                for side in workers:
                    timed(side, kind)
            times = {(kind, side): [] for kind in KINDS for side in workers}
            for repeat in range(args.repeats):
                order = ("old", "new") if repeat % 2 == 0 else ("new", "old")
                for kind in KINDS:
                    for side in order:
                        times[kind, side].append(timed(side, kind))
        finally:
            for worker in workers.values():
                worker.stdin.close()
                worker.wait()
    for kind in KINDS:
        passes = CURVE_PASSES if kind == "curves" else 1
        arrays = inputs["grids" if kind == "kernel" else kind]  # the kernel computes the grids
        values = passes * sum(a.size for a in arrays)
        print(f"{kind}: {len(arrays)} arrays x {passes}, {values} values, "
              f"{args.repeats} repeats")
        med = {side: float(np.median(times[kind, side])) for side in workers}
        low = {side: min(times[kind, side]) for side in workers}
        for side in workers:
            print(f"  {side}: median {med[side]:.4f} s, min {low[side]:.4f} s, "
                  f"{values / med[side] / 1e6:.2f} Mvalues/s")
        print(f"  new/old: median {med['new'] / med['old']:.3f}, "
              f"min {low['new'] / low['old']:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
