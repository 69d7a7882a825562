"""Benchmark of mirrorsim, timed from outside the program.

    python3 benchmark/run.py --workload {snapshots,figures,conditional,all}
                             --seed N --seconds S --trace {0,1}

Each workload runs in a fresh single-threaded worker process (BLAS pools
pinned to one thread). With --trace 0 the run first times a fresh-interpreter
``import mirrorsim`` several times, then the untraced workload, and reports
the end-to-end metrics. With --trace 1 it runs the workload untraced and
then traced, and reports the per-layer metrics and the tracing overhead.
The last line printed is one JSON object: correct, attempted, failed and
metrics. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("snapshots", "figures", "conditional")
SETUP_REPEATS = 9
DEADLINE_S = 175.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "grid_mpts_per_s": "Mpts/s",
    "query_ms_p50": "ms",
    "query_ms_p95": "ms",
}
LAYER_UNITS = {"calls": "count", "distinct": "count", "points": "count",
               "spans": "count", "bytes": "bytes", "useful_ratio": "ratio"}
# time the import first, so that nothing the speed kernel loads is counted
IMPORT_PROBE = ("import sys, time; t = time.perf_counter(); import mirrorsim; "
                "dt = time.perf_counter() - t; sys.path.insert(0, {here!r}); "
                "import speed; print(dt * speed.factor_now())").format(here=str(HERE))


class BenchError(RuntimeError):
    """The benchmark could not run the program to the end."""


def _env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _remaining(deadline: float) -> float:
    left = deadline - perf_counter()
    if left <= 0:
        raise BenchError("run exceeded its time limit")
    return left


def measure_setup(deadline: float) -> float:
    """Median of several fresh-interpreter imports, each corrected for the
    host's speed just after it, after one warm-up import that compiles the
    bytecode cache."""
    times = []
    for i in range(SETUP_REPEATS + 1):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=_env(),
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=_remaining(deadline))
        if proc.returncode != 0:
            raise BenchError(f"import mirrorsim failed:\n{proc.stderr}")
        if i:
            times.append(float(proc.stdout))
    return statistics.median(times)


def run_worker(workload, seed, seconds, trace, run_dir: Path, deadline) -> dict:
    result_path = run_dir / f"result-{trace}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed),
           str(seconds), str(trace), str(run_dir / f"out-{trace}"),
           str(result_path), str(OUT / f"trace-{workload}.jsonl")]
    try:
        proc = subprocess.run(cmd, env=_env(), cwd=ROOT, stdout=sys.stderr,
                              timeout=_remaining(deadline))
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"{workload} worker timed out") from err
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited {proc.returncode}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    if not (ROOT / "src" / "mirrorsim").is_dir():
        raise BenchError(f"no program source at {ROOT / 'src' / 'mirrorsim'}")
    deadline = perf_counter() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    try:
        if trace:
            base = run_worker(workload, seed, seconds, 0, run_dir, deadline)
            res = run_worker(workload, seed, seconds, 1, run_dir, deadline)
            values = dict(res["layers"])
            values["trace.overhead_s"] = res["metrics"]["wall_s"] - base["metrics"]["wall_s"]
            values["trace.spans"] = res["spans"]
            units = {name: LAYER_UNITS.get(name.rpartition(".")[2], "s")
                     for name in values}
            errors = base["errors"] + res["errors"]
        else:
            setup_s = measure_setup(deadline)
            res = run_worker(workload, seed, seconds, 0, run_dir, deadline)
            values = dict(res["metrics"], setup_s=setup_s,
                          peak_rss_mb=res["peak_rss_mb"])
            units = END_TO_END_UNITS
            errors = res["errors"]
            print(f"{workload}: host speed factor {res['speed_factor']:.3f}")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for err in errors:
        print(f"{workload}: CHECK FAILED: {err}", file=sys.stderr)
    return {"correct": not errors, "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {name: {"value": values[name], "unit": units[name]}
                        for name in sorted(units)}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        try:
            report = run(name, args.seed, args.seconds, args.trace)
        except BenchError as err:
            print(f"{name}: {err}", file=sys.stderr)
            return 1
        print(f"{name}: attempted {report['attempted']}, failed {report['failed']}, "
              f"correct {report['correct']}")
        for metric, entry in report["metrics"].items():
            print(f"{name}:   {metric} = {entry['value']:.6g} {entry['unit']}")
        print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
