"""Compare what the mirrorsim CLI writes from two source trees.

    python3 tools/compare_outputs.py OLD_TREE NEW_TREE

Each tree is a checkout whose package lies in ``src/``. On every preset of
each tree the script runs ``simulate --resolution 512``, ``marginal``,
``collapse``, ``observables`` and ``check``, one process at a time per tree,
in a fresh working directory per tree with the same relative ``--out``, so
stdout compares as is. It compares exit codes, stdout and stderr of every run
and every file written. For each file that differs it prints the header
lines that changed and the largest change over the column's peak for a
CSV, and for a JSON file every number that moved, by its path, with its old
and new value and the change relative to the larger. It exits 0 only when
everything is byte-identical, and 1 otherwise.
"""

from __future__ import annotations

import difflib
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

COMMANDS = (("simulate", "--resolution", "512"), ("marginal",), ("collapse",),
            ("observables",), ("check",))
OUT = "out"


def _env(tree: Path) -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _presets(tree: Path) -> list[str]:
    code = "from mirrorsim.scenario import PRESETS; print(*sorted(PRESETS))"
    return subprocess.run([sys.executable, "-c", code], env=_env(tree), check=True,
                          capture_output=True, text=True).stdout.split()


def run_tree(tree: Path, workdir: Path) -> dict:
    """(command, preset) -> (exit code, stdout, stderr), all written to workdir/out."""
    workdir.mkdir()
    runs = {}
    for preset in _presets(tree):
        for command, *extra in COMMANDS:
            argv = [sys.executable, "-m", "mirrorsim.cli", command, "--preset", preset,
                    "--out", OUT, *extra]
            done = subprocess.run(argv, cwd=workdir, env=_env(tree),
                                  capture_output=True, text=True)
            runs[command, preset] = (done.returncode, done.stdout, done.stderr)
    return runs


def _csv(path: Path):
    lines = path.read_text().splitlines()
    header = [line for line in lines if line.startswith("#")]
    names = next((line.split(":", 1)[1].strip().split(",") for line in header
                  if line.startswith("# columns:")), None)
    body = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    return header, names, body


def _csv_change(old: Path, new: Path) -> list[str]:
    (h_old, names, a), (h_new, _, b) = _csv(old), _csv(new)
    out = [f"  header - {line}" for line in h_old if line not in h_new]
    out += [f"  header + {line}" for line in h_new if line not in h_old]
    if a.shape != b.shape:
        return out + [f"  shape {a.shape} -> {b.shape}"]
    # a curve's columns each against their own peak, a grid as one block
    blocks = zip(names, a.T, b.T) if names else [("grid", a, b)]
    for name, x, y in blocks:
        peak = np.max(np.abs(x))
        change = np.max(np.abs(y - x)) / peak if peak else np.max(np.abs(y - x))
        out.append(f"  {name}: largest change {change:.2g} of peak")
    return out


def _json_changes(a, b, path="$"):
    """(path, (old, new)) of each number that moved, and (path, None) where
    the structure or a non-number differs."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() | b.keys()):
            if key in a and key in b:
                yield from _json_changes(a[key], b[key], f"{path}.{key}")
            else:
                yield f"{path}.{key}", None
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from _json_changes(x, y, f"{path}[{i}]")
    elif all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b)):
        if a != b:
            yield path, (a, b)
    elif a != b:
        yield path, None


def _json_change(old: Path, new: Path) -> list[str]:
    out = []
    for path, moved in _json_changes(*(json.loads(p.read_text()) for p in (old, new))):
        if moved is None:
            out.append(f"  {path}: differs")
        else:
            a, b = moved
            out.append(f"  {path}: {a!r} -> {b!r} ({abs(b - a) / max(abs(a), abs(b)):.2g} "
                       "relative)")
    return out


def _text_change(old: Path, new: Path) -> list[str]:
    diff = difflib.unified_diff(*(p.read_text().splitlines() for p in (old, new)),
                                lineterm="", n=0)
    return [f"  {line}" for line in list(diff)[2:]]


def compare(old_dir: Path, new_dir: Path) -> tuple[int, list[str]]:
    """Count of identical files, and report lines for every other one."""
    old_files = {p.relative_to(old_dir) for p in old_dir.rglob("*") if p.is_file()}
    new_files = {p.relative_to(new_dir) for p in new_dir.rglob("*") if p.is_file()}
    same, report = 0, []
    for rel in sorted(old_files | new_files):
        if rel not in new_files or rel not in old_files:
            report.append(f"{rel}: only in {'old' if rel in old_files else 'new'}")
            continue
        old, new = old_dir / rel, new_dir / rel
        if old.read_bytes() == new.read_bytes():
            same += 1
            continue
        show = {".csv": _csv_change, ".json": _json_change}.get(rel.suffix, _text_change)
        report += [f"{rel}: differs"] + show(old, new)
    return same, report


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/compare_outputs.py OLD_TREE NEW_TREE", file=sys.stderr)
        return 2
    trees = [Path(a).resolve() for a in argv]
    with tempfile.TemporaryDirectory() as tmp:
        dirs = [Path(tmp) / side for side in ("old", "new")]
        with ThreadPoolExecutor(max_workers=2) as pool:
            old_runs, new_runs = pool.map(run_tree, trees, dirs)
        keys = sorted(old_runs.keys() | new_runs.keys())
        missing = (None, None, None)
        differing = [key for key in keys if old_runs.get(key) != new_runs.get(key)]
        for key in differing:
            print(f"run {' '.join(key)}: differs")
            for label, x, y in zip(("exit code", "stdout", "stderr"),
                                   old_runs.get(key, missing), new_runs.get(key, missing)):
                if x != y:
                    print(f"  {label}: {x!r} -> {y!r}")
        same, report = compare(*(d / OUT for d in dirs))
    for line in report:
        print(line)
    files_not = sum(not line.startswith(" ") for line in report)
    print(f"runs: {len(keys) - len(differing)} of {len(keys)} identical; "
          f"files: {same} identical, {files_not} not")
    return 0 if not differing and not report else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
