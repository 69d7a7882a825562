"""Deterministic flat-file output: CSV grids with provenance headers and
gnuplot companion scripts.

Files are written atomically (temp file + rename) and contain no wall-clock
content, so identical configs produce byte-identical artifacts.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

from .grids import Curve, FieldGrid

SCHEMA_VERSION = "mirrorsim-grid v1"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _atomic_write(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _header(scenario_name: str, config_hash: str, provenance: dict,
            axes_lines: list[str], dtype: str) -> list[str]:
    lines = [f"# {SCHEMA_VERSION}",
             f"# scenario: {scenario_name}",
             f"# scenario-hash: {config_hash}"]
    for key in sorted(provenance):
        val = provenance[key]
        if key == "flags":
            lines.append(f"# flags: {','.join(val) if val else '-'}")
        elif isinstance(val, float):
            lines.append(f"# {key}: {_fmt(val)}")
        elif isinstance(val, list):
            lines.append(f"# {key}: {','.join(_fmt(v) for v in val)}")
        else:
            lines.append(f"# {key}: {val}")
    lines.extend(axes_lines)
    lines.append(f"# dtype: {dtype}")
    return lines


def write_field_grid(fg: FieldGrid, path, scenario_name: str,
                     config_hash: str) -> Path:
    """One row per leading-axis sample."""
    path = Path(path)
    axes_lines = [
        f"# axis-{i}: {a.role} {_fmt(a.lo)} {_fmt(a.hi)} {a.n}"
        for i, a in enumerate(fg.grid.axes)
    ]
    lines = _header(scenario_name, config_hash, fg.provenance, axes_lines, "real")
    rows = fg.values if fg.values.ndim == 2 else fg.values[None, :]
    for row in rows:
        lines.append(",".join([_fmt(c) for c in row]))
    _atomic_write(path, "\n".join(lines) + "\n")
    return path


def write_curve(curve: Curve, path, scenario_name: str, config_hash: str) -> Path:
    path = Path(path)
    meta = {k: v for k, v in curve.meta.items()}
    axes_lines = [f"# columns: {meta.pop('axis', 'x')},value"]
    lines = _header(scenario_name, config_hash, meta, axes_lines, "real")
    for x, y in zip(curve.x, curve.y):
        lines.append(f"{_fmt(x)},{_fmt(y)}")
    _atomic_write(path, "\n".join(lines) + "\n")
    return path


def write_json(payload: str, path) -> Path:
    path = Path(path)
    _atomic_write(path, payload if payload.endswith("\n") else payload + "\n")
    return path


def heatmap_script(csv_path, out_path=None) -> Path:
    """Gnuplot script rendering a 2D grid CSV as a pm3d heatmap."""
    csv_path = Path(csv_path)
    out_path = Path(out_path) if out_path else csv_path.with_suffix(".gp")
    png = csv_path.with_suffix(".png").name
    text = "\n".join([
        "set datafile separator ','",
        "set datafile commentschars '#'",
        "set term pngcairo size 900,780",
        f"set output '{png}'",
        "set view map",
        "unset key",
        f"splot '{csv_path.name}' matrix with image",
        "",
    ])
    _atomic_write(out_path, text)
    return out_path


def slice_script(csv_path, out_path=None) -> Path:
    """Gnuplot script plotting a curve CSV."""
    csv_path = Path(csv_path)
    out_path = Path(out_path) if out_path else csv_path.with_suffix(".gp")
    png = csv_path.with_suffix(".png").name
    text = "\n".join([
        "set datafile separator ','",
        "set datafile commentschars '#'",
        "set term pngcairo size 900,600",
        f"set output '{png}'",
        "unset key",
        f"plot '{csv_path.name}' using 1:2 with lines",
        "",
    ])
    _atomic_write(out_path, text)
    return out_path
