"""Deterministic flat-file output: CSV files with provenance headers and
gnuplot companion scripts.

A CSV holds one of two shapes: a joint-PDF grid (:func:`write_field_grid`,
one row per x1 sample, written by ``simulate``), or a curve
(:func:`write_curve`, one ``x,value`` row per sample, written by ``marginal``
for both marginals and by ``collapse`` for each conditional mirror PDF).

Both shapes are formatted and streamed to disk in blocks of whole rows, about
``_BLOCK_VALUES`` values each, so the text of a grid is never held in memory
whole. Every value is byte-identical to ``format(float(v), ".17g")``: +0.0 is
written as ``0``, and the rest of a block goes through one ``"%.17g"`` format
call, which uses the same ``PyOS_double_to_string(v, 'g', 17)``.

Files are written atomically (temp file + rename) and contain no wall-clock
content, so identical configs produce byte-identical artifacts.
"""

from __future__ import annotations

import os
import tempfile
from collections.abc import Iterable, Iterator
from pathlib import Path

import numpy as np

from .grids import Curve, FieldGrid

SCHEMA_VERSION = "mirrorsim-grid v1"

# Values formatted per chunk, rounded down to whole rows: 4 rows of a 512-column
# grid, half of a 2048-row curve. Larger blocks are no faster but raise the
# peak RSS of `simulate` (64 rows of a 512 grid: +4 MB); blocks of a few values
# pay a per-block overhead that shows on two-column curves.
_BLOCK_VALUES = 2048


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _atomic_write(path: Path, chunks: Iterable[str]):
    """Write ``chunks`` to ``path`` through a temp file in the same directory,
    renamed into place only once every chunk is written."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
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


def _csv(header: list[str], values: np.ndarray) -> Iterator[str]:
    """The header text, then the comma-separated rows of the 2-D ``values``,
    one block of rows per chunk, each value as :func:`_fmt` writes it."""
    yield "\n".join(header) + "\n"
    ncol = values.shape[1]
    rows = max(1, _BLOCK_VALUES // ncol)
    for start in range(0, len(values), rows):
        flat = values[start:start + rows].ravel()
        formatted = (flat != 0) | np.signbit(flat)  # all but +0.0
        cells = np.full(flat.size, "0", dtype=object)
        nz = flat[formatted].tolist()
        cells[formatted] = ("%.17g\n" * len(nz) % tuple(nz)).split("\n")[:-1]
        cells = cells.tolist()
        yield "".join([",".join(cells[i:i + ncol]) + "\n"
                       for i in range(0, len(cells), ncol)])


def write_field_grid(fg: FieldGrid, path, scenario_name: str,
                     config_hash: str) -> Path:
    """One row per x1 sample, one column per x2 sample."""
    path = Path(path)
    axes_lines = [
        f"# axis-{i}: {a.role} {_fmt(a.lo)} {_fmt(a.hi)} {a.n}"
        for i, a in enumerate(fg.grid.axes)
    ]
    header = _header(scenario_name, config_hash, fg.provenance, axes_lines, "real")
    _atomic_write(path, _csv(header, fg.values))
    return path


def write_curve(curve: Curve, path, scenario_name: str, config_hash: str) -> Path:
    path = Path(path)
    meta = {k: v for k, v in curve.meta.items()}
    axes_lines = [f"# columns: {meta.pop('axis', 'x')},value"]
    header = _header(scenario_name, config_hash, meta, axes_lines, "real")
    _atomic_write(path, _csv(header, np.column_stack((curve.x, curve.y))))
    return path


def write_json(payload: str, path) -> Path:
    path = Path(path)
    _atomic_write(path, [payload if payload.endswith("\n") else payload + "\n"])
    return path


def _gnuplot_script(csv_path, size: str, body: list[str]) -> Path:
    """Write the companion .gp script of a CSV: shared preamble, then ``body``."""
    csv_path = Path(csv_path)
    out_path = csv_path.with_suffix(".gp")
    text = "\n".join([
        "set datafile separator ','",
        "set datafile commentschars '#'",
        f"set term pngcairo size {size}",
        f"set output '{csv_path.with_suffix('.png').name}'",
        *body,
        "",
    ])
    _atomic_write(out_path, [text])
    return out_path


def heatmap_script(csv_path) -> Path:
    """Gnuplot script rendering a 2D grid CSV as a pm3d heatmap."""
    return _gnuplot_script(csv_path, "900,780", [
        "set view map",
        "unset key",
        f"splot '{Path(csv_path).name}' matrix with image",
    ])


def slice_script(csv_path) -> Path:
    """Gnuplot script plotting a curve CSV."""
    return _gnuplot_script(csv_path, "900,600", [
        "unset key",
        f"plot '{Path(csv_path).name}' using 1:2 with lines",
    ])
