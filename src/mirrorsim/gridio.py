"""Deterministic flat-file output: CSV files with provenance headers and
gnuplot companion scripts, and JSON reports. This is the one module that
knows how an output is written.

A CSV holds one of two shapes: a joint-PDF grid (:func:`write_field_grid`,
one row per x1 sample, written by ``simulate``), or a curve
(:func:`write_curve`, one ``x,value`` row per sample, written by ``marginal``
for both marginals and by ``collapse`` for each conditional mirror PDF).
Each writer also writes the CSV's ``.gp`` companion next to it: a heatmap
for a grid, a line plot for a curve. :func:`write_json` writes a report dict
with sorted keys, indented by one, and a final newline.

Both shapes are formatted and streamed to disk in blocks of whole rows, about
``_BLOCK_VALUES`` values each, so the text of a grid is never held in memory
whole. It stays bytes from the template to the file; headers, JSON and
scripts are encoded once. Every value is byte-identical to ``format(float(v),
".17g")``: the exact binary value rounded half to even to 17 significant digits.

A joint-PDF grid is an exact +0.0 wherever the particle would be past the
mirror (x1 > x2) and where its tails underflow: 56 % of the values of the 23
preset snapshot grids. So each run of at least ``_MIN_RUN`` +0.0 values in a
block is not formatted but cut from one fixed text of the block's shape,
``0,0,...,0`` row after row, in which every cell is 2 bytes. The cut bytes
are those that formatting would write: ``.17g`` writes +0.0 as ``0``, and a
separator depends only on its column. -0.0 (``-0``), NaN and shorter runs
are formatted. The rest of a block is formatted in numpy, exactly:

- each finite nonzero x is scaled to N = |x| 10**(16 - e), e = floor(log10|x|),
  as a double-double: Dekker's exact two-product of |x| and the high part of
  10**(16 - e), plus |x| times its low part, from a table built with
  ``Fraction`` on the first write. Values below 1e-280 or from 1e281 up are
  first scaled by an exact power of two. N is then off by less than 1e-14;
- N is rounded to an integer r. Where N falls outside [1e16, 1e17), e moves
  by one and N is computed again; r = 1e17 carries into the exponent;
- r's digits fill a fixed template, sign | 0.000 | digits with a '.' | e+XXX,
  whose unused bytes are then deleted.

Python's ``"%.17g"`` formats only what the fast path cannot certify, in one
call per block: NaN, +-inf, and values whose fraction of N lies within 1e-6
of 1/2, exact ties among them, unless 10**(16 - e) is itself a double
(-6 <= e <= 16). Then N is exact and numpy's round-half-to-even rounds a
tie as ``.17g`` does. :func:`_format_block` counts the fallbacks.

Files are written atomically (temp file + rename) and contain no wall-clock
content, so identical configs produce byte-identical artifacts.
"""

from __future__ import annotations

import functools
import json
import os
import tempfile
from collections.abc import Iterable, Iterator
from pathlib import Path

import numpy as np

from .grids import Curve, FieldGrid

SCHEMA_VERSION = "mirrorsim-grid v1"

# Values formatted per chunk, rounded down to whole rows: 32 rows of a
# 512-column grid; a 2048-row curve is one block. Each of the few dozen numpy
# steps of a block costs a fixed overhead, so smaller blocks are slower:
# through the benchmark's `snapshots` workload (2-5 runs each, 2 vCPUs), 2048
# values ran at 5.5-5.6 Mpts/s, 4096 at 6.9, 8192 at 7.7-8.2, 16384 at
# 8.6-9.4 and 32768 at 8.6-9.1, and in process the 23 preset grids formatted
# faster in blocks of 16384 than of 8192, 32768 or 65536. Peak RSS was 60.5 MB
# at 2048 and 59.1-59.5 MB from 4096 up; the kernel's grids set it, not this
# buffer.
_BLOCK_VALUES = 16384
# Runs of at least this many +0.0 values are cut from the all-zero text, not
# formatted. A run costs a few fixed Python steps, so the shortest runs are
# cheaper to format: on a block of runs of L zeros, each followed by one
# value, cutting took 1.3-1.5 times as long as formatting at L = 2, 0.65-1.06
# times at L = 3 and 0.76-0.86 times at L = 4. On the 23 preset snapshot
# grids every threshold from 3 to 16 formats in the same time, as runs of
# fewer than 16 hold 1,419 of their 3,350,305 zeros; fig9's x1 marginal,
# which alternates x and 0, has runs of one.
_MIN_RUN = 4


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _atomic_write(path: Path, chunks: Iterable[bytes]):
    """Write the byte ``chunks`` to ``path`` through a temp file in the same
    directory, renamed into place only once every chunk is written."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _header(scenario_name: str, config_hash: str, provenance: dict,
            axes_lines: list[str]) -> list[str]:
    lines = [f"# {SCHEMA_VERSION}",
             f"# scenario: {scenario_name}",
             f"# scenario-hash: {config_hash}"]
    for key in sorted(provenance):
        val = provenance[key]
        if key == "flags":
            lines.append(f"# flags: {','.join(val) if val else '-'}")
        elif isinstance(val, float):
            lines.append(f"# {key}: {_fmt(val)}")
        else:
            lines.append(f"# {key}: {val}")
    lines.extend(axes_lines)
    lines.append("# dtype: real")
    return lines


# Decimal exponents floor(log10|x|) of finite nonzero doubles, with a margin
# of one each side for the log10 estimate. Below 1e-280 and from 1e281 up, the
# value is first scaled by an exact 2**256 or 2**-256 and the table entry by
# the inverse, so that neither the scaled value, the entry, nor the products
# of their Dekker halves overflow, and the entry's low part stays normal.
_E_MIN, _E_MAX = -325, 309
_RESCALED_ABOVE = 280
_SPLITTER = 134217729.0  # 2**27 + 1: splits a double into two 26-bit halves
# a 17th-digit fraction this close to 1/2 is not certified by the
# double-double product (error below 1e-14) and goes to Python's "%.17g"
_TIE_MARGIN = 1e-6
# the template rows of one cell: sign, "0.000", 17 digits with one '.' among
# them, "e+XXX", separator
_SIGN, _PREFIX, _DIGITS, _EXP, _SEP = 0, slice(1, 6), slice(6, 24), slice(24, 29), 29
_CELL = _SEP + 1


@functools.cache
def _tables():
    """Per decimal exponent e: the power of two 2**s that pre-scales a value,
    and 10**(16 - e) / 2**s as an unevaluated sum hi + lo, exact to 2**-106
    of itself, with hi's Dekker halves. Built exactly with ``Fraction`` on
    the first write, read-only after."""
    from fractions import Fraction  # deferred with the tables: 6 ms of imports

    scale, hi, lo = [], [], []
    for e in range(_E_MIN, _E_MAX + 1):
        s = 256 if e < -_RESCALED_ABOVE else -256 if e > _RESCALED_ABOVE else 0
        exact = Fraction(10) ** (16 - e) / Fraction(2) ** s
        scale.append(2.0 ** s)
        hi.append(float(exact))
        lo.append(float(exact - Fraction(hi[-1])))
    hi = np.array(hi)
    tables = (np.array(scale), hi, *_split(hi), np.array(lo))
    for t in tables:
        t.flags.writeable = False
    return tables


def _split(a):
    """Dekker's split: a = hi + lo exactly, each half with at most 26 bits."""
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def _scaled(a, e):
    """a * 10**(16 - e) as a double-double (n, t), with n = fl(n + t) and an
    error below 4 * 2**-106 of itself: the exact two-product of a and the
    table's high part (Dekker's, as numpy has no fused multiply-add), plus a
    times the low part."""
    scale, hi, hi_h, hi_l, lo = _tables()
    i = e - _E_MIN
    a = a * scale[i]
    p = a * hi[i]
    ah, al = _split(a)
    bh, bl = hi_h[i], hi_l[i]
    t = (((ah * bh - p) + ah * bl + al * bh) + al * bl) + a * lo[i]
    n = p + t
    return n, t - (n - p)


def _round17(a):
    """The 17 significant digits of each finite a > 0, rounded half to even,
    as an integer r in [1e16, 1e17), and the exponent x with a ~ r 10**(x - 16).

    Also returns which values are certified: their rounded digits are in
    range, and either the double-double product is exact or their scaled
    fraction is at least ``_TIE_MARGIN`` away from a tie.
    """
    e = np.floor(np.log10(a)).astype(np.int64)  # may be off by one near 10**e
    n, t = _scaled(a, e)
    # step e where n + t < 1e16 or >= 1e17; each difference n - 10**k is exact
    # where its sign could be in doubt, so the rounded sum has the exact sign
    step = ((n - 1e17) + t >= 0).astype(np.int64) - ((n - 1e16) + t < 0)
    fix = np.flatnonzero(step)
    if fix.size:
        e[fix] += step[fix]
        n[fix], t[fix] = _scaled(a[fix], e[fix])
    nearest = np.rint(t)
    r = n.astype(np.int64) + nearest.astype(np.int64)
    # where the table's low part is 0 (-6 <= e <= 16, 10**(16 - e) a double),
    # n + t is the exact product, and n >= 1e16 > 2**53 is even, so rint(t)
    # already rounds a tie half to even
    *_, lo = _tables()
    exact = lo[e - _E_MIN] == 0.0
    # an exponent one too high where n + t rounds to 1e16 gives the digits
    # that a carry to 1e17 gives at the right one; so r alone is checked
    ok = ((exact | (np.abs(np.abs(t - nearest) - 0.5) >= _TIE_MARGIN))
          & (r >= 10**16) & (r <= 10**17))
    carry = r == 10**17  # 99999999999999999.5 and up round to 10**17
    return r - carry * (9 * 10**16), e + carry, ok


def _ascii_digits(v, count):
    """ASCII digits of the integers 0 <= v < 10**count < 2**31, most
    significant first, one row per digit. Each row divides by the scalar 10,
    which numpy does as a multiplication, where a column of powers of ten
    would make it divide."""
    digits = np.empty((count, v.size), np.uint8)
    v = v.astype(np.int32)  # a copy, worked on in place
    q = np.empty_like(v)
    for row in digits[::-1]:
        np.floor_divide(v, 10, out=q)
        v -= 10 * q
        row[:] = v
        v, q = q, v
    digits += np.uint8(ord("0"))
    return digits


def _cells(v: np.ndarray, sep: np.ndarray) -> tuple[np.ndarray, int]:
    """The text of each value as ``format(float(v), ".17g")`` writes it, then
    its separator byte ``sep``, in a template with one row per output column
    and one column per value, so that every step is a contiguous numpy
    operation:

        sign | 0.000 | 17 digits with a '.' after digit j | e+XXX | separator

    ``.17g`` writes the exponent x in scientific form when x < -4 or x > 16
    (j = 1), as 0.000ddd when -4 <= x < 0 (no '.' among the digits), and as
    integer part + fraction otherwise (j = x + 1). Trailing zeros of the
    fraction are dropped, and the '.' with them. Dropped bytes are 0. +-0.0
    is formatted as 1.0, whose '1' then becomes a '0'.

    Also returns how many values the fast path could not certify and sent,
    in one batch, to Python's ``"%.17g"``: NaN, +-inf, and near-ties.
    """
    finite = np.isfinite(v)
    zero = v == 0
    r, x, ok = _round17(np.where(finite & ~zero, np.abs(v), 1.0))
    slow = ~(finite & ok)

    top = r // 10**8
    digits = np.empty((19, v.size), np.uint8)  # 17 digits between two pad rows
    digits[0] = digits[18] = ord("0")
    digits[1:10] = _ascii_digits(top, 9)
    digits[10:18] = _ascii_digits(r - top * 10**8, 8)
    # number of digits up to the last nonzero one
    kept = ((digits[1:18] != ord("0"))
            * np.arange(1, 18, dtype=np.int8)[:, None]).max(axis=0)
    sci = (x < -4) | (x > 16)
    small = ~sci & (x < 0)
    j = np.where(sci, 1, np.where(small, 17, x + 1)).astype(np.int8)
    upto = np.where(small, kept, np.maximum(kept, j))  # digits kept, '.' aside

    cells = np.empty((_CELL, v.size), np.uint8)
    cells[_SEP] = sep
    cells[_SIGN] = np.signbit(v) * np.uint8(ord("-"))
    cells[_PREFIX] = (np.frombuffer(b"0.000", np.uint8)[:, None]
                      * (np.arange(5, dtype=np.int8)[:, None]
                         < np.where(small, 1 - x, 0).astype(np.int8)))
    col = np.arange(18, dtype=np.int8)[:, None]
    after = col > j  # row c holds digit c below the '.', digit c - 1 after it
    region = (digits[1:] * (col < j) + digits[:18] * after
              + np.uint8(ord(".")) * (col == j))
    cells[_DIGITS] = region * ((col - after) < upto)
    ax = np.abs(x)
    exponent = np.empty((5, v.size), np.uint8)
    exponent[0] = ord("e")
    exponent[1] = np.where(x < 0, ord("-"), ord("+"))
    exponent[2:] = _ascii_digits(ax, 3)
    exponent[2] *= ax >= 100
    cells[_EXP] = exponent * sci
    cells[_DIGITS.start] -= zero

    rest = v[slow].tolist()
    if rest:
        text = np.array(("%.17g\n" * len(rest) % tuple(rest)).split("\n")[:-1],
                        dtype=f"S{_SEP}")
        cells[:_SEP, slow] = text.view(np.uint8).reshape(-1, _SEP).T
    return cells, len(rest)


def _zero_runs(flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The starts and ends of the runs [a, b) of at least ``_MIN_RUN`` +0.0
    values; -0.0 has its sign bit set and ends a run."""
    zero = np.zeros(flat.size + 2, bool)
    np.equal(flat.view(np.uint64), 0, out=zero[1:-1])
    bounds = np.flatnonzero(zero[1:] != zero[:-1])
    starts, ends = bounds[0::2], bounds[1::2]
    long = ends - starts >= _MIN_RUN
    return starts[long], ends[long]


def _format_block(flat: np.ndarray, ncol: int) -> tuple[bytes, int]:
    """Rows of ``ncol`` comma-separated cells, each ``format(float(v), ".17g")``,
    as ASCII bytes, and the number of values sent to Python's ``"%.17g"``.

    A run [a, b) of at least ``_MIN_RUN`` +0.0 values is the slice [2a, 2b)
    of the block's all-zero text, in which each cell is '0' and its
    separator. :func:`_cells` formats every other value with its separator,
    and deleting the template's 0 bytes compacts them. The separator of the
    value before each run is a '|' there, and the run's slice starts one byte
    early to take it, so the compact text splits into the pieces between the
    runs.
    """
    starts, ends = _zero_runs(flat)
    pattern = (b"0," * (ncol - 1) + b"0\n") * (flat.size // ncol)
    if starts.size and ends[0] - starts[0] == flat.size:
        return pattern, 0
    seps = np.frombuffer(bytearray(pattern), np.uint8)[1::2]
    if starts.size:
        edges = np.zeros(flat.size + 1, np.int8)
        edges[starts], edges[ends] = 1, -1  # runs are apart, so no index is both
        keep = np.cumsum(edges[:-1]) == 0
        seps[starts[starts > 0] - 1] = ord("|")
        flat, seps = flat[keep], seps[keep]
    cells, slow = _cells(flat, seps)
    text = cells.T.tobytes().translate(None, b"\0")
    if not starts.size:
        return text, slow
    pieces = text.split(b"|")
    if starts[0] == 0:
        pieces.insert(0, b"")
    parts = [b""] * (2 * len(pieces) - 1)
    parts[0::2] = pieces
    parts[1::2] = [pattern[max(2 * a - 1, 0):2 * b]
                   for a, b in zip(starts.tolist(), ends.tolist())]
    return b"".join(parts), slow


def _csv(header: list[str], values: np.ndarray) -> Iterator[bytes]:
    """The header, then the comma-separated rows of the 2-D ``values``, one
    block of rows per chunk, each value as :func:`_fmt` writes it, all as
    bytes."""
    yield ("\n".join(header) + "\n").encode()
    values = np.asarray(values, dtype=np.float64)  # as float() reads each value
    ncol = values.shape[1]
    rows = max(1, _BLOCK_VALUES // ncol)
    for start in range(0, len(values), rows):
        yield _format_block(values[start:start + rows].ravel(), ncol)[0]


def write_field_grid(fg: FieldGrid, path, scenario_name: str,
                     config_hash: str) -> Path:
    """One row per x1 sample, one column per x2 sample; the .gp draws a heatmap."""
    path = Path(path)
    axes_lines = [
        f"# axis-{i}: {a.role} {_fmt(a.lo)} {_fmt(a.hi)} {a.n}"
        for i, a in enumerate(fg.grid.axes)
    ]
    header = _header(scenario_name, config_hash, fg.provenance, axes_lines)
    _atomic_write(path, _csv(header, fg.values))
    _gnuplot_script(path, "900,780", ["set view map", "unset key",
                                      f"splot '{path.name}' matrix with image"])
    return path


def write_curve(curve: Curve, path, scenario_name: str, config_hash: str) -> Path:
    """One ``x,value`` row per sample; the .gp draws a line plot."""
    path = Path(path)
    meta = {k: v for k, v in curve.meta.items()}
    axes_lines = [f"# columns: {meta.pop('axis', 'x')},value"]
    header = _header(scenario_name, config_hash, meta, axes_lines)
    _atomic_write(path, _csv(header, np.column_stack((curve.x, curve.y))))
    _gnuplot_script(path, "900,600", ["unset key", f"plot '{path.name}' using 1:2 with lines"])
    return path


def write_json(report: dict, path) -> Path:
    """``report`` with sorted keys, indented by one, and a final newline."""
    path = Path(path)
    _atomic_write(path, [(json.dumps(report, sort_keys=True, indent=1) + "\n").encode()])
    return path


def _gnuplot_script(csv_path: Path, size: str, body: list[str]):
    """Write the companion .gp script of a CSV: shared preamble, then ``body``."""
    text = "\n".join([
        "set datafile separator ','",
        "set datafile commentschars '#'",
        f"set term pngcairo size {size}",
        f"set output '{csv_path.with_suffix('.png').name}'",
        *body,
        "",
    ])
    _atomic_write(csv_path.with_suffix(".gp"), [text.encode()])
