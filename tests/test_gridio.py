"""CSV writing: the block formatter against the per-value ``.17g`` reference,
and the atomic temp-file write."""

import math

import numpy as np
import pytest

from mirrorsim import gridio
from mirrorsim.grids import AxisSpec, Curve, FieldGrid, GridSpec
from mirrorsim.scenario import PRESETS, joint_pdf_grid

EDGE = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e308, math.nan,
        math.inf, -math.inf, 1 / 3, 0.1 + 0.2]


def _reference_rows(values) -> str:
    return "".join(",".join(format(float(x), ".17g") for x in row) + "\n"
                   for row in np.asarray(values))


def _data(path) -> str:
    return path.read_text().split("# dtype: real\n", 1)[1]


def _grid(values) -> FieldGrid:
    n1, n2 = values.shape
    return FieldGrid(grid=GridSpec(axes=(AxisSpec("x1", 0.0, 1.0, n1),
                                         AxisSpec("x2", 0.0, 1.0, n2))),
                     values=values)


def _mixed(rng, shape) -> np.ndarray:
    """Random values, about half +0.0, with every edge value mixed in."""
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
    values[rng.random(shape) < 0.5] = 0.0
    flat = values.reshape(-1)
    flat[rng.choice(flat.size, len(EDGE), replace=False)] = EDGE
    return values


class TestRowFormat:
    def test_fig2_grid_matches_reference(self, tmp_path):
        s = PRESETS["fig2"]
        grid = GridSpec(axes=tuple(AxisSpec(a.role, a.lo, a.hi, 64)
                                   for a in s.grid.axes))
        t = s.snapshot_times[0]
        fg = joint_pdf_grid(s.wavegroup, grid, t, t)
        assert np.count_nonzero(fg.values == 0) > 0
        path = gridio.write_field_grid(fg, tmp_path / "g.csv", s.name, "h")
        assert _data(path) == _reference_rows(fg.values)

    def test_edge_values_match_reference(self, tmp_path):
        grid_values = np.resize([v for v in EDGE if not v < 0], (17, 16))
        path = gridio.write_field_grid(_grid(grid_values), tmp_path / "g.csv", "s", "h")
        assert _data(path) == _reference_rows(grid_values)
        x = np.array(EDGE)
        path = gridio.write_curve(Curve(x=x, y=x[::-1].copy()), tmp_path / "c.csv", "s", "h")
        assert _data(path) == _reference_rows(np.column_stack((x, x[::-1])))
        assert _data(path).startswith("0,0.30000000000000004\n-0,0.33333333333333331\n")

    @pytest.mark.parametrize("shape", [
        (1, gridio._BLOCK_VALUES + 3),       # a single row longer than a block
        (gridio._BLOCK_VALUES + 3, 1),       # a single column
        (2 * (gridio._BLOCK_VALUES // 64) + 3, 64),  # rows not a block multiple
    ], ids=["row", "column", "ragged"])
    def test_shapes_match_reference_in_bounded_chunks(self, rng, shape):
        values = _mixed(rng, shape)
        header, *chunks = gridio._csv(["# h"], values)
        assert header == "# h\n"
        assert "".join(chunks) == _reference_rows(values)
        rows_per_chunk = max(1, gridio._BLOCK_VALUES // shape[1])
        assert len(chunks) == math.ceil(shape[0] / rows_per_chunk)
        assert all(c.endswith("\n") and c.count("\n") <= rows_per_chunk for c in chunks)


class TestAtomicWrite:
    @staticmethod
    def _failing_chunks():
        yield "x" * 100_000  # past the write buffer, so it reaches the temp file
        yield "y\n"
        raise RuntimeError("formatter failed")

    def test_failed_stream_keeps_earlier_file(self, tmp_path):
        path = tmp_path / "a.csv"
        gridio._atomic_write(path, ["earlier\n", "content\n"])
        before = path.read_bytes()
        with pytest.raises(RuntimeError, match="formatter failed"):
            gridio._atomic_write(path, self._failing_chunks())
        assert path.read_bytes() == before == b"earlier\ncontent\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv"]

    def test_failed_stream_leaves_no_file(self, tmp_path):
        with pytest.raises(RuntimeError):
            gridio._atomic_write(tmp_path / "b.csv", self._failing_chunks())
        assert list(tmp_path.iterdir()) == []
