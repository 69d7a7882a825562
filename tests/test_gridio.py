"""CSV writing: the block formatter against the per-value ``.17g`` reference,
and the atomic temp-file write."""

import json
import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirrorsim import gridio
from mirrorsim.grids import AxisSpec, Curve, FieldGrid, GridSpec
from mirrorsim.scenario import PRESETS, joint_pdf_grid

EDGE = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e308, math.nan,
        math.inf, -math.inf, 1 / 3, 0.1 + 0.2]


def _reference_rows(values) -> str:
    return "".join(",".join(format(float(x), ".17g") for x in row) + "\n"
                   for row in np.asarray(values))


def _lines(text: str) -> list[str]:
    """``text`` as a list of lines, the last one empty after a final newline:
    a failed comparison then names the first line that differs, where
    pytest would diff two long strings for minutes."""
    return text.split("\n")


def _data(path) -> str:
    return path.read_text().split("# dtype: real\n", 1)[1]


def _grid(values) -> FieldGrid:
    n1, n2 = values.shape
    return FieldGrid(grid=GridSpec(axes=(AxisSpec("x1", 0.0, 1.0, n1),
                                         AxisSpec("x2", 0.0, 1.0, n2))),
                     values=values)


def _formatted(values) -> tuple[list[str], int]:
    """Each value as the block formatter writes it, one per row, and how many
    went to Python's ``%.17g``."""
    text, slow = gridio._format_block(np.asarray(values, dtype=float), 1)
    return text.decode().split("\n")[:-1], slow


def _expected(values) -> list[str]:
    return [format(float(x), ".17g") for x in values]


def _exact_ties() -> list[float]:
    """Doubles m 2**q whose exact decimal has 18 significant digits ending in
    5, so that rounding to 17 digits is a tie: 9 below 1e-6, where the power
    of ten that scales them is not a double, and 312 from 1.07e-6 to 1.9e-4,
    where it is."""
    ties = []
    for q in range(-80, -20):
        for m in range(1, 400, 2):
            digits = Decimal(math.ldexp(m, q)).normalize().as_tuple().digits
            if len(digits) == 18 and digits[-1] == 5:
                ties.append(math.ldexp(m, q))
    return ties


def _mixed(rng, shape) -> np.ndarray:
    """Random values, about half +0.0, with every edge value mixed in."""
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
    values[rng.random(shape) < 0.5] = 0.0
    flat = values.reshape(-1)
    flat[rng.choice(flat.size, len(EDGE), replace=False)] = EDGE
    return values


class TestRowFormat:
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_preset_grids_match_reference(self, tmp_path, name):
        """The first snapshot of each preset at 128**2: the masked half
        x1 > x2, the tails that underflow to 0, and fig8's SI-scale values."""
        s = PRESETS[name]
        grid = GridSpec(axes=tuple(AxisSpec(a.role, a.lo, a.hi, 128)
                                   for a in s.grid.axes))
        t = (s.snapshot_times or (s.collision_time,))[0]
        fg = joint_pdf_grid(s.wavegroup, grid, t, t)
        starts, ends = gridio._zero_runs(fg.values.ravel())
        assert starts.size > 0  # the splice is exercised
        path = gridio.write_field_grid(fg, tmp_path / "g.csv", s.name, "h")
        assert _lines(_data(path)) == _lines(_reference_rows(fg.values))

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
        assert header == b"# h\n"
        assert b"".join(chunks).decode() == _reference_rows(values)
        rows_per_chunk = max(1, gridio._BLOCK_VALUES // shape[1])
        assert len(chunks) == math.ceil(shape[0] / rows_per_chunk)
        assert all(c.endswith(b"\n") and c.count(b"\n") <= rows_per_chunk for c in chunks)


class TestZeroRuns:
    """Runs of at least ``_MIN_RUN`` +0.0 values are copied from a fixed
    all-zero text, not formatted; the bytes are the same either way."""

    SPECIALS = [-0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324,
                -5e-324, 2.2250738585072009e-308, 1e-310, 0.5, -3.0]

    def _runs_grid(self, rng, ncol, nrow):
        """+0.0 runs of 0 to 3 ``_MIN_RUN`` values between one to three
        specials, so that the runs start and end anywhere in a row and a
        special often sits inside a stretch of zeros; and, a third of the way
        in, one run two blocks long, which covers a whole block."""
        n, flat = ncol * nrow, []
        block = max(1, gridio._BLOCK_VALUES // ncol) * ncol
        while len(flat) < n:
            if len(flat) >= n // 3 and block:
                flat += [0.0] * (2 * block)
                block = 0
            flat += [0.0] * int(rng.integers(0, 3 * gridio._MIN_RUN + 1))
            flat += rng.choice(self.SPECIALS, int(rng.integers(1, 4))).tolist()
        return np.array(flat[:n]).reshape(nrow, ncol)

    @pytest.mark.parametrize("ncol", [1, 7, 64, 333])
    def test_random_runs_match_reference(self, rng, ncol):
        values = self._runs_grid(rng, ncol, 3 * gridio._BLOCK_VALUES // ncol + 5)
        header, *chunks = gridio._csv(["# h"], values)
        assert _lines(b"".join(chunks).decode()) == _lines(_reference_rows(values))
        rows = max(1, gridio._BLOCK_VALUES // ncol)
        blocks = [values[i:i + rows].ravel() for i in range(0, len(values), rows)]
        assert any(np.all(b.view(np.uint64) == 0) for b in blocks)
        assert sum(gridio._zero_runs(b)[0].size for b in blocks) > 50

    @pytest.mark.parametrize("length", [gridio._MIN_RUN - 1, gridio._MIN_RUN])
    @pytest.mark.parametrize("ncol", [1, 5, gridio._MIN_RUN])
    def test_runs_at_the_threshold(self, length, ncol):
        """Runs at the start, the middle and the end of a block, each next
        to a -0.0, a NaN or a nonzero value."""
        z = [0.0] * length
        flat = z + [1.5] + z + [-0.0] + z + [math.nan] + z + [2.5e-300] + z
        flat += [7.0] * (-len(flat) % ncol)
        values = np.array(flat).reshape(-1, ncol)
        assert _lines(gridio._format_block(values.ravel(), ncol)[0].decode()) == _lines(
            _reference_rows(values))
        assert len(gridio._zero_runs(values.ravel())[0]) == (
            5 if length >= gridio._MIN_RUN else 0)


class TestFormattedWork:
    """Only the values outside the spliced runs reach :func:`gridio._cells`."""

    @pytest.fixture
    def formatted(self, monkeypatch):
        seen = []
        cells = gridio._cells

        def counting(v, sep):
            seen.append(np.array(v))
            return cells(v, sep)

        monkeypatch.setattr(gridio, "_cells", counting)
        return seen

    def test_all_zero_block_formats_nothing(self, formatted):
        values = np.zeros((16, 512))
        assert _lines(gridio._format_block(values.ravel(), 512)[0].decode()) == _lines(
            _reference_rows(values))
        assert formatted == []

    def test_one_long_run_formats_only_the_rest(self, formatted, rng):
        """+-0.0 outside the run, a short run of +0.0 among them, are still
        formatted, each in its place."""
        values = rng.random((16, 512)) + 0.5
        values[3, 100:] = values[4:9] = values[9, :7] = 0.0
        values[1, 5:4 + gridio._MIN_RUN] = 0.0  # one short of a run
        values[12, 40] = -0.0
        flat = values.ravel()
        assert _lines(gridio._format_block(flat, 512)[0].decode()) == _lines(
            _reference_rows(values))
        outside = np.ones(flat.size, bool)
        outside[3 * 512 + 100:9 * 512 + 7] = False
        assert len(formatted) == 1
        assert np.array_equal(formatted[0], flat[outside])
        assert formatted[0].size == flat.size - (412 + 5 * 512 + 7)


class TestCompanions:
    """Each writer's plot script and the one JSON format."""

    def test_field_grid_writes_heatmap_script(self, tmp_path):
        path = gridio.write_field_grid(_grid(np.ones((16, 16))), tmp_path / "g.csv", "s", "h")
        assert path == tmp_path / "g.csv"
        script = (tmp_path / "g.gp").read_text().splitlines()
        assert "splot 'g.csv' matrix with image" in script
        assert "set output 'g.png'" in script

    def test_curve_writes_line_plot_script(self, tmp_path):
        x = np.linspace(0.0, 1.0, 16)
        path = gridio.write_curve(Curve(x=x, y=x.copy()), tmp_path / "c.csv", "s", "h")
        assert path == tmp_path / "c.csv"
        script = (tmp_path / "c.gp").read_text().splitlines()
        assert "plot 'c.csv' using 1:2 with lines" in script
        assert "set output 'c.png'" in script

    def test_json_sorted_indented_one_newline(self, tmp_path):
        report = {"b": [1, 2.5], "a": {"z": None, "y": "text"}, "c": True}
        path = gridio.write_json(report, tmp_path / "r.json")
        text = path.read_bytes().decode()
        assert text == json.dumps(report, sort_keys=True, indent=1) + "\n"
        assert text.startswith('{\n "a": {\n  "y": "text"') and text.endswith('\n "c": true\n}\n')


class TestValueFormat:
    """``_format_block`` cell by cell against ``format(x, ".17g")``."""

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True,
                              allow_subnormal=True), min_size=1, max_size=64))
    def test_any_float_matches_reference(self, values):
        assert _formatted(values)[0] == _expected(values)

    def test_random_bit_patterns(self, rng):
        values = rng.integers(0, 2**64, 200_000, dtype=np.uint64,
                              endpoint=False).view(np.float64)
        cells, slow = _formatted(values)
        assert cells == _expected(values)
        # NaN and inf, about 1 in 2048 patterns, and the exact ties of values
        # with a few fraction bits in [1e14, 1e16) go to Python
        assert np.count_nonzero(~np.isfinite(values)) <= slow < 0.002 * values.size

    def test_powers_of_ten_and_neighbours(self):
        values = []
        for k in range(-323, 309):
            p = float(f"1e{k}")
            values += [p, math.nextafter(p, 0.0), math.nextafter(p, math.inf)]
        values += [-v for v in values]
        cells, slow = _formatted(values)
        assert cells == _expected(values)
        # all certified, exponent corrections included, and the exact tie
        # +-999999999999999.875 (below 1e15) too
        assert slow == 0 and "999999999999999.88" in cells
        assert "100" in cells and "10000000000000000" in cells and "1e+17" in cells

    def test_notation_boundaries(self):
        """.17g turns scientific below an exponent of -4 and from 17 up, and
        the exponent counted is that of the rounded value."""
        values = [1e-5, 1e-4, 0.00012345, 9.9999999999999991e-05,
                  math.nextafter(1e-4, 0.0), 1e16, 1e17, 12345678901234567.0,
                  99999999999999984.0, 1.2345678901234567e17, 0.1, 0.5, 1.0,
                  2.5, 123.456]
        cells, slow = _formatted(values)
        assert cells == _expected(values)
        assert slow == 0
        assert cells[:4] == ["1.0000000000000001e-05", "0.0001", "0.00012344999999999999",
                             "9.9999999999999991e-05"]
        assert cells[5:8] == ["10000000000000000", "1e+17", "12345678901234568"]

    def test_two_and_three_digit_exponents(self):
        values = [1e-99, 1e-100, 1e99, 1e100, 1.5e-308, 5e-324, 2.2250738585072014e-308,
                  1.7976931348623157e308, -4.9406564584124654e-324]
        cells, slow = _formatted(values)
        assert cells == _expected(values)
        assert slow == 0
        assert cells[4:6] == ["1.4999999999999999e-308", "4.9406564584124654e-324"]

    def test_carry_to_next_power_of_ten(self):
        """Doubles just below 10**k whose 17 digits round up to 10**17: the
        exponent grows by one and the digits are a single 1. Here log10 also
        rounds up to k, so each first takes an exponent correction."""
        values = [1e-305, 1e-243, 1e-176, 1e-79]
        assert all(Decimal(v) < Decimal(str(v)) for v in values)
        cells, slow = _formatted(values)
        assert cells == ["1e-305", "1e-243", "1e-176", "1e-79"]
        assert slow == 0

    def test_decimals_next_to_a_tie(self, rng):
        """17 digits followed by a 5 parse to the double just above or below
        the tie, which must round the same way as the exact value does."""
        mantissas = rng.integers(10**16, 10**17, 2000)
        exponents = rng.integers(-320, 290, 2000)
        values = [float(f"{m}5e{e}")
                  for m, e in zip(mantissas.tolist(), exponents.tolist())]
        assert _formatted(values)[0] == _expected(values)

    def test_exact_ties_go_to_python(self):
        """Only where 10**(16 - e) is not a double, below 1e-6. These 9 are
        the only ties there: 18 digits below 1e-6 need q = -24 or -25."""
        ties = _exact_ties()
        assert len(ties) > 100
        cells, slow = _formatted(ties)
        assert cells == _expected(ties)
        assert slow == sum(x < 1e-6 for x in ties) == 9

    def test_exact_ties_with_an_exact_scale_are_certified(self, rng):
        """From 1e-6 up, 10**(16 - e) is a double, so the scaled value is exact
        and numpy rounds its ties half to even itself. A tie m 2**q with m odd
        needs q = e - 17: 23 fraction bits at 1e-6, 2 at 1e15, as in the SI
        densities of fig8's joint grid. No double in [1e16, 1e17) has a
        fraction, so none there is a tie."""
        ties = []
        for e in range(-6, 16):
            lo, hi = 10**e * 2**(17 - e), min(10**(e + 1) * 2**(17 - e), 2**53)
            for m in rng.integers(lo // 2, hi // 2, 40).tolist():
                x = math.ldexp(2 * m + 1, e - 17)
                digits = Decimal(x).normalize().as_tuple().digits
                assert len(digits) == 18 and digits[-1] == 5
                ties.append(x)
        ties += [-x for x in ties]
        cells, slow = _formatted(ties)
        assert cells == _expected(ties)
        assert slow == 0

    def test_non_finite_and_zeros(self):
        values = [math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0]
        assert _formatted(values) == (["nan", "nan", "inf", "-inf", "0", "-0", "1"], 4)

    def test_no_floating_point_flags(self, rng):
        values = np.concatenate([EDGE, _exact_ties(), rng.integers(
            0, 2**64, 10_000, dtype=np.uint64, endpoint=False).view(np.float64)])
        with np.errstate(all="raise"):
            assert _formatted(values)[0] == _expected(values)


class TestAtomicWrite:
    @staticmethod
    def _failing_chunks():
        yield b"x" * 100_000  # past the write buffer, so it reaches the temp file
        yield b"y\n"
        raise RuntimeError("formatter failed")

    def test_failed_stream_keeps_earlier_file(self, tmp_path):
        path = tmp_path / "a.csv"
        gridio._atomic_write(path, [b"earlier\n", b"content\n"])
        before = path.read_bytes()
        with pytest.raises(RuntimeError, match="formatter failed"):
            gridio._atomic_write(path, self._failing_chunks())
        assert path.read_bytes() == before == b"earlier\ncontent\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv"]

    def test_failed_stream_leaves_no_file(self, tmp_path):
        with pytest.raises(RuntimeError):
            gridio._atomic_write(tmp_path / "b.csv", self._failing_chunks())
        assert list(tmp_path.iterdir()) == []
