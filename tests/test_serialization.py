"""The CLI's bulk readers and writers agree with the per-line code they replaced.

``simulate`` and the series CSVs format whole blocks of floats at C level,
and ``write_json`` hands scalar-only containers to the C ``json`` encoder.
Each is compared byte for byte with the old code, kept here as the
reference.  ``read_series_csv`` parses every field of a series in one pass;
it returns the line-by-line reader's bits or its message, but for the two
fixes it declares.  ``simulate`` streams the sampler's blocks to its file,
and its peak allocation is bounded independently of the draw count, so that
holding the whole sample or the whole file's text cannot come back
unnoticed.
"""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ophp import CoeffVector, FilterProblem, optimal_b, solve_filter
from ophp.cli import (
    SAMPLE_BLOCK_DRAWS,
    InputError,
    _json_text,
    main,
    read_series_csv,
    write_series_csv,
)
from ophp.gaussian import BLOCK_ROWS, DEFAULT_CHUNK
from ophp.specs import load_config

from oracles import sample_joint

B = SAMPLE_BLOCK_DRAWS


def _old_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _old_series_csv(t, values) -> str:
    lines = ["index,t,value"]
    for i, (ti, vi) in enumerate(zip(t, values)):
        lines.append(f"{i},{repr(float(ti))},{repr(float(vi))}")
    return "\n".join(lines) + "\n"


def _old_read_series_csv(path):
    """The line-by-line series reader that ``read_series_csv`` replaced."""
    text = path.read_text()
    ts, values = [], []
    for lineno, raw in enumerate(text.splitlines()):
        line = raw.strip()
        if not line:
            continue
        fields = [f.strip() for f in line.split(",")]
        try:
            numbers = [float(f) for f in fields]
        except ValueError:
            if lineno == 0:
                continue  # header row
            raise InputError(f"line {lineno + 1} of {path} is not numeric") from None
        if len(numbers) == 1:
            values.append(numbers[0])
        elif len(numbers) == 2:
            ts.append(numbers[0])
            values.append(numbers[1])
        elif len(numbers) == 3:
            ts.append(numbers[1])
            values.append(numbers[2])
        else:
            raise InputError(f"line {lineno + 1} of {path} has too many columns")
    if not values:
        raise InputError(f"input series {path} is empty")
    if ts and len(ts) != len(values):
        raise InputError(f"input series {path} mixes row formats")
    if not np.all(np.isfinite([*ts, *values])):
        raise InputError(f"input series {path} has non-finite values")
    return (np.asarray(ts) if ts else None, np.asarray(values))


def _old_samples_csv(data, dim) -> str:
    lines = ["draw,component,u,v,y,x"]
    for i in range(data.count):
        for j in range(dim):
            lines.append(
                f"{i},{j},{repr(float(data.u[i, j]))},{repr(float(data.v[i, j]))},"
                f"{repr(float(data.y[i, j]))},{repr(float(data.x[i, j]))}"
            )
    return "\n".join(lines) + "\n"


def _spd(dim, rng):
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q @ np.diag(rng.uniform(0.5, 2.0, dim)) @ q.T


def _config(tmp_path, kind, dim):
    rng = np.random.default_rng(dim)
    if kind == "diagonal":
        doc = {
            "operator": {"kind": "diagonal", "multipliers": [0.0, *range(2, dim + 1)]},
            "sigma_u": {"kind": "diagonal", "values": rng.uniform(0.5, 2.0, dim).tolist()},
            "sigma_v": {"kind": "diagonal", "values": rng.uniform(0.5, 2.0, dim).tolist()},
        }
    else:
        doc = {
            "operator": {"kind": "dense", "rows": rng.standard_normal((dim, dim)).tolist()},
            "sigma_u": {"kind": "dense", "rows": _spd(dim, rng).tolist()},
            "sigma_v": {"kind": "dense", "rows": _spd(dim, rng).tolist()},
        }
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps({**doc, "truncation_dim": dim, "seed": 17}))
    return path


class TestCsv:
    @pytest.mark.parametrize("kind", ["diagonal", "dense"])
    @pytest.mark.parametrize(
        "count", [1, B - 1, B, B + 1, 2 * B + 3, BLOCK_ROWS + 1, DEFAULT_CHUNK + B + 1]
    )
    def test_samples_match_per_cell_loop(self, tmp_path, kind, count):
        config = _config(tmp_path, kind, 3)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config), "--count", str(count),
                     "--out", str(out)]) == 0
        model = load_config(config).model
        expected = _old_samples_csv(sample_joint(model, count, 17), model.dim)
        assert (out / "samples.csv").read_text() == expected

    @pytest.mark.parametrize(
        "kind,dim,count",
        [("diagonal", 2, 1), ("dense", 3, DEFAULT_CHUNK + B + 1), ("diagonal", 64, 2000)],
    )
    def test_summary_means_match_whole_sample_bitwise(self, tmp_path, kind, dim, count):
        config = _config(tmp_path, kind, dim)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config), "--count", str(count),
                     "--out", str(out)]) == 0
        model = load_config(config).model
        data = sample_joint(model, count, 17)
        summary = json.loads((out / "simulate_summary.json").read_text())
        assert summary["mean_x"] == data.x.mean(axis=0).tolist()
        assert summary["mean_u_norm"] == float(np.linalg.norm(data.u.mean(axis=0)))

    @pytest.mark.parametrize("kind", ["diagonal", "dense"])
    def test_trend_matches_per_cell_loop(self, tmp_path, kind):
        dim = 6
        config = _config(tmp_path, kind, dim)
        series = tmp_path / "x.csv"
        x = np.random.default_rng(5).standard_normal(dim)
        series.write_text("".join(f"{v!r}\n" for v in x.tolist()))
        out = tmp_path / "out"
        assert main(["filter", "--config", str(config), "--input", str(series),
                     "--out", str(out)]) == 0
        model = load_config(config).model
        problem = FilterProblem(model.a, CoeffVector(x), optimal_b(model))
        trend = solve_filter(problem).coeffs
        grid = np.arange(dim, dtype=float)
        assert (out / "trend.csv").read_text() == _old_series_csv(grid, trend)
        assert (out / "residual.csv").read_text() == _old_series_csv(grid, x - trend)

    def test_series_edge_values_match_per_cell_loop(self, tmp_path):
        values = np.array([-0.0, 5e-324, 2.2250738585072014e-308, 1e16, -1e308,
                           0.1, 1.0 / 3.0, 123456789.0])
        t = np.linspace(0.0, 1.0, values.size)
        write_series_csv(tmp_path / "s.csv", t, values)
        assert (tmp_path / "s.csv").read_text() == _old_series_csv(t, values)

    def test_simulate_peak_does_not_grow_with_count(self, tmp_path):
        dim = 16
        config = _config(tmp_path, "diagonal", dim)
        chunk_draws = DEFAULT_CHUNK * 2 * dim * 8  # the sampler's normals
        blocks = 5 * (BLOCK_ROWS + BLOCK_ROWS // 2) * dim * 8  # and its scratch
        # A row's text, its string object and its share of the float lists.
        block_rows = B * dim * 512
        peaks = []
        for count in (2000, 4000):
            argv = ["simulate", "--config", str(config), "--count", str(count),
                    "--out", str(tmp_path / "out")]
            tracemalloc.start()
            try:
                assert main(argv) == 0
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= chunk_draws + blocks + block_rows + (1 << 20)
            peaks.append(peak)
        assert abs(peaks[1] - peaks[0]) <= 1 << 20


# Padding around a field, which both readers drop: str.strip and float() take
# the same whitespace, but for U+001F, which only str.strip takes.
PADS = st.sampled_from(["", "", "", " ", "\t", "  ", "\xa0", "\u2003", "\x1f"])
NUMBERS = st.one_of(
    st.floats().map(repr),
    st.floats(-1e6, 1e6).map(repr),
    st.integers(-(10**20), 10**20).map(str),
    st.sampled_from(["nan", "-inf", "inf", "-0", ".5", "1e3", "+2", "1_0", "1e400"]),
)
FIELDS = st.tuples(PADS, NUMBERS, PADS).map("".join)
WORDS = st.sampled_from(["index", "t", "value", "", "1x", "nan1", "0x10", "1,"])


def _rows(width):
    return st.lists(FIELDS, min_size=width, max_size=width).map(",".join)


@st.composite
def series_texts(draw):
    """Series text as users write it: an optional header, perhaps after blank
    lines; rows of one width (at times a width of four) with padded fields
    and non-finite numbers; and, now and then, a blank line, a row of another
    width or a non-numeric row."""
    width = draw(st.sampled_from([1, 2, 3, 1, 2, 3, 4]))
    line = st.integers(0, 19).flatmap(
        lambda k: _rows(width) if k < 14
        else st.sampled_from(["", " ", "\t ", "\xa0", "\x1f"]) if k < 16
        else st.integers(1, 4).flatmap(_rows) if k < 18
        else st.lists(FIELDS | WORDS, min_size=1, max_size=3).map(",".join)
    )
    lines = draw(st.lists(line, min_size=1, max_size=8))
    header = draw(st.sampled_from([None, "index,t,value", "t,value", "value", " x , y "]))
    lead = draw(st.lists(st.sampled_from(["", "  "]), max_size=2))
    lines = [*lead, *([header] if header else []), *lines]
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


def _old_numeric(line):
    try:
        [float(f.strip()) for f in line.split(",")]
    except ValueError:
        return False
    return True


def _read(reader, path):
    """What ``reader`` makes of ``path``: its arrays' bits, or its message."""
    try:
        t, values = reader(path)
    except InputError as exc:
        return str(exc)
    return [None if a is None else (a.dtype.str, a.tobytes()) for a in (t, values)]


def _old_read_with_fixes(path, text):
    """The line-by-line reader's outcome on ``text``, with the three fixes:
    the first non-blank line is the header candidate, rows of more than
    one width are refused, and so is a non-finite index column."""
    lines = text.splitlines()
    first = next((k for k, line in enumerate(lines) if line.strip()), 0)
    if first and not _old_numeric(lines[first]):
        # Moved to the top, the header leaves every other line's number.
        lines.insert(0, lines.pop(first))
        path.write_text("\n".join(lines))
    outcome = _read(_old_read_series_csv, path)
    rows = [line for line in map(str.strip, lines) if line]
    if rows and not _old_numeric(rows[0]):
        rows = rows[1:]
    # The old reader took t,value and index,t,value rows together.
    if len({row.count(",") for row in rows}) > 1 and (
        not isinstance(outcome, str) or outcome.endswith("has non-finite values")
    ):
        return f"input series {path} mixes row formats"
    indices = [row.split(",")[0].replace("\x1f", " ") for row in rows if row.count(",") == 2]
    if not isinstance(outcome, str) and not all(map(math.isfinite, map(float, indices))):
        return f"input series {path} has non-finite values"
    return outcome


@pytest.fixture(scope="module")
def series_path(tmp_path_factory):
    return tmp_path_factory.mktemp("series") / "x.csv"


class TestSeriesReader:
    @given(series_texts())
    # A non-finite index column is refused.
    @example("index,t,value\nnan,0.5,1\n")
    @example("0,0.5,1\n1,0.75,2,3\n")
    @example("0,0.5,1,3\n1,0.75,2,3\n")
    def test_matches_line_by_line_reader(self, series_path, text):
        series_path.write_text(text)
        text = series_path.read_text()  # as both readers see it
        actual = _read(read_series_csv, series_path)
        assert actual == _old_read_with_fixes(series_path, text)

    @pytest.mark.parametrize("text", ["0,0.1,1\n0.2,2\n", "0.2,2\n0,0.1,1\n", "1\n0.2,2\n"])
    def test_rows_of_two_widths_are_refused(self, tmp_path, text):
        path = tmp_path / "x.csv"
        path.write_text(text)
        with pytest.raises(InputError) as refused:
            read_series_csv(path)
        assert str(refused.value) == f"input series {path} mixes row formats"

    def test_the_header_may_follow_blank_lines(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("\n \nindex,t,value\n0,0.1,1\n")
        t, values = read_series_csv(path)
        assert t.tolist() == [0.1] and values.tolist() == [1.0]


# Floats the encoders must agree on, beyond what st.floats() draws.
EDGE_FLOATS = [-0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1e-7,
               math.nan, math.inf, -math.inf]

scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.sampled_from(EDGE_FLOATS)
    | st.floats().map(np.float64)
    | st.text()
)
documents = st.recursive(
    scalars,
    lambda children: (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=5).map(tuple)
        | st.dictionaries(st.text(), children, max_size=5)
        | st.dictionaries(st.integers(), children, max_size=5)
    ),
    max_leaves=30,
)


class TestJson:
    @given(documents)
    def test_matches_indented_encoder(self, doc):
        assert _json_text(doc) + "\n" == _old_json(doc)

    @pytest.mark.parametrize(
        "doc",
        [
            [],
            {},
            {"a": [], "b": {}, "c": [[], {}]},
            (1, (2.5, "x"), ()),
            {"µ": "naïve ☃", "rows": [[np.float64(0.1), 2.0], [math.nan, -math.inf]]},
            {2: "b", 10: "a", 1: [1, {3.5: None, True: 1}]},
            {"outer": {True: [1, 2], False: {"k": ()}}},
            [1e16, 5e-324, -0.0, 10**30, True, None],
        ],
    )
    def test_edge_documents(self, doc):
        assert _json_text(doc) + "\n" == _old_json(doc)

    def test_unserializable_raises_like_json(self):
        with pytest.raises(TypeError, match="int64 is not JSON serializable"):
            _json_text({"a": [np.int64(1), [2]]})
