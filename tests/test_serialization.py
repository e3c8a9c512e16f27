"""The CLI's bulk writers give the bytes of the per-cell code they replaced.

``simulate`` and the series CSVs format whole blocks of floats at C level,
and ``write_json`` hands scalar-only containers to the C ``json`` encoder.
Each is compared byte for byte with the old code, kept here as the
reference.  ``simulate`` streams the sampler's blocks to its file, and its
peak allocation is bounded independently of the draw count, so that holding
the whole sample or the whole file's text cannot come back unnoticed.
"""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ophp import CoeffVector, FilterProblem, optimal_b, sample_joint, solve_filter
from ophp.cli import SAMPLE_BLOCK_DRAWS, _json_text, main, write_series_csv
from ophp.gaussian import BLOCK_ROWS, DEFAULT_CHUNK
from ophp.specs import build_model, load_config

B = SAMPLE_BLOCK_DRAWS


def _old_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _old_series_csv(t, values) -> str:
    lines = ["index,t,value"]
    for i, (ti, vi) in enumerate(zip(t, values)):
        lines.append(f"{i},{repr(float(ti))},{repr(float(vi))}")
    return "\n".join(lines) + "\n"


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
        model, _ = build_model(load_config(config))
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
        model, _ = build_model(load_config(config))
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
        model, _ = build_model(load_config(config))
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
