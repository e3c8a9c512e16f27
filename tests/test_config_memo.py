"""A config file becomes its model once per process.

``specs.load_config`` keeps the configuration it last built, keyed on the
file's directory and the digest of its text: the same text in the same
directory is the same immutable ``RunConfig``, with the factorizations its
model already holds, and anything else is read, checked and built anew.
"""

import gc
import json
import tracemalloc

import numpy as np
import pytest

from ophp.cli import main
from ophp.specs import SpecError, load_config


def _dense_doc(dim, seed, **extra):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    sigma = q @ np.diag(rng.uniform(0.5, 2.0, dim)) @ q.T
    sigma = 0.5 * (sigma + sigma.T)
    return {
        "operator": {"kind": "dense", "rows": rng.standard_normal((dim, dim)).tolist()},
        "sigma_u": {"kind": "dense", "rows": sigma.tolist()},
        "sigma_v": {"kind": "diagonal", "values": [1.0] * dim},
        "truncation_dim": dim,
        **extra,
    }


def _write(path, doc):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture
def json_loads(monkeypatch):
    """Calls to ``json.loads`` during the test."""
    counted = []
    original = json.loads

    def loads(*args, **kwargs):
        counted.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(json, "loads", loads)
    return counted


class TestConfigMemo:
    def test_same_text_is_one_config_and_no_work(
        self, tmp_path, calls, json_loads, cold_config_memo
    ):
        path = _write(tmp_path / "config.json", _dense_doc(8, 1))
        first = load_config(path)
        assert len(json_loads) == 1 and calls["svd"] == 1 and calls["eigvalsh"] >= 1
        before = (len(json_loads), dict(calls))
        # Rewriting the same bytes moves the file's mtime, not its key.
        path.write_text(path.read_text())
        assert load_config(path) is first
        assert load_config(str(path)) is first
        assert (len(json_loads), dict(calls)) == before

    def test_new_text_at_the_same_path_builds_the_new_model(
        self, tmp_path, cold_config_memo
    ):
        doc = _dense_doc(6, 2)
        path = _write(tmp_path / "config.json", doc)
        first = load_config(path)
        doc["sigma_v"]["values"] = [2.0] * 6
        _write(path, doc)
        second = load_config(path)
        assert second is not first
        np.testing.assert_array_equal(second.model.sigma_v.stored, [2.0] * 6)
        np.testing.assert_array_equal(first.model.sigma_v.stored, [1.0] * 6)

    def test_same_text_in_another_directory_resolves_against_its_own(
        self, tmp_path, cold_config_memo
    ):
        doc = {
            "operator": {"kind": "diagonal", "multipliers": [1.0, 2.0, 3.0]},
            "sigma_u": {"kind": "diagonal", "values": [1.0] * 3},
            "sigma_v": {"kind": "diagonal", "values": [1.0] * 3},
            "truncation_dim": 3,
            "input_path": "x.csv",
            "output_path": "out",
        }
        paths = [_write(tmp_path / name / "config.json", doc) for name in "ab"]
        for path, level in zip(paths, (1.0, -1.0)):
            (path.parent / "x.csv").write_text(f"{level!r}\n" * 3)
        configs = [load_config(path) for path in paths]
        assert configs[0] is not configs[1]
        for path, cfg in zip(paths, configs):
            assert cfg.input_path == path.parent / "x.csv"
            assert cfg.output_path == path.parent / "out"
        # Each request reads its own series and writes to its own directory.
        for path in paths:
            assert main(["filter", "--config", str(path)]) == 0
        trends = [(p.parent / "out" / "trend.csv").read_text() for p in paths]
        assert trends[0] != trends[1]

    @pytest.mark.parametrize(
        "text, message",
        [
            ("{not json", "cannot read configuration"),
            (json.dumps({**_dense_doc(4, 4), "truncation_dim": 5}),
             "does not match truncation_dim 5"),
            (json.dumps({**_dense_doc(4, 4), "sigma_v": {
                "kind": "diagonal", "values": [1.0, 1.0, 1.0, -1.0]}}),
             "sigma_v has an eigenvalue below the PSD floor"),
        ],
        ids=["undecodable", "unchecked", "not-a-covariance"],
    )
    def test_a_failing_document_is_not_kept(
        self, tmp_path, cold_config_memo, text, message
    ):
        path = _write(tmp_path / "config.json", _dense_doc(4, 5))
        good = load_config(path)
        path.write_text(text)
        errors = []
        for _ in range(2):
            with pytest.raises(SpecError) as caught:
                load_config(path)
            errors.append(str(caught.value))
        assert errors[0] == errors[1] and message in errors[0]
        # The miss dropped the config kept before it.
        _write(path, _dense_doc(4, 5))
        assert load_config(path) is not good

    def test_flags_do_not_change_the_kept_config(self, tmp_path, cold_config_memo):
        path = _write(tmp_path / "config.json", {**_dense_doc(6, 6), "seed": 3})
        kept = load_config(path)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--seed", "9",
                     "--count", "2", "--out", str(out)]) == 0
        assert json.loads((out / "simulate_summary.json").read_text())["seed"] == 9
        assert load_config(path) is kept and kept.seed == 3

    def test_retained_memory_is_one_config(self, tmp_path, cold_config_memo):
        # The config kept holds its model's arrays: A, sigma_u, the
        # pseudoinverse, its range projector and the SVD factors U and Vt,
        # 6 dim^2 floats, with a diagonal sigma_v and a few vectors and
        # objects allowed 16 KiB.  Never the text, which is larger than
        # that allowance, and loading more configs retains no more.
        dim = 64
        paths = [_write(tmp_path / f"c{i}.json", _dense_doc(dim, 10 + i)) for i in range(3)]
        text_bytes = len(paths[0].read_text())
        gc.collect()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            for path in paths:
                load_config(path)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        allowance = 16384
        assert retained <= 6 * dim**2 * 8 + allowance
        assert allowance < text_bytes
