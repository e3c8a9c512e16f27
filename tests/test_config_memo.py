"""A config file becomes its model once per process, and a model its smoother.

``specs.load_config`` keeps the configurations it built last, keyed on the
file's directory and the digest of its bytes, as many as fit in
``specs.CONFIG_MEMO_BYTES`` of operator storage; the least recently used goes
first, and the newest always stays.  The same text in the same directory is
the same immutable ``RunConfig``, with the factorizations its model already
holds, and anything else is read, checked and built anew.
``smoothing.optimal_b`` returns one smoother per ``(A, sigma_u, sigma_v)``,
so requests on a kept config also share the smoother's positivity verdict,
and ``cli._json_text`` renders each operator it writes once, so they share
its text too.  A model's pinv bundle forms its projectors on first use.
"""

import gc
import json
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from ophp import cli, gaussian, operators, scales, smoothing, specs
from ophp.cli import main
from ophp.operators import CoeffVector, apply, dense_operator, diagonal_operator
from ophp.smoothing import optimal_b
from ophp.specs import SpecError, load_config, operator_to_json


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


def _commuting_doc(dim, seed):
    """A rotated ramp with covariances in its eigenbasis, whose optimal
    smoother passes the positivity check."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))

    def rotated(values):
        mat = q @ np.diag(values) @ q.T
        return (0.5 * (mat + mat.T)).tolist()

    return {
        "operator": {"kind": "dense", "rows": rotated(np.arange(1.0, dim + 1.0))},
        "sigma_u": {"kind": "dense", "rows": rotated(rng.uniform(0.5, 2.0, dim))},
        "sigma_v": {"kind": "dense", "rows": rotated(rng.uniform(0.5, 2.0, dim))},
        "truncation_dim": dim,
    }


def _diagonal_frame_doc(dim, seed):
    """A dense model whose smoother needs no eigensolver: diagonal ``A`` and
    ``sigma_v``, constant on the pairs of components that a dense
    block-diagonal ``sigma_u`` couples, so that the smoother is PSD."""
    rng = np.random.default_rng(seed)
    pairs = np.repeat(np.arange(1.0, dim // 2 + 1.0), 2)
    sigma_u = np.zeros((dim, dim))
    for j in range(0, dim, 2):
        half = rng.standard_normal((2, 2))
        sigma_u[j:j + 2, j:j + 2] = half @ half.T + np.eye(2)
    return {
        "operator": {"kind": "diagonal", "multipliers": pairs.tolist()},
        "sigma_u": {"kind": "dense", "rows": sigma_u.tolist()},
        "sigma_v": {"kind": "diagonal", "values": (1.0 + pairs).tolist()},
        "truncation_dim": dim,
    }


def _stored_bytes(cfg):
    model = cfg.model
    return sum(op.stored.nbytes for op in (model.a, model.sigma_u, model.sigma_v))


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


@pytest.fixture
def products(monkeypatch):
    """Calls to ``operators.core_product`` that assemble a smoother: the
    product ``optimal_b`` forms for every storage kind."""
    counted = []
    original = operators.core_product

    def core_product(*args):
        counted.append(1)
        return original(*args)

    monkeypatch.setattr(smoothing, "core_product", core_product)
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

    def test_configs_within_the_budget_are_each_kept(
        self, tmp_path, calls, json_loads, cold_config_memo
    ):
        paths = [_write(tmp_path / f"c{i}.json", _dense_doc(8, 20 + i)) for i in range(4)]
        kept = [load_config(path) for path in paths]
        assert sum(map(_stored_bytes, kept)) <= specs.CONFIG_MEMO_BYTES
        before = (len(json_loads), dict(calls))
        # Switching between them, in any order, decodes and factorizes nothing.
        for i in (2, 0, 3, 1, 1, 0):
            assert load_config(paths[i]) is kept[i]
        assert (len(json_loads), dict(calls)) == before

    def test_over_the_budget_the_least_recently_used_goes_first(
        self, tmp_path, monkeypatch, json_loads, cold_config_memo
    ):
        paths = [_write(tmp_path / f"c{i}.json", _dense_doc(6, 30 + i)) for i in range(3)]
        first = load_config(paths[0])
        # Room for two of these configs, not three.
        monkeypatch.setattr(specs, "CONFIG_MEMO_BYTES", 2 * _stored_bytes(first))
        second = load_config(paths[1])
        assert load_config(paths[0]) is first  # now the most recently used
        third = load_config(paths[2])  # evicts the second, not the first
        decoded = len(json_loads)
        assert load_config(paths[0]) is first
        assert load_config(paths[2]) is third
        assert len(json_loads) == decoded
        again = load_config(paths[1])
        assert again is not second and len(json_loads) == decoded + 1
        # Reading the second back evicted the first, used before the third.
        assert load_config(paths[2]) is third
        assert load_config(paths[0]) is not first

    def test_a_config_over_the_budget_is_kept_alone(
        self, tmp_path, monkeypatch, cold_config_memo
    ):
        small = [_write(tmp_path / f"s{i}.json", _dense_doc(4, 40 + i)) for i in range(2)]
        big = _write(tmp_path / "big.json", _dense_doc(16, 42))
        kept = [load_config(path) for path in small]
        monkeypatch.setattr(specs, "CONFIG_MEMO_BYTES", 2 * _stored_bytes(kept[0]))
        large = load_config(big)
        assert _stored_bytes(large) > specs.CONFIG_MEMO_BYTES
        assert load_config(big) is large
        # It evicted both small configs, and the next miss evicts it before
        # the new text is parsed, so the two models are never held at once.
        large_model = weakref.ref(large.model)
        del large
        alive_at_parse = []
        parse = specs.parse_config

        def parse_config(*args, **kwargs):
            gc.collect()
            alive_at_parse.append(large_model() is not None)
            return parse(*args, **kwargs)

        monkeypatch.setattr(specs, "parse_config", parse_config)
        fresh = load_config(small[0])
        assert alive_at_parse == [False]
        assert fresh is not kept[0]
        assert load_config(small[0]) is fresh
        load_config(big)
        assert len(alive_at_parse) == 2  # read back, it is parsed anew

    @pytest.mark.parametrize(
        "text, message",
        [
            ("{not json", "cannot read configuration"),
            (json.dumps({**_dense_doc(4, 4), "truncation_dim": 5}),
             "does not match truncation_dim 5"),
            (json.dumps({**_dense_doc(4, 4), "sigma_v": {
                "kind": "diagonal", "values": [1.0, 1.0, 1.0, -1.0]}}),
             "sigma_v has an eigenvalue below the PSD floor"),
            (b"\xff{}", "cannot read configuration"),
        ],
        ids=["undecodable", "unchecked", "not-a-covariance", "not-utf-8"],
    )
    def test_a_failing_document_is_not_kept(
        self, tmp_path, cold_config_memo, text, message
    ):
        other = load_config(_write(tmp_path / "other.json", _dense_doc(4, 6)))
        path = _write(tmp_path / "config.json", _dense_doc(4, 5))
        good = load_config(path)
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text)
        errors = []
        for _ in range(2):
            with pytest.raises(SpecError) as caught:
                load_config(path)
            errors.append(str(caught.value))
        assert errors[0] == errors[1] and message in errors[0]
        # The configs kept before the failing document stay kept.
        _write(path, _dense_doc(4, 5))
        assert load_config(path) is good
        assert load_config(tmp_path / "other.json") is other

    def test_flags_do_not_change_the_kept_config(self, tmp_path, cold_config_memo):
        path = _write(tmp_path / "config.json", {**_dense_doc(6, 6), "seed": 3})
        kept = load_config(path)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--seed", "9",
                     "--count", "2", "--out", str(out)]) == 0
        assert json.loads((out / "simulate_summary.json").read_text())["seed"] == 9
        assert load_config(path) is kept and kept.seed == 3

    def test_retained_memory_is_bounded_by_the_budget(self, tmp_path, cold_config_memo):
        # A kept dense config with a diagonal sigma_v stores 2 dim^2 floats of
        # operators, and its model holds 5 dim^2: A, sigma_u, the
        # pseudoinverse and the SVD factors U and Vt.  Loading forms no
        # projector.
        # Loading more configs than fit retains the models the budget keeps,
        # three times the budget at most, with 16 KiB per model for vectors
        # and objects; never the text, which is larger than that allowance.
        dim = 64
        stored = 2 * dim**2 * 8 + dim * 8
        fit = specs.CONFIG_MEMO_BYTES // stored
        paths = [
            _write(tmp_path / f"c{i}.json", _dense_doc(dim, 100 + i)) for i in range(fit + 3)
        ]
        text_bytes = len(paths[0].read_bytes())
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
        assert retained <= fit * (5 * dim**2 * 8 + allowance)
        assert retained <= 3 * specs.CONFIG_MEMO_BYTES + fit * allowance
        assert allowance < text_bytes


class TestSmootherMemo:
    def test_a_model_has_one_smoother(self, tmp_path, cold_config_memo):
        model = load_config(_write(tmp_path / "c.json", _commuting_doc(6, 50))).model
        bhat = optimal_b(model)
        assert optimal_b(model) is bhat
        assert not bhat.stored.flags.writeable

    @pytest.mark.parametrize("doc", ["commuting", "diagonal_frame_core"])
    def test_requests_on_a_kept_config_repeat_no_work(
        self, tmp_path, calls, products, cold_config_memo, doc
    ):
        dim = 16
        doc = _commuting_doc(dim, 51) if doc == "commuting" else _diagonal_frame_doc(dim, 51)
        path = _write(tmp_path / "c.json", doc)
        (tmp_path / "x.csv").write_text(
            "".join(f"{v!r}\n" for v in np.random.default_rng(52).standard_normal(dim).tolist())
        )
        argv = ["--config", str(path), "--input", str(tmp_path / "x.csv")]
        outs = []
        for run in range(2):
            for command in ("optimal-b", "filter"):
                out = tmp_path / f"{command}-{run}"
                args = argv[:2] if command == "optimal-b" else argv
                assert main([command, *args, "--out", str(out)]) == 0
                outs.append(out)
            if run == 0:
                # The smoother's product and the positivity verdict.
                assert products and calls["eigvalsh"]
                for count in calls:
                    calls[count] = 0
                products.clear()
        # The second pass reuses the smoother and its positivity verdict.
        assert calls == {"eigh": 0, "eigvalsh": 0, "svd": 0}
        assert products == []
        for first, second in zip(outs[:2], outs[2:]):
            for name in sorted(p.name for p in first.iterdir()):
                assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_a_replaced_model_gets_its_own_smoother(self, tmp_path, cold_config_memo):
        dim = 8
        model = load_config(_write(tmp_path / "c.json", _commuting_doc(dim, 53))).model
        bhat = optimal_b(model)
        # The model with other covariances, made with ``replace``.
        su = dense_operator(2.0 * model.sigma_u.as_matrix())
        other = optimal_b(replace(model, sigma_u=su))
        assert other is not bhat
        assert not np.array_equal(other.stored, bhat.stored)
        # As ``scale`` does: index 0 is the model's own smoother, index 1 the
        # smoother of its rescaled frame cores, which is not kept.
        assert scales.scaled_optimal_b(model, 0) is bhat
        rescaled = scales.scaled_optimal_b(model, 1)
        assert rescaled is not bhat and scales.scaled_optimal_b(model, 1) is not rescaled
        assert not np.array_equal(rescaled.stored, bhat.stored)
        # As ``filter --estimate-y0`` does: the model with a new y0, which
        # the smoother does not read, so it shares the model's.
        x = CoeffVector(np.random.default_rng(54).standard_normal(dim))
        y0 = apply(model.pinv_bundle.projector_complement, x)
        estimated = optimal_b(model.with_y0(y0, x.norm()))
        assert estimated is bhat
        assert optimal_b(model) is bhat

    def test_a_failing_model_is_not_kept(self, tmp_path, cold_config_memo, calls):
        # sigma_v vanishes on the range of A: the smoother is refused, and
        # refused again by the same work, as nothing was kept.
        doc = _commuting_doc(4, 55)
        doc["sigma_v"] = {"kind": "dense", "rows": np.zeros((4, 4)).tolist()}
        model = load_config(_write(tmp_path / "c.json", doc)).model
        counts = []
        for _ in range(2):
            before = dict(calls)
            with pytest.raises(smoothing.SingularCovarianceError):
                optimal_b(model)
            counts.append({k: calls[k] - before[k] for k in calls})
        assert counts[0] == counts[1] and counts[0]["eigh"] == 1

    def test_a_smoother_goes_with_its_model(self):
        model = gaussian.GaussianModel.build(
            dense_operator(np.eye(3) * 2.0),
            dense_operator(np.eye(3)),
            dense_operator(np.eye(3)),
        )
        bhat = optimal_b(model)
        assert optimal_b(model) is bhat
        kept = len(smoothing._SMOOTHERS)
        del model
        gc.collect()
        assert len(smoothing._SMOOTHERS) == kept - 1


def _series(path, dim, seed):
    values = np.random.default_rng(seed).standard_normal(dim).tolist()
    path.write_text("".join(f"{v!r}\n" for v in values))
    return path


def _diagonal_doc(dim):
    return {
        "operator": {"kind": "diagonal", "multipliers": list(map(float, range(dim)))},
        "sigma_u": {"kind": "diagonal", "values": np.linspace(0.5, 2.0, dim).tolist()},
        "sigma_v": {"kind": "diagonal", "values": np.linspace(1.5, 0.25, dim).tolist()},
        "truncation_dim": dim,
    }


@pytest.fixture
def renders(monkeypatch):
    """Operators the CLI renders as ``operator_to_json`` documents."""
    rendered = []

    def to_json(op):
        rendered.append(op)
        return operator_to_json(op)

    monkeypatch.setattr(cli, "operator_to_json", to_json)
    return rendered


class TestTextMemo:
    def test_a_kept_smoother_is_rendered_once(
        self, tmp_path, renders, cold_config_memo
    ):
        dim = 16
        path = _write(tmp_path / "c.json", _commuting_doc(dim, 60))
        series = _series(tmp_path / "x.csv", dim, 61)
        requests = [
            ["optimal-b", "--config", str(path)],
            ["filter", "--config", str(path), "--input", str(series)],
        ]
        outs = []
        for run in ("first", "kept", "cold"):
            if run == "cold":
                # Both documents hold B-hat at one indent: one text for the
                # kept smoother, and one more for a smoother built anew.
                assert len(renders) == 1
                cold_config_memo()
            for argv in requests:
                out = tmp_path / f"{argv[0]}-{run}"
                assert main([*argv, "--out", str(out)]) == 0
                outs.append(out)
        assert len(renders) == 2 and renders[0] is not renders[1]
        for first, second in zip(outs[:2] * 2, outs[2:]):
            for name in sorted(p.name for p in first.iterdir()):
                assert (first / name).read_bytes() == (second / name).read_bytes()
        # The text is json.dumps's for the smoother's operator_to_json document.
        bhat = optimal_b(load_config(path).model)
        doc = json.loads((outs[-2] / "bhat.json").read_text())
        doc["bhat"] = operator_to_json(bhat)
        expected = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        assert (outs[-2] / "bhat.json").read_text() == expected

    def test_a_diagonal_smoother_writes_the_bytes_of_its_document(
        self, tmp_path, cold_config_memo
    ):
        dim = 6
        path = _write(tmp_path / "c.json", _diagonal_doc(dim))
        series = _series(tmp_path / "x.csv", dim, 62)
        out = tmp_path / "out"
        assert main(["optimal-b", "--config", str(path), "--out", str(out)]) == 0
        assert main(["filter", "--config", str(path), "--input", str(series),
                     "--out", str(out)]) == 0
        bhat = optimal_b(load_config(path).model)
        assert bhat.is_diagonal
        for name in ("bhat.json", "filter_summary.json"):
            doc = json.loads((out / name).read_text())
            assert doc["bhat"]["kind"] == "diagonal"
            doc["bhat"] = operator_to_json(bhat)
            text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
            assert (out / name).read_text() == text

    def test_an_operator_has_one_text_per_indent(self, renders, cold_config_memo):
        op = dense_operator(np.arange(6.0).reshape(2, 3) / 7.0)
        plain = operator_to_json(op)
        cases = (({"b": op}, {"b": plain}), ({"a": [op]}, {"a": [plain]}))
        for _ in range(2):
            for doc, plain_doc in cases:
                text = json.dumps(plain_doc, indent=2, sort_keys=True)
                assert cli._json_text(doc) == text
        assert renders == [op, op]
        assert sorted(cli._OPERATOR_TEXTS[op]) == ["  ", "    "]

    def test_a_text_goes_with_its_operator(self):
        op = dense_operator(np.eye(3) * 2.0)
        cli._json_text({"bhat": op})
        assert op in cli._OPERATOR_TEXTS
        kept = len(cli._OPERATOR_TEXTS)
        del op
        gc.collect()
        assert len(cli._OPERATOR_TEXTS) == kept - 1

    def test_an_estimated_y0_request_repeats_no_work(
        self, tmp_path, calls, products, cold_config_memo
    ):
        dim = 16
        path = _write(tmp_path / "c.json", _commuting_doc(dim, 63))
        series = _series(tmp_path / "x.csv", dim, 64)
        argv = ["filter", "--config", str(path), "--input", str(series),
                "--estimate-y0"]
        outs = []
        for run in range(2):
            outs.append(tmp_path / f"out-{run}")
            assert main([*argv, "--out", str(outs[-1])]) == 0
            if run == 0:
                # The smoother's inverse of sigma_v and the positivity verdict.
                assert products and calls["eigh"] and calls["eigvalsh"]
                for count in calls:
                    calls[count] = 0
                products.clear()
        # The with_y0 model shares the kept model's smoother and its verdict.
        assert calls == {"eigh": 0, "eigvalsh": 0, "svd": 0}
        assert products == []
        for name in ("filter_summary.json", "residual.csv", "trend.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def _rank_deficient(kind):
    """A rank-2 operator on R^4 with a null vector, as ``kind`` storage."""
    if kind == "diagonal":
        return diagonal_operator([3.0, 0.0, 0.5, 0.0]), np.array([0.0, 1.0, 0.0, 0.0])
    rng = np.random.default_rng(70)
    left = rng.standard_normal((4, 2))
    right = rng.standard_normal((2, 4))
    mat = left @ right
    null = np.linalg.svd(mat)[2][-1]
    return dense_operator(mat), null


def _model(kind, y0=None):
    a, _ = _rank_deficient(kind)
    if kind == "diagonal":
        make = diagonal_operator
    else:
        def make(values):
            return dense_operator(np.diag(values))
    return gaussian.GaussianModel.build(
        a, make([1.0, 2.0, 0.5, 1.5]), make([0.5, 1.0, 2.0, 1.0]), y0
    )


@pytest.mark.parametrize("kind", ["diagonal", "dense"])
class TestLazyProjector:
    def test_build_forms_no_projector(self, kind):
        bundle = _model(kind).pinv_bundle
        for name in ("projector_pi", "projector_complement", "range_projector"):
            assert name not in bundle.__dict__

    def test_the_projector_is_formed_once_from_the_factors(self, kind):
        a, _ = _rank_deficient(kind)
        bundle = operators.pinv(a)
        pi = bundle.projector_pi
        assert bundle.projector_pi is pi and not pi.stored.flags.writeable
        if kind == "diagonal":
            keep = np.abs(a.stored) > bundle.sv_threshold
            expected = keep.astype(float)
        else:
            vt = np.linalg.svd(a.stored, full_matrices=True)[2][: bundle.numerical_rank]
            expected = vt.T @ vt
        assert bundle.numerical_rank == 2
        assert pi.stored.tobytes() == expected.tobytes()

    def test_y0_with_range_mass_is_refused(self, kind):
        null = _rank_deficient(kind)[1]
        model = _model(kind, CoeffVector(null))
        assert "projector_pi" not in model.pinv_bundle.__dict__
        # A millionth of a unit vector in the range of A*.
        bundle = model.pinv_bundle
        range_vector = np.eye(4)[0] if bundle.svd is None else bundle.svd[2][0]
        off = CoeffVector(null + 1e-6 * range_vector)
        with pytest.raises(gaussian.ModelError, match="null space"):
            _model(kind, off)
        with pytest.raises(gaussian.ModelError, match="null space"):
            model.with_y0(off)
        assert model.with_y0(CoeffVector(2.0 * null)).y0.norm() > 0.0
