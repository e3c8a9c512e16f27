"""JSON document parsing and run-configuration handling."""

import json

import numpy as np
import pytest

from ophp.specs import (
    RunConfig,
    SpecError,
    load_config,
    operator_to_json,
    parse_config,
    parse_covariance,
    parse_operator,
)


class TestOperatorSpecs:
    def test_diagonal(self):
        op = parse_operator({"kind": "diagonal", "multipliers": [0, 2, 3]})
        assert op.is_diagonal
        np.testing.assert_array_equal(op.stored, [0.0, 2.0, 3.0])

    def test_dense(self):
        op = parse_operator({"kind": "dense", "rows": [[1, 2], [3, 4]]})
        np.testing.assert_array_equal(op.stored, [[1.0, 2.0], [3.0, 4.0]])

    def test_kernel(self):
        op = parse_operator(
            {"kind": "kernel", "name": "dirichlet_green", "grid_points": 64}, dim=4
        )
        assert not op.is_diagonal
        assert op.dim_in == 4

    def test_kernel_needs_dim(self):
        with pytest.raises(SpecError):
            parse_operator({"kind": "kernel", "name": "dirichlet_green"})

    def test_unknown_kind(self):
        with pytest.raises(SpecError):
            parse_operator({"kind": "sparse"})

    def test_dim_mismatch(self):
        with pytest.raises(SpecError):
            parse_operator({"kind": "diagonal", "multipliers": [1, 2]}, dim=3)

    def test_declarations_that_agree_with_the_kind_are_kept(self):
        kernel = parse_operator(
            {
                "kind": "kernel",
                "name": "dirichlet_green",
                "grid_points": 64,
                "basis": "sine-dirichlet",
                "codomain_basis": "sine-dirichlet",
            },
            dim=4,
        )
        assert kernel.domain_basis == kernel.codomain_basis == "sine-dirichlet"
        diag = parse_operator(
            {
                "kind": "diagonal",
                "multipliers": [1, 2],
                "basis": "sine-dirichlet",
                "codomain_basis": "sine-dirichlet",
            }
        )
        assert diag.domain_basis == diag.codomain_basis == "sine-dirichlet"

    def test_round_trip(self):
        doc = {"kind": "diagonal", "multipliers": [0.0, 2.0], "basis": "abstract-euclidean"}
        assert operator_to_json(parse_operator(doc)) == doc

    def test_stored_values_serialize_like_per_entry_floats(self):
        tiny = np.nextafter(0.0, 1.0)
        values = [-0.0, tiny, -5e-320, 1.7976931348623157e308, -1e308, 0.1]
        dense = parse_operator({"kind": "dense", "rows": [values, values[::-1]]})
        diag = parse_operator({"kind": "diagonal", "multipliers": values})
        # The per-entry comprehensions the documents were built with before.
        old_rows = [[float(v) for v in row] for row in dense.stored]
        old_mult = [float(v) for v in diag.stored]
        new_rows = operator_to_json(dense)["rows"]
        new_mult = operator_to_json(diag)["multipliers"]
        assert json.dumps(new_rows) == json.dumps(old_rows)
        assert json.dumps(new_mult) == json.dumps(old_mult)
        assert all(type(v) is float for row in new_rows for v in row)
        assert all(type(v) is float for v in new_mult)


class TestCovarianceSpecs:
    def test_diagonal_values(self):
        op, decay = parse_covariance(
            {"kind": "diagonal", "values": [1, 2]}, 2, "abstract-euclidean"
        )
        np.testing.assert_array_equal(op.stored, [1.0, 2.0])
        assert decay is None

    def test_power_decay(self):
        op, decay = parse_covariance(
            {"kind": "power_decay", "scale": 2.0, "exponent": 2.0},
            4,
            "abstract-euclidean",
        )
        n = np.arange(1, 5, dtype=float)
        np.testing.assert_allclose(op.stored, 2.0 * n**-2.0)
        assert decay == 2.0

    def test_length_checked(self):
        with pytest.raises(SpecError):
            parse_covariance({"kind": "diagonal", "values": [1]}, 2, "abstract-euclidean")


def _config(**fields):
    doc = {
        "operator": {"kind": "diagonal", "multipliers": [0, 2, 3]},
        "sigma_u": {"kind": "diagonal", "values": [1, 1, 1]},
        "sigma_v": {"kind": "diagonal", "values": [1, 1, 1]},
        "truncation_dim": 3,
        "seed": 7,
    }
    doc.update(fields)
    return doc


class TestScaleSpec:
    def test_full_document(self):
        cfg = parse_config(_config(scale={
            "n": 1, "kappa_decay": 2.0, "sigma_u_decay": 0.0, "sigma_v_decay": 0.0
        }))
        assert cfg.scale_n == 1
        assert cfg.decay.kappa_decay == 2.0

    def test_partial_document(self):
        cfg = parse_config(_config(scale={"n": 2}))
        assert cfg.scale_n == 2 and cfg.decay is None

    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), True, "2"], ids=["nan", "inf", "bool", "str"]
    )
    def test_malformed_decay_exponent_rejected(self, value):
        doc = {"n": 1, "kappa_decay": value, "sigma_u_decay": 0.0, "sigma_v_decay": 0.0}
        with pytest.raises(SpecError, match="kappa_decay"):
            parse_config(_config(scale=doc))

    def test_lone_decay_exponent_checked(self):
        # Checked although the other two exponents are absent.
        with pytest.raises(SpecError, match="sigma_v_decay"):
            parse_config(_config(scale={"sigma_v_decay": "2"}))


class TestRunConfig:
    def test_parse_and_build(self):
        cfg = parse_config(_config())
        assert isinstance(cfg, RunConfig)
        assert cfg.model.dim == 3
        assert cfg.decay is None

    def test_truncation_floor(self):
        doc = _config()
        doc["truncation_dim"] = 1
        with pytest.raises(SpecError):
            parse_config(doc)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("seed", "x"),
            ("seed", 2.7),
            ("seed", True),
            ("seed", -1),
            ("truncation_dim", 4.5),
            ("truncation_dim", "3"),
            ("scale", {"n": -1}),
            ("scale", {"n": False}),
            ("scale", [1, 2]),
        ],
    )
    def test_malformed_integer_fields_rejected(self, key, value):
        doc = _config()
        doc[key] = value
        with pytest.raises(SpecError, match=key):
            parse_config(doc)

    def test_integral_floats_accepted(self):
        doc = _config()
        doc.update(seed=7.0, truncation_dim=3.0, scale={"n": 2.0})
        cfg = parse_config(doc)
        assert (cfg.seed, cfg.model.dim, cfg.scale_n) == (7, 3, 2)
        assert all(type(v) is int for v in (cfg.seed, cfg.scale_n))

    @pytest.mark.parametrize(
        "key, value", [("scale_n", 1), ("extras", {"draws": 10, "gap_count": 2})]
    )
    def test_retired_keys_rejected(self, key, value):
        # Well-formed values too: a key no longer read must not be ignored.
        doc = _config()
        doc[key] = value
        with pytest.raises(SpecError, match=f"^{key} is no longer read"):
            parse_config(doc)

    @pytest.mark.parametrize(
        "key, spec",
        [
            ("operator", {"kind": "diagonal", "multipliers": {"a": 1}}),
            ("sigma_u", {"kind": "dense", "rows": [[1, 0], [0]]}),
            ("y0", {"a": 1}),
        ],
    )
    def test_non_numeric_values_rejected(self, key, spec):
        doc = _config()
        doc[key] = spec
        with pytest.raises(SpecError, match="must be numbers"):
            parse_config(doc)

    def test_missing_sections(self):
        with pytest.raises(SpecError):
            parse_config({"operator": {"kind": "diagonal", "multipliers": [1, 2]}})

    def test_paths_resolve_against_config_dir(self, tmp_path):
        doc = _config()
        doc["input_path"] = "x.csv"
        cfg_path = tmp_path / "cfg" / "config.json"
        cfg_path.parent.mkdir()
        cfg_path.write_text(json.dumps(doc))
        cfg = load_config(cfg_path)
        assert cfg.input_path == tmp_path / "cfg" / "x.csv"

    def test_decay_filled_from_power_specs(self):
        doc = _config()
        doc["sigma_u"] = {"kind": "power_decay", "scale": 1.0, "exponent": 2.0}
        doc["sigma_v"] = {"kind": "power_decay", "scale": 1.0, "exponent": 3.0}
        doc["scale"] = {"n": 1, "kappa_decay": 2.0}
        decay = parse_config(doc).decay
        assert decay is not None
        assert decay.sigma_u_decay == 2.0
        assert decay.sigma_v_decay == 3.0

    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), True, "2"], ids=["nan", "inf", "bool", "str"]
    )
    def test_malformed_decay_exponent_rejected_by_build(self, value):
        doc = _config()
        doc["sigma_v"] = {"kind": "power_decay", "scale": 1.0, "exponent": 3.0}
        doc["scale"] = {"kappa_decay": 2.0, "sigma_u_decay": value}
        with pytest.raises(SpecError, match="sigma_u_decay"):
            parse_config(doc)

    def test_unreadable_config(self, tmp_path):
        with pytest.raises(SpecError):
            load_config(tmp_path / "missing.json")

    def test_non_utf8_config(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_bytes(b"\xff\xfe")
        with pytest.raises(SpecError, match="cannot read configuration"):
            load_config(path)

    def test_rejected_model_is_a_spec_error(self):
        # A negative variance: the model build refuses the covariance.
        doc = _config(sigma_u={"kind": "diagonal", "values": [1, -1, 1]})
        with pytest.raises(SpecError, match="sigma_u has an eigenvalue below"):
            parse_config(doc)
