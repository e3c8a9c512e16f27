"""Command-line interface: files, round trips, determinism, exit codes."""

import argparse
import dataclasses
import json
import os
import re
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest

from ophp import cli, validate
from ophp.cli import main, project_series, read_series_csv
from ophp.gaussian import (
    DecayDeclaration,
    GaussianModel,
    sample_joint_blocks,
)
from ophp.instances import laplacian_multipliers, ramp_multipliers, seeded_sigmas
from ophp.operators import BASIS_SINE, CoeffVector, apply
from ophp.specs import load_config, parse_config

import oracles
from oracles import laplacian_filter_multipliers, sample_joint


# The commands that read a run configuration.
CONFIG_COMMANDS = ["filter", "optimal-b", "simulate", "validate", "scale"]


def _run(*argv):
    return main([str(a) for a in argv])


def _write_config(path, doc):
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture
def ramp_config(tmp_path):
    dim = 5
    doc = {
        "operator": {
            "kind": "diagonal",
            "multipliers": [0.0] + [float(j) for j in range(2, dim + 1)],
        },
        "sigma_u": {"kind": "diagonal", "values": [1.0] * dim},
        "sigma_v": {"kind": "diagonal", "values": [1.0] * dim},
        "truncation_dim": dim,
        "seed": 11,
    }
    return _write_config(tmp_path / "config.json", doc), dim


class TestExampleRoundTrip:
    @pytest.mark.parametrize("which", ["1", "2"])
    def test_golden_multipliers_reproduced(self, tmp_path, which):
        ex = tmp_path / "ex"
        assert _run("example", "--which", which, "--dim", 8, "--seed", 3, "--out", ex) == 0
        produced = sorted(os.listdir(ex))
        assert produced == [
            "config.json",
            "expected.json",
            "operator.json",
            "sigma_u.json",
            "sigma_v.json",
            "x.csv",
        ]
        out = tmp_path / "run"
        assert _run("filter", "--config", ex / "config.json", "--out", out) == 0
        summary = json.loads((out / "filter_summary.json").read_text())
        expected = json.loads((ex / "expected.json").read_text())
        np.testing.assert_allclose(
            summary["filter_multipliers"], expected["filter_multipliers"], atol=1e-10
        )
        np.testing.assert_allclose(
            summary["bhat"]["multipliers"], expected["bhat_multipliers"], atol=1e-10
        )
        if which == "1":
            # Trend values are the componentwise multipliers applied to x.
            _, x_values = read_series_csv(ex / "x.csv")
            _, trend = read_series_csv(out / "trend.csv")
            np.testing.assert_allclose(
                trend, np.array(expected["filter_multipliers"]) * x_values, atol=1e-10
            )

    def test_white_constants_respected(self, tmp_path):
        ex = tmp_path / "ex"
        assert (
            _run(
                "example", "--which", "1", "--dim", 8, "--seed", 0, "--out", ex,
                "--sigma-u", "1.0", "--sigma-v", "1.0",
            )
            == 0
        )
        expected = json.loads((ex / "expected.json").read_text())
        assert expected["bhat_multipliers"] == [0.0] + [1.0] * 7
        golden = [1.0] + [1.0 / (j**2 + 1.0) for j in range(2, 9)]
        np.testing.assert_allclose(expected["filter_multipliers"], golden)

    def test_unit_ratio_laplacian_example(self, tmp_path):
        ex = tmp_path / "ex"
        assert (
            _run(
                "example", "--which", "2", "--dim", 4, "--seed", 0, "--out", ex,
                "--sigma-u", "1.0", "--sigma-v", "1.0",
            )
            == 0
        )
        expected = json.loads((ex / "expected.json").read_text())
        golden = [1.0 / (1.0 + n**4 * np.pi**4) for n in range(1, 5)]
        np.testing.assert_allclose(expected["filter_multipliers"], golden, atol=1e-12)

    def test_byte_identical_outputs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert _run("example", "--which", "2", "--dim", 6, "--seed", 9, "--out", out) == 0
        for name in os.listdir(a):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_deterministic_filter_outputs(self, tmp_path):
        ex = tmp_path / "ex"
        _run("example", "--which", "1", "--dim", 6, "--seed", 4, "--out", ex)
        r1, r2 = tmp_path / "r1", tmp_path / "r2"
        for out in (r1, r2):
            assert _run("filter", "--config", ex / "config.json", "--out", out) == 0
        for name in os.listdir(r1):
            assert (r1 / name).read_bytes() == (r2 / name).read_bytes()


class TestFilterCommand:
    def test_zero_series_gives_zero_trend_and_residual(self, ramp_config, tmp_path):
        cfg_path, dim = ramp_config
        series = tmp_path / "zeros.csv"
        series.write_text("\n".join("0.0" for _ in range(dim)) + "\n")
        out = tmp_path / "out"
        assert _run("filter", "--config", cfg_path, "--input", series, "--out", out) == 0
        for name in ("trend.csv", "residual.csv"):
            _, values = read_series_csv(out / name)
            np.testing.assert_array_equal(values, np.zeros(dim))

    def test_single_sine_mode_closed_form(self, tmp_path):
        # Trend of e_2 is (1 + 16 pi^4 su_2/sv_2)^(-1) e_2.
        dim = 4
        su = [1.3, 0.9, 1.1, 0.7]
        sv = [0.8, 1.4, 1.0, 1.2]
        doc = {
            "operator": {
                "kind": "diagonal",
                "multipliers": [float((n * np.pi) ** 2) for n in range(1, dim + 1)],
                "basis": BASIS_SINE,
            },
            "sigma_u": {"kind": "diagonal", "values": su},
            "sigma_v": {"kind": "diagonal", "values": sv},
            "truncation_dim": dim,
            "seed": 0,
        }
        cfg = _write_config(tmp_path / "config.json", doc)
        grid = np.linspace(0.0, 1.0, 129)
        samples = np.sqrt(2.0) * np.sin(2 * np.pi * grid)
        series = tmp_path / "e2.csv"
        series.write_text(
            "index,t,value\n"
            + "\n".join(
                f"{i},{float(t)!r},{float(v)!r}"
                for i, (t, v) in enumerate(zip(grid, samples))
            )
            + "\n"
        )
        out = tmp_path / "out"
        assert _run("filter", "--config", cfg, "--input", series, "--out", out) == 0
        summary = json.loads((out / "filter_summary.json").read_text())
        mult = laplacian_filter_multipliers(np.array(su), np.array(sv), dim)
        _, trend = read_series_csv(out / "trend.csv")
        np.testing.assert_allclose(trend, mult[1] * samples, atol=1e-9)
        assert summary["filter_multipliers"][1] == pytest.approx(
            1.0 / (1.0 + 16 * np.pi**4 * su[1] / sv[1])
        )

    def test_kernel_operator_config(self, tmp_path):
        # The integral-kernel operator drives the dense solve path end to end.
        dim = 4
        doc = {
            "operator": {"kind": "kernel", "name": "dirichlet_green", "grid_points": 128},
            "sigma_u": {"kind": "diagonal", "values": [1.0] * dim},
            "sigma_v": {"kind": "diagonal", "values": [1.0] * dim},
            "truncation_dim": dim,
            "seed": 1,
        }
        cfg = _write_config(tmp_path / "config.json", doc)
        grid = np.linspace(0.0, 1.0, 65)
        samples = np.sqrt(2.0) * np.sin(np.pi * grid)
        series = tmp_path / "x.csv"
        series.write_text(
            "\n".join(f"{float(t)!r},{float(v)!r}" for t, v in zip(grid, samples))
            + "\n"
        )
        out = tmp_path / "out"
        assert _run("filter", "--config", cfg, "--input", series, "--out", out) == 0
        summary = json.loads((out / "filter_summary.json").read_text())
        assert summary["filter_multipliers"] is None  # kernel models are dense
        # The Green operator has eigenvalue 1/pi^2 on the first mode, so the
        # trend multiplier there is 1/(1 + pi^-4) up to quadrature error.
        _, trend = read_series_csv(out / "trend.csv")
        expected = samples / (1.0 + np.pi**-4.0)
        np.testing.assert_allclose(trend, expected, atol=5e-4)

    def test_kernel_requests_twice_in_one_process(
        self, tmp_path, calls, cold_kernel_memo
    ):
        # The second request of each command reads the operator, and its SVD,
        # that the first built, and writes the same bytes.
        dim = 16
        doc = {
            "operator": {"kind": "kernel", "name": "dirichlet_green", "grid_points": 64},
            "sigma_u": {"kind": "diagonal", "values": seeded_sigmas(dim, 4)[0].tolist()},
            "sigma_v": {"kind": "diagonal", "values": [1.0] * dim},
            "truncation_dim": dim,
            "seed": 1,
            "input_path": "x.csv",
            "scale": {"n": 0, "kappa_decay": 4.0, "sigma_u_decay": 0.0,
                      "sigma_v_decay": 0.0},
        }
        cfg = _write_config(tmp_path / "config.json", doc)
        grid = np.linspace(0.0, 1.0, 65)
        samples = np.random.default_rng(3).standard_normal(grid.shape[0])
        (tmp_path / "x.csv").write_text(
            "".join(f"{float(t)!r},{float(v)!r}\n" for t, v in zip(grid, samples))
        )
        written = {}
        for run in ("first", "second"):
            for command in ("filter", "optimal-b", "scale"):
                out = tmp_path / run / command
                assert _run(command, "--config", cfg, "--out", out) == 0
                written[run, command] = {
                    f.name: f.read_bytes() for f in sorted(out.iterdir())
                }
        assert calls["svd"] == 1
        for command in ("filter", "optimal-b", "scale"):
            assert written["first", command] == written["second", command]

    def test_dimension_overflow_rejected(self, ramp_config, tmp_path):
        cfg_path, dim = ramp_config
        series = tmp_path / "short.csv"
        series.write_text("1.0\n2.0\n")
        assert _run("filter", "--config", cfg_path, "--input", series) == 1

    def test_unparseable_series_rejected(self, ramp_config, tmp_path):
        cfg_path, _ = ramp_config
        series = tmp_path / "bad.csv"
        series.write_text("value\n1.0\nnot-a-number\n")
        assert _run("filter", "--config", cfg_path, "--input", series) == 1

    def test_series_of_two_row_widths_rejected(self, ramp_config, tmp_path, capsys):
        # It was read as the two points (0.1, 1) and (0.2, 2).
        cfg_path, _ = ramp_config
        series = tmp_path / "x.csv"
        series.write_text("0,0.1,1\n0.2,2\n")
        assert _run("filter", "--config", cfg_path, "--input", series) == 1
        assert capsys.readouterr().err == f"error: input series {series} mixes row formats\n"

    def test_non_finite_index_rejected(self, ramp_config, tmp_path, capsys):
        # It was checked numeric only, and read without a message.
        cfg_path, _ = ramp_config
        series = tmp_path / "x.csv"
        series.write_text("index,t,value\nnan,0.5,1\n")
        assert _run("filter", "--config", cfg_path, "--input", series) == 1
        assert capsys.readouterr().err == f"error: input series {series} has non-finite values\n"

    def test_header_after_blank_lines(self, ramp_config, tmp_path):
        # It was refused as a non-numeric line.
        cfg_path, dim = ramp_config
        rows = "".join(f"{j},{j}.0,{0.5 * j!r}\n" for j in range(dim))
        outs = []
        for name, text in (("plain", "index,t,value\n" + rows),
                           ("blank", "\n  \nindex,t,value\n" + rows)):
            series = tmp_path / f"{name}.csv"
            series.write_text(text)
            outs.append(tmp_path / name)
            assert _run("filter", "--config", cfg_path, "--input", series,
                        "--out", outs[-1]) == 0
        for name in ("trend.csv", "residual.csv", "filter_summary.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_missing_input_rejected(self, ramp_config):
        cfg_path, _ = ramp_config
        assert _run("filter", "--config", cfg_path) == 1

    def test_unsorted_functional_series_gives_sorted_outputs(self, tmp_path):
        ex = tmp_path / "ex"
        argv = ["--which", 2, "--dim", 8, "--seed", 3, "--grid-points", 33]
        assert _run("example", *argv, "--out", ex) == 0
        header, *rows = (ex / "x.csv").read_text().splitlines()
        order = np.random.default_rng(0).permutation(len(rows))
        shuffled = tmp_path / "shuffled.csv"
        shuffled.write_text("\n".join([header, *(rows[i] for i in order)]) + "\n")
        cfg = ex / "config.json"
        assert _run("filter", "--config", cfg, "--out", tmp_path / "sorted") == 0
        assert (
            _run("filter", "--config", cfg, "--input", shuffled, "--out", tmp_path / "shuf")
            == 0
        )
        for name in ("trend.csv", "residual.csv", "filter_summary.json"):
            assert (tmp_path / "shuf" / name).read_bytes() == (
                tmp_path / "sorted" / name
            ).read_bytes()
        # The residual is the data minus the trend at each written node.
        _, x = read_series_csv(ex / "x.csv")
        _, trend = read_series_csv(tmp_path / "shuf" / "trend.csv")
        _, residual = read_series_csv(tmp_path / "shuf" / "residual.csv")
        np.testing.assert_array_equal(residual, x - trend)

    def test_estimate_y0_flag(self, ramp_config, tmp_path):
        cfg_path, dim = ramp_config
        series = tmp_path / "x.csv"
        series.write_text("\n".join(str(float(v)) for v in range(1, dim + 1)) + "\n")
        out = tmp_path / "out"
        assert (
            _run("filter", "--config", cfg_path, "--input", series, "--out", out,
                 "--estimate-y0") == 0
        )
        summary = json.loads((out / "filter_summary.json").read_text())
        assert summary["estimated_y0"] is True

    def test_estimate_y0_of_a_series_in_the_range_is_zero(self, tmp_path):
        # The null-space part of a series in the range of A is rounding of
        # the series' size, so y0 is checked against |x|, not |y0|.
        dim = 64
        rng = np.random.default_rng(17)
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        a = (q * ramp_multipliers(dim)) @ q.T
        x = a @ (1e6 * rng.standard_normal(dim))
        (tmp_path / "x.csv").write_text("\n".join(repr(float(v)) for v in x) + "\n")
        eye = {"kind": "diagonal", "values": [1.0] * dim}
        cfg = _write_config(tmp_path / "config.json", {
            "operator": {"kind": "dense", "rows": a.tolist()},
            "sigma_u": eye, "sigma_v": eye, "truncation_dim": dim,
            "input_path": "x.csv",
        })
        assert _run("filter", "--config", cfg, "--out", tmp_path / "plain") == 0
        assert _run("filter", "--config", cfg, "--out", tmp_path / "est", "--estimate-y0") == 0
        _, plain = read_series_csv(tmp_path / "plain" / "trend.csv")
        _, est = read_series_csv(tmp_path / "est" / "trend.csv")
        np.testing.assert_allclose(est, plain, rtol=0, atol=1e-12 * np.abs(x).max())
        model = load_config(cfg).model
        xv = CoeffVector(x)
        y0 = apply(model.pinv_bundle.projector_complement, xv)
        assert model.with_y0(y0, xv.norm()).y0.norm() < 1e-12 * xv.norm()

    def test_estimate_y0_reuses_the_first_factorization(
        self, tmp_path, monkeypatch, cold_config_memo
    ):
        cfg = TestValidateCommand._dense_64_config(tmp_path / "dense.json")
        series = tmp_path / "x.csv"
        values = np.random.default_rng(8).standard_normal(64)
        series.write_text("\n".join(repr(float(v)) for v in values) + "\n")
        svds = []
        original = np.linalg.svd

        def counted(*args, **kwargs):
            svds.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        argv = ["filter", "--config", cfg, "--input", series, "--estimate-y0"]
        assert _run(*argv, "--out", tmp_path / "reused") == 0
        assert len(svds) == 1
        # Building a second model for the estimated y0 writes the same bytes.
        # It is built on a fresh copy of the operator, which has not kept the
        # SVD of the first, so it factorizes again.  The config is built anew
        # too, not read from the memo, so its own model factorizes once.
        cold_config_memo()
        monkeypatch.setattr(
            GaussianModel,
            "with_y0",
            lambda m, y0, scale: GaussianModel.build(
                dataclasses.replace(m.a), m.sigma_u, m.sigma_v, y0=y0
            ),
        )
        assert _run(*argv, "--out", tmp_path / "rebuilt") == 0
        assert len(svds) == 3
        for name in ("trend.csv", "residual.csv", "filter_summary.json"):
            assert (tmp_path / "reused" / name).read_bytes() == (
                tmp_path / "rebuilt" / name
            ).read_bytes()

    def test_functional_filter_evaluates_the_sine_basis_once(self, tmp_path, monkeypatch):
        ex = tmp_path / "ex"
        argv = ["--which", 2, "--dim", 16, "--seed", 5, "--grid-points", 129]
        assert _run("example", *argv, "--out", ex) == 0
        evaluations = []
        original = cli.sine_basis_matrix

        def counted(nodes, dim):
            evaluations.append(dim)
            return original(nodes, dim)

        monkeypatch.setattr(cli, "sine_basis_matrix", counted)
        cfg = ex / "config.json"
        assert _run("filter", "--config", cfg, "--out", tmp_path / "once") == 0
        assert evaluations == [16]
        # Synthesizing the trend from a second evaluation of the basis writes
        # the same bytes.
        monkeypatch.setattr(
            cli,
            "synthesize_series",
            lambda x, t, *_: oracles.synthesize_series(x.coeffs, t),
        )
        assert _run("filter", "--config", cfg, "--out", tmp_path / "twice") == 0
        for name in ("trend.csv", "residual.csv"):
            assert (tmp_path / "once" / name).read_bytes() == (
                tmp_path / "twice" / name
            ).read_bytes()


class TestValidateCommand:
    def test_passing_instance_exits_zero(self, tmp_path):
        ex = tmp_path / "ex"
        _run("example", "--which", "1", "--dim", 4, "--seed", 3, "--out", ex)
        out = tmp_path / "val"
        assert _run("validate", "--config", ex / "config.json", "--out", out) == 0
        report = json.loads((out / "validation.json").read_text())
        assert report["overall"] == "PASS"

    def test_noncommuting_instance_exits_two(self, tmp_path):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((3, 3))
        sigma = (m @ m.T).tolist()
        doc = {
            "operator": {"kind": "diagonal", "multipliers": [0.0, 2.0, 3.0]},
            "sigma_u": {"kind": "dense", "rows": sigma},
            "sigma_v": {"kind": "diagonal", "values": [1.0, 1.0, 1.0]},
            "truncation_dim": 3,
            "seed": 5,
        }
        cfg = _write_config(tmp_path / "config.json", doc)
        out = tmp_path / "val"
        assert _run("validate", "--config", cfg, "--out", out) == 2
        report = json.loads((out / "validation.json").read_text())
        statuses = {c["name"]: c["status"] for c in report["checks"]}
        assert statuses["noise-projector-commutation"] == "FAIL"
        assert statuses["moore-penrose"] == "PASS"

    def test_multiplication_by_an_indicator_passes(self, tmp_path, capsys):
        # The sine-basis compression of multiplication by chi[0, 1/2] at dim
        # 64: bounded, closed range, not compact, cond(A) 7.3e12.  Its
        # ambient covariances spanned cond(A)^2 and the check FAILed it
        # (exit 2).
        a = oracles.multiplication_compression("chi", 64).stored
        doc = {
            "operator": {"kind": "dense", "rows": a.tolist(), "basis": BASIS_SINE},
            "sigma_u": {"kind": "diagonal", "values": [1.0] * 64},
            "sigma_v": {"kind": "diagonal", "values": [0.5] * 64},
            "truncation_dim": 64,
            "seed": 2,
        }
        cfg = _write_config(tmp_path / "config.json", doc)
        out = tmp_path / "val"
        assert _run("validate", "--config", cfg, "--out", out) == 0
        assert capsys.readouterr().err == ""
        report = json.loads((out / "validation.json").read_text())
        details = report["checks"][2]["details"]
        assert report["checks"][2]["status"] == "PASS"
        assert details["df"] == 64 * 40

    def test_observation_noise_near_the_float_limit_passes(self, tmp_path, capsys):
        # S C_u S overflows at sigma_u = 1e307 on the ramp, where the
        # ambient sigma_u + Q_v did not; the frame cores are scaled by a
        # power of two, so the check runs at full rank as before.
        ex = tmp_path / "ex"
        assert _run("example", "--which", 1, "--dim", 8, "--seed", 3, "--out", ex) == 0
        doc = json.loads((ex / "config.json").read_text())
        doc["sigma_u"]["values"] = [1e307] * 8
        cfg = _write_config(ex / "config.json", doc)
        out = tmp_path / "val"
        assert _run("validate", "--config", cfg, "--out", out) == 0
        assert capsys.readouterr().err == ""
        report = json.loads((out / "validation.json").read_text())
        assert report["overall"] == "PASS"
        assert report["checks"][2]["details"]["df"] == 8 * 7

    def test_covariance_near_the_float_limit_is_judged(self, tmp_path, capsys):
        # Its symmetric part overflowed, and the eigensolver refused it with
        # "Eigenvalues did not converge" (exit 1).
        doc = {
            "operator": {"kind": "dense", "rows": np.zeros((3, 3)).tolist()},
            "sigma_u": {"kind": "dense", "rows": (1e308 * np.eye(3)).tolist()},
            "sigma_v": {"kind": "diagonal", "values": [1.0, 1.0, 1.0]},
            "truncation_dim": 3,
            "seed": 5,
        }
        cfg = _write_config(tmp_path / "config.json", doc)
        out = tmp_path / "val"
        assert _run("validate", "--config", cfg, "--out", out) == 0
        assert capsys.readouterr().err == ""
        report = json.loads((out / "validation.json").read_text())
        statuses = {c["name"]: c["status"] for c in report["checks"]}
        assert statuses["moore-penrose"] == statuses["noise-projector-commutation"] == "PASS"

    @staticmethod
    def _dense_64_config(path, sigma_v_scale=1.0, seed=301):
        """A rotated ramp at dim 64, built like the benchmark's dense-64."""
        dim = 64
        q, _ = np.linalg.qr(np.random.default_rng([seed, 11]).standard_normal((dim, dim)))
        su, sv = seeded_sigmas(dim, [seed, 12])

        def rows(diag):
            return {"kind": "dense", "rows": ((q * diag) @ q.T).tolist()}

        doc = {
            "operator": rows(ramp_multipliers(dim)),
            "sigma_u": rows(su),
            "sigma_v": rows(sigma_v_scale * sv),
            "truncation_dim": dim,
            "seed": seed,
        }
        return _write_config(path, doc)

    def test_conditional_mean_verdict_sets_exit_code(self, tmp_path, monkeypatch):
        correct = self._dense_64_config(tmp_path / "correct.json")
        assert _run("validate", "--config", correct, "--out", tmp_path / "ok") == 0
        # The config alone cannot be wrong about its own samples, so the data
        # are drawn from the correct model while the config claims sigma_v
        # 1.2 times too large.
        truth = load_config(correct).model
        monkeypatch.setattr(
            validate,
            "sample_joint_blocks",
            lambda _m, count, seed: sample_joint_blocks(truth, count, seed),
        )
        wrong = self._dense_64_config(tmp_path / "wrong.json", sigma_v_scale=1.2)
        out = tmp_path / "bad"
        assert _run("validate", "--config", wrong, "--out", out) == 2
        report = json.loads((out / "validation.json").read_text())
        statuses = {c["name"]: c["status"] for c in report["checks"]}
        assert statuses.pop("conditional-mean-regression") == "FAIL"
        assert "FAIL" not in statuses.values()

    def test_filter_and_validate_agree_on_dense_laplacian(self, tmp_path):
        # diag((pi j)^2) rotated at dim 128: cond(I + A* A) is 2.7e8, and a
        # residual test that ignored |I + A* A| refused this trend.
        dim = 128
        rng = np.random.default_rng([301, 11])
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        ones = {"kind": "diagonal", "values": [1.0] * dim}
        doc = {
            "operator": {
                "kind": "dense",
                "rows": ((q * laplacian_multipliers(dim)) @ q.T).tolist(),
            },
            "sigma_u": ones,
            "sigma_v": ones,
            "truncation_dim": dim,
            "seed": 301,
        }
        cfg = _write_config(tmp_path / "config.json", doc)
        series = tmp_path / "x.csv"
        series.write_text(
            "".join(f"{t},{float(v)!r}\n" for t, v in enumerate(rng.standard_normal(dim)))
        )
        out = tmp_path / "out"
        assert _run("filter", "--config", cfg, "--input", series, "--out", out) == 0
        assert _run("validate", "--config", cfg, "--out", tmp_path / "val") == 0

    def test_white_noise_scaled_instance(self, tmp_path):
        ex = tmp_path / "ex"
        _run(
            "example", "--which", "1", "--dim", 5, "--seed", 2, "--out", ex,
            "--sigma-u", "2.0", "--sigma-v", "0.5",
        )
        out = tmp_path / "val"
        assert _run("validate", "--config", ex / "config.json", "--out", out) == 0
        report = json.loads((out / "validation.json").read_text())
        ratio = [c for c in report["checks"] if c["name"] == "white-noise-ratio"]
        assert ratio and ratio[0]["status"] == "PASS"
        assert ratio[0]["details"]["multiplier_spread"] < 1e-12


class TestOtherCommands:
    def test_optimal_b_writes_document(self, ramp_config, tmp_path):
        cfg_path, dim = ramp_config
        out = tmp_path / "out"
        assert _run("optimal-b", "--config", cfg_path, "--out", out) == 0
        doc = json.loads((out / "bhat.json").read_text())
        assert doc["bhat"]["kind"] == "diagonal"
        np.testing.assert_allclose(
            doc["bhat"]["multipliers"], [0.0, 1.0, 1.0, 1.0, 1.0]
        )

    def test_simulate_schema_and_determinism(self, ramp_config, tmp_path):
        cfg_path, dim = ramp_config
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert _run("simulate", "--config", cfg_path, "--count", 20, "--out", out) == 0
        assert (a / "samples.csv").read_bytes() == (b / "samples.csv").read_bytes()
        lines = (a / "samples.csv").read_text().splitlines()
        assert lines[0] == "draw,component,u,v,y,x"
        assert len(lines) == 1 + 20 * dim

    @pytest.mark.parametrize("count", [0, -3])
    def test_simulate_bad_count_creates_no_directory(
        self, ramp_config, tmp_path, capsys, count
    ):
        cfg_path, _ = ramp_config
        out = tmp_path / "out"
        assert _run("simulate", "--config", cfg_path, "--count", count, "--out", out) == 1
        assert capsys.readouterr().err.startswith("error: --count must be at least 1")
        assert not out.exists()

    def test_scale_command(self, tmp_path):
        doc = {
            "operator": {"kind": "diagonal", "multipliers": [0.0, 2.0, 3.0, 4.0]},
            "sigma_u": {"kind": "diagonal", "values": [1.0] * 4},
            "sigma_v": {"kind": "diagonal", "values": [1.0] * 4},
            "truncation_dim": 4,
            "seed": 0,
            "scale": {"kappa_decay": 2.0, "sigma_u_decay": 0.0, "sigma_v_decay": 0.0},
        }
        cfg = _write_config(tmp_path / "config.json", doc)
        out = tmp_path / "out"
        assert _run("scale", "--config", cfg, "--out", out) == 0
        scale_doc = json.loads((out / "scale.json").read_text())
        assert scale_doc["n"] == 1
        assert scale_doc["threshold_n0"] == 1
        assert scale_doc["kappa"] == [4.0, 9.0, 16.0]
        assert scale_doc["white_noise_check"]["status"] == "PASS"

    def test_rectangular_second_difference_through_every_command(
        self, tmp_path, capsys
    ):
        # The Hodrick-Prescott penalty: A is the (n - 2) x n second
        # difference, whose null space holds the linear trends.  With white
        # noise the optimal smoother is sigma_u / sigma_v on the codomain and
        # the trend is (I + lambda D^T D)^{-1} x.
        n, lam = 100, 1600.0
        d = np.zeros((n - 2, n))
        for i in range(n - 2):
            d[i, i : i + 3] = (1.0, -2.0, 1.0)
        t = np.arange(n, dtype=float)
        x = 2.0 + 0.05 * t + np.random.default_rng(3).standard_normal(n)
        (tmp_path / "x.csv").write_text("\n".join(repr(float(v)) for v in x) + "\n")
        cfg = _write_config(tmp_path / "config.json", {
            "operator": {"kind": "dense", "rows": d.tolist()},
            "sigma_u": {"kind": "diagonal", "values": [lam] * n},
            "sigma_v": {"kind": "diagonal", "values": [1.0] * (n - 2)},
            "truncation_dim": n, "seed": 4, "input_path": "x.csv",
            "scale": {"n": 1},
        })
        assert _run("filter", "--config", cfg, "--out", tmp_path / "f") == 0
        _, trend = read_series_csv(tmp_path / "f" / "trend.csv")
        expected = np.linalg.solve(np.eye(n) + lam * d.T @ d, x)
        np.testing.assert_allclose(trend, expected, rtol=0, atol=1e-10)
        assert _run("filter", "--config", cfg, "--out", tmp_path / "e", "--estimate-y0") == 0
        assert _run("optimal-b", "--config", cfg, "--out", tmp_path / "b") == 0
        bhat = json.loads((tmp_path / "b" / "bhat.json").read_text())["bhat"]
        np.testing.assert_allclose(bhat["rows"], lam * np.eye(n - 2), rtol=0, atol=1e-9)
        assert _run("validate", "--config", cfg, "--out", tmp_path / "v") == 0
        # v has n - 2 entries: a draw keeps n rows, and v's last two are empty.
        count = 70  # more than one block of formatted draws
        assert _run("simulate", "--config", cfg, "--count", count, "--out", tmp_path / "s") == 0
        lines = (tmp_path / "s" / "samples.csv").read_text().splitlines()[1:]
        fields = np.array([line.split(",") for line in lines]).reshape(count, n, 6)
        draw, component = np.meshgrid(np.arange(count), np.arange(n), indexing="ij")
        np.testing.assert_array_equal(fields[:, :, 0].astype(int), draw)
        np.testing.assert_array_equal(fields[:, :, 1].astype(int), component)
        sample = sample_joint(load_config(cfg).model, count, 4)
        for col, drawn in zip((2, 4, 5), (sample.u, sample.y, sample.x)):
            np.testing.assert_array_equal(fields[:, :, col].astype(float), drawn)
        np.testing.assert_array_equal(fields[:, : n - 2, 3].astype(float), sample.v)
        assert (fields[:, n - 2 :, 3] == "").all()
        # The rescaled sigma_v at n = 1 spans more than psd_inverse keeps:
        # its eigenvalues spread by cond(A)^-4.  The refusal guards a wrong
        # answer.  Inverting it on the range at pinv's rank, with a floor at
        # the rounding bound of its largest eigenvalue, lets n = 100 through
        # with the scaled smoother off 1600 I by up to 29% of 1600, and
        # still refuses n = 256 and n = 1024.
        capsys.readouterr()
        assert _run("scale", "--config", cfg, "--out", tmp_path / "k") == 1
        assert "sigma_v is singular on the range of A" in capsys.readouterr().err

    def test_scale_without_index_rejected(self, ramp_config):
        cfg_path, _ = ramp_config
        assert _run("scale", "--config", cfg_path) == 1

    @pytest.mark.parametrize("command", CONFIG_COMMANDS)
    def test_missing_config_is_a_usage_error(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            _run(command)
        assert exc.value.code == 2
        assert "the following arguments are required: --config" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, flag",
        [
            ("filter", "--scale-n"),
            ("optimal-b", "--scale-n"),
            ("simulate", "--scale-n"),
            ("filter", "--seed"),
            ("optimal-b", "--seed"),
            ("scale", "--seed"),
            *((command, "--dim") for command in CONFIG_COMMANDS),
        ],
    )
    def test_flags_a_command_does_not_read_are_usage_errors(
        self, ramp_config, capsys, command, flag
    ):
        cfg_path, _ = ramp_config
        with pytest.raises(SystemExit) as exc:
            _run(command, "--config", cfg_path, flag, 1)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err

    def test_seed_override_changes_output(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        _run("example", "--which", "1", "--dim", 4, "--seed", 1, "--out", a)
        _run("example", "--which", "1", "--dim", 4, "--seed", 2, "--out", b)
        assert (a / "x.csv").read_bytes() != (b / "x.csv").read_bytes()


NAN, INF = float("nan"), float("inf")


def _eye_with(dim, value):
    rows = np.eye(dim).tolist()
    rows[1][1] = value
    return rows


def _two_dim_config(operator_rows, sigma_u, sigma_v, **extra):
    doc = {
        "operator": {"kind": "dense", "rows": operator_rows},
        "sigma_u": sigma_u,
        "sigma_v": sigma_v,
        "truncation_dim": 2,
        "seed": 0,
        "input_path": "x.csv",
    }
    doc.update(extra)
    return doc


class TestErrorExits:
    @pytest.mark.parametrize(
        "command, doc",
        [
            # sigma_v does not commute with sigma_u: the optimal smoother
            # fails the positivity check (PositivityError).
            (
                "filter",
                _two_dim_config(
                    [[1.0, 0.0], [0.0, 1.0]],
                    {"kind": "diagonal", "values": [1.0, 0.01]},
                    {"kind": "dense", "rows": [[50.005, -49.995], [-49.995, 50.005]]},
                ),
            ),
            # sigma_v vanishes on the range (SingularCovarianceError).
            (
                "optimal-b",
                _two_dim_config(
                    [[1.0, 0.0], [0.0, 2.0]],
                    {"kind": "diagonal", "values": [1.0, 1.0]},
                    {"kind": "diagonal", "values": [1.0, 0.0]},
                ),
            ),
            # Rescaling by s^-4 spans 16 decades: the rescaled sigma_v is
            # singular at working precision (SingularCovarianceError).
            (
                "scale",
                _two_dim_config(
                    [[1.0, 0.0], [0.0, 1e-4]],
                    {"kind": "diagonal", "values": [1.0, 1.0]},
                    {"kind": "diagonal", "values": [1.0, 1.0]},
                    scale={"n": 1},
                ),
            ),
        ],
        ids=["positivity", "singular-sigma-v", "singular-rescaled-sigma-v"],
    )
    def test_domain_errors_exit_one(self, tmp_path, capsys, command, doc):
        (tmp_path / "x.csv").write_text("1.0\n2.0\n")
        cfg = _write_config(tmp_path / "config.json", doc)
        assert _run(command, "--config", cfg, "--out", tmp_path / "out") == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_trend_system_beyond_the_float_range_exits_one(self, tmp_path, capsys):
        # Dense A = 1e200 I with unit covariances: B^ = I, but A* B A
        # overflows.  filter escaped with a LinAlgError traceback from the
        # positivity eigensolver.
        (tmp_path / "x.csv").write_text("1.0\n2.0\n3.0\n")
        doc = {
            "operator": {"kind": "dense", "rows": (1e200 * np.eye(3)).tolist()},
            "sigma_u": {"kind": "diagonal", "values": [1.0] * 3},
            "sigma_v": {"kind": "diagonal", "values": [1.0] * 3},
            "truncation_dim": 3,
            "seed": 0,
            "input_path": "x.csv",
        }
        cfg = _write_config(tmp_path / "config.json", doc)
        out, bhat_out = tmp_path / "out", tmp_path / "bhat"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert _run("filter", "--config", cfg, "--out", out) == 1
            err = capsys.readouterr().err
            assert _run("optimal-b", "--config", cfg, "--out", bhat_out) == 0
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert err.startswith("error: trend system") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not out.exists()
        bhat = json.loads((bhat_out / "bhat.json").read_text())["bhat"]
        assert bhat["rows"] == np.eye(3).tolist()

    def test_norms_of_a_series_whose_squares_overflow(self, tmp_path, capsys):
        # Ramp-3 with unit covariances on x = 1e200 (1, 1, 1): |x| is
        # representable but its squares are not, and np.linalg.norm squares
        # first, so filter refused ("overflow encountered in dot").
        (tmp_path / "x.csv").write_text("1e200\n1e200\n1e200\n")
        doc = {
            "operator": {"kind": "diagonal", "multipliers": [1.0, 2.0, 3.0]},
            "sigma_u": {"kind": "diagonal", "values": [1.0] * 3},
            "sigma_v": {"kind": "diagonal", "values": [1.0] * 3},
            "truncation_dim": 3,
            "input_path": "x.csv",
        }
        cfg = _write_config(tmp_path / "config.json", doc)
        out = tmp_path / "out"
        assert _run("filter", "--config", cfg, "--out", out) == 0
        assert capsys.readouterr().err == ""
        summary = json.loads((out / "filter_summary.json").read_text())
        # Trend multipliers 1 / (1 + a^2) = (1/2, 1/5, 1/10).
        trend = 1e200 * np.array([0.5, 0.2, 0.1])
        residual = 1e200 - trend
        assert summary["trend_norm"] == pytest.approx(1e200 * np.sqrt(0.3), rel=1e-15)
        assert summary["residual_norm"] == pytest.approx(
            1e200 * np.linalg.norm(residual / 1e200), rel=1e-15
        )

    @pytest.mark.parametrize(
        "sigma_u, trend",
        [([1.0, 1.0, 1.0], [1.0, 2.0, 0.0]), ([1.0, 1.0, 0.0], [1.0, 2.0, 3.0])],
        ids=["penalty-overflows", "zero-penalty"],
    )
    def test_closed_form_trend_at_a_multiplier_beyond_the_float_range(
        self, tmp_path, capsys, sigma_u, trend
    ):
        # a = (0, 2, 1e300), whose rank is 1 at pinv's cutoff: a^2 overflowed
        # with a RuntimeWarning, and where sigma_u, and so B^, is 0 the
        # multiplier read 0 * inf = NaN.  The multiplier is the limit of
        # 1 / (1 + b a^2): 0, or 1 where b is 0.
        (tmp_path / "x.csv").write_text("1.0\n2.0\n3.0\n")
        doc = {
            "operator": {"kind": "diagonal", "multipliers": [0.0, 2.0, 1e300]},
            "sigma_u": {"kind": "diagonal", "values": sigma_u},
            "sigma_v": {"kind": "diagonal", "values": [1.0] * 3},
            "truncation_dim": 3,
            "seed": 0,
            "input_path": "x.csv",
        }
        cfg = _write_config(tmp_path / "config.json", doc)
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert _run("filter", "--config", cfg, "--out", out) == 0
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert capsys.readouterr().err == ""
        _, written = read_series_csv(out / "trend.csv")
        np.testing.assert_array_equal(written, trend)

    def test_simulate_takes_back_its_output_when_a_result_overflows(
        self, tmp_path, capsys
    ):
        # sigma_u = 1.7e308 I: the draws are finite, but the squares in
        # |mean u| overflow once samples.csv is being written.
        doc = {
            "operator": {"kind": "diagonal", "multipliers": [1.0] * 4},
            "sigma_u": {"kind": "power_decay", "scale": 1.7e308, "exponent": 0.0},
            "sigma_v": {"kind": "diagonal", "values": [1.0] * 4},
            "truncation_dim": 4,
            "seed": 1,
        }
        cfg = _write_config(tmp_path / "config.json", doc)
        kept = tmp_path / "kept"
        kept.mkdir()
        (kept / "notes.txt").write_text("not ours\n")
        for out in (tmp_path / "new" / "out", kept):
            assert _run("simulate", "--config", cfg, "--count", 1, "--out", out) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: a result leaves the float range")
            assert err.count("\n") == 1
        assert not (tmp_path / "new").exists()
        assert sorted(os.listdir(kept)) == ["notes.txt"]

    @staticmethod
    def _huge_sigma_u_config(tmp_path, sigma_v):
        """README's ramp-3 operator with sigma_u at 1e308."""
        (tmp_path / "x.csv").write_text("1.0\n2.0\n3.0\n")
        doc = {
            "operator": {"kind": "diagonal", "multipliers": [0.0, 2.0, 3.0]},
            "sigma_u": {"kind": "power_decay", "scale": 1e308, "exponent": 0.0},
            "sigma_v": sigma_v,
            "truncation_dim": 3,
            "seed": 7,
            "input_path": "x.csv",
        }
        return _write_config(tmp_path / "config.json", doc)

    @pytest.mark.parametrize(
        "command, sigma_v",
        [
            ("optimal-b", {"kind": "dense", "rows": (0.5 * np.eye(3)).tolist()}),
            ("filter", {"kind": "dense", "rows": (0.5 * np.eye(3)).tolist()}),
            ("validate", {"kind": "diagonal", "values": [0.5] * 3}),
        ],
    )
    def test_non_finite_smoother_exits_one(self, tmp_path, capsys, command, sigma_v):
        # sigma_v = 0.5 I: the smoother's range entries are 2e308.  With a
        # dense sigma_v, optimal-b wrote NaN and Infinity and exited 0, and
        # filter raised LinAlgError from the positivity check.  validate
        # computes the smoother for a diagonal model only.
        cfg = self._huge_sigma_u_config(tmp_path, sigma_v)
        out = tmp_path / "out"
        assert _run(command, "--config", cfg, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: the optimal smoother") and err.count("\n") == 1
        assert not out.exists()

    def test_dense_twin_of_a_finite_smoother_is_served(self, tmp_path, capsys):
        # sigma_v = I: the smoother diag(0, 1e308, 1e308) is finite, and a
        # dense sigma_v gives the diagonal one's entries.  Its trend system
        # A* B A overflows, so filter refuses the dense twin with one line;
        # the diagonal closed form takes the multipliers' limit, 0.
        smoothers, configs = {}, {}
        for kind, sigma_v in (
            ("diagonal", {"kind": "diagonal", "values": [1.0] * 3}),
            ("dense", {"kind": "dense", "rows": np.eye(3).tolist()}),
        ):
            (tmp_path / kind).mkdir()
            configs[kind] = self._huge_sigma_u_config(tmp_path / kind, sigma_v)
            out = tmp_path / kind / "out"
            assert _run("optimal-b", "--config", configs[kind], "--out", out) == 0
            bhat = json.loads((out / "bhat.json").read_text())["bhat"]
            smoothers[kind] = np.array(bhat.get("multipliers", bhat.get("rows")))
        assert capsys.readouterr().err == ""
        np.testing.assert_array_equal(smoothers["diagonal"], [0.0, 1e308, 1e308])
        np.testing.assert_array_equal(smoothers["dense"], np.diag(smoothers["diagonal"]))
        out = tmp_path / "filter"
        assert _run("filter", "--config", configs["dense"], "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: trend system") and "not finite" in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert _run("filter", "--config", configs["diagonal"], "--out", out) == 0
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        _, trend = read_series_csv(out / "trend.csv")
        np.testing.assert_array_equal(trend, [1.0, 0.0, 0.0])

    @pytest.mark.parametrize(
        "scale, flags, message",
        [
            # The least trace-class index overflowed math.floor (5e-324) or
            # a list length (1e-300), and so did scale.n = 1e300: OverflowError
            # tracebacks.  An index above MAX_SCALE_N is refused before any
            # weight is formed.
            ({"kappa_decay": 5e-324, "sigma_u_decay": 0.0, "sigma_v_decay": 0.0},
             [], "no scale index"),
            ({"kappa_decay": 1e-300, "sigma_u_decay": 0.0, "sigma_v_decay": 0.0},
             [], "no scale index"),
            ({"n": 1e300}, [], "at most 64"),
            ({}, ["--scale-n", 10**20], "at most 64"),
        ],
        ids=["kappa-decay-5e-324", "kappa-decay-1e-300", "scale-n-1e300",
             "scale-n-flag"],
    )
    def test_scale_index_above_the_ceiling_exits_one(
        self, ramp_config, tmp_path, capsys, scale, flags, message
    ):
        cfg_path, _ = ramp_config
        doc = json.loads(cfg_path.read_text())
        doc["scale"] = scale
        _write_config(cfg_path, doc)
        out = tmp_path / "out"
        assert _run("scale", "--config", cfg_path, *flags, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "scale, cause",
        [
            ({"kappa_decay": 0.0, "sigma_u_decay": 0.0, "sigma_v_decay": 0.0},
             "the declared decay exponents admit no trace-class index up to 64"),
            ({}, "supply decay exponents in 'scale'"),
        ],
        ids=["declared", "undeclared"],
    )
    def test_scale_refusal_names_its_cause(self, tmp_path, capsys, scale, cause):
        # A bounded-below A (singular values 1 to 2) has kappa_decay 0: no
        # Hilbert scale makes white noise trace class, so scale refuses; the
        # exponents were supplied, and the message says they admit no index.
        doc = {
            "operator": {"kind": "diagonal", "multipliers": [1.0, 1.5, 2.0]},
            "sigma_u": {"kind": "diagonal", "values": [1.0] * 3},
            "sigma_v": {"kind": "diagonal", "values": [1.0] * 3},
            "truncation_dim": 3,
            "scale": scale,
        }
        cfg = _write_config(tmp_path / "config.json", doc)
        out = tmp_path / "out"
        assert _run("scale", "--config", cfg, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: no scale index: ") and err.count("\n") == 1
        assert cause in err
        assert not out.exists()

    @pytest.mark.parametrize("kappa_decay", [0.005, 1e-300])
    def test_explicit_scale_index_serves_decays_beyond_the_ceiling(
        self, ramp_config, tmp_path, capsys, kappa_decay
    ):
        # The least trace-class index (101, or past the float range) is
        # above 64, so there is none; scale and validate use the explicit
        # n = 1, and validate without it SKIPs the white-noise check.
        cfg_path, _ = ramp_config
        doc = json.loads(cfg_path.read_text())
        doc["scale"] = {"n": 1, "kappa_decay": kappa_decay, "sigma_u_decay": 0.0,
                        "sigma_v_decay": 0.0}
        _write_config(cfg_path, doc)
        out = tmp_path / "out"
        assert _run("scale", "--config", cfg_path, "--out", out) == 0
        assert capsys.readouterr().err == ""
        written = json.loads((out / "scale.json").read_text())
        assert (written["n"], written["threshold_n0"]) == (1, None)
        least = {k: v for k, v in doc["scale"].items() if k != "n"}
        white = {}
        for run, scale in (("given", doc["scale"]), ("least", least)):
            _write_config(cfg_path, {**doc, "scale": scale})
            assert _run("validate", "--config", cfg_path, "--out", tmp_path / run) == 0
            report = json.loads((tmp_path / run / "validation.json").read_text())
            white[run] = next(
                c for c in report["checks"] if c["name"] == "white-noise-ratio"
            )
        assert white["given"]["status"] == "PASS"
        assert (white["given"]["details"]["n"], white["given"]["details"]["threshold"]) == (1, None)
        assert white["least"]["status"] == "SKIP"

    @pytest.mark.parametrize(
        "field, value",
        [
            ("seed", "x"),
            ("seed", 2.7),
            ("seed", True),
            ("truncation_dim", 1),
            ("truncation_dim", "5"),
            ("scale", {"n": -1}),
            ("scale", {"n": True}),
            ("scale", {"n": 0.5}),
            ("scale", {"n": "1"}),
        ],
    )
    def test_malformed_integer_fields_exit_one(
        self, ramp_config, tmp_path, capsys, field, value
    ):
        cfg_path, _ = ramp_config
        doc = json.loads(cfg_path.read_text())
        doc[field] = value
        _write_config(cfg_path, doc)
        out = tmp_path / "out"
        assert _run("validate", "--config", cfg_path, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err
        assert not (out / "validation.json").exists()

    @pytest.mark.parametrize("command", CONFIG_COMMANDS)
    @pytest.mark.parametrize(
        "field, value",
        [
            ("scale", [1, 2]),
            ("scale", "x"),
            ("scale", {"n": -1}),
            ("extras", {"draws": 2000}),
            ("scale_n", 1),
            ("input_path", 5),
            ("output_path", [1]),
        ],
        ids=["scale-list", "scale-str", "scale-n", "extras", "top-scale-n", "input", "output"],
    )
    def test_malformed_config_rejected_by_every_command(
        self, ramp_config, tmp_path, capsys, command, field, value
    ):
        cfg_path, dim = ramp_config
        (tmp_path / "x.csv").write_text("1.0\n" * dim)
        doc = json.loads(cfg_path.read_text())
        doc.update({"input_path": "x.csv", "scale": {"n": 1}, field: value})
        _write_config(cfg_path, doc)
        out = tmp_path / "out"
        assert _run(command, "--config", cfg_path, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert field in err
        assert not out.exists()

    @pytest.mark.parametrize("command", CONFIG_COMMANDS)
    @pytest.mark.parametrize(
        "field, value",
        [
            # n**500 overflows at n = 5; times a zero scale it is NaN.
            ("sigma_u", {"kind": "power_decay", "scale": 1, "exponent": -500}),
            ("sigma_u", {"kind": "power_decay", "scale": 0, "exponent": -500}),
            ("sigma_u", {"kind": "power_decay", "scale": "1", "exponent": 0}),
            ("sigma_v", {"kind": "power_decay", "scale": 1, "exponent": True}),
            ("operator", {"kind": "diagonal", "multipliers": ["0", "2", True, "4", 5]}),
            ("sigma_v", {"kind": "diagonal", "values": [True] * 5}),
            (
                "sigma_u",
                {"kind": "dense", "rows": [["1", 0, 0, 0, 0], *np.eye(5)[1:].tolist()]},
            ),
            ("y0", [True, 0, 0, 0, 0]),
            ("operator", {"kind": "diagonal", "multipliers": [1] * 5, "basis": 5}),
            (
                "operator",
                {"kind": "diagonal", "multipliers": [1] * 5, "basis": "sine-dirichelt"},
            ),
            (
                "operator",
                {"kind": "dense", "rows": np.eye(5).tolist(), "codomain_basis": "sine"},
            ),
            ("sigma_u", {"kind": "power_decay", "scale": [1, 2]}),
            ("operator", {"kind": "diagonal", "multipliers": [10**400] * 5}),
            ("scale", {"kappa_decay": 10**400}),
        ],
        ids=[
            "power-decay-inf",
            "power-decay-nan",
            "scale-str",
            "exponent-bool",
            "multipliers",
            "values",
            "rows",
            "y0",
            "basis-int",
            "basis-typo",
            "codomain-basis",
            "scale-list",
            "multipliers-huge-int",
            "decay-huge-int",
        ],
    )
    def test_non_finite_or_non_json_documents_rejected_by_every_command(
        self, ramp_config, tmp_path, capsys, command, field, value
    ):
        cfg_path, dim = ramp_config
        (tmp_path / "x.csv").write_text("1.0\n" * dim)
        doc = json.loads(cfg_path.read_text())
        doc.update({"input_path": "x.csv", "scale": {"n": 1}, field: value})
        _write_config(cfg_path, doc)
        out = tmp_path / "out"
        assert _run(command, "--config", cfg_path, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["filter", "optimal-b", "scale"])
    @pytest.mark.parametrize(
        "operator, field, kind",
        [
            (
                {"kind": "kernel", "name": "dirichlet_green", "basis": "abstract-euclidean"},
                "basis",
                "kernel",
            ),
            (
                {
                    "kind": "kernel",
                    "name": "dirichlet_green",
                    "codomain_basis": "abstract-euclidean",
                },
                "codomain_basis",
                "kernel",
            ),
            (
                {
                    "kind": "diagonal",
                    "multipliers": [1] * 5,
                    "basis": "abstract-euclidean",
                    "codomain_basis": "sine-dirichlet",
                },
                "codomain_basis",
                "diagonal",
            ),
        ],
        ids=["kernel-basis", "kernel-codomain", "diagonal-codomain"],
    )
    def test_basis_contradicting_the_kind_rejected(
        self, ramp_config, tmp_path, capsys, command, operator, field, kind
    ):
        cfg_path, dim = ramp_config
        (tmp_path / "x.csv").write_text("1.0\n" * dim)
        doc = json.loads(cfg_path.read_text())
        doc.update({"input_path": "x.csv", "scale": {"n": 1}, "operator": operator})
        _write_config(cfg_path, doc)
        out = tmp_path / "out"
        assert _run(command, "--config", cfg_path, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field} of a {kind} operator")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "case",
        [
            "filter-no-input",
            "filter-nan",
            "optimal-b-singular",
            "scale-singular",
            "validate-singular",
            "example-sigma-u",
        ],
    )
    def test_failed_request_leaves_no_directory(self, ramp_config, tmp_path, capsys, case):
        cfg_path, dim = ramp_config
        nan = tmp_path / "nan.csv"
        nan.write_text("1.0\n" * (dim - 1) + "nan\n")
        # sigma_v vanishes on a range component of a diagonal model.
        singular = _write_config(
            tmp_path / "singular.json",
            {
                "operator": {"kind": "diagonal", "multipliers": [1.0, 2.0]},
                "sigma_u": {"kind": "diagonal", "values": [1.0, 1.0]},
                "sigma_v": {"kind": "diagonal", "values": [1.0, 0.0]},
                "truncation_dim": 2,
                "scale": {"n": 1},
            },
        )
        argv = {
            "filter-no-input": ["filter", "--config", cfg_path],
            "filter-nan": ["filter", "--config", cfg_path, "--input", nan],
            "optimal-b-singular": ["optimal-b", "--config", singular],
            "scale-singular": ["scale", "--config", singular],
            "validate-singular": ["validate", "--config", singular],
            "example-sigma-u": ["example", "--which", "1", "--sigma-u", "-1"],
        }[case]
        out = tmp_path / "out"
        assert _run(*argv, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_scale_index_precedence(self, ramp_config, tmp_path):
        cfg_path, _ = ramp_config
        doc = json.loads(cfg_path.read_text())

        def scale_n(*argv, **fields):
            _write_config(cfg_path, {**doc, **fields})
            out = tmp_path / "out"
            assert _run("scale", "--config", cfg_path, "--out", out, *argv) == 0
            return json.loads((out / "scale.json").read_text())["n"]

        # --scale-n, then the scale document's n.
        assert scale_n("--scale-n", 0, scale={"n": 2}) == 0
        assert scale_n(scale={"n": 2}) == 2

    @pytest.mark.parametrize(
        "command, argv",
        [
            ("simulate", ["--seed", "-1"]),
            ("validate", ["--seed", "-1"]),
            ("validate", ["--scale-n", "-2"]),
            ("scale", ["--scale-n", "-2"]),
        ],
    )
    def test_out_of_range_overrides_exit_one(
        self, ramp_config, tmp_path, capsys, command, argv
    ):
        cfg_path, _ = ramp_config
        assert _run(command, "--config", cfg_path, "--out", tmp_path, *argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {argv[0]} must be")

    @pytest.mark.parametrize(
        "argv",
        [
            ["--sigma-u", "x"],
            ["--sigma-u", "nan"],
            ["--sigma-v", "inf"],
            ["--sigma-v=-inf"],
            ["--sigma-v", ""],
            ["--grid-points", "0"],
            ["--grid-points", "1"],
            ["--dim", "1"],
            ["--seed", "-1"],
        ],
    )
    def test_bad_example_values_exit_one(self, tmp_path, capsys, argv):
        out = tmp_path / "ex"
        assert _run("example", "--which", "2", "--dim", 4, "--out", out, *argv) == 1
        flag = argv[0].split("=")[0]
        assert capsys.readouterr().err.startswith(f"error: {flag} must be")
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["--which", "2", "--dim", "4", "--sigma-v", "0"],
                "sigma_v is singular on range components [0, 1, 2, 3]",
            ),
            (
                ["--which", "1", "--dim", "4", "--sigma-v", "0"],
                "sigma_v is singular on range components [1, 2, 3]",
            ),
            (["--which", "2", "--dim", "256"], "257 samples cannot resolve 256 sine modes"),
            (
                ["--which", "2", "--dim", "8", "--grid-points", "9"],
                "9 samples cannot resolve 8 sine modes",
            ),
        ],
        ids=["laplacian-sigma-v-0", "ramp-sigma-v-0", "grid-default", "grid-9"],
    )
    def test_example_refuses_what_its_commands_refuse(
        self, tmp_path, capsys, argv, message
    ):
        out = tmp_path / "ex"
        assert _run("example", *argv, "--out", out) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_example_grid_of_dim_plus_two_filters(self, tmp_path):
        ex = tmp_path / "ex"
        argv = ["--which", 2, "--dim", 8, "--grid-points", 10]
        assert _run("example", *argv, "--out", ex) == 0
        assert _run("filter", "--config", ex / "config.json", "--out", tmp_path / "r") == 0

    def test_example_rejects_config_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            _run("example", "--which", "1", "--config", "x")
        assert exc.value.code == 2
        assert "unrecognized arguments: --config x" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["scale", "validate"])
    @pytest.mark.parametrize("value", [NAN, INF, True, "2"], ids=["nan", "inf", "bool", "str"])
    def test_malformed_decay_exponent_exits_one(
        self, ramp_config, tmp_path, capsys, command, value
    ):
        cfg_path, _ = ramp_config
        doc = json.loads(cfg_path.read_text())
        doc["scale"] = {"n": 1, "kappa_decay": value, "sigma_u_decay": 0.0,
                        "sigma_v_decay": 0.0}
        _write_config(cfg_path, doc)
        out = tmp_path / "out"
        assert _run(command, "--config", cfg_path, "--out", out) == 1
        assert capsys.readouterr().err.startswith("error: kappa_decay must be")
        assert not out.exists() or not list(out.iterdir())

    def test_cached_parser_keeps_no_state_between_requests(self):
        first = cli._parser().parse_args(
            ["example", "--which", "1", "--sigma-u", "2.0", "--grid-points", "9"]
        )
        second = cli._parser().parse_args(["example", "--which", "2"])
        assert (first.sigma_u, first.grid_points) == ("2.0", 9)
        assert (second.sigma_u, second.grid_points, second.which) == (None, 257, "2")
        assert cli._parser() is cli._parser()

    def test_non_utf8_config_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_bytes(b"\xff\xfe")
        out = tmp_path / "out"
        assert _run("optimal-b", "--config", cfg, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read configuration") and err.count("\n") == 1
        assert not out.exists()

    def test_non_utf8_series_exits_one(self, ramp_config, tmp_path, capsys):
        cfg_path, _ = ramp_config
        series = tmp_path / "x.csv"
        series.write_bytes(b"1.0\n\xff\n")
        out = tmp_path / "out"
        assert _run("filter", "--config", cfg_path, "--input", series, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read input series") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_series_rejected(self, ramp_config, tmp_path, bad):
        cfg_path, dim = ramp_config
        series = tmp_path / "x.csv"
        series.write_text("\n".join(["1.0"] * (dim - 1) + [bad]) + "\n")
        assert _run("filter", "--config", cfg_path, "--input", series) == 1

    @pytest.mark.parametrize(
        "key, spec",
        [
            ("operator", {"kind": "diagonal", "multipliers": [0, 2, NAN, 4, 5]}),
            ("operator", {"kind": "dense", "rows": _eye_with(5, INF)}),
            ("sigma_u", {"kind": "diagonal", "values": [1, 1, INF, 1, 1]}),
            ("sigma_v", {"kind": "dense", "rows": _eye_with(5, INF)}),
            ("sigma_u", {"kind": "power_decay", "scale": INF}),
            ("sigma_v", {"kind": "power_decay", "exponent": NAN}),
            ("y0", [NAN, 0, 0, 0, 0]),
        ],
    )
    def test_non_finite_config_rejected(self, ramp_config, tmp_path, key, spec):
        cfg_path, _ = ramp_config
        doc = json.loads(cfg_path.read_text())
        doc[key] = spec
        _write_config(cfg_path, doc)  # json writes NaN and Infinity literals
        assert _run("optimal-b", "--config", cfg_path, "--out", tmp_path / "out") == 1

    def test_scale_mixed_model_matches_diagonal(self, tmp_path):
        # Diagonal operator with the same covariance stored dense.
        doc = {
            "operator": {"kind": "diagonal", "multipliers": [0.0, 2.0, 3.0]},
            "sigma_u": {"kind": "diagonal", "values": [1.0, 0.5, 2.0]},
            "sigma_v": {"kind": "diagonal", "values": [0.7, 1.5, 1.0]},
            "truncation_dim": 3,
            "seed": 0,
            "scale": {"n": 1},
        }
        diag_cfg = _write_config(tmp_path / "diag.json", doc)
        doc["sigma_v"] = {"kind": "dense", "rows": np.diag([0.7, 1.5, 1.0]).tolist()}
        mixed_cfg = _write_config(tmp_path / "mixed.json", doc)
        assert _run("scale", "--config", diag_cfg, "--out", tmp_path / "d") == 0
        assert _run("scale", "--config", mixed_cfg, "--out", tmp_path / "m") == 0
        diag_doc = json.loads((tmp_path / "d" / "scale.json").read_text())
        mixed_doc = json.loads((tmp_path / "m" / "scale.json").read_text())
        assert mixed_doc["sigma_v_rescaled"] is None  # stored dense
        assert mixed_doc["sigma_u_rescaled"] == diag_doc["sigma_u_rescaled"]
        assert mixed_doc["kappa"] == diag_doc["kappa"]


class TestSeriesProjection:
    def test_euclidean_requires_exact_length(self):
        with pytest.raises(Exception):
            project_series(None, np.ones(3), 4, "abstract-euclidean")

    def test_sine_projection_recovers_band_limited_coefficients(self):
        grid = np.linspace(0.0, 1.0, 257)
        coeffs = np.array([0.5, -1.0, 2.0, 0.0])
        from ophp.operators import sine_basis_matrix

        samples = sine_basis_matrix(grid, 4) @ coeffs
        vec, *_ = project_series(grid, samples, 4, BASIS_SINE)
        np.testing.assert_allclose(vec.coeffs, coeffs, atol=1e-12)


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_command_line_block_runs(tmp_path, monkeypatch):
    section = README.read_text().split("\n## Command line\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    lines = block.strip().splitlines()
    assert len(lines) == 6
    for line in lines:
        program, *argv = shlex.split(line, comments=True)
        assert program == "ophp"
        assert main(argv) == 0, line


def test_readme_flags_by_command_match_the_parser():
    section = README.read_text().split("\nFlags by command:\n\n", 1)[1]
    bullets = section.split("\n\n", 1)[0]
    documented = {}
    for bullet in re.split(r"^- ", bullets, flags=re.M)[1:]:
        name = re.match(r"`([a-z-]+)`:", bullet).group(1)
        documented[name] = sorted(set(re.findall(r"`(--[a-z0-9-]+)", bullet)))
    (subparsers,) = [
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    taken = {
        name: sorted({s for a in p._actions for s in a.option_strings} - {"-h", "--help"})
        for name, p in subparsers.choices.items()
    }
    assert documented == taken


def test_readme_configuration_block_builds_its_model():
    section = README.read_text().split("\n### Configuration\n", 1)[1]
    doc = json.loads(re.search(r"```json\n(.*?)```", section, re.S).group(1))
    cfg = parse_config(doc)
    assert cfg.model.dim == doc["truncation_dim"]
    assert (cfg.seed, cfg.scale_n) == (doc["seed"], doc["scale"]["n"])
    assert cfg.decay == DecayDeclaration(2.0, 0.0, 0.0)
