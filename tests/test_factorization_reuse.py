"""Work that depends only on the operator, the model or the trend system is
done once.

Counts the symmetric eigensolver calls (and SVDs) made through numpy, so a
change that factorizes ``sigma_u + Q_v`` per conditional mean,
eigendecomposes ``A* B A`` for a passing positivity check, or takes the SVD
of an operator or builds a kernel recipe again, fails here.
"""

import dataclasses
import gc
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from ophp import (
    CoeffVector,
    FilterProblem,
    GaussianModel,
    ModelError,
    PositivityError,
    RankDeficiencyWarning,
    compose,
    conditional_mean,
    dense_operator,
    diagonal_operator,
    hs_diagnostics,
    kernel_operator,
    pinv,
    positivity_check,
    qv,
    solve_filter,
)
from ophp.filter import _VERDICTS
from ophp import operators
from ophp.gaussian import regression_slope
from ophp.operators import BASIS_SINE, add, psd_inverse
from ophp.validate import conditional_mean_check, mp_residual_suite

from oracles import ramp_model, sample_joint


def _spd(dim, rng, low=0.5, high=2.0):
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q @ np.diag(rng.uniform(low, high, dim)) @ q.T


def _dense_model(dim=6, seed=0):
    rng = np.random.default_rng(seed)
    a = dense_operator(rng.standard_normal((dim, dim)))
    return GaussianModel.build(
        a, dense_operator(_spd(dim, rng)), dense_operator(_spd(dim, rng))
    )


class TestOperatorFactorization:
    def test_same_recipe_is_one_read_only_object(self, cold_kernel_memo):
        first = kernel_operator("dirichlet_green", 8, 32)
        assert kernel_operator("dirichlet_green", 8, 32) is first
        others = [
            kernel_operator("dirichlet_green", 9, 32),
            kernel_operator("dirichlet_green", 8, 33),
        ]
        assert all(op is not first for op in others)
        assert others[0] is not others[1]
        assert not first.stored.flags.writeable
        with pytest.raises(dataclasses.FrozenInstanceError):
            first.stored = np.eye(8)
        assert not any(f.flags.writeable for f in pinv(first).svd)

    def test_second_build_on_a_kernel_runs_no_svd_and_builds_no_kernel(
        self, calls, cold_kernel_memo, monkeypatch
    ):
        fills = []
        fill = operators.KERNELS["dirichlet_green"]

        def counted(nodes, out):
            fills.append(1)
            fill(nodes, out)

        monkeypatch.setitem(operators.KERNELS, "dirichlet_green", counted)
        su = diagonal_operator(np.ones(16), BASIS_SINE)
        sv = diagonal_operator(np.full(16, 2.0), BASIS_SINE)
        models = []
        for _ in range(2):
            a = kernel_operator("dirichlet_green", 16, 64)
            models.append(GaussianModel.build(a, su, sv))
            assert (len(fills), calls["svd"]) == (1, 1)
        first, second = (m.pinv_bundle.pinv.stored for m in models)
        assert first.tobytes() == second.tobytes()

    def test_svd_is_computed_once_per_operator_object(self, calls):
        a = dense_operator(np.random.default_rng(11).standard_normal((5, 4)))
        first, second = pinv(a), pinv(a)
        assert calls["svd"] == 1
        assert first.svd is second.svd
        copy = pinv(dataclasses.replace(a))
        assert calls["svd"] == 2
        assert copy.pinv.stored.tobytes() == first.pinv.stored.tobytes()

    def test_a_new_recipe_replaces_the_last(self, cold_kernel_memo):
        first = kernel_operator("dirichlet_green", 8, 32)
        kernel_operator("dirichlet_green", 8, 33)
        assert kernel_operator("dirichlet_green", 8, 32) is not first

    def test_retained_memory_is_one_recipe(self, cold_kernel_memo):
        # The recipe kept holds its matrix and its SVD factors U, s and Vt:
        # 3 dim^2 + dim floats, and a few objects allowed 4 KiB.  Building
        # more recipes retains no more.
        dim = 64
        gc.collect()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            for g in range(3):
                pinv(kernel_operator("dirichlet_green", dim, dim + 2 + g))
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        per_recipe = (3 * dim**2 + dim) * 8 + 4096
        assert retained <= per_recipe < 2 * 3 * dim**2 * 8


class TestModelCache:
    def test_second_conditional_mean_does_no_factorization(self, calls):
        model = _dense_model()
        x = CoeffVector(np.linspace(-1.0, 1.0, model.dim))
        first = conditional_mean(model, x)
        assert calls["eigh"] + calls["eigvalsh"] >= 1
        before = dict(calls)
        second = conditional_mean(model, x)
        assert calls == before
        np.testing.assert_array_equal(first.coeffs, second.coeffs)

    def test_hs_diagnostics_reads_the_cached_factorization(self, calls):
        model = _dense_model(seed=2)
        regression_slope(model)
        before = dict(calls)
        report = hs_diagnostics(model)
        assert calls == before
        assert report.injective
        inv_root = psd_inverse(add(model.sigma_u, qv(model)), 0.5)[0]
        expected = np.linalg.norm(compose(qv(model), inv_root).as_matrix())
        assert report.hs_norm == pytest.approx(expected, rel=1e-13)

    def test_cached_slope_is_bitwise_the_formula(self):
        model = _dense_model(seed=1)
        q = qv(model)
        expected = compose(q, psd_inverse(add(model.sigma_u, q))[0])
        np.testing.assert_array_equal(regression_slope(model).stored, expected.stored)
        assert qv(model) is q

    def test_with_y0_keeps_the_factorization(self, calls):
        rng = np.random.default_rng(10)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        model = GaussianModel.build(
            dense_operator((q * np.arange(6.0)) @ q.T),
            dense_operator(_spd(6, rng)),
            dense_operator(_spd(6, rng)),
        )
        before = dict(calls)
        moved = model.with_y0(CoeffVector(2.0 * q[:, 0]))
        assert calls == before
        assert moved.pinv_bundle is model.pinv_bundle
        np.testing.assert_array_equal(moved.y0.coeffs, 2.0 * q[:, 0])
        with pytest.raises(ModelError, match="null space"):
            model.with_y0(CoeffVector(q[:, 1]))

    def test_second_sample_does_no_factorization(self, calls):
        model = _dense_model(seed=5)
        first = sample_joint(model, 50, seed=9)
        assert calls["eigh"] == 2
        second = sample_joint(model, 50, seed=9)
        assert calls["eigh"] == 2
        np.testing.assert_array_equal(first.x, second.x)

    def test_conditional_mean_check_factorizes_five_times(self, calls):
        model = _dense_model(seed=6)
        conditional_mean_check(model, draws=200)
        # The slope's sigma_u + Q_v, the sampler's roots of sigma_u and
        # sigma_v, and the whitening roots of sigma_u + Q_v and Sigma_r.
        assert calls["eigh"] == 5

    def test_rank_deficiency_warns_on_every_call(self):
        model = ramp_model(3, np.array([0.0, 1.0, 1.0]), 1.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            regression_slope(model)
            regression_slope(model)
        hits = [w for w in caught if issubclass(w.category, RankDeficiencyWarning)]
        assert len(hits) == 2


class TestTrendSystem:
    def test_dense_pass_is_one_eigvalsh_and_no_eigh(self, calls):
        rng = np.random.default_rng(2)
        a = dense_operator(rng.standard_normal((5, 5)))
        b = dense_operator(_spd(5, rng))
        solve_filter(FilterProblem(a, CoeffVector(rng.standard_normal(5)), b))
        assert calls["eigvalsh"] == 1
        assert calls["eigh"] == 0

    def test_fail_computes_one_witness(self, calls):
        rng = np.random.default_rng(3)
        a = dense_operator(rng.standard_normal((5, 5)))
        b = dense_operator(_spd(5, rng, -1.0, 1.0))
        with pytest.raises(PositivityError):
            solve_filter(FilterProblem(a, CoeffVector(rng.standard_normal(5)), b))
        # solve_filter raises without a witness: one eigenvalue solve only.
        assert (calls["eigvalsh"], calls["eigh"]) == (1, 0)
        report = positivity_check(a, b)
        assert calls["eigh"] == 1
        assert not report.passed and report.trials == 0
        h = report.witness
        assert np.linalg.norm(h) == pytest.approx(1.0, rel=1e-12)
        value = float((a.stored @ h) @ (b.stored @ (a.stored @ h)))
        assert value == pytest.approx(report.min_value, rel=1e-9)

    def test_nonnegative_diagonal_needs_no_eigensolver(self, calls):
        a = diagonal_operator([1.0, 2.0, 3.0])
        report = positivity_check(a, diagonal_operator([0.0, 1.0, 2.0]))
        assert report.passed and report.witness is None
        assert calls == {"eigh": 0, "eigvalsh": 0, "svd": 0}

    def test_second_solve_on_the_same_pair_runs_no_eigensolver(self, calls):
        rng = np.random.default_rng(4)
        a = dense_operator(rng.standard_normal((5, 5)))
        b = dense_operator(_spd(5, rng))
        x = CoeffVector(rng.standard_normal(5))
        first = solve_filter(FilterProblem(a, x, b))
        assert calls["eigvalsh"] == 1
        second = solve_filter(FilterProblem(a, x, b))
        assert calls["eigvalsh"] == 1 and calls["eigh"] == 0
        assert first.coeffs.tobytes() == second.coeffs.tobytes()

    def test_equal_values_are_certified_again(self, calls):
        rng = np.random.default_rng(5)
        amat, bmat = rng.standard_normal((5, 5)), _spd(5, rng)
        x = CoeffVector(rng.standard_normal(5))
        solve_filter(FilterProblem(dense_operator(amat), x, dense_operator(bmat)))
        assert calls["eigvalsh"] == 1
        solve_filter(FilterProblem(dense_operator(amat), x, dense_operator(bmat)))
        assert calls["eigvalsh"] == 2

    def test_failing_pair_raises_the_same_error_from_one_eigensolve(self, calls):
        rng = np.random.default_rng(3)
        a = dense_operator(rng.standard_normal((5, 5)))
        b = dense_operator(_spd(5, rng, -1.0, 1.0))
        x = CoeffVector(rng.standard_normal(5))
        messages = []
        for _ in range(2):
            with pytest.raises(PositivityError) as caught:
                solve_filter(FilterProblem(a, x, b))
            messages.append(str(caught.value))
        assert messages[0] == messages[1]
        assert calls["eigvalsh"] + calls["eigh"] == 1
        # The message quotes the least eigenvalue that the witness route
        # (positivity_check) reports.
        witnessed = positivity_check(a, b)
        assert messages[0] == (
            "smoothing operator fails nonnegativity "
            f"(minimum quadratic form {witnessed.min_value:.3e})"
        )

    def test_dropped_pair_leaves_nothing_cached(self):
        rng = np.random.default_rng(6)
        a = dense_operator(rng.standard_normal((5, 5)))
        b = dense_operator(_spd(5, rng))
        solve_filter(FilterProblem(a, CoeffVector(rng.standard_normal(5)), b))
        assert a in _VERDICTS[b]
        refs = [weakref.ref(a), weakref.ref(b), weakref.ref(_VERDICTS[b])]
        del a, b
        gc.collect()
        assert [ref() for ref in refs] == [None, None, None]

    def test_positivity_check_is_not_cached(self, calls):
        rng = np.random.default_rng(7)
        a = dense_operator(rng.standard_normal((5, 5)))
        b = dense_operator(_spd(5, rng))
        solve_filter(FilterProblem(a, CoeffVector(rng.standard_normal(5)), b))
        assert calls["eigvalsh"] == 1
        positivity_check(a, b)
        positivity_check(a, b)
        assert calls["eigvalsh"] == 3


class TestMoorePenroseCheck:
    @pytest.mark.parametrize("make", [lambda: ramp_model(64, 1.0, 1.0), _dense_model])
    def test_reads_the_factorization_the_model_has(self, calls, make):
        model = make()
        before = dict(calls)
        assert mp_residual_suite(model).status == "PASS"
        assert calls == before

    def test_diagonal_check_allocates_no_matrix(self):
        model = ramp_model(4096, 1.0, 1.0)
        tracemalloc.start()
        try:
            result = mp_residual_suite(model)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.status == "PASS"
        # One 4096 x 4096 matrix would be 134 MB.
        assert peak < 1_000_000
