"""Spectral weight scales, rescaled covariances, and the white-noise limit.

The rescaled covariances exist as frame cores (``scales.rescaled_cores``);
the scaled smoother built from them is checked against a numpy frame
formula, refusals included, on a grid of spectral, rotated, rectangular,
kernel and multiplication models."""

import dataclasses
import itertools
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ophp import (
    CoeffVector,
    GaussianModel,
    SingularCovarianceError,
    dense_operator,
    diagonal_operator,
    kernel_operator,
    optimal_b,
    pinv,
    scaled_optimal_b,
    trace_class_threshold,
)
from ophp.cli import main
from ophp.gaussian import DecayDeclaration
from ophp.instances import laplacian_multipliers, ramp_multipliers, seeded_sigmas
from ophp.operators import BASIS_SINE, rounding_bound
from ophp import scales
from ophp.scales import rescaled_cores, scale_index
from ophp.specs import load_config, operator_to_json

from oracles import (
    dual_norm,
    laplacian_model,
    laplacian_operator,
    multiplication_model,
    qv,
    ramp_model,
    ramp_operator,
    scale_norm,
    scaled_smoother_reference,
    tail_ratio,
    two_requirement_threshold,
)


def _scale_json(tmp_path, op, n: int, sigma_u=1.0, sigma_v=1.0) -> dict:
    """What ``ophp scale`` writes for ``op`` at index n, with diagonal
    covariances (unit ones by default)."""
    dim = op.stored.shape[-1]
    config = tmp_path / f"config-{n}.json"
    config.write_text(json.dumps({
        "operator": operator_to_json(op),
        "sigma_u": {"kind": "diagonal", "values": np.broadcast_to(sigma_u, dim).tolist()},
        "sigma_v": {"kind": "diagonal", "values": np.broadcast_to(sigma_v, dim).tolist()},
        "truncation_dim": dim,
        "seed": 0,
        "scale": {"n": n},
    }))
    out = tmp_path / f"out-{n}"
    assert main(["scale", "--config", str(config), "--out", str(out)]) == 0
    return json.loads((out / "scale.json").read_text())


class TestScaleWeights:
    """``scale`` writes the components ``pinv`` keeps, their squared singular
    values kappa and the weights kappa**n."""

    def test_ramp_weights(self, tmp_path):
        bundle = pinv(ramp_operator(5))
        np.testing.assert_array_equal(bundle.retained, [1, 2, 3, 4])
        np.testing.assert_allclose(bundle.singular_values**2, [4.0, 9.0, 16.0, 25.0])
        written = _scale_json(tmp_path, ramp_operator(5), 1)
        assert written["indices"] == [1, 2, 3, 4]
        assert written["kappa"] == (bundle.singular_values**2).tolist()
        assert written["weights"] == written["kappa"]

    def test_zero_index_gives_unit_weights(self, tmp_path):
        written = _scale_json(tmp_path, ramp_operator(5), 0)
        assert written["weights"] == [1.0] * 4

    def test_laplacian_weights(self, tmp_path):
        kappa = pinv(laplacian_operator(3)).singular_values**2
        n = np.arange(1, 4, dtype=float)
        np.testing.assert_allclose(kappa, (n * np.pi) ** 4, rtol=1e-12)
        written = _scale_json(tmp_path, laplacian_operator(3), 2)
        assert written["kappa"] == kappa.tolist()
        assert written["weights"] == (kappa**2.0).tolist()

    def test_dense_weights_in_singular_value_rank(self, tmp_path):
        op = dense_operator(np.diag([1.0, 2.0]))
        bundle = pinv(op)
        np.testing.assert_array_equal(bundle.retained, [0, 1])
        np.testing.assert_allclose(bundle.singular_values**2, [4.0, 1.0])
        written = _scale_json(tmp_path, op, 1)
        assert written["indices"] == [0, 1]
        assert written["kappa"] == (bundle.singular_values**2).tolist()

    def test_norm_duality(self):
        bundle = pinv(ramp_operator(5))
        rng = np.random.default_rng(0)
        for _ in range(20):
            coeffs = np.zeros(5)
            coeffs[1:] = rng.standard_normal(4)  # supported on the range
            h = CoeffVector(coeffs)
            lower = dual_norm(2, bundle, h) * scale_norm(2, bundle, h)
            assert lower >= h.norm() ** 2 - 1e-10
        single = np.zeros(5)
        single[2] = 1.7
        h = CoeffVector(single)
        product = dual_norm(2, bundle, h) * scale_norm(2, bundle, h)
        assert product == pytest.approx(h.norm() ** 2, rel=1e-12)

    def test_dense_norms_match_diagonal(self):
        # Dense weights are indexed by singular-value rank, so the
        # coefficients must be rotated into that order before weighting.
        diag_bundle = pinv(diagonal_operator([1.0, 2.0]))
        bundle = pinv(dense_operator(np.diag([1.0, 2.0])))
        for coeffs in ([1.0, 0.0], [0.0, 1.0], [0.3, -1.2]):
            h = CoeffVector(coeffs)
            for norm in (dual_norm, scale_norm):
                assert norm(1, bundle, h) == pytest.approx(
                    norm(1, diag_bundle, h), rel=1e-12
                )

    def test_null_space_has_zero_dual_norm(self):
        bundle = pinv(ramp_operator(4))
        y0 = CoeffVector([3.0, 0.0, 0.0, 0.0])
        assert dual_norm(1, bundle, y0) == 0.0

    def test_keeps_the_components_pinv_keeps(self, tmp_path):
        # The cutoff of pinv(A) is eps * dim times the largest singular
        # value, about 1.8e-15 here: 1e-17 lies below it and 1e-12 above it.
        spectrum = [1e-17, 1.0, 1e-12, 2.0]
        op = diagonal_operator(spectrum)
        bundle = pinv(op)
        assert bundle.numerical_rank == 3
        np.testing.assert_array_equal(bundle.retained, [1, 2, 3])
        np.testing.assert_array_equal(
            bundle.retained, np.nonzero(bundle.projector_pi.stored)[0]
        )
        np.testing.assert_array_equal(bundle.singular_values**2, [1.0, 1e-24, 4.0])
        written = _scale_json(tmp_path, op, 1)
        assert written["indices"] == [1, 2, 3]
        assert written["kappa"] == [1.0, 1e-24, 4.0]
        # A dense operator with the same spectrum, rotated: pinv keeps the
        # leading numerical_rank right singular vectors.
        q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((4, 4)))
        rotated = dense_operator(q @ np.diag(spectrum) @ q.T)
        bundle = pinv(rotated)
        assert bundle.numerical_rank == 3
        np.testing.assert_array_equal(bundle.retained, [0, 1, 2])
        np.testing.assert_allclose(
            bundle.singular_values**2, [4.0, 1.0, 1e-24], rtol=1e-3
        )
        rotation = bundle.svd[2]
        kept = rotation[:3].T @ rotation[:3]
        np.testing.assert_allclose(kept, bundle.projector_pi.stored, atol=1e-12)
        assert _scale_json(tmp_path, rotated, 0)["indices"] == [0, 1, 2]


class TestRescaledCovariances:
    """The rescaled covariances as frame cores ``w C w``, ``w = S^(-2n)``,
    and as ``scale`` writes them for a diagonal model: the cores placed on
    the retained components, or the model's own covariances at n = 0."""

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            scaled_optimal_b(ramp_model(3, 1.0, 1.0), -1)

    def test_zero_index_is_bit_identical(self, tmp_path):
        model = ramp_model(4, 1.0, 2.0)
        assert scaled_optimal_b(model, 0) is optimal_b(model)
        written = _scale_json(tmp_path, ramp_operator(4), 0, 1.0, 2.0)
        # The null component of sigma_u included.
        assert written["sigma_u_rescaled"] == [1.0] * 4
        assert written["sigma_v_rescaled"] == [2.0] * 4

    def test_white_noise_ramp(self, tmp_path):
        sigma_u = 0.8
        model = ramp_model(5, sigma_u, 1.0)
        su, _ = rescaled_cores(model, 1)
        j = np.arange(2, 6, dtype=float)
        np.testing.assert_allclose(su, sigma_u / j**4, rtol=1e-12)
        written = _scale_json(tmp_path, ramp_operator(5), 1, sigma_u)
        assert written["sigma_u_rescaled"] == [0.0, *su.tolist()]

    def test_laplacian_entries(self):
        sigma_v = 0.6
        dim = 4
        model = laplacian_model(dim, 1.0, sigma_v)
        _, sv = rescaled_cores(model, 1)
        n = np.arange(1, dim + 1, dtype=float)
        np.testing.assert_allclose(sv, sigma_v / (n * np.pi) ** 8, rtol=1e-12)

    def test_dense_agrees_with_diagonal(self, tmp_path):
        dim = 4
        rng = np.random.default_rng(1)
        su = rng.uniform(0.5, 2.0, dim)
        sv = rng.uniform(0.5, 2.0, dim)
        diag_model = ramp_model(dim, su, sv)
        dense_model = GaussianModel.build(
            dense_operator(diag_model.a.as_matrix()),
            dense_operator(np.diag(su)),
            dense_operator(np.diag(sv)),
        )
        # The dense cores, in singular-value order, back in the ambient basis.
        u, _, vt = dense_model.pinv_bundle.svd
        r = dense_model.pinv_bundle.numerical_rank
        su_d, sv_d = rescaled_cores(dense_model, 1)
        written = _scale_json(tmp_path, diag_model.a, 1, su, sv)
        np.testing.assert_allclose(
            vt[:r].T @ su_d @ vt[:r], np.diag(written["sigma_u_rescaled"]), atol=1e-12
        )
        np.testing.assert_allclose(
            u[:, :r] @ sv_d @ u[:, :r].T, np.diag(written["sigma_v_rescaled"]), atol=1e-12
        )
        np.testing.assert_allclose(
            scaled_optimal_b(dense_model, 1).as_matrix(),
            np.diag(written["scaled_bhat_multipliers"]),
            atol=1e-12,
        )


class TestTraceClassThreshold:
    def test_white_noise_on_ramp_spectrum(self):
        decl = DecayDeclaration(kappa_decay=2.0, sigma_u_decay=0.0, sigma_v_decay=0.0)
        assert trace_class_threshold(decl) == 1

    def test_already_trace_class(self):
        decl = DecayDeclaration(kappa_decay=2.0, sigma_u_decay=2.0, sigma_v_decay=2.0)
        assert trace_class_threshold(decl) == 0

    def test_bounded_spectrum_never_summable(self):
        decl = DecayDeclaration(kappa_decay=0.0, sigma_u_decay=0.0, sigma_v_decay=0.0)
        assert trace_class_threshold(decl) is None

    def test_slower_decaying_covariance_decides(self):
        for u, v in ((2.0, 0.0), (0.0, 2.0)):
            decl = DecayDeclaration(kappa_decay=2.0, sigma_u_decay=u, sigma_v_decay=v)
            assert trace_class_threshold(decl) == 1

    def test_equals_the_two_requirement_rule_on_a_grid(self):
        # Every sign, the float range's edges, the tiny kappa_decay whose
        # quotient overflows, a quotient at MAX_SCALE_N exactly (1/128) and
        # just above it (0.0078), and NaN in each position: min() alone
        # orders NaN wrongly.
        values = [-math.inf, -5.0, -0.5, 0.0, 5e-324, 1e-300, 1 / 128, 0.0078,
                  0.5, 1.0, 1.0 + 1e-7, 2.0, 1e300, math.inf, math.nan]
        mismatches = [
            decl for decl in itertools.starmap(
                DecayDeclaration, itertools.product(values, repeat=3)
            )
            if trace_class_threshold(decl) != two_requirement_threshold(decl)
        ]
        assert mismatches == []

    @given(*[st.floats(allow_nan=True, allow_infinity=True)] * 3)
    @example(1.0, 0.0, math.nan)
    @example(1.0, math.nan, 0.0)
    @example(5e-324, 0.0, 2.0)
    def test_equals_the_two_requirement_rule(self, p, u, v):
        decl = DecayDeclaration(kappa_decay=p, sigma_u_decay=u, sigma_v_decay=v)
        assert trace_class_threshold(decl) == two_requirement_threshold(decl)


class TestScaleIndex:
    def test_configured_index_comes_before_the_threshold(self):
        decl = DecayDeclaration(kappa_decay=2.0, sigma_u_decay=0.0, sigma_v_decay=0.0)
        assert scale_index(None, decl) == (1, 1)
        assert scale_index(0, decl) == (0, 1)
        assert scale_index(3, None) == (3, None)
        assert scale_index(None, None) == (None, None)

    def test_no_finite_threshold(self):
        decl = DecayDeclaration(kappa_decay=0.0, sigma_u_decay=0.0, sigma_v_decay=0.0)
        assert scale_index(None, decl) == (None, None)
        assert scale_index(2, decl) == (2, None)


class TestScaledOptimalB:
    def test_white_noise_reduces_to_ratio(self):
        sigma_u, sigma_v = 2.0, 0.5
        for model, n0 in (
            (ramp_model(6, sigma_u, sigma_v), 1),
            (laplacian_model(6, sigma_u, sigma_v), 1),
        ):
            for n in range(n0, n0 + 4):
                scaled = scaled_optimal_b(model, n)
                mask = model.pinv_bundle.range_projector.stored > 0.5
                mult = scaled.stored[mask]
                assert np.ptp(mult) < 1e-12
                np.testing.assert_allclose(mult, sigma_u / sigma_v, rtol=1e-12)

    @pytest.mark.parametrize("white", [False, True])
    def test_a_scale_request_forms_the_rescaled_cores_once(self, tmp_path, monkeypatch, white):
        # The dim-64 ramp example at its least trace-class index, n = 1; and
        # a white-noise ramp, whose white-noise check reads the same smoother.
        calls = []
        original = scales.rescaled_cores

        def counted(model, n):
            calls.append(n)
            return original(model, n)

        # Every module that holds the function, so an import of it counts too.
        for name, module in list(sys.modules.items()):
            if name.startswith("ophp") and getattr(module, "rescaled_cores", None) is original:
                monkeypatch.setattr(module, "rescaled_cores", counted)
        if white:
            doc = _scale_json(tmp_path, diagonal_operator(ramp_multipliers(64)), 1)
            assert doc["white_noise_check"]["status"] == "PASS"
        else:
            example = tmp_path / "example"
            assert main(["example", "--which", "1", "--dim", "64", "--out", str(example)]) == 0
            out = tmp_path / "out"
            assert main(["scale", "--config", str(example / "config.json"),
                         "--out", str(out)]) == 0
            assert json.loads((out / "scale.json").read_text())["n"] == 1
        assert calls == [1]

    def test_zero_index_matches_unscaled(self):
        dim = 5
        rng = np.random.default_rng(2)
        model = ramp_model(dim, rng.uniform(0.5, 2.0, dim), rng.uniform(0.5, 2.0, dim))
        np.testing.assert_array_equal(
            scaled_optimal_b(model, 0).stored, optimal_b(model).stored
        )

    def test_four_factor_assembly_oracle(self):
        # Direct term-by-term assembly: pinv* then rescaled sigma_u then the
        # operator adjoint then the rescaled sigma_v inverse, per component.
        dim = 5
        j = np.arange(1, dim + 1, dtype=float)
        model = ramp_model(dim, 1.0, j**2)
        n = 1
        scaled = scaled_optimal_b(model, n)
        a = model.a.stored
        pinv_mult = model.pinv_bundle.pinv.stored
        kappa = np.where(a > 0, a**2, np.inf)
        su_tilde = 1.0 / kappa ** (2 * n)
        sv_tilde = j**2 / kappa ** (2 * n)
        expected = np.where(
            a > 0, pinv_mult * su_tilde * a / np.where(a > 0, sv_tilde, 1.0), 0.0
        )
        np.testing.assert_allclose(scaled.stored, expected, rtol=1e-12)
        # On the range this collapses to sigma_u / sigma_v = 1/j^2.
        np.testing.assert_allclose(
            scaled.stored[1:], 1.0 / j[1:] ** 2, rtol=1e-12
        )

    def test_smoother_has_one_route(self, tmp_path):
        # The scaled smoother is optimal_b of the model with the rescaled
        # covariances that `scale` writes, bit for bit, in the library and
        # in what `scale` writes.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "operator": {"kind": "diagonal", "multipliers": [0.0, 2.0, 3.0, 4.0]},
            "sigma_u": {"kind": "diagonal", "values": [1.5] * 4},
            "sigma_v": {"kind": "diagonal", "values": [0.5] * 4},
            "truncation_dim": 4,
            "seed": 0,
            "scale": {"n": 1},
        }))
        model = load_config(config).model
        assert main(["scale", "--config", str(config), "--out", str(tmp_path)]) == 0
        written = json.loads((tmp_path / "scale.json").read_text())
        su, sv = (
            diagonal_operator(written[f"sigma_{c}_rescaled"]) for c in ("u", "v")
        )
        direct = optimal_b(dataclasses.replace(model, sigma_u=su, sigma_v=sv)).stored
        assert np.array_equal(scaled_optimal_b(model, 1).stored, direct)
        assert np.array_equal(written["scaled_bhat_multipliers"], direct)


def _spectral(family: str, dim: int, noise: str, storage: str) -> GaussianModel:
    """The ramp or Laplacian spectrum with white (1.5, 0.5) or coloured
    covariances, as diagonal operators or rotated by one orthogonal matrix."""
    mult = ramp_multipliers(dim) if family == "ramp" else laplacian_multipliers(dim)
    if noise == "white":
        su, sv = np.full(dim, 1.5), np.full(dim, 0.5)
    else:
        su, sv = seeded_sigmas(dim, dim)
    if storage == "diagonal":
        return GaussianModel.build(
            *(diagonal_operator(m, BASIS_SINE) for m in (mult, su, sv))
        )
    q, _ = np.linalg.qr(np.random.default_rng(dim + 1).standard_normal((dim, dim)))
    return GaussianModel.build(
        *(dense_operator((q * m) @ q.T, BASIS_SINE) for m in (mult, su, sv))
    )


def _second_difference(n: int) -> GaussianModel:
    """The (n - 2) x n second difference with sigma_u = 1600 I, sigma_v = I."""
    d = np.zeros((n - 2, n))
    for i in range(n - 2):
        d[i, i : i + 3] = (1.0, -2.0, 1.0)
    return GaussianModel.build(
        dense_operator(d),
        diagonal_operator(np.full(n, 1600.0)),
        diagonal_operator(np.ones(n - 2)),
    )


def _green(dim: int) -> GaussianModel:
    su, sv = seeded_sigmas(dim, dim + 2)
    return GaussianModel.build(
        kernel_operator("dirichlet_green", dim, grid_points=512),
        diagonal_operator(su, BASIS_SINE),
        diagonal_operator(sv, BASIS_SINE),
    )


SWEEP = {
    **{
        f"{family}-{storage}-{noise}-{dim}": (
            lambda f=family, d=dim, c=noise, s=storage: _spectral(f, d, c, s)
        )
        for family in ("ramp", "laplacian")
        for dim in (16, 64, 256)
        for noise in ("white", "coloured")
        for storage in ("rotated", "diagonal")
    },
    **{f"second-difference-{n}": (lambda n=n: _second_difference(n)) for n in (100, 256)},
    **{f"green-{dim}": (lambda d=dim: _green(d)) for dim in (64, 128, 256)},
    **{f"chi-{dim}": (lambda d=dim: multiplication_model("chi", d)) for dim in (16, 64)},
}


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("name", list(SWEEP))
def test_scaled_smoother_matches_the_numpy_frame_formula(name, n):
    # The smoother refuses exactly where numpy's eigvalsh of the rescaled
    # sigma_v core w C_v w keeps fewer than r eigenvalues above EIG_RTOL
    # times the largest (where the core is 1-d: an entry at or below the
    # least normal float); elsewhere it matches the numpy frame formula.
    # Measured on this grid: errors up to 0.9 eps (s_max / s_min)^(4n) of
    # the largest entry, the spread of w^2; 4e-16 for the diagonal models.
    model = SWEEP[name]()
    reference = scaled_smoother_reference(model, n)
    if reference is None:
        with pytest.raises(SingularCovarianceError, match="sigma_v is singular on"):
            scaled_optimal_b(model, n)
        return
    s = model.pinv_bundle.singular_values
    spread = (s.max() / s.min()) ** (4 * n)
    got = scaled_optimal_b(model, n).as_matrix()
    top = np.abs(reference).max()
    assert np.abs(got - reference).max() <= rounding_bound(top, spread)


class TestTailRatio:
    def test_summable_tail_is_flat(self):
        n = np.arange(1, 20_001, dtype=float)
        assert tail_ratio(n**-4.0) < 0.05

    def test_flat_terms_double(self):
        assert tail_ratio(np.ones(20_000)) == pytest.approx(1.0)

    def test_threshold_agrees_with_partial_sums(self):
        # White noise on the ramp spectrum: rescaled entries decay like
        # j**(-4n); at the threshold the tail flattens, below it the partial
        # sums keep growing.
        decl = DecayDeclaration(kappa_decay=2.0, sigma_u_decay=0.0, sigma_v_decay=0.0)
        n0 = trace_class_threshold(decl)
        assert n0 == 1
        j = np.arange(1, 20_001, dtype=float)
        assert tail_ratio(j ** (-4.0 * n0)) < 0.05
        assert tail_ratio(j ** (-4.0 * 0)) > 0.5

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            tail_ratio(np.ones(7))


class TestScaledModelDiagnostics:
    def test_rescaled_model_is_valid_and_trace_class_like(self):
        # The rescaled covariances define a legitimate model with zero mean,
        # whose Q_v has no more trace than its sigma_u.
        model = ramp_model(6, 1.0, 1.0)
        su, sv = map(model.pinv_bundle.extend, rescaled_cores(model, 1))
        scaled_model = GaussianModel.build(model.a, su, sv)
        assert np.trace(qv(scaled_model)) <= np.trace(su.as_matrix())
