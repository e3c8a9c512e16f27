"""Validation-suite checks and report structure."""

import dataclasses
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from ophp import GaussianModel, dense_operator, diagonal_operator, kernel_operator
from ophp import validate
from ophp.cli import main
from ophp.gaussian import (
    DecayDeclaration,
    conditional_whitening,
    regression_slope,
    sample_joint_blocks,
)
from ophp.instances import laplacian_multipliers, ramp_multipliers, seeded_sigmas
from ophp.operators import BASIS_SINE, rounding_bound
from ophp.scales import scale_index
from ophp.validate import (
    CM_ALPHA,
    FAIL,
    PASS,
    SKIP,
    commutation_check,
    conditional_mean_check,
    gap_check,
    mp_residual_suite,
    run_validation,
    white_noise_scale_check,
)

from oracles import laplacian_model, multiplication_model, qv, ramp_model, scaled


def _noncommuting_model(dim=3):
    rng = np.random.default_rng(0)
    m = rng.standard_normal((dim, dim))
    sigma = dense_operator(m @ m.T)
    mult = np.arange(1, dim + 1, dtype=float)
    mult[0] = 0.0
    return GaussianModel.build(
        diagonal_operator(mult), sigma, diagonal_operator(np.ones(dim))
    )


def _rotated(q, *diagonals):
    return [dense_operator((q * d) @ q.T) for d in diagonals]


def _rotation(dim, seed=11):
    q, _ = np.linalg.qr(np.random.default_rng([301, seed]).standard_normal((dim, dim)))
    return q


def _second_difference(n):
    """The (n - 2) x n second difference scaled by 1/h^2: a closed range and
    a largest singular value of about 4/h^2."""
    h = 1.0 / (n - 1)
    d = np.eye(n - 2, n) - 2.0 * np.eye(n - 2, n, 1) + np.eye(n - 2, n, 2)
    return dense_operator(d / h**2)


def _mp_model(name):
    kind, dim = name.rsplit("-", 1)
    dim = int(dim)
    su, sv = seeded_sigmas(dim, 301)
    if kind == "ramp":
        return ramp_model(dim, su, sv)
    if kind == "lap":
        return laplacian_model(dim, su, sv)
    if kind.startswith("rotated"):
        mult = ramp_multipliers if kind == "rotated-ramp" else laplacian_multipliers
        return GaussianModel.build(*_rotated(_rotation(dim), mult(dim), su, sv))
    if kind == "green":
        eye = dense_operator(np.eye(dim), BASIS_SINE)
        return GaussianModel.build(kernel_operator("dirichlet_green", dim), eye, eye)
    a = _second_difference(dim)
    return GaussianModel.build(
        a, diagonal_operator(np.ones(dim)), diagonal_operator(np.ones(dim - 2))
    )


MP_MODELS = (
    [f"{k}-{d}" for k in ("ramp", "lap") for d in (64, 128, 256, 512, 1024)]
    + [f"{k}-{d}" for k in ("rotated-ramp", "rotated-lap") for d in (64, 128)]
    + ["green-64", "green-128", "green-256", "second-difference-256"]
    + ["second-difference-1024"]
)


@pytest.mark.parametrize("name", MP_MODELS)
def test_mp_residual_suite_passes_and_fails_on_scaled_pinv(name):
    # Correct models read at most 0.12 of the bound (dense-64 of the
    # benchmark); a pinv off by 1e-6 reads at least 962 times it (Laplacian
    # at 1024, where cond(A) is 1.05e6).
    model = _mp_model(name)
    result = mp_residual_suite(model)
    assert result.status == PASS, result.details
    assert result.details["worst_over_bound"] < 0.2
    bundle = dataclasses.replace(
        model.pinv_bundle,
        pinv=scaled(model.pinv_bundle.pinv, 1.0 + 1e-6),
    )
    result = mp_residual_suite(dataclasses.replace(model, pinv_bundle=bundle))
    assert result.status == FAIL
    assert result.details["worst_over_bound"] > 100.0


def test_mp_residual_suite_details():
    model = _mp_model("lap-64")
    details = mp_residual_suite(model).details
    assert details["numerical_rank"] == 64
    assert details["cond"] == pytest.approx(64.0**2, rel=1e-12)
    assert details["worst_identity"] in {
        "reconstruct",
        "pinv_reconstruct",
        "range_symmetry",
        "null_symmetry",
        "projector_idempotence",
        "projector_symmetry",
    }
    assert 0.0 <= details["worst_over_bound"] <= 1.0


@pytest.mark.parametrize("kind", ["diagonal", "dense"])
def test_mp_residual_suite_passes_on_zero_operator(kind):
    a = diagonal_operator(np.zeros(4))
    if kind == "dense":
        a = dense_operator(np.zeros((4, 4)))
    ones = diagonal_operator(np.ones(4))
    result = mp_residual_suite(GaussianModel.build(a, ones, ones))
    assert result.status == PASS
    assert result.details == {
        "numerical_rank": 0,
        "cond": 1.0,
        "worst_identity": "reconstruct",
        "worst_over_bound": 0.0,
    }


def test_commutation_check_detects_violation():
    model = _noncommuting_model()
    result = commutation_check(model)
    assert result.status == FAIL
    assert result.details["commutator_norm"] > 1e-6


@pytest.mark.parametrize("dim, factor", [(128, 1e4), (64, 1e6), (256, 1.0), (512, 1.0)])
def test_commutation_check_is_relative_on_commuting_models(dim, factor):
    # Covariances rotated like A commute with its projector; the commutator
    # is rounding, 1.3e-10 at dim 128 with sigma_u scaled by 1e4, which is
    # 0.35 eps of |sigma_u|_F |P|_F.
    su, sv = seeded_sigmas(dim, 301)
    model = GaussianModel.build(
        *_rotated(_rotation(dim), ramp_multipliers(dim), factor * su, sv)
    )
    result = commutation_check(model)
    assert result.status == PASS
    bound = rounding_bound(np.linalg.norm(model.sigma_u.stored)) * np.sqrt(dim)
    assert list(result.details) == ["commutator_norm"]
    assert 0.0 <= result.details["commutator_norm"] <= bound


def test_commutation_check_fails_on_tiny_noncommuting_covariance():
    # The commutator is 1.6e-12 in absolute terms but of the size of sigma_u.
    model = _noncommuting_model()
    small = GaussianModel.build(
        model.a, scaled(model.sigma_u, 1e-12), model.sigma_v
    )
    result = commutation_check(small)
    assert result.status == FAIL
    assert result.details["commutator_norm"] < 1e-10


_LEAKY_IDENTITY = np.eye(4)
_LEAKY_IDENTITY[0, 3] = _LEAKY_IDENTITY[3, 0] = 0.1


@pytest.mark.parametrize(
    "a, sigma_u, scale, status",
    [
        # Rank 0: |sigma_u|_F overflowed, and the bound was inf * 0 = NaN.
        (np.zeros((3, 3)), np.eye(3), 1e300, PASS),
        # The commutator's norm overflowed to inf, within an inf bound.
        (np.diag([1.0, 1.0, 0.0]), [[1, 0, 0.1], [0, 1, 0], [0.1, 0, 1]], 1e200, FAIL),
        # |sigma_u|_F overflowed at rank 3, and an inf bound passed a finite
        # commutator of 1.41e307.
        (np.diag([1.0, 1.0, 1.0, 0.0]), _LEAKY_IDENTITY, 1e308, FAIL),
    ],
)
def test_commutation_verdict_does_not_depend_on_overflow(a, sigma_u, scale, status):
    ones = diagonal_operator(np.ones(len(a)))
    results = [
        commutation_check(GaussianModel.build(
            dense_operator(a), dense_operator(factor * np.asarray(sigma_u)), ones
        ))
        for factor in (1.0, scale)
    ]
    assert [r.status for r in results] == [status, status]
    twin, scaled = (r.details["commutator_norm"] for r in results)
    assert np.isfinite(scaled)
    assert scaled == pytest.approx(scale * twin, rel=1e-12)


def test_commutation_bound_of_a_rank_zero_model_beyond_the_float_range():
    # |sigma_u|_F = 2e308 is inf, and the bound was inf * sqrt(0) = NaN.
    model = GaussianModel.build(
        dense_operator(np.zeros((4, 4))),
        diagonal_operator(np.full(4, 1e308)),
        diagonal_operator(np.ones(4)),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = commutation_check(model)
    assert result.status == PASS
    assert result.details == {"commutator_norm": 0.0}


def test_conditional_mean_check_passes_on_ramp():
    su, sv = seeded_sigmas(4, 5)
    model = ramp_model(4, su, sv)
    result = conditional_mean_check(model, draws=20_000, seed=9)
    assert result.status == PASS
    details = result.details
    # sigma_u + Q_v has full rank 4; Sigma_r vanishes on the null space of A.
    assert details["draws"] == 20_000
    assert details["df"] == 4 * 3
    assert details["alpha"] == CM_ALPHA
    assert details["chi2"] > 0.0
    assert max(abs(details["wh_z"]), abs(details["trace_z"])) <= details["z_threshold"]
    assert 0.0 < details["max_abs_z"] <= details["sidak_threshold"]
    assert details["structural_max_abs_z"] <= details["structural_threshold"]


def test_conditional_mean_check_reads_structural_entries_on_the_range_when_dense():
    # The non-commuting model: A = diag(0, 2, 3) with a dense sigma_u.  Its
    # Z_jj are read on the two range coordinates, as on any model.
    model = _noncommuting_model()
    details = conditional_mean_check(model, draws=2_000, seed=4).details
    assert 0.0 < details["structural_max_abs_z"] <= details["structural_threshold"]
    assert details["structural_threshold"] == validate._sidak_threshold(CM_ALPHA / 4, 2)
    assert details["df"] == 3 * 2


def test_conditional_mean_of_a_noncommuting_model_is_the_ambient_formula():
    # G = Sigma_rn C_n^+ carries the range noise's correlation with the null
    # coordinate; the slope is Q_v (sigma_u + Q_v)^-1 to rounding.
    model = _noncommuting_model()
    q = qv(model)
    expected = q @ np.linalg.inv(model.sigma_u.stored + q)
    np.testing.assert_allclose(regression_slope(model).stored, expected, rtol=0, atol=1e-15)


# ---------------------------------------------------------------------------
# Calibration of the conditional-mean test on correct models
# ---------------------------------------------------------------------------


def _bench_validate_models(seed):
    """The models of the benchmark's validate workload at one seed."""
    models = {}
    for name, dim in (("ramp-64", 64), ("lap-64", 64), ("ramp-256", 256)):
        su, sv = seeded_sigmas(dim, seed)
        if name.startswith("lap"):
            models[name] = laplacian_model(dim, su, sv)
        else:
            models[name] = ramp_model(dim, su, sv)
    q, _ = np.linalg.qr(np.random.default_rng([seed, 11]).standard_normal((64, 64)))
    su, sv = seeded_sigmas(64, [seed, 12])
    models["dense-64"] = GaussianModel.build(
        *(dense_operator((q * d) @ q.T) for d in (ramp_multipliers(64), su, sv))
    )
    return models


MULTIPLIERS = ("chi", "one-plus-t")
CALIBRATION = [(None, dim) for dim in (8, 32, 64, 128, 256, 512)] + [
    (weight, dim) for weight in MULTIPLIERS for dim in (16, 32, 64, 128, 256)
]


@pytest.mark.parametrize(
    "weight, dim",
    CALIBRATION,
    ids=[str(d) if w is None else f"{w}-{d}" for w, d in CALIBRATION],
)
def test_conditional_mean_check_calibrated_across_dims(weight, dim):
    # T's variance inflation 1 + (k_x + k_r + 1) / n reaches 1.05 at dim 512.
    # The multiplication models are the paper's case, bounded with a closed
    # range and not compact; chi[0, 1/2]'s compressions have singular values
    # from rounding to 1, cond(A) up to 1.4e13, so their covariances in the
    # ambient basis spanned cond(A)^2 and the check FAILed them from dim 32.
    if weight is None:
        model = ramp_model(dim, *seeded_sigmas(dim, 11))
    else:
        model = multiplication_model(weight, dim)
    result = conditional_mean_check(model, draws=20_000, seed=11)
    assert result.status == PASS, result.details
    assert result.details["df"] == dim * model.pinv_bundle.numerical_rank


@pytest.mark.parametrize("dense", [False, True], ids=["diagonal", "dense"])
@pytest.mark.parametrize("ratio, df", [(1e-20, 8 * 7), (1e-28, 8 * 7), (1e-40, 0), (1e-200, 0)])
def test_conditional_mean_check_noise_below_the_rounding_of_the_signal(ratio, df, dense):
    # Where sigma_u is below about eps^2 sigma_v, x = y + u rounds u away,
    # so the residual the check forms is rounding or exactly 0; it was
    # whitened at its exact covariance and the check FAILed (wh_z -7.2 at
    # 1e-200).  Residual standard deviations below the rounding bound of
    # y's count as zero, as at 1e-40 here.
    model = ramp_model(8, ratio, 1.0)
    if dense:
        model = GaussianModel.build(
            dense_operator(model.a.as_matrix()),
            dense_operator(model.sigma_u.as_matrix()),
            model.sigma_v,
        )
    result = conditional_mean_check(model, draws=2_000, seed=3)
    assert result.status == PASS, result.details
    assert result.details["df"] == df
    # df = k_x k_r with k_x = 8: the report names the r - k_r range
    # directions the floor dropped.
    assert result.details["residual_dropped"] == 7 - df // 8


def test_a_pass_at_no_degrees_of_freedom_states_its_cause(tmp_path):
    # At sigma_u / sigma_v = 1e-200 the residual of every range direction is
    # below the rounding of the signal: the check tests nothing and PASSes,
    # and validation.json says that all r = 7 directions were dropped.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "operator": {"kind": "diagonal", "multipliers": ramp_multipliers(8).tolist()},
        "sigma_u": {"kind": "diagonal", "values": [1e-200] * 8},
        "sigma_v": {"kind": "diagonal", "values": [1.0] * 8},
        "truncation_dim": 8,
        "seed": 3,
    }))
    assert main(["validate", "--config", str(config), "--out", str(tmp_path)]) == 0
    checks = json.loads((tmp_path / "validation.json").read_text())["checks"]
    check = next(c for c in checks if c["name"] == "conditional-mean-regression")
    assert check["status"] == "PASS"
    assert (check["details"]["df"], check["details"]["residual_dropped"]) == (0, 7)


@pytest.mark.parametrize("seed", range(301, 321))
def test_conditional_mean_check_passes_bench_validate_models(seed):
    # validate runs the check with the config's seed + 1.
    for name, model in _bench_validate_models(seed).items():
        result = conditional_mean_check(model, draws=20_000, seed=seed + 1)
        assert result.status == PASS, (name, result.details)


# ---------------------------------------------------------------------------
# Power: wrong claims FAIL at the default 20k draws
# ---------------------------------------------------------------------------


def _check_claim(monkeypatch, claim, truth=None, slope=None, seed=21):
    """Run the check on the model ``claim`` with the sample drawn from
    ``truth`` and, when given, ``slope`` in place of the claimed slope."""
    if truth is not None:
        monkeypatch.setattr(
            validate,
            "sample_joint_blocks",
            lambda _m, count, seed: sample_joint_blocks(truth, count, seed),
        )
    if slope is not None:
        monkeypatch.setattr(validate, "regression_slope", lambda _m: slope)
    return conditional_mean_check(claim, draws=20_000, seed=seed)


def _passes_entry_families(details):
    return details["max_abs_z"] <= details["sidak_threshold"] and (
        details["structural_max_abs_z"] <= details["structural_threshold"]
    )


def test_power_structural_entry_shifted_by_eight_se(monkeypatch):
    dim, j, n = 64, 10, 20_000
    su, sv = seeded_sigmas(dim, 11)
    model = ramp_model(dim, su, sv)
    s = regression_slope(model).stored
    q = np.diag(qv(model))
    # Standard error of the least-squares slope of y_j on x_j.
    se = np.sqrt((q[j] - s[j] * q[j]) / (n * (su[j] + q[j])))
    shifted = s.copy()
    shifted[j] += 8.0 * se
    result = _check_claim(monkeypatch, model, slope=diagonal_operator(shifted))
    assert result.status == FAIL
    details = result.details
    assert details["structural_max_abs_z"] > details["structural_threshold"]
    # One entry in 4032 degrees of freedom barely moves the aggregates.
    assert abs(details["wh_z"]) < 3.0 and abs(details["trace_z"]) < 3.0


def test_power_dense_slope_rotated_off_its_eigenbasis(monkeypatch):
    dim, n, angle = 8, 20_000, 0.2
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    su, sv = seeded_sigmas(dim, 11)
    model = GaussianModel.build(
        *(dense_operator((q * d) @ q.T) for d in (ramp_multipliers(dim), su, sv))
    )
    slope = regression_slope(model).stored
    givens = np.eye(dim)
    givens[1:3, 1:3] = [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]]
    turn = q @ givens @ q.T
    rotated = turn @ slope @ turn.T
    # The mean of Z moves by sqrt(n) W_x (sigma_u + Q_v) dS^T W_r^T, with
    # the check's whitening operators W_x and W_r.
    white_x, _, white_r, _ = conditional_whitening(model)
    cov_x = model.sigma_u.stored + qv(model)
    moved = white_x.stored @ cov_x @ (rotated - slope).T @ white_r.stored.T
    shift = np.sqrt(n) * np.abs(moved).max()
    assert shift > 6.0
    result = _check_claim(monkeypatch, model, slope=dense_operator(rotated))
    assert result.status == FAIL
    assert result.details["max_abs_z"] > result.details["sidak_threshold"]


@pytest.mark.parametrize("dim", [8, 64, 256])
def test_power_sigma_v_too_large_by_a_fifth(monkeypatch, dim):
    su, sv = seeded_sigmas(dim, 11)
    truth = ramp_model(dim, su, sv)
    result = _check_claim(monkeypatch, ramp_model(dim, su, 1.2 * sv), truth=truth)
    assert result.status == FAIL
    # Every slope is too large, so every structural entry moves down.
    assert result.details["trace_z"] < -5.0
    assert not _passes_entry_families(result.details)


@pytest.mark.parametrize("dim", [16, 32, 64, 128, 256])
@pytest.mark.parametrize("weight", MULTIPLIERS)
def test_power_sigma_v_too_large_on_multiplication_models(monkeypatch, weight, dim):
    truth = multiplication_model(weight, dim)
    claim = multiplication_model(weight, dim, sigma_v_scale=1.1)
    result = _check_claim(monkeypatch, claim, truth=truth)
    assert result.status == FAIL
    assert result.details["trace_z"] < -5.0


def test_power_chi_square_is_two_sided(monkeypatch):
    # Both covariances 1/0.9 times too large: the slope is right, so no entry
    # stands out, but every whitened entry has variance 0.81 and T falls
    # about ten standard deviations below its mean.
    dim = 64
    su, sv = seeded_sigmas(dim, 11)
    truth = ramp_model(dim, 0.9 * su, 0.9 * sv)
    result = _check_claim(monkeypatch, ramp_model(dim, su, sv), truth=truth)
    assert result.status == FAIL
    assert result.details["wh_z"] < -5.0
    assert abs(result.details["trace_z"]) < 3.0
    assert _passes_entry_families(result.details)


def test_gap_check_passes_and_reports_kernel_mass():
    su, sv = seeded_sigmas(5, 6)
    model = ramp_model(5, su, sv)
    result = gap_check(model, count=50, seed=1)
    assert result.status == PASS
    assert result.details["kernel_noise_mass"] > 0
    assert result.details["max_full_gap"] > 0  # irreducible null-space part


def test_gap_check_skips_dense_models():
    model = _noncommuting_model()
    assert gap_check(model).status == SKIP


GAP_POWER_MODELS = {
    "ramp-64": (ramp_model, 64),
    "lap-64": (laplacian_model, 64),
    "ramp-256": (ramp_model, 256),
}


@pytest.mark.parametrize("name", sorted(GAP_POWER_MODELS))
@pytest.mark.parametrize("factor", [1.0, 2.0, 1.1, 1.001, 1.0 + 1e-6])
def test_power_gap_check_fails_on_scaled_smoother(monkeypatch, name, factor):
    # A smoother off by a factor moves every range component of the trend,
    # so the range gap grows about linearly in |factor - 1|: at
    # 1 + 1e-6 it reads 4.9e6 times its bound on ramp-64 and 2.1e5 on lap-64.
    make, dim = GAP_POWER_MODELS[name]
    model = make(dim, *seeded_sigmas(dim, 301))
    true_b = validate.optimal_b
    monkeypatch.setattr(
        validate, "optimal_b", lambda m: scaled(true_b(m), factor)
    )
    result = gap_check(model, seed=304)
    assert result.status == (PASS if factor == 1.0 else FAIL)


def test_white_noise_check_skips_colored_noise():
    model = ramp_model(4, np.array([0.5, 1.0, 1.5, 2.0]), 1.0)
    decl = DecayDeclaration(2.0, 0.0, 0.0)
    assert white_noise_scale_check(model, *scale_index(None, decl)).status == SKIP


def test_white_noise_check_skips_colored_noise_at_any_scale():
    # Coloured covariances of size 1e-14 are not white: the rescaled
    # smoother is not a multiple of the identity there.
    model = ramp_model(8, 1e-14 * np.linspace(1.0, 2.0, 8), 1.0)
    decl = DecayDeclaration(2.0, 0.0, 0.0)
    result = white_noise_scale_check(model, *scale_index(None, decl))
    assert result.status == SKIP
    assert result.details["reason"] == "covariances are not white on the range"


def test_white_noise_check_skips_spread_beyond_rounding():
    # A relative spread of 1e-13 is 14 times the rounding bound of the
    # largest entry, so the covariances are not white and the check does not
    # hold them to the ratio's bound.
    su = 1.3 * (1.0 + 1e-13 * np.random.default_rng(5).uniform(-1.0, 1.0, 8))
    model = ramp_model(8, su, 0.7)
    decl = DecayDeclaration(2.0, 0.0, 0.0)
    result = white_noise_scale_check(model, *scale_index(None, decl))
    assert result.status == SKIP
    assert result.details["reason"] == "covariances are not white on the range"


def test_white_noise_check_passes():
    model = laplacian_model(6, 1.5, 0.5)
    decl = DecayDeclaration(4.0, 0.0, 0.0)
    result = white_noise_scale_check(model, *scale_index(None, decl))
    assert result.status == PASS
    assert result.details["multiplier_spread"] < 1e-12
    assert result.details["ratio"] == 3.0


@pytest.mark.parametrize(
    "make, dim, ratio, kappa_decay",
    [
        (ramp_model, 1024, 1600.0, 2.0),
        (ramp_model, 512, 14_400.0, 2.0),
        (laplacian_model, 512, 14_400.0, 4.0),
        (ramp_model, 8, 1e6, 2.0),
    ],
)
def test_white_noise_check_is_relative_to_the_ratio(make, dim, ratio, kappa_decay):
    # The spread and the deviation read at most 3.5 eps times the ratio.
    model = make(dim, ratio, 1.0)
    decl = DecayDeclaration(kappa_decay, 0.0, 0.0)
    result = white_noise_scale_check(model, *scale_index(None, decl))
    assert result.status == PASS, result.details
    assert result.details["ratio"] == ratio


def test_power_white_noise_check_fails_on_scaled_smoother(monkeypatch):
    model = laplacian_model(6, 1.5, 0.5)
    decl = DecayDeclaration(4.0, 0.0, 0.0)
    true_b = validate.scaled_optimal_b
    monkeypatch.setattr(
        validate,
        "scaled_optimal_b",
        lambda m, n: scaled(true_b(m, n), 1.0 + 1e-9),
    )
    result = white_noise_scale_check(model, *scale_index(None, decl))
    assert result.status == FAIL
    assert result.details["max_deviation"] > 1e-9


@pytest.mark.parametrize("seed", range(301, 321))
def test_mp_residual_suite_passes_bench_validate_models(seed):
    for name, model in _bench_validate_models(seed).items():
        result = mp_residual_suite(model)
        assert result.status == PASS, (name, result.details)


def test_run_validation_reports_failures_independently():
    model = _noncommuting_model()
    report = run_validation(model, seed=0)
    statuses = {check.name: check.status for check in report.checks}
    assert statuses["noise-projector-commutation"] == FAIL
    assert statuses["moore-penrose"] == PASS
    assert not report.passed
    doc = report.to_json()
    assert doc["overall"] == FAIL
    assert len(doc["checks"]) == len(report.checks)


def test_run_validation_passes_on_model_instance():
    model = ramp_model(4, *seeded_sigmas(4, 8))
    report = run_validation(model, seed=3)
    assert report.passed


def test_readme_names_every_check():
    # A scale index makes run_validation emit every check it has.
    readme = Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text().split("\n### Validation\n", 1)[1].split("\n## ", 1)[0]
    model = ramp_model(4, 1.0, 1.0)
    report = run_validation(model, seed=0, scale_n=0)
    missing = [c.name for c in report.checks if f"`{c.name}`" not in section]
    assert len(report.checks) == 5 and missing == []
