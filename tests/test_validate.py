"""Validation-suite checks and report structure."""

import numpy as np
import pytest

from ophp import GaussianModel, dense_operator, diagonal_operator, qv
from ophp import smoothing, validate
from ophp.gaussian import DecayDeclaration, regression_slope, sample_joint_blocks
from ophp.instances import laplacian_model, ramp_model, ramp_multipliers, seeded_sigmas
from ophp.operators import operator_power, psd_inverse, scalar_multiple
from ophp.scales import scale_index
from ophp.validate import (
    CM_ALPHA,
    FAIL,
    PASS,
    SKIP,
    commutation_check,
    conditional_mean_check,
    gap_check,
    grid_argmin_check,
    mp_residual_suite,
    run_validation,
    white_noise_scale_check,
)


def _noncommuting_model(dim=3):
    rng = np.random.default_rng(0)
    m = rng.standard_normal((dim, dim))
    sigma = dense_operator(m @ m.T)
    mult = np.arange(1, dim + 1, dtype=float)
    mult[0] = 0.0
    return GaussianModel.build(
        diagonal_operator(mult), sigma, diagonal_operator(np.ones(dim))
    )


def test_mp_residual_suite_passes():
    result = mp_residual_suite(seed=0)
    assert result.status == PASS
    assert result.details["failures"] == 0


def test_commutation_check_detects_violation():
    model = _noncommuting_model()
    result = commutation_check(model)
    assert result.status == FAIL
    assert result.details["commutator_norm"] > 1e-6


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


def test_conditional_mean_check_reports_no_structural_family_when_dense():
    model = _noncommuting_model()
    details = conditional_mean_check(model, draws=2_000, seed=4).details
    assert details["structural_max_abs_z"] is None
    assert details["structural_threshold"] is None
    assert details["df"] == 3 * 2


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


@pytest.mark.parametrize("dim", [8, 32, 64, 128, 256, 512])
def test_conditional_mean_check_calibrated_across_dims(dim):
    # T's variance inflation 1 + (k_x + k_r + 1) / n reaches 1.05 at dim 512.
    model = ramp_model(dim, *seeded_sigmas(dim, 11))
    result = conditional_mean_check(model, draws=20_000, seed=11)
    assert result.status == PASS, result.details
    assert result.details["df"] == dim * (dim - 1)


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
    s = regression_slope(model).multipliers
    q = qv(model).multipliers
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
    slope = regression_slope(model).matrix
    givens = np.eye(dim)
    givens[1:3, 1:3] = [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]]
    turn = q @ givens @ q.T
    rotated = turn @ slope @ turn.T
    # The mean of Z moves by sqrt(n) (sigma_u + Q_v)^{1/2} dS^T Sigma_r^{-1/2}.
    cov_x = model.sigma_u.matrix + qv(model).matrix
    cov_r = qv(model).matrix - slope @ qv(model).matrix
    root_x = operator_power(dense_operator(cov_x), 0.5).matrix
    white_r = psd_inverse(dense_operator(cov_r), 0.5)[0].matrix
    shift = np.sqrt(n) * np.abs(root_x @ (rotated - slope).T @ white_r).max()
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


def test_grid_argmin_check():
    model = ramp_model(4, *seeded_sigmas(4, 7))
    result = grid_argmin_check(model, points=9, seed=2)
    assert result.status == PASS


def test_power_grid_argmin_fails_on_doubled_smoother(monkeypatch):
    # With the claimed smoother at 2 * bhat the lattice spans [bhat, 3 * bhat],
    # so the true argmin sits ten steps below the claimed centre.
    model = ramp_model(64, *seeded_sigmas(64, 301))
    assert grid_argmin_check(model, seed=304).status == PASS
    true_b = smoothing.optimal_b
    monkeypatch.setattr(
        smoothing, "optimal_b", lambda m: scalar_multiple(true_b(m), 2.0)
    )
    result = grid_argmin_check(model, seed=304)
    assert result.status == FAIL
    assert not result.details["matches_bhat"]
    np.testing.assert_allclose(
        result.details["bhat_params"], 2.0 * true_b(model).multipliers[1:4]
    )


def test_white_noise_check_skips_colored_noise():
    model = ramp_model(4, np.array([0.5, 1.0, 1.5, 2.0]), 1.0)
    decl = DecayDeclaration(2.0, 0.0, 0.0)
    assert white_noise_scale_check(model, *scale_index(None, decl)).status == SKIP


def test_white_noise_check_passes():
    model = laplacian_model(6, 1.5, 0.5)
    decl = DecayDeclaration(4.0, 0.0, 0.0)
    result = white_noise_scale_check(model, *scale_index(None, decl))
    assert result.status == PASS
    assert result.details["multiplier_spread"] < 1e-12
    assert result.details["ratio"] == 3.0


def test_run_validation_reports_failures_independently():
    model = _noncommuting_model()
    report = run_validation(model, seed=0, draws=5_000, gap_count=10, grid_points=5)
    statuses = {check.name: check.status for check in report.checks}
    assert statuses["noise-projector-commutation"] == FAIL
    assert statuses["moore-penrose"] == PASS
    assert not report.passed
    doc = report.to_json()
    assert doc["overall"] == FAIL
    assert len(doc["checks"]) == len(report.checks)


def test_run_validation_passes_on_model_instance():
    model = ramp_model(4, *seeded_sigmas(4, 8))
    report = run_validation(model, seed=3, draws=10_000, gap_count=20, grid_points=7)
    assert report.passed
