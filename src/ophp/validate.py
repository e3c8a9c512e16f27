"""Numerical validation suite tying the model to its oracles.

Each check returns a :class:`CheckResult` with PASS, FAIL, or SKIP (the
check does not apply to the supplied model).  FAILures are report content,
not exceptions; the CLI maps an overall FAIL to exit code 2.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .gaussian import (
    DecayDeclaration,
    GaussianModel,
    RankDeficiencyWarning,
    regression_slope,
    sample_joint,
)
from .operators import (
    STRUCTURE_TOL,
    dense_operator,
    moore_penrose_residuals,
    operator_norm,
    pinv,
)
from .scales import scaled_optimal_b, trace_class_threshold
from .smoothing import grid_search_oracle, optimal_b

PASS = "PASS"
FAIL = "FAIL"
SKIP = "SKIP"


@dataclass
class CheckResult:
    name: str
    status: str
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.status != FAIL

    def to_json(self) -> dict:
        return {"name": self.name, "status": self.status, "details": self.details}


@dataclass
class ValidationReport:
    checks: list

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def to_json(self) -> dict:
        return {
            "overall": PASS if self.passed else FAIL,
            "checks": [check.to_json() for check in self.checks],
        }


# ---------------------------------------------------------------------------
# Individual checks
# ---------------------------------------------------------------------------


def mp_residual_suite(
    seed: int = 0, count: int = 100, max_size: int = 12, probes: int = 5
) -> CheckResult:
    """Generalized-inverse identities on seeded random matrices.

    Matrices of sizes up to ``max_size`` square with ranks from 0 to the
    minimal dimension; the four defining residuals, projector idempotence
    and symmetry, and the orthogonal-split identity must all stay below
    1e-10 * (1 + |A|).
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    failures = 0
    for _ in range(count):
        rows = int(rng.integers(1, max_size + 1))
        cols = int(rng.integers(1, max_size + 1))
        rank = int(rng.integers(0, min(rows, cols) + 1))
        if rank:
            mat = rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))
        else:
            mat = np.zeros((rows, cols))
        op = dense_operator(mat)
        bundle = pinv(op)
        tol = 1e-10 * (1.0 + operator_norm(op))
        residuals = list(moore_penrose_residuals(op, bundle).values())
        proj = bundle.projector_pi.as_matrix()
        residuals.append(float(np.linalg.norm(proj @ proj - proj)))
        residuals.append(float(np.linalg.norm(proj.T - proj)))
        comp = bundle.projector_complement.as_matrix()
        for _ in range(probes):
            xi = rng.standard_normal(cols)
            inner = abs(float((proj @ xi) @ (comp @ xi)))
            if inner > 1e-10 * float(xi @ xi):
                failures += 1
        local = max(residuals)
        worst = max(worst, local / tol)
        if local > tol:
            failures += 1
    status = PASS if failures == 0 else FAIL
    return CheckResult(
        "moore-penrose",
        status,
        {"matrices": count, "worst_residual_ratio": worst, "failures": failures},
    )


def _regress_signal_on_data(
    model: GaussianModel, draws: int, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Least-squares slope of the sampled signal on the sampled data, the
    inverse Gram matrix and the residual variance of each signal component.

    The sample is private to this call, so it is centred in place, the
    residual and its square share one buffer, and all of it is freed before
    the caller draws the next seed's sample.
    """
    data = sample_joint(model, draws, seed)
    x, y = data.x, data.y
    x -= model.y0.coeffs
    y -= model.y0.coeffs
    gram_inv = np.linalg.pinv(x.T @ x)
    slope_hat = y.T @ x @ gram_inv
    resid = np.matmul(x, slope_hat.T)
    np.subtract(y, resid, out=resid)
    np.square(resid, out=resid)
    sigma2 = resid.sum(axis=0) / max(draws - model.dim, 1)
    return slope_hat, gram_inv, sigma2


def conditional_mean_check(
    model: GaussianModel,
    draws: int = 100_000,
    seed: int = 1,
    n_seeds: int = 5,
    min_pass: int = 4,
) -> CheckResult:
    """Monte-Carlo regression of the signal on the data.

    For each of ``n_seeds`` derived seeds, the least-squares slope of the
    sampled signal on the sampled data must match the model slope within 3
    standard errors entrywise; each entry must pass for at least
    ``min_pass`` of the seeds.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RankDeficiencyWarning)
        target = regression_slope(model).as_matrix()
    entry_hits = np.zeros_like(target, dtype=int)
    worst = 0.0
    for k in range(n_seeds):
        slope_hat, gram_inv, sigma2 = _regress_signal_on_data(
            model, draws, seed + 7919 * k
        )
        stderr = np.sqrt(np.outer(sigma2, np.diag(gram_inv)))
        deviation = np.abs(slope_hat - target)
        ok = deviation <= 3.0 * stderr + 1e-12
        entry_hits += ok.astype(int)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(stderr > 0, deviation / stderr, 0.0)
        worst = max(worst, float(ratio.max(initial=0.0)))
    passed = bool(np.all(entry_hits >= min_pass))
    return CheckResult(
        "conditional-mean-regression",
        PASS if passed else FAIL,
        {
            "draws": draws,
            "seeds": n_seeds,
            "min_entry_passes": int(entry_hits.min()),
            "worst_deviation_se": worst,
        },
    )


def gap_check(
    model: GaussianModel, count: int = 100, seed: int = 2, tol_scale: float = 1e-9
) -> CheckResult:
    """Agreement of the optimal filter with the conditional mean.

    On spectral models the two maps share their multipliers on the range
    components, so the range-projected gap must vanish to tolerance for
    arbitrary inputs; the full gap additionally vanishes exactly when the
    observation noise carries no null-space mass.  Dense models are skipped
    (the optimality statement there is an argmin, not an identity).
    """
    if not model.is_diagonal:
        return CheckResult(
            "optimal-smoother-gap", SKIP, {"reason": "model is not diagonal"}
        )
    bhat = optimal_b(model)
    a_mult = model.a.multipliers
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RankDeficiencyWarning)
        slope = regression_slope(model).multipliers
    trend_mult = 1.0 / (1.0 + bhat.multipliers * a_mult**2)
    pi = model.pinv_bundle.projector_pi.multipliers
    rng = np.random.default_rng(seed)
    y0 = model.y0.coeffs
    max_range_ratio = 0.0
    max_full_gap = 0.0
    for _ in range(count):
        x = rng.standard_normal(model.dim)
        mean = y0 + slope * (x - y0)
        trend = trend_mult * x
        diff = mean - trend
        norm_x = float(np.linalg.norm(x))
        range_gap = float(np.linalg.norm(pi * diff))
        max_range_ratio = max(max_range_ratio, range_gap / (tol_scale * (1.0 + norm_x)))
        max_full_gap = max(max_full_gap, float(np.linalg.norm(diff)))
    kernel_noise = float(
        np.abs((1.0 - pi) * model.sigma_u.multipliers).max(initial=0.0)
    )
    passed = max_range_ratio <= 1.0
    return CheckResult(
        "optimal-smoother-gap",
        PASS if passed else FAIL,
        {
            "inputs": count,
            "max_range_gap_over_tol": max_range_ratio,
            "max_full_gap": max_full_gap,
            "kernel_noise_mass": kernel_noise,
        },
    )


def grid_argmin_check(
    model: GaussianModel, points: int = 21, seed: int = 3
) -> CheckResult:
    """Lattice search around the assembled smoother must return it as argmin."""
    if not model.is_diagonal:
        return CheckResult("grid-argmin", SKIP, {"reason": "model is not diagonal"})
    report = grid_search_oracle(model, points=points, seed=seed)
    return CheckResult(
        "grid-argmin",
        PASS if report.matches_bhat else FAIL,
        report.to_json(),
    )


def commutation_check(model: GaussianModel) -> CheckResult:
    """Noise covariance commutes with the null-space projector."""
    passed = model.commutator_norm <= STRUCTURE_TOL
    return CheckResult(
        "noise-projector-commutation",
        PASS if passed else FAIL,
        {"commutator_norm": model.commutator_norm},
    )


def white_noise_scale_check(
    model: GaussianModel,
    decay: DecayDeclaration | None = None,
    n: int | None = None,
) -> CheckResult:
    """Rescaled optimal smoother reduces to the noise-to-signal ratio.

    Applies to diagonal models with white (constant on the range) noise
    covariances; otherwise SKIP.
    """
    if not model.is_diagonal:
        return CheckResult(
            "white-noise-ratio", SKIP, {"reason": "model is not diagonal"}
        )
    mask = model.pinv_bundle.range_projector.multipliers > 0.5
    if not mask.any():
        return CheckResult("white-noise-ratio", SKIP, {"reason": "operator is zero"})
    su = model.sigma_u.multipliers[mask]
    sv = model.sigma_v.multipliers[mask]
    if np.ptp(su) > 1e-12 * (1.0 + su.max()) or np.ptp(sv) > 1e-12 * (1.0 + sv.max()):
        return CheckResult(
            "white-noise-ratio",
            SKIP,
            {"reason": "covariances are not white on the range"},
        )
    n0 = trace_class_threshold(model, decay) if decay is not None else None
    n_use = n if n is not None else n0
    if n_use is None:
        return CheckResult(
            "white-noise-ratio",
            SKIP,
            {"reason": "no scale index available", "threshold": n0},
        )
    scaled = scaled_optimal_b(model, n_use)
    mult = scaled.multipliers[mask]
    spread = float(np.ptp(mult))
    ratio = float(su[0] / sv[0])
    deviation = float(np.abs(mult - ratio).max())
    passed = spread < 1e-12 and deviation <= 1e-12 * (1.0 + ratio)
    return CheckResult(
        "white-noise-ratio",
        PASS if passed else FAIL,
        {
            "n": int(n_use),
            "threshold": n0,
            "ratio": ratio,
            "multiplier_spread": spread,
            "max_deviation": deviation,
        },
    )


def run_validation(
    model: GaussianModel,
    seed: int,
    draws: int = 20_000,
    gap_count: int = 100,
    grid_points: int = 21,
    scale_n: int | None = None,
    decay: DecayDeclaration | None = None,
) -> ValidationReport:
    """Run the full suite; the scale check runs only when a scale index or
    decay declaration is supplied."""
    checks = [
        mp_residual_suite(seed=seed),
        commutation_check(model),
        conditional_mean_check(model, draws=draws, seed=seed + 1),
        gap_check(model, count=gap_count, seed=seed + 2),
        grid_argmin_check(model, points=grid_points, seed=seed + 3),
    ]
    if scale_n is not None or decay is not None:
        checks.append(white_noise_scale_check(model, decay=decay, n=scale_n))
    return ValidationReport(checks=checks)
