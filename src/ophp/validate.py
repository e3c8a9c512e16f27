"""Numerical validation suite tying the model to its oracles.

Each check returns a :class:`CheckResult` with PASS, FAIL, or SKIP (the
check does not apply to the supplied model).  FAILures are report content,
not exceptions; the CLI maps an overall FAIL to exit code 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .filter import filter_multipliers
from .gaussian import (
    DecayDeclaration,
    GaussianModel,
    conditional_whitening,
    regression_slope,
    sample_joint_blocks,
)
from .operators import OperatorRep, apply_rows, moore_penrose_residuals, rounding_bound
from .scales import scale_index, scaled_optimal_b
from .smoothing import optimal_b

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


# Joint draws of the conditional-mean test and inputs of the gap check.
CM_DRAWS = 20_000
GAP_INPUTS = 100


def mp_residual_suite(model: GaussianModel) -> CheckResult:
    """Generalized-inverse identities on the model's own ``A`` and pinv bundle:
    each residual of :func:`~ophp.operators.moore_penrose_residuals` stays
    within the rounding bound at ``cond(A) = |A| |A+|`` of its size, ``|A|``
    for ``A A+ A = A``, ``|A+|`` for ``A+ A A+ = A+`` and 1 for the projector
    identities, all read off the bundle's singular values (cond 1 at rank 0)."""
    bundle = model.pinv_bundle
    s = bundle.singular_values
    norm_a, norm_pinv = float(s.max(initial=0.0)), float(1.0 / s.min(initial=np.inf))
    scales = {"reconstruct": norm_a, "pinv_reconstruct": norm_pinv}
    ratios = {}
    for name, residual in moore_penrose_residuals(model.a, bundle).items():
        bound = rounding_bound(scales.get(name, 1.0), bundle.cond)
        ratios[name] = float(residual / bound) if residual else 0.0
    worst = max(ratios, key=ratios.get)
    return CheckResult(
        "moore-penrose",
        PASS if ratios[worst] <= 1.0 else FAIL,
        {
            "numerical_rank": bundle.numerical_rank,
            "cond": bundle.cond,
            "worst_identity": worst,
            "worst_over_bound": ratios[worst],
        },
    )


# Family-wise level of conditional_mean_check, split evenly between its tests.
CM_ALPHA = 1e-3


def _wilson_hilferty(chi2: float, df: int) -> float:
    """Normal deviate of a chi-square value (Wilson and Hilferty 1931)."""
    s2 = 2.0 / (9.0 * df)
    return ((chi2 / df) ** (1.0 / 3.0) - (1.0 - s2)) / math.sqrt(s2)


def _sidak_threshold(alpha: float, entries: int) -> float:
    """Bound that ``entries`` N(0, 1) deviates all stay within, in absolute
    value, with probability at least ``1 - alpha`` (Sidak 1967)."""
    # Imported here, not at module level: importing statistics adds about
    # 4 ms to every CLI start.
    from statistics import NormalDist

    per_entry = -math.expm1(math.log1p(-alpha) / entries)
    return NormalDist().inv_cdf(1.0 - per_entry / 2.0)


def _whitened_z(
    model: GaussianModel,
    draws: int,
    seed: int,
    slope: OperatorRep,
    white_x: OperatorRep,
    white_r: OperatorRep,
) -> np.ndarray:
    """``Z = x~^T r~ / sqrt(draws)`` on the sample that ``simulate`` draws.

    Each block of rows the sampler yields is whitened in its own scratch
    (``x~`` into the u rows, ``r~`` into the x rows) and its product
    ``x~_b^T r~_b`` is added to one ``dim x dim`` sum, so memory does not
    grow with ``draws``.
    """
    y0 = model.y0.coeffs
    z = np.zeros((model.dim, model.dim))
    for _, u, _, y, x in sample_joint_blocks(model, draws, seed):
        x -= y0
        y -= y0
        apply_rows(slope, x, out=u)
        y -= u
        apply_rows(white_x, x, out=u)
        apply_rows(white_r, y, out=x)
        z += u.T @ x
    z /= math.sqrt(draws)
    return z


def conditional_mean_check(
    model: GaussianModel, draws: int = CM_DRAWS, seed: int = 1
) -> CheckResult:
    """Monte-Carlo test that ``y0 + K (x - y0)``, ``K`` the model's
    :func:`~ophp.gaussian.regression_slope`, is the conditional mean.

    On the ``draws`` joint draws ``simulate`` makes at ``seed``, the residual
    ``r = (y - y0) - K (x - y0)`` is independent of ``x``; whitened into the
    frame coordinates of ``A`` (:func:`~ophp.gaussian.conditional_whitening`,
    ranks ``k_x`` and ``k_r``), the entries of ``Z = x~^T r~ / sqrt(draws)``
    are about iid N(0, 1).  At the family-wise level ``CM_ALPHA``, split
    evenly, it FAILs when ``trace_z = tr Z / sqrt(k_r)`` (a wrong noise or
    signal scale shifts it) or the Wilson-Hilferty deviate ``wh_z`` of
    ``|Z|_F^2`` against chi-square with ``k_x k_r`` degrees of freedom, over
    the root of its inflation ``1 + (k_x + k_r + 1) / draws``, leaves
    ``z_threshold``, or ``max |Z|`` or the largest of the ``r`` structural
    ``Z_jj`` of the range coordinates exceeds its Sidak threshold.
    ``residual_dropped`` is ``r - k_r``: the range directions whose residual
    variance is not above the rounding floor of the signal (or the rank
    cutoff), so they are not tested; at ``df`` 0 that is why it passes.
    """
    white_x, rank_x, white_r, rank_r = conditional_whitening(model)
    slope = regression_slope(model)

    z = _whitened_z(model, draws, seed, slope, white_x, white_r)

    df = rank_x * rank_r
    chi2 = float(np.vdot(z, z))
    wh_z = trace_z = 0.0
    if df:
        inflation = 1.0 + (rank_x + rank_r + 1) / draws
        wh_z = _wilson_hilferty(chi2, df) / math.sqrt(inflation)
        trace_z = float(np.trace(z)) / math.sqrt(rank_r)
    max_abs_z = float(np.abs(z).max())
    alpha = CM_ALPHA / 4
    z_threshold = _sidak_threshold(alpha, 1)
    threshold = _sidak_threshold(alpha, z.size)
    kept = model.pinv_bundle.retained
    structural = float(np.abs(np.diagonal(z)[kept]).max(initial=0.0))
    structural_threshold = _sidak_threshold(alpha, max(kept.size, 1))
    passed = max(abs(wh_z), abs(trace_z)) <= z_threshold and max_abs_z <= threshold
    passed = passed and structural <= structural_threshold
    return CheckResult(
        "conditional-mean-regression",
        PASS if passed else FAIL,
        {
            "draws": draws,
            "alpha": CM_ALPHA,
            "df": df,
            "chi2": chi2,
            "wh_z": wh_z,
            "max_abs_z": max_abs_z,
            "sidak_threshold": threshold,
            "trace_z": trace_z,
            "z_threshold": z_threshold,
            "structural_max_abs_z": structural,
            "structural_threshold": structural_threshold,
            "residual_dropped": int(kept.size - rank_r),
        },
    )


def gap_check(
    model: GaussianModel, count: int = GAP_INPUTS, seed: int = 2
) -> CheckResult:
    """Agreement of the optimal filter with the conditional mean.

    On spectral models the two maps share their multipliers on the range
    components, so the range-projected gap must stay within the rounding
    bound of ``1 + |x|`` for arbitrary inputs ``x``; the full gap
    additionally vanishes exactly when the observation noise carries no
    null-space mass.  The trend's null-space components do not depend on
    the smoother and a gap is never negative, so a PASS also certifies
    ``optimal_b`` as the gap's argmin.

    Dense models are skipped.  The range gap is an identity there too, but
    its rounding grows with the conditioning of the model, which this bound
    does not state, so it would FAIL correct ill-conditioned models such as
    Green kernels at dim 128 and above.
    """
    if not model.is_diagonal:
        return CheckResult(
            "optimal-smoother-gap", SKIP, {"reason": "model is not diagonal"}
        )
    bhat = optimal_b(model)
    slope = regression_slope(model)
    pi = model.pinv_bundle.projector_pi.stored
    y0 = model.y0.coeffs
    xs = np.random.default_rng(seed).standard_normal((count, model.dim))
    diffs = y0 + apply_rows(slope, xs - y0) - filter_multipliers(model.a, bhat) * xs
    max_range_ratio = 0.0
    max_full_gap = 0.0
    # One norm call per probe: a batched norm rounds differently.
    for x, diff in zip(xs, diffs):
        norm_x = float(np.linalg.norm(x))
        range_gap = float(np.linalg.norm(pi * diff))
        max_range_ratio = max(max_range_ratio, range_gap / rounding_bound(1.0 + norm_x))
        max_full_gap = max(max_full_gap, float(np.linalg.norm(diff)))
    kernel_noise = float(
        np.abs((1.0 - pi) * model.sigma_u.stored).max(initial=0.0)
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


def commutation_check(model: GaussianModel) -> CheckResult:
    """Noise covariance commutes with the null-space projector ``P``: the
    commutator stays within the rounding bound of ``|sigma_u|_F |P|_F``,
    where ``|P|_F = sqrt(rank A)``.  Both are taken with ``sigma_u`` divided
    by its largest magnitude, so neither overflows and the verdict does not
    depend on its units; ``commutator_norm`` is reported in those units.  At
    rank 0 ``P`` is zero, and so are the commutator and the bound."""
    sigma_u = model.sigma_u.as_matrix()
    peak = float(np.abs(sigma_u).max())
    defect = bound = 0.0
    if peak:
        p, s = model.pinv_bundle.projector_pi, sigma_u / peak
        # P is symmetric, so applying it to the rows of s and of s^T gives
        # s P and (P s)^T: an elementwise product when P is diagonal.
        defect = float(np.linalg.norm(apply_rows(p, s.T).T - apply_rows(p, s)))
        bound = rounding_bound(float(np.linalg.norm(s))) * math.sqrt(
            model.pinv_bundle.numerical_rank
        )
    return CheckResult(
        "noise-projector-commutation",
        PASS if defect <= bound else FAIL,
        {"commutator_norm": defect * peak},
    )


def white_noise_scale_check(
    model: GaussianModel, n: int | None, threshold: int | None
) -> CheckResult:
    """Optimal smoother rescaled at index ``n`` reduces to the
    noise-to-signal ratio.

    Applies to diagonal models with white noise covariances (spread on the
    range within the rounding bound of their largest entry) and a scale
    index; otherwise SKIP.  The spread of the rescaled multipliers and
    their deviation from the ratio must each stay within the rounding bound
    of the ratio.  ``threshold``, the least trace-class index (see
    :func:`~ophp.scales.scale_index`), is reported.
    """
    if not model.is_diagonal:
        return CheckResult(
            "white-noise-ratio", SKIP, {"reason": "model is not diagonal"}
        )
    kept = model.pinv_bundle.retained
    if not kept.size:
        return CheckResult("white-noise-ratio", SKIP, {"reason": "operator is zero"})
    su = model.sigma_u.stored[kept]
    sv = model.sigma_v.stored[kept]
    if np.ptp(su) > rounding_bound(su.max()) or np.ptp(sv) > rounding_bound(sv.max()):
        return CheckResult(
            "white-noise-ratio",
            SKIP,
            {"reason": "covariances are not white on the range"},
        )
    if n is None:
        return CheckResult(
            "white-noise-ratio",
            SKIP,
            {"reason": "no scale index available", "threshold": threshold},
        )
    scaled = scaled_optimal_b(model, n)
    mult = scaled.stored[kept]
    spread = float(np.ptp(mult))
    ratio = float(su[0] / sv[0])
    deviation = float(np.abs(mult - ratio).max())
    passed = max(spread, deviation) <= rounding_bound(ratio)
    return CheckResult(
        "white-noise-ratio",
        PASS if passed else FAIL,
        {
            "n": int(n),
            "threshold": threshold,
            "ratio": ratio,
            "multiplier_spread": spread,
            "max_deviation": deviation,
        },
    )


def run_validation(
    model: GaussianModel,
    seed: int,
    scale_n: int | None = None,
    decay: DecayDeclaration | None = None,
) -> ValidationReport:
    """Run the full suite; the scale check runs only when a scale index or
    decay declaration is supplied."""
    checks = [
        mp_residual_suite(model),
        commutation_check(model),
        conditional_mean_check(model, seed=seed + 1),
        gap_check(model, seed=seed + 2),
    ]
    if scale_n is not None or decay is not None:
        checks.append(white_noise_scale_check(model, *scale_index(scale_n, decay)))
    return ValidationReport(checks=checks)
