"""Optimal smoothing operator and its empirical optimality oracle.

Under the Gaussian model the smoothing operator that brings the filtered
trend closest to the conditional mean of the signal is
``pinv(A)* sigma_u A* sigma_v^{-1}``, with the noise covariance inverted on
the range of ``A``.  This module assembles that operator, measures the gap
between the filter output and the conditional mean, and provides an
exhaustive grid search over diagonal smoother families that certifies the
argmin numerically.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .filter import FilterProblem, _solve_trend, solve_filter
from .gaussian import GaussianModel, RankDeficiencyWarning, conditional_mean, regression_slope
from .operators import (
    CoeffVector,
    DimensionMismatchError,
    OperatorRep,
    PinvBundle,
    adjoint,
    compose,
    dense_operator,
    diagonal_operator,
    psd_inverse,
)


# Lattice of the grid search: points per free parameter, and the half-width
# of each parameter's lattice relative to its center.
LATTICE_POINTS = 21
LATTICE_REL_HALFWIDTH = 0.5
# Slack, relative to 1 + |b|, on the argmin lying within one lattice step.
LATTICE_MATCH_RTOL = 1e-12


class SingularCovarianceError(ValueError):
    """sigma_v is not invertible on the range of the operator."""


def _range_basis(a: OperatorRep, bundle: PinvBundle) -> np.ndarray:
    """Orthonormal basis of the range of ``a`` as codomain columns."""
    if a.is_diagonal:
        return np.eye(a.dim_out)[:, bundle.retained]
    u, _, _ = bundle.svd
    return u[:, : bundle.numerical_rank]


def _assemble(
    a: OperatorRep,
    bundle: PinvBundle,
    sigma_u: OperatorRep,
    sigma_v: OperatorRep,
) -> OperatorRep:
    if a.is_diagonal and sigma_u.is_diagonal and sigma_v.is_diagonal:
        kept = bundle.retained
        sv = sigma_v.multipliers
        # Componentwise inversion is exact regardless of dynamic range, so
        # only genuinely non-positive entries are singular here.
        bad = kept[~(sv[kept] > np.finfo(float).tiny)]
        if bad.size:
            raise SingularCovarianceError(
                f"sigma_v is singular on range components {bad.tolist()}"
            )
        inv_sv = np.zeros_like(sv)
        inv_sv[kept] = 1.0 / sv[kept]
        mult = bundle.pinv.multipliers * sigma_u.multipliers * a.multipliers * inv_sv
        return diagonal_operator(mult, a.codomain_basis)
    basis = _range_basis(a, bundle)
    inv_full = np.zeros((a.dim_out, a.dim_out))
    if basis.size:
        restricted = dense_operator(basis.T @ sigma_v.as_matrix() @ basis)
        inv_restricted, rank = psd_inverse(restricted)
        if rank < basis.shape[1]:
            raise SingularCovarianceError("sigma_v is singular on the range of A")
        inv_full = basis @ inv_restricted.matrix @ basis.T
    sv_inv = dense_operator(inv_full, a.codomain_basis)
    return compose(
        adjoint(bundle.pinv), compose(sigma_u, compose(adjoint(a), sv_inv))
    )


def optimal_b(model: GaussianModel) -> OperatorRep:
    """Smoother ``pinv(A)* sigma_u A* sigma_v^{-1}`` minimizing the gap.

    Diagonal inputs yield a diagonal output.  Raises
    :class:`SingularCovarianceError` naming the offending spectral
    components when ``sigma_v`` is singular on the range of the operator.
    """
    return _assemble(model.a, model.pinv_bundle, model.sigma_u, model.sigma_v)


def gap(model: GaussianModel, b: OperatorRep, x: CoeffVector) -> float:
    """Distance between the conditional mean and the filtered trend at ``x``."""
    mean = conditional_mean(model, x)
    trend = solve_filter(FilterProblem(model.a, x, b))
    return (mean - trend).norm()


# ---------------------------------------------------------------------------
# Grid-search optimality oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DiagonalFamily:
    """Diagonal smoothers with a few free multipliers.

    ``base`` fixes every multiplier; the entries at ``indices`` are replaced
    by the family parameters.  The indices must be distinct and in range.
    """

    base: np.ndarray
    indices: tuple
    basis_id: str

    def __post_init__(self):
        dim = len(self.base)
        if len(set(self.indices) & set(range(dim))) != len(self.indices):
            raise DimensionMismatchError(
                f"family indices {list(self.indices)} must be distinct and in [0, {dim})"
            )

    def build(self, params) -> OperatorRep:
        mult = np.array(self.base, dtype=float, copy=True)
        mult[list(self.indices)] = np.asarray(params, dtype=float)
        return diagonal_operator(mult, self.basis_id)


def lattice_around(values, points: int = LATTICE_POINTS) -> list:
    """Per-parameter lattices centered on the given values, clipped at zero.

    Each lattice reaches ``LATTICE_REL_HALFWIDTH`` times its center's size
    to either side.  A strictly positive center is the midpoint of its
    lattice: the middle point for odd ``points``, halfway between the two
    middle points for even ``points``.  A zero center produces a one-sided
    lattice starting at zero, so the center is the first point.
    """
    vals = np.atleast_1d(np.asarray(values, dtype=float))
    fallback = float(max(np.abs(vals).max(initial=0.0), 1.0))
    grids = []
    for center in vals:
        width = LATTICE_REL_HALFWIDTH * (abs(center) if center != 0.0 else fallback)
        lower = max(0.0, center - width)
        grids.append(np.linspace(lower, center + width, points))
    return grids


def probe_vectors(
    dim: int, basis_id: str, count: int = 32, seed: int = 0
) -> list[CoeffVector]:
    """Seeded standard-normal test vectors for gap averaging."""
    rng = np.random.default_rng(seed)
    return [CoeffVector(rng.standard_normal(dim), basis_id) for _ in range(count)]


@dataclass(frozen=True, eq=False)
class GridSearchReport:
    """Result of the exhaustive lattice search over a diagonal family."""

    argmin_params: np.ndarray
    gap_at_argmin: float
    gap_at_bhat: float
    lattice_step: list
    bhat_params: np.ndarray
    matches_bhat: bool
    points_evaluated: int

    def to_json(self) -> dict:
        return {
            "argmin_params": [float(p) for p in self.argmin_params],
            "gap_at_argmin": float(self.gap_at_argmin),
            "gap_at_bhat": float(self.gap_at_bhat),
            "lattice_step": [float(s) for s in self.lattice_step],
            "bhat_params": [float(p) for p in self.bhat_params],
            "matches_bhat": bool(self.matches_bhat),
            "points_evaluated": int(self.points_evaluated),
        }


def _average_gaps_diagonal(
    model: GaussianModel,
    family: DiagonalFamily,
    param_rows: np.ndarray,
    x_set: list[CoeffVector],
) -> np.ndarray:
    # Only the family's k entries vary across the lattice, so each probe's
    # squared gap is a sum over the fixed entries, taken once, plus k terms
    # per lattice point.
    a_sq = model.a.multipliers ** 2
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RankDeficiencyWarning)
        slope = regression_slope(model).multipliers
    y0 = model.y0.coeffs
    free = list(family.indices)
    fixed = np.setdiff1d(np.arange(a_sq.shape[0]), free)
    fixed_denom = 1.0 + a_sq[fixed] * family.base[fixed]
    free_denom = 1.0 + a_sq[free, None] * param_rows.T
    totals = np.zeros(param_rows.shape[0])
    for x in x_set:
        mean = y0 + slope * (x.coeffs - y0)
        sq = ((mean[fixed] - x.coeffs[fixed] / fixed_denom) ** 2).sum()
        for j, denom in zip(free, free_denom):
            sq = sq + (mean[j] - x.coeffs[j] / denom) ** 2
        totals += np.sqrt(sq)
    return totals / len(x_set)


def _average_gaps_generic(
    model: GaussianModel,
    family: DiagonalFamily,
    param_rows: np.ndarray,
    x_set: list[CoeffVector],
) -> np.ndarray:
    # The probe means do not depend on the smoother, and each lattice point's
    # trend system is solved for all probes at once.
    probes = np.stack([x.coeffs for x in x_set], axis=1)
    means = np.stack([conditional_mean(model, x).coeffs for x in x_set], axis=1)
    totals = np.zeros(param_rows.shape[0])
    for i, row in enumerate(param_rows):
        trends = _solve_trend(model.a, family.build(row), probes)
        totals[i] = float(np.mean(np.linalg.norm(means - trends, axis=0)))
    return totals


def grid_search_oracle(
    model: GaussianModel,
    family: DiagonalFamily | None = None,
    grid: list | None = None,
    x_set: list[CoeffVector] | None = None,
    points: int = LATTICE_POINTS,
    seed: int = 0,
) -> GridSearchReport:
    """Exhaustively evaluate the average gap on a diagonal-family lattice.

    The average is taken over a fixed seeded probe set of observation
    vectors; ties are broken by lattice index order.  The report records
    whether the lattice argmin lies within one step of the assembled optimal
    smoother's parameters.
    """
    bhat = optimal_b(model)
    if family is None:
        if not bhat.is_diagonal:
            raise DimensionMismatchError(
                "grid search requires a diagonal family; supply one explicitly"
            )
        active = model.pinv_bundle.retained[:3]
        if active.size == 0:
            active = np.arange(min(3, model.codim))
        family = DiagonalFamily(
            base=bhat.multipliers.copy(),
            indices=tuple(int(i) for i in active),
            basis_id=model.a.codomain_basis,
        )
    bhat_params = np.diag(bhat.as_matrix())[list(family.indices)]
    if grid is None:
        grid = lattice_around(bhat_params, points=points)
    if len(grid) != len(family.indices):
        raise DimensionMismatchError("grid must supply one lattice per family index")
    if x_set is None:
        x_set = probe_vectors(model.dim, model.a.domain_basis, seed=seed)

    mesh = np.meshgrid(*grid, indexing="ij")
    param_rows = np.stack([m.ravel() for m in mesh], axis=-1)
    average = _average_gaps_diagonal if model.is_diagonal else _average_gaps_generic
    averages = average(model, family, param_rows, x_set)
    gap_bhat = float(average(model, family, bhat_params[None, :], x_set)[0])
    best = int(np.argmin(averages))
    argmin_params = param_rows[best]
    steps = [float(g[1] - g[0]) if len(g) > 1 else 0.0 for g in grid]
    matches = bool(
        np.all(
            np.abs(argmin_params - bhat_params)
            <= np.asarray(steps) + LATTICE_MATCH_RTOL * (1.0 + np.abs(bhat_params))
        )
    )
    return GridSearchReport(
        argmin_params=argmin_params,
        gap_at_argmin=float(averages[best]),
        gap_at_bhat=gap_bhat,
        lattice_step=steps,
        bhat_params=bhat_params,
        matches_bhat=matches,
        points_evaluated=int(param_rows.shape[0]),
    )
