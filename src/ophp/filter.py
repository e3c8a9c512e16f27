"""Trend extraction by operator-penalized least squares.

The filter balances fidelity to the observations against a quadratic
roughness penalty: it minimizes ``|x - y|^2 + <A y, B A y>`` over trend
candidates ``y``, where the smoothing operator ``B`` must keep the penalty
nonnegative.  The minimizer solves the linear system ``(I + A* B A) y = x``,
computed in closed form for diagonal data and by a direct dense
factorization otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import (
    EIG_RTOL,
    CoeffVector,
    DimensionMismatchError,
    OperatorRep,
    adjoint,
    apply,
    compose,
)


class PositivityError(ValueError):
    """The smoothing operator fails the nonnegativity requirement."""


class FilterSolveError(RuntimeError):
    """The trend system could not be solved to tolerance."""


@dataclass(frozen=True, eq=False)
class FilterProblem:
    """Observations ``x`` with operator ``a`` and smoothing operator ``b``.

    ``b`` acts on the codomain of ``a`` and must pass ``positivity_check``
    before ``solve_filter`` is permitted.
    """

    a: OperatorRep
    x: CoeffVector
    b: OperatorRep

    def __post_init__(self):
        if self.x.basis_id != self.a.domain_basis or self.x.dim != self.a.dim_in:
            raise DimensionMismatchError("observations do not match operator domain")
        if (
            self.b.dim_in != self.a.dim_out
            or self.b.dim_out != self.a.dim_out
            or self.b.domain_basis != self.a.codomain_basis
            or self.b.codomain_basis != self.a.codomain_basis
        ):
            raise DimensionMismatchError(
                "smoothing operator must act on the codomain of the data operator"
            )


def objective(problem: FilterProblem, y: CoeffVector) -> float:
    """Value of the penalized objective at a trend candidate."""
    residual = problem.x - y
    ay = apply(problem.a, y)
    bay = apply(problem.b, ay)
    return residual.norm() ** 2 + ay.dot(bay)


def objective_gradient(problem: FilterProblem, y: CoeffVector) -> np.ndarray:
    """Gradient ``2 (y - x) + 2 A* B A y`` (exact for symmetric ``b``)."""
    ay = apply(problem.a, y)
    bay = apply(problem.b, ay)
    back = apply(adjoint(problem.a), bay)
    return 2.0 * (y.coeffs - problem.x.coeffs) + 2.0 * back.coeffs


@dataclass(frozen=True, eq=False)
class PositivityReport:
    """Outcome of the penalty nonnegativity check."""

    passed: bool
    method: str
    min_value: float
    witness: np.ndarray | None
    trials: int

    def __repr__(self):
        status = "PASS" if self.passed else "FAIL"
        return f"PositivityReport({status}, method={self.method}, min={self.min_value:.3e})"


def positivity_check(
    a: OperatorRep, b: OperatorRep, trials: int = 64, seed: int = 0
) -> PositivityReport:
    """Certify or falsify nonnegativity of the penalty quadratic form.

    A diagonal ``b`` with nonnegative multipliers passes analytically.
    Otherwise the form ``<A h, B A h>`` is evaluated on seeded random unit
    vectors and on the eigenvectors of the symmetric part of ``A* B A``; the
    minimum value found decides the verdict.  FAIL is a report outcome, not
    an exception.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if b.is_diagonal and np.all(b.multipliers >= 0.0):
        return PositivityReport(
            passed=True, method="analytic", min_value=0.0, witness=None, trials=0
        )
    quad = compose(adjoint(a), compose(b, a)).as_matrix()
    sym = 0.5 * (quad + quad.T)
    eigvals, eigvecs = np.linalg.eigh(sym)
    min_value = float(eigvals[0])
    witness = eigvecs[:, 0]
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        h = rng.standard_normal(a.dim_in)
        h /= np.linalg.norm(h)
        value = float(h @ sym @ h)
        if value < min_value:
            min_value = value
            witness = h
    tol = EIG_RTOL * (1.0 + float(np.abs(eigvals).max(initial=0.0)))
    return PositivityReport(
        passed=min_value >= -tol,
        method="spectral+sampling",
        min_value=min_value,
        witness=witness,
        trials=trials,
    )


def filter_multipliers(a: OperatorRep, b: OperatorRep) -> np.ndarray:
    """Componentwise trend multipliers ``1 / (1 + b_j a_j^2)`` (diagonal only)."""
    if not (a.is_diagonal and b.is_diagonal):
        raise DimensionMismatchError("filter multipliers require diagonal operators")
    return 1.0 / (1.0 + b.multipliers * a.multipliers**2)


def solve_filter(
    problem: FilterProblem,
    check_positivity: bool = True,
    residual_rtol: float = 1e-10,
) -> CoeffVector:
    """Unique minimizer of the penalized objective.

    Solves ``(I + A* B A) y = x``: componentwise in closed form when both
    operators are diagonal, otherwise by dense factorization with a residual
    check at ``residual_rtol * |x|``.
    """
    if check_positivity:
        report = positivity_check(problem.a, problem.b)
        if not report.passed:
            raise PositivityError(
                "smoothing operator fails nonnegativity "
                f"(minimum quadratic form {report.min_value:.3e})"
            )
    a, b, x = problem.a, problem.b, problem.x
    if a.is_diagonal and b.is_diagonal:
        return CoeffVector(x.coeffs * filter_multipliers(a, b), x.basis_id)
    amat = a.as_matrix()
    system = np.eye(a.dim_in) + amat.T @ b.as_matrix() @ amat
    try:
        y = np.linalg.solve(system, x.coeffs)
    except np.linalg.LinAlgError as exc:
        raise FilterSolveError(
            f"trend system is singular (cond={np.linalg.cond(system):.3e})"
        ) from exc
    residual = float(np.linalg.norm(system @ y - x.coeffs))
    if residual > residual_rtol * max(x.norm(), np.finfo(float).tiny):
        raise FilterSolveError(
            f"trend system residual {residual:.3e} exceeds tolerance "
            f"(cond={np.linalg.cond(system):.3e})"
        )
    return CoeffVector(y, x.basis_id)
