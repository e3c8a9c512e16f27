"""Trend extraction by operator-penalized least squares.

The filter balances fidelity to the observations against a quadratic
roughness penalty: it minimizes ``|x - y|^2 + <A y, B A y>`` over trend
candidates ``y``, where the smoothing operator ``B`` must keep the penalty
nonnegative.  The minimizer solves the linear system ``(I + A* B A) y = x``,
computed in closed form for diagonal data and by a direct dense
factorization otherwise.  The nonnegativity requirement is certified
spectrally from the same ``A* B A`` the dense solve uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import EIG_RTOL, CoeffVector, DimensionMismatchError, OperatorRep


# Largest trend-solve residual accepted, relative to the norm of the
# observations.
RESIDUAL_RTOL = 1e-10


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


@dataclass(frozen=True, eq=False)
class PositivityReport:
    """Outcome of the penalty nonnegativity check.

    ``witness`` is a unit vector realizing ``min_value``, present only on
    FAIL.  ``trials`` is always 0: the check samples no vectors.
    """

    passed: bool
    method: str
    min_value: float
    witness: np.ndarray | None
    trials: int = 0

    def __repr__(self):
        status = "PASS" if self.passed else "FAIL"
        return f"PositivityReport({status}, method={self.method}, min={self.min_value:.3e})"


def _trend_matrix(a: OperatorRep, b: OperatorRep) -> np.ndarray:
    """Dense ``A* B A``, associated as ``(A* B) A``."""
    amat = a.as_matrix()
    return amat.T @ b.as_matrix() @ amat


def positivity_check(a: OperatorRep, b: OperatorRep) -> PositivityReport:
    """Certify or falsify nonnegativity of the penalty quadratic form.

    A diagonal ``b`` with nonnegative multipliers passes analytically.
    Otherwise the verdict is the least eigenvalue of the symmetric part of
    ``A* B A``, the minimum of ``<A h, B A h>`` over unit vectors ``h``; its
    eigenvector is computed as the witness only when the check fails.  FAIL
    is a report outcome, not an exception.
    """
    return _positivity(a, b, None)


def _positivity(
    a: OperatorRep, b: OperatorRep, quad: np.ndarray | None
) -> PositivityReport:
    if b.is_diagonal and np.all(b.multipliers >= 0.0):
        return PositivityReport(
            passed=True, method="analytic", min_value=0.0, witness=None
        )
    if quad is None:
        quad = _trend_matrix(a, b)
    sym = 0.5 * (quad + quad.T)
    eigvals = np.linalg.eigvalsh(sym)
    min_value = float(eigvals[0])
    tol = EIG_RTOL * (1.0 + float(np.abs(eigvals).max(initial=0.0)))
    if min_value >= -tol:
        return PositivityReport(
            passed=True, method="spectral", min_value=min_value, witness=None
        )
    eigvals, eigvecs = np.linalg.eigh(sym)
    return PositivityReport(
        passed=False,
        method="spectral",
        min_value=float(eigvals[0]),
        witness=eigvecs[:, 0],
    )


def filter_multipliers(a: OperatorRep, b: OperatorRep) -> np.ndarray:
    """Componentwise trend multipliers ``1 / (1 + b_j a_j^2)`` (diagonal only)."""
    if not (a.is_diagonal and b.is_diagonal):
        raise DimensionMismatchError("filter multipliers require diagonal operators")
    return 1.0 / (1.0 + b.multipliers * a.multipliers**2)


def _solve_trend(
    a: OperatorRep, b: OperatorRep, rhs: np.ndarray, quad: np.ndarray | None = None
) -> np.ndarray:
    """Trends for every column of ``rhs``.

    Diagonal ``a`` and ``b`` use the closed form.  Otherwise ``I + A* B A``
    (from ``quad`` when given) is LU-factorized once, and each column's
    residual must stay within ``RESIDUAL_RTOL`` times that column's norm.
    """
    if a.is_diagonal and b.is_diagonal:
        return rhs * filter_multipliers(a, b)[:, None]
    if quad is None:
        quad = _trend_matrix(a, b)
    system = np.eye(a.dim_in) + quad
    try:
        y = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError as exc:
        raise FilterSolveError(
            f"trend system is singular (cond={np.linalg.cond(system):.3e})"
        ) from exc
    residuals = np.linalg.norm(system @ y - rhs, axis=0)
    bounds = RESIDUAL_RTOL * np.maximum(
        np.linalg.norm(rhs, axis=0), np.finfo(float).tiny
    )
    if np.any(residuals > bounds):
        raise FilterSolveError(
            f"trend system residual {float(residuals.max()):.3e} exceeds tolerance "
            f"(cond={np.linalg.cond(system):.3e})"
        )
    return y


def solve_filter(problem: FilterProblem) -> CoeffVector:
    """Unique minimizer of the penalized objective.

    Checks that ``b`` keeps the penalty nonnegative, then solves
    ``(I + A* B A) y = x``: componentwise in closed form when both operators
    are diagonal, otherwise by dense LU factorization with a residual check
    at ``RESIDUAL_RTOL * |x|``.  The dense ``A* B A`` is formed once and
    serves both the positivity check and the solve.
    """
    a, b, x = problem.a, problem.b, problem.x
    quad = None if a.is_diagonal and b.is_diagonal else _trend_matrix(a, b)
    report = _positivity(a, b, quad)
    if not report.passed:
        raise PositivityError(
            "smoothing operator fails nonnegativity "
            f"(minimum quadratic form {report.min_value:.3e})"
        )
    y = _solve_trend(a, b, x.coeffs[:, None], quad)
    return CoeffVector(y[:, 0], x.basis_id)
