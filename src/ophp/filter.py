"""Trend extraction by operator-penalized least squares.

The filter balances fidelity to the observations against a quadratic
roughness penalty: it minimizes ``|x - y|^2 + <A y, B A y>`` over trend
candidates ``y``, where the smoothing operator ``B`` must keep the penalty
nonnegative.  The minimizer solves the linear system ``(I + A* B A) y = x``,
computed in closed form for diagonal data and by a direct dense
factorization otherwise.  The nonnegativity requirement is certified
spectrally from the same ``A* B A`` the dense solve uses.  ``solve_filter``
computes that verdict once per ``(A, B)`` pair and reuses it while both
operators are alive; ``A* B A`` and the solve still run on every call.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .operators import (
    CoeffVector,
    DimensionMismatchError,
    OperatorRep,
    above_psd_floor,
    dense_operator,
    rounding_bound,
    symmetric_eig,
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


@dataclass(frozen=True, eq=False)
class PositivityReport:
    """Outcome of the penalty nonnegativity check.

    ``witness`` is a unit vector realizing ``min_value``, present only on
    a FAIL from ``positivity_check``.  ``trials`` is always 0: the check
    samples no vectors.
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
    """Dense ``A* B A``, associated as ``(A* B) A``.  Entries that overflow
    stay non-finite without a warning; the positivity verdict refuses them."""
    amat = a.as_matrix()
    with np.errstate(over="ignore", invalid="ignore"):
        return amat.T @ b.as_matrix() @ amat


def positivity_check(a: OperatorRep, b: OperatorRep) -> PositivityReport:
    """Certify or falsify nonnegativity of the penalty quadratic form.

    A diagonal ``b`` with nonnegative multipliers passes analytically.
    Otherwise the verdict is the least eigenvalue of the symmetric part of
    ``A* B A``, the minimum of ``<A h, B A h>`` over unit vectors ``h``; its
    eigenvector is computed as the witness only when the check fails.  FAIL
    is a report outcome, not an exception; an ``A* B A`` that overflows the
    float range raises :class:`FilterSolveError`.
    """
    return _positivity(a, b, None, witness=True)


def _positivity(
    a: OperatorRep, b: OperatorRep, quad: np.ndarray | None, witness: bool
) -> PositivityReport:
    analytic = b.is_diagonal and np.all(b.stored >= 0.0)
    if quad is None and not analytic:
        quad = _trend_matrix(a, b)
    # The eigensolver and the dense solve both need a finite ``A* B A``.
    if quad is not None and not np.isfinite(quad).all():
        raise FilterSolveError(
            "trend system I + A* B A is not finite: it overflows the float range"
        )
    if analytic:
        return PositivityReport(
            passed=True, method="analytic", min_value=0.0, witness=None
        )
    op = dense_operator(quad)
    eigvals = symmetric_eig(op, vectors=False)[0]
    passed = above_psd_floor(eigvals)
    if passed or not witness:
        return PositivityReport(
            passed=passed, method="spectral", min_value=float(eigvals[0]), witness=None
        )
    eigvals, eigvecs = symmetric_eig(op)
    return PositivityReport(
        passed=False,
        method="spectral",
        min_value=float(eigvals[0]),
        witness=eigvecs[:, 0],
    )


# Verdicts of ``solve_filter``, keyed on ``b`` and then on ``a``.  Operators
# are immutable and hash by identity.  An entry goes when either operator is
# collected, so a reused ``id()`` never meets a stale verdict.
_VERDICTS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _certified(
    a: OperatorRep, b: OperatorRep, quad: np.ndarray | None
) -> PositivityReport:
    by_a = _VERDICTS.setdefault(b, weakref.WeakKeyDictionary())
    report = by_a.get(a)
    if report is None:
        report = by_a[a] = _positivity(a, b, quad, witness=False)
    return report


def filter_multipliers(a: OperatorRep, b: OperatorRep) -> np.ndarray:
    """Componentwise trend multipliers ``1 / (1 + b_j a_j^2)`` (diagonal only):
    the limit 0 where the penalty overflows, and 1 wherever ``b_j`` is 0."""
    if not (a.is_diagonal and b.is_diagonal):
        raise DimensionMismatchError("filter multipliers require diagonal operators")
    penalty = np.zeros_like(b.stored)
    with np.errstate(over="ignore"):
        np.multiply(b.stored, a.stored**2, out=penalty, where=b.stored != 0.0)
    return 1.0 / (1.0 + penalty)


def _solve_trend(
    a: OperatorRep, b: OperatorRep, rhs: np.ndarray, quad: np.ndarray | None
) -> np.ndarray:
    """Trends for every column of ``rhs``.

    Diagonal ``a`` and ``b`` use the closed form, and ``quad`` is ``None``.
    Otherwise ``M = I + quad``, with ``quad = A* B A``, is LU-factorized
    once, and each column's residual ``|M y - x|`` must stay within the
    rounding bound of ``|M|_F |y| + |x|``, a normwise backward error that LU
    attains at any ``cond(M)`` (Higham 2002, ch. 7).
    """
    if a.is_diagonal and b.is_diagonal:
        return rhs * filter_multipliers(a, b)[:, None]
    system = np.eye(a.dim_in) + quad
    try:
        y = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError as exc:
        raise FilterSolveError(
            f"trend system is singular (cond={np.linalg.cond(system):.3e})"
        ) from exc
    residuals = np.linalg.norm(system @ y - rhs, axis=0)
    bounds = rounding_bound(
        np.linalg.norm(system) * np.linalg.norm(y, axis=0)
        + np.linalg.norm(rhs, axis=0)
    )
    if np.any(residuals > bounds):
        raise FilterSolveError(
            f"trend system residual {float(residuals.max()):.3e} exceeds its "
            f"rounding bound (cond={np.linalg.cond(system):.3e})"
        )
    return y


def solve_filter(problem: FilterProblem) -> CoeffVector:
    """Unique minimizer of the penalized objective.

    Checks that ``b`` keeps the penalty nonnegative, then solves
    ``(I + A* B A) y = x``: componentwise in closed form when both operators
    are diagonal, otherwise by dense LU factorization with a backward-error
    check on the residual.  The positivity verdict is computed once
    per ``(A, B)`` pair, from the same dense ``A* B A`` the solve uses, and
    reused while both operators are alive; ``A* B A`` and the solve still
    run on every call.  A failing verdict raises without a witness, so it
    costs one symmetric eigenvalue solve.
    """
    a, b, x = problem.a, problem.b, problem.x
    quad = None if a.is_diagonal and b.is_diagonal else _trend_matrix(a, b)
    report = _certified(a, b, quad)
    if not report.passed:
        raise PositivityError(
            "smoothing operator fails nonnegativity "
            f"(minimum quadratic form {report.min_value:.3e})"
        )
    y = _solve_trend(a, b, x.coeffs[:, None], quad)
    return CoeffVector(y[:, 0], x.basis_id)
