"""Trend extraction by operator-penalized least squares.

The filter minimizes ``|x - y|^2 + <A y, B A y>`` over trend candidates
``y``, where the smoothing operator ``B`` must keep the penalty nonnegative;
the minimizer solves ``(I + A* B A) y = x``.  In the singular frame of ``A``
(:class:`~ophp.operators.SingularFrame`) the penalty is ``V_r M V_r*`` with
the ``r x r`` core ``M = S (U_r* B U_r) S``, so the trend is ``x`` on the
null space of ``A`` and ``(I + M)^-1 V_r* x`` in the frame (Woodbury; Hager
1989).  Nonnegativity is certified from the least eigenvalue of the
symmetric part of the same ``M``, once per ``(A, B)`` pair while both
operators are alive; ``optimal_b`` returns one smoother per model, so the
requests on a config that ``specs.load_config`` keeps share one verdict.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .operators import (
    CoeffVector,
    DimensionMismatchError,
    OperatorRep,
    SingularFrame,
    above_psd_floor,
    core_eig,
    nonnegative_diagonal,
    shifted_solve,
    singular_frame,
)


class PositivityError(ValueError):
    """The smoothing operator fails the nonnegativity requirement."""


class FilterSolveError(RuntimeError):
    """The trend system could not be solved to tolerance."""


@dataclass(frozen=True, eq=False)
class FilterProblem:
    """Observations ``x`` with operator ``a`` and smoothing operator ``b``.

    ``b`` acts on the codomain of ``a`` and must keep the penalty
    nonnegative, which ``solve_filter`` checks before it solves.
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
    """Outcome of the penalty nonnegativity check."""

    passed: bool
    min_value: float


def _positivity(
    frame: SingularFrame, b: OperatorRep, penalty: np.ndarray
) -> PositivityReport:
    """A diagonal ``b`` with nonnegative multipliers passes analytically.
    Otherwise the verdict is the least eigenvalue of the symmetric part of
    ``M``, the core of ``A* B A`` in the frame, or 0 where ``A`` has a null
    space: the minimum of ``<A h, B A h>`` over unit vectors ``h``.  An
    ``M`` that overflows the float range raises :class:`FilterSolveError`."""
    if nonnegative_diagonal(b):
        return PositivityReport(True, 0.0)
    if not np.isfinite(penalty).all():
        raise FilterSolveError(
            "trend system is not finite: it overflows the float range"
        )
    eigvals = core_eig(penalty, vectors=False)[0]
    null = 0.0 if frame.numerical_rank < frame.operator.dim_in else np.inf
    least = float(eigvals.min(initial=null))
    return PositivityReport(above_psd_floor(eigvals), least)


# Verdicts of ``solve_filter``, keyed on ``b`` and then on ``a``.  Operators
# are immutable and hash by identity.  An entry goes when either operator is
# collected, so a reused ``id()`` never meets a stale verdict.
_VERDICTS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _trend(frame: SingularFrame, penalty: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Trends for every column of ``rhs``: ``(I + M)^-1`` on the frame
    coordinates, and the null-space part of each column unchanged."""
    coords = frame.coordinates(rhs)
    try:
        w = shifted_solve(penalty, coords)
    except np.linalg.LinAlgError as exc:
        raise FilterSolveError(f"trend system {exc}") from None
    return frame.lift(w, rhs, coords)


def filter_multipliers(a: OperatorRep, b: OperatorRep) -> np.ndarray:
    """Componentwise trend multipliers ``1 / (1 + b_j a_j^2)`` of diagonal
    ``a`` and ``b``, the trend of the all-ones series: 0 where the penalty
    overflows, 1 where ``b_j`` is 0 and off the retained components."""
    frame = singular_frame(a)
    return _trend(frame, frame.penalty_core(b), np.ones((a.dim_in, 1)))[:, 0]


def solve_filter(problem: FilterProblem) -> CoeffVector:
    """Unique minimizer of the penalized objective.

    Checks that ``b`` keeps the penalty nonnegative, then solves
    ``(I + M) w = V_r* x`` and returns ``y = x + V_r (w - V_r* x)``: in
    closed form where ``M`` is 1-d (diagonal ``a`` and ``b``), otherwise by
    LU with a backward-error check.  The verdict is computed once per
    ``(A, B)`` pair, from the ``M`` the solve uses; ``M`` and the solve run
    on every call.  A verdict costs at most one symmetric eigenvalue solve;
    a failing one raises :class:`PositivityError` with the least value of
    the quadratic form.
    """
    a, b, x = problem.a, problem.b, problem.x
    frame = singular_frame(a)
    penalty = frame.penalty_core(b)
    by_a = _VERDICTS.setdefault(b, weakref.WeakKeyDictionary())
    report = by_a.get(a)
    if report is None:
        report = by_a[a] = _positivity(frame, b, penalty)
    if not report.passed:
        raise PositivityError(
            "smoothing operator fails nonnegativity "
            f"(minimum quadratic form {report.min_value:.3e})"
        )
    return CoeffVector(_trend(frame, penalty, x.coeffs[:, None])[:, 0], x.basis_id)
