"""Gaussian signal-plus-noise model behind the filter.

The model is ``x = y + u`` with ``A y = v``, where ``u`` and ``v`` are
independent zero-mean Gaussians with covariances ``sigma_u`` and ``sigma_v``
and the deterministic component ``y0`` of the signal lies in the null space
of ``A``.  This module builds the signal covariance ``Q_v``, the conditional
mean of the signal given the data, trace and Hilbert-Schmidt diagnostics of
the covariance algebra, and a reproducible block-wise sampler.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterator
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .operators import (
    BasisMismatchError,
    CoeffVector,
    DimensionMismatchError,
    OperatorRep,
    PinvBundle,
    above_psd_floor,
    add,
    adjoint,
    apply,
    apply_rows,
    compose,
    euclidean_norm,
    operator_power,
    pinv,
    psd_inverse,
    rounding_bound,
    symmetric_eig,
    symmetrize,
)


class ModelError(ValueError):
    """The model violates a structural requirement."""


class RankDeficiencyWarning(UserWarning):
    """A covariance inversion fell back to the generalized inverse."""


@dataclass(frozen=True)
class DecayDeclaration:
    """Declared asymptotic exponents of the spectral sequences.

    ``kappa_decay`` is the exponent p with scale eigenvalues growing like
    j**p (equivalently, the squared-pseudoinverse spectrum decaying like
    j**(-p)).  ``sigma_u_decay`` and ``sigma_v_decay`` are exponents q with
    covariance entries decaying like j**(-q); q = 0 declares white noise and
    negative q declares growth.
    """

    kappa_decay: float
    sigma_u_decay: float
    sigma_v_decay: float


def _check_covariance(op: OperatorRep, dim: int, basis_id: str, label: str) -> None:
    if op.domain_basis != basis_id or op.codomain_basis != basis_id:
        raise BasisMismatchError(f"{label} must act on basis {basis_id!r}")
    if op.dim_in != dim or op.dim_out != dim:
        raise DimensionMismatchError(f"{label} must be square of dimension {dim}")
    stored = op.stored
    # The largest magnitude is NaN or infinite exactly when some entry is.
    scale = 1.0 + float(np.abs(stored).max(initial=0.0))
    if not np.isfinite(scale):
        raise ModelError(f"{label} has a non-finite entry")
    if float(np.abs(stored - stored.T).max(initial=0.0)) > rounding_bound(scale):
        raise ModelError(f"{label} is not symmetric to rounding")
    eigvals = symmetric_eig(op, vectors=False)[0]
    if not np.isfinite(eigvals).all():
        raise ModelError(f"{label} has an eigenvalue beyond the float range")
    if not above_psd_floor(eigvals):
        raise ModelError(f"{label} has an eigenvalue below the PSD floor")


@dataclass(frozen=True, eq=False)
class GaussianModel:
    """Operator, noise covariances, and deterministic signal component.

    The model is immutable, so what depends on nothing else is computed on
    first use and kept: ``Q_v``, the regression slope, and the covariance
    square roots used by the sampler.
    """

    a: OperatorRep
    pinv_bundle: PinvBundle
    sigma_u: OperatorRep
    sigma_v: OperatorRep
    y0: CoeffVector

    @property
    def dim(self) -> int:
        return self.a.dim_in

    @property
    def codim(self) -> int:
        return self.a.dim_out

    @property
    def is_diagonal(self) -> bool:
        return all(op.is_diagonal for op in (self.a, self.sigma_u, self.sigma_v))

    @cached_property
    def _q_v(self) -> OperatorRep:
        p = self.pinv_bundle.pinv
        return symmetrize(compose(compose(p, self.sigma_v), adjoint(p)))

    @cached_property
    def _slope(self) -> tuple[OperatorRep, bool]:
        inv, rank = psd_inverse(add(self.sigma_u, self._q_v))
        return compose(self._q_v, inv), rank == self.dim

    @cached_property
    def _roots(self) -> tuple[OperatorRep, OperatorRep]:
        return operator_power(self.sigma_u, 0.5), operator_power(self.sigma_v, 0.5)

    @classmethod
    def build(
        cls,
        a: OperatorRep,
        sigma_u: OperatorRep,
        sigma_v: OperatorRep,
        y0: CoeffVector | None = None,
    ) -> "GaussianModel":
        """Validate the ingredients and assemble a model."""
        bundle = pinv(a)
        if not np.isfinite(bundle.sv_threshold):
            raise ModelError("the singular values of A overflow the float range")
        _check_covariance(sigma_u, a.dim_in, a.domain_basis, "sigma_u")
        _check_covariance(sigma_v, a.dim_out, a.codomain_basis, "sigma_v")
        if y0 is None:
            y0 = CoeffVector(np.zeros(a.dim_in), a.domain_basis)
        _check_y0(a, bundle, y0)
        return cls(a=a, pinv_bundle=bundle, sigma_u=sigma_u, sigma_v=sigma_v, y0=y0)

    def with_y0(self, y0: CoeffVector, scale: float | None = None) -> "GaussianModel":
        """The same model with deterministic component ``y0``.  Keeps the
        pinv bundle and the checked covariances; only the null-space check
        on ``y0`` runs again, at ``scale``: the size of the data ``y0`` was
        computed from (``|x|`` for the null-space part of ``x``), or ``|y0|``."""
        _check_y0(self.a, self.pinv_bundle, y0, scale)
        return replace(self, y0=y0)


def _check_y0(a: OperatorRep, bundle: PinvBundle, y0: CoeffVector, scale=None) -> None:
    if y0.basis_id != a.domain_basis or y0.dim != a.dim_in:
        raise DimensionMismatchError("y0 must live in the operator domain")
    # |pi y0| without forming pi: the norm of y0's coordinates on the range
    # of A*, the leading rows of Vt or the retained components.
    if bundle.svd is None:
        pi_y0 = euclidean_norm(y0.coeffs[bundle.retained])
    else:
        pi_y0 = euclidean_norm(bundle.svd[2][: bundle.numerical_rank] @ y0.coeffs)
    bound = rounding_bound(y0.norm() if scale is None else scale, bundle.cond)
    if pi_y0 > bound:
        raise ModelError(
            "y0 must lie in the null space of the operator "
            f"(projector residual {pi_y0:.3e}, bound {bound:.3e})"
        )


# ---------------------------------------------------------------------------
# Covariance algebra
# ---------------------------------------------------------------------------


def qv(model: GaussianModel) -> OperatorRep:
    """Covariance ``pinv(A) sigma_v pinv(A)*`` of the signal component."""
    return model._q_v


def regression_slope(model: GaussianModel) -> OperatorRep:
    """Best-predictor slope ``Q_v (sigma_u + Q_v)^{-1}``.

    When ``sigma_u + Q_v`` is rank deficient at working precision the
    generalized inverse is used and a :class:`RankDeficiencyWarning` is
    emitted on every call.
    """
    slope, full_rank = model._slope
    if not full_rank:
        warnings.warn(
            "sigma_u + Q_v is rank deficient; using the generalized inverse",
            RankDeficiencyWarning,
            stacklevel=2,
        )
    return slope


def conditional_mean(model: GaussianModel, x: CoeffVector) -> CoeffVector:
    """Best predictor ``y0 + Q_v (sigma_u + Q_v)^{-1} (x - y0)`` of the signal."""
    return model.y0 + apply(regression_slope(model), x - model.y0)


# ---------------------------------------------------------------------------
# Trace / Hilbert-Schmidt diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HsReport:
    """Trace and Hilbert-Schmidt diagnostics at the working truncation.

    The summability fields are verdicts about the untruncated spectral
    sequences and are populated only when analytic decay exponents are
    declared; ``None`` means undecidable from the inputs.
    """

    trace_qv: float
    trace_sigma_u: float
    hs_norm: float
    injective: bool
    qv_trace_summable: bool | None = None
    sigma_u_trace_summable: bool | None = None
    hs_summable: bool | None = None


def hs_diagnostics(
    model: GaussianModel, decay: DecayDeclaration | None = None
) -> HsReport:
    """Traces of Q_v and sigma_u plus the Frobenius norm of
    ``Q_v (sigma_u + Q_v)^{-1/2}``.

    A zero in the spectrum of ``sigma_u + Q_v`` flags non-injectivity; the
    Hilbert-Schmidt norm is then computed on the positive part.  Both come
    from the model's one factorization of ``sigma_u + Q_v``: the squared
    norm is ``tr(S Q_v)`` for the regression slope ``S``.
    """
    q = model._q_v
    slope, full_rank = model._slope
    hs_squared = float(np.trace(compose(slope, q).as_matrix()))

    qv_sum = su_sum = hs_sum = None
    if decay is not None:
        q_decay = decay.sigma_v_decay + decay.kappa_decay
        qv_sum = q_decay > 1.0
        su_sum = decay.sigma_u_decay > 1.0
        t_decay = q_decay - min(decay.sigma_u_decay, q_decay) / 2.0
        hs_sum = t_decay > 0.5
    return HsReport(
        trace_qv=float(np.trace(q.as_matrix())),
        trace_sigma_u=float(np.trace(model.sigma_u.as_matrix())),
        hs_norm=float(np.sqrt(max(hs_squared, 0.0))),
        injective=full_rank,
        qv_trace_summable=qv_sum,
        sigma_u_trace_summable=su_sum,
        hs_summable=hs_sum,
    )


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


# Rows transformed at a time. OpenBLAS's x86-64 DGEMM walks the rows of a
# product in panels of 192, and a product of a few rows takes another path;
# blocks of two panels, with a tail under one panel joined to the block
# before it, give every row the bits of one product over the whole chunk
# when BLAS runs on one thread.
BLOCK_ROWS = 384
# Draws per (seed, chunk) stream: three whole blocks, so the sampler holds
# one chunk of standard normals whatever the draw count.
DEFAULT_CHUNK = 3 * BLOCK_ROWS


def _row_blocks(count: int) -> Iterator[slice]:
    lo = 0
    while lo < count:
        hi = lo + BLOCK_ROWS
        if count - hi < BLOCK_ROWS // 2:
            hi = count
        yield slice(lo, hi)
        lo = hi


def sample_joint_blocks(
    model: GaussianModel, count: int, seed: int
) -> Iterator[tuple[slice, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Draw ``count`` joint samples of (u, v, y, x) and yield them a block
    of rows at a time, as ``(rows, u, v, y, x)``.

    Noise is generated through symmetric square roots of the covariances
    applied to standard normal coefficient vectors; the signal-noise draw is
    projected onto the range of the operator, so components orthogonal to it
    are identically zero.  Draws are produced in chunks of ``DEFAULT_CHUNK``
    whose streams are seeded by (seed, chunk index) -- the declared
    splitting rule -- so chunked or parallel generation yields identical
    output.  Each chunk's u normals are drawn into a buffer of one chunk;
    its v normals, which follow them in the stream, are drawn a block at a
    time, in order, straight into the block's v scratch.  Each block is
    transformed into scratch arrays of one block, which are yielded and then
    reused for the next block, so a caller copies what it keeps.  Memory is
    one chunk of u normals plus a few blocks, whatever ``count`` is.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    root_u, root_v = model._roots
    range_proj = model.pinv_bundle.range_projector
    ainv = model.pinv_bundle.pinv
    y0 = model.y0.coeffs
    chunk = min(count, DEFAULT_CHUNK)
    zu = np.empty((chunk, model.dim))
    rows = min(chunk, BLOCK_ROWS + BLOCK_ROWS // 2)
    u, y, x = (np.empty((rows, model.dim)) for _ in range(3))
    v, tmp = (np.empty((rows, model.codim)) for _ in range(2))
    for start in range(0, count, DEFAULT_CHUNK):
        stop = min(start + DEFAULT_CHUNK, count)
        rng = np.random.default_rng([seed, start // DEFAULT_CHUNK])
        zu_rows = zu[: stop - start]
        rng.standard_normal(out=zu_rows)
        for block in _row_blocks(stop - start):
            n = block.stop - block.start
            bu, bv, by, bx, bt = u[:n], v[:n], y[:n], x[:n], tmp[:n]
            rng.standard_normal(out=bv)
            apply_rows(root_u, zu_rows[block], out=bu)
            apply_rows(root_v, bv, out=bt)
            apply_rows(range_proj, bt, out=bv)
            apply_rows(ainv, bv, out=by)
            by += y0
            np.add(by, bu, out=bx)
            yield slice(start + block.start, start + block.stop), bu, bv, by, bx

