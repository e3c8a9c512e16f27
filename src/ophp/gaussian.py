"""Gaussian signal-plus-noise model behind the filter.

The model is ``x = y + u`` with ``A y = v``, where ``u`` and ``v`` are
independent zero-mean Gaussians with covariances ``sigma_u`` and ``sigma_v``
and the deterministic component ``y0`` of the signal lies in the null space
of ``A``.  This module builds the conditional mean of the signal given the
data and the whitening operators that test it, in the singular frame of
``A`` with no ambient covariance, and a reproducible block-wise sampler.
"""

from __future__ import annotations

import math
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
    apply,
    apply_rows,
    core_eig,
    core_product,
    core_sum,
    euclidean_norm,
    operator_power,
    pinv,
    psd_inverse,
    rounding_bound,
    shifted_inverse,
)


class ModelError(ValueError):
    """The model violates a structural requirement."""


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
    eigvals = core_eig(stored, vectors=False)[0]
    if not np.isfinite(eigvals).all():
        raise ModelError(f"{label} has an eigenvalue beyond the float range")
    if not above_psd_floor(eigvals):
        raise ModelError(f"{label} has an eigenvalue below the PSD floor")


@dataclass(frozen=True, eq=False)
class GaussianModel:
    """Operator, noise covariances, and deterministic signal component.

    The model is immutable, so what depends on nothing else is computed on
    first use and kept: the regression slope, built in the frame of ``A``,
    and the covariance square roots used by the sampler.
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
    def _slope(self) -> OperatorRep:
        return _slope_of(self, _frame_cores(self))

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
    # |pi y0| without forming pi: the norm of y0's frame coordinates V_r* y0.
    pi_y0 = euclidean_norm(bundle.coordinates(y0.coeffs))
    bound = rounding_bound(y0.norm() if scale is None else scale, bundle.cond)
    if pi_y0 > bound:
        raise ModelError(
            "y0 must lie in the null space of the operator "
            f"(projector residual {pi_y0:.3e}, bound {bound:.3e})"
        )


# ---------------------------------------------------------------------------
# Conditioning in the singular frame of A
# ---------------------------------------------------------------------------


def _frame_cores(model: GaussianModel) -> tuple:
    """``(scale, C_u', G, C_n^(-1/2), rank C_n, (I / scale + C_u' S C_v^-1 S)^-1,
    C_v)``, ``sigma_u`` divided by a power of two that keeps ``S C_u' S``
    finite."""
    frame = model.pinv_bundle
    peak = float(np.abs(model.sigma_u.stored).max())
    scale = max(1.0, math.ldexp(1.0, math.frexp(peak)[1] - 1))
    cu, gain, root_n, rank_n = frame.condition_on_null(model.sigma_u, scale)
    s = frame.scales
    try:
        with np.errstate(all="ignore"):
            cv = frame.codomain_core(model.sigma_v)
            cv_inverse, singular = frame.range_inverse(cv)
            if singular is not None:
                raise ModelError(f"sigma_v is singular on {singular}")
            system = shifted_inverse(core_product(cu, s, cv_inverse, s), 1.0 / scale)
    except np.linalg.LinAlgError as exc:
        raise ModelError(f"the conditioning system {exc}") from None
    return scale, cu, gain, root_n, rank_n, system, cv


def _slope_of(model: GaussianModel, cores: tuple) -> OperatorRep:
    scale, _, gain, _, _, system, _ = cores
    return model.pinv_bundle.block_operator(system / scale, gain, back=True)


def regression_slope(model: GaussianModel) -> OperatorRep:
    """Best-predictor slope ``V_r K (V_r* - G V_n*)`` in the frame
    ``A = U_r S V_r*``, ``V = [V_r V_n]``: with ``Sigma = V* sigma_u V``, the
    range noise is conditioned on the null coordinates, ``G = Sigma_rn C_n^+``
    (0 where ``sigma_u`` commutes with the projector), ``C_u' = Sigma_rr -
    G Sigma_nr``, then ``K = (I + C_u' S C_v^-1 S)^-1``, ``C_v = U_r* sigma_v
    U_r``: ``Q_v (sigma_u + Q_v)^-1`` without the ambient ``Q_v``, whose
    spectrum spans ``cond(A)^2`` (Stuart 2010, Acta Numerica 19).  Raises
    :class:`ModelError` where ``sigma_v`` is singular on the range of ``A``."""
    return model._slope


def conditional_mean(model: GaussianModel, x: CoeffVector) -> CoeffVector:
    """Best predictor ``y0 + K (x - y0)`` of the signal, ``K`` the regression slope."""
    return model.y0 + apply(regression_slope(model), x - model.y0)


def conditional_whitening(model: GaussianModel) -> tuple:
    """``(white_x, k_x, white_r, k_r)``: whitening operators of the data and
    of the residual ``(y - y0) - K (x - y0)`` into frame coordinates, and
    their ranks.  ``V_r* x - G V_n* x`` is whitened by
    ``(S C_u' S + C_v)^(-1/2) S``, ``V_n* x`` by ``C_n^(-1/2)`` and the
    residual by ``(K C_u')^(-1/2)``, each on its numerical range.  The
    residual is formed in floats from ``y``, so its standard deviations
    below the rounding bound of the largest one of ``y`` count as zero.
    The model's regression slope, if not yet kept, is kept from the same
    cores, so a check that reads both eigendecomposes ``C_v`` once."""
    frame = model.pinv_bundle
    cores = _frame_cores(model)
    if "_slope" not in vars(model):
        vars(model)["_slope"] = _slope_of(model, cores)
    scale, cu, gain, root_n, rank_n, system, cv = cores
    s = frame.scales
    with np.errstate(all="ignore"):
        h = core_sum(core_product(s, cu, s), cv / scale)
        sigma_r = core_product(system, cu)
        signal = float(np.abs(core_product(1.0 / s, cv, 1.0 / s)).max(initial=0.0))
    if not (np.isfinite(h).all() and np.isfinite(sigma_r).all()):
        raise ModelError("the whitening cores overflow the float range")
    root_h, rank_h = psd_inverse(h, 0.5)
    floor = rounding_bound(math.sqrt(signal)) ** 2
    root_r, rank_r = psd_inverse(sigma_r, 0.5, floor=floor)
    norm = 1.0 / math.sqrt(scale)
    white_x = frame.block_operator(core_product(root_h, s) * norm, gain, root_n * norm)
    white_r = frame.block_operator(root_r, None)
    return white_x, rank_h + rank_n, white_r, rank_r


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

