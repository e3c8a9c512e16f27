"""Linear operators on finite orthonormal-basis truncations.

Everything downstream works with coefficient sequences relative to a declared
orthonormal basis.  An operator is its stored array, whose rank is its kind:

diagonal (1-d)
    A spectral multiplier sequence.  Diagonal operators never promote to
    dense storage implicitly; promotion happens only through
    :meth:`OperatorRep.as_matrix`.
dense (2-d)
    A rectangular matrix between two (possibly different) bases, rows
    indexing the codomain.  An integral kernel on [0, 1], sampled on a
    composite-trapezoid quadrature grid and projected onto the sine basis,
    is stored this way.

Range bases and spectra are computed in this module; other modules read
``stored`` only for a diagonal closed form, to write an operator out, or to
check a covariance's entries.  Besides applying operators it provides the
Moore-Penrose inverse on the singular frame of ``A``, in which the smoother,
the trend system and the Gaussian conditioning are written, symmetric
spectral primitives, and the one rounding policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

BASIS_EUCLIDEAN = "abstract-euclidean"
BASIS_SINE = "sine-dirichlet"

# Eigenvalues at or below EIG_RTOL times the largest one count as zero: the
# rank cutoff of PSD inverses, a rank decision like pinv's, not rounding.
EIG_RTOL = 1e-12
# Rounding policy: a quantity that is zero in exact arithmetic passes while it
# stays within ROUNDING_MULTIPLE * eps * cond * scale, where ``scale`` is the
# size of the data it is computed from and ``cond`` amplifies their rounding.
ROUNDING_MULTIPLE = 64


def rounding_bound(scale, cond: float = 1.0):
    """The rounding policy's bound at ``scale`` (a float or an array)."""
    return ROUNDING_MULTIPLE * np.finfo(float).eps * cond * scale


def above_psd_floor(eigvals: np.ndarray) -> bool:
    """No eigenvalue lies below the rounding bound of ``1 + max|eigenvalue|``,
    the scale of an eigensolver's backward error."""
    scale = 1.0 + float(np.abs(eigvals).max(initial=0.0))
    return float(eigvals.min(initial=0.0)) >= -rounding_bound(scale)


def euclidean_norm(values: np.ndarray) -> float:
    """``np.linalg.norm`` of a 1-d array, and the same bits wherever that is
    finite.  Where only the squares leave the float range, the entries are
    divided by their largest magnitude first, so a representable norm is
    served; one that is not overflows in the last product."""
    with np.errstate(over="ignore"):
        plain = np.linalg.norm(values)
    if np.isfinite(plain) or not np.isfinite(values).all():
        return float(plain)
    top = np.abs(values).max()
    return float(top * np.linalg.norm(values / top))


class BasisMismatchError(ValueError):
    """Vectors or operators disagree on the declared basis."""


class DimensionMismatchError(ValueError):
    """Shapes are incompatible for the requested operation."""


# ---------------------------------------------------------------------------
# Coefficient vectors
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CoeffVector:
    """Coefficients of an element in an orthonormal-basis truncation.

    The squared norm equals the sum of squared coefficients (Parseval at the
    truncation level).  Arithmetic is only defined between vectors with the
    same basis identifier and truncation dimension.
    """

    coeffs: np.ndarray
    basis_id: str = BASIS_EUCLIDEAN

    def __post_init__(self):
        arr = np.array(self.coeffs, dtype=float, copy=True)
        if arr.ndim != 1 or arr.size == 0:
            raise DimensionMismatchError(
                "coefficients must form a nonempty one-dimensional sequence"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @property
    def dim(self) -> int:
        return int(self.coeffs.shape[0])

    def norm(self) -> float:
        return euclidean_norm(self.coeffs)

    def _require_compatible(self, other: "CoeffVector") -> None:
        if self.basis_id != other.basis_id:
            raise BasisMismatchError(
                f"cannot combine vectors in bases {self.basis_id!r} and "
                f"{other.basis_id!r}"
            )
        if self.dim != other.dim:
            raise DimensionMismatchError(
                f"cannot combine vectors of dimensions {self.dim} and {other.dim}"
            )

    def __add__(self, other: "CoeffVector") -> "CoeffVector":
        self._require_compatible(other)
        return CoeffVector(self.coeffs + other.coeffs, self.basis_id)

    def __sub__(self, other: "CoeffVector") -> "CoeffVector":
        self._require_compatible(other)
        return CoeffVector(self.coeffs - other.coeffs, self.basis_id)


# ---------------------------------------------------------------------------
# Operator representation
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class OperatorRep:
    """A linear operator between two basis truncations.

    ``stored`` is a read-only array whose rank is the kind: 1-d spectral
    multipliers for a diagonal operator, a 2-d matrix whose rows index the
    codomain for a dense one.  An operator discretized from an integral
    kernel is dense.
    """

    stored: np.ndarray
    domain_basis: str
    codomain_basis: str

    def __post_init__(self):
        arr = np.array(self.stored, dtype=float, copy=True)
        if arr.ndim not in (1, 2) or arr.size == 0:
            raise DimensionMismatchError(
                "an operator stores a nonempty 1-d or 2-d array"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "stored", arr)

    @property
    def dim_in(self) -> int:
        return int(self.stored.shape[-1])

    @property
    def dim_out(self) -> int:
        return int(self.stored.shape[0])

    @property
    def is_diagonal(self) -> bool:
        return self.stored.ndim == 1

    @cached_property
    def _svd(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # Read-only, as the operator may be shared (see kernel_operator).
        factors = tuple(np.linalg.svd(self.stored, full_matrices=True))
        for factor in factors:
            factor.setflags(write=False)
        return factors

    def as_matrix(self) -> np.ndarray:
        """Explicit promotion to a dense matrix.

        Diagonal operators stay diagonal in all module operations; this is
        the single deliberate escape hatch.  A dense operator returns its
        stored matrix, which is read-only.
        """
        return np.diag(self.stored) if self.is_diagonal else self.stored


def diagonal_operator(
    multipliers, basis_id: str = BASIS_EUCLIDEAN, codomain_basis: str | None = None
) -> OperatorRep:
    """Spectral multiplier operator acting componentwise."""
    mult = np.asarray(multipliers, dtype=float)
    if mult.ndim != 1:
        raise DimensionMismatchError("diagonal multipliers must be 1-d")
    return OperatorRep(
        mult, basis_id, basis_id if codomain_basis is None else codomain_basis
    )


def dense_operator(
    rows, domain_basis: str = BASIS_EUCLIDEAN, codomain_basis: str | None = None
) -> OperatorRep:
    """Dense matrix operator; rows index the codomain."""
    mat = np.asarray(rows, dtype=float)
    if mat.ndim != 2:
        raise DimensionMismatchError("dense matrix must be 2-d")
    return OperatorRep(
        mat, domain_basis, domain_basis if codomain_basis is None else codomain_basis
    )


# ---------------------------------------------------------------------------
# Kernel operators on [0, 1]
# ---------------------------------------------------------------------------


def trapezoid_grid(points: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and composite-trapezoid weights of a uniform closed grid on [0, 1]."""
    if points < 3:
        raise DimensionMismatchError("quadrature grid needs at least 3 points")
    nodes = np.linspace(0.0, 1.0, points)
    h = 1.0 / (points - 1)
    weights = np.full(points, h)
    weights[0] = weights[-1] = h / 2.0
    return nodes, weights


def check_sine_resolution(points: int, dim: int) -> None:
    """Samples at ``points`` nodes resolve at most ``points - 2`` sine modes."""
    if points - 2 < dim:
        raise DimensionMismatchError(
            f"{points} samples cannot resolve {dim} sine modes"
        )


def sine_basis_matrix(nodes: np.ndarray, dim: int) -> np.ndarray:
    """Values of the orthonormal Dirichlet sine basis at the given nodes.

    Column ``n`` (0-based) holds sqrt(2)*sin((n+1)*pi*t).
    """
    modes = np.arange(1, dim + 1)
    # One buffer, each step in place; the products are those of
    # ``sqrt(2) * sin(pi * outer)``, as multiplication commutes.
    values = np.outer(np.asarray(nodes, float), modes)
    values *= np.pi
    np.sin(values, out=values)
    values *= np.sqrt(2.0)
    return values


def dirichlet_green_kernel(t, s):
    """Green function of the 1-d Dirichlet second-derivative problem."""
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    return np.where(s <= t, (1.0 - t) * s, t * (1.0 - s))


# Rows of the quadrature grid filled per step by the in-place kernel forms.
_BAND = 64


def _dirichlet_green_into(nodes: np.ndarray, out: np.ndarray) -> None:
    """``out[i, j] = dirichlet_green_kernel(nodes[i], nodes[j])`` for
    strictly increasing ``nodes``, written in place a band of rows at a time.

    Left of a band's diagonal block ``s < t``, so the entries are
    ``(1 - t) s``; right of it ``s > t``, so they are ``t (1 - s)``.  The
    diagonal block, where the comparison decides, is the kernel itself.
    """
    rest = 1.0 - nodes
    for lo in range(0, nodes.shape[0], _BAND):
        hi = lo + _BAND
        t = nodes[lo:hi]
        np.multiply.outer(rest[lo:hi], nodes[:lo], out=out[lo:hi, :lo])
        out[lo:hi, lo:hi] = dirichlet_green_kernel(t[:, None], t[None, :])
        np.multiply.outer(t, rest[hi:], out=out[lo:hi, hi:])


# Registered kernels, all symmetric: Green functions of self-adjoint problems.
# Each is registered by its in-place form, which fills a grid x grid buffer
# with the kernel at the quadrature nodes.
KERNELS = {"dirichlet_green": _dirichlet_green_into}

DEFAULT_GRID_POINTS = 512

# The recipe of the kernel operator last built in this process, and the
# operator.  It holds its matrix and, once factorized, its SVD: 3 dim^2 + dim
# floats.
_LAST_KERNEL: tuple = (None, None)


def kernel_operator(
    name: str, dim: int, grid_points: int = DEFAULT_GRID_POINTS
) -> OperatorRep:
    """Integral operator on [0, 1] with the registered kernel ``name``,
    discretized by trapezoid quadrature.

    The kernel is sampled on a uniform closed grid and the operator matrix
    is formed in the sine basis, so downstream arithmetic works on
    coefficients.  The registered kernels are symmetric, and so is the
    matrix, exactly.  Asked again for the recipe it last built, it returns
    the same shared, read-only operator, so a process that keeps to one
    recipe builds its matrix, and computes its SVD, once.
    """
    global _LAST_KERNEL
    try:
        fill = KERNELS[name]
    except KeyError:
        raise ValueError(f"unknown kernel name {name!r}") from None
    check_sine_resolution(grid_points, dim)
    recipe = (name, int(dim), int(grid_points))
    last_recipe, last_op = _LAST_KERNEL
    if recipe == last_recipe:
        return last_op
    nodes, weights = trapezoid_grid(grid_points)
    # One grid x grid buffer: the kernel values, then ``w_t K(t, s) w_s``
    # weighted in place, a product at a time in that order.
    weighted = np.empty((grid_points, grid_points))
    fill(nodes, weighted)
    weighted *= weights[:, None]
    weighted *= weights
    basis_vals = sine_basis_matrix(nodes, dim)
    projected = basis_vals.T @ weighted @ basis_vals
    symmetric = projected + projected.T
    symmetric *= 0.5
    op = OperatorRep(symmetric, BASIS_SINE, BASIS_SINE)
    _LAST_KERNEL = (recipe, op)
    return op


# ---------------------------------------------------------------------------
# Operator application
# ---------------------------------------------------------------------------


def apply(op: OperatorRep, x: CoeffVector) -> CoeffVector:
    """Apply the operator to a coefficient vector.

    For kernel operators this evaluates the quadrature approximation of the
    integral transform, expressed in the codomain (sine) basis.
    """
    if x.basis_id != op.domain_basis:
        raise BasisMismatchError(
            f"operator domain basis {op.domain_basis!r} does not match vector "
            f"basis {x.basis_id!r}"
        )
    if x.dim != op.dim_in:
        raise DimensionMismatchError(
            f"operator expects dimension {op.dim_in}, got {x.dim}"
        )
    return CoeffVector(apply_rows(op, x.coeffs), op.codomain_basis)


def apply_rows(
    op: OperatorRep, rows: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Apply the operator to every row of ``rows`` (one vector per row).

    ``out``, when given, receives the result and must not overlap ``rows``;
    the values are the same as without it.
    """
    if op.is_diagonal:
        return np.multiply(rows, op.stored, out=out)
    return np.matmul(rows, op.stored.T, out=out)


# ---------------------------------------------------------------------------
# Symmetric spectral primitives
# ---------------------------------------------------------------------------


def _symmetric_part(mat: np.ndarray) -> np.ndarray:
    # Halving before the sum keeps entries near the float limit finite; it
    # is exact above the subnormal range, so other inputs keep the bits of
    # 0.5 * (S + S.T).
    return 0.5 * mat + 0.5 * mat.T


def core_eig(
    core: np.ndarray, vectors: bool = True
) -> tuple[np.ndarray, np.ndarray | None]:
    """Ascending eigenvalues of the symmetric part of a square array, 1-d for
    a diagonal one, and the matching orthonormal eigenvector columns, or
    ``None`` in their place when ``vectors`` is false.  A 1-d array is read
    off, with no eigensolver."""
    if core.ndim == 1:
        order = np.argsort(core)
        return core[order], np.eye(core.size)[:, order] if vectors else None
    sym = _symmetric_part(core)
    return np.linalg.eigh(sym) if vectors else (np.linalg.eigvalsh(sym), None)


def psd_inverse(
    core: np.ndarray, power: float = 1.0, top: float | None = None, floor: float = 0.0
) -> tuple[np.ndarray, int]:
    """Thresholded inverse power ``core^(-power)`` of a symmetric PSD core,
    1-d for a 1-d one, and the number of eigenvalues kept: those above
    ``floor`` and ``EIG_RTOL`` times ``top`` (the largest one by default).
    Dropped ones stay zero, so the result is the generalized inverse on
    that range."""
    if not core.size:
        return core, 0
    vals, vecs = core_eig(core) if core.ndim == 2 else (core, None)
    largest = float(vals.max(initial=0.0)) if top is None else top
    keep = vals > max(EIG_RTOL * largest, floor)
    rank = int(np.count_nonzero(keep))
    if vecs is None:
        inv = np.zeros_like(vals)
        inv[keep] = 1.0 / vals[keep] ** power
        return inv, rank
    return (vecs[:, keep] / vals[keep] ** power) @ vecs[:, keep].T, rank


def operator_power(op: OperatorRep, power: float) -> OperatorRep:
    """``op**power`` of a symmetric PSD operator, stored like ``op``.

    Negative round-off eigenvalues are clipped at zero first.
    """
    vals, vecs = (op.stored, None) if op.is_diagonal else core_eig(op.stored)
    vals = np.clip(vals, 0.0, None) ** power
    if vecs is None:
        return diagonal_operator(vals, op.domain_basis, op.codomain_basis)
    return dense_operator((vecs * vals) @ vecs.T, op.domain_basis, op.codomain_basis)


# ---------------------------------------------------------------------------
# Moore-Penrose generalized inverse and the singular frame
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SingularFrame:
    """The frame ``A = U_r S V_r*`` of ``operator`` on the ``r`` components
    ``retained``: the nonzero multipliers of a diagonal operator, or the
    leading ``numerical_rank`` singular triplets of a dense one, whose
    ``singular_values`` are in that order (``cond`` is ``|A| |A+|``).  A
    dense operator's ``U_r`` and ``V_r`` are leading columns of the factors
    ``svd`` (U, s, Vt) it keeps, read-only; a diagonal one has no ``svd``,
    its ``U_r`` and ``V_r`` are identity columns and ``S`` (``scales``) holds
    its signed multipliers there.  An operator in the frame is
    an ``r x r`` core, a plain array that is 1-d when the operator and the
    frame are both diagonal.  The projectors ``projector_pi`` (pinv(A) A,
    ``V_r V_r*``), its complement and ``range_projector`` (A pinv(A),
    ``U_r U_r*``) are formed on first use and kept.
    """

    operator: OperatorRep
    numerical_rank: int
    sv_threshold: float
    retained: np.ndarray
    singular_values: np.ndarray

    @property
    def svd(self) -> tuple | None:
        return None if self.operator.is_diagonal else self.operator._svd

    @property
    def scales(self) -> np.ndarray:
        if self.svd is None:
            return self.operator.stored[self.retained]
        return self.singular_values

    def _basis(self, factor: int) -> np.ndarray | None:
        """``U_r`` (``factor`` 0) or ``V_r`` (2) of a dense operator."""
        if self.svd is None:
            return None
        r = self.numerical_rank
        return self.svd[0][:, :r] if factor == 0 else self.svd[2][:r].T

    def _restrict(self, op: OperatorRep, factor: int) -> np.ndarray:
        basis = self._basis(factor)
        if basis is None:
            return op.stored[np.ix_(*(self.retained,) * op.stored.ndim)]
        return core_product(basis.T, op.stored, basis)

    def _extend(self, core: np.ndarray, factor: int, basis_id: str) -> OperatorRep:
        basis = self._basis(factor)
        if basis is None:
            stored = np.zeros((self.operator.dim_in,) * core.ndim)
            stored[np.ix_(*(self.retained,) * core.ndim)] = core
        else:
            stored = core_product(basis, core, basis.T)
        return OperatorRep(stored, basis_id, basis_id)

    def codomain_core(self, op: OperatorRep) -> np.ndarray:
        """``U_r* op U_r``, for ``op`` on the codomain of A."""
        return self._restrict(op, 0)

    def domain_core(self, op: OperatorRep) -> np.ndarray:
        """``V_r* op V_r``, for ``op`` on the domain of A."""
        return self._restrict(op, 2)

    def extend(self, core: np.ndarray) -> OperatorRep:
        """``U_r core U_r*``, on the codomain of A and zero off its range."""
        return self._extend(core, 0, self.operator.codomain_basis)

    def penalty_core(self, b: OperatorRep) -> np.ndarray:
        """``M = S (U_r* B U_r) S``, so that ``A* B A = V_r M V_r*``.  A 1-d
        ``M`` is ``b s^2``, and 0 wherever ``b`` is, also where ``s^2``
        overflows; overflowing entries stay non-finite without a warning."""
        s, basis = self.scales, self._basis(0)
        with np.errstate(over="ignore", invalid="ignore"):
            if basis is not None:  # (U_r S)* B (U_r S), scaling n x r once
                scaled = basis * s
                return core_product(scaled.T, b.stored, scaled)
            core = self.codomain_core(b)
            if core.ndim == 2:
                return core_product(s, core, s)
            penalty = np.zeros_like(core)
            np.multiply(core, s**2, out=penalty, where=core != 0.0)
        return penalty

    def range_inverse(self, core: np.ndarray) -> tuple[np.ndarray | None, str | None]:
        """``core^-1`` of a PSD codomain core (``U_r* op U_r``), or ``None``,
        and where the core is singular, if it is.  A 1-d core is inverted
        componentwise, exactly at any dynamic range, so only entries not
        above the least normal float are singular; they are named.  A 2-d
        core is singular where :func:`psd_inverse` finds it rank-deficient."""
        if core.ndim == 1:
            bad = self.retained[~(core > np.finfo(float).tiny)]
            if bad.size:
                return None, f"range components {bad.tolist()}"
            return 1.0 / core, None
        inverse, rank = psd_inverse(core)
        return inverse, None if rank == core.shape[0] else "the range of A"

    def coordinates(self, x: np.ndarray) -> np.ndarray:
        """``V_r* x``, for a vector or for each column of ``x``."""
        basis = self._basis(2)
        return x[self.retained] if basis is None else basis.T @ x

    def lift(self, w: np.ndarray, x: np.ndarray, coords: np.ndarray) -> np.ndarray:
        """``x + V_r (w - coords)`` for ``coords = V_r* x``: frame coordinates
        ``w`` and the null-space part of ``x``, which keeps its bits where A
        is diagonal."""
        basis = self._basis(2)
        if basis is not None:
            return x + basis @ (w - coords)
        y = x.copy()
        y[self.retained] = w
        return y

    @property
    def null_indices(self) -> np.ndarray:
        """The frame coordinates off ``retained``: they span the null space."""
        return np.delete(np.arange(self.operator.dim_in), self.retained)

    def condition_on_null(self, op: OperatorRep, scale: float) -> tuple:
        """``C = V* op V / scale`` (``V = [V_r V_n]``; the identity for a
        diagonal A) conditioned on its null coordinates: ``C_rr - G C_nr``,
        ``G = C_rn C_nn^+`` (None where ``C`` is 1-d), ``C_nn^(-1/2)`` cut
        off relative to the largest entry of ``C``, and the rank of ``C_nn``."""
        stored = op.stored / scale
        if self.svd is not None:
            stored = core_product(self.svd[2], stored, self.svd[2].T)
        r, n = self.retained, self.null_indices
        top = float(np.abs(stored).max())
        if stored.ndim == 1:
            return (stored[r], None, *psd_inverse(stored[n], 0.5, top))
        root, rank = psd_inverse(stored[np.ix_(n, n)], 0.5, top)
        cross = stored[np.ix_(r, n)]
        gain = cross @ root @ root
        return stored[np.ix_(r, r)] - gain @ cross.T, gain, root, rank

    def block_operator(self, core, gain, null=None, back=False) -> OperatorRep:
        """``F = [core, -core G; 0, null]`` on frame coordinates (None
        blocks are zero) as the operator ``F V*``, or ``V F V*`` with
        ``back``; diagonal where its blocks are."""
        r, n = self.retained, self.null_indices
        null = np.zeros(n.size) if null is None else null
        if gain is None and core.ndim == null.ndim == 1:
            full = np.zeros(self.operator.dim_in)
            full[r], full[n] = core, null
        else:
            core, null = (np.diag(c) if c.ndim == 1 else c for c in (core, null))
            full = np.zeros((self.operator.dim_in,) * 2)
            full[np.ix_(r, r)], full[np.ix_(n, n)] = core, null
            if gain is not None:
                full[np.ix_(r, n)] = -core @ gain
        if self.svd is not None:
            vt = self.svd[2]
            full = core_product(vt.T, full, vt) if back else full @ vt
        return OperatorRep(full, self.operator.domain_basis, self.operator.domain_basis)

    @cached_property
    def projector_pi(self) -> OperatorRep:
        return self._extend(np.ones(self.numerical_rank), 2, self.operator.domain_basis)

    @cached_property
    def projector_complement(self) -> OperatorRep:
        pi = self.projector_pi
        identity = 1.0 if pi.is_diagonal else np.eye(pi.dim_in)
        return OperatorRep(identity - pi.stored, pi.domain_basis, pi.domain_basis)

    @cached_property
    def range_projector(self) -> OperatorRep:
        basis = self.operator.codomain_basis
        return self._extend(np.ones(self.numerical_rank), 0, basis)

    @property
    def cond(self) -> float:
        s = self.singular_values
        return float(s.max(initial=0.0)) * float(1.0 / s.min(initial=np.inf)) or 1.0


@dataclass(frozen=True, eq=False)
class PinvBundle(SingularFrame):
    """Moore-Penrose generalized inverse ``pinv`` of ``operator``, with its
    singular frame."""

    pinv: OperatorRep


def singular_frame(a: OperatorRep) -> SingularFrame:
    """Singular frame of ``a``.  Singular values at or below
    ``eps * max(dim_in, dim_out)`` times the largest one are treated as zero;
    this cutoff decides the numerical rank of ``a`` for the whole package.
    The SVD of a dense ``a`` is the one ``a`` keeps, computed once."""
    rcond = float(np.finfo(float).eps * max(a.dim_in, a.dim_out))
    if a.is_diagonal:
        s = np.abs(a.stored)
        threshold = rcond * float(s.max())
        kept = np.nonzero(s > threshold)[0]
        return SingularFrame(a, int(kept.size), threshold, kept, s[kept])
    s = a._svd[1]
    threshold = rcond * float(s[0])
    rank = int(np.count_nonzero(s > threshold))
    return SingularFrame(a, rank, threshold, np.arange(rank), s[:rank])


def pinv(a: OperatorRep) -> PinvBundle:
    """Moore-Penrose generalized inverse on the singular frame of ``a``.  An
    all-zero operator is valid input: the result has rank 0 and zero
    projector."""
    frame = singular_frame(a)
    r = frame.numerical_rank
    if frame.svd is None:
        inv = np.zeros_like(a.stored)
        inv[frame.retained] = 1.0 / frame.scales
    else:
        u, s, vt = frame.svd
        inv = vt[:r].T @ (u[:, :r] / s[:r]).T
    inv = OperatorRep(inv, a.codomain_basis, a.domain_basis)
    return PinvBundle(**vars(frame), pinv=inv)


def core_product(*factors: np.ndarray) -> np.ndarray:
    """Product of the factors, associated from the left, where a 1-d factor
    stands for the diagonal matrix it holds; 1-d factors alone give a 1-d
    product."""
    out = factors[0]
    for factor in factors[1:]:
        if factor.ndim == 1:
            out = out * factor
        elif out.ndim == 1:
            out = out[:, None] * factor
        else:
            out = out @ factor
    return out


def shifted_solve(core: np.ndarray, rhs: np.ndarray, shift: float = 1.0) -> np.ndarray:
    """``(shift I + core)^-1 rhs`` for a square core and each column of ``rhs``.

    A 1-d core takes the closed form ``rhs / (shift + m)``, 0 where ``m``
    overflowed.  A 2-d core must be finite and is LU-factorized once; each
    column's residual must stay within the rounding bound of
    ``|shift I + core|_F |w| + |rhs|``, a normwise backward error LU attains
    at any condition number (Higham 2002, ch. 7).  A failure raises
    :class:`numpy.linalg.LinAlgError`, its message a predicate.
    """
    if core.ndim == 1:
        return rhs * (1.0 / (shift + core))[:, None]
    if not np.isfinite(core).all():
        raise np.linalg.LinAlgError("is not finite: it overflows the float range")
    system = np.diag(np.full(core.shape[0], float(shift)))
    system += core
    try:
        w = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError:
        cond = np.linalg.cond(system)
        raise np.linalg.LinAlgError(f"is singular (cond={cond:.3e})") from None
    residuals = np.linalg.norm(system @ w - rhs, axis=0)
    bounds = rounding_bound(
        np.linalg.norm(system) * np.linalg.norm(w, axis=0)
        + np.linalg.norm(rhs, axis=0)
    )
    if np.any(residuals > bounds):
        raise np.linalg.LinAlgError(
            f"residual {float(residuals.max()):.3e} exceeds its rounding bound "
            f"(cond={np.linalg.cond(system):.3e})"
        )
    return w


def shifted_inverse(core: np.ndarray, shift: float) -> np.ndarray:
    """``(shift I + core)^-1``, 1-d for a 1-d core, else by :func:`shifted_solve`."""
    if core.ndim == 1:
        return 1.0 / (shift + core)
    return shifted_solve(core, np.eye(core.shape[0]), shift)


def core_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a + b``, where a 1-d core stands for its diagonal matrix unless both are."""
    if a.ndim != b.ndim:
        a, b = (np.diag(c) if c.ndim == 1 else c for c in (a, b))
    return a + b


def nonnegative_diagonal(op: OperatorRep) -> bool:
    """Whether ``op`` is diagonal with no negative multiplier: nonnegative by
    inspection, where a dense operator's sign takes a spectrum."""
    return op.is_diagonal and bool(np.all(op.stored >= 0.0))


def moore_penrose_residuals(a: OperatorRep, bundle: PinvBundle) -> dict[str, float]:
    """Frobenius residuals of the four defining identities of ``bundle.pinv``
    and of the idempotence and symmetry of ``bundle.projector_pi``.
    Diagonal storage is checked elementwise, where ``.T`` is the identity."""
    mat, inv, pi = (op.stored for op in (a, bundle.pinv, bundle.projector_pi))
    ai, ia = core_product(mat, inv), core_product(inv, mat)

    def frobenius(residual):  # ravelled as np.linalg.norm does
        return euclidean_norm(residual.ravel(order="K"))

    return {
        "reconstruct": frobenius(core_product(ai, mat) - mat),
        "pinv_reconstruct": frobenius(core_product(ia, inv) - inv),
        "range_symmetry": frobenius(ai.T - ai),
        "null_symmetry": frobenius(ia.T - ia),
        "projector_idempotence": frobenius(core_product(pi, pi) - pi),
        "projector_symmetry": frobenius(pi.T - pi),
    }
