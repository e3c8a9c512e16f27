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
check a covariance's entries.  Besides the operator algebra it provides the
Moore-Penrose inverse with its projector algebra, the symmetric spectral
primitives the covariance algebra is written in, and the one rounding policy.
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
# Operator algebra
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


def adjoint(op: OperatorRep) -> OperatorRep:
    """Adjoint with respect to the orthonormal bases.

    The stored array transposes (a 1-d array is its own transpose); a
    symmetric operator on one basis, diagonal ones included, returns itself.
    """
    if op.domain_basis == op.codomain_basis and np.array_equal(op.stored, op.stored.T):
        return op
    return OperatorRep(op.stored.T, op.codomain_basis, op.domain_basis)


def compose(s: OperatorRep, t: OperatorRep) -> OperatorRep:
    """Composition ``s o t`` (apply ``t`` first).

    Diagonal composed with diagonal stays diagonal; any other combination
    materializes as a dense operator.
    """
    if t.codomain_basis != s.domain_basis:
        raise BasisMismatchError(
            f"cannot compose: inner bases {t.codomain_basis!r} and "
            f"{s.domain_basis!r} differ"
        )
    if t.dim_out != s.dim_in:
        raise DimensionMismatchError(
            f"cannot compose: inner dimensions {t.dim_out} and {s.dim_in} differ"
        )
    if s.is_diagonal and t.is_diagonal:
        return diagonal_operator(s.stored * t.stored, t.domain_basis, s.codomain_basis)
    return dense_operator(
        s.as_matrix() @ t.as_matrix(), t.domain_basis, s.codomain_basis
    )


def add(s: OperatorRep, t: OperatorRep) -> OperatorRep:
    """Operator sum; diagonal plus diagonal stays diagonal."""
    if (s.domain_basis, s.codomain_basis) != (t.domain_basis, t.codomain_basis):
        raise BasisMismatchError("cannot add operators with different bases")
    if (s.dim_in, s.dim_out) != (t.dim_in, t.dim_out):
        raise DimensionMismatchError("cannot add operators with different shapes")
    if s.is_diagonal and t.is_diagonal:
        return diagonal_operator(s.stored + t.stored, s.domain_basis, s.codomain_basis)
    return dense_operator(
        s.as_matrix() + t.as_matrix(), s.domain_basis, s.codomain_basis
    )


def scalar_multiple(op: OperatorRep, c: float) -> OperatorRep:
    """Scale an operator by a real constant, preserving its representation."""
    return OperatorRep(op.stored * float(c), op.domain_basis, op.codomain_basis)


# ---------------------------------------------------------------------------
# Symmetric spectral primitives
# ---------------------------------------------------------------------------


def symmetrize(op: OperatorRep) -> OperatorRep:
    """Symmetric part ``(op + op*) / 2`` of a square operator."""
    if op.is_diagonal:
        return op
    # Halving before the sum keeps entries near the float limit finite; it
    # is exact above the subnormal range, so other inputs keep the bits of
    # 0.5 * (S + S.T).
    return dense_operator(
        0.5 * op.stored + 0.5 * op.stored.T, op.domain_basis, op.codomain_basis
    )


def symmetric_eig(
    op: OperatorRep, vectors: bool = True
) -> tuple[np.ndarray, np.ndarray | None]:
    """Eigenvalues and eigenvectors of the symmetric part of a square operator.

    Diagonal operators return their multipliers (in storage order) and no
    eigenvectors; dense operators return ascending eigenvalues and the
    matching orthonormal eigenvector columns, or ``None`` in their place
    when ``vectors`` is false.
    """
    if op.is_diagonal:
        return op.stored, None
    sym = symmetrize(op).stored
    return np.linalg.eigh(sym) if vectors else (np.linalg.eigvalsh(sym), None)


def psd_inverse(op: OperatorRep, power: float = 1.0) -> tuple[OperatorRep, int]:
    """Thresholded inverse power ``op^(-power)`` of a symmetric PSD operator.

    Eigenvalues at or below ``EIG_RTOL`` times the largest one count as zero
    and stay zero in the result, which is then the generalized inverse on the
    numerical range.  Returns the result, stored like ``op``, and the number
    of eigenvalues kept (the numerical rank of ``op``).
    """
    vals, vecs = symmetric_eig(op)
    largest = float(vals.max(initial=0.0))
    keep = vals > EIG_RTOL * largest if largest > 0.0 else np.zeros(vals.shape, bool)
    rank = int(np.count_nonzero(keep))
    if vecs is None:
        inv = np.zeros_like(vals)
        inv[keep] = 1.0 / vals[keep] ** power
        return diagonal_operator(inv, op.domain_basis, op.codomain_basis), rank
    inv = (vecs[:, keep] / vals[keep] ** power) @ vecs[:, keep].T
    return dense_operator(inv, op.domain_basis, op.codomain_basis), rank


def operator_power(op: OperatorRep, power: float) -> OperatorRep:
    """``op**power`` of a symmetric PSD operator, stored like ``op``.

    Negative round-off eigenvalues are clipped at zero first.
    """
    vals, vecs = symmetric_eig(op)
    vals = np.clip(vals, 0.0, None) ** power
    if vecs is None:
        return diagonal_operator(vals, op.domain_basis, op.codomain_basis)
    return dense_operator((vecs * vals) @ vecs.T, op.domain_basis, op.codomain_basis)


# ---------------------------------------------------------------------------
# Moore-Penrose generalized inverse
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PinvBundle:
    """Generalized inverse with its projector algebra.

    ``projector_pi`` is the orthogonal projector pinv(A) A onto the
    orthogonal complement of the null space of A (acting on the domain),
    ``V_r V_r*`` from the leading rows of Vt when A is dense;
    ``projector_complement`` is its complement; ``range_projector`` is
    A pinv(A) on the codomain, spanned by the orthonormal columns of
    ``range_basis`` (a view of U when A is dense).  The three projectors
    are formed on first use and kept, so a model that never asks for one
    holds no dim x dim projector.  ``retained`` indexes the components
    kept: the nonzero multipliers of a diagonal operator, or the leading
    ``numerical_rank`` singular triplets of a dense one, whose singular
    values ``singular_values`` holds in that order (``cond`` is
    ``|A| |A+|`` from them).  ``svd`` holds the dense operator's read-only
    factors (U, s, Vt), the ones the operator keeps, so spectral consumers
    can reuse them.
    """

    pinv: OperatorRep
    numerical_rank: int
    sv_threshold: float
    retained: np.ndarray
    singular_values: np.ndarray
    svd: tuple | None = None

    @cached_property
    def projector_pi(self) -> OperatorRep:
        basis = self.pinv.codomain_basis
        if self.svd is None:
            keep = np.zeros(self.pinv.dim_out)
            keep[self.retained] = 1.0
            return diagonal_operator(keep, basis)
        vt = self.svd[2][: self.numerical_rank]
        return dense_operator(vt.T @ vt, basis)

    @cached_property
    def projector_complement(self) -> OperatorRep:
        pi = self.projector_pi
        identity = 1.0 if pi.is_diagonal else np.eye(pi.dim_in)
        return OperatorRep(identity - pi.stored, pi.domain_basis, pi.domain_basis)

    @property
    def cond(self) -> float:
        s = self.singular_values
        return float(s.max(initial=0.0)) * float(1.0 / s.min(initial=np.inf)) or 1.0

    @property
    def range_basis(self) -> np.ndarray:
        if self.svd is None:  # a fresh dim_out x rank slice of the identity
            return np.eye(self.pinv.dim_in)[:, self.retained]
        return self.svd[0][:, : self.numerical_rank]

    @cached_property
    def range_projector(self) -> OperatorRep:
        basis = self.pinv.domain_basis
        if self.svd is None:
            return diagonal_operator(self.projector_pi.stored, basis)
        u = self.range_basis
        return dense_operator(u @ u.T, basis)


def pinv(a: OperatorRep) -> PinvBundle:
    """Moore-Penrose generalized inverse via full SVD with relative cutoff.

    Singular values at or below ``eps * max(dim_in, dim_out)`` times the
    largest one are treated as zero; this cutoff decides the numerical rank
    of ``a`` for the whole package.  An all-zero operator is valid input:
    the result has rank 0 and zero projector.  The SVD of a dense ``a`` is
    the one ``a`` keeps, so it is computed once per operator object.
    """
    rcond = float(np.finfo(float).eps * max(a.dim_in, a.dim_out))
    if a.is_diagonal:
        mult = a.stored
        largest = float(np.abs(mult).max())
        threshold = rcond * largest
        keep = np.abs(mult) > threshold
        inv = np.zeros_like(mult)
        np.divide(1.0, mult, out=inv, where=keep)
        return PinvBundle(
            pinv=diagonal_operator(inv, a.codomain_basis, a.domain_basis),
            numerical_rank=int(keep.sum()),
            sv_threshold=threshold,
            retained=np.nonzero(keep)[0],
            singular_values=np.abs(mult[keep]),
        )

    u, s, vt = factors = a._svd
    largest = float(s[0]) if s.size else 0.0
    threshold = rcond * largest
    rank = int(np.count_nonzero(s > threshold))
    if rank:
        inv_mat = vt[:rank].T @ (u[:, :rank] / s[:rank]).T
    else:
        inv_mat = np.zeros((a.dim_in, a.dim_out))
    return PinvBundle(
        pinv=dense_operator(inv_mat, a.codomain_basis, a.domain_basis),
        numerical_rank=rank,
        sv_threshold=threshold,
        retained=np.arange(rank),
        singular_values=s[:rank],
        svd=factors,
    )


def moore_penrose_residuals(a: OperatorRep, bundle: PinvBundle) -> dict[str, float]:
    """Frobenius residuals of the four defining identities of ``bundle.pinv``
    and of the idempotence and symmetry of ``bundle.projector_pi``.
    Diagonal storage is checked elementwise, where ``.T`` is the identity."""
    ops = (a, bundle.pinv, bundle.projector_pi)
    if all(op.is_diagonal for op in ops):
        (mat, inv, pi), mul = (op.stored for op in ops), np.multiply
    else:
        (mat, inv, pi), mul = (op.as_matrix() for op in ops), np.matmul
    ai, ia = mul(mat, inv), mul(inv, mat)

    def frobenius(residual):  # ravelled as np.linalg.norm does
        return euclidean_norm(residual.ravel(order="K"))

    return {
        "reconstruct": frobenius(mul(ai, mat) - mat),
        "pinv_reconstruct": frobenius(mul(ia, inv) - inv),
        "range_symmetry": frobenius(ai.T - ai),
        "null_symmetry": frobenius(ia.T - ia),
        "projector_idempotence": frobenius(mul(pi, pi) - pi),
        "projector_symmetry": frobenius(pi.T - pi),
    }
