"""Finite-dimensional density operators and the entropic primitives built on them.

Everything here is exact dense linear algebra on small systems: density
operators are validated Hermitian PSD unit-trace matrices, probability
tables are validated once where they enter the library, entropies are
base-2 von Neumann entropies from eigendecompositions, and the distance
measure is the unnormalized trace norm (sum of singular values), which for
two states ranges over [0, 2].

All values are immutable after construction and every operation is a pure
function, so the module keeps no shared mutable state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, DimensionError, ValidationError

#: Default tolerance for the structural invariants of a density operator.
VALIDATION_TOL = 1e-10

#: Tolerance of a probability vector's entries and of its sum.
PROB_TOL = 1e-12

#: Eigenvalues below this are treated as exact zeros inside entropies.
EIGENVALUE_CLIP = 1e-12

#: Largest composite dimension `tensor` will build before refusing.
MAX_COMPOSITE_DIM = 4096


def _dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of every matrix in a (..., d, d) stack."""
    return m.swapaxes(-1, -2).conj()


def _hermitize(m: np.ndarray, dag: np.ndarray) -> np.ndarray:
    """Hermitian part (M + M†)/2 of M, given dag = M†; counters numerical drift before eigensolves."""
    return (m + dag) / 2.0


def _check_hermitian(m: np.ndarray, dag: np.ndarray) -> None:
    """Raise ValidationError unless max |M - M†| <= ``VALIDATION_TOL``, given dag = M†; a NaN or inf entry
    fails too."""
    herm = np.abs(m - dag).max()
    if not herm <= VALIDATION_TOL:
        what = "not Hermitian" if np.isfinite(herm) else "non-finite entry"
        raise ValidationError(f"{what}: max |M - M†| = {herm:.3e}")


def validate_probabilities(table, what: str, tol: float = PROB_TOL) -> np.ndarray:
    """A read-only float copy of ``table`` whose last axis holds probability vectors: entries >= -tol,
    stored as 0 when below 0, summing to 1 within tol; else ValidationError naming ``what``. NaN and
    -inf fail the minimum and +inf the sum, so no separate finiteness pass is needed."""
    t = np.array(table, dtype=float)
    if not (t.size and t.min() >= -tol and np.max(np.abs(t.sum(axis=-1) - 1.0)) <= tol):
        raise ValidationError(f"{what} must hold finite probability vectors: entries >= 0, "
                              f"each vector summing to 1 (within {tol:g})")
    np.maximum(t, 0.0, out=t)
    t.flags.writeable = False
    return t


def validate_states(m: np.ndarray) -> None:
    """Raise ValidationError unless every matrix of the (..., d, d) stack is Hermitian, of unit
    trace and PSD, each within ``VALIDATION_TOL``; one batched eigensolve checks the whole stack.
    The checks are written so that NaN fails them."""
    dag = _dagger(m)
    _check_hermitian(m, dag)
    traces = np.trace(m, axis1=-2, axis2=-1).reshape(-1)
    tr = traces[np.argmax(np.abs(traces - 1.0))]
    if not abs(tr - 1.0) <= VALIDATION_TOL:
        raise ValidationError(f"trace is {tr:.12f}, expected 1")
    lo = float(np.linalg.eigvalsh(_hermitize(m, dag)).min())
    if not lo >= -VALIDATION_TOL:
        raise ValidationError(f"not PSD: smallest eigenvalue {lo:.3e}")


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """A Hermitian, positive-semidefinite, unit-trace matrix.

    Parameters
    ----------
    matrix : array_like
        Square complex matrix. Copied, cast to complex128 and frozen.
    validate : bool
        When True (default) the three invariants are enforced at tolerance
        ``VALIDATION_TOL``. Internal callers that build intermediate
        unnormalized values may pass False; every public operation returns
        validated states.
    """

    matrix: np.ndarray
    validate: bool = field(default=True, repr=False, compare=False)

    def __post_init__(self):
        m = np.array(self.matrix, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionError(f"density operator must be square, got shape {m.shape}")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        if self.validate:
            validate_states(m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def pure(cls, vector) -> "DensityOperator":
        """|ψ⟩⟨ψ| from a (not necessarily normalized) state vector."""
        v = np.asarray(vector, dtype=np.complex128).reshape(-1)
        nrm = np.linalg.norm(v)
        if nrm < 1e-12:
            raise ValidationError("cannot normalize the zero vector")
        v = v / nrm
        return cls(np.outer(v, v.conj()))

    @classmethod
    def basis_state(cls, k: int, dim: int) -> "DensityOperator":
        """|k⟩⟨k| on a dim-dimensional system."""
        if not 0 <= k < dim:
            raise DimensionError(f"basis index {k} out of range for dim {dim}")
        m = np.zeros((dim, dim), dtype=np.complex128)
        m[k, k] = 1.0
        return cls(m)

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityOperator":
        """I/dim."""
        return cls(np.eye(dim, dtype=np.complex128) / dim)

    @classmethod
    def diagonal(cls, probs) -> "DensityOperator":
        """Classical distribution embedded as a diagonal state."""
        p = np.asarray(probs, dtype=float)
        return cls(np.diag(p.astype(np.complex128)))


def tensor(a: DensityOperator, b: DensityOperator) -> DensityOperator:
    """Kronecker product a ⊗ b.

    Raises CapacityError if the composite dimension would exceed ``MAX_COMPOSITE_DIM``.
    """
    d = a.dim * b.dim
    if d > MAX_COMPOSITE_DIM:
        raise CapacityError(f"composite dim {d} exceeds the ceiling {MAX_COMPOSITE_DIM}")
    return DensityOperator(np.kron(a.matrix, b.matrix))


def _as_stack(rho) -> np.ndarray:
    """The matrix of a DensityOperator, or a (..., d, d) stack of square matrices."""
    if isinstance(rho, DensityOperator):
        return rho.matrix
    m = np.asarray(rho)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise DimensionError(f"expected a stack of square matrices, got shape {m.shape}")
    return m


def partial_trace(rho, keep, dims):
    """Reduced state on the subsystems listed in `keep`.

    Parameters
    ----------
    rho : DensityOperator or ndarray
        State on the composite whose factor dimensions are ``dims``, or a
        stack of such matrices of shape (..., D, D); a stack gives back the
        (unvalidated) stack of reduced matrices.
    keep : iterable of int
        Indices (into ``dims``) of the subsystems to retain, in their
        original relative order.
    dims : sequence of int
        Dimension of each tensor factor; their product must equal rho.dim.
    """
    m = _as_stack(rho)
    dims = [int(d) for d in dims]
    n = len(dims)
    if math.prod(dims) != m.shape[-1]:
        raise DimensionError(f"prod(dims)={math.prod(dims)} does not match dim {m.shape[-1]}")
    keep = sorted(set(int(k) for k in keep))
    if any(k < 0 or k >= n for k in keep):
        raise DimensionError(f"keep indices {keep} out of range for {n} subsystems")
    if not keep:
        raise DimensionError("cannot trace out every subsystem")

    batch = m.shape[:-2]
    nb = len(batch)
    t = m.reshape(batch + tuple(dims + dims))
    # Trace out discarded factors from the right to keep axis bookkeeping simple.
    cur = list(range(n))
    for idx in sorted(set(range(n)) - set(keep), reverse=True):
        pos = cur.index(idx)
        t = np.trace(t, axis1=nb + pos, axis2=nb + pos + len(cur))
        cur.pop(pos)
    d_keep = math.prod(dims[k] for k in keep)
    out = t.reshape(batch + (d_keep, d_keep))
    return DensityOperator(out) if isinstance(rho, DensityOperator) else out


def stack_entropies(m: np.ndarray) -> np.ndarray:
    """The entropy kernel: S = -Σ λ log2 λ in bits of every matrix of a (..., d, d) ndarray stack, as an array of
    shape (...), from one batched eigensolve of the Hermitian parts. Raises ValidationError unless every matrix is
    Hermitian within ``VALIDATION_TOL``, so a NaN or inf entry fails instead of giving S = 0. Eigenvalues below
    ``EIGENVALUE_CLIP`` count as zero, and S is clamped at 0."""
    dag = _dagger(m)
    _check_hermitian(m, dag)
    lam = np.linalg.eigvalsh(_hermitize(m, dag))
    lam = np.where(lam < EIGENVALUE_CLIP, 0.0, lam)
    s = -(lam * np.log2(np.where(lam > 0.0, lam, 1.0))).sum(axis=-1)
    return np.where(s > 0.0, s, 0.0)


def von_neumann_entropy(rho):
    """S(ρ) = -Σ λ log2 λ in bits, with 0·log 0 := 0, of a DensityOperator (a float) or of every matrix of a
    (..., d, d) stack (an array of shape (...)), by ``stack_entropies``: eigenvalues below ``EIGENVALUE_CLIP`` are
    clipped to zero, the result is clamped into [0, log2 dim] against float noise, and every matrix must be
    Hermitian within ``VALIDATION_TOL``.
    """
    s = stack_entropies(_as_stack(rho))
    return float(s) if isinstance(rho, DensityOperator) else s


def trace_norm_distance(rho: DensityOperator, sigma: DensityOperator) -> float:
    """Unnormalized trace norm ‖ρ - σ‖₁ = Σ |eigenvalues of ρ - σ|.

    This is the convention without the factor 1/2, so orthogonal states are
    at distance 2. Requires equal dimensions.
    """
    if rho.dim != sigma.dim:
        raise DimensionError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    diff = rho.matrix - sigma.matrix
    return float(np.abs(np.linalg.eigvalsh(_hermitize(diff, _dagger(diff)))).sum())


def maximally_correlated_state(d: int) -> DensityOperator:
    """(1/d) Σ_k |k⟩⟨k| ⊗ |k⟩⟨k| on a d×d composite.

    The state obtained by measuring both halves of a maximally entangled
    pair in the computational basis; for d=2 it is ½(|00⟩⟨00| + |11⟩⟨11|).
    """
    if d < 1:
        raise DimensionError(f"d must be >= 1, got {d}")
    m = np.zeros((d * d, d * d), dtype=np.complex128)
    for k in range(d):
        m[k * d + k, k * d + k] = 1.0 / d
    return DensityOperator(m)
