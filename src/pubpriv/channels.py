"""Quantum channels, isometric (Stinespring) extensions, and a small channel zoo.

A channel N: A' → B is a validated Kraus family; its canonical isometric
extension V = Σ_i K_i ⊗ |i⟩ maps A' into B ⊗ E, where the environment E
(one dimension per Kraus operator) is handed to the eavesdropper. Tracing
out E recovers the channel; tracing out B gives the complementary map, the
eavesdropper's view. No attempt is made to minimize the environment
dimension: entropic quantities are invariant under isometries on E, so the
Kraus count of the given representation is used as dim_E directly.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, ValidationError
from .qcore import DensityOperator, _as_stack, partial_trace, validate_probabilities

COMPLETENESS_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class QuantumChannel:
    """Completely positive trace-preserving map given by Kraus operators."""

    kraus: tuple
    dim_in: int = field(init=False)
    dim_out: int = field(init=False)

    def __post_init__(self):
        ops = []
        for k in self.kraus:
            m = np.array(k, dtype=np.complex128)
            if m.ndim != 2:
                raise DimensionError(f"Kraus operator must be a matrix, got ndim {m.ndim}")
            m.flags.writeable = False
            ops.append(m)
        if not ops:
            raise ValidationError("a channel needs at least one Kraus operator")
        shape = ops[0].shape
        if any(o.shape != shape for o in ops):
            raise DimensionError("all Kraus operators must share one shape")
        object.__setattr__(self, "kraus", tuple(ops))
        object.__setattr__(self, "dim_out", shape[0])
        object.__setattr__(self, "dim_in", shape[1])
        acc = sum(o.conj().T @ o for o in ops)
        residual = float(np.max(np.abs(acc - np.eye(self.dim_in))))
        if not residual <= COMPLETENESS_TOL:  # a NaN or infinite entry fails too
            what = "Kraus completeness violated" if np.isfinite(residual) else "non-finite Kraus entry"
            raise ValidationError(f"{what}: max |ΣK†K - I| = {residual:.3e}")

    def apply(self, rho: DensityOperator) -> DensityOperator:
        """N(ρ) = Σ_i K_i ρ K_i†."""
        if rho.dim != self.dim_in:
            raise DimensionError(f"input dim {rho.dim} != channel dim_in {self.dim_in}")
        out = np.zeros((self.dim_out, self.dim_out), dtype=np.complex128)
        for k in self.kraus:
            out += k @ rho.matrix @ k.conj().T
        return DensityOperator(out)


@dataclass(frozen=True, eq=False)
class IsometricExtension:
    """Canonical Stinespring isometry V: A' → B ⊗ E with V = Σ_i K_i ⊗ |i⟩; its Gram matrix is
    ΣK†K, which the channel has checked against the identity."""

    channel: QuantumChannel
    isometry: np.ndarray = field(init=False)

    def __post_init__(self):
        ch = self.channel
        d_e = len(ch.kraus)
        v = np.zeros((ch.dim_out * d_e, ch.dim_in), dtype=np.complex128)
        for i, k in enumerate(ch.kraus):
            e_i = np.zeros((d_e, 1), dtype=np.complex128)
            e_i[i, 0] = 1.0
            v += np.kron(k, e_i)
        v.flags.writeable = False
        object.__setattr__(self, "isometry", v)

    @property
    def dim_in(self) -> int:
        return self.channel.dim_in

    @property
    def dim_B(self) -> int:
        return self.channel.dim_out

    @property
    def dim_E(self) -> int:
        return len(self.channel.kraus)

    def evolve(self, rho):
        """Joint output VρV† on B ⊗ E (B is the first tensor factor); an ndarray
        stack (..., d, d) of inputs gives the unvalidated stack of outputs."""
        m = _as_stack(rho)
        if m.shape[-1] != self.dim_in:
            raise DimensionError(f"input dim {m.shape[-1]} != channel dim_in {self.dim_in}")
        v = self.isometry
        out = v @ m @ v.conj().T
        return DensityOperator(out) if isinstance(rho, DensityOperator) else out

    def apply(self, rho: DensityOperator) -> DensityOperator:
        """Bob's marginal Tr_E(VρV†); equals the Kraus-sum channel output. Only the marginal is validated."""
        return DensityOperator(partial_trace(self.evolve(rho.matrix), keep=[0], dims=[self.dim_B, self.dim_E]))

    def complementary_apply(self, rho: DensityOperator) -> DensityOperator:
        """Eve's marginal Tr_B(VρV†) — the full purification handed to the eavesdropper."""
        return DensityOperator(partial_trace(self.evolve(rho.matrix), keep=[1], dims=[self.dim_B, self.dim_E]))


def isometric_extension(ch: QuantumChannel) -> IsometricExtension:
    """Canonical Stinespring dilation of a channel."""
    return IsometricExtension(ch)


# ---------------------------------------------------------------------------
# Channel zoo
# ---------------------------------------------------------------------------

_PAULI_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
_PAULI_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)


def _prune_zero(kraus):
    kept = [k for k in kraus if np.max(np.abs(k)) > 0.0]
    return kept if kept else list(kraus)


def identity_channel(d: int = 2) -> QuantumChannel:
    """The identity on a d-dimensional system (single Kraus operator I)."""
    if d < 1:
        raise ValidationError(f"dimension must be >= 1, got {d}")
    return QuantumChannel([np.eye(d, dtype=np.complex128)])


def dephasing_channel(p: float) -> QuantumChannel:
    """Qubit basis-leak channel: with probability p the environment records the basis value.

    Kraus family {√(1-p)·I, √p·|0⟩⟨0|, √p·|1⟩⟨1|} (exact-zero operators pruned).
    p=0 is the identity; p=1 is the completely dephasing channel whose
    environment holds a copy of the computational-basis value.
    """
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"p must lie in [0, 1], got {p}")
    k0 = np.sqrt(1.0 - p) * np.eye(2, dtype=np.complex128)
    k1 = np.sqrt(p) * np.diag([1.0, 0.0]).astype(np.complex128)
    k2 = np.sqrt(p) * np.diag([0.0, 1.0]).astype(np.complex128)
    return QuantumChannel(_prune_zero([k0, k1, k2]))


def depolarizing_channel(p: float) -> QuantumChannel:
    """Qubit replacement-noise channel ρ → (1-p)·ρ + p·I/2.

    Kraus family {√(1-3p/4)·I, √(p/4)·X, √(p/4)·Y, √(p/4)·Z}; p=1 is the
    completely depolarizing channel (constant output I/2).
    """
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"p must lie in [0, 1], got {p}")
    ops = [
        np.sqrt(1.0 - 3.0 * p / 4.0) * np.eye(2, dtype=np.complex128),
        np.sqrt(p / 4.0) * _PAULI_X,
        np.sqrt(p / 4.0) * _PAULI_Y,
        np.sqrt(p / 4.0) * _PAULI_Z,
    ]
    return QuantumChannel(_prune_zero(ops))


def erasure_channel(p: float, d: int = 2) -> QuantumChannel:
    """With probability p replace the input by an orthogonal erasure flag |d⟩.

    Maps a d-dimensional input into d+1 dimensions; erasure(1) has constant
    output |d⟩⟨d|.
    """
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"p must lie in [0, 1], got {p}")
    if d < 1:
        raise ValidationError(f"dimension must be >= 1, got {d}")
    embed = np.zeros((d + 1, d), dtype=np.complex128)
    embed[:d, :] = np.eye(d)
    ops = [np.sqrt(1.0 - p) * embed]
    for k in range(d):
        flag = np.zeros((d + 1, d), dtype=np.complex128)
        flag[d, k] = np.sqrt(p)
        ops.append(flag)
    return QuantumChannel(_prune_zero(ops))


def cq_embedding_channel(p_b_given_a) -> QuantumChannel:
    """Embed a classical channel p(b|a): measure in the computational basis, emit |b⟩.

    Kraus family {√p(b|a)·|b⟩⟨a|}. The canonical environment then purifies
    the measurement, so the eavesdropper effectively learns the (a, b) pair —
    strictly stronger than any specified classical observer p(e|a); classical
    wiretap triples with a prescribed Eve live in the wiretap module instead.
    """
    t = np.asarray(p_b_given_a, dtype=float)
    if t.ndim != 2:
        raise DimensionError(f"p(b|a) must be a matrix, got shape {t.shape}")
    t = validate_probabilities(t, "p(b|a)", tol=1e-10)
    n_a, n_b = t.shape
    ops = []
    for a in range(n_a):
        for b in range(n_b):
            if t[a, b] > 0.0:
                k = np.zeros((n_b, n_a), dtype=np.complex128)
                k[b, a] = np.sqrt(t[a, b])
                ops.append(k)
    return QuantumChannel(ops)


#: The named channels of `zoo`, each built by its function from that function's own parameters.
_ZOO = {
    "identity": identity_channel,
    "dephasing": dephasing_channel,
    "depolarizing": depolarizing_channel,
    "erasure": erasure_channel,
}


def zoo(name: str, **params) -> QuantumChannel:
    """Build a named channel: identity(d=2), dephasing(p), depolarizing(p) or erasure(p, d=2).

    The parameters are bound to the builder's signature before it runs, so one
    it does not take, or a missing one, is a ValidationError naming it."""
    if name not in _ZOO:
        raise ValidationError(f"unknown zoo channel {name!r}; choose from {sorted(_ZOO)}")
    signature = inspect.signature(_ZOO[name])
    try:
        signature.bind(**params)
    except TypeError as exc:
        raise ValidationError(f"zoo channel {name!r} takes ({', '.join(signature.parameters)}): {exc}") from None
    return _ZOO[name](**params)
