"""Classical-quantum states over two classical indices and their mutual informations.

An input ensemble {p(x), p(y|x), ρ_{x,y}} pushed through an isometric
extension V yields one joint B⊗E state V ρ_{x,y} V† per (x, y), with weight
p(x)p(y|x). The classical registers are kept implicit as array indices —
the full block-diagonal matrix is never materialized, since the X alphabet
alone may be as large as min{dim A', dim B}² + 1.

Layout: the inputs are stored as one validated (|X|, |Y|, d, d) array,
``InputEnsemble.states``, and evolved in one matmul into B⊗E outputs of
shape (|X|, |Y|, d_B·d_E, d_B·d_E). The quantities come in three stages
per system K in {B, E}, each later one reading one more law:
- the state stage (``cq_marginals``) reads the states only: it evolves
  them, takes both partial traces and returns, per K, the marginals
  σ_{x,y} with their entropies S(σ_{x,y});
- the conditional stage (``conditional_stage``) reads p(y|x) as well:
  σ_x = Σ_y p(y|x) σ_{x,y}, S(σ_x) and the per-x differences
  S(σ_x) − Σ_y p(y|x) S(σ_{x,y}) that I(Y;·|X) weighs by p(x);
- the marginal stage reads p(x) as well: σ = Σ_x p(x) σ_x and S(σ).
A fresh conditional stage is computed with the marginal stage, in one
batched eigensolve of [σ_x; σ]; given a conditional stage, S(σ) is one
eigensolve of σ (``marginal_entropy``): the eigensolver treats each matrix
of a stack on its own, so S(σ) alone, or S(σ_x) without σ, has the bits it
has in [σ_x; σ]. ``build_cq_state`` computes all three stages of both
systems into a ``CqState``, whose ``entropies[K]`` is the full table
(S(σ_{x,y}) as an |X|×|Y| array, S(σ_x) as an |X| array, S(σ)), and the
six mutual informations are weighted sums over it. ``staged_infos`` gives
the three that the region reads, (I(X;B), I(Y;B|X), I(Y;E|X)), from stages
a caller keeps, like the optimizer's probability blocks, on plain arrays.
An ensemble is checked where it enters the library (``InputEnsemble``) and where it
leaves (the optimizer's witness); the stages read p_x, p_y_given_x and states, and
every stack they solve is checked to be Hermitian and finite (``qcore.stack_entropies``).

All quantities are in bits. Tiny negative values (float noise) are clamped
to zero; anything below -1e-6, or NaN, raises, because that signals a real
bug rather than rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .channels import IsometricExtension
from .errors import DimensionError, ValidationError
from .qcore import partial_trace, stack_entropies, validate_probabilities, validate_states
# Not called here, since the stages use stack_entropies; still importable, as perfbench/tracing.py wraps it here.
from .qcore import von_neumann_entropy  # noqa: F401

CLAMP_TOL = 1e-6


def _clamp(v: float) -> float:
    if not v >= -CLAMP_TOL:  # NaN fails too
        raise ValidationError(f"entropic quantity {v:.3e} is not >= -{CLAMP_TOL:g}; this is a bug, not noise")
    return float(max(0.0, v))


@dataclass(frozen=True, eq=False, init=False)
class InputEnsemble:
    """{p(x), p(y|x), ρ_{x,y}} on the channel input system, stored as validated read-only arrays only:
    ``p_x``, ``p_y_given_x`` (``qcore.validate_probabilities``) and ``states[x, y]`` = ρ_{x,y}, one complex128
    stack built from ``rho_xy``, an (|X|, |Y|, d, d) array-like whose entries may be DensityOperators."""

    p_x: np.ndarray
    p_y_given_x: np.ndarray
    states: np.ndarray

    def __init__(self, p_x, p_y_given_x, rho_xy):
        px = np.asarray(p_x, dtype=float)
        pyx = np.asarray(p_y_given_x, dtype=float)
        if px.ndim != 1 or pyx.ndim != 2 or pyx.shape[0] != px.size:
            raise DimensionError(f"shape mismatch: p_x {px.shape}, p_y_given_x {pyx.shape}")
        object.__setattr__(self, "p_x", validate_probabilities(px, "p_x"))
        object.__setattr__(self, "p_y_given_x", validate_probabilities(pyx, "p_y_given_x"))
        if not isinstance(rho_xy, np.ndarray):
            rho_xy = [[getattr(st, "matrix", st) for st in row] for row in rho_xy]
        try:
            states = np.array(rho_xy, dtype=np.complex128)
        except ValueError as exc:  # ragged rows or states of different dimensions
            raise DimensionError(f"rho_xy must be an |X| × |Y| array of equal-size states: {exc}") from exc
        if states.ndim != 4 or states.shape[:2] != pyx.shape or states.shape[2] != states.shape[3]:
            raise DimensionError(f"rho_xy must be an |X| × |Y| array of states, got shape {states.shape}")
        states.flags.writeable = False
        validate_states(states)
        object.__setattr__(self, "states", states)

    @property
    def size_x(self) -> int:
        return self.p_x.size

    @property
    def size_y(self) -> int:
        return self.p_y_given_x.shape[1]

    @property
    def dim_in(self) -> int:
        return self.states.shape[-1]

    @classmethod
    def over_y(cls, p_y, states) -> "InputEnsemble":
        """Ensemble with trivial X: {p(y), ρ_y}."""
        return cls(p_x=np.ones(1), p_y_given_x=np.asarray(p_y, float).reshape(1, -1),
                   rho_xy=(tuple(states),))


@dataclass(frozen=True, eq=False)
class CqState:
    """The ensemble's laws p(x), p(y|x) and the three stages of the module docstring, per system K:
    ``marginals[K]`` = (σ_{x,y}, S(σ_{x,y})), ``conditionals[K]`` = (σ_x, S(σ_x), the per-x differences
    S(σ_x) − Σ_y p(y|x) S(σ_{x,y})) and ``s_total[K]`` = S(σ)."""

    p_x: np.ndarray
    p_y_given_x: np.ndarray
    marginals: dict
    conditionals: dict
    s_total: dict

    @property
    def weights(self) -> np.ndarray:
        return self.p_x[:, None] * self.p_y_given_x

    @property
    def entropies(self) -> dict:
        """The full table K → (S(σ_{x,y}), S(σ_x), S(σ))."""
        return {k: (s_xy, self.conditionals[k][1], self.s_total[k]) for k, (_, s_xy) in self.marginals.items()}


def cq_marginals(states: np.ndarray, iso: IsometricExtension) -> dict:
    """The state stage: evolve an (|X|, |Y|, d, d) stack at once; K in {B, E} → (σ_{x,y}, S(σ_{x,y}))."""
    joint = iso.evolve(states)
    dims = [iso.dim_B, iso.dim_E]
    marginals = {}
    for keep, name in enumerate("BE"):
        sigma_xy = partial_trace(joint, keep=[keep], dims=dims)
        marginals[name] = (sigma_xy, stack_entropies(sigma_xy))
    return marginals


def conditional_stage(p_y_given_x: np.ndarray, sigma_xy: np.ndarray, s_xy: np.ndarray,
                      p_x: np.ndarray | None = None):
    """One system's conditional stage (σ_x, S(σ_x), S(σ_x) − Σ_y p(y|x) S(σ_{x,y})) from its state stage, and, given
    p_x, S(σ) of its marginal stage from the same eigensolve as S(σ_x) (else None)."""
    sigma_x = np.einsum("xy,xyij->xij", p_y_given_x, sigma_xy)
    if p_x is None:
        s_x, s_total = stack_entropies(sigma_x), None
    else:
        ent = stack_entropies(np.concatenate([sigma_x, np.einsum("x,xij->ij", p_x, sigma_x)[None]]))
        s_x, s_total = ent[:-1], float(ent[-1])
    return (sigma_x, s_x, _fold(s_x, p_y_given_x * s_xy)), s_total


def marginal_entropy(p_x: np.ndarray, sigma_x: np.ndarray) -> float:
    """S(σ) of the marginal stage, σ = Σ_x p(x) σ_x, from a conditional stage's σ_x."""
    return float(stack_entropies(np.einsum("x,xij->ij", p_x, sigma_x)))


def build_cq_state(ens: InputEnsemble, iso: IsometricExtension) -> CqState:
    """All three stages of ``ens`` under ``iso``, for both systems; reads p_x, p_y_given_x and states."""
    marginals = cq_marginals(ens.states, iso)
    conditionals, s_total = {}, {}
    for name, (sigma_xy, s_xy) in marginals.items():
        conditionals[name], s_total[name] = conditional_stage(ens.p_y_given_x, sigma_xy, s_xy, ens.p_x)
    return CqState(p_x=ens.p_x, p_y_given_x=ens.p_y_given_x, marginals=marginals, conditionals=conditionals,
                   s_total=s_total)


def staged_infos(p_x: np.ndarray, p_y_given_x: np.ndarray, marginals: dict,
                 conditionals: dict) -> tuple[float, float, float]:
    """(I(X;B), I(Y;B|X), I(Y;E|X)) in bits from the state stage ``marginals`` and the conditional stage
    ``conditionals`` of p_y_given_x, with no CqState. An empty ``conditionals`` is filled: one eigensolve of
    [σ_x; σ] for B and one of σ_x for E, since none of the three reads S(σ^E). A filled one is read, and p_x costs
    one eigensolve, S(σ^B). Each value equals its ``build_cq_state`` counterpart to the bit."""
    if conditionals:
        s_b = marginal_entropy(p_x, conditionals["B"][0])
    else:
        conditionals["B"], s_b = conditional_stage(p_y_given_x, *marginals["B"], p_x)
        conditionals["E"], _ = conditional_stage(p_y_given_x, *marginals["E"])
    return (_holevo_info(s_b, p_x, conditionals["B"][1]), _cond_info(p_x, conditionals["B"][2]),
            _cond_info(p_x, conditionals["E"][2]))


def _fold(first, terms: np.ndarray):
    """first - t_0 - t_1 - ... along the last axis, strictly left to right in Python floats, as a loop over blocks
    would do it: near flat spots the optimizer's path turns on the last bit. Row r of 2-D terms folds from first[r]."""
    if terms.ndim == 1:
        return reduce(float.__sub__, terms.tolist(), float(first))
    return np.array([reduce(float.__sub__, row, f) for f, row in zip(first.tolist(), terms.tolist())])


def _holevo_info(s_total: float, p_x: np.ndarray, s_x: np.ndarray) -> float:
    """I(X;·) = S(σ) - Σ_x p(x) S(σ_x)."""
    return _clamp(_fold(s_total, p_x * s_x))


def _cond_info(p_x: np.ndarray, diffs: np.ndarray) -> float:
    """I(Y;·|X) = Σ_x p(x) [S(σ_x) - Σ_y p(y|x) S(σ_{x,y})], the bracket kept in the conditional stage."""
    return _clamp(_fold(0.0, -p_x * diffs))


def _joint_info(s: CqState, system: str) -> float:
    """I(XY;·) with (x, y) treated as a single classical index."""
    return _clamp(_fold(s.s_total[system], (s.weights * s.marginals[system][1]).ravel()))


def mutual_info_XB(s: CqState) -> float:
    """I(X;B) in bits."""
    return _holevo_info(s.s_total["B"], s.p_x, s.conditionals["B"][1])


def mutual_info_XE(s: CqState) -> float:
    """I(X;E) in bits (eavesdropper side)."""
    return _holevo_info(s.s_total["E"], s.p_x, s.conditionals["E"][1])


def cond_mutual_info_YB_given_X(s: CqState) -> float:
    """I(Y;B|X) in bits."""
    return _cond_info(s.p_x, s.conditionals["B"][2])


def cond_mutual_info_YE_given_X(s: CqState) -> float:
    """I(Y;E|X) in bits."""
    return _cond_info(s.p_x, s.conditionals["E"][2])


def mutual_info_XYB(s: CqState) -> float:
    """I(XY;B) in bits."""
    return _joint_info(s, "B")


def mutual_info_XYE(s: CqState) -> float:
    """I(XY;E) in bits."""
    return _joint_info(s, "E")
