"""One-shot rate region for public/private transmission assisted by a secret key.

For an ensemble {p(x), p(y|x), ρ_{x,y}} and a channel dilation, the three
channel quantities

    a = I(X;B)      public bound
    b = I(Y;B|X)    private ceiling
    c = I(Y;E|X)    leakage to the eavesdropper

carve out the membership rule for a rate triple (R, P, R_S):

    R ≤ a,    P ≤ b,    P ≤ R_S + b - c.

The optimizer below searches over ensembles to push a weighted combination
of achieved rates as high as possible. It is a multi-start local search:
every output is a certified lower bound (the witness ensemble is returned
and can be re-checked), never a claim of optimality. Only the single-use
(one-shot) region is evaluated; regularized multi-letter unions are out of
scope, so every reported point is a one-shot lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .channels import IsometricExtension
from .entropics import (
    InputEnsemble,
    build_cq_state,
    cond_mutual_info_YB_given_X,
    cond_mutual_info_YE_given_X,
    cq_marginals,
    mutual_info_XB,
    mutual_info_XE,
    staged_infos,
)
from .errors import DimensionError, ValidationError, check_integers

MEMBERSHIP_TOL = 1e-9
CONVERGENCE_TOL = 1e-7


@dataclass(frozen=True)
class RateTriple:
    """(public rate R, private rate P, key consumption rate R_S), all in bits/use."""

    R: float
    P: float
    R_S: float

    def __post_init__(self):
        if not all(v >= -1e-12 for v in (self.R, self.P, self.R_S)):  # NaN fails too
            raise ValidationError(f"rates must be nonnegative, got {self}")


@dataclass(frozen=True, eq=False)
class RegionConstraints:
    """Evaluated bounds (a, b, c) together with the ensemble that produced them."""

    a: float
    b: float
    c: float
    ensemble: InputEnsemble | None = None

    def __post_init__(self):
        if not all(v >= -1e-12 for v in (self.a, self.b, self.c)):  # NaN fails too
            raise ValidationError(f"constraints must be nonnegative, got ({self.a}, {self.b}, {self.c})")


class SkpPair(NamedTuple):
    """Key-assisted private-only bounds: P ≤ i_yb and P ≤ i_yb - i_ye + R_S."""

    i_yb: float
    i_ye: float


def one_shot_constraints(ens: InputEnsemble, iso: IsometricExtension) -> RegionConstraints:
    """Evaluate (a, b, c) = (I(X;B), I(Y;B|X), I(Y;E|X)) for one ensemble."""
    s = build_cq_state(ens, iso)
    return RegionConstraints(a=mutual_info_XB(s), b=cond_mutual_info_YB_given_X(s), c=cond_mutual_info_YE_given_X(s),
                             ensemble=ens)


def is_in_one_shot_region(t: RateTriple, rc: RegionConstraints, tol: float = MEMBERSHIP_TOL) -> bool:
    """Membership test R ≤ a, P ≤ b, P ≤ R_S + b - c (each up to tol)."""
    return (
        t.R <= rc.a + tol
        and t.P <= rc.b + tol
        and t.P <= t.R_S + rc.b - rc.c + tol
    )


def skp_constraints(ens: InputEnsemble, iso: IsometricExtension) -> SkpPair:
    """Private-only reduction: requires a trivial X register (|X| = 1).

    Computed by promoting Y to the outer classical index, so the pair
    (I(Y;B), I(Y;E)) comes from a genuinely different summation path than
    one_shot_constraints with |X| = 1 — the two must agree to ~1e-12.
    """
    if ens.size_x != 1:
        raise DimensionError(f"skp_constraints needs |X| = 1, got {ens.size_x}")
    flipped = SimpleNamespace(p_x=ens.p_y_given_x[0], p_y_given_x=np.ones((ens.size_y, 1)),
                              states=ens.states[0, :, None])
    s = build_cq_state(flipped, iso)
    return SkpPair(i_yb=mutual_info_XB(s), i_ye=mutual_info_XE(s))


# ---------------------------------------------------------------------------
# Ensemble optimizer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs for the multi-start ensemble search.

    ``alphabet_x`` defaults to the sufficiency ceiling min{dim A', dim B}²+1;
    ``alphabet_y`` defaults to (dim A')² — no comparable bound is known for
    Y, so that default is simply a documented choice. States are pure by
    default; set ``pure_states_only=False`` to search mixed states too
    (whether pure states suffice at the boundary is an open question, so
    both modes exist).
    """

    restarts: int = 4
    max_iters: int = 300
    seed: int = 0
    alphabet_x: int | None = None
    alphabet_y: int | None = None
    pure_states_only: bool = True

    def __post_init__(self):
        check_integers(**{name: getattr(self, name) for name in ("restarts", "max_iters", "seed")})
        check_integers(**{name: getattr(self, name) for name in ("alphabet_x", "alphabet_y")
                          if getattr(self, name) is not None})
        if self.restarts < 1:
            raise ValidationError("restarts must be >= 1")
        if self.max_iters < 1:
            raise ValidationError("max_iters must be >= 1")
        if self.seed < 0:
            raise ValidationError("seed must be a nonnegative integer")

    def resolve_alphabets(self, iso: IsometricExtension) -> tuple[int, int]:
        ceiling = min(iso.dim_in, iso.dim_B) ** 2 + 1
        nx = self.alphabet_x if self.alphabet_x is not None else ceiling
        ny = self.alphabet_y if self.alphabet_y is not None else iso.dim_in ** 2
        if nx < 1 or ny < 1:
            raise ValidationError("alphabet sizes must be >= 1")
        return nx, ny


@dataclass(frozen=True, eq=False)
class OptimizeResult:
    """Best ensemble found, its constraints, and the rate triple it certifies."""

    ensemble: InputEnsemble
    constraints: RegionConstraints
    achieved: RateTriple
    objective: float
    converged: bool


def _softmax(z: np.ndarray) -> np.ndarray:
    """Softmax along the last axis."""
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


class _Parametrization:
    """Flat real vector <-> ensemble arrays, split into three coordinate blocks."""

    def __init__(self, nx: int, ny: int, dim: int, pure: bool):
        self.nx, self.ny, self.dim, self.pure = nx, ny, dim, pure
        self.state_len = 2 * dim if pure else 2 * dim * dim
        n_px = nx
        n_py = nx * ny
        n_states = nx * ny * self.state_len
        self.sl_px = slice(0, n_px)
        self.sl_py = slice(n_px, n_px + n_py)
        self.sl_states = slice(n_px + n_py, n_px + n_py + n_states)
        self.total = n_px + n_py + n_states

    def decode_p_x(self, theta: np.ndarray) -> np.ndarray:
        return _softmax(theta[self.sl_px])

    def decode_p_y_given_x(self, theta: np.ndarray) -> np.ndarray:
        return _softmax(theta[self.sl_py].reshape(self.nx, self.ny))

    def decode_states(self, theta: np.ndarray) -> np.ndarray:
        """The (|X|, |Y|, d, d) states from the state block."""
        d = self.dim
        raw = theta[self.sl_states].reshape(self.nx, self.ny, self.state_len)
        if self.pure:
            v = raw[..., :d] + 1j * raw[..., d:]
            # np.linalg.norm's formula: each state equals |ψ⟩⟨ψ| of its own normalized vector to the bit
            nrm = np.sqrt(np.vecdot(v.real, v.real) + np.vecdot(v.imag, v.imag))[..., None]
            v = np.where(nrm < 1e-9, np.eye(d)[0], v / np.where(nrm < 1e-9, 1.0, nrm))
            states = v[..., :, None] * v.conj()[..., None, :]
        else:
            a = (raw[..., : d * d] + 1j * raw[..., d * d:]).reshape(self.nx, self.ny, d, d)
            m = a @ np.swapaxes(a, -1, -2).conj()
            tr = np.trace(m, axis1=-2, axis2=-1).real[..., None, None]
            states = np.where(tr < 1e-12, np.eye(d) / d, m / np.where(tr < 1e-12, 1.0, tr))
        return states

    def structured_start(self) -> np.ndarray:
        """Uniform weights with computational-basis states |x+y mod d⟩.

        A cheap, channel-agnostic anchor: for many named channels the basis
        ensemble already sits on the region boundary, and the local search
        only has to keep or improve it.
        """
        theta = np.zeros(self.total)
        raw = np.zeros((self.nx, self.ny, self.state_len))
        for x in range(self.nx):
            for y in range(self.ny):
                k = (x + y) % self.dim
                if self.pure:
                    raw[x, y, k] = 1.0
                else:
                    raw[x, y, k * self.dim + k] = 1.0
        theta[self.sl_states] = raw.reshape(-1)
        return theta

    def random_start(self, rng: np.random.Generator) -> np.ndarray:
        theta = np.zeros(self.total)
        theta[self.sl_px] = 0.5 * rng.standard_normal(self.nx)
        theta[self.sl_py] = 0.5 * rng.standard_normal(self.nx * self.ny)
        theta[self.sl_states] = rng.standard_normal(self.nx * self.ny * self.state_len)
        return theta


def _private_rate(b: float, c: float, r_s: float) -> float:
    """The largest P with P <= b and P <= R_S + b - c, or 0 when there is none."""
    return max(0.0, min(b, r_s + b - c))


def _achieved_triple(rc: RegionConstraints, r_s: float) -> RateTriple:
    return RateTriple(R=rc.a, P=_private_rate(rc.b, rc.c, r_s), R_S=r_s)


def _nelder_mead(f, x0: np.ndarray, maxiter: int, f0: float | None = None) -> tuple[np.ndarray, float, int]:
    """Minimize f from x0 by adaptive Nelder–Mead (Gao and Han, Comput. Optim. Appl. 51, 259, 2012).

    A step-for-step port of scipy 1.17's ``_minimize_neldermead`` with ``adaptive=True``, ``xatol=1e-7``,
    ``fatol=1e-8``, no bounds and no ``maxfev``: the same numpy operations in the same order, so every path and
    result keeps its bits, argsort ties included. ``f0``, if given, is f(x0), and f is then not called at x0.
    Returns scipy's (x, fun, nit): best vertex, least value, iterations.
    """
    N = len(x0)
    rho, chi, psi, sigma = 1, 1 + 2 / N, 0.75 - 1 / (2 * N), 1 - 1 / N
    sim = np.tile(x0, (N + 1, 1))
    for k in range(N):
        sim[k + 1, k] = (1 + 0.05) * x0[k] if x0[k] != 0 else 0.00025
    fsim = np.full(N + 1, np.inf)
    fsim[0] = f(sim[0]) if f0 is None else f0
    for k in range(1, N + 1):
        fsim[k] = f(sim[k])
    for _ in range(2):  # scipy sorts twice here; argsort need not keep the order of ties
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    iterations = 1
    while iterations < maxiter:
        if np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= 1e-7 and np.max(np.abs(fsim[0] - fsim[1:])) <= 1e-8:
            break
        xbar = np.add.reduce(sim[:-1], 0) / N
        xr = (1 + rho) * xbar - rho * sim[-1]
        fxr = f(xr)
        if fxr < fsim[0]:
            xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
            fxe = f(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:  # outside contraction
                xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
                fxc = f(xc)
                shrink = not fxc <= fxr
            else:  # inside contraction
                xc = (1 - psi) * xbar + psi * sim[-1]
                fxc = f(xc)
                shrink = not fxc < fsim[-1]
            if shrink:
                for j in range(1, N + 1):
                    sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                    fsim[j] = f(sim[j])
            else:
                sim[-1], fsim[-1] = xc, fxc
        iterations += 1
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    return sim[0], np.min(fsim), iterations


def _check_point(r_s: float, w_r: float, w_p: float):
    """Reject a key rate or weight pair that no optimizer run accepts; NaN and inf fail too."""
    if not (w_r >= 0 and w_p >= 0 and 0 < w_r + w_p < np.inf):
        raise ValidationError(f"weights must be finite, nonnegative and not both zero, got ({w_r}, {w_p})")
    if not (np.isfinite(r_s) and r_s >= 0):
        raise ValidationError(f"key rate must be finite and nonnegative, got {r_s}")


def optimize_region(
    iso: IsometricExtension,
    r_s: float,
    weights: tuple[float, float],
    cfg: OptimizerConfig,
) -> OptimizeResult:
    """Maximize w_R·R + w_P·P over ensembles at key rate r_s.

    Multi-start coordinate-block refinement: restart 0 starts from the
    structured basis ensemble, the rest from seeded random draws; each
    restart cycles adaptive Nelder–Mead (``_nelder_mead``, numpy only) over
    the probability and state blocks until the improvement per sweep drops
    below ``CONVERGENCE_TOL`` or the iteration budget runs out; each run
    starts from the score the loop already holds for θ. A candidate is
    scored on plain arrays by ``staged_infos``, with no ensemble object: of
    the three stages of ``entropics``, the state stage (evolution, both
    partial traces, S(σ_{x,y})) is kept for the last state block scored,
    and the conditional stage (σ_x, S(σ_x) and the per-x differences that
    I(Y;·|X) weighs) for the last pair of state and p(y|x) blocks. So the
    p(x) block's run reuses both, and each of its evaluations computes only
    σ^B and S(σ^B), the marginal stage that a = I(X;B) reads; the p(y|x)
    block's run reuses the state stage, and the state block's run
    recomputes all three at each new point. Only the witness is built as an
    ``InputEnsemble`` and checked. ``converged`` reports the
    winning restart: False when its budget ran out first. Identical seed and config give
    bit-identical output; ties between restarts resolve to the lower index.
    When the best ensemble has R_S + b - c < 0, it certifies no P >= 0, so the
    returned witness is its Y-collapse {p(x), Σ_y p(y|x) ρ_{x,y}}: the same
    σ_x, hence the same a, and b = c = 0.
    """
    w_r, w_p = float(weights[0]), float(weights[1])
    _check_point(r_s, w_r, w_p)
    nx, ny = cfg.resolve_alphabets(iso)
    par = _Parametrization(nx, ny, iso.dim_in, cfg.pure_states_only)

    memo = {}  # one entry: the last state block's bytes → its state stage
    cond_memo = {}  # one entry: the last (state block, p(y|x) block) bytes → p(y|x) and its conditional stage

    def score(theta: np.ndarray) -> float:
        block = theta[par.sl_states].tobytes()
        if block not in memo:
            memo.clear()
            memo[block] = cq_marginals(par.decode_states(theta), iso)
        key = block, theta[par.sl_py].tobytes()
        if key not in cond_memo:
            cond_memo.clear()
            cond_memo[key] = par.decode_p_y_given_x(theta), {}  # the first staged_infos fills the stage
        p_y_given_x, conditionals = cond_memo[key]
        a, b, c = staged_infos(par.decode_p_x(theta), p_y_given_x, memo[block], conditionals)
        return w_r * a + w_p * _private_rate(b, c, r_s)

    best_theta = None
    best_val = -np.inf
    best_converged = False
    for restart in range(cfg.restarts):
        if restart == 0:
            theta = par.structured_start()
        else:
            rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, restart]))
            theta = par.random_start(rng)
        val = score(theta)
        budget = cfg.max_iters
        converged = False
        while budget > 0:
            sweep_start = val
            for sl in (par.sl_px, par.sl_py, par.sl_states):
                if budget <= 0:
                    break

                def neg(xb, _sl=sl):
                    t2 = theta.copy()
                    t2[_sl] = xb
                    return -score(t2)

                x, fun, nit = _nelder_mead(neg, theta[sl], min(budget, 40 * max(1, sl.stop - sl.start)), -val)
                budget -= max(1, nit)
                if -fun > val:
                    val = -fun
                    theta = theta.copy()
                    theta[sl] = x
            if val - sweep_start < CONVERGENCE_TOL:
                converged = True
                break
        if val > best_val:
            best_val, best_theta, best_converged = val, theta, converged

    ens = InputEnsemble(p_x=par.decode_p_x(best_theta), p_y_given_x=par.decode_p_y_given_x(best_theta),
                        rho_xy=par.decode_states(best_theta))  # the witness is checked
    rc = one_shot_constraints(ens, iso)
    if r_s + rc.b - rc.c < 0.0:
        rho_x = np.einsum("xy,xyij->xij", ens.p_y_given_x, ens.states)
        ens = InputEnsemble(p_x=ens.p_x, p_y_given_x=np.ones((nx, 1)), rho_xy=rho_x[:, None])
        rc = one_shot_constraints(ens, iso)
    return OptimizeResult(
        ensemble=ens,
        constraints=rc,
        achieved=_achieved_triple(rc, r_s),
        objective=best_val,
        converged=best_converged,
    )


@dataclass(frozen=True, eq=False)
class ParetoSample:
    """One optimizer run inside a sweep."""

    r_s: float
    w_r: float
    w_p: float
    result: OptimizeResult


PARETO_CSV_COLUMNS = ("R_S", "w_R", "w_P", "R", "P", "a", "b", "c", "seed", "restarts", "converged")


def pareto_surface(
    iso: IsometricExtension,
    r_s_list,
    weight_grid,
    cfg: OptimizerConfig,
) -> list[ParetoSample]:
    """Optimizer sweep over key rates and weight vectors; rows are CSV-emittable. Every (R_S, w)
    pair is checked before the first point is optimized."""
    points = [(float(r_s), float(w_r), float(w_p)) for r_s in r_s_list for (w_r, w_p) in weight_grid]
    for point in points:
        _check_point(*point)
    return [ParetoSample(r_s=r_s, w_r=w_r, w_p=w_p, result=optimize_region(iso, r_s, (w_r, w_p), cfg))
            for r_s, w_r, w_p in points]


def pareto_csv_rows(samples: list[ParetoSample], cfg: OptimizerConfig) -> list[tuple]:
    """Rows matching PARETO_CSV_COLUMNS."""
    rows = []
    for s in samples:
        r = s.result
        rows.append(
            (s.r_s, s.w_r, s.w_p, r.achieved.R, r.achieved.P,
             r.constraints.a, r.constraints.b, r.constraints.c, cfg.seed, cfg.restarts, int(r.converged))
        )
    return rows
