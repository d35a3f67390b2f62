"""Closed-form optima of the one-shot region, to check the optimizer against; the package does not use them."""

import math


def erasure_optimum(p: float, d: int, r_s: float, w_r: float, w_p: float) -> float:
    """The exact maximum of w_R·R + w_P·P over the one-shot region of erasure(p, d) at key rate r_s.

    On erasure the region's quantities are the input ensemble's own, scaled: a = (1 − p)·t, b = (1 − p)·Δ and
    c = p·Δ, with t = I(X;A), Δ = I(Y;A|X) and t + Δ ≤ log2 d, and pure states reach every such pair. So the optimum
    is the maximum over Δ ∈ [0, log2 d] of w_R·(1 − p)(log2 d − Δ) + w_P·max(0, min((1 − p)Δ, R_S + (1 − 2p)Δ)).
    That function is piecewise linear, so its maximum lies at an end or a kink: 0, log2 d, R_S/p (where the two
    bounds on P cross) and, for p > ½, R_S/(2p − 1) (where R_S + (1 − 2p)Δ reaches 0; the max(0, ·) kink there is
    convex, so it holds the maximum only on a flat stretch), each clipped to [0, log2 d].
    """
    top = math.log2(d)

    def objective(delta):
        return w_r * (1 - p) * (top - delta) + w_p * max(0.0, min((1 - p) * delta, r_s + (1 - 2 * p) * delta))

    kinks = [0.0, top] + ([r_s / p] if p > 0 else []) + ([r_s / (2 * p - 1)] if p > 0.5 else [])
    return max(objective(min(max(delta, 0.0), top)) for delta in kinks)
