"""Symbolic resource expressions and protocol-transformation rules.

A resource expression is a multiset of nonnegative rational coefficients
over the resource kinds

    [c→c]_pub   noiseless public classical channel
    [c→c]_priv  noiseless private classical channel
    [cc]_priv   shared secret key
    [cc]_pub    common randomness
    ⟨N⟩         one use (per channel use) of the noisy quantum channel
    o[cc]_priv  a sublinear amount of secret key (cancellation residue)

A public-channel term may carry a *relative* marker: such a channel only
works when its input is uniformly distributed, so the rewrite engine
refuses to let a rule consume it unless the rule declares that it
uniformizes its input by padding with secret key of at least equal rate.

Coefficients are exact fractions.Fraction values — derivation identities
hold exactly, with no float drift. Channel quantities measured as floats
must be rationalized (``rationalize``) before entering a derivation.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import RelativityError, RuleInapplicableError, ValidationError

#: Floats entering the symbolic layer are snapped to denominators up to 1e9.
RATIONALIZE_MAX_DENOMINATOR = 10**9


def rationalize(x) -> Fraction:
    """Exact Fraction from int/str/Fraction; floats are snapped to a bounded denominator."""
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValidationError(f"cannot rationalize the non-finite value {x}")
        return Fraction(x).limit_denominator(RATIONALIZE_MAX_DENOMINATOR)
    return Fraction(x)


class ResourceKind(enum.Enum):
    PUBLIC_CC = "public_cc"
    PRIVATE_CC = "private_cc"
    PRIVATE_KEY = "private_key"
    COMMON_RANDOMNESS = "common_randomness"
    CHANNEL_N = "channel_N"
    SUBLINEAR_KEY = "sublinear_key"


_SYMBOLS = {
    ResourceKind.PUBLIC_CC: "[c→c]_pub",
    ResourceKind.PRIVATE_CC: "[c→c]_priv",
    ResourceKind.PRIVATE_KEY: "[cc]_priv",
    ResourceKind.COMMON_RANDOMNESS: "[cc]_pub",
    ResourceKind.CHANNEL_N: "⟨N⟩",
    ResourceKind.SUBLINEAR_KEY: "o[cc]_priv",
}


@dataclass(frozen=True)
class ResourceTerm:
    """coefficient · kind, optionally marked relative (uniform input required)."""

    kind: ResourceKind
    coefficient: Fraction
    relative: bool = False

    def __post_init__(self):
        coeff = rationalize(self.coefficient)
        object.__setattr__(self, "coefficient", coeff)
        if coeff < 0:
            raise ValidationError(f"coefficient must be >= 0, got {coeff}")
        if self.relative and self.kind is not ResourceKind.PUBLIC_CC:
            raise ValidationError("only public channels can be relative resources")

    def render(self) -> str:
        sym = _SYMBOLS[self.kind]
        if self.relative:
            sym = "[c→c:π]_pub"
        if self.kind is ResourceKind.SUBLINEAR_KEY:
            return sym
        return f"{self.coefficient} {sym}"


@dataclass(frozen=True)
class ResourceExpr:
    """Normalized multiset of terms (same kind+flag merged, zeros dropped)."""

    terms: tuple = ()

    def __post_init__(self):
        merged: dict = {}
        for t in self.terms:
            key = (t.kind, t.relative)
            merged[key] = merged.get(key, Fraction(0)) + t.coefficient
        norm = tuple(
            ResourceTerm(kind=k, coefficient=v, relative=rel)
            for (k, rel), v in sorted(merged.items(), key=lambda kv: (kv[0][0].value, kv[0][1]))
            if v > 0
        )
        object.__setattr__(self, "terms", norm)

    @classmethod
    def of(cls, *pairs) -> "ResourceExpr":
        """Build from (coefficient, kind[, relative]) tuples."""
        return cls(terms=tuple(
            ResourceTerm(kind=p[1], coefficient=rationalize(p[0]), relative=len(p) > 2 and bool(p[2])) for p in pairs))

    def coeff(self, kind: ResourceKind, relative: bool = False) -> Fraction:
        for t in self.terms:
            if t.kind is kind and t.relative == relative:
                return t.coefficient
        return Fraction(0)

    def add(self, kind: ResourceKind, amount: Fraction, relative: bool = False) -> "ResourceExpr":
        extra = (ResourceTerm(kind=kind, coefficient=amount, relative=relative),)
        return ResourceExpr(terms=self.terms + extra)

    def remove(self, kind: ResourceKind, amount: Fraction, relative: bool = False) -> "ResourceExpr":
        have = self.coeff(kind, relative)
        if have < amount:
            raise RuleInapplicableError(
                f"needs {amount} of {_SYMBOLS[kind]}{' (relative)' if relative else ''}, only {have} available"
            )
        rest = tuple(t for t in self.terms if not (t.kind is kind and t.relative == relative))
        if have > amount:
            rest = rest + (ResourceTerm(kind=kind, coefficient=have - amount, relative=relative),)
        return ResourceExpr(terms=rest)

    def render(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(t.render() for t in self.terms)


@dataclass(frozen=True)
class Rule:
    """A protocol step: `consumes` is rewritten into `produces`.

    ``uniformizing`` marks rules that pad their public input with secret key
    of at least equal rate, which is the one way a relative public channel
    may legally be consumed.
    """

    name: str
    consumes: ResourceExpr
    produces: ResourceExpr
    params: dict = field(default_factory=dict)
    uniformizing: bool = False


def apply_rule(expr: ResourceExpr, rule: Rule) -> ResourceExpr:
    """expr - rule.consumes + rule.produces, with relative-flag policing.

    Public-channel demand is filled from relative holdings first (they are
    the more restricted resource) when and only when the rule uniformizes;
    a non-uniformizing rule that would have to dip into relative holdings
    raises RelativityError. Any other shortfall raises
    RuleInapplicableError naming the deficit term.
    """
    out = expr
    key_consumed = rule.consumes.coeff(ResourceKind.PRIVATE_KEY)
    for t in rule.consumes.terms:
        if t.kind is ResourceKind.PUBLIC_CC and not t.relative:
            rel_have = out.coeff(ResourceKind.PUBLIC_CC, relative=True)
            abs_have = out.coeff(ResourceKind.PUBLIC_CC, relative=False)
            if rule.uniformizing:
                take_rel = min(rel_have, t.coefficient)
                if take_rel > key_consumed:
                    raise RelativityError(
                        f"rule {rule.name!r} uniformizes only {key_consumed} bits of key but would "
                        f"consume {take_rel} relative public bits"
                    )
            else:
                take_rel = Fraction(0)
                if abs_have < t.coefficient and rel_have > 0:
                    raise RelativityError(
                        f"rule {rule.name!r} does not uniformize its input and cannot consume "
                        f"the relative public channel [c→c:π]_pub"
                    )
            out = out.remove(ResourceKind.PUBLIC_CC, take_rel, relative=True)
            out = out.remove(ResourceKind.PUBLIC_CC, t.coefficient - take_rel, relative=False)
        else:
            out = out.remove(t.kind, t.coefficient, relative=t.relative)
    for t in rule.produces.terms:
        out = out.add(t.kind, t.coefficient, relative=t.relative)
    return out


def cancel_key(expr: ResourceExpr, amount, allow_sublinear: bool = False) -> ResourceExpr:
    """Cancel `amount` of secret key out of the expression.

    Without the flag the expression must carry at least `amount` of key and
    the matched amount is simply removed (amount 0 is the identity). With
    ``allow_sublinear=True`` the cancellation additionally records the
    sublinear residue marker o[cc]_priv — full cancellation of a catalytic
    key always leaves a sublinear remainder — and any shortfall is absorbed
    by the marker as well.
    """
    amount = rationalize(amount)
    if amount < 0:
        raise ValidationError("cannot cancel a negative amount")
    have = expr.coeff(ResourceKind.PRIVATE_KEY)
    if not allow_sublinear:
        return expr.remove(ResourceKind.PRIVATE_KEY, amount)
    out = expr.remove(ResourceKind.PRIVATE_KEY, min(have, amount))
    return out.add(ResourceKind.SUBLINEAR_KEY, Fraction(1))


# ---------------------------------------------------------------------------
# Standard rules
# ---------------------------------------------------------------------------


def _nonnegative(*values) -> tuple[Fraction, ...]:
    """The channel quantities as exact Fractions; a negative one is a ValidationError."""
    out = tuple(rationalize(v) for v in values)
    if min(out) < 0:
        raise ValidationError("channel quantities must be nonnegative")
    return out


def one_time_pad_rule(rate=1) -> Rule:
    """rate·[c→c]_pub + rate·[cc]_priv ≥ rate·[c→c]_priv.

    Padding with an equal-rate key makes the transmitted variable uniform,
    so this rule may consume relative public channels.
    """
    r = rationalize(rate)
    return Rule(
        name="one_time_pad",
        consumes=ResourceExpr.of((r, ResourceKind.PUBLIC_CC), (r, ResourceKind.PRIVATE_KEY)),
        produces=ResourceExpr.of((r, ResourceKind.PRIVATE_CC)),
        params={"rate": r},
        uniformizing=True,
    )


def secret_key_distribution_rule(rate=1) -> Rule:
    """rate·[c→c]_priv ≥ rate·[cc]_priv (send a local coin over the private channel)."""
    r = rationalize(rate)
    return Rule(
        name="secret_key_distribution",
        consumes=ResourceExpr.of((r, ResourceKind.PRIVATE_CC)),
        produces=ResourceExpr.of((r, ResourceKind.PRIVATE_KEY)),
        params={"rate": r},
    )


def public_private_father_rule(a, b, c) -> Rule:
    """⟨N⟩ + c·[cc]_priv ≥ b·[c→c]_priv + a·[c→c]_pub.

    The keyed public/private coding step: a = I(X;B), b = I(Y;B|X),
    c = I(Y;E|X) for the witness ensemble. Its public output is an absolute
    resource (no uniformity requirement on the public variable). At a = 0
    it is key-assisted private coding, ⟨N⟩ + c·[cc]_priv ≥ b·[c→c]_priv.
    """
    a, b, c = _nonnegative(a, b, c)
    return Rule(
        name="public_private_father",
        consumes=ResourceExpr.of((1, ResourceKind.CHANNEL_N), (c, ResourceKind.PRIVATE_KEY)),
        produces=ResourceExpr.of((b, ResourceKind.PRIVATE_CC), (a, ResourceKind.PUBLIC_CC)),
        params={"a": a, "b": b, "c": c},
    )


def private_coding_rule(i_xb, i_xe) -> Rule:
    """⟨N⟩ ≥ i_xe·[c→c:π]_pub + (i_xb - i_xe)·[c→c]_priv.

    Unassisted private coding: the by-product public channel is *relative* —
    it only works on a uniform input, because that input doubles as the
    randomization hiding the private message from the eavesdropper.
    """
    i_xb, i_xe = rationalize(i_xb), rationalize(i_xe)
    if not (i_xb >= i_xe >= 0):
        raise ValidationError(f"need I(X;B) >= I(X;E) >= 0, got ({i_xb}, {i_xe})")
    return Rule(
        name="private_coding",
        consumes=ResourceExpr.of((1, ResourceKind.CHANNEL_N)),
        produces=ResourceExpr.of(
            (i_xe, ResourceKind.PUBLIC_CC, True),
            (i_xb - i_xe, ResourceKind.PRIVATE_CC),
        ),
        params={"i_xb": i_xb, "i_xe": i_xe},
    )


# ---------------------------------------------------------------------------
# Derivations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Step:
    """One rewrite in a transcript."""

    kind: str  # "rule" or "cancel_key"
    name: str
    params: dict
    before: ResourceExpr
    after: ResourceExpr

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "name": self.name,
            "params": {k: str(v) for k, v in self.params.items()},
            "before": self.before.render(),
            "after": self.after.render(),
        }


@dataclass(frozen=True)
class EfficiencyReport:
    """Key accounting of a derivation vs. the best-known key requirement."""

    key_consumed: Fraction
    sublinear_residue: bool
    optimal_key_rate: Fraction | None = None

    @property
    def inefficient(self) -> bool | None:
        if self.optimal_key_rate is None:
            return None
        return self.key_consumed > self.optimal_key_rate

    def as_dict(self) -> dict:
        return {
            "key_consumed": str(self.key_consumed),
            "sublinear_residue": self.sublinear_residue,
            "optimal_key_rate": None if self.optimal_key_rate is None else str(self.optimal_key_rate),
            "inefficient": self.inefficient,
        }


@dataclass(frozen=True)
class DerivationTranscript:
    """Initial holdings, ordered rewrite steps, and the final expression."""

    name: str
    params: dict
    initial: ResourceExpr
    steps: tuple
    final: ResourceExpr
    efficiency: EfficiencyReport | None = None

    def as_dict(self) -> dict:
        return {
            "derivation": self.name,
            "params": {k: str(v) for k, v in self.params.items()},
            "initial": self.initial.render(),
            "steps": [s.as_dict() for s in self.steps],
            "final": self.final.render(),
            "final_terms": [t.render() for t in self.final.terms],
            "efficiency": None if self.efficiency is None else self.efficiency.as_dict(),
        }


_RULE_FACTORIES = {
    "one_time_pad": one_time_pad_rule,
    "secret_key_distribution": secret_key_distribution_rule,
    "public_private_father": public_private_father_rule,
    "private_coding": private_coding_rule,
}


def _run(initial: ResourceExpr, steps) -> tuple[tuple[Step, ...], ResourceExpr]:
    """Apply the (name, params) steps in turn: "cancel_key" cancels key, any other name rebuilds its rule
    from ``_RULE_FACTORIES``. Returns the recorded steps and the final expression; raises if a step does
    not apply."""
    done, expr = [], initial
    for name, params in steps:
        if name == "cancel_key":
            kind, nxt = name, cancel_key(expr, **params)
        else:
            rule = _RULE_FACTORIES[name](**params)
            kind, nxt, params = "rule", apply_rule(expr, rule), rule.params
        done.append(Step(kind, name, params, expr, nxt))
        expr = nxt
    return tuple(done), expr


def replay_transcript(t: DerivationTranscript) -> ResourceExpr:
    """Re-run a transcript's steps from its initial expression, as the derivation ran them.

    Returns the reconstructed final expression; raises if any step no longer
    applies. Equality with t.final certifies the transcript.
    """
    return _run(t.initial, [(s.name, s.params) for s in t.steps])[1]


def derive_section3(i_xb, i_xe) -> DerivationTranscript:
    """Key-assisted private transmission out of unassisted private coding.

    Starting from one channel use plus I(X;E) bits of key, private coding
    yields a relative public channel at rate I(X;E) and private bits at rate
    I(X;B) - I(X;E); one-time-padding the relative public channel with the
    key converts it into private bits, landing exactly on
    I(X;B)·[c→c]_priv. Requires I(X;B) ≥ I(X;E) ≥ 0.
    """
    params = dict(private_coding_rule(i_xb, i_xe).params)  # rationalized and checked
    i_xe = params["i_xe"]
    initial = ResourceExpr.of((1, ResourceKind.CHANNEL_N), (i_xe, ResourceKind.PRIVATE_KEY))
    steps = [("private_coding", params), ("one_time_pad", {"rate": i_xe})]
    return DerivationTranscript("section3", params, initial, *_run(initial, steps),
                                EfficiencyReport(key_consumed=i_xe, sublinear_residue=False))


def derive_ds03_child(a, b, c) -> DerivationTranscript:
    """Simultaneous public/private coding with only sublinear key use.

    The keyed father step spends c bits of key; regenerating them from the
    private output (secret key distribution) and cancelling against the
    input key leaves ⟨N⟩ + o[cc]_priv ≥ (b-c)·[c→c]_priv + a·[c→c]_pub.
    Requires b ≥ c so the net private rate is nonnegative.
    """
    a, b, c = _nonnegative(a, b, c)
    if b < c:
        raise ValidationError(f"needs b >= c to regenerate the key, got b={b}, c={c}")
    params = {"a": a, "b": b, "c": c}
    initial = ResourceExpr.of((1, ResourceKind.CHANNEL_N), (c, ResourceKind.PRIVATE_KEY))
    steps = [("public_private_father", params)]
    degenerate = a == 0 and b == 0
    if not degenerate:
        steps += [("secret_key_distribution", {"rate": c}), ("cancel_key", {"amount": c, "allow_sublinear": True})]
    return DerivationTranscript("ds03", params, initial, *_run(initial, steps),
                                EfficiencyReport(key_consumed=Fraction(0), sublinear_residue=not degenerate))


def derive_otp_combination(a, b, c, optimal_key_rate=None) -> DerivationTranscript:
    """All-private transmission by padding the public output with more key.

    Consumes c + a bits of key total and ends at (a+b)·[c→c]_priv. When the
    caller supplies the best-known key requirement (the leakage I(XY;E) of
    the witness ensemble), the report flags this construction as
    inefficient whenever c + a exceeds it.
    """
    a, b, c = _nonnegative(a, b, c)
    params = {"a": a, "b": b, "c": c}
    initial = ResourceExpr.of((1, ResourceKind.CHANNEL_N), (c + a, ResourceKind.PRIVATE_KEY))
    steps = [("public_private_father", params), ("one_time_pad", {"rate": a})]
    opt = None if optimal_key_rate is None else rationalize(optimal_key_rate)
    return DerivationTranscript("otp_combination", params, initial, *_run(initial, steps),
                                EfficiencyReport(key_consumed=c + a, sublinear_residue=False, optimal_key_rate=opt))


DERIVATIONS = {
    "section3": derive_section3,
    "ds03": derive_ds03_child,
    "otp_combination": derive_otp_combination,
}
