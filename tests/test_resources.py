from dataclasses import replace
from fractions import Fraction

import pytest

from pubpriv.errors import RelativityError, RuleInapplicableError, ValidationError
from pubpriv.resources import (
    DERIVATIONS,
    ResourceExpr,
    ResourceKind,
    ResourceTerm,
    Rule,
    apply_rule,
    cancel_key,
    derive_ds03_child,
    derive_otp_combination,
    derive_section3,
    one_time_pad_rule,
    private_coding_rule,
    public_private_father_rule,
    rationalize,
    replay_transcript,
    secret_key_distribution_rule,
)

K = ResourceKind


def expr(*pairs):
    return ResourceExpr.of(*pairs)


def rand_fraction(rng, lo=0, hi=4):
    return Fraction(int(rng.integers(lo * 12, hi * 12 + 1)), 12)


class TestExpressions:
    def test_merge_same_kind(self):
        e = expr((1, K.PRIVATE_CC), (Fraction(1, 2), K.PRIVATE_CC))
        assert e.coeff(K.PRIVATE_CC) == Fraction(3, 2)
        assert len(e.terms) == 1

    def test_zero_terms_dropped(self):
        assert expr((0, K.PRIVATE_CC)).terms == ()

    def test_relative_kept_separate(self):
        e = expr((1, K.PUBLIC_CC), (1, K.PUBLIC_CC, True))
        assert e.coeff(K.PUBLIC_CC) == 1
        assert e.coeff(K.PUBLIC_CC, relative=True) == 1
        assert len(e.terms) == 2

    def test_negative_coefficient_rejected(self):
        with pytest.raises(ValidationError):
            ResourceTerm(kind=K.PRIVATE_CC, coefficient=Fraction(-1))

    def test_relative_only_on_public(self):
        with pytest.raises(ValidationError):
            ResourceTerm(kind=K.PRIVATE_CC, coefficient=Fraction(1), relative=True)

    def test_rationalize(self):
        assert rationalize(0.5) == Fraction(1, 2)
        assert rationalize("2/5") == Fraction(2, 5)
        assert rationalize(3) == Fraction(3)

    @pytest.mark.parametrize("x", [float("nan"), float("inf"), float("-inf")])
    def test_rationalize_rejects_non_finite(self, x):
        with pytest.raises(ValidationError):
            rationalize(x)


class TestApplyRule:
    def test_one_time_pad(self):
        got = apply_rule(expr((1, K.PUBLIC_CC), (1, K.PRIVATE_KEY)), one_time_pad_rule(1))
        assert got == expr((1, K.PRIVATE_CC))

    def test_secret_key_distribution(self):
        got = apply_rule(expr((1, K.PRIVATE_CC)), secret_key_distribution_rule(1))
        assert got == expr((1, K.PRIVATE_KEY))

    def test_father_with_insufficient_key_names_deficit(self):
        with pytest.raises(RuleInapplicableError, match=r"\[cc\]_priv"):
            apply_rule(expr((1, K.CHANNEL_N)), public_private_father_rule(1, 1, Fraction(1, 2)))

    def test_conservation(self, rng):
        # a rule application never creates kinds outside rule.produces
        start = expr((1, K.CHANNEL_N), (2, K.PRIVATE_KEY))
        rule = public_private_father_rule(Fraction(1), Fraction(3, 2), Fraction(1, 2))
        got = apply_rule(start, rule)
        new_kinds = {t.kind for t in got.terms} - {t.kind for t in start.terms}
        assert new_kinds <= {t.kind for t in rule.produces.terms}

    def test_exact_rational_arithmetic(self):
        got = apply_rule(expr((1, K.CHANNEL_N), (Fraction(1, 3), K.PRIVATE_KEY)),
                         public_private_father_rule(Fraction(2, 7), Fraction(5, 3), Fraction(1, 3)))
        assert got.coeff(K.PRIVATE_CC) == Fraction(5, 3)
        assert got.coeff(K.PUBLIC_CC) == Fraction(2, 7)
        assert all(isinstance(t.coefficient, Fraction) for t in got.terms)


class TestRelativitySafety:
    def test_uniformizing_rule_may_consume_relative(self):
        holdings = expr((1, K.PUBLIC_CC, True), (1, K.PRIVATE_KEY))
        got = apply_rule(holdings, one_time_pad_rule(1))
        assert got == expr((1, K.PRIVATE_CC))

    def test_non_uniformizing_rule_errors_on_relative(self):
        burn = Rule(name="burn_public",
                    consumes=expr((1, K.PUBLIC_CC)),
                    produces=expr((1, K.COMMON_RANDOMNESS)))
        with pytest.raises(RelativityError):
            apply_rule(expr((1, K.PUBLIC_CC, True)), burn)

    def test_uniformizer_needs_matching_key(self):
        lopsided = Rule(name="cheap_pad",
                        consumes=expr((1, K.PUBLIC_CC), (Fraction(1, 2), K.PRIVATE_KEY)),
                        produces=expr((1, K.PRIVATE_CC)),
                        uniformizing=True)
        holdings = expr((1, K.PUBLIC_CC, True), (Fraction(1, 2), K.PRIVATE_KEY))
        with pytest.raises(RelativityError):
            apply_rule(holdings, lopsided)

    def test_absolute_satisfied_before_touching_relative(self):
        holdings = expr((1, K.PUBLIC_CC), (1, K.PRIVATE_KEY))
        got = apply_rule(holdings, one_time_pad_rule(1))
        assert got.coeff(K.PRIVATE_CC) == 1


class TestCancelKey:
    def test_cancel_zero_is_identity(self):
        e = expr((1, K.CHANNEL_N), (1, K.PRIVATE_KEY))
        assert cancel_key(e, 0) == e

    def test_cancel_more_than_present_errors(self):
        with pytest.raises(RuleInapplicableError):
            cancel_key(expr((Fraction(1, 2), K.PRIVATE_KEY)), 1)

    def test_sublinear_residue_recorded(self):
        got = cancel_key(expr((1, K.PRIVATE_KEY)), 1, allow_sublinear=True)
        assert got.coeff(K.PRIVATE_KEY) == 0
        assert got.coeff(K.SUBLINEAR_KEY) == 1


class TestSection3:
    def test_no_key_needed(self):
        t = derive_section3(1, 0)
        assert t.final == expr((1, K.PRIVATE_CC))
        assert len(t.steps) == 2

    def test_fractional_key(self):
        t = derive_section3(1, Fraction(2, 5))
        assert t.final == expr((1, K.PRIVATE_CC))
        assert t.efficiency.key_consumed == Fraction(2, 5)

    def test_boundary(self):
        t = derive_section3(Fraction(1, 2), Fraction(1, 2))
        assert t.final == expr((Fraction(1, 2), K.PRIVATE_CC))

    def test_end_state_identity_random_rationals(self, rng):
        for _ in range(30):
            ie = rand_fraction(rng)
            ib = ie + rand_fraction(rng)
            t = derive_section3(ib, ie)
            assert t.final == expr((ib, K.PRIVATE_CC))

    def test_precondition(self):
        with pytest.raises(ValidationError):
            derive_section3(Fraction(1, 2), 1)


class TestDs03:
    def test_reference_point(self):
        t = derive_ds03_child(1, 1, 0)
        assert t.final == expr((1, K.PRIVATE_CC), (1, K.PUBLIC_CC), (1, K.SUBLINEAR_KEY))

    def test_random_rationals(self, rng):
        for _ in range(30):
            a = rand_fraction(rng)
            c = rand_fraction(rng)
            b = c + rand_fraction(rng)
            t = derive_ds03_child(a, b, c)
            assert t.final == expr((b - c, K.PRIVATE_CC), (a, K.PUBLIC_CC), (1, K.SUBLINEAR_KEY))

    def test_degenerate_empty(self):
        assert derive_ds03_child(0, 0, 0).final.terms == ()

    def test_needs_b_at_least_c(self):
        with pytest.raises(ValidationError):
            derive_ds03_child(1, Fraction(1, 2), 1)


class TestOtpCombination:
    def test_reference_point(self):
        t = derive_otp_combination(1, 1, 0)
        assert t.final == expr((2, K.PRIVATE_CC))
        assert t.efficiency.key_consumed == 1

    def test_random_rationals(self, rng):
        for _ in range(30):
            a, b, c = (rand_fraction(rng) for _ in range(3))
            t = derive_otp_combination(a, b, c)
            assert t.final == expr((a + b, K.PRIVATE_CC))
            assert t.efficiency.key_consumed == a + c

    def test_degenerate_empty(self):
        assert derive_otp_combination(0, 0, 0).final.terms == ()

    def test_inefficiency_flagged(self):
        t = derive_otp_combination(1, 1, Fraction(1, 2), optimal_key_rate=Fraction(3, 4))
        assert t.efficiency.inefficient is True
        t2 = derive_otp_combination(0, 1, Fraction(1, 2), optimal_key_rate=Fraction(1, 2))
        assert t2.efficiency.inefficient is False


class TestTranscripts:
    def test_replay_reproduces_final(self, rng):
        for maker in (lambda: derive_section3(2, Fraction(3, 4)),
                      lambda: derive_ds03_child(Fraction(1, 3), 2, Fraction(1, 2)),
                      lambda: derive_otp_combination(1, Fraction(5, 4), Fraction(1, 4))):
            t = maker()
            assert replay_transcript(t) == t.final

    def test_a_step_with_altered_parameters_fails_replay(self):
        """Each parameter of each step, lowered by 1/7 (a flag flipped), either no longer applies or ends away
        from the transcript's final expression."""
        altered = 0
        for t in (derive_section3(2, Fraction(3, 4)), derive_ds03_child(Fraction(1, 3), 2, Fraction(1, 2)),
                  derive_otp_combination(1, Fraction(5, 4), Fraction(1, 4))):
            for i, step in enumerate(t.steps):
                for key, value in step.params.items():
                    params = {**step.params, key: not value if isinstance(value, bool) else value - Fraction(1, 7)}
                    steps = t.steps[:i] + (replace(step, params=params),) + t.steps[i + 1:]
                    altered += 1
                    try:
                        got = replay_transcript(replace(t, steps=steps))
                    except (RuleInapplicableError, RelativityError, ValidationError):
                        continue
                    assert got != t.final, (t.name, step.name, key)
        assert altered == 13  # 3 + 6 + 4 parameters

    def test_as_dict_is_json_friendly(self):
        import json
        doc = derive_ds03_child(1, 1, Fraction(1, 2)).as_dict()
        round_tripped = json.loads(json.dumps(doc))
        assert round_tripped["final"] == doc["final"]
        assert len(round_tripped["steps"]) == 3

    def test_registry_names(self):
        assert set(DERIVATIONS) == {"section3", "ds03", "otp_combination"}


class TestKeyedPrivateCoding:
    def test_rule_shape(self):
        rule = public_private_father_rule(0, Fraction(3, 2), Fraction(1, 2))  # a = 0: key-assisted private coding
        start = expr((1, K.CHANNEL_N), (Fraction(1, 2), K.PRIVATE_KEY))
        assert apply_rule(start, rule) == expr((Fraction(3, 2), K.PRIVATE_CC))

    def test_private_coding_emits_relative_public(self):
        rule = private_coding_rule(1, Fraction(2, 5))
        got = apply_rule(expr((1, K.CHANNEL_N)), rule)
        assert got.coeff(K.PUBLIC_CC, relative=True) == Fraction(2, 5)
        assert got.coeff(K.PRIVATE_CC) == Fraction(3, 5)
