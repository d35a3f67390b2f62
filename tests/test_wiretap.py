import hashlib
import math
import re
import warnings
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

import pubpriv.wiretap as wt
from pubpriv.errors import BudgetError, ConfigurationError, DimensionError, ValidationError
from pubpriv.wiretap import (
    ClassicalWiretap,
    CodeConfig,
    Codebook,
    bsc,
    decode,
    encrypt,
    estimate_error,
    expurgate,
    generate_codebook,
    noiseless,
    per_message_errors,
    pruned_distribution,
    security_distance,
)


class TestChannelModel:
    def test_joint_normalization_enforced(self):
        with pytest.raises(ValidationError):
            ClassicalWiretap(np.full((2, 2, 2), 0.3))

    def test_marginals(self):
        ch = ClassicalWiretap.from_marginals(bsc(0.1), bsc(0.3))
        assert np.allclose(ch.p_main, bsc(0.1))
        assert np.allclose(ch.p_eve, bsc(0.3))

    def test_bsc_pair(self):
        ch = ClassicalWiretap.bsc_pair(0.0, 0.5)
        assert np.allclose(ch.p_main, np.eye(2))

    def test_channel_tables_are_computed_once_and_read_only(self):
        ch = ClassicalWiretap(np.random.default_rng(0).dirichlet(np.ones(6), size=3).reshape(3, 2, 3))
        for name, value in {"p_main": ch.p_joint.sum(axis=2), "p_eve": ch.p_joint.sum(axis=1)}.items():
            table = getattr(ch, name)
            assert table is getattr(ch, name) and table.tobytes() == value.tobytes(), name
            with pytest.raises(ValueError):
                table[0, 0] = 0.5

    def test_cut_count_is_the_clipped_inverse_cdf_draw(self):
        """Counting a row's q-1 CDF cuts at or below u gives min(#{j < q : cdf_j <= u}, q-1), also for a row that
        sums to 1 - 1e-13 with u above that sum, and for one output."""
        rng = np.random.default_rng(2)
        for q in (1, 2, 5):
            table = rng.dirichlet(np.ones(q), size=3)
            table[0] *= 1 - 1e-13
            a = rng.integers(0, 3, size=4000)
            u = rng.random(a.size)
            u[np.flatnonzero(a == 0)[:5]] = np.nextafter(1.0, 0.0)
            want = np.minimum((np.cumsum(table, axis=1)[a] <= u[:, None]).sum(axis=1), q - 1)
            assert np.array_equal(wt._channel_outputs(wt._thresholds(np.cumsum(table, axis=1)), a, u), want)

    @pytest.mark.parametrize("side, a, u", [("main", 1, 0.0), ("eve", 0, 0.5)],
                             ids=["zero-probability-first-output", "dyadic-cut"])
    def test_a_uniform_on_a_cut_draws_as_the_codewords_do(self, side, a, u):
        """u on a CDF cut counts that cut, as ``_symbols`` does for codeword symbols: a noiseless input 1 at
        u = 0.0 gives 1, never the output 0 of probability 0, and u = 0.5 on the cut of [1/2, 1/2] gives 1."""
        ch = ClassicalWiretap.from_marginals(noiseless(2), bsc(0.5))
        law = getattr(ch, f"p_{side}")
        assert wt._channel_outputs(getattr(ch, f"cuts_{side}"), np.array([a]), np.array([u])).tolist() == [1]
        code = wt._symbols(np.array([[int(u * 2 ** 53)]], dtype=np.uint64),
                           pruned_distribution(law[a], 1, 10.0).thresholds(0), np.empty((1, 1), dtype=np.intp))
        assert code.tolist() == [[1]]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_laws_rejected(self, bad):
        """NaN fails every < and > check, so each law is tested for finiteness first."""
        t = np.full((2, 2, 2), 0.25)
        t[0, 0, 0] = bad
        with pytest.raises(ValidationError):
            ClassicalWiretap(t)
        with pytest.raises(ValidationError):
            pruned_distribution([bad, 0.5], 8, 0.3)
        cfg = CodeConfig(n=8, M=4, K_pub=2, delta=0.9, seed=1)
        with pytest.raises(ValidationError):
            generate_codebook(cfg, ClassicalWiretap.bsc_pair(0.1, 0.2), ([0.5, 0.5], [[bad, 0.5], [0.5, 0.5]]))


def _recursive_compositions(n: int, k: int):
    """The k-part compositions of n, first count outermost: the reference order of the type-class fold."""
    if k == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in _recursive_compositions(n - first, k - 1):
            yield (first,) + rest


def _reference_log2_multinomial(n: int, counts) -> float:
    """log2 of n! / Π c! with one lgamma call per count, zero counts included: the reference of the table form."""
    v = math.lgamma(n + 1) - sum(math.lgamma(c + 1) for c in counts)
    return v / math.log(2.0)


class TestPrunedDistribution:
    def test_nan_delta_is_rejected(self):
        with pytest.raises(ValidationError, match="delta must be positive"):
            pruned_distribution([0.5, 0.5], 8, np.nan)
        with pytest.raises(ValidationError, match="delta must be positive"):
            CodeConfig(n=8, M=4, delta=np.nan)

    def test_uniform_binary_everything_typical(self):
        pd = pruned_distribution([0.5, 0.5], 8, 0.01)
        seqs = np.array(list(product(range(2), repeat=8)))
        assert pd.is_typical(seqs, 0).all()
        assert abs(pd.acceptance[0] - 1.0) < 1e-9
        # pruned distribution equals the uniform source itself
        for seq in seqs[:16]:
            assert abs(pd.log2_prob(seq, 0) + 8.0) < 1e-9

    def test_skewed_exhaustive_enumeration(self):
        """Exhaustively enumerate all 2^20 binary sequences for p=(0.9, 0.1)."""
        p, n, delta = np.array([0.9, 0.1]), 20, 0.1
        pd = pruned_distribution(p, n, delta)
        codes = np.arange(1 << n, dtype=np.uint32)
        ones = np.bitwise_count(codes).astype(np.int64)
        # independent oracle: surprisal from the ones-count alone
        surprisal = (-(n - ones) * np.log2(p[0]) - ones * np.log2(p[1])) / n
        h = -(p * np.log2(p)).sum()
        oracle_typical = np.abs(surprisal - h) <= delta + 1e-12
        # the implementation must agree sequence-by-sequence
        bits = ((codes[:, None] >> np.arange(n)[None, :]) & 1).astype(np.intp)
        assert np.array_equal(pd.is_typical(bits, 0), oracle_typical)
        # accepted sequences keep their empirical frequency inside the window
        accepted_ones = ones[oracle_typical]
        assert accepted_ones.size > 0
        assert np.all(np.abs(accepted_ones / n - p[1]) <= delta + 1e-12)
        # acceptance probability matches the enumerated mass
        mass = (p[0] ** (n - ones[oracle_typical]) * p[1] ** ones[oracle_typical]).sum()
        assert abs(pd.acceptance[0] - mass) < 1e-12
        # here the window pins the single balanced type: 190 sequences of 2 ones
        assert set(np.unique(accepted_ones)) == {2}
        assert accepted_ones.size == math.comb(20, 2)

    def test_single_symbol_large_window_recovers_p(self):
        pd = pruned_distribution([0.3, 0.7], 1, 10.0)
        assert abs(pd.acceptance[0] - 1.0) < 1e-12
        assert abs(2.0 ** pd.log2_prob([0], 0) - 0.3) < 1e-12
        assert abs(2.0 ** pd.log2_prob([1], 0) - 0.7) < 1e-12

    def test_out_of_support_marker(self):
        pd = pruned_distribution([0.9, 0.1], 20, 0.1)
        assert pd.log2_prob([0] * 20, 0) == -np.inf

    def test_unreachable_window_rejected(self):
        # at n=7 no type class of p=(0.9, 0.1) lands within 0.01 of the entropy
        with pytest.raises(ConfigurationError):
            pruned_distribution([0.9, 0.1], 7, 0.01)

    def test_type_enumeration_past_its_budget_is_a_budget_error(self):
        """8 symbols at n = 40 have C(47, 7) = 62,891,499 type classes, past TYPE_ENUM_BUDGET."""
        with pytest.raises(BudgetError, match="type enumeration at n=40 is too large"):
            pruned_distribution(np.full(8, 1 / 8), 40, 0.5)

    @pytest.mark.parametrize("rows, x", [(1, [0, 1, 0]), (2, [0, -1, 0]), (2, [0.7, 1.2]), (2, [0, np.nan])],
                             ids=["past-the-last-row", "negative", "fractional", "nan"])
    def test_outer_words_that_index_no_row_are_rejected(self, rows, x):
        table = np.array([[0.5, 0.5], [0.9, 0.1]])[:rows]
        with pytest.raises(ValidationError, match=re.escape(f"outer word symbols must be integers in [0, {rows})")):
            wt.PrunedDistribution(table=table, outer_words=[x], delta=0.9)

    def test_evaluators_given_k_equal_the_one_word_law(self):
        """On a K > 1 law, log2_prob(word, k) and acceptance[k] are those of the law on x^n(k) alone, the -inf
        marker of an atypical word included."""
        table = np.array([[0.7, 0.3, 0.0], [0.1, 0.2, 0.7]])
        outer = np.array([[0, 1, 1, 0, 1, 0], [1, 1, 1, 1, 1, 1], [0, 0, 0, 0, 0, 0], [0, 1, 1, 0, 1, 0]])
        law = wt.PrunedDistribution(table, outer, 0.3)
        words = np.array(list(product(range(3), repeat=6)))
        for k in range(len(outer)):
            one = wt.PrunedDistribution(table, outer[k: k + 1], 0.3)
            assert law.acceptance[k] == one.acceptance[0] and law.log2_acceptance[k] == one.log2_acceptance[0]
            typical = law.is_typical(words, k)
            assert typical.any() and not typical.all()
            for word in words[::7]:
                got, want = law.log2_prob(word, k), one.log2_prob(word, 0)
                assert got == want and (got == -np.inf) != bool(law.is_typical(word, k))

    def test_per_k_acceptances_equal_the_one_word_law(self, monkeypatch):
        """Repeated words, one type at two window centers (the row sums round apart) and distinct types: each
        entry is the one-word law's to the bit, and each distinct (type, center) pair is enumerated once."""
        table = np.array([[0.7, 0.3, 0.0], [0.1, 0.2, 0.7], [0.25, 0.25, 0.5]])
        outer = np.array([[0, 2, 2, 1, 0, 1], [0, 0, 1, 2, 1, 2], [0, 2, 2, 1, 0, 1], [1, 1, 1, 1, 1, 1],
                          [0, 0, 0, 0, 0, 0], [0, 0, 1, 2, 1, 2], [1, 1, 1, 1, 1, 1]])
        enumerate_mass, calls = wt._window_mass_log2, []

        def counted(*args):
            calls.append(args)
            return enumerate_mass(*args)

        monkeypatch.setattr(wt, "_window_mass_log2", counted)
        law = wt.PrunedDistribution(table, outer, 0.3)
        assert law.entropy[0].hex() != law.entropy[1].hex()  # the same type, two centers
        assert len(calls) == 4
        for k in range(len(outer)):
            one = wt.PrunedDistribution(table, outer[k: k + 1], 0.3)
            assert law.log2_acceptance[k].hex() == one.log2_acceptance[0].hex()
            assert law.entropy[k].hex() == one.entropy[0].hex()

    def test_the_first_acceptance_below_the_minimum_in_k_order_raises(self):
        """The second distinct (type, center) pair, x^n(2), is the first below MIN_ACCEPTANCE: 2^-21.20. x^n(3),
        later in k order, is below it too, at 2^-21.38, and its window center is the smallest of the four."""
        e, n = 1e-3, 36
        table = np.array([[1 - e, e], [0.7, 0.3]])
        outer = np.array([[0] * k + [1] * (n - k) for k in (2, 2, 1, 8)])
        with pytest.raises(ConfigurationError) as one:
            wt.PrunedDistribution(table, outer[2:3], 0.015)
        with pytest.raises(ConfigurationError) as later:
            wt.PrunedDistribution(table, outer[3:4], 0.015)
        assert "acceptance 2^-21.20 is below 1e-06" in str(one.value)
        assert "acceptance 2^-21.38 is below 1e-06" in str(later.value)
        assert wt.PrunedDistribution(table, outer[:2], 0.015).log2_acceptance[0] > np.log2(wt.MIN_ACCEPTANCE)
        with pytest.raises(ConfigurationError) as err:
            wt.PrunedDistribution(table, outer, 0.015)
        assert str(err.value) == str(one.value)

    def test_lgamma_table_multinomial_equals_the_per_count_one(self):
        rng = np.random.default_rng(23)
        for _ in range(4000):
            n, k = int(rng.integers(0, 80)), int(rng.integers(1, 300))
            bars = np.sort(rng.choice(n + k - 1, size=k - 1, replace=False)) if k > 1 else np.array([], int)
            edges = [-1, *bars.tolist(), n + k - 1]
            counts = tuple(b - a - 1 for a, b in zip(edges, edges[1:]))
            lgamma1 = [math.lgamma(c + 1) for c in range(n + 1)]
            assert wt._log2_multinomial(n, counts, lgamma1) == _reference_log2_multinomial(n, counts)

    @pytest.mark.parametrize("n, k", [(0, 1), (3, 1), (0, 3), (4, 3), (5, 4), (6, 5), (2, 30)])
    def test_stars_and_bars_enumeration_equals_the_recursive_one(self, n, k):
        assert list(wt._compositions(n, k)) == list(_recursive_compositions(n, k))

    def test_sampler_yields_typical_and_is_deterministic(self):
        pd = pruned_distribution([0.8, 0.2], 16, 0.15)
        ids = np.arange(40, dtype=np.int64)
        a = wt._generate_words(pd, 5, wt._TAG_INNER, 0, ids)
        b = wt._generate_words(pd, 5, wt._TAG_INNER, 0, ids)
        assert np.array_equal(a, b)
        assert pd.is_typical(a, 0).all()

    def test_acceptances_are_pinned(self):
        """One type-class enumerator serves both laws; hex values recorded with the two separate loops."""
        for p, n, delta, want in (([0.8, 0.2], 24, 0.12, "-0x1.bd5b38b69360fp-1"),
                                  ([0.6, 0.0, 0.4], 16, 0.3, "-0x1.03e4ec349e090p-16"),
                                  ([0.1, 0.2, 0.3, 0.4], 12, 0.2, "-0x1.b881cfbe1aea1p-2")):
            pd = pruned_distribution(p, n, delta)
            assert pd.log2_acceptance[0].hex() == want
            one_group = wt.PrunedDistribution(table=np.array([p]), outer_words=[np.zeros(n, dtype=int)], delta=delta)
            assert one_group.log2_acceptance == pd.log2_acceptance
        for table, x, delta, want in (
                ([[0.7, 0.3, 0.0], [0.1, 0.2, 0.7]], [0, 1, 1, 0, 1, 0, 0, 1, 1, 1, 0, 1], 0.4,
                 "-0x1.435138bf7bf4dp-3"),
                ([[0.5, 0.5], [0.9, 0.1], [0.25, 0.75]], [2, 0, 1, 2, 2, 0, 1, 1, 0, 2], 0.15,
                 "-0x1.c99bcf3284743p-1")):
            cp = wt.PrunedDistribution(table=np.array(table), outer_words=[np.array(x)], delta=delta)
            assert cp.log2_acceptance[0].hex() == want

    def test_evaluator_normalizes(self):
        pd = pruned_distribution([0.7, 0.3], 10, 0.2)
        seqs = np.array(list(product(range(2), repeat=10)))
        mask = pd.is_typical(seqs, 0)
        total = sum(2.0 ** pd.log2_prob(s, 0) for s in seqs[mask])
        assert abs(total - 1.0) < 1e-9

    def test_all_typical_holds_exactly_when_every_word_is_typical(self):
        """On random laws with positive entries every word can be drawn; the two extreme words decide."""
        rng = np.random.default_rng(3)
        seen = set()
        for _ in range(150):
            rows, q, n = int(rng.integers(1, 3)), int(rng.integers(2, 4)), int(rng.integers(1, 7))
            table = rng.dirichlet(np.full(q, 0.7 if rng.random() < 0.5 else 20.0), size=rows)
            x = rng.integers(0, rows, size=n)
            try:
                pd = wt.PrunedDistribution(table=table, outer_words=[x], delta=float(rng.uniform(0.02, 1.5)))
            except ConfigurationError:  # acceptance below MIN_ACCEPTANCE
                continue
            words = np.array(list(product(range(q), repeat=n)))
            assert pd.all_typical[0] == bool(pd.is_typical(words, 0).all())
            seen.add(bool(pd.all_typical[0]))
        assert seen == {False, True}

    def test_all_typical_on_uniform_and_skewed_laws(self):
        assert pruned_distribution([0.5, 0.5], 8, 0.01).all_typical
        assert pruned_distribution(np.full(3, 1 / 3), 12, 1e-6).all_typical
        assert not pruned_distribution([0.8, 0.2], 20, 0.1).all_typical

    def test_a_zero_probability_symbol_the_thresholds_can_draw_keeps_the_check(self):
        """The cumsum of [0.6, 0.3999999999999999, 0.0] ends at 1 - 2^-53, so h>>11 = 2^53 - 1 draws the
        zero-probability symbol 2: the flag fails, though every word over {0, 1} is typical at δ = 10."""
        pd = pruned_distribution([0.6, 0.3999999999999999, 0.0], 4, 10.0)
        top = np.full((1, 4), 2 ** 53 - 1, dtype=np.uint64)
        assert (wt._symbols(top, pd.thresholds(0), np.empty((1, 4), dtype=np.intp)) == 2).all()
        assert pd.is_typical(np.array(list(product(range(2), repeat=4))), 0).all()
        assert not pd.all_typical
        assert pruned_distribution([0.6, 0.4, 0.0], 4, 10.0).all_typical  # the cumsum reaches 1: 2 is never drawn


def _numpy_stream_base(seed: int, tag: int, k: int) -> np.uint64:
    """The stream base chained on one-element uint64 arrays through ``_mix64``: the reference."""
    z, tmp = np.zeros(1, dtype=np.uint64), np.empty(1, dtype=np.uint64)
    for v in (seed & 0xFFFFFFFFFFFFFFFF, tag, k):
        np.add(z ^ np.uint64(v), wt._C1, out=z)
        wt._mix64(z, tmp)
    return z[0]


def _digest(words) -> str:
    return hashlib.sha256(np.ascontiguousarray(words, dtype="<i8").tobytes()).hexdigest()


def collisions(inner_words) -> int:
    """Repeated inner words: M minus the distinct words of each public message, summed."""
    return sum(len(words) - len(np.unique(words, axis=0)) for words in inner_words)


class TestCodewordKernel:
    """The blocked integer-threshold kernel draws the same words as the float
    inverse-CDF sampler it replaced; the digests were recorded with that sampler."""

    @pytest.mark.parametrize("p, n, delta, seed, count, digest", [
        ([0.5, 0.5], 40, 0.3, 3, 10000,
         "b7060925954ced9ac2125c56f0d353476ef3f5d1fa61cef6c3035aae32f4dd76"),
        # acceptance 0.547: about half the ids need rejection rounds
        ([0.8, 0.2], 24, 0.12, 5, 3000,
         "de467bce2727cd83dd74d7a34c3eb7ea0ba68fdb47244c66773adcedb958a399"),
        # a zero-probability symbol, and a cumsum that ends at 1 - 2^-53
        ([0.6, 0.0, 0.3999999999999999], 16, 0.3, 11, 3000,
         "2b7f9c118116d058b661f5bd3e35b9bffa8e38c44884b1244ee969d92b9ee556"),
    ])
    def test_single_layer_words_are_pinned(self, p, n, delta, seed, count, digest):
        pd = pruned_distribution(p, n, delta)
        words = wt._generate_words(pd, seed, wt._TAG_INNER, 0, np.arange(count, dtype=np.int64))
        assert _digest(words) == digest

    def test_two_layer_words_and_collisions_are_pinned(self):
        ch = ClassicalWiretap.from_marginals(np.array([[0.9, 0.1], [0.5, 0.5], [0.2, 0.8]]), np.full((3, 2), 0.5))
        cfg = CodeConfig(n=12, M=300, K_pub=3, delta=0.4, seed=8)
        cb = generate_codebook(cfg, ch, ([0.5, 0.5], [[0.7, 0.3, 0.0], [0.1, 0.2, 0.7]]))
        assert _digest(cb.outer_words) == "7353a146054bc5d7bbf180cdd3fb6d6da046e1c3ff35d493144d5fe07909e4cf"
        assert _digest(cb.inner_words) == "0ebf1ba77b8cee4941ffa49459bfe21902bf406ee04e2f39388fc451bee7763d"
        assert collisions(cb.inner_words) == 76

    @pytest.mark.parametrize("seed, tag, k", [
        (0, wt._TAG_OUTER, 0), (7, wt._TAG_INNER, 2047), (2 ** 63 + 12345, wt._TAG_INNER, 3),
        (2 ** 64 - 1, wt._TAG_OUTER, 2 ** 40), (2 ** 70 + 5, wt._TAG_INNER, 1),
    ])
    def test_stream_base_equals_the_numpy_reference(self, seed, tag, k):
        got = wt._stream_base(seed, tag, k)
        assert type(got) is np.uint64 and got == _numpy_stream_base(seed, tag, k)
        many = wt._stream_base(seed, tag, np.array([k, k + 1, 0], dtype=np.int64))  # one base per id of a codebook
        assert many.tolist() == [got, _numpy_stream_base(seed, tag, k + 1), _numpy_stream_base(seed, tag, 0)]

    def test_lazy_block_near_2_to_36_is_pinned(self):
        cfg = CodeConfig(n=40, M=2 ** 36 + 64, delta=0.5, seed=7, decoder="joint_typicality")
        cb = generate_codebook(cfg, ClassicalWiretap.bsc_pair(0.1, 0.5), [0.8, 0.2])
        assert cb.is_lazy
        block = cb.inner_block(0, 2 ** 36 - 32, 2 ** 36 + 32)
        assert _digest(block) == "4f7bc59c0c8a0cbdcfc7649db41c80717459dcb239cf206c1a65e7575fbab740"

    def test_words_do_not_depend_on_blocking(self, monkeypatch):
        pd = pruned_distribution([0.8, 0.2], 24, 0.12)
        ids = np.arange(5000, dtype=np.int64)
        whole = wt._generate_words(pd, 5, wt._TAG_INNER, 0, ids)
        cuts = [0, 1, 17, 1000, 1001, 3333, 5000]
        parts = [wt._generate_words(pd, 5, wt._TAG_INNER, 0, ids[a:b]) for a, b in zip(cuts, cuts[1:])]
        assert np.array_equal(np.concatenate(parts), whole)
        perm = np.random.default_rng(0).permutation(ids.size)
        assert np.array_equal(wt._generate_words(pd, 5, wt._TAG_INNER, 0, ids[perm]), whole[perm])
        monkeypatch.setattr(wt, "_BLOCK_SYMBOLS", 24 * 7)  # 7-word blocks
        assert np.array_equal(wt._generate_words(pd, 5, wt._TAG_INNER, 0, ids), whole)

    @pytest.mark.parametrize("p", [
        [1.0], [0.5, 0.5], [0.8, 0.2], [0.6, 0.0, 0.3999999999999999], [0.0, 0.1, 0.2, 0.3, 0.4], [0.1] * 10,
    ])
    def test_thresholds_equal_the_inverse_cdf_draw(self, p):
        cdf = np.cumsum(p)
        q = cdf.size
        edges = [int(c) << 11 for c in np.ceil(cdf * 2.0 ** 53) if c < 2.0 ** 53]
        h = np.array(sorted({0, 1, 2 ** 64 - 1} | {e + d for e in edges for d in (-1, 0, 1) if 0 <= e + d < 2 ** 64}),
                     dtype=np.uint64)
        u = (h >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
        want = np.minimum(np.searchsorted(cdf, u, side="right"), q - 1)
        thresholds = wt._thresholds(np.broadcast_to(cdf, (h.size, q)))
        got = wt._symbols((h >> np.uint64(11))[None, :], thresholds, np.empty((1, h.size), dtype=np.intp))
        assert np.array_equal(got[0], want)


def _random_two_layer_law(rng, rows, q):
    """A random p(a|x) whose rows may hold zero-probability symbols."""
    table = rng.dirichlet(np.full(q, 0.7 if rng.random() < 0.5 else 20.0), size=rows)
    table[rng.random(table.shape) < 0.2] = 0.0
    table[:, 0] += 1e-3 * (table.sum(axis=1) == 0)
    return table / table.sum(axis=1, keepdims=True)


class TestOneCallCodegen:
    """A codebook validates its inner law once and draws every (k, p) in one ``_generate_words`` call, in the
    smallest dtype of the alphabet: the same words as one ``PrunedDistribution`` per public message."""

    def test_words_take_the_smallest_dtype(self, monkeypatch):
        ch = ClassicalWiretap.from_marginals(bsc(0.1), bsc(0.3))
        cfg = CodeConfig(n=20, M=8, K_pub=4, delta=0.5, seed=3, decoder="joint_typicality")
        eager = generate_codebook(cfg, ch, TWO_LAYER_LAW)
        assert eager.outer_words.dtype == eager.inner_words.dtype == np.uint8
        assert eager.inner_words.nbytes == cfg.K_pub * cfg.M * cfg.n
        wide = ClassicalWiretap.from_marginals(np.full((300, 2), 0.5), np.full((300, 2), 0.5))
        cb = generate_codebook(CodeConfig(n=1, M=64, delta=0.5, seed=1), wide, np.full(300, 1 / 300))
        assert cb.inner_words.dtype == np.uint16 and cb.inner_words.max() > 255
        assert cb.outer_words.dtype == np.uint8
        monkeypatch.setattr(wt, "EAGER_WORD_LIMIT", 16)
        lazy = generate_codebook(cfg, ch, TWO_LAYER_LAW)
        assert lazy.is_lazy and lazy.outer_words.dtype == lazy.inner_block(3, 0, 8).dtype == np.uint8
        assert lazy.word(2, 5).dtype == np.uint8 and np.array_equal(lazy.inner_block(3, 0, 8), eager.inner_words[3])

    def test_channel_outputs_take_the_smallest_dtype(self):
        """Bob's and Eve's outputs come from ``_symbols`` in the smallest dtype of their alphabet, with the values
        of a draw into intp."""
        rng = np.random.default_rng(4)
        for size_b in (2, 3, 300):
            cuts = wt._thresholds(np.cumsum(rng.dirichlet(np.ones(size_b), size=2), axis=1))
            a = rng.integers(0, 2, size=500).astype(np.uint8)
            u = rng.random(a.size)
            b = wt._channel_outputs(cuts, a, u)
            assert b.dtype == np.min_scalar_type(size_b - 1)
            want = wt._symbols((u * 2.0 ** 53).astype(np.uint64), cuts[:, a], np.empty(a.size, dtype=np.intp))
            assert np.array_equal(b, want)

    def test_per_message_parts_equal_one_law_per_outer_word(self):
        """thresholds, window center (compared with ==), log2 acceptance and all_typical of every k are those of
        a freshly built PrunedDistribution, on random laws with zero-probability symbols."""
        rng = np.random.default_rng(6)
        seen = set()
        for _ in range(40):
            rows, q, n, K = int(rng.integers(1, 4)), int(rng.integers(2, 4)), int(rng.integers(1, 13)), 12
            table = _random_two_layer_law(rng, rows, q)
            outer = rng.integers(0, rows, size=(K, n))
            delta = float(rng.uniform(0.05, 1.5))
            try:
                laws = [wt.PrunedDistribution(table=table, outer_words=[x], delta=delta) for x in outer]
            except ConfigurationError:
                with pytest.raises(ConfigurationError):
                    wt.PrunedDistribution(table, outer, delta)
                continue
            parts = wt.PrunedDistribution(table, outer, delta)
            h_rows = np.array([(r[r > 0] * -np.log2(r[r > 0])).sum() for r in table])
            for k, law in enumerate(laws):
                assert np.array_equal(parts.thresholds(k), law.thresholds(0))
                assert parts.entropy[k] == law.entropy[0] == float(h_rows[outer[k]].sum() / n)
                assert parts.log2_acceptance[k] == law.log2_acceptance[0]
                assert parts.all_typical[k] == law.all_typical[0]
                seen.add(bool(law.all_typical[0]))
        assert seen == {False, True}

    @pytest.mark.parametrize("K", [1, 16, 300])
    @pytest.mark.parametrize("M", [1, 5])
    def test_one_call_equals_one_law_per_public_message(self, K, M):
        """The rejecting law (acceptance below 1) draws the same words as the per-k reference."""
        ch = ClassicalWiretap.from_marginals(np.array([[0.9, 0.1], [0.5, 0.5], [0.2, 0.8]]), np.full((3, 2), 0.5))
        law = (np.array([0.5, 0.5]), np.array([[0.7, 0.3, 0.0], [0.1, 0.2, 0.7]]))
        cfg = CodeConfig(n=12, M=M, K_pub=K, delta=0.4, seed=8)
        cb = generate_codebook(cfg, ch, law)
        assert cb.record.acceptance_inner < 1
        # k + 1 copies of x: public message k draws from row k on its own stream
        want = np.stack([wt._generate_words(wt.PrunedDistribution(table=law[1], outer_words=[x] * (k + 1),
                                                                  delta=cfg.delta), cfg.seed,
                                            wt._TAG_INNER, k, np.arange(M, dtype=np.int64))
                         for k, x in enumerate(cb.outer_words)])
        assert _digest(cb.inner_words) == _digest(want)

    def test_lazy_jt_decode_builds_no_law(self, monkeypatch):
        ch = ClassicalWiretap.bsc_pair(0.05, 0.5)
        cfg = CodeConfig(n=24, M=3000, K_pub=2, delta=0.4, seed=4, decoder="joint_typicality")
        monkeypatch.setattr(wt, "EAGER_WORD_LIMIT", 1000)
        cb = generate_codebook(cfg, ch, TWO_LAYER_LAW)
        assert cb.is_lazy
        built = []
        init = wt.PrunedDistribution.__post_init__
        monkeypatch.setattr(wt.PrunedDistribution, "__post_init__", lambda self: built.append(1) or init(self))
        rng = np.random.default_rng(0)
        for _ in range(3):
            a = cb.word(1, int(rng.integers(cfg.M)))
            decode(wt._channel_outputs(ch.cuts_main, a, rng.random(a.size)), cb, cfg, ch)
        assert built == []


class TestRowScores:
    """``_row_scores`` sums the values of the 2-D gather ``table[words, b[None, :]].sum(axis=1)``
    in the same order, so the scores are equal to the last bit, -inf and +inf entries included."""

    @staticmethod
    def _tables(rng, q):
        noisy = rng.standard_normal((q, q))  # order-sensitive sums
        with np.errstate(divide="ignore"):
            ml = np.log(np.array([[0.9, 0.1, 0.0], [0.0, 0.5, 0.5], [0.3, 0.0, 0.7]])[:q, :q])
            jt = -np.log2(np.array([[0.3, 0.0, 0.1], [0.2, 0.2, 0.0], [0.0, 0.1, 0.1]])[:q, :q])
        return {"noisy": noisy, "ML": ml, "JT": jt, "MC": ml.T.copy()}

    @pytest.mark.parametrize("n, count", [(1, 5), (40, 3), (40, 5000), (7, 20000), (128, 513)])
    def test_equals_the_2d_gather(self, n, count):
        rng = np.random.default_rng(n * 100003 + count)
        words = rng.integers(0, 3, size=(count, n))
        b = rng.integers(0, 3, size=n)
        for name, table in self._tables(rng, 3).items():
            want = table[words, b[None, :]].sum(axis=1)
            got = wt._row_scores(table[:, b].T, words)
            assert np.array_equal(got, want), name

    def test_two_layer_columns_equal_the_3d_gather(self):
        rng = np.random.default_rng(4)
        n, count = 24, 3001
        v = rng.standard_normal((2, 3, 3))
        v[0, 1, 2] = np.inf
        x, b = rng.integers(0, 2, size=n), rng.integers(0, 3, size=n)
        words = rng.integers(0, 3, size=(count, n))
        want = v[x[None, :], words, b[None, :]].sum(axis=1)
        assert np.array_equal(wt._row_scores(v[x, :, b], words), want)

    def test_block_boundaries_do_not_change_scores(self, monkeypatch):
        rng = np.random.default_rng(5)
        n = 9
        words = rng.integers(0, 2, size=(50, n))
        b = rng.integers(0, 2, size=n)
        table = rng.standard_normal((2, 2))
        want = table[words, b[None, :]].sum(axis=1)
        # 50 rows: 1-row blocks, 7-row blocks with a short tail, one block, one clipped block
        for block_rows in (1, 7, 50, 64):
            monkeypatch.setattr(wt, "_BLOCK_SYMBOLS", n * block_rows)
            assert np.array_equal(wt._row_scores(table[:, b].T, words), want)


class TestCountScores:
    """Monte-Carlo log-likelihoods from joint-type counts: Σ_(e, a) N_ae·log p(e|a), N_ae by popcount."""

    P_EVE = np.array([[0.6, 0.3, 0.1], [0.15, 0.25, 0.6], [0.5, 0.0, 0.5]])  # |A| = |E| = 3, one zero entry

    @staticmethod
    def _scores(p_eve, words, outs):
        logs = [[math.log(p) if p > 0 else -math.inf for p in row] for row in p_eve.tolist()]
        return wt._count_scores(logs, wt._symbol_masks(words, p_eve.shape[0]), wt._symbol_masks(outs, p_eve.shape[1]))

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
    def test_equals_the_gather_across_word_edges(self, n):
        """Within 1e-12 of ``log p(e|a)[words, e].sum(-1)``, on either side of each 64-bit word edge, and -inf
        exactly where a position has p(e|a) = 0."""
        rng = np.random.default_rng(n)
        words, outs = rng.integers(0, 3, size=(40, n)).astype(np.uint8), rng.integers(0, 3, size=(9, n))
        words[:20] %= 2  # half the words never hold a = 2, whose p(1|a) = 0: their scores are finite
        with np.errstate(divide="ignore"):
            want = np.log(self.P_EVE)[words[None], outs[:, None]].sum(axis=-1)
        got = self._scores(self.P_EVE, words, outs)
        assert got.shape == (9, 40) and np.array_equal(np.isinf(got), np.isinf(want))
        finite = np.isfinite(want)
        assert finite.any() and np.max(np.abs(got[finite] - want[finite])) <= 1e-12

    def test_words_of_one_joint_type_score_the_same_bits(self):
        """Shuffling a word's symbols among the positions where the output holds the same value keeps the joint
        type, and so every bit of the score; a gather would add the same values in another order."""
        rng = np.random.default_rng(3)
        n = 100
        p_eve = rng.dirichlet(np.ones(3), size=3)
        out, word = rng.integers(0, 3, size=(1, n)), rng.integers(0, 3, size=n)
        twins = np.tile(word, (20, 1))
        for twin in twins[1:]:
            for e in range(3):
                at = np.flatnonzero(out[0] == e)
                twin[at] = rng.permutation(twin[at])
        scores = self._scores(p_eve, twins, out)[0]
        assert len({s.hex() for s in scores.tolist()}) == 1

    @pytest.mark.parametrize("block", [1, 64, 200])
    def test_row_and_column_blocks_change_no_bit(self, block, monkeypatch):
        """The masks pack rows, and the counts go over columns, in blocks of about ``_BLOCK_SYMBOLS``."""
        rng = np.random.default_rng(block)
        words, outs = rng.integers(0, 3, size=(50, 70)), rng.integers(0, 3, size=(6, 70))
        want = self._scores(self.P_EVE, words, outs)
        monkeypatch.setattr(wt, "_BLOCK_SYMBOLS", block)
        assert self._scores(self.P_EVE, words, outs).tobytes() == want.tobytes()

    def test_masks_pack_each_symbol_into_whole_words(self):
        words = np.array([[0, 1, 2] * 22, [2] * 66])
        masks = wt._symbol_masks(words, 3)
        assert masks.shape == (3, 2, 2) and masks.dtype == np.uint64
        assert np.array_equal(np.bitwise_count(masks).sum(axis=-1), [[22, 0], [22, 0], [22, 66]])
        assert masks[2, 1, 1] == 0b11  # positions 64 and 65, then padding


def _ml_book(words, q):
    """An eager codebook over the (K, M, n) words on the alphabet 0 .. q-1, without generation."""
    K, M, n = words.shape
    return Codebook(config=CodeConfig(n=n, M=M, K_pub=K, delta=3.0), outer_p=np.ones(1),
                    cond_table=np.full((1, q), 1.0 / q), outer_words=np.zeros((K, n), dtype=np.uint8),
                    inner_words=words, record=wt.GenerationRecord(acceptance_inner=1.0))


class TestMLDecode:
    """ML decodes come from exact joint-type counts plus a numpy rescoring of the words within the slack of the
    best count score (``_ml_argmax``), so they equal the first argmax of ``log p[words, b].sum(-1)``, near-ties
    included."""

    @staticmethod
    def _channels(rng, qa, qb):
        """p(b|a) tables: Dirichlet, Dirichlet with entries near 1e-300, with zero entries, and a symmetric one,
        whose many words of one score but different joint types round differently."""
        dirichlet = rng.dirichlet(np.ones(qb), size=qa)
        tiny = dirichlet.copy()
        tiny[rng.random((qa, qb)) < 0.4] = 1e-300 * rng.uniform(0.5, 2.0)
        zeros = dirichlet.copy()
        zeros[rng.random((qa, qb)) < 0.4] = 0.0
        zeros[np.arange(qa), rng.integers(qb, size=qa)] += 0.1  # each row keeps a positive entry
        symmetric = np.full((qa, qb), 0.1)
        symmetric[np.arange(qa), np.arange(qa) % qb] = 0.9
        return {name: t / t.sum(axis=1, keepdims=True)
                for name, t in (("dirichlet", dirichlet), ("tiny", tiny), ("zeros", zeros), ("symmetric", symmetric))}

    @staticmethod
    def _brute_force_ml(cb, ch, b):
        with np.errstate(divide="ignore"):
            ll = np.log(ch.p_main)[cb.inner_words, b].sum(axis=-1)
        return divmod(int(np.argmax(ll.ravel())), cb.inner_words.shape[1])

    @pytest.mark.parametrize("n", list(range(1, 18)) + [40, 63, 64, 65, 127, 128])
    def test_decodes_equal_the_brute_force_argmax(self, n):
        """Every n up to 17 runs numpy's 8-way unrolled row sum through each of its tail lengths."""
        rng = np.random.default_rng(n)
        for qa, qb in product((1, 2, 3, 5), (1, 2, 3)):
            words = rng.integers(0, qa, size=(3, 40, n)).astype(np.uint8)
            words[1, 7] = words[0, 3]  # a repeated word: a tie that only the first maximum breaks
            cb = _ml_book(words, qa)
            cfg = cb.config
            for name, p_main in self._channels(rng, qa, qb).items():
                ch = ClassicalWiretap.from_marginals(p_main, np.ones((qa, 1)))
                for t in range(8):
                    a = words[1, 7] if t == 0 else words[rng.integers(3), rng.integers(40)]
                    # received words from the channel, and arbitrary ones, which may be impossible for every word
                    b = (wt._channel_outputs(ch.cuts_main, a, rng.random(n)) if t < 6 else
                         rng.integers(0, qb, size=n))
                    assert decode(b, cb, cfg, ch) == self._brute_force_ml(cb, ch, b), (qa, qb, name, t)

    @pytest.mark.parametrize("n", [1, 7, 8, 40, 63, 64, 65, 127, 128])
    def test_the_slack_covers_the_filter_and_row_sum_rounding(self, n):
        """The filter score f, accumulated as ``_ml_argmax`` does from exact joint-type counts, differs from numpy's
        row sum by a per-b constant plus an error: between two feasible words the errors differ by less than the
        slack, and a word with a position of probability 0 scores more than the slack below every feasible word."""
        rng = np.random.default_rng(1000 + n)
        for qa, qb in ((2, 2), (3, 3), (5, 2), (2, 3)):
            words = rng.integers(0, qa, size=(400, n))
            for name, p_main in self._channels(rng, qa, qb).items():
                ch = ClassicalWiretap.from_marginals(p_main, np.ones((qa, 1)))
                log_p, coef_a, coef_ab, max_abs, _ = ch._ml_tables
                slack = 2.0 ** -46 * n * max_abs * (n + log_p.size)
                b = rng.integers(0, qb, size=n)
                f = np.zeros(len(words))
                for beta, a in product(range(1, qb), range(1, qa)):
                    f += ((words == a) & (b == beta)).sum(axis=1, dtype=np.uint8) * coef_ab[a - 1, beta - 1]
                for a in range(1, qa):
                    f += (words == a).sum(axis=1, dtype=np.uint8) * coef_a[a - 1]
                with np.errstate(divide="ignore"):
                    sums = log_p[words, b].sum(axis=1)
                feasible = np.isfinite(sums)
                err = f[feasible] - sums[feasible]
                if err.size:
                    assert err.max() - err.min() < slack, (qa, qb, name)
                    assert (f[~feasible] < f[feasible].min() - slack).all(), (qa, qb, name)

    def test_a_word_no_codeword_can_produce_decodes_to_0_0(self):
        """Every word scores -inf: b = 1 needs a = 0 and b = 2 needs a = 1, and no word is 011."""
        ch = ClassicalWiretap.from_marginals(np.array([[0.5, 0.5, 0.0], [0.5, 0.0, 0.5]]), np.ones((2, 1)))
        words = np.array([[[1, 1, 0], [0, 0, 1], [1, 0, 1]], [[1, 0, 0], [0, 0, 0], [0, 1, 0]]], dtype=np.uint8)
        cb = _ml_book(words, 2)
        b = np.array([1, 2, 2])
        assert decode(b, cb, cb.config, ch) == (0, 0) == self._brute_force_ml(cb, ch, b)
        b = np.array([1, 2, 1])  # only the last word, 010, can produce it
        assert decode(b, cb, cb.config, ch) == (1, 2) == self._brute_force_ml(cb, ch, b)

    def test_of_two_words_at_the_least_distance_the_higher_float_sum_wins(self):
        """The tie rule as it stands: two words at Hamming distance 3 from b, of different joint types, whose
        log-likelihood sums round differently; ML returns the later one, whose sum rounds higher. Its joint-type
        score rounds lower than the first word's, so a filter without the slack would return the first."""
        ch = ClassicalWiretap.bsc_pair(0.05, 0.2)
        b = np.array([int(c) for c in "0001110111000001001101001100000011010000"])
        words = np.tile(b, (3, 1))
        words[0, [11, 21, 25]] ^= 1
        words[1, [1, 6, 14]] ^= 1
        words[2, :8] ^= 1
        cb = _ml_book(words[None].astype(np.uint8), 2)
        sums = np.log(ch.p_main)[words, b].sum(axis=-1)
        assert sums[1] > sums[0] and np.isclose(sums[0], sums[1], rtol=1e-15, atol=0)
        assert decode(b, cb, cb.config, ch) == (0, 1) == self._brute_force_ml(cb, ch, b)

    @pytest.mark.parametrize("block", [1, 7, 40, 119, 120, 121])
    def test_word_blocks_change_no_decode(self, block, monkeypatch):
        """The filter goes over the words in blocks of ``_BLOCK_SYMBOLS``: 120 words in many blocks, in one block
        with one word left over, in exactly one, and in one clipped block."""
        rng = np.random.default_rng(block)
        words = rng.integers(0, 3, size=(2, 60, 70)).astype(np.uint8)
        cb = _ml_book(words, 3)
        ch = ClassicalWiretap.from_marginals(rng.dirichlet(np.ones(2), size=3), np.ones((3, 1)))
        bs = [wt._channel_outputs(ch.cuts_main, words[i % 2, i], rng.random(70)) for i in range(12)]
        want = [decode(b, cb, cb.config, ch) for b in bs]
        monkeypatch.setattr(wt, "_BLOCK_SYMBOLS", block)
        assert [decode(b, cb, cb.config, ch) for b in bs] == want == [self._brute_force_ml(cb, ch, b) for b in bs]

    def _check_decodes(self, cb, cfg, ch, seed):
        rng = np.random.default_rng(seed)
        for _ in range(50):
            k, p = int(rng.integers(cfg.K_pub)), int(rng.integers(cfg.M))
            a = cb.word(k, p)
            b = wt._channel_outputs(ch.cuts_main, a, rng.random(a.size))
            assert decode(b, cb, cfg, ch) == self._brute_force_ml(cb, ch, b)

    def test_ml_decodes_match_brute_force(self):
        ch = ClassicalWiretap.bsc_pair(0.15, 0.3)
        single = CodeConfig(n=21, M=300, delta=0.5, seed=2)
        self._check_decodes(generate_codebook(single, ch, np.array([0.7, 0.3])), single, ch, 0)
        two = CodeConfig(n=21, M=32, K_pub=6, delta=0.5, seed=3)
        cb = generate_codebook(two, ch, TWO_LAYER_LAW)
        self._check_decodes(cb, two, ch, 1)
        kept = expurgate(cb, [0.3, 0.1, 0.5, 0.0, 0.2, 0.4])  # keeps k = 1, 3, 4: new words, new masks
        assert kept._type_masks is not cb._type_masks
        self._check_decodes(kept, kept.config, ch, 2)


class TestEncryption:
    """The pad's inverse is the one the security code applies inline, m = (p - s) mod M."""

    def test_reference_values(self):
        assert encrypt(2, 3, 4) == 1
        assert (1 - 3) % 4 == 2

    def test_round_trip_exhaustive(self):
        M = 8
        for m in range(M):
            for s in range(M):
                assert (encrypt(m, s, M) - s) % M == m

    def test_injectivity_conditions(self):
        M, S = 8, 4
        for m in range(M):
            outs = {encrypt(m, s, M) for s in range(S)}
            assert len(outs) == S  # injective in s for fixed m
        for s in range(S):
            outs = {encrypt(m, s, M) for m in range(M)}
            assert len(outs) == M  # injective in m for fixed s

    def test_range_checks(self):
        with pytest.raises(ValidationError):
            encrypt(4, 0, 4)
        with pytest.raises(ValidationError):
            encrypt(0, 9, 4)


@pytest.mark.parametrize("fields, message", [
    ({"n": 0}, "n must lie in [1, 128]"), ({"n": 129}, "n must lie in [1, 128]"),
    ({"S": 5}, "need 1 <= S <= M, got S=5, M=4"), ({"K_pub": 0}, "K_pub must be >= 1"),
    ({"decoder": "MAP"}, "decoder must be one of ('ML', 'joint_typicality')"), ({"trials": 0}, "trials must be >= 1"),
    ({"seed": -1}, "seed must be a nonnegative integer"),
], ids=["n-0", "n-129", "S-above-M", "K_pub-0", "unknown-decoder", "trials-0", "negative-seed"])
def test_code_config_rejects(fields, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        CodeConfig(**{"n": 8, "M": 4, **fields})


@pytest.mark.parametrize("fields", [
    {"S": 1.5}, {"n": 8.0}, {"M": 4.5}, {"K_pub": 2.0}, {"trials": 2.5}, {"seed": 1.0}, {"K_pub": True}, {"seed": "3"},
], ids=["S-1.5", "n-8.0", "M-4.5", "K_pub-2.0", "trials-2.5", "seed-1.0", "K_pub-bool", "seed-str"])
def test_code_config_rejects_counts_that_are_not_integers(fields):
    """A fractional or float count names no code: S = 1.5 used to reach security_distance as an IndexError,
    and n = 8.0 or M = 4.5 codegen as a TypeError. numpy integers are integers; bool is not."""
    name = next(iter(fields))
    with pytest.raises(ValidationError, match=f"{name} must be an integer"):
        CodeConfig(**{"n": 8, "M": 4, **fields})
    cfg = CodeConfig(n=np.int64(8), M=np.uint16(4), S=np.int32(2), K_pub=np.int8(2), trials=np.int64(3), seed=np.uint64(5))
    assert cfg.rate_key == 1 / 8


NOISY = ClassicalWiretap.from_marginals(bsc(0.05), bsc(0.3))
UNIFORM2 = np.array([0.5, 0.5])


class TestCodebookGeneration:
    def test_reproducible_from_seed(self):
        cfg = CodeConfig(n=8, M=4, S=1, delta=0.5, seed=21)
        a = generate_codebook(cfg, NOISY, UNIFORM2)
        b = generate_codebook(cfg, NOISY, UNIFORM2)
        assert np.array_equal(a.inner_words, b.inner_words)

    def test_all_words_typical(self):
        cfg = CodeConfig(n=12, M=32, S=1, delta=0.3, seed=2)
        cb = generate_codebook(cfg, NOISY, np.array([0.8, 0.2]))
        pd = pruned_distribution([0.8, 0.2], 12, 0.3)
        assert pd.is_typical(cb.inner_words[0], 0).all()

    def test_lazy_matches_eager(self, monkeypatch):
        cfg = CodeConfig(n=8, M=64, S=1, delta=0.5, seed=9)
        eager = generate_codebook(cfg, NOISY, UNIFORM2)
        monkeypatch.setattr(wt, "EAGER_WORD_LIMIT", 16)
        lazy = generate_codebook(cfg, NOISY, UNIFORM2)
        assert lazy.is_lazy
        assert np.array_equal(lazy.inner_block(0, 0, 64), eager.inner_words[0])
        assert np.array_equal(lazy.word(0, 17), eager.inner_words[0][17])

    @pytest.mark.parametrize("lazy", [False, True], ids=["eager", "lazy"])
    @pytest.mark.parametrize("call", [
        lambda cb: cb.word(0, 20), lambda cb: cb.word(0, 25), lambda cb: cb.word(0, -1), lambda cb: cb.word(-1, 0),
        lambda cb: cb.word(1, 0), lambda cb: cb.inner_block(0, 18, 24), lambda cb: cb.inner_block(0, -2, 3),
        lambda cb: cb.inner_block(0, 5, 4), lambda cb: cb.inner_block(-1, 0, 4),
    ], ids=["word-p-M", "word-p-past-M", "word-p-negative", "word-k-negative", "word-k-K_pub",
            "block-past-M", "block-lo-negative", "block-hi-below-lo", "block-k-negative"])
    def test_indices_outside_the_codebook_are_rejected(self, monkeypatch, lazy, call):
        """Lazy and eager codebooks follow one rule: 0 <= k < K_pub and 0 <= lo <= hi <= M."""
        if lazy:
            monkeypatch.setattr(wt, "EAGER_WORD_LIMIT", 16)
        cfg = CodeConfig(n=8, M=20, delta=0.5, seed=9)
        cb = generate_codebook(cfg, NOISY, UNIFORM2)
        assert cb.is_lazy == lazy
        with pytest.raises(ValidationError, match=re.escape("need 0 <= k < K_pub = 1 and 0 <= lo <= hi <= M = 20")):
            call(cb)
        assert cb.inner_block(0, 20, 20).shape == (0, 8) and cb.inner_block(0, 0, 20).shape == (20, 8)

    @pytest.mark.parametrize("lazy", [False, True], ids=["eager", "lazy"])
    @pytest.mark.parametrize("k, lo, hi", [(1, 0.5, 3.5), (True, 0, 2), (0.5, 0, 4)],
                             ids=["fractional-range", "bool-k", "fractional-k"])
    def test_non_integer_indices_are_rejected(self, monkeypatch, lazy, k, lo, hi):
        """k, lo and hi must be ints or numpy integers, lazy and eager alike; bool is not one."""
        if lazy:
            monkeypatch.setattr(wt, "EAGER_WORD_LIMIT", 16)
        cfg = CodeConfig(n=8, M=20, K_pub=2, delta=0.9, seed=9)
        cb = generate_codebook(cfg, NOISY, TWO_LAYER_LAW)
        assert cb.is_lazy == lazy
        with pytest.raises(ValidationError, match="must be an integer"):
            cb.inner_block(k, lo, hi)
        assert cb.inner_block(np.int64(1), np.uint8(0), 2).shape == (2, 8)

    def test_two_layer_conditionally_typical(self):
        cfg = CodeConfig(n=8, M=2, S=1, K_pub=2, delta=0.9, seed=4)
        law = (np.array([0.5, 0.5]), np.array([[0.8, 0.2], [0.3, 0.7]]))
        cb = generate_codebook(cfg, NOISY, law)
        cond = law[1]
        for k in range(2):
            x = cb.outer_words[k]
            center = float(np.mean([-(cond[xi] * np.log2(cond[xi])).sum() for xi in x]))
            for p in range(2):
                u = cb.inner_words[k][p]
                surpr = float(np.mean([-np.log2(cond[x[i], u[i]]) for i in range(8)]))
                assert abs(surpr - center) <= 0.9 + 1e-12

    @pytest.mark.parametrize("lazy", [False, True])
    def test_a_1d_law_is_the_one_symbol_pair_law(self, monkeypatch, lazy):
        """p and ([1], [p]) give the same codebook: records, words and decodes, eager and lazy."""
        if lazy:
            monkeypatch.setattr(wt, "EAGER_WORD_LIMIT", 16)
        ch = ClassicalWiretap.bsc_pair(0.1, 0.3)
        cfg = CodeConfig(n=12, M=64, S=2, delta=0.4, seed=5)
        p = np.array([0.7, 0.3])
        one, pair = (generate_codebook(cfg, ch, law) for law in (p, ([1.0], [p])))
        assert one.is_lazy == pair.is_lazy == lazy
        assert one.record == pair.record and one.record.acceptance_outer == 1.0
        assert np.array_equal(one.outer_words, pair.outer_words) and not one.outer_words.any()
        assert np.array_equal(one.inner_block(0, 0, cfg.M), pair.inner_block(0, 0, cfg.M))
        rng = np.random.default_rng(0)
        for decoder in ("joint_typicality",) if lazy else wt.DECODERS:
            dcfg = replace(cfg, decoder=decoder)
            for _ in range(20):
                a = one.word(0, int(rng.integers(cfg.M)))
                b = wt._channel_outputs(ch.cuts_main, a, rng.random(a.size))
                assert decode(b, one, dcfg, ch) == decode(b, pair, dcfg, ch)

    def test_window_mass_runs_once_per_type(self):
        """The acceptance of an outer word depends on its type and window center only: 256 binary outer words
        at n = 40, whose rows share one entropy, need at most 41 inner enumerations plus the outer law's, and
        the codebook looks each distinct (type, center) up once, not once per outer word."""
        law = (UNIFORM2, np.array([[0.85, 0.15], [0.15, 0.85]]))
        cfg = CodeConfig(n=40, M=1, K_pub=256, delta=0.2, seed=1)
        wt._window_mass_log2.cache_clear()
        cb = generate_codebook(cfg, NOISY, law)
        info = wt._window_mass_log2.cache_info()
        h_rows = -(law[1] * np.log2(law[1])).sum(axis=1)
        keys = {(int(x.sum()), float(h_rows[x].sum() / cfg.n)) for x in cb.outer_words.astype(np.intp)}
        assert info.misses <= 42 and info.hits == 0 and info.misses == len(keys) + 1

    def test_lazy_two_layer_matches_eager(self, monkeypatch):
        """A lazy two-layer codebook regenerates each public message's words from its outer word: the same
        words, record and joint-typicality error estimate as the eager one."""
        ch = ClassicalWiretap.from_marginals(bsc(0.05), bsc(0.3))
        law = (UNIFORM2, np.array([[0.85, 0.15], [0.15, 0.85]]))
        cfg = CodeConfig(n=16, M=8, K_pub=4, delta=0.25, seed=3, decoder="joint_typicality", trials=40)
        eager = generate_codebook(cfg, ch, law)
        monkeypatch.setattr(wt, "EAGER_WORD_LIMIT", 16)
        lazy = generate_codebook(cfg, ch, law)
        assert lazy.is_lazy and not eager.is_lazy
        assert np.array_equal(lazy.outer_words, eager.outer_words) and lazy.record == eager.record
        for k in range(cfg.K_pub):
            assert np.array_equal(lazy.inner_block(k, 0, cfg.M), eager.inner_words[k])
        est = estimate_error(cfg, ch, lazy)
        assert est == estimate_error(cfg, ch, eager) and 0 < est.failures < cfg.trials

    def test_pigeonhole_collisions_reported(self):
        # only 8 binary words of length 3 exist, so 20 codewords must collide
        cfg = CodeConfig(n=3, M=20, S=1, delta=2.0, seed=6)
        cb = generate_codebook(cfg, NOISY, UNIFORM2)
        assert collisions(cb.inner_words) > 0

    def test_two_layer_needs_pair_law(self):
        cfg = CodeConfig(n=8, M=2, S=1, K_pub=2, delta=0.9, seed=4)
        with pytest.raises(DimensionError):
            generate_codebook(cfg, NOISY, UNIFORM2)

    def test_alphabet_mismatch(self):
        cfg = CodeConfig(n=8, M=2, S=1, delta=0.5, seed=4)
        with pytest.raises(DimensionError):
            generate_codebook(cfg, NOISY, np.array([0.5, 0.3, 0.2]))


class TestDecoding:
    def test_noiseless_exact_recovery(self):
        ch = ClassicalWiretap.from_marginals(noiseless(2), bsc(0.5))
        cfg = CodeConfig(n=10, M=8, S=2, delta=0.5, seed=13)
        cb = generate_codebook(cfg, ch, UNIFORM2)
        assert collisions(cb.inner_words) == 0
        for p in range(8):
            got = decode(cb.word(0, p), cb, cfg, ch)
            assert got == (0, p)

    def test_pure_noise_channel_is_uninformative(self):
        ch = ClassicalWiretap.from_marginals(bsc(0.5), bsc(0.5))
        cfg = CodeConfig(n=10, M=4, S=1, delta=0.5, seed=3, trials=300)
        cb = generate_codebook(cfg, ch, UNIFORM2)
        est = estimate_error(cfg, ch, cb)
        # guessing 1 of K*M = 4 codewords: error rate near 3/4
        assert 0.55 <= est.error <= 0.92

    def test_ml_budget_enforced(self):
        cfg = CodeConfig(n=30, M=1 << 21, S=1, delta=0.3, seed=3, decoder="ML")
        cb = generate_codebook(cfg, NOISY, UNIFORM2)
        assert cb.is_lazy
        with pytest.raises(BudgetError, match="ML"):
            decode(np.zeros(30, dtype=np.intp), cb, cfg, NOISY)

    def test_ml_on_a_lazy_codebook_is_a_budget_error(self, monkeypatch):
        """The in-memory limit alone decides: 20 words past a limit of 16 leave ML nothing to score."""
        monkeypatch.setattr(wt, "EAGER_WORD_LIMIT", 16)
        cfg = CodeConfig(n=8, M=20, S=1, delta=0.5, seed=9, trials=5)
        cb = generate_codebook(cfg, NOISY, UNIFORM2)
        assert cb.is_lazy
        with pytest.raises(BudgetError, match="ML"):
            decode(cb.word(0, 3), cb, cfg, NOISY)
        with pytest.raises(BudgetError, match="ML"):
            estimate_error(cfg, NOISY, cb)
        assert decode(cb.word(0, 3), cb, replace(cfg, decoder="joint_typicality"), NOISY) in ((0, 3), None)

    def test_jt_decoder_recovers_below_capacity(self):
        ch = ClassicalWiretap.from_marginals(bsc(0.02), bsc(0.5))
        cfg = CodeConfig(n=24, M=8, S=1, delta=0.35, seed=8, decoder="joint_typicality", trials=60)
        cb = generate_codebook(cfg, ch, UNIFORM2)
        est = estimate_error(cfg, ch, cb)
        assert est.error <= 0.35

    def test_jt_full_scan_at_the_budget_returns(self):
        """A lazy codebook of exactly JT_SCAN_BUDGET words is scanned to the end
        without a budget error; one word more runs out of budget."""
        ch = ClassicalWiretap.from_marginals(noiseless(2), bsc(0.5))
        b = np.ones(5, dtype=np.intp)  # atypical for [0.8, 0.2], so no codeword matches it
        for M, raises in ((wt.JT_SCAN_BUDGET, False), (wt.JT_SCAN_BUDGET + 1, True)):
            cfg = CodeConfig(n=5, M=M, S=1, delta=0.05, seed=3, decoder="joint_typicality")
            cb = generate_codebook(cfg, ch, np.array([0.8, 0.2]))
            assert cb.is_lazy
            if raises:
                with pytest.raises(BudgetError, match="scan budget"):
                    decode(b, cb, cfg, ch)
            else:
                assert decode(b, cb, cfg, ch) is None

    def test_jt_budget_on_a_lazy_two_layer_codebook(self, monkeypatch):
        """Three public messages of M = 70,000 words, past one 65,536-word chunk: the budget is checked where a
        block ends a chunk or a message, on the words of the messages scanned so far, and never after the last
        block. b = 1^5 is atypical for every inner word (each holds one 1), so no block has a hit."""
        ch = ClassicalWiretap.from_marginals(noiseless(2), bsc(0.5))
        law = (UNIFORM2, np.array([[0.8, 0.2], [0.8, 0.2]]))
        cfg = CodeConfig(n=5, M=70_000, K_pub=3, S=1, delta=0.05, seed=3, decoder="joint_typicality")
        monkeypatch.setattr(wt, "EAGER_WORD_LIMIT", 16)
        cb = generate_codebook(cfg, ch, law)
        assert cb.is_lazy
        blocks, jt_block = [], wt._jt_block

        def recorded(cb, k, lo, hi, *args):
            blocks.append((k, lo, hi))
            return jt_block(cb, k, lo, hi, *args)

        monkeypatch.setattr(wt, "_jt_block", recorded)
        b = np.ones(5, dtype=np.intp)
        every = [(k, lo, min(lo + wt._JT_BLOCK, cfg.M)) for k in range(3) for lo in range(0, cfg.M, wt._JT_BLOCK)]
        for budget, last in ((cfg.M + 65_536, (1, 61_440, 65_536)),  # reached at the chunk end in message 1
                             (cfg.M + 65_537, (1, 69_632, 70_000)),  # first reached at the end of message 1
                             (2 * cfg.M, (1, 69_632, 70_000)),
                             (2 * cfg.M + 1, (2, 61_440, 65_536))):
            monkeypatch.setattr(wt, "JT_SCAN_BUDGET", budget)
            blocks.clear()
            with pytest.raises(BudgetError, match="scan budget"):
                decode(b, cb, cfg, ch)
            assert blocks == every[: every.index(last) + 1]
        for budget in (2 * cfg.M + 65_537, 3 * cfg.M):  # reached only after the last block: the scan completes
            monkeypatch.setattr(wt, "JT_SCAN_BUDGET", budget)
            blocks.clear()
            assert decode(b, cb, cfg, ch) is None
            assert blocks == every

    def test_lazy_jt_stops_at_the_block_of_the_second_hit(self, monkeypatch):
        """A lazy decode that finds two window hits generates the words up to the end of the block that holds
        the second one, once each, and decodes as the eager codebook of the same words does; every block, eager,
        lazy or staged, goes through the one JT block function."""
        ch = ClassicalWiretap.from_marginals(bsc(0.05), bsc(0.3))
        cfg = CodeConfig(n=16, M=1 << 17, delta=0.1, seed=4, decoder="joint_typicality")
        eager = generate_codebook(cfg, ch, UNIFORM2)
        monkeypatch.setattr(wt, "EAGER_WORD_LIMIT", 16)
        lazy = generate_codebook(cfg, ch, UNIFORM2)
        assert lazy.is_lazy
        v, h = wt._jt_tables(eager, ch)
        blocks, jt_block = [], wt._jt_block

        def recorded(cb, k, lo, hi, *args):
            blocks.append((k, lo, hi))
            return jt_block(cb, k, lo, hi, *args)

        monkeypatch.setattr(wt, "_jt_block", recorded)
        rng = np.random.default_rng(0)
        past_the_first_block = 0
        for _ in range(5):
            a = eager.word(0, int(rng.integers(cfg.M)))
            b = wt._channel_outputs(ch.cuts_main, a, rng.random(a.size))
            rate = v[0][eager.inner_words[0], b].sum(axis=1) / cfg.n
            second = np.nonzero(np.abs(rate - h) <= cfg.delta + 1e-12)[0][1]
            blocks.clear()
            assert decode(b, lazy, cfg, ch) is None
            assert decode(b, eager, cfg, ch) is None
            lazy_blocks = blocks[: len(blocks) // 2]  # the eager decode slices the same blocks
            assert lazy_blocks == blocks[len(blocks) // 2:]
            ends = [hi for _, _, hi in lazy_blocks]
            assert [lo for _, lo, _ in lazy_blocks] == [0] + ends[:-1]  # each word once, in order
            assert second < ends[-1] <= second + wt._JT_BLOCK
            past_the_first_block += second >= wt._JT_BLOCK
        assert past_the_first_block >= 3

    def test_two_layer_jt_matches_a_brute_force_window_scan(self):
        """Two-layer JT decoding returns the unique (k, p) whose triple (x, u, b) surprisal rate
        lies in the window, and None for zero or several such candidates."""
        ch = ClassicalWiretap.from_marginals(bsc(0.1), bsc(0.5))
        law = (np.array([0.5, 0.5]), np.array([[0.85, 0.15], [0.15, 0.85]]))
        cfg = CodeConfig(n=12, M=8, K_pub=4, delta=0.25, seed=6, decoder="joint_typicality")
        cb = generate_codebook(cfg, ch, law)
        q = law[0][:, None, None] * law[1][:, :, None] * ch.p_main[None, :, :]
        h = float(-(q[q > 0] * np.log2(q[q > 0])).sum())
        outcomes = {"hit": 0, "none": 0}
        rng = np.random.default_rng(0)
        for _ in range(60):
            k, p = int(rng.integers(4)), int(rng.integers(8))
            a = cb.word(k, p)
            b = wt._channel_outputs(ch.cuts_main, a, rng.random(a.size))
            hits = []
            for kk in range(4):
                x = cb.outer_words[kk]
                for pp in range(8):
                    rate = float(-np.log2(q[x, cb.word(kk, pp), b]).sum()) / cfg.n
                    if abs(rate - h) <= cfg.delta + 1e-12:
                        hits.append((kk, pp))
            want = hits[0] if len(hits) == 1 else None
            assert decode(b, cb, cfg, ch) == want
            outcomes["hit" if want else "none"] += 1
        assert min(outcomes.values()) > 0

    def test_ml_ties_go_to_the_first_index_pair(self):
        """Equal likelihoods resolve to the first (k, p) in (k, p) order, also when every score is -inf."""
        ch = ClassicalWiretap.from_marginals(noiseless(2), bsc(0.5))  # log p(b|a) is 0 or -inf per symbol
        cfg = CodeConfig(n=4, M=3, K_pub=2, delta=3.0, seed=0)
        words = np.array([[[0, 1, 1, 0], [1, 1, 0, 0], [0, 1, 1, 0]],
                          [[1, 1, 0, 0], [0, 1, 1, 0], [1, 1, 1, 1]]])
        cb = Codebook(config=cfg, outer_p=UNIFORM2, cond_table=np.eye(2),
                      outer_words=np.zeros((2, 4), dtype=np.intp), inner_words=words,
                      record=wt.GenerationRecord(acceptance_inner=1.0))
        assert decode([0, 1, 1, 0], cb, cfg, ch) == (0, 0)
        assert decode([1, 1, 0, 0], cb, cfg, ch) == (0, 1)
        assert decode([1, 1, 1, 1], cb, cfg, ch) == (1, 2)
        assert decode([0, 0, 0, 1], cb, cfg, ch) == (0, 0)

    def test_ml_on_a_law_with_a_tiny_negative_entry(self):
        """1 - 0.9 - 0.1 = -2.8e-17 passes validation; it is stored as 0, so words through that
        transition score -inf and cannot win (a NaN score would win argmax). Results from the
        release that mapped NaN scores to -inf."""
        pb = np.array([[0.9, 0.1, 1 - 0.9 - 0.1], [0.1, 0.1, 0.8]])
        assert pb[0, 2] < 0
        ch = ClassicalWiretap.from_marginals(pb, np.ones((2, 1)))
        assert ch.p_joint.min() == 0.0
        cfg = CodeConfig(n=3, M=3, K_pub=2, delta=3.0, seed=0)
        words = np.array([[[0, 0, 0], [1, 1, 1], [0, 1, 1]], [[0, 0, 1], [1, 0, 1], [0, 1, 0]]])
        cb = Codebook(config=cfg, outer_p=UNIFORM2, cond_table=np.eye(2),
                      outer_words=np.zeros((2, 3), dtype=np.intp), inner_words=words,
                      record=wt.GenerationRecord(acceptance_inner=1.0))
        for b, want in (([2, 0, 2], (1, 1)), ([0, 0, 2], (1, 0)), ([0, 2, 2], (0, 2)),
                        ([2, 2, 2], (0, 1)), ([0, 0, 0], (0, 0))):
            assert decode(b, cb, cfg, ch) == want

    def test_jt_ambiguity_is_failure(self):
        # two identical codewords make every decode ambiguous
        ch = ClassicalWiretap.from_marginals(noiseless(2), bsc(0.5))
        cfg = CodeConfig(n=4, M=2, S=1, delta=3.0, seed=0, decoder="joint_typicality")
        cb = generate_codebook(cfg, ch, UNIFORM2)
        dup = Codebook(config=cfg, outer_p=cb.outer_p, cond_table=cb.cond_table,
                       outer_words=cb.outer_words, inner_words=np.repeat(cb.inner_words[:, :1], 2, axis=1),
                       record=cb.record)
        assert decode(dup.word(0, 0), dup, cfg, ch) is None

    @pytest.mark.parametrize("decoder", wt.DECODERS)
    def test_malformed_received_words_are_rejected(self, decoder):
        """A word with a tail, a short or 2-D word, fractional symbols and symbols outside [0, |B|) name no
        channel output: none is decoded by truncation, and none is a raw IndexError or a ragged-array ValueError."""
        cfg = CodeConfig(n=16, M=64, delta=0.5, seed=2, decoder=decoder)
        cb = generate_codebook(cfg, NOISY, UNIFORM2)
        w = cb.word(0, 5)
        assert decode(w, cb, cfg, NOISY) in ((0, 5), None)
        for bad in (np.concatenate([w, w[:8]]), w[:-1], w[None], np.array([], dtype=np.intp), [[0, 1], [1]]):
            with pytest.raises(DimensionError, match="received word"):
                decode(bad, cb, cfg, NOISY)
        for bad in (w + 0.5, w.astype(float), np.where(np.arange(16) == 3, 2, w), np.where(np.arange(16) == 3, -1, w)):
            with pytest.raises(ValidationError, match="received word"):
                decode(bad, cb, cfg, NOISY)


TERNARY = np.array([[0.9, 0.05, 0.05], [0.05, 0.9, 0.05], [0.05, 0.05, 0.9]])
#: (channel, law, code fields, decode δ) of the staged-scan equality test; the two-layer laws are all-typical at
#: the codebooks' δ = 1.0 and decoded at δ = 0.25, and only "small messages" has blocks under _JT_STAGE_MIN words.
STAGED_CASES = {
    "uniform binary": (NOISY, UNIFORM2, dict(n=20, M=1 << 12, delta=0.3), 0.3),
    "ternary input": (ClassicalWiretap.from_marginals(TERNARY, TERNARY), np.full(3, 1 / 3),
                      dict(n=14, M=1 << 12, delta=0.3), 0.3),
    "two-layer": (NOISY, (UNIFORM2, np.array([[0.3, 0.7], [0.7, 0.3]])), dict(n=22, M=1 << 12, K_pub=4, delta=1.0),
                  0.25),
    "small messages": (NOISY, (UNIFORM2, np.array([[0.3, 0.7], [0.7, 0.3]])),
                       dict(n=22, M=1 << 9, K_pub=8, delta=1.0), 0.25),
    "not all-typical": (NOISY, np.array([0.8, 0.2]), dict(n=20, M=1 << 12, delta=0.4), 0.4),
    "noiseless main channel": (ClassicalWiretap.from_marginals(noiseless(2), bsc(0.3)), UNIFORM2,
                               dict(n=14, M=1 << 12, delta=0.3), 0.3),
}


class TestStagedJT:
    """Lazy JT blocks of an all-typical message are drawn in stages and drop the words that cannot reach the
    window; every hit, None and budget error stays that of the whole-word scan."""

    @staticmethod
    def _hashed(monkeypatch):
        """A counter of the symbols ``_hash_symbols`` draws and of the words the JT blocks cover."""
        count = {"symbols": 0, "words": 0}
        hash_symbols, jt_block = wt._hash_symbols, wt._jt_block

        def counted_hash(keys, positions, thresholds, rnd, out, scratch=None):
            count["symbols"] += out.size
            return hash_symbols(keys, positions, thresholds, rnd, out, scratch)

        def counted_block(cb, k, lo, hi, *args):
            count["words"] += hi - lo
            return jt_block(cb, k, lo, hi, *args)

        monkeypatch.setattr(wt, "_hash_symbols", counted_hash)
        monkeypatch.setattr(wt, "_jt_block", counted_block)
        return count

    @pytest.mark.parametrize("case", STAGED_CASES)
    def test_lazy_decodes_equal_eager_decodes(self, monkeypatch, case):
        """110 received words per case, 660 in all: the lazy decode equals the eager one of the same seed, hits
        and Nones both occur, and only an all-typical law with blocks of _JT_STAGE_MIN words or more draws fewer
        symbols than its scan covers."""
        ch, law, fields, delta = STAGED_CASES[case]
        cfg = CodeConfig(seed=5, decoder="joint_typicality", **fields)
        eager = generate_codebook(cfg, ch, law)
        monkeypatch.setattr(wt, "EAGER_WORD_LIMIT", 16)
        lazy = generate_codebook(cfg, ch, law)
        assert lazy.is_lazy and not eager.is_lazy
        cfg = replace(cfg, delta=delta)
        rng = np.random.default_rng(0)
        received = []
        for _ in range(110):
            a = eager.word(int(rng.integers(cfg.K_pub)), int(rng.integers(cfg.M)))
            received.append(wt._channel_outputs(ch.cuts_main, a, rng.random(a.size)))
        want = [decode(b, eager, cfg, ch) for b in received]
        count = self._hashed(monkeypatch)
        assert [decode(b, lazy, cfg, ch) for b in received] == want
        assert {got is None for got in want} == {True, False}
        staged = bool(lazy.inner_law.all_typical.all()) and cfg.M >= wt._JT_STAGE_MIN
        assert staged == (case not in ("not all-typical", "small messages"))
        assert (count["symbols"] < count["words"] * cfg.n) == staged

    def test_a_score_within_1e_12_of_the_window_edge_still_hits(self, monkeypatch):
        """The received word matches word p after its first ceil(n/4) positions, where it has the least score any
        word can have, and δ puts p's score just above the upper window edge, inside the 1e-12 widening: the
        partial score of p then meets its stage bound to the rounding, and p still hits."""
        monkeypatch.setattr(wt, "EAGER_WORD_LIMIT", 16)
        cfg = CodeConfig(n=16, M=1 << 12, delta=0.3, seed=3, decoder="joint_typicality")
        cb = generate_codebook(cfg, NOISY, UNIFORM2)
        v, h = wt._jt_tables(cb, NOISY)
        for p in (5, 777, 4000):
            b = cb.word(0, p).astype(np.intp)
            b[:2] ^= 1  # two flips in the first stage; the rest matches, at the smallest surprisal
            cols = v[cb.outer_words[0], :, b]
            dev = float(wt._row_scores(cols, cb.word(0, p)[None])[0]) / cfg.n - h
            assert dev > 0
            for gap in (0.0, 4e-13, 9e-13):
                in_window, low, high = wt._jt_window(cfg.n, h, dev - gap)
                stages = wt._jt_stages(cols, low, high, [4, 8])  # the stage ends ceil(n/4) and ceil(n/2)
                lo = p // wt._JT_BLOCK * wt._JT_BLOCK
                hits, _ = wt._jt_block(cb, 0, lo, lo + wt._JT_BLOCK, cols, in_window, stages)
                unstaged, _ = wt._jt_block(cb, 0, lo, lo + wt._JT_BLOCK, cols, in_window, [])
                assert p - lo in hits
                assert np.array_equal(hits, unstaged)

    def test_a_word_scoring_on_a_window_edge_stays_within_the_stage_bounds(self):
        """2,000 random (16, 2) score tables: for each stage end i, a word random before i and at each later
        position's least value scores exactly the upper edge as ``_row_scores`` sums it, and one at the largest
        values the lower edge. Its partial score over [0, i), summed forward or backward, lies within the stage's
        bounds; without the slack about a third of the upper-edge words would drop out."""
        rng = np.random.default_rng(1)
        for _ in range(2000):
            cols = rng.random((16, 2)) * 3
            for i in (4, 8):
                for pick, edges in ((np.argmin, lambda s: (s - 5.0, s)), (np.argmax, lambda s: (s, s + 5.0))):
                    word = rng.integers(0, 2, 16).astype(np.uint8)
                    word[i:] = pick(cols[i:], axis=1)
                    low, high = edges(float(wt._row_scores(cols, word[None])[0]))
                    [(_, floor, ceil)] = wt._jt_stages(cols, low, high, [i])
                    terms = [cols[j, word[j]] for j in range(i)]
                    for partial in (sum(terms), sum(terms[::-1])):
                        assert floor <= partial <= ceil

    def test_a_stage_that_prunes_little_is_left_out_of_the_later_messages(self, monkeypatch):
        """BSC(0.2), n = 21, δ = 0.01: the window holds no attainable score, so the scan covers all four public
        messages and finds no hit. The stage at ceil(n/4) = 6 drops no word of the first block and is left out of
        the later messages; the one at ceil(n/2) = 11 drops most words and stays."""
        ch = ClassicalWiretap.bsc_pair(0.2, 0.5)
        law = (UNIFORM2, np.full((2, 2), 0.5))
        cfg = CodeConfig(n=21, M=1 << 12, K_pub=4, delta=0.01, seed=5, decoder="joint_typicality")
        eager = generate_codebook(cfg, ch, law)
        monkeypatch.setattr(wt, "EAGER_WORD_LIMIT", 16)
        lazy = generate_codebook(cfg, ch, law)
        cuts, jt_stages = [], wt._jt_stages

        def recorded(cols, low, high, ends):
            cuts.append(list(ends))
            return jt_stages(cols, low, high, ends)

        monkeypatch.setattr(wt, "_jt_stages", recorded)
        a = eager.word(1, 7)
        b = wt._channel_outputs(ch.cuts_main, a, np.random.default_rng(0).random(a.size))
        assert decode(b, eager, cfg, ch) is None and not cuts
        assert decode(b, lazy, cfg, ch) is None
        assert cuts == [[6, 11], [11], [11], [11]]

    def test_the_full_scan_hashes_under_half_of_its_symbols(self, monkeypatch):
        """The first seed-7 trial of a BSC(0.05), uniform-source, n = 40, δ = 0.3 code of 2^20 + 1 lazy words
        scans them all to find its one hit, and draws fewer than half of their 40·M symbols."""
        ch = ClassicalWiretap.bsc_pair(0.05, 0.5)
        cfg = CodeConfig(n=40, M=2 ** 20 + 1, delta=0.3, seed=7, decoder="joint_typicality", trials=1)
        cb = generate_codebook(cfg, ch, UNIFORM2)
        assert cb.is_lazy
        count = self._hashed(monkeypatch)
        k, p, got = wt._run_trial(cb, cfg, ch, np.random.default_rng(np.random.SeedSequence([7, wt._TAG_TRIAL, 0])))
        assert got == (k, p)
        assert count["words"] == cfg.M
        assert count["symbols"] < cfg.n * cfg.M / 2


class TestEstimateError:
    def test_noiseless_is_exactly_zero(self):
        ch = ClassicalWiretap.from_marginals(noiseless(2), bsc(0.5))
        cfg = CodeConfig(n=10, M=8, S=4, delta=0.5, seed=17, trials=120)
        cb = generate_codebook(cfg, ch, UNIFORM2)
        est = estimate_error(cfg, ch, cb)
        assert est.error == 0.0 and est.failures == 0

    def test_deterministic_given_seed(self):
        cfg = CodeConfig(n=16, M=16, S=2, delta=0.3, seed=23, trials=80)
        cb = generate_codebook(cfg, NOISY, UNIFORM2)
        a = estimate_error(cfg, NOISY, cb)
        b = estimate_error(cfg, NOISY, cb)
        assert a == b

    def test_ci_brackets_estimate(self):
        cfg = CodeConfig(n=12, M=32, S=1, delta=0.4, seed=29, trials=60)
        ch = ClassicalWiretap.from_marginals(bsc(0.2), bsc(0.5))
        cb = generate_codebook(cfg, ch, UNIFORM2)
        est = estimate_error(cfg, ch, cb)
        assert est.ci_low <= est.error <= est.ci_high


# scipy.special.betaincinv intervals (scipy 1.17.1), recorded so that this module needs no scipy:
# (n, conf): ((x, ci_low, ci_high), ...)
BETAINCINV_CI = {
    (1, 0.9): (
        (0, 0.0, 0.95),
        (1, 0.04999999999999999, 1.0),
    ),
    (1, 0.95): (
        (0, 0.0, 0.975),
        (1, 0.025000000000000022, 1.0),
    ),
    (1, 0.99): (
        (0, 0.0, 0.995),
        (1, 0.0050000000000000044, 1.0),
    ),
    (2, 0.9): (
        (0, 0.0, 0.776393202250021),
        (1, 0.025320565519103604, 0.9746794344808963),
        (2, 0.22360679774997894, 1.0),
    ),
    (2, 0.95): (
        (0, 0.0, 0.841886116991581),
        (1, 0.01257911709342506, 0.9874208829065749),
        (2, 0.15811388300841903, 1.0),
    ),
    (2, 0.99): (
        (0, 0.0, 0.9292893218813452),
        (1, 0.0025031328369998357, 0.9974968671630001),
        (2, 0.07071067811865478, 1.0),
    ),
    (7, 0.9): (
        (0, 0.0, 0.34816365513116077),
        (1, 0.0073008319790147, 0.5207029735913071),
        (2, 0.053375500470237175, 0.658738563844664),
        (3, 0.12875639280424267, 0.7746784159675522),
        (4, 0.2253215840324477, 0.8712436071957572),
        (5, 0.34126143615533594, 0.9466244995297628),
        (6, 0.47929702640869287, 0.9926991680209853),
        (7, 0.6518363448688391, 1.0),
    ),
    (7, 0.95): (
        (0, 0.0, 0.40961639722500337),
        (1, 0.0036102968619005863, 0.5787231970431952),
        (2, 0.036692566176085566, 0.7095791362626572),
        (3, 0.09898827844250789, 0.8159484323599169),
        (4, 0.18405156764008307, 0.9010117215574921),
        (5, 0.29042086373734277, 0.9633074338239145),
        (6, 0.42127680295680486, 0.9963897031380994),
        (7, 0.5903836027749967, 1.0),
    ),
    (7, 0.99): (
        (0, 0.0, 0.5308827214564584),
        (1, 0.0007158210811255038, 0.6849116392467302),
        (2, 0.01584432942877072, 0.797027604296698),
        (3, 0.05529934998056629, 0.882296248331048),
        (4, 0.11770375166895199, 0.9447006500194337),
        (5, 0.20297239570330203, 0.9841556705712293),
        (6, 0.31508836075326985, 0.9992841789188744),
        (7, 0.46911727854354157, 1.0),
    ),
    (60, 0.9): (
        (0, 0.0, 0.04870291331009749),
        (1, 0.0008545229269492078, 0.07663999493450441),
        (6, 0.04445296776894623, 0.18785738198898227),
        (20, 0.23303698490236113, 0.44646564446522585),
        (30, 0.38741096301586847, 0.6125890369841316),
        (40, 0.5535343555347743, 0.766963015097639),
        (59, 0.9233600050654955, 0.9991454770730508),
        (60, 0.9512970866899025, 1.0),
    ),
    (60, 0.95): (
        (0, 0.0, 0.05962949228616691),
        (1, 0.00042187445234200915, 0.08939905005748702),
        (6, 0.037591269108566035, 0.20505773670806393),
        (20, 0.21686944543117034, 0.4668726747428306),
        (30, 0.368062031942437, 0.631937968057563),
        (40, 0.5331273252571693, 0.7831305545688296),
        (59, 0.910600949942513, 0.999578125547658),
        (60, 0.9403705077138331, 1.0),
    ),
    (60, 0.99): (
        (0, 0.0, 0.08451865273329552),
        (1, 8.353887415964587e-05, 0.11740730260131872),
        (6, 0.026388859827469538, 0.24060457200247007),
        (20, 0.18702028602019966, 0.5068206043489516),
        (30, 0.3311877259380896, 0.6688122740619105),
        (40, 0.4931793956510484, 0.8129797139798003),
        (59, 0.8825926973986813, 0.9999164611258403),
        (60, 0.9154813472667045, 1.0),
    ),
    (300, 0.9): (
        (0, 0.0, 0.009936081944457708),
        (1, 0.00017096303211345718, 0.01571455489158395),
        (30, 0.07290080342559266, 0.13318849424629184),
        (100, 0.288277486085384, 0.3808648781421272),
        (150, 0.45100875470879354, 0.5489912452912065),
        (200, 0.6191351218578728, 0.7117225139146159),
        (299, 0.9842854451084161, 0.9998290369678865),
        (300, 0.9900639180555423, 1.0),
    ),
    (300, 0.95): (
        (0, 0.0, 0.01222097469429355),
        (1, 8.438913231780051e-05, 0.018431252048067885),
        (30, 0.06849168449107344, 0.13967330735510228),
        (100, 0.28020484552950536, 0.38979241293949785),
        (150, 0.44199772080801636, 0.5580022791919836),
        (200, 0.6102075870605022, 0.7197951544704946),
        (299, 0.9815687479519322, 0.9999156108676822),
        (300, 0.9877790253057065, 1.0),
    ),
    (300, 0.99): (
        (0, 0.0, 0.017506015484986304),
        (1, 1.6708333159394305e-05, 0.024503362561757443),
        (30, 0.06037750528672636, 0.1528259334159354),
        (100, 0.2647105096224729, 0.4073698969546801),
        (150, 0.4244724358342021, 0.575527564165798),
        (200, 0.5926301030453198, 0.7352894903775271),
        (299, 0.9754966374382426, 0.9999832916668406),
        (300, 0.9824939845150137, 1.0),
    ),
    (399, 0.9): (
        (0, 0.0, 0.007479985554768396),
        (1, 0.00012854635973378014, 0.011833750453181508),
        (39, 0.0743276980854468, 0.12573177081523468),
        (133, 0.2942786356550771, 0.3742403238073263),
        (199, 0.4564301626847004, 0.5410774680173636),
        (266, 0.6257596761926737, 0.7057213643449229),
        (398, 0.9881662495468185, 0.9998714536402662),
        (399, 0.9925200144452316, 1.0),
    ),
    (399, 0.95): (
        (0, 0.0, 0.009202705423403427),
        (1, 6.345113973410856e-05, 0.013884282476834577),
        (39, 0.07043204280175423, 0.13119395414317345),
        (133, 0.28721251809308596, 0.3819485868186359),
        (199, 0.44860037190785035, 0.5489120816521508),
        (266, 0.6180514131813641, 0.712787481906914),
        (398, 0.9861157175231654, 0.9999365488602658),
        (399, 0.9907972945765966, 1.0),
    ),
    (399, 0.99): (
        (0, 0.0, 0.013191214052876165),
        (1, 1.2562682551359675e-05, 0.018472546250074624),
        (39, 0.06319989070347903, 0.14223702458315626),
        (133, 0.2736085595840304, 0.397119913796865),
        (199, 0.4333549062975497, 0.5641693226682369),
        (266, 0.6028800862031349, 0.7263914404159696),
        (398, 0.9815274537499253, 0.9999874373174487),
        (399, 0.9868087859471238, 1.0),
    ),
    (1000, 0.9): (
        (0, 0.0, 0.002991249545095295),
        (1, 5.12919789090178e-05, 0.004734993575499777),
        (100, 0.0847847676684693, 0.11699153209636791),
        (333, 0.308373901193985, 0.35835736234732873),
        (500, 0.47351773123569124, 0.5264822687643087),
        (666, 0.640626501842622, 0.6906466269766718),
        (999, 0.9952650064245002, 0.999948708021091),
        (1000, 0.9970087504549047, 1.0),
    ),
    (1000, 0.95): (
        (0, 0.0, 0.003682083896865671),
        (1, 2.5317487491294065e-05, 0.005558924279826672),
        (100, 0.08210533435558001, 0.12028793651869263),
        (333, 0.30381780242015766, 0.3631692178520082),
        (500, 0.468549172971792, 0.531450827028208),
        (666, 0.6358119134360835, 0.6952069925690265),
        (999, 0.9944410757201734, 0.9999746825125088),
        (1000, 0.9963179161031344, 1.0),
    ),
    (1000, 0.99): (
        (0, 0.0, 0.005284306039497442),
        (1, 5.01252926077751e-06, 0.007406286938352937),
        (100, 0.07702169542223594, 0.12687986384068906),
        (333, 0.29498905401498543, 0.37262438582155794),
        (500, 0.45885255330704494, 0.5411474466929551),
        (666, 0.626351802110817, 0.7040444398259613),
        (999, 0.992593713061647, 0.9999949874707392),
        (1000, 0.9947156939605025, 1.0),
    ),
}


class TestBinomialCI:
    def test_clopper_pearson_closed_forms(self):
        """x = 0 gives hi = 1 - (α/2)^(1/n); x = n gives lo = (α/2)^(1/n)."""
        for n in (1, 2, 7, 60, 399):
            for alpha in (0.01, 0.05, 0.1):
                edge = (alpha / 2.0) ** (1.0 / n)
                lo, hi = wt._binomial_ci(0, n, conf=1.0 - alpha)
                assert lo == 0.0 and abs(hi - (1.0 - edge)) < 1e-12
                lo, hi = wt._binomial_ci(n, n, conf=1.0 - alpha)
                assert hi == 1.0 and abs(lo - edge) < 1e-12

    def test_interval_brackets_the_rate(self):
        for n in (5, 40, 300):
            for x in range(0, n + 1, max(1, n // 7)):
                lo, hi = wt._binomial_ci(x, n)
                assert 0.0 <= lo <= x / n <= hi <= 1.0

    def test_matches_recorded_betaincinv(self):
        for (n, conf), rows in BETAINCINV_CI.items():
            for x, lo, hi in rows:
                got = wt._binomial_ci(x, n, conf=conf)
                assert abs(got[0] - lo) < 1e-12 and abs(got[1] - hi) < 1e-12, (n, conf, x, got)

    def test_bounds_rise_with_x(self):
        for n in (7, 60, 399):
            bounds = np.array([wt._binomial_ci(x, n) for x in range(n + 1)])
            assert (np.diff(bounds, axis=0) >= 0.0).all()


def security_oracle(cb, cfg, ch):
    """Naive dict-based enumeration of both secrecy metrics (independent path)."""
    p_eve = ch.p_eve
    outcomes = list(product(range(ch.size_e), repeat=cfg.n))

    def dist(word):
        return np.array([math.prod(p_eve[word[i], e[i]] for i in range(cfg.n)) for e in outcomes])

    best_full = best_msg = 0.0
    for k in range(cfg.K_pub):
        per_p = [dist(cb.word(k, p)) for p in range(cfg.M)]
        pbar = sum(per_p) / cfg.M
        for m in range(cfg.M):
            rows = [per_p[encrypt(m, s, cfg.M)] for s in range(cfg.S)]
            full = sum(np.abs(r - pbar).sum() for r in rows) / cfg.S
            msg = np.abs(sum(rows) / cfg.S - pbar).sum()
            best_full = max(best_full, full)
            best_msg = max(best_msg, msg)
    return best_full, best_msg


def broadcast_chain(p_eve, words):
    """Eve's product table grown by one broadcast per position: the reference for the in-place fill."""
    m, n = words.shape
    out = np.ones((m, 1))
    for i in range(n):
        out = (out[:, :, None] * p_eve[words[:, i]][:, None, :]).reshape(m, -1)
    return out


# A three-output Eve on a binary input: a non-square p(e|a).
EVE3 = ClassicalWiretap.from_marginals(bsc(0.1), np.array([[0.6, 0.3, 0.1], [0.15, 0.25, 0.6]]))
TWO_LAYER_LAW = (UNIFORM2, np.array([[0.85, 0.15], [0.15, 0.85]]))
EVE_Z = ClassicalWiretap.from_marginals(bsc(0.05), np.array([[1.0, 0.0], [0.6, 0.4]]))

# Monte-Carlo hex values (full, message, std_err_full, std_err_message), recorded with each message's array
# stream (keys, reference words, then uniforms) and log-likelihoods from joint-type counts; S=8's full criterion,
# 0x1.114e8f4208b4bp+1 as the largest mean, is reported clipped at 2.
MC_CASES = {
    "S=1": (ClassicalWiretap.bsc_pair(0.05, 0.2), dict(n=10, M=16, S=1, delta=0.5, seed=1, trials=120),
            UNIFORM2, None,
            ("0x1.dc8a17c3e6969p+0", "0x1.dc8a17c3e6969p+0", "0x1.0dbb8454c3a44p-2", "0x1.0dbb8454c3a44p-2")),
    "S=8": (ClassicalWiretap.bsc_pair(0.05, 0.2), dict(n=12, M=32, S=8, delta=0.5, seed=2, trials=150),
            UNIFORM2, None,
            ("0x1.0000000000000p+1", "0x1.02035cbf6c931p+0", "0x1.891aeeb529975p-2", "0x1.cc5bd35c24cc2p-5")),
    "S=3": (ClassicalWiretap.bsc_pair(0.05, 0.2), dict(n=10, M=12, S=3, delta=0.5, seed=3, trials=97),
            UNIFORM2, None,
            ("0x1.b377def0fdab1p+0", "0x1.120643b828286p+0", "0x1.e7b49096d4ef1p-3", "0x1.3c10e864ee30ap-4")),
    "two-layer": (ClassicalWiretap.bsc_pair(0.05, 0.2), dict(n=10, M=8, S=4, K_pub=4, delta=0.4, seed=7, trials=60),
                  TWO_LAYER_LAW, None,
                  ("0x1.5f4df77a64c9fp+0", "0x1.394c345f4a2f2p-1", "0x1.9bfe5b0f573b4p-3",
                   "0x1.45c2846ebb4fep-5")),
    "messages": (ClassicalWiretap.bsc_pair(0.05, 0.2), dict(n=9, M=8, S=4, K_pub=4, delta=0.4, seed=5, trials=80),
                 TWO_LAYER_LAW, [(3, 1), (0, 6), (2, 2)],
                 ("0x1.e21b8fbc917d5p-1", "0x1.dff40cf0e1afdp-2", "0x1.b5339cb018286p-4",
                  "0x1.03e3a5dea1b85p-5")),
    "|E|=3": (EVE3, dict(n=8, M=8, S=2, delta=0.9, seed=4, trials=90), UNIFORM2, None,
              ("0x1.a267124050de5p+0", "0x1.21ccd90b32ec6p+0", "0x1.6fb1a95eca626p-3", "0x1.48e6f6342aa00p-4")),
    # p(e=1|a=0) = 0: 3,411 of the 6,400 log-likelihoods are -inf
    "zero-probability": (EVE_Z, dict(n=8, M=8, S=2, delta=0.5, seed=6, trials=100), UNIFORM2, None,
                         ("0x1.4f9da6157e504p+0", "0x1.fc278feee12b4p-1", "0x1.0e3895ad3a8b7p-3",
                          "0x1.10cc2eab7af6ep-4")),
}


def mc_hex(case):
    ch, kw, law, messages, _ = MC_CASES[case]
    cfg = CodeConfig(**kw)
    rep = security_distance(generate_codebook(cfg, ch, law), cfg, ch, mode="monte_carlo", messages=messages)
    return tuple(v.hex() for v in (rep.full_criterion, rep.message_secrecy, rep.std_err_full, rep.std_err_message))


# Exact (seed, n, M, S, full, message) hex values on BSC(0.05)/BSC(0.2). The full criteria equal the whole-table
# formula's; the message secrecies are the running key window's (a full key's mixture is p̄ itself: exactly 0).
EXACT_PINS = [
    (1, 16, 64, 64, "0x1.a3f33cdba73b6p+0", "0x0.0p+0"),
    (7, 16, 64, 1, "0x1.b45f0af703cdfp+0", "0x1.b45f0af703cdfp+0"),
    (1, 12, 32, 8, "0x1.887251c9b8608p+0", "0x1.e01f977763e5cp-1"),
    (7, 10, 64, 5, "0x1.70e1cae798a0fp+0", "0x1.2559aeb4114bfp+0"),
    # S not a power of two: the last bit shows how the key mixture is divided by S
    (1, 12, 32, 3, "0x1.8d71adfa472c4p+0", "0x1.4e352be1a84cep+0"),
    (2, 14, 12, 11, "0x1.830a2981c0e99p+0", "0x1.265e39a4bb302p-3"),
]


TWO_LAYER_PIN = ("0x1.27304039abf36p+0", "0x1.28fefccac15a0p-1")  # n=10, M=8, S=4, K_pub=4, seed 7


def long_double_distances(p_eve, words, S):
    """Σ|w_p − p̄| per row and Σ|(w_m + ··· + w_{m+S-1})/S − p̄| per m, rows mod M, in long double."""
    w = broadcast_chain(p_eve.astype(np.longdouble), words)
    pbar = w.mean(axis=0)
    c = np.cumsum(np.concatenate((np.zeros((1, w.shape[1]), np.longdouble), w, w[: S - 1])), axis=0)
    mix = (c[S: S + len(w)] - c[: len(w)]) / S
    return np.abs(w - pbar).sum(axis=1), np.abs(mix - pbar).sum(axis=1)


def whole_row_distances(cb, cfg, ch):
    """(full, message) maxima from whole (M + S - 1, |E|^n) tables: |w - p̄| and w[m: m + S].mean(axis=0)."""
    M, S = cfg.M, cfg.S
    best_full = best_msg = 0.0
    for k in range(cfg.K_pub):
        w = broadcast_chain(ch.p_eve, cb.inner_block(k, 0, M)[np.arange(M + S - 1) % M])
        pbar = w[:M].mean(axis=0)
        d = np.abs(w[:M] - pbar).sum(axis=1)
        for m in range(M):
            best_full = max(best_full, float(d[(m + np.arange(S)) % M].mean()))
            best_msg = max(best_msg, float(np.abs(w[m: m + S].mean(axis=0) - pbar).sum()))
    return best_full, best_msg


class TestEveProductRows:
    @pytest.mark.parametrize("block", [None, 1, 9 * 5, 9 * 64])
    def test_equals_the_broadcast_chain_for_three_outputs(self, monkeypatch, block):
        """M + S - 1 rows of a non-square |E| = 3 channel; column chunks of 1, 5, 64 and the default."""
        cfg = CodeConfig(n=7, M=6, S=4, delta=0.9, seed=4)
        words = generate_codebook(cfg, EVE3, UNIFORM2).inner_block(0, 0, cfg.M)[np.arange(cfg.M + cfg.S - 1) % cfg.M]
        if block is not None:
            monkeypatch.setattr(wt, "_BLOCK_SYMBOLS", block)
        got = wt._eve_product_rows(EVE3.p_eve, words)
        assert got.shape == (9, 3 ** 7)
        assert got.tobytes() == broadcast_chain(EVE3.p_eve, words).tobytes()

    @pytest.mark.parametrize("n", [1, 2, 11])
    def test_equals_the_broadcast_chain_for_a_binary_eve(self, n):
        p_eve = np.array([[0.7, 0.3], [0.1, 0.9]])
        words = np.random.default_rng(n).integers(0, 2, size=(5, n))
        assert wt._eve_product_rows(p_eve, words).tobytes() == broadcast_chain(p_eve, words).tobytes()


class TestSecurity:
    def test_full_rate_key_message_secrecy_vanishes(self):
        for seed in (1, 2, 3):
            ch = ClassicalWiretap.from_marginals(bsc(0.1), bsc(0.15))
            cfg = CodeConfig(n=6, M=8, S=8, delta=0.8, seed=seed)
            cb = generate_codebook(cfg, ch, UNIFORM2)
            rep = security_distance(cb, cfg, ch, mode="exact")
            assert rep.message_secrecy <= 1e-12

    def test_pure_noise_eve_sees_nothing(self):
        ch = ClassicalWiretap.from_marginals(bsc(0.05), bsc(0.5))
        cfg = CodeConfig(n=6, M=4, S=1, delta=0.8, seed=5)
        cb = generate_codebook(cfg, ch, UNIFORM2)
        rep = security_distance(cb, cfg, ch, mode="exact")
        assert rep.full_criterion <= 1e-12
        assert rep.message_secrecy <= 1e-12

    def test_one_output_eve_sees_nothing(self):
        ch = ClassicalWiretap.from_marginals(bsc(0.1), np.ones((2, 1)))
        cfg = CodeConfig(n=6, M=4, S=2, delta=0.9, seed=3, trials=30)
        cb = generate_codebook(cfg, ch, UNIFORM2)
        for mode in ("exact", "monte_carlo"):
            rep = security_distance(cb, cfg, ch, mode=mode)
            assert (rep.full_criterion, rep.message_secrecy) == (0.0, 0.0)

    def test_noiseless_eve_two_messages(self):
        ch = ClassicalWiretap.from_marginals(bsc(0.05), noiseless(2))
        cfg = CodeConfig(n=6, M=2, S=1, delta=0.8, seed=7)
        cb = generate_codebook(cfg, ch, UNIFORM2)
        assert not np.array_equal(cb.word(0, 0), cb.word(0, 1))
        rep = security_distance(cb, cfg, ch, mode="exact")
        assert abs(rep.message_secrecy - 1.0) <= 1e-12  # 2(1 - 1/M)

    def test_matches_naive_enumeration_oracle(self):
        ch = ClassicalWiretap.from_marginals(bsc(0.1), np.array([[0.7, 0.3], [0.1, 0.9]]))
        cfg = CodeConfig(n=5, M=4, S=2, delta=0.9, seed=11)
        cb = generate_codebook(cfg, ch, UNIFORM2)
        want_full, want_msg = security_oracle(cb, cfg, ch)
        rep = security_distance(cb, cfg, ch, mode="exact")
        assert abs(rep.full_criterion - want_full) < 1e-12
        assert abs(rep.message_secrecy - want_msg) < 1e-12

    @pytest.mark.parametrize("seed, n, M, S, full, msg", EXACT_PINS)
    def test_exact_distances_are_pinned(self, seed, n, M, S, full, msg):
        ch = ClassicalWiretap.bsc_pair(0.05, 0.2)
        cfg = CodeConfig(n=n, M=M, S=S, delta=0.5, seed=seed)
        rep = security_distance(generate_codebook(cfg, ch, UNIFORM2), cfg, ch, mode="exact")
        assert (rep.full_criterion.hex(), rep.message_secrecy.hex()) == (full, msg)

    def test_exact_two_layer_distances_are_pinned(self):
        ch = ClassicalWiretap.bsc_pair(0.05, 0.2)
        cfg = CodeConfig(n=10, M=8, S=4, K_pub=4, delta=0.4, seed=7)
        cb = generate_codebook(cfg, ch, TWO_LAYER_LAW)
        rep = security_distance(cb, cfg, ch, mode="exact")
        assert (rep.full_criterion.hex(), rep.message_secrecy.hex()) == TWO_LAYER_PIN

    @pytest.mark.parametrize("n, M, S", [(20, 16, 1), (16, 64, 64)])
    def test_exact_mode_is_bounded_by_blocks(self, n, M, S):
        """Peak traced memory stays below 8 MiB where the whole (M + S - 1, 2^n) table would take 128 or 63.5 MiB."""
        import tracemalloc

        ch = ClassicalWiretap.bsc_pair(0.05, 0.2)
        cfg = CodeConfig(n=n, M=M, S=S, delta=0.5, seed=3)
        cb = generate_codebook(cfg, ch, UNIFORM2)
        tracemalloc.start()
        try:
            security_distance(cb, cfg, ch, mode="exact")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20 < (M + S - 1) * 2 ** n * 8 / 7

    @staticmethod
    def _block_width(monkeypatch, blocks, n, M):
        width = {"128 columns": 128, "a quarter row": 2 ** (n - 2), "the whole row": 2 ** n}[blocks]
        monkeypatch.setattr(wt, "_BLOCK_SYMBOLS", M * width)
        return width

    @pytest.mark.parametrize("blocks", ["128 columns", "a quarter row", "the whole row"])
    def test_two_product_tables_per_public_message(self, monkeypatch, blocks):
        """Whatever the column blocks, each public message builds its M rows' prefix and suffix tables once."""
        shapes, kernel = [], wt._eve_product_rows

        def spy(p_eve, words):
            table = kernel(p_eve, words)
            shapes.append(table.shape)
            return table

        monkeypatch.setattr(wt, "_eve_product_rows", spy)
        ch, cfg = ClassicalWiretap.bsc_pair(0.05, 0.2), CodeConfig(n=10, M=8, S=4, K_pub=4, delta=0.4, seed=7)
        cb = generate_codebook(cfg, ch, TWO_LAYER_LAW)
        width = self._block_width(monkeypatch, blocks, cfg.n, cfg.M)
        security_distance(cb, cfg, ch, mode="exact", messages=[(3, 1), (0, 6), (3, 5)])
        assert shapes == [(cfg.M, 2 ** cfg.n // width), (cfg.M, width)] * 2

    @pytest.mark.parametrize("blocks", ["128 columns", "a quarter row", "the whole row"])
    def test_block_width_moves_the_pins_by_rounding_only(self, monkeypatch, blocks):
        """The split into prefix ⊗ suffix sets how each product is associated, so narrower blocks may move the
        pins by a few ulps (within 1e-12); one block holding the whole row keeps every bit."""
        tol = 0.0 if blocks == "the whole row" else 1e-12
        ch = ClassicalWiretap.bsc_pair(0.05, 0.2)
        cases = [(CodeConfig(n=n, M=M, S=S, delta=0.5, seed=seed), UNIFORM2, (full, msg))
                 for seed, n, M, S, full, msg in EXACT_PINS]
        cases.append((CodeConfig(n=10, M=8, S=4, K_pub=4, delta=0.4, seed=7), TWO_LAYER_LAW, TWO_LAYER_PIN))
        for cfg, law, pin in cases:
            cb = generate_codebook(cfg, ch, law)
            self._block_width(monkeypatch, blocks, cfg.n, cfg.M)
            rep = security_distance(cb, cfg, ch, mode="exact")
            got, want = (rep.full_criterion, rep.message_secrecy), tuple(map(float.fromhex, pin))
            assert max(abs(g - w) for g, w in zip(got, want)) <= tol, (cfg, got, want)

    @pytest.mark.parametrize("p_eve, n, M, S", [(bsc(0.2), 6, 4096, 2), (bsc(0.2), 6, 4096, 3000),
                                                (bsc(0.2), 8, 2048, 2047), (EVE3.p_eve, 6, 512, 37)],
                             ids=["BSC-S=2", "BSC-S=3000", "BSC-S=M-1", "|E|=3"])
    def test_running_window_matches_a_long_double_table(self, p_eve, n, M, S):
        """Every row and key-mixture distance within 1e-12 of the same formulas over a long-double table, for
        all M messages and for the last three, whose first window already wraps past row M - 1."""
        words = np.random.default_rng(n * M + S).integers(0, p_eve.shape[0], size=(M, n))
        rows, mix = long_double_distances(p_eve, words, S)
        for (lo, hi), want in (((0, M - 1), (rows, mix)), ((M - 3, M - 1), (rows, mix[-3:]))):
            got = wt._exact_distances(p_eve, words, S, range(lo, hi + 1))
            assert [g.shape for g in got] == [w.shape for w in want]
            assert max(np.max(np.abs(g - w)) for g, w in zip(got, want)) <= 1e-12

    @pytest.mark.parametrize("block, exact", [(1, False), (None, False), (1 << 30, True)])
    def test_blocks_of_a_three_output_eve(self, monkeypatch, block, exact):
        """|E| = 3: blocks of 243 columns, of the default size, and one whole-row block. Block sums meet in
        another tree than numpy's pairwise row sum, so blocked values agree with the whole-row formula within
        1e-12, and one block holding the row gives it exactly."""
        cfg = CodeConfig(n=10, M=8, S=3, delta=0.9, seed=4)
        cb = generate_codebook(cfg, EVE3, UNIFORM2)
        want = whole_row_distances(cb, cfg, EVE3)
        if block is not None:
            monkeypatch.setattr(wt, "_BLOCK_SYMBOLS", block)
        rep = security_distance(cb, cfg, EVE3, mode="exact")
        got = (rep.full_criterion, rep.message_secrecy)
        if exact:
            assert got == want
        else:
            assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-12

    @pytest.mark.parametrize("mode", ["exact", "monte_carlo"])
    @pytest.mark.parametrize("K, pair", [(1, (0, 11)), (1, (0, -1)), (1, (3, 0)), (3, (3, 1)), (3, (-1, 2)),
                                         (1, (0, 1.5))],
                             ids=["m past M", "negative m", "k past K_pub 1", "k past K_pub 3", "negative k",
                                  "fractional m"])
    def test_pairs_that_name_no_message_are_rejected(self, mode, K, pair):
        """A pad past M, a negative or fractional index or a public message past K_pub is not a message of the
        codebook."""
        ch, cfg = ClassicalWiretap.bsc_pair(0.05, 0.2), CodeConfig(n=8, M=8, S=2, K_pub=K, delta=0.9, seed=1, trials=20)
        cb = generate_codebook(cfg, ch, UNIFORM2 if K == 1 else TWO_LAYER_LAW)
        with pytest.raises(ValidationError, match=re.escape(f"{pair} does not exist")):
            security_distance(cb, cfg, ch, mode=mode, messages=[(0, 0), pair])

    def test_key_monotonicity(self):
        ch = ClassicalWiretap.from_marginals(bsc(0.1), np.array([[0.8, 0.2], [0.25, 0.75]]))
        for seed in range(4):
            cfg1 = CodeConfig(n=6, M=4, S=1, delta=0.8, seed=seed)
            cb = generate_codebook(cfg1, ch, UNIFORM2)
            cfg_full = CodeConfig(n=6, M=4, S=4, delta=0.8, seed=seed)
            low = security_distance(cb, cfg_full, ch, mode="exact").message_secrecy
            high = security_distance(cb, cfg1, ch, mode="exact").message_secrecy
            assert low <= high + 1e-12

    def test_exact_budget(self):
        ch = ClassicalWiretap.from_marginals(bsc(0.1), bsc(0.2))
        cfg = CodeConfig(n=25, M=2, S=1, delta=0.5, seed=1)
        cb = generate_codebook(cfg, ch, UNIFORM2)
        with pytest.raises(BudgetError):
            security_distance(cb, cfg, ch, mode="exact")

    def test_exact_reaches_n_21_within_the_one_work_limit(self):
        """2^21 outcomes over M + S - 1 = 3 rows is within (M + S - 1)·|E|^n <= 2^24, and the blocked
        distances equal the whole-row formulas bit for bit."""
        ch = ClassicalWiretap.from_marginals(bsc(0.1), bsc(0.2))
        cfg = CodeConfig(n=21, M=2, S=2, delta=0.5, seed=1)
        cb = generate_codebook(cfg, ch, UNIFORM2)
        rep = security_distance(cb, cfg, ch, mode="exact")
        assert (rep.full_criterion, rep.message_secrecy) == whole_row_distances(cb, cfg, ch)

    def test_unknown_mode_is_rejected(self):
        cfg = CodeConfig(n=6, M=4, delta=0.9, seed=1)
        cb = generate_codebook(cfg, NOISY, UNIFORM2)
        with pytest.raises(ValidationError, match=re.escape("mode must be one of ('exact', 'monte_carlo'), got 'mc'")):
            security_distance(cb, cfg, NOISY, mode="mc")

    def test_exact_memory_guard_counts_the_key_rows(self):
        """The work counts M + S - 1 = 17 rows of 2^20 entries, past the 2^24 budget; M·2^20 is not."""
        ch = ClassicalWiretap.from_marginals(bsc(0.1), bsc(0.2))
        cfg = CodeConfig(n=20, M=16, S=2, delta=0.5, seed=1)
        cb = generate_codebook(cfg, ch, UNIFORM2)
        with pytest.raises(BudgetError, match="per-call budget 2\\^24"):
            security_distance(cb, cfg, ch, mode="exact")

    def test_monte_carlo_consistency(self):
        """|exact - estimate| <= 3 standard errors in >= 95% of seeded cases."""
        ch = ClassicalWiretap.from_marginals(bsc(0.1), np.array([[0.75, 0.25], [0.2, 0.8]]))
        hits = 0
        cases = 20
        for seed in range(cases):
            cfg = CodeConfig(n=5, M=4, S=2, delta=0.9, seed=seed, trials=500)
            cb = generate_codebook(cfg, ch, UNIFORM2)
            exact = security_distance(cb, cfg, ch, mode="exact")
            mc = security_distance(cb, cfg, ch, mode="monte_carlo")
            ok_full = abs(exact.full_criterion - mc.full_criterion) <= 3 * max(mc.std_err_full, 1e-12)
            ok_msg = abs(exact.message_secrecy - mc.message_secrecy) <= 3 * max(mc.std_err_message, 1e-12)
            hits += ok_full and ok_msg
        assert hits >= 0.95 * cases

    @pytest.mark.parametrize("case", list(MC_CASES))
    def test_monte_carlo_values_are_pinned(self, case):
        assert mc_hex(case) == MC_CASES[case][-1]

    def test_monte_carlo_maximum_is_clipped_at_2(self):
        """On the benchmark's mc-n32 setting 27 of the 64 per-message means exceed 2, the largest L1 distance, and
        the largest is 4.38 (message 54): the report says 2, with message 54's standard error. Clipping each mean
        before the maximum would tie 27 messages at 2 and report the first one's."""
        ch = ClassicalWiretap.bsc_pair(0.05, 0.2)
        cfg = CodeConfig(n=32, M=64, S=1, delta=0.5, seed=7, trials=200)
        rep = security_distance(generate_codebook(cfg, ch, UNIFORM2), cfg, ch, mode="monte_carlo")
        assert rep.full_criterion == rep.message_secrecy == 2.0
        assert rep.std_err_full.hex() == rep.std_err_message.hex() == "0x1.dda360209c845p-1"

    @pytest.mark.parametrize("per", [1, 7, 97])
    def test_monte_carlo_trial_blocks_change_no_bit(self, monkeypatch, per):
        """97 trials scored one at a time, in 7-trial blocks with a short tail, and in one block."""
        monkeypatch.setattr(wt, "_BLOCK_SYMBOLS", per * 12)  # M·⌈n/64⌉ = 12 count words per trial, above n = 10
        assert mc_hex("S=3") == MC_CASES["S=3"][-1]

    @pytest.mark.parametrize("case", ["S=3", "two-layer", "|E|=3"])
    def test_monte_carlo_follows_the_array_stream(self, case):
        """Each message's stream draws its (T,) keys, then its (T,) reference words, then the (T, n) uniforms;
        the estimates equal those of likelihoods taken directly as products of p(e|a) (n <= 12), within 1e-11."""
        ch, kw, law, messages, _ = MC_CASES[case]
        cfg = CodeConfig(**kw)
        cb = generate_codebook(cfg, ch, law)
        T, M, S = cfg.trials, cfg.M, cfg.S
        for k, m in messages or [(k, m) for k in range(cfg.K_pub) for m in range(M)]:
            rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, wt._TAG_SECURITY, k, m]))
            keys, refs = rng.integers(S, size=T), rng.integers(M, size=T)
            words = cb.inner_block(k, 0, M)
            e = wt._channel_outputs(ch.cuts_eve, words[refs], rng.random((T, cfg.n)))
            lik = ch.p_eve[words[None], e[:, None]].prod(axis=-1)  # (T, M)
            pbar, mine = lik.mean(axis=1), lik[:, (m + np.arange(S)) % M]
            rep = security_distance(cb, cfg, ch, mode="monte_carlo", messages=[(k, m)])
            for got, ratio in ((rep.full_criterion, mine[np.arange(T), keys] / pbar),
                               (rep.message_secrecy, mine.mean(axis=1) / pbar)):
                assert abs(got - np.abs(ratio - 1.0).mean()) <= 1e-11

    def test_monte_carlo_on_an_eve_with_zero_entries(self):
        """p(e|a) = 0 makes log-likelihoods -inf, never NaN: every estimate is finite and no RuntimeWarning is
        raised. One message at a time, an estimate is unbiased: it lands within 3 standard errors of exact in at
        least 19 of 20 seeded cases."""
        ch = ClassicalWiretap.from_marginals(bsc(0.1), np.array([[0.7, 0.3, 0.0], [0.0, 0.3, 0.7]]))
        hits = 0
        for seed, m in product(range(5), range(4)):
            cfg = CodeConfig(n=5, M=4, S=2, delta=0.9, seed=seed, trials=500)
            cb = generate_codebook(cfg, ch, UNIFORM2)
            exact = security_distance(cb, cfg, ch, mode="exact", messages=[(0, m)])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                mc = security_distance(cb, cfg, ch, mode="monte_carlo", messages=[(0, m)])
            assert all(math.isfinite(v) for v in (mc.full_criterion, mc.message_secrecy, mc.std_err_full,
                                                  mc.std_err_message))
            hits += (abs(exact.full_criterion - mc.full_criterion) <= 3 * max(mc.std_err_full, 1e-12)
                     and abs(exact.message_secrecy - mc.message_secrecy) <= 3 * max(mc.std_err_message, 1e-12))
        assert hits >= 19

    @pytest.mark.parametrize("ms", [[0], [0, 63], [3, 4, 5, 40], [0, 2, 4, 6, 62], [10, 20, 30, 31, 32, 63]])
    def test_sparse_probes_agree_with_the_full_window(self, ms):
        """Each run of consecutive probed m gets its own window: the key-mixture distances of the probed m
        agree with those of one window over all M within 1e-12, and the row distances keep every bit."""
        p_eve = bsc(0.2)
        words = np.random.default_rng(len(ms)).integers(0, 2, size=(64, 10))
        for S in (2, 7, 64):
            rows, mix = wt._exact_distances(p_eve, words, S, range(64))
            got_rows, got_mix = wt._exact_distances(p_eve, words, S, ms)
            assert got_rows.tobytes() == rows.tobytes() and got_mix.shape == (len(ms),)
            assert np.max(np.abs(got_mix - mix[ms])) <= 1e-12

    @pytest.mark.parametrize("mode", ["exact", "monte_carlo"])
    def test_an_empty_message_list_is_rejected(self, mode):
        """No pair probed is no maximum: not a perfect 0.0 (exact) nor -inf (Monte-Carlo)."""
        ch, cfg = ClassicalWiretap.bsc_pair(0.05, 0.2), CodeConfig(n=8, M=8, S=2, delta=0.9, seed=1, trials=20)
        cb = generate_codebook(cfg, ch, UNIFORM2)
        with pytest.raises(ValidationError, match="messages is empty"):
            security_distance(cb, cfg, ch, mode=mode, messages=[])

    @pytest.mark.parametrize("mode", ["exact", "monte_carlo"])
    def test_reports_the_messages_probed(self, mode):
        ch = ClassicalWiretap.bsc_pair(0.05, 0.2)
        single = CodeConfig(n=6, M=8, S=2, delta=0.9, seed=1, trials=20)
        cb = generate_codebook(single, ch, UNIFORM2)
        assert security_distance(cb, single, ch, mode=mode).messages_probed == 8
        subset = security_distance(cb, single, ch, mode=mode, messages=[(0, 5), (0, 2), (0, 5)])
        assert subset.messages_probed == 2  # distinct pairs: a repeated pair adds no new mean to the maximum
        two = CodeConfig(n=6, M=4, S=2, K_pub=3, delta=0.9, seed=2, trials=20)
        cb = generate_codebook(two, ch, TWO_LAYER_LAW)
        assert security_distance(cb, two, ch, mode=mode).messages_probed == 12
        assert security_distance(cb, two, ch, mode=mode, messages=iter([(2, 1), (1, 3)])).messages_probed == 2

    @pytest.mark.parametrize("mode", ["exact", "monte_carlo"])
    @pytest.mark.parametrize("entry", [(0,), (0, 1, 2), 0, "01", ("0", 1), (0, 1.0), (False, 1), (0, None)],
                             ids=["one index", "three indices", "a bare index", "a string", "a string index",
                                  "a float index", "a bool index", "None"])
    def test_entries_that_are_not_a_pair_of_integers_are_rejected(self, mode, entry):
        """Each entry is checked before it is unpacked or compared, and the error names it."""
        ch, cfg = ClassicalWiretap.bsc_pair(0.05, 0.2), CodeConfig(n=8, M=8, S=2, delta=0.9, seed=1, trials=20)
        cb = generate_codebook(cfg, ch, UNIFORM2)
        with pytest.raises(ValidationError, match=re.escape(f"(k, m) = {entry!r} does not exist")):
            security_distance(cb, cfg, ch, mode=mode, messages=[(0, 0), entry])

    def test_monte_carlo_probes_each_distinct_pair_once(self, monkeypatch):
        """Repeats are dropped in first-seen order: each pair is estimated once, as in exact mode, and the report
        is the one of the distinct pairs, in the same order, to the bit."""
        ch, cfg = ClassicalWiretap.bsc_pair(0.05, 0.2), CodeConfig(n=8, M=8, S=2, delta=0.9, seed=1, trials=20)
        cb = generate_codebook(cfg, ch, UNIFORM2)
        assert wt._check_messages([(0, 5), (0, 2), (0, 5), (0, np.int64(2))], cfg) == [(0, 5), (0, 2)]
        calls, kernel = [], wt._count_scores
        monkeypatch.setattr(wt, "_count_scores", lambda *args: calls.append(1) or kernel(*args))
        reports = [security_distance(cb, cfg, ch, mode="monte_carlo", messages=messages)
                   for messages in ([(0, 5), (0, 2)], [(0, 5), (0, 2), (0, 5), (0, 2)])]
        assert len(calls) == 4  # one trial block per pair and call
        assert reports[0] == reports[1] and reports[1].messages_probed == 2

    def test_monte_carlo_deterministic(self):
        ch = ClassicalWiretap.from_marginals(bsc(0.1), bsc(0.2))
        cfg = CodeConfig(n=5, M=4, S=2, delta=0.9, seed=3, trials=200)
        cb = generate_codebook(cfg, ch, UNIFORM2)
        a = security_distance(cb, cfg, ch, mode="monte_carlo")
        b = security_distance(cb, cfg, ch, mode="monte_carlo")
        assert a == b


class TestExpurgation:
    def _codebook(self, K=4):
        cfg = CodeConfig(n=8, M=2, S=1, K_pub=K, delta=0.9, seed=31)
        law = (np.full(2, 0.5), np.array([[0.8, 0.2], [0.2, 0.8]]))
        return cfg, generate_codebook(cfg, NOISY, law)

    def test_keeps_best_half(self):
        _, cb = self._codebook()
        out = expurgate(cb, [0.0, 0.0, 1.0, 1.0])
        assert out.record.expurgation["kept"] == [0, 1]
        assert out.config.K_pub == 2
        assert np.array_equal(out.inner_words, cb.inner_words[:2])

    def test_ties_keep_lowest_indices(self):
        _, cb = self._codebook()
        out = expurgate(cb, [0.5, 0.5, 0.5, 0.5])
        assert out.record.expurgation["kept"] == [0, 1]

    def test_rate_loss_reported(self):
        cfg, cb = self._codebook()
        out = expurgate(cb, [0.1, 0.4, 0.3, 0.2])
        assert abs(out.record.expurgation["rate_loss_public"] - math.log2(2) / cfg.n) < 1e-12

    def test_markov_bound(self, rng):
        for _ in range(25):
            scores = rng.random(8)
            cfg = CodeConfig(n=8, M=2, S=1, K_pub=8, delta=0.9, seed=37)
            law = (np.full(2, 0.5), np.array([[0.8, 0.2], [0.2, 0.8]]))
            cb = generate_codebook(cfg, NOISY, law)
            out = expurgate(cb, scores)
            kept = out.record.expurgation["kept"]
            # direct recomputation: the worst kept score obeys the Markov bound
            assert scores[kept].max() <= 2.0 * scores.mean() + 1e-12

    @pytest.mark.parametrize("scores", [[0.1, 0.2, 0.3], [[0.1, 0.2, 0.3, 0.4]]], ids=["too-short", "2-D"])
    def test_one_score_per_public_message(self, scores):
        _, cb = self._codebook()
        with pytest.raises(DimensionError, match="need one error score per public message"):
            expurgate(cb, scores)

    def test_single_message_warns(self):
        cfg = CodeConfig(n=8, M=4, S=1, delta=0.9, seed=41)
        cb = generate_codebook(cfg, NOISY, UNIFORM2)
        with pytest.warns(UserWarning):
            out = expurgate(cb, [0.5])
        assert out is cb

    def test_collisions_are_counted_from_the_kept_words(self):
        cfg = CodeConfig(n=5, M=16, S=1, K_pub=4, delta=0.9, seed=2)
        cb = generate_codebook(cfg, NOISY, (np.full(2, 0.5), np.array([[0.8, 0.2], [0.2, 0.8]])))
        assert collisions(cb.inner_words) == 27
        out = expurgate(cb, [0.0, 1.0, 1.0, 0.0])
        assert out.record.expurgation["kept"] == [0, 3]
        assert collisions(out.inner_words) == 15

    def test_per_message_errors_feed_expurgation(self):
        cfg, cb = self._codebook()
        cfg = replace(cfg, trials=20)
        pub, priv = per_message_errors(cfg, NOISY, cb)
        out = expurgate(cb, pub + priv)
        assert out.config.K_pub == 2


@pytest.mark.parametrize("call, message", [
    (lambda cb, cfg: security_distance(cb, cfg, NOISY, mode="exact"), "probing all (k, m) pairs needs an eager"),
    (lambda cb, cfg: security_distance(cb, cfg, NOISY, mode="monte_carlo", messages=[(0, 1)]),
     "Monte-Carlo security needs every inner word"),
    (lambda cb, cfg: expurgate(cb, [0.1, 0.2]), "expurgation needs an eagerly materialized codebook"),
], ids=["all-pairs", "monte-carlo", "expurgate"])
def test_what_needs_the_words_in_memory_is_a_budget_error_on_a_lazy_codebook(monkeypatch, call, message):
    """K_pub·M = 40 words past a limit of 16; exact security on the pairs given still runs."""
    monkeypatch.setattr(wt, "EAGER_WORD_LIMIT", 16)
    cfg = CodeConfig(n=6, M=20, S=2, K_pub=2, delta=0.9, seed=5, trials=10)
    cb = generate_codebook(cfg, NOISY, TWO_LAYER_LAW)
    assert cb.is_lazy
    with pytest.raises(BudgetError, match=re.escape(message)):
        call(cb, cfg)
    assert security_distance(cb, cfg, NOISY, mode="exact", messages=[(1, 3)]).messages_probed == 1


class TestConfigMatchesCodebook:
    """n, M and K_pub index the codebook, so a cfg that differs in them is rejected; S, δ, seed, decoder
    and trials are settings of the run (``TestSecurity.test_key_monotonicity`` runs an S = 1 codebook at S = 4)."""

    def _codebook(self):
        cfg = CodeConfig(n=8, M=64, S=1, delta=0.5, seed=3, trials=10)
        return cfg, generate_codebook(cfg, NOISY, UNIFORM2)

    def test_decode_with_fewer_messages(self):
        cfg, cb = self._codebook()
        with pytest.raises(ValidationError, match="M=32"):
            decode(cb.word(0, 40), cb, replace(cfg, M=32), NOISY)

    def test_estimate_error_on_an_expurgated_codebook(self):
        cfg = CodeConfig(n=8, M=2, S=1, K_pub=4, delta=0.9, seed=31, trials=10)
        cb = generate_codebook(cfg, NOISY, (np.full(2, 0.5), np.array([[0.8, 0.2], [0.2, 0.8]])))
        kept = expurgate(cb, [0.0, 0.0, 1.0, 1.0])
        with pytest.raises(ValidationError, match="K_pub=4"):
            estimate_error(cfg, NOISY, kept)
        assert estimate_error(kept.config, NOISY, kept).trials == 10

    @pytest.mark.parametrize("field, value", [("n", 9), ("M", 65), ("K_pub", 2)])
    def test_every_entry_point_names_the_field(self, field, value):
        cfg, cb = self._codebook()
        bad = replace(cfg, **{field: value})
        for call in (lambda: per_message_errors(bad, NOISY, cb), lambda: estimate_error(bad, NOISY, cb),
                     lambda: security_distance(cb, bad, NOISY, mode="exact"),
                     lambda: decode(cb.word(0, 0), cb, bad, NOISY)):
            with pytest.raises(ValidationError, match=f"{field}={value}"):
                call()

    def test_run_settings_may_differ(self):
        cfg, cb = self._codebook()
        run = replace(cfg, S=4, delta=0.7, seed=5, decoder="joint_typicality", trials=3)
        assert estimate_error(run, NOISY, cb).trials == 3
        assert security_distance(cb, run, NOISY, mode="monte_carlo").messages_probed == 64
