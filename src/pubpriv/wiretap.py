"""Finite-blocklength simulation of secret-key-assisted wiretap codes.

Everything in this module is purely classical: a wiretap triple p(b, e | a)
stands in for the quantum channel, so that random-coding machinery —
pruned (typical-set-conditioned) codeword generation, index one-time-pad
encryption, two-layer code pasting, maximum-likelihood and joint-typicality
decoding, expurgation, and the trace-norm security criterion — is exactly
computable (secrecy distances while (M + S − 1)·|E|^n ≤ 2^24) and
Monte-Carlo-estimable beyond. The quantum region computation and this
simulator meet only through shared rate formulas.

Every codebook is a two-layer codebook: K_pub outer words x^n(k) from the
pruned p(x)^n, each carrying M inner words from the pruned Π_i p(·|x_i); one
class, ``PrunedDistribution``, is both laws. A 1-D input law p is the
one-symbol outer law p(x) = [1], p(a|x) = [p], whose outer word is 0^n: the
key-assisted code without a public message.

Typicality is the entropy-typical window: a word is δ-typical when its
empirical surprisal rate -(1/n)·Σ_i log2 p(a_i|x_i) deviates from
(1/n)·Σ_i H(p(·|x_i)) by at most δ. (Under a uniform law every word is
typical for any δ > 0.)

Determinism: codewords are a pure function of (seed, layer, k, m, rejection round,
position) through a counter-based hash compared with integer CDF thresholds (no
float rounding), so lazy and eager generation agree bit-for-bit at any block size;
error trials draw from (seed, trial index) and security trials from (seed, k, m).

Decoding scores are bit-identical to ``table[words, b[None, :]].sum(axis=1)``: JT
gathers (``_row_scores``); ML filters every word by its exact joint-type counts with the
received word and gathers only those within a derived rounding slack of the best
(``_ml_argmax``). Monte-Carlo log-likelihoods sum exact joint-type counts times log p(e|a)
(``_count_scores``).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from itertools import combinations as _combinations, groupby as _groupby, product as _iproduct

import numpy as np

from .errors import BudgetError, ConfigurationError, DimensionError, ValidationError, check_integers
from .qcore import validate_probabilities

#: Typicality acceptance probabilities below this are rejected as unusable.
MIN_ACCEPTANCE = 1e-6
#: Largest codeword count (K_pub · M) kept in memory; ML, Monte-Carlo security and expurgation need the words there.
EAGER_WORD_LIMIT = 1 << 20
#: Exact security work budget per call on (M + S - 1)·|E|^n.
EXACT_WORK_BUDGET = 1 << 24
#: The modes of `security_distance`.
SECURITY_MODES = ("exact", "monte_carlo")
#: Joint-typicality scan budget per decode on lazy codebooks, checked at each ``_JT_CHUNK`` boundary and message end.
JT_SCAN_BUDGET = 1 << 21
#: Words a joint-typicality scan covers between budget checks, a multiple of ``_JT_BLOCK``.
_JT_CHUNK = 1 << 16
#: Words a joint-typicality scan fetches and scores at a time; it stops at the block that holds the second hit.
_JT_BLOCK = 1 << 12
#: Fewest words of a lazy joint-typicality block drawn in stages; a smaller block costs more in stage overhead.
_JT_STAGE_MIN = 1 << 10
#: Type-class enumeration budget for exact acceptance probabilities.
TYPE_ENUM_BUDGET = 2_000_000
#: Acceptance probabilities remembered by ``_window_mass_log2``, one per (type, window center, δ).
_WINDOW_MASS_CACHE = 4096

_TAG_OUTER, _TAG_INNER, _TAG_TRIAL, _TAG_SECURITY, _TAG_PERMSG = 3, 5, 7, 11, 13


# ---------------------------------------------------------------------------
# Channel model
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ClassicalWiretap:
    """Joint conditional law p(b, e | a) on finite alphabets; the marginals and the integer thresholds of their
    CDFs are computed once, read-only."""

    p_joint: np.ndarray  # (|A|, |B|, |E|)
    p_main: np.ndarray = field(init=False, repr=False)  # Bob's marginal p(b|a)
    p_eve: np.ndarray = field(init=False, repr=False)  # Eve's marginal p(e|a)
    cuts_main: np.ndarray = field(init=False, repr=False)  # (max(|B|-1, 1), |A|) _thresholds of p(b|a)
    cuts_eve: np.ndarray = field(init=False, repr=False)  # (max(|E|-1, 1), |A|) _thresholds of p(e|a)

    def __post_init__(self):
        t = np.asarray(self.p_joint, dtype=float)
        if t.ndim != 3:
            raise DimensionError(f"p(b,e|a) needs shape (|A|,|B|,|E|), got {t.shape}")
        # entries just below 0 (say 1 - 0.9 - 0.1) are stored as 0: they would log to NaN
        t = validate_probabilities(t.reshape(t.shape[0], t.shape[1] * t.shape[2]), "p(b,e|a)").reshape(t.shape)
        p_main, p_eve = t.sum(axis=2), t.sum(axis=1)
        for name, value in {"p_joint": t, "p_main": p_main, "p_eve": p_eve, "cuts_main": _thresholds(p_main.cumsum(1)),
                            "cuts_eve": _thresholds(p_eve.cumsum(1))}.items():
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def size_a(self) -> int:
        return self.p_joint.shape[0]

    @property
    def size_e(self) -> int:
        return self.p_joint.shape[2]

    @cached_property
    def _ml_tables(self) -> tuple:
        """ML decoding's tables (``_ml_argmax``), at first use: log_p = np.log(p(b|a)); the filter's coefficients
        L[a, 0] − L[0, 0] (a ≥ 1) and L[a, β] − L[a, 0] − L[0, β] + L[0, 0] (a, β ≥ 1) on L, which is log_p with
        each -inf replaced by the floor F = 256·min(finite log_p) − 1; max |L|; and whether p(b|a) has a zero."""
        with np.errstate(divide="ignore"):
            log_p = np.log(self.p_main)  # the brute-force gather's table
        finite = np.isfinite(log_p)
        lv = np.where(finite, log_p, 256 * log_p[finite].min() - 1.0)
        return (log_p, lv[1:, 0] - lv[0, 0], lv[1:, 1:] - lv[1:, :1] - lv[:1, 1:] + lv[0, 0], float(np.abs(lv).max()),
                not finite.all())

    @classmethod
    def from_marginals(cls, p_b_given_a, p_e_given_a) -> "ClassicalWiretap":
        """Conditionally independent outputs: p(b,e|a) = p(b|a)·p(e|a)."""
        pb = np.asarray(p_b_given_a, dtype=float)
        pe = np.asarray(p_e_given_a, dtype=float)
        if pb.ndim != 2 or pe.ndim != 2 or pb.shape[0] != pe.shape[0]:
            raise DimensionError("marginals must be matrices over a common input alphabet")
        return cls(pb[:, :, None] * pe[:, None, :])

    @classmethod
    def bsc_pair(cls, flip_main: float, flip_eve: float) -> "ClassicalWiretap":
        """Binary symmetric main and eavesdropper channels with given flip rates."""
        return cls.from_marginals(bsc(flip_main), bsc(flip_eve))


def _channel_outputs(cuts: np.ndarray, a: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Outputs for the inputs ``a`` and the ``Generator.random`` uniforms ``u`` of a's shape: the codewords'
    inverse-CDF draw ``_symbols`` on the thresholds of p(·|a), in the smallest dtype that holds an output.
    u = k·2^-53, so u·2^53 is the integer k exactly."""
    return _symbols((u * 2.0 ** 53).astype(np.uint64), cuts[:, a])


def bsc(flip: float) -> np.ndarray:
    """Transition matrix of a binary symmetric channel."""
    if not 0.0 <= flip <= 1.0:
        raise ValidationError(f"flip probability must lie in [0,1], got {flip}")
    return np.array([[1.0 - flip, flip], [flip, 1.0 - flip]])


def noiseless(q: int = 2) -> np.ndarray:
    """Identity transition matrix (b = a)."""
    return np.eye(q)


# ---------------------------------------------------------------------------
# Counter-based codeword randomness
# ---------------------------------------------------------------------------
# Rejection sampling must give the same word no matter whether words are
# generated one at a time or in batches; numpy Generator
# streams cannot be vectorized across millions of independent streams, so
# symbols come from a splitmix64 hash of (seed, layer, k, m, round, i).

_C1_INT, _C2_INT, _C3_INT = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_C1, _C2, _C3 = np.uint64(_C1_INT), np.uint64(_C2_INT), np.uint64(_C3_INT)
_MASK64 = (1 << 64) - 1
#: Symbols per codeword-kernel block: 512 KiB uint64 temporaries stay in L2.
_BLOCK_SYMBOLS = 1 << 16


def _mix64(z: np.ndarray, tmp: np.ndarray) -> None:
    """In place z ← the splitmix64 finaliser of z (splitmix64(x) mixes x + C1); tmp is scratch."""
    np.right_shift(z, 30, out=tmp)
    z ^= tmp
    z *= _C2
    np.right_shift(z, 27, out=tmp)
    z ^= tmp
    z *= _C3
    np.right_shift(z, 31, out=tmp)
    z ^= tmp


def _stream_base(seed: int, tag: int, k):
    """splitmix64 chained over (seed mod 2^64, tag, k), as ``_mix64`` would on uint64: one np.uint64 for an int k,
    one per entry for an array of k. Python ints masked to 64 bits, since a few numpy calls on one-element arrays
    cost more than the arithmetic; only an array's k step runs in numpy."""
    z = 0
    for v in (seed, tag) if np.ndim(k) else (seed, tag, k):
        z = ((z ^ (int(v) & _MASK64)) + _C1_INT) & _MASK64
        z ^= z >> 30
        z = (z * _C2_INT) & _MASK64
        z ^= z >> 27
        z = (z * _C3_INT) & _MASK64
        z ^= z >> 31
    if not np.ndim(k):
        return np.uint64(z)
    zs = (np.asarray(k, dtype=np.uint64) ^ np.uint64(z)) + _C1
    _mix64(zs, np.empty_like(zs))
    return zs


def _thresholds(cdf: np.ndarray) -> np.ndarray:
    """(max(q-1, 1), n) uint64 thresholds from (n, q) per-position CDF rows.

    With u = (h>>11)·2^-53, min(searchsorted(cdf_i, u, "right"), q-1) counts the j < q-1 with cdf_ij <= u,
    i.e. with h>>11 >= ceil(cdf_ij·2^53) (exact). 2^53 never fires; a one-symbol law gets one such row.
    """
    t = np.clip(np.ceil(cdf[:, :-1].T * 2.0 ** 53), 0.0, 2.0 ** 53)
    return (t if len(t) else np.full((1, cdf.shape[0]), 2.0 ** 53)).astype(np.uint64, order="C")


def _symbols(u53: np.ndarray, thresholds: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """out[..., i] = #{j : u53[..., i] >= thresholds[j, ..., i]}, with u53 = h>>11; by default ``out`` is new, in
    the smallest unsigned dtype that holds len(thresholds)."""
    if out is None:
        out = np.empty(u53.shape, dtype=np.min_scalar_type(len(thresholds)))
    np.greater_equal(u53, thresholds[0], out=out)
    for j in range(1, len(thresholds)):
        out += u53 >= thresholds[j]
    return out


# ---------------------------------------------------------------------------
# Typicality and pruned distributions
# ---------------------------------------------------------------------------


def _compositions(n: int, k: int):
    """The k-part compositions of n in lexicographic order, by stars and bars: bars at slots b_1 < ... < b_(k-1)
    of n + k - 1 leave the counts between them."""
    for bars in _combinations(range(n + k - 1), k - 1):
        edges = (-1, *bars, n + k - 1)
        yield tuple(b - a - 1 for a, b in zip(edges, edges[1:]))


def _log2_multinomial(n: int, counts, lgamma1) -> float:
    """log2 of n! / Π c!, with ``lgamma1[c]`` = lgamma(c + 1); zero counts add lgamma(1) = 0.0 and are skipped."""
    v = lgamma1[n] - sum(lgamma1[c] for c in counts if c)
    return v / math.log(2.0)


@lru_cache(maxsize=_WINDOW_MASS_CACHE)
def _window_mass_log2(groups: tuple, center: float, delta: float) -> float:
    """log2 of the probability that the empirical surprisal rate lands within delta of center.

    ``groups`` is a tuple of (count, probs tuple) for the positions that share one law p(·|x); the surprisal
    sum splits by group, so the type classes of all groups are enumerated together (i.i.d. is one group).
    Exact by enumeration of type classes; cached per (type, window center, δ), which outer words share.
    """
    n = sum(cnt for cnt, _ in groups)
    groups = [(cnt, [math.log2(v) for v in probs if v > 0]) for cnt, probs in groups]
    if math.prod(math.comb(cnt + len(logs) - 1, len(logs) - 1) for cnt, logs in groups) > TYPE_ENUM_BUDGET:
        raise BudgetError(f"type enumeration at n={n} is too large for an exact acceptance probability")
    lgamma1 = [math.lgamma(c + 1) for c in range(n + 1)]
    total = -np.inf
    for combo in _iproduct(*[list(_compositions(cnt, len(logs))) for cnt, logs in groups]):
        surp = 0.0
        logw = 0.0
        for (cnt, logs), counts in zip(groups, combo):
            dot = 0.0
            for c, log in zip(counts, logs):  # in order, in Python floats: no BLAS kernel picks the sum's bits
                if c:  # adding 0·log would leave every bit as it is
                    dot += c * log
            surp += -dot
            logw += _log2_multinomial(cnt, counts, lgamma1) + dot
        if abs(surp / n - center) <= delta + 1e-12:
            total = np.logaddexp2(total, logw)
    return float(total)


@dataclass(frozen=True, eq=False)
class PrunedDistribution:
    """Π_i p(·|x_i) conditioned on entropy-typicality given each of the (K, n) ``outer_words`` x^n(k); the table
    p(a|x) is validated once.

    A word is typical given k when its surprisal rate -(1/n)·Σ_i log2 p(a_i|x_i) lies within δ of ``entropy[k]``
    = (1/n)·Σ_i H(p(·|x_i)). One table row and the one outer word 0^n give the i.i.d. law p^n
    (``pruned_distribution``). ``_generate_words`` rejection-samples words until typical; ``log2_prob`` is the
    exact pruned log-probability log2[p(a^n|x^n(k)) / Pr(T_δ)], -inf outside the typical set (the out-of-support
    marker).

    ``entropy`` (the window centers), ``log2_acceptance`` and ``all_typical`` are (K,) arrays, each entry bit for
    bit that of the one-word law on x^n(k): the centers are the same row sums, and the acceptances are kept in one
    dict keyed by (type counts, center) and filled in k order, so each distinct pair is enumerated once and the
    first k below ``MIN_ACCEPTANCE`` raises. The thresholds of x^n(k) are columns of ``cuts``, gathered when its
    words are drawn.

    ``all_typical[k]``: whether every word the thresholds can draw is typical, so sampling needs no typicality
    test. Symbol j can be drawn given x when its threshold interval, from cuts[j-1, x] (0 for j = 0) to
    cuts[j, x] (2^53 for the last symbol), is not empty. Two words take at each position the smallest and the
    largest surprisal such a symbol has. Rounded pairwise addition is monotone, so their sums bound every
    drawable word's sum, and both pass ``is_typical`` exactly when every drawable word does.
    """

    table: np.ndarray  # (|X|, |A|) row-stochastic p(a|x)
    outer_words: np.ndarray  # (K, n), in the smallest unsigned dtype that holds |X| - 1
    delta: float
    cuts: np.ndarray = field(init=False, repr=False)  # (max(|A|-1, 1), |X|), _thresholds of each row p(·|x)
    surprisal: np.ndarray = field(init=False, repr=False)  # -log2 p(a|x), (|X|, |A|)
    entropy: np.ndarray = field(init=False, repr=False)  # (K,)
    log2_acceptance: np.ndarray = field(init=False, repr=False)  # (K,)
    all_typical: np.ndarray = field(init=False, repr=False)  # (K,) bool, see above

    def __post_init__(self):
        t = np.asarray(self.table, dtype=float)
        x = np.asarray(self.outer_words)
        if t.ndim != 2:
            raise ValidationError(f"an input law must be a table p(a|x), got shape {t.shape}")
        t = validate_probabilities(t, "the rows of an input law")  # entries just below 0 would log to NaN
        if not self.delta > 0:  # NaN fails too
            raise ValidationError("delta must be positive")
        if x.ndim != 2 or x.shape[1] < 1:
            raise ValidationError("n must be >= 1")
        if x.dtype.kind not in "iuf" or not ((0 <= x) & (x < len(t)) & (x == np.floor(x))).all():
            raise ValidationError(f"outer word symbols must be integers in [0, {len(t)}), "
                                  f"got {(x[0] if len(x) == 1 else x).tolist()}")
        x = x.astype(np.min_scalar_type(len(t) - 1))
        (K, n), X, q = x.shape, len(t), t.shape[1]
        with np.errstate(divide="ignore"):
            surprisal = -np.log2(t)
        h_rows = np.array([(r[r > 0] * s[r > 0]).sum() for r, s in zip(t, surprisal)])
        entropy = h_rows[x].sum(axis=1) / n
        counts = np.bincount((x + np.arange(K)[:, None] * X).ravel(), minlength=K * X).reshape(K, X)
        keys = list(zip(map(tuple, counts.tolist()), entropy.tolist()))  # (type, window center) of each k
        acc = {}
        for key in keys:  # in k order
            if key not in acc:
                groups = tuple((c, tuple(t[v].tolist())) for v, c in enumerate(key[0]) if c)
                acc[key] = _window_mass_log2(groups, key[1], self.delta)
                if acc[key] < np.log2(MIN_ACCEPTANCE):
                    raise ConfigurationError(f"typical-set acceptance 2^{acc[key]:.2f} is below {MIN_ACCEPTANCE:g} "
                                             f"at n={n}, delta={self.delta}; increase delta")
        cuts = _thresholds(np.cumsum(t, axis=1))
        top = np.full((1, X), 1 << 53, dtype=np.uint64)
        edges = np.concatenate([np.zeros_like(top), cuts[: q - 1], top])
        drawable = (edges[:-1] < edges[1:]).T  # (|X|, |A|): symbol a can be drawn given x
        typical = np.ones(K, dtype=bool)
        for end in (np.where(drawable, surprisal, np.inf).min(1), np.where(drawable, surprisal, -np.inf).max(1)):
            typical &= np.abs(end[x].sum(axis=1) / n - entropy) <= self.delta + 1e-12
        for name, value in (("table", t), ("outer_words", x), ("cuts", cuts), ("surprisal", surprisal),
                            ("entropy", entropy), ("log2_acceptance", np.array([acc[key] for key in keys])),
                            ("all_typical", typical)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        return self.outer_words.shape[1]

    def thresholds(self, k) -> np.ndarray:
        """The thresholds of outer word k, (max(|A|-1, 1), n), or of one k per row, (max(|A|-1, 1), rows, n)."""
        return self.cuts[:, self.outer_words[k]]

    def surprisals(self, words, k) -> np.ndarray:
        """Per-position surprisals of (..., n) words given outer word k, or one k per word; one table row is a
        1-D gather, cheaper than the (x_i, a_i) one."""
        return self.surprisal[0][words] if len(self.surprisal) == 1 else self.surprisal[self.outer_words[k], words]

    def is_typical(self, words, k) -> np.ndarray:
        """Typicality of (..., n) words given outer word k, or one k per word."""
        return np.abs(self.surprisals(words, k).sum(axis=-1) / self.n - self.entropy[k]) <= self.delta + 1e-12

    @property
    def acceptance(self) -> np.ndarray:
        """Pr[T_δ] given each outer word under the unpruned law, (K,)."""
        return 2.0 ** self.log2_acceptance

    def log2_prob(self, word, k) -> float:
        """Pruned log2-probability of one word given outer word k; -inf marks words outside T_δ."""
        if not self.is_typical(word, k):
            return -np.inf
        return float(-self.surprisals(word, k).sum() - self.log2_acceptance[k])


def pruned_distribution(p, n: int, delta: float) -> PrunedDistribution:
    """Sampler plus exact evaluator for the i.i.d. p^n conditioned on the δ-typical set: the K = 1 law on 0^n."""
    return PrunedDistribution(np.asarray(p, dtype=float)[None], np.zeros((1, max(n, 0)), dtype=np.intp), delta)


# ---------------------------------------------------------------------------
# Code configuration and codebooks
# ---------------------------------------------------------------------------

DECODERS = ("ML", "joint_typicality")


@dataclass(frozen=True)
class CodeConfig:
    """Block length, message-set sizes, typicality window and trial budget.

    Rates are recorded as log2(count)/n; the key count S may not exceed the
    private message count M (the index pad wraps modulo M).
    """

    n: int
    M: int
    S: int = 1
    K_pub: int = 1
    delta: float = 0.2
    seed: int = 0
    decoder: str = "ML"
    trials: int = 100

    def __post_init__(self):
        check_integers(**{name: getattr(self, name) for name in ("n", "M", "S", "K_pub", "trials", "seed")})
        if not 1 <= self.n <= 128:
            raise ValidationError("n must lie in [1, 128] (codeword stream packing)")
        if not 1 <= self.S <= self.M:
            raise ValidationError(f"need 1 <= S <= M, got S={self.S}, M={self.M}")
        if self.K_pub < 1:
            raise ValidationError("K_pub must be >= 1")
        if not self.delta > 0:  # NaN fails too
            raise ValidationError("delta must be positive")
        if self.decoder not in DECODERS:
            raise ValidationError(f"decoder must be one of {DECODERS}")
        if self.trials < 1:
            raise ValidationError("trials must be >= 1")
        if self.seed < 0:
            raise ValidationError("seed must be a nonnegative integer")

    @property
    def rate_private(self) -> float:
        return math.log2(self.M) / self.n

    @property
    def rate_key(self) -> float:
        return math.log2(self.S) / self.n

    @property
    def rate_public(self) -> float:
        return math.log2(self.K_pub) / self.n


def encrypt(m: int, s: int, M: int) -> int:
    """Index one-time pad p = (m + s) mod M.

    Injective in s for fixed m and in m for fixed s, so m = (p - s) mod M;
    the security code forms each message's pad rows (m + s) mod M inline.
    """
    if not 0 <= m < M:
        raise ValidationError(f"message index {m} out of range [0, {M})")
    if not 0 <= s < M:
        raise ValidationError(f"key index {s} out of range [0, {M})")
    return (m + s) % M


@dataclass(frozen=True)
class GenerationRecord:
    """Pruning and generation bookkeeping for a codebook."""

    acceptance_inner: float
    acceptance_outer: float = 1.0  # 1.0 for the one-symbol outer law of a 1-D input law
    expurgation: dict | None = None


@dataclass(frozen=True, eq=False)
class Codebook:
    """Seeded random two-layer codebook: outer words x^n(k) and per-k inner words u_p^n.

    A 1-D input law p is the one-symbol outer law: ``outer_p`` = [1], ``cond_table`` = [p]
    and the outer word 0^n. Words are stored in the smallest unsigned dtype that holds their alphabet
    (uint8 up to 256 symbols), so K·M inner words take K·M·n bytes. When K_pub·M exceeds ``EAGER_WORD_LIMIT``,
    for any K_pub, the inner words are not materialized (``is_lazy``, JT decoding only); ``word``/``inner_block``
    regenerate them on demand from the seed and ``inner_law``, the ``PrunedDistribution`` on every outer word,
    built once with the codebook (bit-identical to eager generation).
    """

    config: CodeConfig
    outer_p: np.ndarray  # p(x)
    cond_table: np.ndarray  # p(a|x)
    outer_words: np.ndarray  # (K, n)
    inner_words: np.ndarray | None  # (K, M, n) or None when lazy
    record: GenerationRecord
    inner_law: PrunedDistribution | None = field(default=None, repr=False)  # lazy codebooks only

    @property
    def is_lazy(self) -> bool:
        return self.inner_words is None

    def inner_block(self, k: int, lo: int, hi: int) -> np.ndarray:
        """Inner words u_p^n(k) for p in [lo, hi); an index that is not an integer, k outside [0, K_pub) or a
        range outside [0, M] is a ``ValidationError``, eager or lazy."""
        check_integers(k=k, lo=lo, hi=hi)
        K, M = self.config.K_pub, self.config.M
        if not (0 <= k < K and 0 <= lo <= hi <= M):
            raise ValidationError(f"inner words [{lo}, {hi}) of public message {k} do not exist: "
                                  f"need 0 <= k < K_pub = {K} and 0 <= lo <= hi <= M = {M}")
        if self.inner_words is not None:
            return self.inner_words[k, lo:hi]
        return _generate_words(self.inner_law, self.config.seed, _TAG_INNER, k, np.arange(lo, hi, dtype=np.int64))

    def word(self, k: int, p: int) -> np.ndarray:
        """The channel-input word for public message k and inner index p."""
        return self.inner_block(k, p, p + 1)[0]

    @cached_property
    def _type_masks(self) -> tuple[np.ndarray, np.ndarray]:
        """The eager inner words' ``_symbol_masks`` of the symbols a >= 1, (|A| - 1, K·M, ⌈n/64⌉), and their
        counts of each such a, (|A| - 1, K·M) uint8; packed at first use for ML decoding (``_ml_argmax``)."""
        masks = _symbol_masks(self.inner_words.reshape(-1, self.config.n), self.cond_table.shape[1], first=1)
        return masks, np.bitwise_count(masks).sum(axis=-1, dtype=np.uint8)


def _stream_keys(seed: int, tag: int, k, ids) -> np.ndarray:
    """The uint64 stream key base(k) + id·2^27 of each id, ``k`` one public message or one per id."""
    keys = np.asarray(ids, dtype=np.uint64) << np.uint64(27)
    keys += _stream_base(seed, tag, k)
    return keys


def _hash_symbols(keys: np.ndarray, positions: np.ndarray, thresholds: np.ndarray, rnd: int, out: np.ndarray,
                  scratch: np.ndarray | None = None) -> np.ndarray:
    """The one codeword hashing kernel: ``out`` ← the ``_symbols`` of splitmix64(key + (rnd·2^7 | i)) on the
    thresholds, for the stream keys and uint64 positions i broadcast to out's shape; ``thresholds[j]`` broadcasts
    there too. Rows of keys and columns of positions give words; the transpose gives them position by position.
    ``scratch`` is a reusable (2, >= out.size) uint64 buffer, by default a new one."""
    if scratch is None:
        scratch = np.empty((2, out.size), dtype=np.uint64)
    z, t = scratch[:, : out.size].reshape(2, *out.shape)
    np.add(keys, positions + (_C1 + np.uint64(rnd << 7)), out=z)  # disjoint bit fields: | is +
    _mix64(z, t)
    z >>= np.uint64(11)
    return _symbols(z, thresholds, out)


def _generate_words(law: PrunedDistribution, seed: int, tag: int, k, ids: np.ndarray) -> np.ndarray:
    """Rejection-sample typical words for the given stream ids.

    ``k`` is the public message of every id, or one per id in ascending order; id j draws from the law given
    outer word k[j], on k[j]'s stream. Symbol i of an id's round-r candidate is ``_symbols`` of splitmix64(base(k)
    + (id·2^27 | r·2^7 | i)), injective for id < 2^37, r < 2^20, n <= 128. Ids go in blocks of about
    ``_BLOCK_SYMBOLS`` symbols, each run through its rejection rounds in turn; a word depends only on its (k, id).
    New words take the smallest unsigned dtype of the law's alphabet.
    """
    n = law.n
    keys = _stream_keys(seed, tag, k, ids)
    rows = np.broadcast_to(k, keys.shape)
    out = np.empty((keys.size, n), dtype=np.min_scalar_type(law.table.shape[1] - 1))
    step = max(1, min(keys.size, _BLOCK_SYMBOLS // n))
    scratch = np.empty((2, step * n), dtype=np.uint64)
    redraw = np.empty((step, n), dtype=out.dtype)
    positions = np.arange(n, dtype=np.uint64)
    for lo in range(0, keys.size, step):
        block = out[lo: lo + step]  # round 0 draws in place, later rounds fill the rejected rows
        r = rows[lo: lo + step]
        r = r[0] if r[0] == r[-1] else r  # one outer word for the block, or one per row
        every = law.all_typical[r].all()  # then round 0 is final: no typicality pass, no rejection rounds
        pending, rnd = np.arange(block.shape[0]), 0
        while pending.size:
            key = keys[lo + pending] if rnd else keys[lo: lo + step]  # round 0 takes every row: a slice, no gather
            rk = r[pending] if np.ndim(r) else r
            c = _hash_symbols(key[:, None], positions, law.thresholds(rk), rnd,
                              block if rnd == 0 else redraw[: pending.size], scratch)
            if every:
                break
            ok = law.is_typical(c, rk)
            if rnd:
                block[pending[ok]] = c[ok]
            pending, rnd = pending[~ok], rnd + 1
            if rnd >= (1 << 20):
                raise ConfigurationError("codeword rejection budget exhausted; increase delta")
    return out


_LAW_FORMS = "an input law is a 1-D p over the input alphabet (K_pub = 1) or a pair (p_x, p_a_given_x)"


def generate_codebook(cfg: CodeConfig, ch: ClassicalWiretap, law) -> Codebook:
    """Draw a seeded random codebook for the channel.

    ``law`` is a pair (p_x, p_a_given_x), for any K_pub, or a 1-D distribution p over the
    input alphabet, for K_pub = 1 only, read as the pair ([1], [p]). K_pub outer words come
    from the pruned p(x)^n and each carries M inner words drawn from the conditionally pruned
    law given its outer word. Both are ``PrunedDistribution`` laws: the outer one on the one word 0^n,
    the inner one on every x^n(k), validated once, with every k's window center, acceptance and
    all-typical flag. An eager codebook draws all K_pub·M inner words in one ``_generate_words`` call;
    they are regenerated on demand (lazy) from the kept inner law when K_pub·M > ``EAGER_WORD_LIMIT``,
    for any K_pub, and a lazy codebook decodes by joint typicality only. Words take the smallest
    unsigned dtype of their alphabet.
    """
    try:
        p = np.asarray(law, dtype=float)
    except ValueError:  # ragged, as a pair is
        p = None
    if p is not None and p.ndim == 1:
        if cfg.K_pub > 1:
            raise DimensionError(f"K_pub = {cfg.K_pub}: {_LAW_FORMS}")
        p_x, cond = np.ones(1), p[None]
    else:
        try:
            p_x, cond = (np.asarray(v, dtype=float) for v in law)
        except (TypeError, ValueError) as exc:
            raise DimensionError(_LAW_FORMS) from exc
        if p_x.ndim != 1 or cond.ndim != 2 or cond.shape[0] != p_x.size:
            raise DimensionError(f"{_LAW_FORMS}, with one row of p_a_given_x per outer symbol")
    if cond.shape[1] != ch.size_a:
        raise DimensionError(f"input law over {cond.shape[1]} symbols, channel expects {ch.size_a}")
    K, M = cfg.K_pub, cfg.M
    outer = pruned_distribution(p_x, cfg.n, cfg.delta)
    outer_words = _generate_words(outer, cfg.seed, _TAG_OUTER, 0, np.arange(K, dtype=np.int64))
    inner_law = PrunedDistribution(cond, outer_words, cfg.delta)
    inner = None
    if K * M <= EAGER_WORD_LIMIT:
        inner = _generate_words(inner_law, cfg.seed, _TAG_INNER, np.repeat(np.arange(K), M),
                                np.tile(np.arange(M, dtype=np.int64), K)).reshape(K, M, cfg.n)
    rec = GenerationRecord(acceptance_inner=2.0 ** float(inner_law.log2_acceptance.min()),
                           acceptance_outer=2.0 ** float(outer.log2_acceptance[0]))
    return Codebook(config=cfg, outer_p=outer.table[0], cond_table=inner_law.table, outer_words=outer_words,
                    inner_words=inner, record=rec, inner_law=inner_law if inner is None else None)


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------


def _row_scores(cols: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Σ_i cols[i, words[r, i]] for every row r of the (R, n) words, from the (n, |A|) columns.

    With cols = table[:, b].T this sums the values of ``table[words, b[None, :]].sum(axis=1)`` in the
    same order, so scores are bit-identical to that gather (JT window edges turn on the last bit). Rows go
    in blocks of about ``_BLOCK_SYMBOLS`` symbols, each through one ``np.take`` of words + offsets.
    """
    count, n = words.shape
    table, offsets = cols.ravel(), np.arange(n) * cols.shape[1]
    rows = max(1, min(count, _BLOCK_SYMBOLS // n))
    idx = np.empty((rows, n), dtype=np.intp)
    g = np.empty((rows, n))
    out = np.empty(count)
    for lo in range(0, count, rows):
        m = min(rows, count - lo)
        np.add(words[lo: lo + m], offsets, out=idx[:m])
        np.take(table, idx[:m], out=g[:m], mode="clip")  # "raise" would buffer out; indices are in range
        g[:m].sum(axis=1, out=out[lo: lo + m])
    return out


def _symbol_masks(words: np.ndarray, q: int, first: int = 0) -> np.ndarray:
    """(q - first, R, ⌈n/64⌉) uint64 masks of the (R, n) words for the symbols first .. q-1: bit i of mask
    [a - first, r] is set where words[r, i] == a."""
    (R, n), rows = words.shape, max(1, _BLOCK_SYMBOLS // words.shape[1])
    out = np.zeros((q - first, R, -(-n // 64) * 8), dtype=np.uint8)
    for lo, a in _iproduct(range(0, R, rows), range(first, q)):  # blocks of about _BLOCK_SYMBOLS symbols
        out[a - first, lo: lo + rows, : -(-n // 8)] = np.packbits(words[lo: lo + rows] == a, axis=-1,
                                                                  bitorder="little")
    return out.view(np.uint64)


def _count_scores(coefs, words: np.ndarray, outs: np.ndarray) -> np.ndarray:
    """The one joint-type count kernel: scores[t, p] = Σ_(e, a) N_ae·coefs[a][e] in (e, a) order; N_ae, the positions
    where word p holds a and output t holds e, sums popcount(outs[e, t, j] & words[a, p, j]) over the ⌈n/64⌉ mask
    words j (``_symbol_masks``) in uint8 (n ≤ 255), one output's words as 0-d values, which numpy ANDs as fast as
    scalars. p goes in blocks of about ``_BLOCK_SYMBOLS`` counts; 0·(-inf) is 0. Monte-Carlo secrecy takes coefs =
    log p(e|a), ML's filter its coefficients."""
    T, W = outs.shape[1:]
    scores = np.zeros((T, words.shape[1]))
    cols = max(1, _BLOCK_SYMBOLS // T)
    for lo, e, a in _iproduct(range(0, scores.shape[1], cols), range(len(outs)), range(len(words))):
        o, m, w = outs[e, :, None] if T > 1 else outs[e, 0], words[a, None, lo: lo + cols], coefs[a][e]
        count = np.bitwise_count(o[..., 0] & m[..., 0])
        for j in range(1, W):
            count += np.bitwise_count(o[..., j] & m[..., j])
        scores[:, lo: lo + cols] += count * w if w > -math.inf else np.where(count > 0, -math.inf, 0.0)
    return scores


def _ml_argmax(b: np.ndarray, codebook: Codebook, ch: ClassicalWiretap) -> int:
    """The first of the eager codebook's K·M words, in (k, p) order, whose float log-likelihood
    ``log_p[words, b].sum(axis=1)``, log_p = np.log(p(b|a)), is the largest; 0 when every word has a position of
    probability 0, as np.argmax of that all -inf gather gives.

    Step 1 filters by exact joint types. A word's log-likelihood Σ N_aβ·L[a, β], N_aβ its positions where it
    holds a and b holds β, is f = Σ_(a ≥ 1) c_a·(L[a, 0] − L[0, 0]) + Σ_(a, β ≥ 1) N_aβ·(L[a, β] − L[a, 0] −
    L[0, β] + L[0, 0]) plus a term of b alone: N_a0, N_0β and N_00 follow from the word's counts c_a, b's counts and
    n by integer subtraction. ``_count_scores`` sums the second part in (β, a) order from the words' and b's
    ``_symbol_masks`` (a, β ≥ 1), then the first part is added a by a. L is log_p with each -inf replaced by the
    floor F = 256·min(finite log_p) − 1 (``ClassicalWiretap._ml_tables``), so a word with a position of probability
    0 sums to at most F, at least 1 + 128·|min finite log_p| below any other word (n ≤ 128). Step 2 rescores the
    words whose f lies within ``slack`` of the largest, in ascending order, with ``_row_scores`` (numpy's own row
    sum, bit-identical to the gather), and returns the first maximum; a lone candidate needs no rescoring unless
    p(b|a) has a zero, when it may score -inf.

    slack = 2^-46·n·Λ·(n + |A|·|B|), Λ = max |L|, keeps every maximizer of the gather. With u = 2^-53: numpy's sum
    of n ≤ 128 terms of size ≤ Λ is within 1.01·n²·Λu of the exact sum; f's coefficients are within 9Λu of
    exact and the counts they multiply total at most n, which puts f within (6.1·|A|·|B| + 12)·nΛu; twice the sum
    of the two, plus the rounding of max(f) − slack, is below slack (2^-46 = 128u). The floor's margin exceeds the
    slack, which is below 1 while |A|·|B| < 10^6 (Λ ≤ 256·745 + 1).
    """
    n = len(b)
    log_p, coef_a, coef_ab, max_abs, zeros = ch._ml_tables
    slack = 2.0 ** -46 * n * max_abs * (n + log_p.size)
    masks, counts = codebook._type_masks
    f = _count_scores(coef_ab, masks, _symbol_masks(b[None], log_p.shape[1], first=1))[0]
    for c_a, coef in zip(counts, coef_a):
        f += c_a * coef
    cand = np.flatnonzero(f >= f.max() - slack)
    if cand.size == 1 and not zeros:  # every maximizer is a candidate, and no word scores -inf
        return int(cand[0])
    scores = _row_scores(log_p[:, b].T, codebook.inner_words.reshape(-1, n)[cand])
    best = int(np.argmax(scores))
    return int(cand[best]) if scores[best] > -np.inf else 0


def _check_config(cfg: CodeConfig, codebook: Codebook) -> None:
    """Reject a cfg whose n, M or K_pub differ from the codebook's; S, δ, seed, decoder and trials are run settings."""
    diff = [f"{name}={getattr(cfg, name)} (the codebook has {getattr(codebook.config, name)})"
            for name in ("n", "M", "K_pub") if getattr(cfg, name) != getattr(codebook.config, name)]
    if diff:
        raise ValidationError(f"cfg does not match the codebook: {', '.join(diff)}")


def _check_messages(messages, cfg: CodeConfig) -> list[tuple[int, int]]:
    """The distinct (k, m) pairs as ints, in first-seen order; an entry that is not a pair of integers with k in
    [0, K_pub) and m in [0, M) names no message."""
    pairs = {}
    for entry in messages:
        try:
            k, m = entry
        except (TypeError, ValueError):  # not a pair
            k = m = None
        if not (all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in (k, m))
                and 0 <= k < cfg.K_pub and 0 <= m < cfg.M):
            raise ValidationError(f"message pair (k, m) = {entry!r} does not exist: "
                                  f"need integers 0 <= k < K_pub = {cfg.K_pub} and 0 <= m < M = {cfg.M}")
        pairs[int(k), int(m)] = None
    if not pairs:
        raise ValidationError("messages is empty: a secrecy distance needs at least one (k, m) pair")
    return list(pairs)


def _jt_tables(codebook: Codebook, ch: ClassicalWiretap):
    """Per-symbol surprisal of the generating law q(x, a, b) and its entropy; a candidate gathers (x_i, u_i, b_i)."""
    q = codebook.outer_p[:, None, None] * codebook.cond_table[:, :, None] * ch.p_main[None, :, :]
    with np.errstate(divide="ignore"):
        v = -np.log2(q)
    sup = q > 0
    h = float(-(q[sup] * np.log2(q[sup])).sum())
    return v, h


def _jt_window(n: int, h: float, delta: float):
    """The JT window, written once: the test ``in_window`` of whole scores, |score/n - h| <= δ + 1e-12, and its
    edges n(h ∓ (δ + 1e-12)) in score units, from which ``_jt_stages`` bounds partial scores."""
    width = delta + 1e-12

    def in_window(score):
        return np.abs(score / n - h) <= width

    return in_window, n * (h - width), n * (h + width)


def _jt_stages(cols: np.ndarray, low: float, high: float, cuts) -> list:
    """The (i, floor, ceil) stages of a staged JT draw on the (n, |A|) score columns, one per stage end i in
    ``cuts``: a word whose partial score over positions [0, i) lies outside [floor, ceil] scores outside the
    ``_jt_window`` edges [low, high].

    The rest of a score lies between the suffix sums of each position's smallest and largest value. Every entry
    is >= 0, so a float sum of at most n + 3 of them, in any order, is within (n + 3)·2^-53 < 2e-14 (n <= 128)
    of its exact value, relative to the sum of each position's largest finite value; ``slack``, 1e-9 of that
    plus |low| + |high| + n, also covers the rounding of the edges and of the window test's score/n - h. An
    infinite entry makes a score infinite, never a hit.
    """
    n = len(cols)
    least, most = cols.min(axis=1), cols.max(axis=1)
    slack = 1e-9 * (np.where(np.isfinite(cols), cols, 0.0).max(axis=1).sum() + abs(low) + abs(high) + n)
    return [(i, low - slack - most[i:].sum(), high + slack - least[i:].sum()) for i in cuts]


def _jt_block(codebook: Codebook, k: int, lo: int, hi: int, cols: np.ndarray, in_window, stages):
    """The ascending offsets j in [0, hi - lo) of the words u_(lo+j)^n(k) whose JT score ``_row_scores(cols, ·)``
    is ``in_window``, and the stages for the next block.

    Without ``stages`` (an eager codebook or a lazy message whose law is not all-typical), or for a block of
    fewer than ``_JT_STAGE_MIN`` words, the block comes from ``Codebook.inner_block``. With the ``_jt_stages`` of
    an all-typical lazy message, whose symbols are independent round-0 hashes of (key, position), the block is
    drawn stage by stage, each for the words still alive after the partial scores of the ones before, then the
    rest: a word drops out only when no summation order could put its score in the window. The survivors are
    scored whole by ``_row_scores``, so every hit is the one of the unstaged scan, to the bit. A stage that drops
    fewer than a quarter of the words it scores costs more than the hashes it saves, so it is left out of the
    scan's later blocks.
    """
    if not stages or hi - lo < _JT_STAGE_MIN:
        return np.nonzero(in_window(_row_scores(cols, codebook.inner_block(k, lo, hi))))[0], stages
    law, n = codebook.inner_law, len(cols)
    keys = _stream_keys(codebook.config.seed, _TAG_INNER, k, np.arange(lo, hi, dtype=np.int64))
    thresholds, positions = law.thresholds(k)[:, :, None], np.arange(n, dtype=np.uint64)[:, None]
    symbols = np.empty((n, keys.size), dtype=np.min_scalar_type(law.table.shape[1] - 1))  # position by position
    alive, partial = np.arange(keys.size), np.zeros(keys.size)
    i0, useful = 0, []
    for i1, floor, ceil in stages:
        m = alive.size
        _hash_symbols(keys[alive], positions[i0: i1], thresholds[:, i0: i1], 0, symbols[i0: i1, :m])
        for i in range(i0, i1):  # a bound, not a score: any order will do; symbols are in range, so "clip"
            partial[:m] += cols[i].take(symbols[i, :m], mode="clip")
        keep = np.nonzero(~((partial[:m] < floor) | (partial[:m] > ceil)))[0]  # a NaN edge (δ = inf) drops none
        if 4 * keep.size <= 3 * m:
            useful.append((i1, floor, ceil))
        if keep.size < m:
            alive = alive[keep]
            partial[: keep.size] = partial[keep]
            symbols[: i1, : keep.size] = symbols[: i1, keep]
        i0 = i1
    m = alive.size
    _hash_symbols(keys[alive], positions[i0:], thresholds[:, i0:], 0, symbols[i0:, :m])
    return alive[in_window(_row_scores(cols, symbols[:, :m].T))], useful


def decode(b_seq, codebook: Codebook, cfg: CodeConfig, ch: ClassicalWiretap):
    """Estimate (k, p) from a received word.

    ML: argmax of the main-channel log-likelihood over every (k, p), as the
    float row sum below. Ties are float ties of that sum, broken by the
    smallest (k, p) lexicographically. Words of equal likelihood whose sums
    round differently are not tied: ML picks the one whose sum rounds
    highest, which need not be the first. joint_typicality: the unique
    candidate whose pair (or triple, two-layer) surprisal rate falls within
    the δ-window; zero or several candidates is a decode failure, returned
    as None and counted as an error by the callers.

    Scores are bit-identical to ``table[words, b[None, :]].sum(axis=1)``, so
    ties and window edges turn on the same last bit. ML (``_ml_argmax``)
    scores every word from its exact joint type with b: popcounts of the
    words' symbol masks, packed once per codebook, against b's, times the
    log-likelihood table. Only the words within a derived rounding slack of
    the best such score are summed again by numpy (``_row_scores``), and
    the first maximum of those sums is returned. JT walks each public message's words in blocks of
    ``_JT_BLOCK`` = 4,096, each through ``_jt_block``, gathered directly
    (``_row_scores``), and returns None at the block that holds the second
    hit, so a lazy codebook regenerates no words past that block. A block
    is a slice of an eager codebook or regenerated for a lazy one, whole
    (``Codebook.inner_block``) or, when the message's law is all-typical
    and the block holds at least ``_JT_STAGE_MIN`` = 1,024 words, in
    stages: positions [0, ⌈n/4⌉), then up to ⌈n/2⌉, then the rest, each
    drawn only for the words whose partial score can still reach the
    window (``_jt_window``). A stage that drops under a quarter of its
    words is left out of the rest of the scan. A word drops out only when
    no summation order could put its score in the window, and the
    survivors are scored whole, so the hits, Nones and budget errors are
    those of the unstaged scan. On a lazy codebook the ``JT_SCAN_BUDGET`` check
    follows each block that ends a public message or a multiple of
    ``_JT_CHUNK`` = 65,536 words, where the k·M + hi words of messages 0..k
    scanned so far are counted, so every hit, None and ``BudgetError`` is
    that of a scan in whole chunks.

    ``b_seq`` must be a 1-D integer word of length n with symbols in
    [0, |B|): another shape is a ``DimensionError``, another dtype or an
    out-of-range symbol a ``ValidationError``.
    """
    _check_config(cfg, codebook)
    try:
        b = np.asarray(b_seq)
    except ValueError as exc:  # ragged
        raise DimensionError(f"the received word must have shape ({cfg.n},), got the ragged {b_seq!r}") from exc
    if b.shape != (cfg.n,):
        raise DimensionError(f"the received word must have shape ({cfg.n},), got {b.shape}")
    size_b = ch.p_joint.shape[1]
    if b.dtype.kind not in "iu" or b.min() < 0 or b.max() >= size_b:
        raise ValidationError(f"the received word must hold integer symbols in [0, {size_b}), got {b}")
    b = b.astype(np.intp, copy=False)
    K, M = cfg.K_pub, cfg.M
    if cfg.decoder == "ML":
        if codebook.is_lazy:
            raise BudgetError(f"ML decoding needs the words in memory, but this codebook of {K * M} words is lazy")
        return divmod(_ml_argmax(b, codebook, ch), M)  # first maximum = lexicographically smallest (k, p)

    v, h = _jt_tables(codebook, ch)
    in_window, low, high = _jt_window(cfg.n, h, cfg.delta)
    cuts = sorted({-(-cfg.n // 4), -(-cfg.n // 2)} - {cfg.n}) if codebook.is_lazy and M >= _JT_STAGE_MIN else []
    hits = []
    for k in range(K):
        cols = v[codebook.outer_words[k], :, b]
        staged = bool(cuts) and codebook.inner_law.all_typical[k]
        stages = _jt_stages(cols, low, high, cuts) if staged else []
        for lo in range(0, M, _JT_BLOCK):
            hi = min(M, lo + _JT_BLOCK)
            ok, stages = _jt_block(codebook, k, lo, hi, cols, in_window, stages)
            hits += [(k, lo + int(idx)) for idx in ok[:2]]
            if len(hits) >= 2:
                return None
            if (codebook.is_lazy and (hi % _JT_CHUNK == 0 or hi == M) and k * M + hi >= JT_SCAN_BUDGET
                    and (hi < M or k < K - 1)):
                raise BudgetError(
                    "joint-typicality scan budget exhausted on a lazy codebook without resolving "
                    "uniqueness; use ML on a smaller codebook or a larger delta"
                )
        if staged:
            cuts = [i for i, _, _ in stages]  # a stage the quarter rule left out stays out for the later messages
    if len(hits) == 1:
        return hits[0]
    return None


# ---------------------------------------------------------------------------
# Error estimation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ErrorEstimate:
    """Empirical decode-error rate with an exact (Clopper-Pearson) 95% interval."""

    error: float
    ci_low: float
    ci_high: float
    trials: int
    failures: int


def _binomial_ci(x: int, n: int, conf: float = 0.95):
    """Clopper-Pearson bounds: P[X >= x | lo] = P[X <= x | hi] = (1 - conf)/2, and hi(x) = 1 - lo(n - x)."""
    a = (1.0 - conf) / 2.0
    lo = 0.0 if x == 0 else _upper_tail_root(x, n, a)
    hi = 1.0 if x == n else 1.0 - _upper_tail_root(n - x, n, a)
    return lo, hi


def _upper_tail_root(x: int, n: int, a: float) -> float:
    """The p with P[X >= x] = a for X ~ Binomial(n, p), 1 <= x <= n.

    P[X >= x] is the CDF of Beta(x, n - x + 1) at p, which is log-concave, so Newton's method on
    log P[X >= x] - log a climbs to the root monotonically from below. It starts at the x = 1 root,
    which is below every other, and stops at the first step that does not climb. The tail is summed
    in log space from lgamma coefficients, relative to its first term P[X = x].
    """
    js = np.arange(x, n + 1)
    log_n = math.lgamma(n + 1)
    coef = np.array([log_n - math.lgamma(j + 1) - math.lgamma(n - j + 1) for j in js.tolist()])
    p, log_a = -math.expm1(math.log1p(-a) / n), math.log(a)
    for _ in range(64):
        logs = coef + js * math.log(p) + (n - js) * math.log1p(-p)
        ratio = float(np.exp(logs - logs[0]).sum())  # P[X >= x] / P[X = x]
        # d/dp log P[X >= x] = x P[X = x] / (p P[X >= x])
        step = p - (float(logs[0]) + math.log(ratio) - log_a) * p * ratio / x
        if step <= p:
            break
        p = step
    return p


def _run_trial(codebook: Codebook, cfg: CodeConfig, ch: ClassicalWiretap, rng: np.random.Generator,
               k: int | None = None):
    """One transmit/decode round; returns (k, p, decoded)."""
    if k is None:
        k = int(rng.integers(cfg.K_pub))
    m = int(rng.integers(cfg.M))
    s = int(rng.integers(cfg.S))
    p = encrypt(m, s, cfg.M)
    a_seq = codebook.word(k, p)
    b_seq = _channel_outputs(ch.cuts_main, a_seq, rng.random(a_seq.size))
    return k, p, decode(b_seq, codebook, cfg, ch)


def estimate_error(cfg: CodeConfig, ch: ClassicalWiretap, codebook: Codebook) -> ErrorEstimate:
    """Fraction of seeded trials where the decoder misses (k, f(m,s))."""
    _check_config(cfg, codebook)
    failures = 0
    for t in range(cfg.trials):
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, _TAG_TRIAL, t]))
        k, p, got = _run_trial(codebook, cfg, ch, rng)
        if got is None or got != (k, p):
            failures += 1
    lo, hi = _binomial_ci(failures, cfg.trials)
    return ErrorEstimate(error=failures / cfg.trials, ci_low=lo, ci_high=hi,
                         trials=cfg.trials, failures=failures)


def per_message_errors(cfg: CodeConfig, ch: ClassicalWiretap, codebook: Codebook) -> tuple[np.ndarray, np.ndarray]:
    """(p_e_pub[k], p_e_priv[k]) estimated with ``cfg.trials`` dedicated trials per public message.

    Public error: decoded public index differs (or outright failure).
    Private error: public index right but the inner index wrong.
    """
    _check_config(cfg, codebook)
    pub = np.zeros(cfg.K_pub)
    priv = np.zeros(cfg.K_pub)
    for k in range(cfg.K_pub):
        for t in range(cfg.trials):
            rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, _TAG_PERMSG, k, t]))
            _, p, got = _run_trial(codebook, cfg, ch, rng, k=k)
            if got is None or got[0] != k:
                pub[k] += 1
            elif got[1] != p:
                priv[k] += 1
    return pub / cfg.trials, priv / cfg.trials


# ---------------------------------------------------------------------------
# Security criterion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SecurityReport:
    """Worst-case (over public message and private message) secrecy distances.

    ``full_criterion`` keeps Eve's view joint with the key register;
    ``message_secrecy`` marginalizes the key. Both are unnormalized L1
    distances in [0, 2]. Monte-Carlo mode carries standard errors.
    ``messages_probed`` counts the distinct (k, m) pairs the maxima range
    over; in Monte-Carlo mode their upward bias grows with it.
    """

    full_criterion: float
    message_secrecy: float
    mode: str
    std_err_full: float | None = None
    std_err_message: float | None = None
    messages_probed: int | None = None


def _eve_product_rows(p_eve: np.ndarray, words: np.ndarray) -> np.ndarray:
    """(R, |E|^n) product laws (p_0·p_1)···p_{n-1} of Eve's outputs given each of the (R, n) words, one broadcast
    per position i: column j·|E| + e of the new table is column j of the last one times p_i(e), so columns are
    prefix-major. The last step holds both tables, 1 + 1/|E| times the result."""
    out = np.ones((len(words), 1))
    for a in words.T:
        out = (out[:, :, None] * p_eve[a][:, None, :]).reshape(len(words), -1)
    return out


def _exact_distances(p_eve: np.ndarray, words: np.ndarray, S: int, ms):
    """Σ|w_p − p̄| for each of the M rows and, if S > 1, Σ|(w_m + ··· + w_{m+S-1})/S − p̄| for each m in ms.

    w_p is Eve's product law given word p (rows mod M) and p̄ their mean. Columns go in blocks of |E|^t that share
    their first n − t symbols: the largest t with M·|E|^t ≤ ``_BLOCK_SYMBOLS``, but |E|^t ≥ 128 unless the whole row
    is shorter. A block is its prefix column times the suffix table (prefix ⊗ suffix), multiplied into one reused
    buffer. Its key mixtures are running windows, one per run of consecutive m in ms: rows m .. m+S-1 summed at the
    run's first m, then each next m adds row m-1+S minus row m-1. Block sums meet in a binary tree, for |E| a power
    of two numpy's pairwise tree over the whole row. Distances agree with a long-double table within 1e-12."""
    (M, n), q = words.shape, p_eve.shape[1]
    t = n
    while t > 0 and M * q ** t > _BLOCK_SYMBOLS:
        t -= 1
    while t < n and q ** t < 128:
        t += 1
    prefix, suffix = _eve_product_rows(p_eve, words[:, : n - t]), _eve_product_rows(p_eve, words[:, n - t:])
    cut = np.flatnonzero(np.diff(ms) > 1) + 1  # where a run of consecutive m ends (np.split makes arrays of ms)
    blk, tmp, mix, pbar = (np.empty(shape) for shape in ((M, q ** t), (M, q ** t), (len(ms) * (S > 1), q ** t), q ** t))
    wins = [(win, np.arange(r[0], r[0] + S), r[1:] + S - 1, r[:-1])  # rows: its mixtures, first, entering, leaving
            for win, r in zip(np.split(mix, cut), np.split(ms, cut))] if S > 1 else []
    parts = np.empty((prefix.shape[1], M + len(mix)))  # per block: the M row sums, then the windows' mixture sums
    for j, part in enumerate(parts):
        np.multiply(prefix[:, j: j + 1], suffix, out=blk)
        np.add.reduce(blk, axis=0, out=pbar)
        pbar /= M  # as w.mean(axis=0)
        np.subtract(blk, pbar, out=tmp)
        np.abs(tmp, out=tmp).sum(axis=1, out=part[:M])
        if wins:
            for win, first, enter, leave in wins:
                np.add.reduce(np.take(blk, first, axis=0, mode="wrap", out=tmp[:S]), axis=0, out=win[0])
                np.take(blk, enter, axis=0, mode="wrap", out=win[1:])
                win[1:] -= np.take(blk, leave, axis=0, mode="wrap", out=tmp[: len(leave)])
                for i in range(1, len(win)):  # window m + 1 = window m + (row m + S − row m); by rows, as
                    np.add(win[i - 1], win[i], out=win[i])  # np.add.accumulate's strided axis-0 loop is ~4x slower
            mix /= S
            mix -= pbar
            np.abs(mix, out=mix).sum(axis=1, out=part[M:])
    while len(parts) > 1:  # adjacent pairs meet level by level; an odd last block moves up unpaired
        even = len(parts) // 2 * 2
        parts = np.concatenate((parts[0: even: 2] + parts[1: even: 2], parts[even:]))
    return parts[0, :M], parts[0, M:]


def security_distance(codebook: Codebook, cfg: CodeConfig, ch: ClassicalWiretap,
                      mode: str = "exact", messages=None) -> SecurityReport:
    """Exact (enumerated) or importance-sampled secrecy distances.

    Exact mode enumerates Eve's |E|^n outcomes over the M words of each
    public message in cache-sized column blocks with running key windows
    (``_exact_distances``), within 1e-12 of a long-double table and with no
    (M, |E|^n) table. Its one limit, (M + S - 1)·|E|^n ≤
    ``EXACT_WORK_BUDGET`` = 2^24, bounds one call's work (n ≤ 23 for a
    binary Eve and M = 2). In either mode each distinct (k, m) is probed
    once. Monte-Carlo mode samples Eve outcomes from the reference mixture
    P̄ and averages |likelihood ratio - 1|, an unbiased L1 estimate for each
    (k, m); the reported maximum of these means over the probed messages is
    biased upward, more so the more messages are probed (the report's
    ``messages_probed``), and is clipped at 2, the largest L1 distance; its
    standard error is that of the winning mean alone, the first given of
    tied means. Each (k, m) draws from its own seeded stream its T keys,
    then its T reference words, then Eve's uniforms in trial order, so the
    trial blocks change no value; its log-likelihoods are sums over exact
    joint-type counts (``_count_scores``). ``messages`` restricts the (k, m)
    pairs probed; by default all pairs are probed, which requires an eagerly
    materialized codebook; an empty list, or an entry that is not a pair of
    integers in [0, K_pub) × [0, M), is a ``ValidationError``.
    """
    if mode not in SECURITY_MODES:
        raise ValidationError(f"mode must be one of {SECURITY_MODES}, got {mode!r}")
    _check_config(cfg, codebook)
    p_eve = ch.p_eve
    n, M, S, K, T = cfg.n, cfg.M, cfg.S, cfg.K_pub, cfg.trials
    if messages is None:
        if codebook.is_lazy:
            raise BudgetError("probing all (k, m) pairs needs an eager codebook; pass `messages`")
        messages = [(k, m) for k in range(K) for m in range(M)]
    messages = _check_messages(messages, cfg)

    if mode == "exact":
        work = (M + S - 1) * ch.size_e ** n
        if work > EXACT_WORK_BUDGET:
            raise BudgetError(f"exact security work (M+S-1)*|E|^n = {work} exceeds the per-call "
                              f"budget 2^{EXACT_WORK_BUDGET.bit_length() - 1}")
        best_full = best_msg = 0.0
        for k, pairs in _groupby(sorted(messages), key=lambda km: km[0]):
            ms = [m for _, m in pairs]
            d_p, d_mix = _exact_distances(p_eve, codebook.inner_block(k, 0, M), S, ms)
            for i, m in enumerate(ms):
                best_full = max(best_full, float(d_p[(m + np.arange(S)) % M].mean()))
                if S > 1:  # with S = 1 the key mixture of m is row m itself, whose distance is d_p[m]
                    best_msg = max(best_msg, float(d_mix[i]))
        return SecurityReport(full_criterion=best_full, message_secrecy=best_msg if S > 1 else best_full,
                              mode="exact", messages_probed=len(messages))

    if codebook.is_lazy:
        raise BudgetError("Monte-Carlo security needs every inner word for the reference mixture; "
                          "lazy codebooks are not supported")
    # math.log and math.exp, not numpy's: its SIMD loops differ from libm's in the last bit on some inputs
    log_eve = [[math.log(p) if p > 0 else -math.inf for p in row] for row in p_eve.tolist()]  # [a][e]
    per = max(1, min(T, _BLOCK_SYMBOLS // max(M, n)))  # (c, M) log-likelihoods, (c, n) uniforms
    best_full, best_msg, masks_k = (-np.inf, 0.0), (-np.inf, 0.0), None
    for k, m in messages:
        words = codebook.inner_block(k, 0, M)
        if k != masks_k:  # each public message's words are packed once
            masks_k, masks = k, _symbol_masks(words, ch.size_a)
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, _TAG_SECURITY, k, m]))
        keys, refs = rng.integers(S, size=T), rng.integers(M, size=T)
        pad = (m + np.arange(S)) % M  # entry s ↦ word f(m, s)
        r_full, r_msg = np.empty(T), np.empty(T)
        for lo in range(0, T, per):  # the uniforms come in trial order: blocks change no value
            c = min(per, T - lo)
            e_seq = _channel_outputs(ch.cuts_eve, words[refs[lo: lo + c]], rng.random((c, n)))
            # ll[p, t] = log p(e_t | word p), transposed into rows per word, so that each reduce folds word after
            # word, left to right as along a trial's row, over all c trials at once
            ll = _count_scores(log_eve, masks, _symbol_masks(e_seq, ch.size_e)).T.copy()
            log_pbar = np.logaddexp.reduce(ll, axis=0) - math.log(M)
            ll_pad = ll[pad]
            log_q = np.logaddexp.reduce(ll_pad, axis=0) - math.log(S)
            r_full[lo: lo + c] = list(map(math.exp, (ll_pad[keys[lo: lo + c], np.arange(c)] - log_pbar).tolist()))
            r_msg[lo: lo + c] = list(map(math.exp, (log_q - log_pbar).tolist()))
        full, msg = [(float(r.mean()), float(r.std(ddof=1) / math.sqrt(T)) if T > 1 else 0.0)
                     for r in (np.abs(r_full - 1.0), np.abs(r_msg - 1.0))]
        best_full = max(best_full, full, key=lambda b: b[0])  # ties keep the earlier message
        best_msg = max(best_msg, msg, key=lambda b: b[0])
    return SecurityReport(full_criterion=min(best_full[0], 2.0), message_secrecy=min(best_msg[0], 2.0),
                          mode="monte_carlo", std_err_full=best_full[1], std_err_message=best_msg[1],
                          messages_probed=len(messages))


# ---------------------------------------------------------------------------
# Expurgation
# ---------------------------------------------------------------------------


def expurgate(codebook: Codebook, per_message_error) -> Codebook:
    """Keep the ceil(K/2) public messages with the smallest summed error.

    ``per_message_error`` is a length-K array of p_e,pub + p_e,priv scores.
    Ties keep the lowest indices. The public-rate loss
    log2(K/ceil(K/2))/n lands in the generation record. K_pub = 1 is a
    no-op with a warning.
    """
    errs = np.asarray(per_message_error, dtype=float)
    K = codebook.config.K_pub
    if errs.shape != (K,):
        raise DimensionError(f"need one error score per public message, got shape {errs.shape}")
    if K == 1:
        warnings.warn("expurgation of a single-public-message codebook is a no-op")
        return codebook
    if codebook.is_lazy:
        raise BudgetError("expurgation needs an eagerly materialized codebook")
    keep_count = math.ceil(K / 2)
    order = np.argsort(errs, kind="stable")  # stable: ties keep lowest index
    kept = np.sort(order[:keep_count])
    rate_loss = math.log2(K / keep_count) / codebook.config.n
    new_cfg = replace(codebook.config, K_pub=keep_count)
    rec = replace(codebook.record,
                  expurgation={"kept": [int(i) for i in kept], "rate_loss_public": rate_loss})
    return replace(codebook, config=new_cfg, outer_words=codebook.outer_words[kept],
                   inner_words=codebook.inner_words[kept], record=rec)
