"""Span tracing of pubpriv's layers from outside the package.

The package imports names with ``from … import``, so every function is
wrapped where it is looked up: a caller in module ``m`` resolves ``f``
through ``m.f`` at call time, and replacing that attribute routes the call
through a span. Spans are kept in memory and written out when the run ends.
Each span records its id, parent span id, name, start, end and the id of the
benchmark operation it belongs to. Self time is a span's duration minus the
time its child spans cover (one thread, so children never overlap).
"""

from __future__ import annotations

import csv
import itertools
import time
from collections import defaultdict

import pubpriv.channels as channels
import pubpriv.cli as cli
import pubpriv.entropics as entropics
import pubpriv.qcore as qcore
import pubpriv.region as region
import pubpriv.resources as resources
import pubpriv.wiretap as wiretap

# The mutual informations region imports; one_shot_constraints and
# skp_constraints call them through region's namespace.
INFO_FUNCTIONS = (
    "mutual_info_XB",
    "mutual_info_XE",
    "cond_mutual_info_YB_given_X",
    "cond_mutual_info_YE_given_X",
)


class Tracer:
    """In-memory span store plus the counters measured at the same boundaries."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.op = 0  # id of the running benchmark operation; negative pauses tracing
        self._ids = itertools.count(1)
        self._stack = [0]
        self.counts: dict[str, int] = defaultdict(int)
        self._codebooks: dict[int, int] = {}
        self._keep_alive: list = []
        self._word_ranges: dict[tuple, list] = defaultdict(list)

    def span(self, name: str, fn):
        """Wrap ``fn`` so each call records one span called ``name``."""
        spans, stack, ids, perf = self.spans, self._stack, self._ids, time.perf_counter

        def traced(*args, **kwargs):
            if self.op < 0:
                return fn(*args, **kwargs)
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                spans.append((sid, parent, name, t0, t1, self.op))

        return traced

    # -- codeword bookkeeping ---------------------------------------------

    def _codebook_id(self, cb) -> int:
        key = id(cb)
        if key not in self._codebooks:
            self._codebooks[key] = len(self._codebooks)
            self._keep_alive.append(cb)  # keeps id(cb) unique for the run
        return self._codebooks[key]

    def words_generated(self, cb, k: int, lo: int, hi: int):
        if self.op < 0:
            return
        self.counts["codegen.words"] += hi - lo
        self._word_ranges[(self._codebook_id(cb), k)].append((lo, hi))

    def distinct_words(self) -> int:
        total = 0
        for ranges in self._word_ranges.values():
            end = -1
            for lo, hi in sorted(ranges):
                lo = max(lo, end)
                if hi > lo:
                    total += hi - lo
                    end = hi
        return total

    # -- installation --------------------------------------------------------

    def install(self):
        """Route every measured layer boundary through this tracer."""
        s = self.span

        # qcore: entropies and partial traces where entropics/channels look them up.
        entropics.von_neumann_entropy = s("qcore.entropy", entropics.von_neumann_entropy)
        entropics.partial_trace = s("qcore.partial_trace", entropics.partial_trace)
        channels.partial_trace = s("qcore.partial_trace", channels.partial_trace)
        post_init = qcore.DensityOperator.__post_init__

        def counted_post_init(rho):
            if rho.validate and self.op >= 0:
                self.counts["qcore.validated_states"] += 1
            post_init(rho)

        qcore.DensityOperator.__post_init__ = counted_post_init

        # channels
        channels.IsometricExtension.evolve = s("channels.evolve", channels.IsometricExtension.evolve)
        cli.zoo = s("channels.build", cli.zoo)
        cli.isometric_extension = s("channels.build", cli.isometric_extension)

        # entropics, as region calls it
        region.build_cq_state = s("entropics.build_cq_state", region.build_cq_state)
        for name in INFO_FUNCTIONS:
            setattr(region, name, s("entropics.info", getattr(region, name)))

        # region
        region.one_shot_constraints = s("region.score", region.one_shot_constraints)
        optimize = s("region.optimize", region.optimize_region)

        def counted_optimize(*args, **kwargs):
            res = optimize(*args, **kwargs)
            if self.op >= 0:
                self.counts["region.converged"] += bool(res.converged)
            return res

        region.optimize_region = counted_optimize
        cli.pareto_surface = s("region.sweep", cli.pareto_surface)

        # resources
        resources.derive_otp_combination = s("resources.derive", resources.derive_otp_combination)
        resources.replay_transcript = s("resources.replay", resources.replay_transcript)

        # cli
        cli.main = s("cli.main", cli.main)

        # wiretap: codeword generation
        generate = s("wiretap.codegen", wiretap.generate_codebook)

        def counted_generate(cfg, ch, law):
            cb = generate(cfg, ch, law)
            if not cb.is_lazy:
                for k in range(cb.inner_words.shape[0]):
                    self.words_generated(cb, k, 0, cb.inner_words.shape[1])
            return cb

        wiretap.generate_codebook = counted_generate
        inner_block = wiretap.Codebook.inner_block
        lazy_block = s("wiretap.codegen", inner_block)

        def counted_inner_block(cb, k, lo, hi):
            if not cb.is_lazy:  # a slice of stored words: nothing is generated
                return inner_block(cb, k, lo, hi)
            self.words_generated(cb, k, lo, hi)
            return lazy_block(cb, k, lo, hi)

        wiretap.Codebook.inner_block = counted_inner_block

        # wiretap: decoding and the trial loops around it
        decode = s("wiretap.decode", wiretap.decode)

        def counted_decode(*args, **kwargs):
            got = decode(*args, **kwargs)
            if self.op >= 0:
                self.counts["decode.none"] += got is None
            return got

        wiretap.decode = counted_decode
        wiretap.estimate_error = s("wiretap.trial", wiretap.estimate_error)
        wiretap.per_message_errors = s("wiretap.trial", wiretap.per_message_errors)

        # wiretap: security distances, split by mode
        exact = s("wiretap.security.exact", wiretap.security_distance)
        mc = s("wiretap.security.mc", wiretap.security_distance)

        def security_distance(codebook, cfg, ch, mode="exact", messages=None):
            fn = exact if mode == "exact" else mc
            return fn(codebook, cfg, ch, mode=mode, messages=messages)

        wiretap.security_distance = security_distance

    # -- reporting -----------------------------------------------------------

    def summary(self) -> dict[str, tuple[int, float, float]]:
        """name → (calls, inclusive seconds, self seconds)."""
        child = defaultdict(float)
        for sid, parent, _, t0, t1, _ in self.spans:
            child[parent] += t1 - t0
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for sid, _, name, t0, t1, _ in self.spans:
            row = out[name]
            row[0] += 1
            row[1] += t1 - t0
            row[2] += (t1 - t0) - child.get(sid, 0.0)
        return {k: tuple(v) for k, v in out.items()}

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics by the names BENCHMARK.json lists (no unit)."""
        sm = self.summary()

        def calls(name):
            return sm.get(name, (0, 0.0, 0.0))[0]

        def incl(name):
            return sm.get(name, (0, 0.0, 0.0))[1]

        def self_s(name):
            return sm.get(name, (0, 0.0, 0.0))[2]

        def ratio(a, b):
            return a / b if b else 0.0

        c = self.counts
        points = calls("region.optimize")
        evals = calls("region.score")
        words = c["codegen.words"]
        return {
            "qcore.entropy.calls": calls("qcore.entropy"),
            "qcore.entropy.self_s": self_s("qcore.entropy"),
            "qcore.partial_trace.calls": calls("qcore.partial_trace"),
            "qcore.partial_trace.self_s": self_s("qcore.partial_trace"),
            "qcore.validated_states": c["qcore.validated_states"],
            "channels.evolve.calls": calls("channels.evolve"),
            "channels.evolve.self_s": self_s("channels.evolve"),
            "entropics.build_cq_state.calls": calls("entropics.build_cq_state"),
            "entropics.build_cq_state.self_s": self_s("entropics.build_cq_state"),
            "entropics.info.calls": calls("entropics.info"),
            "entropics.info.self_s": self_s("entropics.info"),
            "region.points": points,
            "region.score_evals": evals,
            "region.evals_per_point": ratio(evals, points),
            "region.score_eval_ms": 1000.0 * ratio(incl("region.score"), evals),
            "region.self_s": self_s("region.optimize"),
            "region.converged_frac": ratio(c["region.converged"], points),
            "resources.derive.calls": calls("resources.derive"),
            "resources.derive.self_s": self_s("resources.derive"),
            "resources.replay.self_s": self_s("resources.replay"),
            "cli.self_s": self_s("cli.main"),
            "wiretap.codegen.words": words,
            "wiretap.codegen.distinct_frac": ratio(self.distinct_words(), words),
            "wiretap.codegen.self_s": self_s("wiretap.codegen"),
            "wiretap.decode.calls": calls("wiretap.decode"),
            "wiretap.decode.self_s": self_s("wiretap.decode"),
            "wiretap.decode.none_frac": ratio(c["decode.none"], calls("wiretap.decode")),
            "wiretap.trial.self_s": self_s("wiretap.trial"),
            "wiretap.security.exact_s": incl("wiretap.security.exact"),
            "wiretap.security.mc_s": incl("wiretap.security.mc"),
            "trace.spans": len(self.spans),
        }

    def write_spans(self, path):
        """Write every span as CSV: id, parent, name, start_s, end_s, op."""
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(("id", "parent", "name", "start_s", "end_s", "op"))
            w.writerows(self.spans)
