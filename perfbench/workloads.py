"""One workload run in a fresh, single-threaded interpreter.

Started by ``run.py`` as ``python3 perfbench/workloads.py --workload NAME
--seed N --seconds S --trace 0|1 --out-dir DIR --result FILE``. The process
imports ``pubpriv.cli``, builds the workload's inputs, and runs passes over
its operations until the operations have taken S seconds (one pass when S
is 0). Each operation is timed on its own and tagged with part ``a`` or
``b``; every output of every pass is checked, and a JSON result file is
written. With ``--setup-only`` it stops after the inputs are built and only
reports the time it got there. One pass takes 4 to 6 s on a 2-CPU x86
sandbox.

The seed reaches the package only through ``OptimizerConfig.seed`` (the
``--seed`` flag of ``region``/``skp``) and ``CodeConfig.seed``. Operations
of the two parts are interleaved so that both parts of a run see the same
machine conditions.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import math
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

# Reduced optimizer budgets; skp points are cheap (1x4 alphabets), so they get
# a larger budget, which keeps the skp part long enough to time.
OPTIMIZER_FLAGS = {
    "region": ["--restarts", "2", "--max-iters", "8"],
    "skp": ["--restarts", "2", "--max-iters", "25"],
}


class Op:
    """One benchmark operation: a region/skp point, a simulate row or a security call."""

    def __init__(self, part: str, label: str, run, check):
        self.part, self.label, self.run, self.check = part, label, run, check


def _fmt(v) -> str:
    import numpy as np

    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


# ---------------------------------------------------------------------------
# region_zoo: region and skp points through cli.main, then derivations
# ---------------------------------------------------------------------------

# Closed-form optima of the weighted objective (see perfbench/README.md).
KNOWN_OPTIMA = {
    ("region", "dephasing", 0.0, (1.0, 0.0)): 1.0,
    ("region", "dephasing", 0.5, (1.0, 0.0)): 1.0,
    ("region", "erasure", 0.0, (1.0, 0.0)): 0.7,  # (1-p) log2 d
    ("region", "erasure", 0.0, (0.0, 1.0)): 0.4,  # (1-2p) log2 d, degradable
    ("skp", "dephasing", 0.0, (0.0, 1.0)): 1.0 - (-(0.25 * math.log2(0.25) + 0.75 * math.log2(0.75))),
    ("skp", "dephasing", 1.0, (0.0, 1.0)): 1.0,
    ("skp", "depolarizing", 1.0, (0.0, 1.0)): 1.0 - (-(0.15 * math.log2(0.15) + 0.85 * math.log2(0.85))),
}


def region_zoo(seed: int, out_dir: str):
    import pubpriv.cli as cli
    import pubpriv.region as region
    import pubpriv.resources as resources
    from pubpriv.channels import isometric_extension, zoo

    captured = []
    pareto_surface = cli.pareto_surface

    def capture(*args, **kwargs):
        samples = pareto_surface(*args, **kwargs)
        captured.extend(samples)
        return samples

    cli.pareto_surface = capture

    channels = {"dephasing": 0.5, "erasure": 0.3, "depolarizing": 0.3}
    isos = {name: isometric_extension(zoo(name, p=p)) for name, p in channels.items()}
    region_points = [("dephasing", rs, w) for rs in (0.0, 0.5) for w in ((1.0, 0.0), (1.0, 1.0))]
    region_points += [("erasure", 0.0, w) for w in ((1.0, 0.0), (0.0, 1.0))]
    # depolarizing(0.3) at R_S=0 is left out: it fails is_in_one_shot_region on
    # every seed (README.md, "Disclosed defects", 3).
    skp_points = [(name, rs, (0.0, 1.0)) for name in ("depolarizing", "dephasing") for rs in (0.0, 0.5, 1.0)
                  if (name, rs) != ("depolarizing", 0.0)]
    gaps = {}  # label → closed form − achieved objective

    def point(cmd, name, rs, w):
        label = f"{cmd}-{name}-rs{rs:g}-w{w[0]:g},{w[1]:g}"
        out = os.path.join(out_dir, label + ".csv")
        argv = [cmd, "--zoo", name, "--p", str(channels[name]), "--rs", f"{rs:g}"]
        if cmd == "region":
            argv += ["--weights", f"{w[0]:g},{w[1]:g}"]
        argv += OPTIMIZER_FLAGS[cmd] + ["--seed", str(seed), "--out", out]

        def run():
            captured.clear()
            t0 = time.perf_counter()
            rc = cli.main(argv)
            elapsed = time.perf_counter() - t0
            samples = list(captured)
            derivations = []
            for s in samples:
                rc_abc = s.result.constraints
                tr = resources.derive_otp_combination(rc_abc.a, rc_abc.b, rc_abc.c)
                derivations.append((tr, resources.replay_transcript(tr)))
            return elapsed, (rc, samples, derivations)

        def check(data):
            rc, samples, derivations = data
            if rc != 0:
                return [f"exit code {rc}"], []
            errors = []
            if len(samples) != 1:
                errors.append(f"expected one sample, got {len(samples)}")
            with open(out, newline="") as fh:
                rows = list(csv.reader(fh))
            for s, row in zip(samples, rows[1:]):
                res = s.result
                again = region.one_shot_constraints(res.ensemble, isos[name])
                got = (again.a, again.b, again.c)
                want = (res.constraints.a, res.constraints.b, res.constraints.c)
                if got != want:
                    errors.append(f"witness re-evaluates to {got}, row has {want}")
                if not region.is_in_one_shot_region(res.achieved, res.constraints):
                    errors.append(f"achieved {res.achieved} outside the region of its witness")
                if cmd == "region":
                    emitted = tuple(float(v) for v in row[3:8])
                    expect = (res.achieved.R, res.achieved.P) + want
                else:
                    emitted = tuple(float(v) for v in row[1:4])
                    expect = (res.achieved.P, want[1], want[2])
                if emitted != expect:
                    errors.append(f"CSV row {emitted} differs from the result {expect}")
                key = (cmd, name, rs, w)
                if key in KNOWN_OPTIMA:
                    gaps[label] = KNOWN_OPTIMA[key] - res.objective
            for tr, replayed in derivations:
                if replayed != tr.final:
                    errors.append(f"replay ends at {replayed.render()}, transcript at {tr.final.render()}")
            return errors, [[label] + r for r in rows[1:]]

        return Op("a" if cmd == "region" else "b", label, run, check)

    regions = [point("region", *p) for p in region_points]
    skps = [point("skp", *p) for p in skp_points]
    # Alternate so both parts span the run.
    ops = [op for pair in itertools.zip_longest(regions, skps) for op in pair if op is not None]
    extras = {"region_gap_bits": lambda: sum(gaps.values())}
    return ops, extras


# ---------------------------------------------------------------------------
# Wiretap workloads
# ---------------------------------------------------------------------------


class DecodeLog:
    """Records (received word, decoded value) for each decode call, for checks."""

    def __init__(self, wt):
        self.calls = []
        decode = wt.decode

        def logged(b_seq, codebook, cfg, ch):
            got = decode(b_seq, codebook, cfg, ch)
            self.calls.append((b_seq, got))
            return got

        wt.decode = logged

    def take(self):
        calls, self.calls = self.calls, []
        return calls


def _sim_row(label, cfg, est):
    return [label, cfg.n, cfg.M, cfg.S, cfg.K_pub, cfg.delta, cfg.decoder, cfg.trials,
            est.error, est.ci_low, est.ci_high, cfg.seed]


def wiretap_lazy_jt(seed: int, out_dir: str):
    import numpy as np
    import pubpriv.wiretap as wt

    log = DecodeLog(wt)
    check_rng = np.random.default_rng(0)  # picks which ids to re-generate; not the workload seed

    def spec(label, flips, src, M, delta, trials):
        ch = wt.ClassicalWiretap.bsc_pair(*flips)
        cfg = wt.CodeConfig(n=40, M=M, S=1, delta=delta, seed=seed, decoder="joint_typicality", trials=trials)
        part = "a" if label.startswith("early") else "b"

        def run():
            log.take()
            t0 = time.perf_counter()
            cb = wt.generate_codebook(cfg, ch, src)
            est = wt.estimate_error(cfg, ch, cb)
            return time.perf_counter() - t0, (cb, est, log.take())

        def check(data):
            cb, est, calls = data
            errors = []
            if not cb.is_lazy:
                errors.append("expected a lazy codebook")
            for lo in check_rng.integers(0, M - 16, size=3):
                block = cb.inner_block(0, int(lo), int(lo) + 16)
                for i in range(16):
                    if not np.array_equal(block[i], cb.word(0, int(lo) + i)):
                        errors.append(f"inner_block id {int(lo) + i} differs from word()")
            q = np.asarray(src)[:, None] * ch.p_main
            h = float(-(q[q > 0] * np.log2(q[q > 0])).sum())
            with np.errstate(divide="ignore"):
                surprisal = -np.log2(q)
            for b, got in calls:
                if got is None:
                    continue
                rate = float(surprisal[cb.word(*got), b].sum()) / cfg.n
                if abs(rate - h) > cfg.delta + 1e-12:
                    errors.append(f"JT hit {got} scores {rate:.6f}, outside {h:.6f} ± {cfg.delta}")
            if len(calls) != cfg.trials:
                errors.append(f"{len(calls)} decodes for {cfg.trials} trials")
            return errors, [_sim_row(label, cfg, est)]

        return Op(part, label, run, check)

    ops = [
        spec("early-uniform", (0.11, 0.5), [0.5, 0.5], 2 ** 36, 0.3, 3),
        spec("full-scan", (0.05, 0.5), [0.5, 0.5], 2 ** 20 + 1, 0.3, 1),
        # At δ=0.3 this source leaves some received words with few window hits,
        # so a trial's scan length swings from 1 chunk to the JT scan budget
        # between seeds. At δ=0.5 two hits land in the first chunk, and the
        # pruned source still rejects about 1e-4 of its draws.
        spec("early-rejection", (0.11, 0.5), [0.8, 0.2], 2 ** 36, 0.5, 3),
    ]
    return ops, {}


def wiretap_eager(seed: int, out_dir: str):
    import numpy as np
    import pubpriv.wiretap as wt

    log = DecodeLog(wt)
    ch = wt.ClassicalWiretap.bsc_pair(0.05, 0.2)
    log_main = np.log(ch.p_main)

    def check_ml(cb, calls, samples=10):
        """Brute-force argmax of Σ log p(b|a) over every (k, p) on sampled trials."""
        errors = []
        words = cb.inner_words  # (K, M, n)
        step = max(1, len(calls) // samples)
        for b, got in calls[::step]:
            ll = log_main[words, b].sum(axis=-1)
            k, p = divmod(int(np.argmax(ll.ravel())), words.shape[1])
            if got != (k, p):
                errors.append(f"decode gave {got}, brute-force ML gives {(k, p)}")
        return errors

    def ml(label, law, **kw):
        cfg = wt.CodeConfig(n=40, seed=seed, decoder="ML", **kw)

        def run():
            log.take()
            t0 = time.perf_counter()
            cb = wt.generate_codebook(cfg, ch, law)
            if cfg.K_pub == 1:
                result = wt.estimate_error(cfg, ch, cb)
            else:
                pub, priv = wt.per_message_errors(cfg, ch, cb)
                result = (pub, priv, wt.expurgate(cb, pub + priv))
            return time.perf_counter() - t0, (cb, result, log.take())

        def check(data):
            cb, result, calls = data
            errors = check_ml(cb, calls)
            if cfg.K_pub == 1:
                rows = [_sim_row(label, cfg, result)]
            else:
                pub, priv, kept = result
                rows = [[label, k, pub[k], priv[k]] for k in range(cfg.K_pub)]
                rows.append([label, "kept"] + kept.record.expurgation["kept"])
            return errors, rows

        return Op("a", label, run, check)

    def security(label, n, M, S, mode, trials=1):
        cfg = wt.CodeConfig(n=n, M=M, S=S, delta=0.5, seed=seed, trials=trials)

        def run():
            cb = wt.generate_codebook(cfg, ch, [0.5, 0.5])
            t0 = time.perf_counter()
            rep = wt.security_distance(cb, cfg, ch, mode=mode)
            return time.perf_counter() - t0, rep

        def check(rep):
            errors = []
            values = (rep.full_criterion, rep.message_secrecy)
            if mode == "exact" and not all(0.0 <= v <= 2.0 for v in values):
                errors.append(f"exact distances {values} outside [0, 2]")
            if mode != "exact" and not all(math.isfinite(v) and v >= 0.0 for v in values):
                errors.append(f"Monte-Carlo distances {values} not finite and nonnegative")
            if mode == "exact" and S == M and rep.message_secrecy > 1e-12:
                errors.append(f"full-key message secrecy {rep.message_secrecy:.3e} > 1e-12")
            return errors, [[label, n, M, S, mode, trials, *values, rep.std_err_full, rep.std_err_message]]

        return Op("b", label, run, check)

    two_layer = (np.array([0.5, 0.5]), np.array([[0.85, 0.15], [0.15, 0.85]]))
    ops = [
        ml("ml-uniform-4096", [0.5, 0.5], M=4096, trials=300),
        security("exact-n16-fullkey", 16, 64, 64, "exact"),
        ml("ml-rejection-65536", [0.8, 0.2], M=2 ** 16, delta=0.1, trials=60),
        security("exact-n20", 20, 16, 1, "exact"),
        ml("ml-two-layer", two_layer, M=64, S=8, K_pub=16, delta=0.3, trials=30),
        security("exact-n16", 16, 64, 1, "exact"),
        security("mc-n32", 32, 64, 1, "monte_carlo", trials=200),
    ]
    return ops, {}


WORKLOADS = {"region_zoo": region_zoo, "wiretap_lazy_jt": wiretap_lazy_jt, "wiretap_eager": wiretap_eager}


# ---------------------------------------------------------------------------
# Process entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    import pubpriv.cli  # noqa: F401  (the CLI cold start is what setup_s measures)

    import_s = time.perf_counter() - t0
    os.makedirs(args.out_dir, exist_ok=True)
    ops, extras = WORKLOADS[args.workload](args.seed, args.out_dir)
    ready = time.monotonic()
    result = {"ready_monotonic": ready, "import_s": import_s}
    if args.setup_only:
        with open(args.result, "w") as fh:
            json.dump(result, fh)
        return 0

    import numpy as np
    import scipy

    tracer = None
    if args.trace:
        sys.path.insert(0, HERE)
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    def trace_op(i):
        if tracer is not None:
            tracer.op = i  # -1 keeps the checks out of the trace

    op_times = {op.label: [op.part, []] for op in ops}  # seconds of each run that did not raise
    run_s, failed, failures, rows, passes = 0.0, 0, [], None, 0
    while passes == 0 or run_s < args.seconds:
        pass_rows = []
        for i, op in enumerate(ops):
            trace_op(i)
            t0 = time.perf_counter()
            try:
                elapsed, data = op.run()
            except Exception as exc:  # a failed operation is counted, not fatal
                errs, op_rows = [f"{type(exc).__name__}: {exc}"], []
            else:
                op_times[op.label][1].append(elapsed)
                run_s += time.perf_counter() - t0
                trace_op(-1)
                try:
                    errs, op_rows = op.check(data)
                except Exception as exc:
                    errs, op_rows = [f"check raised {type(exc).__name__}: {exc}"], []
            pass_rows += op_rows
            if errs:
                failed += 1
                failures += [f"pass {passes}, {op.label}: {e}" for e in errs[:3]]
        if rows is None:
            rows = pass_rows
        elif pass_rows != rows:
            failed += 1
            failures.append(f"pass {passes} emitted other rows than pass 0")
        passes += 1

    csv_path = os.path.join(args.out_dir, "rows.csv")
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerows([_fmt(v) for v in row] for row in rows)
    with open(csv_path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()

    result.update(
        op_times=op_times,
        passes=passes,
        attempted=len(ops) * passes,
        failed=failed,
        failures=failures,
        run_s=run_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        rows_sha256=digest,
        rows_csv=csv_path,
        versions={"python": sys.version.split()[0], "numpy": np.__version__, "scipy": scipy.__version__},
        extras={k: fn() for k, fn in extras.items()},
    )
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        spans_path = os.path.join(args.out_dir, "spans.csv")
        tracer.write_spans(spans_path)
        result["spans_csv"] = spans_path
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
