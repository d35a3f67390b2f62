"""perfbench's tracer still wraps the layers it names: a change to a function it routes through a span
would otherwise leave the benchmark's per-layer counts silently at zero."""

import json
import subprocess
import sys
from pathlib import Path

from conftest import cli_env

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Run in a child: `Tracer.install` rebinds module attributes for the rest of the process.
TRACED_POINT = f"""
import json, sys
sys.path.insert(0, {str(PERFBENCH)!r})
from tracing import Tracer
import pubpriv.cli as cli
tracer = Tracer()
tracer.install()
code = cli.main(["region", "--zoo", "dephasing", "--p", "0.5", "--weights", "1,0", "--alphabet-x", "2",
                 "--alphabet-y", "2", "--restarts", "1", "--max-iters", "20", "--out", "r.csv"])
print(json.dumps({{"code": code, **tracer.layer_metrics()}}))
"""


def test_tracer_counts_one_score_span_per_evaluation(tmp_path):
    r = subprocess.run([sys.executable, "-c", TRACED_POINT], cwd=tmp_path, capture_output=True, text=True,
                       env=cli_env(), timeout=300)
    assert r.returncode == 0, r.stderr
    metrics = json.loads(r.stdout.splitlines()[-1])
    assert metrics["code"] == 0
    assert metrics["region.points"] == 1
    # The candidates are scored on plain arrays (entropics.staged_infos), so the score and build spans count the
    # witness checks, one here (the witness is not Y-collapsed); the state stages of candidates and witness alike
    # still go through the evolve and partial-trace spans.
    assert metrics["region.score_evals"] == metrics["entropics.build_cq_state.calls"] == 1
    assert metrics["channels.evolve.calls"] > metrics["region.score_evals"]
    assert metrics["qcore.partial_trace.calls"] == 2 * metrics["channels.evolve.calls"]


# An eager ML codebook through estimate_error and an exact and a Monte-Carlo security distance, then a lazy JT
# codebook and a lazy two-layer JT codebook, whose words are regenerated per public message.
TRACED_WIRETAP = f"""
import json, sys
sys.path.insert(0, {str(PERFBENCH)!r})
from tracing import Tracer
import pubpriv.wiretap as wt
tracer = Tracer()
tracer.install()
ch = wt.ClassicalWiretap.bsc_pair(0.05, 0.2)
eager_cfg = wt.CodeConfig(n=12, M=64, delta=0.5, seed=1, decoder="ML", trials=25)
eager = wt.generate_codebook(eager_cfg, ch, [0.5, 0.5])
wt.estimate_error(eager_cfg, ch, eager)
wt.security_distance(eager, eager_cfg, ch, mode="exact")
wt.security_distance(eager, eager_cfg, ch, mode="monte_carlo", messages=[(0, 0), (0, 1)])
wt.EAGER_WORD_LIMIT = 16
lazy_cfg = wt.CodeConfig(n=12, M=40, delta=0.5, seed=2, decoder="joint_typicality", trials=5)
lazy = wt.generate_codebook(lazy_cfg, ch, [0.5, 0.5])
wt.estimate_error(lazy_cfg, ch, lazy)
two_cfg = wt.CodeConfig(n=12, M=10, K_pub=2, delta=0.5, seed=3, decoder="joint_typicality", trials=6)
two = wt.generate_codebook(two_cfg, ch, ([0.5, 0.5], [[0.85, 0.15], [0.15, 0.85]]))
wt.estimate_error(two_cfg, ch, two)
print(json.dumps({{"lazy": [eager.is_lazy, lazy.is_lazy, two.is_lazy], **tracer.layer_metrics()}}))
"""


def test_tracer_counts_wiretap_words_decodes_and_security(tmp_path):
    r = subprocess.run([sys.executable, "-c", TRACED_WIRETAP], cwd=tmp_path, capture_output=True, text=True,
                       env=cli_env(), timeout=300)
    assert r.returncode == 0, r.stderr
    metrics = json.loads(r.stdout.splitlines()[-1])
    assert metrics["lazy"] == [False, True, True]
    assert metrics["wiretap.codegen.words"] >= 64
    assert metrics["wiretap.decode.calls"] == 25 + 5 + 6
    assert metrics["wiretap.security.exact_s"] > 0
    assert metrics["wiretap.security.mc_s"] > 0
    assert 0 < metrics["wiretap.codegen.distinct_frac"] <= 1
