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
    assert metrics["region.score_evals"] == metrics["entropics.build_cq_state.calls"] > 1
