"""pubpriv benchmark: three workloads, end-to-end metrics, and a traced per-layer run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload region_zoo --seed 7 --seconds 20 --trace 0

Every workload run happens in a fresh, single-threaded interpreter (BLAS and
OpenMP pinned to one thread) that imports the package from ``src/``. There is
no warm-up pass: the first pass starts cold and counts like the others.
Beyond the import, which ``setup_s`` measures, first-call costs are below the
run-to-run noise.

``--trace 0`` measures the end-to-end metrics. ``setup_s`` is the median of
five cold starts (fresh interpreter until ``pubpriv.cli`` is imported and
the inputs are built): four setup-only processes and the workload process.
The workload process repeats passes over the workload's operations until
they have taken ``--seconds``; every pass does the same work.
``peak_rss_mb`` is its peak resident memory, and ``part_a_s``/``part_b_s``
the wall time of the workload's two parts (see README.md for what they are
on each workload). A part's time is the sum over its operations of each
operation's median time across the passes: a shared host's speed changes in
phases of several seconds, and the median of several samples of the same
work is steadier than one sample or the fastest. ``--trace 1`` runs one
pass untraced and one pass traced, in two processes, and reports the
per-layer metrics, the tracing overhead and the span file.

Human-readable lines go first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. The exit
code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("region_zoo", "wiretap_lazy_jt", "wiretap_eager")
SETUP_SAMPLES = 5
RUN_DEADLINE_S = 170  # every process this run starts must end by then

BLAS_PIN = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

# What part_a_s and part_b_s time on each workload, by the names users know.
PART_NAMES = {
    "region_zoo": ("region_s", "skp_s"),
    "wiretap_lazy_jt": ("jt_early_s", "jt_full_s"),
    "wiretap_eager": ("ml_s", "security_s"),
}


class BenchmarkError(Exception):
    """The benchmark itself could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_PIN)
    env["PYTHONPATH"] = SRC
    env.pop("PYTHONHOME", None)
    return env


def time_left(args) -> float:
    return max(1.0, args.deadline - time.monotonic())


def run_child(args, extra: list[str], tag: str, seconds: float = 0.0) -> tuple[dict, float]:
    """Run workloads.py in a fresh interpreter; returns (result, start time)."""
    os.makedirs(OUT, exist_ok=True)
    result_path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-{tag}.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"),
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(seconds),
           "--out-dir", os.path.join(OUT, f"{args.workload}-seed{args.seed}"),
           "--result", result_path] + extra
    start = time.monotonic()
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=time_left(args))
    if proc.returncode != 0 or not os.path.exists(result_path):
        raise BenchmarkError(f"workload process ({tag}) exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    with open(result_path) as fh:
        return json.load(fh), start


def setup_samples(args) -> list[float]:
    """Cold starts of setup-only processes; the workload process adds one more."""
    samples = []
    for i in range(SETUP_SAMPLES - 1):
        res, start = run_child(args, ["--setup-only"], f"setup{i}")
        samples.append(res["ready_monotonic"] - start)
    return samples


def part_times(op_times: dict) -> dict[str, float]:
    """Per part, the sum over its operations of each one's median time across passes."""
    parts = {"a": 0.0, "b": 0.0}
    for part, times in op_times.values():
        if times:
            parts[part] += statistics.median(times)
    return parts


def scipy_import_s(args) -> float:
    """Seconds spent importing scipy modules during `import pubpriv.cli` (-X importtime)."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import pubpriv.cli"],
                          env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=time_left(args))
    if proc.returncode != 0:
        raise BenchmarkError(f"importtime probe failed:\n{proc.stderr[-2000:]}")
    total_us = 0
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+(\d+)\s+\|\s+\d+\s+\|\s+(\S+)", line.strip())
        if m and (m.group(2) == "scipy" or m.group(2).startswith("scipy.")):
            total_us += int(m.group(1))
    return total_us / 1e6


def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return None


def git_sha() -> str | None:
    if not os.path.exists(os.path.join(ROOT, ".git")):  # e.g. an exported checkout
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def machine() -> dict:
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = re.search(r"^model name\s*:\s*(.+)$", cpuinfo, re.M)
    meminfo = _read("/proc/meminfo") or ""
    mem = re.search(r"^MemTotal:\s+(\d+) kB", meminfo, re.M)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model.group(1).strip() if model else platform.processor(),
        "ram_mb": int(mem.group(1)) // 1024 if mem else None,
        "platform": platform.platform(),
    }


def metric_units(trace: int) -> dict[str, str]:
    """Metric name → unit, in the order BENCHMARK.json lists them for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True, help="passed only into OptimizerConfig/CodeConfig seeds")
    ap.add_argument("--seconds", type=float, default=20.0, help="measured time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    args.deadline = time.monotonic() + RUN_DEADLINE_S
    if not os.path.isfile(os.path.join(SRC, "pubpriv", "cli.py")):
        print(f"error: no pubpriv sources under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            plain, _ = run_child(args, [], "untraced")
            traced, _ = run_child(args, ["--trace", "1"], "traced")
            scipy_s = scipy_import_s(args)
        else:
            setups = setup_samples(args)
            plain, start = run_child(args, [], "untraced", args.seconds)
            setups.append(plain["ready_monotonic"] - start)
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    a_name, b_name = PART_NAMES[args.workload]
    if args.trace:
        report = traced
        attempted, failed = traced["attempted"], traced["failed"]
        values = dict(traced["layers"])
        values["cli.import_s"] = traced["import_s"]
        values["cli.import.scipy_s"] = scipy_s
        values["region.gap_bits"] = traced["extras"].get("region_gap_bits", 0.0)
        values["trace.overhead_s"] = traced["run_s"] - plain["run_s"]
        if traced["rows_sha256"] != plain["rows_sha256"]:
            report["failures"].append("tracing changed the emitted rows")
            failed += 1
    else:
        report = plain
        attempted, failed = plain["attempted"], plain["failed"]
        parts = part_times(plain["op_times"])
        values = {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": plain["peak_rss_mb"],
            "part_a_s": parts["a"],
            "part_b_s": parts["b"],
        }
    units = metric_units(args.trace)
    if set(values) != set(units):
        print(f"error: measured {sorted(values)}, BENCHMARK.json lists {sorted(units)}", file=sys.stderr)
        return 2
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    manifest = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "machine": machine(),
        "versions": plain["versions"],
        "blas_pin": BLAS_PIN,
        "rows_sha256": plain["rows_sha256"],
        "rows_csv": os.path.relpath(plain["rows_csv"], ROOT),
        "failures": report["failures"],
        "metrics": metrics,
    }
    if args.trace:
        manifest["traced_rows_sha256"] = traced["rows_sha256"]
        manifest["spans_csv"] = os.path.relpath(traced["spans_csv"], ROOT)
    else:
        manifest["setup_samples_s"] = setups
        manifest["passes"] = plain["passes"]
        manifest["op_times_s"] = plain["op_times"]
    manifest_path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.manifest.json")
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"(manifest {os.path.relpath(manifest_path, ROOT)})")
    if not args.trace:
        named = {a_name: parts["a"], b_name: parts["b"]}
        for name, value in named.items():
            print(f"  {name:<28} {value:12.4f} s")
        if "region_gap_bits" in plain["extras"]:
            print(f"  {'region_gap_bits':<28} {plain['extras']['region_gap_bits']:12.4f} bits")
    print(f"  {'failed_frac':<28} {failed / attempted:12.4f} ratio  ({failed} of {attempted})")
    for name, m in metrics.items():
        print(f"  {name:<28} {m['value']:12.4f} {m['unit']}")
    print(f"  {'rows_sha256':<28} {plain['rows_sha256']}")
    for line in report["failures"]:
        print(f"  FAILED {line}")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
