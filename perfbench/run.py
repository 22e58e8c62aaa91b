"""cremona-kit benchmark: one seeded workload, end-to-end or traced.

    python3 perfbench/run.py --workload relators --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from src/.
--trace 0 prints the end-to-end metrics: setup_s (median of SETUP_SAMPLES
fresh processes, spawn to first op ready), ops_per_s, op_p50_ms and
op_p90_ms (Harrell-Davis estimates), fail_ratio and peak_rss_mb.  --trace 1 runs the workload once
untraced and once traced, each in a fresh process, and prints the
per-layer metrics of layers.py plus trace.overhead.  HOLDOUT_SEED is the
seed kept for checking a claim on unseen inputs: --seed 424242.
Untimed probes on an input class with a known program defect (see
wl_algebra.probes) print KNOWN DEFECT lines; they are not failed ops.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from layers import per_layer_metrics  # noqa: E402
from tracer import metrics as layer_metrics  # noqa: E402
from worker import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 9  # half before the timed run, half after it
HOLDOUT_SEED = 424242
RUN_BUDGET_S = 170  # a run ends within 180 s even if an op hangs
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


class BenchError(Exception):
    pass


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args()


def _env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"  # runs differ by their inputs only, not by hash layout
    return env


def spawn(root, args, trace=False, setup_only=False):
    """One fresh worker: (seconds from spawn to READY, parsed result)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=_env(root), stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - start
        rest, _ = proc.communicate(timeout=max(1.0, args.deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if first.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"worker for {args.workload} failed (exit {proc.returncode})")
    if setup_only:
        return ready, None
    return ready, json.loads(rest.strip().splitlines()[-1])


def hd_quantile(values, p):
    """Harrell-Davis estimate of the p-quantile: the order statistics
    weighted by the Beta((n+1)p, (n+1)(1-p)) mass of each rank's interval.
    Steadier than one order statistic when op costs form clusters with
    gaps between them."""
    xs = sorted(values)
    n = len(xs)
    steps = 8  # Simpson panels per rank interval
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(t):
        if t <= 0.0 or t >= 1.0:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))

    total = weighted = 0.0
    for i, x in enumerate(xs):  # Simpson's rule on [i/n, (i+1)/n]
        h = 1.0 / (n * steps)
        w = sum((1 if k in (0, steps) else 4 if k % 2 else 2) * density(i / n + k * h)
                for k in range(steps + 1)) * h / 3
        total += w
        weighted += w * x
    return weighted / total


def percentiles(latencies):
    """p50, p90, the ops above p90 and the latencies around its rank."""
    p50, p90 = hd_quantile(latencies, 0.5), hd_quantile(latencies, 0.9)
    ordered = sorted(latencies)
    rank = int(0.9 * (len(ordered) - 1))
    return p50, p90, ordered[max(0, rank - 1): rank + 3], sum(1 for x in ordered if x > p90)


def provenance(root, args, result, extra):
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "cremona_kit")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + fh.read())
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10).stdout.strip() or "unknown"
    except OSError:
        rev = "unknown"
    out = {
        "workload": args.workload, "seed": args.seed, "holdout_seed": HOLDOUT_SEED,
        "seconds": args.seconds, "trace": args.trace,
        "python": result["python"], "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(), "loadavg": os.getloadavg(),
        "git_revision": rev, "source_sha256": digest.hexdigest(),
        "ops_by_kind": {k: result["kinds"].count(k) for k in sorted(set(result["kinds"]))},
        "inputs": result["inputs"],
        "failures": result["failures"],
        "probes": result["probes"],
        "known_defects": len(result["known_defects"]),
    }
    out.update(extra)
    return out


def end_to_end(root, args):
    before = (SETUP_SAMPLES - 1) // 2
    setups = [spawn(root, args, setup_only=True)[0] for _ in range(before)]
    ready, result = spawn(root, args)
    setups.append(ready)
    setups += [spawn(root, args, setup_only=True)[0] for _ in range(SETUP_SAMPLES - 1 - before)]
    lat = result["latencies_s"]
    p50, p90, around, above = percentiles(lat)
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(lat) / result["phase_s"],
        "op_p50_ms": p50 * 1000.0,
        "op_p90_ms": p90 * 1000.0,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    fail_ratio = result["failed"] / len(lat)
    samples = {"setup_s": len(setups), "ops_per_s": len(lat), "op_p50_ms": len(lat),
               "op_p90_ms": len(lat), "peak_rss_mb": 1}
    for name, unit in END_TO_END:
        print(f"{args.workload:9s} {name:12s} {values[name]:12.4f} {unit:4s} (n={samples[name]})")
    print(f"{args.workload:9s} {'fail_ratio':12s} {fail_ratio:12.4f} 1    (n={len(lat)})")
    result["attempted"] = len(lat) + result["probes"]
    extra = {
        "setup_samples_s": setups,
        "phase_s": result["phase_s"],
        "ops_above_p90": above,
        "p90_neighbours_ms": [x * 1000.0 for x in around],
        "fail_ratio": fail_ratio,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return result, metrics, extra


def traced(root, args):
    _, plain = spawn(root, args)
    _, result = spawn(root, args, trace=True)
    overhead = (len(plain["latencies_s"]) / plain["phase_s"]) / (
        len(result["latencies_s"]) / result["phase_s"])
    extra = dict(result["trace"]["extra"], **{
        "trace.overhead": overhead,
        "fields.irreducible_check.unverified_reducible": len(result["known_defects"]),
    })
    metrics = layer_metrics(result["trace"]["raw"], extra)
    for name, _, _ in per_layer_metrics():
        m = metrics[name]
        if m["value"]:
            print(f"{args.workload:9s} {name:48s} {m['value']:14.6g} {m['unit']}")
    result["attempted"] = (len(result["latencies_s"]) + len(plain["latencies_s"])
                           + result["probes"] + plain["probes"])
    result["failed"] += plain["failed"]
    result["failures"] += plain["failures"]
    return result, metrics, {"untraced_ops": len(plain["latencies_s"])}


def main():
    args = parse_args()
    args.deadline = time.monotonic() + RUN_BUDGET_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "cremona_kit", "__init__.py")):
        sys.stderr.write("run.py: no src/cremona_kit here; run from the root of a source checkout\n")
        return 2
    try:
        if args.trace:
            result, metrics, extra = traced(root, args)
        else:
            result, metrics, extra = end_to_end(root, args)
    except (BenchError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        sys.stderr.write(f"run.py: {exc}\n")
        return 1
    for line in result["failures"]:
        print(f"FAILED {line}")
    for line in result["known_defects"]:
        print(f"KNOWN DEFECT (untimed probe, not a failed op) {line}")
    print("provenance " + json.dumps(provenance(root, args, result, extra), sort_keys=True))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
