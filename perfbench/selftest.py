"""The benchmark's own test: metric names and home/bypass layer shares.

    python3 perfbench/selftest.py

Run from the root of a source checkout.  It checks that BENCHMARK.json
lists exactly the metrics run.py prints, then makes one traced run of each
library workload (seed SEED, SECONDS seconds) and asserts that each
optimisable layer does most of the wrapped self time on its home workload
and little on its bypass workload (layers.HOME_BYPASS).  This stops an edit to a workload mix from quietly
removing the stress on a layer.  Exits 1 on any failed assertion.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from layers import HOME_BYPASS, LAYERS, per_layer_metrics  # noqa: E402
from run import END_TO_END  # noqa: E402

SEED = 1
SECONDS = 15


def check_names(problems):
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    listed = [m["name"] for m in bench["end_to_end"]]
    if listed != [name for name, _ in END_TO_END]:
        problems.append(f"BENCHMARK.json end_to_end {listed} differs from run.py")
    listed = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    if listed != per_layer_metrics():
        problems.append("BENCHMARK.json per_layer differs from layers.per_layer_metrics()")


def layer_shares(metrics):
    self_s = {
        layer: sum(metrics[f"{layer}.{func}.self_s"]["value"] for func in funcs)
        for layer, funcs in LAYERS.items()
    }
    total = sum(self_s.values()) or 1.0
    return {layer: value / total for layer, value in self_s.items()}


def traced_run(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "1"],
        capture_output=True, text=True, timeout=400,
    )
    if proc.returncode != 0:
        raise SystemExit(f"traced run of {workload} failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    problems = []
    check_names(problems)
    workloads = sorted({w for row in HOME_BYPASS for w in (row[1], row[3])})
    shares = {}
    for workload in workloads:
        result = traced_run(workload)
        if not result["correct"]:
            problems.append(f"{workload}: traced run failed {result['failed']} ops")
        known = result["metrics"]["fields.irreducible_check.unverified_reducible"]["value"]
        if known:
            print(f"{workload}: known defect, Unverified on {known} reducible probes")
        shares[workload] = layer_shares(result["metrics"])
        print(workload, " ".join(f"{k}={v:.3f}" for k, v in shares[workload].items()))
    for layers, home, least, bypass, most in HOME_BYPASS:
        name = "+".join(layers)
        at_home = sum(shares[home][layer] for layer in layers)
        away = sum(shares[bypass][layer] for layer in layers)
        print(f"{name:17s} home {home:9s} {at_home:6.3f} (>= {least})   "
              f"bypass {bypass:9s} {away:6.3f} (<= {most})")
        if at_home < least:
            problems.append(f"{name}: {at_home:.3f} of self time on {home}, needs >= {least}")
        if away > most:
            problems.append(f"{name}: {away:.3f} of self time on {bypass}, needs <= {most}")
    for problem in problems:
        print("FAIL", problem)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
