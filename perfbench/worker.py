"""Run one workload in this fresh process; started by run.py.

    python3 perfbench/worker.py --workload W --seed N --seconds S [--trace] [--setup-only]

Prints `READY` once the imports and the first block of inputs are built
(run.py times set-up from spawn to that line).  Then it runs blocks of ops
in a closed loop, one caller and no threads, until the wall time of the
timed phase (ops and digests; not gc.collect() or block generation)
reaches --seconds; a started block is always finished.  gc.collect() runs
between ops, outside the timed region.  No cache of the program is warmed
beforehand.  After the timed phase it reads the peak RSS, then checks every
op's verdict, runs the workload's untimed probes (if it has any), and
prints one JSON line with the raw results.
"""

import argparse
import gc
import importlib
import json
import resource
import sys
import time

from common import summarize_props

WORKLOADS = ("relators", "census", "algebra", "cli")
WALL_CAP_S = 150  # stop starting ops after this, so a run ends within 180 s


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    return ap.parse_args(argv)


def timed_phase(wl, state, ops, seconds, tracer):
    """Run whole blocks until the phase's wall time reaches seconds.

    The phase's wall time covers the ops and the digests between them.  It
    leaves out gc.collect() and the generation of the next block: on census
    the collections alone take about a third of the wall time, and counting
    them would make ops_per_s measure the harness's forced collections.
    """
    records = []  # (op, digest, error, seconds)
    index, wall0, outside = 0, time.perf_counter(), 0.0
    while True:
        for op in ops:
            start = time.perf_counter()
            gc.collect()
            outside += time.perf_counter() - start
            if tracer is not None:
                tracer.active = True
            start = time.perf_counter()
            try:
                result, error = op.run(), None
            except Exception as exc:  # an op that raises counts as failed
                result, error = None, f"{type(exc).__name__}: {exc}"
            took = time.perf_counter() - start
            if tracer is not None:
                tracer.active = False
            op.run = None  # let the op's inputs go; peak RSS should not grow with the run
            digest = None
            if error is None:
                try:
                    digest = op.digest(result)
                except Exception as exc:
                    error = f"digest: {type(exc).__name__}: {exc}"
            del result
            records.append((op, digest, error, took))
            if time.perf_counter() - wall0 > WALL_CAP_S:
                return records, time.perf_counter() - wall0 - outside
        phase = time.perf_counter() - wall0 - outside
        if phase >= seconds:
            return records, phase
        index += 1
        start = time.perf_counter()
        ops = wl.block(state, index)
        outside += time.perf_counter() - start


def verify(records):
    failures = []
    for op, digest, error, _ in records:
        if error is None:
            try:
                error = op.check(digest)
            except Exception as exc:
                error = f"check: {type(exc).__name__}: {exc}"
        if error is not None:
            failures.append(f"{op.kind}: {error}")
    return failures


def run_probes(wl, state):
    """Untimed ops on inputs where the program has a known defect: a check
    that fails with the workload's KNOWN_DEFECT message is counted apart;
    any other failure is a failed op.  Returns (probes, known, failures)."""
    if not hasattr(wl, "probes"):
        return 0, [], []
    ops, known, failures = wl.probes(state), [], []
    for op in ops:
        try:
            error = op.check(op.digest(op.run()))
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
        if error is None:
            continue
        (known if error.startswith(wl.KNOWN_DEFECT) else failures).append(f"{op.kind}: {error}")
    return len(ops), known, failures


def main():
    args = parse_args()
    wl = importlib.import_module(f"wl_{args.workload}")
    state = wl.setup(args.seed)
    try:
        ops = wl.block(state, 0)
        sys.stdout.write("READY\n")
        sys.stdout.flush()
        if args.setup_only:
            return 0
        state["trace"] = args.trace
        tracer = None
        if args.trace and args.workload != "cli":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        records, phase = timed_phase(wl, state, ops, args.seconds, tracer)
        usage = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024.0
        trace = None
        if tracer is not None:
            trace = {"raw": tracer.raw(), "extra": {}}
        elif args.trace:
            raw, extra = wl.trace_summary(state)
            trace = {"raw": raw, "extra": extra}
        failures = verify(records)
        probes, known, probe_failures = run_probes(wl, state)
        failures += probe_failures
        out = {
            "latencies_s": [r[3] for r in records],
            "kinds": [r[0].kind for r in records],
            "phase_s": phase,
            "failed": len(failures),
            "failures": failures[:10],
            "probes": probes,
            "known_defects": known,
            "peak_rss_mb": peak_rss_mb,
            "inputs": summarize_props(r[0] for r in records),
            "python": sys.version.split()[0],
            "trace": trace,
        }
        sys.stdout.write(json.dumps(out) + "\n")
        return 0
    finally:
        if hasattr(wl, "teardown"):
            wl.teardown(state)


if __name__ == "__main__":
    sys.exit(main())
