"""Traced stand-in for `python -m cremona_kit.cli`: same argv, same output.

Measures the import of cremona_kit.cli, wraps the program's functions (see
tracer.py), runs cli.main, and appends one line to stderr:
`PERFBENCH-TRACE {json}` with the spans' sums and import_ms.  Used by the
cli workload's traced run only.
"""

import sys
import time


def main():
    start = time.perf_counter()
    import cremona_kit.cli as cli

    import_ms = (time.perf_counter() - start) * 1000.0
    import json  # after the timed import: cremona_kit.cli imports it too

    from tracer import Tracer  # this file's directory is first on sys.path

    tracer = Tracer()
    tracer.install()
    tracer.active = True
    try:
        code = cli.main(sys.argv[1:])
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        tracer.active = False
        raw = tracer.raw()
        raw["import_ms"] = import_ms
        sys.stdout.flush()
        sys.stderr.write("PERFBENCH-TRACE " + json.dumps(raw, sort_keys=True) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
