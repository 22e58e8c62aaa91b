#!/usr/bin/env python3
"""Orbit census sweep: closed-point counts and PGL_3 class counts.

Runs `cremona-kit orbit census` for every requested size: one TSV row
(q, n, filter, orbit_count, class_count) per filter.  The enumeration checks
each orbit count against the zeta formula.

    python3 scripts/run_census.py --field F2 --sizes 1 2 3 4
"""

import argparse
import sys

from cremona_kit import cli


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--field", default="F2")
    ap.add_argument("--sizes", type=int, nargs="+", default=[1, 2, 3, 4])
    args = ap.parse_args()
    for n in args.sizes:
        code = cli.main(["orbit", "census", "--field", args.field, "--size", str(n)])
        if code:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
