#!/usr/bin/env python3
"""Check PGL_3(F_q) classification against the class-walk oracle.

For each closed-point census cell below, under both filters, the partition
that `orbits.pgl3_classify` finds by Galois descent is compared with the
one found by walking every class whole along four generators of PGL_3(F_q)
(`tests/pgl3_walk.py`).  These cells are too slow for the test suite, which
covers the smaller ones.  One line per cell and filter (the second filter
reuses the forms the first computed); exits 1 on any mismatch.

    PYTHONPATH=src python3 scripts/check_pgl3_oracle.py [F3/5 F7/3 ...]
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tests"))

from cremona_kit import orbits  # noqa: E402
from cremona_kit.cli import parse_field  # noqa: E402
from pgl3_walk import partition, walk_partition  # noqa: E402

CELLS = ["F3/5", "F4/3", "F5/3", "F7/1", "F7/2", "F7/3"]


def main(cells):
    bad = 0
    for cell in cells:
        name, n = cell.split("/")
        field, n = parse_field(name), int(n)
        census = orbits.enumerate_point_orbits(field, n)
        for filt in (orbits.ALL, orbits.GENERAL_POSITION_ONLY):
            start = time.perf_counter()
            got = partition(orbits.pgl3_classify(census, field, filter=filt))
            mid = time.perf_counter()
            want = walk_partition(field, census, filt)
            end = time.perf_counter()
            verdict = "ok" if got == want else "MISMATCH"
            bad += got != want
            print(
                f"{name} n={n} {filt}: {sum(map(len, got))} orbits, {len(got)} classes "
                f"(walk {len(want)}); descent {mid - start:.2f} s, walk {end - mid:.2f} s: "
                f"{verdict}",
                flush=True,
            )
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or CELLS))
