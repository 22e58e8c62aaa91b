"""Write data/census.json: the reference verdicts of the census workload.

    PYTHONPATH=src python3 perfbench/record.py

For every census cell it records the class partition of the exhaustive
PGL3 sweep (both filters) as a digest of sets of orbits, each orbit a set
of points; class-id strings do not enter.  For every (field, family) of
the class-key ops it records how many distinct keys a sample of seeded
models gets.  Rerun only when a change to the program is meant to change
these verdicts, and say so.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import wl_census  # noqa: E402
from common import block_rng  # noqa: E402

SAMPLES = 6


def main():
    state = wl_census.setup(0, recorded=False)
    orbits = state["orbits"]
    cells = {}
    for q, n in wl_census.CELLS:
        F = state["fields"][q]
        orbs = orbits.enumerate_point_orbits(F, n)
        cells[f"F{q}/{n}"] = {
            filt: wl_census.partition_digest(orbits.pgl3_classify(orbs, F, mode))
            for filt, mode in (("all", orbits.ALL), ("gp", orbits.GENERAL_POSITION_ONLY))
        }
    key_classes = {}
    rng = block_rng("record", 0, "keys")
    for q in wl_census.KEY_FIELDS + (4,):
        F = state["fields"][q]
        for family, group in (("cb5", "dp5"), ("cb5x", "dp5"), ("cb6", "dp6")):
            if q == 4 and family != "cb6":
                continue
            count = 2 if q == 4 else SAMPLES
            keys = key_classes.setdefault(f"F{q}/{group}", set())
            for _ in range(count):
                keys.add(state["catalog"].cb_class_key(wl_census._model(state, F, family, rng)))
    out = {
        "cells": cells,
        "key_classes": {group: len(keys) for group, keys in sorted(key_classes.items())},
    }
    path = wl_census.DATA
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(json.dumps(out["key_classes"], sort_keys=True))


if __name__ == "__main__":
    main()
