"""Shared pieces of the workloads: the op record, seeded sampling helpers
and the summary of input properties.

A workload module defines

    setup(seed)          -> state   (imports, fixed inputs; counted in setup_s)
    block(state, index)  -> [Op]    (the index-th block of ops; same seed and
                                     index give the same ops)

Every block of a workload has the same composition of op kinds and input
strata; only the seeded parameters inside each stratum differ.  That keeps
runs with different seeds comparable while the inputs still vary.
"""

import math
import random

GOLDEN = (math.sqrt(5) - 1) / 2


class Op:
    """One timed call into the program.

    run()            the timed call; returns the raw result
    digest(result)   untimed; keeps what check() needs, drops the rest
    check(digest)    untimed, after the timed phase; returns None when the
                     verdict is right, else a one-line reason
    props            input properties recorded for provenance
    """

    __slots__ = ("kind", "run", "digest", "check", "props")

    def __init__(self, kind, run, check, digest=None, props=None):
        self.kind = kind
        self.run = run
        self.check = check
        self.digest = digest or (lambda result: result)
        self.props = props or {}


def block_rng(seed, index, salt=""):
    """The generator for one block; independent of every other block."""
    return random.Random(f"{seed}:{index}:{salt}")


def stratified(seed, salt, index, count, lo, hi, log=False):
    """count values spread over [lo, hi], one inside each of count equal
    strata, in stratum order.

    The position inside stratum j starts at a seeded offset and moves by
    the golden ratio from block to block, so a run's blocks together cover
    every stratum evenly whatever the seed: the seed changes the inputs,
    not the shape of their distribution.
    """
    out = []
    for j in range(count):
        start = random.Random(f"{seed}:{salt}:{j}").random()
        u = (j + (start + index * GOLDEN) % 1.0) / count
        if log:
            out.append(math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo))))
        else:
            out.append(lo + u * (hi - lo))
    return out


def odd_between(value, lo, hi):
    """The odd integer nearest to value inside [lo, hi]."""
    n = int(round(value))
    if n % 2 == 0:
        n += 1 if n < hi else -1
    return max(lo | 1, min(hi if hi % 2 else hi - 1, n))


def summarize_props(ops):
    """Histogram of every input property over the ops that ran.

    Integer properties are bucketed by powers of two, booleans give a share
    and strings a count per value; each is keyed by op kind.
    """
    out = {}
    for op in ops:
        for name, value in op.props.items():
            key = f"{op.kind}.{name}"
            if isinstance(value, bool):
                slot = out.setdefault(key, {"true": 0, "total": 0})
                slot["true"] += value
                slot["total"] += 1
            elif isinstance(value, int):
                bucket = 1 << max(0, value.bit_length() - 1) if value > 0 else 0
                slot = out.setdefault(key, {})
                slot[str(bucket)] = slot.get(str(bucket), 0) + 1
            else:
                slot = out.setdefault(key, {})
                slot[str(value)] = slot.get(str(value), 0) + 1
    for key, slot in out.items():
        if "total" in slot:
            slot["share"] = round(slot["true"] / slot["total"], 4)
    return out
