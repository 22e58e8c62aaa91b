"""Test oracle: PGL_3(F_q)-classes walked whole along four generators.

The library names classes by Galois descent (`orbits.pgl3_form`); the tests
and `scripts/check_pgl3_oracle.py` compare its partitions against this
breadth-first walk, which visits every image of a point set and so costs the
size of the class.  The generators themselves are checked against the scan
of all q^9 entry tuples in `pgl3_sweep.py`.
"""

from cremona_kit.orbits import (
    GENERAL_POSITION_ONLY,
    GP_YES,
    _set_key,
    apply_matrix,
    common_coordinate_field,
    lift_matrix,
    materialize_points,
)


def pgl3_generators(field):
    """(12), (123), I + E_12 and diag(g, 1, 1) for the least primitive g, left
    out over F_2.  Diagonal matrices conjugate I + E_12 into every I + tE_12
    and permutations into every elementary transvection; these generate SL_3
    (Steinberg), and diag(g, 1, 1) reaches every determinant."""
    q, o, z = field.size(), field.one, field.zero
    g = next(
        g for g in sorted(field.elements(), key=field.to_int)[1:]
        if len({field.to_int(field.pow(g, k)) for k in range(1, q)}) == q - 1
    )
    gens = [
        [[z, o, z], [o, z, z], [z, z, o]],
        [[z, z, o], [o, z, z], [z, o, z]],
        [[o, o, z], [z, o, z], [z, z, o]],
        [[g, z, z], [z, o, z], [z, z, o]],
    ]
    return gens if g != o else gens[:3]


def class_walk(field, K, pts):
    """Set keys of every image of the point set pts (in K) under PGL_3(field),
    walked breadth first along the generators."""
    gens = [lift_matrix(K, field, M) for M in pgl3_generators(field)]
    todo, seen = [pts], {_set_key(K, pts)}
    for cur in todo:
        for rows in gens:
            img = [apply_matrix(K, rows, p) for p in cur]
            key = _set_key(K, img)
            if key not in seen:
                seen.add(key)
                todo.append(img)
    return seen


def walk_partition(field, orbits, filter=None):
    """The PGL_3(field)-classes of the orbits (one size), as a sorted list of
    sorted lists of orbit keys: one walk per class collects its members."""
    if filter == GENERAL_POSITION_ONLY:
        orbits = [o for o in orbits if o.general_position == GP_YES]
    if not orbits:
        return []
    K = common_coordinate_field(field, orbits)
    pending = {}  # set key -> (points, orbit keys)
    for o in orbits:
        pts = materialize_points(o, K=K)[1]
        pending.setdefault(_set_key(K, pts), (pts, []))[1].append(o.key())
    classes = []
    while pending:
        images = class_walk(field, K, next(iter(pending.values()))[0])
        classes.append(sorted(k for img in images if img in pending for k in pending.pop(img)[1]))
    return sorted(classes)


def partition(classes):
    """pgl3_classify's classes in walk_partition's shape."""
    return sorted(sorted(o.key() for o in c.members) for c in classes)
