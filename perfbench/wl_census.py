"""census: closed-point censuses, conic-bundle class keys and frame matching.

Every block is one round of the same ops, with fresh seeded inputs:
  * the census cells, enumerate_point_orbits then pgl3_classify with both
    filters, for F2 n<=5, F3 n<=3 and F4 n<=2;
  * cb_class_key on seeded CB5/CB6 models: F2, F3 and one F4 model take
    the exhaustive sweep, F7, F8, F9 and F101 the frame path;
  * match_transform between a seeded 4-point set P and its image Q under a
    seeded matrix of PGL3(F_q), over F2..F101.
The cheap key and match ops come in SETS_PER_BLOCK sets, enough that at
least ten ops lie above op_p90_ms and the p90 falls among the frame-path
ops, not on the gap below the sweeps.  F5 is left out: one F5 cell costs
8-15 s and would set the whole run.
"""

import hashlib
import json
import os
from itertools import combinations

from common import Op, block_rng

CELLS = [(2, n) for n in range(1, 6)] + [(3, n) for n in range(1, 4)] + [(4, 1), (4, 2)]
KEY_FIELDS = (2, 3, 7, 8, 9, 101)
MATCH_FIELDS = (2, 3, 4, 7, 8, 9, 101)
SETS_PER_BLOCK = 3
DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "census.json")


def make_field(q):
    from cremona_kit import fields

    p = next(d for d in range(2, q + 1) if q % d == 0)
    k, r = 0, q
    while r > 1:
        r //= p
        k += 1
    base = fields.PrimeField(p)
    if k == 1:
        return base
    return fields.ExtensionField(base, fields.find_irreducible(base, k).coeffs, check=False)


def setup(seed, recorded=True):
    from cremona_kit import catalog, fields, orbits

    reference = None
    if recorded:
        with open(DATA) as fh:
            reference = json.load(fh)
    qs = sorted({q for q, _ in CELLS} | set(KEY_FIELDS) | set(MATCH_FIELDS))
    return {
        "seed": seed,
        "fields": {q: make_field(q) for q in qs},
        "ext": {},
        "recorded": reference,
        "key_seen": {},
        "orbits": orbits,
        "catalog": catalog,
        "fieldsmod": fields,
    }


# ---------------------------------------------------------------------------
# input generation


def _ext(state, q, n):
    """Canonical degree-n extension of F_q, for generating inputs only."""
    key = (q, n)
    if key not in state["ext"]:
        F = state["fields"][q]
        if n == 1:
            state["ext"][key] = F
        else:
            fm = state["fieldsmod"]
            state["ext"][key] = fm.ExtensionField(F, fm.find_irreducible(F, n).coeffs, check=False)
    return state["ext"][key]


def _elem(F, rng):
    return F.from_packed_int(rng.randrange(F.size()))


def _matrix(F, rng):
    while True:
        M = [[_elem(F, rng) for _ in range(3)] for _ in range(3)]
        if not F.is_zero(det3(F, M)):
            return M


def _closed_point(state, F, n, rng):
    """A seeded degree-n point: (minimal polynomial over F, the canonical
    degree-n extension K, its n conjugate roots in K).  The roots come from
    Frobenius, not from the program's root finding."""
    K = _ext(state, F.size(), n)
    q = F.size()
    while True:
        a = _elem(K, rng)
        roots = [a]
        for _ in range(n - 1):
            roots.append(K.pow(roots[-1], q))
        if len(set(roots)) == n and K.pow(roots[-1], q) == a:
            break
    coeffs = [K.one]
    for r in roots:  # multiply by (x - r)
        nxt = [K.zero] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i + 1] = K.add(nxt[i + 1], c)
            nxt[i] = K.sub(nxt[i], K.mul(c, r))
        coeffs = nxt
    f = state["fieldsmod"].Poly(F, [c[0] if c else F.zero for c in coeffs])
    return f, K, roots


def det3(F, M):
    (a, b, c), (d, e, f), (g, h, i) = M
    m = F.mul
    return F.add(
        F.sub(m(a, F.sub(m(e, i), m(f, h))), m(b, F.sub(m(d, i), m(f, g)))),
        m(c, F.sub(m(d, h), m(e, g))),
    )


def normalize(K, pt):
    lead = next(c for c in pt if not K.is_zero(c))
    inv = K.inv(lead)
    return tuple(K.mul(inv, c) for c in pt)


def apply(F, K, M, pt):
    """M . pt in P^2(K), normalized so the first nonzero coordinate is 1."""
    lift = (lambda a: a) if K == F else K.embed
    out = []
    for row in M:
        acc = K.zero
        for a, c in zip(row, pt):
            acc = K.add(acc, K.mul(lift(a), c))
        out.append(acc)
    return normalize(K, out)


def maps_onto(F, K, M, pts_p, pts_q):
    """True when M is invertible over F and sends the set P onto the set Q."""
    if F.is_zero(det3(F, M)):
        return False
    return {apply(F, K, M, p) for p in pts_p} == {normalize(K, p) for p in pts_q}


def _general_position(K, pts):
    return all(not K.is_zero(det3(K, [a, b, c])) for a, b, c in combinations(pts, 3))


# ---------------------------------------------------------------------------
# ops


def _cell_op(state, q, n):
    orbits = state["orbits"]
    F = state["fields"][q]

    def run():
        orbs = orbits.enumerate_point_orbits(F, n)
        return (
            orbs,
            orbits.pgl3_classify(orbs, F, orbits.ALL),
            orbits.pgl3_classify(orbs, F, orbits.GENERAL_POSITION_ONLY),
        )

    def digest(out):
        orbs, every, gp = out
        return len(orbs), partition_digest(every), partition_digest(gp)

    def check(d):
        count, every, gp = d
        if count != closed_points(q, n):
            return f"F{q} n={n}: {count} orbits, expected {closed_points(q, n)}"
        want = state["recorded"]["cells"][f"F{q}/{n}"]
        if [every, gp] != [want["all"], want["gp"]]:
            return f"F{q} n={n}: class partition differs from the recorded sweep"
        return None

    return Op("cell", run, check, digest, {"field": f"F{q}", "size": n})


def partition_digest(classes):
    """Classes as sets of orbits, each orbit as its set of points (packed
    ints); independent of class-id strings and of orbit key formats."""
    parts = sorted(
        sorted(
            sorted(tuple(o.coord_field.to_int(c) for c in pt) for pt in o.points)
            for o in cls.members
        )
        for cls in classes
    )
    return hashlib.sha256(json.dumps(parts).encode()).hexdigest()


def closed_points(q, n):
    """Degree-n closed points of P^2 over F_q, by Moebius inversion."""
    def mu(m):
        out, d = 1, 2
        while d * d <= m:
            if m % d == 0:
                m //= d
                if m % d == 0:
                    return 0
                out = -out
            d += 1
        return -out if m > 1 else out

    total = sum(mu(d) * (q ** (2 * (n // d)) + q ** (n // d) + 1) for d in range(1, n + 1) if n % d == 0)
    return total // n


def _split_pair(state, F, rng):
    """Two seeded degree-2 points in general position, in split form:
    (f, g, K, the points [1:a:0], [1:0:b])."""
    while True:
        f, K, ra = _closed_point(state, F, 2, rng)
        g, _, rb = _closed_point(state, F, 2, rng)
        pts = [(K.one, a, K.zero) for a in ra] + [(K.one, K.zero, b) for b in rb]
        if _general_position(K, pts):
            return f, g, K, pts


def _model(state, F, family, rng):
    orbits, catalog = state["orbits"], state["catalog"]
    if family == "cb6":
        f, g, _, _ = _split_pair(state, F, rng)
        return catalog.conic_bundle6(orbits.orbit_from_poly(F, f, orbits.SPLIT, second_poly=g))
    f, K, roots = _closed_point(state, F, 4, rng)
    if family == "cb5x":  # the same kind of orbit moved by a seeded matrix, explicit
        M = _matrix(F, rng)
        pts = [apply(F, K, M, (K.one, a, K.mul(a, a))) for a in roots]
        return catalog.conic_bundle5(orbits.explicit_orbit(F, K, pts))
    return catalog.conic_bundle5(orbits.orbit_from_poly(F, f, orbits.CONIC))


def _key_op(state, q, family, rng):
    F = state["fields"][q]
    X = _model(state, F, family, rng)
    catalog = state["catalog"]
    group = f"F{q}/{'dp6' if family == 'cb6' else 'dp5'}"

    def run():
        return catalog.cb_class_key(X)

    def digest(key):
        return key.family, key.class_id

    def check(d):
        seen = state["key_seen"].setdefault(group, set())
        seen.add(d)
        allowed = state["recorded"]["key_classes"][group]
        if len(seen) > allowed:
            return f"{group}: {len(seen)} distinct class keys, recorded {allowed}"
        return None

    return Op("key", run, check, digest, {"field": f"F{q}", "model": family})


def _match_op(state, q, shape, rng):
    orbits = state["orbits"]
    F = state["fields"][q]
    if shape == "conic":
        f, K, roots = _closed_point(state, F, 4, rng)
        P = orbits.orbit_from_poly(F, f, orbits.CONIC)
        pts = [(K.one, a, K.mul(a, a)) for a in roots]
    elif shape == "split":
        f, g, K, pts = _split_pair(state, F, rng)
        P = orbits.orbit_from_poly(F, f, orbits.SPLIT, second_poly=g)
    else:  # four rational points in general position
        K = F
        while True:
            pts = [tuple(_elem(F, rng) for _ in range(3)) for _ in range(4)]
            if _general_position(F, pts):
                pts = [normalize(F, p) for p in pts]
                break
        P = [orbits.explicit_orbit(F, F, [p]) for p in pts]
    M = _matrix(F, rng)
    q_pts = [apply(F, K, M, p) for p in pts]
    if K == F:
        Q = [orbits.explicit_orbit(F, F, [p]) for p in q_pts]
    else:
        Q = orbits.explicit_orbit(F, K, q_pts)

    def run():
        return orbits.match_transform(P, Q)

    def check(A):
        if A is None:
            return f"F{q} {shape}: no match for an image under PGL3"
        if not maps_onto(F, K, A, pts, q_pts):
            return f"F{q} {shape}: returned matrix does not map P onto Q"
        return None

    return Op("match", run, check, None, {"field": f"F{q}", "shape": shape})


def _cheap_set(state, rng):
    ops = []
    for q in KEY_FIELDS:
        families = ("cb5x",) if q == 3 else ("cb5", "cb5x", "cb6")
        ops.extend(_key_op(state, q, fam, rng) for fam in families)
    for q in MATCH_FIELDS:
        ops.extend(_match_op(state, q, shape, rng) for shape in ("conic", "split", "rational"))
    return ops


def block(state, index):
    rng = block_rng(state["seed"], index, "census")
    ops = [_cell_op(state, q, n) for q, n in CELLS]
    ops.append(_key_op(state, 4, "cb6", rng))
    for _ in range(SETS_PER_BLOCK):
        ops.extend(_cheap_set(state, rng))
    rng.shuffle(ops)
    return ops
