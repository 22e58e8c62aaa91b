"""Galois orbits of points in P^2(kbar).

An orbit is stored by its minimal polynomial plus a coordinate template
(the normal forms every orbit of its shape can be moved into) or by
explicit coordinates in a finite extension:

  conic     points [1 : a_i : a_i^2], a_i the roots of min_poly
  split     points [1 : a_i : 0] and [1 : 0 : b_i], two quadratics
  line      points [0 : 1 : r_i]
  explicit  normalized coordinate triples over F_{q^n}

Over finite fields everything (positions, enumeration, PGL_3-classification,
matching transforms) is computed exactly in explicit extensions; over Q only
the symbolic normal forms are handled and anything else is refused rather
than guessed.

PGL_3(F_q)-equivalence is decided in this module only, by one Galois-descent
form for every q (see the PGL_3 section): `pgl3_form` names the class of a
union of orbits and `pgl3_classify` groups orbits by it.  `match_transform`
needs no form: it orders two 4-point sets along Frobenius and sends one
frame onto the other.
"""

from dataclasses import dataclass, field as dc_field
import itertools
import random

from . import linalg
from .linalg import cross, dot
from .errors import (
    CollinearTriple,
    DegreeMismatch,
    FingerprintMismatch,
    IncompatibleFields,
    NotIrreducible,
    ScaleExceeded,
    UncomputableOverQ,
    UnsupportedField,
    BadInput,
    MALFORMED_JSON,
)
from .fields import (
    EXT_DEGREE_CAP,
    ExtensionField,
    IRREDUCIBLE,
    Poly,
    QQ,
    Rationals,
    UNVERIFIED,
    canonical_extension,
    descend,
    field_from_json,
    field_to_json,
    find_irreducible,
    frobenius_conjugates,
    irreducible_check,
    lift,
    lift_poly,
    poly_from_json,
    poly_to_json,
    split_root,
)

CONIC = "conic"
SPLIT = "split"
LINE = "line"
EXPLICIT = "explicit"

GP_YES = "yes"
GP_NO = "no"
GP_UNKNOWN = "unknown"

CENSUS_CAP = 50_000  # closed points one enumeration may list (F_7: 39,312 of degree 3)


# ---------------------------------------------------------------------------
# orbits


@dataclass(frozen=True)
class PointOrbit:
    field: object  # base field k
    template: str
    size: int
    min_poly: object  # Poly over k
    min_poly2: object = None  # second quadratic for split
    points: tuple = None  # explicit normalized triples (coord_field elements)
    coord_field: object = dc_field(default=None, compare=False)
    general_position: str = GP_UNKNOWN

    def key(self):
        cached = getattr(self, "_key", None)
        if cached is not None:
            return cached
        parts = [self.template, str(self.size), _poly_key(self.min_poly)]
        if self.min_poly2 is not None:
            parts.append(_poly_key(self.min_poly2))
        if self.template == EXPLICIT and self.points is not None:
            K = self.coord_field
            parts.append(
                ";".join(
                    ",".join(K.elem_to_str(c) for c in pt) for pt in self.points
                )
            )
        key = ":".join(parts)
        object.__setattr__(self, "_key", key)
        return key

    def __repr__(self):
        return f"PointOrbit({self.key()})"


def _poly_key(p):
    return ",".join(p.field.elem_to_str(c) for c in p.coeffs)


def orbit_to_json(orbit):
    out = {
        "field": field_to_json(orbit.field),
        "template": orbit.template,
        "min_poly": poly_to_json(orbit.min_poly),
        "size": orbit.size,
        "general_position": orbit.general_position,
    }
    if orbit.min_poly2 is not None:
        out["min_poly2"] = poly_to_json(orbit.min_poly2)
    if orbit.template == EXPLICIT and orbit.points is not None:
        K = orbit.coord_field
        out["points"] = [[K.elem_to_str(c) for c in pt] for pt in orbit.points]
    return out


def orbit_from_json(obj):
    """Inverse of orbit_to_json; malformed input is refused with BadInput."""
    try:
        base = field_from_json(obj["field"])
        template = obj["template"]
        min_poly = poly_from_json(obj["min_poly"])
        second = poly_from_json(obj["min_poly2"]) if "min_poly2" in obj else None
        if template == EXPLICIT:
            size, K = obj["size"], coordinate_field(base, min_poly)
            pts = [tuple(K.elem_from_str(s) for s in pt) for pt in obj["points"]]
    except MALFORMED_JSON as exc:
        raise BadInput(f"malformed orbit JSON: {exc!r}")
    if min_poly.field != base or (second is not None and second.field != base):
        raise BadInput("orbit polynomials must live over the orbit's field")
    if template != EXPLICIT:
        return orbit_from_poly(base, min_poly, template, second, allow_unverified=True)
    if K != base and not (base.is_finite() and irreducible_check(min_poly).verdict == IRREDUCIBLE):
        raise BadInput("explicit coordinates need an irreducible min_poly over a finite field")
    pts = _sorted_points(K, pts)  # K is a field from here on; one key per point set
    if type(size) is not int or size != len(pts) or any(len(pt) != 3 for pt in pts):
        raise BadInput("an explicit orbit needs `size` points with 3 coordinates each")
    if K != base and _set_key(K, (_frobenius(K, p, base.size()) for p in pts)) != _set_key(K, pts):
        raise BadInput("explicit points must be closed under Frobenius")
    return PointOrbit(
        base, EXPLICIT, size, min_poly, points=pts, coord_field=K,
        general_position=obj.get("general_position", GP_UNKNOWN),
    )


def coordinate_field(base, min_poly):
    if min_poly.degree <= 1:
        return base
    return ExtensionField(base, min_poly.coeffs, check=False)


def normalize_point(K, pt):
    for c in pt:
        if c:
            if c == K.one:
                return tuple(pt)
            inv, mul = K.inv(c), K.mul
            return tuple([mul(inv, x) for x in pt])
    raise BadInput("projective point cannot be all zero")


def point_sort_key(K, pt):
    sort_key = K.sort_key
    return tuple([sort_key(c) for c in pt])


def _sorted_points(K, pts):
    return tuple(sorted((normalize_point(K, p) for p in pts), key=lambda p: point_sort_key(K, p)))


def _frobenius(K, pt, q):
    return normalize_point(K, tuple(K.pow(c, q) for c in pt))


def _frobenius_orbit(K, pt, q):
    """[pt, sigma pt, sigma^2 pt, ...] for a normalized point pt."""
    orbit = [pt]
    while (nxt := _frobenius(K, orbit[-1], q)) != pt:
        orbit.append(nxt)
    return orbit


def roots_in_field(f, K):
    """All roots of f inside the finite field K, sorted canonically.

    Degree-1 splitting in K finds one root of gcd(f, x^|K| - x); its
    Frobenius conjugates over f.field are stripped before the next split,
    so an irreducible f costs one split (none when K = f.field[t]/(f): t is
    a root).  K's log/exp tables live on K, so a K from canonical_extension
    builds them once for the lifetime of its base field."""
    F = f.field
    if f.degree == 1:
        c0, c1 = f.coeffs
        return [K.neg(K.div(lift(K, F, c0), lift(K, F, c1)))]
    f = f.monic()
    if isinstance(K, ExtensionField) and K.base == F and K.modulus == f.coeffs:
        return sorted(frobenius_conjugates(K, K.gen(), F.size()), key=K.to_int)
    x = Poly(F, (F.zero, F.one))
    rest = lift_poly(K, (x.pow_mod(K.size(), f) - x).gcd(f))
    rng = random.Random(repr(("roots", K.size(), tuple(map(K.to_int, rest.coeffs)))))
    roots = []
    while rest.degree > 0:
        for r in frobenius_conjugates(K, split_root(rest, rng), F.size()):
            roots.append(r)
            rest //= Poly(K, (K.neg(r), K.one))
    return sorted(roots, key=K.to_int)


def materialize_points(orbit, K=None):
    """Coordinate triples of the orbit in a finite extension.

    With K=None, uses the orbit's natural coordinate field.  Points are
    normalized and sorted canonically.
    """
    base = orbit.field
    if not base.is_finite():
        raise UncomputableOverQ("explicit coordinates need a finite field")
    if orbit.template == EXPLICIT:
        if K is None or K == orbit.coord_field:
            return K or orbit.coord_field, orbit.points
        # re-embed via root identification of the coordinate modulus; the
        # point set is Galois-stable, so the choice of root is immaterial
        src = orbit.coord_field
        if src == base:
            pts = [tuple(lift(K, base, c) for c in pt) for pt in orbit.points]
        else:
            root = roots_in_field(Poly(base, src.modulus), K)[0]
            pts = [tuple(lift_poly(K, Poly(base, c))(root) for c in pt) for pt in orbit.points]
        return K, _sorted_points(K, pts)
    if orbit.template in (CONIC, LINE):
        f = orbit.min_poly
        K = K or coordinate_field(base, f)
        roots = roots_in_field(f, K)
        one, zero = K.one, K.zero
        if orbit.template == CONIC:
            pts = [(one, r, K.mul(r, r)) for r in roots]
        else:
            pts = [(zero, one, r) for r in roots]
        return K, _sorted_points(K, pts)
    if orbit.template == SPLIT:
        f, g = orbit.min_poly, orbit.min_poly2
        K = K or canonical_extension(base, 2)
        ra = roots_in_field(f, K)
        rb = roots_in_field(g, K)
        one, zero = K.one, K.zero
        pts = [(one, a, zero) for a in ra] + [(one, zero, b) for b in rb]
        return K, _sorted_points(K, pts)
    raise BadInput(f"unknown template {orbit.template}")


def orbit_from_poly(field, f, template, second_poly=None, allow_unverified=False):
    """Build a PointOrbit from its minimal polynomial(s)."""
    if template not in (CONIC, LINE, SPLIT):
        raise BadInput(f"orbit_from_poly does not build {template!r} orbits")
    for poly in (f, second_poly) if second_poly is not None else (f,):
        cert = irreducible_check(poly)
        if cert.verdict == IRREDUCIBLE:
            continue
        if cert.verdict == UNVERIFIED and allow_unverified:
            continue
        raise NotIrreducible(f"{poly} is not certified irreducible over {field}")
    f = f.monic()
    if template == SPLIT:
        if second_poly is None:
            raise DegreeMismatch("SplitLinePair needs two quadratics")
        second_poly = second_poly.monic()
        if f.degree != 2 or second_poly.degree != 2:
            raise DegreeMismatch("SplitLinePair needs two degree-2 polynomials")
        size = 4
    else:
        second_poly = None
        size = f.degree
    # conic: Vandermonde, three points on an irreducible conic are never
    # collinear; line: all points share x=0.  Exact over any field.
    if template == CONIC:
        gp = GP_YES
    elif template == LINE:
        gp = GP_YES if size < 3 else GP_NO
    elif field.is_finite():
        orbit0 = PointOrbit(field, template, size, f, second_poly)
        K, pts = materialize_points(orbit0)
        verdict = general_position_points(K, pts)
        gp = GP_YES if verdict is True else GP_NO
    else:
        gp = GP_UNKNOWN
    return PointOrbit(field, template, size, f, second_poly, general_position=gp)


def explicit_orbit(field, K, pts, min_poly=None, check_gp=True):
    pts = _sorted_points(K, pts)
    if min_poly is None:
        if isinstance(K, ExtensionField) and K != field:
            min_poly = Poly(field, K.modulus)
        else:
            min_poly = Poly(field, (field.zero, field.one))
    gp = GP_UNKNOWN
    if check_gp and field.is_finite():
        verdict = general_position_points(K, pts)
        gp = GP_YES if verdict is True else GP_NO
    return PointOrbit(
        field,
        EXPLICIT,
        len(pts),
        min_poly,
        points=pts,
        coord_field=K,
        general_position=gp,
    )


# ---------------------------------------------------------------------------
# general position


def general_position_points(K, pts):
    """True, or a witness collinear triple."""
    for a, b, c in itertools.combinations(pts, 3):
        if not linalg.det3(K, (a, b, c)):
            return (a, b, c)
    return True


def general_position_check(orbits):
    """Exhaustive no-three-collinear test on a union of orbits.

    Finite fields: computed in the compositum.  Over Q: only a single orbit
    in conic or split normal form is decidable symbolically.
    """
    if isinstance(orbits, PointOrbit):
        orbits = [orbits]
    fields = {o.field for o in orbits}
    if len(fields) != 1:
        raise IncompatibleFields("orbits live over different base fields")
    base = orbits[0].field
    total = sum(o.size for o in orbits)
    if total < 3:
        raise BadInput("need at least 3 points")
    if base.is_finite():
        K = common_coordinate_field(base, orbits)
        verdict = general_position_points(K, _points_in(K, orbits))
        if verdict is True:
            return GP_YES, None
        return GP_NO, verdict
    if len(orbits) != 1:
        raise UncomputableOverQ("unions over Q are not supported")
    o = orbits[0]
    if o.template == CONIC:
        # Vandermonde: distinct conic parameters are never collinear
        return GP_YES, None
    if o.template == SPLIT:
        # dets are b(a2-a1) and a(b2-b1); roots of irreducible quadratics
        # over Q are distinct and nonzero
        return GP_YES, None
    if o.template == LINE:
        if o.size >= 3:
            return GP_NO, "all points lie on the line x=0"
        return GP_YES, None
    raise UncomputableOverQ("explicit coordinates over Q are rejected")


def common_coordinate_field(base, orbits):
    """canonical_extension(base, n), n the lcm of the orbits' degrees: one
    field per (base, n), kept with its log/exp tables on the base field."""
    from math import lcm

    degs = []
    for o in orbits:
        if o.template == EXPLICIT:
            degs.append(1 if o.coord_field == base else o.coord_field.degree)
        elif o.template == SPLIT:
            degs.append(2)
        else:
            degs.append(max(1, o.min_poly.degree))
    n = lcm(*degs)
    if n > EXT_DEGREE_CAP:
        raise ScaleExceeded(f"compositum degree {n} exceeds {EXT_DEGREE_CAP}")
    return canonical_extension(base, n)


def _points_in(K, orbits):
    """The points of a union of orbits over a finite field, in order, in K."""
    return [pt for o in orbits for pt in materialize_points(o, K=K)[1]]


# ---------------------------------------------------------------------------
# enumeration of closed points


def closed_point_count(q, n):
    """Number of degree-n closed points of P^2 over F_q (zeta formula)."""

    def plane(m):
        return q ** (2 * m) + q ** m + 1

    total = plane(n)
    for d in range(1, n):
        if n % d == 0:
            total -= d * closed_point_count(q, d)
    assert total % n == 0
    return total // n


def enumerate_point_orbits(field, n):
    """All Galois orbits of size n in P^2 over the finite field, as explicit
    orbits in the canonical degree-n coordinate extension."""
    if not field.is_finite():
        raise UnsupportedField("enumeration needs a finite field")
    q = field.size()
    if n < 1:
        raise BadInput(f"orbit size must be positive, got {n}")
    if n > EXT_DEGREE_CAP or closed_point_count(q, n) > CENSUS_CAP:
        raise ScaleExceeded(f"more than {CENSUS_CAP} closed points of degree {n} over F_{q}")
    K = canonical_extension(field, n)

    elems = sorted(K.elements(), key=K.to_int)
    points = itertools.chain(
        [(K.zero, K.zero, K.one)], ((K.zero, K.one, c) for c in elems),
        ((K.one, b, c) for b in elems for c in elems),
    )
    orbits, seen = [], set()
    for pt in points:  # normalized, so points compare as tuples
        if pt not in seen:
            orbit_pts = _frobenius_orbit(K, pt, q)
            seen.update(orbit_pts)
            if len(orbit_pts) == n:
                orbits.append(explicit_orbit(field, K, orbit_pts))
    orbits.sort(key=lambda o: o.key())
    assert len(orbits) == closed_point_count(q, n)
    return orbits


# ---------------------------------------------------------------------------
# PGL_3 classification by Galois descent
#
# sigma raises coordinates to the q-th power.  Let A send a frame T of the
# point set S to the standard frame and put c = A sigma(A)^-1.  A rational g
# commutes with sigma, so gT gives the same c and A.S; conversely, if
# (c, A.S) = (c', A'.S'), sigma fixes g = A'^-1 A up to a scalar, so g is
# rational (Hilbert 90) and gS = S'.  The least pair over a family of frames
# that rational maps carry onto each other names the class.  On the cycles
# T meets, A.sigma^k(x) = (c sigma)^k(A.x): only the other points U count.


def apply_matrix(K, lifted_rows, pt):
    one, mul, add = K.one, K.mul, K.add
    out = []
    for row in lifted_rows:
        acc = None
        for m, c in zip(row, pt):
            if m and c:  # zero is falsy in every field
                t = c if m == one else mul(m, c)
                acc = t if acc is None else add(acc, t)
        out.append(K.zero if acc is None else acc)
    return normalize_point(K, tuple(out))


def lift_matrix(K, base, M):
    return [[lift(K, base, m) for m in row] for row in M]


def _set_key(K, pts):
    return tuple(sorted(point_sort_key(K, p) for p in pts))


def _cycles(K, pts, q):
    """The Frobenius-stable list pts of normalized points as cycles."""
    cycles, seen = [], set()
    for p in pts:
        if p not in seen:
            cycles.append(_frobenius_orbit(K, p, q))
            seen.update(cycles[-1])
    return cycles


def _frame(K, tup):
    """(A, lam, mu, det) for d + 1 points tup of P^(d-1), d = 2 or 3; None if
    they are no frame.  rows, the adjugate of P = (tup_0 .. tup_d-1), has
    rows_i . tup_j = det if i = j else 0; M = P diag(lam), lam = rows . tup_d,
    sends the standard frame onto tup, and A = diag(mu) rows, mu_i the
    product of the other lam_j, is proportional to M^-1."""
    d, mul = len(tup) - 1, K.mul
    if d == 2:
        rows = [(tup[1][1], K.neg(tup[1][0])), (K.neg(tup[0][1]), tup[0][0])]
    else:
        rows = [cross(K, tup[(i + 1) % 3], tup[(i + 2) % 3]) for i in range(3)]
    det, lam = dot(K, rows[0], tup[0]), [dot(K, r, tup[d]) for r in rows]
    if not det or not all(lam):  # zero is falsy in every field
        return None
    mu = lam[::-1] if d == 2 else (mul(lam[1], lam[2]), mul(lam[0], lam[2]), mul(lam[0], lam[1]))
    return [[mul(m, x) for x in r] for m, r in zip(mu, rows)], lam, mu, det


def _frames(K, cycles):
    """(tuple, _frame) for the frames of the least pattern that has any,
    tuples of (cycle, exponent) entries with the first at exponent 0.  An
    entry's pattern is (0, j, e) for sigma^e of entry j, or (1, L) when it
    opens a cycle of length L; rational maps and sigma keep patterns."""
    m, by_length = len(cycles[0][0]) + 1, {}
    for ci, cyc in enumerate(cycles):
        by_length.setdefault(len(cyc), []).append(ci)

    def pts(t):
        return [cycles[ci][e % len(cycles[ci])] for ci, e in t]

    def search(pattern, partial):
        if len(pattern) == 3 == m - 1:  # no frame extends 3 collinear points
            partial = [t for t in partial if dot(K, cross(K, *pts(t)[:2]), pts(t)[2])]
        if len(pattern) == m:
            return [(t, fr) for t in partial for fr in [_frame(K, pts(t))] if fr]
        same = (
            ((0, j, e), [t + ((t[j][0], t[j][1] + e),) for t in partial])
            for j, entry in enumerate(pattern) if entry[0]
            for e in range(1, entry[1]) if (0, j, e) not in pattern
        )
        new = (
            ((1, L), [t + ((ci, e),) for t in partial for ci in cis
                      if all(ci != x[0] for x in t) for e in range(L if pattern else 1)])
            for L, cis in sorted(by_length.items())
        )
        for entry, nxt in itertools.chain(same, new):
            found = nxt and search(pattern + [entry], nxt)
            if found:
                return found
        return []

    return search([], [()])


def _twist_form(K, q, cycles):
    """The least (c, A.U) over _frames and their sigma-images; None when the
    points have no frame."""
    mul = K.mul

    def sigma(x, i):
        return K.pow(x, q ** i) if i and x else x

    candidates = []
    for t, (A, lam, mu, det) in _frames(K, cycles):
        d, at = len(lam), {(ci, e % len(cycles[ci])): j for j, (ci, e) in enumerate(t)}
        cols = []  # c = A sigma(M): column k is sigma(lam_k) A.sigma(t_k)
        for k, (ci, e) in enumerate(t[:d]):
            img = (ci, (e + 1) % len(cycles[ci]))
            j = at.get(img)  # A.t_j is mu_j det e_j, and A.t_d is mu_i lam_i for every i
            col = (
                [dot(K, row, cycles[ci][img[1]]) for row in A] if j is None
                else [mul(mu[0], lam[0])] * d if j == d
                else [mul(mu[j], det) if i == j else K.zero for i in range(d)]
            )
            cols.append([mul(K.pow(lam[k], q), x) for x in col])
        flat = [x for row in _normalize_matrix(K, list(zip(*cols))) for x in row]
        met = {ci for ci, _ in t}
        rest = [apply_matrix(K, A, p) for ci, c in enumerate(cycles) if ci not in met for p in c]
        shifts = range(len(cycles[t[0][0]]))
        if not rest:  # the least sigma^i(c), narrowed entry by entry
            for x in flat if any(sigma(x, 1) != x for x in flat) else ():
                keys = [K.sort_key(sigma(x, i)) for i in shifts]
                shifts = [i for i, k in zip(shifts, keys) if k == min(keys)]
            shifts = shifts[:1]
        candidates.extend(
            (tuple([K.sort_key(sigma(x, i)) for x in flat]),
             _set_key(K, [[sigma(x, i) for x in p] for p in rest]))
            for i in shifts
        )
    return min(candidates, default=None)


def _descent(K, pts, q):
    """The form of a Frobenius-stable list of distinct points in P^2(K).

    At most 3 points: the ordered configuration has a connected stabilizer,
    so by Lang's theorem incidence and the Frobenius cycle type name the
    class.  Sets with a frame: _twist_form's key.
    Other sets lie on a line L but for at most one point (so L and that
    point are rational): the PGL_2 descent of the points on L, in the
    coordinates left when one that L's equation involves is dropped.
    """
    cycles = _cycles(K, pts, q)
    if len(pts) <= 3:
        flat = len(pts) == 3 and not linalg.det3(K, pts)
        lengths = "+".join(str(n) for n in sorted((len(c) for c in cycles), reverse=True))
        return f"points:{'line' if flat else 'free'}:{lengths}"
    found, kind = _twist_form(K, q, cycles), "frame"
    if found is None:
        lines = (cross(K, u, v) for u, v in itertools.combinations(pts[:3], 2))
        line = next(ln for ln in lines if sum(1 for p in pts if dot(K, ln, p)) <= 1)
        j = next(i for i, x in enumerate(line) if x)
        on = [[normalize_point(K, p[:j] + p[j + 1:]) for p in c]
              for c in cycles if not dot(K, line, c[0])]
        found, kind = _twist_form(K, q, on), "line" if len(on) == len(cycles) else "line+point"
    c, rest = found
    form = ",".join(map(str, c)) + "".join(";" + ",".join(map(str, p)) for p in rest)
    return f"{kind}:{form}"


def pgl3_form(field, orbits):
    """Canonical form of a union of orbits over a finite field: forms agree
    exactly when a matrix of PGL_3(field) maps one union onto the other."""
    K = common_coordinate_field(field, orbits)
    return _descent(K, _points_in(K, orbits), field.size())


@dataclass
class OrbitClass:
    class_id: str
    representative: PointOrbit
    members: tuple
    strategy: str

    @property
    def count(self):
        return len(self.members)


ALL = "All"
GENERAL_POSITION_ONLY = "GeneralPositionOnly"


def pgl3_classify(orbits, field, filter=ALL):
    """Partition orbits into PGL_3(field)-equivalence classes by their
    forms, orbits of one size materialized in one canonical extension."""
    if filter == GENERAL_POSITION_ONLY:
        orbits = [o for o in orbits if o.general_position == GP_YES]
    orbits = sorted(orbits, key=lambda o: (o.size, o.key()))
    q = field.size()
    classes = []
    for size, group in itertools.groupby(orbits, key=lambda o: o.size):
        group = list(group)
        K = common_coordinate_field(field, group)
        forms = {}
        for o in group:
            memo = o.__dict__.setdefault("_forms", {})  # kept on the orbit, as key() is
            if K not in memo:
                memo[K] = _descent(*materialize_points(o, K=K), q)
            forms.setdefault(memo[K], []).append(o)
        classes.extend(
            OrbitClass(f"pgl3[q={q},n={size}]:{form}", members[0], tuple(members), "galois-descent")
            for form, members in forms.items()
        )
    classes.sort(key=lambda c: (c.representative.size, c.class_id))
    return classes


# ---------------------------------------------------------------------------
# matching transforms


def match_transform(P, Q):
    """A matrix of PGL_3(k) sending the 4-point set P onto Q, or None.

    Four points in general position are a frame, so a bijection between two
    such sets extends to exactly one matrix, which is rational when the
    bijection commutes with Galois (Hilbert 90).  Over a finite field each
    set is ordered along Frobenius, its cycles shortest first and each
    walked from its first point: sets in general position match exactly
    when their cycle types agree, and otherwise raise FingerprintMismatch.
    Over Q only identical normal forms and fully rational explicit sets
    (point i of P onto point i of Q) are decided; anything else is NoMatch.
    """
    P_orbits, Q_orbits = ([X] if isinstance(X, PointOrbit) else list(X) for X in (P, Q))
    fields = {o.field for o in P_orbits + Q_orbits}
    if len(fields) != 1:
        raise IncompatibleFields("orbit sets live over different fields")
    base = P_orbits[0].field
    if sum(o.size for o in P_orbits) != 4 or sum(o.size for o in Q_orbits) != 4:
        raise BadInput("match_transform expects two sets of 4 points")

    if base.is_finite():
        K = common_coordinate_field(base, P_orbits + Q_orbits)
        cycles_p, cycles_q = (
            sorted(_cycles(K, _points_in(K, X), base.size()), key=len) for X in (P_orbits, Q_orbits)
        )
    elif sorted(o.key() for o in P_orbits) == sorted(o.key() for o in Q_orbits):
        one, zero = base.one, base.zero
        return [[one, zero, zero], [zero, one, zero], [zero, zero, one]]
    elif all(o.template == EXPLICIT for o in P_orbits + Q_orbits):
        K = base  # rational points, each its own cycle
        cycles_p, cycles_q = ([[pt] for o in X for pt in o.points] for X in (P_orbits, Q_orbits))
    else:
        return None  # NoMatch-conservatism over Q
    pts_p, pts_q = ([p for c in cycles for p in c] for cycles in (cycles_p, cycles_q))
    if general_position_points(K, pts_p) is not True:
        raise CollinearTriple("P contains a collinear triple")
    if general_position_points(K, pts_q) is not True:
        raise CollinearTriple("Q contains a collinear triple")
    if list(map(len, cycles_p)) != list(map(len, cycles_q)):
        raise FingerprintMismatch("Galois actions on the two sets are incompatible")
    A = linalg.mat_mul(K, linalg.inv3(K, _frame(K, pts_q)[0]), _frame(K, pts_p)[0])
    return [[descend(K, base, x) for x in row] for row in _normalize_matrix(K, A)]


def _normalize_matrix(K, A):
    flat = [x for row in A for x in row]
    first = next((x for x in flat if not K.is_zero(x)), None)
    inv = K.inv(first)
    return [[K.mul(inv, x) for x in row] for row in A]


# ---------------------------------------------------------------------------
# large orbits


def large_orbit(field, delta, parity=None):
    """An orbit of size >= delta: conic form on x^delta - 2 over Q
    (Eisenstein), or on the canonically least irreducible over F_q."""
    if delta < 1:
        raise BadInput("delta must be positive")
    d = delta
    if parity == "odd":
        d += (d + 1) % 2
    if isinstance(field, Rationals):
        if d == 1:
            K = field
            return explicit_orbit(
                field, K, [(QQ.one, QQ.zero, QQ.zero)], check_gp=False
            )
        f = Poly(QQ, [-2] + [0] * (d - 1) + [1])
        return orbit_from_poly(field, f, CONIC)
    f = find_irreducible(field, d)
    return orbit_from_poly(field, f, CONIC)


# ---------------------------------------------------------------------------
# transitive subgroups of Sym_4


def _perm_compose(a, b):
    # (a then b)
    return tuple(b[a[i]] for i in range(len(a)))


def _closure(gens):
    n = len(gens[0])
    identity = tuple(range(n))
    group = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for g in frontier:
            for h in gens:
                c = _perm_compose(g, h)
                if c not in group:
                    group.add(c)
                    nxt.append(c)
        frontier = nxt
    return sorted(group)


def perm_cycles(p):
    seen = set()
    out = []
    for i in range(len(p)):
        if i in seen or p[i] == i:
            continue
        cyc = [i]
        seen.add(i)
        j = p[i]
        while j != i:
            cyc.append(j)
            seen.add(j)
            j = p[j]
        out.append(tuple(x + 1 for x in cyc))
    return "".join("(" + " ".join(map(str, c)) + ")" for c in out) or "id"


PAIRINGS = (
    (frozenset({0, 1}), frozenset({2, 3})),
    (frozenset({0, 2}), frozenset({1, 3})),
    (frozenset({0, 3}), frozenset({1, 2})),
)


def _exchanges(p, pair):
    a, b = pair
    return frozenset(p[i] for i in a) == b and frozenset(p[i] for i in b) == a


@dataclass
class Sym4AuditEntry:
    name: str
    order: int
    elements: tuple
    exchange_witnesses: dict  # pairing label -> all witness permutations


def transitive_sym4_audit():
    """The five transitive subgroups of Sym_4 up to conjugacy, each with a
    witness exchanging every one of the three pairings {i,j}<->{k,l}."""
    c4 = (1, 2, 3, 0)  # (1234)
    t13 = (2, 1, 0, 3)  # (13)
    d12_34 = (1, 0, 3, 2)  # (12)(34)
    subgroups = [
        ("Sym4", _closure([c4, t13, (1, 0, 2, 3)])),
        ("A4", [p for p in _closure([c4, t13, (1, 0, 2, 3)]) if _parity(p) == 0]),
        ("D8", _closure([c4, t13])),
        ("V4", _closure([d12_34, (2, 3, 0, 1)])),
        ("Z4", _closure([c4])),
    ]
    labels = ("12|34", "13|24", "14|23")
    out = []
    for name, elems in subgroups:
        assert _is_transitive(elems)
        witnesses = {}
        for label, pair in zip(labels, PAIRINGS):
            ws = tuple(p for p in elems if _exchanges(p, pair))
            assert ws, f"{name} has no exchange for {label}"
            witnesses[label] = ws
        out.append(
            Sym4AuditEntry(
                name=name,
                order=len(elems),
                elements=tuple(sorted(elems)),
                exchange_witnesses=witnesses,
            )
        )
    return out


def _parity(p):
    inv = 0
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                inv += 1
    return inv % 2


def _is_transitive(elems):
    reach = {0}
    for p in elems:
        reach |= {p[i] for i in reach}
    return reach == set(range(4))
