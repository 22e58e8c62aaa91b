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

PGL_3(F_q)-equivalence is decided in this module only: `pgl3_form` names
the class of a union of orbits and holds the choice, which `pgl3_classify`
follows, between walking the whole class along four generators of the group
(q <= SWEEP_MAX_Q) and frame normalization.
"""

from dataclasses import dataclass, field as dc_field
import itertools

from . import linalg
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
    ExtensionField,
    IRREDUCIBLE,
    Poly,
    QQ,
    Rationals,
    UNVERIFIED,
    factor_over_prime_field,
    field_from_json,
    field_to_json,
    find_irreducible,
    irreducible_check,
    poly_from_json,
    poly_to_json,
)

CONIC = "conic"
SPLIT = "split"
LINE = "line"
EXPLICIT = "explicit"

GP_YES = "yes"
GP_NO = "no"
GP_UNKNOWN = "unknown"

EXT_DEGREE_CAP = 64  # desk scale


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
            size, K = obj["size"], _coordinate_field(base, min_poly)
            pts = [tuple(K.elem_from_str(s) for s in pt) for pt in obj["points"]]
    except MALFORMED_JSON as exc:
        raise BadInput(f"malformed orbit JSON: {exc!r}")
    if min_poly.field != base or (second is not None and second.field != base):
        raise BadInput("orbit polynomials must live over the orbit's field")
    if template != EXPLICIT:
        return orbit_from_poly(base, min_poly, template, second, allow_unverified=True)
    if K != base and not (base.is_finite() and irreducible_check(min_poly).verdict == IRREDUCIBLE):
        raise BadInput("explicit coordinates need an irreducible min_poly over a finite field")
    pts = tuple(normalize_point(K, pt) for pt in pts)  # K is a field from here on
    if type(size) is not int or size != len(pts) or any(len(pt) != 3 for pt in pts):
        raise BadInput("an explicit orbit needs `size` points with 3 coordinates each")
    if K != base and _set_key(K, (_frobenius(K, p, base.size()) for p in pts)) != _set_key(K, pts):
        raise BadInput("explicit points must be closed under Frobenius")
    return PointOrbit(
        base, EXPLICIT, size, min_poly, points=pts, coord_field=K,
        general_position=obj.get("general_position", GP_UNKNOWN),
    )


def _coordinate_field(base, min_poly):
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


def _frobenius(K, pt, q):
    return normalize_point(K, tuple(K.pow(c, q) for c in pt))


def _roots_via_frobenius(K, f, q):
    """Roots of f in K = base[t]/(f): the Frobenius orbit of the generator."""
    r = K.gen()
    roots = [r]
    for _ in range(f.degree - 1):
        r = K.pow(r, q)
        roots.append(r)
    return roots


def roots_in_field(f, K):
    """All roots of f inside the finite field K, sorted canonically."""
    if f.degree == 1:
        c0, c1 = f.coeffs
        root = K.neg(K.div(_lift(K, f.field, c0), _lift(K, f.field, c1)))
        return [root]
    lifted = Poly(K, [_lift(K, f.field, c) for c in f.coeffs])
    roots = []
    for factor, _ in factor_over_prime_field(lifted):
        if factor.degree == 1:
            roots.append(K.neg(factor.coeffs[0]))
    return sorted(roots, key=K.to_int)


def _lift(K, base, c):
    """Embed a base-field constant into K (K an extension of base, or base)."""
    if K == base:
        return c
    if isinstance(K, ExtensionField) and K.base == base:
        return K.embed(c)
    if isinstance(K, ExtensionField):
        return K.embed(_lift(K.base, base, c))
    raise IncompatibleFields(f"cannot embed {base} into {K}")


def materialize_points(orbit, K=None, q=None):
    """Coordinate triples of the orbit in a finite extension.

    With K=None, uses the orbit's natural coordinate field.  Points are
    normalized and sorted canonically.
    """
    base = orbit.field
    if not base.is_finite():
        raise UncomputableOverQ("explicit coordinates need a finite field")
    q = q or base.size()
    if orbit.template == EXPLICIT:
        if K is None or K == orbit.coord_field:
            return orbit.coord_field, orbit.points
        # re-embed via root identification of the coordinate modulus; the
        # point set is Galois-stable, so the choice of root is immaterial
        src = orbit.coord_field
        if src == base:
            pts = [tuple(_lift(K, base, c) for c in pt) for pt in orbit.points]
        else:
            root = roots_in_field(Poly(base, src.modulus), K)[0]

            def convert(c):
                return Poly(K, [_lift(K, base, ci) for ci in c])(root)

            pts = [tuple(convert(c) for c in pt) for pt in orbit.points]
        pts = sorted((normalize_point(K, p) for p in pts), key=lambda p: point_sort_key(K, p))
        return K, tuple(pts)
    if orbit.template in (CONIC, LINE):
        f = orbit.min_poly
        if K is None:
            K = _coordinate_field(base, f)
            if f.degree >= 2:
                roots = _roots_via_frobenius(K, f, q)
            else:
                roots = roots_in_field(f, K)
        else:
            roots = roots_in_field(f, K)
        one, zero = K.one, K.zero
        if orbit.template == CONIC:
            pts = [(one, r, K.mul(r, r)) for r in roots]
        else:
            pts = [(zero, one, r) for r in roots]
        pts = sorted((normalize_point(K, p) for p in pts), key=lambda p: point_sort_key(K, p))
        return K, tuple(pts)
    if orbit.template == SPLIT:
        f, g = orbit.min_poly, orbit.min_poly2
        if K is None:
            if f == g:
                K = _coordinate_field(base, f)
            else:
                K = ExtensionField(base, find_irreducible(base, 2).coeffs, check=False)
        ra = roots_in_field(f, K)
        rb = roots_in_field(g, K)
        one, zero = K.one, K.zero
        pts = [(one, a, zero) for a in ra] + [(one, zero, b) for b in rb]
        pts = sorted((normalize_point(K, p) for p in pts), key=lambda p: point_sort_key(K, p))
        return K, tuple(pts)
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
    pts = tuple(
        sorted(
            (normalize_point(K, p) for p in pts),
            key=lambda p: point_sort_key(K, p),
        )
    )
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
    if len(pts) < 3:
        return True
    for a, b, c in itertools.combinations(pts, 3):
        if K.is_zero(linalg.det3(K, [list(a), list(b), list(c)])):
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
    if n == 1:
        return base
    return ExtensionField(base, find_irreducible(base, n).coeffs, check=False)


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
    if q ** n > 2 ** 32:
        raise ScaleExceeded(f"q^n = {q ** n} exceeds 2^32")
    K = field if n == 1 else ExtensionField(field, find_irreducible(field, n).coeffs, check=False)

    def all_points():
        elems = sorted(K.elements(), key=K.to_int)
        yield (K.zero, K.zero, K.one)
        for c in elems:
            yield (K.zero, K.one, c)
        for b in elems:
            for c in elems:
                yield (K.one, b, c)

    orbits = []
    seen = set()
    for pt in all_points():
        key = point_sort_key(K, pt)
        if key in seen:
            continue
        orbit_pts = [pt]
        seen.add(key)
        cur = _frobenius(K, pt, q)
        while point_sort_key(K, cur) != key:
            orbit_pts.append(cur)
            seen.add(point_sort_key(K, cur))
            cur = _frobenius(K, cur, q)
        if len(orbit_pts) == n:
            orbits.append(explicit_orbit(field, K, orbit_pts))
    orbits.sort(key=lambda o: o.key())
    assert len(orbits) == closed_point_count(q, n)
    return orbits


# ---------------------------------------------------------------------------
# PGL_3 classification

# Largest q whose PGL_3(F_q)-classes are walked whole; above it they come
# from frame normalization (one 4-point class over F_7 has about 10^6 sets).
SWEEP_MAX_Q = 5


def _pgl3_generators(field):
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
    return [[_lift(K, base, m) for m in row] for row in M]


def _set_key(K, pts):
    return tuple(sorted(point_sort_key(K, p) for p in pts))


def _image_key(K, rows, pts):
    """Set key of the image of pts under the matrix rows over K."""
    return _set_key(K, [apply_matrix(K, rows, p) for p in pts])


def _class_walk(field, K, pts):
    """Set keys of every image of the point set pts (in K) under PGL_3(field),
    walked breadth first along the generators."""
    gens = [lift_matrix(K, field, M) for M in _pgl3_generators(field)]
    todo, seen = [pts], {_set_key(K, pts)}
    for cur in todo:
        for rows in gens:
            img = [apply_matrix(K, rows, p) for p in cur]
            key = _set_key(K, img)
            if key not in seen:
                seen.add(key)
                todo.append(img)
    return seen


def pgl3_form(field, orbits):
    """Canonical form string of a union of orbits under PGL_3(field).

    q <= SWEEP_MAX_Q: the least set key that _class_walk visits.  Larger q:
    the least image under the matrices that send an ordered general-position
    4-subset onto the standard frame; unions without such a subset are
    refused.  pgl3_classify makes the same choice.
    """
    K = common_coordinate_field(field, orbits)
    pts = _points_in(K, orbits)
    if field.size() > SWEEP_MAX_Q:
        return _frame_form(K, pts)
    return str(min(_class_walk(field, K, pts)))


def _frame_form(K, pts):
    forms = (
        _image_key(K, linalg.inv3(K, _frame_matrix(K, quad)), pts)
        for quad in itertools.permutations(pts, 4)
        if general_position_points(K, quad) is True
    )
    best = min(forms, default=None)
    if best is None:
        raise ScaleExceeded(
            f"frame normalization needs 4 points in general position (q > {SWEEP_MAX_Q})"
        )
    return str(best)


def _frame_matrix(K, frame):
    """Matrix sending the standard frame e1,e2,e3,(1,1,1) to the 4 points."""
    p1, p2, p3, p4 = frame
    A = [[p1[i], p2[i], p3[i]] for i in range(3)]
    c = linalg.solve(K, A, list(p4))
    if c is None or any(K.is_zero(ci) for ci in c):
        raise CollinearTriple("frame points are degenerate")
    return [[K.mul(c[j], A[i][j]) for j in range(3)] for i in range(3)]


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
    """Partition orbits into PGL_3(field)-equivalence classes.

    All orbits of one size are materialized in the same canonical
    coordinate extension, so orbits built from different minimal
    polynomials compare correctly.  The method is pgl3_form's: for
    q <= SWEEP_MAX_Q one class walk per class, which collects every member;
    above it, orbits are grouped by their frame normalization, and orbits
    without 4 points in general position are refused.
    """
    if filter == GENERAL_POSITION_ONLY:
        orbits = [o for o in orbits if o.general_position == GP_YES]
    orbits = sorted(orbits, key=lambda o: (o.size, o.key()))
    q = field.size()
    strategy = "exhaustive" if q <= SWEEP_MAX_Q else "frame-normalization"
    classes = []
    for size, group in itertools.groupby(orbits, key=lambda o: o.size):
        group = list(group)
        K = common_coordinate_field(field, group)
        forms, pending = {}, {}  # pending: set key -> (points, orbits)
        for o in group:
            pts = materialize_points(o, K=K)[1]
            if q > SWEEP_MAX_Q:
                forms.setdefault(_frame_form(K, pts), []).append(o)
            else:
                pending.setdefault(_set_key(K, pts), (pts, []))[1].append(o)
        while pending:
            images = _class_walk(field, K, next(iter(pending.values()))[0])
            members = [o for img in images if img in pending for o in pending.pop(img)[1]]
            forms[str(min(images))] = sorted(members, key=lambda o: o.key())
        classes.extend(
            OrbitClass(f"pgl3[q={q},n={size}]:{form}", members[0], tuple(members), strategy)
            for form, members in forms.items()
        )
    classes.sort(key=lambda c: (c.representative.size, c.class_id))
    return classes


# ---------------------------------------------------------------------------
# matching transforms


@dataclass(frozen=True)
class PermutationActionFingerprint:
    generator_images: tuple  # one permutation (image tuple) per generator


def frobenius_fingerprint(K, pts, q):
    """Permutation induced by x -> x^q on the labeled point list."""
    keys = [point_sort_key(K, p) for p in pts]
    images = []
    for p in pts:
        images.append(keys.index(point_sort_key(K, _frobenius(K, p, q))))
    return PermutationActionFingerprint((tuple(images),))


def _collect_points(arg):
    if isinstance(arg, PointOrbit):
        return [arg]
    return list(arg)


def match_transform(P, Q):
    """A matrix of PGL_3(k) sending the 4-point set P onto Q, or None.

    Full search over labelings: the frame matrix for each labeling is
    accepted when the substitution check passes and, over a finite field,
    when the labeling commutes with Frobenius and the entries are
    Frobenius-fixed.  Over Q only identical normal forms and fully rational
    explicit sets are decided; anything else is NoMatch.
    """
    P_orbits, Q_orbits = _collect_points(P), _collect_points(Q)
    fields = {o.field for o in P_orbits + Q_orbits}
    if len(fields) != 1:
        raise IncompatibleFields("orbit sets live over different fields")
    base = P_orbits[0].field
    if sum(o.size for o in P_orbits) != 4 or sum(o.size for o in Q_orbits) != 4:
        raise BadInput("match_transform expects two sets of 4 points")

    finite = base.is_finite()
    if finite:
        K = common_coordinate_field(base, P_orbits + Q_orbits)
        pts_p, pts_q = _points_in(K, P_orbits), _points_in(K, Q_orbits)
    elif sorted(o.key() for o in P_orbits) == sorted(o.key() for o in Q_orbits):
        one, zero = base.one, base.zero
        return [[one, zero, zero], [zero, one, zero], [zero, zero, one]]
    elif all(o.template == EXPLICIT for o in P_orbits + Q_orbits):
        K = base
        pts_p = [pt for o in P_orbits for pt in o.points]
        pts_q = [pt for o in Q_orbits for pt in o.points]
    else:
        return None  # NoMatch-conservatism over Q
    if general_position_points(K, pts_p) is not True:
        raise CollinearTriple("P contains a collinear triple")
    if general_position_points(K, pts_q) is not True:
        raise CollinearTriple("Q contains a collinear triple")

    labelings = list(itertools.permutations(range(4)))
    if finite:
        q = base.size()
        sigma_p = frobenius_fingerprint(K, pts_p, q).generator_images[0]
        sigma_q = frobenius_fingerprint(K, pts_q, q).generator_images[0]
        labelings = [
            pi for pi in labelings if all(pi[sigma_p[i]] == sigma_q[pi[i]] for i in range(4))
        ]
        if not labelings:
            raise FingerprintMismatch("Galois actions on the two sets are incompatible")

    MP_inv = linalg.inv3(K, _frame_matrix(K, pts_p))
    for pi in labelings:
        MQ = _frame_matrix(K, [pts_q[pi[i]] for i in range(4)])
        A = _normalize_matrix(K, linalg.mat_mul(K, MQ, MP_inv))
        if finite and not _matrix_frobenius_fixed(K, A, q):
            continue
        if all(
            point_sort_key(K, apply_matrix(K, A, pts_p[i]))
            == point_sort_key(K, pts_q[pi[i]])
            for i in range(4)
        ):
            return [[_descend(K, base, x) for x in row] for row in A]
    return None


def _normalize_matrix(K, A):
    flat = [x for row in A for x in row]
    first = next((x for x in flat if not K.is_zero(x)), None)
    inv = K.inv(first)
    return [[K.mul(inv, x) for x in row] for row in A]


def _matrix_frobenius_fixed(K, A, q):
    for row in A:
        for x in row:
            if K.pow(x, q) != x:
                return False
    return True


def _descend(K, base, x):
    """Extract the base-field value of a Frobenius-fixed element of K."""
    if K == base:
        return x
    if len(x) > 1:
        raise BadInput("element is not in the base field")
    inner = x[0] if x else K.base.zero
    return _descend(K.base, base, inner) if K.base != base else inner


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
