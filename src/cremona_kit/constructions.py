"""Explicit birational-map families.

Three constructions are provided:

  * the decomposition of (x, y) -> (x p(y), y) on P^1 x P^1 into one type II
    link of depth d = deg p followed by d elementary links of depth 1 down
    the Hirzebruch ladder, with a base-point audit of the defining
    bidegree-(1, d) system;
  * conjugation of a P^1 x P^1 word into a word on P^2 by the blow-up of
    two rational points followed by the contraction of the line through
    them (two depth-1 letters on each side);
  * type II links of odd depth 2n+1 on the degree-5 and degree-6 conic
    bundles: blow up the orbit [0:1:r_i] on the 2n+1 conics through the
    defining points, contract the transformed conics.

For the big links over a finite field everything is verified in
coordinates: the pencil of conics through the defining points is solved
over the base field, the member through one q_i is computed in F_q[s]/(r),
the members through the others are its Frobenius conjugates and must be
2n+1 distinct ones, and no q_i is allowed to be collinear with two defining
points (equivalently, no base point sits on a singular fiber).  Over Q the
member conics are not computed: distinctness is certified by the parity
argument (an odd orbit cannot pair up on the line x = 0) and the
collinearity test is done through resolvents, or by a degree comparison
when deg r exceeds the resolvent degree.
"""

from dataclasses import dataclass
import itertools

from . import linalg
from .errors import (
    BadInput,
    CollinearTriple,
    ConicCoincidence,
    EndpointMismatch,
    EvenDegree,
    NotGeneralPosition,
    NotIrreducible,
)
from .fields import (
    ExtensionField,
    IRREDUCIBLE,
    Poly,
    QQ,
    canonical_extension,
    find_irreducible,
    irreducible_check,
    lift_poly,
    minimal_polynomial,
    poly_to_json,
    sylvester_resultant,
)
from .catalog import (
    CENTER_INF,
    SarkisovLink,
    center_from_poly,
    conic_bundle5,
    conic_bundle6,
    hirzebruch,
    link_validate,
    projective_plane,
)
from .orbits import (
    CONIC,
    GP_NO,
    GP_YES,
    LINE,
    PointOrbit,
    SPLIT,
    coordinate_field,
    explicit_orbit,
    orbit_from_poly,
    roots_in_field,
)
from .rewrite import GroupoidWord, LinkLetter, word


# ---------------------------------------------------------------------------
# de Jonquieres decomposition


@dataclass(frozen=True)
class DeJonquieresMap:
    """[x0:x1; y0:y1] -> [x0 y1^d : x1 p(y0,y1); y0:y1], p irreducible."""

    p: Poly

    def __post_init__(self):
        if self.p.degree < 1:
            raise BadInput("p must be nonconstant")

    @property
    def degree(self):
        return self.p.degree


@dataclass
class DeJonquieresAudit:
    bidegree: tuple
    self_intersection: int
    base_point_total: int
    base_point_multiplicity: int
    coordinate_verified: bool
    notes: tuple

    def to_json(self):
        return {
            "bidegree": list(self.bidegree),
            "self_intersection": self.self_intersection,
            "base_point_total": self.base_point_total,
            "base_point_multiplicity": self.base_point_multiplicity,
            "coordinate_verified": self.coordinate_verified,
            "notes": list(self.notes),
        }


def _unit_orbit(field, template):
    t = Poly(field, (field.zero, field.one))
    return PointOrbit(field, template, 1, t, general_position=GP_YES)


def dejonquieres_decompose(m, allow_unverified=False):
    """Word of d+1 letters: depth-d link P1xP1 -> F_d at the orbit of
    [0:1; t_i:1], then d depth-1 links F_n -> F_{n-1} at the image tower of
    [1:0; 1:0].  Returns (word, audit)."""
    p = m.p.monic()
    field = p.field
    cert = irreducible_check(p)
    if cert.verdict != IRREDUCIBLE and not (
        cert.verdict == "Unverified" and allow_unverified
    ):
        raise NotIrreducible(f"{p} is not certified irreducible")
    d = p.degree
    q_orbit = PointOrbit(
        field, LINE, d, p, general_position=GP_YES if d < 3 else GP_NO
    )
    contracted = PointOrbit(field, CONIC, d, p, general_position=GP_YES)
    big = SarkisovLink(
        "II",
        hirzebruch(0),
        hirzebruch(d),
        orbit_src=q_orbit,
        orbit_tgt=contracted,
        center=center_from_poly(p),
        depth=d,
    )
    letters = [LinkLetter(big, 1)]
    for n in range(d, 0, -1):
        step = SarkisovLink(
            "II",
            hirzebruch(n),
            hirzebruch(n - 1),
            orbit_src=_unit_orbit(field, LINE),
            orbit_tgt=_unit_orbit(field, CONIC),
            center=CENTER_INF,
            depth=1,
        )
        letters.append(LinkLetter(step, 1))
    w = word(letters)
    audit = _audit_dejonquieres(p)
    return w, audit


def _audit_dejonquieres(p):
    """Base-point audit of the bidegree-(1, d) system [x0 y1^d : x1 p]."""
    field = p.field
    d = p.degree
    notes = []
    verified = False
    if field.is_finite() and d <= 8:
        # separability: the d points [0:1; t_i:1] are distinct, each simple
        assert p.gcd(p.derivative()).is_constant()
        K = coordinate_field(field, p)
        roots = roots_in_field(p, K)
        assert len(roots) == d
        pK = lift_poly(K, p)
        assert all(K.is_zero(pK(r)) for r in roots)
        # local form at [1:0; 1:0]: alpha*u^d + beta*x*p*(u) with p* the
        # reversed polynomial.  Substituting x = u^j x_j gives
        # alpha*u^(d-j) + beta*x_j*p*(u): for j < d the origin is a base
        # point on the transform of x = 0, simple because the x_j-linear
        # coefficient beta*p*(0) is nonzero; at j = d the generators
        # (1, x_d p*(u)) have no common zero.  So the tower holds exactly
        # d points iff p*(0) != 0, which is the leading coefficient of p.
        pstar = Poly(field, tuple(reversed(p.coeffs)))
        assert not field.is_zero(pstar(field.zero))
        verified = True
        notes.append("coordinate-verified")
    else:
        notes.append("stated-combinatorics")
    return DeJonquieresAudit(
        bidegree=(1, d),
        self_intersection=2 * d,
        base_point_total=2 * d,
        base_point_multiplicity=1,
        coordinate_verified=verified,
        notes=tuple(notes),
    )


def word_base_point_total(w):
    """Blown-up points, with multiplicity, summed over the word's letters."""
    return sum(
        l.link.orbit_src.size
        for l in w.link_letters()
        if l.link.orbit_src is not None
    )


# ---------------------------------------------------------------------------
# conjugation to P^2


def conjugate_to_p2(w, field=None):
    """alpha^-1 . w . alpha for alpha: P^2 --> P^1 x P^1 the blow-up of two
    rational points followed by the contraction of the line through them."""
    f0 = hirzebruch(0)
    if w.source.key() != f0.key() or w.target.key() != f0.key():
        raise EndpointMismatch("word endpoints must be the P^1 x P^1 model")
    if field is None:
        field = _field_of(w)
    one, zero = field.one, field.zero
    p1 = explicit_orbit(field, field, [(one, zero, zero)], check_gp=False)
    p2 = explicit_orbit(field, field, [(zero, one, zero)], check_gp=False)
    blow1 = SarkisovLink(
        "I", projective_plane(), hirzebruch(1), orbit_src=p1, depth=1
    )
    elem = SarkisovLink(
        "II",
        hirzebruch(1),
        hirzebruch(0),
        orbit_src=p2,
        orbit_tgt=_unit_orbit(field, CONIC),
        center=center_from_poly(Poly(field, (zero, one))),
        depth=1,
    )
    alpha = [LinkLetter(blow1, 1), LinkLetter(elem, 1)]
    alpha_inv = [l.inverse() for l in reversed(alpha)]
    letters = alpha + list(w.letters) + alpha_inv
    return GroupoidWord(tuple(letters), projective_plane(), projective_plane())


def _field_of(w):
    for l in w.link_letters():
        if l.link.orbit_src is not None:
            return l.link.orbit_src.field
        if l.link.center is not None and not l.link.center.at_infinity:
            return l.link.center.poly.field
    raise BadInput("cannot infer the base field from the word; pass field=")


# ---------------------------------------------------------------------------
# big links on the degree-5/6 bundles


@dataclass
class BigLinkReport:
    mode: str  # "coordinate" | "symbolic"
    conic_count: int
    pencil_rank: int
    distinct: object  # True | "parity-argument"
    collinear_clear: object  # True | "degree-argument" | "resolvent"
    center_key: str
    notes: tuple = ()

    def to_json(self):
        return {
            "mode": self.mode,
            "conic_count": self.conic_count,
            "pencil_rank": self.pencil_rank,
            "distinct": self.distinct if self.distinct is True else str(self.distinct),
            "collinear_clear": self.collinear_clear
            if self.collinear_clear is True
            else str(self.collinear_clear),
            "center": self.center_key,
            "notes": list(self.notes),
        }


def _check_r_poly(r_poly, allow_unverified):
    r_poly = r_poly.monic()
    if r_poly.degree % 2 == 0:
        raise EvenDegree(f"need odd degree, got {r_poly.degree}")
    cert = irreducible_check(r_poly)
    if cert.verdict != IRREDUCIBLE and not (
        cert.verdict == "Unverified" and allow_unverified
    ):
        raise NotIrreducible(f"{r_poly} is not certified irreducible")
    return r_poly


def _conic_profile_rows(f):
    """Conditions 'conic vanishes on [1:a:a^2] for all roots a of f':
    f divides c0 + c1 t + (c2+c3) t^2 + c4 t^3 + c5 t^4."""
    field = f.field
    x = Poly(field, (field.zero, field.one))
    exps = [0, 1, 2, 2, 3, 4]
    cols = [x.pow_mod(e, f) for e in exps]
    rows = []
    for i in range(f.degree):
        rows.append([c.coeffs[i] if i <= c.degree else field.zero for c in cols])
    return rows


def _split_profile_rows(f, g):
    """Conditions for [1:a:0] (roots of f) and [1:0:b] (roots of g)."""
    field = f.field
    x = Poly(field, (field.zero, field.one))

    def block(h, cols_idx):
        pows = [x.pow_mod(e, h) for e in (0, 1, 2)]
        rows = []
        for i in range(h.degree):
            row = [field.zero] * 6
            for j, c in zip(cols_idx, pows):
                row[j] = c.coeffs[i] if i <= c.degree else field.zero
            rows.append(row)
        return rows

    return block(f, (0, 1, 3)) + block(g, (0, 2, 5))


def _pencil_basis(field, rows):
    ns = linalg.nullspace(field, rows)
    if len(ns) != 2:
        raise NotGeneralPosition(
            f"defining points impose rank-{6 - len(ns)} conditions, not 4"
        )
    return ns


def _parameters_and_center(field, Q1, Q2, r_poly):
    """Pencil parameters of the members through [0:1:r_i], all r_i roots.

    Returns (center, number of conics).  A and B have coefficients in the
    base field, so the parameter at r_i is the i-th Frobenius image of the
    parameter u at one root: the members are pairwise distinct exactly when
    u has D conjugates, and the center is then the minimal polynomial of u.
    """
    A = Poly(field, (Q1[3], Q1[4], Q1[5]))
    B = Poly(field, (Q2[3], Q2[4], Q2[5]))
    D = r_poly.degree
    if D == 1:
        r = roots_in_field(r_poly, field)[0]
        a, b = A(r), B(r)
        if field.is_zero(a) and field.is_zero(b):
            raise ConicCoincidence("the whole pencil passes through q_1")
        if field.is_zero(a):
            return CENTER_INF, 1
        u = field.neg(field.div(b, a))
        return center_from_poly(Poly(field, (field.neg(u), field.one))), 1
    T = ExtensionField(field, r_poly.coeffs, check=False)
    a, b = lift_poly(T, A)(T.gen()), lift_poly(T, B)(T.gen())
    if T.is_zero(a) and T.is_zero(b):
        raise ConicCoincidence("the whole pencil passes through a q_i")
    if T.is_zero(a):
        # the parameter would be a rational point with an orbit of size D
        raise ConicCoincidence("conic parameters degenerate to infinity")
    center_poly = minimal_polynomial(T, T.neg(T.div(b, a)))
    if center_poly.degree < D:
        # u_i = u_j exactly when i = j mod the number of conjugates of u
        raise ConicCoincidence(f"conics through q_1 and q_{center_poly.degree + 1} coincide")
    return center_from_poly(center_poly), D


def _collinear_c5_finite(field, f, r_poly):
    """q_i on the line through [1:a_k:a_k^2], [1:a_l:a_l^2] iff r_i = a_k+a_l.
    r is certified irreducible, so a_k + a_l is some r_i iff r(a_k + a_l) = 0."""
    K = coordinate_field(field, f)
    roots = roots_in_field(f, K)
    rK = lift_poly(K, r_poly)
    if any(K.is_zero(rK(K.add(a, b))) for a, b in itertools.combinations(roots, 2)):
        raise CollinearTriple("a q_i is collinear with two of the defining points")
    return True


def _collinear_c6_finite(field, f, g, r_poly):
    """Lines z=0 (r=0), y=0 (never), and mixed pairs (r(-b/a) = 0)."""
    if field.is_zero(r_poly(field.zero)):
        raise CollinearTriple("q at [0:1:0] lies on the line z=0")
    K = canonical_extension(field, 2)
    rK = lift_poly(K, r_poly)
    pairs = itertools.product(roots_in_field(f, K), roots_in_field(g, K))
    if any(K.is_zero(rK(K.neg(K.div(b, a)))) for a, b in pairs):
        raise CollinearTriple("a q_i is collinear with two of the defining points")
    return True


def _poly_interpolate(field, xs, ys):
    out = Poly(field, ())
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        num = Poly(field, (yi,))
        den = field.one
        for j, xj in enumerate(xs):
            if i == j:
                continue
            num = num * Poly(field, (field.neg(xj), field.one))
            den = field.mul(den, field.sub(xi, xj))
        out = out + num.scale(field.inv(den))
    return out


def _compose_at(f, c, sign):
    """f(c + sign*t) as a polynomial in t."""
    field = f.field
    lin = Poly(field, (c, sign))
    acc = Poly(field, ())
    for coeff in reversed(f.coeffs):
        acc = acc * lin + Poly(field, (coeff,))
    return acc


def _collinear_c5_q(f, r_poly):
    """Over Q: some root of r equals a_k + a_l iff r divides the pairwise-sum
    resolvent; for deg r > 6 the degrees already rule it out."""
    if r_poly.degree > 6:
        return "degree-argument"
    field = f.field
    d = f.degree
    # h(x) = Res_y(f(y), f(x - y)) = prod(x - a_i - a_j) over all i, j
    # h has degree d^2, so d^2 + 1 values fix it
    pts = [field.from_int(k) for k in range(d * d + 1)]
    vals = [sylvester_resultant(f, _compose_at(f, x0, field.neg(field.one))) for x0 in pts]
    h = _poly_interpolate(field, pts, vals)
    # strip the diagonal prod(x - 2 a_i) = 2^d f(x/2)
    half = field.inv(field.from_int(2))
    diag = Poly(field, [c * field.pow(half, i) for i, c in enumerate(f.coeffs)])
    diag = diag.scale(field.from_int(2) ** d)
    quot, rem = h.divmod(diag)
    assert rem.is_zero()
    if not r_poly.gcd(quot).is_constant():
        raise CollinearTriple("a root of r equals a sum of two defining parameters")
    return "resolvent"


def _collinear_c6_q(f, g, r_poly):
    field = f.field
    if field.is_zero(r_poly(field.zero)):
        raise CollinearTriple("q at [0:1:0] lies on the line z=0")
    if r_poly.degree > f.degree * g.degree:
        return "degree-argument"
    # R(x) = Res_y(f(y), g(-x y)): roots are -b/a
    pts = [field.from_int(k) for k in range(f.degree * g.degree + 1)]
    vals = []
    for x0 in pts:
        gx = Poly(field, [c * field.pow(field.neg(x0), j) for j, c in enumerate(g.coeffs)])
        vals.append(sylvester_resultant(f, gx))
    R = _poly_interpolate(field, pts, vals)
    if not r_poly.gcd(R).is_constant():
        raise CollinearTriple("a root of r equals -b/a for defining parameters")
    return "resolvent"


def _big_link(model, base_field, rows, r_poly, collinear_finite, collinear_q):
    Q1, Q2 = _pencil_basis(base_field, rows)
    D = r_poly.degree
    q_orbit = PointOrbit(
        base_field, LINE, D, r_poly, general_position=GP_YES if D < 3 else GP_NO
    )
    if base_field.is_finite():
        clear = collinear_finite()
        center, count = _parameters_and_center(base_field, Q1, Q2, r_poly)
        report = BigLinkReport(
            mode="coordinate",
            conic_count=count,
            pencil_rank=4,
            distinct=True,
            collinear_clear=clear,
            center_key=center.key(),
            notes=("singular-fiber-clearance-derived-from-collinearity",),
        )
    else:
        how = collinear_q()
        center = center_from_poly(r_poly)
        report = BigLinkReport(
            mode="symbolic",
            conic_count=D,
            pencil_rank=4,
            distinct="parity-argument",
            collinear_clear=how,
            center_key=center.key(),
            notes=("distinctness-symbolic", "center-id-symbolic"),
        )
    link = SarkisovLink(
        "II",
        model,
        model,
        orbit_src=q_orbit,
        orbit_tgt=None,
        center=center,
        depth=D,
    )
    assert link_validate(link)
    return link, report


def c5_big_link(orbit4, r_poly, allow_unverified=False):
    """Type II link of odd depth deg r on the degree-5 bundle over the
    conic-form orbit.  Returns (link, report)."""
    if orbit4.template != CONIC or orbit4.size != 4:
        raise BadInput("c5_big_link expects a size-4 conic-form orbit")
    if orbit4.general_position != GP_YES:
        raise NotGeneralPosition("defining orbit is not in general position")
    field = orbit4.field
    r_poly = _check_r_poly(r_poly, allow_unverified)
    if r_poly.field != field:
        raise BadInput("orbit and r-polynomial live over different fields")
    f = orbit4.min_poly
    return _big_link(
        conic_bundle5(orbit4),
        field,
        _conic_profile_rows(f),
        r_poly,
        lambda: _collinear_c5_finite(field, f, r_poly),
        lambda: _collinear_c5_q(f, r_poly),
    )


def c6_big_link(split_orbit, r_poly, allow_unverified=False):
    """Type II link of odd depth deg r on the degree-6 bundle over the
    split-form pair of size-2 orbits.  Returns (link, report)."""
    if split_orbit.template != SPLIT:
        raise BadInput("c6_big_link expects the split normal form")
    if split_orbit.general_position == GP_NO:
        raise NotGeneralPosition("defining orbits are not in general position")
    field = split_orbit.field
    r_poly = _check_r_poly(r_poly, allow_unverified)
    if r_poly.field != field:
        raise BadInput("orbit and r-polynomial live over different fields")
    f, g = split_orbit.min_poly, split_orbit.min_poly2
    return _big_link(
        conic_bundle6(split_orbit),
        field,
        _split_profile_rows(f, g),
        r_poly,
        lambda: _collinear_c6_finite(field, f, g, r_poly),
        lambda: _collinear_c6_q(f, g, r_poly),
    )


def mirror_split_orbit(field, quad):
    """Split pair from one size-2 orbit: [1:a_i:0] and [1:0:a_i]."""
    return orbit_from_poly(field, quad, SPLIT, second_poly=quad)


# ---------------------------------------------------------------------------
# refined target report


@dataclass
class RefinedTargetReport:
    field_json: dict
    indices: list          # (n, depth 2n+1, polynomial) within the bound
    n2: dict               # filter -> class count (finite fields)
    n4: dict
    witness_words: dict    # factor name -> GroupoidWord
    witness_images: dict   # factor name -> FreeProductElement
    free_factors_ok: bool
    notes: tuple

    def to_json(self):
        return {
            "field": self.field_json,
            "I": [
                {"n": n, "depth": d, "poly": poly_to_json(p)}
                for n, d, p in self.indices
            ],
            "N2": self.n2,
            "N4": self.n4,
            "witness_images": {
                k: v.to_json() for k, v in sorted(self.witness_images.items())
            },
            "free_factors_ok": self.free_factors_ok,
            "notes": list(self.notes),
        }


def refined_target_report(field, bound):
    """Index sets and free-factor witnesses for the refined homomorphism.

    Lists the odd degrees 2n+1 <= bound (n >= 8) realized by irreducible
    polynomials, computes the size-2/size-4 orbit class counts over finite
    fields (both with and without the general-position filter), and emits
    one witness word per factor family whose images pairwise refuse to
    merge."""
    from .fields import field_to_json
    from .freeprod import homo_eval, witness_free_factors
    from .orbits import (
        ALL,
        GENERAL_POSITION_ONLY,
        enumerate_point_orbits,
        large_orbit,
        pgl3_classify,
    )

    if bound < 17:
        raise BadInput("bound must be at least 17 (depth 2n+1 with n >= 8)")
    notes = []
    n2, n4 = {}, {}  # first: over a large field the census refuses at once
    if field.is_finite():
        for size, table in ((2, n2), (4, n4)):
            orbits = enumerate_point_orbits(field, size)
            table["all"] = len(pgl3_classify(orbits, field, filter=ALL))
            table["general_position"] = len(
                pgl3_classify(orbits, field, filter=GENERAL_POSITION_ONLY)
            )
    else:
        n2["all"] = n4["all"] = None
        n2["general_position"] = n4["general_position"] = None
        notes.append("orbit classes not enumerable over Q (infinitely many)")

    indices = []
    for d in range(17, bound + 1, 2):
        if field.is_finite():
            poly = find_irreducible(field, d)
        else:
            poly = Poly(QQ, [-2] + [0] * (d - 1) + [1])
            assert irreducible_check(poly).verdict == IRREDUCIBLE
        indices.append(((d - 1) // 2, d, poly))

    r17 = indices[0][2]
    dj_word, _ = dejonquieres_decompose(DeJonquieresMap(r17))
    if field.is_finite():
        orbit4 = large_orbit(field, 4)
        quad = find_irreducible(field, 2)
    else:
        orbit4 = large_orbit(field, 4)
        quad = Poly(QQ, (-2, 0, 1))
    split = mirror_split_orbit(field, quad)
    link5, _ = c5_big_link(orbit4, r17)
    link6, _ = c6_big_link(split, r17)
    words = {
        "hirzebruch": dj_word,
        "dp5": word([LinkLetter(link5, 1)]),
        "dp6": word([LinkLetter(link6, 1)]),
    }
    images = {k: homo_eval(w) for k, w in words.items()}
    ok = witness_free_factors(list(images.values())) and all(
        len(v) == 1 for v in images.values()
    )
    factors = {v.word[0][0] for v in images.values()}
    ok = ok and len(factors) == 3
    return RefinedTargetReport(
        field_json=field_to_json(field),
        indices=indices,
        n2=n2,
        n4=n4,
        witness_words=words,
        witness_images=images,
        free_factors_ok=ok,
        notes=tuple(notes),
    )
