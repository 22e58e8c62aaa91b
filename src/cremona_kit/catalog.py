"""Models of rational Mori fiber spaces and Sarkisov links.

A model is class-level data, not a concrete surface: it records exactly the
invariants the rewriting and homomorphism layers consume (kind, Hirzebruch
index, del Pezzo degree, defining orbits for the degree-5/6 conic bundles).
Links carry their endpoints, base orbits where coordinates exist, a fiber
center on the base P^1, and their Galois depth.

Validation encodes the orbit-size bounds (blow-ups between del Pezzo models
stay within size 8), the II:x:x pattern for conic bundles, the K^2
accounting of blow-ups, and the restriction of rational Mori conic bundles
to K^2 in {5, 6, 8}.  Del Pezzo/del Pezzo edges beyond these bounds are
under-determined by the encoded facts and are flagged
"necessary-conditions-only" instead of being invented.
"""

from dataclasses import dataclass, field as dc_field

from .errors import MALFORMED_JSON, BadInput, NonRational
from .fields import Poly, poly_from_json, poly_to_json
from .orbits import (
    EXPLICIT,
    PointOrbit,
    SPLIT,
    general_position_points,
    orbit_from_json,
    orbit_to_json,
    pgl3_form,
)

P2 = "P2"
HIRZEBRUCH = "F"
CB5 = "CB5"
CB6 = "CB6"
DEL_PEZZO = "DP"
NRCB = "NRCB"


@dataclass(frozen=True)
class MoriFiberSpace:
    kind: str
    n: int = None         # Hirzebruch index
    degree: int = None    # del Pezzo degree
    orbit: PointOrbit = None  # CB5: size-4 orbit; CB6: split-form pair of size-2 orbits

    def __post_init__(self):
        if self.kind == HIRZEBRUCH and (self.n is None or self.n < 0):
            raise BadInput("Hirzebruch model needs an index n >= 0")
        if self.kind == DEL_PEZZO and not (self.degree and 1 <= self.degree <= 9):
            raise BadInput("del Pezzo degree must be 1..9")
        if self.kind == CB5:
            if self.orbit is None or self.orbit.size != 4:
                raise BadInput("CB5 model needs a size-4 defining orbit")
            if not _in_general_position(self.orbit):
                raise BadInput("CB5 defining orbit must be in general position")
        if self.kind == CB6:
            if self.orbit is None or self.orbit.template != SPLIT:
                raise BadInput(
                    "CB6 model needs its two size-2 orbits in split normal form"
                )
            if self.orbit.general_position == "no":
                raise BadInput("CB6 defining orbits must be in general position")

    @property
    def base_dim(self):
        return 1 if self.kind in (HIRZEBRUCH, CB5, CB6, NRCB) else 0

    @property
    def k_squared(self):
        return {P2: 9, HIRZEBRUCH: 8, CB5: 5, CB6: 6}.get(self.kind, self.degree)

    @property
    def rational(self):
        return self.kind != NRCB

    def key(self):
        cached = getattr(self, "_key", None)
        if cached is not None:
            return cached
        if self.kind == HIRZEBRUCH:
            key = f"F{self.n}"
        elif self.kind == DEL_PEZZO:
            key = f"DP{self.degree}"
        elif self.kind in (CB5, CB6):
            key = f"{self.kind}[{self.orbit.key()}]"
        else:
            key = self.kind
        object.__setattr__(self, "_key", key)
        return key

    def __repr__(self):
        return self.key()


def _in_general_position(orbit):
    """An explicit orbit's points decide (four determinants for a CB5 model),
    not the general_position it was read with; the other templates computed
    theirs from the minimal polynomial when they were built."""
    if orbit.template == EXPLICIT:
        return general_position_points(orbit.coord_field, orbit.points) is True
    return orbit.general_position != "no"


def projective_plane():
    return MoriFiberSpace(P2)


def hirzebruch(n):
    return MoriFiberSpace(HIRZEBRUCH, n=n)


def conic_bundle5(orbit):
    return MoriFiberSpace(CB5, orbit=orbit)


def conic_bundle6(split_orbit):
    return MoriFiberSpace(CB6, orbit=split_orbit)


def del_pezzo(d):
    return MoriFiberSpace(DEL_PEZZO, degree=d)


def non_rational_cb():
    return MoriFiberSpace(NRCB)


@dataclass
class MfsInvariants:
    k_squared: int
    singular_fibers: int
    picard_rank_over_k: int
    rational: bool


def mfs_invariants(X):
    """K^2, singular fiber count (8 - K^2 over a curve), Picard rank."""
    if not X.rational:
        return MfsInvariants(None, None, None, False)
    k2 = X.k_squared
    fibers = 8 - k2 if X.base_dim == 1 else None
    rank = 2 if X.base_dim == 1 else 1
    return MfsInvariants(k2, fibers, rank, True)


def mfs_to_json(X):
    out = {"kind": X.kind}
    if X.kind == HIRZEBRUCH:
        out["n"] = X.n
    elif X.kind == DEL_PEZZO:
        out["degree"] = X.degree
    elif X.kind == CB5:
        out["orbit"] = orbit_to_json(X.orbit)
    elif X.kind == CB6:
        out["orbit"] = orbit_to_json(X.orbit)
    return out


def _json_int(value, what):
    """value when it is a JSON integer (not a bool), else BadInput."""
    if type(value) is not int:
        raise BadInput(f"{what} must be an integer, got {value!r}")
    return value


def mfs_from_json(obj):
    """Inverse of mfs_to_json; malformed input is refused with BadInput."""
    try:
        kind = obj["kind"]
        if kind == P2:
            return projective_plane()
        if kind == HIRZEBRUCH:
            return hirzebruch(_json_int(obj["n"], "Hirzebruch index"))
        if kind == DEL_PEZZO:
            return del_pezzo(_json_int(obj["degree"], "del Pezzo degree"))
        if kind == CB5:
            return conic_bundle5(orbit_from_json(obj["orbit"]))
        if kind == CB6:
            return conic_bundle6(orbit_from_json(obj["orbit"]))
        if kind == NRCB:
            return non_rational_cb()
    except MALFORMED_JSON as exc:
        raise BadInput(f"malformed model JSON: {exc!r}")
    raise BadInput(f"unknown MFS kind {kind!r}")


# ---------------------------------------------------------------------------
# fiber centers


@dataclass(frozen=True)
class FiberCenter:
    """Orbit of base points on the bundle's P^1: a monic irreducible in the
    affine chart, or the rational point at infinity."""

    poly: Poly = None
    at_infinity: bool = False

    def __post_init__(self):
        if self.at_infinity == (self.poly is not None):
            raise BadInput("center is either a polynomial or infinity")

    def key(self):
        cached = getattr(self, "_key", None)
        if cached is not None:
            return cached
        if self.at_infinity:
            key = "inf"
        else:
            key = ",".join(self.poly.field.elem_to_str(c) for c in self.poly.coeffs)
        object.__setattr__(self, "_key", key)
        return key

    def degree(self):
        return 1 if self.at_infinity else self.poly.degree

    def same_fiber(self, other):
        # monic irreducibles: distinct polynomials are coprime
        return self.key() == other.key()

    def to_json(self):
        return "inf" if self.at_infinity else poly_to_json(self.poly)

    @staticmethod
    def from_json(obj):
        if obj == "inf":
            return FiberCenter(at_infinity=True)
        return FiberCenter(poly=poly_from_json(obj).monic())


def center_from_poly(p):
    return FiberCenter(poly=p.monic())


CENTER_INF = FiberCenter(at_infinity=True)


# ---------------------------------------------------------------------------
# Sarkisov links


@dataclass(frozen=True)
class SarkisovLink:
    link_type: str  # "I" | "II" | "III" | "IV"
    source: MoriFiberSpace
    target: MoriFiberSpace
    orbit_src: PointOrbit = None  # base orbit of the link (on source)
    orbit_tgt: PointOrbit = None  # base orbit of the inverse (on target)
    center: FiberCenter = None    # fiber orbit on the base P^1 (CB links)
    depth: int = 0
    avoids_singular_fibers: bool = dc_field(default=True, compare=False)

    def inverse(self):
        inv_type = {"I": "III", "III": "I"}.get(self.link_type, self.link_type)
        return SarkisovLink(
            inv_type,
            self.target,
            self.source,
            orbit_src=self.orbit_tgt,
            orbit_tgt=self.orbit_src,
            center=self.center,
            depth=self.depth,
            avoids_singular_fibers=self.avoids_singular_fibers,
        )

    def is_cb_type2(self):
        return (
            self.link_type == "II"
            and self.source.base_dim == 1
            and self.target.base_dim == 1
        )

    def __repr__(self):
        return f"{self.link_type}:{self.source}=>{self.target}(depth {self.depth})"


def link_to_json(l):
    return {
        "type": l.link_type,
        "source": mfs_to_json(l.source),
        "target": mfs_to_json(l.target),
        "orbit_src": orbit_to_json(l.orbit_src) if l.orbit_src else None,
        "orbit_tgt": orbit_to_json(l.orbit_tgt) if l.orbit_tgt else None,
        "fiber_center": l.center.to_json() if l.center else None,
        "depth": l.depth,
    }


def link_from_json(obj):
    """Inverse of link_to_json; malformed input is refused with BadInput."""
    try:
        return SarkisovLink(
            obj["type"],
            mfs_from_json(obj["source"]),
            mfs_from_json(obj["target"]),
            orbit_src=orbit_from_json(obj["orbit_src"]) if obj.get("orbit_src") else None,
            orbit_tgt=orbit_from_json(obj["orbit_tgt"]) if obj.get("orbit_tgt") else None,
            center=FiberCenter.from_json(obj["fiber_center"])
            if obj.get("fiber_center")
            else None,
            depth=_json_int(obj["depth"], "link depth"),
        )
    except MALFORMED_JSON as exc:
        raise BadInput(f"malformed link JSON: {exc!r}")


def galois_depth(w):
    """Max base-orbit size of a link, or over a list of links; 0 if empty."""
    if isinstance(w, SarkisovLink):
        return w.depth
    return max((l.depth for l in w), default=0)


@dataclass
class LinkVerdict:
    ok: bool
    rule: str = None
    notes: tuple = ()

    def __bool__(self):
        return self.ok


def _violation(rule):
    return LinkVerdict(False, rule)


def link_validate(l):
    """Necessary validity conditions from the link classification bounds.
    The verdict depends on the frozen link alone and is kept on it, as
    PointOrbit.key() keeps its key."""
    verdict = getattr(l, "_verdict", None)
    if verdict is None:
        verdict = _link_conditions(l)
        object.__setattr__(l, "_verdict", verdict)
    return verdict


def _link_conditions(l):
    s, t = l.source, l.target
    notes = []
    sizes = [o.size for o in (l.orbit_src, l.orbit_tgt) if o is not None]

    if l.link_type in ("I", "III"):
        want = (0, 1) if l.link_type == "I" else (1, 0)
        if (s.base_dim, t.base_dim) != want:
            return _violation("endpoint-base-dims")
        r = max(sizes, default=l.depth)
        if r > 8 or l.depth > 8:
            return _violation("DP-orbit-bound")
        if l.depth != r:
            return _violation("depth-mismatch")
        if s.rational and t.rational:
            k2s, k2t = s.k_squared, t.k_squared
            expected = k2s - r if l.link_type == "I" else k2s + r
            if k2t != expected:
                return _violation("K2-arithmetic")
        if DEL_PEZZO in (s.kind, t.kind):
            notes.append("necessary-conditions-only")
        return LinkVerdict(True, notes=tuple(notes))

    if l.link_type == "II":
        if s.base_dim != t.base_dim:
            return _violation("endpoint-base-dims")
        if not s.rational or not t.rational:
            if s.kind != NRCB or t.kind != NRCB:
                return _violation("nonrational-type2-only")
            if len(set(sizes)) > 1 or (sizes and l.depth != sizes[0]):
                return _violation("II-depth-pattern")
            return LinkVerdict(True, notes=("nonrational-flag-only",))
        if s.base_dim == 0:
            if any(r > 8 for r in sizes) or l.depth > 8:
                return _violation("DP-orbit-bound")
            if len(sizes) == 2 and s.k_squared - sizes[0] != t.k_squared - sizes[1]:
                return _violation("K2-arithmetic")
            if l.depth != max(sizes, default=l.depth):
                return _violation("depth-mismatch")
            if DEL_PEZZO in (s.kind, t.kind):
                notes.append("necessary-conditions-only")
            return LinkVerdict(True, notes=tuple(notes))
        # type II between Mori conic bundles: the II:x:x pattern, any x >= 1
        if s.k_squared not in (5, 6, 8) or t.k_squared not in (5, 6, 8):
            return _violation("rational-cb-degree")
        if s.k_squared != t.k_squared:
            return _violation("K2-arithmetic")
        if l.depth < 1:
            return _violation("II-depth-pattern")
        if sizes and (len(set(sizes)) > 1 or sizes[0] != l.depth):
            return _violation("II-depth-pattern")
        if l.center is not None and l.center.degree() != l.depth:
            return _violation("center-degree")
        if not l.avoids_singular_fibers:
            return _violation("base-point-on-singular-fiber")
        return LinkVerdict(True, notes=tuple(notes))

    if l.link_type == "IV":
        if sizes or l.depth != 0:
            return _violation("IV-structure")
        if not (s.kind == HIRZEBRUCH and s.n == 0 and t.kind == HIRZEBRUCH and t.n == 0):
            return _violation("IV-structure")
        return LinkVerdict(True)

    return _violation("unknown-link-type")


# ---------------------------------------------------------------------------
# conic bundle equivalence classes


@dataclass(frozen=True)
class ConicBundleClassKey:
    family: str  # "hirzebruch" | "dp5" | "dp6"
    class_id: str = None

    def to_json(self):
        if self.family == "hirzebruch":
            return {"family": "hirzebruch"}
        return {"family": self.family, "orbit_class": self.class_id}

    @staticmethod
    def from_json(obj):
        return ConicBundleClassKey(obj["family"], obj.get("orbit_class"))


HIRZEBRUCH_CLASS = ConicBundleClassKey("hirzebruch")


def cb_class_key(X):
    """Equivalence class of a rational Mori conic bundle.

    All Hirzebruch surfaces share one key.  For the degree-5/6 bundles the
    key is the PGL_3(k) class of the defining orbit: over a finite field its
    exact Galois-descent form from `orbits.pgl3_form`, over Q the canonical
    minimal-polynomial normal form (two distinct normal forms may still be
    equivalent; equality of keys is the conservative criterion).
    """
    if not X.rational:
        raise NonRational("non-rational conic bundles carry no class key")
    if X.base_dim != 1:
        raise BadInput("cb_class_key expects a conic bundle model")
    if X.kind == HIRZEBRUCH:
        return HIRZEBRUCH_CLASS
    family = "dp5" if X.kind == CB5 else "dp6"
    field = X.orbit.field
    if field.is_finite():
        return ConicBundleClassKey(
            family, f"pgl3[q={field.size()}]:{pgl3_form(field, [X.orbit])}"
        )
    return ConicBundleClassKey(family, X.orbit.key())


# ---------------------------------------------------------------------------
# degree-5 del Pezzo ten-curve incidence


SECTIONS = ("E1", "E2", "E3", "E4")
VERTICALS = ("E12", "E13", "E14", "E23", "E24", "E34")
FIBER_PAIRS = (("E12", "E34"), ("E13", "E24"), ("E14", "E23"))


@dataclass(frozen=True)
class TenCurveIncidence:
    config: str  # "a" | "b"
    adjacency: frozenset  # frozensets {curve, curve}

    def meets(self, c1, c2):
        return frozenset((c1, c2)) in self.adjacency

    def neighbors(self, c):
        return sorted(
            other
            for pair in self.adjacency
            if c in pair
            for other in pair
            if other != c
        )

    def section_degree(self, k):
        return sum(1 for v in VERTICALS if self.meets(f"E{k}", v))

    def vertical_degree(self, v):
        return sum(1 for k in range(1, 5) if self.meets(f"E{k}", v))

    def relabel(self, perm):
        """Apply a permutation of {1,..,4} to sections and vertical indices."""
        def rename(c):
            if c in SECTIONS:
                return f"E{perm[int(c[1]) - 1] + 1}"
            i, j = sorted(perm[int(d) - 1] + 1 for d in c[1:])
            return f"E{i}{j}"

        adj = frozenset(frozenset(rename(c) for c in pair) for pair in self.adjacency)
        return TenCurveIncidence(self.config, adj)


def dp5_incidence(config):
    """The ten (-1)-curves of a degree-5 del Pezzo conic bundle.

    Sections meet the verticals sharing their index (config 'a') or exactly
    the complementary ones (config 'b'); the six verticals pair into three
    singular fibers either way.
    """
    if config not in ("a", "b"):
        raise BadInput("config must be 'a' or 'b'")
    adj = set()
    for u, v in FIBER_PAIRS:
        adj.add(frozenset((u, v)))
    for k in range(1, 5):
        for v in VERTICALS:
            inside = str(k) in v[1:]
            meets = inside if config == "a" else not inside
            if meets:
                adj.add(frozenset((f"E{k}", v)))
    return TenCurveIncidence(config, frozenset(adj))
