import itertools

import pytest

from cremona_kit import errors
import random

from cremona_kit.fields import (
    ExtensionField,
    Poly,
    PrimeField,
    QQ,
    canonical_extension,
    factor_over_prime_field,
    find_irreducible,
    is_irreducible,
    poly_from_string,
    prime_power,
)
from cremona_kit.orbits import (
    CONIC,
    SPLIT,
    apply_matrix,
    common_coordinate_field,
    explicit_orbit,
    large_orbit,
    lift_matrix,
    materialize_points,
    orbit_from_poly,
    pgl3_form,
    point_sort_key,
)
from cremona_kit.catalog import (
    CENTER_INF,
    ConicBundleClassKey,
    FIBER_PAIRS,
    FiberCenter,
    HIRZEBRUCH_CLASS,
    SECTIONS,
    VERTICALS,
    SarkisovLink,
    cb_class_key,
    center_from_poly,
    conic_bundle5,
    conic_bundle6,
    del_pezzo,
    dp5_incidence,
    galois_depth,
    hirzebruch,
    link_from_json,
    link_to_json,
    link_validate,
    mfs_from_json,
    mfs_invariants,
    mfs_to_json,
    non_rational_cb,
    projective_plane,
)

from pgl3_sweep import pgl3_matrices, sweep_images

F2 = PrimeField(2)


def P(s):
    return poly_from_string(F2, s)


def quartic_orbit(s="t^4+t+1"):
    return orbit_from_poly(F2, P(s), CONIC)


def split_orbit(s="x^2+x+1"):
    return orbit_from_poly(F2, P(s), SPLIT, second_poly=P(s))


def cb_link(depth, src=None, tgt=None, center=None):
    poly = find_irreducible(F2, depth)
    from cremona_kit.orbits import GP_NO, GP_YES, LINE, PointOrbit

    o1 = PointOrbit(F2, LINE, depth, poly, general_position=GP_YES if depth < 3 else GP_NO)
    o2 = PointOrbit(F2, CONIC, depth, poly, general_position=GP_YES)
    return SarkisovLink(
        "II",
        src or hirzebruch(0),
        tgt or hirzebruch(depth % 2),
        orbit_src=o1,
        orbit_tgt=o2,
        center=center or center_from_poly(poly),
        depth=depth,
    )


def key_model(field, family):
    """A CB5 model on a conic-form quartic ("cb5"), on its image under a fixed
    matrix as explicit points ("cb5x"), or a CB6 model on a split pair."""
    if family == "cb6":
        quad = find_irreducible(field, 2)
        return conic_bundle6(orbit_from_poly(field, quad, SPLIT, second_poly=quad))
    orb = orbit_from_poly(field, find_irreducible(field, 4), CONIC)
    if family == "cb5x":
        K, pts = materialize_points(orb)
        one, zero = field.one, field.zero
        rows = lift_matrix(K, field, [[one, one, zero], [zero, one, one], [one, zero, zero]])
        orb = explicit_orbit(field, K, [apply_matrix(K, rows, p) for p in pts])
    return conic_bundle5(orb)


def split_cb5(field):
    """A CB5 model on a split pair: four points in general position on which
    Frobenius acts as two 2-cycles."""
    quad = find_irreducible(field, 2)
    return conic_bundle5(orbit_from_poly(field, quad, SPLIT, second_poly=quad))


def finite_field(q):
    p, k = prime_power(q)
    return canonical_extension(PrimeField(p), k)


def seeded_irreducible(F, degree, rng):
    while True:
        f = Poly(F, [F.from_packed_int(rng.randrange(F.size())) for _ in range(degree)] + [F.one])
        if is_irreducible(f):
            return f


def linear_roots(f, K):
    """Roots of f in K from the linear factors of a full factorization."""
    lifted = Poly(K, [K.embed(c) for c in f.coeffs])
    return [K.neg(g.coeffs[0]) for g, _ in factor_over_prime_field(lifted) if g.degree == 1]


class TestInvariants:
    def test_cb5(self):
        inv = mfs_invariants(conic_bundle5(quartic_orbit()))
        assert (inv.k_squared, inv.singular_fibers, inv.picard_rank_over_k) == (5, 3, 2)

    def test_hirzebruch(self):
        inv = mfs_invariants(hirzebruch(3))
        assert (inv.k_squared, inv.singular_fibers) == (8, 0)

    def test_cb6(self):
        inv = mfs_invariants(conic_bundle6(split_orbit()))
        assert (inv.k_squared, inv.singular_fibers) == (6, 2)

    def test_k2_plus_fibers_is_8(self):
        for X in (hirzebruch(0), hirzebruch(7), conic_bundle5(quartic_orbit()), conic_bundle6(split_orbit())):
            inv = mfs_invariants(X)
            assert inv.k_squared + inv.singular_fibers == 8

    def test_del_pezzo_rank(self):
        assert mfs_invariants(del_pezzo(5)).picard_rank_over_k == 1
        assert mfs_invariants(projective_plane()).picard_rank_over_k == 1

    def test_non_rational_flag_only(self):
        inv = mfs_invariants(non_rational_cb())
        assert not inv.rational and inv.k_squared is None


class TestGaloisDepth:
    def test_single_link(self):
        assert galois_depth(cb_link(17)) == 17

    def test_type_iv_zero(self):
        iv = SarkisovLink("IV", hirzebruch(0), hirzebruch(0), depth=0)
        assert galois_depth(iv) == 0

    def test_word_max(self):
        assert galois_depth([cb_link(3), cb_link(17)]) == 17

    def test_empty(self):
        assert galois_depth([]) == 0


class TestLinkValidate:
    def test_dp_orbit_bound(self):
        bad = SarkisovLink(
            "II",
            projective_plane(),
            projective_plane(),
            orbit_src=large_orbit(F2, 9),
            orbit_tgt=large_orbit(F2, 9),
            depth=9,
        )
        v = link_validate(bad)
        assert not v and v.rule == "DP-orbit-bound"

    @pytest.mark.parametrize("x", range(1, 21))
    def test_cb_2xx_any_depth(self, x):
        assert link_validate(cb_link(x))

    def test_verdict_kept_per_instance(self):
        # equal links (avoids_singular_fibers is not compared) keep their
        # own verdicts, in either order of validation
        import dataclasses

        good = cb_link(5)
        bad = dataclasses.replace(good, avoids_singular_fibers=False)
        assert good == bad
        assert link_validate(good) and link_validate(good) is link_validate(good)
        v = link_validate(bad)
        assert not v and v.rule == "base-point-on-singular-fiber"
        assert link_validate(good)

    def test_iii_cb5_to_p2(self):
        orb = quartic_orbit()
        l = SarkisovLink(
            "III", conic_bundle5(orb), projective_plane(), orbit_tgt=orb, depth=4
        )
        assert link_validate(l)

    def test_i_wrong_k2(self):
        orb = quartic_orbit()
        l = SarkisovLink(
            "I", projective_plane(), conic_bundle6(split_orbit()), orbit_src=orb, depth=4
        )
        v = link_validate(l)
        assert not v and v.rule == "K2-arithmetic"

    def test_iv_only_f0(self):
        assert link_validate(SarkisovLink("IV", hirzebruch(0), hirzebruch(0), depth=0))
        v = link_validate(SarkisovLink("IV", hirzebruch(2), hirzebruch(2), depth=0))
        assert not v and v.rule == "IV-structure"

    def test_cb_unequal_sizes(self):
        a, b = cb_link(3), cb_link(5)
        bad = SarkisovLink(
            "II",
            hirzebruch(0),
            hirzebruch(1),
            orbit_src=a.orbit_src,
            orbit_tgt=b.orbit_tgt,
            center=a.center,
            depth=3,
        )
        v = link_validate(bad)
        assert not v and v.rule == "II-depth-pattern"

    def test_cb_k2_mismatch(self):
        l = cb_link(3)
        bad = SarkisovLink(
            "II",
            hirzebruch(0),
            conic_bundle5(quartic_orbit()),
            orbit_src=l.orbit_src,
            orbit_tgt=l.orbit_tgt,
            center=l.center,
            depth=3,
        )
        v = link_validate(bad)
        assert not v and v.rule == "K2-arithmetic"

    def test_inverse_symmetry(self):
        links = [
            cb_link(5),
            SarkisovLink(
                "III",
                conic_bundle5(quartic_orbit()),
                projective_plane(),
                orbit_tgt=quartic_orbit(),
                depth=4,
            ),
            SarkisovLink("IV", hirzebruch(0), hirzebruch(0), depth=0),
            SarkisovLink(
                "II",
                projective_plane(),
                projective_plane(),
                orbit_src=large_orbit(F2, 9),
                orbit_tgt=large_orbit(F2, 9),
                depth=9,
            ),
        ]
        for l in links:
            assert link_validate(l).ok == link_validate(l.inverse()).ok

    def test_nonrational_type2_only(self):
        n = non_rational_cb()
        ok = SarkisovLink("II", n, n, depth=3)
        assert link_validate(ok)
        v = link_validate(SarkisovLink("IV", n, n, depth=0))
        assert not v

    def test_singular_fiber_attribute(self):
        l = cb_link(3)
        flagged = SarkisovLink(
            "II",
            l.source,
            l.target,
            orbit_src=l.orbit_src,
            orbit_tgt=l.orbit_tgt,
            center=l.center,
            depth=3,
            avoids_singular_fibers=False,
        )
        v = link_validate(flagged)
        assert not v and v.rule == "base-point-on-singular-fiber"

    def test_center_degree_consistency(self):
        l = cb_link(3)
        bad = SarkisovLink(
            "II", l.source, l.target,
            orbit_src=l.orbit_src, orbit_tgt=l.orbit_tgt,
            center=center_from_poly(P("t^2+t+1")), depth=3,
        )
        v = link_validate(bad)
        assert not v and v.rule == "center-degree"


class TestClassKeys:
    def test_hirzebruch_shared(self):
        assert cb_class_key(hirzebruch(0)) == cb_class_key(hirzebruch(5)) == HIRZEBRUCH_CLASS

    def test_two_quartics_same_class(self):
        k1 = cb_class_key(conic_bundle5(quartic_orbit("t^4+t+1")))
        k2 = cb_class_key(conic_bundle5(quartic_orbit("t^4+t^3+1")))
        assert k1 == k2

    def test_cb5_vs_cb6(self):
        k5 = cb_class_key(conic_bundle5(quartic_orbit()))
        k6 = cb_class_key(conic_bundle6(split_orbit()))
        assert k5 != k6 and k5.family == "dp5" and k6.family == "dp6"

    def test_pgl3_invariance(self):
        orb = quartic_orbit()
        K, pts = materialize_points(orb)
        base_key = cb_class_key(conic_bundle5(orb))
        for M in pgl3_matrices(F2)[:20]:
            rows = lift_matrix(K, F2, M)
            image = explicit_orbit(F2, K, [apply_matrix(K, rows, p) for p in pts])
            assert cb_class_key(conic_bundle5(image)) == base_key

    @pytest.mark.parametrize(
        "q,family", [(2, "cb5"), (2, "cb5x"), (2, "cb6"), (3, "cb5"), (3, "cb6")]
    )
    def test_matches_exhaustive_sweep(self, q, family):
        # equal keys exactly when one of all the matrices of PGL_3(F_q) maps
        # one orbit onto the other
        field = PrimeField(q)
        X = key_model(field, family)
        others = [key_model(field, f) for f in ("cb5", "cb5x", "cb6")] + [split_cb5(field)]
        K = common_coordinate_field(field, [X.orbit] + [Y.orbit for Y in others])
        images = sweep_images(field, K, materialize_points(X.orbit, K=K)[1])
        for Y in others:
            pts = materialize_points(Y.orbit, K=K)[1]
            same = X.kind == Y.kind and tuple(sorted(point_sort_key(K, p) for p in pts)) in images
            assert (cb_class_key(X) == cb_class_key(Y)) == same

    @pytest.mark.parametrize("q", [7, 101])
    def test_frame_keys_pinned(self, q):
        # above q = 5 keys still follow the matrix and separate Galois types
        F = PrimeField(q)
        k5 = cb_class_key(key_model(F, "cb5"))
        assert k5.class_id.startswith(f"pgl3[q={q}]:frame:")
        assert cb_class_key(key_model(F, "cb5x")) == k5
        assert cb_class_key(split_cb5(F)) != k5

    @pytest.mark.parametrize("q", [7, 8, 9, 101])
    def test_template_and_explicit_keys_agree(self, q):
        # the points of a conic or split template, found by roots_in_field,
        # against the same points from full factorization over K, given
        # explicitly
        F, rng = finite_field(q), random.Random(q)
        f = seeded_irreducible(F, 4, rng)
        K = canonical_extension(F, 4)
        pts = [(K.one, a, K.mul(a, a)) for a in linear_roots(f, K)]
        template = orbit_from_poly(F, f, CONIC)
        explicit = explicit_orbit(F, K, pts)
        assert materialize_points(template, K=K)[1] == explicit.points
        assert cb_class_key(conic_bundle5(template)) == cb_class_key(conic_bundle5(explicit))

        while True:
            g, h = seeded_irreducible(F, 2, rng), seeded_irreducible(F, 2, rng)
            split = orbit_from_poly(F, g, SPLIT, second_poly=h)
            if split.general_position == "yes":
                break
        K = canonical_extension(F, 2)
        pair = [explicit_orbit(F, K, [(K.one, a, K.zero) for a in linear_roots(g, K)]),
                explicit_orbit(F, K, [(K.one, K.zero, b) for b in linear_roots(h, K)])]
        assert materialize_points(split, K=K)[1] == tuple(sorted(
            (p for o in pair for p in o.points), key=lambda p: point_sort_key(K, p)))
        assert cb_class_key(conic_bundle6(split)).class_id == f"pgl3[q={q}]:{pgl3_form(F, pair)}"

    def test_conic_keys_build_one_table(self, monkeypatch):
        # ten F9 conic-quartic keys on one base field share one canonical
        # F_{9^4}, so its log/exp tables are built once
        F, rng = finite_field(9), random.Random(9)
        models = [conic_bundle5(orbit_from_poly(F, seeded_irreducible(F, 4, rng), CONIC))
                  for _ in range(10)]
        built, ensure = [], ExtensionField._ensure_tables

        def counting(K):
            fresh, ok = K._exp is None, ensure(K)
            if ok and fresh:
                built.append(K.size())
            return ok

        monkeypatch.setattr(ExtensionField, "_ensure_tables", counting)
        for X in models:
            cb_class_key(X)
        assert built.count(9 ** 4) == 1

    def test_non_rational_refused(self):
        with pytest.raises(errors.NonRational):
            cb_class_key(non_rational_cb())

    def test_over_q_min_poly_normal_form(self):
        o1 = orbit_from_poly(QQ, poly_from_string(QQ, "x^4-2"), CONIC)
        o2 = orbit_from_poly(QQ, poly_from_string(QQ, "x^4-3"), CONIC)
        # conservative: distinct normal forms get distinct keys
        assert cb_class_key(conic_bundle5(o1)) != cb_class_key(conic_bundle5(o2))
        assert cb_class_key(conic_bundle5(o1)) == cb_class_key(conic_bundle5(o1))


class TestDp5Incidence:
    def test_config_a(self):
        inc = dp5_incidence("a")
        assert inc.neighbors("E1") == ["E12", "E13", "E14"]

    def test_config_b(self):
        inc = dp5_incidence("b")
        assert inc.neighbors("E1") == ["E23", "E24", "E34"]

    @pytest.mark.parametrize("config", ["a", "b"])
    def test_degrees(self, config):
        inc = dp5_incidence(config)
        for k in range(1, 5):
            assert inc.section_degree(k) == 3
        for v in VERTICALS:
            assert inc.vertical_degree(v) == 2

    @pytest.mark.parametrize("config", ["a", "b"])
    def test_fiber_pairs(self, config):
        inc = dp5_incidence(config)
        for u, v in FIBER_PAIRS:
            assert inc.meets(u, v)
        # vertical curves in distinct fibers are disjoint
        assert not inc.meets("E12", "E13")

    @pytest.mark.parametrize("config", ["a", "b"])
    def test_relabel_preserves_config(self, config):
        inc = dp5_incidence(config)
        for perm in itertools.permutations(range(4)):
            assert inc.relabel(perm).adjacency == inc.adjacency

    def test_configs_differ(self):
        assert dp5_incidence("a").adjacency != dp5_incidence("b").adjacency


class TestJson:
    @pytest.mark.parametrize(
        "model",
        [
            projective_plane(),
            hirzebruch(4),
            del_pezzo(6),
            non_rational_cb(),
        ],
    )
    def test_mfs_roundtrip(self, model):
        assert mfs_from_json(mfs_to_json(model)).key() == model.key()

    def test_mfs_cb_roundtrip(self):
        for model in (conic_bundle5(quartic_orbit()), conic_bundle6(split_orbit())):
            assert mfs_from_json(mfs_to_json(model)).key() == model.key()

    @pytest.mark.parametrize("claim", ["yes", "unknown"])
    def test_cb5_general_position_claim_checked(self, claim):
        # four points of P^2(F2) with three on the line z = 0: the model is
        # refused whatever the JSON says about general position
        points = [["1", "0", "0"], ["0", "1", "0"], ["1", "1", "0"], ["0", "0", "1"]]
        orbit = {"field": {"kind": "Fp", "p": 2}, "template": "explicit", "size": 4,
                 "min_poly": {"field": {"kind": "Fp", "p": 2}, "coeffs": ["0", "1"]},
                 "points": points, "general_position": claim}
        with pytest.raises(errors.BadInput, match="general position"):
            mfs_from_json({"kind": "CB5", "orbit": orbit})
        frame = {**orbit, "points": points[:2] + [["1", "1", "1"]] + points[3:],
                 "general_position": "no"}
        assert mfs_from_json({"kind": "CB5", "orbit": frame}).kind == "CB5"

    def test_link_roundtrip(self):
        l = cb_link(5)
        back = link_from_json(link_to_json(l))
        assert back == l

    def test_center_roundtrip(self):
        assert FiberCenter.from_json(CENTER_INF.to_json()) == CENTER_INF
        c = center_from_poly(P("t^3+t+1"))
        assert FiberCenter.from_json(c.to_json()) == c
