import itertools
import random
import time

import pytest

from cremona_kit import errors
from cremona_kit import orbits as orbits_module
from cremona_kit.fields import (
    ExtensionField,
    Poly,
    PrimeField,
    QQ,
    canonical_extension,
    factor_over_prime_field,
    find_irreducible,
    frobenius_conjugates,
    is_irreducible,
    poly_from_string,
    prime_power,
)
from cremona_kit.orbits import (
    ALL,
    CENSUS_CAP,
    CONIC,
    EXPLICIT,
    GENERAL_POSITION_ONLY,
    GP_NO,
    GP_YES,
    LINE,
    PointOrbit,
    SPLIT,
    apply_matrix,
    closed_point_count,
    common_coordinate_field,
    enumerate_point_orbits,
    collinear_triple,
    explicit_orbit,
    large_orbit,
    lift_matrix,
    match_transform,
    materialize_points,
    normalize_point,
    orbit_from_json,
    orbit_from_poly,
    orbit_to_json,
    perm_cycles,
    pgl3_classify,
    pgl3_form,
    point_sort_key,
    roots_in_field,
    transitive_sym4_audit,
)

from cremona_kit.linalg import det3, mat_mul
from cremona_kit.orbits import _cycles, _normalize_matrix, _points_in
from pgl3_sweep import pgl3_matrices, sweep_images
from pgl3_walk import class_walk, partition, pgl3_generators, walk_partition

F2 = PrimeField(2)
F3 = PrimeField(3)


def P(field, s):
    return poly_from_string(field, s)


import functools


def field_of_size(q):
    p, k = prime_power(q)
    F = PrimeField(p)
    return F if k == 1 else ExtensionField(F, find_irreducible(F, k).coeffs)


def all_triples_gp(K, pts):
    """Oracle: True when no three of pts are collinear, over all C(n, 3)."""
    return all(det3(K, t) for t in itertools.combinations(pts, 3))


@functools.lru_cache(maxsize=None)
def census(q, n):
    return enumerate_point_orbits(PrimeField(q), n)


@functools.lru_cache(maxsize=None)
def classify(q, n, filt=ALL):
    return pgl3_classify(census(q, n), PrimeField(q), filter=filt)


class TestOrbitFromPoly:
    def test_conic_f2(self):
        o = orbit_from_poly(F2, P(F2, "t^4+t+1"), CONIC)
        assert o.size == 4 and o.general_position == GP_YES
        # oracle: collinearity determinants of all triples over F_16
        K, pts = materialize_points(o)
        assert all_triples_gp(K, pts)

    def test_line_over_q(self):
        o = orbit_from_poly(QQ, P(QQ, "x^17-2"), LINE)
        assert o.size == 17
        assert o.template == LINE

    def test_split_f2(self):
        f = P(F2, "x^2+x+1")
        o = orbit_from_poly(F2, f, SPLIT, second_poly=f)
        assert o.size == 4 and o.general_position == GP_YES
        K, pts = materialize_points(o)
        assert len(pts) == 4
        assert all_triples_gp(K, pts)

    def test_not_irreducible(self):
        with pytest.raises(errors.NotIrreducible):
            orbit_from_poly(F2, P(F2, "t^2+1"), CONIC)

    def test_split_needs_two_quadratics(self):
        with pytest.raises(errors.DegreeMismatch):
            orbit_from_poly(F2, P(F2, "t^2+t+1"), SPLIT)
        with pytest.raises(errors.DegreeMismatch):
            orbit_from_poly(
                F2, P(F2, "t^2+t+1"), SPLIT, second_poly=P(F2, "t^3+t+1")
            )

    def test_conic_over_q_general_position(self):
        o = orbit_from_poly(QQ, P(QQ, "x^4-2"), CONIC)
        assert o.general_position == GP_YES

    def test_split_over_q_decided_at_construction(self):
        o = orbit_from_poly(QQ, P(QQ, "x^2-2"), SPLIT, second_poly=P(QQ, "x^2-3"))
        assert o.general_position == GP_YES


def union_gp(orbits):
    """collinear_triple on a union of orbits over one finite field."""
    F = orbits[0].field
    K = common_coordinate_field(F, orbits)
    return collinear_triple(K, _cycles(K, _points_in(K, orbits), F.size()))


class TestGeneralPosition:
    """The one rule: conic and split always, line below 3 points, explicit
    orbits by collinear_triple along Frobenius cycles."""

    def test_conic_yes(self):
        o = orbit_from_poly(F2, P(F2, "t^4+t+1"), CONIC)
        assert o.general_position == GP_YES
        assert union_gp([o]) is None

    def test_collinear_triple_witnessed(self):
        one, zero = F2.one, F2.zero
        pts = [(one, zero, zero), (zero, one, zero), (one, one, zero)]
        o = explicit_orbit(F2, F2, pts)
        assert o.general_position == GP_NO
        witness = collinear_triple(F2, [[p] for p in o.points])
        assert sorted(witness) == sorted(pts) and not det3(F2, witness)

    def test_split_f2_yes(self):
        f = P(F2, "x^2+x+1")
        o = orbit_from_poly(F2, f, SPLIT, second_poly=f)
        assert o.general_position == GP_YES
        assert union_gp([o]) is None

    def test_split_over_q_symbolic(self):
        o = orbit_from_poly(QQ, P(QQ, "x^2-2"), SPLIT, second_poly=P(QQ, "x^2-2"))
        assert o.general_position == GP_YES

    def test_explicit_over_q_decided(self):
        # rational points decide over Q: one cycle per point
        one, zero = QQ.one, QQ.zero
        frame = [(one, zero, zero), (zero, one, zero), (zero, zero, one)]
        singles = [explicit_orbit(QQ, QQ, [p]) for p in frame]
        assert [o.general_position for o in singles] == [GP_YES] * 3
        assert collinear_triple(QQ, [o.points for o in singles]) is None
        assert explicit_orbit(QQ, QQ, frame).general_position == GP_YES
        on_line = frame[:2] + [(one, QQ.from_int(5), zero)]
        assert explicit_orbit(QQ, QQ, on_line).general_position == GP_NO

    def test_union_of_mixed_cycles(self):
        # a degree-2 and a degree-3 orbit on the line z = 0 are collinear
        # together though each alone has at most 3 points
        two, three = (canonical_extension(F2, d) for d in (2, 3))
        on_line = [
            explicit_orbit(F2, K, [(K.one, r, K.zero) for r in roots_in_field(P(F2, f), K)])
            for K, f in ((two, "t^2+t+1"), (three, "t^3+t+1"))
        ]
        assert [o.general_position for o in on_line] == [GP_YES, GP_NO]
        witness = union_gp(on_line)
        assert witness is not None and all(p[2] == () for p in witness)
        conic = orbit_from_poly(F2, P(F2, "t^3+t+1"), CONIC)
        assert union_gp([on_line[0], conic]) is None

    def test_given_value_must_agree(self):
        f = P(F2, "t^3+t+1")
        assert PointOrbit(F2, LINE, 3, f, general_position=GP_NO).general_position == GP_NO
        with pytest.raises(errors.BadInput):
            PointOrbit(F2, LINE, 3, f, general_position=GP_YES)
        with pytest.raises(errors.BadInput):
            PointOrbit(F2, CONIC, 3, f, general_position="unknown")

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 13, "Q"])
    def test_templates_match_all_triples(self, q):
        # every template's decided answer against all C(n, 3) triples of
        # its points; over Q on rational explicit points only
        F, rng = QQ if q == "Q" else field_of_size(q), random.Random(str(q))
        if q == "Q":  # symbolic templates by the rule, explicit by oracle
            x4 = P(QQ, "x^4-2")
            assert orbit_from_poly(QQ, x4, CONIC).general_position == GP_YES
            assert orbit_from_poly(QQ, x4, LINE).general_position == GP_NO
            assert orbit_from_poly(QQ, P(QQ, "x^2-2"), LINE).general_position == GP_YES
            for pts in itertools.combinations(
                [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 0), (1, -1, 3)], 4
            ):
                pts = [tuple(QQ.from_int(c) for c in p) for p in pts]
                o = explicit_orbit(QQ, QQ, pts)
                assert (o.general_position == GP_YES) == all_triples_gp(QQ, o.points)
            return
        built = []
        for d in (1, 2, 3, 4, 5):
            f = seeded_irreducible(F, d, rng)
            built += [orbit_from_poly(F, f, CONIC), orbit_from_poly(F, f, LINE)]
        for _ in range(3):
            f, g = seeded_irreducible(F, 2, rng), seeded_irreducible(F, 2, rng)
            built.append(orbit_from_poly(F, f, SPLIT, second_poly=g))
        while True:
            M = [[F.from_packed_int(rng.randrange(F.size())) for _ in range(3)] for _ in range(3)]
            if det3(F, M):
                break
        for o in built[4:8]:  # conic and line orbits of 3 and 4 points, moved
            K, pts = materialize_points(o)
            rows = lift_matrix(K, F, M)
            built.append(explicit_orbit(F, K, [apply_matrix(K, rows, p) for p in pts]))
        for o in built:
            K, pts = materialize_points(o)
            assert (o.general_position == GP_YES) == all_triples_gp(K, pts), o

    @pytest.mark.parametrize("q,n", [(2, 3), (2, 4), (2, 5), (2, 6), (3, 3), (3, 4), (7, 2)])
    def test_cycles_match_all_triples_on_census(self, q, n):
        for o in census(q, n):
            assert (o.general_position == GP_YES) == all_triples_gp(o.coord_field, o.points)

    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_cycles_match_all_triples_on_seeded_unions(self, q):
        F, rng = field_of_size(q), random.Random(q)
        for _ in range(12):
            X = [TestMatchCycleTypes.closed_point(F, rng.choice((1, 2, 3)), rng)
                 for _ in range(rng.randint(2, 4))]
            K = common_coordinate_field(F, X)
            pts = _points_in(K, X)
            if len(set(pts)) == len(pts):
                assert (union_gp(X) is None) == all_triples_gp(K, pts)

    def test_json_claim_ignored(self):
        # a collinear explicit orbit claiming "yes" reads back "no"
        one, zero = F2.one, F2.zero
        o = explicit_orbit(F2, F2, [(one, zero, zero), (zero, one, zero), (one, one, zero)])
        back = orbit_from_json({**orbit_to_json(o), "general_position": GP_YES})
        assert o.general_position == back.general_position == GP_NO

    @pytest.mark.parametrize("field,scale", [(F2, 1), (F3, 2), (QQ, 2)])
    def test_repeated_point_refused(self, field, scale):
        # a repeated point, also up to scaling, is refused over every field
        one, zero, c = field.one, field.zero, field.from_int(scale)
        pts = [(one, zero, zero), (c, zero, zero), (zero, one, zero), (zero, zero, one)]
        with pytest.raises(errors.BadInput, match="distinct"):
            explicit_orbit(field, field, pts)
        obj = orbit_to_json(explicit_orbit(field, field, pts[1:]))
        obj["points"].insert(0, list(obj["points"][0]))
        obj["size"] = 4
        with pytest.raises(errors.BadInput, match="distinct"):
            orbit_from_json(obj)

    def test_explicit_64_points_from_json(self):
        # one Frobenius cycle of 64 points over F_{2^64}: C(63, 2) triples
        # through its first point instead of C(64, 3)
        K = canonical_extension(F2, 64)
        g = K.gen()
        cycle = [(K.one, c, K.mul(c, c)) for c in frobenius_conjugates(K, g, 2)]
        obj = orbit_to_json(explicit_orbit(F2, K, cycle))
        start = time.perf_counter()
        back = orbit_from_json({**obj, "general_position": GP_NO})
        assert time.perf_counter() - start < 3.0
        assert back.size == 64 and back.general_position == GP_YES

    def test_pgl3_invariance(self):
        rng = random.Random(3)
        orbits = census(2, 4)
        mats = pgl3_matrices(F2)
        for o in rng.sample(orbits, 6):
            K, pts = materialize_points(o)
            M = rng.choice(mats)
            rows = lift_matrix(K, F2, M)
            image = explicit_orbit(F2, K, [apply_matrix(K, rows, p) for p in pts])
            assert image.general_position == o.general_position
            assert (image.general_position == GP_YES) == all_triples_gp(K, image.points)


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(1, 7), (2, 7), (4, 63)])
    def test_f2_counts(self, n, count):
        orbits = census(2, n)
        assert len(orbits) == count
        for o in orbits:
            assert o.size == n
            assert len(set(o.points)) == n

    def test_zeta_recursion(self):
        # (|P^2(F_{q^n})| - sum_{d|n, d<n} d*count_d) / n
        for q in (2, 3):
            for n in (1, 2, 3, 4):
                plane = q ** (2 * n) + q ** n + 1
                acc = plane
                for d in range(1, n):
                    if n % d == 0:
                        acc -= d * closed_point_count(q, d)
                assert closed_point_count(q, n) == acc // n

    def test_f3_census(self):
        assert len(census(3, 1)) == closed_point_count(3, 1) == 13
        assert len(census(3, 2)) == closed_point_count(3, 2)

    def test_orbits_are_frobenius_closed(self):
        for o in census(2, 2):
            K = o.coord_field
            keys = {point_sort_key(K, p) for p in o.points}
            for p in o.points:
                fp = tuple(K.pow(c, 2) for c in p)
                from cremona_kit.orbits import normalize_point

                assert point_sort_key(K, normalize_point(K, fp)) in keys

    def test_scale_guard(self):
        with pytest.raises(errors.ScaleExceeded):
            enumerate_point_orbits(F2, 33)

    def test_census_cap_is_checked_first(self):
        # 1,441,188 degree-4 points over F7: refused before any is listed
        assert closed_point_count(7, 4) > CENSUS_CAP >= closed_point_count(7, 3)
        with pytest.raises(errors.ScaleExceeded):
            enumerate_point_orbits(PrimeField(7), 4)
        with pytest.raises(errors.BadInput):
            enumerate_point_orbits(F2, 0)


class TestClassification:
    def test_size2_one_class(self):
        assert len(classify(2, 2)) == 1

    def test_size4_general_position_one_class(self):
        classes = classify(2, 4, GENERAL_POSITION_ONLY)
        assert len(classes) == 1 and classes[0].count == 42

    def test_rational_points_one_class(self):
        classes = classify(2, 1)
        assert len(classes) == 1 and classes[0].count == 7

    def test_order_independence(self):
        orbits = census(2, 4)
        a = classify(2, 4)
        b = pgl3_classify(list(reversed(orbits)), F2)
        assert [c.class_id for c in a] == [c.class_id for c in b]
        assert [c.count for c in a] == [c.count for c in b]

    def test_transversal_inequivalent_by_exhaustion(self):
        # distinct classes admit no matrix mapping one representative onto
        # the other (independent exhaustive check)
        classes = classify(2, 4)
        assert len(classes) == 2
        reps = [c.representative for c in classes]
        K, pts_a = materialize_points(reps[0])
        _, pts_b = materialize_points(reps[1], K=K)
        keys_b = sorted(point_sort_key(K, p) for p in pts_b)
        for M in pgl3_matrices(F2):
            rows = lift_matrix(K, F2, M)
            image = sorted(
                point_sort_key(K, apply_matrix(K, rows, p)) for p in pts_a
            )
            assert image != keys_b

    def test_f3_size2(self):
        classes = classify(3, 2)
        assert sum(c.count for c in classes) == closed_point_count(3, 2)

    @pytest.mark.parametrize("q", [2, 3])
    def test_generators_close_to_the_group(self, q):
        # |PGL_3(F_q)| = q^3 (q^3 - 1) (q^2 - 1), and the closure is the
        # whole scanned group
        F = PrimeField(q)
        gens = pgl3_generators(F)
        ident = [[F.one if i == j else F.zero for j in range(3)] for i in range(3)]
        seen = {str(ident)}
        todo = [ident]
        for A in todo:
            for G in gens:
                B = _normalize_matrix(F, mat_mul(F, A, G))
                if str(B) not in seen:
                    seen.add(str(B))
                    todo.append(B)
        assert len(seen) == q ** 3 * (q ** 3 - 1) * (q ** 2 - 1)
        assert seen == {str(M) for M in pgl3_matrices(F)}

    @pytest.mark.parametrize("filt", [ALL, GENERAL_POSITION_ONLY])
    @pytest.mark.parametrize("q,n", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1)])
    def test_matches_exhaustive_sweep(self, q, n, filt):
        # partitions against the images of one member per class over all of
        # PGL_3(F_q)
        F = PrimeField(q)
        oracle = []
        for o in census(q, n):
            if filt == GENERAL_POSITION_ONLY and o.general_position != GP_YES:
                continue
            key = tuple(sorted(point_sort_key(o.coord_field, p) for p in o.points))
            cls = next((c for c in oracle if key in c[0]), None)
            if cls is None:
                cls = (sweep_images(F, o.coord_field, o.points), [])
                oracle.append(cls)
            cls[1].append(o.key())
        assert partition(classify(q, n, filt)) == sorted(sorted(keys) for _, keys in oracle)

    @pytest.mark.parametrize("filt", [ALL, GENERAL_POSITION_ONLY])
    @pytest.mark.parametrize(
        "q,n",
        [(2, n) for n in range(1, 7)] + [(3, n) for n in range(1, 5)]
        + [(4, n) for n in range(1, 4)] + [(5, 1), (5, 2), (7, 1), (7, 2)],
    )
    def test_matches_class_walk(self, q, n, filt):
        # the walk visits every image of one member per class
        F = field_of_size(q)
        orbits = enumerate_point_orbits(F, n)
        got = partition(pgl3_classify(orbits, F, filter=filt))
        assert got == walk_partition(F, orbits, filt)


class TestMatchTransform:
    def orbit4(self):
        return orbit_from_poly(F2, P(F2, "t^4+t+1"), CONIC)

    def test_identity(self):
        o = self.orbit4()
        A = match_transform(o, o)
        assert A == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def test_recovers_transform(self):
        o = self.orbit4()
        K, pts = materialize_points(o)
        M = [[1, 1, 0], [0, 1, 1], [0, 0, 1]]
        rows = lift_matrix(K, F2, M)
        image = explicit_orbit(F2, K, [apply_matrix(K, rows, p) for p in pts])
        A = match_transform(o, image)
        assert A is not None
        # substitution check: A maps the point set onto the image set
        rows_a = lift_matrix(K, F2, A)
        got = sorted(
            point_sort_key(K, apply_matrix(K, rows_a, p)) for p in pts
        )
        want = sorted(point_sort_key(K, p) for p in image.points)
        assert got == want

    def test_collinear_rejected(self):
        o = self.orbit4()
        one, zero = F2.one, F2.zero
        bad = explicit_orbit(
            F2,
            F2,
            [
                (one, zero, zero),
                (zero, one, zero),
                (one, one, zero),
                (zero, zero, one),
            ],
        )
        with pytest.raises(errors.CollinearTriple):
            match_transform(o, bad)

    def test_fingerprint_mismatch(self):
        o = self.orbit4()
        one, zero = F2.one, F2.zero
        rational_frame = explicit_orbit(
            F2,
            F2,
            [
                (one, zero, zero),
                (zero, one, zero),
                (zero, zero, one),
                (one, one, one),
            ],
        )
        with pytest.raises(errors.FingerprintMismatch):
            match_transform(o, rational_frame)

    @pytest.mark.parametrize(
        "image,want",
        [
            # the standard frame moved by [[1,2,0],[0,1,3],[1,0,1]]
            (
                [("0", "3", "1"), ("2", "1", "0"), ("1", "0", "1"), ("3", "4", "2")],
                [["1", "1/2", "0"], ["1/2", "0", "3/2"], ["0", "1/2", "1/2"]],
            ),
            (
                [("1", "2", "3"), ("-1", "5", "1/2"), ("2", "0", "7"), ("1", "1", "1")],
                [["1", "1", "-3/7"], ["1", "0", "15/7"], ["1", "7/2", "3/14"]],
            ),
        ],
    )
    def test_q_explicit_points(self, image, want):
        def rational(pts):
            return [tuple(QQ.elem_from_str(c) for c in p) for p in pts]

        frame = rational([("0", "0", "1"), ("0", "1", "0"), ("1", "0", "0"), ("1", "1", "1")])
        Q = explicit_orbit(QQ, QQ, rational(image))
        # one 4-point orbit or four rational points: the same search
        for P_ in (explicit_orbit(QQ, QQ, frame), [explicit_orbit(QQ, QQ, [p]) for p in frame]):
            A = match_transform(P_, Q)
            assert [[QQ.elem_to_str(x) for x in row] for row in A] == want
        got = sorted(point_sort_key(QQ, apply_matrix(QQ, A, p)) for p in frame)
        assert got == sorted(point_sort_key(QQ, p) for p in Q.points)

    def test_q_identity_and_conservatism(self):
        o = orbit_from_poly(QQ, P(QQ, "x^4-2"), CONIC)
        assert match_transform(o, o) is not None
        other = orbit_from_poly(QQ, P(QQ, "x^4-3"), CONIC)
        assert match_transform(o, other) is None  # NoMatch, never a proof


class TestMatchCycleTypes:
    """match_transform over F_q on every Frobenius cycle type of 4 points in
    general position: a seeded PGL_3 image and an unrelated set of the same
    type both match, checked by substitution, and every pair of different
    types raises FingerprintMismatch."""

    TYPES = [(1, 1, 1, 1), (1, 1, 2), (1, 3), (2, 2), (4,)]

    @staticmethod
    def closed_point(F, d, rng):
        K = canonical_extension(F, d)
        while True:
            coords = [K.from_packed_int(rng.randrange(K.size())) for _ in range(3)]
            if any(coords):
                (cycle,) = _cycles(K, [normalize_point(K, coords)], F.size())
                if len(cycle) == d:
                    return explicit_orbit(F, K, cycle)

    def point_set(self, F, cycle_type, rng):
        while True:
            X = [self.closed_point(F, d, rng) for d in cycle_type]
            K = common_coordinate_field(F, X)
            pts = [p for o in X for p in materialize_points(o, K=K)[1]]
            if len(set(pts)) == 4 and all_triples_gp(K, pts):
                return X

    @staticmethod
    def image(F, X, M):
        out = []
        for o in X:
            K = o.coord_field
            rows = lift_matrix(K, F, M)
            out.append(explicit_orbit(F, K, [apply_matrix(K, rows, p) for p in o.points]))
        return out

    @staticmethod
    def assert_maps_onto(F, A, X, Y):
        assert A is not None and det3(F, A)
        K = common_coordinate_field(F, X + Y)
        rows = lift_matrix(K, F, A)
        got = {apply_matrix(K, rows, p) for o in X for p in materialize_points(o, K=K)[1]}
        assert got == {p for o in Y for p in materialize_points(o, K=K)[1]}

    @pytest.mark.parametrize("q", [2, 3, 4, 7, 8, 9, 101])
    def test_types(self, q):
        F, rng = field_of_size(q), random.Random(q)
        sets = {t: self.point_set(F, t, rng) for t in self.TYPES}
        for t, X in sets.items():
            while True:
                M = [[F.from_packed_int(rng.randrange(q)) for _ in range(3)] for _ in range(3)]
                if det3(F, M):
                    break
            for Y in (self.image(F, X, M), self.point_set(F, t, rng)):
                self.assert_maps_onto(F, match_transform(X, Y), X, Y)
            for u, Y in sets.items():
                if u != t:
                    with pytest.raises(errors.FingerprintMismatch):
                        match_transform(X, Y)


    def test_mismatch_builds_no_compositum(self, monkeypatch):
        # a (1,3) set against a (4) set over F9: the cycle types are read in
        # each set's own field, so F_{9^12} is never built
        F, rng = field_of_size(9), random.Random(9)
        X, Y = self.point_set(F, (1, 3), rng), self.point_set(F, (4,), rng)
        built, real = [], orbits_module.canonical_extension
        monkeypatch.setattr(
            orbits_module, "canonical_extension", lambda base, n: built.append(n) or real(base, n)
        )
        with pytest.raises(errors.FingerprintMismatch):
            match_transform(X, Y)
        assert 12 not in built


class TestLargeOrbit:
    def test_over_q(self):
        o = large_orbit(QQ, 17)
        assert o.size == 17 and o.template == CONIC
        assert o.min_poly == P(QQ, "x^17-2")

    def test_over_f2(self):
        o = large_orbit(F2, 4)
        assert o.size == 4
        assert o.min_poly == P(F2, "t^4+t+1")

    def test_delta_one_rational_point(self):
        o = large_orbit(QQ, 1)
        assert o.size == 1 and o.template == EXPLICIT
        assert o.points == ((QQ.one, QQ.zero, QQ.zero),)

    def test_parity_constraint(self):
        o = large_orbit(QQ, 16, parity="odd")
        assert o.size == 17

    @pytest.mark.parametrize("delta", [1, 2, 3, 5, 8])
    def test_size_at_least_delta(self, delta):
        assert large_orbit(F3, delta).size >= delta


class TestSym4Audit:
    def test_five_classes(self):
        entries = transitive_sym4_audit()
        assert [e.name for e in entries] == ["Sym4", "A4", "D8", "V4", "Z4"]
        assert [e.order for e in entries] == [24, 12, 8, 4, 4]

    def test_witnesses_for_all_pairings(self):
        for e in transitive_sym4_audit():
            assert set(e.exchange_witnesses) == {"12|34", "13|24", "14|23"}
            for ws in e.exchange_witnesses.values():
                assert ws

    def test_distinguished_witnesses(self):
        entries = {e.name: e for e in transitive_sym4_audit()}
        # (14)(23) exchanges {1,3} with {2,4} inside V4
        assert (3, 1, 0, 2)[::1] in entries["V4"].exchange_witnesses["13|24"] or (
            3,
            2,
            1,
            0,
        ) in entries["V4"].exchange_witnesses["13|24"]
        # (13)(24) lies in every subgroup
        for e in entries.values():
            assert (2, 3, 0, 1) in e.elements

    def test_cycle_format(self):
        assert perm_cycles((2, 3, 0, 1)) == "(1 3)(2 4)"
        assert perm_cycles((0, 1, 2, 3)) == "id"


class TestJsonRoundTrip:
    def test_conic(self):
        o = orbit_from_poly(F2, P(F2, "t^4+t+1"), CONIC)
        assert orbit_from_json(orbit_to_json(o)).key() == o.key()

    def test_split(self):
        f = P(F2, "x^2+x+1")
        o = orbit_from_poly(F2, f, SPLIT, second_poly=f)
        assert orbit_from_json(orbit_to_json(o)).key() == o.key()

    def test_explicit(self):
        o = enumerate_point_orbits(F2, 2)[0]
        back = orbit_from_json(orbit_to_json(o))
        assert back.key() == o.key()
        assert back.general_position == o.general_position

    def test_over_q(self):
        o = orbit_from_poly(QQ, P(QQ, "x^17-2"), LINE)
        assert orbit_from_json(orbit_to_json(o)).key() == o.key()

    @pytest.mark.parametrize("field", [F2, QQ])
    def test_explicit_point_order(self, field):
        # the same four points listed in two orders read as one orbit
        if field == QQ:
            K, pts = QQ, [(QQ.one, QQ.from_int(i), QQ.from_int(i * i)) for i in range(4)]
        else:
            K, pts = materialize_points(orbit_from_poly(F2, P(F2, "t^4+t+1"), CONIC))
        o = explicit_orbit(field, K, pts)
        obj = orbit_to_json(o)
        reordered = {**obj, "points": obj["points"][::-1]}
        assert reordered["points"] != obj["points"]
        assert orbit_from_json(reordered).key() == orbit_from_json(obj).key() == o.key()


def test_fingerprint_is_permutation():
    # Frobenius permutes the points of a transitive orbit in one 4-cycle
    o = orbit_from_poly(F2, P(F2, "t^4+t+1"), CONIC)
    K, pts = materialize_points(o)
    (cycle,) = _cycles(K, pts, 2)
    assert sorted(cycle) == sorted(pts)
    assert [point_sort_key(K, p) for p in cycle[1:] + cycle[:1]] == [
        point_sort_key(K, tuple(K.pow(c, 2) for c in p)) for p in cycle
    ]


class TestFrameNormalization:
    """Above q = 5 classes come from the same descent as below it."""

    def test_equivalent_orbits_merge(self):
        F7 = PrimeField(7)
        f = find_irreducible(F7, 4)
        o1 = orbit_from_poly(F7, f, CONIC)
        K, pts = materialize_points(o1)
        M = [[1, 2, 0], [0, 1, 0], [3, 0, 1]]
        rows = lift_matrix(K, F7, M)
        o2 = explicit_orbit(F7, K, [apply_matrix(K, rows, p) for p in pts])
        classes = pgl3_classify([o1, o2], F7)
        assert len(classes) == 1 and classes[0].strategy == "galois-descent"

    def test_no_frame_refused(self):
        # a 2-point orbit has no 4-point frame; it is classified, not
        # refused, and its class is the walk oracle's
        F7 = PrimeField(7)
        o = orbit_from_poly(F7, find_irreducible(F7, 2), CONIC)
        orbits = [o] + census(7, 2)
        classes = pgl3_classify(orbits, F7)
        assert partition(classes) == walk_partition(F7, orbits)
        assert len(classes) == 1 and o in classes[0].members


def seeded_poly(F, degree, rng, monic=True):
    coeffs = [F.from_packed_int(rng.randrange(F.size())) for _ in range(degree + 1)]
    if monic:
        coeffs[-1] = F.one
    while not coeffs[-1]:
        coeffs[-1] = F.from_packed_int(rng.randrange(F.size()))
    return Poly(F, coeffs)


def seeded_irreducible(F, degree, rng):
    while True:
        f = seeded_poly(F, degree, rng)
        if is_irreducible(f):
            return f


class TestRootsInField:
    """roots_in_field against the linear factors that full factorization
    over K finds, on seeded polynomials."""

    # (q, largest [K:F_q] tried): the factoring oracle over K sets the caps
    FIELDS = [(2, 6), (3, 5), (4, 4), (7, 4), (8, 3), (9, 3), (101, 3)]

    @staticmethod
    def oracle(f, K):
        lifted = Poly(K, [c if K == f.field else K.embed(c) for c in f.coeffs])
        roots = [K.neg(g.coeffs[0]) for g, _ in factor_over_prime_field(lifted) if g.degree == 1]
        return sorted(roots, key=K.to_int)

    def cases(self, F, rng):
        yield from (seeded_poly(F, d, rng, monic=False) for d in (1, 2, 3, 4, 5, 6))
        yield from (seeded_irreducible(F, d, rng) for d in (2, 3, 4))
        a, b = seeded_irreducible(F, 2, rng), seeded_poly(F, 1, rng)
        yield a * a * b * b * b  # repeated factors
        yield a * seeded_irreducible(F, 3, rng) * b

    @pytest.mark.parametrize("q,top", FIELDS)
    def test_matches_factorization(self, q, top):
        F, rng = field_of_size(q), random.Random(q)
        found = 0
        for n in range(1, top + 1):
            K = canonical_extension(F, n)
            for f in self.cases(F, rng):
                roots = roots_in_field(f, K)
                assert roots == self.oracle(f, K), (f, K)
                found += len(roots)
        assert found  # some cases have roots in some K

    @pytest.mark.parametrize("q", [2, 7, 9])
    def test_degree_not_dividing_is_empty(self, q):
        F, rng = field_of_size(q), random.Random(q)
        for d, n in [(3, 2), (2, 3), (4, 2), (5, 4)]:
            f = seeded_irreducible(F, d, rng)
            assert roots_in_field(f, canonical_extension(F, n)) == []

    def test_own_field_starts_at_the_generator(self):
        F7 = PrimeField(7)
        f = seeded_irreducible(F7, 4, random.Random(3))
        K = ExtensionField(F7, f.coeffs, check=False)
        roots = roots_in_field(f, K)
        assert K.gen() in roots and roots == self.oracle(f, K)


class TestReembedding:
    def test_explicit_orbit_over_noncanonical_modulus(self):
        # an explicit orbit whose coordinate field uses a non-canonical
        # modulus classifies together with its conic-form twin
        from cremona_kit.fields import ExtensionField

        K2 = ExtensionField(F2, P(F2, "t^4+t^3+1").coeffs)
        o_conic = orbit_from_poly(F2, P(F2, "t^4+t^3+1"), CONIC)
        roots = [K2.gen()]
        for _ in range(3):
            roots.append(K2.pow(roots[-1], 2))
        pts = [(K2.one, a, K2.mul(a, a)) for a in roots]
        o_explicit = explicit_orbit(F2, K2, pts, min_poly=P(F2, "t^4+t^3+1"))
        classes = pgl3_classify([o_conic, o_explicit], F2)
        assert len(classes) == 1 and classes[0].count == 2


class TestUnions:
    """pgl3_form on unions of orbits: rational points, small orbits, sets
    on a line with one point off it, sets whose frames leave points out."""

    SHAPES = [(1, 1, 1), (1, 1, 1, 1), (1, 1, 1, 1, 1), (1, 2), (1, 1, 2), (1, 3), (2, 2),
              (1, 1, 1, 2)]

    def unions(self, q, count):
        rng = random.Random(q)
        by_size = {n: census(q, n) for n in (1, 2, 3)}
        out = []
        for shape in self.SHAPES:
            for _ in range(count):
                picked = []
                for n in shape:
                    picked.append(rng.choice([o for o in by_size[n] if o not in picked]))
                out.append(picked)
        return out

    @pytest.mark.parametrize("q,count", [(2, 12), (3, 5)])
    def test_forms_match_class_walk(self, q, count):
        # equal forms exactly when the walk from one union reaches the other
        F = PrimeField(q)
        unions = self.unions(q, count)
        K = common_coordinate_field(F, [o for u in unions for o in u])
        points = [[p for o in u for p in materialize_points(o, K=K)[1]] for u in unions]
        keys = [tuple(sorted(point_sort_key(K, p) for p in pts)) for pts in points]
        forms = [pgl3_form(F, u) for u in unions]
        walks = {}
        for i, u in enumerate(unions):
            if keys[i] not in walks:
                images = class_walk(F, K, points[i])
                walks.update({img: images for img in images if img in keys})
            for j in range(i):
                assert (forms[i] == forms[j]) == (keys[j] in walks[keys[i]]), (u, unions[j])
        kinds = {f.split(":")[0] for f in forms}
        assert kinds == {"points", "frame", "line", "line+point"}
