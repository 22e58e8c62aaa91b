"""Acceptance criteria, one test per criterion, each printing a PASS line
with its elapsed time (run with -s to see them).  Tolerances and budgets
are fixed here, not calibrated."""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from cremona_kit.fields import (
    ExtensionField,
    Poly,
    PrimeField,
    QQ,
    factor_over_prime_field,
    find_irreducible,
    is_irreducible,
    poly_from_string,
)
from cremona_kit.orbits import (
    ALL,
    CONIC,
    GENERAL_POSITION_ONLY,
    GP_NO,
    GP_YES,
    LINE,
    PointOrbit,
    enumerate_point_orbits,
    orbit_from_poly,
    pgl3_classify,
    transitive_sym4_audit,
)
from cremona_kit.catalog import (
    SarkisovLink,
    VERTICALS,
    cb_class_key,
    center_from_poly,
    conic_bundle5,
    dp5_incidence,
    hirzebruch,
    link_validate,
    projective_plane,
)
from cremona_kit.linsys import (
    GrowthCertificate,
    LinearSystemClass,
    lambda_bound,
    push_oracle,
    push_type2,
)
from cremona_kit.rewrite import (
    GroupoidWord,
    LinkLetter,
    make_center_pool,
    make_link_template,
    random_relator,
    reduce_relation,
    word,
)
from cremona_kit.freeprod import homo_eval, witness_free_factors
from cremona_kit.constructions import (
    DeJonquieresMap,
    c5_big_link,
    conjugate_to_p2,
    dejonquieres_decompose,
    refined_target_report,
    word_base_point_total,
)

F2 = PrimeField(2)


@contextmanager
def budget(num, description, seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num}: FAIL — {description}")
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= seconds:
        print(
            f"ACCEPTANCE {num}: FAIL — {description} exceeded {seconds}s ({elapsed:.2f}s)"
        )
        raise AssertionError(f"criterion {num} exceeded {seconds}s ({elapsed:.2f}s)")
    print(f"ACCEPTANCE {num}: PASS — {description} ({elapsed:.2f}s)")


def synthetic_links():
    links = {}
    for size in range(1, 21):
        poly = find_irreducible(F2, size)
        src = PointOrbit(
            F2, LINE, size, poly,
            general_position=GP_YES if size < 3 else GP_NO,
        )
        tgt = PointOrbit(F2, CONIC, size, poly, general_position=GP_YES)
        links[size] = SarkisovLink(
            "II",
            hirzebruch(0),
            hirzebruch(size % 2),
            orbit_src=src,
            orbit_tgt=tgt,
            center=center_from_poly(poly),
            depth=size,
        )
        links[size].orbit_src.key()
        links[size].orbit_tgt.key()
    return links


LINKS = synthetic_links()


def grid_cases():
    for two_lambda in range(0, 11):
        for two_nu in range(-10, 11):
            for size in range(1, 21):
                link = LINKS[size]
                key = link.orbit_src.key()
                for two_m in range(0, 2 * two_lambda + 1):
                    yield link, LinearSystemClass(
                        two_lambda, two_nu, {key: two_m} if two_m else None
                    )


def test_criterion_1_formula_oracle_equivalence():
    with budget(1, "push_type2 == push_oracle on the full ~46k grid", 1.0):
        cases = mismatches = 0
        for link, H in grid_cases():
            cases += 1
            if push_type2(H, link) != push_oracle(H, link):
                mismatches += 1
        assert cases == 50820
        assert mismatches == 0


def test_criterion_2_involution_identity():
    inverses = {size: LINKS[size].inverse() for size in LINKS}
    with budget(2, "push through (link, inverse) restores every grid input", 1.0):
        mismatches = 0
        for link, H in grid_cases():
            back = push_type2(push_type2(H, link), inverses[link.depth])
            if back != H:
                mismatches += 1
        assert mismatches == 0


def test_criterion_3_lambda_growth_certificates():
    rng = random.Random(20260810)
    with budget(3, "500 randomized growth certificates all exceed 4*lambda", 1.0):
        produced = 0
        while produced < 500:
            lam = Fraction(rng.randrange(1, 60), rng.choice((1, 2)))
            orbits = []
            for _ in range(rng.randrange(1, 5)):
                size = rng.randrange(16, 48)
                # multiplicity in (1/2)Z with m < lam/2 strictly
                cap = int(lam)  # two_m < lam  <=>  m < lam/2
                two_m = rng.randrange(0, max(1, cap))
                if Fraction(two_m, 2) >= lam / 2:
                    two_m = 0
                orbits.append((size, Fraction(two_m, 2)))
            a = Fraction(rng.randrange(1, 7), 2)
            cert = lambda_bound(lam, orbits, a)
            assert isinstance(cert, GrowthCertificate)
            assert cert.bound > 4 * lam
            produced += 1


def test_criterion_4_dejonquieres_17():
    with budget(4, "de Jonquieres d=17 over Q: ladder, image, audit", 1.0):
        p = poly_from_string(QQ, "y^17-2")
        w, audit = dejonquieres_decompose(DeJonquieresMap(p))
        assert len(w) == 18
        depths = sorted(l.depth for l in w.link_letters())
        assert depths == [1] * 17 + [17]
        img = homo_eval(w)
        assert len(img) == 1
        factor, bits = img.word[0]
        assert factor.family == "hirzebruch" and bits == frozenset({17})
        conj = conjugate_to_p2(w)
        assert homo_eval(conj) == img
        assert word_base_point_total(w) == 34 == 2 * 17
        assert audit.base_point_total == 34


def test_criterion_5_threshold_behavior():
    with budget(5, "threshold: d=8,15 trivial, d=16 nontrivial", 1.0):
        for d, trivial in ((8, True), (15, True), (16, False)):
            p = poly_from_string(QQ, f"y^{d}-2")
            w, _ = dejonquieres_decompose(DeJonquieresMap(p))
            assert homo_eval(w).is_identity() == trivial


def test_criterion_6_relator_fuzzing():
    pool = make_center_pool(F2, [1, 2, 3, 5, 17, 19])
    templates = [make_link_template(F2, p) for p in pool]
    with budget(6, "1000 seeded relators reduce; image invariant per move", 10.0):
        for seed in range(1000):
            rng = random.Random(seed)
            w = random_relator(rng, templates, max_len=40)
            assert len(w) <= 40
            base = homo_eval(w)
            assert base.is_identity()
            failures = []

            def observer(state, move):
                if homo_eval(state) != base:
                    failures.append(move)

            result = reduce_relation(w, observer=observer)
            assert result.is_trivial and not result.stuck, f"seed {seed}"
            assert not failures, f"image drifted at seed {seed}: {failures}"


def test_long_relator_reduction():
    pool = make_center_pool(F2, [1, 2, 3, 5, 17, 19])
    templates = [make_link_template(F2, p) for p in pool]
    rng = random.Random(400)
    letters = []
    for _ in range(400):
        piece = random_relator(rng, templates, max_len=40)
        letters.extend(piece.letters)
    w = GroupoidWord(tuple(letters), piece.source, piece.target)
    assert len(w) > 4500
    with budget("6L", f"400 concatenated relators ({len(w)} letters) reduce", 3.0):
        result = reduce_relation(w)
        assert result.is_trivial and not result.stuck


def test_criterion_7_f2_orbit_census():
    with budget(7, "F2 census 7/7/63; classes 1 (size 2), 1 (gp size 4)", 5.0):
        counts = {n: enumerate_point_orbits(F2, n) for n in (1, 2, 4)}
        assert [len(counts[n]) for n in (1, 2, 4)] == [7, 7, 63]
        size2 = pgl3_classify(counts[2], F2)
        assert len(size2) == 1
        size4_gp = pgl3_classify(counts[4], F2, filter=GENERAL_POSITION_ONLY)
        assert len(size4_gp) == 1
        size4_all = pgl3_classify(counts[4], F2, filter=ALL)
        # reported without an asserted target
        print(f"  [unfiltered size-4 class count over F2: {len(size4_all)}]")


def test_f5_conic_quartic_key():
    # the class walk this key once took visited 93,000 sets (11-15 s)
    F5 = PrimeField(5)
    model = conic_bundle5(orbit_from_poly(F5, find_irreducible(F5, 4), CONIC))
    with budget("F5 key", "cb_class_key of one F5 conic-form quartic", 1.0):
        key = cb_class_key(model)
    assert key.family == "dp5" and key.class_id.startswith("pgl3[q=5]:frame:")


def test_conic_keys_share_canonical_field():
    # each key finds its roots in the one canonical F_{9^4} kept on the base
    # field, whose log/exp tables are built once (about 0.55 s when every key
    # built a fresh field)
    F3 = PrimeField(3)
    F9 = ExtensionField(F3, find_irreducible(F3, 2).coeffs)
    rng, models = random.Random(9), []
    while len(models) < 10:
        f = Poly(F9, [F9.from_packed_int(rng.randrange(9)) for _ in range(4)] + [F9.one])
        if is_irreducible(f):
            models.append(conic_bundle5(orbit_from_poly(F9, f, CONIC)))
    with budget("F9 keys", "ten cb_class_key calls on F9 conic-form quartics", 0.3):
        keys = [cb_class_key(X) for X in models]
    assert all(k.class_id.startswith("pgl3[q=9]:frame:") for k in keys)


def test_criterion_8_example_c5_link():
    with budget(8, "17 distinct conics through t^4+t+1 orbit; depth-17 link", 10.0):
        orbit4 = orbit_from_poly(F2, poly_from_string(F2, "t^4+t+1"), CONIC)
        assert orbit4.general_position == GP_YES
        r17 = find_irreducible(F2, 17)
        # exhaustively verified: the factorization oracle must return r17 itself
        assert factor_over_prime_field(r17) == [(r17, 1)]
        link, report = c5_big_link(orbit4, r17)
        assert report.mode == "coordinate"
        assert report.conic_count == 17
        assert report.distinct is True
        assert report.collinear_clear is True
        assert link.depth == 17
        assert link_validate(link)


def test_criterion_9_refined_target_lower_bound():
    with budget(9, "three witness images in three distinct free factors", 30.0):
        report = refined_target_report(F2, 25)
        assert report.free_factors_ok
        images = list(report.witness_images.values())
        assert len(images) == 3
        assert all(len(img) == 1 for img in images)
        factors = {img.word[0][0] for img in images}
        assert len(factors) == 3
        assert witness_free_factors(images)
        for a in images:
            for b in images:
                if a is not b:
                    assert len(a * b) == 2


def test_criterion_10_structural_audits():
    with budget(10, "Sym4 audit, dp5 incidence degrees, link bounds", 1.0):
        entries = transitive_sym4_audit()
        assert len(entries) == 5
        for e in entries:
            assert set(e.exchange_witnesses) == {"12|34", "13|24", "14|23"}
            for ws in e.exchange_witnesses.values():
                assert len(ws) >= 1
        for config in ("a", "b"):
            inc = dp5_incidence(config)
            for k in range(1, 5):
                assert inc.section_degree(k) == 3
            for v in VERTICALS:
                assert inc.vertical_degree(v) == 2
        big = orbit_from_poly(F2, find_irreducible(F2, 9), CONIC)
        nine = SarkisovLink(
            "II",
            projective_plane(),
            projective_plane(),
            orbit_src=big,
            orbit_tgt=big,
            depth=9,
        )
        verdict = link_validate(nine)
        assert not verdict and verdict.rule == "DP-orbit-bound"
        for x in range(1, 21):
            assert link_validate(LINKS[x])
