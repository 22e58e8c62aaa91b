import pytest

from cremona_kit import errors
from cremona_kit.fields import (
    PrimeField,
    Poly,
    QQ,
    find_irreducible,
    poly_from_string,
)
from cremona_kit.orbits import CONIC, SPLIT, large_orbit, orbit_from_poly
from cremona_kit.catalog import cb_class_key, hirzebruch, link_validate
from cremona_kit.freeprod import homo_eval
from cremona_kit.rewrite import GroupoidWord, LinkLetter, reduce_relation, word
from cremona_kit.constructions import (
    DeJonquieresMap,
    c5_big_link,
    c6_big_link,
    conjugate_to_p2,
    dejonquieres_decompose,
    mirror_split_orbit,
    refined_target_report,
    word_base_point_total,
)

F2 = PrimeField(2)


def PQ(s):
    return poly_from_string(QQ, s)


def P2f(s):
    return poly_from_string(F2, s)


class TestDeJonquieres:
    def test_degree_17_over_q(self):
        w, audit = dejonquieres_decompose(DeJonquieresMap(PQ("y^17-2")))
        assert len(w) == 18
        depths = sorted(l.depth for l in w.link_letters())
        assert depths == [1] * 17 + [17]
        img = homo_eval(w)
        assert len(img) == 1
        factor, bits = img.word[0]
        assert factor.family == "hirzebruch" and bits == frozenset({17})
        assert audit.self_intersection == 34
        assert word_base_point_total(w) == 34 == 2 * 17

    def test_degree_8_identity_image(self):
        w, _ = dejonquieres_decompose(DeJonquieresMap(PQ("y^8-2")))
        assert sorted(l.depth for l in w.link_letters()) == [1] * 8 + [8]
        assert homo_eval(w).is_identity()

    def test_degree_1(self):
        w, audit = dejonquieres_decompose(DeJonquieresMap(PQ("y-2")))
        assert len(w) == 2
        assert all(l.depth == 1 for l in w.link_letters())
        assert homo_eval(w).is_identity()
        assert audit.base_point_total == 2

    def test_word_chains_through_ladder(self):
        w, _ = dejonquieres_decompose(DeJonquieresMap(PQ("y^5-2")))
        from cremona_kit.rewrite import word_validate

        assert word_validate(w).ok
        models = [w.letters[0].src] + [l.tgt for l in w.letters]
        assert [m.n for m in models] == [0, 5, 4, 3, 2, 1, 0]

    def test_exactly_one_deep_letter(self):
        w, _ = dejonquieres_decompose(DeJonquieresMap(PQ("y^17-2")))
        assert sum(1 for l in w.link_letters() if l.depth == 17) == 1

    def test_reducible_p_rejected(self):
        with pytest.raises(errors.NotIrreducible):
            dejonquieres_decompose(DeJonquieresMap(PQ("y^2-1")))

    def test_finite_field_coordinate_audit(self):
        for d in (1, 2, 5, 8):
            p = find_irreducible(F2, d)
            _, audit = dejonquieres_decompose(DeJonquieresMap(p))
            assert audit.coordinate_verified
            assert "coordinate-verified" in audit.notes

    def test_large_degree_stated_combinatorics(self):
        p = find_irreducible(F2, 9)
        _, audit = dejonquieres_decompose(DeJonquieresMap(p))
        assert not audit.coordinate_verified
        assert "stated-combinatorics" in audit.notes


class TestConjugateToP2:
    def test_image_unchanged(self):
        w, _ = dejonquieres_decompose(DeJonquieresMap(PQ("y^17-2")))
        cw = conjugate_to_p2(w)
        assert cw.source.kind == "P2" and cw.target.kind == "P2"
        assert homo_eval(cw) == homo_eval(w)
        from cremona_kit.rewrite import word_validate

        assert word_validate(cw).ok

    def test_empty_word_reduces(self):
        w = GroupoidWord((), hirzebruch(0), hirzebruch(0))
        cw = conjugate_to_p2(w, field=QQ)
        assert len(cw) == 4
        assert reduce_relation(cw).is_trivial

    def test_endpoint_mismatch(self):
        w = GroupoidWord((), hirzebruch(2), hirzebruch(2))
        with pytest.raises(errors.EndpointMismatch):
            conjugate_to_p2(w, field=QQ)

    def test_alpha_letters_are_shallow(self):
        w = GroupoidWord((), hirzebruch(0), hirzebruch(0))
        cw = conjugate_to_p2(w, field=QQ)
        assert all(l.depth <= 2 for l in cw.link_letters())


class TestC5BigLink:
    def test_f2_depth_17(self):
        orbit4 = orbit_from_poly(F2, P2f("t^4+t+1"), CONIC)
        r17 = find_irreducible(F2, 17)
        link, report = c5_big_link(orbit4, r17)
        assert link.depth == 17
        assert link.source.kind == "CB5" and link.target.kind == "CB5"
        assert link_validate(link)
        assert report.mode == "coordinate"
        assert report.conic_count == 17
        assert report.distinct is True and report.collinear_clear is True

    def test_f2_small_depth(self):
        orbit4 = orbit_from_poly(F2, P2f("t^4+t+1"), CONIC)
        link, report = c5_big_link(orbit4, P2f("t^3+t+1"))
        assert link.depth == 3 and report.mode == "coordinate"

    def test_f2_collinear_detected(self):
        # 1 = t + (t+1) is a sum of two orbit parameters, so r = t+1 hits
        # a line through two defining points
        orbit4 = orbit_from_poly(F2, P2f("t^4+t+1"), CONIC)
        with pytest.raises(errors.CollinearTriple):
            c5_big_link(orbit4, P2f("t+1"))

    def test_q_symbolic(self):
        orbit4 = large_orbit(QQ, 4)
        link, report = c5_big_link(orbit4, PQ("x^17-2"))
        assert link.depth == 17
        assert report.mode == "symbolic"
        assert report.distinct == "parity-argument"
        assert report.collinear_clear == "degree-argument"

    def test_q_resolvent_path(self):
        orbit4 = large_orbit(QQ, 4)
        link, report = c5_big_link(orbit4, PQ("x^3-2"))
        assert link.depth == 3 and report.collinear_clear == "resolvent"

    def test_q_resolvent_detects_collinearity(self):
        # x^4 - 2x^3 + 2x^2 - x + 1 = (x^2-x-w)(x^2-x-wbar): two roots sum
        # to 1, so r = x - 1 is collinear
        f = PQ("x^4-2*x^3+2*x^2-x+1")
        orbit4 = orbit_from_poly(QQ, f, CONIC)
        with pytest.raises(errors.CollinearTriple):
            c5_big_link(orbit4, PQ("x-1"))

    def test_even_degree_rejected(self):
        orbit4 = large_orbit(QQ, 4)
        with pytest.raises(errors.EvenDegree):
            c5_big_link(orbit4, PQ("x^16-2"))

    def test_conic_template_required(self):
        f = P2f("x^2+x+1")
        split = orbit_from_poly(F2, f, SPLIT, second_poly=f)
        with pytest.raises(errors.BadInput):
            c5_big_link(split, P2f("t^3+t+1"))


class TestPencilCoincidences:
    """The pencil step on crafted pencils, whose y^2, yz, z^2 coefficients
    A (of Q1) and B (of Q2) no c5/c6 input produces: a pencil through four
    points in general position meets the line x = 0 in a base-point-free
    g^1_2, so an odd orbit there never shares conics.  Messages are pinned."""

    @pytest.mark.parametrize(
        "A, B, r, message",
        [
            ((0, 0, 0), (0, 0, 0), "x", "the whole pencil passes through q_1"),
            ((0, 0, 0), (0, 0, 0), "x^2+x+1", "the whole pencil passes through a q_i"),
            ((0, 0, 0), (0, 0, 1), "x^2+x+1", "conic parameters degenerate to infinity"),
            ((0, 0, 1), (0, 0, 0), "x^2+x+1", "conics through q_1 and q_2 coincide"),
            ((0, 0, 1), (1, 1, 0), "x^4+x^3+1", "conics through q_1 and q_3 coincide"),
            ((0, 0, 1), (1, 1, 0), "x^6+x^4+x^3+x+1", "conics through q_1 and q_4 coincide"),
        ],
    )
    def test_message(self, A, B, r, message):
        from cremona_kit.constructions import _parameters_and_center

        with pytest.raises(errors.ConicCoincidence) as exc:
            _parameters_and_center(F2, (0, 0, 0) + A, (0, 0, 0) + B, P2f(r))
        assert exc.value.detail == message

    def test_distinct_members_give_the_parameter_orbit(self):
        from cremona_kit.constructions import _parameters_and_center

        # u = -B(t)/A(t) = t^2 + t generates F_8 over F_2 when r = t^3+t+1
        center, count = _parameters_and_center(F2, (0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 1), P2f("t^3+t+1"))
        assert count == 3 and center.poly.degree == 3


class TestC6BigLink:
    def test_f2_depth_17(self):
        split = mirror_split_orbit(F2, P2f("x^2+x+1"))
        r17 = find_irreducible(F2, 17)
        link, report = c6_big_link(split, r17)
        assert link.depth == 17
        assert link.source.kind == "CB6"
        assert link_validate(link)
        assert report.mode == "coordinate" and report.distinct is True

    def test_mirror_pair_is_valid_input(self):
        split = mirror_split_orbit(F2, P2f("x^2+x+1"))
        assert split.template == SPLIT and split.size == 4
        assert split.general_position == "yes"

    def test_f2_collinear_detected(self):
        # b/a = 1 for a = b among the mirrored roots, so r = t+1 is hit
        split = mirror_split_orbit(F2, P2f("x^2+x+1"))
        with pytest.raises(errors.CollinearTriple):
            c6_big_link(split, P2f("t+1"))

    def test_line_z0_detected(self):
        split = mirror_split_orbit(F2, P2f("x^2+x+1"))
        with pytest.raises(errors.CollinearTriple):
            c6_big_link(split, P2f("t"))

    def test_q_symbolic(self):
        split = mirror_split_orbit(QQ, PQ("x^2-2"))
        link, report = c6_big_link(split, PQ("x^17-2"))
        assert link.depth == 17 and report.mode == "symbolic"

    def test_q_resolvent(self):
        split = mirror_split_orbit(QQ, PQ("x^2-2"))
        link, report = c6_big_link(split, PQ("x^3-2"))
        assert report.collinear_clear == "resolvent"

    def test_q_resolvent_detects(self):
        # mirror of x^2-2: ratios -b/a include -1 and +1
        split = mirror_split_orbit(QQ, PQ("x^2-2"))
        with pytest.raises(errors.CollinearTriple):
            c6_big_link(split, PQ("x-1"))


class TestRefinedReport:
    def test_over_q(self):
        rep = refined_target_report(QQ, 21)
        assert [n for n, _, _ in rep.indices] == [8, 9, 10]
        assert rep.free_factors_ok
        assert rep.n2["all"] is None

    def test_witness_classes_depend_only_on_class(self):
        # a different degree-17 irreducible lands in the same factor
        rep = refined_target_report(F2, 17)
        link5a = rep.witness_images["dp5"].word[0][0]
        orbit4 = orbit_from_poly(F2, P2f("t^4+t^3+1"), CONIC)
        r17b = P2f("t^17+t^3+1")
        link, _ = c5_big_link(orbit4, r17b)
        img = homo_eval(word([LinkLetter(link, 1)]))
        assert img.word[0][0] == link5a

    def test_bound_too_small(self):
        with pytest.raises(errors.BadInput):
            refined_target_report(F2, 15)
