import dataclasses
import random

import pytest

from cremona_kit import errors
from cremona_kit.fields import PrimeField, find_irreducible, poly_from_string as P
from cremona_kit.catalog import (
    CENTER_INF,
    SarkisovLink,
    center_from_poly,
    galois_depth,
    hirzebruch,
    link_validate,
)
from cremona_kit.freeprod import homo_eval
from cremona_kit.rewrite import (
    GroupoidWord,
    IsoMarker,
    LinkLetter,
    commute_move,
    fiber_traces,
    instantiate_link,
    make_center_pool,
    make_link_template,
    random_relator,
    reduce_relation,
    reorder_by_depth,
    word,
    word_from_json,
    word_to_json,
    word_validate,
)

F2 = PrimeField(2)

POOL = make_center_pool(F2, [1, 2, 3, 17])
TEMPLATES = [make_link_template(F2, p) for p in POOL]
BY_DEPTH = {t["depth"]: t for t in TEMPLATES}


def rng(seed=0):
    return random.Random(seed)


def mixed_field_relators():
    """Seeded relators F0 -> F0 over F2 and over F3."""
    F3 = PrimeField(3)
    t2 = [make_link_template(F2, p) for p in make_center_pool(F2, [1, 2, 3])]
    t3 = [make_link_template(F3, p) for p in make_center_pool(F3, [1, 2, 3])]
    return random_relator(rng(1), t2, max_len=8), random_relator(rng(2), t3, max_len=8)


def four_link_relator(d1=3, d2=17, seed=0):
    r = rng(seed)
    chi1 = instantiate_link(BY_DEPTH[d1], hirzebruch(0), r)
    chi2 = instantiate_link(BY_DEPTH[d2], chi1.target, r)
    chi3, chi4 = commute_move(chi1, chi2)
    return chi1, chi2, chi3, chi4


class TestWordValidate:
    def test_link_inverse_pair(self):
        l = instantiate_link(BY_DEPTH[3], hirzebruch(0), rng())
        w = word([LinkLetter(l, 1), LinkLetter(l, -1)])
        assert word_validate(w).ok

    def test_chain_break_position(self):
        l1 = instantiate_link(BY_DEPTH[3], hirzebruch(0), rng())
        l2 = instantiate_link(BY_DEPTH[2], hirzebruch(5), rng())
        if l2.source.key() == l1.target.key():
            pytest.skip("random targets collided")
        w = GroupoidWord(
            (LinkLetter(l1, 1), LinkLetter(l2, 1)), l1.source, l2.target
        )
        verdict = word_validate(w)
        assert not verdict.ok and verdict.position == 1

    def test_empty_word_ok(self):
        w = GroupoidWord((), hirzebruch(0), hirzebruch(0))
        assert word_validate(w).ok

    def test_invalid_link_detected(self):
        bad = SarkisovLink("IV", hirzebruch(1), hirzebruch(1), depth=0)
        w = word([LinkLetter(bad, 1)])
        verdict = word_validate(w)
        assert not verdict.ok and verdict.reason == "invalid-link"

    def test_mixed_fields_refused(self):
        # an F2 relator followed by an F3 relator chains F0 -> F0 -> F0
        w2, w3 = mixed_field_relators()
        assert word_validate(w2).ok and word_validate(w3).ok
        verdict = word_validate(w2.concat(w3))
        assert (verdict.ok, verdict.position, verdict.reason) == (False, len(w2), "field")
        verdict = word_validate(w3.concat(w2))
        assert (verdict.ok, verdict.position, verdict.reason) == (False, len(w3), "field")

    def test_field_read_from_orbit_without_center_poly(self):
        w2, w3 = mixed_field_relators()
        l = w3.letters[0].link
        at_inf = dataclasses.replace(l, center=CENTER_INF)
        w = word(list(w2.letters) + [LinkLetter(at_inf, 1), LinkLetter(at_inf, -1)])
        verdict = word_validate(w)
        assert (verdict.ok, verdict.position, verdict.reason) == (False, len(w2), "field")


class TestCommuteMove:
    def test_depths_transported(self):
        chi1, chi2, chi3, chi4 = four_link_relator()
        assert chi3.depth == chi1.depth and chi4.depth == chi2.depth
        assert chi3.center.key() == chi1.center.key()
        assert chi4.center.key() == chi2.center.key()
        assert link_validate(chi3) and link_validate(chi4)

    def test_four_letter_word_is_relator(self):
        chi1, chi2, chi3, chi4 = four_link_relator()
        w = word([LinkLetter(c, 1) for c in (chi1, chi2, chi3, chi4)])
        assert w.is_relator() and word_validate(w).ok

    def test_shared_fiber_rejected(self):
        r = rng()
        chi1 = instantiate_link(BY_DEPTH[3], hirzebruch(0), r)
        chi2 = instantiate_link(BY_DEPTH[3], chi1.target, r)
        with pytest.raises(errors.SharedFiber):
            commute_move(chi1, chi2)

    def test_type_iv_rejected(self):
        iv = SarkisovLink("IV", hirzebruch(0), hirzebruch(0), depth=0)
        chi2 = instantiate_link(BY_DEPTH[3], hirzebruch(0), rng())
        with pytest.raises(errors.NotTypeIICB):
            commute_move(iv, chi2)

    def test_class_key_shared(self):
        from cremona_kit.catalog import cb_class_key

        chis = four_link_relator()
        keys = {cb_class_key(c.source) for c in chis} | {
            cb_class_key(c.target) for c in chis
        }
        assert len(keys) == 1


class TestReduce:
    def test_trivial_pair(self):
        l = instantiate_link(BY_DEPTH[17], hirzebruch(0), rng())
        w = word([LinkLetter(l, 1), LinkLetter(l, -1)])
        res = reduce_relation(w)
        assert res.is_trivial and not res.stuck
        assert [m[0] for m in res.moves][0] == "cancel"

    def test_four_letter_relator(self):
        chi1, chi2, chi3, chi4 = four_link_relator()
        w = word([LinkLetter(c, 1) for c in (chi1, chi2, chi3, chi4)])
        res = reduce_relation(w)
        assert res.is_trivial
        # both fibers tracked, both traces end at zero
        for seq in res.traces.values():
            assert seq[0] == 0 and seq[-1] == 0

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_cyclic_rotations(self, k):
        chis = four_link_relator()
        letters = [LinkLetter(c, 1) for c in chis]
        letters = letters[k:] + letters[:k]
        src = letters[0].src
        w = GroupoidWord(tuple(letters), src, src)
        assert reduce_relation(w).is_trivial

    def test_mixed_fields_refused(self):
        # an F2 link at the center x+1 and the inverse of the same link over
        # F3: the center keys agree, so the pair used to cancel
        F3 = PrimeField(3)
        l2, l3 = (
            instantiate_link(make_link_template(F, P(F, "x+1")), hirzebruch(0), rng())
            for F in (F2, F3)
        )
        w = word([LinkLetter(l2, 1), LinkLetter(l3, -1)])
        assert word_validate(w).reason == "field"
        with pytest.raises(errors.IncompatibleFields):
            reduce_relation(w)

    def test_not_a_relator(self):
        l = instantiate_link(BY_DEPTH[3], hirzebruch(0), rng())
        w = word([LinkLetter(l, 1)])
        if w.is_relator():
            pytest.skip("link happens to be a loop")
        with pytest.raises(errors.NotARelator):
            reduce_relation(w)

    def test_stuck_residual_is_value(self):
        # two deep letters at the same center that are not mutually inverse
        r = rng(1)
        l1 = instantiate_link(BY_DEPTH[17], hirzebruch(0), r)
        l2 = SarkisovLink(
            "II",
            l1.target,
            hirzebruch(0),
            orbit_src=l1.orbit_src,
            orbit_tgt=l1.orbit_tgt,
            center=l1.center,
            depth=17,
        )
        w = GroupoidWord(
            (LinkLetter(l1, 1), LinkLetter(l2, 1)), hirzebruch(0), hirzebruch(0)
        )
        res = reduce_relation(w)
        assert res.stuck and not res.is_trivial
        assert len(res.residual.link_letters()) == 2

    def test_fuzz_relators_reduce(self):
        for seed in range(30):
            r = rng(seed)
            w = random_relator(r, TEMPLATES, max_len=30)
            res = reduce_relation(w)
            assert res.is_trivial and not res.stuck, f"seed {seed}"

    def test_homo_invariant_across_moves(self):
        for seed in (3, 7, 11):
            r = rng(seed)
            w = random_relator(r, TEMPLATES, max_len=24)
            base = homo_eval(w)
            seen = []
            reduce_relation(w, observer=lambda state, move: seen.append(homo_eval(state)))
            assert all(img == base for img in seen)

    def test_conjugated_concatenated_pairs(self):
        # hand-built: u (chi chi^-1) u^-1 . (psi psi^-1)
        r = rng(5)
        u = instantiate_link(BY_DEPTH[2], hirzebruch(0), r)
        chi = instantiate_link(BY_DEPTH[17], u.target, r)
        psi = instantiate_link(BY_DEPTH[3], hirzebruch(0), r)
        letters = [
            LinkLetter(u, 1),
            LinkLetter(chi, 1),
            LinkLetter(chi, -1),
            LinkLetter(u, -1),
            LinkLetter(psi, 1),
            LinkLetter(psi, -1),
        ]
        w = GroupoidWord(tuple(letters), hirzebruch(0), hirzebruch(0))
        res = reduce_relation(w)
        assert res.is_trivial


class TestTraces:
    def test_stack_heights(self):
        chi1, chi2, chi3, chi4 = four_link_relator()
        w = word([LinkLetter(c, 1) for c in (chi1, chi2, chi3, chi4)])
        traces = fiber_traces(w)
        f_key = chi1.center.key()
        g_key = chi2.center.key()
        assert traces[f_key] == [0, 1, 1, 0, 0]
        assert traces[g_key] == [0, 0, 1, 1, 0]

    def test_nonrelator_trace_ends_positive(self):
        l = instantiate_link(BY_DEPTH[3], hirzebruch(0), rng())
        w = word([LinkLetter(l, 1)])
        traces = fiber_traces(w)
        assert traces[l.center.key()] == [0, 1]


class TestReorder:
    def test_small_then_deep_swapped(self):
        r = rng(2)
        small = instantiate_link(BY_DEPTH[3], hirzebruch(0), r)
        deep = instantiate_link(BY_DEPTH[17], small.target, r)
        w = word([LinkLetter(small, 1), LinkLetter(deep, 1)])
        out, moves = reorder_by_depth(w, 16)
        depths = [l.depth for l in out.link_letters()]
        assert depths == [17, 3]
        assert len(moves) == 1
        assert out.source.key() == w.source.key()
        assert out.target.key() == w.target.key()

    def test_all_small_unchanged(self):
        r = rng(2)
        l1 = instantiate_link(BY_DEPTH[3], hirzebruch(0), r)
        l2 = instantiate_link(BY_DEPTH[2], l1.target, r)
        w = word([LinkLetter(l1, 1), LinkLetter(l2, 1)])
        out, moves = reorder_by_depth(w, 16)
        assert not moves and out.letters == w.letters

    def test_already_ordered_unchanged(self):
        r = rng(2)
        deep = instantiate_link(BY_DEPTH[17], hirzebruch(0), r)
        small = instantiate_link(BY_DEPTH[3], deep.target, r)
        w = word([LinkLetter(deep, 1), LinkLetter(small, 1)])
        out, moves = reorder_by_depth(w, 16)
        assert not moves

    def test_multiset_preserved(self):
        from cremona_kit.catalog import cb_class_key

        r = rng(8)
        letters = []
        cur = hirzebruch(0)
        for d in (3, 17, 2, 17, 1):
            link = instantiate_link(BY_DEPTH[d], cur, r)
            letters.append(LinkLetter(link, 1))
            cur = link.target
        w = word(letters)
        out, _ = reorder_by_depth(w, 16)
        depths = [l.depth for l in out.link_letters()]
        assert depths[:2] == [17, 17] and sorted(depths) == [1, 2, 3, 17, 17]
        before = sorted(
            (cb_class_key(l.link.source).family, l.depth)
            for l in w.link_letters()
            if l.depth >= 16
        )
        after = sorted(
            (cb_class_key(l.link.source).family, l.depth)
            for l in out.link_letters()
            if l.depth >= 16
        )
        assert before == after

    def test_homo_invariant(self):
        r = rng(12)
        letters = []
        cur = hirzebruch(0)
        for d in (3, 17, 2):
            link = instantiate_link(BY_DEPTH[d], cur, r)
            letters.append(LinkLetter(link, 1))
            cur = link.target
        w = word(letters)
        out, _ = reorder_by_depth(w, 16)
        assert homo_eval(out) == homo_eval(w)

    def test_relative_order_within_center(self):
        # letters at one center never pass each other
        r = rng(3)
        l1 = instantiate_link(BY_DEPTH[17], hirzebruch(0), r)
        w = word([LinkLetter(l1, 1), LinkLetter(l1, -1)])
        out, moves = reorder_by_depth(w, 16)
        assert not moves and out.letters == w.letters


class TestJson:
    def test_roundtrip(self):
        chi1, chi2, chi3, chi4 = four_link_relator()
        w = word(
            [LinkLetter(chi1, 1), LinkLetter(chi2, 1)]
        ).concat(word([LinkLetter(chi3, 1), LinkLetter(chi4, 1)]))
        back = word_from_json(word_to_json(w))
        assert back == w

    def test_marker_roundtrip(self):
        w = GroupoidWord(
            (IsoMarker(hirzebruch(0), hirzebruch(0)),), hirzebruch(0), hirzebruch(0)
        )
        assert word_from_json(word_to_json(w)) == w


def test_galois_depth_on_words():
    chi1, chi2, chi3, chi4 = four_link_relator()
    assert galois_depth([c for c in (chi1, chi2, chi3, chi4)]) == 17


class TestBigLinkWords:
    """Words made of the degree-5 bundle links (unknown target orbits)."""

    def _links(self):
        from cremona_kit.fields import poly_from_string, find_irreducible
        from cremona_kit.orbits import CONIC, orbit_from_poly
        from cremona_kit.constructions import c5_big_link

        orbit4 = orbit_from_poly(F2, poly_from_string(F2, "t^4+t+1"), CONIC)
        l17, _ = c5_big_link(orbit4, find_irreducible(F2, 17))
        l19, _ = c5_big_link(orbit4, find_irreducible(F2, 19))
        return l17, l19

    def test_pair_cancels(self):
        l17, _ = self._links()
        w = word([LinkLetter(l17, 1), LinkLetter(l17, -1)])
        assert reduce_relation(w).is_trivial

    def test_four_link_relator_reduces(self):
        l17, l19 = self._links()
        chi3, chi4 = commute_move(l17, l19)
        w = word(
            [LinkLetter(l17, 1), LinkLetter(l19, 1), LinkLetter(chi3, 1), LinkLetter(chi4, 1)]
        )
        assert w.is_relator()
        base = homo_eval(w)
        assert base.is_identity()
        drift = []
        res = reduce_relation(
            w, observer=lambda s, m: drift.append(m) if homo_eval(s) != base else None
        )
        assert res.is_trivial and not res.stuck and not drift

    def test_unknown_slots_do_not_cancel_blindly(self):
        # same center and depth but a different forward orbit: no cancel
        from cremona_kit.catalog import SarkisovLink
        from cremona_kit.orbits import GP_NO, LINE, PointOrbit
        from cremona_kit.fields import poly_from_string

        l17, _ = self._links()
        other_orbit = PointOrbit(
            F2, LINE, 17,
            poly_from_string(F2, "t^17+t^5+t^4+t^3+1"),
            general_position=GP_NO,
        )
        impostor = SarkisovLink(
            "II",
            l17.target,
            l17.source,
            orbit_src=other_orbit,
            orbit_tgt=None,
            center=l17.center,
            depth=17,
        )
        w = GroupoidWord(
            (LinkLetter(l17, 1), LinkLetter(impostor, 1)), l17.source, l17.source
        )
        res = reduce_relation(w)
        assert res.stuck and not res.is_trivial


class TestDeterministicMoveLog:
    def test_golden_move_log(self):
        # fixed relator, fixed strategy: the move log is reproducible
        r = rng(0)
        chi1 = instantiate_link(BY_DEPTH[3], hirzebruch(0), r)
        chi2 = instantiate_link(BY_DEPTH[17], chi1.target, r)
        chi3, chi4 = commute_move(chi1, chi2)
        w = word([LinkLetter(c, 1) for c in (chi1, chi2, chi3, chi4)])
        logs = [tuple(reduce_relation(w).moves) for _ in range(3)]
        assert logs[0] == logs[1] == logs[2]
        assert [m[0] for m in logs[0]] == [
            "commute", "cancel", "drop-marker", "cancel", "drop-marker",
        ]

    def test_fiber_order_is_canonical(self):
        # the reducer processes the lexicographically least center first:
        # with centers t^3+t+1 (key "1,1,0,1") and the degree-17 one, the
        # first commute moves the degree-17 letter only if its key is least
        r = rng(0)
        chi1 = instantiate_link(BY_DEPTH[3], hirzebruch(0), r)
        chi2 = instantiate_link(BY_DEPTH[17], chi1.target, r)
        chi3, chi4 = commute_move(chi1, chi2)
        w = word([LinkLetter(c, 1) for c in (chi1, chi2, chi3, chi4)])
        res = reduce_relation(w)
        keys = sorted([chi1.center.key(), chi2.center.key()])
        # the innermost pair at the least key is reduced first; afterwards
        # the other pair is adjacent and cancels without commuting
        commutes = [m for m in res.moves if m[0] == "commute"]
        assert len(commutes) == 1
