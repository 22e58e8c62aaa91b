import random

import pytest
from hypothesis import given, settings, strategies as st

from cremona_kit import errors
from cremona_kit.fields import PrimeField, QQ, find_irreducible, poly_from_string
from cremona_kit.orbits import CONIC, SPLIT, orbit_from_poly
from cremona_kit.catalog import (
    ConicBundleClassKey,
    HIRZEBRUCH_CLASS,
    cb_class_key,
    conic_bundle5,
    conic_bundle6,
    hirzebruch,
)
from cremona_kit.rewrite import (
    GroupoidWord,
    LinkLetter,
    make_center_pool,
    make_link_template,
    instantiate_link,
    word,
)
from cremona_kit.freeprod import (
    FreeProductElement,
    I0,
    IDENTITY,
    RefinedTarget,
    fp_normalize,
    homo_eval,
    homo_refined_eval,
    witness_free_factors,
)

F2 = PrimeField(2)


def fp_normalize_bruteforce(raw):
    """Oracle for fp_normalize: apply single rewriting steps to a fixpoint."""
    word = [(f, frozenset(b)) for f, b in raw]
    changed = True
    while changed:
        changed = False
        for i, (f, b) in enumerate(word):
            if not b:
                del word[i]
                changed = True
                break
            if i + 1 < len(word) and word[i + 1][0] == f:
                word[i : i + 2] = [(f, b ^ word[i + 1][1])]
                changed = True
                break
    return FreeProductElement(tuple(word))


C = ConicBundleClassKey("dp5", "c")
D = ConicBundleClassKey("dp6", "d")
E = HIRZEBRUCH_CLASS


class TestNormalize:
    def test_involution_cancels(self):
        assert fp_normalize([(C, {17}), (C, {17})]).is_identity()

    def test_distinct_factors_never_merge(self):
        elem = fp_normalize([(C, {17}), (D, {19})])
        assert len(elem) == 2 and elem.factors() == [C, D]

    def test_merge_then_delete(self):
        raw = [(C, {17}), (C, {19}), (D, {17}), (D, {17})]
        elem = fp_normalize(raw)
        assert elem.word == ((C, frozenset({17, 19})),)
        assert elem == fp_normalize_bruteforce(raw)

    def test_idempotent(self):
        raw = [(C, {17}), (E, {16, 18}), (E, {16}), (C, {17})]
        once = fp_normalize(raw)
        assert fp_normalize(once.word) == once

    def test_multiplication(self):
        a = fp_normalize([(C, {17})])
        b = fp_normalize([(C, {17}), (D, {19})])
        assert (a * b).word == ((D, frozenset({19})),)

    def test_identity_neutral(self):
        a = fp_normalize([(C, {17})])
        assert a * IDENTITY == a and IDENTITY * a == a


@settings(max_examples=120, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from([C, D, E]),
            st.sets(st.integers(min_value=16, max_value=20), max_size=3),
        ),
        max_size=8,
    )
)
def test_normalize_matches_bruteforce(raw):
    fast = fp_normalize(raw)
    slow = fp_normalize_bruteforce(raw)
    assert fast == slow
    # alternating and no empty letters
    for i, (f, bits) in enumerate(fast.word):
        assert bits
        if i:
            assert fast.word[i - 1][0] != f


def hirz_word(depths, seed=0):
    rng = random.Random(seed)
    pool = make_center_pool(F2, depths)
    templates = [make_link_template(F2, p) for p in pool]
    letters = []
    cur = hirzebruch(0)
    for t in templates:
        link = instantiate_link(t, cur, rng)
        letters.append(LinkLetter(link, 1))
        cur = link.target
    return word(letters)


class TestHomoEval:
    def test_single_deep_letter(self):
        w = hirz_word([17])
        img = homo_eval(w)
        assert img.word == ((E, frozenset({17})),)

    def test_shallow_letters_vanish(self):
        w = hirz_word([1, 2, 3, 4])
        assert homo_eval(w).is_identity()

    def test_exponent_irrelevant(self):
        w = hirz_word([17])
        flipped = GroupoidWord(
            tuple(l.inverse() for l in reversed(w.letters)), w.target, w.source
        )
        assert homo_eval(w) == homo_eval(flipped)

    def test_threshold_configurable(self):
        w = hirz_word([10])
        assert homo_eval(w).is_identity()
        assert not homo_eval(w, delta=10).is_identity()

    def test_functorial_on_concatenation(self):
        w1 = hirz_word([17, 3], seed=1)
        # transport w2 to start where w1 ends
        rng = random.Random(5)
        pool = make_center_pool(F2, [19, 2])
        templates = [make_link_template(F2, p) for p in pool]
        letters = []
        cur = w1.target
        for t in templates:
            link = instantiate_link(t, cur, rng)
            letters.append(LinkLetter(link, 1))
            cur = link.target
        w2 = word(letters)
        assert homo_eval(w1.concat(w2)) == homo_eval(w1) * homo_eval(w2)

    def test_chain_break_raises(self):
        w1 = hirz_word([17])
        broken = GroupoidWord(w1.letters, hirzebruch(5), hirzebruch(5))
        with pytest.raises(errors.ChainBreak):
            homo_eval(broken)

    def test_iso_markers_vanish(self):
        from cremona_kit.rewrite import IsoMarker

        w = GroupoidWord(
            (IsoMarker(hirzebruch(0), hirzebruch(0)),), hirzebruch(0), hirzebruch(0)
        )
        assert homo_eval(w).is_identity()

    def test_mixed_fields_refused(self):
        # depth-17 letters over F2 and over F3 both map to the Hirzebruch
        # factor, which does not name a field: they used to cancel to 1
        F3 = PrimeField(3)
        links = [
            instantiate_link(
                make_link_template(F, find_irreducible(F, 17)), hirzebruch(0), random.Random(0)
            )
            for F in (F2, F3)
        ]
        w = word([LinkLetter(links[0], 1), LinkLetter(links[1], -1)])
        with pytest.raises(errors.UnresolvedClass):
            homo_eval(w)
        with pytest.raises(errors.UnresolvedClass):
            homo_refined_eval(w)

    def test_class_key_depends_on_field(self):
        # one orbit polynomial over Q and over F2: the model keys agree, the
        # classes do not, whichever field is evaluated first
        from cremona_kit.constructions import c5_big_link

        factors = {}
        for F, rpoly in (
            (QQ, poly_from_string(QQ, "t^17+t^3+1")),
            (F2, find_irreducible(F2, 17)),
        ):
            orbit4 = orbit_from_poly(F, poly_from_string(F, "t^4+t+1"), CONIC)
            link, _ = c5_big_link(orbit4, rpoly)
            assert link.depth == 17
            ((factors[F], _),) = homo_eval(word([LinkLetter(link, 1)])).word
        assert factors[QQ].class_id == "conic:4:1,1,0,0,1"
        assert factors[F2].class_id.startswith("pgl3[q=2]:")


def cb5_letter(depth, model=None):
    """A type II letter of the given depth from a CB5 model to itself (by
    default the model on the F2 conic-form quartic t^4+t+1)."""
    if model is None:
        model = conic_bundle5(orbit_from_poly(F2, poly_from_string(F2, "t^4+t+1"), CONIC))
    from cremona_kit.catalog import SarkisovLink, center_from_poly
    from cremona_kit.orbits import GP_NO, LINE, PointOrbit

    field = model.orbit.field
    poly = find_irreducible(field, depth)
    link = SarkisovLink(
        "II",
        model,
        model,
        orbit_src=PointOrbit(field, LINE, depth, poly, general_position=GP_NO),
        orbit_tgt=None,
        center=center_from_poly(poly),
        depth=depth,
    )
    return LinkLetter(link, 1)


def test_f7_conic_quartic_and_split_pair_differ():
    # Frobenius acts on the conic quartic as a 4-cycle and on the split pair
    # as two 2-cycles: two PGL_3(F_7)-classes, two keys, two free factors
    from cremona_kit.orbits import pgl3_classify

    F7 = PrimeField(7)
    quad = find_irreducible(F7, 2)
    conic = orbit_from_poly(F7, find_irreducible(F7, 4), CONIC)
    split = orbit_from_poly(F7, quad, SPLIT, second_poly=quad)
    models = [conic_bundle5(conic), conic_bundle5(split)]
    assert cb_class_key(models[0]) != cb_class_key(models[1])
    factors = [homo_eval(word([cb5_letter(17, X)])).word[0][0] for X in models]
    assert factors[0] != factors[1]
    assert len(pgl3_classify([conic, split], F7)) == 2


class TestRefined:
    def test_dp5_depth17_lands_at_n8(self):
        w = word([cb5_letter(17)])
        elem = homo_refined_eval(w, F2)
        assert len(elem) == 1
        factor, bits = elem.word[0]
        assert factor[0] == "J5"
        assert bits == frozenset({("n", 8)})

    def test_hirzebruch_depth16_in_i0(self):
        w = hirz_word([16])
        elem = homo_refined_eval(w)
        assert elem.word == ((I0, frozenset({16})),)

    def test_identity_word(self):
        w = GroupoidWord((), hirzebruch(0), hirzebruch(0))
        assert homo_refined_eval(w).is_identity()

    def test_even_depth_flagged_aux(self):
        w = word([cb5_letter(18)])
        elem = homo_refined_eval(w, F2)
        (factor, bits), = elem.word
        assert bits == frozenset({("aux", 18)})
        view = RefinedTarget.from_element(elem)
        assert view.aux and not view.j5_factors

    def test_aux_bits_cancel_like_n_bits(self):
        cid = ("J5", "c")
        for bit in (("aux", 18), ("n", 8)):
            elem = fp_normalize([(cid, {bit}), (I0, {16}), (cid, {bit})])
            view = RefinedTarget.from_element(elem)
            assert view.hirzebruch_factor == {16}
            assert not view.aux.get(cid) and not view.j5_factors.get("c")

    def test_view(self):
        w = word([cb5_letter(17)])
        view = RefinedTarget.from_element(homo_refined_eval(w, F2))
        (cid, bits), = view.j5_factors.items()
        assert bits == frozenset({8})


class TestFreeFactors:
    def test_three_factors_no_collapse(self):
        a = fp_normalize([(C, {17})])
        b = fp_normalize([(D, {17})])
        c = fp_normalize([(E, {17})])
        assert witness_free_factors([a, b, c])

    def test_same_factor_collapses(self):
        a = fp_normalize([(C, {17})])
        b = fp_normalize([(C, {17})])
        assert not witness_free_factors([a, b])

    def test_json(self):
        elem = fp_normalize([(E, {17})])
        out = elem.to_json()
        assert out == {"word": [{"factor": {"family": "hirzebruch"}, "bits": [17]}]}

    def test_json_roundtrip(self):
        for elem in (
            fp_normalize([(C, {17, 19}), (E, {16})]),
            fp_normalize([(I0, {16}), (("J5", "cid"), {("n", 8), ("aux", 18)})]),
            IDENTITY,
        ):
            assert FreeProductElement.from_json(elem.to_json()) == elem


def test_chain_break_wins_over_class_errors():
    # the first letter's class cannot be named over F3, and the second
    # letter does not chain onto it: the word is refused for its chain
    other = conic_bundle5(orbit_from_poly(F2, poly_from_string(F2, "t^4+t^3+1"), CONIC))
    first, second = cb5_letter(17), cb5_letter(17, other)
    F3 = PrimeField(3)
    broken = GroupoidWord((first, second), first.src, other)
    with pytest.raises(errors.ChainBreak, match="position 1"):
        homo_refined_eval(broken, field=F3)
    with pytest.raises(errors.UnresolvedClass):
        homo_refined_eval(GroupoidWord((first,), first.src, first.src), field=F3)
