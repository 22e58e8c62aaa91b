"""The relation reducer against a reference copy of its rescanning form.

`reference_reduce` is the reducer as it was before it kept per-letter
center keys and a window of changed adjacent pairs: it absorbs markers
with full passes, rescans the word for an adjacent cancellation from the
start after every move, and regroups every letter by fiber for each pair
search.  Both must produce the same moves, observed states, stuck flag,
residual and traces on every word.
"""

import random

import pytest

from cremona_kit.catalog import SarkisovLink, hirzebruch
from cremona_kit.constructions import c5_big_link
from cremona_kit.errors import ChainBreak, NotARelator
from cremona_kit.fields import PrimeField, find_irreducible, poly_from_string
from cremona_kit.orbits import CONIC, GP_NO, LINE, PointOrbit, orbit_from_poly
from cremona_kit.rewrite import (
    GroupoidWord,
    IsoMarker,
    LinkLetter,
    _cancels,
    _reanchor,
    _swap_adjacent,
    instantiate_link,
    make_center_pool,
    make_link_template,
    random_relator,
    reduce_relation,
    word_validate,
)

F2 = PrimeField(2)
TEMPLATES = [make_link_template(F2, p) for p in make_center_pool(F2, [1, 2, 3, 5, 17, 19])]


# ---------------------------------------------------------------------------
# reference: the rescanning reducer


def reference_traces(w):
    stacks = {}
    heights = {}
    seqs = {}
    letters = list(w.letters)
    keys = sorted(
        {
            l.center_key()
            for l in letters
            if isinstance(l, LinkLetter) and l.center_key() is not None
        }
    )
    for k in keys:
        stacks[k] = []
        heights[k] = 0
        seqs[k] = [0]
    for letter in letters:
        for k in keys:
            if isinstance(letter, LinkLetter) and letter.center_key() == k:
                st = stacks[k]
                if st and _cancels(st[-1], letter):
                    st.pop()
                    heights[k] -= 1
                else:
                    st.append(letter)
                    heights[k] += 1
            seqs[k].append(heights[k])
    return seqs


def _reference_log(moves, observer, letters, endpoints, move):
    moves.append(move)
    if observer is not None:
        observer(GroupoidWord(tuple(letters), *endpoints), move)


def _reference_absorb_markers(letters, moves, observer, endpoints):
    changed = True
    while changed:
        changed = False
        i = 0
        while i < len(letters):
            cur = letters[i]
            if isinstance(cur, IsoMarker):
                if cur.src.key() == cur.tgt.key():
                    del letters[i]
                    _reference_log(moves, observer, letters, endpoints, ("drop-marker", i))
                    changed = True
                    continue
                if i + 1 < len(letters):
                    nxt = letters[i + 1]
                    if isinstance(nxt, IsoMarker):
                        letters[i : i + 2] = [IsoMarker(cur.src, nxt.tgt)]
                    else:
                        letters[i : i + 2] = [_reanchor(nxt, cur.src, nxt.tgt)]
                    _reference_log(moves, observer, letters, endpoints, ("fuse-marker", i))
                    changed = True
                    continue
                if i > 0:
                    prev = letters[i - 1]
                    if isinstance(prev, LinkLetter):
                        letters[i - 1 : i + 1] = [_reanchor(prev, prev.src, cur.tgt)]
                        _reference_log(
                            moves, observer, letters, endpoints, ("fuse-marker", i - 1)
                        )
                        changed = True
                        continue
            i += 1


def _reference_find_reducible_pair(letters):
    fibers = {}
    for pos, letter in enumerate(letters):
        if isinstance(letter, LinkLetter) and letter.center_key() is not None:
            fibers.setdefault(letter.center_key(), []).append(pos)
    for key in sorted(fibers):
        stack = []
        for pos in fibers[key]:
            if stack and _cancels(letters[stack[-1]], letters[pos]):
                return stack[-1], pos
            stack.append(pos)
    return None


def reference_reduce(w, observer=None, max_steps=None):
    """(residual, moves, traces, stuck) of the rescanning reducer."""
    if not w.is_relator():
        raise NotARelator(f"endpoints differ: {w.source} vs {w.target}")
    verdict = word_validate(w)
    if not verdict and verdict.reason == "chain":
        raise ChainBreak(f"letters do not chain at position {verdict.position}")
    traces = reference_traces(w)
    endpoints = (w.source, w.target)
    letters = list(w.letters)
    moves = []
    budget = max_steps if max_steps is not None else 50 * len(letters) ** 2 + 100
    stuck = False

    while True:
        if len(moves) > budget:
            stuck = True
            break
        _reference_absorb_markers(letters, moves, observer, endpoints)
        cancelled = False
        for i in range(len(letters) - 1):
            if _cancels(letters[i], letters[i + 1]):
                marker = IsoMarker(letters[i].src, letters[i + 1].tgt)
                letters[i : i + 2] = [marker]
                _reference_log(moves, observer, letters, endpoints, ("cancel", i))
                cancelled = True
                break
        if cancelled:
            continue
        pair = _reference_find_reducible_pair(letters)
        if pair is None:
            break
        i, j = pair
        blocked = False
        while i + 1 < j:
            nxt = letters[i + 1]
            if not (
                isinstance(nxt, LinkLetter)
                and nxt.is_cb2()
                and nxt.center_key() is not None
                and nxt.center_key() != letters[i].center_key()
            ):
                blocked = True
                break
            b2, a2 = _swap_adjacent(letters[i], letters[i + 1])
            letters[i : i + 2] = [b2, a2]
            _reference_log(moves, observer, letters, endpoints, ("commute", i))
            i += 1
        if blocked:
            stuck = True
            break
        marker = IsoMarker(letters[i].src, letters[j].tgt)
        letters[i : j + 1] = [marker]
        _reference_log(moves, observer, letters, endpoints, ("cancel", i))

    _reference_absorb_markers(letters, moves, observer, endpoints)
    residual = GroupoidWord(tuple(letters), *endpoints)
    if residual.link_letters():
        stuck = True
    return residual, moves, traces, stuck


# ---------------------------------------------------------------------------
# words


def concatenated(seed, count):
    """count seeded relators joined at their shared anchor (~12 letters each)."""
    rng = random.Random(seed)
    letters = []
    for _ in range(count):
        piece = random_relator(rng, TEMPLATES, max_len=40)
        letters.extend(piece.letters)
    return GroupoidWord(tuple(letters), piece.source, piece.target)


def folded(seed, length):
    """u . u^-1 for a seeded chain u: trivial by free cancellation alone."""
    rng = random.Random(seed)
    cur = hirzebruch(0)
    chain = []
    for _ in range(length):
        link = instantiate_link(rng.choice(TEMPLATES), cur, rng)
        chain.append(LinkLetter(link, 1))
        cur = link.target
    letters = chain + [l.inverse() for l in reversed(chain)]
    return GroupoidWord(tuple(letters), hirzebruch(0), hirzebruch(0))


def with_markers(seed):
    """A relator with isomorphism markers spliced in: identity markers, and
    markers that re-anchor the next letter at another model."""
    rng = random.Random(seed)
    w = random_relator(rng, TEMPLATES, max_len=40)
    letters = list(w.letters)
    for _ in range(rng.randrange(1, 4)):
        k = rng.randrange(len(letters))
        cur = letters[k]
        if isinstance(cur, IsoMarker) or rng.random() < 0.5:
            letters.insert(k, IsoMarker(cur.src, cur.src))
        else:
            detour = hirzebruch(rng.randrange(0, 6))
            letters[k : k + 1] = [IsoMarker(cur.src, detour), _reanchor(cur, detour, cur.tgt)]
    if rng.random() < 0.5:
        letters.append(IsoMarker(w.target, w.target))
    return GroupoidWord(tuple(letters), w.source, w.target)


def with_blocker(seed):
    """A relator with a type IV loop inserted: pairs around it cannot be
    brought together, so the reduction comes back stuck."""
    rng = random.Random(seed)
    w = random_relator(rng, TEMPLATES, max_len=40)
    letters = list(w.letters)
    k = rng.randrange(len(letters))
    at = letters[k].tgt
    letters.insert(k + 1, LinkLetter(SarkisovLink("IV", at, at, depth=0), 1))
    return GroupoidWord(tuple(letters), w.source, w.target)


def same_center_stuck():
    """Two deep letters at one center that are not mutually inverse."""
    by_depth = {t["depth"]: t for t in TEMPLATES}
    l1 = instantiate_link(by_depth[17], hirzebruch(0), random.Random(1))
    l2 = SarkisovLink(
        "II",
        l1.target,
        hirzebruch(0),
        orbit_src=l1.orbit_src,
        orbit_tgt=l1.orbit_tgt,
        center=l1.center,
        depth=17,
    )
    return GroupoidWord((LinkLetter(l1, 1), LinkLetter(l2, 1)), hirzebruch(0), hirzebruch(0))


def impostor_stuck():
    """A degree-5 bundle link followed by a letter at its center and depth
    whose forward orbit differs: the unknown orbit slot must not cancel."""
    orbit4 = orbit_from_poly(F2, poly_from_string(F2, "t^4+t+1"), CONIC)
    l17, _ = c5_big_link(orbit4, find_irreducible(F2, 17))
    other = PointOrbit(
        F2, LINE, 17, poly_from_string(F2, "t^17+t^5+t^4+t^3+1"), general_position=GP_NO
    )
    impostor = SarkisovLink(
        "II", l17.target, l17.source, orbit_src=other, orbit_tgt=None,
        center=l17.center, depth=17,
    )
    return GroupoidWord((LinkLetter(l17, 1), LinkLetter(impostor, 1)), l17.source, l17.source)


def assert_same(w, observe=False, max_steps=None):
    seen, ref_seen = [], []
    result = reduce_relation(
        w,
        observer=(lambda s, m: seen.append((s.letters, m))) if observe else None,
        max_steps=max_steps,
    )
    residual, moves, traces, stuck = reference_reduce(
        w,
        observer=(lambda s, m: ref_seen.append((s.letters, m))) if observe else None,
        max_steps=max_steps,
    )
    assert result.moves == moves
    assert result.stuck == stuck
    assert result.residual == residual
    assert result.traces == traces
    assert seen == ref_seen
    return result


# ---------------------------------------------------------------------------
# tests


def test_fuzz_seeds_match_reference():
    for seed in range(1000):
        w = random_relator(random.Random(seed), TEMPLATES, max_len=40)
        assert_same(w, observe=seed % 10 == 0)


def test_folded_words_match_reference():
    for seed in range(40):
        assert_same(folded(seed, 1 + seed * 3), observe=seed < 10)


def test_marker_words_match_reference():
    for seed in range(200):
        assert_same(with_markers(seed), observe=True)


def test_stuck_words_match_reference():
    stuck = 0
    for seed in range(200):
        stuck += assert_same(with_blocker(seed), observe=seed < 20).stuck
    assert stuck > 100
    assert assert_same(same_center_stuck(), observe=True).stuck
    assert assert_same(impostor_stuck(), observe=True).stuck


@pytest.mark.parametrize("max_steps", [-1, 0, 1, 2, 3, 7, 20])
def test_step_budget_matches_reference(max_steps):
    for seed in range(30):
        w = with_markers(seed) if seed % 2 else concatenated(seed, 3)
        assert_same(w, observe=True, max_steps=max_steps)


@pytest.mark.parametrize("count,seed", [(100, 1), (200, 2), (400, 3)])
def test_long_words_match_reference(count, seed):
    w = concatenated(seed, count)
    assert 1000 <= len(w) <= 5500
    assert assert_same(w).is_trivial
