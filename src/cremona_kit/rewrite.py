"""Groupoid words over Sarkisov links and their rewriting.

A word is a chain of oriented letters: links with an exponent, plus
isomorphism markers.  Words are stored in application order (the first
letter is applied first).  Three rewriting moves are implemented, each a
consequence of the trivial relations or of the four-link relation between
type II conic-bundle links with disjoint centers:

  absorb   fuse an isomorphism marker into an adjacent letter (or marker)
  cancel   erase an adjacent pair that composes to an isomorphism
  commute  swap two adjacent type II conic-bundle letters with distinct
           fiber centers, transporting the data of each across the other

The reducer drives these by fiber: per fiber center, letters stack-match
into innermost pairs (the N(F, i) bookkeeping); the innermost pair is
commuted together and cancelled, largest plateaus first.  Anything the
moves cannot erase is returned as a stuck residual for inspection, never
silently dropped.

Cost of a reduction: one pass over the word computes every letter's
center key and the fiber traces.  After that a move costs work near the
letters it touches: only the marker it leaves is absorbed, and the next
adjacent-cancel scan covers only the pairs moves have changed since the
last scan.  The pair search that starts a commutation chain reads the
center keys of the whole word, once per chain.
"""

from dataclasses import dataclass
import random

from .errors import (
    MALFORMED_JSON,
    BadInput,
    ChainBreak,
    IncompatibleFields,
    NotARelator,
    NotTypeIICB,
    SharedFiber,
    UndecidableCenters,
)
from .catalog import (
    CB5,
    CB6,
    HIRZEBRUCH,
    FiberCenter,
    MoriFiberSpace,
    SarkisovLink,
    center_from_poly,
    hirzebruch,
    link_from_json,
    link_to_json,
    link_validate,
    mfs_from_json,
    mfs_to_json,
)
from .orbits import CONIC, LINE, PointOrbit


# ---------------------------------------------------------------------------
# letters and words


@dataclass(frozen=True)
class LinkLetter:
    link: SarkisovLink
    exp: int  # +1 or -1

    def __post_init__(self):
        if self.exp not in (1, -1):
            raise BadInput("letter exponent must be +1 or -1")

    @property
    def src(self):
        return self.link.source if self.exp == 1 else self.link.target

    @property
    def tgt(self):
        return self.link.target if self.exp == 1 else self.link.source

    def fwd_orbit_key(self):
        o = self.link.orbit_src if self.exp == 1 else self.link.orbit_tgt
        return o.key() if o else None

    def bwd_orbit_key(self):
        o = self.link.orbit_tgt if self.exp == 1 else self.link.orbit_src
        return o.key() if o else None

    def center_key(self):
        return self.link.center.key() if self.link.center else None

    @property
    def depth(self):
        return self.link.depth

    def inverse(self):
        return LinkLetter(self.link, -self.exp)

    def is_cb2(self):
        return self.link.is_cb_type2()

    def __repr__(self):
        arrow = "=>" if self.exp == 1 else "<="
        return f"[{self.link.link_type}{arrow}d{self.depth}@{self.center_key()}]"


@dataclass(frozen=True)
class IsoMarker:
    src: MoriFiberSpace
    tgt: MoriFiberSpace

    def inverse(self):
        return IsoMarker(self.tgt, self.src)

    def __repr__(self):
        return f"[iso {self.src}->{self.tgt}]"


@dataclass(frozen=True)
class GroupoidWord:
    letters: tuple
    source: MoriFiberSpace
    target: MoriFiberSpace

    def __len__(self):
        return len(self.letters)

    def is_relator(self):
        return self.source.key() == self.target.key()

    def link_letters(self):
        return [l for l in self.letters if isinstance(l, LinkLetter)]

    def concat(self, other):
        if self.target.key() != other.source.key():
            raise ChainBreak(
                f"cannot concatenate: {self.target} then {other.source}"
            )
        return GroupoidWord(self.letters + other.letters, self.source, other.target)

    def inverse(self):
        return GroupoidWord(
            tuple(l.inverse() for l in reversed(self.letters)),
            self.target,
            self.source,
        )

    def __repr__(self):
        return f"Word({self.source}->{self.target}, {list(self.letters)})"


def word(letters, source=None, target=None):
    letters = tuple(letters)
    if source is None:
        if not letters:
            raise BadInput("empty word needs explicit endpoints")
        source = letters[0].src
    if target is None:
        target = letters[-1].tgt if letters else source
    return GroupoidWord(letters, source, target)


@dataclass
class WordVerdict:
    ok: bool
    position: int = None
    reason: str = None

    def __bool__(self):
        return self.ok


def _letter_field(letter):
    """The field of a link letter's center polynomial, else of its source
    orbit; None when the link carries neither."""
    center, orbit = letter.link.center, letter.link.orbit_src
    if center is not None and center.poly is not None:
        return center.poly.field
    return orbit.field if orbit is not None else None


def word_validate(w):
    """Ok, or the first position where adjacency fails ("chain"), a link
    fails link_validate ("invalid-link") or a link letter lives over another
    field than the link letters before it ("field")."""
    prev, field = w.source, None
    for i, letter in enumerate(w.letters):
        if letter.src.key() != prev.key():
            return WordVerdict(False, i, "chain")
        if isinstance(letter, LinkLetter):
            if not link_validate(letter.link):
                return WordVerdict(False, i, "invalid-link")
            k = _letter_field(letter)
            if field is None:
                field = k
            elif k is not None and k != field:
                return WordVerdict(False, i, "field")
        prev = letter.tgt
    if prev.key() != w.target.key():
        return WordVerdict(False, len(w.letters), "chain")
    return WordVerdict(True)


def word_to_json(w):
    letters = []
    for l in w.letters:
        if isinstance(l, LinkLetter):
            letters.append({"link": link_to_json(l.link), "exp": l.exp})
        else:
            letters.append({"iso": {"from": mfs_to_json(l.src), "to": mfs_to_json(l.tgt)}})
    return {
        "endpoints": [mfs_to_json(w.source), mfs_to_json(w.target)],
        "letters": letters,
    }


def word_from_json(obj):
    if not (
        isinstance(obj, dict)
        and isinstance(obj.get("letters"), list)
        and isinstance(obj.get("endpoints"), list)
        and len(obj["endpoints"]) == 2
    ):
        raise BadInput("word JSON needs a 'letters' list and two 'endpoints'")
    letters = []
    try:
        for item in obj["letters"]:
            if "link" in item:
                letters.append(LinkLetter(link_from_json(item["link"]), item.get("exp", 1)))
            else:
                iso = item["iso"]
                letters.append(IsoMarker(mfs_from_json(iso["from"]), mfs_from_json(iso["to"])))
    except MALFORMED_JSON as exc:
        raise BadInput(f"malformed word letter: {exc!r}")
    src, tgt = (mfs_from_json(x) for x in obj["endpoints"])
    return GroupoidWord(tuple(letters), src, tgt)


# ---------------------------------------------------------------------------
# the four-link relation


def _middle_model(P, Q, R):
    """Model for the intermediate surface after swapping two links P->Q->R.

    For Hirzebruch chains the parallelogram rule |n_P + n_R - n_Q| keeps
    index deltas within each link's depth; other conic-bundle models carry
    no index, so the swapped path starts from P's model unchanged.
    """
    if all(m.kind == HIRZEBRUCH for m in (P, Q, R)):
        return hirzebruch(abs(P.n + R.n - Q.n))
    return P


def _reanchor(letter, new_src, new_tgt):
    """Same underlying link data with endpoints replaced (oriented)."""
    link = letter.link
    if letter.exp == 1:
        src, tgt = new_src, new_tgt
    else:
        src, tgt = new_tgt, new_src
    moved = SarkisovLink(
        link.link_type,
        src,
        tgt,
        orbit_src=link.orbit_src,
        orbit_tgt=link.orbit_tgt,
        center=link.center,
        depth=link.depth,
        avoids_singular_fibers=link.avoids_singular_fibers,
    )
    return LinkLetter(moved, letter.exp)


def commute_move(chi1, chi2):
    """Links chi3, chi4 with chi4 chi3 chi2 chi1 = id (disjoint centers).

    chi3 carries chi1's depth and fiber center transported through chi2;
    chi4 carries chi2's.  Both outputs pass link validation.
    """
    for chi in (chi1, chi2):
        if not chi.is_cb_type2():
            raise NotTypeIICB(f"{chi} is not a type II conic-bundle link")
    if chi2.source.key() != chi1.target.key():
        raise ChainBreak(f"{chi2} does not compose after {chi1}")
    if chi1.center is None or chi2.center is None:
        raise UndecidableCenters("commute_move needs fiber centers on both links")
    if chi1.center.same_fiber(chi2.center):
        raise SharedFiber(f"both links are centered at {chi1.center.key()}")
    X0, X1, X2 = chi1.source, chi1.target, chi2.target
    X3 = _middle_model(X0, X1, X2)
    chi3 = SarkisovLink(
        "II",
        X2,
        X3,
        orbit_src=chi1.orbit_tgt,
        orbit_tgt=chi1.orbit_src,
        center=chi1.center,
        depth=chi1.depth,
        avoids_singular_fibers=chi1.avoids_singular_fibers,
    )
    chi4 = SarkisovLink(
        "II",
        X3,
        X0,
        orbit_src=chi2.orbit_tgt,
        orbit_tgt=chi2.orbit_src,
        center=chi2.center,
        depth=chi2.depth,
        avoids_singular_fibers=chi2.avoids_singular_fibers,
    )
    assert link_validate(chi3) and link_validate(chi4)
    return chi3, chi4


def _swap_adjacent(a, b):
    """Swap oriented letters a: P->Q, b: Q->R into b': P->S, a': S->R."""
    if not (isinstance(a, LinkLetter) and isinstance(b, LinkLetter)):
        raise BadInput("can only swap link letters")
    if not (a.is_cb2() and b.is_cb2()):
        raise NotTypeIICB("commutation applies to type II conic-bundle letters")
    ca, cb = a.center_key(), b.center_key()
    if ca is None or cb is None:
        raise UndecidableCenters("letters lack fiber centers")
    if ca == cb:
        raise SharedFiber(f"letters share the fiber {ca}")
    P, Q, R = a.src, a.tgt, b.tgt
    S = _middle_model(P, Q, R)
    return _reanchor(b, P, S), _reanchor(a, S, R)


# ---------------------------------------------------------------------------
# reduction


def _cancels(a, b):
    """Does the adjacent pair (a then b) compose to an isomorphism?

    Exactly inverse letters always cancel.  Otherwise both letters must be
    type II conic-bundle links at the same fiber center with the same
    depth, and the blown-up orbits must match crosswise.  An unknown orbit
    slot (no coordinates) is accepted only when the opposite cross-pair
    matches concretely: blowing up a known orbit and contracting the fibers
    through it determines the link up to an isomorphism of the target, so
    one concrete match pins the composite.
    """
    if not (isinstance(a, LinkLetter) and isinstance(b, LinkLetter)):
        return False
    if a.exp == -b.exp and a.link == b.link:
        return True
    # cheapest tests first: most pairs differ in center or depth
    center = a.center_key()
    if center is None or center != b.center_key() or a.depth != b.depth:
        return False
    if not (a.is_cb2() and b.is_cb2()):
        return False
    fa, ba = a.fwd_orbit_key(), a.bwd_orbit_key()
    fb, bb = b.fwd_orbit_key(), b.bwd_orbit_key()

    def cross(x, y):
        if x is None and y is None:
            return "open"
        if x is not None and y is not None and x == y:
            return "match"
        return "fail"

    first, second = cross(fb, ba), cross(bb, fa)
    if "fail" in (first, second):
        return False
    return "match" in (first, second)


@dataclass
class ReductionResult:
    residual: GroupoidWord
    moves: list
    traces: dict  # fiber center key -> N(F, i) sequence over the input word
    stuck: bool

    @property
    def is_trivial(self):
        return not self.residual.letters

    def move_log(self):
        return [{"move": m[0], "position": m[1]} for m in self.moves]


def _center_key(letter):
    return letter.center_key() if isinstance(letter, LinkLetter) else None


def fiber_traces(w):
    """Per-fiber N(F, i) sequences over the word (stack heights)."""
    centers = [_center_key(l) for l in w.letters]
    keys = sorted({k for k in centers if k is not None})
    stacks = {k: [] for k in keys}
    seqs = {k: [0] for k in keys}
    for letter, center in zip(w.letters, centers):
        if center is not None:
            st = stacks[center]
            if st and _cancels(st[-1], letter):
                st.pop()
            else:
                st.append(letter)
        for k in keys:
            seqs[k].append(len(stacks[k]))
    return seqs


class _Reduction:
    """The word under reduction, its letters' fiber center keys and the
    move log.  Every move goes through apply(), which also narrows the
    window of adjacent pairs that may have started to cancel."""

    def __init__(self, w, observer):
        self.letters = list(w.letters)
        self.centers = [_center_key(l) for l in self.letters]
        self.endpoints = (w.source, w.target)
        self.observer = observer
        self.moves = []
        # Adjacent pairs (k, k+1) with k outside [lo, hi) do not cancel.
        # _cancels is a pure function of two frozen letters, so only pairs
        # a move touches can change.
        self.lo, self.hi = 0, len(self.letters)

    def apply(self, kind, i, stop, new):
        """Replace letters[i:stop] by new and log the move at position i."""
        self.letters[i:stop] = new
        self.centers[i:stop] = [_center_key(l) for l in new]
        self.lo = min(self.lo, max(i - 1, 0))
        self.hi = i + len(new) + max(self.hi - stop, 0)
        move = (kind, i)
        self.moves.append(move)
        if self.observer is not None:
            self.observer(GroupoidWord(tuple(self.letters), *self.endpoints), move)

    def absorb(self, i):
        """Fuse the marker at i into a neighbour (trivial relations
        alpha*beta = gamma); False when it has to stay."""
        letters = self.letters
        cur = letters[i]
        if cur.src.key() == cur.tgt.key():
            self.apply("drop-marker", i, i + 1, ())
        elif i + 1 < len(letters):
            nxt = letters[i + 1]
            if isinstance(nxt, IsoMarker):
                fused = IsoMarker(cur.src, nxt.tgt)
            else:
                fused = _reanchor(nxt, cur.src, nxt.tgt)
            self.apply("fuse-marker", i, i + 2, (fused,))
        elif i > 0 and isinstance(letters[i - 1], LinkLetter):
            prev = letters[i - 1]
            self.apply("fuse-marker", i - 1, i + 1, (_reanchor(prev, prev.src, cur.tgt),))
        else:
            return False
        return True

    def absorb_all(self):
        """One left-to-right pass over every marker.  Nothing left of the
        cursor is ever a marker, so at most a marker that is the whole
        word survives, and a second pass would change nothing."""
        i = 0
        while i < len(self.letters):
            if not (isinstance(self.letters[i], IsoMarker) and self.absorb(i)):
                i += 1

    def cancel(self, i):
        """Replace the pair at i, i + 1, which composes to an isomorphism,
        by a marker; return the marker's position."""
        self.apply("cancel", i, i + 2, (IsoMarker(self.letters[i].src, self.letters[i + 1].tgt),))
        return i

    def adjacent_cancel(self):
        """Position of the leftmost adjacent pair that cancels, or None."""
        letters = self.letters
        for k in range(self.lo, min(self.hi, len(letters) - 1)):
            if _cancels(letters[k], letters[k + 1]):
                self.lo = k
                return k
        self.lo, self.hi = len(letters), 0
        return None

    def reducible_pair(self):
        """Innermost stack-matched (i, j) over fibers in canonical key order.

        Per fiber nothing is popped before the first match, so the
        innermost pair is the first pair of consecutive letters at that
        fiber that cancels."""
        centers = self.centers
        for key in sorted(set(centers).difference((None,))):
            i = centers.index(key)
            for _ in range(centers.count(key) - 1):
                j = centers.index(key, i + 1)
                if _cancels(self.letters[i], self.letters[j]):
                    return i, j
                i = j
        return None

    def commute_to(self, i, j):
        """Commute the letter at i rightwards until it is adjacent to j.

        Returns its final position, or None when a letter in between is
        not a type II conic-bundle letter at another fiber."""
        letters, centers = self.letters, self.centers
        while i + 1 < j:
            nxt = letters[i + 1]
            if not (
                isinstance(nxt, LinkLetter)
                and nxt.is_cb2()
                and centers[i + 1] is not None
                and centers[i + 1] != centers[i]
            ):
                return None
            self.apply("commute", i, i + 2, _swap_adjacent(letters[i], nxt))
            i += 1
        return i


def reduce_relation(w, observer=None, max_steps=None):
    """Reduce a relator to an isomorphism-only word via the trivial
    relations and four-link commutations.

    Returns the residual (empty when the input is a consequence of the
    generated relations), the move log, and the fiber traces of the input.
    A word the moves cannot erase comes back with stuck=True; a word whose
    link letters do not chain or mix fields is refused.

    The move order is canonical: the leftmost adjacent cancellation, else
    the innermost pair at the least fiber key.
    """
    if not w.is_relator():
        raise NotARelator(f"endpoints differ: {w.source} vs {w.target}")
    verdict = word_validate(w)
    if not verdict and verdict.reason == "chain":
        raise ChainBreak(f"letters do not chain at position {verdict.position}")
    if not verdict and verdict.reason == "field":
        raise IncompatibleFields(f"link letters mix fields at position {verdict.position}")
    traces = fiber_traces(w)
    state = _Reduction(w, observer)
    budget = max_steps if max_steps is not None else 50 * len(w.letters) ** 2 + 100
    stuck = False
    marker = None  # where the last cancellation left its marker

    while True:
        if len(state.moves) > budget:
            stuck = True
            break
        # the first pass absorbs the input's markers; afterwards the only
        # marker is the one the last cancellation left
        if marker is None:
            state.absorb_all()
        else:
            state.absorb(marker)
        k = state.adjacent_cancel()
        if k is not None:
            marker = state.cancel(k)
            continue
        pair = state.reducible_pair()
        if pair is None:
            break
        i = state.commute_to(*pair)
        if i is None:
            stuck = True
            break
        marker = state.cancel(i)

    state.absorb_all()
    residual = GroupoidWord(tuple(state.letters), *state.endpoints)
    if residual.link_letters():
        stuck = True
    return ReductionResult(residual, state.moves, traces, stuck)


# ---------------------------------------------------------------------------
# depth reordering


def reorder_by_depth(w, delta):
    """Equal word with all depth >= delta letters first in application
    order; letters sharing a center keep their relative order.

    Returns (word, move log of commutations)."""
    letters = list(w.letters)
    if any(not isinstance(l, LinkLetter) or not l.is_cb2() for l in letters):
        raise BadInput("reorder_by_depth expects a word of type II conic-bundle links")
    if any(l.center_key() is None for l in letters):
        raise UndecidableCenters("every letter needs a fiber center")
    moves = []
    changed = True
    while changed:
        changed = False
        for i in range(len(letters) - 1):
            a, b = letters[i], letters[i + 1]
            if a.depth < delta <= b.depth:
                if a.center_key() == b.center_key():
                    raise UndecidableCenters(
                        "letters share a center but straddle the depth threshold"
                    )
                b2, a2 = _swap_adjacent(a, b)
                letters[i : i + 2] = [b2, a2]
                moves.append(("commute", i))
                changed = True
    return GroupoidWord(tuple(letters), w.source, w.target), moves


# ---------------------------------------------------------------------------
# seeded relator generator (fuzz oracle: words trivial by construction)


def make_center_pool(field, depths):
    """Distinct irreducible fiber centers, one per requested depth value."""
    pool = []
    used = set()
    for d in depths:
        from .fields import monic_polys, is_irreducible

        poly = None
        for cand in monic_polys(field, d):
            if is_irreducible(cand) and cand not in used:
                poly = cand
                break
        if poly is None:
            raise BadInput(f"no unused irreducible of degree {d} over {field}")
        used.add(poly)
        pool.append(poly)
    return pool


def _stub_orbit(field, poly, template):
    return PointOrbit(field, template, poly.degree, poly)


def make_link_template(field, poly):
    """(depth, center, src orbit, tgt orbit) data for a II:d:d link."""
    return {
        "depth": poly.degree,
        "center": center_from_poly(poly),
        "orbit_src": _stub_orbit(field, poly, LINE),
        "orbit_tgt": _stub_orbit(field, poly, CONIC),
    }


def instantiate_link(template, source, rng):
    d = template["depth"]
    deltas = [k for k in range(-d, d + 1, 2)]
    n2 = abs(source.n + rng.choice(deltas))
    return SarkisovLink(
        "II",
        source,
        hirzebruch(n2),
        orbit_src=template["orbit_src"],
        orbit_tgt=template["orbit_tgt"],
        center=template["center"],
        depth=d,
    )


def random_relator(rng, templates, max_len=40, anchor=None):
    """A relator built from trivial pairs and four-link relations, conjugated
    by random chains and concatenated; trivial by construction."""
    anchor = anchor or hirzebruch(0)
    letters = []

    def atom(at):
        kind = rng.choice(("pair", "inverse-pair", "four", "four-inverse"))
        t1 = rng.choice(templates)
        if kind in ("pair", "inverse-pair"):
            l = instantiate_link(t1, at, rng)
            pair = [LinkLetter(l, 1), LinkLetter(l, -1)]
            return pair if kind == "pair" else [p.inverse() for p in reversed(pair)]
        t2 = rng.choice([t for t in templates if t["center"].key() != t1["center"].key()])
        chi1 = instantiate_link(t1, at, rng)
        chi2 = instantiate_link(t2, chi1.target, rng)
        chi3, chi4 = commute_move(chi1, chi2)
        four = [LinkLetter(c, 1) for c in (chi1, chi2, chi3, chi4)]
        if kind == "four-inverse":
            four = [p.inverse() for p in reversed(four)]
        return four

    def conjugated_atom(at):
        chain = []
        cur = at
        for _ in range(rng.randrange(0, 3)):
            t = rng.choice(templates)
            l = instantiate_link(t, cur, rng)
            chain.append(LinkLetter(l, 1))
            cur = l.target
        body = atom(cur)
        return chain + body + [c.inverse() for c in reversed(chain)]

    while True:
        piece = conjugated_atom(anchor if not letters else anchor)
        if letters and len(letters) + len(piece) > max_len:
            break
        # concatenation at the shared anchor
        letters.extend(piece)
        if len(letters) >= max_len or rng.random() < 0.4:
            break
    return GroupoidWord(tuple(letters), anchor, anchor)
