"""Free products of direct sums of Z/2Z, and the evaluation of groupoid
words into them.

An element is an alternating word of letters (factor key, nonempty bit
set).  Multiplication concatenates and renormalizes: adjacent letters in
the same factor merge by symmetric difference (each bit is an involution),
empty letters vanish.  The stack pass below computes the unique normal
form in one sweep.

homo_eval sends a type II conic-bundle letter of depth >= 16 to the
generator (class key, {depth}) and everything else to the identity;
homo_refined_eval routes Hirzebruch-class letters into a single direct-sum
factor indexed by depth and the degree-5/6 classes into per-class factors
indexed by n = (depth-1)/2 for the odd depths the explicit constructions
produce.  Even depths >= 16 are legal inputs to the coarse map; the refined
map keeps them in a flagged auxiliary index rather than dropping them.
"""

from dataclasses import dataclass, field as dc_field

from .errors import ChainBreak, UnresolvedClass
from .catalog import HIRZEBRUCH, HIRZEBRUCH_CLASS, ConicBundleClassKey, cb_class_key
from .errors import NonRational
from .rewrite import LinkLetter


@dataclass(frozen=True)
class FreeProductElement:
    word: tuple  # ((factor_key, frozenset bits), ...), alternating, no empties

    def is_identity(self):
        return not self.word

    def __mul__(self, other):
        return fp_normalize(self.word + other.word)

    def __len__(self):
        return len(self.word)

    def factors(self):
        return [f for f, _ in self.word]

    def __repr__(self):
        if not self.word:
            return "1"
        return " * ".join(f"({f}, {sorted(map(str, bits))})" for f, bits in self.word)

    def to_json(self):
        out = []
        for f, bits in self.word:
            fj = f.to_json() if isinstance(f, ConicBundleClassKey) else list(f)
            out.append(
                {
                    "factor": fj,
                    "bits": [
                        list(b) if isinstance(b, tuple) else b
                        for b in sorted(bits, key=_bit_sort)
                    ],
                }
            )
        return {"word": out}

    @staticmethod
    def from_json(obj):
        letters = []
        for item in obj["word"]:
            fj = item["factor"]
            factor = (
                ConicBundleClassKey.from_json(fj) if isinstance(fj, dict) else tuple(fj)
            )
            bits = frozenset(
                tuple(b) if isinstance(b, list) else b for b in item["bits"]
            )
            letters.append((factor, bits))
        return fp_normalize(letters)


def _bit_sort(b):
    return (0, b, "") if isinstance(b, int) else (1, 0, str(b))


IDENTITY = FreeProductElement(())


def fp_normalize(raw):
    """Unique alternating normal form of a letter sequence."""
    stack = []
    for factor, bits in raw:
        bits = frozenset(bits)
        if stack and stack[-1][0] == factor:
            merged = stack[-1][1] ^ bits
            stack.pop()
            if merged:
                stack.append((factor, merged))
        elif bits:
            stack.append((factor, bits))
    return FreeProductElement(tuple(stack))


def _class_key(model, memo):
    if model.kind == HIRZEBRUCH:
        return HIRZEBRUCH_CLASS
    # model keys spell orbit coefficients without naming the field they lie in
    ck = (model.orbit.field if model.orbit is not None else None, model.key())
    if ck not in memo:
        try:
            memo[ck] = cb_class_key(model)
        except NonRational as exc:
            raise UnresolvedClass(str(exc))
    return memo[ck]


def _deep_letters(w, delta, field=None):
    """(class key, depth) of each type II conic-bundle letter of depth >=
    delta, computing each model's class key once per call.  The walk that
    collects those letters checks the chain; class keys and the field check
    run only after the whole chain has passed, so a ChainBreak wins over
    their errors."""
    prev, deep = w.source, []
    for i, letter in enumerate(w.letters):
        src = letter.src  # neighbours mostly share one model object
        if src is not prev and src.key() != prev.key():
            raise ChainBreak(f"letters do not chain at position {i}")
        prev = letter.tgt
        if isinstance(letter, LinkLetter) and letter.link.depth >= delta and letter.link.is_cb_type2():
            deep.append(letter.link)
    if prev is not w.target and prev.key() != w.target.key():
        raise ChainBreak("word does not reach its declared target")
    memo, out = {}, []
    for link in deep:
        if field is not None and link.orbit_src is not None:
            if link.orbit_src.field != field:
                raise UnresolvedClass("letter lives over a different field")
        out.append((_class_key(link.source, memo), link.depth))
    return out


def homo_eval(w, delta=16):
    """Image of a groupoid word: one generator per type II conic-bundle
    letter of depth >= delta, indexed by its equivalence class."""
    return fp_normalize((key, {depth}) for key, depth in _deep_letters(w, delta))


I0 = ("I0",)


def _refined_factor_and_bit(key, depth):
    if key.family == "hirzebruch":
        return I0, depth
    factor = ("J5" if key.family == "dp5" else "J6", key.class_id)
    if depth % 2 == 1 and depth >= 17:
        return factor, ("n", (depth - 1) // 2)
    return factor, ("aux", depth)  # outside the stated odd-depth index set


def homo_refined_eval(w, field=None):
    """Image in the refined target: I0 for the Hirzebruch class, one free
    factor per degree-5/6 orbit class, indexed by n with depth = 2n+1."""
    letters = []
    for key, depth in _deep_letters(w, 16, field):
        factor, bit = _refined_factor_and_bit(key, depth)
        letters.append((factor, {bit}))
    return fp_normalize(letters)


@dataclass
class RefinedTarget:
    """Abelianized view of a refined image: per-factor bit sets."""

    hirzebruch_factor: frozenset = frozenset()
    j5_factors: dict = dc_field(default_factory=dict)
    j6_factors: dict = dc_field(default_factory=dict)
    aux: dict = dc_field(default_factory=dict)  # flagged even-depth bits

    def __post_init__(self):
        for factors in (self.j5_factors, self.j6_factors):
            for bits in factors.values():
                assert all(n >= 8 for n in bits), "J-factor indices are n >= 8"

    @staticmethod
    def from_element(elem):
        out = RefinedTarget()
        for factor, bits in elem.word:
            if factor == I0:
                out.hirzebruch_factor = out.hirzebruch_factor ^ bits
                continue
            fam, cid = factor
            table = out.j5_factors if fam == "J5" else out.j6_factors
            for bit in bits:
                tag, val = bit
                if tag == "n":
                    table[cid] = table.get(cid, frozenset()) ^ {val}
                else:
                    out.aux[(fam, cid)] = out.aux.get((fam, cid), frozenset()) ^ {val}
        return out

    def to_json(self):
        return {
            "I0": sorted(self.hirzebruch_factor),
            "J5": {k: sorted(v) for k, v in sorted(self.j5_factors.items())},
            "J6": {k: sorted(v) for k, v in sorted(self.j6_factors.items())},
            "aux": {f"{fam}:{cid}": sorted(v) for (fam, cid), v in sorted(self.aux.items())},
        }


def witness_free_factors(elements):
    """Check that the images lie in pairwise distinct free factors: every
    pairwise product has normal-form length 2."""
    for i in range(len(elements)):
        for j in range(len(elements)):
            if i == j:
                continue
            prod = elements[i] * elements[j]
            if len(prod) != 2:
                return False
    return True
