"""relators: reduce long seeded relator words.

Words concatenate random_relator pieces over the F2 centre pool with depths
{1, 2, 3, 5, 17, 19}; lengths are log-uniform over about 12..1200 letters,
one per stratum of the block.  Every 4th stratum also carries the homo_eval
invariance observer (as acceptance criterion 6 and run_relator_fuzz.py do)
and every 4th of the shorter half also goes through reorder_by_depth(., 16)
(its bubble pass costs about twice the reduction at 1200 letters, so on the
longest words it would set op_p90_ms in place of the reducer).
"""

from common import Op, block_rng, stratified

WORDS_PER_BLOCK = 24
MIN_LEN, MAX_LEN = 12, 1200
DEPTHS = (1, 2, 3, 5, 17, 19)
DELTA = 16


def setup(seed):
    from cremona_kit import fields, freeprod, rewrite

    F2 = fields.PrimeField(2)
    pool = rewrite.make_center_pool(F2, DEPTHS)
    templates = [rewrite.make_link_template(F2, p) for p in pool]
    return {"seed": seed, "templates": templates, "rewrite": rewrite, "freeprod": freeprod}


def _long_relator(state, rng, target):
    rw = state["rewrite"]
    letters = []
    while len(letters) < target:  # the last piece overshoots by a few letters at most
        piece = rw.random_relator(rng, state["templates"], max_len=min(40, target - len(letters)))
        letters.extend(piece.letters)
    return rw.GroupoidWord(tuple(letters), piece.source, piece.target)


def _op(state, w, observed, reorder):
    rw, fp = state["rewrite"], state["freeprod"]

    def run():
        images = []
        observer = (lambda s, move: images.append(fp.homo_eval(s))) if observed else None
        result = rw.reduce_relation(w, observer=observer)
        reordered = rw.reorder_by_depth(w, DELTA)[0] if reorder else None
        return result, images, reordered

    def digest(out):
        result, images, reordered = out
        return (
            result.is_trivial,
            result.stuck,
            len(result.moves),
            len(images),
            all(img.is_identity() for img in images),
            reordered,
        )

    deep = sum(1 for l in w.letters if l.depth >= DELTA)
    props = {"letters": len(w.letters), "deep_letters": deep, "observed": observed, "reordered": reorder}
    return Op("relator", run, _checker(fp, observed, w if reorder else None), digest, props)


def _checker(fp, observed, reorder_input):
    """The verdict check; it keeps the input word only when it needs it."""

    def check(d):
        trivial, stuck, moves, seen, identity, reordered = d
        if not trivial or stuck:
            return f"residual not empty (stuck={stuck})"
        if observed and (seen != moves or not identity):
            return "image not the identity at every observed move"
        if reorder_input is not None:
            depths = [l.depth for l in reordered.letters]
            shallow = next((i for i, d in enumerate(depths) if d < DELTA), len(depths))
            if any(d >= DELTA for d in depths[shallow:]):
                return "reordered word does not put deep letters first"
            if fp.homo_eval(reordered) != fp.homo_eval(reorder_input):
                return "reordering changed the image"
        return None

    return check


def block(state, index):
    rng = block_rng(state["seed"], index, "relators")
    lengths = stratified(state["seed"], "length", index, WORDS_PER_BLOCK, MIN_LEN, MAX_LEN, log=True)
    ops = []
    for j, target in enumerate(lengths):
        w = _long_relator(state, block_rng(state["seed"], index, f"word{j}"), round(target))
        reorder = j % 4 == 1 and j < WORDS_PER_BLOCK // 2
        ops.append(_op(state, w, observed=(j % 4 == 3), reorder=reorder))
    rng.shuffle(ops)
    return ops
