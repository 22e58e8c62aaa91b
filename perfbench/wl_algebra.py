"""algebra: polynomial work over finite fields and Q, big links, linsys.

Every block has the same ops, with seeded parameters:
  * find_irreducible over F2 and F3 at the odd degrees 9, 13, ..., 45, each
    once per block.  The input is only a degree and the cost of each degree
    is fixed and uneven (0.01 s to 1.5 s), so every block has the same
    degrees and blocks cost the same;
  * factor_over_prime_field on random monic polynomials: F2 of degree
    32..192, F3 16..80, F101 8..48, F256 6..20.  At one degree the cost
    varies fourfold with the factorization pattern, so these polynomials
    come from a generator fixed by the block index, not by the seed: seeded,
    they would make op_p90_ms follow the seed more than the program;
  * irreducible_check over Q at degrees 3..24, on polynomials whose
    factorization is known by construction (see _certified_at): each alone
    and each times a linear factor; and three alone at degree 29, which
    cost about 0.2 s each and keep the p90 off a gap in the op costs;
  * c5_big_link and c6_big_link over F2 with r of odd degree 17..29;
  * de Jonquieres decompositions over Q (Eisenstein p of degree 2..24),
    then homo_eval and conjugate_to_p2;
  * refined_target_report(F2, 33);
  * slices of the push_type2 / push_oracle grid and lambda_bound
    certificates.
All but the find_irreducible ops come ROUNDS_PER_BLOCK times per block.
Verdicts are checked against sympy (factorization over F_p, irreducibility
over Q) and against the program's own oracles, never against output bytes.

probes(state) are untimed ops run after the timed phase, on an input class
where the program has a known defect: irreducible_check answers Unverified
on reducible polynomials without a rational root (here, products of two
certified polynomials), and the verdict rule (Unverified is right only on
an irreducible polynomial) rejects that.  A probe whose check fails with a
message starting KNOWN_DEFECT is counted apart, as a known defect, not as a
failed op; any other failure of a probe is a failed op.  The count shows in
every run's report and, traced, as fields.irreducible_check.unverified_reducible.
"""

from fractions import Fraction

from common import Op, block_rng, odd_between, stratified

FIND_DEGREES = tuple(range(9, 46, 4))  # over F2 and over F3, in every block
ROUNDS_PER_BLOCK = 3  # the seeded strata below, this many times per block
FACTOR = ((2, 32, 192), (3, 16, 80), (101, 8, 48), (256, 6, 20))  # (q, lo, hi)
FACTORS_PER_FIELD = 3
BIGLINKS = 2  # of each of c5 and c6
DJ = 6
PUSH_SLICES = 3
LAMBDA_OPS = 3
PUSH_SIZES = range(16, 25)
REFINED_BOUND = 33


def setup(seed):
    from cremona_kit import catalog, constructions, fields, freeprod, linsys, orbits

    F2 = fields.PrimeField(2)
    fld = {2: F2, 3: fields.PrimeField(3), 101: fields.PrimeField(101)}
    fld[256] = fields.ExtensionField(F2, fields.find_irreducible(F2, 8).coeffs, check=False)
    links = {}
    for size in PUSH_SIZES:
        poly = fields.find_irreducible(F2, size)
        src = orbits.PointOrbit(F2, orbits.LINE, size, poly, general_position=orbits.GP_NO)
        tgt = orbits.PointOrbit(F2, orbits.CONIC, size, poly, general_position=orbits.GP_YES)
        links[size] = catalog.SarkisovLink(
            "II", catalog.hirzebruch(0), catalog.hirzebruch(size % 2),
            orbit_src=src, orbit_tgt=tgt, center=catalog.center_from_poly(poly), depth=size,
        )
    quartics = [f for f in fields.monic_polys(F2, 4) if fields.is_irreducible(f)]
    return {
        "seed": seed,
        "fields": fld,
        "links": links,
        "quartics": quartics,
        # the big links' r: the canonical irreducible of each odd degree 17..29
        "r": {d: fields.find_irreducible(F2, d) for d in range(17, 30, 2)},
        "split": constructions.mirror_split_orbit(F2, fields.find_irreducible(F2, 2)),
        "m": {"fields": fields, "orbits": orbits, "catalog": catalog, "linsys": linsys,
              "constructions": constructions, "freeprod": freeprod},
    }


# ---------------------------------------------------------------------------
# sympy oracles (imported only when checking, after the timed phase)


def _sympy_poly(coeffs, modulus=None):
    import sympy

    x = sympy.Symbol("x")
    if modulus is None:
        return sympy.Poly(list(reversed(coeffs)), x, domain="QQ")
    return sympy.Poly(list(reversed(coeffs)), x, modulus=modulus)


def _sympy_factors(coeffs, p):
    _, parts = _sympy_poly(coeffs, p).factor_list()
    out = []
    for part, mult in parts:
        cs = [int(c) % p for c in reversed(part.all_coeffs())]
        inv = pow(cs[-1], -1, p)
        out.append(([c * inv % p for c in cs], mult))
    return sorted(out)


# ---------------------------------------------------------------------------
# ops


def _ints(F, poly):
    return [F.to_int(c) for c in poly.coeffs]


def _find_op(state, p, d):
    fm = state["m"]["fields"]
    F = state["fields"][p]

    def run():
        return fm.find_irreducible(F, d)

    def digest(f):
        return _ints(F, f)

    def check(cs):
        if len(cs) != d + 1 or cs[-1] != 1:
            return f"find_irreducible(F{p}, {d}) is not monic of degree {d}"
        if not _sympy_poly(cs, p).is_irreducible:
            return f"find_irreducible(F{p}, {d}) is reducible (sympy)"
        return None

    return Op("find_irreducible", run, check, digest, {"field": f"F{p}", "degree": d})


def _factor_op(state, q, d, rng):
    fm = state["m"]["fields"]
    F = state["fields"][q]
    f = fm.Poly(F, [F.from_packed_int(rng.randrange(q)) for _ in range(d)] + [F.one])

    def run():
        return fm.factor_over_prime_field(f)

    def check(factors):
        prod = fm.Poly(F, (F.one,))
        for g, mult in factors:
            if g.degree < 1 or not g.is_monic():
                return f"F{q} degree {d}: factor {g} is not monic of positive degree"
            for _ in range(mult):
                prod = prod * g
        if prod != f:
            return f"F{q} degree {d}: product of the factors is not the input"
        if q in (2, 3, 101):
            got = sorted((_ints(F, g), m) for g, m in factors)
            if got != _sympy_factors(_ints(F, f), q):
                return f"F{q} degree {d}: factorization differs from sympy"
        return None

    return Op("factor", run, check, None, {"field": f"F{q}", "degree": d})


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23)
IRR_Q_DEGREES = (3, 5, 7, 11, 13, 17, 19, 23)
IRR_Q_PAIRS = ((3, 11), (5, 11), (7, 11))  # probes: products of degree 14, 16 and 18
IRR_Q_LONG = (29, 29, 29)
KNOWN_DEFECT = "Unverified verdict on a reducible polynomial"


def _certified_at(d, rng):
    """Integer coefficients of a monic f of prime degree d that is
    irreducible over Q (Eisenstein at 101), has the root 1 modulo every
    prime below d, and is x^d - x - 1 (Artin-Schreier, irreducible) modulo
    d.  irreducible_check then runs its mod-p test at every prime up to d
    and certifies f at d: the work depends on d only, not on luck."""
    from math import prod

    below = [p for p in PRIMES if p < d]

    def crt(residues):  # [(residue, modulus)] -> smallest nonnegative solution
        x, m = 0, 1
        for r, n in residues:
            while x % n != r % n:
                x += m
            m *= n
        return x, m

    base = 101 * d
    cs = [0] * (d + 1)
    cs[d] = 1
    for i in range(3, d):
        cs[i] = base * rng.randint(-9, 9)
    for i in (0, 1):  # -1 modulo d, 0 modulo 101
        x, m = crt([(-1, d), (0, 101)])
        cs[i] = x + m * rng.randint(-9, 9)
        while cs[i] % (101 * 101) == 0:
            cs[i] += m
    rest = sum(cs)  # choose cs[2] so that f(1) = 0 modulo every prime below d
    x, m = crt([(0, 101), (0, d)] + [(-rest, p) for p in below])
    cs[2] = x + m * rng.randint(-3, 3)
    return cs


def _irr_q_op(state, degrees, linear, rng):
    """irreducible_check on the product of a certified polynomial of each
    degree in degrees, times a linear factor if linear."""
    fm = state["m"]["fields"]
    f = fm.Poly(fm.QQ, (1,))
    for d in degrees:
        f = f * fm.Poly(fm.QQ, _certified_at(d, rng))
    if linear:  # found by the rational-root search
        f = f * fm.Poly(fm.QQ, [rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2))])
    factors = len(degrees) + linear

    def run():
        return fm.irreducible_check(f)

    def digest(cert):
        return cert.verdict

    def check(verdict):
        irreducible = _sympy_poly([Fraction(c) for c in f.coeffs]).is_irreducible
        if verdict == fm.UNVERIFIED and not irreducible:
            return f"{KNOWN_DEFECT} of degree {f.degree}"
        if verdict == fm.IRREDUCIBLE and not irreducible:
            return f"Irreducible verdict on a reducible polynomial of degree {f.degree}"
        if verdict == fm.REDUCIBLE and irreducible:
            return f"Reducible verdict on an irreducible polynomial of degree {f.degree}"
        return None

    return Op("irreducible_q", run, check, digest, {"degree": f.degree, "factors": factors})


def _biglink_op(state, kind, d, rng):
    orbits, cons = state["m"]["orbits"], state["m"]["constructions"]
    F2 = state["fields"][2]
    r = state["r"][d]
    if kind == "c5":
        orbit = orbits.orbit_from_poly(F2, rng.choice(state["quartics"]), orbits.CONIC)

        def run():
            return cons.c5_big_link(orbit, r)
    else:
        orbit = state["split"]

        def run():
            return cons.c6_big_link(orbit, r)

    def digest(out):
        link, report = out
        return link.depth, report.mode, report.conic_count, report.distinct, report.collinear_clear

    def check(dg):
        depth, mode, count, distinct, clear = dg
        if (depth, mode, count, distinct, clear) != (d, "coordinate", d, True, True):
            return f"{kind} link with r of degree {d}: report {dg}"
        return None

    return Op("biglink", run, check, digest, {"kind": kind, "degree": d})


def _dj_op(state, d, rng):
    fm, cons, fp = state["m"]["fields"], state["m"]["constructions"], state["m"]["freeprod"]
    # Eisenstein at 2: irreducible over Q
    cs = [2 * rng.choice((1, 3, 5, -1, -3))] + [2 * rng.randint(-3, 3) for _ in range(d - 1)] + [1]
    p = fm.Poly(fm.QQ, cs)

    def run():
        w, _ = cons.dejonquieres_decompose(cons.DeJonquieresMap(p))
        return w, fp.homo_eval(w), fp.homo_eval(cons.conjugate_to_p2(w))

    def check(out):
        w, image, conj_image = out
        if len(w.letters) != d + 1:
            return f"degree {d}: word of {len(w.letters)} letters"
        if image != conj_image:
            return f"degree {d}: conjugation to P2 changed the image"
        return None

    return Op("dejonquieres", run, check, None, {"degree": d})


def _push_op(state, rng):
    linsys = state["m"]["linsys"]
    cases = []
    for _ in range(25):
        size = rng.choice(list(PUSH_SIZES))
        link = state["links"][size]
        two_lambda = rng.randrange(1, 41)
        two_mult = rng.randrange(0, 2 * two_lambda + 1)
        H = linsys.LinearSystemClass(two_lambda, rng.randrange(-40, 41),
                                     {link.orbit_src.key(): two_mult} if two_mult else {})
        cases.append((H, link))

    def run():
        return [(linsys.push_type2(H, link), linsys.push_oracle(H, link)) for H, link in cases]

    def check(pairs):
        bad = sum(1 for a, b in pairs if a != b)
        return f"push_type2 != push_oracle on {bad} of {len(pairs)}" if bad else None

    return Op("push", run, check, None, {"cases": len(cases)})


def _lambda_op(state, rng):
    linsys = state["m"]["linsys"]
    cases = []
    for _ in range(20):
        lam = Fraction(rng.randrange(2, 200), rng.choice((1, 2)))
        orbs = [(rng.randrange(16, 64), lam * Fraction(rng.randrange(50), 100))  # m < lam / 2
                for _ in range(rng.randrange(1, 4))]
        a = Fraction(rng.randrange(3, 12), 10)  # some below the 1/2 hypothesis
        cases.append((lam, orbs, a))

    def run():
        return [linsys.lambda_bound(lam, orbs, a) for lam, orbs, a in cases]

    def check(certs):
        for (lam, orbs, a), cert in zip(cases, certs):
            holds = a >= Fraction(1, 2) and all(m < lam / 2 for _, m in orbs)
            if bool(cert) != holds:
                return f"lambda_bound({lam}, {orbs}, {a}) gave {cert}"
            if holds:
                beta = sum(Fraction(s) * (1 - m / lam) for s, m in orbs)
                if cert.bound != a * beta * lam or not cert.bound > 4 * lam:
                    return f"lambda_bound({lam}, {orbs}, {a}): bound {cert.bound}"
        return None

    return Op("lambda_bound", run, check, None, {"cases": len(cases)})


def _refined_op(state):
    cons = state["m"]["constructions"]
    F2 = state["fields"][2]

    def run():
        return cons.refined_target_report(F2, REFINED_BOUND)

    def digest(report):
        return report.free_factors_ok, [(d, _ints(F2, poly)) for _, d, poly in report.indices]

    def check(dg):
        ok, indices = dg
        if not ok:
            return "refined report: witnesses not in distinct free factors"
        if [d for d, _ in indices] != list(range(17, REFINED_BOUND + 1, 2)):
            return "refined report: wrong index set"
        if any(not _sympy_poly(cs, 2).is_irreducible for _, cs in indices):
            return "refined report: an index polynomial is reducible (sympy)"
        return None

    return Op("refined_report", run, check, digest, {"bound": REFINED_BOUND})


def block(state, index):
    rng = block_rng(state["seed"], index, "algebra")
    seed = state["seed"]
    ops = [_find_op(state, p, d) for p in (2, 3) for d in FIND_DEGREES]
    for sub in range(ROUNDS_PER_BLOCK * index, ROUNDS_PER_BLOCK * (index + 1)):

        def strata(salt, count, lo, hi, log=False):
            return stratified(seed, salt, sub, count, lo, hi, log)

        fixed = block_rng("factor", sub)  # not the seed: see the module docstring
        for q, lo, hi in FACTOR:
            ops.extend(_factor_op(state, q, round(d), fixed)
                       for d in stratified("factor", q, sub, FACTORS_PER_FIELD, lo, hi, log=True))
        ops.extend(_irr_q_op(state, (d,), False, rng) for d in IRR_Q_DEGREES)
        ops.extend(_irr_q_op(state, (d,), True, rng) for d in IRR_Q_DEGREES[1:])
        ops.extend(_irr_q_op(state, (d,), False, rng) for d in IRR_Q_LONG)
        for kind in ("c5", "c6"):
            ops.extend(_biglink_op(state, kind, odd_between(d, 17, 29), rng)
                       for d in strata(kind, BIGLINKS, 16, 30))
        ops.extend(_dj_op(state, int(d), rng) for d in strata("dj", DJ, 2, 24.99))
        ops.extend(_push_op(state, rng) for _ in range(PUSH_SLICES))
        ops.extend(_lambda_op(state, rng) for _ in range(LAMBDA_OPS))
        ops.append(_refined_op(state))
    rng.shuffle(ops)
    return ops


def probes(state):
    rng = block_rng(state["seed"], 0, "probe")
    return [_irr_q_op(state, pair, False, rng) for pair in IRR_Q_PAIRS]
