from fractions import Fraction
import gc
import hashlib
import itertools
import json
import random
import signal
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from cremona_kit import errors
from cremona_kit.fields import (
    ExtensionField,
    Field,
    IRREDUCIBLE,
    Poly,
    PrimeField,
    QQ,
    REDUCIBLE,
    Rationals,
    UNVERIFIED,
    canonical_extension,
    descend,
    factor_over_prime_field,
    field_from_json,
    field_to_json,
    find_irreducible,
    frobenius_conjugates,
    irreducible_check,
    is_irreducible,
    lift,
    lift_poly,
    minimal_polynomial,
    monic_polys,
    poly_from_json,
    poly_from_string,
    poly_to_json,
    prime_power,
    sylvester_resultant,
)
from minpoly_solve import minimal_polynomial_by_solve

F2 = PrimeField(2)
F3 = PrimeField(3)


def P(field, s):
    return poly_from_string(field, s)


def _tower_f81():
    F9 = ExtensionField(F3, find_irreducible(F3, 2).coeffs)
    return ExtensionField(F9, find_irreducible(F9, 2).coeffs)


def _prime_ext(p, k):
    F = PrimeField(p)
    return lambda: ExtensionField(F, find_irreducible(F, k).coeffs)


# extension fields whose arithmetic is checked against independent oracles;
# F81/F9 is a tower, every other one has a prime base
KERNEL_FIELDS = {
    "F16": lambda: ExtensionField(F2, P(F2, "t^4+t+1").coeffs),
    "F27": _prime_ext(3, 3),
    "F49": _prime_ext(7, 2),
    "F81/F9": _tower_f81,
    "F243": _prime_ext(3, 5),
    "F256": _prime_ext(2, 8),
    "F2401": _prime_ext(7, 4),
    "F10201": _prime_ext(101, 2),
    "F101^4": _prime_ext(101, 4),
}


def _oracle_int(K, a):
    """Packed integer of an element, from the base digits up."""
    if isinstance(K, PrimeField):
        return a
    b = K.base.size()
    return sum(_oracle_int(K.base, c) * b**i for i, c in enumerate(a))


def _raw_order(K, a):
    x, n = a, 1
    while x != K.one:
        x, n = K._mul_raw(x, a), n + 1
    return n


class TestFactor:
    def test_irreducible_quadratic(self):
        assert factor_over_prime_field(P(F2, "x^2+x+1")) == [(P(F2, "x^2+x+1"), 1)]

    def test_square_in_char_2(self):
        # (x+1)^2 = x^2+1 over F_2
        assert factor_over_prime_field(P(F2, "x^2+1")) == [(P(F2, "x+1"), 2)]

    def test_quartic_irreducible(self):
        # no roots and no quadratic factor, by exhaustive trial below
        f = P(F2, "x^4+x+1")
        assert factor_over_prime_field(f) == [(f, 1)]
        for g in monic_polys(F2, 1):
            assert not (f % g).is_zero()
        for g in monic_polys(F2, 2):
            assert not (f % g).is_zero()

    @pytest.mark.parametrize("field", [F2, F3, PrimeField(5)])
    def test_reassembly(self, field):
        import random

        rng = random.Random(11)
        for _ in range(25):
            coeffs = [rng.randrange(field.p) for _ in range(rng.randrange(2, 9))] + [1]
            f = Poly(field, coeffs)
            factors = factor_over_prime_field(f)
            prod = Poly(field, (field.one,))
            for g, m in factors:
                for _ in range(m):
                    prod = prod * g
            assert prod == f.monic()
            assert sum(g.degree * m for g, m in factors) == f.degree
            for g, _ in factors:
                assert g.is_monic() and is_irreducible(g)

    def test_extension_field_factor(self):
        F4 = ExtensionField(F2, (1, 1, 1))
        # x^2 + x + 1 splits into linears over F_4
        f = Poly(F4, (F4.one, F4.one, F4.one))
        factors = factor_over_prime_field(f)
        assert [g.degree for g, _ in factors] == [1, 1]

    def test_errors(self):
        with pytest.raises(errors.ZeroPolynomial):
            factor_over_prime_field(Poly(F2, ()))
        with pytest.raises(errors.UnsupportedField):
            factor_over_prime_field(P(QQ, "x^2-1"))

    def test_deterministic(self):
        f = P(F2, "x^9+x^4+x^2+x")
        assert factor_over_prime_field(f) == factor_over_prime_field(f)


class TestPrimality:
    def test_matches_trial_division(self):
        from cremona_kit.fields import _is_prime

        def trial(n):
            return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

        assert [n for n in range(-2, 5000) if _is_prime(n)] == [
            n for n in range(-2, 5000) if trial(n)
        ]

    def test_strong_pseudoprimes_refused(self):
        from cremona_kit.fields import _is_prime

        # strong pseudoprimes to the bases 2; 2..7; 2..23
        for n in (2047, 3215031751, 3825123056546413051):
            assert not _is_prime(n)
        assert _is_prime(2**61 - 1) and _is_prime(2**63 - 25)

    def test_prime_power(self):
        from cremona_kit.fields import prime_power

        assert prime_power(2**61 - 1) == (2**61 - 1, 1)
        assert prime_power(3**40) == (3, 40)
        assert prime_power((2**31 - 1) ** 2) == (2**31 - 1, 2)
        for q in (0, 1, 6, 2**62 - 1, (2**31 - 1) * (2**31 + 11)):
            assert prime_power(q) is None


class TestIrreducibleCheck:
    def test_eisenstein(self):
        cert = irreducible_check(P(QQ, "x^17-2"))
        assert cert.verdict == IRREDUCIBLE
        assert cert.method == "Eisenstein" and cert.prime == 2

    def test_rational_root(self):
        cert = irreducible_check(P(QQ, "x^2-1"))
        assert cert.verdict == REDUCIBLE
        assert (P(QQ, "x^2-1") % cert.witness).is_zero()

    def test_f2_degree_17(self):
        # decided by the factorization oracle, not assumed
        f = P(F2, "x^17+x^3+1")
        cert = irreducible_check(f)
        assert (cert.verdict == IRREDUCIBLE) == (
            factor_over_prime_field(f) == [(f, 1)]
        )

    def test_never_contradicts_factorization(self):
        import random

        rng = random.Random(5)
        for _ in range(40):
            coeffs = [rng.randrange(2) for _ in range(rng.randrange(2, 8))] + [1]
            f = Poly(F2, coeffs)
            cert = irreducible_check(f)
            split = factor_over_prime_field(f)
            if cert.verdict == IRREDUCIBLE:
                assert split == [(f.monic(), 1)]
            else:
                assert cert.witness is not None
                assert (f % cert.witness).is_zero()

    @pytest.mark.parametrize(
        "s,verdict",
        [
            ("x^4-5*x^2+6", REDUCIBLE),  # (x^2-2)(x^2-3)
            ("x^4+4", REDUCIBLE),  # (x^2+2x+2)(x^2-2x+2)
            ("x^4+1", IRREDUCIBLE),
            ("x^4-2", IRREDUCIBLE),
            ("x^3-2", IRREDUCIBLE),
            ("x^3-1", REDUCIBLE),
            ("x^2+1", IRREDUCIBLE),
        ],
    )
    def test_low_degree_over_q(self, s, verdict):
        cert = irreducible_check(P(QQ, s))
        assert cert.verdict == verdict
        if verdict == REDUCIBLE:
            assert (P(QQ, s) % cert.witness).is_zero()
            assert 0 < cert.witness.degree < 4

    def test_unverified_exists(self):
        # swinnerton-dyer style polynomial: irreducible but resists the
        # three certified methods in degree > 4
        f = P(QQ, "x^8-40*x^6+352*x^4-960*x^2+576")
        cert = irreducible_check(f)
        assert cert.verdict in (UNVERIFIED, IRREDUCIBLE)

    def test_constant_error(self):
        with pytest.raises(errors.ConstantPolynomial):
            irreducible_check(Poly(QQ, (Fraction(3),)))


class TestFrobeniusConjugates:
    def test_quartic_q2(self):
        K = ExtensionField(F2, P(F2, "t^4+t+1").coeffs)
        conj = frobenius_conjugates(K, K.gen(), 2)
        assert len(conj) == 4
        want = {(0, 1), (0, 0, 1), (1, 1), (1, 0, 1)}  # t, t^2, t+1, t^2+1
        assert set(conj) == want

    def test_degree_one(self):
        assert frobenius_conjugates(F2, 1, 2) == [1]
        K = ExtensionField(F2, P(F2, "t^4+t+1").coeffs)
        assert frobenius_conjugates(K, K.one, 2) == [K.one]

    def test_quartic_q4(self):
        K = ExtensionField(F2, P(F2, "t^4+t+1").coeffs)
        assert len(frobenius_conjugates(K, K.gen(), 4)) == 2

    @pytest.mark.parametrize("s", ["t^2+t+1", "t^3+t+1", "t^4+t+1", "t^6+t+1"])
    def test_size_divides_degree(self, s):
        f = P(F2, s)
        K = ExtensionField(F2, f.coeffs)
        assert len(frobenius_conjugates(K, K.gen(), 2)) == f.degree
        for j in (2, 3):
            assert f.degree % len(frobenius_conjugates(K, K.gen(), 2 ** j)) == 0

    def test_cyclic_permutation(self):
        K = ExtensionField(F2, P(F2, "t^4+t+1").coeffs)
        conj = frobenius_conjugates(K, K.gen(), 2)
        for i, c in enumerate(conj):
            assert K.pow(c, 2) == conj[(i + 1) % len(conj)]


def _seeded_elements(K, count, seed):
    rng = random.Random(seed)
    return [K.gen()] + [K.from_packed_int(rng.randrange(K.size())) for _ in range(count)]


MINPOLY_FIELDS = {
    **{f"F{2 ** k}": _prime_ext(2, k) for k in range(2, 7)},
    **{f"F{3 ** k}": _prime_ext(3, k) for k in range(2, 7)},
    "F10201": _prime_ext(101, 2),
    "F64/F4": lambda: _tower(F2, 2, 3),
    "F256/F4": lambda: _tower(F2, 2, 4),
    "F81/F9": _tower_f81,
    "F729/F9": lambda: _tower(F3, 2, 3),
}


def _tower(p_field, k, m):
    inner = ExtensionField(p_field, find_irreducible(p_field, k).coeffs)
    return ExtensionField(inner, find_irreducible(inner, m).coeffs)


class TestMinimalPolynomial:
    @pytest.mark.parametrize("name", sorted(MINPOLY_FIELDS))
    def test_matches_solve_oracle(self, name):
        K = MINPOLY_FIELDS[name]()
        for u in _seeded_elements(K, 12, name):
            m = minimal_polynomial(K, u)
            assert m == minimal_polynomial_by_solve(K, u)
            assert K.is_zero(lift_poly(K, m)(u))

    def test_needs_a_finite_base(self):
        K = ExtensionField(QQ, P(QQ, "x^2-2").coeffs)
        with pytest.raises(errors.UnsupportedField):
            minimal_polynomial(K, K.gen())


class TestLiftDescend:
    @pytest.mark.parametrize("name", ["F16", "F81/F9", "F256/F4"])
    def test_descend_undoes_lift(self, name):
        K = {**KERNEL_FIELDS, **MINPOLY_FIELDS}[name]()
        fields_down = [K]
        while isinstance(fields_down[-1], ExtensionField):
            fields_down.append(fields_down[-1].base)
        for base in fields_down:  # every field of the tower, K and F_p included
            for c in list(base.elements())[:20]:
                assert descend(K, base, lift(K, base, c)) == c

    def test_lift_is_a_ring_map(self):
        K = _tower_f81()
        F9 = K.base
        assert lift(K, F3, 2) == K.embed(F9.embed(2))
        for a in F9.elements():
            for b in F9.elements():
                assert lift(K, F9, F9.add(a, b)) == K.add(lift(K, F9, a), lift(K, F9, b))
                assert lift(K, F9, F9.mul(a, b)) == K.mul(lift(K, F9, a), lift(K, F9, b))

    def test_lift_poly_across_a_tower(self):
        K = _tower_f81()
        f = P(F3, "x^3+2*x+1")
        fK = lift_poly(K, f)
        assert fK.field == K and [descend(K, F3, c) for c in fK.coeffs] == list(f.coeffs)

    def test_refusals(self):
        K = _tower_f81()
        with pytest.raises(errors.BadInput):
            descend(K, F3, K.gen())  # t is not in F_3
        with pytest.raises(errors.BadInput):
            descend(K, F3, K.embed(K.base.gen()))  # nor is the generator of F_9
        with pytest.raises(errors.IncompatibleFields):
            lift(K, F2, 1)
        with pytest.raises(errors.BadInput):
            descend(K, F2, K.one)  # F_2 is not under K at all


class TestCanonicalOrder:
    def test_least_irreducible_quartic(self):
        assert find_irreducible(F2, 4) == P(F2, "t^4+t+1")

    def test_least_irreducible_quadratic(self):
        assert find_irreducible(F2, 2) == P(F2, "t^2+t+1")

    def test_every_degree_exists(self):
        for d in range(1, 12):
            f = find_irreducible(F2, d)
            assert f.degree == d and is_irreducible(f)

    @pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (13, 1)])
    def test_least_of_the_whole_order(self, p, k):
        # the binomials x^d + c that cannot hold an irreducible are skipped;
        # the answer is still the least irreducible of the whole order
        F = canonical_extension(PrimeField(p), k)
        for d in range(2, 7):
            assert find_irreducible(F, d) == next(f for f in monic_polys(F, d) if is_irreducible(f))


# find_irreducible(F64, 8), the least irreducible found by the full search
F64_DEGREE_8 = [3, 1, 0, 1, 0, 0, 0, 0, 1]
SLOW_SEARCHES = {(81, 6), (27, 7), (64, 6), (64, 4), (32, 5), (64, 8)}
LEAST_IRREDUCIBLES_SHA256 = "d8cbace689db01c2d1a350b4639f64d2929a80c3371337585895ab4671afbe97"


class TestAffineSkip:
    """For d = p^m, m >= 2, d != 4, find_irreducible skips the affine
    p-polynomials x^d + c_{e-1} x^{e-1} + ... + c_0 (e = 3 if p = 2, else 2)."""

    @pytest.mark.parametrize("q,d", [(2, 8), (4, 8), (3, 9), (2, 16)])
    def test_skipped_candidates_are_reducible(self, q, d):
        p, k = prime_power(q)
        F = canonical_extension(PrimeField(p), k)
        e = 3 if p == 2 else 2
        divisors = [f for n in range(1, d // 2 + 1) for f in monic_polys(F, n)]
        for cand in itertools.islice(monic_polys(F, d), q ** e):
            assert any((cand % f).is_zero() for f in divisors), cand

    def test_f64_degree_8_in_bounded_time(self):
        # 262,144 affine candidates come first; a Rabin test of each over
        # F64 takes about 27 minutes on a 2-core host
        def overtime(signum, frame):
            raise TimeoutError("find_irreducible(F64, 8) ran past 10 s")

        F64 = canonical_extension(PrimeField(2), 6)
        previous = signal.signal(signal.SIGALRM, overtime)
        signal.setitimer(signal.ITIMER_REAL, 10)
        try:
            f = find_irreducible(F64, 8)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert [F64.to_int(c) for c in f.coeffs] == F64_DEGREE_8

    def test_answers_unchanged(self):
        # the least irreducibles over every F_q, q <= 101, d <= 8, as the
        # search that tests every candidate finds them; SLOW_SEARCHES take over
        # a second each on paths the skip does not touch, and (64, 8) is
        # checked above
        answers = {}
        for q in range(2, 102):
            split = prime_power(q)
            if split is None:
                continue
            F = canonical_extension(PrimeField(split[0]), split[1])
            for d in range(1, 9):
                if (q, d) not in SLOW_SEARCHES:
                    answers[f"{q},{d}"] = [F.to_int(c) for c in find_irreducible(F, d).coeffs]
        digest = hashlib.sha256(json.dumps(answers, sort_keys=True).encode()).hexdigest()
        assert digest == LEAST_IRREDUCIBLES_SHA256


class TestExtensionField:
    def test_tower(self):
        F16 = ExtensionField(F2, P(F2, "t^4+t+1").coeffs)
        r17 = find_irreducible(F2, 17)
        T = ExtensionField(F16, [F16.embed(c) for c in r17.coeffs])
        s = T.gen()
        x = T.mul(s, s)
        assert T.mul(x, T.inv(x)) == T.one
        # s lies in the copy of F_{2^17}: s^(2^17) = s
        assert T.pow(s, 2 ** 17) == s

    def test_canonical_extension_is_kept_on_the_base(self):
        F9 = ExtensionField(F3, find_irreducible(F3, 2).coeffs)
        K = canonical_extension(F9, 4)
        assert canonical_extension(F9, 4) is K and canonical_extension(F9, 1) is F9
        assert K.modulus == find_irreducible(F9, 4).coeffs and K.base is F9
        # an equal base built apart keeps its own, equal, field
        other = canonical_extension(ExtensionField(F3, find_irreducible(F3, 2).coeffs), 4)
        assert other == K and other is not K

    def test_minimal_polynomial(self):
        F16 = ExtensionField(F2, P(F2, "t^4+t+1").coeffs)
        t = F16.gen()
        assert minimal_polynomial(F16, t) == P(F2, "t^4+t+1")
        u = F16.add(F16.mul(t, t), t)  # t^2 + t generates F_4
        assert minimal_polynomial(F16, u) == P(F2, "t^2+t+1")

    @pytest.mark.parametrize("text", ["-1", "16"])
    def test_elem_from_str_refuses_non_elements(self, text):
        # a negative packed integer used to loop forever
        F16 = ExtensionField(F2, P(F2, "t^4+t+1").coeffs)
        with pytest.raises(errors.BadInput):
            F16.elem_from_str(text)
        assert F16.elem_from_str("15") == F16.from_packed_int(15)

    def test_log_tables_match_raw(self):
        for name in ("F16", "F27", "F49", "F81/F9", "F256", "F243", "F10201"):
            K = KERNEL_FIELDS[name]()
            elems = list(K.elements())
            K._ensure_tables()
            if len(elems) ** 2 <= 20000:
                pairs = [(a, b) for a in elems for b in elems]
            else:
                rng = random.Random(name)
                pairs = [(rng.choice(elems), rng.choice(elems)) for _ in range(20000)]
            for a, b in pairs:
                assert K.mul(a, b) == K._mul_raw(a, b)
            # the tables are the powers of the first primitive element in
            # elements() order, each walked by repeated raw products
            q = K.size()
            g = next(e for e in elems if e and _raw_order(K, e) == q - 1)
            x = K.one
            for i in range(q - 1):
                assert K._exp[i] == x and K._log[x] == i
                x = K._mul_raw(x, g)
            assert x == K.one

    @pytest.mark.parametrize("name", ["F256", "F243", "F2401", "F10201", "F101^4", "F81/F9"])
    def test_kernels_match_poly_oracle(self, name):
        """add/sub/neg/mul/inv/pow/to_int/from_packed_int against Poly
        arithmetic modulo the modulus, before and after the log tables
        exist (F101^4 has more than 65536 elements and never builds them)."""
        K = KERNEL_FIELDS[name]()
        base, d, q = K.base, K.degree, K.size()
        M = Poly(base, K.modulus)
        rng = random.Random(name)

        def elem():
            n = rng.choice([0, 1, d // 2, d, d, d])
            return Poly(base, [base.from_packed_int(rng.randrange(base.size())) for _ in range(n)])

        polys = [Poly(base, ()), Poly(base, (base.one,))] + [elem() for _ in range(40)]
        pairs = [(a, b) for a in polys for b in polys[:12]]
        for tables in (False, True):
            if tables:
                K._ensure_tables()
            assert (K._exp is not None) == (tables and q <= K._TABLE_LIMIT)
            for A, B in pairs:
                a, b = A.coeffs, B.coeffs
                assert K.add(a, b) == (A + B).coeffs
                assert K.sub(a, b) == (A - B).coeffs
                assert K.mul(a, b) == ((A * B) % M).coeffs
            for A in polys:
                a = A.coeffs
                assert K.neg(a) == (-A).coeffs
                n = _oracle_int(K, a)
                assert K.to_int(a) == n and 0 <= n < q
                assert K.from_packed_int(n) == a
                if not a:
                    continue
                assert ((A * Poly(base, K.inv(a))) % M).coeffs == K.one
                for e in (0, 1, 2, 7, q - 2, q, 3 * q + 5):
                    assert K.pow(a, e) == A.pow_mod(e, M).coeffs
                assert K.pow(a, -3) == K.inv(K.pow(a, 3))

    def test_reducible_modulus_refused_by_tables(self):
        # x^2 + 1 = (x + 1)^2 over F2: no generator, and the walk used to hang
        R = ExtensionField(F2, (1, 0, 1), check=False)
        with pytest.raises(errors.NotIrreducible):
            R.inv((1, 1))


def _fresh_tower(name):
    """A fresh tower field over a fresh base, its tables not yet built."""
    (p, k), m = {"F16/F4": ((2, 2), 2), "F64/F8": ((2, 3), 2), "F81/F9": ((3, 2), 2),
                 "F8^4": ((2, 3), 4), "F9^4": ((3, 2), 4)}[name]
    base = ExtensionField(PrimeField(p), find_irreducible(PrimeField(p), k).coeffs)
    return ExtensionField(base, find_irreducible(base, m).coeffs)


def _raw_pow(K, a, e):
    acc = K.one
    for bit in bin(e)[2:]:
        acc = K._mul_raw(acc, acc)
        if bit == "1":
            acc = K._mul_raw(acc, a)
    return acc


class TestTowerTables:
    @pytest.mark.parametrize("name", ["F16/F4", "F64/F8", "F81/F9", "F8^4", "F9^4"])
    def test_tower_tables(self, name):
        K = _fresh_tower(name)
        q = K.size()
        primes = [r for r in range(2, q) if (q - 1) % r == 0 and all(r % s for s in range(2, r))]
        g = next(e for e in K.elements()
                 if e and all(_raw_pow(K, e, (q - 1) // r) != K.one for r in primes))
        K._ensure_tables()
        assert len(K._exp) == q - 1 and all(K._log[K._exp[i]] == i for i in range(q - 1))
        # exp[i] is the i-th raw power of the first primitive element:
        # every one of them for the small fields, a sample for F_{8^4}, F_{9^4}
        indices = range(q - 1) if q <= 256 else random.Random(name).sample(range(q - 1), 300)
        for i in indices:
            assert K._exp[i] == _raw_pow(K, g, i)
        # one object per coefficient value, read from the base's elements
        coeffs = [c for e in K._exp for c in e]
        assert len({id(c) for c in coeffs}) == len(set(coeffs)) == K.base.size()

    @pytest.mark.parametrize("name,limit_mib", [("F9^4", 1.2), ("F8^4", 0.75)])
    def test_table_memory(self, name, limit_mib):
        # about 0.95 and 0.56 MiB with shared base elements; a fresh tuple
        # per coefficient takes 2.15 and 1.37 MiB
        K = _fresh_tower(name)
        gc.collect()
        tracemalloc.start()
        try:
            K._ensure_tables()
            used = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert used < limit_mib * 2**20


def _power_walk(mul, one, a, steps):
    """1, a, a^2, ... by repeated multiplication, until a power repeats (in
    a finite ring every power sequence does) or after `steps` products.
    Returns the walk and the index of its first repeated power, or None if
    no power repeated."""
    seen, walk, x = {}, [], one
    for _ in range(steps):
        if x in seen:
            return walk, seen[x]
        seen[x] = len(walk)
        walk.append(x)
        x = mul(x, a)
    return walk, None


def _walk_power(walk, start, e):
    """a^e read off a power walk: directly, or from its cycle."""
    if e < len(walk):
        return walk[e]
    assert start is not None, f"the walk never cycled and stops short of {e}"
    return walk[start + (e - start) % (len(walk) - start)]


def _linear(K, a, lc=None):
    """lc * (x - a), lc = 1 by default."""
    lc = K.one if lc is None else lc
    return Poly(K, (K.neg(K.mul(lc, a)), lc))


def _case(K, *moduli):
    return K, [P(K, m) for m in moduli]


def _split_case(K, seed):
    """A monic product of three distinct linear factors, a non-monic
    product of two, and a non-monic degree-1 modulus: every power walk
    modulo these cycles within q steps."""
    a, b, c, lc = (K.from_packed_int(n) for n in random.Random(seed).sample(range(2, K.size()), 4))
    return K, [
        _linear(K, a) * _linear(K, b) * _linear(K, c),
        _linear(K, a, lc) * _linear(K, b),
        _linear(K, c, lc),
    ]


# field -> moduli: monic (the first one irreducible over a prime field),
# non-monic, degree 1.  F2 has no non-monic polynomial; x^4 stands in, with
# a nilpotent x.  Over Q only torsion bases cycle: x is a root of unity
# modulo each modulus.
POWER_CASES = {
    "F2": lambda: _case(F2, "x^5+x^2+1", "x^4", "x^6+x^5+x^4+x^3+x^2+x+1", "x+1"),
    "F3": lambda: _case(F3, "x^4+x+2", "2*x^3+x+1", "2*x+1"),
    "F101": lambda: _case(PrimeField(101), "x^2+2", "x^3-13*x^2+47*x-35", "3*x^2-33*x+54", "7*x+3"),
    "F256": lambda: _split_case(KERNEL_FIELDS["F256"](), 256),
    "F81/F9": lambda: _split_case(KERNEL_FIELDS["F81/F9"](), 81),
    "Q": lambda: _case(QQ, "x^3-1", "2*x^2+2", "3*x+3"),
}


def _exponents(q, seed):
    rng = random.Random(seed)
    near_q = [q - 1, q, q + 1] if q else []
    return (
        [0, 1, 2, 3] + near_q + [2**k + s for k in (5, 8, 13) for s in (-1, 1)]
        + [rng.getrandbits(40) | 1 << 39 for _ in range(3)]
    )


class TestPowering:
    """Poly.pow_mod and Field.pow against repeated multiplication: the
    powers of a base are walked until they repeat, and a 40-bit exponent is
    read off the cycle."""

    @pytest.mark.parametrize("name", sorted(POWER_CASES))
    def test_pow_mod_matches_repeated_products(self, name):
        K, moduli = POWER_CASES[name]()
        rng = random.Random(name)
        exps = _exponents(K.size(), name)
        for M in moduli:
            def mul(u, v):
                return u * v % M

            one = Poly(K, (K.one,)) % M
            if K.is_finite():  # bases up to twice the degree of M, reduced first
                bases = [Poly(K, ()), Poly(K, (K.one,)), P(K, "x")] + [
                    Poly(K, [
                        K.from_packed_int(rng.randrange(K.size()))
                        for _ in range(rng.randrange(1, 2 * M.degree + 1))
                    ])
                    for _ in range(4)
                ]
            else:
                bases = [Poly(K, ()), P(K, "-1"), P(K, "x"), P(K, "-x^4")]
            for A in bases:
                walk, start = _power_walk(mul, one, A % M, 20000)
                for e in exps:
                    assert A.pow_mod(e, M) == _walk_power(walk, start, e), (A, e, M)
            if not K.is_finite():  # no cycle: small exponents only
                for A in (P(K, "x+1"), P(K, "3/2*x^3-x")):
                    walk, start = _power_walk(mul, one, A % M, 66)
                    for e in [e for e in exps if e <= 65]:
                        assert A.pow_mod(e, M) == _walk_power(walk, start, e), (A, e, M)

    def test_pow_mod_edge_exponents(self):
        # e = 0 gives 1 reduced mod the modulus: 0 modulo a constant
        assert P(F3, "x+1").pow_mod(0, P(F3, "2")) == Poly(F3, ())
        assert P(F3, "x+1").pow_mod(0, P(F3, "x^2+1")) == Poly(F3, (1,))
        with pytest.raises(ValueError):
            P(F3, "x+1").pow_mod(-1, P(F3, "x^2+1"))

    @pytest.mark.parametrize("name", sorted(POWER_CASES))
    def test_field_pow_matches_repeated_products(self, name):
        K = POWER_CASES[name]()[0]
        rng = random.Random(name)
        exps = _exponents(K.size(), name)
        if K.is_finite():
            elems = [K.zero, K.one] + [K.from_packed_int(rng.randrange(K.size())) for _ in range(6)]
            short = []
        else:
            elems = [K.zero, K.one, -K.one]
            short = [Fraction(3, 2), Fraction(-2, 7)]
        pows = [K.pow]
        if isinstance(K, ExtensionField):
            pows.append(lambda a, e: Field.pow(K, a, e))  # without the log tables
        for a in elems + short:
            walk, start = _power_walk(K.mul, K.one, a, 66 if a in short else 20000)
            for e in exps if a not in short else [e for e in exps if e <= 65]:
                want = _walk_power(walk, start, e)
                for pow_ in pows:
                    assert pow_(a, e) == want, (a, e)
                    if a and e:
                        assert K.mul(pow_(a, -e), want) == K.one, (a, -e)


def _is_element(K, c):
    """c is a normalized element of K, of K's own type."""
    if isinstance(K, Rationals):
        return type(c) is Fraction
    if isinstance(K, PrimeField):
        return type(c) is int and 0 <= c < K.p
    return (
        type(c) is tuple and len(c) <= K.degree and (not c or bool(c[-1]))
        and all(_is_element(K.base, x) for x in c)
    )


def _assert_normalized(f):
    assert type(f.coeffs) is tuple and (not f.coeffs or bool(f.coeffs[-1]))
    assert all(_is_element(f.field, c) for c in f.coeffs), f.coeffs
    assert Poly(f.field, f.coeffs) == f


NORMALIZE_FIELDS = {
    "Q": lambda: QQ,
    "F7": lambda: PrimeField(7),
    "F49": KERNEL_FIELDS["F49"],
    "F81/F9": KERNEL_FIELDS["F81/F9"],
}


@pytest.mark.parametrize("name", sorted(NORMALIZE_FIELDS))
def test_internal_results_stay_normalized(name):
    """The results of +, -, *, scale, divmod, gcd, monic and pow_mod are
    built without normalizing their coefficients again; they must equal
    what Poly makes of the same coefficients, element types included."""
    K = NORMALIZE_FIELDS[name]()
    rng = random.Random(name)

    def elem():
        if not K.is_finite():
            return Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
        return K.from_packed_int(rng.randrange(K.size()))

    polys = [Poly(K, [elem() for _ in range(rng.randrange(0, 7))]) for _ in range(12)]
    polys += [P(K, "x^3+2*x+1"), P(K, "-x^3+x^2"), P(K, "1")]  # leading terms cancel
    for a in polys:
        _assert_normalized(a)
        for r in (-a, a * 5, a.scale(elem()), a.monic(), a + (-a), a - a):
            _assert_normalized(r)
        for b in polys:
            for r in (a + b, a - b, a * b, a.gcd(b)):
                _assert_normalized(r)
            if not b.is_zero():
                for r in a.divmod(b) + (a.pow_mod(3, b),):
                    _assert_normalized(r)


class TestResultant:
    def test_linear(self):
        a, b = Fraction(3), Fraction(5)
        f = Poly(QQ, (-a, 1))
        g = Poly(QQ, (-b, 1))
        assert sylvester_resultant(f, g) == a - b

    def test_common_root(self):
        f = P(QQ, "x^2-1")
        g = P(QQ, "x^2-3*x+2")  # shares root 1
        assert sylvester_resultant(f, g) == 0

    def test_product_formula(self):
        f = P(QQ, "x^2-1")
        g = P(QQ, "x^2-4")
        # lc(f)^deg g * g(1) * g(-1) = (-3) * (-3)
        assert sylvester_resultant(f, g) == 9


class TestJson:
    @pytest.mark.parametrize(
        "field",
        [QQ, F2, PrimeField(7), ExtensionField(F2, (1, 1, 1))],
    )
    def test_field_roundtrip(self, field):
        assert field_from_json(field_to_json(field)) == field

    def test_poly_roundtrip(self):
        for field, s in [(QQ, "x^3-1/2*x+7"), (F2, "x^4+x+1")]:
            f = P(field, s)
            assert poly_from_json(poly_to_json(f)) == f

    def test_poly_roundtrip_fq(self):
        F4 = ExtensionField(F2, (1, 1, 1))
        f = Poly(F4, (F4.gen(), F4.one, F4.one))
        assert poly_from_json(poly_to_json(f)) == f


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=9),
    st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=9),
)
def test_gcd_divides_both(a, b):
    f, g = Poly(F3, a), Poly(F3, b)
    if f.is_zero() or g.is_zero():
        return
    d = f.gcd(g)
    assert (f % d).is_zero() and (g % d).is_zero()


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=1), min_size=2, max_size=10))
def test_factor_product_property(coeffs):
    f = Poly(F2, coeffs + [1])
    prod = Poly(F2, (F2.one,))
    for g, m in factor_over_prime_field(f):
        for _ in range(m):
            prod = prod * g
    assert prod == f
