from fractions import Fraction
import random

import pytest
from hypothesis import given, settings, strategies as st

from cremona_kit import errors
from cremona_kit.fields import (
    ExtensionField,
    IRREDUCIBLE,
    Poly,
    PrimeField,
    QQ,
    REDUCIBLE,
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
