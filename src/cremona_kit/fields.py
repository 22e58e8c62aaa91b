"""Exact arithmetic over Q and F_{p^k}, univariate polynomials, factorization
over finite fields, irreducibility certificates, and the extension-field
helpers: Frobenius conjugates, minimal polynomials, lifting into extensions
and descending back.

Field elements are plain immutable values; the field object carries the
operations:

  * Rationals()             -- elements are fractions.Fraction
  * PrimeField(p)           -- elements are ints in {0, ..., p-1}
  * ExtensionField(base, m) -- elements are trimmed tuples of base elements,
                               i.e. residues of base[t]/(m)

Over a PrimeField base the coefficients of an extension element are ints
mod p, and the extension adds, negates, multiplies and packs them inline
with integer arithmetic, one reduction mod p per coefficient; over an
extension base every coefficient operation is a call into the base field.

ExtensionField allows an extension base, which gives the internal tower
fields used for computations in composita (e.g. F_16[s]/(r) for a degree-17
irreducible r); only prime-base extensions appear in the public JSON schema.

Polynomials are coefficient tuples in ascending degree with a nonzero
leading coefficient; the zero polynomial has an empty tuple.  The canonical
order on polynomials is (degree, coefficient tuple read from the leading
coefficient down), which makes t^4+t+1 the least irreducible quartic over
F_2 and fixes determinism for every downstream key.

No floating point is used anywhere in this module.
"""

from fractions import Fraction
import itertools
import operator
import random

from .errors import (
    BadInput,
    ConstantPolynomial,
    IncompatibleFields,
    NotIrreducible,
    UnsupportedField,
    ZeroPolynomial,
)


# ---------------------------------------------------------------------------
# fields

EXT_DEGREE_CAP = 64  # desk scale: largest extension degree over any base


class Field:
    """Common interface; subclasses provide add/sub/mul/neg/inv/from_int."""

    kind = None

    def is_finite(self):
        return self.size() is not None

    def size(self):
        return None

    def characteristic(self):
        raise NotImplementedError

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, e):
        """a^e by left-to-right binary powering: one squaring per exponent
        bit after the leading one, and one product per set bit."""
        if e < 0:
            return self.pow(self.inv(a), -e)
        if not e:
            return self.one
        acc = a
        for bit in bin(e)[3:]:
            acc = self.mul(acc, acc)
            if bit == "1":
                acc = self.mul(acc, a)
        return acc

    def is_zero(self, a):
        return a == self.zero

    def pth_root(self, a):
        """Inverse of Frobenius x -> x^p; identity on prime fields."""
        p = self.characteristic()
        if p == 0:
            raise UnsupportedField("p-th root needs positive characteristic")
        m = 0
        q = self.size()
        while p ** (m + 1) <= q:
            m += 1
        return self.pow(a, p ** (m - 1)) if m > 1 else a

    def elements(self):
        raise UnsupportedField("cannot enumerate an infinite field")

    # canonical integer encoding used for sort keys and JSON strings
    def to_int(self, a):
        raise NotImplementedError

    def sort_key(self, a):
        return self.to_int(a)


class Rationals(Field):
    kind = "Q"
    zero = Fraction(0)
    one = Fraction(1)

    def characteristic(self):
        return 0

    def normalize(self, a):
        return Fraction(a)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("rational inverse of zero")
        return 1 / a

    def from_int(self, n):
        return Fraction(n)

    def sort_key(self, a):
        return a

    def elem_to_str(self, a):
        return str(a)

    def elem_from_str(self, s):
        return Fraction(s)

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Q"


QQ = Rationals()


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n):
    """Miller-Rabin to the first 12 prime bases.  No composite below
    3.1e23 is a strong pseudoprime to all twelve (Sorenson & Webster,
    Math. Comp. 2017), so the answer is exact for every machine word."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _iroot(n, k):
    """Largest r with r**k <= n, by integer Newton iteration from above."""
    if n < 2:
        return n
    r = 1 << -(-n.bit_length() // k)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def prime_power(q):
    """(p, k) with q = p**k and p prime, or None."""
    for k in range(1, q.bit_length()):
        p = _iroot(q, k)
        if p**k == q and _is_prime(p):
            return p, k
    return None


class PrimeField(Field):
    kind = "Fp"

    def __init__(self, p):
        if not _is_prime(p):
            raise BadInput(f"{p} is not prime")
        if p >= 2 ** 63:
            raise BadInput("p must fit in a machine word")
        self.p = p
        self.zero = 0
        self.one = 1 % p

    def characteristic(self):
        return self.p

    def size(self):
        return self.p

    def normalize(self, a):
        return int(a) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero in F_p")
        return pow(a, self.p - 2, self.p)

    def from_int(self, n):
        return n % self.p

    def elements(self):
        return range(self.p)

    def to_int(self, a):
        return a

    def from_packed_int(self, n):
        return n

    def elem_to_str(self, a):
        return str(a)

    def elem_from_str(self, s):
        return int(s) % self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return f"F{self.p}"


class ExtensionField(Field):
    """base[t]/(modulus); modulus monic irreducible over base.

    Elements are trimmed tuples of base elements (ascending powers of the
    residue of t).  Base elements embed as length-1 tuples; zero is ().

    Over a PrimeField base the coefficients are ints mod p, and add, sub,
    neg, _mul_raw and to_int work on them inline (``self._p``); over any
    other base they go through the base field's own operations.  Fields of
    at most _TABLE_LIMIT elements multiply, invert and raise to powers
    through log/exp tables built on first use and kept on the instance.
    """

    kind = "Fq"

    def __init__(self, base, modulus_coeffs, check=True):
        self.base = base
        mod = tuple(base.normalize(c) for c in modulus_coeffs)
        while mod and base.is_zero(mod[-1]):
            mod = mod[:-1]
        if len(mod) < 3:
            raise BadInput("extension modulus must have degree >= 2")
        if len(mod) - 1 > EXT_DEGREE_CAP:
            raise BadInput(f"extension degree capped at {EXT_DEGREE_CAP} (desk scale)")
        if mod[-1] != base.one:
            raise BadInput("extension modulus must be monic")
        self.modulus = mod
        self.degree = len(mod) - 1
        if check and base.is_finite():
            m = Poly(base, mod)
            if not is_irreducible(m):
                raise NotIrreducible(f"modulus {m} is reducible over {base}")
        b = base.size()
        self.q = None if b is None else b ** self.degree
        self._p = base.p if type(base) is PrimeField else 0  # 0: generic path
        self.zero = ()
        self.one = (base.one,)
        self._log = None  # lazy log/exp tables for small fields
        self._exp = None
        # reduction table: t^(degree+i) mod modulus, i = 0..degree-1
        self._red = []
        top = [base.neg(c) for c in mod[:-1]]
        row = list(top)
        for _ in range(self.degree - 1):
            self._red.append(tuple(row))
            carry = row[-1]
            row = [base.zero] + row[:-1]
            if carry:
                row = [base.add(r, base.mul(carry, c)) for r, c in zip(row, top)]
        self._red.append(tuple(row))

    def characteristic(self):
        return self.base.characteristic()

    def size(self):
        return self.q

    def is_zero(self, a):
        return not a

    @staticmethod
    def _trim(coeffs):
        n = len(coeffs)
        while n and not coeffs[n - 1]:
            n -= 1
        return tuple(coeffs[:n])

    def normalize(self, a):
        if isinstance(a, tuple):
            return self._trim([self.base.normalize(c) for c in a])
        return self._trim((self.base.normalize(a),))

    def embed(self, a):
        """Embed a base-field element."""
        a = self.base.normalize(a)
        return (a,) if a else ()

    def gen(self):
        return (self.base.zero, self.base.one)

    def add(self, a, b):
        if len(a) < len(b):
            a, b = b, a
        p = self._p
        if p:
            if len(a) > len(b):  # the top coefficient of a survives
                return tuple([(x + y) % p for x, y in zip(a, b)]) + a[len(b):]
            return self._trim([(x + y) % p for x, y in zip(a, b)])
        add = self.base.add
        out = list(a)
        for i, c in enumerate(b):
            out[i] = add(out[i], c)
        return self._trim(out)

    def neg(self, a):
        p = self._p
        if p:
            return tuple([-c % p for c in a])
        return tuple(self.base.neg(c) for c in a)

    def sub(self, a, b):
        p = self._p
        if p:
            la, lb = len(a), len(b)
            out = [(x - y) % p for x, y in zip(a, b)]
            if la > lb:
                return tuple(out) + a[lb:]
            if lb > la:
                return tuple(out) + tuple([-y % p for y in b[la:]])
            return self._trim(out)
        return self.add(a, self.neg(b))

    _TABLE_LIMIT = 65536

    def _ensure_tables(self):
        """log/exp tables over the first primitive element g in elements()
        order (small fields).  The powers of g are walked as coordinate
        vectors over F_p under the F_p-linear map x -> g*x: one dot product
        over ints per coordinate and step instead of a field product."""
        if self._exp is not None:
            return True
        q = self.q
        if q is None or q > self._TABLE_LIMIT:
            return False
        one, primes = self.one, _prime_divisors(q - 1)
        g = next(
            c for c in self.elements()
            if c and all(Field.pow(self, c, (q - 1) // r) != one for r in primes)
        )
        p = self.characteristic()
        basis, w = [], 1
        while w < q:
            basis.append(self.from_packed_int(w))
            w *= p
        cols = []  # column j: the coordinates of g * basis[j]
        for b in basis:
            n, col = self.to_int(self._mul_raw(g, b)), []
            for _ in basis:
                n, r = divmod(n, p)
                col.append(r)
            cols.append(col)
        rows = list(zip(*cols))
        exp = [one]
        v = unit = [1] + [0] * (len(basis) - 1)
        for _ in range(q - 2):
            v = [sum(map(operator.mul, row, v)) % p for row in rows]
            exp.append(self._from_digits(v))
        log = {e: i for i, e in enumerate(exp)}
        if len(log) != q - 1 or [sum(map(operator.mul, row, v)) % p for row in rows] != unit:
            # g has order q - 1 and its powers are distinct only in a field
            raise NotIrreducible(f"modulus {Poly(self.base, self.modulus)} is reducible")
        self._exp, self._log = exp, log
        return True

    def mul(self, a, b):
        if not a or not b:
            return ()
        if self._exp is not None:
            return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]
        return self._mul_raw(a, b)

    def _mul_raw(self, a, b):
        if not a or not b:
            return ()
        d = self.degree
        red = self._red
        p = self._p
        if p:
            prod = [0] * (len(a) + len(b) - 1)
            for i, ai in enumerate(a):
                if ai:
                    for j, bj in enumerate(b, i):
                        prod[j] += ai * bj
            for i in range(d, len(prod)):
                c = prod[i] % p
                if c:
                    for j, r in enumerate(red[i - d]):
                        prod[j] += c * r
            return self._trim([c % p for c in prod[:d]])
        base = self.base
        add, mul = base.add, base.mul
        prod = [base.zero] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j, bj in enumerate(b, i):
                prod[j] = add(prod[j], mul(ai, bj))
        if len(prod) > d:
            out = prod[:d]
            for i in range(d, len(prod)):
                c = prod[i]
                if not c:
                    continue
                for j, r in enumerate(red[i - d]):
                    out[j] = add(out[j], mul(c, r))
            prod = out
        return self._trim(prod)

    def pow(self, a, e):
        if not a and e > 0:
            return a
        if self._exp is None and self.q is not None:
            self._ensure_tables()
        if self._exp is not None and a:
            n = self.q - 1
            return self._exp[(self._log[a] * (e % n)) % n]
        return super().pow(a, e)

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero in extension field")
        if self._exp is None and self.q is not None:
            self._ensure_tables()
        if self._exp is not None:
            return self._exp[-self._log[a] % (self.q - 1)]
        # extended Euclid in base[t]
        f = Poly(self.base, self.modulus)
        g = Poly(self.base, a)
        s_prev, s_cur = Poly(self.base, ()), Poly(self.base, (self.base.one,))
        r_prev, r_cur = f, g
        while not r_cur.is_zero():
            q, r = r_prev.divmod(r_cur)
            r_prev, r_cur = r_cur, r
            s_prev, s_cur = s_cur, s_prev - q * s_cur
        # r_prev = gcd = unit (modulus irreducible)
        lc_inv = self.base.inv(r_prev.coeffs[-1])
        coeffs = tuple(self.base.mul(lc_inv, c) for c in s_prev.coeffs)
        return self.normalize(coeffs)

    def from_int(self, n):
        return self.embed(self.base.from_int(n))

    def elements(self):
        base_elems = list(self.base.elements())
        for tup in itertools.product(base_elems, repeat=self.degree):
            yield self._trim(tuple(reversed(tup)))

    def to_int(self, a):
        val = 0
        p = self._p
        if p:
            for c in reversed(a):
                val = val * p + c
            return val
        b, to_int = self.base.size(), self.base.to_int
        for c in reversed(a):
            val = val * b + to_int(c)
        return val

    def from_packed_int(self, n):
        b = self.base.size()
        coeffs = []
        while n:
            n, r = divmod(n, b)
            coeffs.append(self.base.from_packed_int(r))
        return self._trim(tuple(coeffs))

    def _from_digits(self, v):
        """The element whose coordinates over F_p, least significant first
        as in to_int, are the ints v."""
        if self._p:
            return self._trim(v)
        k = len(v) // self.degree
        from_digits = self.base._from_digits
        return self._trim([from_digits(v[i:i + k]) for i in range(0, len(v), k)])

    def elem_to_str(self, a):
        return str(self.to_int(a))

    def elem_from_str(self, s):
        n = int(s)
        if not 0 <= n < self.q:  # from_packed_int loops forever on n < 0
            raise BadInput(f"{s!r} is not an element of {self}")
        return self.from_packed_int(n)

    def __eq__(self, other):
        return (
            isinstance(other, ExtensionField)
            and other.base == self.base
            and other.modulus == self.modulus
        )

    def __hash__(self):
        return hash(("Fq", self.base, self.modulus))

    def __repr__(self):
        return f"{self.base}[t]/({Poly(self.base, self.modulus)})"


def field_to_json(field):
    if isinstance(field, Rationals):
        return {"kind": "Q"}
    if isinstance(field, PrimeField):
        return {"kind": "Fp", "p": field.p}
    if isinstance(field, ExtensionField):
        if not isinstance(field.base, PrimeField):
            raise UnsupportedField("only prime-base extensions serialize")
        return {"kind": "Fq", "p": field.base.p, "modulus": [int(c) for c in field.modulus]}
    raise UnsupportedField(repr(field))


def field_from_json(obj):
    kind = obj.get("kind")
    if kind == "Q":
        return QQ
    if kind == "Fp":
        return PrimeField(obj["p"])
    if kind == "Fq":
        return ExtensionField(PrimeField(obj["p"]), tuple(obj["modulus"]))
    raise BadInput(f"unknown field kind {kind!r}")


# ---------------------------------------------------------------------------
# polynomials


class Poly:
    """Univariate polynomial over a Field, coefficients ascending."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        cs = [field.normalize(c) for c in coeffs]
        while cs and field.is_zero(cs[-1]):
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def _of(cls, field, coeffs):
        """A polynomial from coefficients that are already normalized
        elements of field, such as the results of its operations: trailing
        zeros are trimmed (zero is falsy in every field here), nothing is
        normalized again."""
        n = len(coeffs)
        while n and not coeffs[n - 1]:
            n -= 1
        p = object.__new__(cls)
        p.field = field
        p.coeffs = tuple(coeffs[:n])
        return p

    @property
    def degree(self):
        return len(self.coeffs) - 1  # zero polynomial has degree -1

    def is_zero(self):
        return not self.coeffs

    def is_constant(self):
        return len(self.coeffs) <= 1

    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == self.field.one

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and other.field == self.field
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def sort_key(self):
        # degree first, then coefficients from the top down
        return (self.degree, tuple(self.field.sort_key(c) for c in reversed(self.coeffs)))

    def __add__(self, other):
        f = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = f.add(out[i], c)
        return Poly._of(f, out)

    def __neg__(self):
        f = self.field
        return Poly._of(f, [f.neg(c) for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        f = self.field
        if isinstance(other, Poly):
            if self.is_zero() or other.is_zero():
                return Poly._of(f, ())
            out = [f.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if f.is_zero(a):
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] = f.add(out[i + j], f.mul(a, b))
            return Poly._of(f, out)
        return self.scale(other)

    def scale(self, c):
        f = self.field
        c = f.normalize(c)
        return Poly._of(f, [f.mul(c, a) for a in self.coeffs])

    def divmod(self, other):
        f = self.field
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Poly._of(f, ()), self
        quot = [f.zero] * (dq + 1)
        lc = other.coeffs[-1]
        inv_lc = None if lc == f.one else f.inv(lc)  # most divisors are monic
        for k in range(dq, -1, -1):
            top = rem[k + len(other.coeffs) - 1]
            if f.is_zero(top):
                continue
            q = top if inv_lc is None else f.mul(top, inv_lc)
            quot[k] = q
            for j, b in enumerate(other.coeffs):
                rem[k + j] = f.sub(rem[k + j], f.mul(q, b))
        return Poly._of(f, quot), Poly._of(f, rem)

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def monic(self):
        if self.is_zero() or self.is_monic():
            return self
        return self.scale(self.field.inv(self.coeffs[-1]))

    def gcd(self, other):
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    def derivative(self):
        f = self.field
        return Poly(
            f,
            [f.mul(f.from_int(i), c) for i, c in enumerate(self.coeffs)][1:],
        )

    def __call__(self, x):
        f = self.field
        acc = f.zero
        for c in reversed(self.coeffs):
            acc = f.add(f.mul(acc, x), c)
        return acc

    def pow_mod(self, e, mod):
        """self^e mod mod by left-to-right binary powering from the reduced
        base: one squaring per exponent bit after the leading one, and one
        product per set bit.  The result is reduced mod mod, also for e = 0."""
        if e < 0:
            raise ValueError(f"pow_mod needs a nonnegative exponent, got {e}")
        if not e:
            return Poly._of(self.field, (self.field.one,)) % mod
        base = acc = self % mod
        for bit in bin(e)[3:]:
            acc = acc * acc % mod
            if bit == "1":
                acc = acc * base % mod
        return acc

    def __repr__(self):
        return poly_to_string(self)


def poly_to_string(p, var="x"):
    if p.is_zero():
        return "0"
    f = p.field
    parts = []
    for i in range(p.degree, -1, -1):
        c = p.coeffs[i]
        if f.is_zero(c):
            continue
        cs = f.elem_to_str(c)
        if i == 0:
            parts.append(cs)
        else:
            head = "" if cs == "1" else cs + "*"
            parts.append(f"{head}{var}" + (f"^{i}" if i > 1 else ""))
    return "+".join(parts).replace("+-", "-")


def poly_from_string(field, s):
    """Parse 'x^17-2', 't^4+t+1', '3/2*y^2 - y + 1'.  Any single letter works."""
    import re

    s = s.replace(" ", "").replace("**", "^")
    if not s:
        raise BadInput("empty polynomial string")
    letters = sorted(set(re.findall(r"[a-zA-Z]", s)))
    if len(letters) > 1:
        raise BadInput(f"polynomial must be univariate, found {letters}")
    var = letters[0] if letters else "x"
    term_re = re.compile(
        r"([+-]?)((?:\d+(?:/\d+)?)?)(?:\*?(%s)(?:\^(\d+))?)?" % re.escape(var)
    )
    coeffs = {}
    pos = 0
    while pos < len(s):
        m = term_re.match(s, pos)
        if not m or m.end() == pos:
            raise BadInput(f"cannot parse polynomial near {s[pos:]!r}")
        sign, num, v, exp = m.groups()
        if not num and not v:
            raise BadInput(f"cannot parse polynomial near {s[pos:]!r}")
        e = int(exp) if exp else (1 if v else 0)
        try:
            c = Fraction(num or 1)
        except ZeroDivisionError:
            raise BadInput(f"zero denominator in {num!r}")
        if sign == "-":
            c = -c
        if field.characteristic() == 0:
            val = c
        elif c.denominator != 1:
            den = field.from_int(c.denominator)
            if field.is_zero(den):
                raise BadInput(f"denominator of {num!r} vanishes in {field}")
            val = field.div(field.from_int(c.numerator), den)
        else:
            val = field.from_int(c.numerator)
        coeffs[e] = field.add(coeffs.get(e, field.zero), field.normalize(val))
        pos = m.end()
    top = max(coeffs) if coeffs else 0
    return Poly(field, [coeffs.get(i, field.zero) for i in range(top + 1)])


def poly_to_json(p):
    return {
        "field": field_to_json(p.field),
        "coeffs": [p.field.elem_to_str(c) for c in p.coeffs],
    }


def poly_from_json(obj):
    field = field_from_json(obj["field"])
    return Poly(field, [field.elem_from_str(s) for s in obj["coeffs"]])


# ---------------------------------------------------------------------------
# canonical enumeration and irreducibility over finite fields


def monic_polys(field, degree):
    """All monic polynomials of the given degree in canonical order (top
    coefficient first), read lazily off a base-q counter whose lowest digit
    is the constant term."""
    if not field.is_finite():
        raise UnsupportedField("cannot enumerate an infinite field")
    q, elem, one = field.size(), field.from_packed_int, field.one
    for n in range(q ** degree):
        coeffs = []
        for _ in range(degree):
            n, r = divmod(n, q)
            coeffs.append(elem(r))
        coeffs.append(one)
        yield Poly._of(field, coeffs)


def _prime_divisors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _frobenius_powers_of_x(f, count):
    """[x^(q^i) mod f for i = 1..count] over the coefficient field of f."""
    q = f.field.size()
    x = Poly(f.field, (f.field.zero, f.field.one))
    out = []
    g = x
    for _ in range(count):
        g = g.pow_mod(q, f)
        out.append(g)
    return out


def is_irreducible(f):
    """Rabin's test over a finite field."""
    if not f.field.is_finite():
        raise UnsupportedField("is_irreducible needs a finite field")
    n = f.degree
    if n <= 0:
        return False
    if n == 1:
        return True
    f = f.monic()
    x = Poly(f.field, (f.field.zero, f.field.one))
    powers = _frobenius_powers_of_x(f, n)
    if powers[n - 1] != x % f:
        return False
    for r in _prime_divisors(n):
        g = powers[n // r - 1] - x
        if not g.gcd(f).is_constant():
            return False
    return True


def find_irreducible(field, degree):
    """Canonically least monic irreducible of the given degree."""
    if degree < 1:
        raise BadInput(f"no irreducible polynomial has degree {degree}")
    if degree == 1:
        return Poly(field, (field.zero, field.one))
    for cand in monic_polys(field, degree):
        if is_irreducible(cand):
            return cand
    raise NotIrreducible(f"no irreducible of degree {degree} over {field}")


def canonical_extension(base, n):
    """base[t]/(find_irreducible(base, n)), and base itself for n = 1.

    The field is a pure function of (base, n), so it is kept on the base
    instance: every caller with this base gets the same object, and its
    log/exp tables are built once and live as long as the base does."""
    if n == 1:
        return base
    if n > EXT_DEGREE_CAP:  # refused before the search for the modulus
        raise BadInput(f"extension degree capped at {EXT_DEGREE_CAP} (desk scale)")
    memo = getattr(base, "_extensions", None)
    if memo is None:  # set, not base.__dict__: that would slow base's own attribute loads
        memo = base._extensions = {}
    if n not in memo:
        memo[n] = ExtensionField(base, find_irreducible(base, n).coeffs, check=False)
    return memo[n]


# ---------------------------------------------------------------------------
# factorization over finite fields


def _ddf(f):
    """Distinct-degree split of a squarefree monic f: [(product, degree)]."""
    q = f.field.size()
    x = Poly(f.field, (f.field.zero, f.field.one))
    out = []
    rest = f
    h = x
    d = 0
    while rest.degree > 0:
        d += 1
        if 2 * d > rest.degree:
            out.append((rest, rest.degree))
            break
        h = h.pow_mod(q, rest)
        g = (h - x).gcd(rest)
        if g.degree > 0:
            out.append((g, d))
            rest = rest // g
            h = h % rest
    return out


def _edf(f, d, rng):
    """Split monic squarefree f, all of whose factors have degree d."""
    if f.degree == d:
        return [f]
    g = _edf_split(f, d, rng)
    return _edf(g, d, rng) + _edf(f // g, d, rng)


def split_root(f, rng):
    """One root of a monic squarefree f that splits into linear factors:
    degree-1 equal-degree splitting, always into the smaller part."""
    while f.degree > 1:
        g = _edf_split(f, 1, rng)
        h = f // g
        f = g if g.degree <= h.degree else h
    return f.field.neg(f.coeffs[0])


def _edf_split(f, d, rng):
    """A proper monic factor of monic squarefree f of degree > d, all of
    whose irreducible factors have degree d."""
    field = f.field
    q = field.size()
    p = field.characteristic()
    n = f.degree
    while True:
        a = Poly(field, [field.from_packed_int(rng.randrange(q)) for _ in range(n)])
        if a.is_constant():
            continue
        if p == 2:
            # trace map over F_2 sublattice, q = 2^e
            b = acc = a % f
            for _ in range(d * (q.bit_length() - 1) - 1):
                b = b * b % f
                acc = acc + b
            g = acc.gcd(f)
        else:
            b = a.pow_mod((q ** d - 1) // 2, f)
            g = (b - Poly(field, (field.one,))).gcd(f)
        if 0 < g.degree < f.degree:
            return g


def factor_over_prime_field(f):
    """Factor a nonzero polynomial over a finite field.

    Returns [(monic irreducible, multiplicity)] sorted canonically; the
    product of factors^multiplicities equals f up to the leading scalar.
    The equal-degree splitting draws candidates from a PRNG seeded on the
    input, so the result is deterministic.
    """
    if not f.field.is_finite():
        raise UnsupportedField("factorization implemented over finite fields only")
    if f.is_zero():
        raise ZeroPolynomial("cannot factor the zero polynomial")
    field = f.field
    f = f.monic()
    rng = random.Random(("factor", field.size(), tuple(map(field.sort_key, f.coeffs))).__repr__())
    result = {}

    def add_factor(g, mult):
        result[g] = result.get(g, 0) + mult

    def work(g, mult):
        if g.degree <= 0:
            return
        deriv = g.derivative()
        if deriv.is_zero():
            # g = h(x^p); take p-th roots of coefficients
            p = field.characteristic()
            root_coeffs = [field.pth_root(c) for c in g.coeffs[::p]]
            work(Poly(field, root_coeffs), mult * p)
            return
        sqfree = g // g.gcd(deriv)
        for part, d in _ddf(sqfree):
            for irr in _edf(part, d, rng):
                m = 0
                while True:
                    q, r = g.divmod(irr)
                    if not r.is_zero():
                        break
                    g = q
                    m += 1
                add_factor(irr, m * mult)
        if g.degree > 0:
            work(g, mult)

    work(f, 1)
    return sorted(result.items(), key=lambda kv: kv[0].sort_key())


def sylvester_resultant(f, g):
    """Resultant of two nonzero polynomials over a field (exact determinant)."""
    field = f.field
    m, n = f.degree, g.degree
    if m < 0 or n < 0:
        return field.zero
    if m == 0:
        return field.pow(f.coeffs[0], n)
    if n == 0:
        return field.pow(g.coeffs[0], m)
    size = m + n
    M = [[field.zero] * size for _ in range(size)]
    fc = list(reversed(f.coeffs))
    gc = list(reversed(g.coeffs))
    for r in range(n):
        for j, c in enumerate(fc):
            M[r][r + j] = c
    for r in range(m):
        for j, c in enumerate(gc):
            M[n + r][r + j] = c
    # Gaussian elimination, tracking the determinant
    det = field.one
    for col in range(size):
        pivot = next(
            (r for r in range(col, size) if not field.is_zero(M[r][col])), None
        )
        if pivot is None:
            return field.zero
        if pivot != col:
            M[col], M[pivot] = M[pivot], M[col]
            det = field.neg(det)
        det = field.mul(det, M[col][col])
        inv = field.inv(M[col][col])
        for r in range(col + 1, size):
            if field.is_zero(M[r][col]):
                continue
            factor = field.mul(M[r][col], inv)
            M[r] = [field.sub(a, field.mul(factor, b)) for a, b in zip(M[r], M[col])]
    return det


# ---------------------------------------------------------------------------
# irreducibility certificates


IRREDUCIBLE = "Irreducible"
REDUCIBLE = "Reducible"
UNVERIFIED = "Unverified"


class IrreducibilityCertificate:
    __slots__ = ("verdict", "method", "prime", "witness")

    def __init__(self, verdict, method, prime=None, witness=None):
        if verdict == REDUCIBLE:
            assert witness is not None and 0 < witness.degree
        self.verdict = verdict
        self.method = method
        self.prime = prime
        self.witness = witness

    def __repr__(self):
        extra = f"({self.prime})" if self.prime else ""
        return f"{self.verdict} via {self.method}{extra}"

    def to_json(self):
        out = {"verdict": self.verdict, "method": self.method}
        if self.prime is not None:
            out["prime"] = self.prime
        if self.witness is not None:
            out["witness"] = poly_to_json(self.witness)
        return out


def _clear_denominators(f):
    """Primitive integer coefficient list of a nonzero rational polynomial."""
    from math import gcd, lcm

    den = lcm(*[c.denominator for c in f.coeffs])
    ints = [int(c * den) for c in f.coeffs]
    g = 0
    for c in ints:
        g = gcd(g, abs(c))
    return [c // g for c in ints]


def _divisors(n):
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            out.append(n // d)
        d += 1
    return sorted(set(out))


def _rational_roots(f):
    """All rational roots of a nonzero polynomial over Q."""
    ints = _clear_denominators(f)
    if ints[0] == 0:
        yield Fraction(0)
        while ints[0] == 0:
            ints = ints[1:]
    if len(ints) == 1:
        return
    seen = set()
    for p in _divisors(ints[0]):
        for q in _divisors(ints[-1]):
            for sign in (1, -1):
                r = Fraction(sign * p, q)
                if r in seen:
                    continue
                seen.add(r)
                if f(r) == 0:
                    yield r


def _eisenstein(ints):
    """First prime <= 100 satisfying Eisenstein's criterion, or None."""
    for p in _primes_upto(100):
        if ints[-1] % p == 0:
            continue
        if any(c % p != 0 for c in ints[:-1]):
            continue
        if ints[0] % (p * p) == 0:
            continue
        return p
    return None


def _primes_upto(n):
    return [p for p in range(2, n + 1) if _is_prime(p)]


def _isqrt_exact(n):
    from math import isqrt

    if n < 0:
        return None
    r = isqrt(n)
    return r if r * r == n else None


def _quartic_split(ints):
    """Quadratic factor of a primitive integer quartic, or None.

    Assumes no rational root, so any factorization is into two quadratics
    (a x^2 + b x + c)(d x^2 + e x + g) with integer coefficients (Gauss).
    For fixed divisor pairs a*d = c4 and c*g = c0, the coefficients b, e
    solve two linear equations; a degenerate pair leaves a quadratic in b.
    """
    c0, c1, c2, c3, c4 = ints

    def signed_pairs(n):
        for d in _divisors(n):
            yield d, n // d
            yield -d, -(n // d)

    for a, d in signed_pairs(c4):
        for c, g in signed_pairs(c0):
            # a e + d b = c3 ; c e + g b = c1 ; b e + a g + c d = c2
            det = a * g - c * d
            candidates = []
            if det != 0:
                b_num = a * c1 - c * c3
                if b_num % det == 0:
                    b = b_num // det
                    e_num = c3 - d * b
                    if e_num % a == 0:
                        candidates.append((b, e_num // a))
            else:
                if a * c1 - c * c3 == 0:
                    # d b^2 - c3 b + a (c2 - a g - c d) = 0
                    disc = c3 * c3 - 4 * d * a * (c2 - a * g - c * d)
                    root = _isqrt_exact(disc)
                    if root is not None:
                        for sgn in (1, -1):
                            num = c3 + sgn * root
                            if num % (2 * d) == 0:
                                b = num // (2 * d)
                                if (c3 - d * b) % a == 0:
                                    candidates.append((b, (c3 - d * b) // a))
            for b, e in candidates:
                if (
                    a * e + d * b == c3
                    and c * e + g * b == c1
                    and b * e + a * g + c * d == c2
                ):
                    return (c, b, a)
    return None


def irreducible_check(f):
    """Certify irreducibility.

    Finite fields: decided exactly by factorization.  Over Q: rational
    roots, full trial splitting in degree <= 4, Eisenstein at primes <= 100,
    and mod-p reduction at primes <= 100; otherwise Unverified.
    """
    if f.is_constant():
        raise ConstantPolynomial("irreducibility undefined for constants")
    if f.field.is_finite():
        factors = factor_over_prime_field(f)
        if len(factors) == 1 and factors[0][1] == 1:
            return IrreducibilityCertificate(IRREDUCIBLE, "TrialFactorization")
        witness = factors[0][0]
        return IrreducibilityCertificate(REDUCIBLE, "TrialFactorization", witness=witness)

    assert isinstance(f.field, Rationals)
    if f.degree == 1:
        return IrreducibilityCertificate(IRREDUCIBLE, "TrialFactorization")
    for r in _rational_roots(f):
        return IrreducibilityCertificate(
            REDUCIBLE, "RootSearch", witness=Poly(QQ, (-r, Fraction(1)))
        )
    if f.degree <= 3:
        # no rational root and degree <= 3: irreducible
        return IrreducibilityCertificate(IRREDUCIBLE, "TrialFactorization")
    ints = _clear_denominators(f)
    if f.degree == 4:
        split = _quartic_split(ints)
        if split is not None:
            return IrreducibilityCertificate(
                REDUCIBLE, "TrialFactorization", witness=Poly(QQ, split)
            )
        return IrreducibilityCertificate(IRREDUCIBLE, "TrialFactorization")
    p = _eisenstein(ints)
    if p is not None:
        return IrreducibilityCertificate(IRREDUCIBLE, "Eisenstein", prime=p)
    for p in _primes_upto(100):
        if ints[-1] % p == 0:
            continue
        fp = Poly(PrimeField(p), ints)
        if is_irreducible(fp):
            return IrreducibilityCertificate(IRREDUCIBLE, "ModPReduction", prime=p)
    return IrreducibilityCertificate(UNVERIFIED, "TrialFactorization")


# ---------------------------------------------------------------------------
# Frobenius conjugates, and moving elements between a field and its extensions


def frobenius_conjugates(K, r, q):
    """[r, r^q, r^(q^2), ...] up to the first return to r."""
    out = [r]
    while (nxt := K.pow(out[-1], q)) != r:
        out.append(nxt)
    return out


def minimal_polynomial(K, u):
    """Monic minimal polynomial over K.base of an element of a finite
    extension: the product of x - c over the Frobenius conjugates c of u."""
    base = K.base
    if not base.is_finite():
        raise UnsupportedField("minimal polynomials are taken over finite fields")
    m = [K.one]  # the product so far, ascending
    for c in frobenius_conjugates(K, u, base.size()):
        m = [K.zero] + m  # times x, then minus c times the old product
        for i in range(len(m) - 1):
            m[i] = K.sub(m[i], K.mul(c, m[i + 1]))
    return Poly(base, [descend(K, base, a) for a in m])


def lift(K, base, c):
    """Embed a base-field constant into K (K = base, or a tower over base)."""
    if K == base:
        return c
    if isinstance(K, ExtensionField):
        return K.embed(lift(K.base, base, c))
    raise IncompatibleFields(f"cannot embed {base} into {K}")


def lift_poly(K, p):
    """p with its coefficients lifted into K."""
    return Poly(K, [lift(K, p.field, c) for c in p.coeffs])


def descend(K, base, x):
    """The base-field value of an element of K (K = base, or a tower over
    base) that lies in base."""
    while K != base:
        if not isinstance(K, ExtensionField) or len(x) > 1:
            raise BadInput(f"element is not in {base}")
        x, K = (x[0] if x else K.base.zero), K.base
    return x
