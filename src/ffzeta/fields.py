"""Finite coefficient fields F_q = F_p[xi]/(modulus) and digit utilities.

Elements of F_q are stored as integer codes 0..q-1.  For a prime-based
field the code of (c_0, ..., c_{e-1}) in the polynomial basis is
sum c_i p^i.  Extension fields built on top of another FieldSpec (used
for residue fields F_q[theta]/(P)) code their elements in base q the
same way.  Arithmetic runs through tables from discrete logarithms:
one walk of a generator g of F_q^x lists the codes of g^k, and products,
inverses, powers and Frobenius are exponent arithmetic mod q - 1.
"""

from __future__ import annotations

import json
from functools import cached_property

MAX_FIELD_SIZE = 1024

BUILTIN_MODULI = {
    # q -> (p, ascending coefficients over F_p, monic)
    4: (2, (1, 1, 1)),        # xi^2 + xi + 1
    8: (2, (1, 1, 0, 1)),     # xi^3 + xi + 1
    9: (3, (1, 0, 1)),        # xi^2 + 1
    16: (2, (1, 1, 0, 0, 1)), # xi^4 + xi + 1
    25: (5, (2, 0, 1)),       # xi^2 + 2
    27: (3, (1, 2, 0, 1)),    # xi^3 + 2 xi + 1
}


class FieldError(ValueError):
    """Raised for invalid field data or mixed-field operations."""


class FrozenValue:
    """Base of the small immutable value types (`TwistFactor`, `VadicPoint`, ...).

    A subclass names its fields in `__slots__` and passes their values,
    in that order, to `FrozenValue.__init__`.  Instances of one class
    with equal fields are equal and hash alike; repr shows the fields;
    assignment and deletion raise AttributeError.
    """

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


# ---------------------------------------------------------------------------
# Low-level polynomial kernels on lists of field codes.
#
# These operate on ascending coefficient lists whose entries are codes of
# some FieldSpec `F`.  They back extension-field construction and every
# code-list ring of the library: APoly in polyring.py (and PadicElem in
# padic.py through it) and LaurentSeries in seriesinf.py, whose products
# are the truncated `poly_mul(F, a, b, limit)`.  The raw kernels of
# _kernels.py serve power sums, t-shells and A/(P^k) reduction.

def poly_trim(c):
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return list(c[:i])


def poly_add(F, a, b):
    add = F.add_code
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, x in enumerate(b):
        out[i] = add(out[i], x)
    return poly_trim(out)


def poly_scale(F, a, s):
    if s == 0:
        return []
    mul = F.mul_code
    return [mul(x, s) for x in a]


def poly_mul(F, a, b, limit=None):
    """a * b, or with `limit` only its coefficients below x^limit."""
    if len(a) > len(b):
        a, b = b, a
    n = len(a) + len(b) - 1
    if limit is not None and limit < n:
        n = limit
    if not a or n <= 0:
        return []
    add, mul = F.add_code, F.mul_code
    out = [0] * n
    whole = n - len(b)  # rows i <= whole keep all of b
    for i, x in enumerate(a[:n]):  # i < n, so b[:n - i] never counts from the back
        if x:
            for k, y in enumerate(b if i <= whole else b[:n - i], i):
                if y:
                    out[k] = add(out[k], mul(x, y))
    return poly_trim(out)


def poly_divmod(F, a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    db, da = len(b) - 1, len(a) - 1
    if da < db:
        return [], poly_trim(a)
    inv_lead = F.inv_code(b[-1])
    add, mul = F.add_code, F.mul_code
    neg_b = [F.neg_code(y) for y in b]
    q = [0] * (da - db + 1)
    for i in range(da, db - 1, -1):
        c = a[i]
        if c == 0:
            continue
        f = mul(c, inv_lead)
        q[i - db] = f
        for k, y in enumerate(neg_b, i - db):
            if y:
                a[k] = add(a[k], mul(f, y))
    return poly_trim(q), poly_trim(a)


def poly_mod(F, a, b):
    return poly_divmod(F, a, b)[1]


def poly_gcd(F, a, b):
    a, b = poly_trim(a), poly_trim(b)
    while b:
        a, b = b, poly_mod(F, a, b)
    if a:
        a = poly_scale(F, a, F.inv_code(a[-1]))
    return a


def binary_power(base, n: int, mul):
    """base^n for n >= 1 by square-and-multiply with the product `mul`.

    Each step multiplies the running result by the base before squaring
    the base, the order every ring here relies on (series precisions
    depend on it); callers handle n = 0 themselves, and n < 1 raises
    ValueError rather than shifting forever.
    """
    if n < 1:
        raise ValueError(f"binary_power needs n >= 1, got {n}")
    result = None
    while True:
        if n & 1:
            result = base if result is None else mul(result, base)
        n >>= 1
        if not n:
            return result
        base = mul(base, base)


def one_unit_digit_power(w, digits, one, frobenius):
    """(1 + w)^y for y = sum_i digits[i] p^i, as prod_i (1 + w^(p^i))^digits[i];
    `frobenius` maps w^(p^i) to w^(p^(i+1)) and the product stops once
    that power is zero in the caller's ring."""
    result = one
    for i, d in enumerate(digits):
        if i:
            w = frobenius(w)  # w^(p^i)
        if w.is_zero():
            break
        if d:
            result = result * (one + w) ** d
    return result


def poly_powmod(F, a, n, m):
    if n == 0:
        return [1]
    return binary_power(poly_mod(F, a, m), n, lambda x, y: poly_mod(F, poly_mul(F, x, y), m))


def poly_is_irreducible(F, m) -> bool:
    """Exhaustive-style irreducibility test for a monic coefficient list.

    Checks gcd(m, x^(q^i) - x) = 1 for i <= deg(m)/2, which detects any
    factor of degree up to deg(m)/2.
    """
    deg = len(m) - 1
    if deg < 1:
        return False
    if deg == 1:
        return True
    x_power = [0, 1]  # x mod m
    for i in range(1, deg // 2 + 1):
        x_power = poly_powmod(F, x_power, F.q, m)
        diff = poly_add(F, x_power, poly_scale(F, [0, 1], F.neg_code(1)))
        if len(poly_gcd(F, m, diff)) > 1:
            return False
    return True


def _generator_powers(q, width, add, columns):
    """[g^0, ..., g^(q-2)] for the first code g generating F_q^x; `columns(g)[i][d]`
    is the code of d g xi^i, d a ground digit, so x g is an add-table fold."""
    for g in range(1, q):
        cols = columns(g)
        exp, x = [], 1
        while True:
            exp.append(x)
            y, rest = 0, x
            for col in cols:
                rest, d = divmod(rest, width)
                y = add[y][col[d]]
            x = y
            if x == 1:
                break
        if len(exp) == q - 1:
            return exp


# ---------------------------------------------------------------------------


_PRIME_FIELDS = {}  # p -> F_p, the ground of every prime-based extension


class FieldSpec:
    """A finite field F_q given by a monic irreducible modulus.

    Prime-based fields take p and a modulus over F_p.  Extension fields
    (residue fields of F_q[theta]) are built on a base FieldSpec via
    :meth:`extension`; their element codes are base-q digit vectors.
    """

    def __init__(self, p: int, modulus, base: "FieldSpec | None" = None):
        if base is None:
            if not _is_prime(p):
                raise FieldError(f"p = {p} is not prime")
            modulus = tuple(int(c) % p for c in modulus)
            ground_q = p
        else:
            p = base.p
            modulus = tuple(int(c) for c in modulus)
            if any(not (0 <= c < base.q) for c in modulus):
                raise FieldError("extension modulus coefficients out of range")
            ground_q = base.q
        if len(modulus) < 2 or modulus[-1] != 1:
            raise FieldError("modulus must be monic of degree >= 1")
        self.p = p
        self.base = base
        self.modulus = modulus
        self._value_key = (p, modulus, base._value_key if base is not None else None)
        self.rel_degree = len(modulus) - 1
        self.e = self.rel_degree if base is None else base.e * self.rel_degree
        self.q = p ** self.e
        if self.q > MAX_FIELD_SIZE:
            raise FieldError(f"field size {self.q} exceeds supported maximum")
        self._ground_q = ground_q
        if self.rel_degree > 1 and not poly_is_irreducible(self._ground(), list(modulus)):
            raise FieldError("modulus is reducible")

    def _ground(self) -> "FieldSpec":
        """The field the modulus lives over: the base, or F_p (one per p)."""
        if self.base is not None:
            return self.base
        if self.p not in _PRIME_FIELDS:
            _PRIME_FIELDS[self.p] = FieldSpec(self.p, (0, 1))
        return _PRIME_FIELDS[self.p]

    # -- construction helpers ------------------------------------------------

    @classmethod
    def default(cls, q: int) -> "FieldSpec":
        """Field of size q using the built-in modulus table (prime q: F_p)."""
        if _is_prime(q):
            return cls(q, (0, 1))
        if q not in BUILTIN_MODULI:
            raise FieldError(f"no built-in modulus for q = {q}; supply one")
        p, mod = BUILTIN_MODULI[q]
        return cls(p, mod)

    @classmethod
    def extension(cls, base: "FieldSpec", modulus_codes) -> "FieldSpec":
        """The quotient base[x]/(modulus), e.g. a residue field A/(P)."""
        return cls(base.p, modulus_codes, base=base)

    # -- codes <-> coordinates ----------------------------------------------

    def digits(self, code: int):
        """Ground-field digit vector of a code (length = relative degree)."""
        g = self._ground_q
        return [(code // g ** i) % g for i in range(self.rel_degree)]

    def from_digits(self, digs) -> int:
        g = self._ground_q
        return sum(int(d) % g * g ** i for i, d in enumerate(digs))

    def coords(self, code: int):
        """F_p coordinate vector of an element, length e (tower flattened)."""
        if self.base is None:
            return self.digits(code)
        out = []
        for d in self.digits(code):
            out.extend(self.base.coords(d))
        return out

    def from_coords(self, coords) -> int:
        coords = list(coords)
        if len(coords) != self.e:
            raise FieldError(f"expected {self.e} coordinates, got {len(coords)}")
        if self.base is None:
            return self.from_digits(coords)
        eb = self.base.e
        digs = [self.base.from_coords(coords[i * eb:(i + 1) * eb])
                for i in range(self.rel_degree)]
        return self.from_digits(digs)

    # -- arithmetic tables ---------------------------------------------------

    @cached_property
    def _tables(self):
        """(add, mul, inv, neg, frob, exp, log): exp[k] is the code of g^k,
        log its inverse; the add table grows one ground digit at a time."""
        q, width = self.q, self._ground_q
        if self.base is None and self.e == 1:
            p = self.p
            add = [[(i + j) % p for j in range(p)] for i in range(p)]

            def columns(g):
                return [[d * g % p for d in range(p)]]
        else:
            ground = self._ground()
            gadd, gmul, gneg = ground.add_table, ground.mul_table, ground._tables[3]
            add = gadd
            for k in range(1, self.rel_degree):
                # code lo + w * hi, w = width^k: the low digits add by the
                # table so far, the new top digit by the ground table
                w, prev = width ** k, add
                add = [[x + t for t in [w * s for s in gadd[hi]] for x in prev[lo]]
                       for hi in range(width) for lo in range(w)]

            def columns(g):
                v, cols = self.digits(g), []
                for _ in range(self.rel_degree):
                    cols.append([self.from_digits([gmul[d][c] for c in v])
                                 for d in range(width)])
                    # times xi: shift up, xi^r = -(m_0 + ... + m_(r-1) xi^(r-1))
                    v = [gadd[a][gneg[gmul[v[-1]][c]]]
                         for a, c in zip([0] + v[:-1], self.modulus)]
                return cols
        exp = _generator_powers(q, width, add, columns)
        log = [0] * q
        for k, c in enumerate(exp):
            log[c] = k
        n, logs, exp2 = q - 1, log[1:], exp + exp
        mul = [[0] * q] + [[0, *map(exp2[k:k + n].__getitem__, logs)] for k in logs]
        inv = [0] + [exp[-k % n] for k in logs]
        neg = [row.index(0) for row in add]
        frob = [0] + [exp[k * self.p % n] for k in logs]
        return add, mul, inv, neg, frob, exp, log

    def add_code(self, a: int, b: int) -> int:
        return self._tables[0][a][b]

    def mul_code(self, a: int, b: int) -> int:
        return self._tables[1][a][b]

    def inv_code(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inversion of zero field element")
        return self._tables[2][a]

    def neg_code(self, a: int) -> int:
        return self._tables[3][a]

    def frob_code(self, a: int, j: int = 1) -> int:
        """a^(p^j); the j-fold Frobenius has order e."""
        t = self._tables[4]
        for _ in range(j % self.e):
            a = t[a]
        return a

    def pow_code(self, a: int, n: int) -> int:
        """a^n for any integer n, with 0^0 = 1."""
        if a == 0:
            if n < 0:
                raise ZeroDivisionError("inversion of zero field element")
            return 0 if n else 1
        exp, log = self._tables[5:]
        return exp[log[a] * n % (self.q - 1)]

    @cached_property
    def add_table(self):
        return self._tables[0]

    @cached_property
    def mul_table(self):
        return self._tables[1]

    # -- element constructors -------------------------------------------------

    def zero(self) -> "FqElem":
        return FqElem(self, 0)

    def one(self) -> "FqElem":
        return FqElem(self, 1)

    def elem_from_code(self, code: int) -> "FqElem":
        if not 0 <= code < self.q:
            raise FieldError(f"code {code} out of range for q = {self.q}")
        return FqElem(self, code)

    def elements(self):
        return [FqElem(self, c) for c in range(self.q)]

    # -- value semantics -------------------------------------------------------

    def _key(self):
        return self._value_key

    def __eq__(self, other):
        return self is other or (isinstance(other, FieldSpec)
                                 and self._value_key == other._value_key)

    def __hash__(self):
        return hash(self._value_key)

    def __repr__(self):
        if self.base is None:
            return f"FieldSpec(p={self.p}, e={self.e})"
        return f"FieldSpec(q={self.base.q}^{self.rel_degree})"

    # -- serialization ----------------------------------------------------------

    def to_json(self) -> dict:
        if self.base is not None:
            raise FieldError("tower extensions have no external JSON form")
        return {"p": self.p, "e": self.e, "modulus": list(self.modulus)}

    @classmethod
    def from_json(cls, doc) -> "FieldSpec":
        if isinstance(doc, str):
            doc = json.loads(doc)
        p, e, modulus = doc["p"], doc["e"], doc["modulus"]
        spec = cls(p, modulus)
        if spec.e != e:
            raise FieldError(f"declared e = {e} does not match modulus degree {spec.e}")
        return spec


class FqElem:
    """An element of a FieldSpec, stored as an integer code."""

    __slots__ = ("spec", "code")

    def __init__(self, spec: FieldSpec, code: int):
        self.spec = spec
        self.code = code

    @property
    def coords(self):
        return self.spec.coords(self.code)

    def _check(self, other):
        if not isinstance(other, FqElem):
            raise TypeError(f"cannot combine FqElem with {type(other).__name__}")
        if other.spec != self.spec:
            raise FieldError("operands belong to different fields")
        return other

    def __add__(self, other):
        other = self._check(other)
        return FqElem(self.spec, self.spec.add_code(self.code, other.code))

    def __neg__(self):
        return FqElem(self.spec, self.spec.neg_code(self.code))

    def __sub__(self, other):
        other = self._check(other)
        return self + (-other)

    def __mul__(self, other):
        other = self._check(other)
        return FqElem(self.spec, self.spec.mul_code(self.code, other.code))

    def __truediv__(self, other):
        other = self._check(other)
        return FqElem(self.spec, self.spec.mul_code(self.code, self.spec.inv_code(other.code)))

    def __pow__(self, n: int):
        return FqElem(self.spec, self.spec.pow_code(self.code, n))

    def inverse(self):
        return FqElem(self.spec, self.spec.inv_code(self.code))

    def __bool__(self):
        return self.code != 0

    def __eq__(self, other):
        if isinstance(other, int):
            return self.spec.e == 1 and self.code == other % self.p_char()
        return isinstance(other, FqElem) and other.spec == self.spec and other.code == self.code

    def p_char(self):
        return self.spec.p

    def __hash__(self):
        return hash((self.spec, self.code))

    def __repr__(self):
        return f"Fq({self.code})"

    def to_json(self):
        return self.coords


def frobenius(x: FqElem, j: int = 1) -> FqElem:
    """The j-fold p-power Frobenius x -> x^(p^j)."""
    if j < 0:
        raise ValueError("Frobenius iterate must be nonnegative")
    return FqElem(x.spec, x.spec.frob_code(x.code, j))


# ---------------------------------------------------------------------------
# p-adic exponents


class ZpExp:
    """A p-adic integer known modulo p^M, as digits d_0..d_{M-1}."""

    __slots__ = ("p", "digits")

    def __init__(self, p: int, digits):
        digits = tuple(int(d) for d in digits)
        if not _is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if len(digits) < 1:
            raise ValueError("need at least one digit")
        if any(not (0 <= d < p) for d in digits):
            raise ValueError("digits out of range")
        self.p = p
        self.digits = digits

    @property
    def precision(self) -> int:
        return len(self.digits)

    @classmethod
    def from_int(cls, n: int, p: int, precision: int) -> "ZpExp":
        """Digits of n mod p^precision (negative n wraps p-adically)."""
        n %= p ** precision
        return cls(p, [(n // p ** i) % p for i in range(precision)])

    def as_int(self) -> int:
        """The canonical representative in [0, p^M)."""
        return sum(d * self.p ** i for i, d in enumerate(self.digits))

    def __eq__(self, other):
        return isinstance(other, ZpExp) and (self.p, self.digits) == (other.p, other.digits)

    def __hash__(self):
        return hash((self.p, self.digits))

    def __repr__(self):
        return f"ZpExp(p={self.p}, digits={list(self.digits)})"

    def to_json(self):
        return {"p": self.p, "digits": list(self.digits)}

    @classmethod
    def from_json(cls, doc) -> "ZpExp":
        if isinstance(doc, str):
            doc = json.loads(doc)
        return cls(doc["p"], doc["digits"])


# ---------------------------------------------------------------------------
# digit utilities


def lq_digit_sum(n: int, q: int) -> int:
    """Sum of the base-q digits of n >= 0."""
    if n < 0:
        raise ValueError("digit sum of a negative integer")
    s = 0
    while n:
        s += n % q
        n //= q
    return s


def base_digits(n: int, q: int):
    """Ascending base-q digits of n >= 0 (empty for n = 0)."""
    out = []
    while n:
        out.append(n % q)
        n //= q
    return out


def binom_mod_p(k: int, m: int, p: int) -> int:
    """Binomial coefficient C(k, m) mod p by the digit-wise Lucas product."""
    if m < 0 or k < 0:
        return 0
    if k < m:
        return 0
    result = 1
    while m or k:
        km, mm = k % p, m % p
        if mm > km:
            return 0
        num = den = 1
        for i in range(mm):
            num = num * (km - i) % p
            den = den * (i + 1) % p
        result = result * num * pow(den, p - 2, p) % p if p > 2 else result * num % p
        k //= p
        m //= p
    return result


# ---------------------------------------------------------------------------
# residue characters


class ResidueChar:
    """The character a -> (a mod P)^delta on polynomials prime to P.

    Values live in the residue field F_q[theta]/(P), an extension
    FieldSpec of the coefficient field; P | a maps to zero.  Building
    that extension is the irreducibility test: a reducible P raises
    FieldError there, and a P of degree 1 is irreducible.
    """

    def __init__(self, field: FieldSpec, P_codes, delta: int):
        P_codes = tuple(int(c) for c in P_codes)
        if len(P_codes) < 2 or P_codes[-1] != 1:
            raise ValueError("P must be monic of degree >= 1")
        self.field = field
        self.P_codes = P_codes
        self.dP = len(P_codes) - 1
        self.residue_field = (FieldSpec.extension(field, P_codes)
                              if self.dP > 1 else field)
        self.order = field.q ** self.dP - 1
        self.delta = delta % self.order if self.order > 1 else 0

    def eval_codes(self, coeff_codes) -> int:
        """Character value of the polynomial with the given coefficients."""
        residue = poly_mod(self.field, list(coeff_codes), list(self.P_codes))
        if not residue:
            return 0
        code = residue[0] if self.dP == 1 else self.residue_field.from_digits(residue)
        return self.residue_field.pow_code(code, self.delta)

    def __repr__(self):
        return f"ResidueChar(P={list(self.P_codes)}, delta={self.delta})"


def char_eval(chi: ResidueChar, a) -> FqElem:
    """Evaluate a residue character at a polynomial (APoly or code list)."""
    codes = getattr(a, "coeff_codes", a)
    return FqElem(chi.residue_field, chi.eval_codes(codes))
