"""The polynomial ring A = F_q[theta] and sparse multivariate polynomials.

APoly is an immutable univariate polynomial over a FieldSpec with
ascending coefficient codes.  Monic enumeration of A_{+,d} (all q^d
monic polynomials of degree d) is the index set of every sum in this
library; the stream order is lexicographic on the coefficient tuple
(c_0, ..., c_{d-1}) with integer element codes.

MPoly is a sparse multivariate polynomial over a declared coefficient
ring, used for symbolic t-variables, z-variables and exact outputs.
"""

from __future__ import annotations

import itertools
import operator

from . import fields
from .fields import FieldSpec, FqElem, FieldError, binom_mod_p


class APoly:
    """Element of A = F_q[theta]; coeff_codes ascending, no trailing zeros."""

    __slots__ = ("spec", "coeff_codes")

    def __init__(self, spec: FieldSpec, coeff_codes):
        self.spec = spec
        self.coeff_codes = tuple(fields.poly_trim(list(coeff_codes)))

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, spec) -> "APoly":
        return cls(spec, ())

    @classmethod
    def one(cls, spec) -> "APoly":
        return cls(spec, (1,))

    @classmethod
    def theta(cls, spec) -> "APoly":
        return cls(spec, (0, 1))

    @classmethod
    def constant(cls, spec, code: int) -> "APoly":
        return cls(spec, (code,))

    # -- structure -------------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree in theta; -1 for the zero polynomial."""
        return len(self.coeff_codes) - 1

    def is_zero(self) -> bool:
        return not self.coeff_codes

    def __bool__(self):
        return bool(self.coeff_codes)

    def is_monic(self) -> bool:
        return bool(self.coeff_codes) and self.coeff_codes[-1] == 1

    def leading_code(self) -> int:
        if not self.coeff_codes:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeff_codes[-1]

    def coefficient(self, i: int) -> FqElem:
        code = self.coeff_codes[i] if 0 <= i < len(self.coeff_codes) else 0
        return FqElem(self.spec, code)

    def _check(self, other):
        if not isinstance(other, APoly):
            raise TypeError(f"cannot combine APoly with {type(other).__name__}")
        if other.spec != self.spec:
            raise FieldError("operands belong to different coefficient fields")
        return other

    # -- ring operations ---------------------------------------------------------

    def __add__(self, other):
        other = self._check(other)
        return APoly(self.spec, fields.poly_add(self.spec, list(self.coeff_codes), list(other.coeff_codes)))

    def __neg__(self):
        return self.scale_code(self.spec.neg_code(1))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, FqElem):
            if other.spec != self.spec:
                raise FieldError("scalar belongs to a different field")
            return APoly(self.spec, fields.poly_scale(self.spec, list(self.coeff_codes), other.code))
        other = self._check(other)
        return APoly(self.spec, fields.poly_mul(self.spec, list(self.coeff_codes), list(other.coeff_codes)))

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers leave A; use Laurent or p-adic evaluation")
        return fields.binary_power(self, n, operator.mul) if n else APoly.one(self.spec)

    def __divmod__(self, other):
        other = self._check(other)
        q, r = fields.poly_divmod(self.spec, list(self.coeff_codes), list(other.coeff_codes))
        return APoly(self.spec, q), APoly(self.spec, r)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def scale_code(self, code: int) -> "APoly":
        return APoly(self.spec, fields.poly_scale(self.spec, list(self.coeff_codes), code))

    def shift(self, k: int) -> "APoly":
        """Multiply by theta^k."""
        if not self.coeff_codes:
            return self
        return APoly(self.spec, (0,) * k + self.coeff_codes)

    # -- evaluation ---------------------------------------------------------------

    def eval(self, point):
        """Ring-homomorphic evaluation theta -> point.

        The target is inferred from the point: an FqElem (possibly of an
        extension field), an MPoly variable or value, or a LaurentSeries.
        Coefficients embed canonically when the point's field is the same
        spec or a tower extension of it; any other field raises FieldError.
        """
        if isinstance(point, FqElem):
            target = point.spec
            self._check_target(target)
            acc = 0
            for c in reversed(self.coeff_codes):
                acc = target.add_code(target.mul_code(acc, point.code), c)
            return FqElem(target, acc)
        if isinstance(point, MPoly):
            embed_c = self._mpoly_coeff_embedding(point)
            result = MPoly(point.vars, {})
            power = MPoly.one_like(point)
            for i, c in enumerate(self.coeff_codes):
                if i:
                    power = power * point
                if c:
                    result = result + power.scale(embed_c(c))
            return result
        from .seriesinf import LaurentSeries
        if isinstance(point, LaurentSeries):
            if point.spec != self.spec:
                raise FieldError("evaluation point over a different field")
            acc = LaurentSeries.zero(point.spec, point.prec)
            for c in reversed(self.coeff_codes):
                acc = acc * point + LaurentSeries.constant(point.spec, c, acc.prec)
            return acc
        raise TypeError(f"unsupported evaluation target {type(point).__name__}")

    def _check_target(self, target):
        """Constants keep their code in the same field or a tower extension of it."""
        if target != self.spec and getattr(target, "base", None) != self.spec:
            raise FieldError("evaluation point over an unrelated field")

    def _mpoly_coeff_embedding(self, point):
        sample = point.any_coefficient()
        if isinstance(sample, FqElem):
            self._check_target(sample.spec)
            return lambda c: FqElem(sample.spec, c)
        if isinstance(sample, APoly):
            return lambda c: APoly.constant(sample.spec, c)
        raise FieldError("symbolic evaluation needs FqElem or APoly coefficients")

    def __call__(self, point):
        return self.eval(point)

    # -- value semantics -------------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, APoly) and other.spec == self.spec
                and other.coeff_codes == self.coeff_codes)

    def __hash__(self):
        return hash((self.spec, self.coeff_codes))

    def __repr__(self):
        if not self.coeff_codes:
            return "APoly(0)"
        parts = []
        for i in range(len(self.coeff_codes) - 1, -1, -1):
            c = self.coeff_codes[i]
            if c == 0:
                continue
            if i == 0:
                parts.append(f"{c}")
            else:
                head = "" if c == 1 else f"{c}*"
                parts.append(f"{head}O^{i}" if i > 1 else f"{head}O")
        return "APoly(" + " + ".join(parts).replace("O", "theta") + ")"

    def to_json(self):
        return {"coeffs": [self.spec.coords(c) for c in self.coeff_codes]}

    @classmethod
    def from_json(cls, spec, doc) -> "APoly":
        return cls(spec, [spec.from_coords(v) for v in doc["coeffs"]])


# -------------------------------------------------------------------------------
# enumeration of A_{+,d}


def enumerate_monic(spec: FieldSpec, d: int):
    """Yield all monic degree-d polynomials, lexicographic in (c_0..c_{d-1})."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    if d == 0:
        yield APoly.one(spec)
        return
    for vec in itertools.product(range(spec.q), repeat=d):
        yield APoly(spec, vec + (1,))


def monic_coeff_vectors(spec: FieldSpec, d: int):
    """Raw coefficient tuples (c_0..c_{d-1}) in enumeration order."""
    return itertools.product(range(spec.q), repeat=d) if d else iter(((),))


# -------------------------------------------------------------------------------
# operators on A


def frobenius_twist(a: APoly, j: int) -> APoly:
    """Coefficient-wise p^j power; preserves degree and monicity."""
    if j < 0:
        raise ValueError("Frobenius iterate must be nonnegative")
    spec = a.spec
    if j % spec.e == 0:
        return a
    return APoly(spec, [spec.frob_code(c, j) for c in a.coeff_codes])


def hyperderivative(a: APoly, m: int) -> APoly:
    """The coefficient of X^m in a(theta + X).

    Computed per monomial from (theta^k)^(m) = C(k, m) theta^(k-m); this
    keeps the cost quadratic in the degree.
    """
    if m < 0:
        raise ValueError("hyperderivative order must be nonnegative")
    if m == 0:
        return a
    spec = a.spec
    p = spec.p
    out = [0] * max(len(a.coeff_codes) - m, 0)
    for k in range(m, len(a.coeff_codes)):
        c = a.coeff_codes[k]
        if c == 0:
            continue
        # an integer b < p is its own code in every field, towers included
        out[k - m] = spec.mul_code(c, binom_mod_p(k, m, p))
    return APoly(spec, out)


def is_irreducible(a: APoly) -> bool:
    """Irreducibility over F_q via gcd with theta^(q^i) - theta, i <= deg/2."""
    if a.is_zero():
        raise ValueError("zero polynomial")
    if a.degree == 0:
        raise ValueError("constant polynomial")
    monic = a.scale_code(a.spec.inv_code(a.leading_code()))
    return fields.poly_is_irreducible(a.spec, list(monic.coeff_codes))


# -------------------------------------------------------------------------------
# sparse multivariate polynomials


class MPoly:
    """Sparse multivariate polynomial over a declared coefficient ring.

    Terms map exponent tuples (one slot per variable in `vars`) to
    nonzero coefficients; coefficients may be FqElem, APoly,
    LaurentSeries or PadicElem values and must all share one ring.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, variables, terms):
        self.vars = tuple(variables)
        arity = len(self.vars)
        clean = {}
        for exp, coeff in terms.items():
            exp = tuple(int(x) for x in exp)
            if len(exp) != arity:
                raise ValueError(f"exponent {exp} has wrong arity for vars {self.vars}")
            if coeff:
                clean[exp] = coeff
        self.terms = clean

    @classmethod
    def zero(cls, variables) -> "MPoly":
        return cls(variables, {})

    @classmethod
    def variable(cls, variables, name, one_coeff) -> "MPoly":
        """The monomial `name` with the given unit coefficient."""
        variables = tuple(variables)
        exp = [0] * len(variables)
        exp[variables.index(name)] = 1
        return cls(variables, {tuple(exp): one_coeff})

    @classmethod
    def const(cls, variables, coeff) -> "MPoly":
        return cls(variables, {(0,) * len(tuple(variables)): coeff})

    @classmethod
    def one_like(cls, other: "MPoly") -> "MPoly":
        sample = other.any_coefficient()
        return cls.const(other.vars, _ring_one(sample))

    def any_coefficient(self):
        if not self.terms:
            raise ValueError("zero polynomial has no coefficients")
        return next(iter(self.terms.values()))

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def _check(self, other):
        if not isinstance(other, MPoly):
            raise TypeError(f"cannot combine MPoly with {type(other).__name__}")
        if other.vars != self.vars:
            raise ValueError(f"variable rosters differ: {self.vars} vs {other.vars}")
        return other

    def __add__(self, other):
        other = self._check(other)
        terms = dict(self.terms)
        for exp, coeff in other.terms.items():
            if exp in terms:
                s = terms[exp] + coeff
                if s:
                    terms[exp] = s
                else:
                    del terms[exp]
            else:
                terms[exp] = coeff
        return MPoly(self.vars, terms)

    def __neg__(self):
        return MPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        other = self._check(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                prod = c1 * c2
                if e in out:
                    s = out[e] + prod
                    if s:
                        out[e] = s
                    else:
                        del out[e]
                elif prod:
                    out[e] = prod
        return MPoly(self.vars, out)

    def scale(self, coeff) -> "MPoly":
        out = {}
        for e, c in self.terms.items():
            prod = c * coeff
            if prod:
                out[e] = prod
        return MPoly(self.vars, out)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative MPoly power")
        if n == 0:
            raise ValueError("MPoly**0 needs a coefficient ring; use one_like")
        return fields.binary_power(self, n, operator.mul)

    def degree_in(self, name: str) -> int:
        """Degree in one variable; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        i = self.vars.index(name)
        return max(e[i] for e in self.terms)

    def coefficient_of(self, name: str, power: int) -> "MPoly":
        """The coefficient of name^power, as an MPoly in the remaining vars."""
        i = self.vars.index(name)
        rest = self.vars[:i] + self.vars[i + 1:]
        out = {}
        for e, c in self.terms.items():
            if e[i] == power:
                out[e[:i] + e[i + 1:]] = c
        return MPoly(rest, out)

    def substitute(self, name: str, value) -> "MPoly":
        """Substitute a ring value for one variable (value 1 of the ring,
        a coefficient, or any value whose powers the coefficients can multiply)."""
        i = self.vars.index(name)
        # in an exact ring one's powers leave a term as it is; a series
        # keeps the product, because it caps the term's precision
        one = isinstance(value, (APoly, FqElem)) and value == _ring_one(value)
        powers = {k: value ** k for k in {e[i] for e in self.terms} if k and not one}
        out = {}
        for e, c in sorted(self.terms.items()):
            if e[i] in powers:
                c = c * powers[e[i]]
            rest = e[:i] + e[i + 1:]
            out[rest] = out[rest] + c if rest in out else c
        return MPoly(self.vars[:i] + self.vars[i + 1:], out)

    def map_coefficients(self, fn) -> "MPoly":
        out = {}
        for e, c in self.terms.items():
            v = fn(c)
            if v:
                out[e] = v
        return MPoly(self.vars, out)

    def gauss_valuation(self):
        """Minimum coefficient valuation, or None for the zero polynomial."""
        vals = [c.valuation() for c in self.terms.values()]
        vals = [v for v in vals if v is not None]
        return min(vals) if vals else None

    def sorted_terms(self):
        return sorted(self.terms.items())

    def __eq__(self, other):
        return (isinstance(other, MPoly) and other.vars == self.vars
                and other.terms == self.terms)

    def __repr__(self):
        if not self.terms:
            return "MPoly(0)"
        bits = []
        for e, c in self.sorted_terms()[:8]:
            mono = "*".join(f"{v}^{k}" for v, k in zip(self.vars, e) if k) or "1"
            bits.append(f"({c!r})*{mono}")
        suffix = ", ..." if len(self.terms) > 8 else ""
        return "MPoly(" + " + ".join(bits) + suffix + ")"

    def to_json(self, coeff_to_json=None):
        enc = coeff_to_json or (lambda c: c.to_json())
        return {"vars": list(self.vars),
                "terms": [{"exp": list(e), "coeff": enc(c)} for e, c in self.sorted_terms()]}

    @classmethod
    def from_json(cls, doc, coeff_from_json) -> "MPoly":
        return cls(doc["vars"],
                   {tuple(t["exp"]): coeff_from_json(t["coeff"]) for t in doc["terms"]})


def chain_sum(table, caps, strict: bool, zero):
    """Sum over degree chains d_1 > d_2 > ... > d_r (>= when not strict),
    with d_i <= caps[i], of table(0, d_1) * table(1, d_2) * ... * table(r-1, d_r).

    r = len(caps).  The partial sums over the levels i.. are memoized on
    (i, top degree), so each is formed once; the last level's table value
    enters as it is.  `zero` starts every sum; a zero term is still added,
    because a series zero carries a precision.
    """
    r = len(caps)
    memo = {}

    def level(i, hi):
        if (i, hi) not in memo:
            total = zero
            for d in range(hi + 1):
                term = table(i, d)
                if i + 1 < r:
                    term = term * level(i + 1, min(caps[i + 1], d - 1 if strict else d))
                total = total + term
            memo[i, hi] = total
        return memo[i, hi]

    return level(0, caps[0])


def _ring_one(sample):
    if isinstance(sample, FqElem):
        return FqElem(sample.spec, 1)
    if isinstance(sample, APoly):
        return APoly.one(sample.spec)
    one = getattr(sample, "ring_one", None)
    if one is not None:
        return one()
    raise TypeError(f"no unit element known for {type(sample).__name__}")
