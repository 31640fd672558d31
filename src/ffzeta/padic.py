"""Finite-place arithmetic in the quotient rings A/(P^k).

P is a monic irreducible polynomial of A = F_q[theta] and also serves
as the uniformizer, so every computation stays inside A: elements are
canonical representatives of degree < k*deg(P).  The Teichmuller part
of a unit is the q^deg(P)-power fixed point congruent to it mod P; the
bracket part is the complementary one-unit.  Both are one integer
power: a one-unit u has u^(p^M) = 1 once p^M >= k, so u^y = u^(N mod p^M)
for the integer N of y's digits, and omega(a) = a^(Q^j) for
Q = q^deg(P) once Q^j >= k.
"""

from __future__ import annotations

import functools

from . import fields
from .fields import ZpExp, least_p_power
from .polyring import APoly, is_irreducible
from .seriesinf import PrecisionError


class PadicCtx:
    """The ring A/(P^k) for a monic irreducible P and precision k >= 1."""

    def __init__(self, P: APoly, k: int):
        if k < 1:
            raise ValueError("precision exponent k must be >= 1")
        if not P.is_monic():
            raise ValueError("P must be monic")
        if not is_irreducible(P):
            raise ValueError("P is reducible")
        self.P = P
        self.k = k
        self.field = P.spec
        self.dP = P.degree
        self.modulus = P ** k

    def reduce(self, a: APoly) -> "PadicElem":
        return PadicElem(self, a % self.modulus)

    def zero(self) -> "PadicElem":
        return PadicElem(self, APoly.zero(self.field))

    def one(self) -> "PadicElem":
        return PadicElem(self, APoly.one(self.field))

    def constant(self, code: int) -> "PadicElem":
        return PadicElem(self, APoly.constant(self.field, code))

    def residue_order(self) -> int:
        """Order of (A/P)^x, the Teichmuller exponent group."""
        return self.field.q ** self.dP - 1

    def __eq__(self, other):
        return (isinstance(other, PadicCtx) and other.P == self.P and other.k == self.k)

    def __hash__(self):
        return hash((self.P, self.k))

    def __repr__(self):
        return f"PadicCtx(P={self.P!r}, k={self.k})"

    def to_json(self):
        return {"P": self.P.to_json(), "k": self.k}

    @classmethod
    def from_json(cls, spec, doc) -> "PadicCtx":
        return cls(APoly.from_json(spec, doc["P"]), doc["k"])


class PadicElem:
    """An element of A/(P^k), stored by its canonical representative."""

    __slots__ = ("ctx", "rep")

    def __init__(self, ctx: PadicCtx, rep: APoly):
        if rep.degree >= ctx.modulus.degree:
            rep = rep % ctx.modulus
        self.ctx = ctx
        self.rep = rep

    def _check(self, other):
        if not isinstance(other, PadicElem):
            raise TypeError(f"cannot combine PadicElem with {type(other).__name__}")
        if other.ctx != self.ctx:
            raise ValueError("operands live in different quotient rings")
        return other

    def __add__(self, other):
        other = self._check(other)
        return PadicElem(self.ctx, self.rep + other.rep)

    def __neg__(self):
        return PadicElem(self.ctx, -self.rep)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        other = self._check(other)
        return PadicElem(self.ctx, self.rep * other.rep)

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        F = self.ctx.field
        mod = list(self.ctx.modulus.coeff_codes)
        out = fields.poly_powmod(F, list(self.rep.coeff_codes), n, mod)
        return PadicElem(self.ctx, APoly(F, out))

    def inverse(self) -> "PadicElem":
        if self.vP() > 0:
            raise ZeroDivisionError("inversion of a non-unit in A/(P^k)")
        return PadicElem(self.ctx, _invert_mod(self.ctx.field, self.rep, self.ctx.modulus))

    def vP(self) -> int:
        """P-adic valuation by trial division, capped at k."""
        if self.rep.is_zero():
            return self.ctx.k
        return split_P_power(self.rep, self.ctx.P, self.ctx.k)[0]

    def is_zero(self) -> bool:
        return self.rep.is_zero()

    def __bool__(self):
        return bool(self.rep)

    def is_one_unit(self) -> bool:
        """vP(self - 1) >= 1, from one remainder: self = 1 mod P."""
        return (self.rep % self.ctx.P).coeff_codes == (1,)

    def valuation(self):
        """vP, or None when indistinguishable from zero in A/(P^k)."""
        v = self.vP()
        return v if v < self.ctx.k else None

    def ring_one(self) -> "PadicElem":
        return self.ctx.one()

    def __eq__(self, other):
        return (isinstance(other, PadicElem) and other.ctx == self.ctx
                and other.rep == self.rep)

    def __hash__(self):
        return hash((self.ctx, self.rep))

    def __repr__(self):
        return f"PadicElem({self.rep!r} mod P^{self.ctx.k})"

    def to_json(self):
        return self.rep.to_json()

    @classmethod
    def from_json(cls, ctx, doc) -> "PadicElem":
        return cls(ctx, APoly.from_json(ctx.field, doc))


def split_P_power(a: APoly, P: APoly, cap: int | None = None):
    """(v, u) with a = P^v u for nonzero a, where P does not divide u
    unless trial division stopped at v = cap.

    A unit costs one division by P.  Past it, the divisors climb through
    P^p, P^(p^2), ... while they divide, and the rest of v is taken digit
    by digit on the way back down, so v costs O(p log_p v) divisions, not
    v + 1.  P^(p^j) has the support of P spread out, so it stays as
    sparse as P.  The cap bounds every step."""
    if cap is not None and cap < 1:
        return 0, a
    quo, rem = divmod(a, P)
    if rem:
        return 0, a
    p = P.spec.p
    a, v, j = quo, 1, 1

    def divide(j):
        nonlocal a, v
        if cap is not None and v + p ** j > cap:
            return False
        quo, rem = divmod(a, _P_frobenius_power(P, j))
        if rem:
            return False
        a, v = quo, v + p ** j
        return True

    while divide(j):
        j += 1
    # what is left, min(v_P(a), cap - v), is below p^j: take its base-p digits
    for i in range(j - 1, -1, -1):
        for _ in range(p - 1):
            if not divide(i):
                break
    return v, a


@functools.lru_cache(maxsize=256)
def _P_frobenius_power(P: APoly, j: int) -> APoly:
    """P^(p^j), by raising the cached P^(p^(j-1)) to the p-th power."""
    return P if j == 0 else _P_frobenius_power(P, j - 1) ** P.spec.p


def _invert_mod(F, a: APoly, m: APoly) -> APoly:
    """Inverse of a modulo m in F_q[theta] by the extended Euclid algorithm."""
    r0, r1 = list(m.coeff_codes), list((a % m).coeff_codes)
    t0, t1 = [], [1]
    while r1:
        q, r = fields.poly_divmod(F, r0, r1)
        r0, r1 = r1, r
        t_next = fields.poly_add(F, t0, fields.poly_scale(F, fields.poly_mul(F, q, t1), F.neg_code(1)))
        t0, t1 = t1, t_next
    if len(r0) != 1:
        raise ZeroDivisionError("element is not invertible modulo m")
    return APoly(F, fields.poly_scale(F, t0, F.inv_code(r0[0])))


def teichmuller(a, ctx: PadicCtx) -> PadicElem:
    """The q^dP-power fixed point congruent to a mod P (requires P not | a).

    With Q = q^dP, a^(Q-1) is a one-unit, so a^((Q-1) Q^j) = 1 in A/(P^k)
    once the p-power Q^j is >= k: then omega(a) = a^(Q^j), one power.
    """
    x = a if isinstance(a, PadicElem) else ctx.reduce(a)
    if x.vP() > 0:
        raise ZeroDivisionError("Teichmuller lift needs a unit (P does not divide a)")
    return x ** least_p_power(ctx.field.q ** ctx.dP, ctx.k)


def padic_bracket(a, ctx: PadicCtx) -> PadicElem:
    """The one-unit part a / teichmuller(a); congruent to 1 mod P."""
    x = a if isinstance(a, PadicElem) else ctx.reduce(a)
    return x * teichmuller(x, ctx).inverse()


def padic_one_unit_pow(u: PadicElem, y: ZpExp) -> PadicElem:
    """A p-adic power of a one-unit in A/(P^k), again a one-unit.

    u^(p^M') = 1 in A/(P^k) once p^M' >= k, so u^y = u^(N mod p^M') for
    the integer N of y's digits, one power; y needs p^M >= k digits.
    """
    ctx = u.ctx
    if not u.is_one_unit():
        raise ValueError("padic_one_unit_pow needs u = 1 mod P")
    if y.p != ctx.field.p:
        raise ValueError("exponent digit base differs from the field characteristic")
    p = ctx.field.p
    if p ** y.precision < ctx.k:
        raise PrecisionError(
            f"need p^M >= k = {ctx.k}; got p^{y.precision} = {p ** y.precision}",
            precision=p ** y.precision)
    return u ** (y.as_int() % least_p_power(p, ctx.k))
