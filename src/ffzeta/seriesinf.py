"""The local field at infinity: F_q((pi)) with pi = 1/theta.

Every value is a Laurent series in pi with tracked precision: a series
with valuation v and precision N is known modulo pi^N, with exact
coefficients for pi^v .. pi^(N-1).  theta itself is pi^(-1), so
v(theta) = -1 and polynomial values of degree d sit at valuation -d.
Precision propagates pessimistically: min rules everywhere, no interval
tightening.

Coefficients are code lists.  Sums are `fields.poly_add`, scalings
`poly_scale` and an inverse a `poly_divmod` quotient, as for APoly.  A
product keeps only the coefficients below its relative precision: when
the shorter operand, cut to that length, has at least KERNEL_MUL_MIN
coefficients it is one packed-kernel product masked with
`kernel.truncate` (for every field), otherwise the truncated code-list
`poly_mul`.  APoly and PadicElem stay on code lists, the kernels'
independent reference.

One-units (valuation 0, constant term 1) carry Z_p-power structure:
(1+w)^(p^i) = 1 + w^(p^i), so u^y modulo pi^min(prec, p^M v(w)) is
u^N for the integer N of y's known digits, one truncated kernel power.
"""

from __future__ import annotations

import operator

from ._kernels import get_kernel
from .fields import (FieldSpec, FqElem, FieldError, ZpExp, binary_power, least_p_power, poly_add,
                     poly_divmod, poly_mul, poly_scale)

# A product whose shorter operand, cut to the result's length, has at least
# this many coefficients is one packed-kernel product; shorter ones stay on
# the code-list `poly_mul`.  Dense n x n products truncated at n, 40 random
# pairs per cell, best of 7, two runs (CPython 3.11, 2-core Xeon VM): the
# kernel overtook the code lists at n of about 8-10 for q = 2, 12-14 for
# q = 3, 12 for q = 4, 10-12 for q = 5 and 16 for q = 9; at n = 24 the code
# lists took 21-81 us a product, the kernel 7-45 us.
KERNEL_MUL_MIN = 12


class PrecisionError(ArithmeticError):
    """An operation needed digits beyond the tracked precision."""

    def __init__(self, message, precision=None):
        super().__init__(message)
        self.precision = precision


class LaurentSeries:
    """A precision-tracked element of F_q((pi)).

    Nonzero values keep coeff_codes[0] != 0 at exponent `val`; a value
    that is zero at its precision has empty coefficients and val = prec.
    """

    __slots__ = ("spec", "val", "coeff_codes", "prec")

    def __init__(self, spec: FieldSpec, val: int, coeff_codes, prec: int):
        coeff_codes = tuple(coeff_codes)
        # trim to precision, then cut off leading and trailing zeros at once
        end = len(coeff_codes)
        if val + end > prec:
            end = max(prec - val, 0)
        while end and coeff_codes[end - 1] == 0:
            end -= 1
        lead = 0
        while lead < end and coeff_codes[lead] == 0:
            lead += 1
        if lead:
            val += lead
        elif not end:
            val = prec
        coeff_codes = coeff_codes[lead:end]
        if val >= prec and coeff_codes:
            raise ValueError("valuation at or beyond precision with nonzero coefficients")
        self.spec = spec
        self.val = val
        self.coeff_codes = coeff_codes
        self.prec = prec

    # -- constructors -----------------------------------------------------------

    @classmethod
    def zero(cls, spec, prec: int) -> "LaurentSeries":
        return cls(spec, prec, (), prec)

    @classmethod
    def one(cls, spec, prec: int) -> "LaurentSeries":
        return cls(spec, 0, (1,), prec)

    @classmethod
    def constant(cls, spec, code: int, prec: int) -> "LaurentSeries":
        return cls(spec, 0, (code,), prec)

    @classmethod
    def theta(cls, spec, prec: int) -> "LaurentSeries":
        return cls(spec, -1, (1,), prec)

    @classmethod
    def pi(cls, spec, prec: int) -> "LaurentSeries":
        return cls(spec, 1, (1,), prec)

    @classmethod
    def from_apoly(cls, a, prec: int) -> "LaurentSeries":
        """A polynomial in theta as a Laurent series (val = -deg)."""
        codes = list(reversed(a.coeff_codes))
        return cls(a.spec, -a.degree if codes else prec, codes, prec)

    def ring_one(self) -> "LaurentSeries":
        return LaurentSeries.one(self.spec, self.rel_prec())

    # -- structure ----------------------------------------------------------------

    def is_zero(self) -> bool:
        """True when no nonzero coefficient is known (zero at precision)."""
        return not self.coeff_codes

    def __bool__(self):
        return bool(self.coeff_codes)

    def valuation(self):
        """v_inf, or None for a value that is zero at its precision."""
        return self.val if self.coeff_codes else None

    def rel_prec(self) -> int:
        return self.prec - self.val if self.coeff_codes else self.prec

    def coefficient(self, i: int) -> FqElem:
        """Coefficient of pi^i (must be below the precision)."""
        if i >= self.prec:
            raise PrecisionError(f"coefficient of pi^{i} beyond precision {self.prec}",
                                 precision=self.prec)
        j = i - self.val
        code = self.coeff_codes[j] if 0 <= j < len(self.coeff_codes) else 0
        return FqElem(self.spec, code)

    def is_one_unit(self) -> bool:
        return bool(self.coeff_codes) and self.val == 0 and self.coeff_codes[0] == 1

    def _check(self, other):
        if not isinstance(other, LaurentSeries):
            raise TypeError(f"cannot combine LaurentSeries with {type(other).__name__}")
        if other.spec != self.spec:
            raise FieldError("operands belong to different coefficient fields")
        return other

    # -- arithmetic ------------------------------------------------------------------

    def __add__(self, other):
        other = self._check(other)
        prec = min(self.prec, other.prec)
        if not self.coeff_codes:
            return LaurentSeries(other.spec, other.val, other.coeff_codes, prec)
        if not other.coeff_codes:
            return LaurentSeries(self.spec, self.val, self.coeff_codes, prec)
        lo = min(self.val, other.val)
        n = prec - lo
        a = (0,) * (self.val - lo) + self.coeff_codes
        b = (0,) * (other.val - lo) + other.coeff_codes
        return LaurentSeries(self.spec, lo, poly_add(self.spec, a[:n], b[:n]), prec)

    def __neg__(self):
        return self.scale_code(self.spec.neg_code(1))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        other = self._check(other)
        if not self.coeff_codes or not other.coeff_codes:
            # v(x*y) >= val_known(x) + val_known(y); precision caps likewise
            v1 = self.val if self.coeff_codes else self.prec
            v2 = other.val if other.coeff_codes else other.prec
            prec = min(self.prec + v2, other.prec + v1)
            return LaurentSeries.zero(self.spec, prec)
        prec = min(self.val + other.prec, other.val + self.prec)
        lo = self.val + other.val
        a, b, n = self.coeff_codes, other.coeff_codes, prec - lo
        if min(len(a), len(b), n) >= KERNEL_MUL_MIN:
            kernel = get_kernel(self.spec)
            raw = kernel.mul(kernel.from_codes(a[:n]), kernel.from_codes(b[:n]))
            out = kernel.to_codes(kernel.truncate(raw, n))
        else:
            out = poly_mul(self.spec, a, b, n)
        return LaurentSeries(self.spec, lo, out, prec)

    def scale_code(self, code: int) -> "LaurentSeries":
        return LaurentSeries(self.spec, self.val, poly_scale(self.spec, self.coeff_codes, code),
                             self.prec)

    def shift(self, k: int) -> "LaurentSeries":
        """Multiply by pi^k (exact)."""
        return LaurentSeries(self.spec, self.val + k, self.coeff_codes, self.prec + k)

    def inverse(self) -> "LaurentSeries":
        if not self.coeff_codes:
            raise PrecisionError(
                f"cannot invert a value that vanishes to precision {self.prec}",
                precision=self.prec)
        # with x = 1/pi, x^(rel+n-2) / (the n coefficients reversed) has the
        # inverse's first rel coefficients, highest power first, as its quotient
        n, rel = len(self.coeff_codes), self.prec - self.val
        quot, _ = poly_divmod(self.spec, [0] * (rel + n - 2) + [1], self.coeff_codes[::-1])
        return LaurentSeries(self.spec, -self.val, quot[::-1], self.prec - 2 * self.val)

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return LaurentSeries.one(self.spec, self.rel_prec())
        return binary_power(self, n, operator.mul)

    def truncate(self, prec: int) -> "LaurentSeries":
        if prec > self.prec:
            raise PrecisionError(f"cannot extend precision {self.prec} to {prec}",
                                 precision=self.prec)
        return LaurentSeries(self.spec, self.val, self.coeff_codes, prec)

    # -- comparison --------------------------------------------------------------------

    def agrees_with(self, other, prec: int | None = None) -> bool:
        """Equality of all coefficients below min(precisions) (or `prec`)."""
        other = self._check(other)
        cut = min(self.prec, other.prec)
        if prec is not None:
            if prec > cut:
                raise PrecisionError(f"agreement check at {prec} beyond known precision {cut}",
                                     precision=cut)
            cut = prec
        diff = self - other
        return not diff.coeff_codes or diff.val >= cut

    def __eq__(self, other):
        return (isinstance(other, LaurentSeries) and other.spec == self.spec
                and (other.val, other.coeff_codes, other.prec)
                == (self.val, self.coeff_codes, self.prec))

    def __hash__(self):
        return hash((self.spec, self.val, self.coeff_codes, self.prec))

    def __repr__(self):
        if not self.coeff_codes:
            return f"O(pi^{self.prec})"
        bits = []
        for i, c in enumerate(self.coeff_codes[:6]):
            if c:
                e = self.val + i
                bits.append(f"{c}*pi^{e}" if e else f"{c}")
        tail = " + ..." if len(self.coeff_codes) > 6 else ""
        return " + ".join(bits) + tail + f" + O(pi^{self.prec})"

    def to_json(self):
        return {"val": self.val if self.coeff_codes else None,
                "prec": self.prec,
                "coeffs": [self.spec.coords(c) for c in self.coeff_codes]}

    @classmethod
    def from_json(cls, spec, doc) -> "LaurentSeries":
        coeffs = [spec.from_coords(v) for v in doc["coeffs"]]
        val = doc["val"] if doc["val"] is not None else doc["prec"]
        return cls(spec, val, coeffs, doc["prec"])


# ---------------------------------------------------------------------------


def decompose(x: LaurentSeries):
    """Split nonzero x as sign * theta^deg * one_unit, exactly at precision.

    Returns (deg, sign, one_unit) with deg = -v(x), sign the leading
    coefficient, and one_unit of valuation 0 with constant term 1.  For a
    monic polynomial value this is (deg, 1, a / theta^deg).
    """
    if not x.coeff_codes:
        raise PrecisionError(f"cannot decompose a value that vanishes to precision {x.prec}",
                             precision=x.prec)
    deg = -x.val
    sign_code = x.coeff_codes[0]
    unit = x.scale_code(x.spec.inv_code(sign_code)).shift(-x.val)
    return deg, FqElem(x.spec, sign_code), unit


def one_unit_pow(u: LaurentSeries, y: ZpExp) -> LaurentSeries:
    """Raise a one-unit to a p-adic exponent y known modulo p^M.

    The result is u^N modulo pi^g, a one-unit, with N = y.as_int(),
    w = u - 1 and g = min(prec, p^M * v(w)): u^(p^i) = 1 + w^(p^i) is 1
    modulo pi^g once p^i v(w) >= g, so the unknown digits of y do not
    matter, and N may be cut to N mod p^i.  This is one kernel power
    truncated at pi^g.
    """
    if not u.is_one_unit():
        raise ValueError("one_unit_pow needs valuation 0 and constant term 1")
    spec, p = u.spec, y.p
    if p != spec.p:
        raise ValueError("exponent digit base differs from the field characteristic")
    prec, codes = u.prec, u.coeff_codes
    # v(w); a w that is zero to precision counts as prec, so the guarantee is prec
    v = next((i for i in range(1, len(codes)) if codes[i]), prec)
    guarantee = min(prec, p ** y.precision * v)
    period = least_p_power(p, -(-guarantee // v))
    kernel = get_kernel(spec)
    raw = kernel.pow(kernel.from_codes(codes), y.as_int() % period, limit=guarantee)
    return LaurentSeries(spec, 0, kernel.to_codes(raw), guarantee)
