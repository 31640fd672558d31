import hashlib
import json
import operator
import random

import pytest
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_add, gf_mul

from ffzeta import seriesinf
from ffzeta._kernels import get_kernel
from ffzeta.fields import FieldSpec, ZpExp, binary_power, poly_add, poly_mul, poly_trim
from ffzeta.oracle import _one_unit_digit_power
from ffzeta.polyring import APoly
from ffzeta.seriesinf import (KERNEL_MUL_MIN, LaurentSeries, PrecisionError, decompose,
                              one_unit_pow)

F2 = FieldSpec.default(2)
F3 = FieldSpec.default(3)


def rand_series(spec, rng, prec, unit=False):
    val = 0 if unit else rng.randrange(-4, 5)
    codes = [rng.randrange(spec.q) for _ in range(prec - val)]
    codes[0] = 1 if unit else rng.randrange(1, spec.q)
    return LaurentSeries(spec, val, codes, prec)


def test_arith_fixtures():
    theta = LaurentSeries.theta(F2, 10)
    pi = LaurentSeries.pi(F2, 10)
    prod = theta * pi
    assert prod.val == 0 and prod.coeff_codes == (1,)
    u = LaurentSeries.one(F2, 12) + pi
    assert (u * u.inverse()).agrees_with(LaurentSeries.one(F2, 12))
    inv = LaurentSeries.from_apoly(APoly(F2, (0, 1, 1)), 10).inverse()
    assert inv.val == 2
    assert all(c == 1 for c in inv.coeff_codes)  # geometric series


def test_precision_rules():
    x = LaurentSeries(F3, -1, (1, 2), 7)     # known mod pi^7
    y = LaurentSeries(F3, 2, (2, 1, 1), 9)   # known mod pi^9
    assert (x + y).prec == 7
    assert (x * y).prec == min(-1 + 9, 2 + 7)
    inv = x.inverse()
    assert inv.val == 1 and inv.prec == 7 - 2 * (-1)
    with pytest.raises(PrecisionError):
        x.truncate(20)


def test_zero_at_precision_behaviour():
    z = LaurentSeries.zero(F2, 6)
    assert z.is_zero() and z.valuation() is None
    with pytest.raises(PrecisionError) as err:
        z.inverse()
    assert err.value.precision == 6
    x = LaurentSeries.theta(F2, 8)
    assert (z * x).is_zero()
    assert (z + x) == LaurentSeries(F2, -1, (1,), 6)


def test_exact_cancellation_gives_zero_at_precision():
    x = LaurentSeries(F2, 0, (1, 1), 9)
    assert (x - x).is_zero()
    assert (x - x).prec == 9


def test_decompose_fixtures():
    d, s, u = decompose(LaurentSeries.theta(F2, 10))
    assert (d, s.code) == (1, 1) and u.coeff_codes == (1,)
    d, s, u = decompose(LaurentSeries.constant(F3, 2, 10))
    assert (d, s.code) == (0, 2) and u.coeff_codes == (1,)
    d, s, u = decompose(LaurentSeries.from_apoly(APoly(F2, (1, 1, 1)), 10))
    assert (d, s.code) == (2, 1)
    assert u.val == 0 and u.coeff_codes == (1, 1, 1)
    with pytest.raises(PrecisionError):
        decompose(LaurentSeries.zero(F2, 5))


def test_decompose_multiplicative():
    rng = random.Random(12)
    for spec in (F2, F3):
        for _ in range(100):
            x = rand_series(spec, rng, 20)
            y = rand_series(spec, rng, 20)
            dx, sx, ux = decompose(x)
            dy, sy, uy = decompose(y)
            dxy, sxy, uxy = decompose(x * y)
            assert dxy == dx + dy
            assert sxy == sx * sy
            assert uxy.agrees_with(ux * uy)


def test_one_unit_pow_fixtures():
    u = LaurentSeries.one(F2, 12) + LaurentSeries.pi(F2, 12)
    assert one_unit_pow(u, ZpExp(2, (1,))).agrees_with(u)
    # digits of p^i give the Frobenius factor 1 + w^(p^i)
    r = one_unit_pow(u, ZpExp(2, (0, 0, 1)))
    expected = LaurentSeries.one(F2, 12) + LaurentSeries(F2, 4, (1,), 12)
    assert r.agrees_with(expected)
    # digits of -1 invert u to the guaranteed precision
    m = one_unit_pow(u, ZpExp.from_int(-1, 2, 4))
    assert (m * u).agrees_with(LaurentSeries.one(F2, 12), prec=min(m.prec, 12))


def test_one_unit_pow_rejects_bad_inputs():
    with pytest.raises(ValueError):
        one_unit_pow(LaurentSeries.theta(F2, 8), ZpExp(2, (1,)))
    u = LaurentSeries.one(F2, 8) + LaurentSeries.pi(F2, 8)
    with pytest.raises(ValueError):
        one_unit_pow(u, ZpExp(3, (1,)))


def test_one_unit_pow_integer_exponents_match_plain_powers():
    rng = random.Random(3)
    for spec in (F2, F3):
        p = spec.p
        for _ in range(60):
            prec = rng.randrange(8, 33)
            u = rand_series(spec, rng, prec, unit=True)
            M = rng.randrange(1, 6)
            k = rng.randrange(0, p ** M)
            r = one_unit_pow(u, ZpExp.from_int(k, p, M))
            assert r.agrees_with(u ** k, prec=min(r.prec, (u ** k).prec))


def test_one_unit_pow_homomorphism_laws():
    rng = random.Random(8)
    for spec in (F2, F3):
        p = spec.p
        for _ in range(200):
            prec = rng.randrange(10, 65)
            M = rng.randrange(1, 7)
            u = rand_series(spec, rng, prec, unit=True)
            v = rand_series(spec, rng, prec, unit=True)
            y1 = ZpExp(p, [rng.randrange(p) for _ in range(M)])
            y2 = ZpExp(p, [rng.randrange(p) for _ in range(M)])
            total = (y1.as_int() + y2.as_int()) % p ** M
            lhs = one_unit_pow(u, ZpExp.from_int(total, p, M))
            rhs = one_unit_pow(u, y1) * one_unit_pow(u, y2)
            cut = min(lhs.prec, rhs.prec, p ** M)
            assert lhs.agrees_with(rhs, prec=cut)
            lhs2 = one_unit_pow(u * v, y1)
            rhs2 = one_unit_pow(u, y1) * one_unit_pow(v, y1)
            cut2 = min(lhs2.prec, rhs2.prec)
            assert lhs2.agrees_with(rhs2, prec=cut2)


def test_json_roundtrip():
    x = LaurentSeries(F3, -2, (2, 0, 1), 6)
    assert LaurentSeries.from_json(F3, x.to_json()) == x
    z = LaurentSeries.zero(F3, 4)
    assert LaurentSeries.from_json(F3, z.to_json()) == z


# (q, val, coefficient codes, prec): valuations -2, 0, 1, -1, 0, 2
POWER_BASES = ((2, -2, (1, 1, 0, 1), 12), (3, 0, (1, 2, 0, 1, 2), 15), (4, 1, (2, 3, 1), 9),
               (9, -1, (5, 0, 7, 1), 10), (5, 0, (3, 1), 8), (8, 2, (1, 0, 6), 7))
# sha256 of the JSON rows [q, n, val, coeff_codes, prec] of base ** n for
# n = 1..40: the precision of a power depends on the order of its products
POWERS_DIGEST = "2233429578a014c14bd8ba3e7868d2bc934d0adf9d9cd3a9f0488ecf4b0154fc"


def test_powers_are_pinned():
    rows = []
    for q, val, codes, prec in POWER_BASES:
        x = LaurentSeries(FieldSpec.default(q), val, codes, prec)
        for n in range(1, 41):
            y = x ** n
            rows.append([q, n, y.val, list(y.coeff_codes), y.prec])
    assert rows[39] == [2, 40, -80, [1, 0, 0, 0, 0, 0, 0, 0, 1], -66]
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == POWERS_DIGEST


def test_construction_strips_leading_zeros_into_the_valuation():
    rng = random.Random(8)
    for _ in range(300):
        val, prec = rng.randrange(-6, 6), rng.randrange(-4, 12)
        codes = [rng.choice((0, 0, 0, 1, 2)) for _ in range(rng.randrange(0, 12))]
        kept = codes[:max(prec - val, 0)]
        nonzero = [i for i, c in enumerate(kept) if c]
        s = LaurentSeries(F3, val, codes, prec)
        assert s.prec == prec
        if nonzero:
            assert s.val == val + nonzero[0]
            assert s.coeff_codes == tuple(kept[nonzero[0]:nonzero[-1] + 1])
        else:
            assert (s.val, s.coeff_codes) == (prec, ())


# -- the code-list arithmetic against sympy's GF(p) polynomials ---------------------


def _operand(spec, rng, kind):
    """A dense, sparse or zero series over F_p with a random valuation and precision."""
    val, prec = rng.randrange(-5, 6), rng.randrange(6, 30)
    if kind == "zero":
        return LaurentSeries.zero(spec, prec)
    codes = [rng.randrange(1, spec.q) if kind == "dense" or rng.random() < 0.2 else 0
             for _ in range(prec - val)]
    codes[0] = rng.randrange(1, spec.q)
    return LaurentSeries(spec, val, codes, prec)


def _gf(x, lo):
    """x's known coefficients from pi^lo up, as a sympy dense list (highest first)."""
    return [ZZ(c) for c in reversed((0,) * (x.val - lo) + x.coeff_codes)] if x else []


def _assert_series(s, lo, gf_coeffs, prec):
    """s is known mod pi^prec and its coefficients from pi^lo up are gf_coeffs'."""
    ascending = [int(c) for c in reversed(gf_coeffs)]
    assert s.prec == prec
    for i in range(min(lo, prec), prec):
        want = ascending[i - lo] if 0 <= i - lo < len(ascending) else 0
        assert s.coefficient(i).code == want, (i, s)
    first = [i for i in range(lo, prec) if s.coefficient(i).code]
    assert s.val == (first[0] if first else prec)


@pytest.mark.parametrize("p", [2, 3, 5, 257])
def test_series_arithmetic_matches_sympy_gf(p):
    spec, rng = FieldSpec.default(p), random.Random(p)
    kinds = ("dense", "sparse", "zero")
    for _ in range(60):
        x, y = _operand(spec, rng, rng.choice(kinds)), _operand(spec, rng, rng.choice(kinds))
        # sum: known to the smaller precision
        lo = min(x.val, y.val)
        _assert_series(x + y, lo, gf_add(_gf(x, lo), _gf(y, lo), p, ZZ), min(x.prec, y.prec))
        # product: known to min(v(x) + prec(y), v(y) + prec(x)), a zero factor
        # counting with valuation equal to its precision
        prec = min(x.val + y.prec, y.val + x.prec)
        _assert_series(x * y, x.val + y.val, gf_mul(_gf(x, x.val), _gf(y, y.val), p, ZZ), prec)
        if not x:
            continue
        # inverse: valuation -v(x), the same relative precision
        inv, rel = x.inverse(), x.prec - x.val
        assert (inv.val, inv.prec) == (-x.val, x.prec - 2 * x.val)
        prod = [int(c) for c in reversed(gf_mul(_gf(x, x.val), _gf(inv, inv.val), p, ZZ))]
        assert (prod + [0] * rel)[:rel] == [1] + [0] * (rel - 1)


TOWER = FieldSpec.extension(FieldSpec.default(4), (2, 1, 1))  # x^2 + x + xi over F_4


@pytest.mark.parametrize("spec", [FieldSpec.default(4), FieldSpec.default(9),
                                  FieldSpec.default(27), TOWER], ids=["4", "9", "27", "4^2"])
def test_series_ring_laws_over_extension_fields(spec):
    rng = random.Random(spec.q)
    one = LaurentSeries.one(spec, 40)
    for _ in range(30):
        x, y, z = (rand_series(spec, rng, rng.randrange(8, 24)) for _ in range(3))
        lhs, rhs = (x * y) * z, x * (y * z)
        assert lhs.agrees_with(rhs, prec=min(lhs.prec, rhs.prec))
        lhs, rhs = x * (y + z), x * y + x * z
        assert lhs.agrees_with(rhs, prec=min(lhs.prec, rhs.prec))
        unit = x * x.inverse()
        assert unit.val == 0 and unit.agrees_with(one)


# -- products and one-unit powers on the packed kernels ------------------------------

# shorter-operand lengths on both sides of the kernel crossover
CROSSOVER_LENGTHS = (1, 3, KERNEL_MUL_MIN - 1, KERNEL_MUL_MIN, KERNEL_MUL_MIN + 1,
                     2 * KERNEL_MUL_MIN, 5 * KERNEL_MUL_MIN)


def _dense(spec, rng, val, length, prec):
    codes = [rng.randrange(1, spec.q)] + [rng.randrange(spec.q) for _ in range(length - 1)]
    return LaurentSeries(spec, val, codes, prec)


def _crossover_pairs(spec, rng):
    """Dense operands whose shorter side, cut to the product's length, has
    each of CROSSOVER_LENGTHS coefficients; the longer side is either as
    long or longer than the product keeps."""
    for n in CROSSOVER_LENGTHS:
        for extra in (0, 7):
            vx, vy = rng.randrange(-4, 5), rng.randrange(-4, 5)
            x = _dense(spec, rng, vx, n, vx + n)
            y = _dense(spec, rng, vy, n + extra, vy + n + extra)
            yield (x, y) if rng.random() < 0.5 else (y, x)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_series_product_matches_sympy_across_the_kernel_crossover(p, monkeypatch):
    spec, rng = FieldSpec.default(p), random.Random(p + 100)
    code_list = []
    real = seriesinf.poly_mul
    monkeypatch.setattr(seriesinf, "poly_mul", lambda *a: code_list.append(a) or real(*a))
    short = 0
    for x, y in _crossover_pairs(spec, rng):
        prec = min(x.val + y.prec, y.val + x.prec)
        short += min(len(x.coeff_codes), len(y.coeff_codes), prec - x.val - y.val) < KERNEL_MUL_MIN
        _assert_series(x * y, x.val + y.val, gf_mul(_gf(x, x.val), _gf(y, y.val), p, ZZ), prec)
    # products below the crossover ran on code lists, the others on the kernel
    assert len(code_list) == short and 0 < short < 2 * len(CROSSOVER_LENGTHS)


@pytest.mark.parametrize("spec", [FieldSpec.default(4), FieldSpec.default(9), TOWER],
                         ids=["4", "9", "4^2"])
def test_series_product_matches_the_code_list_product_across_the_crossover(spec):
    rng = random.Random(spec.q + 200)
    for x, y in _crossover_pairs(spec, rng):
        prec = min(x.val + y.prec, y.val + x.prec)
        lo = x.val + y.val
        want = (APoly(spec, x.coeff_codes) * APoly(spec, y.coeff_codes)).coeff_codes
        assert x * y == LaurentSeries(spec, lo, want[:prec - lo], prec)


class _CodeListSeries:
    """F_q[pi]/(pi^n) on code lists alone (fields.poly_add and poly_mul):
    the ring of the reference digit product."""

    def __init__(self, spec, codes, n):
        self.spec, self.n = spec, n
        self.codes = poly_trim(list(codes)[:n])

    def is_zero(self):
        return not self.codes

    def __add__(self, other):
        return _CodeListSeries(self.spec, poly_add(self.spec, self.codes, other.codes), self.n)

    def __mul__(self, other):
        return _CodeListSeries(self.spec, poly_mul(self.spec, self.codes, other.codes, self.n),
                               self.n)

    def __pow__(self, d):
        return binary_power(self, d, operator.mul)

    def p_power(self):
        spread = [0] * (len(self.codes) * self.spec.p)
        for i, c in enumerate(self.codes):
            spread[i * self.spec.p] = self.spec.frob_code(c)
        return _CodeListSeries(self.spec, spread, self.n)


def _digit_product_reference(u, y):
    """prod_i (1 + w^(p^i))^(d_i) in F_q[pi]/(pi^prec) on code lists, cut
    to the certified min(prec, p^M v(w)), as (codes, precision)."""
    spec, prec = u.spec, u.prec
    one = _CodeListSeries(spec, [1], prec)
    w = _CodeListSeries(spec, (0,) + u.coeff_codes[1:], prec)
    v = next((i for i, c in enumerate(w.codes) if c), prec)
    cert = min(prec, spec.p ** y.precision * v)
    value = _one_unit_digit_power(w, y.digits, one, _CodeListSeries.p_power)
    return tuple(poly_trim(value.codes[:cert])), cert


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_one_unit_pow_matches_the_code_list_digit_product(q):
    spec, rng = FieldSpec.default(q), random.Random(q + 300)
    p = spec.p
    for M in range(1, 9):
        for _ in range(6):
            prec = rng.randrange(1, 60)
            # dense, sparse from a random valuation, and zero at precision
            kind = rng.choice(("dense", "sparse", "one"))
            codes = [1] + [0] * (prec - 1)
            if kind != "one":
                start = 1 if kind == "dense" else rng.randrange(1, prec + 1)
                for i in range(start, prec):
                    codes[i] = rng.randrange(q) if kind == "dense" or rng.random() < 0.3 else 0
            u = LaurentSeries(spec, 0, codes, prec)
            y = ZpExp(p, [rng.randrange(p) for _ in range(M)])
            got = one_unit_pow(u, y)
            want, cert = _digit_product_reference(u, y)
            assert (got.val, got.coeff_codes, got.prec) == (0, want, cert), (u, y)
    # u - 1 zero at precision: the value is 1, known to the full precision
    u = LaurentSeries(spec, 0, (1,), 17)
    assert one_unit_pow(u, ZpExp(p, (1,) * 5)) == LaurentSeries.one(spec, 17)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_one_unit_pow_is_one_kernel_power_without_code_list_products(q, monkeypatch):
    spec, rng = FieldSpec.default(q), random.Random(q + 400)
    kernel = get_kernel(spec)
    products = []
    real_mul = kernel.mul

    def mul(a, b):
        products.append(1)
        return real_mul(a, b)

    def no_code_lists(*args):
        raise AssertionError("one_unit_pow ran a code-list product")

    monkeypatch.setattr(kernel, "mul", mul)
    monkeypatch.setattr(seriesinf, "poly_mul", no_code_lists)
    for M in (1, 4, 8):
        u = _dense(spec, rng, 0, 40, 40)
        u = LaurentSeries(spec, 0, (1,) + u.coeff_codes[1:], 40)
        y = ZpExp(spec.p, [rng.randrange(1, spec.p) for _ in range(M)])
        del products[:]
        one_unit_pow(u, y)
        digits = 0
        n = y.as_int()
        while n:
            n, digits = n // q, digits + 1
        # the small powers u^2..u^(q-1) at most, then one product per digit
        assert len(products) <= (q - 2) + digits
