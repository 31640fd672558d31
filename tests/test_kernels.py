"""Kernel arithmetic against APoly, the quotient kernel against APoly % m."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_pow

from ffzeta import fields, oracle, zeta
from ffzeta._kernels import QuotientKernel, RawSum, get_kernel
from ffzeta.fields import FieldSpec, binary_power, poly_mod, poly_mul, poly_trim
from ffzeta.padic import _invert_mod
from ffzeta.polyring import APoly

SMALL_Q = (2, 3, 4, 5, 8, 9, 16, 25, 27)
FIELDS = {q: FieldSpec.default(q) for q in SMALL_Q}
# codes above 255: a packed field (p = 17, e = 2) and a bit-plane field
FIELDS[289] = FieldSpec(17, (14, 0, 1))                  # xi^2 - 3
FIELDS[512] = FieldSpec(2, (1, 0, 0, 0, 1, 0, 0, 0, 0, 1))  # xi^9 + xi^4 + 1
FIELDS[729] = FieldSpec(3, (1, 0, 0, 0, 1, 1, 1))        # xi^6 + xi^5 + xi^4 + 1

F4 = FieldSpec.default(4)
TOWERS = {"F4[x]/(x^2+x+xi)": FieldSpec.extension(F4, (2, 1, 1)),
          "F4[x]/(x^3+x+1)": FieldSpec.extension(F4, (1, 1, 0, 1))}

# (q, P, k): moduli P^k with D = k deg P from 1 to 40
MODULI = ((2, (1, 1), 1), (2, (1, 1, 1), 7), (2, (1, 1, 0, 1), 13), (3, (1, 1), 40),
          (3, (1, 0, 1), 9), (4, (2, 1), 5), (5, (2, 1), 17), (9, (3, 1), 6),
          (25, (1, 1), 3), (27, (2, 0, 1), 10))


def _poly(spec, draw, max_len):
    return APoly(spec, draw(st.lists(st.integers(0, spec.q - 1), max_size=max_len)))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(FIELDS)), st.data())
def test_codec_round_trip(q, data):
    spec = FIELDS[q]
    kernel = get_kernel(spec)
    a = _poly(spec, data.draw, 40)
    assert kernel.to_codes(kernel.from_codes(a.coeff_codes)) == a.coeff_codes
    # trailing zero codes do not change the raw value
    assert kernel.from_codes(a.coeff_codes + (0, 0)) == kernel.from_codes(a.coeff_codes)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(SMALL_Q), st.data())
def test_kernel_ops_match_apoly(q, data):
    spec = FIELDS[q]
    kernel = get_kernel(spec)
    a, b = _poly(spec, data.draw, 25), _poly(spec, data.draw, 25)
    code = data.draw(st.integers(0, q - 1))
    n = data.draw(st.integers(0, 3 * q + 2))
    ra, rb = kernel.from_codes(a.coeff_codes), kernel.from_codes(b.coeff_codes)
    assert kernel.to_codes(kernel.mul(ra, rb)) == (a * b).coeff_codes
    assert kernel.to_codes(kernel.add(ra, rb)) == (a + b).coeff_codes
    assert kernel.to_codes(kernel.scale(ra, code)) == (a * APoly.constant(spec, code)).coeff_codes
    assert kernel.to_codes(kernel.pow(ra, n)) == (a ** n).coeff_codes
    assert kernel.is_zero(kernel.add(ra, kernel.scale(ra, spec.neg_code(1))))


# -- field tables against polynomial products ------------------------------------

class _ModP:
    """F_p by integer arithmetic: the ground of the reference products."""

    def __init__(self, p):
        self.p = p

    def add_code(self, a, b):
        return (a + b) % self.p

    def mul_code(self, a, b):
        return a * b % self.p

    def neg_code(self, a):
        return -a % self.p

    def inv_code(self, a):
        return pow(a, -1, self.p)


def _reference_mul(spec):
    """a * b as ground-digit polynomials reduced by the modulus."""
    ground = spec.base if spec.base is not None else _ModP(spec.p)
    mod = list(spec.modulus)

    def mul(a, b):
        prod = poly_mul(ground, poly_trim(spec.digits(a)), poly_trim(spec.digits(b)))
        return spec.from_digits(poly_mod(ground, prod, mod))
    return mul


@pytest.mark.parametrize("name", [*map(str, sorted(FIELDS)), *TOWERS])
def test_field_tables_match_polynomial_products(name):
    spec = TOWERS.get(name) or FIELDS[int(name)]
    q, p = spec.q, spec.p
    mul = _reference_mul(spec)
    rng = random.Random(name)
    if q <= 27:
        pairs = [(a, b) for a in range(q) for b in range(q)]
        units = range(1, q)
    else:
        pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(400)]
        units = rng.sample(range(1, q), 60)
    for a, b in pairs:
        assert spec.mul_code(a, b) == mul(a, b), (a, b)
    for a in range(1, q):
        assert mul(a, spec.inv_code(a)) == 1, a
    for a in units:
        frob = a
        for j in range(spec.e + 1):
            assert spec.frob_code(a, j) == frob, (a, j)
            frob = binary_power(frob, p, mul)
        for n in (0, 1, 2, 3, p, q - 2, q - 1, q, q + 1, 5 * q + 3):
            want = binary_power(a, n, mul) if n else 1
            assert spec.pow_code(a, n) == want, (a, n)
            assert mul(spec.pow_code(a, -n), want) == 1, (a, -n)
    assert spec.pow_code(0, 0) == 1
    assert spec.pow_code(0, 1) == spec.pow_code(0, q) == 0
    with pytest.raises(ZeroDivisionError):
        spec.pow_code(0, -1)


@pytest.mark.parametrize("name", [*map(str, sorted(FIELDS)), *TOWERS])
def test_code_is_its_coordinate_index(name):
    """coords(c) is the base-p digit vector of c, towers included: a
    tower code's coordinates are its base codes' coordinates in turn,
    and coordinates add like the F_p-vector space they span."""
    spec = TOWERS.get(name) or FIELDS[int(name)]
    p = spec.p
    for c in range(spec.q):
        coords = spec.coords(c)
        assert c == sum(x * p ** j for j, x in enumerate(coords)), c
        assert spec.from_coords(coords) == c
        if spec.base is not None:
            assert coords == [x for d in spec.digits(c) for x in spec.base.coords(d)], c
    rng = random.Random(name)
    for _ in range(200):
        a, b = rng.randrange(spec.q), rng.randrange(spec.q)
        assert spec.coords(spec.add_code(a, b)) == [
            (x + y) % p for x, y in zip(spec.coords(a), spec.coords(b))], (a, b)


def test_field_tables_build_from_a_few_products_per_element(monkeypatch):
    spec = FieldSpec(3, (1, 0, 0, 0, 1, 1, 1))  # a fresh q = 729: tables not built
    calls = []
    real_mul, real_divmod = fields.poly_mul, fields.poly_divmod

    def count(real):
        def wrapped(*args):
            calls.append(real)
            return real(*args)
        return wrapped

    monkeypatch.setattr(fields, "poly_mul", count(real_mul))
    monkeypatch.setattr(fields, "poly_divmod", count(real_divmod))
    assert spec.mul_code(3, 9) == 27
    assert len(calls) <= 4 * (spec.q - 1)


# -- pow: Horner's rule on base-q digits ------------------------------------------

POW_REF_DEGREE = 1500  # largest power degree asked of the schoolbook references


def _pow_cases(spec):
    """(x, n) pairs with deg x * n <= POW_REF_DEGREE: constants, theta + c and
    a degree-2 x against exponents of one to ten base-q digits, among them
    q^k - 1 (k digits q - 1) and digits of 0.  Every field gets a
    three-digit exponent; up to q = 27 a non-constant x gets one too."""
    q = spec.q
    rng = random.Random(q)
    c = rng.randrange(1, q)
    xs = [(c,), (c, 1), (rng.randrange(q), rng.randrange(q), rng.randrange(1, q))]
    ns = [q ** k - 1 for k in range(1, 11)] + [2 * q - 1, (q - 1) * q, q * q + q - 1,
                                               2 * q ** 3 + q]
    return [(APoly(spec, x), n) for x in xs for n in ns
            if (len(x) - 1) * n <= POW_REF_DEGREE]


@pytest.mark.parametrize("q", sorted(FIELDS))
def test_kernel_pow_matches_apoly_power(q):
    spec = FIELDS[q]
    kernel = get_kernel(spec)
    cases = _pow_cases(spec)
    assert any(n >= q * q for _, n in cases)
    for x, n in cases:
        assert kernel.to_codes(kernel.pow(kernel.from_codes(x.coeff_codes), n)) \
            == (x ** n).coeff_codes, (x.coeff_codes, n)


@pytest.mark.parametrize("p", (2, 3, 5, 251))
def test_kernel_pow_matches_sympy_gf_pow(p):
    spec = FieldSpec(p, (0, 1))
    kernel = get_kernel(spec)
    for x, n in _pow_cases(spec):
        want = gf_pow(list(reversed(x.coeff_codes)), n, p, ZZ)
        got = kernel.to_codes(kernel.pow(kernel.from_codes(x.coeff_codes), n))
        assert list(reversed(got)) == want, (x.coeff_codes, n)


def test_pow_at_p_251_keeps_the_short_operand_under_the_digit_bound():
    # 502 = 2 * 251: x^2 is spread once, and no product meets the
    # 268-coefficient bound on its shorter operand
    kernel = get_kernel(FieldSpec(251, (0, 1)))
    x = kernel.from_codes((1, 0, 1))
    got = kernel.to_codes(kernel.pow(x, 502))
    assert list(reversed(got)) == gf_pow([1, 0, 1], 502, 251, ZZ)
    # 501 = 250 + 251: the spread theta^502 + 1 times x^250, whose 501
    # coefficients pass the bound, so that product is cut into pieces
    got = kernel.to_codes(kernel.pow(x, 501))
    assert list(reversed(got)) == gf_pow([1, 0, 1], 501, 251, ZZ)


@pytest.mark.parametrize("q", (2, 3, 4, 5, 8, 9))
def test_pow_multiplies_by_short_powers_and_spreads_once_per_digit(q, monkeypatch):
    spec = FIELDS[q]
    kernel = get_kernel(spec)
    rng = random.Random(q)
    real_mul, real_spread = kernel.mul, kernel.frob_spread
    seen = {"mul": [], "spread": 0}

    def mul(a, b):
        seen["mul"].append(min(len(kernel.to_codes(a)), len(kernel.to_codes(b))))
        return real_mul(a, b)

    def spread(a):
        seen["spread"] += 1
        return real_spread(a)

    monkeypatch.setattr(kernel, "mul", mul)
    monkeypatch.setattr(kernel, "frob_spread", spread)
    for deg in (1, 2, 3):
        x = kernel.from_codes([rng.randrange(q) for _ in range(deg)] + [1])
        for digits in ((q - 1, 0, q - 1), (1, 0, 0, 1), (0, 1, 2 % q, q - 1, 1)):
            n = sum(d * q ** i for i, d in enumerate(digits))
            seen["mul"], seen["spread"] = [], 0
            kernel.pow(x, n)
            assert max(seen["mul"], default=0) <= (q - 1) * deg + 1
            assert seen["spread"] == len(digits) - 1
            # the small powers x^2..x^(max digit), then one product per
            # nonzero digit below the top
            assert len(seen["mul"]) == max(digits) - 1 + sum(map(bool, digits[:-1]))


@pytest.mark.parametrize("q", (2, 3, 4, 5, 9, 251))
def test_limited_pow_is_the_power_mod_theta_to_the_limit(q):
    """pow(x, n, limit=L) against the APoly power cut to its low L codes."""
    spec = FIELDS[q] if q in FIELDS else FieldSpec(q, (0, 1))
    kernel = get_kernel(spec)
    rng = random.Random(q)
    for _ in range(40):
        x = APoly(spec, [1] + [rng.randrange(q) for _ in range(rng.randrange(0, 8))])
        n, limit = rng.randrange(0, 3 * q * q), rng.randrange(1, 40)
        if (x.degree * n) > POW_REF_DEGREE:
            continue
        raw = kernel.pow(kernel.from_codes(x.coeff_codes), n, limit=limit)
        assert kernel.to_codes(raw) == tuple(poly_trim((x ** n).coeff_codes[:limit])), (x, n, limit)
        assert kernel.to_codes(kernel.truncate(kernel.from_codes(x.coeff_codes), limit)) \
            == tuple(poly_trim(x.coeff_codes[:limit]))


# -- towers: the coordinate basis is not a power basis -------------------------------

# F_9[x]/(x^2 + 4x + 1): a tower over odd p, so the packed kernel's plane products
ODD_TOWER = FieldSpec.extension(FIELDS[9], (1, 4, 1))


@pytest.mark.parametrize("spec", [*TOWERS.values(), ODD_TOWER], ids=[*TOWERS, "F9[x]/(x^2+4x+1)"])
def test_kernel_products_on_towers_match_apoly(spec):
    """A tower's plane units u_i = code p^i are not the powers of one
    element, so each plane product u_i u_j comes from the field's table;
    products and powers against the code-list APoly ones."""
    kernel = get_kernel(spec)
    rng = random.Random(spec.q)
    pairs = [(a, b) for a in range(spec.q) for b in range(spec.q)]
    for a, b in pairs if spec.q <= 16 else rng.sample(pairs, 600):
        got = kernel.to_codes(kernel.mul(kernel.from_codes((a,)), kernel.from_codes((b,))))
        assert got == (APoly(spec, (a,)) * APoly(spec, (b,))).coeff_codes, (a, b)
    for _ in range(30):
        x, y = (APoly(spec, [rng.randrange(spec.q) for _ in range(rng.randrange(1, 20))])
                for _ in range(2))
        rx, ry = kernel.from_codes(x.coeff_codes), kernel.from_codes(y.coeff_codes)
        assert kernel.to_codes(kernel.mul(rx, ry)) == (x * y).coeff_codes
        n = rng.randrange(0, 2 * spec.q + 3)
        if x.degree * n <= POW_REF_DEGREE:
            assert kernel.to_codes(kernel.pow(rx, n)) == (x ** n).coeff_codes, (x, n)


@pytest.mark.parametrize("name", [*map(str, sorted(FIELDS)), "F9[x]/(x^2+4x+1)"])
def test_packed_digit_bound_weight_comes_from_the_plane_products(name):
    """max_mul_len keeps (p-1)^2 * w * L < 2^24, w the largest sum over plane
    pairs (i, i') of a coordinate of u_i u_i'; on a power basis u_i = xi^i
    that is the count of pairs of each degree k times the coordinates of xi^k."""
    spec = ODD_TOWER if name.startswith("F9[") else FIELDS[int(name)]
    if spec.p == 2:
        return
    kernel, p, e = get_kernel(spec), spec.p, spec.e
    if e == 1:
        weight = 1
    elif spec.base is None:
        weight = max(sum(spec.coords(spec.pow_code(p, k))[j] * min(k + 1, 2 * e - 1 - k)
                         for k in range(2 * e - 1)) for j in range(e))
    else:
        weight = max(sum(spec.coords(spec.mul_code(p ** i, p ** k))[j]
                         for i in range(e) for k in range(e)) for j in range(e))
    assert kernel.max_mul_len == (2 ** 24 - 1) // ((p - 1) ** 2 * weight)


@pytest.mark.parametrize("q", (2, 3, 4, 9))
def test_kernel_pow_rejects_negative_exponents(q, monkeypatch):
    kernel = get_kernel(FIELDS[q])
    spreads = []

    def spread(a):  # a digit loop on n = -1 would spread without end
        spreads.append(a)
        assert len(spreads) < 64
        return a

    monkeypatch.setattr(kernel, "frob_spread", spread)
    with pytest.raises(ValueError, match="n >= 0"):
        kernel.pow(kernel.from_codes((1, 1)), -1)
    assert not spreads


def test_quotient_kernel_pow_rejects_negative_exponents(monkeypatch):
    spec = FieldSpec.default(3)
    kernel = get_kernel(spec)
    qk = QuotientKernel(kernel, (APoly(spec, (1, 1)) ** 4).coeff_codes)
    products = []
    real_mul = qk.mul

    def mul(a, b):  # square-and-multiply on n = -1 would square without end
        products.append(a)
        assert len(products) < 64
        return real_mul(a, b)

    monkeypatch.setattr(qk, "mul", mul)
    with pytest.raises(ValueError, match="n >= 1"):
        qk.pow(kernel.from_codes((2, 1)), -1)
    assert not products


@pytest.mark.parametrize("q, P, k", MODULI)
def test_quotient_kernel_matches_apoly(q, P, k):
    spec = FieldSpec.default(q)
    kernel = get_kernel(spec)
    P = APoly(spec, P)
    m = P ** k
    qk = QuotientKernel(kernel, m.coeff_codes)
    D = qk.D
    assert D == k * P.degree
    seed = APoly(spec, [(3 * i + 1) % q for i in range(2 * D - 1)])
    for deg in range(2 * D - 1):  # every operand degree up to 2D - 2
        a = APoly(spec, seed.coeff_codes[:deg] + (1,))
        assert kernel.to_codes(qk.reduce(kernel.from_codes(a.coeff_codes))) == (a % m).coeff_codes
    x = APoly(spec, seed.coeff_codes[:D]) % m
    y = APoly(spec, seed.coeff_codes[D - 1::-1]) % m
    rx, ry = kernel.from_codes(x.coeff_codes), kernel.from_codes(y.coeff_codes)
    assert kernel.to_codes(qk.mul(rx, ry)) == (x * y % m).coeff_codes
    assert kernel.to_codes(qk.pow(rx, 2 * q + 1)) == (x ** (2 * q + 1) % m).coeff_codes
    unit = x + APoly.one(spec) if (x % P).is_zero() else x
    res_inv = _invert_mod(spec, unit, P)
    inv = qk.inverse(kernel.from_codes((unit % m).coeff_codes),
                     kernel.from_codes(res_inv.coeff_codes))
    assert kernel.to_codes(inv) == _invert_mod(spec, unit, m).coeff_codes


@pytest.mark.parametrize("q", (2, 3, 9))
def test_quotient_kernel_rejects_operand_past_barrett_range(q):
    spec = FieldSpec.default(q)
    kernel = get_kernel(spec)
    qk = QuotientKernel(kernel, (APoly(spec, (1, 1)) ** 6).coeff_codes)
    top = kernel.from_codes((0,) * qk.N + (1,))
    assert kernel.to_codes(qk.reduce(top)) == (APoly(spec, (0,) * qk.N + (1,))
                                                % APoly(spec, (1, 1)) ** 6).coeff_codes
    with pytest.raises(ValueError, match="Barrett range"):
        qk.reduce(kernel.shift(top, 1))


def test_packed_digit_bound_at_p_251(monkeypatch):
    spec = FieldSpec(251, (0, 1))
    kernel = get_kernel(spec)
    assert kernel.max_mul_len == 268  # 250^2 * 268 < 2^24 <= 250^2 * 269
    products = []
    real_mul = kernel.mul

    def mul(x, y):
        products.append(min(len(kernel.to_codes(x)), len(kernel.to_codes(y))))
        return real_mul(x, y)

    monkeypatch.setattr(kernel, "mul", mul)
    a, b = APoly(spec, [250] * 268), APoly(spec, [250] * 269)
    ra, rb = kernel.from_codes(a.coeff_codes), kernel.from_codes(b.coeff_codes)
    # within the bound: one product
    assert kernel.to_codes(kernel.mul(ra, ra)) == (a * a).coeff_codes
    assert products == [268]
    # the bound is on the shorter operand
    del products[:]
    assert kernel.to_codes(kernel.mul(ra, rb)) == (a * b).coeff_codes
    assert products == [268]
    # past it: the shorter operand is multiplied in pieces of 268 and 1
    del products[:]
    assert kernel.to_codes(kernel.mul(rb, rb)) == (b * b).coeff_codes
    assert products == [269, 268, 1]
    c = APoly(spec, [(7 * i + 3) % 251 for i in range(700)] + [1])
    rc = kernel.from_codes(c.coeff_codes)
    assert kernel.to_codes(kernel.mul(rc, rb)) == (c * b).coeff_codes
    assert kernel.to_codes(kernel.mul(rc, rc)) == (c * c).coeff_codes


@pytest.mark.parametrize("p", (257, 263, 1021))
def test_wide_kernel_matches_apoly(p, monkeypatch):
    """Past p = 251 a digit is 32 bits: the codec, products (whole and cut
    into pieces), powers with and without a limit, Frobenius spreads and
    normalized sums against APoly."""
    spec = FieldSpec(p, (0, 1))
    kernel = get_kernel(spec)
    assert kernel.max_mul_len == (2 ** 32 - 1) // (p - 1) ** 2
    rng = random.Random(p)
    polys = [APoly(spec, [rng.randrange(p) for _ in range(n)] + [p - 1]) for n in (0, 1, 4, 16, 39)]
    raws = [kernel.from_codes(a.coeff_codes) for a in polys]
    assert kernel.to_codes(kernel.from_codes(())) == ()
    for a, ra in zip(polys, raws):
        assert kernel.to_codes(ra) == a.coeff_codes
        spread = [0] * (p * a.degree + 1)
        spread[::p] = a.coeff_codes
        assert kernel.to_codes(kernel.frob_spread(ra)) == tuple(spread)
        for b, rb in zip(polys, raws):
            assert kernel.to_codes(kernel.mul(ra, rb)) == (a * b).coeff_codes
            assert kernel.to_codes(kernel.normalize(kernel.add(ra, rb))) == (a + b).coeff_codes
    # 40 scaled terms: digits pass 2^24 but stay below 2^32
    total, want = kernel.zero(), APoly.zero(spec)
    for i in range(40):
        c = rng.randrange(1, p)
        total = kernel.add(total, kernel.scale(raws[i % 5], c))
        want = want + polys[i % 5] * APoly.constant(spec, c)
    assert max(map(int.bit_length, total)) > 24
    assert kernel.to_codes(kernel.normalize(total)) == want.coeff_codes
    assert kernel.is_zero(kernel.add(raws[2], kernel.scale(raws[2], p - 1)))
    c = rng.randrange(1, p)
    rx = kernel.from_codes((c, 1))
    for n in (0, 1, 5, p, p + 2, 2 * p + 1):
        want = [math.comb(n, j) * pow(c, n - j, p) % p for j in range(n + 1)]  # (theta + c)^n
        assert kernel.to_codes(kernel.pow(rx, n)) == tuple(want), n
        for limit in (1, 3, 50):
            assert kernel.to_codes(kernel.pow(rx, n, limit=limit)) \
                == tuple(poly_trim(want[:limit])), (n, limit)
    # products whose shorter operand passes max_mul_len go in pieces
    monkeypatch.setattr(kernel, "max_mul_len", 3)
    monkeypatch.setattr(kernel, "_piece_bits", 3 * 32)
    for a, ra in zip(polys, raws):
        for b, rb in zip(polys, raws):
            assert kernel.to_codes(kernel.mul(ra, rb)) == (a * b).coeff_codes


def test_raw_sum_normalizes_just_before_a_digit_reaches_2_24():
    # p = 11: 2^24 is not 1 mod 11, so an overflowed digit reads wrong
    spec = FieldSpec(11, (0, 1))
    kernel = get_kernel(spec)
    term = kernel.from_codes((3, 10))  # digits <= 10 = p - 1
    limit = 1 << 24
    for start in (limit - 11, limit - 10):  # just under, just over
        acc = RawSum(kernel, 10)
        acc.value, acc.bound = (start << 24,), start  # digit 1 built directly
        acc.add(term)
        want = ((3, (start + 10) % 11))
        assert kernel.to_codes(acc.value) == want
        assert max(acc.value[0] >> 24, acc.value[0] & (limit - 1)) < limit
        if start + 10 < limit:
            assert acc.value[0] >> 24 == start + 10  # not normalized
        else:
            assert acc.bound == 10 + 10  # normalized to digits < p first
            # a plain add carries into the next digit and reads wrong
            assert kernel.to_codes(kernel.add((start << 24,), term)) != want


def test_add_loops_keep_their_running_sums_bounded(monkeypatch, tmp_path):
    """The power-sum recursion and its top window, exact_L shells and the
    enumerated power sums and prime-to-P sums all accumulate through
    RawSum; a tiny digit limit forces many normalizations and must not
    change any value."""
    spec = FieldSpec.default(5)
    P = APoly(spec, (1, 1))
    fresh = itertools.count()

    def window():
        monkeypatch.setattr(zeta, "_windows_by_spec", {})  # recompute every child
        return zeta.shell_sum(spec, 2, 124, 248, 300)

    def recursion():
        # a new memo and an empty disk cache: every child is recomputed
        monkeypatch.setattr(zeta, "_memo_by_spec", {})
        monkeypatch.setenv("FFZETA_CACHE", str(tmp_path / str(next(fresh))))
        return zeta.power_sum(spec, 2, 124)

    runs = (window, recursion,
            lambda: zeta.exact_L(spec, -24, 1),
            lambda: oracle.enumerated_prime_to_p_power_sum(spec, 2, 9, P),
            lambda: oracle.enumerated_vadic_exact_L(spec, -9, 1, P),
            lambda: oracle.enumerated_power_sum(spec, 2, 9))
    want = [run() for run in runs]
    seen = []
    real_add = RawSum.add

    def add(self, raw):
        real_add(self, raw)
        seen.append(self.bound)

    monkeypatch.setattr(RawSum, "digit_limit", 60)
    monkeypatch.setattr(RawSum, "add", add)
    for run, value in zip(runs, want):
        del seen[:]
        assert run() == value
        assert max(seen) < 60
        assert any(b < a for a, b in zip(seen, seen[1:]))  # normalized on the way


# -- byte-table reduction against a per-digit reference ---------------------------

def _packed(digits, stride=1):
    """The raw plane with digit i (24 bits) at theta^(i * stride)."""
    return sum(d << (24 * stride * i) for i, d in enumerate(digits))


def _raw_digits(rng, length, bits=24):
    """Digits in [0, 2^bits), with every fifth one the largest."""
    digits = [rng.randrange(1 << rng.choice((8, bits))) for _ in range(length)]
    digits[::5] = [(1 << bits) - 1] * len(digits[::5])
    return digits


def _trim(codes):
    codes = list(codes)
    while codes and not codes[-1]:
        codes.pop()
    return tuple(codes)


@pytest.mark.parametrize("p", (3, 5, 7, 11, 13, 83, 89, 251))
def test_byte_reduction_matches_per_digit_mod_p(p):
    # 1, 2 or 3 nonzero bytes per digit; with 3, p <= 83 adds its
    # residues in bytes and p >= 89 in 16-bit lanes (with 2, p <= 127)
    kernel = get_kernel(FieldSpec(p, (0, 1)))
    rng = random.Random(p)
    for bits in (8, 16, 24):
        for length in (0, 1, 2, 5, 31, 400):
            digits = _raw_digits(rng, length, bits)
            reduced = [d % p for d in digits]
            x = (_packed(digits),)
            assert kernel.normalize(x) == (_packed(reduced),)
            assert kernel.to_codes(x) == _trim(reduced)
            assert kernel.frob_spread(x) == (_packed(reduced, p),)
            assert kernel.is_zero(x) == (not any(reduced))
    # bytes (p - 1, 1, 2): at p = 251 the residues 250 + 5 + 50 pass a byte
    digit = (p - 1) + (1 << 8) + (2 << 16)
    assert kernel.to_codes((_packed([digit, digit]),)) == _trim([digit % p] * 2)
    # already reduced planes come back as they are
    done = (_packed([rng.randrange(p) for _ in range(50)]),)
    assert kernel.normalize(done)[0] is done[0]


@pytest.mark.parametrize("q", (9, 25, 27, 289, 729))
def test_packed_to_codes_of_unreduced_planes(q):
    spec = FIELDS.get(q) or FieldSpec.default(q)
    kernel = get_kernel(spec)
    rng = random.Random(q)
    for length in (0, 1, 3, 60):
        planes = [_raw_digits(rng, rng.randrange(length + 1)) for _ in range(spec.e)]
        want = [spec.from_coords([plane[i] % spec.p if i < len(plane) else 0
                                  for plane in planes]) for i in range(length)]
        x = tuple(_packed(plane) for plane in planes)
        assert kernel.to_codes(x) == _trim(want)
        codes = tuple(rng.randrange(q) for _ in range(length))
        assert kernel.to_codes(kernel.from_codes(codes)) == _trim(codes)


@pytest.mark.parametrize("q", (4, 8, 16, 512))
def test_bit_kernel_to_codes_matches_per_bit_reference(q):
    spec = FIELDS[q]
    kernel = get_kernel(spec)
    rng = random.Random(q)
    for length in (0, 1, 9, 200):
        planes = [rng.getrandbits(rng.randrange(length + 1)) for _ in range(spec.e)]
        want = [spec.from_coords([(v >> i) & 1 for v in planes]) for i in range(length)]
        assert kernel.to_codes(tuple(planes)) == _trim(want)


# -- the cheap zero test and the residue masks ---------------------------------------

def _plane(kernel, digits):
    return sum(d << (kernel.digit_bits * i) for i, d in enumerate(digits))


@pytest.mark.parametrize("name", ["3", "5", "9", "25", "27", "289", "251", "257", "1021",
                                  "F9[x]/(x^2+4x+1)"])
def test_is_zero_matches_normalize_on_unnormalized_raws(name):
    # digits up to the digit width, most of them multiples of p; the top
    # digit of a plane is a multiple of p in about half the raws, so both
    # the early answer and the normalizing fallback are reached
    spec = ODD_TOWER if name.startswith("F9") else FIELDS.get(int(name)) or FieldSpec(int(name), (0, 1))
    kernel = get_kernel(spec)
    p, top = spec.p, (1 << kernel.digit_bits) - 1
    rng = random.Random(spec.q)
    outcomes = set()
    for _ in range(300):
        x = []
        for _ in range(spec.e):
            length = rng.choice((0, 1, 2, 7, 40))
            digits = [rng.randrange(top // p + 1) * p for _ in range(length)]
            if digits and rng.random() < 0.3:
                digits[rng.randrange(length)] = rng.randrange(top + 1)
            if digits and rng.random() < 0.5:
                digits[-1] = rng.randrange(1, top // p + 1) * p
            x.append(_plane(kernel, digits))
        x = tuple(x)
        want = not any(kernel.normalize(x))
        assert kernel.is_zero(x) == want, x
        outcomes.add(want)
    assert outcomes == {True, False}


@pytest.mark.parametrize("name", ["2", "3", "4", "9", "25", "289", "257", "F4[x]/(x^2+x+xi)"])
def test_keep_residues_keeps_one_class_of_digits(name):
    spec = TOWERS.get(name) or FIELDS.get(int(name)) or FieldSpec(int(name), (0, 1))
    kernel = get_kernel(spec)
    rng = random.Random(spec.q + 1)
    for length in (0, 1, 5, 60, 3, 300, 2):  # the masks grow and are reused
        codes = tuple(rng.randrange(spec.q) for _ in range(length))
        raw = kernel.from_codes(codes)
        for _ in range(spec.p):  # p + 1 copies: the same value, digits not reduced
            raw = kernel.add(raw, kernel.from_codes(codes))
        for m in (1, 2, 3, 8, spec.q - 1):
            for r in (0, 1, m - 1, -1, 2 * m + 1):
                want = _trim(c if k % m == r % m else 0 for k, c in enumerate(codes))
                assert kernel.to_codes(kernel.keep_residues(raw, r, m)) == want, (length, r, m)
