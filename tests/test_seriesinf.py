import hashlib
import json
import random

import pytest

from ffzeta.fields import FieldSpec, ZpExp
from ffzeta.polyring import APoly
from ffzeta.seriesinf import (LaurentSeries, PrecisionError, UnsupportedFeatureError,
                              decompose, one_unit_pow)

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


def test_fractional_powers_unsupported():
    with pytest.raises(UnsupportedFeatureError):
        LaurentSeries.pi(F2, 4).fractional_power(2)


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


def test_p_power_is_exact_frobenius_spread():
    rng = random.Random(21)
    for spec in (F2, F3):
        for _ in range(50):
            x = rand_series(spec, rng, 12)
            assert x.p_power().agrees_with(x ** spec.p, prec=(x ** spec.p).prec)


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
