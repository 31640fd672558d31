import random

import pytest

from ffzeta.fields import FieldSpec, ZpExp
from ffzeta.polyring import APoly
from ffzeta.padic import (PadicCtx, PadicElem, teichmuller, padic_bracket,
                          padic_one_unit_pow, split_P_power)
from ffzeta.seriesinf import PrecisionError

F2 = FieldSpec.default(2)
F3 = FieldSpec.default(3)

GRID = [
    (F2, (0, 1), 3),
    (F2, (1, 1, 1), 2),
    (F3, (0, 1), 2),
    (F3, (1, 0, 1), 3),
]


def rand_poly(spec, rng, deg):
    return APoly(spec, [rng.randrange(spec.q) for _ in range(deg + 1)])


def test_ctx_validation():
    with pytest.raises(ValueError):
        PadicCtx(APoly(F2, (0, 0, 1)), 2)  # reducible
    with pytest.raises(ValueError):
        PadicCtx(APoly.theta(F2), 0)


def test_arith_fixtures():
    ctx = PadicCtx(APoly.theta(F2), 3)
    assert ctx.reduce(APoly.theta(F2)).vP() == 1
    x = ctx.reduce(APoly(F2, (1, 1)))
    assert (x * x.inverse()) == ctx.one()
    assert x.inverse().rep.coeff_codes == (1, 1, 1)  # geometric series mod theta^3
    with pytest.raises(ZeroDivisionError):
        ctx.reduce(APoly.theta(F2)).inverse()


def test_vP_capped_at_k():
    ctx = PadicCtx(APoly.theta(F2), 2)
    assert ctx.zero().vP() == 2
    assert ctx.reduce(APoly.theta(F2) ** 5).vP() == 2
    assert ctx.zero().valuation() is None


def test_teichmuller_fixtures():
    ctx = PadicCtx(APoly.theta(F3), 2)
    assert teichmuller(APoly.one(F3), ctx) == ctx.one()
    # dP = 1, P = theta: omega is a(0) as a constant
    a = APoly(F3, (2, 1, 1))
    assert teichmuller(a, ctx).rep.coeff_codes == (2,)
    with pytest.raises(ZeroDivisionError):
        teichmuller(APoly.theta(F3), ctx)


def test_teichmuller_properties_on_grid():
    rng = random.Random(1)
    for spec, Pc, k in GRID:
        P = APoly(spec, Pc)
        ctx = PadicCtx(P, k)
        e = spec.q ** P.degree
        done = 0
        while done < 500:
            a = rand_poly(spec, rng, rng.randrange(0, 6))
            if a.is_zero() or (a % P).is_zero():
                continue
            w = teichmuller(a, ctx)
            assert w ** e == w                      # q^dP-power fixed point
            assert (w - ctx.reduce(a)).rep % P == APoly.zero(spec) or \
                   ((w - ctx.reduce(a)).vP() >= 1)  # congruent mod P
            assert teichmuller(w, ctx) == w          # idempotent on lifts
            br = padic_bracket(a, ctx)
            assert (br - ctx.one()).vP() >= 1        # a one-unit
            assert w * br == ctx.reduce(a)           # decomposition holds
            done += 1


def test_teichmuller_multiplicative():
    rng = random.Random(2)
    for spec, Pc, k in GRID:
        P = APoly(spec, Pc)
        ctx = PadicCtx(P, k)
        done = 0
        while done < 100:
            a = rand_poly(spec, rng, 4)
            b = rand_poly(spec, rng, 4)
            if a.is_zero() or b.is_zero() or (a % P).is_zero() or (b % P).is_zero():
                continue
            assert teichmuller(a * b, ctx) == teichmuller(a, ctx) * teichmuller(b, ctx)
            assert padic_bracket(a * b, ctx) == padic_bracket(a, ctx) * padic_bracket(b, ctx)
            done += 1


def test_bracket_fixture():
    ctx = PadicCtx(APoly.theta(F3), 2)
    a = APoly(F3, (1, 1))
    assert teichmuller(a, ctx) == ctx.one()
    assert padic_bracket(a, ctx).rep.coeff_codes == (1, 1)


def test_one_unit_pow_fixtures():
    ctx = PadicCtx(APoly.theta(F2), 3)
    u = ctx.reduce(APoly(F2, (1, 1)))
    assert padic_one_unit_pow(u, ZpExp(2, (1, 0))) == u
    assert padic_one_unit_pow(u, ZpExp(2, (0, 0))) == ctx.one()
    assert padic_one_unit_pow(u, ZpExp.from_int(5, 2, 3)) == u ** 5
    with pytest.raises(ValueError):
        padic_one_unit_pow(ctx.reduce(APoly.theta(F2)), ZpExp(2, (1, 0)))
    with pytest.raises(PrecisionError):
        padic_one_unit_pow(u, ZpExp(2, (1,)))  # p^1 < k = 3


def test_one_unit_pow_integer_grid():
    rng = random.Random(3)
    for spec, Pc, k in GRID:
        P = APoly(spec, Pc)
        ctx = PadicCtx(P, k)
        p = spec.p
        M = 1
        while p ** M < k:
            M += 1
        M += 2
        done = 0
        while done < 60:
            a = rand_poly(spec, rng, 4)
            if a.is_zero() or (a % P).is_zero():
                continue
            u = padic_bracket(a, ctx)
            n = rng.randrange(0, p ** M)
            assert padic_one_unit_pow(u, ZpExp.from_int(n, p, M)) == u ** n
            done += 1


def test_one_unit_pow_homomorphism_laws():
    rng = random.Random(4)
    for spec, Pc, k in GRID:
        P = APoly(spec, Pc)
        ctx = PadicCtx(P, k)
        p = spec.p
        M = 1
        while p ** M < k:
            M += 1
        M += 2
        done = 0
        while done < 60:
            a, b = rand_poly(spec, rng, 4), rand_poly(spec, rng, 4)
            if any(x.is_zero() or (x % P).is_zero() for x in (a, b)):
                continue
            u, v = padic_bracket(a, ctx), padic_bracket(b, ctx)
            y1 = ZpExp(p, [rng.randrange(p) for _ in range(M)])
            y2 = ZpExp(p, [rng.randrange(p) for _ in range(M)])
            total = ZpExp.from_int(y1.as_int() + y2.as_int(), p, M)
            assert padic_one_unit_pow(u, total) == \
                padic_one_unit_pow(u, y1) * padic_one_unit_pow(u, y2)
            assert padic_one_unit_pow(u * v, y1) == \
                padic_one_unit_pow(u, y1) * padic_one_unit_pow(v, y1)
            done += 1


def test_mixed_context_error_and_json():
    ctx2 = PadicCtx(APoly.theta(F2), 2)
    ctx3 = PadicCtx(APoly.theta(F2), 3)
    with pytest.raises(ValueError):
        ctx2.one() + ctx3.one()
    doc = ctx3.to_json()
    assert PadicCtx.from_json(F2, doc) == ctx3
    x = ctx3.reduce(APoly(F2, (1, 0, 1)))
    assert PadicElem.from_json(ctx3, x.to_json()) == x


def test_split_P_power():
    P = APoly(F3, (1, 0, 1))
    u = APoly(F3, (2, 1))
    a = P ** 3 * u
    assert split_P_power(a, P) == (3, u)
    assert split_P_power(a, P, 2) == (2, P * u)
    assert split_P_power(u, P) == (0, u)
    assert split_P_power(a, P, 0) == (0, a)


def _split_by_trial_division(a, P, cap):
    v = 0
    while cap is None or v < cap:
        quo, rem = divmod(a, P)
        if rem:
            break
        a, v = quo, v + 1
    return v, a


@pytest.mark.parametrize("q, Pc", [(2, (1, 1, 1)), (3, (1, 0, 1)), (3, (2, 1)), (4, (2, 1, 1)),
                                   (5, (2, 0, 1)), (9, (0, 1))], ids=str)
def test_split_P_power_matches_trial_division(q, Pc, monkeypatch):
    # the climb through P^(p^j) and the digits back down give the values
    # of one division by P per step, under every cap; a unit costs one
    # division, and v about p log_p(v)
    spec = FieldSpec.default(q)
    P = APoly(spec, Pc)
    rng = random.Random(q * 100 + len(Pc))
    divisions = []
    divide = APoly.__divmod__
    monkeypatch.setattr(APoly, "__divmod__", lambda a, b: divisions.append(b) or divide(a, b))
    for v in list(range(12)) + [25, 26, 27, 40, 63, 64, 80]:
        u = rand_poly(spec, rng, rng.randrange(4))
        while not u or not (u % P):
            u = u + APoly.one(spec)
        a = P ** v * u
        for cap in (None, 0, 1, v - 1, v, v + 1, rng.randrange(-1, v + 3)):
            want = _split_by_trial_division(a, P, cap)
            divisions.clear()
            assert split_P_power(a, P, cap) == want, (v, cap)
            if v == 0 or cap == 0:
                assert len(divisions) <= 1
            digits = max(1, v).bit_length()
            assert len(divisions) <= 2 + 2 * spec.p * digits, (v, cap)


@pytest.mark.parametrize("q, P, k", [
    (2, (0, 1), 4), (2, (1, 1, 1), 3), (3, (1, 1), 3), (3, (1, 0, 1), 2), (4, (0, 1), 2),
    (5, (2, 1), 2)])
def test_is_one_unit_agrees_with_the_valuation_of_x_minus_one(q, P, k):
    """One remainder by P decides vP(x - 1) >= 1 on every element of A/(P^k)."""
    import itertools
    spec = FieldSpec.default(q)
    ctx = PadicCtx(APoly(spec, P), k)
    seen = 0
    for codes in itertools.product(range(q), repeat=ctx.modulus.degree):
        x = PadicElem(ctx, APoly(spec, codes))
        assert x.is_one_unit() == ((x - ctx.one()).vP() >= 1), codes
        seen += x.is_one_unit()
    assert seen == q ** ((k - 1) * ctx.dP)
