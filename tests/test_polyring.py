import itertools
import random

import pytest

from ffzeta.fields import FieldSpec, FqElem, FieldError
from ffzeta.polyring import (APoly, MPoly, chain_sum, enumerate_monic, monic_coeff_vectors,
                             frobenius_twist, hyperderivative, is_irreducible)
from ffzeta.seriesinf import LaurentSeries
from ffzeta.zeta import exact_L

F2 = FieldSpec.default(2)
F3 = FieldSpec.default(3)
F4 = FieldSpec.default(4)


def rand_apoly(spec, rng, max_deg=8):
    return APoly(spec, [rng.randrange(spec.q) for _ in range(rng.randrange(1, max_deg + 2))])


# -- enumeration -----------------------------------------------------------


def test_enumerate_monic_fixtures():
    assert [a.coeff_codes for a in enumerate_monic(F2, 0)] == [(1,)]
    assert sorted(a.coeff_codes for a in enumerate_monic(F2, 1)) == [(0, 1), (1, 1)]
    assert sum(1 for _ in enumerate_monic(F3, 4)) == 81


def test_enumerate_monic_is_lexicographic_and_distinct():
    seen = list(enumerate_monic(F3, 3))
    vecs = [a.coeff_codes[:-1] for a in seen]
    assert vecs == sorted(vecs)
    assert len(set(seen)) == 27
    assert all(a.is_monic() and a.degree == 3 for a in seen)


# -- ring operations -------------------------------------------------------


def test_ring_axioms_random():
    rng = random.Random(23)
    for spec in (F2, F3, F4):
        for _ in range(200):
            a, b, c = (rand_apoly(spec, rng) for _ in range(3))
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a
            if b:
                q, r = divmod(a, b)
                assert q * b + r == a
                assert r.degree < b.degree


def test_pow_and_errors():
    a = APoly(F2, (1, 1))
    assert a ** 3 == a * a * a
    with pytest.raises(ValueError):
        a ** (-1)
    with pytest.raises(FieldError):
        APoly.one(F2) + APoly.one(F3)


# -- Frobenius twists ------------------------------------------------------


def test_frobenius_twist_fixtures():
    a = APoly(F4, (1, 2))  # 1 + xi theta
    assert frobenius_twist(a, 0) == a
    assert frobenius_twist(a, 1).coeff_codes == (1, 3)  # xi -> xi^2 = xi + 1
    b = APoly(F4, (1, 1, 0, 1))
    assert frobenius_twist(b, 5) == frobenius_twist(b, 5 % 2 + 2)  # order e
    prime_coeffs = APoly(F4, (1, 0, 1))
    assert frobenius_twist(prime_coeffs, 1) == prime_coeffs


def test_frobenius_twist_preserves_structure():
    rng = random.Random(4)
    for _ in range(100):
        a = rand_apoly(F4, rng)
        assert frobenius_twist(a, 1).degree == a.degree
        if a.is_monic():
            assert frobenius_twist(a, 1).is_monic()


# -- hyperderivatives ------------------------------------------------------


def test_hyperderivative_fixtures():
    a = APoly(F3, (2, 1, 0, 2))
    assert hyperderivative(a, 0) == a
    assert hyperderivative(a, 5).is_zero()
    # (theta^k)^(m) = C(k, m) theta^(k-m)
    assert hyperderivative(APoly(F3, (0, 0, 0, 0, 0, 1)), 2).coeff_codes == (0, 0, 0, 1)
    assert hyperderivative(APoly(F2, (0, 0, 1)), 1).is_zero()  # C(2,1) = 0 mod 2


def test_hyperderivative_taylor_identity():
    # sum_m a^(m) X^m equals a(theta + X) expanded exactly
    rng = random.Random(31)
    x_one = APoly.one(F3)
    for _ in range(40):
        a = rand_apoly(F3, rng, max_deg=12)
        point = MPoly(("x",), {(0,): APoly.theta(F3), (1,): x_one})
        shifted = a.eval(point)
        taylor = MPoly.zero(("x",))
        for m in range(a.degree + 1):
            h = hyperderivative(a, m)
            if h:
                taylor = taylor + MPoly(("x",), {(m,): h})
        assert shifted == taylor


def test_hyperderivative_is_linear_and_commutes_with_twist():
    rng = random.Random(32)
    for _ in range(500):
        a = rand_apoly(F4, rng)
        b = rand_apoly(F4, rng)
        m = rng.randrange(0, 6)
        j = rng.randrange(0, 4)
        assert hyperderivative(a + b, m) == hyperderivative(a, m) + hyperderivative(b, m)
        assert frobenius_twist(hyperderivative(a, m), j) == \
            hyperderivative(frobenius_twist(a, j), m)


# -- evaluation ------------------------------------------------------------


def test_eval_fixtures():
    t1 = MPoly.variable(("t1",), "t1", FqElem(F2, 1))
    assert APoly.theta(F2).eval(t1) == t1
    a = APoly(F2, (1, 1, 1))
    lau = a.eval(LaurentSeries.theta(F2, 20))
    assert lau == LaurentSeries.from_apoly(a, lau.prec)
    # q=2: theta^2+theta+1 at the point 1/theta is pi^2 + pi + 1
    at_pi = a.eval(LaurentSeries.pi(F2, 12))
    assert at_pi.val == 0 and at_pi.coeff_codes == (1, 1, 1)


def test_eval_field_point_and_embedding_errors():
    a = APoly(F3, (1, 2, 1))
    v = a.eval(FqElem(F3, 2))
    assert v.code == (1 + 2 * 2 + 4) % 3
    with pytest.raises(FieldError):
        a.eval(FqElem(F2, 1))


def test_eval_is_ring_homomorphism():
    rng = random.Random(77)
    point = LaurentSeries(F3, -1, (1, 2, 1), 15)
    for _ in range(50):
        a, b = rand_apoly(F3, rng, 5), rand_apoly(F3, rng, 5)
        assert (a * b).eval(point).agrees_with(a.eval(point) * b.eval(point))
        assert (a + b).eval(point).agrees_with(a.eval(point) + b.eval(point))


# -- irreducibility --------------------------------------------------------


def test_is_irreducible():
    assert is_irreducible(APoly.theta(F2))
    assert not is_irreducible(APoly(F2, (0, 0, 1)))
    assert is_irreducible(APoly(F2, (1, 1, 1)))
    assert not is_irreducible(APoly(F2, (1, 0, 1)))  # (theta+1)^2
    assert is_irreducible(APoly(F3, (1, 0, 1)))
    with pytest.raises(ValueError):
        is_irreducible(APoly.one(F2))
    with pytest.raises(ValueError):
        is_irreducible(APoly.zero(F2))


def test_is_irreducible_matches_bruteforce():
    # compare against trial division by all monic polynomials of low degree
    for spec in (F2, F3):
        for d in (2, 3, 4):
            for a in enumerate_monic(spec, d):
                has_factor = False
                for e in range(1, d // 2 + 1):
                    for b in enumerate_monic(spec, e):
                        if (a % b).is_zero():
                            has_factor = True
                            break
                    if has_factor:
                        break
                assert is_irreducible(a) == (not has_factor)


# -- MPoly ------------------------------------------------------------------


def test_mpoly_basics():
    one = FqElem(F3, 1)
    t = MPoly.variable(("t", "z"), "t", one)
    z = MPoly.variable(("t", "z"), "z", one)
    p = (t + z) * (t + z)
    assert p.terms[(2, 0)].code == 1
    assert p.terms[(1, 1)].code == 2
    assert p.degree_in("t") == 2
    assert p.coefficient_of("z", 1).terms == {(1,): FqElem(F3, 2)}
    q = p.substitute("z", one)
    assert q.terms[(0,)].code == 1
    assert (p - p).is_zero()


def test_substituting_one_multiplies_no_coefficient(monkeypatch):
    L = exact_L(F3, -8, 2)
    calls = []
    mul = APoly.__mul__
    monkeypatch.setattr(APoly, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
    at_one = L.substitute("z", APoly.one(F3))
    assert calls == []
    expected = MPoly.zero(at_one.vars)
    for k in range(L.degree_in("z") + 1):
        expected = expected + L.coefficient_of("z", k)
    assert at_one == expected


def test_substituting_a_series_keeps_its_precision_cap():
    p = MPoly(("z",), {(0,): LaurentSeries.one(F2, 10), (1,): LaurentSeries.theta(F2, 10)})
    at_one = p.substitute("z", LaurentSeries.one(F2, 5))
    # 1 + theta: the product theta * (1 + O(pi^5)) is known only to pi^4
    assert at_one.terms[()] == LaurentSeries(F2, -1, (1, 1), 4)


def _brute_chain_sum(table, caps, strict):
    total = 0
    for degs in itertools.product(*(range(c + 1) for c in caps)):
        if all(a > b or (not strict and a == b) for a, b in zip(degs, degs[1:])):
            term = 1
            for i, d in enumerate(degs):
                term *= table(i, d)
            total += term
    return total


@pytest.mark.parametrize("caps", [(0,), (4,), (3, 3), (2, 5), (5, 1), (4, 4, 4),
                                  (5, 2, 3), (3, 6, 0), (6, 3, 1)])
def test_chain_sum_matches_brute_force(caps):
    rng = random.Random(sum(caps) * 31 + len(caps))
    values = {(i, d): rng.randrange(-9, 10) for i in range(len(caps)) for d in range(8)}
    for strict in (True, False):
        assert chain_sum(lambda i, d: values[i, d], list(caps), strict, 0) == \
            _brute_chain_sum(lambda i, d: values[i, d], caps, strict), strict


@pytest.mark.parametrize("caps", [(4, 4, 4), (6, 3, 1), (3, 6, 0), (5, 5)])
def test_chain_sum_calls_each_table_entry_once(caps):
    calls = []

    def table(i, d):
        calls.append((i, d))
        return i + d + 1

    for strict in (True, False):
        del calls[:]
        assert chain_sum(table, list(caps), strict, 0) == _brute_chain_sum(
            lambda i, d: i + d + 1, caps, strict)
        assert len(calls) == len(set(calls)), (strict, sorted(calls))


def test_mpoly_zero_pruning_and_arity():
    with pytest.raises(ValueError):
        MPoly(("t",), {(0, 1): FqElem(F2, 1)})
    p = MPoly(("t",), {(3,): FqElem(F2, 0)})
    assert p.is_zero()


def test_mpoly_json_roundtrip():
    coeff = APoly(F3, (1, 2))
    p = MPoly(("t1", "z"), {(1, 2): coeff, (0, 0): APoly.one(F3)})
    doc = p.to_json()
    back = MPoly.from_json(doc, lambda d: APoly.from_json(F3, d))
    assert back == p


def test_apoly_json_roundtrip():
    for spec in (F2, F4):
        rng = random.Random(spec.q)
        for _ in range(20):
            a = rand_apoly(spec, rng)
            assert APoly.from_json(spec, a.to_json()) == a
