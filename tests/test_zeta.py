import hashlib
import inspect
import itertools
import json
import math
import random

import pytest

from ffzeta.fields import FieldSpec, FqElem, ZpExp, ResidueChar, least_p_power
from ffzeta.polyring import APoly, MPoly, enumerate_monic, is_irreducible
from ffzeta.seriesinf import LaurentSeries, PrecisionError, one_unit_pow
from ffzeta._kernels import get_kernel
from ffzeta.oracle import (enumerated_bracket_shell, enumerated_char_power_sum,
                           enumerated_power_sum, enumerated_twisted_L_eval,
                           enumerated_twisted_power_sum)
from ffzeta import polyring, seriesinf, zeta
from ffzeta.zeta import (PowerSumCache, SInftyPoint, TwistFactor, power_sum,
                         power_sum_vanishes, twisted_power_sum, char_power_sum,
                         exact_L, exact_L_degree_bound, pellarin_L_series,
                         goss_zeta_eval, twisted_L_eval, zpoly_eval_laurent,
                         infty_coeff_valuation_bound, twisted_stop_shell, twist_degree_weight)

F2 = FieldSpec.default(2)
F3 = FieldSpec.default(3)
F4 = FieldSpec.default(4)


# -- power sums --------------------------------------------------------------


def test_power_sum_fixtures():
    assert power_sum(F2, 0, 7) == APoly.one(F2)
    assert power_sum(F3, 2, 0).is_zero()          # q^d terms in char p
    assert power_sum(F2, 1, 1) == APoly.one(F2)   # theta + (theta + 1)


def test_power_sum_matches_enumeration_small_grid():
    for spec in (F2, F3, F4):
        for d in range(4):
            for n in range(30):
                assert power_sum(spec, d, n) == enumerated_power_sum(spec, d, n)


def test_power_sum_matches_enumeration_spot_checks_deep():
    rng = random.Random(101)
    for spec in (F2, F3, F4):
        for _ in range(6):
            d = rng.randrange(4, 7)
            n = rng.randrange(0, 3 * (spec.q - 1) * spec.q ** 3 + 1)
            assert power_sum(spec, d, n) == enumerated_power_sum(spec, d, n)


def test_power_sum_vanishing_predicate():
    for spec in (F2, F3):
        for d in range(6):
            for n in range(40):
                if power_sum_vanishes(spec, d, n):
                    assert power_sum(spec, d, n).is_zero()


def test_power_sum_cache_roundtrip_and_corruption(tmp_path, monkeypatch):
    monkeypatch.setenv("FFZETA_CACHE", str(tmp_path))
    value = power_sum(F3, 2, 4)
    lines = (tmp_path / "powersums.jsonl").read_text().splitlines()
    assert lines
    # corrupt entries are skipped, valid ones still load
    with open(tmp_path / "powersums.jsonl", "a") as fh:
        fh.write("{this is not json\n")
        fh.write(json.dumps({"key": 42, "coeffs": "bad"}) + "\n")
    fresh = PowerSumCache(tmp_path)
    key = PowerSumCache.key(F3, 2, 4)
    assert fresh.get(key) == tuple(value.coeff_codes)
    monkeypatch.setattr(zeta, "_memo_by_spec", {})  # reach the disk cache
    assert power_sum(F3, 2, 4) == value


def _cut_after_key(line):
    """The line up to its key's closing quote: the key is indexed, the JSON is broken."""
    return line[:line.index('"', len('{"key": "')) + 1]


def test_power_sum_cache_corrupt_line_leaves_other_keys_readable(tmp_path, monkeypatch):
    monkeypatch.setenv("FFZETA_CACHE", str(tmp_path))
    for d, n in ((1, 2), (2, 4)):
        power_sum(F3, d, n)
    keys = [PowerSumCache.key(F3, d, n) for d, n in ((1, 2), (2, 4))]
    path = PowerSumCache(tmp_path).path
    lines = path.read_text().splitlines()
    assert {json.loads(line)["key"] for line in lines} >= set(keys)
    # break the line of S_1(2) after its key; S_2(4) stays intact
    path.write_text("".join((_cut_after_key(line) if json.loads(line)["key"] == keys[0]
                             else line) + "\n" for line in lines))
    fresh = PowerSumCache(tmp_path)
    assert fresh._line(keys[0]).endswith(keys[0] + '"')  # indexed, yet unreadable
    assert fresh.get(keys[0]) is None
    assert fresh.get(keys[1]) == tuple(power_sum(F3, 2, 4).coeff_codes)


def test_power_sum_at_degree_0_writes_no_line(tmp_path, monkeypatch):
    monkeypatch.setenv("FFZETA_CACHE", str(tmp_path))
    for n in (0, 1, 5):
        assert power_sum(F3, 0, n) == APoly.one(F3)
    assert not PowerSumCache(tmp_path).path.exists()
    power_sum(F3, 1, 2)
    assert PowerSumCache(tmp_path).path.read_text().count("\n") == 1


def test_power_sum_cache_put_of_a_stored_key_appends_nothing(tmp_path, monkeypatch):
    monkeypatch.setenv("FFZETA_CACHE", str(tmp_path))
    value = power_sum(F3, 2, 4)
    key = PowerSumCache.key(F3, 2, 4)
    path = PowerSumCache(tmp_path).path
    before = path.read_text()
    fresh = PowerSumCache(tmp_path)
    assert fresh.get(key) == tuple(value.coeff_codes)
    fresh.put(key, value.coeff_codes)
    # and without a read first: put compares with the stored line itself
    PowerSumCache(tmp_path).put(key, value.coeff_codes)
    assert path.read_text() == before


@pytest.mark.parametrize("d, n, bogus", [
    (1, 2, (2, 0, 0, 1)),  # in range but 4 > d*n + 1 = 3 coefficients
    (2, 3, (1,)),          # nonzero although 2(q-1) > lq(3): S_2(3) vanishes
])
def test_power_sum_cache_hit_failing_a_cheap_check_is_recomputed(tmp_path, monkeypatch, d, n,
                                                                    bogus):
    monkeypatch.setenv("FFZETA_CACHE", str(tmp_path))
    want = enumerated_power_sum(F3, d, n)
    key = PowerSumCache.key(F3, d, n)
    (tmp_path / "powersums.jsonl").write_text(json.dumps({"key": key, "coeffs": list(bogus)})
                                              + "\n")
    cache = PowerSumCache(tmp_path)
    assert cache.get(key) == bogus
    monkeypatch.setattr(zeta, "_memo_by_spec", {})  # reach the disk cache
    assert power_sum(F3, d, n) == want
    # the rejected line is superseded: a new process reads the right value
    assert PowerSumCache(tmp_path).get(key) == want.coeff_codes


def test_power_sum_stores_only_the_sum_it_was_asked_for(tmp_path, monkeypatch):
    monkeypatch.setenv("FFZETA_CACHE", str(tmp_path))
    monkeypatch.setattr(zeta, "_memo_by_spec", {})  # the recursion runs through S_1(k)
    power_sum(F3, 2, 8)
    lines = PowerSumCache(tmp_path).path.read_text().splitlines()
    assert [json.loads(line)["key"] for line in lines] == [PowerSumCache.key(F3, 2, 8)]


def test_power_sum_builds_each_cache_line_once_per_process(tmp_path, monkeypatch):
    """Repeated calls compare coefficients, not JSON text; a child of the
    recursion asked for later is still written, and a new process reads
    each line back once."""
    monkeypatch.setenv("FFZETA_CACHE", str(tmp_path))
    monkeypatch.setattr(zeta, "_memo_by_spec", {})
    dumps = []
    real_dumps = json.dumps
    monkeypatch.setattr(zeta.json, "dumps",
                        lambda *a, **kw: dumps.append(a) or real_dumps(*a, **kw))
    for _ in range(3):
        assert power_sum(F3, 2, 8) == enumerated_power_sum(F3, 2, 8)
    assert len(dumps) == 1
    assert (1, 6) in zeta._memo_by_spec[F3._key()]  # a child of S_2(8)
    for _ in range(3):
        power_sum(F3, 1, 6)
    assert len(dumps) == 2
    path = PowerSumCache(tmp_path).path
    before = path.read_text()
    assert [json.loads(line)["key"] for line in before.splitlines()] == [
        PowerSumCache.key(F3, 2, 8), PowerSumCache.key(F3, 1, 6)]
    monkeypatch.setattr(zeta, "_caches", {})  # a new process reads each line back once
    monkeypatch.setattr(zeta, "_memo_by_spec", {})
    for _ in range(3):
        power_sum(F3, 2, 8)
        power_sum(F3, 1, 6)
    assert len(dumps) == 4
    assert path.read_text() == before


def test_power_sum_cache_ignores_hashed_keys_of_older_files(tmp_path, monkeypatch):
    """A line keyed by the 64-hex-digit digest of older versions never
    matches, even with the right value: it is recomputed and appended once."""
    monkeypatch.setenv("FFZETA_CACHE", str(tmp_path))
    monkeypatch.setattr(zeta, "_memo_by_spec", {})
    want = enumerated_power_sum(F3, 2, 8)
    assert want.coeff_codes
    payload = json.dumps([repr(F3._key()), 2, 8], sort_keys=True)
    old_line = json.dumps({"key": hashlib.sha256(payload.encode()).hexdigest(),
                           "coeffs": list(want.coeff_codes)})
    path = tmp_path / "powersums.jsonl"
    path.write_text(old_line + "\n")
    key = PowerSumCache.key(F3, 2, 8)
    assert PowerSumCache(tmp_path).get(key) is None
    assert power_sum(F3, 2, 8) == want
    assert power_sum(F3, 2, 8) == want
    assert path.read_text().splitlines() == [
        old_line, json.dumps({"key": key, "coeffs": list(want.coeff_codes)})]


def test_power_sum_cache_keys_are_plain_and_distinct():
    F16 = FieldSpec.default(16)
    tower = FieldSpec.extension(F4, (2, 1, 1))
    assert F16.q == tower.q == 16
    assert PowerSumCache.key(F16, 1, 15) != PowerSumCache.key(tower, 1, 15)
    specs = (F2, F3, F4, F16, tower, FieldSpec.default(27), FieldSpec(17, (14, 0, 1)))
    keys = {PowerSumCache.key(spec, d, n) for spec in specs for d in (0, 1, 5)
            for n in (0, 3, 10 ** 6)}
    assert len(keys) == len(specs) * 9
    for key in keys:
        assert '"' not in key and "\\" not in key, key
        assert json.dumps(key) == f'"{key}"'  # stored verbatim between its quotes


def test_power_sum_rejects_negative():
    with pytest.raises(ValueError):
        power_sum(F2, -1, 0)
    with pytest.raises(ValueError):
        power_sum(F2, 0, -3)


# -- twisted power sums -------------------------------------------------------


def test_twisted_power_sum_fixtures():
    assert twisted_power_sum(F2, 3, []).is_zero()  # counts q^d in char p
    s1 = twisted_power_sum(F2, 1, [TwistFactor("finite")])
    assert s1 == MPoly(("t1",), {(0,): FqElem(F2, 1)})  # t + (t+1) = 1
    assert twisted_power_sum(F3, 2, [TwistFactor("finite")]).is_zero()  # d > s/(q-1)


def test_twisted_power_sum_matches_enumeration():
    factors = [TwistFactor("finite", frob=1), TwistFactor("finite", hyper=1)]
    d = 2
    total = MPoly.zero(("t1", "t2"))
    from ffzeta.polyring import frobenius_twist, hyperderivative
    for a in enumerate_monic(F3, d):
        f1 = frobenius_twist(a, 1)
        f2 = hyperderivative(a, 1)
        part = MPoly(("t1", "t2"),
                     {(j, 0): FqElem(F3, c) for j, c in enumerate(f1.coeff_codes) if c})
        part2 = MPoly(("t1", "t2"),
                      {(0, j): FqElem(F3, c) for j, c in enumerate(f2.coeff_codes) if c})
        total = total + part * part2
    assert twisted_power_sum(F3, d, factors) == total


def test_twisted_power_sum_with_character():
    chi = ResidueChar(F2, (1, 1, 1), 1)
    value = twisted_power_sum(F2, 2, [TwistFactor("finite")], char=chi)
    # enumeration oracle with the P | a terms excluded
    expected = MPoly.zero(("t1",))
    P = APoly(F2, (1, 1, 1))
    for a in enumerate_monic(F2, 2):
        if (a % P).is_zero():
            continue
        code = chi.eval_codes(a.coeff_codes)
        part = MPoly(("t1",), {(j,): FqElem(chi.residue_field,
                                            chi.residue_field.mul_code(code, c))
                               for j, c in enumerate(a.coeff_codes) if c})
        expected = expected + part
    assert value == expected


def _twist_degree_count(spec, orders):
    """min over c of sum_i p^((f_i - c) mod e): the degree of the summand
    in the coefficients of a, once a common Frobenius is divided out."""
    return min(sum(spec.p ** ((f - c) % spec.e) for f in orders) for c in range(spec.e))


@pytest.mark.parametrize("q", (4, 8, 9))
def test_twisted_power_sum_vanishes_past_the_degree_count(q):
    spec = FieldSpec.default(q)
    for s in range(1, 4):
        for orders in itertools.combinations_with_replacement(range(spec.e), s):
            count = _twist_degree_count(spec, orders)
            d = count // (q - 1) + 1  # the first d with d(q - 1) > count
            factors = [TwistFactor("finite", frob=f) for f in orders]
            assert twist_degree_weight(spec, factors) == count
            assert twisted_power_sum(spec, d, factors).is_zero(), (q, orders, d)
    # mixed orders vanish later than s/(q-1): q = 4, orders (0, 1) count 3
    mixed = [TwistFactor("finite", frob=0), TwistFactor("finite", frob=1)]
    assert _twist_degree_count(F4, (0, 1)) == 3
    assert not twisted_power_sum(F4, 1, mixed).is_zero()


@pytest.mark.parametrize("q, orders", [(4, (0, 1)), (8, (0, 1, 2))])
def test_finite_twisted_L_eval_stops_at_the_degree_weight(q, orders):
    # mixed orders: shell 1 is nonzero although s < q - 1
    spec, prec = FieldSpec.default(q), 20
    finite = [TwistFactor("finite", frob=f) for f in orders]
    x = LaurentSeries.from_apoly(APoly(spec, (1, 1)), prec + 8)
    stop = twisted_stop_shell(finite, [], x, prec)
    assert stop == 2 and not twisted_power_sum(spec, 1, finite).is_zero()
    for d in (stop, stop + 1):
        assert twisted_power_sum(spec, d, finite).is_zero()
    expected = {}
    for d in range(stop):
        weight = x.inverse() ** d
        for exp, c in twisted_power_sum(spec, d, finite).terms.items():
            term = weight.scale_code(c.code)
            expected[exp] = expected[exp] + term if exp in expected else term
    value = twisted_L_eval(finite, [], x, prec)
    zero = LaurentSeries.zero(spec, prec)
    for exp in set(expected) | set(value.terms):
        assert value.terms.get(exp, zero).agrees_with(expected.get(exp, zero), prec=prec), exp


@pytest.mark.parametrize("q, prec", [(2, 6), (3, 6), (4, 10), (5, 10)])
def test_mergeable_infinite_factors_stop_like_one(q, prec):
    # same point, orders l and l + e: one base, so one certificate exponent
    spec = FieldSpec.default(q)
    point = LaurentSeries.theta(spec, prec + 8)
    x = LaurentSeries.from_apoly(APoly(spec, (1, 1)), prec + 8)
    two = [TwistFactor("infinite", point=point, zexp=ZpExp.from_int(3, spec.p, 8)),
           TwistFactor("infinite", frob=spec.e, point=point, zexp=ZpExp.from_int(5, spec.p, 8))]
    one = [TwistFactor("infinite", point=point, zexp=ZpExp.from_int(8, spec.p, 8))]
    assert twisted_stop_shell([], two, x, prec) == twisted_stop_shell([], one, x, prec)
    assert twisted_stop_shell([], two, x, prec) < zeta._stop_shell(spec.q, prec, 0, 2, x.valuation())


def test_twisted_power_sum_rejects_concrete_points():
    bad = TwistFactor("finite", point=LaurentSeries.theta(F2, 5))
    with pytest.raises(ValueError):
        twisted_power_sum(F2, 1, [bad])


# -- character power sums ------------------------------------------------------


def test_char_power_sum_fixtures():
    chi1 = ResidueChar(F3, (0, 1), 1)
    chi2 = ResidueChar(F3, (0, 1), 2)
    assert char_power_sum(F3, 1, chi1, 0).code == 0          # 1 + 2
    assert char_power_sum(F3, 1, chi2, 0).code == 2          # 1 + 1, below the bound
    assert char_power_sum(F3, 2, chi2, 0).code == 0          # at the bound d = dP + 1
    value = char_power_sum(F3, 1, chi2, 2)
    expected = APoly.zero(F3)
    P = APoly.theta(F3)
    for a in enumerate_monic(F3, 1):
        if (a % P).is_zero():
            continue
        expected = expected + (a * a).scale_code(chi2.eval_codes(a.coeff_codes))
    assert value == expected


def test_char_power_sum_vanishing_bound():
    for spec, Pc in ((F2, (1, 1, 1)), (F3, (0, 1)), (F3, (1, 0, 1))):
        dP = len(Pc) - 1
        order = spec.q ** dP - 1
        for delta in range(1, min(order, 5)):
            chi = ResidueChar(spec, Pc, delta)
            for d in range(dP + 1, dP + 4):
                assert not char_power_sum(spec, d, chi, 0)


# -- slot-assignment sums against the per-monic oracles --------------------------


TOWER = FieldSpec.extension(F4, (2, 1, 1))  # x^2 + x + xi over F_4
SLOT_FIELDS = {f"F{q}": FieldSpec.default(q) for q in (2, 3, 4, 5, 7, 8, 9)}
SLOT_FIELDS["F16/F4"] = TOWER


def _random_char(rng, spec, max_dP):
    """A character of a random irreducible P of degree <= max_dP, its
    exponent 0, a multiple of Q - 1 or any residue, in turn at random."""
    dP = rng.randrange(1, max_dP + 1)
    while not is_irreducible(P := APoly(spec, [rng.randrange(spec.q) for _ in range(dP)] + [1])):
        pass
    order = spec.q ** dP - 1
    delta = rng.choice((0, order * rng.randrange(1, 3), rng.randrange(1, 3 * order + 2)))
    return ResidueChar(spec, P.coeff_codes, delta)


@pytest.mark.parametrize("name", sorted(SLOT_FIELDS))
def test_twisted_power_sum_matches_the_per_monic_oracle(name):
    """Mixed Frobenius orders and hyperderivatives up to 2, 40 % of the
    draws with a character of deg P <= 2: over F_4 and the tower F_16/F_4
    its residue field is a tower in turn.  Up to five factors for q <= 5;
    past that a slot needs weight q - 1, so six to eight."""
    spec = SLOT_FIELDS[name]
    rng = random.Random(3100 + spec.q)
    nonzero = 0
    for _ in range(20):
        s = rng.randrange(6) if spec.q <= 5 else rng.randrange(6, 9)
        hypers = (0, 0, 0, 1, 2) if spec.q <= 5 else (0,) * 8 + (1, 2)
        factors = [TwistFactor("finite", frob=rng.randrange(2 * spec.e), hyper=rng.choice(hypers))
                   for _ in range(s)]
        char = _random_char(rng, spec, 1 if spec.q > 9 else 2) if rng.random() < 0.4 else None
        for d in range(4):
            if spec.q ** d * (d + 1) ** s > 5000:
                break
            value = twisted_power_sum(spec, d, factors, char)
            assert value == enumerated_twisted_power_sum(spec, d, factors, char), (factors, char, d)
            nonzero += d > 0 and bool(value)
    assert nonzero >= 4


@pytest.mark.parametrize("name", ["F2", "F3", "F4", "F5", "F9", "F16/F4"])
def test_char_power_sum_matches_the_per_monic_oracle(name):
    """deg P <= 3, n <= 11 and n = 40, exponents 0 and multiples of Q - 1
    among the characters."""
    spec = SLOT_FIELDS[name]
    rng = random.Random(3200 + spec.q)
    nonzero = 0
    for i in range(16):
        chi = _random_char(rng, spec, 3 if spec.q <= 5 else 2 if spec.q <= 9 else 1)
        n = 40 if i % 4 == 0 else rng.randrange(12)
        for d in range(5):
            if spec.q ** d > 300:
                break
            value = char_power_sum(spec, d, chi, n)
            assert value == enumerated_char_power_sum(spec, d, chi, n), (chi, d, n)
            nonzero += bool(value)
    assert nonzero >= 8


def test_slot_sums_at_q_257_match_the_oracle():
    """The 256 weight-1 forms of a(zeta)^256 fill one slot of q - 1 = 256 at
    d = 1 and cannot fill two at d = 2, where no state is made."""
    spec = FieldSpec(257, (0, 1))
    for delta, d, n in ((256, 2, 0), (0, 1, 0), (5, 1, 3), (256, 1, 300)):
        chi = ResidueChar(spec, (3, 1), delta)
        assert char_power_sum(spec, d, chi, n) == enumerated_char_power_sum(spec, d, chi, n)


def test_twisted_power_sum_reaches_past_enumeration():
    """q = 16, d = 3, s = 12 (orders 0-3, three times each): the slot sum
    has 1,296 terms; a few of them, and a few keys that must be absent,
    are checked against sum_a prod_i c_(J_i)^(2^(e_i)) over the 4,096
    monics."""
    spec = FieldSpec.default(16)
    orders = [i % 4 for i in range(12)]
    value = twisted_power_sum(spec, 3, [TwistFactor("finite", frob=f) for f in orders])
    assert len(value.terms) == 1296
    rng = random.Random(3300)
    present = rng.sample(sorted(value.terms), 3) + [(0, 1, 2) * 4]
    absent = [(0,) * 12, (0, 1, 2, 3) * 3, (3,) + (0,) * 11]  # slot 0 takes 45 (1, 2 empty), 3, 44
    assert not set(absent) & set(value.terms)
    mul, add = spec.mul_table, spec.add_table
    powers = [[spec.frob_code(c, f) for c in range(16)] for f in range(4)]
    for key in present + absent:
        total = 0
        for vec in itertools.product(range(16), repeat=3):
            codes = vec + (1,)
            term = 1
            for j, f in zip(key, orders):
                term = mul[term][powers[f][codes[j]]]
            total = add[total][term]
        expected = value.terms[key].code if key in value.terms else 0
        assert total == expected, key


# -- exact zeta polynomials ------------------------------------------------------


def test_exact_L_fixtures():
    L = exact_L(F2, -1, 0)
    assert L == MPoly(("z",), {(0,): APoly.one(F2), (1,): APoly.one(F2)})
    assert L.substitute("z", APoly.one(F2)).is_zero()
    L3 = exact_L(F3, -2, 0)
    assert [(e, c.coeff_codes) for e, c in L3.sorted_terms()] == [((0,), (1,)), ((1,), (2,))]
    assert exact_L(F2, 0, 0) == MPoly(("z",), {(0,): APoly.one(F2)})
    with pytest.raises(ValueError):
        exact_L(F2, 1, 0)


def test_exact_L_matches_enumeration():
    for spec in (F2, F3):
        for n in (0, -1, -2, -4):
            for s in (1, 2):
                L = exact_L(spec, n, s)
                names = L.vars
                bound = exact_L_degree_bound(spec, n, s)
                for d in range(bound + 2):
                    expected = MPoly.zero(names)
                    for a in enumerate_monic(spec, d):
                        part = MPoly.const(names, a ** (-n))
                        for i in range(s):
                            factor = MPoly(names, {
                                tuple(j if t == i else 0 for t in range(s + 1)):
                                    APoly.constant(spec, c)
                                for j, c in enumerate(a.coeff_codes) if c})
                            part = part * factor
                        expected = expected + part
                    got = MPoly(names, {e: c for e, c in L.terms.items() if e[-1] == d})
                    scaled = MPoly(names, {e[:-1] + (d,): c for e, c in expected.terms.items()
                                           if True})
                    assert got == scaled


def test_exact_L_degree_bound_holds_and_next_shell_vanishes():
    for spec in (F2, F3, F4):
        for n in range(-8, 1):
            for s in range(3):
                L = exact_L(spec, n, s)
                bound = exact_L_degree_bound(spec, n, s)
                assert L.degree_in("z") <= bound
                # the first shell beyond the bound vanishes identically
                d = bound + 1
                shell = MPoly.zero(L.vars)
                for a in enumerate_monic(spec, d):
                    part = MPoly.const(L.vars, a ** (-n))
                    for i in range(s):
                        factor = MPoly(L.vars, {
                            tuple(j if t == i else 0 for t in range(s + 1)):
                                APoly.constant(spec, c)
                            for j, c in enumerate(a.coeff_codes) if c})
                        part = part * factor
                    shell = shell + part
                assert shell.is_zero()


def test_exact_L_trivial_zeros_small():
    for spec in (F2, F3):
        q = spec.q
        for n in range(-8, 1):
            for s in range(3):
                if (s - n) % (q - 1) == 0 and s - n >= 1:
                    L = exact_L(spec, n, s)
                    assert L.substitute("z", APoly.one(spec)).is_zero()


# -- Pellarin series ----------------------------------------------------------


def test_pellarin_fixture_and_valuations():
    P = pellarin_L_series(F2, 1, 0, 3, 12)
    assert P.terms[(0,)].coeff_codes == (1,)
    c1 = P.terms[(1,)]
    assert c1.val == 2 and all(c == 1 for c in c1.coeff_codes)  # 1/theta + 1/(theta+1)
    for spec in (F2, F3):
        for n in (1, 2, 3):
            L = pellarin_L_series(spec, n, 0, 6, 30)
            for exp, coeff in L.terms.items():
                assert coeff.valuation() >= n * exp[-1]
    with pytest.raises(ValueError):
        pellarin_L_series(F2, 0, 0, 3, 10)
    with pytest.raises(ValueError, match="s must be >= 0"):
        pellarin_L_series(F2, 1, -1, 3, 10)


def test_pellarin_with_t_variables():
    L = pellarin_L_series(F2, 2, 1, 4, 20)
    # d = 0 shell: the single polynomial 1 contributes t^0 * 1
    assert L.terms[(0, 0)].coeff_codes == (1,)
    for exp, coeff in L.terms.items():
        assert coeff.valuation() >= 2 * exp[-1]


@pytest.mark.parametrize("q, n, s, prec", [(2, 1, 1, 14), (3, 1, 0, 12), (4, 2, 1, 12)])
def test_pellarin_computes_no_shell_past_the_degree_count(monkeypatch, q, n, s, prec):
    # at the certified depth zdeg = ceil(prec/n) the loop stops at the
    # degree count of the t-shell at p^M' - n, below (prec - 1) // n
    spec = FieldSpec.default(q)
    big = least_p_power(spec.p, max(prec, n))
    bound = exact_L_degree_bound(spec, n - big, s)
    zdeg = -(-prec // n)
    assert bound < min(zdeg, (prec - 1) // n)
    real, real_top = zeta._t_shell, zeta.shell_sum
    shells = []  # the shells of either route: t-shells, or top windows at s = 0

    def counted(spec_, kernel, d, s_, N, convert):
        shells.append(d)
        return real(spec_, kernel, d, s_, N, convert)

    def counted_top(spec_, d, N, shift, prec_):
        shells.append(d)
        return real_top(spec_, d, N, shift, prec_)

    monkeypatch.setattr(zeta, "_t_shell", counted)
    monkeypatch.setattr(zeta, "shell_sum", counted_top)
    L = pellarin_L_series(spec, n, s, zdeg, prec)
    assert shells == list(range(bound + 1))
    assert max(exp[-1] for exp in L.terms) <= bound
    # the first shell it skips is zero
    assert real(spec, get_kernel(spec), bound + 1, s, big - n, lambda codes: codes) == {}


def test_pellarin_at_s_0_calls_no_t_shell(monkeypatch):
    # s = 0 shells are top windows of S_d(p^M' - n), as in mzv_eval_inf
    def refuse(*args):
        raise AssertionError("pellarin_L_series took a t-shell at s = 0")

    monkeypatch.setattr(zeta, "_t_shell", refuse)
    for q in (2, 3, 4):
        L = pellarin_L_series(FieldSpec.default(q), 1, 0, 6, 20)
        assert max(exp[-1] for exp in L.terms) >= 1, q


# -- evaluation at p-adic exponents -------------------------------------------


def test_goss_zeta_trivial_exponent():
    x = LaurentSeries.theta(F2, 60)
    value = goss_zeta_eval(SInftyPoint(x, ZpExp.from_int(0, 2, 6)), 20)
    assert value.val == 0 and value.coeff_codes == (1,)


def test_goss_zeta_cross_path_small():
    # at y = -n the value matches the exact polynomial route
    for spec, xs in ((F2, (2, 3)), (F3, (2,))):
        prec = 30
        for n in (1, 2, 5):
            for xcode in xs:
                x = LaurentSeries(spec, -xcode, (1,), 90)
                pt = SInftyPoint(x, ZpExp.from_int(n, spec.p, 8))
                got = goss_zeta_eval(pt, prec)
                zsub = (LaurentSeries.theta(spec, 90) ** n * x).inverse()
                ref = zpoly_eval_laurent(exact_L(spec, -n, 0), {"z": zsub}, prec)
                assert got.agrees_with(ref, prec=prec)


def test_goss_zeta_needs_digits():
    x = LaurentSeries.theta(F2, 60)
    with pytest.raises(PrecisionError):
        goss_zeta_eval(SInftyPoint(x, ZpExp(2, (1, 1))), 30)


def test_goss_zeta_eval_computes_shell_d_to_pi_to_prec_plus_d_v_x():
    # q = 3, x = pi^2, -y digits 0, 2, 1, prec 6: shell 1 is 2 pi^6 + O(pi^8),
    # zero to pi^6, and x^(-1) = pi^(-2) moves it to 2 pi^4
    x = LaurentSeries(F3, 2, (1,), 40)
    neg_y = ZpExp(3, (0, 2, 1))
    value = goss_zeta_eval(SInftyPoint(x, neg_y), 6)
    assert value == LaurentSeries(F3, 0, (1, 0, 0, 0, 2), 6)
    enumerated = LaurentSeries.zero(F3, 6)
    for d in range(7):
        enumerated = enumerated + enumerated_bracket_shell(F3, d, neg_y, 6 + 2 * d) * x ** -d
    assert enumerated == value


def test_goss_zeta_eval_at_x_of_positive_valuation_matches_enumerated_shells():
    """q <= 5, prec 6-15, v(x) in {1, 2}, x known to relative precision
    prec + 20: wherever sum_d x^(-d) enumerated_bracket_shell(d) over the
    shells before the stop is known to pi^prec, goss_zeta_eval returns it,
    and where too few digits of -y leave it short, goss raises.  A shell cut
    to pi^prec raised or dropped digits here."""
    rng = random.Random(61)
    outcomes = []
    for _ in range(60):
        spec = FieldSpec.default(rng.choice((2, 3, 4, 5)))
        q, p = spec.q, spec.p
        prec, v = rng.randrange(6, 16), rng.choice((1, 2))
        codes = [rng.randrange(1, q)] + [rng.randrange(q) for _ in range(prec + 19)]
        x = LaurentSeries(spec, v, codes, v + prec + 20)
        digits = next(m for m in range(1, 40) if p ** m >= prec) + rng.randrange(3)
        neg_y = ZpExp(p, [rng.randrange(p) for _ in range(digits)])
        enumerated = LaurentSeries.zero(spec, prec)
        for d in range(zeta._stop_shell(q, prec, 0, 1, v)):
            shell = enumerated_bracket_shell(spec, d, neg_y, prec + d * v)
            enumerated = enumerated + shell * x ** -d
        got = _outcome(goss_zeta_eval, SInftyPoint(x, neg_y), prec)
        if enumerated.prec < prec:
            assert got == ("PrecisionError", enumerated.prec)
        else:
            assert got == enumerated.truncate(prec)
        outcomes.append(isinstance(got, tuple))
    assert 3 <= sum(outcomes) <= 15


def test_goss_coefficient_valuations_increase():
    # shell coefficient valuations grow strictly beyond d = 2 for
    # generic p-adic exponents, ahead of the certified floor q^(d-2)
    rng = random.Random(1234)
    for spec in (F2, F3):
        p = spec.p
        prec = 100
        for _ in range(3):
            digits = [rng.randrange(p) for _ in range(9)]
            if all(d == 0 for d in digits):
                digits[0] = 1
            y = ZpExp(p, digits)
            vals = []
            for d in range(2, 6):
                c = enumerated_bracket_shell(spec, d, y, prec)
                v = c.valuation()
                vals.append(v if v is not None else c.prec)
            assert all(b > a or b >= prec for a, b in zip(vals, vals[1:])), (spec.q, digits, vals)
            assert all(v >= spec.q ** (d - 2) for v, d in zip(vals, range(2, 6)))


def test_goss_zeta_certificate_against_bruteforce():
    # v(c_d) >= q^(d-1) for q >= 3 and 2^(d-2) at q = 2: the stopping
    # rules and the numeric multiple zeta cutoff must never overestimate
    rng = random.Random(55)
    for spec in (F2, F3):
        p = spec.p
        prec = 40
        for _ in range(4):
            digits = [rng.randrange(p) for _ in range(7)]
            y = ZpExp(p, digits)
            for d in range(1, 5):
                c = enumerated_bracket_shell(spec, d, y, prec)
                v = c.valuation()
                assert (v if v is not None else c.prec) >= \
                    infty_coeff_valuation_bound(spec.q, d)


def test_twisted_L_eval_no_factors_is_one():
    x = LaurentSeries.theta(F2, 40)
    value = twisted_L_eval([], [], x, 15)
    assert value.val == 0 and value.coeff_codes == (1,)


def test_twisted_L_eval_specializes_to_goss():
    x = LaurentSeries.theta(F2, 90)
    y = ZpExp.from_int(3, 2, 7)  # y = -3
    factor = TwistFactor("infinite", frob=0, point=LaurentSeries.theta(F2, 90), zexp=y)
    a = twisted_L_eval([], [factor], x, 25)
    b = goss_zeta_eval(SInftyPoint(x, y), 25)
    assert a.agrees_with(b, prec=25)


def test_twisted_L_eval_hyperderivative_closure():
    # coefficient of t^m in the symbolic sum equals the order-m twisted sum
    x = LaurentSeries(F2, -1, (1,), 80)
    y = ZpExp.from_int(1, 2, 6)
    inf_factor = TwistFactor("infinite", point=LaurentSeries.theta(F2, 80), zexp=y)
    sym = twisted_L_eval([TwistFactor("finite")], [inf_factor], x, 18)
    zero_pt = LaurentSeries.zero(F2, 80)
    for m in range(4):
        coeff = sym.terms.get((m,))
        direct = twisted_L_eval([TwistFactor("finite", hyper=m, point=zero_pt)],
                                [inf_factor], x, 18)
        if coeff is None:
            assert direct.is_zero() or direct.valuation() >= 18
        else:
            assert coeff.agrees_with(direct, prec=min(coeff.prec, direct.prec, 18))


def test_twisted_certificate_against_bruteforce():
    # the generalized stopping bound with one symbolic linear factor:
    # the Gauss valuation of the degree-d shell respects the certificate
    rng = random.Random(808)
    for spec in (F2, F3):
        p, q = spec.p, spec.q
        prec = 40
        for _ in range(4):
            y = ZpExp(p, [rng.randrange(p) for _ in range(7)])
            for d in range(1, 5):
                shell = MPoly.zero(("t1",))
                for a in enumerate_monic(spec, d):
                    bracket = LaurentSeries(
                        spec, 0, (1,) + tuple(reversed(a.coeff_codes[:-1])), prec)
                    unit_pow = one_unit_pow(bracket, y)
                    part = MPoly(("t1",), {(j,): unit_pow.scale_code(c)
                                           for j, c in enumerate(a.coeff_codes) if c})
                    shell = shell + part
                bound = infty_coeff_valuation_bound(q, d, s=1, n_inf=1)
                gauss = shell.gauss_valuation()
                measured = gauss if gauss is not None else prec
                assert measured >= min(bound, prec), (q, d, y.digits)


def test_twisted_L_eval_truncation_soundness():
    # doubling the precision never changes already-certified digits
    x = LaurentSeries(F2, -1, (1,), 200)
    y = ZpExp.from_int(-3, 2, 8)
    inf_factor = TwistFactor("infinite", point=LaurentSeries.theta(F2, 200), zexp=y)
    lo = twisted_L_eval([TwistFactor("finite")], [inf_factor], x, 12)
    hi = twisted_L_eval([TwistFactor("finite")], [inf_factor], x, 24)
    for exp, coeff in lo.terms.items():
        other = hi.terms.get(exp, LaurentSeries.zero(F2, 24))
        assert coeff.agrees_with(other, prec=min(coeff.prec, 12))


TWISTED_ORACLE_PREC = {2: 8, 3: 8, 4: 6, 5: 6, 9: 4}


def _twisted_oracle_cases(q):
    spec = FieldSpec.default(q)
    p, e = spec.p, spec.e
    prec = TWISTED_ORACLE_PREC[q]
    theta = LaurentSeries.theta(spec, prec + 8)
    other = LaurentSeries(spec, -1, (1, 1, 1), prec + 8)  # theta + 1 + pi

    def inf(point, frob, n, digits=6):
        return TwistFactor("infinite", frob=frob, point=point, zexp=ZpExp.from_int(n, p, digits))

    cases = {
        "distinct points": ([], [inf(theta, 0, 5), inf(other, e - 1, 7)]),
        "orders l and l + e merge": ([], [inf(other, 1, 5), inf(other, 1 + e, 9, digits=5)]),
        "finite and infinite": ([TwistFactor("finite", frob=1), TwistFactor("finite", point=other)],
                                [inf(other, 0, 5)]),
    }
    if e > 1:
        cases["one point, orders not merged"] = ([], [inf(other, 0, 5), inf(other, 1, 9)])
    x = LaurentSeries.from_apoly(APoly(spec, (1, 1)), prec + 8)
    return x, prec, cases


@pytest.mark.parametrize("q", sorted(TWISTED_ORACLE_PREC))
def test_twisted_L_eval_matches_the_per_monic_oracle(q):
    # values, symbolic coefficients and their precisions all agree
    x, prec, cases = _twisted_oracle_cases(q)
    for name, (finite, infinite) in cases.items():
        value = twisted_L_eval(finite, infinite, x, prec)
        assert value == enumerated_twisted_L_eval(finite, infinite, x, prec), name
        if isinstance(value, MPoly):
            assert value.terms, name


def _random_finite(rng, spec, point=None, hypers=None):
    """A finite factor with a Frobenius order up to 2e - 1 and by default
    a hyperderivative order among 0, 1, p - 1, p, p + 1: at order 1 the
    coefficient of theta^p has C(p, 1) = 0 mod p."""
    p = spec.p
    hypers = hypers or (0, 0, 1, 1, p - 1, p, p + 1)
    return TwistFactor("finite", frob=rng.randrange(2 * spec.e), hyper=rng.choice(hypers),
                       point=point)


def _outcome(fn, *args):
    """The value of fn, or the precision a PrecisionError reported."""
    try:
        return fn(*args)
    except PrecisionError as exc:
        return ("PrecisionError", exc.precision)


@pytest.mark.parametrize("q", sorted(TWISTED_ORACLE_PREC))
def test_coefficient_tables_match_the_per_monic_mpoly_products(q):
    """twisted_power_sum and twisted_L_eval against the oracle's per-monic
    MPoly products, values and precisions: random mixed Frobenius and
    hyperderivative orders, characters whose residue field is an extension
    of F_q (deg P = 2), and numeric points of valuation -1, 0 and 1."""
    spec = FieldSpec.default(q)
    p = spec.p
    rng = random.Random(q + 2700)
    d_max = max(d for d in range(7) if q ** d <= 100)
    nonzero = 0
    for i in range(24):
        factors = [_random_finite(rng, spec) for _ in range(rng.randrange(4))]
        char = None
        if i % 2:  # deg P = 1, 2 in turn
            while not is_irreducible(P := APoly(spec, [rng.randrange(q) for _ in range(
                    1 + i % 4 // 2)] + [1])):
                pass
            char = ResidueChar(spec, P.coeff_codes, rng.randrange(1, q ** P.degree))
        for d in range(d_max + 1):
            value = twisted_power_sum(spec, d, factors, char)
            assert value == enumerated_twisted_power_sum(spec, d, factors, char), (factors, char, d)
            nonzero += bool(value)
    assert nonzero >= 8
    prec = TWISTED_ORACLE_PREC[q]
    x = LaurentSeries.from_apoly(APoly(spec, (rng.randrange(q), 1)), prec + 8)
    symbolic_nonzero = 0
    for v in (-1, 0, 1, -1, 0, 1):
        codes = (rng.randrange(1, q),) + tuple(rng.randrange(q) for _ in range(prec + 6))
        point = LaurentSeries(spec, v, codes, v + prec + rng.randrange(2, 8))
        finite = [_random_finite(rng, spec, hypers=(0, 0, 1)),
                  _random_finite(rng, spec, point, hypers=(0, 0, 1))]
        if rng.random() < 0.5:
            finite.append(_random_finite(rng, spec, hypers=(0, 1, p)))
        rng.shuffle(finite)
        infinite = [TwistFactor("infinite", frob=rng.randrange(2 * spec.e),
                                point=LaurentSeries.theta(spec, prec + 8),
                                zexp=ZpExp.from_int(rng.randrange(1, 30), p, 6))
                    for _ in range(rng.randrange(3))]
        for fin in (finite, [f for f in finite if f.point is not None]):
            value = _outcome(twisted_L_eval, fin, infinite, x, prec)
            assert value == _outcome(enumerated_twisted_L_eval, fin, infinite, x, prec), \
                (v, fin, infinite)
            symbolic_nonzero += isinstance(value, MPoly) and bool(value)
    assert symbolic_nonzero >= 2


def test_twisted_L_eval_builds_one_units_without_series_evaluation(monkeypatch):
    # q = 3, prec 20, two factors at theta + 1 + pi with orders 0 and 1:
    # they merge, so one one-unit power per monic of a computed shell, no
    # APoly.eval and at most 9,172 series products (the per-monic loop took
    # 81,647).  Their exponent 7 + 11 = 18 = 2 * 3^2 has digit weight 2,
    # so from shell 2 on the slots j < d cannot each collect weight 2 and
    # the shells are exactly zero: the digit certificate skips them, and
    # only the 1 + 3 monics of shells 0 and 1 raise a one-unit
    spec, prec = F3, 20
    point = LaurentSeries(spec, -1, (1, 1, 1), prec + 8)
    infinite = [TwistFactor("infinite", point=point, zexp=ZpExp.from_int(7, 3, 3)),
                TwistFactor("infinite", frob=1, point=point, zexp=ZpExp.from_int(11, 3, 4))]
    x = LaurentSeries.from_apoly(APoly(spec, (1, 1)), prec + 8)
    calls = {"mul": 0, "eval": 0}
    shell, pows = [None], {}
    monics, power = zeta.monic_coeff_vectors, zeta.one_unit_pow

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    def started(spec, d):
        shell[0] = d
        return monics(spec, d)

    def counted(u, y):
        pows[shell[0]] = pows.get(shell[0], 0) + 1
        return power(u, y)

    monkeypatch.setattr(seriesinf.LaurentSeries, "__mul__",
                        counting("mul", seriesinf.LaurentSeries.__mul__))
    monkeypatch.setattr(polyring.APoly, "eval", counting("eval", polyring.APoly.eval))
    monkeypatch.setattr(zeta, "monic_coeff_vectors", started)
    monkeypatch.setattr(zeta, "one_unit_pow", counted)
    value = twisted_L_eval([], infinite, x, prec)
    assert twisted_stop_shell([], infinite, x, prec) == 4
    assert calls["eval"] == 0
    assert pows == {0: 1, 1: 3}
    assert calls["mul"] <= 9172
    monkeypatch.undo()
    assert value == enumerated_twisted_L_eval([], infinite, x, prec)


ORBIT_FIELDS = {f"F{q}": FieldSpec.default(q) for q in (2, 3, 4, 5, 9)}
ORBIT_FIELDS["F16/F4"] = FieldSpec.extension(F4, (2, 1, 1))  # x^2 + x + xi over F_4


@pytest.mark.parametrize("name", sorted(ORBIT_FIELDS))
def test_twisted_L_eval_over_scaling_orbits_matches_the_per_monic_oracle(name):
    """No finite factors and one merged infinite factor at c theta exactly:
    the shells visit one monic per scaling orbit, and values, precisions
    and PrecisionErrors equal the per-monic oracle's, with c != 1 where
    q > 2, two factors whose orders agree mod e, and points known to low
    precision."""
    spec = ORBIT_FIELDS[name]
    q, p, e = spec.q, spec.p, spec.e
    rng = random.Random(3000 + q)
    prec = max(8, q + 3)  # past q - 1, where the terms of a shell past 0 start
    digits = next(m for m in range(1, prec + 1) if p ** m >= prec)
    outcomes = []

    def exponent(digits):
        # most base-p digits p - 1, so that shells past 0 survive mod pi^prec
        return ZpExp.from_int(p ** digits - 1 - rng.randrange(2 * p), p, digits)

    for trial in range(8):
        c = rng.randrange(2, q) if q > 2 else 1
        point = LaurentSeries(spec, -1, (c,), (prec + 8, prec + 1, 3)[trial % 3])
        frob = rng.randrange(2 * e)
        infinite = [TwistFactor("infinite", frob=frob, point=point,
                                zexp=exponent(digits + trial % 2))]
        if trial % 2:  # a second factor at the same point, order frob + e: they merge
            infinite.append(TwistFactor("infinite", frob=frob + e, point=point,
                                        zexp=exponent(digits)))
        x = LaurentSeries.from_apoly(APoly(spec, (rng.randrange(q), 1)), prec + 8)
        got = _outcome(twisted_L_eval, [], infinite, x, prec)
        assert got == _outcome(enumerated_twisted_L_eval, [], infinite, x, prec), (trial, infinite)
        outcomes.append(got)
    assert sum(isinstance(v, LaurentSeries) and len(v.coeff_codes) > 1 for v in outcomes) >= 2
    assert any(isinstance(v, tuple) for v in outcomes)  # a low-precision point raised


def test_twisted_L_eval_at_c_theta_raises_one_one_unit_per_orbit_member(monkeypatch):
    """Shell d of the orbit route raises 1 + sum_e gcd(e, q - 1) q^(d - e)
    one-units, one per orbit member, when it is computed, and none when
    the digit certificate proves it zero to its target.
    (a) q = 5, prec 30, x = theta + 2: the exponent 7 has digits 2, 1, of
    weight 3 < q - 1, so shells 1-3 are exactly zero.  (b) q = 3, prec 40,
    x = 1 + pi: the digits 2, 2, 2, 2 of 80 fill d slots with two units
    each, the cheapest at cost 1, 3, 9, 27 per unit, so V_3 =
    2(3 + 2 * 3 + 9) = 36 < 40 and V_4 = 2(4 + 3 * 3 + 2 * 9 + 27) = 116:
    shells 0-3 are computed (17 of the 27 monics at d = 3), shell 4 is not."""
    F5 = FieldSpec.default(5)
    cases = [(F5, 30, 3, ZpExp.from_int(7, 5, 3), LaurentSeries.from_apoly(APoly(F5, (2, 1)), 38),
              4, {0: 1}),
             (F3, 40, 2, ZpExp.from_int(80, 3, 4), LaurentSeries(F3, 0, (1, 1), 48),
              5, {0: 1, 1: 2, 2: 6, 3: 17})]
    for spec, prec, c, zexp, x, stop, expected in cases:
        q = spec.q
        infinite = [TwistFactor("infinite", point=LaurentSeries(spec, -1, (c,), prec + 8),
                                zexp=zexp)]
        shell, calls = [None], {}
        members, power = zeta._orbit_members, zeta.one_unit_pow

        def started(spec, d):
            shell[0] = d
            return members(spec, d)

        def counted(u, y):
            calls[shell[0]] = calls.get(shell[0], 0) + 1
            return power(u, y)

        monkeypatch.setattr(zeta, "_orbit_members", started)
        monkeypatch.setattr(zeta, "one_unit_pow", counted)
        value = twisted_L_eval([], infinite, x, prec)
        monkeypatch.undo()
        assert twisted_stop_shell([], infinite, x, prec) == stop
        assert calls == expected
        assert expected == {d: 1 + sum(math.gcd(e, q - 1) * q ** (d - e) for e in range(1, d + 1))
                            for d in expected}
        assert value == enumerated_twisted_L_eval([], infinite, x, prec)


def _digit_bases(rng, spec, count):
    """(k, l, base-p digits) per base: v(y) = -k, k in 1..3, up to 5 digits."""
    return [(rng.randrange(1, 4), rng.randrange(spec.e),
             tuple(rng.randrange(spec.p) for _ in range(rng.randrange(1, 6))))
            for _ in range(count)]


@pytest.mark.parametrize("name", sorted(ORBIT_FIELDS))
def test_digit_valuation_bound_is_inf_exactly_below_the_slot_weight(name):
    # inf exactly when the digits' weight sum_i n_i p^((l+i) mod e) cannot
    # give each of the d slots j < d its q - 1
    spec = ORBIT_FIELDS[name]
    q, p, e = spec.q, spec.p, spec.e
    rng = random.Random(3400 + q)
    infinite = 0
    for _ in range(200):
        d, bases = rng.randrange(6), _digit_bases(rng, spec, rng.randrange(1, 3))
        weight = sum(n * p ** ((l + i) % e) for _, l, digits in bases for i, n in enumerate(digits))
        bound = zeta._digit_valuation_bound(spec, d, bases)
        assert (bound == math.inf) == (weight < d * (q - 1)), (d, bases)
        infinite += bound == math.inf
    assert 20 <= infinite <= 180


def _assignment_minimum(spec, d, bases):
    """min over the choices of one slot j per copy of u^(p^i) (e = 1, so
    every copy has weight 1) that leave every slot j < d a positive
    multiple of q - 1 copies, of sum (d - j) k p^i; inf if there is none."""
    picks = [k * spec.p ** i for k, _, digits in bases for i, n in enumerate(digits)
             for _ in range(n)]
    best = math.inf
    for slots in itertools.product(range(d + 1), repeat=len(picks)):
        counts = [slots.count(j) for j in range(d)]
        if all(c and c % (spec.q - 1) == 0 for c in counts):
            best = min(best, sum((d - j) * cost for j, cost in zip(slots, picks)))
    return best


def test_digit_valuation_bound_is_the_assignment_minimum_at_e_1():
    rng = random.Random(3401)
    finite = 0
    for _ in range(150):
        spec = FieldSpec.default(rng.choice((2, 3, 5, 7)))
        d, bases = rng.randrange(4), _digit_bases(rng, spec, rng.randrange(1, 3))
        if sum(n for _, _, digits in bases for n in digits) > 7:
            continue
        bound = zeta._digit_valuation_bound(spec, d, bases)
        assert bound == _assignment_minimum(spec, d, bases), (spec.q, d, bases)
        finite += 0 < bound < math.inf
    assert finite >= 15


DIGIT_FIELDS = [FieldSpec.default(q) for q in (2, 3, 4, 5, 7, 8, 9)] + [ORBIT_FIELDS["F16/F4"]]


def test_digit_certificate_skips_only_shells_that_compute_to_zero(monkeypatch):
    """Every shell the digit certificate skips, computed anyway, is zero to
    a precision of at least its target, and twisted_L_eval's outcome equals
    the per-monic oracle's.  No finite factors, one or two infinite factors
    at c theta, theta + c or a point of degree 2, known to prec + 1 to
    prec + 20, and x of valuation -2 to 2, over q <= 9 and F_16 / F_4."""
    rng = random.Random(3402)
    bounds, skipped, real_bound = [], [], zeta._digit_valuation_bound
    sum_shells = zeta._sum_shells

    def bound(spec, d, bases):
        bounds.append(real_bound(spec, d, bases))
        return bounds[-1]

    def checked(x, prec, stop, loss_rate, shell):
        shells = {}
        for d in range(stop):
            target = prec + d * loss_rate
            if target <= 0:
                break
            shells[d, target] = shell(d, target)
            if not shells[d, target]:
                with monkeypatch.context() as m:
                    m.setattr(zeta, "_digit_certificate", lambda *args: False)
                    value = shell(d, target)[()]
                assert value.is_zero() and value.prec >= target, (d, target, value)
                skipped.append(bounds[-1])
        return sum_shells(x, prec, stop, loss_rate, lambda d, target: shells[d, target])

    monkeypatch.setattr(zeta, "_digit_valuation_bound", bound)
    monkeypatch.setattr(zeta, "_sum_shells", checked)
    outcomes = []
    for trial in range(120):
        spec = rng.choice(DIGIT_FIELDS)
        q, p, e = spec.q, spec.p, spec.e
        prec = rng.randrange(4, 13 if q <= 4 else 8)

        def point():
            known = prec + rng.choice((1, 4, 20))
            top = (rng.randrange(1, q),)
            return LaurentSeries.from_apoly(APoly(spec, rng.choice((
                (0,) + top, (rng.randrange(q), 1), (rng.randrange(q), rng.randrange(q)) + top))),
                known)

        digits = next(m for m in range(1, 40) if p ** m >= prec)
        infinite = [TwistFactor("infinite", frob=rng.randrange(2 * e), point=point(),
                                zexp=ZpExp(p, [rng.randrange(p) for _ in range(
                                    digits + rng.randrange(3))]))
                    for _ in range(rng.choice((1, 1, 2)))]
        vx = rng.randrange(-2, 3)
        x = LaurentSeries(spec, vx, [rng.randrange(1, q)] + [rng.randrange(q) for _ in range(
            prec + 20)], vx + prec + 20)
        if sum(q ** d for d in range(twisted_stop_shell([], infinite, x, prec))) > 400:
            continue
        got = _outcome(twisted_L_eval, [], infinite, x, prec)
        with monkeypatch.context() as m:
            m.setattr(zeta, "_sum_shells", sum_shells)
            assert got == _outcome(enumerated_twisted_L_eval, [], infinite, x, prec), \
                (trial, infinite, x, prec)
        outcomes.append(isinstance(got, LaurentSeries))
    # shells skipped on a finite bound as well as on too little weight
    assert len(skipped) >= 80 and sum(b < math.inf for b in skipped) >= 20
    assert 40 <= sum(outcomes) < len(outcomes)  # values and PrecisionErrors


def test_twisted_L_eval_computes_a_shell_at_its_digit_bound(monkeypatch):
    """q = 4 (e = 2), prec 20, x = 1 + pi, one factor at theta with exponent
    15: its binary digits 1, 1, 1, 1 weigh 1, 2, 1, 2, so shell 2 has the
    weight 6 = 2(q - 1) its two slots need, and V_2 = 2 * 3 * 1 + 3 * 4 = 18.
    The shell is computed, adds exactly pi^18 times a unit, and the value
    is the oracle's."""
    prec = 20
    infinite = [TwistFactor("infinite", point=LaurentSeries.theta(F4, prec + 8),
                            zexp=ZpExp.from_int(15, 2, 5))]
    x = LaurentSeries(F4, 0, (1, 1), prec + 8)
    value = twisted_L_eval([], infinite, x, prec)
    assert value == enumerated_twisted_L_eval([], infinite, x, prec)
    monkeypatch.setattr(zeta, "twisted_stop_shell", lambda *args: 2)
    assert (value - twisted_L_eval([], infinite, x, prec)).valuation() == 18
    assert zeta._digit_valuation_bound(F4, 2, [(1, 0, (1, 1, 1, 1, 0))]) == 18


def test_twisted_L_eval_computes_a_zero_shell_whose_rows_fall_short():
    """q = 3, prec 8, x = pi, one factor at theta + O(pi^10) with exponent
    1: every shell d >= 1 is exactly zero (weight 1 < q - 1 = 2), but
    shell d is wanted to pi^(8 + d) and its rows are known to pi^9 only,
    so shells 2 and 3 are computed and raise, as in the per-monic oracle."""
    prec = 8
    infinite = [TwistFactor("infinite", point=LaurentSeries(F3, -1, (1,), prec + 2),
                            zexp=ZpExp.from_int(1, 3, 3))]
    x = LaurentSeries.pi(F3, prec + 20)
    assert twisted_stop_shell([], infinite, x, prec) == 4
    for fn in (twisted_L_eval, enumerated_twisted_L_eval):
        assert _outcome(fn, [], infinite, x, prec) == ("PrecisionError", 6)


def _mutant(monkeypatch, name, old, new):
    """Replace zeta.<name> by its source with `old` turned into `new`."""
    source = inspect.getsource(getattr(zeta, name))
    assert source.count(old) == 1
    namespace = dict(vars(zeta))
    exec(compile(source.replace(old, new), zeta.__file__, "exec"), namespace)
    monkeypatch.setattr(zeta, name, namespace[name])


@pytest.mark.parametrize("name, old, new, witness", [
    ("_digit_valuation_bound", "weight = p ** ((l + i) % e)", "weight = 1",
     test_twisted_L_eval_computes_a_shell_at_its_digit_bound),
    ("_digit_valuation_bound", "k * p ** i * scale // weight", "k * scale // weight",
     test_twisted_L_eval_at_c_theta_raises_one_one_unit_per_orbit_member),
    ("_digit_certificate", "known >= target and ", "",
     test_twisted_L_eval_computes_a_zero_shell_whose_rows_fall_short),
])
def test_digit_certificate_mutants_fail_a_test(monkeypatch, name, old, new, witness):
    # (a) the weight p^((l+i) mod e) as 1, (b) the cost k p^i as k, (c) the
    # rows' precision condition dropped: each makes its witness test fail
    _mutant(monkeypatch, name, old, new)
    with pytest.raises((AssertionError, pytest.fail.Exception)), pytest.MonkeyPatch.context() as m:
        witness(m) if inspect.signature(witness).parameters else witness()


def test_twisted_L_eval_is_unchanged_by_two_more_shells(monkeypatch):
    """Shells past `twisted_stop_shell` change no outcome, PrecisionError
    included.  At q = 4 the numeric point theta^2 (valuation -2) and
    x = 1 + 2 pi (valuation 0) lose 2 digits a shell, so shell d is
    computed to pi^(12 + 2d)."""
    spec, prec = F4, 12
    finite = [TwistFactor("finite", hyper=2, point=LaurentSeries(spec, -2, (1,), prec + 8))]
    infinite = [TwistFactor("infinite", point=LaurentSeries.theta(spec, prec + 8),
                            zexp=ZpExp.from_int(7, 2, 4))]
    x = LaurentSeries(spec, 0, (1, 2), prec + 8)
    value = _outcome(twisted_L_eval, finite, infinite, x, prec)
    stop = zeta.twisted_stop_shell
    monkeypatch.setattr(zeta, "twisted_stop_shell", lambda *args: stop(*args) + 2)
    assert _outcome(twisted_L_eval, finite, infinite, x, prec) == value


def test_twisted_L_eval_at_a_point_of_negative_valuation_returns_the_oracle_value():
    """q <= 5, prec 6-12, one numeric point of valuation -1 or -2 and one
    infinite factor at theta, everything known to prec + 60: every input
    returns the per-monic oracle's value.  A monic's first factor cut to
    relative precision prec left a term of valuation -k known only to
    pi^(prec - k), and most of these inputs raised."""
    rng = random.Random(32)
    for _ in range(60):
        spec = FieldSpec.default(rng.choice((2, 3, 4, 5)))
        q, p, e = spec.q, spec.p, spec.e
        prec, v = rng.randrange(6, 13), rng.choice((-1, -2))
        known = prec + 60
        codes = [rng.randrange(1, q)] + [rng.randrange(q) for _ in range(known - v - 1)]
        finite = [TwistFactor("finite", frob=rng.randrange(2 * e), hyper=rng.choice((0, 0, 1, p)),
                              point=LaurentSeries(spec, v, codes, known))]
        digits = next(m for m in range(1, 40) if p ** m >= known)
        infinite = [TwistFactor("infinite", frob=rng.randrange(2 * e),
                                point=LaurentSeries.theta(spec, known),
                                zexp=ZpExp(p, [rng.randrange(p) for _ in range(digits)]))]
        x = LaurentSeries.from_apoly(APoly(spec, (rng.randrange(q), 1)), known)
        value = twisted_L_eval(finite, infinite, x, prec)
        assert value == enumerated_twisted_L_eval(finite, infinite, x, prec), (finite, infinite)


# sha256 of the canonical JSON of twisted_L_eval over q = 3 (prec 10) and
# q = 4 (prec 8) with symbolic, numeric and infinite factors: the Laurent
# coefficients, precisions included, must stay as recorded here
TWISTED_DIGEST = "8d95544f5de233767fe44245eb4d954503f7c085e96a2c36fc0e41894b5575f1"


def test_twisted_L_eval_values_are_pinned():
    docs = []
    for q, prec in ((3, 10), (4, 8)):
        spec = FieldSpec.default(q)
        x = LaurentSeries.from_apoly(APoly(spec, (1, 1)), prec + 8)
        point = LaurentSeries.from_apoly(APoly(spec, (2, 1)), prec + 8)
        finite = [TwistFactor("finite", frob=1), TwistFactor("finite", hyper=1),
                  TwistFactor("finite", point=point)]
        infinite = [TwistFactor("infinite", point=LaurentSeries.theta(spec, prec + 8),
                                zexp=ZpExp.from_int(5, spec.p, 6))]
        for fin, inf in ((finite, []), (finite[:2], infinite), (finite, infinite)):
            value = twisted_L_eval(fin, inf, x, prec)
            assert value.terms
            docs.append(value.to_json(lambda c: c.to_json()))
    text = json.dumps(docs, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == TWISTED_DIGEST


def test_infinite_place_evaluations_reject_precision_below_one():
    x = LaurentSeries.theta(F2, 40)
    for prec in (0, -5):
        with pytest.raises(ValueError, match="prec >= 1"):
            goss_zeta_eval(SInftyPoint(x, ZpExp.from_int(3, 2, 6)), prec)
        with pytest.raises(ValueError, match="prec >= 1"):
            twisted_L_eval([TwistFactor("finite")], [], x, prec)


def test_char_power_sum_at_n_0_needs_no_packed_kernel():
    # p = 257: n = 0 reads only character values
    spec = FieldSpec(257, (0, 1))
    chi = ResidueChar(spec, (0, 1), 2)
    assert char_power_sum(spec, 1, chi, 0).code == sum(c * c for c in range(1, 257)) % 257


def test_twist_factor_validation():
    with pytest.raises(ValueError):
        TwistFactor("infinite")  # needs point and exponent
    with pytest.raises(ValueError):
        TwistFactor("infinite", point=LaurentSeries.pi(F2, 5), zexp=ZpExp(2, (1,)))
    with pytest.raises(ValueError):
        TwistFactor("weird")
    with pytest.raises(ValueError):
        twisted_L_eval([], [TwistFactor("finite")], LaurentSeries.theta(F2, 10), 5)


def test_twisted_L_eval_raises_when_a_symbolic_coefficient_falls_below_prec():
    # q = 3, prec 6, x = theta + 1.  (a) A numeric factor at
    # theta + 2 + pi + pi^2 known to relative precision 6 and an infinite
    # factor at theta leave every coefficient known to pi^4; a symbolic
    # factor beside them must not turn the PrecisionError into
    # coefficients of precision 4.  (b) With the numeric point 2 + O(pi^2),
    # hyperderivatives of order 1 and exponent 14, the t^0 sum is zero
    # only to pi^3: it may not drop out as an exact zero, since a longer
    # point makes it 2 pi^3 + pi^4
    prec = 6
    x = LaurentSeries.from_apoly(APoly(F3, (1, 1)), prec + 8)

    def at_theta(n):
        return [TwistFactor("infinite", point=LaurentSeries.theta(F3, prec + 8),
                            zexp=ZpExp.from_int(n, 3, 6))]

    numeric = TwistFactor("finite", point=LaurentSeries(F3, -1, (1, 2, 1, 1), 5))
    short = TwistFactor("finite", hyper=1, point=LaurentSeries(F3, 0, (2,), 2))
    cases = [([numeric], at_theta(5), 4), ([TwistFactor("finite"), numeric], at_theta(5), 4),
             ([TwistFactor("finite", hyper=1), short], at_theta(14), 3)]
    for finite, infinite, low in cases:
        for fn in (twisted_L_eval, enumerated_twisted_L_eval):
            with pytest.raises(PrecisionError, match="fell below the requested 6") as exc:
                fn(finite, infinite, x, prec)
            assert exc.value.precision == low, (fn.__name__, len(finite))
    longer = TwistFactor("finite", hyper=1, point=LaurentSeries(F3, 0, (2, 0, 1, 2, 2, 1), 12))
    value = twisted_L_eval([TwistFactor("finite", hyper=1), longer], at_theta(14), x, prec)
    assert value.terms == {(0,): LaurentSeries(F3, 3, (2, 1), prec)}
