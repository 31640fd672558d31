import copy
import hashlib
import json
import math
import operator
import pickle
import random

import pytest

from ffzeta.fields import (BUILTIN_MODULI, FieldSpec, FqElem, ZpExp, ResidueChar, FieldError,
                           binary_power, frobenius, lq_digit_sum, binom_mod_p, char_eval,
                           find_embedding)
from ffzeta.mzv import MzvIndex
from ffzeta.oracle import CharsumConfig
from ffzeta.padic import PadicCtx
from ffzeta.polyring import APoly
from ffzeta.seriesinf import LaurentSeries, PrecisionError
from ffzeta.vadic import VadicPoint
from ffzeta.zeta import SInftyPoint, TwistFactor


SPECS = [FieldSpec.default(q) for q in (2, 3, 4, 5, 8, 9)]


def test_builtin_moduli_sizes():
    for q in (4, 8, 9, 16, 25, 27):
        spec = FieldSpec.default(q)
        assert spec.q == q
        assert spec.p ** spec.e == q


def test_reducible_modulus_rejected():
    with pytest.raises(FieldError):
        FieldSpec(2, (1, 0, 1))  # x^2 + 1 = (x+1)^2 over F_2
    with pytest.raises(FieldError):
        FieldSpec(4, (0, 1))  # p must be prime


def test_field_axioms_fixtures():
    F4 = FieldSpec.default(4)
    xi = F4.elem_from_code(2)
    assert (xi * xi).code == 3  # xi^2 = xi + 1 under the built-in modulus
    assert (xi * xi.inverse()).code == 1
    F3 = FieldSpec.default(3)
    assert (F3.elem_from_code(1) + F3.elem_from_code(2)).code == 0


def test_division_by_zero_and_mixed_specs():
    F4 = FieldSpec.default(4)
    F3 = FieldSpec.default(3)
    with pytest.raises(ZeroDivisionError):
        F4.zero().inverse()
    with pytest.raises(FieldError):
        F4.one() + F3.one()


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"q{s.q}")
def test_field_axioms_random(spec):
    rng = random.Random(spec.q)
    q = spec.q
    for _ in range(300):
        a, b, c = (FqElem(spec, rng.randrange(q)) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert a + (-a) == spec.zero()
        if a:
            assert a * a.inverse() == spec.one()
        n = rng.randrange(0, 3 * q)
        expected = spec.one()
        for _ in range(n):
            expected = expected * a
        assert a ** n == expected


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"q{s.q}")
def test_frobenius_is_additive_and_multiplicative(spec):
    rng = random.Random(17 + spec.q)
    for _ in range(1000):
        x = FqElem(spec, rng.randrange(spec.q))
        y = FqElem(spec, rng.randrange(spec.q))
        j = rng.randrange(0, 2 * spec.e + 1)
        assert frobenius(x + y, j) == frobenius(x, j) + frobenius(y, j)
        assert frobenius(x * y, j) == frobenius(x, j) * frobenius(y, j)


def test_frobenius_trivial_cases():
    for spec in SPECS:
        for x in spec.elements():
            assert frobenius(x, 0) == x
            assert frobenius(x, spec.e) == x  # full-field Frobenius is identity
        for c in range(spec.p):
            x = spec.elem_from_code(c)
            assert frobenius(x, 3) == x  # prime subfield is fixed


def test_fermat_little_law_all_elements():
    for spec in SPECS:
        for x in spec.elements():
            assert x ** spec.q == x


def test_lq_digit_sum():
    assert lq_digit_sum(0, 3) == 0
    assert lq_digit_sum(3 ** 5, 3) == 1
    assert lq_digit_sum(8, 3) == 4  # 8 = 22 base 3
    with pytest.raises(ValueError):
        lq_digit_sum(-1, 2)


def test_lq_digit_sum_congruence():
    for q in (2, 3, 4, 5, 9):
        for n in range(0, 100001, 7):
            assert lq_digit_sum(n, q) % (q - 1) == n % (q - 1)


def test_binom_mod_p_against_exact():
    for p in (2, 3, 5):
        for k in range(0, 201, 3):
            for m in range(0, 201, 3):
                assert binom_mod_p(k, m, p) == math.comb(k, m) % p if k >= m \
                    else binom_mod_p(k, m, p) == 0


def test_binom_fixtures():
    assert binom_mod_p(2, 5, 3) == 0  # k < m
    assert binom_mod_p(7, 0, 2) == 1
    assert binom_mod_p(5, 2, 3) == 1  # 10 mod 3


def test_char_eval_fixtures():
    F3 = FieldSpec.default(3)
    chi = ResidueChar(F3, (0, 1), 1)  # P = theta
    assert char_eval(chi, APoly.one(F3)).code == 1
    assert char_eval(chi, APoly.theta(F3)).code == 0  # P | a
    assert char_eval(chi, APoly(F3, (2, 1))).code == 2


def test_char_eval_multiplicative():
    F2 = FieldSpec.default(2)
    chi = ResidueChar(F2, (1, 1, 1), 2)
    rng = random.Random(5)
    P = APoly(F2, (1, 1, 1))
    done = 0
    while done < 500:
        a = APoly(F2, [rng.randrange(2) for _ in range(rng.randrange(1, 7))])
        b = APoly(F2, [rng.randrange(2) for _ in range(rng.randrange(1, 7))])
        if a.is_zero() or b.is_zero() or (a % P).is_zero() or (b % P).is_zero():
            continue
        assert char_eval(chi, a * b) == char_eval(chi, a) * char_eval(chi, b)
        done += 1


def test_char_rejects_reducible_modulus():
    F2 = FieldSpec.default(2)
    with pytest.raises(ValueError):
        ResidueChar(F2, (0, 0, 1), 1)  # theta^2


def test_extension_and_embedding():
    F2 = FieldSpec.default(2)
    ext = FieldSpec.extension(F2, (1, 1, 1))
    assert ext.q == 4
    # canonical inclusion keeps constant codes
    assert ext.from_digits([1]) == 1
    F4 = FieldSpec.default(4)
    table = find_embedding(F2, F4)
    assert table[0] == 0 and table[1] == 1
    # embedding into a non-matching field fails
    with pytest.raises(FieldError):
        find_embedding(FieldSpec.default(3), F4)


def test_embedding_is_ring_homomorphism():
    F2 = FieldSpec.default(2)
    F16 = FieldSpec.default(16)
    F4 = FieldSpec.default(4)
    table = find_embedding(F4, F16)
    for a in range(4):
        for b in range(4):
            assert table[F4.add_code(a, b)] == F16.add_code(table[a], table[b])
            assert table[F4.mul_code(a, b)] == F16.mul_code(table[a], table[b])


def test_fieldspec_json_roundtrip():
    for q in (2, 3, 4, 9):
        spec = FieldSpec.default(q)
        doc = spec.to_json()
        assert FieldSpec.from_json(json.dumps(doc)) == spec
    assert FieldSpec.from_json({"p": 3, "e": 2, "modulus": [1, 0, 1]}).q == 9


def test_zpexp():
    y = ZpExp(2, (1, 0, 1, 1))
    assert y.as_int() == 13
    assert y.precision == 4
    assert ZpExp.from_json(y.to_json()) == y
    neg = ZpExp.from_int(-1, 3, 4)
    assert neg.digits == (2, 2, 2, 2)
    assert ZpExp.from_int(5, 2, 4).base_q_digits(2) == [1, 1]  # 5 = 11 base 4
    with pytest.raises(ValueError):
        ZpExp(4, (1,))
    with pytest.raises(ValueError):
        ZpExp(2, (2,))


def test_coords_roundtrip():
    for spec in SPECS:
        for code in range(spec.q):
            assert spec.from_coords(spec.coords(code)) == code


# sha256 of the add, mul and inverse tables as JSON: however a field
# builds its tables, every entry must stay as recorded here
TABLE_DIGESTS = {
    4: "fd1d246c056d73ed24f70f85dfa5d5be6fb6dea21aa35c15c60213c192957147",
    8: "6523d0d786f552cef1b57db851a76f7beea3d7cc8df624eac1621223f388bc45",
    9: "2563c222813e38bf2e263341efa0ae0fd22a62839c41eb7e2c22216837c474a8",
    16: "7a27a0424e88d45582c6ea9f41356b4f4da8f9e728361b0bd1b8d67a6a0b45c4",
    25: "153acb319784e62e2ba394f969d778cdc053ff2b4afa23fae0617764495f23d6",
    27: "644cd93a53400d900049ab6c53de6038cdbd4b68ecd95b54122aba40e3722359",
}
# the residue field F_4[x]/(x^2 + x + xi), codes base 4
RESIDUE_DIGEST = "b8ba633816ea4345cec9f7e86f3465527c9161ed04d868f28e585d678b8a0bd4"


def _table_digest(F):
    tables = [[[F.add_code(a, b) for b in range(F.q)] for a in range(F.q)],
              [[F.mul_code(a, b) for b in range(F.q)] for a in range(F.q)],
              [F.inv_code(a) for a in range(1, F.q)]]
    return hashlib.sha256(json.dumps(tables).encode()).hexdigest()


def test_field_tables_are_pinned():
    assert set(TABLE_DIGESTS) == set(BUILTIN_MODULI)
    for q, want in TABLE_DIGESTS.items():
        assert _table_digest(FieldSpec.default(q)) == want, q
    residue = FieldSpec.extension(FieldSpec.default(4), (2, 1, 1))
    assert residue.q == 16
    assert _table_digest(residue) == RESIDUE_DIGEST


def test_binary_power_multiplies_the_result_before_squaring():
    # a non-commutative, non-associative product shows the order
    word = binary_power("a", 3, lambda x, y: f"({x}{y})")
    assert word == "(a(aa))"
    assert binary_power("a", 6, lambda x, y: f"({x}{y})") == "((aa)((aa)(aa)))"
    for n in range(1, 70):
        assert binary_power(3, n, operator.mul) == 3 ** n


@pytest.mark.parametrize("n", (0, -1, -5))
def test_binary_power_rejects_exponents_below_one(n):
    products = []

    def mul(x, y):  # shifting a negative n never reaches 0
        products.append(x)
        assert len(products) < 64
        return x * y % 1009

    with pytest.raises(ValueError, match="n >= 1"):
        binary_power(3, n, mul)
    assert not products


def _value_type_cases():
    """name -> (a valid value, a value built from the defaults, its repr,
    the defaults, the (error, bad constructor call) pairs)."""
    F3 = FieldSpec.default(3)
    theta = LaurentSeries.theta(F3, 20)
    y = ZpExp(3, (1, 2))
    ctx = PadicCtx(APoly(F3, (1, 1)), 2)
    return {
        "TwistFactor": (
            lambda: TwistFactor("infinite", frob=1, point=theta, zexp=y),
            lambda: TwistFactor("finite"),
            "TwistFactor(kind='finite', frob=0, hyper=0, point=None, zexp=None)",
            {"frob": 0, "hyper": 0, "point": None, "zexp": None},
            [(ValueError, lambda: TwistFactor("middle")),
             (ValueError, lambda: TwistFactor("finite", frob=-1)),
             (ValueError, lambda: TwistFactor("finite", hyper=-1)),
             (ValueError, lambda: TwistFactor("infinite", hyper=1, point=theta, zexp=y)),
             (ValueError, lambda: TwistFactor("infinite", point=theta)),
             (ValueError, lambda: TwistFactor("infinite", point=APoly(F3, (0, 1)), zexp=y)),
             (ValueError, lambda: TwistFactor("infinite", point=theta.inverse(), zexp=y)),
             (ValueError, lambda: TwistFactor("infinite", point=LaurentSeries.zero(F3, 20),
                                              zexp=y)),
             (ValueError, lambda: TwistFactor("finite", zexp=y))]),
        "SInftyPoint": (
            lambda: SInftyPoint(theta, y),
            lambda: SInftyPoint(LaurentSeries.one(F3, 4), ZpExp(3, (2,))),
            f"SInftyPoint(x={LaurentSeries.one(F3, 4)!r}, neg_y=ZpExp(p=3, digits=[2]))",
            {},
            [(ValueError, lambda: SInftyPoint(LaurentSeries.zero(F3, 20), y))]),
        "VadicPoint": (
            lambda: VadicPoint(ctx, y, 1, 3),
            lambda: VadicPoint(ctx, ZpExp(3, (2,)), 0, 0),
            f"VadicPoint(ctx={ctx!r}, neg_y=ZpExp(p=3, digits=[2]), delta=0, zdeg=0)",
            {},
            [(PrecisionError, lambda: VadicPoint(PadicCtx(APoly(F3, (1, 1)), 4),
                                                 ZpExp(3, (2,)), 0, 0)),
             (ValueError, lambda: VadicPoint(ctx, y, 0, -1))]),
        "MzvIndex": (
            lambda: MzvIndex([-1, "2"], "weak"),
            lambda: MzvIndex((3,)),
            "MzvIndex(ns=(3,), mode='strict')",
            {"mode": "strict"},
            [(ValueError, lambda: MzvIndex(())),
             (ValueError, lambda: MzvIndex((1,), "loose"))]),
        "CharsumConfig": (
            lambda: CharsumConfig(3, 2, F3, (((1, 2),),), (FqElem(F3, 1),)),
            lambda: CharsumConfig(3, 1, F3, (), ()),
            f"CharsumConfig(p=3, dim=1, target={F3!r}, maps=(), offsets=(), basis=None)",
            {"basis": None},
            [(ValueError, lambda: CharsumConfig(2, 2, F3, (), ())),
             (ValueError, lambda: CharsumConfig(3, 2, F3, (((1,),),), (FqElem(F3, 1),))),
             (ValueError, lambda: CharsumConfig(3, 1, F3, (((1,), (2,)),),
                                                (FqElem(F3, 1),)))]),
    }


@pytest.mark.parametrize("name", ["TwistFactor", "SInftyPoint", "VadicPoint", "MzvIndex",
                                  "CharsumConfig"])
def test_value_types_compare_hash_print_and_refuse_assignment(name):
    make, make_default, default_repr, defaults, bad_calls = _value_type_cases()[name]
    a, b, other = make(), make(), make_default()
    assert type(a).__name__ == name and a is not b
    assert a == b and hash(a) == hash(b) and not a != b
    assert a != other and other == make_default()
    assert a != tuple(getattr(a, f) for f in type(a).__slots__) and a != None  # noqa: E711
    assert repr(other) == default_repr
    assert {f: getattr(other, f) for f in defaults} == defaults
    assert pickle.loads(pickle.dumps(a)) == a and copy.deepcopy(a) == a
    for field in type(a).__slots__:
        with pytest.raises(AttributeError):
            setattr(a, field, getattr(b, field))
        with pytest.raises(AttributeError):
            delattr(a, field)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == b
    for error, call in bad_calls:
        with pytest.raises(error):
            call()


def test_mzv_index_keeps_its_exponents_as_a_tuple_of_ints():
    idx = MzvIndex([-1, "2", 3.0])
    assert idx.ns == (-1, 2, 3) and all(type(n) is int for n in idx.ns)
    assert idx.depth == 3 and idx == MzvIndex((-1, 2, 3), "strict")
