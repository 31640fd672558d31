import math
import os
import random
import subprocess
import sys

import pytest

from ffzeta import vadic, zeta
from ffzeta._kernels import QuotientKernel, get_kernel
from ffzeta.fields import FieldSpec, ZpExp, least_p_power, lq_digit_sum, poly_powmod
from ffzeta.polyring import APoly, MPoly, enumerate_monic, is_irreducible
from ffzeta.padic import PadicCtx
from ffzeta.seriesinf import LaurentSeries, PrecisionError
from ffzeta.zeta import exact_L, pellarin_L_series, power_sum, _power_sum_window
from ffzeta.oracle import (enumerated_local_power_sum, enumerated_power_sum,
                           enumerated_prime_to_p_power_sum, enumerated_vadic_exact_L,
                           enumerated_vadic_zeta_eval)
from ffzeta.vadic import (VadicPoint, vadic_exact_L, vadic_zeta_eval, mk_sequence,
                          interpolation_gap, interpolation_gap_bound,
                          prime_to_p_power_sum, vadic_degree_bound, _LocalRing, _ThetaRing,
                          _local_ring)

F2 = FieldSpec.default(2)
F3 = FieldSpec.default(3)
TH2 = APoly.theta(F2)
TH3 = APoly.theta(F3)


# -- exact v-adic polynomials -------------------------------------------------


def test_vadic_exact_L_fixtures():
    L0 = vadic_exact_L(F2, 0, 0, TH2)
    assert [(e, c.coeff_codes) for e, c in L0.sorted_terms()] == [((0,), (1,)), ((1,), (1,))]
    L1 = vadic_exact_L(F2, -1, 0, TH2)
    assert [(e, c.coeff_codes) for e, c in L1.sorted_terms()] == \
        [((0,), (1,)), ((1,), (1, 1)), ((2,), (0, 1))]
    with pytest.raises(ValueError):
        vadic_exact_L(F2, 1, 0, TH2)
    with pytest.raises(ValueError):
        vadic_exact_L(F2, 0, 0, APoly(F2, (0, 0, 1)))


def test_euler_factor_identity_exact():
    for spec, Pcs in ((F2, [(0, 1), (1, 1), (1, 1, 1), (1, 1, 0, 1)]),
                      (F3, [(0, 1), (2, 1), (1, 0, 1), (1, 2, 0, 1)])):
        for Pc in Pcs:
            P = APoly(spec, Pc)
            for n in range(-10, 1):
                lhs = vadic_exact_L(spec, n, 0, P)
                factor = MPoly(("z",), {(0,): APoly.one(spec),
                                        (P.degree,): -(P ** (-n))})
                assert lhs == factor * exact_L(spec, n, 0)
                assert lhs == enumerated_vadic_exact_L(spec, n, 0, P)


def test_euler_factor_identity_with_t_variables():
    # the P-divisible part evaluates as (Pb)(t) = P(t) b(t), so the
    # bijection factor picks up prod_i P(t_i):
    # L_P = (1 - P(t_1)...P(t_s) P^(-n) z^dP) L
    for spec, P in ((F2, APoly(F2, (1, 1))), (F3, APoly(F3, (1, 0, 1)))):
        for s in (1, 2):
            names = tuple(f"t{i + 1}" for i in range(s)) + ("z",)
            for n in (0, -1, -2):
                lhs = vadic_exact_L(spec, n, s, P)
                L = exact_L(spec, n, s)
                prod = MPoly.const(names, -(P ** (-n)))
                for i in range(s):
                    terms = {}
                    for j, c in enumerate(P.coeff_codes):
                        if c:
                            exp = [0] * (s + 1)
                            exp[i] = j
                            terms[tuple(exp)] = APoly.constant(spec, c)
                    prod = prod * MPoly(names, terms)
                zexp = (0,) * s + (P.degree,)
                factor = MPoly.const(names, APoly.one(spec)) + \
                    prod * MPoly(names, {zexp: APoly.one(spec)})
                assert lhs == factor * L
                assert lhs == enumerated_vadic_exact_L(spec, n, s, P)


def test_euler_identity_numeric_positive_exponents():
    # coefficientwise: [z^D] L_P = [z^D] L - P^(-n) [z^(D-dP)] L
    prec = 40
    for spec, Pcs in ((F2, [(0, 1), (1, 1, 1)]), (F3, [(0, 1), (1, 0, 1)])):
        for Pc in Pcs:
            P = APoly(spec, Pc)
            dP = P.degree
            for n in (1, 2, 3):
                full = pellarin_L_series(spec, n, 0, 6, prec)
                Pinv = LaurentSeries.from_apoly(P, prec + 10).inverse() ** n
                for D in range(7):
                    restricted = LaurentSeries.zero(spec, prec)
                    for a in enumerate_monic(spec, D):
                        if (a % P).is_zero():
                            continue
                        restricted = restricted + \
                            (LaurentSeries.from_apoly(a, prec + 10).inverse() ** n).truncate(prec)
                    rhs = full.terms.get((D,), LaurentSeries.zero(spec, prec))
                    if D >= dP:
                        shifted = full.terms.get((D - dP,), LaurentSeries.zero(spec, prec))
                        rhs = rhs - Pinv * shifted
                    assert restricted.agrees_with(rhs, prec=min(prec, restricted.prec, rhs.prec))


def test_vadic_degree_bound_observed():
    for spec, Pc in ((F2, (1, 1, 1)), (F3, (0, 1))):
        P = APoly(spec, Pc)
        for n in range(-6, 1):
            for s in (0, 1):
                L = vadic_exact_L(spec, n, s, P)
                bound = vadic_degree_bound(spec, n, s, P.degree)
                assert L.degree_in("z") <= bound
                # the first shell beyond the bound vanishes by enumeration
                if s == 0:
                    shell = APoly.zero(spec)
                    for a in enumerate_monic(spec, bound + 1):
                        if not (a % P).is_zero():
                            shell = shell + a ** (-n)
                    assert shell.is_zero()


# -- v-adic evaluation -----------------------------------------------------------


def test_vadic_zeta_eval_definitional_y0():
    ctx = PadicCtx(TH2, 2)
    ptv = VadicPoint(ctx, ZpExp.from_int(0, 2, 3), 0, 4)
    Z = vadic_zeta_eval(ptv)
    ref = vadic_exact_L(F2, 0, 0, TH2)
    for d in range(5):
        got = Z.terms.get((d,))
        want = ref.terms.get((d,))
        if want is None:
            assert got is None or got.is_zero()
        else:
            assert got == ctx.reduce(want)


def test_vadic_zeta_eval_cross_path():
    # integer exponent y = -n with delta = -n mod q^dP - 1 matches the
    # exact polynomial reduced mod P^k
    cases = [(F2, TH2, 2, 1), (F2, APoly(F2, (1, 1, 1)), 2, 1),
             (F3, TH3, 3, 2), (F3, APoly(F3, (1, 0, 1)), 2, 1)]
    for spec, P, k, n in cases:
        ctx = PadicCtx(P, k)
        order = ctx.residue_order()
        delta = (n % order) if order > 1 else 0
        M = 1
        while spec.p ** M < k:
            M += 1
        ptv = VadicPoint(ctx, ZpExp.from_int(n, spec.p, M + 2), delta,
                         vadic_degree_bound(spec, -n, 0, P.degree) + 1)
        Z = vadic_zeta_eval(ptv)
        ref = vadic_exact_L(spec, -n, 0, P)
        for d in range(ptv.zdeg + 1):
            want = ref.terms.get((d,))
            got = Z.terms.get((d,), ctx.zero())
            assert got == (ctx.reduce(want) if want is not None else ctx.zero())


def test_vadic_zeta_eval_fixture_mod_theta_sq():
    ctx = PadicCtx(TH2, 2)
    ptv = VadicPoint(ctx, ZpExp.from_int(1, 2, 3), 1, 2)
    Z = vadic_zeta_eval(ptv)
    assert [(e, c.rep.coeff_codes) for e, c in Z.sorted_terms()] == \
        [((0,), (1,)), ((1,), (1, 1)), ((2,), (0, 1))]


def test_vadic_zeta_eval_requires_digits():
    ctx = PadicCtx(TH2, 4)
    with pytest.raises(PrecisionError):
        VadicPoint(ctx, ZpExp(2, (1,)), 0, 2)


def test_vadic_coefficient_valuations_grow():
    # entirety: coefficient v_P grows without bound (monotone after dP + 3)
    for spec, P in ((F2, TH2), (F3, TH3)):
        k = 14
        ctx = PadicCtx(P, k)
        rng = random.Random(spec.q)
        digits = [rng.randrange(spec.p) for _ in range(10)]
        ptv = VadicPoint(ctx, ZpExp(spec.p, digits), 1, 7)
        Z = vadic_zeta_eval(ptv)
        vals = []
        for d in range(P.degree + 3, 8):
            coeff = Z.terms.get((d,))
            vals.append(coeff.vP() if coeff is not None else k)
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert vals[-1] > vals[0] or vals[0] >= k


def _prime(spec, deg):
    """The first monic irreducible of degree deg with a nonzero constant."""
    return next(P for P in enumerate_monic(spec, deg) if P.coeff_codes[0] and is_irreducible(P))


FINITE_PLACES = [(q, dP) for q in (2, 3, 4, 5, 9) for dP in (1, 2)]


@pytest.mark.parametrize("q, dP", FINITE_PLACES, ids=str)
def test_vadic_zeta_eval_matches_the_per_monic_oracle(q, dP, monkeypatch):
    # one Teichmuller lift per residue class gives the values of one lift,
    # inverse and omega^delta per monic, and lifts at most q^dP - 1 times;
    # a degree-one place lifts nothing
    spec = FieldSpec.default(q)
    P = _prime(spec, dP)
    rng = random.Random(q * 10 + dP)
    lifts = []
    lift = vadic.teichmuller
    monkeypatch.setattr(vadic, "teichmuller", lambda a, ctx: lifts.append(a) or lift(a, ctx))
    for k in (1, 2, 4):
        ctx = PadicCtx(P, k)
        order = ctx.residue_order()
        neg_y = ZpExp(spec.p, [rng.randrange(spec.p) for _ in range(4)])
        zdeg = min(k * dP, max(d for d in range(9) if q ** d <= 128))
        for delta in (0, rng.randrange(1, order) if order > 1 else 1):
            ptv = VadicPoint(ctx, neg_y, delta, zdeg)
            lifts.clear()
            got = vadic_zeta_eval(ptv)
            if dP == 1:
                assert not lifts  # one integer exponent, no lift at all
            else:
                assert 0 < len(lifts) <= q ** dP - 1
            assert got == enumerated_vadic_zeta_eval(ptv), (k, delta, zdeg)


# degree-one evaluations at P = theta - c, c != 0, recorded with one
# Teichmuller lift per residue class and one one-unit power per monic,
# before degree one was taken from one integer exponent at theta
EVAL_TRANSLATES = [  # (q, c, k, delta, digits of -y, codes of z^0..z^zdeg)
    (2, 1, 1, 0, (0,), ((1,), (1,), (), (), (), (), (), (), ())),
    (2, 1, 1, 1, (1, 0), ((1,), (1,), (), (), (), (), (), (), ())),
    (2, 1, 1, 20, (1,), ((1,), (1,), (), (), (), (), (), (), ())),
    (2, 1, 2, 0, (1, 0), ((1,), (0, 1), (1, 1), (), (), (), (), (), ())),
    (2, 1, 2, 1, (1, 1, 1), ((1,), (0, 1), (1, 1), (), (), (), (), (), ())),
    (2, 1, 2, 18, (0, 0, 0), ((1,), (1,), (), (), (), (), (), (), ())),
    (2, 1, 4, 0, (0, 1, 0), ((1,), (0, 0, 1), (1, 0, 1), (), (), (), (), (), ())),
    (2, 1, 4, 1, (0, 0, 0, 1), ((1,), (1,), (), (), (), (), (), (), ())),
    (2, 1, 4, 8, (1, 1, 0), ((1,), (0, 0, 0, 1), (1, 0, 0, 1), (), (), (), (), (), ())),
    (2, 1, 6, 0, (0, 0, 0, 1, 1, 1), ((1,), (1,), (), (), (), (), (), (), ())),
    (2, 1, 6, 1, (0, 1, 0, 1, 1, 0), ((1,), (0, 0, 1), (1, 0, 1), (), (), (), (), (), ())),
    (2, 1, 6, 22, (1, 0, 1, 0, 1), ((1,), (0, 0, 0, 0, 0, 1), (1, 0, 0, 0, 0, 1), (), (), (), (), (), ())),
    (3, 2, 1, 0, (0, 1), ((1,), (2,), (), (), (), ())),
    (3, 1, 1, 1, (2, 0), ((1,), (), (), (), (), ())),
    (3, 2, 1, 10, (0, 0, 1), ((1,), (2,), (), (), (), ())),
    (3, 2, 2, 0, (1, 1, 2, 0), ((1,), (2,), (), (), (), ())),
    (3, 1, 2, 1, (1, 2, 0, 1), ((1,), (1, 2), (), (), (), ())),
    (3, 1, 2, 21, (0, 2, 2), ((1,), (), (), (), (), ())),
    (3, 1, 4, 0, (0, 1, 0), ((1,), (2,), (), (), (), ())),
    (3, 2, 4, 1, (1, 0, 1, 0), ((1,), (2, 2), (), (), (), ())),
    (3, 1, 4, 25, (2, 0, 2, 0), ((1,), (2, 1), (), (), (), ())),
    (3, 2, 6, 0, (0, 0), ((1,), (2,), (), (), (), ())),
    (3, 2, 6, 1, (1, 0, 0), ((1,), (2, 2), (), (), (), ())),
    (3, 2, 6, 22, (1, 2), ((1,), (0, 1, 0, 1, 1), (2, 2, 0, 2, 2), (), (), ())),
    (4, 3, 1, 0, (1, 0, 1, 1), ((1,), (1,), (), (), ())),
    (4, 2, 1, 2, (0,), ((1,), (), (), (), ())),
    (4, 1, 1, 39, (0, 0), ((1,), (1,), (), (), ())),
    (4, 3, 2, 0, (0, 1, 0), ((1,), (1,), (), (), ())),
    (4, 3, 2, 2, (1, 0, 0, 1), ((1,), (), (), (), ())),
    (4, 3, 2, 41, (0,), ((1,), (), (), (), ())),
    (4, 2, 4, 0, (1, 1, 0), ((1,), (0, 3, 2, 1), (1, 3, 2, 1), (), ())),
    (4, 1, 4, 1, (0, 0, 1, 1), ((1,), (), (), (), ())),
    (4, 1, 4, 12, (1, 0, 0), ((1,), (1,), (), (), ())),
    (4, 2, 6, 0, (0, 0, 0, 1, 0, 0), ((1,), (1,), (), (), ())),
    (4, 1, 6, 1, (1, 0, 1, 0, 0, 0), ((1,), (0, 1, 0, 0, 1), (), (), ())),
    (4, 1, 6, 29, (1, 0, 0, 0, 1, 0), ((1,), (), (), (), ())),
    (5, 3, 1, 0, (1,), ((1,), (4,), (), ())),
    (5, 4, 1, 2, (1, 4), ((1,), (), (), ())),
    (5, 2, 1, 27, (0, 3), ((1,), (), (), ())),
    (5, 2, 2, 0, (0,), ((1,), (4,), (), ())),
    (5, 4, 2, 1, (2,), ((1,), (3, 3), (), ())),
    (5, 4, 2, 17, (2, 3, 2), ((1,), (3, 3), (), ())),
    (5, 2, 4, 0, (4,), ((1,), (4,), (), ())),
    (5, 2, 4, 1, (0, 4, 2, 2), ((1,), (), (), ())),
    (5, 1, 4, 39, (0, 0, 3, 0), ((1,), (), (), ())),
    (5, 4, 6, 0, (4, 4, 3), ((1,), (3, 1, 4, 1, 4), (1, 4, 1, 4, 1), ())),
    (5, 2, 6, 3, (2, 3, 1, 4), ((1,), (), (), ())),
    (5, 2, 6, 8, (1, 4, 3), ((1,), (4,), (), ())),
    (9, 7, 1, 0, (2,), ((1,), (2,), ())),
    (9, 1, 1, 3, (0,), ((1,), (), ())),
    (9, 5, 1, 13, (2, 1, 1), ((1,), (), ())),
    (9, 6, 2, 0, (0, 2, 1), ((1,), (2,), ())),
    (9, 2, 2, 2, (1, 2, 2, 2), ((1,), (), ())),
    (9, 4, 2, 31, (2,), ((1,), (), ())),
    (9, 3, 4, 0, (1, 0, 0, 2), ((1,), (2,), ())),
    (9, 1, 4, 2, (2, 2, 2, 2, 1), ((1,), (2, 2, 2), ())),
    (9, 5, 4, 13, (2, 2, 2, 1, 2), ((1,), (), ())),
    (9, 6, 6, 0, (2, 1, 1, 1, 2), ((1,), (2,), ())),
    (9, 5, 6, 3, (1, 1), ((1,), (8, 0, 0, 2), ())),
    (9, 3, 6, 19, (0, 1, 2, 1), ((1,), (6, 0, 0, 2), ())),
]


@pytest.mark.parametrize("case", EVAL_TRANSLATES, ids=str)
def test_degree_one_eval_is_pinned_at_translates(case):
    q, c, k, delta, digits, want = case
    spec = FieldSpec.default(q)
    ctx = PadicCtx(APoly(spec, (spec.neg_code(c), 1)), k)
    Z = vadic_zeta_eval(VadicPoint(ctx, ZpExp(spec.p, digits), delta, len(want) - 1))
    got = tuple(Z.terms[(d,)].rep.coeff_codes if (d,) in Z.terms else () for d in range(len(want)))
    assert got == want


@pytest.mark.parametrize("q", (2, 3, 4, 5, 7, 8, 9))
def test_degree_one_eval_matches_the_oracle_at_random_points(q):
    spec = FieldSpec.default(q)
    p = spec.p
    rng = random.Random(100 + q)
    for c in range(q):
        ctx = PadicCtx(APoly(spec, (spec.neg_code(c), 1)), rng.randrange(1, 9))
        M = 1
        while p ** M < ctx.k:
            M += 1
        for _ in range(3):
            neg_y = ZpExp(p, [rng.randrange(p) for _ in range(M + rng.randrange(4))])
            zdeg = rng.randrange(max(d for d in range(9) if q ** d <= 64) + 1)
            ptv = VadicPoint(ctx, neg_y, rng.randrange(-20, 40), zdeg)
            assert vadic_zeta_eval(ptv) == enumerated_vadic_zeta_eval(ptv), \
                (c, ctx.k, neg_y.digits, ptv.delta, zdeg)


def test_degree_one_eval_past_the_per_monic_sizes():
    # 2^12 monics in the top shell; for y = -n the values are the exact
    # prime-to-P polynomial mod P^k, and its shells 4..11 vanish there
    P, k, n = APoly(F2, (1, 1)), 8, 1919
    ctx = PadicCtx(P, k)
    zdeg = vadic_degree_bound(F2, -n, 0, 1) + 1
    assert zdeg >= 12
    Z = vadic_zeta_eval(VadicPoint(ctx, ZpExp.from_int(n, 2, 11), 0, zdeg))
    ref = vadic_exact_L(F2, -n, 0, P)
    want = {e: ctx.reduce(c) for e, c in ref.terms.items() if ctx.reduce(c)}
    assert Z.terms == want
    assert max(d for (d,) in want) < 4 < ref.degree_in("z")


def test_degree_one_eval_past_the_packed_kernel_lifts_each_residue():
    # at p = 257 the theta ring has 32-bit digits; the oracle lifts every
    # monic's Teichmuller part itself
    spec = FieldSpec(257, (0, 1))
    rng = random.Random(257)
    cases = [(3, 2, (5, 0), 5, 1)] + [(rng.randrange(257), k, [rng.randrange(257)] * k,
                                      rng.randrange(-300, 300), 1) for k in (1, 2, 3)]
    for c, k, digits, delta, zdeg in cases:
        ptv = VadicPoint(PadicCtx(APoly(spec, (spec.neg_code(c), 1)), k), ZpExp(257, digits),
                         delta, zdeg)
        assert vadic_zeta_eval(ptv) == enumerated_vadic_zeta_eval(ptv), (c, k, digits, delta)


@pytest.mark.parametrize("p", (257, 263, 1021))
def test_power_sums_past_p_251_match_enumeration(p):
    # enumeration takes up to p - 1 kernel products per base-p digit of n,
    # so it sees small digits only; S_1(q - 1) = -1 for every q
    spec = FieldSpec(p, (0, 1))
    P = APoly(spec, (spec.neg_code(3), 1))
    assert power_sum(spec, 1, p - 1) == APoly.constant(spec, p - 1)
    for d, n in ((0, 0), (1, 1), (1, 2 * p + 1)):
        assert power_sum(spec, d, n) == enumerated_power_sum(spec, d, n), (d, n)
    for n in (1, p + 1):
        for s in (0, 1):
            assert vadic_exact_L(spec, -n, s, P) == enumerated_vadic_exact_L(spec, -n, s, P)
    assert interpolation_gap(spec, (-2, 1), P, 0) >= interpolation_gap_bound(spec, (-2, 1), 1, 0)


TOWER = FieldSpec.extension(FieldSpec.default(4), (2, 1, 1))  # x^2 + x + xi over F_4


@pytest.mark.parametrize("dP", (2, 3))
@pytest.mark.parametrize("spec", [FieldSpec.default(q) for q in (2, 3, 4, 5, 9)] + [TOWER],
                         ids=["2", "3", "4", "5", "9", "4^2"])
def test_closed_form_sums_match_the_per_unit_oracle(spec, dP):
    # Carlitz's closed form against one inverse per unit, exponent and raw
    # value, both sides of the Euler split; n > q takes the recurrence's
    # higher coefficients
    q = spec.q
    rng = random.Random(q * 10 + dP)
    while not is_irreducible(P := APoly(spec, [rng.randrange(1, q)]
                                        + [rng.randrange(q) for _ in range(dP - 1)] + [1])):
        pass
    for kappa in (1, 2, 17):
        ring = _LocalRing(spec, P, kappa)
        # the oracle inverts every unit on code lists, so at kappa = 17 the
        # shells stop at 64 monics; the widest at an n > q, then a random one
        degrees = [d for d in range(5) if q ** d <= (64 if kappa > 2 else 256)]
        for d, n in ((degrees[-1], rng.choice((q + 1, 2 * q + 1))),
                     (rng.choice(degrees), rng.choice((1, 2, q, q + 1, 2 * q + 1)))):
            for prime_to_p in (False, True):
                got = ring.local_power_sum(d, n, prime_to_p)
                exp, want = enumerated_local_power_sum(spec, P, kappa, d, n, prime_to_p)
                case = (kappa, d, n, prime_to_p)
                assert got.exp == exp == -n * (0 if prime_to_p else d // dP), case
                assert APoly(spec, ring.kernel.to_codes(got.raw)) == want, case


@pytest.mark.parametrize("q, P, kappa", [(2, (1, 1, 1), 5), (3, (1, 0, 1), 3)])
def test_prime_to_p_sums_take_n_mod_the_unit_group_exponent(monkeypatch, q, P, kappa):
    # the terms prime to P are units of A/(P^kappa), whose group has
    # exponent E = (Q - 1) p^t, p^t >= kappa least: n and n + E give the same
    # sum, and the closed form runs no further than E steps
    spec = FieldSpec.default(q)
    P = APoly(spec, P)
    E = (q ** P.degree - 1) * least_p_power(spec.p, kappa)
    raw_sum, asked = vadic._CarlitzSums.raw_sum, []

    def recorded(self, d, n):
        asked.append(n)
        return raw_sum(self, d, n)

    monkeypatch.setattr(vadic._CarlitzSums, "raw_sum", recorded)
    ring = _LocalRing(spec, P, kappa)
    for d in range(4):
        for n in (1, 5, E):
            sums = [ring.local_power_sum(d, n + i * E, True) for i in range(3)]
            exp, want = enumerated_local_power_sum(spec, P, kappa, d, n + E, True)
            for got in sums:
                assert got.exp == exp == 0, (d, n)
                assert APoly(spec, ring.kernel.to_codes(got.raw)) == want, (d, n)
    assert max(asked) == E


def test_closed_form_inverts_one_unit_per_degree(monkeypatch):
    # no unit of a shell is inverted: the tables invert w_j once for each
    # j <= d, however many units the shells hold
    inverse = QuotientKernel.inverse
    calls = []

    def counted(self, *args, **kwargs):
        calls.append(args)
        return inverse(self, *args, **kwargs)

    monkeypatch.setattr(QuotientKernel, "inverse", counted)
    ring = _LocalRing(F3, APoly(F3, (1, 0, 1)), 9)
    for d in range(6):
        for n in (1, 2, 4):
            for prime_to_p in (False, True):
                ring.local_power_sum(d, n, prime_to_p)
    assert len(calls) == 5


def test_a_non_integral_prime_to_p_sum_raises(monkeypatch):
    # the unit part of theta^q - theta off by a constant factor breaks the
    # cancellation of the Euler split, which must raise, not return
    split = vadic._CarlitzSums.split

    def off(self, j):
        e, w = split(self, j)
        return e, w.scale_code(2) if j == 1 else w

    monkeypatch.setattr(vadic._CarlitzSums, "split", off)
    ring = _LocalRing(F3, APoly(F3, (1, 0, 1)), 5)
    assert ring.local_power_sum(1, 1, True).exp == 0  # d < deg P: nothing cancels
    with pytest.raises(ArithmeticError, match="not integral"):
        ring.local_power_sum(2, 1, True)


# -- interpolation sequence -------------------------------------------------------


def test_mk_sequence_fixtures():
    assert mk_sequence(0, 0, 1, 2) == -2
    mk = mk_sequence(-5, 1, 1, 3)
    assert mk == -23
    # all four conditions, re-checked here for a sample of targets
    for q, dP in ((2, 1), (2, 2), (3, 1), (3, 2)):
        for k in range(4):
            for n1 in range(-6, 7):
                m = mk_sequence(n1, k, dP, q)
                neg = -m
                assert (neg + n1) % q ** (k + 1) == 0
                if q ** dP > 2:
                    assert (neg + n1) % (q ** dP - 1) == 0
                assert lq_digit_sum(neg, q) <= (k + 1 + dP) * (q - 1)
                assert neg >= q ** (k + 1)


def test_mk_sequence_zpexp_input():
    y = ZpExp.from_int(5, 2, 6)  # digits of -n_1 = 5, so n_1 = -5
    assert mk_sequence(y, 1, 1, 2) == mk_sequence(-5, 1, 1, 2)
    with pytest.raises(PrecisionError):
        mk_sequence(ZpExp(2, (1,)), 3, 1, 2)


def test_mk_sequence_check_raises_even_under_optimize(monkeypatch):
    from ffzeta import vadic
    monkeypatch.setattr(vadic, "lq_digit_sum", lambda n, q: 10 ** 9)
    with pytest.raises(ArithmeticError, match=r"\(iii\)"):
        mk_sequence(-5, 1, 1, 3)
    # the same check with asserts stripped
    script = ("from ffzeta import vadic\n"
              "vadic.lq_digit_sum = lambda n, q: 10 ** 9\n"
              "try:\n"
              "    vadic.mk_sequence(-5, 1, 1, 3)\n"
              "except ArithmeticError:\n"
              "    print('raised')\n")
    src = os.path.dirname(os.path.dirname(vadic.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "raised"


def test_mk_digit_sums_can_exceed_the_naive_cap():
    # lq(-m_k) genuinely needs the k+1+dP allowance: with all prefix
    # digits nonzero no admissible m_k stays within (k+dP)(q-1)
    mk = mk_sequence(1, 1, 1, 2)   # -n_1 = -1, prefix digits all ones
    assert lq_digit_sum(-mk, 2) == 3 > (1 + 1) * 1


def test_power_sum_mod_matches_exact():
    for spec, P in ((F2, TH2), (F3, APoly(F3, (1, 0, 1)))):
        ring = _LocalRing(spec, P, 6)
        mod = P ** 6
        for d in range(4):
            for n in (0, 1, 3, 7, 12):
                got = ring.reduced_power_sum(d, n)
                got_poly = APoly(spec, ring.kernel.to_codes(ring.kernel.normalize(got)))
                assert got_poly == power_sum(spec, d, n) % mod


def test_local_ring_reduces_operands_past_the_barrett_range():
    P = APoly(F3, (1, 0, 1))
    ring = _LocalRing(F3, P, 3)
    a = APoly(F3, [(i * i + 1) % 3 for i in range(3 * ring.qk.N)])
    raw = ring.from_apoly(a).raw
    assert APoly(F3, ring.kernel.to_codes(raw)) == a % P ** 3


def test_mk_limit_stabilizes_vadic_values():
    # the v-adic series coefficients agree with the m_k polynomial route
    # to q^(k+1) digits, so growing k realizes the interpolation limit
    for spec, P in ((F2, TH2), (F3, TH3)):
        p, q = spec.p, spec.q
        for n1 in (1, 2):
            order = q ** P.degree - 1
            for k in (0, 1, 2):
                mk = mk_sequence(n1, k, P.degree, q)
                agree = q ** (k + 1)
                K = agree + 3
                M = 1
                while p ** M < K:
                    M += 1
                ctx = PadicCtx(P, K)
                # the target is a^(-n1) = omega^(-n1) <a>^(-n1)
                ptv = VadicPoint(ctx, ZpExp.from_int(-n1, p, M + 4),
                                 ((-n1) % order) if order > 1 else 0,
                                 k + P.degree + 1)
                Z = vadic_zeta_eval(ptv)
                for d in range(k + P.degree + 2):
                    poly_coeff = ctx.reduce(power_sum(spec, d, -mk))
                    got = Z.terms.get((d,), ctx.zero())
                    assert (got - poly_coeff).vP() >= agree, (spec.q, n1, k, d)


def test_interpolation_gap_examples():
    g = interpolation_gap(F2, (1,), TH2, 1)
    assert g >= 4  # q^(k+1) with empty subtrahend term
    g2 = interpolation_gap(F2, (1, -1), TH2, 1)
    assert g2 >= interpolation_gap_bound(F2, (1, -1), 1, 1) == 4 - 1 * 2
    # exact case: m_k admissible for n_1 <= 0 can make the difference vanish
    g3 = interpolation_gap(F2, (-2,), TH2, 0)
    assert g3 >= 2


def test_interpolation_gap_infinite_when_difference_empty():
    # by construction -m_k != -n_1 as integers; measured gaps are finite
    # in general but always certified, and inf is the exact-difference flag
    g = interpolation_gap(F2, (0,), TH2, 1)
    assert g == math.inf or g >= 4


GAP_VECTORS = ((1, 1, 1), (2, -1, 1), (1, -2, -1), (-3, 1, 2), (3, 2, -1), (-1, -1, -1),
               (2, 1, 0), (1, 3, -2))
INF = math.inf
# (q, P, k) -> measured gaps over GAP_VECTORS, recorded with the per-chain
# tables that interpolation_gap had before polyring.chain_sum; the q = 4
# and q = 5 cells with the products of the tables, before the (min, +) sum
GAP_VALUES = {
    (2, (0, 1), 0): [2, 2, 3, 2, 0, 2, 1, 0],
    (2, (0, 1), 1): [5, 6, 7, 2, 2, 4, 5, 2],
    (2, (1, 1, 1), 0): [1, 2, 2, 2, 4, 4, 2, -1],
    (2, (1, 1, 1), 1): [4, 4, 4, 15, 4, 16, 3, 2],
    (3, (0, 1), 0): [5, INF, 6, INF, 16, INF, 3, 3],
    (3, (0, 1), 1): [11, INF, 12, INF, 16, INF, 9, 9],
    (3, (1, 0, 1), 0): [5, INF, 5, 3, 6, INF, 4, 4],
    (3, (1, 0, 1), 1): [10, INF, 10, INF, 15, INF, 9, 10],
    (4, (0, 1), 0): [12, INF, INF, 5, 7, INF, 25, 10],
    (5, (2, 1), 0): [21, INF, INF, INF, 16, INF, 19, 19],
}


@pytest.mark.parametrize("cell", sorted(GAP_VALUES), ids=str)
def test_interpolation_gap_values_at_depth_three(cell):
    q, Pc, k = cell
    spec = FieldSpec.default(q)
    P = APoly(spec, Pc)
    got = [interpolation_gap(spec, ns, P, k) for ns in GAP_VECTORS]
    assert got == GAP_VALUES[cell]
    assert all(g >= interpolation_gap_bound(spec, ns, P.degree, k)
               for g, ns in zip(got, GAP_VECTORS))


# (q, k) -> gaps over GAP_VECTORS at P = theta - c, the same row for every c
# in F_q; recorded with the quotient-ring tables at each P, before the
# degree-one gaps were taken at theta
GAP_TRANSLATES = {
    (2, 0): [2, 2, 3, 2, 0, 2, 1, 0],
    (2, 1): [5, 6, 7, 2, 2, 4, 5, 2],
    (2, 2): [13, 14, 15, 6, 10, 8, 13, 10],
    (3, 0): [5, INF, 6, INF, 16, INF, 3, 3],
    (3, 1): [11, INF, 12, INF, 16, INF, 9, 9],
    (3, 2): [29, INF, 30, INF, 34, INF, 27, 27],
    (4, 0): [12, INF, INF, 5, 7, INF, 25, 10],
    (4, 1): [24, INF, INF, 17, 19, INF, 25, 22],
    (5, 0): [21, INF, INF, INF, 16, INF, 19, 19],
    (5, 1): [41, INF, INF, INF, 36, INF, 39, 39],
    (9, 0): [INF] * 8,
}


@pytest.mark.parametrize("cell", sorted(GAP_TRANSLATES), ids=str)
def test_degree_one_gaps_are_pinned_at_every_translate(cell):
    q, k = cell
    spec = FieldSpec.default(q)
    for c in range(q):
        P = APoly(spec, (spec.neg_code(c), 1))
        assert [interpolation_gap(spec, ns, P, k) for ns in GAP_VECTORS] == GAP_TRANSLATES[cell], c


def test_degree_one_gaps_build_no_quotient_kernel(monkeypatch):
    def refuse(*args):
        raise AssertionError("a degree-one gap built a quotient kernel")

    monkeypatch.setattr(vadic, "QuotientKernel", refuse)
    _local_ring.cache_clear()
    P = APoly(F3, (1, 1))
    assert interpolation_gap(F3, GAP_VECTORS[0], P, 1) == GAP_TRANSLATES[(3, 1)][0]


def _translate(spec, codes, c):
    """f(theta - c) for the polynomial f with these codes."""
    acc = APoly.zero(spec)
    for code in reversed(codes):
        acc = acc * APoly(spec, (spec.neg_code(c), 1)) + APoly.constant(spec, code)
    return acc


@pytest.mark.parametrize("q", (2, 3, 4, 5, 9))
def test_theta_ring_tables_are_the_general_tables_translated(q):
    # theta -> theta + c maps each table at theta - c, taken in the general
    # ring, to the table at theta: same exponent and valuation, and the
    # values agree after the substitution theta -> theta - c
    spec = FieldSpec.default(q)
    for kappa in (1, 3, 8):
        theta_ring = _ThetaRing(spec, kappa)
        kernel = theta_ring.kernel
        for c in range(q):
            P = APoly(spec, (spec.neg_code(c), 1))
            ring, mod = _LocalRing(spec, P, kappa), P ** kappa
            for d in range(4 if q <= 5 else 3):
                for n in (-9, -4, -1, 0, 1, 2, 5, 11):
                    for prime_to_p in (False, True):
                        got = theta_ring.local_power_sum(d, n, prime_to_p)
                        want = ring.local_power_sum(d, n, prime_to_p)
                        case = (kappa, c, d, n, prime_to_p)
                        assert got.exp == want.exp, case
                        assert got.valuation() == want.valuation(), case
                        assert _translate(spec, kernel.to_codes(got.raw), c) % mod == \
                            APoly(spec, kernel.to_codes(want.raw)), case


@pytest.mark.parametrize("q", (2, 3, 4, 5, 9))
def test_theta_window_matches_the_enumerated_power_sum(q, monkeypatch):
    spec = FieldSpec.default(q)
    kernel = get_kernel(spec)
    rng = random.Random(q)
    for L in (1, 2, 5, 9):
        monkeypatch.setattr(zeta, "_windows_by_spec", {})  # a fresh memo per window
        for d in (d for d in range(4) if q ** d <= 125):
            for n in sorted(rng.sample(range(200), 12)):
                want = enumerated_power_sum(spec, d, n).coeff_codes[:L]
                assert APoly(spec, kernel.to_codes(_power_sum_window(spec, d, n, L))) == \
                    APoly(spec, want), (L, d, n)


def test_theta_window_matches_power_sum_at_large_exponents(monkeypatch):
    # only the base-p digits of n below the window are walked; the digits
    # here are sparse so that the exact power sums stay cheap
    rng = random.Random(9)
    for spec, top in ((F3, 9), (F2, 14)):
        for _ in range(10):
            n = sum(rng.randrange(1, spec.p) * spec.p ** i for i in rng.sample(range(top), 4))
            for d in (1, 2, 3):
                exact = power_sum(spec, d, n).coeff_codes
                for L in (1, 4, 9, 20):
                    monkeypatch.setattr(zeta, "_windows_by_spec", {})
                    got = get_kernel(spec).to_codes(_power_sum_window(spec, d, n, L))
                    assert APoly(spec, got) == APoly(spec, exact[:L]), (spec.q, n, d, L)


def test_theta_window_memo_keeps_the_widest_window(monkeypatch):
    # both ends: the bottom window of the theta ring and the top one of the shells
    n = 3 ** 7 - 5
    for top in (False, True):
        memo = {}
        widest = {}
        for d, L in ((2, 4), (2, 25), (2, 7), (3, 30), (3, 1), (2, 30)):
            monkeypatch.setattr(zeta, "_windows_by_spec", {})
            fresh = _power_sum_window(F3, d, n, L, top)
            monkeypatch.setattr(zeta, "_windows_by_spec", memo)
            assert _power_sum_window(F3, d, n, L, top) == fresh, (top, d, L)
            widest[d] = max(widest.get(d, 0), L)
            assert memo[(F3._key(), top)][(d, n)][0] == widest[d]


def test_local_ring_arithmetic():
    # the gap's shell tables at P = theta: theta^-2 + (theta+1)^-2 and,
    # prime to P, (theta+1)^-2 alone
    ring = _LocalRing(F2, TH2, 8)
    a = ring.from_apoly(APoly(F2, (1, 1)))
    b = ring.local_power_sum(1, 2, False)
    assert b.valuation() == -2
    s = a + (-a)
    assert s.valuation() is None
    # (theta + 1)^-2 * (theta+1)^2 = 1
    c = ring.local_power_sum(1, 2, True)
    d = ring.from_apoly(APoly(F2, (1, 1)) ** 2)
    assert c.exp == d.exp == 0
    assert ring.kernel.to_codes(ring.qk.mul(c.raw, d.raw)) == (1,)
    # n <= 0: S_1(1) = theta + (theta + 1) = 1, and theta + 1 prime to P
    one = ring.from_apoly(APoly.one(F2))
    assert (ring.local_power_sum(1, -1, False) + (-one)).valuation() is None
    assert (ring.local_power_sum(1, -1, True) + (-a)).valuation() is None


F4, F5 = FieldSpec.default(4), FieldSpec.default(5)


@pytest.mark.parametrize("spec, P", [(F2, TH2), (F2, APoly(F2, (1, 1, 1))),
                                     (F3, APoly(F3, (1, 1))), (F3, APoly(F3, (1, 0, 1))),
                                     (F3, TH3), (F4, APoly.theta(F4)), (F5, APoly.theta(F5))],
                         ids=str)
def test_local_power_sum_matches_a_per_monic_sum(spec, P):
    # a = P^v u, u^-1 = u^(|units| - 1) mod P^kappa, summed monic by monic;
    # at P = theta both the general ring and the theta ring
    kappa = 5
    mod = P ** kappa
    units = (spec.q ** P.degree - 1) * spec.q ** (P.degree * (kappa - 1))
    rings = [_LocalRing(spec, P, kappa)]
    if P == APoly.theta(spec):
        rings.append(_ThetaRing(spec, kappa))
    for d in range(5):
        split = []
        for a in enumerate_monic(spec, d):
            v = 0
            while (a % P).is_zero():
                a, v = a // P, v + 1
            inv = APoly(spec, poly_powmod(spec, list(a.coeff_codes), units - 1,
                                          list(mod.coeff_codes)))
            split.append((v, inv))
        for n in (1, 2, 5):
            for prime_to_p in (False, True):
                rows = [(v, inv) for v, inv in split if v == 0 or not prime_to_p]
                top = max(v for v, _ in rows) if rows else 0
                want = APoly.zero(spec)
                for v, inv in rows:
                    want = want + P ** ((top - v) * n) * inv ** n
                for ring in rings:
                    got = ring.local_power_sum(d, n, prime_to_p)
                    case = (type(ring).__name__, d, n, prime_to_p)
                    assert got.exp == -top * n, case
                    assert APoly(spec, ring.kernel.to_codes(got.raw)) == want % mod, case


def test_local_rings_are_bounded():
    for kappa in range(1, 71):
        _local_ring(F2, TH2, kappa)
    assert _local_ring.cache_info().currsize <= 64


def test_prime_to_p_power_sum_bijection_identity():
    # splitting off the P-divisible part: S_d = Sv_d + P^n S_(d-dP)
    for spec, P in ((F2, TH2), (F2, APoly(F2, (1, 1, 1))), (F3, TH3)):
        dP = P.degree
        for d in range(0, 5):
            for n in range(0, 5):
                full = power_sum(spec, d, n)
                sv = prime_to_p_power_sum(spec, d, n, P)
                divisible = (P ** n) * power_sum(spec, d - dP, n) if d >= dP \
                    else APoly.zero(spec)
                assert full == sv + divisible
                assert sv == enumerated_prime_to_p_power_sum(spec, d, n, P)


def test_prime_to_p_power_sum_over_a_tower_matches_enumeration():
    # F_4[x]/(x^2 + x + xi): P^n S is formed on the packed kernel, whose
    # plane products must follow the tower's own multiplication table
    tower = FieldSpec.extension(FieldSpec.default(4), (2, 1, 1))
    P = APoly(tower, (5, 1))  # theta + 5
    for d in (1, 2):
        for n in range(0, 17):
            assert prime_to_p_power_sum(tower, d, n, P) == \
                enumerated_prime_to_p_power_sum(tower, d, n, P), (d, n)
    for n in range(0, 4):
        assert vadic_exact_L(tower, -n, 0, P) == enumerated_vadic_exact_L(tower, -n, 0, P), n
