"""Infinite-place shells from the power-sum recursion against enumeration.

The library computes c_d = sum_a <a>^N as pi^(dN) S_d(N), the numeric
multiple zeta shells sum_a a^(-n) as pi^(d p^M) S_d(p^M - n) and the
Pellarin shells sum_a a(t_1)...a(t_s) a^(-n) from the t-shell of A at
exponent p^M - n; `oracle.py` sums the same shells one monic polynomial
at a time.
"""

import itertools
import math
import random

import pytest

from ffzeta import zeta
from ffzeta._kernels import get_kernel
from ffzeta.fields import FieldSpec, ZpExp, least_p_power
from ffzeta.mzv import MzvIndex, mzv_eval_inf
from ffzeta.oracle import enumerated_bracket_shell, enumerated_exact_L, enumerated_inverse_shell
from ffzeta.polyring import APoly
from ffzeta.seriesinf import LaurentSeries, PrecisionError
from ffzeta.zeta import (SInftyPoint, goss_zeta_eval, infty_coeff_valuation_bound,
                         pellarin_L_series, shell_sum)

FIELDS = [FieldSpec.default(q) for q in (2, 3, 4, 5, 9)]
PRECS = (1, 6, 20, 80)


def _min_digits(p, prec):
    m = 1
    while p ** m < prec:
        m += 1
    return m


def _exponents(rng, p, prec):
    """Random digits, all digits p - 1, and more digits than prec needs."""
    m = _min_digits(p, prec)
    return (ZpExp(p, [rng.randrange(p) for _ in range(m)]),
            ZpExp(p, [p - 1] * m),
            ZpExp(p, [rng.randrange(p) for _ in range(m + 5)]))


def _degrees(q, budget):
    """Shell degrees whose q^d monics the oracle can afford."""
    d = 0
    while q ** d <= budget:
        yield d
        d += 1


@pytest.mark.parametrize("spec", FIELDS, ids=lambda s: f"q{s.q}")
def test_bracket_shells_match_enumeration(spec):
    rng = random.Random(spec.q)
    for prec in PRECS:
        big = least_p_power(spec.p, prec)
        for y in _exponents(rng, spec.p, prec):
            N = y.as_int() % big
            for d in _degrees(spec.q, 300):
                assert shell_sum(spec, d, N, d * N, prec) == \
                    enumerated_bracket_shell(spec, d, y, prec), (prec, y.digits, d)


@pytest.mark.parametrize("spec", FIELDS, ids=lambda s: f"q{s.q}")
def test_inverse_power_shells_match_enumeration(spec):
    for prec in PRECS:
        for n in (1, 2, spec.q, 7, prec, prec + 3):
            big = least_p_power(spec.p, max(prec, n))
            for d in _degrees(spec.q, 100):
                assert shell_sum(spec, d, big - n, d * big, prec) == \
                    enumerated_inverse_shell(spec, d, n, prec)[()], (prec, n, d)


@pytest.mark.parametrize("spec", FIELDS, ids=lambda s: f"q{s.q}")
def test_pellarin_series_matches_enumerated_shells(spec):
    # every (t, z) coefficient against per-monic inversion; a zero one must be absent
    for s in (0, 1, 2):
        zdeg = max(_degrees(spec.q, 100))
        for prec in (5, 12):
            for n in (1, 2, spec.q + 1, prec + 3):
                expected = {js + (d,): c for d in range(zdeg + 1) for js, c in
                            enumerated_inverse_shell(spec, d, n, prec, s).items() if c}
                assert pellarin_L_series(spec, n, s, zdeg, prec).terms == expected, (s, prec, n)


@pytest.mark.parametrize("p", (257, 263, 1021))
def test_pellarin_series_past_p_251_matches_enumerated_shells(p):
    # (n, s, zdeg, prec).  At p = 257 the t-shell of n = 1 sits at exponent
    # p - 1 and first reaches pi^(p-1), so shell 1 is nonzero below pi^p; at
    # s = 0 it is sum_c 1/(theta + c) = -pi^p + ..., zero mod pi^5 and
    # nonzero mod pi^(p+1).  At p = 263, n = p - 1 puts the t-shell at
    # exponent 1.  A degree-one shell at p = 1021 takes either side about a
    # minute, so there only shell 0 is compared.
    spec = FieldSpec(p, (0, 1))
    cases = {257: [(1, 1, 1, p), (1, 0, 1, 5), (1, 0, 1, p + 1)], 263: [(p - 1, 1, 1, p)],
             1021: [(p - 1, 0, 0, 5), (p - 1, 1, 0, 5)]}[p]
    for n, s, zdeg, prec in cases:
        expected = {js + (d,): c for d in range(zdeg + 1) for js, c in
                    enumerated_inverse_shell(spec, d, n, prec, s).items() if c}
        assert pellarin_L_series(spec, n, s, zdeg, prec).terms == expected, (n, s)


def _oracle_goss(spec, x, y, prec):
    """sum_d x^(-d) c_d with enumerated shells, for v(x) = -1: shell d has
    valuation >= d plus the certified bound (criterion 11 checks it), so
    the shells below the first d >= 2 certified at prec carry every digit
    below pi^prec."""
    x_inv = x.inverse()
    total = LaurentSeries.zero(spec, prec)
    d = 0
    while d < 2 or infty_coeff_valuation_bound(spec.q, d) < prec:
        total = total + enumerated_bracket_shell(spec, d, y, prec) * x_inv ** d
        d += 1
    return total


@pytest.mark.parametrize("spec", FIELDS[:4], ids=lambda s: f"q{s.q}")
def test_goss_zeta_eval_matches_enumerated_shells(spec):
    rng = random.Random(100 + spec.q)
    for prec in (1, 6, 20):
        x = LaurentSeries.from_apoly(APoly(spec, (rng.randrange(spec.q), 1)), prec + 4)
        for y in _exponents(rng, spec.p, prec):
            got = goss_zeta_eval(SInftyPoint(x, y), prec)
            assert got.prec == prec
            assert got.agrees_with(_oracle_goss(spec, x, y, prec), prec=prec), y.digits


def test_goss_extra_digits_match_minimal_digits():
    # digits past the least p^M >= prec only multiply terms by 1 mod pi^prec
    spec = FieldSpec.default(2)
    x = LaurentSeries.theta(spec, 40)
    rng = random.Random(7)
    for _ in range(5):
        digits = [rng.randrange(2) for _ in range(24)]
        full = goss_zeta_eval(SInftyPoint(x, ZpExp(2, digits)), 20)
        assert full == goss_zeta_eval(SInftyPoint(x, ZpExp(2, digits[:5])), 20)


def test_goss_keeps_its_errors():
    spec = FieldSpec.default(3)
    x = LaurentSeries.theta(spec, 40)
    with pytest.raises(PrecisionError):
        goss_zeta_eval(SInftyPoint(x, ZpExp(3, (2, 2))), 10)  # 3^2 < 10
    with pytest.raises(PrecisionError):
        goss_zeta_eval(SInftyPoint(LaurentSeries.theta(spec, 5), ZpExp(3, (2, 2, 2))), 10)


def test_fields_past_the_packed_kernel_sum_shells_per_monic():
    # p = 257: 32-bit kernel digits, against the per-monic oracles
    spec = FieldSpec(257, (0, 1))
    for prec, digits in ((2, (5,)), (9, (256, 256, 7))):
        y = ZpExp(257, digits)
        N = y.as_int() % least_p_power(257, prec)
        for d in (0, 1):
            assert shell_sum(spec, d, N, d * N, prec) == \
                enumerated_bracket_shell(spec, d, y, prec)
        x = LaurentSeries.from_apoly(APoly(spec, (3, 1)), prec + 4)
        assert goss_zeta_eval(SInftyPoint(x, y), prec).agrees_with(
            _oracle_goss(spec, x, y, prec), prec=prec)
    for n in (1, 2, 300):
        big = least_p_power(257, max(5, n))
        for d in (0, 1):
            assert shell_sum(spec, d, big - n, d * big, 5) == \
                enumerated_inverse_shell(spec, d, n, 5)[()]
    assert mzv_eval_inf(spec, MzvIndex((2, 1), "weak"), 4).agrees_with(
        _oracle_chain(spec, (2, 1), "weak", 4), prec=4)


def _oracle_chain(spec, ns, mode, prec):
    """Chain sum over degrees with enumerated shells; top degree d has
    valuation >= n_1 d + q^(d-2), which bounds the degrees visited."""
    top = 0
    while ns[0] * top + (spec.q ** (top - 2) if top >= 2 else 0) < prec:
        top += 1
    shells = {(n, d): enumerated_inverse_shell(spec, d, n, prec)[()]
              for n in set(ns) for d in range(top)}
    total = LaurentSeries.zero(spec, prec)
    for degs in itertools.product(range(top), repeat=len(ns)):
        if all(a > b or (mode == "weak" and a == b) for a, b in zip(degs, degs[1:])):
            term = LaurentSeries.one(spec, prec)
            for n, d in zip(ns, degs):
                term = term * shells[n, d]
            total = total + term
    return total


@pytest.mark.parametrize("spec", FIELDS[:4], ids=lambda s: f"q{s.q}")
def test_mzv_eval_inf_matches_enumerated_shells(spec):
    for ns, prec in (((1,), 12), ((3,), 20), ((2, 1), 10), ((1, 2), 8), ((1, 1, 1), 10),
                     ((2, 1, 3), 12)):
        for mode in ("strict", "weak"):
            got = mzv_eval_inf(spec, MzvIndex(ns, mode), prec)
            assert got.agrees_with(_oracle_chain(spec, ns, mode, prec), prec=prec), (ns, mode)


def test_infinite_place_evaluation_writes_no_disk_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("FFZETA_CACHE", str(tmp_path))
    monkeypatch.setattr(zeta, "_windows_by_spec", {})  # force the recursion to run
    spec = FieldSpec.default(3)
    x = LaurentSeries.theta(spec, 60)
    assert goss_zeta_eval(SInftyPoint(x, ZpExp(3, (2, 1, 2, 1))), 50)
    assert mzv_eval_inf(spec, MzvIndex((2, 1), "strict"), 30)
    assert zeta._windows_by_spec  # the shells did go through the recursion
    assert not (tmp_path / "powersums.jsonl").exists()
    zeta.power_sum(spec, 2, 8)  # control: the public entry point does write there
    assert (tmp_path / "powersums.jsonl").exists()


def test_shell_sum_is_the_top_of_the_exact_power_sum(monkeypatch):
    """The top window against the exact power sum's coefficients, reversed
    and cut to prec: val, coefficients and prec agree, also for windows
    longer than S_d(n) and shifts below d*n.  n is capped at d*n <= 20000
    so that the exact reference stays cheap."""
    monkeypatch.setattr(zeta, "_windows_by_spec", {})
    rng = random.Random(23)
    for _ in range(400):
        spec = FieldSpec.default(rng.choice((2, 3, 4, 5, 7, 8, 9)))
        d = rng.randint(0, 6)
        n = rng.randrange(min(spec.q ** 5, 20000 // max(d, 1)))
        shift, prec = d * n + rng.randint(-30, 30), rng.randrange(1, 120)
        codes = zeta.power_sum(spec, d, n).coeff_codes
        want = LaurentSeries(spec, shift - len(codes) + 1, codes[::-1], prec)
        got = shell_sum(spec, d, n, shift, prec)
        assert (got.val, got.coeff_codes, got.prec) == (want.val, want.coeff_codes, want.prec), \
            (spec.q, d, n, shift, prec)


def test_goss_shells_keep_at_most_prec_coefficients(monkeypatch):
    # every digit 2 at q = 3, prec 600: S_6(728) alone has degree 3,282, yet
    # each shell keeps a window of at most prec coefficients, and the exact
    # memo of power_sum gains no entry
    spec, prec = FieldSpec.default(3), 600
    monkeypatch.setattr(zeta, "_windows_by_spec", {})
    monkeypatch.setattr(zeta, "_memo_by_spec", {spec._key(): {}})
    x = LaurentSeries.theta(spec, prec)
    assert goss_zeta_eval(SInftyPoint(x, ZpExp(3, [2] * 6)), prec)
    windows = zeta._windows_by_spec[(spec._key(), True)]
    kernel = get_kernel(spec)
    assert (6, 728) in windows
    assert all(L <= prec and len(kernel.to_codes(raw)) <= prec for L, raw in windows.values())
    assert zeta._memo_by_spec == {spec._key(): {}}


F4 = FieldSpec.default(4)
T_SHELL_FIELDS = [*(FieldSpec.default(q) for q in (2, 3, 4, 5, 7, 8, 9, 16, 25)),
                  FieldSpec.extension(F4, (2, 1, 1))]  # F_16 as a tower over F_4


def _t_shell_field_id(spec):
    return f"q{spec.q}" + ("-tower" if spec.base is not None else "")


def _exponent_with_degree_bound(rng, spec, s, bound):
    """An n <= 0 whose exact_L z-degree bound is `bound`, or None."""
    q = spec.q
    for _ in range(200):
        n = -sum(rng.randrange(q) * q ** i for i in range(rng.randrange(1, bound + 3)))
        if zeta.exact_L_degree_bound(spec, n, s) == bound:
            return n
    return None


@pytest.mark.parametrize("spec", T_SHELL_FIELDS, ids=_t_shell_field_id)
def test_t_shells_match_per_monic_enumeration(spec):
    """exact_L and pellarin_L_series at s = 1..3 visit one monic per scaling
    orbit; every coefficient against the oracle's sums over all q^d monics.
    Up to q = 9 exact_L's oracle runs one degree past the bound, where it
    must vanish; n = 0 (a^0 = 1), d = 0 and theta^d are always among the
    cases.  The oracle's work is about q^(d+1) (d+1)^s products a shell."""
    q = spec.q
    rng = random.Random(2800 + q + (spec.base is not None))
    past = int(q <= 9)
    degrees = set()
    for s in (1, 2, 3):
        for bound in range(4):
            if sum(q ** (d + 1) * (d + 1) ** s for d in range(bound + past + 1)) > 40000:
                break
            for n in {0, -1, _exponent_with_degree_bound(rng, spec, s, bound)} - {None}:
                bound_n = zeta.exact_L_degree_bound(spec, n, s)
                if bound_n <= bound:
                    assert zeta.exact_L(spec, n, s) == \
                        enumerated_exact_L(spec, n, s, bound_n + past), (s, n)
                    degrees.add(bound_n)
        zdeg = max(d for d in _degrees(q, 400) if (d + 1) ** s * q ** d <= 400)
        for n in (1, rng.randrange(2, q + 3)):
            prec = rng.choice((3, 7, 12))
            expected = {js + (d,): c for d in range(zdeg + 1) for js, c in
                        enumerated_inverse_shell(spec, d, n, prec, s).items() if c}
            assert pellarin_L_series(spec, n, s, zdeg, prec).terms == expected, (s, n, prec)
    assert max(degrees) >= (2 if q <= 9 else 1), degrees


@pytest.mark.parametrize("q, degrees", [(2, 4), (3, 4), (4, 3), (5, 3), (7, 2), (9, 3), (16, 2),
                                        (25, 2)])
def test_t_shell_raises_one_power_per_scaling_orbit(q, degrees, monkeypatch):
    # |R| = 1 + sum_e gcd(e, q - 1) q^(d - e) kernel powers per shell: at
    # q = 9, d = 3 that is 101 of the 729 monics; at q = 2 every monic
    spec = FieldSpec.default(q)
    kernel = get_kernel(spec)
    calls = []
    real_pow = kernel.pow

    def counting(x, n, limit=None):
        calls.append(n)
        return real_pow(x, n, limit)

    monkeypatch.setattr(kernel, "pow", counting)
    for d in range(degrees + 1):
        del calls[:]
        zeta._t_shell(spec, kernel, d, 1, 2, lambda codes: codes)
        assert len(calls) == 1 + sum(math.gcd(e, q - 1) * q ** (d - e)
                                     for e in range(1, d + 1)), d
