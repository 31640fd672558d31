import json
import random

import pytest

from ffzeta.fields import FieldSpec, ZpExp, lq_digit_sum
from ffzeta.polyring import APoly, MPoly, enumerate_monic
from ffzeta.seriesinf import LaurentSeries
from ffzeta.zeta import PowerSumCache, exact_L, power_sum, goss_zeta_eval, SInftyPoint
from ffzeta.vadic import vadic_exact_L
from ffzeta.mzv import MzvIndex, mzv_exact, mzv_vadic_exact, mzv_eval_inf

F2 = FieldSpec.default(2)
F3 = FieldSpec.default(3)
TH2 = APoly.theta(F2)


def chains_bruteforce(spec, idx, P=None):
    """Reference chain enumeration over tuples of monic polynomials."""
    caps = [lq_digit_sum(-n, spec.q) // (spec.q - 1) for n in idx.ns]
    if P is not None:
        caps[0] += P.degree
    names = tuple(f"z{i + 1}" for i in range(idx.depth))
    total = MPoly.zero(names)
    strict = idx.mode == "strict"

    def rec(i, bound, degs):
        nonlocal total
        if i == len(idx.ns):
            coeff = APoly.one(spec)
            ok = True
            for j, d in enumerate(degs):
                inner = APoly.zero(spec)
                for a in enumerate_monic(spec, d):
                    if P is not None and j == 0 and (a % P).is_zero():
                        continue
                    inner = inner + a ** (-idx.ns[j])
                coeff = coeff * inner
                if coeff.is_zero():
                    ok = False
                    break
            if ok and coeff:
                total = total + MPoly(names, {tuple(degs): coeff})
            return
        hi = caps[i] if bound is None else min(caps[i], bound - (1 if strict else 0))
        for d in range(hi + 1):
            rec(i + 1, d, degs + [d])

    rec(0, None, [])
    return total


def test_mzv_fixtures_q2():
    strict = mzv_exact(F2, MzvIndex((-1, -1), "strict"))
    assert strict == MPoly(("z1", "z2"), {(1, 0): APoly.one(F2)})
    weak = mzv_exact(F2, MzvIndex((-1, -1), "weak"))
    assert weak == MPoly(("z1", "z2"), {(0, 0): APoly.one(F2),
                                        (1, 0): APoly.one(F2),
                                        (1, 1): APoly.one(F2)})


def test_mzv_depth_one_is_exact_L():
    for spec in (F2, F3):
        for n in (0, -1, -3, -5):
            z = mzv_exact(spec, MzvIndex((n,), "strict"))
            L = exact_L(spec, n, 0)
            assert {e[0]: c for e, c in z.terms.items()} == \
                {e[0]: c for e, c in L.terms.items()}


def test_mzv_matches_bruteforce_chains():
    rng = random.Random(5)
    for spec in (F2, F3):
        for _ in range(8):
            r = rng.randrange(1, 4)
            ns = tuple(-rng.randrange(0, 4) for _ in range(r))
            mode = rng.choice(("strict", "weak"))
            idx = MzvIndex(ns, mode)
            assert mzv_exact(spec, idx) == chains_bruteforce(spec, idx)


def test_mzv_vadic_matches_bruteforce():
    for Pc in ((0, 1), (1, 1, 1)):
        P = APoly(F2, Pc)
        for ns in ((-1, -1), (-2, 0), (-3, -2)):
            for mode in ("strict", "weak"):
                idx = MzvIndex(ns, mode)
                assert mzv_vadic_exact(F2, idx, P) == chains_bruteforce(F2, idx, P)


def test_mzv_vadic_depth_one_is_vadic_L():
    z = mzv_vadic_exact(F2, MzvIndex((-1,), "strict"), TH2)
    L = vadic_exact_L(F2, -1, 0, TH2)
    assert {e[0]: c for e, c in z.terms.items()} == {e[0]: c for e, c in L.terms.items()}


def test_mzv_vadic_fixture_and_congruence_example():
    idx = MzvIndex((-1, -1), "strict")
    zv = mzv_vadic_exact(F2, idx, TH2)
    # the (1,0) chain keeps only a_1 = theta + 1
    assert zv.terms[(1, 0)] == APoly(F2, (1, 1))
    diff = mzv_exact(F2, idx) - zv
    for coeff in diff.terms.values():
        assert (coeff % TH2).is_zero()


def test_mzv_congruence_grid():
    # vadic == full mod P^(-n_1), coefficientwise exact divisibility
    for Pc in ((0, 1), (1, 1, 1)):
        P = APoly(F2, Pc)
        for n1 in range(-4, 1):
            for n2 in range(-4, 1):
                for mode in ("strict", "weak"):
                    idx = MzvIndex((n1, n2), mode)
                    diff = mzv_exact(F2, idx) - mzv_vadic_exact(F2, idx, P)
                    modulus = P ** (-n1)
                    for coeff in diff.terms.values():
                        assert (coeff % modulus).is_zero()


def test_mzv_diagonal_identity():
    # weak - strict = sum_d S_d(-n1) S_d(-n2) (z1 z2)^d
    for spec in (F2, F3):
        for ns in ((-1, -1), (-2, -1), (-4, -3), (0, -2)):
            idx_s = MzvIndex(ns, "strict")
            idx_w = MzvIndex(ns, "weak")
            diff = mzv_exact(spec, idx_w) - mzv_exact(spec, idx_s)
            expected = MPoly.zero(("z1", "z2"))
            cap = min(lq_digit_sum(-n, spec.q) // (spec.q - 1) for n in ns)
            for d in range(cap + 1):
                coeff = power_sum(spec, d, -ns[0]) * power_sum(spec, d, -ns[1])
                if coeff:
                    expected = expected + MPoly(("z1", "z2"), {(d, d): coeff})
            assert diff == expected


def test_mzv_degree_bound():
    for spec in (F2, F3):
        for ns in ((-1, -2), (-5, -1), (-6, -3, -1)):
            for mode in ("strict", "weak"):
                z = mzv_exact(spec, MzvIndex(ns, mode))
                bound = lq_digit_sum(-ns[0], spec.q) // (spec.q - 1)
                assert z.degree_in("z1") <= bound


def test_mzv_rejects_mixed_signs():
    with pytest.raises(ValueError):
        mzv_exact(F2, MzvIndex((1, -1), "strict"))
    with pytest.raises(ValueError):
        mzv_vadic_exact(F2, MzvIndex((-1, 2), "strict"), TH2)
    with pytest.raises(ValueError):
        mzv_eval_inf(F2, MzvIndex((1, 0), "strict"), 20)


def test_mzv_eval_inf_depth_one_cross_path():
    # r=1, n=1: z-point 1 matches the zeta evaluation at x = theta^n, y = n
    v = mzv_eval_inf(F2, MzvIndex((1,), "strict"), 30)
    x = LaurentSeries.theta(F2, 120)
    g = goss_zeta_eval(SInftyPoint(x, ZpExp.from_int(-1, 2, 7)), 30)
    assert v.agrees_with(g, prec=30)
    v3 = mzv_eval_inf(F3, MzvIndex((2,), "strict"), 24)
    x3 = LaurentSeries(F3, -2, (1,), 120)
    g3 = goss_zeta_eval(SInftyPoint(x3, ZpExp.from_int(-2, 3, 6)), 24)
    assert v3.agrees_with(g3, prec=24)


def test_mzv_eval_inf_shuffle_diagonal():
    # weak - strict equals the diagonal sum, evaluated numerically
    prec = 24
    for ns in ((1, 1), (2, 1)):
        w = mzv_eval_inf(F2, MzvIndex(ns, "weak"), prec)
        s = mzv_eval_inf(F2, MzvIndex(ns, "strict"), prec)
        diag = LaurentSeries.zero(F2, prec)
        d = 0
        while ns[0] * d + ns[1] * d < prec:
            inner = LaurentSeries.zero(F2, prec)
            for a in enumerate_monic(F2, d):
                inner = inner + (LaurentSeries.from_apoly(a, prec).inverse()
                                 ** ns[0]).truncate(prec)
            inner2 = LaurentSeries.zero(F2, prec)
            for a in enumerate_monic(F2, d):
                inner2 = inner2 + (LaurentSeries.from_apoly(a, prec).inverse()
                                   ** ns[1]).truncate(prec)
            diag = diag + inner * inner2
            d += 1
        assert (w - s).agrees_with(diag, prec=min((w - s).prec, diag.prec))


def test_mzv_eval_inf_truncation_soundness():
    # doubling the precision never changes already-certified digits
    for ns in ((1,), (2, 1), (1, 1)):
        lo = mzv_eval_inf(F2, MzvIndex(ns, "strict"), 16)
        hi = mzv_eval_inf(F2, MzvIndex(ns, "strict"), 32)
        assert hi.agrees_with(lo, prec=min(lo.prec, 16))


def test_mzv_eval_inf_zero_z_point():
    prec = 16
    zero = LaurentSeries.zero(F2, prec)
    one = LaurentSeries.one(F2, prec)
    v = mzv_eval_inf(F2, MzvIndex((1,), "strict"), prec, [zero])
    # only the d_1 = 0 chain survives: the single polynomial 1
    assert v.agrees_with(one, prec=min(v.prec, prec))


def test_mzv_eval_inf_rejects_bad_z_points():
    with pytest.raises(ValueError):
        mzv_eval_inf(F2, MzvIndex((1,), "strict"), 10,
                     [LaurentSeries.theta(F2, 20)])
    with pytest.raises(ValueError):
        mzv_eval_inf(F2, MzvIndex((1, 1), "strict"), 10,
                     [LaurentSeries.one(F2, 10)])


def test_mzv_eval_inf_rejects_precision_below_one():
    for prec in (0, -5):
        with pytest.raises(ValueError, match="prec >= 1"):
            mzv_eval_inf(F2, MzvIndex((1,), "strict"), prec)


def test_mzv_index_validation():
    with pytest.raises(ValueError):
        MzvIndex((), "strict")
    with pytest.raises(ValueError):
        MzvIndex((1,), "sorted")


def test_mzv_vadic_exact_writes_only_its_own_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("FFZETA_CACHE", str(tmp_path))
    TH3 = APoly.theta(F3)
    value = mzv_vadic_exact(F3, MzvIndex((-5, -2)), TH3)
    assert value == chains_bruteforce(F3, MzvIndex((-5, -2)), TH3)
    # one line per power sum the chain tables ask for, none for the recursion's
    asked = {PowerSumCache.key(F3, d, n) for d in range(3) for n in (5, 2)}
    lines = (tmp_path / "powersums.jsonl").read_text().splitlines()
    assert lines and {json.loads(line)["key"] for line in lines} <= asked


def test_mzv_eval_inf_takes_each_shell_once(monkeypatch):
    # polyring.chain_sum asks each table entry (level, degree) once: 3 levels
    # of 9 degrees, 27 calls for 19 distinct shells (levels 1 and 2 share n)
    from ffzeta import mzv
    calls = []
    real = mzv.shell_sum

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(mzv, "shell_sum", counted)
    want = mzv_eval_inf(F2, MzvIndex((2, 1, 1), "strict"), 200)
    assert (len(calls), len(set(calls))) == (27, 19)
    monkeypatch.setattr(mzv, "shell_sum", real)
    assert mzv_eval_inf(F2, MzvIndex((2, 1, 1), "strict"), 200) == want
