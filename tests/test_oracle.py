import ast
import random
from pathlib import Path

import pytest

from ffzeta._kernels import get_kernel
from ffzeta.fields import FieldSpec, FqElem, ZpExp
from ffzeta.padic import PadicCtx, padic_one_unit_pow, teichmuller
from ffzeta.polyring import APoly, MPoly, is_irreducible
from ffzeta.oracle import (CharsumConfig, charsum_trial, random_charsum_config,
                           enumerated_power_sum, threshold_scan,
                           ENUMERATION_BUDGET)
from ffzeta import oracle
from ffzeta.seriesinf import LaurentSeries, one_unit_pow
from ffzeta.zeta import SInftyPoint, goss_zeta_eval, power_sum

F2 = FieldSpec.default(2)
F3 = FieldSpec.default(3)
F4 = FieldSpec.default(4)


def test_charsum_r0_vanishes():
    cfg = CharsumConfig(3, 2, F3, maps=(), offsets=())
    assert not charsum_trial(cfg)


def test_charsum_sharpness_witness():
    # p=2, r=1, dim=1, f=id, x=0: the two-term sum 0 + 1 = 1
    cfg = CharsumConfig(2, 1, F2, maps=(((1,),),), offsets=(FqElem(F2, 0),))
    assert charsum_trial(cfg).code == 1


def test_charsum_predicted_zero_randomized():
    rng = random.Random(2024)
    for p in (2, 3, 5):
        spec = FieldSpec.default(p)
        trials = 0
        while trials < 150:
            r = rng.randrange(0, 2 * (p - 1) * 4 + 1)
            dim_lo = r // (p - 1) + 1
            dim = rng.randrange(dim_lo, dim_lo + 3)
            if p ** dim > 200000:
                continue
            cfg = random_charsum_config(rng, p, dim, r, spec)
            assert cfg.predicted_zero()
            assert not charsum_trial(cfg)
            trials += 1


def test_charsum_extension_field_target():
    rng = random.Random(7)
    for target in (F4, FieldSpec.default(9)):
        p = target.p
        for _ in range(50):
            r = rng.randrange(0, 3 * (p - 1))
            dim = r // (p - 1) + 1 + rng.randrange(0, 2)
            cfg = random_charsum_config(rng, p, dim, r, target)
            assert not charsum_trial(cfg)


def test_charsum_exact_value_against_direct_loop():
    """Exact values, zero and nonzero, against a loop over the points of W
    with coordinates mapped by `from_coords`; r runs past the threshold
    dim (p-1) so that nonzero sums occur on every target."""
    import itertools
    for q in (2, 3, 4, 5, 8, 9, 25):
        spec = FieldSpec.default(q)
        p = spec.p
        rng = random.Random(13 + q)
        nonzero = 0
        for _ in range(12):
            dim = rng.randrange(1, 6)
            r = rng.choice((rng.randrange(0, dim * (p - 1)), dim * (p - 1), dim * (p - 1) + 1))
            cfg = random_charsum_config(rng, p, dim, r, spec)
            expected = FqElem(spec, 0)
            for w in itertools.product(range(p), repeat=dim):
                term = FqElem(spec, 1)
                for m, x in zip(cfg.maps, cfg.offsets):
                    coords = [sum(rc * wc for rc, wc in zip(row, w)) % p for row in m]
                    term = term * (x + FqElem(spec, spec.from_coords(coords)))
                expected = expected + term
            assert charsum_trial(cfg) == expected, (q, dim, r)
            nonzero += bool(expected)
        assert nonzero, q


@pytest.mark.parametrize("q", (4, 8, 9, 16, "4^2"))
def test_charsum_bytes_and_list_enumerations_agree(q):
    """The byte-string enumeration of q <= 16 against the list loop that
    q > 16 keeps, on extension-field targets (F_16 as F_16 and as a tower
    over F_4), with r up to past the threshold so that nonzero sums occur."""
    target = FieldSpec.extension(F4, (2, 1, 1)) if q == "4^2" else FieldSpec.default(q)
    p = target.p
    rng = random.Random(f"charsum-bytes-{q}")
    nonzero = 0
    for _ in range(40):
        dim = rng.randrange(1, 7)
        r = rng.randrange(0, dim * (p - 1) + 3)
        cfg = random_charsum_config(rng, p, dim, r, target)
        value = oracle._charsum_field_bytes(cfg)
        assert value == oracle._charsum_field_lists(cfg) == charsum_trial(cfg), (dim, r)
        nonzero += bool(value)
    assert nonzero >= 5


def test_charsum_symbolic_target():
    # symbolic offsets and basis: the vanishing law holds verbatim
    names = ("u",)
    basis = (MPoly.variable(names, "u", FqElem(F2, 1)),)
    rng = random.Random(3)
    for _ in range(20):
        r = rng.randrange(0, 5)
        dim = r + 1
        cfg = random_charsum_config(rng, 2, dim, r, F2, basis=basis)
        assert charsum_trial(cfg).is_zero()
    # sharpness at dim = r/(p-1): x + f(w) with f = u-coefficient 1
    cfg = CharsumConfig(2, 1, F2, maps=(((1,),),),
                        offsets=(MPoly.zero(names),), basis=basis)
    value = charsum_trial(cfg)
    assert value == MPoly(names, {(1,): FqElem(F2, 1)})


def test_charsum_budget():
    cfg = CharsumConfig(5, 11, FieldSpec.default(5),
                        maps=(), offsets=())
    with pytest.raises(ValueError):
        charsum_trial(cfg)


def test_charsum_config_validation():
    with pytest.raises(ValueError):
        CharsumConfig(2, 2, F3, maps=(), offsets=())  # characteristic mismatch
    with pytest.raises(ValueError):
        CharsumConfig(2, 2, F2, maps=(((1,),),), offsets=(FqElem(F2, 0),))  # bad columns


def test_enumerated_power_sum_matches_fast_path():
    for spec in (F2, F3, F4):
        for d in range(4):
            for n in range(0, 20):
                assert enumerated_power_sum(spec, d, n) == power_sum(spec, d, n)


def test_threshold_scan_powersum():
    report = threshold_scan("powersum", spec=F2, d_max=5, n_max=64)
    assert report["complete"]
    assert report["violations"] == []
    assert report["fast_path_mismatches"] == []
    # observed sharpness: some rows are nonzero right below the bound
    assert any(not r["zero"] and not r["predicted"] for r in report["rows"])


def test_threshold_scan_twisted():
    report = threshold_scan("twisted", spec=F3, d_max=4, s_max=4)
    assert report["violations"] == []
    assert report["complete"]


def test_threshold_scan_twisted_sweeps_mixed_orders():
    # q = 4: orders (0, 1, 0) have degree weight 4, so shell 1 is nonzero
    # although s = 3 = q - 1 would predict zero
    report = threshold_scan("twisted", spec=F4, d_max=3, s_max=4)
    assert report["violations"] == []
    assert {tuple(r["orders"]) for r in report["rows"]} >= {(0, 1, 0), (0, 1, 0, 1)}
    assert any(r["orders"] == [0, 1, 0] and r["d"] == 1 and not r["zero"] for r in report["rows"])


def test_threshold_scan_char_observes_sharp_bound():
    report = threshold_scan("char", spec=F3, P=APoly.theta(F3), delta=2, d_max=4)
    assert report["violations"] == [] and report["fast_path_mismatches"] == []
    assert report["observed_threshold"] == report["bound"] == 2


def test_threshold_scan_char_lists_fast_path_mismatches(monkeypatch):
    # the rows come from enumeration, so a wrong library sum shows only here
    real = oracle.char_power_sum
    monkeypatch.setattr(oracle, "char_power_sum",
                        lambda spec, d, chi, n: real(spec, d, chi, n) + FqElem(spec, d == 3))
    report = threshold_scan("char", spec=F3, P=APoly.theta(F3), delta=2, d_max=4)
    assert report["violations"] == [] and report["observed_threshold"] == 2
    assert report["fast_path_mismatches"] == [{"q": 3, "dP": 1, "delta": 0, "d": 3}]  # 2 mod 2


def test_threshold_scan_budget_flag():
    report = threshold_scan("powersum", spec=F3, d_max=9, n_max=10, budget=1000)
    assert not report["complete"]


# The library routes the oracles check; oracle.py may not reach any of them.
CHECKED_ROUTES = {"shell_sum", "_power_sum_raw", "_power_sum_window", "_recursion_children",
                  "_lucas_support", "prime_to_p_power_sum", "exact_L", "vadic_exact_L",
                  "reduced_power_sum", "_t_shell", "pellarin_L_series", "goss_zeta_eval",
                  "mzv_eval_inf", "twisted_L_eval", "_merge_infinite", "_monomial_codes",
                  "keep_residues", "_slot_sum", "_char_forms", "vadic_zeta_eval", "one_unit_pow",
                  "teichmuller", "padic_one_unit_pow", "_sum_shells", "_loss_rate",
                  "_LocalRing", "_CarlitzSums", "local_power_sum", "inverse_power_sum",
                  "raw_sum", "_digit_valuation_bound", "_digit_certificate"}
CHECKED_MODULES = {"zeta", "vadic", "mzv"}


def _shared_routes(source):
    """Imports in `source` that reach a checked route or a whole checked module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names
                      if a.name.removeprefix("ffzeta.") in CHECKED_MODULES]
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").removeprefix("ffzeta.")
            for a in node.names:
                if a.name in CHECKED_ROUTES:
                    found.append(a.name)
                elif module in ("", "ffzeta") and a.name in CHECKED_MODULES:
                    found.append(a.name)
                elif module in CHECKED_MODULES and a.name == "*":
                    found.append(f"{module}.*")
        elif isinstance(node, ast.Attribute) and node.attr in CHECKED_ROUTES:
            found.append(node.attr)
    return found


def test_oracle_shares_no_code_path_with_what_it_checks():
    assert _shared_routes(Path(oracle.__file__).read_text()) == []


@pytest.mark.parametrize("source", [
    "from .zeta import power_sum, shell_sum",
    "from .zeta import _t_shell as t",
    "from .zeta import twisted_power_sum, _monomial_codes",
    "from ffzeta.zeta import exact_L",
    "from . import zeta",
    "from ffzeta import mzv",
    "import ffzeta.vadic",
    "from .zeta import *",
    "import ffzeta\nx = ffzeta.zeta.goss_zeta_eval",
])
def test_shared_route_guard_catches_each_import_form(source):
    assert _shared_routes(source)


def _kernel_pow_uses(source):
    """Every `<value>.pow` in `source`: the kernels' and QuotientKernel's power."""
    return [node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr == "pow"]


def test_oracle_raises_monics_to_powers_without_the_kernel_pow():
    assert _kernel_pow_uses(Path(oracle.__file__).read_text()) == []
    assert _kernel_pow_uses("apow = kernel.pow(kernel.from_codes(codes), n)")
    assert _kernel_pow_uses("power = qk.pow")


@pytest.mark.parametrize("q", (2, 3, 4, 9, 25))
def test_digit_power_matches_apoly_power(q):
    spec = FieldSpec.default(q)
    kernel = get_kernel(spec)
    x = APoly(spec, (1, q - 1, 1))
    for n in (0, 1, q - 1, q, q * q - 1, 2 * q * q + 1):
        assert kernel.to_codes(oracle._digit_power(kernel, kernel.from_codes(x.coeff_codes), n)) \
            == (x ** n).coeff_codes
    with pytest.raises(ValueError):
        oracle._digit_power(kernel, kernel.from_codes(x.coeff_codes), -1)


@pytest.mark.parametrize("q", (2, 3, 4, 257))
def test_one_unit_power_matches_one_unit_pow(q):
    """The oracle's digit product against the library's kernel power, value
    and precision, exponents with too few digits for prec among them."""
    spec = FieldSpec(q, (0, 1)) if q == 257 else FieldSpec.default(q)
    rng = random.Random(q)
    for _ in range(40):
        prec = rng.randrange(1, 30)
        codes = (1,) + tuple(rng.randrange(q) * (rng.random() < 0.5) for _ in range(prec - 1))
        u = LaurentSeries(spec, 0, codes, prec)
        y = ZpExp(spec.p, tuple(rng.randrange(spec.p) for _ in range(rng.randrange(1, 5))))
        assert oracle._one_unit_power(u, y) == one_unit_pow(u, y), (codes, y.digits)


@pytest.mark.parametrize("q", (2, 3, 4, 5, 9))
def test_frobenius_step_cut_first_matches_the_uncut_power(q):
    """x cut to pi^(prec - (p-1) v) before the p-th power gives the value,
    valuation and precision of the whole power cut at prec, p v >= prec
    (a zero at prec) among the cases."""
    spec, rng = FieldSpec.default(q), random.Random(q + 700)
    p = spec.p
    large = 0
    for _ in range(120):
        prec = rng.randrange(2, 40)
        v = rng.randrange(1, prec)
        codes = (rng.randrange(1, q),) + tuple(rng.randrange(q) * (rng.random() < 0.6)
                                               for _ in range(prec - v - 1))
        x = LaurentSeries(spec, v, codes, prec)
        large += p * v >= prec
        assert oracle._frobenius_step(x, prec) == (x ** p).truncate(prec), (v, codes, prec)
    assert large


TOWER = FieldSpec.extension(FieldSpec.default(4), (2, 1, 1))  # x^2 + x + xi over F_4


@pytest.mark.parametrize("dP", (1, 2, 3))
@pytest.mark.parametrize("spec", [FieldSpec.default(q) for q in (2, 3, 4, 5, 9)] + [TOWER],
                         ids=["2", "3", "4", "5", "9", "4^2"])
def test_integer_powers_in_A_mod_P_k_match_the_oracle(spec, dP):
    """teichmuller's single power against the fixed-point lift, and
    padic_one_unit_pow's against the digit product, for k <= 12 and
    exponents with 0-3 digits past the least p^M' >= k."""
    rng = random.Random(spec.q * 10 + dP)
    p = spec.p
    while not is_irreducible(P := APoly(spec, [rng.randrange(spec.q) for _ in range(dP)] + [1])):
        pass
    for k in (1, 2, 3, 5, 8, 12):
        ctx = PadicCtx(P, k)
        M = 0
        while p ** M < k:
            M += 1
        for _ in range(6):
            a = APoly(spec, [rng.randrange(spec.q) for _ in range(k * dP)])
            if not a % P:
                a = a + APoly.one(spec)
            assert teichmuller(a, ctx) == oracle._fixed_point_lift(ctx.reduce(a)), (k, a)
            # w = P^v b with v from 1 up to past k, where u = 1
            b = APoly(spec, [rng.randrange(spec.q) for _ in range(k * dP)])
            u = ctx.reduce(APoly.one(spec) + P ** rng.randrange(1, k + 2) * b)
            y = ZpExp(p, [rng.randrange(p) for _ in range(max(1, M + rng.randrange(4)))])
            assert padic_one_unit_pow(u, y) == oracle._padic_one_unit_power(u, y), (k, u, y)


@pytest.mark.parametrize("q", (2, 3, 4, 5, 9))
def test_carlitz_zeta_matches_goss_zeta_eval(q):
    """zeta(n) = sum_i l_i^(-n), 1 <= n <= q, against goss_zeta_eval at
    x = theta^n and y = n, prec 40.  At n = q + 1 the closed form does not
    hold, and the comparison tells the two apart."""
    spec, prec = FieldSpec.default(q), 40
    digits = next(M for M in range(1, prec) if spec.p ** M >= prec)

    def zeta(n):
        x = LaurentSeries(spec, -n, (1,), 4 * prec)
        return goss_zeta_eval(SInftyPoint(x, ZpExp.from_int(-n, spec.p, digits)), prec)

    for n in range(1, q + 1):
        assert oracle.carlitz_zeta(spec, n, prec) == zeta(n), n
    assert not oracle.carlitz_zeta(spec, q + 1, prec).agrees_with(zeta(q + 1))
