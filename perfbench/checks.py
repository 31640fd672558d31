"""Per-job correctness checks, run after the timed pass.

Every check compares a job's result with a second route to the same
value (an identity from the paper, an enumeration oracle or a different
algorithm) or with a proven bound.  `check(prepared, result)` returns
None when the result passes and a short reason when it does not.
"""

from __future__ import annotations

from ffzeta import mzv, oracle, vadic, zeta
from ffzeta.fields import ZpExp, lq_digit_sum
from ffzeta.polyring import APoly, MPoly
from ffzeta.seriesinf import LaurentSeries

ORACLE_LIMIT = 1000  # enumerate S_d(n) by brute force when q^d is at most this


def _agree(got: LaurentSeries, ref: LaurentSeries, prec: int):
    cut = min(prec, got.prec, ref.prec)
    if cut < prec:
        return f"reference known only to pi^{cut}, below the requested pi^{prec}"
    return None if got.agrees_with(ref, prec=cut) else f"disagrees with the reference below pi^{cut}"


def _laurent_z_route(spec, n: int, x: LaurentSeries, prec: int) -> LaurentSeries:
    """sum_d S_d(n) (theta^n x)^(-d), the exact-polynomial route of criterion 7."""
    theta = LaurentSeries.theta(spec, 2 * prec + 2 * n + 16)
    zsub = (theta ** n * x).inverse()
    return zeta.zpoly_eval_laurent(zeta.exact_L(spec, -n, 0), {"z": zsub}, prec)


def _goss_route(spec, n: int, prec: int) -> LaurentSeries:
    """sum_d sum_a a^(-n) for n >= 1, as goss_zeta_eval at x = theta^n, -y = -n."""
    p = spec.p
    m = 1
    while p ** m < prec:
        m += 1
    x = LaurentSeries(spec, -n, (1,), prec)
    return zeta.goss_zeta_eval(zeta.SInftyPoint(x, ZpExp.from_int(-n, p, m)), prec)


def _euler_factor(spec, names, P: APoly, n: int, s: int) -> MPoly:
    """1 - z^deg P P^(-n) prod_i P(t_i): the factor removing multiples of P."""
    one = APoly.one(spec)
    prod = MPoly.const(names, -(P ** (-n)))
    for i in range(s):
        terms = {}
        for j, code in enumerate(P.coeff_codes):
            if code:
                exp = [0] * len(names)
                exp[i] = j
                terms[tuple(exp)] = APoly.constant(spec, code)
        prod = prod * MPoly(names, terms)
    zexp = [0] * len(names)
    zexp[-1] = P.degree
    prod = prod * MPoly(names, {tuple(zexp): one})
    return MPoly.const(names, one) + prod


def _chain_sum(idx, tables, caps, names, zero_check):
    """Plain-loop chain sum over d_1 (>|>=) d_2 (>|>= ...), depth <= 2."""
    strict = idx.mode == "strict"
    terms = {}
    if idx.depth == 1:
        for d in range(caps[0] + 1):
            c = tables[0](d)
            if not zero_check(c):
                terms[(d,)] = c
        return MPoly(names, terms)
    for d1 in range(caps[0] + 1):
        for d2 in range(min(caps[1], d1 - 1 if strict else d1) + 1):
            c = tables[0](d1) * tables[1](d2)
            if not zero_check(c):
                terms[(d1, d2)] = c
    return MPoly(names, terms)


def _power_sum(spec, d, n, result):
    if zeta.power_sum_vanishes(spec, d, n) and not result.is_zero():
        return "nonzero where the digit-sum predicate forces zero"
    if spec.q ** d <= ORACLE_LIMIT and result != oracle.enumerated_power_sum(spec, d, n):
        return "differs from the enumeration oracle"
    if result.degree > n * d:
        return "degree exceeds n*d"
    return None


def _exact_L(spec, n, s, result):
    if result.degree_in("z") > zeta.exact_L_degree_bound(spec, n, s):
        return "z-degree above the bound"
    q = spec.q
    if (s - n) % (q - 1) == 0 and s - n >= 1 and \
            not result.substitute("z", APoly.one(spec)).is_zero():
        return "no trivial zero at z = 1"
    if s:
        # a(t_i) at t_i = theta is a itself: the value is exact_L(n - s, 0)
        reduced = result
        for i in range(s):
            reduced = reduced.substitute(f"t{i + 1}", APoly.theta(spec))
        if reduced != zeta.exact_L(spec, n - s, 0):
            return "t = theta specialization differs from exact_L(n - s, 0)"
    return None


def _vadic_exact_L(spec, n, s, P, result):
    full = zeta.exact_L(spec, n, s)
    if result != _euler_factor(spec, full.vars, P, n, s) * full:
        return "Euler-factor identity fails"
    return None


def _mzv_exact(spec, idx, result):
    names = result.vars
    caps = [lq_digit_sum(-n, spec.q) // (spec.q - 1) for n in idx.ns]
    for name, cap in zip(names, caps):
        if result.degree_in(name) > cap:
            return f"{name}-degree above the bound"
    tables = [(lambda m: (lambda d: zeta.power_sum(spec, d, -m)))(m) for m in idx.ns]
    if result != _chain_sum(idx, tables, caps, names, lambda c: c.is_zero()):
        return "differs from the plain chain sum"
    return None


def _mzv_vadic_exact(spec, idx, P, result):
    modulus = P ** (-idx.ns[0])
    diff = mzv.mzv_exact(spec, idx) - result
    if any(not (c % modulus).is_zero() for c in diff.terms.values()):
        return "not congruent to mzv_exact mod P^(-n_1)"
    return None


def _twisted_finite(spec, finite, x, prec, result):
    """Exact route: shells d of twisted_power_sum, weighted by x^(-d).

    Every factor carries the same Frobenius order, so the symbolic sum
    vanishes past s/(q-1) exactly as in the untwisted case; two more
    shells are enumerated to confirm it.
    """
    stop = len(finite) // (spec.q - 1) + 1
    x_inv = x.inverse()
    expected: dict = {}
    for d in range(stop + 2):
        shell = zeta.twisted_power_sum(spec, d, finite)
        if d >= stop:
            if not shell.is_zero():
                return f"shell {d} does not vanish"
            continue
        weight = x_inv ** d if d else LaurentSeries.one(spec, prec)
        for exp, c in shell.terms.items():
            term = weight.scale_code(c.code)
            expected[exp] = expected[exp] + term if exp in expected else term
    zero = LaurentSeries.zero(spec, prec)
    for exp in set(expected) | set(result.terms):
        why = _agree(result.terms.get(exp, zero), expected.get(exp, zero), prec)
        if why:
            return f"monomial {exp}: {why}"
    return None


def _pellarin(spec, n, s, zdeg, prec, result):
    """Specialize t_i = theta (a(t) -> a), sum over z = 1 and compare with
    goss_zeta_eval at the exponent n - s; the tail past zdeg sits at
    valuation >= (n - s)(zdeg + 1) and each specialization costs one
    digit per power of theta."""
    if (result.gauss_valuation() or 0) < 0:
        return "negative Gauss valuation"
    for exp, c in result.terms.items():
        if c.valuation() is not None and c.valuation() < n * exp[-1]:
            return f"z^{exp[-1]} coefficient below valuation n*d"
    m = n - s
    cut = min(prec - s * zdeg, m * (zdeg + 1))
    theta = LaurentSeries.theta(spec, prec + 8)
    total = LaurentSeries.zero(spec, prec)
    for exp, c in result.terms.items():
        term = c
        for k in exp[:-1]:
            if k:
                term = term * theta ** k
        total = total + term
    return _agree(total, _goss_route(spec, m, cut), cut)


def _mzv_eval_inf(spec, idx, prec, result):
    if idx.depth == 1:
        return _agree(result, _goss_route(spec, idx.ns[0], prec), prec)
    # depth 2: chain sum over shell values taken from pellarin_L_series,
    # one shell past the certified cutoff
    cutoff = mzv._numeric_shell_cutoff(spec.q, idx.ns[0], prec)
    shells = {n: zeta.pellarin_L_series(spec, n, 0, cutoff, prec) for n in set(idx.ns)}
    zero = LaurentSeries.zero(spec, prec)
    tables = [(lambda n: (lambda d: shells[n].terms.get((d,), zero)))(n) for n in idx.ns]
    chains = _chain_sum(idx, tables, [cutoff, cutoff], ("z1", "z2"), lambda c: False)
    total = zero
    for c in chains.terms.values():
        total = total + c
    return _agree(result, total, prec)


def _vadic_zeta_eval(spec, P, ptv, result):
    ctx = ptv.ctx
    ref = vadic.vadic_exact_L(spec, -ptv.neg_y.as_int(), 0, P)
    for d in range(ptv.zdeg + 1):
        want = ref.terms.get((d,))
        want = ctx.reduce(want) if want is not None else ctx.zero()
        if result.terms.get((d,), ctx.zero()) != want:
            return f"z^{d} differs from vadic_exact_L mod P^k"
    return None


def check(prep, result):
    """None when `result` passes the job's check, else the reason."""
    job, spec, inp = prep.job, prep.spec, prep.inputs
    kind = job["kind"]
    if kind == "power_sum":
        return _power_sum(spec, job["d"], job["n"], result)
    if kind == "exact_L":
        return _exact_L(spec, job["n"], job["s"], result)
    if kind == "vadic_exact_L":
        return _vadic_exact_L(spec, job["n"], job["s"], inp["P"], result)
    if kind == "mzv_exact":
        return _mzv_exact(spec, inp["idx"], result)
    if kind == "mzv_vadic_exact":
        return _mzv_vadic_exact(spec, inp["idx"], inp["P"], result)
    if kind == "goss":
        pt = inp["pt"]
        return _agree(result, _laurent_z_route(spec, pt.neg_y.as_int(), pt.x, job["prec"]),
                      job["prec"])
    if kind == "twisted_finite":
        return _twisted_finite(spec, inp["finite"], inp["x"], job["prec"], result)
    if kind == "twisted_inf":
        # phi^l permutes the monic polynomials of each degree, and every
        # factor shares the point theta and the order l, so the product
        # is <a>^(y_1 + y_2) summed over a: the criterion-7 route again
        n = sum(f.zexp.as_int() for f in inp["infinite"])
        return _agree(result, _laurent_z_route(spec, n, inp["x"], job["prec"]), job["prec"])
    if kind == "pellarin":
        return _pellarin(spec, job["n"], job["s"], job["zdeg"], job["prec"], result)
    if kind == "mzv_eval_inf":
        return _mzv_eval_inf(spec, inp["idx"], job["prec"], result)
    if kind == "interpolation_gap":
        bound = vadic.interpolation_gap_bound(spec, job["ns"], inp["P"].degree, job["k"])
        return None if result >= bound else f"gap {result} below the bound {bound}"
    if kind == "vadic_zeta_eval":
        return _vadic_zeta_eval(spec, inp["P"], inp["ptv"], result)
    raise ValueError(f"no check for job kind {kind!r}")


def gap_slack(prep, result):
    """gap - bound for a finite interpolation gap, else None."""
    job = prep.job
    if job["kind"] != "interpolation_gap" or result == float("inf"):
        return None
    return result - vadic.interpolation_gap_bound(prep.spec, job["ns"], prep.inputs["P"].degree,
                                                  job["k"])
