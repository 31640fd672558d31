"""Brute-force verifiers for the vanishing results.

charsum_trial evaluates sum_w prod_i (x_i + f_i(w)) over an F_p vector
space W by full enumeration; the sum vanishes whenever
dim W > r / (p-1), and sharpness witnesses exist right at the
threshold.  For a field target every map lists its values on all of
W = F_p^dim in one order, built one coordinate at a time with the
field's add and mul tables from the target codes of its columns; the
pointwise products are then added up with the same tables.  For q <= 16
these lists are byte strings, one code a byte, run through the tables
with `bytes.translate` (`_charsum_field_bytes`).

threshold_scan sweeps the concrete vanishing claims (plain, twisted
and character power sums) against enumeration and reports any row
where a bound predicts zero but the value is not: such a row is a
failure of the build, not of the scan.  Every scan also lists each
cell where the library's value differs from the enumerated one
(`fast_path_mismatches`).

The enumerated power sums, prime-to-P sums and infinite-place shells
here are the independent side of the dual routes: the library computes
the same values from the degree recursion and the Euler-factor
identity, never by visiting the q^d monics.  The zeta polynomials with
t-weights (`enumerated_exact_L`) visit every monic, where the library's
t-shell visits one per scaling orbit.  The enumerated sums raise
each monic to its power with `_digit_power` here, not with the
kernels' `pow`, and the one-units at infinity with `_one_unit_power`,
not with `seriesinf.one_unit_pow`.  The twisted and character power
sums add up every monic's terms here, where the library sums over
slot assignments of linear forms and visits no monic: a monic's
product of symbolic twisted factors is one MPoly product per factor
(`_symbolic_product`), and `enumerated_char_power_sum` scales each
monic's power by its character value.  The twisted evaluation visits
every monic, as the library does away from c theta, but forms each
factor as a polynomial (`hyperderivative`, `frobenius_twist`) evaluated
by Horner's rule, where the library reads factors off per-shell rows
with field-code arithmetic; it has no code tables, merged factors or
scaling orbits, and it cuts no factor to a precision of its own, where
the library cuts each to its shell's target.  The v-adic
evaluation lifts and inverts every monic's Teichmuller part itself,
with no lift shared by a residue class.  The sums of a^(-n) in
A/(P^kappa) (`enumerated_local_power_sum`) invert every unit on its own,
by Euclid mod P and Newton steps on code lists, where the library uses
Carlitz's closed form; `carlitz_zeta` checks that closed form at
infinity with series arithmetic alone.
Where the library takes one integer power, the oracle keeps the
structural algorithms: one-units are raised by the digit product
prod_i (1 + w^(p^i))^(y_i) (`_one_unit_digit_power`), at infinity and in
A/(P^k), and the Teichmuller lift is the fixed point of x -> x^(q^dP)
(`_fixed_point_lift`), not `padic.teichmuller`'s single power.
"""

from __future__ import annotations

import itertools
import random

from .fields import (FieldSpec, FqElem, FrozenValue, ResidueChar, ZpExp, lq_digit_sum,
                     poly_add, poly_divmod, poly_mod, poly_mul, poly_powmod, poly_scale)
from ._kernels import RawSum, get_kernel
from .polyring import (APoly, MPoly, enumerate_monic, frobenius_twist, hyperderivative,
                       is_irreducible, monic_coeff_vectors)
from .seriesinf import LaurentSeries, PrecisionError
from .zeta import (power_sum, twisted_power_sum, twisted_stop_shell, twist_degree_weight,
                   char_power_sum, TwistFactor)
from .vadic import vadic_degree_bound

ENUMERATION_BUDGET = 10 ** 7


class CharsumConfig(FrozenValue):
    """Data for one character-sum trial.

    maps[i] is an F_p matrix with `dim` columns sending w to the target:
    rows are F_p coordinates of the target field (or coefficients of the
    symbolic basis when `basis` is given); offsets live in the target.
    `basis` is the MPoly basis of a symbolic target, None for a field.
    """

    __slots__ = ("p", "dim", "target", "maps", "offsets", "basis")

    def __init__(self, p: int, dim: int, target: FieldSpec, maps: tuple, offsets: tuple,
                 basis: tuple | None = None):
        super().__init__(p, dim, target, maps, offsets, basis)
        if self.target.p != self.p:
            raise ValueError("target characteristic differs from p")
        rows = len(self.basis) if self.basis is not None else self.target.e
        for m in self.maps:
            if any(len(row) != self.dim for row in m):
                raise ValueError("map matrices need dim-W columns")
            if len(m) != rows:
                raise ValueError(f"map matrices need {rows} rows for this target")

    @property
    def r(self) -> int:
        return len(self.maps)

    def predicted_zero(self) -> bool:
        return self.dim * (self.p - 1) > self.r


def charsum_trial(cfg: CharsumConfig):
    """sum_w prod_i (x_i + f_i(w)) by full enumeration of W = F_p^dim."""
    if cfg.p ** cfg.dim > ENUMERATION_BUDGET:
        raise ValueError(
            f"p^dim = {cfg.p ** cfg.dim} exceeds the enumeration budget {ENUMERATION_BUDGET}")
    if cfg.basis is not None:
        return _charsum_symbolic(cfg)
    if cfg.target.q <= 16:
        return _charsum_field_bytes(cfg)
    return _charsum_field_lists(cfg)


def _charsum_field_lists(cfg: CharsumConfig) -> FqElem:
    spec = cfg.target
    p = cfg.p
    add, mul = spec.add_table, spec.mul_table
    prod = [1] * p ** cfg.dim
    for m, x in zip(cfg.maps, cfg.offsets):
        # x + f(w) for every w, one coordinate at a time: column k's
        # target code is its F_p coordinates read as base-p digits, and
        # every map lists w = sum_k c_k e_k in the order of sum_k c_k p^k.
        vals = [x.code]
        for k in range(cfg.dim):
            col = sum(row[k] % p * p ** i for i, row in enumerate(m))
            vals = [add[t][v] for t in [mul[c][col] for c in range(p)] for v in vals]
        prod = [mul[a][b] for a, b in zip(prod, vals)]
    total = 0
    for v in prod:
        total = add[total][v]
    return FqElem(spec, total)


def _charsum_field_bytes(cfg: CharsumConfig) -> FqElem:
    """`_charsum_field_lists` with one byte per code, for q <= 16: a map's
    values take one `bytes.translate` through a row of the add table per
    coordinate and F_p multiple, a pointwise product packs a*q + b into one
    byte (one integer add over all of W) and translates it through the
    flattened mul table, and the sum counts each code."""
    spec = cfg.target
    p, q, size = cfg.p, spec.q, cfg.p ** cfg.dim
    add, mul = spec.add_table, spec.mul_table
    add_rows = [bytes(row) + bytes(256 - q) for row in add]
    mul_flat = bytes(itertools.chain.from_iterable(mul)) + bytes(256 - q * q)
    prod = bytes([1]) * size
    for m, x in zip(cfg.maps, cfg.offsets):
        vals = bytes([x.code])
        for k in range(cfg.dim):
            col = sum(row[k] % p * p ** i for i, row in enumerate(m))
            vals = b"".join(vals.translate(add_rows[mul[c][col]]) for c in range(p))
        packed = int.from_bytes(prod, "big") * q + int.from_bytes(vals, "big")
        prod = packed.to_bytes(size, "big").translate(mul_flat)
    total = 0
    for code in range(1, q):
        if count := prod.count(code) % p:
            total = add[total][mul[code][count]]  # count copies of code: code times F_p's count
    return FqElem(spec, total)


def _charsum_symbolic(cfg: CharsumConfig) -> MPoly:
    spec = cfg.target
    p = cfg.p
    names = cfg.offsets[0].vars if cfg.offsets else cfg.basis[0].vars
    total = MPoly.zero(names)
    for w in itertools.product(range(p), repeat=cfg.dim):
        prod = MPoly.const(names, FqElem(spec, 1))
        for m, x in zip(cfg.maps, cfg.offsets):
            value = x
            for row, b in zip(m, cfg.basis):
                c = sum(rc * wc for rc, wc in zip(row, w)) % p
                if c:
                    value = value + b.scale(FqElem(spec, c % spec.p))
            prod = prod * value
            if prod.is_zero():
                break
        total = total + prod
    return total


def random_charsum_config(rng: random.Random, p: int, dim: int, r: int,
                          target: FieldSpec | None = None,
                          basis=None) -> CharsumConfig:
    """Uniform matrices over F_p; offsets uniform in the target."""
    target = target or FieldSpec.default(p)
    rows = len(basis) if basis is not None else target.e
    maps = tuple(tuple(tuple(rng.randrange(p) for _ in range(dim)) for _ in range(rows))
                 for _ in range(r))
    if basis is not None:
        names = basis[0].vars
        offsets = tuple(MPoly.const(names, FqElem(target, rng.randrange(target.q)))
                        for _ in range(r))
    else:
        offsets = tuple(FqElem(target, rng.randrange(target.q)) for _ in range(r))
    return CharsumConfig(p, dim, target, maps, offsets, basis)


# ---------------------------------------------------------------------------
# enumeration-based power sums (the oracle side of the dual route)


def _digit_power(kernel, x, n: int):
    """x^n for n >= 0 from the base-q digits of n, low digit first: the
    running factor is x^(q^i) by Frobenius spreads, and digit d takes
    d - 1 products of that factor with itself.  The oracle's own power,
    kept apart from the kernels' `pow`."""
    if n < 0:
        raise ValueError(f"needs n >= 0, got {n}")
    if n == 0:
        return kernel.from_codes((1,))
    q = kernel.q
    result = None
    factor = x
    while n:
        d = n % q
        if d:
            piece = factor
            for _ in range(d - 1):
                piece = kernel.mul(piece, factor)
            result = piece if result is None else kernel.mul(result, piece)
        n //= q
        if n:
            factor = kernel.frob_spread(factor)
    return result


def enumerated_power_sum(spec: FieldSpec, d: int, n: int) -> APoly:
    """S_d(n) by plain enumeration of the q^d monic polynomials."""
    kernel = get_kernel(spec)
    total = RawSum(kernel, spec.p - 1)
    for vec in monic_coeff_vectors(spec, d):
        total.add(_digit_power(kernel, kernel.from_codes(vec + (1,)), n))
    return APoly(spec, kernel.to_codes(total.value))


def enumerated_prime_to_p_power_sum(spec: FieldSpec, d: int, n: int, P: APoly) -> APoly:
    """Sum of a^n over monic degree-d a not divisible by P, by enumeration."""
    if n < 0:
        raise ValueError("needs n >= 0")
    kernel = get_kernel(spec)
    total = RawSum(kernel, spec.p - 1)
    for a in enumerate_monic(spec, d):
        if (a % P).is_zero():
            continue
        total.add(_digit_power(kernel, kernel.from_codes(a.coeff_codes), n))
    return APoly(spec, kernel.to_codes(total.value))


def _unit_inverse(spec: FieldSpec, a, P, modulus, kappa: int):
    """a^(-1) mod P^kappa = modulus for a unit a, on code lists: the
    extended Euclid algorithm gives the inverse mod P, and Newton steps
    g -> g (2 - a g) double its P-adic digits up to kappa."""
    r0, r1 = list(P), poly_mod(spec, a, P)
    s0, s1 = [], [1]
    while r1:
        quo, rem = poly_divmod(spec, r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, poly_add(spec, s0, poly_scale(spec, poly_mul(spec, quo, s1), spec.neg_code(1)))
    g = poly_scale(spec, s0, spec.inv_code(r0[0]))
    two, digits = [spec.add_code(1, 1)], 1
    while digits < kappa:
        ag = poly_mod(spec, poly_mul(spec, a, g), modulus)
        g = poly_mod(spec, poly_mul(spec, g, poly_add(spec, two, poly_scale(
            spec, ag, spec.neg_code(1)))), modulus)
        digits *= 2
    return g


def enumerated_local_power_sum(spec: FieldSpec, P: APoly, kappa: int, d: int, n: int,
                               prime_to_p: bool):
    """(e, r) with sum a^(-n) = P^e r, n >= 1, over monic degree-d a (those
    prime to P only if asked), r mod P^kappa as an APoly: each monic is
    split as a = P^v u, and each unit u inverted on its own.  e is -n
    times the largest v of the summed monics."""
    if n < 1:
        raise ValueError("needs n >= 1")
    modulus = list((P ** kappa).coeff_codes)
    rows = []
    for a in enumerate_monic(spec, d):
        v = 0
        while (a % P).is_zero():
            a, v = a // P, v + 1
        if v == 0 or not prime_to_p:
            inverse = _unit_inverse(spec, list(a.coeff_codes), list(P.coeff_codes), modulus, kappa)
            rows.append((v, poly_powmod(spec, inverse, n, modulus)))
    top = max(v for v, _ in rows)
    total = APoly.zero(spec)
    for v, power in rows:
        total = total + P ** ((top - v) * n) * APoly(spec, power)
    return -top * n, total % APoly(spec, modulus)


def _enumerated_t_shells(spec: FieldSpec, N: int, s: int, degrees, skip=None) -> MPoly:
    """sum_d z^d sum_a a(t_1)...a(t_s) a^N over the monics a of each degree
    in `degrees`, those with skip(a) left out: each t-exponent tuple
    (j_1..j_s) gets its own sum, one coefficient position at a time."""
    names = tuple(f"t{i + 1}" for i in range(s)) + ("z",)
    kernel = get_kernel(spec)
    shell = {}
    for d in degrees:
        for a in enumerate_monic(spec, d):
            if skip is not None and skip(a):
                continue
            codes = a.coeff_codes
            apow = _digit_power(kernel, kernel.from_codes(codes), N)
            for js in itertools.product(range(d + 1), repeat=s):
                code = 1
                for j in js:
                    code = spec.mul_code(code, codes[j])
                if code:
                    key = js + (d,)
                    if key not in shell:
                        shell[key] = RawSum(kernel, kernel.scale_digit)
                    shell[key].add(kernel.scale(apow, code))
    terms = {key: APoly(spec, kernel.to_codes(acc.value)) for key, acc in shell.items()}
    return MPoly(names, {key: coeff for key, coeff in terms.items() if coeff})


def enumerated_exact_L(spec: FieldSpec, n: int, s: int, zdeg: int) -> MPoly:
    """exact_L's sum_d z^d sum_a a(t_1)...a(t_s) a^(-n), n <= 0, over every
    monic of degree d <= zdeg, with no degree bound and no scaling orbits."""
    if n > 0:
        raise ValueError("needs n <= 0")
    return _enumerated_t_shells(spec, -n, s, range(zdeg + 1))


def enumerated_vadic_exact_L(spec: FieldSpec, n: int, s: int, P: APoly) -> MPoly:
    """sum_d z^d sum_{P not| a} a(t_1)...a(t_s) a^(-n) for n <= 0, by
    enumeration of the monics prime to P up to the z-degree bound."""
    if n > 0:
        raise ValueError("needs n <= 0")
    if not is_irreducible(P):
        raise ValueError("P is reducible")
    return _enumerated_t_shells(spec, -n, s, range(vadic_degree_bound(spec, n, s, P.degree) + 1),
                                lambda a: (a % P).is_zero())


def enumerated_vadic_zeta_eval(ptv) -> MPoly:
    """vadic_zeta_eval's sum for a VadicPoint, monic by monic: every monic
    prime to P takes its own fixed-point Teichmuller lift, inverse and
    omega^delta, and the digit product of its one-unit part."""
    ctx = ptv.ctx
    order = ctx.residue_order()
    delta = ptv.delta % order if order > 1 else 0
    terms = {}
    for d in range(ptv.zdeg + 1):
        total = ctx.zero()
        for a in enumerate_monic(ctx.field, d):
            ar = ctx.reduce(a)
            if ar.vP() > 0:
                continue
            omega = _fixed_point_lift(ar)
            value = _padic_one_unit_power(ar * omega.inverse(), ptv.neg_y)
            if delta:
                value = value * omega ** delta
            total = total + value
        if total:
            terms[(d,)] = total
    return MPoly(("z",), terms)


def _one_unit_digit_power(w, digits, one, frobenius):
    """(1 + w)^y for y = sum_i digits[i] p^i, as prod_i (1 + w^(p^i))^digits[i];
    `frobenius` maps w^(p^i) to w^(p^(i+1)) and the product stops once
    that power is zero in the caller's ring."""
    result = one
    for i, d in enumerate(digits):
        if i:
            w = frobenius(w)  # w^(p^i)
        if w.is_zero():
            break
        if d:
            result = result * (one + w) ** d
    return result


def _fixed_point_lift(x):
    """The Teichmuller lift of a unit x of A/(P^k) as the fixed point of
    x -> x^(q^dP), which gains at least one P-adic digit a step, so k
    steps reach it.  The oracle's own lift, kept apart from
    `padic.teichmuller`."""
    ctx = x.ctx
    e = ctx.field.q ** ctx.dP
    for _ in range(ctx.k):
        nxt = x ** e
        if nxt == x:
            break
        x = nxt
    return x


def _padic_one_unit_power(u, y: ZpExp):
    """u^y for a one-unit u of A/(P^k) by the digit product, which stops
    once w^(p^i) = 0, at the latest when p^i >= k.  The oracle's own
    power, kept apart from `padic.padic_one_unit_pow`."""
    one = u.ctx.one()
    return _one_unit_digit_power(u - one, y.digits, one, lambda x: x ** y.p)


def _frobenius_step(x: LaurentSeries, prec: int) -> LaurentSeries:
    """x^p mod pi^prec.  While p v(x) < prec, x^p = x'^p mod pi^prec for x'
    the cut of x to pi^c, c = prec - (p-1) v(x), as (x - x')^p has
    valuation >= p c >= prec; x'^p is then known to exactly pi^prec.
    Past that, x^p is zero mod pi^prec."""
    p, v = x.spec.p, x.val
    if p * v >= prec:
        return LaurentSeries.zero(x.spec, prec)
    return x.truncate(prec - (p - 1) * v) ** p


def _one_unit_power(u: LaurentSeries, y: ZpExp) -> LaurentSeries:
    """u^y for a one-unit u as the digit product prod_i (1 + w^(p^i))^(y_i),
    w = u - 1, known mod pi^min(prec, p^M v(w)).  The oracle's own power,
    kept apart from `seriesinf.one_unit_pow`."""
    prec = u.prec
    one = LaurentSeries.one(u.spec, prec)
    w = u - one  # a w that is zero at its precision has val = prec
    value = _one_unit_digit_power(w, y.digits, one, lambda x: _frobenius_step(x, prec))
    return value.truncate(min(prec, y.p ** y.precision * w.val))


def enumerated_bracket_shell(spec: FieldSpec, d: int, neg_y: ZpExp, prec: int) -> LaurentSeries:
    """sum of <a>^(-y) over monic degree-d a, one one-unit power per monic.

    <a> = a / theta^d; the digits of -y are used as given, so the value
    is known mod pi^min(prec, p^M).
    """
    total = LaurentSeries.zero(spec, prec)
    for vec in monic_coeff_vectors(spec, d):
        bracket = LaurentSeries(spec, 0, (1,) + tuple(reversed(vec)), prec)
        total = total + _one_unit_power(bracket, neg_y)
    return total


def enumerated_inverse_shell(spec: FieldSpec, d: int, n: int, prec: int, s: int = 0) -> dict:
    """sum of a(t_1)...a(t_s) a^(-n) mod pi^prec over monic degree-d a, by
    series inversion: maps every t-exponent tuple (j_1..j_s), expanded
    one coefficient position at a time, to its coefficient, zero or not
    (s = 0 gives the single key ())."""
    total = {}
    for a in enumerate_monic(spec, d):
        inv = (LaurentSeries.from_apoly(a, prec).inverse() ** n).truncate(prec)
        for js in itertools.product(range(d + 1), repeat=s):
            code = 1
            for j in js:
                code = spec.mul_code(code, a.coeff_codes[j])
            total[js] = total.get(js, LaurentSeries.zero(spec, prec)) + inv.scale_code(code)
    return total


def carlitz_zeta(spec: FieldSpec, n: int, prec: int) -> LaurentSeries:
    """sum_{i>=0} l_i^(-n) mod pi^prec, l_i = prod_{j=1..i} (theta - theta^(q^j)).

    For 1 <= n <= q this is zeta(n) = sum_a a^(-n) over all monic a: the
    sum over the monics of degree i is l_i^(-n) (Carlitz, Duke Math. J. 1,
    1935; Anderson and Thakur, Ann. of Math. 132, 1990); past q it is not.
    Each factor is taken as 1/(theta - theta^(q^j)) =
    -pi^(q^j) sum_m pi^(m (q^j - 1)), written down coefficient by
    coefficient, so no series is inverted and no code is shared with the
    power sums or the shell sums.  l_i^(-n) has valuation n (q + ... + q^i),
    and the sum stops once that reaches prec."""
    q, total = spec.q, LaurentSeries.one(spec, prec)
    inverse, j = LaurentSeries.one(spec, prec), 1
    while n * (q ** (j + 1) - q) // (q - 1) < prec:  # v(l_j^(-n)) < prec
        codes = [0] * (prec - q ** j)
        codes[::q ** j - 1] = [spec.neg_code(1)] * len(codes[::q ** j - 1])
        inverse = inverse * LaurentSeries(spec, q ** j, codes, prec)
        total = total + inverse ** n
        j += 1
    return total


def _symbolic_product(a: APoly, factors, names, target: FieldSpec, code: int = 1) -> MPoly:
    """code * prod_i phi^(e_i)(a^(m_i))(t_i), factor i in the variable
    names[i], as one MPoly product per factor."""
    prod = MPoly.const(names, FqElem(target, code))
    for i, f in enumerate(factors):
        b = frobenius_twist(hyperderivative(a, f.hyper), f.frob)
        prod = prod * MPoly(names, {(0,) * i + (j,) + (0,) * (len(names) - i - 1):
                                    FqElem(target, c) for j, c in enumerate(b.coeff_codes)})
        if prod.is_zero():
            break
    return prod


def enumerated_twisted_power_sum(spec: FieldSpec, d: int, factors,
                                 char: ResidueChar | None = None) -> MPoly:
    """twisted_power_sum monic by monic, each monic's product of factors
    an MPoly product."""
    factors = list(factors)
    for f in factors:
        if f.kind != "finite" or f.point is not None:
            raise ValueError("twisted_power_sum takes symbolic finite factors only")
    target = char.residue_field if char is not None else spec
    names = tuple(f"t{i + 1}" for i in range(len(factors)))
    total = MPoly.zero(names)
    for a in enumerate_monic(spec, d):
        chi_code = char.eval_codes(a.coeff_codes) if char is not None else 1
        if chi_code:
            total = total + _symbolic_product(a, factors, names, target, chi_code)
    return total


def enumerated_char_power_sum(spec: FieldSpec, d: int, chi: ResidueChar, n: int):
    """char_power_sum monic by monic: each monic prime to P is raised to n
    with `_digit_power` and scaled by its character value."""
    if n < 0:
        raise ValueError("needs n >= 0")
    rspec = chi.residue_field
    kernel = get_kernel(spec) if n else None  # n = 0 reads only character values
    acc = []
    for vec in monic_coeff_vectors(spec, d):
        codes = vec + (1,)
        chi_code = chi.eval_codes(codes)
        if chi_code:
            apow = kernel.to_codes(_digit_power(kernel, kernel.from_codes(codes), n)) if n else (1,)
            # F_q coefficients keep their code in the residue extension
            acc = poly_add(rspec, acc, poly_scale(rspec, list(apow), chi_code))
    if n == 0:
        return FqElem(rspec, acc[0] if acc else 0)
    return APoly(rspec, acc)


def enumerated_twisted_L_eval(finite, infinite, x: LaurentSeries, prec: int):
    """twisted_L_eval's sum over the same shells, monic by monic: every
    factor is evaluated by Horner's rule at its point, and every infinite
    factor takes its own one-unit power, merged with no other factor.
    Nothing is cut: a monic's product starts at its first factor and keeps
    the precision its factors carry, and a symbolic part scales it by its
    code.  A monic with no numeric or infinite factor contributes the
    exact 1, written as 1 known to the relative precision of x^(-d), so its
    product with x^(-d) loses nothing; at d = 0 the weight x^0 = 1 is
    needed only to pi^prec."""
    finite = list(finite)
    infinite = list(infinite)
    stop = twisted_stop_shell(finite, infinite, x, prec)
    spec = x.spec
    sym_names = tuple(f"t{i + 1}" for i, f in enumerate(finite) if f.point is None)
    symbolic = bool(sym_names)
    x_inv = x.inverse()
    y_inv = [f.point.inverse() for f in infinite]

    def shell_value(d, one):
        acc = {}  # t-exponents -> series, zero sums kept for their precision
        y_inv_d = [yi ** d for yi in y_inv]
        for a in enumerate_monic(spec, d):
            sym_part = _symbolic_product(a, [f for f in finite if f.point is None],
                                         sym_names, spec)
            if sym_part.is_zero():
                continue
            factors = [frobenius_twist(hyperderivative(a, f.hyper), f.frob).eval(f.point)
                       for f in finite if f.point is not None]
            factors += [_one_unit_power(frobenius_twist(a, f.frob).eval(f.point) * yid, f.zexp)
                        for f, yid in zip(infinite, y_inv_d)]
            value = factors[0] if factors else one
            for factor in factors[1:]:
                value = value * factor
            for key, c in sym_part.terms.items():
                piece = value.scale_code(c.code) if symbolic else value
                acc[key] = acc[key] + piece if key in acc else piece
        return acc

    total = {}
    for d in range(stop):
        weight = x_inv ** d if d else LaurentSeries.one(spec, prec)
        for key, c in shell_value(d, weight.ring_one()).items():
            total[key] = total[key] + c * weight if key in total else c * weight
    # every coefficient counts, also one whose sum is zero at its precision
    low = min((c.prec for c in total.values()), default=prec)
    if low < prec:
        raise PrecisionError(
            f"propagated precision {low} fell below the requested {prec}", precision=low)
    if symbolic:
        return MPoly(sym_names, {key: c.truncate(prec) for key, c in total.items()})
    return total[()].truncate(prec)


# ---------------------------------------------------------------------------
# threshold scans


def threshold_scan(kind: str, *, spec: FieldSpec | None = None, d_max: int = 4,
                   n_max: int = 32, s_max: int = 4, P: APoly | None = None,
                   delta: int = 1, budget: int = ENUMERATION_BUDGET) -> dict:
    """Sweep one family of vanishing claims and report every cell.

    Rows record (parameters, observed zero, predicted by the bound);
    a predicted-but-nonzero row is a violation and lands in the
    report's `violations` list.  Cells beyond the enumeration budget
    are skipped and the report is flagged incomplete.
    """
    if kind == "powersum":
        return _scan_powersum(spec, d_max, n_max, budget)
    if kind == "twisted":
        return _scan_twisted(spec, d_max, s_max, budget)
    if kind == "char":
        if P is None:
            raise ValueError("char scan needs P")
        return _scan_char(spec, P, delta, d_max, budget)
    raise ValueError(f"unknown scan kind {kind!r}")


def _scan_powersum(spec, d_max, n_max, budget):
    rows = []
    violations = []
    mismatches = []
    complete = True
    q = spec.q
    for d in range(d_max + 1):
        if q ** d * max(n_max, 1) > budget:
            complete = False
            continue
        for n in range(n_max + 1):
            value = enumerated_power_sum(spec, d, n)
            zero = value.is_zero()
            predicted = d * (q - 1) > lq_digit_sum(n, q)
            rows.append({"q": q, "d": d, "n": n, "zero": zero, "predicted": predicted})
            if predicted and not zero:
                violations.append(rows[-1])
            if power_sum(spec, d, n) != value:
                mismatches.append({"q": q, "d": d, "n": n})
    report = {"kind": "powersum", "q": q, "rows": rows, "violations": violations,
              "fast_path_mismatches": mismatches, "complete": complete}
    report["observed_thresholds"] = _sharp_thresholds(rows, key="n")
    return report


def _scan_twisted(spec, d_max, s_max, budget):
    rows = []
    violations = []
    mismatches = []
    complete = True
    q = spec.q
    for s in range(s_max + 1):
        for orders in dict.fromkeys(((0,) * s, tuple(i % spec.e for i in range(s)))):
            factors = [TwistFactor("finite", frob=f) for f in orders]
            weight = twist_degree_weight(spec, factors)
            for d in range(d_max + 1):
                if q ** d * (d + 1) ** s > budget:
                    complete = False
                    continue
                value = enumerated_twisted_power_sum(spec, d, factors)
                zero = value.is_zero()
                predicted = d * (q - 1) > weight
                rows.append({"q": q, "s": s, "orders": list(orders), "d": d, "zero": zero,
                             "predicted": predicted})
                if predicted and not zero:
                    violations.append(rows[-1])
                if twisted_power_sum(spec, d, factors) != value:
                    mismatches.append({"q": q, "s": s, "orders": list(orders), "d": d})
    return {"kind": "twisted", "q": q, "rows": rows, "violations": violations,
            "fast_path_mismatches": mismatches, "complete": complete}


def _scan_char(spec, P, delta, d_max, budget):
    chi = ResidueChar(spec, P.coeff_codes, delta)
    rows = []
    violations = []
    mismatches = []
    complete = True
    q = spec.q
    bound = P.degree + 1
    for d in range(d_max + 1):
        if q ** d > budget:
            complete = False
            continue
        value = enumerated_char_power_sum(spec, d, chi, 0)
        zero = not value
        predicted = d >= bound
        rows.append({"q": q, "dP": P.degree, "delta": chi.delta, "d": d,
                     "zero": zero, "predicted": predicted})
        if predicted and not zero:
            violations.append(rows[-1])
        if char_power_sum(spec, d, chi, 0) != value:
            mismatches.append({"q": q, "dP": P.degree, "delta": chi.delta, "d": d})
    observed = max((r["d"] for r in rows if not r["zero"]), default=-1) + 1
    return {"kind": "char", "q": q, "rows": rows, "violations": violations,
            "fast_path_mismatches": mismatches, "complete": complete,
            "observed_threshold": observed, "bound": bound}


def _sharp_thresholds(rows, key):
    """Per remaining parameters, the first grid point where zeros set in."""
    out = {}
    groups = {}
    for r in rows:
        g = tuple((k, v) for k, v in r.items() if k not in (key, "zero", "predicted"))
        groups.setdefault(g, []).append(r)
    for g, rs in groups.items():
        nonzero = [r[key] for r in rs if not r["zero"]]
        out[str(dict(g))] = (max(nonzero) + 1) if nonzero else 0
    return out
