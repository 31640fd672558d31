"""Zeta objects at the infinite place.

Power sums S_d(n) = sum of a^n over the q^d monic polynomials of
degree d drive everything here: they vanish once d(q-1) exceeds the
base-q digit sum of n, which makes the zeta polynomials finite and
gives computable tail bounds for evaluation at p-adic exponents.

S_d(n) is computed by the degree recursion obtained from the bijection
a = theta*b + c (b monic of degree d-1, c in F_q):

    S_d(n) = - sum_{k} C(n, k) theta^k S_{d-1}(k)

over k < n with C(n, k) nonzero mod p and (q-1) | n - k, with
S_0(n) = 1.  The recursion is cross-checked against plain enumeration
by the scan oracle and the test suite; only `power_sum` caches on disk.
`vadic` runs the same loop in A/(P^kappa), with that ring's theta^k
product and reduction.

Evaluation at a p-adic exponent y truncates the shell sum using the
digit certificate: cutting the base-q digits of the exponent at level
l changes one-unit powers by at most pi^(q^(l+1)), and the truncated
exponent has digit sum at most (l+1)(q-1)+1, so the inner sum vanishes
once d(q-1) > (l+1)(q-1)+1.  Taking l+1 = d-2 certifies
v(c_d) >= q^(d-2) for d >= 2; the test suite re-validates this bound
against brute force before it is trusted.

The shells themselves come from the same recursion, not from the q^d
monics.  Let M' be least with p^M' >= prec and N the integer spelled
by the digits of -y reduced mod p^M'; higher digits multiply each
term by <a>^(p^M') = 1 mod pi^prec.  Every term is then exactly
<a>^N mod pi^prec, and <a> = a / theta^d gives

    c_d = sum_{a in A_{+,d}} <a>^N = pi^(dN) S_d(N)   (mod pi^prec).

The numeric multiple zeta shells and the Pellarin series use the same
identity a^(-n) = pi^(d p^M') a^(p^M' - n) mod pi^prec, p^M' >= max(prec, n).
These evaluations never touch the disk cache; `oracle.py` keeps the
per-monic sums as checks.  The t-weights a(t_1)...a(t_s) keep a shell
per monic: one t-shell sums them times a^N in A, for exact_L at N = -n.

The twisted evaluation still visits the monics of each shell, with no
series product before a monic's one-unit power.  Infinite factors at
one point whose Frobenius orders agree mod e share the base
<phi^l(a)(y) / y^d> and merge into one factor with the Z_p sum of their
exponents.  Each remaining factor forms B_j = y^j y^(-d), j = 0..d,
once per shell, and a monic's one-unit sum_j phi^l(c_j) B_j is added
up with field-code arithmetic.
"""

from __future__ import annotations

import fcntl
import hashlib
import itertools
import json
import math
import os
from pathlib import Path

from . import fields
from ._kernels import MAX_PACKED_P, RawSum, get_kernel, raw_to_apoly
from .fields import FieldSpec, FqElem, FrozenValue, ZpExp, ResidueChar, lq_digit_sum
from .polyring import APoly, MPoly, enumerate_monic, monic_coeff_vectors, frobenius_twist, hyperderivative
from .seriesinf import LaurentSeries, PrecisionError, one_unit_pow


# ---------------------------------------------------------------------------
# twist data


class TwistFactor(FrozenValue):
    """One factor of a twisted sum.

    finite:   phi^frob(a^(hyper)) evaluated at `point` (None = symbolic).
    infinite: <phi^frob(a) at point> ^ zexp, needing v(point) < 0.
    """

    __slots__ = ("kind", "frob", "hyper", "point", "zexp")

    def __init__(self, kind: str, frob: int = 0, hyper: int = 0, point: object = None,
                 zexp: ZpExp | None = None):
        super().__init__(kind, frob, hyper, point, zexp)
        if self.kind not in ("finite", "infinite"):
            raise ValueError(f"unknown factor kind {self.kind!r}")
        if self.frob < 0 or self.hyper < 0:
            raise ValueError("Frobenius and hyperderivative orders must be >= 0")
        if self.kind == "infinite":
            if self.hyper:
                raise ValueError("infinite factors take no hyperderivative")
            if self.zexp is None:
                raise ValueError("infinite factors need an exponent")
            if not isinstance(self.point, LaurentSeries):
                raise ValueError("infinite factors need a Laurent evaluation point")
            if self.point.valuation() is None or self.point.valuation() >= 0:
                raise ValueError("infinite factor points must have negative valuation")
        else:
            if self.zexp is not None:
                raise ValueError("finite factors take no exponent")


class SInftyPoint(FrozenValue):
    """A point (x; y) of the evaluation domain; stores the digits of -y."""

    __slots__ = ("x", "neg_y")

    def __init__(self, x: LaurentSeries, neg_y: ZpExp):
        super().__init__(x, neg_y)
        if self.x.is_zero():
            raise ValueError("x must be nonzero at its precision")


# ---------------------------------------------------------------------------
# power-sum cache


def _default_cache_dir() -> Path:
    env = os.environ.get("FFZETA_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "ffzeta"


class PowerSumCache:
    """Write-through JSON-lines store for power sums, keyed by content hash.

    It holds public `power_sum` results only, under FFZETA_CACHE.  Lines
    are `{"key": "<64 hex digits>", "coeffs": [...]}`, indexed by key on
    first use (the last line of a key wins) and decoded when first looked
    up.  Malformed lines are skipped and recomputed, `put` rewrites a line
    whose value differs, and appends are serialized by a file lock.
    """

    _PREFIX = '{"key": "'
    _KEY_END = len(_PREFIX) + 64

    def __init__(self, directory: Path | str | None = None):
        self.directory = Path(directory) if directory is not None else _default_cache_dir()
        self.path = self.directory / "powersums.jsonl"
        self._mem: dict[str, tuple] = {}
        self._lines: dict[str, str] = {}  # raw lines not yet decoded
        self._loaded = False

    @staticmethod
    def key(spec: FieldSpec, d: int, n: int) -> str:
        payload = json.dumps([repr(spec._key()), d, n], sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()

    def _load(self):
        self._loaded = True
        try:
            lines = self.path.read_text().splitlines()
        except OSError:
            return
        end = self._KEY_END
        for line in lines:
            if line.startswith(self._PREFIX) and line[end:end + 1] == '"':
                self._lines[line[len(self._PREFIX):end]] = line

    def _lookup(self, key: str):
        """The stored coefficients of `key`, or None; decodes its line once."""
        if not self._loaded:
            self._load()
        line = self._lines.pop(key, None)
        if line is not None:
            try:
                doc = json.loads(line)
                coeffs = doc["coeffs"]
                if doc["key"] == key and all(isinstance(c, int) for c in coeffs):
                    self._mem[key] = tuple(coeffs)
            except (json.JSONDecodeError, TypeError, KeyError):
                pass  # corrupt entry: recompute rather than trust
        return self._mem.get(key)

    def get(self, key: str):
        return self._lookup(key)

    def put(self, key: str, coeffs):
        if self._lookup(key) == tuple(coeffs):
            return
        self._mem[key] = tuple(coeffs)
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            with open(self.path, "a") as fh:
                fcntl.flock(fh, fcntl.LOCK_EX)
                # json.dumps keeps insertion order, so the line starts with _PREFIX
                fh.write(json.dumps({"key": key, "coeffs": list(coeffs)}) + "\n")
                fcntl.flock(fh, fcntl.LOCK_UN)
        except OSError:
            pass  # cache is an accelerator, never a requirement


_caches: dict[str, PowerSumCache] = {}


def default_cache() -> PowerSumCache:
    path = str(_default_cache_dir())
    if path not in _caches:
        _caches[path] = PowerSumCache(path)
    return _caches[path]


# ---------------------------------------------------------------------------
# power sums


def _lucas_support(n: int, p: int):
    """All k with C(n, k) nonzero mod p, with the coefficient, via Lucas.

    Built digit by digit; the lowest digit varies slowest, which is the
    order the recursion visits children in.
    """
    out = [(0, 1)]
    for i, nd in enumerate(fields.base_digits(n, p) or [0]):
        row = [(kd * p ** i, math.comb(nd, kd) % p) for kd in range(nd + 1)]
        out = [(k + dk, b * c % p) for k, b in out for dk, c in row]
    return out


def _recursion_children(spec: FieldSpec, d: int, n: int):
    """The terms (k, C(n, k) mod p) of the degree recursion for S_d(n).

    Keeps k < n with (q-1) | n - k whose child S_{d-1}(k) is not known
    to vanish; every recursion for S_d(n) walks these children.
    """
    q = spec.q
    return [(k, b) for k, b in _lucas_support(n, spec.p)
            if k < n and (n - k) % (q - 1) == 0 and not power_sum_vanishes(spec, d - 1, k)]


def _plausible_power_sum(spec: FieldSpec, d: int, n: int, codes) -> bool:
    """Cheap checks on a cached S_d(n) before it is trusted.

    Its codes lie in [0, q), it has at most d*n + 1 coefficients (the
    degree bound) and it is empty when the vanishing predicate holds.
    """
    return (len(codes) <= d * n + 1 and all(0 <= c < spec.q for c in codes)
            and not (codes and power_sum_vanishes(spec, d, n)))


def _power_sum_raw(spec, kernel, d, n, memo, times_theta=None, reduce=None):
    """S_d(n) by the degree recursion, memoized; a quotient ring A/(m)
    passes its theta^k product `times_theta(raw, k)` and reduction for
    the shift and normalization of A, and gets S_d(n) mod m."""
    key = (d, n)
    if key in memo:
        return memo[key]
    if d == 0:
        raw = kernel.from_codes((1,))
        memo[key] = raw
        return raw
    times_theta = times_theta or kernel.shift
    reduce = reduce or kernel.normalize
    total = RawSum(kernel, kernel.scale_digit)
    for k, b in _recursion_children(spec, d, n):
        child = _power_sum_raw(spec, kernel, d - 1, k, memo, times_theta, reduce)
        if kernel.is_zero(child):
            continue
        total.add(kernel.scale(times_theta(child, k), spec.neg_code(b)))
    total = reduce(total.value)
    memo[key] = total
    return total


_memo_by_spec: dict = {}


def power_sum(spec: FieldSpec, d: int, n: int, cache: PowerSumCache | None = None) -> APoly:
    """S_d(n) = sum of a^n over monic degree-d polynomials, exactly.

    Zero whenever d(q-1) > lq(n).  Taken from the memo, a plausible disk
    line or the recursion, then stored on disk keyed by (field, d, n).
    """
    if d < 0 or n < 0:
        raise ValueError("power_sum needs d, n >= 0")
    if cache is None:
        cache = default_cache()
    kernel = get_kernel(spec)
    memo = _memo_by_spec.setdefault(spec._key(), {})
    ckey = PowerSumCache.key(spec, d, n)
    raw = memo.get((d, n))
    if raw is None:
        hit = cache.get(ckey) if d else None  # S_0(n) = 1 needs no lookup
        if hit is not None and _plausible_power_sum(spec, d, n, hit):
            raw = memo[(d, n)] = kernel.from_codes(hit)
        else:
            raw = _power_sum_raw(spec, kernel, d, n, memo)
    value = raw_to_apoly(kernel, raw)
    cache.put(ckey, value.coeff_codes)
    return value


def power_sum_vanishes(spec: FieldSpec, d: int, n: int) -> bool:
    """The digit-sum vanishing predicate d(q-1) > lq(n)."""
    return d * (spec.q - 1) > lq_digit_sum(n, spec.q)


def least_p_power(p: int, bound: int) -> int:
    """The least power p^M with p^M >= bound."""
    power = 1
    while power < bound:
        power *= p
    return power


def shell_sum(spec: FieldSpec, d: int, n: int, shift: int, prec: int) -> LaurentSeries:
    """pi^shift * S_d(n) as a Laurent series known mod pi^prec.

    S_d(n) has degree at most d*n in theta, so the value has valuation at
    least shift - d*n; it is computed from the memoized recursion, never
    from the disk cache.  Fields the packed kernel cannot hold (p > 251)
    sum pi^(shift - d*n) <a>^n over the monics instead.
    """
    low = shift - d * n
    if power_sum_vanishes(spec, d, n) or low >= prec:
        return LaurentSeries.zero(spec, prec)
    if spec.p > MAX_PACKED_P:
        total = LaurentSeries.zero(spec, prec - low)
        for vec in monic_coeff_vectors(spec, d):
            bracket = LaurentSeries(spec, 0, (1,) + tuple(reversed(vec)), prec - low)
            total = total + bracket ** n
        return total.shift(low)
    kernel = get_kernel(spec)
    memo = _memo_by_spec.setdefault(spec._key(), {})
    codes = kernel.to_codes(_power_sum_raw(spec, kernel, d, n, memo))
    return LaurentSeries(spec, shift - len(codes) + 1, codes[::-1], prec)


# ---------------------------------------------------------------------------
# twisted and character power sums


def _symbolic_factor(a: APoly, factor: TwistFactor, var_names, index, target_spec):
    b = frobenius_twist(hyperderivative(a, factor.hyper), factor.frob)
    terms = {}
    arity = len(var_names)
    for j, code in enumerate(b.coeff_codes):
        if code:
            exp = [0] * arity
            exp[index] = j
            terms[tuple(exp)] = FqElem(target_spec, code)
    return MPoly(var_names, terms)


def twisted_power_sum(spec: FieldSpec, d: int, factors, char: ResidueChar | None = None) -> MPoly:
    """Sum over monic degree-d a of chi(a) * prod phi^e_i(a^(m_i))(t_i).

    All factor points are symbolic.  Without a character, the sum is
    exactly zero once d(q-1) > twist_degree_weight(factors); for equal
    Frobenius orders that is d > s/(q-1), and mixed orders vanish later.
    """
    factors = list(factors)
    for f in factors:
        if f.kind != "finite" or f.point is not None:
            raise ValueError("twisted_power_sum takes symbolic finite factors only")
    target = char.residue_field if char is not None else spec
    names = tuple(f"t{i + 1}" for i in range(len(factors)))
    total = MPoly.zero(names)
    for a in enumerate_monic(spec, d):
        if char is not None:
            chi_code = char.eval_codes(a.coeff_codes)
            if chi_code == 0:
                continue
            prod = MPoly.const(names, FqElem(target, chi_code))
        else:
            prod = MPoly.const(names, FqElem(target, 1))
        for i, f in enumerate(factors):
            prod = prod * _symbolic_factor(a, f, names, i, target)
            if prod.is_zero():
                break
        total = total + prod
    return total


def char_power_sum(spec: FieldSpec, d: int, chi: ResidueChar, n: int):
    """Sum of chi(a) a^n over monic degree-d a prime to P.

    Returns an FqElem of the residue field for n = 0, otherwise an APoly
    over the residue field.  For n = 0 the sum vanishes for all
    d >= deg(P) + 1.
    """
    if n < 0:
        raise ValueError("char_power_sum needs n >= 0")
    rspec = chi.residue_field
    kernel = get_kernel(spec)
    acc = []
    for vec in monic_coeff_vectors(spec, d):
        codes = vec + (1,)
        chi_code = chi.eval_codes(codes)
        if chi_code == 0:
            continue
        if n == 0:
            apow_codes = (1,)
        else:
            apow_codes = kernel.to_codes(kernel.pow(kernel.from_codes(codes), n))
        # F_q coefficients keep their code in the residue extension
        scaled = fields.poly_scale(rspec, list(apow_codes), chi_code)
        acc = fields.poly_add(rspec, acc, scaled)
    if n == 0:
        return FqElem(rspec, acc[0] if acc else 0)
    return APoly(rspec, acc)


# ---------------------------------------------------------------------------
# exact zeta / Pellarin polynomials (non-positive exponents)


def exact_L_degree_bound(spec: FieldSpec, n: int, s: int) -> int:
    return (s + lq_digit_sum(-n, spec.q)) // (spec.q - 1)


def _t_shell(spec: FieldSpec, kernel, d: int, s: int, N: int, convert) -> dict:
    """The z^d terms of sum_a a(t_1)...a(t_s) a^N over monic degree-d a.

    All arrangements of one multiset of t-exponents share a coefficient,
    so each is summed once, its codes go through `convert` and the
    result is shared; zero coefficients are left out."""
    shell = {}
    for vec in monic_coeff_vectors(spec, d):
        codes = vec + (1,)
        apow = kernel.pow(kernel.from_codes(codes), N)
        support = [(j, c) for j, c in enumerate(codes) if c]
        for ms in itertools.combinations_with_replacement(support, s):
            prod_code = 1
            for _, c in ms:
                prod_code = spec.mul_code(prod_code, c)
            key = tuple(j for j, _ in ms)
            if key not in shell:
                shell[key] = RawSum(kernel, kernel.scale_digit)
            shell[key].add(kernel.scale(apow, prod_code))
    terms = {}
    for ms_key, acc in shell.items():
        coeff = convert(kernel.to_codes(acc.value))
        if coeff:
            for perm in set(itertools.permutations(ms_key)):
                terms[perm + (d,)] = coeff
    return terms


def exact_L(spec: FieldSpec, n: int, s: int) -> MPoly:
    """The zeta polynomial sum_d z^d sum_a a(t_1)...a(t_s) a^(-n), n <= 0.

    Exact output in variables (t_1..t_s, z) with coefficients in A; the
    z-degree is bounded by (s + lq(-n)) / (q-1), and the value at z = 1
    vanishes whenever s - n is a positive multiple of q - 1.
    """
    if n > 0:
        raise ValueError("positive exponents are series; use pellarin_L_series")
    if s < 0:
        raise ValueError("s must be >= 0")
    names = tuple(f"t{i + 1}" for i in range(s)) + ("z",)
    terms = {}
    kernel = get_kernel(spec)
    for d in range(exact_L_degree_bound(spec, n, s) + 1):
        if s == 0:
            coeff = power_sum(spec, d, -n)
            if coeff:
                terms[(d,)] = coeff
        else:
            terms.update(_t_shell(spec, kernel, d, s, -n, lambda codes: APoly(spec, codes)))
    return MPoly(names, terms)


def pellarin_L_series(spec: FieldSpec, n: int, s: int, zdeg: int, prec: int) -> MPoly:
    """Truncation of the positive-exponent series sum_d z^d sum_a a(t)/a^n.

    Each (t, z)-monomial coefficient is exact mod pi^prec; the z^d
    coefficient has Gauss valuation at least n*d, so zdeg >= prec/n
    certifies the tail below pi^prec for evaluation points of Gauss
    norm <= 1.  Shell d is the t-shell at p^M' - n times pi^(d p^M')
    (module docstring), so it vanishes past
    exact_L_degree_bound(spec, n - p^M', s) and the loop stops there; like
    exact_L, it needs p <= 251.
    """
    if n < 1:
        raise ValueError("pellarin_L_series needs n >= 1; use exact_L for n <= 0")
    if s < 0:
        raise ValueError("s must be >= 0")
    if zdeg < 0 or prec < 1:
        raise ValueError("need zdeg >= 0 and prec >= 1")
    names = tuple(f"t{i + 1}" for i in range(s)) + ("z",)
    big = least_p_power(spec.p, max(prec, n))
    terms = {}
    kernel = get_kernel(spec)
    # shells with d n >= prec vanish mod pi^prec, and so do those past the degree count
    for d in range(min(zdeg, (prec - 1) // n, exact_L_degree_bound(spec, n - big, s)) + 1):
        terms.update(_t_shell(spec, kernel, d, s, big - n, lambda codes: LaurentSeries(
            spec, d * big - len(codes) + 1, codes[::-1], prec)))
    return MPoly(names, terms)


def zpoly_eval_laurent(poly: MPoly, subs: dict, prec: int) -> LaurentSeries:
    """Evaluate an MPoly with APoly coefficients at Laurent points."""
    spec = None
    for value in subs.values():
        spec = value.spec
    if spec is None:
        raise ValueError("need at least one substitution value")
    total = LaurentSeries.zero(spec, prec)
    for exp, coeff in poly.terms.items():
        term = (LaurentSeries.from_apoly(coeff, prec) if isinstance(coeff, APoly)
                else coeff)
        for name, k in zip(poly.vars, exp):
            if k:
                term = term * subs[name] ** k
        total = total + term
    return total


# ---------------------------------------------------------------------------
# tail certificates and evaluation at p-adic exponents


def infty_coeff_valuation_bound(q: int, d: int, s: int = 0, n_inf: int = 1) -> int:
    """Certified lower bound on the valuation of the degree-d inner sum.

    With s linear factors and n_inf one-unit exponent factors, digit
    truncation at level l leaves exponents of digit sum at most
    (l+1)(q-1)+1 each, and the truncated sum vanishes once
    d(q-1) > s + n_inf((l+1)(q-1)+1); the bound is q^(l+1) for the
    largest admissible l.  Plain case (s=0, n_inf=1): q^(d-2) for d >= 2.
    """
    if n_inf < 1:
        raise ValueError("certificate applies to sums with exponent factors")
    num = d * (q - 1) - s - n_inf - 1
    if num < 0:
        return 0
    l1 = num // (n_inf * (q - 1))
    return q ** l1 if l1 >= 0 else 0


def _stop_shell(q, prec, s, n_inf, loss_rate):
    """First D with every shell d >= D certified below pi^prec.

    loss_rate L bounds the per-shell linear valuation loss (the x-power
    and any negative-valuation finite points), so shell d has valuation
    at least cert(d) - L*d.  cert never decreases and multiplies by at
    least q every n_inf shells, hence cert(D) >= prec + L*(D + n_inf)
    together with cert(D) >= L*n_inf certifies the whole tail: in block
    j the bound is q^j cert(D) - L(D + (j+1) n_inf), and induction on j
    keeps it >= prec.
    """
    L = max(loss_rate, 0)
    for d in range(2, 10_000):
        cert = infty_coeff_valuation_bound(q, d, s, n_inf)
        if cert >= prec + L * (d + n_inf) and cert >= L * n_inf:
            return d
    raise PrecisionError("no certified stopping shell found", precision=prec)


def goss_zeta_eval(pt: SInftyPoint, prec: int) -> LaurentSeries:
    """Evaluate sum_d x^(-d) sum_a <a>^(-y) to the requested precision.

    The point stores the digits of -y; the shell sum stops once the
    certified bound v(c_d) >= q^(d-2) pushes the tail below pi^prec.
    Needs p^M >= prec digits and x known to relative precision >= prec.
    Shell d is pi^(dN) S_d(N) with N the digits of -y mod the least
    p^M' >= prec (see the module docstring).
    """
    if prec < 1:
        raise ValueError("need prec >= 1")
    x = pt.x
    spec = x.spec
    q, p = spec.q, spec.p
    if p ** pt.neg_y.precision < prec:
        raise PrecisionError(
            f"need p^M >= prec = {prec}; supply more exponent digits",
            precision=p ** pt.neg_y.precision)
    if x.rel_prec() < prec:
        raise PrecisionError(
            f"x must be known to relative precision >= {prec}", precision=x.rel_prec())
    vx = x.valuation()
    stop = _stop_shell(q, prec, 0, 1, vx)
    x_inv = x.inverse()
    N = pt.neg_y.as_int() % least_p_power(p, prec)
    total = LaurentSeries.one(spec, prec)  # d = 0 shell: the single a = 1
    x_pow = LaurentSeries.one(spec, prec + stop * max(-vx, vx) + stop)
    for d in range(1, stop):
        x_pow = x_pow * x_inv
        c_d = shell_sum(spec, d, N, d * N, prec)
        if c_d.is_zero():
            continue
        total = total + c_d * x_pow
    if total.prec < prec:
        raise PrecisionError(
            f"propagated precision {total.prec} fell below the requested {prec}",
            precision=total.prec)
    return total.truncate(prec)


def twist_degree_weight(spec: FieldSpec, finite) -> int:
    """min over c of sum_i p^((e_i - c) mod e), q = p^e: the degree in a's
    coefficients of a product of finite factors, each an F_p-linear form
    in phi^(e_i) of them, once a common Frobenius (which permutes the
    monics) is divided out."""
    return min(sum(spec.p ** ((f.frob - c) % spec.e) for f in finite) for c in range(spec.e))


def twisted_stop_shell(finite, infinite, x: LaurentSeries, prec: int) -> int:
    """Check the factors of a twisted sum and return its number of shells.

    W = twist_degree_weight(finite) counts the finite factors.  With no
    infinite factors the sum is finite: shell d vanishes once
    d(q-1) > W, as for twisted_power_sum.  With infinite factors, the
    certified stop of `_stop_shell` for W linear degrees and one exponent
    per infinite factor left after `_merge_infinite`.
    """
    if prec < 1:
        raise ValueError("need prec >= 1")
    spec = x.spec
    q, p = spec.q, spec.p
    for f in finite:
        if f.kind != "finite":
            raise ValueError("finite factor list contains an infinite factor")
    for f in infinite:
        if f.kind != "infinite":
            raise ValueError("infinite factor list contains a finite factor")
        if p ** f.zexp.precision < prec:
            raise PrecisionError(
                f"need p^M >= prec = {prec} for every exponent", precision=p ** f.zexp.precision)
    vx = x.valuation()
    if vx is None:
        raise ValueError("x must be nonzero")
    weight = twist_degree_weight(spec, finite)
    if not infinite:
        return weight // (q - 1) + 1
    point_loss = sum(-f.point.valuation() for f in finite
                     if f.point is not None and f.point.valuation() is not None
                     and f.point.valuation() < 0)
    return _stop_shell(q, prec, weight, len(_merge_infinite(spec, infinite)), vx + point_loss)


def _merge_infinite(spec: FieldSpec, infinite):
    """(point, Frobenius order, exponent) per distinct base of the infinite
    factors: factors at one point whose orders agree mod e share the base
    <phi^l(a)(y) / y^d>, so they merge into one factor whose exponent is
    the sum of theirs in Z_p, known to the fewest digits among them."""
    groups = {}
    for f in infinite:
        key = (f.point, f.frob % spec.e)
        total, digits = groups.get(key, (0, f.zexp.precision))
        groups[key] = (total + f.zexp.as_int(), min(digits, f.zexp.precision))
    return [(point, frob, ZpExp.from_int(total, spec.p, digits))
            for (point, frob), (total, digits) in groups.items()]


class _OneUnitBasis:
    """The one-units <phi^l(a)(y) / y^d> of one infinite factor, shell by shell.

    `start_shell(d)` forms B_j = y^j y^(-d) for j = 0..d, with the powers
    y^j kept across shells, and scales each B_j by every phi^l(c).  The
    one-unit of a monic a = sum_j c_j theta^j is then sum_j phi^l(c_j) B_j,
    added up with code arithmetic and no series product.  It is known mod
    pi^N, N = min(prec(y) + v(y), d v(y) + prec(y^(-d))): the precision
    that Horner's rule at y followed by the product by y^(-d) tracks.
    Every B_j is known at least that far, so the value is that of the
    per-monic evaluation (`oracle.enumerated_twisted_L_eval`) byte for
    byte.
    """

    def __init__(self, point: LaurentSeries, frob: int):
        self.spec = point.spec
        self.point = point
        self.frob_codes = [self.spec.frob_code(c, frob) for c in range(self.spec.q)]
        self.y_inv = point.inverse()
        self.y_pows = [None, point]  # y^j for j >= 1; B_0 is y^(-d) itself
        self.prec = 0
        self.rows = []

    def start_shell(self, d: int):
        y = self.point
        while len(self.y_pows) <= d:
            self.y_pows.append(self.y_pows[-1] * y)
        y_inv_d = self.y_inv ** d
        self.prec = min(d * y.val + y_inv_d.prec, y.prec + y.val)
        self.rows = []
        for j in range(d + 1):
            b = y_inv_d if j == 0 else self.y_pows[j] * y_inv_d
            coeffs = b.coeff_codes[:max(self.prec - b.val, 0)]
            self.rows.append((b.val, [fields.poly_scale(self.spec, coeffs, fc)
                                      for fc in self.frob_codes]))

    def one_unit(self, codes) -> LaurentSeries:
        add = self.spec.add_table
        out = [0] * max(self.prec, 0)
        for (offset, scaled), c in zip(self.rows, codes):
            if c:
                for i, b in enumerate(scaled[c], offset):
                    out[i] = add[out[i]][b]
        return LaurentSeries(self.spec, 0, out, self.prec)


def twisted_L_eval(finite, infinite, x: LaurentSeries, prec: int):
    """General twisted evaluation over monic polynomials.

    sum_d x^(-d) sum_a prod_i phi^(e_i)(a^(m_i))(x_i)
                       prod_j <phi^(l_j)(a)(y_j) / y_j^d> ^ (z_j)

    Finite factors with symbolic points produce an MPoly with Laurent
    coefficients; otherwise the value is a LaurentSeries.  The shells
    run to `twisted_stop_shell`.  Infinite factors at one point whose
    Frobenius orders agree mod e merge into one factor with the Z_p sum
    of their exponents.  Each remaining factor builds its one-units from
    the per-shell basis y^j y^(-d) (`_OneUnitBasis`) and raises them with
    one `one_unit_pow` per monic.
    """
    finite = list(finite)
    infinite = list(infinite)
    stop = twisted_stop_shell(finite, infinite, x, prec)
    spec = x.spec
    sym_names = tuple(f"t{i + 1}" for i, f in enumerate(finite) if f.point is None)
    symbolic = bool(sym_names)
    x_inv = x.inverse()
    bases = [(_OneUnitBasis(point, frob), zexp)
             for point, frob, zexp in _merge_infinite(spec, infinite)]

    def shell_value(d):
        acc = None
        for basis, _ in bases:
            basis.start_shell(d)
        for a in enumerate_monic(spec, d):
            value = LaurentSeries.one(spec, prec)
            sym_part = MPoly.const(sym_names, FqElem(spec, 1))
            sym_index = 0
            for f in finite:
                if f.point is None:
                    sym_part = sym_part * _symbolic_factor(a, f, sym_names, sym_index, spec)
                    sym_index += 1
                    if sym_part.is_zero():
                        break  # an exactly-zero hyperderivative factor
                else:
                    b = frobenius_twist(hyperderivative(a, f.hyper), f.frob)
                    value = value * b.eval(f.point)
            if sym_part.is_zero():
                continue
            for basis, zexp in bases:
                value = value * one_unit_pow(basis.one_unit(a.coeff_codes), zexp)
            if symbolic:
                piece = sym_part.map_coefficients(
                    lambda c: LaurentSeries.constant(spec, c.code, prec) * value)
                acc = piece if acc is None else acc + piece
            else:
                acc = value if acc is None else acc + value
        if acc is None:
            acc = MPoly.zero(sym_names) if symbolic else LaurentSeries.zero(spec, prec)
        return acc

    x_pow = LaurentSeries.one(spec, prec + stop * (abs(x.valuation()) + 1))
    total = None
    for d in range(stop):
        if d:
            x_pow = x_pow * x_inv
        shell = shell_value(d)
        term = shell.scale(x_pow) if symbolic else shell * x_pow
        total = term if total is None else total + term
    if symbolic:
        return total.map_coefficients(
            lambda c: c.truncate(min(prec, c.prec)) if c.prec > prec else c)
    if total.prec < prec:
        raise PrecisionError(
            f"propagated precision {total.prec} fell below the requested {prec}",
            precision=total.prec)
    return total.truncate(prec)
