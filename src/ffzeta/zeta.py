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
by the scan oracle and the test suite; only `power_sum` caches on disk,
under FFZETA_CACHE, one line per (field, d, n) keyed by that text.
`vadic` runs it in A/(P^kappa), with that ring's theta^k product and
reduction; A/(theta^kappa) and the shells read a window of it instead.

Evaluation at a p-adic exponent y truncates the shell sum using the
digit certificate: cutting the base-q digits of the exponent at level
l changes one-unit powers by at most pi^(q^(l+1)), and the truncated
exponent has digit sum at most (l+1)(q-1)+1, so the inner sum vanishes
once d(q-1) > (l+1)(q-1)+1.  The largest such l+1 is d-1 for q >= 3
and d-2 for q = 2, which certifies v(c_d) >= q^(d-1), respectively
2^(d-2) (`infty_coeff_valuation_bound`); the test suite re-validates
this bound against brute force before it is trusted.

`goss_zeta_eval` and `twisted_L_eval` sum their shells in one place
(`_sum_shells`): shell d is computed to pi^(prec + d L), L the
per-shell loss the stop rule charged (v(x), plus the loss of numeric
points of negative valuation in a twisted sum), and weighted by x^(-d);
a shell whose target is <= 0 lies at or above pi^prec and is skipped.
So x of positive valuation and numeric points of negative valuation
return values once their inputs are known that far.

The goss shells themselves come from the same recursion, not from the
q^d monics.  For shell d's target T, let M' be least with p^M' >= T and
N the integer spelled by the digits of -y reduced mod p^M'; higher
digits multiply each term by <a>^(p^M') = 1 mod pi^T.  Every term is
then exactly <a>^N mod pi^T, and <a> = a / theta^d gives

    c_d = sum_{a in A_{+,d}} <a>^N = pi^(dN) S_d(N)   (mod pi^T),

the top window of S_d(N); with digits of -y short of T it is known only
to pi^(p^M).  The numeric multiple zeta shells and the Pellarin series
use a^(-n) = pi^(d p^M') a^(p^M' - n), p^M' >= max(prec, n).
These evaluations never touch the disk cache; `oracle.py` keeps the
per-monic sums as checks.  With t-weights a(t_1)...a(t_s), s >= 1, one
t-shell sums them times a^N in A, for exact_L at N = -n and for the
Pellarin series at N = p^M' - n.  It visits one monic per orbit of
F_q^x acting by a -> lambda^(-d) a(lambda theta): an orbit's terms add up
to -1/(stabilizer size) times those of one member whose theta- and
t-degrees satisfy k + |J| = d(N + s) mod (q - 1) (`_t_shell`).

Every finite twisted factor phi^(e_i)(a^(m_i)) is a linear form in a's
coefficients c_j, and so are a residue character's a(zeta^(q^i)) and
a^(p^k).  twisted_power_sum and char_power_sum pick one slot j per form
and keep, as sum_(c in F_q) c^W is -1 or 0, the choices where every slot
j < d collects a positive multiple of q - 1 (`_slot_sum`), with no monic
visited.  The twisted evaluation visits the monics of each shell and
reads every factor off rows built once per shell, with field-code
arithmetic per monic.  Finite factor i has the coefficients
C(j, m_i) phi^(e_i)(c_j), j >= m_i, the forms above: the symbolic ones
multiply into a table of field codes, one per t-monomial
(`_monomial_codes`), and a numeric one is evaluated at its point by
Horner's rule.  Infinite factors at one point whose Frobenius orders
agree mod e share the base <phi^l(a)(y) / y^d> and merge into one
factor with the Z_p sum of their exponents.  Each remaining factor
forms B_j = y^j y^(-d), j = 0..d, once per shell, and a monic's
one-unit sum_j phi^l(c_j) B_j is added up with the field's add and mul
tables, with no series product before its one-unit power.  Every factor
is cut to the shell's target; a monic's product starts at its first
factor, and each code of its table scales it into one series per
t-monomial, zero sums kept for their precision.
With no finite factors and one merged factor at y = c theta exactly,
the scaling by lambda multiplies the pi^k coefficient of a one-unit by
phi^l(lambda)^(-k), and so of its power too: a shell then visits the
t-shell's orbit members with their weights and keeps the pi^k with
(q - 1) | k of the weighted sum (`twisted_L_eval`).  With no finite
factors, the same slot law over the base-p digits of the exponents
bounds a shell's valuation from below (`_digit_valuation_bound`), and a
shell that bound puts at or above its target is not computed.
"""

from __future__ import annotations

import fcntl
import itertools
import json
import math
import os
from pathlib import Path

from . import fields
from ._kernels import RawSum, get_kernel, raw_to_apoly
from .fields import (FieldSpec, FqElem, FrozenValue, ZpExp, ResidueChar, least_p_power,
                     lq_digit_sum)
from .polyring import APoly, MPoly, monic_coeff_vectors
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


class PowerSumCache:
    """Write-through JSON-lines store for power sums, keyed by plain text.

    It holds public `power_sum` results only.  Lines are
    `{"key": "<field>:<d>:<n>", "coeffs": [...]}`; a key is the repr of
    the field's value key, which has no quote or backslash, so the index
    reads it up to its closing quote (the last line of a key wins).  A
    line is decoded only when its key is looked up; malformed lines, and
    lines of the older hashed keys, read as misses.  `put` appends when
    the key's indexed line has different text, under a file lock; once
    this process has written or read back a key's line it compares only
    the coefficients.
    """

    _PREFIX = '{"key": "'

    def __init__(self, directory: Path | str):
        self.path = Path(directory) / "powersums.jsonl"
        self._lines: dict[str, str] | None = None  # key -> its last line, read on first use
        self._confirmed: dict[str, tuple] = {}  # key -> coeffs whose line is stored

    @staticmethod
    def key(spec: FieldSpec, d: int, n: int) -> str:
        return f"{spec._key()!r}:{d}:{n}"

    def _line(self, key: str):
        if self._lines is None:
            self._lines = {}
            try:
                lines = self.path.read_text().splitlines()
            except OSError:
                lines = []
            start = len(self._PREFIX)
            for line in lines:
                end = line.find('"', start)
                if line.startswith(self._PREFIX) and end > 0:
                    self._lines[line[start:end]] = line
        return self._lines.get(key)

    def get(self, key: str):
        """The stored coefficients of `key`, or None."""
        line = self._line(key)
        if line is None:
            return None
        try:
            doc = json.loads(line)
            coeffs = tuple(doc["coeffs"])
            if doc["key"] == key and all(isinstance(c, int) for c in coeffs):
                return coeffs
        except (json.JSONDecodeError, TypeError, KeyError):
            pass  # corrupt entry: recompute rather than trust
        return None

    def put(self, key: str, coeffs):
        coeffs = tuple(coeffs)
        if self._confirmed.get(key) == coeffs:
            return
        self._confirmed[key] = coeffs
        # json.dumps keeps insertion order, so the line starts with _PREFIX
        line = json.dumps({"key": key, "coeffs": list(coeffs)})
        if self._line(key) == line:
            return
        self._lines[key] = line
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "a") as fh:
                fcntl.flock(fh, fcntl.LOCK_EX)
                fh.write(line + "\n")
                fcntl.flock(fh, fcntl.LOCK_UN)
        except OSError:
            pass  # cache is an accelerator, never a requirement


_caches: dict[str, PowerSumCache] = {}


def _cache() -> PowerSumCache:
    """The cache under FFZETA_CACHE (default ~/.cache/ffzeta), one per directory."""
    directory = os.environ.get("FFZETA_CACHE") or str(Path.home() / ".cache" / "ffzeta")
    if directory not in _caches:
        _caches[directory] = PowerSumCache(directory)
    return _caches[directory]


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


def power_sum(spec: FieldSpec, d: int, n: int) -> APoly:
    """S_d(n) = sum of a^n over monic degree-d polynomials, exactly.

    Zero whenever d(q-1) > lq(n).  S_0(n) = 1 is neither looked up nor
    stored; at d >= 1 the value is taken from the memo, a plausible disk
    line or the recursion, then stored under FFZETA_CACHE keyed by
    (field, d, n).
    """
    if d < 0 or n < 0:
        raise ValueError("power_sum needs d, n >= 0")
    if d == 0:
        return APoly.one(spec)
    cache = _cache()
    kernel = get_kernel(spec)
    memo = _memo_by_spec.setdefault(spec._key(), {})
    ckey = PowerSumCache.key(spec, d, n)
    raw = memo.get((d, n))
    if raw is None:
        hit = cache.get(ckey)
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


_windows_by_spec: dict = {}  # (field key, top) -> {(d, n): (L, window)}, the widest L asked


def _power_sum_window(spec: FieldSpec, d: int, n: int, L: int, top: bool = False):
    """S_d(n) mod theta^L (the bottom window) or, with `top`, pi^(dn) S_d(n)
    mod pi^L (the top window, pi = 1/theta), L >= 1, as a normalized raw
    value in theta or pi.  Both follow the degree recursion

        W(d, n, L) = -sum_k C(n, k) x^s W(d-1, k, L - s),   W(0, n, L) = 1,

    x = theta, s = k at the bottom and x = pi, s = d(n - k) at the top.  A
    child with s >= L drops out, so as C(n, j) = C(n, n - j) = C(n mod p^M, j)
    for j < p^M, only the base-p digits of n below L / (d if top else 1) are
    walked.  The memo keeps the widest window asked per (d, n).
    """
    kernel = get_kernel(spec)
    memo = _windows_by_spec.setdefault((spec._key(), top), {})
    one = (1,) + kernel.zero()[1:]  # S_0 = 1: code 1 is the first plane's unit digit

    def window(d, n, L):
        if d == 0:
            return one
        if (hit := memo.get((d, n))) is not None and hit[0] >= L:
            return kernel.truncate(hit[1], L)
        step = d if top else 1
        total = RawSum(kernel, kernel.scale_digit)
        for j, b in _lucas_support(n % least_p_power(spec.p, -(-L // step)), spec.p):
            k = n - j if top else j
            if step * j >= L or k >= n or (n - k) % (spec.q - 1) or power_sum_vanishes(spec, d - 1, k):
                continue
            child = window(d - 1, k, L - step * j)
            if any(child):
                total.add(kernel.scale(kernel.shift(child, step * j), spec.neg_code(b)))
        memo[(d, n)] = (L, kernel.normalize(total.value))
        return memo[(d, n)][1]

    return window(d, n, L)


def shell_sum(spec: FieldSpec, d: int, n: int, shift: int, prec: int) -> LaurentSeries:
    """pi^shift * S_d(n) as a Laurent series known mod pi^prec: pi^(shift - d*n)
    times the top window of S_d(n) of length prec - shift + d*n, never read
    from the disk cache.
    """
    low = shift - d * n
    if power_sum_vanishes(spec, d, n) or low >= prec:
        return LaurentSeries.zero(spec, prec)
    codes = get_kernel(spec).to_codes(_power_sum_window(spec, d, n, prec - low, True))
    return LaurentSeries(spec, low, codes, prec)


# ---------------------------------------------------------------------------
# twisted and character power sums


def _monomial_codes(spec: FieldSpec, rows) -> dict:
    """The t-monomials of prod_i sum_j rows[i][j] t_i^j, rows of codes:
    {(j_1..j_s): product of codes}, zero codes left out."""
    table = {(): 1}
    for row in rows:
        support = [(j, c) for j, c in enumerate(row) if c]
        table = {key + (j,): spec.mul_code(code, c)
                 for key, code in table.items() for j, c in support}
    return table


def _slot_sum(spec: FieldSpec, target: FieldSpec, d: int, forms, start) -> dict:
    """{key: code} of the sum over monic degree-d a = sum_j c_j theta^j of a
    product of linear forms in the c_j, c_d = 1; zero codes left out.

    A form (w, row) is sum_j code * c_j^w over its row's (j, code, part),
    w a power of p below q, and a choice of j adds its part to the key,
    from `start`.  Expanding the product picks one slot j per form, and
    sum_(c in F_q) c^W is -1 when W is a positive multiple of q - 1 and 0
    otherwise: the q^d monics keep the choices where every slot j < d
    collects such a weight, each times (-1)^d.  A state is each slot's
    weight mod q - 1 in [1, q - 1], 0 for an empty slot, with the key so
    far; slot d takes any forms.  A state is cut once sum_j (q - 1 - w_j)
    exceeds the weight still to place (the vanishing law as a
    certificate), so every slot of the states left at the end is full.
    """
    q1 = spec.q - 1
    add, mul = target.add_table, target.mul_table
    rest = sum(w for w, _ in forms)
    if d * q1 > rest:
        return {}
    states = {((0,) * d, start): 1}
    for w, row in forms:
        rest -= w
        nxt = {}
        for (slots, key), code in states.items():
            for j, c, part in row:
                if j < d:
                    slots_j = slots[:j] + ((slots[j] + w - 1) % q1 + 1,) + slots[j + 1:]
                else:
                    slots_j = slots
                if d * q1 - sum(slots_j) > rest:
                    continue
                state = (slots_j, key + part)
                nxt[state] = add[nxt.get(state, 0)][mul[code][c]]
        states = nxt
    sign = target.neg_code(1) if d % 2 else 1
    return {key: mul[sign][code] for (_, key), code in states.items() if code}


def _char_forms(chi: ResidueChar, d: int, part) -> list:
    """chi(a) = a(zeta)^delta' as `_slot_sum` forms, zeta the class of theta
    in F_Q = A/(P) and delta' = delta mod (Q - 1) in [1, Q - 1], so that P | a
    gives 0: base-q digit delta'_i of delta' gives delta'_i copies of
    a(zeta^(q^i)) = sum_j zeta^(j q^i) c_j, of weight 1."""
    rspec, q = chi.residue_field, chi.field.q
    zeta = rspec.from_digits((0, 1)) if chi.dP > 1 else rspec.neg_code(chi.P_codes[0])
    forms = []
    for i, digit in enumerate(fields.base_digits(chi.delta or chi.order, q)):
        row = [(j, rspec.pow_code(zeta, j * q ** i), part) for j in range(d + 1)]
        forms += [(1, [r for r in row if r[1]])] * digit
    return forms


def twisted_power_sum(spec: FieldSpec, d: int, factors, char: ResidueChar | None = None) -> MPoly:
    """Sum over monic degree-d a of chi(a) * prod phi^e_i(a^(m_i))(t_i).

    All factor points are symbolic.  Without a character, the sum is
    exactly zero once d(q-1) > twist_degree_weight(factors); for equal
    Frobenius orders that is d > s/(q-1), and mixed orders vanish later.
    Factor i is the form sum_(j >= m_i) C(j, m_i) c_j^(p^e_i) t_i^(j - m_i)
    of weight p^(e_i mod e), and the character adds `_char_forms`: the
    sum is `_slot_sum`'s, keyed by the t-exponents, with no monic visited.
    """
    factors = list(factors)
    for f in factors:
        if f.kind != "finite" or f.point is not None:
            raise ValueError("twisted_power_sum takes symbolic finite factors only")
    target = char.residue_field if char is not None else spec
    names = tuple(f"t{i + 1}" for i in range(len(factors)))
    forms = _char_forms(char, d, ()) if char is not None else []
    forms += [(spec.p ** (f.frob % spec.e), [(j, b, (j - f.hyper,)) for j in range(f.hyper, d + 1)
                                             if (b := fields.binom_mod_p(j, f.hyper, spec.p))])
              for f in factors]
    total = _slot_sum(spec, target, d, forms, ())
    return MPoly(names, {key: FqElem(target, code) for key, code in total.items()})


def char_power_sum(spec: FieldSpec, d: int, chi: ResidueChar, n: int):
    """Sum of chi(a) a^n over monic degree-d a prime to P.

    Returns an FqElem of the residue field for n = 0, otherwise an APoly
    over the residue field.  For n = 0 the sum vanishes for all
    d >= deg(P) + 1.  Base-p digit n_k of n gives n_k copies of the form
    a^(p^k) = sum_j c_j^(p^k) theta^(j p^k), of weight p^(k mod e), to go
    with `_char_forms`: the sum is `_slot_sum`'s, keyed by the theta-exponent.
    """
    if n < 0:
        raise ValueError("char_power_sum needs n >= 0")
    rspec = chi.residue_field
    forms = _char_forms(chi, d, 0)
    for k, digit in enumerate(fields.base_digits(n, spec.p)):
        forms += [(spec.p ** (k % spec.e), [(j, 1, j * spec.p ** k) for j in range(d + 1)])] * digit
    total = _slot_sum(spec, rspec, d, forms, 0)
    if n == 0:
        return FqElem(rspec, total.get(0, 0))
    return APoly(rspec, [total.get(k, 0) for k in range(d * n + 1)])


# ---------------------------------------------------------------------------
# exact zeta / Pellarin polynomials (non-positive exponents)


def exact_L_degree_bound(spec: FieldSpec, n: int, s: int) -> int:
    return (s + lq_digit_sum(-n, spec.q)) // (spec.q - 1)


def _orbit_members(spec: FieldSpec, d: int):
    """One monic per orbit of F_q^x acting by a -> lambda^(-d) a(lambda theta),
    as (coefficient codes c_0..c_d, -1/g as an F_p code) pairs.

    The members are theta^d (g = q - 1) and, for e = 1..d, the monics with
    c_(d-1) = ... = c_(d-e+1) = 0 and c_(d-e) = gamma^i, i < g = gcd(e, q - 1),
    gamma the field's generator, lower coefficients free: g/h members of
    each orbit whose stabilizer has h elements, 1 + sum_e gcd(e, q - 1) q^(d-e)
    of the q^d monics in all.  If lambda multiplies a member's term by
    lambda^(-m), the orbit adds up to -1/h times the terms with (q - 1) | m
    (a sum of lambda^m over F_q^x is -1 when (q - 1) | m and 0 otherwise),
    which is the members' terms with (q - 1) | m, each times -1/g.  At
    q = 2 these are all the monics, each with weight 1.
    """
    q = spec.q
    yield (0,) * d + (1,), spec.neg_code(spec.inv_code((q - 1) % spec.p))
    for e in range(1, d + 1):
        g = math.gcd(e, q - 1)
        weight = spec.neg_code(spec.inv_code(g % spec.p))
        for i in range(g):
            top = (spec.pow_code(spec.generator, i),) + (0,) * (e - 1) + (1,)
            for vec in monic_coeff_vectors(spec, d - e):
                yield vec + top, weight


def _t_shell(spec: FieldSpec, kernel, d: int, s: int, N: int, convert) -> dict:
    """The z^d terms of sum_a a(t_1)...a(t_s) a^N over monic degree-d a,
    from one monic per scaling orbit (`_orbit_members`).

    lambda in F_q^x sends a to lambda^(-d) a(lambda theta) and multiplies the
    theta^k t^J term of a(t_1)...a(t_s) a^N by lambda^(k + |J| - d(N + s)),
    so each member's terms with k + |J| = d(N + s) mod (q - 1) count, times
    its weight; `keep_residues` keeps those theta^k per t-monomial.

    All arrangements of one multiset of t-exponents share a coefficient,
    so each is summed once, its codes go through `convert` and the
    result is shared; zero coefficients are left out."""
    shell = {}
    for codes, weight in _orbit_members(spec, d):
        apow = kernel.pow(kernel.from_codes(codes), N)
        support = [(j, c) for j, c in enumerate(codes) if c]
        for ms in itertools.combinations_with_replacement(support, s):
            prod_code = weight
            for _, c in ms:
                prod_code = spec.mul_code(prod_code, c)
            key = tuple(j for j, _ in ms)
            if key not in shell:
                shell[key] = RawSum(kernel, kernel.scale_digit)
            shell[key].add(kernel.scale(apow, prod_code))
    terms = {}
    for ms_key, acc in shell.items():
        kept = kernel.keep_residues(acc.value, d * (N + s) - sum(ms_key), spec.q - 1)
        coeff = convert(kernel.to_codes(kept))
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
    exact_L_degree_bound(spec, n - p^M', s) and the loop stops there.
    At s = 0 it is the top window `shell_sum`, as in `mzv_eval_inf`.
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
        if s == 0:
            coeff = shell_sum(spec, d, big - n, d * big, prec)
            if coeff:
                terms[(d,)] = coeff
        else:
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
    largest admissible l.  Plain case (s=0, n_inf=1): q^(d-1) for q >= 3
    and 2^(d-2) at q = 2.
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


def _sum_shells(x: LaurentSeries, prec: int, stop: int, loss_rate: int, shell) -> dict:
    """sum_(d < stop) x^(-d) shell(d, prec + d L) per key, cut to pi^prec.

    L = loss_rate is the rate `_stop_shell` charged, v(x) plus the loss
    of the numeric points (`_loss_rate`): x^(-d) and the other factors of
    a term have valuation >= -d L together, so a factor known to
    pi^(prec + d L) leaves the weighted term known to pi^prec.
    `shell(d, target)` returns shell d's terms {key: series}, every factor
    cut to that target.  A shell whose target is <= 0 has every weighted
    term at valuation >= -d L >= prec and is skipped, as is a term zero to
    its target once its key is present.  x^(-d) is needed to relative
    precision prec + d L at most, so its powers start from 1 known that
    far.  Any sum known to less than prec, also one that is zero at its
    precision, raises PrecisionError.
    """
    x_inv = x.inverse()
    x_pow = LaurentSeries.one(x.spec, prec + (stop - 1) * max(loss_rate, 0))  # x^(-d)
    total = {}
    for d in range(stop):
        if d:
            x_pow = x_pow * x_inv
        target = prec + d * loss_rate
        if target <= 0:
            break  # targets fall with d, so every later shell is skipped too
        for key, c in shell(d, target).items():
            if key in total and c.is_zero() and c.prec >= target:
                continue
            term = c * x_pow if d else c
            total[key] = total[key] + term if key in total else term
    low = min((c.prec for c in total.values()), default=prec)
    if low < prec:
        raise PrecisionError(
            f"propagated precision {low} fell below the requested {prec}", precision=low)
    return {key: c.truncate(prec) for key, c in total.items()}


def goss_zeta_eval(pt: SInftyPoint, prec: int) -> LaurentSeries:
    """Evaluate sum_d x^(-d) sum_a <a>^(-y) to the requested precision.

    The point stores the digits of -y; the shell sum stops once the
    certified bound v(c_d) >= infty_coeff_valuation_bound(q, d) (q^(d-1)
    for q >= 3, 2^(d-2) at q = 2) pushes the tail below pi^prec.
    Needs p^M >= prec digits and x known to relative precision >= prec.
    Shell d is wanted to pi^(prec + d v(x)), the target of `_sum_shells`,
    and is pi^(dN) S_d(N) there, with N the digits of -y mod the least
    p-power >= that target (see the module docstring).  Digits of -y
    short of the target make the shell known only to pi^(p^M), so x of
    positive valuation returns a value or raises, never a value cut
    short.
    """
    if prec < 1:
        raise ValueError("need prec >= 1")
    x = pt.x
    spec = x.spec
    p, digits, neg_y = spec.p, spec.p ** pt.neg_y.precision, pt.neg_y.as_int()
    if digits < prec:
        raise PrecisionError(
            f"need p^M >= prec = {prec}; supply more exponent digits", precision=digits)
    if x.rel_prec() < prec:
        raise PrecisionError(
            f"x must be known to relative precision >= {prec}", precision=x.rel_prec())

    def shell(d, target):
        target = min(target, digits)
        if not d:  # the single monic 1
            return {(): LaurentSeries.one(spec, target)}
        N = neg_y % least_p_power(p, target)
        return {(): shell_sum(spec, d, N, d * N, target)}

    vx = x.valuation()
    return _sum_shells(x, prec, _stop_shell(spec.q, prec, 0, 1, vx), vx, shell)[()]


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
    return _stop_shell(q, prec, weight, len(_merge_infinite(spec, infinite)), _loss_rate(finite, x))


def _loss_rate(finite, x: LaurentSeries) -> int:
    """v(x) plus -v(point) over the numeric finite points of negative
    valuation: a degree-d monic's numeric factors have valuation at least
    -d times the latter, and x^(-d) has valuation -d v(x)."""
    return x.valuation() + sum(-f.point.valuation() for f in finite
                               if f.point is not None and (f.point.valuation() or 0) < 0)


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


def _digit_valuation_bound(spec: FieldSpec, d: int, bases):
    """V_d, a lower bound on v(sum_a prod_b u_b^(N_b)) over monic degree-d
    a = sum_j c_j theta^j, for one-units u_b = sum_j phi^(l_b)(c_j) B_j with
    v(B_j) >= (d - j) k_b; `bases` holds (k_b, l_b, base-p digits of N_b).

    Digit n_i of N gives n_i copies of u^(p^i) = sum_j c_j^(p^(l+i)) B_j^(p^i),
    and expanding the product picks one slot j per copy, of weight
    p^((l+i) mod e) in c_j and valuation >= (d - j) k p^i.  As
    sum_(c in F_q) c^W is nonzero only for W a positive multiple of q - 1,
    a choice survives the sum over the monics only if every slot j < d
    collects weight >= q - 1.  Split each copy into units of weight, each
    costing k p^i / p^((l+i) mod e): the q - 1 cheapest units go to slot
    d - j = d, the next q - 1 to d - 1, and so on down to 1, which bounds
    every surviving choice from below (exactly when e = 1), and so does
    that bound rounded up, as valuations are integers.  With too little
    weight for the d slots no choice survives and the sum is 0: inf.
    """
    p, e, q1 = spec.p, spec.e, spec.q - 1
    scale = p ** (e - 1)  # makes every cost per unit an integer
    picks = []  # (scaled cost per unit of weight, units) of the copies of each u^(p^i)
    for k, l, digits in bases:
        for i, n in enumerate(digits):
            weight = p ** ((l + i) % e)
            picks.append((k * p ** i * scale // weight, n * weight))
    picks.sort()
    bound, m, need = 0, d, q1  # the slot d - j being filled, the weight it still needs
    for rate, units in picks:
        while units and m:
            take = min(units, need)
            bound += m * take * rate
            units, need = units - take, need - take
            if not need:
                m, need = m - 1, q1
    return math.inf if m else -(-bound // scale)


def _digit_certificate(spec: FieldSpec, d: int, target: int, bases) -> bool:
    """Whether shell d of a twisted sum without finite factors would be,
    as `twisted_L_eval` computes it, zero known to exactly pi^target;
    `bases` holds (k, l, digits of N, known) per merged base, known the
    precision of its rows.  Rows known to the target and k p^M >= target
    make every monic's term u^z = u^N mod pi^target, N the M known digits
    (v(u - 1) >= k), so V_d >= target (`_digit_valuation_bound`) makes the
    shell's sum zero there, and `_sum_shells` would drop it.  A shell of
    V_d = inf whose rows fall short is still computed, so its
    PrecisionError stays."""
    return (all(known >= target and k * spec.p ** len(digits) >= target
                for k, _, digits, known in bases)
            and _digit_valuation_bound(spec, d, [b[:3] for b in bases]) >= target)


def twisted_L_eval(finite, infinite, x: LaurentSeries, prec: int):
    """General twisted evaluation over monic polynomials.

    sum_d x^(-d) sum_a prod_i phi^(e_i)(a^(m_i))(x_i)
                       prod_j <phi^(l_j)(a)(y_j) / y_j^d> ^ (z_j)

    Finite factors with symbolic points produce an MPoly with Laurent
    coefficients, one series per t-monomial added up from each monic's
    table of codes (`_monomial_codes`); otherwise the value is a
    LaurentSeries.  The shells run to `twisted_stop_shell`.

    Each factor of a monic a = sum_j c_j theta^j is read off rows built
    per shell.  Finite factor i has the coefficients C(j, m_i) phi^(e_i)(c_j),
    j >= m_i, evaluated by Horner's rule at a numeric point.  Infinite
    factors at one point whose Frobenius orders agree mod e merge into one
    with the Z_p sum of their exponents; each one-unit is sum_j phi^l(c_j)
    B_j, B_j = y^j y^(-d), raised with one `one_unit_pow` per monic visited.
    Shell d cuts the rows and every numeric finite value to its target
    pi^(prec + d L) (`_sum_shells`, L = `_loss_rate`): a numeric point of
    valuation -k costs k digits a shell, so such points return values.

    With no finite factors and one merged factor at y = c theta exactly,
    a shell visits one monic per F_q^x scaling orbit (`_orbit_members`):
    the member lambda^(-d) a(lambda theta) has the one-unit sigma(<phi^l(a)(y)
    / y^d>), where sigma multiplies the pi^k coefficient by mu^(-k),
    mu = phi^l(lambda).  sigma is a ring map, so it commutes with the
    power, and the sum over mu of mu^(-k) is -1 when (q - 1) | k and 0
    otherwise: the shell keeps the pi^k, (q - 1) | k, of the members'
    powers times their weights.  An orbit's members share v(w) and the
    rows' precision, so the shell's precision is that of all monics.
    Every other case visits every monic with weight 1.

    Without finite factors a shell is skipped, not computed, when the
    exponents' digits prove it zero to its target (`_digit_certificate`):
    with N = sum n_i p^i the known digits of z, u^N is the product of n_i
    copies of u^(p^i) = sum_j c_j^(p^(l+i)) B_j^(p^i), v(B_j) = (d - j) k,
    k = -v(y), and the copies' slot choices that survive the sum over the
    monics fill every slot j < d with a positive multiple of q - 1, at
    valuation >= V_d (`_digit_valuation_bound`).  V_d >= target, k p^M >=
    target and rows known to the target leave the computed shell zero
    known to exactly its target, which `_sum_shells` drops, so skipping it
    changes no value, precision or PrecisionError.

    A value known to less than prec raises PrecisionError; for a
    symbolic value that is any coefficient, also one whose sum is zero at
    its precision and so left out of the MPoly.
    """
    finite = list(finite)
    infinite = list(infinite)
    stop = twisted_stop_shell(finite, infinite, x, prec)
    spec = x.spec
    add, mul = spec.add_table, spec.mul_table
    sym_names = tuple(f"t{i + 1}" for i, f in enumerate(finite) if f.point is None)
    symbolic = bool(sym_names)
    frob_tables = {l: [spec.frob_code(c, l) for c in range(spec.q)]
                   for l in {f.frob % spec.e for f in finite + infinite}}
    merged = _merge_infinite(spec, infinite)
    bases = [(y, y.inverse(), frob_tables[l], zexp) for y, l, zexp in merged]
    orbits = (not finite and len(bases) == 1 and bases[0][0].val == -1
              and len(bases[0][0].coeff_codes) == 1)

    def times(value, f):
        """value * f, where None is the exact 1 that starts a monic's product."""
        return f if value is None else value * f

    def shell_value(d, target):
        terms = {}
        # finite factor i: the rows C(j, m_i), j = m_i..d, times phi^(e_i)(c_j)
        forms = [(f, frob_tables[f.frob % spec.e],
                  [fields.binom_mod_p(j, f.hyper, spec.p) for j in range(f.hyper, d + 1)])
                 for f in finite]
        # B_j cut at N = min(prec(y) + v(y), d v(y) + prec(y^(-d))), the
        # precision of Horner's rule at y times y^(-d) (each B_j keeps y's
        # relative precision, so it is known that far), or at the target
        y_ds = [y_inv ** d for _, y_inv, _, _ in bases]
        known = [min(d * y.val + y_d.prec, y.prec + y.val) for (y, *_), y_d in zip(bases, y_ds)]
        if not finite and _digit_certificate(spec, d, target, [
                (-y.valuation(), l, zexp.digits, n) for (y, l, zexp), n in zip(merged, known)]):
            return {}  # as computed, the shell would be zero to pi^target and dropped
        rows = []
        for (y, *_), y_d, n in zip(bases, y_ds, known):
            powers = [y_d]
            for _ in range(d):
                powers.append(powers[-1] * y)
            N = min(n, target)
            rows.append((N, [(b.val, b.coeff_codes[:max(N - b.val, 0)]) for b in powers]))
        members = (_orbit_members(spec, d) if orbits
                   else ((vec + (1,), 1) for vec in monic_coeff_vectors(spec, d)))
        for codes, weight in members:
            twists = [[mul[b][frob[c]] for b, c in zip(binoms, codes[f.hyper:])]
                      for f, frob, binoms in forms]
            table = _monomial_codes(spec, [t for f, t in zip(finite, twists) if f.point is None])
            if not table:
                continue  # an exactly-zero hyperderivative factor
            value = None
            for f, t in zip(finite, twists):
                if f.point is not None:
                    at = APoly(spec, t).eval(f.point)
                    value = times(value, at.truncate(min(at.prec, target)))
            for (_, _, frob, zexp), (N, shell_rows) in zip(bases, rows):
                out = [0] * max(N, 0)
                for (offset, row), c in zip(shell_rows, codes):
                    if frob[c]:
                        scale = mul[frob[c]]
                        for i, b in enumerate(row, offset):
                            out[i] = add[out[i]][scale[b]]
                value = times(value, one_unit_pow(LaurentSeries(spec, 0, out, N), zexp))
            value = LaurentSeries.one(spec, target) if value is None else value
            if weight != 1:
                value = value.scale_code(weight)
            for key, code in table.items():
                term = value.scale_code(code) if symbolic else value
                terms[key] = terms[key] + term if key in terms else term
        if orbits:  # keep the pi^k with (q - 1) | k
            c = terms[()]
            kept = [code if (c.val + i) % (spec.q - 1) == 0 else 0
                    for i, code in enumerate(c.coeff_codes)]
            terms[()] = LaurentSeries(spec, c.val, kept, c.prec)
        return terms

    # one series per t-monomial (the key () without symbolic factors)
    total = _sum_shells(x, prec, stop, _loss_rate(finite, x), shell_value)
    return MPoly(sym_names, total) if symbolic else total[()]
