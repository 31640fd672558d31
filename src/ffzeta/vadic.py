"""Zeta objects at a finite place P of A = F_q[theta].

The prime-to-P zeta polynomials satisfy the Euler factor identity
L_P = (1 - P^(-n) z^(deg P)) L for exact exponents, and are computed
from it: the monic multiples of P of degree d are exactly P*b with b
monic of degree d - deg P, and (P b)(t_i) = P(t_i) b(t_i), so

    L_P = L - z^(deg P) P^(-n) prod_i P(t_i) L.

Positive exponents are reached v-adically as limits of polynomial
values along the interpolation sequence m_k:

    -m_k = (digits of -n_1 below q^(k+1)) + delta_k q^((k+1) deg P)

with delta_k in {1, .., q^(deg P)-1} chosen so -m_k = -n_1 both mod
q^(k+1) Z_p and mod q^(deg P)-1.  This construction guarantees
lq(-m_k) <= (k + 1 + deg P)(q-1): note the digit prefix alone can
carry (k+1)(q-1), so the z-degree of the m_k polynomial can reach
k + 1 + deg P, and the interpolation partial sums below must run to
that degree for the gap bound q^(k+1) - (|n_2|+...)(deg P + k) to
hold (a degree cap of k + deg P provably fails, e.g. q = 2, P = theta,
k = 0, n_1 = -3).

Gap measurements run in the localized ring P^e * A/(P^kappa), the
finite-place analogue of a truncated Laurent series, so inner indices
divisible by P with positive exponents stay representable.  Its power
sums S_d(n) mod P^kappa come from the degree recursion of `zeta`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import inf

from ._kernels import get_kernel, raw_to_apoly, QuotientKernel
from .fields import FieldSpec, ZpExp, lq_digit_sum
from .polyring import APoly, MPoly, chain_sum, enumerate_monic, is_irreducible
from .padic import PadicCtx, teichmuller, padic_one_unit_pow, split_P_power, _invert_mod
from .seriesinf import PrecisionError
from .zeta import power_sum, exact_L, exact_L_degree_bound, _power_sum_raw


@dataclass(frozen=True)
class VadicPoint:
    """Evaluation data at a finite place: exponent digits of -y, a
    Teichmuller twist delta, and the z-truncation degree."""

    ctx: PadicCtx
    neg_y: ZpExp
    delta: int
    zdeg: int

    def __post_init__(self):
        p = self.ctx.field.p
        if p ** self.neg_y.precision < self.ctx.k:
            raise PrecisionError(
                f"need p^M >= k = {self.ctx.k}",
                precision=p ** self.neg_y.precision)
        if self.zdeg < 0:
            raise ValueError("z-truncation degree must be >= 0")


# ---------------------------------------------------------------------------
# prime-to-P power sums and the exact v-adic zeta polynomial


def prime_to_p_power_sum(spec: FieldSpec, d: int, n: int, P: APoly) -> APoly:
    """Sum of a^n over monic degree-d polynomials not divisible by P.

    The multiples of P among them are P*b with b monic of degree
    d - deg P, so the sum is S_d(n) - P^n S_{d - deg P}(n), with both
    power sums cached by `power_sum` under FFZETA_CACHE.
    """
    if n < 0:
        raise ValueError("needs n >= 0")
    full = power_sum(spec, d, n)
    if d < P.degree:
        return full
    kernel = get_kernel(spec)
    divisible = kernel.mul(kernel.pow(kernel.from_codes(P.coeff_codes), n),
                           kernel.from_codes(power_sum(spec, d - P.degree, n).coeff_codes))
    return full - raw_to_apoly(kernel, divisible)


def vadic_degree_bound(spec: FieldSpec, n: int, s: int, dP: int) -> int:
    return dP + exact_L_degree_bound(spec, n, s)


def vadic_exact_L(spec: FieldSpec, n: int, s: int, P: APoly) -> MPoly:
    """The prime-to-P zeta polynomial sum_d z^d sum_{P not| a} a(t)a^(-n).

    Exact for n <= 0, with z-degree at most deg P + (s + lq(-n))/(q-1);
    it is L - z^(deg P) P^(-n) prod_i P(t_i) L with L = exact_L(n, s).
    """
    if n > 0:
        raise ValueError("positive exponents are v-adic limits; see vadic_zeta_eval")
    if not is_irreducible(P):
        raise ValueError("P is reducible")
    L = exact_L(spec, n, s)
    kernel = get_kernel(spec)
    Pn = kernel.pow(kernel.from_codes(P.coeff_codes), -n)
    support = [(j, c) for j, c in enumerate(P.coeff_codes) if c]
    terms = dict(L.terms)
    for exp, coeff in L.terms.items():
        PnL = kernel.mul(Pn, kernel.from_codes(coeff.coeff_codes))
        # prod_i P(t_i) has one monomial prod_i t_i^(j_i) per choice of terms
        for ms in itertools.product(support, repeat=s):
            code = spec.neg_code(1)
            for _, c in ms:
                code = spec.mul_code(code, c)
            key = tuple(e + j for e, (j, _) in zip(exp, ms)) + (exp[-1] + P.degree,)
            term = raw_to_apoly(kernel, kernel.scale(PnL, code))
            terms[key] = terms[key] + term if key in terms else term
    return MPoly(L.vars, terms)


def vadic_zeta_eval(ptv: VadicPoint, s: int = 0) -> MPoly:
    """sum_{d <= zdeg} z^d sum_{P not| a} omega(a)^delta <a>_P^(-y) in A/(P^k).

    For an integer exponent y = -n with delta = -n mod q^dP - 1 this
    reduces to vadic_exact_L(n, 0, P) mod P^k.
    """
    if s != 0:
        raise NotImplementedError("only the plain (s = 0) v-adic series is supported")
    ctx = ptv.ctx
    spec = ctx.field
    order = ctx.residue_order()
    delta = ptv.delta % order if order > 1 else 0
    terms = {}
    for d in range(ptv.zdeg + 1):
        total = ctx.zero()
        for a in enumerate_monic(spec, d):
            ar = ctx.reduce(a)
            if ar.vP() > 0:
                continue
            omega = teichmuller(ar, ctx)
            unit = ar * omega.inverse()
            value = padic_one_unit_pow(unit, ptv.neg_y)
            if delta:
                value = value * omega ** delta
            total = total + value
        if total:
            terms[(d,)] = total
    return MPoly(("z",), terms)


# ---------------------------------------------------------------------------
# interpolation sequence


def mk_sequence(n1, k: int, dP: int, q: int) -> int:
    """The k-th interpolation exponent m_k <= 0 for the target n_1.

    -m_k copies the base-q digits of -n_1 below q^(k+1) and adds
    delta_k q^((k+1) dP) with delta_k in {1, ..., q^dP - 1} minimal such
    that -m_k = -n_1 mod q^dP - 1.  Verified on return:
      (i)   -m_k = -n_1 mod q^(k+1)
      (ii)  -m_k = -n_1 mod q^dP - 1
      (iii) lq(-m_k) <= (k + 1 + dP)(q - 1)
      (iv)  -m_k >= q^(k+1)
    A ZpExp n1 is read as the digits of -n_1 (its canonical integer).
    """
    if k < 0 or dP < 1:
        raise ValueError("need k >= 0 and dP >= 1")
    if isinstance(n1, ZpExp):
        if n1.p ** n1.precision < q ** (k + 1):
            raise PrecisionError(
                f"need digits of -n_1 through q^{k + 1}",
                precision=n1.p ** n1.precision)
        neg_n1 = n1.as_int()
    else:
        neg_n1 = -int(n1)
    qk1 = q ** (k + 1)
    prefix = neg_n1 % qk1
    order = q ** dP - 1
    if order <= 1:
        delta = 1
    else:
        residue = (neg_n1 - prefix) % order
        delta = residue if residue != 0 else order
    neg_mk = prefix + delta * q ** ((k + 1) * dP)
    # re-verify every condition before trusting the construction; explicit
    # raises, because `python -O` strips asserts
    checks = (("(i) -m_k = -n_1 mod q^(k+1)", (neg_mk - neg_n1) % qk1 == 0),
              ("(ii) -m_k = -n_1 mod q^dP - 1", order <= 1 or (neg_mk - neg_n1) % order == 0),
              ("(iii) lq(-m_k) <= (k + 1 + dP)(q - 1)",
               lq_digit_sum(neg_mk, q) <= (k + 1 + dP) * (q - 1)),
              ("(iv) -m_k >= q^(k+1)", neg_mk >= qk1))
    for name, ok in checks:
        if not ok:
            raise ArithmeticError(f"interpolation exponent m_k fails check {name}")
    return -neg_mk


# ---------------------------------------------------------------------------
# localized P-adic values for gap measurements


class _LocalRing:
    """P^e * (A/(P^kappa)): finite-place values with an exponent shift.

    Relative precision kappa is fixed; addition aligns exponents and
    multiplication adds them, exactly as for truncated Laurent series.
    """

    def __init__(self, spec: FieldSpec, P: APoly, kappa: int):
        self.spec = spec
        self.P = P
        self.kappa = kappa
        self.kernel = get_kernel(spec)
        self.modulus = P ** kappa
        self.qk = QuotientKernel(self.kernel, self.modulus.coeff_codes)
        self.P_raw = self.kernel.from_codes(P.coeff_codes)
        self._p_powers = {0: self.kernel.from_codes((1,))}
        self._theta_powers: dict = {}
        self.power_sum_memo: dict = {}
        self.table_cache: dict = {}
        self._shell_units: dict = {}

    def p_power(self, j):
        if j not in self._p_powers:
            self._p_powers[j] = self.qk.pow(self.P_raw, j)
        return self._p_powers[j]

    def times_theta(self, raw, k):
        """raw * theta^k in A/(P^kappa); the powers of theta are cached."""
        if k not in self._theta_powers:
            self._theta_powers[k] = self.qk.pow(self.kernel.from_codes((0, 1)), k)
        return self.qk.mul(self._theta_powers[k], raw)

    def reduced_power_sum(self, d, n):
        """S_d(n) mod P^kappa as a raw value, by the degree recursion of A."""
        return _power_sum_raw(self.spec, self.kernel, d, n, self.power_sum_memo,
                              self.times_theta, self.qk.reduce)

    def v_of_raw(self, raw):
        codes = self.kernel.to_codes(raw)
        return split_P_power(APoly(self.spec, codes), self.P, self.kappa)[0] if codes else None

    def from_apoly(self, a: APoly, exp: int = 0):
        if a.degree > self.qk.N:
            a = a % self.modulus
        return _LocalValue(self, exp, self.qk.reduce(self.kernel.from_codes(a.coeff_codes)))

    def zero(self):
        return _LocalValue(self, 0, self.kernel.zero())

    def one(self):
        return _LocalValue(self, 0, self.kernel.from_codes((1,)))

    def _unit_inverse(self, a: APoly):
        """Split a = P^v u and return (v, u^-1 mod P^kappa)."""
        v, rem = split_P_power(a, self.P)
        unit_raw = self.qk.reduce(self.kernel.from_codes(rem.coeff_codes))
        res_inv = _invert_mod(self.spec, rem, self.P)
        inv_raw = self.qk.inverse(unit_raw, self.kernel.from_codes(res_inv.coeff_codes),
                                  digits=self.kappa)
        return v, inv_raw

    def shell_unit_inverses(self, d: int):
        """Per monic degree-d a: (prime_to_P, v, u^-1) with a = P^v u, cached."""
        if d not in self._shell_units:
            rows = []
            for a in enumerate_monic(self.spec, d):
                v, inv_raw = self._unit_inverse(a)
                rows.append((v == 0, v, inv_raw))
            self._shell_units[d] = rows
        return self._shell_units[d]

    def local_power_sum(self, d: int, n: int, prime_to_p: bool):
        """sum of a^(-n) over monic degree-d a (prime to P only if asked),
        cached: n >= 1 sums the powers of the cached unit inverses, n <= 0
        takes the reduced power sums, and the multiples of P in degree d are
        P*b with b monic of degree d - deg P."""
        key = (d, n, prime_to_p)
        if key in self.table_cache:
            return self.table_cache[key]
        if n > 0:
            acc = self.zero()
            for prime, v, inv_raw in self.shell_unit_inverses(d):
                if prime_to_p and not prime:
                    continue
                acc = acc + _LocalValue(self, -v * n, self.qk.pow(inv_raw, n))
        else:
            acc = _LocalValue(self, 0, self.reduced_power_sum(d, -n))
            if prime_to_p and d >= self.P.degree:
                acc = acc - _LocalValue(self, -n, self.reduced_power_sum(d - self.P.degree, -n))
        self.table_cache[key] = acc
        return acc


class _LocalValue:
    __slots__ = ("ring", "exp", "raw")

    def __init__(self, ring, exp, raw):
        self.ring = ring
        self.exp = exp
        self.raw = raw

    def __add__(self, other):
        ring = self.ring
        e = min(self.exp, other.exp)
        rx = self.raw if self.exp == e else ring.qk.mul(self.raw, ring.p_power(self.exp - e))
        ry = other.raw if other.exp == e else ring.qk.mul(other.raw, ring.p_power(other.exp - e))
        return _LocalValue(ring, e, ring.kernel.normalize(ring.kernel.add(rx, ry)))

    def __neg__(self):
        kernel = self.ring.kernel
        return _LocalValue(self.ring, self.exp,
                           kernel.normalize(kernel.scale(self.raw, self.ring.spec.neg_code(1))))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return _LocalValue(self.ring, self.exp + other.exp,
                           self.ring.qk.mul(self.raw, other.raw))

    def valuation(self):
        """v_P, or None when the value vanishes to its relative precision."""
        v = self.ring.v_of_raw(self.raw)
        return None if v is None else self.exp + v

    def __bool__(self):
        return not self.ring.kernel.is_zero(self.raw)


# ---------------------------------------------------------------------------
# the interpolation gap


GAP_HEADROOM = 16  # precision kept past the gap bound, in powers of P
_local_rings: dict = {}


def _get_local_ring(spec: FieldSpec, P: APoly, kappa: int) -> _LocalRing:
    key = (spec._key(), P.coeff_codes, kappa)
    ring = _local_rings.get(key)
    if ring is None:
        ring = _LocalRing(spec, P, kappa)
        _local_rings[key] = ring
    return ring


def interpolation_gap(spec: FieldSpec, ns, P: APoly, k: int):
    """Measured v_P of (m_k polynomial) - (v-adic partial sum to k+dP+1).

    ns = (n_1, ..., n_r) integer exponents; the first is interpolated by
    m_k and the partial sums restrict the top index prime to P.  The
    difference is one strict polyring.chain_sum in P^e * A/(P^kappa):
    its first table is (sum_a a^(-m_k) - sum_{P not| a} a^(-n_1)) z_1^d
    over monic a of degree d, the others sum_a a^(-n_i) z_i^d.  Returns
    the coefficientwise minimum of v_P over z-monomials, its Gauss
    valuation (inf if the difference vanishes to working precision);
    the caller compares it with q^(k+1) - (|n_2|+...+|n_r|)(deg P + k).
    """
    ns = tuple(int(n) for n in ns)
    if not ns:
        raise ValueError("need at least one exponent")
    if not is_irreducible(P):
        raise ValueError("P is reducible")
    q = spec.q
    dP = P.degree
    mk = mk_sequence(ns[0], k, dP, q)
    cap = k + dP + 1
    degbound = lq_digit_sum(-mk, q) // (q - 1)
    # headroom past the bound keeps alignment losses out of the verdict;
    # bucketed so calls with nearby exponent vectors share one ring
    neg_room = sum(max(n, 0) for n in ns[1:]) * max(cap - 1, 1)
    bucket = -(-(neg_room + GAP_HEADROOM) // 16) * 16
    kappa = q ** (k + 1) + bucket
    ring = _get_local_ring(spec, P, kappa)

    names = tuple(f"z{i + 1}" for i in range(len(ns)))

    def table(i, d):
        if i:
            value = ring.local_power_sum(d, ns[i], False)
        else:
            value = _LocalValue(ring, 0, ring.reduced_power_sum(d, -mk)) if d <= degbound else ring.zero()
            if d <= cap:
                value = value - ring.local_power_sum(d, ns[0], True)
        return MPoly(names, {(0,) * i + (d,) + (0,) * (len(ns) - i - 1): value})

    top = max(degbound, cap)
    caps = [top] + [lq_digit_sum(-n, q) // (q - 1) if n <= 0 else top for n in ns[1:]]
    gap = chain_sum(table, caps, True, MPoly.zero(names)).gauss_valuation()
    return inf if gap is None else gap


def interpolation_gap_bound(spec: FieldSpec, ns, dP: int, k: int) -> int:
    """The certified lower bound q^(k+1) - (|n_2|+...+|n_r|)(dP + k)."""
    return spec.q ** (k + 1) - sum(abs(n) for n in ns[1:]) * (dP + k)
