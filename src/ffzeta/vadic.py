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

Each piece of unit arithmetic is done once.  At deg P = 1,
`vadic_zeta_eval` needs none: for a unit a mod P,
omega(a)^delta <a>^(-y) = a^m mod P^k with

    N' = -y mod p^M' (p^M' >= k least),  r = (delta - N') mod (q - 1),
    m = N' + r q^j  (q^j >= k least),

since <a>^(p^M') = 1 and omega(a) = a^(q^j) mod P^k, so shell d is
S_d(m) - P^m S_(d-1)(m) mod P^k, taken at theta (below).  At
deg P >= 2 it takes the Teichmuller lift omega = a^(Q^j) (Q = q^deg P,
Q^j >= k least) once per residue class mod P (it depends only on
a mod P), and each monic's <a>^(-y) as the one power <a>^(N'), with N'
as above.  A gap inverts no unit of a shell: its sums of a^(-n) come
from Carlitz's closed form, which inverts one unit per degree.

Gap tables live in the localized ring P^e * A/(P^kappa), the
finite-place analogue of a truncated Laurent series, so inner indices
divisible by P with positive exponents stay representable.  Its power
sums S_d(n) mod P^kappa come from the degree recursion of `zeta`, its
sums of a^(-n), n > 0, from Carlitz's closed form (`_CarlitzSums`),
those prime to P by the Euler split, and the gap is a (min, +) chain
sum of the tables' valuations (see `interpolation_gap`).

A degree-one gap is taken at P = theta.  The automorphism
theta -> theta + c of A permutes the monics of each degree and maps
P = theta - c to theta, so it maps every table (a sum over the monics of
one degree, or over those prime to P) at theta - c to the same table at
theta, and v_(theta - c)(f) = v_theta(f(theta + c)).  A/(theta^kappa) is
a ring of truncated series that needs no division or inverse (see
`_ThetaRing`); deg P >= 2 keeps the quotient kernel of A/(P^kappa).  A
degree-one evaluation is the value at theta with theta replaced by
P = theta - c, a polynomial of degree < k and so already reduced.
"""

from __future__ import annotations

import functools
from math import inf

from ._kernels import get_kernel, raw_to_apoly, QuotientKernel
from .fields import FieldSpec, FrozenValue, ZpExp, least_p_power, lq_digit_sum
from .polyring import APoly, MPoly, chain_sum, enumerate_monic, is_irreducible
from .padic import PadicCtx, PadicElem, teichmuller, padic_one_unit_pow, split_P_power, _invert_mod
from .seriesinf import PrecisionError
from .zeta import (power_sum, exact_L, exact_L_degree_bound, _monomial_codes, _power_sum_raw,
                   _power_sum_window)


class VadicPoint(FrozenValue):
    """Evaluation data at a finite place: exponent digits of -y, a
    Teichmuller twist delta, and the z-truncation degree."""

    __slots__ = ("ctx", "neg_y", "delta", "zdeg")

    def __init__(self, ctx: PadicCtx, neg_y: ZpExp, delta: int, zdeg: int):
        super().__init__(ctx, neg_y, delta, zdeg)
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
    P_of_t = _monomial_codes(spec, [P.coeff_codes] * s)  # the monomials of prod_i P(t_i)
    terms = dict(L.terms)
    for exp, coeff in L.terms.items():
        PnL = kernel.mul(Pn, kernel.from_codes(coeff.coeff_codes))
        for js, code in P_of_t.items():
            key = tuple(e + j for e, j in zip(exp, js)) + (exp[-1] + P.degree,)
            term = raw_to_apoly(kernel, kernel.scale(PnL, spec.neg_code(code)))
            terms[key] = terms[key] + term if key in terms else term
    return MPoly(L.vars, terms)


def vadic_zeta_eval(ptv: VadicPoint) -> MPoly:
    """sum_{d <= zdeg} z^d sum_{P not| a} omega(a)^delta <a>_P^(-y) in A/(P^k).

    At deg P = 1 every term is a^m mod P^k for one integer m
    (module docstring), so shell d is S_d(m) - P^m S_(d-1)(m), read off
    the bottom windows at theta and substituted back at P.  At deg P >= 2
    omega(a) depends only on a mod P, so each nonzero residue class is
    lifted once per call, with its omega^(-1) and omega^delta; every
    monic still takes its own one-unit power of <a> = a omega(a)^(-1),
    one integer power.  For an integer exponent y = -n with
    delta = -n mod q^dP - 1 this reduces to vadic_exact_L(n, 0, P) mod P^k.
    """
    ctx = ptv.ctx
    spec = ctx.field
    if ctx.dP == 1:
        return _degree_one_eval(ptv)
    order = ctx.residue_order()
    delta = ptv.delta % order if order > 1 else 0
    lifts = {}  # residue codes mod P -> (omega^(-1), omega^delta)
    terms = {}
    for d in range(ptv.zdeg + 1):
        total = ctx.zero()
        for a in enumerate_monic(spec, d):
            ar = ctx.reduce(a)
            r = ar.rep % ctx.P
            if not r:
                continue
            if r.coeff_codes not in lifts:
                omega = teichmuller(ctx.reduce(r), ctx)
                lifts[r.coeff_codes] = (omega.inverse(), omega ** delta if delta else None)
            omega_inv, twist = lifts[r.coeff_codes]
            value = padic_one_unit_pow(ar * omega_inv, ptv.neg_y)
            if twist is not None:
                value = value * twist
            total = total + value
        if total:
            terms[(d,)] = total
    return MPoly(("z",), terms)


def _degree_one_eval(ptv: VadicPoint) -> MPoly:
    """vadic_zeta_eval at P = theta - c from the power sums at one exponent m."""
    ctx = ptv.ctx
    spec, k = ctx.field, ctx.k
    N = ptv.neg_y.as_int() % least_p_power(spec.p, k)
    m = N + (ptv.delta - N) % (spec.q - 1) * least_p_power(spec.q, k)
    # theta -> theta + c maps each shell at P = theta - c to the shell at theta
    ring = _local_ring(spec, APoly.theta(spec), k)
    terms = {}
    for d in range(ptv.zdeg + 1):
        codes = ring.kernel.to_codes(ring.local_power_sum(d, -m, True).raw)
        if codes:
            value = APoly.zero(spec)
            for code in reversed(codes):
                value = value * ctx.P + APoly.constant(spec, code)
            terms[(d,)] = PadicElem(ctx, value)
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

    Relative precision kappa is fixed, and addition aligns exponents,
    exactly as for truncated Laurent series.  Sums of a^(-n), n >= 1,
    over the monics of a degree come from Carlitz's closed form
    (`_CarlitzSums`), with no unit of the shell inverted.
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
        self._carlitz = None

    def times_p(self, raw, j):
        """raw * P^j in A/(P^kappa); the powers of P are cached."""
        if j not in self._p_powers:
            self._p_powers[j] = self.qk.pow(self.P_raw, j)
        return self.qk.mul(raw, self._p_powers[j])

    def times_theta(self, raw, k):
        """raw * theta^k for a reduced raw value, left unreduced: both
        factors have degree < D, so the product stays within the Barrett
        range 2D - 2 and a recursion node reduces its sum once.  The
        reduced powers of theta are cached."""
        if k not in self._theta_powers:
            self._theta_powers[k] = self.qk.pow(self.kernel.from_codes((0, 1)), k)
        return self.kernel.mul(self._theta_powers[k], raw)

    def valuation(self, raw):
        """v_P of a reduced raw value, or None when it is zero."""
        codes = self.kernel.to_codes(raw)
        return split_P_power(APoly(self.spec, codes), self.P, self.kappa)[0] if codes else None

    def reduced_power_sum(self, d, n):
        """S_d(n) mod P^kappa as a raw value, by the degree recursion of A."""
        return _power_sum_raw(self.spec, self.kernel, d, n, self.power_sum_memo,
                              self.times_theta, self.qk.reduce)

    def from_apoly(self, a: APoly):
        if a.degree > self.qk.N:
            a = a % self.modulus
        return _LocalValue(self, 0, self.qk.reduce(self.kernel.from_codes(a.coeff_codes)))

    def cut(self, raw):
        """A normalized raw value of any degree, reduced mod P^kappa."""
        if self.kernel.truncate(raw, self.qk.N + 1) == raw:
            return self.qk.reduce(raw)
        return self.from_apoly(raw_to_apoly(self.kernel, raw)).raw

    def zero(self):
        return _LocalValue(self, 0, self.kernel.zero())

    def carlitz(self, extra: int) -> "_CarlitzSums":
        """The closed-form tables, known to at least `extra` digits past
        kappa.  They start 8 digits past kappa, enough for the sums prime
        to P of small n and d, and are rebuilt wider, in steps of 8 digits,
        when a sum asks for more."""
        if self._carlitz is None or self._carlitz.W < self.kappa + extra:
            self._carlitz = _CarlitzSums(self, self.kappa + max(-(-extra // 8), 1) * 8)
        return self._carlitz

    def inverse_power_sum(self, d: int, n: int, prime_to_p: bool):
        """sum of a^(-n), n >= 1, over monic degree-d a (prime to P only if
        asked).  The full sum is S_d(-n) = P^(-m) r, m = n floor(d / deg P),
        from the closed form.  The multiples of P are P*b with b monic of
        degree d - deg P, so the sum prime to P is
        S_d(-n) - P^(-n) S_(d - deg P)(-n) = P^(-m) (r - r'): the difference
        is integral, and it cancels m digits, so r and r' are taken m
        digits past kappa and r - r' is divided by P^m exactly.  The cost
        grows with n twice: the recurrence takes n steps, and the sum
        prime to P works m digits wider.  So the sum prime to P, whose
        terms are units of A/(P^kappa), takes n mod E in [1, E], with
        E = (Q - 1) p^t, Q = q^(deg P) and p^t >= kappa least, the exponent
        of that unit group."""
        if prime_to_p:
            E = (self.spec.q ** self.P.degree - 1) * least_p_power(self.spec.p, self.kappa)
            n = (n - 1) % E + 1
        m = n * (d // self.P.degree)
        if not prime_to_p or not m:
            return _LocalValue(self, -m, self.cut(self.carlitz(0).raw_sum(d, n)))
        tables, kernel = self.carlitz(m), self.kernel
        diff = kernel.add(tables.raw_sum(d, n), kernel.scale(
            tables.raw_sum(d - self.P.degree, n), self.spec.neg_code(1)))
        quo, rem = divmod(raw_to_apoly(kernel, kernel.normalize(diff)), self.P ** m)
        if rem:
            raise ArithmeticError(f"the sum of a^(-{n}) over the monics of degree {d} prime "
                                  "to P is not integral")
        return _LocalValue(self, 0, self.cut(kernel.from_codes(quo.coeff_codes)))

    def local_power_sum(self, d: int, n: int, prime_to_p: bool):
        """sum of a^(-n) over monic degree-d a (prime to P only if asked),
        cached.  n >= 1 is `inverse_power_sum`; n <= 0 takes the reduced
        power sum S_d(-n) over all monics, and prime to P subtracts the
        multiples of P, P*b with b monic of degree d - deg P: P^(-n)
        times the full sum of degree d - deg P."""
        key = (d, n, prime_to_p)
        if key in self.table_cache:
            return self.table_cache[key]
        if n > 0:
            acc = self.inverse_power_sum(d, n, prime_to_p)
        else:
            acc = _LocalValue(self, 0, self.reduced_power_sum(d, -n))
            if prime_to_p and d >= self.P.degree:
                rest = self.local_power_sum(d - self.P.degree, n, False)
                acc = acc - _LocalValue(self, rest.exp - n, rest.raw)
        self.table_cache[key] = acc
        return acc


class _CarlitzSums:
    """S_d(-n) = sum of a^(-n) over monic degree-d a, n >= 1, in A/(P^W).

    Carlitz's closed form (Carlitz, Duke Math. J. 1, 1935; Thakur,
    Function Field Arithmetic, 2004).  e_d(x) = prod_{deg b < d} (x - b)
    is F_q-linear, e_d(x)/D_d = sum_{i=0..d} c_i x^(q^i) with

        c_i = (-1)^(d-i) / (D_i L_(d-i)^(q^i)),
        L_j = prod_{1<=m<=j} (theta^(q^m) - theta),
        D_i = prod_{0<=m<i} (theta^(q^i) - theta^(q^m)),

    and the monics of degree d are the roots of e_d(x) - D_d.  The
    logarithmic derivative of that product, expanded in x, gives

        sum_{k>=1} S_d(-k) z^(k-1) = c_0 / (1 - sum_{i=0..d} c_i z^(q^i)),

    so S_d(-1) = c_0 and S_d(-k) = sum_{i: q^i < k} c_i S_d(-(k - q^i)).
    For k <= q only c_0 = 1/l_d enters, l_d = prod_{j<=d} (theta - theta^(q^j)),
    and S_d(-k) = l_d^(-k).

    P is split off exactly (`split`): theta^(q^j) - theta is the product
    of the monic irreducibles of degree dividing j, each once, so it is
    P^(e_j) w_j with w_j a unit and e_j = 1 when deg P | j, else 0; and
    theta^(q^i) - theta^(q^m) = (theta^(q^(i-m)) - theta)^(q^m).  So
    c_i = P^(v_i) u_i, u_i a unit, with v_i = -(a_i + q^i f_(d-i)),
    a_i = sum_{j<=i} e_j q^(i-j) and f_j = sum_{m<=j} e_m = floor(j / deg P).
    Writing S_d(-k) = P^(-k f_d) r_k,

        r_1 = u_0,   r_k = sum_{i: q^i < k} P^(s_i) u_i r_(k - q^i),
        s_i = v_i + q^i f_d = q^i (f_d - f_(d-i)) - a_i >= 0,

    since f_d - f_(d-i) >= floor(i / deg P) and a_i < q^i floor(i / deg P)
    once i >= deg P (a_i = 0 below).  So every r_k is integral and the
    recurrence loses no digit, for every n: W digits of r_n need only W
    digits of the units.  The differences theta^(q^j) - theta are formed
    mod P^(W+1), so that w_j keeps W digits; the tables work mod P^(W+1)
    and their values are right mod P^W.
    """

    def __init__(self, ring: _LocalRing, W: int):
        self.ring = ring
        self.W = W
        self.qk = QuotientKernel(ring.kernel, (ring.P ** (W + 1)).coeff_codes)
        self.frobenius = [self.qk.reduce(ring.kernel.from_codes((0, 1)))]  # theta^(q^j)
        one = ring.kernel.from_codes((1,))
        # D_j = P^(a_j) / A_j and L_j = P^(f_j) / B_j with A_j, B_j units
        self.parts = [((0, one), (0, one))]
        self.coefficients: dict = {}  # (d, i) -> P^(s_i) u_i, None when s_i >= W
        self.sums: dict = {}  # d -> [None, r_1, r_2, ...]

    def split(self, j: int):
        """(e, w) with theta^(q^j) - theta = P^e w and w a unit known mod
        P^W, as an APoly; the difference is formed mod P^(W+1) before the
        division by P."""
        ring = self.ring
        while len(self.frobenius) <= j:
            self.frobenius.append(self.qk.pow(self.frobenius[-1], ring.spec.q))
        diff = raw_to_apoly(ring.kernel, self.frobenius[j]) - APoly.theta(ring.spec)
        if j % ring.P.degree:
            return 0, diff
        quo, rem = divmod(diff, ring.P)
        if rem:
            raise ArithmeticError(f"P does not divide theta^(q^{j}) - theta")
        return 1, quo

    def part(self, j: int):
        """((a_j, A_j), (f_j, B_j)), cached: with theta^(q^j) - theta = P^e w,
        A_j = A_(j-1)^q / w and B_j = B_(j-1) / w.  Each j takes one Euclid
        inverse mod P and one Newton lift."""
        ring, qk, q = self.ring, self.qk, self.ring.spec.q
        while len(self.parts) <= j:
            e, w = self.split(len(self.parts))
            inverse = qk.inverse(ring.kernel.from_codes(w.coeff_codes), ring.kernel.from_codes(
                _invert_mod(ring.spec, w, ring.P).coeff_codes), digits=self.W + 1)
            (a, A), (f, B) = self.parts[-1]
            self.parts.append(((q * a + e, qk.mul(qk.pow(A, q), inverse)),
                               (f + e, qk.mul(B, inverse))))
        return self.parts[j]

    def coefficient(self, d: int, i: int):
        """P^(s_i) u_i for degree d, cached; None when s_i >= W, as its
        terms vanish mod P^W."""
        key = (d, i)
        if key not in self.coefficients:
            ring, qk, q = self.ring, self.qk, self.ring.spec.q
            a, A = self.part(i)[0]
            f, B = self.part(d - i)[1]
            s = q ** i * (self.part(d)[1][0] - f) - a
            if s < 0:
                raise ArithmeticError(f"closed-form shift s_{i} = {s} < 0 at degree {d}")
            u = None
            if s < self.W:
                u = qk.mul(A, qk.pow(B, q ** i))
                if s:
                    u = qk.mul(u, ring.kernel.from_codes((ring.P ** s).coeff_codes))
                if (d - i) % 2:
                    u = ring.kernel.scale(u, ring.spec.neg_code(1))
            self.coefficients[key] = u
        return self.coefficients[key]

    def raw_sum(self, d: int, n: int):
        """r_n with S_d(-n) = P^(-n f_d) r_n, right mod P^W; r_1..r_n are kept."""
        q, kernel = self.ring.spec.q, self.ring.kernel
        rs = self.sums.setdefault(d, [None, self.coefficient(d, 0)])
        while len(rs) <= n:
            k, total = len(rs), kernel.zero()
            for i in range(d + 1):
                if q ** i >= k:
                    break
                if (u := self.coefficient(d, i)) is not None:
                    total = kernel.add(total, self.qk.mul(u, rs[k - q ** i]))
            rs.append(kernel.normalize(total))
        return rs[n]


class _ThetaRing(_LocalRing):
    """theta^e * (A/(theta^kappa)), where A/(theta^kappa) is the ring of
    series in theta truncated at theta^kappa.

    A raw value keeps its low kappa digits: reduction is a mask, a
    product by theta^j a shift and v_theta the index of the first nonzero
    digit, so no quotient kernel, division or inverse is needed.  S_d(n)
    mod theta^kappa is the bottom window of the degree recursion
    (`zeta._power_sum_window`).  For a unit u mod theta^kappa,
    u^((q-1) q^j) = 1 once q^j >= kappa, so u^(-n) = u^m with
    m = (q-1) q^j - n; taking also m >= kappa, the multiples theta*b of a
    shell add theta^m S_(d-1)(m) = 0, and the shell's sum of u^(-n) over
    its units is S_d(m) mod theta^kappa.
    """

    def __init__(self, spec: FieldSpec, kappa: int):
        self.spec = spec
        self.P = APoly.theta(spec)
        self.kappa = kappa
        self.kernel = get_kernel(spec)
        self.table_cache: dict = {}

    def times_p(self, raw, j):
        """raw * theta^j mod theta^kappa: a shift and a mask."""
        return self.kernel.truncate(self.kernel.shift(raw, j), self.kappa)

    def valuation(self, raw):
        """The first nonzero digit of a normalized raw value, or None."""
        low = [(v & -v).bit_length() - 1 for v in raw if v]
        return min(low) // self.kernel.digit_bits if low else None

    def reduced_power_sum(self, d, n):
        return _power_sum_window(self.spec, d, n, self.kappa)

    def unit_power_sum(self, d: int, n: int):
        q = self.spec.q
        qj = least_p_power(q, max(self.kappa, -(-(self.kappa + n) // (q - 1))))
        return _power_sum_window(self.spec, d, (q - 1) * qj - n, self.kappa)

    def inverse_power_sum(self, d: int, n: int, prime_to_p: bool):
        """The units' sum is one window (above); a full sum adds the
        multiples theta*b, theta^(-n) times the full sum of degree d - 1."""
        acc = _LocalValue(self, 0, self.unit_power_sum(d, n))
        if not prime_to_p and d >= 1:
            rest = self.local_power_sum(d - 1, n, False)
            acc = acc + _LocalValue(self, rest.exp - n, rest.raw)
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
        rx = self.raw if self.exp == e else ring.times_p(self.raw, self.exp - e)
        ry = other.raw if other.exp == e else ring.times_p(other.raw, other.exp - e)
        return _LocalValue(ring, e, ring.kernel.normalize(ring.kernel.add(rx, ry)))

    def __neg__(self):
        kernel = self.ring.kernel
        return _LocalValue(self.ring, self.exp,
                           kernel.normalize(kernel.scale(self.raw, self.ring.spec.neg_code(1))))

    def __sub__(self, other):
        return self + (-other)

    def valuation(self):
        """v_P, or None when the value vanishes to its relative precision."""
        v = self.ring.valuation(self.raw)
        return None if v is None else self.exp + v


# ---------------------------------------------------------------------------
# the interpolation gap


GAP_HEADROOM = 16  # precision kept past the gap bound, in powers of P


# bounded, so a long-lived process keeps at most this many rings and their memos
@functools.lru_cache(maxsize=64)
def _local_ring(spec: FieldSpec, P: APoly, kappa: int) -> _LocalRing:
    return _ThetaRing(spec, kappa) if P == APoly.theta(spec) else _LocalRing(spec, P, kappa)


class _MinPlus:
    """A valuation in the (min, +) semiring: + is min, * is +, inf is zero."""

    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v

    def __add__(self, other):
        return _MinPlus(min(self.v, other.v))

    def __mul__(self, other):
        return _MinPlus(self.v + other.v)


def interpolation_gap(spec: FieldSpec, ns, P: APoly, k: int):
    """Measured v_P of (m_k polynomial) - (v-adic partial sum to k+dP+1).

    ns = (n_1, ..., n_r) integer exponents; the first is interpolated by
    m_k and the partial sums restrict the top index prime to P.  The
    difference is a strict chain sum whose first table is
    (sum_a a^(-m_k) - sum_{P not| a} a^(-n_1)) z_1^d over monic a of
    degree d, the others sum_a a^(-n_i) z_i^d, taken in P^e * A/(P^kappa).
    Each strict chain is its own z-monomial and v_P is additive, so its
    Gauss valuation is one polyring.chain_sum in (min, +) over the
    tables' valuations; the caller compares it with
    q^(k+1) - (|n_2|+...+|n_r|)(deg P + k).  inf means that no chain
    has a valuation below kappa: that covers both an exact zero and a
    difference past working precision, which this value cannot tell apart.
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
    degbound = exact_L_degree_bound(spec, mk, 0)
    # headroom past the bound keeps alignment losses out of the verdict; the
    # rounding sets where a gap reads inf (q = 4, k = 0, ns = (2, 1, 0): 25 at
    # kappa = 36, inf at the unrounded 21) and lets nearby calls share a ring
    neg_room = sum(max(n, 0) for n in ns[1:]) * max(cap - 1, 1)
    bucket = -(-(neg_room + GAP_HEADROOM) // 16) * 16
    # theta -> theta + c permutes the monics of each degree and maps
    # theta - c to theta, so a degree-one gap is the gap at theta
    ring = _local_ring(spec, APoly.theta(spec) if dP == 1 else P, q ** (k + 1) + bucket)

    def table(i, d):
        if i:
            value = ring.local_power_sum(d, ns[i], False)
        else:
            value = _LocalValue(ring, 0, ring.reduced_power_sum(d, -mk)) if d <= degbound else ring.zero()
            if d <= cap:
                value = value - ring.local_power_sum(d, ns[0], True)
        v = value.valuation()
        return _MinPlus(inf if v is None else v)

    top = max(degbound, cap)
    caps = [top] + [exact_L_degree_bound(spec, n, 0) if n <= 0 else top for n in ns[1:]]
    return chain_sum(table, caps, True, _MinPlus(inf)).v


def interpolation_gap_bound(spec: FieldSpec, ns, dP: int, k: int) -> int:
    """The certified lower bound q^(k+1) - (|n_2|+...+|n_r|)(dP + k)."""
    return spec.q ** (k + 1) - sum(abs(n) for n in ns[1:]) * (dP + k)
