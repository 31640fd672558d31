"""Multiple zeta objects: chain sums over degree-ordered monic tuples.

The strict sum Z runs over deg a_1 > deg a_2 > ... > deg a_r >= 0 and
the weak sum Z* over >=-chains; both factor through per-degree power
sums once the degree vector is fixed, so everything is computed by
dynamic programming over degrees with memoized factor tables, never by
raw tuple enumeration.

For all-nonpositive exponents the sums are exact polynomials in
z_1..z_r over A, with deg_{z_1} <= lq(-n_1)/(q-1).  The v-adic variant
restricts only the first index to be prime to P and is congruent to
the full sum modulo P^(-n_1): every omitted chain carries a_1^(-n_1)
with P | a_1.  Positive exponents are evaluated numerically at the
infinite place with the shell cutoff certified by the valuation bound
v(S_d(-n)) >= n d + q^(d-2); each numeric shell sum_a a^(-n) is the
power sum pi^(d p^M) S_d(p^M - n) mod pi^prec, for p^M >= max(prec, n).
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import FieldSpec, lq_digit_sum
from .polyring import APoly, MPoly
from .seriesinf import LaurentSeries
from .zeta import power_sum, least_p_power, shell_sum
from .vadic import prime_to_p_power_sum
from .polyring import is_irreducible


@dataclass(frozen=True)
class MzvIndex:
    """A multiple zeta index: exponents, chain mode, optional prime."""

    ns: tuple
    mode: str = "strict"
    P: APoly | None = None

    def __post_init__(self):
        object.__setattr__(self, "ns", tuple(int(n) for n in self.ns))
        if not self.ns:
            raise ValueError("need at least one index")
        if self.mode not in ("strict", "weak"):
            raise ValueError("mode must be 'strict' or 'weak'")

    @property
    def depth(self) -> int:
        return len(self.ns)


def _chain_dp(spec, idx: MzvIndex, s_tables, caps, names):
    """Sum over admissible degree chains of prod S_i(d_i) z_i^(d_i)."""
    strict = idx.mode == "strict"
    r = idx.depth
    memo = {}

    def build(i, upper):
        # upper = exclusive bound from the previous degree (None at the top)
        cap = caps[i]
        hi = cap if upper is None else min(cap, upper - (1 if strict else 0))
        key = (i, hi)
        if key in memo:
            return memo[key]
        out = MPoly.zero(names[i:])
        for d in range(hi + 1):
            coeff = s_tables[i](d)
            if not coeff:
                continue
            head = MPoly(names[i:], {(d,) + (0,) * (r - i - 1): coeff})
            if i + 1 < r:
                tail = build(i + 1, d)
                if tail.is_zero():
                    continue
                head = head * _widen(tail, names[i:])
            out = out + head
        memo[key] = out
        return out

    return build(0, None)


def _widen(poly: MPoly, names):
    """Reindex an MPoly in a variable suffix into the longer roster."""
    if poly.vars == names:
        return poly
    pad = len(names) - len(poly.vars)
    return MPoly(names, {(0,) * pad + e: c for e, c in poly.terms.items()})


def mzv_exact(spec: FieldSpec, idx: MzvIndex) -> MPoly:
    """The exact multiple zeta polynomial for all-nonpositive indices.

    Coincides with exact_L(n_1, 0) for depth 1; strict and weak sums
    differ by the diagonal terms sum_d S_d(-n_1) S_d(-n_2) (z_1 z_2)^d
    at depth 2.
    """
    if any(n > 0 for n in idx.ns):
        raise ValueError(
            "mixed or positive indices have no exact polynomial form; use mzv_eval_inf")
    names = tuple(f"z{i + 1}" for i in range(idx.depth))
    caps = [lq_digit_sum(-n, spec.q) // (spec.q - 1) for n in idx.ns]
    tables = [(lambda i: (lambda d: power_sum(spec, d, -idx.ns[i])))(i)
              for i in range(idx.depth)]
    return _chain_dp(spec, idx, tables, caps, names)


def mzv_vadic_exact(spec: FieldSpec, idx: MzvIndex, P: APoly) -> MPoly:
    """The v-adic multiple zeta polynomial: first index prime to P only.

    Congruent to mzv_exact modulo P^(-n_1) coefficientwise.
    """
    if any(n > 0 for n in idx.ns):
        raise ValueError(
            "mixed or positive indices have no exact polynomial form; use mzv_eval_inf")
    if not is_irreducible(P):
        raise ValueError("P is reducible")
    names = tuple(f"z{i + 1}" for i in range(idx.depth))
    caps = [lq_digit_sum(-n, spec.q) // (spec.q - 1) for n in idx.ns]
    caps[0] += P.degree
    tables = [(lambda i: (lambda d: power_sum(spec, d, -idx.ns[i])))(i)
              for i in range(idx.depth)]
    tables[0] = lambda d: prime_to_p_power_sum(spec, d, -idx.ns[0], P)
    return _chain_dp(spec, idx, tables, caps, names)


def _numeric_shell_cutoff(q: int, n1: int, prec: int, hard_cap: int = 4000) -> int:
    """Exclusive top-degree cutoff: chains with d_1 >= cutoff sit below
    pi^prec, since v(S_d(-n)) >= n d + q^(d-2)."""
    d = 0
    while d < hard_cap:
        cert = q ** (d - 2) if d >= 2 else 0
        if n1 * d + cert >= prec:
            return d
        d += 1
    raise ValueError("no shell cutoff found; precision too large")


def mzv_eval_inf(spec: FieldSpec, idx: MzvIndex, prec: int, z_points=None) -> LaurentSeries:
    """Numeric chain sum for all-positive indices at the infinite place.

    z_points are Laurent values of Gauss norm <= 1 (default all 1);
    chains with top degree d contribute valuation >= n_1 d, and the
    shell certificate pushes the cutoff down to O(log prec) shells.
    """
    if any(n < 1 for n in idx.ns):
        raise ValueError("numeric evaluation needs all indices >= 1")
    r = idx.depth
    if z_points is None:
        z_points = [LaurentSeries.one(spec, prec) for _ in range(r)]
    z_points = list(z_points)
    if len(z_points) != r:
        raise ValueError(f"need {r} z-points")
    for z in z_points:
        v = z.valuation()
        if v is not None and v < 0:
            raise ValueError("z-points must have Gauss norm <= 1 (valuation >= 0)")
    cutoff = _numeric_shell_cutoff(spec.q, idx.ns[0], prec)
    strict = idx.mode == "strict"

    s_cache: dict = {}

    def s_numeric(i, d):
        # sum_a a^(-n) = pi^(d p^M') S_d(p^M' - n) mod pi^prec, p^M' >= max(prec, n)
        n = idx.ns[i]
        if (n, d) not in s_cache:
            big = least_p_power(spec.p, max(prec, n))
            s_cache[(n, d)] = shell_sum(spec, d, big - n, d * big, prec)
        return s_cache[(n, d)]

    memo: dict = {}

    def build(i, upper):
        hi = (cutoff - 1) if upper is None else upper - (1 if strict else 0)
        key = (i, hi)
        if key in memo:
            return memo[key]
        total = LaurentSeries.zero(spec, prec)
        for d in range(hi + 1):
            term = s_numeric(i, d) * z_points[i] ** d
            if i + 1 < r:
                term = term * build(i + 1, d)
            total = total + term
        memo[key] = total
        return total

    value = build(0, None)
    return value.truncate(min(prec, value.prec))
