"""Multiple zeta objects: chain sums over degree-ordered monic tuples.

The strict sum Z runs over deg a_1 > deg a_2 > ... > deg a_r >= 0 and
the weak sum Z* over >=-chains; both factor through per-degree power
sums once the degree vector is fixed.  The exact polynomials and the
numeric values are both polyring.chain_sum over tables S_i(d) z_i^d, a
dynamic program over degrees, never raw tuple enumeration;
vadic.interpolation_gap takes the same strict sum in A/(P^kappa).

For all-nonpositive exponents the sums are exact polynomials in
z_1..z_r over A, with deg_{z_1} <= lq(-n_1)/(q-1).  The v-adic variant
restricts only the first index to be prime to P and is congruent to
the full sum modulo P^(-n_1): every omitted chain carries a_1^(-n_1)
with P | a_1.  Positive exponents are evaluated numerically at the
infinite place with the shell cutoff certified by the valuation bound
v(S_d(-n)) >= n d + q^(d-1) for q >= 3 and n d + 2^(d-2) at q = 2
(`zeta.infty_coeff_valuation_bound`); each numeric shell sum_a a^(-n) is
the power sum pi^(d p^M) S_d(p^M - n) mod pi^prec, for p^M >= max(prec, n).
"""

from __future__ import annotations

from .fields import FieldSpec, FrozenValue, least_p_power
from .polyring import APoly, MPoly, chain_sum, is_irreducible
from .seriesinf import LaurentSeries
from .zeta import exact_L_degree_bound, infty_coeff_valuation_bound, power_sum, shell_sum
from .vadic import prime_to_p_power_sum


class MzvIndex(FrozenValue):
    """A multiple zeta index: exponents and chain mode."""

    __slots__ = ("ns", "mode")

    def __init__(self, ns: tuple, mode: str = "strict"):
        super().__init__(tuple(int(n) for n in ns), mode)
        if not self.ns:
            raise ValueError("need at least one index")
        if self.mode not in ("strict", "weak"):
            raise ValueError("mode must be 'strict' or 'weak'")

    @property
    def depth(self) -> int:
        return len(self.ns)


def _exact_chain_sum(spec: FieldSpec, idx: MzvIndex, P: APoly | None = None) -> MPoly:
    """Sum over degree chains of prod_i S_(d_i)(-n_i) z_i^(d_i); with P
    given, the first power sum runs over a_1 prime to P only."""
    if any(n > 0 for n in idx.ns):
        raise ValueError(
            "mixed or positive indices have no exact polynomial form; use mzv_eval_inf")
    if P is not None and not is_irreducible(P):
        raise ValueError("P is reducible")
    r = idx.depth
    names = tuple(f"z{i + 1}" for i in range(r))
    caps = [exact_L_degree_bound(spec, n, 0) for n in idx.ns]
    if P is not None:
        caps[0] += P.degree

    def table(i, d):
        n = -idx.ns[i]
        coeff = (prime_to_p_power_sum(spec, d, n, P) if i == 0 and P is not None
                 else power_sum(spec, d, n))
        return MPoly(names, {(0,) * i + (d,) + (0,) * (r - i - 1): coeff})

    return chain_sum(table, caps, idx.mode == "strict", MPoly.zero(names))


def mzv_exact(spec: FieldSpec, idx: MzvIndex) -> MPoly:
    """The exact multiple zeta polynomial for all-nonpositive indices.

    Coincides with exact_L(n_1, 0) for depth 1; strict and weak sums
    differ by the diagonal terms sum_d S_d(-n_1) S_d(-n_2) (z_1 z_2)^d
    at depth 2.
    """
    return _exact_chain_sum(spec, idx)


def mzv_vadic_exact(spec: FieldSpec, idx: MzvIndex, P: APoly) -> MPoly:
    """The v-adic multiple zeta polynomial: first index prime to P only.

    Congruent to mzv_exact modulo P^(-n_1) coefficientwise.
    """
    return _exact_chain_sum(spec, idx, P)


def _numeric_shell_cutoff(q: int, n1: int, prec: int) -> int:
    """Exclusive top-degree cutoff: chains with d_1 >= cutoff sit below
    pi^prec, since v(S_d(-n)) >= n d + infty_coeff_valuation_bound(q, d),
    which is q^(d-1) for q >= 3 and 2^(d-2) at q = 2."""
    for d in range(4000):
        if n1 * d + infty_coeff_valuation_bound(q, d) >= prec:
            return d
    raise ValueError("no shell cutoff found; precision too large")


def mzv_eval_inf(spec: FieldSpec, idx: MzvIndex, prec: int, z_points=None) -> LaurentSeries:
    """Numeric chain sum for all-positive indices at the infinite place.

    z_points are Laurent values of Gauss norm <= 1 (default all 1);
    chains with top degree d contribute valuation >= n_1 d, and the
    shell certificate pushes the cutoff down to O(log prec) shells.
    """
    if any(n < 1 for n in idx.ns):
        raise ValueError("numeric evaluation needs all indices >= 1")
    if prec < 1:
        raise ValueError("need prec >= 1")
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

    def table(i, d):
        # sum_a a^(-n) = pi^(d p^M') S_d(p^M' - n) mod pi^prec, p^M' >= max(prec, n)
        big = least_p_power(spec.p, max(prec, idx.ns[i]))
        return shell_sum(spec, d, big - idx.ns[i], d * big, prec) * z_points[i] ** d

    value = chain_sum(table, [cutoff - 1] * r, idx.mode == "strict",
                      LaurentSeries.zero(spec, prec))
    return value.truncate(min(prec, value.prec))
