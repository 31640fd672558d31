"""Kernel arithmetic against APoly, the quotient kernel against APoly % m."""

import pytest
from hypothesis import given, settings, strategies as st

from ffzeta import oracle, zeta
from ffzeta._kernels import DigitOverflowError, QuotientKernel, RawSum, get_kernel
from ffzeta.fields import FieldError, FieldSpec
from ffzeta.padic import _invert_mod
from ffzeta.polyring import APoly

SMALL_Q = (2, 3, 4, 5, 8, 9, 16, 25, 27)
FIELDS = {q: FieldSpec.default(q) for q in SMALL_Q}
# codes above 255: a packed field (p = 17, e = 2) and a bit-plane field
FIELDS[289] = FieldSpec(17, (14, 0, 1))                  # xi^2 - 3
FIELDS[512] = FieldSpec(2, (1, 0, 0, 0, 1, 0, 0, 0, 0, 1))  # xi^9 + xi^4 + 1

# (q, P, k): moduli P^k with D = k deg P from 1 to 40
MODULI = ((2, (1, 1), 1), (2, (1, 1, 1), 7), (2, (1, 1, 0, 1), 13), (3, (1, 1), 40),
          (3, (1, 0, 1), 9), (4, (2, 1), 5), (5, (2, 1), 17), (9, (3, 1), 6),
          (25, (1, 1), 3), (27, (2, 0, 1), 10))


def _poly(spec, draw, max_len):
    return APoly(spec, draw(st.lists(st.integers(0, spec.q - 1), max_size=max_len)))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(FIELDS)), st.data())
def test_codec_round_trip(q, data):
    spec = FIELDS[q]
    kernel = get_kernel(spec)
    a = _poly(spec, data.draw, 40)
    assert kernel.to_codes(kernel.from_codes(a.coeff_codes)) == a.coeff_codes
    # trailing zero codes do not change the raw value
    assert kernel.from_codes(a.coeff_codes + (0, 0)) == kernel.from_codes(a.coeff_codes)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(SMALL_Q), st.data())
def test_kernel_ops_match_apoly(q, data):
    spec = FIELDS[q]
    kernel = get_kernel(spec)
    a, b = _poly(spec, data.draw, 25), _poly(spec, data.draw, 25)
    code = data.draw(st.integers(0, q - 1))
    n = data.draw(st.integers(0, 3 * q + 2))
    ra, rb = kernel.from_codes(a.coeff_codes), kernel.from_codes(b.coeff_codes)
    assert kernel.to_codes(kernel.mul(ra, rb)) == (a * b).coeff_codes
    assert kernel.to_codes(kernel.add(ra, rb)) == (a + b).coeff_codes
    assert kernel.to_codes(kernel.scale(ra, code)) == (a * APoly.constant(spec, code)).coeff_codes
    assert kernel.to_codes(kernel.pow(ra, n)) == (a ** n).coeff_codes
    assert kernel.is_zero(kernel.add(ra, kernel.scale(ra, spec.neg_code(1))))


@pytest.mark.parametrize("q, P, k", MODULI)
def test_quotient_kernel_matches_apoly(q, P, k):
    spec = FieldSpec.default(q)
    kernel = get_kernel(spec)
    P = APoly(spec, P)
    m = P ** k
    qk = QuotientKernel(kernel, m.coeff_codes)
    D = qk.D
    assert D == k * P.degree
    seed = APoly(spec, [(3 * i + 1) % q for i in range(2 * D - 1)])
    for deg in range(2 * D - 1):  # every operand degree up to 2D - 2
        a = APoly(spec, seed.coeff_codes[:deg] + (1,))
        assert kernel.to_codes(qk.reduce(kernel.from_codes(a.coeff_codes))) == (a % m).coeff_codes
    x = APoly(spec, seed.coeff_codes[:D]) % m
    y = APoly(spec, seed.coeff_codes[D - 1::-1]) % m
    rx, ry = kernel.from_codes(x.coeff_codes), kernel.from_codes(y.coeff_codes)
    assert kernel.to_codes(qk.mul(rx, ry)) == (x * y % m).coeff_codes
    assert kernel.to_codes(qk.pow(rx, 2 * q + 1)) == (x ** (2 * q + 1) % m).coeff_codes
    unit = x + APoly.one(spec) if (x % P).is_zero() else x
    res_inv = _invert_mod(spec, unit, P)
    inv = qk.inverse(kernel.from_codes((unit % m).coeff_codes),
                     kernel.from_codes(res_inv.coeff_codes))
    assert kernel.to_codes(inv) == _invert_mod(spec, unit, m).coeff_codes


@pytest.mark.parametrize("q", (2, 3, 9))
def test_quotient_kernel_rejects_operand_past_barrett_range(q):
    spec = FieldSpec.default(q)
    kernel = get_kernel(spec)
    qk = QuotientKernel(kernel, (APoly(spec, (1, 1)) ** 6).coeff_codes)
    top = kernel.from_codes((0,) * qk.N + (1,))
    assert kernel.to_codes(qk.reduce(top)) == (APoly(spec, (0,) * qk.N + (1,))
                                                % APoly(spec, (1, 1)) ** 6).coeff_codes
    with pytest.raises(ValueError, match="Barrett range"):
        qk.reduce(kernel.shift(top, 1))


def test_packed_digit_bound_at_p_251():
    spec = FieldSpec(251, (0, 1))
    kernel = get_kernel(spec)
    assert kernel.max_mul_len == 268  # 250^2 * 268 < 2^24 <= 250^2 * 269
    a = APoly(spec, [250] * 268)
    ra = kernel.from_codes(a.coeff_codes)
    assert kernel.to_codes(kernel.mul(ra, ra)) == (a * a).coeff_codes
    rb = kernel.from_codes((250,) * 269)
    with pytest.raises(DigitOverflowError):
        kernel.mul(rb, rb)
    # the bound is on the shorter operand
    assert kernel.to_codes(kernel.mul(ra, rb)) == (a * APoly(spec, [250] * 269)).coeff_codes


def test_packed_kernel_rejects_p_above_251():
    kernel = get_kernel(FieldSpec(257, (0, 1)))
    with pytest.raises(FieldError, match="p <= 251"):
        kernel.from_codes((1, 256))


def test_raw_sum_normalizes_just_before_a_digit_reaches_2_24():
    # p = 11: 2^24 is not 1 mod 11, so an overflowed digit reads wrong
    spec = FieldSpec(11, (0, 1))
    kernel = get_kernel(spec)
    term = kernel.from_codes((3, 10))  # digits <= 10 = p - 1
    limit = 1 << 24
    for start in (limit - 11, limit - 10):  # just under, just over
        acc = RawSum(kernel, 10)
        acc.value, acc.bound = (start << 24,), start  # digit 1 built directly
        acc.add(term)
        want = ((3, (start + 10) % 11))
        assert kernel.to_codes(acc.value) == want
        assert max(acc.value[0] >> 24, acc.value[0] & (limit - 1)) < limit
        if start + 10 < limit:
            assert acc.value[0] >> 24 == start + 10  # not normalized
        else:
            assert acc.bound == 10 + 10  # normalized to digits < p first
            # a plain add carries into the next digit and reads wrong
            assert kernel.to_codes(kernel.add((start << 24,), term)) != want


def test_add_loops_keep_their_running_sums_bounded(monkeypatch):
    """The power-sum recursion, exact_L shells and the enumerated power
    sums and prime-to-P sums all accumulate through RawSum; a tiny digit
    limit forces many normalizations and must not change any value."""
    spec = FieldSpec.default(5)
    P = APoly(spec, (1, 1))

    def recursion():
        monkeypatch.setattr(zeta, "_memo_by_spec", {})  # recompute every child
        return zeta.shell_sum(spec, 2, 124, 248, 300)

    runs = (recursion,
            lambda: zeta.exact_L(spec, -24, 1),
            lambda: oracle.enumerated_prime_to_p_power_sum(spec, 2, 9, P),
            lambda: oracle.enumerated_vadic_exact_L(spec, -9, 1, P),
            lambda: oracle.enumerated_power_sum(spec, 2, 9))
    want = [run() for run in runs]
    seen = []
    real_add = RawSum.add

    def add(self, raw):
        real_add(self, raw)
        seen.append(self.bound)

    monkeypatch.setattr(RawSum, "digit_limit", 60)
    monkeypatch.setattr(RawSum, "add", add)
    for run, value in zip(runs, want):
        del seen[:]
        assert run() == value
        assert max(seen) < 60
        assert any(b < a for a, b in zip(seen, seen[1:]))  # normalized on the way
