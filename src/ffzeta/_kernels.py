"""Fast internal representations for polynomials in theta over F_q.

The public ring type is APoly; these kernels back the hot loops
(power-sum shells, Pellarin coefficients, scan oracles, the quotient
rings A/(m), the longer Laurent-series products and one-unit powers,
where the variable is pi = 1/theta).  A raw value is a tuple of e ints,
one per F_p-coordinate plane, with the coefficient of theta^i at digit i:

* p = 2: one bit per digit; addition is XOR, multiplication carry-less.
* 2 < p <= 251: 24-bit digits, so addition and convolution ride on
  Python's big-int arithmetic; `normalize` reduces every digit mod p
  with byte tables: byte k of a digit becomes (b << 8k) mod p by one
  `bytes.translate` per byte position that is not all zero, the residue
  strings are added as big ints (in 16-bit lanes when they could pass
  255) and one more translate finishes the reduction.
* 251 < p <= 1021: a reduced digit no longer fits a byte, and q <= 1024
  forces e = 1, so `_WideKernel` keeps 32-bit digits that it reads,
  reduces and packs one at a time; all else is the 24-bit kernel's.

This module alone knows how wide a digit is (MAX_PACKED_P picks the
kernel); every other module sees raw values and `digit_bits`.  Packed
digits never carry into their neighbours, so a digit must stay below
2^digit_bits.  `from_codes`, `mul`, `pow`, `normalize`, `frob_spread`
and QuotientKernel return normalized values (digits < p); `add` and
`scale` do not, and a sum must be normalized before it reaches `mul`.
Loops that add many terms accumulate through RawSum, which normalizes
before a digit of the running sum could reach 2^24 (for 32-bit digits
earlier than needed).  A product digit of
normalized operands is at most (p-1)^2 * w * L, with L the shorter
operand's length and w the field's plane-reduction weight: plane i
holds coordinate i, that of the unit u_i (code p^i), and the product of
planes i and j adds into plane k coordinate k of u_i u_j, read from the
field's table (a tower's u_i are not the powers of one element), so w is
the largest sum over plane pairs of one such coordinate (w = 1 for
e = 1).  `mul` keeps that bound under 2^digit_bits by cutting a shorter
operand of more than `max_mul_len` coefficients (p = 251, e = 1: 268;
p = 1021: 4128) into pieces that long, so every product is exact.
Codes convert through per-field tables, and `scale` reads the matrix of
each constant's product, built once from the field's tables.  Like the
rest of the library, the kernels use the standard library alone.

`pow` is Horner's rule on the base-q digits of n.  Frobenius fixes F_q,
so x^(q m + d) = frob_spread(x^m) * x^d: the small powers x^d, d < q,
come first, then each digit below the top costs one spread and, when
nonzero, one product with a small power.  Every product thus has an
operand of at most (q - 1) deg x + 1 coefficients.  A negative n
raises ValueError.  `truncate(x, L)` is x mod theta^L, and
`pow(x, n, limit)` works mod theta^limit.  `keep_residues(x, r, m)`
zeroes every digit at theta^k with k != r mod m, by one mask per (r, m).
"""

from __future__ import annotations

import struct

from .fields import FieldSpec, binary_power, poly_trim

_PACK_BITS = 24
_DIGIT_LIMIT = 1 << _PACK_BITS
MAX_PACKED_P = 251
_BIN_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def _spread(digits: bytes, stride: int) -> int:
    """The int whose byte i * stride is digits[i] and whose other bytes are 0."""
    buf = bytearray(max(stride * (len(digits) - 1) + 1, 0))
    buf[::stride] = digits
    return int.from_bytes(buf, "little")


def _spread32(digits, stride: int = 1) -> int:
    """The int whose 32-bit digit i * stride is digits[i] and whose other digits are 0."""
    pad = f"I{4 * stride - 4}x"
    return int.from_bytes(struct.pack("<" + pad * len(digits), *digits), "little")


def _clmul(a: int, b: int) -> int:
    r = 0
    while b:
        low = b & -b
        r ^= a << (low.bit_length() - 1)
        b ^= low
    return r


def _generic_pow(kernel, x, n: int, limit: int | None = None):
    """x^n by Horner's rule on the base-q digits of n; with `limit`, only
    x^n mod theta^limit.

    Frobenius fixes F_q, so x^(q m + d) = frob_spread(x^m) * x^d: the
    small powers x^d, d < q, that the digits need come first, one
    product by x each; then, from the top digit down, the running
    power is spread and multiplied by the small power of the next
    nonzero digit.  Every product has an operand of at most
    (q - 1) deg x + 1 coefficients.  With `limit` every product is cut
    to its low `limit` digits, and the running power to its low
    ceil(limit / q) digits before each spread, which are all that reach
    below theta^limit; this is the series power of `LaurentSeries`.
    """
    if n < 0:
        raise ValueError(f"kernel powers need n >= 0, got {n}")
    q = kernel.q
    mul, spread, truncate = kernel.mul, kernel.frob_spread, kernel.truncate
    if limit is not None:
        x = truncate(x, limit)
        spread_len = -(-limit // q)

        def mul(a, b):
            return truncate(kernel.mul(a, b), limit)

        def spread(a):
            return kernel.frob_spread(truncate(a, spread_len))

    if n == 0:
        one = kernel.from_codes((1,))
        return one if limit is None else truncate(one, limit)
    digits = []
    while n:
        n, d = divmod(n, q)
        digits.append(d)
    small = [None, x]
    for _ in range(max(digits) - 1):
        small.append(mul(small[-1], x))
    result = small[digits.pop()]
    for d in reversed(digits):
        result = spread(result)
        if d:
            result = mul(result, small[d])
    return result


class _Planes:
    """What both kernels share: the plane layout, the codec tables and
    the matrices of the products by constants."""

    digit_bits: int

    def __init__(self, spec: FieldSpec, table_offset: int):
        self.spec = spec
        self.p, self.e, self.q = spec.p, spec.e, spec.q
        self._masks = {}  # (r mod m, m) -> the digit mask of keep_residues
        # digit bound of `scale` applied to a normalized value
        self.scale_digit = self.e * (self.p - 1) ** 2
        coords = [spec.coords(c) for c in range(self.q)]
        units = [self.p ** i for i in range(self.e)]  # u_i, the unit of plane i
        # plane products: row slot[i][j] of `red` is u_i u_j in coordinates,
        # read from the field's table, one row per distinct product; a power
        # basis (u_i = xi^i) thus gathers the plane pairs of each degree i + j
        rows = {}
        self.slot = [[rows.setdefault(spec.mul_code(u, v), len(rows)) for v in units]
                     for u in units] if self.e > 1 else []
        self.red = [coords[c] for c in rows]
        # scale_matrix[c][j][i] = coordinate j of c u_i: a product by c adds
        # plane i times it into plane j (at e = 1 the code is the
        # coordinate, and no matrix is needed)
        self.scale_matrix = [[list(row) for row in zip(*(coords[times[u]] for u in units))]
                             for times in spec.mul_table] if self.e > 1 else []
        if self.p > MAX_PACKED_P:  # coordinates do not fit the byte tables
            return
        # per plane: code -> coordinate + table_offset
        self._planes = [bytes(row[j] + table_offset for row in coords) for j in range(self.e)]
        if self.q <= 256:  # bytes.translate needs a full 256-entry table
            self._planes = [t.ljust(256, b"\0") for t in self._planes]
            # plane j's digit d -> d * p^j; the weights of a position sum
            # to its coordinate index sum_j c_j p^j, which is its code
            self._weights = [bytes(d * self.p ** j for d in range(self.p)).ljust(256, b"\0")
                             for j in range(self.e)]

    def _code_planes(self, codes):
        """One bytes object per plane: the table entry of every code."""
        if self.q <= 256:
            src = bytes(codes)
            return [src.translate(t) for t in self._planes]
        return [bytes(map(t.__getitem__, codes)) for t in self._planes]

    def _codes_of_planes(self, planes):
        """Codes from one digit string per plane (digits < p, low first)."""
        if self.q <= 256:
            index = sum(int.from_bytes(d.translate(w), "little")
                        for d, w in zip(planes, self._weights))
            return tuple(index.to_bytes((index.bit_length() + 7) // 8, "little"))
        index = [0] * max(map(len, planes))
        for j, digits in enumerate(planes):
            weight = self.p ** j
            for i, d in enumerate(digits):
                index[i] += d * weight
        while index and not index[-1]:
            index.pop()
        return tuple(index)

    def zero(self):
        return (0,) * self.e

    def keep_residues(self, x, r, m):
        """x with every digit at theta^k, k != r mod m, set to zero; digits
        never carry, so x need not be normalized.  One mask per (r mod m, m)
        is kept, widened as longer values ask for it."""
        if m == 1:
            return x
        r %= m
        bits = max(map(int.bit_length, x))
        mask = self._masks.get((r, m), 0)
        if mask.bit_length() < bits:
            width = self.digit_bits
            mask, span = ((1 << width) - 1) << (r * width), m * width
            while mask.bit_length() < bits:
                mask |= mask << span
                span *= 2
            self._masks[(r, m)] = mask
        return tuple(v & mask for v in x)

    def truncate(self, x, L):
        """x mod theta^L: the low L digits of every plane."""
        mask = (1 << self.digit_bits * L) - 1
        return tuple(v & mask for v in x)

    def shift(self, x, k):
        """Multiply by theta^k."""
        return tuple(v << (self.digit_bits * k) for v in x)


class _BitKernel(_Planes):
    """Characteristic-2 kernel: planes of bitmask integers."""

    digit_bits = 1

    def __init__(self, spec: FieldSpec):
        super().__init__(spec, ord("0"))  # plane tables hold "0"/"1" for int(.., 2)
        # scale_rows[c][j] = bitmask of source planes XORed into plane j
        # when multiplying by the element with code c
        self.scale_rows = [[sum(bit << i for i, bit in enumerate(row)) for row in matrix]
                           for matrix in self.scale_matrix]

    def is_zero(self, x):
        return not any(x)

    def from_codes(self, codes):
        if not codes:
            return self.zero()
        return tuple(int(chars[::-1], 2) for chars in self._code_planes(codes))

    def to_codes(self, x):
        if not any(x):
            return ()
        planes = [bin(v)[:1:-1].encode().translate(_BIN_DIGITS) for v in x]
        if self.e == 1:
            return tuple(planes[0])
        return self._codes_of_planes(planes)

    def add(self, x, y):
        return tuple(a ^ b for a, b in zip(x, y))

    def scale(self, x, code):
        if code == 0:
            return self.zero()
        if code == 1:
            return x
        rows = self.scale_rows[code]
        out = []
        for j in range(self.e):
            acc = 0
            mask = rows[j]
            while mask:
                low = mask & -mask
                acc ^= x[low.bit_length() - 1]
                mask ^= low
            out.append(acc)
        return tuple(out)

    def mul(self, x, y):
        if self.e == 1:
            return (_clmul(x[0], y[0]),)
        partial = [0] * len(self.red)
        for i in range(self.e):
            if not x[i]:
                continue
            slot = self.slot[i]
            for j in range(self.e):
                if y[j]:
                    partial[slot[j]] ^= _clmul(x[i], y[j])
        out = [0] * self.e
        for k, v in enumerate(partial):
            if v:
                coords = self.red[k]
                for j in range(self.e):
                    if coords[j]:
                        out[j] ^= v
        return tuple(out)

    def normalize(self, x):
        return x

    def frob_spread(self, x):
        """x(theta) -> x(theta)^q, i.e. exponent spread by q."""
        gap = "0" * (self.q - 1)
        return tuple(int(gap.join(bin(v)[2:]), 2) for v in x)

    pow = _generic_pow


class _PackedKernel(_Planes):
    """Odd-characteristic kernel for p <= 251: base-2^24 packed coordinate planes."""

    digit_bits = _PACK_BITS

    def __init__(self, spec: FieldSpec):
        super().__init__(spec, 0)
        # worst plane-reduction weight: sum over the plane pairs (i, i') of
        # coordinate j of u_i u_i'
        weight = max(sum(self.red[k][j] for row in self.slot for k in row)
                     for j in range(self.e)) if self.e > 1 else 1
        self.max_mul_len = ((1 << self.digit_bits) - 1) // ((self.p - 1) ** 2 * weight)
        self._piece_bits = self.max_mul_len * self.digit_bits
        if self.p > MAX_PACKED_P:  # residues do not fit the byte tables
            return
        self._reduced = bytes(range(self.p))
        # byte b at position k of a digit (or of a 16-bit lane) -> (b << 8k) mod p
        self._byte_mod = [bytes((b << 8 * k) % self.p for b in range(256)) for k in range(3)]

    def is_zero(self, x):
        """Whether x is zero mod p: a plane whose top digit is not a multiple
        of p is nonzero, and only otherwise is x normalized."""
        bits, p = self.digit_bits, self.p
        if any(v and (v >> (v.bit_length() - 1) // bits * bits) % p for v in x):
            return False
        return not any(self.normalize(x))

    def from_codes(self, codes):
        return tuple(_spread(digits, 3) for digits in
                     ([bytes(codes)] if self.e == 1 else self._code_planes(codes)))

    @staticmethod
    def _split(v):
        """The low bytes of v's 3-byte digits, and the (k, bytes k) positions
        above them that are not all zero."""
        raw = v.to_bytes(-(-v.bit_length() // _PACK_BITS) * 3, "little")
        return raw[::3], [(k, high) for k in (1, 2) if (high := raw[k::3]).strip(b"\0")]

    def _digits(self, low, highs):
        """One byte per digit: the digit mod p, from `_split`'s byte positions."""
        mod, n = self._byte_mod, len(low)
        parts = [low.translate(mod[0])] + [high.translate(mod[k]) for k, high in highs]
        if len(parts) == 1:
            return parts[0]
        if len(parts) * (self.p - 1) < 256:  # the residues add up inside a byte
            total = sum(int.from_bytes(r, "little") for r in parts)
            return total.to_bytes(n, "little").translate(mod[0])
        # 16-bit lanes: each round replaces a lane (lo, hi) by
        # lo mod p + (hi << 8) mod p, which is smaller while hi > 0
        while True:
            lanes = sum(_spread(r, 2) for r in parts).to_bytes(2 * n, "little")
            lo, hi = lanes[::2], lanes[1::2]
            if not hi.strip(b"\0"):
                return lo.translate(mod[0])
            parts = [lo.translate(mod[0]), hi.translate(mod[1])]

    def normalize(self, x):
        out = []
        for v in x:
            low, highs = self._split(v)
            # already reduced: high digit bytes zero, low bytes below p
            if not highs and not low.translate(None, self._reduced):
                out.append(v)
            else:
                out.append(_spread(self._digits(low, highs), 3))
        return tuple(out)

    def to_codes(self, x):
        planes = [self._digits(*self._split(v)) for v in x]
        if self.e == 1:
            return tuple(planes[0].rstrip(b"\0"))
        return self._codes_of_planes(planes)

    def add(self, x, y):
        return tuple(a + b for a, b in zip(x, y))

    def scale(self, x, code):
        if code == 0:
            return self.zero()
        if self.e == 1:
            return (x[0] * code,)
        # multiply the plane vector by the e x e matrix of `code`
        return tuple(sum(m * v for m, v in zip(row, x)) for row in self.scale_matrix[code])

    def mul(self, x, y):
        """Product of two normalized values, normalized."""
        x_bits, y_bits = max(map(int.bit_length, x)), max(map(int.bit_length, y))
        bits = self._piece_bits
        if min(x_bits, y_bits) > bits:  # the shorter operand in pieces of max_mul_len
            short, long = (x, y) if x_bits <= y_bits else (y, x)
            total, k = self.zero(), 0
            while any(short):
                piece = self.mul(self.truncate(short, self.max_mul_len), long)
                total = self.normalize(self.add(total, self.shift(piece, k)))
                short, k = tuple(v >> bits for v in short), k + self.max_mul_len
            return total
        if self.e == 1:
            return self.normalize((x[0] * y[0],))
        partial = [0] * len(self.red)
        for i in range(self.e):
            if not x[i]:
                continue
            slot = self.slot[i]
            for j in range(self.e):
                if y[j]:
                    partial[slot[j]] += x[i] * y[j]
        out = [0] * self.e
        for k, v in enumerate(partial):
            if v:
                for j, m in enumerate(self.red[k]):
                    if m:
                        out[j] += m * v
        return self.normalize(tuple(out))

    def frob_spread(self, x):
        """x(theta) -> x(theta)^q: digit i moves to digit i*q."""
        return tuple(_spread(self._digits(*self._split(v)), 3 * self.q) for v in x)

    pow = _generic_pow


class _WideKernel(_PackedKernel):
    """The packed kernel for 251 < p <= 1021, where q <= 1024 forces e = 1:
    32-bit digits, read, reduced and packed one at a time."""

    digit_bits = 32

    def _reduced_digits(self, v):
        raw = v.to_bytes(-(-v.bit_length() // 32) * 4, "little")
        return [d % self.p for (d,) in struct.iter_unpack("<I", raw)]

    def from_codes(self, codes):
        return (_spread32(codes),)

    def to_codes(self, x):
        return tuple(poly_trim(self._reduced_digits(x[0])))

    def normalize(self, x):
        return (_spread32(self._reduced_digits(x[0])),)

    def frob_spread(self, x):
        """x(theta) -> x(theta)^q: digit i moves to digit i*q."""
        return (_spread32(self._reduced_digits(x[0]), self.q),)


class QuotientKernel:
    """Arithmetic in F_q[theta]/(m), m monic of degree D, on raw values.

    Values are normalized raw values of degree < D.  Reduction is
    Barrett's with mu = floor(theta^N / m) precomputed, N = max(2D-2, D).
    For deg a <= N the quotient is exactly
    floor(floor(a / theta^D) * mu / theta^(N-D)): polynomial floor
    division is linear and the dropped terms have negative degree, so no
    correction step is needed.  The remainder a - quotient*m is formed on
    the low D digits only.  Every step is a shift, mask, kernel product
    or normalize; nothing converts to codes.  Products of reduced values
    have degree <= 2D-2 <= N; an operand above degree N raises ValueError.
    """

    def __init__(self, kernel, modulus_codes):
        self.k = kernel
        self.D = len(modulus_codes) - 1
        self.N = max(2 * self.D - 2, self.D)
        self.mod_raw = kernel.from_codes(modulus_codes)
        self._neg_one = kernel.spec.neg_code(1)
        self._low_mask = (1 << (kernel.digit_bits * self.D)) - 1
        self.mu = self._floor_reciprocal()

    def _shift_down(self, x, n):
        """floor(x / theta^n)."""
        return tuple(v >> (self.k.digit_bits * n) for v in x)

    def _floor_reciprocal(self):
        """floor(theta^N / m) by Newton iteration on raw values.

        mu_t = floor(theta^(D+t) / m) starts at mu_0 = 1 (m is monic); the
        step s -> s(2 - m s) towards 1/m gives
        mu_(2t+1) = 2 mu_t theta^(t+1) - floor(m mu_t^2 / theta^(D-1)).
        """
        k, D = self.k, self.D
        two = k.spec.add_code(1, 1)
        mu, t = k.from_codes((1,)), 0
        while t < self.N - D:
            tail = self._shift_down(k.mul(self.mod_raw, k.mul(mu, mu)), D - 1)
            mu = k.normalize(k.add(k.scale(k.shift(mu, t + 1), two),
                                   k.scale(tail, self._neg_one)))
            t = 2 * t + 1
        return self._shift_down(mu, t - (self.N - D))

    def reduce(self, raw):
        """raw mod m, for deg(raw) <= N = max(2D - 2, D)."""
        k = self.k
        a = k.normalize(raw)
        high = self._shift_down(a, self.D)
        if not any(high):
            return a
        if any(self._shift_down(high, self.N - self.D + 1)):
            raise ValueError(f"operand degree exceeds {self.N}, the Barrett range "
                             f"of a degree-{self.D} modulus")
        quot = self._shift_down(k.mul(high, self.mu), self.N - self.D)
        low = self._low_mask
        prod = k.mul(quot, self.mod_raw)
        return k.normalize(k.add(tuple(v & low for v in a),
                                 k.scale(tuple(v & low for v in prod), self._neg_one)))

    def mul(self, x, y):
        return self.reduce(self.k.mul(x, y))

    def pow(self, x, n: int):
        return binary_power(self.reduce(x), n, self.mul) if n else self.k.from_codes((1,))

    def inverse(self, x, unit_inverse_mod_prime, digits: int | None = None):
        """Invert a unit given its inverse modulo the prime divisor of m.

        Newton lifting x -> x(2 - a x) doubles the number of correct
        prime-power digits per step; `digits` is how many are needed
        (defaults to the full modulus degree).
        """
        g = unit_inverse_mod_prime
        two = self.k.from_codes((self.k.spec.add_code(1, 1),))
        steps = max((digits if digits is not None else self.D) - 1, 1).bit_length()
        for _ in range(steps):
            ag = self.mul(x, g)
            corr = self.k.add(two, self.k.scale(ag, self._neg_one))
            g = self.mul(g, self.reduce(corr))
        return g


class RawSum:
    """A running sum of raw values, for loops that `add` many terms.

    Every term has digits at most `term_digit`.  The running digit bound
    grows by that much per term, and the total is normalized (digits
    < p) before one more term could lift a digit to 2^24, so a sum of
    any length stays exact.  A sum that never nears the bound is never
    normalized here.
    """

    __slots__ = ("kernel", "value", "term_digit", "bound")
    digit_limit = _DIGIT_LIMIT

    def __init__(self, kernel, term_digit: int):
        self.kernel = kernel
        self.value = kernel.zero()
        self.term_digit = term_digit
        self.bound = 0

    def add(self, raw):
        if self.bound + self.term_digit >= self.digit_limit:
            self.value = self.kernel.normalize(self.value)
            self.bound = self.kernel.p - 1
        self.value = self.kernel.add(self.value, raw)
        self.bound += self.term_digit


_KERNELS: dict = {}


def get_kernel(spec: FieldSpec):
    key = spec._key()
    if key not in _KERNELS:
        _KERNELS[key] = (_BitKernel if spec.p == 2 else _PackedKernel if spec.p <= MAX_PACKED_P
                         else _WideKernel)(spec)
    return _KERNELS[key]


def raw_to_apoly(kernel, raw):
    from .polyring import APoly
    return APoly(kernel.spec, kernel.to_codes(raw))
