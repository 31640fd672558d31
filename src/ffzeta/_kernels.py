"""Fast internal representations for polynomials in theta over F_q.

The public ring type is APoly; these kernels back the hot loops
(power-sum shells, Pellarin coefficients, scan oracles, the quotient
rings A/(m)).  A raw value is a tuple of e ints, one per F_p-coordinate
plane, with the coefficient of theta^i at digit i:

* p = 2: one bit per digit; addition is XOR, multiplication carry-less.
* p odd: 24-bit digits, so addition and convolution ride on Python's
  big-int arithmetic; `normalize` reduces every digit mod p with byte
  tables: byte k of a digit becomes (b << 8k) mod p by one
  `bytes.translate` per byte position that is not all zero, the residue
  strings are added as big ints (in 16-bit lanes when they could pass
  255) and one more translate finishes the reduction.

Packed digits never carry into their neighbours, so a digit must stay
below 2^24.  `from_codes`, `mul`, `pow`, `normalize`, `frob_spread` and
QuotientKernel return normalized values (digits < p); `add` and `scale`
do not, and a sum must be normalized before it reaches `mul`.  Loops
that add many terms accumulate through RawSum, which normalizes before
a digit of the running sum could reach 2^24.  A product digit of
normalized operands is at most (p-1)^2 * w * L, with L the shorter
operand's length and w the field's plane-reduction weight (w = 1 for
e = 1).  `mul` keeps that bound under 2^24 by cutting a shorter operand
of more than `max_mul_len` coefficients (p = 251, e = 1: 268) into
pieces that long, so every product is exact.  Normalized digits are
single bytes, so p <= 251.  Codes convert through per-field tables, and
`scale` reads the matrix of each constant's product, built once from
the field's tables.  Like the rest of the library, the kernels use the
standard library alone.

`pow` is Horner's rule on the base-q digits of n.  Frobenius fixes F_q,
so x^(q m + d) = frob_spread(x^m) * x^d: the small powers x^d, d < q,
come first, then each digit below the top costs one spread and, when
nonzero, one product with a small power.  Every product thus has an
operand of at most (q - 1) deg x + 1 coefficients.  A negative n
raises ValueError.
"""

from __future__ import annotations

from .fields import FieldError, FieldSpec, binary_power

_PACK_BITS = 24
_DIGIT_LIMIT = 1 << _PACK_BITS
MAX_PACKED_P = 251
_BIN_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def _spread(digits: bytes, stride: int) -> int:
    """The int whose byte i * stride is digits[i] and whose other bytes are 0."""
    buf = bytearray(max(stride * (len(digits) - 1) + 1, 0))
    buf[::stride] = digits
    return int.from_bytes(buf, "little")


def _clmul(a: int, b: int) -> int:
    r = 0
    while b:
        low = b & -b
        r ^= a << (low.bit_length() - 1)
        b ^= low
    return r


def _generic_pow(kernel, x, n: int):
    """x^n by Horner's rule on the base-q digits of n.

    Frobenius fixes F_q, so x^(q m + d) = frob_spread(x^m) * x^d: the
    small powers x^d, d < q, that the digits need come first, one
    product by x each; then, from the top digit down, the running
    power is spread and multiplied by the small power of the next
    nonzero digit.  Every product has an operand of at most
    (q - 1) deg x + 1 coefficients.
    """
    if n < 0:
        raise ValueError(f"kernel powers need n >= 0, got {n}")
    if n == 0:
        return kernel.from_codes((1,))
    q = kernel.q
    digits = []
    while n:
        n, d = divmod(n, q)
        digits.append(d)
    small = [None, x]
    for _ in range(max(digits) - 1):
        small.append(kernel.mul(small[-1], x))
    result = small[digits.pop()]
    for d in reversed(digits):
        result = kernel.frob_spread(result)
        if d:
            result = kernel.mul(result, small[d])
    return result


class _Planes:
    """What both kernels share: the plane layout, the codec tables and
    the matrices of the products by constants."""

    digit_bits: int

    def __init__(self, spec: FieldSpec, table_offset: int):
        self.spec = spec
        self.p, self.e, self.q = spec.p, spec.e, spec.q
        # digit bound of `scale` applied to a normalized value
        self.scale_digit = self.e * (self.p - 1) ** 2
        # plane-product reduction: xi^k in coordinates, k <= 2e - 2
        self.red = [spec.coords(spec.pow_code(spec.p, k))
                    for k in range(2 * self.e - 1)] if self.e > 1 else []
        coords = [spec.coords(c) for c in range(self.q)]
        # scale_matrix[c][j][i] = coordinate j of c u_i, u_i the unit of
        # plane i: a product by c adds plane i times it into plane j (at
        # e = 1 the code is the coordinate, and no matrix is needed)
        units = [spec.from_coords([int(t == i) for t in range(self.e)]) for i in range(self.e)]
        self.scale_matrix = [[list(row) for row in zip(*(coords[times[u]] for u in units))]
                             for times in spec.mul_table] if self.e > 1 else []
        if self.p > MAX_PACKED_P:  # coordinates do not fit the byte tables
            return
        # per plane: code -> coordinate + table_offset; and the code of
        # each coordinate index sum_j c_j p^j
        self._planes = [bytes(row[j] + table_offset for row in coords) for j in range(self.e)]
        self._code_of = [0] * self.q
        for c, row in enumerate(coords):
            self._code_of[sum(d * self.p ** j for j, d in enumerate(row))] = c
        if self.q <= 256:  # bytes.translate needs a full 256-entry table
            self._planes = [t.ljust(256, b"\0") for t in self._planes]
            # plane j's digit d -> d * p^j; the weights of a position sum
            # to its coordinate index, which the code table maps to a code
            self._weights = [bytes(d * self.p ** j for d in range(self.p)).ljust(256, b"\0")
                             for j in range(self.e)]
            self._code_table = bytes(self._code_of).ljust(256, b"\0")

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
            return tuple(index.to_bytes((index.bit_length() + 7) // 8, "little")
                         .translate(self._code_table))
        index = [0] * max(map(len, planes))
        for j, digits in enumerate(planes):
            weight = self.p ** j
            for i, d in enumerate(digits):
                index[i] += d * weight
        while index and not index[-1]:
            index.pop()
        return tuple(self._code_of[i] for i in index)

    def zero(self):
        return (0,) * self.e

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
        partial = [0] * (2 * self.e - 1)
        for i in range(self.e):
            if not x[i]:
                continue
            for j in range(self.e):
                if y[j]:
                    partial[i + j] ^= _clmul(x[i], y[j])
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
    """Odd-characteristic kernel: base-2^24 packed coordinate planes."""

    digit_bits = _PACK_BITS

    def __init__(self, spec: FieldSpec):
        super().__init__(spec, 0)
        # worst plane-reduction weight: sum over k of red[k][j] times the
        # number of plane pairs (i, i') with i + i' = k
        weight = max(sum(row[j] * min(k + 1, 2 * self.e - 1 - k)
                         for k, row in enumerate(self.red)) for j in range(self.e)) or 1
        self.max_mul_len = (_DIGIT_LIMIT - 1) // ((self.p - 1) ** 2 * weight)
        self._piece_bits = self.max_mul_len * _PACK_BITS
        if self.p > MAX_PACKED_P:  # residues do not fit the byte tables
            self.from_codes = self.to_codes = self.normalize = self.frob_spread = self._no_bytes
            return
        self._reduced = bytes(range(self.p))
        # byte b at position k of a digit (or of a 16-bit lane) -> (b << 8k) mod p
        self._byte_mod = [bytes((b << 8 * k) % self.p for b in range(256)) for k in range(3)]

    def _no_bytes(self, *args):
        """Stands in for every digit-reading method when p > 251."""
        raise FieldError(f"packed kernel digits are bytes: needs p <= {MAX_PACKED_P}, "
                         f"got p = {self.p}")

    def is_zero(self, x):
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
                piece = self.mul(tuple(v & ((1 << bits) - 1) for v in short), long)
                total = self.normalize(self.add(total, self.shift(piece, k)))
                short, k = tuple(v >> bits for v in short), k + self.max_mul_len
            return total
        if self.e == 1:
            return self.normalize((x[0] * y[0],))
        partial = [0] * (2 * self.e - 1)
        for i in range(self.e):
            if not x[i]:
                continue
            for j in range(self.e):
                if y[j]:
                    partial[i + j] += x[i] * y[j]
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
        _KERNELS[key] = _BitKernel(spec) if spec.p == 2 else _PackedKernel(spec)
    return _KERNELS[key]


def raw_to_apoly(kernel, raw):
    from .polyring import APoly
    return APoly(kernel.spec, kernel.to_codes(raw))
