"""Arithmetic for finite-field towers and dense univariate polynomials.

A FieldContext is either a prime field GF(p) or, above it, the quotient
lower[X]/(modulus) of a lower context by a monic modulus, at any depth:
GF(p) -> GF(p^e) -> GF((p^e)^m) -> ... .  Extending any context, however
deep, builds the next level on top of it (FieldContext.extension), so the
result's lower context is always the field that was extended.

Raw value representation (internal):

  * prime level: int in [0, p)
  * every extension, at any depth: one non-negative int of w-bit slots,
    each holding a GF(p) value.  At depth 1, GF(p^k) = GF(p)[X]/(f),
    slot i is the coefficient of X^i; above, coordinate i is the lower raw
    at bits [S*i, S*(i+1)), S = _stride the width of a lower raw.  Read in
    slot order, the slots are the base-p digits of the canonical index
    (_to_int), and zero and one are the ints 0 and 1 in every context.  The
    depth-1 level fixes w for its whole tower so that no value formed
    before a reduction, at most a product column k(p-1)^2 plus a small
    term, carries into the next slot.  Addition, subtraction and negation
    are one integer operation and a slot-wise reduction mod p in a constant
    number of big-int operations, at every depth (_red).  When p = 2,
    _ones holds a 1 in every slot: a slot reduces with one AND, addition
    and subtraction are one XOR and negation changes nothing.
  * depth 1 multiplies by one big-int product (Kronecker substitution;
    Harvey, J. Symb. Comput. 44, 2009), reduced slot-wise and then mod f by
    Barrett, and inverts by extended Euclid on packed polynomials.  The
    product's three slot-wise reductions are inlined: _red's multiply-shift
    for odd p, an AND with _ones for p = 2.  For p = 2 every leading
    coefficient in Euclid is 1, so a step is a shifted XOR.  Above depth 1,
    products, inverses and Frobenius unpack their operands into lower raws
    and run the raw polynomial helpers over the lower context (_pmul,
    _pmod, _pinvmod).

The raw polynomial helpers run one loop per algorithm at every level:
division and Berlekamp-Massey step through rows with FieldContext._submul
(x -= c y, in place at an offset of the row) and _dot, plain integer
arithmetic mod p over GF(p) and _sub / _mul above it; a GF(p) product is
one big-int product of operands packed in byte slots (Kronecker
substitution), each slot mod p.

FieldContext._pack and _unpack convert between a raw value and its list of
coordinates (text formats, coords(), the canonical index of _nth / _to_int
and embeddings go through them); linear algebra (linalg.py) takes raws as
packed vectors.  Coordinate 0 is the low bits, so the raw of a lower level
is also the raw of the same element in every extension above it, and
embedding a base value, or an int, changes nothing.  Since a raw int of an
extension is not the integer it looks like, internal code builds elements
and polynomials from raw values with FieldElement._wrap /
Polynomial._from_raw, never through the coercing constructors.

Arithmetic in a quotient ring K[X]/(h) is always done in the context
FieldContext(p, lower=K, modulus=h) on raw values as above, whether h is
irreducible or not.  The ring that the Rabin test of an irreducible f
builds is kept on f as the field K[X]/(f): extension(f) returns it and its
modulus_poly() carries it, so no modulus is built or tested twice.

Public code works with the FieldElement and Polynomial wrappers; the raw
layer keeps the inner loops allocation-light.  A wrapper keeps what depends
on it alone once it has been computed: a polynomial its Rabin test's field
(Polynomial._field), an element its minimal polynomial and the length and
rank of its orbit (FieldElement._minpoly, _normality), so a value that is
queried again, such as a fixed normal pair across many phi, is never
re-derived.  Polynomial coefficients are stored ascending with trailing
zeros stripped.  The zero polynomial has degree None, never -1.

Elements never coerce across contexts silently.  Moving a value between a
field and one of its extensions goes through FieldContext.from_base /
to_base, and between two extensions of the same base through Embedding.

Text formats (also used by the CLI):

  * polynomial: comma-separated coordinates ascending, "2,1,0,1" is
    2 + X + X^3 over GF(3)
  * extension coordinates inside a coefficient: '/'-separated, with ':'
    one level further down ("1/0/2/0", "1:0/0:2"); these two separators
    cover towers of depth <= 2.  Deeper values have no text format; their
    str() and repr() list the coordinates over the next-lower level in
    brackets, "[1:0/0:1, 0:1/1:1]".
  * field spec: "p" or "p^e:modulus", e.g. "2^2:1,1,1" for GF(4)
"""

from __future__ import annotations

import random
from functools import lru_cache
from math import isqrt
from operator import mul as _mul_op

from .linalg import _reduce, combine, echelon

DEFAULT_SEED = 0

_COORD_SEPS = ("/", ":")


class ContextMismatchError(ValueError):
    """Mixing elements or polynomials that belong to different contexts."""


def _is_prime(n):
    """Baillie-PSW: Miller-Rabin on the prime bases up to 41, which alone is
    exact below psi_13 = 3317044064679887385961981 (Sorenson and Webster,
    Math. Comp. 86, 2017), and from psi_13 on also a strong Lucas test."""
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for s in small:
        if n % s == 0:
            return n == s
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < 3317044064679887385961981 or _is_strong_lucas_prp(n)


def _jacobi(a, n):
    """The Jacobi symbol (a / n) for odd n > 0."""
    a, t = a % n, 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                t = -t
        if a % 4 == 3 and n % 4 == 3:
            t = -t
        a, n = n % a, a
    return t if n == 1 else 0


def _is_strong_lucas_prp(n):
    """Strong Lucas probable-prime test of an n with no prime factor up to
    41, as _is_prime passes it, with Selfridge's parameters P = 1,
    Q = (1 - D) / 4, D the first of 5, -7, 9, -11, ... with (D / n) = -1:
    n + 1 = d 2^s, d odd, and U_d = 0 or V_(d 2^r) = 0 for some r < s."""
    if isqrt(n) ** 2 == n:
        return False  # no D has (D / n) = -1
    D = 5
    while (j := _jacobi(D, n)) == 1:
        D = 2 - D if D < 0 else -D - 2
    if j == 0:
        return False
    Q, half = (1 - D) // 4, (n + 1) // 2
    s = ((n + 1) & -(n + 1)).bit_length() - 1
    U, V, Qk = 1, 1, Q % n  # U_k, V_k and Q^k for k = 1, then k -> 2k (+ 1)
    for bit in bin((n + 1) >> s)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = (U + V) * half % n, (D * U + V) * half % n, Qk * Q % n
    if U == 0:
        return True
    for _ in range(s):
        if V == 0:
            return True
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
    return False


def _is_prime_power(n):
    """Whether n = p^e for a prime p and some e >= 1, by exact integer roots."""
    if n < 2:
        return False
    for e in range(1, n.bit_length()):
        # Newton's iteration from above converges to floor(n^(1/e))
        r = 1 << -(-n.bit_length() // e)
        while True:
            s = ((e - 1) * r + n // r ** (e - 1)) // e
            if s >= r:
                break
            r = s
        if r**e == n and _is_prime(r):
            return True
    return False


def distinct_prime_factors(n):
    """Distinct prime divisors of n >= 1, ascending, by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# Raw polynomial helpers.  Coefficients are raw values of a context K, lists
# or tuples in ascending order with no trailing zeros ("stripped").


def _pstrip(K, cs):
    n = len(cs)
    while n and not cs[n - 1]:
        n -= 1
    return tuple(cs[:n])


def _padd(K, a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    add = K._add
    for i, c in enumerate(b):
        out[i] = add(out[i], c)
    return _pstrip(K, out)


def _psub(K, a, b):
    out = list(a)
    out.extend([0] * (len(b) - len(out)))
    sub = K._sub
    for i, c in enumerate(b):
        out[i] = sub(out[i], c)
    return _pstrip(K, out)


def _pscale(K, c, a):
    if not c:
        return ()
    mul = K._mul
    return tuple(mul(c, x) for x in a)


def _pmul(K, a, b):
    if not a or not b:
        return ()
    n = len(a) + len(b) - 1
    if K.lower is None:
        # Kronecker substitution: a column is at most min(len) (p-1)^2, so
        # slots of that many bits, rounded up to bytes, never carry
        p = K.p
        w = ((min(len(a), len(b)) * (p - 1) ** 2).bit_length() + 7) // 8
        if w == 1:  # one byte a slot: the bytes are the coefficients
            x, y = int.from_bytes(bytes(a), "little"), int.from_bytes(bytes(b), "little")
            return tuple([c % p for c in (x * y).to_bytes(n, "little")])
        x, y = (int.from_bytes(b"".join([c.to_bytes(w, "little") for c in v]), "little")
                for v in (a, b))
        t = (x * y).to_bytes(w * n, "little")
        return tuple([int.from_bytes(t[i : i + w], "little") % p for i in range(0, w * n, w)])
    out = [0] * n
    add, mul = K._add, K._mul
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = add(out[i + j], mul(ai, bj))
    return tuple(out)


def _pfromroots(K, raws):
    """prod (X - r) over the raw values r, in order."""
    out = (1,)
    for r in raws:
        out = _pmul(K, out, (K._neg(r), 1))
    return out


def _pdivmod(K, a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    da, db = len(a) - 1, len(b) - 1
    if da < db:
        return (), tuple(a)
    lead, low = b[-1], b[:db]
    inv = None if lead == 1 else K._inv(lead)  # None: b is monic
    r = list(a)
    q = [0] * (da - db + 1)
    submul = K._submul
    for k in range(da - db, -1, -1):
        c = r[k + db] if inv is None else K._mul(r[k + db], inv)
        if c:
            q[k] = c
            submul(r, k, c, low)
    return _pstrip(K, q), _pstrip(K, r[:db])


def _pmod(K, a, b):
    return _pdivmod(K, a, b)[1]


def _pgcd(K, a, b):
    a, b = tuple(a), tuple(b)
    while b:
        a, b = b, _pmod(K, a, b)
    if a and a[-1] != 1:
        a = _pscale(K, K._inv(a[-1]), a)
    return a


def _pinvmod(K, a, mod):
    """Inverse of a modulo mod (mod monic), via extended Euclid."""
    r0, r1 = tuple(mod), _pstrip(K, a)
    s0, s1 = (), (1,)
    while r1:
        q, r = _pdivmod(K, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _psub(K, s0, _pmul(K, q, s1))
    if len(r0) != 1:
        raise ZeroDivisionError("element is not invertible")
    return _pscale(K, K._inv(r0[0]), s0)


def _peval(K, f, x):
    acc = 0
    add, mul = K._add, K._mul
    for c in reversed(f):
        acc = add(mul(acc, x), c)
    return acc


def _powers(K, a, count):
    """[1, a, a^2, ..., a^(count-1)] for a raw value a of K."""
    out = [1]
    for _ in range(1, count):
        out.append(K._mul(out[-1], a))
    return out


# ---------------------------------------------------------------------------


class FieldContext:
    """A prime field GF(p) or an extension of a lower context.

    Instances are immutable and hashable; equality is structural.  Use
    prime_field() and FieldContext.extension() to build them.  A context
    built directly may have a reducible monic modulus: it is then the
    quotient ring lower[X]/(modulus), whose raw arithmetic works except
    that _inv fails on non-units.  Only a ring whose modulus passed the
    Rabin test has _is_field set.
    """

    __slots__ = (
        "p",
        "lower",
        "modulus",
        "degree",
        "order",
        "subfield_order",
        "depth",
        "_hash",
        "_frob_tables",
        # the packed columns (X^j)^Q, j < degree, of the Q-power map, kept
        # by cancellation._frobenius_columns; unset until its first call
        "_frob_cols",
        "_is_field",
        # packed layout of an extension (see the module docstring); the
        # constants from _low on are the depth-1 product kernel's
        "_stride",
        "_w",
        "_red_mul",
        "_red_shift",
        "_red_mask",
        "_p_slots",
        "_low",
        "_hi_shift",
        "_q_shift",
        "_mu",
        "_xk",
        "_packed_mod",
        # a 1 in every slot when p = 2 (2k slots at depth 1, to hold a
        # product), else None: the characteristic-2 paths test it
        "_ones",
    )

    def __init__(self, p, lower=None, modulus=None):
        self.p = p
        self.lower = lower
        self.modulus = modulus
        self._hash = hash((p, modulus, lower))
        self._frob_tables = {}
        self._is_field = lower is None
        if lower is None:
            self.degree = 1
            self.order = p
            self.subfield_order = p
            self.depth = 0
            self._ones = None
            return
        d = len(modulus) - 1
        self.degree = d
        self.order = lower.order ** d
        self.subfield_order = lower.order
        self.depth = lower.depth + 1
        if self.depth == 1:
            self._init_kernel()
            return
        # the slots of the level below, laid end to end, with its slot width
        # and reduction constants (a sum or difference stays below 2p)
        w = self._w = lower._w
        self._red_mul, self._red_shift = lower._red_mul, lower._red_shift
        self._stride = lower._stride * lower.degree
        ones = ((1 << (d * self._stride)) - 1) // ((1 << w) - 1)  # 1 per slot
        self._red_mask = ones * ((1 << (w - self._red_shift)) - 1)
        self._p_slots = p * ones
        self._ones = ones if p == 2 else None

    def _init_kernel(self):
        p, k = self.p, self.degree
        # No slot value the kernel forms before reducing exceeds vmax: a
        # product column is at most k(p-1)^2, and the other sums (a reduced
        # term plus a column or a scaled term, a + p - b) stay below
        # k(p-1)^2 + 2p.  With e = (-2^s) mod p, floor(v/p) = (v * m) >> s
        # is exact for all v <= vmax once vmax * e < 2^s (Granlund-
        # Montgomery), and a slot of w bits holds v * m, so reducing every
        # slot mod p takes a constant number of big-int operations.
        vmax = k * (p - 1) ** 2 + 2 * p
        s = 0
        while vmax * (-(1 << s) % p) >= 1 << s:
            s += 1
        m = -(-(1 << s) // p)
        w = (vmax * m).bit_length()
        ones = ((1 << (2 * k * w)) - 1) // ((1 << w) - 1)  # 1 per slot, 2k slots
        self._w = self._stride = w
        self._ones = ones if p == 2 else None
        self._red_mul = m
        self._red_shift = s
        self._red_mask = ones * ((1 << (w - s)) - 1)
        self._low = (1 << (w * k)) - 1
        self._p_slots = p * (ones & self._low)
        self._packed_mod = self._pack(self.modulus)
        self._hi_shift = w * k
        self._q_shift = w * max(k - 2, 0)
        self._xk = self._neg(self._packed_mod & self._low)  # X^k mod the modulus
        # Barrett constant mu = floor(X^(2k-2) / modulus), by long division
        num, mu = 1 << (w * (2 * k - 2)), 0
        for d in range(2 * k - 2, k - 1, -1):
            c = num >> (w * d)
            if c:
                mu |= c << (w * (d - k))
                num = self._red(num + ((p - c) * self._packed_mod << (w * (d - k))))
        self._mu = mu

    # -- identity ----------------------------------------------------------

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, FieldContext):
            return NotImplemented
        return (
            self.p == other.p
            and self.modulus == other.modulus
            and self.lower == other.lower
        )

    def __hash__(self):
        return self._hash

    def describe(self):
        if self.lower is None:
            return f"GF({self.p})"
        return f"GF({self.lower.order}^{self.degree})"

    def __repr__(self):
        return f"<FieldContext {self.describe()}>"

    # -- coordinates ---------------------------------------------------------

    def _pack(self, cs):
        """Raw value with coordinates cs (lower raws, ascending; missing ones 0)."""
        if self.lower is None:
            raise ValueError("prime contexts have no coordinate vectors")
        stride, v = self._stride, 0
        for c in reversed(cs):
            v = v << stride | c
        return v

    def _unpack(self, a):
        """The degree coordinates of a raw value, as lower raws, ascending."""
        if self.lower is None:
            raise ValueError("prime contexts have no coordinate vectors")
        stride = self._stride
        mask = (1 << stride) - 1
        return tuple([a >> s & mask for s in range(0, stride * self.degree, stride)])

    # -- raw arithmetic ------------------------------------------------------

    def _coerce(self, v):
        if isinstance(v, FieldElement):
            if v.ctx is self or v.ctx == self:
                return v.raw
            raise ContextMismatchError(
                f"element of {v.ctx.describe()} used in {self.describe()}"
            )
        if isinstance(v, int):
            return v % self.p
        if self.lower is not None and isinstance(v, (tuple, list)):
            if len(v) != self.degree:
                raise ValueError(
                    f"expected {self.degree} coordinates, got {len(v)}"
                )
            return self._pack([self.lower._coerce(c) for c in v])
        raise TypeError(f"cannot interpret {v!r} as an element of {self.describe()}")

    def _red(self, v):
        """Reduce every slot of a packed value mod p.  The characteristic-2
        arithmetic never calls it: there a slot reduces with an AND with
        _ones, and a sum of reduced values is a XOR."""
        return v - self.p * ((v * self._red_mul >> self._red_shift) & self._red_mask)

    def _add(self, a, b):
        if self.lower is None:
            return (a + b) % self.p
        if self._ones is not None:
            return a ^ b
        return self._red(a + b)

    def _neg(self, a):
        if self.lower is None:
            return -a % self.p
        if self._ones is not None:
            return a
        return self._red(self._p_slots - a)

    def _sub(self, a, b):
        if self.lower is None:
            return (a - b) % self.p
        if self._ones is not None:
            return a ^ b
        return self._red(a + self._p_slots - b)

    def _mul(self, a, b):
        lo = self.lower
        if lo is None:
            return a * b % self.p
        if self.depth == 1:
            # Barrett: the quotient of t by the modulus is the top half of
            # (t >> X^k) * mu, exact for polynomials of degree <= 2k - 2;
            # each slot-wise reduction is inlined: an AND with _ones when
            # p = 2, else _red's multiply-shift
            ones = self._ones
            if ones is not None:
                t = a * b & ones
                q = ((t >> self._hi_shift) * self._mu & ones) >> self._q_shift
                return (t + q * self._xk) & self._low & ones
            p, m, s, mask = self.p, self._red_mul, self._red_shift, self._red_mask
            t = a * b
            t -= p * ((t * m >> s) & mask)
            q = (t >> self._hi_shift) * self._mu
            q = (q - p * ((q * m >> s) & mask)) >> self._q_shift
            t = (t + q * self._xk) & self._low
            return t - p * ((t * m >> s) & mask)
        product = _pmul(lo, self._unpack(a), self._unpack(b))
        return self._pack(_pmod(lo, product, self.modulus))

    def _submul(self, xs, at, c, ys):
        """xs[at + i] -= c ys[i] for every i, in place: the row step of
        division and Berlekamp-Massey, with no copy of the row."""
        if self.lower is None:
            p = self.p
            for i, y in enumerate(ys, at):
                xs[i] = (xs[i] - c * y) % p
            return
        sub, mul = self._sub, self._mul
        for i, y in enumerate(ys, at):
            if y:
                xs[i] = sub(xs[i], mul(c, y))

    def _dot(self, xs, ys):
        """sum x y over zip(xs, ys)."""
        if self.lower is None:
            return sum(map(_mul_op, xs, ys)) % self.p
        add, mul, acc = self._add, self._mul, 0
        for x, y in zip(xs, ys):
            if x and y:
                acc = add(acc, mul(x, y))
        return acc

    def _scalar_mul(self, c, a):
        """Multiply by a scalar from the next-lower level."""
        lo = self.lower
        if lo is None:
            return a * c % self.p
        if self.depth == 1:
            if self._ones is not None:
                return a if c else 0
            return self._red(c * a)
        return self._pack([lo._mul(c, x) for x in self._unpack(a)])

    def _inv(self, a):
        if not a:
            raise ZeroDivisionError("division by zero")
        p, lo = self.p, self.lower
        if lo is None:
            return pow(a, p - 2, p)
        if self.depth > 1:
            return self._pack(_pinvmod(lo, _pstrip(lo, self._unpack(a)), self.modulus))
        # extended Euclid on packed polynomials: r0 = s0 * a mod the modulus
        red, w = self._red, self._w
        r0, r1, s0, s1 = self._packed_mod, a, 0, 1
        d0, d1 = self.degree, (a.bit_length() - 1) // w
        if self._ones is not None:
            # characteristic 2: every leading coefficient is 1, so a step
            # is a shifted XOR and the last remainder, if a unit, is 1
            while r1:
                while d0 >= d1:
                    shift = w * (d0 - d1)
                    r0 ^= r1 << shift
                    s0 ^= s1 << shift
                    d0 = (r0.bit_length() - 1) // w
                r0, r1, s0, s1, d0, d1 = r1, r0, s1, s0, d1, d0
            if d0:
                raise ZeroDivisionError("element is not invertible")
            return s0
        while r1:
            lead_inv = pow(r1 >> (w * d1), -1, p)
            while d0 >= d1:
                c = p - (r0 >> (w * d0)) * lead_inv % p
                shift = w * (d0 - d1)
                r0 = red(r0 + (c * r1 << shift))
                s0 = red(s0 + (c * s1 << shift))
                d0 = (r0.bit_length() - 1) // w
            r0, r1, s0, s1, d0, d1 = r1, r0, s1, s0, d1, d0
        if d0:
            raise ZeroDivisionError("element is not invertible")
        return red(s0 * pow(r0, -1, p))

    def _pow(self, a, e):
        if e < 0:
            a = self._inv(a)
            e = -e
        if self.lower is None:
            return pow(a, e, self.p)
        if not e:
            return 1
        result = a  # square and multiply from the top bit down
        for bit in bin(e)[3:]:
            result = self._mul(result, result)
            if bit == "1":
                result = self._mul(result, a)
        return result

    def _frob(self, a, k=1):
        if self.lower is None:
            return a
        k %= self.degree
        if k == 0:
            return a
        if self.depth == 1:
            return self._pow(a, self.subfield_order**k)
        # x -> x^(Q^k) fixes the coordinates, which lie in the lower field,
        # so it maps a to sum a_i (X^i)^(Q^k); one table per k, unpacked
        tbl = self._frob_tables.get(k)
        if tbl is None:
            xq = self._pow(self._gen_raw(), self.subfield_order**k)
            tbl = [self._unpack(t) for t in _powers(self, xq, self.degree)]
            self._frob_tables[k] = tbl
        mul, acc = self.lower._mul, 0
        for c, t in zip(self._unpack(a), tbl):
            if c:
                acc = self._add(acc, self._pack([mul(c, x) for x in t]))
        return acc

    def _gen_raw(self):
        if self.lower is None:
            raise ValueError("prime contexts have no generator")
        if self.degree == 1:
            return self.lower._neg(self.modulus[0])
        return self._pack((0, 1))

    def _nth(self, i):
        if self.lower is None:
            return i % self.p
        q = self.lower.order
        coords = []
        for _ in range(self.degree):
            coords.append(self.lower._nth(i % q))
            i //= q
        return self._pack(coords)

    def _to_int(self, a):
        if self.lower is None:
            return a
        q = self.lower.order
        v = 0
        for c in reversed(self._unpack(a)):
            v = v * q + self.lower._to_int(c)
        return v

    def _random_raw(self, rng):
        return self._nth(rng.randrange(self.order))

    # -- public surface ------------------------------------------------------

    @property
    def zero(self):
        return FieldElement._wrap(self, 0)

    @property
    def one(self):
        return FieldElement._wrap(self, 1)

    def element(self, v):
        return FieldElement(self, v)

    def nth_element(self, i):
        if not 0 <= i < self.order:
            raise ValueError("element index out of range")
        return FieldElement._wrap(self, self._nth(i))

    def all_elements(self):
        """All field elements in the canonical coordinate-counting order."""
        for i in range(self.order):
            yield FieldElement._wrap(self, self._nth(i))

    def random_element(self, rng):
        return FieldElement._wrap(self, self._random_raw(rng))

    def generator(self):
        """The residue of X in GF(q)[X]/(modulus); a root of the modulus."""
        return FieldElement._wrap(self, self._gen_raw())

    def modulus_poly(self):
        """The modulus over lower; a field's carries the field (see _rabin)."""
        if self.lower is None:
            return None
        f = Polynomial._wrap(self.lower, self.modulus)
        if self._is_field:
            f._field = self
        return f

    def from_base(self, a):
        if self.lower is None:
            raise ValueError("prime contexts have no base field")
        if not isinstance(a, FieldElement):
            return FieldElement._wrap(self, self._coerce(a))
        if a.ctx != self.lower:
            raise ContextMismatchError("element is not in the base field")
        return FieldElement._wrap(self, a.raw)

    def to_base(self, a):
        if not isinstance(a, FieldElement) or a.ctx != self:
            raise ContextMismatchError("element does not belong to this context")
        if a.raw >> self._stride:  # a coordinate above coordinate 0
            raise ValueError("element does not lie in the base field")
        return FieldElement._wrap(self.lower, a.raw)

    def extension(self, modulus):
        """Extend by a monic irreducible modulus over this field.

        The result is the ring FieldContext(p, lower=self, modulus) that the
        modulus' Rabin test built and kept on it, so its Frobenius fixes this
        field and a tested modulus returns the same object on every call.
        """
        f = modulus if isinstance(modulus, Polynomial) else Polynomial(self, modulus)
        if f.ctx != self:
            raise ContextMismatchError("modulus is not over this field")
        d = f.degree
        if d is None or d < 1:
            raise ValueError("modulus must have degree >= 1")
        if not f.is_monic:
            raise ValueError("modulus must be monic")
        if not is_irreducible(f):
            raise ValueError("modulus is reducible")
        return f._field


class FieldElement:
    """A value in a FieldContext.  Immutable and hashable.

    Facts about the element alone are kept on it once computed, the way
    Polynomial._field keeps a polynomial's field; both slots stay unset
    (read with getattr(..., None)) until then, so arithmetic never fills
    them.  _minpoly is the minimal polynomial over the next-lower field,
    stored only after its certificate passed; _normality is the pair
    (orbit length, rank of the conjugates) that is_normal computed.
    """

    __slots__ = ("ctx", "raw", "_minpoly", "_normality")

    def __init__(self, ctx, value):
        self.ctx = ctx
        self.raw = ctx._coerce(value)

    @classmethod
    def _wrap(cls, ctx, raw):
        obj = object.__new__(cls)
        obj.ctx = ctx
        obj.raw = raw
        return obj

    def _operand(self, other):
        """The raw value of other in this context, or None if it is neither
        an element nor an int."""
        if isinstance(other, FieldElement):
            if other.ctx is not self.ctx and other.ctx != self.ctx:
                raise ContextMismatchError(
                    f"cannot combine {self.ctx.describe()} with {other.ctx.describe()}"
                )
            return other.raw
        if isinstance(other, int):
            return self.ctx._coerce(other)
        return None

    def __add__(self, other):
        b = self._operand(other)
        return NotImplemented if b is None else self._wrap(self.ctx, self.ctx._add(self.raw, b))

    __radd__ = __add__

    def __sub__(self, other):
        b = self._operand(other)
        return NotImplemented if b is None else self._wrap(self.ctx, self.ctx._sub(self.raw, b))

    def __rsub__(self, other):
        b = self._operand(other)
        return NotImplemented if b is None else self._wrap(self.ctx, self.ctx._sub(b, self.raw))

    def __mul__(self, other):
        b = self._operand(other)
        return NotImplemented if b is None else self._wrap(self.ctx, self.ctx._mul(self.raw, b))

    __rmul__ = __mul__

    def __truediv__(self, other):
        b = self._operand(other)
        if b is None:
            return NotImplemented
        return FieldElement._wrap(self.ctx, self.ctx._mul(self.raw, self.ctx._inv(b)))

    def __rtruediv__(self, other):
        b = self._operand(other)
        if b is None:
            return NotImplemented
        return FieldElement._wrap(self.ctx, self.ctx._mul(b, self.ctx._inv(self.raw)))

    def __neg__(self):
        return FieldElement._wrap(self.ctx, self.ctx._neg(self.raw))

    def __pow__(self, e):
        if not isinstance(e, int):
            return NotImplemented
        return FieldElement._wrap(self.ctx, self.ctx._pow(self.raw, e))

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.ctx == other.ctx and self.raw == other.raw
        if isinstance(other, int):
            return self.raw == self.ctx._coerce(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.ctx, self.raw))

    def __bool__(self):
        return self.raw != 0

    @property
    def is_zero(self):
        return self.raw == 0

    def frobenius(self, k=1):
        """a^(q^k) where q is the order of the next-lower level."""
        return FieldElement._wrap(self.ctx, self.ctx._frob(self.raw, k))

    def to_int(self):
        """Canonical integer index of this element (coordinate counting)."""
        return self.ctx._to_int(self.raw)

    def coords(self):
        if self.ctx.lower is None:
            raise ValueError("prime-field elements have no coordinate vector")
        return tuple(FieldElement._wrap(self.ctx.lower, c) for c in self.ctx._unpack(self.raw))

    def __str__(self):
        return _raw_to_display(self.ctx, self.raw)

    def __repr__(self):
        return f"FieldElement({self.ctx.describe()}, '{self}')"


class Polynomial:
    """Dense univariate polynomial over a FieldContext.

    _field, unset until the polynomial's Rabin test runs, holds the field
    ctx[X]/(self) that the test built, or False.
    """

    __slots__ = ("ctx", "coeffs", "_field")

    def __init__(self, ctx, coeffs=()):
        self.ctx = ctx
        self.coeffs = _pstrip(ctx, [ctx._coerce(c) for c in coeffs])

    @classmethod
    def _wrap(cls, ctx, coeffs):
        obj = object.__new__(cls)
        obj.ctx = ctx
        obj.coeffs = coeffs
        return obj

    @classmethod
    def _from_raw(cls, ctx, coeffs):
        """Polynomial with raw coefficients, ascending; trailing zeros allowed."""
        return cls._wrap(ctx, _pstrip(ctx, coeffs))

    @classmethod
    def one(cls, ctx):
        return cls._wrap(ctx, (1,))

    @classmethod
    def constant(cls, ctx, c):
        return cls._wrap(ctx, _pstrip(ctx, [ctx._coerce(c)]))

    @classmethod
    def from_roots(cls, ctx, roots):
        return cls._wrap(ctx, _pfromroots(ctx, [ctx._coerce(r) for r in roots]))

    @property
    def degree(self):
        """Degree as an int, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def coefficient(self, i):
        if 0 <= i < len(self.coeffs):
            return FieldElement._wrap(self.ctx, self.coeffs[i])
        return FieldElement._wrap(self.ctx, 0)

    def coefficients(self):
        return tuple(FieldElement._wrap(self.ctx, c) for c in self.coeffs)

    def _same(self, other):
        if other.ctx is not self.ctx and other.ctx != self.ctx:
            raise ContextMismatchError("polynomials from different contexts")

    def _lift(self, other):
        if isinstance(other, Polynomial):
            self._same(other)
            return other
        if isinstance(other, (FieldElement, int)):
            return Polynomial.constant(self.ctx, other)
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return Polynomial._wrap(self.ctx, _padd(self.ctx, self.coeffs, o.coeffs))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return Polynomial._wrap(self.ctx, _psub(self.ctx, self.coeffs, o.coeffs))

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return Polynomial._wrap(self.ctx, _psub(self.ctx, o.coeffs, self.coeffs))

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return Polynomial._wrap(self.ctx, _pmul(self.ctx, self.coeffs, o.coeffs))

    __rmul__ = __mul__

    def __neg__(self):
        ctx = self.ctx
        return Polynomial._wrap(ctx, tuple(ctx._neg(c) for c in self.coeffs))

    def __pow__(self, e):
        if not isinstance(e, int) or e < 0:
            return NotImplemented
        if not e:
            return Polynomial.one(self.ctx)
        result = self  # square and multiply from the top bit down
        for bit in bin(e)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def __divmod__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        q, r = _pdivmod(self.ctx, self.coeffs, o.coeffs)
        return Polynomial._wrap(self.ctx, q), Polynomial._wrap(self.ctx, r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ctx == other.ctx and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.ctx, self.coeffs))

    def monic(self):
        if not self.coeffs:
            return self
        if self.is_monic:
            return self
        inv = self.ctx._inv(self.coeffs[-1])
        return Polynomial._wrap(self.ctx, _pscale(self.ctx, inv, self.coeffs))

    def gcd(self, other):
        self._same(other)
        return Polynomial._wrap(self.ctx, _pgcd(self.ctx, self.coeffs, other.coeffs))

    def pow_mod(self, e, modulus):
        """self^e mod modulus, a power in the quotient ring K[X]/(monic modulus)."""
        self._same(modulus)
        if e < 0:
            raise ValueError("negative exponents are not supported")
        if modulus.is_zero:
            raise ZeroDivisionError("zero modulus")
        K = self.ctx
        if modulus.degree == 0:
            return Polynomial._wrap(K, ())  # every residue mod a unit is 0
        ring = FieldContext(K.p, lower=K, modulus=modulus.monic().coeffs)
        a = ring._pack(_pmod(K, self.coeffs, modulus.coeffs))
        return Polynomial._from_raw(K, ring._unpack(ring._pow(a, e)))

    def evaluate(self, x):
        """self(x), for x in ctx or in an extension one level above it."""
        if not isinstance(x, FieldElement) or self.ctx not in (x.ctx, x.ctx.lower):
            raise ContextMismatchError("evaluation point is not in ctx or one level above it")
        return FieldElement._wrap(x.ctx, _peval(x.ctx, self.coeffs, x.raw))

    def map_coefficients(self, fn, ctx=None):
        """Apply fn to every coefficient (as FieldElement); ctx names the target."""
        images = [fn(FieldElement._wrap(self.ctx, c)) for c in self.coeffs]
        if ctx is None:
            ctx = images[0].ctx if images else self.ctx
        return Polynomial(ctx, images)

    def __str__(self):
        return ",".join(_raw_to_display(self.ctx, c) for c in self.coeffs) or "0"

    def __repr__(self):
        return f"Polynomial({self.ctx.describe()}, '{self}')"


# ---------------------------------------------------------------------------
# Context constructors.


@lru_cache(maxsize=None)
def prime_field(p):
    """The prime field GF(p)."""
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    return FieldContext(p)


def extension_field(base, degree, *, seed=DEFAULT_SEED):
    """Extension of the given degree with a seeded random irreducible modulus."""
    return base.extension(random_irreducible(base, degree, seed=seed))


# ---------------------------------------------------------------------------
# Free functions on elements and polynomials.


def _orbit(ctx, raw):
    """The distinct conjugates raw, raw^q, raw^(q^2), ... over the next-lower field."""
    conjs = [raw]
    b = ctx._frob(raw, 1)
    while b != raw:
        conjs.append(b)
        b = ctx._frob(b, 1)
    return conjs


def degree_over_base(a):
    """Smallest r with a^(q^r) = a; the degree of GF(q)(a) over GF(q).

    Read off a's stored orbit length or minimal polynomial when either is
    set, else one Frobenius walk."""
    known = getattr(a, "_normality", None)
    if known is not None:
        return known[0]
    h = getattr(a, "_minpoly", None)
    return len(_orbit(a.ctx, a.raw)) if h is None else h.degree


def minimal_polynomial(a):
    """Monic minimal polynomial of a over the next-lower field, by
    Berlekamp-Massey plus a certificate (degree = orbit length, h(a) = 0).

    The polynomial is kept on a once it passed its certificate, and later
    calls return that same object."""
    h = getattr(a, "_minpoly", None)
    if h is None:
        ctx = a.ctx
        if ctx.lower is None:
            h = Polynomial._wrap(ctx, (ctx._neg(a.raw), 1))
        else:
            r = degree_over_base(a)
            raw = _pminpoly(ctx, a.raw, r)
            _check_minpoly(ctx, a.raw, raw, r)
            h = Polynomial._wrap(ctx.lower, raw)
        a._minpoly = h
    return h


def _pminpoly(K, a, d):
    """Monic minimal polynomial of the raw a of an extension K over K.lower,
    of degree at most d, as raw coefficients, by Berlekamp-Massey on
    s_i = coordinate 0 of a^i.

    The minimal recurrence of s divides minpoly(a), which is irreducible,
    and is not 1 since s_0 = 1, so it is minpoly(a); 2d terms determine it
    (Massey, IEEE Trans. Inf. Theory 15, 1969; Shoup's power projection,
    ISSAC 1999).  No conjugate of a is formed.
    """
    lo = K.lower
    powers = _powers(K, a, 2 * d)
    mask = (1 << K._stride) - 1  # coordinate 0
    seq = [x & mask for x in powers]
    # C is the connection polynomial of the L-term recurrence found so far,
    # B the one before the last length change and b its discrepancy; the
    # discrepancy at step i is C . (s_i, s_(i-1), ...), a window of rs
    n = len(seq)
    rs = seq[::-1]
    C, B, b, L, shift = [1], [1], 1, 0, 1
    for i in range(n):
        d = lo._dot(C, rs[n - 1 - i :])
        if not d:
            shift += 1
            continue
        coef = lo._mul(d, lo._inv(b))
        T, end = C[:], shift + len(B)
        C.extend([0] * (end - len(C)))
        lo._submul(C, shift, coef, B)
        if 2 * L <= i:
            L, B, b, shift = i + 1 - L, T, d, 1
        else:
            shift += 1
    C.extend([0] * (L + 1 - len(C)))
    return tuple(reversed(C[: L + 1]))


def _check_minpoly(K, a, h, r):
    """Raise RuntimeError unless h (raw, over K.lower) is minpoly(a), given
    r = |orbit(a)| from a Frobenius walk.  A monic h of degree r with
    h(a) = 0 (by Horner) is; no part of the check shares code with
    _pminpoly."""
    if h[-1] != 1 or len(h) - 1 != r or _peval(K, h, a):
        raise RuntimeError("minimal polynomial fails its certificate")


def is_irreducible(f):
    """Rabin test: f | X^(Q^n) - X and gcd(X^(Q^(n/t)) - X, f) = 1 for primes t | n.

    The powers X^(Q^j) are taken in the quotient ring K[X]/(f), so over a
    prime field the test runs on the packed kernel.  The ring, the field
    K[X]/(f) or False, is kept on f, so no polynomial is tested twice.
    """
    if not isinstance(f, Polynomial):
        raise TypeError("expected a Polynomial")
    n = f.degree
    if n is None or n < 1:
        raise ValueError("irreducibility is defined for degree >= 1")
    if not f.is_monic:
        raise ValueError("irreducibility test requires a monic polynomial")
    field = getattr(f, "_field", None)
    if field is None:
        field = f._field = _rabin(f)
    return field is not False


def _rabin(f, sieve=0):
    """K[X]/(f), or False if f is reducible: is_irreducible without the memo.

    The gcd test also runs at every j <= sieve, which rejects an f with a
    factor of degree <= sieve early (Ben-Or) and changes no verdict.
    """
    n = f.degree
    K = f.ctx
    Q = K.order
    ring = FieldContext(K.p, lower=K, modulus=f.coeffs)
    x = w = ring._gen_raw()
    gcd_steps = {n // t for t in distinct_prime_factors(n)}
    for j in range(1, n + 1):
        w = ring._pow(w, Q)
        if j <= sieve or j in gcd_steps:
            try:  # gcd(w - X, f) = 1 iff w - X is a unit of K[X]/(f)
                ring._inv(ring._sub(w, x))
            except ZeroDivisionError:
                return False
    ring._is_field = w == x
    return ring if ring._is_field else False


def random_irreducible(ctx, degree, *, rng=None, seed=DEFAULT_SEED):
    """Seeded rejection sampling of a monic irreducible of the given degree.

    Each candidate runs _rabin with a sieve of min(6, degree / 2) steps,
    which rejects most reducible ones early; the field it builds is kept on f.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    if rng is None:
        rng = random.Random(seed)
    sieve = min(6, degree // 2)
    while True:
        coeffs = [ctx._random_raw(rng) for _ in range(degree)] + [1]
        f = Polynomial._wrap(ctx, tuple(coeffs))
        f._field = _rabin(f, sieve)
        if f._field:
            return f


def _split_root(K, f, rng):
    """One root in K of f (monic, raw coefficients), a product of distinct
    linear factors over K, by seeded gcd splitting (Cantor-Zassenhaus)."""
    Q = K.order
    ring = FieldContext(K.p, lower=K, modulus=tuple(f))
    while ring.degree > 1:
        u = ring._pack([K._random_raw(rng) for _ in range(ring.degree)])
        if not u:
            continue
        if Q % 2:
            w = ring._sub(ring._pow(u, (Q - 1) // 2), 1)
        else:
            w = s = u  # the trace u + u^2 + u^4 + ... + u^(Q/2)
            for _ in range(Q.bit_length() - 2):
                s = ring._mul(s, s)
                w = ring._add(w, s)
        g = _pgcd(K, ring.modulus, _pstrip(K, ring._unpack(w)))
        if 1 < len(g) <= ring.degree:
            ring = FieldContext(K.p, lower=K, modulus=g)
    return K._neg(ring.modulus[0])


def find_root(f, ext, *, seed=DEFAULT_SEED):
    """The root of f in the extension field ext with the smallest to_int index.

    f must be monic irreducible over ext's base field GF(q), of a degree m
    dividing ext's degree L.  Its roots lie in GF(q^m), so one is isolated
    there (Lenstra, Math. Comp. 56, 1991): gamma, the trace to GF(q^m) of a
    random z redrawn until minpoly(gamma) = h (Berlekamp-Massey plus its
    certificate) has degree m, gives GF(q)[Y]/(h), where f is split and the
    root mapped to ext by Y -> gamma.  For m = L, gamma is z itself; for
    m = 1, h is linear.  The smallest-index conjugate is returned, so the
    result depends neither on the field that isolated the root nor on seed,
    which steers the draws.
    """
    base = f.ctx
    if ext.lower is None or ext.lower != base:
        raise ContextMismatchError("target is not an extension of the coefficient field")
    m = f.degree
    if m is None or m < 1 or not f.is_monic:
        raise ValueError("expected a monic polynomial of degree >= 1")
    L = ext.degree
    if L % m != 0:
        raise ValueError(f"degree {m} does not divide extension degree {L}")
    if not is_irreducible(f):
        raise ValueError("polynomial is reducible")
    rng = random.Random(seed)
    while True:
        z = gamma = ext._random_raw(rng)
        for _ in range(L // m - 1):
            z = ext._frob(z, m)
            gamma = ext._add(gamma, z)
        h = _pminpoly(ext, gamma, m)
        if len(h) - 1 == m:
            break
    _check_minpoly(ext, gamma, h, len(_orbit(ext, gamma)))
    small = FieldContext(ext.p, lower=base, modulus=h)
    r = _split_root(small, f.coeffs, rng)
    root = _peval(ext, small._unpack(r), gamma)
    if _peval(ext, f.coeffs, root):
        raise RuntimeError("the root found in the subfield is not a root of f")
    return FieldElement._wrap(ext, min(_orbit(ext, root), key=ext._to_int))


class Embedding:
    """Embedding of one extension of a base field into a larger one.

    Determined by the image of the small field's generator, which must be a
    root of the small modulus inside the big field.  project() inverts the
    map by linalg.echelon and raises ValueError on elements outside the image.
    """

    __slots__ = ("small", "big", "root", "_pows")

    def __init__(self, small, big, root):
        if small.lower is None or big.lower is None or small.lower != big.lower:
            raise ContextMismatchError("embeddings need two extensions of one base field")
        if big.degree % small.degree != 0:
            raise ValueError("small degree does not divide big degree")
        if not isinstance(root, FieldElement) or root.ctx != big:
            raise ContextMismatchError("root must be an element of the big field")
        if not small.modulus_poly().evaluate(root).is_zero:
            raise ValueError("root does not satisfy the subfield modulus")
        self.small = small
        self.big = big
        self.root = root
        self._pows = tuple(_powers(big, root.raw, small.degree))

    @classmethod
    def find(cls, small, big, *, seed=DEFAULT_SEED):
        root = find_root(small.modulus_poly(), big, seed=seed)
        return cls(small, big, root)

    def __call__(self, a):
        if not isinstance(a, FieldElement) or a.ctx != self.small:
            raise ContextMismatchError("element is not in the small field")
        coords = self.small._unpack(a.raw)
        return FieldElement._wrap(self.big, combine(self.big, self._pows, coords))

    def project(self, b):
        if not isinstance(b, FieldElement) or b.ctx != self.big:
            raise ContextMismatchError("element is not in the big field")
        # b is in the image iff reducing it against the root powers leaves 0;
        # the multipliers taken out, as a raw of small, are then its coordinates
        big, small = self.big, self.small
        rest, coords = _reduce(big, echelon(big, self._pows, small), b.raw, small)
        if rest:
            raise ValueError("element is not in the embedded subfield")
        return FieldElement._wrap(small, coords)

    def project_poly(self, f):
        if f.ctx != self.big:
            raise ContextMismatchError("polynomial is not over the big field")
        return Polynomial._wrap(
            self.small,
            tuple(self.project(FieldElement._wrap(self.big, c)).raw for c in f.coeffs),
        )


def _orbit_factors(emb, a, count):
    """[h_0, ..., h_(d-1)] over emb.small, d its degree over the common base.

    h_0 = prod_(s < count) (X - a^(q^(d s))) is multiplied out once in
    emb.big and projected; h_t is h_0 with each coefficient raised to the
    q^t-th power, which is the product over the roots a^(q^(t + d s)) since
    the embedding commutes with Frobenius.  ValueError when h_0 has a
    coefficient outside the embedded subfield.
    """
    big, small = emb.big, emb.small
    d = small.degree
    roots = [a]
    for _ in range(1, count):
        roots.append(big._frob(roots[-1], d))
    h0 = emb.project_poly(Polynomial._wrap(big, _pfromroots(big, roots))).coeffs
    return [Polynomial._wrap(small, tuple(small._frob(c, t) for c in h0)) for t in range(d)]


# ---------------------------------------------------------------------------
# Text formats.


def element_to_text(a):
    if not isinstance(a, FieldElement):
        raise TypeError("expected a FieldElement")
    return _raw_to_text(a.ctx, a.raw, 0)


def _raw_to_text(ctx, raw, level):
    if ctx.lower is None:
        return str(raw)
    if level >= len(_COORD_SEPS):
        raise ValueError("tower too deep for the text format")
    sep = _COORD_SEPS[level]
    return sep.join(_raw_to_text(ctx.lower, c, level + 1) for c in ctx._unpack(raw))


def _raw_to_display(ctx, raw):
    """The text format up to depth 2; deeper, the list of coordinates over
    the next-lower level, each displayed the same way ("[1:0/0:1, 0:1/1:1]")."""
    if ctx.depth <= len(_COORD_SEPS):
        return _raw_to_text(ctx, raw, 0)
    return "[" + ", ".join(_raw_to_display(ctx.lower, c) for c in ctx._unpack(raw)) + "]"


def element_from_text(ctx, s):
    return FieldElement._wrap(ctx, _raw_from_text(ctx, s.strip(), 0))


def _raw_from_text(ctx, s, level):
    if ctx.lower is None:
        try:
            v = int(s)
        except ValueError:
            raise ValueError(f"bad coordinate {s!r}") from None
        if not 0 <= v < ctx.p:
            raise ValueError(f"coordinate {s!r} out of range for GF({ctx.p})")
        return v
    if level >= len(_COORD_SEPS):
        raise ValueError("tower too deep for the text format")
    parts = s.split(_COORD_SEPS[level])
    if len(parts) != ctx.degree:
        raise ValueError(f"expected {ctx.degree} coordinates, got {len(parts)}")
    return ctx._pack([_raw_from_text(ctx.lower, part, level + 1) for part in parts])


def poly_to_text(f):
    if f.is_zero:
        return "0"
    return ",".join(_raw_to_text(f.ctx, c, 0) for c in f.coeffs)


def poly_from_text(ctx, s):
    s = s.strip()
    if not s:
        raise ValueError("empty polynomial text")
    if s == "0":
        return Polynomial._wrap(ctx, ())
    return Polynomial._wrap(
        ctx, _pstrip(ctx, [_raw_from_text(ctx, part, 0) for part in s.split(",")])
    )


def parse_field_spec(s):
    """Parse "p" or "p^e:modulus" into a FieldContext."""
    s = s.strip()
    if "^" not in s:
        try:
            p = int(s)
        except ValueError:
            raise ValueError(f"bad field spec {s!r}") from None
        return prime_field(p)
    head, _, mod_text = s.partition(":")
    p_text, _, e_text = head.partition("^")
    try:
        p, e = int(p_text), int(e_text)
    except ValueError:
        raise ValueError(f"bad field spec {s!r}") from None
    if not mod_text:
        raise ValueError("extension field specs need a modulus, \"p^e:modulus\"")
    base = prime_field(p)
    modulus = poly_from_text(base, mod_text)
    if modulus.degree != e:
        raise ValueError(f"modulus degree {modulus.degree} does not match e={e}")
    return base.extension(modulus)
