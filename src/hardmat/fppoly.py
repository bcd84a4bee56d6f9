"""Polynomial arithmetic over prime fields on packed ints.

A polynomial over F_2 is an int bitmask (bit i is the coefficient of z^i);
over odd p it is Kronecker-packed (von zur Gathen-Gerhard, Modern Computer
Algebra, section 8.4): coefficient i sits in slot i of an int, and the slots
are wide enough that no sum formed before a reduction carries out of one.
:func:`ring` returns F_p[z]/(g) on that representation; its ``pack`` and
``unpack`` convert to and from residue tuples, low-degree-first, which is
how the ``fields`` layer holds extension elements.  This module is the
engine behind extension-field arithmetic and the deterministic irreducible
search.  A ring computes its reduction data (the fold taps over F_2, the
Barrett quotient over odd p) in one setup, run by the first code that
multiplies in it: :func:`ring` for the field ops, or the irreducibility
test once g gets past its folded steps.  Over F_2 the Frobenius map
h -> h^2 spreads each byte of h into two through two 256-byte
``bytes.translate`` tables, then folds the result mod g.

The irreducibility test is Ben-Or's: g of degree d is irreducible iff
gcd(g, z^(p^i) - z) = 1 for every i <= d/2.  While p^i < d a step's gcd runs
on g folded modulo z^(p^i) - z, so it never touches a degree-d remainder.
Later steps run in blocks up to a window fixed by (p, d): each step
multiplies h_i - z, with h_i = z^(p^i) mod g, into a product mod g, and each
block pays one gcd of g with that product.  Survivors of a window shorter
than d/2 get the rest of Rabin's test: z^(p^d) = z mod g, and
gcd(g, z^(p^(d/r)) - z) = 1 for each prime r | d with d/r past the window.
The irreducible search decides its first p candidates, the binomials
z^d + c, by Capelli's criterion instead: a few modular powers each.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from math import gcd

from .budgets import IRREDUCIBLE_SCAN_BUDGET, charge

Poly = tuple  # tuple[int, ...], low-degree-first, trimmed

__all__ = [
    "Poly",
    "trim",
    "ring",
    "is_irreducible",
    "find_irreducible_coeffs",
]


def trim(coeffs) -> Poly:
    """Drop trailing zeros and return a canonical tuple."""
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


def ring(g: Poly, p: int):
    """F_p[z]/(g) on packed ints, for a monic g of degree >= 1, set up for
    ``pack``, ``mulmod``, ``frob`` and ``unpack``.

    This and ``_irreducible`` are the two places a ring is set up, each
    once per ring; the irreducibility test and the scan build their rings
    bare, since the folded Ben-Or steps need only ``coprime``.
    """
    r = _bare_ring(g, p)
    r._setup()
    return r


def _bare_ring(g: Poly, p: int):
    """F_p[z]/(g), not yet set up for products."""
    return _F2Ring(_F2Ring.pack(g), len(g) - 1) if p == 2 else _FpRing(g, p)


# ---------------------------------------------------------------------------
# The packed rings and the kernels under them.

#: Little-endian struct formats by slot width in bytes; wider slots are
#: converted one at a time.
_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}

#: Byte maps between 0/1 coefficients and the binary digits of a bitmask.
_TO_DIGITS = bytes.maketrans(b"\0\1", b"01")
_FROM_DIGITS = bytes.maketrans(b"01", b"\0\1")

#: Squaring over F_2 moves bit i to bit 2i, so a byte spreads into two:
#: the first from its low nibble, the second from its high nibble.
_SPREAD_LOW = bytes(int("0".join(f"{b & 15:04b}"), 2) for b in range(256))
_SPREAD_HIGH = bytes(int("0".join(f"{b >> 4:04b}"), 2) for b in range(256))

#: Ben-Or steps per gcd inside the window; one gcd with g costs about as
#: much as 4-7 steps.
_BLOCK = 10


def _f2_mod(a: int, g: int, dg: int) -> int:
    da = a.bit_length() - 1
    while da >= dg:
        a ^= g << (da - dg)
        da = a.bit_length() - 1
    return a


def _f2_gcd(a: int, b: int) -> int:
    while b:
        da, db = a.bit_length(), b.bit_length()
        if da < db:
            a, b = b, a
            da, db = db, da
        a ^= b << (da - db)
    return a


def _f2_clmul(a: int, b: int) -> int:
    """Carry-less product: a table of a times every byte, then Horner over b."""
    table = [0]
    for k in range(8):
        s = a << k
        table += [t ^ s for t in table]
    acc = 0
    for c in b.to_bytes((b.bit_length() + 7) // 8, "big"):
        acc = acc << 8 ^ table[c]
    return acc


def _translate(x: int, table: bytes) -> int:
    """x with each of its bytes mapped through table."""
    raw = x.to_bytes((x.bit_length() + 7) // 8, "little")
    return int.from_bytes(raw.translate(table), "little")


def _f2_exponents(a: int) -> list[int]:
    """Positions of the set bits of a, lowest first."""
    out = []
    while a:
        low = a & -a
        out.append(low.bit_length() - 1)
        a ^= low
    return out


def _f2_square(h: int) -> int:
    """h(z)^2 = h(z^2) over F_2: each byte of h spread into two bytes."""
    raw = h.to_bytes((h.bit_length() + 7) // 8, "little")
    out = bytearray(2 * len(raw))
    out[0::2] = raw.translate(_SPREAD_LOW)
    out[1::2] = raw.translate(_SPREAD_HIGH)
    return int.from_bytes(out, "little")


@lru_cache(maxsize=8)
def _fp_layout(p: int, d: int) -> tuple:
    """(width, struct format, translate table, folds) of the packed slots of
    F_p[z]/(g) with deg g = d; the table and folds are None where slots are
    reduced one at a time."""
    # Largest slot value formed before a reduction mod p: a product's
    # x + q * (-low g).  A spread quotient's, (p - 1)^3 (d - 1), is less.
    bound = 2 * d * (p - 1) ** 2
    width = 1 << ((bound.bit_length() + 7) // 8 - 1).bit_length()
    fmt = _FORMATS.get(width)
    # Slots are reduced byte-wise with ``bytes.translate`` while a byte
    # folded onto another stays below p * (p - 1) < 256 (p <= 13).
    if not fmt or p * (p - 1) >= 256:
        return width, fmt, None, None
    # Each byte of a slot goes to its residue mod p; then the high half of
    # each slot folds onto the low half as hi * 2^s mod p, down to one byte.
    table = (bytes(range(p)) * (256 // p + 1))[:256]
    slots = (3 * d if p == 3 else 2 * d) + 1
    folds = []
    s = 4 * width
    while s >= 8:
        mask = int.from_bytes((b"\xff" * (s // 8) + bytes(s // 8)) * slots, "little")
        folds.append((s, pow(2, s, p), mask))
        s >>= 1
    return width, fmt, table, tuple(folds)


class _F2Ring:
    """F_2[z]/(g) on bitmasks; squaring is the Frobenius map."""

    p = 2

    def __init__(self, g: int, d: int):
        self.g, self.d = g, d
        self.terms = [(e, 1) for e in _f2_exponents(g)]

    @staticmethod
    def pack(coeffs) -> int:
        """Bitmask of 0/1 coefficients, low-degree-first."""
        return int(bytes(coeffs)[::-1].translate(_TO_DIGITS) or b"0", 2)

    def unpack(self, x: int) -> tuple:
        """The d coefficients of a reduced x, low-degree-first."""
        return tuple(f"{x:0{self.d}b}".encode()[::-1].translate(_FROM_DIGITS))

    def poly(self, terms: dict) -> int:
        return sum(1 << e for e, c in terms.items() if c)

    def coprime(self, a: int, b: int) -> bool:
        return _f2_gcd(a, b) == 1

    def minus_z(self, h: int) -> int:
        return h ^ 2

    def frob(self, h: int) -> int:
        return self._reduce(_f2_square(h))

    def mulmod(self, a: int, b: int) -> int:
        return self._reduce(_f2_clmul(a, b))

    def _setup(self):
        d = self.d
        low = self.g ^ (1 << d)
        self._taps = _f2_exponents(low)
        self._low = (1 << d) - 1
        # Folding z^d -> low(z) takes `passes` rounds of one shift-xor per
        # tap to bring a product (degree <= 2d - 2) below d; dividing a bit
        # at a time takes about d/2 shift-xors.
        passes = -(-(d - 1) // (d - low.bit_length() + 1))
        if len(self._taps) * passes < d // 2:
            self._reduce = self._fold
        else:
            self._reduce = lambda x: _f2_mod(x, self.g, d)

    def _fold(self, x: int) -> int:
        d, low, taps = self.d, self._low, self._taps
        while x >> d:
            hi = x >> d
            x &= low
            for t in taps:
                x ^= hi << t
        return x


class _FpRing:
    """F_p[z]/(g) for odd p on Kronecker-packed ints.

    Reduction mod g is an exact polynomial Barrett fold: with
    mu = z^D div g, the quotient of x (deg x <= D) by g is
    ((x div z^d) * mu) div z^(D-d), and x mod g is the low d slots of
    x - quotient * g.  A product a * b (D = 2d - 2; D = 1 at d = 1, so that
    z itself reduces) takes three slot reductions mod p.  The Frobenius map
    h -> h^p is square-and-multiply, except over F_3, where it is the spread
    h(z^3) (D = 3(d - 1)) and one fold, with two reductions instead of six;
    for p >= 5 the spread's longer fold costs more than the products it
    saves.
    """

    def __init__(self, g: Poly, p: int):
        d = len(g) - 1
        self.p, self.d = p, d
        self.terms = [(e, c) for e, c in enumerate(g) if c]
        self.spread = p == 3
        self.width, self.fmt, self._table, self._folds = _fp_layout(p, d)
        self.bits = 8 * self.width
        self.g = self.pack(g)

    def pack(self, coeffs) -> int:
        """Coefficients in [0, 2^bits), low-degree-first, one per slot."""
        if self.fmt:
            raw = struct.pack(f"<{len(coeffs)}{self.fmt}", *coeffs)
        else:
            raw = b"".join(c.to_bytes(self.width, "little") for c in coeffs)
        return int.from_bytes(raw, "little")

    def _slots(self, x: int, n: int) -> list:
        """The first n slots of x, reduced mod p."""
        raw = x.to_bytes(n * self.width, "little")
        p = self.p
        if self.fmt:
            return [c % p for c in struct.unpack(f"<{n}{self.fmt}", raw)]
        w = self.width
        return [
            int.from_bytes(raw[i : i + w], "little") % p for i in range(0, len(raw), w)
        ]

    def _reduce(self, x: int) -> int:
        """x with every slot reduced mod p."""
        table = self._table
        if table is None:
            return self.pack(self._slots(x, -(-x.bit_length() // self.bits)))
        x = _translate(x, table)
        for s, r, mask in self._folds:
            x = _translate((x & mask) + r * (x >> s & mask), table)
        return x

    def unpack(self, x: int) -> tuple:
        """The d coefficients of an x of at most d slots, reduced mod p."""
        return tuple(self._slots(x, self.d))

    def poly(self, terms: dict) -> int:
        coeffs = [0] * (max(terms) + 1)
        for e, c in terms.items():
            coeffs[e] = c
        return self.pack(coeffs)

    def coprime(self, a: int, b: int) -> bool:
        """gcd(a, b) = 1 for a, b with reduced slots, by Euclid on packed ints.

        An elimination adds (p - c) * b * z^k to a, which zeroes a's top slot
        mod p and adds at most (p - 1) * sb to the others, where sa and sb
        bound the slot values of a and b.  Both are reduced only when a
        division could overflow a slot.
        """
        p, bits = self.p, self.bits
        top = (1 << bits) - 1
        sa = sb = p - 1
        db = (b.bit_length() - 1) // bits
        while True:
            # Slots above db hold multiples of p, which change nothing mod p
            # and land only on slots of a that the division discards.
            while db >= 0 and (b >> db * bits & top) % p == 0:
                db -= 1
            if db <= 0:  # gcd(a, nonzero constant) = 1 and gcd(a, 0) = a
                return db == 0 or 0 < a <= top
            da = (a.bit_length() - 1) // bits
            if da >= db:
                if sa + (da - db + 1) * (p - 1) * sb > top:
                    a, b, sa, sb = self._reduce(a), self._reduce(b), p - 1, p - 1
                sa += (da - db + 1) * (p - 1) * sb
                inv = pow(b >> db * bits, -1, p)
                for k in range(da, db - 1, -1):
                    c = (a >> k * bits & top) * inv % p
                    if c:
                        a += (p - c) * b << (k - db) * bits
            a, b, sa, sb = b, a & ((1 << db * bits) - 1), sb, sa
            db -= 1

    def minus_z(self, h: int) -> int:
        p, bits = self.p, self.bits
        c = h >> bits & (1 << bits) - 1  # the coefficient of z
        return h + (((c - 1) % p - c) << bits)

    def frob(self, h: int) -> int:
        if not self.spread:
            out = h
            for bit in bin(self.p)[3:]:
                out = self.mulmod(out, out)
                if bit == "1":
                    out = self.mulmod(out, h)
            return out
        # h(z)^p = h(z^p): move slot i to slot p*i, then one Barrett fold
        p, d, w = self.p, self.d, self.width
        raw = h.to_bytes(d * w, "little")
        spread = bytearray((p * (d - 1) + 1) * w)
        for j in range(w):
            spread[j :: p * w] = raw[j::w]
        x = int.from_bytes(spread, "little")
        q = self._reduce((x >> d * self.bits) * self._mu >> self._mu_shift)
        return self._reduce((x + q * self._neg_low) & self._low)

    def _setup(self):
        p, d, bits = self.p, self.d, self.bits
        D = max(2 * d - 2, d)  # a product's degree, or z's at d = 1
        top = max(p * (d - 1), D) if self.spread else D
        # mu = z^top div g by long division; z^D div g is its top part
        rem = [0] * top + [1]
        mu = [0] * (top - d + 1)
        low = self.terms[:-1]  # the nonzero terms of g below z^d
        for i in range(top, d - 1, -1):
            c = rem[i] % p
            if c:
                mu[i - d] = c
                for j, gj in low:
                    rem[i - d + j] -= c * gj
        self._mu = self.pack(mu)
        self._mu_shift = (top - d) * bits
        self._m = self._mu >> (top - D) * bits
        self._q_shift = (D - d) * bits
        neg_low = [0] * d
        for j, c in low:
            neg_low[j] = p - c
        self._neg_low = self.pack(neg_low)
        self._low = (1 << d * bits) - 1

    def mulmod(self, a: int, b: int) -> int:
        d, bits = self.d, self.bits
        x = a * b
        q = self._reduce(x >> d * bits)
        q = self._reduce(q * self._m >> self._q_shift)
        return self._reduce((x + q * self._neg_low) & self._low)


def _prime_factors(d: int) -> list[int]:
    """The primes dividing d, by trial division."""
    return [
        r for r in range(2, d + 1) if d % r == 0 and all(r % f for f in range(2, r))
    ]


def _window(p: int, d: int) -> int:
    """Last Ben-Or step run in blocks before Rabin's test takes over.

    A step past the window costs one Frobenius map; one inside it also costs
    a product mod g and 1/_BLOCK of a gcd.  A candidate that passed step i
    has its smallest factor at step i + 1 with chance ~1/i, and Rabin's test
    would charge it d - i Frobenius maps, so the window pays up to
    i ~ d / (c + 1) for a step costing c Frobenius maps.  Measured on CPython
    3.11, c ~ 15 over F_2 up to d ~ 2000 and ~ d/128 beyond (the product
    grows faster than a squaring), and c ~ 3 over odd p.  The window is at
    least 15 steps, so degrees below 32 need no Rabin tail; at degrees of a
    few hundred, windows of 6 to 25 steps measured within noise.
    """
    if p == 2:
        return max(15, min(d // 16, 128))
    return max(15, d // 4)


def _irreducible(ring) -> bool:
    """Exact test: blocked Ben-Or steps, then the rest of Rabin's test.

    Ben-Or: g of degree d is irreducible iff gcd(g, z^(p^i) - z) = 1 for
    every i <= d/2.  Steps with p^i < d fold g modulo z^(p^i) - z.  Later
    steps up to _window(p, d) run in blocks of _BLOCK: the product of the
    h_i - z mod g, then one gcd with g.  If the window stops short of
    d/2, Rabin's test finishes: z^(p^d) = z mod g, and
    gcd(g, z^(p^(d/r)) - z) = 1 for each prime r | d with d/r past the
    window (the window has covered the others).
    """
    p, d = ring.p, ring.d
    half = d // 2
    i, n = 1, p
    while i <= half and n < d:
        # gcd(g, z^n - z) = gcd(z^n - z, g mod (z^n - z)), and modulo
        # z^n - z each z^e with e >= 1 is z^(1 + (e - 1) mod (n - 1)).
        folded = {}
        for e, c in ring.terms:
            e = (e - 1) % (n - 1) + 1 if e else 0
            folded[e] = (folded.get(e, 0) + c) % p
        if not ring.coprime(ring.poly({n: 1, 1: p - 1}), ring.poly(folded)):
            return False
        i, n = i + 1, n * p
    ring._setup()
    last = min(half, _window(p, d))
    h = ring.poly({n // p: 1})  # z^(p^(i-1)), reduced since p^(i-1) < d
    while i <= last:
        end = min(last, i + _BLOCK - 1)
        h = ring.frob(h)
        acc = ring.minus_z(h)
        for _ in range(i, end):
            h = ring.frob(h)
            acc = ring.mulmod(acc, ring.minus_z(h))
        if not ring.coprime(ring.g, acc):
            return False
        i = end + 1
    if i > half:
        return True
    checks = {d // r for r in _prime_factors(d) if d // r >= i}
    for i in range(i, d + 1):
        h = ring.frob(h)
        if i in checks and not ring.coprime(ring.g, ring.minus_z(h)):
            return False
    return h == ring.poly({1: 1})


def is_irreducible(g: Poly, p: int) -> bool:
    """Exact irreducibility test for a monic g over F_p (see _irreducible)."""
    g = trim(g)
    d = len(g) - 1
    if d < 1:
        return False
    if g[-1] != 1:
        raise ValueError("irreducibility test expects a monic polynomial")
    return _irreducible(_bare_ring(g, p))


def _digits(p: int, d: int, k: int) -> Poly:
    """The d base-p digits of k, lowest first."""
    low, rest = [], k
    while rest:
        rest, c = divmod(rest, p)
        low.append(c)
    return tuple(low) + (0,) * (d - len(low))


def _binomial_test(p: int, d: int):
    """Whether z^d + k is irreducible over F_p, as a function of 0 <= k < p,
    for d >= 2; None when no such binomial is.

    Capelli's criterion (Lang, Algebra, VI section 9): z^d - a is
    irreducible iff a is not an r-th power for any prime r | d, and
    a is not in -4 F_p^4 when 4 | d.  A nonzero a is an r-th power iff
    r does not divide p - 1 or a^((p-1)/r) = 1.
    """
    primes = _prime_factors(d)
    if any((p - 1) % r for r in primes):
        return None  # every a is an r-th power
    powers = [(p - 1) // r for r in primes]
    quarter = pow(4, -1, p) if d % 4 == 0 else None  # p is odd: 2 | p - 1
    fourth = (p - 1) // gcd(4, p - 1)  # x != 0 is a 4th power iff x^fourth = 1

    def irreducible(k: int) -> bool:
        a = -k % p
        if k == 0 or any(pow(a, e, p) == 1 for e in powers):
            return False
        # a in -4 F_p^4 iff -a/4 = k/4 is a fourth power
        return quarter is None or pow(k * quarter % p, fourth, p) != 1

    return irreducible


def find_irreducible_coeffs(p: int, d: int) -> Poly:
    """First monic irreducible of degree d over F_p in counting order.

    Candidates are z^d + c_{d-1} z^{d-1} + ... + c_0 enumerated with the
    constant term varying fastest (the low part read as a base-p counter),
    so the result is the lexicographically-first coefficient tuple in that
    order.  For d >= 2 the first p candidates, the binomials z^d + c, are
    decided by Capelli's criterion (_binomial_test), and the rest by the
    Ben-Or test.  Deterministic; raises BudgetExceeded after
    IRREDUCIBLE_SCAN_BUDGET candidates.
    """
    if d < 1:
        raise ValueError("degree must be at least 1")
    count, start = min(IRREDUCIBLE_SCAN_BUDGET, p**d), 0
    if d > 1:
        start = min(p, count)
        test = _binomial_test(p, d)
        if test is not None:
            for k in range(start):
                if test(k):
                    return _digits(p, d, k) + (1,)
    for k in range(start, count):
        if p == 2:
            candidate = _F2Ring((1 << d) | k, d)
        else:
            candidate = _FpRing(_digits(p, d, k) + (1,), p)
        if _irreducible(candidate):
            return _digits(p, d, k) + (1,)
    # Every degree has an irreducible, so the scan ends here only at the budget.
    message = "no irreducible of degree {d} over F_{p} within {cap} candidates"
    charge(IRREDUCIBLE_SCAN_BUDGET + 1, message, IRREDUCIBLE_SCAN_BUDGET, d=d, p=p)
