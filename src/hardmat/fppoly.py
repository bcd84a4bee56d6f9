"""Dense univariate polynomial arithmetic over prime fields.

Polynomials over F_p are tuples of residues, low-degree-first, with no
trailing zeros; the zero polynomial is the empty tuple.  This module is the
engine behind extension-field arithmetic and the deterministic irreducible
search.

The irreducibility test is one algorithm for every p, run on packed ints (a
bitmask over F_2, Kronecker-packed slots over odd p).  Ben-Or steps
gcd(g, z^(p^i) - z) = 1 for i up to a fixed prefix reject candidates with a
small factor cheaply; while p^i < deg g the gcd runs on g folded modulo
z^(p^i) - z, so it never touches a degree-d remainder.  Candidates that
survive get Rabin's test: z^(p^d) = z mod g, and gcd(g, z^(p^(d/r)) - z) = 1
for each prime r | d.  Binary moduli with a sparse low part are reduced by
folding z^d onto that low part, so the search stays fast at degrees in the
thousands.
"""

from __future__ import annotations

import struct

from .budgets import IRREDUCIBLE_SCAN_BUDGET, BudgetExceeded

Poly = tuple  # tuple[int, ...], low-degree-first, trimmed

__all__ = [
    "Poly",
    "trim",
    "degree",
    "add",
    "sub",
    "neg",
    "mul",
    "mod_monic",
    "gcd",
    "inverse_mod",
    "eval_at",
    "is_irreducible",
    "find_irreducible_coeffs",
]


def trim(coeffs) -> Poly:
    """Drop trailing zeros and return a canonical tuple."""
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


def degree(a: Poly) -> int:
    """Degree of a; the zero polynomial has degree -1."""
    return len(a) - 1


def add(a: Poly, b: Poly, p: int) -> Poly:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % p
    return trim(out)


def neg(a: Poly, p: int) -> Poly:
    return tuple((-c) % p for c in a)


def sub(a: Poly, b: Poly, p: int) -> Poly:
    return add(a, neg(b, p), p)


def mul(a: Poly, b: Poly, p: int) -> Poly:
    """Schoolbook product, skipping zero coefficients of the sparser factor."""
    if not a or not b:
        return ()
    if len(a) > len(b):
        a, b = b, a
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return trim([c % p for c in out])


def mod_monic(a: Poly, g: Poly, p: int) -> Poly:
    """Remainder of a modulo a monic g."""
    dg = len(g) - 1
    if len(a) <= dg:
        return trim(a)
    work = list(a)
    for i in range(len(work) - 1, dg - 1, -1):
        c = work[i]
        if c:
            work[i] = 0
            off = i - dg
            for j in range(dg):
                gj = g[j]
                if gj:
                    work[off + j] = (work[off + j] - c * gj) % p
    return trim(work)


def _mod_general(a: Poly, b: Poly, p: int) -> Poly:
    """Remainder of a modulo an arbitrary nonzero b."""
    inv = pow(b[-1], p - 2, p)
    db = len(b) - 1
    work = list(a)
    for i in range(len(work) - 1, db - 1, -1):
        c = work[i] * inv % p
        if c:
            work[i] = 0
            off = i - db
            for j in range(db):
                bj = b[j]
                if bj:
                    work[off + j] = (work[off + j] - c * bj) % p
    return trim(work)


def gcd(a: Poly, b: Poly, p: int) -> Poly:
    """Monic greatest common divisor."""
    a, b = trim(a), trim(b)
    while b:
        a, b = b, _mod_general(a, b, p)
    if a and a[-1] != 1:
        inv = pow(a[-1], p - 2, p)
        a = tuple(c * inv % p for c in a)
    return a


def inverse_mod(a: Poly, g: Poly, p: int) -> Poly:
    """Inverse of a modulo g (g monic irreducible) via extended Euclid."""
    a = mod_monic(trim(a), g, p)
    if not a:
        raise ZeroDivisionError("inverse of zero in extension field")
    r0, r1 = trim(g), a
    s0, s1 = (), (1,)
    while r1:
        inv = pow(r1[-1], p - 2, p)
        d0, d1 = len(r0) - 1, len(r1) - 1
        if d0 < d1:
            r0, r1, s0, s1 = r1, r0, s1, s0
            continue
        c = r0[-1] * inv % p
        shift = d0 - d1
        shifted = (0,) * shift + tuple(x * c % p for x in r1)
        r0 = sub(r0, shifted, p)
        s_shift = (0,) * shift + tuple(x * c % p for x in s1)
        s0 = sub(s0, s_shift, p)
        if len(r0) - 1 < d1 or not r0:
            r0, r1, s0, s1 = r1, r0, s1, s0
    # r0 is now gcd(a, g) = nonzero constant since g is irreducible
    c_inv = pow(r0[0], p - 2, p)
    return mod_monic(tuple(x * c_inv % p for x in s0), g, p)


def eval_at(a: Poly, x: int, p: int) -> int:
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % p
    return acc


# ---------------------------------------------------------------------------
# Irreducibility on packed ints.  Over F_2 a polynomial is an int bitmask
# (bit i is the coefficient of z^i).  Over odd p it is Kronecker-packed:
# coefficient i sits in slot i of an int, and the slots are wide enough that
# a product of two reduced polynomials never carries out of one.

#: Ben-Or steps run before Rabin's test.  They reject candidates with an
#: irreducible factor of degree <= 15 for a few gcds, before those pay for
#: the d Frobenius steps of Rabin's test.
_PREFIX_STEPS = 15

#: Little-endian struct formats by slot width in bytes; wider slots are
#: converted one at a time.
_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}


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


def _f2_pack(a: Poly) -> int:
    v = 0
    for i, c in enumerate(a):
        if c:
            v |= 1 << i
    return v


def _f2_exponents(a: int) -> list[int]:
    """Positions of the set bits of a, lowest first."""
    out = []
    while a:
        low = a & -a
        out.append(low.bit_length() - 1)
        a ^= low
    return out


class _F2Ring:
    """F_2[z]/(g) on bitmasks; squaring is the Frobenius map."""

    p = 2

    def __init__(self, g: int, d: int):
        self.g, self.d = g, d
        self.terms = [(e, 1) for e in _f2_exponents(g)]
        self._masks = None

    def poly(self, terms: dict) -> int:
        return sum(1 << e for e, c in terms.items() if c)

    def coprime(self, a: int, b: int) -> bool:
        return _f2_gcd(a, b) == 1

    def all_coprime(self, hs) -> bool:
        """gcd(g, h - z) = 1 for every h in hs."""
        return all(_f2_gcd(self.g, h ^ 2) == 1 for h in hs)

    def frob(self, h: int) -> int:
        if self._masks is None:
            self._setup()
        # h(z)^2 = h(z^2): spread the bits apart in log2(d) mask steps
        for s, m in self._masks:
            h = (h | h << s) & m
        return self._reduce(h)

    def _setup(self):
        d = self.d
        span = 1 << (d - 1).bit_length()  # power of two >= d, the input width
        ones = (1 << 2 * span) - 1
        self._masks = []
        s = span >> 1
        while s:
            # the low s bits of every 2s-bit block
            self._masks.append((s, ones // ((1 << 2 * s) - 1) * ((1 << s) - 1)))
            s >>= 1
        low = self.g ^ (1 << d)
        self._taps = _f2_exponents(low)
        self._low = (1 << d) - 1
        # Folding z^d -> low(z) takes `passes` rounds of one shift-xor per
        # tap to bring a square (degree <= 2d - 2) below d; dividing a bit at
        # a time takes about d/2 shift-xors.
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

    A product x = a * b is one int multiply, then a Barrett fold: with
    m = z^(2d-2) div g, the quotient of x (deg x <= 2d - 2) by g is exactly
    ((x div z^d) * m) div z^(d-2), and x mod g is the low d slots of
    x - quotient * g.  Slots are reduced mod p before each multiply.
    """

    def __init__(self, g: Poly, p: int):
        self.p, self.d = p, len(g) - 1
        self.terms = [(e, c) for e, c in enumerate(g) if c]
        # largest slot value _mulmod forms before reducing mod p
        bound = 2 * self.d * (p - 1) ** 2
        self.width = 1 << ((bound.bit_length() + 7) // 8 - 1).bit_length()
        self.fmt = _FORMATS.get(self.width)
        self.bits = 8 * self.width
        self.g = self._pack(g)
        self._m = None

    def _pack(self, coeffs) -> int:
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

    def _reduce(self, x: int, n: int) -> int:
        return self._pack(self._slots(x, n))

    def _tuple(self, x: int) -> Poly:
        return trim(self._slots(x, -(-x.bit_length() // self.bits)))

    def poly(self, terms: dict) -> int:
        coeffs = [0] * (max(terms) + 1)
        for e, c in terms.items():
            coeffs[e] = c
        return self._pack(coeffs)

    def coprime(self, a: int, b: int) -> bool:
        return degree(gcd(self._tuple(a), self._tuple(b), self.p)) == 0

    def all_coprime(self, hs) -> bool:
        """gcd(g, h - z) = 1 for every h in hs, as one gcd with the product."""
        p, bits = self.p, self.bits
        acc = None
        for h in hs:
            c = h >> bits & (1 << bits) - 1  # the coefficient of z
            h += ((c - 1) % p - c) << bits
            acc = h if acc is None else self._mulmod(acc, h)
        return acc is None or self.coprime(self.g, acc)

    def frob(self, h: int) -> int:
        if self._m is None:
            self._setup()
        out = h
        for bit in bin(self.p)[3:]:
            out = self._mulmod(out, out)
            if bit == "1":
                out = self._mulmod(out, h)
        return out

    def _setup(self):
        g, p, d = self._tuple(self.g), self.p, self.d
        # m = z^(2d-2) div g by long division
        rem = [0] * (2 * d - 2) + [1]
        m = [0] * (d - 1)
        low = [(j, c) for j, c in enumerate(g[:-1]) if c]
        for i in range(2 * d - 2, d - 1, -1):
            c = rem[i] % p
            if c:
                m[i - d] = c
                for j, gj in low:
                    rem[i - d + j] -= c * gj
        self._m = self._pack(m)
        self._neg_low = self._pack([(-c) % p for c in g[:-1]])
        self._low = (1 << d * self.bits) - 1

    def _mulmod(self, a: int, b: int) -> int:
        d, bits = self.d, self.bits
        x = a * b
        q = self._reduce(x >> d * bits, d - 1)
        q = self._reduce(q * self._m >> (d - 2) * bits, d - 1)
        return self._reduce((x + q * self._neg_low) & self._low, d)


def _irreducible(ring) -> bool:
    """Exact test: Ben-Or steps for small factors, then Rabin's test.

    g of degree d is irreducible iff gcd(g, z^(p^i) - z) = 1 for every
    i <= d/2 (Ben-Or).  Steps i <= _PREFIX_STEPS run as such.  Survivors of
    a longer range get Rabin's test: g divides z^(p^d) - z, and
    gcd(g, z^(p^(d/r)) - z) = 1 for each prime r | d with d/r past the prefix.
    """
    p, d = ring.p, ring.d
    k = min(_PREFIX_STEPS, d // 2)
    powers = []  # z^(p^i) mod g for the steps with p^i >= d
    for i in range(1, k + 1):
        n = p**i
        if n < d:
            # gcd(g, z^n - z) = gcd(z^n - z, g mod (z^n - z)), and modulo
            # z^n - z each z^e with e >= 1 is z^(1 + (e - 1) mod (n - 1)).
            folded = {}
            for e, c in ring.terms:
                e = (e - 1) % (n - 1) + 1 if e else 0
                folded[e] = (folded.get(e, 0) + c) % p
            if not ring.coprime(ring.poly({n: 1, 1: p - 1}), ring.poly(folded)):
                return False
        else:
            powers.append(ring.frob(powers[-1] if powers else ring.poly({n // p: 1})))
    if not ring.all_coprime(powers):
        return False
    if k == d // 2:
        return True
    h = powers[-1] if powers else ring.poly({p**k: 1})
    checks = {
        d // r for r in range(2, d + 1) if d % r == 0 and all(r % f for f in range(2, r))
    }
    saved = []
    for i in range(k + 1, d + 1):
        h = ring.frob(h)
        if i in checks:
            saved.append(h)
    return h == ring.poly({1: 1}) and ring.all_coprime(saved)


def is_irreducible(g: Poly, p: int) -> bool:
    """Exact irreducibility test for a monic g over F_p (see _irreducible)."""
    g = trim(g)
    d = len(g) - 1
    if d < 1:
        return False
    if g[-1] != 1:
        raise ValueError("irreducibility test expects a monic polynomial")
    if p == 2:
        return _irreducible(_F2Ring(_f2_pack(g), d))
    return _irreducible(_FpRing(g, p))


def find_irreducible_coeffs(
    p: int, d: int, scan_budget: int = IRREDUCIBLE_SCAN_BUDGET
) -> Poly:
    """First monic irreducible of degree d over F_p in counting order.

    Candidates are z^d + c_{d-1} z^{d-1} + ... + c_0 enumerated with the
    constant term varying fastest (the low part read as a base-p counter),
    so the result is the lexicographically-first coefficient tuple in that
    order.  Deterministic; raises BudgetExceeded after ``scan_budget``
    candidates.
    """
    if d < 1:
        raise ValueError("degree must be at least 1")
    if p == 2:
        for k in range(min(scan_budget, 1 << d)):
            g = (1 << d) | k
            if _irreducible(_F2Ring(g, d)):
                return tuple((g >> i) & 1 for i in range(d + 1))
        raise BudgetExceeded(
            f"no irreducible of degree {d} over F_2 within {scan_budget} candidates"
        )
    total = p**d
    for k in range(min(scan_budget, total)):
        low = []
        kk = k
        for _ in range(d):
            low.append(kk % p)
            kk //= p
        g = tuple(low) + (1,)
        if _irreducible(_FpRing(g, p)):
            return g
    raise BudgetExceeded(
        f"no irreducible of degree {d} over F_{p} within {scan_budget} candidates"
    )
