"""Tuple polynomial arithmetic over F_p kept as references for the tests.

`hardmat.fppoly` carried these residue-tuple routines until its packed
rings took over the irreducibility test and extension-field products and
quotients.  Polynomials are low-degree-first tuples with no trailing zeros;
the zero polynomial is the empty tuple.
"""

from hardmat.fppoly import trim


def degree(a):
    """Degree of a; the zero polynomial has degree -1."""
    return len(a) - 1


def add(a, b, p):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % p
    return trim(out)


def neg(a, p):
    return tuple((-c) % p for c in a)


def sub(a, b, p):
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % p
    return trim(out)


def mul(a, b, p):
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


def mod_monic(a, g, p):
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


def inverse_mod(a, g, p):
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


def mod_general(a, b, p):
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


def gcd(a, b, p):
    """Monic greatest common divisor."""
    a, b = trim(a), trim(b)
    while b:
        a, b = b, mod_general(a, b, p)
    if a and a[-1] != 1:
        inv = pow(a[-1], p - 2, p)
        a = tuple(c * inv % p for c in a)
    return a


def eval_at(a, x, p):
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % p
    return acc
