"""Tuple polynomial arithmetic over F_p kept as references for the tests.

`hardmat.fppoly` carried these residue-tuple routines until its packed-int
irreducibility test left them unused.  Polynomials are low-degree-first
tuples with no trailing zeros; the zero polynomial is the empty tuple.
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
