"""Exact coefficient domains and their arithmetic.

Four kinds of domain are supported, identified by a :class:`FieldDescriptor`:

* ``prime``        -- F_p; elements are int residues in [0, p).
* ``extension``    -- F_p[z]/(g(z)) for an explicit monic irreducible g;
                      elements are tuples of residues, low-degree-first,
                      of length exactly deg g.
* ``rational``     -- exact rationals; elements are ints or Fractions
                      (Fractions are always in lowest terms, denominator > 0).
* ``integer-ring`` -- arbitrary-precision integers (no division).

Elements are plain immutable Python values; :func:`ops_for` returns the
arithmetic for a descriptor.  All operations are pure and exact.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import log10

from . import fppoly
from .budgets import (
    IRREDUCIBLE_SCAN_BUDGET,
    MAX_EXPONENT_BITS,
    PRIMALITY_BOUND,
    BudgetExceeded,
)

__all__ = [
    "KIND_PRIME",
    "KIND_EXTENSION",
    "KIND_RATIONAL",
    "KIND_INTEGER",
    "FieldDescriptor",
    "prime_field",
    "extension_field",
    "RATIONAL_FIELD",
    "INTEGER_RING",
    "is_prime",
    "find_irreducible",
    "ops_for",
    "field_arith",
    "extension_generator",
    "power",
    "encode_element",
    "decode_element",
    "descriptor_to_json",
    "descriptor_from_json",
]

KIND_PRIME = "prime"
KIND_EXTENSION = "extension"
KIND_RATIONAL = "rational"
KIND_INTEGER = "integer-ring"

_KINDS = (KIND_PRIME, KIND_EXTENSION, KIND_RATIONAL, KIND_INTEGER)


def is_prime(n: int, bound: int = PRIMALITY_BOUND) -> bool:
    """Deterministic primality by trial division.

    Inputs above ``bound`` are rejected with BudgetExceeded rather than
    answered probabilistically.
    """
    if n < 0:
        raise ValueError("primality is defined for nonnegative integers")
    if n > bound:
        raise BudgetExceeded(f"{n} exceeds the trial-division bound {bound}")
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class FieldDescriptor:
    """Names a coefficient domain; hashable, so ops are cached per descriptor."""

    kind: str
    p: int | None = None
    modulus: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown field kind {self.kind!r}")
        if self.kind in (KIND_RATIONAL, KIND_INTEGER):
            if self.p is not None or self.modulus is not None:
                raise ValueError(f"{self.kind} fields take no parameters")
            return
        if self.p is None or not is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")
        if self.kind == KIND_PRIME:
            if self.modulus is not None:
                raise ValueError("prime fields take no modulus")
            return
        mod = self.modulus
        if mod is not None and not isinstance(mod, tuple):
            mod = tuple(mod)
            object.__setattr__(self, "modulus", mod)
        if mod is None or len(mod) < 2:
            raise ValueError("extension modulus must have degree >= 1")
        if any(not isinstance(c, int) or isinstance(c, bool) for c in mod):
            raise ValueError("modulus coefficients must be integers")
        if any(not 0 <= c < self.p for c in mod):
            raise ValueError(f"modulus coefficients must be residues mod {self.p}")
        if mod[-1] != 1:
            raise ValueError("modulus must be monic")

    @property
    def degree(self) -> int | None:
        return None if self.modulus is None else len(self.modulus) - 1

    def modulus_is_irreducible(self) -> bool:
        """Check the extension invariant (g irreducible over F_p)."""
        if self.kind != KIND_EXTENSION:
            raise ValueError("only extension fields carry a modulus")
        return fppoly.is_irreducible(self.modulus, self.p)

    def __repr__(self) -> str:  # keep reprs short for big moduli
        if self.kind == KIND_PRIME:
            return f"F_{self.p}"
        if self.kind == KIND_EXTENSION:
            return f"F_{self.p}[z]/(deg {self.degree})"
        return self.kind


def prime_field(p: int) -> FieldDescriptor:
    return FieldDescriptor(KIND_PRIME, p)


def extension_field(p: int, modulus) -> FieldDescriptor:
    return FieldDescriptor(KIND_EXTENSION, p, tuple(modulus))


RATIONAL_FIELD = FieldDescriptor(KIND_RATIONAL)
INTEGER_RING = FieldDescriptor(KIND_INTEGER)


def find_irreducible(
    p: int, d: int, scan_budget: int = IRREDUCIBLE_SCAN_BUDGET
) -> tuple[int, ...]:
    """Deterministic monic irreducible of degree d over F_p.

    Enumerates monic candidates with the constant term varying fastest and
    returns the first that passes the exact irreducibility test: Ben-Or
    gcd steps for small factors, then Rabin's test on the survivors; see
    fppoly.find_irreducible_coeffs.  Coefficients are low-degree-first.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    return fppoly.find_irreducible_coeffs(p, d, scan_budget)


# ---------------------------------------------------------------------------
# Arithmetic per descriptor.


class _PrimeOps:
    has_division = True

    def __init__(self, field: FieldDescriptor):
        self.field = field
        self.p = field.p
        self.zero = 0
        self.one = 1 % field.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return (-a) % self.p

    def div(self, a, b):
        if b % self.p == 0:
            raise ZeroDivisionError("division by zero in prime field")
        return a * pow(b, self.p - 2, self.p) % self.p

    def is_zero(self, a) -> bool:
        return a == 0

    def from_int(self, k: int):
        return k % self.p

    def conforms(self, x) -> bool:
        return isinstance(x, int) and not isinstance(x, bool) and 0 <= x < self.p


class _ExtensionOps:
    has_division = True

    def __init__(self, field: FieldDescriptor):
        self.field = field
        self.p = field.p
        self.modulus = field.modulus
        self.degree = field.degree
        self.zero = (0,) * self.degree
        self.one = self._pad((1 % self.p,))

    def _pad(self, t: tuple) -> tuple:
        return t + (0,) * (self.degree - len(t))

    def add(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def sub(self, a, b):
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def neg(self, a):
        p = self.p
        return tuple((-x) % p for x in a)

    def mul(self, a, b):
        prod = fppoly.mul(a, b, self.p)
        return self._pad(fppoly.mod_monic(prod, self.modulus, self.p))

    def div(self, a, b):
        inv = fppoly.inverse_mod(b, self.modulus, self.p)
        return self.mul(a, inv)

    def is_zero(self, a) -> bool:
        return not any(a)

    def from_int(self, k: int):
        return self._pad((k % self.p,))

    def conforms(self, x) -> bool:
        return (
            isinstance(x, tuple)
            and len(x) == self.degree
            and all(
                isinstance(c, int) and not isinstance(c, bool) and 0 <= c < self.p
                for c in x
            )
        )


class _RationalOps:
    has_division = True

    def __init__(self, field: FieldDescriptor):
        self.field = field
        self.zero = 0
        self.one = 1

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero")
        return Fraction(a, 1) / b

    def is_zero(self, a) -> bool:
        return a == 0

    def from_int(self, k: int):
        return k

    def conforms(self, x) -> bool:
        return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


class _IntegerOps(_RationalOps):
    has_division = False

    def div(self, a, b):
        raise ValueError("the integer ring has no division; lift to rationals")

    def conforms(self, x) -> bool:
        return isinstance(x, int) and not isinstance(x, bool)


_OPS_CLASSES = {
    KIND_PRIME: _PrimeOps,
    KIND_EXTENSION: _ExtensionOps,
    KIND_RATIONAL: _RationalOps,
    KIND_INTEGER: _IntegerOps,
}


@lru_cache(maxsize=None)
def ops_for(field: FieldDescriptor):
    """Arithmetic bundle for a descriptor (cached; descriptors are frozen)."""
    return _OPS_CLASSES[field.kind](field)


_ARITH_OPS = ("add", "sub", "mul", "div")


def field_arith(a, b, op: str, field: FieldDescriptor):
    """Binary field operation with explicit conformance checks."""
    if op not in _ARITH_OPS:
        raise ValueError(f"unknown operation {op!r}")
    ops = ops_for(field)
    if not ops.conforms(a) or not ops.conforms(b):
        raise ValueError(f"operands do not conform to {field!r}")
    return getattr(ops, op)(a, b)


def extension_generator(field: FieldDescriptor) -> tuple:
    """The residue class of z, i.e. the canonical root of the modulus."""
    if field.kind != KIND_EXTENSION:
        raise ValueError("generator is defined for extension fields only")
    ops = ops_for(field)
    return ops._pad(fppoly.mod_monic((0, 1), field.modulus, field.p))


def power(field: FieldDescriptor, x, e: int):
    """x**e by square and multiply (e >= 0)."""
    if e < 0:
        raise ValueError("negative exponents are not supported")
    ops = ops_for(field)
    out = ops.one
    base = x
    while e:
        if e & 1:
            out = ops.mul(out, base)
        e >>= 1
        if e:
            base = ops.mul(base, base)
    return out


# ---------------------------------------------------------------------------
# Wire encodings.  Prime residues, integers: decimal strings.  Extension
# elements: arrays of residue strings, low-degree-first, length == degree.
# Rationals: "num/den" with den > 0 and gcd(|num|, den) = 1.


# Digits of 2^MAX_EXPONENT_BITS, the largest integer-ring entry built.
_MAX_INT_DIGITS = int(MAX_EXPONENT_BITS * log10(2)) + 1


@contextmanager
def _no_int_digit_limit():
    """Lift Python's int/str digit limit (4300; from 3.10.7 on) in a block."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def _parse_decimal(raw: str) -> int:
    if not isinstance(raw, str):
        raise ValueError(f"expected a decimal string, got {type(raw).__name__}")
    text = raw.strip()
    neg = text.startswith("-")
    body = text[1:] if neg else text
    if not (body.isascii() and body.isdigit()):
        raise ValueError(f"not a decimal integer: {raw!r}")
    return -int(body) if neg else int(body)


def encode_element(field: FieldDescriptor, x):
    ops = ops_for(field)
    if not ops.conforms(x):
        raise ValueError(f"element does not conform to {field!r}")
    if field.kind == KIND_PRIME:
        return str(x)
    if field.kind == KIND_EXTENSION:
        return [str(c) for c in x]
    if field.kind == KIND_RATIONAL:
        f = Fraction(x)
        return f"{f.numerator}/{f.denominator}"
    with _no_int_digit_limit():
        return str(x)


def decode_element(field: FieldDescriptor, raw):
    """Parse and validate one element; raises ValueError on any defect."""
    if field.kind == KIND_PRIME:
        v = _parse_decimal(raw)
        if not 0 <= v < field.p:
            raise ValueError(f"residue {v} out of range for F_{field.p}")
        return v
    if field.kind == KIND_EXTENSION:
        if not isinstance(raw, (list, tuple)):
            raise ValueError("extension element must be an array of residues")
        if len(raw) != field.degree:
            raise ValueError(
                f"extension element has {len(raw)} coefficients, expected {field.degree}"
            )
        coeffs = []
        for c in raw:
            v = _parse_decimal(c)
            if not 0 <= v < field.p:
                raise ValueError(f"coefficient {v} out of range for F_{field.p}")
            coeffs.append(v)
        return tuple(coeffs)
    if field.kind == KIND_RATIONAL:
        if not isinstance(raw, str):
            raise ValueError("rational element must be a string")
        num_text, _, den_text = raw.partition("/")
        num = _parse_decimal(num_text)
        if den_text:
            den = _parse_decimal(den_text)
            if den == 0:
                raise ValueError("rational with zero denominator")
        else:
            den = 1
        return Fraction(num, den)
    digits = len(raw.strip().removeprefix("-")) if isinstance(raw, str) else 0
    if digits > _MAX_INT_DIGITS:
        raise ValueError(f"integer has {digits} digits, more than 2^{MAX_EXPONENT_BITS} has")
    with _no_int_digit_limit():
        return _parse_decimal(raw)


def descriptor_to_json(field: FieldDescriptor) -> dict:
    if field.kind == KIND_PRIME:
        return {"kind": KIND_PRIME, "p": field.p}
    if field.kind == KIND_EXTENSION:
        return {
            "kind": KIND_EXTENSION,
            "p": field.p,
            "modulus": [str(c) for c in field.modulus],
            "degree": field.degree,
        }
    return {"kind": field.kind}


def descriptor_from_json(obj, check_irreducible: bool = True) -> FieldDescriptor:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError("field descriptor must be an object with a 'kind'")
    kind = obj["kind"]
    if kind in (KIND_RATIONAL, KIND_INTEGER):
        return FieldDescriptor(kind)
    if kind == KIND_PRIME:
        return prime_field(_as_int(obj.get("p"), "p"))
    if kind == KIND_EXTENSION:
        p = _as_int(obj.get("p"), "p")
        raw_mod = obj.get("modulus")
        if not isinstance(raw_mod, (list, tuple)) or len(raw_mod) < 2:
            raise ValueError("extension modulus must be an array of residues")
        modulus = tuple(_parse_decimal(c) for c in raw_mod)
        field = extension_field(p, modulus)
        if "degree" in obj and _as_int(obj["degree"], "degree") != field.degree:
            raise ValueError("declared degree disagrees with the modulus")
        if check_irreducible and not field.modulus_is_irreducible():
            raise ValueError("extension modulus is not irreducible")
        return field
    raise ValueError(f"unknown field kind {kind!r}")


def _as_int(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        if isinstance(value, str):
            return _parse_decimal(value)
        raise ValueError(f"{name} must be an integer")
    return value
