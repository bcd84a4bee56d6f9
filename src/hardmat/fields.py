"""Exact coefficient domains and their arithmetic.

Four kinds of domain are supported, identified by a :class:`FieldDescriptor`:

* ``prime``        -- F_p; elements are int residues in [0, p).
* ``extension``    -- F_p[z]/(g(z)) for an explicit monic irreducible g;
                      elements are tuples of residues, low-degree-first,
                      of length exactly deg g.  Products and quotients
                      run on the packed ring of ``fppoly.ring``.
* ``rational``     -- exact rationals; elements are ints or Fractions
                      (Fractions are always in lowest terms, denominator > 0).
* ``integer-ring`` -- arbitrary-precision integers (no division).

Elements are plain immutable Python values; :func:`ops_for` returns the
arithmetic for a descriptor.  All operations are pure and exact.
"""

from __future__ import annotations

from functools import lru_cache
from math import log10

from .budgets import (
    EXTENSION_BITS_CAP,
    EXTENSION_SLOT_BITS_CAP,
    MAX_EXPONENT_BITS,
    Record,
    _decimal,
    _digits_to_int,
    charge,
    is_prime,
)

# ``fppoly`` is imported only where an extension field is used, so calls over
# prime fields, Q and Z do not load it; ``fractions`` only where a rational is
# made or checked.

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


class FieldDescriptor(Record):
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

    def __hash__(self):  # the Record hash, inlined: ops_for hashes per element
        return hash((self.kind, self.p, self.modulus))

    @property
    def degree(self) -> int | None:
        return None if self.modulus is None else len(self.modulus) - 1

    def __repr__(self) -> str:  # keep reprs short for big moduli
        if self.kind == KIND_PRIME:
            return f"F_{self.p}"
        if self.kind == KIND_EXTENSION:
            return f"F_{self.p}[z]/(deg {self.degree})"
        return self.kind


def prime_field(p: int) -> FieldDescriptor:
    return FieldDescriptor(KIND_PRIME, p, None)  # every field given: no default lookup


def extension_field(p: int, modulus) -> FieldDescriptor:
    return FieldDescriptor(KIND_EXTENSION, p, tuple(modulus))


RATIONAL_FIELD = FieldDescriptor(KIND_RATIONAL)
INTEGER_RING = FieldDescriptor(KIND_INTEGER)


def find_irreducible(p: int, d: int) -> tuple[int, ...]:
    """Deterministic monic irreducible of degree d over F_p.

    Enumerates monic candidates with the constant term varying fastest and
    returns the first that passes an exact irreducibility test: Capelli's
    criterion for the binomials z^d + c, else Ben-Or gcd steps, one gcd per
    block, up to a window fixed by (p, d), then Rabin's test on the
    survivors; see fppoly.find_irreducible_coeffs.  Coefficients are
    low-degree-first.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    _charge_extension(p, d)
    from . import fppoly

    return fppoly.find_irreducible_coeffs(p, d)


def _charge_extension(p: int, d: int) -> None:
    """Refuse F_p[z]/(g) with deg g = d past EXTENSION_BITS_CAP bits per
    element, then for odd p past EXTENSION_SLOT_BITS_CAP packed bits."""
    message = (
        "an extension of degree {d} over F_{p} takes {used} {unit} per element, "
        "past the cap of {cap}"
    )
    used = d * (p - 1).bit_length()
    charge(used, message, EXTENSION_BITS_CAP, d=d, p=p, unit="bits")
    if p > 2:  # deg g slots of the packed ring's slot width
        from .fppoly import _fp_layout

        used = d * 8 * _fp_layout(p, d)[0]
        charge(used, message, EXTENSION_SLOT_BITS_CAP, d=d, p=p, unit="packed bits")


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
    """Elements are residue tuples; mul and div pack them into the modulus's
    ring (built once per field, since ops_for is cached), work there, and
    unpack the result."""

    has_division = True

    def __init__(self, field: FieldDescriptor):
        from .fppoly import ring

        self.field = field
        self.p = field.p
        self.degree = field.degree
        self.zero = (0,) * self.degree
        self.one = self.from_int(1)
        self._ring = ring(field.modulus, field.p)

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
        r = self._ring
        return r.unpack(r.mulmod(r.pack(a), r.pack(b)))

    def div(self, a, b):
        if not any(b):
            raise ZeroDivisionError("inverse of zero in extension field")
        r = self._ring
        x = r.pack(b)
        # 1/b = b^(p^d - 2).  The base-p digits of p^d - 2 are p - 1 (d - 1
        # times), then p - 2; Horner over them takes one frob and one mulmod
        # per digit, after b^(p-2) by square and multiply.
        one = low = r.pack(self.one)
        for bit in bin(self.p - 2)[2:]:
            low = r.mulmod(low, low)
            if bit == "1":
                low = r.mulmod(low, x)
        high = r.mulmod(low, x)  # b^(p-1)
        inv = one
        for digit in [high] * (self.degree - 1) + [low]:
            inv = r.mulmod(r.frob(inv), digit)
        return r.unpack(r.mulmod(r.pack(a), inv))

    def is_zero(self, a) -> bool:
        return a is self.zero or not any(a)

    def from_int(self, k: int):
        return (k % self.p,) + (0,) * (self.degree - 1)

    def conforms(self, x) -> bool:
        return (
            isinstance(x, tuple)
            and len(x) == self.degree
            and all(
                isinstance(c, int) and not isinstance(c, bool) and 0 <= c < self.p
                for c in x
            )
        )


class _IntegerOps:
    has_division = False

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
        raise ValueError("the integer ring has no division; lift to rationals")

    def is_zero(self, a) -> bool:
        return a == 0

    def from_int(self, k: int):
        return k

    def conforms(self, x) -> bool:
        return isinstance(x, int) and not isinstance(x, bool)


class _RationalOps(_IntegerOps):
    has_division = True

    def __init__(self, field: FieldDescriptor):
        from fractions import Fraction

        super().__init__(field)
        self._fraction = Fraction

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero")
        return self._fraction(a, 1) / b

    def conforms(self, x) -> bool:
        return isinstance(x, (int, self._fraction)) and not isinstance(x, bool)


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
    r = ops._ring
    return r.unpack(r.mulmod(r.poly({1: 1}), r.pack(ops.one)))


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


# Decimal text outside the integer ring is refused past CPython's int/str
# digit limit (4300, from 3.10.7 on), on every Python version.
_TEXT_DIGITS = 4300


def _parse_decimal(raw: str, cap: int = _TEXT_DIGITS) -> int:
    if not isinstance(raw, str):
        raise ValueError(f"expected a decimal string, got {type(raw).__name__}")
    text = raw.strip()
    neg = text.startswith("-")
    body = text[1:] if neg else text
    if not (body.isascii() and body.isdigit()):
        raise ValueError(f"not a decimal integer: {raw!r}")
    if len(body) > cap:
        raise ValueError(f"integer has {len(body)} digits, more than the limit of {cap}")
    value = _digits_to_int(body)
    return -value if neg else value


def encode_element(field: FieldDescriptor, x):
    """Wire encoding of one element; raises ValueError if x does not conform.

    Integers, and the parts of a rational, print through
    ``budgets._decimal``, which is still quadratic in the digit count
    (py3.11, one core): 2^(2^20) (315,653 digits) takes ~1 s, a
    10^6-digit entry ~10 s and one near the 2^MAX_EXPONENT_BITS cap
    (3,010,300 digits) ~90 s.  Under the default Sidon prime budget an
    integer construction's entries stay below 2^(10^6) (301,030 digits).
    """
    if not ops_for(field).conforms(x):
        raise ValueError(f"element does not conform to {field!r}")
    return _encode(field, x)


def _encode(field: FieldDescriptor, x):
    """Wire encoding of one element already known to conform."""
    if field.kind == KIND_PRIME:
        return str(x)
    if field.kind == KIND_EXTENSION:
        return [str(c) for c in x]
    if field.kind == KIND_RATIONAL:  # an int or a Fraction in lowest terms
        return f"{_decimal(x.numerator)}/{_decimal(x.denominator)}"
    return _decimal(x)


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
        return ops_for(field)._fraction(num, den)
    digits = len(raw.strip().removeprefix("-")) if isinstance(raw, str) else 0
    if digits > _MAX_INT_DIGITS:
        raise ValueError(f"integer has {digits} digits, more than 2^{MAX_EXPONENT_BITS} has")
    return _parse_decimal(raw, _MAX_INT_DIGITS)


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


def descriptor_from_json(obj) -> FieldDescriptor:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError("field descriptor must be an object with a 'kind'")
    kind = obj["kind"]
    if kind not in (KIND_PRIME, KIND_EXTENSION):
        return _outside_field(kind)  # Q, Z, or refused as an unknown kind
    p = _as_int(obj.get("p"), "p")
    if kind == KIND_PRIME:
        return _outside_field(kind, p)
    raw_mod = obj.get("modulus")
    if not isinstance(raw_mod, (list, tuple)) or len(raw_mod) < 2:
        raise ValueError("extension modulus must be an array of residues")
    modulus = tuple(_parse_decimal(c) for c in raw_mod)
    return _outside_field(kind, p, modulus, obj.get("degree", _UNDECLARED))


_UNDECLARED = object()  # a JSON extension descriptor without a "degree"


def _outside_field(kind, p=None, modulus=None, degree=_UNDECLARED) -> FieldDescriptor:
    """The one gate for a field read from outside (matrix JSON, ``.slc``
    headers), given its kind and parsed integers: builds the descriptor,
    compares a declared JSON ``degree``, charges the extension's size, then
    re-checks that the modulus is irreducible.
    """
    field = FieldDescriptor(kind, p, modulus)
    if kind == KIND_EXTENSION:
        if degree is not _UNDECLARED and _as_int(degree, "degree") != field.degree:
            raise ValueError("declared degree disagrees with the modulus")
        _charge_extension(p, field.degree)
        from . import fppoly

        if not fppoly.is_irreducible(field.modulus, p):
            raise ValueError("extension modulus is not irreducible")
    return field


def _as_int(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        if isinstance(value, str):
            return _parse_decimal(value)
        raise ValueError(f"{name} must be an integer")
    return value
