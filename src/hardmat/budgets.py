"""Enumeration and size caps shared across the toolkit.

Every brute-force surface (subset enumeration, prime search, candidate
polynomial scan, ...) is guarded by an explicit budget.  Hitting a budget
raises :class:`BudgetExceeded`, which callers must treat as "unknown", never
as a negative answer.  :func:`charge` is the one place that compares work
with a cap and raises; the message is formatted only on refusal.  The
generic enumeration cap can be overridden with the ``HARDMAT_BUDGET``
environment variable.

The module also holds the two dependency-free helpers every layer needs:
:func:`is_prime`, exact up to :data:`PRIMALITY_BOUND`, and :class:`Record`,
the frozen value-record base of the toolkit's result types.  Keeping them here
lets a layer avoid importing ``fields`` or ``dataclasses`` for them.
``is_prime`` is public as ``hardmat.fields.is_prime``, which re-exports it.
"""

from __future__ import annotations

import os
from operator import attrgetter

__all__ = [
    "BudgetExceeded",
    "DEFAULT_ENUMERATION_BUDGET",
    "SIDON_PRIME_BUDGET",
    "SIDON_SUM_CAP",
    "IRREDUCIBLE_SCAN_BUDGET",
    "SIGMA_VALUE_CAP",
    "TRIVIAL_HARD_CAP",
    "PSD_MAX_N",
    "PRIMALITY_BOUND",
    "MAX_EXPONENT_BITS",
    "CERTIFY_BITS_CAP",
    "charge",
    "enumeration_budget",
    "Record",
    "FrozenRecordError",
]


class BudgetExceeded(Exception):
    """An enumeration or size cap was hit; the question was not decided."""


#: Cap on generic subset / kernel enumerations (pi_t subsets, q^dim kernel
#: vectors, search nodes).  Overridable via HARDMAT_BUDGET.
DEFAULT_ENUMERATION_BUDGET = 1_000_000

#: Largest prime tried when searching for a Sidon-set modulus.
SIDON_PRIME_BUDGET = 1_000_000

#: Cap on the number of t-subset sums materialised by the Sidon verifier.
SIDON_SUM_CAP = 5_000_000

#: Cap on candidate polynomials scanned by the irreducible search.
IRREDUCIBLE_SCAN_BUDGET = 1_000_000

#: Max number of distinct t-wise products fed to the subset-sum enumeration
#: (2**cap subsets are walked).
SIGMA_VALUE_CAP = 22

#: Side cap for the doubly-exponential construction; entries of the n-th
#: instance have 2**((n+1)(n-1)+n) bits.
TRIVIAL_HARD_CAP = 4

#: Largest side for which the exact PSD instance is built.
PSD_MAX_N = 64

#: psi_13 - 1: strong probable-prime tests to the first 13 prime bases are
#: exact below psi_13 (Sorenson-Webster 2015); larger inputs are refused
#: rather than guessed.
PRIMALITY_BOUND = 3_317_044_064_679_887_385_961_981 - 1

#: Cap on a single exponent (in bits) for integer hard-matrix entries.
MAX_EXPONENT_BITS = 10**7

#: Cap on the bits of n^2 * (d*t)^d in an exact s* certificate; at the cap
#: one certificate takes at most ~0.2 s (py3.11, one core).
CERTIFY_BITS_CAP = 4096


def enumeration_budget(override: int | None = None) -> int:
    """Resolve the generic enumeration budget.

    Priority: explicit ``override`` argument, then the HARDMAT_BUDGET
    environment variable, then the built-in default.
    """
    if override is not None:
        if override < 1:
            raise ValueError("budget must be positive")
        return override
    raw = os.environ.get("HARDMAT_BUDGET")
    if raw is None:
        return DEFAULT_ENUMERATION_BUDGET
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"HARDMAT_BUDGET is not an integer: {raw!r}") from exc
    if value < 1:
        raise ValueError(f"HARDMAT_BUDGET must be positive, got {value}")
    return value


def charge(used: int, message: str, cap: int | None = None, **fields) -> None:
    """Refuse work past a cap: raise BudgetExceeded when ``used > cap``.

    ``cap=None`` means the enumeration budget; an explicit cap is compared
    as given.  ``message`` is a ``str.format`` template over ``used``,
    ``cap`` and ``fields``, formatted only on refusal.
    """
    if cap is None:
        cap = enumeration_budget()
    if used > cap:
        raise BudgetExceeded(message.format(used=used, cap=cap, **fields))


# The first 13 primes: trial divisors and Miller-Rabin bases of is_prime.
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic primality: trial division by the first 13 primes, then
    strong probable-prime tests to those 13 bases.

    Exact for every n <= PRIMALITY_BOUND.  Larger inputs, where the test is
    no longer proven, are rejected with BudgetExceeded rather than answered
    probabilistically.
    """
    if n < 0:
        raise ValueError("primality is defined for nonnegative integers")
    charge(n, "{used} exceeds the primality bound {cap}", PRIMALITY_BOUND)
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    if n < 43 * 43:  # no prime factor up to 41
        return True
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s, d odd
    d = (n - 1) >> s
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FrozenRecordError(AttributeError):
    """A field of a :class:`Record` was assigned or deleted."""


class _RecordType(type):
    """Makes a class body's annotated names the record's ``__slots__``.

    An annotated name given a value declares that field's default, as in a
    dataclass.  The values move to ``_defaults``: a slot and a class
    attribute cannot share a name.  ``_values(rec)`` returns the field tuple
    (records have at least two fields).  Modules defining records use
    ``from __future__ import annotations``, which keeps ``__annotations__``
    a plain dict in the class body on every Python version.
    """

    def __new__(mcs, name, bases, ns):
        fields = tuple(ns.get("__annotations__", ()))
        ns["_defaults"] = {f: ns.pop(f) for f in fields if f in ns}
        ns["__slots__"] = ns["_fields"] = fields
        if fields:
            ns["_values"] = attrgetter(*fields)
        return super().__new__(mcs, name, bases, ns)


class Record(metaclass=_RecordType):
    """Immutable value record: the toolkit's stand-in for a frozen dataclass.

    Fields are the annotated names of a subclass body, in order.  Instances
    are built from positional or keyword arguments, then ``__post_init__``,
    if the class defines one, validates them (and may normalise a field with
    ``object.__setattr__``).  A record equals only a record of the same class
    with equal fields, hashes as the tuple of its fields, prints as
    ``Name(field=value, ...)`` and raises FrozenRecordError on assignment or
    deletion.  Subclassing a record subclass is not supported.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        cls = type(self)
        if kwargs or len(args) != len(cls._fields):
            args = cls._complete(args, kwargs)
        for name, value in zip(cls._fields, args):
            object.__setattr__(self, name, value)
        if hasattr(cls, "__post_init__"):
            self.__post_init__()

    @classmethod
    def _complete(cls, args: tuple, kwargs: dict) -> tuple:
        """Every field's value, in order, from a call using keywords or defaults."""
        if len(args) > len(cls._fields):
            raise TypeError(f"{cls.__name__}() takes {len(cls._fields)} fields")
        rest = []
        for name in cls._fields[len(args):]:
            if name in kwargs:
                rest.append(kwargs.pop(name))
            elif name in cls._defaults:
                rest.append(cls._defaults[name])
            else:
                raise TypeError(f"{cls.__name__}() is missing the field {name!r}")
        if kwargs:
            raise TypeError(f"{cls.__name__}() got unknown or repeated fields {sorted(kwargs)}")
        return args + tuple(rest)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise FrozenRecordError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenRecordError(f"cannot delete field {name!r}")

    def __reduce__(self):  # pickle and copy rebuild through __init__
        return type(self), self._values(self)
