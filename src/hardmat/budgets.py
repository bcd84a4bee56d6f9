"""Enumeration and size caps shared across the toolkit.

Every brute-force surface (subset enumeration, prime search, candidate
polynomial scan, ...) is guarded by an explicit budget.  Hitting a budget
raises :class:`BudgetExceeded`, which callers must treat as "unknown", never
as a negative answer.  :func:`charge` is the one place that compares work
with a cap and raises; the message is formatted only on refusal, with no
limit on the digits of its integers.  Every cap is a module constant; the
only per-call override is the ``budget`` argument (``--budget`` on the
command line) of the four surfaces that take one, which replaces the
enumeration budget for that call.

The module also holds the dependency-free helpers every layer needs:
:func:`is_prime`, exact up to :data:`PRIMALITY_BOUND`; :func:`comb_within`,
a binomial that stops once it passes a cap, and :func:`charge_comb`, which
charges it; :func:`_decimal` and :func:`_digits_to_int`, an int to and
from decimal text of any length; and :class:`Record`, the frozen
value-record base of the toolkit's result types.  Keeping them here lets a
layer avoid importing ``fields`` or ``dataclasses`` for them.  ``is_prime``
is public as ``hardmat.fields.is_prime``, which re-exports it.
"""

from __future__ import annotations

from functools import lru_cache
from operator import attrgetter

__all__ = [
    "BudgetExceeded",
    "DEFAULT_ENUMERATION_BUDGET",
    "SIDON_PRIME_BUDGET",
    "SIDON_SUM_CAP",
    "SIDON_SCAN_SUM_CAP",
    "IRREDUCIBLE_SCAN_BUDGET",
    "EXTENSION_BITS_CAP",
    "EXTENSION_SLOT_BITS_CAP",
    "GAMMA_RANK_CAP",
    "SIGMA_VALUE_CAP",
    "TRIVIAL_HARD_CAP",
    "PSD_MAX_N",
    "PRIMALITY_BOUND",
    "MAX_EXPONENT_BITS",
    "CERTIFY_BITS_CAP",
    "VERIFY_WORK_CAP",
    "charge",
    "charge_comb",
    "comb_within",
    "enumeration_budget",
    "Record",
    "FrozenRecordError",
]


class BudgetExceeded(Exception):
    """An enumeration or size cap was hit; the question was not decided."""


#: Cap on generic subset / kernel enumerations (pi_t subsets, q^dim kernel
#: vectors, search nodes, dense entries, printed digits).  A call's
#: ``budget`` argument replaces it for that call.
DEFAULT_ENUMERATION_BUDGET = 1_000_000

#: Largest prime tried when searching for a Sidon-set modulus.
SIDON_PRIME_BUDGET = 1_000_000

#: Cap on the number of t-subset sums materialised by the Sidon verifier.
SIDON_SUM_CAP = 5_000_000

#: Cap on the t-subset sums the Sidon prime scan forms across the primes it
#: rejects.  A sum takes ~0.3 us (py3.11, one core), so the cap is ~9 s;
#: (n, t) = (6, 3) forms 22,475,310 and (7, 3) is refused.
SIDON_SCAN_SUM_CAP = 30_000_000

#: Cap on candidate polynomials scanned by the irreducible search.
IRREDUCIBLE_SCAN_BUDGET = 1_000_000

#: Cap on an extension F_p[z]/(g), in bits per element: deg g residues of
#: bit_length(p - 1) bits.  Charged before the irreducible scan and before a
#: modulus read from outside is re-checked.  The largest extension the desk
#: checks scan, (p, deg g) = (2, 10241), takes ~35 s (py3.11, one core).
EXTENSION_BITS_CAP = 10_241

#: Cap on an extension F_p[z]/(g) for odd p, in packed bits per element:
#: deg g slots of the width ``fppoly`` packs a coefficient into (16 bits for
#: F_3 up to degree 8191).  Charged after EXTENSION_BITS_CAP, since an odd-p
#: ring costs far more per bit than F_2's.  The desk checks' (3, 1281)
#: sits at the cap; re-checking an irreducible modulus there takes ~0.6 s
#: and (3, 4901), 78,416 bits, is refused (py3.11, one core).  A scan's
#: time also grows with the index of its first irreducible: (13, 521) at
#: index 4410 takes 22-26 s.
EXTENSION_SLOT_BITS_CAP = 20_496

#: Cap on the cell updates of the rank gamma_t takes over an extension
#: field, at most deg g * m * (2s - m - 1) / 2 for s subsets and
#: m = min(s, deg g).  An update takes 33-44 ns (py3.11, one core), so the
#: cap is ~10 s; 630 subsets over deg g = 1281 (253,810,935) run in ~9 s.
GAMMA_RANK_CAP = 260_000_000

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


#: Cap on the steps of multiplying out a circuit's layers to verify it,
#: summed over the products and charged before each: sum_k nnz(column k of
#: the left factor) * nnz(row k of the right) multiply-adds, plus one visit
#: per entry of the left factor and of the result, all weighted by
#: ``circuits._madd_steps`` over an extension.  A step takes 0.15-0.4 us over
#: F_p, the integers and integer-valued rationals (py3.11, one core), so at
#: most ~10 s at the cap; rationals with denominators and big integers cost
#: far more per step.
VERIFY_WORK_CAP = 25_000_000


def enumeration_budget(override: int | None = None) -> int:
    """The enumeration budget: ``override`` if given, else the default.

    The default is read at call time, so lowering the module constant
    lowers every budget not overridden.
    """
    if override is None:
        return DEFAULT_ENUMERATION_BUDGET
    if override < 1:
        raise ValueError("budget must be positive")
    return override


# Integer text is converted in blocks of at most this many digits, split at
# 10^k for k = _SPLIT_DIGITS * 2^j.  CPython (from 3.10.7 on) never checks
# text this short against its int/str digit limit, whatever the limit is set
# to (sys.int_info.str_digits_check_threshold), so no conversion depends on
# or changes that process-wide setting; and the split is faster than
# CPython 3.11's quadratic str() and int() on long text.
_SPLIT_DIGITS = 640


@lru_cache(maxsize=None)  # one key per split level j
def _pow10(k: int) -> int:
    return 10**k


def _decimal(x: int) -> str:
    """``str(x)`` for an int of any size."""
    if x < 0:
        return "-" + _decimal(-x)
    k = _SPLIT_DIGITS
    if x < _pow10(k):
        return str(x)
    while x >= _pow10(2 * k):
        k *= 2
    high, low = divmod(x, _pow10(k))
    return _decimal(high) + _decimal(low).zfill(k)


def _digits_to_int(body: str) -> int:
    """``int(body)`` for an ASCII digit string of any length."""
    n = len(body)
    if n <= _SPLIT_DIGITS:
        return int(body)
    k = _SPLIT_DIGITS
    while 2 * k < n:
        k *= 2
    return _digits_to_int(body[:-k]) * _pow10(k) + _digits_to_int(body[-k:])


def charge(used: int, message: str, cap: int | None = None, **fields) -> None:
    """Refuse work past a cap: raise BudgetExceeded when ``used > cap``.

    ``cap=None`` means the enumeration budget; an explicit cap is compared
    as given.  ``message`` is a ``str.format`` template over ``used``,
    ``cap`` and ``fields``, formatted only on refusal; its integers print
    in full through :func:`_decimal`, however many digits they have.
    """
    if cap is None:
        cap = enumeration_budget()
    if used > cap:
        values = dict(fields, used=used, cap=cap)
        for name, value in values.items():
            if isinstance(value, int):
                values[name] = _decimal(value)
        raise BudgetExceeded(message.format_map(values))


def charge_comb(n: int, k: int, message: str, cap: int) -> int:
    """Charge comb(n, k) against ``cap`` and return it; a binomial known to
    pass the cap before its last factor prints ``{used}`` as ``the``."""
    count = comb_within(n, k, cap)
    if count is None:
        charge(cap + 1, message.replace("{used}", "the"), cap)
    charge(count, message, cap)
    return count


def comb_within(n: int, k: int, cap: int) -> int | None:
    """comb(n, k) for 0 <= k <= n, or None once it is known to pass ``cap``.

    The product runs term by term over i <= min(k, n - k), where comb(n, i)
    grows with i; a partial product past the cap before the last term
    returns None, so a huge binomial is never formed.  A result past the
    cap at the last term is returned in full.
    """
    k = min(k, n - k)
    count = 1
    for i in range(1, k + 1):
        count = count * (n + 1 - i) // i
        if count > cap and i < k:
            return None
    return count


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
    def _from_checked(cls, *values):
        """A record of all its field values, checked already: no __post_init__."""
        self = object.__new__(cls)
        for name, value in zip(cls._fields, values):
            object.__setattr__(self, name, value)
        return self

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
