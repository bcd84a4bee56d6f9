"""Shoup-Smolensky complexity measures and the certified size bound.

Two exact measures of the "algebraic richness" of a matrix M over an
extension E of a base field F:

* gamma_t: dimension over F of the span of all t-wise products of entries of
  M taken at distinct positions (the family Pi_t).
* sigma_t: number of distinct values obtained by summing distinct elements of
  Pi_t (integer matrices; nonempty sub-collections of the value set).

A matrix that factors into d sparse layers of total sparsity s has
log2 gamma_t at most d*t*(log2 e + log2(2s/(d*t))); matrices built from
Sidon exponent grids meet t*log2(n^2/t) from below.  Comparing the two
certifies a concrete size bound for every depth-d factorization; the
comparison is decided exactly in integers.  The printed bound quantities run
at 128-bit mantissa precision in mpmath.  mpmath, ``fields`` and ``matrices``
are imported only by the functions that need them, so certifying loads none
of them.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from .budgets import (
    CERTIFY_BITS_CAP,
    SIGMA_VALUE_CAP,
    Record,
    charge,
    enumeration_budget,
)

__all__ = [
    "ProductFamily",
    "BoundEvaluation",
    "pi_t",
    "gamma_t",
    "sigma_t",
    "bound_eval",
    "certify_depth_d",
    "WORKING_PRECISION",
]

#: Mantissa bits for all log-space bound arithmetic.
WORKING_PRECISION = 128


class ProductFamily(Record):
    """All t-wise products of matrix entries at distinct positions."""

    t: int
    values: tuple  # one product per t-subset, in combinations order
    subset_count: int

    def distinct_values(self) -> tuple:
        return tuple(dict.fromkeys(self.values))


class BoundEvaluation(Record):
    s: int
    d: int
    t: int
    n: int
    log2_gamma_upper: mpf
    log2_sigma_upper: mpf
    log2_gamma_lower: mpf


def pi_t(M: ExactMatrix, t: int, budget: int | None = None) -> ProductFamily:
    """Products over all t-subsets of entry positions (positions, not values)."""
    from .fields import ops_for

    positions = M.rows * M.cols
    if t < 1 or t > positions:
        raise ValueError(f"t must lie in [1, {positions}], got {t}")
    count = comb(positions, t)
    charge(count, "{used} subsets exceed the budget {cap}", enumeration_budget(budget))
    mul = ops_for(M.field).mul
    values = []
    for subset in combinations(M.entries, t):
        acc = subset[0]
        for x in subset[1:]:
            acc = mul(acc, x)
        values.append(acc)
    return ProductFamily(t, tuple(values), count)


def gamma_t(
    M: ExactMatrix, t: int, base: FieldDescriptor, budget: int | None = None
) -> int:
    """Dimension over ``base`` of the span of the t-wise product family.

    Extension-field entries are expanded into coefficient vectors over the
    prime base; entries already in the base field span at most a line.
    """
    # A module global, as a top-level import would bind it: span tracers
    # that patch module attributes find a private helper where it is bound.
    global _rank_rows
    from .fields import KIND_EXTENSION, KIND_INTEGER, KIND_PRIME, KIND_RATIONAL, ops_for
    from .matrices import _rank_rows

    fam = pi_t(M, t, budget=budget)
    distinct = fam.distinct_values()
    kind = M.field.kind
    if kind == KIND_EXTENSION:
        if base.kind != KIND_PRIME or base.p != M.field.p:
            raise ValueError(
                f"base {base!r} is not the prime subfield of {M.field!r}"
            )
        return _rank_rows(base, [list(v) for v in distinct])
    if kind in (KIND_PRIME, KIND_RATIONAL) and base == M.field:
        is_zero = ops_for(M.field).is_zero
        return 0 if all(is_zero(v) for v in distinct) else 1
    if kind == KIND_INTEGER and base.kind in (KIND_RATIONAL, KIND_INTEGER):
        return 0 if all(v == 0 for v in distinct) else 1
    raise ValueError(f"cannot take the span of {M.field!r} entries over {base!r}")


def sigma_t(M: ExactMatrix, t: int, budget: int | None = None) -> int:
    """Number of distinct sums of nonempty sub-collections of Pi_t values.

    The product family is deduplicated to a set of values first; the empty
    sum is not counted.
    """
    from .fields import KIND_INTEGER

    if M.field.kind != KIND_INTEGER:
        raise ValueError("sigma_t is defined for integer matrices")
    fam = pi_t(M, t, budget=budget)
    distinct = fam.distinct_values()
    message = "{used} distinct products exceed the subset-sum cap {cap}"
    charge(len(distinct), message, SIGMA_VALUE_CAP)
    sums: set = set()
    for v in distinct:
        sums |= {v} | {x + v for x in sums}
    return len(sums)


def _log2(x) -> mpf:
    from mpmath import mp

    return mp.log(x) / mp.log(2)


def _log2_gamma_upper(s: int, d: int, t: int) -> mpf:
    from mpmath import mp, mpf

    # log2 of (e^d * (2s/(dt))^d)^t
    return d * t * (1 / mp.log(2) + _log2(mpf(2 * s) / (d * t)))


def _log2_gamma_lower(t: int, n: int) -> mpf:
    from mpmath import mpf

    # log2 of (n^2/t)^t
    return t * _log2(mpf(n * n) / t)


def _check_bound_params(s: int, d: int, t: int, n: int):
    for name, v in (("s", s), ("d", d), ("t", t), ("n", n)):
        if isinstance(v, bool) or not isinstance(v, int) or v < 1:
            raise ValueError(f"{name} must be a positive integer")
    if s < d * t:
        raise ValueError(f"the bound requires s >= d*t, got s={s} < {d * t}")
    if 4 * t > n * n:
        raise ValueError(f"the bound requires t <= n^2/4, got t={t}, n={n}")


def bound_eval(s: int, d: int, t: int, n: int) -> BoundEvaluation:
    """Log-space evaluation of the three bound quantities at 128-bit precision.

    Returns log2 of: the sparse-product upper bound on gamma_t, the
    corresponding upper bound on sigma_t (valid for s <= d*n^2, which is
    enforced), and the Sidon-grid lower bound on gamma_t.
    """
    _check_bound_params(s, d, t, n)
    if s > d * n * n:
        raise ValueError(
            f"the sigma bound requires s <= d*n^2, got s={s} > {d * n * n}"
        )
    from mpmath import mp, mpf

    with mp.workprec(WORKING_PRECISION):
        g_up = _log2_gamma_upper(s, d, t)
        s_up = 2 * mpf(n) ** 3 * mp.power(2, g_up)
        g_low = _log2_gamma_lower(t, n)
    return BoundEvaluation(s, d, t, n, g_up, s_up, g_low)


def _degenerate(n: int, d: int, t: int) -> ValueError:
    return ValueError(
        f"degenerate parameters: no size >= {d * t} is certified for "
        f"n={n}, d={d}, t={t}"
    )


def certify_depth_d(n: int, d: int, t: int) -> int:
    """Largest s for which the sparse-product bound stays below the Sidon bound.

    Any depth-d factorization of a matrix with gamma_t >= (n^2/t)^t must have
    total sparsity strictly greater than the returned s*.  Found by doubling
    and bisection on an exact integer comparison, and re-checked at s* and
    s* + 1 before it is returned; raises if even s = d*t fails.  The exact
    comparisons grow with the bits of n^2 * (d*t)^d, so an upper bound on
    them is charged against CERTIFY_BITS_CAP before any power is formed.
    """
    _check_bound_params(d * t, d, t, n)
    lo = d * t
    # At s = d*t the comparison is (2e)^d * t < n^2; since e > 2 it fails
    # whenever 4^d >= n^2, which settles a large d before any large power.
    if 2 * d >= (n * n).bit_length():
        raise _degenerate(n, d, t)
    bits = 2 * n.bit_length() + d * (d * t).bit_length()
    message = "n^2 * (d*t)^d takes up to {used} bits, past the certify cap of {cap}"
    charge(bits, message, CERTIFY_BITS_CAP)
    rhs = n * n * (d * t) ** d
    k, num, den = 1, 2, 1  # num / den = sum_{j<=k} 1/j!

    def certified(s: int) -> bool:
        """Exactly whether d*t*log2(2e*s/(d*t)) < t*log2(n^2/t), which
        without logarithms reads (2e*s)^d * t < n^2 * (d*t)^d.

        e lies strictly between num/den and num/den + 2/(k+1)!; k grows only
        while the two ends disagree, and stays grown for later comparisons,
        which the search brings ever closer to the boundary.  The ends agree
        for some k because e^d is irrational, so the two sides never tie.
        """
        nonlocal k, num, den
        lhs = (2 * s) ** d * t  # times e^d
        while True:
            if num**d * lhs >= rhs * den**d:
                return False
            if (num * (k + 1) + 2) ** d * lhs <= rhs * (den * (k + 1)) ** d:
                return True
            k += 1
            num, den = num * k + 1, den * k

    if not certified(lo):
        raise _degenerate(n, d, t)
    hi = lo
    while certified(hi):
        hi *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if certified(mid):
            lo = mid
        else:
            hi = mid
    if not certified(lo) or certified(lo + 1):
        raise RuntimeError(f"s* = {lo} failed its exact re-check")
    return lo
