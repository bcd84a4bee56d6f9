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
comparison is decided exactly in integers.  The printed bound quantities are
evaluated at 60 significant digits in the standard library's ``decimal``.
``decimal``, ``fields`` and ``matrices`` are imported only by the functions
that need them, so certifying loads none of them.
"""

from __future__ import annotations

from itertools import combinations

from .budgets import (
    CERTIFY_BITS_CAP,
    GAMMA_RANK_CAP,
    SIGMA_VALUE_CAP,
    Record,
    _decimal,
    charge,
    charge_comb,
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
]


class ProductFamily(Record):
    """All t-wise products of matrix entries at distinct positions."""

    t: int
    values: tuple  # one product per t-subset, in combinations order
    subset_count: int

    def distinct_values(self) -> tuple:
        return tuple(dict.fromkeys(self.values))


class BoundEvaluation(Record):
    """The bound quantities at (s, d, t, n), each a ``Decimal`` of 40
    significant digits."""

    s: int
    d: int
    t: int
    n: int
    log2_gamma_upper: Decimal
    log2_sigma_upper: Decimal
    log2_gamma_lower: Decimal


def _subset_count(M: ExactMatrix, t: int, budget: int | None) -> int:
    """The number of t-subsets of entry positions, charged against the budget."""
    positions = M.rows * M.cols
    if t < 1 or t > positions:
        raise ValueError(f"t must lie in [1, {positions}], got {t}")
    message = "{used} subsets exceed the budget {cap}"
    return charge_comb(positions, t, message, enumeration_budget(budget))


def pi_t(M: ExactMatrix, t: int, budget: int | None = None) -> ProductFamily:
    """Products over all t-subsets of entry positions (positions, not values)."""
    from .fields import ops_for

    count = _subset_count(M, t, budget)
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
    Over an extension, the rank's cell updates are charged against
    GAMMA_RANK_CAP before any product is formed.
    """
    # A module global, as a top-level import would bind it: span tracers
    # that patch module attributes find a private helper where it is bound.
    global _rank_rows
    from .fields import KIND_EXTENSION, KIND_INTEGER, KIND_PRIME, KIND_RATIONAL
    from .matrices import _rank_rows

    kind = M.field.kind
    if kind == KIND_EXTENSION:
        subsets, degree = _subset_count(M, t, budget), M.field.degree
        if base.kind != KIND_PRIME or base.p != M.field.p:
            raise ValueError(
                f"base {base!r} is not the prime subfield of {M.field!r}"
            )
        # pivot k clears at most subsets - 1 - k rows of deg g cells
        m = min(subsets, degree)
        message = (
            "the rank of {subsets} products of {degree} coefficients takes up "
            "to {used} cell updates, past the cap of {cap}"
        )
        updates = degree * m * (2 * subsets - m - 1) // 2
        charge(updates, message, GAMMA_RANK_CAP, subsets=subsets, degree=degree)
    distinct = pi_t(M, t, budget=budget).distinct_values()
    if kind == KIND_EXTENSION:
        return _rank_rows(base, [list(v) for v in distinct])
    if (kind in (KIND_PRIME, KIND_RATIONAL) and base == M.field) or (
        kind == KIND_INTEGER and base.kind in (KIND_RATIONAL, KIND_INTEGER)
    ):
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


def _check_bound_params(s: int, d: int, t: int, n: int):
    for name, v in (("d", d), ("t", t), ("n", n), ("s", s)):  # s is d*t in certify
        if isinstance(v, bool) or not isinstance(v, int) or v < 1:
            raise ValueError(f"{name} must be a positive integer")
    if s < d * t:
        raise ValueError(
            f"the bound requires s >= d*t, got s={_decimal(s)} < {_decimal(d * t)}"
        )
    if 4 * t > n * n:
        raise ValueError(
            f"the bound requires t <= n^2/4, got t={_decimal(t)}, n={_decimal(n)}"
        )


def bound_eval(s: int, d: int, t: int, n: int) -> BoundEvaluation:
    """The three bound quantities, worked at 60 digits and each rounded once
    to 40 significant digits.

    Returns log2 of the sparse-product upper bound (e*2s/(d*t))^(d*t) on
    gamma_t; the corresponding upper bound 2*n^3 * (e*2s/(d*t))^(d*t) on
    log2 sigma_t (valid for s <= d*n^2, which is enforced); and log2 of the
    Sidon-grid lower bound (n^2/t)^t on gamma_t.  The integer digits of the
    sigma bound are found from its logarithm and charged against the
    enumeration budget before the bound itself is formed.
    """
    _check_bound_params(s, d, t, n)
    if s > d * n * n:
        raise ValueError(
            f"the sigma bound requires s <= d*n^2, got s={_decimal(s)} > "
            f"{_decimal(d * n * n)}"
        )
    from decimal import MAX_EMAX, MIN_EMIN, Context

    work = Context(prec=60, Emax=MAX_EMAX, Emin=MIN_EMIN)
    ln2 = work.ln(2)
    # natural logs of the gamma and sigma upper bounds
    ln_gamma_up = work.multiply(d * t, work.add(1, work.ln(work.divide(2 * s, d * t))))
    ln_sigma_up = work.add(work.ln(2 * n**3), ln_gamma_up)
    digits = int(work.divide(ln_sigma_up, work.ln(10))) + 1
    message = "log2_sigma_upper has {used} integer digits, past the budget of {cap}"
    charge(digits, message)
    quantities = (
        work.divide(ln_gamma_up, ln2),
        work.exp(ln_sigma_up),
        work.divide(work.multiply(t, work.ln(work.divide(n * n, t))), ln2),
    )
    rounded = Context(prec=40, Emax=MAX_EMAX, Emin=MIN_EMIN)
    return BoundEvaluation(s, d, t, n, *map(rounded.plus, quantities))


def _degenerate(n: int, d: int, t: int) -> ValueError:
    return ValueError(
        f"degenerate parameters: no size >= {_decimal(d * t)} is certified for "
        f"n={_decimal(n)}, d={_decimal(d)}, t={_decimal(t)}"
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
