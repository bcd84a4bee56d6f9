"""Deterministic t-wise Sidon grids from powers of two modulo a prime.

The powers 1, 2, 4, ..., 2^(n^2 - 1) have pairwise-distinct subset sums.
Reducing them modulo a prime p keeps that property for t-element subsets as
long as p avoids every difference of two t-subset sums; the smallest such p
is found by direct search, checking each candidate with the brute-force
verifier.  Elements are laid out on an n x n grid via
e[i][j] = 2^((i-1)n + (j-1)) mod p.
"""

from __future__ import annotations

from itertools import combinations

from .budgets import (
    SIDON_PRIME_BUDGET,
    SIDON_SCAN_SUM_CAP,
    SIDON_SUM_CAP,
    Record,
    _decimal,
    charge,
    charge_comb,
    is_prime,
)

__all__ = ["SidonSet", "construct_sidon", "verify_tsum_distinct"]


class SidonSet(Record):
    n: int
    t: int
    p: int
    grid: tuple[tuple[int, ...], ...]

    def elements(self) -> tuple[int, ...]:
        """Grid entries flattened row-major."""
        return tuple(x for row in self.grid for x in row)


def _charge_sums(size: int, t: int) -> None:
    """Refuse more than SIDON_SUM_CAP sums of t of size values."""
    charge_comb(size, t, "{used} subset sums exceed the cap of {cap}", SIDON_SUM_CAP)


def _tsums_distinct(values, t: int, seen: set) -> bool:
    """All sums of t elements at distinct positions are pairwise distinct.

    Sums are compared as plain integers (no modulus), collected in ``seen``;
    the walk stops at the first sum already seen, so ``len(seen) + 1`` sums
    were formed when it returns False.
    """
    for c in combinations(values, t):
        total = sum(c)
        if total in seen:
            return False
        seen.add(total)
    return True


def verify_tsum_distinct(s, t: int) -> bool:
    """Brute-force check of the defining property; True iff no collision."""
    values = s.elements() if isinstance(s, SidonSet) else tuple(s)
    if t < 1:
        raise ValueError("t must be at least 1")
    if t > len(values):
        raise ValueError(f"t={t} exceeds the set size {len(values)}")
    _charge_sums(len(values), t)
    return _tsums_distinct(values, t, set())


def construct_sidon(n: int, t: int) -> SidonSet:
    """Smallest-prime t-wise Sidon grid of side n.

    Scans primes in increasing order starting just above n^2 (fewer residues
    cannot be pairwise distinct) and returns the first p for which the n^2
    residues 2^i mod p are distinct and all their t-subset sums are distinct.
    The sums formed at rejected primes are charged against
    SIDON_SCAN_SUM_CAP, which bounds the scan's time.  Fully deterministic:
    equal inputs give identical p and grid.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    size = n * n
    if t < 1 or t > size:
        raise ValueError(f"t must lie in [1, {_decimal(size)}], got {t}")
    _charge_sums(size, t)
    message = (
        "the prime scan for n={n}, t={t} formed {used} subset sums up to p={p}, "
        "past the cap of {cap}"
    )
    formed = 0
    p = size + 1
    while p <= SIDON_PRIME_BUDGET:
        if is_prime(p):
            residues = [pow(2, i, p) for i in range(size)]
            seen = set()
            if len(set(residues)) == size and _tsums_distinct(residues, t, seen):
                grid = tuple(
                    tuple(residues[(i - 1) * n + (j - 1)] for j in range(1, n + 1))
                    for i in range(1, n + 1)
                )
                return SidonSet(n, t, p, grid)
            formed += len(seen) + bool(seen)  # the sums kept, then the repeat
            charge(formed, message, SIDON_SCAN_SUM_CAP, n=n, t=t, p=p)
        p += 1
    message = "no admissible prime up to the budget {cap} for n={n}, t={t}"
    charge(p, message, SIDON_PRIME_BUDGET, n=n, t=t)  # p is past the budget here
