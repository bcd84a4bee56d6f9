#!/usr/bin/env python3
"""Reproduce the toolkit's desk-scale facts in one run.

Walks through every construction and check at small parameters and prints
what it found: Sidon grids and their moduli, exact dimension measures of the
hard instances, certified size bounds, the PSD pair invariants, dual-code
kernel weights, and the amplification law pinned by the search oracle.
"""

import math
import time

from hardmat.circuits import (
    CircuitFactorization,
    min_depth2_sparsity,
    verify_factorization,
)
from hardmat.constructions import (
    amplify_direct_sum,
    hard_over_finite,
    hard_over_integers,
    trivial_hard,
)
from hardmat.fields import prime_field
from hardmat.hitting import (
    RSParams,
    build_hard_psd,
    min_kernel_weight,
    rs_generator,
)
from hardmat.matrices import from_rows, identity, kronecker, rank
from hardmat.sidon import construct_sidon, verify_tsum_distinct
from hardmat.ssdim import certify_depth_d, gamma_t, sigma_t

F2 = prime_field(2)
F3 = prime_field(3)


def section(title):
    print(f"\n== {title}")


def main():
    t0 = time.time()

    section("Sidon grids (smallest prime witness per order)")
    for n, t in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)]:
        s = construct_sidon(n, t)
        ok = verify_tsum_distinct(s, t)
        print(f"  n={n} t={t}: p={s.p:4d} grid={s.grid} distinct-sums={ok}")

    section("Finite-field instances: lex-first modulus scan and exact gamma_t")
    t_field = time.perf_counter()
    for p, n, base in [(2, 3, F2), (3, 2, F3)]:
        b = hard_over_finite(p, n, 2)
        field = b.matrix.field
        # the scan tries every candidate up to the modulus's base-p index
        scanned = 1 + sum(c * p**i for i, c in enumerate(field.modulus[:-1]))
        print(
            f"  finite p={p} n={n} t=2: extension degree {field.degree}, "
            f"{scanned} candidates scanned, gamma = {gamma_t(b.matrix, 2, base)} "
            f"(max possible {math.comb(n * n, 2)})"
        )
    print(f"  section took {time.perf_counter() - t_field:.2f}s")

    section("Exact dimension of t-wise products on the integer instances")
    m = hard_over_integers(2, 2).matrix
    print(f"  integer n=2 t=2: entries {m.entries}")
    tv = trivial_hard(2).matrix
    print(
        f"  doubly-exponential 2x2: sigma_1 = {sigma_t(tv, 1)}, "
        f"sigma_2 = {sigma_t(tv, 2)} (full subset-sum counts)"
    )

    section("Certified depth-d size bounds at n = 10^6")
    n = 10**6
    for d, t in [(2, math.ceil(n**0.75)), (3, math.ceil(n ** (5 / 6)))]:
        s_star = certify_depth_d(n, d, t)
        print(f"  d={d} t={t}: every depth-{d} circuit needs size > {s_star}")

    section("Hard PSD pair (rank n/2, first n/2 probes annihilated)")
    for side in (2, 4, 8, 16, 64):
        t_build = time.perf_counter()
        pair = build_hard_psd(side)
        built = time.perf_counter() - t_build
        # rank(m) = rank(mtilde) for a Gram matrix; mtilde is the cheaper one
        print(
            f"  n={side:2d}: built and re-verified in {built:.3f}s, "
            f"rank(m) = {rank(pair.mtilde)}, gram check = {pair.m.entries[:2]}..."
        )

    section("Reed-Solomon dual kernel weights (exhaustive)")
    for q, k in [(5, 2), (5, 4), (7, 3), (11, 8), (13, 8), (13, 10)]:
        t_kernel = time.perf_counter()
        w = min_kernel_weight(rs_generator(RSParams(q, k)))
        print(
            f"  q={q:2d} k={k}: min nonzero kernel weight = {w} (k+1 = {k + 1}), "
            f"{time.perf_counter() - t_kernel:.3f}s"
        )

    section("Amplification law via the depth-2 oracle")
    ones = from_rows(F2, [[1, 1], [1, 1]])
    for name, base in [("identity", identity(F2, 2)), ("all-ones", ones)]:
        found = min_depth2_sparsity(base, 2, 6)
        doubled = amplify_direct_sum(base, 2)
        none = min_depth2_sparsity(doubled, 4, 2 * found.s_min - 1)
        explicit = CircuitFactorization(
            F2,
            (
                kronecker(identity(F2, 2), found.witness.factors[0]),
                kronecker(identity(F2, 2), found.witness.factors[1]),
            ),
        )
        check = verify_factorization(explicit, doubled)
        print(
            f"  {name}: min size {found.s_min}; doubled instance has none at "
            f"{2 * found.s_min - 1} and an explicit witness of size "
            f"{check.size} (verified={check.equal})"
        )

    section("Depth-2 oracle on the 4x4 upper-triangular matrix over F_2")
    ut4 = from_rows(F2, [[int(j >= i) for j in range(4)] for i in range(4)])
    t_search = time.perf_counter()
    result = min_depth2_sparsity(ut4, s_max=9, budget=10_000_000)
    status = "found" if result.s_min is not None else "none"
    print(
        f"  s_max=9: status {status}, {result.nodes} support pairs, "
        f"{time.perf_counter() - t_search:.3f}s"
    )

    print(f"\nall desk checks done in {time.time() - t0:.1f}s")


if __name__ == "__main__":
    main()
