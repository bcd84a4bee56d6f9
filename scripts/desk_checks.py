#!/usr/bin/env python3
"""Reproduce the toolkit's desk-scale facts in one run.

Walks through every construction and check at small parameters and prints
what it found: Sidon grids and their moduli, exact dimension measures of the
hard instances, certified size bounds, the PSD pair invariants, dual-code
kernel weights, the amplification law pinned by the search oracle, and the
start-up time of the command-line front end next to the bare interpreter,
and the time to print a big integer.  Exits 1 if a finite-field
modulus one size step past the benchmark, or that of the slowest odd-p
instance under the extension caps, is not the recorded one, if an
extension-field quotient fails a * (1/a) = 1, if RS(13, 7), one size
step past the benchmark's RS(13, 8), does not show kernel weight k + 1, or
if the dense 4x4 F_2 target, one size step past the benchmark's
upper-triangular search, is not decided as s_min 14 after 271,309,209
support pairs, if a dense 10^6-triplet `.slc` layer does not parse, if a
zero 1000 x 1000 layer over F_2[z]/(g) of degree 1281 does not parse to
size 0, if the slowest layer chain under the verify work cap is refused or
the dense 1000 x 500 x 1000 chain past it is not, if 2^(2^20) does not
print with its length and last digits, or if the run changed the
interpreter's int/str digit limit.
"""

import math
import os
import random
import subprocess
import sys
import time

import hardmat

from hardmat.budgets import VERIFY_WORK_CAP, BudgetExceeded, _decimal
from hardmat.circuits import (
    CircuitFactorization,
    min_depth2_sparsity,
    parse_slc,
    verify_factorization,
)
from hardmat.constructions import (
    amplify_direct_sum,
    hard_over_finite,
    hard_over_integers,
    trivial_hard,
)
from hardmat.fields import ops_for, prime_field
from hardmat.hitting import (
    RSParams,
    build_hard_psd,
    min_kernel_weight,
    rs_generator,
)
from hardmat.matrices import (
    ExactMatrix,
    from_rows,
    identity,
    kronecker,
    rank,
    zeros,
)
from hardmat.sidon import construct_sidon, verify_tsum_distinct
from hardmat.ssdim import certify_depth_d, gamma_t, sigma_t

F2 = prime_field(2)
F3 = prime_field(3)

#: Base-p index of the lex-first modulus of `hard finite` one size step past
#: the benchmark sizes, keyed by (p, n, t); the scan tries index + 1
#: candidates.
NEXT_SIZE_INDEX = {(3, 3, 2): 1300, (2, 3, 3): 13333, (2, 4, 2): 9281}

#: The slowest odd-p `hard finite` that the extension caps admit, of every
#: (p, n, t) with p in {3, 5, 7, 13} timed when the packed-bits cap was set
#: (22-26 s, py3.11, one core), and its scan index.
SLOWEST_ODD_P_INDEX = {(13, 7, 1): 4410}

#: The largest prime the primality test admits.  Its residues are the
#: costliest of the field kinds whose steps the verify work cap bounds well
#: (~9 s for a chain at the cap, py3.11, one core); rationals with
#: denominators and integers of many digits cost far more per step.
P_LARGEST = 3_317_044_064_679_887_385_961_813


def section(title):
    print(f"\n== {title}")


def startup_seconds(cmd, repeats=5):
    """Min wall time of ``cmd`` over fresh interpreters."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(hardmat.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(
            cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=True
        )
        times.append(time.perf_counter() - start)
    return min(times)


def main():
    t0 = time.time()
    digit_limit = sys.get_int_max_str_digits()

    section("CLI start-up, next to the interpreter floor")
    floor = [
        ["-c", "pass"],
        ["-S", "-c", "pass"],
        ["-c", "import os; os._exit(0)"],  # no teardown, as hardmat ends
    ]
    calls = [["-m", "hardmat", *args.split()] for args in (
        "--help", "sidon --n 2 --t 1", "psd build --n 2",
        "ssdim certify --n 1000000 --d 2 --t 31623",
    )]
    for args in floor + calls:
        shown = " ".join(repr(a) if " " in a else a for a in args)
        seconds = startup_seconds([sys.executable, *args])
        print(f"  python {shown}: {seconds:.3f}s (min of 5)")

    section("Sidon grids (smallest prime witness per order)")
    for n, t in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)]:
        s = construct_sidon(n, t)
        ok = verify_tsum_distinct(s, t)
        print(f"  n={n} t={t}: p={s.p:4d} grid={s.grid} distinct-sums={ok}")

    section("Finite-field instances: lex-first modulus scan and exact gamma_t")
    t_field = time.perf_counter()
    extensions = []
    for p, n, base in [(2, 3, F2), (3, 2, F3)]:
        b = hard_over_finite(p, n, 2)
        field = b.matrix.field
        extensions.append(field)
        # the scan tries every candidate up to the modulus's base-p index
        scanned = 1 + sum(c * p**i for i, c in enumerate(field.modulus[:-1]))
        print(
            f"  finite p={p} n={n} t=2: extension degree {field.degree}, "
            f"{scanned} candidates scanned, gamma = {gamma_t(b.matrix, 2, base)} "
            f"(max possible {math.comb(n * n, 2)})"
        )
    print(f"  section took {time.perf_counter() - t_field:.2f}s")

    section("Extension-field mul and div on the packed ring (one call each)")
    failures = []
    rng = random.Random(0)
    for field in extensions:
        ops = ops_for(field)
        a = tuple(rng.randrange(field.p) for _ in range(field.degree))
        t_op = time.perf_counter()
        ops.mul(a, a)
        t_mul = time.perf_counter() - t_op
        t_op = time.perf_counter()
        inv = ops.div(ops.one, a)
        t_div = time.perf_counter() - t_op
        ok = ops.mul(a, inv) == ops.one
        print(
            f"  p={field.p} degree {field.degree}: mul {1e3 * t_mul:.2f} ms, "
            f"div {1e3 * t_div:.1f} ms, a * (1/a) = 1: {ok}"
        )
        if not ok:
            failures.append(f"a * (1/a) is not 1 in {field!r}")

    for title, records in [
        ("Finite-field instances one size step past the benchmark", NEXT_SIZE_INDEX),
        ("Slowest odd-p finite-field instance under the extension caps",
         SLOWEST_ODD_P_INDEX),
    ]:
        section(title)
        for (p, n, t), recorded in records.items():
            t_build = time.perf_counter()
            modulus = hard_over_finite(p, n, t).matrix.field.modulus
            index = sum(c * p**i for i, c in enumerate(modulus[:-1]))
            print(
                f"  finite p={p} n={n} t={t}: extension degree {len(modulus) - 1}, "
                f"scan index {index} (recorded {recorded}), "
                f"{time.perf_counter() - t_build:.1f}s"
            )
            if index != recorded:
                failures.append(
                    f"scan index differs from the record for (p, n, t) = {(p, n, t)}"
                )

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
        print(
            f"  d={d} t={t}: every depth-{d} circuit needs size > {s_star} "
            f"(re-checked exactly at s* and s* + 1)"
        )

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

    section("Reed-Solomon dual kernel weights (exact)")
    for q, k, budget in [
        (5, 2, None), (5, 4, None), (7, 3, None), (11, 8, None), (13, 8, None),
        (13, 10, None), (13, 7, 13**6),
    ]:
        t_kernel = time.perf_counter()
        w = min_kernel_weight(rs_generator(RSParams(q, k)), budget=budget)
        print(
            f"  q={q:2d} k={k}: min nonzero kernel weight = {w} (k+1 = {k + 1}), "
            f"{time.perf_counter() - t_kernel:.3f}s"
        )
        if (q, k) == (13, 7) and w != k + 1:
            failures.append(f"RS({q}, {k}) has min kernel weight {w}, not {k + 1}")

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

    section("Depth-2 oracle on 4x4 targets over F_2")
    ut4 = from_rows(F2, [[int(j >= i) for j in range(4)] for i in range(4)])
    dense = from_rows(F2, [[1, 1, 1, 0], [1, 0, 1, 1], [0, 1, 1, 1], [1, 1, 0, 1]])
    for name, target, s_max, budget in [
        ("upper-triangular", ut4, 9, 10_000_000),
        ("dense 1110/1011/0111/1101", dense, 14, 3 * 10**8),
    ]:
        t_search = time.perf_counter()
        result = min_depth2_sparsity(target, s_max=s_max, budget=budget)
        status = "none" if result.s_min is None else f"s_min {result.s_min}"
        print(
            f"  {name}, s_max={s_max}: {status}, {result.nodes} support pairs, "
            f"{time.perf_counter() - t_search:.3f}s"
        )
        if target is dense and (result.s_min, result.nodes) != (14, 271_309_209):
            failures.append(
                f"dense 4x4 target: s_min {result.s_min} after {result.nodes} "
                "support pairs, not 14 after 271309209"
            )

    section("Circuit text and verification at their caps")
    f13 = prime_field(13)
    text = "field prime 13\nlayer 1000 1000\n" + "".join(
        f"{i} {j} {(i + j) % 12 + 1}\n" for i in range(1, 1001) for j in range(1, 1001)
    )
    t_parse = time.perf_counter()
    layer = parse_slc(text + "end\n").factors[0]
    print(
        f"  parse_slc, dense 1000 x 1000 layer over F_13 (10^6 triplets, the "
        f"layer budget): {time.perf_counter() - t_parse:.1f}s"
    )
    if layer.entries[-1] != 9:
        failures.append("the dense 10^6-triplet layer parsed to other entries")
    modulus = " ".join(map(str, extensions[0].modulus))  # F_2, deg g = 1281
    t_parse = time.perf_counter()
    try:
        size = parse_slc(f"field ext 2 {modulus}\nlayer 1000 1000\nend\n").size
        status = f"size {size}"
    except Exception as exc:
        size, status = None, f"raised {exc!r}"
    if size != 0:
        failures.append("the zero 1000 x 1000 deg-1281 layer did not parse to size 0")
    print(
        f"  parse_slc and .size, zero 1000 x 1000 layer over F_2[z]/(g), "
        f"deg g = 1281: {status}, {time.perf_counter() - t_parse:.2f}s"
    )
    # the widest middle dimension m whose 1000 x m x 1000 steps, m * 10^6
    # multiply-adds and 1000 * (m + 1000) visits, fit the cap
    big = prime_field(P_LARGEST)
    m = (VERIFY_WORK_CAP - 10**6) // (10**6 + 1000)
    chain = CircuitFactorization(
        big,
        (
            ExactMatrix(big, 1000, m, (P_LARGEST - 1,) * (1000 * m)),
            ExactMatrix(big, m, 1000, (2,) * (1000 * m)),
        ),
    )
    t_verify = time.perf_counter()
    try:
        result = verify_factorization(chain, zeros(big, 1000, 1000))
        status = f"equal to zeros: {result.equal}"
    except BudgetExceeded as exc:
        status = f"refused: {exc}"
        failures.append("the slowest chain under the verify work cap was refused")
    print(
        f"  verify, dense 1000 x {m} x 1000 over F_p, p = {P_LARGEST} "
        f"(slowest under the cap): {status}, {time.perf_counter() - t_verify:.1f}s"
    )
    past = CircuitFactorization(
        f13,
        (
            ExactMatrix(f13, 1000, 500, (5,) * 500_000),
            ExactMatrix(f13, 500, 1000, (7,) * 500_000),
        ),
    )
    t_verify = time.perf_counter()
    try:
        verify_factorization(past, zeros(f13, 1000, 1000))
        failures.append("the dense 1000 x 500 x 1000 chain was not refused")
        status = "admitted"
    except BudgetExceeded as exc:
        status = f"refused: {exc}"
    print(
        f"  verify, dense 1000 x 500 x 1000 over F_13 (ran ~93 s uncapped): "
        f"{status}, {time.perf_counter() - t_verify:.2f}s"
    )

    section("Big-integer text: 2^(2^20) printed in blocks under the digit limit")
    x = 2 ** 2**20
    t_print = time.perf_counter()
    text = _decimal(x)
    ok = len(text) == 315_653 and int(text[-18:]) == pow(2, 2**20, 10**18)
    print(
        f"  {len(text)} digits in {time.perf_counter() - t_print:.2f}s, "
        f"length and last 18 digits right: {ok}"
    )
    if not ok:
        failures.append("2^(2^20) printed with a wrong length or last digits")
    if sys.get_int_max_str_digits() != digit_limit:
        failures.append("the run changed the interpreter's int/str digit limit")

    print(f"\nall desk checks done in {time.time() - t0:.1f}s")
    for failure in failures:
        print(failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
