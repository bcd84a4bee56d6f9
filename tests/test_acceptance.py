"""Acceptance suite: one test per criterion, at its stated tolerance.

Every test times itself against the stated runtime budget and prints one
PASS line (run pytest with -s to see them on success; they also appear in
captured output on failure).
"""

import math
import random
import time
from itertools import combinations, product
from math import comb
from operator import mul

import pytest

from hardmat.circuits import (
    CircuitFactorization,
    SlcParseError,
    emit_slc,
    min_depth2_sparsity,
    parse_slc,
    verify_factorization,
)
from hardmat.budgets import PSD_MAX_N
from hardmat.constructions import amplify_direct_sum, hard_over_finite, trivial_hard
from hardmat.fields import (
    INTEGER_RING,
    RATIONAL_FIELD,
    extension_field,
    find_irreducible,
    ops_for,
    prime_field,
)
from hardmat.hitting import (
    RSParams,
    build_hard_psd,
    hit_inner,
    min_kernel_weight,
    rs_generator,
    vandermonde_vectors,
)
from hardmat.matrices import (
    ExactMatrix,
    from_rows,
    identity,
    kronecker,
    matmul,
    rank,
    transpose,
)
from hardmat.sidon import construct_sidon, verify_tsum_distinct
from hardmat.ssdim import bound_eval, certify_depth_d, gamma_t, sigma_t

F2 = prime_field(2)
F3 = prime_field(3)
QQ = RATIONAL_FIELD


class _Clock:
    def __init__(self, number: int, description: str, limit_s: float):
        self.number = number
        self.description = description
        self.limit = limit_s

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(
            f"ACCEPTANCE {self.number:2d} {status} "
            f"({elapsed:6.2f}s / {self.limit:.0f}s) {self.description}"
        )
        if exc_type is None:
            assert elapsed < self.limit, (
                f"criterion {self.number} exceeded its runtime budget: "
                f"{elapsed:.2f}s >= {self.limit}s"
            )
        return False


def test_criterion_01_sidon_correctness():
    with _Clock(1, "Sidon grids verify |tS| = C(n^2, t) for (n,t) in {2,3}x{1,2,3}", 30):
        for n in (2, 3):
            for t in (1, 2, 3):
                assert comb(n * n, t) <= 10**5
                s = construct_sidon(n, t)
                assert verify_tsum_distinct(s, t)
                # independent recount of the sumset size
                sums = {sum(c) for c in combinations(s.elements(), t)}
                assert len(sums) == comb(n * n, t)


def test_criterion_02_gamma_equality_on_hard_matrices():
    with _Clock(2, "gamma_t equals C(n^2, t) exactly on the finite-field instances", 60):
        b = hard_over_finite(2, 3, 2)
        assert gamma_t(b.matrix, 2, F2) == comb(9, 2) == 36
        b = hard_over_finite(3, 2, 2)
        assert gamma_t(b.matrix, 2, F3) == comb(4, 2) == 6


def _random_factor_chain(rng, field, n, d):
    ops = ops_for(field)
    dims = [n] + [rng.randint(1, n) for _ in range(d - 1)] + [n]
    factors = []
    for a, b in zip(dims, dims[1:]):
        entries = []
        for _ in range(a * b):
            if rng.random() < 0.6:
                coeffs = tuple(rng.randrange(2) for _ in range(field.degree))
                entries.append(coeffs)
            else:
                entries.append(ops.zero)
        factors.append(ExactMatrix(field, a, b, tuple(entries)))
    return factors


def test_criterion_03_upper_bound_as_executable_inequality():
    with _Clock(3, "log2 gamma_t of 50 random sparse products respects the bound", 120):
        rng = random.Random(20240817)
        field = extension_field(2, find_irreducible(2, 8))
        checked = 0
        while checked < 50:
            d = rng.choice([2, 3])
            n = rng.choice([2, 3, 4])
            t = 1 if n == 2 else rng.randint(1, 2)
            factors = _random_factor_chain(rng, field, n, d)
            s = sum(1 for f in factors for x in f.entries if any(x))
            if s < d * t:
                continue
            prod = factors[0]
            for f in factors[1:]:
                prod = matmul(prod, f)
            gamma = gamma_t(prod, t, F2)
            ev = bound_eval(s, d, t, n)
            if gamma > 0:
                assert math.log2(gamma) <= float(ev.log2_gamma_upper) + 1e-6
            checked += 1
        assert checked == 50


def test_criterion_04_sigma_ground_truth():
    with _Clock(4, "sigma_t of the doubly-exponential 2x2 instance is 15 and 63", 1):
        m = trivial_hard(2).matrix
        assert sigma_t(m, 1) == 15
        assert sigma_t(m, 2) == 63


def test_criterion_05_certification_arithmetic():
    mp = pytest.importorskip("mpmath").mp
    mpf = mp.mpf
    with _Clock(5, "certified sizes at n=10^6 reach the stated thresholds", 1):
        n = 10**6
        cases = [
            (2, math.ceil(n ** (3 / 4)), math.ceil(n**1.25 / 2)),
            (3, math.ceil(n ** (5 / 6)), math.ceil(n ** (7 / 6) / 2)),
        ]
        for d, t, threshold in cases:
            s_star = certify_depth_d(n, d, t)
            assert s_star >= threshold
            # independent 256-bit check of the defining inequality at the
            # boundary, straight from the power form
            with mp.workprec(256):
                rhs = (mpf(n * n) / t) ** t

                def lhs(s):
                    return (mp.e**d * (mpf(2 * s) / (d * t)) ** d) ** t

                assert lhs(s_star) < rhs
                assert lhs(s_star + 1) >= rhs


def test_criterion_06_psd_hard_instance():
    with _Clock(6, "PSD pairs verify exactly for every even n up to 64", 120):
        for n in range(2, PSD_MAX_N + 1, 2):
            pair = build_hard_psd(n)
            half = n // 2
            assert pair.m == transpose(pair.m)
            # Clear denominators, then check in integers: m = mtilde^T mtilde,
            # mtilde v_i = 0 for i <= n/2 and e_i above, v_i^T m v_i = 0.
            den = math.lcm(*(x.denominator for x in pair.mtilde.entries))

            def scaled(a, d):
                assert all(d % x.denominator == 0 for x in a.entries)
                return [[x.numerator * (d // x.denominator) for x in a.row(r)]
                        for r in range(n)]

            num = scaled(pair.mtilde, den)
            m_num = scaled(pair.m, den * den)
            cols = list(zip(*num))
            gram = [[sum(map(mul, a, b)) for b in cols] for a in cols]
            assert m_num == gram
            probes = vandermonde_vectors(n, n).vectors
            for i, v in enumerate(probes, start=1):
                image = [sum(map(mul, row, v)) for row in num]
                if i <= half:
                    assert image == [0] * n
                    assert sum(map(mul, v, (sum(map(mul, r, v)) for r in gram))) == 0
                else:
                    assert image == [den * (k == i - 1) for k in range(n)]
            # rank: at most n/2 (mtilde has n/2 zero rows, and rank m = rank
            # mtilde), at least n/2 (a nonzero minor mod p is nonzero over Z)
            assert all(not any(row) for row in num[:half])
            p = 1_000_003
            assert rank(from_rows(prime_field(p), gram)) == half
            if n <= 32:  # and in Fractions, as returned
                assert pair.m == matmul(transpose(pair.mtilde), pair.mtilde)
                assert rank(pair.m) == half
                assert all(hit_inner(pair.m, v, v) == 0 for v in probes[:half])
        assert build_hard_psd(2).m == from_rows(QQ, [[1, -1], [-1, 1]])


def test_criterion_07_descartes_hitting():
    with _Clock(7, "10^4 random sparse rows all hit within their sparsity", 30):
        from hardmat.hitting import sparse_row_hit

        rng = random.Random(271828)
        n = 16
        probes = vandermonde_vectors(n, 8)
        failures = 0
        for _ in range(10**4):
            s = rng.randint(1, 8)
            nnz = rng.randint(1, s)
            positions = rng.sample(range(n), nnz)
            row = [0] * n
            for pos in positions:
                value = rng.randint(-5, 4)
                row[pos] = value if value != 0 else 5
            witness = sparse_row_hit(tuple(row), s, probes)
            if witness > s:
                failures += 1
        assert failures == 0


def test_criterion_08_rs_dual_kernel_weight():
    with _Clock(8, "min kernel weight >= k+1 for q in {5,7,11,13}, k within budget", 120):
        observed = {}
        for q in (5, 7, 11, 13):
            for k in range(1, q):
                if q ** (q - k) > 10**6:
                    continue  # outside the enumeration budget
                weight = min_kernel_weight(rs_generator(RSParams(q, k)))
                assert weight is not None
                assert weight >= k + 1
                observed[(q, k)] = weight
        print(f"observed kernel weights: {sorted(observed.items())}")
        assert len(observed) >= 15


def test_criterion_09_amplification_law():
    """s_min(I_2 (x) A) = 2 s_min(A), decided exactly for every 2x2 base A
    over F_2 and F_3: the doubled search runs up to 2 s_min(A), so it
    rules out every smaller size, and I_2 (x) (B, C) reaches 2 s_min(A)."""
    with _Clock(9, "block-diagonal doubling exactly doubles the minimal size", 600):
        for field in (F2, F3):
            for entries in product(range(field.p), repeat=4):
                base = ExactMatrix(field, 2, 2, entries)
                found = min_depth2_sparsity(base, 2, 6)
                s_a = found.s_min
                assert s_a is not None
                doubled = amplify_direct_sum(base, 2)
                result = min_depth2_sparsity(doubled, 4, 2 * s_a, budget=10**8)
                assert result.s_min == 2 * s_a, (field.p, entries)
                check = verify_factorization(result.witness, doubled)
                assert check.equal and check.size == 2 * s_a
                explicit = CircuitFactorization(
                    field,
                    (
                        kronecker(identity(field, 2), found.witness.factors[0]),
                        kronecker(identity(field, 2), found.witness.factors[1]),
                    ),
                )
                check = verify_factorization(explicit, doubled)
                assert check.equal and check.size == 2 * s_a


def _naive_min_depth2_f2(A):
    best = None
    n = A.rows
    for b_vals in product(range(2), repeat=n * 2):
        for c_vals in product(range(2), repeat=2 * n):
            size = sum(b_vals) + sum(c_vals)
            if best is not None and size >= best:
                continue
            if all(
                sum(b_vals[i * 2 + k] * c_vals[k * n + j] for k in range(2)) % 2
                == A.at(i, j)
                for i in range(n)
                for j in range(n)
            ):
                best = size
    return best


def test_criterion_10_oracle_cross_validation():
    with _Clock(10, "pruned search equals the fully naive enumerator, 20 matrices", 300):
        rng = random.Random(1618)
        for _ in range(20):
            a = from_rows(
                F2, [[rng.randrange(2) for _ in range(2)] for _ in range(2)]
            )
            pruned = min_depth2_sparsity(a, 2, 8)
            assert pruned.s_min == _naive_min_depth2_f2(a)
            if pruned.witness is not None:
                check = verify_factorization(pruned.witness, a)
                assert check.equal and check.size == pruned.s_min


def _random_circuit(rng):
    from fractions import Fraction

    field = rng.choice(
        [
            F2,
            F3,
            prime_field(5),
            extension_field(2, (1, 1, 1)),
            QQ,
            INTEGER_RING,
        ]
    )
    ops = ops_for(field)
    depth = rng.randint(1, 3)
    dims = [rng.randint(1, 3) for _ in range(depth + 1)]

    def element():
        if field.kind == "prime":
            return rng.randrange(field.p)
        if field.kind == "extension":
            return tuple(rng.randrange(field.p) for _ in range(field.degree))
        if field.kind == "rational":
            return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        return rng.randint(-(2**30), 2**30)

    factors = []
    for a, b in zip(dims, dims[1:]):
        entries = tuple(
            element() if rng.random() < 0.5 else ops.zero for _ in range(a * b)
        )
        factors.append(ExactMatrix(field, a, b, entries))
    return CircuitFactorization(field, tuple(factors))


def test_criterion_11_parser_and_format():
    with _Clock(11, "parse(emit(.)) identity on 100 chains; malformed inputs error", 10):
        rng = random.Random(31415)
        for _ in range(100):
            circuit = _random_circuit(rng)
            assert parse_slc(emit_slc(circuit)) == circuit
        malformed = [
            "field prime 5\nlayer 1 1\n1 1 5\nend\n",  # residue not in field
            "field prime 2\nlayer 2 3\n1 1 1\nend\nlayer 2 2\nend\n",  # chain
            "field prime 2\nlayer 2 2\n1 1 1\n1 1 1\nend\n",  # duplicate triplet
            "field prime 2\nlayer 2 2\n1 1 1\n",  # missing end
            "field prime 2\nlayer 2 2\n9 1 1\nend\n",  # row out of range
            "field nonsense\n",  # unknown kind
            "layer 1 1\nend\n",  # missing header
            "",  # empty
            "field prime 4\nlayer 1 1\nend\n",  # non-prime modulus
        ]
        for text in malformed:
            try:
                parse_slc(text)
            except SlcParseError:
                continue
            raise AssertionError(f"malformed input parsed: {text!r}")
