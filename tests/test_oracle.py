"""The depth-2 oracle and the RS kernel weight, differentially.

The seed's ``min_depth2_sparsity`` (one pass over every (B, C) support pair)
and ``min_kernel_weight`` (all p^dim coefficient combinations) are held here
as references.  The rewrites must give the same results, the same ``nodes``
and the same BudgetExceeded messages.  The last class pins the oracle
outputs the benchmark records.
"""

import functools
import io
import json
import random
import sys
from itertools import combinations

import pytest

from hardmat.budgets import BudgetExceeded, enumeration_budget
from hardmat.circuits import (
    SearchResult,
    _assign_values,
    _build_witness,
    min_depth2_sparsity,
)
from hardmat.cli import dispatch
from hardmat.fields import prime_field
from hardmat.hitting import RSParams, min_kernel_weight, rs_generator
from hardmat.matrices import (
    ExactMatrix,
    from_rows,
    matrix_to_json,
    nullspace,
    rank,
    transpose,
    zeros,
)

F2 = prime_field(2)

# ---------------------------------------------------------------------------
# The seed's routines, kept as references.


def _ref_min_depth2_sparsity(A, m_max=None, s_max=0, budget=None):
    """Seed min_depth2_sparsity: every C support tested per surviving B."""
    field = A.field
    n = A.rows
    if m_max is None:
        m_max = n
    p = field.p
    cap = enumeration_budget(budget)

    rank_a = rank(A)
    rows_nonzero = [i for i in range(n) if any(A.row(i))]
    cols_nonzero = [j for j in range(n) if any(A.col(j))]
    min_sb = max(rank_a, len(rows_nonzero))
    min_sc = max(rank_a, len(cols_nonzero))
    nonzero_entries = [
        (i, j) for i in range(n) for j in range(n) if A.at(i, j) != 0
    ]
    a_flat = A.entries
    values = list(range(1, p))
    nodes = 0

    for s in range(s_max + 1):
        for m in range(max(1, rank_a), m_max + 1):
            for s_b in range(s + 1):
                s_c = s - s_b
                if s_b < min_sb or s_c < min_sc:
                    continue
                if s_b > n * m or s_c > m * n:
                    continue
                for supp_b in combinations(range(n * m), s_b):
                    b_pos = [divmod(pos, m) for pos in supp_b]  # (i, k)
                    b_rows = {i for i, _ in b_pos}
                    if any(i not in b_rows for i in rows_nonzero):
                        continue
                    if len({k for _, k in b_pos}) < rank_a:
                        continue
                    b_k_by_row = [0] * n
                    for i, k in b_pos:
                        b_k_by_row[i] |= 1 << k
                    for supp_c in combinations(range(m * n), s_c):
                        nodes += 1
                        if nodes > cap:
                            raise BudgetExceeded(
                                f"search explored {nodes} support pairs; "
                                f"budget is {cap}"
                            )
                        c_pos = [divmod(pos, n) for pos in supp_c]  # (k, j)
                        c_cols = {j for _, j in c_pos}
                        if any(j not in c_cols for j in cols_nonzero):
                            continue
                        if len({k for k, _ in c_pos}) < rank_a:
                            continue
                        c_k_by_col = [0] * n
                        for k, j in c_pos:
                            c_k_by_col[j] |= 1 << k
                        if any(
                            not (b_k_by_row[i] & c_k_by_col[j])
                            for i, j in nonzero_entries
                        ):
                            continue
                        hit = _assign_values(
                            a_flat, n, m, p, b_pos, c_pos, values
                        )
                        if hit is not None:
                            witness = _build_witness(
                                field, n, m, b_pos, c_pos, hit
                            )
                            return SearchResult(s, witness, nodes, s_max, m_max)
    return SearchResult(None, None, nodes, s_max, m_max)


def _ref_min_kernel_weight(G, budget=None):
    """Seed min_kernel_weight: all p^dim coefficient combinations."""
    p = G.field.p
    basis = nullspace(transpose(G))
    dim = len(basis)
    if dim == 0:
        return None
    cap = enumeration_budget(budget)
    if p**dim > cap:
        raise BudgetExceeded(f"kernel has {p}^{dim} vectors, budget is {cap}")
    ncols = G.rows
    multiples = [
        [tuple(c * x % p for x in b) for c in range(p)] for b in basis
    ]
    best = None

    def explore(level, acc, nonzero):
        nonlocal best
        if best == 1:
            return
        if level == dim:
            if nonzero:
                w = sum(1 for x in acc if x)
                if best is None or w < best:
                    best = w
            return
        explore(level + 1, acc, nonzero)
        for c in range(1, p):
            mv = multiples[level][c]
            explore(level + 1, tuple((a + b) % p for a, b in zip(acc, mv)), True)

    explore(0, (0,) * ncols, False)
    return best


# ---------------------------------------------------------------------------


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except BudgetExceeded as exc:
        return ("budget", str(exc))


def _random_target(rng, p, n):
    return ExactMatrix(
        prime_field(p), n, n, tuple(rng.randrange(p) for _ in range(n * n))
    )


def _search_cases():
    """Seeded targets 1x1 to 3x3 over F_2/F_3 at s_max up to 2n + 2, and
    4x4 at s_max up to 6, each with a random legal m_max."""
    rng = random.Random(20240604)
    cases = []
    for p in (2, 3):
        for n in (1, 2, 3):
            for _ in range(10):
                a = _random_target(rng, p, n)
                cases.append((a, rng.randint(1, 4), rng.randint(0, 2 * n + 2)))
        for _ in range(4):
            a = _random_target(rng, p, 4)
            cases.append((a, rng.randint(1, 4), rng.randint(0, 6)))
    return cases


SEARCH_CASES = _search_cases()


@functools.cache
def _search_references():
    return [
        (a, m_max, s_max, _outcome(_ref_min_depth2_sparsity, a, m_max, s_max))
        for a, m_max, s_max in SEARCH_CASES
    ]


class TestSearchAgainstSeed:
    @pytest.mark.parametrize("m_max", [1, 2, 3, 4])
    def test_every_m_max_on_small_targets(self, m_max):
        rng = random.Random(m_max)
        for p in (2, 3):
            for n in (1, 2, 3):
                a = _random_target(rng, p, n)
                s_max = 2 * n + 1
                assert min_depth2_sparsity(a, m_max, s_max) == (
                    _ref_min_depth2_sparsity(a, m_max, s_max)
                )

    def test_seeded_targets(self):
        found = none = 0
        for a, m_max, s_max, ref in _search_references():
            assert _outcome(min_depth2_sparsity, a, m_max, s_max) == ref
            if isinstance(ref, SearchResult):
                found += ref.s_min is not None
                none += ref.s_min is None
        assert found >= 10 and none >= 10

    def test_zero_target_and_default_m_max(self):
        for n in (1, 2, 3, 4):
            a = zeros(F2, n, n)
            result = min_depth2_sparsity(a, s_max=3)
            assert result == _ref_min_depth2_sparsity(a, s_max=3)
            assert result.s_min == 0 and result.nodes == 1

    def test_budget_boundary(self):
        kinds = set()
        for a, m_max, s_max, ref in _search_references():
            if not isinstance(ref, SearchResult) or ref.nodes < 2:
                continue
            kinds.add(ref.s_min is None)
            nodes = ref.nodes
            assert min_depth2_sparsity(a, m_max, s_max, budget=nodes) == ref
            for budget in (nodes - 1, nodes // 2):
                if nodes > 100_000:  # a reference rerun takes ~1 s here
                    expected = (
                        "budget",
                        f"search explored {budget + 1} support pairs; "
                        f"budget is {budget}",
                    )
                else:
                    expected = _outcome(
                        _ref_min_depth2_sparsity, a, m_max, s_max, budget
                    )
                assert expected[0] == "budget"
                got = _outcome(min_depth2_sparsity, a, m_max, s_max, budget)
                assert got == expected
        assert kinds == {True, False}

    def test_smallest_budget(self):
        a = from_rows(F2, [[1, 1], [0, 1]])
        message = "search explored 2 support pairs; budget is 1"
        for search in (_ref_min_depth2_sparsity, min_depth2_sparsity):
            with pytest.raises(BudgetExceeded, match=f"^{message}$"):
                search(a, 2, 8, budget=1)


def _kernel_cases():
    rng = random.Random(97)
    cases = []
    for p in (2, 3, 5, 7, 13):
        for _ in range(6):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 4)
            entries = [rng.randrange(p) for _ in range(rows * cols)]
            cases.append(ExactMatrix(prime_field(p), rows, cols, tuple(entries)))
    return cases


KERNEL_CASES = _kernel_cases()


class TestKernelWeightAgainstSeed:
    def test_random_matrices(self):
        kernels = set()
        for g in KERNEL_CASES:
            expected = _ref_min_kernel_weight(g)
            assert min_kernel_weight(g) == expected
            kernels.add(expected is None)
        assert kernels == {True, False}

    def test_reed_solomon(self):
        for q, k in [(5, 2), (7, 3), (11, 8), (13, 10)]:
            g = rs_generator(RSParams(q, k))
            assert min_kernel_weight(g) == _ref_min_kernel_weight(g) == k + 1

    def test_zero_kernel(self):
        g = ExactMatrix(prime_field(5), 2, 2, (1, 2, 0, 3))
        assert _ref_min_kernel_weight(g) is None
        assert min_kernel_weight(g, budget=1) is None

    def test_budget_is_the_whole_kernel(self):
        for g in KERNEL_CASES:
            dim = g.rows - rank(g)
            if dim == 0:
                continue
            size = g.field.p**dim
            assert min_kernel_weight(g, budget=size) == _ref_min_kernel_weight(g)
            expected = _outcome(_ref_min_kernel_weight, g, budget=size - 1)
            assert expected[0] == "budget"
            assert _outcome(min_kernel_weight, g, budget=size - 1) == expected


class TestBenchmarkOutputs:
    """The oracle outputs the benchmark's stdout digests record."""

    def test_upper_triangular_4x4_search(self, monkeypatch):
        ut4 = from_rows(F2, [[int(j >= i) for j in range(4)] for i in range(4)])
        monkeypatch.setattr(
            sys, "stdin", io.StringIO(json.dumps(matrix_to_json(ut4)))
        )
        result = dispatch(["search", "--s-max", "9", "--budget", "10000000"])
        assert result.exit_code == 0
        assert result.payload == {
            "status": "none",
            "s_min": None,
            "s_max": 9,
            "m_max": 4,
            "nodes": 934752,
            "witness": None,
        }

    def test_reed_solomon_13_8_kernel_weight(self, monkeypatch):
        rs = dispatch(["hitting", "rs", "--q", "13", "--k", "8"])
        assert rs.exit_code == 0
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(rs.payload)))
        result = dispatch(["hitting", "kernelweight"])
        assert result.exit_code == 0
        assert result.payload == {"min_weight": 9, "kernel_is_zero": False}
