"""The depth-2 oracle and the RS kernel weight, differentially.

The seed's ``min_depth2_sparsity`` (one pass over every (B, C) support pair,
values assigned in product order) and ``min_kernel_weight`` (all p^dim
coefficient combinations) are held here as references.  The rewrites must
give the same results, the same ``nodes`` and the same BudgetExceeded
messages.  The last class pins the oracle outputs the benchmark records.
"""

import functools
import io
import json
import random
import sys
from itertools import combinations, product
from math import comb

import pytest

from hardmat import circuits
from hardmat.budgets import BudgetExceeded, enumeration_budget
from hardmat.circuits import (
    SearchResult,
    _assign_values,
    _build_witness,
    _supports,
    emit_slc,
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


def _ref_assign_values(a_flat, n, m, p, b_pos, c_pos, values):
    """Seed _assign_values: first assignment in product order, or None."""
    c_by_k: dict[int, list] = {}
    for idx, (k, j) in enumerate(c_pos):
        c_by_k.setdefault(k, []).append((j, idx))
    sb = len(b_pos)
    for assignment in product(values, repeat=sb + len(c_pos)):
        acc = [0] * (n * n)
        for bi, (i, k) in enumerate(b_pos):
            vb = assignment[bi]
            for j, ci in c_by_k.get(k, ()):
                acc[i * n + j] += vb * assignment[sb + ci]
        if all(x % p == y for x, y in zip(acc, a_flat)):
            return assignment
    return None


def _ref_min_depth2_sparsity(A, m_max=None, s_max=0, budget=None, kinds=None):
    """Seed min_depth2_sparsity: every C support tested per surviving B.

    ``kinds``, when given, receives one ``(block, kind)`` per counted pair:
    block numbers the B supports that pass B's pruning, and kind is
    "c-pruned", "unshared", "assigned" (values tried, no hit) or "hit".
    """
    block = -1
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
                    block += 1
                    for supp_c in combinations(range(m * n), s_c):
                        nodes += 1
                        if nodes > cap:
                            raise BudgetExceeded(
                                f"search explored {nodes} support pairs; "
                                f"budget is {cap}"
                            )
                        c_pos = [divmod(pos, n) for pos in supp_c]  # (k, j)
                        c_cols = {j for _, j in c_pos}
                        kind = "c-pruned"
                        if any(j not in c_cols for j in cols_nonzero):
                            pass
                        elif len({k for k, _ in c_pos}) >= rank_a:
                            kind = "unshared"
                            c_k_by_col = [0] * n
                            for k, j in c_pos:
                                c_k_by_col[j] |= 1 << k
                            if all(
                                b_k_by_row[i] & c_k_by_col[j]
                                for i, j in nonzero_entries
                            ):
                                kind = "assigned"
                        hit = None
                        if kind == "assigned":
                            hit = _ref_assign_values(
                                a_flat, n, m, p, b_pos, c_pos, values
                            )
                        if kinds is not None:
                            kinds.append((block, kind if hit is None else "hit"))
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


def _passes(supp, rows, width, need_rows, need_cols, min_rows, min_cols):
    cells = [divmod(pos, width) for pos in supp]
    nonempty = {r for r, _ in cells}
    union = {c for _, c in cells}
    return (
        all(r in nonempty for r in range(rows) if need_rows >> r & 1)
        and all(c in union for c in range(width) if need_cols >> c & 1)
        and len(nonempty) >= min_rows
        and len(union) >= min_cols
    )


def _row_masks_of(supp, rows, width):
    masks = [0] * rows
    for pos in supp:
        masks[pos // width] |= 1 << pos % width
    return tuple(masks)


def _every_budget(search, a, m_max, s_max, nodes):
    """Outcome of ``search`` at every budget from 1 to nodes + 1."""
    return [_outcome(search, a, m_max, s_max, b) for b in range(1, nodes + 2)]


def _expected_budget_outcomes(result):
    """A search whose full run counts ``result.nodes`` pairs returns the
    same result at any budget >= nodes and raises at pair budget + 1 below."""
    return [
        (
            "budget",
            f"search explored {b + 1} support pairs; budget is {b}",
        )
        for b in range(1, result.nodes)
    ] + [result, result]


class TestPrunedEnumeration:
    """The rewrite generates only the supports that pass pruning, with
    their lex ranks, and tests each B support against all tabled C
    supports at once; ``nodes``, witnesses and budgets stay the seed's."""

    def test_supports_are_the_pruned_lex_order(self):
        rng = random.Random(5)
        for rows, width in [(1, 1), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 2)]:
            cells = rows * width
            full_rows, full_cols = (1 << rows) - 1, (1 << width) - 1
            params = [
                (0, 0, 0, 0),
                (full_rows, 0, 0, min(rows, width)),
                (0, full_cols, min(rows, width), 0),
                (rng.randrange(1 << rows), rng.randrange(1 << width),
                 rng.randint(0, rows), rng.randint(0, width)),
            ]
            for size in range(cells + 1):
                for need_rows, need_cols, min_rows, min_cols in params:
                    expected = [
                        (idx, _row_masks_of(supp, rows, width))
                        for idx, supp in enumerate(combinations(range(cells), size))
                        if _passes(supp, rows, width, need_rows, need_cols,
                                   min_rows, min_cols)
                    ]
                    got = _supports(
                        rows, width, size, need_rows, need_cols, min_rows, min_cols
                    )
                    assert got == expected, (rows, width, size)

    def test_4x4_f2_targets_with_budget(self):
        rng = random.Random(2024)
        outcomes = set()
        for _ in range(12):
            density = rng.choice((0.2, 0.35, 0.5))
            a = ExactMatrix(
                F2, 4, 4, tuple(int(rng.random() < density) for _ in range(16))
            )
            m_max, s_max = rng.randint(max(1, rank(a)), 4), rng.randint(6, 9)
            ref = _outcome(_ref_min_depth2_sparsity, a, m_max, s_max, 100_000)
            assert _outcome(min_depth2_sparsity, a, m_max, s_max, 100_000) == ref
            if isinstance(ref, SearchResult):
                outcomes.add("found" if ref.s_min is not None else "none")
            else:
                outcomes.add("budget")
        assert outcomes == {"found", "none", "budget"}

    def test_f3_targets_with_zero_lines_and_deficient_rank(self):
        rng = random.Random(33)
        F3 = prime_field(3)
        ranks = set()
        for _ in range(16):
            u = [[rng.randrange(3) for _ in range(2)] for _ in range(3)]
            v = [[rng.randrange(3) for _ in range(3)] for _ in range(2)]
            entries = [
                sum(u[i][k] * v[k][j] for k in range(2)) % 3
                for i in range(3)
                for j in range(3)
            ]
            zero_row, zero_col = rng.randrange(3), rng.randrange(3)
            for t in range(3):
                entries[zero_row * 3 + t] = 0
                entries[t * 3 + zero_col] = 0
            a = ExactMatrix(F3, 3, 3, tuple(entries))
            ranks.add(rank(a))
            m_max, s_max = rng.randint(1, 4), rng.randint(3, 8)
            assert _outcome(min_depth2_sparsity, a, m_max, s_max) == _outcome(
                _ref_min_depth2_sparsity, a, m_max, s_max
            )
        assert ranks == {0, 1, 2}

    def test_m_max_below_n(self):
        rng = random.Random(8)
        seen = set()
        for p, n in [(2, 3), (3, 3), (2, 4), (3, 4)]:
            for _ in range(3):
                a = _random_target(rng, p, n)
                for m_max in range(1, n):
                    s_max = 7 if n == 4 else 8
                    ref = _outcome(_ref_min_depth2_sparsity, a, m_max, s_max, 50_000)
                    got = _outcome(min_depth2_sparsity, a, m_max, s_max, 50_000)
                    assert got == ref
                    if m_max < rank(a):  # no middle width is tried
                        assert ref == SearchResult(None, None, 0, s_max, m_max)
                        seen.add("below rank")
                    elif isinstance(ref, SearchResult):
                        seen.add(ref.s_min is not None)
        assert seen == {"below rank", True, False}

    def test_every_budget_on_small_searches(self):
        """At each budget the search returns the full result or raises at
        pair budget + 1, wherever that pair falls: on a C support pruned by
        its own rule, on one sharing no middle index with B, on one whose
        values were tried, on the hit, or inside a B support counted in
        bulk because no tabled C support passes its test."""
        rng = random.Random(12)
        cases = [
            (from_rows(prime_field(3), [[1, 2, 1], [0, 2, 0], [1, 0, 1]]), 2, 7),
            (from_rows(F2, [[1, 0, 1], [0, 0, 1], [0, 0, 1]]), 3, 6),
        ]
        while len(cases) < 14:
            p, n = rng.choice([(2, 2), (2, 3), (3, 2), (3, 3)])
            cases.append((_random_target(rng, p, n), rng.randint(1, 4),
                          rng.randint(2, 2 * n + 1)))
        landed = set()
        for a, m_max, s_max in cases:
            kinds = []
            ref = _outcome(
                _ref_min_depth2_sparsity, a, m_max, s_max, 1200, kinds=kinds
            )
            if not isinstance(ref, SearchResult) or not ref.nodes:
                continue
            got = _every_budget(min_depth2_sparsity, a, m_max, s_max, ref.nodes)
            assert got == _expected_budget_outcomes(ref)
            for b, (block, kind) in enumerate(kinds):  # pair b + 1
                landed.add(kind)
                later = {k for blk, k in kinds[b:] if blk == block}
                if not later & {"assigned", "hit"}:
                    landed.add("bulk")
        assert landed == {"c-pruned", "unshared", "assigned", "hit", "bulk"}

    def test_budget_outcomes_of_the_seed(self):
        """The seed search itself raises at pair budget + 1 below the hit
        and returns the hit from its pair count on."""
        a = from_rows(prime_field(3), [[1, 2, 1], [0, 2, 0], [1, 0, 1]])
        ref = _ref_min_depth2_sparsity(a, 2, 7)
        assert (ref.s_min, ref.nodes) == (7, 245)
        assert [
            _outcome(_ref_min_depth2_sparsity, a, 2, 7, b) for b in range(1, 247)
        ] == _expected_budget_outcomes(ref)

    def test_dense_4x4_target(self):
        """The dense F_2 target the seed search needs ~80 s for; result,
        witness and ``nodes`` as the seed search records them."""
        a = from_rows(F2, [[1, 1, 1, 0], [1, 0, 1, 1], [0, 1, 1, 1], [1, 1, 0, 1]])
        result = min_depth2_sparsity(a, s_max=14, budget=3 * 10**8)
        assert (result.s_min, result.nodes) == (14, 271_309_209)
        assert emit_slc(result.witness) == (
            "field prime 2\nlayer 4 4\n1 1 1\n1 2 1\n2 1 1\n2 3 1\n3 1 1\n"
            "3 4 1\n4 2 1\nend\nlayer 4 4\n1 3 1\n1 4 1\n2 1 1\n2 2 1\n"
            "2 4 1\n3 1 1\n4 2 1\nend\n"
        )
        with pytest.raises(BudgetExceeded, match="^search explored 271309209 "):
            min_depth2_sparsity(a, s_max=14, budget=271_309_208)

    @pytest.mark.parametrize("p", [2, 3])
    def test_assign_values_column_by_column(self, p):
        """The column-wise solve against the product-order enumerator on
        random supports, half of them with a target they reach."""
        rng = random.Random(p)
        values = list(range(1, p))
        solved = {}
        hits = 0
        for trial in range(300):
            n, m = rng.randint(1, 4), rng.randint(1, 4)
            b_supp = sorted(rng.sample(range(n * m), rng.randint(0, min(5, n * m))))
            c_supp = sorted(rng.sample(range(m * n), rng.randint(0, min(5, m * n))))
            b_pos = [divmod(pos, m) for pos in b_supp]
            c_pos = [divmod(pos, n) for pos in c_supp]
            if trial % 2:
                b = {cell: rng.choice(values) for cell in b_pos}
                c = {cell: rng.choice(values) for cell in c_pos}
                a_flat = tuple(
                    sum(b.get((i, k), 0) * c.get((k, j), 0) for k in range(m)) % p
                    for i in range(n)
                    for j in range(n)
                )
            else:
                a_flat = tuple(rng.randrange(p) for _ in range(n * n))
            expected = _ref_assign_values(a_flat, n, m, p, b_pos, c_pos, values)
            assert _assign_values(a_flat, n, m, p, b_pos, c_pos, values, {}) == expected
            assert _assign_values(a_flat, n, m, p, b_pos, c_pos, values, solved) == (
                expected
            )
            hits += expected is not None
        assert 150 <= hits < 300

    def test_witness_is_multiplied_out(self, monkeypatch):
        """A column solve that ignores its target gives a witness whose
        product is not A; the search re-checks it and refuses it."""
        a = from_rows(prime_field(3), [[1, 0], [0, 1]])
        assert min_depth2_sparsity(a, s_max=4).s_min == 4
        monkeypatch.setattr(
            circuits,
            "_solve_column",
            lambda p, target, b_cols, values: (values[-1],) * len(b_cols),
        )
        with pytest.raises(RuntimeError, match="^depth-2 witness does not multiply"):
            min_depth2_sparsity(a, s_max=4)


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


def _with_unit_columns(g, slots):
    """g with a column e_i appended for each i in slots: kernel vectors of
    the result are those of g that vanish at every such slot."""
    rows = [list(g.row(i)) + [int(i == j) for j in slots] for i in range(g.rows)]
    return from_rows(g.field, rows)


def _random_with_kernel_dim(rng, p, rows, dim):
    while True:
        cols = rows - dim
        entries = tuple(rng.randrange(p) for _ in range(rows * cols))
        g = ExactMatrix(prime_field(p), rows, cols, entries)
        if rank(g) == cols:
            return g


class TestKernelWeightLastCoordinate:
    """The last basis vector is counted, not enumerated: slot by slot."""

    def test_last_basis_vector_with_zero_slots(self):
        rng = random.Random(4)
        cases = [
            _with_unit_columns(rs_generator(RSParams(7, 3)), [0]),
            _with_unit_columns(rs_generator(RSParams(7, 2)), [0, 6]),
        ]
        for p in (2, 3, 5, 7):
            for dim in (2, 3):
                rows = rng.randint(dim + 1, 6)
                cases.append(_random_with_kernel_dim(rng, p, rows, dim))
        stuck = 0
        for g in cases:
            basis = nullspace(transpose(g))
            assert len(basis) >= 2 and 0 in basis[-1]
            # a slot that every kernel vector leaves zero
            stuck += any(not any(b[i] for b in basis) for i in range(g.rows))
            assert min_kernel_weight(g) == _ref_min_kernel_weight(g)
        assert stuck >= 2

    def test_dimension_one(self):
        rng = random.Random(1)
        cases = [rs_generator(RSParams(q, q - 1)) for q in (3, 5, 7, 13)]
        cases += [_random_with_kernel_dim(rng, p, 4, 1) for p in (2, 3, 5, 13)]
        for g in cases:
            assert len(nullspace(transpose(g))) == 1
            assert min_kernel_weight(g) == _ref_min_kernel_weight(g)
        assert [min_kernel_weight(g) for g in cases[:4]] == [3, 5, 7, 13]

    def test_p13_dimensions_4_and_5(self):
        rng = random.Random(13)
        cases = [
            rs_generator(RSParams(13, 9)),
            _random_with_kernel_dim(rng, 13, 6, 4),
            _random_with_kernel_dim(rng, 13, 7, 5),
        ]
        for g in cases:
            assert len(nullspace(transpose(g))) in (4, 5)
            assert min_kernel_weight(g) == _ref_min_kernel_weight(g)
        assert min_kernel_weight(cases[0]) == 10

    def test_weight_one_exit(self):
        """Kernels holding a weight-1 vector e_i.  In the reduced echelon
        basis e_i is itself a basis vector: the last one, or an earlier one
        found while the walk counts."""
        rng = random.Random(11)
        seen = set()
        for _ in range(300):
            p = rng.choice((3, 5))
            rows = rng.randint(3, 5)
            cols = rng.randint(1, rows - 2)
            entries = tuple(rng.randrange(p) for _ in range(rows * cols))
            g = ExactMatrix(prime_field(p), rows, cols, entries)
            expected = _ref_min_kernel_weight(g)
            assert min_kernel_weight(g) == expected
            if expected == 1:
                basis = nullspace(transpose(g))
                seen.add(sum(1 for x in basis[-1] if x) == 1)
        assert seen == {True, False}


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
