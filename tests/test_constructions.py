"""Hard-matrix constructions: exponent grids, instantiations, amplification."""

import re
from math import ceil, log2

import pytest

from hardmat import constructions
from hardmat.budgets import BudgetExceeded
from hardmat.constructions import (
    amplify_direct_sum,
    hard_over_finite,
    hard_over_integers,
    quasipoly_hard,
    rebuild,
    trivial_hard,
    univariate_hard,
)
from hardmat.fields import INTEGER_RING, find_irreducible
from hardmat.matrices import from_rows, identity, kronecker, sparsity


class TestUnivariate:
    def test_n2_t1(self):
        e = univariate_hard(2, 1)
        assert e.exponents == ((1, 2), (4, 3))
        assert e.max_degree == 4

    def test_singleton(self):
        e = univariate_hard(1, 1)
        assert e.exponents == ((1,),)
        assert e.max_degree == 1

    def test_n2_t2(self):
        e = univariate_hard(2, 2)
        assert e.exponents == ((1, 2), (4, 8))
        assert e.max_degree == 8

    def test_grid_matches_source(self):
        e = univariate_hard(3, 2)
        assert e.exponents == e.source.grid
        assert e.max_degree < e.source.p


class TestHardOverFinite:
    def test_p2_n1_t1(self):
        b = hard_over_finite(2, 1, 1)
        assert b.parameters == {"p": 2, "n": 1, "t": 1, "D": 10}
        field = b.matrix.field
        assert field.degree == 11
        assert field.modulus == find_irreducible(2, 11)
        # the single entry is alpha itself
        assert b.matrix.at(0, 0) == tuple(1 if i == 1 else 0 for i in range(11))

    def test_p3_n2_t1_unit_patterns(self):
        b = hard_over_finite(3, 2, 1)
        assert b.parameters["D"] == 40
        assert b.matrix.field.degree == 41
        exponents = univariate_hard(2, 1).exponents
        for i in range(2):
            for j in range(2):
                entry = b.matrix.at(i, j)
                nonzero = [k for k, c in enumerate(entry) if c]
                assert nonzero == [exponents[i][j]]
                assert entry[exponents[i][j]] == 1

    def test_exponents_stay_below_reduction_threshold(self):
        b = hard_over_finite(2, 2, 2)
        e = univariate_hard(2, 2)
        assert e.max_degree <= b.parameters["D"] < b.matrix.field.degree


class TestHardOverIntegers:
    def test_n2_t1(self):
        b = hard_over_integers(2, 1)
        assert b.matrix == from_rows(INTEGER_RING, [[2, 4], [16, 8]])

    def test_singleton(self):
        assert hard_over_integers(1, 1).matrix.entries == (2,)

    def test_n2_t2(self):
        b = hard_over_integers(2, 2)
        assert b.matrix == from_rows(INTEGER_RING, [[2, 4], [16, 256]])

    def test_log2_recovers_exponents(self):
        b = hard_over_integers(3, 2)
        grid = univariate_hard(3, 2).exponents
        for i in range(3):
            for j in range(3):
                entry = b.matrix.at(i, j)
                assert entry == 1 << grid[i][j]

    def test_exponent_budget(self, monkeypatch):
        monkeypatch.setattr(constructions, "MAX_EXPONENT_BITS", 4)
        with pytest.raises(BudgetExceeded):
            hard_over_integers(2, 2)


class TestTrivialHard:
    def test_n1(self):
        assert trivial_hard(1).matrix.entries == (4,)

    def test_n2_values(self):
        assert trivial_hard(2).matrix == from_rows(
            INTEGER_RING, [[2**2, 2**4], [2**16, 2**32]]
        )

    def test_entries_strictly_increase_row_major(self):
        entries = trivial_hard(3).matrix.entries
        assert all(a < b for a, b in zip(entries, entries[1:]))

    def test_cap(self):
        with pytest.raises(BudgetExceeded):
            trivial_hard(5)


class TestAmplify:
    def test_single_copy(self):
        a = trivial_hard(2).matrix
        assert amplify_direct_sum(a, 1) == a

    def test_two_copies_block_structure(self):
        a = from_rows(INTEGER_RING, [[1, 2], [3, 4]])
        b = amplify_direct_sum(a, 2)
        assert (b.rows, b.cols) == (4, 4)
        for blk in range(2):
            for i in range(2):
                for j in range(2):
                    assert b.at(blk * 2 + i, blk * 2 + j) == a.at(i, j)
        assert b.at(0, 2) == 0 and b.at(3, 1) == 0

    def test_sparsity_scales(self):
        a = from_rows(INTEGER_RING, [[1, 0], [2, 3]])
        for m in (1, 2, 3):
            assert sparsity(amplify_direct_sum(a, m)).total == m * sparsity(a).total

    def test_matches_kronecker(self):
        a = from_rows(INTEGER_RING, [[1, 2], [3, 4]])
        assert amplify_direct_sum(a, 3) == kronecker(identity(INTEGER_RING, 3), a)


class TestQuasipoly:
    def test_n4_c1(self):
        b = quasipoly_hard(4, 1.0)
        assert b.parameters["k"] == 2
        expected = kronecker(identity(INTEGER_RING, 2), trivial_hard(2).matrix)
        assert b.matrix == expected

    def test_single_block_when_k_equals_n(self):
        b = quasipoly_hard(4, 2.0)  # log2(4)^2 = 4, and 4 | 4
        assert b.parameters["k"] == 4
        assert b.matrix == trivial_hard(4).matrix

    def test_n6_c1_smallest_admissible_divisor(self):
        # ceil(log2(6)) = 3; divisors of 6 in [3, 6] start at 3
        b = quasipoly_hard(6, 1.0)
        assert b.parameters["k"] == 3
        assert (b.matrix.rows, b.matrix.cols) == (6, 6)

    def test_no_admissible_divisor(self):
        with pytest.raises(ValueError, match=r"^no divisor of 7 lies in \[3, 6\]$"):
            quasipoly_hard(7, 1.0)  # divisors 1 and 7; window is [3, 6]

    def test_block_cap_propagates(self):
        with pytest.raises(BudgetExceeded):
            quasipoly_hard(25, 2.0)  # k = 5 exceeds the doubly-exponential cap

    def test_large_c_returns_at_once(self):
        # log2(6)^50 ~ 4.2e20: the window lies past n, so nothing is scanned
        with pytest.raises(
            ValueError,
            match=r"^no divisor of 6 lies in \[ceil\(log2\(6\)\^50.0\), "
            r"2\*ceil\(log2\(6\)\^50.0\)\]$",
        ):
            quasipoly_hard(6, 50.0)

    def test_window_past_n_is_named_by_formula(self):
        # log2(3)^1000 has ~200 digits; the message names it, not its value
        with pytest.raises(ValueError) as info:
            quasipoly_hard(3, 1000.0)
        assert str(info.value) == (
            "no divisor of 3 lies in [ceil(log2(3)^1000.0), 2*ceil(log2(3)^1000.0)]"
        )

    def test_overflowing_c_is_a_located_value_error(self):
        with pytest.raises(ValueError, match=r"c=1000.0 is too large"):
            quasipoly_hard(6, 1000.0)

    @pytest.mark.parametrize("c", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_c(self, c):
        with pytest.raises(ValueError, match="c must be finite"):
            quasipoly_hard(6, c)

    def test_clipped_window_keeps_every_block_side(self):
        def seed_block_side(n, c):  # the unclipped scan
            target = ceil(log2(n) ** c)
            window = range(target, 2 * target + 1)
            return next((d for d in window if d <= n and n % d == 0), None)

        def block_side(n, c):
            try:
                return quasipoly_hard(n, c).parameters["k"]
            except BudgetExceeded as exc:  # built past the cap: k is named
                return int(re.match(r"n=(\d+) exceeds", str(exc)).group(1))
            except ValueError:
                return None

        for n in range(2, 65):
            for c in (0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0):
                assert block_side(n, c) == seed_block_side(n, c), (n, c)


class TestRebuild:
    @pytest.mark.parametrize(
        "bundle",
        [
            lambda: hard_over_finite(2, 2, 1),
            lambda: hard_over_integers(2, 2),
            lambda: trivial_hard(2),
            lambda: quasipoly_hard(4, 1.0),
        ],
    )
    def test_bit_identical(self, bundle):
        first = bundle()
        again = rebuild(first)
        assert again == first
