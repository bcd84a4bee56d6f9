"""Sidon grid construction and the brute-force distinct-sums verifier."""

from itertools import combinations
from math import comb

import pytest

from hardmat.budgets import BudgetExceeded, comb_within
from hardmat.sidon import construct_sidon, verify_tsum_distinct


class TestConstruct:
    def test_n2_t1(self):
        s = construct_sidon(2, 1)
        assert s.p == 5
        assert s.grid == ((1, 2), (4, 3))

    def test_n2_t2(self):
        s = construct_sidon(2, 2)
        assert s.p == 11
        assert s.grid == ((1, 2), (4, 8))
        sums = sorted(a + b for a, b in combinations(s.elements(), 2))
        assert sums == sorted([3, 5, 9, 6, 10, 12])

    def test_singleton(self):
        s = construct_sidon(1, 1)
        assert s.p == 2
        assert s.grid == ((1,),)

    def test_grid_layout_is_row_major_powers(self):
        s = construct_sidon(3, 1)
        for i in range(1, 4):
            for j in range(1, 4):
                assert s.grid[i - 1][j - 1] == pow(2, (i - 1) * 3 + (j - 1), s.p)

    def test_determinism(self):
        a = construct_sidon(3, 2)
        b = construct_sidon(3, 2)
        assert a == b

    def test_constructed_sets_verify(self):
        for n, t in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]:
            s = construct_sidon(n, t)
            assert verify_tsum_distinct(s, t)
            assert len(set(s.elements())) == n * n
            assert max(s.elements()) < s.p

    def test_prime_budget_reported(self, monkeypatch):
        monkeypatch.setattr("hardmat.sidon.SIDON_PRIME_BUDGET", 20)
        with pytest.raises(BudgetExceeded, match="budget"):
            construct_sidon(3, 2)

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            construct_sidon(0, 1)
        with pytest.raises(ValueError):
            construct_sidon(2, 5)  # t > n^2


class TestVerify:
    def test_powers_of_two_pairs(self):
        assert verify_tsum_distinct([1, 2, 4, 8], 2)

    def test_collision_detected(self):
        assert not verify_tsum_distinct([1, 2, 3, 4], 2)  # 1+4 == 2+3

    def test_small_distinct_triple(self):
        assert verify_tsum_distinct([1, 2, 3], 2)  # sums 3, 4, 5

    def test_t1_is_distinctness(self):
        assert verify_tsum_distinct([3, 1, 4], 1)
        assert not verify_tsum_distinct([3, 1, 3], 1)

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            verify_tsum_distinct(range(100), 5)  # C(100, 5) = 75,287,520 sums

    def test_sum_count_matches_comb_until_it_passes_the_cap(self):
        for n in range(12):
            for k in range(n + 1):
                for cap in (1, 5, 50, 500):
                    count = comb_within(n, k, cap)
                    if count is None:
                        assert comb(n, k) > cap
                    else:
                        assert count == comb(n, k)
        # past the cap only at its last factor: returned in full
        assert comb_within(100, 5, 5_000_000) == 75_287_520
        assert comb_within(10**80, 10**40, 5_000_000) is None

    def test_accepts_sidon_set(self):
        s = construct_sidon(2, 2)
        assert verify_tsum_distinct(s, 2)


class TestNonMonotonicity:
    def test_t_wise_does_not_imply_lower_order(self):
        # search tiny ground sets for a witness: distinct 3-sums, colliding 2-sums
        witness = None
        for universe in combinations(range(1, 7), 4):
            if verify_tsum_distinct(universe, 3) and not verify_tsum_distinct(
                universe, 2
            ):
                witness = universe
                break
        assert witness == (1, 2, 3, 4)

    def test_construction_rechecks_requested_t_only(self):
        # independent minimal-prime scan per t: the builder must search each
        # order on its own, not derive one from another
        def minimal_prime(n, t):
            p = n * n + 1
            while True:
                if all(p % d for d in range(2, p)):
                    residues = [pow(2, i, p) for i in range(n * n)]
                    if len(set(residues)) == n * n and verify_tsum_distinct(
                        residues, t
                    ):
                        return p
                p += 1

        for n, t in [(2, 1), (2, 2), (3, 1), (3, 2)]:
            assert construct_sidon(n, t).p == minimal_prime(n, t)
        # and the witnesses genuinely differ across orders
        assert construct_sidon(2, 1).p != construct_sidon(2, 2).p
