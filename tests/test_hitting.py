"""Probe vectors, Reed-Solomon kernels, the hard PSD pair, and refuters."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardmat import budgets, hitting
from hardmat.budgets import BudgetExceeded
from hardmat.fields import RATIONAL_FIELD, prime_field
from hardmat.hitting import (
    PsdPair,
    RSParams,
    build_hard_psd,
    hit_inner,
    min_kernel_weight,
    refute_invertible,
    refute_symmetric,
    rs_generator,
    rs_vectors,
    sparse_row_hit,
    vandermonde_vectors,
)
from hardmat.matrices import (
    from_rows,
    identity,
    matmul,
    nullspace,
    rank,
    transpose,
    vandermonde,
    zeros,
)

QQ = RATIONAL_FIELD


def _matvec(m, v):
    return tuple(
        sum(m.at(i, j) * v[j] for j in range(m.cols)) for i in range(m.rows)
    )


class TestVandermondeVectors:
    def test_two_probes_in_dim_three(self):
        hv = vandermonde_vectors(3, 2)
        assert hv.vectors == ((1, 1, 1), (1, 2, 4))

    def test_dim_one(self):
        assert vandermonde_vectors(1, 1).vectors == ((1,),)

    def test_full_set_matches_vandermonde_rows(self):
        hv = vandermonde_vectors(4, 4)
        v = vandermonde(QQ, range(1, 5), 4)
        for i in range(4):
            assert tuple(hv.vectors[i]) == tuple(v.row(i))

    def test_bad_threshold(self):
        with pytest.raises(ValueError):
            vandermonde_vectors(3, 0)
        with pytest.raises(ValueError):
            vandermonde_vectors(3, 4)

    def test_digit_charge_bounds_the_printed_digits(self, monkeypatch):
        hv = vandermonde_vectors(100, 100)  # 787,076 digits, charged 874,267
        assert sum(len(str(x)) for v in hv.vectors for x in v) == 787076
        monkeypatch.setattr(budgets, "DEFAULT_ENUMERATION_BUDGET", 1)
        for n, s in [(2, 1), (7, 5), (30, 17), (64, 64), (100, 100)]:
            with pytest.raises(BudgetExceeded) as info:
                vandermonde_vectors(n, s)
            charged = int(str(info.value).split(" take up to ")[1].split()[0])
            powers = (i**j for i in range(1, s + 1) for j in range(n))
            assert charged >= sum(len(str(x)) for x in powers)

    def test_digit_charge_refuses_before_building(self):
        with pytest.raises(BudgetExceeded, match="past the budget of 1000000"):
            vandermonde_vectors(10**9, 10**9)

    def test_psd_build_is_not_charged(self, monkeypatch):
        monkeypatch.setattr(budgets, "DEFAULT_ENUMERATION_BUDGET", 1)
        pair = build_hard_psd(8)
        monkeypatch.undo()
        assert pair.probes == vandermonde_vectors(8, 4)


class TestSparseRowHit:
    def test_unit_vector(self):
        hv = vandermonde_vectors(8, 4)
        r = (1,) + (0,) * 7
        assert sparse_row_hit(r, 1, hv) == 1

    def test_one_minus_x(self):
        hv = vandermonde_vectors(8, 4)
        r = (1, -1) + (0,) * 6
        assert sparse_row_hit(r, 2, hv) == 2

    def test_two_positive_roots(self):
        # coefficients of (x-1)(x-2) = 2 - 3x + x^2: roots at nodes 1 and 2
        hv = vandermonde_vectors(8, 4)
        r = (2, -3, 1) + (0,) * 5
        assert sparse_row_hit(r, 3, hv) == 3

    def test_zero_row_rejected(self):
        hv = vandermonde_vectors(4, 2)
        with pytest.raises(ValueError):
            sparse_row_hit((0, 0, 0, 0), 1, hv)

    def test_too_dense_rejected(self):
        hv = vandermonde_vectors(4, 2)
        with pytest.raises(ValueError):
            sparse_row_hit((1, 1, 1, 0), 2, hv)

    def test_threshold_beyond_probes_rejected(self):
        hv = vandermonde_vectors(4, 2)
        with pytest.raises(ValueError):
            sparse_row_hit((1, 0, 0, 0), 3, hv)

    @settings(max_examples=200)
    @given(data=st.data())
    def test_descartes_guarantee(self, data):
        n = 16
        hv = vandermonde_vectors(n, n // 2)
        s = data.draw(st.integers(1, n // 2))
        nnz = data.draw(st.integers(1, s))
        positions = data.draw(
            st.lists(st.integers(0, n - 1), min_size=nnz, max_size=nnz, unique=True)
        )
        values = data.draw(
            st.lists(
                st.integers(-5, 5).filter(bool), min_size=nnz, max_size=nnz
            )
        )
        r = [0] * n
        for p, v in zip(positions, values):
            r[p] = v
        assert sparse_row_hit(tuple(r), s, hv) <= s

    @settings(max_examples=100)
    @given(data=st.data())
    def test_finite_field_guarantee(self, data):
        q = 11
        s = data.draw(st.integers(1, 6))
        hv = rs_vectors(q, s)
        nnz = data.draw(st.integers(1, s))
        positions = data.draw(
            st.lists(st.integers(0, q - 1), min_size=nnz, max_size=nnz, unique=True)
        )
        values = data.draw(
            st.lists(st.integers(1, q - 1), min_size=nnz, max_size=nnz)
        )
        r = [0] * q
        for p, v in zip(positions, values):
            r[p] = v
        assert sparse_row_hit(tuple(r), s, hv) <= s


class TestReedSolomon:
    def test_generator_rows(self):
        g = rs_generator(RSParams(5, 2))
        assert g == from_rows(
            prime_field(5), [[1, 0], [1, 1], [1, 2], [1, 3], [1, 4]]
        )

    def test_dimension_one_is_all_ones(self):
        g = rs_generator(RSParams(3, 1))
        assert g.entries == (1, 1, 1)

    def test_column_space_is_low_degree_evaluations(self):
        # columns evaluate 1 and z at every field element
        g = rs_generator(RSParams(5, 2))
        assert g.col(0) == (1, 1, 1, 1, 1)
        assert g.col(1) == (0, 1, 2, 3, 4)

    def test_params_validated(self):
        with pytest.raises(ValueError):
            RSParams(6, 2)
        with pytest.raises(ValueError):
            RSParams(5, 5)


class TestMinKernelWeight:
    def test_nullspace_members_annihilate(self):
        g = rs_generator(RSParams(5, 3))
        gt_rows = [list(g.col(j)) for j in range(g.cols)]
        basis = nullspace(transpose(g))
        assert len(basis) == g.rows - g.cols
        for w in basis:
            for row in gt_rows:
                assert sum(a * b for a, b in zip(row, w)) % 5 == 0

    def test_rs_5_2(self):
        assert min_kernel_weight(rs_generator(RSParams(5, 2))) == 3

    def test_rs_7_3(self):
        assert min_kernel_weight(rs_generator(RSParams(7, 3))) == 4

    def test_identity_kernel_is_zero(self):
        assert min_kernel_weight(identity(prime_field(5), 3)) is None

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            min_kernel_weight(rs_generator(RSParams(11, 1)), budget=1000)


class TestHitInner:
    def test_identity(self):
        m = identity(QQ, 3)
        e1 = (1, 0, 0)
        assert hit_inner(m, e1, e1) == 1

    def test_kernel_vector(self):
        m = from_rows(QQ, [[1, -1], [-1, 1]])
        assert hit_inner(m, (1, 1), (1, 1)) == 0

    def test_zero_vector(self):
        m = from_rows(QQ, [[1, 2], [3, 4]])
        assert hit_inner(m, (0, 0), (1, 1)) == 0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            hit_inner(identity(QQ, 2), (1, 0, 0), (1, 0))

    @settings(max_examples=50)
    @given(data=st.data())
    def test_bilinearity(self, data):
        ints = st.integers(-5, 5)
        m = from_rows(
            QQ, [[data.draw(ints) for _ in range(3)] for _ in range(3)]
        )
        a = tuple(data.draw(ints) for _ in range(3))
        a2 = tuple(data.draw(ints) for _ in range(3))
        b = tuple(data.draw(ints) for _ in range(3))
        lhs = hit_inner(m, tuple(x + y for x, y in zip(a, a2)), b)
        assert lhs == hit_inner(m, a, b) + hit_inner(m, a2, b)


class TestBuildHardPsd:
    def test_n2_instance(self):
        pair = build_hard_psd(2)
        assert pair.mtilde == from_rows(QQ, [[0, 0], [-1, 1]])
        assert pair.m == from_rows(QQ, [[1, -1], [-1, 1]])
        assert rank(pair.m) == 1
        v1 = pair.probes.vectors[0]
        assert hit_inner(pair.m, v1, v1) == 0

    def test_n4_invariants(self):
        pair = build_hard_psd(4)
        assert pair.m == matmul(transpose(pair.mtilde), pair.mtilde)
        assert pair.m == transpose(pair.m)
        assert rank(pair.m) == 2
        all_probes = vandermonde_vectors(4, 4).vectors
        for i in range(1, 3):
            assert _matvec(pair.mtilde, all_probes[i - 1]) == (0, 0, 0, 0)
            assert hit_inner(pair.m, all_probes[i - 1], all_probes[i - 1]) == 0
        for i in range(3, 5):
            image = _matvec(pair.mtilde, all_probes[i - 1])
            assert image == tuple(1 if k == i - 1 else 0 for k in range(4))

    def test_odd_n_rejected(self):
        with pytest.raises(ValueError):
            build_hard_psd(3)

    def test_budget(self):
        with pytest.raises(BudgetExceeded, match="n=66 exceeds the exact-solve cap 64"):
            build_hard_psd(66)


def _patched(monkeypatch, name, change):
    """Replace hitting.<name> by a version whose result goes through change."""
    real = getattr(hitting, name)
    monkeypatch.setattr(hitting, name, lambda *args: change(real(*args)))


class TestBuildChecksAreLive:
    """Each exact re-check in build_hard_psd fires on its own defect."""

    def test_wrong_lagrange_row(self, monkeypatch):
        def bump(result):
            big_l, rows = result
            rows[-1][0] += 1
            return big_l, rows

        _patched(monkeypatch, "_lagrange_rows", bump)
        with pytest.raises(RuntimeError, match="probe images are wrong"):
            build_hard_psd(8)

    def test_asymmetric_gram(self, monkeypatch):
        def skew(gram):
            gram[0][1] += 1
            return gram

        _patched(monkeypatch, "_gram", skew)
        with pytest.raises(RuntimeError, match="m is not symmetric"):
            build_hard_psd(8)

    def test_gram_not_killing_a_probe(self, monkeypatch):
        def bump(gram):
            gram[0][0] += 1  # v_1^T m v_1 grows by 1
            return gram

        _patched(monkeypatch, "_gram", bump)
        with pytest.raises(RuntimeError, match=r"v_i\^T m v_i != 0"):
            build_hard_psd(8)

    def test_gram_of_too_few_rows(self, monkeypatch):
        real = hitting._gram
        monkeypatch.setattr(hitting, "_gram", lambda rows: real(rows[1:]))
        with pytest.raises(RuntimeError, match=r"rank\(m\) != n/2"):
            build_hard_psd(8)


class TestRefuteSymmetric:
    def test_gram_factor_itself(self):
        pair = build_hard_psd(2)
        verdict = refute_symmetric(pair.mtilde, pair)
        assert verdict.kind == "sparsity-at-least-quarter"
        assert verdict.sparsity == 2
        assert verdict.bound == 1

    def test_zero_factor(self):
        pair = build_hard_psd(2)
        verdict = refute_symmetric(zeros(QQ, 2, 2), pair)
        assert verdict.kind == "not-a-factorization"
        assert verdict.witness_entry == (1, 1)

    def test_identity_factor(self):
        pair = build_hard_psd(2)
        verdict = refute_symmetric(identity(QQ, 2), pair)
        assert verdict.kind == "not-a-factorization"

    def test_rectangular_factor_allowed(self):
        pair = build_hard_psd(2)
        b = from_rows(QQ, [[0, 0], [-1, 1], [0, 0]])
        verdict = refute_symmetric(b, pair)
        assert verdict.kind == "sparsity-at-least-quarter"

    def test_wrong_width_rejected(self):
        pair = build_hard_psd(2)
        with pytest.raises(ValueError):
            refute_symmetric(zeros(QQ, 2, 3), pair)

    def test_doctored_pair_yields_hitting_witness(self):
        # a fake pair whose "m" admits a very sparse Gram factor: the hitting
        # branch must surface the probe index certifying the inconsistency
        b = zeros(QQ, 4, 4)
        b = from_rows(QQ, [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
        fake_m = matmul(transpose(b), b)
        fake = PsdPair(4, b, fake_m, vandermonde_vectors(4, 2))
        verdict = refute_symmetric(b, fake)
        assert verdict.kind == "sparse-hitting-witness"
        assert verdict.witness_index == 1
        assert verdict.value == 1  # v_1^T (B^T B) v_1 = 1


    def test_sparse_factor_without_a_sparse_row_is_refused(self):
        # a doctored pair: B has 3 < n^2/4 nonzeros and B^T B is "m", yet its
        # one row has more than n/2 nonzeros
        b = from_rows(QQ, [[1, 1, 1, 0]])
        fake = PsdPair(4, b, matmul(transpose(b), b), vandermonde_vectors(4, 2))
        with pytest.raises(ValueError) as exc:
            refute_symmetric(b, fake)
        assert str(exc.value) == (
            "factorization is sparse but has no row with <= n/2 nonzeros; "
            "the pair does not satisfy the PSD invariants"
        )


class TestRefuteInvertible:
    def test_identity_times_m(self):
        pair = build_hard_psd(2)
        verdict = refute_invertible(identity(QQ, 2), pair.m, "left-invertible", pair)
        assert verdict.kind == "sparsity-at-least-quarter"
        assert verdict.sparsity == 4

    def test_singular_designated_factor(self):
        pair = build_hard_psd(2)
        singular = from_rows(QQ, [[1, 1], [1, 1]])
        # product check runs first, so make the product match m
        verdict = refute_invertible(pair.m, identity(QQ, 2), "left-invertible", pair)
        assert verdict.kind == "invertibility-failure"
        assert singular is not None

    def test_product_mismatch(self):
        pair = build_hard_psd(2)
        verdict = refute_invertible(
            identity(QQ, 2), identity(QQ, 2), "left-invertible", pair
        )
        assert verdict.kind == "product-mismatch"
        assert verdict.witness_entry is not None

    def test_dimension_checked(self):
        pair = build_hard_psd(2)
        with pytest.raises(ValueError):
            refute_invertible(zeros(QQ, 2, 3), zeros(QQ, 3, 2), "left-invertible", pair)

    def test_bad_side(self):
        pair = build_hard_psd(2)
        with pytest.raises(ValueError):
            refute_invertible(identity(QQ, 2), pair.m, "both", pair)

    def test_doctored_pair_yields_contradiction_witness(self):
        # fake m = E_11 factors as I * E_11 with sparsity 1 < 4: the refuter
        # must produce (i, j) with e_j^T (BC) v_i nonzero
        e11 = from_rows(
            QQ, [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
        )
        fake = PsdPair(4, e11, e11, vandermonde_vectors(4, 2))
        verdict = refute_invertible(identity(QQ, 4), e11, "left-invertible", fake)
        assert verdict.kind == "contradiction-witness"
        assert verdict.witness_index == 1
        assert verdict.witness_output == 1
        assert verdict.value == 1

    def test_doctored_pair_right_invertible(self):
        e11 = from_rows(
            QQ, [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
        )
        fake = PsdPair(4, e11, e11, vandermonde_vectors(4, 2))
        verdict = refute_invertible(e11, identity(QQ, 4), "right-invertible", fake)
        assert verdict.kind == "contradiction-witness"
        assert verdict.witness_index == 1
        assert verdict.witness_output == 1

    @pytest.mark.parametrize("side", ["left-invertible", "right-invertible"])
    def test_sparse_factor_without_a_sparse_line_is_refused(self, side):
        # the sparse factor's one nonzero row (as C) or column (as B) has
        # 3 > n/2 nonzeros, and the doctored "m" is the product
        line = [[1, 1, 1, 0]] + [[0] * 4] * 3
        sparse = from_rows(QQ, line if side == "left-invertible" else zip(*line))
        fake = PsdPair(4, sparse, sparse, vandermonde_vectors(4, 2))
        factors = (identity(QQ, 4), sparse)
        if side == "right-invertible":
            factors = factors[::-1]
        with pytest.raises(ValueError) as exc:
            refute_invertible(*factors, side, fake)
        assert str(exc.value) == (
            "factorization is sparse but has no line with <= n/2 nonzeros; "
            "the pair does not satisfy the PSD invariants"
        )
