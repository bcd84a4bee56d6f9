"""Exact linear algebra: products, rank, solves, Kronecker, sparsity, JSON."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardmat.budgets import BudgetExceeded
from hardmat.fields import (
    INTEGER_RING,
    RATIONAL_FIELD,
    extension_field,
    prime_field,
)
from hardmat.matrices import (
    ExactMatrix,
    from_rows,
    identity,
    inverse,
    kronecker,
    nullspace,
    lift_to_rational,
    matmul,
    matrix_from_json,
    matrix_to_json,
    rank,
    solve,
    sparsity,
    transpose,
    vandermonde,
    zeros,
)

QQ = RATIONAL_FIELD
F2 = prime_field(2)
F5 = prime_field(5)

# Arbitrary JSON values, and objects shaped like the matrix wire format whose
# fields hold near-miss decimal text (signs, slashes, non-ASCII digits).
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
DECIMALISH = st.text(alphabet="0123456789-/ \u0663\u00b2\uff13", max_size=4)
FIELDISH = st.fixed_dictionaries(
    {
        "kind": st.sampled_from(["prime", "extension", "rational", "integer-ring"]),
        "p": st.integers() | DECIMALISH,
        "modulus": st.lists(DECIMALISH, max_size=4),
    }
)
MATRIXISH = st.fixed_dictionaries(
    {
        "field": FIELDISH | JSON_VALUES,
        "rows": st.integers(-1, 3) | JSON_VALUES,
        "cols": st.integers(-1, 3) | JSON_VALUES,
        "entries": st.lists(DECIMALISH | st.lists(DECIMALISH, max_size=3), max_size=9),
    }
)


def _rand_matrix(data, field, rows, cols, lo=-4, hi=4):
    entries = data.draw(
        st.lists(st.integers(lo, hi), min_size=rows * cols, max_size=rows * cols)
    )
    return from_rows(field, [entries[i * cols : (i + 1) * cols] for i in range(rows)])


class TestMatmul:
    def test_identity_absorbs(self):
        a = from_rows(QQ, [[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        assert matmul(identity(QQ, 3), a) == a

    def test_gram_of_psd_factor(self):
        mt = from_rows(QQ, [[0, 0], [-1, 1]])
        assert matmul(transpose(mt), mt) == from_rows(QQ, [[1, -1], [-1, 1]])

    def test_mod_two(self):
        a = from_rows(F2, [[1, 1], [0, 1]])
        b = from_rows(F2, [[1, 0], [1, 1]])
        assert matmul(a, b) == from_rows(F2, [[0, 1], [1, 1]])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            matmul(identity(QQ, 2), identity(QQ, 3))

    def test_field_mismatch(self):
        with pytest.raises(ValueError):
            matmul(identity(QQ, 2), identity(F2, 2))


class TestRank:
    def test_identity(self):
        assert rank(identity(QQ, 3)) == 3

    def test_proportional_rows(self):
        assert rank(from_rows(QQ, [[1, -1], [-1, 1]])) == 1

    def test_vandermonde_distinct_nodes(self):
        v = vandermonde(QQ, [1, 2, 3, 4], 4)
        assert rank(v) == 4

    def test_integer_ring_needs_lift(self):
        a = from_rows(INTEGER_RING, [[2, 4], [1, 2]])
        with pytest.raises(ValueError):
            rank(a)
        assert rank(lift_to_rational(a)) == 1

    def test_nullspace_over_an_extension_field(self):
        # over F_9 = F_3[z]/(z^2 + 1), ker [1 z] is spanned by (-z, 1)
        f9 = extension_field(3, (1, 0, 1))
        a = from_rows(f9, [[(1, 0), (0, 1)]])
        assert nullspace(a) == [((0, 2), (1, 0))]
        column = from_rows(f9, [[x] for x in nullspace(a)[0]])
        assert matmul(a, column) == zeros(f9, 1, 1)

    @settings(max_examples=40)
    @given(data=st.data())
    def test_rank_of_product_bounded(self, data):
        n = data.draw(st.integers(1, 4))
        a = _rand_matrix(data, QQ, n, n)
        b = _rand_matrix(data, QQ, n, n)
        assert rank(matmul(a, b)) <= min(rank(a), rank(b))


class TestSolve:
    def test_identity_system(self):
        b = from_rows(QQ, [[3, 1], [2, 7]])
        assert solve(identity(QQ, 2), b) == b

    def test_hand_system(self):
        # A X = B with A the transposed 2-node Vandermonde
        a = from_rows(QQ, [[1, 1], [1, 2]])
        b = from_rows(QQ, [[0, 0], [0, 1]])
        x = solve(a, b)
        assert x == from_rows(QQ, [[0, -1], [0, 1]])
        assert matmul(a, x) == b

    def test_singular_rejected(self):
        a = from_rows(QQ, [[1, 1], [1, 1]])
        with pytest.raises(ValueError):
            solve(a, identity(QQ, 2))

    @settings(max_examples=40)
    @given(data=st.data())
    def test_postcondition_exact(self, data):
        n = data.draw(st.integers(1, 4))
        a = _rand_matrix(data, QQ, n, n)
        try:
            x = solve(a, identity(QQ, n))
        except ValueError:
            assert rank(a) < n
            return
        assert matmul(a, x) == identity(QQ, n)

    def test_extension_field_solve(self):
        field = extension_field(2, (1, 1, 1))
        a = from_rows(field, [[(0, 1), (1, 0)], [(1, 0), (0, 0)]])
        x = solve(a, identity(field, 2))
        assert matmul(a, x) == identity(field, 2)


class TestKronecker:
    def test_scalar_identity(self):
        assert kronecker(identity(QQ, 2), from_rows(QQ, [[1]])) == identity(QQ, 2)

    def test_block_diagonal(self):
        a = from_rows(QQ, [[1, 2], [3, 4]])
        b = kronecker(identity(QQ, 2), a)
        assert b == from_rows(
            QQ, [[1, 2, 0, 0], [3, 4, 0, 0], [0, 0, 1, 2], [0, 0, 3, 4]]
        )

    def test_shape(self):
        a = zeros(QQ, 2, 3)
        b = zeros(QQ, 4, 5)
        k = kronecker(a, b)
        assert (k.rows, k.cols) == (8, 15)

    @settings(max_examples=25)
    @given(data=st.data())
    def test_mixed_product(self, data):
        a = _rand_matrix(data, QQ, 2, 2)
        b = _rand_matrix(data, QQ, 2, 2)
        c = _rand_matrix(data, QQ, 2, 2)
        d = _rand_matrix(data, QQ, 2, 2)
        left = matmul(kronecker(a, b), kronecker(c, d))
        right = kronecker(matmul(a, c), matmul(b, d))
        assert left == right


class TestSparsity:
    def test_zero(self):
        assert sparsity(zeros(QQ, 3, 3)).total == 0

    def test_identity(self):
        rep = sparsity(identity(QQ, 4))
        assert rep.total == 4
        assert rep.row_counts == (1, 1, 1, 1)
        assert rep.col_counts == (1, 1, 1, 1)

    def test_counts(self):
        rep = sparsity(from_rows(QQ, [[1, -1], [-1, 1]]))
        assert rep.total == 4
        assert sum(rep.row_counts) == sum(rep.col_counts) == rep.total


class TestVandermonde:
    def test_two_nodes(self):
        assert vandermonde(QQ, [1, 2], 2) == from_rows(QQ, [[1, 1], [1, 2]])

    def test_reed_solomon_generator_shape(self):
        g = vandermonde(F5, range(5), 2)
        assert g == from_rows(F5, [[1, 0], [1, 1], [1, 2], [1, 3], [1, 4]])

    def test_all_ones_column(self):
        assert vandermonde(QQ, [3, 7, 9], 1) == from_rows(QQ, [[1], [1], [1]])

    def test_square_full_rank(self):
        assert rank(vandermonde(QQ, [1, 2, 3, 4, 5], 5)) == 5


class TestJson:
    @pytest.mark.parametrize(
        "matrix",
        [
            identity(QQ, 2),
            from_rows(F5, [[1, 4], [0, 2]]),
            from_rows(
                extension_field(2, (1, 1, 1)),
                [[(1, 0), (0, 1)], [(1, 1), (0, 0)]],
            ),
            from_rows(INTEGER_RING, [[2**80, -3], [0, 7]]),
            from_rows(QQ, [[Fraction(1, 3), 2], [0, Fraction(-5, 7)]]),
        ],
    )
    def test_round_trip(self, matrix):
        blob = json.dumps(matrix_to_json(matrix))
        assert matrix_from_json(json.loads(blob)) == matrix

    def test_entries_must_be_an_array(self):
        obj = {"field": {"kind": "prime", "p": 5}, "rows": 1, "cols": 1, "entries": "1"}
        with pytest.raises(ValueError, match="^entries must be an array$"):
            matrix_from_json(obj)

    def test_out_of_range_entry(self):
        obj = matrix_to_json(from_rows(F5, [[1, 4], [0, 2]]))
        obj["entries"][0] = "6"
        with pytest.raises(ValueError):
            matrix_from_json(obj)

    def test_wrong_extension_length(self):
        field = extension_field(2, (1, 1, 1))
        obj = matrix_to_json(identity(field, 2))
        obj["entries"][0] = ["1"]
        with pytest.raises(ValueError):
            matrix_from_json(obj)

    def test_nonprime_field_rejected(self):
        obj = {"field": {"kind": "prime", "p": 6}, "rows": 1, "cols": 1, "entries": ["1"]}
        with pytest.raises(ValueError):
            matrix_from_json(obj)

    def test_entry_count_checked(self):
        obj = {"field": {"kind": "prime", "p": 5}, "rows": 2, "cols": 2, "entries": ["1"]}
        with pytest.raises(ValueError):
            matrix_from_json(obj)

    def test_non_ascii_digits_rejected(self):
        obj = matrix_to_json(identity(F5, 1))
        obj["entries"] = ["\u0663"]  # ARABIC-INDIC DIGIT THREE
        with pytest.raises(ValueError, match="decimal"):
            matrix_from_json(obj)

    @settings(max_examples=300)
    @given(JSON_VALUES | MATRIXISH)
    def test_totality(self, obj):
        try:
            matrix_from_json(obj)
        except (ValueError, BudgetExceeded):
            pass  # BudgetExceeded: p above the primality bound is undecided

    def test_extra_keys_ignored(self):
        obj = matrix_to_json(identity(QQ, 2))
        obj["provenance"] = {"construction": "test"}
        assert matrix_from_json(obj) == identity(QQ, 2)


class TestInverse:
    def test_vandermonde_inverse(self):
        v = vandermonde(QQ, [1, 2, 3], 3)
        assert matmul(v, inverse(v)) == identity(QQ, 3)

    def test_prime_field_inverse(self):
        a = from_rows(F5, [[2, 1], [3, 3]])  # det = 3, invertible mod 5
        assert matmul(a, inverse(a)) == identity(F5, 2)


class TestConstructionValidation:
    def test_entry_conformance_checked(self):
        with pytest.raises(ValueError):
            ExactMatrix(F5, 1, 2, (1, 7))

    def test_entry_count_checked(self):
        with pytest.raises(ValueError):
            ExactMatrix(F5, 2, 2, (1, 2, 3))
