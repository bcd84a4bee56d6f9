"""The one elimination kernel and the closed-form PSD pair, differentially.

The seed's four eliminations (generic and mod-p rank, Gauss-Jordan solve,
mod-p kernel basis) and its Gauss-Jordan construction of the PSD pair are
held here as references.  The kernel must give the same ranks, solutions
and kernel bases, and the closed-form pair the same bytes.  sympy
(importorskip) is a second, independent reference for rank and inverse.
"""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardmat.fields import RATIONAL_FIELD, extension_field, ops_for, prime_field
from hardmat.hitting import build_hard_psd, vandermonde_vectors
from hardmat.matrices import (
    echelon,
    from_rows,
    identity,
    inverse,
    matmul,
    matrix_to_json,
    nullspace,
    rank,
    solve,
    transpose,
    vandermonde,
)

QQ = RATIONAL_FIELD
PRIMES = (2, 3, 5, 7, 101)

# ---------------------------------------------------------------------------
# The seed's routines, kept as references.


def _ref_rank(field, rows):
    """Seed _rank_rows: generic Gaussian elimination, or _ref_rank_mod_p."""
    if not rows:
        return 0
    ncols = len(rows[0])
    if field.kind == "prime":
        return _ref_rank_mod_p(rows, ncols, field.p)
    ops = ops_for(field)
    sub, mul, div, is_zero = ops.sub, ops.mul, ops.div, ops.is_zero
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if not is_zero(rows[i][c])), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pivot_row = rows[r]
        pv = pivot_row[c]
        for i in range(r + 1, len(rows)):
            x = rows[i][c]
            if is_zero(x):
                continue
            f = div(x, pv)
            row = rows[i]
            for j in range(c, ncols):
                row[j] = sub(row[j], mul(f, pivot_row[j]))
        r += 1
        if r == len(rows):
            break
    return r


def _ref_rank_mod_p(rows, ncols, p):
    """Seed _rank_rows_mod_p."""
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] % p), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pivot_row = rows[r]
        inv = pow(pivot_row[c], p - 2, p)
        for i in range(r + 1, len(rows)):
            x = rows[i][c]
            if x:
                f = x * inv % p
                row = rows[i]
                for j in range(c, ncols):
                    row[j] = (row[j] - f * pivot_row[j]) % p
        r += 1
        if r == len(rows):
            break
    return r


def _ref_solve(A, B):
    """Seed solve: Gauss-Jordan on [A | B] with one field op per entry."""
    ops = ops_for(A.field)
    sub, mul, div, is_zero = ops.sub, ops.mul, ops.div, ops.is_zero
    n, m = A.rows, B.cols
    aug = [list(A.row(i)) + list(B.row(i)) for i in range(n)]
    width = n + m
    for c in range(n):
        piv = next((i for i in range(c, n) if not is_zero(aug[i][c])), None)
        if piv is None:
            raise ValueError("matrix is singular")
        aug[c], aug[piv] = aug[piv], aug[c]
        pivot_row = aug[c]
        pv = pivot_row[c]
        for j in range(c, width):
            pivot_row[j] = div(pivot_row[j], pv)
        for i in range(n):
            if i == c:
                continue
            x = aug[i][c]
            if is_zero(x):
                continue
            row = aug[i]
            for j in range(c, width):
                row[j] = sub(row[j], mul(x, pivot_row[j]))
    return from_rows(A.field, [row[n:] for row in aug], coerce=False)


def _ref_nullspace_mod_p(rows, ncols, p):
    """Seed hitting._nullspace_mod_p: right kernel basis over F_p."""
    rows = [r[:] for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] % p), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [x * inv % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        w = [0] * ncols
        w[f] = 1
        for row_i, c in enumerate(pivots):
            w[c] = (-rows[row_i][f]) % p
        basis.append(w)
    return basis


def _ref_psd(n):
    """Seed build_hard_psd: mtilde = C (V^T)^{-1} by Gauss-Jordan, m = mtilde^T mtilde."""
    half = n // 2
    v_full = vandermonde(QQ, range(1, n + 1), n)
    c_sel = from_rows(
        QQ, [[int(i == j and i >= half) for j in range(n)] for i in range(n)]
    )
    mtilde = matmul(c_sel, _ref_solve(transpose(v_full), identity(QQ, n)))
    return mtilde, matmul(transpose(mtilde), mtilde)


# ---------------------------------------------------------------------------
# Random matrices.

FRACTIONS = st.builds(
    Fraction, st.integers(-6, 6), st.sampled_from([1, 1, 1, 2, 3, 7])
)


@st.composite
def rational_matrices(draw, square=False):
    rows = draw(st.integers(1, 6))
    cols = rows if square else draw(st.integers(1, 7))
    entries = draw(st.lists(FRACTIONS, min_size=rows * cols, max_size=rows * cols))
    return from_rows(QQ, [entries[i * cols : (i + 1) * cols] for i in range(rows)])


@st.composite
def prime_matrices(draw, square=False):
    p = draw(st.sampled_from(PRIMES))
    rows = draw(st.integers(1, 6))
    cols = rows if square else draw(st.integers(1, 7))
    # skew towards zero so rank-deficient matrices are common
    entry = st.integers(0, p - 1) | st.just(0)
    entries = draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols))
    return from_rows(prime_field(p), [entries[i * cols : (i + 1) * cols] for i in range(rows)])


def _low_rank(rng, field, n, r, lo=-3, hi=3):
    """n x n product of random n x r and r x n integer matrices."""
    left = from_rows(field, [[rng.randint(lo, hi) for _ in range(r)] for _ in range(n)])
    right = from_rows(field, [[rng.randint(lo, hi) for _ in range(n)] for _ in range(r)])
    return matmul(left, right)


def _solve_or_error(fn, A, B):
    try:
        return fn(A, B)
    except ValueError as exc:
        return str(exc)


class TestAgainstSeed:
    @settings(max_examples=150)
    @given(a=rational_matrices() | prime_matrices())
    def test_rank(self, a):
        assert rank(a) == _ref_rank(a.field, a.row_lists())

    @settings(max_examples=100)
    @given(a=rational_matrices(square=True) | prime_matrices(square=True))
    def test_solve_and_inverse(self, a):
        b = identity(a.field, a.rows)
        assert _solve_or_error(solve, a, b) == _solve_or_error(_ref_solve, a, b)

    @settings(max_examples=100)
    @given(g=prime_matrices())
    def test_kernel_basis_mod_p(self, g):
        p = g.field.p
        gt_rows = [list(g.col(j)) for j in range(g.cols)]
        want = _ref_nullspace_mod_p(gt_rows, g.rows, p)
        assert [list(w) for w in nullspace(transpose(g))] == want

    def test_low_rank_products(self):
        rng = random.Random(1968)
        for field in (QQ, prime_field(5), prime_field(101)):
            for n, r in ((5, 2), (8, 3), (12, 7), (16, 15)):
                a = _low_rank(rng, field, n, r)
                assert rank(a) == _ref_rank(field, a.row_lists()) <= r

    def test_extension_field(self):
        field = extension_field(3, (1, 2, 0, 1))  # z^3 + 2z + 1, irreducible mod 3
        rng = random.Random(7)

        def elem():
            return tuple(rng.randrange(3) for _ in range(3))

        for n in (2, 3, 4):
            a = from_rows(field, [[elem() for _ in range(n)] for _ in range(n)], coerce=False)
            assert rank(a) == _ref_rank(field, a.row_lists())
            b = identity(field, n)
            assert _solve_or_error(solve, a, b) == _solve_or_error(_ref_solve, a, b)

    def test_hilbert_inverse(self):
        # rows with distinct denominators: the lcm scaling and Bareiss division
        n = 7
        h = from_rows(QQ, [[Fraction(1, i + j + 1) for j in range(n)] for i in range(n)])
        assert inverse(h) == _ref_solve(h, identity(QQ, n))
        assert all(x.denominator == 1 for x in inverse(h).entries)


class TestEchelonForm:
    @settings(max_examples=100)
    @given(a=rational_matrices() | prime_matrices())
    def test_reduced_form(self, a):
        ops = ops_for(a.field)
        pivots, rows = echelon(a.field, a.row_lists(), reduce=True)
        assert pivots == sorted(set(pivots))
        for k, row in enumerate(rows):
            if k >= len(pivots):
                assert all(ops.is_zero(x) for x in row)
                continue
            assert row[pivots[k]] == ops.one
            assert all(ops.is_zero(x) for x in row[: pivots[k]])
            for other, c in enumerate(pivots):
                if other != k:
                    assert ops.is_zero(row[c])

    @settings(max_examples=100)
    @given(a=rational_matrices() | prime_matrices())
    def test_kernel_is_annihilated(self, a):
        basis = nullspace(a)
        assert len(basis) == a.cols - rank(a)
        zero = from_rows(a.field, [[0]] * a.rows)
        for w in basis:
            assert matmul(a, from_rows(a.field, [[x] for x in w])) == zero

    def test_rational_rows_with_denominators(self):
        rows = [[Fraction(1, 2), 1], [1, 2]]
        pivots, out = echelon(QQ, rows, reduce=True)
        assert pivots == [0]
        assert out[0] == [1, 2] and out[1] == [0, 0]


def test_against_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    rng = random.Random(2019)
    for _ in range(40):
        n = rng.randint(1, 7)
        r = rng.randint(0, n)
        cases = [
            from_rows(QQ, [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)]
                           for _ in range(n)]),
            _low_rank(rng, QQ, n, r) if r else from_rows(QQ, [[0] * n] * n),
        ]
        for p in (2, 3, 13, 10007):
            field = prime_field(p)
            cases.append(from_rows(field, [[rng.randrange(p) for _ in range(n)] for _ in range(n)]))
            if r:
                cases.append(_low_rank(rng, field, n, r))
        for a in cases:
            if a.field == QQ:
                ref = sympy.Matrix(n, n, [sympy.Rational(x.numerator, x.denominator)
                                          for x in map(Fraction, a.entries)])
                want_rank = ref.rank()
            else:
                dom = sympy.GF(a.field.p)
                ref = DomainMatrix([[dom(x) for x in a.row(i)] for i in range(n)], (n, n), dom)
                want_rank = ref.rank()
            assert rank(a) == want_rank
            if want_rank < n:
                with pytest.raises(ValueError):
                    inverse(a)
                continue
            inv = inverse(a)
            if a.field == QQ:
                want = [Fraction(int(x.p), int(x.q)) for x in ref.inv()]
            else:
                want = [int(x) % a.field.p for row in ref.inv().to_list() for x in row]
            assert list(inv.entries) == want


@pytest.mark.parametrize("n", range(2, 25, 2))
def test_psd_pair_matches_seed_construction(n):
    pair = build_hard_psd(n)
    mtilde, m = _ref_psd(n)
    assert json.dumps(matrix_to_json(pair.mtilde)) == json.dumps(matrix_to_json(mtilde))
    assert json.dumps(matrix_to_json(pair.m)) == json.dumps(matrix_to_json(m))
    assert pair.probes == vandermonde_vectors(n, n // 2)
