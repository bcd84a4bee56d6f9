"""Circuit file format, exact verification, and the depth-2 search oracle."""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardmat.budgets import BudgetExceeded
from hardmat.circuits import (
    CircuitFactorization,
    SlcParseError,
    emit_slc,
    min_depth2_sparsity,
    parse_slc,
    verify_factorization,
)
from hardmat.fields import (
    INTEGER_RING,
    RATIONAL_FIELD,
    extension_field,
    ops_for,
    prime_field,
)
from hardmat.matrices import ExactMatrix, from_rows, identity, zeros

F2 = prime_field(2)
F3 = prime_field(3)

ID2_TEXT = """
# two-layer identity circuit
field prime 2
layer 2 2
1 1 1
2 2 1
end
layer 2 2
1 1 1
2 2 1
end
"""


class TestParse:
    def test_two_layer_identity(self):
        circuit = parse_slc(ID2_TEXT)
        assert circuit.depth == 2
        assert circuit.size == 4
        assert circuit.factors == (identity(F2, 2), identity(F2, 2))

    def test_residue_out_of_field(self):
        text = "field prime 5\nlayer 1 1\n1 1 5\nend\n"
        with pytest.raises(SlcParseError) as err:
            parse_slc(text)
        assert err.value.line == 3

    def test_dimension_chain_mismatch(self):
        text = (
            "field prime 2\nlayer 2 3\n1 1 1\nend\nlayer 2 2\n1 1 1\nend\n"
        )
        with pytest.raises(SlcParseError, match="chain"):
            parse_slc(text)

    def test_duplicate_triplet(self):
        text = "field prime 2\nlayer 2 2\n1 1 1\n1 1 1\nend\n"
        with pytest.raises(SlcParseError, match="duplicate"):
            parse_slc(text)

    def test_row_out_of_bounds(self):
        text = "field prime 2\nlayer 2 2\n3 1 1\nend\n"
        with pytest.raises(SlcParseError, match="row"):
            parse_slc(text)

    def test_missing_end(self):
        text = "field prime 2\nlayer 2 2\n1 1 1\n"
        with pytest.raises(SlcParseError, match="end"):
            parse_slc(text)

    def test_unknown_field_kind(self):
        with pytest.raises(SlcParseError, match="kind"):
            parse_slc("field complex\nlayer 1 1\nend\n")

    def test_no_layers(self):
        with pytest.raises(SlcParseError, match="layer"):
            parse_slc("field prime 2\n")

    def test_empty_input(self):
        with pytest.raises(SlcParseError, match="empty"):
            parse_slc("")

    def test_reducible_extension_modulus(self):
        with pytest.raises(SlcParseError, match="irreducible"):
            parse_slc("field ext 2 1 0 1\nlayer 1 1\nend\n")

    def test_extension_values_colon_separated(self):
        text = "field ext 2 1 1 1\nlayer 1 2\n1 1 1:1\n1 2 1\nend\n"
        circuit = parse_slc(text)
        assert circuit.factors[0].at(0, 0) == (1, 1)
        assert circuit.factors[0].at(0, 1) == (1, 0)  # short value padded

    def test_rational_values(self):
        text = "field rational\nlayer 1 2\n1 1 -3/6\n1 2 2\nend\n"
        circuit = parse_slc(text)
        assert circuit.factors[0].at(0, 0) == Fraction(-1, 2)
        assert circuit.factors[0].at(0, 1) == 2

    def test_comments_and_blank_lines_ignored(self):
        text = "# header\n\nfield prime 3\n # pad\nlayer 1 1 # dims\n1 1 2\nend\n"
        circuit = parse_slc(text)
        assert circuit.factors[0].at(0, 0) == 2

    def test_error_carries_location(self):
        text = "field prime 5\nlayer 1 1\n1 1 x\nend\n"
        with pytest.raises(SlcParseError) as err:
            parse_slc(text)
        assert err.value.line == 3
        assert err.value.column == 5

    @pytest.mark.parametrize(
        "text,line,column",
        [
            ("field prime 5\nlayer 1 1\n1 1 \u0663\nend\n", 3, 5),  # entry
            ("field prime 5\nlayer 1 1\n\u0661 1 1\nend\n", 3, 1),  # row index
            ("field prime \u0665\nlayer 1 1\nend\n", 1, 13),  # modulus
        ],
    )
    def test_non_ascii_digits_rejected(self, text, line, column):
        with pytest.raises(SlcParseError) as err:
            parse_slc(text)
        assert (err.value.line, err.value.column) == (line, column)

    @pytest.mark.parametrize(
        "text, message, line, column",
        [
            ("field\n", "missing field kind", 1, 1),
            ("field prime\n", "'field prime' takes exactly one modulus", 1, 7),
            ("field prime 5 7\n", "'field prime' takes exactly one modulus", 1, 7),
            ("field prime 4\n", "p must be prime, got 4", 1, 13),
            ("field prime -5\n", "primality is defined for nonnegative integers", 1, 13),
            (
                "field ext 2 1\n",
                "'field ext' takes p and at least two modulus coefficients",
                1,
                7,
            ),
            ("field ext 4 1 1 1\n", "p must be prime, got 4", 1, 11),
            ("field ext 5 1 1 2\n", "modulus must be monic", 1, 11),
            ("field ext 2 1 2 1\n", "modulus coefficients must be residues mod 2", 1, 11),
            ("field ext 2 1 0 1\n", "extension modulus is not irreducible", 1, 11),
            ("field ext 2 1 x 1\n", "modulus coefficient: not a decimal integer: 'x'", 1, 15),
            ("field rational x\n", "unexpected token 'x'", 1, 16),
            ("field integer 5\n", "unexpected token '5'", 1, 15),
            (
                "field ext 2 1 1 1\nlayer 1 1\n1 1 1:0:1\nend\n",
                "3 coefficients exceed the degree 2",
                3,
                5,
            ),
            (
                "field prime 2\nlayer 1 1\nlayer 1 1\nend\n",
                "previous layer was not closed with 'end'",
                3,
                1,
            ),
            ("field prime 2\nlayer 1\nend\n", "'layer' takes rows and cols", 2, 1),
            ("field prime 2\nlayer 0 1\nend\n", "layer dimensions must be positive", 2, 1),
            ("field prime 2\nend\n", "'end' outside a layer", 2, 1),
            ("field prime 2\nlayer 1 1\nend x\n", "unexpected token after 'end'", 3, 5),
            ("field prime 2\n1 1 1\n", "expected 'layer' or 'end', got '1'", 2, 1),
            (
                "field prime 2\nlayer 1 1\n1 1\nend\n",
                "a triplet line is '<row> <col> <value>'",
                3,
                1,
            ),
            ("field prime 2\nlayer 1 1\n1 2 1\nend\n", "col 2 outside 1..1", 3, 3),
        ],
        ids=[
            "missing-kind",
            "prime-no-modulus",
            "prime-two-moduli",
            "prime-not-prime",
            "prime-negative",
            "ext-too-few",
            "ext-p-not-prime",
            "ext-not-monic",
            "ext-coefficient-not-residue",
            "ext-reducible",
            "ext-coefficient-not-decimal",
            "rational-extra-token",
            "integer-extra-token",
            "ext-value-past-degree",
            "layer-not-closed",
            "layer-arity",
            "layer-zero-rows",
            "end-outside-layer",
            "end-extra-token",
            "triplet-outside-layer",
            "triplet-arity",
            "col-out-of-range",
        ],
    )
    def test_raise_site_message_and_location(self, text, message, line, column):
        """Each raise site of the parser, by its exact text and location."""
        with pytest.raises(SlcParseError) as err:
            parse_slc(text)
        assert (err.value.line, err.value.column) == (line, column)
        assert str(err.value) == f"line {line}, col {column}: {message}"

    def test_non_text_input(self):
        with pytest.raises(SlcParseError) as err:
            parse_slc(b"field prime 2\n")
        assert (err.value.line, err.value.column) == (None, None)
        assert str(err.value) == "input must be text"

    @settings(max_examples=300)
    @given(st.text(max_size=200))
    def test_totality_on_arbitrary_text(self, text):
        try:
            parse_slc(text)
        except SlcParseError:
            pass  # structured failure is the only acceptable one

    @settings(max_examples=100)
    @given(st.text(alphabet="fieldprimavtxnl 0123456789\n#:-/", max_size=120))
    def test_totality_on_formatlike_text(self, text):
        try:
            parse_slc(text)
        except SlcParseError:
            pass


def _random_circuit(rng: random.Random) -> CircuitFactorization:
    field = rng.choice(
        [
            F2,
            F3,
            prime_field(5),
            extension_field(2, (1, 1, 1)),
            extension_field(3, (1, 0, 2, 1)),
            RATIONAL_FIELD,
            INTEGER_RING,
        ]
    )
    ops = ops_for(field)
    depth = rng.randint(1, 3)
    dims = [rng.randint(1, 3) for _ in range(depth + 1)]

    def random_element():
        if field.kind == "prime":
            return rng.randrange(field.p)
        if field.kind == "extension":
            return tuple(rng.randrange(field.p) for _ in range(field.degree))
        if field.kind == "rational":
            return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        return rng.randint(-(2**40), 2**40)

    factors = []
    for a, b in zip(dims, dims[1:]):
        entries = tuple(
            random_element() if rng.random() < 0.5 else ops.zero
            for _ in range(a * b)
        )
        factors.append(ExactMatrix(field, a, b, entries))
    return CircuitFactorization(field, tuple(factors))


class TestEmit:
    def test_round_trip_identity(self):
        circuit = parse_slc(ID2_TEXT)
        assert parse_slc(emit_slc(circuit)) == circuit

    def test_canonicalization_is_order_independent(self):
        shuffled = "field prime 2\nlayer 2 2\n2 2 1\n1 1 1\nend\n"
        ordered = "field prime 2\nlayer 2 2\n1 1 1\n2 2 1\nend\n"
        assert emit_slc(parse_slc(shuffled)) == emit_slc(parse_slc(ordered))

    def test_round_trip_random_chains(self):
        rng = random.Random(2718)
        for _ in range(30):
            circuit = _random_circuit(rng)
            assert parse_slc(emit_slc(circuit)) == circuit

    def test_emitted_text_is_canonical_fixed_point(self):
        rng = random.Random(3141)
        for _ in range(10):
            text = emit_slc(_random_circuit(rng))
            assert emit_slc(parse_slc(text)) == text


class TestVerify:
    def test_identity_chain(self):
        circuit = parse_slc(ID2_TEXT)
        result = verify_factorization(circuit, identity(F2, 2))
        assert result.equal and result.size == 4

    def test_rank_one_outer_product(self):
        col = from_rows(F2, [[1], [1]])
        row = from_rows(F2, [[1, 1]])
        circuit = CircuitFactorization(F2, (col, row))
        ones = from_rows(F2, [[1, 1], [1, 1]])
        result = verify_factorization(circuit, ones)
        assert result.equal and result.size == 4

    def test_depth_three_product_is_left_to_right(self):
        a = from_rows(F3, [[1, 1], [0, 1]])
        b = from_rows(F3, [[1, 0], [1, 1]])
        c = from_rows(F3, [[2, 0], [0, 1]])
        circuit = CircuitFactorization(F3, (a, b, c))
        from hardmat.matrices import matmul

        target = matmul(matmul(a, b), c)
        assert verify_factorization(circuit, target).equal

    def test_mismatch_witness(self):
        circuit = parse_slc(ID2_TEXT)
        target = from_rows(F2, [[1, 1], [0, 1]])
        result = verify_factorization(circuit, target)
        assert not result.equal
        assert result.mismatch == (1, 2)

    def test_field_mismatch(self):
        circuit = parse_slc(ID2_TEXT)
        with pytest.raises(ValueError):
            verify_factorization(circuit, identity(F3, 2))

    def test_dimension_mismatch(self):
        circuit = parse_slc(ID2_TEXT)
        with pytest.raises(ValueError):
            verify_factorization(circuit, identity(F2, 3))


def naive_min_depth2(A: ExactMatrix) -> int | None:
    """Fully naive reference: every B, C pair with m = 2, no pruning."""
    p = A.field.p
    n = A.rows
    best = None
    cells = n * 2
    for b_vals in product(range(p), repeat=cells):
        for c_vals in product(range(p), repeat=cells):
            size = sum(1 for x in b_vals if x) + sum(1 for x in c_vals if x)
            if best is not None and size >= best:
                continue
            ok = True
            for i in range(n):
                for j in range(n):
                    acc = sum(b_vals[i * 2 + k] * c_vals[k * n + j] for k in range(2))
                    if acc % p != A.at(i, j):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                best = size
    return best


class TestSearch:
    def test_zero_matrix(self):
        result = min_depth2_sparsity(zeros(F2, 2, 2), 2, 6)
        assert result.s_min == 0
        assert result.witness.size == 0

    def test_identity(self):
        result = min_depth2_sparsity(identity(F2, 2), 2, 6)
        assert result.s_min == 4
        check = verify_factorization(result.witness, identity(F2, 2))
        assert check.equal and check.size == 4

    def test_all_ones(self):
        ones = from_rows(F2, [[1, 1], [1, 1]])
        result = min_depth2_sparsity(ones, 2, 6)
        assert result.s_min == 4
        assert verify_factorization(result.witness, ones).equal

    def test_none_within_cap(self):
        result = min_depth2_sparsity(identity(F2, 2), 2, 3)
        assert result.s_min is None
        assert result.witness is None

    def test_witness_is_deterministic(self):
        a = from_rows(F2, [[1, 1], [0, 1]])
        r1 = min_depth2_sparsity(a, 2, 8)
        r2 = min_depth2_sparsity(a, 2, 8)
        assert r1 == r2

    def test_budget_exceeded_is_distinct_from_none(self):
        a = from_rows(F2, [[1, 1], [0, 1]])
        with pytest.raises(BudgetExceeded):
            min_depth2_sparsity(a, 2, 8, budget=2)

    def test_over_f3(self):
        a = from_rows(F3, [[2, 0], [0, 2]])
        result = min_depth2_sparsity(a, 2, 8)
        assert result.s_min == 4
        assert verify_factorization(result.witness, a).equal

    def test_preconditions(self):
        with pytest.raises(ValueError):
            min_depth2_sparsity(identity(prime_field(5), 2), 2, 4)
        with pytest.raises(ValueError):
            min_depth2_sparsity(zeros(F2, 2, 3), 2, 4)
        with pytest.raises(ValueError):
            min_depth2_sparsity(identity(F2, 2), 5, 4)

    def test_agrees_with_naive_enumeration(self):
        rng = random.Random(1234)
        for _ in range(8):
            a = from_rows(
                F2, [[rng.randrange(2) for _ in range(2)] for _ in range(2)]
            )
            pruned = min_depth2_sparsity(a, 2, 8)
            assert pruned.s_min == naive_min_depth2(a)

    def test_wider_middle_layer_never_helps_at_desk_scale(self):
        # every 2x2 target over F_2: widening m beyond n leaves the minimum
        # unchanged (checked, not assumed)
        for bits in range(16):
            a = from_rows(F2, [[bits >> 0 & 1, bits >> 1 & 1], [bits >> 2 & 1, bits >> 3 & 1]])
            narrow = min_depth2_sparsity(a, 2, 8)
            wide = min_depth2_sparsity(a, 4, 8)
            assert narrow.s_min == wide.s_min

    def test_amplification_law_small(self):
        from hardmat.constructions import amplify_direct_sum
        from hardmat.matrices import kronecker

        base = identity(F2, 2)
        s_a = min_depth2_sparsity(base, 2, 6).s_min
        assert s_a == 4
        doubled = amplify_direct_sum(base, 2)
        assert min_depth2_sparsity(doubled, 4, 2 * s_a - 1).s_min is None
        witness = min_depth2_sparsity(base, 2, 6).witness
        big = CircuitFactorization(
            F2,
            (
                kronecker(identity(F2, 2), witness.factors[0]),
                kronecker(identity(F2, 2), witness.factors[1]),
            ),
        )
        check = verify_factorization(big, doubled)
        assert check.equal and check.size == 2 * s_a
