"""Field arithmetic, primality, irreducible search, and wire encodings."""

import sys
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardmat import fields, fppoly
from hardmat.budgets import BudgetExceeded
from hardmat.fields import (
    INTEGER_RING,
    RATIONAL_FIELD,
    FieldDescriptor,
    decode_element,
    descriptor_from_json,
    descriptor_to_json,
    encode_element,
    extension_field,
    extension_generator,
    field_arith,
    find_irreducible,
    is_prime,
    ops_for,
    power,
    prime_field,
)
from hardmat.matrices import matrix_from_json

F5 = prime_field(5)
F2 = prime_field(2)
GF4 = extension_field(2, (1, 1, 1))  # F_2[z]/(z^2+z+1)
GF27 = extension_field(3, find_irreducible(3, 3))


class TestFieldArith:
    def test_f5_add(self):
        assert field_arith(3, 4, "add", F5) == 2

    def test_gf4_generator_square(self):
        # z * z reduces to z + 1 modulo z^2 + z + 1
        z = extension_generator(GF4)
        assert z == (0, 1)
        assert field_arith(z, z, "mul", GF4) == (1, 1)

    def test_f5_inverse_of_two(self):
        assert field_arith(1, 2, "div", F5) == 3

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            field_arith(3, 0, "div", F5)
        with pytest.raises(ZeroDivisionError):
            field_arith(extension_generator(GF4), (0, 0), "div", GF4)

    def test_descriptor_mismatch(self):
        with pytest.raises(ValueError):
            field_arith(7, 1, "add", F5)
        with pytest.raises(ValueError):
            field_arith((1, 0, 0), (1, 0), "add", GF4)

    def test_unknown_op(self):
        with pytest.raises(ValueError):
            field_arith(1, 1, "pow", F5)

    def test_integer_ring_has_no_division(self):
        with pytest.raises(ValueError):
            field_arith(4, 2, "div", INTEGER_RING)


def _elements(field):
    ops = ops_for(field)
    if field.kind == "prime":
        return st.integers(0, field.p - 1)
    if field.kind == "extension":
        return st.tuples(*[st.integers(0, field.p - 1)] * field.degree)
    return st.fractions(min_value=-50, max_value=50, max_denominator=50)


@pytest.mark.parametrize("field", [F2, F5, prime_field(13), GF4, GF27, RATIONAL_FIELD])
class TestFieldAxioms:
    @settings(max_examples=60)
    @given(data=st.data())
    def test_ring_axioms(self, field, data):
        ops = ops_for(field)
        a = data.draw(_elements(field))
        b = data.draw(_elements(field))
        c = data.draw(_elements(field))
        assert ops.add(ops.add(a, b), c) == ops.add(a, ops.add(b, c))
        assert ops.mul(ops.mul(a, b), c) == ops.mul(a, ops.mul(b, c))
        assert ops.mul(a, ops.add(b, c)) == ops.add(ops.mul(a, b), ops.mul(a, c))
        assert ops.add(a, b) == ops.add(b, a)
        assert ops.mul(a, b) == ops.mul(b, a)

    @settings(max_examples=60)
    @given(data=st.data())
    def test_multiplicative_inverse(self, field, data):
        ops = ops_for(field)
        a = data.draw(_elements(field))
        if ops.is_zero(a):
            return
        assert ops.mul(a, ops.div(ops.one, a)) == ops.one


class TestIsPrime:
    def test_small_values(self):
        assert is_prime(11)
        assert not is_prime(1)
        assert not is_prime(0)
        assert is_prime(2)
        assert not is_prime(91)  # 7 * 13

    def test_fermat_prime(self):
        assert is_prime(65537)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            is_prime(-3)

    def test_beyond_bound_rejected_not_guessed(self):
        with pytest.raises(BudgetExceeded):
            is_prime(10**13, bound=10**12)


def _brute_force_irreducible(g, p):
    """Independent oracle: trial division by every monic factor of deg <= d/2."""
    d = len(g) - 1
    if d < 1:
        return False
    for deg_f in range(1, d // 2 + 1):
        for low in product(range(p), repeat=deg_f):
            f = fppoly.trim(low + (1,))
            if len(f) - 1 != deg_f:
                continue
            if not fppoly._mod_general(g, f, p):
                return False
    return True


class TestFindIrreducible:
    def test_unique_quadratic_over_f2(self):
        assert find_irreducible(2, 2) == (1, 1, 1)

    def test_degree_one_over_f3_is_z(self):
        assert find_irreducible(3, 1) == (0, 1)

    def test_first_cubic_over_f2(self):
        assert find_irreducible(2, 3) == (1, 1, 0, 1)

    def test_degree_eleven_over_f2(self):
        # z^11 + z^2 + 1, frozen from an independent computer-algebra check
        expected = (1, 0, 1) + (0,) * 8 + (1,)
        assert find_irreducible(2, 11) == expected

    @pytest.mark.parametrize("p,d", [(2, 4), (2, 6), (3, 3), (5, 2), (7, 2)])
    def test_lex_first_against_brute_force(self, p, d):
        got = find_irreducible(p, d)
        assert _brute_force_irreducible(got, p)
        # nothing earlier in the enumeration order is irreducible
        k_got = sum(c * p**i for i, c in enumerate(got[:-1]))
        for k in range(k_got):
            low = []
            kk = k
            for _ in range(d):
                low.append(kk % p)
                kk //= p
            assert not _brute_force_irreducible(tuple(low) + (1,), p)

    @pytest.mark.parametrize("p,d", [(2, 8), (3, 5), (5, 3)])
    def test_output_invariants(self, p, d):
        g = find_irreducible(p, d)
        assert len(g) == d + 1 and g[-1] == 1
        for x in range(p):  # no roots when d >= 2
            assert fppoly.eval_at(g, x, p) != 0
        # gcd(g, z^(p^i) - z) = 1 for 1 <= i <= d/2
        field = extension_field(p, g)
        h = extension_generator(field)
        for _ in range(d // 2):
            h = power(field, h, p)
            assert fppoly.gcd(fppoly.sub(fppoly.trim(h), (0, 1), p), g, p) == (1,)

    def test_budget_exceeded(self):
        with pytest.raises(BudgetExceeded):
            find_irreducible(2, 64, scan_budget=2)

    def test_bad_degree(self):
        with pytest.raises(ValueError):
            find_irreducible(2, 0)

    def test_requires_prime(self):
        with pytest.raises(ValueError):
            find_irreducible(4, 2)


class TestGeneratorPowers:
    def test_powers_form_identity_pattern(self):
        field = extension_field(3, find_irreducible(3, 5))
        alpha = extension_generator(field)
        for e in range(field.degree):
            expected = tuple(1 if i == e else 0 for i in range(field.degree))
            assert power(field, alpha, e) == expected


class TestEncodings:
    @given(st.integers(-(10**40), 10**40))
    def test_big_integer_decimal_round_trip(self, x):
        assert decode_element(INTEGER_RING, encode_element(INTEGER_RING, x)) == x

    @given(st.fractions(min_value=-(10**20), max_value=10**20, max_denominator=10**20))
    def test_rational_round_trip(self, x):
        encoded = encode_element(RATIONAL_FIELD, x)
        assert "/" in encoded
        assert decode_element(RATIONAL_FIELD, encoded) == x

    def test_prime_residue_range_enforced(self):
        with pytest.raises(ValueError):
            decode_element(F5, "6")
        with pytest.raises(ValueError):
            decode_element(F5, "-1")
        assert decode_element(F5, "4") == 4

    def test_extension_length_enforced(self):
        with pytest.raises(ValueError):
            decode_element(GF4, ["1"])
        with pytest.raises(ValueError):
            decode_element(GF4, ["1", "0", "0"])
        assert decode_element(GF4, ["1", "1"]) == (1, 1)

    def test_rational_normalizes(self):
        assert decode_element(RATIONAL_FIELD, "2/4") == Fraction(1, 2)
        assert decode_element(RATIONAL_FIELD, "-3") == -3
        with pytest.raises(ValueError):
            decode_element(RATIONAL_FIELD, "1/0")

    def test_garbage_rejected(self):
        for bad in ("x", "1.5", "", "1e3"):
            with pytest.raises(ValueError):
                decode_element(INTEGER_RING, bad)

    def test_integers_past_the_default_digit_limit(self):
        limit = sys.get_int_max_str_digits()
        x = -(7 ** 20000)  # 16,902 digits, past Python's default of 4300
        text = encode_element(INTEGER_RING, x)
        assert decode_element(INTEGER_RING, text) == x
        assert sys.get_int_max_str_digits() == limit  # lifted only inside

    def test_integer_digit_cap(self):
        # 2^MAX_EXPONENT_BITS = 2^(10^7) has floor(10^7 log10 2) + 1 digits
        assert fields._MAX_INT_DIGITS == 3_010_300
        too_long = "-" + "1" * (fields._MAX_INT_DIGITS + 1)
        with pytest.raises(ValueError, match="3010301 digits"):
            decode_element(INTEGER_RING, too_long)
        obj = {"field": {"kind": "integer-ring"}, "rows": 1, "cols": 2,
               "entries": ["1", too_long]}
        with pytest.raises(ValueError, match="^entry 1: integer has 3010301 digits"):
            matrix_from_json(obj)


class TestDescriptors:
    def test_round_trip(self):
        for field in (F5, GF4, RATIONAL_FIELD, INTEGER_RING):
            assert descriptor_from_json(descriptor_to_json(field)) == field

    def test_nonprime_p_rejected(self):
        with pytest.raises(ValueError):
            prime_field(6)
        with pytest.raises(ValueError):
            descriptor_from_json({"kind": "prime", "p": 6})

    def test_reducible_modulus_rejected(self):
        with pytest.raises(ValueError):
            descriptor_from_json(
                {"kind": "extension", "p": 2, "modulus": ["1", "0", "1"]}
            )  # z^2 + 1 = (z+1)^2 over F_2

    def test_non_monic_modulus_rejected(self):
        with pytest.raises(ValueError):
            extension_field(5, (1, 1, 2))

    def test_degree_disagreement_rejected(self):
        with pytest.raises(ValueError):
            descriptor_from_json(
                {"kind": "extension", "p": 2, "modulus": ["1", "1", "1"], "degree": 3}
            )

    @settings(max_examples=300)
    @given(
        st.fixed_dictionaries(
            {
                "kind": st.sampled_from(["prime", "extension", "rational", "y"]),
                "p": st.integers() | st.text(alphabet="0123456789-\u0663", max_size=3),
                "modulus": st.lists(st.text(alphabet="01-\u0661", max_size=2)),
                "degree": st.integers(-1, 4),
            }
        )
        | st.dictionaries(st.text(max_size=6), st.integers() | st.text(max_size=4))
    )
    def test_totality(self, obj):
        try:
            descriptor_from_json(obj)
        except (ValueError, BudgetExceeded):
            pass  # BudgetExceeded: p above the primality bound is undecided

    def test_non_ascii_digits_rejected(self):
        with pytest.raises(ValueError, match="decimal"):
            descriptor_from_json({"kind": "prime", "p": "\u0663"})
        with pytest.raises(ValueError, match="decimal"):
            decode_element(F5, "\u0663")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FieldDescriptor("real")
