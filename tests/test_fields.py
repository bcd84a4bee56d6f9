"""Field arithmetic, primality, irreducible search, and wire encodings."""

import random
import sys
import threading
from contextlib import contextmanager
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardmat import budgets, fields, fppoly
from hardmat.budgets import PRIMALITY_BOUND, BudgetExceeded
from hardmat.circuits import parse_slc
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

import polyref

F5 = prime_field(5)
F2 = prime_field(2)
GF4 = extension_field(2, (1, 1, 1))  # F_2[z]/(z^2+z+1)
GF27 = extension_field(3, find_irreducible(3, 3))


@contextmanager
def no_int_digit_limit():
    """Lift Python's int/str digit limit inside a test, for str() and int()
    as references."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


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
        with pytest.raises(ZeroDivisionError, match="^division by zero$"):
            field_arith(1, 0, "div", RATIONAL_FIELD)

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

    def test_bound_is_psi13_minus_one(self):
        psi13 = 3_317_044_064_679_887_385_961_981
        assert PRIMALITY_BOUND == psi13 - 1
        assert not is_prime(psi13 - 1)  # even: decided at the bound
        with pytest.raises(BudgetExceeded, match=f"exceeds the primality bound {psi13 - 1}$"):
            is_prime(psi13)

    def test_decides_past_the_old_trial_division_bound(self):
        assert is_prime(10**12 + 39)
        assert prime_field(10**12 + 39).p == 10**12 + 39
        assert not is_prime((10**12 + 39) * (10**12 + 61))

    def test_strong_pseudoprimes_are_composite(self):
        # psi_1 .. psi_12: the least strong pseudoprimes to the first k prime
        # bases (psi_9 = psi_10 = psi_11); psi_12 passes every base but 41
        psis = [
            2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
            341550071728321, 3825123056546413051, 318665857834031151167461,
        ]
        assert not any(is_prime(n) for n in psis)

    def test_matches_trial_division_below_1e5(self):
        def trial_division(n):  # the seed's primality test
            if n < 2:
                return False
            if n % 2 == 0:
                return n == 2
            d = 3
            while d * d <= n:
                if n % d == 0:
                    return False
                d += 2
            return True

        assert [n for n in range(10**5) if is_prime(n)] == [
            n for n in range(10**5) if trial_division(n)
        ]

    def test_matches_sympy_below_1e24(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(20150101)
        samples = [rng.randrange(10**24) for _ in range(3000)]
        samples += [
            sympy.nextprime(rng.randrange(10**k, 10 ** (k + 1)))
            for k in range(12, 24)
            for _ in range(5)
        ]
        samples += [  # semiprimes with two 12-digit factors
            sympy.nextprime(rng.randrange(10**11, 10**12))
            * sympy.nextprime(rng.randrange(10**11, 10**12))
            for _ in range(50)
        ]
        for n in samples:
            assert is_prime(n) == sympy.isprime(n), n

    def test_one_function_serves_every_import_path(self):
        import hardmat

        assert fields.is_prime is budgets.is_prime is hardmat.is_prime


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
            if not polyref.mod_general(g, f, p):
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
            assert polyref.eval_at(g, x, p) != 0
        # gcd(g, z^(p^i) - z) = 1 for 1 <= i <= d/2
        field = extension_field(p, g)
        h = extension_generator(field)
        for _ in range(d // 2):
            h = power(field, h, p)
            assert polyref.gcd(polyref.sub(fppoly.trim(h), (0, 1), p), g, p) == (1,)

    def test_budget_exceeded(self, monkeypatch):
        monkeypatch.setattr(fppoly, "IRREDUCIBLE_SCAN_BUDGET", 2)
        with pytest.raises(BudgetExceeded):
            find_irreducible(2, 64)

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


# ---------------------------------------------------------------------------
# Extension arithmetic runs on fppoly's packed rings; the tuple routines it
# replaced live on in polyref as references.


def _ref_reduce(a, field):
    """a mod the modulus, padded to the degree (the reference residue)."""
    r = polyref.mod_monic(fppoly.trim(a), field.modulus, field.p)
    return r + (0,) * (field.degree - len(r))


def _ref_mul(a, b, field):
    return _ref_reduce(polyref.mul(fppoly.trim(a), fppoly.trim(b), field.p), field)


def _ref_div(a, b, field):
    inv = polyref.inverse_mod(b, field.modulus, field.p)
    return _ref_mul(a, inv, field)


SMALL_DEGREE_FIELDS = [
    extension_field(2, (0, 1)),  # F_2[z]/(z): z is 0
    extension_field(2, (1, 1)),
    extension_field(2, (1, 1, 1)),
    extension_field(3, (0, 1)),
    extension_field(3, (1, 1)),  # z = -1 = 2
    extension_field(3, (1, 0, 1)),
    extension_field(5, (2, 1)),
    extension_field(5, find_irreducible(5, 2)),
    extension_field(7, (1, 0, 1)),  # -1 is no square mod 7
    extension_field(1_000_003, (5, 1)),
    extension_field(1_000_003, find_irreducible(1_000_003, 2)),
]


@pytest.mark.parametrize(
    "field", SMALL_DEGREE_FIELDS, ids=lambda f: f"{f.p}-{'-'.join(map(str, f.modulus))}"
)
class TestSmallDegreeExtensions:
    """Degrees 1 and 2, where the packed products have the fewest slots."""

    def _sample(self, field):
        p, d = field.p, field.degree
        if p**d <= 49:
            return list(product(range(p), repeat=d))
        rng = random.Random(p * 10 + d)
        return [tuple(rng.randrange(p) for _ in range(d)) for _ in range(12)]

    def test_mul_and_div_match_tuples(self, field):
        ops = ops_for(field)
        elements = self._sample(field)
        for a in elements:
            for b in elements:
                assert ops.mul(a, b) == _ref_mul(a, b, field), (a, b)
                if any(b):
                    assert ops.div(a, b) == _ref_div(a, b, field), (a, b)

    def test_from_int_generator_and_power_match_tuples(self, field):
        ops = ops_for(field)
        p = field.p
        for k in (0, 1, 2, p - 1, p, 3 * p + 2, -1):
            assert ops.from_int(k) == _ref_reduce((k % p,), field)
        z = extension_generator(field)
        assert z == _ref_reduce((0, 1), field)
        want = ops.one
        for e in range(2 * field.degree + 3):
            assert power(field, z, e) == want
            want = _ref_mul(want, z, field)

    def test_inverse_and_zero_division(self, field):
        ops = ops_for(field)
        for a in self._sample(field):
            if any(a):
                assert ops.mul(a, ops.div(ops.one, a)) == ops.one
        with pytest.raises(ZeroDivisionError, match="^inverse of zero in extension field$"):
            ops.div(ops.one, ops.zero)


PACKED_CASES = [(2, 1281), (3, 161), (5, 40), (1_000_003, 6), (999_999_999_989, 4)]


@pytest.fixture(scope="module", params=PACKED_CASES, ids=str)
def packed_field(request):
    p, d = request.param
    return extension_field(p, find_irreducible(p, d))


class TestPackedExtensionOps:
    """Random elements at the benchmark degrees, a middle one and large p."""

    def _pairs(self, field, n):
        p, d = field.p, field.degree
        rng = random.Random(p + d)
        return [
            tuple(tuple(rng.randrange(p) for _ in range(d)) for _ in range(2))
            for _ in range(n)
        ]

    def test_mul_and_div_match_tuples(self, packed_field):
        ops = ops_for(packed_field)
        for a, b in self._pairs(packed_field, 2):
            assert ops.mul(a, b) == _ref_mul(a, b, packed_field)
            assert ops.div(a, b) == _ref_div(a, b, packed_field)

    def test_inverse_times_element_is_one(self, packed_field):
        ops = ops_for(packed_field)
        for a, _ in self._pairs(packed_field, 3):
            assert ops.mul(a, ops.div(ops.one, a)) == ops.one

    def test_zero_division_message_is_unchanged(self, packed_field):
        ops = ops_for(packed_field)
        with pytest.raises(ZeroDivisionError) as got:
            ops.div(ops.one, ops.zero)
        with pytest.raises(ZeroDivisionError) as want:
            polyref.inverse_mod(ops.zero, packed_field.modulus, packed_field.p)
        assert str(got.value) == str(want.value)

    def test_against_sympy_galoistools(self, packed_field):
        gt = pytest.importorskip("sympy.polys.galoistools")
        from sympy.polys.domains import ZZ

        ops = ops_for(packed_field)
        p = packed_field.p
        g = list(reversed(packed_field.modulus))

        def to_gf(a):  # sympy's dense lists are high-degree-first
            return list(reversed(fppoly.trim(a)))

        def from_gf(f):
            return _ref_reduce(tuple(int(c) % p for c in reversed(f)), packed_field)

        for a, b in self._pairs(packed_field, 1):
            want = gt.gf_rem(gt.gf_mul(to_gf(a), to_gf(b), p, ZZ), g, p, ZZ)
            assert ops.mul(a, b) == from_gf(want)
            s, _, h = gt.gf_gcdex(to_gf(b), g, p, ZZ)
            assert h == [1]
            assert ops.div(ops.one, b) == from_gf(s)


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

    def test_residue_must_be_a_string(self):
        with pytest.raises(ValueError, match="^expected a decimal string, got int$"):
            decode_element(F5, 4)

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

    def test_split_parse_equals_int(self):
        rng = random.Random(5)
        split = budgets._SPLIT_DIGITS
        for length in (1, split - 1, split, split + 1, 2 * split, 2 * split + 1,
                       4 * split + 1, 5 * split + 3):
            text = "".join(rng.choice("0123456789") for _ in range(length))
            with no_int_digit_limit():
                expected = int(text)
            assert decode_element(INTEGER_RING, text) == expected
            assert decode_element(INTEGER_RING, "-" + text) == -expected
        assert decode_element(INTEGER_RING, "0" * (3 * split) + "12") == 12

    def test_split_print_equals_str(self):
        rng = random.Random(7)
        cases = [0, 1, 9, -1, -(10**4300)]
        for j in range(6):
            k = budgets._SPLIT_DIGITS << j
            cases += [10**k - 1, 10**k, 10**k + 1, -(10**k) - 1]
            cases += [5 * 10**k + 7, 10 ** (2 * k) + 10 ** (k - 1)]  # low halves 00...
        cases += [rng.getrandbits(rng.randrange(1, 60_001)) for _ in range(300)]
        for x in cases:
            with no_int_digit_limit():
                expected = str(x)
            assert budgets._decimal(x) == expected

    def test_big_integers_under_the_lowest_digit_limit(self):
        """CPython accepts a digit limit as low as 640 (for instance from
        PYTHONINTMAXSTRDIGITS); big integers still print and parse."""
        x = -(7**6000)
        with no_int_digit_limit():
            expected = str(x)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(sys.int_info.str_digits_check_threshold)
        try:
            assert budgets._decimal(x) == expected
            assert decode_element(INTEGER_RING, expected) == x
        finally:
            sys.set_int_max_str_digits(limit)

    def test_digit_limit_untouched_under_threads(self):
        """Printing past the int/str digit limit never changes that
        process-wide setting, however the threads interleave."""
        limit = sys.get_int_max_str_digits()
        x = 7**6000  # 5,071 digits
        errors = []

        def work():
            try:
                for _ in range(3000):
                    budgets._decimal(x)
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
            after = sys.get_int_max_str_digits()
            sys.set_int_max_str_digits(limit)  # keep a failure from spreading
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert after == limit

    @pytest.mark.parametrize(
        "parse",
        [
            lambda digits: decode_element(F5, digits),
            lambda digits: decode_element(RATIONAL_FIELD, "1/" + digits),
            lambda digits: parse_slc(f"field prime {digits}\nlayer 1 1\nend\n").field.p,
        ],
        ids=["prime residue", "rational part", "slc token"],
    )
    def test_decimal_text_cap_outside_the_integer_ring(self, parse):
        assert parse("0" * 4299 + "3") in (3, Fraction(1, 3))
        message = "integer has 4301 digits, more than the limit of 4300$"
        with pytest.raises(ValueError, match=message):
            parse("0" * 4300 + "3")

    def test_million_digit_parse(self):
        # str(x) of 10^6 digits is itself quadratic (seconds), so the parse
        # is checked against a residue taken from the text in linear time
        rng = random.Random(6)
        text = "".join(f"{rng.randrange(10**18):018d}" for _ in range(55_556))
        text = "7" + text[: 10**6 - 1]
        value = decode_element(INTEGER_RING, text)
        q = 2**61 - 1
        residue = 0
        for i in range(0, len(text), 18):
            chunk = text[i : i + 18]
            residue = (residue * 10 ** len(chunk) + int(chunk)) % q
        assert value % q == residue
        assert value % 10**18 == int(text[-18:])
        assert 10 ** (10**6 - 1) < value < 10 ** 10**6


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

    @pytest.mark.parametrize(
        "obj, message",
        [
            ({"kind": "y", "p": "x"}, "unknown field kind 'y'"),
            ({"kind": ["prime"]}, "unknown field kind ['prime']"),
            ({"kind": "rational", "p": 5}, None),
            ({"kind": "prime", "p": None}, "p must be an integer"),
            ({"kind": "prime", "p": "-5"}, "primality is defined for nonnegative integers"),
            (
                {"kind": "extension", "p": 4, "modulus": ["1", "1", "1"], "degree": "x"},
                "p must be prime, got 4",
            ),
            (
                {"kind": "extension", "p": 2, "modulus": ["1", "1", "0"], "degree": "x"},
                "modulus must be monic",
            ),
            (
                {"kind": "extension", "p": 2, "modulus": ["1", "0", "1"], "degree": 3},
                "declared degree disagrees with the modulus",
            ),
            (
                {"kind": "extension", "p": 2, "modulus": ["1", "0", "1"], "degree": None},
                "degree must be an integer",
            ),
            (
                {"kind": "extension", "p": 2, "modulus": ["1", "0", "1"], "degree": "2"},
                "extension modulus is not irreducible",
            ),
            ({"kind": "extension", "p": 2, "modulus": ["1"]},
             "extension modulus must be an array of residues"),
        ],
    )
    def test_messages_in_check_order(self, obj, message):
        """p, then the coefficients, then a declared degree, then
        irreducibility: the first failing check names the defect."""
        if message is None:
            assert descriptor_from_json(obj) == RATIONAL_FIELD
            return
        with pytest.raises(ValueError) as err:
            descriptor_from_json(obj)
        assert str(err.value) == message

    def test_unprovable_p_is_a_budget_refusal_before_the_degree(self):
        obj = {"kind": "extension", "p": 10**30, "modulus": ["1", "1"], "degree": "x"}
        with pytest.raises(BudgetExceeded, match="exceeds the primality bound"):
            descriptor_from_json(obj)

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
