"""Matrix entries are checked once, where they enter.

The public constructors check every entry against the field.  Builders whose
entries come from checked ones, or from field operations on them, skip the
check; these tests hold each such builder to a matrix that the checked
constructor accepts unchanged, and show that none of them runs ``conforms``.
"""

import json
import random
from fractions import Fraction

import pytest

from hardmat.circuits import (
    CircuitFactorization,
    emit_slc,
    min_depth2_sparsity,
    parse_slc,
)
from hardmat.constructions import (
    amplify_direct_sum,
    hard_over_finite,
    hard_over_integers,
    trivial_hard,
)
from hardmat.fields import (
    INTEGER_RING,
    RATIONAL_FIELD,
    encode_element,
    extension_field,
    find_irreducible,
    ops_for,
    prime_field,
)
from hardmat.hitting import build_hard_psd
from hardmat.matrices import (
    ExactMatrix,
    from_rows,
    identity,
    inverse,
    kronecker,
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

F2 = prime_field(2)
F3_TARGET = ExactMatrix(prime_field(3), 2, 2, (1, 2, 2, 0))
FIELDS = {
    "F_2": F2,
    "F_13": prime_field(13),
    "F_2[z]/(g)": extension_field(2, find_irreducible(2, 7)),
    "F_3[z]/(g)": extension_field(3, find_irreducible(3, 4)),
    "Q": RATIONAL_FIELD,
    "Z": INTEGER_RING,
}


def _element(field, rng):
    """A seeded element, zero about a third of the time."""
    ops = ops_for(field)
    if rng.random() < 0.33:
        # an extension zero equal to, but not the same object as, ops.zero
        return tuple(ops.zero) if field.kind == "extension" else ops.zero
    if field.kind == "prime":
        return rng.randrange(field.p)
    if field.kind == "extension":
        return tuple(rng.randrange(field.p) for _ in range(field.degree))
    if field.kind == "rational":
        return Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    return rng.randint(-9, 9)


def _matrix(field, rows, cols, rng, invertible=False):
    while True:
        entries = [_element(field, rng) for _ in range(rows * cols)]
        m = ExactMatrix(field, rows, cols, tuple(entries))
        if not invertible or rank(m) == rows:
            return m


def _builds(name, seed):
    """(label, thunk) for every builder that skips the entry check, over one
    field, on inputs made (and checked) before any thunk runs."""
    field = FIELDS[name]
    rng = random.Random(seed)
    a, b = _matrix(field, 3, 4, rng), _matrix(field, 4, 2, rng)
    wire = matrix_to_json(a)
    text = emit_slc(CircuitFactorization(field, (a, b)))
    builds = [
        ("matmul", lambda: matmul(a, b)),
        ("transpose", lambda: transpose(a)),
        ("kronecker", lambda: kronecker(a, b)),
        ("identity", lambda: identity(field, 3)),
        ("zeros", lambda: zeros(field, 2, 3)),
        ("matrix_from_json", lambda: matrix_from_json(wire)),
        ("parse_slc", lambda: parse_slc(text).factors),
        ("amplify_direct_sum", lambda: amplify_direct_sum(a, 2)),
    ]
    if field.kind == "integer-ring":
        builds.append(("lift_to_rational", lambda: lift_to_rational(a)))
    else:
        square = _matrix(field, 3, 3, rng, invertible=True)
        rhs = _matrix(field, 3, 2, rng)
        builds.append(("solve", lambda: solve(square, rhs)))
        builds.append(("inverse", lambda: inverse(square)))
    if field == F2:  # the oracle runs over F_2 and F_3
        target = _matrix(field, 2, 2, rng)
        builds.append(
            ("search witness", lambda: min_depth2_sparsity(target, 2, 8).witness)
        )
    return builds


CONSTRUCTIONS = [
    ("hard_over_finite(2, 2, 1)", lambda: hard_over_finite(2, 2, 1).matrix),
    ("hard_over_finite(3, 2, 1)", lambda: hard_over_finite(3, 2, 1).matrix),
    ("hard_over_integers(2, 2)", lambda: hard_over_integers(2, 2).matrix),
    ("trivial_hard(2)", lambda: trivial_hard(2).matrix),
    ("build_hard_psd(4)", lambda: (build_hard_psd(4).mtilde, build_hard_psd(4).m)),
    ("search witness over F_3", lambda: min_depth2_sparsity(F3_TARGET, 2, 8).witness),
]
CONSTRUCTION_IDS = [label for label, _ in CONSTRUCTIONS]


def _matrices(result):
    if isinstance(result, ExactMatrix):
        return [result]
    if isinstance(result, CircuitFactorization):
        return list(result.factors)
    return [m for part in result for m in _matrices(part)]


def _assert_checked_form(result):
    matrices = _matrices(result)
    assert matrices
    for m in matrices:
        assert type(m.entries) is tuple
        assert m == ExactMatrix(m.field, m.rows, m.cols, m.entries)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name", FIELDS)
def test_builders_equal_the_checked_constructor(name, seed):
    for label, build in _builds(name, seed):
        _assert_checked_form(build())


@pytest.mark.parametrize("label, build", CONSTRUCTIONS, ids=CONSTRUCTION_IDS)
def test_constructions_equal_the_checked_constructor(label, build):
    _assert_checked_form(build())


@pytest.fixture
def conforms_calls(monkeypatch):
    """Counts calls of ``conforms`` on every field kind's arithmetic."""
    calls = []
    for ops in {type(ops_for(f)) for f in FIELDS.values()}:
        original = ops.conforms

        def counted(self, x, _original=original):
            calls.append(x)
            return _original(self, x)

        monkeypatch.setattr(ops, "conforms", counted)
    return calls


@pytest.mark.parametrize("name", FIELDS)
def test_builders_run_no_entry_check(name, conforms_calls):
    builds = _builds(name, 0)
    one = ExactMatrix(F2, 1, 1, (1,))
    builds.append(("matrix_to_json", lambda: matrix_to_json(one)))
    conforms_calls.clear()  # the inputs were checked as they were made
    for label, build in builds:
        build()
        assert conforms_calls == [], label


@pytest.mark.parametrize("label, build", CONSTRUCTIONS, ids=CONSTRUCTION_IDS)
def test_constructions_run_no_entry_check(label, build, conforms_calls):
    build()
    assert conforms_calls == []


@pytest.mark.parametrize("name", FIELDS)
def test_matrix_to_json_encodes_like_encode_element(name):
    a = _matrix(FIELDS[name], 3, 4, random.Random(7))
    expected = [encode_element(a.field, x) for x in a.entries]
    wire = matrix_to_json(a)
    assert json.dumps(wire["entries"]) == json.dumps(expected)
    assert matrix_from_json(wire) == a


def test_the_largest_extension_encodes_like_encode_element():
    a = hard_over_finite(2, 3, 2).matrix  # deg g = 1281
    wire = matrix_to_json(a)
    assert wire["entries"] == [encode_element(a.field, x) for x in a.entries]


E2 = FIELDS["F_2[z]/(g)"]


def test_extension_zero_by_identity_or_value():
    ops = ops_for(E2)
    assert ops.is_zero(ops.zero) and ops.is_zero((0,) * 7)
    assert not ops.is_zero((0,) * 6 + (1,))
    header = "field ext 2 " + " ".join(map(str, E2.modulus))
    layer = parse_slc(header + "\nlayer 2 3\nend\n").factors[0]
    assert all(x is ops.zero for x in layer.entries)
    assert sparsity(layer).total == 0


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: from_rows(F2, [[1, True]]), "entry 1 does not conform to F_2: True"),
        (
            lambda: vandermonde(RATIONAL_FIELD, [0.5], 2),
            "entry 1 does not conform to rational: 0.5",
        ),
        (lambda: identity(F2, 0), "matrix dimensions must be positive"),
        (lambda: identity(F2, -1), "matrix dimensions must be positive"),
        (lambda: zeros(F2, 0, 1), "matrix dimensions must be positive"),
        (lambda: zeros(F2, 2, 0), "matrix dimensions must be positive"),
        (
            lambda: ExactMatrix(E2, 1, 1, ((0, 2) + (0,) * 5,)),
            f"entry 0 does not conform to {E2!r}: (0, 2, 0, 0, 0, 0, 0)",
        ),
        (
            lambda: ExactMatrix(E2, 1, 2, ((0,) * 7, (1,))),
            f"entry 1 does not conform to {E2!r}: (1,)",
        ),
        (lambda: encode_element(E2, (1,)), f"element does not conform to {E2!r}"),
    ],
)
def test_public_paths_keep_their_check(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message
