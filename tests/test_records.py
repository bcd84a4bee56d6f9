"""The 15 result records: equality, hashing, repr, immutability, validation.

Each record type is a :class:`hardmat.budgets.Record`.  The checks below pin
the behaviour the frozen dataclasses they replace had, and compare repr and
hash against a frozen dataclass with the same fields.
"""

import copy
import dataclasses
import pickle

import pytest

from hardmat.budgets import FrozenRecordError, Record
from hardmat.circuits import CircuitFactorization, SearchResult, VerificationResult
from hardmat.constructions import ExponentMatrix, HardMatrixBundle
from hardmat.fields import RATIONAL_FIELD, FieldDescriptor, prime_field
from hardmat.hitting import HittingVectors, PsdPair, RefutationVerdict, RSParams
from hardmat.matrices import ExactMatrix, SparsityReport
from hardmat.sidon import SidonSet
from hardmat.ssdim import BoundEvaluation, ProductFamily

F2 = prime_field(2)
M1 = "ExactMatrix(field=F_2, rows=1, cols=1, entries=(1,))"


def m1():
    return ExactMatrix(prime_field(2), 1, 1, (1,))


def sidon():
    return SidonSet(1, 1, 2, ((1,),))


def probes():
    return HittingVectors(RATIONAL_FIELD, 2, 1, ((1, 1),))


# (record class, field values built afresh on each call, exact repr)
CASES = [
    (FieldDescriptor, lambda: ("prime", 5, None), "F_5"),
    (ExactMatrix, lambda: (F2, 1, 1, (1,)), M1),
    (
        SparsityReport,
        lambda: (1, (1,), (1,)),
        "SparsityReport(total=1, row_counts=(1,), col_counts=(1,))",
    ),
    (SidonSet, lambda: (1, 1, 2, ((1,),)), "SidonSet(n=1, t=1, p=2, grid=((1,),))"),
    (
        ExponentMatrix,
        lambda: (1, 1, ((1,),), 1, sidon()),
        "ExponentMatrix(n=1, t=1, exponents=((1,),), max_degree=1, "
        "source=SidonSet(n=1, t=1, p=2, grid=((1,),)))",
    ),
    (
        HardMatrixBundle,
        lambda: (m1(), "trivial", {"n": 1}),
        f"HardMatrixBundle(matrix={M1}, provenance='trivial', parameters={{'n': 1}})",
    ),
    (
        ProductFamily,
        lambda: (1, (1,), 1),
        "ProductFamily(t=1, values=(1,), subset_count=1)",
    ),
    (
        BoundEvaluation,
        lambda: (4, 2, 1, 2, 1.5, 2.5, 3.5),
        "BoundEvaluation(s=4, d=2, t=1, n=2, log2_gamma_upper=1.5, "
        "log2_sigma_upper=2.5, log2_gamma_lower=3.5)",
    ),
    (
        HittingVectors,
        lambda: (RATIONAL_FIELD, 2, 1, ((1, 1),)),
        "HittingVectors(field=rational, n=2, s=1, vectors=((1, 1),))",
    ),
    (RSParams, lambda: (5, 2), "RSParams(q=5, k=2)"),
    (
        PsdPair,
        lambda: (2, m1(), m1(), probes()),
        f"PsdPair(n=2, mtilde={M1}, m={M1}, "
        "probes=HittingVectors(field=rational, n=2, s=1, vectors=((1, 1),)))",
    ),
    (
        RefutationVerdict,
        lambda: ("product-mismatch", 3, None, (1, 2), None, None, None, "B C"),
        "RefutationVerdict(kind='product-mismatch', bound=3, sparsity=None, "
        "witness_entry=(1, 2), witness_index=None, witness_output=None, "
        "value=None, detail='B C')",
    ),
    (
        CircuitFactorization,
        lambda: (F2, (m1(),)),
        f"CircuitFactorization(field=F_2, factors=({M1},))",
    ),
    (
        VerificationResult,
        lambda: (True, 1, m1(), None),
        f"VerificationResult(equal=True, size=1, product={M1}, mismatch=None)",
    ),
    (
        SearchResult,
        lambda: (1, None, 3, 4, 2),
        "SearchResult(s_min=1, witness=None, nodes=3, s_max=4, m_max=2)",
    ),
]
IDS = [case[0].__name__ for case in CASES]
UNHASHABLE = {HardMatrixBundle}  # its parameters are a dict


def test_every_record_type_is_covered():
    assert len(CASES) == 15
    assert all(issubclass(cls, Record) for cls, _, _ in CASES)


@pytest.mark.parametrize("cls, values, text", CASES, ids=IDS)
class TestRecord:
    def test_fields_in_order(self, cls, values, text):
        rec = cls(*values())
        assert tuple(getattr(rec, name) for name in cls._fields) == values()

    def test_equal_values_equal_and_hash_equal(self, cls, values, text):
        a, b = cls(*values()), cls(*values())
        assert a == b and not a != b
        if cls in UNHASHABLE:
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(b) == hash(values())

    def test_keywords_equal_positionals(self, cls, values, text):
        assert cls(**dict(zip(cls._fields, values()))) == cls(*values())

    def test_other_class_same_values_not_equal(self, cls, values, text):
        twin = type(cls)(
            cls.__name__,
            (Record,),
            {"__annotations__": dict(cls.__annotations__), "__qualname__": cls.__qualname__},
        )
        rec, other = cls(*values()), twin(*values())
        assert rec != other and other != rec
        assert rec != values()

    def test_repr(self, cls, values, text):
        assert repr(cls(*values())) == text

    def test_repr_and_hash_match_a_frozen_dataclass(self, cls, values, text):
        ref = dataclasses.make_dataclass(cls.__name__, cls._fields, frozen=True)
        rec, expected = cls(*values()), ref(*values())
        if cls is not FieldDescriptor:  # it keeps its own short repr
            assert repr(rec) == repr(expected)
        if cls not in UNHASHABLE:
            assert hash(rec) == hash(expected)

    def test_assignment_and_deletion_raise(self, cls, values, text):
        rec = cls(*values())
        for name in cls._fields:
            with pytest.raises(AttributeError) as info:
                setattr(rec, name, 0)
            assert isinstance(info.value, FrozenRecordError)
            assert str(info.value) == f"cannot assign to field {name!r}"
            with pytest.raises(FrozenRecordError, match=f"cannot delete field {name!r}"):
                delattr(rec, name)
        with pytest.raises(FrozenRecordError):
            rec.extra = 1
        assert rec == cls(*values())

    def test_pickle_and_copy_round_trip(self, cls, values, text):
        rec = cls(*values())
        assert pickle.loads(pickle.dumps(rec)) == rec
        assert copy.copy(rec) == rec == copy.deepcopy(rec)

    def test_bad_arguments_are_type_errors(self, cls, values, text):
        vals = values()
        with pytest.raises(TypeError):
            cls(*vals, None)
        with pytest.raises(TypeError):
            cls(*vals, **{cls._fields[0]: vals[0]})
        with pytest.raises(TypeError):
            cls(*vals, unknown=1)
        if cls not in (FieldDescriptor, RefutationVerdict):  # these have defaults
            with pytest.raises(TypeError):
                cls(*vals[:-1])


class TestDefaults:
    def test_field_descriptor(self):
        q = FieldDescriptor("rational")
        assert (q.kind, q.p, q.modulus) == ("rational", None, None)
        assert FieldDescriptor("prime", 5) == prime_field(5)
        assert FieldDescriptor("extension", 2, (1, 1, 1)).modulus == (1, 1, 1)

    def test_field_descriptor_reprs(self):
        assert repr(FieldDescriptor("extension", 2, (1, 1, 1))) == "F_2[z]/(deg 2)"
        assert repr(FieldDescriptor("integer-ring")) == "integer-ring"

    def test_refutation_verdict(self):
        v = RefutationVerdict("sparsity-at-least-quarter", 4)
        assert v == RefutationVerdict(
            "sparsity-at-least-quarter", 4, None, None, None, None, None, ""
        )
        assert RefutationVerdict("x", 1, detail="d").detail == "d"
        assert RefutationVerdict("x", 1, sparsity=3).sparsity == 3

    def test_missing_required_field(self):
        with pytest.raises(TypeError):
            FieldDescriptor()
        with pytest.raises(TypeError):
            RefutationVerdict("kind")


class TestPostInit:
    @pytest.mark.parametrize(
        "args, message",
        [
            (("finite", 2), "unknown field kind 'finite'"),
            (("rational", 2), "rational fields take no parameters"),
            (("integer-ring", None, (1, 1)), "integer-ring fields take no parameters"),
            (("prime", None), "p must be prime, got None"),
            (("prime", 4), "p must be prime, got 4"),
            (("extension", 9, (1, 1)), "p must be prime, got 9"),
            (("prime", 5, (1, 1)), "prime fields take no modulus"),
            (("extension", 2), "extension modulus must have degree >= 1"),
            (("extension", 2, (1,)), "extension modulus must have degree >= 1"),
            (("extension", 2, (1, True)), "modulus coefficients must be integers"),
            (("extension", 2, (1, 1.0)), "modulus coefficients must be integers"),
            (("extension", 2, (2, 1)), "modulus coefficients must be residues mod 2"),
            (("extension", 3, (1, 2)), "modulus must be monic"),
        ],
    )
    def test_field_descriptor_errors(self, args, message):
        with pytest.raises(ValueError) as info:
            FieldDescriptor(*args)
        assert str(info.value) == message

    def test_field_descriptor_normalises_modulus(self):
        f = FieldDescriptor("extension", 2, [1, 1, 1])
        assert f.modulus == (1, 1, 1) and isinstance(f.modulus, tuple)
        assert f == FieldDescriptor("extension", 2, (1, 1, 1))

    @pytest.mark.parametrize(
        "args, message",
        [
            ((F2, 0, 1, ()), "matrix dimensions must be positive"),
            ((F2, 1, 0, ()), "matrix dimensions must be positive"),
            ((F2, 1, 2, (1,)), "1x2 matrix needs 2 entries, got 1"),
            ((F2, 1, 1, (2,)), "entry 0 does not conform to F_2: 2"),
            ((F2, 1, 2, (0, True)), "entry 1 does not conform to F_2: True"),
        ],
    )
    def test_exact_matrix_errors(self, args, message):
        with pytest.raises(ValueError) as info:
            ExactMatrix(*args)
        assert str(info.value) == message

    def test_exact_matrix_normalises_entries(self):
        m = ExactMatrix(F2, 1, 2, [0, 1])
        assert m.entries == (0, 1) and m == ExactMatrix(F2, 1, 2, (0, 1))

    def test_circuit_errors(self):
        f3 = prime_field(3)
        with pytest.raises(ValueError, match="^a circuit needs at least one layer$"):
            CircuitFactorization(F2, ())
        with pytest.raises(ValueError, match="^all layers must share the circuit's field$"):
            CircuitFactorization(F2, (ExactMatrix(f3, 1, 1, (1,)),))
        two = ExactMatrix(F2, 2, 1, (1, 0))
        with pytest.raises(ValueError, match=r"^dimension chain broken: 2x1 then 2x1$"):
            CircuitFactorization(F2, (two, two))

    def test_circuit_normalises_factors(self):
        c = CircuitFactorization(F2, [m1(), m1()])
        assert c.factors == (m1(), m1()) and c.depth == 2 and c.size == 2

    @pytest.mark.parametrize(
        "q, k, message",
        [
            (4, 2, "q must be prime, got 4"),
            (5, 0, "k must lie in [1, 4], got 0"),
            (5, 5, "k must lie in [1, 4], got 5"),
        ],
    )
    def test_rs_params_errors(self, q, k, message):
        with pytest.raises(ValueError) as info:
            RSParams(q, k)
        assert str(info.value) == message
