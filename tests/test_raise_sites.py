"""Input checks of the library functions, one exact message each.

Each row calls a public function (or a checked helper) with one defect and
pins the whole ValueError text.  ``scripts/linemap.py --list`` printed these
raise sites as reached by no test.
"""

import pytest

from hardmat import fppoly
from hardmat.circuits import min_depth2_sparsity
from hardmat.constructions import (
    HardMatrixBundle,
    amplify_direct_sum,
    quasipoly_hard,
    rebuild,
    trivial_hard,
)
from hardmat.fields import (
    INTEGER_RING,
    RATIONAL_FIELD,
    decode_element,
    encode_element,
    extension_field,
    extension_generator,
    power,
    prime_field,
)
from hardmat.hitting import (
    build_hard_psd,
    hit_inner,
    min_kernel_weight,
    refute_symmetric,
    rs_vectors,
    sparse_row_hit,
)
from hardmat.matrices import (
    from_rows,
    identity,
    lift_to_rational,
    solve,
    vandermonde,
    zeros,
)
from hardmat.sidon import verify_tsum_distinct
from hardmat.ssdim import bound_eval, sigma_t

F2, F3 = prime_field(2), prime_field(3)
F9 = extension_field(3, (1, 0, 1))  # z^2 + 1: -1 is no square mod 3
I2 = identity(F2, 2)

CASES = [
    # circuits
    (lambda: min_depth2_sparsity(zeros(F2, 5, 5), s_max=1),
     "the oracle is capped at 4x4 targets"),
    (lambda: min_depth2_sparsity(I2, s_max=-1), "s_max must be nonnegative"),
    # constructions
    (lambda: trivial_hard(0), "n must be at least 1"),
    (lambda: amplify_direct_sum(I2, 0), "m must be at least 1"),
    (lambda: quasipoly_hard(1, 1.0), "n must be at least 2"),
    (lambda: quasipoly_hard(4, 0.0), "c must be positive"),
    (lambda: rebuild(HardMatrixBundle(I2, "amplified", {"m": 1})),
     "unknown provenance 'amplified'"),
    # fields
    (lambda: extension_generator(F3),
     "generator is defined for extension fields only"),
    (lambda: power(F3, 1, -1), "negative exponents are not supported"),
    (lambda: encode_element(F3, 3), "element does not conform to F_3"),
    (lambda: decode_element(F9, "1"), "extension element must be an array of residues"),
    (lambda: decode_element(F9, ["0", "3"]), "coefficient 3 out of range for F_3"),
    (lambda: decode_element(RATIONAL_FIELD, 1), "rational element must be a string"),
    # fppoly
    (lambda: fppoly.is_irreducible((1, 2), 3),
     "irreducibility test expects a monic polynomial"),
    # hitting
    (lambda: sparse_row_hit((1,), 1, rs_vectors(5, 2)),
     "row has length 1, probes expect 5"),
    (lambda: min_kernel_weight(from_rows(RATIONAL_FIELD, [[1]])),
     "kernel-weight enumeration expects a prime-field matrix"),
    (lambda: hit_inner(I2, (1, 0), (1,)), "vector length 1 does not match 2 columns"),
    (lambda: refute_symmetric(I2, build_hard_psd(2)),
     "symmetric refutation runs over the rationals"),
    # matrices
    (lambda: from_rows(F2, []), "matrix needs at least one row and one column"),
    (lambda: from_rows(F2, [[1, 0], [1]]), "ragged rows"),
    (lambda: solve(from_rows(F2, [[1, 0]]), from_rows(F2, [[1]])),
     "solve needs a square coefficient matrix"),
    (lambda: solve(I2, from_rows(F2, [[1]])),
     "right-hand side has the wrong number of rows"),
    (lambda: vandermonde(F3, [], 2), "vandermonde needs at least one node"),
    (lambda: vandermonde(F3, [1], 0), "vandermonde needs k >= 1"),
    (lambda: lift_to_rational(I2), "lift_to_rational applies to integer-ring matrices"),
    # sidon
    (lambda: verify_tsum_distinct((1, 2), 0), "t must be at least 1"),
    (lambda: verify_tsum_distinct((1, 2), 3), "t=3 exceeds the set size 2"),
    # ssdim
    (lambda: sigma_t(identity(INTEGER_RING, 2), 0), "t must lie in [1, 4], got 0"),
    (lambda: bound_eval(0, 2, 1, 1), "s must be a positive integer"),
]


@pytest.mark.parametrize("call,message", CASES, ids=[m for _, m in CASES])
def test_input_defect_is_refused_with_its_message(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_constant_is_not_irreducible():
    assert fppoly.is_irreducible((2,), 3) is False
