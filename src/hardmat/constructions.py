"""Explicit hard-matrix constructions.

All constructions are exponent-driven: a Sidon grid supplies exponents
e[i][j], and the matrix entries are either powers alpha^e of the generator of
an explicit extension field, powers 2^e of two, or (for the small
depth-2-hard instance) doubly-exponential powers 2^(2^k).  Everything is
deterministic and rebuildable from the recorded parameters alone.
"""

from __future__ import annotations

from math import ceil, isfinite, log2

from .budgets import MAX_EXPONENT_BITS, TRIVIAL_HARD_CAP, Record, charge
from .fields import INTEGER_RING, extension_field, find_irreducible
from .matrices import ExactMatrix, identity, kronecker
from .sidon import SidonSet, construct_sidon

__all__ = [
    "ExponentMatrix",
    "HardMatrixBundle",
    "univariate_hard",
    "hard_over_finite",
    "hard_over_integers",
    "trivial_hard",
    "amplify_direct_sum",
    "quasipoly_hard",
    "rebuild",
]


class ExponentMatrix(Record):
    """Exponent grid e[i][j] of the univariate construction y^e[i][j]."""

    n: int
    t: int
    exponents: tuple[tuple[int, ...], ...]
    max_degree: int
    source: SidonSet


class HardMatrixBundle(Record):
    matrix: ExactMatrix
    provenance: str  # finite-field | integer | trivial | quasipoly
    parameters: dict


def univariate_hard(n: int, t: int) -> ExponentMatrix:
    """Exponent grid from the (n, t) Sidon construction; records max degree."""
    s = construct_sidon(n, t)
    delta = max(x for row in s.grid for x in row)
    return ExponentMatrix(n, t, s.grid, delta, s)


def hard_over_finite(p: int, n: int, t: int) -> HardMatrixBundle:
    """Matrix over F_p[z]/(g) with entries alpha^e[i][j], deg g = 10*t*Delta + 1.

    Every exponent is below the extension degree, so each entry's coefficient
    list is a single 1 at index e[i][j]; t-wise products of entries then land
    on distinct powers of alpha and stay linearly independent over F_p.
    """
    exp = univariate_hard(n, t)
    big_d = 10 * t * exp.max_degree
    modulus = find_irreducible(p, big_d + 1)
    field = extension_field(p, modulus)
    degree = field.degree
    flat = []
    for row in exp.exponents:
        for e in row:
            entry = [0] * degree
            entry[e] = 1
            flat.append(tuple(entry))
    matrix = ExactMatrix(field, n, n, tuple(flat))
    return HardMatrixBundle(
        matrix, "finite-field", {"p": p, "n": n, "t": t, "D": big_d}
    )


def hard_over_integers(n: int, t: int) -> HardMatrixBundle:
    """Integer matrix with entries 2^e[i][j] (the univariate grid at y = 2)."""
    exp = univariate_hard(n, t)
    message = "entry exponent {used} exceeds the bignum cap {cap}"
    charge(exp.max_degree, message, MAX_EXPONENT_BITS)
    flat = tuple(1 << e for row in exp.exponents for e in row)
    matrix = ExactMatrix(INTEGER_RING, n, n, flat)
    return HardMatrixBundle(matrix, "integer", {"n": n, "t": t})


def _trivial_entries(n: int) -> tuple:
    return tuple(
        1 << (1 << ((n + 1) * (i - 1) + j))
        for i in range(1, n + 1)
        for j in range(1, n + 1)
    )


def trivial_hard(n: int) -> HardMatrixBundle:
    """The doubly-exponential matrix with entries 2^(2^((n+1)(i-1)+j))."""
    if n < 1:
        raise ValueError("n must be at least 1")
    message = "n={used} exceeds the cap {cap}; entries would have 2^{log_bits} bits"
    charge(n, message, TRIVIAL_HARD_CAP, log_bits=(n + 1) * (n - 1) + n)
    matrix = ExactMatrix(INTEGER_RING, n, n, _trivial_entries(n))
    return HardMatrixBundle(matrix, "trivial", {"n": n})


def amplify_direct_sum(A: ExactMatrix, m: int) -> ExactMatrix:
    """Block-diagonal matrix with m copies of A on the diagonal (I_m (x) A)."""
    if m < 1:
        raise ValueError("m must be at least 1")
    message = (
        "{m} copies of a {rows} x {cols} block exceed the budget of "
        "{cap} dense entries"
    )
    charge((m * A.rows) * (m * A.cols), message, m=m, rows=A.rows, cols=A.cols)
    return kronecker(identity(A.field, m), A)


def quasipoly_hard(n: int, c: float) -> HardMatrixBundle:
    """Block-diagonal amplification of a polylog-size doubly-exponential block.

    The block side k is the smallest divisor of n with
    ceil(log2(n)^c) <= k <= 2*ceil(log2(n)^c); the result is I_(n/k) (x) M_k
    where (M_k)[i][j] = 2^(2^((k+1)(i-1)+j)).  c must be finite and positive;
    a c for which log2(n)^c overflows a float raises ValueError.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if not isfinite(c):
        raise ValueError(f"c must be finite, got {c}")
    if c <= 0:
        raise ValueError("c must be positive")
    try:
        target = ceil(log2(n) ** c)
    except OverflowError:
        raise ValueError(
            f"c={c} is too large: log2({n})^c overflows a float"
        ) from None
    k = next(
        (d for d in range(target, min(2 * target, n) + 1) if n % d == 0), None
    )
    if k is None:
        window = f"[{target}, {2 * target}]"
        if target > n:  # then target can have hundreds of digits
            formula = f"ceil(log2({n})^{c})"
            window = f"[{formula}, 2*{formula}]"
        raise ValueError(f"no divisor of {n} lies in {window}")
    block = trivial_hard(k).matrix
    matrix = amplify_direct_sum(block, n // k)
    return HardMatrixBundle(matrix, "quasipoly", {"n": n, "c": c, "k": k})


def rebuild(bundle: HardMatrixBundle) -> HardMatrixBundle:
    """Reconstruct a bundle from its recorded parameters alone."""
    params = bundle.parameters
    if bundle.provenance == "finite-field":
        return hard_over_finite(params["p"], params["n"], params["t"])
    if bundle.provenance == "integer":
        return hard_over_integers(params["n"], params["t"])
    if bundle.provenance == "trivial":
        return trivial_hard(params["n"])
    if bundle.provenance == "quasipoly":
        return quasipoly_hard(params["n"], params["c"])
    raise ValueError(f"unknown provenance {bundle.provenance!r}")
