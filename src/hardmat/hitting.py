"""Probe vectors, Reed-Solomon kernels, and the hard PSD instance.

Over the rationals, the probe vectors v_i = (1, i, i^2, ..., i^(n-1)) hit
every nonzero s-sparse row for some i <= s: an s-term real polynomial has
fewer than s distinct positive roots.  Over F_q the columns of a Reed-Solomon
generator matrix play the same role, because the dual code has minimum
distance s + 1.  On top of these probes sits an explicit PSD matrix of rank
n/2 that annihilates the first n/2 probes; any claimed Gram or invertible
factorization of it that is too sparse contradicts the hitting guarantee,
and the refuters below surface the exact witness.  The PSD matrix is built
in closed form from Lagrange basis polynomials and checked in integers.
"""

from __future__ import annotations

from math import factorial, lcm
from operator import mul

from .budgets import PSD_MAX_N, Record, charge, enumeration_budget, is_prime
from .fields import (
    KIND_PRIME,
    KIND_RATIONAL,
    RATIONAL_FIELD,
    FieldDescriptor,
    ops_for,
    prime_field,
)
from .matrices import (
    ExactMatrix,
    _rank_rows,
    first_mismatch,
    from_rows,
    matmul,
    nullspace,
    rank,
    sparsity,
    transpose,
    vandermonde,
)

__all__ = [
    "HittingVectors",
    "RSParams",
    "PsdPair",
    "RefutationVerdict",
    "vandermonde_vectors",
    "rs_vectors",
    "sparse_row_hit",
    "rs_generator",
    "min_kernel_weight",
    "hit_inner",
    "build_hard_psd",
    "refute_symmetric",
    "refute_invertible",
    "SIDE_LEFT",
    "SIDE_RIGHT",
]

SIDE_LEFT = "left-invertible"
SIDE_RIGHT = "right-invertible"


class HittingVectors(Record):
    """Probe vectors defeating nonzero rows with at most s nonzeros."""

    field: FieldDescriptor
    n: int
    s: int
    vectors: tuple[tuple, ...]


class RSParams(Record):
    q: int
    k: int

    def __post_init__(self):
        if not is_prime(self.q):
            raise ValueError(f"q must be prime, got {self.q}")
        if not 1 <= self.k <= self.q - 1:
            raise ValueError(f"k must lie in [1, {self.q - 1}], got {self.k}")


class PsdPair(Record):
    """Hard PSD instance: m = mtilde^T mtilde, rank n/2, first n/2 probes killed."""

    n: int
    mtilde: ExactMatrix
    m: ExactMatrix
    probes: HittingVectors


class RefutationVerdict(Record):
    """Outcome of a refutation check.  Witness coordinates are 1-based.

    Kinds: not-a-factorization / product-mismatch (witness_entry),
    invertibility-failure, sparsity-at-least-quarter (sparsity),
    sparse-hitting-witness / contradiction-witness (witness_index, and for
    the invertible case witness_output).
    """

    kind: str
    bound: int
    sparsity: int | None = None
    witness_entry: tuple[int, int] | None = None
    witness_index: int | None = None
    witness_output: int | None = None
    value: object = None
    detail: str = ""


def _powers(n: int, s: int) -> tuple:
    return tuple(tuple(i**j for j in range(n)) for i in range(1, s + 1))


def vandermonde_vectors(n: int, s: int) -> HittingVectors:
    """The s probe vectors (1, i, i^2, ..., i^(n-1)) for i = 1..s, over Q.

    An upper bound on their printed digits is charged against the
    enumeration budget before any entry is built: i^j has at most
    1 + j * bit_length(i) * log10(2) digits, and log10(2) < 0.30103.
    """
    if not 1 <= s <= n:
        raise ValueError(f"s must lie in [1, {n}], got {s}")
    # sum of bit_length(i) over i <= s; i of bit length b run from 2^(b-1)
    # to 2^b - 1, or to s for the last b
    bits = sum(
        b * (min(s, 2**b - 1) - 2 ** (b - 1) + 1) for b in range(1, s.bit_length() + 1)
    )
    digits = n * s + 30103 * (n * (n - 1) // 2) * bits // 100000
    message = (
        "{s} Vandermonde probe vectors of length {n} take up to {used} "
        "printed digits, past the budget of {cap}"
    )
    charge(digits, message, s=s, n=n)
    return HittingVectors(RATIONAL_FIELD, n, s, _powers(n, s))


def rs_generator(params: RSParams) -> ExactMatrix:
    """q x k generator of the Reed-Solomon code: row i is powers of i - 1.

    The q * k dense entries are charged against the enumeration budget
    before any is built.
    """
    q, k = params.q, params.k
    message = (
        "{q} x {k} Reed-Solomon generator entries exceed the budget of "
        "{cap} dense entries"
    )
    charge(q * k, message, q=q, k=k)
    return vandermonde(prime_field(q), range(q), k)


def rs_vectors(q: int, s: int) -> HittingVectors:
    """Finite-field probes: columns of the Reed-Solomon generator with k = s."""
    gen = rs_generator(RSParams(q, s))
    vectors = tuple(gen.col(i) for i in range(s))
    return HittingVectors(prime_field(q), q, s, vectors)


def sparse_row_hit(r, s: int, hv: HittingVectors) -> int:
    """Least probe index i with <r, v_i> != 0; guaranteed i <= s.

    Requires a nonzero r with at most s nonzero entries and probes built
    with threshold at least s; violated preconditions are reported, since
    the guarantee then no longer holds.
    """
    r = tuple(r)
    if len(r) != hv.n:
        raise ValueError(f"row has length {len(r)}, probes expect {hv.n}")
    if s < 1 or s > hv.s:
        raise ValueError(f"threshold s={s} outside [1, {hv.s}] of these probes")
    ops = ops_for(hv.field)
    nnz = sum(1 for x in r if not ops.is_zero(x))
    if nnz == 0:
        raise ValueError("row is zero; nothing to hit")
    if nnz > s:
        raise ValueError(f"row has {nnz} nonzeros, more than the threshold {s}")
    probes = from_rows(hv.field, list(zip(*hv.vectors[:s])))
    values = matmul(from_rows(hv.field, [r]), probes).entries
    for i, x in enumerate(values, start=1):
        if not ops.is_zero(x):
            return i
    raise RuntimeError("hitting guarantee violated; this cannot happen")


def min_kernel_weight(G: ExactMatrix, budget: int | None = None) -> int | None:
    """Minimum Hamming weight over all nonzero vectors in ker(G^T), exactly.

    Returns None when the kernel is zero.  Weight is invariant under nonzero
    scaling, so only coefficient combinations of a basis whose first nonzero
    coefficient is 1 are walked, depth-first, and the last basis vector b is
    counted rather than enumerated: slot i of acc + c*b vanishes only at
    c = -acc_i / b_i when b_i != 0, for every c when b_i = acc_i = 0, and
    never otherwise, so min_c wt(acc + c*b) is the length minus the slots
    zero for every c minus the most slots one c zeroes.  The budget still
    caps the whole kernel: p^dim must fit it.
    """
    if G.field.kind != KIND_PRIME:
        raise ValueError("kernel-weight enumeration expects a prime-field matrix")
    p = G.field.p
    basis = nullspace(transpose(G))
    dim = len(basis)
    if dim == 0:
        return None
    message = "kernel has {p}^{dim} vectors, budget is {cap}"
    charge(p**dim, message, enumeration_budget(budget), p=p, dim=dim)
    last = basis[-1]
    n = len(last)
    # roots[i][a]: the c that zeroes slot i when acc_i = a; None where b_i = 0
    roots = [[-a * pow(x, -1, p) % p for a in range(p)] if x else None for x in last]
    multiples = [
        [tuple(c * x % p for x in b) for c in range(p)] for b in basis[:-1]
    ]
    best = sum(1 for x in last if x)

    def explore(level: int, acc: tuple):
        nonlocal best
        if best == 1:
            return
        if level == dim - 1:
            stuck, hits = 0, [0] * p
            for root, a in zip(roots, acc):
                if root is not None:
                    hits[root[a]] += 1
                elif not a:
                    stuck += 1
            best = min(best, n - stuck - max(hits))
            return
        explore(level + 1, acc)
        for mv in multiples[level][1:]:
            explore(level + 1, tuple((a + b) % p for a, b in zip(acc, mv)))

    for lead in range(dim - 1):
        explore(lead + 1, multiples[lead][1])
    return best


def hit_inner(M: ExactMatrix, a, b):
    """The pairing a^T M b, exactly."""
    a, b = tuple(a), tuple(b)
    if len(a) != M.rows:
        raise ValueError(f"left vector length {len(a)} does not match {M.rows} rows")
    if len(b) != M.cols:
        raise ValueError(f"vector length {len(b)} does not match {M.cols} columns")
    column = from_rows(M.field, [[x] for x in b])
    return matmul(from_rows(M.field, [a]), matmul(M, column)).entries[0]


# The rank certificate's prime: small residues keep the elimination mod p cheap.
_RANK_PRIME = 2**31 - 1


def _lagrange_rows(n: int, half: int) -> tuple[int, list]:
    """(L, N): rows half+1..n of (V^T)^{-1} are N's over L; N's others are 0.

    Row i of (V^T)^{-1} holds the coefficients, low degree first, of the
    Lagrange polynomial prod_{j != i} (x - j) / ((-1)^(n-i) (i-1)! (n-i)!).
    """
    full = [1]  # prod_{j=1..n} (x - j)
    for j in range(1, n + 1):
        full = [b - j * a for a, b in zip(full + [0], [0] + full)]
    live = range(half + 1, n + 1)
    dens = [(-1) ** (n - i) * factorial(i - 1) * factorial(n - i) for i in live]
    big_l = lcm(*dens)
    rows = [[0] * n for _ in range(half)]
    for i, d in zip(live, dens):
        quotient, acc = [0] * n, 0  # full / (x - i) by synthetic division
        for k in range(n, 0, -1):
            acc = full[k] + i * acc
            quotient[k - 1] = acc
        rows.append([big_l // d * x for x in quotient])
    return big_l, rows


def _gram(rows: list) -> list:
    """N^T N over the given integer rows."""
    cols = list(zip(*rows))
    return [[sum(map(mul, a, b)) for b in cols] for a in cols]


def build_hard_psd(n: int) -> PsdPair:
    """Rank-n/2 PSD matrix annihilating the first n/2 probe vectors.

    mtilde = C (V^T)^{-1}, where V's rows are the probes on nodes 1..n and
    C keeps rows n/2+1..n of the identity; m = mtilde^T mtilde.  In closed
    form (_lagrange_rows) mtilde = N / L and m = N^T N / L^2 with N
    integral, and all defining identities are re-verified in integers:
    N^T N is symmetric; N V^T = L C (V^T is invertible, so the first n/2
    rows of N are zero); v_i^T N^T N v_i = 0 for i <= n/2; rank m = n/2.
    The rank is at most n/2 as N^T N sums n/2 rank-one terms, and at least
    n/2 when N^T N has rank n/2 mod a prime (a minor nonzero mod p is
    nonzero); mod 2^31 - 1 it has for every even n <= PSD_MAX_N.
    """
    if n < 2 or n % 2:
        raise ValueError(f"n must be even and positive, got {n}")
    charge(n, "n={used} exceeds the exact-solve cap {cap}", PSD_MAX_N)
    half = n // 2
    big_l, rows = _lagrange_rows(n, half)
    gram = _gram(rows[half:])
    nodes = _powers(n, n)  # PSD_MAX_N bounds them; no digit charge
    if any(gram[a][b] != gram[b][a] for a in range(n) for b in range(a)):
        raise RuntimeError("psd construction: m is not symmetric")
    for r, row in enumerate(rows):
        for i, v in enumerate(nodes):
            if sum(map(mul, row, v)) != (big_l if i == r >= half else 0):
                raise RuntimeError("psd construction: probe images are wrong")
    for v in nodes[:half]:
        if sum(map(mul, v, (sum(map(mul, row, v)) for row in gram))):
            raise RuntimeError("psd construction: v_i^T m v_i != 0")
    mod_p = [[x % _RANK_PRIME for x in row] for row in gram]
    if _rank_rows(prime_field(_RANK_PRIME), mod_p) != half:
        raise RuntimeError("psd construction: rank(m) != n/2")
    from fractions import Fraction

    mtilde = [Fraction(x, big_l) for row in rows for x in row]
    m = [Fraction(x, big_l * big_l) for row in gram for x in row]
    return PsdPair(
        n,
        ExactMatrix._from_checked(RATIONAL_FIELD, n, n, tuple(mtilde)),
        ExactMatrix._from_checked(RATIONAL_FIELD, n, n, tuple(m)),
        HittingVectors(RATIONAL_FIELD, n, half, nodes[:half]),
    )


def _mismatch(product, pair, kind, bound, name) -> RefutationVerdict | None:
    entry = first_mismatch(product, pair.m)
    if entry is None:
        return None
    detail = f"{name} differs from m at the witness entry"
    return RefutationVerdict(kind, bound, witness_entry=entry, detail=detail)


def refute_symmetric(B: ExactMatrix, pair: PsdPair) -> RefutationVerdict:
    """Check a claimed Gram factorization B^T B of the hard PSD matrix.

    Either B^T B differs from m (witness entry returned), or the total
    sparsity of B is at least n^2/4.  A third branch handles the impossible
    combination -- product equal yet sparse -- by exhibiting the probe index
    i <= n/2 with ||B v_i||^2 != 0; for pairs built by build_hard_psd it is
    unreachable and doubles as an internal consistency check.
    """
    n = pair.n
    if B.cols != n:
        raise ValueError(f"B must have {n} columns, got {B.cols}")
    if B.field.kind != KIND_RATIONAL:
        raise ValueError("symmetric refutation runs over the rationals")
    bound = n * n // 4
    product = matmul(transpose(B), B)
    mismatch = _mismatch(product, pair, "not-a-factorization", bound, "B^T B")
    if mismatch is not None:
        return mismatch
    total = sparsity(B).total
    if total >= bound:
        return RefutationVerdict(
            kind="sparsity-at-least-quarter", bound=bound, sparsity=total
        )
    i, v = _hit_sparse_line(B.row_lists(), "row", pair)
    value = hit_inner(product, v, v)
    return RefutationVerdict(
        kind="sparse-hitting-witness",
        bound=bound,
        sparsity=total,
        witness_index=i,
        value=value,
        detail="||B v_i||^2 != 0 although v_i^T m v_i = 0: inconsistent pair",
    )


def _hit_sparse_line(lines, noun: str, pair: PsdPair) -> tuple:
    """(i, v_i) for the first nonzero line with at most n/2 nonzeros, with
    i the least probe index that line does not annihilate."""
    half = pair.n // 2
    for line in lines:
        if 0 < sum(1 for x in line if x != 0) <= half:
            i = sparse_row_hit(line, half, pair.probes)
            return i, pair.probes.vectors[i - 1]
    raise ValueError(
        f"factorization is sparse but has no {noun} with <= n/2 nonzeros; "
        "the pair does not satisfy the PSD invariants"
    )


def refute_invertible(
    Bfac: ExactMatrix, Cfac: ExactMatrix, side: str, pair: PsdPair
) -> RefutationVerdict:
    """Check a claimed invertible factorization B C of the hard PSD matrix.

    Reports which hypothesis fails: product mismatch (witness entry),
    invertibility failure of the designated factor, or sparsity >= n^2/4 of
    the other factor.  When all three hold the contradiction witness
    (i <= n/2, j) with e_j^T (BC) v_i != 0 = e_j^T m v_i is produced, proving
    the claimed factorization impossible for a genuine pair.
    """
    if side not in (SIDE_LEFT, SIDE_RIGHT):
        raise ValueError(f"side must be {SIDE_LEFT!r} or {SIDE_RIGHT!r}")
    n = pair.n
    for name, mat in (("B", Bfac), ("C", Cfac)):
        if mat.rows != n or mat.cols != n:
            raise ValueError(f"{name} must be {n}x{n}, got {mat.rows}x{mat.cols}")
        if mat.field.kind != KIND_RATIONAL:
            raise ValueError("invertible refutation runs over the rationals")
    bound = n * n // 4
    product = matmul(Bfac, Cfac)
    mismatch = _mismatch(product, pair, "product-mismatch", bound, "B C")
    if mismatch is not None:
        return mismatch
    designated = Bfac if side == SIDE_LEFT else Cfac
    if rank(designated) < n:
        return RefutationVerdict(
            kind="invertibility-failure",
            bound=bound,
            detail=f"the {side} factor is singular",
        )
    other = Cfac if side == SIDE_LEFT else Bfac
    total = sparsity(other).total
    if total >= bound:
        return RefutationVerdict(
            kind="sparsity-at-least-quarter", bound=bound, sparsity=total
        )
    # a sparse C is hit through one of its rows, a sparse B through a column
    lines = map(other.row if side == SIDE_LEFT else other.col, range(n))
    i, v = _hit_sparse_line(lines, "line", pair)
    probe = from_rows(RATIONAL_FIELD, [[x] for x in v])
    image = matmul(product if side == SIDE_LEFT else transpose(product), probe).entries
    j = next(k + 1 for k, x in enumerate(image) if x != 0)
    expected = matmul(pair.m, probe).entries[j - 1]
    return RefutationVerdict(
        kind="contradiction-witness",
        bound=bound,
        sparsity=total,
        witness_index=i,
        witness_output=j,
        value=image[j - 1],
        detail=(
            "probe image of the product is nonzero at the witness output, "
            f"while the pair demands {expected!r}; a genuine pair admits no "
            "such sparse invertible factorization"
        ),
    )
