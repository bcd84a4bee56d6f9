"""Exact dense linear algebra over any coefficient domain.

Matrices are immutable, row-major, and always dense: sparsity is a measured
property, never a storage format.  Rank, solve, inverse and nullspace share
one elimination, :func:`echelon`, with a deterministic pivot rule (first
nonzero entry in column order); over Q it is fraction-free on integer rows,
over F_p and extensions it divides exactly.  Traces are reproducible bit for
bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .fields import (
    KIND_INTEGER,
    KIND_PRIME,
    KIND_RATIONAL,
    RATIONAL_FIELD,
    FieldDescriptor,
    decode_element,
    descriptor_from_json,
    descriptor_to_json,
    encode_element,
    ops_for,
)

__all__ = [
    "ExactMatrix",
    "SparsityReport",
    "from_rows",
    "identity",
    "zeros",
    "matmul",
    "first_mismatch",
    "transpose",
    "echelon",
    "rank",
    "solve",
    "inverse",
    "nullspace",
    "kronecker",
    "sparsity",
    "vandermonde",
    "lift_to_rational",
    "matrix_to_json",
    "matrix_from_json",
]


@dataclass(frozen=True)
class ExactMatrix:
    field: FieldDescriptor
    rows: int
    cols: int
    entries: tuple  # row-major

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("matrix dimensions must be positive")
        if not isinstance(self.entries, tuple):
            object.__setattr__(self, "entries", tuple(self.entries))
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} "
                f"entries, got {len(self.entries)}"
            )
        ops = ops_for(self.field)
        for idx, x in enumerate(self.entries):
            if not ops.conforms(x):
                raise ValueError(
                    f"entry {idx} does not conform to {self.field!r}: {x!r}"
                )

    def at(self, i: int, j: int):
        """Entry in row i, column j (0-based)."""
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> tuple:
        return self.entries[j :: self.cols]

    def row_lists(self) -> list:
        return [list(self.row(i)) for i in range(self.rows)]


@dataclass(frozen=True)
class SparsityReport:
    total: int
    row_counts: tuple[int, ...]
    col_counts: tuple[int, ...]


def from_rows(field: FieldDescriptor, rows, coerce: bool = True) -> ExactMatrix:
    """Build a matrix from nested sequences; ints are coerced into the field."""
    rows = [list(r) for r in rows]
    if not rows or not rows[0]:
        raise ValueError("matrix needs at least one row and one column")
    ncols = len(rows[0])
    if any(len(r) != ncols for r in rows):
        raise ValueError("ragged rows")
    ops = ops_for(field)
    flat = []
    for r in rows:
        for x in r:
            if coerce and isinstance(x, int) and not isinstance(x, bool):
                x = ops.from_int(x)
            flat.append(x)
    return ExactMatrix(field, len(rows), ncols, tuple(flat))


def identity(field: FieldDescriptor, n: int) -> ExactMatrix:
    ops = ops_for(field)
    flat = [ops.zero] * (n * n)
    for i in range(n):
        flat[i * n + i] = ops.one
    return ExactMatrix(field, n, n, tuple(flat))


def zeros(field: FieldDescriptor, rows: int, cols: int) -> ExactMatrix:
    ops = ops_for(field)
    return ExactMatrix(field, rows, cols, (ops.zero,) * (rows * cols))


def _require_same_field(A: ExactMatrix, B: ExactMatrix):
    if A.field != B.field:
        raise ValueError(f"field mismatch: {A.field!r} vs {B.field!r}")


def matmul(A: ExactMatrix, B: ExactMatrix) -> ExactMatrix:
    _require_same_field(A, B)
    if A.cols != B.rows:
        raise ValueError(f"dimension mismatch: {A.rows}x{A.cols} by {B.rows}x{B.cols}")
    ops = ops_for(A.field)
    add, mul, is_zero, zero = ops.add, ops.mul, ops.is_zero, ops.zero
    b_rows = [B.row(k) for k in range(B.rows)]
    out = []
    for i in range(A.rows):
        a_row = A.row(i)
        acc = [zero] * B.cols
        for k, a in enumerate(a_row):
            if is_zero(a):
                continue
            b_row = b_rows[k]
            for j in range(B.cols):
                b = b_row[j]
                if not is_zero(b):
                    acc[j] = add(acc[j], mul(a, b))
        out.extend(acc)
    return ExactMatrix(A.field, A.rows, B.cols, tuple(out))


def first_mismatch(A: ExactMatrix, B: ExactMatrix) -> tuple[int, int] | None:
    """First differing entry of two equal-shape matrices, 1-based; None if equal."""
    for idx, (x, y) in enumerate(zip(A.entries, B.entries)):
        if x != y:
            return (idx // A.cols + 1, idx % A.cols + 1)
    return None


def transpose(A: ExactMatrix) -> ExactMatrix:
    flat = []
    for j in range(A.cols):
        flat.extend(A.col(j))
    return ExactMatrix(A.field, A.cols, A.rows, tuple(flat))


def _integer_row(row: list) -> list:
    """A rational row times the lcm of its denominators."""
    d = lcm(*(x.denominator for x in row))
    return [x.numerator * (d // x.denominator) for x in row]


def echelon(field: FieldDescriptor, rows: list, reduce: bool = False):
    """Pivot columns and an echelon form of a list of row lists (consumed).

    Each pivot is the first nonzero entry in column order, from the earliest
    remaining row.  Over Q the rows are scaled to integers and eliminated
    fraction-free (Bareiss, Math. Comp. 1968): with p_k the k-th pivot, in
    column c, row_i <- (p_k row_i - row_i[c] row_k) / p_(k-1), an exact
    division.  Other fields subtract row_i[c] / p_k times row_k.  Returns
    (pivots, rows), rows past len(pivots) zero: with ``reduce`` the reduced
    row-echelon form in field elements, else only entries below pivots
    cleared, each row at some nonzero scale.
    """
    ops = ops_for(field)
    if not ops.has_division:
        raise ValueError(
            "elimination needs exact division; lift integer-ring matrices to rationals"
        )
    is_zero, mul, sub = ops.is_zero, ops.mul, ops.sub
    bareiss = field.kind == KIND_RATIONAL
    if bareiss:
        rows = [_integer_row(r) for r in rows]
    p = field.p if field.kind == KIND_PRIME else None
    pivots: list[int] = []
    prev = 1  # the previous pivot, Bareiss's divisor
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if not is_zero(rows[i][c])), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow, pv = rows[r], rows[r][c]
        inv = None if bareiss else ops.div(ops.one, pv)
        for i in range(0 if reduce else r + 1, len(rows)):
            row, f = rows[i], rows[i][c]
            # Bareiss rescales a row with f = 0 too, by pv / prev
            if i == r or (is_zero(f) and (pv == prev or not bareiss)):
                continue
            if bareiss:
                rows[i] = [(pv * x - f * y) // prev for x, y in zip(row, prow)]
            elif p:
                f = f * inv % p
                rows[i] = [(x - f * y) % p for x, y in zip(row, prow)]
            else:
                f = mul(f, inv)
                rows[i] = [sub(x, mul(f, y)) for x, y in zip(row, prow)]
        pivots.append(c)
        prev = pv
        if len(pivots) == len(rows):
            break
    if reduce:
        for k, c in enumerate(pivots):
            inv = ops.div(ops.one, rows[k][c])
            rows[k] = [mul(x, inv) for x in rows[k]]
    return pivots, rows


def _rank_rows(field: FieldDescriptor, rows: list) -> int:
    """Rank of a list of row lists; consumed destructively."""
    return len(echelon(field, rows)[0])


def rank(A: ExactMatrix) -> int:
    return _rank_rows(A.field, A.row_lists())


def solve(A: ExactMatrix, B: ExactMatrix) -> ExactMatrix:
    """Exact X with A X = B for square invertible A: [A | B] reduced to [I | X]."""
    _require_same_field(A, B)
    if A.rows != A.cols:
        raise ValueError("solve needs a square coefficient matrix")
    if A.rows != B.rows:
        raise ValueError("right-hand side has the wrong number of rows")
    n = A.rows
    aug = [list(A.row(i)) + list(B.row(i)) for i in range(n)]
    pivots, aug = echelon(A.field, aug, reduce=True)
    if len(pivots) < n or pivots[n - 1] != n - 1:
        raise ValueError("matrix is singular")
    flat = []
    for row in aug:
        flat.extend(row[n:])
    return ExactMatrix(A.field, n, B.cols, tuple(flat))


def inverse(A: ExactMatrix) -> ExactMatrix:
    return solve(A, identity(A.field, A.rows))


def nullspace(A: ExactMatrix) -> list[tuple]:
    """Basis of {x : A x = 0}, one vector per non-pivot column of A."""
    pivots, red = echelon(A.field, A.row_lists(), reduce=True)
    ops = ops_for(A.field)
    basis = []
    for f in sorted(set(range(A.cols)) - set(pivots)):
        w = [ops.one if j == f else ops.zero for j in range(A.cols)]
        for k, c in enumerate(pivots):
            w[c] = ops.neg(red[k][f])
        basis.append(tuple(w))
    return basis


def kronecker(A: ExactMatrix, B: ExactMatrix) -> ExactMatrix:
    _require_same_field(A, B)
    ops = ops_for(A.field)
    mul = ops.mul
    rows, cols = A.rows * B.rows, A.cols * B.cols
    flat = [ops.zero] * (rows * cols)
    for i in range(A.rows):
        for j in range(A.cols):
            a = A.at(i, j)
            if ops.is_zero(a):
                continue
            base = (i * B.rows) * cols + j * B.cols
            for k in range(B.rows):
                off = base + k * cols
                for l in range(B.cols):
                    flat[off + l] = mul(a, B.at(k, l))
    return ExactMatrix(A.field, rows, cols, tuple(flat))


def sparsity(A: ExactMatrix) -> SparsityReport:
    ops = ops_for(A.field)
    row_counts = [0] * A.rows
    col_counts = [0] * A.cols
    for i in range(A.rows):
        base = i * A.cols
        for j in range(A.cols):
            if not ops.is_zero(A.entries[base + j]):
                row_counts[i] += 1
                col_counts[j] += 1
    return SparsityReport(sum(row_counts), tuple(row_counts), tuple(col_counts))


def vandermonde(field: FieldDescriptor, nodes, k: int) -> ExactMatrix:
    """len(nodes) x k matrix whose row i is (1, x_i, x_i^2, ..., x_i^(k-1))."""
    nodes = list(nodes)
    if not nodes:
        raise ValueError("vandermonde needs at least one node")
    if k < 1:
        raise ValueError("vandermonde needs k >= 1")
    ops = ops_for(field)
    flat = []
    for x in nodes:
        acc = ops.one
        flat.append(acc)
        for _ in range(k - 1):
            acc = ops.mul(acc, x)
            flat.append(acc)
    return ExactMatrix(field, len(nodes), k, tuple(flat))


def lift_to_rational(A: ExactMatrix) -> ExactMatrix:
    """Explicitly view an integer-ring matrix over the rationals."""
    if A.field.kind != KIND_INTEGER:
        raise ValueError("lift_to_rational applies to integer-ring matrices")
    return ExactMatrix(RATIONAL_FIELD, A.rows, A.cols, A.entries)


# ---------------------------------------------------------------------------
# Wire format: {"field": <descriptor>, "rows": R, "cols": C,
#               "entries": [<element encodings, row-major>]}.
# Unknown keys are ignored so provenance can ride along.


def matrix_to_json(A: ExactMatrix) -> dict:
    return {
        "field": descriptor_to_json(A.field),
        "rows": A.rows,
        "cols": A.cols,
        "entries": [encode_element(A.field, x) for x in A.entries],
    }


def matrix_from_json(obj, check_irreducible: bool = True) -> ExactMatrix:
    if not isinstance(obj, dict):
        raise ValueError("matrix JSON must be an object")
    for key in ("field", "rows", "cols", "entries"):
        if key not in obj:
            raise ValueError(f"matrix JSON is missing {key!r}")
    field = descriptor_from_json(obj["field"], check_irreducible=check_irreducible)
    rows, cols = obj["rows"], obj["cols"]
    for name, v in (("rows", rows), ("cols", cols)):
        if isinstance(v, bool) or not isinstance(v, int) or v < 1:
            raise ValueError(f"{name} must be a positive integer")
    raw_entries = obj["entries"]
    if not isinstance(raw_entries, list):
        raise ValueError("entries must be an array")
    if len(raw_entries) != rows * cols:
        raise ValueError(
            f"expected {rows * cols} entries, got {len(raw_entries)}"
        )
    entries = []
    for idx, raw in enumerate(raw_entries):
        try:
            entries.append(decode_element(field, raw))
        except ValueError as exc:
            raise ValueError(f"entry {idx}: {exc}") from exc
    return ExactMatrix(field, rows, cols, tuple(entries))
