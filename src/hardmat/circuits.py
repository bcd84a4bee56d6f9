"""Sparse linear-circuit files, exact verification, and a depth-2 oracle.

A depth-d linear circuit is exactly an ordered list of sparse layer matrices
whose product is the computed transformation; its size is the total number of
nonzero entries.  The ``.slc`` text format is line-oriented:

    # comment
    field prime 5            (or: field ext <p> <c0> ... <cd>
                                  field rational | field integer)
    layer <rows> <cols>
    <row> <col> <value>      (1-indexed; extension values are colon-separated
    ...                       residue lists, rationals are num/den)
    end
    layer ...                (left to right: the product is layer1 layer2 ...)

The oracle enumerates depth-2 support patterns in order of increasing total
sparsity, assigns nonzero values exhaustively, and returns the first (hence
minimal) exact factorization; pruning is by sound rank and coverage
arguments only.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import combinations, product

from .budgets import BudgetExceeded, enumeration_budget
from .fields import (
    INTEGER_RING,
    KIND_EXTENSION,
    KIND_PRIME,
    KIND_RATIONAL,
    RATIONAL_FIELD,
    FieldDescriptor,
    decode_element,
    encode_element,
    extension_field,
    ops_for,
    prime_field,
)
from .matrices import ExactMatrix, first_mismatch, matmul, rank, sparsity

__all__ = [
    "CircuitFactorization",
    "VerificationResult",
    "SearchResult",
    "SlcParseError",
    "parse_slc",
    "emit_slc",
    "verify_factorization",
    "min_depth2_sparsity",
]


@dataclass(frozen=True)
class CircuitFactorization:
    field: FieldDescriptor
    factors: tuple[ExactMatrix, ...]

    def __post_init__(self):
        if not isinstance(self.factors, tuple):
            object.__setattr__(self, "factors", tuple(self.factors))
        if not self.factors:
            raise ValueError("a circuit needs at least one layer")
        for f in self.factors:
            if f.field != self.field:
                raise ValueError("all layers must share the circuit's field")
        for a, b in zip(self.factors, self.factors[1:]):
            if a.cols != b.rows:
                raise ValueError(
                    f"dimension chain broken: {a.rows}x{a.cols} then {b.rows}x{b.cols}"
                )

    @property
    def depth(self) -> int:
        return len(self.factors)

    @property
    def size(self) -> int:
        """Total sparsity, always recomputed from the layer matrices."""
        return sum(sparsity(f).total for f in self.factors)


@dataclass(frozen=True)
class VerificationResult:
    equal: bool
    size: int
    product: ExactMatrix
    mismatch: tuple[int, int] | None  # first differing entry, 1-based


@dataclass(frozen=True)
class SearchResult:
    s_min: int | None  # None: no factorization of size <= s_max exists
    witness: CircuitFactorization | None
    nodes: int
    s_max: int
    m_max: int


class SlcParseError(ValueError):
    """Structured parse failure with 1-based line (and column) location."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        loc = ""
        if line is not None:
            loc = f"line {line}"
            if column is not None:
                loc += f", col {column}"
            loc += ": "
        super().__init__(loc + message)


_TOKEN = re.compile(r"\S+")


def _tokenize(text: str):
    """Yield (line_no, [(col, token), ...]) for non-empty lines, sans comments."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        tokens = [(m.start() + 1, m.group()) for m in _TOKEN.finditer(body)]
        if tokens:
            yield line_no, tokens


def _parse_int(token: str, line: int, col: int, what: str) -> int:
    neg = token.startswith("-")
    body = token[1:] if neg else token
    if not (body.isascii() and body.isdigit()):
        raise SlcParseError(f"{what} must be an integer, got {token!r}", line, col)
    return -int(body) if neg else int(body)


def _parse_field_header(tokens, line: int) -> FieldDescriptor:
    col0, head = tokens[0]
    if head != "field":
        raise SlcParseError(f"expected 'field' header, got {head!r}", line, col0)
    if len(tokens) < 2:
        raise SlcParseError("missing field kind", line, col0)
    col1, kind = tokens[1]
    if kind == "rational":
        extra = tokens[2:]
    elif kind == "integer":
        extra = tokens[2:]
    elif kind == "prime":
        if len(tokens) != 3:
            raise SlcParseError("'field prime' takes exactly one modulus", line, col1)
        colp, ptok = tokens[2]
        p = _parse_int(ptok, line, colp, "p")
        try:
            return prime_field(p)
        except ValueError as exc:
            raise SlcParseError(str(exc), line, colp) from exc
    elif kind == "ext":
        if len(tokens) < 5:
            raise SlcParseError(
                "'field ext' takes p and at least two modulus coefficients",
                line,
                col1,
            )
        colp, ptok = tokens[2]
        p = _parse_int(ptok, line, colp, "p")
        coeffs = [
            _parse_int(tok, line, col, "modulus coefficient")
            for col, tok in tokens[3:]
        ]
        try:
            field = extension_field(p, coeffs)
        except ValueError as exc:
            raise SlcParseError(str(exc), line, colp) from exc
        if not field.modulus_is_irreducible():
            raise SlcParseError("extension modulus is not irreducible", line, colp)
        return field
    else:
        raise SlcParseError(f"unknown field kind {kind!r}", line, col1)
    if extra:
        raise SlcParseError(f"unexpected token {extra[0][1]!r}", line, extra[0][0])
    return RATIONAL_FIELD if kind == "rational" else INTEGER_RING


def _parse_value(field: FieldDescriptor, token: str, line: int, col: int):
    try:
        if field.kind == KIND_EXTENSION:
            parts = token.split(":")
            if len(parts) > field.degree:
                raise ValueError(
                    f"{len(parts)} coefficients exceed the degree {field.degree}"
                )
            parts = parts + ["0"] * (field.degree - len(parts))
            return decode_element(field, parts)
        return decode_element(field, token)
    except ValueError as exc:
        raise SlcParseError(str(exc), line, col) from exc


def parse_slc(text: str) -> CircuitFactorization:
    """Parse circuit text; every failure is a located SlcParseError."""
    if not isinstance(text, str):
        raise SlcParseError("input must be text")
    lines = iter(_tokenize(text))
    try:
        line_no, tokens = next(lines)
    except StopIteration:
        raise SlcParseError("empty input: expected a 'field' header") from None
    field = _parse_field_header(tokens, line_no)
    ops = ops_for(field)

    factors: list[ExactMatrix] = []
    current: dict | None = None  # {"rows", "cols", "entries", "seen", "line"}
    last_line = line_no
    for line_no, tokens in lines:
        last_line = line_no
        col0, head = tokens[0]
        if head == "layer":
            if current is not None:
                raise SlcParseError(
                    "previous layer was not closed with 'end'", line_no, col0
                )
            if len(tokens) != 3:
                raise SlcParseError("'layer' takes rows and cols", line_no, col0)
            rows = _parse_int(tokens[1][1], line_no, tokens[1][0], "rows")
            cols = _parse_int(tokens[2][1], line_no, tokens[2][0], "cols")
            if rows < 1 or cols < 1:
                raise SlcParseError("layer dimensions must be positive", line_no, col0)
            if factors and factors[-1].cols != rows:
                raise SlcParseError(
                    f"dimension chain broken: previous layer has "
                    f"{factors[-1].cols} columns, this one {rows} rows",
                    line_no,
                    col0,
                )
            current = {
                "rows": rows,
                "cols": cols,
                "entries": [ops.zero] * (rows * cols),
                "seen": set(),
            }
        elif head == "end":
            if current is None:
                raise SlcParseError("'end' outside a layer", line_no, col0)
            if len(tokens) != 1:
                raise SlcParseError("unexpected token after 'end'", line_no, tokens[1][0])
            factors.append(
                ExactMatrix(
                    field, current["rows"], current["cols"], tuple(current["entries"])
                )
            )
            current = None
        else:
            if current is None:
                raise SlcParseError(
                    f"expected 'layer' or 'end', got {head!r}", line_no, col0
                )
            if len(tokens) != 3:
                raise SlcParseError(
                    "a triplet line is '<row> <col> <value>'", line_no, col0
                )
            r = _parse_int(tokens[0][1], line_no, tokens[0][0], "row")
            c = _parse_int(tokens[1][1], line_no, tokens[1][0], "col")
            if not 1 <= r <= current["rows"]:
                raise SlcParseError(
                    f"row {r} outside 1..{current['rows']}", line_no, tokens[0][0]
                )
            if not 1 <= c <= current["cols"]:
                raise SlcParseError(
                    f"col {c} outside 1..{current['cols']}", line_no, tokens[1][0]
                )
            if (r, c) in current["seen"]:
                raise SlcParseError(f"duplicate triplet for ({r}, {c})", line_no, col0)
            current["seen"].add((r, c))
            value = _parse_value(field, tokens[2][1], line_no, tokens[2][0])
            current["entries"][(r - 1) * current["cols"] + (c - 1)] = value
    if current is not None:
        raise SlcParseError("unterminated layer: missing 'end'", last_line)
    if not factors:
        raise SlcParseError("no layers: a circuit needs at least one", last_line)
    return CircuitFactorization(field, tuple(factors))


def _emit_value(field: FieldDescriptor, x) -> str:
    if field.kind == KIND_EXTENSION:
        return ":".join(str(c) for c in x)
    return encode_element(field, x)


def _emit_header(field: FieldDescriptor) -> str:
    if field.kind == KIND_PRIME:
        return f"field prime {field.p}"
    if field.kind == KIND_EXTENSION:
        mods = " ".join(str(c) for c in field.modulus)
        return f"field ext {field.p} {mods}"
    if field.kind == KIND_RATIONAL:
        return "field rational"
    return "field integer"


def emit_slc(circuit: CircuitFactorization) -> str:
    """Canonical text: sorted triplets, normalized whitespace; parses back equal."""
    ops = ops_for(circuit.field)
    out = [_emit_header(circuit.field)]
    for factor in circuit.factors:
        out.append(f"layer {factor.rows} {factor.cols}")
        for i in range(factor.rows):
            for j in range(factor.cols):
                x = factor.at(i, j)
                if not ops.is_zero(x):
                    out.append(f"{i + 1} {j + 1} {_emit_value(circuit.field, x)}")
        out.append("end")
    return "\n".join(out) + "\n"


def verify_factorization(
    circuit: CircuitFactorization, target: ExactMatrix
) -> VerificationResult:
    """Multiply the layers exactly and compare against the target."""
    if circuit.field != target.field:
        raise ValueError("circuit and target live over different fields")
    prod = circuit.factors[0]
    for factor in circuit.factors[1:]:
        prod = matmul(prod, factor)
    if prod.rows != target.rows or prod.cols != target.cols:
        raise ValueError(
            f"product is {prod.rows}x{prod.cols}, target is "
            f"{target.rows}x{target.cols}"
        )
    mismatch = first_mismatch(prod, target)
    return VerificationResult(mismatch is None, circuit.size, prod, mismatch)


def min_depth2_sparsity(
    A: ExactMatrix,
    m_max: int | None = None,
    s_max: int = 0,
    budget: int | None = None,
) -> SearchResult:
    """Exhaustive minimum total sparsity of B (n x m), C (m x n) with B C = A.

    Support patterns are enumerated in order of increasing total sparsity
    (then m, then lexicographic positions), and nonzero values are assigned
    exhaustively, so the first hit is minimal and the witness tie-break is
    the lexicographically first support pattern.  Pruning is sound:
    m >= rank(A); B needs >= rank(A) supported columns and a supported row
    wherever A has a nonzero row (dually for C); every nonzero A entry needs
    a middle index shared by its row of B and column of C.
    """
    field = A.field
    if field.kind != KIND_PRIME or field.p > 3:
        raise ValueError("the oracle runs over F_2 or F_3 only")
    n = A.rows
    if A.cols != n:
        raise ValueError("the oracle expects a square target")
    if n > 4:
        raise ValueError("the oracle is capped at 4x4 targets")
    if m_max is None:
        m_max = n
    if not 1 <= m_max <= 4:
        raise ValueError("m_max must lie in [1, 4]")
    if s_max < 0:
        raise ValueError("s_max must be nonnegative")
    p = field.p
    cap = enumeration_budget(budget)

    rank_a = rank(A)
    rows_nonzero = [i for i in range(n) if any(A.row(i))]
    cols_nonzero = [j for j in range(n) if any(A.col(j))]
    min_sb = max(rank_a, len(rows_nonzero))
    min_sc = max(rank_a, len(cols_nonzero))
    nonzero_entries = [
        (i, j) for i in range(n) for j in range(n) if A.at(i, j) != 0
    ]
    a_flat = A.entries
    values = list(range(1, p))
    nodes = 0

    for s in range(s_max + 1):
        for m in range(max(1, rank_a), m_max + 1):
            for s_b in range(s + 1):
                s_c = s - s_b
                if s_b < min_sb or s_c < min_sc:
                    continue
                if s_b > n * m or s_c > m * n:
                    continue
                for supp_b in combinations(range(n * m), s_b):
                    b_pos = [divmod(pos, m) for pos in supp_b]  # (i, k)
                    b_rows = {i for i, _ in b_pos}
                    if any(i not in b_rows for i in rows_nonzero):
                        continue
                    if len({k for _, k in b_pos}) < rank_a:
                        continue
                    b_k_by_row = [0] * n
                    for i, k in b_pos:
                        b_k_by_row[i] |= 1 << k
                    for supp_c in combinations(range(m * n), s_c):
                        nodes += 1
                        if nodes > cap:
                            raise BudgetExceeded(
                                f"search explored {nodes} support pairs; "
                                f"budget is {cap}"
                            )
                        c_pos = [divmod(pos, n) for pos in supp_c]  # (k, j)
                        c_cols = {j for _, j in c_pos}
                        if any(j not in c_cols for j in cols_nonzero):
                            continue
                        if len({k for k, _ in c_pos}) < rank_a:
                            continue
                        c_k_by_col = [0] * n
                        for k, j in c_pos:
                            c_k_by_col[j] |= 1 << k
                        if any(
                            not (b_k_by_row[i] & c_k_by_col[j])
                            for i, j in nonzero_entries
                        ):
                            continue
                        hit = _assign_values(
                            a_flat, n, m, p, b_pos, c_pos, values
                        )
                        if hit is not None:
                            witness = _build_witness(
                                field, n, m, b_pos, c_pos, hit
                            )
                            return SearchResult(s, witness, nodes, s_max, m_max)
    return SearchResult(None, None, nodes, s_max, m_max)


def _assign_values(a_flat, n, m, p, b_pos, c_pos, values):
    """First value assignment (in product order) making B C = A, or None."""
    c_by_k: dict[int, list] = {}
    for idx, (k, j) in enumerate(c_pos):
        c_by_k.setdefault(k, []).append((j, idx))
    sb = len(b_pos)
    for assignment in product(values, repeat=sb + len(c_pos)):
        acc = [0] * (n * n)
        for bi, (i, k) in enumerate(b_pos):
            vb = assignment[bi]
            for j, ci in c_by_k.get(k, ()):
                acc[i * n + j] += vb * assignment[sb + ci]
        if all(x % p == y for x, y in zip(acc, a_flat)):
            return assignment
    return None


def _build_witness(field, n, m, b_pos, c_pos, assignment):
    ops = ops_for(field)
    b_flat = [ops.zero] * (n * m)
    for idx, (i, k) in enumerate(b_pos):
        b_flat[i * m + k] = assignment[idx]
    c_flat = [ops.zero] * (m * n)
    for idx, (k, j) in enumerate(c_pos):
        c_flat[k * n + j] = assignment[len(b_pos) + idx]
    B = ExactMatrix(field, n, m, tuple(b_flat))
    C = ExactMatrix(field, m, n, tuple(c_flat))
    return CircuitFactorization(field, (B, C))
