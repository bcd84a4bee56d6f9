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
arguments only.  Its work count ``nodes`` is the number of (B, C) support
pairs, in that joint order, up to and including the hit; a pair counts
whether or not it is pruned, except that the pairs of a B support failing
B's own pruning are skipped uncounted.  Benchmarks pin this count, so it is
part of the contract.

The search does far less work than that count suggests.  A depth-first walk
over the rows of the grid generates, in lex order, only the B and C supports
that pass their own pruning, and gives each C support its lex rank, so a
pair's place in the count is known without enumerating the pairs before it.
The C supports are tabled once per (m, |C|) as bitsets, and one AND per
nonzero row of A picks, for a B support, every tabled C support that shares
a middle index with it wherever A is nonzero.  Once B's values are fixed the
columns of C are independent, so values are solved column by column, and
B's values are tried only with a 1 first in each of B's columns, which the
first solution in product order always has.
"""

from __future__ import annotations

import re
from itertools import product
from math import comb

from . import fields
from .budgets import VERIFY_WORK_CAP, Record, charge, enumeration_budget
from .fields import (
    KIND_EXTENSION,
    KIND_INTEGER,
    KIND_PRIME,
    KIND_RATIONAL,
    FieldDescriptor,
    decode_element,
    encode_element,
    ops_for,
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


class CircuitFactorization(Record):
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


class VerificationResult(Record):
    equal: bool
    size: int
    product: ExactMatrix
    mismatch: tuple[int, int] | None  # first differing entry, 1-based


class SearchResult(Record):
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
    try:
        return fields._parse_decimal(token)
    except ValueError as exc:  # not decimal, or past int()'s digit limit
        raise SlcParseError(f"{what}: {exc}", line, col) from None


# The field kinds by their .slc header names, which _emit_header writes too.
_SLC_KINDS = {
    "prime": KIND_PRIME,
    "ext": KIND_EXTENSION,
    "rational": KIND_RATIONAL,
    "integer": KIND_INTEGER,
}
_SLC_NAMES = {kind: name for name, kind in _SLC_KINDS.items()}


def _parse_field_header(tokens, line: int) -> FieldDescriptor:
    """The header's syntax; ``fields._outside_field`` decides the field."""
    col0, head = tokens[0]
    if head != "field":
        raise SlcParseError(f"expected 'field' header, got {head!r}", line, col0)
    if len(tokens) < 2:
        raise SlcParseError("missing field kind", line, col0)
    (col1, name), numbers = tokens[1], tokens[2:]
    kind = _SLC_KINDS.get(name)
    if kind is None:
        raise SlcParseError(f"unknown field kind {name!r}", line, col1)
    if kind == KIND_PRIME and len(numbers) != 1:
        raise SlcParseError("'field prime' takes exactly one modulus", line, col1)
    if kind == KIND_EXTENSION and len(numbers) < 3:
        raise SlcParseError(
            "'field ext' takes p and at least two modulus coefficients", line, col1
        )
    if not numbers:
        return fields._outside_field(kind)
    if kind in (KIND_RATIONAL, KIND_INTEGER):
        col, token = numbers[0]
        raise SlcParseError(f"unexpected token {token!r}", line, col)
    p, *modulus = [
        _parse_int(token, line, col, "modulus coefficient" if i else "p")
        for i, (col, token) in enumerate(numbers)
    ]
    try:
        return fields._outside_field(kind, p, modulus or None)
    except ValueError as exc:
        raise SlcParseError(str(exc), line, numbers[0][0]) from exc


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


_LAYER_BUDGET = (
    "line {line}: a {rows} x {cols} layer takes the circuit past the budget of "
    "{cap} dense entries"
)


def parse_slc(text: str) -> CircuitFactorization:
    """Parse circuit text; every malformed input is a located SlcParseError.

    Layers whose dense entries together pass the enumeration budget raise
    BudgetExceeded, naming the line of the layer that passed it.
    """
    if not isinstance(text, str):
        raise SlcParseError("input must be text")
    lines = _tokenize(text)
    first = next(lines, None)
    if first is None:
        raise SlcParseError("empty input: expected a 'field' header")
    line_no, tokens = first
    field = _parse_field_header(tokens, line_no)
    zero = ops_for(field).zero

    factors: list[ExactMatrix] = []
    cap, entries = enumeration_budget(), 0  # dense entries over all layers
    for line_no, tokens in lines:  # one iteration per layer block
        col0, head = tokens[0]
        if head == "end":
            raise SlcParseError("'end' outside a layer", line_no, col0)
        if head != "layer":
            raise SlcParseError(f"expected 'layer' or 'end', got {head!r}", line_no, col0)
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
        entries += rows * cols
        charge(entries, _LAYER_BUDGET, cap, line=line_no, rows=rows, cols=cols)
        flat, seen = [zero] * (rows * cols), set()
        for line_no, tokens in lines:  # triplets up to the layer's 'end'
            col0, head = tokens[0]
            if head == "layer":
                raise SlcParseError(
                    "previous layer was not closed with 'end'", line_no, col0
                )
            if head == "end":
                if len(tokens) != 1:
                    raise SlcParseError(
                        "unexpected token after 'end'", line_no, tokens[1][0]
                    )
                break
            if len(tokens) != 3:
                raise SlcParseError(
                    "a triplet line is '<row> <col> <value>'", line_no, col0
                )
            (col_r, token_r), (col_c, token_c), (col_v, token_v) = tokens
            r = _parse_int(token_r, line_no, col_r, "row")
            c = _parse_int(token_c, line_no, col_c, "col")
            if not 1 <= r <= rows:
                raise SlcParseError(f"row {r} outside 1..{rows}", line_no, col_r)
            if not 1 <= c <= cols:
                raise SlcParseError(f"col {c} outside 1..{cols}", line_no, col_c)
            if (r, c) in seen:
                raise SlcParseError(f"duplicate triplet for ({r}, {c})", line_no, col0)
            seen.add((r, c))
            flat[(r - 1) * cols + (c - 1)] = _parse_value(field, token_v, line_no, col_v)
        else:
            raise SlcParseError("unterminated layer: missing 'end'", line_no)
        factors.append(ExactMatrix._from_checked(field, rows, cols, tuple(flat)))
    if not factors:
        raise SlcParseError("no layers: a circuit needs at least one", line_no)
    return CircuitFactorization(field, tuple(factors))


def _emit_value(field: FieldDescriptor, x) -> str:
    if field.kind == KIND_EXTENSION:
        return ":".join(str(c) for c in x)
    return encode_element(field, x)


def _emit_header(field: FieldDescriptor) -> str:
    numbers = () if field.p is None else (field.p, *(field.modulus or ()))
    return " ".join(["field", _SLC_NAMES[field.kind], *map(str, numbers)])


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


def _madd_steps(field: FieldDescriptor) -> int:
    """Steps that one multiply-add, or one entry visit, counts for.

    1, except over F_p[z]/(g): a fixed 100 for the calls of the packed ring,
    plus deg g times its slot width in bytes, where F_2's bit per
    coefficient counts as a byte (it costs about as much).
    """
    if field.kind != KIND_EXTENSION:
        return 1
    if field.p == 2:
        return 100 + field.degree
    from .fppoly import _fp_layout

    return 100 + field.degree * _fp_layout(field.p, field.degree)[0]


_VERIFY_WORK = (
    "multiplying out layers 1 to {layer} takes {used} steps, past the cap of {cap}"
)


def verify_factorization(
    circuit: CircuitFactorization, target: ExactMatrix
) -> VerificationResult:
    """Multiply the layers exactly and compare against the target.

    Each product's steps (see VERIFY_WORK_CAP) are charged before it is
    formed, so BudgetExceeded names the last layer of the first product
    that would pass the cap.
    """
    if circuit.field != target.field:
        raise ValueError("circuit and target live over different fields")
    rows, cols = circuit.factors[0].rows, circuit.factors[-1].cols
    if (rows, cols) != (target.rows, target.cols):
        raise ValueError(
            f"product is {rows}x{cols}, target is {target.rows}x{target.cols}"
        )
    weight = _madd_steps(circuit.field)
    prod, work = circuit.factors[0], 0
    for layer, factor in enumerate(circuit.factors[1:], start=2):
        left, right = sparsity(prod).col_counts, sparsity(factor).row_counts
        madds = sum(c * r for c, r in zip(left, right))
        work += weight * (madds + prod.rows * (prod.cols + factor.cols))
        charge(work, _VERIFY_WORK, VERIFY_WORK_CAP, layer=layer)
        prod = matmul(prod, factor)
    mismatch = first_mismatch(prod, target)
    return VerificationResult(mismatch is None, circuit.size, prod, mismatch)


# Both refusal points name pair cap + 1, the first pair past the budget,
# although the bulk count of a B support's pairs may already pass it.
_EXPLORED = "search explored {explored} support pairs; budget is {cap}"


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

    ``nodes`` is the number of (B, C) support pairs, in that joint order, up
    to and including the hit (all of them when there is none), counted
    whether or not they are pruned; only the pairs of a B support that fails
    B's own pruning go uncounted.  The budget caps ``nodes``: BudgetExceeded
    is raised on reaching pair budget + 1.

    Only the supports that pass their own pruning are generated (see the
    module docstring); the pairs of a B support are counted in bulk.  The
    witness is multiplied out with verify_factorization before it is
    returned; a mismatch raises RuntimeError.
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
    rows_mask = sum(1 << i for i in range(n) if any(A.row(i)))
    cols_mask = sum(1 << j for j in range(n) if any(A.col(j)))
    min_sb = max(rank_a, rows_mask.bit_count())
    min_sc = max(rank_a, cols_mask.bit_count())
    a_flat = A.entries
    values = list(range(1, p))
    b_lists: dict[tuple[int, int], list] = {}
    c_tables: dict[tuple[int, int], _CTable] = {}
    solved: dict = {}
    nodes = 0

    # B and C have at most n * m_max cells each, so no support is larger.
    for s in range(min(s_max, 2 * n * m_max) + 1):
        for m in range(max(1, rank_a), m_max + 1):
            for s_b in range(s + 1):
                s_c = s - s_b
                if s_b < min_sb or s_c < min_sc:
                    continue
                b_supports = b_lists.get((m, s_b))
                if b_supports is None:
                    b_supports = b_lists[m, s_b] = _supports(
                        n, m, s_b, rows_mask, 0, 0, rank_a
                    )
                if not b_supports:
                    continue
                table = c_tables.get((m, s_c))
                if table is None:
                    table = c_tables[m, s_c] = _CTable(A, m, s_c, cols_mask, rank_a)
                for _, b_rows in b_supports:
                    passing = table.full
                    for i, meets in table.meets:
                        passing &= meets[b_rows[i]]
                    if passing:
                        b_pos = _cells(b_rows, m)  # (i, k)
                    while passing:
                        low = passing & -passing
                        passing ^= low
                        idx, c_rows = table.supports[low.bit_length() - 1]
                        charge(nodes + idx + 1, _EXPLORED, cap, explored=cap + 1)
                        c_pos = _cells(c_rows, n)  # (k, j)
                        hit = _assign_values(
                            a_flat, n, m, p, b_pos, c_pos, values, solved
                        )
                        if hit is not None:
                            witness = _build_witness(field, n, m, b_pos, c_pos, hit)
                            if not verify_factorization(witness, A).equal:
                                message = "depth-2 witness does not multiply out to A"
                                raise RuntimeError(message)
                            return SearchResult(
                                s, witness, nodes + idx + 1, s_max, m_max
                            )
                    nodes += table.total
                    charge(nodes, _EXPLORED, cap, explored=cap + 1)
    return SearchResult(None, None, nodes, s_max, m_max)


def _row_masks(width: int) -> list[int]:
    """Every subset of range(width) as a bitmask, in the order a grid row
    contributes to the lex order of row-major positions: sorted members
    compared one by one, a list that ends counting as larger there."""
    return sorted(
        range(1 << width),
        key=lambda r: [k for k in range(width) if r >> k & 1] + [width],
    )


def _supports(rows, width, size, need_rows, need_cols, min_rows, min_cols):
    """Supports of ``size`` cells in a rows x width grid that pass pruning.

    Returns ``[(index, row_masks), ...]`` in lex order of the cells'
    row-major positions: ``index`` is the support's 0-based rank among all
    ``comb(rows * width, size)`` supports, and ``row_masks`` holds one
    column bitmask per row.  A support passes when every row in the bitmask
    ``need_rows`` is nonempty, the union of its rows covers the column
    bitmask ``need_cols``, at least ``min_rows`` rows are nonempty and the
    union has at least ``min_cols`` columns.  A branch ends as soon as the
    cells left cannot meet these.
    """
    order = [(r, r.bit_count()) for r in _row_masks(width)]
    choices: dict[tuple[int, int, int, int], list] = {}

    def choose(room, left, required, need_after):
        """The masks a row may take with ``left`` cells to place, ``room``
        cells after it and ``need_after`` later rows that must be nonempty,
        each with the cells it leaves and the number of supports that the
        earlier masks at this row start."""
        key = (room, left, required, need_after)
        got = choices.get(key)
        if got is None:
            got, offset = [], 0
            for r, c in order:
                rest = left - c
                if 0 <= rest <= room:
                    if rest >= need_after and (r or not required):
                        got.append((r, rest, offset))
                    offset += comb(room, rest)
            choices[key] = got
        return got

    out = []

    def extend(i, left, union, nonempty, index, prefix):
        rows_after = rows - i - 1
        for r, rest, offset in choose(
            rows_after * width,
            left,
            need_rows >> i & 1,
            (need_rows >> i + 1).bit_count(),
        ):
            u = union | r
            ne = nonempty + (r != 0)
            if min_cols and u.bit_count() + rest < min_cols:
                continue
            if need_cols and (need_cols & ~u).bit_count() > rest:
                continue
            if min_rows and ne + (rest if rest < rows_after else rows_after) < min_rows:
                continue
            if rows_after:
                extend(i + 1, rest, u, ne, index + offset, prefix + (r,))
            else:
                out.append((index + offset, prefix + (r,)))

    extend(0, size, 0, 0, 0, ())
    return out


def _cells(row_masks, width) -> list[tuple[int, int]]:
    """The (row, column) cells of a support given as row bitmasks."""
    return [
        (i, k) for i, r in enumerate(row_masks) for k in range(width) if r >> k & 1
    ]


class _CTable:
    """The C supports (m x n, ``s_c`` cells) that pass C's own pruning.

    ``supports[t]`` is the t-th of them in lex order as ``(index,
    row_masks)`` (see ``_supports``).  For each nonzero row i of A,
    ``meets`` holds ``(i, bitsets)``: ``bitsets[r]`` is the set of t whose
    column j shares a middle index with the B row mask r for every nonzero
    A[i][j].  A B support's passing set is the AND of these over its rows.
    """

    def __init__(self, A, m, s_c, cols_mask, rank_a):
        n = A.rows
        self.total = comb(m * n, s_c)
        self.supports = _supports(m, n, s_c, 0, cols_mask, rank_a, 0)
        self.full = (1 << len(self.supports)) - 1
        # by_row[k][r]: the t whose row k is the column mask r
        by_row = [[0] * (1 << n) for _ in range(m)]
        for t, (_, c_rows) in enumerate(self.supports):
            for k, r in enumerate(c_rows):
                by_row[k][r] |= 1 << t
        # has[j][k]: the t with C[k][j] in the support
        has = [
            [sum(x for r, x in enumerate(by_row[k]) if r >> j & 1) for k in range(m)]
            for j in range(n)
        ]
        # hits[j][r]: the t whose column j meets the middle-index mask r
        hits = []
        for j in range(n):
            row = [0] * (1 << m)
            for r in range(1, 1 << m):
                low = r & -r
                row[r] = row[r ^ low] | has[j][low.bit_length() - 1]
            hits.append(row)
        self.meets = []
        for i in range(n):
            cols = [j for j in range(n) if A.at(i, j) != 0]
            if cols:
                bitsets = [self.full] * (1 << m)
                for r in range(1 << m):
                    for j in cols:
                        bitsets[r] &= hits[j][r]
                self.meets.append((i, bitsets))


def _assign_values(a_flat, n, m, p, b_pos, c_pos, values, solved):
    """First value assignment (in product order) making B C = A, or None.

    Once B's values are fixed, the columns of C are independent, so the
    product-order first assignment pairs the first B values for which every
    column is solvable with each column's own first solution.  Scaling
    column k of B by a unit and row k of C by its inverse keeps B C, so
    those first B values have a 1 at the first cell of each column of B,
    and only such B values are tried.  ``solved`` caches a column's first
    solution by its target and the B columns it meets.
    """
    col_cells = [[] for _ in range(n)]  # per column j: (k, position in c_pos)
    for t, (k, j) in enumerate(c_pos):
        col_cells[j].append((k, t))
    a_cols = [a_flat[j::n] for j in range(n)]
    free, seen = [], set()  # B cells after the first of their column
    for t, (_, k) in enumerate(b_pos):
        if k in seen:
            free.append(t)
        seen.add(k)
    b_vals = [1] * len(b_pos)
    for free_vals in product(values, repeat=len(free)):
        for t, v in zip(free, free_vals):
            b_vals[t] = v
        b_cols = [[0] * n for _ in range(m)]
        for (i, k), v in zip(b_pos, b_vals):
            b_cols[k][i] = v
        c_vals = [0] * len(c_pos)
        for j, cells in enumerate(col_cells):
            key = (a_cols[j], *(tuple(b_cols[k]) for k, _ in cells))
            sol = solved.get(key, False)
            if sol is False:
                sol = solved[key] = _solve_column(p, key[0], key[1:], values)
            if sol is None:
                break
            for (_, t), v in zip(cells, sol):
                c_vals[t] = v
        else:
            return (*b_vals, *c_vals)
    return None


def _solve_column(p, target, b_cols, values):
    """First x (in product order) with sum_k x[k] b_cols[k] = target mod p."""
    for x in product(values, repeat=len(b_cols)):
        if all(
            sum(xk * col[i] for xk, col in zip(x, b_cols)) % p == y
            for i, y in enumerate(target)
        ):
            return x
    return None


def _build_witness(field, n, m, b_pos, c_pos, assignment):
    ops = ops_for(field)
    b_flat = [ops.zero] * (n * m)
    for idx, (i, k) in enumerate(b_pos):
        b_flat[i * m + k] = assignment[idx]
    c_flat = [ops.zero] * (m * n)
    for idx, (k, j) in enumerate(c_pos):
        c_flat[k * n + j] = assignment[len(b_pos) + idx]
    B = ExactMatrix._from_checked(field, n, m, tuple(b_flat))
    C = ExactMatrix._from_checked(field, m, n, tuple(c_flat))
    return CircuitFactorization(field, (B, C))
