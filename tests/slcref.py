"""The state-machine ``.slc`` parser, kept as a reference for the tests.

`hardmat.circuits.parse_slc` read layers this way, one flat loop over the
lines with the open layer held in a dict, until it was rewritten as one loop
per layer block.  Both share the tokenizer, the header and value parsers and
the layer budget, so they may differ only in the order of their checks,
which the differential fuzz in ``test_slc_fuzz.py`` compares.
"""

from hardmat.budgets import charge, enumeration_budget
from hardmat.circuits import (
    _LAYER_BUDGET,
    CircuitFactorization,
    SlcParseError,
    _parse_field_header,
    _parse_int,
    _parse_value,
    _tokenize,
)
from hardmat.fields import ops_for
from hardmat.matrices import ExactMatrix


def parse_slc(text):
    """Parse circuit text; every malformed input is a located SlcParseError.

    Layers whose dense entries together pass the enumeration budget raise
    BudgetExceeded, naming the line of the layer that passed it.
    """
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
    cap, entries = enumeration_budget(), 0  # dense entries over all layers
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
            entries += rows * cols
            charge(entries, _LAYER_BUDGET, cap, line=line_no, rows=rows, cols=cols)
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
