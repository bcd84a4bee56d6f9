"""Differential and command-line fuzz of the ``.slc`` reader.

``parse_slc`` is compared with the state-machine parser it replaced
(``slcref``) on format-like text and on emitted circuits with one mutation
each: both must return equal circuits, or raise the same exception type with
the same text, line and column.  The same texts go through ``circuit parse``
in process, which must exit 0, 1 or 3 with one JSON line, the same bytes on
a second run.
"""

import contextlib
import io
import json
import random
import sys

import slcref
from hypothesis import given, settings
from hypothesis import strategies as st

from hardmat.circuits import CircuitFactorization, emit_slc, parse_slc
from hardmat.cli import main
from hardmat.fields import (
    INTEGER_RING,
    RATIONAL_FIELD,
    extension_field,
    ops_for,
    prime_field,
)
from hardmat.matrices import ExactMatrix

FIELDS = [
    prime_field(2),
    prime_field(5),
    extension_field(2, (1, 1, 1)),
    RATIONAL_FIELD,
    INTEGER_RING,
]

# Lines that break one rule or several at once, by where they sit.
LAYERS = [
    "layer 2 2", "layer 2 2", "layer 1 1", "layer 2 3", "layer 2", "layer 0 2",
    "layer x 0", "layer 1000000000000 1", "end", "1 1 1", "",
]
BODIES = [
    "1 1 1", "2 2 1", "1 2 1", "2 1 1", "1 1 x", "2 1 1/2", "1 3 1:1", "3 3 1",
    "x x 1", "3 x 1", "x 1", "1 1 1 1", "layer 1 1", "end x", "# comment",
]
ENDS = ["end", "end", "end", "end x", "end 1", "", "layer 2 2"]
TOKENS = [
    "0", "1", "2", "3", "-1", "x", "end", "layer", "field", "1:1", "1:0:1",
    "1/2", "1/0", "99999999999", "٣", "#",
]


def outcome(parse, text):
    """A parse's result, or its exception's type, text, line and column."""
    try:
        return parse(text)
    except Exception as exc:  # compared below, whatever it is
        where = getattr(exc, "line", None), getattr(exc, "column", None)
        return type(exc), str(exc), where


def random_circuit(rng: random.Random) -> CircuitFactorization:
    field = rng.choice(FIELDS)
    ops = ops_for(field)
    dims = [rng.randint(1, 3) for _ in range(rng.randint(2, 4))]

    def element():
        if field.kind == "extension":
            return tuple(rng.randrange(2) for _ in range(field.degree))
        if field.kind == "rational":
            num, den = rng.randint(-9, 9), rng.randint(1, 9)
            return ops.div(ops.from_int(num), ops.from_int(den))
        return ops.from_int(rng.randint(-9, 9))

    factors = []
    for a, b in zip(dims, dims[1:]):
        flat = [element() if rng.random() < 0.6 else ops.zero for _ in range(a * b)]
        factors.append(ExactMatrix(field, a, b, tuple(flat)))
    return CircuitFactorization(field, tuple(factors))


@st.composite
def mutated_slc(draw):
    """An emitted circuit with one line dropped, duplicated or swapped, one
    token replaced, or one ``end`` or ``layer`` line inserted."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    lines = emit_slc(random_circuit(rng)).splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    kind = draw(st.sampled_from(["drop", "duplicate", "swap", "token", "insert"]))
    if kind == "drop":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "swap":
        j = draw(st.integers(0, len(lines) - 1))
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "token":
        tokens = lines[i].split()
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(TOKENS))
        lines[i] = " ".join(tokens)
    else:
        inserted = ["end", "layer 2 2", "layer 1 3", "layer 3", "layer 0 2"]
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(inserted)))
    return "\n".join(lines) + "\n"


@st.composite
def line_soup(draw):
    """A header, then layer blocks whose lines may each break rules."""
    header = ["field prime 2", "field prime 5", "field rational", "end", ""]
    lines = [draw(st.sampled_from(header))]
    for _ in range(draw(st.integers(0, 3))):
        lines.append(draw(st.sampled_from(LAYERS)))
        lines += draw(st.lists(st.sampled_from(BODIES), max_size=4))
        lines.append(draw(st.sampled_from(ENDS)))
    return "\n".join(lines)


FORMAT_LIKE = st.one_of(
    st.text(alphabet="fieldprimavtxnl 0123456789\n#:-/", max_size=120), line_soup()
)
TEXTS = st.one_of(FORMAT_LIKE, mutated_slc())


@settings(derandomize=True, max_examples=600, deadline=None)
@given(TEXTS)
def test_parser_matches_reference(text):
    assert outcome(parse_slc, text) == outcome(slcref.parse_slc, text)


def circuit_parse(text: str) -> tuple[int, str]:
    """``circuit parse`` on ``text`` as stdin, in process: (exit code, stdout)."""
    out, stdin = io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out):
            with contextlib.redirect_stderr(io.StringIO()):
                code = main(["circuit", "parse"])
    finally:
        sys.stdin = stdin
    return code, out.getvalue()


@settings(derandomize=True, max_examples=150, deadline=None)
@given(TEXTS)
def test_circuit_parse_answers_with_one_json_line(text):
    code, out = circuit_parse(text)
    assert code in (0, 1, 3)
    assert out.endswith("\n") and out.count("\n") == 1
    payload = json.loads(out)
    assert ("error" in payload) == (code != 0)
    assert circuit_parse(text) == (code, out)
