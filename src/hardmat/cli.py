"""Command-line front end.

One subcommand per toolkit operation.  Payload JSON goes to stdout (compact,
deterministic key order); a one-line provenance header (operation,
parameters, version) goes to stderr.  Exit codes: 0 success, 1 domain error,
2 usage error, 3 budget exceeded.  Matrices travel as JSON on stdin/stdout or
file paths; circuits as .slc text.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import namedtuple

from . import __version__

# Each handler imports the layer functions it calls, so a call loads only the
# modules its subcommand runs (and ``--help`` loads none of them, nor
# ``budgets``: dispatch imports it after parsing).  Annotations
# stay unevaluated strings, so they may name types of modules not yet loaded.

__all__ = ["CommandResult", "dispatch", "read_matrix", "main", "console_main"]

#: exit_code is 0 success, 1 domain error, 2 usage error, 3 budget.
CommandResult = namedtuple("CommandResult", "exit_code payload provenance")


def _read_text(source: str) -> str:
    if source == "-":
        return sys.stdin.read()
    with open(source, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_json(text: str, what: str):
    """Decode JSON input.  Text that does not decode, or nests deeper than
    the decoder recurses, raises a ValueError whose message starts with
    ``what``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        reason = str(exc)
    except RecursionError:
        reason = "nested too deeply"
    raise ValueError(f"{what}: {reason}")


def read_matrix(source: str) -> ExactMatrix:
    """Load and fully validate a matrix from a path or stdin ('-')."""
    from .matrices import matrix_from_json

    return matrix_from_json(_load_json(_read_text(source), "malformed matrix JSON"))


def _bundle_payload(bundle: HardMatrixBundle) -> dict:
    from .matrices import matrix_to_json

    payload = {
        "provenance": {
            "construction": bundle.provenance,
            "parameters": dict(sorted(bundle.parameters.items())),
        }
    }
    payload.update(matrix_to_json(bundle.matrix))
    return payload


def _verdict_payload(verdict) -> dict:
    """The verdict's fields in order, without the unset ones (None or "")."""
    from .fields import RATIONAL_FIELD, encode_element

    fields = zip(verdict._fields, verdict._values(verdict))
    payload = {name: v for name, v in fields if v is not None and v != ""}
    if "value" in payload:
        payload["value"] = encode_element(RATIONAL_FIELD, payload["value"])
    return payload


def _sidon_values(obj) -> list:
    """Elements of a sidon payload's grid, or of a plain array.

    Each element is a JSON integer or an ASCII decimal string; anything else
    raises a ValueError that names its position, e.g. ``grid[1][0]``.
    """
    from .fields import INTEGER_RING, decode_element

    def parse(items, path):
        values = []
        for j, x in enumerate(items):
            if type(x) is int:  # a JSON integer; bool is not one
                values.append(x)
            elif isinstance(x, str):
                try:
                    values.append(decode_element(INTEGER_RING, x))
                except ValueError as exc:
                    raise ValueError(f"{path}[{j}]: {exc}") from None
            else:
                raise ValueError(
                    f"{path}[{j}]: expected an integer or a decimal string, "
                    f"got {json.dumps(x)}"
                )
        return values

    if isinstance(obj, list):
        return parse(obj, "array")
    if not (isinstance(obj, dict) and "grid" in obj):
        raise ValueError("expected a sidon JSON object or a plain array")
    if not isinstance(obj["grid"], list):
        raise ValueError("grid must be an array of rows")
    values = []
    for i, row in enumerate(obj["grid"]):
        if not isinstance(row, list):
            raise ValueError(f"grid[{i}] must be an array")
        values += parse(row, f"grid[{i}]")
    return values


def _vector_flag(field, flag: str, text: str) -> list:
    """Decode the JSON array of element encodings given to ``flag``."""
    from .fields import decode_element

    raw = _load_json(text, f"{flag}: malformed JSON")
    if not isinstance(raw, list):
        raise ValueError(f"{flag} must be a JSON array of element encodings")
    vector = []
    for i, x in enumerate(raw):
        try:
            vector.append(decode_element(field, x))
        except ValueError as exc:
            raise ValueError(f"{flag}[{i}]: {exc}") from None
    return vector


# --------------------------------------------------------------------------
# Handlers.


def _cmd_sidon(args) -> dict:
    from .sidon import construct_sidon, verify_tsum_distinct

    if args.verify:
        text = _read_text(args.input)
        values = _sidon_values(_load_json(text, "malformed sidon JSON"))
        return {"t": args.t, "distinct": verify_tsum_distinct(values, args.t)}
    if args.n is None:
        raise ValueError("--n is required unless --verify is given")
    s = construct_sidon(args.n, args.t)
    return {"n": s.n, "t": s.t, "p": s.p, "grid": [list(row) for row in s.grid]}


def _cmd_hard_finite(args) -> dict:
    from .constructions import hard_over_finite

    return _bundle_payload(hard_over_finite(args.p, args.n, args.t))


def _cmd_hard_integers(args) -> dict:
    from .constructions import hard_over_integers

    return _bundle_payload(hard_over_integers(args.n, args.t))


def _cmd_hard_trivial(args) -> dict:
    from .constructions import trivial_hard

    return _bundle_payload(trivial_hard(args.n))


def _cmd_hard_quasipoly(args) -> dict:
    from .constructions import quasipoly_hard

    return _bundle_payload(quasipoly_hard(args.n, args.c))


def _cmd_hard_amplify(args) -> dict:
    from .constructions import HardMatrixBundle, amplify_direct_sum

    result = amplify_direct_sum(read_matrix(args.input), args.m)
    return _bundle_payload(HardMatrixBundle(result, "amplified", {"m": args.m}))


def _cmd_ssdim_gamma(args) -> dict:
    from .fields import KIND_EXTENSION, descriptor_to_json, prime_field
    from .ssdim import gamma_t

    matrix = read_matrix(args.input)
    if matrix.field.kind == KIND_EXTENSION:
        base = prime_field(matrix.field.p)
    else:
        base = matrix.field
    value = gamma_t(matrix, args.t, base, budget=args.budget)
    return {"t": args.t, "base": descriptor_to_json(base), "value": value}


def _cmd_ssdim_sigma(args) -> dict:
    from .ssdim import sigma_t

    matrix = read_matrix(args.input)
    return {"t": args.t, "value": sigma_t(matrix, args.t, budget=args.budget)}


def _cmd_ssdim_bound(args) -> dict:
    from .ssdim import bound_eval

    ev = bound_eval(args.s, args.d, args.t, args.n)
    return {
        "s": ev.s,
        "d": ev.d,
        "t": ev.t,
        "n": ev.n,
        "log2_gamma_upper": f"{ev.log2_gamma_upper:.12f}",
        "log2_sigma_upper": f"{ev.log2_sigma_upper:.12f}",
        "log2_gamma_lower": f"{ev.log2_gamma_lower:.12f}",
    }


def _cmd_ssdim_certify(args) -> dict:
    from .ssdim import certify_depth_d

    return {
        "n": args.n,
        "d": args.d,
        "t": args.t,
        "s_star": certify_depth_d(args.n, args.d, args.t),
    }


def _cmd_hitting_vand(args) -> dict:
    from .fields import INTEGER_RING, encode_element
    from .hitting import vandermonde_vectors

    hv = vandermonde_vectors(args.n, args.s)
    return {
        "n": hv.n,
        "s": hv.s,
        "vectors": [[encode_element(INTEGER_RING, x) for x in v] for v in hv.vectors],
    }


def _cmd_hitting_rs(args) -> dict:
    from .hitting import RSParams, rs_generator
    from .matrices import matrix_to_json

    return matrix_to_json(rs_generator(RSParams(args.q, args.k)))


def _cmd_hitting_kernelweight(args) -> dict:
    from .hitting import min_kernel_weight

    matrix = read_matrix(args.input)
    weight = min_kernel_weight(matrix, budget=args.budget)
    return {"min_weight": weight, "kernel_is_zero": weight is None}


def _cmd_hitting_hit(args) -> dict:
    from .fields import encode_element
    from .hitting import hit_inner

    matrix = read_matrix(args.input)
    vec_a = _vector_flag(matrix.field, "--a", args.a)
    vec_b = _vector_flag(matrix.field, "--b", args.b)
    value = hit_inner(matrix, vec_a, vec_b)
    return {"value": encode_element(matrix.field, value)}


def _cmd_psd_build(args) -> dict:
    from .hitting import build_hard_psd
    from .matrices import matrix_to_json

    pair = build_hard_psd(args.n)
    return {
        "n": pair.n,
        "mtilde": matrix_to_json(pair.mtilde),
        "m": matrix_to_json(pair.m),
        "probe_count": pair.probes.s,
    }


def _cmd_psd_refute_sym(args) -> dict:
    from .hitting import build_hard_psd, refute_symmetric

    pair = build_hard_psd(args.n)
    b = read_matrix(args.b)
    return _verdict_payload(refute_symmetric(b, pair))


def _cmd_psd_refute_inv(args) -> dict:
    from .hitting import build_hard_psd, refute_invertible

    pair = build_hard_psd(args.n)
    b = read_matrix(args.b)
    c = read_matrix(args.c)
    return _verdict_payload(refute_invertible(b, c, args.side, pair))


def _cmd_circuit_parse(args) -> dict:
    from .circuits import parse_slc
    from .fields import descriptor_to_json

    circuit = parse_slc(_read_text(args.input))
    return {
        "field": descriptor_to_json(circuit.field),
        "depth": circuit.depth,
        "size": circuit.size,
        "layers": [[f.rows, f.cols] for f in circuit.factors],
    }


def _cmd_circuit_verify(args) -> dict:
    from .circuits import parse_slc, verify_factorization

    target = read_matrix(args.target)
    circuit = parse_slc(_read_text(args.circuit))
    result = verify_factorization(circuit, target)
    payload = {"equal": result.equal, "size": result.size}
    if not result.equal:
        payload["mismatch"] = list(result.mismatch)
    return payload


def _cmd_circuit_emit(args) -> dict:
    from .circuits import emit_slc, parse_slc

    circuit = parse_slc(_read_text(args.input))
    text = emit_slc(circuit)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return {"slc": text}


def _cmd_search(args) -> dict:
    from .circuits import emit_slc, min_depth2_sparsity

    matrix = read_matrix(args.input)
    result = min_depth2_sparsity(
        matrix, m_max=args.m_max, s_max=args.s_max, budget=args.budget
    )
    return {
        "status": "found" if result.s_min is not None else "none",
        "s_min": result.s_min,
        "s_max": result.s_max,
        "m_max": result.m_max,
        "nodes": result.nodes,
        "witness": emit_slc(result.witness) if result.witness else None,
    }


# --------------------------------------------------------------------------
# Parser wiring.


def _finite_float(text: str) -> float:
    """argparse type: a float that is neither infinite nor NaN."""
    from math import isfinite

    try:
        value = float(text)
    except ValueError:
        value = None
    if value is None or not isfinite(value):
        raise argparse.ArgumentTypeError(f"invalid finite float value: {text!r}")
    return value


def _ints(*flags) -> tuple:
    """Required integer options."""
    return tuple((flag, {"type": int, "required": True}) for flag in flags)


def _required(help_text: str) -> dict:
    return {"required": True, "help": help_text}


def _in(help_text: str) -> tuple:
    return ("--in", {"dest": "input", "default": "-", "help": help_text})


_BUDGET = ("--budget", {"type": int})
_MATRIX_IN = _in("matrix JSON path, or - for stdin")
_SLC_IN = _in(".slc path, or - for stdin")


# (command path, help, arguments as (flag, add_argument keywords), handler).
# A path without a handler is a group; its subcommands follow it.
_COMMANDS = (
    ("sidon", "construct or verify a t-wise Sidon grid", (
        ("--n", {"type": int}),
        *_ints("--t"),
        ("--verify", {"action": "store_true", "help": "verify JSON from --in"}),
        _in("sidon JSON or element array (with --verify)"),
    ), _cmd_sidon),
    ("hard", "explicit hard-matrix constructions", (), None),
    ("hard finite", "powers of the extension generator", _ints("--p", "--n", "--t"),
     _cmd_hard_finite),
    ("hard integers", "powers of two on the Sidon grid", _ints("--n", "--t"),
     _cmd_hard_integers),
    ("hard trivial", "doubly-exponential small instance", _ints("--n"),
     _cmd_hard_trivial),
    ("hard quasipoly", "block-diagonal amplification",
     _ints("--n") + (("--c", {"type": _finite_float, "required": True}),),
     _cmd_hard_quasipoly),
    ("hard amplify", "I_m (x) A for a given matrix A", _ints("--m") + (_MATRIX_IN,),
     _cmd_hard_amplify),
    ("ssdim", "Shoup-Smolensky measures and bounds", (), None),
    ("ssdim gamma", "span dimension of t-wise products",
     _ints("--t") + (_BUDGET, _MATRIX_IN), _cmd_ssdim_gamma),
    ("ssdim sigma", "distinct subset sums of products",
     _ints("--t") + (_BUDGET, _MATRIX_IN), _cmd_ssdim_sigma),
    ("ssdim bound", "log-space bound quantities", _ints("--s", "--d", "--t", "--n"),
     _cmd_ssdim_bound),
    ("ssdim certify", "largest size ruled out at depth d", _ints("--n", "--d", "--t"),
     _cmd_ssdim_certify),
    ("hitting", "probe vectors and kernel weights", (), None),
    ("hitting vand", "rational probe vectors", _ints("--n", "--s"), _cmd_hitting_vand),
    ("hitting rs", "Reed-Solomon generator matrix", _ints("--q", "--k"),
     _cmd_hitting_rs),
    ("hitting kernelweight", "min weight in ker(G^T)", (_BUDGET, _MATRIX_IN),
     _cmd_hitting_kernelweight),
    ("hitting hit", "the pairing a^T M b", (
        ("--a", _required("JSON array of element encodings")),
        ("--b", _required("JSON array of element encodings")),
        _MATRIX_IN,
    ), _cmd_hitting_hit),
    ("psd", "hard PSD instance and refuters", (), None),
    ("psd build", "rank-n/2 PSD matrix and Gram factor", _ints("--n"), _cmd_psd_build),
    ("psd refute-sym", "check a claimed Gram factor",
     _ints("--n") + (("--b", _required("matrix JSON path for B")),),
     _cmd_psd_refute_sym),
    ("psd refute-inv", "check a claimed invertible product", _ints("--n") + (
        ("--b", _required("matrix JSON path for B")),
        ("--c", _required("matrix JSON path for C")),
        ("--side", {"required": True,
                    "choices": ["left-invertible", "right-invertible"]}),
    ), _cmd_psd_refute_inv),
    ("circuit", "parse, verify, and emit .slc files", (), None),
    ("circuit parse", "parse and summarize", (_SLC_IN,), _cmd_circuit_parse),
    ("circuit verify", "multiply layers and compare", (
        ("--target", _required("matrix JSON path")),
        ("--circuit", _required(".slc path")),
    ), _cmd_circuit_verify),
    ("circuit emit", "canonicalize circuit text", (
        _SLC_IN,
        ("--out", {"help": "also write the canonical text to this path"}),
    ), _cmd_circuit_emit),
    ("search", "minimum depth-2 sparsity by exhaustion", (
        ("--m-max", {"type": int}),
        *_ints("--s-max"),
        _BUDGET,
        _MATRIX_IN,
    ), _cmd_search),
)


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The command-line parser, or only the branch argv names.

    Every command and subcommand is registered with its help, so usage
    lines, choice lists and help texts are those of the full parser.  Given
    argv, arguments and handlers go only on the path named by its first one
    or two non-option words, the only path argparse will parse.
    """
    named = None if argv is None else [w for w in argv if not w.startswith("-")][:2]
    parser = argparse.ArgumentParser(
        prog="hardmat",
        description="explicit hard matrices, Shoup-Smolensky measures, "
        "hitting sets, and a desk-scale factorization oracle",
    )
    groups = {"": parser.add_subparsers(dest="command", required=True)}
    for path, help_text, arguments, handler in _COMMANDS:
        parent, _, name = path.rpartition(" ")
        if parent not in groups:
            continue  # a group off the named path has no subcommands
        sub = groups[parent].add_parser(name, help=help_text)
        words = path.split()
        if named is not None and words != named[: len(words)]:
            continue
        if handler is None:
            groups[path] = sub.add_subparsers(dest="subcommand", required=True)
            continue
        for flag, options in arguments:
            sub.add_argument(flag, **options)
        sub.set_defaults(handler=handler, operation=path)
    return parser


_PROVENANCE_SKIP = {"handler", "operation", "command", "subcommand"}


def dispatch(argv=None) -> CommandResult:
    """Run one command; returns the payload, provenance, and exit code."""
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return CommandResult(0 if code == 0 else 2, None, None)
    from .budgets import BudgetExceeded

    params = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in _PROVENANCE_SKIP and v is not None
    }
    provenance = {
        "operation": args.operation,
        "parameters": params,
        "version": __version__,
    }
    try:
        payload = args.handler(args)
    except BudgetExceeded as exc:
        return CommandResult(
            3, {"error": {"type": "budget", "message": str(exc)}}, provenance
        )
    except (ValueError, ZeroDivisionError, OSError, KeyError) as exc:
        error = {"type": "domain", "message": str(exc)}
        # An SlcParseError exists only once its module has been imported.
        circuits = sys.modules.get(f"{__package__}.circuits")
        if circuits is not None and isinstance(exc, circuits.SlcParseError):
            error.update(type="parse", line=exc.line, column=exc.column)
        return CommandResult(1, {"error": error}, provenance)
    return CommandResult(0, payload, provenance)


def main(argv=None) -> int:
    result = dispatch(argv)
    if result.payload is not None:
        print(json.dumps(result.payload, separators=(",", ":")))
    if result.provenance is not None:
        print(
            json.dumps(result.provenance, separators=(",", ":")),
            file=sys.stderr,
        )
    return result.exit_code


def console_main() -> None:
    """Entry point of the ``hardmat`` command: run :func:`main`, then end the
    process without interpreter teardown.

    Both streams are flushed first; a stream closed at start is ``None`` and
    skipped.  If a flush fails (stdout is a closed pipe, a full disk),
    ``sys.exit`` hands the failure to the interpreter, which reports it as
    it always has.  ``os._exit`` skips ``atexit`` hooks and module teardown,
    so nothing registered by another package runs after the answer.
    """
    code = main()
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            try:
                stream.flush()
            except OSError:
                sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    console_main()
