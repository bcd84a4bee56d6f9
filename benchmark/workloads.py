"""The four benchmark workloads: seeded call lists and their expected outputs.

A workload is a list of :class:`Call` objects, each one ``python -m hardmat``
invocation.  A call may take its stdin from an earlier call's stdout (the
benchmark relays it, so ``A | B`` runs as A then B) and may write files built
from earlier outputs before it runs.  Every call is checked: exit code 0, the
recorded stdout digest for calls that do not depend on the seed, and the
expected payload fields computed here for the ones that do.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))

WORKLOADS = ("extension", "rational", "oracle", "surface")

# F_3 targets drawn from golden.json "f3_pool" for each oracle pass.
F3_DRAWS = 3
PSD_N = 16


@dataclass(frozen=True)
class Call:
    key: str  # unique within a pass; names the call in golden.json and spans
    argv: tuple  # arguments after ``python -m hardmat``
    stdin: str | None = None  # key of an earlier call whose stdout is piped in
    # (relative path, key of an earlier call, JSON field or None for all stdout)
    writes: tuple = ()
    expect: dict = field(default_factory=dict)  # payload fields that must match
    exact: bytes | None = None  # the whole stdout, byte for byte
    seeded: bool = False  # input drawn from the seed; left out of fixed counts


def _call(key, cmd, **kw):
    return Call(key, tuple(cmd.split()) if isinstance(cmd, str) else tuple(cmd), **kw)


def check(call: Call, code: int, out: bytes) -> str | None:
    """Return why the call's result is wrong, or None when it is right."""
    if code != 0:
        return f"exit code {code}"
    golden = GOLDEN["stdout_sha256"].get(call.key)
    if golden is not None and hashlib.sha256(out).hexdigest() != golden:
        return "stdout differs from the recorded digest"
    if golden is None and not call.seeded:
        return "no recorded digest for a call that does not depend on the seed"
    if call.exact is not None and out != call.exact:
        return f"stdout {out[:120]!r} differs from {call.exact[:120]!r}"
    if call.expect:
        try:
            payload = json.loads(out)
        except ValueError:
            return "stdout is not JSON"
        for k, v in call.expect.items():
            if payload.get(k) != v:
                return f"{k} is {payload.get(k)!r}, expected {v!r}"
    return None


def derived_bytes(outputs: dict, key: str, field_name: str | None) -> bytes:
    out = outputs[key]
    if field_name is None:
        return out
    return json.loads(out)[field_name].encode("utf-8")


# ---------------------------------------------------------------------------
# Input files.


def _matrix_json(kind: dict, rows: int, cols: int, entries) -> bytes:
    obj = {"field": kind, "rows": rows, "cols": cols, "entries": list(entries)}
    return json.dumps(obj, separators=(",", ":")).encode("utf-8")


def _prime_matrix(p: int, n: int, entries) -> bytes:
    return _matrix_json({"kind": "prime", "p": p}, n, n, [str(x) for x in entries])


def _rational_matrix(n: int, entries) -> bytes:
    enc = [f"{x.numerator}/{x.denominator}" for x in entries]
    return _matrix_json({"kind": "rational"}, n, n, enc)


def _write(tmp: Path, name: str, data: bytes) -> str:
    path = tmp / name
    path.write_bytes(data)
    return path.as_posix()


# ---------------------------------------------------------------------------
# Workloads.  Each function takes (seed, tmp, setup) and returns the call list;
# ``setup(argv)`` runs one untimed, checked call and returns its stdout.


def extension(seed, tmp, setup):
    """The paper's finite-field certificate, piped into the gamma_t check."""
    return [
        _call("finite-p2", "hard finite --p 2 --n 3 --t 2"),
        _call("gamma-p2", "ssdim gamma --t 2", stdin="finite-p2", expect={"value": 36}),
        _call("finite-p3", "hard finite --p 3 --n 2 --t 2"),
        _call("gamma-p3", "ssdim gamma --t 2", stdin="finite-p3", expect={"value": 6}),
    ]


def _gram_mismatch(b: list, m: list, n: int):
    """First (row, col), 1-based, where B^T B differs from m; None if equal."""
    for i in range(n):
        for j in range(n):
            if sum(b[k * n + i] * b[k * n + j] for k in range(n)) != m[i * n + j]:
                return [i + 1, j + 1]
    return None


def _perturb(rng: random.Random, entries: list, n: int):
    r, c = rng.randrange(n), rng.randrange(n)
    delta = rng.choice((Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2)))
    out = list(entries)
    out[r * n + c] += delta
    return out, r, c


def rational(seed, tmp, setup):
    """Exact Fraction elimination: the PSD build and its refuters."""
    n = PSD_N
    pair = json.loads(setup(_call("psd-16", f"psd build --n {n}")))
    mtilde = [Fraction(x) for x in pair["mtilde"]["entries"]]
    m = [Fraction(x) for x in pair["m"]["entries"]]
    bound = n * n // 4
    nnz_m = sum(1 for x in m if x)
    ident = [Fraction(int(i == j)) for i in range(n) for j in range(n)]

    rng = random.Random(seed)
    b_bad = mtilde
    while _gram_mismatch(b_bad, m, n) is None:
        b_bad, _, _ = _perturb(rng, mtilde, n)
    m_bad, r, c = _perturb(rng, m, n)

    files = {
        "b-genuine.json": _rational_matrix(n, mtilde),
        "b-perturbed.json": _rational_matrix(n, b_bad),
        "identity.json": _rational_matrix(n, ident),
        "m.json": _rational_matrix(n, m),
        "m-perturbed.json": _rational_matrix(n, m_bad),
    }
    path = {name: _write(tmp, name, data) for name, data in files.items()}

    def sym(key, b, expect, seeded=False):
        argv = ("psd", "refute-sym", "--n", str(n), "--b", path[b])
        return Call(key, argv, expect={"bound": bound, **expect}, seeded=seeded)

    def inv(key, b, c_, side, expect, seeded=False):
        argv = ("psd", "refute-inv", "--n", str(n), "--b", path[b], "--c", path[c_])
        argv += ("--side", side)
        return Call(key, argv, expect={"bound": bound, **expect}, seeded=seeded)

    sparse = {"kind": "sparsity-at-least-quarter"}
    return [
        _call("psd-40", "psd build --n 40", expect={"n": 40, "probe_count": 20}),
        sym("sym-genuine", "b-genuine.json",
            {**sparse, "sparsity": sum(1 for x in mtilde if x)}),
        sym("sym-perturbed", "b-perturbed.json",
            {"kind": "not-a-factorization",
             "witness_entry": _gram_mismatch(b_bad, m, n)}, seeded=True),
        inv("inv-left", "identity.json", "m.json", "left-invertible",
            {**sparse, "sparsity": nnz_m}),
        inv("inv-right", "m.json", "identity.json", "right-invertible",
            {**sparse, "sparsity": nnz_m}),
        inv("inv-singular", "m.json", "identity.json", "left-invertible",
            {"kind": "invertibility-failure"}),
        inv("inv-perturbed", "identity.json", "m-perturbed.json", "left-invertible",
            {"kind": "product-mismatch", "witness_entry": [r + 1, c + 1]},
            seeded=True),
    ]


def oracle(seed, tmp, setup):
    """Exhaustive depth-2 search and Reed-Solomon kernel enumeration."""
    upper = [int(j >= i) for i in range(4) for j in range(4)]
    ut4 = _write(tmp, "ut4.json", _prime_matrix(2, 4, upper))
    calls = [
        _call("search-ut4", ["search", "--s-max", "9", "--budget", "10000000",
                             "--in", ut4],
              expect={"status": "none", "nodes": 934752}),
    ]
    pool = GOLDEN["f3_pool"]
    for idx in random.Random(seed).sample(range(len(pool)), F3_DRAWS):
        target = pool[idx]
        path = _write(tmp, f"f3-{idx}.json", _prime_matrix(3, 3, target["entries"]))
        slc = (tmp / f"f3-{idx}.slc").as_posix()
        calls += [
            _call(f"search-f3-{idx}", ["search", "--s-max", "10", "--in", path],
                  expect={"status": "found", "s_min": target["s_min"]}, seeded=True),
            _call(f"verify-f3-{idx}",
                  ["circuit", "verify", "--target", path, "--circuit", slc],
                  writes=((slc, f"search-f3-{idx}", "witness"),),
                  expect={"equal": True, "size": target["s_min"]}, seeded=True),
        ]
    calls += [
        _call("rs-13-8", "hitting rs --q 13 --k 8"),
        _call("kernel-13-8", "hitting kernelweight", stdin="rs-13-8",
              expect={"min_weight": 9, "kernel_is_zero": False}),
    ]
    return calls


def surface(seed, tmp, setup):
    """Every subcommand once at small size, so start-up and import dominate."""
    id2 = _write(tmp, "id2.json", _prime_matrix(2, 2, [1, 0, 0, 1]))
    id_slc = (tmp / "id.slc").as_posix()
    Path(id_slc).write_text(
        "field prime 2\nlayer 2 2\n1 1 1\n2 2 1\nend\n"
        "layer 2 2\n1 1 1\n2 2 1\nend\n",
        encoding="utf-8",
    )
    rs5 = (tmp / "rs5.json").as_posix()
    # a^T G b over F_5 for G[i] = (1, i): a^T G = (1, 4), so the value is 2 + 12.
    hit_a, hit_b = ["1", "2", "0", "0", "3"], ["2", "3"]
    return [
        # The README examples, payloads as printed there.
        _call("sidon-2-1", "sidon --n 2 --t 1",
              exact=b'{"n":2,"t":1,"p":5,"grid":[[1,2],[4,3]]}\n'),
        _call("finite-2-2-1", "hard finite --p 2 --n 2 --t 1"),
        _call("gamma-1", "ssdim gamma --t 1", stdin="finite-2-2-1",
              exact=b'{"t":1,"base":{"kind":"prime","p":2},"value":4}\n'),
        _call("trivial-2", "hard trivial --n 2"),
        _call("sigma-2", "ssdim sigma --t 2", stdin="trivial-2",
              exact=b'{"t":2,"value":63}\n'),
        _call("certify-d2", "ssdim certify --n 1000000 --d 2 --t 31623",
              exact=b'{"n":1000000,"d":2,"t":31623,"s_star":65419474}\n'),
        _call("psd-2", "psd build --n 2", expect={"n": 2, "probe_count": 1}),
        _call("rs-5-2", "hitting rs --q 5 --k 2"),
        _call("kernel-5-2", "hitting kernelweight", stdin="rs-5-2",
              exact=b'{"min_weight":3,"kernel_is_zero":false}\n'),
        _call("verify-id2", ["circuit", "verify", "--target", id2, "--circuit", id_slc],
              exact=b'{"equal":true,"size":4}\n'),
        _call("search-id2", ["search", "--s-max", "6", "--in", id2],
              expect={"status": "found", "s_min": 4}),
        # The rest of the command surface.
        _call("sidon-verify", "sidon --t 1 --verify", stdin="sidon-2-1",
              exact=b'{"t":1,"distinct":true}\n'),
        _call("integers-3-2", "hard integers --n 3 --t 2"),
        _call("sigma-1", "ssdim sigma --t 1", stdin="integers-3-2",
              exact=b'{"t":1,"value":511}\n'),
        _call("trivial-3", "hard trivial --n 3"),
        _call("quasipoly-6", "hard quasipoly --n 6 --c 1"),
        _call("amplify-3", "hard amplify --m 3", stdin="finite-2-2-1"),
        _call("bound", "ssdim bound --s 100 --d 2 --t 3 --n 10"),
        _call("certify-d3", "ssdim certify --n 1000000 --d 3 --t 100"),
        _call("vand", "hitting vand --n 6 --s 3"),
        _call("hit", ["hitting", "hit", "--a", json.dumps(hit_a),
                      "--b", json.dumps(hit_b), "--in", rs5],
              writes=((rs5, "rs-5-2", None),), exact=b'{"value":"4"}\n'),
        _call("slc-parse", ["circuit", "parse", "--in", id_slc],
              expect={"depth": 2, "size": 4}),
        _call("slc-emit", ["circuit", "emit", "--in", id_slc]),
    ]


CALL_LISTS = {
    "extension": extension,
    "rational": rational,
    "oracle": oracle,
    "surface": surface,
}
