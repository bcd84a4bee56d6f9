"""Spans around calls into hardmat's modules, recorded from outside ``src/``.

:class:`Tracer` replaces each module-level function of a layer module, under
every name a hardmat module binds it to, by a wrapper that records a span
(name, layer, start, end, parent, step).  Calls inside a module go through
its own globals, so they are wrapped too.  Per-element field and polynomial
operations stay unwrapped: their cost lands in the caller's self time.
:meth:`Tracer.uninstall` puts every original function back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from dataclasses import dataclass
from time import perf_counter

# Top of the call graph first; ``budgets`` only holds constants.
LAYERS = (
    "cli", "constructions", "sidon", "ssdim", "hitting",
    "circuits", "matrices", "fields", "fppoly",
)

# Called once per element, coefficient or candidate prime; a span would cost
# more than the call it measures.
PER_ELEMENT = {
    "fields": {
        "is_prime", "prime_field", "extension_field", "field_arith", "power",
        "extension_generator",
    },
    "fppoly": {
        "trim", "degree", "add", "neg", "sub", "mul", "mod_monic", "gcd",
        "inverse_mod", "eval_at",
    },
}


def _scan_index(modulus, p: int) -> int:
    """Candidates a lex-order scan tries up to and including ``modulus``."""
    return sum(c * p**i for i, c in enumerate(modulus[:-1])) + 1


def _kernel_vectors(args, result) -> int:
    from hardmat.matrices import rank

    g = args[0]
    return g.field.p ** (g.rows - rank(g))


# Work counts, read from a span's arguments and result after the replay.
COUNTERS = {
    ("fppoly", "find_irreducible_coeffs"): lambda args, res: _scan_index(res, args[0]),
    ("ssdim", "pi_t"): lambda args, res: len(res.values),
    ("hitting", "min_kernel_weight"): _kernel_vectors,
    ("circuits", "min_depth2_sparsity"): lambda args, res: res.nodes,
}


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int  # index into the same span list, -1 at the top
    step: int  # index of the replayed call within its pass
    args: tuple = ()
    result: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.step = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def run(self, layer: str, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span; returns its result."""
        spans = self.spans
        idx = len(spans)
        parent = self._stack[-1] if self._stack else -1
        spans.append(None)
        self._stack.append(idx)
        result = None
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = perf_counter()
            self._stack.pop()
            keep = (layer, name) in COUNTERS
            spans[idx] = Span(
                name, layer, start, end, parent, self.step,
                args if keep else (), result if keep else None,
            )

    def _wrap(self, layer: str, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.run(layer, name, fn, *args, **kwargs)

        return wrapper

    def install(self):
        modules = [m for n, m in sys.modules.items() if n.startswith("hardmat")]
        targets = {}
        for layer in LAYERS[1:]:
            mod = importlib.import_module(f"hardmat.{layer}")
            skip = PER_ELEMENT.get(layer, set())
            for name, fn in vars(mod).items():
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                if name in skip:
                    continue
                # Private helpers count only where another module imports them.
                if name.startswith("_") and not any(
                    other is not mod and vars(other).get(name) is fn
                    for other in modules
                ):
                    continue
                targets[id(fn)] = self._wrap(layer, name, fn)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                wrapper = targets.get(id(value))
                if wrapper is not None:
                    self._patches.append((mod, name, value))
                    setattr(mod, name, wrapper)

    def uninstall(self):
        for mod, name, original in reversed(self._patches):
            setattr(mod, name, original)
        self._patches.clear()


# ---------------------------------------------------------------------------
# Per-layer metrics from one traced pass.


def _inclusive(spans, names, outside=()):
    """Summed duration of spans named in ``names`` that have no ancestor
    named in ``names`` or ``outside``."""
    blocked = set(names) | set(outside)
    total = 0.0
    for s in spans:
        if s.name not in names:
            continue
        p = s.parent
        while p >= 0 and spans[p].name not in blocked:
            p = spans[p].parent
        if p < 0:
            total += s.duration
    return total


def _count(spans, layer, name, steps=None):
    fn = COUNTERS[(layer, name)]
    return sum(
        fn(s.args, s.result)
        for s in spans
        if s.layer == layer and s.name == name and (steps is None or s.step in steps)
    )


def layer_metrics(spans: list, pass_s: float, fixed_steps: set) -> dict:
    """Per-layer metrics of one traced pass (spans of that pass only).

    ``fixed_steps`` are the calls whose input does not depend on the seed;
    search nodes are counted on those alone so the count repeats across seeds.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.duration
    out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for s, c in zip(spans, child):
        out[f"{s.layer}.self_s"] += s.duration - c
    top = sum(s.duration for s in spans if s.parent < 0)

    kernel_s = _inclusive(spans, {"min_kernel_weight"})
    kernel = _count(spans, "hitting", "min_kernel_weight")
    search = [
        s for s in spans
        if s.name == "min_depth2_sparsity" and s.step in fixed_steps
    ]
    search_s = sum(s.duration for s in search)
    nodes = _count(spans, "circuits", "min_depth2_sparsity", fixed_steps)
    out.update({
        "ssdim.subsets": _count(spans, "ssdim", "pi_t"),
        "hitting.kernel_vectors": kernel,
        "hitting.kernel_vectors_per_s": kernel / kernel_s if kernel_s else 0.0,
        "circuits.search_nodes": nodes,
        "circuits.search_nodes_per_s": nodes / search_s if search_s else 0.0,
        "matrices.inverse_s": _inclusive(spans, {"inverse"}),
        "matrices.matmul_s": _inclusive(spans, {"matmul"}),
        "matrices.rank_s": _inclusive(spans, {"rank", "_rank_rows"}),
        "fppoly.irreducible_scan_s": _inclusive(spans, {"find_irreducible_coeffs"}),
        "fppoly.irreducible_check_s": _inclusive(
            spans, {"is_irreducible"}, outside={"find_irreducible_coeffs"}
        ),
        "fppoly.scan_candidates": _count(spans, "fppoly", "find_irreducible_coeffs"),
        "trace.coverage": top / pass_s if pass_s else 0.0,
    })
    return out
