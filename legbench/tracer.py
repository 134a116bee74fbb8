"""Per-layer spans around legdet's public functions, recorded from outside.

The tracer replaces each layer's function by a wrapper wherever the function
is looked up: on the class for a method, and otherwise in every loaded
``legdet`` module that holds the function under some name.  The second part
matters because ``identities`` does ``from .linalg import det_bareiss``, so
the call sites use ``legdet.identities.det_bareiss``, not
``legdet.linalg.det_bareiss``.  legdet itself is not modified.

Each call records one span ``[layer, start, end, parent]``; spans stay in
memory and are written out at the end.  From them the tracer derives, per
layer, exact call counts, total time (outermost calls only, so recursion is
not counted twice) and self time (duration minus the time of child spans).
For the kernels it also records an operation count (the sum of k**3 over
k x k matrices) and the share of calls whose input had not been seen before.

``ntheory.legendre`` is deliberately not wrapped: it is too small and too
frequent, and a wrapper would cost more than the call.  Its time shows as
self time of its callers.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable


def _matrix_key(m) -> tuple:
    return (m.ring.name, m.entries)


def _same(x: Any) -> Any:
    return x


def _prime_key(p) -> int:
    return int(p)


@dataclass(frozen=True)
class Layer:
    """One traced boundary: metric prefix, defining module and attribute."""

    name: str
    module: str
    attr: str
    order3: bool = False
    distinct: Callable[[Any], Any] | None = None  # first argument -> hashable key


def _layer(name: str, attr: str | None = None, **kw) -> Layer:
    module, _, rest = name.partition(".")
    return Layer(name, "legdet." + module, attr or rest, **kw)


LAYERS: tuple[Layer, ...] = (
    _layer("cli.main"),
    _layer("cli.emit_report"),
    *(_layer(f"identities.verify_{check}") for check in (
        "theorem", "evil", "adj_sum", "minor_antisymmetry", "carlitz", "sun_congruence",
        "prod_2j", "lemma_sum", "d00_detG", "f1f2", "decomposition", "lemma_uv")),
    _layer("identities.build_vsemirnov_matrices"),
    _layer("identities.c_polynomial"),
    _layer("linalg.det_bareiss", order3=True, distinct=_matrix_key),
    _layer("linalg.det_field", order3=True, distinct=_matrix_key),
    _layer("linalg.adjugate"),
    _layer("linalg.adjugate_fast", order3=True),
    _layer("linalg.quadratic_form_adjugate"),
    _layer("cyclotomic.CycloElem.inv", distinct=_same),
    _layer("cyclotomic.CycloElem.mul", "CycloElem.__mul__"),
    _layer("exact.UniPoly.divmod"),
    _layer("quadfield.ab_coeffs", distinct=_prime_key),
    _layer("quadfield.fundamental_unit"),
    _layer("quadfield.class_number"),
    _layer("render.format_value"),
)

OVERHEAD_METRIC = "trace_overhead_s"


def metric_specs() -> list[dict]:
    """Every per-layer metric a traced run reports, in order, with its unit."""
    specs = []
    for layer in LAYERS:
        specs.append({"name": f"{layer.name}.calls", "unit": "count", "better": "lower"})
        specs.append({"name": f"{layer.name}.total_s", "unit": "s", "better": "lower"})
        specs.append({"name": f"{layer.name}.self_s", "unit": "s", "better": "lower"})
        if layer.order3:
            specs.append({"name": f"{layer.name}.order3", "unit": "count", "better": "lower"})
        if layer.distinct:
            specs.append({"name": f"{layer.name}.distinct_ratio", "unit": "ratio", "better": "higher"})
    specs.append({"name": OVERHEAD_METRIC, "unit": "s", "better": "lower"})
    return specs


def is_exact_count(metric: str) -> bool:
    """Counts that must repeat exactly across traced runs of one seed."""
    return metric.endswith((".calls", ".order3", ".distinct_ratio"))


class Tracer:
    """Installs span-recording wrappers on the layers and undoes them."""

    def __init__(self):
        self.layers = LAYERS
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._order3 = [0] * len(LAYERS)
        self._seen: list[set | None] = [set() if layer.distinct else None for layer in LAYERS]
        self._undo: list[tuple[Any, str, Any]] = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        for idx, layer in enumerate(self.layers):
            owner = importlib.import_module(layer.module)
            *path, attr = layer.attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            if path:
                original = vars(owner)[attr]
                targets = [owner]
            else:
                original = getattr(owner, attr)
                targets = [m for name, m in list(sys.modules.items())
                           if name == "legdet" or name.startswith("legdet.")]
            wrapper = self._wrap(idx, original)
            for target in targets:
                # a class alias such as __rmul__ = __mul__ is patched too
                for name, value in list(vars(target).items()):
                    if value is original:
                        self._undo.append((target, name, value))
                        setattr(target, name, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            target, name, value = self._undo.pop()
            setattr(target, name, value)

    def _wrap(self, idx: int, fn: Callable) -> Callable:
        layer = self.layers[idx]
        spans = self.spans
        stack = self._stack
        order3 = self._order3
        seen = self._seen[idx]
        key = layer.distinct
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if layer.order3:
                order3[idx] += args[0].rows ** 3
            if seen is not None:
                seen.add(key(args[0]))
            span = [idx, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return functools.wraps(fn)(wrapper)

    def metrics(self) -> dict[str, float]:
        """Per-layer calls, total_s, self_s, order3 and distinct_ratio."""
        n = len(self.layers)
        calls = [0] * n
        total = [0.0] * n
        selft = [0.0] * n
        child = [0.0] * len(self.spans)
        for idx, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for sid, (idx, start, end, parent) in enumerate(self.spans):
            calls[idx] += 1
            selft[idx] += end - start - child[sid]
            anc = parent
            while anc >= 0 and self.spans[anc][0] != idx:
                anc = self.spans[anc][3]
            if anc < 0:
                total[idx] += end - start
        out: dict[str, float] = {}
        for idx, layer in enumerate(self.layers):
            out[f"{layer.name}.calls"] = calls[idx]
            out[f"{layer.name}.total_s"] = total[idx]
            out[f"{layer.name}.self_s"] = selft[idx]
            if layer.order3:
                out[f"{layer.name}.order3"] = self._order3[idx]
            if layer.distinct:
                # no calls, no waste: reported as 0 so the metric stays a number
                out[f"{layer.name}.distinct_ratio"] = (
                    len(self._seen[idx]) / calls[idx] if calls[idx] else 0.0)
        return out

    def write(self, path, run_id: str) -> None:
        """Write the spans as JSON lines; times are seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as f:
            for sid, (idx, start, end, parent) in enumerate(self.spans):
                f.write(json.dumps({
                    "run": run_id, "id": sid, "name": self.layers[idx].name,
                    "start": start - t0, "end": end - t0, "parent": parent,
                }) + "\n")
