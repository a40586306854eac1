"""Spans around the public functions of each cylgalton module.

``Tracer.install`` replaces every public function of the layer modules
at every import site, including the defining module itself, because
``cli`` and ``diagnostics`` bind functions such as ``simulate`` and
``full_pmf`` by name.  Spans are kept in memory as
``(name, start, end, parent)``; a span's self time is its duration
minus the durations of its direct children.  Counters record work done
at the same boundaries.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "cylgalton"
LAYERS = ("walk_sim", "wrapped_binomial", "wrapped_normal", "diagnostics",
          "angular", "geometry", "svgplot", "cli")

# wrapped_binomial entry points that need the whole slot law of their argument.
_LAW_FUNCTIONS = ("full_pmf", "tv_to_uniform", "pmf")


def _count(name: str, args: tuple, result, counts: Counter, laws: set) -> None:
    """Work counters for the calls whose size the span name does not show."""
    module, func = name.split(".", 1)
    if name == "walk_sim.simulate":
        counts["walk_sim.ball_rows"] += args[0].balls * args[0].n
    elif module == "wrapped_binomial" and func in _LAW_FUNCTIONS:
        wb = args[0]
        counts["wrapped_binomial.calls"] += 1
        counts["wrapped_binomial.terms_requested"] += wb.n + 1
        laws.add((wb.n, wb.M, wb.p))
    elif name == "wrapped_normal.density":
        theta = args[1]
        counts["wrapped_normal.density.points"] += getattr(theta, "size", 1)
    elif name == "geometry.build_lattice":
        counts["geometry.pegs"] += len(result)
    elif name == "geometry.export_pegs":
        counts["geometry.bytes_out"] += len(result)
    elif module == "svgplot":
        counts["svgplot.bytes_out"] += len(result.encode("utf-8"))


class Tracer:
    """Collects spans and counters while installed."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter = Counter()
        self.laws: set = set()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.names: list[str] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append((name, 0.0, 0.0, parent))
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            _count(name, args, result, self.counts, self.laws)
            return result

        traced.span_name = name
        return traced

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, fn in vars(module).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == module.__name__):
                    wrappers[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        self.names = sorted(w.span_name for w in wrappers.values())
        sites = [m for key, m in list(sys.modules.items())
                 if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for site in sites:
            for attr, value in list(vars(site).items()):
                if id(value) in wrappers:
                    self._patched.append((site, attr, value))
                    setattr(site, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        for site, attr, original in reversed(self._patched):
            setattr(site, attr, original)
        self._patched.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.laws.clear()

    def self_times(self) -> tuple[dict[str, float], dict[str, float], Counter]:
        """Per span name: summed self time, summed total time, call count."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for i, (name, start, end, _) in enumerate(self.spans):
            self_s[name] += end - start - child[i]
            total_s[name] += end - start
            calls[name] += 1
        return self_s, total_s, calls
