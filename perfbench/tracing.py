"""Outside-in tracing of transcheck's layers.

The tracer wraps public functions by patching their name in every transcheck
module namespace that binds them (``finlang`` binds ``terms.free_vars``,
``encodings`` binds ``pi.explore`` and so on), so that calls between modules
are seen too.  It changes no code under ``src/``.

Two kinds of wrapper:

* a span records name, start, end and parent span, kept in memory until the
  run ends; a recursive call inside an open span of the same name is counted
  but not timed again, so a layer's seconds never count twice;
* a counter only counts calls, for functions called millions of times
  (``free_vars``, ``substitute``, ``denote``) where a span per call would cost
  more memory than the work it measures.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Callable

from transcheck import cli, encodings, finlang, pi, terms

MODULES = (cli, encodings, finlang, pi, terms)

# functions timed with a span, and functions only counted
SPANS = [(cli, "main"), (finlang, "check_valid_upto"), (finlang, "check_correct_wrt"),
         (finlang, "check_preserves"), (finlang, "property_suite"),
         (terms, "check_compositional"), (terms, "is_fvr"),
         (pi, "parse_pi"), (pi, "normal_form"), (pi, "reduce_once"), (pi, "explore"),
         (pi, "bisim"), (pi, "weak_barb"), (encodings, "boudol_translate")]
COUNTERS = [(finlang, "denote"), (terms, "substitute"), (terms, "free_vars"),
            (terms, "canon_key"), (encodings, "plug")]

# the per-layer metrics, named <module>.<function>.<what>
PER_LAYER = (
    "cli.main.calls", "cli.main.s",
    "finlang.check_valid_upto.calls", "finlang.check_valid_upto.s",
    "finlang.check_valid_upto.candidates",
    "finlang.check_correct_wrt.calls", "finlang.check_correct_wrt.s",
    "finlang.check_preserves.s", "finlang.denote.calls", "finlang.property_suite.s",
    "terms.check_compositional.s", "terms.check_compositional.pairs",
    "terms.is_fvr.s", "terms.is_fvr.terms",
    "terms.substitute.calls", "terms.free_vars.calls", "terms.canon_key.calls",
    "terms.enumerate_terms.yielded", "terms.translate.calls", "terms.translate.s",
    "pi.parse_pi.s", "pi.normal_form.calls", "pi.normal_form.s",
    "pi.reduce_once.calls", "pi.reduce_once.s",
    "pi.explore.calls", "pi.explore.s", "pi.explore.states", "pi.explore.edges",
    "pi.explore.states_per_s", "pi.bisim.calls", "pi.bisim.s", "pi.bisim.refine_s",
    "pi.weak_barb.s", "encodings.boudol_translate.s", "encodings.plug.calls",
    "encodings.observe.s",
)

# work counts that must repeat exactly between two traced passes
WORK_COUNTS = ("pi.explore.states", "pi.explore.edges", "finlang.check_valid_upto.candidates",
               "terms.check_compositional.pairs", "terms.is_fvr.terms",
               "terms.substitute.calls", "terms.free_vars.calls", "pi.normal_form.calls")


def _layer(module) -> str:
    return module.__name__.rsplit(".", 1)[1]


class Tracer:
    """Spans and counts for one traced pass; ``install`` patches, ``uninstall``
    restores every original."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._open: set[str] = set()
        self._patches: list[tuple[object, str, object]] = []

    # ----- spans -----

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        self._open.add(name)
        return idx

    def close(self, idx: int) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        self._stack.pop()
        self._open.discard(span[0])

    def span(self, name: str, fn: Callable, on_result: Callable | None = None) -> Callable:
        def wrapper(*args, **kwargs):
            self.counts[f"{name}.calls"] += 1
            if name in self._open:
                return fn(*args, **kwargs)
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if on_result is not None:
                on_result(result)
            return result
        return wrapper

    def counter(self, name: str, fn: Callable) -> Callable:
        key = f"{name}.calls"

        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    # ----- patching -----

    def _patch(self, original: object, wrapper: object) -> None:
        """Rebind every module-level name bound to original."""
        for module in MODULES:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        def graph_counts(g) -> None:
            self.counts["pi.explore.states"] += len(g.states)
            self.counts["pi.explore.edges"] += sum(len(e) for e in g.edges.values())

        extra = {
            "pi.explore": graph_counts,
            "terms.check_compositional":
                lambda v: self.counts.update({"terms.check_compositional.pairs": v.checked}),
            "terms.is_fvr": lambda v: self.counts.update({"terms.is_fvr.terms": v.checked}),
        }
        for module, fname in SPANS:
            name = f"{_layer(module)}.{fname}"
            fn = getattr(module, fname)
            self._patch(fn, self.span(name, fn, extra.get(name)))
        for module, fname in COUNTERS:
            fn = getattr(module, fname)
            self._patch(fn, self.counter(f"{_layer(module)}.{fname}", fn))

        enumerate_terms = terms.enumerate_terms

        def counted_enumeration(*args, **kwargs):
            for t in enumerate_terms(*args, **kwargs):
                self.counts["terms.enumerate_terms.yielded"] += 1
                yield t
        self._patch(enumerate_terms, counted_enumeration)

        # the translation function is a closure made per head map
        complete = terms.complete_compositional

        def traced_completion(*args, **kwargs):
            return self.span("terms.translate", complete(*args, **kwargs))
        self._patch(complete, traced_completion)

        observe = encodings.ContextProbe.observe
        self._patches.append((encodings.ContextProbe, "observe", observe))
        encodings.ContextProbe.observe = self.span("encodings.observe", observe)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ----- per-layer metrics -----

    def seconds(self, name: str) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[0] == name)

    def metrics(self, scale: float = 1.0) -> dict[str, float]:
        """The PER_LAYER metrics of this pass, every time multiplied by scale."""
        out: dict[str, float] = {}
        c = self.counts
        for module, fname in SPANS:
            name = f"{_layer(module)}.{fname}"
            out[f"{name}.calls"] = c[f"{name}.calls"]
            out[f"{name}.s"] = self.seconds(name)
        for module, fname in COUNTERS:
            out[f"{_layer(module)}.{fname}.calls"] = c[f"{_layer(module)}.{fname}.calls"]
        for name in ("terms.translate", "encodings.observe"):
            out[f"{name}.calls"] = c[f"{name}.calls"]
            out[f"{name}.s"] = self.seconds(name)
        for key in ("terms.enumerate_terms.yielded", "terms.check_compositional.pairs",
                    "terms.is_fvr.terms", "pi.explore.states", "pi.explore.edges"):
            out[key] = c[key]
        # candidates: check_correct_wrt calls made inside check_valid_upto;
        # refine_s: bisim time outside its child explore spans
        names = [s[0] for s in self.spans]
        candidates = 0
        refine = 0.0
        for name, start, end, parent in self.spans:
            if name == "finlang.check_correct_wrt":
                p = parent
                while p >= 0 and names[p] != "finlang.check_valid_upto":
                    p = self.spans[p][3]
                candidates += p >= 0
            elif name == "pi.bisim":
                refine += end - start
            elif name == "pi.explore" and parent >= 0 and names[parent] == "pi.bisim":
                refine -= end - start
        out["finlang.check_valid_upto.candidates"] = candidates
        out["pi.bisim.refine_s"] = refine
        for k in out:
            if k.endswith((".s", "_s")):
                out[k] *= scale
        out["pi.explore.states_per_s"] = (c["pi.explore.states"] / out["pi.explore.s"]
                                          if out["pi.explore.s"] else 0.0)
        return {k: out[k] for k in PER_LAYER}

    def write(self, path) -> None:
        """Spans as tab-separated rows: index, parent, name, start, end."""
        with open(path, "w") as f:
            f.write("index\tparent\tname\tstart\tend\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                f.write(f"{i}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\n")


def self_check(a: dict[str, float], b: dict[str, float]) -> list[str]:
    """Work counts of two traced passes that differ (empty when they agree)."""
    return [f"{k}: {a[k]} != {b[k]}" for k in WORK_COUNTS if a[k] != b[k]]
