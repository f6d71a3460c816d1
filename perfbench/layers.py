"""Per-layer spans and counters, recorded from outside the package.

`Tracer.install` rebinds selected hypercov functions, in every hypercov
module that holds them, to wrappers that record a span (layer, function,
start, end, parent span, invocation id) and a few counters taken from
the call's arguments and return value. Nothing under `src/` changes.
Spans stay in memory; `write_spans` stores them once, at the end of a
run, and `layer_metrics` derives self times (span minus child spans)
and totals from them.
"""

from __future__ import annotations

import inspect
import json
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable

# A hook maps (bound arguments, return value) to counters for the span.
Hook = Callable[[inspect.BoundArguments, Any], dict]


def _perm_counts(args: inspect.BoundArguments, result: Any) -> dict:
    return {"perm_rows": result.size // args.arguments["n"], "perm_keys": result.size}


def _key_counts(args: inspect.BoundArguments, result: Any) -> dict:
    keys = result[0]
    return {"keys": keys.shape[0], "row_keys": keys.shape[0] if keys.ndim == 2 else 0}


def _coverage_counts(args: inspect.BoundArguments, result: Any) -> dict:
    return {
        "k_terms": args.arguments["k"],
        "result_bits": result.numerator.bit_length() + result.denominator.bit_length(),
    }


# (module, function, layer, counter hook). The functions are the names
# other modules look up, so the wrappers see every call across a layer
# boundary; `_keys_for_target` is wrapped only for its key counts.
WRAPPED: tuple[tuple[str, str, str, Hook | None], ...] = (
    ("cli", "main", "cli", None),
    ("rng", "permutations_from_seeds", "rng", _perm_counts),
    ("sampling", "points_batch", "sampling", lambda a, r: {"trials": r.shape[0]}),
    ("simulate", "simulate_coverage", "simulate", None),
    ("simulate", "coverage_curve", "simulate", lambda a, r: {"curve_trials": a.arguments["k"]}),
    ("simulate", "_keys_for_target", "simulate", _key_counts),
    ("exact", "expected_coverage_multiset", "exact", _coverage_counts),
    ("exact", "expected_intersection", "exact", None),
    ("exact", "kind_params", "exact", lambda a, r: {"kind_params_calls": 1}),
    ("laws", "bracket_exact_vs_asymptotic", "laws", None),
    ("laws", "lambda_for", "laws", None),
    ("laws", "error_bounds", "laws", None),
    ("oracle", "default_verification_suite", "oracle", None),
    ("oracle", "enumerate_trials", "oracle", lambda a, r: {"trials_enumerated": len(r.trials)}),
    ("oracle", "oracle_expected_coverage", "oracle", None),
    ("oracle", "oracle_expected_intersection", "oracle", None),
    ("sweep", "run_sweep", "sweep", None),
    ("sweep", "closed_form_k", "sweep", None),
    ("sweep", "simulated_k", "sweep", lambda a, r: {"trials_used": a.arguments["reps"] * r}),
    ("sweep", "full_coverage_k", "sweep", lambda a, r: {"trials_used": round(a.arguments["reps"] * r)}),
)


@dataclass
class Span:
    layer: str
    name: str
    start: float
    parent: int | None
    invocation: int
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans while installed; one tracer per traced pass."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.invocation = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, name: str, fn: Callable, hook: Hook | None) -> Callable:
        sig = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(layer, name, time.perf_counter(), parent, self.invocation)
            self.spans.append(span)
            self._stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                span.counts = hook(sig.bind(*args, **kwargs), result)
            return result

        return wrapper

    def install(self) -> None:
        """Rebind each wrapped function wherever a hypercov module holds it."""
        modules = [m for n, m in sys.modules.items() if n == "hypercov" or n.startswith("hypercov.")]
        for mod_name, fn_name, layer, hook in WRAPPED:
            fn = getattr(sys.modules[f"hypercov.{mod_name}"], fn_name)
            wrapper = self._wrap(layer, f"{mod_name}.{fn_name}", fn, hook)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._saved.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()


def write_spans(path, passes: list[list[Span]]) -> None:
    """Write the spans of every traced pass as JSON lines."""
    with open(path, "w", encoding="utf-8") as fh:
        for number, spans in enumerate(passes, start=1):
            for sid, s in enumerate(spans):
                row = {
                    "pass": number,
                    "id": sid,
                    "layer": s.layer,
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    "parent": s.parent,
                    "invocation": s.invocation,
                    **s.counts,
                }
                fh.write(json.dumps(row) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s.seconds for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.seconds
    return own


def _has_ancestor(spans: list[Span], s: Span, test: Callable[[Span], bool]) -> bool:
    while s.parent is not None:
        s = spans[s.parent]
        if test(s):
            return True
    return False


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer numbers for one traced pass, keyed as in BENCHMARK.json."""
    own = self_times(spans)
    self_s: dict[str, float] = {}
    for s, t in zip(spans, own):
        self_s[s.layer] = self_s.get(s.layer, 0.0) + t

    def total(pred: Callable[[Span], bool]) -> float:
        return sum((s.seconds for s in spans if pred(s)), 0.0)

    def count(key: str, pred: Callable[[Span], bool] = lambda s: True) -> int:
        return sum(s.counts.get(key, 0) for s in spans if pred(s))

    def outermost(layer: str) -> Callable[[Span], bool]:
        return lambda s: s.layer == layer and not _has_ancestor(spans, s, lambda p: p.layer == layer)

    def under(layer: str) -> Callable[[Span], bool]:
        return lambda s: _has_ancestor(spans, s, lambda p: p.layer == layer)

    exact_top = outermost("exact")
    drawn = count("curve_trials", under("sweep"))
    used = count("trials_used")
    return {
        "cli.self_s": self_s.get("cli", 0.0),
        "rng.perm_s": self_s.get("rng", 0.0),
        "rng.perm_rows": count("perm_rows"),
        "rng.perm_keys": count("perm_keys"),
        "sampling.self_s": self_s.get("sampling", 0.0),
        "sampling.trials": count("trials"),
        "simulate.self_s": self_s.get("simulate", 0.0),
        "simulate.keys": count("keys"),
        "simulate.row_keys": count("row_keys"),
        "simulate.curve_s": total(lambda s: s.name == "simulate.coverage_curve"),
        "exact.coverage_s": total(lambda s: s.name == "exact.expected_coverage_multiset" and exact_top(s)),
        "exact.in_simulate_s": total(lambda s: exact_top(s) and under("simulate")(s)),
        "exact.k_terms": count("k_terms"),
        "exact.result_bits": count("result_bits"),
        "exact.kind_params_calls": count("kind_params_calls"),
        "laws.self_s": self_s.get("laws", 0.0),
        "oracle.s": total(outermost("oracle")),
        "oracle.trials_enumerated": count("trials_enumerated"),
        "sweep.self_s": self_s.get("sweep", 0.0),
        "sweep.closed_form_s": total(lambda s: s.name == "sweep.closed_form_k"),
        "sweep.trials_drawn": drawn,
        "sweep.trials_used": used,
        "sweep.useful_ratio": used / drawn if drawn else 0.0,
    }


def invocation_shares(spans: list[Span]) -> dict[int, dict[str, float]]:
    """Self seconds per layer for each invocation, for the trace report."""
    out: dict[int, dict[str, float]] = {}
    for s, t in zip(spans, self_times(spans)):
        layers = out.setdefault(s.invocation, {})
        layers[s.layer] = layers.get(s.layer, 0.0) + t
    return out


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over traced passes; counts, which repeat
    exactly, stay whole numbers."""
    out = {}
    for key, first in passes[0].items():
        values = [p[key] for p in passes]
        out[key] = statistics.median_low(values) if isinstance(first, int) else statistics.median(values)
    return out
