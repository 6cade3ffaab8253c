"""In-process tracing of polarrep from outside the package.

``Tracer.install`` wraps the ``Poly`` methods, ``SturmSequence.__init__`` and
every public function of the polarrep modules (plus ``cli._emit``).  The
modules import each other with ``from .x import y``, so each wrapper is
installed under every module-level name that refers to the original
function, not only where it is defined.  ``uninstall`` puts the originals
back.

Each call becomes one span (name, start, end, parent, tag) kept in memory.
Self time is a span's duration minus the time its children cover.  A tag is
a small value read from the call's arguments or result (a degree, a batch
size, a verdict) that the per-layer metrics need.  The work of computing a
tag is excluded from every span by a clock that stops while it runs.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("poly", "channel_algebra", "patterns", "effective_channels",
           "search", "proofcheck", "codec", "cli")


def _poly_size(*polys) -> tuple[int, int]:
    """Largest degree and largest numerator or denominator bit length."""
    degree = max(p.degree for p in polys)
    bits = max(
        (max(c.numerator.bit_length(), c.denominator.bit_length())
         for p in polys for c in p.coeffs),
        default=0,
    )
    return degree, bits


#: Span name -> tag(args, kwargs, result), evaluated after a successful call.
TAGS = {
    "poly.Poly.mul": lambda a, kw, r: _poly_size(r),
    "poly.Poly.evaluate": lambda a, kw, r: _poly_size(a[0]),
    "poly.Poly.divmod": lambda a, kw, r: _poly_size(*r),
    "poly.Poly.compose": lambda a, kw, r: _poly_size(r),
    "search.best_assignment": lambda a, kw, r: r.candidates_evaluated,
    "proofcheck.certify_gain": lambda a, kw, r: r.r,
    "proofcheck.certify_difference": lambda a, kw, r: len(json.dumps(r.to_json_dict())),
    "proofcheck.certify_dominance": lambda a, kw, r: r,
    "codec.design_code": lambda a, kw, r: r.m,
    "codec.erasure_flow": lambda a, kw, r: (r.shape[0], a[0].total_len, a[0].m),
    "codec.exact_erasure_oracle": lambda a, kw, r: a[0].total_len,
}

POLY_METHODS = {"__mul__": "mul", "evaluate": "evaluate", "divmod": "divmod",
                "compose": "compose"}


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []
        self._paused = 0.0
        self._undo: list = []

    def clock(self) -> float:
        return perf_counter() - self._paused

    def wrap(self, name: str, fn):
        spans, stack, tag_of = self.spans, self._stack, TAGS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, None)
            if tag_of is not None:
                t0 = perf_counter()
                spans[idx] = (name, start, end, parent, tag_of(args, kwargs, result))
                self._paused += perf_counter() - t0
            return result

        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        mods = {m: importlib.import_module(f"polarrep.{m}") for m in MODULES}
        poly = mods["poly"]
        for attr, short in POLY_METHODS.items():
            self._patch(poly.Poly, attr, self.wrap(f"poly.Poly.{short}", getattr(poly.Poly, attr)))
        self._patch(poly.SturmSequence, "__init__",
                    self.wrap("poly.SturmSequence", poly.SturmSequence.__init__))
        for short, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if not (inspect.isfunction(fn) and fn.__module__ == mod.__name__):
                    continue
                if attr.startswith("_") and attr != "_emit":
                    continue
                traced = self.wrap(f"{short}.{attr}", fn)
                for other in mods.values():
                    if vars(other).get(attr) is fn:
                        self._patch(other, attr, traced)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def reset(self) -> list:
        """Hand over the spans recorded so far and start an empty list."""
        spans, self.spans = self.spans, []
        return spans


class Summary:
    """Per-name call counts, inclusive and self times of one pass's spans."""

    def __init__(self, spans: list) -> None:
        self.spans = spans
        covered = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        self.calls: Counter = Counter()
        self.incl: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(spans):
            self.calls[name] += 1
            self.incl[name] += end - start
            self.self_s[name] += end - start - covered[i]

    def _has_ancestor(self, i: int, names: set[str]) -> bool:
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] in names:
                return True
            parent = self.spans[parent][3]
        return False

    def outermost_s(self, *names: str) -> float:
        """Wall time inside any of ``names``, counting nested calls once."""
        wanted = set(names)
        return sum(
            s[2] - s[1]
            for i, s in enumerate(self.spans)
            if s[0] in wanted and not self._has_ancestor(i, wanted)
        )

    def under(self, name: str, ancestor: str) -> list:
        """The spans of ``name`` that run inside a call of ``ancestor``."""
        return [s for i, s in enumerate(self.spans)
                if s[0] == name and self._has_ancestor(i, {ancestor})]

    def tags(self, name: str) -> list:
        return [s[4] for s in self.spans if s[0] == name and s[4] is not None]

    def incl_where(self, name: str, tag) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[0] == name and s[4] == tag)

    def self_prefix(self, prefix: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.startswith(prefix))


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def _sampled_flow(s: Summary, m: int | None = None) -> tuple[float, int, int]:
    """Seconds, patterns and pattern-symbols of the ``erasure_flow`` calls
    made by ``monte_carlo`` (at ``m`` only, if given); the exhaustive oracle's
    calls are left out."""
    spans = [sp for sp in s.under("codec.erasure_flow", "codec.monte_carlo")
             if m is None or sp[4][2] == m]
    return (sum(sp[2] - sp[1] for sp in spans), sum(sp[4][0] for sp in spans),
            sum(sp[4][0] * sp[4][1] for sp in spans))


def _poly_max(s: Summary, which: int) -> int:
    return max(
        (tag[which] for name in ("poly.Poly.mul", "poly.Poly.evaluate",
                                 "poly.Poly.divmod", "poly.Poly.compose")
         for tag in s.tags(name)),
        default=0,
    )


#: Per-layer metric -> (unit, value from one traced pass).  Metrics whose unit
#: is in COUNT_UNITS are exact counts and must repeat between passes.
LAYER_METRICS = {
    "poly.mul_calls": ("count", lambda s: s.calls["poly.Poly.mul"]),
    "poly.mul_self_s": ("s", lambda s: s.self_s["poly.Poly.mul"]),
    "poly.eval_calls": ("count", lambda s: s.calls["poly.Poly.evaluate"]),
    "poly.eval_self_s": ("s", lambda s: s.self_s["poly.Poly.evaluate"]),
    "poly.divmod_calls": ("count", lambda s: s.calls["poly.Poly.divmod"]),
    "poly.divmod_self_s": ("s", lambda s: s.self_s["poly.Poly.divmod"]),
    "poly.sturm_chains": ("count", lambda s: s.calls["poly.SturmSequence"]),
    "poly.sturm_s": ("s", lambda s: s.outermost_s("poly.SturmSequence", "poly.count_roots_in")),
    "poly.max_degree": ("degree", lambda s: _poly_max(s, 0)),
    "poly.max_coeff_bits": ("bits", lambda s: _poly_max(s, 1)),
    "channel_algebra.synthetic_channel_calls":
        ("count", lambda s: s.calls["channel_algebra.standard_synthetic_channel"]),
    "channel_algebra.self_s": ("s", lambda s: s.self_prefix("channel_algebra.")),
    "patterns.self_s": ("s", lambda s: s.self_prefix("patterns.")),
    "effective_channels.assignment_calls":
        ("count", lambda s: s.calls["effective_channels.assignment_erasures"]),
    "effective_channels.assignment_s":
        ("s", lambda s: s.incl["effective_channels.assignment_erasures"]),
    "effective_channels.us_per_candidate":
        ("us", lambda s: _ratio(s.incl["effective_channels.assignment_erasures"],
                                s.calls["effective_channels.assignment_erasures"], 1e6)),
    "effective_channels.regular_block_calls":
        ("count", lambda s: s.calls["effective_channels.regular_block_erasures"]),
    "effective_channels.regular_block_s":
        ("s", lambda s: s.incl["effective_channels.regular_block_erasures"]),
    "search.candidates": ("count", lambda s: sum(s.tags("search.best_assignment"))),
    "search.rank_self_s": ("s", lambda s: s.self_s["search.best_assignment"]),
    "search.dominance_attempts": ("count", lambda s: s.calls["proofcheck.certify_dominance"]),
    "search.dominance_certified_ratio":
        ("1", lambda s: _ratio(s.tags("proofcheck.certify_dominance").count("certified"),
                               s.calls["proofcheck.certify_dominance"])),
    "proofcheck.gain_calls": ("count", lambda s: s.calls["proofcheck.certify_gain"]),
    "proofcheck.gain_s": ("s", lambda s: s.incl["proofcheck.certify_gain"]),
    "proofcheck.gain_t4_s": ("s", lambda s: s.incl_where("proofcheck.certify_gain", 16)),
    "proofcheck.dominance_calls": ("count", lambda s: s.calls["proofcheck.certify_dominance"]),
    "proofcheck.dominance_s": ("s", lambda s: s.incl["proofcheck.certify_dominance"]),
    "proofcheck.sturm_chains_per_certificate":
        ("1", lambda s: _ratio(len(s.under("poly.SturmSequence", "proofcheck.certify_difference")),
                               s.calls["proofcheck.certify_difference"])),
    "proofcheck.witness_bytes": ("B", lambda s: sum(s.tags("proofcheck.certify_difference"))),
    "codec.design_m12_s": ("s", lambda s: s.incl_where("codec.design_code", 12)),
    "codec.design_m10_s": ("s", lambda s: s.incl_where("codec.design_code", 10)),
    "codec.synthetic_values_calls": ("count", lambda s: s.calls["codec.synthetic_erasure_values"]),
    "codec.synthetic_values_s": ("s", lambda s: s.incl["codec.synthetic_erasure_values"]),
    "codec.monte_carlo_s": ("s", lambda s: s.incl["codec.monte_carlo"]),
    "codec.erasure_flow_s": ("s", lambda s: _sampled_flow(s)[0]),
    "codec.flow_patterns": ("count", lambda s: _sampled_flow(s)[1]),
    "codec.flow_us_per_pattern": ("us", lambda s: _ratio(*_sampled_flow(s, 10)[:2], 1e6)),
    "codec.flow_ns_per_pattern_symbol":
        ("ns", lambda s: _ratio(_sampled_flow(s)[0], _sampled_flow(s)[2], 1e9)),
    "codec.oracle_s": ("s", lambda s: s.incl["codec.exact_erasure_oracle"]),
    "codec.oracle_us_per_pattern":
        ("us", lambda s: _ratio(s.incl["codec.exact_erasure_oracle"],
                                sum(1 << n for n in s.tags("codec.exact_erasure_oracle")), 1e6)),
    "cli.self_s": ("s", lambda s: s.self_prefix("cli.cmd_")),
    "cli.emit_s": ("s", lambda s: s.incl["cli._emit"]),
}

COUNT_UNITS = {"count", "degree", "bits", "B"}


def layer_metrics(passes: list[list]) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Per-layer metrics over traced passes: counts from the first pass
    (with the names of any count that did not repeat), times as medians."""
    summaries = [Summary(spans) for spans in passes]
    out, unsteady = {}, []
    for name, (unit, value_of) in LAYER_METRICS.items():
        values = [value_of(s) for s in summaries]
        if unit in COUNT_UNITS:
            if len(set(values)) > 1:
                unsteady.append(name)
            out[name] = (values[0], unit)
        else:
            out[name] = (statistics.median(values), unit)
    return out, unsteady
