"""Spans and work counts around the public functions of each coverramsey
module, recorded from outside the package.

Every wrapped name is replaced in each coverramsey module that holds it,
because the modules import one another's functions by name.  Calls made
inside `--jobs` worker processes run in other interpreters and are not
seen here; for the sharded search only the parent-side span and the
result's `colorings_examined` are reported.
"""

import functools
import gzip
import json
import sys
import time
from collections import defaultdict
from math import comb

SUBCOMMANDS = ("unavoidable", "gen-design", "mt-lll", "certify-lower",
               "find-berge", "scatter", "reduce-product", "verify", "bound")


def _count_unavoidable(tr, name, args, kwargs, result):
    tr.counts[name + ".colorings_examined"] += result.colorings_examined


def _count_find_berge(tr, name, args, kwargs, result):
    tr.counts[name + ".found"] += result is not None


def _count_scan(tr, name, args, kwargs, result):
    hg, _, t = args[:3]
    tr.counts[name + ".events"] += len(result)
    tr.counts[name + ".sets_scanned"] += comb(hg.n, t)


def _count_mt(tr, name, args, kwargs, result):
    tr.counts[name + ".resamples"] += result.resamples


def _count_sample(tr, name, args, kwargs, result):
    if result is None:  # every attempt failed; 1000 is the library default
        tr.counts[name + ".attempts"] += kwargs.get("max_attempts", 1000)
    else:
        tr.counts[name + ".attempts"] += result.attempts
        tr.counts[name + ".accepted"] += 1


def _count_trials(tr, name, args, kwargs, result):
    rejected, trials = result
    tr.counts[name + ".trials"] += trials
    tr.counts[name + ".rejected"] += rejected


def _count_main(tr, name, args, kwargs, result):
    tr.counts[name + ".nonzero_exits"] += result != 0


# (module, attribute, counter hook); methods are "Class.method".
WRAPPED = (
    ("cli", "main", _count_main),
    ("hypergraph", "parse_hypergraph", None),
    ("hypergraph", "format_hypergraph", None),
    ("hypergraph", "check_coloring", None),
    ("hypergraph", "Hypergraph.pair_edges", None),
    ("hypergraph", "EdgeColoring.__init__", None),
    ("berge", "find_berge", _count_find_berge),
    ("berge", "contains_mono_berge", None),
    ("berge", "matching_for_assignment", None),
    ("berge", "verify_certificate", None),
    ("search", "unavoidable", _count_unavoidable),
    ("search", "unavoidable_sharded", _count_unavoidable),
    ("search", "scan_bad_events", _count_scan),
    ("search", "moser_tardos_coloring", _count_mt),
    ("search", "lower_bound_certificate", None),
    ("designs", "construct_resolvable_bibd", None),
    ("designs", "verify_resolvable_bibd", None),
    ("designs", "format_design", None),
    ("designs", "parse_design", None),
    ("reductions", "sample_scattered_subset", _count_sample),
    ("reductions", "scatter_rejection_trials", _count_trials),
    ("reductions", "trace_coloring", None),
    ("reductions", "multicolor_product_reduction", None),
    ("reductions", "find_mono_subgraph", None),
    ("reductions", "lift_mono_subgraph", None),
    ("reductions", "lift_trace_subgraph", None),
    ("bounds", "lll_threshold_n", None),
)

# Span names that differ from "<module>.<attribute>".
SPAN_NAMES = {"hypergraph.Hypergraph.pair_edges": "hypergraph.pair_edges",
              "hypergraph.EdgeColoring.__init__": "hypergraph.EdgeColoring"}


def _layer_metrics():
    """Every per-layer metric name, in report order."""
    names = []
    for mod, attr, _ in WRAPPED:
        span = SPAN_NAMES.get(f"{mod}.{attr}", f"{mod}.{attr}")
        names += [span + ".calls", span + ".s"]
    names += ["cli.main.self_s", "cli.main.nonzero_exits"]
    names += [f"cli.{sub}.s" for sub in SUBCOMMANDS]
    names += ["berge.find_berge.self_s", "berge.find_berge.found_ratio",
              "search.unavoidable.self_s",
              "search.unavoidable.colorings_examined",
              "search.unavoidable_sharded.colorings_examined",
              "hypergraph.EdgeColoring.created",
              "search.scan_bad_events.events",
              "search.scan_bad_events.sets_scanned",
              "search.moser_tardos_coloring.resamples",
              "reductions.sample_scattered_subset.attempts",
              "reductions.sample_scattered_subset.accept_ratio",
              "reductions.scatter_rejection_trials.trials",
              "reductions.scatter_rejection_trials.rejected",
              "trace.overhead_ratio"]
    # EdgeColoring reports constructions as "created", not "calls"; the
    # other dropped call counts are fixed by the instance list.
    drop = {"hypergraph.EdgeColoring.calls",
            "search.unavoidable_sharded.calls",
            "search.moser_tardos_coloring.calls",
            "designs.format_design.calls", "designs.parse_design.calls"}
    return [n for n in names if n not in drop]


LAYER_METRICS = _layer_metrics()

COUNT_SUFFIXES = (".calls", ".created", ".nonzero_exits",
                  ".colorings_examined", ".events", ".sets_scanned",
                  ".resamples", ".attempts", ".trials", ".rejected")


def metric_unit(name):
    if name.endswith((".s", ".self_s")):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


class Tracer:
    """Spans `(name, start, end, parent, instance)` kept in memory, plus
    work counts taken from the wrapped calls' arguments and results."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.instance = None
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            index = len(tracer.spans)
            tracer.spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans[index] = (name, start, end, parent,
                                       tracer.instance)
            if hook is not None:
                hook(tracer, name, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Replace every wrapped function in every coverramsey module that
        binds it, and the `cmd_*` subcommand handlers of the CLI."""
        modules = {n: m for n, m in sys.modules.items()
                   if n == "coverramsey" or n.startswith("coverramsey.")}
        targets = []
        for mod, attr, hook in WRAPPED:
            owner = modules["coverramsey." + mod]
            span = SPAN_NAMES.get(f"{mod}.{attr}", f"{mod}.{attr}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner, attr = getattr(owner, cls_name), meth
            targets.append((owner, attr, span, hook))
        cli = modules["coverramsey.cli"]
        for sub in SUBCOMMANDS:
            targets.append((cli, "cmd_" + sub.replace("-", "_"),
                            f"cli.{sub}", None))
        for owner, attr, span, hook in targets:
            original = owner.__dict__[attr]
            wrapped = self._wrap(span, original, hook)
            holders = [owner] if isinstance(owner, type) else modules.values()
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapped)
                        self._undo.append((holder, key, original))

    def uninstall(self):
        for holder, key, original in reversed(self._undo):
            setattr(holder, key, original)
        self._undo.clear()

    def reset(self):
        self.spans.clear()
        self.counts.clear()

    def metrics(self):
        """Per-name calls, inclusive and self time, plus the counts."""
        calls = defaultdict(int)
        incl = defaultdict(float)
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            calls[name] += 1
            incl[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_s = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] += end - start - child[i]
        out = {}
        for metric in LAYER_METRICS:
            span, _, field = metric.rpartition(".")
            if field in ("calls", "created"):
                out[metric] = calls[span]
            elif field == "s":
                out[metric] = incl[span]
            elif field == "self_s":
                out[metric] = self_s[span]
            elif field == "found_ratio":
                out[metric] = (self.counts[span + ".found"] / calls[span]
                               if calls[span] else 0.0)
            elif field == "accept_ratio":
                tried = self.counts[span + ".attempts"]
                out[metric] = (self.counts[span + ".accepted"] / tried
                               if tried else 0.0)
            elif metric != "trace.overhead_ratio":
                out[metric] = self.counts[metric]
        return out

    def write_spans(self, path):
        """Spans as gzip'd JSON lines: name, start, end, parent, instance."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def count_metrics(metrics):
    return {k: v for k, v in metrics.items() if k.endswith(COUNT_SUFFIXES)}
