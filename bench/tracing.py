"""Spans around the public functions of ppda, recorded from outside the package.

``install()`` wraps each traced function at the place where its callers
look it up: every module attribute of ``ppda`` bound to the function (so
``pctl.explore``, ``oracle.certify``, ``cli.parse_model`` and the like,
which were imported by name, are covered) and, for methods, the class
attribute. Each call appends one span (name, parent, start, end) to arrays
kept in memory; ``summary()`` derives call counts, total time and self
time (a span's duration minus its child spans) per name and op, and
``write_spans()`` writes the raw spans out when the run ends.

A few wrappers also count what the call returned or touched: states
settled and left on the frontier by ``explore``, states and label sets a
generator computed for the first time, and whether an until-probability
came back as a point and how long the denominators grew.

Importing this module has no effect on ppda; only ``install()`` does.
"""
from __future__ import annotations

import functools
import json
import sys
import weakref
from array import array
from pathlib import Path

# Every per-layer metric the traced run reports, with its unit. Counts and
# seconds are per op, since a faster program completes more ops in a run
# of fixed length; seconds are host-calibrated like the end-to-end times.
LAYER_METRICS = (
    ("chain.explore.calls", "count/op"),
    ("chain.explore.self_s", "s/op"),
    ("chain.explore.settled", "count/op"),
    ("chain.explore.frontier", "count/op"),
    ("chain.successors.calls", "count/op"),
    ("chain.successors.new", "count/op"),
    ("chain.labels.new", "count/op"),
    ("pushdown.step.calls", "count/op"),
    ("pushdown.step.s", "s/op"),
    ("pushdown.parse_model.s", "s/op"),
    ("pushdown.induced_chain.s", "s/op"),
    ("pctl.parse_formula.s", "s/op"),
    ("pctl.eval_state.calls", "count/op"),
    ("pctl.prob_next.calls", "count/op"),
    ("pctl.prob_until.calls", "count/op"),
    ("pctl.prob_until.self_s", "s/op"),
    ("pctl.prob_until.point_ratio", "ratio"),
    ("pctl.interval.den_bits_max", "bits"),
    ("reduction.compile_instance.calls", "count/op"),
    ("reduction.compile_instance.s", "s/op"),
    ("reduction.certify.calls", "count/op"),
    ("reduction.certify.self_s", "s/op"),
    ("reduction.instantiate_top_formula.s", "s/op"),
    ("oracle.brute_force_pcp.s", "s/op"),
    ("oracle.search_via_reduction.s", "s/op"),
    ("cli.main.calls", "count/op"),
    ("cli.main.self_s", "s/op"),
)
# Not divided by the op count.
_PER_RUN = {"pctl.prob_until.point_ratio", "pctl.interval.den_bits_max"}

# (span name, module, function) for module-level functions.
FUNCTIONS = (
    ("chain.explore", "ppda.chain", "explore"),
    ("pushdown.step", "ppda.pushdown", "step"),
    ("pushdown.parse_model", "ppda.pushdown", "parse_model"),
    ("pushdown.induced_chain", "ppda.pushdown", "induced_chain"),
    ("pctl.parse_formula", "ppda.pctl", "parse_formula"),
    ("reduction.compile_instance", "ppda.reduction", "compile_instance"),
    ("reduction.certify", "ppda.reduction", "certify"),
    ("reduction.instantiate_top_formula", "ppda.reduction", "instantiate_top_formula"),
    ("oracle.brute_force_pcp", "ppda.oracle", "brute_force_pcp"),
    ("oracle.search_via_reduction", "ppda.oracle", "search_via_reduction"),
    ("cli.main", "ppda.cli", "main"),
)

# (span name, module, class, method).
METHODS = (
    ("chain.successors", "ppda.chain", "ChainGenerator", "successors"),
    ("chain.labels", "ppda.chain", "ChainGenerator", "labels"),
    ("pctl.eval_state", "ppda.pctl", "Evaluator", "eval_state"),
    ("pctl.prob_next", "ppda.pctl", "Evaluator", "prob_next"),
    ("pctl.prob_until", "ppda.pctl", "Evaluator", "prob_until"),
)


class Tracer:
    def __init__(self, clock) -> None:
        self.clock = clock
        self.names: list[str] = []
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.open = [-1]
        self.counts = dict.fromkeys(
            ("chain.explore.settled", "chain.explore.frontier", "chain.successors.new",
             "chain.labels.new", "pctl.prob_until.points", "pctl.interval.den_bits_max"), 0)
        self._seen_states = weakref.WeakKeyDictionary()
        self._seen_labels = weakref.WeakKeyDictionary()

    def wrap(self, name: str, fn, before=None, after=None):
        name_id = len(self.names)
        self.names.append(name)
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end
        stack = self.open
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            index = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    # Hooks ------------------------------------------------------------

    def _explored(self, result) -> None:
        self.counts["chain.explore.settled"] += len(result.settled)
        self.counts["chain.explore.frontier"] += len(result.frontier)

    def _first_time(self, seen, key: str):
        def before(args) -> None:
            gen, state = args[0], args[1]
            states = seen.get(gen)
            if states is None:
                states = seen[gen] = set()
            if state not in states:
                states.add(state)
                self.counts[key] += 1

        return before

    def _interval(self, interval) -> None:
        bits = max(interval.lo.denominator.bit_length(), interval.hi.denominator.bit_length())
        if bits > self.counts["pctl.interval.den_bits_max"]:
            self.counts["pctl.interval.den_bits_max"] = bits

    def _until(self, interval) -> None:
        if interval.lo == interval.hi:
            self.counts["pctl.prob_until.points"] += 1
        self._interval(interval)

    def hooks(self, name: str):
        return {
            "chain.explore": (None, self._explored),
            "chain.successors": (self._first_time(self._seen_states, "chain.successors.new"), None),
            "chain.labels": (self._first_time(self._seen_labels, "chain.labels.new"), None),
            "pctl.prob_next": (None, self._interval),
            "pctl.prob_until": (None, self._until),
        }.get(name, (None, None))

    # Results ----------------------------------------------------------

    def per_name(self) -> dict[str, dict[str, float]]:
        """Calls, total seconds and self seconds for every span name."""
        n = len(self.span_name)
        child = [0.0] * n
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        for i in range(n):
            parent = parents[i]
            if parent >= 0:
                child[parent] += ends[i] - starts[i]
        stats = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            entry = stats[self.names[self.span_name[i]]]
            duration = ends[i] - starts[i]
            entry["calls"] += 1
            entry["s"] += duration
            entry["self_s"] += duration - child[i]
        return stats

    def summary(self, ops: int, factor: float) -> dict[str, float]:
        """Every metric of ``LAYER_METRICS``; seconds are scaled by ``factor``."""
        stats = self.per_name()
        until_calls = stats["pctl.prob_until"]["calls"]
        values = dict(self.counts)
        values["pctl.prob_until.point_ratio"] = (
            self.counts["pctl.prob_until.points"] / until_calls if until_calls else 0.0)
        for span, fields in stats.items():
            values[f"{span}.calls"] = fields["calls"]
            values[f"{span}.s"] = fields["s"] * factor
            values[f"{span}.self_s"] = fields["self_s"] * factor
        missing = [m for m, _ in LAYER_METRICS if m not in values]
        if missing:
            raise KeyError(f"no value for per-layer metrics {missing}")
        return {m: values[m] if m in _PER_RUN else values[m] / ops for m, _ in LAYER_METRICS}

    def write_spans(self, path: Path) -> None:
        """Write the raw spans: a JSON header at ``path``, the arrays beside it.

        The ``.bin`` file holds four native arrays one after another, each
        ``count`` long: name index (uint16), parent span index (int64, -1
        for a root), start and end (float64 seconds of the tracer's clock).
        """
        columns = (self.span_name, self.span_parent, self.span_start, self.span_end)
        data = path.with_suffix(".bin")
        with open(data, "wb") as handle:
            for column in columns:
                column.tofile(handle)
        header = {"names": self.names, "count": len(self.span_name), "data": data.name,
                  "columns": [["name", "H"], ["parent", "l"], ["start_s", "d"], ["end_s", "d"]]}
        path.write_text(json.dumps(header) + "\n", encoding="utf-8")


def install(clock) -> Tracer:
    """Wrap every traced name of an imported ppda; returns the recorder.

    ``clock`` times the spans (the benchmark passes one that leaves out
    its host-speed sampling).
    """
    tracer = Tracer(clock)
    package_modules = [m for name, m in sys.modules.items()
                       if m is not None and (name == "ppda" or name.startswith("ppda."))]
    for span, module_name, attr in FUNCTIONS:
        original = getattr(sys.modules[module_name], attr)
        wrapped = tracer.wrap(span, original, *tracer.hooks(span))
        for module in package_modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
    for span, module_name, cls_name, attr in METHODS:
        cls = getattr(sys.modules[module_name], cls_name)
        setattr(cls, attr, tracer.wrap(span, getattr(cls, attr), *tracer.hooks(span)))
    return tracer
