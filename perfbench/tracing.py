"""Tracing for the benchmark's traced runs, from outside the library.

``Tracer`` wraps every public function and method that the rmfperc layer
modules define, including the names that other modules re-bind with
``from ... import``.  Entry points record spans (name, start, end, parent
span, job id); hot leaves, called per site, key batch or edge, keep only
aggregate counts so that memory stays bounded.  Every wrapped call also
adds to per-name totals: calls, inclusive time, self time and work
counters taken from its result.

Self time is a call's duration minus the time its wrapped children cover.
The benchmark runs one thread, so children never overlap and their cover
is the sum of their durations.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

from checks import bricks_up_to

PACKAGE = "rmfperc"
LAYERS = ("core", "analytic", "tree", "lattice", "bricklayer", "cli")

# hot leaves: these, and every public callable of core
HOT_LEAVES = frozenset({
    "analytic.eigenfunction_eval",
    "analytic.q_theta_eval",
    "bricklayer.BrickId.from_grid",
    "bricklayer.brick_build",
    "bricklayer.brick_good",
    "bricklayer.edge_open",
    "tree.OffspringDistribution.sample",
})

# every command the workloads run, each with a per-job span metric
COMMANDS = (
    "critical", "bounds", "pathbound", "tree-sim", "tree-martingale",
    "lattice-sweep", "lattice-export", "bricklayer", "bricklayer-check",
)


def _size(result) -> int:
    return int(getattr(result, "size", 1))


# work counters read off a call's result, by wrapped name
COUNTERS = {
    "core.LabelField.uniform_array": lambda r: {"sites": len(r)},
    "core.LabelField.key_array": lambda r: {"keys": _size(r)},
    "core.LabelField.derive_key_array": lambda r: {"keys": _size(r)},
    "core.Metric.norm_array": lambda r: {"sites": _size(r)},
    "analytic.eigenfunction_eval": lambda r: {"points": _size(r)},
    "tree.OffspringDistribution.sample": lambda r: {"members": len(r)},
    "lattice.accessible_set": lambda r: {"sites": len(r)},
    "lattice.export_accessible": lambda r: {"bytes": len(r)},
    "bricklayer.simulate_bricklayer": lambda r: {
        "bricks": r.replicas * bricks_up_to(r.depth),
        "percolating": r.percolating,
        "replicas": r.replicas,
    },
}


class Stat:
    """Totals for one wrapped name."""

    __slots__ = ("calls", "total_s", "self_s", "counters")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.counters = {}

    def count(self, key: str):
        return self.counters.get(key, 0)


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "job", "self_s")

    def __init__(self, id, name, parent, job):
        self.id = id
        self.name = name
        self.parent = parent
        self.job = job
        self.start = self.end = self.self_s = 0.0

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}


class Tracer:
    """Spans and totals for one traced pass.  Use as a context manager
    around the traced code: entering wraps the layers, leaving restores
    them.  ``job`` is the id stamped on new spans."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.job = None
        self.spans = []
        self.stats = {}
        self._covered = [0.0]  # per open call: time covered by its children
        self._open = [None]  # ids of open spans
        self._patched = []

    def wrap(self, fn, name: str):
        """A traced stand-in for ``fn``, recorded under ``name``."""
        stat = self.stats.setdefault(name, Stat())
        counter = COUNTERS.get(name)
        leaf = name in HOT_LEAVES or name.startswith("core.")
        covered, open_spans, spans, clock = self._covered, self._open, self.spans, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not leaf:
                span = Span(len(spans), name, open_spans[-1], self.job)
                spans.append(span)
                open_spans.append(span.id)
            covered.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                duration = end - start
                self_s = duration - covered.pop()
                covered[-1] += duration
                stat.calls += 1
                stat.total_s += duration
                stat.self_s += self_s
                if not leaf:
                    open_spans.pop()
                    span.start, span.end, span.self_s = start, end, self_s
            if counter is not None:
                for key, value in counter(result).items():
                    stat.counters[key] = stat.counters.get(key, 0) + value
            return result

        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def __enter__(self):
        wrappers = {}  # id(original function) -> (original, wrapper)
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = (obj, self.wrap(obj, f"{layer}.{attr}"))
                elif inspect.isclass(obj):
                    self._wrap_methods(obj, f"{layer}.{attr}")
        # re-bind the functions in every namespace of the package that holds them
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(module).items()):
                original, wrapper = wrappers.get(id(obj), (None, None))
                if original is obj:
                    self._patch(module, attr, wrapper)
        return self

    def _wrap_methods(self, cls, prefix: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{prefix}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                self._patch(cls, attr, type(raw)(self.wrap(raw.__func__, name)))
            elif inspect.isfunction(raw):
                self._patch(cls, attr, self.wrap(raw, name))

    def __exit__(self, *exc):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
        return False

    def stat(self, name: str) -> Stat:
        return self.stats.get(name) or Stat()


def _rate(count, seconds) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(tracer: Tracer, commands: list, output_bytes: int) -> dict:
    """Per-layer metrics of one traced pass.  ``commands[j]`` is the CLI
    command of job ``j``; ``output_bytes`` is what the jobs wrote."""
    s = tracer.stat
    uniform_at = s("core.LabelField.uniform_at")
    uniform_array = s("core.LabelField.uniform_array")
    key_array = s("core.LabelField.key_array")
    derive = s("core.LabelField.derive_key_array")
    sample = s("tree.OffspringDistribution.sample")
    closure = s("lattice.accessible_set")
    simulate = s("bricklayer.simulate_bricklayer")
    tree_engines = [s(f"tree.{f}") for f in ("estimate_theta_c_tree", "survival_probability", "martingale_trace")]

    by_id = {span.id: span for span in tracer.spans}

    def inside(span, ancestor: str) -> bool:
        parent = span.parent
        while parent is not None:
            if by_id[parent].name == ancestor:
                return True
            parent = by_id[parent].parent
        return False

    guard_calls = sum(
        1 for span in tracer.spans
        if span.name == "analytic.m_critical" and inside(span, "analytic.theta_critical")
    )
    theta_c = s("analytic.theta_critical")

    out = {
        "core.uniform_at.calls": uniform_at.calls,
        "core.uniform_at.s": uniform_at.total_s,
        "core.uniform_array.sites": uniform_array.count("sites"),
        "core.uniform_array.s": uniform_array.total_s,
        "core.derive_key_array.keys": derive.count("keys"),
        "core.derive_key_array.s": derive.total_s,
        "core.power_key.calls": s("core.Metric.power_key").calls,
        "core.norm.calls": s("core.Metric.norm").calls,
        "core.norm_array.sites": s("core.Metric.norm_array").count("sites"),
        "core.metric.s": sum(s(f"core.Metric.{m}").self_s for m in ("power_key", "norm", "norm_array")),
        "core.scalar_hash_per_s": _rate(uniform_at.calls, uniform_at.total_s),
        "core.array_hash_per_s": _rate(
            key_array.count("keys") + derive.count("keys"), key_array.total_s + derive.total_s
        ),
        "analytic.theta_critical.calls": theta_c.calls,
        "analytic.theta_critical.s": theta_c.total_s,
        "analytic.m_critical.calls": s("analytic.m_critical").calls,
        "analytic.m_critical.s": s("analytic.m_critical").total_s,
        "analytic.m_critical_per_theta_critical": _rate(guard_calls, theta_c.calls),
        "analytic.eigenfunction_eval.points": s("analytic.eigenfunction_eval").count("points"),
        "analytic.eigenfunction_eval.s": s("analytic.eigenfunction_eval").total_s,
        "tree.estimate_theta_c_tree.s": tree_engines[0].total_s,
        "tree.survival_probability.s": tree_engines[1].total_s,
        "tree.martingale_trace.s": tree_engines[2].total_s,
        "tree.generation_steps": sample.calls,
        "tree.members_stepped": sample.count("members"),
        "tree.members_per_s": _rate(sample.count("members"), sum(t.total_s for t in tree_engines)),
        "lattice.accessible_set.calls": closure.calls,
        "lattice.accessible_set.sites": closure.count("sites"),
        "lattice.accessible_set.s": closure.total_s,
        "lattice.sites_per_s": _rate(closure.count("sites"), closure.total_s),
        "lattice.sweep_accessible_min_theta.s": s("lattice.sweep_accessible_min_theta").total_s,
        "lattice.export_accessible.bytes": s("lattice.export_accessible").count("bytes"),
        "lattice.export_accessible.s": s("lattice.export_accessible").total_s,
        "lattice.oriented_coupling_check.s": s("lattice.oriented_coupling_check").total_s,
        "bricklayer.simulate_bricklayer.s": simulate.total_s,
        "bricklayer.simulate_bricklayer.self_s": simulate.self_s,
        "bricklayer.bricks": simulate.count("bricks"),
        "bricklayer.bricks_per_s": _rate(simulate.count("bricks"), simulate.total_s),
        "bricklayer.edge_open.calls": s("bricklayer.edge_open").calls,
        "bricklayer.edge_open.s": s("bricklayer.edge_open").total_s,
        "bricklayer.percolating_ratio": _rate(simulate.count("percolating"), simulate.count("replicas")),
        "bricklayer.open_implies_increasing_check.s": s("bricklayer.open_implies_increasing_check").total_s,
        "bricklayer.distance_gap_check.s": s("bricklayer.distance_gap_check").total_s,
        "cli.main.calls": s("cli.main").calls,
        "cli.main.self_s": s("cli.main").self_s,
        "cli.output_bytes": output_bytes,
    }
    for command in COMMANDS:
        out[f"cli.{command}.s"] = sum(
            (span.end - span.start for span in tracer.spans
             if span.name == "cli.main" and commands[span.job] == command),
            0.0,
        )
    return out

