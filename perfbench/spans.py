"""Span tracing from outside the program: wrap each layer's public calls.

Nothing under ``src/`` is touched.  :func:`install` replaces the entry
points of every layer (``Graph.copy``, ``Reasoner.run``,
``PreparedQuery.evaluate``, ``ExplanationService.explain``, ...) with
wrappers that record one span per call: its name, thread, start, end,
self time (duration minus the child spans on the same thread) and the
benchmark phase it started in.  Every garbage collection is recorded as
a ``gc.collect`` span too, and counted as a child of the span it
interrupted.  Spans stay in memory until the run ends, then
:meth:`Tracer.dump` writes them out.

Only traced runs install the wrappers; the end-to-end metrics always come
from untraced runs, and the difference between the two is reported as
``trace.overhead_pct``.
"""

from __future__ import annotations

import functools
import gc
import json
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, List, Tuple

from common import ratio

#: One span: (name, thread id, start, end, self seconds, phase, key).
Span = Tuple[str, int, float, float, float, str, int]

#: Spans whose first argument after ``self`` is the request object; its
#: ``id`` keys the span so the fleet's span can be matched with the shard
#: worker's span of the same request (they run on different threads).
KEYED = {"service.fleet.explain", "service.explain"}


class Tracer:
    """In-memory span recorder with a per-thread span stack."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.phase = "setup"
        self._local = threading.local()
        self._gc_start = 0.0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> list:
        children = [0.0]
        self._stack().append(children)
        return children

    def _close(self, name: str, start: float, children: list, phase: str, key: int) -> None:
        end = perf_counter()
        stack = self._stack()
        stack.pop()
        duration = end - start
        if stack:
            stack[-1][0] += duration
        self.spans.append((name, threading.get_ident(), start, end,
                           duration - children[0], phase, key))

    def wrap(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper."""
        original = getattr(owner, attr)
        keyed = name in KEYED
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            children = tracer._open()
            phase = tracer.phase
            start = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                tracer._close(name, start, children, phase,
                              id(args[1]) if keyed and len(args) > 1 else 0)

        setattr(owner, attr, traced)

    @contextmanager
    def span(self, name: str):
        """Record one span around the block (the benchmark's own spans)."""
        children = self._open()
        phase = self.phase
        start = perf_counter()
        try:
            yield
        finally:
            self._close(name, start, children, phase, 0)

    # ------------------------------------------------------------------
    def _on_gc(self, event: str, info: Dict[str, int]) -> None:
        if event == "start":
            self._gc_start = perf_counter()
            return
        end = perf_counter()
        pause = end - self._gc_start
        # The collection ran on this thread inside whatever span is open:
        # count it as that span's child, so self times exclude it and the
        # pause is reported once, as the process-level gc layer.
        stack = self._stack()
        if stack:
            stack[-1][0] += pause
        self.spans.append(("gc.collect", threading.get_ident(), self._gc_start, end,
                           pause, self.phase, info["generation"]))

    def watch_gc(self) -> None:
        """Time every collection (the ``gc`` layer) from now on."""
        gc.callbacks.append(self._on_gc)

    def gc_metrics(self) -> Dict[str, float]:
        """Collections during the timed phase (the span key is the generation)."""
        timed = [span for span in list(self.spans)
                 if span[0] == "gc.collect" and span[5] == "timed"]
        pauses = [span[4] for span in timed]
        return {
            "gc.gen2.count": float(sum(1 for span in timed if span[6] == 2)),
            "gc.pause_ms": sum(pauses) * 1000.0,
            "gc.max_pause_ms": max(pauses, default=0.0) * 1000.0,
        }

    # ------------------------------------------------------------------
    def summary(self, phase: str) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, ``self_s`` and ``total_s`` in ``phase``."""
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0.0, "self_s": 0.0, "total_s": 0.0})
        for name, _, start, end, self_s, span_phase, _ in list(self.spans):
            if span_phase != phase:
                continue
            entry = out[name]
            entry["calls"] += 1
            entry["self_s"] += self_s
            entry["total_s"] += end - start
        return dict(out)

    def request_splits(self) -> List[Tuple[float, float, float]]:
        """``(fleet span, queue wait, shard service span)`` per timed ask.

        The fleet span runs on the HTTP handler thread and the service span
        on a shard worker; they are matched by the request object's id and
        by the service span lying inside the fleet span.
        """
        services: Dict[int, List[Span]] = defaultdict(list)
        fleets: List[Span] = []
        for span in list(self.spans):
            if span[5] != "timed":
                continue
            if span[0] == "service.explain":
                services[span[6]].append(span)
            elif span[0] == "service.fleet.explain":
                fleets.append(span)
        splits = []
        for fleet in fleets:
            for service in services.get(fleet[6], ()):
                if fleet[2] <= service[2] and service[3] <= fleet[3]:
                    splits.append((fleet[3] - fleet[2], service[2] - fleet[2],
                                   service[3] - service[2]))
                    break
        return splits

    def dump(self, path: str) -> None:
        """Write every span (one JSON array per line) to ``path``."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer (module names as layers)."""
    import importlib

    from repro.core import scenario as core_scenario
    from repro.core import generators
    from repro.foodkg.loader import FoodKGLoader
    from repro.ontology import feo
    from repro.owl.closure import MaterializationCache
    from repro.owl.reasoner import Reasoner
    from repro.rdf.graph import Graph
    from repro.service.server import _Handler
    from repro.service.service import ExplanationService
    from repro.service.shards import ShardedExplanationService
    from repro.sparql import PreparedQuery, PreparedQueryCache

    snapshot = importlib.import_module("repro.storage.snapshot")

    wrap = tracer.wrap
    wrap(Graph, "copy", "rdf.copy")
    wrap(feo, "build_combined_ontology", "ontology.build")
    wrap(FoodKGLoader, "load", "foodkg.load")
    wrap(snapshot, "load_snapshot", "storage.load")
    wrap(Reasoner, "run", "owl.run")
    wrap(Reasoner, "extend", "owl.extend")
    wrap(MaterializationCache, "materialize", "owl.cache")
    wrap(MaterializationCache, "extend", "owl.cache")
    wrap(core_scenario.ScenarioBuilder, "build", "core.build")
    wrap(core_scenario.ScenarioBuilder, "update_scenario", "core.update")
    wrap(core_scenario.ScenarioBuilder, "_assemble", "core.assemble")
    # scenario.py calls the annotation pass through its module global.
    wrap(core_scenario, "annotate_facts_and_foils", "core.annotate")
    for cls_name in generators.__all__:
        cls = getattr(generators, cls_name)
        if isinstance(cls, type) and "generate" in vars(cls):
            wrap(cls, "generate", "core.generate")
    for module_name in ("case_based", "contextual", "contrastive", "counterfactual",
                        "everyday", "scientific", "simulation", "statistical",
                        "trace_based"):
        module = importlib.import_module(f"repro.core.generators.{module_name}")
        for attr in dir(module):
            if attr.startswith("render_"):
                wrap(module, attr, "core.render")
    wrap(PreparedQueryCache, "get", "sparql.prepare")
    wrap(PreparedQuery, "evaluate", "sparql.evaluate")
    wrap(ExplanationService, "explain", "service.explain")
    wrap(ExplanationService, "update_scenario", "service.update")
    wrap(ExplanationService, "explain_all_types", "service.explain_all_types")
    wrap(ShardedExplanationService, "explain", "service.fleet.explain")
    wrap(ShardedExplanationService, "update_scenario", "service.fleet.update")
    wrap(_Handler, "do_POST", "service.server")


def counters(services, fleet=None) -> Dict[str, float]:
    """Cache and planner counters summed over ``services`` (one process)."""
    from repro.sparql import planner_stats, prepared_cache

    totals: Dict[str, float] = defaultdict(float)
    for service in services:
        stats = service.stats()
        totals["scenario_hits"] += stats.scenario_cache_hits
        totals["scenario_misses"] += stats.scenario_cache_misses
        totals["updates"] += stats.scenario_updates
        totals["rejected"] += stats.requests_rejected
        for key in ("hits", "misses", "extensions"):
            totals["closure_" + key] += stats.closure_cache.get(key, 0)
    if fleet is not None:
        # The fleet's counts include requests its shard queues shed.
        fleet_stats = fleet.stats()
        totals["timed_out"] = float(fleet_stats.requests_timed_out)
        totals["rejected"] = float(fleet_stats.requests_rejected)
    prepared = prepared_cache().stats()
    totals["prepare_hits"] = prepared["hits"]
    totals["prepare_misses"] = prepared["misses"]
    planner = planner_stats()
    totals["plan_hits"] = planner["plan_cache_hits"]
    totals["plans_compiled"] = planner["plans_compiled"]
    return dict(totals)


def layer_metrics(tracer: Tracer, before: Dict[str, float], after: Dict[str, float],
                  requests: int) -> Dict[str, float]:
    """The per-layer metrics of one process's timed phase.

    ``*.self_ms`` are milliseconds of self time per timed request, ``*.calls``
    totals over the timed phase, ratios are taken over the counter deltas
    between ``before`` and ``after``.
    """
    timed = tracer.summary("timed")
    setup = tracer.summary("setup")
    delta = {key: after.get(key, 0.0) - before.get(key, 0.0) for key in after}

    def self_ms(name: str) -> float:
        return timed.get(name, {}).get("self_s", 0.0) * 1000.0 / max(requests, 1)

    def calls(name: str) -> float:
        return timed.get(name, {}).get("calls", 0.0)

    def setup_ms(name: str) -> float:
        return setup.get(name, {}).get("total_s", 0.0) * 1000.0

    closure_lookups = (delta.get("closure_hits", 0) + delta.get("closure_misses", 0)
                       + delta.get("closure_extensions", 0))
    metrics = {
        "ontology.build_ms": setup_ms("ontology.build"),
        "foodkg.load_ms": setup_ms("foodkg.load"),
        "storage.load_ms": setup_ms("storage.load"),
        "rdf.copy.calls": calls("rdf.copy"),
        "rdf.copy.self_ms": self_ms("rdf.copy"),
        "core.assemble.self_ms": self_ms("core.assemble"),
        "owl.run.calls": calls("owl.run"),
        "owl.run.self_ms": self_ms("owl.run"),
        "owl.extend.calls": calls("owl.extend"),
        "owl.extend.self_ms": self_ms("owl.extend"),
        "owl.cache.hit_ratio": ratio(delta.get("closure_hits", 0), closure_lookups),
        "owl.cache.extend_ratio": ratio(delta.get("closure_extensions", 0),
                                        delta.get("updates", 0)),
        "core.annotate.self_ms": self_ms("core.annotate"),
        "sparql.evaluate.calls": calls("sparql.evaluate"),
        "sparql.evaluate.self_ms": self_ms("sparql.evaluate"),
        "sparql.prepare.hit_ratio": ratio(
            delta.get("prepare_hits", 0),
            delta.get("prepare_hits", 0) + delta.get("prepare_misses", 0)),
        "sparql.plan_cache.hit_ratio": ratio(
            delta.get("plan_hits", 0),
            delta.get("plan_hits", 0) + delta.get("plans_compiled", 0)),
        "core.generate.self_ms": self_ms("core.generate"),
        "core.render.self_ms": self_ms("core.render"),
        "service.explain.self_ms": self_ms("service.explain"),
        "service.scenario_cache.hit_ratio": ratio(
            delta.get("scenario_hits", 0),
            delta.get("scenario_hits", 0) + delta.get("scenario_misses", 0)),
        "service.rejected": delta.get("rejected", 0.0),
        "service.timed_out": delta.get("timed_out", 0.0),
    }
    metrics.update(tracer.gc_metrics())
    return metrics
