"""One workload in one fresh process: set up, warm up, measure, check.

Run by ``run.py``; prints one JSON object (the raw samples and counters)
as its last line of standard output.  ``--setup-only`` stops once the
first request could be served, which is how ``run.py`` takes several
set-up samples per run.

Workloads (sizes are for ``--size full``; ``tiny`` is the smoke size):

``cold_tenants``
    In-process :class:`ExplanationService` over the synthetic KG (+400
    recipes, +200 ingredients) with scenario and closure caches of 8
    entries.  One closed-loop caller cycles 18 tenant identities (one per
    persona x CQ), so every ask misses both caches; each ask is followed
    by a profile update of the tenant just asked (an incremental extend).
``batch_all_types``
    In-process service over the curated KG; all 18 persona x CQ scenarios
    are prewarmed during set-up.  One closed-loop caller runs batches: a
    batch is ``explain_all_types`` (the nine generators) for every
    scenario; each batch is followed by a profile update on one scenario.
``warm_http``
    The client side: prepares the snapshot, boots ``server.py`` (the
    process under test), opens one session per persona x CQ and drives
    them closed-loop over ``min(2, nproc)`` keep-alive connections, each
    sending its next request when the previous answer arrives; 1 request
    in 10 is ``POST /update``.
"""

from __future__ import annotations

import argparse
import gc
import http.client
import json
import os
import random
import select
import shutil
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from common import (
    BENCH_DIR, DELTAS, EXPLANATION_TYPES, WORK, child_env, dealt, emit, grow,
    host_probe, host_scale, peak_rss_mb, persona_scenarios, profile_fields, use_src,
    WORKLOADS,
)

use_src()

#: Requests per second of ``--seconds`` for each workload: the request
#: counts (and with them the tail percentiles) are fixed by ``--seconds``.
COLD_ASKS_PER_S = 2.4
BATCHES_PER_S = 3.5
HTTP_REQUESTS_PER_S = 40.0
#: Server boots per warm_http run; the last one serves the run.
SETUP_REPEATS = 5
#: Longest a single request or server boot may take before the run fails.
REQUEST_TIMEOUT_S = 60.0


class Outcome:
    """Latency samples and failures of one timed phase."""

    def __init__(self) -> None:
        self.ask_s: List[float] = []
        self.update_s: List[float] = []
        self.errors: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def mismatch(self, message: str) -> None:
        self.wrong += 1
        self.fail("wrong answer: " + message)


def answer_key(explanation) -> Tuple[str, str, Tuple[str, ...]]:
    """What a response is compared on: type, text and evidence items."""
    return (explanation.explanation_type, explanation.text,
            tuple(item.describe() for item in explanation.items))


def corrupt(expected: tuple) -> tuple:
    """A deliberately wrong copy of a reference answer (an answer key, or
    nested tuples of them), to test that the correctness check counts it."""
    if isinstance(expected[0], str):
        return (expected[0], expected[1] + " [corrupted reference]", expected[2])
    return (corrupt(expected[0]),) + tuple(expected[1:])


# ---------------------------------------------------------------------------
# In-process workloads
# ---------------------------------------------------------------------------
def persona_users(tiny: bool):
    """``(key, profile, context)`` of the registered personas (two if tiny)."""
    from repro.users.personas import PERSONAS, persona

    keys = PERSONAS[:2] if tiny else PERSONAS
    return [(key,) + persona(key) for key in keys]


class ColdTenants:
    """Every ask is a closure miss: a tenant pool larger than the caches."""

    def __init__(self, seed: int, seconds: float, tiny: bool) -> None:
        self.tiny = tiny
        self.cache_size = 2 if tiny else 8
        rng = random.Random(seed)
        users = {key: (user, context) for key, user, context in persona_users(tiny)}
        scenarios = persona_scenarios(list(users), rng)
        # Distinct identities: each tenant's scenario, and so its closure,
        # is its own.  The warm-up tenants fill the caches before timing.
        self.tenants = [
            (replace(users[key][0], identifier=f"cold-{index:02d}",
                     name=f"Tenant {index}"), users[key][1], question)
            for index, (key, question) in enumerate(scenarios)]
        warmup = [(replace(tenant, identifier=f"warmup-{index}"), context, question)
                  for index, (tenant, context, question)
                  in enumerate(self.tenants[:self.cache_size])]
        self.tenants += warmup
        pool = len(scenarios)
        # At least two cycles, so the ask tail has ten samples beyond it.
        cycles = max(1 if tiny else 2, round(seconds * COLD_ASKS_PER_S / pool))
        self.warmup_ops = self._ops(range(pool, pool + len(warmup)), rng)
        self.ops = self._ops([index % pool for index in range(cycles * pool)], rng)

    @staticmethod
    def _ops(tenants, rng: random.Random):
        """Each ask is followed by a profile update of the same tenant."""
        tenants = list(tenants)
        ops = []
        for tenant, delta in zip(tenants, dealt(DELTAS, len(tenants), rng)):
            ops.append(("ask", tenant, None))
            ops.append(("update", tenant, delta))
        return ops

    def setup(self):
        from repro.core.engine import ExplanationEngine
        from repro.core.scenario import ScenarioBuilder
        from repro.foodkg import generate_catalog, load_catalog
        from repro.ontology import feo
        from repro.owl import MaterializationCache
        from repro.service import ExplanationService

        extra_recipes, extra_ingredients = (40, 20) if self.tiny else (400, 200)
        self.catalog = generate_catalog(extra_ingredients=extra_ingredients,
                                        extra_recipes=extra_recipes)
        graph = feo.build_combined_ontology()
        load_catalog(self.catalog, graph)
        builder = ScenarioBuilder(self.catalog, base_graph=graph,
                                  closure_cache=MaterializationCache(max_size=self.cache_size))
        self.service = ExplanationService(engine=ExplanationEngine(builder=builder),
                                          max_cached_scenarios=self.cache_size).warm()
        return [self.service]

    def call(self, op):
        kind, index, delta = op
        tenant, context, question = self.tenants[index]
        if kind == "ask":
            return self.service.ask(question, user=tenant, context=context).explanation
        updated = self.service.update_scenario(question, user=tenant, context=context,
                                               **{delta[0]: (delta[1],)})
        return profile_fields(updated.user)

    key = staticmethod(answer_key)

    def expected(self, ops):
        from repro.core.engine import ExplanationEngine
        from repro.core.questions import parse_question

        reference = ExplanationEngine(catalog=self.catalog)
        answers: Dict[int, object] = {}
        out = []
        for kind, index, delta in ops:
            tenant, context, question = self.tenants[index]
            if kind == "update":
                out.append(grow(profile_fields(tenant), delta))
                continue
            if index not in answers:
                answers[index] = answer_key(reference.explain(
                    parse_question(question), tenant, context))
            out.append(answers[index])
        return out


class BatchAllTypes:
    """Offline batch: the nine generators over every prewarmed scenario.

    One read request is one batch: ``explain_all_types`` for each of the
    persona x CQ scenarios in turn.  Each batch is followed by a profile
    update on one scenario.
    """

    def __init__(self, seed: int, seconds: float, tiny: bool) -> None:
        rng = random.Random(seed)
        self.scenarios = persona_scenarios([key for key, _, _ in persona_users(tiny)], rng)
        batches = max(4, round(seconds * BATCHES_PER_S))
        # Distinct (scenario, delta) pairs, so no update is a cache hit.
        unused = {delta: rng.sample(range(len(self.scenarios)), len(self.scenarios))
                  for delta in DELTAS}
        if batches > len(DELTAS) * len(self.scenarios):
            raise ValueError("more updates than distinct (scenario, delta) pairs")
        self.ops = []
        for delta in dealt(DELTAS, batches, rng):
            self.ops.append(("ask", None, None))
            self.ops.append(("update", unused[delta].pop(), delta))
        self.warmup_ops = [("ask", None, None)]

    def setup(self):
        from repro.core.engine import ExplanationEngine
        from repro.core.scenario import ScenarioBuilder
        from repro.foodkg import build_core_catalog
        from repro.owl import MaterializationCache
        from repro.service import ExplanationService
        from repro.users.personas import persona

        self.catalog = build_core_catalog()
        capacity = len(self.scenarios) + len(self.ops)
        builder = ScenarioBuilder(self.catalog,
                                  closure_cache=MaterializationCache(max_size=capacity))
        self.service = ExplanationService(engine=ExplanationEngine(builder=builder),
                                          max_cached_scenarios=capacity).warm()
        for key, question in self.scenarios:
            user, context = persona(key)
            self.service.prewarm_scenario(question, user, context)
        return [self.service]

    def call(self, op):
        from repro.service import ExplanationRequest

        kind, index, delta = op
        if kind == "ask":
            batch = []
            for key, question in self.scenarios:
                responses = self.service.explain_all_types(
                    ExplanationRequest(question=question, persona=key))
                batch.append(tuple(responses[name].explanation for name in EXPLANATION_TYPES))
            return tuple(batch)
        key, question = self.scenarios[index]
        updated = self.service.update_scenario(question, persona=key,
                                               **{delta[0]: (delta[1],)})
        return profile_fields(updated.user)

    @staticmethod
    def key(answer):
        return tuple(tuple(answer_key(one) for one in scenario) for scenario in answer)

    def expected(self, ops):
        from repro.core.engine import ExplanationEngine
        from repro.core.questions import parse_question
        from repro.users.personas import persona

        reference = ExplanationEngine(catalog=self.catalog)
        batch = []
        for key, question in self.scenarios:
            user, context = persona(key)
            explained = reference.explain_all_types(parse_question(question), user, context)
            batch.append(tuple(answer_key(explained[name]) for name in EXPLANATION_TYPES))
        out = []
        for kind, index, delta in ops:
            if kind == "ask":
                out.append(tuple(batch))
            else:
                out.append(grow(profile_fields(persona(self.scenarios[index][0])[0]), delta))
        return out


def run_in_process(workload, args, tracer) -> Dict[str, object]:
    services = workload.setup()
    setup_s = time.monotonic() - args.t0
    result: Dict[str, object] = {"setup_s": [setup_s]}
    if args.setup_only:
        return result
    if tracer is not None:
        tracer.phase = "warmup"
    for op in workload.warmup_ops:
        workload.call(op)

    from spans import counters, layer_metrics

    before = counters(services) if tracer is not None else {}
    gc.collect()
    outcome = Outcome()
    answers: List[object] = []
    wall: List[float] = []
    probes = [host_probe()]
    if tracer is not None:
        tracer.phase = "timed"
    for op in workload.ops:
        outcome.attempted += 1
        with tracer.span("bench.request") if tracer is not None else nullcontext():
            start = perf_counter()
            try:
                answer = workload.call(op)
            except Exception as exc:  # noqa: BLE001 - every failure is counted
                answer = None
                outcome.fail(f"{op[0]} raised {type(exc).__name__}: {exc}")
            elapsed = perf_counter() - start
        # The host's speed right before and right after this request.
        probes.append(host_probe())
        wall.append(elapsed)
        elapsed *= host_scale(probes[-2], probes[-1])
        (outcome.ask_s if op[0] == "ask" else outcome.update_s).append(elapsed)
        # Keep only what is compared, so the responses kept for the check
        # do not grow the heap the program's garbage collector scans.
        answers.append(workload.key(answer) if op[0] == "ask" and answer is not None
                       else answer)
    if tracer is not None:
        tracer.phase = "done"
    result["peak_rss_mb"] = peak_rss_mb()
    # One closed-loop caller: requests per second of host-normalised busy time.
    result["throughput_rps"] = len(workload.ops) / sum(outcome.ask_s + outcome.update_s)
    result["wall_s"] = wall
    result["host_probe_ms"] = probes
    if tracer is not None:
        layers = layer_metrics(tracer, before, counters(services), len(workload.ops))
        timed = tracer.summary("timed")
        layers["trace.unattributed_ms"] = (timed.get("bench.request", {}).get("self_s", 0.0)
                                           * 1000.0 / len(workload.ops))
        layers["service.queue_wait_ms"] = 0.0
        layers["service.http_ms"] = 0.0
        result["layers"] = layers

    # Correctness, outside the timed region: a fresh single-threaded engine.
    expected = workload.expected(workload.ops)
    if args.corrupt_reference:
        first_ask = next(i for i, op in enumerate(workload.ops) if op[0] == "ask")
        expected[first_ask] = corrupt(expected[first_ask])
    for op, got, want in zip(workload.ops, answers, expected):
        if got is not None and got != want:
            outcome.mismatch(f"{op[0]} {op[1]}: got {str(got)[:120]!r}")
    result.update(outcome_fields(outcome))
    return result


def outcome_fields(outcome: Outcome) -> Dict[str, object]:
    return {"ask_s": outcome.ask_s, "update_s": outcome.update_s,
            "attempted": outcome.attempted, "failed": outcome.failed,
            "wrong": outcome.wrong, "errors": outcome.errors}


# ---------------------------------------------------------------------------
# warm_http: client, snapshot preparation and server lifecycle
# ---------------------------------------------------------------------------
class WarmHttp:
    """Closed-loop, session-addressed HTTP traffic against a snapshot-booted fleet."""

    def __init__(self, seed: int, seconds: float, tiny: bool) -> None:
        rng = random.Random(seed)
        users = {key: user for key, user, _ in persona_users(tiny)}
        self.sessions = persona_scenarios(list(users), rng)
        self.connections = max(1, min(2, os.cpu_count() or 1))
        total = max(22, round(seconds * HTTP_REQUESTS_PER_S))
        updates = total // 10
        update_at = dict(zip(sorted(rng.sample(range(total), updates)),
                             dealt(DELTAS, updates, rng)))
        asks = total - updates
        override_at = dict(zip(sorted(rng.sample(range(asks), asks // 8)),
                               dealt(EXPLANATION_TYPES, asks // 8, rng)))
        profiles = [profile_fields(users[key]) for key, _ in self.sessions]
        # Request k goes out on connection k % connections; a session is
        # pinned to one connection, whose requests complete in order, so
        # the profile each ask must be answered for is known in advance.
        pinned = [[s for s in range(len(self.sessions)) if s % self.connections == lane]
                  for lane in range(self.connections)]
        turns = [iter(dealt(sessions, total, rng)) for sessions in pinned]
        update_turns = [dealt(sessions, total, rng) for sessions in pinned]
        self.schedule = []
        ask = 0
        for k in range(total):
            lane = k % self.connections
            if k in update_at:
                name, value = delta = update_at[k]
                session = next(s for s in update_turns[lane]
                               if value not in profiles[s][name])
                update_turns[lane].remove(session)
                profiles[session] = grow(profiles[session], delta)
                self.schedule.append(("update", session, delta, profiles[session]))
            else:
                session = next(turns[lane])
                self.schedule.append(("ask", session, override_at.get(ask), profiles[session]))
                ask += 1

    # -- preparation (before any timing) ------------------------------
    def prepare(self, work: Path) -> Path:
        """Build the snapshot the fleet boots from: the curated KG plus one
        labelled closure per session scenario, so every first touch hits."""
        from repro.core.engine import ExplanationEngine
        from repro.core.questions import parse_question
        from repro.core.scenario import ScenarioBuilder
        from repro.foodkg import build_core_catalog
        from repro.owl import MaterializationCache
        from repro.storage import ClosureEntry, save_snapshot
        from repro.users.personas import persona

        builder = ScenarioBuilder(build_core_catalog(),
                                  closure_cache=MaterializationCache(max_size=4 * len(self.sessions)))
        engine = ExplanationEngine(builder=builder)
        labels = {}
        for key, question in self.sessions:
            user, context = persona(key)
            scenario = engine.build_scenario(parse_question(question), user, context)
            labels[scenario.asserted.fingerprint()] = user.identifier
        closures = [ClosureEntry(asserted=asserted, closure=closure, post_added=post_added,
                                 label=labels[asserted.fingerprint()])
                    for asserted, closure, post_added in builder.closure_cache.export_entries()]
        path = work / "fleet.snap"
        save_snapshot(str(path), builder._base, closures=closures)
        return path

    def expected(self):
        from repro.core.engine import ExplanationEngine
        from repro.core.questions import parse_question
        from repro.users.personas import persona

        reference = ExplanationEngine()
        scenarios = {}
        out = []
        for kind, session, extra, profile in self.schedule:
            if kind == "update":
                out.append({name: list(values) for name, values in profile.items()})
                continue
            key, question = self.sessions[session]
            base, context = persona(key)
            user = replace(base, **profile)
            parsed = parse_question(question)
            scenario_key = (question, user)
            if scenario_key not in scenarios:
                scenarios[scenario_key] = reference.build_scenario(parsed, user, context)
            out.append(answer_key(reference.explain(
                parsed, user, context, explanation_type=extra,
                scenario=scenarios[scenario_key])))
        return out


class Server:
    """The benchmark-owned server process (``server.py``)."""

    def __init__(self, spec_path: Path, trace: bool) -> None:
        command = [sys.executable, str(BENCH_DIR / "server.py"), str(spec_path)]
        if trace:
            command.append("--trace")
        self.started = time.monotonic()
        self.proc = subprocess.Popen(command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, env=child_env(), cwd=str(BENCH_DIR.parent))
        line = self._readline(REQUEST_TIMEOUT_S)
        self.setup_s = time.monotonic() - self.started
        if not line.startswith("ready "):
            self.kill()
            raise RuntimeError(f"server failed to start: {line!r}")
        self.port = int(line.split()[1])

    def _readline(self, timeout: float) -> str:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        return self.proc.stdout.readline() if ready else ""

    def command(self, text: str) -> None:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()

    def stop(self) -> None:
        self.command("stop")
        self.proc.stdin.close()
        try:
            self.proc.wait(REQUEST_TIMEOUT_S)
        finally:
            self.kill()
        if self.proc.returncode != 0:
            raise RuntimeError(f"server exited with {self.proc.returncode}")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


def post(conn: http.client.HTTPConnection, path: str, body: bytes) -> Tuple[int, bytes]:
    conn.request("POST", path, body=body, headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    return response.status, response.read()


def closed_loop(port: int, connections: int, requests: List[Tuple[str, bytes]]):
    """Send ``requests`` over ``connections`` keep-alive connections, each
    sending its next request as soon as the previous response is read.

    Request k goes out on connection ``k % connections``, in order.
    Returns ``(sent, done, status, body)`` per request (``None`` if its
    connection failed before sending it).
    """
    results: List[Optional[tuple]] = [None] * len(requests)

    def lane(index: int) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
        try:
            for k in range(index, len(requests), connections):
                path, body = requests[k]
                sent = perf_counter()
                try:
                    status, data = post(conn, path, body)
                except (OSError, http.client.HTTPException) as exc:
                    status, data = 0, repr(exc).encode()
                    conn.close()
                results[k] = (sent, perf_counter(), status, data)
        finally:
            conn.close()

    threads = [threading.Thread(target=lane, args=(index,), daemon=True)
               for index in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(REQUEST_TIMEOUT_S * len(requests))
    return results


def run_warm_http(workload: WarmHttp, args) -> Dict[str, object]:
    work = WORK / f"warm_http-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return drive_server(workload, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def drive_server(workload: WarmHttp, args, work: Path) -> Dict[str, object]:
    snapshot = workload.prepare(work)
    gc.collect()
    spec_path = work / "spec.json"
    server_result = work / "server.json"
    spec_path.write_text(json.dumps({
        "snapshot": str(snapshot),
        "warm": workload.sessions,
        "result": str(server_result),
        "spans": str(WORK / "spans-warm_http.jsonl"),
    }))
    setup_samples = []
    for boot in range(SETUP_REPEATS):
        probe = host_probe()
        server = Server(spec_path, trace=bool(args.trace) and boot == SETUP_REPEATS - 1)
        setup_samples.append(server.setup_s * host_scale(probe, host_probe()))
        if boot < SETUP_REPEATS - 1:
            server.stop()
    outcome = Outcome()
    try:
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=REQUEST_TIMEOUT_S)
        session_ids = []
        for key, question in workload.sessions:
            status, data = post(conn, "/sessions", json.dumps({"persona": key}).encode())
            if status != 200:
                raise RuntimeError(f"POST /sessions failed: {status} {data[:200]!r}")
            session_ids.append(json.loads(data)["session_id"])
        for session_id, (_, question) in zip(session_ids, workload.sessions):
            status, data = post(conn, "/ask", json.dumps(
                {"session_id": session_id, "question": question}).encode())
            if status != 200:
                raise RuntimeError(f"warm-up ask failed: {status} {data[:200]!r}")
        conn.close()
        requests = []
        for kind, session, extra, _ in workload.schedule:
            payload = {"session_id": session_ids[session],
                       "question": workload.sessions[session][1]}
            if kind == "update":
                payload[extra[0]] = [extra[1]]
            elif extra is not None:
                payload["explanation_type"] = extra
            requests.append(("/" + kind, json.dumps(payload).encode()))
        gc.collect()
        server.command("timed")
        results = closed_loop(server.port, workload.connections, requests)
        server.command("done")
    finally:
        server.stop()
    served = json.loads(server_result.read_text())

    expected = workload.expected()
    if args.corrupt_reference:
        first_ask = next(i for i, item in enumerate(workload.schedule) if item[0] == "ask")
        expected[first_ask] = corrupt(expected[first_ask])
    finished = [item for item in results if item is not None]
    for item, (kind, session, extra, _), want in zip(results, workload.schedule, expected):
        outcome.attempted += 1
        if item is None:
            outcome.fail(f"{kind} on session {session} never completed")
            continue
        sent, done, status, data = item
        (outcome.ask_s if kind == "ask" else outcome.update_s).append(done - sent)
        if status != 200:
            outcome.fail(f"{kind} returned HTTP {status}: {data[:160]!r}")
            continue
        body = json.loads(data)
        if kind == "ask":
            got = (body["explanation_type"], body["text"], tuple(body["items"]))
        else:
            got = {name: body[name] for name in want}
        if got != want:
            outcome.mismatch(f"{kind} on session {session}: got {str(got)[:120]!r}")
    first_sent = min(item[0] for item in finished)
    last_done = max(item[1] for item in finished)
    result: Dict[str, object] = {
        "setup_s": setup_samples,
        "peak_rss_mb": served["peak_rss_mb"],
        "throughput_rps": len(finished) / (last_done - first_sent),
    }
    if args.trace:
        layers = served["layers"]
        layers["service.http_ms"] = (sum(outcome.ask_s) * 1000.0 / len(outcome.ask_s)
                                     - served["fleet_ask_ms"]) if outcome.ask_s else 0.0
        result["layers"] = layers
    result.update(outcome_fields(outcome))
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() when the parent launched this process")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--corrupt-reference", action="store_true")
    args = parser.parse_args()
    tiny = args.size == "tiny"
    if args.workload == "warm_http":
        result = run_warm_http(WarmHttp(args.seed, args.seconds, tiny), args)
    else:
        tracer = None
        if args.trace:
            from spans import Tracer, install

            tracer = Tracer()
            install(tracer)
            tracer.watch_gc()
        cls = ColdTenants if args.workload == "cold_tenants" else BatchAllTypes
        result = run_in_process(cls(args.seed, args.seconds, tiny), args, tracer)
        if tracer is not None:
            WORK.mkdir(exist_ok=True)
            tracer.dump(str(WORK / f"spans-{args.workload}.jsonl"))
    emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
