"""The warm_http process under test: a snapshot-booted fleet behind HTTP.

``python3 perfbench/server.py SPEC [--trace]`` loads the snapshot named
in the JSON spec, boots a :class:`ShardedExplanationService` from it,
prebuilds every session scenario the spec lists on its home shard, starts
an :class:`ExplanationServer` on an ephemeral port and prints
``ready <port>``.  It then reads commands from standard input:

``timed``  the measured phase starts (counters are sampled, spans after
           this are the timed ones);
``done``   the measured phase ends;
``stop``   (or end of input) drain, stop, write the result file, exit.

With ``--trace`` every layer is wrapped (see ``spans.py``) and the spans
are written to the spec's ``spans`` path when the server stops.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from common import peak_rss_mb, use_src

use_src()

NUM_SHARDS = 2
WORKERS_PER_SHARD = 2
#: Scenario and closure cache entries per shard: room for every session
#: scenario plus every update of a run, so each ask is a cache hit.
CACHE_ENTRIES = 256


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    tracer = None
    if "--trace" in sys.argv[2:]:
        from spans import Tracer, install

        tracer = Tracer()
        install(tracer)
        tracer.watch_gc()

    import importlib

    from repro.core.questions import parse_question
    from repro.service import ShardedExplanationService
    from repro.service.server import ExplanationServer
    from repro.users.personas import persona
    from spans import counters, layer_metrics

    snapshot = importlib.import_module("repro.storage.snapshot")
    loaded = snapshot.load_snapshot(spec["snapshot"])
    fleet = ShardedExplanationService(
        num_shards=NUM_SHARDS, workers_per_shard=WORKERS_PER_SHARD, snapshot=loaded,
        max_cached_scenarios=CACHE_ENTRIES, closure_cache_size=CACHE_ENTRIES)
    fleet.warm([(parse_question(question),) + persona(key) for key, question in spec["warm"]])
    server = ExplanationServer(fleet, port=0).start()
    services = [shard.service for shard in fleet.shards]
    print(f"ready {server.port}", flush=True)

    before = after = {}
    for line in sys.stdin:
        command = line.strip()
        if command == "timed":
            before = counters(services, fleet)
            if tracer is not None:
                tracer.phase = "timed"
        elif command == "done":
            if tracer is not None:
                tracer.phase = "done"
            after = counters(services, fleet)
        elif command == "stop":
            break
    server.stop(timeout=10.0)

    result = {"peak_rss_mb": peak_rss_mb()}
    if tracer is not None:
        timed = tracer.summary("timed")
        requests = int(timed.get("service.server", {}).get("calls", 0))
        layers = layer_metrics(tracer, before, after, requests)
        splits = tracer.request_splits()
        count = max(len(splits), 1)
        layers["service.queue_wait_ms"] = sum(s[1] for s in splits) * 1000.0 / count
        # A timed ask's server time that no layer span covers: between the
        # shard worker finishing and the fleet call returning the result.
        layers["trace.unattributed_ms"] = sum(
            fleet_s - wait_s - service_s for fleet_s, wait_s, service_s in splits
        ) * 1000.0 / count
        result["layers"] = layers
        result["fleet_ask_ms"] = sum(s[0] for s in splits) * 1000.0 / count
        tracer.dump(spec["spans"])
    with open(spec["result"], "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
