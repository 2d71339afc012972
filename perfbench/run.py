"""The repository's benchmark: one command, three workloads, traced layers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload runs in fresh subprocesses (``worker.py``; for
``warm_http`` also the ``server.py`` process under test) that get only
the inputs generated from ``--seed``.  Every answer is compared with a
reference answer from a fresh single-threaded ``ExplanationEngine``
outside the timed region; failures and wrong answers are counted.
Compute-bound times (every set-up; requests of the in-process workloads)
are host-normalised with the probes of ``common.host_probe``.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the workload untraced and then traced, and prints the
per-layer metrics of the traced run plus ``trace.overhead_pct``, the
traced run's median ask latency over the untraced one's.  The last line
of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``;
the lines before it are a readable table, the workload's loop and sizes,
and the hardware fingerprint.  A full record of the run is also written
to ``.perfbench-work/results/``.

``--size tiny`` is the smoke size (``smoke.py``); ``--corrupt-reference``
corrupts one reference answer so the correctness check can be tested.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from typing import Dict, List

from common import (
    BENCH_DIR, ROOT, SRC, WORK, WORKLOADS, child_env, emit, hardware_fingerprint,
    host_probe, host_scale, median, ratio, tail,
)

#: Every workload run (all its subprocesses) must end within this.
RUN_DEADLINE_S = 170.0
#: In-process workloads take their set-up samples from this many
#: set-up-only runs (``warm_http`` boots its server as often itself).
IN_PROCESS_SETUP_REPEATS = 5


class RunError(Exception):
    pass


def run_worker(args, deadline: float, trace: bool, setup_only: bool = False) -> Dict:
    command = [sys.executable, str(BENCH_DIR / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(int(trace)),
               "--size", args.size]
    if setup_only:
        command.append("--setup-only")
    if args.corrupt_reference:
        command.append("--corrupt-reference")
    t0 = time.monotonic()
    command += ["--t0", repr(t0)]
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=child_env(), cwd=str(ROOT))
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunError(f"{args.workload} worker exceeded the run deadline")
    if proc.returncode != 0:
        raise RunError(f"{args.workload} worker exited with {proc.returncode}:\n"
                       + err[-3000:])
    lines = out.strip().splitlines()
    if not lines:
        raise RunError(f"{args.workload} worker printed no result:\n" + err[-3000:])
    return json.loads(lines[-1])


def end_to_end(result: Dict, setup_samples: List[float]) -> Dict[str, float]:
    ask_ms = [value * 1000.0 for value in result["ask_s"]]
    update_ms = [value * 1000.0 for value in result["update_s"]]
    return {
        "setup_s": median(setup_samples),
        "ask_p50_ms": median(ask_ms),
        "ask_tail_ms": tail(ask_ms)[0],
        "update_p50_ms": median(update_ms),
        "update_tail_ms": tail(update_ms)[0],
        "throughput_rps": result["throughput_rps"],
        "peak_rss_mb": result["peak_rss_mb"],
    }


def describe(result: Dict, why: str) -> List[str]:
    """The workload, sizes and tail percentiles behind this run's numbers."""
    asks, updates = len(result["ask_s"]), len(result["update_s"])
    return [
        f"why: {why}",
        f"requests: {asks} asks + {updates} updates; "
        f"ask_tail_ms = p{tail(result['ask_s'])[1]:.1f}, "
        f"update_tail_ms = p{tail(result['update_s'])[1]:.1f} "
        f"(highest percentile with >= 10 samples beyond it)",
        f"failed_ratio: {ratio(result['failed'], result['attempted']):.4f} "
        f"({result['failed']} failed of {result['attempted']}, "
        f"{result['wrong']} wrong answers)",
    ] + [f"error: {message}" for message in result["errors"]]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--corrupt-reference", action="store_true")
    args = parser.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's source is missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    deadline = time.monotonic() + RUN_DEADLINE_S

    try:
        main_run = run_worker(args, deadline, trace=False)
        runs = [main_run]
        if args.trace:
            traced = run_worker(args, deadline, trace=True)
            runs.append(traced)
            values = dict(traced["layers"])
            untraced_p50, traced_p50 = median(main_run["ask_s"]), median(traced["ask_s"])
            values["trace.overhead_pct"] = (traced_p50 - untraced_p50) / untraced_p50 * 100.0
            wanted = spec["per_layer"]
        else:
            # warm_http reports its (normalised) server boots itself.
            setup_samples = list(main_run["setup_s"])
            if args.workload != "warm_http":
                setup_samples = []
                for _ in range(IN_PROCESS_SETUP_REPEATS):
                    probe = host_probe()
                    setup_s, = run_worker(args, deadline, trace=False,
                                          setup_only=True)["setup_s"]
                    setup_samples.append(setup_s * host_scale(probe, host_probe()))
            values = end_to_end(main_run, setup_samples)
            wanted = spec["end_to_end"]
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = {entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]}
               for entry in wanted}
    fingerprint = hardware_fingerprint()
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    why = next(entry["why"] for entry in spec["workloads"] if entry["name"] == args.workload)
    for line in describe(main_run, why):
        print("  " + line)
    for name, entry in metrics.items():
        print(f"  {name:34s} {entry['value']:14.4f} {entry['unit']}")
    print("  hardware: " + json.dumps(fingerprint, sort_keys=True))
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    correct = all(run["wrong"] == 0 for run in runs)
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record = {"args": vars(args), "hardware": fingerprint, "metrics": metrics,
              "runs": runs}
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    emit({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics})
    return 0


if __name__ == "__main__":
    sys.exit(main())
