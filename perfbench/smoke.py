"""Smoke test of the benchmark itself: every workload at tiny size.

    python3 perfbench/smoke.py

For each workload it checks that ``--trace 0`` emits every end-to-end
metric of ``BENCHMARK.json`` and ``--trace 1`` every per-layer metric,
each with its unit and a finite value (end-to-end values also nonzero),
with every answer correct; that a deliberately corrupted reference answer
is counted as a failure; and that without the program's source the
benchmark fails instead of printing a result.  Exits 0 when all pass.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

from common import BENCH_DIR, ROOT, WORK, WORKLOADS

SEED = 7


def run(root, workload: str, trace: int, *extra: str):
    command = [sys.executable, str(root / BENCH_DIR.name / "run.py"),
               "--workload", workload, "--seed", str(SEED), "--seconds", "1",
               "--trace", str(trace), "--size", "tiny", *extra]
    return subprocess.run(command, capture_output=True, text=True, timeout=300, cwd=str(root))


def result_of(proc) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(result: dict, wanted: list, nonzero: bool) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, sorted(result)
    assert result["correct"] is True and result["failed"] == 0, result
    assert result["attempted"] >= 1
    units = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert units == {entry["name"]: entry["unit"] for entry in wanted}, units
    for name, entry in result["metrics"].items():
        value = entry["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), (name, value)
        assert value != 0 or not nonzero, f"{name} is 0"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []

    def check(label: str, fn) -> None:
        try:
            fn()
            print(f"ok    {label}")
        except AssertionError as exc:
            failures.append(label)
            print(f"FAIL  {label}: {exc}")

    for workload in WORKLOADS:
        check(f"{workload} end-to-end metrics",
              lambda: check_metrics(result_of(run(ROOT, workload, 0)),
                                    spec["end_to_end"], nonzero=True))
        check(f"{workload} per-layer metrics",
              lambda: check_metrics(result_of(run(ROOT, workload, 1)),
                                    spec["per_layer"], nonzero=False))

        def corrupted() -> None:
            result = result_of(run(ROOT, workload, 0, "--corrupt-reference"))
            assert result["correct"] is False and result["failed"] >= 1, result

        check(f"{workload} counts a corrupted reference answer", corrupted)

    def without_source() -> None:
        bare = WORK / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
            shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run(bare, WORKLOADS[0], 0)
            assert proc.returncode != 0, "succeeded without the program's source"
            assert '"metrics"' not in proc.stdout, "printed a result"
        finally:
            shutil.rmtree(bare, ignore_errors=True)

    check("fails without the program's source", without_source)
    print("smoke: " + ("all checks passed" if not failures else f"{len(failures)} failed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
