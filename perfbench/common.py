"""Shared pieces of the benchmark: inputs, statistics, process facts.

Everything here is deterministic given the workload seed: the same seed
gives the same sessions, tenants, questions, profile deltas and request
schedule, so two commits are measured on identical inputs.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import platform
import random
import resource
import subprocess
import sys
import time
from array import array
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space for snapshots, spans and per-run results (git-ignored).
WORK = ROOT / ".perfbench-work"

WORKLOADS = ("warm_http", "cold_tenants", "batch_all_types")

# ---------------------------------------------------------------------------
# Input pools.  Every question was checked to answer, under every
# explanation type, for every registered persona; every delta adds at
# least one triple for every persona (none of them already holds it), so
# an update is never a no-op.  Which persona asks which question is fixed;
# seeds change the order of requests and the pairing of updates, so every
# seed runs the same scenarios.
# ---------------------------------------------------------------------------
#: Six questions per competency question kind: CQ1 why, CQ2 why-over,
#: CQ3 what-if.
QUESTIONS = (
    tuple(f"Why should I eat {recipe}?" for recipe in (
        "Cauliflower Potato Curry", "Butternut Squash Soup", "Lentil Soup",
        "Spinach Frittata", "Pumpkin Risotto", "Minestrone Soup")),
    tuple(f"Why should I eat {primary} over {secondary}?" for primary, secondary in (
        ("Butternut Squash Soup", "Broccoli Cheddar Soup"),
        ("Lentil Soup", "Beef Tacos"),
        ("Chickpea Spinach Stew", "Shrimp Stir Fry"),
        ("Tofu Scramble", "Bacon Egg Breakfast Sandwich"),
        ("Black Bean Tacos", "Shrimp Tacos"),
        ("Vegetarian Lentil Curry", "Turkey Chili"))),
    ("What if I was pregnant?", "What if I was diabetic?", "What if I was hypertensive?",
     "What if I was lactose intolerant?", "What if I was celiac?",
     "What if I had high cholesterol?"),
)
#: Profile deltas ``(field, value)`` an update adds.
DELTAS = (
    ("likes", "Caprese Salad"), ("likes", "Wild Rice Cranberry Pilaf"),
    ("likes", "Roasted Beet Salad"), ("dislikes", "Celery"),
    ("dislikes", "Cabbage"), ("allergies", "Walnuts"),
    ("allergies", "Almonds"), ("goals", "weight_loss"),
)
#: The nine explanation types, as ``ExplanationEngine.supported_explanation_types``.
EXPLANATION_TYPES = (
    "case_based", "contextual", "contrastive", "counterfactual", "everyday",
    "scientific", "simulation_based", "statistical", "trace_based",
)
PROFILE_FIELDS = ("likes", "dislikes", "allergies", "diets", "conditions", "goals")


def persona_scenarios(personas: Sequence[str], rng: random.Random) -> List[Tuple[str, str]]:
    """One ``(persona, question)`` per persona and CQ kind, in a seeded
    order.  Persona *i* always asks question *i* of each kind: the pairing
    sets how much work a scenario is, so it does not depend on the seed."""
    out = [(key, questions[index % len(questions)])
           for questions in QUESTIONS for index, key in enumerate(personas)]
    rng.shuffle(out)
    return out


def dealt(pool: Sequence, count: int, rng: random.Random) -> list:
    """``count`` items of ``pool``: whole seeded permutations back to back,
    so every item is used equally often (to within one round)."""
    out: list = []
    while len(out) < count:
        out += rng.sample(list(pool), len(pool))
    return out[:count]


def grow(profile: Dict[str, Tuple[str, ...]], delta: Tuple[str, str]) -> Dict[str, Tuple[str, ...]]:
    """The profile fields after an update adds ``delta`` (append if new)."""
    name, value = delta
    grown = dict(profile)
    if value not in grown[name]:
        grown[name] = grown[name] + (value,)
    return grown


def profile_fields(user) -> Dict[str, Tuple[str, ...]]:
    return {name: tuple(getattr(user, name)) for name in PROFILE_FIELDS}


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------
#: A tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no samples")
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """``(value, percentile)``: the highest percentile with at least
    :data:`TAIL_BEYOND` samples beyond it.  With too few samples for any
    such percentile (tiny smoke runs only) it is the maximum, at 100."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail of no samples")
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    index = n - TAIL_BEYOND - 1
    return ordered[index], 100.0 * (index + 1) / n


# ---------------------------------------------------------------------------
# Host-speed calibration
# ---------------------------------------------------------------------------
#: Iterations of the compute loop; entries (4 MiB of 8-byte slots) and
#: steps of the pointer chase; and the probe's time in ms on a quiet
#: 2-vCPU x86-64 VM (Intel Xeon, Python 3.11): about 7.5 ms of loop and
#: 1.5 ms of chase.  Host-normalised times are expressed at that speed.
CALIBRATION_ITERATIONS = 60_000
CHASE_ENTRIES = 1 << 19
CHASE_STEPS = 20_000
CALIBRATION_NOMINAL_MS = 9.0


def _calibration_loop(iterations: int) -> int:
    """Fixed pure-Python work (dict stores and integer arithmetic) that
    shares no state with the program under test."""
    total = 0
    slots: Dict[int, int] = {}
    for i in range(iterations):
        slots[i % 1000] = i
        total += i * i % 7
    return total


@functools.lru_cache(maxsize=None)
def _chase_table() -> array:
    """One cycle through all :data:`CHASE_ENTRIES` slots in the order of
    a full-period LCG (odd increment, multiplier 1 mod 4), so successive
    steps land far apart and the hardware prefetcher cannot follow.  An
    array of machine integers: the garbage collector never scans it."""
    mask = CHASE_ENTRIES - 1
    table = array("l", bytes(8 * CHASE_ENTRIES))
    for i in range(CHASE_ENTRIES):
        table[i] = (1103515245 * i + 12345) & mask
    return table


def _chase_loop(steps: int) -> int:
    """Memory-latency-bound work, like the garbage collector's walk over
    a large heap: each step's address depends on the previous load."""
    table = _chase_table()
    slot = 0
    for _ in range(steps):
        slot = table[slot]
    return slot


def host_probe() -> float:
    """How long the calibration work takes now, in ms: the compute loop
    plus the pointer chase, each the faster of two passes (about 20 ms in
    all).

    Shared hosts run the same code 20-70% slower in spells of seconds to
    minutes, and memory-bound code slows down differently from
    compute-bound code.  Timing both next to a measurement shows the
    speed the measurement ran at.
    """
    _chase_table()
    best_loop = best_chase = math.inf
    for _ in range(2):
        start = time.perf_counter()
        _calibration_loop(CALIBRATION_ITERATIONS)
        middle = time.perf_counter()
        _chase_loop(CHASE_STEPS)
        best_loop = min(best_loop, middle - start)
        best_chase = min(best_chase, time.perf_counter() - middle)
    return (best_loop + best_chase) * 1000.0


def host_scale(before_ms: float, after_ms: float) -> float:
    """Factor that turns a wall time measured between two probes into a
    host-normalised time: the time it would have taken with the host at
    its nominal speed."""
    return CALIBRATION_NOMINAL_MS / ((before_ms + after_ms) / 2.0)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def peak_rss_mb() -> float:
    """This process's resident-set high-water mark, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Run hygiene
# ---------------------------------------------------------------------------
def hardware_fingerprint() -> Dict[str, object]:
    """Cores, Python, platform and the source revision the run measured.

    Benchmark checkouts need not be git repositories, so besides the
    commit (when git can tell it) the digest of every file under ``src/``
    identifies the code measured.
    """
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                   capture_output=True, text=True, timeout=10)
            if probe.returncode == 0:
                commit = probe.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


def child_env() -> Dict[str, str]:
    """Environment for benchmark subprocesses: ``src/`` importable, no
    inherited fault injection or hash-seed drift."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env.pop("REPRO_FAULTS", None)
    return env


def use_src() -> None:
    """Make ``import repro`` resolve to this checkout's ``src/``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def emit(payload: Dict[str, object]) -> None:
    """Print one JSON object as the last line of standard output."""
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    sys.stdout.flush()
