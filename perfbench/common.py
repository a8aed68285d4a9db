"""Shared helpers: statistics, the noise calibration loop, the oracle
cache, child processes and the result line.

Nothing here imports ``repro``: the workload modules do, after
:func:`require_source` has put the checkout's ``src`` on the path.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout (ignored by git): the oracle cache,
#: daemon persist directories.
WORK = BENCH_DIR / ".work"
ORACLE_REFS = BENCH_DIR / "oracle_refs.json"
ORACLE_CACHE = WORK / "oracle_cache.json"


def require_source() -> None:
    """Put ``src`` on the import path, or fail before any measurement."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no repro package under {SRC}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH", "")]))
    return env


# -- statistics ---------------------------------------------------------
def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, -(-len(ordered) * q // 100))  # ceil(n * q / 100)
    return float(ordered[int(rank) - 1])


def peak_rss_mb() -> float:
    """This process's peak resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak RSS of another process, from ``/proc/<pid>/status`` (VmHWM)."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# -- machine speed and the noise record -------------------------------------
#: Nominal time (ms) of one calibration loop.  Every time the benchmark
#: reports is scaled to this speed (see :class:`SpeedGauge`).
REFERENCE_LOOP_MS = 10.0


def _calibration_body() -> int:
    total = 0
    table: dict[int, int] = {}
    for i in range(60_000):
        total += (i * i) % 7
        table[i & 1023] = total
    return total + len(table)


def cpus() -> tuple[int, int]:
    """(the CPU the measured work runs on, the CPU the load generator
    runs on); the same CPU when only one is allowed."""
    allowed = sorted(os.sched_getaffinity(0))
    return allowed[0], allowed[-1]


@contextmanager
def on_cpu(cpu: int):
    """Run the calling thread on ``cpu`` only, for the block."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


class SpeedGauge:
    """The current speed of one CPU, read from a fixed pure-Python loop.

    On a shared host each CPU's own speed drifts: on the 2-core
    reference machine the loop took 8.7 ms in one few-second window and
    13.7 ms in another half a minute later, with its CPU time equal to
    its wall time, and readings taken 35 ms apart on the two CPUs
    correlated at 0.12.  A raw time then tells the minute it was taken
    in more than the commit.  So the measured work runs on one CPU, the
    gauge reads that CPU, and times are reported at the loop's nominal
    speed, ``raw * REFERENCE_LOOP_MS / reading``, where the reading is
    taken next to the work:

    * many short stretches (batch passes, serve load segments and
      restarts) are each bracketed by two readings, and scaled by their
      mean (:meth:`scale`); the median over stretches then drops the
      stretches a reading misjudged;
    * a phase of few, longer stretches (fresh interpreters, daemon
      boots) is read before, between and after its stretches, and all
      of its times are scaled by the median of those readings
      (:meth:`phase_scale`); for fresh interpreters this spread less
      over five seeds than scaling each one (0.13 against 0.15).

    A commit that makes the work slower raises the reported time; a
    slower minute raises the readings as well and cancels out.  The
    readings themselves are the noise record: printed with every run,
    never gated.
    """

    def __init__(self, cpu: int) -> None:
        self.cpu = cpu
        self.readings: list[float] = []

    def read(self) -> float:
        """One reading (ms) on the gauge's CPU: the fastest of three
        loops, which drops the ones an interrupt landed in."""
        samples = []
        with on_cpu(self.cpu):
            for _ in range(3):
                start = time.perf_counter()
                _calibration_body()
                samples.append((time.perf_counter() - start) * 1000.0)
        self.readings.append(min(samples))
        return self.readings[-1]

    @staticmethod
    def scale(before: float, after: float) -> float:
        """Factor from raw times to times at the nominal speed."""
        return 2.0 * REFERENCE_LOOP_MS / (before + after)

    def phase_scale(self, since: int) -> float:
        """Factor for a phase whose readings start at index ``since``."""
        return REFERENCE_LOOP_MS / median(self.readings[since:])

    def bracket(self, work):
        """Run ``work()``; returns its value and the factor for its times."""
        before = self.read()
        value = work()
        return value, self.scale(before, self.read())

    def note(self) -> str:
        values = self.readings
        return (
            f"noise calib_ms median={median(values):.2f} min={min(values):.2f} "
            f"max={max(values):.2f} readings={len(values)}"
        )


# -- digests and the oracle cache ---------------------------------------
def text_digest(*parts: str) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode())
        digest.update(b"\x00")
    return digest.hexdigest()


def rows_digest(rows) -> str:
    """Order-independent digest of a set of answer rows."""
    digest = hashlib.sha256()
    for text in sorted(repr(tuple(row)) for row in rows):
        digest.update(text.encode())
    return digest.hexdigest()


def _load_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return {}


def cached_oracle(keys: list[str], compute) -> dict[str, str]:
    """Reference digests for ``keys`` (input digests).

    Looked up in the committed ``oracle_refs.json`` first, then in the
    checkout-local cache; whatever is missing comes from ``compute()``
    (naive interpreted evaluation, run in a child process) and is added
    to the local cache.
    """
    known = {**_load_json(ORACLE_REFS), **_load_json(ORACLE_CACHE)}
    if all(key in known for key in keys):
        return {key: known[key] for key in keys}
    fresh = compute()
    missing = [key for key in keys if key not in fresh]
    if missing:
        raise RuntimeError(f"oracle produced no reference for {len(missing)} unit(s)")
    WORK.mkdir(parents=True, exist_ok=True)
    cache = _load_json(ORACLE_CACHE)
    cache.update(fresh)
    tmp = ORACLE_CACHE.with_suffix(".tmp")
    tmp.write_text(json.dumps(cache, sort_keys=True))
    os.replace(tmp, ORACLE_CACHE)
    return {key: fresh[key] for key in keys}


# -- child processes ----------------------------------------------------
def run_child(args: list[str], timeout: float) -> tuple[dict, float]:
    """Run ``run.py`` with ``args`` in a fresh interpreter.

    Returns the child's last-line JSON and the wall time from spawn to
    exit (interpreter start, imports and the child's work).
    """
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), *args],
        env=child_env(),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"child {args} failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), elapsed


class CountingSink:
    """A trace sink that counts records by name and sums their ``bytes``
    attribute (bounded memory, unlike a ring buffer)."""

    def __init__(self) -> None:
        self.names: Counter = Counter()
        self.bytes: Counter = Counter()

    def emit(self, event) -> None:
        self.names[event.name] += 1
        self.bytes[event.name] += event.attrs.get("bytes", 0)


# -- the result line ----------------------------------------------------
class Outcome:
    """What one run attempted, what failed, and what it measured."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []
        self.metrics: dict[str, tuple[float, str]] = {}

    def check(self, label: str, got: str, want: str) -> None:
        """Count one checked unit; a mismatch fails the run."""
        self.attempted += 1
        if got != want:
            self.failed += 1
            self.mismatches.append(label)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    @property
    def correct(self) -> bool:
        return not self.mismatches and self.failed == 0 and self.attempted > 0

    def line(self) -> str:
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in self.metrics.items()
                },
            }
        )
