"""The engine benchmark harness behind ``repro bench``.

Runs a fixed suite of evaluation workloads on both engines and reports
wall-clock timings, the
:class:`~repro.datalog.evaluation.EvaluationStats` work counters, and a
fixpoint digest per engine:

* ``interpreted`` — the tuple-at-a-time interpreter over row storage
  (dict environments, greedy bound-count join order): the reference;
* ``slots`` — the compiled engine: cost-ordered plans executed as one
  block kernel per join step per delta block over columnar storage
  (the default engine; see ``docs/storage.md``).

Every engine must compute **byte-identical fixpoints** (same IDB facts
on every workload); :func:`run_bench` flags any mismatch and the CLI
exits non-zero — this is the correctness gate CI runs via
``repro bench --json --quick``.  Timings are the minimum over
``repeat`` runs, each on a fresh database copy so lazily built indexes
are rebuilt (index cost is part of the engine).

``repro bench --json`` writes the full payload to ``BENCH_results.json``
— the repo's tracked perf baseline (see ``docs/performance.md``).
"""

from __future__ import annotations

import json
import random
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence

from .datalog.database import Database
from .datalog.evaluation import ENGINE_STORAGE, EvaluationStats, evaluate
from .datalog.program import Program
from .digest import fixpoint_digest
from .magic import run_pipeline
from .robustness import Budget, BudgetExceededError, Governor
from .workloads.generators import (
    ab_database,
    flight_database,
    good_path_database,
    same_generation_database,
    taint_database,
)
from .workloads.programs import (
    ab_transitive_closure,
    flight_routes,
    good_path,
    good_path_order_constraints,
    same_generation,
    taint_analysis,
)

__all__ = [
    "ENGINE_CONFIGS",
    "BenchUnit",
    "build_workloads",
    "run_bench",
    "render_results",
    "write_results",
]

#: label -> evaluate() keyword arguments, in report order.
ENGINE_CONFIGS: tuple[tuple[str, dict[str, str]], ...] = (
    ("interpreted", {"engine": "interpreted"}),
    ("slots", {"engine": "slots"}),
)


@dataclass(frozen=True)
class BenchUnit:
    """One (program, database) evaluation inside a workload."""

    label: str
    program: Program
    make_database: Callable[[], Database]


def _colored_edges(colors: int, nodes: int, edges: int, seed: int = 0) -> Database:
    """Random forward (acyclic) edges for each color predicate ``e{i}``."""
    rng = random.Random(seed)
    db = Database()
    for color in range(colors):
        added = 0
        while added < edges:
            left = rng.randrange(nodes - 1)
            right = rng.randrange(left + 1, nodes)
            if db.add_row(f"e{color}", (left, right)):
                added += 1
    return db


def _colored_closure_program(colors: int) -> Program:
    from .datalog.parser import parse_program

    rules = []
    for color in range(colors):
        rules.append(f"p(X, Y) :- e{color}(X, Y).")
        rules.append(f"p(X, Y) :- e{color}(X, Z), p(Z, Y).")
    return parse_program("\n".join(rules), query="p")


def _magic_units(quick: bool) -> list[BenchUnit]:
    """The bound-query workloads, magic-transformed (magic-only pipeline).

    Magic programs are where join order matters most: their rules guard
    large recursive literals with small magic relations, and several
    body literals become fully bound once the magic binding is read.
    """
    from .datalog.atoms import Atom
    from .datalog.terms import Constant, Variable

    def bound(predicate: str, constant, arity: int = 2) -> Atom:
        args = (Constant(constant),) + tuple(
            Variable(f"V{i}") for i in range(arity - 1)
        )
        return Atom(predicate, args)

    units: list[BenchUnit] = []

    program, ics = ab_transitive_closure()
    ab_kwargs = dict(num_b=20, num_a=20, branching=2) if quick else dict(
        num_b=60, num_a=60, branching=3
    )
    report = run_pipeline(program, ics, bound("p", 0), order="magic-only")
    assert report.program is not None
    units.append(
        BenchUnit("magic-ab", report.program, lambda k=ab_kwargs: ab_database(seed=0, **k))
    )

    program, ics = good_path_order_constraints()
    gp_kwargs = dict(num_chains=2, chain_length=10) if quick else dict(
        num_chains=4, chain_length=30
    )
    gp_db = good_path_database(seed=0, **gp_kwargs)
    start = min(row[0] for row in gp_db.relation("startPoint", 1))
    report = run_pipeline(program, ics, bound("goodPath", start), order="magic-only")
    assert report.program is not None
    units.append(
        BenchUnit(
            "magic-goodPath",
            report.program,
            lambda k=gp_kwargs: good_path_database(seed=0, **k),
        )
    )

    program, ics = same_generation()
    sg_kwargs = dict(depth=4, fanout=2) if quick else dict(depth=6, fanout=2)
    report = run_pipeline(program, ics, bound("query", 2), order="magic-only")
    assert report.program is not None
    units.append(
        BenchUnit(
            "magic-sg",
            report.program,
            lambda k=sg_kwargs: same_generation_database(seed=0, **k),
        )
    )
    return units


def build_workloads(*, quick: bool = False) -> dict[str, list[BenchUnit]]:
    """The benchmark suite: workload name -> evaluation units.

    ``quick`` shrinks every workload to CI-smoke size (the fixpoint
    gate is just as strict; only the timings lose meaning).
    """
    # The full scaling workload is deliberately dense *and* deep
    # (degree ~17 over 350 nodes): density multiplies the join work per
    # accepted fact and depth multiplies the semi-naive rounds — both
    # are work the sharded evaluator parallelizes, while the closure
    # size (the merge work the master serializes) grows only with the
    # node count — see docs/parallel.md.
    colors, nodes, edges = (2, 24, 30) if quick else (3, 350, 6000)
    scaling_program = _colored_closure_program(colors)

    gp_program, _ = good_path()
    gp_kwargs = dict(num_chains=2, chain_length=12) if quick else dict(
        num_chains=6, chain_length=45
    )
    ab_program, _ = ab_transitive_closure()
    ab_kwargs = dict(num_b=20, num_a=20, branching=2) if quick else dict(
        num_b=55, num_a=55, branching=3
    )
    sg_program, _ = same_generation()
    sg_kwargs = dict(depth=4, fanout=2) if quick else dict(depth=6, fanout=2)
    taint_program, _ = taint_analysis()
    taint_kwargs = dict(variables=30, flows=60) if quick else dict(
        variables=130, flows=420
    )
    flight_program, _ = flight_routes()
    flight_kwargs = dict(cities=12, segments=40) if quick else dict(
        cities=30, segments=160
    )

    return {
        "bench_scaling": [
            BenchUnit(
                "colored-closure",
                scaling_program,
                lambda: _colored_edges(colors, nodes, edges, seed=0),
            )
        ],
        "bench_magic": _magic_units(quick),
        "bench_example31": [
            BenchUnit(
                "good-path",
                gp_program,
                lambda: good_path_database(seed=0, **gp_kwargs),
            )
        ],
        "bench_ab": [
            BenchUnit("ab-closure", ab_program, lambda: ab_database(seed=0, **ab_kwargs))
        ],
        "bench_sg": [
            BenchUnit(
                "same-generation",
                sg_program,
                lambda: same_generation_database(seed=0, **sg_kwargs),
            )
        ],
        "bench_taint": [
            BenchUnit(
                "taint", taint_program, lambda: taint_database(seed=0, **taint_kwargs)
            )
        ],
        "bench_flight": [
            BenchUnit(
                "flight-routes",
                flight_program,
                lambda: flight_database(seed=0, **flight_kwargs),
            )
        ],
    }


# The one shared fixpoint digest (also used by persist and serve), so
# the committed BENCH_results.json digests, the checkpoint-resume gate
# and the serving smoke all compare the same bytes.
_fixpoint_digest = fixpoint_digest


def _run_engine(
    units: Sequence[BenchUnit],
    engine_kwargs: Mapping[str, str],
    repeat: int,
    governor: Governor | None = None,
):
    """Time ``repeat`` full-suite runs; return (best s, stats, digest, tripped).

    Stats and the fixpoint digest come from the first run — they are
    deterministic, only the wall clock varies.  With a governor, a
    budget trip keeps the partial fixpoint (``tripped`` is True and the
    digest covers only what was derived before the trip)."""
    storage = ENGINE_STORAGE[engine_kwargs["engine"]]
    best = float("inf")
    stats = EvaluationStats()
    digest = ""
    tripped = False
    for attempt in range(repeat):
        # The EDB is built in the engine's storage representation
        # outside the timed region: encoding it is a load-time cost (a
        # resident tenant pays it once at registration), like parsing,
        # not like index builds.
        databases = [unit.make_database().to_storage(storage) for unit in units]
        start = time.perf_counter()
        results = []
        for unit, database in zip(units, databases):
            try:
                results.append(
                    evaluate(unit.program, database, budget=governor, **engine_kwargs)
                )
            except BudgetExceededError as exc:
                tripped = True
                if exc.partial is not None:
                    results.append(exc.partial)
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
        if attempt == 0:
            for result in results:
                stats.merge(result.stats)
            digest = _fixpoint_digest(
                (unit.label, result.idb) for unit, result in zip(units, results)
            )
        if tripped:
            break
    return best, stats, digest, tripped


def _run_parallel(
    units: Sequence[BenchUnit],
    workers: int,
    repeat: int,
    governor: Governor | None = None,
) -> dict:
    """Time ``repeat`` sharded runs of the suite at one worker count.

    The pools (fork + program/EDB/interner shipping) are built outside
    the timed region and reported as ``shard_overhead_seconds`` — they
    are the per-run fixed cost a resident tenant pays once.  Two
    timings come back: ``time_s`` is raw wall clock, and
    ``critical_path_s`` is the modeled multicore critical path
    (master serial time + per-barrier max of worker CPU time) reported
    by :func:`repro.parallel.engine.evaluate_sharded` — on a machine
    with >= ``workers`` free cores the two converge, while on a
    saturated box wall clock only measures time-slicing.  Speedups are
    quoted on the critical-path basis with the wall numbers alongside.
    """
    from .parallel import WorkerPool, evaluate_sharded

    best_wall = float("inf")
    best_crit = float("inf")
    overhead = float("inf")
    stats = EvaluationStats()
    digest = ""
    tripped = False
    for attempt in range(repeat):
        databases = [
            unit.make_database().to_storage("columnar") for unit in units
        ]
        fork_start = time.perf_counter()
        pools = [
            WorkerPool(unit.program, database, workers)
            for unit, database in zip(units, databases)
        ]
        shard_overhead = time.perf_counter() - fork_start
        results = []
        crit = 0.0
        start = time.perf_counter()
        try:
            for unit, database, shard_pool in zip(units, databases, pools):
                try:
                    result = evaluate_sharded(
                        unit.program,
                        database,
                        workers=workers,
                        pool=shard_pool,
                        budget=governor,
                    )
                except BudgetExceededError as exc:
                    tripped = True
                    if exc.partial is not None:
                        results.append(exc.partial)
                        crit += exc.partial.shards["critical_path_seconds"]
                else:
                    results.append(result)
                    crit += result.shards["critical_path_seconds"]
            elapsed = time.perf_counter() - start
        finally:
            for shard_pool in pools:
                shard_pool.close()
        best_wall = min(best_wall, elapsed)
        best_crit = min(best_crit, crit)
        overhead = min(overhead, shard_overhead)
        if attempt == 0:
            for result in results:
                stats.merge(result.stats)
            digest = _fixpoint_digest(
                (unit.label, result.idb) for unit, result in zip(units, results)
            )
        if tripped:
            break
    return {
        "time_s": best_wall,
        "critical_path_s": best_crit,
        "shard_overhead_seconds": overhead,
        "fixpoint_sha256": digest,
        "stats": stats.as_dict(),
        "budget_exceeded": tripped,
    }


def _run_recovery(
    units: Sequence[BenchUnit],
    workers: int,
    repeat: int,
    governor: Governor | None = None,
) -> dict:
    """The cost of surviving one injected worker kill per workload.

    Two timed configurations, both under a chaos tracer so the tracing
    overhead cancels out of the ratio: a *clean* sharded run (nothing
    armed) and a *killed* run where the second ``shard.dispatch``
    occurrence SIGKILLs its worker — the supervisor respawns a warm
    replacement and re-dispatches the lost shard.  ``overhead_ratio``
    is killed/clean wall time (best of ``repeat``); the digests must
    stay byte-identical, which ``run_bench`` folds into the
    cross-engine gate.
    """
    from .parallel import WorkerPool, evaluate_sharded
    from .robustness.faults import FaultInjector, chaos

    def one_pass(inject: bool):
        databases = [
            unit.make_database().to_storage("columnar") for unit in units
        ]
        pools = [
            WorkerPool(unit.program, database, workers)
            for unit, database in zip(units, databases)
        ]
        injector = FaultInjector()
        if inject:
            injector.arm("shard.dispatch", at=2)
        results = []
        tripped = False
        start = time.perf_counter()
        try:
            with chaos(injector):
                for unit, database, shard_pool in zip(units, databases, pools):
                    try:
                        results.append(
                            evaluate_sharded(
                                unit.program,
                                database,
                                workers=workers,
                                pool=shard_pool,
                                budget=governor,
                            )
                        )
                    except BudgetExceededError as exc:
                        tripped = True
                        if exc.partial is not None:
                            results.append(exc.partial)
            elapsed = time.perf_counter() - start
        finally:
            for shard_pool in pools:
                shard_pool.close()
        if inject and not injector.fired:
            raise RuntimeError(
                "recovery bench armed a worker kill that never fired"
            )
        digest = _fixpoint_digest(
            (unit.label, result.idb) for unit, result in zip(units, results)
        )
        restarts = sum(r.stats.worker_restarts for r in results)
        redispatched = sum(r.stats.shards_redispatched for r in results)
        return elapsed, digest, restarts, redispatched, tripped

    clean_s = killed_s = float("inf")
    clean_digest = killed_digest = ""
    restarts = redispatched = 0
    tripped = False
    for attempt in range(repeat):
        elapsed, digest, _, _, one_tripped = one_pass(False)
        clean_s = min(clean_s, elapsed)
        tripped = tripped or one_tripped
        if attempt == 0:
            clean_digest = digest
        elapsed, digest, one_restarts, one_redispatched, one_tripped = one_pass(True)
        killed_s = min(killed_s, elapsed)
        tripped = tripped or one_tripped
        if attempt == 0:
            killed_digest = digest
            restarts = one_restarts
            redispatched = one_redispatched
        if tripped:
            break
    return {
        "workers": workers,
        "clean_s": clean_s,
        "killed_s": killed_s,
        "overhead_ratio": killed_s / clean_s if clean_s > 0 else float("inf"),
        "clean_sha256": clean_digest,
        "fixpoint_sha256": killed_digest,
        "worker_restarts": restarts,
        "shards_redispatched": redispatched,
        "budget_exceeded": tripped,
    }


def _run_checkpoint_overhead(
    units: Sequence[BenchUnit],
    repeat: int,
    governor: Governor | None = None,
) -> dict:
    """Time the same workload at ``checkpoint_every`` 0 / 1 / 10.

    ``0`` is plain in-memory evaluation (no store at all); ``1`` and
    ``10`` run through a :class:`~repro.persist.session.Session` with a
    real on-disk :class:`~repro.persist.store.CheckpointStore` in a
    temporary directory, so the measured overhead includes JSON
    encoding, hashing and the fsync-rename dance.  All three must
    produce the same fixpoint digest — persistence may cost time, never
    answers.
    """
    import tempfile

    from .persist import CheckpointStore, Session

    overhead: dict = {"every": {}}
    for every in (0, 1, 10):
        best = float("inf")
        checkpoints = 0
        digest = ""
        tripped = False
        for attempt in range(repeat):
            with tempfile.TemporaryDirectory() as tmp:
                databases = [unit.make_database() for unit in units]
                results = []
                written = 0
                start = time.perf_counter()
                for unit, database in zip(units, databases):
                    try:
                        if every == 0:
                            results.append(evaluate(unit.program, database, budget=governor))
                        else:
                            outcome = Session(
                                unit.program,
                                database,
                                store=CheckpointStore(tmp),
                                checkpoint_every=every,
                                budget=governor,
                            ).run()
                            written += outcome.checkpoints_written
                            results.append(outcome.result)
                    except BudgetExceededError as exc:
                        tripped = True
                        if exc.partial is not None:
                            results.append(exc.partial)
                elapsed = time.perf_counter() - start
            best = min(best, elapsed)
            if attempt == 0:
                checkpoints = written
                digest = _fixpoint_digest(
                    (unit.label, result.idb)
                    for unit, result in zip(units, results)
                )
            if tripped:
                break
        overhead["every"][str(every)] = {
            "time_s": best,
            "checkpoints": checkpoints,
            "fixpoint_sha256": digest,
            "budget_exceeded": tripped,
        }
    base = overhead["every"]["0"]
    overhead["fixpoints_match"] = (
        None
        if any(entry["budget_exceeded"] for entry in overhead["every"].values())
        else len({entry["fixpoint_sha256"] for entry in overhead["every"].values()}) == 1
    )
    overhead["overhead_vs_memory"] = {
        key: (entry["time_s"] / base["time_s"] if base["time_s"] > 0 else float("inf"))
        for key, entry in overhead["every"].items()
        if key != "0"
    }
    return overhead


def _run_journal(
    units: Sequence[BenchUnit],
    repeat: int,
    governor: Governor | None = None,
    *,
    batches: int = 5,
    rows_per_batch: int = 4,
) -> dict:
    """The write-ahead journal's two durability costs.

    ``fsync_overhead``: the same ingest sequence through a journaled
    session versus one with the journal disabled — the ratio is the
    price of the append+fsync acknowledgment on every ingest.

    ``replay_vs_recompute``: recovery of a journal suffix (checkpoint
    covers only the initial EDB; every ingest is un-checkpointed
    journal records) versus a cold in-memory recompute of the full
    post-ingest fixpoint.  Both paths must land on the same digest —
    replay may cost time, never answers (``digest_match`` is a CI
    gate).
    """
    import tempfile

    from .persist import CheckpointStore, IngestJournal, Session

    unit = units[0]
    sample = unit.make_database()
    predicate = sorted(sample.predicates())[0]
    top = max(
        (row[0] for row in sample.relation(predicate).rows() if isinstance(row[0], int)),
        default=0,
    )

    def ingest_batches() -> list[list[tuple[str, tuple]]]:
        # Fresh chain nodes above the generated graph: every batch
        # extends the closure without colliding with existing rows.
        return [
            [
                (predicate, (top + 1 + batch * rows_per_batch + i,
                             top + 2 + batch * rows_per_batch + i))
                for i in range(rows_per_batch)
            ]
            for batch in range(batches)
        ]

    journal: dict = {"batches": batches, "rows_per_batch": rows_per_batch}
    tripped = False
    digests = {}
    for flavor in ("journaled", "unjournaled"):
        best = float("inf")
        for attempt in range(repeat):
            with tempfile.TemporaryDirectory() as tmp:
                session = Session(
                    unit.program,
                    unit.make_database(),
                    store=CheckpointStore(tmp),
                    journal="auto" if flavor == "journaled" else None,
                    checkpoint_every=0,
                    budget=governor,
                )
                try:
                    session.run()
                    start = time.perf_counter()
                    for batch in ingest_batches():
                        outcome = session.ingest(batch)
                    best = min(best, time.perf_counter() - start)
                except BudgetExceededError:
                    tripped = True
                    break
                if attempt == 0:
                    digests[flavor] = _fixpoint_digest(
                        [(unit.label, outcome.result.idb)]
                    )
            if tripped:
                break
        journal[flavor] = {"ingest_time_s": best}
    journal["fsync_overhead"] = (
        journal["journaled"]["ingest_time_s"]
        / journal["unjournaled"]["ingest_time_s"]
        if journal["unjournaled"]["ingest_time_s"] > 0
        else float("inf")
    )

    replay_best = float("inf")
    recompute_best = float("inf")
    replay_digest = recompute_digest = ""
    replayed = 0
    for attempt in range(repeat):
        with tempfile.TemporaryDirectory() as tmp:
            try:
                # Checkpoint covers only the initial EDB; the ingests
                # live solely in the journal (store-less session
                # sharing the same journal directory).
                Session(
                    unit.program,
                    unit.make_database(),
                    store=CheckpointStore(tmp),
                    checkpoint_every=0,
                    budget=governor,
                ).run()
                writer = Session(
                    unit.program,
                    unit.make_database(),
                    store=None,
                    journal=IngestJournal(Path(tmp) / "journal"),
                    budget=governor,
                )
                writer.run()
                for batch in ingest_batches():
                    writer.ingest(batch)
                writer.journal.close()

                fresh = Session(
                    unit.program,
                    unit.make_database(),
                    store=CheckpointStore(tmp),
                    checkpoint_every=0,
                    budget=governor,
                )
                start = time.perf_counter()
                recovered = fresh.recover()
                replay_best = min(replay_best, time.perf_counter() - start)

                cold_db = unit.make_database()
                for batch in ingest_batches():
                    for pred, row in batch:
                        cold_db.add_row(pred, row)
                start = time.perf_counter()
                cold = evaluate(unit.program, cold_db, budget=governor)
                recompute_best = min(
                    recompute_best, time.perf_counter() - start
                )
            except BudgetExceededError:
                tripped = True
                break
            if attempt == 0:
                replayed = recovered.replayed
                replay_digest = _fixpoint_digest([(unit.label, recovered.result.idb)])
                recompute_digest = _fixpoint_digest([(unit.label, cold.idb)])
    journal["replay"] = {
        "time_s": replay_best,
        "records_replayed": replayed,
        "fixpoint_sha256": replay_digest,
    }
    journal["recompute"] = {
        "time_s": recompute_best,
        "fixpoint_sha256": recompute_digest,
    }
    journal["replay_vs_recompute"] = (
        replay_best / recompute_best if recompute_best > 0 else float("inf")
    )
    journal["budget_exceeded"] = tripped
    journal["digest_match"] = (
        None
        if tripped
        else len({replay_digest, recompute_digest, *digests.values()}) == 1
    )
    return journal


def _serve_workloads(quick: bool) -> dict[str, dict]:
    """Two tenant workloads for the serving benchmark.

    Each is a recursive closure over a seeded random edge set, shipped
    as program/facts *text* (the daemon's wire format) together with
    the goal shapes the clients cycle.  Per tenant the bound-first
    goals share one adornment — the artifact cache collapses them to a
    single compiled pipeline, so almost every request after warmup is
    a cache hit."""

    def edge_facts(predicate: str, nodes: int, edges: int, seed: int) -> str:
        rng = random.Random(seed)
        rows: set[tuple[int, int]] = set()
        while len(rows) < edges:
            left = rng.randrange(nodes - 1)
            rows.add((left, rng.randrange(left + 1, nodes)))
        return "\n".join(f"{predicate}({l}, {r})." for l, r in sorted(rows))

    nodes, edges = (18, 30) if quick else (40, 90)
    return {
        "alpha": {
            "program": "p(X, Y) :- e(X, Y).\np(X, Y) :- e(X, Z), p(Z, Y).",
            "query": "p",
            "facts": edge_facts("e", nodes, edges, seed=11),
            "goals": ["p(0, V)", "p(1, V)", "p(2, V)", f"p(0, {nodes - 1})"],
        },
        "beta": {
            "program": "q(X, Y) :- f(X, Y).\nq(X, Y) :- f(X, Z), q(Z, Y).",
            "query": "q",
            "facts": edge_facts("f", nodes, edges, seed=23),
            "goals": ["q(0, V)", "q(3, V)", "q(5, V)", f"q(1, {nodes - 1})"],
        },
    }


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending-sorted sample."""
    if not sorted_values:
        return 0.0
    rank = int(q * (len(sorted_values) - 1) + 0.5)
    return sorted_values[min(rank, len(sorted_values) - 1)]


def _run_serve_bench(
    *, quick: bool = False, clients: int = 8, rounds: int | None = None
) -> dict:
    """The serving benchmark: a real daemon under concurrent clients.

    Boots the full stack (:class:`~repro.serve.app.ServeApp` behind the
    asyncio HTTP shell) on an ephemeral port, registers two tenants and
    drives ``clients`` concurrent keep-alive clients cycling the
    tenants' bound-goal shapes.  Reports client-observed p50/p99
    latency and throughput, the artifact-cache hit counts observed via
    ``serve.cache`` trace events (repeated shapes must hit), and an
    ``answers_match`` gate: every daemon response must equal the
    single-process pipeline's answers for the same goal — concurrency
    and caching may cost time, never answers.

    Latencies are wall clock (machine-dependent); ``answers_match``
    and the hit/miss split are the deterministic part.
    """
    import asyncio
    import threading

    from .datalog.parser import parse_atom, parse_facts, parse_program
    from .magic.transform import match_query_atom
    from .observability.trace import RingBufferSink, tracing
    from .serve.app import ServeApp
    from .serve.client import ServeClient
    from .serve.http import ServeDaemon
    from .serve.wire import rows_payload

    rounds = rounds if rounds is not None else (6 if quick else 25)
    workloads = _serve_workloads(quick)

    # The single-process ground truth for every (tenant, goal) pair.
    expected: dict[tuple[str, str], list] = {}
    for name, spec in workloads.items():
        program = parse_program(spec["program"], query=spec["query"])
        database = Database(parse_facts(spec["facts"]))
        for goal_text in spec["goals"]:
            goal = parse_atom(goal_text)
            report = run_pipeline(program, (), goal, order="semantic-first")
            assert report.program is not None
            result = evaluate(report.program, database, engine="slots")
            expected[(name, goal_text)] = rows_payload(
                frozenset(
                    row for row in result.query_rows()
                    if match_query_atom(row, goal)
                )
            )

    app = ServeApp()
    daemon = ServeDaemon(app)
    ready = threading.Event()
    loop = asyncio.new_event_loop()

    def _serve() -> None:
        asyncio.set_event_loop(loop)
        loop.run_until_complete(daemon.start())
        ready.set()
        try:
            loop.run_until_complete(daemon.serve_forever())
        except asyncio.CancelledError:
            pass
        finally:
            loop.run_until_complete(daemon.stop())
            loop.close()

    latencies: list[float] = []
    mismatches: list[str] = []
    collect = threading.Lock()
    plan = [
        (name, goal) for name, spec in workloads.items() for goal in spec["goals"]
    ]

    def _client(index: int) -> None:
        local_latencies: list[float] = []
        local_mismatches: list[str] = []
        with ServeClient(daemon.host, daemon.port) as client:
            for step in range(rounds):
                name, goal = plan[(index + step) % len(plan)]
                start = time.perf_counter()
                response = client.query(name, goal)
                local_latencies.append(time.perf_counter() - start)
                if response["answers"] != expected[(name, goal)]:
                    local_mismatches.append(f"{name}:{goal}")
        with collect:
            latencies.extend(local_latencies)
            mismatches.extend(local_mismatches)

    sink = RingBufferSink()
    thread = threading.Thread(target=_serve, name="bench-serve", daemon=True)
    with tracing(sink):
        thread.start()
        if not ready.wait(timeout=30):
            raise RuntimeError("serving benchmark daemon failed to start")
        try:
            with ServeClient(daemon.host, daemon.port) as setup:
                for name, spec in workloads.items():
                    setup.register(
                        name,
                        spec["program"],
                        facts=spec["facts"],
                        query=spec["query"],
                    )
            wall_start = time.perf_counter()
            workers = [
                threading.Thread(target=_client, args=(i,), name=f"bench-client-{i}")
                for i in range(clients)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()
            wall = time.perf_counter() - wall_start
            with ServeClient(daemon.host, daemon.port) as probe:
                stats = probe.stats()
        finally:
            asyncio.run_coroutine_threadsafe(daemon.stop(), loop).result(timeout=30)
            thread.join(timeout=30)

    cache_events = [
        event for event in sink
        if event.kind == "event" and event.name == "serve.cache"
    ]
    trace_hits = sum(1 for event in cache_events if event.attrs.get("hit"))
    trace_misses = len(cache_events) - trace_hits
    ordered = sorted(latencies)
    return {
        "clients": clients,
        "rounds_per_client": rounds,
        "requests": len(latencies),
        "tenants": sorted(workloads),
        "goal_shapes": len(plan),
        "latency_ms": {
            "p50": _percentile(ordered, 0.50) * 1000,
            "p99": _percentile(ordered, 0.99) * 1000,
            "max": (ordered[-1] if ordered else 0.0) * 1000,
            "mean": (sum(ordered) / len(ordered) if ordered else 0.0) * 1000,
        },
        "wall_time_s": wall,
        "throughput_rps": len(latencies) / wall if wall > 0 else float("inf"),
        "cache": stats["cache"],
        "trace_cache_hits": trace_hits,
        "trace_cache_misses": trace_misses,
        "cache_hits_observed": trace_hits > 0,
        "answers_match": not mismatches,
        "mismatched": sorted(set(mismatches)),
    }


def run_bench(
    *,
    workloads: Sequence[str] | None = None,
    quick: bool = False,
    repeat: int = 3,
    timeout: float | None = None,
    max_iterations: int | None = None,
    max_facts: int | None = None,
    workers: int | None = None,
) -> dict:
    """Run the suite; return the JSON-ready results payload.

    ``workers=N`` adds a sharded-evaluation axis to every engine
    workload: each is re-run at worker counts {1, 2, ..., N} (the
    powers of two up to ``N``) with per-count timings, the modeled
    ``critical_path_s``, pool construction cost
    (``shard_overhead_seconds``, outside the timed region) and
    ``speedup_parallel_vs_columnar`` on both the critical-path and
    wall bases.  Sharded digests join the cross-engine fixpoint gate.

    ``payload["ok"]`` is False when any workload's fixpoints differ
    between engines — the CLI turns that into a non-zero exit.

    ``timeout`` / ``max_iterations`` / ``max_facts`` govern the runs
    (the timeout is shared across the whole suite).  An engine entry
    that trips a budget keeps its partial stats; its workload is marked
    ``budget_exceeded`` and its ``fixpoints_match`` becomes ``None``
    (partial fixpoints are not comparable), without flipping
    ``payload["ok"]``.  The CLI exits 1 when any budget tripped."""
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be a positive int, got {workers!r}")
    budget = Budget(
        timeout=timeout, max_iterations=max_iterations, max_facts=max_facts
    )
    governor = None if budget.unlimited else Governor(budget)
    configs = ENGINE_CONFIGS
    suite = build_workloads(quick=quick)
    # ``bench_serve`` is not an engine workload (it benchmarks the
    # daemon, not an evaluate() configuration) but is selectable by
    # name like the others; no filter runs everything including it.
    run_serve = not workloads or "bench_serve" in workloads
    if workloads:
        selected = [name for name in workloads if name != "bench_serve"]
        unknown = [name for name in selected if name not in suite]
        if unknown:
            raise ValueError(
                f"unknown workloads: {', '.join(unknown)} "
                f"(available: {', '.join(sorted([*suite, 'bench_serve']))})"
            )
        suite = {name: suite[name] for name in selected}
    payload: dict = {
        "generated_by": "python -m repro bench --json"
        + (" --quick" if quick else ""),
        "quick": quick,
        "repeat": repeat,
        "engines": [label for label, _ in configs],
        "workers": workers,
        "workloads": {},
        "ok": True,
        "budget_exceeded": False,
    }
    workers_axis: list[int] = []
    if workers is not None:
        count = 1
        while count < workers:
            workers_axis.append(count)
            count *= 2
        workers_axis.append(workers)
    for name, units in suite.items():
        entry: dict = {"units": [unit.label for unit in units], "engines": {}}
        digests: dict[str, str] = {}
        any_tripped = False
        for label, engine_kwargs in configs:
            seconds, stats, digest, tripped = _run_engine(
                units, engine_kwargs, repeat, governor
            )
            digests[label] = digest
            any_tripped = any_tripped or tripped
            entry["engines"][label] = {
                "time_s": seconds,
                "fixpoint_sha256": digest,
                "stats": stats.as_dict(),
                "budget_exceeded": tripped,
            }
        if any_tripped:
            # Partial fixpoints are not comparable across engines: the
            # trip point depends on the engine's work order, so neither
            # flag a mismatch nor certify a match.
            entry["budget_exceeded"] = True
            entry["fixpoints_match"] = None
            payload["budget_exceeded"] = True
        else:
            entry["fixpoints_match"] = len(set(digests.values())) == 1
            if not entry["fixpoints_match"]:
                payload["ok"] = False
        base = entry["engines"]["interpreted"]
        for label, _ in configs[1:]:
            other = entry["engines"][label]
            entry.setdefault("speedup_vs_interpreted", {})[label] = (
                base["time_s"] / other["time_s"] if other["time_s"] > 0 else float("inf")
            )
            entry.setdefault("rows_scanned_vs_interpreted", {})[label] = (
                other["stats"]["rows_scanned"] - base["stats"]["rows_scanned"]
            )
        if workers_axis:
            by_count = {
                str(count): _run_parallel(units, count, repeat, governor)
                for count in workers_axis
            }
            parallel_tripped = any(
                e["budget_exceeded"] for e in by_count.values()
            )
            parallel: dict = {"workers": by_count}
            if any_tripped or parallel_tripped:
                parallel["fixpoints_match"] = None
                if parallel_tripped:
                    entry["budget_exceeded"] = True
                    entry["fixpoints_match"] = None
                    payload["budget_exceeded"] = True
            else:
                # The sharded digests join the cross-engine gate: every
                # worker count must reproduce the sequential fixpoint.
                reference = digests.get("slots") or next(
                    iter(digests.values())
                )
                parallel["fixpoints_match"] = all(
                    e["fixpoint_sha256"] == reference for e in by_count.values()
                )
                if not parallel["fixpoints_match"]:
                    payload["ok"] = False
            columnar = entry["engines"].get("slots")
            if columnar is not None and columnar["time_s"] > 0:
                parallel["speedup_parallel_vs_columnar"] = {
                    # Quoted on the modeled critical path (see
                    # docs/parallel.md): master serial time plus the
                    # per-barrier max of worker CPU time — what the
                    # fleet's wall clock becomes given >= N free cores.
                    # Raw wall-clock ratios ride alongside; on a box
                    # with fewer cores than workers they only measure
                    # time-slicing.
                    "basis": "critical_path",
                    "critical_path": {
                        count: (
                            columnar["time_s"] / e["critical_path_s"]
                            if e["critical_path_s"] > 0
                            else float("inf")
                        )
                        for count, e in by_count.items()
                    },
                    "wall": {
                        count: (
                            columnar["time_s"] / e["time_s"]
                            if e["time_s"] > 0
                            else float("inf")
                        )
                        for count, e in by_count.items()
                    },
                }
            entry["parallel"] = parallel
            # The recovery section: one injected worker kill at the
            # fleet's widest configuration must not change the digest,
            # and its wall-clock overhead is the supervision cost the
            # robustness story pays.
            recovery = _run_recovery(units, workers_axis[-1], repeat, governor)
            if recovery["budget_exceeded"] or any_tripped:
                # Partial fixpoints are not comparable (see above).
                recovery["digest_match"] = None
                if recovery["budget_exceeded"]:
                    entry["budget_exceeded"] = True
                    payload["budget_exceeded"] = True
            else:
                reference = digests.get("slots") or next(
                    iter(digests.values())
                )
                recovery["digest_match"] = (
                    recovery["fixpoint_sha256"] == reference
                    and recovery["clean_sha256"] == reference
                )
                if not recovery["digest_match"]:
                    payload["ok"] = False
            entry["recovery"] = recovery
        payload["workloads"][name] = entry
    if "bench_scaling" in suite:
        payload["checkpoint_overhead"] = dict(
            _run_checkpoint_overhead(suite["bench_scaling"], repeat, governor),
            workload="bench_scaling",
            engine="slots",
        )
        overhead = payload["checkpoint_overhead"]
        if overhead["fixpoints_match"] is False:
            payload["ok"] = False
        if any(e["budget_exceeded"] for e in overhead["every"].values()):
            payload["budget_exceeded"] = True
        payload["journal"] = dict(
            _run_journal(suite["bench_scaling"], repeat, governor),
            workload="bench_scaling",
            engine="slots",
        )
        if payload["journal"]["digest_match"] is False:
            payload["ok"] = False
        if payload["journal"]["budget_exceeded"]:
            payload["budget_exceeded"] = True
    if run_serve:
        payload["serve"] = _run_serve_bench(quick=quick)
        if not payload["serve"]["answers_match"]:
            payload["ok"] = False
    return payload


def render_results(payload: Mapping) -> str:
    """A fixed-width console table of the payload."""
    lines = [
        f"engine benchmark ({'quick' if payload['quick'] else 'full'} suite, "
        f"best of {payload['repeat']}):",
        "",
        f"{'workload':<18} {'engine':<15} {'time(ms)':>9} {'speedup':>8} "
        f"{'rows':>9} {'probes':>9} {'facts':>8}  fixpoint",
    ]
    for name, entry in payload["workloads"].items():
        base_time = entry["engines"]["interpreted"]["time_s"]
        for label, engine in entry["engines"].items():
            speedup = base_time / engine["time_s"] if engine["time_s"] > 0 else float("inf")
            stats = engine["stats"]
            lines.append(
                f"{name:<18} {label:<15} {engine['time_s'] * 1000:9.2f} "
                f"{speedup:7.2f}x {stats['rows_scanned']:9d} "
                f"{stats['probes']:9d} {stats['facts_derived']:8d}  "
                f"{engine['fixpoint_sha256'][:12]}"
            )
        parallel = entry.get("parallel")
        if parallel:
            speedups = parallel.get("speedup_parallel_vs_columnar", {})
            for count in sorted(parallel["workers"], key=int):
                shard = parallel["workers"][count]
                modeled = speedups.get("critical_path", {}).get(count)
                wallx = speedups.get("wall", {}).get(count)
                suffix = (
                    ""
                    if modeled is None
                    else f" {modeled:6.2f}x crit-path, {wallx:.2f}x wall"
                )
                lines.append(
                    f"{name:<18} {'sharded-w' + count:<15} "
                    f"{shard['time_s'] * 1000:9.2f} crit "
                    f"{shard['critical_path_s'] * 1000:8.2f}{suffix}  "
                    f"{shard['fixpoint_sha256'][:12]}"
                )
        recovery = entry.get("recovery")
        if recovery:
            verdict = {True: "digest match", False: "DIGEST MISMATCH", None: "n/a"}[
                recovery.get("digest_match")
            ]
            lines.append(
                f"{name:<18} {'recovery-w' + str(recovery['workers']):<15} "
                f"{recovery['killed_s'] * 1000:9.2f} clean "
                f"{recovery['clean_s'] * 1000:7.2f} "
                f"{recovery['overhead_ratio']:5.2f}x kill-overhead, "
                f"{recovery['worker_restarts']} restart(s), "
                f"{recovery['shards_redispatched']} re-dispatch(es); {verdict}"
            )
        if entry.get("budget_exceeded"):
            lines.append(
                f"{'':<18} budget exceeded — partial fixpoints, not comparable"
            )
        else:
            verdict = "match" if entry["fixpoints_match"] else "DIFFER"
            if parallel and parallel.get("fixpoints_match") is False:
                verdict = "DIFFER (sharded)"
            lines.append(f"{'':<18} fixpoints {verdict}")
    overhead = payload.get("checkpoint_overhead")
    if overhead:
        lines.append("")
        lines.append(
            f"checkpoint overhead ({overhead['workload']}, {overhead['engine']}):"
        )
        base_time = overhead["every"]["0"]["time_s"]
        for key in sorted(overhead["every"], key=int):
            entry = overhead["every"][key]
            ratio = entry["time_s"] / base_time if base_time > 0 else float("inf")
            label = "in-memory" if key == "0" else f"every {key}"
            lines.append(
                f"  {label:<10} {entry['time_s'] * 1000:9.2f} ms "
                f"({ratio:5.2f}x, {entry['checkpoints']} checkpoints)"
            )
        if overhead["fixpoints_match"] is False:
            lines.append("  CHECKPOINT FIXPOINT MISMATCH — persistence changed answers")
    journal = payload.get("journal")
    if journal:
        lines.append("")
        lines.append(
            f"ingest journal ({journal['workload']}, {journal['engine']}, "
            f"{journal['batches']}x{journal['rows_per_batch']} rows):"
        )
        lines.append(
            f"  fsync-per-ingest {journal['journaled']['ingest_time_s'] * 1000:9.2f} ms "
            f"vs unjournaled {journal['unjournaled']['ingest_time_s'] * 1000:9.2f} ms "
            f"({journal['fsync_overhead']:.2f}x)"
        )
        lines.append(
            f"  suffix replay    {journal['replay']['time_s'] * 1000:9.2f} ms "
            f"({journal['replay']['records_replayed']} records) vs cold recompute "
            f"{journal['recompute']['time_s'] * 1000:9.2f} ms "
            f"({journal['replay_vs_recompute']:.2f}x)"
        )
        if journal["digest_match"] is False:
            lines.append("  JOURNAL DIGEST MISMATCH — replay changed answers")
    serve = payload.get("serve")
    if serve:
        latency = serve["latency_ms"]
        lines.append("")
        lines.append(
            f"serving ({serve['clients']} concurrent clients, "
            f"{serve['requests']} requests over {len(serve['tenants'])} tenants):"
        )
        lines.append(
            f"  latency p50 {latency['p50']:.2f} ms, p99 {latency['p99']:.2f} ms, "
            f"max {latency['max']:.2f} ms; {serve['throughput_rps']:.0f} req/s"
        )
        lines.append(
            f"  artifact cache: {serve['trace_cache_hits']} hits, "
            f"{serve['trace_cache_misses']} misses (serve.cache trace events)"
        )
        if not serve["answers_match"]:
            lines.append(
                "  SERVE ANSWER MISMATCH — daemon answers differ from the "
                f"single-process pipeline: {', '.join(serve['mismatched'])}"
            )
    lines.append("")
    if not payload["ok"]:
        lines.append("FIXPOINT MISMATCH — engines disagree")
    elif payload.get("budget_exceeded"):
        lines.append("BUDGET EXCEEDED — partial results only")
    else:
        lines.append("ok")
    return "\n".join(lines)


def write_results(payload: Mapping, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=False)
        handle.write("\n")


def main(argv: Sequence[str] | None = None) -> int:  # pragma: no cover - thin CLI
    from .cli import main as cli_main

    return cli_main(["bench"] + list(argv or ()))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main(sys.argv[1:]))
