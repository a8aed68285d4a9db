"""The ``serve_mixed`` workload: ``python -m repro serve --persist-dir``
in its own process, driven over HTTP by this process.

Two fixed tenants (see :func:`inputs.serve_tenants`) and one seeded op stream
of magic queries, materialized queries and journaled ingests.  Each run:

1. set-up, five times: boot a daemon on a fresh persist directory and
   register both tenants; the last daemon stays up;
2. an open loop at ``RATE`` ops/s over ``CONNECTIONS`` keep-alive
   connections, each op timed from its scheduled send time, in
   segments of ``SEGMENT_SECONDS``;
3. a closed loop on the same connections, in segments too;
4. SIGKILL/restart cycles: kill, boot on the same persist directory,
   re-register, and time until both tenants answer; then a full read of
   each tenant proves every acknowledged ingest survived.

Every time is scaled to the nominal speed of the calibration loop
(:class:`common.SpeedGauge`) on the daemon's CPU, which the gauge reads
while the daemon is idle: load segments and restarts one by one, the
boots as a phase.

Ingests only add edges that *leave* fresh constants, so answers on the
original constants never change and one oracle (naive interpreted
evaluation of the original programs) checks every query, whatever the
interleaving.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from common import (
    ROOT,
    CountingSink,
    WORK,
    Outcome,
    SpeedGauge,
    child_env,
    cpus,
    on_cpu,
    median,
    percentile,
    process_peak_rss_mb,
    rows_digest,
)
from inputs import CLOSURE_NODES, ROUTE_CITIES, serve_tenants
from repro.core.rewrite import optimize
from repro.datalog.database import Database
from repro.datalog.evaluation import evaluate
from repro.datalog.parser import (
    parse_atom,
    parse_constraints,
    parse_facts,
    parse_program,
    parse_program_and_facts,
)
from repro.magic.pipeline import specialize_pipeline
from repro.magic.transform import magic_transform, match_query_atom
from repro.observability.trace import tracing
from repro.persist import CheckpointStore, Session
from repro.serve.app import ServeApp
from repro.serve.cache import ArtifactCache
from repro.serve.wire import rows_payload

#: Open-loop arrival rate (ops/s): about two fifths of the daemon's
#: closed-loop capacity on a 2-core machine.  At half of it, queueing
#: amplified the machine's speed swings into the query percentiles.
RATE = 16.0
#: Keep-alive connections; at most the 2 cores of the reference machine.
CONNECTIONS = 2
SETUP_BOOTS = 5
#: Share of ``--seconds`` for the open loop and the closed loop; the
#: rest goes to kill/restart cycles.
OPEN_SHARE, CLOSED_SHARE = 0.55, 0.25
MIN_KILLS = 3
#: Length of one load segment; the speed gauge is read between segments.
SEGMENT_SECONDS = 1.0
#: Ops replayed in-process by the traced run (whole stream cycles).
REPLAY_CYCLES = 8
FRESH_BASE = 1_000_000
CYCLE_OPS = 15


# -- the op stream ------------------------------------------------------------
@dataclass(frozen=True)
class Op:
    kind: str  # "magic" | "materialized" | "ingest"
    tenant: str
    body: dict
    fresh: tuple = ()  # ingests: (fresh constant, old constant)

    @property
    def path(self) -> str:
        action = "ingest" if self.kind == "ingest" else "query"
        return f"/programs/{self.tenant}/{action}"


class OpStream:
    """An endless seeded stream, in cycles of a fixed mix.

    One cycle is 9 queries and 6 ingests.  The mix is fixed (only the
    constants and the order within a cycle are drawn), so each latency
    percentile lands inside one cluster of like ops instead of on the
    edge between two: the query median falls among the materialized
    closure reads, the ingest median and p90 among the ``closure``
    ingests (each rewrites that tenant's checkpoint).
    """

    def __init__(self, seed: int, fresh_base: int = FRESH_BASE):
        self.rng = random.Random(seed * 1_000_003 + 17)
        self.fresh = fresh_base
        self.pending: list[Op] = []

    def _query(self, tenant: str, goal: str, mode: str) -> Op:
        body = {"goal": goal} if mode == "magic" else {"goal": goal, "mode": mode}
        return Op(mode, tenant, body)

    def ingest(self, tenant: str) -> Op:
        rng = self.rng
        self.fresh += 1
        if tenant == "closure":
            # Targets near the end of the forward-edge order have few
            # descendants, so the closure grows slowly over a run.
            old = rng.randrange(CLOSURE_NODES - 20, CLOSURE_NODES)
            facts = f"e({self.fresh}, {old})."
        else:
            old = rng.randrange(ROUTE_CITIES)
            facts = f"segment_b({self.fresh}, {old}, {rng.randint(50, 500)})."
        return Op("ingest", tenant, {"facts": facts}, (self.fresh, old))

    def cycle(self) -> list[Op]:
        rng = self.rng
        city = lambda: rng.randrange(ROUTE_CITIES)  # noqa: E731
        node = lambda: rng.randrange(CLOSURE_NODES)  # noqa: E731
        low = rng.randrange(CLOSURE_NODES // 2)
        ops = [
            self._query("routes", f"route({city()}, Y)", "magic"),
            self._query("routes", f"trip({rng.choice((2, 3))}, Y)", "magic"),
            self._query("closure", f"p({node()}, Y)", "magic"),
            self._query("closure", f"p({low}, {rng.randrange(low + 1, CLOSURE_NODES)})", "magic"),
            *(self._query("closure", f"p({node()}, Y)", "materialized") for _ in range(3)),
            *(self._query("routes", f"route({city()}, Y)", "materialized") for _ in range(2)),
            *(self.ingest("closure") for _ in range(5)),
            self.ingest("routes"),
        ]
        rng.shuffle(ops)
        return ops

    def take(self, count: int) -> list[Op]:
        while len(self.pending) < count:
            self.pending.extend(self.cycle())
        taken, self.pending = self.pending[:count], self.pending[count:]
        return taken

    def magic(self, tenant: str) -> Op:
        """A magic query on an original constant of ``tenant``."""
        if tenant == "routes":
            return self._query(tenant, f"route({self.rng.randrange(ROUTE_CITIES)}, Y)", "magic")
        return self._query(tenant, f"p({self.rng.randrange(CLOSURE_NODES)}, Y)", "magic")


# -- the oracle -------------------------------------------------------------
ANSWER_RELATION = {"routes": "route", "closure": "p"}


class Oracle:
    """Expected answers from naive interpreted evaluation of the
    original programs, plus the acknowledged fresh ingests."""

    def __init__(self, tenants):
        self.relations: dict[str, dict[str, frozenset]] = {}
        for tenant in tenants:
            program = parse_program(tenant.program, query=tenant.query)
            result = evaluate(
                program, Database(parse_facts(tenant.facts)), engine="interpreted", strategy="naive"
            )
            self.relations[tenant.name] = {pred: rel.rows() for pred, rel in result.idb.items()}
        self._answers: dict[tuple[str, str], str] = {}
        self.acked: dict[str, list[tuple]] = {"routes": [], "closure": []}
        self.unacked: dict[str, list[tuple]] = {"routes": [], "closure": []}

    def answers(self, tenant: str, goal_text: str) -> str:
        key = (tenant, goal_text)
        if key not in self._answers:
            goal = parse_atom(goal_text)
            rows = self.relations[tenant].get(goal.predicate, frozenset())
            self._answers[key] = rows_digest(r for r in rows if match_query_atom(r, goal))
        return self._answers[key]

    def _derived(self, tenant: str, ingests) -> set:
        relation = self.relations[tenant][ANSWER_RELATION[tenant]]
        rows = set()
        for fresh, old in ingests:
            rows.add((fresh, old))
            rows.update((fresh, right) for left, right in relation if left == old)
        return rows

    def full_read_ok(self, tenant: str, rows) -> bool:
        """A full read of the answer relation after a restart: every
        acknowledged ingest is there; only un-acknowledged ones may
        also be."""
        got = {tuple(row) for row in rows}
        required = set(self.relations[tenant][ANSWER_RELATION[tenant]])
        required |= self._derived(tenant, self.acked[tenant])
        optional = self._derived(tenant, self.unacked[tenant])
        return required <= got and not (got - required - optional)


# -- daemon and connections ---------------------------------------------------
class Daemon:
    """``python -m repro serve`` in a child process."""

    def __init__(self, persist: Path, log: Path, cpu: int):
        self.log = open(log, "ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", "--persist-dir", str(persist)],
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            stderr=self.log,
            text=True,
            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
        )
        line = self.proc.stdout.readline().strip()
        if not line.startswith("serving on "):
            self.kill()
            raise RuntimeError(f"daemon did not announce its URL: {line!r}")
        self.port = int(line.rsplit(":", 1)[1])

    def peak_rss_mb(self) -> float:
        return process_peak_rss_mb(self.proc.pid)

    def kill(self, sig=signal.SIGKILL) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(sig)
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=30)
        self.proc.stdout.close()
        self.log.close()


class Conn:
    """One keep-alive connection (no retries: a failure is a failure)."""

    def __init__(self, port: int):
        self.port = port
        self.http = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def call(self, method: str, path: str, body: dict | None = None) -> tuple[int, dict]:
        data = None if body is None else json.dumps(body)
        headers = {"Content-Type": "application/json"} if data else {}
        try:
            self.http.request(method, path, body=data, headers=headers)
            response = self.http.getresponse()
            return response.status, json.loads(response.read() or b"{}")
        except (OSError, http.client.HTTPException, ValueError) as exc:
            self.http.close()
            return 0, {"error": f"transport: {exc}"}

    def close(self) -> None:
        self.http.close()


def wait_ready(port: int) -> Conn:
    conn = Conn(port)
    deadline = time.monotonic() + 60
    while conn.call("GET", "/healthz")[0] != 200:
        if time.monotonic() > deadline:
            raise RuntimeError("daemon never became healthy")
        time.sleep(0.02)
    return conn


# -- the run ---------------------------------------------------------------------
class ServeRun:
    def __init__(self, seed: int, out: Outcome):
        self.seed = seed
        self.out = out
        self.tenants = serve_tenants()
        self.oracle = Oracle(self.tenants)
        self.stream = OpStream(seed)
        self.work = WORK / f"serve-{seed}-{time.time_ns()}"
        self.work.mkdir(parents=True)
        self.persist = self.work / "daemon"
        self.daemon: Daemon | None = None
        self.boots = 0
        # The daemon (and the traced run's in-process replays) run on
        # one CPU, which the gauge reads; the load generator on the other.
        self.cpu, client_cpu = cpus()
        os.sched_setaffinity(0, {client_cpu})
        self.gauge = SpeedGauge(self.cpu)

    # .. checks ..................................................................
    def settle(self, op: Op, status: int, payload: dict) -> None:
        """Count one op; a non-2xx status or a wrong answer fails it."""
        ok = status == 200
        if op.kind == "ingest":
            (self.oracle.acked if ok else self.oracle.unacked)[op.tenant].append(op.fresh)
        elif ok:
            ok = rows_digest(payload.get("answers", [])) == self.oracle.answers(
                op.tenant, op.body["goal"]
            )
            if not ok:
                self.out.mismatches.append(f"{op.tenant}:{op.body['goal']}")
        self.out.attempted += 1
        self.out.failed += 0 if ok else 1

    def register(self, conn: Conn) -> None:
        for tenant in self.tenants:
            status, payload = conn.call("PUT", f"/programs/{tenant.name}", tenant.register_body())
            self.out.attempted += 1
            if status != 200:
                self.out.failed += 1
                raise RuntimeError(f"register {tenant.name} failed: {status} {payload}")

    def boot(self, persist: Path) -> tuple[Daemon, Conn]:
        self.boots += 1
        daemon = Daemon(persist, self.work / f"daemon-{self.boots}.log", self.cpu)
        try:
            conn = wait_ready(daemon.port)
            self.register(conn)
        except BaseException:
            daemon.kill()
            raise
        return daemon, conn

    # .. phases ..................................................................
    def setup(self) -> list[float]:
        samples = []
        mark = len(self.gauge.readings)
        for index in range(SETUP_BOOTS):
            persist = self.persist if index == SETUP_BOOTS - 1 else self.work / f"setup-{index}"
            self.gauge.read()
            start = time.perf_counter()
            daemon, conn = self.boot(persist)
            samples.append(time.perf_counter() - start)
            if index < SETUP_BOOTS - 1:
                conn.close()
                daemon.kill(signal.SIGTERM)
            else:
                self.daemon, self.conn = daemon, conn
        self.gauge.read()
        scale = self.gauge.phase_scale(mark)
        self.warm(self.conn.call)
        return [sample * scale for sample in samples]

    def warm(self, call) -> None:
        """Fill the artifact cache: one query of each magic shape."""
        for op in OpStream(self.seed + 1).cycle():
            if op.kind == "magic":
                self.settle(op, *call("POST", op.path, op.body))

    def _workers(self, body) -> None:
        threads = [threading.Thread(target=body, args=(Conn(self.daemon.port),)) for _ in range(CONNECTIONS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def segments(self, seconds: float, phase) -> list[tuple]:
        """``phase(segment seconds)`` back to back for ``seconds``, the
        gauge read between segments; returns ``(value, scale)`` per
        segment."""
        count = max(1, round(seconds / SEGMENT_SECONDS))
        results = []
        before = self.gauge.read()
        for _ in range(count):
            value = phase(seconds / count)
            after = self.gauge.read()
            results.append((value, self.gauge.scale(before, after)))
            before = after
        return results

    def open_loop(self, seconds: float) -> list[tuple]:
        ops = self.stream.take(max(1, int(seconds * RATE)))
        records: list[tuple] = [None] * len(ops)  # type: ignore[list-item]
        cursor = iter(range(len(ops)))
        lock = threading.Lock()
        start = time.perf_counter() + 0.05

        def body(conn: Conn) -> None:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    break
                due = start + index / RATE
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                status, payload = conn.call("POST", ops[index].path, ops[index].body)
                records[index] = (ops[index], due, sent, time.perf_counter(), status, payload)
            conn.close()

        self._workers(body)
        for op, _due, _sent, _done, status, payload in records:
            self.settle(op, status, payload)
        return records

    def closed_loop(self, seconds: float) -> tuple[int, float, list[float]]:
        lock = threading.Lock()
        done: list[float] = []
        results: list[tuple] = []
        start = time.perf_counter()
        deadline = start + seconds

        def body(conn: Conn) -> None:
            while time.perf_counter() < deadline:
                with lock:
                    (op,) = self.stream.take(1)
                status, payload = conn.call("POST", op.path, op.body)
                with lock:
                    done.append(time.perf_counter())
                    results.append((op, status, payload))
            conn.close()

        self._workers(body)
        elapsed = time.perf_counter() - start
        for op, status, payload in results:
            self.settle(op, status, payload)
        # Wall time of each successive stream cycle's worth of ops.
        marks = [start] + sorted(done)[CYCLE_OPS - 1 :: CYCLE_OPS]
        cycles = [b - a for a, b in zip(marks, marks[1:])]
        return len(results), elapsed, cycles

    def kill_cycles(self, seconds: float) -> tuple[list[float], int]:
        samples: list[float] = []
        replayed = 0
        start = time.perf_counter()
        while len(samples) < MIN_KILLS or time.perf_counter() - start < seconds:
            for tenant in ("closure", "routes"):
                op = self.stream.ingest(tenant)
                self.settle(op, *self.conn.call("POST", op.path, op.body))
            self.conn.close()
            before = self.gauge.read()
            killed = time.perf_counter()
            self.daemon.kill()
            self.daemon, self.conn = self.boot(self.persist)
            for tenant in self.tenants:
                op = self.stream.magic(tenant.name)
                self.settle(op, *self.conn.call("POST", op.path, op.body))
            elapsed = time.perf_counter() - killed
            samples.append(elapsed * self.gauge.scale(before, self.gauge.read()))
            for tenant in self.tenants:
                goal = f"{ANSWER_RELATION[tenant.name]}(X, Y)"
                status, payload = self.conn.call(
                    "POST", f"/programs/{tenant.name}/query", {"goal": goal, "mode": "materialized"}
                )
                self.out.attempted += 1
                if status != 200 or not self.oracle.full_read_ok(tenant.name, payload.get("answers", [])):
                    self.out.failed += 1
                    self.out.mismatches.append(f"durability:{tenant.name}")
            status, stats = self.conn.call("GET", "/stats")
            replayed += stats.get("journal", {}).get("replayed", 0) if status == 200 else 0
        return samples, replayed

    def close(self) -> None:
        if self.daemon is not None:
            self.conn.close()
            self.daemon.kill(signal.SIGTERM)
            self.daemon = None
        shutil.rmtree(self.work, ignore_errors=True)


# -- the in-process replays of the traced run ------------------------------------
def scaled(values: list[float], scale: float) -> list[float]:
    return [value * scale for value in values]


def check_reply(out: Outcome, oracle: Oracle, op: Op, status: int, answers) -> None:
    want = "ok" if op.kind == "ingest" else oracle.answers(op.tenant, op.body["goal"])
    got = "ok" if op.kind == "ingest" else rows_digest(answers)
    out.check(f"replay:{op.tenant}:{op.body}", got if status == 200 else f"HTTP {status}", want)


def _serve_app(bench: ServeRun, root: Path, run) -> ServeApp:
    """A fresh in-process app, registered and warmed like the daemon."""
    app = ServeApp(persist_root=root)
    for tenant in bench.tenants:
        run(app.handle("PUT", f"/programs/{tenant.name}", tenant.register_body()))
    for op in OpStream(bench.seed + 1).cycle():
        if op.kind == "magic":
            run(app.handle("POST", op.path, op.body))
    return app


def _timed_handle(bench: ServeRun, app: ServeApp, op: Op, run) -> float:
    start = time.perf_counter()
    status, payload = run(app.handle("POST", op.path, op.body))
    elapsed = (time.perf_counter() - start) * 1000.0
    check_reply(bench.out, bench.oracle, op, status, payload.get("answers", []))
    return elapsed


def handle_replay(bench: ServeRun, ops: list[Op], root: Path, *, paired: bool = False):
    """Per-op ``ServeApp.handle`` time (ms) for ``ops`` on a fresh app.

    With ``paired``, each op first goes over HTTP to the daemon (which
    is in the same state), so the two times of an op are taken moments
    apart; returns ``(http_ms, handle_ms)``.
    """
    loop = asyncio.new_event_loop()
    try:
        run = loop.run_until_complete
        app = _serve_app(bench, root, run)
        http_ms, handle_ms = [], []
        for op in ops:
            if paired:
                start = time.perf_counter()
                status, payload = bench.conn.call("POST", op.path, op.body)
                http_ms.append((time.perf_counter() - start) * 1000.0)
                bench.settle(op, status, payload)
            handle_ms.append(_timed_handle(bench, app, op, run))
        run(loop.shutdown_default_executor())
    finally:
        loop.close()
    return (http_ms, handle_ms) if paired else handle_ms


def public_replay(bench: ServeRun, ops: list[Op], root: Path) -> dict:
    """The same ops through the public calls ``ServeApp.handle`` makes,
    each timed from outside."""
    layers: dict[str, list[float]] = {"evaluation": [], "answer": [], "ingest": []}
    counts: Counter = Counter()
    state = {}
    for tenant in bench.tenants:
        program, _ = parse_program_and_facts(tenant.program, query=tenant.query)
        constraints = tuple(parse_constraints(tenant.constraints)) if tenant.constraints else ()
        session = Session(
            program,
            Database(parse_facts(tenant.facts)),
            store=CheckpointStore(root / tenant.name),
            checkpoint_every=0,
            constraints=constraints,
        )
        state[tenant.name] = [program, constraints, session, session.recover()]
    cache = ArtifactCache(128)
    for op in OpStream(bench.seed + 1).cycle():  # warm the cache like the daemon
        if op.kind == "magic":
            program, constraints, _session, _current = state[op.tenant]
            goal = parse_atom(op.body["goal"])
            specialize_pipeline(program, constraints, goal, cache=cache, cache_site="serve.cache")

    def timed(layer, call, *args):
        start = time.perf_counter()
        value = call(*args)
        layers[layer].append((time.perf_counter() - start) * 1000.0)
        return value

    for op in ops:
        program, constraints, session, current = state[op.tenant]
        if op.kind == "ingest":
            state[op.tenant][3] = timed("ingest", session.ingest, parse_facts(op.body["facts"]))
            check_reply(bench.out, bench.oracle, op, 200, None)
            continue
        goal = parse_atom(op.body["goal"])
        if op.kind == "magic":
            report, _hit = specialize_pipeline(
                program, constraints, goal, cache=cache, cache_site="serve.cache"
            )
            result = timed("evaluation", report.evaluation, session.database)
            for name in ("rows_scanned", "facts_derived", "rule_firings", "iterations", "index_builds"):
                counts[name] += getattr(result.stats, name)
            rows = result.query_rows()
        else:
            rows = current.result.rows(goal.predicate)
        answers = timed("answer", lambda: rows_payload(r for r in rows if match_query_atom(r, goal)))
        check_reply(bench.out, bench.oracle, op, 200, answers)

    recover_ms, replayed = 0.0, 0
    for tenant in bench.tenants:
        program, constraints, _session, _current = state[tenant.name]
        session = Session(
            program,
            Database(parse_facts(tenant.facts)),
            store=CheckpointStore(root / tenant.name),
            checkpoint_every=0,
            constraints=constraints,
        )
        start = time.perf_counter()
        outcome = session.recover()
        recover_ms += (time.perf_counter() - start) * 1000.0
        replayed += outcome.replayed
    return {"layers": layers, "counts": counts, "recover_ms": recover_ms, "replayed": replayed}


def front_layers(bench: ServeRun, out: Outcome) -> None:
    """Parser, database and rewrite costs of the two tenants."""
    before = bench.gauge.read()
    parse_ms, load_ms, facts_total = [], [], 0
    for _ in range(3):
        start = time.perf_counter()
        parsed = []
        for tenant in bench.tenants:
            parse_program_and_facts(tenant.program, query=tenant.query)
            if tenant.constraints:
                parse_constraints(tenant.constraints)
            parsed.append(parse_facts(tenant.facts))
        parse_ms.append((time.perf_counter() - start) * 1000.0)
        facts_total = sum(len(facts) for facts in parsed)
        start = time.perf_counter()
        for facts in parsed:
            Database(facts)
        load_ms.append((time.perf_counter() - start) * 1000.0)
    routes = bench.tenants[0]
    program = parse_program(routes.program, query=routes.query)
    constraints = parse_constraints(routes.constraints)
    goal = parse_atom("trip(2, Y)")
    optimize_ms, transform_ms = [], []
    for _ in range(3):
        start = time.perf_counter()
        report = optimize(program, constraints)
        optimize_ms.append((time.perf_counter() - start) * 1000.0)
        start = time.perf_counter()
        magic_transform(report.program, goal)
        transform_ms.append((time.perf_counter() - start) * 1000.0)
    scale = bench.gauge.scale(before, bench.gauge.read())
    out.metric("parser.ms", median(parse_ms) * scale, "ms")
    out.metric("parser.facts", facts_total, "count")
    out.metric("database.load_ms", median(load_ms) * scale, "ms")
    out.metric("core.optimize_ms", median(optimize_ms) * scale, "ms")
    out.metric("magic.transform_ms", median(transform_ms) * scale, "ms")
    out.metric("core.rules_in", len(program.rules), "count")
    out.metric("core.rules_out", len(report.program.rules), "count")
    out.metric("core.fallbacks", len(report.fallback_chain), "count")


# -- entry point -----------------------------------------------------------------
def run(workload: str, seed: int, seconds: float, trace: bool, out: Outcome) -> list[str]:
    bench = ServeRun(seed, out)
    try:
        setups = bench.setup()
        if trace:
            replay_ops = OpStream(seed + 2, fresh_base=2 * FRESH_BASE).take(REPLAY_CYCLES * CYCLE_OPS)
            with on_cpu(bench.cpu):
                (http_ms, plain), scale = bench.gauge.bracket(
                    lambda: handle_replay(bench, replay_ops, bench.work / "paired", paired=True)
                )
            http_ms, plain = scaled(http_ms, scale), scaled(plain, scale)
        open_segments = bench.segments(seconds * OPEN_SHARE, bench.open_loop)
        closed_segments = bench.segments(seconds * CLOSED_SHARE, bench.closed_loop)
        rss = bench.daemon.peak_rss_mb()
        status, stats = bench.conn.call("GET", "/stats")
        if status != 200:
            raise RuntimeError(f"/stats failed: {status}")
        recover, replayed = bench.kill_cycles(seconds * (1.0 - OPEN_SHARE - CLOSED_SHARE))
    finally:
        bench.close()

    latency = {"query": [], "ingest": []}
    late = []  # the generator's own lateness, not scaled
    for records, scale in open_segments:
        for op, due, sent, done, _status, _payload in records:
            latency["ingest" if op.kind == "ingest" else "query"].append((done - due) * 1000.0 * scale)
            late.append((sent - due) * 1000.0)
    completed = sum(ops for (ops, _elapsed, _cycles), _scale in closed_segments)
    capacity = completed / sum(elapsed * scale for (_ops, elapsed, _cycles), scale in closed_segments)
    cycles = [cycle * scale for (_ops, _elapsed, cycles), scale in closed_segments for cycle in cycles]
    notes = [
        f"open loop: {len(late)} ops at {RATE}/s in {len(open_segments)} segments "
        f"({len(latency['query'])} queries, {len(latency['ingest'])} ingests), "
        f"generator late p95 {percentile(late, 95):.2f} ms",
        f"closed loop: {capacity:.1f} ops/s; kill cycles: {len(recover)}; setups: "
        + ", ".join(f"{s:.3f}" for s in setups),
    ]
    if not trace:
        out.metric("setup_s", median(setups), "s")
        out.metric("wall_s", median(cycles), "s")
        out.metric("peak_rss_mb", rss, "MB")
        out.metric("query_ms.p50", median(latency["query"]), "ms")
        out.metric("query_ms.p95", percentile(latency["query"], 95), "ms")
        out.metric("ingest_ms.p50", median(latency["ingest"]), "ms")
        out.metric("ingest_ms.p90", percentile(latency["ingest"], 90), "ms")
        out.metric("capacity_rps", capacity, "1/s")
        out.metric("recover_s", median(recover), "s")
    else:
        with on_cpu(bench.cpu):
            traced_layers(bench, replay_ops, http_ms, plain, stats, replayed, late, out)
    notes.append(bench.gauge.note())
    if trace:
        out.metric("noise.calib_ms", median(bench.gauge.readings), "ms")
    return notes


def traced_layers(bench, ops, http_ms, plain, stats, replayed, late, out: Outcome) -> None:
    root = WORK / f"replay-{bench.seed}-{time.time_ns()}"
    bracket = bench.gauge.bracket
    sink = CountingSink()

    def traced_replay():
        with tracing(sink):
            return handle_replay(bench, ops, root / "traced")

    try:
        untraced, scale = bracket(lambda: handle_replay(bench, ops, root / "untraced"))
        untraced = scaled(untraced, scale)
        traced, scale = bracket(traced_replay)
        traced = scaled(traced, scale)
        public, scale = bracket(lambda: public_replay(bench, ops, root / "public"))
    finally:
        shutil.rmtree(root, ignore_errors=True)
    front_layers(bench, out)
    cache = stats["cache"]
    lookups = cache["hits"] + cache["misses"]
    out.metric("magic.cache_hit_frac", cache["hits"] / lookups if lookups else 0.0, "frac")
    for kind in ("magic", "materialized", "ingest"):
        out.metric(
            f"serve.handle_ms.{kind}",
            median([ms for op, ms in zip(ops, untraced) if op.kind == kind]),
            "ms",
        )
    out.metric("serve.transport_ms", median([h - p for h, p in zip(http_ms, plain)]), "ms")
    out.metric("serve.gen_late_ms", percentile(late, 95), "ms")
    out.metric("trace.overhead_ms", sum(traced) - sum(untraced), "ms")
    out.metric("evaluation.plans_compiled", sink.names["plan"], "count")
    out.metric("persist.journal_fsyncs", sink.names["journal.fsync"], "count")
    out.metric("persist.journal_bytes", sink.bytes["journal.append"], "bytes")
    layers, counts = public["layers"], public["counts"]
    out.metric("evaluation.ms", median(layers["evaluation"]) * scale, "ms")
    out.metric("magic.answer_ms", median(layers["answer"]) * scale, "ms")
    out.metric("persist.ingest_ms", median(layers["ingest"]) * scale, "ms")
    for name in ("rows_scanned", "facts_derived", "rule_firings", "iterations", "index_builds"):
        out.metric(f"evaluation.{name}", counts[name], "count")
    firings = counts["rule_firings"]
    out.metric("evaluation.new_fact_frac", counts["facts_derived"] / firings if firings else 0.0, "frac")
    out.metric("persist.recover_ms", public["recover_ms"] * scale, "ms")
    out.metric("persist.replayed", replayed + public["replayed"], "count")
