"""The two batch workloads: ``pipeline_ics`` (the ``repro pipeline``
path) and ``closure_eval`` (the ``repro run`` path).

A *pass* runs every unit of the workload once, each as the CLI would:
texts in, answers out, default options throughout.  Timed runs time
whole passes through the public API.  The traced run instead times each
public call of a decomposed pass (the same calls ``run_pipeline`` makes,
in the same order), so the layers can be summed against the plain pass.
"""

from __future__ import annotations

import gc
import os
import time
from collections import Counter

from common import (
    CountingSink,
    Outcome,
    SpeedGauge,
    cached_oracle,
    cpus,
    median,
    peak_rss_mb,
    percentile,
    rows_digest,
    run_child,
    text_digest,
)
from inputs import Unit, closure_units, pipeline_units
from repro.core.rewrite import optimize
from repro.datalog.database import Database
from repro.datalog.evaluation import evaluate
from repro.datalog.parser import parse_atom, parse_constraints, parse_facts, parse_program
from repro.digest import fixpoint_digest
from repro.magic.pipeline import run_pipeline
from repro.magic.transform import magic_transform, match_query_atom
from repro.observability.trace import tracing
from repro.serve.wire import rows_payload

WORKLOADS = {"pipeline_ics": pipeline_units, "closure_eval": closure_units}
#: Fresh processes per run for ``setup_s`` and ``recover_s``: three of
#: the long closure passes fit a run; the short pipeline pass affords
#: nine, which its noisier first-answer time needs.
SETUP_PROBES = {"pipeline_ics": 9, "closure_eval": 3}
CHILD_TIMEOUT = 170.0


def oracle_key(unit: Unit) -> str:
    """The unit's texts, with the facts as a set (their order is free)."""
    facts = "\n".join(sorted(unit.facts.splitlines()))
    return text_digest(unit.label, unit.program, unit.constraints, facts, unit.goal)


def oracle_digests(units: list[Unit]) -> dict[str, str]:
    """Reference answers: naive interpreted evaluation of the *original*
    program (the paper's oracle), ic's ignored."""
    refs = {}
    for unit in units:
        if unit.goal:
            goal = parse_atom(unit.goal)
            program = parse_program(unit.program, query=goal.predicate)
            result = evaluate(
                program, Database(parse_facts(unit.facts)), engine="interpreted", strategy="naive"
            )
            refs[oracle_key(unit)] = rows_digest(
                row for row in result.query_rows() if match_query_atom(row, goal)
            )
        else:
            program = parse_program(unit.program, query=unit.query)
            result = evaluate(
                program, Database(parse_facts(unit.facts)), engine="interpreted", strategy="naive"
            )
            refs[oracle_key(unit)] = fixpoint_digest([(unit.label, result.idb)])
    return refs


# -- one unit, the way the CLI runs it -----------------------------------
def run_unit(unit: Unit) -> tuple[str, float, float]:
    """Run one unit; returns (answer digest, load seconds, total seconds).

    Load is fact text to :class:`Database`; the rest is program and goal
    parsing, the rewrite, evaluation and answer extraction.
    """
    start = time.perf_counter()
    if unit.goal:
        goal = parse_atom(unit.goal)
        program = parse_program(unit.program, query=goal.predicate)
        constraints = parse_constraints(unit.constraints)
        load_start = time.perf_counter()
        database = Database(parse_facts(unit.facts))
        loaded = time.perf_counter()
        answers = rows_payload(run_pipeline(program, constraints, goal).answers(database))
        end = time.perf_counter()
        return rows_digest(answers), loaded - load_start, end - start
    program = parse_program(unit.program, query=unit.query)
    load_start = time.perf_counter()
    database = Database(parse_facts(unit.facts))
    loaded = time.perf_counter()
    digest = fixpoint_digest([(unit.label, evaluate(program, database).idb)])
    end = time.perf_counter()
    return digest, loaded - load_start, end - start


def run_pass(units: list[Unit]) -> tuple[list[str], list[float], list[float], float]:
    """One pass; its wall time is the sum of the units' times."""
    digests, loads, totals = [], [], []
    for unit in units:
        # Each unit starts from the same collector state, as a fresh CLI
        # process would, so where a collection lands does not depend on
        # the units before it.
        gc.collect()
        digest, load, total = run_unit(unit)
        digests.append(digest)
        loads.append(load)
        totals.append(total)
    return digests, loads, totals, sum(totals)


# -- the decomposed pass of the traced run ----------------------------------
class LayerPass:
    """Times every public call of one pass from outside."""

    def __init__(self) -> None:
        self.ms: Counter = Counter()
        self.counts: Counter = Counter()

    def timed(self, layer: str, call, *args, **kwargs):
        start = time.perf_counter()
        value = call(*args, **kwargs)
        self.ms[layer] += (time.perf_counter() - start) * 1000.0
        return value

    def absorb(self, stats) -> None:
        for name in ("rows_scanned", "facts_derived", "rule_firings", "iterations", "index_builds"):
            self.counts[f"evaluation.{name}"] += getattr(stats, name)

    def unit(self, unit: Unit) -> str:
        gc.collect()  # as in run_pass
        timed = self.timed
        if not unit.goal:
            program = timed("parser", parse_program, unit.program, query=unit.query)
            facts = timed("parser", parse_facts, unit.facts)
            self.counts["parser.facts"] += len(facts)
            database = timed("database", Database, facts)
            result = timed("evaluation", evaluate, program, database)
            self.absorb(result.stats)
            return timed("digest", fixpoint_digest, [(unit.label, result.idb)])
        goal = timed("parser", parse_atom, unit.goal)
        program = timed("parser", parse_program, unit.program, query=goal.predicate)
        constraints = timed("parser", parse_constraints, unit.constraints)
        facts = timed("parser", parse_facts, unit.facts)
        self.counts["parser.facts"] += len(facts)
        database = timed("database", Database, facts)
        # The calls run_pipeline makes for the default semantic-first order.
        report = timed("core", optimize, program, constraints)
        self.counts["core.rules_in"] += len(program.rules)
        self.counts["core.fallbacks"] += len(report.fallback_chain)
        if report.program is None:
            return rows_digest([])
        self.counts["core.rules_out"] += len(report.program.rules)
        magic = timed("magic.transform", magic_transform, report.program, goal)
        result = timed("evaluation", evaluate, magic.program, database)
        self.absorb(result.stats)
        start = time.perf_counter()
        answers = rows_payload(row for row in result.query_rows() if match_query_atom(row, goal))
        self.ms["magic.answer"] += (time.perf_counter() - start) * 1000.0
        return rows_digest(answers)


LAYER_METRICS = {
    "parser": "parser.ms",
    "database": "database.load_ms",
    "core": "core.optimize_ms",
    "magic.transform": "magic.transform_ms",
    "magic.answer": "magic.answer_ms",
    "evaluation": "evaluation.ms",
    "digest": "digest.ms",
}


# -- runs ----------------------------------------------------------------
def probe(workload: str, seed: int, spawned_at: float) -> dict:
    """A fresh process's set-up: import plus the cold first pass."""
    units = WORKLOADS[workload](seed)
    digests, first = [], None
    for unit in units:
        digests.append(run_unit(unit)[0])
        if first is None:
            first = time.time() - spawned_at
    return {"digests": digests, "first_answer_s": first}


def run(workload: str, seed: int, seconds: float, trace: bool, out: Outcome) -> list[str]:
    units = WORKLOADS[workload](seed)
    keys = [oracle_key(unit) for unit in units]
    refs = cached_oracle(
        keys, lambda: run_child(["--oracle", "--workload", workload, "--seed", str(seed)], CHILD_TIMEOUT)[0]
    )
    expected = [refs[key] for key in keys]
    # The passes, the fresh interpreters (which inherit this) and the
    # gauge share one CPU.
    cpu, _ = cpus()
    os.sched_setaffinity(0, {cpu})
    gauge = SpeedGauge(cpu)

    def check(digests: list[str], where: str) -> None:
        for unit, got, want in zip(units, digests, expected):
            out.check(f"{where}:{unit.label}", got, want)

    if trace:
        notes = traced(units, seconds, gauge, check, out)
        out.metric("noise.calib_ms", median(gauge.readings), "ms")
    else:
        notes = timed(workload, seed, units, seconds, gauge, check, out)
    notes.append(gauge.note())
    return notes


def timed(workload, seed, units, seconds, gauge: SpeedGauge, check, out: Outcome) -> list[str]:
    """Every time below is scaled to the gauge's nominal speed: the
    fresh interpreters as one phase, the passes pass by pass."""
    setups, firsts = [], []
    mark = len(gauge.readings)
    for _ in range(SETUP_PROBES[workload]):
        gauge.read()
        result, elapsed = run_child(
            ["--probe", "--workload", workload, "--seed", str(seed), "--spawned-at", repr(time.time())],
            CHILD_TIMEOUT,
        )
        check(result["digests"], "setup")
        setups.append(elapsed)
        firsts.append(result["first_answer_s"])
    gauge.read()
    scale = gauge.phase_scale(mark)
    setups = [value * scale for value in setups]
    firsts = [value * scale for value in firsts]
    walls, raw_walls, unit_p50, load_p50, all_totals, all_loads = [], [], [], [], [], []
    started = time.perf_counter()
    before = gauge.read()
    while time.perf_counter() - started < seconds or len(walls) < 3:
        digests, loads, totals, wall = run_pass(units)
        after = gauge.read()
        scale = gauge.scale(before, after)
        before = after
        check(digests, f"pass{len(walls)}")
        raw_walls.append(wall)
        walls.append(wall * scale)
        totals = [total * scale for total in totals]
        loads = [load * scale for load in loads]
        unit_p50.append(median(totals))
        load_p50.append(median(loads))
        all_totals += totals
        all_loads += loads
    out.metric("setup_s", median(setups), "s")
    out.metric("wall_s", median(walls), "s")
    out.metric("peak_rss_mb", peak_rss_mb(), "MB")
    # A median over the units of one pass can sit between two unit
    # types, so p50 is the pass's median, taken over passes; the top
    # percentiles fall inside the slowest unit type, so they pool every
    # unit of the run.
    out.metric("query_ms.p50", median(unit_p50) * 1000.0, "ms")
    out.metric("query_ms.p95", percentile(all_totals, 95) * 1000.0, "ms")
    out.metric("ingest_ms.p50", median(load_p50) * 1000.0, "ms")
    out.metric("ingest_ms.p90", percentile(all_loads, 90) * 1000.0, "ms")
    out.metric("capacity_rps", len(all_totals) / sum(walls), "1/s")
    out.metric("recover_s", median(firsts), "s")
    return [
        f"passes={len(walls)} units/pass={len(units)} setup_samples={len(setups)} "
        f"raw wall_s median={median(raw_walls):.4f}"
    ]


def traced(units, seconds, gauge: SpeedGauge, check, out: Outcome) -> list[str]:
    """Plain, decomposed and traced passes, in turn, until ``seconds``;
    each pass's times scaled like the timed run's."""
    walls, traced_walls, layer_ms = [], [], []
    started = time.perf_counter()
    before = gauge.read()

    def scale() -> float:
        nonlocal before
        after = gauge.read()
        factor, before = gauge.scale(before, after), after
        return factor

    while time.perf_counter() - started < seconds or len(walls) < 3:
        digests, _loads, _totals, wall = run_pass(units)
        check(digests, f"pass{len(walls)}")
        walls.append(wall * scale())
        layers = LayerPass()
        check([layers.unit(unit) for unit in units], f"layers{len(layer_ms)}")
        factor = scale()
        layer_ms.append({layer: ms * factor for layer, ms in layers.ms.items()})
        counts = layers.counts  # deterministic: identical every pass
        sink = CountingSink()
        with tracing(sink):
            digests, _loads, _totals, wall = run_pass(units)
        check(digests, f"traced{len(traced_walls)}")
        traced_walls.append(wall * scale())

    wall_ms = median(walls) * 1000.0
    layer_sum = 0.0
    for layer, name in LAYER_METRICS.items():
        value = median([ms.get(layer, 0.0) for ms in layer_ms])
        layer_sum += value
        out.metric(name, value, "ms")
    for name in ("parser.facts", "core.rules_in", "core.rules_out", "core.fallbacks"):
        out.metric(name, counts[name], "count")
    for name in ("rows_scanned", "facts_derived", "rule_firings", "iterations", "index_builds"):
        out.metric(f"evaluation.{name}", counts[f"evaluation.{name}"], "count")
    firings = counts["evaluation.rule_firings"]
    out.metric(
        "evaluation.new_fact_frac",
        counts["evaluation.facts_derived"] / firings if firings else 0.0,
        "frac",
    )
    out.metric("evaluation.plans_compiled", sink.names["plan"], "count")
    out.metric("trace.overhead_ms", median(traced_walls) * 1000.0 - wall_ms, "ms")
    out.metric("trace.layer_sum_gap", (layer_sum - wall_ms) / wall_ms, "frac")
    return [
        f"passes={len(walls)} wall_ms={wall_ms:.1f} layer_sum_ms={layer_sum:.1f} "
        f"traced_pass_ms={median(traced_walls) * 1000.0:.1f}"
    ]
