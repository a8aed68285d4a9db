"""Bottom-up evaluation: naive and semi-naive, with order atoms and negation.

The engine evaluates a :class:`~repro.datalog.program.Program` over a
:class:`~repro.datalog.database.Database` of EDB facts:

* IDB predicates are computed SCC by SCC in topological order of the
  dependency graph; within a recursive SCC, semi-naive (delta) iteration
  is used.  One driver (:func:`_fixpoint`) runs every strategy —
  semi-naive, naive, and the incremental ingest of
  :mod:`repro.persist.session` — over one run state (:class:`_Run`).
* Each rule's join runs on one of two engines.  The default
  ``engine="slots"`` is the **compiled engine** of
  :mod:`repro.datalog.plan`: each rule is compiled once per (rule,
  delta-position) into a cost-ordered plan over integer variable slots
  and executed as batched block kernels over columnar relations.
  ``engine="interpreted"`` is the tuple-at-a-time interpreter — the
  reference the compiled engine is tested against (naive interpreted
  evaluation of the original program is the repo's oracle).
* **Representation follows the engine.**  The compiled engine runs on
  columnar storage, the interpreter on row storage; ``evaluate``
  converts its database once, on entry, when it arrives in the other
  representation.  The oracle therefore shares no storage or join code
  with the fast path.
* :class:`EvaluationStats` counts rule firings, index probes, rows
  scanned, facts derived, index builds and environment allocations —
  plus per-rule ``rows_scanned`` — the "join work" measures the
  benchmarks report when comparing engines and transformed programs.
* The engine is instrumented with the tracer of
  :mod:`repro.observability.trace`: an ``evaluate`` span wraps the run,
  each SCC gets an ``scc`` span, each round an ``iteration`` event,
  every compiled plan a ``plan`` event (with the chosen join order),
  every lazily built hash index an ``index_build`` event, and every
  rule execution a ``rule`` span carrying its wall time plus the
  per-rule deltas of the work counters.  With the default disabled
  tracer none of this fires — the hot path pays one boolean check.
* With ``provenance=True`` the engine records, for each derived fact,
  the first rule instantiation that produced it; :func:`derivation_tree`
  then reconstructs a ground derivation tree in the paper's sense (goal
  nodes alternating with rule nodes, EDB literals at the leaves).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from typing import Callable, Iterable, Mapping, Sequence

from ..observability.trace import Tracer, get_tracer
from ..robustness.budget import Budget, CancellationToken, FallbackStep, Governor
from ..robustness.errors import EvaluationAborted
from .atoms import Atom, Literal, OrderAtom, evaluate_comparison
from .database import Database, Relation, Row
from .plan import DEFAULT_IDB_ESTIMATE, RulePlan, compile_rule, order_body_greedy
from .program import Program
from .rules import Rule
from .terms import Constant, Variable

__all__ = [
    "ENGINES",
    "ENGINE_STORAGE",
    "REMOVED_OPTIONS",
    "STRATEGIES",
    "EvaluationStats",
    "EvaluationResult",
    "EvaluationSnapshot",
    "DerivationNode",
    "evaluate",
    "evaluate_query",
    "derivation_tree",
]

#: Valid ``engine`` arguments of :func:`evaluate`.
ENGINES = ("slots", "interpreted")

#: Valid ``strategy`` arguments of :func:`evaluate`.
STRATEGIES = ("seminaive", "naive")

#: The storage representation each engine runs on.
ENGINE_STORAGE = {"slots": "columnar", "interpreted": "rows"}

#: Options that were removed, with the reason the CLI (exit 2) and the
#: daemon (HTTP 400) give when a caller still names one.
REMOVED_OPTIONS = {
    "storage": "storage follows the engine",
    "plan_order": "cost order is the only compiled order",
}


@dataclass
class EvaluationStats:
    """Work counters accumulated during one evaluation.

    The scalar counters measure join work; ``rows_scanned_by_rule``
    attributes ``rows_scanned`` to the rule (by its ``repr``) that
    scanned them, so benchmarks can prove a plan change scans fewer
    rows per rule without enabling the tracer.
    """

    rule_firings: int = 0
    probes: int = 0
    rows_scanned: int = 0
    facts_derived: int = 0
    iterations: int = 0
    index_builds: int = 0
    env_allocations: int = 0
    intern_hits: int = 0
    block_probes: int = 0
    budget_trips: int = 0
    worker_restarts: int = 0
    shards_redispatched: int = 0
    degradations: int = 0
    wall_time_seconds: float = 0.0
    rows_scanned_by_rule: dict[str, int] = field(default_factory=dict)

    def merge(self, other: "EvaluationStats") -> None:
        # getattr with a default, not attribute access: ``other`` may be
        # a stats object deserialized from an older checkpoint that
        # predates newer counters (see :meth:`from_dict`).
        for name in _COUNTERS:
            setattr(self, name, getattr(self, name) + getattr(other, name, 0))
        # Wall-clock merges in integer nanoseconds: float ``+=`` is
        # commutative but not associative, so shard stats merged in
        # different orders could disagree in the last bits.  Integer
        # addition is exact, so any merge order yields the same float.
        self.wall_time_seconds = (
            round(self.wall_time_seconds * 1e9)
            + round(getattr(other, "wall_time_seconds", 0.0) * 1e9)
        ) / 1e9
        merged = self.rows_scanned_by_rule
        for key, value in getattr(other, "rows_scanned_by_rule", {}).items():
            merged[key] = merged.get(key, 0) + value
        # Keep the per-rule attribution sorted by rule key so the dict's
        # insertion order — and every JSON rendering of it — is
        # independent of the order shard stats arrived in.
        self.rows_scanned_by_rule = dict(sorted(merged.items()))

    def as_dict(self) -> dict[str, object]:
        """The counters as a plain dict (benchmark ``extra_info`` payloads)."""
        payload: dict[str, object] = {
            spec.name: getattr(self, spec.name) for spec in fields(self)
        }
        payload["rows_scanned_by_rule"] = dict(sorted(self.rows_scanned_by_rule.items()))
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "EvaluationStats":
        """Rebuild stats from an :meth:`as_dict` payload, tolerantly.

        Checkpoints written by older versions predate newer counters
        (``budget_trips`` and ``wall_time_seconds`` arrived later than
        the join counters, for instance): missing fields default to
        zero instead of raising ``KeyError``, and unknown fields written
        by *newer* versions are ignored, so stats survive both
        directions of a version skew.
        """
        stats = cls()
        for name in _COUNTERS:
            setattr(stats, name, int(payload.get(name, 0)))  # type: ignore[call-overload]
        stats.wall_time_seconds = float(payload.get("wall_time_seconds", 0.0))  # type: ignore[arg-type]
        by_rule = payload.get("rows_scanned_by_rule", {})
        stats.rows_scanned_by_rule = {
            str(rule): int(count) for rule, count in by_rule.items()  # type: ignore[union-attr]
        }
        return stats

    def copy(self) -> "EvaluationStats":
        """An independent copy (checkpoints must not alias live counters)."""
        fresh = EvaluationStats()
        fresh.merge(self)
        return fresh

    def compare(self, other: "EvaluationStats") -> dict[str, float]:
        """Per-scalar-counter ratios ``other / self`` (1.0 when both are zero).

        The benchmarks report these as work ratios of a transformed
        program against its baseline: a ratio below 1.0 on
        ``facts_derived`` means the transformation derived fewer facts.
        Only the integer counters are compared: the per-rule breakdown
        is not a ratio and ``wall_time_seconds`` (a float) is too noisy
        to be a meaningful work ratio, so both are skipped.
        """
        ratios: dict[str, float] = {}
        mine = self.as_dict()
        theirs = other.as_dict()
        for key, value in mine.items():
            if not isinstance(value, int):
                continue
            # .get, not [] — ``other`` may have been loaded from an older
            # checkpoint whose as_dict lacked newer counters.
            other_value = theirs.get(key, 0)
            if value == 0:
                ratios[key] = 1.0 if other_value == 0 else float("inf")
            else:
                ratios[key] = other_value / value
        return ratios


#: The integer work counters of :class:`EvaluationStats`, in field order:
#: what :meth:`~EvaluationStats.merge` sums and
#: :meth:`~EvaluationStats.from_dict` restores as ints.
_COUNTERS = tuple(
    spec.name for spec in fields(EvaluationStats) if type(spec.default) is int
)

#: A ground fact key: (predicate, row of values).
Fact = tuple[str, Row]


@dataclass
class EvaluationResult:
    """The computed IDB plus statistics and (optionally) provenance."""

    idb: dict[str, Relation]
    stats: EvaluationStats
    program: Program
    database: Database
    provenance: dict[Fact, tuple[Rule, tuple[Fact, ...]]] | None = None
    #: Sharded-evaluation report (``evaluate(..., workers=N)`` only):
    #: per-worker task/CPU totals plus the modeled critical path — see
    #: :func:`repro.parallel.engine.evaluate_sharded`.
    shards: dict | None = None
    #: Degradation-ladder rungs taken on the way to this result
    #: (``evaluate(..., workers=N)`` only): one
    #: :class:`~repro.robustness.budget.FallbackStep` per abandoned
    #: fleet configuration when worker recovery exhausted its retry
    #: budget.  Empty on clean runs.
    fallbacks: tuple = ()

    def relation(self, predicate: str) -> Relation:
        """The computed relation for an IDB predicate (empty if none derived)."""
        rel = self.idb.get(predicate)
        if rel is not None:
            return rel
        try:
            return Relation(self.program.arity_of(predicate))
        except KeyError:
            raise KeyError(f"unknown IDB predicate {predicate}") from None

    def rows(self, predicate: str) -> frozenset[Row]:
        return self.relation(predicate).rows()

    def query_rows(self) -> frozenset[Row]:
        if self.program.query is None:
            raise ValueError("program has no query predicate")
        return self.rows(self.program.query)


@dataclass(frozen=True)
class EvaluationSnapshot:
    """A resumable point-in-time capture of one evaluation.

    Emitted by :func:`evaluate` through its ``checkpoint_sink`` at
    semi-naive round boundaries, and accepted back via ``resume_from``
    to restart the fixpoint from the saved frontier instead of from
    scratch.  The snapshot is deliberately **engine-agnostic** — it
    captures only rows, the SCC/iteration cursor and cumulative stats,
    never compiled plans or indexes — so a snapshot taken under the
    compiled engine resumes correctly under the interpreter (and vice
    versa).  It is also plain data: the persistence layer
    (:mod:`repro.persist`) serializes it to the on-disk checkpoint
    format without reaching into engine internals.

    ``completed_sccs`` counts the SCCs (in the deterministic Tarjan
    topological order of :func:`_sccs`) whose fixpoints are fully
    contained in ``idb``; ``scc_index``/``iteration`` locate the
    in-progress SCC and the rounds already run inside it; ``delta`` is
    the semi-naive frontier feeding its next round (``None`` for naive
    snapshots and for completed evaluations).  ``stats`` are cumulative
    from the very first run, so resumed statistics stay monotone.

    ``interner`` is the columnar backend's value table in code order
    (``None`` under rows storage): rows in the snapshot are always
    decoded values, so the snapshot stays engine- **and**
    storage-agnostic, but carrying the table lets a columnar resume
    reproduce the exact code assignment of the checkpointed run.

    ``edb`` is the extensional database at snapshot time, carried only
    on *complete* snapshots written by the persistence layer: ingested
    facts live nowhere else once the write-ahead journal compacts, so a
    complete checkpoint must be self-contained — restore = EDB + IDB
    from the checkpoint, then replay the journal suffix.  ``None`` on
    engine-emitted mid-evaluation snapshots (resume re-uses the live
    session database) and on checkpoints written before the journal.
    """

    strategy: str
    completed_sccs: int
    scc_index: int | None
    iteration: int
    idb: Mapping[str, frozenset]
    delta: Mapping[str, frozenset] | None
    stats: EvaluationStats
    complete: bool = False
    interner: "tuple | None" = None
    edb: "Mapping[str, frozenset] | None" = None


def _check_resume(
    resume_from: "EvaluationSnapshot | None", strategy: str, provenance: bool
) -> None:
    if resume_from is None:
        return
    if provenance:
        raise ValueError(
            "provenance=True cannot resume from a snapshot: provenance "
            "for pre-checkpoint facts was not captured"
        )
    if resume_from.strategy != strategy:
        # A naive snapshot has no frontier, so semi-naive resumption
        # would treat its facts as exhausted deltas and under-derive;
        # refuse both directions rather than silently recompute.
        raise ValueError(
            f"snapshot was taken under strategy {resume_from.strategy!r}; "
            f"cannot resume with strategy {strategy!r}"
        )


# ----------------------------------------------------------------------
# The interpreted engine (the tuple-at-a-time reference)
# ----------------------------------------------------------------------
#: Sentinel distinguishing "variable unbound" from a legitimate ``None``
#: value stored in a database row.
_UNSET = object()


class _RuleJoin:
    """An interpreted join plan for one rule with an optional delta subgoal."""

    def __init__(self, rule: Rule, delta_index: int | None):
        self.rule = rule
        self.rule_key = repr(rule)
        self.delta_index = delta_index
        self.plan = order_body_greedy(rule, delta_index)
        self.delta_predicate: str | None = None
        if delta_index is not None:
            item = rule.body[delta_index]
            assert isinstance(item, Literal)
            self.delta_predicate = item.predicate

    def head_row(self, env: Mapping[Variable, object]) -> Row:
        return tuple(
            arg.value if isinstance(arg, Constant) else env[arg]
            for arg in self.rule.head.args
        )

    def support_rows(self, env: Mapping[Variable, object]) -> list[Fact]:
        return [
            (
                lit.predicate,
                tuple(
                    arg.value if isinstance(arg, Constant) else env[arg]
                    for arg in lit.args
                ),
            )
            for lit in self.rule.positive_literals
        ]

    def describe(self) -> str:
        return "; ".join(
            f"{'scan* ' if is_delta else ''}{item!r}" for item, is_delta in self.plan
        )


def _probe_literal(
    literal: Literal,
    env: dict[Variable, object],
    relation: Relation,
    stats: EvaluationStats,
) -> Iterable[dict[Variable, object]]:
    """Yield extended environments matching ``literal`` against ``relation``."""
    bound_positions: list[int] = []
    key_values: list[object] = []
    for i, arg in enumerate(literal.args):
        if isinstance(arg, Constant):
            bound_positions.append(i)
            key_values.append(arg.value)
        elif arg in env:
            bound_positions.append(i)
            key_values.append(env[arg])
    stats.probes += 1
    rows = relation.probe(tuple(bound_positions), tuple(key_values))
    for row in rows:
        stats.rows_scanned += 1
        extended = dict(env)
        stats.env_allocations += 1
        consistent = True
        for i, arg in enumerate(literal.args):
            if isinstance(arg, Constant):
                continue
            # _UNSET (not None) marks unbound: a row value of None must
            # still join consistently against an earlier binding.
            current = extended.get(arg, _UNSET)
            if current is _UNSET:
                extended[arg] = row[i]
            elif current != row[i]:
                consistent = False
                break
        if consistent:
            yield extended


def _check_filter(item: object, env: Mapping[Variable, object], edb_lookup) -> bool:
    """Evaluate a fully bound order atom or negated literal."""
    if isinstance(item, OrderAtom):
        left = item.left.value if isinstance(item.left, Constant) else env[item.left]
        right = item.right.value if isinstance(item.right, Constant) else env[item.right]
        return evaluate_comparison(left, right, item.op)
    assert isinstance(item, Literal) and not item.positive
    row = tuple(
        arg.value if isinstance(arg, Constant) else env[arg] for arg in item.args
    )
    return not edb_lookup(item.predicate, row, len(row))


def _run_join(
    join: _RuleJoin,
    env: dict[Variable, object],
    step: int,
    relation_of,
    delta_relation: Relation | None,
    edb_lookup,
    stats: EvaluationStats,
    out: list[dict[Variable, object]],
) -> None:
    """Depth-first execution of the interpreted plan, appending result envs."""
    if step == len(join.plan):
        out.append(env)
        return
    item, is_delta = join.plan[step]
    if isinstance(item, Literal) and item.positive:
        relation = delta_relation if is_delta else relation_of(item.predicate, item.atom.arity)
        for extended in _probe_literal(item, env, relation, stats):
            _run_join(join, extended, step + 1, relation_of, delta_relation, edb_lookup, stats, out)
    else:
        if _check_filter(item, env, edb_lookup):
            _run_join(join, env, step + 1, relation_of, delta_relation, edb_lookup, stats, out)


class _GovernedList(list):
    """The result buffer of a governed interpreted rule execution.

    Every emitted environment ticks the governor (strided
    deadline/cancellation check), so even a single explosive join stays
    cancellable without touching the ungoverned hot path.
    """

    __slots__ = ("_governor",)

    def __init__(self, governor):
        super().__init__()
        self._governor = governor

    def append(self, item) -> None:
        list.append(self, item)
        self._governor.tick("rule")


# ----------------------------------------------------------------------
# Engine adapters: one driver, two join engines
# ----------------------------------------------------------------------
# Each adapter compiles a rule (``make_plan``), runs it into an
# engine-specific result batch (``run``), sizes the batch for
# ``rule_firings`` (``result_count``) and inserts its head rows — plus
# provenance and the semi-naive sink delta — returning the number of
# *new* facts (``derive``).  The driver never reaches into a batch.
class _CompiledEngine:
    """Cost-ordered plans (:mod:`repro.datalog.plan`) run as block kernels.

    The result batch is ``(n, code columns)``; head insertion happens at
    the code level (one dedup set lookup plus one ``add_codes`` per new
    fact) and decodes only for provenance.  ``accept_log``, when set,
    maps each head predicate to a list that receives every accepted code
    row — the sharded master's replication log.
    """

    name = "slots"

    def __init__(self, database: Database, idb, tracer: Tracer):
        self.database = database
        self.idb = idb
        self.interner = database.interner
        self.tracer = tracer
        self.trace_on = tracer.enabled
        self.accept_log: "dict[str, list] | None" = None

    def _size_of(self, literal: Literal) -> float:
        """Estimated relation size at plan-compile time.

        EDB sizes are exact; IDB relations still empty when the plan is
        compiled (recursive predicates) get a default guess."""
        rel = self.idb.get(literal.predicate)
        if rel is not None:
            return float(len(rel)) or float(DEFAULT_IDB_ESTIMATE)
        return float(len(self.database.relation(literal.predicate, literal.atom.arity)))

    def make_plan(self, rule: Rule, delta_index: int | None) -> RulePlan:
        plan = compile_rule(rule, delta_index, size_of=self._size_of)
        if self.trace_on:
            self.tracer.event(
                "plan",
                predicate=rule.head.predicate,
                rule=plan.rule_key,
                order="cost",
                delta=plan.delta_predicate or "",
                steps=plan.describe(),
            )
        return plan

    def run(self, plan: RulePlan, relation_of, delta_relation, stats, governor=None):
        return plan.run_blocks(
            relation_of,
            delta_relation,
            self.interner,
            stats,
            tracer=self.tracer if self.trace_on else None,
            governor=governor,
        )

    @staticmethod
    def result_count(results) -> int:
        return results[0]

    def derive(self, plan, results, head_relation, sink_delta, prov, stats) -> int:
        n, cols = results
        if not n:
            return 0
        rule = plan.rule
        head_pred = rule.head.predicate
        intern = self.interner.intern
        head_cols = [
            cols[p] if s else [intern(p)] * n for s, p in plan.head_layout
        ]
        keys = zip(*head_cols) if head_cols else iter([()] * n)
        live = head_relation.code_rows()
        add_codes = head_relation.add_codes
        sink = None if sink_delta is None else sink_delta[head_pred].add_codes
        accepted = None if self.accept_log is None else self.accept_log[head_pred].append
        values = self.interner.values
        new = 0
        for i, codes in enumerate(keys):
            if codes in live:
                continue
            add_codes(codes)
            new += 1
            if sink is not None:
                sink(codes)
            if accepted is not None:
                accepted(codes)
            if prov is not None:
                env = [
                    None if col is None else values[col[i]] for col in cols
                ]
                head_row = tuple(values[c] for c in codes)
                prov[(head_pred, head_row)] = (
                    rule,
                    tuple(plan.support_rows(env)),
                )
        stats.facts_derived += new
        return new


class _InterpEngine:
    """The tuple-at-a-time interpreter over row storage: the reference."""

    name = "interpreted"

    def __init__(self, database: Database, idb, tracer: Tracer):
        self.database = database
        self.tracer = tracer
        self.trace_on = tracer.enabled

    def _edb_lookup(self, predicate: str, row: Row, arity: int) -> bool:
        return row in self.database.relation(predicate, arity)

    def make_plan(self, rule: Rule, delta_index: int | None) -> _RuleJoin:
        join = _RuleJoin(rule, delta_index)
        if self.trace_on:
            self.tracer.event(
                "plan",
                predicate=rule.head.predicate,
                rule=join.rule_key,
                order="greedy",
                delta=join.delta_predicate or "",
                steps=join.describe(),
            )
        return join

    def run(self, join: _RuleJoin, relation_of, delta_relation, stats, governor=None):
        # The governed buffer makes the recursive interpreter cancellable
        # mid-rule at each emitted environment.
        results: list[dict[Variable, object]] = (
            [] if governor is None else _GovernedList(governor)
        )
        _run_join(
            join, {}, 0, relation_of, delta_relation, self._edb_lookup, stats, results
        )
        return results

    @staticmethod
    def result_count(results) -> int:
        return len(results)

    def derive(self, join, results, head_relation, sink_delta, prov, stats) -> int:
        rule = join.rule
        head_pred = rule.head.predicate
        new = 0
        for env in results:
            head_row = join.head_row(env)
            if head_row in head_relation:
                continue
            head_relation.add(head_row)
            new += 1
            if prov is not None:
                prov[(head_pred, head_row)] = (rule, tuple(join.support_rows(env)))
            if sink_delta is not None:
                sink_delta[head_pred].add(head_row)
        stats.facts_derived += new
        return new


_ENGINE_CLASSES = {"slots": _CompiledEngine, "interpreted": _InterpEngine}


def _sccs(graph: Mapping[str, set[str]]) -> list[list[str]]:
    """Tarjan's strongly connected components, returned in topological order."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    counter = [0]
    components: list[list[str]] = []

    def strongconnect(node: str) -> None:
        work = [(node, iter(sorted(graph.get(node, ()))))]
        index[node] = low[node] = counter[0]
        counter[0] += 1
        stack.append(node)
        on_stack.add(node)
        while work:
            current, successors = work[-1]
            advanced = False
            for succ in successors:
                if succ not in index:
                    index[succ] = low[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(sorted(graph.get(succ, ())))))
                    advanced = True
                    break
                if succ in on_stack:
                    low[current] = min(low[current], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[current])
            if low[current] == index[current]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == current:
                        break
                components.append(component)

    for node in sorted(graph):
        if node not in index:
            strongconnect(node)
    return components


# ----------------------------------------------------------------------
# The run state and the one fixpoint driver
# ----------------------------------------------------------------------
class _Run:
    """The live state of one evaluation run.

    Owns the IDB relations, the cumulative counters, the join engine
    and the governor.  It is the only place rules fire (:meth:`fire`),
    snapshots are built (:meth:`snapshot`) and budget trips are wrapped
    (:meth:`governed`) — for :func:`evaluate`, the incremental ingest of
    :class:`~repro.persist.session.Session` and the sharded master of
    :mod:`repro.parallel` alike.

    ``database`` is converted to the engine's representation once, here.
    The IDB starts empty, is seeded from ``resume_from`` (rows, the
    cumulative stats, and the interner table replayed first so codes
    match the checkpointed run), or adopts ready-made relations
    (``idb``, with ``stats`` as the counters to continue from).
    """

    def __init__(
        self,
        program: Program,
        database: Database,
        *,
        engine: str = "slots",
        strategy: str = "seminaive",
        tracer: Tracer,
        governor: Governor | None = None,
        provenance: bool = False,
        resume_from: EvaluationSnapshot | None = None,
        idb: "Mapping[str, Relation] | None" = None,
        stats: EvaluationStats | None = None,
        phase: str = "evaluate",
    ):
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r} (valid: {', '.join(ENGINES)})")
        database = database.to_storage(ENGINE_STORAGE[engine])
        self.program = program
        self.database = database
        self.strategy = strategy
        self.tracer = tracer
        self.trace_on = tracer.enabled
        self.governor = governor
        self.phase = phase
        self.started = time.perf_counter()
        self.stats = stats if stats is not None else EvaluationStats()
        self.interner = interner = database.interner
        self.idb: dict[str, Relation] = {
            pred: database.new_relation(program.arity_of(pred))
            for pred in program.idb_predicates
        }
        if idb is not None:
            self.idb.update(idb)
        if resume_from is not None:
            self.stats.merge(resume_from.stats)
            if interner is not None and resume_from.interner is not None:
                for value in resume_from.interner:
                    interner.intern(value)
            for pred, rows in resume_from.idb.items():
                if pred in self.idb:
                    for row in rows:
                        self.idb[pred].add(row)
        self.base_wall = self.stats.wall_time_seconds
        # intern_hits reports this run's dictionary re-use: the delta of
        # the interner's hit counter on top of the continued base (hits
        # spent re-seeding snapshot rows above are checkpointed work).
        self.base_intern = self.stats.intern_hits
        self.hits0 = 0 if interner is None else interner.hits
        self.prov: dict[Fact, tuple[Rule, tuple[Fact, ...]]] | None = (
            {} if provenance else None
        )
        self.eng = _ENGINE_CLASSES[engine](database, self.idb, tracer)
        #: Extra ``EvaluationResult.shards`` report (the sharded master).
        self.shard_report: "Callable[[], dict] | None" = None

    def relation_of(self, predicate: str, arity: int) -> Relation:
        if predicate in self.idb:
            return self.idb[predicate]
        return self.database.relation(predicate, arity)

    def new_relations(self, predicates) -> dict[str, Relation]:
        """Fresh, empty relations (delta frontiers) for ``predicates``."""
        return {
            pred: self.database.new_relation(self.program.arity_of(pred))
            for pred in predicates
        }

    def plan(self, rule: Rule, delta_index: int | None):
        return self.eng.make_plan(rule, delta_index)

    def check(self) -> None:
        if self.governor is not None:
            self.governor.check(self.phase, self.stats)

    def fire(
        self,
        plan,
        delta_relation: "Relation | None",
        sink_delta: "Mapping[str, Relation] | None",
        scc_index: int,
        iteration: int | None,
    ) -> int:
        """Run one rule's join, record the results (into ``sink_delta``
        too, when given) and return the number of new facts.  When
        tracing, a ``rule`` span carries the per-rule work deltas."""
        stats = self.stats
        if not self.trace_on:
            return self._fire(plan, delta_relation, sink_delta)
        before = (
            stats.probes,
            stats.rows_scanned,
            stats.facts_derived,
            stats.rule_firings,
            stats.index_builds,
        )
        with self.tracer.span(
            "rule",
            predicate=plan.rule.head.predicate,
            rule=plan.rule_key,
            scc=scc_index,
            iteration=iteration,
            delta=delta_relation is not None,
        ) as span:
            new = self._fire(plan, delta_relation, sink_delta)
            span.set(
                firings=stats.rule_firings - before[3],
                probes=stats.probes - before[0],
                rows_scanned=stats.rows_scanned - before[1],
                facts_derived=stats.facts_derived - before[2],
                index_builds=stats.index_builds - before[4],
            )
        return new

    def _fire(self, plan, delta_relation, sink_delta) -> int:
        stats, eng = self.stats, self.eng
        rows_before = stats.rows_scanned
        results = eng.run(plan, self.relation_of, delta_relation, stats, self.governor)
        stats.rule_firings += eng.result_count(results)
        key = plan.rule_key
        stats.rows_scanned_by_rule[key] = (
            stats.rows_scanned_by_rule.get(key, 0) + stats.rows_scanned - rows_before
        )
        new = eng.derive(
            plan,
            results,
            self.idb[plan.rule.head.predicate],
            sink_delta,
            self.prov,
            stats,
        )
        self.check()
        return new

    def finish(self) -> None:
        """Bring ``intern_hits`` and the cumulative wall time up to date."""
        if self.interner is not None:
            self.stats.intern_hits = self.base_intern + self.interner.hits - self.hits0
        self.stats.wall_time_seconds = self.base_wall + (time.perf_counter() - self.started)

    def snapshot(
        self,
        completed: int,
        scc_index: int | None,
        iteration: int,
        delta: "Mapping[str, object] | None",
        complete: bool = False,
    ) -> EvaluationSnapshot:
        self.finish()
        return EvaluationSnapshot(
            strategy=self.strategy,
            completed_sccs=completed,
            scc_index=scc_index,
            iteration=iteration,
            idb={pred: rel.rows() for pred, rel in self.idb.items()},
            delta=None
            if delta is None
            else {pred: rel.rows() for pred, rel in delta.items()},  # type: ignore[attr-defined]
            stats=self.stats.copy(),
            complete=complete,
            interner=None if self.interner is None else tuple(self.interner.values),
        )

    def result(self) -> EvaluationResult:
        return EvaluationResult(
            idb=self.idb,
            stats=self.stats,
            program=self.program,
            database=self.database,
            provenance=self.prov,
            shards=None if self.shard_report is None else self.shard_report(),
        )

    @contextmanager
    def governed(self):
        """Turn a budget trip into an abort carrying the partial result."""
        try:
            yield
        except EvaluationAborted as exc:
            self.stats.budget_trips += 1
            self.finish()
            if self.trace_on:
                self.tracer.event(
                    "budget.trip",
                    phase=exc.phase or self.phase,
                    limit=exc.limit or "",
                    facts_derived=self.stats.facts_derived,
                    iterations=self.stats.iterations,
                )
            raise exc.with_context(
                phase=self.phase, partial=self.result(), stats=self.stats
            ) from None


def _fixpoint(
    run: _Run,
    *,
    changed: "dict[str, Relation] | None" = None,
    max_iterations: int | None = None,
    checkpoint_every: int = 0,
    checkpoint_sink: "Callable[[EvaluationSnapshot], None] | None" = None,
    resume_from: EvaluationSnapshot | None = None,
) -> None:
    """The one SCC driver behind every sequential strategy.

    Components run in topological order.  Each runs a *seed phase* and
    then rounds until a round derives nothing:

    * **semi-naive** — a non-recursive SCC fires each rule once; a
      recursive one seeds its delta with the exit rules (no same-SCC
      body literal), and every round fires each (rule, same-SCC
      position) plan on the previous round's delta;
    * **incremental ingest** (``changed`` maps predicates to their new
      rows) — the seed fires each rule once per positive body position
      whose predicate changed outside the SCC, with the changed rows as
      the delta there; rounds as above; the SCC's new rows then join
      ``changed`` for the SCCs above it;
    * **naive** (``run.strategy == "naive"``) — the whole program is one
      group with no seed, and every round fires every rule on full
      relations.  Rounds are numbered globally and snapshots carry no
      frontier, so a naive resume simply keeps iterating.
    """
    program, stats, tracer = run.program, run.stats, run.tracer
    naive = changed is None and run.strategy == "naive"
    graph = program.dependency_graph()
    components = _sccs(graph)
    groups = [sorted(program.idb_predicates)] if naive else components
    skip = 0 if naive or resume_from is None else resume_from.completed_sccs
    checkpointing = checkpoint_sink is not None and checkpoint_every > 0
    for scc_index, component in enumerate(groups):
        if scc_index < skip:
            continue  # fixpoint already contained in the seeded IDB
        run.check()
        members = set(component)
        rules = [r for r in program.rules if r.head.predicate in members]
        recursive = naive or len(component) > 1 or any(
            head in graph.get(head, set()) for head in component
        )
        with tracer.span(
            "scc",
            index=scc_index,
            members=",".join(sorted(members)),
            recursive=recursive,
        ):
            if not recursive and changed is None:
                for rule in rules:
                    run.fire(run.plan(rule, None), None, None, scc_index, None)
                continue
            member_positions = [
                (
                    rule,
                    [
                        pos
                        for pos, item in enumerate(rule.body)
                        if isinstance(item, Literal)
                        and item.positive
                        and item.predicate in members
                    ],
                )
                for rule in rules
            ]
            delta_positions = [
                (rule, pos) for rule, positions in member_positions for pos in positions
            ]
            delta = run.new_relations(members)
            if naive:
                iterations = stats.iterations
            elif (
                resume_from is not None
                and resume_from.scc_index == scc_index
                and resume_from.delta is not None
            ):
                # The snapshot was taken at a round boundary of this
                # SCC: its seed already fired (its facts are in the
                # seeded IDB), so restore the frontier and the cursor.
                for pred in members:
                    for row in resume_from.delta.get(pred, ()):
                        delta[pred].add(row)
                iterations = resume_from.iteration
            else:
                if changed is None:
                    for rule, positions in member_positions:
                        if not positions:  # an exit rule
                            run.fire(run.plan(rule, None), None, delta, scc_index, None)
                else:
                    for rule in rules:
                        for pos, item in enumerate(rule.body):
                            if not (isinstance(item, Literal) and item.positive):
                                continue
                            source = changed.get(item.predicate)
                            if item.predicate in members or source is None or not len(source):
                                continue
                            run.fire(run.plan(rule, pos), source, delta, scc_index, None)
                iterations = 0
            if changed is not None:
                fresh = run.new_relations(members)
                for pred in members:
                    fresh[pred].update(delta[pred])
            # Round plans are compiled after the seed fired, so cost
            # estimates see the seeded IDB sizes; each (rule,
            # delta-position) is compiled exactly once per SCC.
            if naive:
                plans = [run.plan(rule, None) for rule in rules]
            else:
                plans = [run.plan(rule, pos) for rule, pos in delta_positions]
            pending = naive or any(len(d) for d in delta.values())
            while pending:
                iterations += 1
                if max_iterations is not None and iterations > max_iterations:
                    break
                stats.iterations += 1
                run.check()
                if run.trace_on:
                    tracer.event(
                        "iteration",
                        scc=scc_index,
                        index=iterations,
                        delta_in=None if naive else sum(len(d) for d in delta.values()),
                    )
                new_delta = None if naive else run.new_relations(members)
                derived = 0
                for plan in plans:
                    source = None if naive else delta[plan.delta_predicate]
                    if source is not None and not len(source):
                        continue
                    derived += run.fire(plan, source, new_delta, scc_index, iterations)
                pending = derived > 0
                if new_delta is not None:
                    delta = new_delta
                    if changed is not None:
                        for pred in members:
                            fresh[pred].update(delta[pred])
                if checkpointing and stats.iterations % checkpoint_every == 0:
                    checkpoint_sink(
                        run.snapshot(0, None, iterations, None)
                        if naive
                        else run.snapshot(scc_index, scc_index, iterations, delta)
                    )
            if changed is not None:
                for pred in members:
                    if len(fresh[pred]):
                        changed[pred] = fresh[pred]
    if checkpoint_sink is not None:
        checkpoint_sink(
            run.snapshot(
                0 if naive else len(components),
                None,
                stats.iterations,
                None,
                complete=True,
            )
        )


def evaluate(
    program: Program,
    database: Database,
    *,
    provenance: bool = False,
    max_iterations: int | None = None,
    strategy: str = "seminaive",
    tracer: Tracer | None = None,
    engine: str = "slots",
    workers: int | None = None,
    supervision: "object | None" = None,
    budget: "Budget | Governor | None" = None,
    cancellation: CancellationToken | None = None,
    checkpoint_every: int = 0,
    checkpoint_sink: "Callable[[EvaluationSnapshot], None] | None" = None,
    resume_from: EvaluationSnapshot | None = None,
) -> EvaluationResult:
    """Evaluate ``program`` bottom-up over ``database``.

    Returns an :class:`EvaluationResult` with the full IDB.  With
    ``provenance=True`` each derived fact remembers the first rule
    instantiation that produced it (for :func:`derivation_tree`).
    ``max_iterations`` bounds semi-naive rounds per SCC (used by tests
    exploring non-terminating hypotheticals; normal evaluation always
    terminates) and *truncates silently* — for an error-raising bound
    use ``budget`` instead.

    ``strategy`` selects ``"seminaive"`` (default, delta-driven) or
    ``"naive"`` (re-evaluate every rule against the full relations each
    round) — the naive mode exists as a correctness oracle and as a
    baseline in the engine benchmarks.

    ``engine`` selects the join engine: ``"slots"`` (default, the
    compiled engine: cost-ordered plans run as block kernels over
    columnar storage) or ``"interpreted"`` (the tuple-at-a-time
    interpreter over row storage, the reference).  The database is
    converted to the engine's representation on entry when needed;
    results and fixpoint digests are byte-identical across engines.

    ``workers=N`` shards the evaluation across ``N`` forked worker
    processes (:mod:`repro.parallel`): each semi-naive delta is
    hash-partitioned by code row, workers run the block kernels over
    their shard, and frontiers merge at round boundaries.  Requires
    ``engine="slots"`` and ``strategy="seminaive"``; ``provenance`` is
    unsupported.  Fixpoints, digests, iteration counts and
    ``rows_scanned`` are byte-identical to the sequential engine; see
    ``docs/parallel.md``.  Worker deaths are recovered by the
    supervision layer (respawn + shard re-dispatch under a bounded
    retry budget); when recovery is exhausted the run *degrades* —
    half the workers, then sequential — recording each rung as a
    :class:`~repro.robustness.budget.FallbackStep` in
    ``result.fallbacks`` instead of raising.  ``supervision`` accepts a
    :class:`~repro.parallel.supervisor.SupervisionPolicy` overriding
    the default retry/straggler settings.

    ``tracer`` overrides the globally installed tracer (see
    :func:`repro.observability.trace.tracing`); the default disabled
    tracer makes instrumentation free.

    ``budget`` (a :class:`~repro.robustness.budget.Budget`, or an
    already-running :class:`~repro.robustness.budget.Governor` shared
    with earlier phases) and ``cancellation`` make the run governed:
    limits are checked at SCC, round and rule boundaries (plus strided
    ticks inside the join engines), and a violated limit raises
    :class:`~repro.robustness.errors.BudgetExceededError` (or
    :class:`~repro.robustness.errors.Cancelled`) carrying the partial
    fixpoint computed so far in ``exc.partial``.  Because negation is
    restricted to EDB predicates the program is monotone in its IDB, so
    the partial fixpoint is always a subset of the full one.

    ``checkpoint_every`` + ``checkpoint_sink`` make the run durable:
    after every ``checkpoint_every``-th round (counted cumulatively in
    ``stats.iterations``) the sink receives an
    :class:`EvaluationSnapshot` of the IDB, the delta frontier and the
    SCC/iteration cursor; a final ``complete=True`` snapshot is always
    emitted when a sink is given.  ``resume_from`` restarts evaluation
    from such a snapshot: completed SCCs are skipped, the in-progress
    SCC continues from its saved frontier, and statistics continue
    cumulatively (budget limits therefore account for pre-checkpoint
    work too).  The snapshot must match ``strategy`` and is
    engine-independent; ``provenance=True`` cannot resume.
    """
    if tracer is None:
        tracer = get_tracer()
    if workers is not None:
        if engine != "slots":
            raise ValueError(
                "workers=N requires the compiled slot engine "
                f"(engine='slots'), got engine={engine!r}"
            )
        return _evaluate_fleet(
            program,
            database,
            workers=workers,
            provenance=provenance,
            max_iterations=max_iterations,
            strategy=strategy,
            tracer=tracer,
            budget=budget,
            cancellation=cancellation,
            checkpoint_every=checkpoint_every,
            checkpoint_sink=checkpoint_sink,
            resume_from=resume_from,
            supervision=supervision,
        )
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    _check_resume(resume_from, strategy, provenance)
    run = _Run(
        program,
        database,
        engine=engine,
        strategy=strategy,
        tracer=tracer,
        governor=Governor.of(budget, cancellation),
        provenance=provenance,
        resume_from=resume_from,
    )
    with run.governed(), tracer.span(
        "evaluate", strategy=strategy, engine=run.eng.name, rules=len(program.rules)
    ) as root:
        _fixpoint(
            run,
            # Naive rounds are global, not per SCC: the per-SCC
            # round bound does not apply to them.
            max_iterations=None if strategy == "naive" else max_iterations,
            checkpoint_every=checkpoint_every,
            checkpoint_sink=checkpoint_sink,
            resume_from=resume_from,
        )
        if run.trace_on:
            root.set(**{k: v for k, v in run.stats.as_dict().items() if isinstance(v, int)})
    run.finish()
    return run.result()


def _evaluate_fleet(program: Program, database: Database, *, workers: int, **kwargs) -> EvaluationResult:
    """``evaluate(..., workers=N)``: the sharded evaluator plus its
    degradation ladder (docs/parallel.md).

    A sharded run whose supervisor exhausted its recovery budget (or
    whose pool could not warm up) is *retried* at half the worker count,
    down to one, then sequentially — a recoverable fault costs rungs and
    time, never the answer and never exit 2.  Budget trips and
    cancellation are not recoverable faults: they propagate as usual
    (exit 1).
    """
    # Imported lazily: repro.parallel imports this module at its top level.
    from ..parallel.engine import WorkerFailure, evaluate_sharded

    tracer = kwargs["tracer"]
    rungs = []
    count = workers
    while count >= 1:
        rungs.append(count)
        count //= 2
    steps: list[FallbackStep] = []
    carried_restarts = 0
    carried_redispatched = 0
    result = None
    for rung, count in enumerate(rungs):
        try:
            result = evaluate_sharded(program, database, workers=count, **kwargs)
            break
        except WorkerFailure as exc:
            recovery = getattr(exc, "recovery", None) or {}
            carried_restarts += recovery.get("worker_restarts", 0)
            carried_redispatched += recovery.get("shards_redispatched", 0)
            fell_back_to = (
                f"sharded-w{rungs[rung + 1]}"
                if rung + 1 < len(rungs)
                else "sequential-columnar"
            )
            step = FallbackStep(
                stage=f"sharded-w{count}", fell_back_to=fell_back_to, reason=str(exc)
            )
            steps.append(step)
            if tracer.enabled:
                tracer.event(
                    "shard.degrade",
                    stage=step.stage,
                    fell_back_to=step.fell_back_to,
                    reason=step.reason,
                )
    if result is None:
        # Every sharded rung failed: the sequential compiled engine is
        # the ladder's floor (no fleet, nothing left to crash).
        kwargs.pop("supervision")
        result = evaluate(program, database, engine="slots", **kwargs)
    if steps:
        result.stats.degradations += len(steps)
        result.stats.worker_restarts += carried_restarts
        result.stats.shards_redispatched += carried_redispatched
        result.fallbacks = tuple(steps) + tuple(result.fallbacks)
    return result


def evaluate_query(program: Program, database: Database) -> frozenset[Row]:
    """Convenience wrapper: evaluate and return the query relation's rows."""
    return evaluate(program, database).query_rows()


@dataclass
class DerivationNode:
    """A node of a ground derivation tree (paper, Section 2).

    Goal nodes carry a fact; the ``rule`` of an IDB goal node is the rule
    node below it, with ``children`` being the goal nodes of the rule's
    positive subgoals.  EDB goal nodes are leaves (``rule is None``).
    """

    predicate: str
    row: Row
    rule: Rule | None = None
    children: list["DerivationNode"] = field(default_factory=list)

    def leaves(self) -> list["DerivationNode"]:
        if self.rule is None:
            return [self]
        result: list[DerivationNode] = []
        for child in self.children:
            result.extend(child.leaves())
        return result

    def goal_nodes(self) -> list["DerivationNode"]:
        """All goal nodes of the tree (this node included)."""
        result = [self]
        for child in self.children:
            result.extend(child.goal_nodes())
        return result

    def render(self, indent: str = "") -> str:
        label = f"{self.predicate}({', '.join(map(repr, self.row))})"
        lines = [f"{indent}{label}" + ("" if self.rule is None else f"   [{self.rule!r}]")]
        for child in self.children:
            lines.append(child.render(indent + "  "))
        return "\n".join(lines)


def derivation_tree(result: EvaluationResult, predicate: str, row: Sequence[object]) -> DerivationNode:
    """Reconstruct a derivation tree for a derived fact.

    Requires the evaluation to have been run with ``provenance=True``.
    The provenance records first derivations, so the reconstruction is
    well-founded (no cycles).
    """
    if result.provenance is None:
        raise ValueError("evaluation was run without provenance=True")
    row = tuple(row)
    idb_preds = result.program.idb_predicates

    def build(fact: Fact) -> DerivationNode:
        pred, fact_row = fact
        if pred not in idb_preds:
            return DerivationNode(pred, fact_row)
        entry = result.provenance.get(fact)
        if entry is None:
            raise KeyError(f"fact {pred}{fact_row} was not derived")
        rule, supports = entry
        node = DerivationNode(pred, fact_row, rule=rule)
        node.children = [build(s) for s in supports]
        return node

    return build((predicate, row))
