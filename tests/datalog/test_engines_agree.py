"""Engine agreement: the compiled engine, the interpreter and naive
evaluation compute identical fixpoints on random workloads.

``random_workload`` draws recursive programs that include negated EDB
literals and order-atom filters, so the property exercises every step
kind of the compiled block kernels against the interpreter and the
naive oracle.  The matrix is engine × strategy (plus the workers axis
below); each engine runs on its own storage representation, so the
block-kernel path and the tuple-at-a-time path are held to the same
answers on every workload.
"""

import pytest

from repro.datalog.database import STORAGES
from repro.datalog.evaluation import evaluate
from repro.digest import fixpoint_digest
from repro.robustness.budget import Budget
from repro.robustness.errors import BudgetExceededError
from repro.workloads.generators import random_workload
from repro.workloads.programs import good_path
from repro.workloads.generators import good_path_bidirectional_database

# The engine × strategy agreement matrix.
CONFIGS = (
    {"engine": "slots"},
    {"engine": "interpreted"},
    {"engine": "slots", "strategy": "naive"},
    {"engine": "interpreted", "strategy": "naive"},
)


def _fixpoint(program, database, **kwargs):
    result = evaluate(program, database, **kwargs)
    return {pred: result.rows(pred) for pred in program.idb_predicates}


@pytest.mark.parametrize("seed", range(20))
def test_all_engines_agree_on_random_workloads(seed):
    program, database, _ = random_workload(seed)
    fixpoints = [
        _fixpoint(program, database.copy(), **config) for config in CONFIGS
    ]
    for other in fixpoints[1:]:
        assert other == fixpoints[0]


@pytest.mark.parametrize("seed", range(20, 26))
def test_engines_agree_on_denser_graphs(seed):
    program, database, _ = random_workload(seed, nodes=8, edges=40)
    fixpoints = [
        _fixpoint(program, database.copy(), **config) for config in CONFIGS
    ]
    for other in fixpoints[1:]:
        assert other == fixpoints[0]


# ----------------------------------------------------------------------
# The workers axis: the multiprocess sharded evaluator (repro.parallel)
# held to the sequential slot engine.  A WorkerPool is bound to one
# program + EDB, so every seed costs a fresh fork — seeds are pooled
# inside each worker-count case instead of crossed into the parametrize
# grid to keep the fork bill bounded.

WORKER_COUNTS = (1, 2, 4)

#: ``random_workload`` draws negated EDB literals and order-atom
#: filters at these seeds; the denser draws run enough semi-naive
#: rounds to exercise repeated barrier merges.
SHARDED_SEEDS = (
    (0, {}),
    (3, {}),
    (7, {}),
    (21, {"nodes": 8, "edges": 40}),
    (24, {"nodes": 8, "edges": 40}),
)


def _digest(result):
    return fixpoint_digest([("workload", result.idb)])


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_sharded_evaluator_matches_sequential_slots(workers):
    """``evaluate(..., workers=N)`` must reproduce the sequential slot
    engine exactly: same fixpoint digest, same iteration count, and the
    same join-work counters — sharding redistributes the work, it never
    changes it (docs/parallel.md)."""
    for seed, kwargs in SHARDED_SEEDS:
        program, database, _ = random_workload(seed, **kwargs)
        sequential = evaluate(program, database.copy(), engine="slots")
        sharded = evaluate(program, database.copy(), engine="slots", workers=workers)
        label = f"seed={seed} workers={workers}"
        assert _digest(sharded) == _digest(sequential), label
        assert sharded.stats.iterations == sequential.stats.iterations, label
        assert sharded.stats.rule_firings == sequential.stats.rule_firings, label
        assert sharded.stats.facts_derived == sequential.stats.facts_derived, label
        assert sharded.stats.rows_scanned == sequential.stats.rows_scanned, label
        assert (
            sharded.stats.rows_scanned_by_rule
            == sequential.stats.rows_scanned_by_rule
        ), label
        assert sharded.shards is not None and sharded.shards["workers"] == workers


@pytest.mark.parametrize("storage", STORAGES)
def test_sharded_evaluator_agrees_across_input_storages(storage):
    """The sharded evaluator accepts a database in either storage
    representation as input (converting to columnar for the hand-off)
    and lands on the same digest either way."""
    program, database, _ = random_workload(21, nodes=8, edges=40)
    sequential = evaluate(program, database.copy().to_storage(storage), engine="slots")
    sharded = evaluate(
        program, database.copy().to_storage(storage), engine="slots", workers=2
    )
    assert _digest(sharded) == _digest(sequential)
    assert sharded.stats.iterations == sequential.stats.iterations


def test_sharded_budget_trip_partial_is_subset_of_fixpoint():
    """A budget trip mid-fleet aborts every worker and merges what was
    accepted so far: the partial IDB must be a subset of the true
    fixpoint, with merged stats and a sharding report attached."""
    program, database, _ = random_workload(21, nodes=8, edges=40)
    full = evaluate(program, database.copy(), engine="slots")
    with pytest.raises(BudgetExceededError) as info:
        evaluate(
            program,
            database.copy(),
            engine="slots",
            workers=4,
            budget=Budget(max_facts=1),
        )
    exc = info.value
    assert exc.partial is not None and exc.stats is not None
    for predicate, relation in exc.partial.idb.items():
        assert set(relation.rows()) <= set(full.rows(predicate)), predicate
    derived = sum(len(rel) for rel in exc.partial.idb.values())
    assert derived < sum(len(full.rows(p)) for p in program.idb_predicates)
    assert exc.partial.shards is not None and exc.partial.shards["workers"] == 4


def test_storages_agree_on_example31():
    """Example 3.1 (the paper's goodPath workload): the compiled engine
    computes identical answers and exactly equal work counters whether
    its input database arrives in row or columnar storage — it converts
    once on entry and then does the same work.  The counters are pinned
    to literal values, so any change to plan ordering or the block
    kernels that alters the work done shows up here."""
    program, _ = good_path()
    database = good_path_bidirectional_database(num_chains=3, chain_length=12, seed=0)

    rows = evaluate(program, database.copy().to_storage("rows"), engine="slots")
    columnar = evaluate(program, database.copy().to_storage("columnar"), engine="slots")
    interpreted = evaluate(program, database.copy(), engine="interpreted")

    assert columnar.query_rows() == rows.query_rows() == interpreted.query_rows()
    for stats in (rows.stats, columnar.stats):
        assert stats.probes == 495
        assert stats.rows_scanned == 949
        assert stats.facts_derived == 469
        assert stats.rule_firings == 469
        assert stats.iterations == 12
    assert columnar.stats.block_probes == rows.stats.block_probes
    assert columnar.stats.env_allocations == rows.stats.env_allocations
    # Only the batching-specific counters diverge from the row-at-a-time
    # interpreter: the block kernels allocate one environment block per
    # kernel call, not one per row, and count each call as a block probe.
    assert columnar.stats.block_probes > 0
    assert interpreted.stats.block_probes == 0
    assert columnar.stats.env_allocations < interpreted.stats.env_allocations


def test_example31_rows_scanned_regression():
    """The compiled cost-ordered engine must scan strictly fewer rows
    than the interpreter on the Example 3.1 workload (the cost order
    scans the startPoint/endPoint literals first), with identical
    answers; its per-rule attribution is pinned and adds up to the
    total."""
    program, _ = good_path()
    database = good_path_bidirectional_database(num_chains=3, chain_length=12, seed=0)

    interpreted = evaluate(program, database.copy(), engine="interpreted")
    cost = evaluate(program, database.copy(), engine="slots")

    assert cost.query_rows() == interpreted.query_rows()
    assert cost.stats.rows_scanned < interpreted.stats.rows_scanned
    assert cost.stats.rows_scanned_by_rule == {
        "goodPath(X, Y) :- startPoint(X), path(X, Y), endPoint(Y).": 13,
        "path(X, Y) :- step(X, Y).": 72,
        "path(X, Y) :- step(X, Z), path(Z, Y).": 864,
    }
    assert sum(cost.stats.rows_scanned_by_rule.values()) == cost.stats.rows_scanned
    goodpath_rules = [
        key for key in cost.stats.rows_scanned_by_rule if key.startswith("goodPath")
    ]
    assert goodpath_rules
    for key, rows in cost.stats.rows_scanned_by_rule.items():
        assert rows <= interpreted.stats.rows_scanned_by_rule[key]
