"""Seeded inputs for every workload, as text.

The program under test only ever sees the text built here: program
text, ic text, fact text and goal text.  EDBs come from
``repro.workloads.generators`` (or, for the closures, a forward-edge
generator kept here so the benchmark does not depend on private bench
code); each EDB is checked against its ic's before use, because the
rewrite's equivalence (Theorem 4.1) holds only on consistent databases.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.constraints.integrity import database_satisfies
from repro.workloads import generators, programs


@dataclass(frozen=True)
class Unit:
    """One CLI-equivalent invocation: texts in, answers out."""

    label: str
    program: str
    constraints: str
    facts: str
    goal: str = ""  # bound goal (pipeline units); "" = full fixpoint
    query: str = ""  # query predicate for full-fixpoint units


def facts_text(database) -> str:
    lines = []
    for predicate in sorted(database.predicates()):
        for row in sorted(database.relation(predicate).rows()):
            lines.append(f"{predicate}({', '.join(map(repr, row))}).")
    return "\n".join(lines)


def _consistent(name: str, constraints, database) -> None:
    if not database_satisfies(constraints, database):
        raise RuntimeError(f"generated EDB for {name} violates its ic's")


def _texts(factory):
    program, constraints = factory()
    return program, str(program), "\n".join(repr(ic) for ic in constraints), constraints


# -- pipeline_ics ----------------------------------------------------------
#: The pipeline EDBs are generated from one fixed seed: on seeds 0-5 a
#: pass's rows_scanned ranged over 52k-58k, and run-to-run spread is
#: measured across seeds.  The run's seed shuffles the fact text.
PIPELINE_EDB_SEED = 0


def pipeline_units(seed: int) -> list[Unit]:
    """Eight bound goals over the five ic programs, on EDBs at the full
    ``repro bench`` sizes, their facts in seeded order.

    The goals are fixed (a root of each graph).  The instances are
    fixed too, so the work is the same on every seed and one stored
    oracle covers them all.
    """
    units: list[Unit] = []
    order = random.Random(seed)
    edb_seed = PIPELINE_EDB_SEED

    def add(name, factory, database, goals) -> None:
        _program, program_text, ic_text, constraints = _texts(factory)
        _consistent(name, constraints, database)
        facts = facts_text(database).split("\n")
        order.shuffle(facts)
        for index, goal in enumerate(goals):
            units.append(Unit(f"{name}-{index}", program_text, ic_text, "\n".join(facts), goal=goal))

    add(
        "flight",
        programs.flight_routes,
        generators.flight_database(cities=30, segments=160, seed=edb_seed),
        ["trip(2, Y)", "route(3, Y)"],
    )
    num_b = 55
    add(
        "ab",
        programs.ab_transitive_closure,
        generators.ab_database(num_b=num_b, num_a=55, branching=3, seed=edb_seed),
        ["p(0, Y)", f"p({num_b}, Y)"],  # the roots of the b and the a zone
    )
    good_path = generators.good_path_database(num_chains=6, chain_length=45, seed=edb_seed)
    # The last chain's start is the only start with an end point above
    # every start, so its goal has answers.
    start = max(row[0] for row in good_path.relation("startPoint").rows())
    add("goodpath", programs.good_path_order_constraints, good_path, [f"goodPath({start}, Y)"])
    # Node 64 is the first leaf of the depth-6 left tree.
    add(
        "samegen",
        programs.same_generation,
        generators.same_generation_database(depth=6, fanout=2, seed=edb_seed),
        ["query(2, Y)", "sg(64, Y)"],
    )
    add(
        "taint",
        programs.taint_analysis,
        generators.taint_database(variables=130, flows=420, sources=4, sinks=4, seed=edb_seed),
        ["alarm(4)"],  # the first sink
    )
    return units


# -- closure_eval ---------------------------------------------------------
def forward_edges(rng: random.Random, predicate: str, nodes: int, edges: int) -> list[str]:
    """``edges`` distinct random forward (acyclic) edges over ``nodes``
    (the generator of ``repro bench``'s bench_scaling, one color)."""
    rows: set[tuple[int, int]] = set()
    while len(rows) < edges:
        left = rng.randrange(nodes - 1)
        rows.add((left, rng.randrange(left + 1, nodes)))
    return [f"{predicate}({left}, {right})." for left, right in sorted(rows)]


def closure_units(seed: int) -> list[Unit]:
    """bench_scaling's colored closure (3 colors, 350 nodes, 6,000
    edges per color) and a deep same-generation instance, no ic's.

    Both instances are fixed; the seed shuffles the order of the fact
    text.  The work is then the same on every seed, and one stored
    oracle covers them all: the naive interpreted oracle of the colored
    closure takes about a minute.
    """
    rng = random.Random(0)  # bench_scaling's instance
    rules, colored = [], []
    for color in range(3):
        rules.append(f"p(X, Y) :- e{color}(X, Y).")
        rules.append(f"p(X, Y) :- e{color}(X, Z), p(Z, Y).")
        colored.extend(forward_edges(rng, f"e{color}", 350, 6000))
    program, _ = programs.same_generation()
    samegen = facts_text(generators.same_generation_database(depth=8, fanout=2)).split("\n")
    order = random.Random(seed)
    order.shuffle(colored)
    order.shuffle(samegen)
    return [
        Unit("colored-closure", "\n".join(rules), "", "\n".join(colored), query="p"),
        Unit("deep-samegen", str(program), "", "\n".join(samegen), query=program.query),
    ]


# -- serve_mixed ------------------------------------------------------------
@dataclass(frozen=True)
class Tenant:
    name: str
    program: str
    query: str
    constraints: str
    facts: str

    def register_body(self) -> dict:
        body = {"program": self.program, "query": self.query, "facts": self.facts}
        if self.constraints:
            body["constraints"] = self.constraints
        return body


ROUTE_CITIES = 20
CLOSURE_NODES = 200


#: The tenants' EDBs are the same on every seed, so the resident state,
#: and with it the cost of every op, does not move with the seed: the
#: route closure of a 20-city random graph alone varies by +-20% between
#: seeds.  The seed drives the op stream instead.
TENANT_SEED = 0


def serve_tenants() -> list[Tenant]:
    """``routes``: flight_routes *with* its ic's; ``closure``: a linear
    closure over 200 nodes and 800 edges, no ic's."""
    seed = TENANT_SEED
    rng = random.Random(seed)
    program, program_text, ic_text, constraints = _texts(programs.flight_routes)
    flights = generators.flight_database(cities=ROUTE_CITIES, segments=60, seed=seed)
    _consistent("routes", constraints, flights)
    closure_program = "p(X, Y) :- e(X, Y).\np(X, Y) :- e(X, Z), p(Z, Y)."
    closure_facts = "\n".join(forward_edges(rng, "e", CLOSURE_NODES, 800))
    return [
        Tenant("routes", program_text, program.query, ic_text, facts_text(flights)),
        Tenant("closure", closure_program, "p", "", closure_facts),
    ]
