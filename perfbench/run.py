"""Benchmark entry point.

    python3 perfbench/run.py --workload {pipeline_ics,closure_eval,serve_mixed} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout (the package is imported from
``src/``).  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; with ``--trace 0``
the metrics are the end-to-end metrics of ``BENCHMARK.json``, with
``--trace 1`` its per-layer metrics.  Earlier lines are human-readable
notes, including the noise record.  See ``perfbench/README.md``.

``--probe`` and ``--oracle`` are internal: the benchmark starts itself
in a fresh interpreter to measure set-up and to compute reference
answers away from the measured process.
"""

from __future__ import annotations

import argparse
import json
import sys

from common import ROOT, Outcome, require_source

BATCH = ("pipeline_ics", "closure_eval")
WORKLOADS = BATCH + ("serve_mixed",)


def _declared(kind: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"] for entry in spec[kind]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--oracle", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, default=0.0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    require_source()
    if args.workload in BATCH:
        import batch as workload
    else:
        import serve_mixed as workload

    if args.oracle:
        print(json.dumps(workload.oracle_digests(workload.WORKLOADS[args.workload](args.seed))))
        return 0
    if args.probe:
        print(json.dumps(workload.probe(args.workload, args.seed, args.spawned_at)))
        return 0

    out = Outcome()
    for note in workload.run(args.workload, args.seed, args.seconds, bool(args.trace), out):
        print(note)
    declared = _declared("per_layer" if args.trace else "end_to_end")
    if not args.trace:
        missing = sorted(set(declared) - set(out.metrics))
        if missing:
            raise RuntimeError(f"workload did not measure {missing}")
    # Per-layer metrics of layers this workload does not run are 0.
    out.metrics = {
        name: (out.metrics.get(name, (0.0, unit))[0], unit) for name, unit in declared.items()
    }
    for label in out.mismatches[:20]:
        print(f"MISMATCH {label}", file=sys.stderr)
    print(out.line(), flush=True)
    return 0 if out.correct else 1


if __name__ == "__main__":
    sys.exit(main())
