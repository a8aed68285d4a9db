"""The engine benchmark harness: payload shape, fixpoint gate, CLI."""

import json

import pytest

from repro.bench import (
    ENGINE_CONFIGS,
    build_workloads,
    render_results,
    run_bench,
    write_results,
)
from repro.cli import main


@pytest.fixture(scope="module")
def quick_payload():
    return run_bench(
        workloads=["bench_taint", "bench_magic"], quick=True, repeat=1
    )


def test_build_workloads_covers_the_required_suite():
    suite = build_workloads(quick=True)
    assert {"bench_scaling", "bench_magic", "bench_example31"} <= set(suite)
    for units in suite.values():
        assert units  # every workload has at least one evaluation unit


def test_payload_shape_and_engines(quick_payload):
    assert quick_payload["quick"] is True
    assert quick_payload["engines"] == [label for label, _ in ENGINE_CONFIGS]
    for entry in quick_payload["workloads"].values():
        assert set(entry["engines"]) == set(quick_payload["engines"])
        for engine in entry["engines"].values():
            assert engine["time_s"] >= 0
            assert len(engine["fixpoint_sha256"]) == 64
            assert "rows_scanned" in engine["stats"]


def test_fixpoints_identical_across_engines(quick_payload):
    assert quick_payload["ok"] is True
    for entry in quick_payload["workloads"].values():
        digests = {e["fixpoint_sha256"] for e in entry["engines"].values()}
        assert len(digests) == 1
        assert entry["fixpoints_match"] is True


def test_magic_workload_scans_fewer_rows_on_compiled_engine(quick_payload):
    entry = quick_payload["workloads"]["bench_magic"]
    interpreted = entry["engines"]["interpreted"]["stats"]["rows_scanned"]
    cost = entry["engines"]["slots"]["stats"]["rows_scanned"]
    assert cost < interpreted


def test_render_and_write(quick_payload, tmp_path):
    text = render_results(quick_payload)
    assert "bench_taint" in text and "slots" in text and "ok" in text
    path = tmp_path / "bench.json"
    write_results(quick_payload, str(path))
    assert json.loads(path.read_text())["ok"] is True


def test_unknown_workload_rejected():
    with pytest.raises(ValueError):
        run_bench(workloads=["bench_nonexistent"], quick=True, repeat=1)


class TestWorkersAxis:
    @pytest.fixture(scope="class")
    def parallel_payload(self):
        return run_bench(
            workloads=["bench_scaling"], quick=True, repeat=1, workers=2
        )

    def test_parallel_entry_shape(self, parallel_payload):
        assert parallel_payload["workers"] == 2
        entry = parallel_payload["workloads"]["bench_scaling"]
        parallel = entry["parallel"]
        # Powers of two up to the requested count.
        assert set(parallel["workers"]) == {"1", "2"}
        for run in parallel["workers"].values():
            assert run["time_s"] >= 0
            assert run["critical_path_s"] >= 0
            assert run["shard_overhead_seconds"] >= 0
            assert len(run["fixpoint_sha256"]) == 64
        speedup = parallel["speedup_parallel_vs_columnar"]
        assert speedup["basis"] == "critical_path"
        assert set(speedup["critical_path"]) == {"1", "2"}
        assert set(speedup["wall"]) == {"1", "2"}

    def test_parallel_digests_gate_against_columnar(self, parallel_payload):
        assert parallel_payload["ok"] is True
        entry = parallel_payload["workloads"]["bench_scaling"]
        reference = entry["engines"]["slots"]["fixpoint_sha256"]
        for run in entry["parallel"]["workers"].values():
            assert run["fixpoint_sha256"] == reference
        assert entry["parallel"]["fixpoints_match"] is True

    def test_render_shows_sharded_rows(self, parallel_payload):
        text = render_results(parallel_payload)
        assert "sharded-w2" in text

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            run_bench(workloads=["bench_scaling"], quick=True, workers=0)


class TestCli:
    def test_bench_json_writes_results(self, tmp_path, capsys):
        out = tmp_path / "BENCH_results.json"
        code = main(
            [
                "bench",
                "--json",
                "--quick",
                "--output",
                str(out),
                "--workloads",
                "bench_taint",
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["ok"] is True
        assert "bench_taint" in payload["workloads"]
        assert "results written to" in capsys.readouterr().out

    def test_bench_rejects_unknown_workloads(self, tmp_path, capsys):
        assert main(["bench", "--quick", "--workloads", "nope"]) == 2
        assert "error:" in capsys.readouterr().err
