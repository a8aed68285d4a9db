"""The serving layer's view of fleet supervision: ``/healthz``
readiness with degradation state, 429 admission control for degraded
tenants, recovery counters in ``/stats``, and the client's shared
retry policy.
"""

import asyncio

import pytest

from repro.persist.store import RetryPolicy
from repro.robustness import FaultInjector
from repro.robustness.faults import chaos
from repro.serve.app import ServeApp
from repro.serve.client import ServeClient

ALPHA = {
    "program": "p(X, Y) :- e(X, Y).\np(X, Y) :- e(X, Z), p(Z, Y).",
    "query": "p",
    "facts": "\n".join(f"e({i}, {i + 1})." for i in range(10)),
}


def run(coro):
    return asyncio.run(coro)


async def register(app, name, spec):
    status, payload = await app.handle("PUT", f"/programs/{name}", spec)
    assert status == 200, payload
    return payload


# ----------------------------------------------------------------------
# /healthz readiness


class TestHealthz:
    def test_shape_with_no_tenants(self):
        app = ServeApp()
        status, payload = run(app.handle("GET", "/healthz"))
        assert status == 200
        assert payload["ok"] is True
        assert payload["ready"] is True
        assert payload["tenants"] == 0
        assert payload["degraded_tenants"] == []
        assert payload["recovery"] == {
            "worker_restarts": 0,
            "shards_redispatched": 0,
            "degradations": 0,
        }

    def test_degraded_tenant_is_named(self):
        async def scenario():
            app = ServeApp()
            await register(app, "alpha", ALPHA)
            tenant = app.registry.get("alpha")
            tenant.degraded = True
            tenant.worker_restarts = 2
            tenant.degradations = 1
            status, payload = await app.handle("GET", "/healthz")
            assert status == 200
            assert payload["ok"] is True  # degraded still serves
            assert payload["degraded_tenants"] == ["alpha"]
            assert payload["recovery"]["worker_restarts"] == 2
            assert payload["recovery"]["degradations"] == 1

        run(scenario())


# ----------------------------------------------------------------------
# Admission control: degraded tenants shed load with 429


class TestAdmissionControl:
    def test_degraded_tenant_sheds_with_429(self):
        async def scenario():
            app = ServeApp(degraded_inflight_limit=0)
            await register(app, "alpha", ALPHA)
            tenant = app.registry.get("alpha")
            tenant.degraded = True
            tenant.worker_restarts = 3
            tenant.shards_redispatched = 3
            tenant.degradations = 2
            status, payload = await app.handle(
                "POST", "/programs/alpha/query", {"goal": "p(1, Y)"}
            )
            assert status == 429
            assert payload["degraded"] is True
            assert payload["shed"] is True
            assert "degraded" in payload["error"]
            # Partial diagnostics ride along: the recovery counters and
            # the materialization's fallback chain.
            assert payload["recovery"]["worker_restarts"] == 3
            assert payload["recovery"]["degradations"] == 2
            assert "fallbacks" in payload
            assert "latest_round" in payload
            assert app.shed == 1
            assert tenant.shed == 1

        run(scenario())

    def test_healthy_tenant_is_admitted(self):
        async def scenario():
            app = ServeApp(degraded_inflight_limit=0)
            await register(app, "alpha", ALPHA)
            status, payload = await app.handle(
                "POST", "/programs/alpha/query", {"goal": "p(1, Y)"}
            )
            assert status == 200, payload
            assert payload["answers"]
            assert app.shed == 0

        run(scenario())

    def test_recovered_tenant_is_admitted_again(self):
        async def scenario():
            app = ServeApp(degraded_inflight_limit=0)
            await register(app, "alpha", ALPHA)
            tenant = app.registry.get("alpha")
            tenant.degraded = True
            status, _ = await app.handle(
                "POST", "/programs/alpha/query", {"goal": "p(1, Y)"}
            )
            assert status == 429
            # A clean ingest (no degradations) clears the flag.
            status, payload = await app.handle(
                "POST", "/programs/alpha/ingest", {"facts": "e(10, 11)."}
            )
            assert status == 200, payload
            assert tenant.degraded is False
            status, payload = await app.handle(
                "POST", "/programs/alpha/query", {"goal": "p(1, Y)"}
            )
            assert status == 200, payload

        run(scenario())

    def test_inflight_tracking_returns_to_zero(self):
        async def scenario():
            app = ServeApp()
            await register(app, "alpha", ALPHA)
            tenant = app.registry.get("alpha")
            await app.handle("POST", "/programs/alpha/query", {"goal": "p(1, Y)"})
            assert tenant.inflight == 0

        run(scenario())


# ----------------------------------------------------------------------
# /stats recovery counters


class TestStatsRecovery:
    def test_stats_totals_and_per_tenant_fields(self):
        async def scenario():
            app = ServeApp(degraded_inflight_limit=0)
            await register(app, "alpha", ALPHA)
            tenant = app.registry.get("alpha")
            tenant.degraded = True
            tenant.worker_restarts = 1
            tenant.shards_redispatched = 2
            tenant.degradations = 1
            await app.handle(
                "POST", "/programs/alpha/query", {"goal": "p(1, Y)"}
            )  # shed
            status, payload = await app.handle("GET", "/stats")
            assert status == 200
            assert payload["shed"] == 1
            assert payload["recovery"] == {
                "worker_restarts": 1,
                "shards_redispatched": 2,
                "degradations": 1,
            }
            info = payload["tenants"]["alpha"]
            assert info["degraded"] is True
            assert info["shed"] == 1
            assert info["recovery"]["shards_redispatched"] == 2

        run(scenario())


# ----------------------------------------------------------------------
# End-to-end: a register whose fleet is killed into the ladder


class TestDegradedRegistration:
    def test_chaos_killed_fleet_registers_degraded(self):
        async def scenario():
            app = ServeApp()
            injector = FaultInjector().arm("shard.dispatch", times=500)
            with chaos(injector):
                payload = await register(
                    app, "alpha", {**ALPHA, "workers": 2}
                )
            # The answer materialized anyway (degradation, not failure)
            # and the ladder rungs are visible in the register response.
            assert payload["idb_facts"] > 0
            assert any("sequential-columnar" in f for f in payload["fallbacks"])
            tenant = app.registry.get("alpha")
            assert tenant.degraded is True
            assert tenant.degradations >= 1
            status, health = await app.handle("GET", "/healthz")
            assert health["degraded_tenants"] == ["alpha"]
            assert health["recovery"]["degradations"] >= 1
            # Queries still answer correctly below the inflight limit.
            status, answer = await app.handle(
                "POST",
                "/programs/alpha/query",
                {"goal": "p(1, Y)", "mode": "materialized"},
            )
            assert status == 200, answer
            assert answer["answers"]

        run(scenario())


# ----------------------------------------------------------------------
# The client's shared RetryPolicy (satellite)


class TestClientRetry:
    def _flaky(self, failures, response_payload=b'{"ok": true}'):
        """A client whose transport fails ``failures`` times, then works."""
        client = ServeClient(retry=RetryPolicy(base_delay=0.0, jitter=0.0))
        state = {"left": failures}

        class _Response:
            status = 200

        def round_trip(method, path, body):
            if state["left"] > 0:
                state["left"] -= 1
                raise ConnectionResetError("keep-alive dropped")
            return _Response(), response_payload

        client._round_trip = round_trip
        client.close = lambda: None
        return client

    def test_retries_under_policy_and_surfaces_count(self):
        client = self._flaky(2)
        payload = client.request("GET", "/healthz")
        assert payload["ok"] is True
        assert payload["client_retries"] == 2
        assert client.last_retries == 2
        assert client.retries_total == 2

    def test_clean_request_has_no_retry_key(self):
        client = self._flaky(0)
        payload = client.request("GET", "/healthz")
        assert "client_retries" not in payload
        assert client.last_retries == 0

    def test_exhausted_policy_reraises(self):
        client = self._flaky(10)  # default policy allows 3 retries
        with pytest.raises(ConnectionResetError):
            client.request("GET", "/healthz")
        assert client.retries_total == 3

    def test_retry_counts_accumulate_across_requests(self):
        client = self._flaky(1)
        client.request("GET", "/healthz")
        assert client.retries_total == 1
        # Second request is clean; last_retries resets, total sticks.
        payload = client.request("GET", "/healthz")
        assert client.last_retries == 0
        assert client.retries_total == 1
        assert "client_retries" not in payload
