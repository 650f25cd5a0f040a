"""Lifecycle tests of the experiment service (``repro serve``).

Every test runs a real :class:`CampaignServer` on an ephemeral port and
talks to it through :class:`ServeClient` — the same HTTP surface and
client the CLI front ends use — so the contract under test is the wire
contract: golden results round-trip bit-identically, overlapping
campaigns share simulations, the backlog declines with 429 +
Retry-After, malformed specs answer 400 with their ConfigError text,
and a restarted server resumes interrupted campaigns from its durable
registry.

Admission-control tests build the :class:`Collector` by hand and never
start its worker thread, so the backlog is frozen at whatever was
admitted — no sleeps, no races.
"""

import pathlib
import sys
import threading

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent))
from test_golden import GOLDEN_SPEC, assert_matches_golden, \
    load_golden  # noqa: E402  (sibling golden helpers)

from repro.engine import ParallelRunner, ResultCache
from repro.errors import ConfigError
from repro.experiments import Experiment, ExperimentSpec
from repro.serve.client import ServeClient, ServeError, record_from_row
from repro.serve.collector import Collector
from repro.serve.registry import CampaignRegistry
from repro.serve.server import CampaignServer, create_server
from repro.workloads.profiles import KERNEL_LIKE

pytestmark = pytest.mark.engine


def small_spec(name: str, vcc=(500.0,), table1_vcc: float = 500.0,
               artifacts=("table1",)) -> ExperimentSpec:
    """A one-profile campaign small enough for every test to afford."""
    return ExperimentSpec(name=name, profiles=(KERNEL_LIKE.name,),
                          trace_length=200, vcc_mv=tuple(vcc),
                          table1_vcc_mv=table1_vcc, artifacts=artifacts)


class ServerHarness:
    """One in-process server + client on an ephemeral port."""

    def __init__(self, tmp_path, *, runner=None, state_dir=None,
                 resume=True):
        self.server = create_server(
            "127.0.0.1", 0, runner=runner or ParallelRunner(),
            state_dir=state_dir or tmp_path / "serve-state",
            resume=resume)
        # A short poll keeps shutdown() (every teardown) from waiting
        # out serve_forever's default 0.5 s poll.
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       kwargs={"poll_interval": 0.05},
                                       daemon=True)
        self.thread.start()
        host, port = self.server.server_address[:2]
        self.client = ServeClient(f"http://{host}:{port}")
        self.stopped = False

    def stop(self):
        if not self.stopped:
            self.stopped = True
            self.server.stop()
            self.thread.join(timeout=10.0)


@pytest.fixture
def harness(tmp_path):
    """Factory fixture: start servers, stop every survivor at teardown."""
    started = []

    def start(**kwargs) -> ServerHarness:
        instance = ServerHarness(tmp_path, **kwargs)
        started.append(instance)
        return instance

    yield start
    for instance in started:
        instance.stop()


class TestGoldenRoundTrip:
    """The acceptance path: the served campaign reproduces the golden
    Table 1 bit-identically through the HTTP API."""

    def test_served_campaign_reproduces_goldens(self, harness):
        service = harness()
        client = service.client
        submitted = client.submit(GOLDEN_SPEC)
        status = client.wait(submitted["id"], timeout_s=300.0)
        assert status["state"] == "done"
        assert status["done_jobs"] == status["total_jobs"] > 0
        assert status["stats"].get("simulated", 0) > 0

        assert_matches_golden(client.artifact(submitted["id"], "table1"),
                              load_golden("table1"), "table1")
        assert_matches_golden(
            client.artifact(submitted["id"], "fig11b")[0],
            load_golden("fig11b_500mv"), "fig11b_500mv")

    def test_served_resultset_is_bit_identical_to_local_run(self, harness):
        spec = small_spec("serve-bitident", vcc=(500.0, 480.0),
                          artifacts=("table1", "fig11b"))
        service = harness()
        submitted = service.client.submit(spec)
        served = service.client.result_set(submitted["id"],
                                           timeout_s=120.0)
        direct = Experiment(spec).run()
        assert served.to_csv() == direct.to_csv()
        assert served.to_json() == direct.to_json()

    def test_streamed_rows_are_the_result_set(self, harness):
        spec = small_spec("serve-stream", vcc=(500.0, 480.0))
        service = harness()
        campaign_id = service.client.submit(spec)["id"]
        streamed = [record_from_row(row) for row in service.client.iter_rows(
            campaign_id, poll_s=0.01, timeout_s=120.0)]
        served = service.client.result_set(campaign_id, timeout_s=120.0)
        assert streamed == list(served)
        assert len(streamed) > 0

    def test_row_stream_cursor_only_appends(self, harness):
        spec = small_spec("serve-cursor", vcc=(500.0, 480.0))
        service = harness()
        campaign_id = service.client.submit(spec)["id"]
        service.client.wait(campaign_id, timeout_s=120.0)
        rows, info = service.client.results(campaign_id, after=0)
        assert info["next_after"] == len(rows) > 0
        tail, tail_info = service.client.results(campaign_id, after=2)
        assert tail == rows[2:]
        assert tail_info["next_after"] == len(rows)
        beyond, _ = service.client.results(campaign_id,
                                           after=info["next_after"])
        assert beyond == []


class TestCrossCampaignDedup:
    """Concurrent campaigns sharing grid points simulate each shared
    job exactly once — the engine's identity rules are the scheduler."""

    def test_overlapping_campaigns_share_simulations(self, harness):
        spec_a = small_spec("dedup-a", vcc=(500.0, 480.0),
                            table1_vcc=480.0)
        spec_b = small_spec("dedup-b", vcc=(480.0, 460.0),
                            table1_vcc=480.0)

        # What the union costs when one engine resolves both plans.
        union = ParallelRunner()
        Experiment(spec_a, runner=union).run()
        Experiment(spec_b, runner=union).run()
        expected = union.stats.simulated

        # And what one campaign costs alone (to prove sharing happened).
        alone = ParallelRunner()
        Experiment(spec_a, runner=alone).run()
        assert expected < 2 * alone.stats.simulated

        runner = ParallelRunner()
        service = harness(runner=runner)
        id_a = service.client.submit(spec_a)["id"]
        id_b = service.client.submit(spec_b)["id"]
        assert service.client.wait(id_a, timeout_s=120.0)["state"] == "done"
        assert service.client.wait(id_b, timeout_s=120.0)["state"] == "done"
        assert runner.stats.simulated == expected

        metrics = service.client.metrics()
        assert metrics["engine"]["simulated"] == expected
        assert metrics["backlog_jobs"] == 0


class TestAdmissionControl:
    """Back-pressure and quota declines, tested against a frozen
    collector (worker thread never started)."""

    @pytest.fixture
    def frozen(self, tmp_path):
        servers = []

        def start(**collector_kwargs):
            registry = CampaignRegistry(tmp_path / "frozen-state")
            collector = Collector(ParallelRunner(), registry,
                                  **collector_kwargs)
            server = CampaignServer(("127.0.0.1", 0), collector)
            threading.Thread(target=server.serve_forever,
                             kwargs={"poll_interval": 0.05},
                             daemon=True).start()
            servers.append(server)
            host, port = server.server_address[:2]
            return server, ServeClient(f"http://{host}:{port}")

        yield start
        for server in servers:
            server.shutdown()
            server.server_close()

    def test_backlog_full_returns_429_with_retry_after(self, frozen):
        _, client = frozen(backlog_jobs=1, retry_after_s=7.0)
        first = client.submit(small_spec("bp-first"))
        assert first["state"] == "planned"
        with pytest.raises(ServeError) as declined:
            client.submit(small_spec("bp-second"))
        assert declined.value.status == 429
        assert declined.value.retry_after_s == 7.0
        assert "backlog is full" in str(declined.value)

    def test_tenant_quota_declines_only_that_tenant(self, frozen):
        _, client = frozen(tenant_jobs=4, backlog_jobs=10_000,
                           retry_after_s=3.0)
        client.submit(small_spec("quota-first"))
        with pytest.raises(ServeError) as declined:
            client.submit(small_spec("quota-second"))
        assert declined.value.status == 429
        assert declined.value.retry_after_s == 3.0
        other = ServeClient(client.url, tenant="other")
        admitted = other.submit(small_spec("quota-other"))
        assert admitted["tenant"] == "other"

    def test_oversized_spec_returns_413(self, frozen):
        _, client = frozen(max_spec_jobs=2)
        with pytest.raises(ServeError) as declined:
            client.submit(small_spec("too-big"))
        assert declined.value.status == 413
        assert "per-campaign cap" in str(declined.value)

    def test_artifact_before_done_returns_409(self, frozen):
        _, client = frozen()
        pending = client.submit(small_spec("pending"))
        with pytest.raises(ServeError) as refused:
            client.artifact(pending["id"], "table1")
        assert refused.value.status == 409
        assert "artifacts render once it is done" in str(refused.value)

    def test_submit_watch_times_out_on_a_wedged_service(self, frozen,
                                                         tmp_path, capsys):
        from repro.cli import main

        _, client = frozen()
        spec = tmp_path / "wedged.toml"
        small_spec("wedged").save(spec)
        assert main(["submit", str(spec), "--url", client.url, "--watch",
                     "--timeout", "0.3"]) == 2
        captured = capsys.readouterr()
        campaign = captured.out.split("campaign:")[1].split()[0]
        (error,) = captured.err.splitlines()
        assert error.startswith("error: timed out after 0.3s")
        assert campaign in error
        assert "last state planned" in error

    def test_cancel_removes_campaign_from_backlog(self, frozen):
        server, client = frozen(backlog_jobs=1)
        doomed = client.submit(small_spec("doomed"))
        with pytest.raises(ServeError):
            client.submit(small_spec("blocked"))
        cancelled = client.cancel(doomed["id"])
        assert cancelled["state"] == "cancelled"
        assert server.collector.backlog() == 0
        admitted = client.submit(small_spec("now-admitted"))
        assert admitted["state"] == "planned"


class TestErrorContract:
    def test_malformed_toml_returns_400_with_config_error(self, harness):
        service = harness()
        with pytest.raises(ServeError) as rejected:
            service.client.submit(b"this is ] not toml at all")
        assert rejected.value.status == 400
        assert str(rejected.value)  # carries the ConfigError text

    def test_unknown_artifact_name_in_spec_returns_400(self, harness):
        service = harness()
        with pytest.raises(ServeError) as rejected:
            service.client.submit(b'{"artifacts": ["table9000"]}')
        assert rejected.value.status == 400
        assert "table9000" in str(rejected.value)

    @pytest.mark.parametrize("grid, message", [
        (b'"step_mv": 0.0', "step_mv must be positive"),
        (b'"vcc_mv": [900.0]', "outside modeled range"),
    ])
    def test_out_of_range_grid_returns_400(self, harness, grid, message):
        service = harness()
        with pytest.raises(ServeError) as rejected:
            service.client.submit(b'{"grid": {' + grid + b'}}')
        assert rejected.value.status == 400
        assert message in str(rejected.value)

    @pytest.mark.parametrize("body, location", [
        (b'{"params": {"fetch_width": "3"}}', "params.fetch_width"),
        (b'{"sweep": {"warm": "false"}}', "sweep.warm"),
        (b'{"memory": {"dl0_size": 1000}}', "memory.dl0_size"),
        (b'{"ablations": [{"name": "a", "overrides": '
         b'{"stabilization_cycles": 3}}]}',
         "ablations[0].overrides.stabilization_cycles"),
        (b'{"params": {"iq_size": 2}}', "params.iq_size = 2 at"),
        (b'{"memory": {"dram_latency_cycles": 5000}}',
         "[sweep] dram_latency_ns"),
        (b'{"sweep": {"dram_latency_ns": -80.0}}', "sweep.dram_latency_ns"),
        (b'{"memory": {"tlb_entries": 0}}', "memory.tlb_entries"),
        (b'{"memory": {"wcb_entries": 0}}', "memory.wcb_entries"),
    ])
    def test_malformed_value_returns_400(self, harness, body, location):
        service = harness()
        for dry_run in (True, False):
            with pytest.raises(ServeError) as rejected:
                service.client.submit(body, dry_run=dry_run)
            assert rejected.value.status == 400
            assert location in str(rejected.value)
        assert service.client.campaigns() == []

    def test_unknown_campaign_returns_404(self, harness):
        service = harness()
        with pytest.raises(ServeError) as missing:
            service.client.status("no-such-campaign")
        assert missing.value.status == 404
        assert "no-such-campaign" in str(missing.value)

    def test_unknown_endpoint_returns_404(self, harness):
        service = harness()
        with pytest.raises(ServeError) as missing:
            service.client._json("GET", "/v2/nope")
        assert missing.value.status == 404

    def test_bad_cursor_returns_400(self, harness):
        service = harness()
        campaign_id = service.client.submit(small_spec("cursor"))["id"]
        service.client.wait(campaign_id, timeout_s=120.0)
        with pytest.raises(ServeError) as rejected:
            service.client._request(
                "GET", f"/v1/campaigns/{campaign_id}/results?after=soon")
        assert rejected.value.status == 400


class TestDryRun:
    def test_dry_run_previews_without_admitting(self, harness):
        service = harness()
        preview = service.client.submit(small_spec("preview"),
                                        dry_run=True)
        assert preview["dry_run"] is True
        assert preview["planned_jobs"] > 0
        assert preview["unique_jobs"] <= preview["planned_jobs"]
        assert {"kind", "key", "label", "origin"} <= \
            set(preview["jobs"][0])
        assert service.client.campaigns() == []
        assert service.client.metrics()["engine"]["simulated"] == 0


class TestRestartResume:
    def test_interrupted_campaign_resumes_after_restart(self, harness,
                                                        tmp_path):
        state_dir = tmp_path / "resume-state"
        cache = ResultCache(root=tmp_path / "resume-cache")
        spec = small_spec("resumed")

        # A campaign the dying server never got to finish: persisted as
        # ``running``, with a warm result cache standing in for the
        # work it had already done.
        Experiment(spec, runner=ParallelRunner(cache=cache)).run()
        registry = CampaignRegistry(state_dir)
        interrupted = registry.new_record(
            name=spec.name, tenant="default", spec=spec.to_dict(),
            total_jobs=0)
        interrupted.state = "running"
        registry.save(interrupted)

        runner = ParallelRunner(cache=ResultCache(
            root=tmp_path / "resume-cache"))
        service = harness(runner=runner, state_dir=state_dir)
        status = service.client.wait(interrupted.id, timeout_s=120.0)
        assert status["state"] == "done"
        assert status["total_jobs"] > 0
        # The replay was answered by the shared result cache.
        assert runner.stats.simulated == 0
        assert_matches_golden(
            service.client.artifact(interrupted.id, "table1"),
            Experiment(spec).artifact("table1"), "table1")

    def test_finished_campaigns_survive_restart(self, harness, tmp_path):
        state_dir = tmp_path / "durable-state"
        first = harness(state_dir=state_dir)
        campaign_id = first.client.submit(small_spec("durable"))["id"]
        rows_before = first.client.result_set(
            campaign_id, timeout_s=120.0)
        first.stop()

        second = harness(state_dir=state_dir)
        status = second.client.status(campaign_id)
        assert status["state"] == "done"
        served = second.client.result_set(campaign_id, wait=False)
        assert served.to_csv() == rows_before.to_csv()
        assert "table1" in status["artifacts"]


class TestRegistryFiles:
    def test_a_saved_spec_keeps_its_table_order(self, tmp_path):
        """A spec's RV32I programs are its population order."""
        spec = ExperimentSpec.load(
            pathlib.Path(__file__).resolve().parents[1]
            / "examples" / "rv32i_campaign.toml")
        registry = CampaignRegistry(tmp_path / "order-state")
        record = registry.new_record(name=spec.name, tenant="default",
                                     spec=spec.to_dict(), total_jobs=0)
        registry.save(record)
        loaded = ExperimentSpec.from_dict(registry.load(record.id).spec)
        assert [ref.name for ref in loaded.riscv] \
            == ["loop", "memcpy", "sort", "mix"]
        assert Experiment(loaded).plan_keys() \
            == Experiment(spec).plan_keys()


class TestCollectorValidation:
    def test_bad_bounds_are_config_errors(self, tmp_path):
        registry = CampaignRegistry(tmp_path / "cfg")
        with pytest.raises(ConfigError):
            Collector(ParallelRunner(), registry, chunk_jobs=0)
        with pytest.raises(ConfigError):
            Collector(ParallelRunner(), registry, backlog_jobs=0)


class TestStateDirResolution:
    """``repro serve``'s registry root: ``--state-dir``, then
    ``$REPRO_SERVE_STATE``, then ``<queue root>/serve``, then the user
    cache base the result cache uses."""

    @staticmethod
    def resolve(monkeypatch, tmp_path, state_dir=None, queue=None,
                env=None):
        from types import SimpleNamespace

        from repro.engine.broker import QUEUE_DIR_ENV
        from repro.serve.cli import STATE_DIR_ENV, resolve_state_dir

        monkeypatch.delenv(QUEUE_DIR_ENV, raising=False)
        monkeypatch.delenv(STATE_DIR_ENV, raising=False)
        if env is not None:
            monkeypatch.setenv(STATE_DIR_ENV, env)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        return resolve_state_dir(
            SimpleNamespace(state_dir=state_dir, queue=queue))

    def test_fallback_honours_xdg_cache_home(self, monkeypatch, tmp_path):
        assert self.resolve(monkeypatch, tmp_path) \
            == tmp_path / "repro" / "serve"

    def test_explicit_roots_keep_precedence(self, monkeypatch, tmp_path):
        assert self.resolve(monkeypatch, tmp_path, queue="/q") \
            == pathlib.Path("/q/serve")
        assert self.resolve(monkeypatch, tmp_path, queue="/q",
                            env="/e") == pathlib.Path("/e")
        assert self.resolve(monkeypatch, tmp_path, state_dir="/s",
                            queue="/q", env="/e") == pathlib.Path("/s")


class TestPrometheusExposition:
    """``GET /v1/metrics`` content negotiation: JSON stays the default,
    an explicit ``Accept: text/plain`` gets the Prometheus text format."""

    def _scrape(self, client, accept):
        import urllib.request
        request = urllib.request.Request(f"{client.url}/v1/metrics",
                                         headers={"Accept": accept})
        with urllib.request.urlopen(request, timeout=30.0) as response:
            return (response.headers.get("Content-Type"),
                    response.read().decode("utf-8"))

    def test_text_plain_negotiates_prometheus(self, harness):
        service = harness()
        content_type, body = self._scrape(service.client, "text/plain")
        assert content_type.startswith("text/plain")
        assert "# TYPE repro_engine_simulated_total counter" in body
        assert "repro_serve_backlog_jobs 0" in body
        # Well-formedness: every non-comment line is NAME[{LABELS}] VALUE.
        import re
        sample = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
                            r"(\{[^}]*\})? -?[0-9.e+E-]+$")
        lines = body.strip().splitlines()
        assert lines, "empty exposition"
        for line in lines:
            if not line.startswith("#"):
                assert sample.match(line), f"malformed sample: {line!r}"

    def test_json_remains_the_default(self, harness):
        service = harness()
        content_type, body = self._scrape(service.client, "*/*")
        assert "json" in content_type
        import json as json_module
        payload = json_module.loads(body)
        assert payload["engine"]["simulated"] == 0
        assert payload["backlog_jobs"] == 0

    def test_scrape_reflects_engine_counters(self, harness):
        service = harness()
        campaign_id = service.client.submit(
            small_spec("prom-counters"))["id"]
        service.client.wait(campaign_id, timeout_s=120.0)
        _, body = self._scrape(service.client, "text/plain")
        for line in body.splitlines():
            if line.startswith("repro_engine_simulated_total "):
                assert int(line.rsplit(" ", 1)[1]) > 0
                break
        else:  # pragma: no cover - assertion carrier
            raise AssertionError("repro_engine_simulated_total not exposed")
        assert 'repro_serve_campaigns{state="done"} 1' in body
