"""The simulation service: admission, dedup, durability, frontends."""

import json
import threading
import time
import urllib.request

import pytest

from repro.ckpt.journal import LEDGER_NAME
from repro.obs.metrics import CounterSink
from repro.serve import (
    JobJournal,
    ServeSettings,
    SimulationService,
    make_http_server,
    serve_stdio,
)

TINY = "li r1, 41\naddi r1, r1, 1\nout r1\nhalt\n"


def _request(job_id, **fields):
    return json.dumps({"id": job_id, "client": "t", **fields})


def _chaos_ok(job_id, value, client="t"):
    return json.dumps(
        {
            "id": job_id,
            "client": client,
            "kind": "chaos",
            "chaos": {"mode": "ok", "value": value},
        }
    )


def _service(tmp_path=None, **settings):
    settings.setdefault("workers", 1)
    settings.setdefault("retry_backoff", 0.01)
    journal = JobJournal(tmp_path) if tmp_path is not None else None
    return SimulationService(
        ServeSettings(**settings), journal=journal, sink=CounterSink()
    )


class TestRequestPath:
    def test_identical_keys_execute_once_and_fan_out(self):
        service = _service()
        try:
            responses = service.handle_requests(
                [
                    _request("a", workload="grep", model="scalar"),
                    _request("b", workload="grep", model="scalar"),
                ]
            )
        finally:
            service.close()
        assert [r["status"] for r in responses] == ["ok", "ok"]
        assert responses[0]["key"] == responses[1]["key"]
        assert responses[0]["result"] == responses[1]["result"]
        assert service.stats["serve.completed"] == 1
        assert service.stats["serve.accepted"] == 2

    def test_malformed_line_costs_one_rejection(self):
        service = _service()
        try:
            responses = service.handle_requests(
                ["not json", _chaos_ok("fine", 5)]
            )
        finally:
            service.close()
        assert responses[0]["status"] == "rejected"
        assert responses[1]["status"] == "ok"
        assert service.stats["serve.rejected"] == 1

    def test_rejected_response_echoes_the_id(self):
        service = _service()
        try:
            [response] = service.handle_requests(
                [_request("wanted", workload="no-such-kernel")]
            )
        finally:
            service.close()
        assert response["status"] == "rejected"
        assert response["id"] == "wanted"

    def test_inline_program_round_trip(self):
        service = _service()
        try:
            [response] = service.handle_requests(
                [_request("i1", program=TINY, model="scalar")]
            )
        finally:
            service.close()
        assert response["status"] == "ok"
        assert response["result"]["output"] == [42]

    def test_error_jobs_report_structured_outcomes(self):
        service = _service(max_retries=0)
        try:
            [response] = service.handle_requests(
                [
                    json.dumps(
                        {
                            "id": "boom",
                            "kind": "chaos",
                            "chaos": {"mode": "raise"},
                        }
                    )
                ]
            )
        finally:
            service.close()
        assert response["status"] == "error"
        assert response["error"]["type"] == "RuntimeError"
        assert service.stats["serve.errors"] == 1


class TestAdmission:
    def test_queue_limit_sheds_deterministically(self):
        service = _service(queue_limit=2)
        try:
            responses = service.handle_requests(
                [_chaos_ok(f"j{i}", i) for i in range(4)]
            )
        finally:
            service.close()
        assert [r["status"] for r in responses] == [
            "ok",
            "ok",
            "overloaded",
            "overloaded",
        ]
        assert all(r["retry"] for r in responses[2:])
        assert service.stats["serve.rejected"] == 2

    def test_client_quota_spares_other_clients(self):
        service = _service(queue_limit=16, client_quota=2)
        try:
            responses = service.handle_requests(
                [
                    _chaos_ok("g1", 1, client="greedy"),
                    _chaos_ok("g2", 2, client="greedy"),
                    _chaos_ok("g3", 3, client="greedy"),
                    _chaos_ok("p1", 4, client="polite"),
                ]
            )
        finally:
            service.close()
        assert [r["status"] for r in responses] == [
            "ok",
            "ok",
            "rejected",
            "ok",
        ]
        assert "quota" in responses[2]["reason"]

    def test_overloaded_within_admission_deadline_while_saturated(
        self, tmp_path
    ):
        # Saturate the single worker with a job that blocks on a
        # sentinel file; a concurrent submission must get its
        # overloaded response from admission immediately, not after the
        # pool drains.
        sentinel = tmp_path / "go"
        service = _service(queue_limit=1, job_timeout=30.0)
        blocked = {}

        def submit_blocking():
            blocked["responses"] = service.handle_requests(
                [
                    json.dumps(
                        {
                            "id": "slow",
                            "kind": "chaos",
                            "chaos": {
                                "mode": "wait_for",
                                "path": str(sentinel),
                                "timeout": 30.0,
                            },
                        }
                    )
                ]
            )

        thread = threading.Thread(target=submit_blocking)
        thread.start()
        try:
            deadline = time.perf_counter() + 10.0
            while service.pending < 1:
                assert time.perf_counter() < deadline, "job never admitted"
                time.sleep(0.01)
            started = time.perf_counter()
            [response] = service.handle_requests([_chaos_ok("late", 1)])
            elapsed = time.perf_counter() - started
            assert response["status"] == "overloaded"
            assert "queue full" in response["reason"]
            assert elapsed < 2.0, f"admission took {elapsed:.2f}s"
        finally:
            sentinel.write_text("")
            thread.join(timeout=30.0)
            service.close()
        assert not thread.is_alive()
        assert blocked["responses"][0]["status"] == "ok"


class TestDurability:
    def test_wal_before_execution_then_done(self, tmp_path):
        service = _service(tmp_path)
        try:
            [response] = service.handle_requests(
                [_request("a", workload="grep", model="scalar")]
            )
        finally:
            service.close()
        lines = (tmp_path / LEDGER_NAME).read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert [r["payload"]["phase"] for r in records] == [
            "accepted",
            "done",
        ]
        assert records[0]["key"] == response["key"]

    def test_failed_jobs_are_never_marked_done(self, tmp_path):
        service = _service(tmp_path, max_retries=0)
        try:
            service.handle_requests(
                [
                    json.dumps(
                        {
                            "id": "boom",
                            "kind": "chaos",
                            "chaos": {"mode": "raise"},
                        }
                    )
                ]
            )
        finally:
            service.close()
        completed, incomplete = JobJournal(tmp_path).load()
        assert completed == {}
        assert len(incomplete) == 1

    def test_durable_replay_skips_execution_and_journal(self, tmp_path):
        service = _service(tmp_path)
        try:
            [first] = service.handle_requests(
                [_request("a", workload="grep", model="scalar")]
            )
            lines_before = len(
                (tmp_path / LEDGER_NAME).read_text().splitlines()
            )
            [again] = service.handle_requests(
                [_request("b", workload="grep", model="scalar")]
            )
            lines_after = len(
                (tmp_path / LEDGER_NAME).read_text().splitlines()
            )
        finally:
            service.close()
        assert again["result"] == first["result"]
        assert lines_after == lines_before  # no re-accept, no re-done
        assert service.stats["serve.replayed"] == 1
        assert service.stats["serve.completed"] == 1

    def test_restart_replays_results_byte_identically(self, tmp_path):
        request = _request("a", workload="grep", model="scalar")
        first = _service(tmp_path / "journal")
        try:
            [original] = first.handle_requests([request])
        finally:
            first.close()

        second = _service(tmp_path / "journal")
        try:
            assert second.recover() == 0  # nothing incomplete
            [replayed] = second.handle_requests([request])
        finally:
            second.close()
        assert json.dumps(replayed["result"], sort_keys=True) == json.dumps(
            original["result"], sort_keys=True
        )
        assert second.stats["serve.replayed"] == 1

    def test_recover_reexecutes_only_incomplete_jobs(self, tmp_path):
        done_job = _request("a", workload="grep", model="scalar")
        first = _service(tmp_path)
        try:
            first.handle_requests([done_job])
            # Simulate a crash mid-job: accepted, never completed.
            from repro.serve.protocol import parse_request, resolve_request

            pending = resolve_request(
                parse_request(
                    {
                        "id": "pending",
                        "kind": "chaos",
                        "chaos": {"mode": "ok", "value": 11},
                    }
                )
            )
            first.journal.accept(pending)
        finally:
            first.close()

        second = _service(tmp_path)
        try:
            assert second.recover() == 1  # exactly the incomplete job
            completed, incomplete = JobJournal(tmp_path).load()
        finally:
            second.close()
        assert incomplete == {}
        assert len(completed) == 2
        assert completed[pending.key]["value"] == 11


class TestWorkerKillMidBatch:
    def test_responses_match_an_uninterrupted_run(self):
        requests = [
            _request("s1", workload="grep", model="scalar"),
            json.dumps(
                {"id": "k1", "kind": "chaos", "chaos": {"mode": "kill"}}
            ),
            _request("s2", program=TINY, model="scalar"),
        ]
        chaotic = _service(max_retries=1)
        try:
            with_kill = chaotic.handle_requests(requests)
        finally:
            chaotic.close()
        clean = _service()
        try:
            without_kill = clean.handle_requests(
                [requests[0], requests[2]]
            )
        finally:
            clean.close()
        assert with_kill[1]["status"] == "error"
        # The surviving jobs' responses are byte-identical to a run
        # that never saw the kill.
        assert json.dumps(with_kill[0], sort_keys=True) == json.dumps(
            without_kill[0], sort_keys=True
        )
        assert json.dumps(with_kill[2], sort_keys=True) == json.dumps(
            without_kill[1], sort_keys=True
        )


class TestStdioFrontend:
    def test_json_lines_in_json_lines_out(self):
        import io

        service = _service()
        out = io.StringIO()
        lines = (
            _chaos_ok("a", 1)
            + "\n"
            + "garbage\n"
            + _chaos_ok("b", 2)
            + "\n"
        )
        try:
            serve_stdio(
                service, in_stream=io.StringIO(lines), out_stream=out
            )
        finally:
            service.close()
        responses = [
            json.loads(line) for line in out.getvalue().splitlines()
        ]
        assert [r["status"] for r in responses] == ["ok", "rejected", "ok"]
        assert responses[0]["result"]["value"] == 1
        assert responses[2]["result"]["value"] == 2

    def test_piped_burst_over_the_client_quota_is_all_served(self):
        # stdin cannot retry: one client's 60 piped lines against the
        # default quota of 16 must come back ok and in order, not shed.
        import io
        import os

        lines = "".join(
            _chaos_ok(f"s{index}", index) + "\n" for index in range(60)
        )
        read_fd, write_fd = os.pipe()
        with os.fdopen(write_fd, "w") as writer:
            writer.write(lines)
        service = _service()
        assert service.settings.client_quota < 60
        out = io.StringIO()
        try:
            with os.fdopen(read_fd) as reader:
                serve_stdio(service, in_stream=reader, out_stream=out)
        finally:
            service.close()
        responses = [
            json.loads(line) for line in out.getvalue().splitlines()
        ]
        assert [r["status"] for r in responses] == ["ok"] * 60
        assert [r["id"] for r in responses] == [f"s{i}" for i in range(60)]
        assert [r["result"]["value"] for r in responses] == list(range(60))


class TestHttpFrontend:
    @pytest.fixture()
    def server(self):
        service = _service()
        server = make_http_server(service, port=0)
        thread = threading.Thread(
            target=server.serve_forever,
            kwargs={"poll_interval": 0.1},
            daemon=True,
        )
        thread.start()
        host, port = server.server_address[:2]
        yield f"http://{host}:{port}", service
        server.shutdown()
        thread.join(timeout=10.0)
        server.server_close()
        service.close()

    def _post(self, base, body, headers=None):
        request = urllib.request.Request(
            f"{base}/v1/jobs",
            data=body.encode("utf-8"),
            headers=headers or {},
            method="POST",
        )
        try:
            with urllib.request.urlopen(request) as response:
                return response.status, response.read().decode("utf-8")
        except urllib.error.HTTPError as error:
            return error.code, error.read().decode("utf-8")

    def test_post_jobs_and_stats(self, server):
        base, service = server
        body = _chaos_ok("h1", 1) + "\n" + _chaos_ok("h2", 2) + "\n"
        status, payload = self._post(base, body)
        assert status == 200
        responses = [json.loads(line) for line in payload.splitlines()]
        assert [r["status"] for r in responses] == ["ok", "ok"]
        with urllib.request.urlopen(f"{base}/v1/stats") as stats:
            counters = json.loads(stats.read())
        assert counters["serve.completed"] == 2

    def test_client_header_overrides_the_request(self, server):
        base, service = server
        self._post(
            base, _chaos_ok("q1", 1), headers={"X-Client": "headered"}
        )
        assert service._per_client.get("headered", 0) == 0  # released
        assert service.stats["serve.accepted"] == 1

    def test_all_shed_is_429(self, server):
        base, _ = server
        status, payload = self._post(base, "garbage\nmore garbage\n")
        assert status == 429
        responses = [json.loads(line) for line in payload.splitlines()]
        assert all(r["status"] == "rejected" for r in responses)

    def test_empty_submission_is_400(self, server):
        base, _ = server
        status, _ = self._post(base, "\n\n")
        assert status == 400

    def test_unknown_path_is_404(self, server):
        base, _ = server
        status, _ = self._post(base, _chaos_ok("x", 1) + "\n")
        assert status == 200
        request = urllib.request.Request(f"{base}/v1/nope")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 404
