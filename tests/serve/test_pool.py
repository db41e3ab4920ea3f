"""The crash-containing worker pool."""

from repro.obs.metrics import CounterSink
from repro.serve.pool import WorkerPool
from repro.serve.protocol import parse_request, resolve_request


def _chaos(job_id, **chaos):
    return resolve_request(
        parse_request({"id": job_id, "kind": "chaos", "chaos": chaos})
    )


def _ok(job_id, value):
    return _chaos(job_id, mode="ok", value=value)


class TestWorkerPool:
    def test_outcomes_in_batch_order(self):
        pool = WorkerPool(workers=2)
        try:
            batches = [
                (_ok("a", 1), _ok("b", 2)),
                (_ok("c", 3),),
            ]
            outcomes = pool.run_batches(batches)
        finally:
            pool.shutdown()
        values = [
            [outcome["ok"]["value"] for outcome in batch]
            for batch in outcomes
        ]
        assert values == [[1, 2], [3]]

    def test_deterministic_exception_costs_one_job(self):
        pool = WorkerPool(workers=1)
        try:
            [outcomes] = pool.run_batches(
                [(_ok("a", 1), _chaos("boom", mode="raise"), _ok("c", 3))]
            )
        finally:
            pool.shutdown()
        assert outcomes[0]["ok"]["value"] == 1
        assert outcomes[1]["error"]["type"] == "RuntimeError"
        assert outcomes[2]["ok"]["value"] == 3

    def test_killed_worker_is_replaced_and_batchmates_recovered(self):
        sink = CounterSink()
        pool = WorkerPool(
            workers=1, max_retries=1, retry_backoff=0.01, sink=sink
        )
        try:
            outcomes = pool.run_batches(
                [
                    (_chaos("killer", mode="kill"),),
                    (_ok("survivor", 7),),
                ]
            )
            # The kill-9'd job fails for good; its batch-neighbour is
            # re-run in isolation and survives.
            assert outcomes[0][0]["error"]["type"] == "BrokenProcessPool"
            assert outcomes[1][0]["ok"]["value"] == 7
            assert pool.crashes >= 1
            # Dead-worker replacement: the next batch gets a fresh pool.
            [after] = pool.run_batches([(_ok("after", 9),)])
            assert after[0]["ok"]["value"] == 9
        finally:
            pool.shutdown()
        assert sink.counters["serve.pool.worker_crashes"] >= 1

    def test_hung_job_times_out_into_an_error(self):
        sink = CounterSink()
        pool = WorkerPool(
            workers=1,
            job_timeout=0.3,
            max_retries=0,
            retry_backoff=0.01,
            sink=sink,
        )
        try:
            [outcomes] = pool.run_batches(
                [(_chaos("sleeper", mode="hang", seconds=60.0),)]
            )
        finally:
            pool.shutdown()
        assert outcomes[0]["error"]["type"] == "TimeoutError"
        assert pool.timeouts >= 1
        assert sink.counters["serve.pool.timeouts"] >= 1

    def test_retries_are_counted(self):
        sink = CounterSink()
        pool = WorkerPool(
            workers=1, max_retries=2, retry_backoff=0.01, sink=sink
        )
        try:
            [outcomes] = pool.run_batches([(_chaos("k", mode="kill"),)])
        finally:
            pool.shutdown()
        assert outcomes[0]["error"]["attempts"] == 3
        assert pool.retries == 2
        assert sink.counters["serve.retried"] == 2

    def test_empty_input(self):
        pool = WorkerPool(workers=1)
        try:
            assert pool.run_batches([]) == []
        finally:
            pool.shutdown()


class TestCompileAmortization:
    def test_one_compile_per_group_batch(self):
        # In-worker check (the cache is per process): a batch of
        # same-group jobs compiles once; the result payload is identical
        # either way, so amortization is invisible to clients.
        import repro.serve.worker as worker

        jobs = tuple(
            resolve_request(
                parse_request(
                    {
                        "id": f"j{seed}",
                        "workload": "grep",
                        "model": "region_pred",
                        "seed": seed,
                    }
                )
            )
            for seed in (3, 4, 5)
        )
        assert len({job.group for job in jobs}) == 1
        worker.clear_caches()
        before = worker.compile_count
        outcomes = worker.execute_batch(jobs)
        assert worker.compile_count == before + 1
        assert all("ok" in outcome for outcome in outcomes)
        # Cache persistence across batches: a later batch of the same
        # group compiles zero times.
        worker.execute_batch(jobs[:1])
        assert worker.compile_count == before + 1
        # A second group on the same workload compiles once more but
        # reuses the program entry: no new training or evaluation run.
        runs = worker.scalar_run_count
        narrow = resolve_request(
            parse_request(
                {
                    "id": "narrow",
                    "workload": "grep",
                    "model": "region_pred",
                    "seed": 3,
                    "config": {"issue_width": 2},
                }
            )
        )
        assert narrow.group != jobs[0].group
        [outcome] = worker.execute_batch((narrow,))
        assert "ok" in outcome
        assert worker.compile_count == before + 2
        assert worker.scalar_run_count == runs
        worker.clear_caches()
