"""Executor tests: parallelism, determinism, caching, fault tolerance.

The acceptance bar for the engine: parallel execution must store
byte-identical reports to serial execution, a warm cache must serve
every job, and an injected worker failure must be retried per
``retries`` and, on exhaustion, recorded as ``failed`` without
aborting the remaining jobs.
"""

import pytest

from repro import Session, cm5
from repro.engine import (
    Engine,
    EngineConfig,
    InjectedFailure,
    RunStore,
    plan_suite,
)
from repro.engine.pool import (
    ENV_FORCE_SERIAL,
    ENV_INJECT_FAIL,
    ENV_INJECT_SLEEP,
    WorkerPool,
    _parse_injection,
)
from repro.engine.trace import Tracer
from repro.metrics.serialize import canonical_report_json
from repro.suite import run_suite

# A small, fast, structurally diverse slice of the suite.
SUBSET = ["fft", "lu", "ellip-2d", "gmo", "md"]
SUBSET_PARAMS = {
    "fft": {"n": 64},
    "lu": {"n": 16},
    "ellip-2d": {"nx": 8},
    "gmo": {"ns": 128, "ntr": 16},
    "md": {"n_p": 8, "steps": 2},
}


def subset_requests():
    return plan_suite(SUBSET, params=SUBSET_PARAMS)


def canonical_reports(results):
    return {
        r.request.benchmark: canonical_report_json(r.report_record)
        for r in results
    }


class TestDeterminism:
    def test_parallel_matches_serial_byte_for_byte(self, tmp_path):
        """Satellite: serial and --jobs 4 store byte-identical reports."""
        serial = Engine(EngineConfig(jobs=1)).run(subset_requests())
        parallel = Engine(EngineConfig(jobs=4)).run(subset_requests())
        assert all(r.status == "ok" for r in serial)
        assert all(r.status == "ok" for r in parallel)
        assert canonical_reports(serial) == canonical_reports(parallel)

    def test_second_run_served_entirely_from_cache(self, tmp_path):
        cache = tmp_path / "cache"
        first = Engine(EngineConfig(jobs=4, cache_dir=cache)).run(
            subset_requests()
        )
        second = Engine(EngineConfig(jobs=4, cache_dir=cache)).run(
            subset_requests()
        )
        assert all(r.status == "ok" for r in first)
        assert all(r.status == "cached" for r in second)
        assert canonical_reports(first) == canonical_reports(second)

    def test_results_in_request_order(self):
        results = Engine(EngineConfig(jobs=4)).run(subset_requests())
        assert [r.request.benchmark for r in results] == SUBSET


class TestFaultTolerance:
    def test_retry_then_succeed(self, monkeypatch):
        monkeypatch.setenv(ENV_INJECT_FAIL, "fft:2")
        results = Engine(EngineConfig(retries=3, backoff=0.0)).run(
            plan_suite(["fft"], params=SUBSET_PARAMS)
        )
        assert results[0].status == "ok"
        assert results[0].attempts == 3  # two injected failures, then ok

    def test_exhaustion_fails_without_aborting_siblings(self, monkeypatch):
        """Acceptance: a failing job never takes down the rest."""
        monkeypatch.setenv(ENV_INJECT_FAIL, "fft")  # every attempt fails
        results = Engine(EngineConfig(retries=2, backoff=0.0)).run(
            plan_suite(["fft", "gmo"], params=SUBSET_PARAMS)
        )
        by_name = {r.request.benchmark: r for r in results}
        assert by_name["fft"].status == "failed"
        assert by_name["fft"].attempts == 3  # initial + 2 retries
        assert "InjectedFailure" in by_name["fft"].error
        assert by_name["gmo"].status == "ok"

    def test_pool_failure_isolation(self, monkeypatch):
        monkeypatch.setenv(ENV_INJECT_FAIL, "fft")
        results = Engine(EngineConfig(jobs=2, retries=1, backoff=0.0)).run(
            plan_suite(["fft", "gmo", "lu"], params=SUBSET_PARAMS)
        )
        statuses = {r.request.benchmark: r.status for r in results}
        assert statuses == {"fft": "failed", "gmo": "ok", "lu": "ok"}

    def test_pool_timeout(self, monkeypatch):
        monkeypatch.setenv(ENV_INJECT_SLEEP, "fft:10")
        results = Engine(EngineConfig(jobs=2, timeout=0.5)).run(
            plan_suite(["fft", "gmo"], params=SUBSET_PARAMS)
        )
        by_name = {r.request.benchmark: r for r in results}
        assert by_name["fft"].status == "timeout"
        assert "timed out after 0.5s" in by_name["fft"].error
        assert by_name["gmo"].status == "ok"

    def test_force_serial_degradation(self, monkeypatch):
        monkeypatch.setenv(ENV_FORCE_SERIAL, "1")
        results = Engine(EngineConfig(jobs=4)).run(
            plan_suite(["fft", "lu"], params=SUBSET_PARAMS)
        )
        assert all(r.status == "ok" for r in results)

    def test_failed_result_not_cached(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_INJECT_FAIL, "fft")
        cache = tmp_path / "cache"
        Engine(EngineConfig(cache_dir=cache)).run(
            plan_suite(["fft"], params=SUBSET_PARAMS)
        )
        monkeypatch.delenv(ENV_INJECT_FAIL)
        results = Engine(EngineConfig(cache_dir=cache)).run(
            plan_suite(["fft"], params=SUBSET_PARAMS)
        )
        assert results[0].status == "ok"  # a failure must not poison the cache

    def test_parse_injection(self):
        assert _parse_injection("fft:2", "fft") == 2.0
        assert _parse_injection("fft:2", "lu") is None
        assert _parse_injection("fft", "fft") == -1.0
        assert _parse_injection("*:1", "anything") == 1.0
        assert _parse_injection("lu:1,fft:3", "fft") == 3.0

    def test_parse_injection_exact_beats_wildcard(self):
        """Satellite: an exact entry wins regardless of spec order."""
        assert _parse_injection("*:1,fft:3", "fft") == 3.0
        assert _parse_injection("fft:3,*:1", "fft") == 3.0
        assert _parse_injection("*:1,fft:3", "lu") == 1.0
        assert _parse_injection("*,fft:3", "fft") == 3.0

    def test_injected_failure_raises_in_raise_mode(self, monkeypatch):
        monkeypatch.setenv(ENV_INJECT_FAIL, "fft")
        with pytest.raises(InjectedFailure):
            run_suite(
                lambda: Session(cm5(32)), ["fft"], params=SUBSET_PARAMS
            )


class TestBackoffScheduling:
    def test_sibling_timeout_fires_during_backoff(self, monkeypatch):
        """Acceptance: retry backoff must not stall the scheduler loop.

        ``fft`` fails fast and enters a long (4 s) retry backoff while
        ``gmo`` sleeps past its 1 s timeout.  The backoff used to be a
        blocking ``time.sleep`` inside the pool loop, so gmo's timeout
        was only enforced after the backoff drained; with per-job
        not-before deadlines the timeout fires on schedule.
        """
        import time

        from repro.engine import Tracer

        monkeypatch.setenv(ENV_INJECT_FAIL, "fft")
        monkeypatch.setenv(ENV_INJECT_SLEEP, "gmo:30")
        events = []
        tracer = Tracer(
            callback=lambda e: events.append(
                (e.kind, e.benchmark, time.perf_counter())
            )
        )
        start = time.perf_counter()
        results = Engine(
            EngineConfig(jobs=2, retries=1, backoff=4.0, timeout=1.0),
            tracer=tracer,
        ).run(plan_suite(["fft", "gmo"], params=SUBSET_PARAMS))

        by_name = {r.request.benchmark: r for r in results}
        assert by_name["fft"].status == "failed"
        assert by_name["fft"].attempts == 2
        assert by_name["gmo"].status == "timeout"
        # gmo's first timeout (a job_retried event, since retries=1)
        # must be recorded well before fft's 4 s backoff expires.
        gmo_timeout_at = next(
            t
            for kind, bench, t in events
            if bench == "gmo" and kind in ("job_retried", "job_finished")
        )
        assert gmo_timeout_at - start < 3.5

    def test_jobs_in_backoff_still_complete(self, monkeypatch):
        """Backoff-queued retries run after their release time."""
        monkeypatch.setenv(ENV_INJECT_FAIL, "fft:1")
        results = Engine(
            EngineConfig(jobs=2, retries=2, backoff=0.05)
        ).run(plan_suite(["fft", "lu"], params=SUBSET_PARAMS))
        by_name = {r.request.benchmark: r for r in results}
        assert by_name["fft"].status == "ok"
        assert by_name["fft"].attempts == 2
        assert by_name["lu"].status == "ok"


class TestIncrementalPersistence:
    def test_killed_run_keeps_finished_jobs(self, tmp_path, monkeypatch):
        """Acceptance: a run that dies mid-way loses no finished work.

        ``raise_on_error`` propagates the second job's failure out of
        ``run()`` — the in-process equivalent of a kill — and the
        first job's record must already be durable in the store.
        """
        monkeypatch.setenv(ENV_INJECT_FAIL, "lu")
        store_path = tmp_path / "runs.jsonl"
        engine = Engine(EngineConfig(store=store_path, raise_on_error=True))
        with pytest.raises(InjectedFailure):
            engine.run(plan_suite(["fft", "lu"], params=SUBSET_PARAMS))
        records = RunStore(store_path).records()
        assert [r["benchmark"] for r in records] == ["fft"]
        assert records[0]["status"] == "ok"
        assert records[0]["report"]["flop_count"] > 0

    def test_records_appended_as_jobs_finish(self, tmp_path):
        """Each record lands when its job finishes, not at run end."""
        store_path = tmp_path / "runs.jsonl"
        store = RunStore(store_path)
        seen = []

        def progress(result):
            seen.append((result.request.benchmark, len(store.records())))

        Engine(EngineConfig(store=store_path), progress=progress).run(
            plan_suite(["fft", "lu"], params=SUBSET_PARAMS)
        )
        # At the first job's completion exactly one record existed.
        assert seen[0] == ("fft", 1)
        assert seen[1] == ("lu", 2)

    def test_pool_records_carry_plan_order_index(self, tmp_path):
        store_path = tmp_path / "runs.jsonl"
        Engine(EngineConfig(jobs=4, store=store_path)).run(subset_requests())
        records = RunStore(store_path).run_records("@0")
        assert [r["benchmark"] for r in records] == SUBSET
        assert [r["index"] for r in records] == list(range(len(SUBSET)))


class TestStoreIntegration:
    def test_every_outcome_is_recorded(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_INJECT_FAIL, "fft")
        store_path = tmp_path / "runs.jsonl"
        cache = tmp_path / "cache"
        Engine(EngineConfig(store=store_path, cache_dir=cache)).run(
            plan_suite(["fft", "gmo"], params=SUBSET_PARAMS)
        )
        monkeypatch.delenv(ENV_INJECT_FAIL)
        Engine(EngineConfig(store=store_path, cache_dir=cache)).run(
            plan_suite(["gmo"], params=SUBSET_PARAMS)
        )
        store = RunStore(store_path)
        records = store.records()
        assert [r["status"] for r in records] == ["failed", "ok", "cached"]
        assert len(store.run_ids()) == 2
        failed = records[0]
        assert failed["benchmark"] == "fft"
        assert failed["report"] is None
        assert "InjectedFailure" in failed["error"]
        ok = records[1]
        assert ok["schema"] == 1
        assert ok["report"]["flop_count"] > 0
        assert ok["request"] == plan_suite(
            ["gmo"], params=SUBSET_PARAMS
        )[0].to_dict()
        # The cached record carries the same report as the original run.
        assert records[2]["report"] == ok["report"]

    def test_store_records_wall_time_and_attempts(self, tmp_path):
        store_path = tmp_path / "runs.jsonl"
        Engine(EngineConfig(store=store_path)).run(
            plan_suite(["fft"], params=SUBSET_PARAMS)
        )
        (record,) = RunStore(store_path).records()
        assert record["attempts"] == 1
        assert record["wall_time_s"] > 0


class TestBatchDispatch:
    """Batch dispatch: grouped submission, per-member granularity.

    Batching decisions key off the pool's per-benchmark compute EWMA,
    so each test pre-seeds the estimates it needs — a cold pool ships
    everything solo by design (that is itself a test below).
    """

    def _seeded_pool(self, benchmarks, workers=1):
        pool = WorkerPool(workers=workers)
        for name in benchmarks:
            pool.note_compute(name, 0.001)
        return pool

    def test_batched_reports_match_solo_byte_for_byte(self):
        solo = Engine(EngineConfig(jobs=1, batch=False)).run(
            subset_requests()
        )
        pool = self._seeded_pool(SUBSET)
        try:
            engine = Engine(EngineConfig(jobs=1, batch=True), pool=pool)
            batched = engine.run(subset_requests())
        finally:
            pool.shutdown()
        assert all(r.status == "ok" for r in batched)
        assert canonical_reports(solo) == canonical_reports(batched)
        phases = engine.last_run_stats.phases
        assert phases["batches_submitted"] >= 1
        assert phases["batched_jobs"] == len(SUBSET)

    def test_cold_pool_ships_solo_then_batching_engages(self):
        """No estimate -> solo; the first wave seeds the EWMA."""
        pool = WorkerPool(workers=1)
        try:
            first = Engine(EngineConfig(jobs=1, batch=True), pool=pool)
            first.run(subset_requests())
            assert first.last_run_stats.phases["batches_submitted"] == 0
            for name in SUBSET:
                assert pool.estimate(name) is not None
            second = Engine(EngineConfig(jobs=1, batch=True), pool=pool)
            second.run(subset_requests())
            assert second.last_run_stats.phases["batches_submitted"] >= 1
        finally:
            pool.shutdown()

    def test_failed_member_fails_alone_and_retries_solo(self, monkeypatch):
        """A failing batch member never takes down its siblings."""
        monkeypatch.setenv(ENV_INJECT_FAIL, "fft")
        events = []
        pool = self._seeded_pool(SUBSET)
        try:
            engine = Engine(
                EngineConfig(jobs=1, batch=True, retries=1, backoff=0.0),
                pool=pool,
                tracer=Tracer(callback=events.append),
            )
            results = engine.run(subset_requests())
        finally:
            pool.shutdown()
        by_name = {r.request.benchmark: r for r in results}
        assert by_name["fft"].status == "failed"
        assert by_name["fft"].attempts == 2
        assert "InjectedFailure" in by_name["fft"].error
        for name in SUBSET:
            if name != "fft":
                assert by_name[name].status == "ok"
                assert by_name[name].attempts == 1
        # The retry must have been dispatched solo, not re-batched.
        retry_starts = [
            e
            for e in events
            if e.kind == "job_started"
            and e.benchmark == "fft"
            and e.attempt == 2
        ]
        assert retry_starts
        assert all(not e.extra.get("batched") for e in retry_starts)

    def test_expired_batch_times_out_only_the_stuck_member(
        self, monkeypatch
    ):
        """Timeout attribution stays per-member after a batch expiry.

        The stuck job starves its batch past the pooled deadline; every
        member is requeued solo at the same attempt, where the stuck
        one earns an individual ``timeout`` and the innocent sibling
        completes ``ok`` without being charged an extra attempt.
        """
        monkeypatch.setenv(ENV_INJECT_SLEEP, "fft:30")
        pool = self._seeded_pool(["fft", "gmo"])
        try:
            engine = Engine(
                EngineConfig(jobs=1, batch=True, timeout=0.5), pool=pool
            )
            results = engine.run(
                plan_suite(["fft", "gmo"], params=SUBSET_PARAMS)
            )
        finally:
            pool.shutdown()
        by_name = {r.request.benchmark: r for r in results}
        assert by_name["fft"].status == "timeout"
        assert "timed out after 0.5s" in by_name["fft"].error
        assert by_name["fft"].attempts == 1
        assert by_name["gmo"].status == "ok"
        assert by_name["gmo"].attempts == 1

    def test_batch_members_get_individual_cache_entries(self, tmp_path):
        cache = tmp_path / "cache"
        pool = self._seeded_pool(SUBSET)
        try:
            config = EngineConfig(jobs=1, batch=True, cache_dir=cache)
            first = Engine(config, pool=pool).run(subset_requests())
            second = Engine(config, pool=pool).run(subset_requests())
        finally:
            pool.shutdown()
        assert all(r.status == "ok" for r in first)
        assert all(r.status == "cached" for r in second)
        assert canonical_reports(first) == canonical_reports(second)

    def test_partial_cache_hits_leave_batch_remainder(self, tmp_path):
        """Cache hits resolve up front; the rest still batch."""
        cache = tmp_path / "cache"
        pool = self._seeded_pool(SUBSET)
        try:
            config = EngineConfig(jobs=1, batch=True, cache_dir=cache)
            Engine(config, pool=pool).run(
                plan_suite(["fft", "lu"], params=SUBSET_PARAMS)
            )
            engine = Engine(config, pool=pool)
            results = engine.run(subset_requests())
        finally:
            pool.shutdown()
        statuses = {r.request.benchmark: r.status for r in results}
        assert statuses["fft"] == "cached"
        assert statuses["lu"] == "cached"
        fresh = [n for n in SUBSET if n not in ("fft", "lu")]
        assert all(statuses[n] == "ok" for n in fresh)
        assert engine.last_run_stats.phases["batched_jobs"] == len(fresh)


class TestRunSuiteWrapper:
    def test_run_suite_matches_engine(self):
        suite = run_suite(
            lambda: Session(cm5(32)), SUBSET, params=SUBSET_PARAMS
        )
        engine = Engine(EngineConfig()).run(subset_requests())
        assert list(suite) == SUBSET
        for result in engine:
            assert suite[result.request.benchmark] == result.report

    def test_run_suite_unknown_benchmark_raises(self):
        with pytest.raises(KeyError):
            run_suite(lambda: Session(cm5(32)), ["no-such-benchmark"])

    def test_run_suite_custom_session_factory(self):
        big = run_suite(
            lambda: Session(cm5(64)), ["fft"], params=SUBSET_PARAMS
        )
        small = run_suite(
            lambda: Session(cm5(32)), ["fft"], params=SUBSET_PARAMS
        )
        # Twice the nodes, twice the aggregate peak rate.
        assert big["fft"].peak_mflops == 2 * small["fft"].peak_mflops

    def test_fresh_recorder_enforced(self):
        """Satellite: reusing a session's recorder is an error."""
        from repro.suite import run_benchmark

        session = Session(cm5(32))
        run_benchmark("fft", session, n=64)
        with pytest.raises(ValueError, match="fresh session"):
            run_benchmark("fft", session, n=64)
