"""Service tests: wire protocol, daemon lifecycle (coalescing, bounded
queue, drain, cancel), results byte-identity against a local export, and
the socket transports.

The daemon coalesces by submission id *before* its workers start, so
most lifecycle tests construct a :class:`ReproDaemon` without calling
``start()`` — submissions pile up deterministically in the queue and the
test controls exactly when simulation begins.  Socket tests run the real
accept loop in a thread over a unix socket in ``tmp_path``.
"""

import dataclasses
import threading

import pytest

from repro.core.export import runs_to_text
from repro.errors import ReproError, UsageError
from repro.runner import BatchRunner
from repro.runner.cache import _read_jsonl
from repro.service import (
    ReproDaemon,
    ServiceClient,
    ServiceError,
    ServiceServer,
    build_jobs,
    submission_id,
    sweep_spec,
)
from repro.service.daemon import CANCELLED, DONE, QUEUED, TERMINAL
from repro.service.protocol import decode_line, encode_line

#: Cheap sweep: tiny config, one benchmark, heavily scaled down.
SCALE = 0.05


def _spec(**overrides):
    defaults = dict(
        config="tiny", benchmarks=["nn"], seeds=[1], scale=SCALE)
    defaults.update(overrides)
    return sweep_spec(**defaults)


def _daemon(tmp_path, **overrides):
    defaults = dict(workers=1, jobs=1)
    defaults.update(overrides)
    return ReproDaemon(tmp_path / "state", **defaults)


def _event_kinds(submission):
    return [
        record.get("event")
        for record in _read_jsonl(submission.events_path)
    ]


class TestProtocol:
    def test_submission_id_is_content_addressed(self):
        keys = ["a" * 64, "b" * 64]
        assert submission_id(keys) == submission_id(list(keys))
        assert submission_id(keys) != submission_id(keys[:1])
        assert submission_id(keys) != submission_id(keys[::-1])
        assert len(submission_id(keys)) == 24

    def test_build_jobs_sweep_matrix(self):
        jobs = build_jobs(sweep_spec(
            config="tiny", benchmarks=["nn", "nw"], seeds=[1, 2],
            scale=SCALE))
        assert len(jobs) == 4
        assert {job.kernel_name for job in jobs} == {"nn", "nw"}
        assert {job.seed for job in jobs} == {1, 2}
        assert all(job.iteration_scale == SCALE for job in jobs)

    def test_build_jobs_rejects_malformed_specs(self):
        for bad in (
            {},  # neither sweep nor jobs
            {"sweep": {}, "jobs": []},  # both
            {"sweep": []},  # wrong type
            {"jobs": []},  # empty
            {"sweep": {"benchmarks": []}},  # empty sweep axis
            {"sweep": {"config": "warehouse-scale"}},  # unknown name
            {"sweep": {"seeds": ["x"]}},  # non-integer seed
            {"sweep": {"max_cycles": "x"}},  # non-integer cycle budget
        ):
            with pytest.raises(ServiceError) as err:
                build_jobs(bad)
            assert err.value.code == "bad-request"

    def test_explicit_jobs_roundtrip_config_dicts(self):
        sweep_jobs = build_jobs(_spec())
        explicit = build_jobs({"jobs": [{
            "config": dataclasses.asdict(sweep_jobs[0].config),
            "kernel": "nn",
            "seed": 1,
            "iteration_scale": SCALE,
            "max_cycles": sweep_jobs[0].max_cycles,
        }]})
        assert explicit[0].key() == sweep_jobs[0].key()

    def test_line_codec_roundtrip_and_junk(self):
        payload = {"op": "submit", "spec": {"sweep": {"seeds": [1]}}}
        assert decode_line(encode_line(payload)) == payload
        with pytest.raises(ServiceError) as err:
            decode_line(b"not json\n")
        assert err.value.code == "bad-request"
        with pytest.raises(ServiceError):
            decode_line(b"[1,2,3]\n")

    def test_error_payload_survives_round_trip(self):
        error = ServiceError("queue-full", "try later")
        clone = ServiceError.from_payload(error.to_payload())
        assert (clone.code, str(clone)) == ("queue-full", "try later")
        # Unknown codes collapse to 'internal' rather than propagating.
        assert ServiceError("made-up", "x").code == "internal"
        assert isinstance(error, ReproError)


class TestDaemonLifecycle:
    def test_identical_submissions_coalesce_to_one_pass(self, tmp_path):
        daemon = _daemon(tmp_path)
        first = daemon.submit(_spec())
        second = daemon.submit(_spec())
        assert first["id"] == second["id"]
        assert (first["coalesced"], second["coalesced"]) == (False, True)
        assert second["clients"] == 2
        daemon.start()
        assert daemon.wait_idle(timeout=300)
        status = daemon.status(first["id"])
        assert status["state"] == DONE
        submission = daemon._get(first["id"])
        kinds = _event_kinds(submission)
        # Exactly one simulation pass: one submission_start, and one
        # job_finish per unique job despite two client submits.
        assert kinds.count("submission_start") == 1
        assert kinds.count("job_finish") == len(submission.keys) == 1
        daemon.stop(timeout=10)

    def test_duplicate_jobs_inside_a_spec_dedupe(self, tmp_path):
        daemon = _daemon(tmp_path)
        status = daemon.submit(_spec(seeds=[1, 1, 1]))
        assert status["total"] == 1

    def test_queue_full_is_a_typed_rejection(self, tmp_path):
        daemon = _daemon(tmp_path, queue_depth=1)
        daemon.submit(_spec(seeds=[1]))
        with pytest.raises(ServiceError) as err:
            daemon.submit(_spec(seeds=[2]))
        assert err.value.code == "queue-full"
        # An identical spec still coalesces — it needs no queue slot.
        assert daemon.submit(_spec(seeds=[1]))["coalesced"] is True

    def test_drain_rejects_new_but_finishes_queued(self, tmp_path):
        daemon = _daemon(tmp_path)
        queued = daemon.submit(_spec())
        daemon.drain()
        with pytest.raises(ServiceError) as err:
            daemon.submit(_spec(seeds=[2]))
        assert err.value.code == "draining"
        daemon.start()
        assert daemon.wait_idle(timeout=300)
        assert daemon.status(queued["id"])["state"] == DONE
        daemon.stop(timeout=10)

    def test_cancel_queued_submission(self, tmp_path):
        daemon = _daemon(tmp_path)  # workers never started
        queued = daemon.submit(_spec())
        cancelled = daemon.cancel(queued["id"])
        assert cancelled["state"] == CANCELLED
        with pytest.raises(ServiceError) as err:
            daemon.results(queued["id"])
        assert err.value.code == "not-done"
        # A fresh submit re-attempts under the same id.
        assert daemon.submit(_spec())["state"] == QUEUED

    def test_unknown_id_and_bad_ops_are_typed(self, tmp_path):
        daemon = _daemon(tmp_path)
        with pytest.raises(ServiceError) as err:
            daemon.status("feedfacedeadbeefcafe0123")
        assert err.value.code == "unknown-job"
        with pytest.raises(ServiceError) as err:
            daemon.handle({"op": "selfdestruct"})
        assert err.value.code == "bad-request"

    def test_failed_submission_reports_error(self, tmp_path):
        daemon = _daemon(tmp_path, retries=0)
        # Benchmark names resolve at execute time, so the submission is
        # accepted and then fails inside the batch runner.
        status = daemon.submit(_spec(benchmarks=["bogus"]))
        daemon.start()
        assert daemon.wait_idle(timeout=300)
        final = daemon.status(status["id"])
        assert final["state"] == "failed" and final["error"]
        daemon.stop(timeout=10)

    def test_end_event_is_logged_before_terminal_state(
        self, tmp_path, monkeypatch
    ):
        """A follower stops reading once it sees a terminal state, so
        ``submission_end`` must already be in the log by then."""
        from repro.runner.events import EventLog

        reached, release = threading.Event(), threading.Event()
        emit = EventLog.emit

        def gated_emit(log, event, **fields):
            if event == "submission_end":
                reached.set()
                release.wait()
            emit(log, event, **fields)

        monkeypatch.setattr(EventLog, "emit", gated_emit)
        daemon = _daemon(tmp_path)
        status = daemon.submit(_spec())
        daemon.start()
        try:
            assert reached.wait(timeout=300)
            assert daemon.status(status["id"])["state"] not in TERMINAL
        finally:
            release.set()
        assert daemon.wait_idle(timeout=300)
        assert daemon.status(status["id"])["state"] == DONE
        assert _event_kinds(daemon._get(status["id"]))[-1] == "submission_end"
        daemon.stop(timeout=10)

    def test_live_submission_keys_survive_eviction(self, tmp_path):
        daemon = _daemon(tmp_path)
        status = daemon.submit(_spec())
        daemon.start()
        assert daemon.wait_idle(timeout=300)
        submission = daemon._get(status["id"])
        # The store's evict guard covers live submissions: even an
        # evict-everything request must not remove their results.
        assert daemon.cache.evict(0) == []
        assert all(daemon.cache.contains(key) for key in submission.keys)
        daemon.stop(timeout=10)


class TestDaemonResults:
    def test_results_match_local_export_bytes(self, tmp_path):
        spec = _spec(seeds=[1, 2])
        serial_jobs = build_jobs(spec)
        serial_csv = runs_to_text(
            BatchRunner(jobs=1).run(serial_jobs), "csv")
        serial_json = runs_to_text(
            BatchRunner(jobs=1).run(serial_jobs), "json")

        daemon = _daemon(tmp_path)
        status = daemon.submit(spec)
        daemon.start()
        assert daemon.wait_idle(timeout=300)
        assert daemon.results(status["id"], "csv")["text"] == serial_csv
        assert daemon.results(status["id"], "json")["text"] == serial_json
        daemon.stop(timeout=10)

    def test_results_detect_a_cleared_store(self, tmp_path):
        daemon = _daemon(tmp_path)
        status = daemon.submit(_spec())
        daemon.start()
        assert daemon.wait_idle(timeout=300)
        daemon.cache.clear()
        with pytest.raises(ServiceError) as err:
            daemon.results(status["id"])
        assert err.value.code == "incomplete"
        daemon.stop(timeout=10)

    def test_resubmit_after_done_is_a_cache_hit(self, tmp_path):
        daemon = _daemon(tmp_path)
        first = daemon.submit(_spec())
        daemon.start()
        assert daemon.wait_idle(timeout=300)
        again = daemon.submit(_spec())
        assert again["coalesced"] is True
        assert again["state"] == DONE
        assert again["done"] == again["total"]
        daemon.stop(timeout=10)
        assert first["id"] == again["id"]


class TestSocketTransport:
    def _serve(self, tmp_path, **daemon_overrides):
        daemon = _daemon(tmp_path, **daemon_overrides)
        server = ServiceServer(daemon, socket_path=tmp_path / "svc.sock")
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        client = ServiceClient(socket_path=tmp_path / "svc.sock")
        deadline = 100
        for _ in range(deadline):
            try:
                client.ping()
                break
            except ServiceError:
                threading.Event().wait(0.05)
        return daemon, server, thread, client

    def test_server_needs_exactly_one_transport(self, tmp_path):
        daemon = _daemon(tmp_path)
        with pytest.raises(UsageError):
            ServiceServer(daemon)
        with pytest.raises(UsageError):
            ServiceServer(daemon, socket_path=tmp_path / "s", port=0)
        with pytest.raises(UsageError):
            ServiceClient()

    def test_concurrent_clients_share_one_simulation(self, tmp_path):
        daemon, server, thread, _ = self._serve(tmp_path)
        results = [None, None]

        def _client(slot):
            client = ServiceClient(socket_path=tmp_path / "svc.sock")
            submitted = client.submit(_spec())
            final = client.wait_done(submitted["id"], timeout=300)
            assert final["state"] == DONE
            results[slot] = (
                submitted, client.results(submitted["id"])["text"])

        clients = [
            threading.Thread(target=_client, args=(slot,))
            for slot in (0, 1)
        ]
        for worker in clients:
            worker.start()
        for worker in clients:
            worker.join(timeout=300)
        assert all(entry is not None for entry in results)
        (first, text_a), (second, text_b) = results
        assert first["id"] == second["id"]
        # One submit created the submission, the other coalesced.
        assert {first["coalesced"], second["coalesced"]} == {True, False}
        assert text_a == text_b
        submission = daemon._get(first["id"])
        kinds = _event_kinds(submission)
        assert kinds.count("submission_start") == 1
        assert kinds.count("job_finish") == len(submission.keys)
        server.request_stop()
        daemon.stop(timeout=10)
        thread.join(timeout=10)

    def test_event_stream_follows_to_completion(self, tmp_path):
        daemon, server, thread, client = self._serve(tmp_path)
        submitted = client.submit(_spec())
        messages = list(client.stream_events(submitted["id"]))
        assert messages, "follow stream yielded nothing"
        final = messages[-1]
        assert final.get("done") is True
        assert final["state"] in TERMINAL
        kinds = [
            message["event"]["event"]
            for message in messages if "event" in message
        ]
        assert "submission_start" in kinds and "submission_end" in kinds
        server.request_stop()
        daemon.stop(timeout=10)
        thread.join(timeout=10)

    def test_tcp_loopback_transport(self, tmp_path):
        daemon = _daemon(tmp_path)
        server = ServiceServer(daemon, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        client = ServiceClient(port=server.port)
        for _ in range(100):
            try:
                assert client.ping()["protocol"] >= 1
                break
            except ServiceError:
                threading.Event().wait(0.05)
        submitted = client.submit(_spec())
        final = client.wait_done(submitted["id"], timeout=300)
        assert final["state"] == DONE
        server.request_stop()
        daemon.stop(timeout=10)
        thread.join(timeout=10)

    def test_typed_errors_cross_the_wire(self, tmp_path):
        daemon, server, thread, client = self._serve(tmp_path)
        with pytest.raises(ServiceError) as err:
            client.status("feedfacedeadbeefcafe0123")
        assert err.value.code == "unknown-job"
        with pytest.raises(ServiceError) as err:
            client.submit({"sweep": {"scale": -1}})
        assert err.value.code == "bad-request"
        server.request_stop()
        daemon.stop(timeout=10)
        thread.join(timeout=10)
