"""End-to-end tests for the job server: HTTP lifecycle on a real socket.

Every test runs a real ``ThreadingHTTPServer`` (or Unix-socket server)
against a temp store and talks to it with the bundled client — the same
path ``repro serve`` / ``repro job`` exercise, minus the CLI shim.
"""

import json
import socket
import threading

import pytest

from repro.serve import (
    ServeApp,
    ServeClient,
    ServeError,
    make_server,
    make_unix_server,
    new_job_id,
)
from repro.serve.app import MAX_BODY_BYTES
from repro.serve.executor import DELAY_ENV
from repro.serve.model import normalize_spec, spec_digest
from repro.store.db import RunStore

COLOR = {"kind": "color", "dataset": "random", "scale": "tiny"}
BATCH4 = {
    "kind": "batch",
    "datasets": ["random", "grid2d", "rmat", "road"],
    "scale": "tiny",
}


@pytest.fixture()
def served(tmp_path):
    """A live TCP server + client on an ephemeral port; always torn down."""
    app = ServeApp(tmp_path / "runs.sqlite", workers=1)
    server = make_server(app, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address
    client = ServeClient(f"http://{host}:{port}")
    try:
        yield app, client, tmp_path / "runs.sqlite"
    finally:
        server.shutdown()
        server.server_close()
        app.close()


def _seed_interrupted(store_path, spec_raw, state):
    """Plant a job row as a killed server would have left it."""
    spec = normalize_spec(spec_raw)
    job_id = new_job_id()
    with RunStore(store_path) as store:
        store.insert_job(
            job_id=job_id,
            kind=spec["kind"],
            spec=json.dumps(spec, sort_keys=True),
            spec_digest=spec_digest(spec),
            cells=1,
        )
        if state != "queued":
            store.update_job(job_id, state=state)
    return job_id


class TestLifecycle:
    def test_submit_poll_result(self, served):
        _, client, _ = served
        job = client.submit(COLOR)
        assert job["state"] == "queued" and not job["deduped"]
        view = client.wait(job["job_id"], timeout=120)
        assert view["state"] == "done"
        assert view["cells_done"] == view["cells"] == 1
        rows = client.result(job["job_id"])["result"]
        assert len(rows) == 1
        assert rows[0]["dataset"] == "random"
        assert rows[0]["colors"] > 0

    def test_rows_recorded_in_store(self, served):
        _, client, store_path = served
        job = client.submit(COLOR)
        client.wait(job["job_id"], timeout=120)
        with RunStore(store_path) as store:
            runs = store.runs()
        assert len(runs) == 1
        assert runs[0]["source"] == "serve"

    def test_result_before_done_is_409(self, served, monkeypatch):
        monkeypatch.setenv(DELAY_ENV, "500")
        _, client, _ = served
        job = client.submit(COLOR)
        with pytest.raises(ServeError) as exc:
            client.result(job["job_id"])
        assert exc.value.status == 409
        client.wait(job["job_id"], timeout=120)

    def test_unknown_job_is_404(self, served):
        _, client, _ = served
        for call in (client.job, client.result, client.cancel, client.restart):
            with pytest.raises(ServeError) as exc:
                call("feedfacecafe")
            assert exc.value.status == 404

    def test_bad_spec_is_400(self, served):
        _, client, _ = served
        with pytest.raises(ServeError) as exc:
            client.submit({"kind": "color", "dataset": "nope"})
        assert exc.value.status == 400
        assert "unknown dataset" in exc.value.message

    def test_unknown_route_is_404(self, served):
        _, client, _ = served
        with pytest.raises(ServeError) as exc:
            client.request("GET", "/nope")
        assert exc.value.status == 404


class TestDedup:
    def test_duplicate_submit_returns_same_job(self, served):
        _, client, _ = served
        first = client.submit(COLOR)
        client.wait(first["job_id"], timeout=120)
        again = client.submit(dict(COLOR))
        assert again["deduped"] is True
        assert again["job_id"] == first["job_id"]
        # equal work spelled differently still dedups (defaults filled)
        verbose = client.submit({**COLOR, "algorithm": "maxmin", "seed": 0})
        assert verbose["deduped"] is True
        assert client.metrics()["jobs"]["deduped"] == 2

    def test_different_work_is_a_new_job(self, served):
        _, client, _ = served
        first = client.submit(COLOR)
        other = client.submit({**COLOR, "seed": 7})
        assert other["deduped"] is False
        assert other["job_id"] != first["job_id"]
        client.wait(first["job_id"], timeout=120)
        client.wait(other["job_id"], timeout=120)

    def test_failed_job_does_not_block_resubmit(self, served):
        app, client, store_path = served
        job_id = _seed_interrupted(store_path, COLOR, "failed")
        again = client.submit(COLOR)
        assert again["deduped"] is False
        assert again["job_id"] != job_id
        client.wait(again["job_id"], timeout=120)


class TestCancel:
    def test_cancel_while_running_stops_between_cells(
        self, served, monkeypatch
    ):
        monkeypatch.setenv(DELAY_ENV, "300")
        _, client, _ = served
        job = client.submit(BATCH4)
        jid = job["job_id"]
        # wait for it to actually start chewing cells
        deadline_view = None
        for _ in range(200):
            view = client.job(jid)
            if view["state"] == "running" and view["cells_done"] >= 1:
                deadline_view = view
                break
            threading.Event().wait(0.05)
        assert deadline_view is not None, "job never started"
        client.cancel(jid)
        final = client.wait(jid, timeout=60)
        assert final["state"] == "cancelled"
        assert 1 <= final["cells_done"] < final["cells"]

    def test_cancel_queued_job_never_runs(self, served, monkeypatch):
        monkeypatch.setenv(DELAY_ENV, "300")
        app, client, _ = served
        running = client.submit(BATCH4)  # occupies the single worker
        queued = client.submit(COLOR)
        view = client.cancel(queued["job_id"])
        assert view["state"] == "cancelled"
        assert view["cells_done"] == 0
        client.wait(running["job_id"], timeout=120)
        # the worker saw the cancelled state and skipped it
        assert client.job(queued["job_id"])["state"] == "cancelled"

    def test_cancel_terminal_job_is_noop(self, served):
        _, client, _ = served
        job = client.submit(COLOR)
        client.wait(job["job_id"], timeout=120)
        view = client.cancel(job["job_id"])
        assert view["state"] == "done"


class TestRestart:
    def test_restart_reruns_a_terminal_job(self, served):
        _, client, store_path = served
        job_id = _seed_interrupted(store_path, COLOR, "failed")
        view = client.restart(job_id)
        assert view["state"] == "queued"
        final = client.wait(job_id, timeout=120)
        assert final["state"] == "done"
        assert final["attempts"] == 1  # seeded row never actually ran

    def test_restart_of_active_job_is_409(self, served, monkeypatch):
        monkeypatch.setenv(DELAY_ENV, "300")
        _, client, _ = served
        job = client.submit(COLOR)
        with pytest.raises(ServeError) as exc:
            client.restart(job["job_id"])
        assert exc.value.status == 409
        client.wait(job["job_id"], timeout=120)


class TestRecover:
    def test_recover_requeues_only_non_terminal_jobs(self, tmp_path):
        store_path = tmp_path / "runs.sqlite"
        RunStore(store_path).close()  # migrate
        interrupted = _seed_interrupted(store_path, COLOR, "running")
        queued = _seed_interrupted(store_path, {**COLOR, "seed": 1}, "queued")
        done = _seed_interrupted(store_path, {**COLOR, "seed": 2}, "done")
        cancelled = _seed_interrupted(
            store_path, {**COLOR, "seed": 3}, "cancelled"
        )
        app = ServeApp(store_path, workers=1, recover=True)
        try:
            assert sorted(app.recovered) == sorted([interrupted, queued])
            assert app.executor.wait_idle(timeout=120)
            with RunStore(store_path) as store:
                assert store.job(interrupted)["state"] == "done"
                assert store.job(queued)["state"] == "done"
                assert store.job(done)["state"] == "done"
                assert store.job(cancelled)["state"] == "cancelled"
                # the terminal rows were not touched (never ran)
                assert store.job(done)["attempts"] == 0
        finally:
            app.close()

    def test_recovered_rows_match_uninterrupted_serial_run(self, tmp_path):
        # the acceptance bar: a job finished by --recover records store
        # rows bit-identical to a run that was never interrupted
        interrupted_store = tmp_path / "killed.sqlite"
        RunStore(interrupted_store).close()
        jid = _seed_interrupted(interrupted_store, BATCH4, "running")
        app = ServeApp(interrupted_store, workers=1, recover=True)
        try:
            assert app.executor.wait_idle(timeout=300)
            with RunStore(interrupted_store) as store:
                assert store.job(jid)["state"] == "done"
        finally:
            app.close()

        clean_store = tmp_path / "clean.sqlite"
        app2 = ServeApp(clean_store, workers=1)
        try:
            app2.submit(BATCH4)
            assert app2.executor.wait_idle(timeout=300)
        finally:
            app2.close()

        with RunStore(interrupted_store) as a, RunStore(clean_store) as b:
            rows_a, rows_b = a.canonical_rows(), b.canonical_rows()
        assert rows_a and rows_a == rows_b


class TestJobWorkers:
    @staticmethod
    def _run_batch(store_path, job_workers):
        app = ServeApp(store_path, workers=1, job_workers=job_workers)
        server = make_server(app, "127.0.0.1", 0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address
        client = ServeClient(f"http://{host}:{port}")
        try:
            job = client.submit(BATCH4)
            assert client.wait(job["job_id"], timeout=300)["state"] == "done"
            rows = client.result(job["job_id"])["result"]
        finally:
            server.shutdown()
            server.server_close()
            app.close()
        with RunStore(store_path) as store:
            return rows, store.canonical_rows()

    def test_job_workers_match_serial(self, tmp_path):
        # cells fanned out over worker processes serve and record the
        # same rows as the in-thread path
        rows_1, stored_1 = self._run_batch(tmp_path / "one.sqlite", 1)
        rows_2, stored_2 = self._run_batch(tmp_path / "two.sqlite", 2)
        assert len(rows_1) == len(BATCH4["datasets"])
        assert rows_1 == rows_2
        assert stored_1 and stored_1 == stored_2


class TestMetricsAndHealth:
    def test_health_shape(self, served):
        _, client, _ = served
        doc = client.health()
        assert doc["ok"] is True
        assert doc["schema"] >= 3
        assert doc["workers"] == 1

    def test_metrics_totals_match_store_counts(self, served):
        _, client, store_path = served
        job = client.submit(BATCH4)
        client.wait(job["job_id"], timeout=300)
        doc = client.metrics()
        assert doc["jobs"]["completed"] == 1
        assert doc["jobs"]["cells_run"] == 4
        with RunStore(store_path) as store:
            counts = store.counts()
        assert doc["store"] == counts
        assert counts["runs"] == 4  # one row per distinct cell
        assert counts["jobs"] == 1
        # the registry aggregated real kernel work from the job
        assert doc["registry"]["totals"]["kernels"] > 0

    def test_listing_filters_by_state(self, served):
        _, client, _ = served
        job = client.submit(COLOR)
        client.wait(job["job_id"], timeout=120)
        assert [v["job_id"] for v in client.jobs(state="done")] == [
            job["job_id"]
        ]
        assert client.jobs(state="failed") == []


class TestUnixSocket:
    def test_full_loop_over_uds(self, tmp_path):
        sock = tmp_path / "serve.sock"
        app = ServeApp(tmp_path / "runs.sqlite", workers=1)
        server = make_unix_server(app, sock)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        client = ServeClient(socket_path=str(sock))
        try:
            assert client.health()["ok"] is True
            job = client.submit(COLOR)
            view = client.wait(job["job_id"], timeout=120)
            assert view["state"] == "done"
            assert len(client.result(job["job_id"])["result"]) == 1
        finally:
            server.shutdown()
            server.server_close()
            app.close()

    def test_stale_socket_file_is_replaced(self, tmp_path):
        sock = tmp_path / "serve.sock"
        sock.write_text("")  # debris from a killed server
        app = ServeApp(tmp_path / "runs.sqlite")
        server = make_unix_server(app, sock)
        server.server_close()
        app.close()


class TestRequestBodyLimits:
    """``Content-Length`` is parsed and bounded before any body is read."""

    @staticmethod
    def _post_raw(client, content_length: str) -> bytes:
        with socket.create_connection((client.host, client.port), timeout=1.0) as sock:
            sock.sendall(
                b"POST /jobs HTTP/1.1\r\nHost: localhost\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: " + content_length.encode() + b"\r\n\r\n"
            )
            reply = b""
            while chunk := sock.recv(65536):  # the server closes after replying
                reply += chunk
        return reply

    @pytest.mark.parametrize(
        ("content_length", "status"),
        [("abc", 400), ("-1", 400), ("100000000000", 413)],
    )
    def test_bad_content_length_is_refused(self, served, content_length, status):
        _, client, _ = served
        reply = self._post_raw(client, content_length)
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.split(b" ", 2)[1] == str(status).encode()
        assert "error" in json.loads(body)

    def test_limit_allows_a_normal_submit(self, served):
        _, client, _ = served
        assert len(json.dumps(COLOR)) < MAX_BODY_BYTES
        assert client.submit(COLOR)["deduped"] is False
