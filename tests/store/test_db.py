"""Unit tests for the sqlite run store: schema, digests, upserts."""

import sqlite3

import pytest

from repro.graphs import generators as gen
from repro.store import (
    MIGRATIONS,
    SCHEMA_VERSION,
    RunStore,
    config_digest,
    current_git_rev,
    graph_digest,
    run_key,
    store_path_from_env,
)
from repro.store.db import canonical_config


def _row(**overrides):
    base = {
        "graph_digest": "g" * 32,
        "dataset": "rmat",
        "scale": "tiny",
        "algorithm": "maxmin",
        "mapping": "thread",
        "schedule": "grid",
        "config_digest": "c" * 32,
        "seed": 0,
        "git_rev": "abc1234",
        "cycles": 100.0,
        "colors": 7,
        "iterations": 3,
    }
    base.update(overrides)
    return base


class TestSchema:
    def test_fresh_store_is_current_version(self, tmp_path):
        with RunStore(tmp_path / "runs.sqlite") as store:
            assert store.schema_version() == SCHEMA_VERSION
            assert store.counts() == {
                "runs": 0,
                "experiments": 0,
                "graphs": 0,
                "tunings": 0,
                "jobs": 0,
            }

    def test_v1_store_is_migrated_forward(self, tmp_path):
        path = tmp_path / "old.sqlite"
        conn = sqlite3.connect(path)
        conn.executescript(MIGRATIONS[1])
        conn.execute("PRAGMA user_version=1")
        conn.commit()
        conn.close()
        with RunStore(path) as store:
            assert store.schema_version() == SCHEMA_VERSION
            assert "tunings" in store.counts()  # v2 table exists now

    def test_newer_schema_is_refused(self, tmp_path):
        path = tmp_path / "future.sqlite"
        conn = sqlite3.connect(path)
        conn.execute(f"PRAGMA user_version={SCHEMA_VERSION + 1}")
        conn.commit()
        conn.close()
        with pytest.raises(RuntimeError, match="newer than this code"):
            RunStore(path)

    def test_wal_mode(self, tmp_path):
        with RunStore(tmp_path / "runs.sqlite") as store:
            mode = store.conn.execute("PRAGMA journal_mode").fetchone()[0]
            assert mode == "wal"


class TestUpsertRun:
    def test_rerun_dedupes_and_bumps_count(self, tmp_path):
        with RunStore(tmp_path / "runs.sqlite") as store:
            store.upsert_run(_row(cycles=100.0))
            store.upsert_run(_row(cycles=105.0))  # same content key
            rows = store.runs()
            assert len(rows) == 1
            assert rows[0]["cycles"] == 105.0  # measurement refreshed
            assert rows[0]["runs_count"] == 2

    def test_distinct_keys_append(self, tmp_path):
        with RunStore(tmp_path / "runs.sqlite") as store:
            store.upsert_run(_row(seed=0))
            store.upsert_run(_row(seed=1))
            store.upsert_run(_row(git_rev="def5678"))
            store.upsert_run(_row(scale="small"))
            assert store.counts()["runs"] == 4

    def test_unknown_column_raises(self, tmp_path):
        with RunStore(tmp_path / "runs.sqlite") as store:
            with pytest.raises(KeyError, match="colour"):
                store.upsert_run(_row(colour=3))

    def test_canonical_rows_ignore_volatile_columns(self, tmp_path):
        with RunStore(tmp_path / "a.sqlite") as a, RunStore(tmp_path / "b.sqlite") as b:
            a.upsert_run(_row(wall_ms=1.0))
            a.upsert_run(_row(seed=1, wall_ms=2.0))
            # same cells, different order, different wall clocks, one rerun
            b.upsert_run(_row(seed=1, wall_ms=9.0))
            b.upsert_run(_row(wall_ms=8.0))
            b.upsert_run(_row(wall_ms=7.0))
            assert a.canonical_rows() == b.canonical_rows()

    def test_runs_filters(self, tmp_path):
        with RunStore(tmp_path / "runs.sqlite") as store:
            store.upsert_run(_row(dataset="rmat"))
            store.upsert_run(_row(dataset="road", seed=1, algorithm="jp"))
            assert len(store.runs(dataset="rmat")) == 1
            assert len(store.runs(algorithm="jp")) == 1
            assert store.runs(dataset="nope") == []
            assert len(store.runs(limit=1)) == 1


class TestExperimentsAndTunings:
    def test_experiment_upsert_latest_only(self, tmp_path):
        with RunStore(tmp_path / "runs.sqlite") as store:
            store.upsert_experiment(
                experiment_id="E1", shape_holds=True, git_rev="r1"
            )
            store.upsert_experiment(
                experiment_id="E1", shape_holds=False, git_rev="r2"
            )
            assert store.counts()["experiments"] == 2
            latest = store.experiments()
            assert len(latest) == 1
            assert latest[0]["git_rev"] == "r2"
            assert not latest[0]["shape_holds"]
            assert len(store.experiments(latest_only=False)) == 2

    def test_tuning_upsert(self, tmp_path):
        with RunStore(tmp_path / "runs.sqlite") as store:
            store.upsert_tuning(
                graph_digest="g" * 32, best_mapping="warp", best_cycles=10.0
            )
            store.upsert_tuning(
                graph_digest="g" * 32, best_mapping="hybrid", best_cycles=9.0
            )
            assert store.counts()["tunings"] == 1
            row = store.query("SELECT * FROM tunings")[0]
            assert row["best_mapping"] == "hybrid"


class TestDigests:
    def test_graph_digest_is_content_keyed(self):
        g1 = gen.rmat(6, edge_factor=8, seed=1)
        g2 = gen.rmat(6, edge_factor=8, seed=1)
        g3 = gen.rmat(6, edge_factor=8, seed=2)
        assert graph_digest(g1) == graph_digest(g2)
        assert graph_digest(g1) != graph_digest(g3)

    def test_config_digest_stable_across_key_order(self):
        a = config_digest("maxmin", {"chunk_size": 256, "mapping": "warp"})
        b = config_digest("maxmin", {"mapping": "warp", "chunk_size": 256})
        assert a == b

    def test_config_digest_sees_algo_kwargs(self):
        plain = config_digest("hybrid", {})
        tuned = config_digest("hybrid", {}, {"switch_fraction": 0.2})
        assert plain != tuned

    def test_canonical_config_is_compact_sorted_json(self):
        doc = canonical_config("jp", {"b": 2, "a": 1})
        assert doc == '{"algo":{},"algorithm":"jp","config":{"a":1,"b":2}}'

    def test_run_key_excludes_git_rev(self):
        r1 = _row(git_rev="abc")
        r2 = _row(git_rev="def")
        assert run_key(r1) == run_key(r2)
        assert run_key(_row(seed=5)) != run_key(_row(seed=6))


class TestEnv:
    def test_store_path_default_when_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_RUN_STORE", raising=False)
        assert store_path_from_env("x.sqlite") is not None

    def test_store_path_disabled_values(self, monkeypatch):
        for off in ("", "0", "off", "none", " OFF "):
            monkeypatch.setenv("REPRO_RUN_STORE", off)
            assert store_path_from_env("x.sqlite") is None

    def test_store_path_explicit(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_RUN_STORE", str(tmp_path / "mine.sqlite"))
        assert store_path_from_env("x.sqlite") == tmp_path / "mine.sqlite"

    def test_git_rev_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_GIT_REV", "cafef00d")
        assert current_git_rev() == "cafef00d"


class TestJobs:
    def _insert(self, store, job_id="j1", **kw):
        base = {"kind": "color", "spec": "{}", "spec_digest": "d" * 32, "cells": 3}
        base.update(kw)
        store.insert_job(job_id=job_id, **base)

    def test_insert_and_fetch(self, tmp_path):
        with RunStore(tmp_path / "runs.sqlite") as store:
            self._insert(store)
            job = store.job("j1")
            assert job["state"] == "queued"
            assert job["cells"] == 3
            assert job["attempts"] == 0
            assert job["submitted_at"]  # stamped at insert
            assert store.job("nope") is None

    def test_update_whitelist(self, tmp_path):
        with RunStore(tmp_path / "runs.sqlite") as store:
            self._insert(store)
            store.update_job("j1", state="running", cells_done=2, attempts=1)
            job = store.job("j1")
            assert (job["state"], job["cells_done"], job["attempts"]) == (
                "running", 2, 1,
            )
            with pytest.raises(KeyError):
                store.update_job("j1", spec_digest="x")  # immutable column
            with pytest.raises(ValueError, match="job state"):
                store.update_job("j1", state="exploded")

    def test_jobs_by_digest_newest_first(self, tmp_path):
        with RunStore(tmp_path / "runs.sqlite") as store:
            self._insert(store, job_id="a", spec_digest="d1")
            self._insert(store, job_id="b", spec_digest="d1")
            self._insert(store, job_id="c", spec_digest="d2")
            assert [j["job_id"] for j in store.jobs_by_digest("d1")] == ["b", "a"]

    def test_reset_interrupted_requeues_only_non_terminal(self, tmp_path):
        with RunStore(tmp_path / "runs.sqlite") as store:
            for jid, state in (
                ("q", "queued"),
                ("r", "running"),
                ("d", "done"),
                ("f", "failed"),
                ("c", "cancelled"),
            ):
                self._insert(store, job_id=jid)
                if state != "queued":
                    store.update_job(jid, state=state)
            assert store.reset_interrupted_jobs() == ["q", "r"]
            assert store.job("r")["state"] == "queued"
            assert store.job("r")["started_at"] is None
            assert store.job("d")["state"] == "done"

    def test_list_jobs_filters(self, tmp_path):
        with RunStore(tmp_path / "runs.sqlite") as store:
            self._insert(store, job_id="a")
            self._insert(store, job_id="b")
            store.update_job("b", state="running")
            assert len(store.list_jobs()) == 2
            assert [j["job_id"] for j in store.list_jobs(state="running")] == ["b"]
            assert len(store.list_jobs(limit=1)) == 1


class TestInitFailureClosesConnection:
    """Regression: RunStore.__init__ must not leak its sqlite connection
    when setup after connect fails (migration error, newer-file refusal)."""

    def _capture_connect(self, monkeypatch):
        opened = []
        real_connect = sqlite3.connect

        def spy(*args, **kwargs):
            conn = real_connect(*args, **kwargs)
            opened.append(conn)
            return conn

        monkeypatch.setattr(sqlite3, "connect", spy)
        return opened

    @staticmethod
    def _is_closed(conn):
        try:
            conn.execute("SELECT 1")
        except sqlite3.ProgrammingError:
            return True
        return False

    def test_newer_file_refusal_closes(self, tmp_path, monkeypatch):
        path = tmp_path / "future.sqlite"
        conn = sqlite3.connect(path)
        conn.execute(f"PRAGMA user_version={SCHEMA_VERSION + 1}")
        conn.commit()
        conn.close()
        opened = self._capture_connect(monkeypatch)
        with pytest.raises(RuntimeError, match="newer than this code"):
            RunStore(path)
        assert len(opened) == 1
        assert self._is_closed(opened[0])

    def test_migration_failure_closes(self, tmp_path, monkeypatch):
        # a v1 file with a table that collides with the v2 migration
        path = tmp_path / "broken.sqlite"
        conn = sqlite3.connect(path)
        conn.executescript(MIGRATIONS[1])
        conn.execute("CREATE TABLE tunings (oops INTEGER)")  # v2 will collide
        conn.execute("PRAGMA user_version=1")
        conn.commit()
        conn.close()
        opened = self._capture_connect(monkeypatch)
        with pytest.raises(sqlite3.OperationalError):
            RunStore(path)
        assert len(opened) == 1
        assert self._is_closed(opened[0])
