"""Unit tests for experiment reproduction records."""

from repro.analysis.experiment import (
    ExperimentRecord,
    records_from_store,
    render_markdown,
)


def rec(eid="E1", holds=True):
    return ExperimentRecord(
        experiment_id=eid,
        paper_artifact="Table 1",
        paper_claim="claim",
        measured="measured",
        shape_holds=holds,
        details={"k": 1},
    )


class TestRecord:
    def test_as_row(self):
        row = rec().as_row()
        assert row["id"] == "E1"
        assert row["shape"] == "holds"
        assert rec(holds=False).as_row()["shape"] == "DIVERGES"


class TestMarkdown:
    def test_renders_sorted_table(self):
        md = render_markdown([rec("E2"), rec("E1", holds=False)])
        lines = md.splitlines()
        assert lines[0].startswith("| Exp")
        assert "E1" in lines[2] and "E2" in lines[3]
        assert "❌" in lines[2] and "✅" in lines[3]


class TestStoreView:
    def test_records_from_store_roundtrip(self, tmp_path):
        from repro.store import Recorder

        with Recorder(
            str(tmp_path / "runs.sqlite"), git_rev="t", scale="tiny"
        ) as recorder:
            recorder.record_experiment(rec("E2"))
            recorder.record_experiment(rec("E1", holds=False))
            loaded = records_from_store(recorder.store)
        assert [r.experiment_id for r in loaded] == ["E1", "E2"]
        assert loaded[0].shape_holds is False
        assert loaded[0].details == {"k": 1}
        assert loaded[0].paper_artifact == "Table 1"

    def test_from_store_row_parses_details_json(self):
        row = {
            "experiment_id": "E7",
            "paper_artifact": "Fig 2",
            "paper_claim": "c",
            "measured": "m",
            "shape_holds": 1,
            "details": '{"ratio": 1.5}',
        }
        r = ExperimentRecord.from_store_row(row)
        assert r.shape_holds is True
        assert r.details == {"ratio": 1.5}

    def test_store_view_renders_same_markdown_as_jsonl(self, tmp_path):
        from repro.store import Recorder

        records = [rec("E1"), rec("E2", holds=False)]
        with Recorder(str(tmp_path / "runs.sqlite"), git_rev="t") as recorder:
            for r in records:
                recorder.record_experiment(r)
            from_store = records_from_store(recorder.store)
        assert render_markdown(from_store) == render_markdown(records)
