"""End-to-end tests for the ``repro check`` CLI subcommands."""

from __future__ import annotations

import json

import pytest

from repro.cli import main


def json_out(capsys) -> dict:
    payload = json.loads(capsys.readouterr().out)
    assert isinstance(payload, dict)
    return payload


def assert_envelope(payload: dict, command: str, subject_key: str) -> list[dict]:
    """Every ``repro check --json`` output shares one envelope shape."""
    assert payload["command"] == f"check.{command}"
    assert isinstance(payload["ok"], bool)
    items = payload["items"]
    assert isinstance(items, list)
    for item in items:
        assert subject_key in item
        assert isinstance(item["verdicts"], dict)
        assert isinstance(item["issues"], list)
    return items


class TestCheckValidate:
    def test_single_algorithm(self, capsys):
        rc = main(["check", "validate", "rmat", "--scale", "tiny", "-a", "jp"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "jp" in out and "ok" in out

    def test_all_algorithms(self, capsys):
        rc = main(["check", "validate", "rmat", "--scale", "tiny"])
        out = capsys.readouterr().out
        assert rc == 0
        for name in ("maxmin", "jp", "speculative", "partitioned"):
            assert name in out

    def test_json_output(self, capsys):
        rc = main(["check", "validate", "rmat", "--scale", "tiny", "-a", "jp",
                   "--json"])
        payload = json_out(capsys)
        assert rc == 0
        assert payload["ok"] is True and payload["graph"] == "rmat"
        (item,) = assert_envelope(payload, "validate", "algorithm")
        assert item["algorithm"] == "jp"
        assert item["verdicts"] == {"validation": "ok"}
        assert item["issues"] == []
        assert item["detail"]["colors"] > 0

    def test_unknown_graph_exits(self):
        with pytest.raises(SystemExit):
            main(["check", "validate", "no-such-graph", "--scale", "tiny"])


class TestCheckRaces:
    def test_all_scanners(self, capsys):
        rc = main(["check", "races", "rmat", "--scale", "tiny"])
        out = capsys.readouterr().out
        assert rc == 0
        for algo in ("jp", "maxmin", "speculative", "hybrid-switch",
                     "edge-centric", "partitioned"):
            assert f"races:{algo}: ok" in out

    def test_details_flag(self, capsys):
        rc = main(
            ["check", "races", "rmat", "--scale", "tiny", "-a", "speculative",
             "--details"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "expected" in out

    def test_json_output(self, capsys):
        rc = main(["check", "races", "rmat", "--scale", "tiny", "-a", "jp",
                   "--json"])
        payload = json_out(capsys)
        assert rc == 0
        (scan,) = assert_envelope(payload, "races", "algorithm")
        assert scan["algorithm"] == "jp"
        assert scan["verdicts"] == {"races": "clean"}
        assert scan["detail"]["unexpected"] == 0
        assert scan["detail"]["total_accesses"] > 0

    def test_unknown_scanner_exits(self):
        with pytest.raises(SystemExit):
            main(["check", "races", "rmat", "--scale", "tiny", "-a", "nope"])


class TestCheckLint:
    def test_clean_tree(self, capsys):
        rc = main(["check", "lint", "src/repro/check"])
        assert rc == 0
        assert "clean" in capsys.readouterr().out

    def test_explain(self, capsys):
        rc = main(["check", "lint", "--explain"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "RC001" in out and "RC004" in out

    def test_violations_fail(self, tmp_path, capsys):
        bad = tmp_path / "coloring" / "mod.py"
        bad.parent.mkdir()
        bad.write_text("import time\nt = time.time()\n")
        rc = main(["check", "lint", str(bad)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "RC002" in out

    def test_json_clean(self, capsys):
        rc = main(["check", "lint", "src/repro/check", "--json"])
        payload = json_out(capsys)
        assert rc == 0
        items = assert_envelope(payload, "lint", "rule")
        assert payload["ok"] is True
        assert all(item["verdicts"] == {"lint": "clean"} for item in items)
        assert all(item["issues"] == [] for item in items)

    def test_json_violations(self, tmp_path, capsys):
        bad = tmp_path / "gpusim" / "mod.py"
        bad.parent.mkdir()
        bad.write_text("import time\nt = time.time()\n")
        rc = main(["check", "lint", str(bad), "--json"])
        payload = json_out(capsys)
        assert rc == 1
        items = assert_envelope(payload, "lint", "rule")
        (violated,) = [i for i in items if i["verdicts"]["lint"] == "violated"]
        assert violated["rule"] == "RC002"
        (issue,) = violated["issues"]
        assert ":2:" in issue

    def test_explain_json(self, capsys):
        rc = main(["check", "lint", "--explain", "--json"])
        payload = json_out(capsys)
        assert rc == 0
        items = assert_envelope(payload, "lint", "rule")
        assert {item["rule"] for item in items} == {
            "RC001",
            "RC002",
            "RC003",
            "RC004",
            "RC006",
            "RC008",
        }


class TestCheckGolden:
    def test_write_then_check(self, tmp_path, capsys):
        baseline = tmp_path / "golden.json"
        rc = main(["check", "golden", "--write", "--baseline", str(baseline)])
        assert rc == 0 and baseline.exists()
        capsys.readouterr()
        rc = main(["check", "golden", "--baseline", str(baseline)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "ok" in out and "drifted" in out

    def test_drift_detected(self, tmp_path, capsys):
        baseline = tmp_path / "golden.json"
        assert main(["check", "golden", "--write", "--baseline", str(baseline)]) == 0
        payload = json.loads(baseline.read_text())
        key = next(iter(payload))
        payload[key]["num_colors"] += 1
        baseline.write_text(json.dumps(payload))
        capsys.readouterr()
        rc = main(["check", "golden", "--baseline", str(baseline)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "DRIFT" in out


class TestCheckGoldenJson:
    def test_json_ok_and_drift(self, tmp_path, capsys):
        baseline = tmp_path / "golden.json"
        assert main(["check", "golden", "--write", "--baseline", str(baseline)]) == 0
        capsys.readouterr()
        rc = main(["check", "golden", "--baseline", str(baseline), "--json"])
        payload = json_out(capsys)
        assert rc == 0
        items = assert_envelope(payload, "golden", "cell")
        assert payload["ok"] is True and payload["matched"] > 0
        assert all(i["verdicts"] == {"golden": "matched"} for i in items)

        doc = json.loads(baseline.read_text())
        doc[next(iter(doc))]["num_colors"] += 1
        baseline.write_text(json.dumps(doc))
        rc = main(["check", "golden", "--baseline", str(baseline), "--json"])
        payload = json_out(capsys)
        assert rc == 1
        items = assert_envelope(payload, "golden", "cell")
        assert payload["ok"] is False and payload["drifted"] == 1
        (drifted,) = [i for i in items if i["verdicts"]["golden"] == "drifted"]
        assert drifted["issues"]


class TestCheckFlow:
    def test_all_algorithms_text(self, capsys):
        rc = main(["check", "flow"])
        out = capsys.readouterr().out
        assert rc == 0
        for algo in ("maxmin", "jp", "speculative", "edge-centric"):
            assert f"flow:{algo}" in out
        assert "divergent loop" in out
        assert "algorithms analyzed, ok" in out

    def test_single_algorithm_json(self, capsys):
        rc = main(["check", "flow", "-a", "maxmin", "--json"])
        payload = json_out(capsys)
        assert rc == 0
        assert payload["ok"] is True and payload["unknown_branches"] == 0
        (item,) = assert_envelope(payload, "flow", "algorithm")
        assert item["verdicts"] == {"flow": "ok"}
        (kernel,) = item["detail"]["kernels"]
        assert kernel["summary"]["divergent_loops"] == 1

    def test_graph_prediction_attached(self, capsys):
        rc = main(
            ["check", "flow", "-a", "maxmin", "-g", "rmat", "--scale", "tiny",
             "--json"]
        )
        payload = json_out(capsys)
        assert rc == 0
        assert payload["graph"] == "rmat"
        (item,) = assert_envelope(payload, "flow", "algorithm")
        pred = item["detail"]["prediction"]
        assert pred["imbalance_factor"] >= 1.0
        assert 0.0 < pred["simd_efficiency"] <= 1.0

    def test_prediction_text_line(self, capsys):
        rc = main(["check", "flow", "-a", "jp", "-g", "rmat", "--scale", "tiny"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "predicted on rmat" in out and "imbalance" in out

    def test_wavefront_mapping_skips_uncovered(self, capsys):
        rc = main(["check", "flow", "--mapping", "wavefront"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "flow:maxmin" in out
        assert "jp: no wavefront-mapping kernels (skipped)" in out

    def test_empty_graph_from_file(self, tmp_path, capsys):
        empty = tmp_path / "empty.el"
        empty.write_text("# no edges\n")
        rc = main(["check", "flow", "-a", "maxmin", "-g", str(empty), "--json"])
        payload = json_out(capsys)
        assert rc == 0
        (item,) = assert_envelope(payload, "flow", "algorithm")
        assert item["detail"]["prediction"]["imbalance_factor"] == 1.0

    def test_unknown_algorithm_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "flow", "-a", "nope"])
        assert exc.value.code == 2  # argparse choices rejection


class TestCheckVerify:
    def test_all_algorithms_text(self, capsys):
        rc = main(["check", "verify", "--scale", "tiny"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "kernel bounds proofs" in out
        for algo in ("maxmin", "jp", "speculative", "edge-centric"):
            assert f"verify:{algo}" in out
        assert "cross-check on rmat" in out
        for algo in ("hybrid-switch", "partitioned"):
            assert (
                f"  {algo}: static may-race ['colors'] vs dynamic ['colors']" in out
            )
        assert "DISAGREE" not in out
        assert "repro verify:" in out and "ok" in out

    def test_single_algorithm_json(self, capsys):
        rc = main(["check", "verify", "-a", "speculative", "--scale", "tiny",
                   "--json"])
        payload = json_out(capsys)
        assert rc == 0
        assert payload["ok"] is True
        (item,) = assert_envelope(payload, "verify", "algorithm")
        assert item["algorithm"] == "speculative"
        assert item["verdicts"] == {"memsafe": "ok"}
        assert item["issues"] == []
        entry = item["detail"]
        assert entry["may_race"] == ["colors"] == entry["expected_racy"]
        assert entry["unexpected"] == []
        (row,) = payload["cross_check"]
        assert row["agree"] is True and row["dynamic_findings"] > 0

    def test_graph_none_skips_cross_check(self, capsys):
        rc = main(["check", "verify", "-a", "jp", "-g", "none", "--json"])
        payload = json_out(capsys)
        assert rc == 0
        assert "cross_check" not in payload

    def test_wavefront_mapping(self, capsys):
        rc = main(["check", "verify", "--mapping", "wavefront", "-g", "none"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "verify:maxmin[wavefront]" in out
        assert "jp: no wavefront-mapping kernels (skipped)" in out
        assert "scratch_max" in out

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["check", "verify", "-a", "nope"])
        assert exc.value.code == 2


class TestCheckTypes:
    def test_all_kernels_text(self, capsys):
        rc = main(["check", "types"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "types:maxmin_sweep" in out
        assert "overflow:maxmin_sweep" in out
        assert "all certified" in out

    def test_details_show_ranges(self, capsys):
        rc = main(["check", "types", "-k", "maxmin_sweep", "--details"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "int32 → int64" in out  # implicit widening made explicit
        assert "needs-int64" in out and "m <= 2147483647" in out

    def test_json_envelope(self, capsys):
        rc = main(["check", "types", "--json"])
        payload = json_out(capsys)
        assert rc == 0
        items = assert_envelope(payload, "types", "kernel")
        assert payload["ok"] is True
        by_name = {item["kernel"]: item for item in items}
        assert len(by_name) == 7
        # the CSR offsets are the values the paper's int32 ids can't hold
        assert by_name["maxmin_sweep"]["verdicts"] == {
            "types": "ok",
            "overflow": "needs-int64",
        }
        assert by_name["ec_decide"]["verdicts"] == {
            "types": "ok",
            "overflow": "fits-int32",
        }
        assert all(item["issues"] == [] for item in items)

    def test_unknown_kernel_exits(self):
        with pytest.raises(SystemExit):
            main(["check", "types", "-k", "nope"])


class TestMalformedArguments:
    @pytest.mark.parametrize(
        "argv",
        [
            ["check"],  # missing subcommand
            ["check", "flow", "--scale", "huge"],
            ["check", "flow", "--mapping", "diagonal"],
            ["check", "validate", "--seed", "not-an-int"],
            ["check", "golden", "--no-such-flag"],
            ["check", "lower"],  # no `lower` subcommand, not even a stub
            ["db", "ingest"],  # verdicts are recorded only through the store
        ],
    )
    def test_argparse_exits_with_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


class TestColorValidateFlag:
    def test_color_validate_passes(self, capsys):
        rc = main(
            ["color", "rmat", "--scale", "tiny", "-a", "speculative", "--validate"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "run:speculative: ok" in out
