"""Unit tests for job specs: normalization, expansion, dedup digest."""

import pytest

from repro.serve.model import (
    SpecError,
    expand_spec,
    normalize_spec,
    spec_digest,
)


class TestNormalize:
    def test_color_defaults_filled(self):
        spec = normalize_spec({"kind": "color", "dataset": "rmat"})
        assert spec["scale"] == "tiny"
        assert spec["algorithm"] == "maxmin"
        assert spec["mapping"] == "thread"
        assert spec["schedule"] == "grid"
        assert spec["seed"] == 0
        assert spec["device"] == "hd7950"
        assert spec["config"] == {}

    def test_equal_work_normalizes_identically(self):
        terse = normalize_spec({"kind": "color", "dataset": "rmat"})
        explicit = normalize_spec(
            {
                "kind": "color",
                "dataset": "rmat",
                "scale": "tiny",
                "algorithm": "maxmin",
                "mapping": "thread",
                "schedule": "grid",
                "seed": 0,
                "device": "hd7950",
            }
        )
        assert terse == explicit
        assert spec_digest(terse) == spec_digest(explicit)

    @pytest.mark.parametrize(
        "raw,match",
        [
            ([], "must be an object"),
            ({"kind": "yolo"}, "job kind"),
            ({"kind": "color"}, "needs 'dataset'"),
            ({"kind": "color", "dataset": "nope"}, "unknown dataset"),
            ({"kind": "color", "dataset": "rmat", "scale": "x"}, "scale"),
            ({"kind": "color", "dataset": "rmat", "seed": "a"}, "seed"),
            (
                {"kind": "color", "dataset": "rmat", "algorithm": "x"},
                "algorithm",
            ),
            (
                {"kind": "color", "dataset": "rmat", "config": 3},
                "config must be an object",
            ),
            ({"kind": "sweep", "dataset": "rmat"}, "needs 'values'"),
            (
                {"kind": "sweep", "dataset": "rmat", "values": []},
                "non-empty list",
            ),
            ({"kind": "batch", "datasets": []}, "non-empty list"),
            ({"kind": "pipeline", "pipeline": "nope"}, "pipeline"),
            ({"kind": "pipeline", "pipeline": 7}, "built-in name"),
            (
                {
                    "kind": "sweep",
                    "dataset": "rmat",
                    "parameter": "workgroup_size",
                    "values": [128, 512, 100],
                },
                "cell rmat:workgroup_size=512: workgroup_size exceeds device limit",
            ),
            (
                {"kind": "color", "dataset": "rmat", "config": {"chunk_size": 100}},
                "cell rmat/maxmin:thread\\+grid: chunk_size must be",
            ),
            (
                {
                    "kind": "color",
                    "dataset": "rmat",
                    "config": {"chunk_size": 100, "bogus": 1},
                },
                "cell rmat/maxmin:thread\\+grid: .*bogus",
            ),
        ],
    )
    def test_malformed_specs_raise(self, raw, match):
        with pytest.raises(SpecError, match=match):
            normalize_spec(raw)

    def test_batch_all_expands(self):
        spec = normalize_spec(
            {"kind": "batch", "datasets": "all", "algorithms": "all"}
        )
        assert len(spec["datasets"]) >= 5
        assert "maxmin" in spec["algorithms"]

    def test_pipeline_builtin_accepted(self):
        spec = normalize_spec({"kind": "pipeline", "pipeline": "report-smoke"})
        assert spec["pipeline"] == "report-smoke"


class TestExpand:
    def test_color_is_one_cell_tagged_serve(self):
        plan = expand_spec(normalize_spec({"kind": "color", "dataset": "rmat"}))
        assert plan.num_cells == 1
        assert [src for src, _ in plan.groups] == ["serve"]
        assert plan.cells[0].dataset == "rmat"

    def test_sweep_one_cell_per_value(self):
        plan = expand_spec(
            normalize_spec(
                {
                    "kind": "sweep",
                    "dataset": "rmat",
                    "parameter": "chunk_size",
                    "values": [256, 512, 1024],
                }
            )
        )
        assert plan.num_cells == 3
        assert [c.config["chunk_size"] for c in plan.cells] == [256, 512, 1024]

    def test_workgroup_sweep_floors_chunk_size(self):
        # mirrors the CLI: small workgroups still get a sane chunk size
        plan = expand_spec(
            normalize_spec(
                {
                    "kind": "sweep",
                    "dataset": "rmat",
                    "parameter": "workgroup_size",
                    "values": [64],
                }
            )
        )
        assert plan.cells[0].config["chunk_size"] == 256

    def test_batch_is_cross_product(self):
        plan = expand_spec(
            normalize_spec(
                {
                    "kind": "batch",
                    "datasets": ["rmat", "road"],
                    "algorithms": ["maxmin", "jp"],
                }
            )
        )
        assert plan.num_cells == 4

    def test_pipeline_groups_keep_step_source_tags(self):
        plan = expand_spec(
            normalize_spec({"kind": "pipeline", "pipeline": "report-smoke"})
        )
        assert plan.num_cells > 0
        for source, _ in plan.groups:
            assert source.startswith("pipeline:report-smoke/")


class TestDigest:
    def test_digest_ignores_spec_field_order(self):
        a = spec_digest(normalize_spec({"kind": "color", "dataset": "rmat"}))
        b = spec_digest(
            normalize_spec({"dataset": "rmat", "kind": "color", "seed": 0})
        )
        assert a == b

    def test_digest_sees_work_differences(self):
        base = {"kind": "color", "dataset": "rmat"}
        ref = spec_digest(normalize_spec(base))
        for delta in (
            {"dataset": "road"},
            {"seed": 1},
            {"scale": "small"},
            {"algorithm": "jp"},
            {"config": {"chunk_size": 512}},
            {"device": "r9-290x"},
        ):
            other = spec_digest(normalize_spec({**base, **delta}))
            assert other != ref, delta
