"""Smoke test of the benchmark itself, at tiny scale with short runs.

Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
from drive import run_coloring, run_served  # noqa: E402
from workloads import END_TO_END, PER_LAYER, WORKLOADS, manifest  # noqa: E402


@pytest.fixture(autouse=True)
def _isolated(monkeypatch):
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        monkeypatch.delenv(key)
    monkeypatch.setenv("REPRO_RUN_STORE", "off")
    monkeypatch.setenv("REPRO_GIT_REV", "perfbench")


def _tiny(name: str, **changes):
    return dataclasses.replace(WORKLOADS[name], scale="tiny", **changes)


def _run(w, trace: bool, tmp_path: Path, seed: int = 0):
    if w.kind == "coloring":
        return run_coloring(w, seed, 0.2, trace)
    return run_served(w, seed, 0.2, trace, tmp_path)


def test_manifest_is_committed_and_within_limits():
    doc = manifest()
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == doc
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(name.match(n) for n in names)
    assert all(len(w["why"]) <= 200 for w in doc["workloads"])
    assert all(unit.match(m["unit"]) for m in doc["end_to_end"] + doc["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in doc["end_to_end"]


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(name, trace, tmp_path):
    out = _run(_tiny(name, identities={}), trace, tmp_path)
    line = run.result_line(out, trace)
    assert line["correct"], out.problems + out.broken
    assert line["attempted"] >= 2 and line["failed"] == 0
    specs = PER_LAYER if trace else END_TO_END
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in specs
    }
    if not trace:
        assert all(v["value"] > 0 for v in line["metrics"].values())
    assert out.identity


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_identity_check_fires_on_a_wrong_digest(name, tmp_path):
    out = _run(_tiny(name, identities={0: "0" * 16}), False, tmp_path)
    assert out.failed >= 1
    assert any("identity" in p for p in out.problems)
    assert run.result_line(out, False)["correct"] is False


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rmat-maxmin",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
