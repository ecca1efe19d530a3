"""``scripts/render_experiments.py``: the committed verdicts render EXPERIMENTS.md."""

import importlib.util
import json
import shutil
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.analysis.experiment import ExperimentRecord
from repro.store import Recorder

REPO = Path(__file__).resolve().parent.parent
SCRIPT = REPO / "scripts" / "render_experiments.py"
VERDICTS = Path("benchmarks/results/experiments.json")
DOC = Path("EXPERIMENTS.md")


@pytest.fixture(scope="module")
def render():
    spec = importlib.util.spec_from_file_location("render_experiments", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def checkout(tmp_path, monkeypatch):
    """A copy of the committed EXPERIMENTS.md and verdicts, as the cwd."""
    (tmp_path / VERDICTS).parent.mkdir(parents=True)
    shutil.copy(REPO / VERDICTS, tmp_path / VERDICTS)
    shutil.copy(REPO / DOC, tmp_path / DOC)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_check_passes_on_the_committed_files():
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--check"],
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_check_opens_no_store(render, checkout):
    assert render.main(["--check"]) == 0
    assert list(checkout.rglob("*.sqlite")) == []


def test_check_fails_on_an_edited_measured_cell(render, checkout):
    measured = json.loads(VERDICTS.read_text())[0]["measured"]
    text = DOC.read_text()
    assert text.count(f"| {measured} |") == 1
    DOC.write_text(text.replace(f"| {measured} |", "| edited |"))
    assert render.main(["--check"]) == 1


def test_write_mode_without_a_store_changes_nothing(render, checkout):
    before = {p: p.read_bytes() for p in (VERDICTS, DOC)}
    assert render.main([]) == 0
    assert {p: p.read_bytes() for p in before} == before
    assert list(checkout.rglob("*.sqlite")) == []


def test_write_mode_takes_the_stores_newest_verdict(render, checkout):
    entries_before = json.loads(VERDICTS.read_text())
    lines_before = DOC.read_text().splitlines()
    new = ExperimentRecord(
        experiment_id="E6",
        paper_artifact="Fig: work stealing",
        paper_claim="claim",
        measured="a new measurement",
        shape_holds=False,
        details={"ratio": 2.5},
    )
    with Recorder(str(checkout / "runs.sqlite"), git_rev="t", scale="small") as rec:
        rec.record_experiment(new)
    assert render.main(["--store", "runs.sqlite"]) == 0

    entries_after = json.loads(VERDICTS.read_text())
    assert [e["experiment_id"] for e in entries_after] == [
        e["experiment_id"] for e in entries_before
    ]
    changed = [a for b, a in zip(entries_before, entries_after) if a != b]
    assert changed == [asdict(new)]

    lines_after = DOC.read_text().splitlines()
    assert len(lines_after) == len(lines_before)
    changed_lines = [a for b, a in zip(lines_before, lines_after) if a != b]
    assert len(changed_lines) == 1
    assert changed_lines[0].startswith("| E6 |")
    assert "a new measurement" in changed_lines[0]
    assert render.main(["--check"]) == 0
