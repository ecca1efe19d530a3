"""Pinned run digests for the mappings the golden matrix leaves out.

``DEFAULT_GOLDEN_MATRIX`` runs the thread mapping only. These pins
cover the wavefront and hybrid plan paths: every GPU algorithm under
each of them and every schedule, on two tiny suite graphs. rmat has
vertices above the hybrid degree threshold, so its hybrid runs split
each sweep into lane and cooperative work; powerlaw's do not.

``tests/data/golden_mappings.json`` was written with
:func:`~repro.check.determinism.save_golden` from this module's
:func:`mapping_digests`; a drift names the cells and fields that moved.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.check.determinism import check_drift, golden_digests, load_golden

PINS = Path(__file__).parent.parent / "data" / "golden_mappings.json"

DATASETS = ("rmat", "powerlaw")
ALGORITHMS = ("maxmin", "jp", "speculative", "hybrid-switch", "edge-centric", "partitioned")
SCHEDULES = ("grid", "static", "dynamic", "stealing")


def mapping_digests(mapping: str):
    matrix = tuple(
        (dataset, algorithm, schedule)
        for dataset in DATASETS
        for algorithm in ALGORITHMS
        for schedule in SCHEDULES
    )
    return golden_digests(matrix, scale="tiny", mapping=mapping)


@pytest.mark.parametrize("mapping", ["wavefront", "hybrid"])
def test_mapping_digests_match_the_pins(mapping):
    pinned = [d for d in load_golden(PINS) if f":{mapping}+" in d.key]
    report = check_drift(pinned, mapping_digests(mapping))
    assert report.ok, report.summary()
    assert report.matched == len(DATASETS) * len(ALGORITHMS) * len(SCHEDULES)


def test_pins_exercise_stealing():
    stolen = [d.key for d in load_golden(PINS) if d.steals_succeeded]
    assert any(":wavefront+stealing" in key for key in stolen)
