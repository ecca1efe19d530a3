"""Experiment records — paper claim vs. measured outcome.

Each benchmark produces an :class:`ExperimentRecord` tying a
reconstructed paper artifact (table/figure) to the measured result and a
pass/fail verdict on the *shape* criterion (who wins, by what rough
factor). ``EXPERIMENTS.md`` is assembled from these records.

Benches record verdicts only in the sqlite run database
(:mod:`repro.store`); :func:`records_from_store` reads them back as
plain :class:`ExperimentRecord` views. ``scripts/render_experiments.py``
folds the newest ones into the committed
``benchmarks/results/experiments.json`` and renders the table from it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ..store.db import RunStore

__all__ = [
    "ExperimentRecord",
    "render_markdown",
    "records_from_store",
]


@dataclass
class ExperimentRecord:
    """One experiment's reproduction outcome."""

    experiment_id: str  # e.g. "E6"
    paper_artifact: str  # e.g. "Fig: work-stealing speedup per graph"
    paper_claim: str  # the qualitative/quantitative claim being reproduced
    measured: str  # what this run measured
    shape_holds: bool  # did the qualitative shape reproduce?
    details: dict[str, object] = field(default_factory=dict)

    @classmethod
    def from_store_row(cls, row: dict[str, object]) -> "ExperimentRecord":
        """View one ``experiments`` table row as a record."""
        details = row.get("details", "{}")
        if isinstance(details, str):
            details = json.loads(details or "{}")
        return cls(
            experiment_id=str(row["experiment_id"]),
            paper_artifact=str(row.get("paper_artifact", "")),
            paper_claim=str(row.get("paper_claim", "")),
            measured=str(row.get("measured", "")),
            shape_holds=bool(row.get("shape_holds")),
            details=dict(details),
        )

    def as_row(self) -> dict[str, object]:
        return {
            "id": self.experiment_id,
            "artifact": self.paper_artifact,
            "claim": self.paper_claim,
            "measured": self.measured,
            "shape": "holds" if self.shape_holds else "DIVERGES",
        }


def records_from_store(
    store: "RunStore", *, scale: str | None = None
) -> list[ExperimentRecord]:
    """The newest verdict per experiment id, as record views.

    ``scripts/render_experiments.py`` overlays these on the committed
    verdicts before it renders ``EXPERIMENTS.md``.
    """
    return [
        ExperimentRecord.from_store_row(row)
        for row in store.experiments(scale=scale)
    ]


def render_markdown(records: list[ExperimentRecord]) -> str:
    """Render records as the EXPERIMENTS.md body."""
    lines = [
        "| Exp | Paper artifact | Paper claim | Measured | Shape |",
        "|-----|----------------|-------------|----------|-------|",
    ]
    for r in sorted(records, key=lambda r: r.experiment_id):
        shape = "✅ holds" if r.shape_holds else "❌ diverges"
        lines.append(
            f"| {r.experiment_id} | {r.paper_artifact} | {r.paper_claim} "
            f"| {r.measured} | {shape} |"
        )
    return "\n".join(lines)
