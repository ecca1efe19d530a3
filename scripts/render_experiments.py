#!/usr/bin/env python
"""Regenerate the EXPERIMENTS.md summary table from the experiment verdicts.

The table between the ``<!-- summary:begin -->`` / ``<!-- summary:end -->``
markers is generated from ``benchmarks/results/experiments.json``, the
committed verdict of every experiment. Run after a benchmark session::

    PYTHONPATH=src python scripts/render_experiments.py

Write mode overlays the run store's newest verdict per experiment id
(``repro.analysis.experiment.records_from_store``) on the committed
file, then writes both the JSON file and the table: re-running one
bench updates one entry, and a fresh checkout without a store still
renders. ``--check`` reads only the JSON file and opens no store.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.analysis.experiment import (  # noqa: E402
    ExperimentRecord,
    records_from_store,
    render_markdown,
)

BEGIN = "<!-- summary:begin -->"
END = "<!-- summary:end -->"

#: the committed verdicts, relative to the repository root.
VERDICTS = Path("benchmarks/results/experiments.json")


def splice(doc: str, table: str) -> str:
    """Replace the marked region of ``doc`` with ``table``."""
    try:
        head, rest = doc.split(BEGIN, 1)
        _, tail = rest.split(END, 1)
    except ValueError:
        raise SystemExit(
            f"error: EXPERIMENTS.md lacks the {BEGIN} / {END} markers"
        ) from None
    return f"{head}{BEGIN}\n{table}\n{END}{tail}"


def load_verdicts(path: Path) -> dict[str, ExperimentRecord]:
    """The committed verdicts by experiment id (empty if ``path`` is absent)."""
    if not path.exists():
        return {}
    return {
        d["experiment_id"]: ExperimentRecord(**d)
        for d in json.loads(path.read_text())
    }


def dump_verdicts(records: list[ExperimentRecord], path: Path) -> None:
    """Write ``records`` as a JSON list sorted by experiment id."""
    doc = [asdict(r) for r in sorted(records, key=lambda r: r.experiment_id)]
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--store",
        default="benchmarks/results/runs.sqlite",
        help="run database whose newest verdicts update the JSON file",
    )
    parser.add_argument(
        "--output",
        default="EXPERIMENTS.md",
        help="markdown file with the summary markers",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit 1 if the file would change (CI mode), write nothing",
    )
    args = parser.parse_args(argv)

    verdicts = load_verdicts(VERDICTS)
    store_path = Path(args.store)
    if not args.check and store_path.exists():
        from repro.store import RunStore

        with RunStore(store_path) as store:
            for rec in records_from_store(store):
                verdicts[rec.experiment_id] = rec
    if not verdicts:
        raise SystemExit(f"error: no experiment verdicts in {VERDICTS}")
    records = list(verdicts.values())
    table = render_markdown(records)

    out = Path(args.output)
    doc = out.read_text()
    updated = splice(doc, table)
    if args.check:
        if updated != doc:
            print(f"{out} is stale; rerun scripts/render_experiments.py")
            return 1
        print(f"{out} is up to date ({len(records)} experiments)")
        return 0
    dump_verdicts(records, VERDICTS)
    out.write_text(updated)
    print(f"rendered {len(records)} experiment rows -> {VERDICTS}, {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
