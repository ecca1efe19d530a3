#!/usr/bin/env python3
"""Run one benchmark workload (or all of them) and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload rmat-maxmin --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py                      # every workload, untraced
    python3 perfbench/run.py --write-manifest     # regenerate BENCHMARK.json

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics; with ``--trace 1`` it carries the per-layer
metrics instead. The exit code is 0 only when every output was correct
and every self-check held. See ``perfbench/README.md`` for the design.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from drive import Outcome, run_coloring, run_served  # noqa: E402
from workloads import END_TO_END, LAYERS, PER_LAYER, RUN_SECONDS, WORKLOADS, manifest  # noqa: E402


def isolate_env() -> None:
    """Keep the run off every store, cache and hook the environment names."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["REPRO_RUN_STORE"] = "off"
    # a fixed revision: rows must not depend on the checkout being a git repo
    os.environ["REPRO_GIT_REV"] = "perfbench"


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Outcome:
    w = WORKLOADS[name]
    if w.kind == "coloring":
        return run_coloring(w, seed, seconds, trace)
    base = ROOT / ".perfbench-tmp"
    base.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=base))
    try:
        return run_served(w, seed, seconds, trace, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass  # another run still uses it


def result_line(out: Outcome, trace: bool) -> dict:
    """The contract's JSON object for one run."""
    specs = PER_LAYER if trace else END_TO_END
    return {
        "correct": out.failed == 0 and not out.broken,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {
            m["name"]: {"value": out.metrics[m["name"]], "unit": m["unit"]}
            for m in specs
            if m["name"] in out.metrics
        },
    }


def report(name: str, seed: int, trace: bool, out: Outcome) -> None:
    """Human-readable summary; the JSON line follows it."""
    w = WORKLOADS[name]
    print(f"workload {name} (seed {seed}, {'traced' if trace else 'untraced'})")
    for mapping, schedule, fields in w.configs:
        knobs = " ".join(f"{k}={v}" for k, v in fields.items())
        print(
            f"  {','.join(w.algorithms)} on {','.join(w.datasets)} @ {w.scale}: "
            f"mapping={mapping} schedule={schedule} {knobs} device={w.device} "
            f"backend={w.backend} {w.algo_kwargs or ''}"
        )
    if out.identity:
        recorded = w.identities.get(seed)
        state = "no recorded identity for this seed"
        if recorded is not None:
            state = "matches the recorded one" if recorded == out.identity else "MISMATCH"
        print(f"  identity {out.identity} ({out.identity_note}; {state})")
    print(f"  operations: {out.attempted} attempted, {out.failed} failed "
          f"(failed_frac {out.failed / max(out.attempted, 1):.4f})")
    for m in PER_LAYER if trace else END_TO_END:
        if m["name"] in out.metrics:
            print(f"  {m['name']:<24} {out.metrics[m['name']]:>16.6g} {m['unit']}")
    if trace and out.layers:
        wall = sum(out.layers.values())
        print("  layer self time per operation (share of the traced wall):")
        for layer in (*LAYERS, "probe"):
            s = out.layers[layer]
            print(f"    {layer:<9} {s:10.4f} s  {s / wall if wall else 0.0:7.1%}")
        print(f"  traced vs untraced: {out.metrics['trace_overhead_frac']:+.1%}")
    for problem in out.problems:
        print(f"  FAILED: {problem}")
    for problem in out.broken:
        print(f"  CHECK FAILED: {problem}")


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, so peak memory stays its own."""
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload", name,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ],
            check=False,
        )
        status = status or proc.returncode
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-manifest", action="store_true", help="write BENCHMARK.json and exit"
    )
    args = parser.parse_args(argv)
    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest(), indent=2) + "\n")
        return 0

    isolate_env()
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import repro from {src}: {exc}", file=sys.stderr)
        return 2
    if not Path(repro.__file__).resolve().is_relative_to(src):
        # an installed copy would be measured instead of this checkout
        print(f"perfbench: repro resolves to {repro.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    trace = bool(args.trace)
    out = run_workload(args.workload, args.seed, args.seconds, trace)
    report(args.workload, args.seed, trace, out)
    line = result_line(out, trace)
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
