"""Invariant validators — collect violations instead of raising.

Three families, all producing the same :class:`Report` shape:

* **Coloring** (:func:`validate_coloring`): the claimed coloring is
  proper (no monochromatic edge), complete (unless allowed), within the
  greedy bound (≤ max_degree + 1 colors), and uses a dense color range.
* **CSR structure** (:func:`validate_csr`): monotone ``indptr``,
  in-range sorted duplicate-free neighbor lists, no self-loops,
  symmetric adjacency — the invariants every kernel assumes.
* **Scheduler / trace** (:func:`validate_trace`,
  :func:`validate_dispatch`): no compute pipe is committed past the
  makespan, the tracer's cycle axis is monotone and overlap-free,
  wall-clock phase spans nest properly, and simulator instants land
  inside a kernel interval.

:func:`validate_run` bundles the applicable checks for one finished
:class:`~repro.coloring.base.ColoringResult` — this is what the
``--validate`` flags on the runner, batch, and CLI call. Validators are
strictly read-only: a validated run stays cycle-identical to an
unvalidated one.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from ..coloring.base import UNCOLORED, _directed_conflicts, conflicting_edges
from ..graphs.csr import CSRGraph
from ..obs.events import CYCLES, WALL, TraceEvent

if TYPE_CHECKING:
    from ..coloring.base import ColoringResult
    from ..gpusim.device import DeviceConfig

__all__ = [
    "Issue",
    "Report",
    "CheckFailedError",
    "MAXMIN_FAMILY",
    "validate_coloring",
    "validate_csr",
    "validate_dispatch",
    "validate_trace",
    "validate_run",
]

#: float-comparison slack for cycle timestamps (cursor arithmetic).
_EPS = 1e-6

#: ``ColoringResult.algorithm`` values of the max-min family: two
#: independent sets (colors ``2k``/``2k + 1``) per round, so the palette
#: bound is ``max(max_degree + 1, 2 * rounds)`` — the first-fit
#: ``max_degree + 1`` alone does not hold on adversarial inputs.
MAXMIN_FAMILY = frozenset({"maxmin", "edge-centric-maxmin", "hybrid-switch"})


class CheckFailedError(AssertionError):
    """Raised by :meth:`Report.raise_on_error` when errors were found."""

    def __init__(self, report: "Report") -> None:
        super().__init__(report.summary())
        self.report = report


@dataclass(frozen=True)
class Issue:
    """One violated (or suspicious) invariant."""

    rule: str  # dotted id, e.g. "coloring.conflict"
    severity: str  # "error" | "warning"
    message: str
    context: dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        return f"[{self.severity}] {self.rule}: {self.message}"


@dataclass
class Report:
    """Outcome of one validation pass: every issue found, not just the first."""

    subject: str
    issues: list[Issue] = field(default_factory=list)
    checks_run: int = 0

    @property
    def errors(self) -> list[Issue]:
        return [i for i in self.issues if i.severity == "error"]

    @property
    def warnings(self) -> list[Issue]:
        return [i for i in self.issues if i.severity == "warning"]

    @property
    def ok(self) -> bool:
        """True when no *error*-severity issue was recorded."""
        return not self.errors

    def error(self, rule: str, message: str, **context: Any) -> None:
        self.issues.append(Issue(rule, "error", message, context))

    def warn(self, rule: str, message: str, **context: Any) -> None:
        self.issues.append(Issue(rule, "warning", message, context))

    def passed(self, count: int = 1) -> None:
        """Count invariant checks that ran (pass or fail) for reporting."""
        self.checks_run += count

    def merge(self, other: "Report") -> "Report":
        self.issues.extend(other.issues)
        self.checks_run += other.checks_run
        return self

    def summary(self) -> str:
        status = "ok" if self.ok else "FAILED"
        head = (
            f"{self.subject}: {status} ({self.checks_run} checks, "
            f"{len(self.errors)} errors, {len(self.warnings)} warnings)"
        )
        lines = [head] + [f"  {issue}" for issue in self.issues]
        return "\n".join(lines)

    def raise_on_error(self) -> "Report":
        if not self.ok:
            raise CheckFailedError(self)
        return self


# ----------------------------------------------------------------------
# coloring invariants
# ----------------------------------------------------------------------


def validate_coloring(
    graph: CSRGraph,
    colors: np.ndarray,
    *,
    allow_uncolored: bool = False,
    max_colors: int | None = None,
    max_examples: int = 5,
) -> Report:
    """Validate a claimed coloring against ``graph``.

    Checks: array shape; no color below the ``UNCOLORED`` sentinel;
    completeness (unless ``allow_uncolored``); no monochromatic edge;
    the palette bound; density of the used color range (gaps are a
    warning — legal, but no bundled algorithm produces them).

    ``max_colors`` overrides the default palette bound of
    ``max_degree + 1``. The default is the first-fit-family guarantee
    (jp, speculative, partitioned); the max-min family spends two colors
    per round, so its true bound is ``max(max_degree + 1, 2 * rounds)``
    and can exceed the default on adversarial inputs (e.g. a
    descending-priority path).
    """
    rep = Report(subject="coloring")
    arr = np.asarray(colors)
    rep.passed()
    if arr.shape != (graph.num_vertices,):
        rep.error(
            "coloring.shape",
            f"colors has shape {arr.shape}, expected ({graph.num_vertices},)",
        )
        return rep
    arr = arr.astype(np.int64, copy=False)

    rep.passed()
    below = np.flatnonzero(arr < UNCOLORED)
    if below.size:
        rep.error(
            "coloring.sentinel",
            f"{below.size} colors below the UNCOLORED sentinel",
            vertices=below[:max_examples].tolist(),
        )

    rep.passed()
    uncolored = np.flatnonzero(arr == UNCOLORED)
    if uncolored.size and not allow_uncolored:
        rep.error(
            "coloring.incomplete",
            f"{uncolored.size} vertices left uncolored",
            vertices=uncolored[:max_examples].tolist(),
        )

    rep.passed()
    n_bad = _directed_conflicts(graph, arr) // 2
    if n_bad:
        u, v = (side[:max_examples] for side in conflicting_edges(graph, arr))
        rep.error(
            "coloring.conflict",
            f"{n_bad} monochromatic edges",
            edges=[(int(a), int(b), int(arr[a])) for a, b in zip(u, v)],
        )

    used = np.unique(arr[arr != UNCOLORED])
    rep.passed()
    bound = graph.max_degree + 1 if max_colors is None else int(max_colors)
    label = "max_degree + 1" if max_colors is None else "max_colors"
    if used.size > bound:
        rep.error(
            "coloring.bound",
            f"{used.size} colors used, exceeds {label} = {bound}",
            colors=int(used.size),
            bound=bound,
        )
    rep.passed()
    if used.size and int(used[-1]) != used.size - 1:
        rep.warn(
            "coloring.gaps",
            f"color ids not dense: {used.size} colors but max id {int(used[-1])}",
        )
    return rep


# ----------------------------------------------------------------------
# CSR structure
# ----------------------------------------------------------------------


def validate_csr(
    graph: CSRGraph | tuple[np.ndarray, np.ndarray],
    *,
    max_examples: int = 5,
) -> Report:
    """Validate CSR structural invariants on a graph or raw array pair.

    Accepts either a built :class:`CSRGraph` (re-checks invariants the
    constructor may have skipped with ``validate=False``) or a raw
    ``(indptr, indices)`` tuple straight from an untrusted loader.
    """
    rep = Report(subject="csr")
    if isinstance(graph, CSRGraph):
        indptr, indices = graph.indptr, graph.indices
    else:
        indptr, indices = graph
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)

    rep.passed()
    if indptr.ndim != 1 or indptr.size == 0:
        rep.error("csr.indptr", "indptr must be 1-D with length n + 1")
        return rep
    n = indptr.size - 1

    rep.passed()
    if indptr[0] != 0:
        rep.error("csr.indptr", f"indptr[0] is {int(indptr[0])}, expected 0")
    rep.passed()
    if indptr[-1] != indices.size:
        rep.error(
            "csr.indptr",
            f"indptr[-1] is {int(indptr[-1])}, expected len(indices) = {indices.size}",
        )
    rep.passed()
    drops = np.flatnonzero(np.diff(indptr) < 0)
    if drops.size:
        rep.error(
            "csr.indptr",
            f"indptr decreases at {drops.size} rows",
            rows=drops[:max_examples].tolist(),
        )
        return rep  # row slicing below would be nonsense

    rep.passed()
    if indices.size and (indices.min() < 0 or indices.max() >= n):
        out = np.flatnonzero((indices < 0) | (indices >= n))
        rep.error(
            "csr.range",
            f"{out.size} neighbor indices out of [0, {n})",
            positions=out[:max_examples].tolist(),
        )
        return rep

    owner = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    rep.passed()
    loops = np.flatnonzero(owner == indices)
    if loops.size:
        rep.error(
            "csr.selfloop",
            f"{loops.size} self-loop entries",
            vertices=owner[loops[:max_examples]].tolist(),
        )

    rep.passed()
    if indices.size > 1:
        # Within one row, indices must strictly increase; a non-rise is
        # legal only exactly at a row boundary.
        rises = np.flatnonzero(np.diff(indices.astype(np.int64)) <= 0) + 1
        unsorted = rises[~np.isin(rises, indptr[1:-1])] if rises.size else rises
        if unsorted.size:
            rep.error(
                "csr.sorted",
                f"{unsorted.size} positions break sorted/duplicate-free rows",
                positions=unsorted[:max_examples].tolist(),
            )

    rep.passed()
    key_fwd = owner * n + indices.astype(np.int64)
    key_rev = indices.astype(np.int64) * n + owner
    if not np.array_equal(np.sort(key_fwd), np.sort(key_rev)):
        missing = np.setdiff1d(key_fwd, key_rev)
        rep.error(
            "csr.symmetry",
            f"adjacency asymmetric: {missing.size} one-way entries",
            edges=[(int(k // n), int(k % n)) for k in missing[:max_examples]],
        )
    return rep


# ----------------------------------------------------------------------
# scheduler / trace invariants
# ----------------------------------------------------------------------


def validate_dispatch(
    cu_busy: np.ndarray,
    makespan_cycles: float,
    *,
    num_cus: int | None = None,
) -> Report:
    """One dispatch outcome: no pipe over-committed, busy totals sane."""
    rep = Report(subject="dispatch")
    busy = np.asarray(cu_busy, dtype=np.float64).ravel()
    rep.passed()
    if num_cus is not None and busy.size != num_cus:
        rep.error(
            "sched.pipes",
            f"{busy.size} busy entries for a {num_cus}-CU device",
        )
    rep.passed()
    if busy.size and busy.min() < 0:
        rep.error("sched.negative", "negative per-CU busy cycles")
    rep.passed()
    over = np.flatnonzero(busy > makespan_cycles * (1 + _EPS) + _EPS)
    if over.size:
        rep.error(
            "sched.overcommit",
            f"{over.size} CUs busy past the makespan "
            f"({float(busy.max()):.1f} > {makespan_cycles:.1f})",
            cus=over[:5].tolist(),
        )
    return rep


def _check_span_nesting(rep: Report, spans: Sequence[TraceEvent]) -> None:
    """Wall-domain phase spans must be disjoint or strictly nested."""
    rep.passed()
    # Sweep in (start, -end) order; a span must close before any span
    # that opened before it closes (LIFO). Equal starts sort longer-first
    # so a zero-length child never appears to straddle its parent.
    order = sorted(spans, key=lambda e: (e.ts, -e.end))
    stack: list[TraceEvent] = []
    for ev in order:
        while stack and stack[-1].end <= ev.ts + _EPS:
            stack.pop()
        if stack and ev.end > stack[-1].end + _EPS:
            rep.error(
                "trace.nesting",
                f"span {ev.name!r} [{ev.ts:.1f}, {ev.end:.1f}] overlaps "
                f"{stack[-1].name!r} [{stack[-1].ts:.1f}, {stack[-1].end:.1f}] "
                "without nesting",
            )
            return
        stack.append(ev)


def validate_trace(
    events: Iterable[TraceEvent],
    *,
    device: "DeviceConfig | None" = None,
) -> Report:
    """Validate a captured event stream (ring buffer, JSONL, ...).

    Checks, in event order: the simulator's cycle axis is monotone with
    non-overlapping kernel intervals; scheduler summaries never report a
    CU utilization above 1 (over-commit) or a device mismatch; cycle-
    domain instants fall inside some kernel interval (orphans warn —
    a trailing failed steal can land past its kernel's makespan); wall
    phase spans nest properly; durations are non-negative.
    """
    rep = Report(subject="trace")
    evs = list(events)
    rep.passed()
    if not evs:
        rep.warn("trace.empty", "no events to validate")
        return rep

    kernels = [e for e in evs if e.cat == "kernel" and e.domain == CYCLES]
    rep.passed()
    prev: TraceEvent | None = None
    for ev in kernels:
        if ev.dur < 0:
            rep.error("trace.duration", f"kernel {ev.name!r} has negative duration")
        if prev is not None and ev.ts < prev.end - _EPS:
            rep.error(
                "trace.monotone",
                f"kernel {ev.name!r} starts at {ev.ts:.1f}, before "
                f"{prev.name!r} ends at {prev.end:.1f}",
            )
        prev = ev

    rep.passed()
    for ev in evs:
        if ev.cat != "sched":
            continue
        util = ev.args.get("cu_utilization")
        if util is not None and float(util) > 1.0 + _EPS:
            rep.error(
                "sched.overcommit",
                f"{ev.name!r} reports CU utilization {float(util):.3f} > 1",
            )
        if util is not None and float(util) < -_EPS:
            rep.error("sched.overcommit", f"{ev.name!r} reports negative utilization")
        cus = ev.args.get("cus")
        if device is not None and cus is not None and int(cus) != device.num_cus:
            rep.error(
                "sched.device",
                f"{ev.name!r} dispatched on {int(cus)} CUs; device has "
                f"{device.num_cus}",
            )

    # Cycle-domain instants should nest inside a kernel interval. The
    # tracer emits instants *before* their enclosing kernel event, so
    # containment, not ordering, is the invariant.
    rep.passed()
    if kernels:
        starts = np.array([k.ts for k in kernels])
        ends = np.array([k.end for k in kernels])
        orphans = 0
        for ev in evs:
            if ev.domain != CYCLES or ev.ph != "i":
                continue
            inside = bool(np.any((starts - _EPS <= ev.ts) & (ev.ts <= ends + _EPS)))
            if not inside:
                orphans += 1
        if orphans:
            rep.warn(
                "trace.orphan",
                f"{orphans} cycle-domain instants outside any kernel interval",
            )

    spans = [e for e in evs if e.domain == WALL and e.ph == "X"]
    if spans:
        _check_span_nesting(rep, spans)
    return rep


# ----------------------------------------------------------------------
# run-level bundle
# ----------------------------------------------------------------------


def _result_consistency(graph: CSRGraph, result: "ColoringResult") -> Report:
    """Cross-check a result's iteration history against itself."""
    rep = Report(subject=f"result:{result.algorithm}")
    rep.passed()
    if result.total_cycles < 0:
        rep.error("result.cycles", "negative total_cycles")
    iter_cycles = sum(it.cycles for it in result.iterations)
    rep.passed()
    if result.iterations and iter_cycles > result.total_cycles * (1 + 1e-9) + _EPS:
        rep.error(
            "result.cycles",
            f"iteration cycles sum to {iter_cycles:.1f} > total "
            f"{result.total_cycles:.1f}",
        )
    rep.passed()
    for it in result.iterations:
        if it.active_vertices < 0 or it.newly_colored < 0:
            rep.error("result.iterations", f"negative counts in iteration {it.index}")
        elif it.newly_colored > it.active_vertices:
            rep.error(
                "result.iterations",
                f"iteration {it.index} colored {it.newly_colored} of only "
                f"{it.active_vertices} active vertices",
            )
    rep.passed()
    claimed = sum(it.newly_colored for it in result.iterations)
    if result.iterations and claimed > graph.num_vertices:
        rep.warn(
            "result.iterations",
            f"iterations claim {claimed} colorings for {graph.num_vertices} vertices",
        )
    return rep


def validate_run(
    graph: CSRGraph,
    result: "ColoringResult",
    *,
    events: Iterable[TraceEvent] | None = None,
    device: "DeviceConfig | None" = None,
    allow_uncolored: bool = False,
) -> Report:
    """Every applicable validator for one finished run, merged.

    ``events`` (e.g. the ring buffer from
    :meth:`~repro.engine.context.RunContext.enable_tracing`) adds the
    scheduler/trace checks; ``device`` tightens them.
    """
    rep = Report(subject=f"run:{result.algorithm}")
    rep.merge(validate_csr(graph))
    bound = None
    if result.algorithm in MAXMIN_FAMILY:
        bound = max(graph.max_degree + 1, 2 * len(result.iterations))
    rep.merge(
        validate_coloring(
            graph, result.colors,
            allow_uncolored=allow_uncolored, max_colors=bound,
        )
    )
    rep.merge(_result_consistency(graph, result))
    if events is not None:
        dev = device if device is not None else result.device
        rep.merge(validate_trace(events, device=dev))
    return rep
