"""Value-range analysis: prove integer intermediates fit their width.

:mod:`~repro.check.flow.types` fixes every value's dtype;
this module proves the dtype is *wide enough*. It re-runs the
:mod:`~repro.check.flow.memsafe` abstract interpreter over the
:mod:`~repro.check.flow.regions` domain, but instead of checking
subscripts it records the interval of every integer value a kernel
produces — named locals, loop variables, thread ids, and the values
stored into arrays — and grounds each interval to a linear form in
``n`` (vertices) and ``m`` (directed CSR entries).

Widths are then decided under two explicit **scale premises**:

* ``n <= 2**31 - 1`` — vertex ids are stored in the int32 ``indices``
  array, so vertex counts are int32-representable by construction
  (the same bound hand-tuned GPU colorers assume);
* ``m <= 2**62`` — a simple graph has fewer than ``n**2`` directed
  entries, so ``m`` always fits int64.

plus the uniform-parameter fact ``round_k <= (n - 1) / 2`` (each
max-min round colors the global max and, when distinct, the global
min, so at most ``ceil(n / 2)`` rounds run and every assigned color
``2k``/``2k + 1`` stays below ``n``).

Each integer value gets one verdict:

* ``fits-int32`` — the ground interval is inside int32 for *every*
  ``n``/``m`` the premises allow;
* ``needs-int64`` — the interval fits int64 but exceeds int32 for
  large ``m``; the report carries the symbolic threshold (e.g.
  ``fits int32 iff m - 1 <= 2147483647``). This is the machine-checked
  form of the paper-scale folk theorem: CSR *offsets* (``start``,
  ``end``, edge thread ids) are the values that outgrow int32 on
  billion-edge graphs, while vertex-indexed values never do;
* ``unprovable`` — no ground bound exists; the report names the value
  as a witness. Registered kernels must never produce this.

A value *declared* int32 whose range exceeds int32 is an **issue**
(a real overflow), and the kernel loses its certificate.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Any

from ...coloring.device_kernels import DEVICE_KERNELS, DeviceKernel, kernel_ast
from ..concurrency import DEFAULT_WAVEFRONT_SIZE
from .memsafe import _MemWalker, _PrivateArray
from .regions import Bounder, IVal, LinExpr, kernel_bounder, seed_thread_symbols
from .types import KernelTypeReport, infer_kernel_types

__all__ = [
    "INT32_MAX",
    "INT32_MIN",
    "INT64_MAX",
    "KernelOverflowReport",
    "ValueRange",
    "certify_all",
    "certify_kernel",
    "eval_at",
]

INT32_MAX = 2**31 - 1
INT32_MIN = -(2**31)
INT64_MAX = 2**63 - 1
INT64_MIN = -(2**63)

#: the scale premises: ground symbols' extreme values. ``W`` is the
#: wavefront size, already eliminated by the bounder in practice.
_PREMISE_LO = {"n": 1.0, "m": 0.0, "W": 1.0}
_PREMISE_HI = {"n": float(2**31 - 1), "m": float(2**62), "W": 1024.0}

PREMISES = {
    "n": "n <= 2**31 - 1 (vertex ids live in the int32 `indices` array)",
    "m": "m <= 2**62 (simple graph: m < n**2)",
    "round_k": "round_k <= (n - 1) / 2 (>= 2 vertices colored per sweep)",
}

_WIDTH_LIMITS = {32: (INT32_MIN, INT32_MAX), 64: (INT64_MIN, INT64_MAX)}


def eval_at(
    expr: LinExpr, *, n: int, m: int, wavefront_size: int = DEFAULT_WAVEFRONT_SIZE
) -> float:
    """A ground linear form's value at concrete launch geometry."""
    values = {"n": float(n), "m": float(m), "W": float(wavefront_size)}
    total = expr.const
    for sym, coeff in expr.terms:
        if sym not in values:
            raise ValueError(f"non-ground symbol {sym!r} in {expr}")
        total += coeff * values[sym]
    return total


def _sup(expr: LinExpr) -> float | None:
    """The largest value the premises allow for a ground form."""
    total = expr.const
    for sym, coeff in expr.terms:
        if sym not in _PREMISE_HI:
            return None
        total += coeff * (_PREMISE_HI[sym] if coeff > 0 else _PREMISE_LO[sym])
    return total


def _inf(expr: LinExpr) -> float | None:
    total = expr.const
    for sym, coeff in expr.terms:
        if sym not in _PREMISE_HI:
            return None
        total += coeff * (_PREMISE_LO[sym] if coeff > 0 else _PREMISE_HI[sym])
    return total


def _m_threshold(hi: LinExpr) -> int | None:
    """The largest ``m`` keeping ``hi <= INT32_MAX``, when m-linear."""
    coeff_m = hi.coeff("m")
    if coeff_m <= 0:
        return None
    rest = hi.drop("m")
    worst_rest = _sup(rest)
    if worst_rest is None:
        return None
    return int((INT32_MAX - worst_rest) // coeff_m)


@dataclass(frozen=True)
class ValueRange:
    """One integer value's proven interval and width verdict."""

    name: str  # local / id / uniform name, or "array[idx] @L<line>"
    dtype: str  # declared or inferred width ("int32" / "int64")
    line: int
    lo: LinExpr | None  # ground lower bound (symbols n/m only)
    hi: LinExpr | None
    verdict: str  # "fits-int32" | "needs-int64" | "unprovable"
    condition: str  # symbolic threshold or unprovability witness

    def describe(self) -> str:
        rng = f"[{self.lo}, {self.hi}]" if self.lo is not None or self.hi is not None else "⊤"
        out = f"{self.name}: {self.dtype} in {rng} — {self.verdict}"
        if self.condition:
            out += f" ({self.condition})"
        return out

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "dtype": self.dtype,
            "line": self.line,
            "lo": None if self.lo is None else str(self.lo),
            "hi": None if self.hi is None else str(self.hi),
            "verdict": self.verdict,
            "condition": self.condition,
        }


@dataclass
class KernelOverflowReport:
    """The width certificate of one kernel spec."""

    kernel: str
    values: list[ValueRange]
    issues: list[str]

    @property
    def verdict(self) -> str:
        if any(v.verdict == "unprovable" for v in self.values):
            return "unprovable"
        if any(v.verdict == "needs-int64" for v in self.values):
            return "needs-int64"
        return "fits-int32"

    @property
    def condition(self) -> str:
        """The binding symbolic threshold of a ``needs-int64`` verdict."""
        thresholds = [
            t
            for v in self.values
            if v.verdict == "needs-int64"
            and (t := _m_threshold(v.hi)) is not None  # type: ignore[arg-type]
        ]
        if not thresholds:
            return ""
        return f"every value fits int32 while m <= {min(thresholds)}"

    @property
    def ok(self) -> bool:
        return self.verdict != "unprovable" and not self.issues

    def summary(self) -> str:
        status = "ok" if self.ok else "FAILED"
        narrow = sum(1 for v in self.values if v.verdict == "fits-int32")
        lines = [
            f"overflow:{self.kernel}: {status} — verdict {self.verdict}, "
            f"{narrow}/{len(self.values)} integer values fit int32"
        ]
        if self.condition:
            lines.append(f"  {self.condition}")
        for v in self.values:
            if v.verdict != "fits-int32":
                lines.append(f"  {v.describe()}")
        for issue in self.issues:
            lines.append(f"  ISSUE: {issue}")
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        return {
            "kernel": self.kernel,
            "ok": self.ok,
            "verdict": self.verdict,
            "condition": self.condition,
            "premises": dict(PREMISES),
            "values": [v.to_dict() for v in self.values],
            "issues": list(self.issues),
        }


# ----------------------------------------------------------------------
# the range-collecting walker
# ----------------------------------------------------------------------


class _RangeWalker(_MemWalker):
    """The memsafe interpreter, re-instrumented to observe value joins.

    Every assignment to a named local, every loop-target binding, and
    every value stored through a subscript is joined into
    ``observed``; the fixpoint machinery (``_collect`` off during loop
    stabilization) guarantees each program point contributes its
    *stable* abstract value exactly once.
    """

    def __init__(self, kernel: DeviceKernel, bounder: Bounder) -> None:
        super().__init__(kernel, bounder)
        self.observed: dict[str, tuple[int, IVal]] = {}

    def _tight(self, val: IVal) -> IVal:
        """The same value with its provably-best interval sides.

        Joins compare interval sides only, so an exact affine form
        (``degree = end - start`` reduces to ``deg``) would be lost to
        the sloppy interval arithmetic of its operands; promoting
        ``best_lo``/``best_hi`` into the interval first keeps the
        tight side through every later join. Both candidates are sound
        bounds, so this only ever tightens.
        """
        return IVal(
            exact=val.exact,
            lo=val.best_lo(self.bounder),
            hi=val.best_hi(self.bounder),
        )

    def _note(self, name: str, line: int, val: IVal) -> None:
        if not self._collect:
            return
        val = self._tight(val)
        known = self.observed.get(name)
        if known is None:
            self.observed[name] = (line, val)
        else:
            self.observed[name] = (known[0], known[1].join(val, self.bounder))

    def run_tree(self, tree: ast.FunctionDef) -> None:
        env = dict(seed_thread_symbols(self.kernel.params, self.kernel.grid))
        for p in self.kernel.uniform_params:
            if p == "wavefront_size":
                env[p] = IVal.of(LinExpr.sym("W"))
            elif p == "round_k":
                env[p] = IVal.ranged(
                    LinExpr.of(0), LinExpr.sym("n", 0.5).shift(-0.5)
                )
            else:
                env[p] = IVal.top()
        for name, val in env.items():
            self._note(name, 0, val)
        self._walk_body(tree.body, env)

    # mirror of _MemWalker._walk_assign with observation hooks; kept a
    # replica (not super() + re-eval) so access sites record once.
    def _walk_assign(self, stmt: ast.Assign, env: dict) -> dict:
        alloc = self._private_alloc(stmt.value, env)
        val: IVal | _PrivateArray
        val = alloc if alloc is not None else self._eval(stmt.value, env)
        for target in stmt.targets:
            if isinstance(target, ast.Name):
                env[target.id] = self._tight(val) if isinstance(val, IVal) else val
                if isinstance(val, IVal):
                    self._note(target.id, stmt.lineno, val)
            elif isinstance(target, ast.Subscript):
                self._record_access(target, "write", env)
                if isinstance(val, IVal) and isinstance(target.value, ast.Name):
                    key = (
                        f"{target.value.id}[{ast.unparse(target.slice)}] "
                        f"@L{stmt.lineno}"
                    )
                    self._note(key, stmt.lineno, val)
            elif isinstance(target, (ast.Tuple, ast.List)):
                for elt in target.elts:
                    if isinstance(elt, ast.Name):
                        env[elt.id] = IVal.top()
        return env

    def _bind_loop_target(self, stmt: ast.For, env: dict) -> None:
        super()._bind_loop_target(stmt, env)
        if isinstance(stmt.target, ast.Name):
            bound = env.get(stmt.target.id)
            if isinstance(bound, IVal):
                self._note(stmt.target.id, stmt.lineno, bound)


# ----------------------------------------------------------------------
# verdicts
# ----------------------------------------------------------------------


def _verdict_for(
    name: str, dtype: str, line: int, val: IVal, bounder: Bounder
) -> ValueRange:
    lo_sym = val.best_lo(bounder)
    hi_sym = val.best_hi(bounder)
    lo = bounder.lower(lo_sym) if lo_sym is not None else None
    hi = bounder.upper(hi_sym) if hi_sym is not None else None
    if lo is None or hi is None:
        side = "lower" if lo is None else "upper"
        return ValueRange(
            name, dtype, line, lo, hi, "unprovable", f"no ground {side} bound"
        )
    sup, inf = _sup(hi), _inf(lo)
    if sup is None or inf is None:
        return ValueRange(
            name, dtype, line, lo, hi, "unprovable", "bound has non-premise symbols"
        )
    if inf >= INT32_MIN and sup <= INT32_MAX:
        return ValueRange(name, dtype, line, lo, hi, "fits-int32", "")
    if inf >= INT64_MIN and sup <= INT64_MAX:
        condition = f"fits int32 iff {hi} <= {INT32_MAX}"
        threshold = _m_threshold(hi)
        if threshold is not None:
            condition += f", i.e. m <= {threshold}"
        return ValueRange(name, dtype, line, lo, hi, "needs-int64", condition)
    return ValueRange(
        name, dtype, line, lo, hi, "unprovable", "range exceeds int64 under premises"
    )


def certify_kernel(
    kernel: DeviceKernel,
    types_report: KernelTypeReport | None = None,
    *,
    wavefront_size: int = DEFAULT_WAVEFRONT_SIZE,
) -> KernelOverflowReport:
    """Width-certify every integer value one kernel produces.

    ``types_report`` (from :func:`infer_kernel_types`) supplies the
    dtype of each name; when omitted it is inferred here over the same
    AST so expression identities line up.
    """
    if types_report is None:
        types_report = infer_kernel_types(kernel)
    tree = types_report.tree
    bounder = kernel_bounder(kernel.grid, wavefront_size=wavefront_size)
    walker = _RangeWalker(kernel, bounder)
    walker.run_tree(tree)

    dtype_of: dict[str, str] = dict(types_report.params)
    dtype_of.update(types_report.locals)

    values: list[ValueRange] = []
    issues: list[str] = list(dict.fromkeys(i.message for i in types_report.issues))
    for name, (line, val) in walker.observed.items():
        if "[" in name:
            array = name.split("[", 1)[0]
            arr = types_report.arrays.get(array)
            dtype = arr.elem.name if arr is not None else "int64"
        else:
            dtype = dtype_of.get(name, "int64")
        if not dtype.startswith("int"):
            continue  # float/bool values cannot overflow an integer width
        verdict = _verdict_for(name, dtype, line, val, bounder)
        values.append(verdict)
        if dtype == "int32" and verdict.verdict != "fits-int32":
            issues.append(
                f"int32-typed {verdict.name!r} not proven to fit int32 "
                f"({verdict.verdict}: hi {verdict.hi})"
            )
        elif verdict.verdict == "unprovable":
            issues.append(f"{verdict.name!r} has no ground range ({verdict.condition})")
    values.sort(key=lambda v: (v.line, v.name))
    return KernelOverflowReport(kernel=kernel.name, values=values, issues=issues)


def certify_all(
    *, wavefront_size: int = DEFAULT_WAVEFRONT_SIZE
) -> list[KernelOverflowReport]:
    """Width certificates for every registered device kernel."""
    return [
        certify_kernel(k, wavefront_size=wavefront_size)
        for k in DEVICE_KERNELS.values()
    ]
