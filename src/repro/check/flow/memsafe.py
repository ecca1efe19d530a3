"""Static race-freedom and memory-safety verifier for kernel specs.

The dynamic race detector (:mod:`repro.check.races`) *observes* an
algorithm's access pattern by running its kernel specs under an access
log; this module *proves* the same properties from the kernel source
alone, without a run. It walks each per-thread kernel in
:mod:`repro.coloring.device_kernels` with an abstract interpreter over
the :mod:`~repro.check.flow.regions` domain and produces two artifacts:

* **per-access bounds proofs** — every subscript's index interval is
  discharged against the array's declared length using the CSR
  structural invariants (``indptr`` monotone, ``indices < n``);
  anything unprovable is flagged with the failing side;
* **per-array verdicts** — for each logical array of an algorithm:

  - ``race-free``: no cross-thread conflict is possible (read-only,
    thread-private, wavefront-local, or all write regions are affine
    in the thread id with matching ground residues, hence disjoint);
  - ``synchronized``: readers and writers exist but only in different
    kernel launches, which are global sync edges;
  - ``atomic-only``: same-launch contention exists but every
    conflicting access is atomic (ordered at the memory controller);
  - ``may-race``: a same-launch write/access pair whose regions could
    not be separated — reported with the two sites and a symbolic
    witness condition.

The may-happen-in-parallel model is the one the dynamic layer's
``AccessLog`` enforces, imported from the shared
:mod:`repro.check.concurrency` definition: kernel launches are sync
edges, intra-wavefront interleavings are lockstep-exempt, all-atomic
contention is ordered, and the per-kernel in-place declarations
(``INPLACE_ARRAYS``) decide whether ``colors_in``/``colors_out``
alias one physical buffer. :func:`cross_check` closes the loop: for
every GPU algorithm, the statically ``may-race`` arrays must cover
everything the dynamic scan observes (soundness) and match the
declared expectations exactly.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any

from ...coloring.device_kernels import (
    DEVICE_KERNELS,
    KERNEL_ALGORITHMS,
    DeviceKernel,
    kernel_ast,
    kernels_for,
)
from ..concurrency import DEFAULT_WAVEFRONT_SIZE, inplace_arrays, logical_array
from .regions import (
    Bounder,
    IVal,
    LinExpr,
    array_length,
    kernel_bounder,
    load_value,
    seed_thread_symbols,
)

__all__ = [
    "AccessSite",
    "AlgorithmMemReport",
    "ArrayVerdict",
    "CrossCheckRow",
    "KernelMemReport",
    "RaceWitness",
    "cross_check",
    "verify_algorithm",
    "verify_device_kernels",
    "verify_kernel",
    "verify_kernels",
]

#: severity order for combining per-buffer verdicts into one per array.
VERDICT_RANK = {"race-free": 0, "synchronized": 1, "atomic-only": 2, "may-race": 3}

_ZERO = LinExpr.of(0)
_ONE = LinExpr.of(1)


# ----------------------------------------------------------------------
# access sites and reports
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class AccessSite:
    """One static memory access: where, what, and the proven region."""

    kernel: str
    array: str  # spec parameter name (or private allocation name)
    space: str  # "global" | "local" | "private"
    kind: str  # "read" | "write"
    atomic: bool
    line: int  # relative to the kernel function definition
    index_source: str  # the subscript expression as written
    index: IVal = field(repr=False, hash=False, compare=False)
    bounds_proven: bool = True
    bounds_reason: str = ""

    def describe(self) -> str:
        tag = "atomic " if self.atomic else ""
        region = str(self.index.exact) if self.index.exact is not None else (
            f"[{self.index.eff_lo}, {self.index.eff_hi}]"
        )
        return (
            f"{self.kernel}:{self.line} {tag}{self.kind} "
            f"{self.array}[{self.index_source}] region {region}"
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "kernel": self.kernel,
            "array": self.array,
            "space": self.space,
            "kind": self.kind,
            "atomic": self.atomic,
            "line": self.line,
            "index": self.index_source,
            "exact": None if self.index.exact is None else str(self.index.exact),
            "lo": None if self.index.eff_lo is None else str(self.index.eff_lo),
            "hi": None if self.index.eff_hi is None else str(self.index.eff_hi),
            "bounds_proven": self.bounds_proven,
            "bounds_reason": self.bounds_reason,
        }


@dataclass(frozen=True)
class RaceWitness:
    """The unprovable pair behind a ``may-race`` verdict."""

    array: str
    write: AccessSite
    other: AccessSite
    condition: str

    def describe(self) -> str:
        return (
            f"{self.array}: write at {self.write.kernel}:{self.write.line} "
            f"({self.write.array}[{self.write.index_source}]) vs "
            f"{self.other.kind} at {self.other.kernel}:{self.other.line} "
            f"({self.other.array}[{self.other.index_source}]) — {self.condition}"
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "array": self.array,
            "write": self.write.to_dict(),
            "other": self.other.to_dict(),
            "condition": self.condition,
        }


@dataclass
class KernelMemReport:
    """All access sites of one kernel spec, with bounds proofs."""

    kernel: str
    mapping: str
    grid: str
    sites: list[AccessSite]

    @property
    def unproven(self) -> list[AccessSite]:
        return [s for s in self.sites if not s.bounds_proven]

    @property
    def bounds_ok(self) -> bool:
        return not self.unproven

    def to_dict(self) -> dict[str, Any]:
        return {
            "kernel": self.kernel,
            "mapping": self.mapping,
            "grid": self.grid,
            "accesses": len(self.sites),
            "bounds_proven": len(self.sites) - len(self.unproven),
            "unproven": [s.to_dict() for s in self.unproven],
        }


@dataclass
class ArrayVerdict:
    """The combined verdict for one logical array of an algorithm."""

    array: str
    verdict: str  # "race-free" | "synchronized" | "atomic-only" | "may-race"
    reason: str
    kernels: tuple[str, ...]
    witness: RaceWitness | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "array": self.array,
            "verdict": self.verdict,
            "reason": self.reason,
            "kernels": list(self.kernels),
            "witness": None if self.witness is None else self.witness.to_dict(),
        }


@dataclass
class AlgorithmMemReport:
    """Static verdicts for every array one algorithm's kernels touch."""

    algorithm: str
    mapping: str
    kernels: list[KernelMemReport]
    arrays: list[ArrayVerdict]
    expected_racy: frozenset[str]

    @property
    def may_race(self) -> list[str]:
        return sorted(v.array for v in self.arrays if v.verdict == "may-race")

    @property
    def unexpected(self) -> list[str]:
        """Statically racy arrays that are not declared benign."""
        return [a for a in self.may_race if a not in self.expected_racy]

    @property
    def unproven_expected(self) -> list[str]:
        """Declared-benign arrays the verifier proved safe (drifted spec)."""
        return sorted(self.expected_racy - set(self.may_race))

    @property
    def unproven_bounds(self) -> list[AccessSite]:
        return [s for k in self.kernels for s in k.unproven]

    @property
    def ok(self) -> bool:
        return not self.unexpected and not self.unproven_expected and not self.unproven_bounds

    def verdict_for(self, array: str) -> ArrayVerdict:
        for v in self.arrays:
            if v.array == array:
                return v
        raise KeyError(f"{self.algorithm}: no verdict for array {array!r}")

    def summary(self) -> str:
        status = "ok" if self.ok else "FAILED"
        total = sum(len(k.sites) for k in self.kernels)
        proven = total - len(self.unproven_bounds)
        lines = [
            f"verify:{self.algorithm}[{self.mapping}]: {status} — "
            f"{len(self.arrays)} arrays over {len(self.kernels)} kernels, "
            f"{proven}/{total} accesses in bounds, "
            f"may-race: {self.may_race or '[]'} (expected "
            f"{sorted(self.expected_racy) or '[]'})"
        ]
        for v in self.arrays:
            lines.append(f"  {v.array}: {v.verdict} — {v.reason}")
            if v.witness is not None:
                lines.append(f"    witness: {v.witness.describe()}")
        for s in self.unproven_bounds:
            lines.append(f"  UNPROVEN BOUNDS: {s.describe()} ({s.bounds_reason})")
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        return {
            "algorithm": self.algorithm,
            "mapping": self.mapping,
            "ok": self.ok,
            "expected_racy": sorted(self.expected_racy),
            "may_race": self.may_race,
            "unexpected": self.unexpected,
            "kernels": [k.to_dict() for k in self.kernels],
            "arrays": [v.to_dict() for v in self.arrays],
        }


# ----------------------------------------------------------------------
# the abstract interpreter
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _PrivateArray:
    """A function-local (thread-private) array allocation."""

    length: IVal


_Env = dict[str, "IVal | _PrivateArray"]


class _MemWalker:
    """Walks one kernel body, collecting access sites with regions.

    Structural abstract interpretation in the style of the work-model
    walker: loops run a short join-until-stable fixpoint with
    reporting off, then one reporting pass with the stable state, so
    every subscript is recorded exactly once with its sound region.
    """

    _MAX_FIXPOINT = 4

    def __init__(self, kernel: DeviceKernel, bounder: Bounder) -> None:
        self.kernel = kernel
        self.bounder = bounder
        self.sites: list[AccessSite] = []
        self._collect = True
        self._breaks: list[list[_Env]] = []
        self._globals = getattr(kernel.fn, "__globals__", {})

    # -- entry ----------------------------------------------------------

    def run(self) -> list[AccessSite]:
        env: _Env = dict(seed_thread_symbols(self.kernel.params, self.kernel.grid))
        for p in self.kernel.uniform_params:
            env[p] = IVal.of(LinExpr.sym("W")) if p == "wavefront_size" else IVal.top()
        self._walk_body(kernel_ast(self.kernel).body, env)
        return self.sites

    # -- statements -----------------------------------------------------

    def _walk_body(self, stmts: list[ast.stmt], env: _Env) -> tuple[_Env, bool]:
        for stmt in stmts:
            env, terminated = self._walk_stmt(stmt, env)
            if terminated:
                return env, True
        return env, False

    def _walk_stmt(self, stmt: ast.stmt, env: _Env) -> tuple[_Env, bool]:
        if isinstance(stmt, ast.Assign):
            return self._walk_assign(stmt, env), False
        if isinstance(stmt, ast.AugAssign):
            self._eval(stmt.value, env)
            if isinstance(stmt.target, ast.Subscript):
                self._record_access(stmt.target, "read", env)
                self._record_access(stmt.target, "write", env)
            elif isinstance(stmt.target, ast.Name):
                env[stmt.target.id] = IVal.top()
            return env, False
        if isinstance(stmt, ast.If):
            return self._walk_if(stmt, env)
        if isinstance(stmt, ast.For):
            return self._walk_for(stmt, env)
        if isinstance(stmt, ast.While):
            return self._walk_while(stmt, env)
        if isinstance(stmt, ast.Expr):
            self._eval(stmt.value, env)
            return env, False
        if isinstance(stmt, ast.Return):
            return env, True
        if isinstance(stmt, ast.Break):
            if self._breaks:
                self._breaks[-1].append(dict(env))
            return env, True
        if isinstance(stmt, ast.Continue):
            return env, True
        return env, False  # pass / docstrings / unsupported: no effect

    def _walk_assign(self, stmt: ast.Assign, env: _Env) -> _Env:
        alloc = self._private_alloc(stmt.value, env)
        val: IVal | _PrivateArray
        val = alloc if alloc is not None else self._eval(stmt.value, env)
        for target in stmt.targets:
            if isinstance(target, ast.Name):
                env[target.id] = val
            elif isinstance(target, ast.Subscript):
                self._record_access(target, "write", env)
            elif isinstance(target, (ast.Tuple, ast.List)):
                for elt in target.elts:
                    if isinstance(elt, ast.Name):
                        env[elt.id] = IVal.top()
        return env

    def _walk_if(self, stmt: ast.If, env: _Env) -> tuple[_Env, bool]:
        self._eval(stmt.test, env)  # record loads in the condition once
        t_env = self._refine(dict(env), stmt.test, True)
        f_env = self._refine(dict(env), stmt.test, False)
        t_out, t_term = self._walk_body(stmt.body, t_env)
        f_out, f_term = self._walk_body(stmt.orelse, f_env)
        if t_term and f_term:
            return env, True
        if t_term:
            return f_out, False
        if f_term:
            return t_out, False
        return _join_env(t_out, f_out, self.bounder), False

    def _walk_for(self, stmt: ast.For, env: _Env) -> tuple[_Env, bool]:
        self._eval_iter(stmt.iter, env)  # record header loads once
        state = dict(env)
        saved, self._collect = self._collect, False
        stable = False
        for _ in range(self._MAX_FIXPOINT):
            trial = dict(state)
            self._bind_loop_target(stmt, trial)
            self._breaks.append([])  # discard break paths mid-fixpoint
            out, _ = self._walk_body(stmt.body, trial)
            self._breaks.pop()
            joined = _join_env(state, out, self.bounder)
            if joined == state:
                stable = True
                break
            state = joined
        if not stable:  # widen anything still moving to top
            state = {
                k: v if env.get(k) == v else IVal.top() for k, v in state.items()
            }
        self._collect = saved
        self._breaks.append([])
        trial = dict(state)
        self._bind_loop_target(stmt, trial)
        out, _ = self._walk_body(stmt.body, trial)
        post = _join_env(state, out, self.bounder)
        for break_env in self._breaks.pop():
            post = _join_env(post, break_env, self.bounder)
        return post, False

    def _walk_while(self, stmt: ast.While, env: _Env) -> tuple[_Env, bool]:
        self._eval(stmt.test, env)
        state = dict(env)
        saved, self._collect = self._collect, False
        for _ in range(self._MAX_FIXPOINT):
            self._breaks.append([])
            out, _ = self._walk_body(stmt.body, dict(state))
            self._breaks.pop()
            joined = _join_env(state, out, self.bounder)
            if joined == state:
                break
            state = joined
        else:
            state = {k: v if env.get(k) == v else IVal.top() for k, v in state.items()}
        self._collect = saved
        self._breaks.append([])
        out, _ = self._walk_body(stmt.body, dict(state))
        post = _join_env(state, out, self.bounder)
        for break_env in self._breaks.pop():
            post = _join_env(post, break_env, self.bounder)
        return post, False

    def _bind_loop_target(self, stmt: ast.For, env: _Env) -> None:
        if isinstance(stmt.target, ast.Name):
            env[stmt.target.id] = self._iter_value(stmt.iter, env)
        elif isinstance(stmt.target, (ast.Tuple, ast.List)):
            for elt in stmt.target.elts:
                if isinstance(elt, ast.Name):
                    env[elt.id] = IVal.top()

    def _eval_iter(self, node: ast.expr, env: _Env) -> None:
        if isinstance(node, ast.Call):
            for arg in node.args:
                self._eval(arg, env)
        else:
            self._eval(node, env)

    def _iter_value(self, node: ast.expr, env: _Env) -> IVal:
        """The abstract value a for-loop target ranges over."""
        saved, self._collect = self._collect, False
        try:
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "range"
                and 1 <= len(node.args) <= 3
            ):
                args = [self._eval(a, env) for a in node.args]
                lo = IVal.const(0) if len(args) == 1 else args[0]
                stop = args[0] if len(args) == 1 else args[1]
                stop_hi = stop.best_hi(self.bounder)
                # positive step assumed (every kernel loop ascends)
                return IVal.ranged(
                    lo.best_lo(self.bounder),
                    stop_hi.shift(-1) if stop_hi is not None else None,
                )
            if isinstance(node, (ast.Tuple, ast.List)):
                values = [e.value for e in node.elts if isinstance(e, ast.Constant)]
                if values and len(values) == len(node.elts) and all(
                    isinstance(v, (int, float)) and not isinstance(v, bool)
                    for v in values
                ):
                    return IVal.ranged(
                        LinExpr.of(min(values)), LinExpr.of(max(values))
                    )
            return IVal.top()
        finally:
            self._collect = saved

    # -- expressions ----------------------------------------------------

    def _eval(self, node: ast.expr, env: _Env) -> IVal:
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool):
                return IVal.const(int(node.value))
            if isinstance(node.value, (int, float)):
                return IVal.const(node.value)
            return IVal.top()
        if isinstance(node, ast.Name):
            known = env.get(node.id)
            if isinstance(known, _PrivateArray):
                return IVal.top()
            if known is not None:
                return known
            const = self._globals.get(node.id)
            if isinstance(const, bool) or not isinstance(const, (int, float)):
                return IVal.top()
            return IVal.const(const)
        if isinstance(node, ast.BinOp):
            left, right = self._eval(node.left, env), self._eval(node.right, env)
            if isinstance(node.op, ast.Add):
                return left + right
            if isinstance(node.op, ast.Sub):
                return left - right
            if isinstance(node.op, ast.Mult):
                for a, b in ((left, right), (right, left)):
                    if a.exact is not None and a.exact.is_const:
                        return b.scale(a.exact.const)
                return IVal.top()
            return IVal.top()
        if isinstance(node, ast.UnaryOp):
            operand = self._eval(node.operand, env)
            if isinstance(node.op, ast.USub):
                return operand.scale(-1.0)
            if isinstance(node.op, ast.UAdd):
                return operand
            return IVal.ranged(_ZERO, _ONE)  # `not x`
        if isinstance(node, ast.Subscript):
            return self._record_access(node, "read", env)
        if isinstance(node, ast.Compare):
            self._eval(node.left, env)
            for comparator in node.comparators:
                self._eval(comparator, env)
            return IVal.ranged(_ZERO, _ONE)
        if isinstance(node, ast.BoolOp):
            for value in node.values:
                self._eval(value, env)
            return IVal.ranged(_ZERO, _ONE)
        return IVal.top()

    def _private_alloc(self, node: ast.expr, env: _Env) -> _PrivateArray | None:
        if isinstance(node, ast.List):
            return _PrivateArray(length=IVal.const(len(node.elts)))
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            for elems, count in ((node.left, node.right), (node.right, node.left)):
                if isinstance(elems, ast.List):
                    length = self._eval(count, env)
                    if len(elems.elts) != 1:
                        length = length.scale(len(elems.elts))
                    return _PrivateArray(length=length)
        return None

    # -- access recording -----------------------------------------------

    def _record_access(self, node: ast.Subscript, kind: str, env: _Env) -> IVal:
        index = self._eval(node.slice, env)
        if not isinstance(node.value, ast.Name):
            return IVal.top()
        name = node.value.id
        known = env.get(name)
        if isinstance(known, _PrivateArray):
            space, length = "private", known.length.best_lo(self.bounder)
        elif name in self.kernel.local_arrays:
            space, length = "local", array_length(name, self.kernel.grid)
        elif name in self.kernel.array_params:
            space, length = "global", array_length(name, self.kernel.grid)
        else:
            return IVal.top()  # subscript of a scalar: not an array access
        if self._collect:
            proven, reason = self._prove_bounds(index, length)
            self.sites.append(
                AccessSite(
                    kernel=self.kernel.name,
                    array=name,
                    space=space,
                    kind=kind,
                    atomic=name in self.kernel.atomic_arrays,
                    line=node.lineno,
                    index_source=ast.unparse(node.slice),
                    index=index,
                    bounds_proven=proven,
                    bounds_reason=reason,
                )
            )
        return IVal.top() if space != "global" else load_value(name, index)

    def _prove_bounds(self, index: IVal, length: LinExpr | None) -> tuple[bool, str]:
        lo = index.best_lo(self.bounder)
        hi = index.best_hi(self.bounder)
        if lo is None or not self.bounder.nonneg(lo):
            return False, f"cannot prove index >= 0 (lower bound {lo})"
        if length is None:
            return False, "array length unknown"
        if hi is None or not self.bounder.nonneg(length.shift(-1) - hi):
            return False, f"cannot prove index <= {length} - 1 (upper bound {hi})"
        return True, ""

    # -- guard refinement ------------------------------------------------

    def _refine(self, env: _Env, test: ast.expr, taken: bool) -> _Env:
        saved, self._collect = self._collect, False
        try:
            return self._refine_inner(env, test, taken)
        finally:
            self._collect = saved

    def _refine_inner(self, env: _Env, test: ast.expr, taken: bool) -> _Env:
        if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            return self._refine_inner(env, test.operand, not taken)
        if isinstance(test, ast.BoolOp):
            # a taken `and` asserts every conjunct; a not-taken `or`
            # refutes every disjunct. The other two cases assert only a
            # disjunction — no single-name refinement is sound.
            if isinstance(test.op, ast.And) and taken:
                for value in test.values:
                    env = self._refine_inner(env, value, True)
            elif isinstance(test.op, ast.Or) and not taken:
                for value in test.values:
                    env = self._refine_inner(env, value, False)
            return env
        if not isinstance(test, ast.Compare) or len(test.ops) != 1:
            return env
        op_type = type(test.ops[0]) if taken else _NEGATED.get(type(test.ops[0]))
        if op_type is None:
            return env
        left, right = test.left, test.comparators[0]
        env = self._refine_name(env, left, op_type, self._eval(right, env))
        env = self._refine_name(env, right, _FLIPPED[op_type], self._eval(left, env))
        return env

    def _refine_name(
        self, env: _Env, node: ast.expr, op_type: type, other: IVal
    ) -> _Env:
        if not isinstance(node, ast.Name):
            return env
        current = env.get(node.id)
        if not isinstance(current, IVal):
            return env
        exact, lo, hi = current.exact, current.eff_lo, current.eff_hi
        o_exact = other.exact
        o_lo = o_exact if o_exact is not None else other.eff_lo
        o_hi = o_exact if o_exact is not None else other.eff_hi
        if op_type is ast.Lt and o_hi is not None:
            hi = _tighten(hi, o_hi.shift(-1), self.bounder, want_min=True)
        elif op_type is ast.LtE and o_hi is not None:
            hi = _tighten(hi, o_hi, self.bounder, want_min=True)
        elif op_type is ast.Gt and o_lo is not None:
            lo = _tighten(lo, o_lo.shift(1), self.bounder, want_min=False)
        elif op_type is ast.GtE and o_lo is not None:
            lo = _tighten(lo, o_lo, self.bounder, want_min=False)
        elif op_type is ast.Eq:
            exact = o_exact if o_exact is not None else exact
            if o_lo is not None:
                lo = _tighten(lo, o_lo, self.bounder, want_min=False)
            if o_hi is not None:
                hi = _tighten(hi, o_hi, self.bounder, want_min=True)
        elif op_type is ast.NotEq and o_exact is not None and o_exact.is_const:
            if lo is not None and lo == o_exact:
                lo, exact = o_exact.shift(1), None
            if hi is not None and hi == o_exact:
                hi, exact = o_exact.shift(-1), None
        env[node.id] = IVal(exact=exact, lo=lo, hi=hi)
        return env


#: comparison negation (the not-taken branch of a guard).
_NEGATED: dict[type, type] = {
    ast.Lt: ast.GtE,
    ast.LtE: ast.Gt,
    ast.Gt: ast.LtE,
    ast.GtE: ast.Lt,
    ast.Eq: ast.NotEq,
    ast.NotEq: ast.Eq,
}

#: comparison flip (refining the right operand of ``left op right``).
_FLIPPED: dict[type, type] = {
    ast.Lt: ast.Gt,
    ast.LtE: ast.GtE,
    ast.Gt: ast.Lt,
    ast.GtE: ast.LtE,
    ast.Eq: ast.Eq,
    ast.NotEq: ast.NotEq,
}


def _tighten(
    current: LinExpr | None, candidate: LinExpr, bounder: Bounder, *, want_min: bool
) -> LinExpr:
    """Adopt the provably-tighter of two sound one-sided bounds.

    Both constraints hold simultaneously, so either is sound; when
    they are incomparable the guard's bound wins (it is the reason the
    refinement exists).
    """
    if current is None:
        return candidate
    if want_min:
        return current if bounder.le(current, candidate) else candidate
    return current if bounder.le(candidate, current) else candidate


def _join_env(a: _Env, b: _Env, bounder: Bounder) -> _Env:
    out: _Env = {}
    for name in a.keys() | b.keys():
        va, vb = a.get(name), b.get(name)
        if va is None or vb is None:
            present = va if va is not None else vb
            assert present is not None
            out[name] = present  # defined on one path only: keep it
        elif isinstance(va, _PrivateArray) or isinstance(vb, _PrivateArray):
            out[name] = va if va == vb else IVal.top()
        else:
            out[name] = va.join(vb, bounder)
    return out


# ----------------------------------------------------------------------
# verdicts
# ----------------------------------------------------------------------


def verify_kernel(
    kernel: DeviceKernel, *, wavefront_size: int = DEFAULT_WAVEFRONT_SIZE
) -> KernelMemReport:
    """Collect every access site of one kernel spec with bounds proofs."""
    bounder = kernel_bounder(kernel.grid, wavefront_size=wavefront_size)
    sites = _MemWalker(kernel, bounder).run()
    return KernelMemReport(
        kernel=kernel.name, mapping=kernel.mapping, grid=kernel.grid, sites=sites
    )


def verify_device_kernels(
    *, wavefront_size: int = DEFAULT_WAVEFRONT_SIZE
) -> list[KernelMemReport]:
    """Per-kernel reports for every registered device kernel spec."""
    return [
        verify_kernel(k, wavefront_size=wavefront_size)
        for k in DEVICE_KERNELS.values()
    ]


def _ground_affine(site: AccessSite) -> tuple[float, LinExpr] | None:
    """``(coeff_t, residual)`` when the index is affine in the owner id
    with a launch-uniform residual — the shape disjointness proofs need."""
    exact = site.index.exact
    if exact is None:
        return None
    residual = exact.drop("t")
    if not residual.symbols <= {"n", "m", "W"}:
        return None
    return exact.coeff("t"), residual


def _cross_thread_disjoint(a: AccessSite, b: AccessSite) -> bool:
    """True when the two sites can only collide within one owner.

    Same-owner collisions are exempt by the shared wavefront-
    granularity rule: for thread-mapped kernels the owner is a single
    thread (program order); for wavefront-mapped kernels it is one
    wavefront (lockstep).
    """
    ga, gb = _ground_affine(a), _ground_affine(b)
    if ga is None or gb is None:
        return False
    (ca, ra), (cb, rb) = ga, gb
    return ca == cb and ca != 0.0 and ra == rb


def _witness_condition(write: AccessSite, other: AccessSite) -> str:
    if write.index_source == other.index_source:
        return (
            f"two owners of the same launch can evaluate "
            f"`{write.index_source}` to the same element"
        )
    return (
        f"`{other.index_source}` (owner j) == `{write.index_source}` (owner i) "
        f"within one launch"
    )


def _buffer_verdict(
    array: str, sites: list[AccessSite]
) -> tuple[str, str, RaceWitness | None]:
    """Classify one physical buffer's same-launch accesses."""
    writes = [s for s in sites if s.kind == "write"]
    if not writes:
        return "race-free", "read-only in this launch", None
    if all(s.atomic for s in sites):
        return "atomic-only", "every conflicting access is atomic", None
    space = sites[0].space
    if space == "private":
        return "race-free", "thread-private allocation", None
    if space == "local":
        return "race-free", "wavefront-local scratch; lanes run in lockstep", None
    for w in writes:
        for o in sites:
            if not _cross_thread_disjoint(w, o):
                witness = RaceWitness(
                    array=array,
                    write=w,
                    other=o,
                    condition=_witness_condition(w, o),
                )
                return "may-race", "write region not provably disjoint", witness
    return "race-free", "write regions disjoint across owners (affine in owner id)", None


def verify_kernels(
    kernels: tuple[DeviceKernel, ...],
    *,
    algorithm: str = "custom",
    mapping: str = "thread",
    inplace: frozenset[str] | None = None,
    wavefront_size: int = DEFAULT_WAVEFRONT_SIZE,
) -> AlgorithmMemReport:
    """Verify a kernel set as one algorithm iteration.

    Each kernel's entry in the shared ``INPLACE_ARRAYS`` declaration
    (or ``inplace`` for every kernel, when given) names the logical
    arrays whose snapshot pair (``colors_in``/``colors_out``) aliases
    one physical buffer in its launches. For everything else one launch
    is a pure function of its inputs, so same-launch reads and writes
    of a snapshot pair target different buffers and conflict only
    across sync edges. The report expects races on exactly the in-place
    arrays.
    """
    declared = {
        k.name: inplace_arrays(k.name) if inplace is None else inplace for k in kernels
    }
    reports = [verify_kernel(k, wavefront_size=wavefront_size) for k in kernels]
    by_logical: dict[str, list[AccessSite]] = {}
    for report in reports:
        for site in report.sites:
            by_logical.setdefault(logical_array(site.array), []).append(site)

    verdicts: list[ArrayVerdict] = []
    for logical in sorted(by_logical):
        sites = by_logical[logical]
        touched = tuple(dict.fromkeys(s.kernel for s in sites))
        buffers: dict[tuple[str, str], list[AccessSite]] = {}
        for site in sites:
            in_place = logical in declared[site.kernel]
            key = (site.kernel, logical if in_place else site.array)
            buffers.setdefault(key, []).append(site)
        verdict, reason, witness = "race-free", "never accessed", None
        for index, buffer_sites in enumerate(buffers.values()):
            v, r, w = _buffer_verdict(logical, buffer_sites)
            if index == 0 or VERDICT_RANK[v] > VERDICT_RANK[verdict]:
                verdict, reason, witness = v, r, w
        is_shared = sites[0].space == "global"
        has_write = any(s.kind == "write" for s in sites)
        has_read = any(s.kind == "read" for s in sites)
        if (
            is_shared
            and has_write
            and has_read
            and VERDICT_RANK[verdict] < VERDICT_RANK["synchronized"]
        ):
            verdict = "synchronized"
            reason = "readers and writers separated by kernel-launch sync edges"
        verdicts.append(
            ArrayVerdict(
                array=logical,
                verdict=verdict,
                reason=reason,
                kernels=touched,
                witness=witness,
            )
        )
    return AlgorithmMemReport(
        algorithm=algorithm,
        mapping=mapping,
        kernels=reports,
        arrays=verdicts,
        expected_racy=frozenset(a for arrays in declared.values() for a in arrays),
    )


def verify_algorithm(
    algorithm: str,
    *,
    mapping: str = "thread",
    wavefront_size: int = DEFAULT_WAVEFRONT_SIZE,
) -> AlgorithmMemReport:
    """Static verdicts for one GPU algorithm's registered kernel specs."""
    kernels = kernels_for(algorithm, mapping=mapping)
    return verify_kernels(
        kernels, algorithm=algorithm, mapping=mapping, wavefront_size=wavefront_size
    )


# ----------------------------------------------------------------------
# static ↔ dynamic cross-check
# ----------------------------------------------------------------------


@dataclass
class CrossCheckRow:
    """One algorithm's static verdicts against the dynamic scan."""

    algorithm: str
    static_may_race: tuple[str, ...]
    dynamic_racy: tuple[str, ...]
    expected: tuple[str, ...]
    dynamic_findings: int
    sound: bool  # every dynamically-observed racy array is static may-race
    agree: bool  # sound, static == declared expectation, scan ok

    def to_dict(self) -> dict[str, Any]:
        return {
            "algorithm": self.algorithm,
            "static_may_race": list(self.static_may_race),
            "dynamic_racy": list(self.dynamic_racy),
            "expected": list(self.expected),
            "dynamic_findings": self.dynamic_findings,
            "sound": self.sound,
            "agree": self.agree,
        }


def cross_check(
    graph: Any,
    *,
    algorithms: tuple[str, ...] | None = None,
    seed: int = 0,
    wavefront_size: int = DEFAULT_WAVEFRONT_SIZE,
) -> list[CrossCheckRow]:
    """Prove the static and dynamic layers agree on ``graph``.

    For every GPU algorithm (all of them, by default): the dynamic
    scan's racy arrays must be a subset of the static ``may-race`` set
    (the static layer is sound — it can over-approximate, never miss),
    the static set must equal the shared declared expectation, and the
    scan itself must pass. Kernels the static layer proves race-free
    must therefore never produce a dynamic finding.
    """
    from ..races import scan_algorithm_races

    rows: list[CrossCheckRow] = []
    for algorithm in algorithms or tuple(sorted(KERNEL_ALGORITHMS)):
        static = verify_algorithm(algorithm, wavefront_size=wavefront_size)
        scan = scan_algorithm_races(
            graph, algorithm, seed=seed, wavefront_size=wavefront_size
        )
        static_set = set(static.may_race)
        dynamic_set = set(scan.racy_arrays)
        expected = set(static.expected_racy)
        sound = dynamic_set <= static_set
        rows.append(
            CrossCheckRow(
                algorithm=algorithm,
                static_may_race=tuple(sorted(static_set)),
                dynamic_racy=tuple(sorted(dynamic_set)),
                expected=tuple(sorted(expected)),
                dynamic_findings=len(scan.findings),
                sound=sound,
                agree=sound and static_set == expected and scan.ok and static.ok,
            )
        )
    return rows
