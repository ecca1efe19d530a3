"""Dtype and shape certification of the device-kernel specs.

:mod:`~repro.check.flow.memsafe` proves every subscript lands in
bounds; this module proves every *value* has a well-defined machine
type. It runs an abstract interpretation over the kernel ASTs in a
small dtype lattice, seeded by the ``param_dtypes`` launch facts each
:class:`~repro.coloring.device_kernels.DeviceKernel` now declares
(what the host actually passes: ``indptr`` int64, ``indices`` int32,
priorities float64, …), and assigns

* every expression a concrete numpy dtype (``bool`` / ``int32`` /
  ``int64`` / ``float64``),
* every array — global, wavefront-local, or thread-private — an
  element dtype and a symbolic shape (``n + 1``, ``m``, ``W``, or the
  allocation expression for private arrays),
* every named local one flow-insensitive dtype (the join of all its
  assignments).

The policy mirrors what a compiler for the specs must enforce:

* **Integer widening is legal but never silent.** ``int32 + int64``
  promotes to ``int64`` and is recorded as an implicit-cast note.
  Python integer literals are *weak* (NEP-50 style) and adapt to the
  other operand without a note.
* **Mixed int/float arithmetic is rejected.** A priority must never
  meet an offset in one expression without an explicit conversion —
  there are none in the specs, and none may creep in.
* **Narrowing is rejected.** Storing an ``int64`` value into an
  ``int32`` element (or rebinding a local across kinds) is an error;
  :mod:`~repro.check.flow.overflow` exists precisely so narrow types
  are *proven*, not assumed.

A kernel's type certificate is clean when no issue was recorded.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any

from ...coloring.device_kernels import DEVICE_KERNELS, DeviceKernel, kernel_ast
from .regions import array_length

__all__ = [
    "AbsType",
    "ArrayType",
    "KernelTypeReport",
    "TypeIssue",
    "infer_all_types",
    "infer_kernel_types",
    "parse_dtype",
]


@dataclass(frozen=True)
class AbsType:
    """One point of the dtype lattice: a machine scalar type.

    ``weak`` marks Python literals (and module-level int constants
    like ``UNCOLORED``): they adapt to the other operand's dtype
    instead of forcing a promotion, the way NEP-50 treats Python
    scalars.
    """

    kind: str  # "bool" | "int" | "float"
    bits: int
    weak: bool = False

    @property
    def name(self) -> str:
        return "bool" if self.kind == "bool" else f"{self.kind}{self.bits}"

    def strong(self) -> "AbsType":
        """The concrete dtype a weak literal defaults to."""
        return AbsType(self.kind, self.bits) if self.weak else self

    def __str__(self) -> str:
        return f"{self.name}~" if self.weak else self.name


BOOL = AbsType("bool", 8)
INT32 = AbsType("int", 32)
INT64 = AbsType("int", 64)
FLOAT64 = AbsType("float", 64)
WEAK_INT = AbsType("int", 64, weak=True)
WEAK_FLOAT = AbsType("float", 64, weak=True)

#: declared-dtype vocabulary accepted in ``param_dtypes``.
_DTYPE_NAMES: dict[str, AbsType] = {
    "bool": BOOL,
    "int32": INT32,
    "int64": INT64,
    "float32": AbsType("float", 32),
    "float64": FLOAT64,
}


def parse_dtype(name: str) -> AbsType | None:
    """The lattice point for one declared dtype name (None if unknown)."""
    return _DTYPE_NAMES.get(name)


@dataclass(frozen=True)
class ArrayType:
    """An array-valued name: element dtype plus symbolic shape."""

    elem: AbsType
    shape: str  # symbolic length: "n + 1", "m", "W", or the alloc expr
    space: str  # "global" | "local" | "private"

    def __str__(self) -> str:
        return f"{self.elem.name}[{self.shape}] ({self.space})"


@dataclass(frozen=True)
class TypeIssue:
    """One certification failure: where and why."""

    line: int  # relative to the kernel function definition
    message: str

    def to_dict(self) -> dict[str, Any]:
        return {"line": self.line, "message": self.message}


@dataclass
class KernelTypeReport:
    """The dtype/shape certificate of one kernel spec."""

    kernel: str
    tree: ast.FunctionDef = field(repr=False)
    params: dict[str, str]
    locals: dict[str, str]
    arrays: dict[str, ArrayType]
    casts: list[str]
    issues: list[TypeIssue]

    @property
    def ok(self) -> bool:
        return not self.issues

    def summary(self) -> str:
        status = "ok" if self.ok else "FAILED"
        head = (
            f"types:{self.kernel}: {status} — "
            f"{len(self.params)} params, {len(self.locals)} locals, "
            f"{len(self.arrays)} arrays, {len(self.casts)} implicit widenings"
        )
        lines = [head]
        for name, arr in self.arrays.items():
            lines.append(f"  {name}: {arr}")
        for cast in self.casts:
            lines.append(f"  widen: {cast}")
        for issue in self.issues:
            lines.append(f"  ISSUE L{issue.line}: {issue.message}")
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        return {
            "kernel": self.kernel,
            "ok": self.ok,
            "params": dict(self.params),
            "locals": dict(self.locals),
            "arrays": {
                name: {"elem": a.elem.name, "shape": a.shape, "space": a.space}
                for name, a in self.arrays.items()
            },
            "casts": list(self.casts),
            "issues": [i.to_dict() for i in self.issues],
        }


# ----------------------------------------------------------------------
# the inference walker
# ----------------------------------------------------------------------

_Value = "AbsType | ArrayType"


class _TypeWalker:
    """Infers one kernel's types in ≤4 widening passes plus a report pass.

    Locals are flow-insensitive: a name's dtype is the join of every
    assignment to it (ints widen, kind changes are errors). The
    widening passes run with reporting off until the local table is
    stable, then one reporting pass records implicit casts and issues
    exactly once.
    """

    _MAX_PASSES = 4

    def __init__(self, kernel: DeviceKernel, tree: ast.FunctionDef) -> None:
        self.kernel = kernel
        self.tree = tree
        self.params: dict[str, AbsType | ArrayType] = {}
        self.locals: dict[str, AbsType | ArrayType] = {}
        self.issues: list[TypeIssue] = []
        self.casts: list[str] = []
        self._collect = False
        self._globals = getattr(kernel.fn, "__globals__", {})
        self._seed_params()

    # -- setup ----------------------------------------------------------

    def _seed_params(self) -> None:
        declared = self.kernel.dtypes
        for extra in sorted(set(declared) - set(self.kernel.params)):
            self._issue(0, f"param_dtypes names unknown parameter {extra!r}")
        for p in self.kernel.params:
            name = declared.get(p)
            if name is None:
                self._issue(0, f"parameter {p!r} has no declared dtype in param_dtypes")
                scalar = INT64
            else:
                parsed = parse_dtype(name)
                if parsed is None:
                    self._issue(0, f"parameter {p!r} declares unknown dtype {name!r}")
                    scalar = INT64
                else:
                    scalar = parsed
            if p in self.kernel.array_params:
                space = "local" if p in self.kernel.local_arrays else "global"
                shape = str(array_length(p, self.kernel.grid))
                self.params[p] = ArrayType(scalar, shape, space)
            else:
                self.params[p] = scalar

    def _issue(self, line: int, message: str) -> None:
        # setup issues (line 0) must survive the non-collect passes
        if self._collect or line == 0:
            self.issues.append(TypeIssue(line, message))

    def _cast_note(self, line: int, message: str) -> None:
        if self._collect:
            self.casts.append(f"L{line}: {message}")

    # -- entry ----------------------------------------------------------

    def run(self) -> None:
        for _ in range(self._MAX_PASSES):
            before = dict(self.locals)
            self._walk_body(self.tree.body)
            if self.locals == before:
                break
        self._collect = True
        self._walk_body(self.tree.body)

    # -- name environment -----------------------------------------------

    def _lookup(self, name: str, line: int) -> AbsType | ArrayType:
        if name in self.locals:
            return self.locals[name]
        if name in self.params:
            return self.params[name]
        const = self._globals.get(name)
        if isinstance(const, bool):
            return BOOL
        if isinstance(const, int):
            return WEAK_INT  # module constants (UNCOLORED) act as literals
        if isinstance(const, float):
            return WEAK_FLOAT
        self._issue(line, f"unknown name {name!r}")
        return INT64

    def _bind(self, name: str, value: AbsType | ArrayType, line: int) -> None:
        cur = self.locals.get(name)
        if cur is None:
            if name in self.params:
                self._issue(line, f"parameter {name!r} reassigned in kernel body")
                return
            self.locals[name] = value
            return
        if isinstance(cur, ArrayType) or isinstance(value, ArrayType):
            if cur != value:
                self._issue(line, f"{name!r} rebound between array and scalar")
            return
        joined = self._join_scalar(cur, value, line, f"local {name!r}")
        self.locals[name] = joined

    def _join_scalar(
        self, a: AbsType, b: AbsType, line: int, what: str
    ) -> AbsType:
        if a.weak and not b.weak:
            a, b = b, a
        if b.weak:
            if a.kind == b.kind or (a.kind == "float" and b.kind == "int"):
                return a.strong() if a.weak else a
            self._issue(line, f"{what}: literal {b.name} incompatible with {a.name}")
            return a
        if a.kind != b.kind:
            self._issue(line, f"{what}: rebound across kinds ({a.name} vs {b.name})")
            return a if a.kind == "float" else b
        return a if a.bits >= b.bits else b

    # -- statements -----------------------------------------------------

    def _walk_body(self, stmts: list[ast.stmt]) -> None:
        for stmt in stmts:
            self._walk_stmt(stmt)

    def _walk_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            self._walk_assign(stmt)
        elif isinstance(stmt, ast.If):
            self._check_condition(stmt.test)
            self._walk_body(stmt.body)
            self._walk_body(stmt.orelse)
        elif isinstance(stmt, ast.For):
            self._walk_for(stmt)
        elif isinstance(stmt, ast.While):
            self._check_condition(stmt.test)
            self._walk_body(stmt.body)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._issue(stmt.lineno, "kernels must not return a value")
        elif isinstance(stmt, (ast.Break, ast.Continue, ast.Pass)):
            pass
        elif isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            pass  # docstring
        else:
            self._issue(
                stmt.lineno, f"unsupported statement {type(stmt).__name__}"
            )

    def _walk_assign(self, stmt: ast.Assign) -> None:
        if len(stmt.targets) != 1:
            self._issue(stmt.lineno, "multiple assignment targets unsupported")
            return
        target = stmt.targets[0]
        alloc = self._private_alloc(stmt.value)
        if alloc is not None:
            if isinstance(target, ast.Name):
                self._bind(target.id, alloc, stmt.lineno)
            else:
                self._issue(stmt.lineno, "array allocation must bind a name")
            return
        value = self._eval(stmt.value)
        if isinstance(target, ast.Name):
            if isinstance(value, ArrayType):
                self._issue(stmt.lineno, "aliasing an array parameter is unsupported")
                return
            self._bind(target.id, value.strong() if value.weak else value, stmt.lineno)
        elif isinstance(target, ast.Subscript):
            self._walk_store(target, value, stmt.lineno)
        else:
            self._issue(stmt.lineno, "unsupported assignment target")

    def _walk_store(
        self, target: ast.Subscript, value: AbsType | ArrayType, line: int
    ) -> None:
        arr = self._subscript_array(target)
        if arr is None:
            return
        name, atype = arr
        self._check_index(target.slice, line)
        elem = atype.elem
        if isinstance(value, ArrayType):
            self._issue(line, f"storing an array into {name!r}")
            return
        if value.weak:
            if value.kind == elem.kind or (elem.kind == "float" and value.kind == "int"):
                return  # literal adapts to the element dtype
            self._issue(line, f"literal {value.name} stored into {elem.name} {name!r}")
            return
        if value.kind != elem.kind:
            self._issue(
                line,
                f"implicit {value.name} → {elem.name} store into {name!r}",
            )
            return
        if value.bits > elem.bits:
            self._issue(
                line,
                f"narrowing store: {value.name} value into {elem.name} {name!r}",
            )
        elif value.bits < elem.bits:
            self._cast_note(line, f"{value.name} → {elem.name} storing to {name!r}")

    def _walk_for(self, stmt: ast.For) -> None:
        var = self._iter_type(stmt.iter)
        if isinstance(stmt.target, ast.Name):
            self._bind(stmt.target.id, var, stmt.lineno)
        else:
            self._issue(stmt.lineno, "unsupported loop target")
        self._walk_body(stmt.body)
        if stmt.orelse:
            self._issue(stmt.lineno, "for-else unsupported")

    def _iter_type(self, node: ast.expr) -> AbsType:
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "range"
            and 1 <= len(node.args) <= 3
        ):
            out: AbsType = WEAK_INT
            for arg in node.args:
                t = self._eval(arg)
                if isinstance(t, ArrayType) or t.kind not in ("int", "bool"):
                    self._issue(arg.lineno, "range() bound is not an integer")
                    continue
                out = self._promote_arith(out, t, node.lineno, note=True)
            return out.strong()
        if isinstance(node, (ast.Tuple, ast.List)) and all(
            isinstance(e, ast.Constant) and isinstance(e.value, int)
            and not isinstance(e.value, bool)
            for e in node.elts
        ):
            return INT32  # small constant reduction offsets
        self._issue(node.lineno, "unsupported loop iterable")
        return INT64

    def _check_condition(self, test: ast.expr) -> None:
        t = self._eval(test)
        if isinstance(t, ArrayType) or t.kind != "bool":
            self._issue(test.lineno, "branch condition is not boolean")

    # -- expressions ----------------------------------------------------

    def _eval(self, node: ast.expr) -> AbsType | ArrayType:
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool):
                return BOOL
            if isinstance(node.value, int):
                return WEAK_INT
            if isinstance(node.value, float):
                return WEAK_FLOAT
            self._issue(node.lineno, f"unsupported constant {node.value!r}")
            return INT64
        if isinstance(node, ast.Name):
            return self._lookup(node.id, node.lineno)
        if isinstance(node, ast.BinOp):
            return self._eval_binop(node)
        if isinstance(node, ast.Compare):
            return self._eval_compare(node)
        if isinstance(node, ast.BoolOp):
            for value in node.values:
                t = self._eval(value)
                if isinstance(t, ArrayType) or t.kind != "bool":
                    self._issue(value.lineno, "non-boolean operand of and/or")
            return BOOL
        if isinstance(node, ast.UnaryOp):
            operand = self._eval(node.operand)
            if isinstance(node.op, ast.Not):
                if isinstance(operand, ArrayType) or operand.kind != "bool":
                    self._issue(node.lineno, "`not` applied to non-boolean")
                return BOOL
            if isinstance(node.op, (ast.USub, ast.UAdd)):
                if isinstance(operand, ArrayType) or operand.kind == "bool":
                    self._issue(node.lineno, "unary +/- on non-numeric")
                    return INT64
                return operand
            self._issue(node.lineno, "unsupported unary operator")
            return INT64
        if isinstance(node, ast.Subscript):
            arr = self._subscript_array(node)
            self._check_index(node.slice, node.lineno)
            return INT64 if arr is None else arr[1].elem
        self._issue(node.lineno, f"unsupported expression {type(node).__name__}")
        return INT64

    def _eval_binop(self, node: ast.BinOp) -> AbsType:
        left, right = self._eval(node.left), self._eval(node.right)
        if not isinstance(node.op, (ast.Add, ast.Sub, ast.Mult)):
            self._issue(node.lineno, "unsupported arithmetic operator")
            return INT64
        for side in (left, right):
            if isinstance(side, ArrayType):
                self._issue(node.lineno, "array operand in arithmetic")
                return INT64
            if side.kind == "bool":
                self._issue(node.lineno, "boolean operand in arithmetic")
                return INT64
        assert isinstance(left, AbsType) and isinstance(right, AbsType)
        return self._promote_arith(left, right, node.lineno, note=True)

    def _eval_compare(self, node: ast.Compare) -> AbsType:
        if len(node.ops) != 1:
            self._issue(node.lineno, "chained comparisons unsupported")
        left = self._eval(node.left)
        for comparator in node.comparators:
            right = self._eval(comparator)
            if isinstance(left, ArrayType) or isinstance(right, ArrayType):
                self._issue(node.lineno, "array operand in comparison")
                continue
            if left.kind == "bool" and right.kind == "bool":
                continue
            if "bool" in (left.kind, right.kind):
                self._issue(node.lineno, "boolean compared with number")
                continue
            self._promote_arith(left, right, node.lineno, note=True)
        return BOOL

    def _promote_arith(
        self, a: AbsType, b: AbsType, line: int, *, note: bool
    ) -> AbsType:
        """NEP-50-style promotion; mixed strong int/float is an error."""
        if a.weak and not b.weak:
            a, b = b, a
        if b.weak:
            if a.kind == b.kind:
                return a  # literal adapts, even when a is weak too
            if a.kind == "float" and b.kind == "int":
                return a
            if a.kind == "int" and b.kind == "float":
                self._issue(line, f"float literal mixed with {a.name}")
                return FLOAT64
            return a
        if a.kind != b.kind:
            self._issue(
                line,
                f"implicit mixed-dtype arithmetic: {a.name} with {b.name}",
            )
            return a if a.kind == "float" else b
        if a.bits != b.bits:
            narrow, wide = (a, b) if a.bits < b.bits else (b, a)
            if note:
                self._cast_note(line, f"{narrow.name} → {wide.name}")
            return wide
        return a

    # -- arrays ----------------------------------------------------------

    def _subscript_array(
        self, node: ast.Subscript
    ) -> tuple[str, ArrayType] | None:
        if not isinstance(node.value, ast.Name):
            self._issue(node.lineno, "subscript of a non-name expression")
            return None
        name = node.value.id
        known = self.locals.get(name) or self.params.get(name)
        if not isinstance(known, ArrayType):
            self._issue(node.lineno, f"subscript of non-array {name!r}")
            return None
        return name, known

    def _check_index(self, index: ast.expr, line: int) -> None:
        t = self._eval(index)
        if isinstance(t, ArrayType) or t.kind != "int":
            self._issue(line, "array index is not an integer")

    def _private_alloc(self, node: ast.expr) -> ArrayType | None:
        if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)):
            return None
        for elems, count in ((node.left, node.right), (node.right, node.left)):
            if isinstance(elems, ast.List):
                if len(elems.elts) != 1 or not isinstance(elems.elts[0], ast.Constant):
                    self._issue(node.lineno, "private allocation must repeat one constant")
                    return ArrayType(INT64, "?", "private")
                init = elems.elts[0].value
                if isinstance(init, bool):
                    elem = BOOL
                elif isinstance(init, int):
                    elem = INT64
                elif isinstance(init, float):
                    elem = FLOAT64
                else:
                    self._issue(node.lineno, f"unsupported element init {init!r}")
                    elem = INT64
                count_t = self._eval(count)
                if isinstance(count_t, ArrayType) or count_t.kind != "int":
                    self._issue(node.lineno, "private allocation length is not an integer")
                return ArrayType(elem, ast.unparse(count), "private")
        return None


# ----------------------------------------------------------------------
# public API
# ----------------------------------------------------------------------


def infer_kernel_types(kernel: DeviceKernel) -> KernelTypeReport:
    """The dtype/shape certificate of one kernel spec.

    The report keeps the parsed AST as ``tree``; the overflow prover
    walks that same tree.
    """
    tree = kernel_ast(kernel)
    walker = _TypeWalker(kernel, tree)
    walker.run()
    arrays = {
        name: value
        for name, value in {**walker.params, **walker.locals}.items()
        if isinstance(value, ArrayType)
    }
    return KernelTypeReport(
        kernel=kernel.name,
        tree=tree,
        params={
            name: (value.elem.name if isinstance(value, ArrayType) else value.name)
            for name, value in walker.params.items()
        },
        locals={
            name: value.strong().name
            for name, value in walker.locals.items()
            if isinstance(value, AbsType)
        },
        arrays=arrays,
        casts=walker.casts,
        issues=walker.issues,
    )


def infer_all_types() -> list[KernelTypeReport]:
    """Type certificates for every registered device kernel."""
    return [infer_kernel_types(k) for k in DEVICE_KERNELS.values()]
