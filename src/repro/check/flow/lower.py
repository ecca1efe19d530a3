"""Verified lowering of certified kernel specs into a typed IR.

This is the S44 gate made executable. DESIGN.md's S44 note says a
compiled kernel may only run where the dynamic race scan cannot watch
it when its static proofs stand in for that scan; this module enforces
that in code. :func:`lower_kernel` will only translate a spec whose
**certificate** is complete:

* a ``memsafe`` ok-verdict (every subscript proven in bounds —
  :mod:`~repro.check.flow.memsafe`),
* a clean dtype/shape report (every expression typed, no implicit
  mixed-dtype arithmetic or narrowing —
  :mod:`~repro.check.flow.types`),
* a clean width report (every integer intermediate proven to fit its
  declared width under the scale premises —
  :mod:`~repro.check.flow.overflow`).

Anything less raises :exc:`LoweringRefused` — there is no flag to
bypass it.

The target is a small typed IR: three-address ops over named operands
(params, locals, ``_tN`` temporaries), **explicit casts** wherever the
Python spec relied on implicit integer widening, and the loop/guard
structure of the source (``if``/``for range``/constant-tuple loops).
:func:`emit_c` turns it into C99 source, one static function per
kernel plus a ``launch_<name>`` host loop (ascending thread ids;
wavefront kernels run lanes descending, the lockstep-equivalent
serialization the spec-equivalence tests already pin).
:func:`compile_c` builds it via cffi into a :class:`CompiledLauncher`
that plugs into :func:`repro.coloring.interp.run_coloring`.

The differential tests run full colorings through the compiled
launcher and the per-thread interpreter and require bit-identical
colors.
"""

from __future__ import annotations

import ast
import hashlib
import importlib.util
import tempfile
from dataclasses import dataclass, field
from typing import Any

from ...coloring.device_kernels import (
    DEVICE_KERNELS,
    THREAD_ID_PARAMS,
    WAVEFRONT_ID_PARAMS,
    DeviceKernel,
    kernel_ast,
)
from ..concurrency import DEFAULT_WAVEFRONT_SIZE
from .memsafe import KernelMemReport, verify_kernel
from .overflow import KernelOverflowReport, certify_kernel
from .types import (
    AbsType,
    ArrayType,
    KernelTypeReport,
    infer_kernel_types,
    parse_dtype,
)

__all__ = [
    "CompiledLauncher",
    "IRKernel",
    "IRParam",
    "KernelCertificate",
    "LoweringRefused",
    "certificate_for",
    "compile_c",
    "emit_c",
    "lower_all",
    "lower_kernel",
    "render_ir",
]

_ID_PARAMS = set(THREAD_ID_PARAMS) | set(WAVEFRONT_ID_PARAMS)


# ----------------------------------------------------------------------
# the certificate gate
# ----------------------------------------------------------------------


class LoweringRefused(RuntimeError):
    """A kernel was submitted for lowering without a full certificate."""


@dataclass
class KernelCertificate:
    """The three proofs the S44 gate demands, bundled."""

    kernel: str
    mem: KernelMemReport
    types: KernelTypeReport
    overflow: KernelOverflowReport

    @property
    def reasons(self) -> list[str]:
        out: list[str] = []
        for site in self.mem.unproven:
            out.append(f"memsafe: unproven bounds — {site.describe()}")
        for issue in self.types.issues:
            out.append(f"types: L{issue.line}: {issue.message}")
        for issue in self.overflow.issues:
            out.append(f"overflow: {issue}")
        if self.overflow.verdict == "unprovable" and not self.overflow.issues:
            out.append("overflow: verdict unprovable")
        return out

    @property
    def ok(self) -> bool:
        return not self.reasons

    def verdicts(self) -> dict[str, str]:
        return {
            "memsafe": "ok" if self.mem.bounds_ok else "unproven-bounds",
            "types": "ok" if self.types.ok else "rejected",
            "overflow": self.overflow.verdict if self.overflow.ok else "rejected",
        }

    def to_dict(self) -> dict[str, Any]:
        return {
            "kernel": self.kernel,
            "ok": self.ok,
            "verdicts": self.verdicts(),
            "reasons": self.reasons,
        }


def certificate_for(
    kernel: DeviceKernel, *, wavefront_size: int = DEFAULT_WAVEFRONT_SIZE
) -> KernelCertificate:
    """Run all three certifying passes over one shared kernel AST."""
    tree = kernel_ast(kernel)
    types_report = infer_kernel_types(kernel, tree)
    overflow_report = certify_kernel(
        kernel, types_report, wavefront_size=wavefront_size
    )
    mem_report = verify_kernel(kernel, wavefront_size=wavefront_size)
    return KernelCertificate(
        kernel=kernel.name,
        mem=mem_report,
        types=types_report,
        overflow=overflow_report,
    )


# ----------------------------------------------------------------------
# the typed IR
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class IRParam:
    name: str
    dtype: str
    is_array: bool
    written: bool = False  # arrays only: any Store targets it
    is_uniform: bool = False
    is_id: bool = False


@dataclass(frozen=True)
class Const:
    dest: str
    dtype: str
    value: Any


@dataclass(frozen=True)
class Load:
    dest: str
    dtype: str
    array: str
    index: str


@dataclass(frozen=True)
class Store:
    array: str
    index: str
    value: str


@dataclass(frozen=True)
class Bin:
    dest: str
    dtype: str
    op: str  # "+" | "-" | "*"
    left: str
    right: str


@dataclass(frozen=True)
class Cmp:
    dest: str
    op: str  # "<" | "<=" | ">" | ">=" | "==" | "!="
    left: str
    right: str


@dataclass(frozen=True)
class BoolExpr:
    dest: str
    op: str  # "and" | "or"
    operands: tuple[str, ...]


@dataclass(frozen=True)
class Not:
    dest: str
    operand: str


@dataclass(frozen=True)
class Cast:
    dest: str
    dtype: str
    src: str
    src_dtype: str


@dataclass(frozen=True)
class SetLocal:
    name: str
    src: str


@dataclass(frozen=True)
class Alloc:
    name: str
    dtype: str
    length: str  # operand holding the element count (zero-initialized)


@dataclass
class If:
    cond: str
    then: list[Any] = field(default_factory=list)
    orelse: list[Any] = field(default_factory=list)


@dataclass
class ForRange:
    var: str
    dtype: str
    start: str
    stop: str
    step: str | None  # None: unit step
    body: list[Any] = field(default_factory=list)


@dataclass
class ForConst:
    var: str
    dtype: str
    values: tuple[int, ...]
    body: list[Any] = field(default_factory=list)


@dataclass(frozen=True)
class Return:
    pass


@dataclass(frozen=True)
class Break:
    pass


@dataclass(frozen=True)
class Continue:
    pass


@dataclass
class IRKernel:
    """One lowered kernel: typed params, typed locals, structured body."""

    name: str
    mapping: str
    grid: str
    params: list[IRParam]
    locals: dict[str, str]  # scalar locals (loop vars included)
    temps: dict[str, str]
    body: list[Any]

    @property
    def written_arrays(self) -> frozenset[str]:
        return frozenset(p.name for p in self.params if p.written)


def _walk_ir(body: list[Any]):
    for ins in body:
        yield ins
        if isinstance(ins, If):
            yield from _walk_ir(ins.then)
            yield from _walk_ir(ins.orelse)
        elif isinstance(ins, (ForRange, ForConst)):
            yield from _walk_ir(ins.body)


# ----------------------------------------------------------------------
# lowering
# ----------------------------------------------------------------------

_BIN_OPS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*"}
_CMP_OPS = {
    ast.Lt: "<",
    ast.LtE: "<=",
    ast.Gt: ">",
    ast.GtE: ">=",
    ast.Eq: "==",
    ast.NotEq: "!=",
}


class _Lowerer:
    """Translates one certified kernel AST into the typed IR."""

    def __init__(self, kernel: DeviceKernel, types_report: KernelTypeReport) -> None:
        self.kernel = kernel
        self.types = types_report
        self._globals = getattr(kernel.fn, "__globals__", {})
        self._tmp_count = 0
        self.temps: dict[str, str] = {}
        self.scalars: dict[str, AbsType] = {}
        self.arrays: dict[str, ArrayType] = dict(types_report.arrays)
        for name, dtype in types_report.params.items():
            if name not in self.arrays:
                parsed = parse_dtype(dtype)
                assert parsed is not None
                self.scalars[name] = parsed
        for name, dtype in types_report.locals.items():
            parsed = parse_dtype(dtype)
            assert parsed is not None
            self.scalars[name] = parsed

    def lower(self) -> IRKernel:
        body: list[Any] = []
        for stmt in self.types.tree.body:
            self._stmt(stmt, body)
        written = {
            ins.array for ins in _walk_ir(body) if isinstance(ins, Store)
        }
        params = []
        for p in self.kernel.params:
            if p in self.arrays:
                params.append(
                    IRParam(
                        name=p,
                        dtype=self.arrays[p].elem.name,
                        is_array=True,
                        written=p in written,
                    )
                )
            else:
                params.append(
                    IRParam(
                        name=p,
                        dtype=self.scalars[p].name,
                        is_array=False,
                        is_uniform=p in self.kernel.uniform_params,
                        is_id=p in _ID_PARAMS,
                    )
                )
        locals_out = {
            name: t.name
            for name, t in self.scalars.items()
            if name not in self.kernel.params
        }
        return IRKernel(
            name=self.kernel.name,
            mapping=self.kernel.mapping,
            grid=self.kernel.grid,
            params=params,
            locals=locals_out,
            temps=dict(self.temps),
            body=body,
        )

    # -- helpers ---------------------------------------------------------

    def _tmp(self, dtype: AbsType) -> str:
        name = f"_t{self._tmp_count}"
        self._tmp_count += 1
        self.temps[name] = dtype.name
        return name

    def _rec_type(self, node: ast.expr) -> AbsType:
        t = self.types.expr_types.get(id(node))
        if t is None:
            raise LoweringRefused(
                f"{self.kernel.name}: expression at line {node.lineno} "
                "was not typed by the inference pass"
            )
        return t

    @staticmethod
    def _concretize(t: AbsType, hint: AbsType | None) -> AbsType:
        if not t.weak:
            return t
        if hint is not None and (
            hint.kind == t.kind or (hint.kind == "float" and t.kind == "int")
        ):
            return hint
        return t.strong()

    @staticmethod
    def _merge(a: AbsType, b: AbsType) -> AbsType:
        """The common dtype two certified operands meet at."""
        if a.weak and not b.weak:
            a, b = b, a
        if b.weak:
            return a.strong()
        if a.kind != b.kind:  # types pass already rejected real mixes
            return a if a.kind == "float" else b
        return a if a.bits >= b.bits else b

    def _const(self, block: list[Any], value: Any, dtype: AbsType) -> str:
        dest = self._tmp(dtype)
        block.append(Const(dest, dtype.name, value))
        return dest

    def _coerce(
        self, block: list[Any], name: str, have: AbsType, want: AbsType
    ) -> str:
        if have.name == want.name:
            return name
        dest = self._tmp(want)
        block.append(Cast(dest, want.name, name, have.name))
        return dest

    # -- expressions -----------------------------------------------------

    def _expr(
        self, node: ast.expr, block: list[Any], hint: AbsType | None = None
    ) -> tuple[str, AbsType]:
        if isinstance(node, ast.Constant):
            dtype = self._concretize(self._rec_type(node), hint)
            return self._const(block, node.value, dtype), dtype
        if isinstance(node, ast.Name):
            if node.id in self.scalars:
                return node.id, self.scalars[node.id]
            value = self._globals.get(node.id)
            if isinstance(value, (bool, int, float)):
                dtype = self._concretize(self._rec_type(node), hint)
                return self._const(block, value, dtype), dtype
            raise LoweringRefused(f"{self.kernel.name}: unlowerable name {node.id!r}")
        if isinstance(node, ast.BinOp):
            target = self._rec_type(node).strong()
            op = _BIN_OPS.get(type(node.op))
            if op is None:
                raise LoweringRefused(f"{self.kernel.name}: unsupported operator")
            left, lt = self._expr(node.left, block, hint=target)
            right, rt = self._expr(node.right, block, hint=target)
            left = self._coerce(block, left, lt, target)
            right = self._coerce(block, right, rt, target)
            dest = self._tmp(target)
            block.append(Bin(dest, target.name, op, left, right))
            return dest, target
        if isinstance(node, ast.Compare):
            op = _CMP_OPS.get(type(node.ops[0]))
            if op is None or len(node.ops) != 1:
                raise LoweringRefused(f"{self.kernel.name}: unsupported comparison")
            comparand = node.comparators[0]
            target = self._merge(
                self._rec_type(node.left), self._rec_type(comparand)
            )
            left, lt = self._expr(node.left, block, hint=target)
            right, rt = self._expr(comparand, block, hint=target)
            left = self._coerce(block, left, lt, target)
            right = self._coerce(block, right, rt, target)
            dest = self._tmp(AbsType("bool", 8))
            block.append(Cmp(dest, op, left, right))
            return dest, AbsType("bool", 8)
        if isinstance(node, ast.BoolOp):
            op = "and" if isinstance(node.op, ast.And) else "or"
            operands = tuple(self._expr(v, block)[0] for v in node.values)
            dest = self._tmp(AbsType("bool", 8))
            block.append(BoolExpr(dest, op, operands))
            return dest, AbsType("bool", 8)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            operand, _ = self._expr(node.operand, block)
            dest = self._tmp(AbsType("bool", 8))
            block.append(Not(dest, operand))
            return dest, AbsType("bool", 8)
        if isinstance(node, ast.Subscript):
            return self._load(node, block)
        raise LoweringRefused(
            f"{self.kernel.name}: unlowerable expression "
            f"{type(node).__name__} at line {node.lineno}"
        )

    def _load(self, node: ast.Subscript, block: list[Any]) -> tuple[str, AbsType]:
        array, index = self._subscript(node, block)
        elem = self.arrays[array].elem
        dest = self._tmp(elem)
        block.append(Load(dest, elem.name, array, index))
        return dest, elem

    def _subscript(self, node: ast.Subscript, block: list[Any]) -> tuple[str, str]:
        if not isinstance(node.value, ast.Name) or node.value.id not in self.arrays:
            raise LoweringRefused(f"{self.kernel.name}: unlowerable subscript")
        index, _ = self._expr(node.slice, block)
        return node.value.id, index

    # -- statements ------------------------------------------------------

    def _stmt(self, stmt: ast.stmt, block: list[Any]) -> None:
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            return  # docstring
        if isinstance(stmt, ast.Assign):
            self._assign(stmt, block)
            return
        if isinstance(stmt, ast.If):
            cond, _ = self._expr(stmt.test, block)
            node = If(cond=cond)
            for inner in stmt.body:
                self._stmt(inner, node.then)
            for inner in stmt.orelse:
                self._stmt(inner, node.orelse)
            block.append(node)
            return
        if isinstance(stmt, ast.For):
            self._for(stmt, block)
            return
        if isinstance(stmt, ast.Return):
            block.append(Return())
            return
        if isinstance(stmt, ast.Break):
            block.append(Break())
            return
        if isinstance(stmt, ast.Continue):
            block.append(Continue())
            return
        raise LoweringRefused(
            f"{self.kernel.name}: unlowerable statement {type(stmt).__name__}"
        )

    def _assign(self, stmt: ast.Assign, block: list[Any]) -> None:
        if len(stmt.targets) != 1:
            raise LoweringRefused(f"{self.kernel.name}: multiple targets")
        target = stmt.targets[0]
        if isinstance(target, ast.Name) and target.id in self.arrays:
            self._alloc(target.id, stmt.value, block)
            return
        if isinstance(target, ast.Name):
            want = self.scalars[target.id]
            value, have = self._expr(stmt.value, block, hint=want)
            value = self._coerce(block, value, have, want)
            block.append(SetLocal(target.id, value))
            return
        if isinstance(target, ast.Subscript):
            array, index = self._subscript(target, block)
            elem = self.arrays[array].elem
            value, have = self._expr(stmt.value, block, hint=elem)
            value = self._coerce(block, value, have, elem)
            block.append(Store(array, index, value))
            return
        raise LoweringRefused(f"{self.kernel.name}: unlowerable assignment target")

    def _alloc(self, name: str, value: ast.expr, block: list[Any]) -> None:
        if not (isinstance(value, ast.BinOp) and isinstance(value.op, ast.Mult)):
            raise LoweringRefused(f"{self.kernel.name}: unlowerable allocation")
        for elems, count in ((value.left, value.right), (value.right, value.left)):
            if isinstance(elems, ast.List):
                length, _ = self._expr(count, block)
                block.append(Alloc(name, self.arrays[name].elem.name, length))
                return
        raise LoweringRefused(f"{self.kernel.name}: unlowerable allocation")

    def _for(self, stmt: ast.For, block: list[Any]) -> None:
        if not isinstance(stmt.target, ast.Name):
            raise LoweringRefused(f"{self.kernel.name}: unlowerable loop target")
        var = stmt.target.id
        var_t = self.scalars[var]
        node = stmt.iter
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "range"
            and 1 <= len(node.args) <= 3
        ):
            bounds = []
            for arg in node.args:
                operand, have = self._expr(arg, block, hint=var_t)
                bounds.append(self._coerce(block, operand, have, var_t))
            if len(bounds) == 1:
                start = self._const(block, 0, var_t)
                stop, step = bounds[0], None
            elif len(bounds) == 2:
                start, stop = bounds
                step = None
            else:
                start, stop, step = bounds
            loop = ForRange(var=var, dtype=var_t.name, start=start, stop=stop, step=step)
            for inner in stmt.body:
                self._stmt(inner, loop.body)
            block.append(loop)
            return
        if isinstance(node, (ast.Tuple, ast.List)):
            values = tuple(
                e.value
                for e in node.elts
                if isinstance(e, ast.Constant) and isinstance(e.value, int)
            )
            if len(values) == len(node.elts):
                loop_c = ForConst(var=var, dtype=var_t.name, values=values)
                for inner in stmt.body:
                    self._stmt(inner, loop_c.body)
                block.append(loop_c)
                return
        raise LoweringRefused(f"{self.kernel.name}: unlowerable loop iterable")


def lower_kernel(
    kernel: DeviceKernel,
    certificate: KernelCertificate | None = None,
    *,
    wavefront_size: int = DEFAULT_WAVEFRONT_SIZE,
) -> IRKernel:
    """Lower one kernel — refused unless its certificate is complete."""
    if certificate is None:
        certificate = certificate_for(kernel, wavefront_size=wavefront_size)
    if certificate.kernel != kernel.name:
        raise LoweringRefused(
            f"certificate for {certificate.kernel!r} does not cover "
            f"kernel {kernel.name!r}"
        )
    if not certificate.ok:
        detail = "; ".join(certificate.reasons)
        raise LoweringRefused(
            f"kernel {kernel.name!r} lacks a full certificate: {detail}"
        )
    return _Lowerer(kernel, certificate.types).lower()


def lower_all(
    *, wavefront_size: int = DEFAULT_WAVEFRONT_SIZE
) -> list[IRKernel]:
    """Lower every registered kernel (each individually gated)."""
    return [
        lower_kernel(k, wavefront_size=wavefront_size)
        for k in DEVICE_KERNELS.values()
    ]


# ----------------------------------------------------------------------
# IR rendering
# ----------------------------------------------------------------------


def _render_block(body: list[Any], lines: list[str], depth: int) -> None:
    pad = "  " * depth
    for ins in body:
        if isinstance(ins, Const):
            lines.append(f"{pad}{ins.dest}: {ins.dtype} = const {ins.value!r}")
        elif isinstance(ins, Load):
            lines.append(f"{pad}{ins.dest}: {ins.dtype} = load {ins.array}[{ins.index}]")
        elif isinstance(ins, Store):
            lines.append(f"{pad}store {ins.array}[{ins.index}] = {ins.value}")
        elif isinstance(ins, Bin):
            lines.append(
                f"{pad}{ins.dest}: {ins.dtype} = {ins.left} {ins.op} {ins.right}"
            )
        elif isinstance(ins, Cmp):
            lines.append(f"{pad}{ins.dest}: bool = {ins.left} {ins.op} {ins.right}")
        elif isinstance(ins, BoolExpr):
            joined = f" {ins.op} ".join(ins.operands)
            lines.append(f"{pad}{ins.dest}: bool = {joined}")
        elif isinstance(ins, Not):
            lines.append(f"{pad}{ins.dest}: bool = not {ins.operand}")
        elif isinstance(ins, Cast):
            lines.append(
                f"{pad}{ins.dest}: {ins.dtype} = cast[{ins.src_dtype} -> {ins.dtype}] {ins.src}"
            )
        elif isinstance(ins, SetLocal):
            lines.append(f"{pad}{ins.name} = {ins.src}")
        elif isinstance(ins, Alloc):
            lines.append(f"{pad}{ins.name} = alloc {ins.dtype}[{ins.length}] (private, zeroed)")
        elif isinstance(ins, If):
            lines.append(f"{pad}if {ins.cond}:")
            _render_block(ins.then, lines, depth + 1)
            if ins.orelse:
                lines.append(f"{pad}else:")
                _render_block(ins.orelse, lines, depth + 1)
        elif isinstance(ins, ForRange):
            step = f", step {ins.step}" if ins.step is not None else ""
            lines.append(
                f"{pad}for {ins.var}: {ins.dtype} in [{ins.start}, {ins.stop}){step}:"
            )
            _render_block(ins.body, lines, depth + 1)
        elif isinstance(ins, ForConst):
            lines.append(f"{pad}for {ins.var}: {ins.dtype} in {ins.values}:")
            _render_block(ins.body, lines, depth + 1)
        elif isinstance(ins, Return):
            lines.append(f"{pad}return")
        elif isinstance(ins, Break):
            lines.append(f"{pad}break")
        elif isinstance(ins, Continue):
            lines.append(f"{pad}continue")
        else:  # pragma: no cover - exhaustive
            raise AssertionError(f"unrenderable instruction {ins!r}")


def render_ir(ir: IRKernel) -> str:
    """Human-readable text form of one lowered kernel."""
    sig = ", ".join(
        f"{p.name}: {p.dtype}{'[]' if p.is_array else ''}"
        + ("" if p.written or not p.is_array else " const")
        for p in ir.params
    )
    lines = [f"kernel {ir.name}({sig})  # {ir.mapping}/{ir.grid} grid"]
    for name, dtype in ir.locals.items():
        lines.append(f"  local {name}: {dtype}")
    _render_block(ir.body, lines, 1)
    return "\n".join(lines)


# ----------------------------------------------------------------------
# C emitter
# ----------------------------------------------------------------------

_CTYPE = {
    "bool": "uint8_t",
    "int32": "int32_t",
    "int64": "int64_t",
    "float32": "float",
    "float64": "double",
}


def _c_literal(value: Any, dtype: str) -> str:
    if dtype == "bool":
        return "1" if value else "0"
    if dtype.startswith("float"):
        return repr(float(value))
    if dtype == "int64":
        return f"INT64_C({int(value)})"
    return str(int(value))


def _c_param(p: IRParam) -> str:
    ctype = _CTYPE[p.dtype]
    if p.is_array:
        const = "" if p.written else "const "
        return f"{const}{ctype} *{p.name}"
    return f"{ctype} {p.name}"


def _c_block(
    body: list[Any], lines: list[str], depth: int, counters: dict[str, int]
) -> None:
    pad = "    " * depth
    for ins in body:
        if isinstance(ins, Const):
            lines.append(
                f"{pad}{_CTYPE[ins.dtype]} {ins.dest} = {_c_literal(ins.value, ins.dtype)};"
            )
        elif isinstance(ins, Load):
            lines.append(
                f"{pad}{_CTYPE[ins.dtype]} {ins.dest} = {ins.array}[{ins.index}];"
            )
        elif isinstance(ins, Store):
            lines.append(f"{pad}{ins.array}[{ins.index}] = {ins.value};")
        elif isinstance(ins, Bin):
            lines.append(
                f"{pad}{_CTYPE[ins.dtype]} {ins.dest} = {ins.left} {ins.op} {ins.right};"
            )
        elif isinstance(ins, Cmp):
            lines.append(
                f"{pad}uint8_t {ins.dest} = ({ins.left} {ins.op} {ins.right});"
            )
        elif isinstance(ins, BoolExpr):
            op = " && " if ins.op == "and" else " || "
            lines.append(f"{pad}uint8_t {ins.dest} = ({op.join(ins.operands)});")
        elif isinstance(ins, Not):
            lines.append(f"{pad}uint8_t {ins.dest} = !{ins.operand};")
        elif isinstance(ins, Cast):
            ctype = _CTYPE[ins.dtype]
            lines.append(f"{pad}{ctype} {ins.dest} = ({ctype}){ins.src};")
        elif isinstance(ins, SetLocal):
            lines.append(f"{pad}{ins.name} = {ins.src};")
        elif isinstance(ins, Alloc):
            ctype = _CTYPE[ins.dtype]
            lines.append(f"{pad}{ctype} {ins.name}[{ins.length}];")
            lines.append(
                f"{pad}memset({ins.name}, 0, (size_t){ins.length} * sizeof({ctype}));"
            )
        elif isinstance(ins, If):
            lines.append(f"{pad}if ({ins.cond}) {{")
            _c_block(ins.then, lines, depth + 1, counters)
            if ins.orelse:
                lines.append(f"{pad}}} else {{")
                _c_block(ins.orelse, lines, depth + 1, counters)
            lines.append(f"{pad}}}")
        elif isinstance(ins, ForRange):
            step = ins.step if ins.step is not None else "1"
            lines.append(
                f"{pad}for ({ins.var} = {ins.start}; "
                f"{ins.var} < {ins.stop}; {ins.var} += {step}) {{"
            )
            _c_block(ins.body, lines, depth + 1, counters)
            lines.append(f"{pad}}}")
        elif isinstance(ins, ForConst):
            tag = counters["const_loop"]
            counters["const_loop"] += 1
            ctype = _CTYPE[ins.dtype]
            vals = ", ".join(str(v) for v in ins.values)
            lines.append(
                f"{pad}static const {ctype} _vals{tag}[{len(ins.values)}] = {{{vals}}};"
            )
            lines.append(
                f"{pad}for (int32_t _i{tag} = 0; _i{tag} < {len(ins.values)}; _i{tag}++) {{"
            )
            lines.append(f"{pad}    {ins.var} = _vals{tag}[_i{tag}];")
            _c_block(ins.body, lines, depth + 1, counters)
            lines.append(f"{pad}}}")
        elif isinstance(ins, Return):
            lines.append(f"{pad}return;")
        elif isinstance(ins, Break):
            lines.append(f"{pad}break;")
        elif isinstance(ins, Continue):
            lines.append(f"{pad}continue;")
        else:  # pragma: no cover - exhaustive
            raise AssertionError(f"unemittable instruction {ins!r}")


def _c_kernel(ir: IRKernel) -> list[str]:
    sig = ", ".join(_c_param(p) for p in ir.params)
    lines = [f"static void {ir.name}({sig})", "{"]
    private = {ins.name for ins in _walk_ir(ir.body) if isinstance(ins, Alloc)}
    for name, dtype in ir.locals.items():
        if name in private:
            continue
        # Python locals are function-scoped; loop vars included.
        lines.append(f"    {_CTYPE[dtype]} {name} = 0;")
    _c_block(ir.body, lines, 1, {"const_loop": 0})
    lines.append("}")
    return lines


def _launcher_params(ir: IRKernel) -> list[IRParam]:
    return [p for p in ir.params if not p.is_id]


def _c_launcher_sig(ir: IRKernel) -> str:
    params = ", ".join(["int64_t count"] + [_c_param(p) for p in _launcher_params(ir)])
    return f"void launch_{ir.name}({params})"


def _c_launcher(ir: IRKernel) -> list[str]:
    call_args = ", ".join(p.name for p in _launcher_params(ir))
    lines = [f"{_c_launcher_sig(ir)}", "{"]
    if ir.mapping == "wavefront":
        lines += [
            "    for (int64_t wid = 0; wid < count; wid++) {",
            "        /* descending lanes == lockstep for the reduction */",
            "        for (int64_t lane = (int64_t)wavefront_size - 1; lane >= 0; lane--) {",
            f"            {ir.name}(wid, lane, {call_args});",
            "        }",
            "    }",
        ]
    else:
        lines += [
            "    for (int64_t tid = 0; tid < count; tid++) {",
            f"        {ir.name}(tid, {call_args});",
            "    }",
        ]
    lines.append("}")
    return lines


def emit_c(irs: list[IRKernel]) -> tuple[str, str]:
    """C99 source for the lowered kernels plus the cffi cdef block."""
    body: list[str] = [
        "/* generated from the certified device-kernel specs; do not edit */",
        "#include <stdint.h>",
        "#include <string.h>",
        "",
    ]
    cdefs: list[str] = []
    for ir in irs:
        body.extend(_c_kernel(ir))
        body.append("")
        body.extend(_c_launcher(ir))
        body.append("")
        cdefs.append(f"{_c_launcher_sig(ir)};")
    return "\n".join(body), "\n".join(cdefs)


# ----------------------------------------------------------------------
# launchers over emitted code
# ----------------------------------------------------------------------


class CompiledLauncher:
    """Kernel launches through the cffi-compiled emitted C."""

    def __init__(self, ffi: Any, lib: Any, writes: dict[str, frozenset[str]]):
        self._ffi = ffi
        self._lib = lib
        self._writes = writes

    def launch(self, name: str, count: int, /, **params: Any) -> None:
        kernel = DEVICE_KERNELS[name]
        fn = getattr(self._lib, f"launch_{name}")
        dtypes = kernel.dtypes
        args: list[Any] = [int(count)]
        keepalive: list[Any] = []
        for p in kernel.params:
            if p in _ID_PARAMS:
                continue
            value = params[p]
            if p in kernel.uniform_params:
                args.append(int(value))
                continue
            expect = dtypes[p]
            if str(value.dtype) != expect:
                raise TypeError(
                    f"{name}: array {p!r} is {value.dtype}, spec declares {expect}"
                )
            buf = self._ffi.from_buffer(
                f"{_CTYPE[expect]}[]",
                value,
                require_writable=p in self._writes.get(name, frozenset()),
            )
            keepalive.append(buf)
            args.append(buf)
        fn(*args)


def compile_c(
    kernels: list[DeviceKernel] | None = None,
    *,
    tmpdir: str | None = None,
    wavefront_size: int = DEFAULT_WAVEFRONT_SIZE,
) -> CompiledLauncher:
    """Lower, emit, and cffi-compile kernels into a launcher.

    Every kernel passes through the certificate gate first; the
    returned launcher plugs into
    :func:`repro.coloring.interp.run_coloring`.
    """
    import cffi

    if kernels is None:
        kernels = list(DEVICE_KERNELS.values())
    irs = [lower_kernel(k, wavefront_size=wavefront_size) for k in kernels]
    source, cdef = emit_c(irs)
    module_name = (
        "_repro_lowered_" + hashlib.sha1(source.encode()).hexdigest()[:12]
    )
    ffi = cffi.FFI()
    ffi.cdef(cdef)
    ffi.set_source(module_name, source)
    build_dir = tmpdir or tempfile.mkdtemp(prefix="repro-lowered-")
    lib_path = ffi.compile(tmpdir=build_dir, verbose=False)
    spec = importlib.util.spec_from_file_location(module_name, lib_path)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    writes = {ir.name: ir.written_arrays for ir in irs}
    return CompiledLauncher(module.ffi, module.lib, writes)

