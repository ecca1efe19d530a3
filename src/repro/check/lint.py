"""Repo-specific AST lint pass — rules generic linters can't know.

These rules encode *this* codebase's architectural contracts; each has
a determinism or correctness rationale that ruff/flake8 cannot express:

* ``RC001`` **seeded-rng** — no unseeded ``np.random.*``. Every run
  must be a pure function of its seed (the determinism harness hashes
  colors), so legacy global-state RNG calls (``np.random.rand``,
  ``np.random.shuffle``, ...) and ``np.random.default_rng()`` with no
  seed are banned; use a seeded ``Generator``.
* ``RC002`` **no-wall-clock-in-sim** — no ``time.*`` /
  ``datetime.now`` inside ``gpusim/`` or ``coloring/``. Those layers
  live in the simulated-cycle domain; wall-clock reads there either
  leak into results (breaking reproducibility) or mix clock domains
  the observability layer keeps separate (``repro.obs`` owns the wall
  clock).
* ``RC003`` **frozen-csr** — no mutation of CSR arrays (``indptr`` /
  ``indices`` subscript stores, rebinding, or ``setflags``) inside
  ``gpusim/`` or ``coloring/``. Kernels take read-only views of the
  immutable graph; a mutation would silently corrupt every other
  kernel sharing it.
* ``RC004`` **bounded-traces** — no ``*.trace.append(...)`` /
  ``trace.append(...)`` *inside a loop* outside ``repro/obs``.
  Unbounded trace lists were the pre-obs memory leak; all event
  retention goes through the bounded sinks in :mod:`repro.obs.sink`.
  The rule is loop-context-aware: it walks each scope's control-flow
  graph (:mod:`repro.check.flow.cfg`, tolerant mode) and only flags
  appends whose statement sits at loop depth ≥ 1 — a straight-line
  append runs once and is bounded by construction. When a scope's CFG
  cannot be built the rule falls back to flagging (conservative).
* ``RC006`` **store-owns-sqlite** — no ``sqlite3.connect(...)``
  outside :mod:`repro.store`. Connections are confined to the thread
  (and, under the serve executor, the worker process) that opened
  them; the store package owns pragmas, locking, and schema
  migration, and the serve executor's per-worker ``RunStore`` is the
  sanctioned way to get a connection elsewhere. Passing
  ``check_same_thread=False`` is flagged *anywhere* — it disables the
  one guard sqlite itself provides.
* ``RC008`` **declared-width-index-math** — inside ``coloring/`` and
  ``graphs/``, (a) no ``.astype(...)`` to a narrow integer dtype
  (int32 and smaller): narrowing truncates silently, so every such
  cast must sit behind a proven capacity guard and carry an explicit
  ``# check: allow(RC008)``; (b) no ``+``/``-``/``*`` arithmetic whose
  operand is a bare ``indices`` array: the CSR neighbor array is
  int32 by contract, and index arithmetic on it (``owner * n +
  indices``) overflows at scale unless the int32 operand is first
  widened with an explicit ``.astype(np.int64)``. The overflow
  certifier (:mod:`repro.check.flow.overflow`) proves the kernel
  specs; this rule keeps the vectorized host code honest too.

Suppress a finding with an inline ``# check: allow(RCnnn)`` comment.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path

from .flow.cfg import build_cfg

__all__ = [
    "RULES",
    "LintViolation",
    "lint_source",
    "lint_file",
    "lint_paths",
]

#: rule id → one-line description (the CLI prints these for --explain).
RULES: dict[str, str] = {
    "RC001": "unseeded np.random.* call — use a seeded np.random.Generator",
    "RC002": "wall-clock read inside the simulated-cycle domain (gpusim/coloring)",
    "RC003": "mutation of CSR arrays (indptr/indices) inside kernel code",
    "RC004": "trace-list append inside a loop outside the repro.obs sinks",
    "RC006": "sqlite3 connection opened outside repro.store",
    "RC008": "narrowing int astype / bare int32 index arithmetic in index code",
}

#: np.random entry points that take (or wrap) an explicit seed — calls
#: to anything else on np.random hit hidden global RNG state.
_SEEDED_FACTORIES = {
    "default_rng",
    "Generator",
    "SeedSequence",
    "RandomState",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "MT19937",
    "SFC64",
}

#: wall-clock callables on the stdlib ``time`` module (sleep included:
#: a sleeping simulator layer is always a bug).
_TIME_FUNCS = {
    "time",
    "time_ns",
    "perf_counter",
    "perf_counter_ns",
    "monotonic",
    "monotonic_ns",
    "process_time",
    "process_time_ns",
    "sleep",
}

#: path fragments (relative, POSIX) the sim-domain rules apply to.
_SIM_DOMAIN = ("gpusim/", "coloring/")

#: the only package allowed to open sqlite connections directly.
_SQLITE_OWNERS = ("repro/store/",)

#: path fragments the index-width rule (RC008) applies to: the layers
#: that do vertex/edge index arithmetic on declared-width arrays.
_INDEX_DOMAIN = ("coloring/", "graphs/")

#: integer dtypes narrower than or equal to 32 bits — an ``astype`` to
#: any of these truncates silently past its range.
_NARROW_INT_DTYPES = {
    "int8",
    "int16",
    "int32",
    "uint8",
    "uint16",
    "uint32",
    "byte",
    "ubyte",
    "short",
    "ushort",
    "intc",
    "uintc",
    "i1",
    "i2",
    "i4",
    "u1",
    "u2",
    "u4",
}


@dataclass(frozen=True)
class LintViolation:
    rule: str
    path: str
    line: int
    col: int
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


def _attr_chain(node: ast.AST) -> list[str]:
    """``a.b.c`` → ``["a", "b", "c"]``; empty when not a pure name chain."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return parts[::-1]
    return []


def _suppressed(source_lines: list[str], line: int, rule: str) -> bool:
    if not 1 <= line <= len(source_lines):
        return False
    text = source_lines[line - 1]
    return f"check: allow({rule})" in text


def _loop_depths(tree: ast.Module) -> dict[int, int]:
    """Loop-nesting depth of every AST node, keyed by node identity.

    Builds a tolerant-mode CFG per scope (the module, then every
    function, outer before inner so inner scopes overwrite with their
    own — more accurate — depths) and spreads each statement's depth
    over its expression subtree. Depth counts loops of the *enclosing
    scope only*: a helper that appends once but is called from a loop
    is out of scope for a per-module lint.
    """
    depths: dict[int, int] = {}
    scopes: list[ast.Module | ast.FunctionDef | ast.AsyncFunctionDef] = [tree]
    scopes += [
        n
        for n in ast.walk(tree)
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    for scope in scopes:
        try:
            cfg = build_cfg(scope, strict=False)
        except Exception:  # pragma: no cover — tolerant mode shouldn't raise
            continue
        depth = cfg.loop_depth()
        for bid, block in cfg.blocks.items():
            roots: list[ast.AST] = list(block.stmts)
            node = block.branch_node
            if isinstance(node, ast.For):
                roots.append(node.iter)
            elif node is not None:
                test = getattr(node, "test", None)
                if test is not None:
                    roots.append(test)
            for root in roots:
                for sub in ast.walk(root):
                    depths[id(sub)] = depth[bid]
    return depths


class _Checker(ast.NodeVisitor):
    def __init__(
        self,
        path: str,
        in_sim_domain: bool,
        in_obs: bool,
        loop_depths: dict[int, int] | None = None,
        in_sqlite_owner: bool = False,
        in_index_domain: bool = False,
    ) -> None:
        self.path = path
        self.in_sim_domain = in_sim_domain
        self.in_obs = in_obs
        self.in_sqlite_owner = in_sqlite_owner
        self.in_index_domain = in_index_domain
        self.loop_depths = loop_depths if loop_depths is not None else {}
        self.violations: list[LintViolation] = []

    def _flag(self, rule: str, node: ast.AST, message: str) -> None:
        self.violations.append(
            LintViolation(
                rule=rule,
                path=self.path,
                line=getattr(node, "lineno", 0),
                col=getattr(node, "col_offset", 0),
                message=message,
            )
        )

    # -- RC001 ----------------------------------------------------------

    def _check_random(self, node: ast.Call, chain: list[str]) -> None:
        # matches np.random.X(...) / numpy.random.X(...)
        if len(chain) < 3 or chain[0] not in ("np", "numpy") or chain[1] != "random":
            return
        func = chain[2]
        if func not in _SEEDED_FACTORIES:
            self._flag(
                "RC001",
                node,
                f"np.random.{func}() uses unseeded global RNG state; "
                "use a seeded np.random.default_rng(seed)",
            )
            return
        if func == "default_rng" and not node.args and not node.keywords:
            self._flag(
                "RC001",
                node,
                "np.random.default_rng() without a seed is entropy-seeded; "
                "pass an explicit seed",
            )

    # -- RC002 ----------------------------------------------------------

    def _check_wall_clock(self, node: ast.Call, chain: list[str]) -> None:
        if not self.in_sim_domain:
            return
        if len(chain) == 2 and chain[0] == "time" and chain[1] in _TIME_FUNCS:
            self._flag(
                "RC002",
                node,
                f"time.{chain[1]}() in the simulated-cycle domain; timing "
                "belongs to the simulator, wall clocks to repro.obs",
            )
        if (
            len(chain) >= 2
            and chain[-1] in ("now", "utcnow", "today")
            and "datetime" in chain[:-1]
        ):
            self._flag(
                "RC002",
                node,
                "datetime wall-clock read in the simulated-cycle domain",
            )

    # -- RC003 ----------------------------------------------------------

    def _check_csr_store(self, target: ast.AST, node: ast.AST) -> None:
        if not self.in_sim_domain:
            return
        if isinstance(target, ast.Subscript):
            chain = _attr_chain(target.value)
            if chain and chain[-1] in ("indptr", "indices") and len(chain) >= 2:
                self._flag(
                    "RC003",
                    node,
                    f"subscript store into {'.'.join(chain)} — CSR arrays "
                    "are immutable inside kernels",
                )
        elif isinstance(target, ast.Attribute) and target.attr in (
            "indptr",
            "indices",
        ):
            chain = _attr_chain(target)
            if chain:
                self._flag(
                    "RC003",
                    node,
                    f"rebinding {'.'.join(chain)} — CSR arrays are immutable "
                    "inside kernels",
                )

    def _check_setflags(self, node: ast.Call, chain: list[str]) -> None:
        if not self.in_sim_domain:
            return
        if len(chain) >= 3 and chain[-1] == "setflags" and chain[-2] in (
            "indptr",
            "indices",
        ):
            self._flag(
                "RC003",
                node,
                f"{'.'.join(chain)}() — un-freezing CSR buffers inside "
                "kernel code",
            )

    # -- RC004 ----------------------------------------------------------

    def _check_trace_append(self, node: ast.Call, chain: list[str]) -> None:
        if self.in_obs:
            return
        if len(chain) >= 2 and chain[-1] == "append" and chain[-2] == "trace":
            # loop-context-aware: a straight-line append runs once and
            # is bounded; only appends reachable per loop iteration
            # grow without bound. Unknown depth (no CFG) flags.
            if self.loop_depths.get(id(node), 1) < 1:
                return
            self._flag(
                "RC004",
                node,
                f"{'.'.join(chain)}(...) grows a trace list once per loop "
                "iteration; emit through a bounded repro.obs sink instead",
            )

    # -- RC006 ----------------------------------------------------------

    def _check_sqlite_connect(self, node: ast.Call, chain: list[str]) -> None:
        is_connect = len(chain) >= 2 and chain[0] == "sqlite3" and chain[-1] == "connect"
        if is_connect and not self.in_sqlite_owner:
            self._flag(
                "RC006",
                node,
                "sqlite3.connect() outside repro.store — go through "
                "RunStore (the serve executor keeps one per worker); the "
                "store owns pragmas, locking, and schema migration",
            )
        if not is_connect:
            return
        # check_same_thread=False is flagged even inside the store: it
        # turns off sqlite's only thread-confinement guard.
        for kw in node.keywords:
            if (
                kw.arg == "check_same_thread"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is False
            ):
                self._flag(
                    "RC006",
                    node,
                    "check_same_thread=False shares one sqlite connection "
                    "across threads; keep connections thread-confined",
                )

    # -- RC008 ----------------------------------------------------------

    @staticmethod
    def _astype_dtype(node: ast.Call) -> str | None:
        """The dtype name an ``x.astype(...)`` call targets, if literal."""
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr == "astype"):
            return None
        arg: ast.AST | None = node.args[0] if node.args else None
        for kw in node.keywords:
            if kw.arg == "dtype":
                arg = kw.value
        if isinstance(arg, ast.Attribute):
            return arg.attr
        if isinstance(arg, ast.Name):
            return arg.id
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            return arg.value
        return None

    def _check_narrowing_astype(self, node: ast.Call) -> None:
        if not self.in_index_domain:
            return
        dtype = self._astype_dtype(node)
        if dtype in _NARROW_INT_DTYPES:
            self._flag(
                "RC008",
                node,
                f".astype({dtype}) narrows silently past the dtype's "
                "range; guard capacity explicitly and annotate with "
                "# check: allow(RC008)",
            )

    @staticmethod
    def _bare_indices_root(node: ast.AST) -> str | None:
        """``indices`` / ``x.indices`` behind any subscripting, else None.

        An operand already wrapped in a widening ``astype`` is a Call,
        which breaks the attribute chain — exactly the sanctioned form.
        """
        while isinstance(node, ast.Subscript):
            node = node.value
        chain = _attr_chain(node)
        if chain and chain[-1] in ("indices", "_indices"):
            return ".".join(chain)
        return None

    def _check_index_arith(self, node: ast.BinOp) -> None:
        if not self.in_index_domain:
            return
        if not isinstance(node.op, (ast.Add, ast.Sub, ast.Mult)):
            return
        for operand in (node.left, node.right):
            root = self._bare_indices_root(operand)
            if root is not None:
                self._flag(
                    "RC008",
                    node,
                    f"arithmetic on bare {root} (int32 by contract) can "
                    "overflow at scale; widen first with "
                    ".astype(np.int64)",
                )
                return

    # -- dispatch -------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        chain = _attr_chain(node.func)
        if chain:
            self._check_random(node, chain)
            self._check_wall_clock(node, chain)
            self._check_setflags(node, chain)
            self._check_trace_append(node, chain)
            self._check_sqlite_connect(node, chain)
        self._check_narrowing_astype(node)
        self.generic_visit(node)

    def visit_BinOp(self, node: ast.BinOp) -> None:
        self._check_index_arith(node)
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_csr_store(target, node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_csr_store(node.target, node)
        self.generic_visit(node)


def _domain_flags(path: str) -> tuple[bool, bool, bool, bool]:
    posix = Path(path).as_posix()
    in_sim = any(frag in posix for frag in _SIM_DOMAIN)
    in_obs = "obs/" in posix or posix.endswith("obs")
    in_sqlite_owner = any(frag in posix for frag in _SQLITE_OWNERS)
    in_index_domain = any(frag in posix for frag in _INDEX_DOMAIN)
    return (
        in_sim,
        in_obs,
        in_sqlite_owner,
        in_index_domain,
    )


def lint_source(source: str, path: str = "<string>") -> list[LintViolation]:
    """Lint one module's source text; ``path`` scopes the domain rules."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            LintViolation(
                rule="RC000",
                path=path,
                line=exc.lineno or 0,
                col=exc.offset or 0,
                message=f"syntax error: {exc.msg}",
            )
        ]
    (
        in_sim,
        in_obs,
        in_sqlite_owner,
        in_index_domain,
    ) = _domain_flags(path)
    checker = _Checker(
        path,
        in_sim,
        in_obs,
        loop_depths=_loop_depths(tree),
        in_sqlite_owner=in_sqlite_owner,
        in_index_domain=in_index_domain,
    )
    checker.visit(tree)
    lines = source.splitlines()
    return [
        v for v in checker.violations if not _suppressed(lines, v.line, v.rule)
    ]


def lint_file(path: str | Path) -> list[LintViolation]:
    p = Path(path)
    return lint_source(p.read_text(), str(p))


def lint_paths(paths: tuple[str, ...] | list[str] = ("src",)) -> list[LintViolation]:
    """Lint every ``*.py`` under the given files/directories, sorted."""
    violations: list[LintViolation] = []
    for entry in paths:
        p = Path(entry)
        files = sorted(p.rglob("*.py")) if p.is_dir() else [p]
        for f in files:
            if "__pycache__" in f.parts:
                continue
            violations.extend(lint_file(f))
    return sorted(violations, key=lambda v: (v.path, v.line, v.col))
